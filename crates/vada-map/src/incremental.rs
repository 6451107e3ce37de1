//! Incremental mapping execution: the bridge between the knowledge-base
//! [delta journal](vada_kb::DeltaJournal) and the Datalog engine's
//! [`IncrementalSession`].
//!
//! An [`IncrementalExecutor`] keeps one session per *structurally
//! distinct* mapping (fingerprinted by rules, source list and target
//! schema — mapping ids regenerate on every generation pass, the
//! structure usually does not). On re-execution it reads the journal
//! entries since its last run; when every relevant entry is *row-level*
//! it replays just those rows through the session — appends through the
//! semi-naive fast path, removals (`RowsRemoved`, and tail
//! `RowsReplaced` rewrites as retract-old + append-new) through the
//! counting/DRed retraction path — so the derivation work is O(rows
//! changed), not O(sources). Relations are bags while the fact view is a
//! set, so the executor tracks row multiplicities and retracts a fact
//! only when its last occurrence disappears; likewise a
//! `postcode_district` helper fact is retracted only when its last
//! contributing row goes. Anything else — a replaced source, a
//! mid-relation rewrite, a stale journal window, a schema change, a
//! helper fact whose scratch position a replayed edit cannot reproduce —
//! rebuilds the input from the knowledge base and re-materializes,
//! keeping the output byte-identical to
//! [`execute_mapping`](crate::execute_mapping) in every case.
//!
//! ```
//! use vada_common::{tuple, AttrType, Relation, Schema};
//! use vada_kb::{KnowledgeBase, MappingDef};
//! use vada_map::{execute_mapping, ExecuteConfig, IncrementalExecutor};
//!
//! let mut kb = KnowledgeBase::new();
//! let mut src = Relation::empty(Schema::all_str("listings", &["street", "price"]));
//! src.push(tuple!["1 high st", "250000"]).unwrap();
//! kb.register_source(src.clone());
//! kb.register_target_schema(
//!     Schema::new("property", [("street", AttrType::Str), ("price", AttrType::Int)]).unwrap(),
//! );
//! let mapping = MappingDef {
//!     id: "m0".into(),
//!     target: "property".into(),
//!     rules: "property(S, P) :- listings(S, P).".into(),
//!     sources: vec!["listings".into()],
//!     matches_used: vec![],
//! };
//!
//! let mut exec = IncrementalExecutor::default();
//! let cfg = ExecuteConfig::default();
//! let first = exec.execute(&cfg, &mapping, &kb).unwrap();
//!
//! // append a row and re-execute: one delta fact through the fast path
//! src.push(tuple!["2 park rd", "300000"]).unwrap();
//! kb.register_source(src);
//! let second = exec.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(second.len(), 2);
//! assert_eq!(exec.stats().incremental_runs, 1);
//! // …and byte-identical to a from-scratch execution
//! assert_eq!(second.tuples(), execute_mapping(&cfg, &mapping, &kb).unwrap().tuples());
//! ```

use std::collections::{BTreeMap, HashMap};

use vada_common::obs::key as obs_key;
use vada_common::{Relation, Result, Schema, Tuple, VadaError, Value};
use vada_datalog::incremental::{DeltaMode, IncrementalSession};
use vada_kb::{DeltaChange, DeltaEvent, KnowledgeBase, MappingDef};

use crate::execute::{build_input_db, coerce_fact, district_facts, ExecuteConfig};

/// Cap on retained sessions; the least recently used is evicted beyond it.
pub const DEFAULT_SESSION_CAPACITY: usize = 16;

/// Executor-level counters, for benches and the repro driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// From-scratch materializations: bootstraps, journal/session
    /// fallbacks, structural changes.
    pub full_runs: usize,
    /// Executions that went through the semi-naive fast path end to end.
    pub incremental_runs: usize,
    /// The most recent reason a fast path was refused, if any.
    pub last_fallback: Option<String>,
}

/// One persistent session plus the state needed to mirror the scratch
/// input construction and the coerced result incrementally.
#[derive(Debug)]
struct MappingSession {
    session: IncrementalSession,
    /// KB version consumed through (journal watermark).
    last_version: u64,
    /// Journal lineage the watermark was taken against: a mismatch means
    /// the history may have diverged under the same sequence numbers
    /// (e.g. work resumed on a clone), so the watermark is meaningless.
    last_lineage: u64,
    /// Cached coerced result; extended in place on append-only deltas.
    result: Relation,
    /// Target facts already represented in `result`.
    target_facts: usize,
    /// Full postcode → index (into `mapping.sources`) of the source whose
    /// scan first contributes its `postcode_district` fact. The helper
    /// predicate is shared across sources, so whether an appended row's
    /// helper fact keeps (or can take) its scratch position depends on
    /// where earlier occurrences live — see `plan_delta`.
    districts: HashMap<String, usize>,
    /// Highest first-occurrence source index present in `districts`.
    max_district_source: usize,
    /// Row multiplicity per `(source index, tuple)`: relations are bags
    /// while the fact view is a set, so a retraction reaches the engine
    /// only when the *last* occurrence of a row disappears.
    mult: HashMap<(usize, Tuple), u32>,
    /// Contributing-row count per full postcode: the `postcode_district`
    /// helper fact is retracted when its last contributor disappears.
    district_support: HashMap<String, usize>,
    /// The row that first contributes each full postcode in the scan — a
    /// removal of any *other* contributor provably keeps the helper
    /// fact's scratch position.
    district_first: HashMap<String, Tuple>,
}

/// A fleet of [`IncrementalSession`]s keyed by mapping structure. See the
/// module docs.
#[derive(Debug)]
pub struct IncrementalExecutor {
    sessions: BTreeMap<String, MappingSession>,
    /// Fingerprints in least→most recently used order.
    lru: Vec<String>,
    capacity: usize,
    stats: ExecutorStats,
}

impl Default for IncrementalExecutor {
    fn default() -> Self {
        IncrementalExecutor {
            sessions: BTreeMap::new(),
            lru: Vec::new(),
            capacity: DEFAULT_SESSION_CAPACITY,
            stats: ExecutorStats::default(),
        }
    }
}

/// The structural identity of a mapping execution: same fingerprint ⇒
/// same program, same input sources, same output typing.
fn fingerprint(mapping: &MappingDef, target: &Schema) -> String {
    let mut fp = String::new();
    fp.push_str(&target.name);
    for a in target.attributes() {
        fp.push_str(&format!("|{}:{}", a.name, a.ty.name()));
    }
    fp.push_str(&format!("|src={:?}|", mapping.sources));
    fp.push_str(&mapping.rules);
    fp
}

/// One engine-bound step of a planned delta, in journal order.
enum PlannedOp {
    /// New facts, in scratch-input order, for the semi-naive append path.
    Append(Vec<(String, Tuple)>),
    /// Facts whose last row occurrence disappeared, for the
    /// counting/DRed retraction path.
    Retract(Vec<(String, Tuple)>),
}

/// A vetted row-level delta: append/retract steps in journal order plus
/// the bookkeeping to persist once every step succeeds. Built up row by
/// row while vetting journal events, mirroring the scratch input
/// construction.
struct PlannedDelta {
    ops: Vec<PlannedOp>,
    districts: HashMap<String, usize>,
    max_source: usize,
    mult: HashMap<(usize, Tuple), u32>,
    district_support: HashMap<String, usize>,
    district_first: HashMap<String, Tuple>,
}

impl PlannedDelta {
    fn push_append(&mut self, pred: String, t: Tuple) {
        if let Some(PlannedOp::Append(facts)) = self.ops.last_mut() {
            facts.push((pred, t));
        } else {
            self.ops.push(PlannedOp::Append(vec![(pred, t)]));
        }
    }

    fn push_retract(&mut self, pred: String, t: Tuple) {
        if let Some(PlannedOp::Retract(facts)) = self.ops.last_mut() {
            facts.push((pred, t));
        } else {
            self.ops.push(PlannedOp::Retract(vec![(pred, t)]));
        }
    }

    /// Vet one appended row: bump its multiplicity, place its helper
    /// facts, and plan the fact appends.
    fn append_row(&mut self, relation: &str, src_idx: usize, row: &Tuple) -> Result<(), String> {
        for (full, district) in district_facts(row) {
            let support = self.district_support.entry(full.clone()).or_insert(0);
            *support += 1;
            if *support > 1 {
                // the helper predicate is shared across sources: an
                // existing fact keeps its scratch position only when its
                // first occurrence is in this source or an earlier one
                match self.districts.get(&full) {
                    Some(&first) if first <= src_idx => {}
                    _ => {
                        return Err(format!(
                            "helper fact `{full}` would move before its first occurrence"
                        ));
                    }
                }
            } else if self.max_source > src_idx {
                // brand new, but a later source already contributes
                // districts: appending cannot be its scratch position
                return Err(format!(
                    "new helper fact `{full}` from source `{relation}` lands before \
                     later sources"
                ));
            } else {
                self.districts.insert(full.clone(), src_idx);
                self.district_first.insert(full.clone(), row.clone());
                self.max_source = self.max_source.max(src_idx);
                self.push_append(
                    "postcode_district".into(),
                    Tuple::new(vec![Value::str(full), Value::str(district)]),
                );
            }
        }
        *self.mult.entry((src_idx, row.clone())).or_insert(0) += 1;
        self.push_append(relation.to_string(), row.clone());
        Ok(())
    }

    /// Vet one removed row: drop its multiplicity, retract facts whose
    /// last occurrence disappeared, and retire orphaned helper facts.
    fn remove_row(&mut self, relation: &str, src_idx: usize, row: &Tuple) -> Result<(), String> {
        match self.mult.get_mut(&(src_idx, row.clone())) {
            Some(n) if *n > 1 => {
                *n -= 1;
                // a duplicate row remains: the fact view is unchanged, but
                // helper support still shrinks below
            }
            Some(_) => {
                self.mult.remove(&(src_idx, row.clone()));
                self.push_retract(relation.to_string(), row.clone());
            }
            None => {
                return Err(format!(
                    "journal removed an untracked row from `{relation}`"
                ));
            }
        }
        for (full, district) in district_facts(row) {
            let Some(support) = self.district_support.get_mut(&full) else {
                return Err(format!("helper fact `{full}` has no tracked support"));
            };
            *support -= 1;
            if *support == 0 {
                // last contributor gone: the helper fact is retracted
                // (removal keeps the surviving facts' order)
                self.district_support.remove(&full);
                self.districts.remove(&full);
                self.district_first.remove(&full);
                self.max_source = self.districts.values().copied().max().unwrap_or(0);
                self.push_retract(
                    "postcode_district".into(),
                    Tuple::new(vec![Value::str(full), Value::str(district)]),
                );
            } else if self.district_first.get(&full) == Some(row) {
                // survivors exist but the removed row matches the first
                // contribution: the fact's scratch position may move
                // within the scan — rebuild (a removal of any *other*
                // contributor provably leaves the position alone)
                return Err(format!(
                    "helper fact `{full}` may lose its first contribution in \
                     `{relation}`"
                ));
            }
        }
        Ok(())
    }
}

impl IncrementalExecutor {
    /// An executor retaining at most `capacity` sessions.
    pub fn with_capacity(capacity: usize) -> IncrementalExecutor {
        IncrementalExecutor { capacity: capacity.max(1), ..Default::default() }
    }

    /// Executor-level counters.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Execute `mapping`, incrementally when the journal proves the inputs
    /// only grew. The result is byte-identical to
    /// [`execute_mapping`](crate::execute_mapping) on the same knowledge
    /// base — including row order — in every case.
    pub fn execute(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<Relation> {
        let target: Schema = kb
            .target_schema()
            .ok_or_else(|| VadaError::Kb("no target schema registered".into()))?
            .clone();
        if target.name != mapping.target {
            return Err(VadaError::Kb(format!(
                "mapping `{}` targets `{}` but the registered target is `{}`",
                mapping.id, mapping.target, target.name
            )));
        }
        let fp = fingerprint(mapping, &target);
        self.lru.retain(|f| f != &fp);
        self.lru.push(fp.clone());

        if let Some(ms) = self.sessions.get_mut(&fp) {
            // adopt the current worker count and registry: the orchestrator
            // may have re-broadcast since this session was bootstrapped
            // (output is level-invariant, only wall-clock changes)
            ms.session.set_parallelism(cfg.engine.parallelism);
            ms.session.set_obs(cfg.engine.obs.clone());
            match self.plan_delta(&fp, mapping, kb) {
                Ok(plan) => {
                    cfg.engine.obs.incr(obs_key::MAP_INCREMENTAL);
                    // the session's apply/retract spans nest underneath
                    let span = cfg.engine.obs.span("map/execute_incremental");
                    span.attr("mapping", &mapping.id);
                    span.attr("target", &mapping.target);
                    let outcome = self.apply_delta(&fp, plan, mapping, &target, kb);
                    match outcome {
                        Ok(rel) => return Ok(rel),
                        Err(e) => {
                            // a failed apply leaves the session poisoned:
                            // drop it so the next execution rebuilds clean
                            self.sessions.remove(&fp);
                            self.lru.retain(|f| f != &fp);
                            return Err(e);
                        }
                    }
                }
                Err(reason) => {
                    self.stats.last_fallback = Some(reason);
                    self.sessions.remove(&fp);
                }
            }
        }
        self.bootstrap(&fp, cfg, mapping, &target, kb)
    }

    /// Decide whether the journal entries since the session's watermark
    /// form an order-safe row-level delta; returns the append/retract
    /// steps in journal order plus the updated bookkeeping, or the
    /// refusal reason.
    fn plan_delta(
        &self,
        fp: &str,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<PlannedDelta, String> {
        let ms = &self.sessions[fp];
        if kb.journal().lineage() != ms.last_lineage {
            return Err("knowledge-base journal lineage changed since the last run".into());
        }
        let Some(events) = kb.drain_deltas_since(ms.last_version) else {
            return Err("journal window no longer covers the last run".into());
        };
        let mut plan = PlannedDelta {
            ops: Vec::new(),
            districts: ms.districts.clone(),
            max_source: ms.max_district_source,
            mult: ms.mult.clone(),
            district_support: ms.district_support.clone(),
            district_first: ms.district_first.clone(),
        };
        for DeltaEvent { change, .. } in &events {
            match change {
                DeltaChange::RowsAppended { relation, rows } => {
                    let Some(src_idx) =
                        mapping.sources.iter().position(|s| s == relation)
                    else {
                        continue;
                    };
                    for row in rows {
                        plan.append_row(relation, src_idx, row)?;
                    }
                }
                DeltaChange::RowsRemoved { relation, rows, .. } => {
                    let Some(src_idx) =
                        mapping.sources.iter().position(|s| s == relation)
                    else {
                        continue;
                    };
                    for row in rows {
                        plan.remove_row(relation, src_idx, row)?;
                    }
                }
                DeltaChange::RowsReplaced { relation, removed, added, tail, .. } => {
                    let Some(src_idx) =
                        mapping.sources.iter().position(|s| s == relation)
                    else {
                        continue;
                    };
                    // retract-old + append-new replays an in-place rewrite
                    // only when the rewritten rows were the trailing ones —
                    // anywhere else the new rows' scan positions sit in the
                    // middle of the relation, which an append cannot
                    // reproduce
                    if !tail {
                        return Err(format!(
                            "mid-relation rewrite of `{relation}` changes the scan order"
                        ));
                    }
                    for row in removed {
                        plan.remove_row(relation, src_idx, row)?;
                    }
                    for row in added {
                        plan.append_row(relation, src_idx, row)?;
                    }
                }
                // a brand-new relation cannot be one of this session's
                // sources (they existed at bootstrap), but if a source
                // was removed and re-added the pair of events must force
                // a rebuild — treat it like a replacement
                DeltaChange::RelationAdded { relation }
                | DeltaChange::RelationReplaced { relation }
                | DeltaChange::RelationRemoved { relation } => {
                    if mapping.sources.contains(relation) {
                        return Err(format!("source `{relation}` was replaced"));
                    }
                }
                // metadata aspects never reach the execution input; the
                // fingerprint already pins rules, sources and target
                DeltaChange::AspectChanged { .. } => {}
            }
        }
        Ok(plan)
    }

    /// Feed a planned delta through the session, step by step in journal
    /// order, and extend (or rebuild) the coerced result to mirror the
    /// target fact order.
    fn apply_delta(
        &mut self,
        fp: &str,
        plan: PlannedDelta,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<Relation> {
        let ms = self.sessions.get_mut(fp).expect("caller checked presence");
        ms.districts = plan.districts;
        ms.max_district_source = plan.max_source;
        ms.mult = plan.mult;
        ms.district_support = plan.district_support;
        ms.district_first = plan.district_first;
        // the run counts as incremental only when every step stayed on a
        // fast path; the result stays append-coercible only while no step
        // retracted anything or reordered the target
        let mut fast = true;
        let mut append_only = true;
        let mut last_fallback = None;
        for op in plan.ops {
            match op {
                PlannedOp::Append(facts) => {
                    ms.session.apply(facts)?;
                }
                PlannedOp::Retract(facts) => {
                    append_only = false;
                    ms.session.retract(facts)?;
                }
            }
            let outcome = ms.session.last_outcome().expect("step records an outcome");
            if outcome.mode != DeltaMode::Incremental {
                fast = false;
                last_fallback = outcome.fallback_reason.clone();
            }
            if outcome.reordered.contains(&target.name) {
                append_only = false;
            }
        }
        if fast {
            self.stats.incremental_runs += 1;
            self.stats.last_fallback = None;
        } else {
            self.stats.full_runs += 1;
            self.stats.last_fallback = last_fallback;
        }
        let facts = ms.session.database().facts(&target.name);
        if fast && append_only {
            // new target facts are a suffix: append-coerce only those
            for t in &facts[ms.target_facts.min(facts.len())..] {
                ms.result.push(coerce_fact(t, target, &mapping.id)?)?;
            }
        } else {
            let mut rel = Relation::empty(target.clone());
            for t in facts {
                rel.push(coerce_fact(t, target, &mapping.id)?)?;
            }
            ms.result = rel;
        }
        ms.target_facts = facts.len();
        ms.last_version = kb.version();
        ms.last_lineage = kb.journal().lineage();
        Ok(ms.result.clone())
    }

    /// Build a fresh session from the knowledge base (first sight of this
    /// mapping structure, or recovery from a refused/failed delta).
    fn bootstrap(
        &mut self,
        fp: &str,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<Relation> {
        let input = build_input_db(mapping, kb)?;
        // first-occurrence source index and contributor count per helper
        // fact, and row multiplicities, in the same scan order
        // build_input_db uses
        let mut districts: HashMap<String, usize> = HashMap::new();
        let mut district_support: HashMap<String, usize> = HashMap::new();
        let mut district_first: HashMap<String, Tuple> = HashMap::new();
        let mut mult: HashMap<(usize, Tuple), u32> = HashMap::new();
        let mut max_district_source = 0usize;
        for (src_idx, source) in mapping.sources.iter().enumerate() {
            let rel = kb.relation(source)?;
            for row in rel.iter() {
                *mult.entry((src_idx, row.clone())).or_insert(0) += 1;
                for (full, _) in district_facts(row) {
                    *district_support.entry(full.clone()).or_insert(0) += 1;
                    district_first.entry(full.clone()).or_insert_with(|| row.clone());
                    districts.entry(full).or_insert_with(|| {
                        max_district_source = max_district_source.max(src_idx);
                        src_idx
                    });
                }
            }
        }
        cfg.engine.obs.incr(obs_key::MAP_FULL);
        let mut session = IncrementalSession::new(cfg.engine.clone(), &mapping.rules)?;
        session.run_full(input)?;
        let mut result = Relation::empty(target.clone());
        let facts = session.database().facts(&target.name);
        for t in facts {
            result.push(coerce_fact(t, target, &mapping.id)?)?;
        }
        let ms = MappingSession {
            last_version: kb.version(),
            last_lineage: kb.journal().lineage(),
            target_facts: facts.len(),
            districts,
            max_district_source,
            mult,
            district_support,
            district_first,
            result,
            session,
        };
        self.stats.full_runs += 1;
        self.sessions.insert(fp.to_string(), ms);
        while self.lru.len() > self.capacity {
            let evicted = self.lru.remove(0);
            self.sessions.remove(&evicted);
        }
        Ok(self.sessions[fp].result.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_mapping;
    use vada_common::{tuple, AttrType};

    fn kb_and_mapping() -> (KnowledgeBase, MappingDef) {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["£250,000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["300000", "9 park rd", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        kb.register_source(dep);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        let rules = r#"
            property(S, PC, P, C) :- rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), deprivation(D, _).
        "#;
        let mapping = MappingDef {
            id: "m".into(),
            target: "property".into(),
            rules: rules.into(),
            sources: vec!["deprivation".into(), "rightmove".into()],
            matches_used: vec![],
        };
        (kb, mapping)
    }

    #[test]
    fn matches_scratch_across_appends_and_replacements() {
        let (mut kb, mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        let check = |exec: &mut IncrementalExecutor, kb: &KnowledgeBase| {
            let inc = exec.execute(&cfg, &mapping, kb).unwrap();
            let scratch = execute_mapping(&cfg, &mapping, kb).unwrap();
            assert_eq!(inc.schema(), scratch.schema());
            assert_eq!(inc.tuples(), scratch.tuples());
        };
        check(&mut exec, &kb);
        assert_eq!(exec.stats().full_runs, 1);

        // grow the last source (rightmove) with an already-seen postcode:
        // fast path (a brand-new postcode would add a postcode_district
        // fact feeding the negated has_crime, correctly forcing a rebuild)
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm.clone());
        check(&mut exec, &kb);
        assert_eq!(exec.stats().incremental_runs, 1, "{:?}", exec.stats());

        // a new postcode falls back inside the session, still identical
        let mut rm_new = kb.relation("rightmove").unwrap().clone();
        rm_new.push(tuple!["99000", "7 new rd", "M9 9ZZ"]).unwrap();
        kb.register_source(rm_new);
        check(&mut exec, &kb);
        assert!(
            exec.stats()
                .last_fallback
                .as_deref()
                .is_some_and(|r| r.contains("negated")),
            "{:?}",
            exec.stats()
        );

        // a brand-new district-shaped value in the non-final source would
        // land before rightmove's helper facts in a scratch build: rebuilt
        let mut dep = kb.relation("deprivation").unwrap().clone();
        dep.push(tuple!["EH1 1ZZ", "900"]).unwrap();
        kb.register_source(dep);
        check(&mut exec, &kb);
        assert!(
            exec.stats()
                .last_fallback
                .as_deref()
                .is_some_and(|r| r.contains("lands before later sources")),
            "{:?}",
            exec.stats()
        );

        // replace a source outright: rebuilt
        let mut rm2 = Relation::empty(rm.schema().clone());
        rm2.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
        kb.register_source(rm2);
        let before = exec.stats().full_runs;
        check(&mut exec, &kb);
        assert_eq!(exec.stats().full_runs, before + 1);
    }

    #[test]
    fn row_removals_take_the_retraction_path() {
        let (mut kb, mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        let check = |exec: &mut IncrementalExecutor, kb: &KnowledgeBase| {
            let inc = exec.execute(&cfg, &mapping, kb).unwrap();
            let scratch = execute_mapping(&cfg, &mapping, kb).unwrap();
            assert_eq!(inc.tuples(), scratch.tuples());
        };
        check(&mut exec, &kb);
        assert_eq!(exec.stats().full_runs, 1);

        // grow rightmove with a second M1 1AA row, then remove it again:
        // both legs replay row-level, no rebuild
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        check(&mut exec, &kb);
        assert_eq!(exec.stats().incremental_runs, 1, "{:?}", exec.stats());

        // removing a non-first contributor of an existing postcode is a
        // pure row retraction: counting handles it, no rebuild
        kb.remove_rows("rightmove", &[2]).unwrap();
        check(&mut exec, &kb);
        assert_eq!(exec.stats().incremental_runs, 2, "{:?}", exec.stats());
        assert_eq!(exec.stats().full_runs, 1, "{:?}", exec.stats());

        // removing the only EH1 1AA row orphans its helper fact: the plan
        // stays row-level (retract the fact and its helper), but the
        // retraction shrinks the negated `has_crime`, so the *session*
        // falls back — still byte-identical, reason recorded
        kb.remove_rows("rightmove", &[1]).unwrap();
        check(&mut exec, &kb);
        assert_eq!(exec.stats().incremental_runs, 2, "{:?}", exec.stats());
        assert!(
            exec.stats()
                .last_fallback
                .as_deref()
                .is_some_and(|r| r.contains("shrank")),
            "{:?}",
            exec.stats()
        );

        // a tail rewrite replays as retract-old + append-new (row-level,
        // no executor rebuild; the negation again decides fast vs full
        // inside the session)
        kb.update_source("rightmove", &[(0, tuple!["199000", "12 high st", "M1 1AA"])])
            .unwrap();
        check(&mut exec, &kb);

        // delete everything, then re-add: empty result, then rebuilt rows
        kb.remove_rows("rightmove", &[0]).unwrap();
        check(&mut exec, &kb);
        let empty = exec.execute(&cfg, &mapping, &kb).unwrap();
        assert!(empty.is_empty());
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["5000", "9 new st", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        check(&mut exec, &kb);
    }

    #[test]
    fn duplicate_rows_keep_the_fact_alive() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("s", &["a"]));
        src.push(tuple!["x"]).unwrap();
        src.push(tuple!["x"]).unwrap();
        src.push(tuple!["y"]).unwrap();
        kb.register_source(src);
        kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
        let mapping = MappingDef {
            id: "m".into(),
            target: "t".into(),
            rules: "t(X) :- s(X).".into(),
            sources: vec!["s".into()],
            matches_used: vec![],
        };
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        exec.execute(&cfg, &mapping, &kb).unwrap();

        // removing ONE of the two "x" rows must not retract the fact
        kb.remove_rows("s", &[0]).unwrap();
        let inc = exec.execute(&cfg, &mapping, &kb).unwrap();
        let scratch = execute_mapping(&cfg, &mapping, &kb).unwrap();
        assert_eq!(inc.tuples(), scratch.tuples());
        assert_eq!(inc.len(), 2, "t(x) survives via the duplicate row");
        assert_eq!(exec.stats().incremental_runs, 1, "{:?}", exec.stats());

        // removing the last "x" retracts it
        kb.remove_rows("s", &[0]).unwrap();
        let inc = exec.execute(&cfg, &mapping, &kb).unwrap();
        let scratch = execute_mapping(&cfg, &mapping, &kb).unwrap();
        assert_eq!(inc.tuples(), scratch.tuples());
        assert_eq!(inc.len(), 1);
        assert_eq!(exec.stats().incremental_runs, 2, "{:?}", exec.stats());
    }

    #[test]
    fn diverged_clone_lineage_forces_a_rebuild() {
        // the watermark-replay hazard: take a clone, advance BOTH the
        // original and the clone past the executor's watermark with
        // different content under the same sequence numbers — replaying
        // the clone's journal against the original's watermark would
        // silently skip the divergent events
        let (mut kb, mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        let clone = kb.clone();
        exec.execute(&cfg, &mapping, &kb).unwrap();

        // original lineage advances (the executor consumes it normally)
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        exec.execute(&cfg, &mapping, &kb).unwrap();

        // the clone's lineage advances differently, past the watermark
        let mut kb2 = clone;
        let mut rm2 = kb2.relation("rightmove").unwrap().clone();
        rm2.push(tuple!["777", "7 other st", "M1 1AA"]).unwrap();
        rm2.push(tuple!["888", "8 other st", "M1 1AA"]).unwrap();
        kb2.register_source(rm2);
        let full_before = exec.stats().full_runs;
        let inc = exec.execute(&cfg, &mapping, &kb2).unwrap();
        assert_eq!(exec.stats().full_runs, full_before + 1, "{:?}", exec.stats());
        assert!(
            exec.stats()
                .last_fallback
                .as_deref()
                .is_some_and(|r| r.contains("lineage")),
            "{:?}",
            exec.stats()
        );
        let scratch = execute_mapping(&cfg, &mapping, &kb2).unwrap();
        assert_eq!(inc.tuples(), scratch.tuples());
    }

    #[test]
    fn mid_relation_rewrite_rebuilds() {
        let (mut kb, mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        exec.execute(&cfg, &mapping, &kb).unwrap();
        // rewriting row 0 of 2 is not a tail edit: scan order changes
        kb.update_source("rightmove", &[(0, tuple!["111", "12 high st", "M1 1AA"])])
            .unwrap();
        let inc = exec.execute(&cfg, &mapping, &kb).unwrap();
        let scratch = execute_mapping(&cfg, &mapping, &kb).unwrap();
        assert_eq!(inc.tuples(), scratch.tuples());
        assert_eq!(exec.stats().incremental_runs, 0, "{:?}", exec.stats());
        assert!(
            exec.stats()
                .last_fallback
                .as_deref()
                .is_some_and(|r| r.contains("scan order")),
            "{:?}",
            exec.stats()
        );
    }

    #[test]
    fn unrelated_kb_churn_is_ignored() {
        let (mut kb, mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        exec.execute(&cfg, &mapping, &kb).unwrap();

        // metadata churn plus an unrelated relation: no reason to rerun
        kb.add_quality(vada_kb::QualityFact {
            entity_kind: "mapping".into(),
            entity: "m".into(),
            metric: "completeness".into(),
            criterion: "completeness(price)".into(),
            value: 1.0,
        });
        let mut other = Relation::empty(Schema::all_str("unrelated", &["a"]));
        other.push(tuple!["x"]).unwrap();
        kb.register_source(other);

        let rel = exec.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(exec.stats().incremental_runs, 1);
        assert_eq!(
            rel.tuples(),
            execute_mapping(&cfg, &mapping, &kb).unwrap().tuples()
        );
    }

    #[test]
    fn structural_change_creates_a_fresh_session() {
        let (mut kb, mut mapping) = kb_and_mapping();
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        exec.execute(&cfg, &mapping, &kb).unwrap();
        // a different mapping id with identical structure reuses the session
        mapping.id = "m2".into();
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["500000", "4 mill ln", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        exec.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(exec.stats().incremental_runs, 1);
        // changed rules: new fingerprint, fresh full run
        mapping.rules = "property(S, PC, P, null) :- rightmove(P, S, PC).".into();
        let rel = exec.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(exec.stats().full_runs, 2);
        assert_eq!(
            rel.tuples(),
            execute_mapping(&cfg, &mapping, &kb).unwrap().tuples()
        );
    }

    #[test]
    fn failed_apply_drops_the_session_and_recovers() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("s", &["a"]));
        src.push(tuple![1]).unwrap();
        kb.register_source(src.clone());
        kb.register_target_schema(
            Schema::new("t", [("a", AttrType::Str)]).unwrap(),
        );
        let mapping = MappingDef {
            id: "m".into(),
            target: "t".into(),
            rules: "t(Y) :- s(X), Y = X + 0.".into(),
            sources: vec!["s".into()],
            matches_used: vec![],
        };
        let cfg = ExecuteConfig::default();
        let mut exec = IncrementalExecutor::default();
        exec.execute(&cfg, &mapping, &kb).unwrap();

        // a delta row that breaks the arithmetic mid-delta-pass
        src.push(tuple!["not a number"]).unwrap();
        kb.register_source(src.clone());
        let err = exec.execute(&cfg, &mapping, &kb).unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        // …the scratch path fails identically (no divergence), and once
        // the poison row is gone the executor rebuilds cleanly
        assert!(execute_mapping(&cfg, &mapping, &kb).is_err());
        let mut fixed = Relation::empty(src.schema().clone());
        fixed.push(tuple![1]).unwrap();
        fixed.push(tuple![2]).unwrap();
        kb.register_source(fixed);
        let rel = exec.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(
            rel.tuples(),
            execute_mapping(&cfg, &mapping, &kb).unwrap().tuples()
        );
    }
}
