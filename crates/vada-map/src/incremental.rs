//! The mapping **result store**: the one way both mapping transducers
//! materialise a mapping, in both evaluation modes.
//!
//! An [`IncrementalExecutor`] keeps one entry per *structurally distinct*
//! mapping (fingerprinted by rules, source list and target schema —
//! mapping ids regenerate on every generation pass, the structure usually
//! does not): the coerced result plus the [delta
//! journal](vada_kb::DeltaJournal) position (lineage, watermark) it is
//! current at. On re-execution it scans the journal since that watermark.
//! When the lineage matches, the window still covers the watermark, and no
//! event names one of the mapping's sources, nothing the mapping reads has
//! changed and the stored result is handed back as is — no parse, no input
//! database, no engine run (`map.execute.reused`). Otherwise the entry is
//! **refreshed**, and [`Evaluation`] only selects how:
//!
//! - [`Evaluation::Full`] re-materialises from scratch through
//!   [`execute_mapping`](crate::execute_mapping);
//! - [`Evaluation::Incremental`] additionally keeps a live
//!   [`IncrementalSession`] per entry and, when every relevant journal
//!   entry is *row-level*, replays just those rows through it — appends
//!   through the semi-naive fast path, removals (`RowsRemoved`, and tail
//!   `RowsReplaced` rewrites as retract-old + append-new) through the
//!   counting/DRed retraction path — so the derivation work is O(rows
//!   changed), not O(sources). Relations are bags while the fact view is a
//!   set, so the executor tracks row multiplicities and retracts a fact
//!   only when its last occurrence disappears; likewise a
//!   `postcode_district` helper fact is retracted only when its last
//!   contributing row goes. Anything else — a replaced source, a
//!   mid-relation rewrite, a stale journal window, a helper fact whose
//!   scratch position a replayed edit cannot reproduce — rebuilds the
//!   input from the knowledge base and re-materializes.
//!
//! The output is byte-identical to
//! [`execute_mapping`](crate::execute_mapping) on the same knowledge base
//! in every case.
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
//! assert_eq!(first.len(), 1);
//!
//! // nothing the mapping reads has changed: the stored result comes back
//! exec.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(exec.stats().reused_runs, 1);
//!
//! // append a row and re-execute: one delta fact through the fast path
//! src.push(tuple!["2 park rd", "300000"]).unwrap();
//! kb.register_source(src);
//! let second = exec.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(second.len(), 2);
//! // …and byte-identical to a from-scratch execution
//! assert_eq!(second.tuples(), execute_mapping(&cfg, &mapping, &kb).unwrap().tuples());
//! assert_eq!(exec.stats().incremental_runs, 1);
//! ```

use std::collections::{BTreeMap, HashMap};

use vada_common::obs::key as obs_key;
use vada_common::{Evaluation, Relation, Result, Schema, Tuple, Value};
use vada_datalog::incremental::{DeltaMode, IncrementalSession};
use vada_kb::{DeltaChange, DeltaEvent, KnowledgeBase, MappingDef};

use crate::execute::{
    build_input_db, coerce_fact, district_facts, execute_mapping, registered_target, ExecuteConfig,
};

/// Cap on retained entries; the least recently used is evicted beyond it.
pub const DEFAULT_SESSION_CAPACITY: usize = 16;

/// Executor-level counters, for benches and the repro driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// From-scratch materializations: first sights, journal/session
    /// fallbacks, every stale entry under [`Evaluation::Full`].
    pub full_runs: usize,
    /// Executions that went through the semi-naive fast path end to end.
    pub incremental_runs: usize,
    /// Executions answered from the stored result (no source changed).
    pub reused_runs: usize,
    /// The most recent reason a stored entry could not be refreshed by
    /// delta, if any.
    pub last_fallback: Option<String>,
}

/// One stored materialisation and the journal position it is current at.
#[derive(Debug)]
struct Materialisation {
    /// Journal lineage the watermark was taken against: a mismatch means
    /// the history may have diverged under the same sequence numbers
    /// (e.g. work resumed on a clone), so the watermark is meaningless.
    lineage: u64,
    /// KB version consumed through (journal watermark).
    watermark: u64,
    /// The coerced result; extended in place on append-only deltas.
    result: Relation,
    /// The live session behind `result` — only under
    /// [`Evaluation::Incremental`].
    session: Option<MappingSession>,
}

impl Materialisation {
    /// The journal events since the watermark, or why they cannot be
    /// trusted to be all of them.
    fn events_since<'a>(
        &self,
        kb: &'a KnowledgeBase,
    ) -> Result<impl Iterator<Item = &'a DeltaEvent>, String> {
        if kb.journal().lineage() != self.lineage {
            return Err("knowledge-base journal lineage changed since the last run".into());
        }
        kb.journal()
            .scan_since(self.watermark)
            .ok_or_else(|| "journal window no longer covers the last run".into())
    }

    /// Whether anything `mapping` reads changed since the watermark. The
    /// fingerprint already pins rules, sources and target, so only events
    /// naming a source relation count; metadata aspects never reach the
    /// execution input.
    fn is_stale(&self, mapping: &MappingDef, kb: &KnowledgeBase) -> Result<bool, String> {
        Ok(self.events_since(kb)?.any(|e| {
            e.change.relation().is_some_and(|r| mapping.sources.iter().any(|s| s == r))
        }))
    }
}

/// One persistent session plus the state needed to mirror the scratch
/// input construction incrementally.
#[derive(Debug)]
struct MappingSession {
    session: IncrementalSession,
    /// Target facts already represented in the stored result.
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

/// The result store: one [`Materialisation`] per mapping structure. See
/// the module docs.
#[derive(Debug)]
pub struct IncrementalExecutor {
    entries: BTreeMap<String, Materialisation>,
    /// Fingerprints in least→most recently used order.
    lru: Vec<String>,
    capacity: usize,
    /// How a stale entry is refreshed.
    evaluation: Evaluation,
    stats: ExecutorStats,
}

/// A standalone executor refreshes by delta (its name); the transducers
/// overwrite that with the orchestrator's mode.
impl Default for IncrementalExecutor {
    fn default() -> Self {
        IncrementalExecutor {
            entries: BTreeMap::new(),
            lru: Vec::new(),
            capacity: DEFAULT_SESSION_CAPACITY,
            evaluation: Evaluation::Incremental,
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
    /// An executor retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> IncrementalExecutor {
        IncrementalExecutor { capacity: capacity.max(1), ..Default::default() }
    }

    /// Select how stale entries are refreshed from now on. Stored results
    /// stay valid across a switch: freshness never depends on the mode.
    pub fn set_evaluation(&mut self, evaluation: Evaluation) {
        self.evaluation = evaluation;
    }

    /// Executor-level counters.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Materialise `mapping`: the stored result when the journal proves
    /// no source changed since it was built, a refreshed one otherwise.
    /// The result is byte-identical to
    /// [`execute_mapping`](crate::execute_mapping) on the same knowledge
    /// base — including row order — in every case.
    pub fn execute(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<&Relation> {
        let target = registered_target(mapping, kb)?;
        let fp = fingerprint(mapping, target);
        self.lru.retain(|f| f != &fp);
        self.lru.push(fp.clone());

        let mut plan = None;
        match self.entries.get(&fp).map(|e| e.is_stale(mapping, kb)) {
            Some(Ok(false)) => {
                cfg.engine.obs.incr(obs_key::MAP_REUSED);
                self.stats.reused_runs += 1;
                let entry = self.entries.get_mut(&fp).expect("looked up above");
                entry.watermark = kb.version();
                return Ok(&entry.result);
            }
            Some(Ok(true)) if self.evaluation.is_incremental() => {
                match plan_delta(&self.entries[&fp], mapping, kb) {
                    Ok(delta) => plan = Some(delta),
                    Err(reason) => self.stats.last_fallback = Some(reason),
                }
            }
            Some(Err(reason)) => self.stats.last_fallback = Some(reason),
            _ => {}
        }
        if let Err(e) = self.refresh(&fp, plan, cfg, mapping, target, kb) {
            // a failed refresh may leave the session poisoned: drop the
            // entry so the next execution rebuilds clean
            self.entries.remove(&fp);
            self.lru.retain(|f| f != &fp);
            return Err(e);
        }
        while self.lru.len() > self.capacity {
            let evicted = self.lru.remove(0);
            self.entries.remove(&evicted);
        }
        Ok(&self.entries[&fp].result)
    }

    /// Bring the entry for `fp` up to the knowledge base's current state:
    /// by the planned journal delta when there is one, from scratch
    /// otherwise.
    fn refresh(
        &mut self,
        fp: &str,
        plan: Option<PlannedDelta>,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<()> {
        if let Some(plan) = plan {
            cfg.engine.obs.incr(obs_key::MAP_INCREMENTAL);
            // the session's apply/retract spans nest underneath
            let span = cfg.engine.obs.span("map/execute_incremental");
            span.attr("mapping", &mapping.id);
            span.attr("target", &mapping.target);
            return self.apply_delta(fp, plan, cfg, mapping, target, kb);
        }
        let (result, session) = if self.evaluation.is_incremental() {
            let (result, session) = bootstrap(cfg, mapping, target, kb)?;
            (result, Some(session))
        } else {
            (execute_mapping(cfg, mapping, kb)?, None)
        };
        self.stats.full_runs += 1;
        let entry = Materialisation {
            lineage: kb.journal().lineage(),
            watermark: kb.version(),
            result,
            session,
        };
        self.entries.insert(fp.to_string(), entry);
        Ok(())
    }

    /// Feed a planned delta through the session, step by step in journal
    /// order, and extend (or rebuild) the coerced result to mirror the
    /// target fact order.
    fn apply_delta(
        &mut self,
        fp: &str,
        plan: PlannedDelta,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<()> {
        let entry = self.entries.get_mut(fp).expect("caller checked presence");
        let ms = entry.session.as_mut().expect("a delta is only planned over a session");
        // adopt the current worker count and registry: the orchestrator
        // may have re-broadcast since this session was bootstrapped
        // (output is level-invariant, only wall-clock changes)
        ms.session.set_parallelism(cfg.engine.parallelism);
        ms.session.set_obs(cfg.engine.obs.clone());
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
                entry.result.push(coerce_fact(t, target, &mapping.id)?)?;
            }
        } else {
            let mut rel = Relation::empty(target.clone());
            for t in facts {
                rel.push(coerce_fact(t, target, &mapping.id)?)?;
            }
            entry.result = rel;
        }
        ms.target_facts = facts.len();
        entry.watermark = kb.version();
        Ok(())
    }
}

/// Decide whether the journal entries since the entry's watermark form
/// an order-safe row-level delta; returns the append/retract steps in
/// journal order plus the updated bookkeeping, or the refusal reason.
fn plan_delta(
    entry: &Materialisation,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
) -> Result<PlannedDelta, String> {
    let Some(ms) = &entry.session else {
        return Err("the stored result was materialised without a session".into());
    };
    let events = entry.events_since(kb)?;
    let mut plan = PlannedDelta {
        ops: Vec::new(),
        districts: ms.districts.clone(),
        max_source: ms.max_district_source,
        mult: ms.mult.clone(),
        district_support: ms.district_support.clone(),
        district_first: ms.district_first.clone(),
    };
    for DeltaEvent { change, .. } in events {
        // events on relations this mapping does not read, and metadata
        // aspects, never reach the execution input
        let Some(relation) = change.relation() else { continue };
        let Some(src_idx) = mapping.sources.iter().position(|s| s == relation) else {
            continue;
        };
        match change {
            DeltaChange::RowsAppended { rows, .. } => {
                for row in rows {
                    plan.append_row(relation, src_idx, row)?;
                }
            }
            DeltaChange::RowsRemoved { rows, .. } => {
                for row in rows {
                    plan.remove_row(relation, src_idx, row)?;
                }
            }
            DeltaChange::RowsReplaced { removed, added, tail, .. } => {
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
            // sources (they existed at bootstrap), but if a source was
            // removed and re-added the pair of events must force a
            // rebuild — treat it like a replacement
            _ => return Err(format!("source `{relation}` was replaced")),
        }
    }
    Ok(plan)
}

/// Materialise `mapping` through a fresh session (first sight of this
/// mapping structure, or recovery from a refused/failed delta).
fn bootstrap(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    target: &Schema,
    kb: &KnowledgeBase,
) -> Result<(Relation, MappingSession)> {
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
        target_facts: facts.len(),
        districts,
        max_district_source,
        mult,
        district_support,
        district_first,
        session,
    };
    Ok((result, ms))
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
        let inc = exec.execute(&cfg, &mapping, &kb2).unwrap().clone();
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
        assert_eq!(
            rel.tuples(),
            execute_mapping(&cfg, &mapping, &kb).unwrap().tuples()
        );
        assert_eq!(exec.stats().full_runs, 2);
    }

    // ---- the result store: when is the stored result handed back? ----

    /// A fresh executor per evaluation mode: freshness never depends on
    /// how a stale entry would be refreshed.
    fn both_modes() -> [IncrementalExecutor; 2] {
        [Evaluation::Full, Evaluation::Incremental].map(|evaluation| {
            let mut exec = IncrementalExecutor::default();
            exec.set_evaluation(evaluation);
            exec
        })
    }

    /// Execute through the store and pin the answer to the scratch path.
    fn checked(exec: &mut IncrementalExecutor, mapping: &MappingDef, kb: &KnowledgeBase) {
        let cfg = ExecuteConfig::default();
        let got = exec.execute(&cfg, mapping, kb).unwrap();
        let scratch = execute_mapping(&cfg, mapping, kb).unwrap();
        assert_eq!(got.schema(), scratch.schema());
        assert_eq!(got.tuples(), scratch.tuples());
    }

    /// `(materialised from scratch or by delta, reused)` so far.
    fn tally(exec: &IncrementalExecutor) -> (usize, usize) {
        let s = exec.stats();
        (s.full_runs + s.incremental_runs, s.reused_runs)
    }

    #[test]
    fn store_hits_on_an_unchanged_kb_and_across_regenerated_ids() {
        for mut exec in both_modes() {
            let (kb, mut mapping) = kb_and_mapping();
            let obs = vada_common::Obs::enabled();
            let mut cfg = ExecuteConfig::default();
            cfg.engine.obs = obs.clone();
            let first = exec.execute(&cfg, &mapping, &kb).unwrap().clone();
            let runs_after_first = obs.get(obs_key::STRATUM_PASSES);
            assert!(runs_after_first > 0);

            // same knowledge base: nothing is parsed, built or derived
            let again = exec.execute(&cfg, &mapping, &kb).unwrap();
            assert_eq!(again.tuples(), first.tuples());
            // a generation pass re-issues the same structure under a new id
            mapping.id = "m_regenerated".into();
            let renamed = exec.execute(&cfg, &mapping, &kb).unwrap();
            assert_eq!(renamed.tuples(), first.tuples());

            assert_eq!(tally(&exec), (1, 2), "{:?}", exec.stats());
            assert_eq!(obs.get(obs_key::MAP_REUSED), 2);
            assert_eq!(obs.get(obs_key::MAP_FULL), 1);
            assert_eq!(obs.get(obs_key::STRATUM_PASSES), runs_after_first);
        }
    }

    #[test]
    fn store_misses_on_every_kind_of_source_change() {
        type Change = fn(&mut KnowledgeBase);
        let changes: [(&str, Change); 5] = [
            ("RowsAppended", |kb| {
                let mut rm = kb.relation("rightmove").unwrap().clone();
                rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            ("RowsRemoved", |kb| {
                kb.remove_rows("rightmove", &[0]).unwrap();
            }),
            ("RowsReplaced", |kb| {
                kb.update_source("rightmove", &[(1, tuple!["1", "9 park rd", "EH1 1AA"])])
                    .unwrap();
            }),
            ("RelationReplaced", |kb| {
                let mut rm = Relation::empty(kb.relation("rightmove").unwrap().schema().clone());
                rm.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            // the *other* source of the join counts just the same
            ("RowsAppended(deprivation)", |kb| {
                let mut dep = kb.relation("deprivation").unwrap().clone();
                dep.push(tuple!["EH1", "900"]).unwrap();
                kb.register_source(dep);
            }),
        ];
        for (name, change) in changes {
            for mut exec in both_modes() {
                let (mut kb, mapping) = kb_and_mapping();
                checked(&mut exec, &mapping, &kb);
                change(&mut kb);
                checked(&mut exec, &mapping, &kb);
                assert_eq!(tally(&exec), (2, 0), "{name}: {:?}", exec.stats());
                // refreshed and stored: the next look is a hit again
                checked(&mut exec, &mapping, &kb);
                assert_eq!(tally(&exec), (2, 1), "{name}: {:?}", exec.stats());
            }
        }
    }

    #[test]
    fn store_misses_when_the_journal_cannot_vouch_for_the_watermark() {
        for mut exec in both_modes() {
            // lineage: work resumed on a clone, even an untouched one
            let (kb, mapping) = kb_and_mapping();
            checked(&mut exec, &mapping, &kb);
            let resumed = kb.clone();
            checked(&mut exec, &mapping, &resumed);
            assert_eq!(tally(&exec), (2, 0), "{:?}", exec.stats());
            assert!(
                exec.stats().last_fallback.as_deref().is_some_and(|r| r.contains("lineage")),
                "{:?}",
                exec.stats()
            );
        }
        for mut exec in both_modes() {
            // window: more events than the journal retains, none on a source
            let (seed, mapping) = kb_and_mapping();
            let mut kb = KnowledgeBase::with_journal_capacity(4);
            kb.register_source(seed.relation("rightmove").unwrap().clone());
            kb.register_source(seed.relation("deprivation").unwrap().clone());
            kb.register_target_schema(seed.target_schema().unwrap().clone());
            checked(&mut exec, &mapping, &kb);
            for _ in 0..5 {
                kb.set_user_context(Vec::new());
            }
            checked(&mut exec, &mapping, &kb);
            assert_eq!(tally(&exec), (2, 0), "{:?}", exec.stats());
            assert!(
                exec.stats().last_fallback.as_deref().is_some_and(|r| r.contains("window")),
                "{:?}",
                exec.stats()
            );
            // a hit advances the watermark, so steady churn below the
            // window size never loses the entry
            for _ in 0..3 {
                kb.set_user_context(Vec::new());
                kb.set_user_context(Vec::new());
                checked(&mut exec, &mapping, &kb);
            }
            assert_eq!(tally(&exec), (2, 3), "{:?}", exec.stats());
        }
    }

    #[test]
    fn store_misses_on_a_target_schema_change() {
        for mut exec in both_modes() {
            let (mut kb, mapping) = kb_and_mapping();
            checked(&mut exec, &mapping, &kb);
            // same name and arity, but crimerank is now text: the coerced
            // result differs although no source moved
            kb.register_target_schema(
                Schema::new(
                    "property",
                    [
                        ("street", AttrType::Str),
                        ("postcode", AttrType::Str),
                        ("price", AttrType::Int),
                        ("crimerank", AttrType::Str),
                    ],
                )
                .unwrap(),
            );
            checked(&mut exec, &mapping, &kb);
            assert_eq!(tally(&exec), (2, 0), "{:?}", exec.stats());
        }
    }

    #[test]
    fn store_respects_the_lru_bound() {
        for evaluation in [Evaluation::Full, Evaluation::Incremental] {
            let (kb, mapping) = kb_and_mapping();
            let mut exec = IncrementalExecutor::with_capacity(2);
            exec.set_evaluation(evaluation);
            let variant = |n: usize| MappingDef {
                rules: format!("property(S, PC, P, {n}) :- rightmove(P, S, PC)."),
                ..mapping.clone()
            };
            for n in 0..3 {
                checked(&mut exec, &variant(n), &kb);
            }
            assert_eq!(exec.entries.len(), 2);
            assert_eq!(exec.lru.len(), 2);
            // the two most recent structures are still stored…
            checked(&mut exec, &variant(2), &kb);
            checked(&mut exec, &variant(1), &kb);
            assert_eq!(tally(&exec), (3, 2), "{:?}", exec.stats());
            // …the least recently used one was evicted
            checked(&mut exec, &variant(0), &kb);
            assert_eq!(tally(&exec), (4, 2), "{:?}", exec.stats());
            assert_eq!(exec.entries.len(), 2);
        }
    }

    #[test]
    fn unrelated_kb_churn_is_ignored() {
        for mut exec in both_modes() {
            let (mut kb, mapping) = kb_and_mapping();
            checked(&mut exec, &mapping, &kb);
            // metadata aspects, an unrelated relation (added, grown,
            // replaced, removed), a result and an intermediate
            kb.add_cfd(vada_kb::CfdRule {
                id: "c".into(),
                relation: "property".into(),
                lhs: vec![("postcode".into(), None)],
                rhs: ("street".into(), None),
                support: 1,
            });
            kb.set_user_context(Vec::new());
            let mut other = Relation::empty(Schema::all_str("unrelated", &["a"]));
            other.push(tuple!["x"]).unwrap();
            kb.register_source(other.clone());
            other.push(tuple!["y"]).unwrap();
            kb.register_source(other.clone());
            kb.register_source(Relation::empty(other.schema().clone()));
            kb.put_intermediate(Relation::empty(Schema::all_str("candidate_m", &["a"])));
            kb.remove_intermediate("candidate_m");
            kb.put_result(Relation::empty(kb.target_schema().unwrap().clone()));
            checked(&mut exec, &mapping, &kb);
            assert_eq!(tally(&exec), (1, 1), "{:?}", exec.stats());
        }
    }

    #[test]
    fn failed_apply_drops_the_session_and_recovers() {
        for mut exec in both_modes() {
            let mut kb = KnowledgeBase::new();
            let mut src = Relation::empty(Schema::all_str("s", &["a"]));
            src.push(tuple![1]).unwrap();
            kb.register_source(src.clone());
            kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
            let mapping = MappingDef {
                id: "m".into(),
                target: "t".into(),
                rules: "t(Y) :- s(X), Y = X + 0.".into(),
                sources: vec!["s".into()],
                matches_used: vec![],
            };
            checked(&mut exec, &mapping, &kb);
            assert_eq!(exec.entries.len(), 1);

            // a row that breaks the arithmetic: the refresh fails in either
            // mode and must not leave the pre-edit result behind as a hit
            src.push(tuple!["not a number"]).unwrap();
            kb.register_source(src.clone());
            let cfg = ExecuteConfig::default();
            let err = exec.execute(&cfg, &mapping, &kb).unwrap_err();
            assert_eq!(err.kind(), "eval", "{err}");
            assert!(execute_mapping(&cfg, &mapping, &kb).is_err(), "scratch fails identically");
            assert!(exec.entries.is_empty() && exec.lru.is_empty());
            assert!(exec.execute(&cfg, &mapping, &kb).is_err(), "no stale hit");
            assert_eq!(exec.stats().reused_runs, 0);

            kb.remove_rows("s", &[1]).unwrap();
            checked(&mut exec, &mapping, &kb);
        }
    }

    #[test]
    fn switching_the_mode_keeps_stored_results_and_refreshes_the_new_way() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut exec = IncrementalExecutor::default();
        exec.set_evaluation(Evaluation::Full);
        checked(&mut exec, &mapping, &kb);
        // Full → Incremental: the session-less entry still answers…
        exec.set_evaluation(Evaluation::Incremental);
        checked(&mut exec, &mapping, &kb);
        assert_eq!(tally(&exec), (1, 1), "{:?}", exec.stats());
        // …a source edit bootstraps a session, the next one replays by delta
        for street in ["3 kings ave", "4 mill ln"] {
            let mut rm = kb.relation("rightmove").unwrap().clone();
            rm.push(tuple!["410000", street, "M1 1AA"]).unwrap();
            kb.register_source(rm);
            checked(&mut exec, &mapping, &kb);
        }
        assert_eq!(exec.stats().incremental_runs, 1, "{:?}", exec.stats());
        // Incremental → Full: a stale entry re-materialises from scratch
        exec.set_evaluation(Evaluation::Full);
        kb.remove_rows("rightmove", &[0]).unwrap();
        checked(&mut exec, &mapping, &kb);
        assert_eq!(exec.stats().incremental_runs, 1, "{:?}", exec.stats());
        assert_eq!(exec.stats().full_runs, 3, "{:?}", exec.stats());
    }
}
