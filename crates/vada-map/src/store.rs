//! The mapping **result store**: the one home of candidate results, and
//! the one way both mapping transducers materialise a mapping.
//!
//! A [`ResultStore`] keeps one entry per *structurally distinct* mapping
//! (fingerprinted by rules, source list and target schema — mapping ids
//! regenerate on every generation pass, the structure usually does not):
//! the result plus the [journal mark](vada_kb::JournalMark) it is current
//! at. On re-execution it asks the knowledge base whether any of the
//! mapping's sources changed since that mark
//! ([`KnowledgeBase::changed_since`](vada_kb::KnowledgeBase::changed_since)).
//! When the journal proves none did, nothing the mapping reads has changed
//! and the stored result is handed back as is — no parse, no input
//! database, no engine run (`map.execute.reused`). Otherwise the entry is
//! rebuilt and stored again: a stale mapping is re-run, never maintained.
//! How it is rebuilt depends on the mapping:
//!
//! * A mapping without [`parts`](vada_kb::MappingDef::parts) runs through
//!   the engine exactly as [`execute_mapping`] does (`map.execute.full`).
//!   Its entry is the run: the coerced rows, the engine's raw target facts
//!   beside them, and a *version* number no other run of the store gets.
//! * A union is **assembled** from its parts (`map.execute.assembled`).
//!   Each part is a mapping in its own right, with its own entry — the
//!   same entry as the stand-alone candidate of that structure. The parts
//!   are brought up to date first: a fresh one is reused, a stale one
//!   re-runs. The union's rows are then their rows in part order, keeping
//!   a row only when its *raw* fact came from no earlier part. Coercion
//!   can map distinct facts to equal rows, and the engine keeps both, so
//!   the union does too. After an edit to one source, only the parts that
//!   read it re-run.
//!
//! **A union is not copied.** Its entry holds its parts' runs (shared, not
//! copied) and, per part, the rows assembly drops — all that the raw-fact
//! probe finds. [`ResultStore::candidate`] hands an entry back as these
//! [`Part`]s, so a consumer that only counts over rows (mapping quality's
//! tallies) never needs the union's relation. The relation is built on the
//! first request — [`ResultStore::execute`], or [`Candidate::relation`] —
//! and kept in the entry until the entry is rebuilt or evicted. A consumer
//! that keeps its own copy ([`Candidate::to_relation`]) gets the rows
//! copied straight out of the parts, and nothing is kept for it.
//!
//! **One input per source version.** An engine run reads its sources from
//! an execution input the store keeps per source relation: the rows as a
//! shared fact set, and the `postcode_district` facts derived from them
//! as another, at the journal mark they were built at. Every run over the
//! same version of a source loads the same two fact sets, without copying
//! a tuple (`map.input.reused`); the engine copies one only if it writes to
//! it. An input is rebuilt when the journal cannot prove its source
//! unchanged since its mark (`map.input.built`), and dropped once its
//! source is gone from the knowledge base. The district facts are loaded
//! only into programs that mention `postcode_district`. The input database
//! holds the same facts in the same order as loading every row one by one.
//!
//! The output is byte-identical to [`execute_mapping`], which builds its
//! input from scratch, on the same knowledge base in every case, row order
//! included. For a union this rests on the contract of
//! [`MappingPart`](vada_kb::MappingPart). The store checks that the parts
//! concatenate to the rules and read only the mapping's sources; it never
//! parses rule text to find them.
//!
//! ```
//! use vada_common::{tuple, AttrType, Relation, Schema};
//! use vada_kb::{KnowledgeBase, MappingDef, MappingPart};
//! use vada_map::{execute_mapping, ExecuteConfig, ResultStore};
//!
//! let mut kb = KnowledgeBase::new();
//! let mut listings = Relation::empty(Schema::all_str("listings", &["street", "price"]));
//! listings.push(tuple!["1 high st", "250000"]).unwrap();
//! kb.register_source(listings.clone());
//! kb.register_target_schema(
//!     Schema::new("property", [("street", AttrType::Str), ("price", AttrType::Int)]).unwrap(),
//! );
//! let mapping = MappingDef {
//!     id: "m0".into(),
//!     target: "property".into(),
//!     rules: "property(S, P) :- listings(S, P).\n".into(),
//!     sources: vec!["listings".into()],
//!     matches_used: vec![],
//!     parts: vec![],
//! };
//!
//! let mut store = ResultStore::default();
//! let cfg = ExecuteConfig::default();
//! let first = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(first.len(), 1);
//!
//! // nothing the mapping reads has changed: the stored result comes back
//! store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(store.stats().reused_runs, 1);
//!
//! // append a row and re-execute: the journal names `listings`, so the
//! // entry is re-materialised…
//! listings.push(tuple!["2 park rd", "300000"]).unwrap();
//! kb.register_source(listings.clone());
//! let second = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(second.len(), 2);
//! // …byte-identical to a from-scratch execution, which it was
//! assert_eq!(second.tuples(), execute_mapping(&cfg, &mapping, &kb).unwrap().tuples());
//! assert_eq!(store.stats().full_runs, 2);
//!
//! // a second source, and the union of both, recorded as its two parts;
//! // the first part has the structure of `mapping`, so it is that entry
//! let mut adverts = Relation::empty(Schema::all_str("adverts", &["price", "street"]));
//! adverts.push(tuple!["250000", "1 high st"]).unwrap();
//! adverts.push(tuple!["£250,000", "1 high st"]).unwrap();
//! kb.register_source(adverts);
//! let part = |rules: &str, source: &str| MappingPart {
//!     rules: rules.into(),
//!     sources: vec![source.into()],
//! };
//! let union = MappingDef {
//!     id: "m1".into(),
//!     rules: "property(S, P) :- listings(S, P).\nproperty(S, P) :- adverts(P, S).\n".into(),
//!     sources: vec!["listings".into(), "adverts".into()],
//!     parts: vec![
//!         part("property(S, P) :- listings(S, P).\n", "listings"),
//!         part("property(S, P) :- adverts(P, S).\n", "adverts"),
//!     ],
//!     ..mapping.clone()
//! };
//! let assembled = store.execute(&cfg, &union, &kb).unwrap().clone();
//! // one engine run, for `adverts`; the `listings` part came from the store
//! assert_eq!((store.stats().full_runs, store.stats().assembled_runs), (3, 1));
//! // a fact both parts derive appears once; `£250,000` is a second fact
//! // that coerces to an equal row, and stays, as in the engine's answer
//! assert_eq!(assembled.tuples(), execute_mapping(&cfg, &union, &kb).unwrap().tuples());
//! assert_eq!(assembled.len(), 3);
//! // the entry itself is the parts' rows and the row the second drops
//! let parts: Vec<(usize, Vec<usize>)> = store
//!     .candidate(&cfg, &union, &kb)
//!     .unwrap()
//!     .parts()
//!     .map(|p| (p.rows.len(), p.dropped.to_vec()))
//!     .collect();
//! assert_eq!(parts, [(2, vec![]), (2, vec![0])]);
//!
//! // an edit to `listings` re-runs its part only
//! listings.push(tuple!["3 mill ln", "180000"]).unwrap();
//! kb.register_source(listings);
//! let edited = store.execute(&cfg, &union, &kb).unwrap();
//! assert_eq!(edited.tuples(), execute_mapping(&cfg, &union, &kb).unwrap().tuples());
//! assert_eq!((store.stats().full_runs, store.stats().assembled_runs), (4, 2));
//! ```
//!
//! [`execute_mapping`]: crate::execute_mapping

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use vada_common::obs::key as obs_key;
use vada_common::{Relation, Result, Schema, VadaError};
use vada_datalog::engine::FactSet;
use vada_kb::{JournalMark, KnowledgeBase, MappingDef};

use crate::execute::{input_db, materialise, registered_target, ExecuteConfig, SourceInput};

/// Cap on retained entries; the least recently used is evicted beyond it.
pub const DEFAULT_STORE_CAPACITY: usize = 16;

/// Store-level counters, for benches and the repro driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Engine runs: first sights and every stale entry, union parts
    /// included.
    pub full_runs: usize,
    /// Executions answered from the stored result (no source changed).
    pub reused_runs: usize,
    /// Unions assembled from their parts' stored results.
    pub assembled_runs: usize,
    /// The most recent reason the journal could not vouch for a stored
    /// entry, if any.
    pub last_fallback: Option<String>,
}

/// One engine run's result: the coerced rows and, row for row beside them,
/// the engine's raw target facts they were coerced from — what a union
/// deduplicates on when the run is one of its parts.
#[derive(Debug)]
struct Run {
    /// Names these rows among every run of this store.
    version: u64,
    rows: Relation,
    facts: Arc<FactSet>,
}

/// One stored materialisation and the journal position it is current at.
/// The fingerprint already pins rules, sources and target, so only events
/// naming a source relation make it stale; metadata aspects never reach
/// the execution input.
#[derive(Debug)]
struct Materialisation {
    /// Where in the journal the result was last known current.
    mark: JournalMark,
    /// The runs the result is made of, each with the rows of it the result
    /// drops (ascending): one run, dropping nothing, for a mapping without
    /// parts.
    parts: Vec<(Arc<Run>, Vec<usize>)>,
    /// A union's own rows, built on first request and kept.
    union: OnceLock<Relation>,
}

impl Materialisation {
    /// The one run this entry is, whole — what a union can take as a part.
    fn whole_run(&self) -> Option<&Arc<Run>> {
        match self.parts.as_slice() {
            [(run, dropped)] if dropped.is_empty() => Some(run),
            _ => None,
        }
    }

    /// The result: a run's rows as they are, a union's rows built once.
    fn relation(&self) -> &Relation {
        match self.whole_run() {
            Some(run) => &run.rows,
            None => self.union.get_or_init(|| self.copy_parts()),
        }
    }

    /// The parts' kept rows, copied into one relation.
    fn copy_parts(&self) -> Relation {
        let mut rows = Vec::new();
        for (run, dropped) in &self.parts {
            let mut dropped = dropped.iter().peekable();
            for (row, t) in run.rows.iter().enumerate() {
                if dropped.next_if_eq(&&row).is_none() {
                    rows.push(t.clone());
                }
            }
        }
        let schema = self.parts[0].0.rows.schema().clone();
        Relation::from_tuples(schema, rows).expect("parts share the target schema")
    }
}

/// A candidate result as the store holds it (see
/// [`ResultStore::candidate`]): the parts it is made of, and the whole
/// relation on request.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a>(&'a Materialisation);

/// One part of a [`Candidate`].
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// Names this version of the part's rows: the store never hands out
    /// other rows under it, so anything derived from the rows can be kept
    /// under it.
    pub version: u64,
    /// The part's coerced rows.
    pub rows: &'a Relation,
    /// The rows of `rows` the candidate drops, ascending: those whose raw
    /// fact an earlier part already produced.
    pub dropped: &'a [usize],
}

impl<'a> Candidate<'a> {
    /// The parts, in order; the candidate's rows are theirs, minus the
    /// dropped ones, in this order. A mapping without parts is one part
    /// that drops nothing.
    pub fn parts(self) -> impl Iterator<Item = Part<'a>> {
        self.0.parts.iter().map(|(run, dropped)| Part {
            version: run.version,
            rows: &run.rows,
            dropped,
        })
    }

    /// The target schema the rows are typed in.
    pub fn schema(self) -> &'a Schema {
        self.0.parts[0].0.rows.schema()
    }

    /// The whole result. A union's relation is built on the first request
    /// and kept with the entry.
    pub fn relation(self) -> &'a Relation {
        self.0.relation()
    }

    /// An owned copy of the whole result, for a consumer that keeps it: a
    /// union not built yet is copied straight out of its parts and not
    /// kept, so the copy handed out is the only one made.
    pub fn to_relation(self) -> Relation {
        match (self.0.whole_run(), self.0.union.get()) {
            (Some(run), _) => run.rows.clone(),
            (None, Some(built)) => built.clone(),
            (None, None) => self.0.copy_parts(),
        }
    }
}

/// The result store: one [`Materialisation`] per mapping structure, and one
/// execution input per source version. See the module docs.
#[derive(Debug)]
pub struct ResultStore {
    entries: BTreeMap<String, Materialisation>,
    /// Fingerprints in least→most recently used order.
    lru: Vec<String>,
    capacity: usize,
    /// Per source relation, its execution input and the journal position it
    /// is current at.
    inputs: BTreeMap<String, (JournalMark, SourceInput)>,
    /// The version the next run gets.
    next_version: u64,
    stats: ExecutorStats,
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::with_capacity(DEFAULT_STORE_CAPACITY)
    }
}

/// The structural identity of a mapping execution: same fingerprint ⇒
/// same program, same input sources, same output typing. A union part and
/// the stand-alone mapping of the same structure share it.
fn fingerprint(rules: &str, sources: &[String], target: &Schema) -> String {
    let mut fp = String::new();
    fp.push_str(&target.name);
    for a in target.attributes() {
        fp.push_str(&format!("|{}:{}", a.name, a.ty.name()));
    }
    fp.push_str(&format!("|src={sources:?}|"));
    fp.push_str(rules);
    fp
}

/// Refuse a union whose parts are not its rules cut into blocks, or read a
/// relation the union does not declare (its staleness check would miss
/// edits to it).
fn check_parts(mapping: &MappingDef) -> Result<()> {
    let refuse = |why: String| Err(VadaError::Kb(format!("mapping `{}`: {why}", mapping.id)));
    if mapping.parts.is_empty() {
        return Ok(());
    }
    let rest = mapping
        .parts
        .iter()
        .try_fold(mapping.rules.as_str(), |rest, part| rest.strip_prefix(part.rules.as_str()));
    if rest != Some("") {
        return refuse("its parts do not concatenate to its rules".into());
    }
    match mapping.parts.iter().flat_map(|p| &p.sources).find(|s| !mapping.sources.contains(s)) {
        Some(s) => refuse(format!("a part reads `{s}`, which is not one of its sources")),
        None => Ok(()),
    }
}

impl ResultStore {
    /// A store retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> ResultStore {
        ResultStore {
            entries: BTreeMap::new(),
            lru: Vec::new(),
            capacity: capacity.max(1),
            inputs: BTreeMap::new(),
            next_version: 0,
            stats: ExecutorStats::default(),
        }
    }

    /// Store-level counters.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Materialise `mapping`: the stored result when the journal proves
    /// no source changed since it was built, a rebuilt one otherwise — run
    /// through the engine, or for a union assembled from its parts. The
    /// result is byte-identical to
    /// [`execute_mapping`](crate::execute_mapping) on the same knowledge
    /// base — including row order — in every case. A failed
    /// rebuild leaves no entry for the mapping (nor for a part that
    /// failed), so a stale result is never handed back. The
    /// `map.execute.*` and `map.input.*` tallies and spans go to the
    /// knowledge base's registry.
    pub fn execute(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<&Relation> {
        Ok(self.candidate(cfg, mapping, kb)?.relation())
    }

    /// Bring `mapping`'s entry up to date exactly as
    /// [`ResultStore::execute`] does, and hand it back as its parts, without
    /// building a union's relation.
    pub fn candidate(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<Candidate<'_>> {
        let target = registered_target(mapping, kb)?;
        check_parts(mapping)?;
        // an input never outlives its source
        self.inputs.retain(|source, _| kb.relation(source).is_ok());
        let fp = fingerprint(&mapping.rules, &mapping.sources, target);
        if self.vouch(&fp, &mapping.sources, kb) {
            kb.obs().incr(obs_key::MAP_REUSED);
            self.stats.reused_runs += 1;
            return Ok(Candidate(&self.entries[&fp]));
        }
        let rebuilt = if mapping.parts.is_empty() {
            self.run(cfg, mapping, target, kb).map(|run| vec![(run, Vec::new())])
        } else {
            self.assemble(cfg, mapping, target, kb)
        };
        match rebuilt {
            Ok(parts) => self.insert(fp.clone(), parts, kb),
            Err(e) => {
                // the journal names a source since the mark, so the
                // pre-edit result can never be handed back: free it now
                self.forget(&fp);
                return Err(e);
            }
        }
        while self.lru.len() > self.capacity {
            let evicted = self.lru.remove(0);
            self.entries.remove(&evicted);
        }
        Ok(Candidate(&self.entries[&fp]))
    }

    /// Whether the entry under `fp` is current — stored, and the journal
    /// proves none of `sources` changed since — advancing its mark and
    /// recency if so.
    fn vouch(&mut self, fp: &str, sources: &[String], kb: &KnowledgeBase) -> bool {
        let Some(entry) = self.entries.get_mut(fp) else { return false };
        match kb.changed_since(&entry.mark, sources) {
            Ok(false) => {
                entry.mark = kb.mark();
                self.touch(fp);
                true
            }
            Ok(true) => false,
            Err(reason) => {
                self.stats.last_fallback = Some(reason);
                false
            }
        }
    }

    /// The execution input of `source`: the kept one while the journal
    /// proves the source unchanged since it was built, a new one otherwise.
    fn input(&mut self, source: &str, kb: &KnowledgeBase) -> Result<()> {
        if let Some((mark, _)) = self.inputs.get_mut(source) {
            if kb.changed_since(mark, &[source]) == Ok(false) {
                *mark = kb.mark();
                kb.obs().incr(obs_key::MAP_INPUT_REUSED);
                return Ok(());
            }
        }
        self.inputs.remove(source);
        let input = SourceInput::build(kb.relation(source)?);
        kb.obs().incr(obs_key::MAP_INPUT_BUILT);
        self.inputs.insert(source.to_string(), (kb.mark(), input));
        Ok(())
    }

    /// One engine run of `mapping` over the kept inputs of its sources.
    fn run(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<Arc<Run>> {
        let (rows, facts) = materialise(cfg, mapping, target, kb, |program| {
            for source in &mapping.sources {
                self.input(source, kb)?;
            }
            let inputs = mapping.sources.iter().map(|s| (s.as_str(), &self.inputs[s].1));
            Ok(input_db(program, inputs))
        })?;
        self.stats.full_runs += 1;
        self.next_version += 1;
        Ok(Arc::new(Run { version: self.next_version, rows, facts }))
    }

    /// Bring every part of `union` up to date, then record, per part, the
    /// rows whose raw fact an earlier part already produced.
    fn assemble(
        &mut self,
        cfg: &ExecuteConfig,
        union: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<Vec<(Arc<Run>, Vec<usize>)>> {
        kb.obs().incr(obs_key::MAP_ASSEMBLED);
        // stale parts re-run beneath this span
        let span = kb.obs().span("map/assemble");
        span.attr("mapping", &union.id);
        span.attr("target", &union.target);
        span.attr("parts", union.parts.len());
        let mut runs: Vec<Arc<Run>> = Vec::with_capacity(union.parts.len());
        for (i, part) in union.parts.iter().enumerate() {
            let fp = fingerprint(&part.rules, &part.sources, target);
            let fresh = self.vouch(&fp, &part.sources, kb);
            let kept = fresh.then(|| self.entries[&fp].whole_run().cloned()).flatten();
            let run = match kept {
                Some(run) => run,
                None => {
                    let part_mapping = MappingDef {
                        id: format!("{}.part{i}", union.id),
                        target: union.target.clone(),
                        rules: part.rules.clone(),
                        sources: part.sources.clone(),
                        matches_used: Vec::new(),
                        parts: Vec::new(),
                    };
                    match self.run(cfg, &part_mapping, target, kb) {
                        Ok(run) => {
                            self.insert(fp, vec![(run.clone(), Vec::new())], kb);
                            run
                        }
                        Err(e) => {
                            self.forget(&fp);
                            return Err(e);
                        }
                    }
                }
            };
            runs.push(run);
        }

        let parts = runs
            .iter()
            .enumerate()
            .map(|(k, run)| {
                let earlier = &runs[..k];
                let dropped = (0..run.facts.len())
                    .filter(|&row| earlier.iter().any(|e| e.facts.contains_row_of(&run.facts, row)))
                    .collect();
                (run.clone(), dropped)
            })
            .collect();
        self.stats.assembled_runs += 1;
        Ok(parts)
    }

    /// Store `parts` under `fp`, current now, as the most recently used.
    /// Eviction waits for the end of [`ResultStore::candidate`], so
    /// assembling a union never evicts one of its own parts.
    fn insert(&mut self, fp: String, parts: Vec<(Arc<Run>, Vec<usize>)>, kb: &KnowledgeBase) {
        self.touch(&fp);
        let entry = Materialisation { mark: kb.mark(), parts, union: OnceLock::new() };
        self.entries.insert(fp, entry);
    }

    /// Mark `fp` most recently used.
    fn touch(&mut self, fp: &str) {
        self.lru.retain(|f| f != fp);
        self.lru.push(fp.to_string());
    }

    /// Drop the entry under `fp`, if any.
    fn forget(&mut self, fp: &str) {
        self.entries.remove(fp);
        self.lru.retain(|f| f != fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_mapping;
    use vada_common::{tuple, AttrType};
    use vada_kb::MappingPart;
    use vada_quality::{MetricTally, ReferencePopulation};

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
            parts: vec![],
        };
        (kb, mapping)
    }

    /// Execute through the store and pin the answer to the scratch path.
    fn checked(store: &mut ResultStore, mapping: &MappingDef, kb: &KnowledgeBase) {
        let cfg = ExecuteConfig::default();
        let got = store.execute(&cfg, mapping, kb).unwrap();
        let scratch = execute_mapping(&cfg, mapping, kb).unwrap();
        assert_eq!(got.schema(), scratch.schema());
        assert_eq!(got.tuples(), scratch.tuples());
    }

    /// `(materialised from scratch, reused)` so far.
    fn tally(store: &ResultStore) -> (usize, usize) {
        let s = store.stats();
        (s.full_runs, s.reused_runs)
    }

    #[test]
    fn matches_scratch_across_appends_and_replacements() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.stats().full_runs, 1);

        // grow the last source (rightmove) with an already-seen postcode
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm.clone());
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.stats().full_runs, 2, "{:?}", store.stats());

        // a new postcode adds a postcode_district fact feeding the negated
        // has_crime
        let mut rm_new = kb.relation("rightmove").unwrap().clone();
        rm_new.push(tuple!["99000", "7 new rd", "M9 9ZZ"]).unwrap();
        kb.register_source(rm_new);
        checked(&mut store, &mapping, &kb);

        // a brand-new district-shaped value in the non-final source lands
        // before rightmove's helper facts in the input
        let mut dep = kb.relation("deprivation").unwrap().clone();
        dep.push(tuple!["EH1 1ZZ", "900"]).unwrap();
        kb.register_source(dep);
        checked(&mut store, &mapping, &kb);

        // replace a source outright
        let mut rm2 = Relation::empty(rm.schema().clone());
        rm2.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
        kb.register_source(rm2);
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (5, 0), "{:?}", store.stats());
    }

    #[test]
    fn row_removals_take_the_retraction_path() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);

        // grow rightmove with a second M1 1AA row, then remove it again
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        kb.remove_rows("rightmove", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (3, 0), "{:?}", store.stats());

        // removing the only EH1 1AA row orphans its helper fact and
        // shrinks the negated `has_crime`
        kb.remove_rows("rightmove", &[1]).unwrap();
        checked(&mut store, &mapping, &kb);

        // a tail rewrite
        kb.update_source("rightmove", &[(0, tuple!["199000", "12 high st", "M1 1AA"])])
            .unwrap();
        checked(&mut store, &mapping, &kb);

        // delete everything, then re-add: empty result, then rebuilt rows
        kb.remove_rows("rightmove", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let empty = store.execute(&ExecuteConfig::default(), &mapping, &kb).unwrap();
        assert!(empty.is_empty());
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["5000", "9 new st", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (7, 1), "{:?}", store.stats());
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
            parts: vec![],
        };
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);

        // removing ONE of the two "x" rows must not retract the fact
        kb.remove_rows("s", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let got = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(got.len(), 2, "t(x) survives via the duplicate row");

        // removing the last "x" retracts it
        kb.remove_rows("s", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let got = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(tally(&store), (3, 2), "{:?}", store.stats());
    }

    #[test]
    fn diverged_clone_lineage_forces_a_rebuild() {
        // the watermark-replay hazard: take a clone, advance BOTH the
        // original and the clone past the store's watermark with
        // different content under the same sequence numbers — trusting
        // the clone's journal against the original's watermark would
        // silently skip the divergent events
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        let clone = kb.clone();
        checked(&mut store, &mapping, &kb);

        // original lineage advances (the store consumes it normally)
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);

        // the clone's lineage advances differently, past the watermark
        let mut kb2 = clone;
        let mut rm2 = kb2.relation("rightmove").unwrap().clone();
        rm2.push(tuple!["777", "7 other st", "M1 1AA"]).unwrap();
        rm2.push(tuple!["888", "8 other st", "M1 1AA"]).unwrap();
        kb2.register_source(rm2);
        checked(&mut store, &mapping, &kb2);
        assert_eq!(tally(&store), (3, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("lineage")),
            "{:?}",
            store.stats()
        );
    }

    #[test]
    fn mid_relation_rewrite_rebuilds() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // rewriting row 0 of 2 is not a tail edit: scan order changes
        kb.update_source("rightmove", &[(0, tuple!["111", "12 high st", "M1 1AA"])])
            .unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
    }

    #[test]
    fn structural_change_creates_a_fresh_session() {
        let (mut kb, mut mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // a different mapping id with identical structure shares the entry
        mapping.id = "m2".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (1, 1), "{:?}", store.stats());
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["500000", "4 mill ln", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.entries.len(), 1);
        // changed rules: new fingerprint, a second entry
        mapping.rules = "property(S, PC, P, null) :- rightmove(P, S, PC).".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (3, 1), "{:?}", store.stats());
        assert_eq!(store.entries.len(), 2);
    }

    // ---- when is the stored result handed back? ----

    #[test]
    fn store_hits_on_an_unchanged_kb_and_across_regenerated_ids() {
        let mut store = ResultStore::default();
        let (mut kb, mut mapping) = kb_and_mapping();
        let obs = vada_common::Obs::enabled();
        kb.set_obs(obs.clone());
        let cfg = ExecuteConfig::default();
        let first = store.execute(&cfg, &mapping, &kb).unwrap().clone();
        let runs_after_first = obs.get(obs_key::STRATUM_PASSES);
        assert!(runs_after_first > 0);

        // same knowledge base: nothing is parsed, built or derived
        let again = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(again.tuples(), first.tuples());
        // a generation pass re-issues the same structure under a new id
        mapping.id = "m_regenerated".into();
        let renamed = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(renamed.tuples(), first.tuples());

        assert_eq!(tally(&store), (1, 2), "{:?}", store.stats());
        assert_eq!(obs.get(obs_key::MAP_REUSED), 2);
        assert_eq!(obs.get(obs_key::MAP_FULL), 1);
        assert_eq!(obs.get(obs_key::STRATUM_PASSES), runs_after_first);
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
            let mut store = ResultStore::default();
            let (mut kb, mapping) = kb_and_mapping();
            checked(&mut store, &mapping, &kb);
            change(&mut kb);
            checked(&mut store, &mapping, &kb);
            assert_eq!(tally(&store), (2, 0), "{name}: {:?}", store.stats());
            // refreshed and stored: the next look is a hit again
            checked(&mut store, &mapping, &kb);
            assert_eq!(tally(&store), (2, 1), "{name}: {:?}", store.stats());
        }
    }

    #[test]
    fn store_misses_when_the_journal_cannot_vouch_for_the_watermark() {
        // lineage: work resumed on a clone, even an untouched one
        let mut store = ResultStore::default();
        let (kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
        let resumed = kb.clone();
        checked(&mut store, &mapping, &resumed);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("lineage")),
            "{:?}",
            store.stats()
        );

        // window: more events than the journal retains, none on a source
        let mut store = ResultStore::default();
        let (seed, mapping) = kb_and_mapping();
        let mut kb = KnowledgeBase::with_journal_capacity(4);
        kb.register_source(seed.relation("rightmove").unwrap().clone());
        kb.register_source(seed.relation("deprivation").unwrap().clone());
        kb.register_target_schema(seed.target_schema().unwrap().clone());
        checked(&mut store, &mapping, &kb);
        for _ in 0..5 {
            kb.set_user_context(Vec::new());
        }
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("window")),
            "{:?}",
            store.stats()
        );
        // a hit advances the watermark, so steady churn below the
        // window size never loses the entry
        for _ in 0..3 {
            kb.set_user_context(Vec::new());
            kb.set_user_context(Vec::new());
            checked(&mut store, &mapping, &kb);
        }
        assert_eq!(tally(&store), (2, 3), "{:?}", store.stats());
    }

    #[test]
    fn store_misses_on_a_target_schema_change() {
        let mut store = ResultStore::default();
        let (mut kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
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
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
    }

    #[test]
    fn store_respects_the_lru_bound() {
        let (kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::with_capacity(2);
        let variant = |n: usize| MappingDef {
            rules: format!("property(S, PC, P, {n}) :- rightmove(P, S, PC)."),
            ..mapping.clone()
        };
        for n in 0..3 {
            checked(&mut store, &variant(n), &kb);
        }
        assert_eq!(store.entries.len(), 2);
        assert_eq!(store.lru.len(), 2);
        // the two most recent structures are still stored…
        checked(&mut store, &variant(2), &kb);
        checked(&mut store, &variant(1), &kb);
        assert_eq!(tally(&store), (3, 2), "{:?}", store.stats());
        // …the least recently used one was evicted
        checked(&mut store, &variant(0), &kb);
        assert_eq!(tally(&store), (4, 2), "{:?}", store.stats());
        assert_eq!(store.entries.len(), 2);
    }

    #[test]
    fn unrelated_kb_churn_is_ignored() {
        let mut store = ResultStore::default();
        let (mut kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
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
        kb.put_intermediate(Relation::empty(Schema::all_str("scratch", &["a"])));
        kb.remove_intermediate("scratch");
        kb.put_result(Relation::empty(kb.target_schema().unwrap().clone()));
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (1, 1), "{:?}", store.stats());
    }

    #[test]
    fn failed_apply_drops_the_session_and_recovers() {
        let mut store = ResultStore::default();
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
            parts: vec![],
        };
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.entries.len(), 1);

        // a row that breaks the arithmetic: the refresh fails and must not
        // leave the pre-edit result behind as a hit
        src.push(tuple!["not a number"]).unwrap();
        kb.register_source(src.clone());
        let cfg = ExecuteConfig::default();
        let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        assert!(store.entries.is_empty() && store.lru.is_empty());
        assert!(store.execute(&cfg, &mapping, &kb).is_err(), "no stale hit");
        assert_eq!(store.stats().reused_runs, 0);

        kb.remove_rows("s", &[1]).unwrap();
        checked(&mut store, &mapping, &kb);
    }

    // ---- unions, assembled from their parts ----

    /// `kb_and_mapping`'s base plus a second listing source, and the six
    /// candidates the generator shapes over them: each primary plain and
    /// augmented (the parts), then the plain and the augmented union.
    fn union_kb() -> (KnowledgeBase, Vec<MappingDef>) {
        let (mut kb, _) = kb_and_mapping();
        let mut otm = Relation::empty(Schema::all_str(
            "onthemarket",
            &["street", "postcode", "asking"],
        ));
        // the same raw fact as a rightmove row…
        otm.push(tuple!["9 park rd", "EH1 1AA", "300000"]).unwrap();
        // …a different raw fact that coerces to the same row as one…
        otm.push(tuple!["12 high st", "M1 1AA", "250000"]).unwrap();
        // …and one of its own
        otm.push(tuple!["4 mill ln", "M1 2BB", "120000"]).unwrap();
        kb.register_source(otm);

        let part = |primary: &str, augmented: bool| {
            let (atom, tag) = match primary {
                "rightmove" => ("rightmove(P, S, PC)", "rm"),
                _ => ("onthemarket(S, PC, P)", "otm"),
            };
            let mut sources = vec![primary.to_string()];
            let rules = if augmented {
                sources.push("deprivation".into());
                format!(
                    "property(S, PC, P, C) :- {atom}, postcode_district(PC, D), deprivation(D, C).\n\
                     property(S, PC, P, null) :- {atom}, not has_crime_{tag}(PC).\n\
                     has_crime_{tag}(PC) :- postcode_district(PC, D), deprivation(D, _).\n"
                )
            } else {
                format!("property(S, PC, P, null) :- {atom}.\n")
            };
            MappingPart { rules, sources }
        };
        let candidate = |id: String, parts: Vec<MappingPart>| {
            let mut sources: Vec<String> = parts.iter().map(|p| p.sources[0].clone()).collect();
            sources.extend(parts[0].sources[1..].iter().cloned());
            MappingDef {
                id,
                target: "property".into(),
                rules: parts.iter().map(|p| p.rules.as_str()).collect(),
                sources,
                matches_used: vec![],
                parts: if parts.len() > 1 { parts } else { vec![] },
            }
        };
        let mut candidates = Vec::new();
        for augmented in [false, true] {
            for primary in ["rightmove", "onthemarket"] {
                let id = format!("{primary}_{augmented}");
                candidates.push(candidate(id, vec![part(primary, augmented)]));
            }
        }
        for augmented in [false, true] {
            let parts = vec![part("rightmove", augmented), part("onthemarket", augmented)];
            candidates.push(candidate(format!("union_{augmented}"), parts));
        }
        (kb, candidates)
    }

    type Edit = fn(&mut KnowledgeBase);

    /// Every kind of source edit, to `union_kb`'s listings and to the
    /// source both augmented parts read.
    fn union_edits() -> [(&'static str, Edit); 10] {
        [
            ("append to rightmove", |kb| {
                let mut rm = kb.relation("rightmove").unwrap().clone();
                rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            ("append a fresh postcode to onthemarket", |kb| {
                let mut otm = kb.relation("onthemarket").unwrap().clone();
                otm.push(tuple!["7 new rd", "Z9 9ZZ", "99000"]).unwrap();
                kb.register_source(otm);
            }),
            ("append to deprivation", |kb| {
                let mut dep = kb.relation("deprivation").unwrap().clone();
                dep.push(tuple!["EH1", "900"]).unwrap();
                kb.register_source(dep);
            }),
            // the row onthemarket shares: its copy becomes the first seen
            ("remove a rightmove row", |kb| {
                kb.remove_rows("rightmove", &[1]).unwrap();
            }),
            ("remove onthemarket rows", |kb| {
                kb.remove_rows("onthemarket", &[0, 2]).unwrap();
            }),
            ("rewrite onthemarket's tail", |kb| {
                let last = kb.relation("onthemarket").unwrap().len() - 1;
                kb.update_source("onthemarket", &[(last, tuple!["7 new rd", "Z9 9ZZ", "98000"])])
                    .unwrap();
            }),
            ("rewrite rightmove mid-relation", |kb| {
                kb.update_source("rightmove", &[(0, tuple!["199000", "12 high st", "M1 1AA"])])
                    .unwrap();
            }),
            ("replace rightmove", |kb| {
                let mut rm = Relation::empty(kb.relation("rightmove").unwrap().schema().clone());
                rm.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            // the same raw fact as rightmove's only row
            ("replace onthemarket", |kb| {
                let mut otm =
                    Relation::empty(kb.relation("onthemarket").unwrap().schema().clone());
                otm.push(tuple!["x st", "M1 1AA", "1"]).unwrap();
                otm.push(tuple!["y st", "EH1 2CD", "£2"]).unwrap();
                kb.register_source(otm);
            }),
            ("replace deprivation", |kb| {
                let mut dep =
                    Relation::empty(kb.relation("deprivation").unwrap().schema().clone());
                dep.push(tuple!["M1", "700"]).unwrap();
                dep.push(tuple!["EH1", "800"]).unwrap();
                kb.register_source(dep);
            }),
        ]
    }

    #[test]
    fn assembled_unions_match_scratch_across_every_kind_of_edit() {
        let (mut kb, mut candidates) = union_kb();
        let mut store = ResultStore::default();
        for c in &candidates {
            checked(&mut store, c, &kb);
        }
        for (step, (name, edit)) in union_edits().into_iter().enumerate() {
            edit(&mut kb);
            // every other step, the unions go first and refresh the parts
            candidates.reverse();
            for c in &candidates {
                checked(&mut store, c, &kb);
                assert!(store.entries.len() <= 6, "{name}: {step}");
            }
        }
        // both unions at first sight and after each of the eight listing
        // edits, the augmented one alone after the two deprivation edits
        assert_eq!(store.stats().assembled_runs, 2 + 8 * 2 + 2, "{:?}", store.stats());
    }

    #[test]
    fn an_edit_to_one_primary_reruns_only_its_parts() {
        let (mut kb, mut candidates) = union_kb();
        let obs = vada_common::Obs::enabled();
        kb.set_obs(obs.clone());
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        let counts = || {
            [obs_key::MAP_FULL, obs_key::MAP_ASSEMBLED, obs_key::MAP_REUSED].map(|k| obs.get(k))
        };
        for c in &candidates {
            store.execute(&cfg, c, &kb).unwrap();
        }
        // four engine runs, the parts; the unions reuse them
        assert_eq!(counts(), [4, 2, 0]);

        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        // unions first: each re-runs its rightmove part and reuses its
        // onthemarket part, and the stand-alone candidates are then all
        // current — onthemarket's untouched, rightmove's just refreshed
        candidates.reverse();
        for c in &candidates {
            store.execute(&cfg, c, &kb).unwrap();
        }
        assert_eq!(counts(), [4 + 2, 2 + 2, 4]);
        for c in &candidates {
            checked(&mut store, c, &kb);
        }

        // the stale part ran beneath its union's assembly span: none at
        // first sight (the parts were current), one each after the edit
        let spans = obs.span_records();
        let beneath: Vec<Vec<&str>> = spans
            .iter()
            .filter(|r| r.name == "map/assemble")
            .map(|a| spans.iter().filter(|r| r.parent == a.id).map(|r| r.name.as_str()).collect())
            .collect();
        assert_eq!(
            beneath,
            [vec![], vec![], vec!["map/execute"], vec!["map/execute"]],
            "{beneath:?}"
        );
    }

    /// `rows` counted as mapping quality counts them: the bound target
    /// attributes, each scored against its population.
    fn measure<'t, I>(
        rows: I,
        schema: &Schema,
        bound: &mut [(&str, ReferencePopulation)],
    ) -> MetricTally
    where
        I: IntoIterator<Item = &'t vada_common::Tuple>,
        I::IntoIter: Clone,
    {
        let scored = bound.iter_mut().map(|(attr, p)| (schema.require(attr).unwrap(), p));
        MetricTally::measure(rows, schema.arity(), scored)
    }

    #[test]
    fn derived_tallies_match_scratch_across_every_kind_of_edit() {
        let (mut kb, mut candidates) = union_kb();
        // nulls beside the raw-fact overlap and the coerce-equal rows
        // `union_kb` has: an unparseable price and no postcode
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(vada_common::Tuple::new(vec![
            vada_common::Value::str("n/a"),
            vada_common::Value::str("5 elm rd"),
            vada_common::Value::Null,
        ]))
        .unwrap();
        kb.register_source(rm);
        let reference = Relation::from_tuples(
            Schema::all_str("address", &["street", "postcode", "price"]),
            vec![
                tuple!["12 High St", "M1 1AA", "250000"],
                tuple!["4 mill ln", "EH1 1AA", "1"],
                tuple!["x st", "Z9 9ZZ", "300000"],
            ],
        )
        .unwrap();
        let mut bound: Vec<(&str, ReferencePopulation)> = ["street", "postcode", "price"]
            .into_iter()
            .map(|attr| (attr, ReferencePopulation::new(&reference, attr).unwrap()))
            .collect();
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        let mut compare = |store: &mut ResultStore, kb: &KnowledgeBase, cs: &[MappingDef], step| {
            for c in cs {
                let candidate = store.candidate(&cfg, c, kb).unwrap();
                let schema = candidate.schema();
                // the parts' tallies, minus the tallies of the rows dropped
                let mut derived: Option<MetricTally> = None;
                for part in candidate.parts() {
                    let whole = measure(part.rows.iter(), schema, &mut bound);
                    let dropped = part.dropped.iter().map(|&r| &part.rows.tuples()[r]);
                    let dropped = measure(dropped, schema, &mut bound);
                    let sum = match &mut derived {
                        Some(sum) => {
                            sum.add(&whole);
                            sum
                        }
                        None => derived.insert(whole),
                    };
                    sum.subtract(&dropped);
                }
                let derived = derived.unwrap();
                let scratch = execute_mapping(&cfg, c, kb).unwrap();
                let at = format!("{step}: {}", c.id);
                // nothing built the union's relation: this copies the parts
                assert_eq!(candidate.to_relation().tuples(), scratch.tuples(), "{at}");
                assert_eq!(derived, measure(scratch.iter(), schema, &mut bound), "{at}");
                assert_eq!(derived.rows, scratch.len(), "{at}");
                for (col, attr) in schema.attr_names().into_iter().enumerate() {
                    let want = scratch.completeness(attr).unwrap();
                    assert_eq!(derived.completeness(col).to_bits(), want.to_bits(), "{at}");
                }
                for ((attr, population), got) in bound.iter_mut().zip(&derived.accuracy) {
                    let want = population.accuracy(&scratch, attr).unwrap();
                    assert_eq!(got.value().to_bits(), want.to_bits(), "{at}: {attr}");
                }
            }
        };
        compare(&mut store, &kb, &candidates, "first sight");
        for (name, edit) in union_edits() {
            edit(&mut kb);
            candidates.reverse();
            compare(&mut store, &kb, &candidates, name);
        }
        // the unions dropped rows along the way, so the subtraction ran
        assert!(store.stats().assembled_runs > 2, "{:?}", store.stats());
    }

    #[test]
    fn an_edit_to_a_source_both_augmented_parts_read_rebuilds_its_input_once() {
        let (mut kb, candidates) = union_kb();
        let obs = vada_common::Obs::enabled();
        kb.set_obs(obs.clone());
        let mut store = ResultStore::default();
        for c in &candidates {
            checked(&mut store, c, &kb);
        }
        // one input per source: rightmove, onthemarket, deprivation
        let inputs = || [obs_key::MAP_INPUT_BUILT, obs_key::MAP_INPUT_REUSED].map(|k| obs.get(k));
        assert_eq!(inputs(), [3, 3]);
        assert_eq!(store.stats().full_runs, 4);

        let mut dep = Relation::empty(kb.relation("deprivation").unwrap().schema().clone());
        dep.push(tuple!["M1", "700"]).unwrap();
        dep.push(tuple!["EH1", "800"]).unwrap();
        kb.register_source(dep);
        for c in &candidates {
            checked(&mut store, c, &kb);
        }
        // the two augmented parts re-ran: deprivation was built for the
        // first and kept for the second, and both loaded their listing's
        // kept input
        assert_eq!(store.stats().full_runs, 6);
        assert_eq!(inputs(), [3 + 1, 3 + 3]);
        let cfg = ExecuteConfig::default();
        for id in ["rightmove_true", "onthemarket_true"] {
            let c = candidates.iter().find(|c| c.id == id).unwrap();
            let result = store.execute(&cfg, c, &kb).unwrap();
            let crime: Vec<_> = result.iter().map(|t| t[3].clone()).collect();
            assert!(crime.contains(&vada_common::Value::Int(800)), "{id}: {crime:?}");
        }
    }

    #[test]
    fn parts_that_are_not_the_rules_are_refused() {
        let (kb, candidates) = union_kb();
        let union = candidates.last().unwrap();
        let mut swapped = union.clone();
        swapped.parts.reverse();
        let mut short = union.clone();
        short.parts.pop();
        let mut stray = union.clone();
        stray.parts[0].sources.push("address".into());
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        for bad in [swapped, short, stray] {
            let err = store.execute(&cfg, &bad, &kb).unwrap_err();
            assert_eq!(err.kind(), "kb", "{err}");
            assert!(err.to_string().contains(&union.id), "{err}");
        }
        assert!(store.entries.is_empty() && store.lru.is_empty());
        assert_eq!(store.stats(), &ExecutorStats::default());
        checked(&mut store, union, &kb);
    }

    #[test]
    fn failed_part_refresh_drops_the_part_and_the_union() {
        let mut kb = KnowledgeBase::new();
        for name in ["s1", "s2"] {
            let mut src = Relation::empty(Schema::all_str(name, &["a"]));
            src.push(tuple![1]).unwrap();
            kb.register_source(src);
        }
        kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
        let part = |s: &str| MappingPart {
            rules: format!("t(Y) :- {s}(X), Y = X + 0.\n"),
            sources: vec![s.into()],
        };
        let union = MappingDef {
            id: "u".into(),
            target: "t".into(),
            rules: part("s1").rules + &part("s2").rules,
            sources: vec!["s1".into(), "s2".into()],
            matches_used: vec![],
            parts: vec![part("s1"), part("s2")],
        };
        let mut store = ResultStore::default();
        checked(&mut store, &union, &kb);
        assert_eq!(store.entries.len(), 3, "two parts and the union");

        // a row that breaks s1's arithmetic: its part's refresh fails and
        // neither it nor the union may be handed back as a hit
        let mut s1 = kb.relation("s1").unwrap().clone();
        s1.push(tuple!["not a number"]).unwrap();
        kb.register_source(s1);
        let cfg = ExecuteConfig::default();
        let err = store.execute(&cfg, &union, &kb).unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        assert_eq!(store.entries.len(), 1, "only the s2 part survives");
        assert_eq!(store.lru.len(), 1);
        assert!(store.execute(&cfg, &union, &kb).is_err(), "no stale hit");
        assert_eq!(store.stats().reused_runs, 0);

        kb.remove_rows("s1", &[1]).unwrap();
        checked(&mut store, &union, &kb);
        assert_eq!(store.entries.len(), 3);
    }
}
