//! The mapping **result store**: the one home of candidate results, and
//! the one way both mapping transducers materialise a mapping.
//!
//! A [`ResultStore`] keeps one entry per *structurally distinct* mapping
//! (fingerprinted by rules, source list and target schema — a mapping id
//! is only a position in one generation pass, and a caller-built mapping
//! may carry any id, so the id proves nothing about what it computes):
//! the result plus the [journal mark](vada_kb::JournalMark) it is current
//! at. On re-execution it asks the knowledge base how the mapping's sources
//! changed since that mark
//! ([`KnowledgeBase::since`](vada_kb::KnowledgeBase::since)). When the
//! answer is [`Since::Unchanged`](vada_kb::Since::Unchanged), nothing the
//! mapping reads has changed and the stored result is handed back as is —
//! no parse, no input database, no engine run (`map.execute.reused`).
//! Otherwise the entry is refreshed and stored again. How depends on the
//! mapping and on the answer:
//!
//! * A mapping without [`parts`](vada_kb::MappingDef::parts) is first
//!   materialised by a [`vada_datalog::IncrementalSession`] of its rules:
//!   its [full run](vada_datalog::IncrementalSession::run_full) over the
//!   sources' execution inputs derives what [`execute_mapping`]'s engine
//!   run does (`map.execute.full`). Its entry is the run: the coerced rows,
//!   the engine's raw target facts beside them, and a *version* number no
//!   other run of the store gets; the session stays with the entry.
//! * Such a mapping is then **maintained**, not re-run, while the answer
//!   is [`Since::Rows`](vada_kb::Since::Rows) and every event in it is one
//!   the session can replay: rows appended, rows removed, the last rows
//!   rewritten. Every such refresh feeds the session the edited rows —
//!   appended rows as new facts, removed rows as retractions
//!   (`map.execute.incremental`). The
//!   rows follow the session: a fact the previous version also derived
//!   keeps its coerced row, and only new facts are coerced; the version
//!   names its parent and what changed since ([`Part::parent`]). The
//!   engine reads a source as its distinct rows in
//!   first-occurrence order, so a removed row whose tuple another row
//!   still holds retracts nothing; if the copy that takes its place lies
//!   past another distinct row's first occurrence, the session's order is
//!   no longer a fresh read's, and the mapping re-runs. So does every
//!   refresh the session cannot replay — [`Since::Rebuild`](vada_kb::Since::Rebuild)
//!   (a relation-level event, or a mark the journal cannot vouch for) or a
//!   rewrite of rows that are not the last ones — through the same
//!   session's full run. So does a step that fails: the
//!   full run then yields exactly a from-scratch run's result or error,
//!   and a failed run drops the entry. A re-run is coerced against the run
//!   it replaces, as a step is, so every refresh of a stored entry names
//!   its parent and the row diff since.
//! * A union is **assembled** from its parts (`map.execute.assembled`).
//!   Each part is a mapping in its own right, with its own entry — the
//!   same entry as the stand-alone candidate of that structure, session
//!   included. The parts are brought up to date first: a fresh one is
//!   reused, a stale one refreshes. The union's rows are then their rows
//!   in part order, keeping a row only when its *raw* fact came from no
//!   earlier part. Coercion can map distinct facts to equal rows, and the
//!   engine keeps both, so the union does too. After an edit to one
//!   source, only the parts that read it refresh, and only the raw facts
//!   their steps removed or inserted are looked up in the other parts.
//!
//! **A union is not copied.** Its entry holds its parts' runs (shared, not
//! copied) and, per part, the rows assembly drops. [`ResultStore::candidate`]
//! hands an entry back as these [`Part`]s, so a consumer that only counts
//! over rows (mapping quality's tallies) never needs the union's relation.
//! The relation is built on the first request — [`ResultStore::execute`],
//! or [`Candidate::relation`] — and kept in the entry until the entry is
//! rebuilt or evicted. A consumer
//! that keeps its own copy ([`Candidate::to_relation`]) gets the rows
//! copied straight out of the parts, and nothing is kept for it.
//!
//! **One input per source version.** An engine run reads its sources from
//! an execution input the store keeps per source relation: the rows as one
//! shared fact set, and the rows that repeat one, at the journal mark it was
//! built at. A mapping reads nothing else: a postcode's district is
//! computed in the rules, by the engine's `district` function. Every run
//! over the same version of a source loads the same fact set, without
//! copying a tuple (`map.input.reused`); the engine copies it only if it
//! writes to it. An input is rebuilt when its source is not
//! [`Since::Unchanged`](vada_kb::Since::Unchanged) since its mark
//! (`map.input.built`), and dropped once
//! its source is gone from the knowledge base. The input database holds
//! the same facts in the same order as loading every row one by one.
//!
//! The output is byte-identical to [`execute_mapping`], which builds its
//! input from scratch, on the same knowledge base in every case, row order
//! included. For a union this rests on the contract of
//! [`MappingPart`](vada_kb::MappingPart). The store checks that the parts
//! concatenate to the rules and read only the mapping's sources; it never
//! parses rule text to find them.
//!
//! ```
//! use vada_common::obs::{key, Obs};
//! use vada_common::{tuple, AttrType, Relation, Schema};
//! use vada_kb::{KnowledgeBase, MappingDef, MappingPart};
//! use vada_map::{execute_mapping, ExecuteConfig, ResultStore};
//!
//! let mut kb = KnowledgeBase::new();
//! // the store tallies its work in the knowledge base's registry
//! kb.set_obs(Obs::enabled());
//! let tally = |kb: &KnowledgeBase| {
//!     [key::MAP_FULL, key::MAP_INCREMENTAL, key::MAP_REUSED, key::MAP_ASSEMBLED]
//!         .map(|k| kb.obs().get(k))
//! };
//! let cfg = ExecuteConfig::default();
//! // a from-scratch execution, on a clone: a clone records into no registry
//! let scratch = |m: &MappingDef, kb: &KnowledgeBase| execute_mapping(&cfg, m, &kb.clone());
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
//! let first = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(first.len(), 1);
//!
//! // nothing the mapping reads has changed: the stored result comes back
//! store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(tally(&kb), [1, 0, 1, 0]);
//!
//! // append a row and re-execute: the journal names a row-level edit of
//! // `listings`, so the entry's incremental session, which made the first
//! // result, is fed the appended row — no program runs…
//! listings.push(tuple!["2 park rd", "300000"]).unwrap();
//! kb.register_source(listings.clone());
//! let second = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(second.len(), 2);
//! assert_eq!(tally(&kb), [1, 1, 1, 0]);
//! // …byte-identical to a from-scratch execution
//! assert_eq!(second.tuples(), scratch(&mapping, &kb).unwrap().tuples());
//!
//! // from then on the session is fed what changed: the appended row is
//! // derived, the removed one retracted
//! listings.push(tuple!["3 mill ln", "180000"]).unwrap();
//! kb.register_source(listings);
//! kb.remove_rows("listings", &[1]).unwrap();
//! let third = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(tally(&kb), [1, 2, 1, 0]);
//! assert_eq!(third.tuples(), scratch(&mapping, &kb).unwrap().tuples());
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
//! assert_eq!(tally(&kb), [2, 2, 1, 1]);
//! // a fact both parts derive appears once; `£250,000` is a second fact
//! // that coerces to an equal row, and stays, as in the engine's answer
//! assert_eq!(assembled.tuples(), scratch(&union, &kb).unwrap().tuples());
//! assert_eq!(assembled.len(), 3);
//! // the entry itself is the parts' rows and the row the second drops
//! // (handing the entry back as its parts is a store hit)
//! let parts: Vec<(usize, Vec<usize>)> = store
//!     .candidate(&cfg, &union, &kb)
//!     .unwrap()
//!     .parts()
//!     .map(|p| (p.rows.len(), p.dropped.to_vec()))
//!     .collect();
//! assert_eq!(parts, [(2, vec![]), (2, vec![0])]);
//!
//! // an edit to `listings` refreshes its part only, through its session
//! let mut listings = kb.relation("listings").unwrap().clone();
//! listings.push(tuple!["4 elm rd", "210000"]).unwrap();
//! kb.register_source(listings);
//! let edited = store.execute(&cfg, &union, &kb).unwrap();
//! assert_eq!(tally(&kb), [2, 3, 2, 2]);
//! assert_eq!(edited.tuples(), scratch(&union, &kb).unwrap().tuples());
//! ```
//!
//! [`execute_mapping`]: crate::execute_mapping

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, OnceLock};

use vada_common::obs::key as obs_key;
use vada_common::{Relation, Result, Schema, Tuple, VadaError};
use vada_datalog::engine::{EngineConfig, FactSet};
use vada_datalog::IncrementalSession;
use vada_kb::{DeltaChange, JournalMark, KnowledgeBase, MappingDef, Since};

use crate::execute::{
    coerce_rows, execute_span, input_db, registered_target, source_input, ExecuteConfig,
    Repeats, RowDiff,
};

/// Cap on retained entries; the least recently used is evicted beyond it.
pub const DEFAULT_STORE_CAPACITY: usize = 16;

/// One full run's or session step's result: the coerced rows and, row for
/// row beside them, the engine's raw target facts they were coerced from —
/// what a union deduplicates on when the run is one of its parts.
#[derive(Debug)]
struct Run {
    /// Names these rows among every run of this store.
    version: u64,
    rows: Relation,
    facts: Arc<FactSet>,
    /// The version this run refreshed, and what its rows changed since —
    /// the rows, not the parent, so no chain of versions stays alive;
    /// `None` for a mapping's first run.
    parent: Option<(u64, RowDiff)>,
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
    /// The incremental session a mapping without parts is materialised
    /// by; `None` for a union.
    session: Option<Box<Session>>,
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

/// One row-level edit of a source, as a session replays it: the removed
/// rows go first, then the appended ones.
struct RowEdit<'a> {
    source: &'a str,
    removed: &'a [Tuple],
    added: &'a [Tuple],
}

/// The edit `change`, a row-level event, makes — or `None` for a rewrite of
/// rows that are not the last ones, which a session cannot replay (the new
/// rows take the old rows' places, which no append reproduces).
fn row_edit(change: &DeltaChange) -> Option<RowEdit<'_>> {
    let (source, removed, added): (&String, &[Tuple], &[Tuple]) = match change {
        DeltaChange::RowsAppended { relation, rows } => (relation, &[], rows),
        DeltaChange::RowsRemoved { relation, rows, .. } => (relation, rows, &[]),
        DeltaChange::RowsReplaced { relation, removed, added, tail: true, .. } => {
            (relation, removed, added)
        }
        _ => return None,
    };
    Some(RowEdit { source, removed, added })
}

/// Whether `held` is `rows`' distinct tuples in first-occurrence order, as
/// [`source_input`] would read them: walked in step, with a lookup only for
/// a row that is not the next tuple `held` expects — it must repeat one
/// already passed.
fn reads_as(held: &FactSet, rows: &[Tuple]) -> bool {
    let mut next = 0;
    let mut repeats = FactSet::default();
    // per distinct repeated tuple, how far `held` had been walked at its
    // first repeat
    let mut walked = Vec::new();
    for t in rows {
        if held.tuples().get(next) == Some(t) {
            next += 1;
        } else if repeats.insert(t.clone()) {
            walked.push(next);
        }
    }
    next == held.len()
        && walked.iter().enumerate().all(|(r, &w)| held.row_of(&repeats, r).is_some_and(|at| at < w))
}

/// A mapping's incremental session, and what replaying the journal into it
/// takes besides: per source, how many rows beyond the first hold each
/// tuple that several rows hold — the execution input's, shared until an
/// edit changes them.
#[derive(Debug)]
struct Session {
    inc: IncrementalSession,
    repeats: BTreeMap<String, Arc<Repeats>>,
}

impl Session {
    /// A session of `rules`, not run yet, recording into the knowledge
    /// base's registry.
    fn new(cfg: &ExecuteConfig, rules: &str, kb: &KnowledgeBase) -> Result<Session> {
        let engine = EngineConfig { obs: kb.obs().clone(), ..cfg.engine.clone() };
        Ok(Session { inc: IncrementalSession::new(engine, rules)?, repeats: BTreeMap::new() })
    }

    /// Feed `edits` to the session, oldest first, and name the sources the
    /// session may now hold in another order than a fresh read does.
    ///
    /// The engine reads a source as its distinct rows in first-occurrence
    /// order. A removed row whose tuple another row still holds is not
    /// retracted, and that is right unless it was the tuple's first
    /// occurrence and the copy taking its place lies past another distinct
    /// row's first occurrence; the source of such a row is named.
    fn replay<'e>(&mut self, edits: &[RowEdit<'e>]) -> Result<BTreeSet<&'e str>> {
        let mut unsure = BTreeSet::new();
        for edit in edits {
            if !edit.removed.is_empty() && self.remove(edit.source, edit.removed)? {
                unsure.insert(edit.source);
            }
            if !edit.added.is_empty() {
                self.append(edit.source, edit.added)?;
            }
        }
        Ok(unsure)
    }

    /// Count the repeats among `rows`, appended to `source`, and feed the
    /// rows to the session, which skips a tuple it already holds, as a
    /// fresh read does.
    fn append(&mut self, source: &str, rows: &[Tuple]) -> Result<()> {
        let held = self.inc.database().fact_set(source);
        let repeats = Arc::make_mut(self.repeats.entry(source.to_string()).or_default());
        let mut batch = HashSet::new();
        for t in rows {
            if !batch.insert(t) || held.is_some_and(|f| f.contains(t)) {
                *repeats.entry(t.clone()).or_insert(0) += 1;
            }
        }
        self.inc.apply(rows.iter().map(|t| (source.to_string(), t.clone())).collect())?;
        Ok(())
    }

    /// Retract the tuples of `rows`, removed from `source`, that no row
    /// holds any more; whether some removed tuple still has a row.
    fn remove(&mut self, source: &str, rows: &[Tuple]) -> Result<bool> {
        let repeats = Arc::make_mut(self.repeats.entry(source.to_string()).or_default());
        let mut gone = Vec::new();
        let mut survives = false;
        for t in rows {
            match repeats.get_mut(t) {
                Some(n) => {
                    *n -= 1;
                    if *n == 0 {
                        repeats.remove(t);
                    }
                    survives = true;
                }
                None => gone.push((source.to_string(), t.clone())),
            }
        }
        if !gone.is_empty() {
            self.inc.retract(gone)?;
        }
        Ok(survives)
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
    /// The version these rows replaced: every refresh of a stored entry,
    /// session step or engine run, names the run it refreshed. `None` for a
    /// mapping's first run, which has no `removed`, `inserted` or
    /// `continues` rows either.
    pub parent: Option<u64>,
    /// The parent's rows these no longer hold: the parent's rows minus
    /// these, plus the `inserted` ones, are `rows` as a multiset.
    pub removed: &'a [Tuple],
    /// The positions in `rows` of the rows new since the parent, ascending.
    pub inserted: &'a [usize],
    /// Per row of `rows`, the parent's row it continues — the same raw
    /// fact, so the same row — or `None` for an inserted one.
    pub continues: &'a [Option<usize>],
}

impl<'a> Candidate<'a> {
    /// The parts, in order; the candidate's rows are theirs, minus the
    /// dropped ones, in this order. A mapping without parts is one part
    /// that drops nothing.
    pub fn parts(self) -> impl Iterator<Item = Part<'a>> {
        self.0.parts.iter().map(|(run, dropped)| {
            let diff = run.parent.as_ref().map(|(_, diff)| diff);
            Part {
                version: run.version,
                rows: &run.rows,
                dropped,
                parent: run.parent.as_ref().map(|(version, _)| *version),
                removed: diff.map_or(&[], |d| &d.removed),
                inserted: diff.map_or(&[], |d| &d.inserted),
                continues: diff.map_or(&[], |d| &d.continues),
            }
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
    /// Per source relation, the journal position its execution input (see
    /// [`source_input`]) is current at, and the input.
    inputs: BTreeMap<String, (JournalMark, Arc<FactSet>, Arc<Repeats>)>,
    /// The version the next run gets.
    next_version: u64,
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::with_capacity(DEFAULT_STORE_CAPACITY)
    }
}

/// The structural identity of a mapping execution: same fingerprint ⇒
/// same program, same input sources, same output typing. A union part and
/// the stand-alone mapping of the same structure share it. The mapping id
/// takes no part: the same id can name different rules in two passes.
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
        }
    }

    /// Materialise `mapping`: the stored result when the journal proves
    /// no source changed since it was built, a refreshed one otherwise —
    /// run through the engine or its incremental session, or for a union
    /// assembled from its parts. The result is byte-identical to
    /// [`execute_mapping`](crate::execute_mapping) on the same knowledge
    /// base — including row order — in every case. A failed
    /// refresh leaves no entry for the mapping (nor for a part that
    /// failed), so a stale result is never handed back. The
    /// `map.execute.*` and `map.input.*` tallies and spans go to the
    /// knowledge base's registry, and so do a session's `incremental.*`.
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
            return Ok(Candidate(&self.entries[&fp]));
        }
        if mapping.parts.is_empty() {
            self.refresh(cfg, mapping, &fp, target, kb)?;
        } else {
            // the journal names a source since the mark, so the pre-edit
            // result can never be handed back: assembly follows it, and a
            // failure frees it
            let stale = self.entries.remove(&fp);
            match self.assemble(cfg, mapping, target, kb, stale) {
                Ok(parts) => self.insert(fp.clone(), parts, None, kb),
                Err(e) => {
                    self.forget(&fp);
                    return Err(e);
                }
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
        if kb.since(&entry.mark, sources) != Since::Unchanged {
            return false;
        }
        entry.mark = kb.mark();
        self.touch(fp);
        true
    }

    /// The execution input of `source`: the kept one while the journal
    /// proves the source unchanged since it was built, a new one otherwise.
    fn input(&mut self, source: &str, kb: &KnowledgeBase) -> Result<(Arc<FactSet>, Arc<Repeats>)> {
        let kept = self.inputs.get_mut(source);
        if kept.is_some_and(|(mark, ..)| kb.since(mark, &[source]) == Since::Unchanged) {
            kb.obs().incr(obs_key::MAP_INPUT_REUSED);
        } else {
            let (rows, repeats) = source_input(kb.relation(source)?);
            kb.obs().incr(obs_key::MAP_INPUT_BUILT);
            self.inputs.insert(source.to_string(), (kb.mark(), rows, Arc::new(repeats)));
        }
        let (mark, rows, repeats) = self.inputs.get_mut(source).expect("kept or just built");
        *mark = kb.mark();
        Ok((rows.clone(), repeats.clone()))
    }

    /// Bring the entry of `mapping`, a mapping without parts stored under
    /// `fp` (if at all) and not current, up to date: through its session
    /// when [`ResultStore::step`] can, by the session's full run otherwise.
    /// A step that fails falls back to the full run too, so a refresh yields
    /// exactly a from-scratch run's result or error. Stores the run and
    /// hands it back; a failure leaves no entry under `fp`.
    fn refresh(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        fp: &str,
        target: &Schema,
        kb: &KnowledgeBase,
    ) -> Result<Arc<Run>> {
        // one span per refresh, whichever way it goes
        let _span = execute_span(mapping, kb);
        let stale = self.entries.remove(fp);
        let earlier = stale.as_ref().and_then(|s| s.whole_run().cloned());
        let mark = stale.as_ref().map(|s| s.mark);
        let mut session = stale.and_then(|s| s.session);
        let stepped = match (mark, &earlier, &mut session) {
            (Some(mark), Some(earlier), Some(session)) => {
                self.step(mapping, target, kb, mark, earlier, session).ok().flatten()
            }
            _ => None,
        };
        let refreshed = match stepped {
            Some(run) => Ok(run),
            None => self.run(cfg, mapping, target, kb, earlier.as_deref(), &mut session),
        };
        match refreshed {
            Ok(run) => {
                self.insert(fp.to_string(), vec![(run.clone(), Vec::new())], session, kb);
                Ok(run)
            }
            Err(e) => {
                self.forget(fp);
                Err(e)
            }
        }
    }

    /// Refresh the stale entry of `mapping`, a mapping without parts, whose
    /// result `earlier` is current at `mark`, through its incremental
    /// `session`. `Ok(None)` asks for a full run instead, as an error does.
    /// A step answers `Ok(None)` when [`KnowledgeBase::since`] does not
    /// answer the mark with row events, or one of them is a rewrite a
    /// session cannot replay (see [`row_edit`]), or when a removed row's
    /// surviving copy left the session holding a source's rows in another
    /// order than a fresh read (see [`Session::replay`] and [`reads_as`]).
    fn step(
        &mut self,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
        mark: JournalMark,
        earlier: &Run,
        session: &mut Session,
    ) -> Result<Option<Arc<Run>>> {
        let Since::Rows(events) = kb.since(&mark, &mapping.sources) else {
            return Ok(None);
        };
        let edits: Option<Vec<_>> = events.into_iter().map(|e| row_edit(&e.change)).collect();
        let Some(edits) = edits else { return Ok(None) };
        for source in session.replay(&edits)? {
            let rows = kb.relation(source)?.tuples();
            let held = session.inc.database().fact_set(source);
            if !held.is_some_and(|h| reads_as(h, rows)) {
                return Ok(None);
            }
        }
        let facts = session.inc.database().shared_fact_set(&target.name).unwrap_or_default();
        let (rows, diff) =
            coerce_rows(&facts, target, &mapping.id, Some((&earlier.facts, &earlier.rows)))?;
        kb.obs().incr(obs_key::MAP_INCREMENTAL);
        self.next_version += 1;
        let parent = Some((earlier.version, diff));
        Ok(Some(Arc::new(Run { version: self.next_version, rows, facts, parent })))
    }

    /// One full run of `mapping` over the kept inputs of its sources, in
    /// `session` (a new one if `None`), coerced against the `earlier` run it
    /// replaces, if any, which it then names as its parent.
    fn run(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
        earlier: Option<&Run>,
        session: &mut Option<Box<Session>>,
    ) -> Result<Arc<Run>> {
        let session = match session {
            Some(session) => session,
            None => session.insert(Box::new(Session::new(cfg, &mapping.rules, kb)?)),
        };
        kb.obs().incr(obs_key::MAP_FULL);
        let mut repeats = BTreeMap::new();
        for source in &mapping.sources {
            repeats.insert(source.clone(), self.input(source, kb)?.1);
        }
        let input = input_db(mapping.sources.iter().map(|s| (s.as_str(), &self.inputs[s].1)));
        session.repeats = repeats;
        let output = session.inc.run_full(input)?;
        let facts = output.shared_fact_set(&target.name).unwrap_or_default();
        let before = earlier.map(|e| (&*e.facts, &e.rows));
        let (rows, diff) = coerce_rows(&facts, target, &mapping.id, before)?;
        self.next_version += 1;
        let parent = earlier.map(|e| (e.version, diff));
        Ok(Arc::new(Run { version: self.next_version, rows, facts, parent }))
    }

    /// Bring every part of `union` up to date, then record, per part, the
    /// rows whose raw fact an earlier part already produced ([`overlaps`],
    /// following `stale`, the union's previous entry).
    fn assemble(
        &mut self,
        cfg: &ExecuteConfig,
        union: &MappingDef,
        target: &Schema,
        kb: &KnowledgeBase,
        stale: Option<Materialisation>,
    ) -> Result<Vec<(Arc<Run>, Vec<usize>)>> {
        kb.obs().incr(obs_key::MAP_ASSEMBLED);
        // stale parts refresh beneath this span
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
                    self.refresh(cfg, &part_mapping, &fp, target, kb)?
                }
            };
            runs.push(run);
        }
        Ok(overlaps(runs, stale.map(|s| s.parts).unwrap_or_default()))
    }

    /// Store `parts` (and a mapping's `session`) under `fp`, current now, as
    /// the most recently used. Eviction waits for the end of
    /// [`ResultStore::candidate`], so assembling a union never evicts one of
    /// its own parts.
    fn insert(
        &mut self,
        fp: String,
        parts: Vec<(Arc<Run>, Vec<usize>)>,
        session: Option<Box<Session>>,
        kb: &KnowledgeBase,
    ) {
        self.touch(&fp);
        let entry = Materialisation { mark: kb.mark(), parts, union: OnceLock::new(), session };
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

/// A union's `runs`, in part order, each with the rows whose raw fact an
/// earlier run already produced. `previous` is what the union held before
/// the parts refreshed. Where each run is the one held there or a refresh
/// of it, only the facts those refreshes removed or inserted can have
/// changed side, and only they are looked up; otherwise every row of every
/// run is probed against the runs before it.
fn overlaps(
    runs: Vec<Arc<Run>>,
    mut previous: Vec<(Arc<Run>, Vec<usize>)>,
) -> Vec<(Arc<Run>, Vec<usize>)> {
    let follows = previous.len() == runs.len()
        && runs.iter().zip(&previous).all(|(run, (held, _))| {
            run.version == held.version
                || run.parent.as_ref().is_some_and(|(parent, _)| *parent == held.version)
        });
    if !follows {
        previous.clear();
    }
    let mut previous = previous.into_iter();
    // the facts the steps of the runs so far removed or inserted
    let mut changed = FactSet::default();
    let mut out = Vec::with_capacity(runs.len());
    for (k, run) in runs.iter().enumerate() {
        let drops =
            |row: &usize| runs[..k].iter().any(|e| e.facts.row_of(&run.facts, *row).is_some());
        let Some((held, dropped)) = previous.next() else {
            out.push((run.clone(), (0..run.facts.len()).filter(drops).collect()));
            continue;
        };
        if let Some((_, diff)) = run.parent.as_ref().filter(|_| run.version != held.version) {
            let inserted = diff.inserted.iter().map(|&row| &run.facts.tuples()[row]);
            for f in diff.removed_facts.iter().chain(inserted) {
                changed.insert(f.clone());
            }
        }
        if run.version == held.version && changed.is_empty() {
            out.push((held, dropped));
            continue;
        }
        // a row dropped before whose fact no step touched is still dropped;
        // a touched fact is, where an earlier run holds it too
        let was: HashSet<usize> =
            (0..changed.len()).filter_map(|i| held.facts.row_of(&changed, i)).collect();
        let kept = (dropped.iter().filter(|row| !was.contains(row)))
            .filter_map(|&row| run.facts.row_of(&held.facts, row));
        let touched = (0..changed.len()).filter_map(|i| run.facts.row_of(&changed, i));
        let mut dropped: Vec<usize> = kept.chain(touched.filter(drops)).collect();
        dropped.sort_unstable();
        out.push((run.clone(), dropped));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_mapping;
    use std::collections::HashMap;
    use vada_common::{tuple, AttrType, Obs};
    use vada_kb::MappingPart;
    use vada_quality::{MetricTally, ReferencePopulation};

    fn kb_and_mapping() -> (KnowledgeBase, MappingDef) {
        let mut kb = KnowledgeBase::new();
        kb.set_obs(Obs::enabled());
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
            property(S, PC, P, C) :- rightmove(P, S, PC), D = district(PC), D != null, deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), D = district(PC), not has_crime(D).
            has_crime(D) :- deprivation(D, _), D != null.
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

    /// Execute through the store and pin the answer to the scratch path,
    /// run on a clone so its engine run stays out of `kb`'s tallies.
    fn checked(store: &mut ResultStore, mapping: &MappingDef, kb: &KnowledgeBase) {
        let cfg = ExecuteConfig::default();
        let got = store.execute(&cfg, mapping, kb).unwrap();
        let scratch = execute_mapping(&cfg, mapping, &kb.clone()).unwrap();
        assert_eq!(got.schema(), scratch.schema());
        assert_eq!(got.tuples(), scratch.tuples());
    }

    /// `(refreshed, reused)` so far, as the store tallied them in `kb`'s
    /// registry: a refresh is a session's full run or its step.
    fn tally(kb: &KnowledgeBase) -> (u64, u64) {
        let obs = kb.obs();
        (obs.get(obs_key::MAP_FULL) + obs.get(obs_key::MAP_INCREMENTAL), obs.get(obs_key::MAP_REUSED))
    }

    /// `[full runs, session steps]` so far.
    fn paths(kb: &KnowledgeBase) -> [u64; 2] {
        [obs_key::MAP_FULL, obs_key::MAP_INCREMENTAL].map(|k| kb.obs().get(k))
    }

    /// How many `map/execute` spans `kb`'s registry holds.
    fn execute_spans(kb: &KnowledgeBase) -> usize {
        kb.obs().span_records().iter().filter(|r| r.name == "map/execute").count()
    }

    /// How many entries keep an incremental session.
    fn sessions(store: &ResultStore) -> usize {
        store.entries.values().filter(|e| e.session.is_some()).count()
    }

    /// `rows` appended to `source`, re-registered.
    fn append(kb: &mut KnowledgeBase, source: &str, rows: &[vada_common::Tuple]) {
        let mut rel = kb.relation(source).unwrap().clone();
        rel.extend(rows.iter().cloned()).unwrap();
        kb.register_source(rel);
    }

    #[test]
    fn matches_scratch_across_appends_and_replacements() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (1, 0));

        // grow the last source (rightmove) with an already-seen postcode
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm.clone());
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (2, 0));

        // a new postcode in a district no deprivation row covers: the
        // complement rule keeps it
        let mut rm_new = kb.relation("rightmove").unwrap().clone();
        rm_new.push(tuple!["99000", "7 new rd", "M9 9ZZ"]).unwrap();
        kb.register_source(rm_new);
        checked(&mut store, &mapping, &kb);

        // a postcode-shaped key in deprivation is no district: it joins
        // nothing
        let mut dep = kb.relation("deprivation").unwrap().clone();
        dep.push(tuple!["EH1 1ZZ", "900"]).unwrap();
        kb.register_source(dep);
        checked(&mut store, &mapping, &kb);

        // replace a source outright
        let mut rm2 = Relation::empty(rm.schema().clone());
        rm2.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
        kb.register_source(rm2);
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (5, 0));
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
        assert_eq!(tally(&kb), (3, 0));

        // removing the only EH1 1AA row empties the complement
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
        assert_eq!(tally(&kb), (7, 1));
    }

    #[test]
    fn duplicate_rows_keep_the_fact_alive() {
        let mut kb = KnowledgeBase::new();
        kb.set_obs(Obs::enabled());
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
        assert_eq!(tally(&kb), (3, 2));
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
        // (a clone records nothing until it is given a registry)
        let mut kb2 = clone;
        kb2.set_obs(kb.obs().clone());
        let mut rm2 = kb2.relation("rightmove").unwrap().clone();
        rm2.push(tuple!["777", "7 other st", "M1 1AA"]).unwrap();
        rm2.push(tuple!["888", "8 other st", "M1 1AA"]).unwrap();
        kb2.register_source(rm2);
        checked(&mut store, &mapping, &kb2);
        assert_eq!(tally(&kb), (3, 0));
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
        assert_eq!(tally(&kb), (2, 0));
    }

    #[test]
    fn structural_change_creates_a_fresh_session() {
        let (mut kb, mut mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // a different mapping id with identical structure shares the entry
        mapping.id = "m2".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (1, 1));
        // a first materialisation is its session's full run; the first
        // row-level refresh steps that session: a step, not a run
        assert_eq!(sessions(&store), 1);
        append(&mut kb, "rightmove", &[tuple!["500000", "4 mill ln", "EH1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.entries.len(), 1);
        assert_eq!((sessions(&store), paths(&kb)), (1, [1, 1]));
        // changed rules: new fingerprint, a second entry, with a session of
        // its own from its first materialisation
        let joined = mapping.clone();
        mapping.rules = "property(S, PC, P, null) :- rightmove(P, S, PC).".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (3, 1));
        assert_eq!((store.entries.len(), sessions(&store)), (2, 2));
        append(&mut kb, "rightmove", &[tuple!["1", "5 elm rd", "M1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        checked(&mut store, &joined, &kb);
        // both sessions stepped
        assert_eq!((sessions(&store), paths(&kb)), (2, [2, 3]));
    }

    // ---- the incremental session of a mapping without parts ----

    #[test]
    fn a_removed_row_whose_copy_follows_it_stays_incremental() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // two copies of a new row side by side, then a row of its own: the
        // refresh starts the session
        let twin = tuple!["410000", "3 kings ave", "M1 1AA"];
        append(&mut kb, "rightmove", &[twin.clone(), twin, tuple!["9", "7 new rd", "EH1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!(paths(&kb), [1, 1]);

        // removing the first copy: the second takes its place, and no other
        // row's first occurrence lies between them
        kb.remove_rows("rightmove", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!(paths(&kb), [1, 2]);
        // a copy of the first row, far behind it, removed again: the first
        // occurrence never moved
        append(&mut kb, "rightmove", &[tuple!["£250,000", "12 high st", "M1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        let last = kb.relation("rightmove").unwrap().len() - 1;
        kb.remove_rows("rightmove", &[last]).unwrap();
        checked(&mut store, &mapping, &kb);
        // removing the twin's last copy and the row after it retracts both
        kb.remove_rows("rightmove", &[2, 3]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [1, 5]));
    }

    #[test]
    fn reads_as_is_a_fresh_reads_order() {
        let [a, t, b] = ["a", "t", "b"].map(|v| tuple![v]);
        let mut held = FactSet::default();
        for f in [&a, &t, &b] {
            held.insert(f.clone());
        }
        let reads = |rows: &[&vada_common::Tuple]| {
            let rows: Vec<_> = rows.iter().map(|&r| r.clone()).collect();
            reads_as(&held, &rows)
        };
        assert!(reads(&[&a, &t, &b]));
        assert!(reads(&[&a, &a, &t, &a, &b, &t]));
        // `t` first occurs before `a`, although it occurs after it too
        assert!(!reads(&[&t, &a, &t, &b]));
        assert!(!reads(&[&a, &b, &t]));
        assert!(!reads(&[&a, &t]));
        assert!(!reads(&[&a, &t, &b, &tuple!["c"]]));
    }

    #[test]
    fn a_removed_row_whose_copy_lies_past_another_row_reruns() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // both in a covered district, so the two rows' order shows
        let (u, v) = (tuple!["410000", "3 kings ave", "M1 1AA"], tuple!["9", "7 new rd", "M1 2AB"]);
        append(&mut kb, "rightmove", &[u.clone(), v, u]);
        checked(&mut store, &mapping, &kb);
        assert_eq!(paths(&kb), [1, 1]);

        // the copy that takes the first one's place lies past `v`, so the
        // engine now reads `v` first: the mapping re-runs, in its session's
        // full run, and the refresh is still one execute span
        let spans = execute_spans(&kb);
        kb.remove_rows("rightmove", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [2, 1]));
        assert_eq!(execute_spans(&kb), spans + 1);
        // the next row-level refresh steps the session from that run
        append(&mut kb, "rightmove", &[tuple!["5", "1 mill ln", "M1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [2, 2]));
    }

    #[test]
    fn a_mid_relation_rewrite_reruns_in_the_session() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        append(&mut kb, "rightmove", &[tuple!["410000", "3 kings ave", "M1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        // a tail rewrite is a retraction, then an append…
        kb.update_source("rightmove", &[(2, tuple!["1", "3 kings ave", "M1 1AA"])]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [1, 2]));
        // …a rewrite of row 0 of 3 takes the old row's place: a re-run, in
        // the same session
        kb.update_source("rightmove", &[(0, tuple!["111", "12 high st", "M1 1AA"])]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [2, 2]));
    }

    #[test]
    fn edits_to_the_second_source_step_the_joined_session() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        append(&mut kb, "rightmove", &[tuple!["410000", "3 kings ave", "EH1 1AA"]]);
        checked(&mut store, &mapping, &kb);
        // `EH1` now covers two listings the complement rule kept…
        append(&mut kb, "deprivation", &[tuple!["EH1", "900"]]);
        checked(&mut store, &mapping, &kb);
        // …and no longer does
        kb.remove_rows("deprivation", &[1]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (1, [1, 3]));
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

        assert_eq!(tally(&kb), (1, 2));
        assert_eq!(obs.get(obs_key::MAP_REUSED), 2);
        assert_eq!(obs.get(obs_key::MAP_FULL), 1);
        assert_eq!(obs.get(obs_key::STRATUM_PASSES), runs_after_first);
    }

    #[test]
    fn store_misses_on_every_kind_of_source_change() {
        type Change = fn(&mut KnowledgeBase);
        let changes: [(&str, Change); 6] = [
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
            ("RowsInserted", |kb| {
                kb.insert_rows("rightmove", &[(0, tuple!["1", "9 park rd", "EH1 1AA"])]).unwrap();
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
            assert_eq!(tally(&kb), (2, 0), "{name}");
            // refreshed and stored: the next look is a hit again
            checked(&mut store, &mapping, &kb);
            assert_eq!(tally(&kb), (2, 1), "{name}");
        }
    }

    #[test]
    fn store_misses_when_the_journal_cannot_vouch_for_the_watermark() {
        // lineage: work resumed on a clone, even an untouched one
        let mut store = ResultStore::default();
        let (kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
        let mut resumed = kb.clone();
        resumed.set_obs(kb.obs().clone());
        checked(&mut store, &mapping, &resumed);
        assert_eq!(tally(&kb), (2, 0));

        // window: more events than the journal retains, none on a source
        let mut store = ResultStore::default();
        let (seed, mapping) = kb_and_mapping();
        let mut kb = KnowledgeBase::with_journal_capacity(4);
        kb.set_obs(Obs::enabled());
        kb.register_source(seed.relation("rightmove").unwrap().clone());
        kb.register_source(seed.relation("deprivation").unwrap().clone());
        kb.register_target_schema(seed.target_schema().unwrap().clone());
        checked(&mut store, &mapping, &kb);
        for _ in 0..5 {
            kb.set_user_context(Vec::new());
        }
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&kb), (2, 0));
        // a hit advances the watermark, so steady churn below the
        // window size never loses the entry
        for _ in 0..3 {
            kb.set_user_context(Vec::new());
            kb.set_user_context(Vec::new());
            checked(&mut store, &mapping, &kb);
        }
        assert_eq!(tally(&kb), (2, 3));
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
        assert_eq!(tally(&kb), (2, 0));
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
        assert_eq!(tally(&kb), (3, 2));
        // …the least recently used one was evicted
        checked(&mut store, &variant(0), &kb);
        assert_eq!(tally(&kb), (4, 2));
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
        assert_eq!(tally(&kb), (1, 1));
    }

    #[test]
    fn failed_apply_drops_the_session_and_recovers() {
        let mut store = ResultStore::default();
        let mut kb = KnowledgeBase::new();
        kb.set_obs(Obs::enabled());
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
        append(&mut kb, "s", &[tuple![2]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!((store.entries.len(), sessions(&store)), (1, 1));

        // a row that breaks the arithmetic: the session's step fails and
        // must not leave the pre-edit result behind as a hit
        append(&mut kb, "s", &[tuple!["not a number"]]);
        let cfg = ExecuteConfig::default();
        let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        let scratch = execute_mapping(&cfg, &mapping, &kb.clone()).unwrap_err();
        assert_eq!(err.to_string(), scratch.to_string());
        assert!(store.entries.is_empty() && store.lru.is_empty());
        assert!(store.execute(&cfg, &mapping, &kb).is_err(), "no stale hit");
        assert_eq!(kb.obs().get(obs_key::MAP_REUSED), 0);

        // the next run materialises afresh, and the next edit starts a new
        // session from it: the two sessions' first steps are the only ones
        kb.remove_rows("s", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
        append(&mut kb, "s", &[tuple![3]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!(sessions(&store), 1);
        assert_eq!(kb.obs().get(obs_key::MAP_INCREMENTAL), 2);
    }

    #[test]
    fn a_failed_step_fails_as_a_scratch_run_does() {
        // two sources, each gaining a row that breaks the arithmetic: the
        // session meets them in journal order (`r` first), the engine in
        // rule order (`s` first), and the refresh reports the engine's error
        let mut store = ResultStore::default();
        let mut kb = KnowledgeBase::new();
        kb.set_obs(Obs::enabled());
        for name in ["s", "r"] {
            let mut src = Relation::empty(Schema::all_str(name, &["a"]));
            src.push(tuple![1]).unwrap();
            kb.register_source(src);
        }
        kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
        let mapping = MappingDef {
            id: "m".into(),
            target: "t".into(),
            rules: "t(Y) :- s(X), Y = X + 0.\nt(Y) :- r(X), Y = X + 1.\n".into(),
            sources: vec!["r".into(), "s".into()],
            matches_used: vec![],
            parts: vec![],
        };
        checked(&mut store, &mapping, &kb);
        append(&mut kb, "s", &[tuple![2]]);
        checked(&mut store, &mapping, &kb);
        assert_eq!(sessions(&store), 1);

        append(&mut kb, "r", &[tuple!["bad r"]]);
        append(&mut kb, "s", &[tuple!["bad s"]]);
        let cfg = ExecuteConfig::default();
        let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
        let scratch = execute_mapping(&cfg, &mapping, &kb.clone()).unwrap_err();
        assert_eq!(err.to_string(), scratch.to_string());
        assert!(store.entries.is_empty(), "no stale hit");

        kb.remove_rows("r", &[1]).unwrap();
        kb.remove_rows("s", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
    }

    #[test]
    fn an_entry_a_union_stored_is_not_stepped() {
        // a union and a mapping without parts with the same rules and
        // sources share one fingerprint, so the plain mapping may find the
        // union's entry: it is not one run and has no session, so the
        // refresh is a full run in a new session
        let (mut kb, mapping) = kb_and_mapping();
        let rules = "property(S, PC, P, null) :- rightmove(P, S, PC).\n";
        let plain = MappingDef {
            rules: format!("{rules}{rules}"),
            sources: vec!["rightmove".into()],
            ..mapping
        };
        let part = MappingPart { rules: rules.into(), sources: vec!["rightmove".into()] };
        let union = MappingDef { parts: vec![part.clone(), part], ..plain.clone() };
        let mut store = ResultStore::default();
        checked(&mut store, &union, &kb);
        // the part's entry keeps a session, the union's none
        assert_eq!((sessions(&store), paths(&kb)), (1, [1, 0]));
        append(&mut kb, "rightmove", &[tuple!["410000", "3 kings ave", "M1 1AA"]]);
        checked(&mut store, &plain, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (2, [2, 0]));
        append(&mut kb, "rightmove", &[tuple!["5", "1 mill ln", "M1 1AA"]]);
        checked(&mut store, &plain, &kb);
        assert_eq!((sessions(&store), paths(&kb)), (2, [2, 1]));
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
                    "property(S, PC, P, C) :- \
                     {atom}, D = district(PC), D != null, deprivation(D, C).\n\
                     property(S, PC, P, null) :- {atom}, D = district(PC), not has_crime_{tag}(D).\n\
                     has_crime_{tag}(D) :- deprivation(D, _), D != null.\n"
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
        assert_eq!(kb.obs().get(obs_key::MAP_ASSEMBLED), 2 + 8 * 2 + 2);
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
        // unions first: each steps the session its rightmove part was
        // materialised in, and reuses its onthemarket part; the
        // stand-alone candidates are then all current — onthemarket's
        // untouched, rightmove's just refreshed
        candidates.reverse();
        for c in &candidates {
            store.execute(&cfg, c, &kb).unwrap();
        }
        assert_eq!(counts(), [4, 2 + 2, 4]);
        for c in &candidates {
            checked(&mut store, c, &kb);
        }

        // the stale part stepped beneath its union's assembly span: none at
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

    #[test]
    fn part_diffs_rebuild_their_rows_and_unions_drop_what_probing_drops() {
        let (mut kb, mut candidates) = union_kb();
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        // every part version's rows, and each union's part versions
        let mut rows_of: HashMap<u64, Vec<Tuple>> = HashMap::new();
        let mut held_by: HashMap<String, Vec<u64>> = HashMap::new();
        let (mut stepped, mut followed, mut rerun) = (0, 0, 0);
        let mut steps = vec![("first sight", None)];
        steps.extend(union_edits().map(|(name, edit)| (name, Some(edit))));
        for (step, edit) in steps {
            if let Some(edit) = edit {
                edit(&mut kb);
            }
            let runs = kb.obs().get(obs_key::MAP_FULL);
            candidates.reverse();
            for c in &candidates {
                let candidate = store.candidate(&cfg, c, &kb).unwrap();
                let held = &candidate.0.parts;
                for (k, part) in candidate.parts().enumerate() {
                    let at = format!("{step}: {} part {k}", c.id);
                    // every refresh of a stored part names the version it
                    // replaced, an engine re-run's included
                    let before = held_by.get(&c.id).map(|v| v[k]);
                    if before.is_some_and(|v| v != part.version) {
                        assert_eq!(part.parent, before, "{at}");
                    }
                    match part.parent {
                        Some(parent) => {
                            // the continued rows are the parent's rows, and
                            // the rows they leave out are the removed ones;
                            // the rows continuing none are the inserted ones
                            let parent_rows = &rows_of[&parent];
                            let rows = part.rows.tuples();
                            assert_eq!(part.continues.len(), rows.len(), "{at}");
                            let mut continued = vec![false; parent_rows.len()];
                            let mut fresh = Vec::new();
                            for (row, from) in part.continues.iter().enumerate() {
                                match *from {
                                    Some(from) => {
                                        assert_eq!(rows[row], parent_rows[from], "{at}");
                                        assert!(!continued[from], "{at}: row {from} twice");
                                        continued[from] = true;
                                    }
                                    None => fresh.push(row),
                                }
                            }
                            assert_eq!(part.inserted, fresh, "{at}");
                            let left: Vec<&Tuple> = (parent_rows.iter().zip(&continued))
                                .filter_map(|(t, &c)| (!c).then_some(t))
                                .collect();
                            assert_eq!(left, part.removed.iter().collect::<Vec<_>>(), "{at}");
                            // the parent's rows, less the removed, plus the
                            // inserted, are the rows (as a multiset)
                            let mut rebuilt = rows_of[&parent].clone();
                            for row in part.removed {
                                let gone = rebuilt.iter().position(|r| r == row).expect(&at);
                                rebuilt.swap_remove(gone);
                            }
                            let rows = part.rows.tuples();
                            rebuilt.extend(part.inserted.iter().map(|&i| rows[i].clone()));
                            let mut rows = part.rows.tuples().to_vec();
                            rebuilt.sort();
                            rows.sort();
                            assert_eq!(rebuilt, rows, "{at}");
                            stepped += 1;
                        }
                        None => {
                            assert!(part.removed.is_empty() && part.inserted.is_empty(), "{at}")
                        }
                    }
                    rows_of.insert(part.version, part.rows.tuples().to_vec());
                    // the dropped rows are those whose raw fact an earlier
                    // part holds, however assembly found them
                    let facts = &held[k].0.facts;
                    let probed: Vec<usize> = (0..facts.len())
                        .filter(|&row| {
                            held[..k].iter().any(|(e, _)| e.facts.contains(&facts.tuples()[row]))
                        })
                        .collect();
                    assert_eq!(part.dropped, probed, "{at}");
                }
                let versions: Vec<u64> = candidate.parts().map(|p| p.version).collect();
                rerun += usize::from(
                    step == "rewrite rightmove mid-relation"
                        && kb.obs().get(obs_key::MAP_FULL) > runs
                        && candidate.parts().zip(&held_by[&c.id]).any(|(p, &v)| {
                            p.version != v && p.parent == Some(v)
                        }),
                );
                let before = held_by.insert(c.id.clone(), versions);
                if let Some(before) = before.filter(|_| held.len() > 1) {
                    // the union followed its parts when each is the one it
                    // held or a step from it, and one of them stepped
                    let mut parts = candidate.parts().zip(&before);
                    let follows = parts.all(|(p, &v)| p.version == v || p.parent == Some(v));
                    let stepped = candidate.parts().any(|p| p.parent.is_some());
                    followed += usize::from(follows && stepped);
                }
            }
        }
        assert!(stepped > 0 && followed > 0, "{stepped} stepped parts, {followed} followed unions");
        // the mid-relation rewrite re-ran the rightmove parts through the
        // engine, and each re-run named the run it replaced
        assert!(rerun > 0, "no re-run after the mid-relation rewrite named its parent");
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
        assert!(kb.obs().get(obs_key::MAP_ASSEMBLED) > 2);
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
        assert_eq!(obs.get(obs_key::MAP_FULL), 4);

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
        assert_eq!(obs.get(obs_key::MAP_FULL), 6);
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
        let work = [obs_key::MAP_FULL, obs_key::MAP_REUSED, obs_key::MAP_ASSEMBLED];
        assert_eq!(work.map(|k| kb.obs().get(k)), [0; 3]);
        checked(&mut store, union, &kb);
    }

    #[test]
    fn failed_part_refresh_drops_the_part_and_the_union() {
        let mut kb = KnowledgeBase::new();
        kb.set_obs(Obs::enabled());
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
        assert_eq!(kb.obs().get(obs_key::MAP_REUSED), 0);

        kb.remove_rows("s1", &[1]).unwrap();
        checked(&mut store, &union, &kb);
        assert_eq!(store.entries.len(), 3);
    }
}
