//! The [`KnowledgeBase`] facade: typed state plus the Datalog fact view.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use parking_lot::Mutex;
use vada_common::obs::{key as obs_key, Obs};
use vada_common::{tuple, Relation, Result, Schema, Tuple, VadaError};
use vada_datalog::ast::{Literal, Program};
use vada_datalog::engine::{Database, Engine};
use vada_datalog::parser::parse_query;

use crate::catalog::{Catalog, RelationKind};
use crate::delta::{DeltaChange, DeltaEvent, DeltaJournal, JournalMark, Since};
use crate::storage::{self, RecordRef, RelationRef, Snapshot, SnapshotRef, WalRecord};
use crate::meta::{
    CellVeto, CfdRule, ContextKind, FeedbackRecord, FeedbackTarget, MappingDef, MatchDef,
    PairwiseStatement, QualityFact,
};

/// The VADA knowledge base. See the crate docs for the model.
#[derive(Debug)]
pub struct KnowledgeBase {
    catalog: Catalog,
    target_schema: Option<Schema>,
    matches: BTreeMap<String, MatchDef>,
    mappings: BTreeMap<String, MappingDef>,
    cfds: BTreeMap<String, CfdRule>,
    feedback: Vec<FeedbackRecord>,
    vetoes: Vec<CellVeto>,
    quality: Vec<QualityFact>,
    user_context: Vec<PairwiseStatement>,
    context_kinds: BTreeMap<String, ContextKind>,
    /// `(context relation, context attribute, target attribute)`
    context_bindings: Vec<(String, String, String)>,
    selected_mapping: Option<String>,
    /// Raw staged documents awaiting extraction: name → CSV text.
    staged: BTreeMap<String, String>,
    version: u64,
    aspect_versions: BTreeMap<&'static str, u64>,
    journal: DeltaJournal,
    /// the dependency view at one version, filled per query (see
    /// [`KnowledgeBase::query`]).
    dep_cache: Mutex<DepCache>,
    /// write-ahead log + snapshot directory, when durable (see
    /// [`KnowledgeBase::open`] / [`KnowledgeBase::persist_to`]).
    durable: Option<storage::DurableStore>,
    /// sticky first storage failure; set when a WAL append or compaction
    /// fails, at which point the log is detached (see
    /// [`KnowledgeBase::storage_health`]).
    storage_error: Option<VadaError>,
    /// The pipeline's observability registry (see
    /// [`KnowledgeBase::set_obs`]): the disabled stub until one is attached.
    obs: Obs,
}

/// The dependency fact view at one knowledge-base version: the predicates
/// queries have named since the version last moved, each built whole from
/// current state. Built predicates are tallied as `kb.depcache.builds`.
#[derive(Debug, Default)]
struct DepCache {
    /// The KB version the view reflects.
    version: u64,
    /// The facts of every built predicate.
    db: Database,
    /// The predicates built at `version`, with or without facts.
    built: BTreeSet<&'static str>,
}

/// Every predicate of the dependency fact view, in the canonical build
/// order (see [`KnowledgeBase::build_dependency_db`]).
const ALL_DEPENDENCY_PREDICATES: &[&str] = &[
    "relation",
    "attr",
    "has_instances",
    "result_available",
    "target_relation",
    "target_attr",
    "match",
    "mapping",
    "selected_mapping",
    "cfd",
    "cfd_available",
    "quality",
    "feedback",
    "user_context",
    "data_context",
    "staged_document",
    "context_binding",
];

impl Clone for KnowledgeBase {
    fn clone(&self) -> Self {
        KnowledgeBase {
            catalog: self.catalog.clone(),
            target_schema: self.target_schema.clone(),
            matches: self.matches.clone(),
            mappings: self.mappings.clone(),
            cfds: self.cfds.clone(),
            feedback: self.feedback.clone(),
            vetoes: self.vetoes.clone(),
            quality: self.quality.clone(),
            user_context: self.user_context.clone(),
            context_kinds: self.context_kinds.clone(),
            context_bindings: self.context_bindings.clone(),
            selected_mapping: self.selected_mapping.clone(),
            staged: self.staged.clone(),
            version: self.version,
            aspect_versions: self.aspect_versions.clone(),
            journal: self.journal.clone(),
            dep_cache: Mutex::new(DepCache::default()),
            // a clone is a new lineage (see the journal's Clone impl), and
            // a WAL directory has exactly one writer: the clone is
            // in-memory only until persist_to is called on it
            durable: None,
            storage_error: None,
            // a clone's events are bookkeeping copies, not pipeline events
            obs: Obs::disabled(),
        }
    }
}

impl Default for KnowledgeBase {
    fn default() -> KnowledgeBase {
        KnowledgeBase {
            catalog: Default::default(),
            target_schema: None,
            matches: Default::default(),
            mappings: Default::default(),
            cfds: Default::default(),
            feedback: Vec::new(),
            vetoes: Vec::new(),
            quality: Vec::new(),
            user_context: Vec::new(),
            context_kinds: Default::default(),
            context_bindings: Vec::new(),
            selected_mapping: None,
            staged: Default::default(),
            version: 0,
            aspect_versions: Default::default(),
            journal: Default::default(),
            dep_cache: Mutex::new(DepCache::default()),
            durable: None,
            storage_error: None,
            obs: Obs::disabled(),
        }
    }
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Attach the observability registry, replacing the current one (a
    /// disabled handle turns collection off). The knowledge base is its
    /// only owner: everything that runs against the base — its own journal,
    /// query and WAL tallies, the orchestrator's step spans, mapping
    /// execution and the engine runs beneath it — records into this one
    /// registry. Nothing recorded before the call moves over.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The observability registry every layer working on this base records
    /// into: the disabled stub until [`KnowledgeBase::set_obs`] attaches one.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// An empty knowledge base with a custom journal retention window
    /// (tests and memory-tuned deployments; the default window is
    /// [`crate::delta::DEFAULT_JOURNAL_CAPACITY`]). The window also sets
    /// the WAL checkpoint cadence — one snapshot per `capacity` logged
    /// events, see [`KnowledgeBase::persist_to`].
    pub fn with_journal_capacity(capacity: usize) -> KnowledgeBase {
        KnowledgeBase {
            journal: DeltaJournal::with_capacity(capacity),
            ..KnowledgeBase::default()
        }
    }

    fn touch(&mut self, aspect: &'static str) {
        self.touch_full(aspect, DeltaChange::AspectChanged, None);
    }

    /// The single version-bump path: checkpoint if the log has grown to a
    /// full journal window, make the event durable, then record it.
    /// Relation mutators call this **before** touching the catalog
    /// (write-ahead: the event is fsync'd before it is applied), passing
    /// the full relation as `payload` when the change does not carry its
    /// rows. Metadata mutators apply first — their `AspectChanged` events
    /// carry no state, so replay has nothing to misorder.
    fn touch_full(
        &mut self,
        aspect: &'static str,
        change: DeltaChange,
        payload: Option<(RelationKind, &Relation)>,
    ) {
        let capacity = self.journal.capacity();
        // the handle is taken out while the checkpoint borrows the rest of
        // the base, and only a successful compaction puts it back
        if let Some(mut durable) = self.durable.take_if(|d| d.log_records() >= capacity) {
            // the log holds a full window of records since the last
            // checkpoint: fold them into a new snapshot before appending.
            // One snapshot per `capacity` events keeps the write cost of an
            // edit amortised-constant, and keeps the invariant recovery
            // rests on — the log never holds more than the last `capacity`
            // events, all of which the in-memory window still retains, so
            // snapshot + replay (which prunes through the same
            // `DeltaJournal::record`) rebuilds exactly the live window
            let span = self.obs.span("wal/compact");
            span.attr("events", self.journal.len());
            match durable.compact(&self.snapshot_state()) {
                Ok(()) => {
                    self.obs.incr(obs_key::WAL_COMPACTIONS);
                    self.durable = Some(durable);
                }
                Err(e) => {
                    span.attr("detached", "true");
                    self.obs.incr(obs_key::STORAGE_ERRORS);
                    self.storage_error.get_or_insert(e);
                }
            }
        }
        self.version += 1;
        self.aspect_versions.insert(aspect, self.version);
        if let Some(durable) = self.durable.as_mut() {
            let span = self.obs.span("wal/append");
            span.attr("aspect", aspect);
            let record = RecordRef {
                seq: self.version,
                aspect,
                change: &change,
                payload: payload.map(|(kind, rel)| RelationRef::of(kind, rel)),
            };
            match durable.append(record) {
                Ok(bytes) => {
                    // one fsync per append under the current WAL contract
                    span.attr("bytes", bytes);
                    self.obs.incr(obs_key::WAL_APPENDS);
                    self.obs.incr(obs_key::WAL_FSYNCS);
                    self.obs.add(obs_key::WAL_BYTES, bytes);
                }
                Err(e) => {
                    // an un-fsyncable log must not silently pretend to be
                    // durable: detach it and hold the error for
                    // storage_health; in-memory operation continues
                    span.attr("detached", "true");
                    self.obs.incr(obs_key::STORAGE_ERRORS);
                    self.storage_error.get_or_insert(e);
                    self.durable = None;
                }
            }
        }
        self.journal.record(self.version, aspect, change);
        // structural: one journal event per version bump, at every knob
        self.obs.incr(obs_key::KB_EVENTS);
    }

    /// The full persistent image of the current extensional state — what a
    /// snapshot stores and what recovery restores — borrowed, not copied.
    fn snapshot_state(&self) -> SnapshotRef<'_> {
        SnapshotRef {
            version: self.version,
            lineage: self.journal.lineage(),
            pruned_through: self.journal.pruned_through(),
            capacity: self.journal.capacity() as u64,
            aspect_versions: self.aspect_versions.iter().map(|(a, v)| (*a, *v)).collect(),
            events: self
                .journal
                .scan_since(self.journal.pruned_through())
                .expect("a journal can always serve its own pruned-through watermark")
                .collect(),
            relations: self
                .catalog
                .entries()
                .map(|(_, kind, rel)| RelationRef::of(kind, rel))
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // durability
    // ------------------------------------------------------------------

    /// Reopen a durable knowledge base from `dir`: load the snapshot (if
    /// any), replay the surviving WAL records on top, and keep appending
    /// to the same directory. The recovered catalog, journal window,
    /// watermarks, and lineage are byte-identical to the in-memory state
    /// as of the last fsync'd event, so consumers that cached a
    /// `(lineage, version)` watermark before the crash resume O(change).
    ///
    /// Derived metadata (matches, mappings, CFDs, feedback, contexts,
    /// staged documents…) is **not** persisted — it is re-derived by
    /// wrangling over the recovered catalog. Their `AspectChanged` events
    /// are still journalled and replayed, so aspect versions and the
    /// window are exact.
    ///
    /// A WAL directory has a single writer: do not open a directory that
    /// another live `KnowledgeBase` is still appending to.
    pub fn open(dir: impl AsRef<Path>) -> Result<KnowledgeBase> {
        let (durable, snap, records) = storage::DurableStore::open(dir.as_ref())?;
        let mut kb = KnowledgeBase::new();
        if let Some(snap) = snap {
            kb.load_snapshot(snap)?;
        }
        for record in records {
            // records at or below the snapshot version are the overlap an
            // interrupted compaction leaves (snapshot renamed, log not yet
            // reset): already part of the snapshot, skip
            if record.event.seq <= kb.version {
                continue;
            }
            kb.apply_replay(record)?;
        }
        kb.durable = Some(durable);
        Ok(kb)
    }

    /// Make this knowledge base durable under `dir` (created if needed):
    /// write the current state as the base snapshot, start a fresh WAL,
    /// and append every subsequent mutation to it. The journal's window
    /// capacity doubles as the checkpoint cadence, counted in log records:
    /// once the log holds `capacity` records since the last checkpoint,
    /// the next event first folds them into a new snapshot and resets the
    /// log. An acknowledged edit therefore costs one framed, fsync'd
    /// append plus `1/capacity` of a snapshot at any journal age, the log
    /// is always a suffix of the retained window, and recovery is the
    /// snapshot plus at most `capacity` replayed records.
    pub fn persist_to(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        let snap = self.snapshot_state();
        self.durable = Some(storage::DurableStore::create(dir.as_ref(), &snap)?);
        self.storage_error = None;
        Ok(())
    }

    /// Detach the write-ahead log (the files stay on disk; mutations stop
    /// being persisted).
    pub fn disable_durability(&mut self) {
        self.durable = None;
        self.storage_error = None;
    }

    /// The durable directory, when a WAL is attached.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir())
    }

    /// `Ok` while durability is healthy (or off). After a WAL append or
    /// compaction failure the log is detached — acknowledging writes a
    /// crash would lose is worse than degrading to in-memory — and this
    /// returns the sticky first error until durability is re-established
    /// via [`KnowledgeBase::persist_to`].
    pub fn storage_health(&self) -> Result<()> {
        match &self.storage_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn load_snapshot(&mut self, snap: Snapshot) -> Result<()> {
        for stored in snap.relations {
            let (kind, rel) = stored.into_relation()?;
            self.catalog.put(kind, rel);
        }
        self.version = snap.version;
        self.aspect_versions = snap
            .aspect_versions
            .iter()
            .map(|(a, v)| Ok((storage::codec::static_aspect(a)?, *v)))
            .collect::<Result<_>>()?;
        self.journal = DeltaJournal::restore(
            snap.lineage,
            snap.pruned_through,
            snap.version,
            snap.capacity as usize,
            snap.events,
        );
        Ok(())
    }

    /// Re-apply one recovered WAL record: catalog effect, version,
    /// aspect version, journal entry — the same order the original
    /// mutation produced them.
    fn apply_replay(&mut self, record: WalRecord) -> Result<()> {
        let WalRecord { event, payload } = record;
        let DeltaEvent { seq, aspect, change } = event;
        let missing = |relation: &str| {
            VadaError::Storage(format!(
                "replay references unknown relation `{relation}` (log/snapshot mismatch)"
            ))
        };
        match (&change, payload) {
            (DeltaChange::RowsAppended { relation, rows }, _) => {
                let rel = self.catalog.get_mut(relation).ok_or_else(|| missing(relation))?;
                rel.extend(rows.iter().cloned())?;
            }
            (DeltaChange::RowsRemoved { relation, positions, .. }, _) => {
                let rel = self.catalog.get_mut(relation).ok_or_else(|| missing(relation))?;
                rel.remove_rows(positions)?;
            }
            (DeltaChange::RowsReplaced { relation, added, positions, .. }, _) => {
                let rel = self.catalog.get_mut(relation).ok_or_else(|| missing(relation))?;
                for (pos, tuple) in positions.iter().zip(added) {
                    rel.replace(*pos, tuple.clone())?;
                }
            }
            (DeltaChange::RowsInserted { relation, rows, positions }, _) => {
                let rel = self.catalog.get_mut(relation).ok_or_else(|| missing(relation))?;
                rel.insert_rows(positions, rows)?;
            }
            (
                DeltaChange::RelationAdded { .. } | DeltaChange::RelationReplaced { .. },
                Some(stored),
            ) => {
                let (kind, rel) = stored.into_relation()?;
                self.catalog.put(kind, rel);
            }
            (
                DeltaChange::RelationAdded { relation }
                | DeltaChange::RelationReplaced { relation },
                None,
            ) => {
                return Err(VadaError::Storage(format!(
                    "replay record {seq} for `{relation}` is missing its relation payload"
                )));
            }
            (DeltaChange::RelationRemoved { relation }, _) => {
                self.catalog.remove(relation);
            }
            // metadata state is not persisted; the event still advances
            // the version and the journal window below
            (DeltaChange::AspectChanged, _) => {}
        }
        self.version = seq;
        self.aspect_versions.insert(aspect, seq);
        self.journal.record(seq, aspect, change);
        Ok(())
    }

    /// Classify what registering `rel` under `kind` does to the catalog:
    /// a pure row append (monotone) or a replacement (non-monotone).
    fn relation_change(&self, kind: RelationKind, rel: &Relation) -> DeltaChange {
        let name = rel.name().to_string();
        match self.catalog.get(&name) {
            None => DeltaChange::RelationAdded { relation: name },
            Some(old)
                if self.catalog.kind(&name) == Some(kind)
                    && old.schema() == rel.schema()
                    && old.len() <= rel.len()
                    && old.tuples() == &rel.tuples()[..old.len()] =>
            {
                DeltaChange::RowsAppended {
                    relation: name,
                    rows: rel.tuples()[old.len()..].to_vec(),
                }
            }
            Some(_) => DeltaChange::RelationReplaced { relation: name },
        }
    }

    /// Global version counter; bumps on every mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The change journal itself (read access).
    pub fn journal(&self) -> &DeltaJournal {
        &self.journal
    }

    /// This base's current journal position, for a consumer to keep beside
    /// whatever it builds from the base now (see [`JournalMark`]).
    pub fn mark(&self) -> JournalMark {
        JournalMark { lineage: self.journal.lineage(), version: self.version }
    }

    /// How `relations` changed since `mark` — the one question every
    /// journal consumer asks. [`Since::Unchanged`] when no event after the
    /// mark names one of them; [`Since::Rows`] with those events when every
    /// one is row-level; [`Since::Rebuild`] when the mark is from another
    /// lineage, pruned past or ahead of the journal, or an event after it is
    /// relation-level. Reading removes nothing (the window is pruned by
    /// capacity, not by consumption), so any number of consumers can each
    /// keep their own mark.
    pub fn since(&self, mark: &JournalMark, relations: &[impl AsRef<str>]) -> Since<'_> {
        let events = match self.journal.scan_since(mark.version) {
            Some(events) if mark.lineage == self.journal.lineage() => events,
            _ => return Since::Rebuild,
        };
        let mut rows = Vec::new();
        for e in events {
            if !e.change.relation().is_some_and(|r| relations.iter().any(|n| n.as_ref() == r)) {
                continue;
            }
            if !e.change.is_row_level() {
                return Since::Rebuild;
            }
            rows.push(e);
        }
        if rows.is_empty() {
            Since::Unchanged
        } else {
            Since::Rows(rows)
        }
    }

    /// The version at which `aspect` last changed (0 if never). Aspects:
    /// `relations`, `target`, `matches`, `mappings`, `cfds`, `feedback`,
    /// `quality`, `user_context`, `data_context`, `selection`, `result`.
    pub fn aspect_version(&self, aspect: &str) -> u64 {
        self.aspect_versions.get(aspect).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // extensional data
    // ------------------------------------------------------------------

    /// Register a source relation (web-extraction output). Re-registering
    /// a grown copy of an existing source (same schema, old rows a prefix)
    /// is journalled as a monotone row append, which the incremental
    /// evaluation path can consume as a delta.
    pub fn register_source(&mut self, rel: Relation) {
        self.register_relation(RelationKind::Source, "relations", rel);
    }

    /// The shared registration path: classify the change, journal it
    /// (write-ahead), then apply it to the catalog. Row-level changes
    /// carry their rows in the event; relation-level ones ship the full
    /// relation as the WAL payload.
    fn register_relation(&mut self, kind: RelationKind, aspect: &'static str, rel: Relation) {
        let change = self.relation_change(kind, &rel);
        let payload = if change.is_row_level() { None } else { Some((kind, &rel)) };
        self.touch_full(aspect, change, payload);
        self.catalog.put(kind, rel);
    }

    /// Remove the rows at the given (pre-removal) indices from any catalog
    /// relation — a source, a context, an intermediate or the result —
    /// preserving the relative order of the remaining rows, and journal a
    /// row-level [`DeltaChange::RowsRemoved`] with the removed tuples under
    /// the aspect the relation's kind registers under (`result` for the
    /// result). That is the shape the retraction-capable incremental path
    /// and the result's consumers follow without re-reading the relation,
    /// and the WAL logs it without a relation payload. Returns the removed
    /// tuples in ascending row order. Removing zero rows is a no-op (no
    /// version bump).
    pub fn remove_rows(&mut self, name: &str, rows: &[usize]) -> Result<Vec<Tuple>> {
        let kind = self
            .catalog
            .kind(name)
            .ok_or_else(|| VadaError::Kb(format!("unknown relation `{name}`")))?;
        let rel = self.catalog.get(name).expect("kind implies presence");
        // validate and collect up front: the event must hit the log before
        // the catalog changes (write-ahead), so the apply below cannot be
        // allowed to fail
        let mut positions: Vec<usize> = rows.to_vec();
        positions.sort_unstable();
        positions.dedup();
        if let Some(&last) = positions.last() {
            if last >= rel.len() {
                return Err(VadaError::Schema(format!(
                    "row {last} out of range for `{}` ({} rows)",
                    name,
                    rel.len()
                )));
            }
        }
        if positions.is_empty() {
            return Ok(Vec::new());
        }
        let removed: Vec<Tuple> = positions.iter().map(|&r| rel.tuples()[r].clone()).collect();
        self.touch_full(
            Self::aspect_of_kind(kind),
            DeltaChange::RowsRemoved {
                relation: name.to_string(),
                rows: removed.clone(),
                positions: positions.clone(),
            },
            None,
        );
        self.catalog
            .get_mut(name)
            .expect("kind implies presence")
            .remove_rows(&positions)
            .expect("validated above");
        Ok(removed)
    }

    /// Rewrite rows of any catalog relation in place — a source, a context,
    /// an intermediate or the result (`edits` pairs a pre-existing row
    /// index with its new tuple) — journalling a row-level
    /// [`DeltaChange::RowsReplaced`] carrying both the previous and the new
    /// contents, under the aspect the relation's kind registers under. The
    /// remaining rows keep their positions; the event's `tail` flag records
    /// whether every rewritten row sat in the trailing positions (the only
    /// case a retract-then-append consumer can replay without changing the
    /// scan order). Repair, fusion and feedback write their fixes to the
    /// result through this and [`KnowledgeBase::remove_rows`], so the WAL
    /// logs their edits without a relation payload.
    pub fn update_source(&mut self, name: &str, edits: &[(usize, Tuple)]) -> Result<()> {
        let kind = self
            .catalog
            .kind(name)
            .ok_or_else(|| VadaError::Kb(format!("unknown relation `{name}`")))?;
        if edits.is_empty() {
            return Ok(());
        }
        let mut sorted: Vec<(usize, Tuple)> = edits.to_vec();
        sorted.sort_by_key(|(row, _)| *row);
        for pair in sorted.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(VadaError::Kb(format!(
                    "duplicate row {} in update of `{name}`",
                    pair[0].0
                )));
            }
        }
        let rel = self.catalog.get(name).expect("kind implies presence");
        let len = rel.len();
        // validate everything up front: the event must be durable before
        // the first edit lands (write-ahead), and a mid-batch failure must
        // not leave half the edits applied with no journal event
        if let Some((row, _)) = sorted.iter().find(|(row, _)| *row >= len) {
            return Err(VadaError::Kb(format!("row {row} out of range for `{name}`")));
        }
        if let Some((_, t)) = sorted.iter().find(|(_, t)| t.arity() != rel.schema().arity()) {
            return Err(VadaError::Kb(format!(
                "arity {} does not match `{name}` in update",
                t.arity()
            )));
        }
        let removed: Vec<Tuple> = sorted.iter().map(|(row, _)| rel.tuples()[*row].clone()).collect();
        let tail = sorted
            .iter()
            .enumerate()
            .all(|(i, (row, _))| *row == len - sorted.len() + i);
        let positions: Vec<usize> = sorted.iter().map(|(row, _)| *row).collect();
        let added: Vec<Tuple> = sorted.iter().map(|(_, t)| t.clone()).collect();
        self.touch_full(
            Self::aspect_of_kind(kind),
            DeltaChange::RowsReplaced {
                relation: name.to_string(),
                removed,
                added,
                positions,
                tail,
            },
            None,
        );
        let rel = self.catalog.get_mut(name).expect("kind implies presence");
        for (row, tuple) in sorted {
            rel.replace(row, tuple).expect("range and arity validated above");
        }
        Ok(())
    }

    /// Insert rows into any catalog relation — `rows` pairs each new tuple
    /// with the index it takes in the relation *after* the insert (strictly
    /// ascending) — keeping the relative order of the rows already there,
    /// and journal a row-level [`DeltaChange::RowsInserted`] under the
    /// aspect the relation's kind registers under. Mapping execution
    /// restores the result's blocks through this and
    /// [`KnowledgeBase::remove_rows`], so the WAL logs its diff without a
    /// relation payload. Inserting zero rows is a no-op (no version bump).
    pub fn insert_rows(&mut self, name: &str, rows: &[(usize, Tuple)]) -> Result<()> {
        let kind = self
            .catalog
            .kind(name)
            .ok_or_else(|| VadaError::Kb(format!("unknown relation `{name}`")))?;
        if rows.is_empty() {
            return Ok(());
        }
        let (positions, rows): (Vec<usize>, Vec<Tuple>) = rows.iter().cloned().unzip();
        // validate up front: the event must be durable before the insert
        // lands (write-ahead), so the apply below cannot be allowed to fail
        self.catalog
            .get(name)
            .expect("kind implies presence")
            .check_insert(&positions, &rows)
            .map_err(|e| VadaError::Kb(e.message().to_string()))?;
        self.touch_full(
            Self::aspect_of_kind(kind),
            DeltaChange::RowsInserted {
                relation: name.to_string(),
                rows: rows.clone(),
                positions: positions.clone(),
            },
            None,
        );
        self.catalog
            .get_mut(name)
            .expect("kind implies presence")
            .insert_rows(&positions, &rows)
            .expect("validated above");
        Ok(())
    }

    /// The journal aspect a row-level mutation of a relation of this kind
    /// bumps — the same aspect its registration path uses.
    fn aspect_of_kind(kind: RelationKind) -> &'static str {
        match kind {
            RelationKind::Source | RelationKind::Context => "relations",
            RelationKind::Result => "result",
            RelationKind::Intermediate => "intermediates",
        }
    }

    /// Register the target schema the user wants populated (paper Fig 2(b)).
    pub fn register_target_schema(&mut self, schema: Schema) {
        self.target_schema = Some(schema);
        self.touch("target");
    }

    /// The registered target schema.
    pub fn target_schema(&self) -> Option<&Schema> {
        self.target_schema.as_ref()
    }

    /// Associate a data-context relation with the target schema
    /// (paper §2.2): `bindings` maps context attributes to target
    /// attributes.
    pub fn register_data_context(
        &mut self,
        rel: Relation,
        kind: ContextKind,
        bindings: &[(&str, &str)],
    ) -> Result<()> {
        for (ctx_attr, _) in bindings {
            rel.schema().require(ctx_attr)?;
        }
        let name = rel.name().to_string();
        self.context_kinds.insert(name.clone(), kind);
        for (ctx_attr, tgt_attr) in bindings {
            self.context_bindings
                .push((name.clone(), ctx_attr.to_string(), tgt_attr.to_string()));
        }
        self.touch("data_context");
        self.register_relation(RelationKind::Context, "relations", rel);
        Ok(())
    }

    /// Stage a raw document (CSV text) for the extraction transducer to
    /// ingest; mirrors web-extraction output landing in the knowledge base
    /// before it becomes a source relation.
    pub fn stage_document(&mut self, name: impl Into<String>, text: impl Into<String>) {
        self.staged.insert(name.into(), text.into());
        self.touch("staged");
    }

    /// Staged documents, sorted by name.
    pub fn staged_documents(&self) -> impl Iterator<Item = (&str, &str)> {
        self.staged.iter().map(|(n, t)| (n.as_str(), t.as_str()))
    }

    /// Remove a staged document once ingested.
    pub fn unstage_document(&mut self, name: &str) -> Option<String> {
        let doc = self.staged.remove(name);
        if doc.is_some() {
            self.touch("staged");
        }
        doc
    }

    /// Store a materialised result relation (the wrangled target data).
    pub fn put_result(&mut self, rel: Relation) {
        self.register_relation(RelationKind::Result, "result", rel);
    }

    /// Store an intermediate relation. Intermediates bump their own aspect
    /// (`intermediates`), not `relations`, so they never re-trigger the
    /// schema-level transducers.
    pub fn put_intermediate(&mut self, rel: Relation) {
        self.register_relation(RelationKind::Intermediate, "intermediates", rel);
    }

    /// Drop an intermediate relation (e.g. consumed duplicate clusters).
    pub fn remove_intermediate(&mut self, name: &str) {
        if self.catalog.kind(name) == Some(RelationKind::Intermediate) {
            self.touch_full(
                "intermediates",
                DeltaChange::RelationRemoved { relation: name.to_string() },
                None,
            );
            self.catalog.remove(name);
        }
    }

    /// The extensional catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Relation lookup across the whole catalog.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.catalog.require(name)
    }

    /// Source relation names, sorted.
    pub fn source_names(&self) -> Vec<String> {
        self.catalog
            .names_of_kind(RelationKind::Source)
            .into_iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Context relation names with their kinds, sorted.
    pub fn context_relations(&self) -> Vec<(String, ContextKind)> {
        self.context_kinds
            .iter()
            .map(|(n, k)| (n.clone(), *k))
            .collect()
    }

    /// The `(context relation, context attr, target attr)` bindings.
    pub fn context_bindings(&self) -> &[(String, String, String)] {
        &self.context_bindings
    }

    // ------------------------------------------------------------------
    // matches
    // ------------------------------------------------------------------

    /// Add (or replace) a match.
    pub fn add_match(&mut self, m: MatchDef) {
        self.matches.insert(m.id.clone(), m);
        self.touch("matches");
    }

    /// All matches, sorted by id.
    pub fn matches(&self) -> impl Iterator<Item = &MatchDef> {
        self.matches.values()
    }

    /// Revise a match score (feedback propagation, paper §2.3).
    pub fn set_match_score(&mut self, id: &str, score: f64) -> Result<()> {
        let m = self
            .matches
            .get_mut(id)
            .ok_or_else(|| VadaError::Kb(format!("unknown match `{id}`")))?;
        m.score = score;
        self.touch("matches");
        Ok(())
    }

    // ------------------------------------------------------------------
    // mappings
    // ------------------------------------------------------------------

    /// Add (or replace) a candidate mapping.
    pub fn add_mapping(&mut self, m: MappingDef) {
        self.mappings.insert(m.id.clone(), m);
        self.touch("mappings");
    }

    /// All candidate mappings, sorted by id.
    pub fn mappings(&self) -> impl Iterator<Item = &MappingDef> {
        self.mappings.values()
    }

    /// The mapping with the given id.
    pub fn get_mapping(&self, id: &str) -> Option<&MappingDef> {
        self.mappings.get(id)
    }

    /// Remove all candidate mappings.
    pub fn clear_mappings(&mut self) {
        self.mappings.clear();
        self.selected_mapping = None;
        self.touch("mappings");
    }

    /// Mark a mapping as the selected one.
    pub fn select_mapping(&mut self, id: &str) -> Result<()> {
        if !self.mappings.contains_key(id) {
            return Err(VadaError::Kb(format!("unknown mapping `{id}`")));
        }
        self.selected_mapping = Some(id.to_string());
        self.touch("selection");
        Ok(())
    }

    /// The currently selected mapping id.
    pub fn selected_mapping(&self) -> Option<&str> {
        self.selected_mapping.as_deref()
    }

    // ------------------------------------------------------------------
    // CFDs, quality, feedback, user context
    // ------------------------------------------------------------------

    /// Add a learned CFD.
    pub fn add_cfd(&mut self, cfd: CfdRule) {
        self.cfds.insert(cfd.id.clone(), cfd);
        self.touch("cfds");
    }

    /// All CFDs, sorted by id.
    pub fn cfds(&self) -> impl Iterator<Item = &CfdRule> {
        self.cfds.values()
    }

    /// Remove all CFDs.
    pub fn clear_cfds(&mut self) {
        self.cfds.clear();
        self.touch("cfds");
    }

    /// Record a quality metric value.
    pub fn add_quality(&mut self, q: QualityFact) {
        self.quality.push(q);
        self.touch("quality");
    }

    /// All quality facts.
    pub fn quality_facts(&self) -> &[QualityFact] {
        &self.quality
    }

    /// Remove quality facts for an entity kind (before recomputation).
    pub fn clear_quality(&mut self, entity_kind: &str) {
        self.quality.retain(|q| q.entity_kind != entity_kind);
        self.touch("quality");
    }

    /// Assert a feedback annotation (paper §2.3).
    pub fn add_feedback(&mut self, f: FeedbackRecord) {
        self.feedback.push(f);
        self.touch("feedback");
    }

    /// All feedback annotations.
    pub fn feedback(&self) -> &[FeedbackRecord] {
        &self.feedback
    }

    /// Record a durable cell/row veto derived from feedback.
    pub fn add_veto(&mut self, veto: CellVeto) {
        self.vetoes.push(veto);
        self.touch("feedback");
    }

    /// All recorded vetoes.
    pub fn vetoes(&self) -> &[CellVeto] {
        &self.vetoes
    }

    /// Replace the user context with the given pairwise statements
    /// (paper Fig 2(d)).
    pub fn set_user_context(&mut self, statements: Vec<PairwiseStatement>) {
        self.user_context = statements;
        self.touch("user_context");
    }

    /// The current user-context statements.
    pub fn user_context(&self) -> &[PairwiseStatement] {
        &self.user_context
    }

    // ------------------------------------------------------------------
    // the Datalog view & dependency queries
    // ------------------------------------------------------------------

    /// Evaluate a conjunctive dependency query (e.g. a transducer input
    /// dependency from paper Table 1) against the knowledge-base fact view.
    /// Returns the distinct bindings of the query's variables.
    ///
    /// The view is kept for one knowledge-base version and filled lazily:
    /// a query builds only the predicates it names, positively or under
    /// `not`, that no earlier query at this version built, and any
    /// mutation starts the view again empty. Each predicate is built whole
    /// from current state by the same code as a from-scratch
    /// [`build_dependency_db`](Self::build_dependency_db), so every answer
    /// — order included — is the fresh build's. A predicate the view does
    /// not define has no facts, as in a fresh build.
    pub fn query(&self, query_src: &str) -> Result<Vec<Tuple>> {
        let q = parse_query(query_src)?;
        self.obs.incr(obs_key::KB_QUERIES);
        let mut guard = self.dep_cache.lock();
        let cache = &mut *guard;
        if cache.version != self.version {
            *cache = DepCache { version: self.version, ..DepCache::default() };
        }
        for literal in &q.body {
            let (Literal::Pos(atom) | Literal::Neg(atom)) = literal else { continue };
            let Some(&pred) = ALL_DEPENDENCY_PREDICATES.iter().find(|p| **p == atom.pred) else {
                continue;
            };
            if cache.built.insert(pred) {
                self.insert_dependency_pred(&mut cache.db, pred);
                self.obs.incr(obs_key::DEPCACHE_BUILDS);
            }
        }
        // the dependency view is a pure extensional fact base (no program
        // rules), so run_query short-circuits to direct query evaluation
        Engine::default().run_query(&Program { rules: Vec::new() }, &cache.db, &q)
    }

    /// Whether a dependency query has at least one answer.
    pub fn query_satisfied(&self, query_src: &str) -> Result<bool> {
        Ok(!self.query(query_src)?.is_empty())
    }

    /// Build the Datalog fact view of the current knowledge-base state.
    ///
    /// Predicates exposed (arity in parentheses):
    /// `relation(name, kind, rows)`, `attr(rel, attr, pos, type)`,
    /// `target_relation(name)`, `target_attr(rel, attr, pos, type)`,
    /// `has_instances(rel)`, `match(id, src_rel, src_attr, tgt_attr, score,
    /// matcher)`, `mapping(id, target)`, `selected_mapping(id)`,
    /// `cfd(id, rel, rhs_attr, support)`, `cfd_available(rel)`,
    /// `quality(entity_kind, entity, metric, criterion, value)`,
    /// `feedback(id, kind, rel, row, attr, verdict)`,
    /// `user_context(more, less, strength)`, `data_context(rel, kind)`,
    /// `context_binding(ctx_rel, ctx_attr, tgt_attr)`,
    /// `result_available(rel)`, `staged_document(name)`.
    pub fn build_dependency_db(&self) -> Database {
        let mut db = Database::new();
        for pred in ALL_DEPENDENCY_PREDICATES {
            self.insert_dependency_pred(&mut db, pred);
        }
        db
    }

    /// Insert every fact of one dependency-view predicate from current
    /// state. The single definition of each predicate's contents: the
    /// from-scratch build and the per-query fill both call this, so a
    /// filled predicate is byte-identical (facts *and* their order) to a
    /// freshly built one.
    fn insert_dependency_pred(&self, db: &mut Database, pred: &str) {
        let mut put = |fact: Tuple| {
            db.insert(pred, fact);
        };
        let relations = || self.catalog.entries();
        let target = self.target_schema.iter();
        match pred {
            "relation" => {
                for (name, kind, rel) in relations() {
                    put(tuple![name, kind.tag(), rel.len() as i64]);
                }
            }
            "attr" => {
                for (name, _, rel) in relations() {
                    for (pos, a) in rel.schema().attributes().iter().enumerate() {
                        put(tuple![name, a.name.as_str(), pos as i64, a.ty.name()]);
                    }
                }
            }
            "has_instances" => {
                for (name, _, _) in relations().filter(|(_, _, rel)| !rel.is_empty()) {
                    put(tuple![name]);
                }
            }
            "result_available" => {
                for (name, _, _) in relations().filter(|(_, k, _)| *k == RelationKind::Result) {
                    put(tuple![name]);
                }
            }
            "target_relation" => target.for_each(|schema| put(tuple![schema.name.as_str()])),
            "target_attr" => {
                for schema in target {
                    for (pos, a) in schema.attributes().iter().enumerate() {
                        put(tuple![schema.name.as_str(), a.name.as_str(), pos as i64, a.ty.name()]);
                    }
                }
            }
            "match" => {
                for m in self.matches.values() {
                    let (id, rel, attr) = (m.id.as_str(), m.src_rel.as_str(), m.src_attr.as_str());
                    put(tuple![id, rel, attr, m.tgt_attr.as_str(), m.score, m.matcher.as_str()]);
                }
            }
            "mapping" => {
                for m in self.mappings.values() {
                    put(tuple![m.id.as_str(), m.target.as_str()]);
                }
            }
            "selected_mapping" => {
                self.selected_mapping.iter().for_each(|m| put(tuple![m.as_str()]));
            }
            "cfd" => {
                for c in self.cfds.values() {
                    let rhs = c.rhs.0.as_str();
                    put(tuple![c.id.as_str(), c.relation.as_str(), rhs, c.support as i64]);
                }
            }
            "cfd_available" => {
                for c in self.cfds.values() {
                    put(tuple![c.relation.as_str()]);
                }
            }
            "quality" => {
                for q in &self.quality {
                    let (kind, entity) = (q.entity_kind.as_str(), q.entity.as_str());
                    put(tuple![kind, entity, q.metric.as_str(), q.criterion.as_str(), q.value]);
                }
            }
            "feedback" => {
                for f in &self.feedback {
                    let (kind, rel, row, attr) = match &f.target {
                        FeedbackTarget::Tuple { relation, row } => ("tuple", relation, *row, ""),
                        FeedbackTarget::Attribute { relation, row, attr } => {
                            ("attribute", relation, *row, attr.as_str())
                        }
                    };
                    let (id, rel) = (f.id.as_str(), rel.as_str());
                    put(tuple![id, kind, rel, row as i64, attr, f.verdict.tag()]);
                }
            }
            "user_context" => {
                for s in &self.user_context {
                    let (more, less) = (s.more_important.as_str(), s.less_important.as_str());
                    put(tuple![more, less, s.strength.as_str()]);
                }
            }
            "data_context" => {
                for (rel, kind) in &self.context_kinds {
                    put(tuple![rel.as_str(), kind.tag()]);
                }
            }
            "staged_document" => self.staged.keys().for_each(|name| put(tuple![name.as_str()])),
            "context_binding" => {
                for (rel, ctx_attr, tgt_attr) in &self.context_bindings {
                    put(tuple![rel.as_str(), ctx_attr.as_str(), tgt_attr.as_str()]);
                }
            }
            other => unreachable!("unknown dependency predicate `{other}`"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Verdict;
    use vada_common::{tuple, AttrType};

    fn kb_with_scenario() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rightmove = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rightmove.push(tuple!["250000", "12 High St", "M13 9PL"]).unwrap();
        kb.register_source(rightmove);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        kb
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut kb = KnowledgeBase::new();
        let v0 = kb.version();
        kb.register_target_schema(Schema::all_str("t", &["a"]));
        assert!(kb.version() > v0);
        assert_eq!(kb.aspect_version("target"), kb.version());
        assert_eq!(kb.aspect_version("matches"), 0);
    }

    #[test]
    fn dependency_query_over_schemas() {
        let kb = kb_with_scenario();
        // schema matching's input dependency: source and target schemas exist
        let rows = kb
            .query("attr(R, A, _, _), relation(R, \"source\", _), target_attr(T, B, _, _)")
            .unwrap();
        assert!(!rows.is_empty());
    }

    #[test]
    fn instance_matching_dependency_needs_instances() {
        let mut kb = kb_with_scenario();
        assert!(kb
            .query_satisfied("relation(R, \"source\", _), has_instances(R)")
            .unwrap());
        // context instances are absent until registered
        assert!(!kb
            .query_satisfied("data_context(R, \"reference\"), has_instances(R)")
            .unwrap());
        let mut addr = Relation::empty(Schema::all_str("address", &["street", "postcode"]));
        addr.push(tuple!["12 High St", "M13 9PL"]).unwrap();
        kb.register_data_context(addr, ContextKind::Reference, &[("street", "street")])
            .unwrap();
        assert!(kb
            .query_satisfied("data_context(R, \"reference\"), has_instances(R)")
            .unwrap());
    }

    #[test]
    fn match_lifecycle() {
        let mut kb = kb_with_scenario();
        kb.add_match(MatchDef {
            id: "m0".into(),
            src_rel: "rightmove".into(),
            src_attr: "price".into(),
            tgt_attr: "price".into(),
            score: 0.9,
            matcher: "schema".into(),
        });
        assert!(kb.query_satisfied("match(_, _, _, \"price\", S, _), S >= 0.5").unwrap());
        kb.set_match_score("m0", 0.2).unwrap();
        assert!(!kb.query_satisfied("match(_, _, _, \"price\", S, _), S >= 0.5").unwrap());
        assert!(kb.set_match_score("nope", 0.1).is_err());
    }

    #[test]
    fn mapping_selection_requires_existing() {
        let mut kb = kb_with_scenario();
        assert!(kb.select_mapping("nope").is_err());
        kb.add_mapping(MappingDef {
            id: "map0".into(),
            target: "property".into(),
            rules: "property(S, P, C) :- rightmove(S, P, C).".into(),
            sources: vec!["rightmove".into()],
            matches_used: vec![],
            parts: vec![],
        });
        kb.select_mapping("map0").unwrap();
        assert_eq!(kb.selected_mapping(), Some("map0"));
        assert!(kb.query_satisfied("selected_mapping(\"map0\")").unwrap());
    }

    #[test]
    fn feedback_facts_exposed() {
        let mut kb = kb_with_scenario();
        kb.add_feedback(FeedbackRecord {
            id: "f0".into(),
            target: FeedbackTarget::Attribute {
                relation: "property".into(),
                row: 3,
                attr: "bedrooms".into(),
            },
            verdict: Verdict::Incorrect,
        });
        let rows = kb
            .query("feedback(F, \"attribute\", \"property\", Row, \"bedrooms\", \"incorrect\")")
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    /// Dependency-view predicates built so far, off the registry
    /// [`KnowledgeBase::set_obs`] attached.
    fn builds(kb: &KnowledgeBase) -> u64 {
        kb.obs().get(obs_key::DEPCACHE_BUILDS)
    }

    #[test]
    fn dependency_view_builds_only_the_predicates_a_query_names() {
        let mut kb = kb_with_scenario();
        kb.set_obs(Obs::enabled());
        assert!(!kb.query_satisfied("relation(R, _, _), not has_instances(R)").unwrap());
        assert_eq!(builds(&kb), 2, "a positive and a negated predicate");
        kb.query_satisfied("relation(_, _, _)").unwrap();
        assert_eq!(builds(&kb), 2, "a built predicate is kept at one version");
        // a predicate built empty counts as built; an unknown one is never built
        assert!(!kb.query_satisfied("cfd_available(_)").unwrap());
        assert!(!kb.query_satisfied("cfd_available(R), nosuch(R)").unwrap());
        assert_eq!(builds(&kb), 3);
        // any mutation starts the view again
        kb.stage_document("doc", "a\n1\n");
        kb.query_satisfied("relation(_, _, _)").unwrap();
        assert_eq!(builds(&kb), 4);
    }

    #[test]
    fn query_cache_invalidated_by_mutation() {
        let mut kb = kb_with_scenario();
        assert!(!kb.query_satisfied("cfd_available(_)").unwrap());
        kb.add_cfd(CfdRule {
            id: "c0".into(),
            relation: "address".into(),
            lhs: vec![("postcode".into(), None)],
            rhs: ("city".into(), None),
            support: 5,
        });
        assert!(kb.query_satisfied("cfd_available(\"address\")").unwrap());
    }

    /// Every journal event after `mark`, checked to name `relation` (an
    /// edit journals nothing else) and to be what `since` answers for it.
    fn journalled_since(kb: &KnowledgeBase, mark: &JournalMark, relation: &str) -> Vec<DeltaEvent> {
        let all: Vec<&DeltaEvent> = kb.journal().scan_since(mark.version).unwrap().collect();
        assert!(all.iter().all(|e| e.change.relation() == Some(relation)), "not all {relation}");
        let rows = all.iter().all(|e| e.change.is_row_level());
        let want = if rows { Since::Rows(all.clone()) } else { Since::Rebuild };
        assert_eq!(kb.since(mark, &[relation]), want);
        all.into_iter().cloned().collect()
    }

    #[test]
    fn journal_classifies_appends_and_replacements() {
        let mut kb = kb_with_scenario();
        let seen = kb.mark();

        // growing re-registration → monotone append with the suffix
        let mut grown = kb.relation("rightmove").unwrap().clone();
        grown.push(tuple!["410000", "3 kings ave", "EH1 1AA"]).unwrap();
        kb.register_source(grown.clone());
        let events = journalled_since(&kb, &seen, "rightmove");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, kb.version());
        assert_eq!(events[0].aspect, "relations");
        match &events[0].change {
            DeltaChange::RowsAppended { relation, rows } => {
                assert_eq!(relation, "rightmove");
                assert_eq!(rows, &[tuple!["410000", "3 kings ave", "EH1 1AA"]]);
            }
            other => panic!("expected append, got {other:?}"),
        }

        // rewriting an existing row → replacement
        let mut rewritten = grown;
        rewritten.replace(0, tuple!["1", "x", "y"]).unwrap();
        let seen = kb.mark();
        kb.register_source(rewritten);
        let events = journalled_since(&kb, &seen, "rightmove");
        assert!(matches!(
            events[0].change,
            DeltaChange::RelationReplaced { ref relation } if relation == "rightmove"
        ));

        // metadata mutations are journalled as aspect changes
        let seen = kb.mark();
        kb.clear_mappings();
        // (no relation: only the journal itself lists it)
        let events: Vec<_> = kb.journal().scan_since(seen.version).unwrap().collect();
        assert_eq!(events[0].aspect, "mappings");
        assert_eq!(events[0].change, DeltaChange::AspectChanged);
        assert_eq!(kb.since(&seen, &["rightmove"]), Since::Unchanged);
    }

    #[test]
    fn remove_rows_journals_a_row_level_retraction() {
        let mut kb = kb_with_scenario();
        let mut grown = kb.relation("rightmove").unwrap().clone();
        grown.push(tuple!["410000", "3 kings ave", "EH1 1AA"]).unwrap();
        kb.register_source(grown);
        let seen = kb.mark();

        let removed = kb.remove_rows("rightmove", &[0]).unwrap();
        assert_eq!(removed, vec![tuple!["250000", "12 High St", "M13 9PL"]]);
        assert_eq!(kb.relation("rightmove").unwrap().len(), 1);
        let events = journalled_since(&kb, &seen, "rightmove");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].aspect, "relations");
        match &events[0].change {
            DeltaChange::RowsRemoved { relation, rows, positions } => {
                assert_eq!(relation, "rightmove");
                assert_eq!(rows, &removed);
                assert_eq!(positions, &[0]);
            }
            other => panic!("expected RowsRemoved, got {other:?}"),
        }
        // empty removal is a no-op: no version bump, no event
        let v = kb.version();
        assert!(kb.remove_rows("rightmove", &[]).unwrap().is_empty());
        assert_eq!(kb.version(), v);
        assert!(kb.remove_rows("nope", &[0]).is_err());
        assert!(kb.remove_rows("rightmove", &[99]).is_err());
    }

    #[test]
    fn insert_rows_journals_a_row_level_insert() {
        let mut kb = kb_with_scenario();
        let before = kb.relation("rightmove").unwrap().tuples().to_vec();
        let seen = kb.mark();
        let new = [tuple!["1", "1 new st", "G1 1AA"], tuple!["2", "2 new st", "G1 1AA"]];
        kb.insert_rows("rightmove", &[(0, new[0].clone()), (2, new[1].clone())]).unwrap();
        let after = kb.relation("rightmove").unwrap().tuples().to_vec();
        assert_eq!(after, vec![new[0].clone(), before[0].clone(), new[1].clone()]);
        let events = journalled_since(&kb, &seen, "rightmove");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].aspect, "relations");
        assert!(events[0].change.is_row_level());
        match &events[0].change {
            DeltaChange::RowsInserted { relation, rows, positions } => {
                assert_eq!(relation, "rightmove");
                assert_eq!(rows, &new);
                assert_eq!(positions, &[0, 2]);
            }
            other => panic!("expected RowsInserted, got {other:?}"),
        }
        // an empty insert is a no-op; a refused one changes nothing
        let v = kb.version();
        kb.insert_rows("rightmove", &[]).unwrap();
        assert!(kb.insert_rows("nope", &[(0, new[0].clone())]).is_err());
        assert!(kb.insert_rows("rightmove", &[(9, new[0].clone())]).is_err());
        assert!(kb.insert_rows("rightmove", &[(1, new[0].clone()), (1, new[1].clone())]).is_err());
        assert!(kb.insert_rows("rightmove", &[(0, tuple!["1"])]).is_err());
        assert_eq!(kb.version(), v);
        assert_eq!(kb.relation("rightmove").unwrap().tuples(), after.as_slice());
    }

    #[test]
    fn update_source_journals_old_and_new_rows_with_tail_flag() {
        let mut kb = kb_with_scenario();
        let mut grown = kb.relation("rightmove").unwrap().clone();
        grown.push(tuple!["410000", "3 kings ave", "EH1 1AA"]).unwrap();
        kb.register_source(grown);

        // tail rewrite: the last row changes in place
        let seen = kb.mark();
        kb.update_source("rightmove", &[(1, tuple!["420000", "3 kings ave", "EH1 1AA"])])
            .unwrap();
        let events = journalled_since(&kb, &seen, "rightmove");
        match &events[0].change {
            DeltaChange::RowsReplaced { relation, removed, added, positions, tail } => {
                assert_eq!(relation, "rightmove");
                assert_eq!(removed, &[tuple!["410000", "3 kings ave", "EH1 1AA"]]);
                assert_eq!(added, &[tuple!["420000", "3 kings ave", "EH1 1AA"]]);
                assert_eq!(positions, &[1]);
                assert!(*tail);
            }
            other => panic!("expected RowsReplaced, got {other:?}"),
        }

        // mid-relation rewrite: recorded, but not a tail
        let seen = kb.mark();
        kb.update_source("rightmove", &[(0, tuple!["1", "x", "M1 1AA"])]).unwrap();
        let events = journalled_since(&kb, &seen, "rightmove");
        assert!(matches!(
            &events[0].change,
            DeltaChange::RowsReplaced { tail: false, .. }
        ));
        assert_eq!(kb.relation("rightmove").unwrap().tuples()[0], tuple!["1", "x", "M1 1AA"]);

        // failures are atomic: nothing applied, nothing journalled
        let v = kb.version();
        assert!(kb
            .update_source("rightmove", &[(0, tuple!["a", "b", "c"]), (9, tuple!["d", "e", "f"])])
            .is_err());
        assert!(kb.update_source("rightmove", &[(0, tuple!["too", "short"])]).is_err());
        assert!(kb
            .update_source("rightmove", &[(0, tuple!["a", "b", "c"]), (0, tuple!["d", "e", "f"])])
            .is_err());
        assert_eq!(kb.version(), v);
        assert_eq!(kb.relation("rightmove").unwrap().tuples()[0], tuple!["1", "x", "M1 1AA"]);
    }

    #[test]
    fn journal_window_forces_full_fallback_when_stale() {
        let mut kb = KnowledgeBase::new();
        kb.register_target_schema(Schema::all_str("t", &["a"]));
        let stale = kb.mark();
        for i in 0..(crate::delta::DEFAULT_JOURNAL_CAPACITY + 4) {
            kb.stage_document(format!("d{i}"), "a\n1\n");
        }
        assert_eq!(kb.since(&stale, &["t"]), Since::Rebuild, "the window must have pruned");
        assert_eq!(kb.since(&kb.mark(), &["t"]), Since::Unchanged);
    }

    #[test]
    fn since_names_row_events_and_refuses_foreign_pruned_or_future_marks() {
        let mut kb = KnowledgeBase::with_journal_capacity(4);
        for name in ["a", "b"] {
            let mut rel = Relation::empty(Schema::all_str(name, &["x"]));
            rel.push(tuple!["1"]).unwrap();
            kb.register_source(rel);
        }
        let mark = kb.mark();
        assert_eq!(kb.since(&mark, &["a", "b"]), Since::Unchanged);
        // metadata-only edits and edits to unwatched relations leave `a` unchanged
        kb.set_user_context(Vec::new());
        kb.update_source("b", &[(0, tuple!["2"])]).unwrap();
        kb.register_source(Relation::empty(Schema::all_str("c", &["x"])));
        assert_eq!(kb.since(&mark, &["a"]), Since::Unchanged);
        // a relation-level event on a watched relation
        assert_eq!(kb.since(&mark, &["a", "c"]), Since::Rebuild);
        // the row events naming a watched relation, oldest first
        kb.update_source("a", &[(0, tuple!["2"])]).unwrap();
        let Since::Rows(events) = kb.since(&mark, &["zz", "a", "b"]) else { panic!("rows") };
        let named: Vec<_> = events.iter().map(|e| e.change.relation().unwrap()).collect();
        assert_eq!(named, ["b", "a"]);
        assert_eq!(kb.since(&kb.mark(), &["a"]), Since::Unchanged);

        // a mark ahead of the journal vouches for nothing
        let ahead = JournalMark { version: kb.version() + 1, ..kb.mark() };
        assert_eq!(kb.since(&ahead, &["a"]), Since::Rebuild);
        // a clone is another history, even where its versions coincide
        assert_eq!(kb.clone().since(&kb.mark(), &["a"]), Since::Rebuild);
        // the window of four events prunes past `mark`
        kb.set_user_context(Vec::new());
        assert_eq!(kb.since(&mark, &["zz"]), Since::Rebuild);
    }

    #[test]
    fn user_context_facts() {
        let mut kb = kb_with_scenario();
        kb.set_user_context(vec![PairwiseStatement {
            more_important: "completeness(crimerank)".into(),
            less_important: "accuracy(type)".into(),
            strength: "very strongly".into(),
        }]);
        assert!(kb
            .query_satisfied("user_context(_, _, \"very strongly\")")
            .unwrap());
    }

    /// A relation too large for one WAL frame is not acknowledged as
    /// durable: the log detaches with a sticky storage error instead of
    /// writing a frame the next open would discard with everything behind it.
    #[test]
    fn oversized_registration_detaches_with_a_sticky_error() {
        let dir = std::env::temp_dir().join(format!("vada-kb-oversized-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut kb = kb_with_scenario();
        kb.persist_to(&dir).unwrap();
        kb.stage_document("before", "a\n1\n");
        let durable_version = kb.version();

        // the unit-test frame cap is 64 KiB (see storage::wal)
        let mut big = Relation::empty(Schema::all_str("big", &["a"]));
        big.push(tuple!["x".repeat(70_000)]).unwrap();
        kb.register_source(big);
        assert_eq!(kb.storage_health().unwrap_err().kind(), "storage");
        assert_eq!(kb.durable_dir(), None);
        assert!(kb.relation("big").is_ok(), "in-memory operation continues");

        let reopened = KnowledgeBase::open(&dir).unwrap();
        assert_eq!(reopened.version(), durable_version, "every earlier record survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
