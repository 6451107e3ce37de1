//! The knowledge-base **change journal**: every mutation of the
//! [`KnowledgeBase`](crate::KnowledgeBase) is recorded as a
//! [`DeltaEvent`] with a monotone sequence number equal to the KB version
//! the mutation produced. A consumer keeps a [`JournalMark`] beside what
//! it built from the base and asks
//! [`KnowledgeBase::since`](crate::KnowledgeBase::since) how the relations
//! it watches changed since then, paying O(change) instead of re-reading
//! the whole base. The answer is a [`Since`]: unchanged, the row-level
//! events to replay, or rebuild.
//!
//! Events distinguish **row-level** changes (rows appended, removed,
//! rewritten in place or inserted — the shapes an incremental consumer can
//! replay) from **relation-level** ones (a relation added, replaced or
//! removed), which send consumers back to a full read. Metadata edits name no
//! relation.
//!
//! ```
//! use vada_common::{tuple, Relation, Schema};
//! use vada_kb::{DeltaChange, KnowledgeBase, Since};
//!
//! let mut kb = KnowledgeBase::new();
//! let mut src = Relation::empty(Schema::all_str("listings", &["price"]));
//! src.push(tuple!["100"]).unwrap();
//! kb.register_source(src.clone());
//! let seen = kb.mark();
//! kb.stage_document("doc", "a\n1\n");
//! assert_eq!(kb.since(&seen, &["listings"]), Since::Unchanged);
//!
//! // appending rows and re-registering is recorded as a row-level event
//! src.push(tuple!["200"]).unwrap();
//! kb.register_source(src);
//! let Since::Rows(events) = kb.since(&seen, &["listings"]) else { panic!("rows") };
//! match &events[0].change {
//!     DeltaChange::RowsAppended { relation, rows } => {
//!         assert_eq!(relation, "listings");
//!         assert_eq!(rows.len(), 1);
//!     }
//!     other => panic!("expected an append, got {other:?}"),
//! }
//!
//! // replacing the relation is relation-level: read it afresh
//! kb.register_source(Relation::empty(Schema::all_str("listings", &["price"])));
//! assert_eq!(kb.since(&seen, &["listings"]), Since::Rebuild);
//! ```
//!
//! The journal keeps a bounded window of recent events. A mark the window
//! has pruned past, one from another lineage, or one ahead of everything
//! the journal recorded answers [`Since::Rebuild`] as well, so staleness
//! can never produce wrong results.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use vada_common::Tuple;

/// What one knowledge-base mutation did, at the granularity the
/// incremental evaluation path consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaChange {
    /// Rows were appended to an existing relation (schema unchanged, old
    /// rows a prefix of the new ones). Monotone: consumers may feed
    /// `rows` straight through a semi-naive delta pass.
    RowsAppended {
        /// Relation name.
        relation: String,
        /// The appended suffix, in insertion order.
        rows: Vec<Tuple>,
    },
    /// A brand-new relation was registered. Recorded without its rows —
    /// a consumer that cares about a relation it has never seen must read
    /// it from the catalog anyway, and copying whole relations into the
    /// journal would double ingestion memory.
    RelationAdded {
        /// Relation name.
        relation: String,
    },
    /// Rows were removed from an existing relation
    /// ([`KnowledgeBase::remove_rows`](crate::KnowledgeBase::remove_rows)):
    /// the remaining rows keep their relative order. Not monotone, but
    /// *row-level*: a retraction-capable consumer can feed `rows` through
    /// its deletion path instead of re-reading the relation, and WAL
    /// replay removes exactly the rows at `positions` — tuples alone
    /// cannot distinguish which of several equal rows went.
    RowsRemoved {
        /// Relation name.
        relation: String,
        /// The removed tuples, in ascending (pre-removal) row order.
        rows: Vec<Tuple>,
        /// The pre-removal indices of `rows` (same order, ascending).
        positions: Vec<usize>,
    },
    /// Rows were rewritten in place
    /// ([`KnowledgeBase::update_source`](crate::KnowledgeBase::update_source)).
    /// Row-level like [`DeltaChange::RowsRemoved`]; `tail` is `true` when
    /// every rewritten row sat in the final positions of the relation, in
    /// which case retract-old + append-new reproduces the new scan order
    /// exactly (a mid-relation rewrite changes the scan order, which an
    /// append can never reproduce).
    RowsReplaced {
        /// Relation name.
        relation: String,
        /// The previous contents of the rewritten rows, ascending row order.
        removed: Vec<Tuple>,
        /// The new contents of the rewritten rows, ascending row order.
        added: Vec<Tuple>,
        /// The indices of the rewritten rows (same order, ascending; the
        /// rewrite is in place, so pre- and post-edit indices coincide).
        positions: Vec<usize>,
        /// Whether the rewritten rows were the trailing rows.
        tail: bool,
    },
    /// Rows were inserted into an existing relation
    /// ([`KnowledgeBase::insert_rows`](crate::KnowledgeBase::insert_rows)):
    /// the rows already there keep their relative order, and `rows[i]`
    /// lands at `positions[i]`, an index into the relation *after* the
    /// insert. Row-level: a consumer that keeps state row by row makes room
    /// at `positions`, and WAL replay inserts exactly there — an append is
    /// the case where every position is past the old rows. Mapping
    /// execution writes the result's restored blocks this way.
    RowsInserted {
        /// Relation name.
        relation: String,
        /// The inserted tuples, in ascending (post-insert) row order.
        rows: Vec<Tuple>,
        /// The post-insert indices of `rows` (same order, strictly
        /// ascending).
        positions: Vec<usize>,
    },
    /// A relation was replaced with content that is not an extension of
    /// what was there (rows retracted or rewritten, or the schema
    /// changed). Non-monotone.
    RelationReplaced {
        /// Relation name.
        relation: String,
    },
    /// A relation was removed from the catalog. Non-monotone.
    RelationRemoved {
        /// Relation name.
        relation: String,
    },
    /// A metadata aspect changed (matches, mappings, CFDs, feedback,
    /// quality, contexts, selection, staged documents…). Names no relation;
    /// the event's [`DeltaEvent::aspect`] says which aspect moved.
    AspectChanged,
}

impl DeltaChange {
    /// Whether the change names the exact rows it touched (appends,
    /// removals, in-place rewrites, inserts) — the granularity the
    /// retraction-capable incremental path consumes. Relation-level events (`RelationAdded`,
    /// `RelationReplaced`, `RelationRemoved`) are not row-level.
    pub fn is_row_level(&self) -> bool {
        matches!(
            self,
            DeltaChange::RowsAppended { .. }
                | DeltaChange::RowsRemoved { .. }
                | DeltaChange::RowsReplaced { .. }
                | DeltaChange::RowsInserted { .. }
        )
    }

    /// The relation this change touches, if it is relation-level.
    pub fn relation(&self) -> Option<&str> {
        match self {
            DeltaChange::RowsAppended { relation, .. }
            | DeltaChange::RowsRemoved { relation, .. }
            | DeltaChange::RowsReplaced { relation, .. }
            | DeltaChange::RowsInserted { relation, .. }
            | DeltaChange::RelationAdded { relation }
            | DeltaChange::RelationReplaced { relation }
            | DeltaChange::RelationRemoved { relation } => Some(relation),
            DeltaChange::AspectChanged => None,
        }
    }
}

/// One journalled mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEvent {
    /// The knowledge-base version this mutation produced. Strictly
    /// monotone across the journal.
    pub seq: u64,
    /// The aspect the mutation bumped (see
    /// [`KnowledgeBase::aspect_version`](crate::KnowledgeBase::aspect_version)).
    pub aspect: &'static str,
    /// What changed.
    pub change: DeltaChange,
}

/// A consumer's position in a knowledge base's journal: the history
/// ([`DeltaJournal::lineage`]) and the KB version it had consumed through.
/// Taken with [`KnowledgeBase::mark`](crate::KnowledgeBase::mark) when a
/// consumer builds something from the base, and handed back to
/// [`KnowledgeBase::since`](crate::KnowledgeBase::since) to ask how the
/// relations it was built from changed since. A mark from another lineage
/// (a clone, or the original of one), one the bounded window has pruned
/// past, or one ahead of the journal vouches for nothing: it answers
/// [`Since::Rebuild`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMark {
    /// Journal lineage the version was taken against.
    pub(crate) lineage: u64,
    /// KB version consumed through.
    pub(crate) version: u64,
}

/// How the relations a consumer watches changed since its
/// [`JournalMark`]: the answer of
/// [`KnowledgeBase::since`](crate::KnowledgeBase::since).
#[derive(Debug, Clone, PartialEq)]
pub enum Since<'a> {
    /// No event after the mark names a watched relation.
    Unchanged,
    /// The events after the mark that name a watched relation, oldest
    /// first, every one row-level ([`DeltaChange::is_row_level`]).
    Rows(Vec<&'a DeltaEvent>),
    /// The journal cannot vouch for the watched relations — the mark is
    /// from another lineage, pruned past or ahead of the journal, or an
    /// event after it added, replaced or removed one of them: read afresh.
    Rebuild,
}

/// Default cap on retained events. Generous enough for many orchestration
/// steps between two runs of the same consumer, small enough that the
/// journal never dominates KB memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Process-unique lineage ids (see [`DeltaJournal::lineage`]).
static NEXT_LINEAGE: AtomicU64 = AtomicU64::new(1);

/// A bounded, monotone-sequence journal of [`DeltaEvent`]s.
#[derive(Debug)]
pub struct DeltaJournal {
    events: VecDeque<DeltaEvent>,
    /// Highest sequence number that has been pruned out of the window
    /// (0 when nothing was pruned).
    pruned_through: u64,
    /// Highest sequence number ever recorded (0 when none).
    last_seq: u64,
    /// Process-unique lineage id; see [`DeltaJournal::lineage`].
    lineage: u64,
    capacity: usize,
}

impl Default for DeltaJournal {
    fn default() -> Self {
        DeltaJournal {
            events: VecDeque::new(),
            pruned_through: 0,
            last_seq: 0,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            capacity: DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

/// Cloning a journal starts a **new lineage**: the clone's history can
/// diverge from the original's under the same sequence numbers, so a
/// watermark taken against one must never be replayed against the other.
/// A [`JournalMark`] carries the lineage beside the version for exactly
/// this reason, and a mark from another lineage vouches for nothing.
impl Clone for DeltaJournal {
    fn clone(&self) -> Self {
        DeltaJournal {
            events: self.events.clone(),
            pruned_through: self.pruned_through,
            last_seq: self.last_seq,
            lineage: NEXT_LINEAGE.fetch_add(1, Ordering::Relaxed),
            capacity: self.capacity,
        }
    }
}

impl DeltaJournal {
    /// An empty journal with a custom retention window.
    pub fn with_capacity(capacity: usize) -> DeltaJournal {
        DeltaJournal { capacity: capacity.max(1), ..DeltaJournal::default() }
    }

    /// Rebuild a journal from persisted state — the storage recovery path.
    ///
    /// Unlike [`Clone`], this restores the **persisted lineage**: the point
    /// of recovery is that watermarks consumers took before the crash keep
    /// resolving against the reopened base. The process-wide lineage
    /// counter is advanced past it so journals created later in this
    /// process can never collide with the restored identity. (The converse
    /// hazard — reopening a directory while the original instance still
    /// appends to the same lineage — is excluded by the storage layer's
    /// single-writer contract.)
    pub(crate) fn restore(
        lineage: u64,
        pruned_through: u64,
        last_seq: u64,
        capacity: usize,
        events: Vec<DeltaEvent>,
    ) -> DeltaJournal {
        NEXT_LINEAGE.fetch_max(lineage + 1, Ordering::Relaxed);
        DeltaJournal {
            events: events.into(),
            pruned_through,
            last_seq,
            lineage,
            capacity: capacity.max(1),
        }
    }

    /// The retention capacity of the bounded window.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record a mutation. `seq` must be strictly greater than any
    /// previously recorded sequence (the KB version counter guarantees
    /// this).
    pub fn record(&mut self, seq: u64, aspect: &'static str, change: DeltaChange) {
        debug_assert!(
            self.events.back().is_none_or(|e| e.seq < seq),
            "journal sequence numbers must be strictly monotone"
        );
        self.events.push_back(DeltaEvent { seq, aspect, change });
        self.last_seq = seq;
        while self.events.len() > self.capacity {
            let dropped = self.events.pop_front().expect("len > capacity >= 1");
            self.pruned_through = dropped.seq;
        }
    }

    /// The events with `seq > version`, oldest first, borrowed — or `None`
    /// when the journal cannot prove that slice is complete, in which case
    /// the consumer must fall back to a full read. Two ways to lose the
    /// proof:
    ///
    /// - the bounded window has pruned past `version` (some event with
    ///   `seq > version` was dropped — retraction events are as prunable as
    ///   any other, and a consumer that misses one would silently keep
    ///   deleted rows alive);
    /// - `version` lies *ahead* of everything this journal ever recorded
    ///   (a watermark taken from a different lineage, e.g. a knowledge base
    ///   that advanced and was then rolled back to an earlier clone): the
    ///   empty slice would falsely claim "nothing changed".
    pub fn scan_since(&self, version: u64) -> Option<impl Iterator<Item = &DeltaEvent>> {
        if version < self.pruned_through || version > self.last_seq {
            return None;
        }
        // sequence numbers are strictly monotone along the window
        let start = self.events.partition_point(|e| e.seq <= version);
        Some(self.events.range(start..))
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Highest pruned sequence number (0 when nothing was pruned yet).
    pub fn pruned_through(&self) -> u64 {
        self.pruned_through
    }

    /// Highest sequence number ever recorded (0 when none).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Process-unique identity of this journal's history. Sequence numbers
    /// alone cannot distinguish two histories that diverged from a common
    /// clone point — the watermark guard in [`scan_since`](Self::scan_since)
    /// only catches a rolled-back journal until it re-advances past the
    /// watermark. Cloning a [`KnowledgeBase`](crate::KnowledgeBase) (and
    /// hence its journal) therefore assigns the clone a fresh lineage;
    /// consumers cache this beside their watermark and treat a mismatch
    /// like a pruned window (full read).
    pub fn lineage(&self) -> u64 {
        self.lineage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn append(rel: &str, n: usize) -> DeltaChange {
        DeltaChange::RowsAppended {
            relation: rel.into(),
            rows: (0..n).map(|i| tuple![i as i64]).collect(),
        }
    }

    /// The sequence numbers [`DeltaJournal::scan_since`] serves after `version`.
    fn seqs(j: &DeltaJournal, version: u64) -> Option<Vec<u64>> {
        Some(j.scan_since(version)?.map(|e| e.seq).collect())
    }

    #[test]
    fn scan_since_filters_by_seq() {
        let mut j = DeltaJournal::default();
        j.record(1, "relations", append("a", 1));
        j.record(2, "matches", DeltaChange::AspectChanged);
        j.record(5, "relations", append("a", 2));
        assert_eq!(seqs(&j, 2), Some(vec![5]));
        assert_eq!(seqs(&j, 1), Some(vec![2, 5]));
        assert_eq!(seqs(&j, 0).unwrap().len(), 3);
        assert_eq!(seqs(&j, 5), Some(vec![]));
        assert!(j.scan_since(6).is_none());
    }

    #[test]
    fn window_overflow_returns_none() {
        let mut j = DeltaJournal::with_capacity(2);
        j.record(1, "relations", append("a", 1));
        j.record(2, "relations", append("a", 1));
        j.record(3, "relations", append("a", 1));
        // seq 1 was pruned: a consumer at version 0 cannot be served
        assert_eq!(j.pruned_through(), 1);
        assert!(j.scan_since(0).is_none());
        // a consumer at version 1 (or later) still can
        assert_eq!(seqs(&j, 1), Some(vec![2, 3]));
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn monotonicity_classification() {
        // the row-level shapes: appends, removals, in-place rewrites
        let removed = DeltaChange::RowsRemoved {
            relation: "r".into(),
            rows: vec![tuple![1]],
            positions: vec![0],
        };
        let replaced = DeltaChange::RowsReplaced {
            relation: "r".into(),
            removed: vec![tuple![1]],
            added: vec![tuple![2]],
            positions: vec![0],
            tail: true,
        };
        for change in [append("r", 1), removed, replaced] {
            assert!(change.is_row_level(), "{change:?}");
            assert_eq!(change.relation(), Some("r"));
        }
        // relation-level shapes name their relation but no rows
        for change in [
            DeltaChange::RelationAdded { relation: "r".into() },
            DeltaChange::RelationReplaced { relation: "r".into() },
            DeltaChange::RelationRemoved { relation: "r".into() },
        ] {
            assert!(!change.is_row_level(), "{change:?}");
            assert_eq!(change.relation(), Some("r"));
        }
        // metadata names no relation
        assert!(!DeltaChange::AspectChanged.is_row_level());
        assert_eq!(DeltaChange::AspectChanged.relation(), None);
    }

    #[test]
    fn pruned_retraction_event_returns_none_not_a_partial_slice() {
        // regression: a consumer whose watermark predates a *pruned*
        // retraction event must get None — a partial slice would silently
        // keep the retracted rows alive in its materialization
        let mut j = DeltaJournal::with_capacity(2);
        j.record(
            1,
            "relations",
            DeltaChange::RowsRemoved {
                relation: "a".into(),
                rows: vec![tuple![7]],
                positions: vec![0],
            },
        );
        j.record(2, "relations", append("a", 1));
        j.record(3, "relations", append("a", 1));
        // the retraction at seq 1 has been pruned: a consumer at version 0
        // would miss it entirely
        assert_eq!(j.pruned_through(), 1);
        assert!(j.scan_since(0).is_none());
        // a consumer that already saw seq 1 is still served the appends
        let tail: Vec<&DeltaEvent> = j.scan_since(1).unwrap().collect();
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|e| matches!(e.change, DeltaChange::RowsAppended { .. })));
    }

    #[test]
    fn window_arithmetic_at_the_exact_default_capacity_boundary() {
        // Audit pin for the 4096-event window (issue: suspected
        // `scan_since`/`pruned_through` off-by-one at the boundary).
        // The audited invariants, pinned at window, window-1, window+1:
        //  - pruning starts with event `capacity + 1`, not `capacity`;
        //  - after pruning, `pruned_through` equals the dropped seq, and a
        //    consumer *at* that watermark is still served (it already saw
        //    the dropped event), while one strictly below it is not;
        //  - the retained window is exactly `capacity` events.
        let cap = DEFAULT_JOURNAL_CAPACITY as u64;
        let mut j = DeltaJournal::default();
        for s in 1..cap {
            j.record(s, "staged", DeltaChange::AspectChanged);
        }
        // window - 1 events: nothing pruned, watermark 0 fully served
        assert_eq!(j.pruned_through(), 0);
        assert_eq!(seqs(&j, 0).unwrap().len(), (cap - 1) as usize);

        // exactly `window` events: still nothing pruned
        j.record(cap, "staged", DeltaChange::AspectChanged);
        assert_eq!(j.pruned_through(), 0);
        assert_eq!(j.len(), cap as usize);
        assert_eq!(seqs(&j, 0).unwrap().len(), cap as usize);

        // window + 1: seq 1 is dropped; watermark 0 loses service, the
        // watermark equal to pruned_through keeps it
        j.record(cap + 1, "staged", DeltaChange::AspectChanged);
        assert_eq!(j.pruned_through(), 1);
        assert_eq!(j.len(), cap as usize);
        assert!(j.scan_since(0).is_none());
        assert_eq!(seqs(&j, 1).unwrap().len(), cap as usize);
        assert_eq!(seqs(&j, 2).unwrap().len(), (cap - 1) as usize);
    }

    #[test]
    fn restore_rebuilds_watermarks_and_advances_the_lineage_counter() {
        let mut j = DeltaJournal::with_capacity(2);
        for s in 1..=3 {
            j.record(s, "relations", append("a", 1));
        }
        let events: Vec<DeltaEvent> = j.scan_since(j.pruned_through()).unwrap().cloned().collect();
        let restored = DeltaJournal::restore(
            j.lineage(),
            j.pruned_through(),
            j.last_seq(),
            2,
            events,
        );
        assert_eq!(restored.lineage(), j.lineage());
        assert_eq!(restored.pruned_through(), j.pruned_through());
        assert_eq!(restored.last_seq(), j.last_seq());
        assert_eq!(restored.capacity(), 2);
        for v in 0..=4 {
            let (got, want) = (restored.scan_since(v), j.scan_since(v));
            assert_eq!(got.map(Vec::from_iter), want.map(Vec::from_iter), "watermark {v}");
        }
        // new journals never reuse the restored identity
        assert!(DeltaJournal::default().lineage() > restored.lineage());
    }

    #[test]
    fn future_watermark_returns_none_not_an_empty_slice() {
        // regression: a watermark ahead of everything this journal recorded
        // (e.g. taken before a knowledge base was rolled back to an earlier
        // clone) must not be answered with Some(empty) — that would claim
        // "nothing changed" about a base the consumer has never seen
        let mut j = DeltaJournal::default();
        j.record(1, "relations", append("a", 1));
        j.record(2, "relations", append("a", 1));
        assert_eq!(j.last_seq(), 2);
        assert_eq!(seqs(&j, 2), Some(vec![]));
        assert!(j.scan_since(3).is_none());
        assert!(DeltaJournal::default().scan_since(1).is_none());
    }
}
