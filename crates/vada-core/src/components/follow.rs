//! Following a relation's row edits: a transducer that keeps state aligned
//! with the rows of a relation replays the journal's row events — appends,
//! removals, rewrites and inserts — into it instead of reading the relation
//! afresh. Three kinds of state follow the result: the rows repair must
//! chase ([`DirtyRows`]), detection's blocks ([`BlockClusters`]), and which
//! output row each stored row holds, for mapping execution's diff
//! ([`Origins`]).

use vada_common::relation::insert_at;
use vada_fusion::BlockClusters;
use vada_kb::{DeltaChange, JournalMark, KnowledgeBase, Since};

/// State kept position by position beside the rows of one relation.
pub(crate) trait RowAligned {
    /// `n` rows were appended.
    fn append(&mut self, n: usize);
    /// The rows at `positions` (pre-removal, ascending) were removed.
    fn remove(&mut self, positions: &[usize]);
    /// The rows at `positions` were rewritten in place.
    fn replace(&mut self, positions: &[usize]);
    /// Rows were inserted at `positions` (post-insert, ascending).
    fn insert(&mut self, positions: &[usize]);
}

/// Replay `relation`'s row events since `mark` into `state`. `false` when
/// the journal cannot vouch for them (see [`Since::Rebuild`]): the state is
/// then stale, and the caller starts afresh.
pub(crate) fn follow(
    kb: &KnowledgeBase,
    mark: &JournalMark,
    relation: &str,
    state: &mut impl RowAligned,
) -> bool {
    let events = match kb.since(mark, &[relation]) {
        Since::Unchanged => return true,
        Since::Rows(events) => events,
        Since::Rebuild => return false,
    };
    for event in events {
        match &event.change {
            DeltaChange::RowsAppended { rows, .. } => state.append(rows.len()),
            DeltaChange::RowsRemoved { positions, .. } => state.remove(positions),
            DeltaChange::RowsReplaced { positions, .. } => state.replace(positions),
            DeltaChange::RowsInserted { positions, .. } => state.insert(positions),
            _ => unreachable!("`since` answers Rows only with row-level events"),
        }
    }
    true
}

/// Drop the items at `positions` (ascending) from `items`, keeping the
/// order of the rest.
fn remove_at<T>(items: &mut Vec<T>, positions: &[usize]) {
    let mut gone = positions.iter().copied().peekable();
    let mut row = 0;
    items.retain(|_| {
        let keep = gone.next_if_eq(&row).is_none();
        row += 1;
        keep
    });
}

/// Which rows changed since a mark: `true` for a row appended, rewritten or
/// inserted.
#[derive(Debug)]
pub(crate) struct DirtyRows(Vec<bool>);

impl DirtyRows {
    /// `n` rows, none changed.
    pub(crate) fn clean(n: usize) -> DirtyRows {
        DirtyRows(vec![false; n])
    }

    /// The changed rows, ascending.
    pub(crate) fn positions(&self) -> Vec<usize> {
        self.0.iter().enumerate().filter(|(_, dirty)| **dirty).map(|(row, _)| row).collect()
    }
}

impl RowAligned for DirtyRows {
    fn append(&mut self, n: usize) {
        self.0.resize(self.0.len() + n, true);
    }

    fn remove(&mut self, positions: &[usize]) {
        remove_at(&mut self.0, positions);
    }

    fn replace(&mut self, positions: &[usize]) {
        for &row in positions {
            self.0[row] = true;
        }
    }

    fn insert(&mut self, positions: &[usize]) {
        insert_at(&mut self.0, positions, |_| true);
    }
}

impl RowAligned for BlockClusters {
    fn append(&mut self, n: usize) {
        BlockClusters::append(self, n);
    }

    fn remove(&mut self, positions: &[usize]) {
        BlockClusters::remove(self, positions);
    }

    fn replace(&mut self, positions: &[usize]) {
        BlockClusters::replace(self, positions);
    }

    fn insert(&mut self, positions: &[usize]) {
        BlockClusters::insert(self, positions);
    }
}

/// Which row of its own output each row of the result holds, for mapping
/// execution: the result's row `s` holds output row `self.0[s]`, or
/// [`Origins::FOREIGN`] when something other than execution put it there.
/// Repair, fusion and feedback rewrite rows in place and remove them, so a
/// row keeps its origin until it is removed.
#[derive(Debug)]
pub(crate) struct Origins(pub(crate) Vec<u32>);

impl Origins {
    /// The origin of a row execution did not write.
    pub(crate) const FOREIGN: u32 = u32::MAX;
}

impl RowAligned for Origins {
    fn append(&mut self, n: usize) {
        self.0.resize(self.0.len() + n, Origins::FOREIGN);
    }

    fn remove(&mut self, positions: &[usize]) {
        remove_at(&mut self.0, positions);
    }

    fn replace(&mut self, _: &[usize]) {}

    fn insert(&mut self, positions: &[usize]) {
        insert_at(&mut self.0, positions, |_| Origins::FOREIGN);
    }
}
