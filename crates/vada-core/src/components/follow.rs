//! Following a relation's row edits: a transducer that keeps state aligned
//! with the rows of a relation replays the journal's row events into it
//! instead of reading the relation afresh.

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
            _ => unreachable!("`since` answers Rows only with row-level events"),
        }
    }
    true
}

/// Which rows changed since a mark: `true` for a row appended or rewritten.
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
        let mut gone = positions.iter().copied().peekable();
        let mut row = 0;
        self.0.retain(|_| {
            let keep = gone.next_if_eq(&row).is_none();
            row += 1;
            keep
        });
    }

    fn replace(&mut self, positions: &[usize]) {
        for &row in positions {
            self.0[row] = true;
        }
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
}
