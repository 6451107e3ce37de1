//! Key-based blocking: restrict pairwise comparison to rows sharing a
//! blocking key.
//!
//! One grouping serves every caller (`Blocks`): the normal form of each
//! row's key is appended to one `String` arena, block ids are assigned
//! through a map keyed by arena slices, and the rows are laid out block by
//! block in one array by a counting sort. A block therefore costs a map
//! slot and an offset — no key string and no row vector of its own, which
//! matters because a wrangled result is almost all singleton blocks.

use std::collections::HashMap;
use std::ops::Range;

use vada_common::error::guard_stage;
use vada_common::text::blocking_key;
use vada_common::{Relation, Result};

/// Rows grouped by blocking key. Block `b` holds the rows
/// `rows[starts[b]..starts[b + 1]]`, ascending; blocks are numbered in
/// order of their first row. A row whose key attributes are all null is a
/// block of its own, with no key.
#[derive(Debug)]
pub(crate) struct Blocks {
    /// The normal forms of every keyed row, back to back.
    arena: String,
    /// Per block: the byte range of its key in `arena`, `None` when the
    /// block is an all-null row.
    keys: Vec<Option<Range<usize>>>,
    /// Per block, where its rows start in `rows`; one trailing entry.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl Blocks {
    /// Group the rows of `rel` by the normalised concatenation of the
    /// `key_attrs` cells (see [`blocking_key`]).
    pub(crate) fn group(rel: &Relation, key_attrs: &[&str]) -> Result<Blocks> {
        let cols: Vec<usize> = key_attrs
            .iter()
            .map(|a| rel.schema().require(a))
            .collect::<Result<_>>()?;
        guard_stage("fusion/block_keys", || Ok(Blocks::group_cols(rel, &cols)))
    }

    fn group_cols(rel: &Relation, cols: &[usize]) -> Blocks {
        // pass 1: every row's key into the arena
        let mut arena = String::new();
        let mut key = String::new();
        let spans: Vec<Option<Range<usize>>> = rel
            .iter()
            .map(|t| {
                blocking_key(t, cols, &mut key).then(|| {
                    let start = arena.len();
                    arena.push_str(&key);
                    start..arena.len()
                })
            })
            .collect();
        // pass 2: block ids in first-row order, and each block's size
        let mut ids: HashMap<&str, usize> = HashMap::with_capacity(rel.len());
        let mut keys: Vec<Option<Range<usize>>> = Vec::new();
        let mut sizes: Vec<usize> = Vec::new();
        let block_of: Vec<usize> = spans
            .into_iter()
            .map(|span| {
                let fresh = keys.len();
                let id = match &span {
                    Some(span) => *ids.entry(&arena[span.clone()]).or_insert(fresh),
                    None => fresh,
                };
                if id == fresh {
                    keys.push(span);
                    sizes.push(0);
                }
                sizes[id] += 1;
                id
            })
            .collect();
        // pass 3: counting sort; rows are placed in ascending order
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for size in sizes {
            starts.push(starts[starts.len() - 1] + size);
        }
        let mut free = starts.clone();
        let mut rows = vec![0; block_of.len()];
        for (row, b) in block_of.into_iter().enumerate() {
            rows[free[b]] = row;
            free[b] += 1;
        }
        Blocks { arena, keys, starts, rows }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The rows of block `b`, ascending.
    pub(crate) fn block(&self, b: usize) -> &[usize] {
        &self.rows[self.starts[b]..self.starts[b + 1]]
    }

    /// Every block id in the order [`block_by_keys`] returns them: keyed
    /// blocks by key, then the all-null rows in row order.
    pub(crate) fn key_order(&self) -> Vec<usize> {
        let key = |b: usize| self.keys[b].clone().map(|span| &self.arena[span]);
        let (mut keyed, unkeyed): (Vec<usize>, Vec<usize>) =
            (0..self.len()).partition(|&b| self.keys[b].is_some());
        // keys are distinct, so an unstable sort is deterministic
        keyed.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        keyed.extend(unkeyed);
        keyed
    }
}

/// Group row indices by the normalised concatenation of the given key
/// attributes. Rows whose key attributes are all null go into singleton
/// blocks (they cannot be safely compared with anything).
///
/// Every block's row list is ascending; keyed blocks come ordered by key,
/// followed by the all-null singletons in row order.
pub fn block_by_keys(rel: &Relation, key_attrs: &[&str]) -> Result<Vec<Vec<usize>>> {
    let blocks = Blocks::group(rel, key_attrs)?;
    Ok(blocks.key_order().into_iter().map(|b| blocks.block(b).to_vec()).collect())
}

/// Statistics about a blocking: how much pairwise work it saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingStats {
    /// Number of blocks.
    pub blocks: usize,
    /// Size of the largest block.
    pub max_block: usize,
    /// Candidate pairs after blocking.
    pub candidate_pairs: usize,
    /// Pairs a full cross product would compare.
    pub total_pairs: usize,
}

/// Compute statistics for a blocking over `n` rows. An empty block holds
/// no pair.
pub fn blocking_stats(blocks: &[Vec<usize>], n: usize) -> BlockingStats {
    let candidate_pairs = blocks.iter().map(|b| b.len() * b.len().saturating_sub(1) / 2).sum();
    BlockingStats {
        blocks: blocks.len(),
        max_block: blocks.iter().map(|b| b.len()).max().unwrap_or(0),
        candidate_pairs,
        total_pairs: n * n.saturating_sub(1) / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema, Tuple, Value};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::all_str("r", &["street", "postcode"]),
            vec![
                tuple!["1 high st", "M1 1AA"],
                tuple!["1 High St.", "M1 1AA"],
                tuple!["9 park rd", "EH1 1AA"],
                Tuple::new(vec![Value::str("x"), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn blocks_group_equal_keys() {
        let blocks = block_by_keys(&rel(), &["postcode"]).unwrap();
        assert_eq!(blocks.len(), 3);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        assert!(sizes.contains(&2));
    }

    #[test]
    fn all_null_keys_become_singletons() {
        let blocks = block_by_keys(&rel(), &["postcode"]).unwrap();
        let singleton = blocks.iter().find(|b| b == &&vec![3usize]);
        assert!(singleton.is_some());
    }

    #[test]
    fn the_grouping_numbers_blocks_by_first_row() {
        let r = Relation::from_tuples(
            Schema::all_str("r", &["k"]),
            ["b", "a", "", "B.", "a", ""].iter().map(|k| tuple![*k]).collect(),
        )
        .unwrap();
        let blocks = Blocks::group(&r, &["k"]).unwrap();
        let by_id: Vec<&[usize]> = (0..blocks.len()).map(|b| blocks.block(b)).collect();
        // `""` normalises to the empty key: still a key, not a null
        assert_eq!(by_id, [&[0, 3][..], &[1, 4], &[2, 5]]);
        assert_eq!(blocks.key_order(), [2, 1, 0]);
    }

    #[test]
    fn stats_measure_savings() {
        let blocks = block_by_keys(&rel(), &["postcode"]).unwrap();
        let stats = blocking_stats(&blocks, 4);
        assert_eq!(stats.total_pairs, 6);
        assert_eq!(stats.candidate_pairs, 1);
        assert_eq!(stats.max_block, 2);
    }

    #[test]
    fn an_empty_block_counts_no_pairs() {
        let stats = blocking_stats(&[vec![], vec![0, 1, 2], vec![]], 3);
        assert_eq!(stats.candidate_pairs, 3);
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.max_block, 3);
    }

    #[test]
    fn unknown_key_errors() {
        assert!(block_by_keys(&rel(), &["nope"]).is_err());
    }

    #[test]
    fn every_row_in_exactly_one_block() {
        let blocks = block_by_keys(&rel(), &["postcode"]).unwrap();
        let mut seen: Vec<usize> = blocks.concat();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
