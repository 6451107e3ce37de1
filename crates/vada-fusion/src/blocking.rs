//! Key-based blocking: restrict pairwise comparison to rows sharing a
//! blocking key.

use std::collections::HashMap;

use vada_common::error::guard_stage;
use vada_common::text::blocking_key;
use vada_common::{Relation, Result};

/// Group row indices by the normalised concatenation of the given key
/// attributes. Rows whose key attributes are all null go into singleton
/// blocks (they cannot be safely compared with anything).
///
/// One hash-grouping pass in row order (reusing a scratch buffer for the
/// normal form instead of allocating per cell), so every block's row list
/// is ascending; the keys are ordered once, at the end, one comparison
/// sort over the distinct keys.
pub fn block_by_keys(rel: &Relation, key_attrs: &[&str]) -> Result<Vec<Vec<usize>>> {
    let cols: Vec<usize> = key_attrs
        .iter()
        .map(|a| rel.schema().require(a))
        .collect::<Result<_>>()?;
    let (blocks, singletons) = guard_stage("fusion/block_keys", || {
        let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
        let mut singletons: Vec<usize> = Vec::new();
        let mut key = String::new();
        for (row, t) in rel.iter().enumerate() {
            if blocking_key(t, &cols, &mut key) {
                if let Some(rows) = blocks.get_mut(key.as_str()) {
                    rows.push(row);
                } else {
                    blocks.insert(key.clone(), vec![row]);
                }
            } else {
                singletons.push(row);
            }
        }
        Ok((blocks, singletons))
    })?;
    let mut keyed: Vec<(String, Vec<usize>)> = blocks.into_iter().collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<Vec<usize>> = Vec::with_capacity(keyed.len() + singletons.len());
    out.extend(keyed.into_iter().map(|(_, rows)| rows));
    out.extend(singletons.into_iter().map(|r| vec![r]));
    Ok(out)
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
