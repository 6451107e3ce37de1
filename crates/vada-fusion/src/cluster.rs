//! Union-find clustering of above-threshold record pairs within blocks.
//!
//! Both entry points score pairs over the flat grouping of
//! [`crate::blocking`], never a `Vec` per block.
//! [`cluster_relation`] visits blocks in first-row order: union-find's
//! partition does not depend on the order pairs are united in, and clusters
//! come out ordered by their smallest member, so the output is the same in
//! any block order. [`cluster_relation_scored`] visits blocks in key order,
//! the order [`crate::block_by_keys`] returns them, because its error
//! contract names the first failing pair in that order.

use vada_common::error::guard_stage;
use vada_common::{Relation, Result, Tuple};

use crate::blocking::Blocks;
use crate::similarity::{FieldSpec, PreparedRows};

/// Disjoint-set forest with path compression and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect(), size: vec![1; n] }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Extract clusters (each sorted, clusters ordered by smallest member).
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        // members are visited in ascending order, so a cluster is opened by
        // its smallest member and filled in order: one pass, already sorted
        const UNOPENED: usize = usize::MAX;
        let n = self.parent.len();
        let mut cluster_of_root = vec![UNOPENED; n];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for x in 0..n {
            let r = self.find(x);
            if cluster_of_root[r] == UNOPENED {
                cluster_of_root[r] = out.len();
                out.push(Vec::with_capacity(self.size[r]));
            }
            out[cluster_of_root[r]].push(x);
        }
        out
    }
}

/// Clustering configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Blocking key attributes.
    pub block_keys: Vec<String>,
    /// Field comparison spec.
    pub fields: Vec<FieldSpec>,
    /// Pair-similarity threshold for a duplicate edge.
    pub threshold: f64,
}

/// Detect duplicate clusters in a relation: blocking, pairwise similarity
/// within blocks, union of above-threshold pairs. Returns clusters of row
/// indices (singletons included). Every row that has a block mate is
/// normalised once, up front; pairs are scored from those prepared rows.
pub fn cluster_relation(cfg: &ClusterConfig, rel: &Relation) -> Result<Vec<Vec<usize>>> {
    let mut prepared = PreparedRows::new(&cfg.fields, rel.schema().arity())?;
    let blocks = blocks_of(cfg, rel)?;
    let shared: Vec<&[usize]> =
        (0..blocks.len()).map(|b| blocks.block(b)).filter(|rows| rows.len() > 1).collect();
    // a row alone in its block is never scored, so never prepared
    let mut has_mate = vec![false; rel.len()];
    for &row in shared.iter().copied().flatten() {
        has_mate[row] = true;
    }
    let slot: Vec<usize> = rel
        .iter()
        .zip(&has_mate)
        .map(|(t, &mate)| if mate { prepared.push(t) } else { usize::MAX })
        .collect();
    cluster_pairs(shared, rel.len(), cfg.threshold, |a, b| {
        Ok(prepared.similarity(slot[a], slot[b]))
    })
}

/// [`cluster_relation`] with an injected pair scorer, the seam used by
/// failure-injection tests and custom similarity metrics. A scorer that
/// errors (or panics — captured, never an abort) surfaces the failure for
/// the first candidate pair in block order, naming the `fusion/pairwise`
/// stage.
pub fn cluster_relation_scored(
    cfg: &ClusterConfig,
    rel: &Relation,
    scorer: &dyn Fn(&Tuple, &Tuple) -> Result<f64>,
) -> Result<Vec<Vec<usize>>> {
    let blocks = blocks_of(cfg, rel)?;
    let in_key_order = blocks.key_order().into_iter().map(|b| blocks.block(b));
    let tuples = rel.tuples();
    cluster_pairs(in_key_order, rel.len(), cfg.threshold, |a, b| scorer(&tuples[a], &tuples[b]))
}

fn blocks_of(cfg: &ClusterConfig, rel: &Relation) -> Result<Blocks> {
    let keys: Vec<&str> = cfg.block_keys.iter().map(|s| s.as_str()).collect();
    Blocks::group(rel, &keys)
}

/// Score every within-block pair of row indices with `score`, in block
/// order, and union the pairs that reach `threshold`, over `n` rows. Pairs
/// are streamed, never materialised, so extra memory stays O(1) even for a
/// degenerate single-block key.
fn cluster_pairs<'b>(
    blocks: impl IntoIterator<Item = &'b [usize]>,
    n: usize,
    threshold: f64,
    score: impl Fn(usize, usize) -> Result<f64>,
) -> Result<Vec<Vec<usize>>> {
    let mut uf = UnionFind::new(n);
    guard_stage("fusion/pairwise", || {
        for block in blocks {
            for (i, &a) in block.iter().enumerate() {
                for &b in &block[i + 1..] {
                    if score(a, b)? >= threshold {
                        uf.union(a, b);
                    }
                }
            }
        }
        Ok(())
    })?;
    Ok(uf.clusters())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::FieldKind;
    use vada_common::{tuple, Schema};

    #[test]
    fn union_find_invariants() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already connected");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        let clusters = uf.clusters();
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters.len(), 4);
    }

    #[test]
    fn clustering_finds_near_duplicates_in_blocks() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["street", "price", "postcode"]),
            vec![
                tuple!["12 high st", "250000", "M1 1AA"],
                tuple!["12 High St.", "250500", "M1 1AA"],
                tuple!["99 park rd", "400000", "M1 1AA"],
                tuple!["12 high st", "250000", "EH1 1AA"], // other block
            ],
        )
        .unwrap();
        let cfg = ClusterConfig {
            block_keys: vec!["postcode".into()],
            fields: vec![
                FieldSpec { col: 0, weight: 2.0, kind: FieldKind::Text },
                FieldSpec { col: 1, weight: 1.0, kind: FieldKind::Numeric },
            ],
            threshold: 0.9,
        };
        let clusters = cluster_relation(&cfg, &rel).unwrap();
        // {0,1}, {2}, {3}
        assert_eq!(clusters.len(), 3);
        assert!(clusters.iter().any(|c| c == &vec![0, 1]));
    }

    #[test]
    fn a_field_past_the_arity_is_a_schema_error_not_a_captured_panic() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["street", "postcode"]),
            vec![tuple!["a st", "M1 1AA"], tuple!["a st", "M1 1AA"]],
        )
        .unwrap();
        let cfg = ClusterConfig {
            block_keys: vec!["postcode".into()],
            fields: vec![
                FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Text },
                FieldSpec { col: 2, weight: 1.0, kind: FieldKind::Exact },
            ],
            threshold: 0.9,
        };
        let err = cluster_relation(&cfg, &rel).unwrap_err();
        assert_eq!(err.kind(), "schema", "{err}");
        assert!(err.message().contains("field spec 1 compares column 2"), "{err}");
        // and with no pair to score: the spec is wrong whatever the data
        let lone = Relation::from_tuples(rel.schema().clone(), vec![tuple!["a st", "M1 1AA"]]);
        assert!(cluster_relation(&cfg, &lone.unwrap()).is_err());
    }

    #[test]
    fn no_duplicates_yields_singletons() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["street", "postcode"]),
            vec![tuple!["a st", "M1 1AA"], tuple!["b rd", "EH1 1AA"]],
        )
        .unwrap();
        let cfg = ClusterConfig {
            block_keys: vec!["postcode".into()],
            fields: vec![FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Text }],
            threshold: 0.9,
        };
        let clusters = cluster_relation(&cfg, &rel).unwrap();
        assert_eq!(clusters.len(), 2);
    }
}
