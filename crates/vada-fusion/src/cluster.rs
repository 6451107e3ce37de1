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
//!
//! [`BlockClusters`] keeps one relation's clusters per block across row
//! edits, so a relation edited a few rows at a time is re-scored only in
//! the blocks the edits touched.

use std::collections::HashMap;

use vada_common::error::guard_stage;
use vada_common::relation::insert_at;
use vada_common::text::blocking_key;
use vada_common::{Relation, Result, Tuple, VadaError};

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
#[derive(Debug, Clone, PartialEq)]
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

/// A row no refresh has blocked yet: appended or rewritten since the last.
const UNBLOCKED: u32 = u32::MAX;
/// A row whose key attributes are all null: alone, never scored.
const UNKEYED: u32 = u32::MAX - 1;

/// The duplicate clusters of one relation, kept per block and brought up to
/// date after row edits by re-blocking the edited rows and re-scoring only
/// the blocks a row entered or left.
///
/// Each row keeps its block id, and each block the rows it was last scored
/// on with its clusters of two or more rows among them. A block no edit
/// touched keeps its rows in their order — removals elsewhere shift their
/// indices, never their ranks — so its clusters stand. So do those of a
/// touched block whose rows are, in order, the tuples it was last scored
/// on, even after it was empty or alone for a while: a block's clusters
/// are a function of its rows and the configuration alone. Any other
/// touched block is scored afresh, every pair as [`cluster_relation`]
/// scores it, so a refresh returns exactly the non-singleton clusters
/// [`cluster_relation`] returns for the relation as it is now. Clustering
/// from nothing is the same code with every row unblocked.
#[derive(Debug, Default)]
pub struct BlockClusters {
    /// Per row, its block id, [`UNKEYED`] or [`UNBLOCKED`].
    block_of: Vec<u32>,
    /// Keyed block ids by the normal form of their key.
    ids: HashMap<String, u32>,
    /// Per block id, what it was last scored on.
    blocks: Vec<Scored>,
    /// Blocks a row entered or left since the last refresh.
    touched: Vec<u32>,
}

/// What one block was last scored on, and what that found.
#[derive(Debug, Default)]
struct Scored {
    /// The block's rows when last scored, in order.
    rows: Vec<Tuple>,
    /// Their clusters of two or more rows, as ascending ranks into `rows`.
    clusters: Vec<Vec<usize>>,
    /// Whether the block's rows are still `rows`: a block that has since
    /// fallen below two rows keeps what it was scored on, in case they
    /// come back, but has no clusters.
    live: bool,
}

/// What a [`BlockClusters::refresh`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Refreshed {
    /// Every cluster of two or more rows, each ascending, ordered by its
    /// smallest member.
    pub clusters: Vec<Vec<usize>>,
    /// Blocks whose pairs were scored: touched blocks of two or more rows
    /// that were not, in order, the rows they were last scored on.
    pub blocks_scored: usize,
}

impl BlockClusters {
    /// `n` rows were appended.
    pub fn append(&mut self, n: usize) {
        self.block_of.resize(self.block_of.len() + n, UNBLOCKED);
    }

    /// The rows at `positions` (pre-removal indices) were removed; the
    /// rest kept their order.
    pub fn remove(&mut self, positions: &[usize]) {
        let mut gone = vec![false; self.block_of.len()];
        for &row in positions {
            self.leave(row);
            gone[row] = true;
        }
        let mut row = 0;
        self.block_of.retain(|_| {
            row += 1;
            !gone[row - 1]
        });
    }

    /// Rows were inserted at `positions` (post-insert indices, ascending);
    /// the rows already there kept their order. The new rows are blocked,
    /// and their blocks touched, at the next refresh.
    pub fn insert(&mut self, positions: &[usize]) {
        insert_at(&mut self.block_of, positions, |_| UNBLOCKED);
    }

    /// The rows at `positions` were rewritten in place.
    pub fn replace(&mut self, positions: &[usize]) {
        for &row in positions {
            self.leave(row);
            self.block_of[row] = UNBLOCKED;
        }
    }

    fn leave(&mut self, row: usize) {
        let block = self.block_of[row];
        if block < UNKEYED {
            self.touched.push(block);
        }
    }

    /// Forget every row's block: the relation now has `rows` rows, which
    /// the next refresh blocks whole. Every block counts as touched, and
    /// keeps its clusters only if its rows come back as they were.
    pub fn reset(&mut self, rows: usize) {
        self.block_of.clear();
        self.block_of.resize(rows, UNBLOCKED);
        self.touched.clear();
        self.touched.extend(0..self.blocks.len() as u32);
    }

    /// Bring the clusters up to date with `rel`, the relation the edits
    /// since the last refresh produced, and return them. `cfg` must be the
    /// configuration of every earlier refresh; start from a fresh value
    /// when it changes. After an error, [`reset`](Self::reset) before the
    /// next refresh.
    pub fn refresh(&mut self, cfg: &ClusterConfig, rel: &Relation) -> Result<Refreshed> {
        if self.block_of.len() != rel.len() {
            return Err(VadaError::Other(format!(
                "{} row(s) tracked, but `{}` has {}",
                self.block_of.len(),
                rel.name(),
                rel.len()
            )));
        }
        let cols: Vec<usize> = cfg
            .block_keys
            .iter()
            .map(|a| rel.schema().require(a))
            .collect::<Result<_>>()?;
        let mut prepared = PreparedRows::new(&cfg.fields, rel.schema().arity())?;
        // block the rows edits left unblocked
        let mut key = String::new();
        for (block, t) in self.block_of.iter_mut().zip(rel.iter()) {
            if *block != UNBLOCKED {
                continue;
            }
            *block = if blocking_key(t, &cols, &mut key) {
                let id = match self.ids.get(key.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = self.blocks.len() as u32;
                        self.ids.insert(key.clone(), id);
                        self.blocks.push(Scored::default());
                        id
                    }
                };
                self.touched.push(id);
                id
            } else {
                UNKEYED
            };
        }
        let mut touched = vec![false; self.blocks.len()];
        for b in self.touched.drain(..) {
            touched[b as usize] = true;
        }
        // the rows of every block scored now or holding clusters, laid out
        // block by block, ascending, by a counting sort
        let needed: Vec<bool> = touched
            .iter()
            .zip(&self.blocks)
            .map(|(&touched, kept)| touched || (kept.live && !kept.clusters.is_empty()))
            .collect();
        let mut starts = vec![0usize; self.blocks.len() + 1];
        for &b in &self.block_of {
            if b != UNKEYED && needed[b as usize] {
                starts[b as usize + 1] += 1;
            }
        }
        for b in 0..self.blocks.len() {
            starts[b + 1] += starts[b];
        }
        let mut members = vec![0usize; starts[self.blocks.len()]];
        let mut free = starts.clone();
        for (row, &b) in self.block_of.iter().enumerate() {
            if b != UNKEYED && needed[b as usize] {
                members[free[b as usize]] = row;
                free[b as usize] += 1;
            }
        }
        let rows_of = |b: usize| &members[starts[b]..starts[b + 1]];
        let mut blocks_scored = 0;
        let mut slots: Vec<usize> = Vec::new();
        let tuples = rel.tuples();
        guard_stage("fusion/pairwise", || {
            for b in (0..self.blocks.len()).filter(|&b| touched[b]) {
                let rows = rows_of(b);
                let kept = &mut self.blocks[b];
                kept.live = rows.len() >= 2
                    && kept.rows.len() == rows.len()
                    && kept.rows.iter().zip(rows).all(|(was, &row)| *was == tuples[row]);
                if kept.live || rows.len() < 2 {
                    continue;
                }
                blocks_scored += 1;
                slots.clear();
                slots.extend(rows.iter().map(|&row| prepared.push(&tuples[row])));
                let mut uf = UnionFind::new(rows.len());
                for (i, &a) in slots.iter().enumerate() {
                    for (j, &b) in slots.iter().enumerate().skip(i + 1) {
                        if prepared.similarity(a, b) >= cfg.threshold {
                            uf.union(i, j);
                        }
                    }
                }
                kept.rows = rows.iter().map(|&row| tuples[row].clone()).collect();
                kept.clusters = uf.clusters().into_iter().filter(|c| c.len() > 1).collect();
                kept.live = true;
            }
            Ok(())
        })?;
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (b, kept) in self.blocks.iter().enumerate().filter(|(_, kept)| kept.live) {
            let rows = rows_of(b);
            clusters.extend(
                kept.clusters.iter().map(|c| c.iter().map(|&rank| rows[rank]).collect()),
            );
        }
        // smallest members are distinct rows
        clusters.sort_unstable_by_key(|c: &Vec<usize>| c[0]);
        Ok(Refreshed { clusters, blocks_scored })
    }
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

    /// The non-singleton clusters [`cluster_relation`] finds from scratch.
    fn duplicates(cfg: &ClusterConfig, rel: &Relation) -> Vec<Vec<usize>> {
        let clusters = cluster_relation(cfg, rel).unwrap();
        clusters.into_iter().filter(|c| c.len() > 1).collect()
    }

    #[test]
    fn block_clusters_follow_appends_removals_and_rewrites() {
        let schema = Schema::all_str("r", &["street", "price", "postcode"]);
        let mut rel = Relation::from_tuples(
            schema,
            vec![
                tuple!["12 high st", "250000", "M1 1AA"],
                tuple!["9 park rd", "400000", "EH1 1AA"],
                tuple!["12 High St.", "250500", "M1 1AA"],
                tuple!["9 park road", "400000", "EH1 1AA"],
                tuple!["1 mill ln", "90000", "G1 1AA"],
                tuple!["7 new st", "120000", ""],
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
        let mut kept = BlockClusters::default();
        kept.append(rel.len());
        let first = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(first.clusters, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(first.clusters, duplicates(&cfg, &rel));
        assert_eq!(first.blocks_scored, 2, "two blocks have a pair to score");

        // nothing changed: nothing re-scored, the same clusters
        let again = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!((again.clusters, again.blocks_scored), (first.clusters, 0));

        // a rewrite moves row 0 out of M1 into G1: both blocks re-scored
        let moved = tuple!["1 mill lane", "90000", "G1 1AA"];
        rel.replace(0, moved).unwrap();
        kept.replace(&[0]);
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(step.clusters, duplicates(&cfg, &rel));
        assert_eq!(step.clusters, vec![vec![0, 4], vec![1, 3]]);
        assert_eq!(step.blocks_scored, 1, "M1 is left with one row");

        // a removal shifts the untouched EH1 cluster's rows, not its ranks
        rel.remove_rows(&[0]).unwrap();
        kept.remove(&[0]);
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(step.clusters, duplicates(&cfg, &rel));
        assert_eq!(step.clusters, vec![vec![0, 2]]);
        assert_eq!(step.blocks_scored, 0);

        // an append joins the EH1 block
        rel.push(tuple!["9 Park Rd", "400000", "EH1 1AA"]).unwrap();
        kept.append(1);
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(step.clusters, duplicates(&cfg, &rel));
        assert_eq!(step.clusters, vec![vec![0, 2, 5]]);
        assert_eq!(step.blocks_scored, 1);

        // an insert ahead of the EH1 cluster: the inserted row's block
        // alone is scored, the cluster's rows shift
        rel.insert_rows(&[1], &[tuple!["1 Mill Ln", "90000", "G1 1AA"]]).unwrap();
        kept.insert(&[1]);
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(step.clusters, duplicates(&cfg, &rel));
        assert_eq!(step.clusters, vec![vec![0, 3, 6], vec![1, 4]]);
        assert_eq!(step.blocks_scored, 1);
        rel.remove_rows(&[1]).unwrap();
        kept.remove(&[1]);
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!(step.clusters, vec![vec![0, 2, 5]]);
        assert_eq!(step.blocks_scored, 0, "G1 is back to one row");

        // every row unblocked again: blocks come back as they were scored,
        // so none is scored again
        kept.reset(rel.len());
        let step = kept.refresh(&cfg, &rel).unwrap();
        assert_eq!((step.clusters, step.blocks_scored), (vec![vec![0, 2, 5]], 0));

        // a whole-relation rewrite that reorders one block: only it is scored
        let mut reordered = rel.clone();
        reordered.remove_rows(&[0]).unwrap();
        reordered.push(rel.tuples()[0].clone()).unwrap();
        kept.reset(reordered.len());
        let step = kept.refresh(&cfg, &reordered).unwrap();
        assert_eq!(step.clusters, duplicates(&cfg, &reordered));
        assert_eq!(step.blocks_scored, 1);
        let rel = reordered;

        // a count that disagrees with the relation is refused
        kept.append(1);
        assert!(kept.refresh(&cfg, &rel).is_err());
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
