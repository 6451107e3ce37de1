//! Property-based tests for fusion: union-find invariants, blocking
//! partition laws, and survivorship conservation.

use proptest::prelude::*;

use vada_common::{Relation, Schema, Tuple, Value};
use vada_fusion::{block_by_keys, blocking_stats, fuse_clusters, Survivorship, UnionFind};

proptest! {
    #[test]
    fn union_find_equivalence_relation(
        n in 2usize..40,
        unions in proptest::collection::vec((0usize..40, 0usize..40), 0..60)
    ) {
        let mut uf = UnionFind::new(n);
        for (a, b) in unions {
            if a < n && b < n {
                uf.union(a, b);
                // reflexive + symmetric by construction
                prop_assert!(uf.connected(a, b));
                prop_assert!(uf.connected(b, a));
            }
        }
        // clusters partition 0..n
        let clusters = uf.clusters();
        let mut all: Vec<usize> = clusters.concat();
        all.sort();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        // transitivity: members of one cluster are pairwise connected
        for cluster in &clusters {
            for w in cluster.windows(2) {
                prop_assert!(uf.connected(w[0], w[1]));
            }
        }
    }

    #[test]
    fn blocking_partitions_rows(keys in proptest::collection::vec("[a-c]{1,2}", 1..30)) {
        let schema = Schema::all_str("r", &["k"]);
        let mut rel = Relation::empty(schema);
        for k in &keys {
            rel.push(Tuple::new(vec![Value::str(k)])).unwrap();
        }
        let blocks = block_by_keys(&rel, &["k"]).unwrap();
        let mut all: Vec<usize> = blocks.concat();
        all.sort();
        prop_assert_eq!(all, (0..keys.len()).collect::<Vec<_>>());
        // rows sharing a key share a block
        for block in &blocks {
            let vals: std::collections::HashSet<&str> =
                block.iter().map(|&r| keys[r].as_str()).collect();
            prop_assert_eq!(vals.len(), 1, "mixed keys in one block");
        }
    }

    #[test]
    fn blocking_completeness_over_nullable_keys(
        rows in proptest::collection::vec(
            (proptest::option::of("[a-c]{1,2}"), proptest::option::of("[x-z]{1}")),
            1..40,
        )
    ) {
        let schema = Schema::all_str("r", &["k1", "k2"]);
        let mut rel = Relation::empty(schema);
        for (a, b) in &rows {
            rel.push(Tuple::new(vec![
                a.as_deref().map(Value::str).unwrap_or(Value::Null),
                b.as_deref().map(Value::str).unwrap_or(Value::Null),
            ])).unwrap();
        }
        let blocks = block_by_keys(&rel, &["k1", "k2"]).unwrap();
        // completeness: two rows with equal non-null key attributes (same
        // null pattern, same values) always land in the same block
        let block_of: std::collections::HashMap<usize, usize> = blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| b.iter().map(move |&r| (r, bi)))
            .collect();
        for i in 0..rows.len() {
            for j in i + 1..rows.len() {
                if rows[i] == rows[j] && (rows[i].0.is_some() || rows[i].1.is_some()) {
                    prop_assert_eq!(
                        block_of[&i], block_of[&j],
                        "rows {} and {} share keys {:?} but not a block", i, j, rows[i]
                    );
                }
            }
        }
        // blocking never creates work: candidate pairs within blocks are a
        // subset of the full cross product
        let stats = blocking_stats(&blocks, rel.len());
        prop_assert!(stats.candidate_pairs <= stats.total_pairs);
        prop_assert_eq!(stats.blocks, blocks.len());
    }

    #[test]
    fn fusion_conserves_clusters(
        rows in proptest::collection::vec(("[a-b]{1}", proptest::option::of(0i64..5)), 1..20)
    ) {
        let schema = Schema::all_str("r", &["k", "v"]);
        let mut rel = Relation::empty(schema);
        for (k, v) in &rows {
            rel.push(Tuple::new(vec![
                Value::str(k),
                v.map(Value::Int).unwrap_or(Value::Null),
            ])).unwrap();
        }
        let blocks = block_by_keys(&rel, &["k"]).unwrap();
        for rule in [Survivorship::MostComplete, Survivorship::Majority, Survivorship::TrustWeighted] {
            let (fused, report) = fuse_clusters(&rel, &blocks, rule, None).unwrap();
            prop_assert_eq!(fused.len(), blocks.len());
            prop_assert_eq!(report.input_rows, rel.len());
            prop_assert_eq!(report.duplicates_removed(), rel.len() - blocks.len());
            // every surviving value existed in the cluster (no invention)
            for (cluster, out) in blocks.iter().zip(fused.iter()) {
                for (col, value) in out.iter().enumerate() {
                    if !value.is_null() {
                        prop_assert!(
                            cluster.iter().any(|&r| &rel.tuples()[r][col] == value),
                            "fusion invented {value:?}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests: every fusion stage against the implementation it
// replaced, kept here as a test-only oracle — blocking through a
// `BTreeMap<String, _>`, pair scoring that formats and normalises both
// cells of every field of every pair, cluster extraction through a
// `BTreeMap` of roots, and a majority vote that builds a map per column.
// The contract is the same output, not an equally good one: same blocks in
// the same order, same clusters, same fused tuples value for value (the
// representative "as written" — `Int(1)` is not `Float(1.0)` here), scores
// equal bit for bit. The oracles sit on `vada_common::text::{normalize,
// jaro_winkler, blocking_key}`, which the `vada-common` suite pins against
// their own predecessors.
// ---------------------------------------------------------------------------

mod oracle {
    use std::collections::{BTreeMap, HashMap};

    use vada_common::text::{blocking_key, jaro_winkler, normalize};
    use vada_common::{Relation, Tuple, Value};
    use vada_fusion::{FieldKind, FieldSpec, Survivorship, UnionFind};

    pub fn blocks(rel: &Relation, key_attrs: &[&str]) -> Vec<Vec<usize>> {
        let cols: Vec<usize> =
            key_attrs.iter().map(|a| rel.schema().require(a).unwrap()).collect();
        let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut singletons: Vec<Vec<usize>> = Vec::new();
        let mut key = String::new();
        for (row, t) in rel.iter().enumerate() {
            if blocking_key(t, &cols, &mut key) {
                blocks.entry(key.clone()).or_default().push(row);
            } else {
                singletons.push(vec![row]);
            }
        }
        let mut out: Vec<Vec<usize>> = blocks.into_values().collect();
        out.extend(singletons);
        out
    }

    fn numeric_of(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    fn field_similarity(kind: FieldKind, a: &Value, b: &Value) -> Option<f64> {
        if a.is_null() || b.is_null() {
            return None;
        }
        match kind {
            FieldKind::Exact => {
                Some(f64::from(normalize(&a.to_string()) == normalize(&b.to_string())))
            }
            FieldKind::Text => {
                Some(jaro_winkler(&normalize(&a.to_string()), &normalize(&b.to_string())))
            }
            FieldKind::Numeric => {
                let (x, y) = (numeric_of(a)?, numeric_of(b)?);
                let denom = x.abs().max(y.abs());
                if denom == 0.0 {
                    Some(1.0)
                } else {
                    Some((1.0 - (x - y).abs() / denom).max(0.0))
                }
            }
        }
    }

    pub fn record_similarity(spec: &[FieldSpec], a: &Tuple, b: &Tuple) -> f64 {
        let mut total_weight = 0.0;
        let mut acc = 0.0;
        for f in spec {
            if let Some(sim) = field_similarity(f.kind, &a[f.col], &b[f.col]) {
                acc += f.weight * sim;
                total_weight += f.weight;
            }
        }
        if total_weight == 0.0 {
            0.0
        } else {
            acc / total_weight
        }
    }

    pub fn clusters_of(uf: &mut UnionFind, n: usize) -> Vec<Vec<usize>> {
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for x in 0..n {
            by_root.entry(uf.find(x)).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }

    pub fn cluster_relation(
        rel: &Relation,
        block_keys: &[&str],
        spec: &[FieldSpec],
        threshold: f64,
    ) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(rel.len());
        for block in blocks(rel, block_keys) {
            for (i, &a) in block.iter().enumerate() {
                for &b in &block[i + 1..] {
                    if record_similarity(spec, &rel.tuples()[a], &rel.tuples()[b]) >= threshold {
                        uf.union(a, b);
                    }
                }
            }
        }
        clusters_of(&mut uf, rel.len())
    }

    /// Returns the fused tuples and the number of merged clusters.
    pub fn fuse(
        rel: &Relation,
        clusters: &[Vec<usize>],
        rule: Survivorship,
        trust: Option<&[f64]>,
    ) -> (Vec<Tuple>, usize) {
        let arity = rel.schema().arity();
        let mut out = Vec::new();
        let mut merged = 0usize;
        for cluster in clusters {
            if cluster.len() > 1 {
                merged += 1;
            }
            let tuple = match rule {
                Survivorship::MostComplete => {
                    let &best = cluster
                        .iter()
                        .min_by_key(|&&r| (rel.tuples()[r].null_count(), r))
                        .unwrap();
                    rel.tuples()[best].clone()
                }
                Survivorship::Majority => {
                    let mut values = Vec::with_capacity(arity);
                    for col in 0..arity {
                        let mut counts: HashMap<&Value, (usize, usize)> = HashMap::new();
                        for &r in cluster {
                            let v = &rel.tuples()[r][col];
                            if v.is_null() {
                                continue;
                            }
                            let e = counts.entry(v).or_insert((0, r));
                            e.0 += 1;
                            e.1 = e.1.min(r);
                        }
                        let winner = counts
                            .iter()
                            .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
                            .map(|(v, _)| (*v).clone())
                            .unwrap_or(Value::Null);
                        values.push(winner);
                    }
                    Tuple::new(values)
                }
                Survivorship::TrustWeighted => {
                    let uniform = vec![1.0; rel.len()];
                    let trust = trust.unwrap_or(&uniform);
                    let mut values = Vec::with_capacity(arity);
                    for col in 0..arity {
                        let winner = cluster
                            .iter()
                            .filter(|&&r| !rel.tuples()[r][col].is_null())
                            .max_by(|&&a, &&b| trust[a].total_cmp(&trust[b]).then(b.cmp(&a)))
                            .map(|&r| rel.tuples()[r][col].clone())
                            .unwrap_or(Value::Null);
                        values.push(winner);
                    }
                    Tuple::new(values)
                }
            };
            out.push(tuple);
        }
        (out, merged)
    }
}

/// A small palette of cells chosen to collide: values that are equal under
/// `Value`'s `Eq` but written differently (`Int(1)`, `Float(1.0)`), strings
/// that normalise to the same key (`"12 High St."`, `"12 high st"`), to
/// the empty key (`"..."`, `""`), to the same key only through non-ASCII
/// case folding, numeric strings, a near-duplicate typo, another type, and
/// a string longer than `jaro_chars`' stack scratch.
fn cell(i: u8) -> Value {
    match i % 16 {
        0 => Value::Null,
        1 => Value::Int(1),
        2 => Value::Float(1.0),
        3 => Value::str("1"),
        4 => Value::str("12 High St."),
        5 => Value::str("12 high st"),
        6 => Value::str("12 hgih st"),
        7 => Value::str("..."),
        8 => Value::str(""),
        9 => Value::str("ÉCOLE İ"),
        10 => Value::str("école i\u{307}"),
        11 => Value::Int(250_000),
        12 => Value::str(" 250500 "),
        13 => Value::Bool(true),
        14 => Value::str("a very long street name ".repeat(6)),
        _ => Value::str("a very long street name ".repeat(5) + "a very lnog street name"),
    }
}

/// Exact rendering of a value: variant and payload, floats by bit pattern.
/// (`Value`'s `Eq` would let `Float(1.0)` pass for `Int(1)`.)
fn written(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn written_rows<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<Vec<String>> {
    tuples.into_iter().map(|t| t.iter().map(written).collect()).collect()
}

fn palette_relation(rows: &[(u8, u8, u8, u8)], one_block: bool) -> Relation {
    let mut rel = Relation::empty(Schema::all_str("r", &["k1", "k2", "name", "n"]));
    for &(k1, k2, name, n) in rows {
        let (k1, k2) = if one_block { (4, 0) } else { (k1, k2) };
        rel.push(Tuple::new(vec![cell(k1), cell(k2), cell(name), cell(n)])).unwrap();
    }
    rel
}

proptest! {
    #[test]
    fn blocks_and_clusters_match_the_btreemap_oracles(
        rows in proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..16), 1..40),
        one_block in 0u8..4,
        threshold in 0u8..4,
    ) {
        use vada_fusion::{
            cluster_relation, cluster_relation_scored, record_similarity, ClusterConfig,
            FieldKind, FieldSpec,
        };
        // a quarter of the cases put every row in one block
        let rel = palette_relation(&rows, one_block == 0);
        let cfg = ClusterConfig {
            block_keys: vec!["k1".into(), "k2".into()],
            fields: vec![
                FieldSpec { col: 2, weight: 3.0, kind: FieldKind::Text },
                FieldSpec { col: 3, weight: 1.0, kind: FieldKind::Numeric },
                FieldSpec { col: 0, weight: 2.0, kind: FieldKind::Exact },
                FieldSpec { col: 3, weight: 0.5, kind: FieldKind::Text },
            ],
            threshold: [0.0, 0.6, 0.88, 1.0][threshold as usize],
        };
        let keys = ["k1", "k2"];
        let want_blocks = oracle::blocks(&rel, &keys);
        let want_clusters = oracle::cluster_relation(&rel, &keys, &cfg.fields, cfg.threshold);
        prop_assert_eq!(&block_by_keys(&rel, &keys).unwrap(), &want_blocks);
        prop_assert_eq!(&cluster_relation(&cfg, &rel).unwrap(), &want_clusters);
        // the injected-scorer seam runs the same pair loop
        let scorer = |a: &Tuple, b: &Tuple| record_similarity(&cfg.fields, a, b);
        prop_assert_eq!(
            &cluster_relation_scored(&cfg, &rel, &scorer).unwrap(), &want_clusters, "scored"
        );
        // every pair's score, bit for bit
        for a in rel.iter() {
            for b in rel.iter() {
                prop_assert_eq!(
                    record_similarity(&cfg.fields, a, b).unwrap().to_bits(),
                    oracle::record_similarity(&cfg.fields, a, b).to_bits(),
                    "{:?} vs {:?}", a, b
                );
            }
        }
    }

    #[test]
    fn cluster_extraction_matches_the_btreemap_oracle(
        n in 1usize..60,
        unions in proptest::collection::vec((0usize..60, 0usize..60), 0..80)
    ) {
        let mut uf = UnionFind::new(n);
        for (a, b) in unions {
            if a < n && b < n {
                uf.union(a, b);
            }
        }
        let want = oracle::clusters_of(&mut uf.clone(), n);
        prop_assert_eq!(uf.clusters(), want);
    }

    #[test]
    fn fusion_matches_the_map_per_column_oracle(
        rows in proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..16), 1..30),
        assignment in proptest::collection::vec(0u8..6, 30..31),
        trust in proptest::collection::vec(0u8..4, 30..31),
        shape in 0u8..4,
    ) {
        let rel = palette_relation(&rows, false);
        // clusters of one, two and many rows; some cases fuse every row
        // into one cluster, some leave every row alone
        let cluster_of = |row: usize| match shape {
            0 => 0,
            1 => row,
            _ => assignment[row] as usize,
        };
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut index: std::collections::HashMap<usize, usize> = Default::default();
        for row in 0..rel.len() {
            let i = *index.entry(cluster_of(row)).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            clusters[i].push(row);
        }
        // ties in trust are the interesting case: the earliest row wins
        let trust: Vec<f64> = trust[..rel.len()].iter().map(|&t| f64::from(t) / 2.0).collect();
        for rule in [Survivorship::MostComplete, Survivorship::Majority, Survivorship::TrustWeighted] {
            for trust in [None, Some(trust.as_slice())] {
                let (fused, report) = fuse_clusters(&rel, &clusters, rule, trust).unwrap();
                let (want, want_merged) = oracle::fuse(&rel, &clusters, rule, trust);
                prop_assert_eq!(
                    written_rows(fused.iter()), written_rows(&want), "{:?} {:?}", rule, trust
                );
                prop_assert_eq!(report, vada_fusion::FusionReport {
                    input_rows: rel.len(),
                    output_rows: clusters.len(),
                    merged_clusters: want_merged,
                });
            }
        }
    }
}

/// A blocking-key cell under one of four shapes: every key null, one
/// giant block written many ways, all singletons, or a mix of keys that
/// differ only in case, punctuation, spacing or non-ASCII case folding.
fn key_cell(shape: u8, row: usize, pick: u8) -> Value {
    const ONE_KEY: [&str; 6] = ["M1 1AA", "m1 1aa", "M1-1AA", "  M1   1AA ", "m1.1aa!", "M1\t1aa"];
    const MIXED: [&str; 12] = [
        "M1 1AA", "m1-1aa", "EH1 1AA", "eh1  1aa.", "ÉCOLE", "école", "Straße", "STRASSE",
        "İstanbul", "i\u{307}stanbul", "...", "",
    ];
    match shape % 4 {
        0 => Value::Null,
        1 => Value::str(ONE_KEY[pick as usize % ONE_KEY.len()]),
        2 => Value::str(format!("Row {row}")),
        _ => match pick % 16 {
            0..=11 => Value::str(MIXED[pick as usize % MIXED.len()]),
            12 => Value::Int(1),
            13 => Value::Float(1.0),
            _ => Value::Null,
        },
    }
}

fn key_shaped_relation(shape: u8, rows: &[(u8, u8, u8, u8)]) -> Relation {
    let mut rel = Relation::empty(Schema::all_str("r", &["k1", "k2", "name", "n"]));
    for (row, &(k1, k2, name, n)) in rows.iter().enumerate() {
        // the second key column is null for the one-block shape, so every
        // row shares the first column's normal form
        let k2 = if shape % 4 == 1 { Value::Null } else { key_cell(shape, row, k2) };
        rel.push(Tuple::new(vec![key_cell(shape, row, k1), k2, cell(name), cell(n)])).unwrap();
    }
    rel
}

proptest! {
    #[test]
    fn blocks_match_a_btreemap_of_normalized_keys(
        rows in proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..16), 1..40),
        shape in 0u8..4,
    ) {
        use std::collections::BTreeMap;
        use vada_common::text::normalize;
        let rel = key_shaped_relation(shape, &rows);
        let mut keyed: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut singletons: Vec<Vec<usize>> = Vec::new();
        for (row, t) in rel.iter().enumerate() {
            let parts: Vec<String> = t.values()[..2]
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| normalize(v.as_str().map_or(&v.to_string(), |s| s)))
                .collect();
            if parts.is_empty() {
                singletons.push(vec![row]);
            } else {
                keyed.entry(parts.join("|")).or_default().push(row);
            }
        }
        let want: Vec<Vec<usize>> = keyed.into_values().chain(singletons).collect();
        prop_assert_eq!(block_by_keys(&rel, &["k1", "k2"]).unwrap(), want);
    }

    #[test]
    fn clustering_equals_the_scored_seam_with_record_similarity(
        rows in proptest::collection::vec((0u8..16, 0u8..16, 0u8..16, 0u8..16), 1..40),
        shape in 0u8..4,
        threshold in 0u8..4,
    ) {
        use vada_fusion::{
            cluster_relation, cluster_relation_scored, record_similarity, ClusterConfig,
            FieldKind, FieldSpec,
        };
        let rel = key_shaped_relation(shape, &rows);
        let cfg = ClusterConfig {
            block_keys: vec!["k1".into(), "k2".into()],
            fields: vec![
                FieldSpec { col: 2, weight: 3.0, kind: FieldKind::Text },
                FieldSpec { col: 3, weight: 1.0, kind: FieldKind::Numeric },
                FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Exact },
            ],
            threshold: [0.0, 0.6, 0.88, 1.0][threshold as usize],
        };
        let scorer = |a: &Tuple, b: &Tuple| record_similarity(&cfg.fields, a, b);
        prop_assert_eq!(
            cluster_relation(&cfg, &rel).unwrap(),
            cluster_relation_scored(&cfg, &rel, &scorer).unwrap()
        );
    }
}
