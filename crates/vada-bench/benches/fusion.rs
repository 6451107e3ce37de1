//! Duplicate detection & fusion scaling, and the value of blocking.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_common::{Relation, Schema, Tuple, Value};
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};
use vada_fusion::{
    cluster_relation, fuse_clusters, ClusterConfig, FieldKind, FieldSpec, Survivorship,
};

fn dirty_union(props: usize) -> Relation {
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: props, seed: 1 },
        source_fraction: 0.8,
        duplicate_rate: 0.1,
        ..Default::default()
    });
    // union both sources into one relation (column order normalised)
    let mut rel = Relation::empty(Schema::all_str(
        "union",
        &["price", "street", "postcode", "bedrooms"],
    ));
    for t in s.rightmove.iter().chain(s.onthemarket.iter()) {
        rel.push(Tuple::new(vec![
            t[0].clone(),
            t[1].clone(),
            t[2].clone(),
            t[3].clone(),
        ]))
        .expect("arity 4");
    }
    rel
}

fn spec() -> Vec<FieldSpec> {
    vec![
        FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Numeric },
        FieldSpec { col: 1, weight: 3.0, kind: FieldKind::Text },
        FieldSpec { col: 2, weight: 2.0, kind: FieldKind::Exact },
        FieldSpec { col: 3, weight: 1.0, kind: FieldKind::Numeric },
    ]
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion/cluster_with_blocking");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for props in [200usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(props), &props, |b, &props| {
            let rel = dirty_union(props);
            let cfg = ClusterConfig {
                block_keys: vec!["postcode".into()],
                fields: spec(),
                threshold: 0.9,
            };
            b.iter(|| cluster_relation(&cfg, &rel).expect("clusters").len());
        });
    }
    group.finish();
}

fn bench_blocking_ablation(c: &mut Criterion) {
    // blocking on postcode vs a degenerate single block (the first char of
    // street) — shows why blocking matters
    let mut group = c.benchmark_group("fusion/blocking_ablation_1000");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let rel = dirty_union(1000);
    for (label, key) in [("postcode_block", "postcode"), ("no_real_block", "bedrooms")] {
        group.bench_function(label, |b| {
            let cfg = ClusterConfig {
                block_keys: vec![key.to_string()],
                fields: spec(),
                threshold: 0.9,
            };
            b.iter(|| cluster_relation(&cfg, &rel).expect("clusters").len());
        });
    }
    group.finish();
}

fn bench_pairwise(c: &mut Criterion) {
    // pairwise scoring on a ~10k-row dirty union
    let mut group = c.benchmark_group("fusion/pairwise_10k");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let rel = dirty_union(6250); // two 80% sources ≈ 10k rows
    let cfg = ClusterConfig {
        block_keys: vec!["postcode".into()],
        fields: spec(),
        threshold: 0.9,
    };
    group.bench_function("cluster", |b| {
        b.iter(|| cluster_relation(&cfg, &rel).expect("clusters").len());
    });
    group.finish();
}

fn bench_survivorship(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion/survivorship_1000");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let rel = dirty_union(1000);
    let cfg = ClusterConfig {
        block_keys: vec!["postcode".into()],
        fields: spec(),
        threshold: 0.9,
    };
    let clusters = cluster_relation(&cfg, &rel).expect("clusters");
    let trust: Vec<f64> = (0..rel.len()).map(|i| (i % 10) as f64 / 10.0).collect();
    for rule in [Survivorship::MostComplete, Survivorship::Majority, Survivorship::TrustWeighted] {
        group.bench_function(format!("{rule:?}"), |b| {
            b.iter(|| {
                fuse_clusters(&rel, &clusters, rule, Some(&trust))
                    .expect("fusion")
                    .1
                    .duplicates_removed()
            });
        });
    }
    group.finish();
}

fn bench_value_normalisation(c: &mut Criterion) {
    // guard against accidental regressions in the hot Value::cmp path used
    // by clustering keys
    let mut group = c.benchmark_group("fusion/value_sort_100k");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let mut values: Vec<Value> = Vec::new();
    for i in 0..100_000i64 {
        values.push(match i % 3 {
            0 => Value::Int(i),
            1 => Value::Float(i as f64 / 3.0),
            _ => Value::str(format!("v{i}")),
        });
    }
    group.bench_function("sort_mixed", |b| {
        b.iter(|| {
            let mut v = values.clone();
            v.sort();
            v.len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clustering,
    bench_blocking_ablation,
    bench_pairwise,
    bench_survivorship,
    bench_value_normalisation
);
criterion_main!(benches);
