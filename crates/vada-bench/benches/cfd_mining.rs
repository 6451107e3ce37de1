//! CFD learner scaling: rows × LHS size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};
use vada_quality::{learn_cfds, CfdLearnConfig};

fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("cfd/rows");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for props in [200usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(props), &props, |b, &props| {
            let s = Scenario::generate(ScenarioConfig {
                universe: UniverseConfig { properties: props, seed: 1 },
                ..Default::default()
            });
            let cfg = CfdLearnConfig::default();
            b.iter(|| learn_cfds(&cfg, &s.address).len());
        });
    }
    group.finish();
}

fn bench_lhs_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("cfd/max_lhs");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 1000, seed: 1 },
        ..Default::default()
    });
    for max_lhs in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(max_lhs), &max_lhs, |b, &max_lhs| {
            let cfg = CfdLearnConfig { max_lhs, ..Default::default() };
            b.iter(|| learn_cfds(&cfg, &s.address).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rows, bench_lhs_size);
criterion_main!(benches);
