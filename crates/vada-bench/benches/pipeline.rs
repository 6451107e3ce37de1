//! End-to-end pipeline scaling: the full pay-as-you-go wrangle vs source
//! size, plus the bootstrap-only slice.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_bench::paygo::{run_paygo, PaygoConfig};
use vada_core::Wrangler;
use vada_extract::sources::target_schema;
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};

fn scenario_cfg(props: usize) -> ScenarioConfig {
    ScenarioConfig {
        universe: UniverseConfig { properties: props, seed: 1 },
        ..Default::default()
    }
}

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/bootstrap");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for props in [100usize, 300, 800] {
        group.bench_with_input(BenchmarkId::from_parameter(props), &props, |b, &props| {
            let s = Scenario::generate(scenario_cfg(props));
            b.iter(|| {
                let mut w = Wrangler::new();
                w.add_source(s.rightmove.clone());
                w.add_source(s.onthemarket.clone());
                w.add_source(s.deprivation.clone());
                w.set_target(target_schema());
                w.run().expect("bootstrap");
                w.result().expect("result").len()
            });
        });
    }
    group.finish();
}

fn bench_full_paygo(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/full_paygo");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for props in [100usize, 300] {
        group.bench_with_input(BenchmarkId::from_parameter(props), &props, |b, &props| {
            let cfg = PaygoConfig {
                scenario: scenario_cfg(props),
                feedback_budget: 40,
                ..Default::default()
            };
            b.iter(|| run_paygo(&cfg).steps.len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bootstrap, bench_full_paygo);
criterion_main!(benches);
