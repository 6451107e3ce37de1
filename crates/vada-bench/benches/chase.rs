//! Existential-rule (skolem chase) scaling: value invention per frontier
//! and nested invention up to the depth guard.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_common::tuple;
use vada_datalog::{parse_program, Database, Engine, EngineConfig};

fn bench_flat_invention(c: &mut Criterion) {
    // one invented owner per property
    let program = parse_program("owner(X, Z) :- prop(X). owned(Z) :- owner(_, Z).").unwrap();
    let mut group = c.benchmark_group("chase/flat_invention");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [1000usize, 10_000, 40_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut db = Database::new();
            for i in 0..n as i64 {
                db.insert("prop", tuple![i]);
            }
            b.iter(|| {
                Engine::default()
                    .run(&program, db.clone())
                    .expect("chase terminates")
                    .facts("owned")
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_nested_invention(c: &mut Criterion) {
    // each invented value feeds the rule again; the depth guard bounds it
    let program = parse_program(
        "person(X) :- seed(X). parent(X, Z) :- person(X). person(Z) :- parent(_, Z).",
    )
    .unwrap();
    let mut group = c.benchmark_group("chase/nested_invention_depth");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for depth in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let mut db = Database::new();
            for i in 0..50i64 {
                db.insert("seed", tuple![i]);
            }
            let engine = Engine::new(EngineConfig {
                max_skolem_depth: depth,
                ..Default::default()
            });
            b.iter(|| {
                // the run intentionally hits the guard at the configured
                // depth: we measure invention throughput up to the bound
                let _ = engine.run(&program, db.clone());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flat_invention, bench_nested_invention);
criterion_main!(benches);
