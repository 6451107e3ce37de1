//! Incremental vs full re-derivation: an N-row base with a k-row delta,
//! k ≪ N. The full path re-runs the engine over base+delta from scratch;
//! the incremental path feeds only the delta through a persistent
//! [`IncrementalSession`]. Same program, same output (the differential
//! suites pin byte-identity); only the work differs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_common::{tuple, Tuple};
use vada_datalog::incremental::IncrementalSession;
use vada_datalog::{parse_program, Database, Engine, EngineConfig};

/// The mapping-shaped program the pipeline actually runs: a two-source
/// union head plus a filtered join chain.
const PROGRAM: &str = r#"
    all(X, P) :- a(X, P).
    all(X, P) :- b(X, P).
    picked(X, P) :- a(X, P), k(X).
    wide(X, P, Q) :- picked(X, P), w(P, Q).
"#;

fn base_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        db.insert("a", tuple![i % 997, i]);
        db.insert("b", tuple![i % 631, i + 10_000_000]);
        if i % 3 == 0 {
            db.insert("k", tuple![i % 997]);
        }
        db.insert("w", tuple![i, i * 2]);
    }
    db
}

/// `k` delta facts for `a`, unique per `round` so repeated bench
/// iterations keep doing real (non-duplicate) work.
fn delta(k: usize, round: usize) -> Vec<(String, Tuple)> {
    (0..k as i64)
        .map(|j| {
            let v = 20_000_000 + (round as i64) * k as i64 + j;
            ("a".to_string(), tuple![v % 997, v])
        })
        .collect()
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let program = parse_program(PROGRAM).unwrap();
    let mut group = c.benchmark_group("datalog/incremental_vs_full");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    const K: usize = 64;
    for n in [5_000usize, 20_000] {
        // full: re-derive everything from the grown base
        group.bench_with_input(BenchmarkId::new("full", n), &n, |bench, &n| {
            let mut db = base_db(n);
            for (p, t) in delta(K, 0) {
                db.insert(&p, t);
            }
            let engine = Engine::new(EngineConfig::default());
            bench.iter(|| {
                engine
                    .run(&program, db.clone())
                    .expect("full run evaluates")
                    .total_facts()
            });
        });
        // incremental: k-fact deltas through a persistent session
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |bench, &n| {
            let mut session =
                IncrementalSession::new(EngineConfig::default(), PROGRAM).unwrap();
            session.run_full(base_db(n)).unwrap();
            let mut round = 0usize;
            bench.iter(|| {
                round += 1;
                session
                    .apply(delta(K, round))
                    .expect("delta applies")
                    .total_facts()
            });
        });
        // retraction: retract k base rows through the counting path, then
        // re-apply them so every iteration does real deletion work against
        // a full-size base (the measured pair stays O(k) either way)
        group.bench_with_input(BenchmarkId::new("retract+reapply", n), &n, |bench, &n| {
            let mut session =
                IncrementalSession::new(EngineConfig::default(), PROGRAM).unwrap();
            session.run_full(base_db(n)).unwrap();
            let rows: Vec<(String, Tuple)> = (0..K as i64)
                .map(|i| ("a".to_string(), tuple![i % 997, i]))
                .collect();
            bench.iter(|| {
                session.retract(rows.clone()).expect("retraction applies");
                let out = session.last_outcome().expect("retract records an outcome");
                assert_eq!(out.removed_facts, K, "retraction must hit live rows");
                session.apply(rows.clone()).expect("re-apply succeeds").total_facts()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_vs_full);
criterion_main!(benches);
