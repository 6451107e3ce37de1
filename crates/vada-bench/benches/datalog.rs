//! Datalog engine scaling: semi-naive transitive closure, joins and
//! stratified negation as the fact count grows.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vada_common::tuple;
use vada_datalog::{parse_program, Database, Engine};

fn chain_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert("edge", tuple![i as i64, (i + 1) as i64]);
        // add branching so the closure is not a straight line
        if i % 7 == 0 {
            db.insert("edge", tuple![i as i64, ((i + 3) % (n + 1)) as i64]);
        }
    }
    db
}

fn bench_transitive_closure(c: &mut Criterion) {
    let program =
        parse_program("tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).").unwrap();
    let mut group = c.benchmark_group("datalog/transitive_closure");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [50usize, 100, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let db = chain_db(n);
            b.iter(|| {
                Engine::default()
                    .run(&program, db.clone())
                    .expect("tc evaluates")
                    .facts("tc")
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_join_pipeline(c: &mut Criterion) {
    let program = parse_program(
        "j(A, C, E) :- r(A, B), s(B, C), t(C, D), D > 10, E = D * 2.",
    )
    .unwrap();
    let mut group = c.benchmark_group("datalog/join_pipeline");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [200usize, 1000, 4000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut db = Database::new();
            for i in 0..n as i64 {
                db.insert("r", tuple![i, i % 97]);
                db.insert("s", tuple![i % 97, i % 31]);
                db.insert("t", tuple![i % 31, i % 50]);
            }
            b.iter(|| {
                Engine::default()
                    .run(&program, db.clone())
                    .expect("join evaluates")
                    .facts("j")
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_negation(c: &mut Criterion) {
    let program = parse_program(
        "node(X) :- edge(X, _). node(Y) :- edge(_, Y). \
         reach(X, Y) :- edge(X, Y). reach(X, Z) :- reach(X, Y), edge(Y, Z). \
         noreach(X, Y) :- node(X), node(Y), not reach(X, Y).",
    )
    .unwrap();
    let mut group = c.benchmark_group("datalog/stratified_negation");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [30usize, 60, 120] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let db = chain_db(n);
            b.iter(|| {
                Engine::default()
                    .run(&program, db.clone())
                    .expect("negation evaluates")
                    .facts("noreach")
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_aggregates(c: &mut Criterion) {
    let program = parse_program("agg(G, count(V), sum(V), avg(V)) :- item(G, V).").unwrap();
    let mut group = c.benchmark_group("datalog/aggregates");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for n in [1000usize, 10_000, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut db = Database::new();
            for i in 0..n as i64 {
                db.insert("item", tuple![i % 100, i]);
            }
            b.iter(|| {
                Engine::default()
                    .run(&program, db.clone())
                    .expect("aggregate evaluates")
                    .facts("agg")
                    .len()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transitive_closure,
    bench_join_pipeline,
    bench_negation,
    bench_aggregates
);
criterion_main!(benches);
