//! `datalog_reason`: the reasoner alone, by direct engine calls on the
//! programs of the `BENCH_baseline.json` families — a from-scratch
//! fixpoint, bound-argument queries over a recursive program, and 64-row
//! deltas applied to and retracted from a materialised session.

use std::time::Instant;

use vada::vada_common::{tuple, Tuple, VadaError};
use vada::vada_datalog::ast::{Program, Rule};
use vada::vada_datalog::parser::parse_query;
use vada::vada_datalog::{parse_program, Database, Engine, EngineConfig, IncrementalSession};

use super::replay::derive_layer_metrics;
use super::Bench;
use crate::stats;

/// A union, a filter join and a widening join: 4 derived facts per base row.
const PROGRAM: &str = r#"
    all(X, P) :- a(X, P).
    all(X, P) :- b(X, P).
    picked(X, P) :- a(X, P), k(X).
    wide(X, P, Q) :- picked(X, P), w(P, Q).
"#;

/// Transitive closure over disconnected chains: a bound first argument
/// needs one chain, the undirected fixpoint derives them all.
const TC_PROGRAM: &str = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).";

/// Nodes per chain of the edge relation.
const CHAIN: usize = 50;
/// Rows per delta.
const DELTA: usize = 64;
/// Distinct bound constants the queries rotate through.
const CONSTANTS: usize = 16;
/// Calls per round, chosen so each of the four kinds is about a quarter of
/// the round's time at benchmark size.
const QUERIES_PER_ROUND: usize = 5;
const DELTAS_PER_ROUND: usize = 4;

/// The base facts. The seed moves the join keys (`shift`), not the sizes, so
/// every seed times the same amount of work on different values.
fn base_db(n: usize, shift: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        db.insert("a", tuple![(i + shift) % 997, i]);
        db.insert("b", tuple![(i + shift) % 631, i + 10_000_000]);
        if i % 3 == 0 {
            db.insert("k", tuple![(i + shift) % 997]);
        }
        db.insert("w", tuple![i, i * 2]);
    }
    db
}

/// `n` edges in chains of [`CHAIN`] nodes; a chain's last node carries a
/// self-loop so the row count is exactly `n`.
fn edge_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        let to = if (i + 1) % CHAIN as i64 == 0 {
            i
        } else {
            i + 1
        };
        db.insert("e", tuple![i, to]);
    }
    db
}

/// The `a` rows batch `round` appends: keys never seen in the base.
fn fresh_rows(round: usize) -> Vec<(String, Tuple)> {
    (0..DELTA as i64)
        .map(|j| {
            let v = 20_000_000 + (round * DELTA) as i64 + j;
            ("a".to_string(), tuple![v % 997, v])
        })
        .collect()
}

/// The base `a` rows batch `round` retracts: a distinct slice per round.
fn base_rows(round: usize, shift: i64) -> Vec<(String, Tuple)> {
    (0..DELTA as i64)
        .map(|j| {
            let i = (round * DELTA) as i64 + j;
            ("a".to_string(), tuple![(i + shift) % 997, i])
        })
        .collect()
}

struct Setup {
    rows: usize,
    shift: i64,
    /// Facts the from-scratch fixpoint derives.
    full_derived: u64,
    engine: Engine,
    program: Program,
    base: Database,
    tc: Program,
    edges: Database,
    /// `(query, answers under undirected evaluation)` per bound constant.
    queries: Vec<(Rule, Vec<Tuple>)>,
    session: IncrementalSession,
}

/// The bound queries of this run: [`CONSTANTS`] chain heads, picked by seed.
fn bound_queries(b: &Bench, rows: usize) -> Result<Vec<Rule>, VadaError> {
    let chains = rows / CHAIN;
    let first = b.p.seed_for(5) as usize % chains;
    (0..CONSTANTS)
        .map(|k| parse_query(&format!("tc({}, Y)", (first + k * 7) % chains * CHAIN)))
        .collect()
}

fn rows(b: &Bench) -> usize {
    b.p.size(20_000, 1_500)
}

fn setup(b: &mut Bench) -> Result<Setup, VadaError> {
    let rows = rows(b);
    let shift = (b.p.seed_for(4) % 997) as i64;
    let engine = Engine::new(EngineConfig::default());
    let program = parse_program(PROGRAM)?;
    let base = base_db(rows, shift);
    // `all` holds every `a` and `b` row; `picked` and `wide` one fact per
    // `a` row whose key is in `k`
    let keys: std::collections::HashSet<&Tuple> = base.facts("k").iter().collect();
    let picked = base
        .facts("a")
        .iter()
        .filter(|t| keys.contains(&Tuple::new(vec![t[0].clone()])))
        .count();
    let full_derived = (2 * rows + 2 * picked) as u64;
    let tc = parse_program(TC_PROGRAM)?;
    let edges = edge_db(rows);
    // the answer oracle: every chain's closure, undirected
    let closure = engine.run(&tc, edges.clone())?;
    let queries = bound_queries(b, rows)?
        .into_iter()
        .map(|q| engine.eval_query(&q, &closure).map(|answers| (q, answers)))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut session = IncrementalSession::new(EngineConfig::default(), PROGRAM)?;
    session.run_full(base.clone())?;
    b.sample("datalog.session.bootstrap_s", start.elapsed().as_secs_f64());
    Ok(Setup {
        rows,
        shift,
        full_derived,
        engine,
        program,
        base,
        tc,
        edges,
        queries,
        session,
    })
}

/// One round; returns its wall-clock, or the error of the first failed call.
fn round(
    b: &mut Bench,
    s: &mut Setup,
    r: usize,
    delta_derived: &mut u64,
) -> Result<f64, VadaError> {
    let start = Instant::now();

    let input = s.base.clone();
    let open = b.rec.enter("datalog.run");
    let out = s.engine.run(&s.program, input)?;
    let full_derived = (out.total_facts() - s.base.total_facts()) as u64;
    b.rec.count("derived_facts", full_derived);
    b.rec.exit(open);
    if full_derived != s.full_derived {
        return Err(VadaError::Kb(format!(
            "fixpoint derived {full_derived} facts, expected {}",
            s.full_derived
        )));
    }
    drop(out);

    for k in 0..QUERIES_PER_ROUND {
        let (query, expected) = &s.queries[(r * QUERIES_PER_ROUND + k) % CONSTANTS];
        let answers = b.rec.time("datalog.bound_query", || {
            s.engine.run_query(&s.tc, &s.edges, query)
        })?;
        let wrong = b.p.inject_wrong_answer && r == 0 && k == 0;
        if answers != *expected || wrong {
            return Err(VadaError::Kb(format!(
                "bound query {k}: directed answers differ from the undirected ones"
            )));
        }
    }

    for k in 0..DELTAS_PER_ROUND {
        let batch = r * DELTAS_PER_ROUND + k;
        let before = s.session.database().total_facts();
        let open = b.rec.enter("datalog.delta_apply");
        s.session.apply(fresh_rows(batch))?;
        let grown = s.session.database().total_facts() - before;
        b.rec.count("derived_facts", grown as u64);
        b.rec.exit(open);
        *delta_derived = grown as u64;
        if batch * DELTA + DELTA <= s.rows {
            b.rec.time("datalog.delta_retract", || {
                s.session.retract(base_rows(batch, s.shift)).map(|_| ())
            })?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// After the last round every predicate of the session must equal, in
/// order, a from-scratch run over the edited input.
fn check_session(s: &Setup, rounds: usize) -> Result<(), String> {
    let batches = rounds * DELTAS_PER_ROUND;
    let gone: std::collections::HashSet<Tuple> = (0..batches)
        .filter(|b| b * DELTA + DELTA <= s.rows)
        .flat_map(|b| base_rows(b, s.shift))
        .map(|(_, t)| t)
        .collect();
    let mut edited = Database::new();
    for pred in s.base.predicates() {
        for t in s.base.facts(pred) {
            if pred != "a" || !gone.contains(t) {
                edited.insert(pred, t.clone());
            }
        }
    }
    for (pred, t) in (0..batches).flat_map(fresh_rows) {
        edited.insert(&pred, t);
    }
    let expected = s
        .engine
        .run(&s.program, edited)
        .map_err(|e| e.to_string())?;
    let live = s.session.database();
    for pred in expected.predicates() {
        if live.facts(pred) != expected.facts(pred) {
            return Err(format!(
                "session predicate `{pred}` ({} facts) differs from a from-scratch run ({} facts)",
                live.facts(pred).len(),
                expected.facts(pred).len()
            ));
        }
    }
    Ok(())
}

pub fn run(b: &mut Bench) {
    let mut s = match b.setup(setup) {
        Ok(s) => s,
        Err(e) => {
            b.attempt();
            return b.fail(format!("set-up: {e}"));
        }
    };
    let mut delta_derived = 0;
    let mut rounds = 0;
    b.drive("datalog_reason", 3, 1, 1, |b, r| {
        b.attempt();
        let open = b.rec.enter("round");
        let done = round(b, &mut s, r, &mut delta_derived);
        b.rec.exit(open);
        match done {
            Ok(seconds) => b.sample_op(seconds),
            Err(e) => {
                b.fail(format!("round {r}: {e}"));
                return false;
            }
        }
        rounds = r + 1;
        true
    });
    b.attempt();
    if let Err(e) = check_session(&s, rounds) {
        b.fail(e);
    }
    if b.p.trace {
        for call in ["bound_query", "delta_apply", "delta_retract"] {
            let calls = b.rec.durations(&format!("datalog.{call}"));
            b.extend(&format!("datalog.{call}_s"), calls);
        }
        b.set("datalog.delta.derived_facts", delta_derived as f64);
        let run = stats::median(&b.rec.durations("datalog.run"));
        let apply = stats::median(b.samples_of("datalog.delta_apply_s"));
        if apply > 0.0 {
            b.set("datalog.delta.vs_full_ratio", run / apply);
        }
        derive_layer_metrics(b);
        b.trace_overhead();
    }
}

/// The `undirected` role, under no profile: the same bound queries answered
/// by the full fixpoint, for `datalog.undirected_query_s`.
pub fn run_undirected(b: &mut Bench) {
    let outcome = (|| -> Result<(), VadaError> {
        let rows = rows(b);
        let engine = Engine::new(EngineConfig::default());
        let tc = parse_program(TC_PROGRAM)?;
        let edges = edge_db(rows);
        for query in bound_queries(b, rows)?.iter().take(b.p.ops.unwrap_or(3)) {
            b.attempt();
            let start = Instant::now();
            std::hint::black_box(engine.run_query(&tc, &edges, query)?);
            b.sample("datalog.undirected_query_s", start.elapsed().as_secs_f64());
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        b.fail(e);
    }
}
