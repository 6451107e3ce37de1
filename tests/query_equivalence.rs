//! Differential tests for demand-driven (magic-set) query evaluation:
//! [`Engine::run_query`] — always demand-driven — must be **byte-identical**
//! to evaluating the query over [`Engine::run`]'s full fixpoint — same
//! answer set, same answer order (including deterministic skolem values),
//! same first error — per query, across randomized programs and query
//! workloads (bound/free argument patterns, negation, aggregates, positive
//! cycles, multi-adornment queries, empty demand sets) and across
//! `{Full, Incremental}` evaluation.
//! Failure injection drives panics into the rewrite and index-build stages
//! and pins that the surfaced error is the same on every path that runs
//! the stage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada_common::obs::key as obs_key;
use vada_common::{AttrType, Obs, Relation, Result, Schema, Tuple, Value};
use vada_datalog::engine::{Database, Engine, EngineConfig};
use vada_datalog::incremental::IncrementalSession;
use vada_datalog::parser::{parse_program, parse_query};

/// One randomized world: a program over extensional predicates
/// `e(node, node)`, `n(node)`, `lab(node, int)` plus a query workload
/// covering every rewrite shape.
struct World {
    program: String,
    e_rows: Vec<Tuple>,
    n_rows: Vec<Tuple>,
    lab_rows: Vec<Tuple>,
    queries: Vec<String>,
}

fn random_world(rng: &mut StdRng) -> World {
    let node_count = rng.gen_range(6..10usize);
    let nodes: Vec<String> = (0..node_count).map(|i| format!("v{i}")).collect();
    let pick = |rng: &mut StdRng, nodes: &[String]| -> String {
        nodes[rng.gen_range(0..nodes.len())].clone()
    };

    let edge_count = rng.gen_range(8..20usize);
    let mut e_rows = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        e_rows.push(Tuple::new(vec![
            Value::str(pick(rng, &nodes)),
            Value::str(pick(rng, &nodes)),
        ]));
    }
    let n_rows: Vec<Tuple> =
        nodes.iter().map(|n| Tuple::new(vec![Value::str(n.clone())])).collect();
    let lab_rows: Vec<Tuple> = nodes
        .iter()
        .map(|n| Tuple::new(vec![Value::str(n.clone()), Value::Int(rng.gen_range(0..30i64))]))
        .collect();

    let threshold = rng.gen_range(5..25i64);
    let hub_min = rng.gen_range(1..4i64);
    let neg_src = pick(rng, &nodes);
    let seed_a = pick(rng, &nodes);
    let seed_b = pick(rng, &nodes);
    // every rewrite shape in one program: a positive cycle (tc), nonlinear
    // recursion (sg), comparisons + Eq-assignment, an existential head
    // (owner), negation over a recursive predicate (unreach), an aggregate
    // (deg) feeding a filter (hub), a union head with a reversed-argument
    // body (conn), and a ground fact for an IDB predicate (tc).
    let program = format!(
        r#"
        tc("{seed_a}", "{seed_b}").
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- tc(X, Y), e(Y, Z).
        sg(X, X) :- n(X).
        sg(X, Y) :- e(XP, X), sg(XP, YP), e(YP, Y).
        big(X) :- lab(X, V), V > {threshold}.
        owner(X, Z) :- big(X).
        price2(X, W) :- lab(X, V), W = V * 2.
        unreach(X) :- n(X), not tc("{neg_src}", X).
        deg(X, count(Y)) :- e(X, Y).
        hub(X) :- deg(X, D), D >= {hub_min}.
        conn(X, Y) :- tc(X, Y).
        conn(X, Y) :- tc(Y, X).
        "#
    );

    let c = |rng: &mut StdRng| pick(rng, &nodes);
    let (q1, q2, q3, q4, q5, q6, q7, q8, q9, q10) = (
        c(rng), c(rng), c(rng), c(rng), c(rng), c(rng), c(rng), c(rng), c(rng), c(rng),
    );
    let queries = vec![
        // bound-first / bound-second / both-bound / all-free over the cycle
        format!(r#"tc("{q1}", Y)"#),
        format!(r#"tc(X, "{q2}")"#),
        format!(r#"tc("{q1}", "{q3}")"#),
        "tc(X, Y)".to_string(),
        // nonlinear recursion with sideways demand through e
        format!(r#"sg("{q4}", Y)"#),
        // negation downstream of recursion (tc pinned unrestricted)
        format!(r#"unreach("{q5}")"#),
        // aggregate demand through the group key
        format!(r#"deg("{q6}", D)"#),
        format!(r#"hub("{q7}")"#),
        // union head with a reversed body (falls back per predicate)
        format!(r#"conn("{q8}", Y)"#),
        // skolem-carrying answers: byte-identity covers invented values
        format!(r#"owner("{q9}", Z)"#),
        // Eq-assignment propagation
        format!(r#"price2("{q10}", W)"#),
        // all-free multi-atom query: identity rewrite
        "big(X), lab(X, V)".to_string(),
        // negated query atom: the negated predicate must derive fully
        format!(r#"n(X), not tc("{q1}", X)"#),
        // empty demand set: a constant outside the domain
        r#"tc("zz", Y)"#.to_string(),
        // extensional-only query: nothing needs deriving at all
        format!(r#"lab("{q2}", V)"#),
    ];

    World { program, e_rows, n_rows, lab_rows, queries }
}

/// Build the extensional database from per-predicate row slices.
fn build_db(rows: &[(&str, &[Tuple])]) -> Database {
    let mut db = Database::new();
    for (pred, tuples) in rows {
        let schema = match *pred {
            "lab" => {
                Schema::new("lab", [("x", AttrType::Str), ("v", AttrType::Int)]).unwrap()
            }
            "e" => Schema::all_str("e", &["a", "b"]),
            _ => Schema::all_str("n", &["x"]),
        };
        let mut rel = Relation::empty(schema);
        for t in *tuples {
            rel.push(t.clone()).unwrap();
        }
        db.insert_relation(&rel);
    }
    db
}

/// Answers in order, or the error: "same first error" is part of the pin.
fn render(answers: &Result<Vec<Tuple>>) -> String {
    match answers {
        Ok(rows) => rows.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>().join("\n"),
        Err(e) => format!("error: {e}"),
    }
}

/// The headline pin: `run_query` (directed) ≡ `Engine::run` + `eval_query`
/// (undirected, the reference) per query, for full and incremental
/// evaluation, on seed-logged randomized worlds.
#[test]
fn directed_equals_undirected_across_the_knob_matrix() {
    for seed in 0..5u64 {
        println!("query_equivalence: seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        let world = random_world(&mut rng);
        let program = parse_program(&world.program).unwrap();

        // split each extensional relation: the tail arrives as the
        // incremental legs' delta, everything else is the base load
        let split = |rows: &[Tuple]| {
            let k = rows.len().saturating_sub(rows.len() / 4).max(1).min(rows.len());
            (rows[..k].to_vec(), rows[k..].to_vec())
        };
        let (e_base, e_delta) = split(&world.e_rows);
        let (n_base, n_delta) = split(&world.n_rows);
        let (lab_base, lab_delta) = split(&world.lab_rows);
        let delta_pairs: Vec<(String, Tuple)> = e_delta
            .iter()
            .map(|t| ("e".to_string(), t.clone()))
            .chain(n_delta.iter().map(|t| ("n".to_string(), t.clone())))
            .chain(lab_delta.iter().map(|t| ("lab".to_string(), t.clone())))
            .collect();
        // the full-evaluation database loads base rows then delta rows, the
        // same per-predicate order the incremental session sees
        let full_rows: Vec<(&str, Vec<Tuple>)> = vec![
            ("e", e_base.iter().chain(&e_delta).cloned().collect()),
            ("n", n_base.iter().chain(&n_delta).cloned().collect()),
            ("lab", lab_base.iter().chain(&lab_delta).cloned().collect()),
        ];
        let full_slices: Vec<(&str, &[Tuple])> =
            full_rows.iter().map(|(p, v)| (*p, v.as_slice())).collect();
        let base_slices: Vec<(&str, &[Tuple])> = vec![
            ("e", e_base.as_slice()),
            ("n", n_base.as_slice()),
            ("lab", lab_base.as_slice()),
        ];

        // the reference: every query evaluated over the full fixpoint,
        // which is query-independent
        let engine = Engine::default();
        let fixpoint = engine.run(&program, build_db(&full_slices));
        let queries: Vec<_> = world.queries.iter().map(|q| parse_query(q).unwrap()).collect();
        let baselines: Vec<String> = queries
            .iter()
            .map(|query| match &fixpoint {
                Ok(full) => render(&engine.eval_query(query, full)),
                Err(e) => render(&Err(e.clone())),
            })
            .collect();

        let db = build_db(&full_slices);
        // Incremental leg: a session materializes the full program, so
        // evaluating over its database must give the reference answers
        let mut session = IncrementalSession::new(EngineConfig::default(), &world.program).unwrap();
        session.run_full(build_db(&base_slices)).unwrap();
        session.apply(delta_pairs.clone()).unwrap();

        for (qi, (query, baseline)) in queries.iter().zip(&baselines).enumerate() {
            let qsrc = &world.queries[qi];
            assert_eq!(
                &render(&engine.run_query(&program, &db, query)),
                baseline,
                "seed {seed} query #{qi} `{qsrc}` full"
            );
            assert_eq!(
                &render(&engine.eval_query(query, session.database())),
                baseline,
                "seed {seed} query #{qi} `{qsrc}` incr"
            );
        }
    }
}

/// `run_query` under the default config is the demand-driven path: a bound
/// recursive query rewrites and reaches its fixpoint in strictly fewer
/// semi-naive passes than `Engine::run`, an all-free query resolves to the
/// identity rewrite, and an empty program short-circuits before either.
#[test]
fn run_query_is_demand_driven_under_the_default_config() {
    let mut src = String::new();
    for i in 0..40 {
        src.push_str(&format!("e(\"c{i}\", \"c{}\").\n", i + 1));
    }
    src.push_str("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).");
    let program = parse_program(&src).unwrap();
    let observed = || {
        let obs = Obs::enabled();
        (Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() }), obs)
    };

    let (engine, full_obs) = observed();
    engine.run(&program, Database::new()).unwrap();
    assert_eq!(full_obs.get(obs_key::MAGIC_APPLIED), 0, "Engine::run never rewrites");

    let (engine, obs) = observed();
    let bound = parse_query(r#"tc("c35", Y)"#).unwrap();
    assert_eq!(engine.run_query(&program, &Database::new(), &bound).unwrap().len(), 5);
    assert_eq!(obs.get(obs_key::MAGIC_APPLIED), 1);
    assert_eq!(obs.get(obs_key::MAGIC_UNRESTRICTED), 0);
    // magic-program passes included, demand still converges far sooner
    assert!(
        obs.get(obs_key::DELTA_PASSES) < full_obs.get(obs_key::DELTA_PASSES),
        "demanded {} vs full {} delta passes",
        obs.get(obs_key::DELTA_PASSES),
        full_obs.get(obs_key::DELTA_PASSES)
    );

    let (engine, obs) = observed();
    let free = parse_query("tc(X, Y)").unwrap();
    engine.run_query(&program, &Database::new(), &free).unwrap();
    assert_eq!(obs.get(obs_key::MAGIC_UNRESTRICTED), 1);
    assert_eq!(obs.get(obs_key::MAGIC_APPLIED), 0);

    let (engine, obs) = observed();
    let mut db = Database::new();
    db.insert("e", Tuple::new(vec![Value::str("c0"), Value::str("c1")]));
    let ext = parse_query(r#"e("c0", Y)"#).unwrap();
    let empty = parse_program("").unwrap();
    assert_eq!(engine.run_query(&empty, &db, &ext).unwrap().len(), 1);
    assert_eq!(obs.get(obs_key::MAGIC_APPLIED) + obs.get(obs_key::MAGIC_UNRESTRICTED), 0);
    assert!(obs.span_records().iter().all(|s| s.name != "datalog/run"));
}

/// Bound queries must actually restrict: on a world where demand provably
/// prunes, the directed run materializes strictly fewer facts while the
/// answers stay identical. (The ≥10× bar on a large base lives in the
/// `datalog_magic_vs_full` benchmark; this is the structural pin.)
#[test]
fn directed_materializes_a_subset_and_prunes_bound_queries() {
    let mut src = String::new();
    for i in 0..40 {
        src.push_str(&format!("e(\"c{i}\", \"c{}\").\n", i + 1));
    }
    src.push_str("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).");
    let program = parse_program(&src).unwrap();
    let query = parse_query(r#"tc("c35", Y)"#).unwrap();
    let engine = Engine::default();
    let full = engine.run(&program, Database::new()).unwrap();
    let directed = engine.run_directed(&program, Database::new(), &query).unwrap();
    assert!(
        directed.facts("tc").len() < full.facts("tc").len() / 10,
        "directed kept {} of {} tc facts",
        directed.facts("tc").len(),
        full.facts("tc").len()
    );
    // the kept sequence is a subsequence of the full sequence…
    let full_tc = full.facts("tc");
    let mut cursor = 0;
    for t in directed.facts("tc") {
        let pos = full_tc[cursor..]
            .iter()
            .position(|x| x == t)
            .expect("directed fact missing from the full run");
        cursor += pos + 1;
    }
    // …and the answers are byte-identical
    assert_eq!(
        engine.eval_query(&query, &directed).unwrap(),
        engine.eval_query(&query, &full).unwrap()
    );
}

/// Failure injection: a panic in the magic-rewrite stage surfaces through
/// `run_query` as a [`VadaError::Parallel`]-style error naming the stage —
/// and nowhere else: `Engine::run` and incremental
/// sessions materialize the full program, so the rewrite stage never runs
/// and the fault never fires.
#[test]
fn injected_rewrite_fault_is_identical_at_every_level() {
    let mut rng = StdRng::seed_from_u64(7);
    let world = random_world(&mut rng);
    let program = parse_program(&world.program).unwrap();
    let query = parse_query(&world.queries[0]).unwrap();
    let rows: Vec<(&str, &[Tuple])> =
        vec![("e", &world.e_rows), ("n", &world.n_rows), ("lab", &world.lab_rows)];

    let cfg = EngineConfig { inject_fault: Some("magic-rewrite"), ..EngineConfig::default() };
    let engine = Engine::new(cfg.clone());
    let err = engine.run_query(&program, &build_db(&rows), &query).unwrap_err();
    assert_eq!(err.kind(), "parallel", "{err}");
    assert!(err.to_string().contains("datalog/magic_rewrite"), "{err}");

    engine.run(&program, build_db(&rows)).unwrap();
    let mut session = IncrementalSession::new(cfg, &world.program).unwrap();
    session.run_full(build_db(&rows)).unwrap();
}

/// Failure injection: a panic where a rule asks a fact set for its join
/// index (the `datalog/index_build` stage) surfaces as the same error
/// through `run_query` and `Engine::run` alike (demanded and full runs read
/// their indexes the same way), and through incremental sessions' full
/// materialization.
#[test]
fn injected_index_build_fault_is_identical_at_every_level() {
    let mut rng = StdRng::seed_from_u64(11);
    let world = random_world(&mut rng);
    let program = parse_program(&world.program).unwrap();
    let query = parse_query(&world.queries[0]).unwrap();
    let rows: Vec<(&str, &[Tuple])> =
        vec![("e", &world.e_rows), ("n", &world.n_rows), ("lab", &world.lab_rows)];

    let cfg = EngineConfig { inject_fault: Some("index-build"), ..EngineConfig::default() };
    let engine = Engine::new(cfg.clone());
    let err = engine.run_query(&program, &build_db(&rows), &query).unwrap_err();
    assert_eq!(err.kind(), "parallel", "{err}");
    let mut errors = vec![err.to_string()];
    errors.push(engine.run(&program, build_db(&rows)).unwrap_err().to_string());

    let mut session = IncrementalSession::new(cfg, &world.program).unwrap();
    errors.push(session.run_full(build_db(&rows)).unwrap_err().to_string());
    assert!(errors[0].contains("datalog/index_build"), "{}", errors[0]);
    assert!(errors.iter().all(|e| e == &errors[0]), "{errors:?}");
}
