//! Differential tests for demand-driven (magic-set) query evaluation:
//! answering a query under [`QueryMode::Directed`] must be **byte-identical**
//! to [`QueryMode::Undirected`] — same answer set, same answer order
//! (including deterministic skolem values), same first error — per query,
//! across randomized programs and query workloads (bound/free argument
//! patterns, negation, aggregates, positive cycles, multi-adornment
//! queries, empty demand sets) and across the full knob matrix
//! `{Sequential, Threads(4)} × {Full, Incremental}`.
//! Failure injection drives panics into the rewrite and index-build stages
//! and pins that the surfaced error is the same at every level. This is
//! the contract that makes the `VADA_MAGIC` override safe to flip in
//! production.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada_common::{AttrType, Parallelism, QueryMode, Relation, Schema, Tuple, Value};
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

fn render(rows: &[Tuple]) -> String {
    rows.iter().map(|t| format!("{t:?}")).collect::<Vec<_>>().join("\n")
}

fn config(par: Parallelism, mode: QueryMode) -> EngineConfig {
    EngineConfig { parallelism: par, query_mode: mode, ..EngineConfig::default() }
}

const PARS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Threads(4)];

/// The headline pin: directed ≡ undirected per query, across the full
/// `{parallelism} × {evaluation}` matrix, on seed-logged randomized worlds.
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

        for (qi, qsrc) in world.queries.iter().enumerate() {
            let query = parse_query(qsrc).unwrap();
            let baseline_db = build_db(&full_slices);
            let baseline = render(
                &Engine::new(config(Parallelism::Sequential, QueryMode::Undirected))
                    .run_query(&program, &baseline_db, &query)
                    .unwrap(),
            );

            for par in PARS {
                // Full evaluation legs
                for mode in [QueryMode::Undirected, QueryMode::Directed] {
                    let db = build_db(&full_slices);
                    let got = render(
                        &Engine::new(config(par, mode))
                            .run_query(&program, &db, &query)
                            .unwrap(),
                    );
                    assert_eq!(
                        got, baseline,
                        "seed {seed} query #{qi} `{qsrc}` full {par:?} {mode:?}"
                    );
                }

                // Incremental legs: a directed session must behave
                // exactly like an undirected one — same outcomes
                // (applied / fallback reasons), same materialization,
                // same query answers.
                let mut observed: Vec<(String, String)> = Vec::new();
                for mode in [QueryMode::Undirected, QueryMode::Directed] {
                    let mut session =
                        IncrementalSession::new(config(par, mode), &world.program).unwrap();
                    session
                        .run_full(build_db(&base_slices))
                        .unwrap();
                    session.apply(delta_pairs.clone()).unwrap();
                    let answers = render(
                        &Engine::new(config(par, mode))
                            .eval_query(&query, session.database())
                            .unwrap(),
                    );
                    assert_eq!(
                        answers, baseline,
                        "seed {seed} query #{qi} `{qsrc}` incr {par:?} {mode:?}"
                    );
                    observed.push((format!("{:?}", session.history()), answers));
                }
                assert_eq!(
                    observed[0], observed[1],
                    "seed {seed} query #{qi}: directed session diverged from undirected \
                     ({par:?})"
                );
            }
        }
    }
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

/// Failure injection: a panic in the magic-rewrite stage surfaces as the
/// same [`VadaError::Parallel`]-style error at every parallelism level,
/// and only on the directed path (undirected never runs the rewrite). A
/// directed *session* never runs the rewrite either — it materializes the
/// full program — so it must stay healthy.
#[test]
fn injected_rewrite_fault_is_identical_at_every_level() {
    let mut rng = StdRng::seed_from_u64(7);
    let world = random_world(&mut rng);
    let program = parse_program(&world.program).unwrap();
    let query = parse_query(&world.queries[0]).unwrap();
    let rows: Vec<(&str, &[Tuple])> =
        vec![("e", &world.e_rows), ("n", &world.n_rows), ("lab", &world.lab_rows)];

    let mut errors: Vec<String> = Vec::new();
    for par in PARS {
        let db = build_db(&rows);
        let mut cfg = config(par, QueryMode::Directed);
        cfg.inject_fault = Some("magic-rewrite");
        let err = Engine::new(cfg).run_query(&program, &db, &query).unwrap_err();
        assert_eq!(err.kind(), "parallel", "{err}");
        errors.push(err.to_string());

        // undirected ignores the rewrite fault entirely
        let mut ucfg = config(par, QueryMode::Undirected);
        ucfg.inject_fault = Some("magic-rewrite");
        Engine::new(ucfg).run_query(&program, &db, &query).unwrap();

        // a directed session materializes the full program: no rewrite
        // stage runs, so the fault never fires
        let mut scfg = config(par, QueryMode::Directed);
        scfg.inject_fault = Some("magic-rewrite");
        let mut session = IncrementalSession::new(scfg, &world.program).unwrap();
        session.run_full(build_db(&rows)).unwrap();
    }
    assert!(errors[0].contains("datalog/magic_rewrite"), "{}", errors[0]);
    assert!(errors.iter().all(|e| e == &errors[0]), "{errors:?}");
}

/// Failure injection: a panic in the shared-index build stage surfaces as
/// the same error in **both** modes (the index store serves undirected and
/// directed runs alike), at every parallelism level, and through
/// incremental sessions' full materialization.
#[test]
fn injected_index_build_fault_is_identical_at_every_level() {
    let mut rng = StdRng::seed_from_u64(11);
    let world = random_world(&mut rng);
    let program = parse_program(&world.program).unwrap();
    let query = parse_query(&world.queries[0]).unwrap();
    let rows: Vec<(&str, &[Tuple])> =
        vec![("e", &world.e_rows), ("n", &world.n_rows), ("lab", &world.lab_rows)];

    let mut errors: Vec<String> = Vec::new();
    for par in PARS {
        for mode in [QueryMode::Undirected, QueryMode::Directed] {
            let db = build_db(&rows);
            let mut cfg = config(par, mode);
            cfg.inject_fault = Some("index-build");
            let err = Engine::new(cfg).run_query(&program, &db, &query).unwrap_err();
            assert_eq!(err.kind(), "parallel", "{err}");
            errors.push(err.to_string());

            let mut scfg = config(par, mode);
            scfg.inject_fault = Some("index-build");
            let mut session = IncrementalSession::new(scfg, &world.program).unwrap();
            let serr = session.run_full(build_db(&rows)).unwrap_err();
            errors.push(serr.to_string());
        }
    }
    assert!(errors[0].contains("datalog/index_build"), "{}", errors[0]);
    assert!(errors.iter().all(|e| e == &errors[0]), "{errors:?}");
}

/// The `VADA_MAGIC` env default reaches `EngineConfig` like the other
/// knobs: unset → undirected; the all-knobs CI leg runs with it on.
#[test]
fn engine_config_default_honours_the_env_knob() {
    let expect = QueryMode::from_env();
    assert_eq!(EngineConfig::default().query_mode, expect);
}

/// The cache leg: a [`QueryCache`] driven through seed-logged randomized
/// edit scripts — appends, row removals, metadata-only steps, in-place
/// rewrites the row-delta vocabulary can't express (a pruned journal
/// window), and lineage divergence — with repeated bound-pattern queries
/// interleaved after every step. Every cached answer must be
/// byte-identical to a cold directed run over a freshly built database,
/// at every parallelism level; the pruned-window and
/// diverged-lineage steps must drop the view and rebuild clean, and the
/// `magic.cache.*` counters must account for every call exactly once.
#[test]
fn cached_queries_equal_cold_directed_runs_across_edit_scripts() {
    use vada_common::Obs;
    use vada_datalog::{CacheDelta, DeltaBatch, QueryCache};

    // one tc cycle + one non-recursive join + a filter: the recursive view
    // maintains through full fallback, the flat ones through the semi-naive
    // fast path — both must stay byte-identical to cold runs
    let program_src = r#"
        tc(X, Y) :- e(X, Y).
        tc(X, Z) :- tc(X, Y), e(Y, Z).
        res(X, W) :- e(X, Y), lab(Y, W).
        big(X) :- lab(X, V), V > 10.
    "#;
    let program = parse_program(program_src).unwrap();
    let queries =
        [r#"tc("v0", Y)"#, r#"res("v3", W)"#, "big(X)", r#"e(X, "v5")"#];

    // the deterministic script skeleton (content is seed-randomized):
    // 0 append, 1 append, 2 remove, 3 metadata-only, 4 in-place rewrite
    // (pruned window → Unknown), 5 append, 6 lineage divergence, 7 remove
    const STEPS: usize = 8;

    for seed in 0..4u64 {
        println!("query_cache_equivalence: seed {seed}");
        for par in PARS {
            let mut rng = StdRng::seed_from_u64(seed * 31 + 5);
            let obs = Obs::enabled();
            let mut cfg = config(par, QueryMode::Directed);
            cfg.obs = obs.clone();
            let mut cache = QueryCache::new(cfg.clone());

            // ground truth, in knowledge-base row order; edges are
            // unique so removal-by-value is unambiguous
            let mut e_rows: Vec<Tuple> = (0..8)
                .map(|i| {
                    Tuple::new(vec![
                        Value::str(format!("v{i}")),
                        Value::str(format!("v{}", (i + 1) % 8)),
                    ])
                })
                .collect();
            let mut lab_rows: Vec<Tuple> = (0..8)
                .map(|i| {
                    Tuple::new(vec![
                        Value::str(format!("v{i}")),
                        Value::Int(rng.gen_range(0..30i64)),
                    ])
                })
                .collect();
            let mut fresh = 0usize;

            let mut lineage = seed;
            let mut version = 0u64;
            for step in 0..STEPS {
                let delta = match step {
                    0 | 1 | 5 => {
                        // append a unique edge into the live graph plus
                        // a label for its new endpoint
                        let a = rng.gen_range(0..8usize);
                        let b = format!("w{fresh}");
                        fresh += 1;
                        let e = Tuple::new(vec![
                            Value::str(format!("v{a}")),
                            Value::str(b.clone()),
                        ]);
                        let lab = Tuple::new(vec![
                            Value::str(b),
                            Value::Int(rng.gen_range(0..30i64)),
                        ]);
                        e_rows.push(e.clone());
                        lab_rows.push(lab.clone());
                        CacheDelta::Rows(vec![DeltaBatch::Append(vec![
                            ("e".into(), e),
                            ("lab".into(), lab),
                        ])])
                    }
                    2 | 7 => {
                        let victim = e_rows.remove(rng.gen_range(0..e_rows.len()));
                        CacheDelta::Rows(vec![DeltaBatch::Remove(vec![(
                            "e".into(),
                            victim,
                        )])])
                    }
                    3 => CacheDelta::Unchanged,
                    4 => {
                        // rewrite a label in place: inexpressible as an
                        // ordered append/remove suffix, i.e. the journal
                        // window was pruned under the view
                        let i = rng.gen_range(0..lab_rows.len());
                        lab_rows[i] = Tuple::new(vec![
                            lab_rows[i][0].clone(),
                            Value::Int(rng.gen_range(0..30i64)),
                        ]);
                        CacheDelta::Unknown
                    }
                    6 => {
                        // a different journal identity: even an innocent
                        // delta claim must not be trusted
                        lineage += 1000;
                        e_rows.remove(0);
                        CacheDelta::Unchanged
                    }
                    _ => unreachable!(),
                };
                version += 1;

                let slices: Vec<(&str, &[Tuple])> =
                    vec![("e", &e_rows), ("lab", &lab_rows)];
                for (qi, qsrc) in queries.iter().enumerate() {
                    let query = parse_query(qsrc).unwrap();
                    let cold_db = build_db(&slices);
                    let cold = render(
                        &Engine::new(cfg.clone())
                            .run_query(&program, &cold_db, &query)
                            .unwrap(),
                    );
                    // first call maintains or rebuilds, the repeat must
                    // serve warm; both byte-identical to the cold run
                    for repeat in 0..2 {
                        let got = render(
                            &cache
                                .query(program_src, qsrc, lineage, version, delta.clone(), || {
                                    Ok(build_db(&slices))
                                })
                                .unwrap(),
                        );
                        assert_eq!(
                            got, cold,
                            "seed {seed} step {step} query #{qi} `{qsrc}` repeat {repeat} \
                             {par:?}"
                        );
                    }
                }
            }

            // counter audit: every call lands on exactly one counter;
            // only the initial colds are misses, and exactly the
            // pruned-window + diverged-lineage steps invalidate
            let q = queries.len() as u64;
            let calls = (STEPS as u64) * q * 2;
            let (hits, misses, invalidations) = (
                obs.get(vada_common::obs::key::MAGIC_CACHE_HITS),
                obs.get(vada_common::obs::key::MAGIC_CACHE_MISSES),
                obs.get(vada_common::obs::key::MAGIC_CACHE_INVALIDATIONS),
            );
            assert_eq!(misses, q, "{par:?}");
            assert_eq!(invalidations, 2 * q, "{par:?}");
            assert_eq!(hits, calls - misses - invalidations, "{par:?}");
        }
    }
}

/// The warm-path acceptance pin at the engine level: a repeated bound
/// query over an unchanged base does **zero** `datalog/index_build` work
/// and **zero** stratum passes — the counters prove the repeat never
/// re-derives or re-indexes anything.
#[test]
fn repeated_bound_query_on_unchanged_base_does_no_evaluation_work() {
    use vada_common::Obs;
    use vada_datalog::{CacheDelta, QueryCache};

    let program_src = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).";
    let mut db = Database::new();
    for i in 0..30 {
        db.insert(
            "e",
            Tuple::new(vec![Value::Int(i), Value::Int(i + 1)]),
        );
    }

    let obs = Obs::enabled();
    let mut cfg = EngineConfig { query_mode: QueryMode::Directed, ..EngineConfig::default() };
    cfg.obs = obs.clone();
    let mut cache = QueryCache::new(cfg);

    let build = || {
        let mut fresh = Database::new();
        for i in 0..30 {
            fresh.insert("e", Tuple::new(vec![Value::Int(i), Value::Int(i + 1)]));
        }
        Ok(fresh)
    };
    let cold = cache
        .query(program_src, r#"tc(3, Y)"#, 1, 1, CacheDelta::Unchanged, build)
        .unwrap();
    assert!(!cold.is_empty());

    use vada_common::obs::key as obs_key;
    let passes = obs.get(obs_key::STRATUM_PASSES);
    assert!(passes > 0, "the cold build must have derived something");
    let builds = obs.get(obs_key::INDEX_BUILDS);
    let warm = cache
        .query(program_src, r#"tc(3, Y)"#, 1, 1, CacheDelta::Unchanged, build)
        .unwrap();
    assert_eq!(warm, cold);
    assert_eq!(obs.get(obs_key::STRATUM_PASSES), passes, "a warm hit re-derived");
    assert_eq!(obs.get(obs_key::INDEX_BUILDS), builds, "a warm hit re-indexed");
}
