//! Property-based tests for the Datalog engine: the fixpoint must agree
//! with an independently computed reference closure, positive programs must
//! be monotone in their input, and evaluation must be deterministic.

use proptest::prelude::*;

use vada_common::{tuple, Tuple};
use vada_datalog::{parse_program, Database, Engine};

fn edges_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for &(a, b) in edges {
        db.insert("edge", tuple![a as i64, b as i64]);
    }
    db
}

const TC_PROGRAM: &str = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";

/// Reference transitive closure via iterated composition over pair sets.
fn reference_tc(edges: &[(u8, u8)]) -> std::collections::BTreeSet<(u8, u8)> {
    let mut tc: std::collections::BTreeSet<(u8, u8)> = edges.iter().copied().collect();
    loop {
        let mut added = Vec::new();
        for &(a, b) in &tc {
            for &(c, d) in edges {
                if b == c && !tc.contains(&(a, d)) {
                    added.push((a, d));
                }
            }
        }
        if added.is_empty() {
            break;
        }
        tc.extend(added);
    }
    tc
}

/// The fact-set representation the row-id table replaced, kept as the
/// oracle: every tuple stored twice, in a `Vec` for order and a `HashSet`
/// for membership.
#[derive(Default)]
struct OracleSet {
    tuples: Vec<Tuple>,
    set: std::collections::HashSet<Tuple>,
}

impl OracleSet {
    fn insert(&mut self, t: Tuple) -> bool {
        let new = self.set.insert(t.clone());
        if new {
            self.tuples.push(t);
        }
        new
    }

    fn remove(&mut self, t: &Tuple) -> Option<usize> {
        let row = self.tuples.iter().position(|x| x == t)?;
        self.set.remove(t);
        self.tuples.remove(row);
        Some(row)
    }

    fn remove_all(&mut self, gone: &[Tuple]) -> Vec<usize> {
        let rows = (0..self.tuples.len()).filter(|&r| gone.contains(&self.tuples[r])).collect();
        self.tuples.retain(|t| !gone.contains(t));
        self.set.retain(|t| !gone.contains(t));
        rows
    }

    fn insert_at(&mut self, row: usize, facts: Vec<Tuple>) -> usize {
        let block: Vec<Tuple> = facts.into_iter().filter(|t| self.set.insert(t.clone())).collect();
        let added = block.len();
        self.tuples.splice(row..row, block);
        added
    }
}

/// A fact of arity 0–3 over values chosen to collide under `Value`'s
/// equality: `Int(1)`/`Float(1.0)`, `0.0`/`-0.0`/`Int(0)`, NaN, null, and
/// the empty string beside plain ints and strings.
fn store_fact(code: u16) -> Tuple {
    use vada_common::Value;
    let pool = [
        Value::Null,
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(f64::NAN),
        Value::Float(1.5),
        Value::Bool(true),
        Value::str(""),
        Value::str("a"),
        Value::Int(7),
    ];
    let arity = (code % 4) as usize;
    let mut rest = (code / 4) as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(pool[rest % pool.len()].clone());
        rest /= pool.len();
    }
    Tuple::new(values)
}

proptest! {
    #[test]
    fn fact_set_matches_the_two_copy_oracle(
        script in proptest::collection::vec((0u8..9, 0u16..6912), 1..600)
    ) {
        // random insert / contains / remove / remove_all / insert_at
        // scripts, long enough to double the table several times, compared
        // with the old representation after every step: a block insert
        // must re-label every row id the table holds, and the removals
        // report the rows they emptied
        use vada_datalog::engine::FactSet;
        let mut fs = FactSet::default();
        let mut oracle = OracleSet::default();
        for &(op, code) in &script {
            let t = store_fact(code);
            let len = oracle.tuples.len();
            match op {
                0..=4 => prop_assert_eq!(fs.insert(t.clone()), oracle.insert(t), "insert {}", code),
                5 => prop_assert_eq!(fs.contains(&t), oracle.set.contains(&t), "contains {}", code),
                6 => prop_assert_eq!(fs.remove(&t), oracle.remove(&t), "remove {}", code),
                7 => {
                    let gone: Vec<Tuple> =
                        (0..5).map(|k| store_fact(code.wrapping_add(k * 13))).collect();
                    prop_assert_eq!(fs.remove_all(&gone), oracle.remove_all(&gone));
                }
                _ => {
                    // a block of three, present or repeated facts among them
                    let row = code as usize % (len + 1);
                    let block: Vec<Tuple> =
                        [0u16, 17, 0].iter().map(|k| store_fact(code.wrapping_add(*k))).collect();
                    prop_assert_eq!(
                        fs.insert_at(row, block.clone()),
                        oracle.insert_at(row, block),
                        "insert_at {} row {}", code, row
                    );
                }
            }
            prop_assert_eq!(fs.tuples(), oracle.tuples.as_slice());
            prop_assert_eq!(fs.len(), oracle.tuples.len());
        }
        for code in 0u16..6912 {
            let t = store_fact(code);
            prop_assert_eq!(fs.contains(&t), oracle.set.contains(&t), "membership of {}", t);
        }
        // probing with another set's stored hashes answers the same
        let mut every = FactSet::default();
        for code in 0u16..6912 {
            every.insert(store_fact(code));
        }
        for (row, t) in every.tuples().iter().enumerate() {
            let held = oracle.set.contains(t);
            let found = fs.row_of(&every, row).map(|r| &fs.tuples()[r]);
            prop_assert_eq!(found, held.then_some(t), "row of {}", t);
        }
        // remove-then-reinsert moves a fact to the end, like a first insert
        if let Some(first) = oracle.tuples.first().cloned() {
            prop_assert!(fs.remove(&first) == Some(0) && oracle.remove(&first) == Some(0));
            prop_assert!(fs.insert(first.clone()) && oracle.insert(first.clone()));
            prop_assert_eq!(fs.tuples().last(), Some(&first));
            prop_assert_eq!(fs.tuples(), oracle.tuples.as_slice());
        }
    }

    #[test]
    fn insert_shared_equals_one_by_one_insertion(
        blocks in proptest::collection::vec(proptest::collection::vec(0u16..300, 0..40), 1..6),
        loose in proptest::collection::vec((0u8..6, 0u16..300), 0..20)
    ) {
        // fact-set blocks loaded shared (the same block more than once
        // among them), with single inserts in between, against the same
        // facts inserted one by one: same order, same dedup, and every
        // donor's facts untouched — by the load and by later writes
        use std::sync::Arc;
        use vada_datalog::engine::FactSet;
        let donors: Vec<Arc<FactSet>> = blocks
            .iter()
            .map(|codes| {
                let mut fs = FactSet::default();
                for &c in codes {
                    fs.insert(store_fact(c));
                }
                Arc::new(fs)
            })
            .collect();
        let before: Vec<Vec<Tuple>> = donors.iter().map(|d| d.tuples().to_vec()).collect();
        let mut shared = Database::new();
        let mut one_by_one = Database::new();
        for (i, donor) in donors.iter().chain(donors.first()).enumerate() {
            shared.insert_shared("p", donor.clone());
            for t in donor.tuples() {
                one_by_one.insert("p", t.clone());
            }
            for &(at, code) in &loose {
                if at as usize == i {
                    let t = store_fact(code);
                    prop_assert_eq!(shared.insert("p", t.clone()), one_by_one.insert("p", t));
                }
            }
            prop_assert_eq!(shared.facts("p"), one_by_one.facts("p"));
        }
        if let Some(t) = shared.facts("p").first().cloned() {
            prop_assert_eq!(shared.remove("p", &t), one_by_one.remove("p", &t));
        }
        prop_assert_eq!(shared.facts("p"), one_by_one.facts("p"));
        let after: Vec<Vec<Tuple>> = donors.iter().map(|d| d.tuples().to_vec()).collect();
        prop_assert_eq!(after, before);
    }

    #[test]
    fn seminaive_matches_reference_closure(
        edges in proptest::collection::vec((0u8..12, 0u8..12), 0..40)
    ) {
        let program = parse_program(TC_PROGRAM).unwrap();
        let db = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let got: std::collections::BTreeSet<(u8, u8)> = db
            .facts("tc")
            .iter()
            .map(|t| (t[0].as_int().unwrap() as u8, t[1].as_int().unwrap() as u8))
            .collect();
        prop_assert_eq!(got, reference_tc(&edges));
    }

    #[test]
    fn fixpoint_is_idempotent(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30)
    ) {
        // the engine's output is a fixpoint: feeding it back in as the
        // input database and re-running the same program adds no facts
        let program = parse_program(TC_PROGRAM).unwrap();
        let once = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let twice = Engine::default().run(&program, once.clone()).unwrap();
        let preds: std::collections::BTreeSet<&str> =
            once.predicates().into_iter().chain(twice.predicates()).collect();
        for pred in preds {
            prop_assert_eq!(
                twice.facts(pred).len(),
                once.facts(pred).len(),
                "re-running to fixpoint changed the fact count for {}", pred
            );
            for t in twice.facts(pred) {
                prop_assert!(once.contains(pred, t), "re-run invented fact {}({})", pred, t);
            }
        }
    }

    #[test]
    fn positive_programs_are_monotone(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30),
        extra in proptest::collection::vec((0u8..10, 0u8..10), 0..10)
    ) {
        let program = parse_program(TC_PROGRAM).unwrap();
        let small = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let mut all = edges.clone();
        all.extend(&extra);
        let large = Engine::default().run(&program, edges_db(&all)).unwrap();
        for t in small.facts("tc") {
            prop_assert!(large.contains("tc", t), "lost fact {t} after adding inputs");
        }
    }

    #[test]
    fn evaluation_is_deterministic(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..30)
    ) {
        let src = format!(
            "{TC_PROGRAM}\n\
             deg(X, count(Y)) :- edge(X, Y).\n\
             invented(X, Z) :- deg(X, N), N >= 2."
        );
        let program = parse_program(&src).unwrap();
        let a = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let b = Engine::default().run(&program, edges_db(&edges)).unwrap();
        for pred in a.predicates() {
            let fa: Vec<&Tuple> = a.facts(pred).iter().collect();
            let fb: Vec<&Tuple> = b.facts(pred).iter().collect();
            prop_assert_eq!(fa, fb, "nondeterministic facts for {}", pred);
        }
    }

    #[test]
    fn negation_complements_positive(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 0..20)
    ) {
        // every (x, y) node pair is in exactly one of reach / noreach
        let src = "
            node(X) :- edge(X, _).
            node(Y) :- edge(_, Y).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            noreach(X, Y) :- node(X), node(Y), not reach(X, Y).
        ";
        let program = parse_program(src).unwrap();
        let db = Engine::default().run(&program, edges_db(&edges)).unwrap();
        let nodes: Vec<i64> = db.facts("node").iter().map(|t| t[0].as_int().unwrap()).collect();
        for &x in &nodes {
            for &y in &nodes {
                let pair = tuple![x, y];
                let in_reach = db.contains("reach", &pair);
                let in_noreach = db.contains("noreach", &pair);
                prop_assert!(in_reach ^ in_noreach,
                    "pair ({x},{y}) reach={in_reach} noreach={in_noreach}");
            }
        }
    }

    #[test]
    fn counting_invariants_hold_under_retraction(
        rows in proptest::collection::vec((0u8..6, 0u8..12), 1..30),
        links in proptest::collection::vec((0u8..6, 0u8..12), 1..20),
        kills in proptest::collection::vec((0u8..3, 0u8..30), 1..8)
    ) {
        // a two-level non-recursive program maintained by counting: q has
        // one derivation per matching r row, wide multiplies q by w; a kill
        // takes one r or w row, or every r row of one X (so `q(X)` loses
        // its whole support and counting commits)
        use vada_datalog::incremental::{DeltaMode, IncrementalSession};
        use vada_datalog::EngineConfig;
        let src = "q(X) :- r(X, _). wide(X, Z) :- q(X), w(X, Z).";
        let mut input = Database::new();
        for &(x, y) in &rows {
            input.insert("r", tuple![x as i64, y as i64]);
        }
        for &(x, z) in &links {
            input.insert("w", tuple![x as i64, z as i64]);
        }
        let mut session = IncrementalSession::new(EngineConfig::default(), src).unwrap();
        session.run_full(input.clone()).unwrap();

        // retract a random subset of existing facts (structural pick)
        let mut removals: Vec<(String, Tuple)> = Vec::new();
        for &(which, nth) in &kills {
            if which == 2 {
                let x = (nth % 6) as i64;
                for t in input.facts("r").iter().filter(|t| t[0].as_int() == Some(x)) {
                    removals.push(("r".to_string(), t.clone()));
                }
                continue;
            }
            let pred = if which == 0 { "r" } else { "w" };
            let facts = input.facts(pred);
            if facts.is_empty() {
                continue;
            }
            removals.push((pred.to_string(), facts[nth as usize % facts.len()].clone()));
        }
        let mut shrunk = Database::new();
        for pred in input.predicates() {
            for t in input.facts(pred) {
                if !removals.iter().any(|(p, d)| p == pred && d == t) {
                    shrunk.insert(pred, t.clone());
                }
            }
        }
        let r_shrank = removals.iter().any(|(p, _)| p == "r");
        session.retract(removals).unwrap();
        // counting falls back on this program only when a `q` fact keeps
        // some of its `r` rows (`wide` derives each fact once)
        let out = session.last_outcome().unwrap();
        let fell_back = out.mode == DeltaMode::FullFallback;
        prop_assert!(
            out.mode == DeltaMode::Incremental
                || out.fallback_reason.as_deref() == Some("partially supported fact in `q`"),
            "counting falls back only on partial support: {:?}", out
        );

        // reference: the scratch fixpoint over the shrunk input, with
        // derivation counts re-enumerated per rule
        let program = parse_program(src).unwrap();
        let scratch = Engine::default().run(&program, shrunk.clone()).unwrap();
        for pred in ["q", "wide"] {
            prop_assert_eq!(
                session.database().facts(pred),
                scratch.facts(pred),
                "facts or order drifted for {}", pred
            );
            // `q`'s counts are captured by a retraction that reaches it and
            // dropped by a re-derivation; `wide`'s are its facts
            let Some(counts) = session.derivation_counts(pred) else {
                prop_assert!(pred == "q" && (fell_back || !r_shrank), "{} uncounted", pred);
                continue;
            };
            // zero iff the fact left the fixpoint (counts drop their zero
            // entries, so the key set IS the positive-count set)
            let alive: std::collections::BTreeSet<&Tuple> = counts.keys().collect();
            let expect: std::collections::BTreeSet<&Tuple> = scratch.facts(pred).iter().collect();
            prop_assert_eq!(alive, expect, "count support drifted for {}", pred);
        }
    }

    #[test]
    fn adopted_sessions_match_full_runs_after_every_edit(
        rows in proptest::collection::vec((0u8..4, 0u8..5, 0u8..8), 1..30),
        script in proptest::collection::vec((0u8..3, 0u8..4, 0u8..5, 0u8..8), 1..16)
    ) {
        // tracked multi-rule terminal heads: `all`, whose rules project a
        // variable away, so its counts come with its segments, and `both`,
        // whose rules derive a fact once each, so its segments are its
        // counts; `picked` counted on the first retraction, and `wide`,
        // downstream of it, derived once per binding
        use vada_datalog::incremental::IncrementalSession;
        use vada_datalog::parser::parse_query;
        use vada_datalog::EngineConfig;
        let src = "all(X) :- a(X, Y). all(X) :- b(X, Y). \
                   both(X, Y) :- a(X, Y). both(X, Y) :- b(X, Y). \
                   picked(X) :- a(X, Y), k(Y). wide(X, Z) :- picked(X), w(X, Z).";
        // per counted head, one body per defining rule: the oracle counts a
        // fact's derivations as the distinct bindings of those bodies (the
        // head is the prefix of the binding) over the scratch fixpoint
        let bodies = [
            ("all", "a(X, Y)"),
            ("all", "b(X, Y)"),
            ("both", "a(X, Y)"),
            ("both", "b(X, Y)"),
            ("picked", "a(X, Y), k(Y)"),
            ("wide", "picked(X), w(X, Z)"),
        ];
        let fact = |pred: u8, x: u8, y: u8| {
            let name = ["a", "b", "k", "w"][pred as usize];
            let t = if name == "k" { tuple![y as i64] } else { tuple![x as i64, y as i64] };
            (name.to_string(), t)
        };
        let mut input = Database::new();
        for &(p, x, y) in &rows {
            let (name, t) = fact(p, x, y);
            input.insert(&name, t);
        }
        let program = parse_program(src).unwrap();
        let output = Engine::default().run(&program, input.clone()).unwrap();
        let mut adopted =
            IncrementalSession::adopt(EngineConfig::default(), src, input.clone(), output).unwrap();
        let mut full = IncrementalSession::new(EngineConfig::default(), src).unwrap();
        full.run_full(input.clone()).unwrap();
        for head in ["all", "both"] {
            let counted = adopted.derivation_counts(head).is_some();
            prop_assert!(counted, "{} counted with the segments", head);
        }

        for (step, &(op, p, x, y)) in script.iter().enumerate() {
            let delta = if op == 0 {
                // retract an existing fact, picked structurally
                let name = fact(p, 0, 0).0;
                let facts = input.facts(&name);
                if facts.is_empty() {
                    continue;
                }
                let t = facts[(x as usize * 8 + y as usize) % facts.len()].clone();
                input.remove(&name, &t);
                vec![(name, t)]
            } else {
                let delta = vec![fact(p, x, y), fact(p, (x + 1) % 5, y)];
                for (name, t) in &delta {
                    input.insert(name, t.clone());
                }
                delta
            };
            for session in [&mut adopted, &mut full] {
                if op == 0 {
                    session.retract(delta.clone()).unwrap();
                } else {
                    session.apply(delta.clone()).unwrap();
                }
            }
            let (got, want) = (adopted.database(), full.database());
            prop_assert_eq!(got.predicates(), want.predicates(), "step {}", step);
            for pred in want.predicates() {
                prop_assert_eq!(got.facts(pred), want.facts(pred), "step {}: {}", step, pred);
            }
            let scratch = Engine::default().run(&program, input.clone()).unwrap();
            for head in ["all", "both", "picked", "wide"] {
                let mut oracle: std::collections::HashMap<Tuple, u64> = Default::default();
                for (_, body) in bodies.iter().filter(|(h, _)| *h == head) {
                    let query = parse_query(body).unwrap();
                    for binding in Engine::default().eval_query(&query, &scratch).unwrap() {
                        let arity = scratch.facts(head).first().map_or(0, |t| t.arity());
                        let fact: Tuple = binding.iter().take(arity).cloned().collect();
                        *oracle.entry(fact).or_insert(0) += 1;
                    }
                }
                for session in [&adopted, &full] {
                    if let Some(counts) = session.derivation_counts(head) {
                        prop_assert_eq!(&counts, &oracle, "step {}: counts of {}", step, head);
                    }
                }
            }
        }
    }

    #[test]
    fn magic_restriction_equals_full_on_demanded_atoms(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 1..40),
        start in 0u8..10
    ) {
        // the demand-restricted fixpoint, projected onto the demanded
        // atoms, must equal the undirected fixpoint projected onto the
        // same atoms — and since the directed run keeps exactly the
        // demanded atoms, its database IS that projection of the full run
        // (same facts, same insertion order)
        use vada_datalog::parser::parse_query;
        let program = parse_program(TC_PROGRAM).unwrap();
        let query = parse_query(&format!("tc({start}, Y)")).unwrap();
        let engine = Engine::default();
        let demand = engine.demand(&program, &edges_db(&edges), &query).unwrap();
        prop_assert!(!demand.is_unrestricted(), "{:?}", demand.fallback_reason());
        let full = engine.run(&program, edges_db(&edges)).unwrap();
        let directed = engine.run_directed(&program, edges_db(&edges), &query).unwrap();
        let kept: Vec<&Tuple> =
            full.facts("tc").iter().filter(|t| demand.keeps("tc", t.values())).collect();
        let got: Vec<&Tuple> = directed.facts("tc").iter().collect();
        prop_assert_eq!(got, kept, "directed run drifted from the demand projection");
        prop_assert_eq!(
            engine.eval_query(&query, &directed).unwrap(),
            engine.eval_query(&query, &full).unwrap()
        );
    }

    #[test]
    fn all_free_query_rewrites_to_identity(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 1..30)
    ) {
        // a query with no bound arguments demands everything: the rewrite
        // reports the identity fallback and the directed run is
        // byte-identical to the undirected one, every predicate included
        use vada_datalog::parser::parse_query;
        let program = parse_program(TC_PROGRAM).unwrap();
        let query = parse_query("tc(X, Y)").unwrap();
        let engine = Engine::default();
        let demand = engine.demand(&program, &edges_db(&edges), &query).unwrap();
        prop_assert!(demand.is_unrestricted());
        prop_assert!(
            demand.fallback_reason().unwrap().contains("identity"),
            "{:?}", demand.fallback_reason()
        );
        let full = engine.run(&program, edges_db(&edges)).unwrap();
        let directed = engine.run_directed(&program, edges_db(&edges), &query).unwrap();
        let preds: std::collections::BTreeSet<&str> =
            full.predicates().into_iter().chain(directed.predicates()).collect();
        for pred in preds {
            prop_assert_eq!(directed.facts(pred), full.facts(pred), "drift in {}", pred);
        }
    }

    #[test]
    fn aggregate_counts_match_manual_grouping(
        pairs in proptest::collection::vec((0u8..6, 0i64..100), 1..40)
    ) {
        let mut db = Database::new();
        for &(g, v) in &pairs {
            db.insert("item", tuple![g as i64, v]);
        }
        let program = parse_program("cnt(G, count(V)) :- item(G, V).").unwrap();
        let out = Engine::default().run(&program, db.clone()).unwrap();
        // manual set-semantics grouping
        let mut groups: std::collections::BTreeMap<i64, std::collections::BTreeSet<i64>> =
            Default::default();
        for t in db.facts("item") {
            groups.entry(t[0].as_int().unwrap()).or_default().insert(t[1].as_int().unwrap());
        }
        prop_assert_eq!(out.facts("cnt").len(), groups.len());
        for t in out.facts("cnt") {
            let g = t[0].as_int().unwrap();
            prop_assert_eq!(t[1].as_int().unwrap() as usize, groups[&g].len());
        }
    }
}
