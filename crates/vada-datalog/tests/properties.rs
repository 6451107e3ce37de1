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

    fn move_row(&mut self, from: usize, to: usize) {
        let t = self.tuples.remove(from);
        self.tuples.insert(to, t);
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
        script in proptest::collection::vec((0u8..10, 0u16..6912), 1..600)
    ) {
        // random insert / contains / remove / remove_all / insert_at /
        // move_row scripts, long enough to double the table several times,
        // compared with the old representation after every step: the
        // reorders must re-label every row id the table holds, and the
        // removals report the rows they emptied
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
                8 => {
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
                _ => {
                    if len > 0 {
                        let from = code as usize % len;
                        let to = code as usize / 7 % (from + 1);
                        fs.move_row(from, to);
                        oracle.move_row(from, to);
                    }
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
            prop_assert_eq!(fs.contains_row_of(&every, row), held, "row of {}", t);
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
        kills in proptest::collection::vec((0u8..2, 0u8..30), 1..8)
    ) {
        // a two-level non-recursive program maintained by counting: q has
        // one derivation per matching r row, wide multiplies q by w
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
        session.retract(removals).unwrap();
        prop_assert_eq!(
            session.last_outcome().unwrap().mode,
            DeltaMode::Incremental,
            "counting never falls back on this program: {:?}",
            session.last_outcome()
        );

        // reference: the scratch fixpoint over the shrunk input, with
        // derivation counts re-enumerated per rule
        let program = parse_program(src).unwrap();
        let scratch = Engine::default().run(&program, shrunk.clone()).unwrap();
        for pred in ["q", "wide"] {
            let counts = session.derivation_counts(pred).unwrap();
            // zero iff the fact left the fixpoint (counts drop their zero
            // entries, so the key set IS the positive-count set)
            let alive: std::collections::BTreeSet<&Tuple> = counts.keys().collect();
            let expect: std::collections::BTreeSet<&Tuple> = scratch.facts(pred).iter().collect();
            prop_assert_eq!(alive, expect, "count support drifted for {}", pred);
            prop_assert_eq!(
                session.database().facts(pred),
                scratch.facts(pred),
                "facts or order drifted for {}", pred
            );
        }
    }

    #[test]
    fn dred_restores_exactly_the_still_derivable_facts(
        edges in proptest::collection::vec((0u8..8, 0u8..8), 1..24),
        kills in proptest::collection::vec(0u8..24, 1..5)
    ) {
        // recursive closure under deletion: DRed over-deletes everything
        // reachable from the removed edges, then re-derives what survives.
        // Whatever the path taken (pure removal commits; any restoration
        // falls back), the result must equal the scratch fixpoint — i.e.
        // phase 2 restored exactly the still-derivable over-deletions.
        use vada_datalog::incremental::{DeltaMode, IncrementalSession};
        use vada_datalog::EngineConfig;
        let mut input = edges_db(&edges);
        let mut session = IncrementalSession::new(EngineConfig::default(), TC_PROGRAM).unwrap();
        session.run_full(input.clone()).unwrap();

        let mut removals: Vec<(String, Tuple)> = Vec::new();
        for &nth in &kills {
            let facts = input.facts("edge");
            removals.push(("edge".to_string(), facts[nth as usize % facts.len()].clone()));
        }
        for (_, t) in &removals {
            input.remove("edge", t);
        }
        session.retract(removals).unwrap();

        let program = parse_program(TC_PROGRAM).unwrap();
        let scratch = Engine::default().run(&program, input.clone()).unwrap();
        prop_assert_eq!(
            session.database().facts("tc"),
            scratch.facts("tc"),
            "tc diverged from scratch after retraction ({:?})",
            session.last_outcome().map(|o| o.mode)
        );
        prop_assert_eq!(session.database().facts("edge"), scratch.facts("edge"));
        let out = session.last_outcome().unwrap();
        match out.mode {
            // pure removal: nothing re-derived, every removed tc fact is
            // genuinely underivable (it is absent from scratch)
            DeltaMode::Incremental => prop_assert_eq!(out.rederived_facts, 0, "{:?}", out),
            // a restoration happened: the fallback reason names DRed
            DeltaMode::FullFallback => prop_assert!(
                out.fallback_reason.as_deref().unwrap().contains("re-derived"),
                "{:?}", out
            ),
            DeltaMode::Bootstrap => prop_assert!(false, "unexpected bootstrap"),
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
            full.facts("tc").iter().filter(|t| demand.keeps("tc", t)).collect();
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
