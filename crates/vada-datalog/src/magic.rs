//! Demand-driven evaluation: the magic-set / sideways-information-passing
//! rewrite and the demand run that evaluates it.
//!
//! ## How demand restricts the fixpoint without changing it
//!
//! [`Engine::run_query`] is always demand-driven, and its answers are
//! byte-identical to evaluating the query over [`Engine::run`]'s full
//! fixpoint. The directed path earns that structurally rather than by
//! re-sorting:
//! the stratified semi-naive loop runs **exactly the same rules in exactly
//! the same pass order** as the undirected run, with one change — a derived
//! fact is inserted only if the precomputed [`Demand`] keeps it. Because
//! the decision is per *fact* (not per derivation), and demand is closed
//! under rule application (every fact that can participate in deriving a
//! kept fact is itself kept), each predicate's restricted fact sequence is
//! a subsequence of the undirected sequence and contains every fact a query
//! answer can touch. The nested-loop join enumerates answers in
//! lexicographic row-position order, so subsequences in, identical answer
//! sequence out.
//!
//! ## The rewrite
//!
//! `analyze` walks the query and then every (predicate, adornment) pair
//! reachable from it, in the style of cozo's `magic_sets_rewrite` and
//! inputlayer's `sip_rewriting`:
//!
//! - a positive IDB atom with bound argument positions `B` becomes a
//!   *magic rule* `__magic#p#B(bound args) :- <demand source>, <bound
//!   extensional prefix>` and enqueues `(p, B)` for its own rules;
//! - sideways information passes only through literals evaluable at demand
//!   time (extensional atoms connected to a bound variable, `=` chains,
//!   bound comparisons) — derived atoms never bind variables sideways,
//!   which over-approximates demand but keeps the demand program evaluable
//!   up front, before any stratum runs;
//! - anything that cannot be soundly restricted falls back per predicate to
//!   *unrestricted* (derive fully): predicates read under negation and
//!   their transitive rule inputs, atoms with no bound positions, aggregate
//!   head positions (demand propagates through group keys only);
//! - an all-free query (no bound IDB argument anywhere) rewrites to the
//!   identity program: a globally unrestricted [`Demand`].
//!
//! The demand program is pure positive Datalog over the seed fact and the
//! extensional relations it reads, so it is evaluated to fixpoint once by
//! the ordinary engine, its magic rules in the order the rewrite wrote
//! them. Demand sets are only membership-tested, so the order their facts
//! arrive in is never observable.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use vada_common::error::guard_stage;
use vada_common::{Result, Tuple, Value};

use crate::ast::{Atom, CmpOp, Expr, HeadTerm, Literal, Program, Rule, Term};
use crate::engine::{CompiledRule, Database, Engine, EngineConfig, FactSet, Plan};

/// Guard cap: distinct adornments per predicate before giving up.
const MAX_ADORNMENTS: usize = 16;
/// Guard cap: total synthesized magic rules before giving up.
const MAX_MAGIC_RULES: usize = 512;

/// The demand-source predicate seeded with one zero-ary fact.
const SEED_PRED: &str = "__magic#__query#";

/// Name of the demand predicate for `pred` adorned on `cols`.
fn magic_name(pred: &str, cols: &[usize]) -> String {
    let mut s = String::with_capacity(pred.len() + 12);
    s.push_str("__magic#");
    s.push_str(pred);
    s.push('#');
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&c.to_string());
    }
    s
}

/// What directed evaluation may keep per predicate.
#[derive(Debug)]
enum PredDemand {
    /// Derive fully (negation reads it, or no sound restriction exists).
    Unrestricted,
    /// Keep a fact iff some adornment's demand set — the demand run's own
    /// relation, shared — contains its projection.
    Restricted(Vec<(Vec<usize>, Arc<FactSet>)>),
}

/// The result of demand analysis for one query: which facts the directed
/// fixpoint materializes. IDB predicates absent from the map are
/// *undemanded* — the query provably cannot reach them, so their rules
/// derive nothing.
#[derive(Debug)]
pub struct Demand {
    info: HashMap<String, PredDemand>,
    /// Global fallback: behave exactly like the undirected run.
    unrestricted: bool,
    reason: Option<String>,
    magic_rules: usize,
    demand_facts: usize,
}

impl Demand {
    fn fallback(reason: impl Into<String>) -> Demand {
        Demand {
            info: HashMap::new(),
            unrestricted: true,
            reason: Some(reason.into()),
            magic_rules: 0,
            demand_facts: 0,
        }
    }

    /// Whether directed evaluation should insert the derived fact with
    /// these values.
    pub fn keeps(&self, pred: &str, values: &[Value]) -> bool {
        if self.unrestricted {
            return true;
        }
        match self.info.get(pred) {
            None => false,
            Some(PredDemand::Unrestricted) => true,
            Some(PredDemand::Restricted(adorns)) => adorns.iter().any(|(cols, set)| {
                cols.iter().all(|&c| c < values.len()) && set.contains_projection(values, cols)
            }),
        }
    }

    /// Whether this demand is the identity (directed ≡ undirected by
    /// construction): an all-free query, or an analysis fallback.
    pub fn is_unrestricted(&self) -> bool {
        self.unrestricted
    }

    /// Why the analysis fell back to the identity, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.reason.as_deref()
    }

    /// Predicates with an adornment-restricted demand set, sorted.
    #[cfg(test)]
    fn restricted_preds(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .info
            .iter()
            .filter(|(_, d)| matches!(d, PredDemand::Restricted(_)))
            .map(|(p, _)| p.as_str())
            .collect();
        v.sort_unstable();
        v
    }

    /// Predicates pinned unrestricted (fully derived), sorted.
    #[cfg(test)]
    fn unrestricted_preds(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .info
            .iter()
            .filter(|(_, d)| matches!(d, PredDemand::Unrestricted))
            .map(|(p, _)| p.as_str())
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of synthesized magic rules.
    pub fn magic_rule_count(&self) -> usize {
        self.magic_rules
    }

    /// Total demand facts across all adornments.
    pub fn demand_fact_count(&self) -> usize {
        self.demand_facts
    }
}

/// The static half of the rewrite: magic program + bookkeeping.
struct Analysis {
    magic: Program,
    adornments: BTreeMap<String, Vec<Vec<usize>>>,
    unrestricted: BTreeSet<String>,
    ext_reads: BTreeSet<String>,
}

struct St<'p> {
    plan: &'p Plan,
    rules: Vec<Rule>,
    adorn: BTreeMap<String, Vec<Vec<usize>>>,
    unrestricted: BTreeSet<String>,
    ext_reads: BTreeSet<String>,
    work: VecDeque<(String, Vec<usize>)>,
}

impl St<'_> {
    /// Whether a rule defines `pred`: its demand is derived, not read.
    fn idb(&self, pred: &str) -> bool {
        self.plan.defining.contains_key(pred)
    }

    /// `pred` (and, transitively, every predicate its rules read) must be
    /// derived in full: its facts feed negation, or demand cannot bind any
    /// of its arguments.
    fn mark_unrestricted(&mut self, pred: &str) {
        let mut stack = vec![pred.to_string()];
        while let Some(p) = stack.pop() {
            if !self.idb(&p) || !self.unrestricted.insert(p.clone()) {
                continue;
            }
            for &ri in &self.plan.defining[&p] {
                let r = &self.plan.rules[ri].rule;
                for q in r.positive_preds().chain(r.negative_preds()) {
                    if self.idb(q) && !self.unrestricted.contains(q) {
                        stack.push(q.to_string());
                    }
                }
            }
        }
    }
}

fn expr_all_bound(e: &Expr, bound: &BTreeSet<usize>) -> bool {
    let mut vs = BTreeSet::new();
    e.vars(&mut vs);
    vs.iter().all(|v| bound.contains(v))
}

/// Walk one rule under a demand source, passing information sideways
/// through evaluable literals; emits one magic rule per bound IDB atom.
/// Returns whether any IDB atom had a bound position (the all-free test).
fn propagate(
    compiled: &CompiledRule,
    source: Atom,
    mut bound: BTreeSet<usize>,
    var_count: usize,
    var_names: Vec<String>,
    st: &mut St<'_>,
) -> std::result::Result<bool, String> {
    let rule = &compiled.rule;
    let mut included: Vec<Literal> = vec![Literal::Pos(source)];
    let mut any_bound_idb = false;
    for &li in &compiled.order {
        match &rule.body[li] {
            Literal::Cmp(CmpOp::Eq, l, r) => {
                let lb = expr_all_bound(l, &bound);
                let rb = expr_all_bound(r, &bound);
                if lb && rb {
                    included.push(rule.body[li].clone());
                } else if lb {
                    if let Some(v) = r.as_var() {
                        included.push(rule.body[li].clone());
                        bound.insert(v);
                    }
                } else if rb {
                    if let Some(v) = l.as_var() {
                        included.push(rule.body[li].clone());
                        bound.insert(v);
                    }
                }
            }
            Literal::Cmp(_, l, r) => {
                if expr_all_bound(l, &bound) && expr_all_bound(r, &bound) {
                    included.push(rule.body[li].clone());
                }
            }
            Literal::Pos(atom) if !st.idb(&atom.pred) => {
                // extensional: joinable at demand time, but only include it
                // when connected to a binding (an unconnected atom would be
                // a cross product; skipping it is a sound over-approximation)
                let connected = atom.terms.is_empty()
                    || atom.terms.iter().any(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v, _) => bound.contains(v),
                    });
                if connected {
                    st.ext_reads.insert(atom.pred.clone());
                    included.push(rule.body[li].clone());
                    for t in &atom.terms {
                        if let Term::Var(v, _) = t {
                            bound.insert(*v);
                        }
                    }
                }
            }
            Literal::Pos(atom) => {
                let cols: Vec<usize> = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v, _) => bound.contains(v),
                    })
                    .map(|(i, _)| i)
                    .collect();
                if cols.is_empty() {
                    st.mark_unrestricted(&atom.pred);
                    continue;
                }
                any_bound_idb = true;
                let slot = st.adorn.entry(atom.pred.clone()).or_default();
                if !slot.contains(&cols) {
                    if slot.len() >= MAX_ADORNMENTS {
                        return Err(format!("adornment explosion on `{}`", atom.pred));
                    }
                    slot.push(cols.clone());
                    st.work.push_back((atom.pred.clone(), cols.clone()));
                }
                st.rules.push(Rule {
                    head_pred: magic_name(&atom.pred, &cols),
                    head_terms: cols
                        .iter()
                        .map(|&c| HeadTerm::Term(atom.terms[c].clone()))
                        .collect(),
                    body: included.clone(),
                    var_count,
                    var_names: var_names.clone(),
                });
                if st.rules.len() > MAX_MAGIC_RULES {
                    return Err("magic rule explosion".into());
                }
                // derived atoms never pass bindings sideways: their facts
                // are not available at demand time
            }
            Literal::Neg(atom) => {
                // negation must see the complete relation; restricting it
                // (or anything it is derived from) would flip answers
                if st.idb(&atom.pred) {
                    st.mark_unrestricted(&atom.pred);
                }
            }
        }
    }
    Ok(any_bound_idb)
}

/// The static rewrite: seed demand from the query's bound arguments and
/// close it over every reachable (predicate, adornment) pair. `Err` is a
/// *fallback*, not a failure — the caller answers with the identity demand.
fn analyze(
    plan: &Plan,
    query: &Result<CompiledRule>,
) -> std::result::Result<Analysis, String> {
    let query = query.as_ref().map_err(|e| format!("unorderable query: {e}"))?;
    let mut st = St {
        plan,
        rules: Vec::new(),
        adorn: BTreeMap::new(),
        unrestricted: BTreeSet::new(),
        ext_reads: BTreeSet::new(),
        work: VecDeque::new(),
    };
    // the seed fact: one zero-ary demand source the query's magic rules join
    st.rules.push(Rule {
        head_pred: SEED_PRED.into(),
        head_terms: vec![],
        body: vec![],
        var_count: 0,
        var_names: vec![],
    });

    let seed_atom = Atom { pred: SEED_PRED.into(), terms: vec![] };
    let any_bound = propagate(
        query,
        seed_atom,
        BTreeSet::new(),
        query.rule.var_count,
        query.rule.var_names.clone(),
        &mut st,
    )?;
    let query_reads_idb = (query.rule)
        .positive_preds()
        .chain(query.rule.negative_preds())
        .any(|p| st.idb(p));
    if query_reads_idb && !any_bound {
        return Err("all-free query: identity rewrite".into());
    }

    while let Some((pred, cols)) = st.work.pop_front() {
        if st.unrestricted.contains(&pred) {
            continue;
        }
        let Some(ris) = plan.defining.get(&pred) else { continue };
        for &ri in ris {
            let r = &plan.rules[ri];
            if cols.iter().any(|&c| c >= r.rule.head_terms.len()) {
                // this rule's head arity cannot produce facts matching the
                // adornment's shape; its emissions are judged (and its body
                // demanded) via other adornments only
                continue;
            }
            let mut var_names = r.rule.var_names.clone();
            let mut var_count = r.rule.var_count;
            let mut terms = Vec::with_capacity(cols.len());
            let mut bound = BTreeSet::new();
            for &c in &cols {
                match &r.rule.head_terms[c] {
                    HeadTerm::Term(t) => {
                        if let Term::Var(v, _) = t {
                            bound.insert(*v);
                        }
                        terms.push(t.clone());
                    }
                    HeadTerm::Agg(..) => {
                        // demand cannot propagate through an aggregate value;
                        // match it with a fresh wildcard (group keys only)
                        let name = format!("__w{var_count}");
                        terms.push(Term::Var(var_count, name.clone()));
                        var_names.push(name);
                        var_count += 1;
                    }
                }
            }
            let source = Atom { pred: magic_name(&pred, &cols), terms };
            propagate(r, source, bound, var_count, var_names, &mut st)?;
        }
    }

    Ok(Analysis {
        magic: Program { rules: st.rules },
        adornments: st.adorn,
        unrestricted: st.unrestricted,
        ext_reads: st.ext_reads,
    })
}

/// The demand run's input: the extensional relations the magic bodies read
/// — `db`'s own, shared rather than copied, plus the program's ground
/// fact-rules (the main run loads those only after demand is computed; one
/// landing in a shared relation copies it first).
fn demand_input(analysis: &Analysis, plan: &Plan, db: &Database) -> Database {
    let mut mdb = Database::new();
    for pred in &analysis.ext_reads {
        if let Some(rel) = db.shared_fact_set(pred) {
            mdb.set_fact_set(pred, rel);
        }
    }
    for rule in plan.rules.iter().map(|cr| &cr.rule) {
        if rule.is_fact() && analysis.ext_reads.contains(&rule.head_pred) {
            let t: Tuple = rule
                .head_terms
                .iter()
                .filter_map(|ht| match ht {
                    HeadTerm::Term(Term::Const(v)) => Some(v.clone()),
                    _ => None,
                })
                .collect();
            mdb.insert(&rule.head_pred, t);
        }
    }
    mdb
}

/// Compute the [`Demand`] for `query` over the program `plan` compiles and
/// the extensional `db`. Analysis shortfalls — an unorderable query among
/// them — fall back to the identity demand (directed ≡
/// undirected by construction) — only injected rewrite-stage panics
/// surface as errors, through the same [`guard_stage`] as every engine
/// stage.
pub(crate) fn demand_for(
    engine: &Engine,
    plan: &Plan,
    db: &Database,
    query: &Result<CompiledRule>,
) -> Result<Demand> {
    let fault = engine.config().inject_fault;
    let analysis = guard_stage("datalog/magic_rewrite", || {
        if fault == Some("magic-rewrite") {
            panic!("injected magic-rewrite fault");
        }
        Ok(analyze(plan, query))
    })?;
    let analysis = match analysis {
        Ok(a) => a,
        Err(reason) => return Ok(Demand::fallback(reason)),
    };
    if analysis.adornments.is_empty() && analysis.unrestricted.is_empty() {
        // the query reads no derived predicate positively or negatively:
        // nothing needs deriving at all
        return Ok(Demand {
            info: HashMap::new(),
            unrestricted: false,
            reason: None,
            magic_rules: analysis.magic.rules.len(),
            demand_facts: 0,
        });
    }

    let mdb = demand_input(&analysis, plan, db);

    let mcfg = EngineConfig { inject_fault: None, ..engine.config().clone() };
    let magic_db = match Engine::new(mcfg).run(&analysis.magic, mdb) {
        Ok(d) => d,
        Err(e) => return Ok(Demand::fallback(format!("demand evaluation failed: {e}"))),
    };

    let mut info: HashMap<String, PredDemand> = HashMap::new();
    let mut demand_facts = 0usize;
    for (pred, adorns) in &analysis.adornments {
        if analysis.unrestricted.contains(pred) {
            continue;
        }
        let mut v = Vec::with_capacity(adorns.len());
        for cols in adorns {
            let set = magic_db.shared_fact_set(&magic_name(pred, cols)).unwrap_or_default();
            demand_facts += set.len();
            v.push((cols.clone(), set));
        }
        info.insert(pred.clone(), PredDemand::Restricted(v));
    }
    for pred in &analysis.unrestricted {
        info.insert(pred.clone(), PredDemand::Unrestricted);
    }
    Ok(Demand {
        info,
        unrestricted: false,
        reason: None,
        magic_rules: analysis.magic.rules.len(),
        demand_facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use vada_common::tuple;

    fn demand(src: &str, q: &str, db: &Database) -> Demand {
        let program = parse_program(src).unwrap();
        let query = parse_query(q).unwrap();
        Engine::default().demand(&program, db, &query).unwrap()
    }

    #[test]
    fn bound_query_restricts_recursive_predicate() {
        let mut db = Database::new();
        for i in 0..10i64 {
            db.insert("edge", tuple![i, i + 1]);
        }
        let d = demand(
            "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).",
            "tc(3, W)",
            &db,
        );
        assert!(!d.is_unrestricted());
        assert_eq!(d.restricted_preds(), vec!["tc"]);
        // demand reaches only the source constant — one demand fact
        assert_eq!(d.demand_fact_count(), 1);
        assert!(d.keeps("tc", tuple![3, 7].values()));
        assert!(!d.keeps("tc", tuple![4, 7].values()));
    }

    #[test]
    fn demand_run_shares_the_relations_it_reads() {
        let mut db = Database::new();
        for i in 0..200i64 {
            db.insert("edge", tuple![i, i + 1]);
        }
        let program =
            parse_program("tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).").unwrap();
        let query = parse_query("tc(3, W)").unwrap();
        let analysis = analyze(&Plan::new(&program).unwrap(), &CompiledRule::query(&query)).unwrap();
        let input = demand_input(&analysis, &Plan::new(&program).unwrap(), &db);
        assert!(input.shares("edge", &db));
        let magic_db = Engine::default().run(&analysis.magic, input).unwrap();
        assert!(magic_db.shares("edge", &db), "the demand run copied");
        assert_eq!(magic_db.facts(&magic_name("tc", &[0])), &[tuple![3]]);
        // a ground fact-rule of the program lands in a copy, never in `db`
        let with_fact = parse_program(
            "edge(900, 901). tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).",
        )
        .unwrap();
        let input = demand_input(&analysis, &Plan::new(&with_fact).unwrap(), &db);
        assert!(!input.shares("edge", &db));
        assert_eq!((input.facts("edge").len(), db.facts("edge").len()), (201, 200));
    }

    #[test]
    fn sideways_demand_follows_extensional_joins() {
        // par is extensional: the recursive magic rule joins it to walk up
        let mut db = Database::new();
        db.insert("par", tuple!["a", "x"]);
        db.insert("par", tuple!["b", "x"]);
        db.insert("par", tuple!["c", "y"]);
        let d = demand(
            r#"sg(X, X) :- par(X, _). sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP)."#,
            r#"sg("a", W)"#,
            &db,
        );
        assert_eq!(d.restricted_preds(), vec!["sg"]);
        // demand covers "a" and its ancestor "x"
        assert!(d.keeps("sg", tuple!["a", "b"].values()));
        assert!(d.keeps("sg", tuple!["x", "y"].values()));
        assert!(!d.keeps("sg", tuple!["c", "c"].values()));
    }

    #[test]
    fn all_free_query_is_identity() {
        let d = demand("p(X) :- q(X).", "p(X)", &Database::new());
        assert!(d.is_unrestricted());
        assert!(d.fallback_reason().unwrap().contains("all-free"));
        assert!(d.keeps("anything", tuple![1].values()));
    }

    #[test]
    fn negation_pins_read_predicates_unrestricted() {
        let d = demand(
            r#"
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            dead(X) :- node(X), not reach(1, X).
            probe(X) :- dead(X).
            "#,
            "probe(7)",
            &Database::new(),
        );
        assert!(!d.is_unrestricted());
        // dead is demanded but read... probe(7) binds dead's argument; dead's
        // body negates reach, so reach (and nothing else) must derive fully
        assert_eq!(d.unrestricted_preds(), vec!["reach"]);
        assert!(d.keeps("reach", tuple![99, 99].values()));
        assert!(d.keeps("dead", tuple![7].values()));
        assert!(!d.keeps("dead", tuple![8].values()));
    }

    #[test]
    fn undemanded_predicates_derive_nothing() {
        let d = demand(
            "p(X) :- e(X). unrelated(X) :- e(X).",
            "p(1)",
            &Database::new(),
        );
        assert!(!d.keeps("unrelated", tuple![1].values()));
        assert!(d.keeps("p", tuple![1].values()));
    }

    #[test]
    fn query_over_extensional_only_demands_nothing() {
        let d = demand("p(X) :- e(X).", "e(1)", &Database::new());
        assert!(!d.is_unrestricted());
        assert!(!d.keeps("p", tuple![1].values()));
    }

    #[test]
    fn aggregate_demand_propagates_group_keys_only() {
        let mut db = Database::new();
        db.insert("item", tuple!["a", 1]);
        db.insert("item", tuple!["a", 2]);
        db.insert("item", tuple!["b", 3]);
        let d = demand(
            "total(G, sum(P)) :- item(G, P). big(G) :- total(G, T), T > 1.",
            r#"big("a")"#,
            &db,
        );
        // total is demanded on its group key; the aggregate value position
        // is matched by a wildcard
        assert!(d.keeps("total", tuple!["a", 999].values()));
        assert!(!d.keeps("total", tuple!["b", 3].values()));
    }

    #[test]
    fn injected_rewrite_fault_surfaces_as_parallel_error() {
        let program = parse_program("p(X) :- e(X).").unwrap();
        let query = parse_query("p(1)").unwrap();
        let engine = Engine::new(EngineConfig {
            inject_fault: Some("magic-rewrite"),
            ..EngineConfig::default()
        });
        let err = engine.demand(&program, &Database::new(), &query).unwrap_err();
        assert_eq!(err.kind(), "parallel", "{err}");
        assert!(err.message().contains("datalog/magic_rewrite"), "{err}");
    }
}
