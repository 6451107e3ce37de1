//! Fixpoint evaluation: stratified, semi-naive, with aggregates and a
//! guarded skolem chase for existential rules.
//!
//! ## Algorithm
//!
//! 1. Stratify the program (the crate's `analysis` module).
//! 2. Load ground facts.
//! 3. Per stratum (ascending): one *initial pass* evaluates every rule
//!    against the current database; then **semi-naive iteration** re-fires
//!    only the rules that can still derive something (a rule whose
//!    same-stratum inputs were complete when it first ran *settles*; see
//!    `Stratification::refiring`), once per occurrence of a
//!    predicate a re-firing rule reads, with that occurrence restricted to
//!    the previous iteration's delta.
//! 4. Aggregate rules run in the initial pass only — stratification
//!    guarantees their inputs live in strictly lower strata.
//!
//! Join orders are compiled per rule with a greedy ordering that places
//! comparisons and negations as soon as their variables are bound. A
//! positive literal with bound positions walks a row-id chained index on
//! them (see [`crate::index`]): over the full database, the index its
//! [`FactSet`] keeps, extended over the rows appended since it was last
//! asked for, so a rule sees what the rules before it wrote and facts that
//! do not change are indexed once whatever runs read them; over a delta or
//! a filtered view, an index built once per rule evaluation.

use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use vada_common::error::guard_stage;
use vada_common::obs::{key as obs_key, Obs};
use vada_common::{Result, Tuple, VadaError, Value};

use crate::analysis::{stratify, Stratification};
use crate::ast::{CmpOp, HeadTerm, Literal, Program, Rule, Term};
use crate::builtins::{apply_cmp, eval_expr, resolve, Binding};
use crate::incremental::{injective, HeadSegments};
use crate::index::{hash_values, probe, reseat, RowIndex, Rows};
use crate::magic::{self, Demand};
use crate::skolem;

/// A deduplicated, insertion-ordered set of facts for one predicate: one
/// tuple arena plus an open-addressing table of **row ids** into it. A probe
/// hashes the candidate's values and compares against `tuples[row]`, so no
/// tuple is ever stored (or cloned) twice.
#[derive(Debug, Default)]
pub struct FactSet {
    tuples: Vec<Tuple>,
    /// `hash_values(tuples[row])` per row, kept in lockstep with the arena,
    /// so growing the table or re-seating it after a removal or a reorder
    /// never hashes a fact again.
    hashes: Vec<u64>,
    /// Linear-probing table over `tuples`: a row id or
    /// [`FREE`](crate::index::FREE) per slot.
    /// The length is zero or a power of two and at least twice
    /// `tuples.len()`, so every probe sequence ends at a free slot. Row ids
    /// are `usize` — an arena too long for its own ids cannot exist.
    slots: Vec<usize>,
    /// The join indexes the engine has asked for, one per column shape
    /// ([`FactSet::index`]). Appends leave them covering a prefix; every
    /// mutation that moves a row id drops them.
    indexes: Mutex<Vec<(Vec<usize>, Arc<KeptIndex>)>>,
}

/// A join index a [`FactSet`] keeps: its rows `0..covered`, filed.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeptIndex {
    covered: usize,
    pub(crate) rows: RowIndex,
}

/// A copy starts with the original's indexes, and copies one only when it
/// extends it.
impl Clone for FactSet {
    fn clone(&self) -> FactSet {
        FactSet {
            tuples: self.tuples.clone(),
            hashes: self.hashes.clone(),
            slots: self.slots.clone(),
            indexes: Mutex::new(self.kept().clone()),
        }
    }
}

impl FactSet {
    /// The kept indexes. A panic while they were locked may have left one
    /// half-extended, so they are dropped then, never served.
    fn kept(&self) -> MutexGuard<'_, Vec<(Vec<usize>, Arc<KeptIndex>)>> {
        self.indexes.lock().unwrap_or_else(|poisoned| {
            self.indexes.clear_poison();
            let mut kept = poisoned.into_inner();
            kept.clear();
            kept
        })
    }

    /// The join index over these facts on `cols`, extended over the rows
    /// appended since it was last asked for, and whether that filed any
    /// row. The handle serves one rule evaluation; the set keeps the index
    /// for the next, so facts that do not change are indexed once.
    pub(crate) fn index(&self, cols: &[usize]) -> (Arc<KeptIndex>, bool) {
        let mut kept = self.kept();
        let at = kept.iter().position(|(c, _)| c == cols).unwrap_or_else(|| {
            kept.push((cols.to_vec(), Arc::default()));
            kept.len() - 1
        });
        let index = &mut kept[at].1;
        let built = index.covered < self.len();
        if built {
            let index = Arc::make_mut(index);
            index.rows.extend(&self.tuples, cols, index.covered..self.tuples.len());
            index.covered = self.tuples.len();
        }
        (Arc::clone(index), built)
    }

    /// [`probe`] over the facts: `Ok(row)` of the first fact `is_match`
    /// accepts, or `Err(slot)` of the free slot that ends the sequence.
    /// The table must be non-empty.
    fn probe(
        &self,
        hash: u64,
        is_match: impl Fn(&Tuple) -> bool,
    ) -> std::result::Result<usize, usize> {
        probe(&self.slots, hash, |row| is_match(&self.tuples[row]))
    }

    /// Re-seat every row in a table of `capacity` slots (a power of two),
    /// from the stored hashes.
    fn rebuild(&mut self, capacity: usize) {
        reseat(&mut self.slots, capacity, self.hashes.iter().copied());
    }

    /// Make room for `additional` more facts, so a bulk load grows (and
    /// re-seats) the table once instead of once per doubling.
    pub fn reserve(&mut self, additional: usize) {
        self.tuples.reserve(additional);
        self.hashes.reserve(additional);
        let needed = (self.tuples.len() + additional) * 2;
        if needed > self.slots.len() {
            self.rebuild(needed.next_power_of_two().max(8));
        }
    }

    /// Insert a fact; returns `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.reserve(1);
        let hash = hash_values(&t);
        match self.probe(hash, |f| *f == t) {
            Ok(_) => false,
            Err(slot) => {
                self.slots[slot] = self.tuples.len();
                self.tuples.push(t);
                self.hashes.push(hash);
                true
            }
        }
    }

    /// Insert `facts` as a block starting at row `row` (at most `len()`),
    /// in their order, shifting the rows from `row` on up past the block;
    /// facts already present (or repeated in the block) are skipped.
    /// Returns how many were inserted. Only the inserted facts are hashed:
    /// they are appended, then rotated into place by one integer pass over
    /// the table. The incremental layer's splice primitive — public only
    /// for the property suite's oracle.
    #[doc(hidden)]
    pub fn insert_at(&mut self, row: usize, facts: impl IntoIterator<Item = Tuple>) -> usize {
        assert!(row <= self.len(), "insert_at row {row} past the end ({})", self.len());
        let before = self.len();
        for t in facts {
            self.insert(t);
        }
        let added = self.len() - before;
        self.rotate_rows(row, self.len(), added);
        added
    }

    /// Rotate rows `lo..hi` right by `k`: the last `k` of them move to `lo`,
    /// the others up by `k`. The arena and the hashes rotate in lockstep
    /// and one pass over the table re-labels the row ids.
    fn rotate_rows(&mut self, lo: usize, hi: usize, k: usize) {
        if k == 0 || k == hi - lo {
            return;
        }
        self.tuples[lo..hi].rotate_right(k);
        self.hashes[lo..hi].rotate_right(k);
        let split = hi - k;
        self.indexes = Mutex::default();
        for id in &mut self.slots {
            // `FREE` is past every `hi`, so free slots never match
            if (lo..hi).contains(id) {
                *id = if *id >= split { *id - split + lo } else { *id + k };
            }
        }
    }

    /// Row id of the fact with exactly these values, if present.
    pub(crate) fn find(&self, values: &[Value]) -> Option<usize> {
        if self.tuples.is_empty() {
            return None;
        }
        self.probe(hash_values(values), |f| f.values() == values).ok()
    }

    /// The row this set holds fact `row` of `other` at — the same answer as
    /// `self.find(other.tuples()[row].values())`, but probed with the hash
    /// `other` stored for the fact instead of hashing its values again.
    pub fn row_of(&self, other: &FactSet, row: usize) -> Option<usize> {
        if self.tuples.is_empty() {
            return None;
        }
        let t = &other.tuples[row];
        self.probe(other.hashes[row], |f| f == t).ok()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(t.values()).is_some()
    }

    /// Whether the set holds `t` projected onto `cols` — without building
    /// the projection. `cols` must be in range for `t`.
    pub(crate) fn contains_projection(&self, t: &[Value], cols: &[usize]) -> bool {
        if self.tuples.is_empty() {
            return false;
        }
        let projected = || cols.iter().map(|&c| &t[c]);
        self.probe(hash_values(projected()), |f| f.iter().eq(projected())).is_ok()
    }

    /// Remove a fact, preserving the insertion order of the rest; returns
    /// the row it held, if it was present.
    pub fn remove(&mut self, t: &Tuple) -> Option<usize> {
        let row = self.find(t.values())?;
        self.remove_rows(&[row]);
        Some(row)
    }

    /// Remove every listed fact in one pass, preserving the insertion order
    /// of the rest; returns the rows the removed facts held, ascending.
    pub fn remove_all<'a>(&mut self, gone: impl IntoIterator<Item = &'a Tuple>) -> Vec<usize> {
        let rows = self.rows_of(gone);
        self.remove_rows(&rows);
        rows
    }

    /// The rows of the listed facts that are present, ascending and
    /// deduplicated: one probe per listed fact.
    fn rows_of<'a>(&self, facts: impl IntoIterator<Item = &'a Tuple>) -> Vec<usize> {
        let mut rows: Vec<usize> =
            facts.into_iter().filter_map(|t| self.find(t.values())).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Drop `rows` (ascending, distinct): the arena and the hashes compact
    /// in lockstep, later rows move down, and the table is re-seated from
    /// the stored hashes.
    fn remove_rows(&mut self, rows: &[usize]) {
        if rows.is_empty() {
            return;
        }
        let mut gone = rows.iter().peekable();
        let mut kept = 0;
        for row in 0..self.tuples.len() {
            if gone.next_if_eq(&&row).is_none() {
                self.tuples.swap(kept, row);
                self.hashes[kept] = self.hashes[row];
                kept += 1;
            }
        }
        self.tuples.truncate(kept);
        self.hashes.truncate(kept);
        self.rebuild(self.slots.len());
        self.indexes = Mutex::default();
    }

    /// Facts in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The facts in insertion order, consuming the set.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A fact database: predicate name → fact set. Relations are
/// reference-counted and copied on first write, so cloning a database costs
/// O(#predicates) and a relation nobody writes is never copied — an engine
/// run shares its untouched extensional input, and the join indexes it
/// keeps, with the caller.
#[derive(Debug, Clone, Default)]
pub struct Database {
    rels: HashMap<String, Arc<FactSet>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert a fact; returns `true` if new. Only a predicate's first fact
    /// allocates its name, and a duplicate never copies a shared relation.
    pub fn insert(&mut self, pred: &str, t: Tuple) -> bool {
        match self.rels.get_mut(pred) {
            Some(rel) => match Arc::get_mut(rel) {
                Some(fs) => fs.insert(t),
                None => !rel.contains(&t) && Arc::make_mut(rel).insert(t),
            },
            None => {
                let mut fs = FactSet::default();
                fs.insert(t);
                self.rels.insert(pred.to_string(), Arc::new(fs));
                true
            }
        }
    }

    /// Whether the fact is present.
    pub fn contains(&self, pred: &str, t: &Tuple) -> bool {
        self.rels.get(pred).is_some_and(|fs| fs.contains(t))
    }

    /// Remove a fact, preserving the insertion order of the remaining facts
    /// of the predicate; returns `true` if it was present.
    pub fn remove(&mut self, pred: &str, t: &Tuple) -> bool {
        self.rels
            .get_mut(pred)
            .is_some_and(|rel| rel.contains(t) && Arc::make_mut(rel).remove(t).is_some())
    }

    /// Remove every listed fact of one predicate in a single pass,
    /// preserving the insertion order of the rest; returns the rows the
    /// removed facts held, ascending. A shared relation is copied only when
    /// something is removed.
    pub fn remove_facts<'a>(
        &mut self,
        pred: &str,
        gone: impl IntoIterator<Item = &'a Tuple>,
    ) -> Vec<usize> {
        let Some(rel) = self.rels.get_mut(pred) else { return Vec::new() };
        let rows = rel.rows_of(gone);
        if !rows.is_empty() {
            Arc::make_mut(rel).remove_rows(&rows);
        }
        rows
    }

    /// Facts for a predicate (empty slice if unknown).
    pub fn facts(&self, pred: &str) -> &[Tuple] {
        self.rels.get(pred).map(|fs| fs.tuples()).unwrap_or(&[])
    }

    /// The fact set for a predicate, if any.
    pub fn fact_set(&self, pred: &str) -> Option<&FactSet> {
        self.rels.get(pred).map(|rel| &**rel)
    }

    /// The shared handle of a predicate's fact set, if any — for handing
    /// the relation on (to another database, or past the database's own
    /// lifetime) without copying a tuple.
    pub fn shared_fact_set(&self, pred: &str) -> Option<Arc<FactSet>> {
        self.rels.get(pred).cloned()
    }

    /// Whether `pred` is one relation, not two equal copies, in `self` and
    /// `other` — the copy-on-write sharing the tests pin.
    #[cfg(test)]
    pub(crate) fn shares(&self, pred: &str, other: &Database) -> bool {
        match (self.rels.get(pred), other.rels.get(pred)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Predicate names, sorted (deterministic iteration).
    pub fn predicates(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.rels.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.rels.values().map(|fs| fs.len()).sum()
    }

    /// Bulk-load all tuples of a [`vada_common::Relation`] under its name.
    pub fn insert_relation(&mut self, rel: &vada_common::Relation) {
        let fs = Arc::make_mut(self.rels.entry(rel.name().to_string()).or_default());
        fs.reserve(rel.len());
        for t in rel.iter() {
            fs.insert(t.clone());
        }
    }

    /// Insert every fact of `facts` under `pred`, in order — the same
    /// result as inserting them one by one, without copying a tuple where
    /// that can be avoided; an empty `facts` still declares the predicate,
    /// as [`Database::insert_relation`] does. A predicate with no facts yet
    /// takes the handle as is, so a relation several databases load is one fact set until
    /// one of them writes to it (copy-on-write, as for any shared
    /// relation). Otherwise the new facts are appended behind the present
    /// ones; `facts` itself is never modified.
    pub fn insert_shared(&mut self, pred: &str, facts: Arc<FactSet>) {
        match self.rels.get_mut(pred) {
            Some(rel) if !rel.is_empty() => {
                if Arc::ptr_eq(rel, &facts) {
                    return;
                }
                for t in facts.tuples() {
                    if !rel.contains(t) {
                        Arc::make_mut(rel).insert(t.clone());
                    }
                }
            }
            Some(rel) => *rel = facts,
            None => {
                self.rels.insert(pred.to_string(), facts);
            }
        }
    }

    /// Replace the fact set of one predicate wholesale, indexes and all.
    /// Used by the demand rewrite to share extensional relations; never
    /// exposed publicly because arbitrary replacement would break the
    /// append-only order reasoning.
    pub(crate) fn set_fact_set(&mut self, pred: &str, fs: impl Into<Arc<FactSet>>) {
        self.rels.insert(pred.to_string(), fs.into());
    }

    /// A predicate's fact set, for an in-place reorder
    /// ([`FactSet::insert_at`]): the incremental layer's splice of a
    /// multi-rule head. A reorder that moves rows drops the set's indexes.
    pub(crate) fn reorder(&mut self, pred: &str) -> &mut FactSet {
        Arc::make_mut(self.rels.entry(pred.to_string()).or_default())
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-stratum iteration cap (defends against bugs; semi-naive
    /// terminates on finite domains regardless).
    pub max_iterations: usize,
    /// Skolem nesting cap — the chase termination guard.
    pub max_skolem_depth: usize,
    /// Total derived-fact cap.
    pub max_facts: usize,
    /// Test-only fault injection: `Some("magic-rewrite")` panics inside the
    /// demand-rewrite stage, `Some("index-build")` at every request for a
    /// fact set's join index. Both surface as [`VadaError::Parallel`]
    /// naming the stage, exactly like a panic inside a rule evaluation.
    pub inject_fault: Option<&'static str>,
    /// Counter registry for evaluation telemetry (`datalog.*`,
    /// `magic.*`). Defaults to the disabled stub — a single branch per
    /// counter site — and is threaded in by the owning layer (mapping
    /// execution passes the knowledge base's registry; sessions and the
    /// bench harness pass their own).
    pub obs: Obs,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_iterations: 100_000,
            max_skolem_depth: 12,
            max_facts: 50_000_000,
            inject_fault: None,
            obs: Obs::disabled(),
        }
    }
}

/// The Datalog± evaluation engine.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        Engine { config }
    }

    /// Evaluate `program` starting from `db` (extensional facts); returns
    /// the database extended with all derived facts.
    pub fn run(&self, program: &Program, db: Database) -> Result<Database> {
        self.run_plan(&Plan::new(program)?, db, None, &mut BTreeMap::new())
    }

    /// Demand-driven evaluation: compute the [`Demand`] a query's bound
    /// arguments seed (see [`crate::magic`]) and materialize only the
    /// demanded portion of the fixpoint. Per query, the result is pinned
    /// byte-identical to [`Engine::run`] — kept fact sequences are
    /// subsequences of the full run's, and every fact a query answer can
    /// touch is kept — so `eval_query` over either database returns the
    /// same answers in the same order.
    pub fn run_directed(&self, program: &Program, db: Database, query: &Rule) -> Result<Database> {
        self.run_demanded(&Plan::new(program)?, db, &CompiledRule::query(query))
    }

    /// [`Engine::run_directed`] over a compiled program and query; a query
    /// that does not compile leaves the fixpoint unrestricted.
    fn run_demanded(
        &self,
        plan: &Plan,
        db: Database,
        query: &Result<CompiledRule>,
    ) -> Result<Database> {
        let demand = magic::demand_for(self, plan, &db, query)?;
        let obs = &self.config.obs;
        if demand.is_unrestricted() {
            obs.incr(obs_key::MAGIC_UNRESTRICTED);
        } else {
            obs.incr(obs_key::MAGIC_APPLIED);
            obs.add(obs_key::MAGIC_RULES, demand.magic_rule_count() as u64);
            obs.add(obs_key::MAGIC_DEMAND_FACTS, demand.demand_fact_count() as u64);
        }
        self.run_plan(plan, db, Some(&demand), &mut BTreeMap::new())
    }

    /// Answer a stand-alone query over `program` + `db`, demand-driven:
    /// [`Engine::run_directed`] then [`Engine::eval_query`] — answers,
    /// their order and the first error are byte-identical to evaluating
    /// the query over [`Engine::run`]'s full fixpoint. An empty program
    /// short-circuits to [`Engine::eval_query`] against `db` as-is (no
    /// clone, no fixpoint) — the knowledge-base dependency view takes
    /// this path. The query is compiled once, for both.
    pub fn run_query(&self, program: &Program, db: &Database, query: &Rule) -> Result<Vec<Tuple>> {
        if program.rules.is_empty() {
            return self.eval_query(query, db);
        }
        let query = CompiledRule::query(query);
        let demanded = self.run_demanded(&Plan::new(program)?, db.clone(), &query)?;
        self.answers(&query?, &demanded)
    }

    /// The [`Demand`] this engine would evaluate `query` under — exposed
    /// for the `vada-datalog` property suite.
    pub fn demand(&self, program: &Program, db: &Database, query: &Rule) -> Result<Demand> {
        magic::demand_for(self, &Plan::new(program)?, db, &CompiledRule::query(query))
    }

    /// Evaluate `plan` from `db`: the one fixpoint loop behind every run.
    /// As it absorbs the emissions of a head `tracked` names, it records
    /// the head's per-rule regions there (see [`HeadSegments::record`]).
    pub(crate) fn run_plan(
        &self,
        plan: &Plan,
        mut db: Database,
        demand: Option<&Demand>,
        tracked: &mut BTreeMap<String, HeadSegments>,
    ) -> Result<Database> {
        let strat = &plan.strat;
        let fault = self.config.inject_fault;
        let obs = &self.config.obs;

        // ground facts
        for cr in plan.rules.iter().filter(|cr| cr.rule.is_fact()) {
            let t: Tuple = (cr.rule.head_terms.iter())
                .map(|ht| match ht {
                    HeadTerm::Term(Term::Const(v)) => v.clone(),
                    _ => unreachable!("is_fact guarantees constant terms"),
                })
                .collect();
            db.insert(&cr.rule.head_pred, t);
        }

        // one run-level span so stratum children group under their
        // evaluation, wherever the engine was invoked from
        let run_span = obs.span("datalog/run");
        run_span.attr("strata", strat.stratum_count);
        run_span.attr("mode", if demand.is_some() { "directed" } else { "undirected" });

        for stratum in 0..strat.stratum_count {
            let rule_idxs = &strat.strata_rules[stratum];
            if rule_idxs.is_empty() {
                continue;
            }
            // structural attributes only: the stratum index, its rule
            // count, and (attached at close) the semi-naive iteration
            // count
            let stratum_span = obs.span("datalog/stratum");
            stratum_span.attr("stratum", stratum);
            stratum_span.attr("rules", rule_idxs.len());
            let compiled: Vec<&CompiledRule> = rule_idxs.iter().map(|&ri| &plan.rules[ri]).collect();
            for cr in &compiled {
                // join-planner telemetry: which positive literals have a
                // bound column (served by an index) and which are
                // generators, enumerated in full — a per-rule compile
                // decision, so the tallies are knob-invariant up to the
                // program being evaluated
                let indexed = cr.bound_positions.iter().filter(|cols| !cols.is_empty()).count();
                obs.add(obs_key::JOIN_INDEXED, indexed as u64);
                obs.add(
                    obs_key::JOIN_GENERATOR,
                    (cr.positive_lit_indices.len() - indexed) as u64,
                );
            }
            let (refires, read) = &plan.refiring[stratum];
            // a rule's emissions (already filtered by demand) enter the
            // database under its own head; returns how many were new. Only
            // the new facts of a head a re-firing rule reads are copied into
            // the delta — no pass ever reads the others back. A tracked head
            // is read by no rule.
            let mut absorb = |db: &mut Database, delta: &mut Database, head: &str, derived: Vec<Tuple>| {
                if let Some(segs) = tracked.get_mut(head) {
                    return segs.record(db, head, derived);
                }
                let feeds_delta = read.contains(head);
                let mut fresh = 0usize;
                for t in derived {
                    if feeds_delta {
                        if db.insert(head, t.clone()) {
                            delta.insert(head, t);
                            fresh += 1;
                        }
                    } else if db.insert(head, t) {
                        fresh += 1;
                    }
                }
                fresh
            };
            // initial pass: all rules, full database, in rule order
            let mut delta = Database::new();
            // facts the last pass added: what keeps the iteration going
            let mut fresh = 0usize;
            obs.incr(obs_key::STRATUM_PASSES);
            for cr in &compiled {
                let derived = guard_stage("datalog/stratum-initial", || {
                    self.eval_rule(cr, &db, None, fault, demand)
                })?;
                fresh += absorb(&mut db, &mut delta, &cr.rule.head_pred, derived);
            }
            self.check_size(&db)?;

            // semi-naive iteration
            let mut iter = 0usize;
            while fresh > 0 {
                iter += 1;
                if iter > self.config.max_iterations {
                    return Err(VadaError::Eval(format!(
                        "stratum {stratum} exceeded {} iterations",
                        self.config.max_iterations
                    )));
                }
                let mut new_delta = Database::new();
                let mut new_fresh = 0usize;
                // one pass per occurrence, in a re-firing rule, of a
                // predicate the previous iteration grew, in flattened (rule,
                // occurrence) order; pass eligibility depends only on that
                // delta, so the work list is fixed up front. A settled rule
                // runs none: each would re-derive facts it already has.
                let mut passes: Vec<(usize, usize)> = Vec::new();
                for (ci, cr) in compiled.iter().enumerate().filter(|&(ci, _)| refires[ci]) {
                    for (occ, lit_idx) in cr.positive_lit_indices.iter().enumerate() {
                        let Literal::Pos(atom) = &cr.rule.body[*lit_idx] else {
                            continue;
                        };
                        if !delta.facts(&atom.pred).is_empty() {
                            passes.push((ci, occ));
                        }
                    }
                }
                obs.incr(obs_key::DELTA_PASSES);
                for (ci, occ) in passes {
                    let cr = compiled[ci];
                    let derived = guard_stage("datalog/stratum-delta", || {
                        let spec = DeltaSpec::Insert { delta: &delta, occ };
                        self.eval_rule(cr, &db, Some(spec), fault, demand)
                    })?;
                    new_fresh += absorb(&mut db, &mut new_delta, &cr.rule.head_pred, derived);
                }
                self.check_size(&db)?;
                delta = new_delta;
                fresh = new_fresh;
            }
            stratum_span.attr("delta_passes", iter);
        }
        Ok(db)
    }

    /// Evaluate a stand-alone query (from
    /// [`parse_query`](crate::parser::parse_query)) against a fixed
    /// database; returns the distinct head tuples.
    pub fn eval_query(&self, query: &Rule, db: &Database) -> Result<Vec<Tuple>> {
        self.answers(&CompiledRule::query(query)?, db)
    }

    /// [`Engine::eval_query`] for a compiled query.
    fn answers(&self, query: &CompiledRule, db: &Database) -> Result<Vec<Tuple>> {
        let mut answers = FactSet::default();
        for t in self.eval_rule(query, db, None, self.config.inject_fault, None)? {
            answers.insert(t);
        }
        Ok(answers.into_tuples())
    }

    /// Engine configuration (read access for the incremental layer).
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    fn check_size(&self, db: &Database) -> Result<()> {
        if db.total_facts() > self.config.max_facts {
            return Err(VadaError::Eval(format!(
                "derived fact count exceeded the cap of {}",
                self.config.max_facts
            )));
        }
        Ok(())
    }

    /// Evaluate one rule; returns its head tuples in emission order
    /// (possibly with duplicates — the caller dedups on insert, under the
    /// compiled rule's head predicate), less those `demand` does not keep.
    /// Full-database lookups read the indexes `db`'s fact sets keep;
    /// delta/filtered sources build their index lazily per call. `fault`
    /// is the caller's injection knob (see [`EngineConfig::inject_fault`]).
    pub(crate) fn eval_rule(
        &self,
        cr: &CompiledRule,
        db: &Database,
        spec: Option<DeltaSpec<'_>>,
        fault: Option<&'static str>,
        demand: Option<&Demand>,
    ) -> Result<Vec<Tuple>> {
        let ctx = EvalCtx::new(cr, db, spec, fault, &self.config.obs)?;
        let mut binding: Binding = vec![None; cr.rule.var_count];
        let mut scratch = vec![Scratch::default(); cr.order.len()];
        let mut results = Vec::new();
        let mut head = Vec::with_capacity(cr.rule.head_terms.len());
        let keeps = |values: &[Value]| demand.is_none_or(|d| d.keeps(&cr.rule.head_pred, values));

        let outcome = if cr.rule.has_aggregate() {
            let mut rows: Vec<Binding> = Vec::new();
            let mut seen: HashSet<Vec<Option<Value>>> = HashSet::new();
            join(cr, &ctx, 0, &mut binding, &mut scratch, &mut |b| {
                if seen.insert(b.to_vec()) {
                    rows.push(b.to_vec());
                }
                Ok(())
            })
            .and_then(|()| aggregate(cr, &rows, &mut results))
            .map(|()| results.retain(|t| keeps(t.values())))
        } else {
            let cfg_depth = self.config.max_skolem_depth;
            join(cr, &ctx, 0, &mut binding, &mut scratch, &mut |b| {
                results.extend(head_tuple(cr, b, cfg_depth, &mut head, keeps)?);
                Ok(())
            })
        };
        // probe tallies are commutative adds: the total depends only on
        // which (literal, binding) probes the evaluation performs — fixed
        // by the program and database; one add per evaluation keeps the
        // registry lock off the probe path
        if ctx.probes.get() > 0 {
            self.config.obs.add(obs_key::INDEX_PROBES, ctx.probes.get());
        }
        outcome?;
        Ok(results)
    }
}

/// Build the head tuple for a satisfied binding, inventing skolems for
/// existential variables; `None` when `keeps` rejects its values.
/// `values` is the join's head buffer, reused across bindings so a kept
/// tuple is the only allocation and a rejected one costs none.
fn head_tuple(
    cr: &CompiledRule,
    binding: &Binding,
    max_depth: usize,
    values: &mut Vec<Value>,
    keeps: impl Fn(&[Value]) -> bool,
) -> Result<Option<Tuple>> {
    // no existential head variable (the common case): every term resolves,
    // so the values are checked in the buffer — no frontier, no skolem
    // table, no tuple for a rejected head. A head with an existential
    // variable is built first: its skolems are among the values checked.
    values.clear();
    for ht in &cr.rule.head_terms {
        match ht {
            HeadTerm::Term(t) => match resolve(t, binding) {
                Some(v) => values.push(v),
                None => {
                    let t = skolemized_head_tuple(cr, binding, max_depth)?;
                    return Ok(keeps(t.values()).then_some(t));
                }
            },
            HeadTerm::Agg(..) => {
                return Err(VadaError::Eval("aggregate outside aggregate path".into()))
            }
        }
    }
    Ok(keeps(values).then(|| Tuple::from_drain(values)))
}

/// [`head_tuple`] for a head with an existential variable: one skolem per
/// variable, over the frontier of resolved head values.
fn skolemized_head_tuple(cr: &CompiledRule, binding: &Binding, max_depth: usize) -> Result<Tuple> {
    // frontier: resolved non-existential head var/const values, in order
    let mut frontier: Vec<Value> = Vec::new();
    for ht in &cr.rule.head_terms {
        if let HeadTerm::Term(t) = ht {
            if let Some(v) = resolve(t, binding) {
                frontier.push(v);
            }
        }
    }
    let mut skolems: HashMap<usize, Value> = HashMap::new();
    let mut values = Vec::with_capacity(cr.rule.head_terms.len());
    for ht in &cr.rule.head_terms {
        match ht {
            HeadTerm::Term(t) => match resolve(t, binding) {
                Some(v) => values.push(v),
                None => {
                    let Term::Var(id, name) = t else {
                        return Err(VadaError::Eval("unresolved constant".into()));
                    };
                    let v = match skolems.get(id) {
                        Some(v) => v.clone(),
                        None => {
                            let v = skolem::make_skolem(cr.rule_idx, name, &frontier, max_depth)?;
                            skolems.insert(*id, v.clone());
                            v
                        }
                    };
                    values.push(v);
                }
            },
            HeadTerm::Agg(..) => {
                return Err(VadaError::Eval("aggregate outside aggregate path".into()))
            }
        }
    }
    Ok(Tuple::new(values))
}

/// Compute aggregate head tuples from deduplicated body bindings.
fn aggregate(
    cr: &CompiledRule,
    rows: &[Binding],
    out: &mut Vec<Tuple>,
) -> Result<()> {
    use crate::ast::AggFunc;
    // group key: resolved plain head terms
    let mut groups: HashMap<Vec<Value>, Vec<&Binding>> = HashMap::new();
    for b in rows {
        let mut key = Vec::new();
        for ht in &cr.rule.head_terms {
            if let HeadTerm::Term(t) = ht {
                key.push(resolve(t, b).ok_or_else(|| {
                    VadaError::Eval(format!(
                        "group-by variable unbound in rule `{}`",
                        cr.rule
                    ))
                })?);
            }
        }
        groups.entry(key).or_default().push(b);
    }
    let mut keys: Vec<&Vec<Value>> = groups.keys().collect();
    keys.sort();
    for key in keys {
        let members = &groups[key];
        let mut values = Vec::with_capacity(cr.rule.head_terms.len());
        let mut plain_iter = key.iter();
        for ht in &cr.rule.head_terms {
            match ht {
                HeadTerm::Term(_) => values.push(plain_iter.next().unwrap().clone()),
                HeadTerm::Agg(func, var, name) => {
                    let inputs: Vec<&Value> = members
                        .iter()
                        .filter_map(|b| b[*var].as_ref())
                        .filter(|v| !v.is_null())
                        .collect();
                    let v = match func {
                        AggFunc::Count => Value::Int(inputs.len() as i64),
                        AggFunc::Min => inputs.iter().min().map(|v| (*v).clone()).unwrap_or(Value::Null),
                        AggFunc::Max => inputs.iter().max().map(|v| (*v).clone()).unwrap_or(Value::Null),
                        AggFunc::Sum | AggFunc::Avg => {
                            let mut sum = 0.0f64;
                            let mut all_int = true;
                            let mut n = 0usize;
                            for v in &inputs {
                                match v.numeric() {
                                    Some(x) => {
                                        sum += x;
                                        n += 1;
                                        all_int &= matches!(v, Value::Int(_));
                                    }
                                    None => {
                                        return Err(VadaError::Eval(format!(
                                            "non-numeric value in {func}({name})"
                                        )))
                                    }
                                }
                            }
                            if n == 0 {
                                Value::Null
                            } else if *func == AggFunc::Avg {
                                Value::Float(sum / n as f64)
                            } else if all_int {
                                Value::Int(sum as i64)
                            } else {
                                Value::Float(sum)
                            }
                        }
                    };
                    values.push(v);
                }
            }
        }
        out.push(Tuple::new(values));
    }
    Ok(())
}

/// A program worked out once: its stratification, which rules of each
/// stratum re-fire in its semi-naive loop, every rule compiled, and what an
/// incremental session's order-safety analysis reads of it (module docs of
/// [`crate::incremental`]). An engine run builds one and reads the first
/// three; a session keeps its own, for its analysis, append waves,
/// retraction plans and count captures; the demand rewrite reads its join
/// orders and its head map.
pub(crate) struct Plan {
    pub(crate) strat: Stratification,
    /// Per stratum, [`Stratification::refiring`]: which of its rules
    /// re-fire, and the predicates those read positively.
    refiring: Vec<(Vec<bool>, BTreeSet<String>)>,
    /// Aligned with the program's rules, ground facts included.
    pub(crate) rules: Vec<CompiledRule>,
    /// Head predicate → its rules (ground facts excluded), in program order.
    pub(crate) defining: BTreeMap<String, Vec<usize>>,
    /// Heads of ground facts.
    pub(crate) fact_heads: BTreeSet<String>,
    /// Predicates a rule reads under negation.
    pub(crate) read_neg: BTreeSet<String>,
    /// Positive reachability: per predicate a rule reads positively, every
    /// head its rules reach, transitively.
    reach: BTreeMap<String, BTreeSet<String>>,
    /// Predicates on a positive dependency cycle.
    pub(crate) cyclic: BTreeSet<String>,
    /// Multi-rule heads whose per-rule segments a run records: read by no
    /// rule, mixed with no ground fact, and no rule of theirs reads a head
    /// that a rule of its own stratum reads.
    pub(crate) tracked: BTreeSet<String>,
    /// Heads maintained by derivation counting under retractions: on no
    /// cycle, with no aggregate rule and no ground facts.
    pub(crate) counted: BTreeSet<String>,
    /// Counted heads whose every rule is
    /// [`injective`](crate::incremental::injective).
    pub(crate) unit: BTreeSet<String>,
    /// The counted heads in topological order of the positive dependency
    /// graph: the order a retraction plans them in.
    pub(crate) units: Vec<String>,
}

impl Plan {
    pub(crate) fn new(program: &Program) -> Result<Plan> {
        let strat = stratify(program)?;
        let refiring = (0..strat.stratum_count).map(|s| strat.refiring(program, s)).collect();
        let rules = (program.rules.iter().enumerate())
            .map(|(ri, rule)| CompiledRule::compile(rule, ri))
            .collect::<Result<_>>()?;
        let (mut defining, mut fact_heads) = (BTreeMap::new(), BTreeSet::new());
        let (mut read_pos, mut read_neg) = (BTreeSet::new(), BTreeSet::new());
        // positive edges, body predicate → head
        let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        // heads a rule of their own stratum reads positively
        let mut own_stratum_read = BTreeSet::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            if rule.is_fact() {
                fact_heads.insert(rule.head_pred.clone());
                continue;
            }
            defining.entry(rule.head_pred.clone()).or_insert_with(Vec::new).push(ri);
            read_neg.extend(rule.negative_preds().map(str::to_string));
            let stratum = strat.pred_stratum[&rule.head_pred];
            for p in rule.positive_preds() {
                read_pos.insert(p);
                edges.entry(p).or_default().insert(rule.head_pred.as_str());
                if strat.pred_stratum[p] == stratum {
                    own_stratum_read.insert(p);
                }
            }
        }
        own_stratum_read.retain(|p| defining.contains_key(*p));
        let mut reach: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for &start in edges.keys() {
            let (mut seen, mut stack) = (BTreeSet::new(), vec![start]);
            while let Some(p) = stack.pop() {
                stack.extend(edges.get(p).into_iter().flatten().filter(|&&q| seen.insert(q)));
            }
            reach.insert(start.to_string(), seen.into_iter().map(str::to_string).collect());
        }
        let cyclic: BTreeSet<String> =
            reach.iter().filter(|(p, r)| r.contains(*p)).map(|(p, _)| p.clone()).collect();
        // a multi-rule head keeps scratch order under deltas only when
        // nothing observes that order downstream (terminal) and its rules
        // fire exclusively in the initial pass, once each, so a run records
        // their regions as it inserts their facts
        let initial_pass_only =
            |ri: usize| program.rules[ri].positive_preds().all(|p| !own_stratum_read.contains(p));
        let tracked = (defining.iter())
            .filter(|(head, ris)| {
                ris.len() > 1
                    && !read_pos.contains(head.as_str())
                    && !read_neg.contains(*head)
                    && !fact_heads.contains(*head)
                    && ris.iter().all(|&ri| initial_pass_only(ri))
            })
            .map(|(head, _)| head.clone())
            .collect();
        let counted: BTreeSet<String> = (defining.iter())
            .filter(|(head, ris)| {
                !cyclic.contains(*head)
                    && !fact_heads.contains(*head)
                    && !ris.iter().any(|&ri| program.rules[ri].has_aggregate())
            })
            .map(|(head, _)| head.clone())
            .collect();
        let unit = (counted.iter())
            .filter(|h| defining[*h].iter().all(|&ri| injective(&program.rules[ri])))
            .cloned()
            .collect();
        // none of the counted heads lies on a cycle, so a head that reaches
        // another has strictly fewer ancestors and sorting by that count is
        // a topological order
        let mut units: Vec<String> = counted.iter().cloned().collect();
        let depth = |x: &str| reach.values().filter(|r| r.contains(x)).count();
        units.sort_by_cached_key(|h| (depth(h), h.clone()));
        Ok(Plan {
            strat,
            refiring,
            rules,
            defining,
            fact_heads,
            read_neg,
            reach,
            cyclic,
            tracked,
            counted,
            unit,
            units,
        })
    }

    /// `seeds` and every head they reach: the predicates a delta or a
    /// retraction of `seeds` affects.
    pub(crate) fn closure_of(&self, seeds: BTreeSet<String>) -> BTreeSet<String> {
        let reached: Vec<String> =
            seeds.iter().flat_map(|p| self.reach.get(p)).flatten().cloned().collect();
        let mut closed = seeds;
        closed.extend(reached);
        closed
    }
}

/// A rule with a precomputed evaluation order and per-literal bound-position
/// information.
pub(crate) struct CompiledRule {
    pub(crate) rule: Rule,
    rule_idx: usize,
    /// Evaluation order: indices into `rule.body`.
    pub(crate) order: Vec<usize>,
    /// Bound positions of each positive literal *in evaluation order
    /// position* (index aligned with `order`).
    bound_positions: Vec<Vec<usize>>,
    /// Indices (into `rule.body`) of positive literals in source order —
    /// used for delta-occurrence numbering.
    pub(crate) positive_lit_indices: Vec<usize>,
    /// Occurrence (among positive literals) of the one the join order
    /// enumerates first, if any.
    pub(crate) outermost: Option<usize>,
}

impl CompiledRule {
    /// A stand-alone query, compiled as a rule with no place in a program.
    pub(crate) fn query(query: &Rule) -> Result<CompiledRule> {
        CompiledRule::compile(query, usize::MAX)
    }

    pub(crate) fn compile(rule: &Rule, rule_idx: usize) -> Result<CompiledRule> {
        let body = &rule.body;
        let mut placed = vec![false; body.len()];
        let mut bound: BTreeSet<usize> = BTreeSet::new();
        let mut order: Vec<usize> = Vec::with_capacity(body.len());
        let mut bound_positions: Vec<Vec<usize>> = Vec::with_capacity(body.len());
        let mut outermost = None;

        let lit_vars = |lit: &Literal| -> BTreeSet<usize> {
            let mut s = BTreeSet::new();
            match lit {
                Literal::Pos(a) | Literal::Neg(a) => a.vars(&mut s),
                Literal::Cmp(_, l, r) => {
                    l.vars(&mut s);
                    r.vars(&mut s);
                }
            }
            s
        };

        while order.len() < body.len() {
            let mut chosen: Option<usize> = None;
            // 1. an `=` usable as a test or assignment
            for (i, lit) in body.iter().enumerate() {
                if placed[i] {
                    continue;
                }
                if let Literal::Cmp(CmpOp::Eq, l, r) = lit {
                    let mut lv = BTreeSet::new();
                    let mut rv = BTreeSet::new();
                    l.vars(&mut lv);
                    r.vars(&mut rv);
                    let l_ok = lv.iter().all(|v| bound.contains(v));
                    let r_ok = rv.iter().all(|v| bound.contains(v));
                    let assignable = (l_ok && r.as_var().is_some())
                        || (r_ok && l.as_var().is_some())
                        || (l_ok && r_ok);
                    if assignable {
                        chosen = Some(i);
                        break;
                    }
                }
            }
            // 2. any other comparison with all vars bound
            if chosen.is_none() {
                for (i, lit) in body.iter().enumerate() {
                    if placed[i] {
                        continue;
                    }
                    if let Literal::Cmp(op, ..) = lit {
                        if *op != CmpOp::Eq && lit_vars(lit).iter().all(|v| bound.contains(v)) {
                            chosen = Some(i);
                            break;
                        }
                    }
                }
            }
            // 3. a negation with all vars bound
            if chosen.is_none() {
                for (i, lit) in body.iter().enumerate() {
                    if placed[i] {
                        continue;
                    }
                    if matches!(lit, Literal::Neg(_))
                        && lit_vars(lit).iter().all(|v| bound.contains(v))
                    {
                        chosen = Some(i);
                        break;
                    }
                }
            }
            // 4. the next positive literal in source order
            if chosen.is_none() {
                for (i, lit) in body.iter().enumerate() {
                    if !placed[i] && matches!(lit, Literal::Pos(_)) {
                        chosen = Some(i);
                        break;
                    }
                }
            }
            let Some(i) = chosen else {
                return Err(VadaError::Program(format!(
                    "cannot find a safe evaluation order for rule `{rule}`"
                )));
            };
            placed[i] = true;
            // bound positions for positive literals: argument positions whose
            // term is a constant or an already-bound variable
            if let Literal::Pos(atom) = &body[i] {
                let positions: Vec<usize> = atom
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v, _) => bound.contains(v),
                    })
                    .map(|(p, _)| p)
                    .collect();
                bound_positions.push(positions);
                let occ = body[..i].iter().filter(|l| matches!(l, Literal::Pos(_))).count();
                outermost.get_or_insert(occ);
            } else {
                bound_positions.push(Vec::new());
            }
            for v in lit_vars(&body[i]) {
                bound.insert(v);
            }
            order.push(i);
        }

        let positive_lit_indices: Vec<usize> = body
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Literal::Pos(_)))
            .map(|(i, _)| i)
            .collect();

        let rule = rule.clone();
        Ok(CompiledRule { rule, rule_idx, order, bound_positions, positive_lit_indices, outermost })
    }

    /// Occurrence number (among positive literals) of body literal `lit_idx`.
    pub(crate) fn occurrence_of(&self, lit_idx: usize) -> Option<usize> {
        self.positive_lit_indices.iter().position(|&i| i == lit_idx)
    }
}

/// How one rule evaluation sources its positive literals — the engine's
/// single mechanism behind full passes, semi-naive insertion deltas, and
/// the retraction machinery.
#[derive(Clone, Copy)]
pub(crate) enum DeltaSpec<'a> {
    /// Occurrence `occ` (among positive literals) enumerates `delta`;
    /// everything else reads the full database. The classic semi-naive
    /// insertion pass.
    Insert {
        /// The new facts.
        delta: &'a Database,
        /// Positive-literal occurrence forced to the delta.
        occ: usize,
    },
    /// Occurrence `occ` enumerates `removed`; occurrences *before* it read
    /// the database minus `removed`; occurrences *after* it read the full
    /// database (which still holds the removed facts — retraction commits
    /// after enumeration). Summed over every occurrence of a shrunk
    /// predicate, this enumerates each destroyed derivation exactly once:
    /// at the first occurrence where it touches a removed fact.
    Delete {
        /// The facts being retracted.
        removed: &'a Database,
        /// Positive-literal occurrence forced to the removed set.
        occ: usize,
    },
}

/// One positive literal's source, resolved once per rule evaluation — the
/// database is immutable while a rule evaluates, so no probe repeats a
/// predicate lookup or an index staleness check.
struct Source<'a> {
    facts: &'a [Tuple],
    /// Facts to treat as absent (the retraction views).
    minus: Option<&'a FactSet>,
    /// The index the fact set keeps for this lookup shape, when the literal
    /// is bound and reads the full database.
    kept: Option<Arc<KeptIndex>>,
    /// Slot in [`EvalCtx::lazy`] of the per-call index otherwise.
    lazy: usize,
}

/// What the join needs of the literal at one evaluation-order position.
enum Resolved<'a> {
    Pos(Source<'a>),
    /// The relation a negated atom must be absent from, if it exists.
    Neg(Option<&'a FactSet>),
    Cmp,
}

/// Reused buffers of one join depth.
#[derive(Clone, Default)]
struct Scratch {
    /// The bound-column key of the current probe (or the whole negated
    /// atom), so probing allocates nothing.
    key: Vec<Value>,
    /// Variables the literal binds in the current call; reset after every
    /// row in place of a per-row trail.
    fresh: Vec<usize>,
}

struct EvalCtx<'a> {
    /// Aligned with `CompiledRule::order`.
    lits: Vec<Resolved<'a>>,
    /// Lazily built indexes, one per distinct (source, pred, cols) shape.
    lazy: Vec<OnceCell<RowIndex>>,
    /// Kept-index probes served, flushed to the registry by `eval_rule`.
    probes: Cell<u64>,
}

impl<'a> EvalCtx<'a> {
    /// Resolve each literal's source. A bound literal over the full
    /// database asks its fact set for an index: `"index-build"` as `fault`
    /// panics at every such request, and `datalog.index.builds` counts the
    /// requests that filed a row.
    fn new(
        cr: &CompiledRule,
        db: &'a Database,
        spec: Option<DeltaSpec<'a>>,
        fault: Option<&'static str>,
        obs: &Obs,
    ) -> Result<EvalCtx<'a>> {
        // index namespaces: the full database, the delta, a filtered view
        const FULL: u8 = 0;
        const DELTA: u8 = 1;
        const FILTERED: u8 = 2;
        let mut shapes: Vec<(u8, &str, &[usize])> = Vec::new();
        let mut lits = Vec::with_capacity(cr.order.len());
        for (&lit_idx, cols) in cr.order.iter().zip(&cr.bound_positions) {
            lits.push(match &cr.rule.body[lit_idx] {
                Literal::Pos(atom) => {
                    let (source, tag, minus) = match (spec, cr.occurrence_of(lit_idx)) {
                        (Some(DeltaSpec::Insert { delta, occ }), Some(o)) if o == occ => {
                            (delta, DELTA, None)
                        }
                        (Some(DeltaSpec::Delete { removed, occ }), Some(o)) if o == occ => {
                            (removed, DELTA, None)
                        }
                        (Some(DeltaSpec::Delete { removed, occ }), Some(o)) if o < occ => {
                            (db, FILTERED, Some(removed))
                        }
                        _ => (db, FULL, None),
                    };
                    let shape = (tag, atom.pred.as_str(), cols.as_slice());
                    let lazy = shapes.iter().position(|s| *s == shape).unwrap_or_else(|| {
                        shapes.push(shape);
                        shapes.len() - 1
                    });
                    let kept = if tag == FULL && !cols.is_empty() {
                        guard_stage("datalog/index_build", || {
                            if fault == Some("index-build") {
                                panic!("injected index-build fault");
                            }
                            Ok(db.fact_set(&atom.pred).map(|fs| {
                                let (index, built) = fs.index(cols);
                                if built {
                                    obs.incr(obs_key::INDEX_BUILDS);
                                }
                                index
                            }))
                        })?
                    } else {
                        None
                    };
                    Resolved::Pos(Source {
                        facts: source.facts(&atom.pred),
                        minus: minus.and_then(|m| m.fact_set(&atom.pred)),
                        kept,
                        lazy,
                    })
                }
                Literal::Neg(atom) => Resolved::Neg(db.fact_set(&atom.pred)),
                Literal::Cmp(..) => Resolved::Cmp,
            });
        }
        Ok(EvalCtx {
            lits,
            lazy: shapes.iter().map(|_| OnceCell::new()).collect(),
            probes: Cell::new(0),
        })
    }

    /// Row ids of `src` whose projection on `cols` (non-empty) equals
    /// `key`, ascending — a walk along the chain of the index that serves
    /// them.
    fn matching_rows<'c>(&'c self, src: &'c Source, cols: &[usize], key: &[Value]) -> Rows<'c> {
        let index = match &src.kept {
            Some(index) => {
                self.probes.set(self.probes.get() + 1);
                &index.rows
            }
            None => self.lazy[src.lazy].get_or_init(|| {
                let mut index = RowIndex::default();
                let visible = (0..src.facts.len())
                    .filter(|&row| src.minus.is_none_or(|m| !m.contains(&src.facts[row])));
                index.extend(src.facts, cols, visible);
                index
            }),
        };
        index.rows(src.facts, cols, key)
    }
}

/// Recursive join over the compiled literal order. Calls `emit` for every
/// satisfying binding. `scratch` holds one buffer set per remaining depth.
fn join(
    cr: &CompiledRule,
    ctx: &EvalCtx,
    depth: usize,
    binding: &mut Binding,
    scratch: &mut [Scratch],
    emit: &mut dyn FnMut(&Binding) -> Result<()>,
) -> Result<()> {
    let Some((cur, scratch)) = scratch.split_first_mut() else {
        return emit(binding);
    };
    let lit_idx = cr.order[depth];
    match (&cr.rule.body[lit_idx], &ctx.lits[depth]) {
        (Literal::Pos(atom), Resolved::Pos(src)) => {
            let cols = &cr.bound_positions[depth];
            cur.key.clear();
            cur.key.extend(cols.iter().map(|&p| {
                resolve(&atom.terms[p], binding).expect("bound position must resolve")
            }));
            cur.fresh.clear();
            cur.fresh.extend(atom.terms.iter().filter_map(|t| match t {
                Term::Var(id, _) if binding[*id].is_none() => Some(*id),
                _ => None,
            }));
            // an unbound literal walks the whole relation (and must skip
            // the hidden facts itself); a bound one walks its index entry
            let (all, indexed) = if cols.is_empty() {
                (0..src.facts.len(), Rows::NONE)
            } else {
                (0..0, ctx.matching_rows(src, cols, &cur.key))
            };
            for row in all.chain(indexed) {
                let fact = &src.facts[row];
                if fact.arity() != atom.terms.len() {
                    continue;
                }
                if cols.is_empty() && src.minus.is_some_and(|m| m.contains(fact)) {
                    continue;
                }
                let mut ok = true;
                for (t, v) in atom.terms.iter().zip(fact.iter()) {
                    match t {
                        Term::Const(c) => {
                            if c != v {
                                ok = false;
                                break;
                            }
                        }
                        Term::Var(id, _) => match &binding[*id] {
                            Some(b) => {
                                if b != v {
                                    ok = false;
                                    break;
                                }
                            }
                            None => binding[*id] = Some(v.clone()),
                        },
                    }
                }
                if ok {
                    join(cr, ctx, depth + 1, binding, scratch, emit)?;
                }
                for &id in &cur.fresh {
                    binding[id] = None;
                }
            }
            Ok(())
        }
        (Literal::Neg(atom), Resolved::Neg(rel)) => {
            cur.key.clear();
            for t in &atom.terms {
                let Some(v) = resolve(t, binding) else {
                    return Err(VadaError::Eval(format!(
                        "unbound variable in negated atom `{atom}` of rule `{}`",
                        cr.rule
                    )));
                };
                cur.key.push(v);
            }
            if !rel.is_some_and(|fs| fs.find(&cur.key).is_some()) {
                join(cr, ctx, depth + 1, binding, scratch, emit)?;
            }
            Ok(())
        }
        (Literal::Cmp(op, l, r), _) => {
            let l_bound = expr_bound(l, binding);
            let r_bound = expr_bound(r, binding);
            match (l_bound, r_bound) {
                (true, true) => {
                    let lv = eval_expr(l, binding)?;
                    let rv = eval_expr(r, binding)?;
                    if apply_cmp(*op, &lv, &rv) {
                        join(cr, ctx, depth + 1, binding, scratch, emit)?;
                    }
                    Ok(())
                }
                (true, false) if *op == CmpOp::Eq => {
                    let Some(var) = r.as_var() else {
                        return Err(VadaError::Eval(format!(
                            "cannot invert expression `{r}` in rule `{}`",
                            cr.rule
                        )));
                    };
                    let lv = eval_expr(l, binding)?;
                    binding[var] = Some(lv);
                    join(cr, ctx, depth + 1, binding, scratch, emit)?;
                    binding[var] = None;
                    Ok(())
                }
                (false, true) if *op == CmpOp::Eq => {
                    let Some(var) = l.as_var() else {
                        return Err(VadaError::Eval(format!(
                            "cannot invert expression `{l}` in rule `{}`",
                            cr.rule
                        )));
                    };
                    let rv = eval_expr(r, binding)?;
                    binding[var] = Some(rv);
                    join(cr, ctx, depth + 1, binding, scratch, emit)?;
                    binding[var] = None;
                    Ok(())
                }
                _ => Err(VadaError::Eval(format!(
                    "comparison `{l} {op} {r}` has unbound variables in rule `{}`",
                    cr.rule
                ))),
            }
        }
        _ => unreachable!("`EvalCtx::new` resolves each literal by its own kind"),
    }
}

fn expr_bound(e: &crate::ast::Expr, binding: &Binding) -> bool {
    let mut vs = BTreeSet::new();
    e.vars(&mut vs);
    vs.iter().all(|v| binding[*v].is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use vada_common::tuple;

    fn run(src: &str) -> Database {
        Engine::default()
            .run(&parse_program(src).unwrap(), Database::new())
            .unwrap()
    }

    /// The row ids `fs`'s kept index on `cols` serves for `key`.
    fn lookup(fs: &FactSet, cols: &[usize], key: &Tuple) -> Vec<usize> {
        fs.index(cols).0.rows.rows(fs.tuples(), cols, key.values()).collect()
    }

    #[test]
    fn facts_loaded() {
        let db = run(r#"p(1). p(2). p(1)."#);
        assert_eq!(db.facts("p").len(), 2);
    }

    #[test]
    fn transitive_closure_chain() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("edge({}, {}).\n", i, i + 1));
        }
        src.push_str("tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).");
        let db = run(&src);
        assert_eq!(db.facts("tc").len(), 50 * 51 / 2);
    }

    #[test]
    fn negation_after_recursion() {
        let db = run(r#"
            node(1). node(2). node(3).
            edge(1, 2).
            reach(X, Y) :- edge(X, Y).
            reach(X, Z) :- reach(X, Y), edge(Y, Z).
            disconnected(X, Y) :- node(X), node(Y), X != Y, not reach(X, Y).
        "#);
        // pairs (x,y), x != y, not reachable: all except (1,2)
        assert_eq!(db.facts("disconnected").len(), 5);
    }

    #[test]
    fn arithmetic_assignment() {
        let db = run("price(10). doubled(Y) :- price(X), Y = X * 2.");
        assert_eq!(db.facts("doubled"), &[tuple![20]]);
    }

    #[test]
    fn comparison_filters() {
        let db = run("n(1). n(5). n(10). big(X) :- n(X), X >= 5.");
        assert_eq!(db.facts("big").len(), 2);
    }

    #[test]
    fn assignment_before_generator_is_reordered() {
        let db = run("q(3). p(Y) :- Y = X + 1, q(X).");
        assert_eq!(db.facts("p"), &[tuple![4]]);
    }

    #[test]
    fn aggregates_group_correctly() {
        let db = run(r#"
            listing("aa1", 100). listing("aa1", 300). listing("bb2", 50).
            stats(PC, count(P), sum(P), min(P), max(P), avg(P)) :- listing(PC, P).
        "#);
        let facts = db.facts("stats");
        assert_eq!(facts.len(), 2);
        let aa1 = facts.iter().find(|t| t[0] == Value::str("aa1")).unwrap();
        assert_eq!(aa1.values()[1..].to_vec(), vec![
            Value::Int(2),
            Value::Int(400),
            Value::Int(100),
            Value::Int(300),
            Value::Float(200.0),
        ]);
    }

    #[test]
    fn aggregate_feeding_rule_in_same_stratum() {
        let db = run(r#"
            item("a", 60). item("a", 50). item("b", 10).
            total(G, sum(P)) :- item(G, P).
            big(G) :- total(G, T), T > 100.
        "#);
        assert_eq!(db.facts("big"), &[tuple!["a"]]);
    }

    #[test]
    fn existential_head_invents_one_value_per_frontier() {
        let db = run(r#"
            prop("p1"). prop("p2").
            owner(X, Z) :- prop(X).
        "#);
        let facts = db.facts("owner");
        assert_eq!(facts.len(), 2);
        assert!(crate::skolem::is_skolem(&facts[0][1]));
        assert_ne!(facts[0][1], facts[1][1]);
        // deterministic: re-running produces identical skolems
        let db2 = run(r#"
            prop("p1"). prop("p2").
            owner(X, Z) :- prop(X).
        "#);
        assert_eq!(db.facts("owner"), db2.facts("owner"));
    }

    #[test]
    fn divergent_chase_guarded() {
        // person(Z) feeds back into its own existential rule: not warded
        let err = Engine::new(EngineConfig { max_skolem_depth: 4, ..Default::default() })
            .run(
                &parse_program(
                    "person(\"ann\"). parent_of(X, Z) :- person(X). person(Z) :- parent_of(X, Z).",
                )
                .unwrap(),
                Database::new(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("termination guard"), "{err}");
    }

    #[test]
    fn query_evaluation() {
        let db = run("m(\"a\", \"b\", 1). m(\"a\", \"c\", 2).");
        let q = parse_query("m(S, T, N), N >= 2").unwrap();
        let rows = Engine::default().eval_query(&q, &db).unwrap();
        assert_eq!(rows, vec![tuple!["a", "c", 2]]);
    }

    #[test]
    fn query_with_negation() {
        let db = run("a(1). a(2). b(2).");
        let q = parse_query("a(X), not b(X)").unwrap();
        let rows = Engine::default().eval_query(&q, &db).unwrap();
        assert_eq!(rows, vec![tuple![1]]);
    }

    #[test]
    fn zero_ary_predicates() {
        let db = run("go. done :- go.");
        assert_eq!(db.facts("done").len(), 1);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let db = run("e(1, 1). e(1, 2). self(X) :- e(X, X).");
        assert_eq!(db.facts("self"), &[tuple![1]]);
    }

    #[test]
    fn union_rules() {
        let db = run(r#"
            r1("a"). r2("b"). r2("a").
            all(X) :- r1(X).
            all(X) :- r2(X).
        "#);
        assert_eq!(db.facts("all").len(), 2);
    }

    #[test]
    fn string_concat_in_rules() {
        let db = run(r#"name("ann"). greeting(G) :- name(N), G = "hi " + N."#);
        assert_eq!(db.facts("greeting"), &[tuple!["hi ann"]]);
    }

    #[test]
    fn factset_removal_preserves_order() {
        let mut fs = FactSet::default();
        for i in 0..5i64 {
            fs.insert(tuple![i]);
        }
        assert_eq!(fs.remove(&tuple![2]), Some(2));
        assert_eq!(fs.remove(&tuple![2]), None);
        assert_eq!(fs.tuples(), &[tuple![0], tuple![1], tuple![3], tuple![4]]);
        // removed row ids come back ascending, whatever the listing order
        assert_eq!(fs.remove_all(&[tuple![4], tuple![9], tuple![0], tuple![4]]), vec![0, 3]);
        assert_eq!(fs.tuples(), &[tuple![1], tuple![3]]);
        assert!(!fs.contains(&tuple![0]));
    }

    #[test]
    fn clones_are_isolated_copy_on_write() {
        let mut original = Database::new();
        for i in 0..4i64 {
            original.insert("p", tuple![i]);
            original.insert("q", tuple![i, i]);
        }
        let p_before = original.facts("p").to_vec();
        let q_before = original.facts("q").to_vec();

        let mut copy = original.clone();
        assert!(copy.shares("p", &original) && copy.shares("q", &original));
        // writes that change nothing copy nothing
        assert!(!copy.insert("p", tuple![2]));
        assert!(!copy.remove("p", &tuple![99]));
        assert!(copy.remove_facts("p", &[tuple![98]]).is_empty());
        assert!(copy.shares("p", &original));

        // an append, a removal and emptying a relation on the clone never
        // reach the original
        assert!(copy.insert("p", tuple![10]));
        assert!(copy.remove("p", &tuple![0]));
        assert_eq!(copy.remove_facts("q", original.facts("q")).len(), q_before.len());
        assert!(!copy.shares("p", &original));
        assert_eq!(copy.facts("p"), &[tuple![1], tuple![2], tuple![3], tuple![10]]);
        assert_eq!(original.facts("p"), p_before);
        assert_eq!(original.facts("q"), q_before);

        // and the reverse
        let copy = original.clone();
        assert!(original.insert("p", tuple![20]));
        assert_eq!(original.remove_facts("q", &[tuple![1, 1]]), vec![1]);
        assert_eq!(copy.facts("p"), p_before);
        assert_eq!(copy.facts("q"), q_before);
        assert!(copy.contains("q", &tuple![1, 1]) && !original.contains("q", &tuple![1, 1]));
    }

    #[test]
    fn runs_share_the_relations_they_do_not_write() {
        let engine = Engine::default();

        // `Engine::run`: only `a` is written (a ground fact lands in it)
        let program = parse_program(
            "a(1000). all(X) :- a(X). all(X) :- b(X). picked(X) :- a(X), k(X).",
        )
        .unwrap();
        let mut input = Database::new();
        for i in 0..200i64 {
            input.insert("a", tuple![i]);
            input.insert("b", tuple![i + 500]);
            input.insert("k", tuple![i * 2]);
        }
        let out = engine.run(&program, input.clone()).unwrap();
        assert!(out.shares("b", &input) && out.shares("k", &input));
        assert!(!out.shares("a", &input));
        assert_eq!((input.facts("a").len(), out.facts("a").len()), (200, 201));
        assert_eq!(out.facts("all").len(), 401);

        // `run_query`: the caller's database comes back untouched, and
        // the directed run read its `e` relation in place
        let tc = parse_program("tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).").unwrap();
        let mut edges = Database::new();
        for i in 0..200i64 {
            edges.insert("e", tuple![i, i + 1]);
        }
        let e_before = edges.facts("e").to_vec();
        let query = parse_query("tc(3, Y)").unwrap();
        assert_eq!(engine.run_query(&tc, &edges, &query).unwrap().len(), 197);
        assert_eq!(edges.predicates(), vec!["e"]);
        assert_eq!(edges.facts("e"), e_before);
        // the query's index over `e` stays with the caller's relation
        assert!(!edges.fact_set("e").unwrap().index(&[0]).1);
        let demanded = engine.run_directed(&tc, edges.clone(), &query).unwrap();
        assert!(demanded.shares("e", &edges));
        assert_eq!(demanded.facts("tc").len(), 197);
    }

    #[test]
    fn shrunk_then_regrown_predicate_is_reindexed() {
        // a fact set that shrinks and regrows to the length its index
        // covers must not serve the old row ids: the join's term re-check
        // would silently drop the rows that moved
        let mut db = Database::new();
        for (a, b) in [(1, 10), (2, 20), (3, 30)] {
            db.insert("e", tuple![a, b]);
        }
        assert_eq!(lookup(db.fact_set("e").unwrap(), &[0], &tuple![3]), vec![2]);

        // facts are now [(1,10), (3,30), (4,40)] — the length indexed
        db.remove("e", &tuple![2, 20]);
        db.insert("e", tuple![4, 40]);
        let e = db.fact_set("e").unwrap();
        assert_eq!(lookup(e, &[0], &tuple![3]), vec![1]);
        assert_eq!(lookup(e, &[0], &tuple![4]), vec![2]);
        assert_eq!(lookup(e, &[0], &tuple![2]), Vec::<usize>::new());

        // the observable symptom: an indexed join must match a scan-join
        let program = parse_program("q(Y) :- e(4, Y). q(Y) :- e(X, Y), X >= 4, X <= 4.").unwrap();
        let engine = Engine::default();
        let [indexed, scan] = [0, 1].map(|ri| {
            let cr = CompiledRule::compile(&program.rules[ri], ri).unwrap();
            engine.eval_rule(&cr, &db, None, None, None).unwrap()
        });
        assert_eq!(scan, vec![tuple![40]]);
        assert_eq!(indexed, scan);

        // a splice moves rows without shrinking the set
        db.reorder("e").insert_at(0, [tuple![3, 31]]);
        let e = db.fact_set("e").unwrap();
        assert_eq!(lookup(e, &[0], &tuple![3]), vec![0, 2]);
        assert_eq!(lookup(e, &[0], &tuple![4]), vec![3]);
    }

    #[test]
    fn stale_index_is_never_served_between_refreshes() {
        // a copy-on-write clone starts with the original's index and copies
        // it when it extends it, so appends to the clone never reach the
        // original's, and a shrink of the original never reaches the clone's
        let mut original = FactSet::default();
        original.insert(tuple![1, 10]);
        original.insert(tuple![2, 20]);
        assert_eq!(lookup(&original, &[0], &tuple![2]), vec![1]);
        let mut copy = original.clone();
        let (shared, built) = copy.index(&[0]);
        assert!(!built && Arc::ptr_eq(&shared, &original.index(&[0]).0));

        copy.insert(tuple![2, 21]);
        copy.insert(tuple![3, 30]);
        assert_eq!(lookup(&copy, &[0], &tuple![2]), vec![1, 2]);
        assert_eq!(lookup(&original, &[0], &tuple![2]), vec![1]);
        assert_eq!(lookup(&original, &[0], &tuple![3]), Vec::<usize>::new());

        original.remove(&tuple![1, 10]);
        original.insert(tuple![3, 31]);
        original.insert(tuple![4, 40]);
        assert_eq!(lookup(&original, &[0], &tuple![3]), vec![1]);
        assert_eq!(lookup(&copy, &[0], &tuple![3]), vec![3]);
        assert_eq!(lookup(&copy, &[0], &tuple![1]), vec![0]);
    }

    #[test]
    fn index_builds_counter_tracks_work_not_calls() {
        let obs = Obs::enabled();
        let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
        let program = parse_program(
            "picked(X, P) :- a(X, P), k(X). wide(X, P, Q) :- picked(X, P), w(P, Q).",
        )
        .unwrap();
        let mut input = Database::new();
        for i in 0..50i64 {
            input.insert("a", tuple![i % 7, i]);
            input.insert("k", tuple![i % 5]);
            input.insert("w", tuple![i, i * 2]);
        }
        // `k` and `w` are indexed; `a` and `picked` are read whole
        let first = engine.run(&program, input.clone()).unwrap();
        assert_eq!(obs.get(obs_key::INDEX_BUILDS), 2);
        let probes = obs.get(obs_key::INDEX_PROBES);
        assert!(probes > 0);

        // the same input again: its indexes are kept, only probed
        let second = engine.run(&program, input.clone()).unwrap();
        assert_eq!(obs.get(obs_key::INDEX_BUILDS), 2, "a second run re-indexed its input");
        assert_eq!(obs.get(obs_key::INDEX_PROBES), 2 * probes);
        assert_eq!(second.facts("wide"), first.facts("wide"));

        // an appended row is work again, once
        input.insert("k", tuple![6]);
        engine.run(&program, input.clone()).unwrap();
        engine.run(&program, input).unwrap();
        assert_eq!(obs.get(obs_key::INDEX_BUILDS), 3);
    }

    #[test]
    fn injected_index_build_fault_fires_even_on_warm_refreshes() {
        // the fault keeps its call-site identity: it fires at every index
        // request, not only at requests that have rows to file
        let program = parse_program("q(Y) :- p(X), r(X, Y).").unwrap();
        let mut db = Database::new();
        db.insert("p", tuple![1]);
        db.insert("r", tuple![1, 2]);
        Engine::default().run(&program, db.clone()).unwrap();
        assert!(!db.fact_set("r").unwrap().index(&[0]).1, "warm");
        let faulty = Engine::new(EngineConfig { inject_fault: Some("index-build"), ..Default::default() });
        let err = faulty.run(&program, db).unwrap_err();
        assert_eq!(err.kind(), "parallel", "{err}");
        assert!(err.to_string().contains("datalog/index_build"), "{err}");
    }

    #[test]
    fn deletion_spec_enumerates_each_destroyed_derivation_once() {
        // q(X) :- p(X), p(X) self-join: a derivation touching the removed
        // fact at both occurrences must be enumerated exactly once
        let program = parse_program("q(X) :- p(X), p(X).").unwrap();
        let mut db = Database::new();
        db.insert("p", tuple![1]);
        db.insert("p", tuple![2]);
        let mut removed = Database::new();
        removed.insert("p", tuple![2]);
        let cr = CompiledRule::compile(&program.rules[0], 0).unwrap();
        let engine = Engine::default();
        let mut destroyed = Vec::new();
        for occ in 0..2 {
            destroyed.extend(
                engine
                    .eval_rule(
                        &cr,
                        &db,
                        Some(DeltaSpec::Delete { removed: &removed, occ }),
                        None,
                        None,
                    )
                    .unwrap(),
            );
        }
        assert_eq!(destroyed, vec![tuple![2]]);
    }

    #[test]
    fn same_generation_nonlinear_recursion() {
        let db = run(r#"
            par("a", "x"). par("b", "x"). par("c", "y"). par("d", "y").
            par("x", "r"). par("y", "r"). par("r", "top").
            sg(X, X) :- par(X, _).
            sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
        "#);
        // a,b same generation; c,d same generation; a,c same generation (both
        // grandchildren of r)
        let has = |x: &str, y: &str| db.contains("sg", &tuple![x, y]);
        assert!(has("a", "b"));
        assert!(has("a", "c"));
        assert!(has("x", "y"));
        assert!(!has("a", "x"));
    }

    /// The stratum loop with no rule settled: every same-stratum head read
    /// positively feeds the delta, and every rule re-fires on it. Returns
    /// the fixpoint and the semi-naive iterations it took, summed over the
    /// strata.
    fn refire_everything(program: &Program, mut db: Database) -> (Database, u64) {
        let engine = Engine::default();
        let strat = stratify(program).unwrap();
        for rule in program.rules.iter().filter(|r| r.is_fact()) {
            let t: Tuple = (rule.head_terms.iter())
                .map(|ht| match ht {
                    HeadTerm::Term(Term::Const(v)) => v.clone(),
                    _ => unreachable!("a ground fact"),
                })
                .collect();
            db.insert(&rule.head_pred, t);
        }
        let mut iterations = 0;
        for stratum in 0..strat.stratum_count {
            let compiled: Vec<CompiledRule> = (strat.strata_rules[stratum].iter())
                .map(|&ri| CompiledRule::compile(&program.rules[ri], ri).unwrap())
                .collect();
            let recursive = strat.recursive_preds(program, stratum);
            let absorb = |db: &mut Database, delta: &mut Database, head: &str, out: Vec<Tuple>| {
                let mut fresh = 0;
                for t in out {
                    if db.insert(head, t.clone()) {
                        fresh += 1;
                        if recursive.contains(head) {
                            delta.insert(head, t);
                        }
                    }
                }
                fresh
            };
            let mut delta = Database::new();
            let mut fresh = 0;
            for cr in &compiled {
                let out = engine.eval_rule(cr, &db, None, None, None).unwrap();
                fresh += absorb(&mut db, &mut delta, &cr.rule.head_pred, out);
            }
            while fresh > 0 {
                iterations += 1;
                let mut passes = Vec::new();
                for (ci, cr) in compiled.iter().enumerate() {
                    for (occ, &li) in cr.positive_lit_indices.iter().enumerate() {
                        let Literal::Pos(atom) = &cr.rule.body[li] else { continue };
                        if !cr.rule.has_aggregate()
                            && recursive.contains(&atom.pred)
                            && !delta.facts(&atom.pred).is_empty()
                        {
                            passes.push((ci, occ));
                        }
                    }
                }
                let mut new_delta = Database::new();
                fresh = 0;
                for (ci, occ) in passes {
                    let cr = &compiled[ci];
                    let spec = DeltaSpec::Insert { delta: &delta, occ };
                    let out = engine.eval_rule(cr, &db, Some(spec), None, None).unwrap();
                    fresh += absorb(&mut db, &mut new_delta, &cr.rule.head_pred, out);
                }
                delta = new_delta;
            }
        }
        (db, iterations)
    }

    #[test]
    fn settled_rules_keep_every_fact_and_its_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let programs = [
            // the benchmark's reasoner program, and with its consumer first
            "all(X, P) :- a(X, P). all(X, P) :- b(X, P). \
             picked(X, P) :- a(X, P), k(X). wide(X, P, Q) :- picked(X, P), w(P, Q).",
            "wide(X, P, Q) :- picked(X, P), w(P, Q). picked(X, P) :- a(X, P), k(X). \
             all(X, P) :- b(X, P). all(X, P) :- a(X, P).",
            // a three-level chain in reverse rule order
            "c3(X, Y) :- c2(X, Y), k(Y). c2(X, Z) :- c1(X, Y), e(Y, Z). c1(X, Y) :- e(X, Y), k(X).",
            // a head defined on both sides of its reader
            "r(X, Y) :- a(X, Y). q(X) :- r(X, Y), k(Y). r(X, Y) :- e(X, Y). s(X) :- q(X), k(X).",
            // transitive closure, and a rule reading it
            "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z). loop(X) :- tc(X, X).",
            // a negation stratum and an aggregate stratum above a chain
            "c1(X, Y) :- e(X, Y). c2(X, Z) :- c1(X, Y), e(Y, Z). \
             open(X) :- k(X), not c2(X, X). deg(X, count(Y)) :- c2(X, Y). \
             hub(X) :- deg(X, N), N > 2. open_hub(X) :- open(X), hub(X).",
        ];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = Database::new();
            for _ in 0..120 {
                let v = |rng: &mut StdRng| rng.gen_range(0..24i64);
                input.insert("a", tuple![v(&mut rng), v(&mut rng)]);
                input.insert("b", tuple![v(&mut rng), v(&mut rng)]);
                input.insert("e", tuple![v(&mut rng), v(&mut rng)]);
                input.insert("w", tuple![v(&mut rng), v(&mut rng)]);
                input.insert("k", tuple![v(&mut rng)]);
            }
            for src in programs {
                let program = parse_program(src).unwrap();
                let (expected, iterations) = refire_everything(&program, input.clone());
                let obs = vada_common::Obs::enabled();
                let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
                let got = engine.run(&program, input.clone()).unwrap();
                assert_eq!(got.predicates(), expected.predicates(), "seed {seed}: {src}");
                for pred in expected.predicates() {
                    assert_eq!(got.facts(pred), expected.facts(pred), "seed {seed}, `{pred}`: {src}");
                }
                assert_eq!(obs.get(obs_key::DELTA_PASSES), iterations, "seed {seed}: {src}");
            }
        }
    }
}
