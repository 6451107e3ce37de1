//! Incremental (delta) evaluation: a persistent [`IncrementalSession`]
//! that keeps the materialized strata of one program alive between calls
//! and feeds *changes* through the engine's existing semi-naive machinery,
//! so a re-run after a small edit costs O(change) instead of O(database).
//!
//! Its consumer in the wrangle is the mapping result store
//! (`vada_map::ResultStore`): a stand-alone mapping part keeps a session
//! from its first refresh after a row-level source edit on. The session
//! [adopts](IncrementalSession::adopt) the part's last engine run — its
//! input and whole output, so nothing is derived twice — and the store
//! feeds it the knowledge-base journal's appended, removed and tail-rewritten
//! rows as [`apply`](IncrementalSession::apply) and
//! [`retract`](IncrementalSession::retract) steps.
//!
//! ## Contract
//!
//! The session's output is **byte-identical** to evaluating the program
//! from scratch over the accumulated input: same derived relations, same
//! [`FactSet`](crate::engine::FactSet) insertion order. Whenever a delta
//! cannot be *proven* order-safe by the analysis below, the session falls
//! back to a full re-derivation — recording why in its
//! [`last_outcome`](IncrementalSession::last_outcome) and its registry's
//! `incremental.fallback.*` tallies — never to divergent output.
//! This module's randomized edit-script test and the incremental legs of
//! the root `query_equivalence` suite pin this.
//!
//! ## Retractions
//!
//! [`IncrementalSession::retract`] removes extensional facts and maintains
//! the materialization in O(change) by **derivation counting**, the
//! classic algorithm for non-recursive views. The session keeps per-fact
//! derivation counts, maintained by both the append and the
//! deletion path. A head whose rules each derive a fact at most once —
//! every variable their positive literals bind is in the head, or computed
//! from head variables — keeps none: each rule counts 1 for exactly the
//! facts it emits, which a single-rule head's facts, or a tracked head's
//! segments (condition 6 below), already record. A tracked multi-rule head's other
//! counts come with its segments, from the one enumeration that captures
//! them after a full or adopted run; every other counted head's are
//! captured on the first retraction that reaches it — append-only
//! workloads, and heads no retraction reaches, never pay for them. A deletion
//! enumerates exactly the destroyed derivations — each rule runs once per
//! shrunk body occurrence with that occurrence bound to the removed facts,
//! earlier occurrences reading the post-removal view and later ones the
//! pre-removal view — and tallies them per fact against its count; a fact
//! leaves the materialization exactly when it lost every derivation.
//!
//! Deletion keeps the byte-identity contract by counting alone only when
//! no fact is left partly supported. Removing facts whose support vanished
//! entirely is order-safe: the surviving enumeration is a subsequence of
//! the old one. A fact that loses some derivations but keeps another may
//! move in a scratch run, to the position of its first *surviving*
//! derivation, so such a retraction re-derives from scratch (*"partially
//! supported fact in `{head}`"*). Pure removals splice: a tracked
//! multi-rule head (condition 6 below) loses the removed rows in place, and
//! each of its region ends moves down by the removed row ids below it, so
//! its order stays `dedup(input ++ seg_0 ++ … ++ seg_n)` without a rebuild.
//!
//! Counting is unsound on a positive cycle, so a deletion reaching a
//! recursive predicate falls back, exactly as an append does (condition 4
//! below). So do deletions under negation, deletions reaching an
//! aggregate, and deletions affecting a predicate that mixes ground facts
//! with rules — same contract, reason recorded in the outcome.
//!
//! Every pass reads its full-database lookups through one
//! [`IndexStore`] that lives as long as the session: appends extend an
//! index in O(change), a reorder rebuilds it, and an index over a relation
//! no delta touches is built once.
//!
//! ## Order-safety analysis (appends)
//!
//! A delta (a batch of new extensional facts) takes the fast path only
//! when every condition below holds; each names the fallback reason it
//! produces. Writing `affected` for the delta predicates closed under
//! rule heads (a rule with an affected positive body predicate makes its
//! head affected):
//!
//! 1. delta predicates are extensional — not the head of any rule or
//!    ground fact (*"delta targets derived predicate"*);
//! 2. no affected predicate is negated anywhere — growth under negation
//!    retracts conclusions (*"negated predicate changed"*);
//! 3. no aggregate rule reads an affected predicate — aggregates are not
//!    monotone (*"aggregate input changed"*);
//! 4. no affected predicate lies on a positive cycle — genuinely
//!    recursive deltas interleave semi-naive iterations with old facts
//!    (*"recursive predicate changed"*); acyclic chains are fine: affected
//!    rules fire once each, in topological waves, and every head fact's
//!    result block lands exactly when the fact first becomes visible —
//!    the same order a scratch run produces;
//! 5. each rule has at most one affected positive literal, and that
//!    literal is the outermost generator of the compiled join order — only
//!    then do new derivations form a *suffix* of the scratch enumeration
//!    (*"multiple changed body literals"* / *"changed literal not
//!    outermost"*);
//! 6. an affected head defined by several rules must be *terminal* (read
//!    nowhere) with rules firing only in the initial pass
//!    (*"multi-rule predicate is read downstream"*). Its stored order is
//!    then `dedup(input ++ seg_0 ++ … ++ seg_n)` over per-rule emission
//!    segments, and the session records where each rule's region ends.
//!    An emission new to `seg_r` and absent from the head is inserted at
//!    the end of region `r`. One the head already holds, in its input or
//!    in another rule's region, keeps or changes its scratch row depending
//!    on where it sits, so the delta re-derives instead (*"emission
//!    already held in `{head}`"*).
//!
//! ## Example
//!
//! ```
//! use vada_common::tuple;
//! use vada_datalog::engine::{Database, EngineConfig};
//! use vada_datalog::incremental::{DeltaMode, IncrementalSession};
//!
//! let mut session = IncrementalSession::new(
//!     EngineConfig::default(),
//!     "big(X) :- n(X), X >= 10.",
//! ).unwrap();
//! let mut input = Database::new();
//! input.insert("n", tuple![5]);
//! input.insert("n", tuple![15]);
//! session.run_full(input).unwrap();
//!
//! // a two-fact delta evaluates in O(2), not O(n)
//! session.apply(vec![("n".into(), tuple![25]), ("n".into(), tuple![3])]).unwrap();
//! let out = session.last_outcome().unwrap();
//! assert_eq!(out.mode, DeltaMode::Incremental);
//! assert_eq!(session.database().facts("big"), &[tuple![15], tuple![25]]);
//!
//! // …and so does a retraction: counting removes exactly the consequences
//! session.retract(vec![("n".into(), tuple![15])]).unwrap();
//! let out = session.last_outcome().unwrap();
//! assert_eq!(out.mode, DeltaMode::Incremental);
//! assert_eq!(out.retracted_facts, 1);
//! assert_eq!(session.database().facts("big"), &[tuple![25]]);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use vada_common::error::guard_stage;
use vada_common::obs::{key as obs_key, slug, Obs};
use vada_common::{Result, Tuple, VadaError};

use crate::analysis::{stratify, Stratification};
use crate::ast::{CmpOp, HeadTerm, Literal, Program, Rule};
use crate::engine::{CompiledRule, Database, DeltaSpec, Engine, EngineConfig, FactSet};
use crate::index::IndexStore;
use crate::parser::parse_program;

/// How one call to [`IncrementalSession::apply`] (or
/// [`run_full`](IncrementalSession::run_full)) evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMode {
    /// A from-scratch materialization requested by the caller.
    Bootstrap,
    /// The delta went through the semi-naive fast path.
    Incremental,
    /// The delta was not provably order-safe; the session re-derived from
    /// scratch (the reason is in [`DeltaOutcome::fallback_reason`]).
    FullFallback,
}

/// What one evaluation step did — the incremental layer's trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// Fast path, fallback, or explicit bootstrap.
    pub mode: DeltaMode,
    /// Why the fast path was refused (set iff `mode` is `FullFallback`).
    pub fallback_reason: Option<String>,
    /// Number of genuinely new extensional facts fed in.
    pub delta_facts: usize,
    /// Number of extensional facts retracted (input side of a
    /// [`retract`](IncrementalSession::retract) step).
    pub removed_facts: usize,
    /// Facts newly derived by this step (for full runs: all derived facts).
    pub derived_facts: usize,
    /// Derived facts that left the materialization (counting decrements
    /// reaching zero) — the deletion path's work, the quantity the
    /// O(change) benchmark pins against full re-derivation.
    pub retracted_facts: usize,
}

impl DeltaOutcome {
    /// An incremental step that changed nothing.
    fn noop() -> DeltaOutcome {
        DeltaOutcome {
            mode: DeltaMode::Incremental,
            fallback_reason: None,
            delta_facts: 0,
            removed_facts: 0,
            derived_facts: 0,
            retracted_facts: 0,
        }
    }
}

/// Per-rule static info the eligibility analysis consults.
struct RuleInfo {
    head: String,
    /// Positive body predicates in source (occurrence) order.
    positive: Vec<String>,
    /// Occurrence index (among positive literals) of the positive literal
    /// the compiled join order enumerates first, if any.
    outermost_occ: Option<usize>,
    has_aggregate: bool,
}

/// Program-wide static info, computed once per session.
struct ProgramInfo {
    /// head predicate → defining rule indices (non-fact rules).
    defining: BTreeMap<String, Vec<usize>>,
    /// Predicates appearing negated anywhere.
    read_neg: BTreeSet<String>,
    /// Predicates on a genuine positive dependency cycle — the set that
    /// refuses the fast path.
    cyclic: BTreeSet<String>,
    /// Heads of ground-fact rules in the program.
    fact_heads: BTreeSet<String>,
    /// Aligned with `program.rules`; `None` for ground facts.
    rules: Vec<Option<RuleInfo>>,
    /// Multi-rule terminal heads eligible for segment tracking.
    tracked_candidates: BTreeSet<String>,
    /// Heads maintained by derivation counting under retractions:
    /// non-cyclic, no aggregate rule, no ground facts.
    counted: BTreeSet<String>,
    /// Counted heads whose every defining rule is [`injective`]: a rule
    /// derives each fact of the head at most once.
    unit: BTreeSet<String>,
    /// The retraction plan: every counted head, in topological order of
    /// the positive dependency graph.
    units: Vec<String>,
}

impl ProgramInfo {
    /// Analyse `program` once, registering every rule's lookup shapes in
    /// `store`.
    fn build(
        program: &Program,
        strat: &Stratification,
        store: &mut IndexStore,
    ) -> Result<ProgramInfo> {
        let mut defining: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut read_pos = BTreeSet::new();
        let mut read_neg = BTreeSet::new();
        let mut fact_heads = BTreeSet::new();
        let mut rules: Vec<Option<RuleInfo>> = Vec::with_capacity(program.rules.len());
        for (ri, rule) in program.rules.iter().enumerate() {
            if rule.is_fact() {
                fact_heads.insert(rule.head_pred.clone());
                rules.push(None);
                continue;
            }
            defining.entry(rule.head_pred.clone()).or_default().push(ri);
            let cr = CompiledRule::compile(rule, ri)?;
            for (pred, cols) in cr.indexed_lookups() {
                store.register(pred, cols);
            }
            let outermost_occ = cr
                .order
                .iter()
                .find(|&&i| matches!(rule.body[i], Literal::Pos(_)))
                .and_then(|&i| cr.occurrence_of(i));
            let positive: Vec<String> =
                rule.positive_preds().map(|p| p.to_string()).collect();
            let negative: Vec<String> =
                rule.negative_preds().map(|p| p.to_string()).collect();
            read_pos.extend(positive.iter().cloned());
            read_neg.extend(negative);
            rules.push(Some(RuleInfo {
                head: rule.head_pred.clone(),
                positive,
                outermost_occ,
                has_aggregate: rule.has_aggregate(),
            }));
        }
        let mut stratum_recursive = BTreeSet::new();
        for stratum in 0..strat.stratum_count {
            stratum_recursive.extend(strat.recursive_preds(program, stratum));
        }
        // positive reachability over body-pred → head edges; a predicate
        // that reaches itself lies on a genuine cycle
        let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for rule in program.rules.iter().filter(|r| !r.is_fact()) {
            for p in rule.positive_preds() {
                edges.entry(p).or_default().insert(rule.head_pred.as_str());
            }
        }
        let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for &start in edges.keys() {
            let (mut seen, mut stack) = (BTreeSet::new(), vec![start]);
            while let Some(p) = stack.pop() {
                stack.extend(edges.get(p).into_iter().flatten().filter(|&&q| seen.insert(q)));
            }
            reach.insert(start, seen);
        }
        let reaches = |p: &str, q: &str| reach.get(p).is_some_and(|r| r.contains(q));
        let cyclic: BTreeSet<String> =
            reach.keys().filter(|p| reaches(p, p)).map(|p| p.to_string()).collect();
        // a multi-rule head can keep scratch order under deltas only when
        // nothing observes that order downstream (terminal) and its rules
        // fire exclusively in the initial pass (no body predicate the
        // stratification deems recursive — the conservative set, so the
        // per-rule segments captured by post-hoc re-evaluation are exact)
        let mut tracked_candidates = BTreeSet::new();
        for (head, ris) in &defining {
            if ris.len() < 2
                || read_pos.contains(head)
                || read_neg.contains(head)
                || fact_heads.contains(head)
            {
                continue;
            }
            let initial_pass_only = ris.iter().all(|&ri| {
                rules[ri].as_ref().is_some_and(|info| {
                    info.positive.iter().all(|p| !stratum_recursive.contains(p))
                })
            });
            if initial_pass_only {
                tracked_candidates.insert(head.clone());
            }
        }
        let mut counted = BTreeSet::new();
        for (head, ris) in &defining {
            if cyclic.contains(head) || fact_heads.contains(head) {
                continue;
            }
            let has_agg = ris
                .iter()
                .any(|&ri| rules[ri].as_ref().is_some_and(|i| i.has_aggregate));
            if !has_agg {
                counted.insert(head.clone());
            }
        }
        let unit = counted
            .iter()
            .filter(|h| defining[*h].iter().all(|&ri| injective(&program.rules[ri])))
            .cloned()
            .collect();
        // the retraction plan's units: the counted heads, none on a cycle,
        // so a head that reaches another has strictly fewer ancestors and
        // sorting by that count is a topological order
        let mut units: Vec<String> = counted.iter().cloned().collect();
        let depth = |x: &str| reach.values().filter(|r| r.contains(x)).count();
        units.sort_by_cached_key(|h| (depth(h), h.clone()));
        Ok(ProgramInfo {
            defining,
            read_neg,
            cyclic,
            fact_heads,
            rules,
            tracked_candidates,
            counted,
            unit,
            units,
        })
    }
}

/// Whether no two bindings of `rule`'s body give the same head tuple, so the
/// rule derives each fact at most once: every variable a positive literal
/// binds is a head variable, or computed by an `=` from such variables.
fn injective(rule: &Rule) -> bool {
    if rule.has_aggregate() || !rule.existential_vars().is_empty() {
        return false;
    }
    let mut known: BTreeSet<_> = (rule.head_terms.iter())
        .filter_map(|t| match t {
            HeadTerm::Term(t) => t.var(),
            HeadTerm::Agg(..) => None,
        })
        .collect();
    loop {
        let before = known.len();
        for lit in &rule.body {
            let Literal::Cmp(CmpOp::Eq, l, r) = lit else { continue };
            for (var, expr) in [(l.as_var(), r), (r.as_var(), l)] {
                let mut inputs = BTreeSet::new();
                expr.vars(&mut inputs);
                if let Some(var) = var.filter(|_| inputs.is_subset(&known)) {
                    known.insert(var);
                }
            }
        }
        if known.len() == before {
            return rule.positive_vars().is_subset(&known);
        }
    }
}

/// The recorded emission order of one tracked head: one deduplicated
/// segment per defining rule, in program order, and where each rule's
/// region of the stored order ends. The stored order is
/// `dedup(input ++ seg_0 ++ … ++ seg_n)` — the scratch insertion order,
/// because the tracked head's rules fire once each, in rule order, over
/// inputs that are finalized before their stratum starts.
struct HeadSegments {
    /// `(rule index, emissions)` in program order.
    by_rule: Vec<(usize, FactSet)>,
    /// Region ends in the stored order: `ends[0]` closes the extensional
    /// prefix, `ends[s + 1]` the region of the rule in slot `s` — the
    /// facts whose first segment is `seg_s`.
    ends: Vec<usize>,
}

impl HeadSegments {
    /// Splice rule slot `slot`'s emissions into `head`, the stored order:
    /// the ones new to the slot's segment go in as one block at the end of
    /// the slot's region. Returns how many facts the head gained, or `None`
    /// when the head already holds one of them (module docs, condition 6).
    fn splice(&mut self, head: &mut FactSet, slot: usize, emitted: Vec<Tuple>) -> Option<usize> {
        let mut block = Vec::new();
        for t in emitted {
            if self.by_rule[slot].1.insert(t.clone()) {
                if head.contains(&t) {
                    return None;
                }
                block.push(t);
            }
        }
        let added = head.insert_at(self.ends[slot + 1], block);
        for end in &mut self.ends[slot + 1..] {
            *end += added;
        }
        Some(added)
    }

    /// Move every region end down by the removed rows (ascending) below it.
    fn shift_ends(&mut self, rows: &[usize]) {
        for end in &mut self.ends {
            *end -= rows.partition_point(|&row| row < *end);
        }
    }
}

/// One head's re-enumeration over a database: its scratch-order fact set
/// (input prefix + per-rule emissions), its derivation counts and its
/// per-rule emission segments (slot-aligned with `info.defining[head]`),
/// the region ends in `rebuilt` (as [`HeadSegments::ends`]). Produced by
/// `IncrementalSession::enumerate_head`; `counts` is empty unless asked
/// for.
struct HeadEnumeration {
    rebuilt: FactSet,
    counts: HashMap<Tuple, u64>,
    segments: Vec<(usize, FactSet)>,
    ends: Vec<usize>,
}

/// A persistent evaluation session for one program. See the module docs.
pub struct IncrementalSession {
    engine: Engine,
    program: Program,
    strat: Stratification,
    info: ProgramInfo,
    /// Extensional input facts accumulated so far (what a scratch run
    /// would start from). Used for fallback re-derivation.
    base: Database,
    /// Materialized database: `base` plus everything derived.
    db: Database,
    /// Emission segments for tracked multi-rule terminal heads.
    segments: BTreeMap<String, HeadSegments>,
    /// Per counted head: each fact's derivation count over the current
    /// materialization, summed over its defining rules. A tracked head's
    /// come with its segments, from the same enumeration; every other
    /// head's are captured on the first retraction that reaches it after a
    /// full run (append-only workloads never pay for them). Incremented by
    /// append deltas; a retraction that commits drops the facts that lost
    /// every derivation. A head is absent until captured, and for
    /// good when its counts are [implicit](IncrementalSession::implicit).
    counts: BTreeMap<String, HashMap<Tuple, u64>>,
    /// Hash indexes over `db` for every lookup shape of the program's
    /// rules, registered at build, refreshed before each delta and
    /// retraction pass, and reset when a full run replaces `db`.
    store: IndexStore,
    /// The most recent step; the registry's tallies are the totals.
    last: Option<DeltaOutcome>,
    /// Outcome tallies (bootstrap / incremental / fallback-by-reason) and
    /// the session store's `datalog.index.*`: the engine config's registry,
    /// disabled or not. [`IncrementalSession::last_outcome`] answers without
    /// one.
    obs: Obs,
    /// Set while a failed `apply`/`retract` may have left `db`
    /// half-updated; every later delta refuses until `run_full`
    /// re-materializes.
    poisoned: bool,
    bootstrapped: bool,
    /// Armed failure point for fault-injection tests (`None` in production).
    fault: Option<&'static str>,
}

impl std::fmt::Debug for IncrementalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSession")
            .field("rules", &self.program.rules.len())
            .field("facts", &self.db.total_facts())
            .field("last", &self.last)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl IncrementalSession {
    /// Parse and analyse `source`, creating an empty session. Call
    /// [`run_full`](IncrementalSession::run_full) before
    /// [`apply`](IncrementalSession::apply).
    pub fn new(config: EngineConfig, source: &str) -> Result<IncrementalSession> {
        let program = parse_program(source)?;
        let strat = stratify(&program)?;
        let obs = config.obs.clone();
        let mut store = IndexStore::default();
        store.obs = obs.clone();
        let info = ProgramInfo::build(&program, &strat, &mut store)?;
        Ok(IncrementalSession {
            engine: Engine::new(config),
            obs,
            program,
            strat,
            info,
            base: Database::new(),
            db: Database::new(),
            segments: BTreeMap::new(),
            counts: BTreeMap::new(),
            store,
            last: None,
            poisoned: false,
            bootstrapped: false,
            fault: None,
        })
    }

    /// Arm (or clear) an injected failure point — fault-injection hook for
    /// the deletion-path tests and, as `"index-build"`, the session store's
    /// refresh; a no-op unless a pass reaches the named point.
    #[doc(hidden)]
    pub fn inject_fault(&mut self, point: Option<&'static str>) {
        self.fault = point;
    }

    /// Total derivation count per fact of a counted predicate (`None` when
    /// the predicate is not maintained by counting, or no retraction has
    /// captured its counts yet). Test introspection for the counting
    /// invariants.
    #[doc(hidden)]
    pub fn derivation_counts(&self, pred: &str) -> Option<HashMap<Tuple, u64>> {
        if !self.implicit(pred) {
            return self.counts.get(pred).cloned();
        }
        let emitted: Vec<&[Tuple]> = match self.segments.get(pred) {
            Some(segs) => segs.by_rule.iter().map(|(_, seg)| seg.tuples()).collect(),
            None => vec![self.db.facts(pred)],
        };
        let mut total: HashMap<Tuple, u64> = HashMap::new();
        for t in emitted.into_iter().flatten() {
            *total.entry(t.clone()).or_insert(0) += 1;
        }
        Some(total)
    }

    /// Whether counted `head`'s derivation counts go without keeping: its
    /// rules each derive a fact at most once (`ProgramInfo::unit`), so a
    /// rule counts 1 for exactly the facts it emits — the head's facts for
    /// a single rule whose head has no input facts, a rule's segment for a
    /// tracked head.
    fn implicit(&self, head: &str) -> bool {
        self.info.unit.contains(head)
            && match self.info.defining[head].len() {
                1 => self.base.fact_set(head).is_none_or(|f| f.is_empty()),
                _ => self.segments.contains_key(head),
            }
    }

    /// The materialized database (inputs plus everything derived).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The most recent evaluation step, including a fallback's reason.
    pub fn last_outcome(&self) -> Option<&DeltaOutcome> {
        self.last.as_ref()
    }

    /// The registry this session records its outcome tallies into: the
    /// one its engine config names, so a disabled one keeps none.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Tally the outcome on the registry, then keep it as the last one.
    /// Every step goes through here, so `incremental.outcome.*` always
    /// sums to the steps taken — and every step leaves one
    /// `incremental/outcome` leaf span under the step's session span,
    /// naming the mode (and fallback reason) the order-safety analysis
    /// chose.
    fn record_outcome(&mut self, outcome: DeltaOutcome) {
        {
            let s = self.obs.span("incremental/outcome");
            s.attr(
                "mode",
                match outcome.mode {
                    DeltaMode::Bootstrap => "bootstrap",
                    DeltaMode::Incremental => "incremental",
                    DeltaMode::FullFallback => "full_fallback",
                },
            );
            if let Some(reason) = &outcome.fallback_reason {
                s.attr("reason", slug(reason));
            }
        }
        match outcome.mode {
            DeltaMode::Bootstrap => self.obs.incr(obs_key::INC_BOOTSTRAP),
            DeltaMode::Incremental => self.obs.incr(obs_key::INC_INCREMENTAL),
            DeltaMode::FullFallback => {
                self.obs.incr(obs_key::INC_FALLBACK);
                if let Some(reason) = &outcome.fallback_reason {
                    self.obs
                        .incr(&format!("{}{}", obs_key::INC_FALLBACK_PREFIX, slug(reason)));
                }
            }
        }
        self.last = Some(outcome);
    }

    /// Materialize from scratch over a fresh extensional input, replacing
    /// all session state. This is both the bootstrap step and the recovery
    /// path after a poisoned `apply`.
    pub fn run_full(&mut self, input: Database) -> Result<&Database> {
        let obs = self.obs.clone();
        let span = obs.span("incremental/bootstrap");
        span.attr("facts", input.total_facts());
        self.full_run(input, DeltaMode::Bootstrap, None, 0, 0)
    }

    /// A session for `source` that starts from a run the caller already
    /// has: `output` is the whole database [`Engine::run`] derived from
    /// `input` under this program. Nothing is derived again; the session
    /// is then exactly what [`run_full`](IncrementalSession::run_full) over
    /// `input` leaves, and its step is tallied as a bootstrap.
    pub fn adopt(
        config: EngineConfig,
        source: &str,
        input: Database,
        output: Database,
    ) -> Result<IncrementalSession> {
        let mut session = IncrementalSession::new(config, source)?;
        let obs = session.obs.clone();
        let span = obs.span("incremental/adopt");
        span.attr("facts", input.total_facts());
        session.settle(input, output, DeltaMode::Bootstrap, None, 0, 0)?;
        Ok(session)
    }

    fn full_run(
        &mut self,
        input: Database,
        mode: DeltaMode,
        fallback_reason: Option<String>,
        delta_facts: usize,
        removed_facts: usize,
    ) -> Result<&Database> {
        let db = self.engine.run(&self.program, input.clone())?;
        self.settle(input, db, mode, fallback_reason, delta_facts, removed_facts)?;
        Ok(&self.db)
    }

    /// Take `db`, the program's fixpoint over `input`, as the whole session
    /// state — the one path both a full run and an adopted run end in:
    /// capture the tracked heads' segments (and their counts), drop every
    /// other count, and record the step.
    fn settle(
        &mut self,
        input: Database,
        db: Database,
        mode: DeltaMode,
        fallback_reason: Option<String>,
        delta_facts: usize,
        removed_facts: usize,
    ) -> Result<()> {
        let derived = db.total_facts().saturating_sub(input.total_facts());
        // the new database's epochs say nothing about the old one's rows
        self.store.reset();
        self.capture_segments(&input, &db)?;
        self.base = input;
        self.db = db;
        self.poisoned = false;
        self.bootstrapped = true;
        self.record_outcome(DeltaOutcome {
            mode,
            fallback_reason,
            delta_facts,
            removed_facts,
            derived_facts: derived,
            ..DeltaOutcome::noop()
        });
        Ok(())
    }

    /// Refuse a delta or a retraction before bootstrap, or after a failed
    /// one until `run_full` re-materializes.
    fn ensure_live(&self) -> Result<()> {
        if !self.bootstrapped {
            return Err(VadaError::Eval(
                "incremental session not bootstrapped: call run_full first".into(),
            ));
        }
        if self.poisoned {
            return Err(VadaError::Eval(
                "incremental session poisoned by an earlier failure: run_full required".into(),
            ));
        }
        Ok(())
    }

    /// Capture per-rule emission segments for every tracked candidate by
    /// re-evaluating its defining rules over the final database (sound
    /// because tracked rules only read predicates finalized before their
    /// stratum). A head whose reconstruction does not reproduce the
    /// scratch order exactly is silently dropped from tracking — deltas
    /// touching it then fall back to full runs instead of risking drift.
    /// The same enumeration counts derivations: a counted candidate keeps
    /// them, unless its rules are injective (tracked, its counts are then
    /// implicit). Every other count is dropped, for
    /// [`ensure_counts`](Self::ensure_counts).
    fn capture_segments(&mut self, input: &Database, db: &Database) -> Result<()> {
        let mut segments = BTreeMap::new();
        let mut counts = BTreeMap::new();
        for head in &self.info.tracked_candidates {
            let unit = self.info.unit.contains(head);
            let e = self.enumerate_head(head, input, db, !unit)?;
            if self.info.counted.contains(head) && !unit {
                counts.insert(head.clone(), e.counts);
            }
            if e.rebuilt.tuples() == db.facts(head) {
                segments.insert(head.clone(), HeadSegments { by_rule: e.segments, ends: e.ends });
            }
        }
        self.segments = segments;
        self.counts = counts;
        Ok(())
    }

    /// Re-enumerate the defining rules of `head` over `db`, in the slot
    /// order of `info.defining[head]`: the prefix facts `head` holds in
    /// `prefix` (the extensional input), then each rule's emissions in
    /// program order. The single reconstruction primitive behind segment
    /// capture and lazy count capture — every consumer of the segments
    /// indexes them by the same positional slot, so keeping one loop keeps
    /// the alignment structural. Lookups go through the session store where
    /// it is current for `db`.
    fn enumerate_head(
        &self,
        head: &str,
        prefix: &Database,
        db: &Database,
        count: bool,
    ) -> Result<HeadEnumeration> {
        let mut rebuilt = FactSet::default();
        if let Some(p) = prefix.fact_set(head) {
            for t in p.tuples() {
                rebuilt.insert(t.clone());
            }
        }
        let mut counts: HashMap<Tuple, u64> = HashMap::new();
        let mut segments: Vec<(usize, FactSet)> = Vec::new();
        let mut ends = vec![rebuilt.len()];
        for &ri in &self.info.defining[head] {
            let cr = CompiledRule::compile(&self.program.rules[ri], ri)?;
            let mut seg = FactSet::default();
            for t in self.engine.eval_rule(&cr, db, None, Some(&self.store), None)? {
                if count {
                    *counts.entry(t.clone()).or_insert(0) += 1;
                }
                seg.insert(t.clone());
                rebuilt.insert(t);
            }
            segments.push((ri, seg));
            ends.push(rebuilt.len());
        }
        Ok(HeadEnumeration { rebuilt, counts, segments, ends })
    }

    /// Capture derivation counts over the *current* materialization for
    /// every counted head in `affected` that the full run's segment capture
    /// did not count and whose counts are not [implicit](Self::implicit).
    /// Called on every retraction, it enumerates a head only on the first
    /// retraction after a full run that reaches it, so append-only
    /// workloads, and heads no retraction reaches, never re-enumerate rules
    /// for bookkeeping they do not use; from then on the append and
    /// deletion paths keep every captured count in step until the next full
    /// run drops them.
    fn ensure_counts(&mut self, affected: &BTreeSet<String>) -> Result<()> {
        let missing: Vec<String> = (affected.iter())
            .filter(|h| self.info.counted.contains(*h))
            .filter(|h| !self.counts.contains_key(*h) && !self.implicit(h))
            .cloned()
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let obs = self.obs.clone();
        let span = obs.span("incremental/counts");
        span.attr("heads", missing.len());
        for head in missing {
            let e = self.enumerate_head(&head, &self.base, &self.db, true)?;
            self.counts.insert(head, e.counts);
        }
        Ok(())
    }

    /// Feed a batch of new extensional facts through the session. Facts
    /// must arrive in the order a scratch input build would append them;
    /// already-present facts are ignored. Returns the updated database.
    pub fn apply(&mut self, delta: Vec<(String, Tuple)>) -> Result<&Database> {
        // the session span wraps the whole delta pass, so any engine run a
        // fallback triggers nests under it; the guard borrows a clone of
        // the handle (same registry), leaving `self` free for the pass
        let obs = self.obs.clone();
        let span = obs.span("incremental/apply");
        span.attr("facts", delta.len());
        self.ensure_live()?;

        // deltas must be extensional: a fact for a derived predicate would
        // occupy an input position in a scratch run, which appending can
        // never reproduce
        let refused = self.derived_target(&delta);
        let refused = refused.map(|p| format!("delta targets derived predicate `{p}`"));

        // extend the accumulated input; only genuinely new facts matter
        // (scratch would dedup repeats into their existing positions)
        let mut fresh: Vec<(String, Tuple)> = Vec::new();
        for (pred, t) in delta {
            if self.base.insert(&pred, t.clone()) {
                fresh.push((pred, t));
            }
        }
        if let Some(reason) = refused {
            return self.fallback_rerun(reason, fresh.len(), 0);
        }
        if fresh.is_empty() {
            self.record_outcome(DeltaOutcome::noop());
            return Ok(&self.db);
        }

        if let Some(reason) = self.refuse_reason(&fresh) {
            return self.fallback_rerun(reason, fresh.len(), 0);
        }
        self.fast_path(fresh)
    }

    /// Run the order-safety analysis (module docs, conditions 2–6) over a
    /// batch of fresh extensional facts; `Some(reason)` refuses the fast
    /// path.
    fn refuse_reason(&self, fresh: &[(String, Tuple)]) -> Option<String> {
        let affected = self.closure_of(fresh.iter().map(|(p, _)| p.clone()).collect());
        for p in &affected {
            if self.info.read_neg.contains(p) {
                return Some(format!("negated predicate `{p}` changed"));
            }
            if self.info.cyclic.contains(p) {
                return Some(format!("recursive predicate `{p}` changed"));
            }
        }
        for info in self.info.rules.iter().flatten() {
            let hits: Vec<usize> = info
                .positive
                .iter()
                .enumerate()
                .filter(|(_, p)| affected.contains(*p))
                .map(|(occ, _)| occ)
                .collect();
            if hits.is_empty() {
                continue;
            }
            if info.has_aggregate {
                return Some(format!(
                    "aggregate input changed (head `{}`)",
                    info.head
                ));
            }
            if hits.len() > 1 {
                return Some(format!(
                    "multiple changed body literals in a rule for `{}`",
                    info.head
                ));
            }
            if info.outermost_occ != Some(hits[0]) {
                return Some(format!(
                    "changed literal `{}` is not the outermost generator in a rule for `{}`",
                    info.positive[hits[0]], info.head
                ));
            }
        }
        for h in &affected {
            let n_rules = self.info.defining.get(h).map_or(0, |v| v.len());
            if n_rules >= 2 && !self.segments.contains_key(h) {
                return Some(format!(
                    "multi-rule predicate `{h}` is read downstream or untracked"
                ));
            }
        }
        None
    }

    /// The first predicate among `facts` that a rule or a ground fact
    /// defines: no delta or retraction may target one.
    fn derived_target<'a>(&self, facts: &'a [(String, Tuple)]) -> Option<&'a String> {
        facts
            .iter()
            .map(|(p, _)| p)
            .find(|p| self.info.defining.contains_key(*p) || self.info.fact_heads.contains(*p))
    }

    /// `seeds` closed under rule heads: a rule with a seed (or closed)
    /// positive body predicate adds its head: the predicates a delta or a
    /// retraction of `seeds` reaches.
    fn closure_of(&self, seeds: BTreeSet<String>) -> BTreeSet<String> {
        let mut closed = seeds;
        loop {
            let mut changed = false;
            for info in self.info.rules.iter().flatten() {
                if !closed.contains(&info.head)
                    && info.positive.iter().any(|p| closed.contains(p))
                {
                    closed.insert(info.head.clone());
                    changed = true;
                }
            }
            if !changed {
                return closed;
            }
        }
    }

    fn fallback_rerun(
        &mut self,
        reason: String,
        delta_facts: usize,
        removed_facts: usize,
    ) -> Result<&Database> {
        let input = self.base.clone();
        match self.full_run(input, DeltaMode::FullFallback, Some(reason), delta_facts, removed_facts)
        {
            Ok(_) => Ok(&self.db),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The semi-naive fast path. `fresh` holds genuinely new extensional
    /// facts already inserted into `base`.
    ///
    /// Affected rules fire **once each**, in topological waves per
    /// stratum: a rule becomes ready when the producer of its affected
    /// (outermost) predicate has fired — analysis has excluded positive
    /// cycles, so the affected sub-graph is a DAG and the waves drain.
    /// Within a wave, rules fire one by one in program order.
    fn fast_path(&mut self, fresh: Vec<(String, Tuple)>) -> Result<&Database> {
        self.poisoned = true; // cleared on success
        let delta_facts = fresh.len();
        let mut derived = 0usize;
        let affected = self.closure_of(fresh.iter().map(|(p, _)| p.clone()).collect());
        // pending new facts per predicate, in arrival order — the delta
        // the engine's occurrence-restricted passes consume
        let mut pending = Database::new();
        for (pred, t) in &fresh {
            self.db.insert(pred, t.clone());
            pending.insert(pred, t.clone());
        }
        // an affected predicate's delta is complete once its producer has
        // fired; extensional deltas are complete from the start
        let mut ready: BTreeSet<&str> = affected
            .iter()
            .filter(|p| !self.info.defining.contains_key(*p))
            .map(|p| p.as_str())
            .collect();
        // a non-delta literal never reads an affected predicate (condition
        // 5), so one refresh serves every wave
        self.store.refresh(&self.db, self.fault)?;

        for stratum in 0..self.strat.stratum_count {
            // rules of this stratum with an affected outermost literal,
            // in program order; each fires exactly once
            let mut waiting: Vec<(usize, usize)> = Vec::new(); // (rule idx, occurrence)
            for &ri in &self.strat.strata_rules[stratum] {
                let Some(info) = &self.info.rules[ri] else { continue };
                let Some(occ) = info.outermost_occ else { continue };
                if affected.contains(&info.positive[occ]) {
                    waiting.push((ri, occ));
                }
            }
            while !waiting.is_empty() {
                let (wave, rest): (Vec<(usize, usize)>, Vec<(usize, usize)>) =
                    waiting.iter().copied().partition(|&(ri, occ)| {
                        let info = self.info.rules[ri].as_ref().expect("non-fact rule");
                        ready.contains(info.positive[occ].as_str())
                    });
                if wave.is_empty() {
                    self.poisoned = true;
                    return Err(VadaError::Eval(
                        "incremental delta plan is not acyclic (internal invariant)".into(),
                    ));
                }
                waiting = rest;
                let compiled: Vec<CompiledRule> = wave
                    .iter()
                    .map(|&(ri, _)| CompiledRule::compile(&self.program.rules[ri], ri))
                    .collect::<Result<_>>()?;
                for (&(ri, occ), cr) in wave.iter().zip(&compiled) {
                    let out = guard_stage("datalog/incremental-delta", || {
                        self.engine.eval_rule(
                            cr,
                            &self.db,
                            Some(DeltaSpec::Insert { delta: &pending, occ }),
                            Some(&self.store),
                            None,
                        )
                    })?;
                    let pred = cr.rule.head_pred.as_str();
                    // every emission is one new derivation: keep the
                    // retraction path's counts (if captured) in step
                    if let Some(cnt) = self.counts.get_mut(pred) {
                        for t in &out {
                            *cnt.entry(t.clone()).or_insert(0) += 1;
                        }
                    }
                    if let Some(segs) = self.segments.get_mut(pred) {
                        // tracked (terminal) head: spliced into place
                        let slot = segs
                            .by_rule
                            .iter()
                            .position(|(r, _)| *r == ri)
                            .expect("firing rule defines this head");
                        let Some(added) = segs.splice(self.db.reorder(pred), slot, out) else {
                            let reason = format!("emission already held in `{pred}`");
                            return self.fallback_rerun(reason, delta_facts, 0);
                        };
                        derived += added;
                        continue;
                    }
                    for t in out {
                        if self.db.insert(pred, t.clone()) {
                            derived += 1;
                            pending.insert(pred, t);
                        }
                    }
                }
                // every head whose (single) defining rule fired is complete
                for &(ri, _) in &wave {
                    let info = self.info.rules[ri].as_ref().expect("non-fact rule");
                    ready.insert(info.head.as_str());
                }
            }
            if self.db.total_facts() > self.engine.config().max_facts {
                return Err(VadaError::Eval(format!(
                    "derived fact count exceeded the cap of {}",
                    self.engine.config().max_facts
                )));
            }
        }

        self.poisoned = false;
        self.record_outcome(DeltaOutcome {
            delta_facts,
            derived_facts: derived,
            ..DeltaOutcome::noop()
        });
        Ok(&self.db)
    }

    /// Retract a batch of extensional facts from the session. Facts not
    /// present in the accumulated input are ignored (a scratch input build
    /// never held them); the rest are removed and the materialization is
    /// maintained by derivation counting — see the module docs. The result
    /// is byte-identical to a scratch run over the shrunk input; whenever
    /// that cannot be guaranteed the session re-derives from scratch,
    /// recording why.
    pub fn retract(&mut self, removals: Vec<(String, Tuple)>) -> Result<&Database> {
        let obs = self.obs.clone();
        let span = obs.span("incremental/retract");
        span.attr("facts", removals.len());
        self.ensure_live()?;

        // retractions must target extensional predicates, mirroring the
        // append path: a derived fact's presence is a consequence, not an
        // input, so "removing" one only makes sense against the base
        let refused = self.derived_target(&removals);
        let refused = refused.map(|p| format!("retraction targets derived predicate `{p}`"));

        // base mutation starts here: any later failure leaves the session
        // poisoned until run_full re-materializes
        self.poisoned = true;
        let fresh = self.remove_from_base(removals);
        if let Some(reason) = refused {
            return self.fallback_rerun(reason, 0, fresh.len());
        }
        if fresh.is_empty() {
            self.poisoned = false;
            self.record_outcome(DeltaOutcome::noop());
            return Ok(&self.db);
        }

        let affected = self.closure_of(fresh.iter().map(|(p, _)| p.clone()).collect());
        if let Some(reason) = self.refuse_retraction(&affected) {
            return self.fallback_rerun(reason, 0, fresh.len());
        }
        self.retract_fast(fresh, affected)
    }

    /// Remove `removals` from the accumulated input in one batched pass
    /// per predicate (a per-fact `remove` would rescan the base k times),
    /// returning the facts that were actually present, deduplicated. The
    /// order of the returned list only seeds a set-semantics removal
    /// database, so the per-predicate grouping is safe.
    fn remove_from_base(&mut self, removals: Vec<(String, Tuple)>) -> Vec<(String, Tuple)> {
        let mut fresh: Vec<(String, Tuple)> = Vec::new();
        let mut by_pred: BTreeMap<String, HashSet<Tuple>> = BTreeMap::new();
        for (pred, t) in removals {
            if self.base.contains(&pred, &t)
                && by_pred.entry(pred.clone()).or_default().insert(t.clone())
            {
                fresh.push((pred, t));
            }
        }
        for (pred, gone) in &by_pred {
            self.base.remove_facts(pred, gone);
        }
        fresh
    }

    /// Static refusal conditions for the retraction path. Narrower than
    /// the append analysis: deletion needs no outermost/single-literal
    /// conditions (the delta-delete enumeration handles arbitrary and
    /// multiple occurrences), but shrinking under negation grows
    /// conclusions, counts are unsound on a positive cycle, aggregates
    /// change value rather than membership, and a head mixing ground facts
    /// with rules has support the counts cannot see. A retraction that
    /// passes reaches counted heads only.
    fn refuse_retraction(&self, affected: &BTreeSet<String>) -> Option<String> {
        for p in affected {
            if self.info.read_neg.contains(p) {
                return Some(format!("negated predicate `{p}` shrank"));
            }
            if self.info.cyclic.contains(p) {
                return Some(format!("recursive predicate `{p}` shrank"));
            }
            if self.info.fact_heads.contains(p) && self.info.defining.contains_key(p) {
                return Some(format!("predicate `{p}` mixes ground facts and rules"));
            }
        }
        for info in self.info.rules.iter().flatten() {
            // an aggregate rule's head is affected exactly when the rule
            // reads an affected predicate, or it shares the head with one
            if info.has_aggregate && affected.contains(&info.head) {
                return Some(format!("aggregate input shrank (head `{}`)", info.head));
            }
        }
        None
    }

    /// The retraction fast path: counting over the affected units, with
    /// a full re-derivation when a fact is left partly supported. `fresh`
    /// holds facts already removed from `base`.
    fn retract_fast(
        &mut self,
        fresh: Vec<(String, Tuple)>,
        affected: BTreeSet<String>,
    ) -> Result<&Database> {
        // planning reads `db` as it stands — the pending base removal has
        // not touched it — so one refresh serves the count capture and
        // every counting pass
        self.store.refresh(&self.db, self.fault)?;
        // first retraction reaching a head since the last full run: capture
        // the counts it plans against
        self.ensure_counts(&affected)?;
        let removed_facts = fresh.len();
        let mut retracted = 0usize;

        // the removal set, grown as consequences lose their support; `db`
        // is not touched until the whole plan is known
        let mut removed = Database::new();
        for (pred, t) in &fresh {
            removed.insert(pred, t.clone());
        }

        // the affected units of the static plan, so every unit fires with
        // the complete removal sets of its inputs
        let units: Vec<String> =
            self.info.units.iter().filter(|h| affected.contains(*h)).cloned().collect();
        // per counted head, the facts that lost every derivation
        let mut gone: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for head in &units {
            if self.plan_counted_retraction(head, &mut removed, &mut gone, &mut retracted)? {
                let reason = format!("partially supported fact in `{head}`");
                return self.fallback_rerun(reason, 0, removed_facts);
            }
        }

        // ---- commit: everything below is pure bookkeeping ----
        for pred in removed.predicates() {
            let rows = self.db.remove_facts(pred, removed.facts(pred));
            if let Some(segs) = self.segments.get_mut(pred) {
                segs.shift_ends(&rows);
            }
        }
        // a planned fact lost every derivation: its count reaches zero
        // (implicit counts go with the emission), and it leaves each
        // rule's segment that held it
        for (head, gone) in &gone {
            if let Some(counts) = self.counts.get_mut(head) {
                for t in gone {
                    counts.remove(t);
                }
            }
            if let Some(segs) = self.segments.get_mut(head) {
                for (_, seg) in &mut segs.by_rule {
                    seg.remove_all(gone);
                }
            }
        }
        if self.fault == Some("retract-commit") {
            return Err(VadaError::Eval(
                "injected fault at retract-commit (fault-injection hook)".into(),
            ));
        }

        self.poisoned = false;
        self.record_outcome(DeltaOutcome {
            removed_facts,
            retracted_facts: retracted,
            ..DeltaOutcome::noop()
        });
        Ok(&self.db)
    }

    /// Enumerate the derivations destroyed by `removed` for one counted
    /// head, record in `gone` the facts whose support vanished entirely and
    /// extend `removed` with those the input does not hold. Returns whether
    /// a fact keeps only part of its derivations — its scratch row may then
    /// move, and the plan stops there.
    fn plan_counted_retraction(
        &self,
        head: &str,
        removed: &mut Database,
        gone: &mut BTreeMap<String, Vec<Tuple>>,
        retracted: &mut usize,
    ) -> Result<bool> {
        let ris = &self.info.defining[head];
        let mut passes: Vec<(usize, usize)> = Vec::new(); // (slot, occurrence)
        for (slot, &ri) in ris.iter().enumerate() {
            let info = self.info.rules[ri].as_ref().expect("non-fact rule");
            for (occ, p) in info.positive.iter().enumerate() {
                if !removed.facts(p).is_empty() {
                    passes.push((slot, occ));
                }
            }
        }
        if passes.is_empty() {
            return Ok(false);
        }
        let compiled: Vec<CompiledRule> = ris
            .iter()
            .map(|&ri| CompiledRule::compile(&self.program.rules[ri], ri))
            .collect::<Result<_>>()?;
        let removed_view: &Database = removed;
        // destroyed derivations per fact, and the facts in emission order
        let mut lost: HashMap<Tuple, u64> = HashMap::new();
        let mut emit_order: Vec<Tuple> = Vec::new();
        for &(slot, occ) in &passes {
            let out = guard_stage("datalog/incremental-retract", || {
                if self.fault == Some("retract-enumerate") {
                    panic!("injected fault at retract-enumerate (fault-injection hook)");
                }
                self.engine.eval_rule(
                    &compiled[slot],
                    &self.db,
                    Some(DeltaSpec::Delete { removed: removed_view, occ }),
                    Some(&self.store),
                    None,
                )
            })?;
            for t in out {
                *lost.entry(t.clone()).or_insert(0) += 1;
                emit_order.push(t);
            }
        }
        let counts = self.counts.get(head);
        if counts.is_none() && !self.implicit(head) {
            return Err(VadaError::Eval(format!(
                "counts of `{head}` not captured before planning (internal invariant)"
            )));
        }
        let mut head_gone: Vec<Tuple> = Vec::new();
        for t in emit_order {
            // the first emission of a fact decides it
            let Some(lost) = lost.remove(&t) else { continue };
            // an implicit count is 1 per rule emitting the fact, and a
            // destroyed derivation was emitted
            let old: u64 = match (counts, self.segments.get(head)) {
                (Some(counts), _) => counts.get(&t).copied().unwrap_or(0),
                (None, Some(segs)) => {
                    segs.by_rule.iter().map(|(_, seg)| u64::from(seg.contains(&t))).sum()
                }
                (None, None) => 1,
            };
            if lost > old {
                return Err(VadaError::Eval(format!(
                    "retraction destroyed more derivations of `{head}` than were counted \
                     (internal invariant)"
                )));
            }
            if lost < old {
                // partial support: the fact stays, but its first
                // derivation may be among the destroyed ones
                return Ok(true);
            }
            if !self.base.contains(head, &t) {
                // support gone: the fact leaves, cascading downstream
                removed.insert(head, t.clone());
                *retracted += 1;
            }
            head_gone.push(t);
        }
        gone.insert(head.to_string(), head_gone);
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::obs::span_shape;
    use vada_common::tuple;

    /// Scratch evaluation of `source` over `input`, dumped in the
    /// order-sensitive way downstream components observe.
    fn scratch(source: &str, input: &Database) -> String {
        let db = Engine::default()
            .run(&parse_program(source).unwrap(), input.clone())
            .unwrap();
        dump(&db)
    }

    fn dump(db: &Database) -> String {
        let mut out = String::new();
        for pred in db.predicates() {
            for t in db.facts(pred) {
                out.push_str(&format!("{pred}{t:?}\n"));
            }
        }
        out
    }

    fn session(source: &str, input: Database) -> IncrementalSession {
        let mut s = IncrementalSession::new(EngineConfig::default(), source).unwrap();
        s.run_full(input).unwrap();
        s
    }

    #[test]
    fn single_rule_append_takes_fast_path_and_matches_scratch() {
        let src = "q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        for i in 0..20i64 {
            input.insert("p", tuple![i]);
            input.insert("r", tuple![i, i * 10]);
        }
        let mut s = session(src, input.clone());
        s.apply(vec![("p".into(), tuple![100i64])]).unwrap();
        input.insert("p", tuple![100i64]);
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn delta_cascades_through_derived_chain() {
        // p → mid → top is an acyclic chain inside one stratum: the waves
        // fire mid's rule first, then top's, all on the fast path
        let src = "mid(X) :- p(X). top(X, Y) :- mid(X), k(X, Y).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("k", tuple![1, 10]);
        input.insert("k", tuple![2, 20]);
        let mut s = session(src, input.clone());
        s.apply(vec![("p".into(), tuple![2])]).unwrap();
        input.insert("p", tuple![2]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental);
        assert_eq!(out.delta_facts, 1);
        assert_eq!(out.derived_facts, 2, "mid(2) and top(2,20)");
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn non_outermost_change_falls_back_and_still_matches() {
        let src = "q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("p", tuple![2]);
        input.insert("r", tuple![1, 10]);
        let mut s = session(src, input.clone());
        // r is the inner literal: appending r rows would interleave into
        // the middle of the scratch enumeration
        s.apply(vec![("r".into(), tuple![2, 20])]).unwrap();
        input.insert("r", tuple![2, 20]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(
            out.fallback_reason.as_deref().unwrap().contains("not the outermost"),
            "{out:?}"
        );
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn negation_and_aggregate_inputs_fall_back() {
        let src = r#"
            lonely(X) :- node(X), not linked(X).
            linked(X) :- edge(X, _).
            total(count(X)) :- node(X).
        "#;
        let mut input = Database::new();
        input.insert("node", tuple![1]);
        input.insert("edge", tuple![1, 2]);
        let mut s = session(src, input.clone());

        // edge feeds linked which is negated: growth retracts lonely facts
        s.apply(vec![("edge".into(), tuple![3, 4])]).unwrap();
        input.insert("edge", tuple![3, 4]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(out.fallback_reason.as_deref().unwrap().contains("negated"), "{out:?}");
        assert_eq!(dump(s.database()), scratch(src, &input));

        // node feeds both the negation rule (as outer generator, fine) and
        // the count aggregate (not monotone)
        s.apply(vec![("node".into(), tuple![5])]).unwrap();
        input.insert("node", tuple![5]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn recursive_delta_falls_back() {
        let src = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
        let mut input = Database::new();
        for i in 0..10i64 {
            input.insert("edge", tuple![i, i + 1]);
        }
        let mut s = session(src, input.clone());
        s.apply(vec![("edge".into(), tuple![20i64, 21i64])]).unwrap();
        input.insert("edge", tuple![20i64, 21i64]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn multi_rule_terminal_head_keeps_scratch_order() {
        // classic union head: scratch order is (rule A block, rule B block),
        // so a delta through rule A must land *before* rule B's old facts
        let src = "all(X) :- a(X). all(X) :- b(X).";
        let mut input = Database::new();
        input.insert("a", tuple![1]);
        input.insert("b", tuple![10]);
        input.insert("b", tuple![11]);
        let mut s = session(src, input.clone());
        s.apply(vec![("a".into(), tuple![2])]).unwrap();
        input.insert("a", tuple![2]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental, "{out:?}");
        assert_eq!(dump(s.database()), scratch(src, &input));
        assert_eq!(
            s.database().facts("all"),
            &[tuple![1], tuple![2], tuple![10], tuple![11]]
        );

        // a delta through the *last* rule is a pure append
        s.apply(vec![("b".into(), tuple![12])]).unwrap();
        input.insert("b", tuple![12]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn multi_rule_head_read_downstream_falls_back() {
        let src = "all(X) :- a(X). all(X) :- b(X). big(X) :- all(X), X > 5.";
        let mut input = Database::new();
        input.insert("a", tuple![1]);
        input.insert("b", tuple![10]);
        let mut s = session(src, input.clone());
        s.apply(vec![("a".into(), tuple![7])]).unwrap();
        input.insert("a", tuple![7]);
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(out.fallback_reason.as_deref().unwrap().contains("multi-rule"), "{out:?}");
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn derived_predicate_delta_falls_back() {
        let src = "q(X) :- p(X).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        let mut s = session(src, input.clone());
        s.apply(vec![("q".into(), tuple![99])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(out.fallback_reason.as_deref().unwrap().contains("derived"), "{out:?}");
        // scratch over input-with-q must agree
        input.insert("q", tuple![99]);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn duplicate_delta_facts_are_noops() {
        let src = "q(X) :- p(X).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        let mut s = session(src, input);
        s.apply(vec![("p".into(), tuple![1])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental);
        assert_eq!(out.delta_facts, 0);
        assert_eq!(out.derived_facts, 0);
    }

    #[test]
    fn skolem_heads_stay_deterministic_under_deltas() {
        let src = "owner(X, Z) :- prop(X).";
        let mut input = Database::new();
        input.insert("prop", tuple!["p1"]);
        let mut s = session(src, input.clone());
        s.apply(vec![("prop".into(), tuple!["p2"])]).unwrap();
        input.insert("prop", tuple!["p2"]);
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn randomized_edit_scripts_match_scratch_at_every_level() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // a program exercising every fast-path shape plus fallback causes
        let src = r#"
            all(X, Y) :- a(X, Y).
            all(X, Y) :- b(X, Y).
            picked(X, Y) :- a(X, Y), k(X).
            wide(X, Y, Z) :- picked(X, Y), w(Y, Z).
        "#;
        for seed in 0..6u64 {
            println!("randomized_edit_scripts seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = Database::new();
            for i in 0..30i64 {
                input.insert("a", tuple![i % 7, i]);
                input.insert("b", tuple![i % 5, i + 100]);
                if i % 3 == 0 {
                    input.insert("k", tuple![i % 7]);
                }
                input.insert("w", tuple![i, i * 2]);
            }
            let mut s = IncrementalSession::new(EngineConfig::default(), src).unwrap();
            s.run_full(input.clone()).unwrap();
            let mut fast = 0usize;
            let mut fast_retract = 0usize;
            for _step in 0..16 {
                let retracting = rng.gen_range(0usize..3) == 0;
                let mut delta: Vec<(String, Tuple)> = Vec::new();
                if retracting {
                    // retract existing facts picked structurally
                    for _ in 0..rng.gen_range(1usize..3) {
                        let pred = ["a", "b", "k", "w"][rng.gen_range(0usize..4)];
                        let facts = input.facts(pred);
                        if facts.is_empty() {
                            continue;
                        }
                        let t = facts[rng.gen_range(0usize..facts.len())].clone();
                        delta.push((pred.to_string(), t));
                    }
                    let mut shrunk = Database::new();
                    for pred in input.predicates() {
                        for t in input.facts(pred) {
                            if !delta.iter().any(|(p, d)| p == pred && d == t) {
                                shrunk.insert(pred, t.clone());
                            }
                        }
                    }
                    input = shrunk;
                } else {
                    for _ in 0..rng.gen_range(1usize..4) {
                        let v: i64 = rng.gen_range(0i64..2000);
                        let pred = ["a", "b", "k", "w"][rng.gen_range(0usize..4)];
                        let t = match pred {
                            "k" => tuple![v % 9],
                            _ => tuple![v % 9, v],
                        };
                        delta.push((pred.to_string(), t));
                    }
                    for (p, t) in &delta {
                        input.insert(p, t.clone());
                    }
                }
                if retracting {
                    s.retract(delta.clone()).unwrap();
                } else {
                    s.apply(delta.clone()).unwrap();
                }
                if s.last_outcome().unwrap().mode == DeltaMode::Incremental {
                    if retracting {
                        fast_retract += 1;
                    } else {
                        fast += 1;
                    }
                }
                assert_eq!(
                    dump(s.database()),
                    scratch(src, &input),
                    "seed {seed} (retracting={retracting})"
                );
            }
            assert!(fast > 0, "seed {seed}: append fast path never fired");
            assert!(fast_retract > 0, "seed {seed}: retraction fast path never fired");
        }
    }

    #[test]
    fn injected_panic_mid_counting_poisons_until_run_full() {
        let src = "q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("r", tuple![1, 10]);
        // a panic while enumerating destroyed derivations, and a failure
        // after the commit has started mutating the materialization
        for fault in ["retract-enumerate", "retract-commit"] {
            let mut s = session(src, input.clone());
            s.inject_fault(Some(fault));
            let err = s.retract(vec![("p".into(), tuple![1])]).unwrap_err();
            if fault == "retract-enumerate" {
                assert_eq!(err.kind(), "parallel", "{err}");
            }
            assert!(err.message().contains("injected fault"), "{fault}: {err}");
            // poisoned: both deltas and retractions are refused…
            let err = s.apply(vec![("p".into(), tuple![2])]).unwrap_err();
            assert!(err.message().contains("poisoned"), "{fault}: {err}");
            let err = s.retract(vec![("r".into(), tuple![1, 10])]).unwrap_err();
            assert!(err.message().contains("poisoned"), "{fault}: {err}");
            // …until run_full re-materializes (fault cleared first)
            s.inject_fault(None);
            let mut shrunk = Database::new();
            shrunk.insert("r", tuple![1, 10]);
            s.run_full(shrunk.clone()).unwrap();
            assert_eq!(dump(s.database()), scratch(src, &shrunk), "{fault}");
            // and the deletion path works again
            s.retract(vec![("r".into(), tuple![1, 10])]).unwrap();
            assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental, "{fault}");
            assert_eq!(dump(s.database()), scratch(src, &Database::new()), "{fault}");
        }
    }

    #[test]
    fn injected_panic_mid_dred_poisons_until_run_full() {
        // the recursive deletion path: a retraction reaching `tc` re-derives
        // in full, so the fault is armed on the counted half of the program
        // and the poison must still hold against the recursive retraction
        let src = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z). \
                   q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        for i in 0..6i64 {
            input.insert("edge", tuple![i, i + 1]);
        }
        input.insert("p", tuple![1i64]);
        input.insert("r", tuple![1i64, 10i64]);
        for fault in ["retract-enumerate", "retract-commit"] {
            let mut s = session(src, input.clone());
            s.inject_fault(Some(fault));
            let err = s.retract(vec![("p".into(), tuple![1i64])]).unwrap_err();
            assert!(err.message().contains("injected fault"), "{fault}: {err}");
            // a full re-derivation would repair anything, yet it is refused
            let err = s.retract(vec![("edge".into(), tuple![2i64, 3i64])]).unwrap_err();
            assert!(err.message().contains("poisoned"), "{fault}: {err}");
            // recovery: run_full over the post-retraction base
            s.inject_fault(None);
            let mut shrunk = input.clone();
            shrunk.remove("p", &tuple![1i64]);
            s.run_full(shrunk.clone()).unwrap();
            assert_eq!(dump(s.database()), scratch(src, &shrunk), "{fault}");
            // and both deletion paths work again
            s.retract(vec![("edge".into(), tuple![2i64, 3i64])]).unwrap();
            let out = s.last_outcome().unwrap();
            assert_eq!(out.mode, DeltaMode::FullFallback, "{fault}: {out:?}");
            assert_eq!(
                out.fallback_reason.as_deref(),
                Some("recursive predicate `tc` shrank"),
                "{fault}: {out:?}"
            );
            shrunk.remove("edge", &tuple![2i64, 3i64]);
            assert_eq!(dump(s.database()), scratch(src, &shrunk), "{fault}");
            s.retract(vec![("r".into(), tuple![1i64, 10i64])]).unwrap();
            assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental, "{fault}");
            shrunk.remove("r", &tuple![1i64, 10i64]);
            assert_eq!(dump(s.database()), scratch(src, &shrunk), "{fault}");
        }
    }

    #[test]
    fn retraction_takes_counting_path_and_matches_scratch() {
        let src = "q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        for i in 0..20i64 {
            input.insert("p", tuple![i]);
            input.insert("r", tuple![i, i * 10]);
        }
        let mut s = session(src, input.clone());
        s.retract(vec![("p".into(), tuple![7i64])]).unwrap();
        let mut shrunk = Database::new();
        for i in 0..20i64 {
            if i != 7 {
                shrunk.insert("p", tuple![i]);
            }
            shrunk.insert("r", tuple![i, i * 10]);
        }
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental, "{out:?}");
        assert_eq!(out.removed_facts, 1);
        assert_eq!(out.retracted_facts, 1, "q(7,70) loses its only support");
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn retraction_cascades_through_derived_chain() {
        let src = "mid(X) :- p(X). top(X, Y) :- mid(X), k(X, Y).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("p", tuple![2]);
        input.insert("k", tuple![1, 10]);
        input.insert("k", tuple![2, 20]);
        let mut s = session(src, input);
        s.retract(vec![("p".into(), tuple![2])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental, "{out:?}");
        assert_eq!(out.retracted_facts, 2, "mid(2) and top(2,20)");
        let mut shrunk = Database::new();
        shrunk.insert("p", tuple![1]);
        shrunk.insert("k", tuple![1, 10]);
        shrunk.insert("k", tuple![2, 20]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn partial_support_falls_back_to_scratch_order() {
        // q(X) is derived once per matching r-row: removing r(1,"a") leaves
        // q(1) supported by r(1,"b") only — in a scratch run q(1) now
        // appears *after* q(2), so the retraction re-derives
        let src = "q(X) :- r(X, _).";
        let mut input = Database::new();
        input.insert("r", tuple![1, "a"]);
        input.insert("r", tuple![2, "a"]);
        input.insert("r", tuple![1, "b"]);
        let mut s = session(src, input.clone());
        assert_eq!(s.database().facts("q"), &[tuple![1], tuple![2]]);
        s.retract(vec![("r".into(), tuple![1, "a"])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback, "{out:?}");
        assert_eq!(out.fallback_reason.as_deref(), Some("partially supported fact in `q`"));
        assert_eq!(out.removed_facts, 1);
        assert_eq!(s.database().facts("q"), &[tuple![2], tuple![1]]);
        let mut shrunk = Database::new();
        shrunk.insert("r", tuple![2, "a"]);
        shrunk.insert("r", tuple![1, "b"]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
        // a removal that takes a fact's only support counts again
        s.retract(vec![("r".into(), tuple![2, "a"])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental, "{out:?}");
        assert_eq!(out.retracted_facts, 1, "q(2) loses its only support");
        shrunk.remove("r", &tuple![2, "a"]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
        let counts = s.derivation_counts("q").unwrap();
        assert_eq!(counts, HashMap::from([(tuple![1], 1)]));
    }

    #[test]
    fn multi_rule_segments_survive_retraction() {
        let src = "all(X) :- a(X). all(X) :- b(X).";
        let mut input = Database::new();
        input.insert("a", tuple![1]);
        input.insert("a", tuple![2]);
        input.insert("a", tuple![3]);
        input.insert("b", tuple![10]);
        input.insert("b", tuple![2]);
        let mut s = session(src, input.clone());
        assert_eq!(s.database().facts("all"), &[tuple![1], tuple![2], tuple![3], tuple![10]]);

        // retract a(1): all(1) loses its only support, and the removal
        // splices out of rule A's region
        s.retract(vec![("a".into(), tuple![1])]).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        input.remove("a", &tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &input));

        // a later append lands at the end of rule A's region
        s.apply(vec![("a".into(), tuple![5])]).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        input.insert("a", tuple![5]);
        assert_eq!(dump(s.database()), scratch(src, &input));
        assert_eq!(s.database().facts("all"), &[tuple![2], tuple![3], tuple![5], tuple![10]]);

        // retract a(2): all(2) survives through rule B, but moves to B's
        // segment position in a scratch run, so the session re-derives
        s.retract(vec![("a".into(), tuple![2])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback, "{out:?}");
        assert_eq!(out.fallback_reason.as_deref(), Some("partially supported fact in `all`"));
        input.remove("a", &tuple![2]);
        assert_eq!(dump(s.database()), scratch(src, &input));
        assert_eq!(s.database().facts("all"), &[tuple![3], tuple![5], tuple![10], tuple![2]]);

        // the re-derivation captured the segments again
        s.apply(vec![("a".into(), tuple![6])]).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        input.insert("a", tuple![6]);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn append_of_a_fact_another_rule_holds_falls_back() {
        // `all(2)` sits in rule B's region: rule A deriving it would move it
        // up in a scratch run; `all(1)` sits in rule A's region, where rule
        // B deriving it leaves it; `all(7)` is an input fact. Each append
        // re-derives, and the session stays live and byte-identical.
        let src = "all(X) :- a(X). all(X) :- b(X).";
        let mut input = Database::new();
        input.insert("all", tuple![7]);
        input.insert("a", tuple![1]);
        input.insert("b", tuple![2]);
        let mut s = session(src, input.clone());
        for (pred, v) in [("a", 2i64), ("b", 1), ("a", 7), ("b", 3)] {
            s.apply(vec![(pred.into(), tuple![v])]).unwrap();
            input.insert(pred, tuple![v]);
            let out = s.last_outcome().unwrap();
            if v == 3 {
                assert_eq!(out.mode, DeltaMode::Incremental, "{out:?}");
            } else {
                assert_eq!(out.mode, DeltaMode::FullFallback, "{pred}({v}): {out:?}");
                let reason = out.fallback_reason.as_deref();
                assert_eq!(reason, Some("emission already held in `all`"));
                assert_eq!(out.delta_facts, 1);
            }
            assert_eq!(dump(s.database()), scratch(src, &input), "{pred}({v})");
        }
        assert_eq!(s.database().facts("all"), &[tuple![7], tuple![1], tuple![2], tuple![3]]);
    }

    #[test]
    fn retraction_captures_counts_only_for_heads_it_reaches() {
        // `aux` reads only `dep` and derives a fact once per `dep` row, so
        // it keeps explicit counts; `out` derives each fact once
        let src = "aux(X) :- dep(X, _). out(X, Y) :- prim(X, Y), aux(X).";
        let mut input = Database::new();
        for i in 0..6i64 {
            input.insert("prim", tuple![i, i * 10]);
            input.insert("dep", tuple![i % 3, i]);
        }
        input.insert("dep", tuple![9i64, 0i64]);
        input.insert("prim", tuple![9i64, 90i64]);
        let config = EngineConfig { obs: Obs::enabled(), ..EngineConfig::default() };
        let mut s = IncrementalSession::new(config, src).unwrap();
        s.run_full(input.clone()).unwrap();
        let counts_spans = |s: &IncrementalSession| {
            let spans = s.obs().span_records();
            span_shape(&spans, |r| r.name == "incremental/counts")
        };

        s.retract(vec![("prim".into(), tuple![1i64, 10i64]), ("prim".into(), tuple![4i64, 40i64])])
            .unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        input.remove("prim", &tuple![1i64, 10i64]);
        input.remove("prim", &tuple![4i64, 40i64]);
        assert_eq!(dump(s.database()), scratch(src, &input));
        assert_eq!(s.derivation_counts("aux"), None, "aux is not reached");
        assert!(counts_spans(&s).is_empty(), "{:?}", counts_spans(&s));

        // a retraction that reaches `aux` captures its counts
        s.retract(vec![("dep".into(), tuple![9i64, 0i64])]).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        input.remove("dep", &tuple![9i64, 0i64]);
        assert_eq!(dump(s.database()), scratch(src, &input));
        assert_eq!(counts_spans(&s), ["1 0 incremental/counts heads=1"]);
        let counts = s.derivation_counts("aux").unwrap();
        let want = HashMap::from([(tuple![0i64], 2), (tuple![1i64], 2), (tuple![2i64], 2)]);
        assert_eq!(counts, want);
    }

    #[test]
    fn recursive_pure_removal_falls_back_and_matches() {
        // a chain has no alternative paths, so the removal only shrinks
        // tc — but counting is unsound on a cycle, so it still falls back
        let src = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
        let mut input = Database::new();
        for i in 0..10i64 {
            input.insert("edge", tuple![i, i + 1]);
        }
        let mut s = session(src, input);
        s.retract(vec![("edge".into(), tuple![5i64, 6i64])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback, "{out:?}");
        assert_eq!(
            out.fallback_reason.as_deref(),
            Some("recursive predicate `tc` shrank"),
            "{out:?}"
        );
        assert_eq!(out.removed_facts, 1);
        let mut shrunk = Database::new();
        for i in 0..10i64 {
            if i != 5 {
                shrunk.insert("edge", tuple![i, i + 1]);
            }
        }
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
        // the full run left the session live: the next retraction falls
        // back the same way and still matches
        s.retract(vec![("edge".into(), tuple![0i64, 1i64])]).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::FullFallback);
        shrunk.remove("edge", &tuple![0i64, 1i64]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn recursive_rederivation_falls_back_and_matches() {
        // diamond: 0→1→3 and 0→2→3, so tc(0,3) survives the removal of
        // edge(1,3) on its other path — a partially-supported fact in a
        // recursive predicate, refused before any pass runs
        let src = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";
        let mut input = Database::new();
        for (a, b) in [(0i64, 1i64), (1, 3), (0, 2), (2, 3), (3, 4)] {
            input.insert("edge", tuple![a, b]);
        }
        let mut s = session(src, input);
        s.retract(vec![("edge".into(), tuple![1i64, 3i64])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback, "{out:?}");
        assert_eq!(
            out.fallback_reason.as_deref(),
            Some("recursive predicate `tc` shrank"),
            "{out:?}"
        );
        let mut shrunk = Database::new();
        for (a, b) in [(0i64, 1i64), (0, 2), (2, 3), (3, 4)] {
            shrunk.insert("edge", tuple![a, b]);
        }
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn retraction_under_negation_and_aggregates_falls_back() {
        let src = r#"
            lonely(X) :- node(X), not linked(X).
            linked(X) :- edge(X, _).
            total(count(X)) :- node(X).
        "#;
        let mut input = Database::new();
        input.insert("node", tuple![1]);
        input.insert("node", tuple![2]);
        input.insert("edge", tuple![1, 2]);
        let mut s = session(src, input.clone());

        // shrinking edge grows lonely: negation fallback
        s.retract(vec![("edge".into(), tuple![1, 2])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(out.fallback_reason.as_deref().unwrap().contains("shrank"), "{out:?}");
        let mut shrunk = Database::new();
        shrunk.insert("node", tuple![1]);
        shrunk.insert("node", tuple![2]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));

        // shrinking node changes the aggregate value: fallback
        s.retract(vec![("node".into(), tuple![2])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        shrunk = Database::new();
        shrunk.insert("node", tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn retraction_into_a_head_shared_with_an_aggregate_falls_back() {
        // `size` is defined by a plain rule and an aggregate: shrinking the
        // plain rule's input reaches a head the counts do not cover
        let src = "size(X) :- pinned(X). size(count(X)) :- node(X).";
        let mut input = Database::new();
        input.insert("pinned", tuple![7]);
        input.insert("node", tuple![1]);
        let mut s = session(src, input);
        s.retract(vec![("pinned".into(), tuple![7])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback, "{out:?}");
        assert!(out.fallback_reason.as_deref().unwrap().contains("aggregate"), "{out:?}");
        let mut shrunk = Database::new();
        shrunk.insert("node", tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn delete_everything_then_reinsert_round_trips() {
        let src = "all(X) :- a(X). all(X) :- b(X). q(X, Y) :- a(X), w(X, Y).";
        let mut input = Database::new();
        input.insert("a", tuple![1]);
        input.insert("a", tuple![2]);
        input.insert("b", tuple![3]);
        input.insert("w", tuple![1, 10]);
        let mut s = session(src, input.clone());

        // delete every extensional fact: the fixpoint empties
        s.retract(vec![
            ("a".into(), tuple![1]),
            ("a".into(), tuple![2]),
            ("b".into(), tuple![3]),
            ("w".into(), tuple![1, 10]),
        ])
        .unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        assert_eq!(s.database().total_facts(), 0);
        assert_eq!(dump(s.database()), scratch(src, &Database::new()));

        // re-insert in a fresh order: byte-identical to scratch over that order
        s.apply(vec![
            ("b".into(), tuple![3]),
            ("a".into(), tuple![2]),
            ("w".into(), tuple![1, 10]),
            ("a".into(), tuple![1]),
        ])
        .unwrap();
        let mut rebuilt = Database::new();
        rebuilt.insert("b", tuple![3]);
        rebuilt.insert("a", tuple![2]);
        rebuilt.insert("w", tuple![1, 10]);
        rebuilt.insert("a", tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &rebuilt));
    }

    #[test]
    fn delete_then_reinsert_same_fact_moves_to_the_end() {
        let src = "q(X) :- p(X).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("p", tuple![2]);
        let mut s = session(src, input);
        s.retract(vec![("p".into(), tuple![1])]).unwrap();
        s.apply(vec![("p".into(), tuple![1])]).unwrap();
        // scratch over the re-ordered input puts 1 after 2
        let mut reordered = Database::new();
        reordered.insert("p", tuple![2]);
        reordered.insert("p", tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &reordered));
        assert_eq!(s.database().facts("q"), &[tuple![2], tuple![1]]);
    }

    #[test]
    fn retracting_missing_or_derived_facts() {
        let src = "q(X) :- p(X).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        let mut s = session(src, input.clone());
        // not in the base: a no-op
        s.retract(vec![("p".into(), tuple![99])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::Incremental);
        assert_eq!(out.removed_facts, 0);
        // a derived predicate: fallback, like the append path
        s.retract(vec![("q".into(), tuple![1])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.mode, DeltaMode::FullFallback);
        assert!(out.fallback_reason.as_deref().unwrap().contains("derived"), "{out:?}");
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn injective_rules_are_those_whose_head_fixes_the_binding() {
        let injective_of = |src: &str| {
            parse_program(src).unwrap().rules.iter().map(injective).collect::<Vec<_>>()
        };
        // every body variable in the head, or computed from head variables
        assert_eq!(
            injective_of(
                "p(S, PC, C) :- rm(S, PC), D = district(PC), D != null, dep(D, C). \
                 q(X) :- r(X, Y), Y = X + 1. w(X, Z) :- q(X), s(X, Z), not t(Z, X)."
            ),
            [true, true, true]
        );
        // a variable projected away, an existential head, an aggregate
        assert_eq!(
            injective_of("q(X) :- r(X, _). e(X, Y) :- r(X, X). n(X, count(Y)) :- r(X, Y)."),
            [false, false, false]
        );
    }

    #[test]
    fn counting_invariant_counts_are_exact_after_mixed_edits() {
        let src = "q(X) :- r(X, _). wide(X, Z) :- q(X), w(X, Z).";
        let mut input = Database::new();
        for i in 0..8i64 {
            input.insert("r", tuple![i % 4, i]);
            input.insert("w", tuple![i % 4, i * 100]);
        }
        let mut s = session(src, input.clone());
        s.apply(vec![("r".into(), tuple![1i64, 50i64])]).unwrap();
        input.insert("r", tuple![1i64, 50i64]);
        // both of q(3)'s rows and one w row: every fact the retraction
        // reaches loses all of its derivations, so counting commits
        let gone =
            [("r", tuple![3i64, 3i64]), ("r", tuple![3i64, 7i64]), ("w", tuple![2i64, 200i64])];
        s.retract(gone.iter().map(|(p, t)| (p.to_string(), t.clone())).collect()).unwrap();
        assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
        // and an append after it keeps the captured counts in step
        s.apply(vec![("r".into(), tuple![1i64, 60i64])]).unwrap();
        input.insert("r", tuple![1i64, 60i64]);
        // reference counts: enumerate each rule over the scratch fixpoint
        let mut shrunk = Database::new();
        for pred in ["r", "w"] {
            for t in input.facts(pred) {
                if !gone.contains(&(pred, t.clone())) {
                    shrunk.insert(pred, t.clone());
                }
            }
        }
        let program = parse_program(src).unwrap();
        let scratch_db = Engine::default().run(&program, shrunk.clone()).unwrap();
        for (pred, ri) in [("q", 0usize), ("wide", 1usize)] {
            let cr = CompiledRule::compile(&program.rules[ri], ri).unwrap();
            let mut want: HashMap<Tuple, u64> = HashMap::new();
            for t in Engine::default().eval_rule(&cr, &scratch_db, None, None, None).unwrap() {
                *want.entry(t).or_insert(0) += 1;
            }
            assert_eq!(s.derivation_counts(pred).unwrap(), want, "counts drifted for {pred}");
        }
        assert_eq!(dump(s.database()), scratch(src, &shrunk));
    }

    #[test]
    fn mid_delta_error_poisons_until_run_full() {
        // the delta pass hits an arithmetic type error only for the new fact
        let src = r#"q(Y) :- p(X), Y = X * 2."#;
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        let mut s = session(src, input.clone());
        let err = s
            .apply(vec![("p".into(), tuple!["not a number"])])
            .unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        // poisoned: further deltas are refused…
        let err = s.apply(vec![("p".into(), tuple![2])]).unwrap_err();
        assert!(err.message().contains("poisoned"), "{err}");
        // …until a full re-materialization over clean input
        s.run_full(input.clone()).unwrap();
        s.apply(vec![("p".into(), tuple![2])]).unwrap();
        input.insert("p", tuple![2]);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn apply_before_bootstrap_is_an_error() {
        let mut s = IncrementalSession::new(EngineConfig::default(), "q(X) :- p(X).").unwrap();
        let err = s.apply(vec![("p".into(), tuple![1])]).unwrap_err();
        assert!(err.message().contains("bootstrapped"), "{err}");
    }

    #[test]
    fn overlapping_rule_regions_splice_like_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // `u` is tracked and its rules overlap: a value in `a` and `b` is
        // derived twice, so appending it to `a` while `b` holds it, or
        // retracting one of its derivations, re-derives `u` from scratch
        let src = "u(X) :- a(X). u(X) :- b(X). u(X) :- c(X, _). v(X, Y) :- c(X, Y), k(Y).";
        let fact = |pred: &str, rng: &mut StdRng| {
            let (x, y) = (rng.gen_range(0i64..6), rng.gen_range(0i64..3));
            match pred {
                "c" => tuple![x, y],
                "k" => tuple![y],
                _ => tuple![x],
            }
        };
        let mut input = Database::new();
        input.insert("b", tuple![5]);
        input.insert("b", tuple![6]);
        input.insert("c", tuple![4, 0]);
        let mut s = session(src, input);
        s.apply(vec![("a".into(), tuple![6])]).unwrap();
        let out = s.last_outcome().unwrap();
        assert_eq!(out.fallback_reason.as_deref(), Some("emission already held in `u`"));
        assert_eq!(s.database().facts("u"), &[tuple![6], tuple![5], tuple![4]]);
        let (mut fast, mut fallbacks) = (0, 0);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut input = Database::new();
            if seed % 2 == 1 {
                input.insert("u", tuple![3]); // an extensional prefix region
            }
            for pred in ["a", "b", "c", "c", "k"].repeat(3) {
                input.insert(pred, fact(pred, &mut rng));
            }
            let mut s = session(src, input.clone());
            for step in 0..24 {
                // `k` stays put: it is not `v`'s outermost literal
                let edits: Vec<(String, Tuple)> = (0..rng.gen_range(1usize..4))
                    .map(|_| {
                        let pred = ["a", "b", "c"][rng.gen_range(0usize..3)];
                        (pred.to_string(), fact(pred, &mut rng))
                    })
                    .collect();
                let retracting = step % 3 == 2;
                for (p, t) in &edits {
                    if retracting {
                        input.remove(p, t);
                    } else {
                        input.insert(p, t.clone());
                    }
                }
                if retracting {
                    s.retract(edits).unwrap();
                } else {
                    s.apply(edits).unwrap();
                }
                let out = s.last_outcome().unwrap();
                if out.mode == DeltaMode::Incremental {
                    fast += 1;
                } else {
                    // the only fallbacks are the two reorderings
                    let want = match retracting {
                        true => "partially supported fact in `u`",
                        false => "emission already held in `u`",
                    };
                    assert_eq!(out.fallback_reason.as_deref(), Some(want), "seed {seed}");
                    fallbacks += 1;
                }
                assert_eq!(dump(s.database()), scratch(src, &input), "seed {seed} step {step}");
            }
        }
        assert!(fast > 0 && fallbacks > 0, "fast {fast}, fallbacks {fallbacks}");
    }

    #[test]
    fn steady_state_pairs_build_no_index() {
        // the `k` and `w` indexes are built by the first apply, then only
        // probed: neither relation changes along the session
        let src = "all(X, P) :- a(X, P). all(X, P) :- b(X, P). \
                   picked(X, P) :- a(X, P), k(X). wide(X, P, Q) :- picked(X, P), w(P, Q).";
        let mut input = Database::new();
        for i in 0..300i64 {
            input.insert("a", tuple![i % 17, i]);
            input.insert("b", tuple![i % 13, i + 1000]);
            input.insert("k", tuple![i % 17]);
            input.insert("w", tuple![i, i * 2]);
        }
        let mut s = IncrementalSession::new(
            EngineConfig { obs: Obs::enabled(), ..EngineConfig::default() },
            src,
        )
        .unwrap();
        s.run_full(input.clone()).unwrap();
        let mut builds = 0;
        for round in 0..9i64 {
            let rows = |from: i64| (from..from + 8).map(|i| ("a".to_string(), tuple![i % 17, i]));
            s.apply(rows(500 + round * 8).collect()).unwrap();
            s.retract(rows(round * 8).collect()).unwrap();
            for ((p, fresh), (_, old)) in rows(500 + round * 8).zip(rows(round * 8)) {
                input.insert(&p, fresh);
                input.remove(&p, &old);
            }
            assert_eq!(s.last_outcome().unwrap().mode, DeltaMode::Incremental);
            if round == 0 {
                builds = s.obs().get(obs_key::INDEX_BUILDS);
                assert!(builds > 0);
            }
        }
        assert_eq!(s.obs().get(obs_key::INDEX_BUILDS), builds, "a steady pass built an index");
        assert!(s.obs().get(obs_key::INDEX_PROBES) > 0);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }

    #[test]
    fn injected_index_build_fault_poisons_until_run_full() {
        let src = "q(X, Y) :- p(X), r(X, Y).";
        let mut input = Database::new();
        input.insert("p", tuple![1]);
        input.insert("r", tuple![1, 10]);
        let mut s = session(src, input.clone());
        s.inject_fault(Some("index-build"));
        // a full run never refreshes the session store, so it recovers
        // with the fault still armed; the next pass of either kind fails
        for retracting in [false, true] {
            let edit = vec![("p".into(), tuple![if retracting { 1 } else { 2 }])];
            let err = if retracting { s.retract(edit) } else { s.apply(edit) }.unwrap_err();
            assert_eq!(err.kind(), "parallel", "{err}");
            assert!(err.to_string().contains("datalog/index_build"), "{err}");
            let err = s.apply(vec![("p".into(), tuple![3])]).unwrap_err();
            assert!(err.message().contains("poisoned"), "{err}");
            s.run_full(input.clone()).unwrap();
        }
        s.inject_fault(None);
        s.apply(vec![("p".into(), tuple![2])]).unwrap();
        s.retract(vec![("p".into(), tuple![1])]).unwrap();
        input.insert("p", tuple![2]);
        input.remove("p", &tuple![1]);
        assert_eq!(dump(s.database()), scratch(src, &input));
    }
}
