//! The cross-query cache layer for directed evaluation: persistent hash
//! indexes ([`IndexCache`]) and maintained demanded views ([`QueryCache`]).
//!
//! Directed evaluation (see [`crate::magic`]) pays off *within* one query;
//! this module makes it pay off *across* queries:
//!
//! - An [`IndexCache`] keeps an [`IndexStore`] alive between
//!   `run_directed`/`eval_query` calls. Soundness rests on the
//!   shrink-aware, epoch-keyed refresh in [`crate::engine`]: an index
//!   whose predicate only grew since the last query is extended in
//!   O(change); one whose predicate shrank or changed reorder epoch is
//!   rebuilt — so a predicate that regrows to its old length with
//!   different rows can never serve stale row ids. Callers that hand the
//!   cache a *fresh* database each time (rather than mutating one in
//!   place) must key reuse on the knowledge-base journal identity via
//!   [`IndexCache::ensure`], because a fresh database restarts every
//!   reorder epoch at zero.
//!
//! - A [`QueryCache`] maintains one materialization per (program
//!   fingerprint, query) pair, the way [`IncrementalSession`] maintains a
//!   full program: a repeated query on an unchanged base is answered from
//!   the cached view with **zero stratum passes and zero index builds**; a
//!   query after a row-level edit replays the delta through the session's
//!   order-safety machinery in O(change) (falling back to a full
//!   re-derivation, reason recorded, when a step is not provably
//!   order-safe); and a journal-lineage divergence or an unexplainable
//!   delta discards the view and rebuilds — never a stale answer.
//!
//! ### Byte-identity
//!
//! A cached answer is pinned byte-identical to a cold directed run by
//! composition: the session's materialization is byte-identical to a
//! from-scratch full run (the [`crate::incremental`] contract), and
//! evaluating a query over the full materialization is byte-identical to
//! evaluating it over the demanded one (the `query_equivalence`
//! contract). The root differential suites pin the composed claim across
//! the `{threads × wal × magic}` matrix.
//!
//! Note the view deliberately materializes the *full* program fixpoint,
//! not the demanded restriction: under row-level edits the demand set can
//! grow, and newly demanded facts would interleave anywhere in a cold
//! demanded order — maintaining the restricted view append-only is not
//! order-safe. Maintaining the full view costs more memory but makes every
//! [`IncrementalSession`] order-safety argument carry over unchanged.
//!
//! ### Counters
//!
//! Each [`QueryCache::query`] call increments exactly one of
//! `magic.cache.hits` (answered from a cached view, warm or maintained),
//! `magic.cache.misses` (cold build of a new view), or
//! `magic.cache.invalidations` (a cached view was discarded — lineage
//! divergence, pruned journal window, or an unexplainable delta — and
//! rebuilt).

use vada_common::obs::{key as obs_key, Obs};
use vada_common::{Result, Tuple};

use crate::ast::{Program, Rule};
use crate::engine::{Database, Engine, EngineConfig, IndexStore};
use crate::incremental::{DeltaMode, IncrementalSession};
use crate::parser::parse_query;

/// Cap on retained views; the least recently used is evicted beyond it.
pub const DEFAULT_VIEW_CAPACITY: usize = 16;

/// A persistent [`IndexStore`] that survives across engine runs.
///
/// Reuse contract: sound whenever the databases handed to successive runs
/// agree on every common prefix of every predicate's fact list *or* the
/// epoch/shrink checks can detect the difference. Two ways to hold up the
/// contract:
///
/// - mutate one long-lived [`Database`] in place (its reorder epochs
///   record every shrink/rewrite — the knowledge-base dependency view
///   does this), or
/// - rebuild the database deterministically from the same source state,
///   and call [`IndexCache::ensure`] with the source's (journal lineage,
///   version) so the cache resets whenever that state changed.
#[derive(Default)]
pub struct IndexCache {
    store: IndexStore,
    /// The (journal lineage, version) the indexes were built under, for
    /// callers that rebuild their database per run.
    key: Option<(u64, u64)>,
}

impl std::fmt::Debug for IndexCache {
    // IndexStore is an internal map of row-id postings — summarize rather
    // than dump it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexCache")
            .field("warm", &self.is_warm())
            .field("key", &self.key)
            .finish()
    }
}

impl IndexCache {
    /// A fresh, empty cache.
    pub fn new() -> IndexCache {
        IndexCache::default()
    }

    /// Whether any index has been built.
    pub fn is_warm(&self) -> bool {
        !self.store.is_empty()
    }

    /// Drop every cached index (the backing database was rebuilt from
    /// scratch, so reorder epochs restarted and staleness is no longer
    /// detectable). Returns whether anything was dropped.
    pub fn reset(&mut self) -> bool {
        let warm = self.is_warm();
        self.store = IndexStore::default();
        self.key = None;
        warm
    }

    /// Validate the cache against the journal identity of the state the
    /// caller's database is rebuilt from: a mismatch drops every index.
    /// Returns `true` when the cache was already valid (a warm reuse).
    pub fn ensure(&mut self, lineage: u64, version: u64) -> bool {
        if self.key == Some((lineage, version)) {
            return true;
        }
        self.reset();
        self.key = Some((lineage, version));
        false
    }

    pub(crate) fn store_mut(&mut self) -> &mut IndexStore {
        &mut self.store
    }
}

impl Engine {
    /// [`Engine::run_directed`] with a persistent [`IndexCache`]: the
    /// shared hash indexes survive into the next run instead of dying
    /// with this one. Output is byte-identical to the uncached call; see
    /// [`IndexCache`] for the reuse contract.
    pub fn run_directed_cached(
        &self,
        program: &Program,
        db: Database,
        query: &Rule,
        cache: &mut IndexCache,
    ) -> Result<Database> {
        self.run_directed_with(program, db, query, Some(cache.store_mut()))
    }

    /// [`Engine::eval_query`] with a persistent [`IndexCache`]: registers
    /// the query's lookup shapes, refreshes the surviving indexes
    /// (O(change) for appends, rebuild for shrinks/rewrites), and probes
    /// them instead of building lazy per-call indexes. Returns the
    /// answers plus whether the refresh had to index anything — `false`
    /// means the query was served without any `datalog/index_build` work.
    pub fn eval_query_cached(
        &self,
        query: &Rule,
        db: &Database,
        cache: &mut IndexCache,
    ) -> Result<(Vec<Tuple>, bool)> {
        self.eval_query_with_store(query, db, cache.store_mut())
    }
}

/// One journal-ordered step of a row-level delta.
#[derive(Debug, Clone)]
pub enum DeltaBatch {
    /// Extensional facts appended, in arrival order.
    Append(Vec<(String, Tuple)>),
    /// Extensional facts removed.
    Remove(Vec<(String, Tuple)>),
}

/// What changed in the underlying base since a cached view's version —
/// the caller's translation of its delta journal.
#[derive(Debug, Clone)]
pub enum CacheDelta {
    /// Nothing the program can see changed (e.g. metadata-only edits):
    /// the view is current as-is.
    Unchanged,
    /// Row-level changes, as append/remove steps in journal order.
    Rows(Vec<DeltaBatch>),
    /// The caller cannot prove what changed (pruned journal window,
    /// relation-level rewrite): the view must be rebuilt from scratch.
    Unknown,
}

/// One maintained materialization: the incremental session holding the
/// full-program fixpoint, the persistent indexes its answers are probed
/// through, and the answer list itself.
struct CachedView {
    program: String,
    query: String,
    session: IncrementalSession,
    index: IndexCache,
    answers: Vec<Tuple>,
    lineage: u64,
    version: u64,
}

/// Demanded-view cache: (program fingerprint, bound-pattern query) →
/// maintained materialization. See the module docs for the contract.
pub struct QueryCache {
    config: EngineConfig,
    /// Views in least→most recently used order.
    views: Vec<CachedView>,
    capacity: usize,
}

impl QueryCache {
    /// A cache whose sessions and evaluations run under `config` (the
    /// config's registry receives the `magic.cache.*` counters).
    pub fn new(config: EngineConfig) -> QueryCache {
        QueryCache { config, views: Vec::new(), capacity: DEFAULT_VIEW_CAPACITY }
    }

    /// [`QueryCache::new`] retaining at most `capacity` views.
    pub fn with_capacity(config: EngineConfig, capacity: usize) -> QueryCache {
        QueryCache { config, views: Vec::new(), capacity: capacity.max(1) }
    }

    /// Number of views currently retained.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no view is retained.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    fn obs(&self) -> &Obs {
        &self.config.obs
    }

    /// Answer `query` over `program` at base state (`lineage`,
    /// `version`), reusing and maintaining a cached view when possible.
    ///
    /// `delta` explains how the base moved since this view's recorded
    /// version (ignored on a cold build or when the version matches);
    /// `build_input` produces the extensional database for a cold build
    /// and is only invoked when one is needed.
    pub fn query(
        &mut self,
        program: &str,
        query: &str,
        lineage: u64,
        version: u64,
        delta: CacheDelta,
        build_input: impl FnOnce() -> Result<Database>,
    ) -> Result<Vec<Tuple>> {
        let q = parse_query(query)?;
        // one span per lookup; the resolution (exactly one of hit / miss /
        // invalidation, mirroring the counter contract) is attached where
        // the matching counter is tallied, and a cold build's session and
        // engine spans nest underneath
        let obs = self.obs().clone();
        let span = obs.span("cache/query");
        if let Some(pos) =
            self.views.iter().position(|v| v.program == program && v.query == query)
        {
            // MRU: move to the back
            let mut view = self.views.remove(pos);
            if view.lineage != lineage {
                // same version numbers may cover a diverged history
                span.attr("outcome", "invalidation");
                self.obs().incr(obs_key::MAGIC_CACHE_INVALIDATIONS);
            } else if view.version == version {
                span.attr("outcome", "hit");
                self.obs().incr(obs_key::MAGIC_CACHE_HITS);
                let answers = view.answers.clone();
                self.views.push(view);
                return Ok(answers);
            } else {
                match delta {
                    CacheDelta::Unchanged => {
                        view.version = version;
                        span.attr("outcome", "hit");
                        self.obs().incr(obs_key::MAGIC_CACHE_HITS);
                        let answers = view.answers.clone();
                        self.views.push(view);
                        return Ok(answers);
                    }
                    CacheDelta::Rows(batches) => {
                        for batch in batches {
                            // a failed step poisons the session: the view
                            // is dropped so the next query rebuilds clean
                            match batch {
                                DeltaBatch::Append(facts) => view.session.apply(facts)?,
                                DeltaBatch::Remove(facts) => view.session.retract(facts)?,
                            };
                            // only an in-place incremental step keeps the
                            // database object (reorder epochs then account
                            // for every row that moved); a full fallback
                            // swaps in a freshly derived database whose
                            // epochs restart at zero, where a surviving
                            // index would alias stale row ids undetectably
                            let in_place = view
                                .session
                                .last_outcome()
                                .is_some_and(|o| o.mode == DeltaMode::Incremental);
                            if !in_place {
                                view.index.reset();
                            }
                        }
                        let engine = Engine::new(self.config.clone());
                        let (answers, _) =
                            engine.eval_query_cached(&q, view.session.database(), &mut view.index)?;
                        view.answers = answers.clone();
                        view.version = version;
                        span.attr("outcome", "hit");
                        self.obs().incr(obs_key::MAGIC_CACHE_HITS);
                        self.views.push(view);
                        return Ok(answers);
                    }
                    CacheDelta::Unknown => {
                        span.attr("outcome", "invalidation");
                        self.obs().incr(obs_key::MAGIC_CACHE_INVALIDATIONS);
                    }
                }
            }
        } else {
            span.attr("outcome", "miss");
            self.obs().incr(obs_key::MAGIC_CACHE_MISSES);
        }

        // cold build: full-program session, then answer through the
        // view's own persistent indexes
        let mut session = IncrementalSession::new(self.config.clone(), program)?;
        session.run_full(build_input()?)?;
        let mut index = IndexCache::new();
        let engine = Engine::new(self.config.clone());
        let (answers, _) = engine.eval_query_cached(&q, session.database(), &mut index)?;
        self.views.push(CachedView {
            program: program.to_string(),
            query: query.to_string(),
            session,
            index,
            answers: answers.clone(),
            lineage,
            version,
        });
        if self.views.len() > self.capacity {
            self.views.remove(0);
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use vada_common::obs::key as obs_key;
    use vada_common::tuple;

    const PROGRAM: &str = "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).";

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.insert("edge", tuple![i, i + 1]);
        }
        db
    }

    fn cold_directed_over(program: &str, query: &str, db: Database) -> Vec<Tuple> {
        let program = parse_program(program).unwrap();
        let q = parse_query(query).unwrap();
        let engine = Engine::default();
        let full = engine.run_directed(&program, db, &q).unwrap();
        engine.eval_query(&q, &full).unwrap()
    }

    fn cold_directed(query: &str, db: Database) -> Vec<Tuple> {
        cold_directed_over(PROGRAM, query, db)
    }

    fn cache_with_obs() -> (QueryCache, Obs) {
        let obs = Obs::enabled();
        let config = EngineConfig { obs: obs.clone(), ..Default::default() };
        (QueryCache::new(config), obs)
    }

    #[test]
    fn repeated_query_is_a_pure_hit_with_zero_evaluation_work() {
        let (mut cache, obs) = cache_with_obs();
        let q = "tc(0, Y)";
        let first = cache.query(PROGRAM, q, 7, 1, CacheDelta::Unchanged, || Ok(chain_db(30))).unwrap();
        assert_eq!(first, cold_directed(q, chain_db(30)));
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 1);

        let passes = obs.get(obs_key::STRATUM_PASSES);
        let builds = obs.get(obs_key::INDEX_BUILDS);
        let again = cache
            .query(PROGRAM, q, 7, 1, CacheDelta::Unchanged, || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(again, first);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_HITS), 1);
        // the acceptance contract: a repeat on an unchanged base does zero
        // stratum passes and zero index-build work
        assert_eq!(obs.get(obs_key::STRATUM_PASSES), passes);
        assert_eq!(obs.get(obs_key::INDEX_BUILDS), builds);
    }

    // non-recursive: row deltas stay on the session's semi-naive fast
    // path (recursive predicates fall back by the order-safety rules —
    // still byte-identical, just not O(change))
    const FLAT: &str = "res(X, Z) :- e(X, Y), lab(Y, Z).";

    fn flat_db(n: i64) -> Database {
        let mut db = Database::new();
        for j in 0..7i64 {
            db.insert("lab", tuple![j, format!("l{j}")]);
        }
        for i in 0..n {
            db.insert("e", tuple![i, i % 7]);
        }
        db
    }

    #[test]
    fn row_deltas_maintain_the_view_in_o_change() {
        let (mut cache, obs) = cache_with_obs();
        let q = "res(5, Z)";
        cache.query(FLAT, q, 7, 1, CacheDelta::Unchanged, || Ok(flat_db(64))).unwrap();

        // a 64-row append maintains the cached view instead of rebuilding
        let appended: Vec<(String, Tuple)> =
            (64..128).map(|i| ("e".to_string(), tuple![i, i % 7])).collect();
        let mut db2 = flat_db(128);
        let expect = cold_directed_over(FLAT, q, db2.clone());
        let fallbacks = obs.get(obs_key::INC_FALLBACK);
        let got = cache
            .query(
                FLAT,
                q,
                7,
                2,
                CacheDelta::Rows(vec![DeltaBatch::Append(appended)]),
                || panic!("row delta must not rebuild"),
            )
            .unwrap();
        assert_eq!(got, expect);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_HITS), 1);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 1);
        // O(change): the append rode the fast path, no full re-derivation
        assert_eq!(obs.get(obs_key::INC_FALLBACK), fallbacks);
        assert!(obs.get(obs_key::INC_INCREMENTAL) >= 1);

        // removals ride the session's retraction machinery
        let removed = vec![("e".to_string(), tuple![5, 5])];
        db2.remove("e", &tuple![5, 5]);
        let expect = cold_directed_over(FLAT, q, db2);
        let got = cache
            .query(
                FLAT,
                q,
                7,
                3,
                CacheDelta::Rows(vec![DeltaBatch::Remove(removed)]),
                || panic!("row delta must not rebuild"),
            )
            .unwrap();
        assert_eq!(got, expect);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_HITS), 2);
    }

    #[test]
    fn lineage_divergence_and_unknown_deltas_force_a_clean_rebuild() {
        let (mut cache, obs) = cache_with_obs();
        let q = "tc(0, Y)";
        cache.query(PROGRAM, q, 7, 1, CacheDelta::Unchanged, || Ok(chain_db(5))).unwrap();

        // same version numbers, different lineage: the history diverged
        let other = chain_db(4);
        let expect = cold_directed(q, other.clone());
        let got = cache
            .query(PROGRAM, q, 8, 1, CacheDelta::Unchanged, || Ok(other))
            .unwrap();
        assert_eq!(got, expect);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_INVALIDATIONS), 1);

        // a pruned journal window (Unknown) rebuilds rather than guessing
        let bigger = chain_db(9);
        let expect = cold_directed(q, bigger.clone());
        let got = cache.query(PROGRAM, q, 8, 5, CacheDelta::Unknown, || Ok(bigger)).unwrap();
        assert_eq!(got, expect);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_INVALIDATIONS), 2);
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 1, "rebuilds count as invalidations");
    }

    #[test]
    fn distinct_queries_and_programs_get_distinct_views() {
        let (mut cache, obs) = cache_with_obs();
        cache.query(PROGRAM, "tc(0, Y)", 7, 1, CacheDelta::Unchanged, || Ok(chain_db(6))).unwrap();
        cache.query(PROGRAM, "tc(3, Y)", 7, 1, CacheDelta::Unchanged, || Ok(chain_db(6))).unwrap();
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 2);
        assert_eq!(cache.len(), 2);
        let rows = cache
            .query(PROGRAM, "tc(3, Y)", 7, 1, CacheDelta::Unchanged, || panic!("warm"))
            .unwrap();
        assert_eq!(rows, cold_directed("tc(3, Y)", chain_db(6)));
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_HITS), 1);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_view() {
        let obs = Obs::enabled();
        let config = EngineConfig { obs: obs.clone(), ..Default::default() };
        let mut cache = QueryCache::with_capacity(config, 2);
        for q in ["tc(0, Y)", "tc(1, Y)", "tc(2, Y)"] {
            cache.query(PROGRAM, q, 7, 1, CacheDelta::Unchanged, || Ok(chain_db(5))).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // the oldest view was evicted: asking again is a miss
        cache.query(PROGRAM, "tc(0, Y)", 7, 1, CacheDelta::Unchanged, || Ok(chain_db(5))).unwrap();
        assert_eq!(obs.get(obs_key::MAGIC_CACHE_MISSES), 4);
    }

    #[test]
    fn index_cache_ensure_keys_on_lineage_and_version() {
        let mut cache = IndexCache::new();
        assert!(!cache.ensure(1, 1));
        let db = chain_db(8);
        let q = parse_query("edge(3, Y)").unwrap();
        let engine = Engine::default();
        let (rows, worked) = engine.eval_query_cached(&q, &db, &mut cache).unwrap();
        assert_eq!(rows, vec![tuple![4]]);
        assert!(worked);
        assert!(cache.is_warm());

        // same identity: the indexes are served warm
        assert!(cache.ensure(1, 1));
        let (rows, worked) = engine.eval_query_cached(&q, &db, &mut cache).unwrap();
        assert_eq!(rows, vec![tuple![4]]);
        assert!(!worked, "warm reuse must skip index building");

        // new version: a rebuilt database may reuse nothing
        assert!(!cache.ensure(1, 2));
        assert!(!cache.is_warm());
    }

    #[test]
    fn run_directed_cached_matches_cold_runs_across_edits() {
        let program = parse_program(PROGRAM).unwrap();
        let q = parse_query("tc(0, Y)").unwrap();
        let engine = Engine::default();
        let mut cache = IndexCache::new();
        for n in [10i64, 20, 15] {
            // a fresh input database per run, keyed like a KB rebuild
            cache.ensure(1, n as u64);
            let cold = engine.run_directed(&program, chain_db(n), &q).unwrap();
            let cached = engine.run_directed_cached(&program, chain_db(n), &q, &mut cache).unwrap();
            assert_eq!(cached.facts("tc"), cold.facts("tc"), "n={n}");
            // reuse at the same key stays identical
            cache.ensure(1, n as u64);
            let again = engine.run_directed_cached(&program, chain_db(n), &q, &mut cache).unwrap();
            assert_eq!(again.facts("tc"), cold.facts("tc"), "n={n} (warm)");
        }
    }
}
