//! The incremental-evaluation baseline: quantify full vs delta
//! re-derivation and persist the numbers as machine-readable JSON
//! (`BENCH_baseline.json`) so the performance trajectory accumulates
//! across PRs instead of living only in terminal scrollback.

use std::collections::BTreeMap;
use std::time::Instant;

use vada_common::obs::{json_escape, Obs};
use vada_common::{tuple, Relation, Schema, Tuple};
use vada_datalog::incremental::{DeltaMode, IncrementalSession};
use vada_datalog::{parse_program, Database, Engine, EngineConfig};
use vada_extract::{ScenarioConfig, UniverseConfig};
use vada_kb::delta::DEFAULT_JOURNAL_CAPACITY;

use crate::paygo::{run_paygo, PaygoConfig};
use crate::report::table;

/// Median of raw wall-clock samples.
fn median_ms(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Median wall-clock of re-deriving `input` from scratch `rounds` times,
/// plus the derivation count — the full-path half of both baselines.
fn time_full_runs(input: &Database, rounds: usize, obs: &Obs) -> (f64, usize) {
    let program = parse_program(PROGRAM).unwrap();
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
    let input_facts = input.total_facts();
    let mut times = Vec::new();
    let mut derivations = 0usize;
    for _ in 0..rounds {
        let db = input.clone();
        let start = Instant::now();
        let out = engine.run(&program, db).expect("full run evaluates");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        derivations = out.total_facts() - input_facts;
    }
    (median_ms(times), derivations)
}

/// Where the machine-readable baseline lands (repo root when the driver
/// runs from there; always printed in the report).
pub const BASELINE_PATH: &str = "BENCH_baseline.json";

const PROGRAM: &str = r#"
    all(X, P) :- a(X, P).
    all(X, P) :- b(X, P).
    picked(X, P) :- a(X, P), k(X).
    wide(X, P, Q) :- picked(X, P), w(P, Q).
"#;

fn base_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        db.insert("a", tuple![i % 997, i]);
        db.insert("b", tuple![i % 631, i + 10_000_000]);
        if i % 3 == 0 {
            db.insert("k", tuple![i % 997]);
        }
        db.insert("w", tuple![i, i * 2]);
    }
    db
}

fn delta(k: usize, round: usize) -> Vec<(String, Tuple)> {
    (0..k as i64)
        .map(|j| {
            let v = 20_000_000 + (round as i64) * k as i64 + j;
            ("a".to_string(), tuple![v % 997, v])
        })
        .collect()
}

struct Row {
    base_rows: usize,
    delta_rows: usize,
    full_ms: f64,
    incremental_ms: f64,
    full_derivations: usize,
    incremental_derivations: usize,
}

struct RetractRow {
    base_rows: usize,
    removed_rows: usize,
    full_ms: f64,
    incremental_ms: f64,
    full_derivations: usize,
    incremental_work: usize,
}

struct RecoveryRow {
    rows: usize,
    edit_events: usize,
    journal_capacity: usize,
    wal_bytes: u64,
    reopen_ms: f64,
    reingest_ms: f64,
}

struct MagicRow {
    base_rows: usize,
    full_ms: f64,
    directed_ms: f64,
    full_derivations: usize,
    directed_derivations: usize,
}

struct WrangleRow {
    properties: usize,
    steps: usize,
    candidates: usize,
    total_ms: f64,
}

/// The four-step pay-as-you-go wrangle (bootstrap, data context,
/// feedback, user context) of the real-estate scenario at a fixed small
/// seeded size. Its counters and span tree are what `--check` defends
/// end to end: how many transducer steps a wrangle takes, and that each
/// candidate mapping structure is materialised once — run through the
/// engine (`map.execute.full`), or for a union assembled from its parts
/// (`map.execute.assembled`) — and reused thereafter
/// (`map.execute.reused`); that each source version is loaded into one
/// execution input every run shares (`map.input.built`, then
/// `map.input.reused`); and that mapping quality counts each part version's
/// metric tallies once and derives the unions' from them
/// (`quality.metrics.computed`, then `quality.metrics.reused`).
fn measure_wrangle(properties: usize, obs: &Obs) -> WrangleRow {
    let cfg = PaygoConfig {
        scenario: ScenarioConfig {
            universe: UniverseConfig { properties, seed: 20170514 },
            ..Default::default()
        },
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let start = Instant::now();
    let outcome = run_paygo(&cfg);
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    WrangleRow {
        properties,
        steps: outcome.steps.iter().map(|s| s.executed).sum(),
        candidates: outcome.wrangler.kb().mappings().count(),
        total_ms,
    }
}

/// Transitive closure over disconnected blocks: a bound-argument query
/// only needs its own block, the full fixpoint derives every block.
const MAGIC_PROGRAM: &str = "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).";

/// `n` edge rows forming chains of `block` nodes (block boundaries carry
/// a self-loop so the row count stays exactly `n`).
fn magic_base(n: usize, block: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        if (i + 1) % block as i64 != 0 {
            db.insert("e", tuple![i, i + 1]);
        } else {
            db.insert("e", tuple![i, i]);
        }
    }
    db
}

/// A bound-argument query (`tc(start, Y)`) answered by the demand-driven
/// path vs the full fixpoint. Answers are asserted identical (the
/// byte-identity guarantee), so the derivation-count gap is the pure
/// benefit of demand: the directed run derives one chain, the full run
/// derives all of them.
fn measure_magic(n: usize, block: usize, rounds: usize, obs: &Obs) -> MagicRow {
    use vada_datalog::parser::parse_query;
    let program = parse_program(MAGIC_PROGRAM).unwrap();
    let start_node = 3 * block as i64; // a block start well inside the base
    let query = parse_query(&format!("tc({start_node}, Y)")).unwrap();
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
    let input = magic_base(n, block);
    let input_facts = input.total_facts();

    let mut full_times = Vec::new();
    let mut full_derivations = 0usize;
    let mut full_answers = Vec::new();
    for _ in 0..rounds {
        let db = input.clone();
        let start = Instant::now();
        let out = engine.run(&program, db).expect("full run evaluates");
        full_times.push(start.elapsed().as_secs_f64() * 1e3);
        full_derivations = out.total_facts() - input_facts;
        full_answers = engine.eval_query(&query, &out).expect("query evaluates");
    }

    let mut directed_times = Vec::new();
    let mut directed_derivations = 0usize;
    for _ in 0..rounds {
        let db = input.clone();
        let start = Instant::now();
        let out = engine
            .run_directed(&program, db, &query)
            .expect("directed run evaluates");
        directed_times.push(start.elapsed().as_secs_f64() * 1e3);
        directed_derivations = out.total_facts() - input_facts;
        let answers = engine.eval_query(&query, &out).expect("query evaluates");
        assert_eq!(answers, full_answers, "directed answers must be byte-identical");
    }

    assert!(
        directed_derivations * 10 <= full_derivations,
        "demand must cut derivations >= 10x: {directed_derivations} vs {full_derivations}"
    );
    MagicRow {
        base_rows: n,
        full_ms: median_ms(full_times),
        directed_ms: median_ms(directed_times),
        full_derivations,
        directed_derivations,
    }
}

/// Crash recovery of a durable knowledge base: reopening (snapshot +
/// WAL replay) vs re-ingesting the same history into a fresh in-memory
/// base (the producer-side cost a crash would otherwise force, *before*
/// re-running extraction). The reopened base is asserted to land on the
/// same version as the original, so the timing compares equal states.
/// `capacity` is the journal window, which is also the checkpoint cadence:
/// with `edits > capacity` the run crosses checkpoints, and the family's
/// `wal.compactions` pins one per `capacity` records — not one per edit.
fn measure_wal_recovery(
    n: usize,
    edits: usize,
    rounds: usize,
    capacity: usize,
    obs: &Obs,
) -> RecoveryRow {
    use vada_kb::KnowledgeBase;
    let dir = std::env::temp_dir().join(format!(
        "vada-bench-recovery-{}-{n}-{edits}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut rel = Relation::empty(Schema::all_str("listings", &["street", "price", "postcode"]));
    for i in 0..n {
        rel.push(tuple![
            format!("{} high st", i / 3),
            format!("{}", 100_000 + i * 7),
            format!("M{} {}AA", i % 97, i % 5)
        ])
        .expect("arity 3");
    }
    let edit_row = |e: usize| {
        (
            e % n,
            tuple![format!("{} rewritten", e), format!("{}", 200_000 + e), "M1 1AA"],
        )
    };

    let mut kb = KnowledgeBase::with_journal_capacity(capacity);
    // the KB's wal.* tallies and wal/append / wal/compact spans go to the
    // experiment's registry
    kb.set_obs(obs.clone());
    kb.persist_to(&dir).expect("durable dir initialises");
    kb.register_source(rel.clone());
    for e in 0..edits {
        kb.update_source("listings", &[edit_row(e)]).expect("edit applies");
    }
    kb.storage_health().expect("log stays healthy");
    let version = kb.version();
    drop(kb);
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).expect("log exists").len();

    let mut reopen_times = Vec::new();
    for _ in 0..rounds {
        let start = Instant::now();
        let recovered = KnowledgeBase::open(&dir).expect("recovery succeeds");
        reopen_times.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(recovered.version(), version, "recovery must land on the crash state");
    }

    let mut reingest_times = Vec::new();
    for _ in 0..rounds {
        let fresh = rel.clone(); // the producer's relation is a given; time only the KB work
        let start = Instant::now();
        let mut kb = KnowledgeBase::with_journal_capacity(capacity);
        kb.register_source(fresh);
        for e in 0..edits {
            kb.update_source("listings", &[edit_row(e)]).expect("edit applies");
        }
        reingest_times.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(kb.version(), version, "re-ingest must reproduce the same history");
    }
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryRow {
        rows: n,
        edit_events: edits,
        journal_capacity: capacity,
        wal_bytes,
        reopen_ms: median_ms(reopen_times),
        reingest_ms: median_ms(reingest_times),
    }
}

/// The `a` facts of rounds `round*k..(round+1)*k` — disjoint per round, so
/// repeated retraction rounds always remove rows that are still present.
fn base_rows_of(k: usize, round: usize) -> Vec<(String, Tuple)> {
    (0..k as i64)
        .map(|j| {
            let i = (round as i64) * k as i64 + j;
            ("a".to_string(), tuple![i % 997, i])
        })
        .collect()
}

/// A `k`-row retraction against an `n`-row base: the full path re-derives
/// the shrunk base from scratch, the incremental session's counting path
/// retracts O(k) facts. The derivation-count asymmetry is the headline
/// O(change) claim for deletions.
fn measure_retraction(n: usize, k: usize, rounds: usize, obs: &Obs) -> RetractRow {
    // full: median wall-clock of re-deriving base-minus-k from scratch
    let mut shrunk = Database::new();
    let gone: std::collections::HashSet<Tuple> =
        base_rows_of(k, 0).into_iter().map(|(_, t)| t).collect();
    {
        let full = base_db(n);
        for pred in full.predicates() {
            for t in full.facts(pred) {
                if pred == "a" && gone.contains(t) {
                    continue;
                }
                shrunk.insert(pred, t.clone());
            }
        }
    }
    let (full_ms, full_derivations) = time_full_runs(&shrunk, rounds, obs);

    // incremental: median wall-clock of one k-row retraction (each round
    // removes a distinct slice of the base)
    let mut session =
        IncrementalSession::new(EngineConfig { obs: obs.clone(), ..Default::default() }, PROGRAM)
            .unwrap();
    session.run_full(base_db(n)).unwrap();
    let mut inc_times = Vec::new();
    let mut inc_work = 0usize;
    for round in 0..rounds {
        let removals = base_rows_of(k, round);
        let start = Instant::now();
        session.retract(removals).expect("retraction applies");
        inc_times.push(start.elapsed().as_secs_f64() * 1e3);
        let outcome = session.last_outcome().expect("retract records an outcome");
        assert_eq!(
            outcome.mode,
            DeltaMode::Incremental,
            "retraction baseline must hit the counting path: {outcome:?}"
        );
        // guard against drift between base_rows_of and base_db turning the
        // measurement into a no-op
        assert_eq!(outcome.removed_facts, k, "every removal must hit a live base row");
        assert!(outcome.retracted_facts > 0, "retraction must cascade: {outcome:?}");
        inc_work = outcome.retracted_facts + outcome.rederived_facts;
    }

    RetractRow {
        base_rows: n,
        removed_rows: k,
        full_ms,
        incremental_ms: median_ms(inc_times),
        full_derivations,
        incremental_work: inc_work,
    }
}

fn measure(n: usize, k: usize, rounds: usize, obs: &Obs) -> Row {
    // full: median wall-clock of re-deriving base+delta from scratch
    let mut grown = base_db(n);
    for (p, t) in delta(k, 0) {
        grown.insert(&p, t);
    }
    let (full_ms, full_derivations) = time_full_runs(&grown, rounds, obs);

    // incremental: median wall-clock of one k-fact delta apply
    let mut session =
        IncrementalSession::new(EngineConfig { obs: obs.clone(), ..Default::default() }, PROGRAM)
            .unwrap();
    session.run_full(base_db(n)).unwrap();
    session.apply(delta(k, 0)).unwrap();
    let mut inc_times = Vec::new();
    let mut inc_derivations = 0usize;
    for round in 1..=rounds {
        let facts = delta(k, round);
        let start = Instant::now();
        session.apply(facts).expect("delta applies");
        inc_times.push(start.elapsed().as_secs_f64() * 1e3);
        let outcome = session.last_outcome().expect("apply records an outcome");
        assert_eq!(outcome.mode, DeltaMode::Incremental, "baseline must hit the fast path");
        assert_eq!(outcome.delta_facts, k, "every delta row must be genuinely new");
        inc_derivations = outcome.derived_facts;
    }

    Row {
        base_rows: n,
        delta_rows: k,
        full_ms,
        incremental_ms: median_ms(inc_times),
        full_derivations,
        incremental_derivations: inc_derivations,
    }
}

/// Canonical span-tree rendering for one experiment family, fit for exact
/// comparison across runs: the `bytes` attribute is redacted because byte
/// magnitudes are environment-sensitive (they get a tolerance band in the
/// *counter* channel as `wal.bytes`, not exactness in the span channel).
fn family_shapes(obs: &Obs) -> Vec<String> {
    // mapping ids come from a process-global counter: rewrite each to its
    // first-seen ordinal so the shape does not depend on what ran before
    let mut mapping_ids: Vec<String> = Vec::new();
    let records: Vec<_> = obs
        .span_records()
        .into_iter()
        .map(|mut r| {
            r.attrs.retain(|(k, _)| k != "bytes");
            for (k, v) in r.attrs.iter_mut() {
                if k == "mapping" {
                    let ord = mapping_ids.iter().position(|id| id == v).unwrap_or_else(|| {
                        mapping_ids.push(v.clone());
                        mapping_ids.len() - 1
                    });
                    *v = format!("map#{ord}");
                }
            }
            r
        })
        .collect();
    vada_common::obs::span_shape(&records)
}

/// Everything one measurement pass produces: the timing rows feeding the
/// human-readable report, plus the structural channels (counters and span
/// shapes) that `BENCH_baseline.json` pins and `--check` diffs.
pub(crate) struct Families {
    rows: Vec<Row>,
    retractions: Vec<RetractRow>,
    recoveries: Vec<RecoveryRow>,
    magics: Vec<MagicRow>,
    wrangles: Vec<WrangleRow>,
    pub(crate) counters: Vec<(&'static str, BTreeMap<String, u64>)>,
    pub(crate) span_shapes: Vec<(&'static str, Vec<String>)>,
}

/// Run every experiment family once, each against its own registry, so the
/// structural snapshots attribute tallies and span trees to the family
/// that produced them. Shared by the baseline writer and `--check`.
pub(crate) fn measure_families() -> Families {
    let inc_obs = Obs::enabled();
    let ret_obs = Obs::enabled();
    let rec_obs = Obs::enabled();
    let magic_obs = Obs::enabled();
    let wrangle_obs = Obs::enabled();
    let rows = vec![
        measure(5_000, 64, 5, &inc_obs),
        measure(20_000, 64, 5, &inc_obs),
    ];
    let retractions = vec![
        measure_retraction(5_000, 64, 5, &ret_obs),
        measure_retraction(20_000, 64, 5, &ret_obs),
    ];
    let recoveries = vec![
        measure_wal_recovery(5_000, 128, 5, DEFAULT_JOURNAL_CAPACITY, &rec_obs),
        measure_wal_recovery(20_000, 128, 5, DEFAULT_JOURNAL_CAPACITY, &rec_obs),
        // past the window: 321 records at a 64-event window checkpoint
        // five times; per-edit compaction would make it 257
        measure_wal_recovery(5_000, 320, 5, 64, &rec_obs),
    ];
    let magics = vec![measure_magic(20_000, 50, 5, &magic_obs)];
    let wrangles = vec![measure_wrangle(400, &wrangle_obs)];
    let counters = vec![
        ("datalog_incremental_vs_full", inc_obs.counters()),
        ("datalog_retraction_vs_full", ret_obs.counters()),
        ("kb_wal_recovery", rec_obs.counters()),
        ("datalog_magic_vs_full", magic_obs.counters()),
        ("wrangle_paygo", wrangle_obs.counters()),
    ];
    let span_shapes = vec![
        ("datalog_incremental_vs_full", family_shapes(&inc_obs)),
        ("datalog_retraction_vs_full", family_shapes(&ret_obs)),
        ("kb_wal_recovery", family_shapes(&rec_obs)),
        ("datalog_magic_vs_full", family_shapes(&magic_obs)),
        ("wrangle_paygo", family_shapes(&wrangle_obs)),
    ];
    Families { rows, retractions, recoveries, magics, wrangles, counters, span_shapes }
}

fn to_json(fam: &Families) -> String {
    let Families { rows, retractions, recoveries, magics, wrangles, counters, span_shapes } = fam;
    let mut out = String::from("{\n  \"schema\": \"vada-bench-baseline/v14\",\n");
    out.push_str("  \"datalog_incremental_vs_full\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"base_rows\": {}, \"delta_rows\": {}, \"full_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"full_derivations\": {}, \
             \"incremental_derivations\": {}, \"speedup\": {:.1}}}{}\n",
            r.base_rows,
            r.delta_rows,
            r.full_ms,
            r.incremental_ms,
            r.full_derivations,
            r.incremental_derivations,
            r.full_ms / r.incremental_ms.max(1e-9),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"datalog_retraction_vs_full\": [\n");
    for (i, r) in retractions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"base_rows\": {}, \"removed_rows\": {}, \"full_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"full_derivations\": {}, \
             \"incremental_work\": {}, \"speedup\": {:.1}}}{}\n",
            r.base_rows,
            r.removed_rows,
            r.full_ms,
            r.incremental_ms,
            r.full_derivations,
            r.incremental_work,
            r.full_ms / r.incremental_ms.max(1e-9),
            if i + 1 == retractions.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"kb_wal_recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rows\": {}, \"edit_events\": {}, \"journal_capacity\": {}, \
             \"wal_bytes\": {}, \"reopen_ms\": {:.3}, \"reingest_ms\": {:.3}, \
             \"reopen_overhead\": {:.2}}}{}\n",
            r.rows,
            r.edit_events,
            r.journal_capacity,
            r.wal_bytes,
            r.reopen_ms,
            r.reingest_ms,
            r.reopen_ms / r.reingest_ms.max(1e-9),
            if i + 1 == recoveries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"datalog_magic_vs_full\": [\n");
    for (i, r) in magics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"base_rows\": {}, \"full_ms\": {:.3}, \"directed_ms\": {:.3}, \
             \"full_derivations\": {}, \"directed_derivations\": {}, \
             \"derivation_ratio\": {:.1}, \"speedup\": {:.1}}}{}\n",
            r.base_rows,
            r.full_ms,
            r.directed_ms,
            r.full_derivations,
            r.directed_derivations,
            r.full_derivations as f64 / (r.directed_derivations as f64).max(1.0),
            r.full_ms / r.directed_ms.max(1e-9),
            if i + 1 == magics.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"wrangle_paygo\": [\n");
    for (i, r) in wrangles.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"properties\": {}, \"steps\": {}, \"candidates\": {}, \"total_ms\": {:.3}}}{}\n",
            r.properties,
            r.steps,
            r.candidates,
            r.total_ms,
            if i + 1 == wrangles.len() { "" } else { "," }
        ));
    }
    // per-experiment observability snapshots: what the substrate tallied
    // while the family above was measured (schema v7)
    out.push_str("  ],\n  \"counters\": {\n");
    for (i, (family, snapshot)) in counters.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{", json_escape(family)));
        for (j, (name, v)) in snapshot.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", json_escape(name)));
        }
        out.push_str(if i + 1 == counters.len() { "}\n" } else { "},\n" });
    }
    // per-experiment span trees in the canonical shape rendering (schema
    // v8): names, parent edges and structural attrs — durations are
    // quarantined in the timing channel and never land here
    out.push_str("  },\n  \"span_shapes\": {\n");
    for (i, (family, lines)) in span_shapes.iter().enumerate() {
        out.push_str(&format!("    \"{}\": [", json_escape(family)));
        for (j, line) in lines.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(line)));
        }
        out.push_str(if i + 1 == span_shapes.len() { "]\n" } else { "],\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Run the baseline measurements, write `BENCH_baseline.json`, and return
/// the human-readable report.
pub fn incremental_baseline() -> String {
    let fam = measure_families();
    let json = to_json(&fam);
    let Families { rows, retractions, recoveries, magics, wrangles, .. } = fam;
    let write_note = match std::fs::write(BASELINE_PATH, &json) {
        Ok(()) => format!("baseline written to {BASELINE_PATH}"),
        Err(e) => format!("could not write {BASELINE_PATH}: {e}"),
    };
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.base_rows.to_string(),
                r.delta_rows.to_string(),
                format!("{:.2}", r.full_ms),
                format!("{:.2}", r.incremental_ms),
                r.full_derivations.to_string(),
                r.incremental_derivations.to_string(),
                format!("{:.0}x", r.full_ms / r.incremental_ms.max(1e-9)),
            ]
        })
        .collect();
    let retract_rows: Vec<Vec<String>> = retractions
        .iter()
        .map(|r| {
            vec![
                r.base_rows.to_string(),
                r.removed_rows.to_string(),
                format!("{:.2}", r.full_ms),
                format!("{:.2}", r.incremental_ms),
                r.full_derivations.to_string(),
                r.incremental_work.to_string(),
                format!("{:.0}x", r.full_ms / r.incremental_ms.max(1e-9)),
            ]
        })
        .collect();
    let magic_rows: Vec<Vec<String>> = magics
        .iter()
        .map(|r| {
            vec![
                r.base_rows.to_string(),
                format!("{:.2}", r.full_ms),
                format!("{:.2}", r.directed_ms),
                r.full_derivations.to_string(),
                r.directed_derivations.to_string(),
                format!(
                    "{:.0}x",
                    r.full_derivations as f64 / (r.directed_derivations as f64).max(1.0)
                ),
            ]
        })
        .collect();
    let recovery_rows: Vec<Vec<String>> = recoveries
        .iter()
        .map(|r| {
            vec![
                r.rows.to_string(),
                r.edit_events.to_string(),
                r.journal_capacity.to_string(),
                format!("{:.1} KiB", r.wal_bytes as f64 / 1024.0),
                format!("{:.2}", r.reopen_ms),
                format!("{:.2}", r.reingest_ms),
                format!("{:.1}x", r.reopen_ms / r.reingest_ms.max(1e-9)),
            ]
        })
        .collect();
    let wrangle_rows: Vec<Vec<String>> = wrangles
        .iter()
        .map(|r| {
            vec![
                r.properties.to_string(),
                r.steps.to_string(),
                r.candidates.to_string(),
                format!("{:.1}", r.total_ms),
            ]
        })
        .collect();
    format!(
        "== Incremental delta evaluation vs full re-derivation ==\n\
         A k-row delta against an N-row base: the full path re-derives\n\
         everything, the incremental session re-derives O(k).\n\n{}\n\n\
         == Retraction (counting/DRed) vs full re-derivation ==\n\
         A k-row retraction against an N-row base: the full path re-derives\n\
         the shrunk base from scratch, the counting path touches O(k) facts.\n\n{}\n\n\
         == WAL crash recovery (N rows, k edit events) ==\n\
         Reopening a durable knowledge base (snapshot + write-ahead-log\n\
         replay) vs rebuilding the same state in memory from the original\n\
         relation and edit history. The rebuild is a lower bound that\n\
         presumes the lost state is still available — after a real crash\n\
         it is not (that is why the log exists) — so the overhead column\n\
         is the whole price of durability: decoding the full state back\n\
         from disk, a few milliseconds even at tens of thousands of rows.\n\n{}\n\n\
         == Demand-driven (magic) query vs full fixpoint ==\n\
         A bound-argument query answered by Engine::run_directed derives\n\
         only the facts its demand set reaches; the full fixpoint derives\n\
         every block of the base. Answers are asserted byte-identical, so\n\
         the derivation gap is the pure benefit of demand.\n\n{}\n\n\
         == Pay-as-you-go wrangle (structural gate) ==\n\
         The paper's four steps over the seeded real-estate scenario. The\n\
         counters and span tree of this run are pinned in the baseline, so\n\
         an extra transducer step or a candidate mapping materialised\n\
         twice fails `--check` by an exact count.\n\n{}\n{}",
        table(
            &[
                "base rows",
                "delta rows",
                "full ms",
                "incr ms",
                "full derivations",
                "incr derivations",
                "speedup"
            ],
            &table_rows,
        ),
        table(
            &[
                "base rows",
                "removed rows",
                "full ms",
                "incr ms",
                "full derivations",
                "incr work",
                "speedup"
            ],
            &retract_rows,
        ),
        table(
            &[
                "rows",
                "edit events",
                "window",
                "wal size",
                "reopen ms",
                "in-mem rebuild ms",
                "overhead",
            ],
            &recovery_rows,
        ),
        table(
            &[
                "base rows",
                "full ms",
                "directed ms",
                "full derivations",
                "directed derivations",
                "derivation ratio"
            ],
            &magic_rows,
        ),
        table(&["properties", "steps", "candidates", "total ms"], &wrangle_rows),
        write_note,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rows_show_less_work() {
        let obs = Obs::enabled();
        let r = measure(2_000, 32, 3, &obs);
        assert!(r.incremental_derivations < r.full_derivations / 10,
            "delta path must derive far less: {} vs {}",
            r.incremental_derivations, r.full_derivations);
        let rr = measure_retraction(2_000, 32, 3, &obs);
        assert!(rr.incremental_work < rr.full_derivations / 10,
            "retraction path must touch far less: {} vs {}",
            rr.incremental_work, rr.full_derivations);
        // the recovery measurement asserts version equality internally
        let rec = measure_wal_recovery(500, 16, 2, 8, &obs);
        assert!(rec.wal_bytes > 0 && rec.reopen_ms > 0.0);
        // the magic measurement asserts the >=10x derivation cut and
        // answer byte-identity internally
        let mr = measure_magic(2_000, 50, 2, &obs);
        assert!(mr.directed_derivations > 0, "the demanded chain must still derive");
        // the wrangle family: candidate structures are materialised — the
        // parts run, the unions assembled from them — then reused by the
        // data-context re-run of mapping_quality (at this toy size feedback
        // also revises the matches, so a second generation of structures
        // is materialised on top)
        let wobs = Obs::enabled();
        let wr = measure_wrangle(60, &wobs);
        assert!(wr.steps > 0 && wr.candidates > 0);
        let (full, assembled) = (wobs.get("map.execute.full"), wobs.get("map.execute.assembled"));
        assert!(assembled > 0 && full + assembled >= wr.candidates as u64);
        assert!(wobs.get("map.execute.reused") >= wr.candidates as u64);
        // every engine run loads each of its sources, at most one built per
        // run; the unions' tallies come from their parts'
        let (built, loaded) = (wobs.get("map.input.built"), wobs.get("map.input.reused"));
        assert!(built > 0 && built + loaded >= full, "{built} + {loaded} vs {full}");
        assert!(wobs.get("quality.metrics.computed") > 0);
        assert!(wobs.get("quality.metrics.reused") >= 2 * assembled, "{:?}", wobs.counters());
        let wshapes = family_shapes(&wobs);
        assert!(wshapes.iter().any(|l| l.contains("orchestrator/step")), "{wshapes:?}");
        // (every materialisation opens a map/execute span carrying the
        // mapping id)
        assert!(
            wshapes.iter().all(|l| !l.contains("mapping=") || l.contains("mapping=map#")),
            "mapping ids are canonicalised: {wshapes:?}"
        );
        let snapshot = obs.counters();
        assert!(snapshot.get("incremental.outcome.incremental").copied().unwrap_or(0) > 0);
        assert!(snapshot.get("wal.appends").copied().unwrap_or(0) > 0);
        // 17 records at an 8-event window: a checkpoint per window
        assert_eq!(snapshot.get("wal.compactions").copied(), Some(2));
        assert!(snapshot.get("magic.rewrite.applied").copied().unwrap_or(0) > 0);
        let shapes = family_shapes(&obs);
        assert!(
            shapes.iter().any(|l| l.contains("datalog/stratum")),
            "the measurement pass must record deep spans: {shapes:?}"
        );
        assert!(
            shapes.iter().any(|l| l.contains("wal/append")),
            "the recovery pass must record wal spans: {shapes:?}"
        );
        assert!(
            shapes.iter().all(|l| !l.contains("bytes=")),
            "byte magnitudes are redacted from the pinned shapes: {shapes:?}"
        );
        let json = to_json(&Families {
            rows: vec![r],
            retractions: vec![rr],
            recoveries: vec![rec],
            magics: vec![mr],
            wrangles: vec![wr],
            counters: vec![("all", snapshot)],
            span_shapes: vec![("all", shapes)],
        });
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"datalog_retraction_vs_full\""), "{json}");
        assert!(json.contains("\"kb_wal_recovery\""), "{json}");
        assert!(json.contains("\"datalog_magic_vs_full\""), "{json}");
        assert!(json.contains("\"wrangle_paygo\""), "{json}");
        assert!(json.contains("vada-bench-baseline/v14"), "{json}");
        // the whole baseline must be well-formed JSON, counters included
        let doc = vada_common::obs::Json::parse(&json).expect("baseline parses");
        let all = doc.get("counters").unwrap().get("all").unwrap();
        assert!(all.get("datalog.stratum.passes").unwrap().as_u64().unwrap() > 0);
        let shapes = doc.get("span_shapes").unwrap().get("all").unwrap();
        assert!(!shapes.items().unwrap().is_empty(), "{json}");
    }
}
