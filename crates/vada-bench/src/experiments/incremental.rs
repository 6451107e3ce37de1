//! The structural baseline: what each experiment family derives, tallies
//! and records as spans, persisted as machine-readable JSON
//! (`BENCH_baseline.json`) that `repro bench --check` diffs exactly. It
//! answers *how much work* a change does, never *how long* it takes:
//! wall-clock time is measured end to end by the external benchmark
//! harness (`benchmark/`, paired runs via `scripts/bench_pairs.sh`), so
//! nothing here is timed.

use std::collections::BTreeMap;

use vada_common::obs::{json_escape, span_shape, Obs};
use vada_common::{tuple, Relation, Schema, Tuple};
use vada_datalog::incremental::{DeltaMode, IncrementalSession};
use vada_datalog::{parse_program, Database, Engine, EngineConfig};
use vada_extract::{ScenarioConfig, UniverseConfig};
use vada_kb::delta::DEFAULT_JOURNAL_CAPACITY;

use crate::paygo::{run_edit_session, run_paygo, PaygoConfig, EDIT_CYCLE};
use crate::report::table;

/// Re-derive `input` from scratch once and return the derivation count —
/// the full-path half of both session baselines.
fn derive_once(input: Database, obs: &Obs) -> usize {
    let program = parse_program(PROGRAM).unwrap();
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
    let input_facts = input.total_facts();
    let out = engine.run(&program, input).expect("full run evaluates");
    out.total_facts() - input_facts
}

/// Where the machine-readable baseline lands (repo root when the driver
/// runs from there; always printed in the report).
pub const BASELINE_PATH: &str = "BENCH_baseline.json";

/// The baseline's schema tag, written by `repro bench` and required by
/// `--check`.
pub const BASELINE_SCHEMA: &str = "vada-bench-baseline/v15";

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
    full_derivations: usize,
    incremental_derivations: usize,
}

struct RetractRow {
    base_rows: usize,
    removed_rows: usize,
    full_derivations: usize,
    incremental_work: usize,
}

struct RecoveryRow {
    rows: usize,
    edit_events: usize,
    journal_capacity: usize,
    wal_bytes: u64,
}

struct MagicRow {
    base_rows: usize,
    full_derivations: usize,
    directed_derivations: usize,
}

struct WrangleRow {
    properties: usize,
    steps: usize,
    candidates: usize,
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
    let outcome = run_paygo(&cfg);
    WrangleRow {
        properties,
        steps: outcome.steps.iter().map(|s| s.executed).sum(),
        candidates: outcome.wrangler.kb().mappings().count(),
    }
}

struct EditRow {
    properties: usize,
    operations: usize,
    steps: usize,
}

/// An interactive edit session over the `wrangle_paygo` scenario:
/// `cycles` cycles of append, remove, reprice and annotate, each followed
/// by a re-run. Its counters and span tree pin what re-wrangling after an edit
/// costs — which transducers re-run, what is re-materialised, what an
/// incremental session maintains and what is reused.
fn measure_wrangle_edit(properties: usize, cycles: usize, obs: &Obs) -> EditRow {
    let scenario = ScenarioConfig {
        universe: UniverseConfig { properties, seed: 20170514 },
        ..Default::default()
    };
    let executed = run_edit_session(scenario, cycles, obs);
    EditRow { properties, operations: cycles * EDIT_CYCLE, steps: executed.iter().sum() }
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
fn measure_magic(n: usize, block: usize, obs: &Obs) -> MagicRow {
    use vada_datalog::parser::parse_query;
    let program = parse_program(MAGIC_PROGRAM).unwrap();
    let start_node = 3 * block as i64; // a block start well inside the base
    let query = parse_query(&format!("tc({start_node}, Y)")).unwrap();
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..Default::default() });
    let input = magic_base(n, block);
    let input_facts = input.total_facts();

    let full = engine.run(&program, input.clone()).expect("full run evaluates");
    let full_derivations = full.total_facts() - input_facts;
    let full_answers = engine.eval_query(&query, &full).expect("query evaluates");

    let directed = engine
        .run_directed(&program, input, &query)
        .expect("directed run evaluates");
    let directed_derivations = directed.total_facts() - input_facts;
    let answers = engine.eval_query(&query, &directed).expect("query evaluates");
    assert_eq!(answers, full_answers, "directed answers must be byte-identical");

    assert!(
        directed_derivations * 10 <= full_derivations,
        "demand must cut derivations >= 10x: {directed_derivations} vs {full_derivations}"
    );
    MagicRow { base_rows: n, full_derivations, directed_derivations }
}

/// Crash recovery of a durable knowledge base: the base reopened from its
/// snapshot and WAL is asserted to land on the version of the original,
/// and that version to be the one an in-memory base reaches from the same
/// history — persistence adds no journal event of its own.
/// `capacity` is the journal window, which is also the checkpoint cadence:
/// with `edits > capacity` the run crosses checkpoints, and the family's
/// `wal.compactions` pins one per `capacity` records — not one per edit.
fn measure_wal_recovery(n: usize, edits: usize, capacity: usize, obs: &Obs) -> RecoveryRow {
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
    let edit_history = |kb: &mut KnowledgeBase| {
        kb.register_source(rel.clone());
        for e in 0..edits {
            let row = tuple![format!("{} rewritten", e), format!("{}", 200_000 + e), "M1 1AA"];
            kb.update_source("listings", &[(e % n, row)]).expect("edit applies");
        }
    };

    let mut kb = KnowledgeBase::with_journal_capacity(capacity);
    // the KB's wal.* tallies and wal/append / wal/compact spans go to the
    // experiment's registry
    kb.set_obs(obs.clone());
    kb.persist_to(&dir).expect("durable dir initialises");
    edit_history(&mut kb);
    kb.storage_health().expect("log stays healthy");
    let version = kb.version();
    drop(kb);
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).expect("log exists").len();

    let recovered = KnowledgeBase::open(&dir).expect("recovery succeeds");
    assert_eq!(recovered.version(), version, "recovery must land on the crash state");
    let mut in_memory = KnowledgeBase::with_journal_capacity(capacity);
    edit_history(&mut in_memory);
    assert_eq!(in_memory.version(), version, "persistence must not shift the version");
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryRow { rows: n, edit_events: edits, journal_capacity: capacity, wal_bytes }
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
    // full: re-derive base-minus-k from scratch
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
    let full_derivations = derive_once(shrunk, obs);

    // incremental: `rounds` k-row retractions, each removing a distinct
    // slice of the base and each asserted to take the counting path
    let mut session =
        IncrementalSession::new(EngineConfig { obs: obs.clone(), ..Default::default() }, PROGRAM)
            .unwrap();
    session.run_full(base_db(n)).unwrap();
    let mut inc_work = 0usize;
    for round in 0..rounds {
        session.retract(base_rows_of(k, round)).expect("retraction applies");
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
        inc_work = outcome.retracted_facts;
    }

    RetractRow { base_rows: n, removed_rows: k, full_derivations, incremental_work: inc_work }
}

fn measure(n: usize, k: usize, rounds: usize, obs: &Obs) -> Row {
    // full: re-derive base+delta from scratch
    let mut grown = base_db(n);
    for (p, t) in delta(k, 0) {
        grown.insert(&p, t);
    }
    let full_derivations = derive_once(grown, obs);

    // incremental: `rounds` distinct k-fact delta applies, each asserted
    // to take the fast path
    let mut session =
        IncrementalSession::new(EngineConfig { obs: obs.clone(), ..Default::default() }, PROGRAM)
            .unwrap();
    session.run_full(base_db(n)).unwrap();
    session.apply(delta(k, 0)).unwrap();
    let mut inc_derivations = 0usize;
    for round in 1..=rounds {
        session.apply(delta(k, round)).expect("delta applies");
        let outcome = session.last_outcome().expect("apply records an outcome");
        assert_eq!(outcome.mode, DeltaMode::Incremental, "baseline must hit the fast path");
        assert_eq!(outcome.delta_facts, k, "every delta row must be genuinely new");
        inc_derivations = outcome.derived_facts;
    }

    Row {
        base_rows: n,
        delta_rows: k,
        full_derivations,
        incremental_derivations: inc_derivations,
    }
}

/// A baseline row: the JSON key of its experiment family, and its
/// structural columns — written under these names into the JSON and as the
/// report table's header, every cell a JSON number.
trait BaselineRow {
    const FAMILY: &'static str;
    const COLUMNS: &'static [&'static str];
    fn cells(&self) -> Vec<String>;
}

impl BaselineRow for Row {
    const FAMILY: &'static str = "datalog_incremental_vs_full";
    const COLUMNS: &'static [&'static str] =
        &["base_rows", "delta_rows", "full_derivations", "incremental_derivations"];
    fn cells(&self) -> Vec<String> {
        [self.base_rows, self.delta_rows, self.full_derivations, self.incremental_derivations]
            .map(|v| v.to_string())
            .to_vec()
    }
}

impl BaselineRow for RetractRow {
    const FAMILY: &'static str = "datalog_retraction_vs_full";
    const COLUMNS: &'static [&'static str] =
        &["base_rows", "removed_rows", "full_derivations", "incremental_work"];
    fn cells(&self) -> Vec<String> {
        [self.base_rows, self.removed_rows, self.full_derivations, self.incremental_work]
            .map(|v| v.to_string())
            .to_vec()
    }
}

impl BaselineRow for RecoveryRow {
    const FAMILY: &'static str = "kb_wal_recovery";
    const COLUMNS: &'static [&'static str] =
        &["rows", "edit_events", "journal_capacity", "wal_bytes"];
    fn cells(&self) -> Vec<String> {
        [self.rows as u64, self.edit_events as u64, self.journal_capacity as u64, self.wal_bytes]
            .map(|v| v.to_string())
            .to_vec()
    }
}

impl BaselineRow for MagicRow {
    const FAMILY: &'static str = "datalog_magic_vs_full";
    const COLUMNS: &'static [&'static str] =
        &["base_rows", "full_derivations", "directed_derivations", "derivation_ratio"];
    fn cells(&self) -> Vec<String> {
        vec![
            self.base_rows.to_string(),
            self.full_derivations.to_string(),
            self.directed_derivations.to_string(),
            format!(
                "{:.1}",
                self.full_derivations as f64 / (self.directed_derivations as f64).max(1.0)
            ),
        ]
    }
}

impl BaselineRow for WrangleRow {
    const FAMILY: &'static str = "wrangle_paygo";
    const COLUMNS: &'static [&'static str] = &["properties", "steps", "candidates"];
    fn cells(&self) -> Vec<String> {
        [self.properties, self.steps, self.candidates].map(|v| v.to_string()).to_vec()
    }
}

impl BaselineRow for EditRow {
    const FAMILY: &'static str = "wrangle_edit";
    const COLUMNS: &'static [&'static str] = &["properties", "operations", "steps"];
    fn cells(&self) -> Vec<String> {
        [self.properties, self.operations, self.steps].map(|v| v.to_string()).to_vec()
    }
}

/// `"family": [ {column: cell, ...}, ... ],` — one object per row.
fn json_rows<R: BaselineRow>(rows: &[R]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> =
                R::COLUMNS.iter().zip(r.cells()).map(|(c, v)| format!("\"{c}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!("  \"{}\": [\n{}\n  ],\n", R::FAMILY, objects.join(",\n"))
}

fn report_table<R: BaselineRow>(rows: &[R]) -> String {
    table(R::COLUMNS, &rows.iter().map(R::cells).collect::<Vec<_>>())
}

/// Everything one measurement pass produces: the structural rows feeding
/// the human-readable report, plus the counters and span shapes that
/// `BENCH_baseline.json` pins and `--check` diffs.
pub(crate) struct Families {
    rows: Vec<Row>,
    retractions: Vec<RetractRow>,
    recoveries: Vec<RecoveryRow>,
    magics: Vec<MagicRow>,
    wrangles: Vec<WrangleRow>,
    edits: Vec<EditRow>,
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
    let edit_obs = Obs::enabled();
    let rows = vec![
        measure(5_000, 64, 5, &inc_obs),
        measure(20_000, 64, 5, &inc_obs),
    ];
    let retractions = vec![
        measure_retraction(5_000, 64, 5, &ret_obs),
        measure_retraction(20_000, 64, 5, &ret_obs),
    ];
    let recoveries = vec![
        measure_wal_recovery(5_000, 128, DEFAULT_JOURNAL_CAPACITY, &rec_obs),
        measure_wal_recovery(20_000, 128, DEFAULT_JOURNAL_CAPACITY, &rec_obs),
        // past the window: 321 records at a 64-event window checkpoint
        // five times; per-edit compaction would make it 257
        measure_wal_recovery(5_000, 320, 64, &rec_obs),
    ];
    let magics = vec![measure_magic(20_000, 50, &magic_obs)];
    let wrangles = vec![measure_wrangle(400, &wrangle_obs)];
    let edits = vec![measure_wrangle_edit(400, 2, &edit_obs)];
    let families = [
        (Row::FAMILY, &inc_obs),
        (RetractRow::FAMILY, &ret_obs),
        (RecoveryRow::FAMILY, &rec_obs),
        (MagicRow::FAMILY, &magic_obs),
        (WrangleRow::FAMILY, &wrangle_obs),
        (EditRow::FAMILY, &edit_obs),
    ];
    let counters = families.iter().map(|(f, obs)| (*f, obs.counters())).collect();
    let span_shapes =
        families.iter().map(|(f, obs)| (*f, span_shape(&obs.span_records(), |_| true))).collect();
    Families { rows, retractions, recoveries, magics, wrangles, edits, counters, span_shapes }
}

fn to_json(fam: &Families) -> String {
    let mut out = format!("{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n");
    out.push_str(&json_rows(&fam.rows));
    out.push_str(&json_rows(&fam.retractions));
    out.push_str(&json_rows(&fam.recoveries));
    out.push_str(&json_rows(&fam.magics));
    out.push_str(&json_rows(&fam.wrangles));
    out.push_str(&json_rows(&fam.edits));
    // per-experiment observability snapshots: what the substrate tallied
    // while the family above was measured
    out.push_str("  \"counters\": {\n");
    for (i, (family, snapshot)) in fam.counters.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{", json_escape(family)));
        for (j, (name, v)) in snapshot.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {v}", json_escape(name)));
        }
        out.push_str(if i + 1 == fam.counters.len() { "}\n" } else { "},\n" });
    }
    // per-experiment span trees in the canonical shape rendering: names,
    // parent edges and structural attrs — durations never land here
    out.push_str("  },\n  \"span_shapes\": {\n");
    for (i, (family, lines)) in fam.span_shapes.iter().enumerate() {
        out.push_str(&format!("    \"{}\": [", json_escape(family)));
        for (j, line) in lines.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(line)));
        }
        out.push_str(if i + 1 == fam.span_shapes.len() { "]\n" } else { "],\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Run the baseline measurements, write `BENCH_baseline.json`, and return
/// the human-readable report.
pub fn incremental_baseline() -> String {
    let fam = measure_families();
    let write_note = match std::fs::write(BASELINE_PATH, to_json(&fam)) {
        Ok(()) => format!("baseline written to {BASELINE_PATH}"),
        Err(e) => format!("could not write {BASELINE_PATH}: {e}"),
    };
    format!(
        "== Incremental delta evaluation vs full re-derivation ==\n\
         A k-row delta against an N-row base: the full path re-derives\n\
         everything, the incremental session re-derives O(k).\n\n{}\n\n\
         == Retraction (counting) vs full re-derivation ==\n\
         A k-row retraction against an N-row base: the full path re-derives\n\
         the shrunk base from scratch, the counting path touches O(k) facts.\n\n{}\n\n\
         == WAL crash recovery (N rows, k edit events) ==\n\
         A durable knowledge base (snapshot + write-ahead log) reopened after\n\
         the edits lands on the same version as the original; the log size\n\
         and one checkpoint per journal window are pinned.\n\n{}\n\n\
         == Demand-driven (magic) query vs full fixpoint ==\n\
         A bound-argument query answered by Engine::run_directed derives\n\
         only the facts its demand set reaches; the full fixpoint derives\n\
         every block of the base. Answers are asserted byte-identical, so\n\
         the derivation gap is the pure benefit of demand.\n\n{}\n\n\
         == Pay-as-you-go wrangle (structural gate) ==\n\
         The paper's four steps over the seeded real-estate scenario. The\n\
         counters and span tree of this run are pinned in the baseline, so\n\
         an extra transducer step or a candidate mapping materialised\n\
         twice fails `--check` by an exact count.\n\n{}\n\n\
         == Edit session (structural gate) ==\n\
         Two cycles of append, remove, reprice and annotate on the same\n\
         scenario, each followed by a re-run: what re-wrangling after an\n\
         edit re-runs, re-materialises and reuses is pinned exactly.\n\n{}\n{}",
        report_table(&fam.rows),
        report_table(&fam.retractions),
        report_table(&fam.recoveries),
        report_table(&fam.magics),
        report_table(&fam.wrangles),
        report_table(&fam.edits),
        write_note,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::obs::Json;

    /// Every object key anywhere in `doc`.
    fn keys(doc: &Json, out: &mut Vec<String>) {
        match doc {
            Json::Obj(entries) => {
                for (k, v) in entries {
                    out.push(k.clone());
                    keys(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| keys(v, out)),
            _ => {}
        }
    }

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
        let rec = measure_wal_recovery(500, 16, 8, &obs);
        assert!(rec.wal_bytes > 0);
        // the magic measurement asserts the >=10x derivation cut and
        // answer byte-identity internally
        let mr = measure_magic(2_000, 50, &obs);
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
        let wshapes = span_shape(&wobs.span_records(), |_| true);
        assert!(wshapes.iter().any(|l| l.contains("orchestrator/step")), "{wshapes:?}");
        // (every materialisation opens a map/execute span carrying the
        // mapping id: its position in the generation pass's output)
        let ids: Vec<String> = (0..wr.candidates).map(|k| format!("mapping=map{k};")).collect();
        assert!(
            wshapes
                .iter()
                .all(|l| !l.contains("mapping=") || ids.iter().any(|id| l.contains(id.as_str()))),
            "mapping ids are positional: {wshapes:?}"
        );
        // the edit family, one cycle at a toy size: the session runs
        // transducers and materialises mappings
        let eobs = Obs::enabled();
        let er = measure_wrangle_edit(120, 1, &eobs);
        assert_eq!(er.operations, EDIT_CYCLE);
        assert!(er.steps > 0 && eobs.get("map.execute.full") > 0, "{:?}", eobs.counters());
        let snapshot = obs.counters();
        assert!(snapshot.get("incremental.outcome.incremental").copied().unwrap_or(0) > 0);
        assert!(snapshot.get("wal.appends").copied().unwrap_or(0) > 0);
        // 17 records at an 8-event window: a checkpoint per window
        assert_eq!(snapshot.get("wal.compactions").copied(), Some(2));
        assert!(snapshot.get("magic.rewrite.applied").copied().unwrap_or(0) > 0);
        let shapes = span_shape(&obs.span_records(), |_| true);
        assert!(
            shapes.iter().any(|l| l.contains("datalog/stratum")),
            "the measurement pass must record deep spans: {shapes:?}"
        );
        assert!(
            shapes.iter().any(|l| l.contains("wal/append")),
            "the recovery pass must record wal spans: {shapes:?}"
        );
        assert!(
            shapes.iter().filter(|l| l.contains("wal/append")).all(|l| l.contains(";bytes=")),
            "byte magnitudes are pinned with the shapes: {shapes:?}"
        );
        let json = to_json(&Families {
            rows: vec![r],
            retractions: vec![rr],
            recoveries: vec![rec],
            magics: vec![mr],
            wrangles: vec![wr],
            edits: vec![er],
            counters: vec![("all", snapshot)],
            span_shapes: vec![("all", shapes)],
        });
        assert!(json.contains("\"datalog_retraction_vs_full\""), "{json}");
        assert!(json.contains("\"kb_wal_recovery\""), "{json}");
        assert!(json.contains("\"datalog_magic_vs_full\""), "{json}");
        assert!(json.contains("\"wrangle_paygo\""), "{json}");
        assert!(json.contains("\"wrangle_edit\""), "{json}");
        assert!(json.contains(BASELINE_SCHEMA), "{json}");
        // the whole baseline must be well-formed JSON, counters included
        let doc = Json::parse(&json).expect("baseline parses");
        let all = doc.get("counters").unwrap().get("all").unwrap();
        assert!(all.get("datalog.stratum.passes").unwrap().as_u64().unwrap() > 0);
        let shapes = doc.get("span_shapes").unwrap().get("all").unwrap();
        assert!(!shapes.items().unwrap().is_empty(), "{json}");
        // structure only: no wall-clock value may creep back into the rows
        let mut all_keys = Vec::new();
        keys(&doc, &mut all_keys);
        assert!(all_keys.contains(&"derivation_ratio".to_string()), "{json}");
        let timed: Vec<_> = all_keys
            .iter()
            .filter(|k| k.ends_with("_ms") || *k == "speedup" || *k == "reopen_overhead")
            .collect();
        assert!(timed.is_empty(), "wall-clock keys in the baseline: {timed:?}");
    }
}
