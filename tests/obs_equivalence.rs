//! Differential tests for the observability layer: the **structural**
//! counters (the `pipeline.*` names) must be byte-identical with and
//! without durability — observability observes the pipeline's semantic
//! structure, never its storage — and
//! a broken or panicking export sink must never change a single byte of
//! the wrangling result.
//! This is the contract that makes the `VADA_OBS` override safe to flip
//! in production.

use std::collections::BTreeMap;
use std::sync::Mutex;

use vada::Wrangler;
use vada_common::obs::{span_shape, structural_span_shape, Json, Obs, ObsSink};
use vada_common::{csv, Result, VadaError};
use vada_extract::sources::target_schema;
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};

/// Serialises the tests in this binary around the env-read knob
/// defaults: the durability / export defaults come from `VADA_WAL` /
/// `VADA_OBS` — so every Wrangler in this file is built under the lock
/// with both pinned (the tests drive durability and export explicitly; an
/// ambient CI leg must not re-enable them).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_pinned_env<T>(f: impl FnOnce() -> T) -> T {
    let _g = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    std::env::remove_var("VADA_WAL");
    std::env::remove_var("VADA_OBS");
    f()
}

/// What one wrangle leaves behind: the result catalog (byte-for-byte),
/// the registry's counters (split structural / full), and the span tree
/// in both renderings — the structural slice (`orchestrator/` spans,
/// pinned across the whole matrix) and the full deep tree.
struct Observed {
    catalog: String,
    structural: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    structural_spans: Vec<String>,
    full_spans: Vec<String>,
}

/// Mapping ids (`map<N>`) come from a process-global counter, so their
/// absolute numbers depend on how many wrangles ran earlier in this
/// process; rank the distinct ids and rewrite each to `map#<rank>` so
/// catalogs from different legs compare byte-for-byte.
fn canonicalize_map_ids(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut ids: std::collections::BTreeSet<u64> = Default::default();
    let mut i = 0;
    while i < bytes.len() {
        if s[i..].starts_with("map") && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) {
            let start = i + 3;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if end > start {
                ids.insert(s[start..end].parse().unwrap());
                i = end;
                continue;
            }
        }
        i += s[i..].chars().next().unwrap().len_utf8();
    }
    let ranks: BTreeMap<u64, usize> = ids.into_iter().enumerate().map(|(r, id)| (id, r)).collect();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if s[i..].starts_with("map") && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric()) {
            let start = i + 3;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if end > start {
                let id: u64 = s[start..end].parse().unwrap();
                out.push_str(&format!("map#{}", ranks[&id]));
                i = end;
                continue;
            }
        }
        let c = s[i..].chars().next().unwrap();
        out.push(c);
        i += c.len_utf8();
    }
    out
}

/// Drive the pay-as-you-go pipeline (bootstrap, data context, an edit
/// phase, a re-run) under one knob combination with a live registry.
fn wrangle(wal: bool) -> Observed {
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 60, seed: 11 },
        ..Default::default()
    });
    let mut w = Wrangler::new();
    if wal {
        let dir =
            std::env::temp_dir().join(format!("vada-obs-equivalence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        w.set_durability(vada_common::Durability::Wal(dir)).expect("durable dir initialises");
    }
    w.set_obs(Obs::enabled());
    w.add_source(s.rightmove.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap succeeds");
    w.add_data_context(
        s.address.clone(),
        vada_kb::ContextKind::Reference,
        &[("street", "street"), ("postcode", "postcode")],
    )
    .expect("context registers");
    w.run().expect("context step succeeds");
    // an edit phase so the incremental legs exercise both the fast path
    // and the fallback machinery
    w.remove_source_rows("rightmove", &[1, 3]).expect("removal applies");
    w.run().expect("edit re-run succeeds");

    let sections: Vec<String> = w
        .kb()
        .catalog()
        .entries()
        .map(|(name, kind, rel)| {
            format!("=== {name} [{}] ===\n{}", kind.tag(), csv::write_relation(rel))
        })
        .collect();
    let mut sections: Vec<String> =
        canonicalize_map_ids(&sections.join("\x1e")).split('\x1e').map(String::from).collect();
    sections.sort();
    let catalog = sections.join("");
    let obs = w.obs();
    let records = obs.span_records();
    // span attrs carry mapping ids (`mapping=map<N>`) from the same
    // process-global counter as the catalog — rank-rewrite them the same
    // way so trees from different legs compare byte-for-byte
    let canonical_lines = |lines: Vec<String>| -> Vec<String> {
        canonicalize_map_ids(&lines.join("\n")).split('\n').map(String::from).collect()
    };
    Observed {
        catalog,
        structural: obs.report().structural(),
        counters: obs.counters(),
        structural_spans: canonical_lines(structural_span_shape(&records)),
        full_spans: canonical_lines(span_shape(&records)),
    }
}

/// The headline pin: every knob combination tallies the same structural
/// counters — and materialises the same catalog — as in-memory.
#[test]
fn structural_counters_identical_across_the_knob_matrix() {
    let baseline = with_pinned_env(|| wrangle(false));
    assert!(
        baseline.structural.get("pipeline.orchestrator.steps").copied().unwrap_or(0) > 0,
        "the pipeline must take orchestrator steps: {:?}",
        baseline.structural
    );
    assert!(
        baseline.structural.get("pipeline.kb.events").copied().unwrap_or(0) > 0,
        "the pipeline must journal knowledge-base events: {:?}",
        baseline.structural
    );
    assert!(
        baseline.structural.keys().any(|k| k.starts_with("pipeline.activity.")),
        "activity tallies must be structural: {:?}",
        baseline.structural
    );
    // every structural name carries the pipeline prefix — nothing
    // mode-scoped leaked into the determinism contract
    assert!(baseline.structural.keys().all(|k| k.starts_with("pipeline.")));
    // the structural span slice is rooted and non-trivial: three runs,
    // each an `orchestrator/run` with `orchestrator/step` children
    assert_eq!(
        baseline.structural_spans.iter().filter(|l| l.contains("orchestrator/run")).count(),
        3,
        "each of the three wrangles roots one structural run span: {:?}",
        baseline.structural_spans
    );
    assert!(
        baseline.structural_spans.iter().any(|l| l.contains("orchestrator/step")),
        "step spans are structural: {:?}",
        baseline.structural_spans
    );
    assert!(
        baseline.structural_spans.iter().all(|l| {
            let name = l.split(' ').nth(2).unwrap_or("");
            name.starts_with("orchestrator/")
        }),
        "only orchestrator/ spans are structural: {:?}",
        baseline.structural_spans
    );
    // the full tree carries the deep mode-scoped spans below the steps
    assert!(
        baseline.full_spans.iter().any(|l| l.contains("datalog/run")),
        "deep datalog spans must be recorded: {:?}",
        baseline.full_spans
    );

    // the durability knob: a WAL-backed run is structurally identical too
    // (wal.* diagnostics appear, but only under the pipeline-neutral
    // mode-scoped namespace — and as wal/append spans in the full tree)
    let durable = with_pinned_env(|| wrangle(true));
    assert_eq!(durable.structural, baseline.structural, "WAL leg diverged structurally");
    assert_eq!(durable.catalog, baseline.catalog, "WAL leg changed the catalog");
    assert_eq!(
        durable.structural_spans, baseline.structural_spans,
        "WAL leg changed the structural span tree"
    );
    assert!(
        durable.counters.get("wal.appends").copied().unwrap_or(0) > 0,
        "the durable leg must tally WAL appends: {:?}",
        durable.counters
    );
    assert!(
        durable.full_spans.iter().any(|l| l.contains("wal/append")),
        "the durable leg must record wal/append spans: {:?}",
        durable.full_spans
    );
    assert!(
        !baseline.counters.contains_key("wal.appends"),
        "the in-memory leg must not: {:?}",
        baseline.counters
    );
}

/// The exported JSON-lines stream: every line parses, the span tree is
/// rooted, and the final counter snapshot agrees with the programmatic
/// report byte-for-byte.
#[test]
fn exported_stream_parses_and_matches_the_report() {
    let path = std::env::temp_dir().join(format!(
        "vada-obs-equivalence-export-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let report = with_pinned_env(|| {
        let s = Scenario::generate(ScenarioConfig {
            universe: UniverseConfig { properties: 40, seed: 5 },
            ..Default::default()
        });
        let mut w = Wrangler::new();
        w.set_obs(Obs::at_path(path.clone()));
        w.add_source(s.rightmove.clone());
        w.add_source(s.deprivation.clone());
        w.set_target(target_schema());
        w.run().expect("bootstrap succeeds");
        w.obs_health().expect("file sink stays healthy");
        w.obs_report()
    });

    let text = std::fs::read_to_string(&path).expect("export file exists");
    let mut spans = 0usize;
    let mut last_counters = None;
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
        match doc.get("type").and_then(|t| t.as_str()) {
            Some("span") => {
                spans += 1;
                assert!(doc.get("name").and_then(|n| n.as_str()).is_some());
            }
            Some("timing") => {
                assert!(doc.get("micros").and_then(|m| m.as_u64()).is_some());
            }
            Some("counters") => last_counters = Some(doc),
            other => panic!("unexpected line type {other:?} in {line}"),
        }
    }
    assert!(spans > 0, "the orchestrator must export per-step spans");
    let last = last_counters.expect("run() flushes a counter snapshot");
    let exported = last.get("counters").expect("counters payload");
    for (name, v) in &report.counters {
        assert_eq!(
            exported.get(name).and_then(|x| x.as_u64()),
            Some(*v),
            "exported `{name}` must match the programmatic report"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A sink that fails after a few lines — the detach path.
struct FlakySink {
    written: usize,
}

impl ObsSink for FlakySink {
    fn write_line(&mut self, _line: &str) -> Result<()> {
        self.written += 1;
        if self.written > 3 {
            return Err(VadaError::Obs("injected sink failure".into()));
        }
        Ok(())
    }
}

/// A sink that panics outright — the catch_unwind path.
struct PanickingSink;

impl ObsSink for PanickingSink {
    fn write_line(&mut self, _line: &str) -> Result<()> {
        panic!("injected sink panic");
    }
}

/// Fault injection: a failing or panicking export sink detaches, surfaces
/// through `obs_health`, and never changes a byte of the wrangling result
/// — mirroring the `storage_health` contract exactly.
#[test]
fn broken_sinks_never_poison_the_run() {
    let run = |obs: Option<Obs>| {
        with_pinned_env(|| {
            let s = Scenario::generate(ScenarioConfig {
                universe: UniverseConfig { properties: 40, seed: 9 },
                ..Default::default()
            });
            let mut w = Wrangler::new();
            if let Some(obs) = obs {
                w.set_obs(obs);
            }
            w.add_source(s.rightmove.clone());
            w.add_source(s.deprivation.clone());
            w.set_target(target_schema());
            w.run().expect("wrangle succeeds despite the sink");
            let result = csv::write_relation(w.result().expect("result materialises"));
            let health = w.obs_health().err().map(|e| e.kind());
            let attached = w.obs().sink_attached();
            let steps = w.obs().get("pipeline.orchestrator.steps");
            (result, health, attached, steps)
        })
    };

    let (clean, clean_health, _, _) = run(None);
    assert_eq!(clean_health, None, "the disabled stub is always healthy");

    for (label, sink) in [
        ("flaky", Box::new(FlakySink { written: 0 }) as Box<dyn ObsSink>),
        ("panicking", Box::new(PanickingSink) as Box<dyn ObsSink>),
    ] {
        let (result, health, attached, steps) = run(Some(Obs::with_sink(sink)));
        assert_eq!(result, clean, "{label} sink changed the wrangling result");
        assert_eq!(health, Some("obs"), "{label} sink failure must surface sticky");
        assert!(!attached, "{label} sink must be detached after its first failure");
        assert!(steps > 0, "{label}: counters keep collecting after the detach");
    }
}
