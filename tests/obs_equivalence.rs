//! Differential tests for the observability layer: the **structural**
//! counters (the `pipeline.*` names) must be byte-identical between an
//! in-memory wrangle and one whose base writes a WAL
//! (`kb_mut().persist_to`) — observability observes the pipeline's
//! semantic structure, never its storage — a durable wrangle's whole span
//! tree, log byte counts included, must not depend on where its log lives,
//! and the report a run leaves behind must survive being written out as
//! JSON and read back.

use std::collections::{BTreeMap, BTreeSet};

use vada::Wrangler;
use vada_common::csv;
use vada_common::obs::{span_shape, Json, Obs};
use vada_extract::sources::target_schema;
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};

mod common;
use common::TempDir;

/// What one wrangle leaves behind: the result catalog (byte-for-byte),
/// the registry's counters (split structural / full), the span tree
/// in both renderings — the structural slice (`orchestrator/` spans,
/// identical in memory and durable) and the full deep tree — and the
/// report written as JSON.
struct Observed {
    json: String,
    catalog: String,
    structural: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    structural_spans: Vec<String>,
    full_spans: Vec<String>,
}

/// Drive the pay-as-you-go pipeline (bootstrap, data context, an edit
/// phase, a re-run) with a live registry, in memory or — given a
/// directory — with the base writing its WAL there.
fn wrangle(wal: Option<&TempDir>) -> Observed {
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 60, seed: 11 },
        ..Default::default()
    });
    let mut w = Wrangler::new();
    if let Some(dir) = wal {
        w.kb_mut().persist_to(dir).expect("durable dir initialises");
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
    w.kb().storage_health().expect("the WAL stayed healthy");

    let mut sections: Vec<String> = w
        .kb()
        .catalog()
        .entries()
        .map(|(name, kind, rel)| {
            format!("=== {name} [{}] ===\n{}", kind.tag(), csv::write_relation(rel))
        })
        .collect();
    sections.sort();
    let catalog = sections.join("");
    let obs = w.obs();
    let records = obs.span_records();
    Observed {
        json: obs.report().to_json(),
        catalog,
        structural: obs.report().structural(),
        counters: obs.counters(),
        structural_spans: span_shape(&records, |s| s.name.starts_with("orchestrator/")),
        full_spans: span_shape(&records, |_| true),
    }
}

/// The headline pin: a durable wrangle tallies the same structural
/// counters — and materialises the same catalog — as an in-memory one.
#[test]
fn structural_counters_identical_across_the_knob_matrix() {
    let baseline = wrangle(None);
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

    // a WAL-backed run is structurally identical too
    // (wal.* diagnostics appear, but only under the pipeline-neutral
    // mode-scoped namespace — and as wal/append spans in the full tree)
    let dir = TempDir::new("obs-matrix");
    let durable = wrangle(Some(&dir));
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

    // the log records no path: a durable wrangle whose directory path has
    // another length appends the same records, byte for byte
    let elsewhere = TempDir::new("obs-matrix-under-a-longer-directory-name");
    assert_ne!(elsewhere.as_os_str().len(), dir.as_os_str().len());
    let relocated = wrangle(Some(&elsewhere));
    assert!(
        durable.full_spans.iter().filter(|l| l.contains("wal/append")).all(|l| l.contains(";bytes=")),
        "every append span carries its byte count: {:?}",
        durable.full_spans
    );
    assert_eq!(relocated.full_spans, durable.full_spans, "the log's directory changed the span tree");
    assert_eq!(relocated.counters.get("wal.bytes"), durable.counters.get("wal.bytes"));
}

/// The report as a document: a durable wrangle's `obs_report().to_json()`
/// parses, carries exactly the programmatic report's counters and a
/// rooted span tree, and its structural (`pipeline.*`) subset equals an
/// in-memory wrangle's.
#[test]
fn report_json_parses_and_matches_the_in_memory_run() {
    let dir = TempDir::new("obs-report");
    let durable = wrangle(Some(&dir));
    let in_memory = wrangle(None);
    assert!(durable.counters.get("wal.appends").copied().unwrap_or(0) > 0, "the leg is durable");

    let text = &durable.json;
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("unparseable report {text}: {e}"));
    let counters: BTreeMap<String, u64> = doc
        .get("counters")
        .and_then(Json::entries)
        .expect("a counters object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or_else(|| panic!("`{k}` is not a count"))))
        .collect();
    assert_eq!(counters, durable.counters, "the document's counters are the report's");

    let spans = doc.get("spans").and_then(Json::items).expect("a spans array");
    assert_eq!(spans.len(), durable.full_spans.len());
    let mut seen = BTreeSet::new();
    for span in spans {
        let id = span.get("id").and_then(Json::as_u64).expect("a span id");
        let parent = span.get("parent").and_then(Json::as_u64).expect("a parent id");
        assert!(span.get("name").and_then(Json::as_str).is_some(), "{span:?}");
        assert!(parent == 0 || seen.contains(&parent), "span {id} dangles off {parent}");
        seen.insert(id);
    }
    // each of the three runs is a root; the WAL appends between runs are
    // roots of their own
    let roots: Vec<&str> = spans
        .iter()
        .filter(|s| s.get("parent").and_then(Json::as_u64) == Some(0))
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(roots.iter().filter(|n| **n == "orchestrator/run").count(), 3, "{roots:?}");
    assert!(
        spans.iter().all(|s| s.get("micros").and_then(Json::as_u64).is_some()),
        "every span closed and carries its micros"
    );

    let structural: BTreeMap<String, u64> =
        counters.into_iter().filter(|(k, _)| k.starts_with("pipeline.")).collect();
    assert!(structural.get("pipeline.orchestrator.steps").copied().unwrap_or(0) > 0);
    assert_eq!(structural, in_memory.structural, "the durable leg diverged structurally");
}
