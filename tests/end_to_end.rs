//! End-to-end integration tests spanning every crate: the full VADA
//! pipeline on the paper's scenario.

use vada::Wrangler;
use vada_common::Value;
use vada_extract::sources::target_schema;
use vada_extract::{score_result, ErrorModel, Scenario, ScenarioConfig, UniverseConfig};
use vada_kb::ContextKind;

mod common;
use common::TempDir;

fn scenario(props: usize, seed: u64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: props, seed },
        ..Default::default()
    })
}

fn bootstrap(s: &Scenario) -> Wrangler {
    bootstrap_with(Wrangler::new(), s)
}

fn bootstrap_with(mut w: Wrangler, s: &Scenario) -> Wrangler {
    w.add_source(s.rightmove.clone());
    w.add_source(s.onthemarket.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap orchestration succeeds");
    w
}

#[test]
fn bootstrap_materialises_typed_result() {
    let s = scenario(100, 1);
    let w = bootstrap(&s);
    let result = w.result().expect("result exists");
    assert!(!result.is_empty());
    assert_eq!(result.schema().attr_names(), target_schema().attr_names());
    // numeric columns carry typed values (or nulls), never raw strings
    let price_idx = result.schema().index_of("price").expect("price attr");
    for t in result.iter() {
        assert!(
            matches!(t[price_idx], Value::Int(_) | Value::Null),
            "price must be int or null, got {:?}",
            t[price_idx]
        );
    }
}

#[test]
fn crimerank_joined_from_open_data() {
    let s = scenario(100, 2);
    let w = bootstrap(&s);
    let result = w.result().expect("result exists");
    let idx = result.schema().index_of("crimerank").expect("crimerank attr");
    let filled = result.iter().filter(|t| !t[idx].is_null()).count();
    assert!(filled > 0, "the district join must fill some crimeranks");
    // filled values are real ranks from the universe
    let pc_idx = result.schema().index_of("postcode").expect("postcode attr");
    let mut verified = 0;
    for t in result.iter() {
        if let (Value::Int(rank), Some(pc)) = (&t[idx], t[pc_idx].as_str()) {
            if let Some(expected) = s.universe.crime_rank(pc) {
                assert_eq!(*rank, expected, "crimerank for {pc}");
                verified += 1;
            }
        }
    }
    assert!(verified > 0);
}

#[test]
fn fusion_removes_cross_source_duplicates() {
    let s = scenario(100, 3);
    let w = bootstrap(&s);
    let result = w.result().expect("result exists");
    let raw_union = s.rightmove.len() + s.onthemarket.len();
    assert!(
        result.len() < raw_union,
        "fused result ({}) must be smaller than the raw union ({raw_union})",
        result.len()
    );
}

#[test]
fn full_paygo_monotone_across_seeds() {
    for seed in [1u64, 2, 3] {
        let s = scenario(100, seed);
        let mut w = bootstrap(&s);
        let f1_bootstrap = score_result(&s.universe, w.result().expect("result")).f1;

        w.add_data_context(
            s.address.clone(),
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .expect("context registers");
        w.run().expect("context step succeeds");
        let f1_context = score_result(&s.universe, w.result().expect("result")).f1;

        assert!(
            f1_context > f1_bootstrap - 0.02,
            "seed {seed}: data context must not materially hurt ({f1_bootstrap} -> {f1_context})"
        );
        assert!(
            f1_context > f1_bootstrap,
            "seed {seed}: data context should improve f1 ({f1_bootstrap} -> {f1_context})"
        );
    }
}

#[test]
fn clean_sources_wrangle_almost_perfectly() {
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 80, seed: 4 },
        rightmove_errors: ErrorModel::CLEAN,
        onthemarket_errors: ErrorModel::CLEAN,
        duplicate_rate: 0.0,
        source_fraction: 1.0,
        deprivation_coverage: 1.0,
        ..Default::default()
    });
    let w = bootstrap(&s);
    let q = score_result(&s.universe, w.result().expect("result"));
    assert!(q.precision > 0.99, "clean input precision {}", q.precision);
    assert!(q.recall > 0.95, "clean input recall {}", q.recall);
}

#[test]
fn rerun_without_new_information_is_stable() {
    let s = scenario(60, 5);
    let mut w = bootstrap(&s);
    let before = w.result().expect("result").clone();
    let report = w.run().expect("idempotent run");
    assert_eq!(report.executed, 0, "no new inputs: nothing runs");
    assert_eq!(w.result().expect("result").tuples(), before.tuples());
}

/// The same seed wrangles to the same result, and a base writing a WAL
/// wrangles to the result an in-memory one does.
#[test]
fn determinism_same_seed_same_result() {
    let build = |w: Wrangler| {
        let w = bootstrap_with(w, &scenario(60, 6));
        w.kb().storage_health().expect("the WAL stayed healthy");
        w.result().expect("result").tuples().to_vec()
    };
    let dir = TempDir::new("determinism");
    let mut durable = Wrangler::new();
    durable.kb_mut().persist_to(&dir).unwrap();
    assert_eq!(build(durable), build(Wrangler::new()));
}
