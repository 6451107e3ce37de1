//! Failure injection: a transducer that errors must fail the orchestration
//! with a diagnostic naming it, without corrupting the knowledge base, and
//! degenerate inputs must produce errors rather than wrong results.

use vada::{Activity, RunOutcome, Transducer, Wrangler};
use vada_common::{tuple, Relation, Result, Schema, Tuple, VadaError};
use vada_kb::KnowledgeBase;

mod common;
use common::TempDir;

/// Fails on its first run, succeeds afterwards.
#[derive(Debug, Default)]
struct Flaky {
    attempts: usize,
}

impl Transducer for Flaky {
    fn name(&self) -> &str {
        "flaky"
    }
    fn activity(&self) -> Activity {
        Activity::Quality
    }
    fn input_dependency(&self) -> &str {
        r#"relation(_, "source", _)"#
    }
    fn input_aspects(&self) -> &'static [&'static str] {
        &["relations"]
    }
    fn run(&mut self, _kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        self.attempts += 1;
        if self.attempts == 1 {
            Err(VadaError::Transducer("synthetic fault".into()))
        } else {
            Ok(RunOutcome::noop("recovered"))
        }
    }
}

#[test]
fn failing_transducer_is_named_and_kb_survives() {
    let mut w = Wrangler::with_transducers(vec![Box::new(Flaky::default())]);
    let mut src = Relation::empty(Schema::all_str("s", &["a"]));
    src.push(tuple!["x"]).unwrap();
    w.add_source(src);
    let err = w.run().unwrap_err();
    assert!(err.to_string().contains("flaky"), "{err}");
    assert!(err.to_string().contains("synthetic fault"));
    // the knowledge base is still usable and a retry proceeds
    assert!(w.kb().relation("s").is_ok());
    let report = w.run().expect("second attempt recovers");
    assert_eq!(report.executed, 1);
}

#[test]
fn malformed_mapping_rules_surface_as_errors() {
    use vada_kb::MappingDef;
    use vada_map::{execute_mapping, ExecuteConfig};
    let mut kb = KnowledgeBase::new();
    let mut src = Relation::empty(Schema::all_str("s", &["a"]));
    src.push(tuple!["x"]).unwrap();
    kb.register_source(src);
    kb.register_target_schema(Schema::all_str("t", &["a"]));
    let broken = MappingDef {
        id: "bad".into(),
        target: "t".into(),
        rules: "t(X :- s(X).".into(), // syntax error
        sources: vec!["s".into()],
        matches_used: vec![],
        parts: vec![],
    };
    let err = execute_mapping(&ExecuteConfig::default(), &broken, &kb).unwrap_err();
    assert_eq!(err.kind(), "parse");
}

#[test]
fn unknown_source_in_mapping_is_a_kb_error() {
    use vada_kb::MappingDef;
    use vada_map::{execute_mapping, ExecuteConfig};
    let mut kb = KnowledgeBase::new();
    kb.register_target_schema(Schema::all_str("t", &["a"]));
    let mapping = MappingDef {
        id: "m".into(),
        target: "t".into(),
        rules: "t(X) :- ghost(X).".into(),
        sources: vec!["ghost".into()],
        matches_used: vec![],
        parts: vec![],
    };
    let err = execute_mapping(&ExecuteConfig::default(), &mapping, &kb).unwrap_err();
    assert_eq!(err.kind(), "kb");
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn empty_sources_produce_empty_but_valid_results() {
    let mut w = Wrangler::new();
    w.add_source(Relation::empty(Schema::all_str(
        "rightmove",
        &["price", "street", "postcode"],
    )));
    w.set_target(Schema::all_str("property", &["street", "postcode", "price"]));
    // an empty source has no instances: matching is schema-only, the
    // mapping executes to zero rows, nothing panics
    w.run().expect("empty sources orchestrate cleanly");
    if let Some(result) = w.result() {
        assert!(result.is_empty());
    }
}

#[test]
fn panicking_similarity_errors_instead_of_hanging_and_names_the_stage() {
    use vada_common::Value;
    use vada_fusion::{cluster_relation_scored, record_similarity, ClusterConfig, FieldKind, FieldSpec};

    let mut rel = Relation::empty(Schema::all_str("r", &["street", "postcode"]));
    for i in 0..200 {
        rel.push(tuple![format!("{} high st", i / 2), "M1 1AA"]).unwrap();
    }
    rel.push(tuple!["POISON", "M1 1AA"]).unwrap();
    let cfg = ClusterConfig {
        block_keys: vec!["postcode".into()],
        fields: vec![FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Text }],
        threshold: 0.9,
    };
    let scorer = |a: &vada_common::Tuple, b: &vada_common::Tuple| {
        let poisoned = |t: &vada_common::Tuple| t[0] == Value::str("POISON");
        if poisoned(a) || poisoned(b) {
            panic!("poisoned row reached the scorer");
        }
        record_similarity(&cfg.fields, a, b)
    };
    // the panic payload must come back as an error naming the offending
    // stage, never a deadlock or process abort
    let err = cluster_relation_scored(&cfg, &rel, &scorer).unwrap_err();
    assert_eq!(err.kind(), "parallel", "{err}");
    assert!(err.message().contains("fusion/pairwise"), "{err}");
    assert!(err.message().contains("poisoned row"), "{err}");
}

#[test]
fn incremental_mode_survives_transducer_failure() {
    // a failing transducer must surface its diagnostic and leave the
    // knowledge base usable — its delta journal and its write-ahead log
    // both: a reopen recovers the live catalog, and the retry proceeds
    let dir = TempDir::new("flaky");
    let mut w = Wrangler::with_transducers(vec![Box::new(Flaky::default())]);
    w.kb_mut().persist_to(&dir).unwrap();
    let mut src = Relation::empty(Schema::all_str("s", &["a"]));
    src.push(tuple!["x"]).unwrap();
    w.add_source(src);
    let journal_before = w.kb().journal().len();
    let err = w.run().unwrap_err();
    assert!(err.to_string().contains("flaky"), "{err}");
    // the journal recorded the registration and nothing from the failed
    // run — consistent for any journal consumer that reads it next
    assert_eq!(w.kb().journal().len(), journal_before);
    w.kb().storage_health().expect("the failed run left the WAL healthy");
    let catalog = |kb: &KnowledgeBase| -> Vec<(String, &'static str, Vec<Tuple>)> {
        kb.catalog()
            .entries()
            .map(|(name, kind, rel)| (name.to_string(), kind.tag(), rel.tuples().to_vec()))
            .collect()
    };
    let recovered = KnowledgeBase::open(&dir).unwrap();
    assert_eq!(catalog(&recovered), catalog(w.kb()), "a reopen recovers the live catalog");
    drop(recovered);
    let report = w.run().expect("retry recovers");
    assert_eq!(report.executed, 1);
}

#[test]
fn poisoned_incremental_session_refuses_deltas_until_rematerialized() {
    // the datalog layer's contract behind the recovery above: after a
    // failed delta pass the session is poisoned, every further apply is
    // refused, and a run_full over clean input restores service — the
    // journal side (owned by the KB) is never touched by the failure
    use vada_datalog::incremental::IncrementalSession;
    use vada_datalog::{Database, EngineConfig};
    let mut session =
        IncrementalSession::new(EngineConfig::default(), "q(Y) :- p(X), Y = X * 2.").unwrap();
    let mut input = Database::new();
    input.insert("p", tuple![2]);
    session.run_full(input.clone()).unwrap();
    let err = session
        .apply(vec![("p".into(), tuple!["not a number"])])
        .unwrap_err();
    assert_eq!(err.kind(), "eval", "{err}");
    let err = session.apply(vec![("p".into(), tuple![3])]).unwrap_err();
    assert!(err.message().contains("poisoned"), "{err}");
    session.run_full(input).unwrap();
    session.apply(vec![("p".into(), tuple![3])]).unwrap();
    assert_eq!(session.database().facts("q").len(), 2);
}

#[test]
fn panic_mid_retraction_poisons_the_session_and_run_full_recovers() {
    // the deletion path's failure contract: a panic injected while counting
    // enumerates the destroyed derivations (captured by the stage's panic
    // guard) poisons the session, every further delta or retraction is
    // refused, and the next run_full restores service
    use vada_datalog::incremental::{DeltaMode, IncrementalSession};
    use vada_datalog::{Database, EngineConfig};
    let mut input = Database::new();
    for i in 0..8i64 {
        input.insert("p", tuple![i]);
        input.insert("r", tuple![i, i * 10]);
    }
    let mut session =
        IncrementalSession::new(EngineConfig::default(), "q(X, Y) :- p(X), r(X, Y).").unwrap();
    session.run_full(input).unwrap();

    session.inject_fault(Some("retract-enumerate"));
    let err = session.retract(vec![("p".into(), tuple![3i64])]).unwrap_err();
    assert_eq!(err.kind(), "parallel", "{err}");
    assert!(err.message().contains("injected fault"), "{err}");
    let err = session.apply(vec![("p".into(), tuple![20i64])]).unwrap_err();
    assert!(err.message().contains("poisoned"), "{err}");
    let err = session.retract(vec![("p".into(), tuple![0i64])]).unwrap_err();
    assert!(err.message().contains("poisoned"), "{err}");

    // recovery: run_full over the post-retraction base (the failed retract
    // had already removed p(3) from the accumulated input)
    session.inject_fault(None);
    let mut shrunk = Database::new();
    for i in 0..8i64 {
        if i != 3 {
            shrunk.insert("p", tuple![i]);
        }
        shrunk.insert("r", tuple![i, i * 10]);
    }
    session.run_full(shrunk).unwrap();
    session.retract(vec![("p".into(), tuple![6i64])]).unwrap();
    assert_eq!(session.last_outcome().unwrap().mode, DeltaMode::Incremental);
    assert_eq!(session.database().facts("q").len(), 6);
}

#[test]
fn failed_deletion_leaves_the_kb_journal_consistent() {
    // a deletion-path failure lives entirely inside the consumer session:
    // the knowledge-base journal records exactly the row-level retraction
    // event and stays readable for any other consumer
    use vada_kb::{DeltaChange, Since};
    let mut kb = KnowledgeBase::new();
    let mut src = Relation::empty(Schema::all_str("edges", &["a", "b"]));
    for i in 0..5i64 {
        src.push(tuple![format!("{i}"), format!("{}", i + 1)]).unwrap();
    }
    kb.register_source(src);
    let (seen, seen_version) = (kb.mark(), kb.version());
    let removed = kb.remove_rows("edges", &[2]).unwrap();
    assert_eq!(removed.len(), 1);

    // a consumer session that fails mid-retraction does not touch the journal
    use vada_datalog::incremental::IncrementalSession;
    use vada_datalog::{Database, EngineConfig};
    let mut input = Database::new();
    input.insert("e", tuple![1]);
    let mut session =
        IncrementalSession::new(EngineConfig::default(), "q(X) :- e(X), f(X).").unwrap();
    session.run_full(input).unwrap();
    session.inject_fault(Some("retract-enumerate"));
    // arm a failure and retract a fact that reaches the enumeration pass
    let mut input2 = Database::new();
    input2.insert("e", tuple![1]);
    input2.insert("f", tuple![1]);
    session.run_full(input2).unwrap();
    assert!(session.retract(vec![("e".into(), tuple![1])]).is_err());

    let events: Vec<_> =
        kb.journal().scan_since(seen_version).expect("window covers the removal").collect();
    assert_eq!(events.len(), 1, "exactly the one retraction event");
    assert_eq!(kb.since(&seen, &["edges"]), Since::Rows(events.clone()));
    match &events[0].change {
        DeltaChange::RowsRemoved { relation, rows, .. } => {
            assert_eq!(relation, "edges");
            assert_eq!(rows, &removed);
        }
        other => panic!("expected RowsRemoved, got {other:?}"),
    }
    // the journal is still append-only readable from zero
    assert!(kb.journal().scan_since(0).is_some());
}

#[test]
fn divergent_user_datalog_is_rejected_not_hung() {
    // a user-supplied mapping with a non-warded existential cycle must be
    // stopped by the chase guard
    use vada_datalog::{parse_program, Database, Engine, EngineConfig};
    let program = parse_program(
        "seed(1). p(X, Z) :- seed(X). seed(Z) :- p(_, Z).",
    )
    .unwrap();
    let engine = Engine::new(EngineConfig { max_skolem_depth: 6, ..Default::default() });
    let err = engine.run(&program, Database::new()).unwrap_err();
    assert!(err.to_string().contains("termination guard"), "{err}");
}
