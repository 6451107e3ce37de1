//! The dependency view behind `KnowledgeBase::query` answers every query
//! exactly as `Engine::eval_query` over a fresh `build_dependency_db()`,
//! answer order included: after every step of seeded random scripts over
//! every public mutator, with the default journal window and with a window
//! of four events, and across clones.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vada_common::obs::{key, Obs};
use vada_common::{Relation, Schema, Tuple, Value};
use vada_datalog::parser::parse_query;
use vada_datalog::Engine;
use vada_kb::{
    CellVeto, CfdRule, ContextKind, FeedbackRecord, FeedbackTarget, KnowledgeBase, MappingDef,
    MatchDef, PairwiseStatement, QualityFact, Verdict,
};

/// Every predicate of the view, scanned whole.
const SCANS: [&str; 17] = [
    "relation(A, B, C)",
    "attr(A, B, C, D)",
    "has_instances(A)",
    "result_available(A)",
    "target_relation(A)",
    "target_attr(A, B, C, D)",
    "match(A, B, C, D, E, F)",
    "mapping(A, B)",
    "selected_mapping(A)",
    "cfd(A, B, C, D)",
    "cfd_available(A)",
    "quality(A, B, C, D, E)",
    "feedback(A, B, C, D, E, F)",
    "user_context(A, B, C)",
    "data_context(A, B)",
    "staged_document(A)",
    "context_binding(A, B, C)",
];

/// Queries that join, negate, compare, or name a predicate the view does
/// not define.
const COMPOUND: [&str; 8] = [
    "relation(R, \"source\", _), has_instances(R)",
    "relation(R, K, N), not has_instances(R)",
    "attr(R, A, _, _), relation(R, \"source\", _), target_attr(T, B, _, _)",
    "match(M, R, _, _, S, _), S >= 0.5, not cfd_available(R)",
    "mapping(M, _), not selected_mapping(M)",
    "data_context(R, K), context_binding(R, A, T), has_instances(R)",
    "nosuch(X)",
    "staged_document(D), not nosuch(D)",
];

/// The view's answer to `q` against a fresh build's.
fn assert_answers_as_fresh(kb: &KnowledgeBase, q: &str, context: &str) {
    let fresh = Engine::default().eval_query(&parse_query(q).unwrap(), &kb.build_dependency_db());
    assert_eq!(kb.query(q).unwrap(), fresh.unwrap(), "{context}: {q}");
}

/// Every scan and compound query, in a random order, so each query finds
/// the view partly built.
fn check(kb: &KnowledgeBase, rng: &mut StdRng, context: &str) {
    let mut queries: Vec<&str> = SCANS.iter().chain(&COMPOUND).copied().collect();
    queries.shuffle(rng);
    for q in queries {
        assert_answers_as_fresh(kb, q, context);
    }
}

/// A relation of up to three string columns `x`, `y`, `z` and up to three
/// rows over few values, so rows repeat.
fn relation(rng: &mut StdRng, name: &str) -> Relation {
    let attrs = &["x", "y", "z"][..rng.gen_range(1..4)];
    let mut rel = Relation::empty(Schema::all_str(name, attrs));
    for _ in 0..rng.gen_range(0..4) {
        rel.push(row(rng, attrs.len())).unwrap();
    }
    rel
}

fn row(rng: &mut StdRng, arity: usize) -> Tuple {
    (0..arity).map(|_| Value::str(rng.gen_range(0..3u8).to_string())).collect()
}

/// One call of a random public mutator; calls the base refuses are part of
/// the script too.
fn mutate(kb: &mut KnowledgeBase, rng: &mut StdRng) {
    let source = ["a", "b"][rng.gen_range(0..2usize)];
    let id = rng.gen_range(0..3usize);
    let len = kb.relation(source).map_or(0, |r| r.len());
    match rng.gen_range(0..22) {
        0 if len > 0 && rng.gen_bool(0.5) => {
            let mut grown = kb.relation(source).unwrap().clone();
            grown.push(row(rng, grown.schema().arity())).unwrap();
            kb.register_source(grown);
        }
        0 => kb.register_source(relation(rng, source)),
        1 => drop(kb.remove_rows(source, &[rng.gen_range(0..len.max(1))])),
        2 if rng.gen_bool(0.5) => {
            let arity = kb.relation(source).map_or(1, |r| r.schema().arity());
            drop(kb.insert_rows(source, &[(rng.gen_range(0..len + 1), row(rng, arity))]));
        }
        2 => {
            let arity = kb.relation(source).map_or(1, |r| r.schema().arity());
            drop(kb.update_source(source, &[(rng.gen_range(0..len.max(1)), row(rng, arity))]));
        }
        3 => kb.put_result(relation(rng, "result")),
        4 => kb.put_intermediate(relation(rng, "clusters")),
        5 => kb.remove_intermediate("clusters"),
        6 => kb.stage_document(format!("d{id}"), "x\n1\n"),
        7 => drop(kb.unstage_document(&format!("d{id}"))),
        8 => kb.add_match(MatchDef {
            id: format!("m{id}"),
            src_rel: source.into(),
            src_attr: "x".into(),
            tgt_attr: "t".into(),
            score: rng.gen(),
            matcher: "schema".into(),
        }),
        9 => drop(kb.set_match_score(&format!("m{id}"), rng.gen())),
        10 => kb.add_mapping(MappingDef {
            id: format!("map{id}"),
            target: "target".into(),
            rules: format!("target(X) :- {source}(X)."),
            sources: vec![source.into()],
            matches_used: vec![],
            parts: vec![],
        }),
        11 => kb.clear_mappings(),
        12 => drop(kb.select_mapping(&format!("map{id}"))),
        13 => kb.add_cfd(CfdRule {
            id: format!("c{id}"),
            relation: source.into(),
            lhs: vec![],
            rhs: ("x".into(), None),
            support: id,
        }),
        14 => kb.clear_cfds(),
        15 => kb.add_quality(QualityFact {
            entity_kind: ["mapping", "source"][id % 2].into(),
            entity: source.into(),
            metric: "completeness".into(),
            criterion: "x".into(),
            value: rng.gen(),
        }),
        16 => kb.clear_quality(["mapping", "source"][id % 2]),
        17 => kb.add_feedback(FeedbackRecord {
            id: format!("f{}", kb.feedback().len()),
            target: match id {
                0 => FeedbackTarget::Tuple { relation: "result".into(), row: id },
                _ => FeedbackTarget::Attribute {
                    relation: "result".into(),
                    row: id,
                    attr: "x".into(),
                },
            },
            verdict: if rng.gen_bool(0.5) { Verdict::Correct } else { Verdict::Incorrect },
        }),
        18 => kb.add_veto(CellVeto {
            key: vec![("x".into(), Value::str("1"))],
            attr: None,
            value: None,
        }),
        19 => kb.set_user_context(
            (0..id)
                .map(|i| PairwiseStatement {
                    more_important: format!("completeness({i})"),
                    less_important: "accuracy(x)".into(),
                    strength: "strongly".into(),
                })
                .collect(),
        ),
        20 => {
            let kind = [ContextKind::Reference, ContextKind::Master, ContextKind::Example][id];
            let ctx = relation(rng, &format!("ctx{}", id % 2));
            kb.register_data_context(ctx, kind, &[("x", "t")]).unwrap();
        }
        _ => kb.register_target_schema(Schema::all_str("target", &["t", "u"][..1 + id % 2])),
    }
}

/// Eighty random mutations per seed on a base `new` makes, checking the
/// view after every one. Now and then the script carries on with a clone,
/// which starts with an empty view.
fn scripts(new: fn() -> KnowledgeBase, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kb = new();
        for step in 0..80 {
            mutate(&mut kb, &mut rng);
            if rng.gen_bool(0.1) {
                kb = kb.clone();
            }
            check(&kb, &mut rng, &format!("seed {seed} step {step}"));
        }
    }
}

#[test]
fn the_dependency_view_answers_as_a_fresh_build_after_every_step() {
    scripts(KnowledgeBase::new, 0..3);
}

/// The window prunes past the version the view was filled at.
#[test]
fn a_window_of_four_events_leaves_every_answer_as_a_fresh_build() {
    scripts(|| KnowledgeBase::with_journal_capacity(4), 3..6);
}

#[test]
fn a_predicate_the_view_does_not_define_has_no_facts_and_is_never_built() {
    let mut kb = KnowledgeBase::new();
    kb.set_obs(Obs::enabled());
    kb.register_source(relation(&mut StdRng::seed_from_u64(7), "a"));
    for q in ["nosuch(X)", "not_a_pred(R), relation(R, _, _)", "relation(R, _, _), not nosuch(R)"] {
        assert_answers_as_fresh(&kb, q, "unknown predicate");
    }
    assert_eq!(kb.query("nosuch(X)").unwrap(), Vec::<Tuple>::new());
    assert_eq!(kb.query("relation(R, _, _), not nosuch(R)").unwrap().len(), 1);
    assert_eq!(kb.obs().get(key::DEPCACHE_BUILDS), 1, "only `relation` is built");
}
