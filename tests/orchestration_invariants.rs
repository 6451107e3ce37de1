//! Invariants of the dynamic orchestration (paper §2.3–2.4): dependency
//! gating, activity ordering under the generic policy, trace integrity,
//! and extensibility with user transducers.

use vada::{Activity, GenericPolicy, RunOutcome, Transducer, Wrangler};
use vada_common::{tuple, Relation, Result, Schema};
use vada_extract::sources::target_schema;
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};
use vada_kb::{ContextKind, KnowledgeBase};

fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 60, seed: 8 },
        ..Default::default()
    })
}

fn run_full(w: &mut Wrangler, s: &Scenario) {
    w.add_source(s.rightmove.clone());
    w.add_source(s.onthemarket.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    w.add_data_context(
        s.address.clone(),
        ContextKind::Reference,
        &[("street", "street"), ("postcode", "postcode")],
    )
    .expect("context");
    w.run().expect("context step");
}

#[test]
fn trace_versions_are_monotone_and_writes_consistent() {
    let s = scenario();
    let mut w = Wrangler::new();
    run_full(&mut w, &s);
    let mut prev_end = 0;
    for e in w.trace().entries() {
        assert!(e.kb_version_before >= prev_end, "trace out of order at #{}", e.step);
        assert!(e.kb_version_after >= e.kb_version_before);
        if e.writes == 0 {
            // noop runs may still record vetoes etc., but a plain noop must
            // not claim progress it didn't make: version growth implies a
            // summary mentioning what was written
            assert!(
                e.kb_version_after == e.kb_version_before || !e.summary.is_empty(),
                "#{}: silent version bump",
                e.step
            );
        }
        prev_end = e.kb_version_after;
    }
}

#[test]
fn steps_numbered_densely() {
    let s = scenario();
    let mut w = Wrangler::new();
    run_full(&mut w, &s);
    for (i, e) in w.trace().entries().iter().enumerate() {
        assert_eq!(e.step, i);
    }
}

#[test]
fn no_transducer_fires_before_its_dependencies() {
    let s = scenario();
    let mut w = Wrangler::new();
    run_full(&mut w, &s);
    let names: Vec<&str> = w
        .trace()
        .entries()
        .iter()
        .map(|e| e.transducer.as_str())
        .collect();
    let first = |name: &str| names.iter().position(|n| *n == name);
    // the structural chain of Table 1
    let matching = first("schema_matching").expect("matching ran");
    let generation = first("mapping_generation").expect("generation ran");
    let quality = first("mapping_quality").expect("quality ran");
    let selection = first("mapping_selection").expect("selection ran");
    let execution = first("mapping_execution").expect("execution ran");
    assert!(matching < generation, "matches precede mappings");
    assert!(generation < quality, "mappings precede their metrics");
    assert!(quality < selection, "metrics precede selection");
    assert!(selection < execution, "selection precedes execution");
    // context-gated transducers only fire after the context step; the
    // bootstrap prefix must not contain them
    let context_step_start = names
        .iter()
        .position(|n| *n == "instance_matching" || *n == "cfd_learning")
        .expect("context transducers ran");
    assert!(execution < context_step_start);
}

#[test]
fn generic_policy_orders_by_activity_within_a_burst() {
    let s = scenario();
    let mut w = Wrangler::with_policy(Box::new(GenericPolicy));
    w.add_source(s.rightmove.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    // within the bootstrap burst, the first matching transducer precedes
    // the first quality transducer
    let entries = w.trace().entries();
    let first_matching = entries
        .iter()
        .position(|e| e.activity == Activity::Matching)
        .expect("matching ran");
    let first_quality = entries
        .iter()
        .position(|e| e.activity == Activity::Quality)
        .expect("quality ran");
    assert!(first_matching < first_quality);
}

/// A user-defined transducer: counts result rows into a quality fact (the
/// paper: "developers can contribute ... by adding in new components as
/// transducers").
#[derive(Debug, Default)]
struct RowCounter {
    runs: std::cell::Cell<usize>,
}

impl Transducer for RowCounter {
    fn name(&self) -> &str {
        "row_counter"
    }
    fn activity(&self) -> Activity {
        Activity::Quality
    }
    fn input_dependency(&self) -> &str {
        "result_available(_)"
    }
    fn input_aspects(&self) -> &'static [&'static str] {
        &["result"]
    }
    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        self.runs.set(self.runs.get() + 1);
        let target = kb.target_schema().expect("target").name.clone();
        let rows = kb.relation(&target)?.len();
        kb.add_quality(vada_kb::QualityFact {
            entity_kind: "result".into(),
            entity: target,
            metric: "rows".into(),
            criterion: "rows(property)".into(),
            value: rows as f64,
        });
        Ok(RunOutcome::new(format!("{rows} rows"), 1))
    }
}

#[test]
fn custom_transducers_join_the_fleet() {
    let s = scenario();
    let mut fleet = vada::default_transducers();
    fleet.push(Box::new(RowCounter::default()));
    let mut w = Wrangler::with_transducers(fleet);
    w.add_source(s.rightmove.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap with custom transducer");
    assert!(w
        .trace()
        .entries()
        .iter()
        .any(|e| e.transducer == "row_counter"));
    assert!(w
        .kb()
        .quality_facts()
        .iter()
        .any(|q| q.metric == "rows" && q.value > 0.0));
}

#[test]
fn small_sources_still_converge() {
    // degenerate inputs must not wedge the orchestrator
    let mut w = Wrangler::new();
    let mut rm = Relation::empty(Schema::all_str("rightmove", &["price", "street", "postcode"]));
    rm.push(tuple!["1", "a st", "M1 1AA"]).unwrap();
    w.add_source(rm);
    w.set_target(target_schema());
    let report = w.run().expect("tiny input converges");
    assert!(report.executed > 0);
    assert!(w.result().is_some());
}

/// Candidate results live in the mapping result store, not the catalog:
/// every cycle of edits regenerates every candidate mapping under fresh
/// ids, and the catalog — sources, context, result — keeps its size.
#[test]
fn catalog_stays_flat_across_edit_cycles() {
    use vada_common::{Tuple, Value};
    use vada_kb::{FeedbackRecord, FeedbackTarget, Verdict};

    let s = scenario();
    let mut w = Wrangler::new();
    run_full(&mut w, &s);
    let relations = |w: &Wrangler| w.kb().catalog().entries().count();
    let before = relations(&w);
    let generations = |w: &Wrangler| {
        w.trace().entries().iter().filter(|e| e.transducer == "mapping_generation").count()
    };
    let generated_before = generations(&w);
    // column 0 is the price in both listing sources, never the postcode
    let retyped = |row: &Tuple, tag: String| {
        let mut values: Vec<Value> = row.iter().cloned().collect();
        values[0] = Value::str(tag);
        Tuple::new(values)
    };
    for cycle in 0..4 {
        let mut rm = w.kb().relation("rightmove").unwrap().clone();
        for k in 0..4 {
            let row = retyped(&rm.tuples()[k], format!("append {cycle}.{k}"));
            rm.push(row).unwrap();
        }
        w.add_source(rm);
        w.run().expect("append re-run");

        w.remove_source_rows("rightmove", &[0, 2]).expect("rows exist");
        w.run().expect("removal re-run");

        let otm = w.kb().relation("onthemarket").unwrap();
        let row = retyped(&otm.tuples()[1], format!("update {cycle}"));
        w.update_source_rows("onthemarket", &[(1, row)]).expect("row exists");
        w.run().expect("update re-run");

        let result = w.result().expect("a result").name().to_string();
        w.add_feedback([FeedbackRecord {
            id: format!("fb{cycle}"),
            target: FeedbackTarget::Attribute {
                relation: result,
                row: cycle,
                attr: "price".into(),
            },
            verdict: Verdict::Incorrect,
        }]);
        w.run().expect("feedback re-run");

        assert_eq!(relations(&w), before, "cycle {cycle}");
    }
    assert!(generations(&w) >= generated_before + 4, "every cycle regenerated the candidates");
}

/// What the three reference consumers produced: mapping-quality facts keyed
/// by the mapping's rules (ids regenerate), the learned CFDs without their
/// ids, and the result rows.
type ReferenceView = (Vec<(String, String, u64)>, Vec<(String, usize)>, Vec<vada_common::Tuple>);

fn reference_view(w: &Wrangler) -> ReferenceView {
    let kb = w.kb();
    let mut quality: Vec<(String, String, u64)> = kb
        .quality_facts()
        .iter()
        .filter(|q| q.entity_kind == "mapping")
        .map(|q| {
            let rules = kb.mappings().find(|m| m.id == q.entity).expect("a fact names a mapping");
            (rules.rules.clone(), q.criterion.clone(), q.value.to_bits())
        })
        .collect();
    quality.sort();
    let mut cfds: Vec<(String, usize)> = kb.cfds().map(|c| (c.display(), c.support)).collect();
    cfds.sort();
    let result = w.result().expect("a result").tuples().to_vec();
    (quality, cfds, result)
}

/// A from-scratch wrangle of `sources` with `address` as the reference.
fn fresh_view(sources: [Relation; 3], address: Relation) -> ReferenceView {
    let mut w = Wrangler::new();
    for source in sources {
        w.add_source(source);
    }
    w.set_target(target_schema());
    w.run().expect("bootstrap");
    let bindings = [("street", "street"), ("postcode", "postcode")];
    w.add_data_context(address, ContextKind::Reference, &bindings).expect("context");
    w.run().expect("context step");
    reference_view(&w)
}

fn sources_of(w: &Wrangler) -> [Relation; 3] {
    ["rightmove", "onthemarket", "deprivation"].map(|n| w.kb().relation(n).unwrap().clone())
}

/// Edit `address` so that every reference consumer sees it: row `row`'s
/// street becomes a near variant, which the listings' spelling now snaps
/// to, and row `row + 1` takes row `row + 2`'s postcode under a new city,
/// which breaks `postcode → city` and `postcode → street`.
fn edit_address(w: &mut Wrangler, row: usize, tag: &str) {
    let address = w.kb().relation("address").unwrap().tuples();
    let (first, second, third) = (&address[row], &address[row + 1], &address[row + 2]);
    let variant = tuple![format!("{} {tag}", first[0]), first[1].clone(), first[2].clone()];
    let clash = tuple![second[0].clone(), format!("{tag}ville"), third[2].clone()];
    w.update_source_rows("address", &[(row, variant), (row + 1, clash)]).expect("rows exist");
    w.run().expect("re-run after the reference edit");
}

/// The quality transducers keep what they derive from the reference across
/// runs. An edit to the reference must be seen as if it had been there
/// from the start, also once the knowledge base has moved to a new lineage.
#[test]
fn an_edit_to_the_reference_is_seen() {
    let s = scenario();
    let mut w = Wrangler::new();
    run_full(&mut w, &s);
    let before = reference_view(&w);

    edit_address(&mut w, 0, "a");
    let edited = w.kb().relation("address").unwrap().clone();
    let after = reference_view(&w);
    assert_eq!(after, fresh_view(sources_of(&w), edited.clone()));
    assert_ne!(after.0, before.0, "the edit moves the mapping-quality facts");
    assert_ne!(after.1, before.1, "the edit moves the learned CFDs");
    assert_ne!(after.2, before.2, "the edit moves the repaired result");

    // a wrangler resumed on a clone (a new lineage): same contract
    let mut resumed = Wrangler::with_kb(w.kb().clone());
    resumed.run().expect("resumed run");
    edit_address(&mut resumed, 3, "b");
    let edited = resumed.kb().relation("address").unwrap().clone();
    assert_eq!(reference_view(&resumed), fresh_view(sources_of(&resumed), edited));

    // warm transducers over a base whose history diverged: `stale` holds
    // the address as it was before `w` saw the edit below. Source edits
    // carry it past the version `w` had consumed, with no event naming
    // `address`, so only the lineage tells the two histories apart
    let stale = w.kb().clone();
    edit_address(&mut w, 6, "c");
    let consumed = w.kb().version();
    *w.kb_mut() = stale;
    for k in 0.. {
        if w.kb().version() > consumed {
            break;
        }
        let row = w.kb().relation("rightmove").unwrap().tuples()[k % 8].clone();
        w.update_source_rows("rightmove", &[(k % 8, row)]).expect("row exists");
    }
    w.run().expect("re-run on the diverged base");
    let address = w.kb().relation("address").unwrap().clone();
    assert_eq!(reference_view(&w), fresh_view(sources_of(&w), address));
}

/// The cache-hit side: source edits never touch the reference, so each
/// quality transducer prepares it once for the whole session.
#[test]
fn source_edits_prepare_the_reference_once() {
    use vada_common::obs::{key, Obs};

    let s = scenario();
    let mut w = Wrangler::new();
    w.set_obs(Obs::enabled());
    run_full(&mut w, &s);
    let counter = |w: &Wrangler, k: &str| w.obs().counters().get(k).copied().unwrap_or(0);
    // cfd_learning, mapping_quality and result_repair, one reference each
    assert_eq!(counter(&w, key::QUALITY_REF_PREPARED), 3);
    let reused = counter(&w, key::QUALITY_REF_REUSED);
    for cycle in 0..3 {
        let mut rm = w.kb().relation("rightmove").unwrap().clone();
        let row = rm.tuples()[cycle].clone();
        rm.push(row).unwrap();
        w.add_source(rm);
        w.run().expect("append re-run");
        w.remove_source_rows("onthemarket", &[cycle]).expect("row exists");
        w.run().expect("removal re-run");
    }
    assert_eq!(counter(&w, key::QUALITY_REF_PREPARED), 3, "no re-preparation");
    assert!(counter(&w, key::QUALITY_REF_REUSED) >= reused + 6 * 3, "every re-run reused");
}
