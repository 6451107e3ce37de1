//! Differential tests for re-wrangling after knowledge-base edits. The
//! only suite that drives append / remove / update / feedback scripts
//! through a long-lived [`Wrangler`], it pins two things: the re-wrangle
//! is deterministic and storage-blind — two independently built wranglers
//! (each with its own hash seeds), one in memory and one whose base writes
//! a WAL from before its first mutation, produce the same result relation
//! (rows in the same order), the same trace shape (every stable field) and
//! the same errors after every step, with the log healthy throughout — and
//! a mapping executed through the
//! journal-validated [`vada_map::ResultStore`] is byte-identical to a
//! scratch `execute_mapping` on the same knowledge base, whether the
//! store re-materialised it or handed the stored result back. Result repair
//! and duplicate detection, which follow the result's row edits between
//! runs, are checked on every run against fresh instances run on a copy of
//! the same base, and the durable base logs the result edits of repair,
//! fusion and feedback as row-level records without a relation payload.
//! Mapping execution, which writes the result as a row diff of its own
//! previous output, is checked against a fleet whose execution always puts
//! the whole result: the two leave byte-identical results after every step.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada::components::fusion_t::CLUSTERS_REL;
use vada::components::feedback::apply_vetoes;
use vada::components::{
    DuplicateDetection, MappingExecution, MappingQuality, MappingSelection, ResultRepair,
};
use vada::{default_transducers, Activity, RunOutcome, Transducer, Wrangler};
use vada_common::obs::{key as obs_key, Obs};
use vada_common::{csv, Tuple, Value};
use vada_extract::sources::target_schema;
use vada_extract::{ErrorModel, Scenario, ScenarioConfig, UniverseConfig};
use vada_kb::storage::{Wal, WAL_FILE};
use vada_kb::{
    CfdRule, ContextKind, DeltaChange, FeedbackRecord, FeedbackTarget, KnowledgeBase,
    PairwiseStatement, Verdict,
};
use vada_map::{execute_mapping, ExecuteConfig};

mod common;
use common::TempDir;

/// Render everything observable about a wrangle: the result relation as
/// CSV bytes and the trace's stable fields (everything but duration).
fn observe(w: &Wrangler) -> String {
    let result = w.result().map(csv::write_relation);
    let trace: Vec<String> = w
        .trace()
        .entries()
        .iter()
        .map(|e| {
            format!(
                "#{} {} [{}] dep={} v{}->v{} writes={} {}",
                e.step,
                e.transducer,
                e.activity,
                e.input_dependency,
                e.kb_version_before,
                e.kb_version_after,
                e.writes,
                e.summary
            )
        })
        .collect();
    format!("{}\n=== result ===\n{}", trace.join("\n"), result.unwrap_or_default())
}

/// One step of the randomized edit script, applied identically to every
/// wrangler under comparison.
#[derive(Debug, Clone)]
enum Edit {
    /// Append cloned-and-tweaked rows to an existing source. Tweaking a
    /// non-postcode cell keeps most appends on the semi-naive fast path;
    /// fresh postcodes exercise the fallback.
    GrowSource { source: &'static str, rows: usize, fresh_postcode: bool },
    /// Stage a small CSV document (exercises ingestion → rematching →
    /// regeneration, i.e. structural change on the incremental side).
    StageDocument { tag: u64 },
    /// Rescore a schema match (picked by structural key, not id).
    MutateMatch { nth: usize, score: f64 },
    /// Mark a result cell incorrect (feedback → veto → repair).
    Feedback { row: u64 },
    /// Register the address reference data (once per script).
    AddContext,
    /// Replace the user context.
    UserContext { strength: &'static str },
    /// Remove rows from a source (retraction path: the journal records a
    /// row-level `RowsRemoved`, the incremental side routes it through
    /// counting, the full side re-reads the shrunk relation).
    RemoveRows { source: &'static str, nth: u64, count: usize },
    /// Rewrite one row in place (`RowsReplaced`): tail rewrites can replay
    /// as retract+append, mid-relation rewrites force a rebuild — both
    /// must stay byte-identical.
    UpdateRow { source: &'static str, nth: u64, tail: bool },
    /// Rewrite a row as a copy of the row after it (a mid-relation
    /// rewrite): a duplicate that fusion merges, and the row's old cluster
    /// split.
    CopyRow { source: &'static str, nth: u64 },
    /// Null a row's postcode: its result row leaves its block for a block
    /// of its own.
    NullPostcode { source: &'static str, nth: u64, tail: bool },
    /// Mark a result row incorrect as a whole (a veto that drops the row).
    FeedbackRow { row: u64 },
    /// Mark the price of a result row that repair or fusion rewrote
    /// incorrect: the veto, taken from the rewritten row, changes no row of
    /// the mapping's output.
    FeedbackRepaired { nth: usize },
    /// Rename the streets of the address rows at the postcodes of result
    /// rows whose street repair rewrote (a data-context edit): repair loses
    /// the fixes it made there.
    RenameContextStreets { nth: u64 },
    /// Register the address reference with a few streets listed again
    /// under another postcode, so no CFD `street → postcode` holds on it.
    AddAmbiguousContext,
    /// Register a second reference, from which a CFD `street → postcode`
    /// is learned: repair then writes the block attribute.
    PostcodeReference,
    /// Add a CFD `postcode → street` by hand: repair runs under it until
    /// CFD learning, at the next source edit, puts the learned ones back.
    AddCfd,
    /// Select another candidate mapping by hand.
    Reselect { nth: usize },
    /// Put the result back whole, its rows reversed (a relation-level
    /// write of the result from outside the fleet).
    ReverseResult,
    /// Narrow the target schema to all but its description.
    NarrowTarget,
}

fn random_script(rng: &mut StdRng, steps: usize) -> Vec<Vec<Edit>> {
    let mut script = Vec::new();
    let mut context_added = false;
    for step in 0..steps {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1usize..3) {
            let op = rng.gen_range(0usize..11);
            batch.push(match op {
                0..=2 => Edit::GrowSource {
                    source: if rng.gen_range(0usize..2) == 0 { "rightmove" } else { "onthemarket" },
                    rows: rng.gen_range(1usize..4),
                    fresh_postcode: rng.gen_range(0usize..4) == 0,
                },
                3 => Edit::StageDocument { tag: rng.gen_range(0u64..1000) },
                4 => Edit::MutateMatch {
                    nth: rng.gen_range(0usize..50),
                    score: 0.55 + 0.4 * rng.gen_range(0u64..100) as f64 / 100.0,
                },
                5 => Edit::Feedback { row: rng.gen_range(0u64..1000) },
                6 if !context_added => {
                    context_added = true;
                    Edit::AddContext
                }
                7 | 8 => Edit::RemoveRows {
                    source: if rng.gen_range(0usize..2) == 0 { "rightmove" } else { "onthemarket" },
                    nth: rng.gen_range(0u64..1000),
                    count: rng.gen_range(1usize..3),
                },
                9 => Edit::UpdateRow {
                    source: if rng.gen_range(0usize..2) == 0 { "rightmove" } else { "onthemarket" },
                    nth: rng.gen_range(0u64..1000),
                    tail: rng.gen_range(0usize..2) == 0,
                },
                _ => Edit::UserContext {
                    strength: if step % 2 == 0 { "strongly" } else { "very strongly" },
                },
            });
        }
        script.push(batch);
    }
    script
}

/// Apply one edit to a wrangler. Uses only structural keys (never raw
/// generated ids) so the same edit lands identically in every wrangler.
fn apply_edit(w: &mut Wrangler, scenario: &Scenario, edit: &Edit) {
    match edit {
        Edit::GrowSource { source, rows, fresh_postcode } => {
            let mut rel = w.kb().relation(source).expect("source exists").clone();
            let pc_col = rel
                .schema()
                .attr_names()
                .iter()
                .position(|a| a.contains("post"))
                .unwrap_or(0);
            let n = rel.len();
            for k in 0..*rows {
                let template = rel.tuples()[(n + k * 7) % n].clone();
                let mut values: Vec<Value> = template.iter().cloned().collect();
                // tweak the first non-postcode column so the row is new
                let tweak_col = (0..values.len()).find(|c| *c != pc_col).unwrap_or(0);
                values[tweak_col] = Value::str(format!("edit {} {}", n, k));
                if *fresh_postcode {
                    values[pc_col] = Value::str(format!("Z{} {}XY", (n + k) % 90, k % 9));
                }
                rel.push(Tuple::new(values)).unwrap();
            }
            w.add_source(rel);
        }
        Edit::StageDocument { tag } => {
            w.kb_mut().stage_document(
                format!("extra_{tag}"),
                format!("code,label\nC{tag},staged document {tag}\nC{},other\n", tag % 7),
            );
        }
        Edit::MutateMatch { nth, score } => {
            let mut keys: Vec<(String, String, String, String)> = w
                .kb()
                .matches()
                .map(|m| {
                    (m.src_rel.clone(), m.src_attr.clone(), m.tgt_attr.clone(), m.id.clone())
                })
                .collect();
            keys.sort();
            if keys.is_empty() {
                return;
            }
            let id = keys[nth % keys.len()].3.clone();
            w.kb_mut().set_match_score(&id, *score).unwrap();
        }
        Edit::Feedback { row } => {
            let Some(result) = w.result() else { return };
            if result.is_empty() {
                return;
            }
            let row = (*row as usize) % result.len();
            w.add_feedback([FeedbackRecord {
                id: format!("fb_{row}"),
                target: FeedbackTarget::Attribute {
                    relation: result.name().to_string(),
                    row,
                    attr: "price".into(),
                },
                verdict: Verdict::Incorrect,
            }]);
        }
        Edit::AddContext => {
            w.add_data_context(
                scenario.address.clone(),
                ContextKind::Reference,
                &[("street", "street"), ("postcode", "postcode")],
            )
            .unwrap();
        }
        Edit::AddAmbiguousContext => {
            let mut address = scenario.address.clone();
            let postcode = address.schema().require("postcode").unwrap();
            let n = address.len();
            let again: Vec<Tuple> = (0..4.min(n))
                .map(|i| {
                    let other = address.tuples()[(i + n / 2) % n][postcode].clone();
                    address.tuples()[i].with_value(postcode, other)
                })
                .collect();
            address.extend(again).unwrap();
            w.add_data_context(
                address,
                ContextKind::Reference,
                &[("street", "street"), ("postcode", "postcode")],
            )
            .unwrap();
        }
        Edit::UserContext { strength } => {
            w.set_user_context(vec![PairwiseStatement {
                more_important: "completeness(crimerank)".into(),
                less_important: "completeness(bedrooms)".into(),
                strength: strength.to_string(),
            }]);
        }
        Edit::RemoveRows { source, nth, count } => {
            let len = w.kb().relation(source).expect("source exists").len();
            if len == 0 {
                return;
            }
            // structural pick: spread deterministic indices over the relation
            let rows: Vec<usize> =
                (0..*count).map(|k| ((*nth as usize) + k * 3) % len).collect();
            w.remove_source_rows(source, &rows).expect("rows exist");
        }
        Edit::UpdateRow { source, nth, tail } => {
            let rel = w.kb().relation(source).expect("source exists").clone();
            if rel.is_empty() {
                return;
            }
            let row = if *tail { rel.len() - 1 } else { (*nth as usize) % rel.len() };
            let pc_col = rel
                .schema()
                .attr_names()
                .iter()
                .position(|a| a.contains("post"))
                .unwrap_or(0);
            let mut values: Vec<Value> = rel.tuples()[row].iter().cloned().collect();
            let tweak_col = (0..values.len()).find(|c| *c != pc_col).unwrap_or(0);
            values[tweak_col] = Value::str(format!("upd {} {}", nth, row));
            w.update_source_rows(source, &[(row, Tuple::new(values))])
                .expect("row exists");
        }
        Edit::CopyRow { source, nth } => {
            let rel = w.kb().relation(source).expect("source exists");
            if rel.len() < 2 {
                return;
            }
            let row = (*nth as usize) % (rel.len() - 1);
            let copy = rel.tuples()[row + 1].clone();
            w.update_source_rows(source, &[(row, copy)]).expect("row exists");
        }
        Edit::NullPostcode { source, nth, tail } => {
            let rel = w.kb().relation(source).expect("source exists");
            if rel.is_empty() {
                return;
            }
            let row = if *tail { rel.len() - 1 } else { (*nth as usize) % rel.len() };
            let pc_col = rel.schema().attr_names().iter().position(|a| a.contains("post"));
            let Some(pc_col) = pc_col else { return };
            let nulled = rel.tuples()[row].with_value(pc_col, Value::Null);
            w.update_source_rows(source, &[(row, nulled)]).expect("row exists");
        }
        Edit::FeedbackRow { row } => {
            let Some(result) = w.result() else { return };
            if result.is_empty() {
                return;
            }
            let row = (*row as usize) % result.len();
            w.add_feedback([FeedbackRecord {
                id: format!("fb_row_{row}"),
                target: FeedbackTarget::Tuple { relation: result.name().to_string(), row },
                verdict: Verdict::Incorrect,
            }]);
        }
        Edit::RenameContextStreets { nth } => {
            let Ok(address) = w.kb().relation("address") else { return };
            let Some(result) = w.result() else { return };
            let at = result.schema().require("postcode").unwrap();
            let repaired: Vec<Value> = rewritten_rows(w, &["street", "postcode"])
                .into_iter()
                .map(|row| result.tuples()[row][at].clone())
                .collect();
            let (street, postcode) = (
                address.schema().require("street").unwrap(),
                address.schema().require("postcode").unwrap(),
            );
            let renamed: Vec<(usize, Tuple)> = address
                .iter()
                .enumerate()
                .filter(|(_, t)| repaired.contains(&t[postcode]))
                .map(|(row, t)| (row, t.with_value(street, Value::str(format!("{nth} quay {row}")))))
                .collect();
            w.kb_mut().update_source("address", &renamed).expect("rows exist");
        }
        Edit::FeedbackRepaired { nth } => {
            let repaired = rewritten_rows(w, &["street", "postcode", "price"]);
            let Some(&row) = repaired.get(nth % repaired.len().max(1)) else { return };
            let result = w.result().expect("a result");
            w.add_feedback([FeedbackRecord {
                id: format!("fb_repaired_{row}"),
                target: FeedbackTarget::Attribute {
                    relation: result.name().to_string(),
                    row,
                    attr: "price".into(),
                },
                verdict: Verdict::Incorrect,
            }]);
        }
        Edit::PostcodeReference => {
            // streets that name one postcode each in the address list
            let address = &scenario.address;
            let (street, postcode) = (
                address.schema().require("street").unwrap(),
                address.schema().require("postcode").unwrap(),
            );
            let mut seen = std::collections::BTreeMap::new();
            for t in address.iter() {
                seen.entry(t[street].clone()).or_insert_with(Vec::new).push(t[postcode].clone());
            }
            let mut rel = vada_common::Relation::empty(vada_common::Schema::all_str(
                "street_postcodes",
                &["street", "postcode"],
            ));
            for (s, postcodes) in seen.into_iter().filter(|(_, p)| p.len() == 1).take(40) {
                rel.push(Tuple::new(vec![s, postcodes[0].clone()])).unwrap();
            }
            w.add_data_context(
                rel,
                ContextKind::Reference,
                &[("street", "street"), ("postcode", "postcode")],
            )
            .unwrap();
        }
        Edit::AddCfd => w.kb_mut().add_cfd(CfdRule {
            id: "by_hand".into(),
            relation: "address".into(),
            lhs: vec![("postcode".into(), None)],
            rhs: ("street".into(), None),
            support: 5,
        }),
        Edit::ReverseResult => {
            let Some(result) = w.result() else { return };
            let mut reversed = vada_common::Relation::empty(result.schema().clone());
            reversed.extend(result.tuples().iter().rev().cloned()).unwrap();
            w.kb_mut().put_result(reversed);
        }
        Edit::NarrowTarget => {
            let schema = target_schema();
            let kept: Vec<_> = schema
                .attributes()
                .iter()
                .filter(|a| a.name != "description")
                .map(|a| (a.name.as_str(), a.ty))
                .collect();
            w.set_target(vada_common::Schema::new("property", kept).unwrap());
        }
        Edit::Reselect { nth } => {
            let mut ids: Vec<String> = w.kb().mappings().map(|m| m.id.clone()).collect();
            ids.sort();
            let current = w.kb().selected_mapping().map(str::to_string);
            let Some(other) = ids.into_iter().cycle().skip(*nth).take(8).find(|id| Some(id) != current.as_ref())
            else {
                return;
            };
            w.kb_mut().select_mapping(&other).expect("a candidate");
        }
    }
}

/// The result rows, with a price, whose values of `attrs` no row of the
/// selected mapping's output has together: rows repair or fusion rewrote
/// there.
fn rewritten_rows(w: &Wrangler, attrs: &[&str]) -> Vec<usize> {
    let (Some(result), Some(id)) = (w.result(), w.kb().selected_mapping()) else {
        return Vec::new();
    };
    let mapping = w.kb().get_mapping(id).expect("the selected mapping");
    let raw = execute_mapping(&ExecuteConfig::default(), mapping, w.kb()).expect("it executes");
    let key = |rel: &vada_common::Relation, t: &Tuple| -> Vec<Value> {
        attrs.iter().map(|a| t[rel.schema().require(a).unwrap()].clone()).collect()
    };
    let raw_keys: std::collections::HashSet<_> = raw.iter().map(|t| key(&raw, t)).collect();
    let price = result.schema().require("price").unwrap();
    (0..result.len())
        .filter(|&row| {
            let t = &result.tuples()[row];
            !t[price].is_null() && !raw_keys.contains(&key(result, t))
        })
        .collect()
}

/// Register the scenario's listing and deprivation sources and the target.
fn register(mut w: Wrangler, scenario: &Scenario) -> Wrangler {
    w.add_source(scenario.rightmove.clone());
    w.add_source(scenario.onthemarket.clone());
    w.add_source(scenario.deprivation.clone());
    w.set_target(target_schema());
    w
}

fn wrangler(scenario: &Scenario) -> Wrangler {
    register(Wrangler::new(), scenario)
}

/// The pair the differential tests compare: `[in memory, durable]`, the
/// second writing its WAL under `dir` from before its first mutation.
fn pair(scenario: &Scenario, dir: &TempDir) -> [Wrangler; 2] {
    let mut durable = Wrangler::new();
    durable.kb_mut().persist_to(dir).expect("the WAL directory initialises");
    [wrangler(scenario), register(durable, scenario)]
}

/// Both wranglers observe identically, and the durable one's log is still
/// attached and healthy — a detached log would make the comparison vacuous.
fn assert_identical([memory, durable]: &[Wrangler; 2], stage: &str) {
    assert!(durable.kb().durable_dir().is_some(), "the WAL was detached {stage}");
    if let Err(e) = durable.kb().storage_health() {
        panic!("the WAL failed {stage}: {e}");
    }
    assert_eq!(observe(durable), observe(memory), "the durable wrangler diverged {stage}");
}

#[test]
fn randomized_edit_scripts_identical_across_modes() {
    for seed in [3u64, 17, 42] {
        // seed-logged so a failing case is reproducible from the test output
        println!("randomized_edit_scripts_identical_across_modes: seed {seed}");
        let scenario = Scenario::generate(ScenarioConfig {
            universe: UniverseConfig { properties: 60, seed: 7 + seed },
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let script = random_script(&mut rng, 5);

        let dir = TempDir::new(&format!("edit-script-{seed}"));
        let mut pair = pair(&scenario, &dir);

        for w in &mut pair {
            w.run().expect("bootstrap succeeds");
        }
        assert_identical(&pair, &format!("at bootstrap (seed {seed})"));

        // replay the edit script, comparing after every orchestration run
        for (step, batch) in script.iter().enumerate() {
            for w in &mut pair {
                for edit in batch {
                    apply_edit(w, &scenario, edit);
                }
                w.run().expect("edit step succeeds");
            }
            assert_identical(&pair, &format!("after step {step} (seed {seed}, {batch:?})"));
        }
    }
}

/// The work a kept transducer and its fresh twins tallied under one
/// counter, summed over runs: `(kept, fresh, runs)`.
type Work = Rc<RefCell<BTreeMap<String, (u64, u64, usize)>>>;

/// A transducer checked on every run against a fresh twin: the twin runs
/// on a copy of the knowledge base first, then the kept one on the base,
/// and the two must report the same outcome and leave the same result and
/// the same published clusters. `counter` is the work tally they are
/// compared by.
struct Checked<T> {
    kept: T,
    fresh: fn() -> T,
    counter: &'static str,
    work: Work,
}

impl<T: Transducer> Transducer for Checked<T> {
    fn name(&self) -> &str {
        self.kept.name()
    }

    fn activity(&self) -> Activity {
        self.kept.activity()
    }

    fn input_dependency(&self) -> &str {
        self.kept.input_dependency()
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        self.kept.input_aspects()
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> vada_common::Result<RunOutcome> {
        let mut copy = kb.clone();
        copy.set_obs(Obs::enabled());
        let want = (self.fresh)().run(&mut copy);
        let before = kb.obs().get(self.counter);
        let got = self.kept.run(kb);
        let outcome = |r: &vada_common::Result<RunOutcome>| {
            r.as_ref().map(|o| (o.summary.clone(), o.writes)).map_err(|e| e.to_string())
        };
        let name = self.kept.name().to_string();
        assert_eq!(outcome(&got), outcome(&want), "{name} diverged from a fresh run");
        let target = kb.target_schema().expect("a result implies a target").name.clone();
        for rel in [target.as_str(), CLUSTERS_REL] {
            let rows = |kb: &KnowledgeBase| kb.relation(rel).ok().map(|r| r.tuples().to_vec());
            assert_eq!(rows(kb), rows(&copy), "{name} left `{rel}` unlike a fresh run");
        }
        let mut work = self.work.borrow_mut();
        let tally = work.entry(name).or_default();
        tally.0 += kb.obs().get(self.counter) - before;
        tally.1 += copy.obs().get(self.counter);
        tally.2 += 1;
        got
    }
}

/// Every mapping quality fact, in write order, with its value's bits.
fn mapping_quality_facts(kb: &KnowledgeBase) -> Vec<(String, String, u64)> {
    kb.quality_facts()
        .iter()
        .filter(|q| q.entity_kind == "mapping")
        .map(|q| (q.entity.clone(), q.criterion.clone(), q.value.to_bits()))
        .collect()
}

/// The mapping selection picks over `kb`'s quality facts, on a copy.
fn selected_over(kb: &KnowledgeBase) -> Option<String> {
    let mut copy = kb.clone();
    MappingSelection.run(&mut copy).expect("selection runs");
    copy.selected_mapping().map(str::to_string)
}

/// Mapping quality checked on every run against a fresh instance with a
/// private store: the fresh one runs on a copy of the knowledge base first,
/// then the kept one, which follows its parts' edits, on the base. Both
/// must report the same outcome and write the same mapping quality facts —
/// in the same order, to the bit — and selection must pick the same mapping
/// over either.
struct QualityChecked(Box<dyn Transducer>);

impl Transducer for QualityChecked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn activity(&self) -> Activity {
        self.0.activity()
    }

    fn input_dependency(&self) -> &str {
        self.0.input_dependency()
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        self.0.input_aspects()
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> vada_common::Result<RunOutcome> {
        let mut copy = kb.clone();
        let want = MappingQuality::default().run(&mut copy);
        let got = self.0.run(kb);
        let outcome = |r: &vada_common::Result<RunOutcome>| {
            r.as_ref().map(|o| (o.summary.clone(), o.writes)).map_err(|e| e.to_string())
        };
        assert_eq!(outcome(&got), outcome(&want), "mapping quality diverged from a fresh run");
        assert_eq!(mapping_quality_facts(kb), mapping_quality_facts(&copy));
        assert_eq!(selected_over(kb), selected_over(&copy), "selection diverged");
        got
    }
}

/// The default fleet with result repair and duplicate detection checked
/// against fresh twins, mapping quality against a fresh instance, and a
/// registry attached for their tallies.
fn checked(mut w: Wrangler, work: &Work) -> Wrangler {
    let fleet = default_transducers()
        .into_iter()
        .map(|t| -> Box<dyn Transducer> {
            match t.name() {
                "mapping_quality" => Box::new(QualityChecked(t)),
                "result_repair" => Box::new(Checked {
                    kept: ResultRepair::default(),
                    fresh: ResultRepair::default,
                    counter: obs_key::REPAIR_ROWS_CHASED,
                    work: work.clone(),
                }),
                "duplicate_detection" => Box::new(Checked {
                    kept: DuplicateDetection::default(),
                    fresh: DuplicateDetection::default,
                    counter: obs_key::FUSION_BLOCKS_SCORED,
                    work: work.clone(),
                }),
                _ => t,
            }
        })
        .collect();
    let kb = std::mem::take(w.kb_mut());
    w = Wrangler::with_transducers(fleet);
    *w.kb_mut() = kb;
    w.set_obs(Obs::enabled());
    w
}

/// After every step of the seeded edit scripts — source edits, context,
/// matches, user context and annotation rounds — in memory and durable,
/// every run of result repair and duplicate detection leaves what fresh
/// instances leave on the same base, while chasing fewer rows and scoring
/// fewer blocks than they do over the script; and every run of mapping
/// quality writes the facts a fresh instance writes, selecting the same
/// mapping, while following some part versions' tallies from their parents.
#[test]
fn repair_and_detection_match_fresh_runs_after_every_step() {
    for seed in [3u64, 17, 42] {
        // seed-logged so a failing case is reproducible from the test output
        println!("repair_and_detection_match_fresh_runs_after_every_step: seed {seed}");
        let scenario = Scenario::generate(ScenarioConfig {
            universe: UniverseConfig { properties: 60, seed: 7 + seed },
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script = random_script(&mut rng, 5);
        // repair needs the reference, and every script annotates
        if !script.iter().flatten().any(|e| matches!(e, Edit::AddContext)) {
            script.insert(0, vec![Edit::AddContext]);
        }
        script.push(vec![Edit::Feedback { row: 7 }, Edit::Feedback { row: 19 }]);

        let dir = TempDir::new(&format!("checked-{seed}"));
        let works: [Work; 2] = Default::default();
        let [memory, durable] = pair(&scenario, &dir);
        let mut pair = [checked(memory, &works[0]), checked(durable, &works[1])];
        for w in &mut pair {
            w.run().expect("bootstrap succeeds");
        }
        assert_identical(&pair, &format!("at bootstrap (seed {seed})"));
        for (step, batch) in script.iter().enumerate() {
            for w in &mut pair {
                for edit in batch {
                    apply_edit(w, &scenario, edit);
                }
                w.run().expect("edit step succeeds");
            }
            assert_identical(&pair, &format!("after step {step} (seed {seed}, {batch:?})"));
        }
        for w in &pair {
            let followed = w.obs().get(obs_key::QUALITY_METRICS_FOLLOWED);
            assert!(followed > 0, "no tally followed an edit (seed {seed})");
        }
        for work in &works {
            let work = work.borrow();
            for name in ["result_repair", "duplicate_detection"] {
                let (kept, fresh, runs) = work[name];
                assert!(runs > 0, "{name} never ran (seed {seed})");
                assert!(
                    kept < fresh,
                    "{name} did a fresh run's work: {kept} of {fresh} (seed {seed})"
                );
            }
        }
    }
}

/// Repair, fusion and feedback edit the result row by row, and so does a
/// mapping execution that writes a diff: in a durable base, every WAL
/// record their steps append names the result only row-level, and none
/// carries a relation payload.
#[test]
fn repair_fusion_and_vetoes_log_row_edits_without_a_relation_payload() {
    let scenario = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 60, seed: 9 },
        ..Default::default()
    });
    let dir = TempDir::new("row-edit-log");
    let mut w = Wrangler::new();
    w.kb_mut().persist_to(&dir).expect("the WAL directory initialises");
    let mut w = register(w, &scenario);
    w.run().expect("bootstrap succeeds");
    // the first edit's execution writes a diff: no reference yet, so no
    // CFD that could write the postcode
    for batch in [
        vec![Edit::UpdateRow { source: "rightmove", nth: 8, tail: false }],
        vec![Edit::AddContext],
        vec![Edit::UpdateRow { source: "rightmove", nth: 5, tail: false }],
        vec![Edit::Feedback { row: 3 }, Edit::Feedback { row: 11 }],
    ] {
        for edit in &batch {
            apply_edit(&mut w, &scenario, edit);
        }
        w.run().expect("edit step succeeds");
    }
    let target = w.kb().target_schema().unwrap().name.clone();
    let last = w.kb().version();
    // an execution that wrote a diff names the blocks it restored
    let steps: Vec<(String, u64, u64)> = w
        .trace()
        .entries()
        .iter()
        .map(|e| {
            let name = match e.transducer.as_str() {
                "mapping_execution" if e.summary.contains("restored") => "diffed_execution",
                name => name,
            };
            (name.to_string(), e.kb_version_before, e.kb_version_after)
        })
        .collect();
    drop(w);
    let (_, records) = Wal::open(dir.join(WAL_FILE)).expect("the log reopens");
    assert_eq!(records.len() as u64, last, "the log holds every event: no checkpoint yet");

    let mut result_edits: BTreeMap<&str, Vec<&'static str>> = BTreeMap::new();
    for (name, before, after) in &steps {
        let name = match name.as_str() {
            n @ ("result_repair" | "data_fusion" | "feedback_repair" | "diffed_execution") => n,
            _ => continue,
        };
        for r in records.iter().filter(|r| (before + 1..=*after).contains(&r.event.seq)) {
            assert!(r.payload.is_none(), "{name} logged a relation payload: {:?}", r.event);
            if r.event.change.relation() == Some(target.as_str()) {
                assert!(r.event.change.is_row_level(), "{name} logged {:?}", r.event.change);
                let shape = match r.event.change {
                    DeltaChange::RowsRemoved { .. } => "removed",
                    DeltaChange::RowsInserted { .. } => "inserted",
                    _ => "rewritten",
                };
                result_edits.entry(name).or_default().push(shape);
            }
        }
    }
    for name in ["result_repair", "data_fusion", "feedback_repair", "diffed_execution"] {
        assert!(
            result_edits.contains_key(name),
            "{name} never edited the result: {result_edits:?}"
        );
    }
    assert!(result_edits["data_fusion"].contains(&"removed"), "{result_edits:?}");
    assert!(result_edits["diffed_execution"].contains(&"inserted"), "{result_edits:?}");
}

/// Whether `edit` only edits a source's rows: appends, removals, rewrites
/// at the tail or mid-relation, copies and null postcodes.
fn is_source_row_edit(edit: &Edit) -> bool {
    matches!(
        edit,
        Edit::GrowSource { .. }
            | Edit::RemoveRows { .. }
            | Edit::UpdateRow { .. }
            | Edit::CopyRow { .. }
            | Edit::NullPostcode { .. }
    )
}

/// Mapping execution as it was before it wrote diffs, kept as the oracle:
/// the selected mapping executed from scratch, the vetoes applied, the
/// whole result put.
struct WholePut(MappingExecution);

impl Transducer for WholePut {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn activity(&self) -> Activity {
        self.0.activity()
    }

    fn input_dependency(&self) -> &str {
        self.0.input_dependency()
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        self.0.input_aspects()
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> vada_common::Result<RunOutcome> {
        let id = kb.selected_mapping().expect("a selection").to_string();
        let mapping = kb.get_mapping(&id).expect("the selected mapping").clone();
        let mut result = execute_mapping(&ExecuteConfig::default(), &mapping, kb)?;
        apply_vetoes(&mut result, kb.vetoes());
        let rows = result.len();
        kb.put_result(result);
        Ok(RunOutcome::new(format!("materialised {rows} rows from {id}"), rows))
    }
}

/// A seeded script over every edit the diff path must survive or refuse:
/// appends, removals, tail and mid-relation rewrites, copies that make and
/// split clusters, null postcodes, annotations that add vetoes, a
/// data-context edit, a relation-level write of the result, a
/// re-selection, a CFD added by hand, a reference whose CFD writes the
/// postcode, and a narrowed target. The address reference comes first, so repair and fusion run
/// throughout, with no CFD writing the postcode until the second reference
/// arrives; the rarer edits are placed, the rest drawn.
fn diff_script(rng: &mut StdRng, steps: usize) -> Vec<Vec<Edit>> {
    let source = |rng: &mut StdRng| if rng.gen_bool(0.7) { "rightmove" } else { "onthemarket" };
    let mut script = vec![vec![Edit::AddAmbiguousContext]];
    for step in 0..steps {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1usize..3) {
            let (src, nth) = (source(rng), rng.gen_range(0u64..1000));
            let edit = match rng.gen_range(0usize..16) {
                0..=2 => Edit::GrowSource {
                    source: src,
                    rows: rng.gen_range(1usize..4),
                    fresh_postcode: rng.gen_bool(0.3),
                },
                3..=5 => Edit::RemoveRows { source: src, nth, count: rng.gen_range(1usize..3) },
                6..=8 => Edit::UpdateRow { source: src, nth, tail: rng.gen_bool(0.4) },
                9..=11 => Edit::CopyRow { source: src, nth },
                12 | 13 => Edit::NullPostcode { source: src, nth, tail: rng.gen_bool(0.3) },
                // an annotation round marks several rows, so some are fused
                // or repaired ones
                14 => {
                    batch.extend((1..6).map(|k| Edit::Feedback { row: nth + 37 * k }));
                    Edit::Feedback { row: nth }
                }
                _ => Edit::FeedbackRow { row: nth },
            };
            batch.push(edit);
        }
        // alone, so no source edit masks the edit; the postcode reference
        // last, since no diff runs after it
        match step {
            2 => batch = vec![Edit::RenameContextStreets { nth: rng.gen_range(0u64..1000) }],
            4 => batch = vec![Edit::ReverseResult],
            6 => batch = vec![Edit::Reselect { nth: rng.gen_range(0usize..8) }],
            8 => batch = vec![Edit::AddCfd],
            10 => batch = vec![Edit::NarrowTarget],
            // fewer annotations than mapping evaluation judges on, so the
            // mapping stays and the next source edit may diff
            11 => batch = (0..2).map(|nth| Edit::FeedbackRepaired { nth }).collect(),
            12 => {
                let grow = Edit::GrowSource { source: "rightmove", rows: 1, fresh_postcode: false };
                batch = vec![grow]
            }
            13 => batch.push(Edit::PostcodeReference),
            _ => {}
        }
        script.push(batch);
    }
    script
}

/// After every step of seeded edit scripts, the result the default fleet
/// maintains — mapping execution writing a row diff of its own output,
/// repair, detection and fusion following it — is byte-identical to the
/// one a fleet whose execution always puts the whole result leaves, in
/// memory and in a durable base; and the default fleet takes both the
/// diff and the whole put, and writes source row edits as a diff — an
/// engine re-run of a part included — while nothing else it checks moved.
#[test]
fn diffed_execution_matches_whole_puts_after_every_step() {
    // diffed steps whose parts the store refreshed by an engine run
    let mut reruns = 0;
    for seed in [1u64, 4, 9, 16] {
        // seed-logged so a failing case is reproducible from the test output
        println!("diffed_execution_matches_whole_puts_after_every_step: seed {seed}");
        // typos common enough that repair and fusion rewrite many rows, so a
        // veto keyed on a rewritten row misses its raw rows
        let errors = ErrorModel { typo_rate: 0.3, ..ErrorModel::realistic() };
        let scenario = Scenario::generate(ScenarioConfig {
            universe: UniverseConfig { properties: 120, seed: 31 + seed },
            duplicate_rate: 0.3,
            rightmove_errors: errors,
            onthemarket_errors: errors,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let script = diff_script(&mut rng, 15);
        let dir = TempDir::new(&format!("diffed-{seed}"));
        let mut pair = pair(&scenario, &dir);
        for w in &mut pair {
            w.set_obs(Obs::enabled());
        }
        let oracle: Vec<Box<dyn Transducer>> = default_transducers()
            .into_iter()
            .map(|t| -> Box<dyn Transducer> {
                match t.name() {
                    "mapping_execution" => Box::new(WholePut(MappingExecution::default())),
                    _ => t,
                }
            })
            .collect();
        let mut oracle = register(Wrangler::with_transducers(oracle), &scenario);
        let result = |w: &Wrangler| w.result().map(csv::write_relation);
        let step = |pair: &mut [Wrangler; 2], oracle: &mut Wrangler, batch: &[Edit], stage: &str| {
            for w in pair.iter_mut().chain([&mut *oracle]) {
                for edit in batch {
                    apply_edit(w, &scenario, edit);
                }
                w.run().expect("the step succeeds");
            }
            assert_identical(pair, stage);
            assert_eq!(result(&pair[0]), result(oracle), "diverged from whole puts {stage}");
        };
        step(&mut pair, &mut oracle, &[], &format!("at bootstrap (seed {seed})"));
        let writes = |w: &Wrangler| {
            (w.obs().get(obs_key::MAP_RESULT_DIFFED), w.obs().get(obs_key::MAP_RESULT_WHOLE))
        };
        // the selected mapping's structure: re-scoring after a source edit
        // may select another
        let selected = |w: &Wrangler| {
            let m = w.kb().selected_mapping().and_then(|id| w.kb().get_mapping(id))?;
            Some((m.rules.clone(), m.sources.clone()))
        };
        // whether execution's last write is still what it checks against:
        // it wrote in the last step, which added no annotation (a veto), and
        // no CFD writes the postcode yet
        let (mut current, mut postcode_cfd, mut checked) = (false, false, 0);
        for (n, batch) in script.iter().enumerate() {
            let stage = format!("after step {n} (seed {seed}, {batch:?})");
            let (before, was_selected) = (pair.each_ref().map(writes), selected(&pair[0]));
            let runs = pair[0].obs().get(obs_key::MAP_FULL);
            step(&mut pair, &mut oracle, batch, &stage);
            // source row edits alone that keep the selection are then
            // written as a diff, whether the store refreshed the parts by a
            // session step or an engine re-run
            let kept_selection = selected(&pair[0]) == was_selected;
            if current && kept_selection && batch.iter().all(is_source_row_edit) {
                checked += 1;
                reruns += usize::from(pair[0].obs().get(obs_key::MAP_FULL) > runs);
                for (w, (diffed, whole)) in pair.iter().zip(before) {
                    assert_eq!(writes(w), (diffed + 1, whole), "not written as a diff {stage}");
                }
            }
            let annotated = batch.iter().any(|e| {
                matches!(
                    e,
                    Edit::Feedback { .. } | Edit::FeedbackRow { .. } | Edit::FeedbackRepaired { .. }
                )
            });
            postcode_cfd |= batch.iter().any(|e| matches!(e, Edit::PostcodeReference));
            current = writes(&pair[0]) != before[0] && !annotated && !postcode_cfd;
        }
        assert!(checked > 0, "seed {seed}: no step of source row edits was checked");
        for w in &pair {
            let (diffed, whole) =
                (w.obs().get(obs_key::MAP_RESULT_DIFFED), w.obs().get(obs_key::MAP_RESULT_WHOLE));
            assert!(diffed > 0 && whole > 1, "seed {seed}: {diffed} diffed, {whole} whole puts");
        }
    }
    assert!(reruns > 0, "no diffed step followed an engine re-run");
}

/// Mapping ids are positions in a generation pass's output, so the same
/// wrangle run twice in one process gives the same trace (step summaries
/// name mapping ids) and the same mapping ids in the knowledge base,
/// compared raw — no matter how many wrangles ran before.
#[test]
fn mapping_ids_do_not_depend_on_earlier_wrangles() {
    let scenario = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 40, seed: 5 },
        ..Default::default()
    });
    let wrangle = || {
        let mut w = wrangler(&scenario);
        w.run().expect("bootstrap succeeds");
        let ids: Vec<String> = w.kb().mappings().map(|m| m.id.clone()).collect();
        let selected = w.kb().selected_mapping().map(String::from);
        (observe(&w), ids, selected)
    };
    let first = wrangle();
    assert!(first.1.len() > 1, "the scenario generates several candidates");
    assert!(first.2.is_some(), "the bootstrap selects a mapping");
    assert_eq!(wrangle(), first, "a second wrangle in the process moved the mapping ids");
}

/// Delete-then-reinsert: a removed row that comes back lands at the *end*
/// of the relation, so the scratch row order differs from the original —
/// both wranglers must agree on the reordered output at every step.
#[test]
fn delete_then_reinsert_identical_across_modes() {
    let scenario = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 40, seed: 11 },
        ..Default::default()
    });
    let dir = TempDir::new("reinsert");
    let mut pair = pair(&scenario, &dir);
    for w in &mut pair {
        w.run().expect("bootstrap succeeds");
    }
    assert_identical(&pair, "at bootstrap");

    // remove a mid-relation row, run, then push the same row back and run
    let removed_rows: Vec<Tuple> = {
        let rel = pair[0].kb().relation("rightmove").unwrap();
        vec![rel.tuples()[rel.len() / 2].clone()]
    };
    for w in &mut pair {
        let rel = w.kb().relation("rightmove").unwrap();
        let row = rel.len() / 2;
        w.remove_source_rows("rightmove", &[row]).unwrap();
        w.run().expect("post-removal run succeeds");
    }
    assert_identical(&pair, "after removal");
    for w in &mut pair {
        let mut rel = w.kb().relation("rightmove").unwrap().clone();
        for t in &removed_rows {
            rel.push(t.clone()).unwrap();
        }
        w.add_source(rel);
        w.run().expect("post-reinsert run succeeds");
    }
    assert_identical(&pair, "after reinsert");
}

/// Delete-everything: draining a source to zero rows (and wrangling over
/// the emptiness) must stay byte-identical across wranglers, and so must
/// the recovery when data comes back.
#[test]
fn delete_everything_identical_across_modes() {
    let scenario = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 30, seed: 29 },
        ..Default::default()
    });
    let dir = TempDir::new("drain");
    let mut pair = pair(&scenario, &dir);
    for w in &mut pair {
        w.run().expect("bootstrap succeeds");
    }
    assert_identical(&pair, "at bootstrap");

    for w in &mut pair {
        let len = w.kb().relation("onthemarket").unwrap().len();
        let rows: Vec<usize> = (0..len).collect();
        w.remove_source_rows("onthemarket", &rows).unwrap();
        w.run().expect("run over a drained source succeeds");
    }
    assert_identical(&pair, "after draining onthemarket");

    for w in &mut pair {
        let mut rel = w.kb().relation("onthemarket").unwrap().clone();
        assert!(rel.is_empty());
        for t in scenario.onthemarket.tuples().iter().take(5) {
            rel.push(t.clone()).unwrap();
        }
        w.add_source(rel);
        w.run().expect("recovery run succeeds");
    }
    assert_identical(&pair, "after recovery");
}

/// The result store against the scratch path: every generated candidate
/// mapping — the unions included, which the store assembles from their
/// per-source parts instead of running — executed through one long-lived
/// [`vada_map::ResultStore`], must equal a fresh `execute_mapping` of the
/// whole mapping on the same knowledge base — same rows, same order — after
/// every batch of a randomized edit script, with no-op re-executions
/// interleaved (a second look at an unchanged base, and a look after
/// metadata-only churn), which the store must answer from the stored
/// result.
#[test]
fn store_backed_execution_matches_scratch_with_noop_reexecutions() {
    use vada_common::obs::{key, Obs};
    use vada_map::ResultStore;

    for seed in [5u64, 23, 71] {
        // seed-logged so a failing case is reproducible from the test output
        println!("store_backed_execution_matches_scratch_with_noop_reexecutions: seed {seed}");
        let scenario = Scenario::generate(ScenarioConfig {
            universe: UniverseConfig { properties: 60, seed: 13 + seed },
            ..Default::default()
        });
        // the wrangler only bootstraps the candidates and carries the edit
        // script; it never runs again, so every execution below is ours
        let mut w = wrangler(&scenario);
        w.run().expect("bootstrap succeeds");
        // a fresh registry, so its `map.execute.*` tallies are ours alone
        w.set_obs(Obs::enabled());
        let mappings: Vec<_> = w.kb().mappings().cloned().collect();
        assert!(mappings.len() >= 2, "seed {seed}: several candidate structures");
        let unions = mappings.iter().filter(|m| !m.parts.is_empty()).count();
        assert!(unions > 0, "seed {seed}: two listing sources make unions");
        let mut rng = StdRng::seed_from_u64(seed);
        let script = random_script(&mut rng, 8);

        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        let mut compare = |w: &Wrangler, stage: &str, expect_reuse: bool| {
            let reused_before = w.obs().get(key::MAP_REUSED);
            for mapping in &mappings {
                let scratch = execute_mapping(&cfg, mapping, w.kb());
                match (store.execute(&cfg, mapping, w.kb()), scratch) {
                    (Ok(got), Ok(scratch)) => {
                        assert_eq!(got.schema(), scratch.schema());
                        assert_eq!(
                            got.tuples(),
                            scratch.tuples(),
                            "seed {seed}: the store diverged on {} {stage}",
                            mapping.id
                        );
                    }
                    (Err(got), Err(scratch)) => assert_eq!(got.to_string(), scratch.to_string()),
                    (got, scratch) => panic!(
                        "seed {seed}: on {} {stage}: store {:?} vs scratch {:?}",
                        mapping.id,
                        got.map(|r| r.len()),
                        scratch.map(|r| r.len())
                    ),
                }
            }
            if expect_reuse {
                assert_eq!(
                    w.obs().get(key::MAP_REUSED) - reused_before,
                    mappings.len() as u64,
                    "seed {seed}: the store re-materialised an unchanged mapping {stage}"
                );
            }
        };

        compare(&w, "at bootstrap", false);
        for (step, batch) in script.iter().enumerate() {
            for edit in batch {
                apply_edit(&mut w, &scenario, edit);
            }
            compare(&w, &format!("after step {step} ({batch:?})"), false);
            // a second look at the unchanged base
            compare(&w, &format!("re-executing step {step}"), true);
            // metadata-only churn names no source relation
            w.kb_mut().clear_quality("mapping");
            w.set_user_context(Vec::new());
            w.kb_mut().stage_document(format!("noop_{step}"), "a,b\n1,2\n");
            compare(&w, &format!("after metadata churn {step}"), true);
        }
        // every union materialisation was an assembly from its parts
        assert!(w.obs().get(key::MAP_ASSEMBLED) >= unions as u64, "seed {seed}");
    }
}

/// A failing refresh must surface as an engine error, leave the journal
/// untouched and drop the stored entry, and the next execution must
/// succeed.
#[test]
fn failed_refresh_surfaces_the_error_and_the_next_execution_recovers() {
    use vada_common::obs::{key, Obs};
    use vada_common::{Relation, Schema};
    use vada_kb::{KnowledgeBase, MappingDef};
    use vada_map::ResultStore;

    let mut kb = KnowledgeBase::new();
    kb.set_obs(Obs::enabled());
    let mut src = Relation::empty(Schema::all_str("s", &["a"]));
    src.push(Tuple::new(vec![Value::Int(1)])).unwrap();
    kb.register_source(src.clone());
    kb.register_target_schema(Schema::all_str("t", &["a"]));
    let mapping = MappingDef {
        id: "m".into(),
        target: "t".into(),
        rules: "t(Y) :- s(X), Y = X + 1.".into(),
        sources: vec!["s".into()],
        matches_used: vec![],
        parts: vec![],
    };
    let cfg = ExecuteConfig::default();
    let mut store = ResultStore::default();
    store.execute(&cfg, &mapping, &kb).unwrap();
    let journal_before = kb.journal().len();

    // poison row: the re-materialisation errors mid-way
    src.push(Tuple::new(vec![Value::str("boom")])).unwrap();
    kb.register_source(src);
    let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
    assert_eq!(err.kind(), "eval", "{err}");
    // reading the journal never mutates it: the failed run added exactly
    // the one append event, nothing was rolled back or duplicated
    assert_eq!(kb.journal().len(), journal_before + 1);
    // the pre-edit result is gone, not handed back as a stale hit
    assert!(store.execute(&cfg, &mapping, &kb).is_err());
    assert_eq!(kb.obs().get(key::MAP_REUSED), 0);

    // drop the poison row (a replacement) and the next run succeeds fully
    let mut fixed = Relation::empty(Schema::all_str("s", &["a"]));
    fixed.push(Tuple::new(vec![Value::Int(1)])).unwrap();
    fixed.push(Tuple::new(vec![Value::Int(2)])).unwrap();
    kb.register_source(fixed);
    let rel = store.execute(&cfg, &mapping, &kb).unwrap();
    assert_eq!(rel.len(), 2);
    let scratch = vada_map::execute_mapping(&cfg, &mapping, &kb).unwrap();
    assert_eq!(rel.tuples(), scratch.tuples());
}

/// The result store's incremental sessions against the scratch path, edit
/// by edit: every generated candidate, executed through one store, equals a
/// fresh `execute_mapping` after each of the row edits a session must get
/// right or refuse — a removed row whose copy follows it (the sessions
/// step), one whose copy lies past another row (the parts re-run), a
/// mid-relation rewrite (re-run, sessions dropped), and an append and a
/// removal on `deprivation`, the joined parts' second source.
#[test]
fn store_sessions_match_scratch_across_row_edits() {
    use vada_common::obs::{key, Obs};
    use vada_map::ResultStore;

    let scenario = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 60, seed: 31 },
        ..Default::default()
    });
    let mut w = wrangler(&scenario);
    w.run().expect("bootstrap succeeds");
    w.set_obs(Obs::enabled());
    let mappings: Vec<_> = w.kb().mappings().cloned().collect();
    let cfg = ExecuteConfig::default();
    let mut store = ResultStore::default();
    // executes every candidate and returns what the store spent on them:
    // `[full runs, session steps]` — a part's session is started by its
    // first materialisation, and every later refresh of it is a step
    let mut compare = |w: &Wrangler, stage: &str| {
        let paths = || [key::MAP_FULL, key::MAP_INCREMENTAL].map(|k| w.obs().get(k));
        let before = paths();
        // a clone records into no registry
        let scratch_kb = w.kb().clone();
        for mapping in &mappings {
            let got = store.execute(&cfg, mapping, w.kb()).unwrap();
            let scratch = execute_mapping(&cfg, mapping, &scratch_kb).unwrap();
            assert_eq!(got.tuples(), scratch.tuples(), "{} {stage}", mapping.id);
        }
        let after = paths();
        [after[0] - before[0], after[1] - before[1]]
    };
    // a new listing row: one of the source's rows on a street of its own
    // (a cell every candidate keeps as it is, so row order shows)
    let row = |w: &Wrangler, tag: &str| {
        let rel = w.kb().relation("rightmove").unwrap();
        let street = rel.schema().require("street").unwrap();
        let template = rel.tuples()[tag.len() % rel.len()].clone();
        template.with_value(street, Value::str(format!("{tag} street")))
    };
    let append = |w: &mut Wrangler, source: &str, rows: Vec<Tuple>| {
        let mut rel = w.kb().relation(source).unwrap().clone();
        rel.extend(rows).unwrap();
        w.add_source(rel);
    };

    compare(&w, "at bootstrap");
    // the two parts that read `rightmove` step the sessions their first
    // materialisation at bootstrap started
    let n = w.kb().relation("rightmove").unwrap().len();
    let (x, y) = (row(&w, "twin"), row(&w, "solo"));
    append(&mut w, "rightmove", vec![x.clone(), x, y]);
    assert_eq!(compare(&w, "after the first append"), [0, 2]);
    // the first twin goes, the second takes its place: both step
    w.remove_source_rows("rightmove", &[n]).unwrap();
    assert_eq!(compare(&w, "after removing a row whose copy follows it"), [0, 2]);

    let n = w.kb().relation("rightmove").unwrap().len();
    let (u, v) = (row(&w, "u"), row(&w, "v"));
    append(&mut w, "rightmove", vec![u.clone(), v, u]);
    assert_eq!(compare(&w, "after the second append"), [0, 2]);
    // `u`'s copy lies past `v`: both parts re-run, their sessions dropped
    w.remove_source_rows("rightmove", &[n]).unwrap();
    assert_eq!(compare(&w, "after removing a row whose copy lies past another"), [2, 0]);

    let z = row(&w, "zed");
    append(&mut w, "rightmove", vec![z]);
    assert_eq!(compare(&w, "after the third append"), [0, 2]);
    let mid = row(&w, "mid");
    w.update_source_rows("rightmove", &[(0, mid)]).unwrap();
    assert_eq!(compare(&w, "after a mid-relation rewrite"), [2, 0]);

    // the joined `rightmove` part gets a session again; a `deprivation`
    // edit then steps it and starts the joined `onthemarket` part's
    let w_row = row(&w, "w");
    append(&mut w, "rightmove", vec![w_row]);
    assert_eq!(compare(&w, "after the fourth append"), [0, 2]);
    let dep = w.kb().relation("deprivation").unwrap();
    let covered = dep.tuples()[0].clone();
    let last = covered.arity() - 1;
    let recounted = covered.with_value(last, Value::str("12345"));
    append(&mut w, "deprivation", vec![recounted]);
    assert_eq!(compare(&w, "after a deprivation append"), [0, 2]);
    w.remove_source_rows("deprivation", &[0]).unwrap();
    assert_eq!(compare(&w, "after a deprivation removal"), [0, 2]);
}

/// A session step that fails surfaces the error a scratch run gives, leaves
/// no stale hit behind, and the next execution recovers.
#[test]
fn a_failed_session_step_surfaces_the_error_and_the_next_execution_recovers() {
    use vada_common::obs::{key, Obs};
    use vada_common::{Relation, Schema};
    use vada_kb::{KnowledgeBase, MappingDef};
    use vada_map::ResultStore;

    let mut kb = KnowledgeBase::new();
    kb.set_obs(Obs::enabled());
    let mut src = Relation::empty(Schema::all_str("s", &["a"]));
    src.push(Tuple::new(vec![Value::Int(1)])).unwrap();
    kb.register_source(src.clone());
    kb.register_target_schema(Schema::all_str("t", &["a"]));
    let mapping = MappingDef {
        id: "m".into(),
        target: "t".into(),
        rules: "t(Y) :- s(X), Y = X + 1.".into(),
        sources: vec!["s".into()],
        matches_used: vec![],
        parts: vec![],
    };
    let cfg = ExecuteConfig::default();
    let mut store = ResultStore::default();
    let compare = |store: &mut ResultStore, kb: &KnowledgeBase| {
        let got = store.execute(&cfg, &mapping, kb).map(|r| r.tuples().to_vec());
        let scratch = execute_mapping(&cfg, &mapping, &kb.clone()).map(|r| r.tuples().to_vec());
        match (got, scratch) {
            (Ok(got), Ok(scratch)) => assert_eq!(got, scratch),
            (Err(got), Err(scratch)) => assert_eq!(got.to_string(), scratch.to_string()),
            (got, scratch) => panic!("store {got:?} vs scratch {scratch:?}"),
        }
    };
    compare(&mut store, &kb);
    // the first append starts the session, the second steps it
    for n in [2, 3] {
        src.push(Tuple::new(vec![Value::Int(n)])).unwrap();
        kb.register_source(src.clone());
        compare(&mut store, &kb);
    }
    assert_eq!([key::MAP_FULL, key::MAP_INCREMENTAL].map(|k| kb.obs().get(k)), [1, 2]);

    // a row that breaks the arithmetic, mid-session
    src.push(Tuple::new(vec![Value::str("boom")])).unwrap();
    kb.register_source(src);
    let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
    assert_eq!(err.kind(), "eval", "{err}");
    compare(&mut store, &kb);
    assert_eq!(kb.obs().get(key::MAP_REUSED), 0, "no stale hit");

    kb.remove_rows("s", &[3]).unwrap();
    compare(&mut store, &kb);
    assert_eq!(store.execute(&cfg, &mapping, &kb).unwrap().len(), 3);
}
