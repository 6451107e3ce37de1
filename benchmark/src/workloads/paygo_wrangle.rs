//! `paygo_wrangle`: a whole from-scratch pay-as-you-go wrangle of the
//! real-estate scenario, as a user gets it by default. Each operation
//! starts from CSV text and walks the paper's four steps — bootstrap, data
//! context, feedback, user context — with a `run()` after each.

use std::collections::BTreeMap;
use std::time::Instant;

use vada::vada_common::csv::{read_relation, write_relation};
use vada::vada_common::{Relation, VadaError};
use vada::vada_extract::sources::target_schema;
use vada::vada_extract::{score_result, Oracle, Scenario};
use vada::vada_kb::{ContextKind, FeedbackRecord};
use vada::Wrangler;

use super::replay::{derive_layer_metrics, stage_replay};
use super::{paper_user_context, same, scenario, Bench};

/// Oracle annotations per wrangle. The paper's demonstration uses a few
/// dozen on a few hundred rows; at this size forty would make the
/// match-revision threshold of `mapping_evaluation` (an error rate of 0.3
/// over at least three annotations of one attribute) a coin flip per seed,
/// and the wrangle would cost 0.65 s or 1.05 s accordingly. Four hundred
/// put every attribute's error estimate on the same side for every seed.
const ANNOTATIONS: usize = 400;

/// The transducers of the default fleet, for `core.step.<t>.busy_s`.
pub const TRANSDUCERS: [&str; 14] = [
    "csv_ingestion",
    "feedback_repair",
    "mapping_evaluation",
    "schema_matching",
    "instance_matching",
    "mapping_generation",
    "cfd_learning",
    "source_profiling",
    "mapping_quality",
    "mapping_selection",
    "mapping_execution",
    "result_repair",
    "duplicate_detection",
    "data_fusion",
];

/// How the sources enter a wrangle.
pub enum Ingest<'a> {
    /// CSV text staged for the ingestion transducer.
    Csv(&'a [(String, String)]),
    /// The same relations registered directly, in the order the ingestion
    /// transducer registers staged documents (by name).
    Relations(&'a [&'a Relation]),
}

/// A wrangle in progress: the wrangler plus the wall-clock of the steps
/// taken so far. Everything between two steps is outside the timed region.
pub struct Wrangle {
    pub w: Wrangler,
    pub bootstrap_s: f64,
    pub total_s: f64,
}

impl Wrangle {
    /// Step 1: sources in, target schema, first `run()`.
    pub fn bootstrap(b: &mut Bench, ingest: Ingest<'_>) -> Result<Wrangle, VadaError> {
        let mut w = Wrangler::new();
        let start = Instant::now();
        let open = b.rec.enter("kb.register");
        match ingest {
            Ingest::Csv(docs) => {
                for (name, text) in docs {
                    w.kb_mut().stage_document(name.clone(), text.clone());
                }
            }
            Ingest::Relations(rels) => {
                for rel in rels {
                    w.add_source((*rel).clone());
                }
            }
        }
        w.set_target(target_schema());
        b.rec.exit(open);
        b.rec.time("core.run", || w.run())?;
        let bootstrap_s = start.elapsed().as_secs_f64();
        Ok(Wrangle {
            w,
            bootstrap_s,
            total_s: bootstrap_s,
        })
    }

    fn step(
        &mut self,
        b: &mut Bench,
        span: &str,
        edit: impl FnOnce(&mut Wrangler) -> Result<(), VadaError>,
    ) -> Result<(), VadaError> {
        let start = Instant::now();
        let open = b.rec.enter(span);
        let edited = edit(&mut self.w);
        b.rec.exit(open);
        edited?;
        b.rec.time("core.run", || self.w.run())?;
        self.total_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Step 2: the `address` reference data as data context.
    pub fn data_context(&mut self, b: &mut Bench, address: &Relation) -> Result<(), VadaError> {
        self.step(b, "kb.register", |w| {
            w.add_data_context(
                address.clone(),
                ContextKind::Reference,
                &[("street", "street"), ("postcode", "postcode")],
            )
        })
    }

    /// Step 3 (and the annotation operation of `edit_rewrangle`): feedback.
    pub fn feedback(
        &mut self,
        b: &mut Bench,
        records: Vec<FeedbackRecord>,
    ) -> Result<(), VadaError> {
        self.step(b, "kb.edit", |w| {
            w.add_feedback(records);
            Ok(())
        })
    }

    /// Step 4: the paper's user context; its `run()` is the AHP layer's.
    pub fn user_context(&mut self, b: &mut Bench) -> Result<(), VadaError> {
        let open = b.rec.enter("context.ahp");
        let out = self.step(b, "kb.edit", |w| {
            w.set_user_context(paper_user_context());
            Ok(())
        });
        b.rec.exit(open);
        out
    }

    pub fn result(&self) -> Result<&Relation, VadaError> {
        self.w
            .result()
            .ok_or_else(|| VadaError::Kb("no result materialised".into()))
    }
}

/// Sample the core-layer metrics of the wrangler's trace entries from
/// `from` on, against `run_s` seconds spent inside `run()`.
pub fn sample_core(b: &mut Bench, w: &Wrangler, from: usize, run_s: f64) {
    let entries = &w.trace().entries()[from..];
    let mut by: BTreeMap<&str, f64> = BTreeMap::new();
    for e in entries {
        *by.entry(e.transducer.as_str()).or_default() += e.duration.as_secs_f64();
    }
    let inside: f64 = by.values().sum();
    for t in TRANSDUCERS {
        b.sample(
            &format!("core.step.{t}.busy_s"),
            by.get(t).copied().unwrap_or(0.0),
        );
    }
    b.sample("core.steps.executed", entries.len() as f64);
    b.sample("core.orchestrate.self_s", (run_s - inside).max(0.0));
}

struct Setup {
    scenario: Scenario,
    docs: Vec<(String, String)>,
    /// Annotations of the step-2 result: the same for every wrangle, as the
    /// pipeline is deterministic in its input.
    annotations: Vec<FeedbackRecord>,
    /// Final result of the same four steps over directly registered
    /// relations.
    expected: Relation,
    bootstrap_f1: f64,
    final_f1: f64,
}

fn setup(b: &mut Bench) -> Result<Setup, VadaError> {
    let start = Instant::now();
    let scenario = scenario(&b.p, b.p.size(6000, 300), 0.05);
    b.sample("extract.generate.busy_s", start.elapsed().as_secs_f64());
    let sources = [
        &scenario.deprivation,
        &scenario.onthemarket,
        &scenario.rightmove,
    ];
    let docs: Vec<(String, String)> = sources
        .iter()
        .map(|r| (r.name().to_string(), write_relation(r)))
        .collect();

    // The reference wrangle registers what the documents say: CSV does not
    // keep the blanks around a cell (a typo can put one there), so the
    // relations are read back from the text rather than taken as generated.
    let decoded = sources
        .iter()
        .zip(&docs)
        .map(|(r, (_, text))| read_relation(text, r.schema().clone()))
        .collect::<Result<Vec<Relation>, _>>()?;
    let mut reference =
        Wrangle::bootstrap(b, Ingest::Relations(&decoded.iter().collect::<Vec<_>>()))?;
    let bootstrap_f1 = score_result(&scenario.universe, reference.result()?).f1;
    reference.data_context(b, &scenario.address)?;
    let annotations = Oracle::new(&scenario.universe).annotate(
        reference.result()?,
        b.p.size(ANNOTATIONS, 60),
        b.p.seed_for(3),
    );
    reference.feedback(b, annotations.clone())?;
    reference.user_context(b)?;
    let expected = reference.result()?.clone();
    let final_f1 = score_result(&scenario.universe, &expected).f1;
    Ok(Setup {
        scenario,
        docs,
        annotations,
        expected,
        bootstrap_f1,
        final_f1,
    })
}

fn operation(b: &mut Bench, s: &Setup) -> Result<Wrangle, VadaError> {
    let mut wr = Wrangle::bootstrap(b, Ingest::Csv(&s.docs))?;
    wr.data_context(b, &s.scenario.address)?;
    wr.feedback(b, s.annotations.clone())?;
    wr.user_context(b)?;
    Ok(wr)
}

pub fn run(b: &mut Bench) {
    let s = match b.setup(setup) {
        Ok(s) => s,
        Err(e) => {
            b.attempt();
            return b.fail(format!("set-up: {e}"));
        }
    };
    let mut expected = s.expected.clone();
    if b.p.inject_wrong_answer {
        expected.retain(|_| false);
    }
    b.set("core.result_f1", s.final_f1);
    b.check(s.final_f1 > s.bootstrap_f1, || {
        format!(
            "final F1 {} does not improve on bootstrap F1 {}",
            s.final_f1, s.bootstrap_f1
        )
    });

    // one warm-up wrangle, then the timed ones
    if let Err(e) = operation(b, &s) {
        b.attempt();
        return b.fail(format!("warm-up wrangle: {e}"));
    }
    b.drive("paygo_wrangle", 3, 1, 1, |b, _| {
        b.attempt();
        let iteration = b.rec.enter("iteration");
        let open = b.rec.enter("wrangle");
        let done = operation(b, &s);
        b.rec.exit(open);
        let wr = match done {
            Ok(wr) => wr,
            Err(e) => {
                b.rec.exit(iteration);
                b.fail(format!("wrangle: {e}"));
                return false;
            }
        };
        b.sample_op(wr.total_s);
        b.check(wr.w.trace().len() >= 4 && wr.result().is_ok_and(|r| same(r, &expected)), || {
            let diff = wr.result().ok().and_then(|r| r.iter().zip(expected.iter()).position(|(x, y)| x != y));
            format!(
                "CSV-staged wrangle ({} rows) differs from the wrangle of the same relations registered directly ({} rows), first at row {diff:?}",
                wr.result().map_or(0, Relation::len),
                expected.len()
            )
        });
        if b.tracing() {
            b.sample("core.bootstrap_s", wr.bootstrap_s);
            let run_s = b.rec.busy_by_trace("core.run").last().copied().unwrap_or(0.0);
            sample_core(b, &wr.w, 0, run_s);
            if let Err(e) = stage_replay(b, &wr.w, &s.docs) {
                b.fail(format!("stage replay: {e}"));
            }
        }
        b.rec.exit(iteration);
        true
    });
    if b.p.trace {
        derive_layer_metrics(b);
        b.trace_overhead();
    }
}
