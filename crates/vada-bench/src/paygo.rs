//! The pay-as-you-go driver: runs the four demonstration steps (paper §3)
//! and snapshots result quality after each, so experiments can quantify
//! "the more information is provided by the user, the better the outcome".

use std::collections::BTreeMap;

use vada_common::{Obs, Relation, Value};
use vada_core::{SchedulingPolicy, Wrangler};
use vada_extract::{score_result, Oracle, ResultQuality, Scenario, ScenarioConfig};
use vada_extract::sources::target_schema;
use vada_kb::{ContextKind, PairwiseStatement};

/// Which steps to run and with what knobs.
#[derive(Debug, Clone)]
pub struct PaygoConfig {
    /// Scenario generation parameters.
    pub scenario: ScenarioConfig,
    /// Run step 2 (data context)?
    pub with_data_context: bool,
    /// Feedback budget for step 3 (0 skips the step).
    pub feedback_budget: usize,
    /// Seed for the oracle's annotation sampling.
    pub feedback_seed: u64,
    /// User-context statements for step 4 (empty skips the step).
    pub user_context: Vec<PairwiseStatement>,
    /// Optional network-transducer policy override.
    pub policy: Option<fn() -> Box<dyn SchedulingPolicy>>,
    /// Observability registry to attach to the wrangler (`None` leaves
    /// observability disabled).
    pub obs: Option<Obs>,
}

impl Default for PaygoConfig {
    fn default() -> Self {
        PaygoConfig {
            scenario: ScenarioConfig::default(),
            with_data_context: true,
            feedback_budget: 40,
            feedback_seed: 11,
            user_context: paper_user_context(),
            policy: None,
            obs: None,
        }
    }
}

/// The paper's Fig 2(d) user context.
pub fn paper_user_context() -> Vec<PairwiseStatement> {
    vec![
        PairwiseStatement {
            more_important: "completeness(crimerank)".into(),
            less_important: "accuracy(property.type)".into(),
            strength: "very strongly".into(),
        },
        PairwiseStatement {
            more_important: "consistency(property)".into(),
            less_important: "completeness(property.bedrooms)".into(),
            strength: "strongly".into(),
        },
        PairwiseStatement {
            more_important: "completeness(property.street)".into(),
            less_important: "completeness(property.postcode)".into(),
            strength: "moderately".into(),
        },
    ]
}

/// Quality + orchestration snapshot after one step.
#[derive(Debug, Clone)]
pub struct StepSnapshot {
    /// Step label (`bootstrap`, `+data context`, ...).
    pub step: String,
    /// Result quality against the ground truth.
    pub quality: ResultQuality,
    /// Transducer executions during this step.
    pub executed: usize,
    /// Names of transducers that ran during this step, in order.
    pub ran: Vec<String>,
    /// The selected mapping at the end of the step.
    pub selected_mapping: Option<String>,
    /// Result rows.
    pub rows: usize,
}

/// The full pay-as-you-go run.
#[derive(Debug)]
pub struct PaygoOutcome {
    /// Snapshots per executed step.
    pub steps: Vec<StepSnapshot>,
    /// The wrangler (for further inspection: trace, KB, result).
    pub wrangler: Wrangler,
    /// The scenario (for ground-truth access).
    pub scenario: Scenario,
}

fn snapshot(
    label: &str,
    w: &Wrangler,
    scenario: &Scenario,
    executed: usize,
    trace_from: usize,
) -> StepSnapshot {
    let result = w.result().expect("every step materialises a result");
    let quality = score_result(&scenario.universe, result);
    let ran = w.trace().entries()[trace_from..]
        .iter()
        .map(|e| e.transducer.clone())
        .collect();
    StepSnapshot {
        step: label.to_string(),
        quality,
        executed,
        ran,
        selected_mapping: w.kb().selected_mapping().map(|s| s.to_string()),
        rows: result.len(),
    }
}

/// Run the pay-as-you-go sequence.
pub fn run_paygo(cfg: &PaygoConfig) -> PaygoOutcome {
    let scenario = Scenario::generate(cfg.scenario.clone());
    let mut w = match cfg.policy {
        Some(make) => Wrangler::with_policy(make()),
        None => Wrangler::new(),
    };
    if let Some(obs) = &cfg.obs {
        w.set_obs(obs.clone());
    }

    // --- step 1: automatic bootstrapping -------------------------------
    w.add_source(scenario.rightmove.clone());
    w.add_source(scenario.onthemarket.clone());
    w.add_source(scenario.deprivation.clone());
    w.set_target(target_schema());
    let mut steps = Vec::new();
    let mut mark = w.trace().len();
    let report = w.run().expect("bootstrap orchestration");
    steps.push(snapshot("bootstrap", &w, &scenario, report.executed, mark));

    // --- step 2: data context -------------------------------------------
    if cfg.with_data_context {
        mark = w.trace().len();
        w.add_data_context(
            scenario.address.clone(),
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .expect("address context binds to target attrs");
        let report = w.run().expect("data-context orchestration");
        steps.push(snapshot("+data context", &w, &scenario, report.executed, mark));
    }

    // --- step 3: feedback -------------------------------------------------
    if cfg.feedback_budget > 0 {
        mark = w.trace().len();
        let result = w.result().expect("result exists").clone();
        let mut oracle = Oracle::new(&scenario.universe);
        let records = oracle.annotate(&result, cfg.feedback_budget, cfg.feedback_seed);
        w.add_feedback(records);
        let report = w.run().expect("feedback orchestration");
        steps.push(snapshot(
            &format!("+feedback({})", cfg.feedback_budget),
            &w,
            &scenario,
            report.executed,
            mark,
        ));
    }

    // --- step 4: user context ----------------------------------------------
    if !cfg.user_context.is_empty() {
        mark = w.trace().len();
        w.set_user_context(cfg.user_context.clone());
        let report = w.run().expect("user-context orchestration");
        steps.push(snapshot("+user context", &w, &scenario, report.executed, mark));
    }

    PaygoOutcome { steps, wrangler: w, scenario }
}

/// Rows per source edit of [`run_edit_session`].
const EDIT_BATCH: usize = 16;
/// Cells annotated per feedback operation of [`run_edit_session`].
const EDIT_ANNOTATIONS: usize = 20;
/// Operations per cycle of [`run_edit_session`]: append, remove, update,
/// annotate.
pub const EDIT_CYCLE: usize = 4;

/// An interactive edit session: bootstrap on the first four fifths of
/// `rightmove` plus `onthemarket` and `deprivation`, add the `address`
/// data context, then `cycles` cycles of [`EDIT_CYCLE`] operations with a
/// `run()` after each — append the next 16 held-back `rightmove` rows,
/// remove 16 rows, reprice the last 16 rows, and annotate 20 result cells
/// through one [`Oracle`], whose record ids stay unique across the session.
/// Returns the transducer executions of each run: the bootstrap, the
/// data-context step, then one run per edit operation.
pub fn run_edit_session(scenario: ScenarioConfig, cycles: usize, obs: &Obs) -> Vec<usize> {
    let scenario = Scenario::generate(scenario);
    let keep = scenario.rightmove.len() * 4 / 5;
    let (bootstrap_rows, held_back) = scenario.rightmove.tuples().split_at(keep);
    assert!(held_back.len() >= cycles * EDIT_BATCH, "too few held-back rows for {cycles} appends");
    let schema = scenario.rightmove.schema().clone();
    let mut w = Wrangler::new();
    w.set_obs(obs.clone());
    w.add_source(Relation::from_tuples(schema, bootstrap_rows.to_vec()).expect("same schema"));
    w.add_source(scenario.onthemarket.clone());
    w.add_source(scenario.deprivation.clone());
    w.set_target(target_schema());
    let mut executed = vec![w.run().expect("bootstrap orchestration").executed];
    w.add_data_context(
        scenario.address.clone(),
        ContextKind::Reference,
        &[("street", "street"), ("postcode", "postcode")],
    )
    .expect("address context binds to target attrs");
    executed.push(w.run().expect("data-context orchestration").executed);

    let mut oracle = Oracle::new(&scenario.universe);
    for cycle in 0..cycles {
        for op in 0..EDIT_CYCLE {
            let current = w.kb().relation("rightmove").expect("rightmove is registered").clone();
            let len = current.len();
            match op {
                0 => {
                    let mut grown = current;
                    let batch = &held_back[cycle * EDIT_BATCH..(cycle + 1) * EDIT_BATCH];
                    grown.extend(batch.iter().cloned()).expect("same schema");
                    w.add_source(grown);
                }
                1 => {
                    let first = (cycle * 131) % (len - 2 * EDIT_BATCH);
                    let rows: Vec<usize> = (0..EDIT_BATCH).map(|k| first + 2 * k).collect();
                    w.remove_source_rows("rightmove", &rows).expect("the rows exist");
                }
                2 => {
                    let price = current.schema().require("price").expect("rightmove has a price");
                    let edits: Vec<_> = (len - EDIT_BATCH..len)
                        .zip(0..)
                        .map(|(row, k)| {
                            let repriced = Value::str((100_000 + 1_000 * cycle + k).to_string());
                            (row, current.tuples()[row].with_value(price, repriced))
                        })
                        .collect();
                    w.update_source_rows("rightmove", &edits).expect("the rows exist");
                }
                _ => {
                    let result = w.result().expect("every run materialises a result");
                    let records = oracle.annotate(result, EDIT_ANNOTATIONS, 10 + cycle as u64);
                    w.add_feedback(records);
                }
            }
            executed.push(w.run().expect("edit orchestration").executed);
        }
    }
    executed
}

/// Per-attribute metric rows for a snapshot (attr → (completeness,
/// accuracy)), used by the report renderers.
pub fn attr_table(s: &StepSnapshot) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    for (attr, c) in &s.quality.attr_completeness {
        let a = s.quality.attr_accuracy.get(attr).copied().unwrap_or(0.0);
        out.insert(attr.clone(), (*c, a));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_extract::UniverseConfig;

    fn small() -> PaygoConfig {
        PaygoConfig {
            scenario: ScenarioConfig {
                universe: UniverseConfig { properties: 80, seed: 42 },
                ..Default::default()
            },
            feedback_budget: 60,
            ..Default::default()
        }
    }

    #[test]
    fn paygo_runs_all_four_steps() {
        let outcome = run_paygo(&small());
        assert_eq!(outcome.steps.len(), 4);
        assert_eq!(outcome.steps[0].step, "bootstrap");
        assert!(outcome.steps.iter().all(|s| s.rows > 0));
        // step 2 must involve the context-gated transducers
        assert!(outcome.steps[1].ran.contains(&"cfd_learning".to_string()));
        assert!(outcome.steps[1].ran.contains(&"instance_matching".to_string()));
        // step 3 must involve the feedback transducers
        assert!(outcome.steps[2].ran.contains(&"feedback_repair".to_string()));
    }

    #[test]
    fn quality_is_pay_as_you_go() {
        let outcome = run_paygo(&small());
        let f1: Vec<f64> = outcome.steps.iter().map(|s| s.quality.f1).collect();
        // the headline claim: each step does not hurt, and the journey ends
        // strictly better than the bootstrap
        assert!(
            f1.last().unwrap() > f1.first().unwrap(),
            "f1 sequence {f1:?} should improve overall"
        );
        let precision: Vec<f64> =
            outcome.steps.iter().map(|s| s.quality.precision).collect();
        assert!(
            precision[2] >= precision[1] - 1e-9,
            "feedback must not lower precision: {precision:?}"
        );
    }
}
