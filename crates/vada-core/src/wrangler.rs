//! The [`Wrangler`] facade: the end-user surface of the architecture,
//! driving the four pay-as-you-go steps of the demonstration (paper §3).

use vada_common::{Obs, ObsReport, Relation, Result, Schema};
use vada_kb::{ContextKind, FeedbackRecord, KnowledgeBase, PairwiseStatement};

use crate::network::SchedulingPolicy;
use crate::orchestrator::Orchestrator;
use crate::registry::default_transducers;
use crate::trace::Trace;
use crate::transducer::Transducer;

/// What one `run` did.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Transducer executions in this run.
    pub executed: usize,
    /// Knowledge-base version after the run.
    pub kb_version: u64,
    /// Per-transducer execution counts over the whole session.
    pub trace_summary: String,
}

/// The end-user facade over the knowledge base and the orchestrator.
///
/// The intended call pattern follows the demo's steps:
///
/// 1. [`add_source`](Wrangler::add_source) +
///    [`set_target`](Wrangler::set_target), then [`run`](Wrangler::run) —
///    automatic bootstrapping;
/// 2. [`add_data_context`](Wrangler::add_data_context), `run` — matching,
///    CFD learning and repair are revisited with the new evidence;
/// 3. [`add_feedback`](Wrangler::add_feedback), `run` — annotations turn
///    into vetoes and match-score revisions;
/// 4. [`set_user_context`](Wrangler::set_user_context), `run` — mapping
///    selection re-optimises under the new weights.
///
/// The knowledge base is in memory until `w.kb_mut().persist_to(dir)`
/// backs it with a write-ahead log ([`KnowledgeBase::persist_to`]).
#[derive(Debug)]
pub struct Wrangler {
    kb: KnowledgeBase,
    orchestrator: Orchestrator,
}

impl Default for Wrangler {
    fn default() -> Self {
        Wrangler::new()
    }
}

impl Wrangler {
    /// A wrangler with the default transducer fleet and generic policy.
    pub fn new() -> Wrangler {
        Wrangler {
            kb: KnowledgeBase::new(),
            orchestrator: Orchestrator::new(default_transducers()),
        }
    }

    /// A wrangler with an explicit network-transducer policy.
    pub fn with_policy(policy: Box<dyn SchedulingPolicy>) -> Wrangler {
        Wrangler {
            kb: KnowledgeBase::new(),
            orchestrator: Orchestrator::with_policy(default_transducers(), policy),
        }
    }

    /// A wrangler with a custom fleet (e.g. extended with user transducers).
    pub fn with_transducers(transducers: Vec<Box<dyn Transducer>>) -> Wrangler {
        Wrangler { kb: KnowledgeBase::new(), orchestrator: Orchestrator::new(transducers) }
    }

    /// A wrangler over an existing knowledge base — typically one recovered
    /// via [`KnowledgeBase::open`] — with the default fleet.
    pub fn with_kb(kb: KnowledgeBase) -> Wrangler {
        Wrangler { kb, orchestrator: Orchestrator::new(default_transducers()) }
    }

    /// Attach an observability registry to the knowledge base
    /// ([`KnowledgeBase::set_obs`]), the one place every layer records
    /// into: the orchestrator's step spans and `pipeline.*` counters, the
    /// mapping result store and the engine runs beneath it, the journal and
    /// the WAL. The registry observes — it never influences results.
    pub fn set_obs(&mut self, obs: Obs) {
        self.kb.set_obs(obs);
    }

    /// The active observability registry (the disabled stub unless
    /// [`set_obs`](Wrangler::set_obs) attached a live one).
    pub fn obs(&self) -> &Obs {
        self.kb.obs()
    }

    /// Counters and spans (each with its duration) collected so far by the
    /// knowledge base's registry; the empty report while observability is disabled.
    pub fn obs_report(&self) -> ObsReport {
        self.kb.obs().report()
    }

    /// Register a source relation.
    pub fn add_source(&mut self, rel: Relation) {
        self.kb.register_source(rel);
    }

    /// Remove rows from a registered relation (the paper's feedback loop:
    /// users retract low-quality rows and re-wrangle). Journalled as a
    /// row-level retraction; mappings that read the relation re-execute
    /// on the next run. Returns the removed tuples in ascending row order.
    pub fn remove_source_rows(&mut self, name: &str, rows: &[usize]) -> Result<Vec<vada_common::Tuple>> {
        self.kb.remove_rows(name, rows)
    }

    /// Rewrite rows of a registered source in place (`edits` pairs a row
    /// index with its new tuple). Journalled as a row-level rewrite;
    /// mappings that read the relation re-execute on the next run.
    pub fn update_source_rows(&mut self, name: &str, edits: &[(usize, vada_common::Tuple)]) -> Result<()> {
        self.kb.update_source(name, edits)
    }

    /// Register the target schema.
    pub fn set_target(&mut self, schema: Schema) {
        self.kb.register_target_schema(schema);
    }

    /// Associate a data-context relation with the target schema
    /// (step 2 of the demo).
    pub fn add_data_context(
        &mut self,
        rel: Relation,
        kind: ContextKind,
        bindings: &[(&str, &str)],
    ) -> Result<()> {
        self.kb.register_data_context(rel, kind, bindings)
    }

    /// Assert feedback annotations (step 3).
    pub fn add_feedback(&mut self, records: impl IntoIterator<Item = FeedbackRecord>) {
        for r in records {
            self.kb.add_feedback(r);
        }
    }

    /// Set the user context (step 4).
    pub fn set_user_context(&mut self, statements: Vec<PairwiseStatement>) {
        self.kb.set_user_context(statements);
    }

    /// Orchestrate to fixpoint with whatever information is currently
    /// available.
    pub fn run(&mut self) -> Result<RunReport> {
        // structural root span: every `orchestrator/step` child (and the
        // mode-scoped subtrees below them) groups under one run
        let obs = self.kb.obs().clone();
        let executed = {
            let span = obs.span("orchestrator/run");
            let executed = self.orchestrator.run_to_fixpoint(&mut self.kb)?;
            span.attr("executed", executed);
            executed
        };
        let trace_summary = self
            .orchestrator
            .trace()
            .executions_by_transducer()
            .into_iter()
            .map(|(name, n)| format!("{name}×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        Ok(RunReport { executed, kb_version: self.kb.version(), trace_summary })
    }

    /// The current wrangling result, if one has been materialised.
    pub fn result(&self) -> Option<&Relation> {
        let target = self.kb.target_schema()?;
        self.kb.relation(&target.name).ok()
    }

    /// The knowledge base (read access).
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The knowledge base (mutable access, for advanced scenarios).
    pub fn kb_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// The orchestration trace.
    pub fn trace(&self) -> &Trace {
        self.orchestrator.trace()
    }

    /// The registered transducer fleet.
    pub fn transducers(&self) -> &[Box<dyn Transducer>] {
        self.orchestrator.transducers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Value};

    fn sources() -> (Relation, Relation) {
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode", "bedrooms"],
        ));
        rm.push(tuple!["250000", "1 high st", "M1 1AA", "3"]).unwrap();
        rm.push(tuple!["£300,000", "2 park rd", "M1 1AB", "18"]).unwrap();
        rm.push(tuple!["410000", "3 kings ave", "EH1 1AA", "4"]).unwrap();
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        (rm, dep)
    }

    fn target() -> Schema {
        Schema::new(
            "property",
            [
                ("street", AttrType::Str),
                ("postcode", AttrType::Str),
                ("bedrooms", AttrType::Int),
                ("price", AttrType::Int),
                ("crimerank", AttrType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn bootstrap_produces_a_result() {
        let mut w = Wrangler::new();
        let (rm, dep) = sources();
        w.add_source(rm);
        w.add_source(dep);
        w.set_target(target());
        let report = w.run().unwrap();
        assert!(report.executed >= 4, "{}", report.trace_summary);
        let result = w.result().expect("bootstrap materialises a result");
        assert_eq!(result.len(), 3);
        // crimerank joined for M1 rows
        let crime: Vec<&Value> = result.iter().map(|t| &t[4]).collect();
        assert!(crime.iter().any(|v| **v == Value::Int(500)));
        assert!(crime.iter().any(|v| v.is_null()));
        // second run with no new information is a no-op
        let again = w.run().unwrap();
        assert_eq!(again.executed, 0);
    }

    #[test]
    fn data_context_triggers_revisiting() {
        let mut w = Wrangler::new();
        let (rm, dep) = sources();
        w.add_source(rm);
        w.add_source(dep);
        w.set_target(target());
        w.run().unwrap();
        let steps_before = w.trace().len();

        let mut addr = Relation::empty(Schema::all_str(
            "address",
            &["street", "city", "postcode"],
        ));
        for (s, c, p) in [
            ("1 high st", "manchester", "M1 1AA"),
            ("2 park rd", "manchester", "M1 1AB"),
            ("3 kings ave", "edinburgh", "EH1 1AA"),
            ("4 mill ln", "manchester", "M1 1AC"),
            ("5 queens dr", "edinburgh", "EH1 1AB"),
        ] {
            addr.push(tuple![s, c, p]).unwrap();
        }
        w.add_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
        let report = w.run().unwrap();
        assert!(report.executed > 0);
        // instance matching and cfd learning must have joined the party
        let names: Vec<String> = w.trace().entries()[steps_before..]
            .iter()
            .map(|e| e.transducer.clone())
            .collect();
        assert!(names.contains(&"instance_matching".to_string()), "{names:?}");
        assert!(names.contains(&"cfd_learning".to_string()), "{names:?}");
    }

    #[test]
    fn user_context_changes_reselect() {
        let mut w = Wrangler::new();
        let (rm, dep) = sources();
        w.add_source(rm);
        w.add_source(dep);
        w.set_target(target());
        w.run().unwrap();
        w.set_user_context(vec![PairwiseStatement {
            more_important: "completeness(crimerank)".into(),
            less_important: "completeness(bedrooms)".into(),
            strength: "very strongly".into(),
        }]);
        let report = w.run().unwrap();
        // selection must have re-run under the new weights
        assert!(report.trace_summary.contains("mapping_selection"));
    }

    /// The paper's four steps — bootstrap, data context, feedback, user
    /// context — over two listing sources run each candidate *part* through
    /// the engine once and assemble each union once: the second
    /// `mapping_quality` run (new CFDs and reference data, same sources)
    /// recomputes metrics over stored results, and `mapping_execution`
    /// reads the selected candidate from the same store.
    #[test]
    fn four_step_wrangle_executes_each_candidate_structure_once() {
        use vada_common::obs::key;
        use vada_kb::{FeedbackRecord, FeedbackTarget, Verdict};

        let mut w = Wrangler::new();
        let obs = Obs::enabled();
        w.set_obs(obs.clone());
        let (rm, dep) = sources();
        // a second primary: one raw fact shared with rightmove, one its own
        let mut zoopla = Relation::empty(rm.schema().renamed("zoopla"));
        zoopla.push(rm.tuples()[1].clone()).unwrap();
        zoopla.push(tuple!["150000", "4 mill ln", "M1 1AC", "2"]).unwrap();
        w.add_source(rm);
        w.add_source(zoopla);
        w.add_source(dep);
        w.set_target(target());
        w.run().unwrap();
        let candidates = w.kb().mappings().count() as u64;
        let unions = w.kb().mappings().filter(|m| !m.parts.is_empty()).count() as u64;
        // each primary plain and augmented, and the union of each shape
        assert_eq!((candidates, unions), (6, 2));
        // every other candidate is a part of a union
        let parts = candidates - unions;
        let materialised = || (obs.get(key::MAP_FULL), obs.get(key::MAP_ASSEMBLED));
        assert_eq!(materialised(), (parts, unions));
        let executions = |w: &Wrangler| {
            w.trace().entries().iter().filter(|e| e.transducer == "mapping_execution").count()
                as u64
        };
        // store hits so far: the bootstrap's (the stand-alone candidates a
        // union ran as its parts, if it came first in id order) and its
        // executions'
        let (reused_before, executed_before) = (obs.get(key::MAP_REUSED), executions(&w));
        assert!(executed_before >= 1);

        let mut addr =
            Relation::empty(Schema::all_str("address", &["street", "city", "postcode"]));
        for (s, c, p) in [
            ("1 high st", "manchester", "M1 1AA"),
            ("2 park rd", "manchester", "M1 1AB"),
            ("3 kings ave", "edinburgh", "EH1 1AA"),
            ("4 mill ln", "manchester", "M1 1AC"),
            ("5 queens dr", "edinburgh", "EH1 1AB"),
        ] {
            addr.push(tuple![s, c, p]).unwrap();
        }
        w.add_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
        w.run().unwrap();
        // every look of the data-context run — its quality run over each
        // candidate, its executions — was a store hit
        let (reused_ctx, executed_ctx) = (obs.get(key::MAP_REUSED), executions(&w));
        assert_eq!(reused_ctx - reused_before, candidates + executed_ctx - executed_before);
        w.add_feedback([FeedbackRecord {
            id: "fb0".into(),
            target: FeedbackTarget::Attribute {
                relation: "property".into(),
                row: 1,
                attr: "bedrooms".into(),
            },
            verdict: Verdict::Incorrect,
        }]);
        w.run().unwrap();
        w.set_user_context(vec![PairwiseStatement {
            more_important: "completeness(crimerank)".into(),
            less_important: "completeness(bedrooms)".into(),
            strength: "very strongly".into(),
        }]);
        w.run().unwrap();

        let quality_runs =
            w.trace().entries().iter().filter(|e| e.transducer == "mapping_quality").count();
        assert_eq!(quality_runs, 2, "bootstrap, then the data context");
        assert_eq!(w.kb().mappings().count() as u64, candidates);
        assert_eq!(materialised(), (parts, unions));
        // so was every later execution, and nothing was derived or
        // assembled underneath the second quality run
        assert_eq!(obs.get(key::MAP_REUSED) - reused_ctx, executions(&w) - executed_ctx);
        let spans = obs.span_records();
        let below: Vec<Vec<&str>> = spans
            .iter()
            .filter(|r| {
                r.name == "orchestrator/step"
                    && r.attrs.contains(&("transducer".into(), "mapping_quality".into()))
            })
            .map(|step| {
                // (a durable knowledge base also logs its writes here)
                let mut inside = std::collections::HashSet::from([step.id]);
                let mut names = Vec::new();
                for r in &spans {
                    if inside.contains(&r.parent) && !r.name.starts_with("wal/") {
                        inside.insert(r.id);
                        if r.name.starts_with("map/") {
                            names.push(r.name.as_str());
                        }
                    }
                }
                names.sort_unstable();
                names
            })
            .collect();
        assert_eq!(below.len(), 2);
        let mut first = vec!["map/assemble"; unions as usize];
        first.extend(vec!["map/execute"; parts as usize]);
        assert_eq!(below[0], first);
        assert!(below[1].is_empty(), "{:?}", below[1]);
    }
}
