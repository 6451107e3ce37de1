//! The orchestration loop: evaluate input dependencies, let the network
//! transducer choose among eligible components, run to fixpoint.

use std::collections::HashMap;
use std::time::Instant;

use vada_common::obs::key as obs_key;
use vada_common::{Result, VadaError};
use vada_kb::KnowledgeBase;

use crate::network::{GenericPolicy, SchedulingPolicy};
use crate::trace::{Trace, TraceEntry};
use crate::transducer::Transducer;

/// Maximum transducer executions per `run_to_fixpoint` call: the guard
/// against transducers that keep re-enabling each other.
const MAX_STEPS: usize = 200;

/// Owns the transducer fleet, the policy, and the trace.
pub struct Orchestrator {
    transducers: Vec<Box<dyn Transducer>>,
    policy: Box<dyn SchedulingPolicy>,
    /// KB version at the end of each transducer's last run.
    last_run: HashMap<String, u64>,
    trace: Trace,
    step: usize,
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("transducers", &self.transducers.iter().map(|t| t.name().to_string()).collect::<Vec<_>>())
            .field("policy", &self.policy.name())
            .field("steps", &self.step)
            .finish()
    }
}

impl Orchestrator {
    /// Build with the default generic policy.
    pub fn new(transducers: Vec<Box<dyn Transducer>>) -> Orchestrator {
        Orchestrator::with_policy(transducers, Box::new(GenericPolicy))
    }

    /// Build with an explicit network-transducer policy.
    pub fn with_policy(
        transducers: Vec<Box<dyn Transducer>>,
        policy: Box<dyn SchedulingPolicy>,
    ) -> Orchestrator {
        Orchestrator {
            transducers,
            policy,
            last_run: HashMap::new(),
            trace: Trace::default(),
            step: 0,
        }
    }

    /// Register an additional transducer (the architecture is extensible:
    /// "additional transducers can be added at any time", §2.3).
    pub fn add_transducer(&mut self, t: Box<dyn Transducer>) {
        self.transducers.push(t);
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The registered transducers.
    pub fn transducers(&self) -> &[Box<dyn Transducer>] {
        &self.transducers
    }

    /// Indices of transducers that are ready *and* have new inputs.
    fn eligible(&self, kb: &KnowledgeBase) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        for (i, t) in self.transducers.iter().enumerate() {
            let last = self.last_run.get(t.name()).copied().unwrap_or(0);
            let newest_input = t
                .input_aspects()
                .iter()
                .map(|a| kb.aspect_version(a))
                .max()
                .unwrap_or(0);
            // a never-run transducer is eligible as soon as it is ready;
            // afterwards only when an input aspect changed
            let has_new_inputs = !self.last_run.contains_key(t.name()) || newest_input > last;
            if has_new_inputs && t.ready(kb)? {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// Run transducers until no transducer is eligible (fixpoint) or the
    /// step limit trips. Returns the number of executions performed. Step
    /// spans and `pipeline.*` counters go to the knowledge base's registry.
    pub fn run_to_fixpoint(&mut self, kb: &mut KnowledgeBase) -> Result<usize> {
        // a step's span borrows the registry across `t.run(kb)`
        let obs = kb.obs().clone();
        let mut executed = 0usize;
        loop {
            let eligible = self.eligible(kb)?;
            if eligible.is_empty() {
                return Ok(executed);
            }
            if executed >= MAX_STEPS {
                return Err(VadaError::Transducer(format!(
                    "orchestration exceeded {MAX_STEPS} steps without reaching a fixpoint; \
                     eligible: {:?}",
                    eligible
                        .iter()
                        .map(|&i| self.transducers[i].name().to_string())
                        .collect::<Vec<_>>()
                )));
            }
            let chosen = self.policy.choose(&eligible, &self.transducers);
            let before = kb.version();
            let span = obs.span("orchestrator/step");
            let started = Instant::now();
            let t = &mut self.transducers[chosen];
            let outcome = t.run(kb).map_err(|e| {
                VadaError::Transducer(format!("{} failed: {e}", t.name()))
            })?;
            let after = kb.version();
            obs.incr(obs_key::ORCH_STEPS);
            obs.add(obs_key::ORCH_WRITES, outcome.writes as u64);
            obs.incr(&format!("{}{}", obs_key::ACTIVITY_PREFIX, t.activity().tag()));
            span.attr("step", self.step);
            span.attr("transducer", t.name());
            span.attr("activity", t.activity().tag());
            span.attr("writes", outcome.writes);
            drop(span);
            self.last_run.insert(t.name().to_string(), after);
            self.trace.push(TraceEntry {
                step: self.step,
                transducer: t.name().to_string(),
                activity: t.activity(),
                input_dependency: t.input_dependency().to_string(),
                kb_version_before: before,
                kb_version_after: after,
                summary: outcome.summary,
                writes: outcome.writes,
                duration: started.elapsed(),
            });
            self.step += 1;
            executed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transducer::{Activity, RunOutcome};
    use vada_common::{tuple, Relation, Schema};

    /// A transducer that copies source rows into an intermediate relation,
    /// used to exercise the scheduling machinery.
    #[derive(Debug)]
    struct CopySource {
        runs: usize,
    }

    impl Transducer for CopySource {
        fn name(&self) -> &str {
            "copy_source"
        }
        fn activity(&self) -> Activity {
            Activity::Extraction
        }
        fn input_dependency(&self) -> &str {
            r#"relation(R, "source", N), N > 0"#
        }
        fn input_aspects(&self) -> &'static [&'static str] {
            &["relations"]
        }
        fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
            self.runs += 1;
            let src = kb.relation("src")?.clone();
            let copy = Relation::from_tuples(src.schema().renamed("copy"), src.tuples().to_vec())?;
            kb.put_intermediate(copy);
            Ok(RunOutcome::new("copied", src.len()))
        }
    }

    #[test]
    fn runs_when_ready_then_reaches_fixpoint() {
        let mut kb = KnowledgeBase::new();
        let mut orch = Orchestrator::new(vec![Box::new(CopySource { runs: 0 })]);
        // nothing registered: not ready, fixpoint immediately
        assert_eq!(orch.run_to_fixpoint(&mut kb).unwrap(), 0);

        let mut src = Relation::empty(Schema::all_str("src", &["a"]));
        src.push(tuple!["x"]).unwrap();
        kb.register_source(src);
        assert_eq!(orch.run_to_fixpoint(&mut kb).unwrap(), 1);
        assert!(kb.relation("copy").is_ok());
        // no new inputs: nothing to do
        assert_eq!(orch.run_to_fixpoint(&mut kb).unwrap(), 0);
        assert_eq!(orch.trace().len(), 1);
    }

    #[test]
    fn new_inputs_reactivate() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("src", &["a"]));
        src.push(tuple!["x"]).unwrap();
        kb.register_source(src.clone());
        let mut orch = Orchestrator::new(vec![Box::new(CopySource { runs: 0 })]);
        orch.run_to_fixpoint(&mut kb).unwrap();
        // register a bigger source under the same name: relations aspect bumps
        src.push(tuple!["y"]).unwrap();
        kb.register_source(src);
        assert_eq!(orch.run_to_fixpoint(&mut kb).unwrap(), 1);
        assert_eq!(orch.trace().len(), 2);
    }

    /// Two transducers that each write the aspect the other reads — a
    /// genuine oscillation the step limit must catch. (A transducer that
    /// writes only its *own* input aspect does not retrigger itself: its
    /// last-run version is recorded after the write.)
    #[derive(Debug)]
    struct PingPong {
        name: &'static str,
        reads: &'static [&'static str],
        write_quality: bool,
    }

    impl Transducer for PingPong {
        fn name(&self) -> &str {
            self.name
        }
        fn activity(&self) -> Activity {
            Activity::Quality
        }
        fn input_dependency(&self) -> &str {
            r#"relation(_, "source", _)"#
        }
        fn input_aspects(&self) -> &'static [&'static str] {
            self.reads
        }
        fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
            if self.write_quality {
                kb.add_quality(vada_kb::QualityFact {
                    entity_kind: "x".into(),
                    entity: "y".into(),
                    metric: "m".into(),
                    criterion: String::new(),
                    value: 0.0,
                });
            } else {
                kb.put_intermediate(Relation::empty(Schema::all_str("tmp", &["a"])));
            }
            Ok(RunOutcome::new("wrote", 1))
        }
    }

    #[test]
    fn step_limit_guards_oscillation() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("src", &["a"]));
        src.push(tuple!["x"]).unwrap();
        kb.register_source(src);
        let mut orch = Orchestrator::new(vec![
            // reads quality, writes intermediates
            Box::new(PingPong { name: "a", reads: &["quality"], write_quality: false }),
            // reads intermediates, writes quality
            Box::new(PingPong { name: "b", reads: &["intermediates"], write_quality: true }),
        ]);
        let err = orch.run_to_fixpoint(&mut kb).unwrap_err();
        assert!(err.to_string().contains("200 steps"), "{err}");
        assert_eq!(orch.trace().len(), 200);
    }

    #[test]
    fn self_aspect_writer_does_not_retrigger_itself() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("src", &["a"]));
        src.push(tuple!["x"]).unwrap();
        kb.register_source(src);
        // reads quality, writes quality: runs once, then settles
        let mut orch = Orchestrator::new(vec![Box::new(PingPong {
            name: "self",
            reads: &["quality"],
            write_quality: true,
        })]);
        assert_eq!(orch.run_to_fixpoint(&mut kb).unwrap(), 1);
    }
}
