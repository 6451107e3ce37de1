//! The [`Transducer`] abstraction (paper §2): "a software component with
//! input and output dependencies defined as Datalog queries over the
//! knowledge base and/or the state of the transducer".

use std::fmt;

use vada_common::Result;
use vada_kb::KnowledgeBase;

/// The wrangling activity a transducer belongs to (paper Table 1 column
/// "Activity", extended with the execution-side activities of §2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Activity {
    /// Reacting to user feedback (runs first so annotations apply to the
    /// result the user actually saw).
    Feedback,
    /// Data extraction / ingestion.
    Extraction,
    /// Schema/instance matching.
    Matching,
    /// Mapping generation.
    Mapping,
    /// Quality: CFD learning, metric computation.
    Quality,
    /// Source/mapping selection.
    Selection,
    /// Mapping execution (materialising the result).
    Execution,
    /// Repair of materialised results.
    Repair,
    /// Duplicate detection and fusion.
    Fusion,
}

impl Activity {
    /// Stable lower-case tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Activity::Feedback => "feedback",
            Activity::Extraction => "extraction",
            Activity::Matching => "matching",
            Activity::Mapping => "mapping",
            Activity::Quality => "quality",
            Activity::Selection => "selection",
            Activity::Execution => "execution",
            Activity::Repair => "repair",
            Activity::Fusion => "fusion",
        }
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// What a transducer run reports back to the orchestrator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// One-line summary for the trace.
    pub summary: String,
    /// How many records/facts/cells the run wrote, as reported to the trace
    /// and the `pipeline.orchestrator.writes` counter. Scheduling never
    /// reads it: a downstream transducer re-fires when an aspect it reads
    /// moved to a newer knowledge-base version, whatever this says.
    pub writes: usize,
}

impl RunOutcome {
    /// Convenience constructor.
    pub fn new(summary: impl Into<String>, writes: usize) -> RunOutcome {
        RunOutcome { summary: summary.into(), writes }
    }

    /// An outcome reporting nothing to do.
    pub fn noop(reason: impl Into<String>) -> RunOutcome {
        RunOutcome { summary: reason.into(), writes: 0 }
    }
}

/// A wrangling component with a declarative input dependency.
///
/// The orchestrator deems a transducer *eligible* when
/// (a) its [`input_dependency`](Transducer::input_dependency) query has at
/// least one answer in the knowledge base, and (b) one of its
/// [`input_aspects`](Transducer::input_aspects) changed since its last
/// run. Together these give the paper's behaviour: "each transducer knows
/// what data it needs, and becomes available for execution when that data
/// is available in the knowledge base".
///
/// A transducer holds no observability registry: whatever it (or the
/// substrate it drives) tallies goes to the knowledge base's
/// [`obs`](KnowledgeBase::obs), the registry the orchestrator records the
/// enclosing step into.
pub trait Transducer {
    /// Unique component name, e.g. `schema_matching`.
    fn name(&self) -> &str;

    /// The activity it implements.
    fn activity(&self) -> Activity;

    /// The input dependency as a Datalog query over the knowledge-base
    /// fact view (see `KnowledgeBase::build_dependency_db` for the
    /// vocabulary).
    fn input_dependency(&self) -> &str;

    /// The knowledge-base aspects this transducer reads; a change in any
    /// of them makes it re-runnable. See `KnowledgeBase::aspect_version`.
    fn input_aspects(&self) -> &'static [&'static str];

    /// Whether the input dependency is currently satisfied.
    fn ready(&self, kb: &KnowledgeBase) -> Result<bool> {
        kb.query_satisfied(self.input_dependency())
    }

    /// Execute against the knowledge base.
    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_order_feedback_first() {
        assert!(Activity::Feedback < Activity::Matching);
        assert!(Activity::Matching < Activity::Mapping);
        assert!(Activity::Mapping < Activity::Quality);
        assert!(Activity::Selection < Activity::Execution);
        assert!(Activity::Execution < Activity::Repair);
        assert!(Activity::Repair < Activity::Fusion);
    }

    #[test]
    fn outcome_constructors() {
        let o = RunOutcome::new("did things", 3);
        assert_eq!(o.writes, 3);
        let n = RunOutcome::noop("nothing to do");
        assert_eq!(n.writes, 0);
    }
}
