//! The browsable orchestration trace (paper §3: "the system will provide
//! browsable trace information that shows what transducers are being
//! orchestrated, their inputs and results").

use std::fmt;
use std::time::Duration;

use crate::transducer::Activity;

/// One transducer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Global step number (monotonic across orchestrator runs).
    pub step: usize,
    /// Transducer name.
    pub transducer: String,
    /// Its activity.
    pub activity: Activity,
    /// The input dependency that licensed the run.
    pub input_dependency: String,
    /// Knowledge-base version before the run.
    pub kb_version_before: u64,
    /// Knowledge-base version after the run.
    pub kb_version_after: u64,
    /// Run summary.
    pub summary: String,
    /// Records written.
    pub writes: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<3} {:<24} [{}] v{}->v{} writes={} {}",
            self.step,
            self.transducer,
            self.activity,
            self.kb_version_before,
            self.kb_version_after,
            self.writes,
            self.summary
        )
    }
}

/// The full execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Append an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// All entries, in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of executions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing ran yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Executions per transducer, sorted by name.
    pub fn executions_by_transducer(&self) -> Vec<(String, usize)> {
        // count by borrowed name; allocate once per *distinct* transducer,
        // not once per entry
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for e in &self.entries {
            *counts.entry(e.transducer.as_str()).or_default() += 1;
        }
        counts.into_iter().map(|(name, n)| (name.to_string(), n)).collect()
    }

    /// Render the whole trace as text, wall-clock included.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push_str(&format!(" ({}us)", e.duration.as_micros()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(step: usize, name: &str) -> TraceEntry {
        TraceEntry {
            step,
            transducer: name.into(),
            activity: Activity::Matching,
            input_dependency: "attr(_, _, _, _)".into(),
            kb_version_before: 1,
            kb_version_after: 2,
            summary: "ok".into(),
            writes: 4,
            duration: Duration::from_millis(1),
        }
    }

    #[test]
    fn counts_by_transducer() {
        let mut t = Trace::default();
        t.push(entry(0, "schema_matching"));
        t.push(entry(1, "schema_matching"));
        t.push(entry(2, "mapping_generation"));
        assert_eq!(
            t.executions_by_transducer(),
            vec![("mapping_generation".to_string(), 1), ("schema_matching".to_string(), 2)]
        );
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn render_contains_steps() {
        let mut t = Trace::default();
        t.push(entry(7, "cfd_learning"));
        let s = t.render();
        assert!(s.contains("#7"));
        assert!(s.contains("cfd_learning"));
        assert!(s.contains("writes=4"));
    }
}
