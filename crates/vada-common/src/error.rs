//! Error types shared across the VADA workspace.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Convenience alias used throughout the workspace.
pub type Result<T, E = VadaError> = std::result::Result<T, E>;

/// The error type used by every VADA crate.
///
/// Variants are deliberately coarse: each one names the subsystem that
/// produced the error and carries a human-readable message. Call sites that
/// need to react programmatically match on the variant, everything else
/// bubbles up to the orchestrator which records the failure in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VadaError {
    /// A schema lookup failed (unknown relation or attribute).
    Schema(String),
    /// A value could not be parsed or coerced to the expected type.
    Type(String),
    /// Malformed CSV input.
    Csv(String),
    /// Malformed Datalog source or JSON text (position-annotated).
    Parse(String),
    /// Datalog program is unsafe or not stratifiable.
    Program(String),
    /// Datalog evaluation failed (e.g. chase termination guard tripped).
    Eval(String),
    /// The knowledge base rejected an operation.
    Kb(String),
    /// A transducer failed while running.
    Transducer(String),
    /// User-context / AHP input is invalid (e.g. inconsistent matrix shape).
    Context(String),
    /// A panic captured inside a named stage (see [`guard_stage`]).
    Parallel(String),
    /// Durable storage failed (WAL/snapshot I/O, corrupt or truncated
    /// records, codec mismatches).
    Storage(String),
    /// Anything else.
    Other(String),
}

impl VadaError {
    /// The human-readable message carried by this error.
    pub fn message(&self) -> &str {
        match self {
            VadaError::Schema(m)
            | VadaError::Type(m)
            | VadaError::Csv(m)
            | VadaError::Parse(m)
            | VadaError::Program(m)
            | VadaError::Eval(m)
            | VadaError::Kb(m)
            | VadaError::Transducer(m)
            | VadaError::Context(m)
            | VadaError::Parallel(m)
            | VadaError::Storage(m)
            | VadaError::Other(m) => m,
        }
    }

    /// Short stable tag naming the subsystem, used in traces and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            VadaError::Schema(_) => "schema",
            VadaError::Type(_) => "type",
            VadaError::Csv(_) => "csv",
            VadaError::Parse(_) => "parse",
            VadaError::Program(_) => "program",
            VadaError::Eval(_) => "eval",
            VadaError::Kb(_) => "kb",
            VadaError::Transducer(_) => "transducer",
            VadaError::Context(_) => "context",
            VadaError::Parallel(_) => "parallel",
            VadaError::Storage(_) => "storage",
            VadaError::Other(_) => "other",
        }
    }
}

impl fmt::Display for VadaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for VadaError {}

impl From<std::io::Error> for VadaError {
    fn from(e: std::io::Error) -> Self {
        VadaError::Other(format!("io: {e}"))
    }
}

/// Run `f` under a panic guard: a panic inside the stage surfaces as
/// [`VadaError::Parallel`] naming `stage` and the panic payload — never an
/// abort — and an `Err` from `f` passes through untouched.
pub fn guard_stage<R>(stage: &str, f: impl FnOnce() -> Result<R>) -> Result<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
                *s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            Err(VadaError::Parallel(format!("stage `{stage}` panicked: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = VadaError::Parse("unexpected token at 1:4".into());
        assert_eq!(e.to_string(), "parse error: unexpected token at 1:4");
        assert_eq!(e.kind(), "parse");
        assert_eq!(e.message(), "unexpected token at 1:4");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: VadaError = io.into();
        assert_eq!(e.kind(), "other");
        assert!(e.message().contains("gone"));
    }

    #[test]
    fn guard_stage_names_the_stage_and_the_payload() {
        let from_str = guard_stage("unit/str", || -> Result<()> { panic!("poisoned item") });
        let from_string =
            guard_stage("unit/string", || -> Result<()> { panic!("poisoned item {}", 13) });
        let from_other =
            guard_stage("unit/other", || -> Result<()> { std::panic::panic_any(13usize) });
        for (err, stage, payload) in [
            (from_str, "unit/str", "poisoned item"),
            (from_string, "unit/string", "poisoned item 13"),
            (from_other, "unit/other", "non-string panic payload"),
        ] {
            let err = err.unwrap_err();
            assert!(matches!(err, VadaError::Parallel(_)), "{err:?}");
            assert_eq!(err.kind(), "parallel");
            assert_eq!(err.message(), format!("stage `{stage}` panicked: {payload}"));
        }
        let passed = guard_stage("unit/err", || -> Result<()> { Err(VadaError::Csv("bad".into())) });
        assert_eq!(passed, Err(VadaError::Csv("bad".into())));
        assert_eq!(guard_stage("unit/ok", || Ok(7)), Ok(7));
    }

    #[test]
    fn all_kinds_are_distinct() {
        let kinds = [
            VadaError::Schema(String::new()).kind(),
            VadaError::Type(String::new()).kind(),
            VadaError::Csv(String::new()).kind(),
            VadaError::Parse(String::new()).kind(),
            VadaError::Program(String::new()).kind(),
            VadaError::Eval(String::new()).kind(),
            VadaError::Kb(String::new()).kind(),
            VadaError::Transducer(String::new()).kind(),
            VadaError::Context(String::new()).kind(),
            VadaError::Parallel(String::new()).kind(),
            VadaError::Storage(String::new()).kind(),
            VadaError::Other(String::new()).kind(),
        ];
        let set: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), kinds.len());
    }
}
