//! The query-evaluation-mode knob for demand-driven Datalog evaluation.
//!
//! [`QueryMode::Undirected`] answers a query by running the *full* program
//! fixpoint and then evaluating the query against it — every derivable fact
//! is materialized whether the query can reach it or not.
//! [`QueryMode::Directed`] first performs a magic-set / sideways-information
//! -passing rewrite that seeds *demand* from the query's bound arguments,
//! then materializes only the demanded portion of the fixpoint, so a query
//! touching one postcode no longer derives facts for all of them.
//!
//! Like [`crate::Parallelism`], the knob is safe to flip at any time:
//! per query,
//! directed evaluation is pinned **byte-identical** to undirected — same
//! answer set, same answer order, same first error — by the root
//! `query_equivalence` differential suite. Whenever the demand analysis
//! cannot soundly restrict a predicate (negation, all-free queries, sparse
//! binding patterns), it falls back to leaving that predicate — or the whole
//! program — unrestricted, never to divergent answers.

/// How the engine should evaluate a stand-alone query over a program.
///
/// The default is read from the `VADA_MAGIC` environment variable
/// (`1`/`true`/`on` select [`QueryMode::Directed`]), mirroring the
/// `VADA_THREADS` / `VADA_WAL` overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Run the full program fixpoint, then evaluate the query against it.
    Undirected,
    /// Magic-set rewrite: materialize only the portion of the fixpoint the
    /// query's bound arguments demand, falling back to undirected behaviour
    /// per predicate whenever a restriction is not provably sound.
    Directed,
}

impl Default for QueryMode {
    fn default() -> Self {
        QueryMode::from_env()
    }
}

impl QueryMode {
    /// Read the `VADA_MAGIC` override: `1`, `true` or `on` (under the
    /// shared [`crate::env`] rules) select [`QueryMode::Directed`];
    /// anything else, including unset, selects [`QueryMode::Undirected`].
    pub fn from_env() -> QueryMode {
        if crate::env::flag("VADA_MAGIC") {
            QueryMode::Directed
        } else {
            QueryMode::Undirected
        }
    }

    /// Whether this mode restricts materialization to demanded facts.
    pub fn is_directed(&self) -> bool {
        matches!(self, QueryMode::Directed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_contract() {
        // the default must agree with whatever the ambient environment says
        // (CI runs the whole suite under VADA_MAGIC=1 on the all-knobs leg)
        match std::env::var("VADA_MAGIC") {
            Ok(v) if crate::env::parse_flag(&v) => {
                assert_eq!(QueryMode::from_env(), QueryMode::Directed)
            }
            _ => assert_eq!(QueryMode::from_env(), QueryMode::Undirected),
        }
        assert!(QueryMode::Directed.is_directed());
        assert!(!QueryMode::Undirected.is_directed());
    }
}
