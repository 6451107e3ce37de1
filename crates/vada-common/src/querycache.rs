//! The query-cache knob: whether directed query evaluation keeps its hash
//! indexes and demanded materializations alive *across* queries.
//!
//! [`QueryCaching::Off`] answers every query from scratch (the
//! pre-caching behaviour): shared hash indexes die with the run and a
//! repeated bound-pattern query re-derives its demanded view in full.
//! [`QueryCaching::Persistent`] lets the owning layers keep those
//! structures between queries — the knowledge base retains its
//! dependency-view indexes, and the datalog query cache maintains demanded
//! materializations through journal deltas — so a repeated query on an
//! unchanged base costs a lookup, and a query after a small edit costs
//! O(change).
//!
//! Like [`crate::Parallelism`] and [`crate::QueryMode`], the knob is
//! safe to flip at any time: cached answers are pinned
//! **byte-identical** to cold directed runs — same
//! answer set, same order, same first error — by the root
//! `query_equivalence` differential suite, and every cache layer
//! invalidates on journal lineage or version divergence, never serving a
//! stale answer.

use crate::env;

/// Whether query-evaluation state may persist across queries.
///
/// The default is read from the `VADA_QUERY_CACHE` environment variable
/// (`1`/`true`/`on` select [`QueryCaching::Persistent`] under the shared
/// [`crate::env`] rules), mirroring the other `VADA_*` overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryCaching {
    /// Rebuild indexes and demanded views on every query.
    Off,
    /// Keep indexes and demanded views alive between queries, invalidating
    /// on journal lineage/version divergence and maintaining views through
    /// row-level deltas where provably order-safe.
    Persistent,
}

impl Default for QueryCaching {
    fn default() -> Self {
        QueryCaching::from_env()
    }
}

impl QueryCaching {
    /// Read the `VADA_QUERY_CACHE` override: `1`, `true` or `on`
    /// (case-insensitive) select [`QueryCaching::Persistent`]; anything
    /// else, including unset, selects [`QueryCaching::Off`].
    pub fn from_env() -> QueryCaching {
        if env::flag("VADA_QUERY_CACHE") {
            QueryCaching::Persistent
        } else {
            QueryCaching::Off
        }
    }

    /// Whether caches may persist across queries.
    pub fn is_enabled(&self) -> bool {
        matches!(self, QueryCaching::Persistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_contract() {
        // the default must agree with whatever the ambient environment says
        // (CI runs the whole suite under VADA_QUERY_CACHE=1 on the
        // all-knobs leg)
        match std::env::var("VADA_QUERY_CACHE") {
            Ok(v) if crate::env::parse_flag(&v) => {
                assert_eq!(QueryCaching::from_env(), QueryCaching::Persistent)
            }
            _ => assert_eq!(QueryCaching::from_env(), QueryCaching::Off),
        }
        assert!(QueryCaching::Persistent.is_enabled());
        assert!(!QueryCaching::Off.is_enabled());
    }
}
