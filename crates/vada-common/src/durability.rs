//! The durability knob: whether the knowledge base persists its delta
//! events to an on-disk write-ahead log.
//!
//! An enum with an environment-variable default (`VADA_WAL`), so an
//! operator can make every `Wrangler` in a process durable without
//! touching call sites. Durability is a property of the `KnowledgeBase`
//! itself, not of how transducers are scheduled, so the knob is consumed by
//! `Wrangler`/`KnowledgeBase` rather than broadcast to each transducer.

use std::path::PathBuf;

/// Whether (and where) the knowledge base writes a durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Durability {
    /// In-memory only (the pre-durability behaviour): a process restart
    /// loses the catalog and every consumer rebuilds from scratch.
    Off,
    /// Append every delta event to a write-ahead log under this directory
    /// (with periodic snapshots + log compaction), so the knowledge base
    /// can be reopened byte-identically after a crash.
    Wal(PathBuf),
}

impl Default for Durability {
    fn default() -> Self {
        Durability::from_env()
    }
}

impl Durability {
    /// Read the `VADA_WAL` override:
    ///
    /// - unset, empty, `0`, or `off` (the shared [`crate::env`]
    ///   off-switch rules) → [`Durability::Off`]
    /// - the literal `tmpdir` (case-insensitive) → a `vada-wal` directory
    ///   under [`std::env::temp_dir`] — the spelling the CI tier-1 leg uses
    /// - anything else → treated as a directory path
    pub fn from_env() -> Durability {
        match std::env::var("VADA_WAL") {
            Err(_) => Durability::Off,
            Ok(raw) => {
                let v = raw.trim();
                if crate::env::parse_off(v) {
                    Durability::Off
                } else if v.eq_ignore_ascii_case("tmpdir") {
                    Durability::Wal(std::env::temp_dir().join("vada-wal"))
                } else {
                    Durability::Wal(PathBuf::from(v))
                }
            }
        }
    }

    /// Whether a write-ahead log is in play.
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal(_))
    }

    /// The WAL base directory, if durable.
    pub fn path(&self) -> Option<&std::path::Path> {
        match self {
            Durability::Off => None,
            Durability::Wal(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `from_env` itself is covered indirectly: tests must not mutate the
    // process environment (the suite is multi-threaded), so these exercise
    // the pure accessors and the parsing helper on literal inputs instead.

    #[test]
    fn off_is_not_durable() {
        assert!(!Durability::Off.is_durable());
        assert_eq!(Durability::Off.path(), None);
    }

    #[test]
    fn wal_exposes_path() {
        let d = Durability::Wal(PathBuf::from("/tmp/x"));
        assert!(d.is_durable());
        assert_eq!(d.path(), Some(std::path::Path::new("/tmp/x")));
    }
}
