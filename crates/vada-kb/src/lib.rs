//! # vada-kb
//!
//! The VADA **Knowledge Base** (paper §2, pillar 2): the single repository
//! through which every wrangling component communicates.
//!
//! It holds three kinds of state:
//!
//! * **Extensional data** — source relations extracted from the web, data
//!   context relations (reference/master/example data), and materialised
//!   results, kept as [`vada_common::Relation`]s in the [`catalog`].
//! * **Metadata records** — schema matches, candidate mappings, learned
//!   CFDs, quality metrics, feedback annotations and user-context
//!   statements, kept as typed records (module [`meta`]).
//! * **A Datalog fact view** — every registration and metadata record is
//!   mirrored as facts in a [`vada_datalog::Database`] so that transducer
//!   *input dependencies* (Datalog queries, paper §2.3 and Table 1) can be
//!   evaluated directly against the knowledge base.
//!
//! Mutations bump a version counter per predicate; the orchestrator uses
//! these versions to decide which transducers have new inputs (paper §2.4).

pub mod catalog;
pub mod delta;
pub mod meta;
pub mod storage;
pub mod store;

pub use catalog::{Catalog, RelationKind};
pub use delta::{DeltaChange, DeltaEvent, DeltaJournal, JournalMark, Since};
pub use storage::{Snapshot, StoredRelation, WalRecord};
pub use meta::{
    CellVeto,
    CfdRule, ContextKind, FeedbackRecord, FeedbackTarget, MappingDef, MappingPart, MatchDef,
    PairwiseStatement, QualityFact, Verdict,
};
pub use store::KnowledgeBase;
