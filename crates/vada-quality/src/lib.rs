//! # vada-quality
//!
//! The **Quality activity** (paper Table 1 and §2.3): once the data context
//! supplies reference or master data, VADA can *learn* conditional
//! functional dependencies (CFDs) from it, *measure* the consistency of
//! wrangling results against them, *repair* violations using the reference
//! data, and attach quality metrics to sources and mappings which in turn
//! drive source/mapping selection under the user context.
//!
//! * [`cfd`] — a CTANE-style levelwise learner for (variable and constant)
//!   CFDs with minimality pruning.
//! * [`violations`] — CFD violation detection on arbitrary relations.
//! * [`repair`] — reference-driven repair: exact CFD lookups plus fuzzy
//!   street normalisation against the address list.
//! * [`metrics`] — completeness / consistency / (syntactic) accuracy
//!   estimators, the quality evidence the paper's user context trades off.

pub mod cfd;
pub mod metrics;
pub mod repair;
pub mod violations;

pub use cfd::{learn_cfds, CfdLearnConfig};
pub use metrics::{
    accuracy_against_reference, consistency, consistency_applies, master_coverage,
    AccuracyTally, MetricTally, ReferencePopulation,
};
pub use repair::{repair, repair_with_reference, FuzzyIndex, RepairConfig, RepairReport};
pub use violations::{detect_violations, Violation};
