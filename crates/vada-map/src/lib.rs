//! # vada-map
//!
//! The **Mapping activity** (paper Table 1): schema mappings in VADA are
//! Vadalog programs (paper §2, the mapping role of the reasoner). This
//! crate:
//!
//! * [`generate`] — turns the matches in the knowledge base into candidate
//!   mapping programs: per-source projections, unions over primary
//!   sources, and (left-outer) joins with augmenting sources such as the
//!   deprivation table, through the engine's built-in `district` function
//!   (the postcode→district transformation);
//! * [`execute`] — runs a mapping through the Datalog engine against the
//!   source relations and coerces the answers into the typed target schema
//!   (this is where `£250,000`-style format drift is normalised);
//! * [`store`] — the result store the mapping transducers execute
//!   through, and the one home of candidate results: one materialisation
//!   per mapping *structure*, handed back while the knowledge-base delta
//!   journal proves no source changed, refreshed otherwise — a mapping
//!   re-run through [`execute`], or maintained by an incremental session
//!   while its sources take only row-level edits; a union assembled from
//!   its per-source parts, so that an edit to one source refreshes only
//!   the parts reading it, and kept as those parts rather than copied;
//!   every run over one version of a source shares one execution input;
//! * [`select`] — ranks candidates by weighted utility over their quality
//!   metrics, with weights from the AHP user context (paper §2.2/Fig 3(d)
//!   "mapping selection based on multi-dimensional optimisation").

pub mod execute;
pub mod generate;
pub mod select;
pub mod store;

pub use execute::{execute_mapping, ExecuteConfig};
pub use generate::{generate_candidates, MapGenConfig};
pub use select::{rank_mappings, MappingScore};
pub use store::{Candidate, Part, ResultStore};
