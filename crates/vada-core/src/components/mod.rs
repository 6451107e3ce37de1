//! The built-in wrangling components, each wrapped as a [`Transducer`].
//!
//! | Activity  | Transducer            | Input dependency (paper Table 1)        |
//! |-----------|-----------------------|-----------------------------------------|
//! | Extraction| `csv_ingestion`       | staged raw documents                    |
//! | Matching  | `schema_matching`     | source & target schemas                 |
//! | Matching  | `instance_matching`   | source & target (context) instances     |
//! | Mapping   | `mapping_generation`  | matches over source & target schemas    |
//! | Quality   | `cfd_learning`        | data-context instances (examples)       |
//! | Quality   | `source_profiling`    | source instances                        |
//! | Quality   | `mapping_quality`     | candidate mappings                      |
//! | Selection | `mapping_selection`   | quality metrics                         |
//! | Execution | `mapping_execution`   | a selected mapping                      |
//! | Repair    | `result_repair`       | a result and learned CFDs               |
//! | Fusion    | `duplicate_detection` | a result                                |
//! | Fusion    | `data_fusion`         | detected duplicate clusters             |
//! | Feedback  | `feedback_repair`     | feedback annotations                    |
//! | Feedback  | `mapping_evaluation`  | feedback annotations                    |
//!
//! Four of them write the result, all but the first store row by row.
//! `mapping_execution` stores it whole the first time and whenever what the
//! result was built under changed; otherwise it diffs its output against
//! its previous output and restores only the blocks the diff reached
//! (`KnowledgeBase::remove_rows` / `insert_rows`). The diff is the result
//! store's: each part of the output names the version it refreshed and
//! the row of it each row continues, so execution pairs rows without
//! comparing the two outputs. `result_repair`,
//! `data_fusion` and `feedback_repair` edit it row by row
//! (`KnowledgeBase::update_source` / `remove_rows`), writing only the rows
//! they change. `result_repair` and `duplicate_detection` follow all of
//! those row edits between runs and re-check only the rows and blocks they
//! touched; after a whole-result write they check everything, through the
//! same code. What keeps that work local — the block, and repair never
//! moving a row out of it — is stated once, in `locality`.
//!
//! [`Transducer`]: crate::transducer::Transducer

pub mod extraction;
pub mod feedback;
mod follow;
pub mod fusion_t;
mod locality;
pub mod mapping;
pub mod matching;
#[cfg(test)]
mod per_source_tests;
mod prepared;
pub mod quality;
pub mod repair_t;

pub use extraction::CsvIngestion;
pub use feedback::{FeedbackRepair, MappingEvaluation};
pub use fusion_t::{DataFusion, DuplicateDetection};
pub use mapping::{MappingExecution, MappingGeneration, MappingSelection};
pub use matching::{InstanceMatching, SchemaMatching};
pub use quality::{CfdLearning, MappingQuality, SourceProfiling};
pub use repair_t::ResultRepair;
