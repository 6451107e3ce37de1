//! # vada-match
//!
//! The **Matching activity** (paper Table 1): deriving attribute
//! correspondences between source schemas and the target schema.
//!
//! Two matcher families with the input dependencies the paper lists:
//!
//! * [`schema_match`](schema_match::schema_match) needs only the *schemas*
//!   (attribute names): normalised edit distance, token overlap, q-gram
//!   similarity and a synonym lexicon.
//! * [`instance_match`](instance_match::instance_match) additionally needs
//!   *instances* for the target side — in VADA these come from the data
//!   context (reference/master/example relations bound to target
//!   attributes, paper §2.2): value-set overlap plus numeric-profile
//!   similarity. It is the composition of a [`PreparedContext`], built
//!   once, and [`match_source`] per source, which also reports how far into
//!   the source its sample read.
//!
//! [`combine`](combine::combine) merges the two evidence streams; the
//! pay-as-you-go story of the demo is visible here as match precision
//! improving once instance evidence becomes available.

pub mod combine;
pub mod correspondence;
pub mod instance_match;
pub mod schema_match;

pub use combine::{combine, CombineConfig};
pub use correspondence::Correspondence;
pub use instance_match::{
    instance_match, match_source, ContextColumn, InstanceMatchConfig, PreparedContext,
};
pub use schema_match::{schema_match, SchemaMatchConfig};
