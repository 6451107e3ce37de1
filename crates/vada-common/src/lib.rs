//! # vada-common
//!
//! Shared substrate for the VADA data-wrangling architecture: typed nullable
//! [`Value`]s, relational [`Schema`]s and [`Relation`]s, a small CSV
//! reader/writer, string-similarity primitives used by the matching and
//! fusion components, and common error types.
//!
//! Every other crate in the workspace builds on these types; keeping them in
//! one dependency-free crate avoids cycles between the wrangling components.

pub mod codec;
pub mod csv;
pub mod error;
pub mod obs;
pub mod relation;
pub mod schema;
pub mod text;
pub mod tuple;
pub mod value;

pub use error::{Result, VadaError};
pub use obs::{Obs, ObsReport, SpanGuard};
pub use relation::Relation;
pub use schema::{AttrType, Attribute, Schema};
pub use tuple::Tuple;
pub use value::Value;
