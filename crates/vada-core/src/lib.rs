//! # vada-core
//!
//! The VADA architecture itself (paper §2, Figure 1): **transducers**
//! whose input dependencies are Datalog queries over the knowledge base,
//! a **network transducer** that dynamically picks which runnable
//! transducer executes next (§2.4), **feedback propagation** (§2.3) and a
//! browsable **trace** (§3), all behind the [`Wrangler`] facade that a
//! data scientist drives through the four pay-as-you-go steps of the
//! demonstration:
//!
//! ```no_run
//! use vada_core::Wrangler;
//! use vada_common::Schema;
//! # fn sources() -> Vec<vada_common::Relation> { vec![] }
//! let mut w = Wrangler::new();
//! for source in sources() {
//!     w.add_source(source);
//! }
//! w.set_target(Schema::all_str("property", &["street", "postcode"]));
//! let report = w.run().unwrap();       // step 1: automatic bootstrapping
//! println!("{}", report.trace_summary);
//! ```
//!
//! Components are registered in a [`registry::TransducerCatalog`]; the
//! architecture "is not tied to a specific or fixed set of transducers" —
//! implement [`Transducer`] and add yours.

pub mod components;
pub mod criteria;
pub mod network;
pub mod orchestrator;
pub mod registry;
pub mod trace;
pub mod transducer;
pub mod wrangler;

pub use network::{GenericPolicy, SchedulingPolicy, SpecificPolicy};
pub use orchestrator::Orchestrator;
pub use registry::{default_transducers, TransducerCatalog};
pub use trace::{Trace, TraceEntry};
pub use transducer::{Activity, RunOutcome, Transducer};
pub use wrangler::{RunReport, Wrangler};
