//! # vada-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! displays (Table 1, Figures 2–3) and to quantify the demonstration's
//! pay-as-you-go claims. The `repro` binary drives the experiments listed
//! in DESIGN.md §4, and `repro bench --check` gates their structural cost;
//! wall-clock time is the external benchmark harness's (`benchmark/`).

pub mod check;
pub mod experiments;
pub mod paygo;
pub mod report;

pub use paygo::{run_paygo, PaygoConfig, PaygoOutcome, StepSnapshot};
