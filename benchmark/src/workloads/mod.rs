//! The five workloads and what they share: run parameters, the sample
//! book-keeping of one child process, and the scenario generator calls.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use vada::vada_common::Relation;
use vada::vada_extract::{Scenario, ScenarioConfig, UniverseConfig};
use vada::vada_kb::PairwiseStatement;

use crate::reference::Reference;
use crate::span::Recorder;
use crate::stats::{self, Summary};

pub mod datalog_reason;
pub mod durable_kb;
pub mod edit_rewrangle;
pub mod paygo_wrangle;
pub mod replay;
pub mod resolve_repair;

/// How one child process runs its workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed section, in seconds.
    pub seconds: f64,
    /// Record spans and run the stage replays (per-layer run).
    pub trace: bool,
    /// Toy input sizes, one set-up: the pre-commit run.
    pub smoke: bool,
    /// Test-only: corrupt one expected answer inside the harness, so that a
    /// correctness check must fail.
    pub inject_wrong_answer: bool,
    /// Scratch directory of this run (`benchmark/out/tmp/<pid>`).
    pub tmp: PathBuf,
    /// An auxiliary role of the workload, run under another profile.
    pub aux: Option<String>,
    /// Exactly this many operations in place of a timed section.
    pub ops: Option<usize>,
}

impl Params {
    /// `full` at benchmark size, `toy` in the smoke run.
    pub fn size(&self, full: usize, toy: usize) -> usize {
        if self.smoke {
            toy
        } else {
            full
        }
    }

    /// Whether one set-up is enough: the runs that do not report `setup_s`.
    fn single_setup(&self) -> bool {
        self.smoke || self.trace || self.aux.is_some()
    }

    /// An independent seed for stream `stream` of this run (splitmix64).
    pub fn seed_for(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What one child process measured.
#[derive(Debug)]
pub struct Bench {
    pub p: Params,
    pub rec: Recorder,
    reference: Reference,
    /// Reference-kernel times since the last operation was sampled.
    ref_window: Vec<f64>,
    samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub extras: BTreeMap<String, String>,
}

impl Bench {
    pub fn new(p: Params) -> Bench {
        Bench {
            p,
            rec: Recorder::new(false),
            reference: Reference::new(),
            ref_window: Vec::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            extras: BTreeMap::new(),
        }
    }

    /// One more sample of metric `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// More samples of metric `name`.
    pub fn extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// A metric measured once in the run.
    pub fn set(&mut self, name: &str, value: f64) {
        self.samples.insert(name.to_string(), vec![value]);
    }

    /// Record the spans named `span` as metric `metric`: seconds per
    /// iteration (summed over the calls of one iteration).
    pub fn busy(&mut self, metric: &str, span: &str) {
        let v = self.rec.busy_by_trace(span);
        self.samples.insert(metric.to_string(), v);
    }

    /// One operation attempted.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// A failed operation: a correctness check that did not hold, or an
    /// `Err` from the program.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
    }

    /// `ok` or a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Run `build` several times, sampling `setup_s`, and keep the last
    /// product: at least three times and until a second and a half has gone
    /// into set-up (fifteen times at most), so that a set-up of a few
    /// milliseconds is a median of many samples.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Bench) -> T) -> T {
        let clock = Instant::now();
        let mut reps = 0;
        loop {
            let start = Instant::now();
            let built = build(self);
            self.sample("setup_s", start.elapsed().as_secs_f64());
            reps += 1;
            let enough = reps >= 3 && clock.elapsed().as_secs_f64() >= 1.5;
            if self.p.single_setup() || enough || reps == 15 {
                return built;
            }
        }
    }

    /// Drive `op` (given the iteration number) in a closed loop until
    /// [`Params::seconds`] are up and `min_ops` are done, or for exactly
    /// [`Params::ops`] iterations. The clock is read only every `whole`
    /// iterations (operations that belong together are never cut apart), and
    /// the loop ends there once less than half of another `whole` would fit.
    /// `op` returns false to end the loop early. In a traced run every other
    /// group of `group` iterations is recorded under one trace id, so traced
    /// and untraced operations see the same state and the same drift.
    pub fn drive(
        &mut self,
        workload: &str,
        min_ops: usize,
        group: usize,
        whole: usize,
        mut op: impl FnMut(&mut Bench, usize) -> bool,
    ) {
        let clock = Instant::now();
        let mut i = 0usize;
        loop {
            let done = match self.p.ops {
                Some(n) => i >= n,
                None if !i.is_multiple_of(whole) || i < min_ops => false,
                None => {
                    let elapsed = clock.elapsed().as_secs_f64();
                    let next = if i == 0 {
                        0.0
                    } else {
                        elapsed / (i / whole) as f64
                    };
                    elapsed + next / 2.0 > self.p.seconds
                }
            };
            if done {
                break;
            }
            if self.ref_window.is_empty() {
                let before = self.reference.run();
                self.ref_window.push(before);
            }
            if i.is_multiple_of(group) {
                self.rec.set_enabled(self.p.trace && (i / group) % 2 == 1);
                self.rec.begin_trace(format!("{workload}/{}", i / group));
            }
            let more = op(self, i);
            i += 1;
            if !more || self.failed > 0 {
                break;
            }
        }
        self.rec.set_enabled(self.p.trace);
    }

    /// Whether the current iteration is being recorded.
    pub fn tracing(&self) -> bool {
        self.rec.enabled()
    }

    /// `(name, summary)` of every metric sampled, in name order.
    pub fn summaries(&self) -> Vec<(String, Summary)> {
        self.samples
            .iter()
            .map(|(k, v)| (k.clone(), stats::summarize(v)))
            .collect()
    }

    /// `trace_overhead_frac` from the op samples of the two halves of a
    /// traced run.
    pub fn trace_overhead(&mut self) {
        let traced = stats::median(self.samples_of("op_traced_s"));
        let untraced = stats::median(self.samples_of("op_s"));
        if traced > 0.0 && untraced > 0.0 {
            self.set("trace_overhead_frac", (traced - untraced) / untraced);
        }
    }

    /// Sample one operation's wall-clock: under `op_traced_s` when this
    /// iteration records spans, else under `op_s` and, divided by the mean
    /// of the reference kernel timed before it and now, under `op_ref`.
    pub fn sample_op(&mut self, seconds: f64) {
        let after = self.reference.run();
        self.ref_window.push(after);
        let kernel = self.ref_window.iter().sum::<f64>() / self.ref_window.len() as f64;
        // the kernel just run is also the one before the next operation
        self.ref_window = vec![after];
        if self.tracing() {
            self.sample("op_traced_s", seconds);
        } else {
            self.sample("op_s", seconds);
            self.sample("op_ref", seconds / kernel);
        }
    }
}

/// Same schema, same rows, same order.
pub fn same(a: &Relation, b: &Relation) -> bool {
    a.schema() == b.schema() && a.tuples() == b.tuples()
}

/// The real-estate scenario at `properties` ground-truth properties; the
/// universe and the defect injection draw from separate streams of the run's
/// seed.
pub fn scenario(p: &Params, properties: usize, duplicate_rate: f64) -> Scenario {
    Scenario::generate(ScenarioConfig {
        universe: UniverseConfig {
            properties,
            seed: p.seed_for(1),
        },
        duplicate_rate,
        seed: p.seed_for(2),
        ..ScenarioConfig::default()
    })
}

/// The paper's Fig 2(d) user context (the statements of
/// `vada_bench::paygo::paper_user_context`; the harness does not depend on
/// `vada-bench`).
pub fn paper_user_context() -> Vec<PairwiseStatement> {
    [
        (
            "completeness(crimerank)",
            "accuracy(property.type)",
            "very strongly",
        ),
        (
            "consistency(property)",
            "completeness(property.bedrooms)",
            "strongly",
        ),
        (
            "completeness(property.street)",
            "completeness(property.postcode)",
            "moderately",
        ),
    ]
    .into_iter()
    .map(|(more, less, strength)| PairwiseStatement {
        more_important: more.into(),
        less_important: less.into(),
        strength: strength.into(),
    })
    .collect()
}

/// Run the workload (or one of its auxiliary roles) named on the command
/// line of a child process.
pub fn run(workload: &str, bench: &mut Bench) -> Result<(), String> {
    match (workload, bench.p.aux.clone().as_deref()) {
        ("paygo_wrangle", None) => paygo_wrangle::run(bench),
        ("edit_rewrangle", None | Some("replay")) => edit_rewrangle::run(bench),
        ("datalog_reason", None) => datalog_reason::run(bench),
        ("datalog_reason", Some("undirected")) => datalog_reason::run_undirected(bench),
        ("resolve_repair", None) => resolve_repair::run(bench),
        ("resolve_repair", Some("threads")) => resolve_repair::run_threads(bench),
        ("durable_kb", None) => durable_kb::run(bench),
        (w, aux) => return Err(format!("unknown workload `{w}` (role {aux:?})")),
    }
    Ok(())
}
