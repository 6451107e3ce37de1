//! The catalogue: the five workloads with their `VADA_*` profiles, and
//! every metric by name with its unit, direction and regression bound.
//! `BENCHMARK.json` at the root of the repository is this catalogue written
//! out (`vada-benchmark catalog`); a test keeps the two identical.

use crate::workloads::paygo_wrangle::TRANSDUCERS;

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    /// The `VADA_*` variables the workload's child process runs under.
    pub profile: &'static [(&'static str, &'static str)],
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paygo_wrangle",
        profile: &[],
        why: "A whole from-scratch wrangle from CSV text through the paper's four steps, as a user gets it by default: every layer takes part, mapping quality evaluation dominates.",
    },
    Workload {
        name: "edit_rewrangle",
        profile: &[("VADA_INCREMENTAL", "1")],
        why: "The interactive loop: 32-row source edits and 20-cell feedback, each followed by a re-run; small writes beside large re-reads, the traffic incremental maintenance was built for.",
    },
    Workload {
        name: "datalog_reason",
        profile: &[("VADA_MAGIC", "1")],
        why: "The reasoner alone: from-scratch fixpoint, bound recursive queries and 64-row deltas by direct engine calls; an engine change shows undiluted, a fusion or quality change not at all.",
    },
    Workload {
        name: "resolve_repair",
        profile: &[],
        why: "Match, fusion and quality alone on 67k dirty rows with a fifth duplicated, by direct library calls; the mirror image of datalog_reason, where datalog does nothing.",
    },
    Workload {
        name: "durable_kb",
        profile: &[],
        why: "The storage layer for writes, then recovery: CSV ingest into a persisted KB, single-row edits past the 4096-event journal window, then cycles of edits and a restart.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, on every workload: what one operation
/// costs, and how long set-up takes. The cost of an operation is gated as
/// `op_ref`, its wall-clock in units of the reference kernel timed around it
/// (see `reference.rs`): on a host whose speed drifts by a third, seconds
/// alone cannot hold any bound the contract allows. The seconds themselves
/// are `op_s`, among the ungated metrics.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        Metric {
            bound: Some(0.25),
            ..metric("op_ref", "ratio", Better::Lower)
        },
        Metric {
            bound: Some(0.25),
            ..metric("setup_s", "s", Better::Lower)
        },
    ]
}

/// The per-layer metrics of the traced run. Layers are the crates.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = vec![
        metric("core.bootstrap_s", "s", Lower),
        metric("core.result_f1", "ratio", Higher),
        metric("core.rewrangle_tail_s", "s", Lower),
        metric("core.rewrangle_tail_pct", "%", Higher),
        metric("core.orchestrate.self_s", "s", Lower),
        metric("core.steps.executed", "count", Lower),
    ];
    out.extend(
        TRANSDUCERS
            .iter()
            .map(|t| metric(&format!("core.step.{t}.busy_s"), "s", Lower)),
    );
    out.extend([
        metric("kb.register.busy_s", "s", Lower),
        metric("kb.edit.busy_s", "s", Lower),
        metric("kb.depquery.busy_s", "s", Lower),
        metric("kb.storage.ingest_s", "s", Lower),
        metric("kb.storage.edit_ack_s", "s", Lower),
        metric("kb.storage.edit_ack_postwindow_s", "s", Lower),
        metric("kb.storage.edit_ack_p99_s", "s", Lower),
        metric("kb.storage.recover_s", "s", Lower),
        metric("kb.storage.write_amp_prewindow", "ratio", Lower),
        metric("kb.storage.write_amp_postwindow", "ratio", Lower),
        metric("kb.storage.bytes_written", "B", Lower),
        metric("kb.storage.write_syscalls", "count", Lower),
        metric("kb.storage.disk_bytes", "B", Lower),
        metric("datalog.parse.busy_s", "s", Lower),
        metric("datalog.run.busy_s", "s", Lower),
        metric("datalog.run.derived_facts", "count", Lower),
        metric("datalog.run.facts_per_s", "1/s", Higher),
        metric("datalog.bound_query_s", "s", Lower),
        metric("datalog.delta_apply_s", "s", Lower),
        metric("datalog.delta_retract_s", "s", Lower),
        metric("datalog.session.bootstrap_s", "s", Lower),
        metric("datalog.delta.derived_facts", "count", Lower),
        metric("datalog.delta.vs_full_ratio", "ratio", Higher),
        metric("datalog.undirected_query_s", "s", Lower),
        metric("datalog.directed.speedup", "ratio", Higher),
        metric("map.generate.busy_s", "s", Lower),
        metric("map.execute.busy_s", "s", Lower),
        metric("map.execute.rows_per_s", "1/s", Higher),
        metric("map.execute.self_s", "s", Lower),
        metric("map.select.busy_s", "s", Lower),
        metric("map.incremental.speedup", "ratio", Higher),
        metric("match.schema.busy_s", "s", Lower),
        metric("match.instance.busy_s", "s", Lower),
        metric("fusion.block.busy_s", "s", Lower),
        metric("fusion.cluster.busy_s", "s", Lower),
        metric("fusion.fuse.busy_s", "s", Lower),
        metric("fusion.candidate_pairs", "count", Lower),
        metric("fusion.pair_hit_ratio", "ratio", Higher),
        metric("fusion.rows_per_s", "1/s", Higher),
        metric("quality.cfd_learn.busy_s", "s", Lower),
        metric("quality.violations.busy_s", "s", Lower),
        metric("quality.repair.busy_s", "s", Lower),
        metric("quality.repair.fixes", "count", Higher),
        metric("quality.metrics.busy_s", "s", Lower),
        metric("context.ahp.busy_s", "s", Lower),
        metric("common.csv.read_s", "s", Lower),
        metric("common.csv.rows_per_s", "1/s", Higher),
        metric("common.par.resolve_speedup", "ratio", Higher),
        metric("extract.generate.busy_s", "s", Lower),
        metric("trace_overhead_frac", "ratio", Lower),
        metric("peak_rss_mb", "MB", Lower),
        metric("op_s", "s", Lower),
    ]);
    out
}

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_catalogue() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- catalog > BENCHMARK.json"
        );
    }

    #[test]
    fn catalogue_respects_the_benchmark_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut names = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{m:?}");
            assert!(names.insert(m.name.clone()), "`{}` is used twice", m.name);
        }
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name.to_string()));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {} chars",
                w.name,
                w.why.len()
            );
            assert!(w
                .profile
                .iter()
                .all(|(k, _)| k.starts_with(crate::proc::KNOB_PREFIX)));
        }
    }
}
