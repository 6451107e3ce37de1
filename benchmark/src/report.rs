//! What a child process tells its parent (one tab-separated record per
//! line of its standard output), and what the parent prints: the one-line
//! JSON result of a benchmark run, the tables of the other modes, and
//! `results.json`.

use std::collections::BTreeMap;

use crate::catalog::Metric;
use crate::stats::Summary;
use crate::workloads::Bench;

/// One workload's measurements, as reported by a child and as merged by
/// the parent.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub metrics: BTreeMap<String, Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub extras: BTreeMap<String, String>,
    /// The `VADA_*` variables the child found in its environment.
    pub knobs: Vec<String>,
}

impl Report {
    pub fn median(&self, metric: &str) -> f64 {
        self.metrics.get(metric).map_or(0.0, |s| s.median)
    }
}

/// The records of a finished child: `M` a metric's summary, `R` operations
/// attempted and failed, `X` an extra, `K` a `VADA_*` variable seen.
pub fn child_records(b: &Bench, knobs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, s) in b.summaries() {
        out.push_str(&format!(
            "M\t{name}\t{}\t{}\t{}\t{}\n",
            s.median, s.q1, s.q3, s.n
        ));
    }
    out.push_str(&format!("R\t{}\t{}\n", b.attempted, b.failed));
    for (k, v) in &b.extras {
        out.push_str(&format!("X\t{k}\t{v}\n"));
    }
    for (k, v) in knobs {
        out.push_str(&format!("K\t{k}={v}\n"));
    }
    out
}

/// Read a child's records back. A child that reported no `R` record did
/// not finish: that is one operation attempted and failed.
pub fn parse_child(stdout: &str) -> Report {
    let mut report = Report::default();
    let mut finished = false;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        match f[0] {
            "M" => {
                if let (Some(name), Some(median), Some(q1), Some(q3), Some(n)) =
                    (f.get(1), num(2), num(3), num(4), num(5))
                {
                    report.metrics.insert(
                        name.to_string(),
                        Summary {
                            median,
                            q1,
                            q3,
                            n: n as usize,
                        },
                    );
                }
            }
            "R" => {
                if let (Some(attempted), Some(failed)) = (num(1), num(2)) {
                    report.attempted = attempted as u64;
                    report.failed = failed as u64;
                    finished = true;
                }
            }
            "X" if f.len() == 3 => {
                report.extras.insert(f[1].to_string(), f[2].to_string());
            }
            "K" if f.len() == 2 => report.knobs.push(f[1].to_string()),
            _ => {}
        }
    }
    if !finished {
        report.attempted = report.attempted.max(1);
        report.failed = report.failed.max(1);
    }
    report
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line of a benchmark run: `correct`, `attempted`, `failed`,
/// and the value and unit of every metric of `metrics` (zero for a layer
/// the workload never entered).
pub fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(report.median(&m.name)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        values.join(", ")
    )
}

/// A table of `metrics` for one workload: name, unit, direction, bound,
/// median, quartiles and sample count, then operations attempted and failed.
pub fn table(workload: &str, report: &Report, metrics: &[Metric]) -> String {
    let mut out = format!(
        "== {workload}: {} operations attempted, {} failed; knobs seen: [{}]\n",
        report.attempted,
        report.failed,
        report.knobs.join(" ")
    );
    out.push_str(&format!(
        "{:<44} {:>6} {:>7} {:>6} {:>14} {:>14} {:>14} {:>6}\n",
        "metric", "unit", "better", "bound", "median", "q1", "q3", "n"
    ));
    for m in metrics {
        let s = report.metrics.get(&m.name).copied().unwrap_or_default();
        out.push_str(&format!(
            "{:<44} {:>6} {:>7} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>6}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.map_or("-".to_string(), |b| b.to_string()),
            s.median,
            s.q1,
            s.q3,
            s.n
        ));
    }
    out
}

/// `results.json`: one object per metric × workload.
pub fn results_json(seed: u64, results: &[(&str, Report)], metrics: &[Metric]) -> String {
    let mut rows = Vec::new();
    for (workload, report) in results {
        for m in metrics {
            let Some(s) = report.metrics.get(&m.name) else {
                continue;
            };
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"attempted\": {}, \"failed\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.map_or("null".to_string(), |b| b.to_string()),
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
                s.n,
                report.attempted,
                report.failed
            ));
        }
    }
    format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        crate::proc::nproc(),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn child_records_round_trip() {
        let stdout = "noise\nM\top_s\t0.5\t0.4\t0.6\t12\nM\tsetup_s\t1.25\t1\t1.5\t3\nR\t13\t0\nX\tdigest\tabc\nK\tVADA_MAGIC=1\n";
        let r = parse_child(stdout);
        assert_eq!(
            r.metrics["op_s"],
            Summary {
                median: 0.5,
                q1: 0.4,
                q3: 0.6,
                n: 12
            }
        );
        assert_eq!((r.attempted, r.failed), (13, 0));
        assert_eq!(r.extras["digest"], "abc");
        assert_eq!(r.knobs, vec!["VADA_MAGIC=1"]);
    }

    #[test]
    fn a_child_that_never_finished_is_a_failed_operation() {
        let r = parse_child("M\top_s\t0.5\t0.4\t0.6\t12\n");
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = parse_child("M\top_ref\t30.5\t30\t31\t12\nR\t13\t0\n");
        r.metrics
            .insert("setup_s".into(), Summary::single(f64::NAN));
        let line = result_line(&r, &catalog::end_to_end());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 13, \"failed\": 0, \"metrics\": {\
             \"op_ref\": {\"value\": 30.5, \"unit\": \"ratio\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
