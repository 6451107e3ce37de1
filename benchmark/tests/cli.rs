//! The built executable, driven as the driver and a developer drive it:
//! environment hygiene, the result line, and the injected wrong answer.

use std::path::Path;
use std::process::{Command, Stdio};

const WORKLOADS: [(&str, &str); 5] = [
    ("paygo_wrangle", ""),
    ("edit_rewrangle", "VADA_INCREMENTAL=1"),
    ("datalog_reason", "VADA_MAGIC=1"),
    ("resolve_repair", ""),
    ("durable_kb", ""),
];

/// Run the harness with `args` under a hostile ambient environment; returns
/// its standard output, whether it succeeded, and its process id.
fn harness(args: &[&str]) -> (String, bool, u32) {
    let child = Command::new(env!("CARGO_BIN_EXE_vada-benchmark"))
        .args(args)
        .env("VADA_THREADS", "4")
        .env("VADA_WAL", "tmpdir")
        .env("VADA_SHARDS", "3")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the harness starts");
    let pid = child.id();
    let output = child.wait_with_output().expect("the harness ends");
    (
        String::from_utf8(output.stdout).expect("utf-8 output"),
        output.status.success(),
        pid,
    )
}

#[test]
fn ambient_knobs_do_not_reach_a_workload_and_scratch_is_cleaned() {
    let (stdout, ok, pid) = harness(&["smoke"]);
    assert!(ok, "smoke run failed:\n{stdout}");
    for (workload, profile) in WORKLOADS {
        let header = stdout
            .lines()
            .find(|l| l.starts_with(&format!("== {workload}:")))
            .unwrap_or_else(|| panic!("no table for {workload}:\n{stdout}"));
        // each child saw exactly its profile: no VADA_THREADS, no VADA_WAL
        assert!(
            header.ends_with(&format!("knobs seen: [{profile}]")),
            "{header}"
        );
        assert!(header.contains(" 0 failed"), "{header}");
    }
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out/tmp")
        .join(pid.to_string());
    assert!(!scratch.exists(), "{} was left behind", scratch.display());
}

#[test]
fn an_injected_wrong_answer_is_a_failed_operation_and_a_nonzero_exit() {
    let (stdout, ok, _) = harness(&["smoke", "--inject-wrong-answer"]);
    assert!(!ok, "a wrong answer must not exit 0:\n{stdout}");
    for (workload, _) in WORKLOADS {
        let header = stdout
            .lines()
            .find(|l| l.starts_with(&format!("== {workload}:")))
            .expect("a table");
        assert!(
            !header.contains(" 0 failed"),
            "{workload} did not notice: {header}"
        );
    }
}

#[test]
fn a_benchmark_run_ends_in_the_result_line() {
    let run = |trace: &str| {
        let args = [
            "--workload",
            "resolve_repair",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--smoke",
        ];
        let (stdout, ok, _) = harness(&args);
        assert!(ok, "{stdout}");
        stdout.lines().last().expect("a result line").to_string()
    };
    let line = run("0");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for metric in ["\"op_ref\": {\"value\": ", "\"setup_s\": {\"value\": 0."] {
        assert!(line.contains(metric), "{metric} missing from {line}");
    }
    assert!(!line.contains("fusion."), "{line}");

    let line = run("1");
    for metric in [
        "fusion.cluster.busy_s",
        "quality.repair.fixes",
        "common.par.resolve_speedup",
        "trace_overhead_frac",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric} missing from {line}"
        );
    }
    assert!(!line.contains("\"op_ref\""), "{line}");
    // the layers this workload never enters read as zero
    assert!(
        line.contains("\"datalog.run.busy_s\": {\"value\": 0, "),
        "{line}"
    );

    let (_, ok, _) = harness(&[
        "--workload",
        "no_such_workload",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
}
