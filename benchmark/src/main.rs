//! The repo benchmark: five closed-loop, single-client wrangling workloads,
//! each checked for correctness, measured end to end and — in a separate
//! traced run — layer by layer. See `README.md` for the catalogue.
//!
//! ```text
//! vada-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one benchmark run; the last line of standard output is the JSON result
//! vada-benchmark all | trace | repeat | smoke  [--seed <n>] [--seconds <s>]
//!     every workload: end-to-end table / per-layer table / two runs compared
//!     against the bounds / toy sizes with every check on
//! vada-benchmark catalog
//!     print BENCHMARK.json
//! ```
//!
//! The process started from the command line is the parent: it measures
//! nothing itself but runs each workload in a child process of its own (this
//! same executable, `child ...`) under exactly that workload's `VADA_*`
//! profile, and merges what the children report.

mod catalog;
mod proc;
mod reference;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Better, Metric, Workload};
use report::Report;
use stats::Summary;
use workloads::{Bench, Params};

const DEFAULT_SEED: u64 = 20170514;

/// The command line: which workload (all of them when absent), and how.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    p: Params,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut p = Params {
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        inject_wrong_answer: false,
        tmp: PathBuf::new(),
        aux: None,
        ops: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        let bad = |v: &str| format!("`{flag} {v}` is not valid");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => p.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                p.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(p.seconds > 0.0 && p.seconds <= 3600.0) {
                    return Err(format!("`--seconds {}` is out of range", p.seconds));
                }
            }
            "--trace" => {
                p.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => p.smoke = true,
            "--inject-wrong-answer" => p.inject_wrong_answer = true,
            "--tmp" => p.tmp = PathBuf::from(value()?),
            "--aux" => p.aux = Some(value()?),
            "--ops" => p.ops = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options { workload, p })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("all" | "trace" | "repeat" | "smoke" | "catalog" | "child")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let options = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vada-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if mode == "catalog" {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if mode == "child" {
        return child(&options);
    }
    let ok = match proc::prepare_scratch() {
        Ok(tmp) => {
            let mut o = options;
            o.p.tmp = tmp;
            match mode {
                "trace" => o.p.trace = true,
                "smoke" => {
                    o.p.smoke = true;
                    o.p.seconds = o.p.seconds.min(0.5);
                }
                _ => {}
            }
            match mode {
                "run" => run_one(&o),
                "repeat" => repeat(&o),
                _ => run_all(&o, false).0,
            }
        }
        Err(e) => {
            eprintln!(
                "vada-benchmark: cannot create {}: {e}",
                proc::scratch_dir().display()
            );
            false
        }
    };
    proc::remove_scratch();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- child

/// A child process: run one workload (or one auxiliary role of it) under
/// the environment it was given, and report.
fn child(o: &Options) -> ExitCode {
    let Some(workload) = o.workload.clone() else {
        eprintln!("vada-benchmark: `child` needs --workload");
        return ExitCode::from(2);
    };
    let mut bench = Bench::new(o.p.clone());
    // a panic anywhere below the harness is a failed operation, not a crash
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workloads::run(&workload, &mut bench)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("vada-benchmark: {e}");
            return ExitCode::from(2);
        }
        Err(_) => {
            bench.attempt();
            bench.fail(format!("`{workload}` panicked"));
        }
    }
    bench.set("peak_rss_mb", proc::peak_rss_mb());
    if o.p.trace {
        // spans stay in memory until the run has ended
        if let Err(e) = std::fs::write(
            o.p.tmp.join("spans.jsonl"),
            span::to_jsonl(bench.rec.spans()),
        ) {
            eprintln!("vada-benchmark: cannot write spans: {e}");
        }
    }
    print!("{}", report::child_records(&bench, &proc::knobs_in_env()));
    if bench.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every span closed after it opened, and its children inside it without
/// overlap: self time plus the children's time is the span's own.
fn check_spans(spans: &[span::Span]) -> Result<(), String> {
    let mut children: std::collections::BTreeMap<u64, u64> = Default::default();
    for s in spans {
        if let Some(p) = s.parent_id {
            *children.entry(p).or_default() += s.duration_ns();
        }
    }
    for (s, own) in spans.iter().zip(span::self_times_ns(spans)) {
        let kids = children.get(&s.span_id).copied().unwrap_or(0);
        if s.end_ns < s.start_ns || own + kids != s.duration_ns() {
            return Err(format!(
                "span `{}` of {}: self {own} ns + children {kids} ns != {} ns",
                s.name,
                s.trace_id,
                s.duration_ns()
            ));
        }
    }
    Ok(())
}

// --------------------------------------------------------------- parent

/// Start a child for `workload` under `profile` and read its report. A
/// child that cannot be started or does not exit cleanly has failed.
fn spawn(o: &Options, workload: &str, profile: &[(&str, String)], extra: &[String]) -> Report {
    let tmp = &o.p.tmp;
    let started = proc::child_command(profile).and_then(|mut cmd| {
        cmd.arg("child")
            .args([
                "--workload",
                workload,
                "--seed",
                &o.p.seed.to_string(),
                "--seconds",
                &o.p.seconds.to_string(),
            ])
            .args(["--trace", if o.p.trace { "1" } else { "0" }])
            .arg("--tmp")
            .arg(tmp)
            .args(extra);
        if o.p.smoke {
            cmd.arg("--smoke");
        }
        if o.p.inject_wrong_answer {
            cmd.arg("--inject-wrong-answer");
        }
        proc::run_child(cmd)
    });
    match started {
        Ok((stdout, clean)) => {
            let mut report = report::parse_child(&stdout);
            if !clean && report.failed == 0 {
                report.attempted += 1;
                report.failed += 1;
            }
            report
        }
        Err(e) => {
            eprintln!("vada-benchmark: cannot run a child for `{workload}`: {e}");
            Report {
                attempted: 1,
                failed: 1,
                ..Report::default()
            }
        }
    }
}

fn profile_of(w: &Workload) -> Vec<(&'static str, String)> {
    w.profile.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

/// Run one workload: its main child under its profile, then the auxiliary
/// children that need another profile, merged into one report.
fn run_workload(o: &Options, w: &Workload) -> Report {
    let mut report = spawn(o, w.name, &profile_of(w), &[]);
    if report.failed > 0 {
        return report;
    }
    // auxiliary roles are references: untraced, and never corrupted
    let mut untraced = o.clone();
    untraced.p.trace = false;
    untraced.p.inject_wrong_answer = false;
    match w.name {
        "edit_rewrangle" => {
            // the same script under no profile (full evaluation) must end in
            // a byte-identical result
            let ops = report.extras.get("ops").cloned().unwrap_or_default();
            let replay = spawn(
                &untraced,
                w.name,
                &[],
                &["--aux".into(), "replay".into(), "--ops".into(), ops],
            );
            report.attempted += 1;
            let same = replay.failed == 0
                && replay.extras.contains_key("digest")
                && replay.extras.get("digest") == report.extras.get("digest");
            if !same {
                report.failed += 1;
                eprintln!(
                    "FAILED: edit_rewrangle under its profile ends in {:?}, the full-evaluation replay in {:?}",
                    report.extras.get("digest"),
                    replay.extras.get("digest")
                );
            }
            if o.p.trace && report.median("op_ref") > 0.0 {
                let speedup = replay.median("op_ref") / report.median("op_ref");
                report
                    .metrics
                    .insert("map.incremental.speedup".into(), Summary::single(speedup));
            }
        }
        "datalog_reason" if o.p.trace => {
            let aux = spawn(
                &untraced,
                w.name,
                &[],
                &["--aux".into(), "undirected".into()],
            );
            report.attempted += aux.attempted;
            report.failed += aux.failed;
            if let Some(s) = aux.metrics.get("datalog.undirected_query_s") {
                report
                    .metrics
                    .insert("datalog.undirected_query_s".into(), *s);
                let directed = report.median("datalog.bound_query_s");
                if directed > 0.0 {
                    report.metrics.insert(
                        "datalog.directed.speedup".into(),
                        Summary::single(s.median / directed),
                    );
                }
            }
        }
        "resolve_repair" if o.p.trace => {
            let threads = proc::nproc().min(4).to_string();
            let aux = spawn(
                &untraced,
                w.name,
                &[("VADA_THREADS", threads)],
                &["--aux".into(), "threads".into()],
            );
            report.attempted += aux.attempted;
            report.failed += aux.failed;
            let sequential =
                report.median("fusion.cluster.busy_s") + report.median("fusion.fuse.busy_s");
            let threaded = aux.median("resolve_threaded_s");
            if threaded > 0.0 {
                report.metrics.insert(
                    "common.par.resolve_speedup".into(),
                    Summary::single(sequential / threaded),
                );
            }
        }
        _ => {}
    }
    if o.p.trace {
        report.attempted += 1;
        if let Err(e) = collect_spans(o) {
            report.failed += 1;
            eprintln!("FAILED: spans of {}: {e}", w.name);
        }
    }
    report
}

/// Read back the spans the traced child left in the scratch directory,
/// check them, and move them to the end of `benchmark/out/trace.jsonl`.
fn collect_spans(o: &Options) -> Result<(), String> {
    use std::io::Write;
    let from = o.p.tmp.join("spans.jsonl");
    let text = std::fs::read_to_string(&from).map_err(|e| e.to_string())?;
    check_spans(&span::from_jsonl(&text)?)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(proc::out_dir().join("trace.jsonl"))
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write trace.jsonl: {e}"))?;
    let _ = std::fs::remove_file(from);
    Ok(())
}

fn metrics_of(o: &Options) -> Vec<Metric> {
    if o.p.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    }
}

/// What the `all` table shows: the end-to-end metrics, and beside them the
/// ungated ones an untraced run measures anyway.
fn table_metrics_of(o: &Options) -> Vec<Metric> {
    let mut metrics = metrics_of(o);
    if !o.p.trace {
        let untraced = ["op_s", "peak_rss_mb"];
        metrics.extend(
            catalog::per_layer()
                .into_iter()
                .filter(|m| untraced.contains(&m.name.as_str())),
        );
    }
    metrics
}

/// One benchmark run: `--workload` alone, result as one JSON line.
fn run_one(o: &Options) -> bool {
    let Some(w) = o.workload.as_deref().and_then(catalog::workload) else {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "vada-benchmark: --workload must be one of {}",
            names.join(", ")
        );
        return false;
    };
    if o.p.trace {
        let _ = std::fs::remove_file(proc::out_dir().join("trace.jsonl"));
    }
    let report = run_workload(o, w);
    println!("{}", report::result_line(&report, &metrics_of(o)));
    report.failed == 0
}

/// Every workload in turn, as a table; `quiet` keeps `repeat` from printing
/// each of its two runs in full.
fn run_all(o: &Options, quiet: bool) -> (bool, Vec<(&'static str, Report)>) {
    let metrics = table_metrics_of(o);
    if o.p.trace {
        let _ = std::fs::remove_file(proc::out_dir().join("trace.jsonl"));
    }
    println!(
        "seed {}, {} s per workload, {} processors, one client thread",
        o.p.seed,
        o.p.seconds,
        proc::nproc()
    );
    let mut results = Vec::new();
    for w in &catalog::WORKLOADS {
        if o.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let report = run_workload(o, w);
        if !quiet {
            print!("{}", report::table(w.name, &report, &metrics));
        }
        results.push((w.name, report));
    }
    let ok = !results.is_empty() && results.iter().all(|(_, r)| r.failed == 0);
    if !o.p.smoke && !quiet {
        let file = proc::out_dir().join(if o.p.trace {
            "results-trace.json"
        } else {
            "results.json"
        });
        match std::fs::write(&file, report::results_json(o.p.seed, &results, &metrics)) {
            Ok(()) => println!("wrote {}", file.display()),
            Err(e) => eprintln!("vada-benchmark: cannot write {}: {e}", file.display()),
        }
    }
    println!(
        "{}",
        if ok {
            "all correctness checks passed"
        } else {
            "FAILED: see above"
        }
    );
    (ok, results)
}

/// The end-to-end set twice on the same build: every metric of every
/// workload must agree within its own bound.
fn repeat(o: &Options) -> bool {
    let (ok1, first) = run_all(o, true);
    let (ok2, second) = run_all(o, true);
    let mut ok = ok1 && ok2;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for m in catalog::end_to_end() {
            let (x, y) = (a.median(&m.name), b.median(&m.name));
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let differ = if x.min(y) > 0.0 {
                (x - y).abs() / x.min(y)
            } else {
                f64::INFINITY
            };
            let verdict = if differ > bound {
                "  <-- beyond its bound"
            } else {
                ""
            };
            println!(
                "{workload:<16} {:<14} {x:>14.6} {y:>14.6} {:>8.2}% {bound:>7}{verdict}",
                m.name,
                differ * 100.0
            );
            if differ > bound {
                ok = false;
                let side = if (m.better == Better::Lower) == (y > x) {
                    "worse"
                } else {
                    "better"
                };
                eprintln!(
                    "FAILED: {} on {workload}: the second run is {:.1}% {side} than the first",
                    m.name,
                    differ * 100.0
                );
            }
        }
    }
    ok
}
