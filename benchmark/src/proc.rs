//! Process hygiene: the `VADA_*` environment contract, child processes,
//! scratch directories, and the `/proc` counters the metrics read.
//!
//! Execution modes of the program are selected only through `VADA_*`
//! variables. The parent therefore removes every such variable it inherited
//! and runs each workload in a child process of its own whose environment
//! holds exactly that workload's profile; a knob a later change deletes
//! turns its variable into a no-op and the workload keeps measuring the same
//! traffic.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Prefix of every environment variable the program reads.
pub const KNOB_PREFIX: &str = "VADA_";

/// `benchmark/out`, where results, traces and scratch directories go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The scratch directory of this process, `benchmark/out/tmp/<pid>`: every
/// WAL directory of a run lives under its parent's.
pub fn scratch_dir() -> PathBuf {
    out_dir().join("tmp").join(std::process::id().to_string())
}

/// Create this process's scratch directory, first deleting it and the
/// directories of processes that no longer exist.
pub fn prepare_scratch() -> std::io::Result<PathBuf> {
    let root = out_dir().join("tmp");
    if let Ok(entries) = std::fs::read_dir(&root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let alive = Path::new("/proc").join(&name).exists();
            if !alive || name.to_string_lossy() == std::process::id().to_string() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Delete this process's scratch directory (and `tmp/` once it is empty).
pub fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_dir());
    let _ = std::fs::remove_dir(out_dir().join("tmp"));
}

/// The `VADA_*` variables of this process's own environment.
pub fn knobs_in_env() -> Vec<(String, String)> {
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with(KNOB_PREFIX))
        .collect();
    knobs.sort();
    knobs
}

/// A command for this executable whose environment carries no inherited
/// `VADA_*` variable and exactly the variables of `profile`.
pub fn child_command(profile: &[(&str, String)]) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    for (knob, _) in knobs_in_env() {
        cmd.env_remove(knob);
    }
    for (knob, value) in profile {
        cmd.env(knob, value);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Run `cmd` to completion and return its standard output and whether it
/// exited with success.
pub fn run_child(mut cmd: Command) -> std::io::Result<(String, bool)> {
    let output = cmd.spawn()?.wait_with_output()?;
    Ok((
        String::from_utf8_lossy(&output.stdout).into_owned(),
        output.status.success(),
    ))
}

fn proc_field(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|rest| rest.strip_prefix(':'))
                    .map(str::to_owned)
            })
        })
        .and_then(|rest| rest.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(0)
}

/// `(wchar, syscw)` of this process: bytes passed to write calls, and the
/// number of write calls.
pub fn proc_io() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "wchar"),
        proc_field("/proc/self/io", "syscw"),
    )
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

/// Number of processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Total size of the files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_size(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_and_dir_size_follow_real_writes() {
        let dir = out_dir()
            .join("test")
            .join(format!("proc-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("inner")).unwrap();
        let before = proc_io();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("inner/b"), [0u8; 5]).unwrap();
        let after = proc_io();
        assert!(
            after.0 >= before.0 + 15 && after.1 >= before.1 + 2,
            "{before:?} -> {after:?}"
        );
        assert_eq!(dir_size(&dir), 15);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(out_dir().join("test"));
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
