//! `repro bench --check` — the structural-cost regression gate.
//!
//! Re-runs the baseline experiment families and diffs the *structural*
//! channels (counters and span shapes) against the committed
//! `BENCH_baseline.json`. Wall-clock numbers are never compared — a span's
//! `micros` drifts with the machine and no shape renders it. Every counter
//! is compared exactly — `wal.bytes` included: the log never records a
//! path, so its bytes reproduce from any directory — and span shapes are
//! compared byte-for-byte. A key present on one side but not the other is
//! a hard error in *either* direction: a vanished counter means lost
//! coverage, a new one means the baseline is stale.
//!
//! `VADA_BENCH_CHECK_PERTURB=<counter>` injects +1 into that counter in
//! every measured family snapshot (creating the key where absent) — the
//! CI negative self-test uses it to prove the gate actually fails.

use std::collections::BTreeMap;

use vada_common::obs::Json;

use crate::experiments::incremental::{measure_families, BASELINE_PATH, BASELINE_SCHEMA};

/// Diff one family's observed counter snapshot against its baseline.
/// Returns one human-readable failure line per regression; an empty vec
/// means the family's cost model is unchanged.
pub fn diff_counters(
    family: &str,
    baseline: &BTreeMap<String, u64>,
    observed: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (k, &b) in baseline {
        match observed.get(k) {
            None => failures.push(format!(
                "FAIL {family} / {k}: present in baseline ({b}) but missing from this run \
                 — structural coverage was lost"
            )),
            Some(&o) if o != b => failures.push(format!(
                "FAIL {family} / {k}: baseline {b}, observed {o}, allowed exactly {b}"
            )),
            Some(_) => {}
        }
    }
    for (k, &o) in observed {
        if !baseline.contains_key(k) {
            failures.push(format!(
                "FAIL {family} / {k}: observed ({o}) but absent from the baseline \
                 — regenerate it with `repro bench` and commit the diff"
            ));
        }
    }
    failures
}

/// Diff one family's observed span shape against its baseline — byte
/// identity, reported as the first diverging line (with its index) plus
/// the length delta when the trees differ in size.
pub fn diff_shapes(family: &str, baseline: &[String], observed: &[String]) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.len() != observed.len() {
        failures.push(format!(
            "FAIL {family} / span tree: baseline has {} spans, this run has {}",
            baseline.len(),
            observed.len()
        ));
    }
    for (i, (b, o)) in baseline.iter().zip(observed.iter()).enumerate() {
        if b != o {
            failures.push(format!(
                "FAIL {family} / span tree line {}: baseline `{b}`, observed `{o}`",
                i + 1
            ));
            break; // one divergence pins the earliest drift; the rest cascades
        }
    }
    failures
}

fn parse_counters(doc: &Json) -> Result<BTreeMap<String, BTreeMap<String, u64>>, String> {
    let node = doc
        .get("counters")
        .ok_or("baseline has no `counters` section")?;
    let mut out = BTreeMap::new();
    for (family, snapshot) in node.entries().ok_or("`counters` is not an object")? {
        let mut map = BTreeMap::new();
        for (k, v) in snapshot
            .entries()
            .ok_or_else(|| format!("counters for {family} is not an object"))?
        {
            map.insert(
                k.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("counter {family}/{k} is not an integer"))?,
            );
        }
        out.insert(family.clone(), map);
    }
    Ok(out)
}

fn parse_shapes(doc: &Json) -> Result<BTreeMap<String, Vec<String>>, String> {
    let node = doc.get("span_shapes").ok_or(
        "baseline has no `span_shapes` section — it predates schema v8; \
         regenerate it with `repro bench` and commit the diff",
    )?;
    let mut out = BTreeMap::new();
    for (family, lines) in node.entries().ok_or("`span_shapes` is not an object")? {
        let mut v = Vec::new();
        for line in lines
            .items()
            .ok_or_else(|| format!("span_shapes for {family} is not an array"))?
        {
            v.push(
                line.as_str()
                    .ok_or_else(|| format!("span shape in {family} is not a string"))?
                    .to_string(),
            );
        }
        out.insert(family.clone(), v);
    }
    Ok(out)
}

/// Load the committed baseline, re-measure every family, and diff the
/// structural channels. `Ok` carries the pass report; `Err` carries the
/// per-counter failure report (or the hard error that prevented the
/// comparison).
pub fn run_check() -> Result<String, String> {
    let raw = std::fs::read_to_string(BASELINE_PATH).map_err(|e| {
        format!(
            "cannot read {BASELINE_PATH}: {e} — run `repro bench` once to \
             establish the baseline, then commit it"
        )
    })?;
    let doc = Json::parse(&raw).map_err(|e| format!("{BASELINE_PATH} does not parse: {e}"))?;
    let schema = doc.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if schema != BASELINE_SCHEMA {
        return Err(format!(
            "unsupported baseline schema `{schema}` (want {BASELINE_SCHEMA}) \
             — regenerate with `repro bench`"
        ));
    }
    let base_counters = parse_counters(&doc)?;
    let base_shapes = parse_shapes(&doc)?;

    let fam = measure_families();
    let mut obs_counters: Vec<(&str, BTreeMap<String, u64>)> = fam
        .counters
        .iter()
        .map(|(f, m)| (*f, m.clone()))
        .collect();
    if let Ok(perturb) = std::env::var("VADA_BENCH_CHECK_PERTURB") {
        let perturb = perturb.trim().to_string();
        if !perturb.is_empty() {
            for (_, m) in obs_counters.iter_mut() {
                *m.entry(perturb.clone()).or_insert(0) += 1;
            }
        }
    }

    let mut failures = Vec::new();
    let mut compared = 0usize;
    for (family, base) in &base_counters {
        match obs_counters.iter().find(|(f, _)| f == family) {
            None => failures.push(format!(
                "FAIL {family}: family present in baseline but not measured by this build"
            )),
            Some((_, obs)) => {
                compared += base.len();
                failures.extend(diff_counters(family, base, obs));
            }
        }
    }
    for (family, _) in &obs_counters {
        if !base_counters.contains_key(*family) {
            failures.push(format!(
                "FAIL {family}: family measured by this build but absent from the baseline \
                 — regenerate it with `repro bench`"
            ));
        }
    }
    let mut shape_lines = 0usize;
    for (family, base) in &base_shapes {
        match fam.span_shapes.iter().find(|(f, _)| f == family) {
            None => failures.push(format!(
                "FAIL {family}: span tree pinned in baseline but not recorded by this build"
            )),
            Some((_, obs)) => {
                shape_lines += base.len();
                failures.extend(diff_shapes(family, base, obs));
            }
        }
    }
    for (family, _) in &fam.span_shapes {
        if !base_shapes.contains_key(*family) {
            failures.push(format!(
                "FAIL {family}: span tree recorded by this build but absent from the baseline"
            ));
        }
    }

    if failures.is_empty() {
        Ok(format!(
            "bench --check: OK — {compared} counters across {} families match the \
             baseline, {shape_lines} span-tree lines \
             byte-identical",
            base_counters.len()
        ))
    } else {
        Err(format!(
            "bench --check: {} structural regression(s) against {BASELINE_PATH}\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn exact_counters_fail_on_any_drift() {
        let base = m(&[("datalog.stratum.passes", 10)]);
        let same = diff_counters("fam", &base, &m(&[("datalog.stratum.passes", 10)]));
        assert!(same.is_empty(), "{same:?}");
        let off = diff_counters("fam", &base, &m(&[("datalog.stratum.passes", 11)]));
        assert_eq!(off.len(), 1);
        assert!(off[0].contains("baseline 10, observed 11"), "{}", off[0]);
        assert!(off[0].contains("exactly 10"), "{}", off[0]);
    }

    #[test]
    fn missing_keys_are_hard_errors_in_both_directions() {
        let base = m(&[("a", 1), ("b", 2)]);
        let lost = diff_counters("fam", &base, &m(&[("a", 1)]));
        assert_eq!(lost.len(), 1);
        assert!(lost[0].contains("missing from this run"), "{}", lost[0]);
        let new = diff_counters("fam", &base, &m(&[("a", 1), ("b", 2), ("c", 3)]));
        assert_eq!(new.len(), 1);
        assert!(new[0].contains("absent from the baseline"), "{}", new[0]);
    }

    #[test]
    fn shape_diff_reports_first_divergence_and_length_delta() {
        let base = vec!["1 0 orchestrator/run".to_string(), "2 1 datalog/run".to_string()];
        assert!(diff_shapes("fam", &base, &base.clone()).is_empty());
        let shorter = diff_shapes("fam", &base, &base[..1].to_vec());
        assert_eq!(shorter.len(), 1);
        assert!(shorter[0].contains("2 spans"), "{}", shorter[0]);
        let diverged = diff_shapes(
            "fam",
            &base,
            &vec!["1 0 orchestrator/run".to_string(), "2 1 datalog/stratum".to_string()],
        );
        assert_eq!(diverged.len(), 1);
        assert!(diverged[0].contains("line 2"), "{}", diverged[0]);
        assert!(diverged[0].contains("datalog/run"), "{}", diverged[0]);
    }
}
