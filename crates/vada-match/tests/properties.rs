//! Property-based tests for the matching activity: name-similarity scoring
//! must be symmetric, thresholds must act as pure filters (raising one only
//! removes correspondences), and the value normal form the instance matcher
//! keys on must agree with the fusion blocking key — two values the matcher
//! considers identical always land in the same block.

use proptest::prelude::*;

use vada_common::text::{blocking_key, normalize};
use vada_common::{tuple, Schema};
use vada_match::schema_match::name_similarity;
use vada_match::{combine, schema_match, CombineConfig, Correspondence, SchemaMatchConfig};

/// Attribute-name generator: lowercase words with the separators the
/// tokenizer understands (space / underscore), occasionally empty-ish.
const NAME: &str = "[a-z_ ]{0,12}";

fn pair_set(corrs: &[Correspondence]) -> std::collections::BTreeSet<(String, String, String)> {
    corrs.iter().map(|c| c.pair_key()).collect()
}

proptest! {
    #[test]
    fn name_similarity_is_symmetric(a in NAME, b in NAME) {
        let cfg = SchemaMatchConfig::default();
        let (sab, _) = name_similarity(&cfg, &a, &b);
        let (sba, _) = name_similarity(&cfg, &b, &a);
        prop_assert_eq!(sab, sba, "score({:?}, {:?}) asymmetric", a, b);
        prop_assert!((0.0..=1.0).contains(&sab), "score {} out of range", sab);
    }

    #[test]
    fn schema_match_threshold_is_monotone(
        src_names in proptest::collection::vec("[a-z_]{1,10}", 1..6),
        tgt_names in proptest::collection::vec("[a-z_]{1,10}", 1..6),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let dedup = |names: Vec<String>| -> Vec<String> {
            let mut seen = std::collections::BTreeSet::new();
            names.into_iter().filter(|n| seen.insert(n.clone())).collect()
        };
        let src_names = dedup(src_names);
        let tgt_names = dedup(tgt_names);
        let src = Schema::all_str(
            "s", &src_names.iter().map(String::as_str).collect::<Vec<_>>());
        let tgt = Schema::all_str(
            "t", &tgt_names.iter().map(String::as_str).collect::<Vec<_>>());
        let at = |threshold: f64| {
            schema_match(&SchemaMatchConfig { threshold, ..Default::default() }, &src, &tgt)
        };
        let loose = at(lo);
        let strict = at(hi);
        // every reported score clears the bar it was asked for…
        for c in &loose {
            prop_assert!(c.score >= lo, "{:?} under threshold {}", c, lo);
        }
        // …and a higher bar reports a subset of a lower one
        let loose_pairs = pair_set(&loose);
        for key in pair_set(&strict) {
            prop_assert!(loose_pairs.contains(&key), "{key:?} appeared only at the stricter threshold");
        }
    }

    #[test]
    fn combine_threshold_is_monotone(
        scores in proptest::collection::vec(("[a-c]{1}", "[x-z]{1}", 0.0f64..1.0, 0u8..3), 0..8),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut schema_evi = Vec::new();
        let mut instance_evi = Vec::new();
        for (src_attr, tgt_attr, score, which) in &scores {
            let c = Correspondence {
                src_rel: "s".into(),
                src_attr: src_attr.clone(),
                tgt_attr: tgt_attr.clone(),
                score: *score,
                matcher: String::new(),
                evidence: String::new(),
            };
            // one stream, the other, or corroborated by both
            if *which != 1 { schema_evi.push(c.clone()); }
            if *which != 0 { instance_evi.push(c); }
        }
        let at = |threshold: f64| {
            combine(&CombineConfig { threshold, ..Default::default() }, &schema_evi, &instance_evi)
        };
        let loose = at(lo);
        let strict = at(hi);
        for c in &loose {
            prop_assert!(c.score >= lo, "{:?} under threshold {}", c, lo);
        }
        let loose_pairs = pair_set(&loose);
        for key in pair_set(&strict) {
            prop_assert!(loose_pairs.contains(&key), "{key:?} appeared only at the stricter threshold");
        }
        // corroboration invariant: combining never exceeds the best input
        for c in &loose {
            let best_in = schema_evi.iter().chain(&instance_evi)
                .filter(|e| e.pair_key() == c.pair_key())
                .map(|e| e.score)
                .fold(0.0f64, f64::max);
            prop_assert!(c.score <= best_in + 1e-12, "{:?} outscored its evidence {}", c, best_in);
        }
    }

    #[test]
    fn matcher_value_identity_agrees_with_blocking_key(
        a in "[ a-zA-Z0-9_.,-]{0,16}",
        b in "[ a-zA-Z0-9_.,-]{0,16}",
    ) {
        // the instance matcher equates values by `normalize`; fusion blocking
        // equates rows by `blocking_key`. The two normal forms must be the
        // same function, so co-matched values are co-blocked by construction.
        let mut ka = String::new();
        let mut kb = String::new();
        // a non-null cell always keys (even when its normal form is empty:
        // such rows share the "" block rather than going singleton)
        prop_assert!(blocking_key(&tuple![a.as_str()], &[0], &mut ka));
        prop_assert!(blocking_key(&tuple![b.as_str()], &[0], &mut kb));
        prop_assert_eq!(&ka, &normalize(&a), "key text drifted for {:?}", a);
        let same_value = normalize(&a) == normalize(&b);
        prop_assert_eq!(same_value, ka == kb,
            "matcher identity and blocking key disagree on {:?} vs {:?}", a, b);
    }
}

// ---------------------------------------------------------------------------
// Differential test: the instance matcher against the implementation it
// replaced, kept here as a test-only oracle — every non-null cell of every
// source column cloned before the first `sample` of them are read, and the
// context side's value set and profile rebuilt for every source attribute.
// Same correspondences in the same order, scores equal bit for bit, same
// evidence strings.
// ---------------------------------------------------------------------------

mod oracle {
    use std::collections::HashSet;

    use vada_common::text::normalize;
    use vada_common::{Relation, Value};
    use vada_match::{ContextColumn, Correspondence, InstanceMatchConfig};

    struct NumericProfile {
        numeric_fraction: f64,
        mean: f64,
        min: f64,
        max: f64,
    }

    fn profile(values: &[Value], sample: usize) -> NumericProfile {
        let mut nums = Vec::new();
        let mut total = 0usize;
        for v in values.iter().take(sample) {
            total += 1;
            let parsed = match v {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                Value::Str(s) => s.trim().parse::<f64>().ok(),
                _ => None,
            };
            if let Some(x) = parsed {
                nums.push(x);
            }
        }
        if nums.is_empty() || total == 0 {
            return NumericProfile { numeric_fraction: 0.0, mean: 0.0, min: 0.0, max: 0.0 };
        }
        let mean = nums.iter().sum::<f64>() / nums.len() as f64;
        let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
        let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        NumericProfile { numeric_fraction: nums.len() as f64 / total as f64, mean, min, max }
    }

    fn profile_similarity(a: &NumericProfile, b: &NumericProfile) -> f64 {
        if a.numeric_fraction < 0.5 || b.numeric_fraction < 0.5 {
            return 0.0;
        }
        let lo = a.min.max(b.min);
        let hi = a.max.min(b.max);
        let overlap = (hi - lo).max(0.0);
        let span = (a.max.max(b.max) - a.min.min(b.min)).max(1e-9);
        let range_sim = overlap / span;
        let mean_scale = a.mean.abs().max(b.mean.abs()).max(1e-9);
        let mean_sim = 1.0 - ((a.mean - b.mean).abs() / mean_scale).min(1.0);
        0.5 * range_sim + 0.5 * mean_sim
    }

    fn value_set(values: &[Value], sample: usize) -> HashSet<String> {
        values
            .iter()
            .take(sample)
            .filter(|v| !v.is_null())
            .map(|v| normalize(&v.to_string()))
            .collect()
    }

    pub fn instance_match(
        cfg: &InstanceMatchConfig,
        src: &Relation,
        context: &[ContextColumn],
    ) -> Vec<Correspondence> {
        let mut out = Vec::new();
        for (i, sa) in src.schema().attributes().iter().enumerate() {
            let src_values: Vec<Value> =
                src.iter().map(|t| t[i].clone()).filter(|v| !v.is_null()).collect();
            if src_values.is_empty() {
                continue;
            }
            let src_set = value_set(&src_values, cfg.sample);
            let src_profile = profile(&src_values, cfg.sample);
            for ctx in context {
                if ctx.values.is_empty() {
                    continue;
                }
                let ctx_set = value_set(&ctx.values, cfg.sample);
                let inter = src_set.intersection(&ctx_set).count();
                let union = src_set.len() + ctx_set.len() - inter;
                let overlap = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
                let ctx_profile = profile(&ctx.values, cfg.sample);
                let prof = profile_similarity(&src_profile, &ctx_profile);
                let score = if prof > 0.0 {
                    cfg.overlap_weight * overlap + (1.0 - cfg.overlap_weight) * prof
                } else {
                    overlap
                };
                if score >= cfg.threshold {
                    out.push(Correspondence {
                        src_rel: src.name().to_string(),
                        src_attr: sa.name.clone(),
                        tgt_attr: ctx.tgt_attr.clone(),
                        score,
                        matcher: "instance".into(),
                        evidence: format!(
                            "value overlap {overlap:.2}, profile {prof:.2} over {} src / {} ctx values",
                            src_set.len(),
                            ctx_set.len()
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Cells that overlap after normalisation only, numbers as integers,
/// floats and strings (so numeric profiles apply to some columns and not
/// others), nulls, and another type.
fn cell(i: u8) -> vada_common::Value {
    use vada_common::Value;
    match i % 12 {
        0 => Value::Null,
        1 => Value::Int(3),
        2 => Value::Float(2.5),
        3 => Value::str(" 4 "),
        4 => Value::Int(250_000),
        5 => Value::str("M1 1AA"),
        6 => Value::str("m1-1aa"),
        7 => Value::str("EH8 9AB"),
        8 => Value::str("École"),
        9 => Value::str("ÉCOLE"),
        10 => Value::Bool(false),
        _ => Value::str("..."),
    }
}

proptest! {
    #[test]
    fn instance_matching_matches_the_clone_every_column_oracle(
        rows in proptest::collection::vec((0u8..12, 0u8..5, 4u8..8), 0..30),
        context in proptest::collection::vec(proptest::collection::vec(0u8..12, 0..12), 0..4),
        sample in 0usize..8,
        threshold in 0u8..3,
    ) {
        use vada_common::{Relation, Tuple};
        use vada_match::{instance_match, ContextColumn, InstanceMatchConfig};
        let mut src = Relation::empty(Schema::all_str("s", &["any", "numeric", "text"]));
        for (a, b, c) in rows {
            src.push(Tuple::new(vec![cell(a), cell(b), cell(c)])).unwrap();
        }
        // hand-built context columns may hold nulls; `from_relation` drops them
        let context: Vec<ContextColumn> = context
            .into_iter()
            .enumerate()
            .map(|(i, values)| ContextColumn {
                tgt_attr: format!("t{i}"),
                values: values.into_iter().map(cell).collect(),
            })
            .collect();
        // a cap below, at and above the column lengths; a bar of zero
        // reports every pair, scores and evidence included
        let cfg = InstanceMatchConfig {
            sample: if sample == 7 { 500 } else { sample },
            threshold: [0.0, 0.3, 0.9][threshold as usize],
            ..Default::default()
        };
        let got = instance_match(&cfg, &src, &context);
        let want = oracle::instance_match(&cfg, &src, &context);
        let shape = |c: &Correspondence| {
            (c.pair_key(), c.score.to_bits(), c.matcher.clone(), c.evidence.clone())
        };
        prop_assert_eq!(
            got.iter().map(shape).collect::<Vec<_>>(),
            want.iter().map(shape).collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// The sample frontier: `match_source` reports one past the last row any
// column's sample read, or `None` when some column is short of
// `max(sample, 1)` non-null values. While it is `Some`, the rows from it on
// never reached the result: appends, and removals or rewrites at or past
// it, change neither the correspondences nor the frontier.
// ---------------------------------------------------------------------------

/// A row of three columns; the first two hold nulls often enough that
/// short columns are common.
fn frontier_row((a, b, c): (u8, u8, u8)) -> vada_common::Tuple {
    let sparse = |i: u8| if i.is_multiple_of(3) { vada_common::Value::Null } else { cell(i) };
    vada_common::Tuple::new(vec![sparse(a), sparse(b), cell(c)])
}

proptest! {
    #[test]
    fn the_sample_frontier_bounds_what_an_edit_can_change(
        rows in proptest::collection::vec((0u8..12, 0u8..12, 0u8..12), 0..24),
        context in proptest::collection::vec(proptest::collection::vec(0u8..12, 0..10), 0..3),
        sample in 0usize..5,
        // (kind, position past the frontier, cells)
        edits in proptest::collection::vec((0u8..3, 0usize..32, (0u8..12, 0u8..12, 0u8..12)), 0..6),
    ) {
        use vada_common::Relation;
        use vada_match::{match_source, ContextColumn, InstanceMatchConfig, PreparedContext};
        let mut src = Relation::empty(Schema::all_str("s", &["a", "b", "c"]));
        for r in rows {
            src.push(frontier_row(r)).unwrap();
        }
        let context: Vec<ContextColumn> = context
            .into_iter()
            .enumerate()
            .map(|(i, values)| ContextColumn {
                tgt_attr: format!("t{i}"),
                values: values.into_iter().map(cell).collect(),
            })
            .collect();
        // a bar of zero reports every pair, so every score is compared
        let cfg = InstanceMatchConfig { sample, threshold: 0.0, ..Default::default() };
        let prepared = PreparedContext::new(&cfg, &context);
        let shape = |corrs: &[Correspondence]| {
            corrs
                .iter()
                .map(|c| (c.pair_key(), c.score.to_bits(), c.evidence.clone()))
                .collect::<Vec<_>>()
        };
        let (corrs, frontier) = match_source(&cfg, &src, &prepared);
        let short = (0..3).any(|col| {
            src.iter().filter(|t| !t[col].is_null()).count() < sample.max(1)
        });
        prop_assert_eq!(frontier.is_none(), short, "frontier {:?}", frontier);
        let Some(frontier) = frontier else { return Ok(()) };
        prop_assert!(frontier <= src.len());
        let want = shape(&corrs);
        for (kind, past, cells) in edits {
            let beyond = src.len() - frontier;
            match kind {
                0 => src.push(frontier_row(cells)).unwrap(),
                1 if beyond > 0 => {
                    src.remove_rows(&[frontier + past % beyond]).unwrap();
                }
                2 if beyond > 0 => src.replace(frontier + past % beyond, frontier_row(cells)).unwrap(),
                _ => continue,
            }
            let (got, moved) = match_source(&cfg, &src, &prepared);
            prop_assert_eq!(shape(&got), want.clone(), "edit {} at {}", kind, past);
            prop_assert_eq!(moved, Some(frontier));
        }
    }
}
