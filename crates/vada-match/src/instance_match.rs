//! Instance-based matching: correspondences from *data*, not names.
//!
//! Target-side instances come from the data context (paper §2.2): a
//! reference relation bound to target attributes supplies the value
//! population each source column is compared against. Two evidence kinds:
//!
//! * **value overlap** — Jaccard of the normalised string sets (sampled);
//! * **numeric profile** — when both columns are numeric-ish, similarity of
//!   their ranges and means.
//!
//! Input dependency (paper Table 1, "Instance Matching"): source *and*
//! target instances must be available.
//!
//! The work comes in two pieces. A [`PreparedContext`] holds the context
//! side — each context column's sampled value set and profile — and is
//! built once for any number of sources. [`match_source`] matches one
//! source against it, reading each source column once, only as far as its
//! first `sample` non-null values. [`instance_match`] is the two composed.
//!
//! **The sample frontier.** `match_source` also returns one past the last
//! row any column's sample read, or `None` when some column holds fewer
//! than `max(sample, 1)` non-null values (then every row was read). The
//! rows from the frontier on never reached the result, so while it is
//! `Some`, appending rows, or removing or rewriting rows at or past it,
//! leaves the correspondences exactly as matching the edited source gives:
//! a caller that follows a source's row edits may keep them.

use std::collections::HashSet;

use vada_common::text::normalize;
use vada_common::{Relation, Value};

use crate::correspondence::Correspondence;

/// A target attribute with instance values obtained from the data context.
#[derive(Debug, Clone)]
pub struct ContextColumn {
    /// Target attribute the values describe.
    pub tgt_attr: String,
    /// Values drawn from the context relation.
    pub values: Vec<Value>,
}

impl ContextColumn {
    /// Build from a context relation column bound to a target attribute.
    pub fn from_relation(rel: &Relation, ctx_attr: &str, tgt_attr: &str) -> ContextColumn {
        let idx = rel.schema().index_of(ctx_attr);
        let values = match idx {
            Some(i) => rel
                .iter()
                .map(|t| t[i].clone())
                .filter(|v| !v.is_null())
                .collect(),
            None => Vec::new(),
        };
        ContextColumn { tgt_attr: tgt_attr.to_string(), values }
    }
}

/// Configuration for the instance matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceMatchConfig {
    /// Minimum score to report.
    pub threshold: f64,
    /// Sample cap per column (keeps matching subquadratic on big sources).
    pub sample: usize,
    /// Weight of value overlap vs numeric profile when both apply.
    pub overlap_weight: f64,
}

impl Default for InstanceMatchConfig {
    fn default() -> Self {
        InstanceMatchConfig { threshold: 0.3, sample: 500, overlap_weight: 0.7 }
    }
}

/// Basic numeric profile of a column.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NumericProfile {
    numeric_fraction: f64,
    mean: f64,
    min: f64,
    max: f64,
}

fn profile(sample: &[&Value]) -> NumericProfile {
    let mut nums = Vec::new();
    let total = sample.len();
    for v in sample {
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

/// Range-overlap similarity of two numeric profiles.
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

/// The distinct normal forms of the sampled non-null values.
fn value_set(sample: &[&Value]) -> HashSet<String> {
    sample.iter().filter(|v| !v.is_null()).map(|v| normalize(&v.to_string())).collect()
}

/// One context column as the matcher compares against it: the value set
/// and numeric profile of its sample.
#[derive(Debug)]
struct PreparedColumn {
    tgt_attr: String,
    set: HashSet<String>,
    profile: NumericProfile,
}

impl PreparedColumn {
    /// The first `sample` of `values`; `None` when there are none at all
    /// (a sample cap of 0 empties the sample, not the column).
    fn new<'v>(
        tgt_attr: &str,
        values: impl Iterator<Item = &'v Value>,
        sample: usize,
    ) -> Option<PreparedColumn> {
        let mut values = values.peekable();
        values.peek()?;
        let sample: Vec<&Value> = values.take(sample).collect();
        Some(PreparedColumn {
            tgt_attr: tgt_attr.to_string(),
            set: value_set(&sample),
            profile: profile(&sample),
        })
    }
}

/// The context side of instance matching, prepared once and compared
/// against any number of sources with [`match_source`]: per context column
/// that holds a value, the value set and numeric profile of its first
/// `sample` values. Prepare it under the configuration the sources are
/// matched under.
#[derive(Debug)]
pub struct PreparedContext {
    columns: Vec<PreparedColumn>,
}

impl PreparedContext {
    /// The context side of `context`, each column's values taken as given.
    pub fn new(cfg: &InstanceMatchConfig, context: &[ContextColumn]) -> PreparedContext {
        let columns = context
            .iter()
            .filter_map(|ctx| PreparedColumn::new(&ctx.tgt_attr, ctx.values.iter(), cfg.sample))
            .collect();
        PreparedContext { columns }
    }

    /// The context side read straight from the bound relations: each
    /// `(relation, context attribute, target attribute)` binding
    /// contributes the first `sample` non-null values of its column — what
    /// [`ContextColumn::from_relation`] followed by [`PreparedContext::new`]
    /// gives, without copying any column.
    pub fn from_bindings<'r>(
        cfg: &InstanceMatchConfig,
        bindings: impl IntoIterator<Item = (&'r Relation, &'r str, &'r str)>,
    ) -> PreparedContext {
        let columns = bindings
            .into_iter()
            .filter_map(|(rel, ctx_attr, tgt_attr)| {
                let i = rel.schema().index_of(ctx_attr)?;
                let values = rel.iter().map(move |t| &t[i]).filter(|v| !v.is_null());
                PreparedColumn::new(tgt_attr, values, cfg.sample)
            })
            .collect();
        PreparedContext { columns }
    }
}

/// One pass over column `col`: its first `sample` non-null values, and one
/// past the row of the last value the pass read. The pass reads at least
/// the first non-null value, so it knows the column holds one even under a
/// sample cap of 0. `None` when the column holds no non-null value; the
/// row is `None` when it holds fewer than `max(sample, 1)`, since then
/// every row was read.
fn sample_column(
    src: &Relation,
    col: usize,
    sample: usize,
) -> Option<(Vec<&Value>, Option<usize>)> {
    let wanted = sample.max(1);
    let mut values = Vec::new();
    let mut read = 0usize;
    for (row, t) in src.iter().enumerate() {
        let v = &t[col];
        if v.is_null() {
            continue;
        }
        if values.len() < sample {
            values.push(v);
        }
        read += 1;
        if read == wanted {
            return Some((values, Some(row + 1)));
        }
    }
    (read > 0).then_some((values, None))
}

/// Match one source against a prepared context side.
///
/// Returns the correspondences and the source's **sample frontier**: one
/// past the last row any column's sample read, or `None` when some column
/// holds fewer than `max(sample, 1)` non-null values. Rows at or past the
/// frontier were never read, so while the frontier is `Some`, appending
/// rows, or removing or rewriting rows at or past it, leaves the result
/// exactly as matching the edited source would.
pub fn match_source(
    cfg: &InstanceMatchConfig,
    src: &Relation,
    context: &PreparedContext,
) -> (Vec<Correspondence>, Option<usize>) {
    let mut out = Vec::new();
    let mut frontier = Some(0);
    for (i, sa) in src.schema().attributes().iter().enumerate() {
        let Some((sample, end)) = sample_column(src, i, cfg.sample) else {
            frontier = None;
            continue;
        };
        frontier = frontier.zip(end).map(|(f, end)| f.max(end));
        let src_set = value_set(&sample);
        let src_profile = profile(&sample);
        for ctx in &context.columns {
            let inter = src_set.intersection(&ctx.set).count();
            let union = src_set.len() + ctx.set.len() - inter;
            let overlap = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
            let prof = profile_similarity(&src_profile, &ctx.profile);
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
                        ctx.set.len()
                    ),
                });
            }
        }
    }
    (out, frontier)
}

/// Match source columns against context-supplied target instances: the
/// one-shot composition of [`PreparedContext::new`] and [`match_source`].
pub fn instance_match(
    cfg: &InstanceMatchConfig,
    src: &Relation,
    context: &[ContextColumn],
) -> Vec<Correspondence> {
    match_source(cfg, src, &PreparedContext::new(cfg, context)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{Schema, Tuple};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<&str>>) -> Relation {
        let mut r = Relation::empty(Schema::all_str(name, attrs));
        for row in rows {
            r.push(Tuple::new(row.into_iter().map(Value::str).collect::<Vec<_>>()))
                .unwrap();
        }
        r
    }

    #[test]
    fn value_overlap_finds_postcode_column() {
        let src = rel(
            "s",
            &["colA", "colB"],
            vec![
                vec!["M13 9PL", "red"],
                vec!["EH8 9AB", "blue"],
                vec!["OX1 3QD", "red"],
            ],
        );
        let ctx = vec![ContextColumn {
            tgt_attr: "postcode".into(),
            values: vec![
                Value::str("M13 9PL"),
                Value::str("EH8 9AB"),
                Value::str("LS1 1AA"),
            ],
        }];
        let corrs = instance_match(&InstanceMatchConfig::default(), &src, &ctx);
        assert_eq!(corrs.len(), 1);
        assert_eq!(corrs[0].src_attr, "colA");
        assert_eq!(corrs[0].tgt_attr, "postcode");
        assert!(corrs[0].score >= 0.3);
    }

    #[test]
    fn numeric_profile_matches_number_columns() {
        let src = rel(
            "s",
            &["mystery"],
            vec![vec!["1"], vec!["3"], vec!["5"], vec!["2"], vec!["4"]],
        );
        let ctx = vec![ContextColumn {
            tgt_attr: "bedrooms".into(),
            values: (1..=6).map(|i: i64| Value::str(i.to_string())).collect(),
        }];
        let corrs = instance_match(&InstanceMatchConfig::default(), &src, &ctx);
        assert_eq!(corrs.len(), 1, "numeric profile + overlap should match");
        assert_eq!(corrs[0].tgt_attr, "bedrooms");
    }

    #[test]
    fn disjoint_columns_do_not_match() {
        let src = rel("s", &["name"], vec![vec!["alice"], vec!["bob"]]);
        let ctx = vec![ContextColumn {
            tgt_attr: "postcode".into(),
            values: vec![Value::str("M13 9PL")],
        }];
        assert!(instance_match(&InstanceMatchConfig::default(), &src, &ctx).is_empty());
    }

    #[test]
    fn empty_inputs_are_quiet() {
        let src = rel("s", &["a"], vec![]);
        let ctx = vec![ContextColumn { tgt_attr: "x".into(), values: vec![] }];
        assert!(instance_match(&InstanceMatchConfig::default(), &src, &ctx).is_empty());
    }

    #[test]
    fn context_column_from_relation_binds_attr() {
        let r = rel("address", &["street", "postcode"], vec![vec!["12 high st", "M1 1AA"]]);
        let c = ContextColumn::from_relation(&r, "postcode", "postcode");
        assert_eq!(c.values, vec![Value::str("M1 1AA")]);
        let missing = ContextColumn::from_relation(&r, "nope", "x");
        assert!(missing.values.is_empty());
    }

    #[test]
    fn reading_bindings_in_place_prepares_what_copied_columns_do() {
        let mut r = rel("address", &["street", "postcode"], vec![]);
        for (street, postcode) in
            [("1 high st", None), ("2 park rd", Some("M1 1AB")), ("9", Some("3"))]
        {
            let postcode = postcode.map_or(Value::Null, Value::str);
            r.push(Tuple::new(vec![Value::str(street), postcode])).unwrap();
        }
        let src = rel("s", &["a", "b"], vec![vec!["M1 1AB", "1 high st"], vec!["3", "9"]]);
        let bindings = [("street", "street"), ("postcode", "postcode"), ("nope", "x")];
        for sample in [0, 1, 2, 500] {
            let cfg = InstanceMatchConfig { sample, threshold: 0.0, ..Default::default() };
            let copied: Vec<ContextColumn> =
                bindings.iter().map(|(c, t)| ContextColumn::from_relation(&r, c, t)).collect();
            let in_place =
                PreparedContext::from_bindings(&cfg, bindings.iter().map(|(c, t)| (&r, *c, *t)));
            let (got, _) = match_source(&cfg, &src, &in_place);
            let want = instance_match(&cfg, &src, &copied);
            let shape = |c: &Correspondence| (c.pair_key(), c.score.to_bits(), c.evidence.clone());
            assert_eq!(
                got.iter().map(shape).collect::<Vec<_>>(),
                want.iter().map(shape).collect::<Vec<_>>(),
                "sample {sample}"
            );
        }
    }
}
