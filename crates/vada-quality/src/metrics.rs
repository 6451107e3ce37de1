//! Quality metrics: the evidence the user context trades off
//! (paper §2.2: completeness can be estimated from non-null fractions,
//! consistency needs CFDs learned from the data context, accuracy needs a
//! reference population).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vada_common::text::{blocking_key, normalize, normalize_append};
use vada_common::{Relation, Result, Schema, Tuple, Value};
use vada_kb::CfdRule;

use crate::violations::{detect_violations, resolve_columns, violating_row_count};

/// Consistency of a relation w.r.t. a CFD set: `1 − violating rows / rows`.
/// An empty relation is vacuously consistent.
pub fn consistency(rel: &Relation, cfds: &[CfdRule]) -> f64 {
    if rel.is_empty() {
        return 1.0;
    }
    let violations = detect_violations(rel, cfds);
    1.0 - violating_row_count(&violations) as f64 / rel.len() as f64
}

/// Whether some CFD of `cfds` names only attributes of `schema`. When none
/// does, every CFD is skipped on relations of the schema, and
/// [`consistency`] is exactly 1.0 on each of them.
pub fn consistency_applies(schema: &Schema, cfds: &[CfdRule]) -> bool {
    cfds.iter().any(|cfd| resolve_columns(schema, cfd).is_some())
}

/// `part / whole`, or 1.0 when `whole` is 0: the shape of every quality
/// ratio here — a metric over no values violates nothing.
fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// The two counts a syntactic accuracy is the ratio of: non-null cells, and
/// the hits among them (see [`ReferencePopulation::tally`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccuracyTally {
    /// Non-null cells whose normal form is in the population.
    pub hits: usize,
    /// Non-null cells.
    pub total: usize,
}

impl AccuracyTally {
    /// `hits / total`, or 1.0 when there are no values.
    pub fn value(self) -> f64 {
        ratio(self.hits, self.total)
    }
}

/// The integer counts a relation's completeness, coverage and accuracy are
/// ratios of. Counts add up over disjoint sets of rows, so the tally of a
/// union is its parts' tallies minus the tallies of the rows it drops, and
/// the division comes last: the metrics are bit-identical to measuring the
/// union itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricTally {
    /// Rows.
    pub rows: usize,
    /// Non-null cells, per column.
    pub non_null: Vec<usize>,
    /// One accuracy tally per scored column, in the order they were scored.
    pub accuracy: Vec<AccuracyTally>,
}

impl MetricTally {
    /// Count `rows` over `arity` columns, scoring column `col` against
    /// `population` for each `(col, population)` of `scored`.
    pub fn measure<'t, 'p, I>(
        rows: I,
        arity: usize,
        scored: impl IntoIterator<Item = (usize, &'p mut ReferencePopulation)>,
    ) -> MetricTally
    where
        I: IntoIterator<Item = &'t Tuple>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let mut tally = MetricTally { non_null: vec![0; arity], ..MetricTally::default() };
        for t in rows.clone() {
            tally.rows += 1;
            for (count, v) in tally.non_null.iter_mut().zip(t.iter()) {
                *count += usize::from(!v.is_null());
            }
        }
        tally.accuracy = scored.into_iter().map(|(col, p)| p.tally(rows.clone(), col)).collect();
        tally
    }

    /// Add the counts of `other`, tallied over the same columns.
    pub fn add(&mut self, other: &MetricTally) {
        self.combine(other, |a, b| a + b);
    }

    /// Take away the counts of `other`: rows among those this tally counts.
    pub fn subtract(&mut self, other: &MetricTally) {
        self.combine(other, |a, b| a - b);
    }

    fn combine(&mut self, other: &MetricTally, op: impl Fn(usize, usize) -> usize) {
        self.rows = op(self.rows, other.rows);
        for (a, b) in self.non_null.iter_mut().zip(&other.non_null) {
            *a = op(*a, *b);
        }
        for (a, b) in self.accuracy.iter_mut().zip(&other.accuracy) {
            a.hits = op(a.hits, b.hits);
            a.total = op(a.total, b.total);
        }
    }

    /// Completeness of column `col`: its non-null fraction, 1.0 over no
    /// rows — [`Relation::completeness`] from the counts.
    pub fn completeness(&self, col: usize) -> f64 {
        ratio(self.non_null[col], self.rows)
    }
}

/// Bound on [`ReferencePopulation`]'s verdict memo: past it the memo is
/// emptied and refills from the cells scored next.
const VERDICT_MEMO_CAP: usize = 1 << 16;

/// A reference column normalised once, for scoring many relations against
/// it (see [`accuracy_against_reference`]).
///
/// Scoring remembers each string cell's verdict — whether its normal form
/// is in the population — keyed by the cell's content (never its address),
/// so a string scored before, in this relation or an earlier one, costs a
/// hash lookup instead of a normalisation. The memo holds at most 65 536
/// strings (it is emptied when full) and lives and dies with the
/// population: a consumer that rebuilds the population when its reference
/// changes drops the verdicts with it. Non-string cells are normalised every time.
#[derive(Debug, Clone)]
pub struct ReferencePopulation {
    normal_forms: HashSet<String>,
    verdicts: HashMap<Arc<str>, bool>,
}

impl ReferencePopulation {
    /// The normal forms of the non-null values of `reference.ref_attr`.
    pub fn new(reference: &Relation, ref_attr: &str) -> Result<ReferencePopulation> {
        let ref_col = reference.schema().require(ref_attr)?;
        Ok(ReferencePopulation {
            normal_forms: reference
                .iter()
                .filter(|t| !t[ref_col].is_null())
                .map(|t| normalize(&t[ref_col].to_string()))
                .collect(),
            verdicts: HashMap::new(),
        })
    }

    /// Syntactic accuracy of `rel.attr`: the fraction of non-null values
    /// whose normal form is in the population. Returns 1.0 when the column
    /// has no values.
    pub fn accuracy(&mut self, rel: &Relation, attr: &str) -> Result<f64> {
        let col = rel.schema().require(attr)?;
        Ok(self.tally(rel.iter(), col).value())
    }

    /// The counts [`ReferencePopulation::accuracy`] divides, over column
    /// `col` of `rows`: the non-null cells, and the hits among them.
    pub fn tally<'t>(
        &mut self,
        rows: impl IntoIterator<Item = &'t Tuple>,
        col: usize,
    ) -> AccuracyTally {
        let mut tally = AccuracyTally::default();
        let mut norm = String::new();
        for t in rows {
            let hit = match &t[col] {
                Value::Null => continue,
                Value::Str(s) => match self.verdicts.get(&**s) {
                    Some(&hit) => hit,
                    None => {
                        norm.clear();
                        normalize_append(s, &mut norm);
                        let hit = self.normal_forms.contains(norm.as_str());
                        if self.verdicts.len() >= VERDICT_MEMO_CAP {
                            self.verdicts.clear();
                        }
                        self.verdicts.insert(s.clone(), hit);
                        hit
                    }
                },
                // one key column: the key is the cell's normal form
                _ => {
                    blocking_key(t, &[col], &mut norm)
                        && self.normal_forms.contains(norm.as_str())
                }
            };
            tally.total += 1;
            tally.hits += usize::from(hit);
        }
        tally
    }
}

/// Syntactic accuracy of `attr` against a reference population: the
/// fraction of non-null values that appear in the reference column
/// (compared on normal forms). Returns 1.0 when the column has no values.
/// Scoring several relations against one column? Build the
/// [`ReferencePopulation`] once instead.
pub fn accuracy_against_reference(
    rel: &Relation,
    attr: &str,
    reference: &Relation,
    ref_attr: &str,
) -> Result<f64> {
    rel.schema().require(attr)?;
    ReferencePopulation::new(reference, ref_attr)?.accuracy(rel, attr)
}

/// Coverage of master data: the fraction of distinct master keys present
/// in the relation (the completeness notion master data licenses).
pub fn master_coverage(
    rel: &Relation,
    attr: &str,
    master: &Relation,
    master_attr: &str,
) -> Result<f64> {
    let col = rel.schema().require(attr)?;
    let m_col = master.schema().require(master_attr)?;
    let keys: HashSet<String> = master
        .iter()
        .filter(|t| !t[m_col].is_null())
        .map(|t| normalize(&t[m_col].to_string()))
        .collect();
    if keys.is_empty() {
        return Ok(1.0);
    }
    let present: HashSet<String> = rel
        .iter()
        .filter(|t| !t[col].is_null())
        .map(|t| normalize(&t[col].to_string()))
        .collect();
    Ok(keys.intersection(&present).count() as f64 / keys.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};
    use vada_kb::CfdRule;

    fn fd(lhs: &str, rhs: &str) -> CfdRule {
        CfdRule {
            id: "c".into(),
            relation: "r".into(),
            lhs: vec![(lhs.into(), None)],
            rhs: (rhs.into(), None),
            support: 5,
        }
    }

    #[test]
    fn consistency_counts_violating_rows() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![
                tuple!["M1", "manchester"],
                tuple!["M1", "manchester"],
                tuple!["M1", "leeds"],
                tuple!["EH1", "edinburgh"],
            ],
        )
        .unwrap();
        let c = consistency(&rel, &[fd("pc", "city")]);
        assert!((c - 0.75).abs() < 1e-12, "{c}");
        let empty = Relation::empty(Schema::all_str("r", &["pc", "city"]));
        assert_eq!(consistency(&empty, &[fd("pc", "city")]), 1.0);
    }

    #[test]
    fn accuracy_checks_population_membership() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc"]),
            vec![tuple!["M1 1AA"], tuple!["BOGUS"], tuple!["EH1 1AA"]],
        )
        .unwrap();
        let reference = Relation::from_tuples(
            Schema::all_str("ref", &["postcode"]),
            vec![tuple!["M1 1AA"], tuple!["EH1 1AA"]],
        )
        .unwrap();
        let a = accuracy_against_reference(&rel, "pc", &reference, "postcode").unwrap();
        assert!((a - 2.0 / 3.0).abs() < 1e-12);
        assert!(accuracy_against_reference(&rel, "nope", &reference, "postcode").is_err());
    }

    #[test]
    fn the_verdict_memo_stays_bounded_and_exact() {
        let reference = Relation::from_tuples(
            Schema::all_str("ref", &["street"]),
            vec![tuple!["1 High St"], tuple!["2 park rd"]],
        )
        .unwrap();
        // more distinct strings than the memo holds, two of them in the
        // reference under another spelling
        let mut rows: Vec<_> =
            (0..VERDICT_MEMO_CAP + 10).map(|i| tuple![format!("{i} elm st")]).collect();
        rows.extend([tuple!["1 high st"], tuple!["2 PARK RD"]]);
        let rel = Relation::from_tuples(Schema::all_str("r", &["street"]), rows).unwrap();
        let mut population = ReferencePopulation::new(&reference, "street").unwrap();
        let want = 2.0 / rel.len() as f64;
        for _ in 0..2 {
            assert_eq!(population.accuracy(&rel, "street").unwrap(), want);
            assert!(population.verdicts.len() <= VERDICT_MEMO_CAP);
        }
    }

    #[test]
    fn master_coverage_measures_recall_of_keys() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["street"]),
            vec![tuple!["1 high st"], tuple!["1 high st"]],
        )
        .unwrap();
        let master = Relation::from_tuples(
            Schema::all_str("m", &["street"]),
            vec![tuple!["1 high st"], tuple!["2 park rd"]],
        )
        .unwrap();
        let c = master_coverage(&rel, "street", &master, "street").unwrap();
        assert!((c - 0.5).abs() < 1e-12);
    }
}
