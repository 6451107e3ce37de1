//! Quality metrics: the evidence the user context trades off
//! (paper §2.2: completeness can be estimated from non-null fractions,
//! consistency needs CFDs learned from the data context, accuracy needs a
//! reference population).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use vada_common::text::{blocking_key, normalize, normalize_append};
use vada_common::{Relation, Result, Value};
use vada_kb::CfdRule;

use crate::violations::{detect_violations, violating_row_count};

/// Consistency of a relation w.r.t. a CFD set: `1 − violating rows / rows`.
/// An empty relation is vacuously consistent.
pub fn consistency(rel: &Relation, cfds: &[CfdRule]) -> f64 {
    if rel.is_empty() {
        return 1.0;
    }
    let violations = detect_violations(rel, cfds);
    1.0 - violating_row_count(&violations) as f64 / rel.len() as f64
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
        let mut total = 0usize;
        let mut hits = 0usize;
        let mut norm = String::new();
        for t in rel.iter() {
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
            total += 1;
            hits += usize::from(hit);
        }
        Ok(if total == 0 { 1.0 } else { hits as f64 / total as f64 })
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
