//! CFD violation detection on arbitrary relations.
//!
//! A CFD learned on a context relation is *checked* on any relation that
//! has the involved attributes (the wrangling result, a source, ...); CFDs
//! whose attributes are absent are skipped.

use std::collections::HashMap;

use vada_common::{Relation, Value};
use vada_kb::CfdRule;

/// A detected violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated CFD.
    pub cfd_id: String,
    /// Rows participating in the violation.
    pub rows: Vec<usize>,
    /// The offended attribute (the CFD's RHS).
    pub attr: String,
}

/// Resolve the column indices a CFD needs on `rel`; `None` if any is
/// missing.
pub(crate) fn resolve_columns(rel: &Relation, cfd: &CfdRule) -> Option<(Vec<usize>, usize)> {
    let lhs: Option<Vec<usize>> = cfd
        .lhs
        .iter()
        .map(|(a, _)| rel.schema().index_of(a))
        .collect();
    let rhs = rel.schema().index_of(&cfd.rhs.0)?;
    Some((lhs?, rhs))
}

/// Check whether a row matches the CFD's LHS patterns (nulls never match).
fn lhs_matches(rel: &Relation, row: usize, cfd: &CfdRule, lhs_cols: &[usize]) -> bool {
    for ((_, pattern), &col) in cfd.lhs.iter().zip(lhs_cols) {
        let v = &rel.tuples()[row][col];
        if v.is_null() {
            return false;
        }
        if let Some(p) = pattern {
            if v != p {
                return false;
            }
        }
    }
    true
}

/// Detect all violations of `cfds` on `rel`.
///
/// * Variable FDs `X → A`: rows that agree on `X` but not on `A`; the rows
///   deviating from the group's majority `A` value are reported.
/// * Constant CFDs `(X = x) → (A = a)`: rows matching the LHS pattern whose
///   `A` is non-null and differs from `a`.
pub fn detect_violations(rel: &Relation, cfds: &[CfdRule]) -> Vec<Violation> {
    let mut out = Vec::new();
    for cfd in cfds {
        let Some((lhs_cols, rhs_col)) = resolve_columns(rel, cfd) else {
            continue;
        };
        if let Some(want) = &cfd.rhs.1 {
            // constant CFD
            let mut rows = Vec::new();
            for row in 0..rel.len() {
                if !lhs_matches(rel, row, cfd, &lhs_cols) {
                    continue;
                }
                let got = &rel.tuples()[row][rhs_col];
                if !got.is_null() && got != want {
                    rows.push(row);
                }
            }
            if !rows.is_empty() {
                out.push(Violation { cfd_id: cfd.id.clone(), rows, attr: cfd.rhs.0.clone() });
            }
        } else {
            // variable FD: group by LHS values
            let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for row in 0..rel.len() {
                if !lhs_matches(rel, row, cfd, &lhs_cols) {
                    continue;
                }
                let key: Vec<Value> = lhs_cols
                    .iter()
                    .map(|&c| rel.tuples()[row][c].clone())
                    .collect();
                groups.entry(key).or_default().push(row);
            }
            let mut keys: Vec<&Vec<Value>> = groups.keys().collect();
            keys.sort();
            for key in keys {
                let rows = &groups[key];
                // count RHS values within the group
                let mut counts: HashMap<&Value, usize> = HashMap::new();
                for &row in rows {
                    let v = &rel.tuples()[row][rhs_col];
                    if !v.is_null() {
                        *counts.entry(v).or_default() += 1;
                    }
                }
                if counts.len() <= 1 {
                    continue;
                }
                let majority = counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                    .map(|(v, _)| (*v).clone())
                    .expect("non-empty");
                let bad: Vec<usize> = rows
                    .iter()
                    .copied()
                    .filter(|&r| {
                        let v = &rel.tuples()[r][rhs_col];
                        !v.is_null() && *v != majority
                    })
                    .collect();
                if !bad.is_empty() {
                    out.push(Violation {
                        cfd_id: cfd.id.clone(),
                        rows: bad,
                        attr: cfd.rhs.0.clone(),
                    });
                }
            }
        }
    }
    out
}

/// The number of *distinct rows* involved in any violation.
pub fn violating_row_count(violations: &[Violation]) -> usize {
    let mut rows = std::collections::HashSet::new();
    for v in violations {
        rows.extend(v.rows.iter().copied());
    }
    rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};

    fn fd(id: &str, lhs: &str, rhs: &str) -> CfdRule {
        CfdRule {
            id: id.into(),
            relation: "r".into(),
            lhs: vec![(lhs.into(), None)],
            rhs: (rhs.into(), None),
            support: 10,
        }
    }

    #[test]
    fn variable_fd_violation_found() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![
                tuple!["M1", "manchester"],
                tuple!["M1", "manchester"],
                tuple!["M1", "leeds"], // violator
                tuple!["EH1", "edinburgh"],
            ],
        )
        .unwrap();
        let v = detect_violations(&rel, &[fd("c0", "pc", "city")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![2]);
        assert_eq!(violating_row_count(&v), 1);
    }

    #[test]
    fn constant_cfd_violation_found() {
        let cfd = CfdRule {
            id: "c1".into(),
            relation: "r".into(),
            lhs: vec![("pc".into(), Some(Value::str("M1")))],
            rhs: ("city".into(), Some(Value::str("manchester"))),
            support: 4,
        };
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![
                tuple!["M1", "manchester"],
                tuple!["M1", "leeds"],
                tuple!["EH1", "leeds"], // different pattern: not checked
            ],
        )
        .unwrap();
        let v = detect_violations(&rel, &[cfd]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![1]);
    }

    #[test]
    fn nulls_do_not_violate() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![
                tuple!["M1", "manchester"],
                vada_common::Tuple::new(vec![Value::str("M1"), Value::Null]),
            ],
        )
        .unwrap();
        assert!(detect_violations(&rel, &[fd("c0", "pc", "city")]).is_empty());
    }

    #[test]
    fn missing_attributes_skip_cfd() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["other"]),
            vec![tuple!["x"]],
        )
        .unwrap();
        assert!(detect_violations(&rel, &[fd("c0", "pc", "city")]).is_empty());
    }

    #[test]
    fn clean_relation_has_no_violations() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["pc", "city"]),
            vec![tuple!["M1", "manchester"], tuple!["EH1", "edinburgh"]],
        )
        .unwrap();
        assert!(detect_violations(&rel, &[fd("c0", "pc", "city")]).is_empty());
    }
}
