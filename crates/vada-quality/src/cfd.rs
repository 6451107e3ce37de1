//! Levelwise CFD learning (CTANE-style) from reference/master data.
//!
//! We mine two dependency classes used by the repair and consistency
//! components:
//!
//! * **variable FDs** `X → A` (all patterns wildcards) — `X` functionally
//!   determines `A` on the training relation;
//! * **constant CFDs** `(B = b) → (A = a)` — within the tuples where
//!   `B = b`, attribute `A` is constantly `a` (mined for single-attribute
//!   LHS with a support threshold).
//!
//! Minimality: an FD `X → A` is suppressed when some `X' ⊂ X → A` already
//! holds. Tuples with nulls in the involved attributes are ignored, as is
//! conventional.

use std::collections::{BTreeSet, HashMap};

use vada_common::{Relation, Value};
use vada_kb::CfdRule;

/// Learner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CfdLearnConfig {
    /// Maximum LHS size for variable FDs.
    pub max_lhs: usize,
    /// Minimum number of non-null training tuples for any dependency.
    pub min_support: usize,
    /// Minimum LHS-group size for a *constant* CFD pattern (small groups
    /// produce coincidental constants).
    pub min_pattern_support: usize,
    /// Whether to mine constant CFDs at all.
    pub mine_constants: bool,
    /// Cap on emitted constant CFDs (largest support first).
    pub max_constant_cfds: usize,
}

impl Default for CfdLearnConfig {
    fn default() -> Self {
        CfdLearnConfig {
            max_lhs: 2,
            min_support: 5,
            min_pattern_support: 4,
            mine_constants: true,
            max_constant_cfds: 50,
        }
    }
}

/// The code of a null cell, and the group of a row left out of a partition
/// (one with a null in a partitioning column).
const NONE: u32 = u32::MAX;

/// One column, dictionary-encoded: a dense code per row, numbered by first
/// appearance under `Value`'s own `Eq`/`Hash` — so `Int(1)` and
/// `Float(1.0)` share a code exactly as they would share a hash-map key.
/// A code column *is* the partition of the rows by that column.
struct CodeColumn {
    /// Code per row; [`NONE`] for a null.
    codes: Vec<u32>,
    /// The row each code first appeared in; its cell is the code's
    /// representative, as written.
    first_row: Vec<usize>,
}

impl CodeColumn {
    fn encode(rel: &Relation, col: usize) -> CodeColumn {
        let mut dict: HashMap<&Value, u32> = HashMap::new();
        let mut first_row = Vec::new();
        let codes = rel
            .iter()
            .enumerate()
            .map(|(row, t)| {
                let v = &t[col];
                if v.is_null() {
                    return NONE;
                }
                *dict.entry(v).or_insert_with(|| {
                    first_row.push(row);
                    (first_row.len() - 1) as u32
                })
            })
            .collect();
        CodeColumn { codes, first_row }
    }

    fn partition(&self) -> Partition {
        Partition { group: self.codes.clone(), groups: self.first_row.len() }
    }
}

/// The rows grouped by the values of a column set: a dense group id per
/// row, [`NONE`] for rows with a null in any of the columns.
struct Partition {
    group: Vec<u32>,
    groups: usize,
}

impl Partition {
    /// The partition by this one's columns plus `col`.
    fn refine(&self, col: &CodeColumn) -> Partition {
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let group = self
            .group
            .iter()
            .zip(&col.codes)
            .map(|(&g, &c)| {
                if g == NONE || c == NONE {
                    return NONE;
                }
                let next = ids.len() as u32;
                *ids.entry((g, c)).or_insert(next)
            })
            .collect();
        Partition { group, groups: ids.len() }
    }

    /// Does `X → A` hold (exactly) on the non-null rows, `X` being this
    /// partition's columns? Returns the number of supporting rows when it
    /// does. One pass, stopping at the first group with two `A` values.
    fn determines(&self, rhs: &CodeColumn) -> Option<usize> {
        let mut value_of_group = vec![NONE; self.groups];
        let mut support = 0usize;
        for (&g, &v) in self.group.iter().zip(&rhs.codes) {
            if g == NONE || v == NONE {
                continue;
            }
            let seen = &mut value_of_group[g as usize];
            if *seen == NONE {
                *seen = v;
            } else if *seen != v {
                return None;
            }
            support += 1;
        }
        Some(support)
    }
}

/// Mine CFDs from a training relation, levelwise by LHS size. Minimality
/// pruning only consults dependencies found at strictly smaller LHS sizes
/// (equal-size sets can never subsume one another).
///
/// Every column is dictionary-encoded once and the relation's values are
/// not read again. A LHS set is partitioned once — level 1 is the code
/// column itself, level *k* refines the level *k − 1* partition of the set
/// without its largest column by that column's codes (TANE's partition
/// product) — and each `X → A` is then an array pass over group ids and
/// codes.
pub fn learn_cfds(cfg: &CfdLearnConfig, rel: &Relation) -> Vec<CfdRule> {
    let n_attrs = rel.schema().arity();
    // codes and group ids are row-bounded `u32`s, `NONE` excluded
    assert!(
        rel.len() < NONE as usize,
        "`{}` has {} rows, more than CFD mining can number",
        rel.name(),
        rel.len()
    );
    let attr_name = |i: usize| rel.schema().attr(i).name.clone();
    let columns: Vec<CodeColumn> = (0..n_attrs).map(|c| CodeColumn::encode(rel, c)).collect();
    let mut out: Vec<CfdRule> = Vec::new();
    // (lhs column set, rhs column) of already-found variable FDs, for
    // minimality pruning
    let mut found: Vec<(BTreeSet<usize>, usize)> = Vec::new();

    // variable FDs, levelwise by LHS size
    let mut level: Vec<BTreeSet<usize>> =
        (0..n_attrs).map(|i| BTreeSet::from([i])).collect();
    // the previous level's partitions, by column set
    let mut coarser: HashMap<BTreeSet<usize>, Partition> = HashMap::new();
    for size in 1..=cfg.max_lhs {
        let last_level = size == cfg.max_lhs;
        let mut partitions = HashMap::new();
        for lhs_set in &level {
            let rhs_cols: Vec<usize> = (0..n_attrs)
                .filter(|rhs| !lhs_set.contains(rhs))
                // minimality: a subset already determines rhs
                .filter(|rhs| !found.iter().any(|(l, r)| r == rhs && l.is_subset(lhs_set)))
                .collect();
            if rhs_cols.is_empty() && last_level {
                continue; // nothing reads this partition
            }
            let last = *lhs_set.last().expect("LHS sets are non-empty");
            let partition = if size == 1 {
                columns[last].partition()
            } else {
                let mut rest = lhs_set.clone();
                rest.remove(&last);
                coarser[&rest].refine(&columns[last])
            };
            for rhs in rhs_cols {
                if let Some(support) = partition.determines(&columns[rhs]) {
                    if support >= cfg.min_support {
                        found.push((lhs_set.clone(), rhs));
                        out.push(CfdRule {
                            id: String::new(),
                            relation: rel.name().to_string(),
                            lhs: lhs_set.iter().map(|&c| (attr_name(c), None)).collect(),
                            rhs: (attr_name(rhs), None),
                            support,
                        });
                    }
                }
            }
            // only a finer level reads it again
            if !last_level {
                partitions.insert(lhs_set.clone(), partition);
            }
        }
        coarser = partitions;
        // next level: expand each set by one attribute
        let mut next: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
        for s in &level {
            for a in 0..n_attrs {
                if !s.contains(&a) {
                    let mut bigger = s.clone();
                    bigger.insert(a);
                    next.insert(bigger);
                }
            }
        }
        level = next.into_iter().collect();
    }

    // constant CFDs with single-attribute LHS, one LHS attribute at a time
    // (deterministic: groups are scanned in sorted value order)
    if cfg.mine_constants {
        let mut constants: Vec<CfdRule> = Vec::new();
        for lhs in 0..n_attrs {
            let rhs_cols: Vec<usize> = (0..n_attrs)
                .filter(|&rhs| rhs != lhs)
                // subsumed by the variable FD lhs → rhs
                .filter(|rhs| {
                    !found.iter().any(|(l, r)| r == rhs && l.len() == 1 && l.contains(&lhs))
                })
                .collect();
            if rhs_cols.is_empty() {
                continue;
            }
            // counting sort of the rows by LHS code: group `c` is
            // `rows[start[c]..start[c + 1]]`, rows ascending
            let column = &columns[lhs];
            let mut start = vec![0usize; column.first_row.len() + 1];
            for &c in column.codes.iter().filter(|&&c| c != NONE) {
                start[c as usize + 1] += 1;
            }
            for c in 1..start.len() {
                start[c] += start[c - 1];
            }
            let mut fill = start.clone();
            let mut rows = vec![0usize; start[start.len() - 1]];
            for (row, &c) in column.codes.iter().enumerate() {
                if c != NONE {
                    rows[fill[c as usize]] = row;
                    fill[c as usize] += 1;
                }
            }
            // only the groups large enough to carry a pattern, by value
            let value_of = |c: usize| &rel.tuples()[column.first_row[c]][lhs];
            let mut groups: Vec<usize> = (0..column.first_row.len())
                .filter(|&c| start[c + 1] - start[c] >= cfg.min_pattern_support)
                .collect();
            groups.sort_by(|&a, &b| value_of(a).cmp(value_of(b)));
            for c in groups {
                for &rhs in &rhs_cols {
                    let codes = &columns[rhs].codes;
                    // (first row with a value, its code)
                    let mut constant: Option<(usize, u32)> = None;
                    let mut ok = true;
                    let mut support = 0usize;
                    for &row in &rows[start[c]..start[c + 1]] {
                        let v = codes[row];
                        if v == NONE {
                            continue;
                        }
                        match constant {
                            None => constant = Some((row, v)),
                            Some((_, prev)) if prev == v => {}
                            Some(_) => {
                                ok = false;
                                break;
                            }
                        }
                        support += 1;
                    }
                    if ok && support >= cfg.min_pattern_support {
                        if let Some((row, _)) = constant {
                            constants.push(CfdRule {
                                id: String::new(),
                                relation: rel.name().to_string(),
                                lhs: vec![(attr_name(lhs), Some(value_of(c).clone()))],
                                rhs: (attr_name(rhs), Some(rel.tuples()[row][rhs].clone())),
                                support,
                            });
                        }
                    }
                }
            }
        }
        // the cap keeps the largest supports, ties broken by content
        constants.sort_by_cached_key(|c| (std::cmp::Reverse(c.support), c.display()));
        constants.truncate(cfg.max_constant_cfds);
        out.extend(constants);
    }

    // a rule's id is its content, so the same rule learned twice is one
    for rule in &mut out {
        rule.id = rule.display();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};

    /// address-like training data where postcode → city holds.
    fn address() -> Relation {
        let schema = Schema::all_str("address", &["street", "city", "postcode"]);
        let rows = vec![
            tuple!["1 high st", "manchester", "M1 1AA"],
            tuple!["2 high st", "manchester", "M1 1AA"],
            tuple!["3 park rd", "manchester", "M1 1AB"],
            tuple!["4 park rd", "manchester", "M1 1AB"],
            tuple!["5 mill ln", "manchester", "M2 2AA"],
            tuple!["6 mill ln", "manchester", "M2 2AA"],
            tuple!["7 kings ave", "edinburgh", "EH1 1AA"],
            tuple!["8 kings ave", "edinburgh", "EH1 1AA"],
            tuple!["9 queens dr", "edinburgh", "EH1 1AB"],
            tuple!["10 queens dr", "edinburgh", "EH1 1AB"],
        ];
        Relation::from_tuples(schema, rows).unwrap()
    }

    fn has_variable_fd(cfds: &[CfdRule], lhs: &[&str], rhs: &str) -> bool {
        cfds.iter().any(|c| {
            c.rhs.0 == rhs
                && c.rhs.1.is_none()
                && c.lhs.len() == lhs.len()
                && c.lhs.iter().all(|(a, p)| p.is_none() && lhs.contains(&a.as_str()))
        })
    }

    #[test]
    fn postcode_determines_city() {
        let cfds = learn_cfds(&CfdLearnConfig::default(), &address());
        assert!(has_variable_fd(&cfds, &["postcode"], "city"), "{cfds:?}");
    }

    #[test]
    fn city_does_not_determine_postcode() {
        let cfds = learn_cfds(&CfdLearnConfig::default(), &address());
        assert!(!has_variable_fd(&cfds, &["city"], "postcode"));
    }

    #[test]
    fn minimality_suppresses_supersets() {
        let cfds = learn_cfds(&CfdLearnConfig::default(), &address());
        // postcode → city holds, so {street, postcode} → city must not be
        // reported
        assert!(!has_variable_fd(&cfds, &["street", "postcode"], "city"));
    }

    #[test]
    fn relearning_a_relation_gives_equal_ids_in_equal_order() {
        let ids = |cfg: &CfdLearnConfig| {
            learn_cfds(cfg, &address()).into_iter().map(|c| c.id).collect::<Vec<_>>()
        };
        let loose = CfdLearnConfig { min_pattern_support: 2, ..Default::default() };
        for cfg in [CfdLearnConfig::default(), loose] {
            let first = ids(&cfg);
            assert!(!first.is_empty());
            assert_eq!(ids(&cfg), first);
        }
    }

    #[test]
    fn mined_fds_hold_on_training_data() {
        let rel = address();
        let cfds = learn_cfds(&CfdLearnConfig::default(), &rel);
        for cfd in &cfds {
            let violations = crate::violations::detect_violations(&rel, std::slice::from_ref(cfd));
            assert!(violations.is_empty(), "mined CFD {} violated on training data", cfd.display());
        }
    }

    #[test]
    fn constant_cfds_mined_with_support() {
        let schema = Schema::all_str("r", &["district", "region"]);
        let mut rows = Vec::new();
        for i in 0..6 {
            for _ in 0..4 {
                rows.push(tuple![format!("M{i}"), "north"]);
            }
        }
        // district → region holds variably here; force a non-FD case by one
        // exceptional row so only constants survive
        rows.push(tuple!["M0", "south"]);
        let rel = Relation::from_tuples(schema, rows).unwrap();
        let cfds = learn_cfds(
            &CfdLearnConfig { min_support: 100, ..Default::default() },
            &rel,
        );
        // variable FD suppressed by support (and broken by M0); constants on
        // M1..M5 should appear
        let constants: Vec<_> = cfds.iter().filter(|c| c.rhs.1.is_some()).collect();
        assert!(!constants.is_empty());
        for c in constants {
            assert!(c.lhs[0].1.is_some());
            assert_ne!(c.lhs[0].1.as_ref().unwrap(), &Value::str("M0"));
        }
    }

    #[test]
    fn nulls_are_ignored() {
        let schema = Schema::all_str("r", &["a", "b"]);
        let rows = vec![
            tuple!["x", "1"],
            tuple!["x", "1"],
            tuple!["x", "1"],
            tuple!["x", "1"],
            tuple!["x", "1"],
            vada_common::Tuple::new(vec![Value::str("x"), Value::Null]),
        ];
        let rel = Relation::from_tuples(schema, rows).unwrap();
        let cfds = learn_cfds(&CfdLearnConfig::default(), &rel);
        assert!(has_variable_fd(&cfds, &["a"], "b"));
    }

    #[test]
    fn support_threshold_prunes() {
        let schema = Schema::all_str("r", &["a", "b"]);
        let rel = Relation::from_tuples(schema, vec![tuple!["x", "1"]]).unwrap();
        let cfds = learn_cfds(&CfdLearnConfig::default(), &rel);
        assert!(cfds.is_empty());
    }
}
