//! Reference-driven repair (paper §2.3: "thereby to carry out repairs to
//! the mapping results").
//!
//! Two repair strategies, both powered by the data context:
//!
//! 1. **CFD lookup repair** — for each learned variable FD `X → A` that
//!    also holds on the reference relation, build a lookup `X values → A
//!    value` from the reference data; any result row whose `X` values hit
//!    the lookup gets its `A` overwritten (or a null filled) when it
//!    disagrees.
//! 2. **Fuzzy key repair** — typo'd values of a *key-like* attribute (the
//!    scenario's `street`) are snapped to the unique sufficiently-similar
//!    reference value sharing the row's `postcode`-like context.

use std::collections::HashMap;

use vada_common::text::{blocking_key, jaro_winkler_chars};
use vada_common::{Relation, Value};
use vada_kb::CfdRule;

use crate::violations::resolve_columns;

/// Repair configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Minimum Jaro-Winkler similarity for a fuzzy snap.
    pub fuzzy_threshold: f64,
    /// Fill nulls from CFD lookups (not just fix conflicts)?
    pub fill_nulls: bool,
    /// Maximum chase passes: a repaired cell can enable further repairs
    /// (a filled postcode unlocks the city lookup), so repair iterates to
    /// a fixpoint; the cap guards against adversarial cyclic references,
    /// mirroring the Datalog chase's termination guard.
    pub max_passes: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig { fuzzy_threshold: 0.88, fill_nulls: true, max_passes: 8 }
    }
}

/// What a repair run changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Cells overwritten because they conflicted with a CFD lookup.
    pub cfd_fixes: usize,
    /// Nulls filled from CFD lookups.
    pub null_fills: usize,
    /// Values snapped by fuzzy matching.
    pub fuzzy_fixes: usize,
    /// Chase passes executed.
    pub passes: usize,
    /// Whether the chase reached a fixpoint (a pass that changed nothing)
    /// within the pass cap. When `true`, a further repair call is a no-op.
    pub converged: bool,
}

impl RepairReport {
    /// Total changed cells.
    pub fn total(&self) -> usize {
        self.cfd_fixes + self.null_fills + self.fuzzy_fixes
    }
}

/// One variable FD `X → A`, resolved for a repair call: where `X` and `A`
/// sit in the repaired relation, and the reference's `X values → A value`
/// table.
struct Lookup {
    lhs_cols: Vec<usize>,
    rhs_col: usize,
    table: HashMap<Vec<Value>, Value>,
}

/// Lookup tables built from the reference relation for each variable FD
/// whose attributes both the repaired relation and the reference have. The
/// repaired relation is asked first: an FD it cannot apply costs no scan of
/// the reference.
fn build_lookups(cfds: &[CfdRule], rel: &Relation, reference: &Relation) -> Vec<Lookup> {
    let mut out = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    for cfd in cfds {
        if cfd.rhs.1.is_some() || cfd.lhs.iter().any(|(_, p)| p.is_some()) {
            continue; // constant CFDs handled through violations, not lookup
        }
        let Some((lhs_cols, rhs_col)) = resolve_columns(rel.schema(), cfd) else { continue };
        let Some((ref_lhs, ref_rhs)) = resolve_columns(reference.schema(), cfd) else { continue };
        let mut table: HashMap<Vec<Value>, Value> = HashMap::new();
        let mut conflicted: std::collections::HashSet<Vec<Value>> = Default::default();
        for t in reference.iter() {
            if ref_lhs.iter().any(|&c| t[c].is_null()) || t[ref_rhs].is_null() {
                continue;
            }
            key.clear();
            key.extend(ref_lhs.iter().map(|&c| t[c].clone()));
            match table.get(key.as_slice()) {
                None => {
                    table.insert(key.clone(), t[ref_rhs].clone());
                }
                Some(v) if *v == t[ref_rhs] => {}
                Some(_) => {
                    conflicted.insert(key.clone());
                }
            }
        }
        for key in conflicted {
            table.remove(&key); // FD does not actually hold here: no repair
        }
        out.push(Lookup { lhs_cols, rhs_col, table });
    }
    out
}

/// A reference value a typo can snap to: the value as written, and its
/// normal form as a span of [`FuzzyIndex::chars`].
#[derive(Debug)]
struct SnapTarget {
    value: Value,
    start: usize,
    end: usize,
}

/// The reference side of fuzzy key repair: the reference's values of the
/// fuzzy attribute, grouped by the grouping attribute (reference order
/// within a group), normal forms decoded once. It depends on the reference
/// and the two attribute names only — never on the relation being
/// repaired, whose columns [`repair`] resolves per call — so one index
/// serves every repair against the same version of the reference.
#[derive(Debug)]
pub struct FuzzyIndex {
    fuzzy_attr: String,
    group_attr: String,
    by_group: HashMap<Value, Vec<SnapTarget>>,
    chars: Vec<char>,
}

impl FuzzyIndex {
    /// Index `reference.fuzzy_attr` by `reference.group_attr`; `None` when
    /// the reference lacks either attribute.
    pub fn new(reference: &Relation, fuzzy_attr: &str, group_attr: &str) -> Option<FuzzyIndex> {
        let (f_ref, g_ref) =
            (reference.schema().index_of(fuzzy_attr)?, reference.schema().index_of(group_attr)?);
        let mut by_group: HashMap<Value, Vec<SnapTarget>> = HashMap::new();
        let mut chars: Vec<char> = Vec::new();
        let mut norm = String::new();
        for t in reference.iter() {
            // one key column: the key is the cell's normal form, and a null
            // cell has none
            if !t[g_ref].is_null() && blocking_key(t, &[f_ref], &mut norm) {
                let start = chars.len();
                chars.extend(norm.chars());
                let target = SnapTarget { value: t[f_ref].clone(), start, end: chars.len() };
                // the group's value is cloned once, for its first target
                match by_group.get_mut(&t[g_ref]) {
                    Some(targets) => targets.push(target),
                    None => {
                        by_group.insert(t[g_ref].clone(), vec![target]);
                    }
                }
            }
        }
        Some(FuzzyIndex {
            fuzzy_attr: fuzzy_attr.to_string(),
            group_attr: group_attr.to_string(),
            by_group,
            chars,
        })
    }
}

/// A [`FuzzyIndex`] with its attributes resolved against the relation
/// being repaired.
struct FuzzyPass<'i> {
    index: &'i FuzzyIndex,
    fuzzy_col: usize,
    group_col: usize,
}

/// Repair `rel` in place using CFD lookups over `reference`, then fuzzy
/// key repair of `fuzzy_attr` grouped by `group_attr` (pass `None` to skip
/// the fuzzy pass). Iterates the pass to a fixpoint (chase-style): a
/// filled cell can enable further lookups.
///
/// This prepares a [`FuzzyIndex`] and hands it to [`repair`]; a caller
/// repairing against one reference many times builds the index once and
/// calls [`repair`] itself.
pub fn repair_with_reference(
    cfg: &RepairConfig,
    rel: &mut Relation,
    cfds: &[CfdRule],
    reference: &Relation,
    fuzzy: Option<(&str, &str)>,
) -> RepairReport {
    let index = fuzzy.and_then(|(fuzzy_attr, group_attr)| {
        FuzzyIndex::new(reference, fuzzy_attr, group_attr)
    });
    repair(cfg, rel, cfds, reference, index.as_ref())
}

/// [`repair_with_reference`] with the fuzzy index already built: CFD
/// lookups over `reference`, then the fuzzy snap through `fuzzy` when
/// `rel` has both of its attributes, iterated to a fixpoint.
///
/// The reference is read once, into the lookup tables. A row's repairs read
/// only that row, those and the index, so a pass after the first revisits
/// exactly the rows the pass before it changed.
pub fn repair(
    cfg: &RepairConfig,
    rel: &mut Relation,
    cfds: &[CfdRule],
    reference: &Relation,
    fuzzy: Option<&FuzzyIndex>,
) -> RepairReport {
    let lookups = build_lookups(cfds, rel, reference);
    let fuzzy = fuzzy.and_then(|index| {
        let schema = rel.schema();
        Some(FuzzyPass {
            index,
            fuzzy_col: schema.index_of(&index.fuzzy_attr)?,
            group_col: schema.index_of(&index.group_attr)?,
        })
    });
    let mut report = RepairReport::default();
    let mut scratch = Scratch::default();
    let mut worklist: Vec<usize> = (0..rel.len()).collect();
    for pass in 0..cfg.max_passes.max(1) {
        report.passes = pass + 1;
        let before = report.total();
        worklist.retain(|&row| {
            let fixes = report.total();
            repair_row(cfg, rel, row, &lookups, fuzzy.as_ref(), &mut scratch, &mut report);
            report.total() > fixes
        });
        if report.total() == before {
            report.converged = true;
            break;
        }
    }
    report
}

/// Buffers one repair call reuses across rows.
#[derive(Default)]
struct Scratch {
    key: Vec<Value>,
    norm: String,
    chars: Vec<char>,
}

/// One chase step on one row: every CFD lookup in rule order, then the
/// fuzzy snap, each reading the row as the step before left it.
fn repair_row(
    cfg: &RepairConfig,
    rel: &mut Relation,
    row: usize,
    lookups: &[Lookup],
    fuzzy: Option<&FuzzyPass>,
    scratch: &mut Scratch,
    report: &mut RepairReport,
) {
    // 1. CFD lookup repair
    for Lookup { lhs_cols, rhs_col, table } in lookups {
        let t = &rel.tuples()[row];
        if lhs_cols.iter().any(|&c| t[c].is_null()) {
            continue;
        }
        scratch.key.clear();
        scratch.key.extend(lhs_cols.iter().map(|&c| t[c].clone()));
        let Some(want) = table.get(scratch.key.as_slice()) else { continue };
        let got = &t[*rhs_col];
        let fixes = if got.is_null() {
            if !cfg.fill_nulls {
                continue;
            }
            &mut report.null_fills
        } else if got != want {
            &mut report.cfd_fixes
        } else {
            continue;
        };
        let fixed = t.with_value(*rhs_col, want.clone());
        rel.replace(row, fixed).expect("same arity");
        *fixes += 1;
    }

    // 2. fuzzy key repair
    let Some(FuzzyPass { index, fuzzy_col, group_col }) = fuzzy else { return };
    let t = &rel.tuples()[row];
    let group = &t[*group_col];
    if group.is_null() || !blocking_key(t, &[*fuzzy_col], &mut scratch.norm) {
        return;
    }
    let Some(candidates) = index.by_group.get(group) else { return };
    scratch.chars.clear();
    scratch.chars.extend(scratch.norm.chars());
    let got = scratch.chars.as_slice();
    let normal_form = |c: &SnapTarget| &index.chars[c.start..c.end];
    if candidates.iter().any(|c| normal_form(c) == got) {
        return; // already a reference value
    }
    // unique candidate above the similarity threshold?
    let mut best: Option<&Value> = None;
    let mut ambiguous = false;
    for c in candidates {
        if jaro_winkler_chars(got, normal_form(c)) >= cfg.fuzzy_threshold {
            match best {
                None => best = Some(&c.value),
                Some(prev) if *prev == c.value => {}
                Some(_) => ambiguous = true,
            }
        }
    }
    if let (Some(want), false) = (best, ambiguous) {
        let fixed = t.with_value(*fuzzy_col, want.clone());
        rel.replace(row, fixed).expect("same arity");
        report.fuzzy_fixes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};

    fn fd(lhs: &str, rhs: &str) -> CfdRule {
        CfdRule {
            id: "c".into(),
            relation: "address".into(),
            lhs: vec![(lhs.into(), None)],
            rhs: (rhs.into(), None),
            support: 10,
        }
    }

    fn reference() -> Relation {
        Relation::from_tuples(
            Schema::all_str("address", &["street", "city", "postcode"]),
            vec![
                tuple!["1 high st", "manchester", "M1 1AA"],
                tuple!["2 park rd", "manchester", "M1 1AB"],
                tuple!["3 kings ave", "edinburgh", "EH1 1AA"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn cfd_lookup_fixes_conflicts_and_fills_nulls() {
        let mut rel = Relation::from_tuples(
            Schema::all_str("result", &["street", "city", "postcode"]),
            vec![
                tuple!["1 high st", "leeds", "M1 1AA"], // wrong city
                vada_common::Tuple::new(vec![
                    Value::str("2 park rd"),
                    Value::Null, // missing city
                    Value::str("M1 1AB"),
                ]),
            ],
        )
        .unwrap();
        let report = repair_with_reference(
            &RepairConfig::default(),
            &mut rel,
            &[fd("postcode", "city")],
            &reference(),
            None,
        );
        assert_eq!(report.cfd_fixes, 1);
        assert_eq!(report.null_fills, 1);
        assert_eq!(rel.tuples()[0][1], Value::str("manchester"));
        assert_eq!(rel.tuples()[1][1], Value::str("manchester"));
    }

    #[test]
    fn fuzzy_repair_snaps_typos() {
        let mut rel = Relation::from_tuples(
            Schema::all_str("result", &["street", "postcode"]),
            vec![
                tuple!["1 hgih st", "M1 1AA"], // transposition typo
                tuple!["totally different", "M1 1AA"],
            ],
        )
        .unwrap();
        let reference = Relation::from_tuples(
            Schema::all_str("address", &["street", "postcode"]),
            vec![tuple!["1 high st", "M1 1AA"]],
        )
        .unwrap();
        let report = repair_with_reference(
            &RepairConfig::default(),
            &mut rel,
            &[],
            &reference,
            Some(("street", "postcode")),
        );
        assert_eq!(report.fuzzy_fixes, 1);
        assert_eq!(rel.tuples()[0][0], Value::str("1 high st"));
        // the dissimilar value is left alone
        assert_eq!(rel.tuples()[1][0], Value::str("totally different"));
    }

    #[test]
    fn repair_is_idempotent() {
        let mut rel = Relation::from_tuples(
            Schema::all_str("result", &["street", "city", "postcode"]),
            vec![tuple!["1 hgih st", "leeds", "M1 1AA"]],
        )
        .unwrap();
        let cfds = [fd("postcode", "city")];
        let r1 = repair_with_reference(
            &RepairConfig::default(),
            &mut rel,
            &cfds,
            &reference(),
            Some(("street", "postcode")),
        );
        assert!(r1.total() > 0);
        let r2 = repair_with_reference(
            &RepairConfig::default(),
            &mut rel,
            &cfds,
            &reference(),
            Some(("street", "postcode")),
        );
        assert_eq!(r2.total(), 0, "second pass should change nothing");
    }

    #[test]
    fn conflicting_reference_keys_do_not_repair() {
        // reference where postcode → city does NOT hold: lookup must skip it
        let reference = Relation::from_tuples(
            Schema::all_str("address", &["city", "postcode"]),
            vec![tuple!["manchester", "M1 1AA"], tuple!["leeds", "M1 1AA"]],
        )
        .unwrap();
        let mut rel = Relation::from_tuples(
            Schema::all_str("result", &["city", "postcode"]),
            vec![tuple!["bristol", "M1 1AA"]],
        )
        .unwrap();
        let report = repair_with_reference(
            &RepairConfig::default(),
            &mut rel,
            &[fd("postcode", "city")],
            &reference,
            None,
        );
        assert_eq!(report.total(), 0);
        assert_eq!(rel.tuples()[0][0], Value::str("bristol"));
    }

    #[test]
    fn repair_reduces_violations() {
        let cfds = [fd("postcode", "city")];
        let mut rel = Relation::from_tuples(
            Schema::all_str("result", &["street", "city", "postcode"]),
            vec![
                tuple!["1 high st", "manchester", "M1 1AA"],
                tuple!["1 high st", "leeds", "M1 1AA"],
            ],
        )
        .unwrap();
        let before = crate::violations::detect_violations(&rel, &cfds).len();
        assert!(before > 0);
        repair_with_reference(&RepairConfig::default(), &mut rel, &cfds, &reference(), None);
        let after = crate::violations::detect_violations(&rel, &cfds).len();
        assert_eq!(after, 0);
    }
}
