//! Property-based tests for the quality components: learner soundness
//! (mined CFDs hold on their training data), repair idempotence and
//! convergence to consistency on repairable instances.

use proptest::prelude::*;

use vada_common::{Relation, Schema, Tuple, Value};
use vada_quality::{
    consistency, detect_violations, learn_cfds, repair_with_reference, CfdLearnConfig,
    RepairConfig,
};

/// Random three-column relations with small domains (so FDs appear and
/// break by chance) and occasional nulls.
fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(
        (
            proptest::option::of(0u8..4),
            proptest::option::of(0u8..3),
            proptest::option::of(0u8..3),
        ),
        1..40,
    )
    .prop_map(|rows| {
        let schema = Schema::all_str("r", &["a", "b", "c"]);
        let mut rel = Relation::empty(schema);
        for (a, b, c) in rows {
            let cell = |v: Option<u8>| v.map(|x| Value::str(format!("v{x}"))).unwrap_or(Value::Null);
            rel.push(Tuple::new(vec![cell(a), cell(b), cell(c)])).unwrap();
        }
        rel
    })
}

/// Like [`arb_relation`] but with no nulls anywhere.
fn arb_complete_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..40).prop_map(|rows| {
        let schema = Schema::all_str("r", &["a", "b", "c"]);
        let mut rel = Relation::empty(schema);
        for (a, b, c) in rows {
            let cell = |x: u8| Value::str(format!("v{x}"));
            rel.push(Tuple::new(vec![cell(a), cell(b), cell(c)])).unwrap();
        }
        rel
    })
}

proptest! {
    #[test]
    fn mined_cfds_hold_on_training_data(rel in arb_relation()) {
        let cfds = learn_cfds(
            &CfdLearnConfig { min_support: 2, min_pattern_support: 2, ..Default::default() },
            &rel,
        );
        let violations = detect_violations(&rel, &cfds);
        prop_assert!(
            violations.is_empty(),
            "learner emitted a CFD its own training data violates: {:?}",
            violations
        );
        prop_assert!((consistency(&rel, &cfds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converged_repair_is_idempotent(dirty in arb_relation(), reference in arb_relation()) {
        // the chase can refuse to converge on adversarial cyclic lookup
        // tables (it stops at the pass cap and reports converged = false);
        // whenever it *does* converge, a second call must be a no-op
        let cfds = learn_cfds(
            &CfdLearnConfig { min_support: 2, min_pattern_support: 2, ..Default::default() },
            &reference,
        );
        let mut rel = dirty.clone();
        let first = repair_with_reference(
            &RepairConfig::default(), &mut rel, &cfds, &reference, None,
        );
        prop_assume!(first.converged);
        let snapshot = rel.tuples().to_vec();
        let second = repair_with_reference(
            &RepairConfig::default(), &mut rel, &cfds, &reference, None,
        );
        prop_assert_eq!(second.total(), 0, "second repair call must be a no-op");
        prop_assert!(second.converged);
        prop_assert_eq!(rel.tuples(), snapshot.as_slice());
    }

    #[test]
    fn repairing_a_complete_reference_is_a_noop(reference in arb_complete_relation()) {
        // a null-free reference equals its own lookup values everywhere, so
        // repair must change nothing at all (with nulls present, fills can
        // legitimately cascade — see `converged_repair_is_idempotent`)
        let cfds = learn_cfds(
            &CfdLearnConfig { min_support: 2, min_pattern_support: 2, ..Default::default() },
            &reference,
        );
        let mut rel = reference.clone();
        let report = repair_with_reference(
            &RepairConfig::default(), &mut rel, &cfds, &reference, None,
        );
        prop_assert_eq!(report.total(), 0, "{:?}", report);
        prop_assert!(report.converged);
        prop_assert_eq!(rel.tuples(), reference.tuples());
        prop_assert!((consistency(&rel, &cfds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn violation_rows_are_within_bounds(rel in arb_relation()) {
        let cfds = learn_cfds(
            &CfdLearnConfig { min_support: 2, min_pattern_support: 2, ..Default::default() },
            &rel,
        );
        for v in detect_violations(&rel, &cfds) {
            for row in v.rows {
                prop_assert!(row < rel.len());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential tests: CFD mining and reference repair against the
// implementations they replaced, kept here as test-only oracles — a
// `HashMap<Vec<Value>, Vec<usize>>` partition rebuilt for every (LHS, RHS)
// pair, and a chase that rebuilds every lookup table and the fuzzy group
// index on every pass and visits every row. The contract is the same output:
// the same rules in the same order with the same supports and the same
// pattern values as written, the same repaired cells and the same report.
// ---------------------------------------------------------------------------

mod oracle {
    use std::collections::{BTreeSet, HashMap, HashSet};

    use vada_common::text::{jaro_winkler, normalize};
    use vada_common::{Relation, Value};
    use vada_kb::CfdRule;
    use vada_quality::{CfdLearnConfig, RepairConfig, RepairReport};

    fn partition(rel: &Relation, cols: &[usize]) -> HashMap<Vec<Value>, Vec<usize>> {
        let mut parts: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        'rows: for (row, t) in rel.iter().enumerate() {
            let mut key = Vec::with_capacity(cols.len());
            for &c in cols {
                if t[c].is_null() {
                    continue 'rows;
                }
                key.push(t[c].clone());
            }
            parts.entry(key).or_default().push(row);
        }
        parts
    }

    fn fd_holds(rel: &Relation, lhs: &[usize], rhs: usize) -> Option<usize> {
        let parts = partition(rel, lhs);
        let mut support = 0usize;
        for rows in parts.values() {
            let mut value: Option<&Value> = None;
            for &row in rows {
                let v = &rel.tuples()[row][rhs];
                if v.is_null() {
                    continue;
                }
                match value {
                    None => value = Some(v),
                    Some(prev) if prev == v => {}
                    Some(_) => return None,
                }
                support += 1;
            }
        }
        Some(support)
    }

    /// The learner as it was, minus ids (they come from a process-global
    /// counter) and minus the worker pool (it merged in input order).
    pub fn learn_cfds(cfg: &CfdLearnConfig, rel: &Relation) -> Vec<CfdRule> {
        let n_attrs = rel.schema().arity();
        let attr_name = |i: usize| rel.schema().attr(i).name.clone();
        let rule = |lhs, rhs, support| CfdRule {
            id: String::new(),
            relation: rel.name().to_string(),
            lhs,
            rhs,
            support,
        };
        let mut out: Vec<CfdRule> = Vec::new();
        let mut found: Vec<(BTreeSet<usize>, usize)> = Vec::new();
        let mut level: Vec<BTreeSet<usize>> =
            (0..n_attrs).map(|i| BTreeSet::from([i])).collect();
        for _size in 1..=cfg.max_lhs {
            let mut level_found = Vec::new();
            for lhs_set in &level {
                let lhs_vec: Vec<usize> = lhs_set.iter().copied().collect();
                for rhs in 0..n_attrs {
                    if lhs_set.contains(&rhs) {
                        continue;
                    }
                    if found.iter().any(|(l, r)| *r == rhs && l.is_subset(lhs_set)) {
                        continue;
                    }
                    if let Some(support) = fd_holds(rel, &lhs_vec, rhs) {
                        if support >= cfg.min_support {
                            level_found.push((lhs_set.clone(), rhs));
                            out.push(rule(
                                lhs_vec.iter().map(|&c| (attr_name(c), None)).collect(),
                                (attr_name(rhs), None),
                                support,
                            ));
                        }
                    }
                }
            }
            found.extend(level_found);
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
        if cfg.mine_constants {
            let mut constants: Vec<CfdRule> = Vec::new();
            for lhs in 0..n_attrs {
                let parts = partition(rel, &[lhs]);
                let mut keys: Vec<&Vec<Value>> = parts.keys().collect();
                keys.sort();
                for key in keys {
                    let rows = &parts[key];
                    if rows.len() < cfg.min_pattern_support {
                        continue;
                    }
                    for rhs in 0..n_attrs {
                        if rhs == lhs {
                            continue;
                        }
                        if found
                            .iter()
                            .any(|(l, r)| *r == rhs && l.len() == 1 && l.contains(&lhs))
                        {
                            continue;
                        }
                        let mut value: Option<&Value> = None;
                        let mut ok = true;
                        let mut support = 0usize;
                        for &row in rows {
                            let v = &rel.tuples()[row][rhs];
                            if v.is_null() {
                                continue;
                            }
                            match value {
                                None => value = Some(v),
                                Some(prev) if prev == v => {}
                                Some(_) => {
                                    ok = false;
                                    break;
                                }
                            }
                            support += 1;
                        }
                        if ok && support >= cfg.min_pattern_support {
                            if let Some(v) = value {
                                constants.push(rule(
                                    vec![(attr_name(lhs), Some(key[0].clone()))],
                                    (attr_name(rhs), Some(v.clone())),
                                    support,
                                ));
                            }
                        }
                    }
                }
            }
            constants.sort_by(|a, b| {
                b.support.cmp(&a.support).then_with(|| a.display().cmp(&b.display()))
            });
            constants.truncate(cfg.max_constant_cfds);
            out.extend(constants);
        }
        out
    }

    type Lookup = (Vec<String>, String, HashMap<Vec<Value>, Value>);

    fn build_lookups(cfds: &[CfdRule], reference: &Relation) -> Vec<Lookup> {
        let mut out = Vec::new();
        for cfd in cfds {
            if cfd.rhs.1.is_some() || cfd.lhs.iter().any(|(_, p)| p.is_some()) {
                continue;
            }
            let lhs_attrs: Vec<String> = cfd.lhs.iter().map(|(a, _)| a.clone()).collect();
            let lhs_cols: Option<Vec<usize>> =
                lhs_attrs.iter().map(|a| reference.schema().index_of(a)).collect();
            let rhs_col = reference.schema().index_of(&cfd.rhs.0);
            let (Some(lhs_cols), Some(rhs_col)) = (lhs_cols, rhs_col) else {
                continue;
            };
            let mut table: HashMap<Vec<Value>, Value> = HashMap::new();
            let mut conflicted: HashSet<Vec<Value>> = Default::default();
            for t in reference.iter() {
                if lhs_cols.iter().any(|&c| t[c].is_null()) || t[rhs_col].is_null() {
                    continue;
                }
                let key: Vec<Value> = lhs_cols.iter().map(|&c| t[c].clone()).collect();
                match table.get(&key) {
                    None => {
                        table.insert(key, t[rhs_col].clone());
                    }
                    Some(v) if *v == t[rhs_col] => {}
                    Some(_) => {
                        conflicted.insert(key);
                    }
                }
            }
            for key in conflicted {
                table.remove(&key);
            }
            out.push((lhs_attrs, cfd.rhs.0.clone(), table));
        }
        out
    }

    pub fn repair_with_reference(
        cfg: &RepairConfig,
        rel: &mut Relation,
        cfds: &[CfdRule],
        reference: &Relation,
        fuzzy: Option<(&str, &str)>,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        for pass in 0..cfg.max_passes.max(1) {
            let step = repair_pass(cfg, rel, cfds, reference, fuzzy);
            report.passes = pass + 1;
            if step.total() == 0 {
                report.converged = true;
                break;
            }
            report.cfd_fixes += step.cfd_fixes;
            report.null_fills += step.null_fills;
            report.fuzzy_fixes += step.fuzzy_fixes;
        }
        report
    }

    fn repair_pass(
        cfg: &RepairConfig,
        rel: &mut Relation,
        cfds: &[CfdRule],
        reference: &Relation,
        fuzzy: Option<(&str, &str)>,
    ) -> RepairReport {
        let mut report = RepairReport::default();
        for (lhs_attrs, rhs_attr, table) in build_lookups(cfds, reference) {
            let lhs_cols: Option<Vec<usize>> =
                lhs_attrs.iter().map(|a| rel.schema().index_of(a)).collect();
            let rhs_col = rel.schema().index_of(&rhs_attr);
            let (Some(lhs_cols), Some(rhs_col)) = (lhs_cols, rhs_col) else {
                continue;
            };
            for row in 0..rel.len() {
                let t = &rel.tuples()[row];
                if lhs_cols.iter().any(|&c| t[c].is_null()) {
                    continue;
                }
                let key: Vec<Value> = lhs_cols.iter().map(|&c| t[c].clone()).collect();
                let Some(want) = table.get(&key) else { continue };
                let got = &t[rhs_col];
                if got.is_null() {
                    if cfg.fill_nulls {
                        let fixed = t.with_value(rhs_col, want.clone());
                        rel.replace(row, fixed).unwrap();
                        report.null_fills += 1;
                    }
                } else if got != want {
                    let fixed = t.with_value(rhs_col, want.clone());
                    rel.replace(row, fixed).unwrap();
                    report.cfd_fixes += 1;
                }
            }
        }
        if let Some((fuzzy_attr, group_attr)) = fuzzy {
            let (Some(f_rel), Some(g_rel)) =
                (rel.schema().index_of(fuzzy_attr), rel.schema().index_of(group_attr))
            else {
                return report;
            };
            let (Some(f_ref), Some(g_ref)) = (
                reference.schema().index_of(fuzzy_attr),
                reference.schema().index_of(group_attr),
            ) else {
                return report;
            };
            let mut by_group: HashMap<Value, Vec<&Value>> = HashMap::new();
            for t in reference.iter() {
                if !t[g_ref].is_null() && !t[f_ref].is_null() {
                    by_group.entry(t[g_ref].clone()).or_default().push(&t[f_ref]);
                }
            }
            for row in 0..rel.len() {
                let t = &rel.tuples()[row];
                let (got, group) = (&t[f_rel], &t[g_rel]);
                if got.is_null() || group.is_null() {
                    continue;
                }
                let Some(candidates) = by_group.get(group) else { continue };
                let got_norm = normalize(&got.to_string());
                if candidates.iter().any(|c| normalize(&c.to_string()) == got_norm) {
                    continue;
                }
                let mut best: Option<(&Value, f64)> = None;
                let mut ambiguous = false;
                for c in candidates {
                    let sim = jaro_winkler(&got_norm, &normalize(&c.to_string()));
                    if sim >= cfg.fuzzy_threshold {
                        match best {
                            None => best = Some((c, sim)),
                            Some((prev, _)) if prev == *c => {}
                            Some(_) => ambiguous = true,
                        }
                    }
                }
                if let (Some((want, _)), false) = (best, ambiguous) {
                    let fixed = t.with_value(f_rel, want.clone());
                    rel.replace(row, fixed).unwrap();
                    report.fuzzy_fixes += 1;
                }
            }
        }
        report
    }

    /// `ReferencePopulation::accuracy` as it was: a `String` per cell.
    pub fn accuracy(rel: &Relation, attr: &str, reference: &Relation, ref_attr: &str) -> f64 {
        let ref_col = reference.schema().require(ref_attr).unwrap();
        let population: HashSet<String> = reference
            .iter()
            .filter(|t| !t[ref_col].is_null())
            .map(|t| normalize(&t[ref_col].to_string()))
            .collect();
        let col = rel.schema().require(attr).unwrap();
        let (mut total, mut hits) = (0usize, 0usize);
        for t in rel.iter() {
            if t[col].is_null() {
                continue;
            }
            total += 1;
            if population.contains(&normalize(&t[col].to_string())) {
                hits += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }
}

use vada_kb::CfdRule;
use vada_quality::RepairReport;

/// A small palette of cells chosen to collide: values equal under `Value`'s
/// `Eq` but written differently (`Int(1)` / `Float(1.0)`, `0.0` / `-0.0`,
/// two NaNs), a string that only *prints* like them, other types in the
/// same column, and street-like strings within fuzzy-repair distance of
/// each other (two of them the same after normalisation).
fn cell(i: u8) -> Value {
    match i % 14 {
        0 => Value::Null,
        1 => Value::Int(1),
        2 => Value::Float(1.0),
        3 => Value::str("1"),
        4 => Value::Int(2),
        5 => Value::Float(0.0),
        6 => Value::Float(-0.0),
        7 => Value::Float(f64::NAN),
        8 => Value::Float(-f64::NAN),
        9 => Value::Bool(true),
        10 => Value::str("12 high st"),
        11 => Value::str("12 High St."),
        12 => Value::str("12 hgih st"),
        _ => Value::str("9 park rd"),
    }
}

/// Exact rendering of a value: variant and payload, floats by bit pattern.
fn written(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn written_rows(rel: &Relation) -> Vec<Vec<String>> {
    rel.iter().map(|t| t.iter().map(written).collect()).collect()
}

/// A rule without its id: display, support, and the pattern values as
/// written (`display()` prints `Int(1)`, `Float(1.0)` and `"1"` alike).
fn rule_shape(c: &CfdRule) -> (String, usize, Vec<Option<String>>) {
    let patterns = c.lhs.iter().map(|(_, p)| p).chain([&c.rhs.1]);
    (c.display(), c.support, patterns.map(|p| p.as_ref().map(written)).collect())
}

fn palette_relation(name: &str, attrs: &[&str], rows: &[Vec<u8>]) -> Relation {
    let mut rel = Relation::empty(Schema::all_str(name, attrs));
    for row in rows {
        rel.push(Tuple::new(row[..attrs.len()].iter().map(|&i| cell(i)).collect::<Vec<_>>()))
            .unwrap();
    }
    rel
}

/// Rows of four cells from small per-column domains, so dependencies hold
/// and break by chance; `spread` widens them to the whole palette.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec((0u8..5, 0u8..4, 0u8..3, 0u8..14, 0u8..4), 1..max).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, c, d, spread)| {
                if spread == 0 {
                    vec![d, a + 5, b + 9, c]
                } else {
                    vec![a, b, c, d]
                }
            })
            .collect()
    })
}

/// The variable FDs (and one constant CFD, which repair ignores) a repair
/// case draws from, over attributes some of which only the reference has
/// (`d`) and one nobody has (`zz`).
fn rule_catalogue(i: u8) -> CfdRule {
    let fd = |lhs: &[&str], rhs: &str| CfdRule {
        id: format!("r{i}"),
        relation: "reference".into(),
        lhs: lhs.iter().map(|a| (a.to_string(), None)).collect(),
        rhs: (rhs.into(), None),
        support: 1,
    };
    match i % 10 {
        0 => fd(&["a"], "b"),
        1 => fd(&["b"], "c"),
        2 => fd(&["c"], "a"),
        3 => fd(&["a", "b"], "c"),
        4 => fd(&["b"], "a"),
        5 => fd(&["c"], "d"),
        6 => fd(&["d"], "a"),
        7 => fd(&["a"], "zz"),
        8 => fd(&["c", "a"], "b"),
        _ => CfdRule { lhs: vec![("a".into(), Some(cell(1)))], ..fd(&[], "b") },
    }
}

proptest! {
    #[test]
    fn mined_rules_match_the_partition_per_pair_oracle(
        rows in arb_rows(40),
        min_support in 1usize..4,
        min_pattern_support in 1usize..4,
        cap in 0u8..3,
        dirty in arb_rows(20),
    ) {
        let rel = palette_relation("r", &["a", "b", "c", "d"], &rows);
        for max_lhs in 1..=3 {
            let cfg = CfdLearnConfig {
                max_lhs,
                min_support,
                min_pattern_support,
                mine_constants: cap != 0,
                max_constant_cfds: if cap == 1 { 3 } else { 50 },
            };
            let want = oracle::learn_cfds(&cfg, &rel);
            let want_shapes: Vec<_> = want.iter().map(rule_shape).collect();
            let got = learn_cfds(&cfg, &rel);
            let got_shapes: Vec<_> = got.iter().map(rule_shape).collect();
            prop_assert_eq!(&got_shapes, &want_shapes, "max_lhs {}", max_lhs);
            // the same rules find the same violations on other data (ids
            // aside: the oracle assigns none, so number both lists alike)
            let number = |rules: Vec<CfdRule>| -> Vec<CfdRule> {
                rules
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| CfdRule { id: format!("r{i}"), ..r })
                    .collect()
            };
            let dirty = palette_relation("dirty", &["a", "b", "c", "d"], &dirty);
            prop_assert_eq!(
                detect_violations(&dirty, &number(got)),
                detect_violations(&dirty, &number(want))
            );
        }
    }

    #[test]
    fn repair_matches_the_table_per_pass_oracle(
        dirty in arb_rows(30),
        reference in arb_rows(30),
        rules in proptest::collection::vec(0u8..10, 0..5),
        fuzzy in 0u8..6,
        knobs in (0u8..2, 0usize..5, 0u8..3),
    ) {
        // the repaired relation lacks the reference's `d`
        let dirty = palette_relation("result", &["a", "b", "c"], &dirty);
        let reference = palette_relation("reference", &["a", "b", "c", "d"], &reference);
        let cfds: Vec<CfdRule> = rules.into_iter().map(rule_catalogue).collect();
        let fuzzy = match fuzzy {
            0 => None,
            1 => Some(("c", "d")), // only the reference can group by `d`
            2 => Some(("a", "zz")),
            3 => Some(("c", "a")),
            _ => Some(("a", "b")),
        };
        let cfg = RepairConfig {
            fill_nulls: knobs.0 == 1,
            max_passes: knobs.1,
            fuzzy_threshold: [0.0, 0.88, 1.0][knobs.2 as usize],
        };
        let mut want = dirty.clone();
        let want_report = oracle::repair_with_reference(&cfg, &mut want, &cfds, &reference, fuzzy);
        let mut got = dirty.clone();
        let got_report = repair_with_reference(&cfg, &mut got, &cfds, &reference, fuzzy);
        prop_assert_eq!(got_report, want_report);
        prop_assert_eq!(written_rows(&got), written_rows(&want));
    }

    #[test]
    fn accuracy_matches_the_string_per_cell_oracle(rows in arb_rows(30), reference in arb_rows(30)) {
        let rel = palette_relation("result", &["a", "b", "c", "d"], &rows);
        let reference = palette_relation("reference", &["a", "b", "c", "d"], &reference);
        for (attr, ref_attr) in [("a", "a"), ("d", "d"), ("a", "d"), ("c", "b")] {
            let got = vada_quality::accuracy_against_reference(&rel, attr, &reference, ref_attr);
            prop_assert_eq!(
                got.unwrap().to_bits(),
                oracle::accuracy(&rel, attr, &reference, ref_attr).to_bits(),
                "{} against {}", attr, ref_attr
            );
        }
    }
}

/// The chase shapes a random draw reaches only sometimes, one by one: each
/// is checked against the oracle and for the property that names it.
#[test]
fn named_repair_cases_match_the_oracle() {
    let fd = |lhs: &str, rhs: &str| CfdRule {
        id: format!("{lhs}->{rhs}"),
        relation: "reference".into(),
        lhs: vec![(lhs.into(), None)],
        rhs: (rhs.into(), None),
        support: 1,
    };
    let s = Value::str;
    let rel = |name: &str, attrs: &[&str], rows: Vec<Vec<Value>>| {
        Relation::from_tuples(
            Schema::all_str(name, attrs),
            rows.into_iter().map(Tuple::new).collect(),
        )
        .unwrap()
    };
    let run = |cfg: &RepairConfig, dirty: &Relation, cfds: &[CfdRule], reference: &Relation| {
        let mut want = dirty.clone();
        let want_report = oracle::repair_with_reference(cfg, &mut want, cfds, reference, None);
        let mut got = dirty.clone();
        let got_report = repair_with_reference(cfg, &mut got, cfds, reference, None);
        assert_eq!(got_report, want_report);
        assert_eq!(written_rows(&got), written_rows(&want));
        (got, got_report)
    };
    let cfg = RepairConfig::default();

    // a chain: the rule that needs `b` comes first, so its lookup only
    // fires on the pass after `a → b` filled `b` — on that row alone
    let reference = rel("reference", &["a", "b", "c"], vec![vec![s("k"), s("m"), s("z")]]);
    let dirty = rel(
        "result",
        &["a", "b", "c"],
        vec![vec![s("k"), Value::Null, Value::Null], vec![s("k"), s("m"), s("z")]],
    );
    let (got, report) = run(&cfg, &dirty, &[fd("b", "c"), fd("a", "b")], &reference);
    assert_eq!(got.tuples()[0], got.tuples()[1]);
    assert_eq!(
        report,
        RepairReport { cfd_fixes: 0, null_fills: 2, fuzzy_fixes: 0, passes: 3, converged: true }
    );

    // a cycle: a → b, b → c and c → a read off rows that never hold all
    // three, composed so that no row satisfies them together; the chase
    // turns the row for ever and stops at the cap
    let n = Value::Null;
    let reference = rel(
        "reference",
        &["a", "b", "c"],
        vec![
            vec![s("1"), s("x"), n.clone()],
            vec![n.clone(), s("x"), s("p")],
            vec![s("2"), n.clone(), s("p")],
            vec![s("2"), s("y"), n.clone()],
            vec![n.clone(), s("y"), s("q")],
            vec![s("1"), n.clone(), s("q")],
        ],
    );
    let dirty = rel("result", &["a", "b", "c"], vec![vec![s("1"), s("x"), s("p")]]);
    let cycle = [fd("a", "b"), fd("b", "c"), fd("c", "a")];
    for max_passes in [1, 2, 5, 8] {
        let cfg = RepairConfig { max_passes, ..RepairConfig::default() };
        let (_, report) = run(&cfg, &dirty, &cycle, &reference);
        assert!(!report.converged, "{report:?}");
        assert_eq!(report.passes, max_passes);
    }

    // a reference whose key conflicts: `M1` names two cities, so the lookup
    // must leave `M1` rows alone and still serve `M2`
    let reference = rel(
        "reference",
        &["city", "postcode"],
        vec![
            vec![s("manchester"), s("M1")],
            vec![s("leeds"), s("M1")],
            vec![s("manchester"), s("M1")],
            vec![s("salford"), s("M2")],
        ],
    );
    let dirty = rel(
        "result",
        &["city", "postcode"],
        vec![vec![s("bristol"), s("M1")], vec![s("bristol"), s("M2")]],
    );
    let (got, report) = run(&cfg, &dirty, &[fd("postcode", "city")], &reference);
    assert_eq!(got.tuples()[0][0], s("bristol"));
    assert_eq!(got.tuples()[1][0], s("salford"));
    assert_eq!(report.total(), 1);

    // a rule over a column the repaired relation lacks: nothing to do, in
    // one pass
    let dirty = rel("result", &["postcode"], vec![vec![s("M2")]]);
    let (_, report) = run(&cfg, &dirty, &[fd("postcode", "city")], &reference);
    assert_eq!(report, RepairReport { passes: 1, converged: true, ..Default::default() });
}

// ---------------------------------------------------------------------------
// Prepared reference objects: a population that has scored before, and a
// fuzzy index built once, answer exactly as their one-shot counterparts.
// ---------------------------------------------------------------------------

/// [`cell`]'s palette plus non-ASCII strings, some of them equal after
/// normalisation and some only differently spaced.
fn mixed_cell(i: u8) -> Value {
    match i % 20 {
        14 => Value::str("Straße 7"),
        15 => Value::str("STRASSE 7"),
        16 => Value::str("  straße  7 "),
        17 => Value::str("Ångström Rd"),
        18 => Value::str("ångström rd"),
        19 => Value::str("東京 1"),
        i => cell(i),
    }
}

fn mixed_relation(name: &str, rows: &[(u8, u8)]) -> Relation {
    let mut rel = Relation::empty(Schema::all_str(name, &["a", "b"]));
    for &(a, b) in rows {
        rel.push(Tuple::new(vec![mixed_cell(a), mixed_cell(b)])).unwrap();
    }
    rel
}

fn arb_mixed_rows() -> impl Strategy<Value = Vec<(u8, u8)>> {
    // a narrow first column repeats cells; the second spans the palette
    proptest::collection::vec((14u8..20, 0u8..20), 0..30)
}

proptest! {
    #[test]
    fn a_warm_population_scores_as_a_fresh_one(
        reference in arb_mixed_rows(),
        scored in proptest::collection::vec(arb_mixed_rows(), 1..4),
    ) {
        use vada_quality::ReferencePopulation;
        let reference = mixed_relation("reference", &reference);
        let scored: Vec<Relation> =
            scored.iter().map(|rows| mixed_relation("result", rows)).collect();
        for ref_attr in ["a", "b"] {
            let mut warm = ReferencePopulation::new(&reference, ref_attr).unwrap();
            // twice over every relation: the second round is all memo hits
            for round in 0..2 {
                for (i, rel) in scored.iter().enumerate() {
                    for attr in ["a", "b"] {
                        let got = warm.accuracy(rel, attr).unwrap();
                        let mut fresh = ReferencePopulation::new(&reference, ref_attr).unwrap();
                        let want = fresh.accuracy(rel, attr).unwrap();
                        prop_assert_eq!(
                            got.to_bits(), want.to_bits(), "round {} relation {} {}", round, i, attr
                        );
                        let oracle = oracle::accuracy(rel, attr, &reference, ref_attr);
                        prop_assert_eq!(got.to_bits(), oracle.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn a_prepared_fuzzy_index_repairs_as_the_one_shot_path(
        reference in arb_rows(30),
        dirty in proptest::collection::vec(arb_rows(20), 1..4),
        rules in proptest::collection::vec(0u8..10, 0..4),
        fuzzy in 0u8..4,
        threshold in 0usize..3,
    ) {
        use vada_quality::{repair, FuzzyIndex};
        let reference = palette_relation("reference", &["a", "b", "c", "d"], &reference);
        let cfds: Vec<CfdRule> = rules.into_iter().map(rule_catalogue).collect();
        let (fuzzy_attr, group_attr) =
            [("c", "d"), ("a", "zz"), ("c", "a"), ("a", "b")][fuzzy as usize];
        let cfg = RepairConfig {
            fuzzy_threshold: [0.0, 0.88, 1.0][threshold],
            ..RepairConfig::default()
        };
        let index = FuzzyIndex::new(&reference, fuzzy_attr, group_attr);
        // the repaired relations name their columns in different orders,
        // which the one index must resolve per call
        for (i, rows) in dirty.iter().enumerate() {
            let attrs: &[&str] = if i % 2 == 0 { &["a", "b", "c"] } else { &["c", "a", "b"] };
            let dirty = palette_relation("result", attrs, rows);
            let mut want = dirty.clone();
            let want_report = repair_with_reference(
                &cfg, &mut want, &cfds, &reference, Some((fuzzy_attr, group_attr)),
            );
            let mut got = dirty;
            let got_report = repair(&cfg, &mut got, &cfds, &reference, index.as_ref());
            prop_assert_eq!(got_report, want_report, "relation {}", i);
            prop_assert_eq!(written_rows(&got), written_rows(&want));
        }
    }
}
