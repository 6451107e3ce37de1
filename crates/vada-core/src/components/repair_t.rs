//! The repair transducer: applies CFD-lookup and fuzzy reference repair to
//! the materialised result (paper §2.2–2.3: CFDs learned from reference
//! data licence "repairs to the mapping results").
//!
//! Repair is row-local — a row's fixes read only that row, the lookups and
//! the fuzzy index — so after a converged run every row is at its
//! fixpoint until it is edited. The transducer therefore chases only the
//! rows appended, rewritten or inserted since its last run (mapping
//! execution's diff inserts the rows of the blocks it restores), and
//! writes back only the rows it fixed, as one row-level edit. A
//! relation-level change to the result (mapping execution's whole put), a
//! pruned journal window, another reference, CFD set or configuration, an
//! edited reference, or a chase that did not converge makes it chase every
//! row, through the same code. The reference and the fuzzy attributes come
//! from `locality`, where mapping execution reads whether repair can move a
//! row between blocks.

use vada_common::obs::key as obs_key;
use vada_common::{Relation, Result, Tuple};
use vada_kb::{CfdRule, JournalMark, KnowledgeBase, Since};
use vada_quality::{repair, FuzzyIndex, RepairConfig};

use crate::components::follow::{follow, DirtyRows};
use crate::components::locality::{fuzzy_attrs, repair_reference};
use crate::components::prepared::Prepared;
use crate::transducer::{Activity, RunOutcome, Transducer};

/// Repair the result relation against the best-covering reference context.
///
/// Keeps the fuzzy street index it built over the reference, with the
/// reference's name, the fuzzy attributes and the journal mark it is
/// current at. A run against the same reference and attributes, for which
/// the journal proves the reference unchanged, reuses the index; any other
/// run rebuilds it. The reference itself is read in place, never copied.
///
/// Keeps too what its last converged run repaired under — the target, the
/// reference, the CFDs by content (ids are not stable across re-learning)
/// and the configuration — with the mark and row count it left the result
/// at, so the next run under the same key chases only the rows edited
/// since.
#[derive(Debug, Default)]
pub struct ResultRepair {
    /// Repair configuration.
    pub config: RepairConfig,
    fuzzy_index: Prepared<(String, &'static str, &'static str), Option<FuzzyIndex>>,
    at_fixpoint: Option<(RepairKey, JournalMark, usize)>,
}

/// What a repair run's fixes depend on besides the rows themselves.
#[derive(Debug, PartialEq)]
struct RepairKey {
    target: String,
    reference: String,
    /// The CFDs in rule order, ids blanked.
    cfds: Vec<CfdRule>,
    config: RepairConfig,
}

impl Transducer for ResultRepair {
    fn name(&self) -> &str {
        "result_repair"
    }

    fn activity(&self) -> Activity {
        Activity::Repair
    }

    fn input_dependency(&self) -> &str {
        "result_available(_), cfd_available(_)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["result", "cfds", "data_context"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .expect("result implies target")
            .name
            .clone();
        let Some(reference_name) = repair_reference(kb)? else {
            return Ok(RunOutcome::noop("no reference context for repair"));
        };
        let reference = kb.relation(&reference_name)?;
        let cfds: Vec<CfdRule> = kb.cfds().cloned().collect();
        let key = RepairKey {
            target: target.clone(),
            reference: reference_name.clone(),
            cfds: cfds.iter().map(|c| CfdRule { id: String::new(), ..c.clone() }).collect(),
            config: self.config.clone(),
        };
        let result = kb.relation(&target)?;
        // the rows edited since the last converged run under this key, or
        // every row
        let rows = self
            .at_fixpoint
            .take()
            .filter(|(kept, mark, _)| {
                *kept == key && kb.since(mark, &[&reference_name]) == Since::Unchanged
            })
            .and_then(|(_, mark, len)| {
                let mut dirty = DirtyRows::clean(len);
                follow(kb, &mark, &target, &mut dirty).then_some(dirty)
            })
            .map_or_else(|| (0..result.len()).collect(), |dirty| dirty.positions());
        kb.obs().add(obs_key::REPAIR_ROWS_CHASED, rows.len() as u64);
        let index = match fuzzy_attrs(result.schema(), reference.schema()) {
            Some((fuzzy_attr, group_attr)) => {
                let key = (reference_name.clone(), fuzzy_attr, group_attr);
                let build = || Ok(FuzzyIndex::new(reference, fuzzy_attr, group_attr));
                self.fuzzy_index.reuse_or_build(kb, key, &[&reference_name], build)?.as_ref()
            }
            None => None,
        };
        // the chased rows alone: repair is row-local, so they come out as
        // they would inside the whole result
        let mut chased = Relation::from_tuples(
            result.schema().clone(),
            rows.iter().map(|&row| result.tuples()[row].clone()).collect(),
        )?;
        let report = repair(&self.config, &mut chased, &cfds, reference, index);
        let fixed: Vec<(usize, Tuple)> = rows
            .into_iter()
            .zip(chased.tuples())
            .filter(|(row, after)| result.tuples()[*row] != **after)
            .map(|(row, after)| (row, after.clone()))
            .collect();
        kb.update_source(&target, &fixed)?;
        if report.converged {
            let len = kb.relation(&target)?.len();
            self.at_fixpoint = Some((key, kb.mark(), len));
        }
        if report.total() == 0 {
            return Ok(RunOutcome::noop("nothing to repair"));
        }
        Ok(RunOutcome::new(
            format!(
                "{} CFD fixes, {} null fills, {} fuzzy fixes (reference `{reference_name}`)",
                report.cfd_fixes, report.null_fills, report.fuzzy_fixes
            ),
            report.total(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema, Value};
    use vada_kb::{ContextKind, DeltaChange};

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let schema = Schema::all_str("property", &["street", "city", "postcode"]);
        kb.register_target_schema(schema.clone());
        let mut result = Relation::empty(schema);
        result.push(tuple!["1 hgih st", "leeds", "M1 1AA"]).unwrap();
        kb.put_result(result);
        let mut addr = Relation::empty(Schema::all_str("address", &["street", "city", "postcode"]));
        addr.push(tuple!["1 high st", "manchester", "M1 1AA"]).unwrap();
        kb.register_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
        kb.add_cfd(CfdRule {
            id: "c0".into(),
            relation: "address".into(),
            lhs: vec![("postcode".into(), None)],
            rhs: ("city".into(), None),
            support: 5,
        });
        kb
    }

    #[test]
    fn repairs_city_and_street_then_converges() {
        let mut kb = kb();
        let mut t = ResultRepair::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes >= 2, "{}", out.summary);
        let result = kb.relation("property").unwrap();
        assert_eq!(result.tuples()[0][0], vada_common::Value::str("1 high st"));
        assert_eq!(result.tuples()[0][1], vada_common::Value::str("manchester"));
        // idempotent second run writes nothing
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);
    }

    fn fd(id: &str, lhs: &str, rhs: &str) -> CfdRule {
        CfdRule {
            id: id.into(),
            relation: "address".into(),
            lhs: vec![(lhs.into(), None)],
            rhs: (rhs.into(), None),
            support: 5,
        }
    }

    /// Result row `i`: a typo'd street and a wrong city.
    fn row(i: usize) -> Tuple {
        tuple![format!("{i} hgih st"), "leeds", format!("M{i} 1AA")]
    }

    /// A result of `n` rows against a reference that knows every postcode,
    /// with a registry attached.
    fn kb_of(n: usize) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.set_obs(vada_common::Obs::enabled());
        let schema = Schema::all_str("property", &["street", "city", "postcode"]);
        kb.register_target_schema(schema.clone());
        let mut addr = Relation::empty(Schema::all_str("address", &["street", "city", "postcode"]));
        for i in 0..n {
            addr.push(tuple![format!("{i} high st"), "manchester", format!("M{i} 1AA")]).unwrap();
        }
        kb.put_result(Relation::from_tuples(schema, (0..n).map(row).collect()).unwrap());
        kb.register_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
        kb.add_cfd(fd("c0", "postcode", "city"));
        kb
    }

    /// Run `t` on `kb` and a fresh repairer with its configuration on a
    /// copy: the same outcome and the same result. Returns the rows `t`
    /// chased.
    fn run_as_fresh(t: &mut ResultRepair, kb: &mut KnowledgeBase) -> u64 {
        let mut copy = kb.clone();
        let mut fresh = ResultRepair { config: t.config.clone(), ..Default::default() };
        let want = fresh.run(&mut copy).unwrap();
        let before = kb.obs().get(obs_key::REPAIR_ROWS_CHASED);
        let got = t.run(kb).unwrap();
        assert_eq!((&got.summary, got.writes), (&want.summary, want.writes));
        let (got, want) = (kb.relation("property").unwrap(), copy.relation("property").unwrap());
        assert_eq!(got.tuples(), want.tuples());
        kb.obs().get(obs_key::REPAIR_ROWS_CHASED) - before
    }

    #[test]
    fn follows_appends_removals_and_rewrites() {
        let mut kb = kb_of(8);
        let mut t = ResultRepair::default();
        assert_eq!(run_as_fresh(&mut t, &mut kb), 8, "the first run chases every row");
        assert_eq!(run_as_fresh(&mut t, &mut kb), 0, "nothing edited, nothing chased");

        // an append: only the new row
        let mut grown = kb.relation("property").unwrap().clone();
        grown.push(row(3)).unwrap();
        kb.put_result(grown);
        assert_eq!(run_as_fresh(&mut t, &mut kb), 1);
        assert_eq!(kb.relation("property").unwrap().tuples()[8][1], Value::str("manchester"));

        // a removal: nothing left to chase
        kb.remove_rows("property", &[0, 2]).unwrap();
        assert_eq!(run_as_fresh(&mut t, &mut kb), 0);

        // a rewrite: only the rewritten rows
        kb.update_source("property", &[(1, row(5)), (4, row(6))]).unwrap();
        assert_eq!(run_as_fresh(&mut t, &mut kb), 2);
        assert_eq!(kb.relation("property").unwrap().tuples()[4][0], Value::str("6 high st"));
    }

    #[test]
    fn a_reference_edit_or_another_key_chases_every_row() {
        let mut kb = kb_of(4);
        let mut t = ResultRepair::default();
        assert_eq!(run_as_fresh(&mut t, &mut kb), 4);

        // the same CFD re-learned under another id is the same key
        kb.clear_cfds();
        kb.add_cfd(fd("c9", "postcode", "city"));
        assert_eq!(run_as_fresh(&mut t, &mut kb), 0);

        // an edited reference can fix rows no edit touched
        kb.update_source("address", &[(2, tuple!["2 high st", "salford", "M2 1AA"])]).unwrap();
        assert_eq!(run_as_fresh(&mut t, &mut kb), 4);
        assert_eq!(kb.relation("property").unwrap().tuples()[2][1], Value::str("salford"));

        // another configuration, another CFD set, a relation-level write
        t.config.fill_nulls = false;
        assert_eq!(run_as_fresh(&mut t, &mut kb), 4);
        kb.add_cfd(fd("c1", "street", "postcode"));
        assert_eq!(run_as_fresh(&mut t, &mut kb), 4);
        kb.put_result(Relation::from_tuples(
            Schema::all_str("property", &["street", "city", "postcode"]),
            vec![row(1), row(0)],
        )
        .unwrap());
        assert_eq!(run_as_fresh(&mut t, &mut kb), 2);
        assert_eq!(run_as_fresh(&mut t, &mut kb), 0);
    }

    #[test]
    fn an_unconverged_chase_chases_every_row_next_time() {
        // a missing postcode is filled from the street, which only then
        // lets the city be fixed: two passes, and the cap allows one
        let mut kb = kb_of(3);
        kb.add_cfd(fd("c1", "street", "postcode"));
        kb.update_source("property", &[(1, tuple!["1 high st", "leeds", vada_common::Value::Null])])
            .unwrap();
        let mut t = ResultRepair::default();
        t.config.max_passes = 1;
        assert_eq!(run_as_fresh(&mut t, &mut kb), 3);
        assert_eq!(kb.relation("property").unwrap().tuples()[1][1], Value::str("leeds"));
        assert_eq!(run_as_fresh(&mut t, &mut kb), 3, "the last chase did not converge");
        assert_eq!(kb.relation("property").unwrap().tuples()[1][1], Value::str("manchester"));
        // that pass fixed a cell too, so it did not converge either; the
        // next one fixes nothing and converges
        assert_eq!(run_as_fresh(&mut t, &mut kb), 3);
        assert_eq!(run_as_fresh(&mut t, &mut kb), 0);
    }

    #[test]
    fn fixes_are_one_row_level_edit() {
        let mut kb = kb_of(5);
        kb.update_source("property", &[(3, tuple!["3 high st", "manchester", "M3 1AA"])]).unwrap();
        let mark = kb.mark();
        let out = ResultRepair::default().run(&mut kb).unwrap();
        assert_eq!(out.writes, 8, "{}", out.summary);
        let Since::Rows(events) = kb.since(&mark, &["property"]) else {
            panic!("repair writes row-level edits");
        };
        assert_eq!(events.len(), 1);
        let DeltaChange::RowsReplaced { positions, .. } = &events[0].change else {
            panic!("a rewrite, got {:?}", events[0].change);
        };
        assert_eq!(positions, &[0, 1, 2, 4], "row 3 needed no fix");
    }

    #[test]
    fn not_ready_without_cfds() {
        let mut kb = KnowledgeBase::new();
        let schema = Schema::all_str("property", &["street"]);
        kb.register_target_schema(schema.clone());
        kb.put_result(Relation::empty(schema));
        assert!(!ResultRepair::default().ready(&kb).unwrap());
    }
}
