//! The repair transducer: applies CFD-lookup and fuzzy reference repair to
//! the materialised result (paper §2.2–2.3: CFDs learned from reference
//! data licence "repairs to the mapping results").

use vada_common::Result;
use vada_context::data_context::cfd_training_contexts;
use vada_kb::KnowledgeBase;
use vada_quality::{repair, FuzzyIndex, RepairConfig};

use crate::components::prepared::Prepared;
use crate::transducer::{Activity, RunOutcome, Transducer};

/// Repair the result relation against the best-covering reference context.
///
/// Keeps the fuzzy street index it built over the reference, with the
/// reference's name, the fuzzy attributes and the journal mark it is
/// current at. A run against the same reference and attributes, for which
/// the journal proves the reference unchanged, reuses the index; any other
/// run rebuilds it. The reference itself is read in place, never copied.
#[derive(Debug, Default)]
pub struct ResultRepair {
    /// Repair configuration.
    pub config: RepairConfig,
    fuzzy_index: Prepared<(String, &'static str, &'static str), Option<FuzzyIndex>>,
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
        let contexts = cfd_training_contexts(kb)?;
        let Some((reference_name, _)) = contexts.first() else {
            return Ok(RunOutcome::noop("no reference context for repair"));
        };
        let reference = kb.relation(reference_name)?;
        let cfds: Vec<_> = kb.cfds().cloned().collect();
        let mut result = kb.relation(&target)?.clone();
        // fuzzy street repair grouped by postcode when both attrs exist on
        // both sides
        let fuzzy = ["street", "postcode"]
            .iter()
            .all(|a| {
                result.schema().index_of(a).is_some() && reference.schema().index_of(a).is_some()
            })
            .then_some(("street", "postcode"));
        let index = match fuzzy {
            Some((fuzzy_attr, group_attr)) => {
                let key = (reference_name.clone(), fuzzy_attr, group_attr);
                let build = || Ok(FuzzyIndex::new(reference, fuzzy_attr, group_attr));
                self.fuzzy_index.reuse_or_build(kb, key, &[reference_name], build)?.as_ref()
            }
            None => None,
        };
        let report = repair(&self.config, &mut result, &cfds, reference, index);
        if report.total() == 0 {
            return Ok(RunOutcome::noop("nothing to repair"));
        }
        kb.put_result(result);
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
    use vada_common::{tuple, Relation, Schema};
    use vada_kb::{CfdRule, ContextKind};

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

    #[test]
    fn not_ready_without_cfds() {
        let mut kb = KnowledgeBase::new();
        let schema = Schema::all_str("property", &["street"]);
        kb.register_target_schema(schema.clone());
        kb.put_result(Relation::empty(schema));
        assert!(!ResultRepair::default().ready(&kb).unwrap());
    }
}
