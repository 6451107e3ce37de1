//! Mapping transducers: generation, selection, execution.

use std::cell::RefCell;
use std::rc::Rc;

use vada_common::{Result, VadaError};
use vada_context::UserContext;
use vada_kb::KnowledgeBase;
use vada_map::{
    generate_candidates, rank_mappings, ExecuteConfig, MapGenConfig, MappingScore, ResultStore,
};

use crate::components::feedback::apply_vetoes;
use crate::criteria::canonicalize_statements;
use crate::transducer::{Activity, RunOutcome, Transducer};

/// One [`ResultStore`] handle shared by the mapping transducers of a
/// fleet: [`MappingQuality`](crate::components::MappingQuality)
/// materialises every candidate into it, and [`MappingExecution`] takes
/// the selected one back out.
pub type SharedStore = Rc<RefCell<ResultStore>>;

/// Generate candidate mappings from the current matches (paper Table 1:
/// "Mapping Generation — Src/Target Schemas"; the schemas enter through
/// the matches over them).
#[derive(Debug, Default)]
pub struct MappingGeneration {
    /// Generation configuration.
    pub config: MapGenConfig,
}

impl Transducer for MappingGeneration {
    fn name(&self) -> &str {
        "mapping_generation"
    }

    fn activity(&self) -> Activity {
        Activity::Mapping
    }

    fn input_dependency(&self) -> &str {
        r#"match(_, _, _, _, S, _), S >= 0.5, target_attr(_, _, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["matches", "target", "relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let candidates = generate_candidates(&self.config, kb)?;
        kb.clear_mappings();
        kb.clear_quality("mapping");
        let n = candidates.len();
        for c in candidates {
            kb.add_mapping(c);
        }
        Ok(RunOutcome::new(format!("{n} candidate mappings"), n))
    }
}

/// Select among candidate mappings by weighted utility over their quality
/// metrics (paper Table 1: "Mapping Selection — Quality Metrics"; §3 step
/// 4: weights derived from the user context's pairwise comparisons).
#[derive(Debug, Default)]
pub struct MappingSelection;

impl Transducer for MappingSelection {
    fn name(&self) -> &str {
        "mapping_selection"
    }

    fn activity(&self) -> Activity {
        Activity::Selection
    }

    fn input_dependency(&self) -> &str {
        r#"quality("mapping", _, _, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["quality", "user_context"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .ok_or_else(|| VadaError::Kb("no target schema".into()))?
            .name
            .clone();
        // per-mapping criterion scores from the quality facts
        let mut scores: std::collections::BTreeMap<String, Vec<(String, f64)>> =
            Default::default();
        let mut criteria: std::collections::BTreeSet<String> = Default::default();
        for q in kb.quality_facts() {
            if q.entity_kind == "mapping" {
                scores
                    .entry(q.entity.clone())
                    .or_default()
                    .push((q.criterion.clone(), q.value));
                criteria.insert(q.criterion.clone());
            }
        }
        if scores.is_empty() {
            return Ok(RunOutcome::noop("no mapping quality metrics"));
        }
        let candidates: Vec<MappingScore> = scores
            .into_iter()
            .map(|(id, pairs)| MappingScore {
                mapping_id: id,
                scores: pairs.into_iter().collect(),
            })
            .collect();
        // derive the user context; without statements, weigh all criteria
        // equally
        let extra: Vec<vada_context::Criterion> = criteria
            .iter()
            .filter_map(|c| vada_context::Criterion::parse(c).ok())
            .collect();
        let statements = canonicalize_statements(kb.user_context(), &target)?;
        let ctx = if statements.is_empty() {
            UserContext::uniform(extra)?
        } else {
            UserContext::derive(&statements, &extra)?
        };
        let ranked = rank_mappings(&candidates, &ctx);
        let (best, utility) = ranked.first().expect("non-empty candidates").clone();
        let changed = kb.selected_mapping() != Some(best.as_str());
        if changed {
            kb.select_mapping(&best)?;
        }
        Ok(RunOutcome::new(
            format!(
                "selected {best} (utility {utility:.3}) out of {} candidates{}",
                ranked.len(),
                if changed { "" } else { " — unchanged" }
            ),
            usize::from(changed),
        ))
    }
}

/// Execute the selected mapping and materialise the result (re-applying
/// any feedback-derived vetoes so user corrections survive
/// re-materialisation). The selected mapping comes from the
/// [`ResultStore`] — in the default fleet the one
/// [`MappingQuality`](crate::components::MappingQuality) filled, so it is a
/// hit while the journal proves no source changed, and is rebuilt
/// otherwise.
#[derive(Debug, Default)]
pub struct MappingExecution {
    store: SharedStore,
}

impl MappingExecution {
    /// A mapping-execution transducer reading through `store`. [`Default`]
    /// gives it a private store of its own.
    pub fn with_store(store: SharedStore) -> MappingExecution {
        MappingExecution { store }
    }
}

impl Transducer for MappingExecution {
    fn name(&self) -> &str {
        "mapping_execution"
    }

    fn activity(&self) -> Activity {
        Activity::Execution
    }

    fn input_dependency(&self) -> &str {
        "selected_mapping(_)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        // NOT `feedback`: vetoes reach the current result through the
        // feedback_repair transducer; execution re-applies them only when a
        // re-materialisation happens for structural reasons.
        &["selection", "mappings", "relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let id = kb
            .selected_mapping()
            .expect("dependency guarantees a selection")
            .to_string();
        let mapping = kb
            .get_mapping(&id)
            .ok_or_else(|| VadaError::Kb(format!("selected mapping `{id}` vanished")))?
            .clone();
        // the one copy: the result the vetoes apply to and the KB keeps
        let mut result = self
            .store
            .borrow_mut()
            .candidate(&ExecuteConfig::default(), &mapping, kb)?
            .to_relation();
        let vetoed = apply_vetoes(&mut result, kb.vetoes());
        let rows = result.len();
        kb.put_result(result);
        Ok(RunOutcome::new(
            format!("materialised {rows} rows from {id} ({vetoed} cells vetoed)"),
            rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Relation, Schema};
    use vada_kb::{MatchDef, QualityFact};

    fn kb_ready_for_mapping() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["250000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["£300,000", "9 park rd", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        for (id, src, tgt) in [
            ("m0", "price", "price"),
            ("m1", "street", "street"),
            ("m2", "postcode", "postcode"),
        ] {
            kb.add_match(MatchDef {
                id: id.into(),
                src_rel: "rightmove".into(),
                src_attr: src.into(),
                tgt_attr: tgt.into(),
                score: 0.95,
                matcher: "schema".into(),
            });
        }
        kb
    }

    #[test]
    fn generation_selection_execution_chain() {
        let mut kb = kb_ready_for_mapping();
        let mut gen = MappingGeneration::default();
        assert!(gen.ready(&kb).unwrap());
        let out = gen.run(&mut kb).unwrap();
        assert_eq!(out.writes, 1);
        let mapping_id = kb.mappings().next().unwrap().id.clone();

        // selection needs quality facts
        let mut sel = MappingSelection;
        assert!(!sel.ready(&kb).unwrap());
        kb.add_quality(QualityFact {
            entity_kind: "mapping".into(),
            entity: mapping_id.clone(),
            metric: "completeness".into(),
            criterion: "completeness(price)".into(),
            value: 0.9,
        });
        assert!(sel.ready(&kb).unwrap());
        let out = sel.run(&mut kb).unwrap();
        assert_eq!(kb.selected_mapping(), Some(mapping_id.as_str()));
        assert_eq!(out.writes, 1);
        // reselecting the same mapping writes nothing
        let out = sel.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);

        let mut exec = MappingExecution::default();
        assert!(exec.ready(&kb).unwrap());
        exec.run(&mut kb).unwrap();
        let result = kb.relation("property").unwrap();
        assert_eq!(result.len(), 2);
        // price coerced to int, currency stripped
        let prices: Vec<i64> = result
            .iter()
            .filter_map(|t| t[2].as_int())
            .collect();
        assert!(prices.contains(&250_000) && prices.contains(&300_000));
    }

    #[test]
    fn generation_clears_stale_candidates() {
        let mut kb = kb_ready_for_mapping();
        let mut gen = MappingGeneration::default();
        gen.run(&mut kb).unwrap();
        let first: Vec<String> = kb.mappings().map(|m| m.id.clone()).collect();
        gen.run(&mut kb).unwrap();
        let second: Vec<String> = kb.mappings().map(|m| m.id.clone()).collect();
        assert_eq!(second.len(), 1);
        // ids are positions in the pass's output, so the replacement of an
        // unchanged candidate carries the same id
        assert_eq!(first, second, "regeneration replaces candidates");
    }
}
