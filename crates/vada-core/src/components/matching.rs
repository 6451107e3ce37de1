//! Matching transducers: schema-level and instance-level.

use vada_common::Result;
use vada_kb::{KnowledgeBase, MatchDef};
use vada_match::{
    instance_match, schema_match, ContextColumn, InstanceMatchConfig, SchemaMatchConfig,
};

use crate::transducer::{Activity, RunOutcome, Transducer};

/// Name-based schema matching (paper Table 1: needs source & target
/// schemas).
#[derive(Debug, Default)]
pub struct SchemaMatching {
    /// Matcher configuration.
    pub config: SchemaMatchConfig,
}

impl Transducer for SchemaMatching {
    fn name(&self) -> &str {
        "schema_matching"
    }

    fn activity(&self) -> Activity {
        Activity::Matching
    }

    fn input_dependency(&self) -> &str {
        r#"relation(R, "source", _), attr(R, _, _, _), target_attr(_, _, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["relations", "target"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .expect("dependency guarantees a target schema")
            .clone();
        let mut written = 0usize;
        for source in kb.source_names() {
            let schema = kb.relation(&source)?.schema().clone();
            for corr in schema_match(&self.config, &schema, &target) {
                let id = format!("schema:{}.{}->{}", corr.src_rel, corr.src_attr, corr.tgt_attr);
                kb.add_match(MatchDef {
                    id,
                    src_rel: corr.src_rel,
                    src_attr: corr.src_attr,
                    tgt_attr: corr.tgt_attr,
                    score: corr.score,
                    matcher: "schema".into(),
                });
                written += 1;
            }
        }
        kb.log("schema_matching", "add_match", &written.to_string());
        Ok(RunOutcome::new(
            format!("{written} schema-level correspondences"),
            written,
        ))
    }
}

/// Instance-based matching: needs instances on both sides; the target side
/// gets them from data-context relations bound to target attributes
/// (paper §2.2: revisiting matching "to include the use of the instance
/// data").
#[derive(Debug, Default)]
pub struct InstanceMatching {
    /// Matcher configuration.
    pub config: InstanceMatchConfig,
}

impl Transducer for InstanceMatching {
    fn name(&self) -> &str {
        "instance_matching"
    }

    fn activity(&self) -> Activity {
        Activity::Matching
    }

    fn input_dependency(&self) -> &str {
        r#"relation(R, "source", _), has_instances(R), data_context(C, _), has_instances(C), context_binding(C, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["relations", "data_context"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        // target instances from context bindings
        let mut columns: Vec<ContextColumn> = Vec::new();
        for (ctx_rel, ctx_attr, tgt_attr) in kb.context_bindings().to_vec() {
            let rel = kb.relation(&ctx_rel)?;
            columns.push(ContextColumn::from_relation(rel, &ctx_attr, &tgt_attr));
        }
        // match every source in place, then write: no source is copied
        let mut found = Vec::new();
        for source in kb.source_names() {
            found.extend(instance_match(&self.config, kb.relation(&source)?, &columns));
        }
        let written = found.len();
        for corr in found {
            let id = format!("instance:{}.{}->{}", corr.src_rel, corr.src_attr, corr.tgt_attr);
            kb.add_match(MatchDef {
                id,
                src_rel: corr.src_rel,
                src_attr: corr.src_attr,
                tgt_attr: corr.tgt_attr,
                score: corr.score,
                matcher: "instance".into(),
            });
        }
        kb.log("instance_matching", "add_match", &written.to_string());
        Ok(RunOutcome::new(
            format!("{written} instance-level correspondences"),
            written,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Relation, Schema};
    use vada_kb::ContextKind;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["250000", "12 high st", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        kb.register_target_schema(Schema::all_str(
            "property",
            &["street", "postcode", "price"],
        ));
        kb
    }

    #[test]
    fn schema_matching_readiness_and_run() {
        let mut kb = kb();
        let mut t = SchemaMatching::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes >= 3, "{}", out.summary);
        assert!(kb.matches().any(|m| m.src_attr == "price" && m.tgt_attr == "price"));
    }

    #[test]
    fn schema_matching_not_ready_without_target() {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str("rightmove", &["price"]));
        rm.push(tuple!["1"]).unwrap();
        kb.register_source(rm);
        assert!(!SchemaMatching::default().ready(&kb).unwrap());
    }

    #[test]
    fn instance_matching_needs_context_instances() {
        let mut kb = kb();
        let t = InstanceMatching::default();
        assert!(!t.ready(&kb).unwrap(), "no data context yet");
        let mut addr = Relation::empty(Schema::all_str("address", &["street", "postcode"]));
        addr.push(tuple!["12 high st", "M1 1AA"]).unwrap();
        kb.register_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
        let mut t = InstanceMatching::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes >= 2, "{}", out.summary);
        assert!(kb.matches().any(|m| m.matcher == "instance" && m.tgt_attr == "postcode"));
    }

    #[test]
    fn rerun_replaces_not_duplicates() {
        let mut kb = kb();
        let mut t = SchemaMatching::default();
        t.run(&mut kb).unwrap();
        let n1 = kb.matches().count();
        t.run(&mut kb).unwrap();
        assert_eq!(kb.matches().count(), n1, "deterministic ids replace");
    }
}
