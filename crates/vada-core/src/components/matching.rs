//! Matching transducers: schema-level and instance-level.
//!
//! Both keep each source's correspondences between runs, with the journal
//! mark they are current at, and match again only the sources an edit
//! reached: a row edit to one source re-reads that source alone. A run
//! still writes every source's correspondences, in source order, exactly as
//! a fresh run writes them.
//!
//! * Schema matching keeps them under its configuration and the target
//!   schema. A row event never changes a schema, so only a relation-level
//!   change (a re-registration with another schema, say) matches a source
//!   again.
//! * Instance matching prepares the context side once per configuration,
//!   bindings and version of the bound context relations, and keeps each
//!   source's correspondences with its **sample frontier**
//!   ([`vada_match::match_source`]): one past the last row any column's
//!   sample read, or `None` when some column was short. Row events leave a
//!   source's correspondences exact, so they are reused, when its frontier
//!   is `Some` and every row the events removed or rewrote sits at or past
//!   it; appends then never matter. Any other change to a source matches it
//!   again, and a rebuilt context side matches every source again.

use vada_common::obs::key as obs_key;
use vada_common::{Result, Schema};
use vada_kb::{DeltaChange, DeltaEvent, KnowledgeBase, MatchDef};
use vada_match::{
    match_source, schema_match, Correspondence, InstanceMatchConfig, PreparedContext,
    SchemaMatchConfig,
};

use crate::components::prepared::{PerRelation, Prepared};
use crate::transducer::{Activity, RunOutcome, Transducer};

/// The match a correspondence found by `matcher` is written as.
fn match_def(corr: Correspondence, matcher: &str) -> MatchDef {
    MatchDef {
        id: format!("{matcher}:{}.{}->{}", corr.src_rel, corr.src_attr, corr.tgt_attr),
        src_rel: corr.src_rel,
        src_attr: corr.src_attr,
        tgt_attr: corr.tgt_attr,
        score: corr.score,
        matcher: matcher.into(),
    }
}

/// Name-based schema matching (paper Table 1: needs source & target
/// schemas).
#[derive(Debug, Default)]
pub struct SchemaMatching {
    /// Matcher configuration.
    pub config: SchemaMatchConfig,
    matched: PerRelation<(SchemaMatchConfig, Schema), Vec<MatchDef>>,
}

impl SchemaMatching {
    /// The matches a run writes, in write order: each source's, in source
    /// order.
    pub(crate) fn matches(&mut self, kb: &KnowledgeBase) -> Result<Vec<MatchDef>> {
        let target = kb.target_schema().expect("dependency guarantees a target schema");
        let sources = kb.source_names();
        self.matched.retain(&sources);
        let mut out = Vec::new();
        for source in &sources {
            let build = || {
                let schema = kb.relation(source)?.schema();
                let found = schema_match(&self.config, schema, target);
                Ok(found.into_iter().map(|corr| match_def(corr, "schema")).collect())
            };
            let key = (self.config.clone(), target.clone());
            // a row event never changes a schema
            let (matches, _) = self.matched.get_or_build(kb, source, key, |_, _| true, build)?;
            out.extend(matches.iter().cloned());
        }
        Ok(out)
    }
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
        let matches = self.matches(kb)?;
        let written = matches.len();
        for m in matches {
            kb.add_match(m);
        }
        Ok(RunOutcome::new(
            format!("{written} schema-level correspondences"),
            written,
        ))
    }
}

/// A context binding: `(context relation, context attribute, target
/// attribute)`.
type Binding = (String, String, String);

/// Instance-based matching: needs instances on both sides; the target side
/// gets them from data-context relations bound to target attributes
/// (paper §2.2: revisiting matching "to include the use of the instance
/// data").
#[derive(Debug, Default)]
pub struct InstanceMatching {
    /// Matcher configuration.
    pub config: InstanceMatchConfig,
    context: Prepared<(InstanceMatchConfig, Vec<Binding>), Matched>,
}

/// The context side, and each source's matches against it with the
/// source's sample frontier. Kept as one value, so a rebuilt context side
/// starts with no source matched.
#[derive(Debug)]
struct Matched {
    context: PreparedContext,
    sources: PerRelation<(), (Vec<MatchDef>, Option<usize>)>,
}

/// Whether row events leave a source's instance matches exact: its sample
/// frontier is known and no event removed, rewrote or inserted a row
/// before it.
fn past_the_sample(frontier: Option<usize>, events: &[&DeltaEvent]) -> bool {
    let Some(frontier) = frontier else {
        return false;
    };
    events.iter().all(|event| match &event.change {
        DeltaChange::RowsAppended { .. } => true,
        DeltaChange::RowsRemoved { positions, .. }
        | DeltaChange::RowsReplaced { positions, .. }
        | DeltaChange::RowsInserted { positions, .. } => {
            positions.iter().all(|&row| row >= frontier)
        }
        _ => false,
    })
}

impl InstanceMatching {
    /// The matches a run writes, in write order: each source's, in source
    /// order. Tallies `match.instance.{matched,reused}` once per source.
    pub(crate) fn matches(&mut self, kb: &KnowledgeBase) -> Result<Vec<MatchDef>> {
        let bindings = kb.context_bindings();
        let relations: Vec<&str> = bindings.iter().map(|(rel, _, _)| rel.as_str()).collect();
        let build = || {
            let columns = bindings
                .iter()
                .map(|(rel, ctx_attr, tgt_attr)| {
                    Ok((kb.relation(rel)?, ctx_attr.as_str(), tgt_attr.as_str()))
                })
                .collect::<Result<Vec<_>>>()?;
            let context = PreparedContext::from_bindings(&self.config, columns);
            Ok(Matched { context, sources: PerRelation::default() })
        };
        let key = (self.config.clone(), bindings.to_vec());
        let (matched, _) = self.context.get_or_build(kb, key, &relations, |_, _| false, build)?;
        let sources = kb.source_names();
        matched.sources.retain(&sources);
        let mut out = Vec::new();
        for source in &sources {
            let src = kb.relation(source)?;
            let build = || {
                let (found, frontier) = match_source(&self.config, src, &matched.context);
                let matches = found.into_iter().map(|corr| match_def(corr, "instance")).collect();
                Ok((matches, frontier))
            };
            let valid = |(_, frontier): &(_, Option<usize>), events: &[&DeltaEvent]| {
                past_the_sample(*frontier, events)
            };
            let ((matches, _), reused) =
                matched.sources.get_or_build(kb, source, (), valid, build)?;
            kb.obs().incr(if reused {
                obs_key::MATCH_INSTANCE_REUSED
            } else {
                obs_key::MATCH_INSTANCE_MATCHED
            });
            out.extend(matches.iter().cloned());
        }
        Ok(out)
    }
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
        let matches = self.matches(kb)?;
        let written = matches.len();
        for m in matches {
            kb.add_match(m);
        }
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
