//! Quality transducers: CFD learning, source profiling, and per-mapping
//! quality metrics.

use std::collections::{HashMap, HashSet};

use vada_common::error::guard_stage;
use vada_common::obs::key as obs_key;
use vada_common::{Result, Schema, Tuple};
use vada_context::data_context::{capabilities, cfd_training_contexts};
use vada_kb::{CfdRule, KnowledgeBase, QualityFact};
use vada_map::ExecuteConfig;
use vada_quality::{
    consistency, consistency_applies, learn_cfds, CfdLearnConfig, MetricTally, ReferencePopulation,
};

use crate::components::mapping::SharedStore;
use crate::components::prepared::{PerRelation, Prepared};
use crate::transducer::{Activity, RunOutcome, Transducer};

/// Learn CFDs from data-context relations (paper Table 1: "CFD Learning —
/// Data Examples"; §2.2: reference data "can be used to learn CFDs,
/// against which the consistency of the address information within the
/// property table can be established").
///
/// Keeps the CFDs it learned, with the configuration and context relations
/// it learned them under and the journal mark they are current at. A run
/// whose configuration and contexts are the same, and for which the journal
/// proves that no context relation changed, takes the kept CFDs instead of
/// learning them again. CFDs the base already holds, ids included, are not
/// written again, so the `cfds` aspect moves only when they change.
#[derive(Debug, Default)]
pub struct CfdLearning {
    /// Learner configuration.
    pub config: CfdLearnConfig,
    learned: Prepared<(CfdLearnConfig, Vec<String>), Vec<CfdRule>>,
}

impl Transducer for CfdLearning {
    fn name(&self) -> &str {
        "cfd_learning"
    }

    fn activity(&self) -> Activity {
        Activity::Quality
    }

    fn input_dependency(&self) -> &str {
        r#"data_context(C, _), has_instances(C)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["data_context", "relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let contexts = cfd_training_contexts(kb)?;
        if contexts.is_empty() {
            return Ok(RunOutcome::noop(
                "no reference/master context to learn from (example data does not license CFDs)",
            ));
        }
        let names: Vec<String> = contexts.into_iter().map(|(name, _coverage)| name).collect();
        let relations: Vec<&str> = names.iter().map(String::as_str).collect();
        let cfds = self.learned.reuse_or_build(
            kb,
            (self.config.clone(), names.clone()),
            &relations,
            || {
                let mut cfds = Vec::new();
                for name in &names {
                    let rel = kb.relation(name)?;
                    let learn = || Ok(learn_cfds(&self.config, rel));
                    cfds.extend(guard_stage("quality/cfd_learn", learn)?);
                }
                Ok(cfds)
            },
        )?;
        let written = cfds.len();
        let summary = format!("{written} CFDs from {} context relation(s)", names.len());
        // the base holds them already (keyed, so in id order): no write, so
        // the `cfds` aspect moves only when the CFDs do
        let mut by_id: Vec<&CfdRule> = cfds.iter().collect();
        by_id.sort_by(|a, b| a.id.cmp(&b.id));
        if kb.cfds().eq(by_id) {
            return Ok(RunOutcome::noop(format!("{summary}, unchanged")));
        }
        kb.clear_cfds();
        for cfd in cfds.iter() {
            kb.add_cfd(cfd.clone());
        }
        Ok(RunOutcome::new(summary, written))
    }
}

/// Profile sources: per-attribute completeness quality facts
/// (paper §2.3: "adding quality metrics on sources ... to the knowledge
/// base").
///
/// Keeps each source's facts with the journal mark they are current at,
/// and measures again only the sources whose rows changed since.
#[derive(Debug, Default)]
pub struct SourceProfiling {
    profiles: PerRelation<(), Vec<QualityFact>>,
}

impl SourceProfiling {
    /// The facts a run writes, in write order: each source's, in source
    /// order.
    pub(crate) fn facts(&mut self, kb: &KnowledgeBase) -> Result<Vec<QualityFact>> {
        let sources = kb.source_names();
        self.profiles.retain(&sources);
        let mut out = Vec::new();
        for source in &sources {
            let build = || {
                let rel = kb.relation(source)?;
                rel.schema()
                    .attr_names()
                    .into_iter()
                    .map(|attr| {
                        Ok(QualityFact {
                            entity_kind: "source".into(),
                            entity: source.clone(),
                            metric: "completeness".into(),
                            criterion: format!("completeness({attr})"),
                            value: rel.completeness(attr)?,
                        })
                    })
                    .collect()
            };
            // any row event may move a completeness
            let (facts, _) = self.profiles.get_or_build(kb, source, (), |_, _| false, build)?;
            out.extend(facts.iter().cloned());
        }
        Ok(out)
    }
}

impl Transducer for SourceProfiling {
    fn name(&self) -> &str {
        "source_profiling"
    }

    fn activity(&self) -> Activity {
        Activity::Quality
    }

    fn input_dependency(&self) -> &str {
        r#"relation(R, "source", N), N > 0"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let facts = self.facts(kb)?;
        let written = facts.len();
        kb.clear_quality("source");
        for fact in facts {
            kb.add_quality(fact);
        }
        Ok(RunOutcome::new(format!("{written} source metrics"), written))
    }
}

/// A reference binding: `(context relation, context attribute, target
/// attribute)`.
type Binding = (String, String, String);

/// Compute quality metrics for every candidate mapping by materialising it
/// and measuring completeness (per target attribute), consistency (against
/// the learned CFDs) and syntactic accuracy (against reference
/// populations). These are the metrics mapping selection weighs under the
/// user context. Candidates materialise through the
/// [`ResultStore`](vada_map::ResultStore), which is their only home:
/// nothing is copied into the knowledge base, and
/// [`MappingExecution`](crate::components::MappingExecution) reads the
/// selected candidate from the same store (see
/// [`default_transducers`](crate::default_transducers)). A re-run caused
/// by new CFDs or reference data therefore re-executes only the candidates
/// whose sources changed — and of a union, only the parts that read them.
///
/// The reference populations are kept across runs too, with the reference
/// bindings they were built for and the journal mark they are current at.
/// They are rebuilt when the bindings differ or the journal cannot prove
/// that no bound reference relation changed since; otherwise a run reuses
/// them, and with them the verdicts each population remembers for the
/// strings it has scored.
///
/// **Tallies.** Completeness, coverage and accuracy are ratios of integer
/// counts ([`MetricTally`]): rows, non-null cells per target attribute, and
/// `(hits, total)` per bound reference attribute. They are kept per
/// *version of a part* — a run's rows, as the store names them
/// ([`Part::version`](vada_map::Part::version)). A version a session step
/// made names its parent ([`Part::parent`](vada_map::Part::parent)), and
/// when the parent's tally is kept, the new one follows from it: the
/// removed rows' tally taken away, the inserted rows' added. Only a version
/// without a kept parent is measured over all its rows. A candidate's tally
/// is the sum of its parts' tallies minus the tallies of the rows it drops,
/// so a union is measured from its parts and never copied, and a part no
/// edit touched is not counted again. The division comes last, with the
/// same formulas as measuring the candidate's relation, so every quality
/// fact is bit-identical to that. The kept tallies are dropped when the
/// populations are rebuilt or the bindings or the target schema change,
/// and a part version no candidate read in a run is forgotten at its end.
/// Consistency does not add up over parts, since violation groups span
/// them: it is measured on the candidate's relation — built, for a union,
/// only when some CFD names only target attributes.
#[derive(Debug, Default)]
pub struct MappingQuality {
    store: SharedStore,
    references: Prepared<Vec<Binding>, Vec<ReferencePopulation>>,
    tallies: Tallies,
}

/// Metric tallies per part version, and the bindings and target schema they
/// were counted under.
#[derive(Debug, Default)]
struct Tallies {
    under: Option<(Vec<Binding>, Option<Schema>)>,
    by_version: HashMap<u64, MetricTally>,
}

impl MappingQuality {
    /// A mapping-quality transducer materialising through `store`.
    /// [`Default`] gives it a private store of its own.
    pub fn with_store(store: SharedStore) -> MappingQuality {
        MappingQuality { store, references: Prepared::default(), tallies: Tallies::default() }
    }
}

/// One quality fact about candidate mapping `id`.
fn mapping_fact(id: &str, metric: &str, criterion: String, value: f64) -> QualityFact {
    QualityFact {
        entity_kind: "mapping".into(),
        entity: id.into(),
        metric: metric.into(),
        criterion,
        value,
    }
}

/// The tally of `rows` of a candidate typed in `schema`, scoring each bound
/// target attribute of the schema against its population.
fn measure<'t, I>(
    rows: I,
    schema: &Schema,
    bindings: &[Binding],
    populations: &mut [ReferencePopulation],
) -> MetricTally
where
    I: IntoIterator<Item = &'t Tuple>,
    I::IntoIter: Clone,
{
    let scored = bindings
        .iter()
        .zip(populations.iter_mut())
        .filter_map(|((_, _, tgt), population)| Some((schema.index_of(tgt)?, population)));
    MetricTally::measure(rows, schema.arity(), scored)
}

impl Transducer for MappingQuality {
    fn name(&self) -> &str {
        "mapping_quality"
    }

    fn activity(&self) -> Activity {
        Activity::Quality
    }

    fn input_dependency(&self) -> &str {
        "mapping(_, _)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["mappings", "cfds", "data_context"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let mappings: Vec<_> = kb.mappings().cloned().collect();
        let cfds: Vec<_> = kb.cfds().cloned().collect();
        // the bindings of reference contexts: one population per bound
        // target attribute, normalised once per version of its relation
        let contexts = kb.context_relations();
        let bindings: Vec<Binding> = kb
            .context_bindings()
            .iter()
            .filter(|(ctx_rel, _, _)| {
                contexts.iter().any(|(n, k)| n == ctx_rel && capabilities(*k).quality_reference)
            })
            .cloned()
            .collect();
        let tallies = &mut self.tallies;
        let under = (bindings.clone(), kb.target_schema().cloned());
        if tallies.under.as_ref() != Some(&under) {
            tallies.by_version.clear();
            tallies.under = Some(under);
        }
        let populations: &mut [ReferencePopulation] = if bindings.is_empty() {
            &mut []
        } else {
            let relations: Vec<&str> = bindings.iter().map(|(r, _, _)| r.as_str()).collect();
            let build = || {
                // new populations score differently: nothing counted
                // against the old ones stands
                tallies.by_version.clear();
                bindings
                    .iter()
                    .map(|(ctx_rel, ctx_attr, _)| {
                        ReferencePopulation::new(kb.relation(ctx_rel)?, ctx_attr)
                    })
                    .collect()
            };
            self.references.reuse_or_build(kb, bindings.clone(), &relations, build)?
        };
        kb.clear_quality("mapping");
        let mut written = 0usize;
        let mut store = self.store.borrow_mut();
        let cfg = ExecuteConfig::default();
        let obs = kb.obs().clone();
        let mut read = HashSet::new();
        let mut row_counts = Vec::with_capacity(mappings.len());
        for mapping in &mappings {
            let candidate = store.candidate(&cfg, mapping, kb)?;
            let schema = candidate.schema();
            let span = obs.span("quality/tally");
            let (mut measured, mut followed) = (0usize, 0usize);
            let mut count = |rows: Vec<&Tuple>| measure(rows, schema, &bindings, populations);
            let mut tally: Option<MetricTally> = None;
            for part in candidate.parts() {
                read.insert(part.version);
                let rows = part.rows.tuples();
                let at = |positions: &[usize]| positions.iter().map(|&row| &rows[row]).collect();
                if tallies.by_version.contains_key(&part.version) {
                    obs.incr(obs_key::QUALITY_METRICS_REUSED);
                } else if let Some(mut counted) =
                    part.parent.and_then(|parent| tallies.by_version.get(&parent)).cloned()
                {
                    obs.incr(obs_key::QUALITY_METRICS_FOLLOWED);
                    followed += 1;
                    counted.subtract(&count(part.removed.iter().collect()));
                    counted.add(&count(at(part.inserted)));
                    tallies.by_version.insert(part.version, counted);
                } else {
                    obs.incr(obs_key::QUALITY_METRICS_COMPUTED);
                    measured += 1;
                    tallies.by_version.insert(part.version, count(rows.iter().collect()));
                }
                let counted = &tallies.by_version[&part.version];
                let sum = match &mut tally {
                    Some(sum) => {
                        sum.add(counted);
                        sum
                    }
                    None => tally.insert(counted.clone()),
                };
                if !part.dropped.is_empty() {
                    sum.subtract(&count(at(part.dropped)));
                }
            }
            span.attr("measured", measured);
            span.attr("followed", followed);
            drop(span);
            let tally = tally.expect("a candidate has at least one part");
            let mut add = |metric: &str, criterion: String, value: f64| {
                kb.add_quality(mapping_fact(&mapping.id, metric, criterion, value));
                written += 1;
            };
            // completeness per target attribute
            for (col, attr) in schema.attr_names().into_iter().enumerate() {
                add("completeness", format!("completeness({attr})"), tally.completeness(col));
            }
            // consistency against learned CFDs (only meaningful once CFDs
            // exist — before that every mapping scores 1.0 vacuously)
            let value = if consistency_applies(schema, &cfds) {
                consistency(candidate.relation(), &cfds)
            } else {
                1.0
            };
            add("consistency", format!("consistency({})", schema.name), value);
            // syntactic accuracy against reference populations
            let scored = bindings.iter().filter(|(_, _, tgt)| schema.index_of(tgt).is_some());
            for ((_, _, tgt_attr), accuracy) in scored.zip(&tally.accuracy) {
                add("accuracy", format!("accuracy({tgt_attr})"), accuracy.value());
            }
            row_counts.push(tally.rows);
        }
        // part versions no candidate read any more are gone from the store
        tallies.by_version.retain(|version, _| read.contains(version));
        // relative row coverage: a union over sources reaches more of the
        // domain than any single source, which per-attribute completeness
        // fractions cannot see
        let max_rows = row_counts.iter().copied().max().unwrap_or(0);
        if max_rows > 0 {
            for (mapping, rows) in mappings.iter().zip(row_counts) {
                let value = rows as f64 / max_rows as f64;
                let criterion = format!("coverage({})", mapping.target);
                kb.add_quality(mapping_fact(&mapping.id, "coverage", criterion, value));
                written += 1;
            }
        }
        Ok(RunOutcome::new(
            format!("{written} metrics over {} candidate mappings", mappings.len()),
            written,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Relation, Schema};
    use vada_kb::{ContextKind, MappingDef};

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str("rightmove", &["price", "street", "postcode"]));
        rm.push(tuple!["250000", "1 high st", "M1 1AA"]).unwrap();
        rm.push(Tuple::new(vec![
            vada_common::Value::Null,
            vada_common::Value::str("2 park rd"),
            vada_common::Value::str("M1 1AB"),
        ]))
        .unwrap();
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
        kb
    }

    use vada_common::Tuple;

    fn address_context(kb: &mut KnowledgeBase) {
        let mut addr = Relation::empty(Schema::all_str("address", &["street", "city", "postcode"]));
        for (s, c, p) in [
            ("1 high st", "manchester", "M1 1AA"),
            ("2 park rd", "manchester", "M1 1AB"),
            ("3 kings ave", "manchester", "M1 1AC"),
            ("4 mill ln", "manchester", "M1 1AD"),
            ("5 queens dr", "edinburgh", "EH1 1AA"),
            ("6 albert sq", "edinburgh", "EH1 1AB"),
        ] {
            addr.push(tuple![s, c, p]).unwrap();
        }
        kb.register_data_context(
            addr,
            ContextKind::Reference,
            &[("street", "street"), ("postcode", "postcode")],
        )
        .unwrap();
    }

    #[test]
    fn cfd_learning_requires_capable_context() {
        let mut kb = kb();
        let mut t = CfdLearning::default();
        assert!(!t.ready(&kb).unwrap());
        address_context(&mut kb);
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes > 0, "{}", out.summary);
        assert!(kb.cfds().any(|c| c.rhs.0 == "city"));
    }

    #[test]
    fn example_context_does_not_license_cfds() {
        let mut kb = kb();
        let mut ex = Relation::empty(Schema::all_str("examples", &["street"]));
        ex.push(tuple!["1 high st"]).unwrap();
        kb.register_data_context(ex, ContextKind::Example, &[("street", "street")])
            .unwrap();
        let mut t = CfdLearning::default();
        assert!(t.ready(&kb).unwrap(), "dependency is on any context");
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0, "{}", out.summary);
    }

    #[test]
    fn source_profiling_writes_completeness() {
        let mut kb = kb();
        let mut t = SourceProfiling::default();
        assert!(t.ready(&kb).unwrap());
        t.run(&mut kb).unwrap();
        let price_fact = kb
            .quality_facts()
            .iter()
            .find(|q| q.entity == "rightmove" && q.criterion == "completeness(price)")
            .unwrap();
        assert!((price_fact.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mapping_quality_measures_candidates() {
        let mut kb = kb();
        address_context(&mut kb);
        kb.add_mapping(MappingDef {
            id: "map0".into(),
            target: "property".into(),
            rules: "property(S, PC, P) :- rightmove(P, S, PC).".into(),
            sources: vec!["rightmove".into()],
            matches_used: vec![],
            parts: vec![],
        });
        let mut t = MappingQuality::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes >= 5, "{}", out.summary);
        let completeness_price = kb
            .quality_facts()
            .iter()
            .find(|q| q.entity == "map0" && q.criterion == "completeness(price)")
            .unwrap();
        assert!((completeness_price.value - 0.5).abs() < 1e-12);
        let acc_street = kb
            .quality_facts()
            .iter()
            .find(|q| q.entity == "map0" && q.criterion == "accuracy(street)")
            .unwrap();
        assert!(acc_street.value > 0.99, "streets are all in the reference");
        // the materialisation lives in the result store, not the catalog
        assert!(kb.catalog().entries().all(|(name, _, _)| !name.starts_with("candidate_")));
    }

    /// Every mapping quality fact, in write order, with its value's bits.
    fn mapping_facts(kb: &KnowledgeBase) -> Vec<(String, String, u64)> {
        kb.quality_facts()
            .iter()
            .filter(|q| q.entity_kind == "mapping")
            .map(|q| (q.entity.clone(), q.criterion.clone(), q.value.to_bits()))
            .collect()
    }

    /// The facts measured on each candidate's from-scratch relation.
    fn measured_from_scratch(kb: &KnowledgeBase) -> Vec<(String, String, u64)> {
        let cfds: Vec<CfdRule> = kb.cfds().cloned().collect();
        let address = kb.relation("address").unwrap();
        let mut facts = Vec::new();
        let mut rows = Vec::new();
        for m in kb.mappings() {
            let rel = vada_map::execute_mapping(&ExecuteConfig::default(), m, kb).unwrap();
            let mut add = |criterion: String, value: f64| {
                facts.push((m.id.clone(), criterion, value.to_bits()));
            };
            for attr in rel.schema().attr_names() {
                add(format!("completeness({attr})"), rel.completeness(attr).unwrap());
            }
            add("consistency(property)".into(), consistency(&rel, &cfds));
            for attr in ["street", "postcode"] {
                let value = vada_quality::accuracy_against_reference(&rel, attr, address, attr);
                add(format!("accuracy({attr})"), value.unwrap());
            }
            rows.push(rel.len());
        }
        let max = rows.iter().copied().max().unwrap();
        for (m, n) in kb.mappings().zip(rows) {
            let value = n as f64 / max as f64;
            facts.push((m.id.clone(), "coverage(property)".into(), value.to_bits()));
        }
        facts
    }

    #[test]
    fn union_quality_facts_equal_measuring_the_scratch_relation() {
        use vada_kb::MappingPart;
        let mut kb = kb();
        address_context(&mut kb);
        let obs = vada_common::Obs::enabled();
        kb.set_obs(obs.clone());
        let schema = Schema::all_str("onthemarket", &["street", "postcode", "p"]);
        let mut otm = Relation::empty(schema);
        // rightmove's first raw fact (dropped from the union), a price that
        // coerces, and one that does not
        otm.push(tuple!["1 high st", "M1 1AA", "250000"]).unwrap();
        otm.push(tuple!["3 kings ave", "M1 1AC", "£120,000"]).unwrap();
        otm.push(tuple!["9 nowhere", "ZZ9 9ZZ", "n/a"]).unwrap();
        kb.register_source(otm);
        let rm = "property(S, PC, P) :- rightmove(P, S, PC).\n";
        let om = "property(S, PC, P) :- onthemarket(S, PC, P).\n";
        let candidate = |id: &str, parts: &[(&str, &str)]| MappingDef {
            id: id.into(),
            target: "property".into(),
            rules: parts.iter().map(|(rules, _)| *rules).collect(),
            sources: parts.iter().map(|(_, source)| source.to_string()).collect(),
            matches_used: vec![],
            parts: match parts {
                [_] => vec![],
                _ => parts
                    .iter()
                    .map(|(rules, source)| MappingPart {
                        rules: rules.to_string(),
                        sources: vec![source.to_string()],
                    })
                    .collect(),
            },
        };
        kb.add_mapping(candidate("rm", &[(rm, "rightmove")]));
        kb.add_mapping(candidate("otm", &[(om, "onthemarket")]));
        kb.add_mapping(candidate("union", &[(rm, "rightmove"), (om, "onthemarket")]));
        let keys = [
            obs_key::QUALITY_METRICS_COMPUTED,
            obs_key::QUALITY_METRICS_REUSED,
            obs_key::QUALITY_METRICS_FOLLOWED,
        ];
        let tallies = || keys.map(|k| obs.get(k));
        let mut t = MappingQuality::default();
        t.run(&mut kb).unwrap();
        assert_eq!(mapping_facts(&kb), measured_from_scratch(&kb));
        // the two parts measured, the union derived from them
        assert_eq!(tallies(), [2, 2, 0]);

        // an edit to rightmove: its part's tally follows the edit from the
        // previous version's, the rest are kept
        let mut rows = kb.relation("rightmove").unwrap().clone();
        rows.push(tuple!["99", "5 queens dr", "EH1 1AA"]).unwrap();
        kb.register_source(rows);
        t.run(&mut kb).unwrap();
        assert_eq!(mapping_facts(&kb), measured_from_scratch(&kb));
        assert_eq!(tallies(), [2, 2 + 3, 1]);

        // a CFD over target attributes: consistency needs the union's rows
        kb.add_cfd(CfdRule {
            id: "pc_street".into(),
            relation: "property".into(),
            lhs: vec![("postcode".into(), None)],
            rhs: ("street".into(), None),
            support: 1,
        });
        let mut rows = kb.relation("rightmove").unwrap().clone();
        rows.push(tuple!["1", "6 albert sq", "EH1 1AA"]).unwrap();
        kb.register_source(rows);
        t.run(&mut kb).unwrap();
        let facts = mapping_facts(&kb);
        assert_eq!(facts, measured_from_scratch(&kb));
        assert!(
            facts.iter().any(|(_, c, v)| c == "consistency(property)" && *v != 1f64.to_bits()),
            "a violation shows: {facts:?}"
        );

        // new reference data: no part changed, but every tally counted
        // against the old populations is dropped
        kb.remove_rows("address", &[0]).unwrap();
        let before = tallies();
        t.run(&mut kb).unwrap();
        assert_eq!(mapping_facts(&kb), measured_from_scratch(&kb));
        assert_eq!(tallies(), [before[0] + 2, before[1] + 2, before[2]]);
    }
}
