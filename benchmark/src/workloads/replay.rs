//! The stage replay of the traced run, and the per-layer metrics derived
//! from the spans it (and the direct-call workloads) record.
//!
//! The wrangler hides most layers behind `run()`. After a traced iteration
//! the harness therefore takes the inputs the pipeline left in the knowledge
//! base — mappings, CFDs, source, context and result relations — and pushes
//! them through each layer's public function itself, each call in a span
//! under the iteration's `replay` span. Spans are named after the metric
//! they feed: the span `map.execute` becomes `map.execute.busy_s`.

use vada::criteria::canonicalize_statements;
use vada::vada_common::csv::read_relation;
use vada::vada_common::{AttrType, Relation, Schema, Tuple, VadaError, Value};
use vada::vada_context::{Criterion, UserContext};
use vada::vada_datalog::{parse_program, Database, Engine, EngineConfig};
use vada::vada_fusion::{
    block_by_keys, blocking_stats, cluster_relation, fuse_clusters, ClusterConfig, FieldKind,
    FieldSpec, Survivorship,
};
use vada::vada_kb::{CfdRule, KnowledgeBase, MappingDef};
use vada::vada_map::{
    execute_mapping, generate_candidates, rank_mappings, ExecuteConfig, MapGenConfig, MappingScore,
};
use vada::vada_match::{
    instance_match, schema_match, ContextColumn, InstanceMatchConfig, SchemaMatchConfig,
};
use vada::vada_quality::{
    accuracy_against_reference, consistency, detect_violations, learn_cfds, repair_with_reference,
    CfdLearnConfig, RepairConfig,
};
use vada::Wrangler;

use super::Bench;

/// The duplicate-detection set-up of the pipeline's `duplicate_detection`
/// transducer: block on `postcode`, street-heavy field weights, free text
/// ignored, threshold 0.88.
pub fn cluster_config(schema: &Schema) -> ClusterConfig {
    let fields = schema
        .attributes()
        .iter()
        .enumerate()
        .filter_map(|(col, a)| {
            let (weight, kind) = match (a.name.as_str(), a.ty) {
                ("description", _) => return None,
                ("postcode", _) => (2.0, FieldKind::Exact),
                ("street", _) => (3.0, FieldKind::Text),
                (_, AttrType::Int | AttrType::Float) => (1.0, FieldKind::Numeric),
                _ => (1.0, FieldKind::Text),
            };
            Some(FieldSpec { col, weight, kind })
        })
        .collect();
    ClusterConfig {
        block_keys: vec!["postcode".into()],
        fields,
        threshold: 0.88,
    }
}

/// Matching of every source against the target (and, given context columns,
/// against the context's instances), in the spans `match.schema` and
/// `match.instance`.
pub fn replay_matching(
    b: &mut Bench,
    sources: &[&Relation],
    target: &Schema,
    context: &[ContextColumn],
) {
    b.rec.time("match.schema", || {
        for src in sources {
            std::hint::black_box(schema_match(
                &SchemaMatchConfig::default(),
                src.schema(),
                target,
            ));
        }
    });
    if !context.is_empty() {
        b.rec.time("match.instance", || {
            for src in sources {
                std::hint::black_box(instance_match(
                    &InstanceMatchConfig::default(),
                    src,
                    context,
                ));
            }
        });
    }
}

/// Blocking, clustering and fusion of `dirty` in the spans `fusion.block`,
/// `fusion.cluster` and `fusion.fuse`; returns the fused relation and the
/// number of rows fusion reports as merged away.
pub fn replay_fusion(b: &mut Bench, dirty: &Relation) -> Result<(Relation, usize), VadaError> {
    let cfg = cluster_config(dirty.schema());
    let open = b.rec.enter("fusion.block");
    let blocks = block_by_keys(dirty, &["postcode"])?;
    let stats = blocking_stats(&blocks, dirty.len());
    b.rec.count("candidate_pairs", stats.candidate_pairs as u64);
    b.rec.exit(open);
    let clusters = b
        .rec
        .time("fusion.cluster", || cluster_relation(&cfg, dirty))?;
    let open = b.rec.enter("fusion.fuse");
    let (fused, report) = fuse_clusters(dirty, &clusters, Survivorship::Majority, None)?;
    b.rec.count("rows_in", report.input_rows as u64);
    b.rec
        .count("rows_merged", report.duplicates_removed() as u64);
    b.rec.exit(open);
    Ok((fused, report.duplicates_removed()))
}

/// CFD learning over `reference`, violation detection and reference repair
/// of `rel` (street by postcode), in the spans `quality.cfd_learn`,
/// `quality.violations` and `quality.repair`; returns the learned CFDs.
pub fn replay_quality(b: &mut Bench, rel: &mut Relation, reference: &Relation) -> Vec<CfdRule> {
    let cfds = b.rec.time("quality.cfd_learn", || {
        learn_cfds(&CfdLearnConfig::default(), reference)
    });
    let open = b.rec.enter("quality.violations");
    let violations = detect_violations(rel, &cfds);
    b.rec.count("violations", violations.len() as u64);
    b.rec.exit(open);
    let open = b.rec.enter("quality.repair");
    let report = repair_with_reference(
        &RepairConfig::default(),
        rel,
        &cfds,
        reference,
        Some(("street", "postcode")),
    );
    b.rec.count("fixes", report.total() as u64);
    b.rec.exit(open);
    cfds
}

/// The `postcode_district` facts `vada_map` adds to a mapping's input: one
/// per string cell that reads as a full postcode, pairing it with its
/// outward code. Rebuilt here so the engine replay sees the facts
/// `execute_mapping` evaluates over.
fn district_facts(row: &Tuple, db: &mut Database) {
    for v in row.iter() {
        let Value::Str(s) = v else { continue };
        let Some(outward) = s.split_whitespace().next() else {
            continue;
        };
        let mixed = outward.chars().any(|c| c.is_ascii_alphabetic())
            && outward.chars().any(|c| c.is_ascii_digit());
        if mixed && s.contains(' ') {
            db.insert(
                "postcode_district",
                Tuple::new(vec![v.clone(), Value::str(outward)]),
            );
        }
    }
}

fn mapping_input(mapping: &MappingDef, kb: &KnowledgeBase) -> Result<Database, VadaError> {
    let mut db = Database::new();
    for source in &mapping.sources {
        let rel = kb.relation(source)?;
        db.insert_relation(rel);
        for row in rel.iter() {
            district_facts(row, &mut db);
        }
    }
    Ok(db)
}

/// Replay every layer over what the wrangler left in its knowledge base.
/// `docs` are the CSV documents the sources were staged from.
pub fn stage_replay(
    b: &mut Bench,
    w: &Wrangler,
    docs: &[(String, String)],
) -> Result<(), VadaError> {
    if !b.tracing() {
        return Ok(());
    }
    let open = b.rec.enter("replay");
    let outcome = replay_layers(b, w, docs);
    b.rec.exit(open);
    outcome
}

fn replay_layers(b: &mut Bench, w: &Wrangler, docs: &[(String, String)]) -> Result<(), VadaError> {
    let kb = w.kb();
    let target = kb
        .target_schema()
        .ok_or_else(|| VadaError::Kb("no target schema".into()))?
        .clone();

    // common: CSV text back into relations
    let open = b.rec.enter("common.csv.read");
    for (name, text) in docs {
        let rel = read_relation(text, kb.relation(name)?.schema().clone())?;
        b.rec.count("rows", rel.len() as u64);
    }
    b.rec.exit(open);

    // match
    let names = kb.source_names();
    let sources: Vec<&Relation> = names
        .iter()
        .map(|n| kb.relation(n))
        .collect::<Result<_, _>>()?;
    let mut context = Vec::new();
    let mut references: Vec<(String, &Relation, String)> = Vec::new();
    for (ctx_rel, ctx_attr, tgt_attr) in kb.context_bindings() {
        let rel = kb.relation(ctx_rel)?;
        context.push(ContextColumn::from_relation(rel, ctx_attr, tgt_attr));
        references.push((tgt_attr.clone(), rel, ctx_attr.clone()));
    }
    replay_matching(b, &sources, &target, &context);

    // map + datalog + quality metrics, per candidate mapping
    b.rec.time("map.generate", || {
        generate_candidates(&MapGenConfig::default(), kb)
    })?;
    let cfds: Vec<CfdRule> = kb.cfds().cloned().collect();
    let engine = Engine::new(EngineConfig::default());
    let mut selected_output = None;
    for mapping in kb.mappings() {
        let open = b.rec.enter("map.execute");
        let result = execute_mapping(&ExecuteConfig::default(), mapping, kb)?;
        b.rec.count("rows", result.len() as u64);
        b.rec.exit(open);

        let program = b
            .rec
            .time("datalog.parse", || parse_program(&mapping.rules))?;
        let input = mapping_input(mapping, kb)?;
        let input_facts = input.total_facts();
        let open = b.rec.enter("datalog.run");
        let output = engine.run(&program, input)?;
        b.rec
            .count("derived_facts", (output.total_facts() - input_facts) as u64);
        b.rec.exit(open);

        b.rec.time("quality.metrics", || -> Result<(), VadaError> {
            std::hint::black_box(consistency(&result, &cfds));
            for (tgt_attr, reference, ref_attr) in &references {
                if result.schema().index_of(tgt_attr).is_some() {
                    std::hint::black_box(accuracy_against_reference(
                        &result, tgt_attr, reference, ref_attr,
                    )?);
                }
            }
            Ok(())
        })?;
        if kb.selected_mapping() == Some(mapping.id.as_str()) {
            selected_output = Some(result);
        }
    }

    // map: selection under the user context
    let mut scores: std::collections::BTreeMap<&str, MappingScore> = Default::default();
    let mut criteria = std::collections::BTreeSet::new();
    for q in kb
        .quality_facts()
        .iter()
        .filter(|q| q.entity_kind == "mapping")
    {
        scores
            .entry(&q.entity)
            .or_insert_with(|| MappingScore {
                mapping_id: q.entity.clone(),
                scores: Default::default(),
            })
            .scores
            .insert(q.criterion.clone(), q.value);
        criteria.insert(q.criterion.as_str());
    }
    let candidates: Vec<MappingScore> = scores.into_values().collect();
    let extra: Vec<Criterion> = criteria
        .iter()
        .filter_map(|c| Criterion::parse(c).ok())
        .collect();
    let statements = canonicalize_statements(kb.user_context(), &target.name)?;
    b.rec.time("map.select", || -> Result<(), VadaError> {
        let ctx = if statements.is_empty() {
            UserContext::uniform(extra)?
        } else {
            UserContext::derive(&statements, &extra)?
        };
        std::hint::black_box(rank_mappings(&candidates, &ctx));
        Ok(())
    })?;

    // fusion + quality over the selected mapping's unfused output
    if let Some(unfused) = selected_output {
        let (mut fused, _) = replay_fusion(b, &unfused)?;
        if let Some((_, reference, _)) = references.first() {
            replay_quality(b, &mut fused, reference);
        }
    }

    // kb: one sweep of the fleet's input dependencies
    b.rec.time("kb.depquery", || -> Result<(), VadaError> {
        for t in w.transducers() {
            std::hint::black_box(kb.query_satisfied(t.input_dependency())?);
        }
        Ok(())
    })
}

fn ratio(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .filter(|(_, d)| **d > 0.0)
        .map(|(n, d)| n / d)
        .collect()
}

/// Turn the recorded spans into the per-layer metrics every workload
/// shares. A layer the workload never called has no span, so no sample, and
/// reads as zero.
pub fn derive_layer_metrics(b: &mut Bench) {
    for span in [
        "kb.register",
        "kb.edit",
        "kb.depquery",
        "datalog.parse",
        "datalog.run",
        "map.generate",
        "map.execute",
        "map.select",
        "match.schema",
        "match.instance",
        "fusion.block",
        "fusion.cluster",
        "fusion.fuse",
        "quality.cfd_learn",
        "quality.violations",
        "quality.repair",
        "quality.metrics",
        "context.ahp",
    ] {
        b.busy(&format!("{span}.busy_s"), span);
    }
    b.busy("common.csv.read_s", "common.csv.read");

    let rec = &b.rec;
    let execute = rec.busy_by_trace("map.execute");
    let run = rec.busy_by_trace("datalog.run");
    let parse = rec.busy_by_trace("datalog.parse");
    let derived = rec.count_by_trace("datalog.run", "derived_facts");
    let exec_rows = rec.count_by_trace("map.execute", "rows");
    let csv_rows = rec.count_by_trace("common.csv.read", "rows");
    let csv = rec.busy_by_trace("common.csv.read");
    let pairs = rec.count_by_trace("fusion.block", "candidate_pairs");
    let merged = rec.count_by_trace("fusion.fuse", "rows_merged");
    let fused_in = rec.count_by_trace("fusion.fuse", "rows_in");
    let resolve: Vec<f64> = rec
        .busy_by_trace("fusion.cluster")
        .iter()
        .zip(rec.busy_by_trace("fusion.fuse"))
        .map(|(c, f)| c + f)
        .collect();
    let fixes = rec.count_by_trace("quality.repair", "fixes");
    // what `execute_mapping` spends outside the engine, on the same rules
    // and facts: its own time minus the engine's and the parser's
    let exec_self: Vec<f64> = execute
        .iter()
        .zip(&run)
        .zip(&parse)
        .map(|((e, r), p)| (e - r - p).max(0.0))
        .collect();

    b.extend("map.execute.self_s", exec_self);
    b.extend("map.execute.rows_per_s", ratio(&exec_rows, &execute));
    b.extend("datalog.run.facts_per_s", ratio(&derived, &run));
    b.extend("datalog.run.derived_facts", derived);
    b.extend("common.csv.rows_per_s", ratio(&csv_rows, &csv));
    b.extend("fusion.pair_hit_ratio", ratio(&merged, &pairs));
    b.extend("fusion.candidate_pairs", pairs);
    b.extend("fusion.rows_per_s", ratio(&fused_in, &resolve));
    b.extend("quality.repair.fixes", fixes);
}
