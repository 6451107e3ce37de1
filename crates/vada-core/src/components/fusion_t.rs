//! Fusion transducers: duplicate detection, then data fusion — split in
//! two exactly as the paper sketches ("a data fusion transducer may start
//! to evaluate when duplicates have been detected").

use vada_common::{AttrType, Relation, Result, Schema, Value};
use vada_fusion::{
    cluster_relation, fuse_clusters, ClusterConfig, FieldKind, FieldSpec, Survivorship,
};
use vada_kb::KnowledgeBase;

use crate::transducer::{Activity, RunOutcome, Transducer};

/// Name of the intermediate relation carrying detected clusters.
pub const CLUSTERS_REL: &str = "duplicate_clusters";

/// Build a sensible field-comparison spec for a result schema: street-like
/// text heavy, numeric attributes numeric, postcode exact, long text
/// ignored.
fn field_spec_for(schema: &Schema) -> Vec<FieldSpec> {
    let mut out = Vec::new();
    for (i, a) in schema.attributes().iter().enumerate() {
        let spec = match a.name.as_str() {
            "description" => None, // free text: too noisy for identity
            "postcode" => Some((2.0, FieldKind::Exact)),
            "street" => Some((3.0, FieldKind::Text)),
            _ => match a.ty {
                AttrType::Int | AttrType::Float => Some((1.0, FieldKind::Numeric)),
                _ => Some((1.0, FieldKind::Text)),
            },
        };
        if let Some((weight, kind)) = spec {
            out.push(FieldSpec { col: i, weight, kind });
        }
    }
    out
}

/// Detect duplicate clusters in the result relation and publish them as
/// the intermediate `duplicate_clusters(cluster, row)` relation.
#[derive(Debug)]
pub struct DuplicateDetection {
    /// Pair-similarity threshold.
    pub threshold: f64,
}

impl Default for DuplicateDetection {
    fn default() -> Self {
        DuplicateDetection { threshold: 0.88 }
    }
}

impl Transducer for DuplicateDetection {
    fn name(&self) -> &str {
        "duplicate_detection"
    }

    fn activity(&self) -> Activity {
        Activity::Fusion
    }

    fn input_dependency(&self) -> &str {
        "result_available(_)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["result"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .expect("result implies target")
            .name
            .clone();
        let result = kb.relation(&target)?;
        let block_key = if result.schema().index_of("postcode").is_some() {
            "postcode".to_string()
        } else {
            result.schema().attr(0).name.clone()
        };
        let cfg = ClusterConfig {
            block_keys: vec![block_key],
            fields: field_spec_for(result.schema()),
            threshold: self.threshold,
        };
        let clusters = cluster_relation(&cfg, result)?;
        let non_singleton: Vec<&Vec<usize>> =
            clusters.iter().filter(|c| c.len() > 1).collect();
        if non_singleton.is_empty() {
            kb.remove_intermediate(CLUSTERS_REL);
            return Ok(RunOutcome::noop("no duplicates detected"));
        }
        let mut rel = Relation::empty(
            Schema::new(CLUSTERS_REL, [("cluster", AttrType::Int), ("row", AttrType::Int)])
                .expect("static schema"),
        );
        for (ci, cluster) in non_singleton.iter().enumerate() {
            for &row in cluster.iter() {
                rel.push([Value::Int(ci as i64), Value::Int(row as i64)].into_iter().collect())?;
            }
        }
        let n = non_singleton.len();
        kb.put_intermediate(rel);
        Ok(RunOutcome::new(format!("{n} duplicate cluster(s)"), n))
    }
}

/// Fuse detected duplicate clusters into single tuples (survivorship) and
/// replace the result.
#[derive(Debug)]
pub struct DataFusion {
    /// Survivorship rule.
    pub rule: Survivorship,
}

impl Default for DataFusion {
    fn default() -> Self {
        DataFusion { rule: Survivorship::Majority }
    }
}

impl Transducer for DataFusion {
    fn name(&self) -> &str {
        "data_fusion"
    }

    fn activity(&self) -> Activity {
        Activity::Fusion
    }

    fn input_dependency(&self) -> &str {
        r#"relation("duplicate_clusters", "intermediate", N), N > 0"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["intermediates"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .expect("clusters imply a result")
            .name
            .clone();
        let result = kb.relation(&target)?;
        let clusters_rel = kb.relation(CLUSTERS_REL)?;
        // rebuild cluster lists; add singletons for uncovered rows
        let mut clusters: std::collections::BTreeMap<i64, Vec<usize>> = Default::default();
        let mut covered = vec![false; result.len()];
        for t in clusters_rel.iter() {
            let (Some(c), Some(r)) = (t[0].as_int(), t[1].as_int()) else {
                continue;
            };
            let row = r as usize;
            if row < result.len() {
                clusters.entry(c).or_default().push(row);
                covered[row] = true;
            }
        }
        let mut all: Vec<Vec<usize>> = clusters.into_values().collect();
        for (row, c) in covered.iter().enumerate() {
            if !c {
                all.push(vec![row]);
            }
        }
        all.sort_by_key(|c| c[0]);
        let (fused, report) = fuse_clusters(result, &all, self.rule, None)?;
        kb.remove_intermediate(CLUSTERS_REL);
        let removed = report.duplicates_removed();
        if removed == 0 {
            return Ok(RunOutcome::noop("clusters contained no duplicates"));
        }
        kb.put_result(fused);
        Ok(RunOutcome::new(
            format!(
                "fused {} cluster(s), removed {removed} duplicate row(s)",
                report.merged_clusters
            ),
            removed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn kb_with_result() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let schema = Schema::new(
            "property",
            [
                ("street", AttrType::Str),
                ("postcode", AttrType::Str),
                ("price", AttrType::Int),
            ],
        )
        .unwrap();
        kb.register_target_schema(schema.clone());
        let mut result = Relation::empty(schema);
        result.push(tuple!["12 high st", "M1 1AA", 250000]).unwrap();
        result.push(tuple!["12 High st", "M1 1AA", 250000]).unwrap();
        result.push(tuple!["9 park rd", "EH1 1AA", 400000]).unwrap();
        kb.put_result(result);
        kb
    }

    #[test]
    fn detection_then_fusion_removes_duplicates() {
        let mut kb = kb_with_result();
        let mut det = DuplicateDetection::default();
        assert!(det.ready(&kb).unwrap());
        let out = det.run(&mut kb).unwrap();
        assert_eq!(out.writes, 1, "{}", out.summary);
        assert!(kb.relation(CLUSTERS_REL).is_ok());

        let mut fuse = DataFusion::default();
        assert!(fuse.ready(&kb).unwrap());
        let out = fuse.run(&mut kb).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(kb.relation("property").unwrap().len(), 2);
        // clusters consumed
        assert!(kb.relation(CLUSTERS_REL).is_err());
        assert!(!fuse.ready(&kb).unwrap());
    }

    #[test]
    fn clean_result_detects_nothing() {
        let mut kb = kb_with_result();
        // dedup first
        let mut det = DuplicateDetection::default();
        det.run(&mut kb).unwrap();
        DataFusion::default().run(&mut kb).unwrap();
        // second detection pass: nothing
        let out = det.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0, "{}", out.summary);
    }

    #[test]
    fn field_spec_skips_description() {
        let schema = Schema::new(
            "property",
            [
                ("street", AttrType::Str),
                ("description", AttrType::Str),
                ("price", AttrType::Int),
            ],
        )
        .unwrap();
        let spec = field_spec_for(&schema);
        assert_eq!(spec.len(), 2);
        assert!(spec.iter().all(|f| f.col != 1));
    }
}
