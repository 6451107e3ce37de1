//! Fusion transducers: duplicate detection, then data fusion — split in
//! two exactly as the paper sketches ("a data fusion transducer may start
//! to evaluate when duplicates have been detected").
//!
//! Both work on the result row by row. Fusion writes only the rows it
//! changes — each merged cluster's first row becomes its survivor, the
//! other members are removed — and detection keeps each block's clusters
//! between runs, re-scoring only the blocks the result's row edits since
//! its last run touched — mapping execution's diff among them, which
//! removes and re-inserts whole blocks. A relation-level change to the
//! result (mapping execution's whole put) or a new configuration makes
//! detection score every block, through the same code. The blocking
//! attribute comes from `locality`, which mapping execution reads too.

use std::collections::BTreeMap;

use vada_common::obs::key as obs_key;
use vada_common::{AttrType, Relation, Result, Schema, Tuple, Value};
use vada_fusion::{
    fuse_clusters, BlockClusters, ClusterConfig, FieldKind, FieldSpec, Survivorship,
};
use vada_kb::{JournalMark, KnowledgeBase};

use crate::components::follow::follow;
use crate::components::locality::block_attr;
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
///
/// Keeps the result's blocks and their clusters ([`BlockClusters`]) with
/// the target and configuration they were built under and the journal
/// mark they are current at. A run under the same target and
/// configuration follows the result's row edits since that mark and
/// re-scores only the blocks they touched; any other run, or one the
/// journal cannot vouch for, scores every block. Either way it publishes
/// exactly the clusters `cluster_relation` finds on the result.
#[derive(Debug)]
pub struct DuplicateDetection {
    /// Pair-similarity threshold.
    pub threshold: f64,
    kept: Option<KeptClusters>,
}

/// What [`DuplicateDetection`] keeps between runs.
#[derive(Debug)]
struct KeptClusters {
    target: String,
    cfg: ClusterConfig,
    mark: JournalMark,
    clusters: BlockClusters,
}

impl Default for DuplicateDetection {
    fn default() -> Self {
        DuplicateDetection { threshold: 0.88, kept: None }
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
        let cfg = ClusterConfig {
            block_keys: vec![block_attr(result.schema()).to_string()],
            fields: field_spec_for(result.schema()),
            threshold: self.threshold,
        };
        // taken out, so a failed refresh leaves nothing kept; every row is
        // blocked afresh unless the journal vouches for the row edits
        let mut clusters = match self.kept.take() {
            Some(KeptClusters { target: kept_target, cfg: kept_cfg, mark, mut clusters })
                if kept_target == target && kept_cfg == cfg =>
            {
                if !follow(kb, &mark, &target, &mut clusters) {
                    clusters.reset(result.len());
                }
                clusters
            }
            _ => {
                let mut fresh = BlockClusters::default();
                fresh.reset(result.len());
                fresh
            }
        };
        let refreshed = clusters.refresh(&cfg, result)?;
        kb.obs().add(obs_key::FUSION_BLOCKS_SCORED, refreshed.blocks_scored as u64);
        // the mark follows the result, which publishing below leaves alone
        self.kept = Some(KeptClusters { target, cfg, mark: kb.mark(), clusters });
        if refreshed.clusters.is_empty() {
            kb.remove_intermediate(CLUSTERS_REL);
            return Ok(RunOutcome::noop("no duplicates detected"));
        }
        let mut rel = Relation::empty(
            Schema::new(CLUSTERS_REL, [("cluster", AttrType::Int), ("row", AttrType::Int)])
                .expect("static schema"),
        );
        for (ci, cluster) in refreshed.clusters.iter().enumerate() {
            for &row in cluster.iter() {
                rel.push([Value::Int(ci as i64), Value::Int(row as i64)].into_iter().collect())?;
            }
        }
        let n = refreshed.clusters.len();
        kb.put_intermediate(rel);
        Ok(RunOutcome::new(format!("{n} duplicate cluster(s)"), n))
    }
}

/// Fuse detected duplicate clusters into single tuples (survivorship),
/// editing the result in place: each merged cluster's first row is
/// rewritten to its survivor where the two differ, then the cluster's
/// other rows are removed — the relation `fuse_clusters` returns, written
/// as at most two row-level edits.
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
        let merged = merged_clusters(kb.relation(CLUSTERS_REL)?, result.len());
        let (survivors, report) = fuse_clusters(result, &merged, self.rule, None)?;
        // a survivor equal to its cluster's first row leaves that row as it is
        let survivors: Vec<(usize, Tuple)> = merged
            .iter()
            .map(|c| c[0])
            .zip(survivors.tuples().iter().cloned())
            .filter(|(row, survivor)| result.tuples()[*row] != *survivor)
            .collect();
        let duplicates: Vec<usize> = merged.iter().flat_map(|c| c[1..].iter().copied()).collect();
        kb.remove_intermediate(CLUSTERS_REL);
        if duplicates.is_empty() {
            return Ok(RunOutcome::noop("clusters contained no duplicates"));
        }
        kb.update_source(&target, &survivors)?;
        let removed = kb.remove_rows(&target, &duplicates)?.len();
        Ok(RunOutcome::new(
            format!(
                "fused {} cluster(s), removed {removed} duplicate row(s)",
                report.merged_clusters
            ),
            removed,
        ))
    }
}

/// The clusters of two or more result rows in `duplicate_clusters(cluster,
/// row)`, each ascending, in cluster order; rows past the result's `len`
/// rows are dropped.
fn merged_clusters(clusters_rel: &Relation, len: usize) -> Vec<Vec<usize>> {
    let mut clusters: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for t in clusters_rel.iter() {
        let (Some(c), Some(r)) = (t[0].as_int(), t[1].as_int()) else {
            continue;
        };
        if (r as usize) < len {
            clusters.entry(c).or_default().push(r as usize);
        }
    }
    clusters
        .into_values()
        .filter(|c| c.len() > 1)
        .map(|mut c| {
            c.sort_unstable();
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;
    use vada_kb::{DeltaChange, Since};

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

    /// Run `det` on `kb` and a fresh detector with its threshold on a copy:
    /// the same outcome and the same published clusters. Returns the
    /// blocks `det` scored.
    fn detect_as_fresh(det: &mut DuplicateDetection, kb: &mut KnowledgeBase) -> u64 {
        let mut copy = kb.clone();
        let want = DuplicateDetection { threshold: det.threshold, ..Default::default() }
            .run(&mut copy)
            .unwrap();
        let before = kb.obs().get(obs_key::FUSION_BLOCKS_SCORED);
        let got = det.run(kb).unwrap();
        assert_eq!((&got.summary, got.writes), (&want.summary, want.writes));
        let clusters =
            |kb: &KnowledgeBase| kb.relation(CLUSTERS_REL).ok().map(|r| r.tuples().to_vec());
        assert_eq!(clusters(kb), clusters(&copy));
        kb.obs().get(obs_key::FUSION_BLOCKS_SCORED) - before
    }

    fn listing(street: &str, postcode: &str, price: i64) -> Tuple {
        tuple![street, postcode, price]
    }

    #[test]
    fn detection_follows_appends_removals_and_rewrites() {
        let mut kb = kb_with_result();
        kb.set_obs(vada_common::Obs::enabled());
        let mut det = DuplicateDetection::default();
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 1, "one block holds a pair");
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 0, "nothing edited, nothing scored");

        // an append into the park road block: that block alone
        let mut grown = kb.relation("property").unwrap().clone();
        grown.push(listing("9 Park Rd", "EH1 1AA", 400000)).unwrap();
        grown.push(listing("1 mill ln", "G1 1AA", 90000)).unwrap();
        kb.put_result(grown);
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 1);
        assert_eq!(kb.relation(CLUSTERS_REL).unwrap().len(), 4);

        // a removal shifts the park road pair; its block lost a row
        kb.remove_rows("property", &[0]).unwrap();
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 0, "M1 1AA keeps one row");

        // a rewrite moves the mill lane row into the high street block:
        // the block it left is empty, the one it joined is scored
        kb.update_source("property", &[(3, listing("12 high st", "M1 1AA", 250000))]).unwrap();
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 1);

        // a relation-level write or another threshold scores every block
        let rows = kb.relation("property").unwrap().tuples().to_vec();
        let mut replaced = Relation::empty(kb.relation("property").unwrap().schema().clone());
        replaced.extend(rows.into_iter().rev()).unwrap();
        kb.put_result(replaced);
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 2);
        det.threshold = 0.5;
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 2);
        assert_eq!(detect_as_fresh(&mut det, &mut kb), 0);
    }

    #[test]
    fn fusion_writes_the_relation_fuse_clusters_returns_as_row_edits() {
        let mut kb = kb_with_result();
        let schema = kb.relation("property").unwrap().schema().clone();
        let rows = vec![
            tuple!["12 high st", "M1 1AA", Value::Null],
            listing("12 High st", "M1 1AA", 250000),
            listing("9 park rd", "EH1 1AA", 400000),
            listing("9 park road", "EH1 1AA", 410000),
            listing("12 high st", "M1 1AA", 250000),
            listing("4 elm st", "G1 1AA", 1),
        ];
        kb.put_result(Relation::from_tuples(schema, rows).unwrap());
        DuplicateDetection { threshold: 0.8, ..Default::default() }.run(&mut kb).unwrap();

        // what fusion wrote before it edited rows: every cluster, singletons
        // included, fused in order of its first row
        let result = kb.relation("property").unwrap().clone();
        let mut clusters = merged_clusters(kb.relation(CLUSTERS_REL).unwrap(), result.len());
        assert_eq!(clusters, vec![vec![0, 1, 4], vec![2, 3]]);
        let covered: Vec<usize> = clusters.iter().flatten().copied().collect();
        clusters.extend((0..result.len()).filter(|r| !covered.contains(r)).map(|r| vec![r]));
        clusters.sort_by_key(|c| c[0]);
        let (want, _) = fuse_clusters(&result, &clusters, Survivorship::Majority, None).unwrap();

        let mark = kb.mark();
        let out = DataFusion::default().run(&mut kb).unwrap();
        assert_eq!(out.writes, 3, "{}", out.summary);
        assert_eq!(kb.relation("property").unwrap().tuples(), want.tuples());
        let Since::Rows(events) = kb.since(&mark, &["property"]) else {
            panic!("fusion writes row-level edits");
        };
        let shapes: Vec<_> = events
            .iter()
            .map(|e| match &e.change {
                DeltaChange::RowsReplaced { positions, .. } => ("replaced", positions.clone()),
                DeltaChange::RowsRemoved { positions, .. } => ("removed", positions.clone()),
                other => panic!("not a row edit: {other:?}"),
            })
            .collect();
        // the park road pair's first row is already its survivor
        assert_eq!(shapes, vec![("replaced", vec![0]), ("removed", vec![1, 3, 4])]);
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
