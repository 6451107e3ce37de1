//! Survivorship: collapsing duplicate clusters into single tuples.

use vada_common::{Relation, Result, Tuple, VadaError, Value};

/// Survivorship rule applied per cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Survivorship {
    /// Keep the single most complete row (fewest nulls; ties: first row).
    MostComplete,
    /// Per attribute: the most frequent non-null value (ties: value of the
    /// earliest contributing row).
    Majority,
    /// Per attribute: the non-null value from the most trusted row
    /// (`trust[row]`, higher wins; ties: earliest row).
    TrustWeighted,
}

/// What fusion did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionReport {
    /// Input rows.
    pub input_rows: usize,
    /// Output rows (clusters).
    pub output_rows: usize,
    /// Clusters with more than one member.
    pub merged_clusters: usize,
}

impl FusionReport {
    /// Rows removed by fusion.
    pub fn duplicates_removed(&self) -> usize {
        self.input_rows - self.output_rows
    }
}

/// The majority value of one attribute over a cluster's `(row, value)`
/// cells, in cluster order: nulls do not vote, most votes wins, a tie goes
/// to the value whose earliest contributing row comes first, and the
/// survivor is the winning value as the first member in cluster order
/// holds it. `votes` is scratch space, one entry per distinct value
/// (compared by `Value`'s `Eq`); clusters are small, so a linear scan
/// beats hashing.
fn majority<'v>(
    cells: impl Iterator<Item = (usize, &'v Value)>,
    votes: &mut Vec<(&'v Value, usize, usize)>,
) -> Value {
    votes.clear();
    for (row, v) in cells {
        if v.is_null() {
            continue;
        }
        match votes.iter_mut().find(|(seen, _, _)| *seen == v) {
            Some((_, n, first)) => {
                *n += 1;
                *first = (*first).min(row);
            }
            None => votes.push((v, 1, row)),
        }
    }
    votes
        .iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
        .map_or(Value::Null, |(v, _, _)| (*v).clone())
}

/// Fuse `rel`'s duplicate `clusters` into one tuple each.
///
/// `trust` supplies per-row trust scores for
/// [`Survivorship::TrustWeighted`] (uniform when `None`). An empty cluster,
/// a row index past the relation's end and a trust slice shorter than the
/// relation are errors naming the offender.
pub fn fuse_clusters(
    rel: &Relation,
    clusters: &[Vec<usize>],
    rule: Survivorship,
    trust: Option<&[f64]>,
) -> Result<(Relation, FusionReport)> {
    let tuples = rel.tuples();
    let arity = rel.schema().arity();
    if let (Survivorship::TrustWeighted, Some(trust)) = (rule, trust) {
        if trust.len() < tuples.len() {
            return Err(VadaError::Schema(format!(
                "{} trust score(s) for the {} row(s) of `{}`",
                trust.len(),
                tuples.len(),
                rel.name()
            )));
        }
    }
    let trust_of = |row: usize| trust.map_or(1.0, |t| t[row]);
    let mut fused: Vec<Tuple> = Vec::with_capacity(clusters.len());
    let mut merged = 0usize;
    // (value, votes, earliest contributing row), cleared per attribute
    let mut votes: Vec<(&Value, usize, usize)> = Vec::new();
    for (ci, cluster) in clusters.iter().enumerate() {
        if let Some(row) = cluster.iter().find(|&&r| r >= tuples.len()) {
            return Err(VadaError::Schema(format!(
                "cluster {ci} names row {row}, but `{}` has {} row(s)",
                rel.name(),
                tuples.len()
            )));
        }
        let tuple = match cluster.as_slice() {
            [] => return Err(VadaError::Other(format!("cluster {ci} is empty"))),
            // every rule keeps a lone row as it is
            [row] => tuples[*row].clone(),
            rows => {
                merged += 1;
                match rule {
                    Survivorship::MostComplete => {
                        let best = rows
                            .iter()
                            .copied()
                            .min_by_key(|&r| (tuples[r].null_count(), r))
                            .expect("the cluster has members");
                        tuples[best].clone()
                    }
                    Survivorship::Majority => (0..arity)
                        .map(|col| majority(rows.iter().map(|&r| (r, &tuples[r][col])), &mut votes))
                        .collect(),
                    Survivorship::TrustWeighted => (0..arity)
                        .map(|col| {
                            rows.iter()
                                .copied()
                                .filter(|&r| !tuples[r][col].is_null())
                                .max_by(|&a, &b| {
                                    trust_of(a).total_cmp(&trust_of(b)).then(b.cmp(&a))
                                })
                                .map_or(Value::Null, |r| tuples[r][col].clone())
                        })
                        .collect(),
                }
            }
        };
        fused.push(tuple);
    }
    let out = Relation::from_tuples(rel.schema().clone(), fused)?;
    let report = FusionReport {
        input_rows: rel.len(),
        output_rows: out.len(),
        merged_clusters: merged,
    };
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, Schema};

    fn rel() -> Relation {
        Relation::from_tuples(
            Schema::all_str("r", &["street", "price", "beds"]),
            vec![
                // cluster {0,1,2}: same property three ways
                Tuple::new(vec![Value::str("12 high st"), Value::str("250000"), Value::Null]),
                tuple!["12 high st", "250000", "3"],
                tuple!["12 hgih st", "250000", "3"],
                // cluster {3}
                tuple!["9 park rd", "400000", "2"],
            ],
        )
        .unwrap()
    }

    fn clusters() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2], vec![3]]
    }

    #[test]
    fn most_complete_picks_fullest_row() {
        let (fused, report) =
            fuse_clusters(&rel(), &clusters(), Survivorship::MostComplete, None).unwrap();
        assert_eq!(fused.len(), 2);
        assert_eq!(report.duplicates_removed(), 2);
        assert_eq!(report.merged_clusters, 1);
        // row 1 is complete and earliest among complete rows
        assert_eq!(fused.tuples()[0], rel().tuples()[1]);
    }

    #[test]
    fn majority_votes_per_attribute() {
        let (fused, _) = fuse_clusters(&rel(), &clusters(), Survivorship::Majority, None).unwrap();
        let t = &fused.tuples()[0];
        assert_eq!(t[0], Value::str("12 high st")); // 2-vs-1 over the typo
        assert_eq!(t[2], Value::str("3")); // nulls don't vote
    }

    #[test]
    fn trust_weighted_prefers_trusted_source() {
        let trust = vec![0.1, 0.2, 0.9, 0.5];
        let (fused, _) =
            fuse_clusters(&rel(), &clusters(), Survivorship::TrustWeighted, Some(&trust)).unwrap();
        // the typo'd row is most trusted: its street wins
        assert_eq!(fused.tuples()[0][0], Value::str("12 hgih st"));
    }

    #[test]
    fn singleton_clusters_pass_through() {
        let (fused, _) = fuse_clusters(&rel(), &clusters(), Survivorship::Majority, None).unwrap();
        assert_eq!(fused.tuples()[1], rel().tuples()[3]);
    }

    #[test]
    fn an_empty_cluster_is_an_error_naming_it() {
        for rule in [Survivorship::MostComplete, Survivorship::Majority, Survivorship::TrustWeighted] {
            let err = fuse_clusters(&rel(), &[vec![0, 1, 2], vec![], vec![3]], rule, None)
                .unwrap_err();
            assert!(err.message().contains("cluster 1 is empty"), "{rule:?}: {err}");
        }
    }

    #[test]
    fn a_row_past_the_end_is_an_error_naming_cluster_and_row() {
        for cluster in [vec![4], vec![0, 9]] {
            let bad = cluster[cluster.len() - 1];
            let err = fuse_clusters(&rel(), &[vec![3], cluster], Survivorship::Majority, None)
                .unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
            assert!(err.message().contains(&format!("cluster 1 names row {bad}")), "{err}");
        }
    }

    #[test]
    fn a_short_trust_slice_is_an_error() {
        let err = fuse_clusters(&rel(), &clusters(), Survivorship::TrustWeighted, Some(&[0.5; 3]))
            .unwrap_err();
        assert_eq!(err.kind(), "schema", "{err}");
        assert!(err.message().contains("3 trust score(s) for the 4 row(s)"), "{err}");
        // the rules that never read it do not mind
        fuse_clusters(&rel(), &clusters(), Survivorship::Majority, Some(&[0.5; 3])).unwrap();
    }

    #[test]
    fn missing_trust_is_uniform_so_the_earliest_value_wins() {
        let (fused, _) =
            fuse_clusters(&rel(), &clusters(), Survivorship::TrustWeighted, None).unwrap();
        let (uniform, _) =
            fuse_clusters(&rel(), &clusters(), Survivorship::TrustWeighted, Some(&[1.0; 4]))
                .unwrap();
        assert_eq!(fused.tuples(), uniform.tuples());
        assert_eq!(fused.tuples()[0][2], Value::str("3")); // row 0's null does not compete
    }

    #[test]
    fn all_null_column_stays_null() {
        let rel = Relation::from_tuples(
            Schema::all_str("r", &["a"]),
            vec![
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        let (fused, _) =
            fuse_clusters(&rel, &[vec![0, 1]], Survivorship::Majority, None).unwrap();
        assert!(fused.tuples()[0][0].is_null());
    }

    /// The majority rule as it was first written — a `HashMap` of value →
    /// (votes, earliest contributing row) per attribute — kept as the
    /// oracle for [`majority`].
    fn hashed_majority(rel: &Relation, rows: &[usize], col: usize) -> Value {
        let mut votes: std::collections::HashMap<&Value, (usize, usize)> = Default::default();
        for &r in rows {
            let v = &rel.tuples()[r][col];
            if v.is_null() {
                continue;
            }
            let e = votes.entry(v).or_insert((0, r));
            e.0 += 1;
            e.1 = e.1.min(r);
        }
        votes
            .iter()
            .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
            .map_or(Value::Null, |(v, _)| (*v).clone())
    }

    /// A value and its representation: `Int(3)` and `Float(3.0)` are equal
    /// under `Value`'s `Eq` and must survive as the member that holds the
    /// winner first, in cluster order.
    fn shape(v: &Value) -> (Value, &'static str) {
        let kind = match v {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        };
        (v.clone(), kind)
    }

    #[test]
    fn majority_survives_as_the_hashed_form_did_on_seeded_clusters() {
        let pool = [
            Value::Null,
            Value::Null,
            Value::Int(3),
            Value::Float(3.0),
            Value::Int(4),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Bool(true),
            Value::str("12 high st"),
            Value::str("12 hgih st"),
        ];
        for seed in 1..=40u64 {
            // xorshift64, seeded per case so a failure names its seed
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let n = 1 + next(40);
            let tuples: Vec<Tuple> =
                (0..n).map(|_| (0..3).map(|_| pool[next(pool.len())].clone()).collect()).collect();
            let rel =
                Relation::from_tuples(Schema::all_str("r", &["a", "b", "c"]), tuples).unwrap();
            // clusters of every size, members out of row order
            let mut rows: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                rows.swap(i, next(i + 1));
            }
            let mut clusters = Vec::new();
            while !rows.is_empty() {
                let size = (1 + next(8)).min(rows.len());
                clusters.push(rows.drain(..size).collect::<Vec<_>>());
            }
            let (fused, _) = fuse_clusters(&rel, &clusters, Survivorship::Majority, None).unwrap();
            for (cluster, got) in clusters.iter().zip(fused.tuples()) {
                for col in 0..3 {
                    let want = match cluster.as_slice() {
                        [row] => rel.tuples()[*row][col].clone(),
                        rows => hashed_majority(&rel, rows, col),
                    };
                    assert_eq!(
                        shape(&got[col]),
                        shape(&want),
                        "seed {seed}, {cluster:?}, col {col}"
                    );
                }
            }
        }
    }
}
