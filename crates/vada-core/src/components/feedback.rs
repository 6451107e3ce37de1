//! Feedback transducers (paper §2.3): turning the user's correct/incorrect
//! annotations into (a) durable value vetoes applied to the result and (b)
//! revised match scores that can re-open mapping generation.

use std::collections::{HashMap, HashSet};

use vada_common::{Relation, Result, Tuple, Value};
use vada_kb::{CellVeto, FeedbackTarget, KnowledgeBase, Verdict};

use crate::transducer::{Activity, RunOutcome, Transducer};

/// Key attributes used to identify a logical row across
/// re-materialisations (street + postcode in the scenario; falls back to
/// all attributes when absent).
fn key_attrs(rel: &Relation) -> Vec<String> {
    let preferred: Vec<String> = ["street", "postcode"]
        .iter()
        .filter(|a| rel.schema().index_of(a).is_some())
        .map(|a| a.to_string())
        .collect();
    if !preferred.is_empty() {
        return preferred;
    }
    rel.schema().attr_names().iter().map(|s| s.to_string()).collect()
}

/// Apply vetoes to a relation: null vetoed cells, drop vetoed rows.
/// Returns the number of cells/rows changed.
pub fn apply_vetoes(rel: &mut Relation, vetoes: &[CellVeto]) -> usize {
    veto_rows(rel, vetoes).0
}

/// [`apply_vetoes`], also returning the rows it dropped, as they stood
/// before the drop, ascending.
pub(crate) fn veto_rows(rel: &mut Relation, vetoes: &[CellVeto]) -> (usize, Vec<usize>) {
    let Vetoed { changes, dropped, .. } = null_vetoed_cells(rel, vetoes);
    if !dropped.is_empty() {
        let mut gone = dropped.iter().copied().peekable();
        let mut row = 0usize;
        rel.retain(|_| {
            let keep = gone.next_if_eq(&row).is_none();
            row += 1;
            keep
        });
    }
    (changes, dropped)
}

/// What vetoes did to a relation, its vetoed rows not yet dropped.
struct Vetoed {
    /// Cells nulled plus rows vetoed.
    changes: usize,
    /// Rows with a cell nulled, ascending, each once (dropped ones too).
    nulled: Vec<usize>,
    /// Rows vetoed whole, ascending.
    dropped: Vec<usize>,
}

/// The vetoes keyed on one list of key columns, as `(first key value, veto
/// index)`, sorted: the vetoes a row can meet are the run holding its value
/// in the first column, in veto order. A list of no columns keys every row.
struct KeyList<'v> {
    cols: Vec<usize>,
    vetoes: Vec<(Option<&'v Value>, usize)>,
}

/// Null vetoed cells in place and collect the rows vetoed whole, every
/// veto reading the rows as the vetoes before it left them. A veto changes
/// only the rows its key matches, so each row takes the vetoes in order on
/// its own: the vetoes are sorted by their first key value, and a row
/// meets only those whose first key value it holds — as the vetoes before
/// left it. The cost is the rows times the logarithm of the vetoes, plus
/// the matches, not rows times vetoes.
fn null_vetoed_cells(rel: &mut Relation, vetoes: &[CellVeto]) -> Vetoed {
    let mut vetoed = Vetoed { changes: 0, nulled: Vec::new(), dropped: Vec::new() };
    let mut lists: Vec<KeyList> = Vec::new();
    for (v, veto) in vetoes.iter().enumerate() {
        // a veto naming an attribute the relation lacks vetoes nothing
        let Some(cols) =
            veto.key.iter().map(|(a, _)| rel.schema().index_of(a)).collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let list = match lists.iter().position(|l| l.cols == cols) {
            Some(list) => list,
            None => {
                lists.push(KeyList { cols, vetoes: Vec::new() });
                lists.len() - 1
            }
        };
        lists[list].vetoes.push((veto.key.first().map(|(_, value)| value), v));
    }
    if lists.is_empty() {
        return vetoed;
    }
    for list in &mut lists {
        list.vetoes.sort();
    }
    for row in 0..rel.len() {
        let mut next = 0;
        // the first veto from `next` on whose first key value the row holds
        while let Some(v) = lists
            .iter()
            .filter_map(|list| {
                let first = list.cols.first().map(|&c| &rel.tuples()[row][c]);
                let at = list.vetoes.partition_point(|&keyed| keyed < (first, next));
                list.vetoes.get(at).filter(|(value, _)| *value == first).map(|&(_, v)| v)
            })
            .min()
        {
            next = v + 1;
            let veto = &vetoes[v];
            let t = &rel.tuples()[row];
            let holds = veto
                .key
                .iter()
                .all(|(a, value)| rel.schema().index_of(a).is_some_and(|c| t[c] == *value));
            if !holds {
                continue;
            }
            let Some(attr) = &veto.attr else {
                vetoed.dropped.push(row);
                vetoed.changes += 1;
                break;
            };
            let Some(col) = rel.schema().index_of(attr) else { continue };
            let cell = &t[col];
            if cell.is_null() || veto.value.as_ref().is_some_and(|v| v != cell) {
                continue;
            }
            let fixed = t.with_value(col, Value::Null);
            rel.replace(row, fixed).expect("same arity");
            if vetoed.nulled.last() != Some(&row) {
                vetoed.nulled.push(row);
            }
            vetoed.changes += 1;
        }
    }
    vetoed
}

/// Convert fresh feedback annotations into durable vetoes and apply them
/// to the current result, writing only the rows they change: the rows with
/// a nulled cell as one row-level rewrite, the vetoed rows as one removal.
#[derive(Debug, Default)]
pub struct FeedbackRepair {
    processed: HashSet<String>,
}

impl Transducer for FeedbackRepair {
    fn name(&self) -> &str {
        "feedback_repair"
    }

    fn activity(&self) -> Activity {
        Activity::Feedback
    }

    fn input_dependency(&self) -> &str {
        r#"feedback(_, _, _, _, _, "incorrect"), result_available(_)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["feedback"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = match kb.target_schema() {
            Some(t) => t.name.clone(),
            None => return Ok(RunOutcome::noop("no target")),
        };
        let result = kb.relation(&target)?.clone();
        let keys = key_attrs(&result);
        let mut new_vetoes: Vec<CellVeto> = Vec::new();
        for f in kb.feedback().to_vec() {
            if self.processed.contains(&f.id) || f.verdict != Verdict::Incorrect {
                self.processed.insert(f.id.clone());
                continue;
            }
            self.processed.insert(f.id.clone());
            let (row, attr) = match &f.target {
                FeedbackTarget::Tuple { relation, row } if *relation == target => (*row, None),
                FeedbackTarget::Attribute { relation, row, attr } if *relation == target => {
                    (*row, Some(attr.clone()))
                }
                _ => continue,
            };
            if row >= result.len() {
                continue; // stale annotation from an older materialisation
            }
            let t = &result.tuples()[row];
            let key: Vec<(String, Value)> = keys
                .iter()
                .map(|a| {
                    let i = result.schema().index_of(a).expect("key attrs exist");
                    (a.clone(), t[i].clone())
                })
                .collect();
            let value = attr.as_ref().and_then(|a| {
                result
                    .schema()
                    .index_of(a)
                    .map(|i| t[i].clone())
                    .filter(|v| !v.is_null())
            });
            new_vetoes.push(CellVeto { key, attr, value });
        }
        if new_vetoes.is_empty() {
            return Ok(RunOutcome::noop("no fresh incorrect annotations"));
        }
        let mut repaired = result;
        let Vetoed { changes: changed, nulled, dropped } =
            null_vetoed_cells(&mut repaired, &new_vetoes);
        let n = new_vetoes.len();
        for v in new_vetoes {
            kb.add_veto(v);
        }
        let rewritten: Vec<(usize, Tuple)> = nulled
            .into_iter()
            .filter(|row| dropped.binary_search(row).is_err())
            .map(|row| (row, repaired.tuples()[row].clone()))
            .collect();
        kb.update_source(&target, &rewritten)?;
        kb.remove_rows(&target, &dropped)?;
        Ok(RunOutcome::new(
            format!("{n} vetoes recorded, {changed} cells/rows changed"),
            changed.max(n),
        ))
    }
}

/// Revise match scores from aggregate feedback (paper §2.3: "a mapping
/// evaluation transducer ... may identify a problem with a specific match
/// used within the mapping, and revise the score of that match").
#[derive(Debug)]
pub struct MappingEvaluation {
    processed: HashSet<String>,
    /// Minimum annotations on an attribute before judging it.
    pub min_annotations: usize,
    /// Error rate at and above which the contributing match is penalised.
    pub error_threshold: f64,
}

impl Default for MappingEvaluation {
    fn default() -> Self {
        MappingEvaluation {
            processed: HashSet::new(),
            min_annotations: 3,
            error_threshold: 0.3,
        }
    }
}

impl Transducer for MappingEvaluation {
    fn name(&self) -> &str {
        "mapping_evaluation"
    }

    fn activity(&self) -> Activity {
        Activity::Feedback
    }

    fn input_dependency(&self) -> &str {
        r#"feedback(_, "attribute", _, _, _, _), selected_mapping(_)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["feedback"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        // error rates per attribute over *fresh* attribute annotations
        let mut counts: HashMap<String, (usize, usize)> = HashMap::new(); // attr -> (incorrect, total)
        for f in kb.feedback().to_vec() {
            if !self.processed.insert(f.id.clone()) {
                continue;
            }
            if let FeedbackTarget::Attribute { attr, .. } = &f.target {
                let e = counts.entry(attr.clone()).or_default();
                e.1 += 1;
                if f.verdict == Verdict::Incorrect {
                    e.0 += 1;
                }
            }
        }
        if counts.is_empty() {
            return Ok(RunOutcome::noop("no fresh attribute annotations"));
        }
        let selected = kb
            .selected_mapping()
            .expect("dependency guarantees selection")
            .to_string();
        let matches_used = kb
            .get_mapping(&selected)
            .map(|m| m.matches_used.clone())
            .unwrap_or_default();
        let mut revised = 0usize;
        let mut notes = Vec::new();
        for (attr, (incorrect, total)) in &counts {
            if *total < self.min_annotations {
                continue;
            }
            let rate = *incorrect as f64 / *total as f64;
            if rate < self.error_threshold {
                continue;
            }
            // penalise every match feeding this attribute in the selected
            // mapping
            let targets: Vec<(String, f64)> = kb
                .matches()
                .filter(|m| m.tgt_attr == *attr && matches_used.contains(&m.id))
                .map(|m| (m.id.clone(), m.score))
                .collect();
            for (id, score) in targets {
                let new_score = score * (1.0 - rate);
                kb.set_match_score(&id, new_score)?;
                notes.push(format!("{id}: {score:.2}->{new_score:.2}"));
                revised += 1;
            }
        }
        if revised == 0 {
            return Ok(RunOutcome::noop("feedback below revision thresholds"));
        }
        Ok(RunOutcome::new(
            format!("revised {revised} match score(s): {}", notes.join(", ")),
            revised,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Schema};
    use vada_kb::{FeedbackRecord, MappingDef, MatchDef};

    fn kb_with_result() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let schema = Schema::new(
            "property",
            [
                ("street", AttrType::Str),
                ("postcode", AttrType::Str),
                ("bedrooms", AttrType::Int),
            ],
        )
        .unwrap();
        kb.register_target_schema(schema.clone());
        let mut result = Relation::empty(schema);
        result.push(tuple!["1 high st", "M1 1AA", 18]).unwrap(); // area error
        result.push(tuple!["2 park rd", "M1 1AB", 3]).unwrap();
        kb.put_result(result);
        kb
    }

    /// The veto application the key index replaced, kept as the oracle:
    /// every veto scans every row.
    fn nested_loop(rel: &mut Relation, vetoes: &[CellVeto]) -> (usize, Vec<usize>, Vec<usize>) {
        let (mut changes, mut nulled, mut dropped) = (0, Vec::new(), HashSet::new());
        for veto in vetoes {
            let key_cols: Option<Vec<(usize, &Value)>> = veto
                .key
                .iter()
                .map(|(a, v)| rel.schema().index_of(a).map(|i| (i, v)))
                .collect();
            let Some(key_cols) = key_cols else { continue };
            for row in 0..rel.len() {
                if dropped.contains(&row) {
                    continue;
                }
                let t = &rel.tuples()[row];
                if !key_cols.iter().all(|(i, v)| &t[*i] == *v) {
                    continue;
                }
                match &veto.attr {
                    None => {
                        dropped.insert(row);
                        changes += 1;
                    }
                    Some(attr) => {
                        let Some(col) = rel.schema().index_of(attr) else { continue };
                        let cell = &t[col];
                        if cell.is_null() {
                            continue;
                        }
                        if veto.value.as_ref().is_none_or(|v| v == cell) {
                            let fixed = t.with_value(col, Value::Null);
                            rel.replace(row, fixed).expect("same arity");
                            nulled.push(row);
                            changes += 1;
                        }
                    }
                }
            }
        }
        nulled.sort_unstable();
        nulled.dedup();
        let mut dropped: Vec<usize> = dropped.into_iter().collect();
        dropped.sort_unstable();
        (changes, nulled, dropped)
    }

    #[test]
    fn indexed_vetoes_match_the_nested_loop_on_seeded_relations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // few values, so keys collide and vetoes overlap; ints and floats
        // that `Eq` unifies; nulls in keys, so a veto keyed on a null
        // matches the rows an earlier veto nulled
        let values = [
            Value::Null,
            Value::str("a"),
            Value::str("b"),
            Value::Int(3),
            Value::Float(3.0),
        ];
        let attrs = ["street", "postcode", "price", "beds"];
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pick = |rng: &mut StdRng| values[rng.gen_range(0..values.len())].clone();
            let schema = Schema::all_str("property", &attrs);
            let rows: Vec<Tuple> = (0..rng.gen_range(0..40))
                .map(|_| (0..attrs.len()).map(|_| pick(&mut rng)).collect())
                .collect();
            let rel = Relation::from_tuples(schema, rows).unwrap();
            let vetoes: Vec<CellVeto> = (0..rng.gen_range(0..12))
                .map(|_| {
                    // key lists of one or two attributes, in either order,
                    // now and then one the relation lacks
                    let mut key: Vec<(String, Value)> = Vec::new();
                    for _ in 0..rng.gen_range(1..3) {
                        let attr = match rng.gen_range(0..12) {
                            0 => "district",
                            n => attrs[n % 2],
                        };
                        if key.iter().all(|(a, _)| a != attr) {
                            key.push((attr.to_string(), pick(&mut rng)));
                        }
                    }
                    let attr = match rng.gen_range(0..6) {
                        0 => None,
                        1 => Some("missing".to_string()),
                        n => Some(attrs[n % attrs.len()].to_string()),
                    };
                    let value = rng.gen_bool(0.5).then(|| pick(&mut rng));
                    CellVeto { key, attr, value }
                })
                .collect();
            let mut want = rel.clone();
            let (changes, nulled, dropped) = nested_loop(&mut want, &vetoes);
            let mut got = rel.clone();
            let vetoed = null_vetoed_cells(&mut got, &vetoes);
            let context = format!("seed {seed}: {vetoes:?}");
            assert_eq!(got.tuples(), want.tuples(), "{context}");
            assert_eq!(vetoed.changes, changes, "{context}");
            assert_eq!(vetoed.nulled, nulled, "{context}");
            assert_eq!(vetoed.dropped, dropped, "{context}");
            // and applied: the same rows dropped, the same count
            let mut applied = rel.clone();
            assert_eq!(apply_vetoes(&mut applied, &vetoes), changes, "{context}");
            let kept: Vec<Tuple> = (0..want.len())
                .filter(|row| dropped.binary_search(row).is_err())
                .map(|row| want.tuples()[row].clone())
                .collect();
            assert_eq!(applied.tuples(), kept.as_slice(), "{context}");
        }
    }

    #[test]
    fn apply_vetoes_nulls_cells_and_drops_rows() {
        let mut kb = kb_with_result();
        let mut rel = kb.relation("property").unwrap().clone();
        let changed = apply_vetoes(
            &mut rel,
            &[
                CellVeto {
                    key: vec![
                        ("street".into(), Value::str("1 high st")),
                        ("postcode".into(), Value::str("M1 1AA")),
                    ],
                    attr: Some("bedrooms".into()),
                    value: Some(Value::Int(18)),
                },
                CellVeto {
                    key: vec![
                        ("street".into(), Value::str("2 park rd")),
                        ("postcode".into(), Value::str("M1 1AB")),
                    ],
                    attr: None,
                    value: None,
                },
            ],
        );
        assert_eq!(changed, 2);
        assert_eq!(rel.len(), 1);
        assert!(rel.tuples()[0][2].is_null());
        kb.put_result(rel);
    }

    #[test]
    fn feedback_repair_records_durable_vetoes() {
        let mut kb = kb_with_result();
        kb.add_feedback(FeedbackRecord {
            id: "f0".into(),
            target: FeedbackTarget::Attribute {
                relation: "property".into(),
                row: 0,
                attr: "bedrooms".into(),
            },
            verdict: Verdict::Incorrect,
        });
        let mut t = FeedbackRepair::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert!(out.writes > 0);
        assert!(kb.relation("property").unwrap().tuples()[0][2].is_null());
        assert_eq!(kb.vetoes().len(), 1);
        // re-running does nothing new
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);
        // a re-materialised result with the same wrong value gets re-vetoed
        let mut rebuilt = Relation::empty(kb.target_schema().unwrap().clone());
        rebuilt.push(tuple!["1 high st", "M1 1AA", 18]).unwrap();
        let changed = apply_vetoes(&mut rebuilt, kb.vetoes());
        assert_eq!(changed, 1);
        assert!(rebuilt.tuples()[0][2].is_null());
    }

    #[test]
    fn correct_verdicts_produce_no_vetoes() {
        let mut kb = kb_with_result();
        kb.add_feedback(FeedbackRecord {
            id: "f0".into(),
            target: FeedbackTarget::Attribute {
                relation: "property".into(),
                row: 1,
                attr: "bedrooms".into(),
            },
            verdict: Verdict::Correct,
        });
        let mut t = FeedbackRepair::default();
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);
        assert!(kb.vetoes().is_empty());
    }

    #[test]
    fn mapping_evaluation_revises_high_error_matches() {
        let mut kb = kb_with_result();
        kb.add_match(MatchDef {
            id: "m_beds".into(),
            src_rel: "rightmove".into(),
            src_attr: "beds".into(),
            tgt_attr: "bedrooms".into(),
            score: 0.8,
            matcher: "schema".into(),
        });
        kb.add_mapping(MappingDef {
            id: "map0".into(),
            target: "property".into(),
            rules: String::new(),
            sources: vec!["rightmove".into()],
            matches_used: vec!["m_beds".into()],
            parts: vec![],
        });
        kb.select_mapping("map0").unwrap();
        // 3 annotations, 2 incorrect: error rate 0.67 >= 0.3
        for (i, verdict) in [Verdict::Incorrect, Verdict::Incorrect, Verdict::Correct]
            .into_iter()
            .enumerate()
        {
            kb.add_feedback(FeedbackRecord {
                id: format!("f{i}"),
                target: FeedbackTarget::Attribute {
                    relation: "property".into(),
                    row: i,
                    attr: "bedrooms".into(),
                },
                verdict,
            });
        }
        let mut t = MappingEvaluation::default();
        assert!(t.ready(&kb).unwrap());
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 1, "{}", out.summary);
        let revised = kb.matches().find(|m| m.id == "m_beds").unwrap().score;
        assert!(revised < 0.3, "0.8 * (1 - 2/3) ≈ 0.27, got {revised}");
        // same feedback not double-counted
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);
    }

    #[test]
    fn sparse_feedback_below_threshold_is_ignored() {
        let mut kb = kb_with_result();
        kb.add_match(MatchDef {
            id: "m_beds".into(),
            src_rel: "rightmove".into(),
            src_attr: "beds".into(),
            tgt_attr: "bedrooms".into(),
            score: 0.8,
            matcher: "schema".into(),
        });
        kb.add_mapping(MappingDef {
            id: "map0".into(),
            target: "property".into(),
            rules: String::new(),
            sources: vec![],
            matches_used: vec!["m_beds".into()],
            parts: vec![],
        });
        kb.select_mapping("map0").unwrap();
        kb.add_feedback(FeedbackRecord {
            id: "f0".into(),
            target: FeedbackTarget::Attribute {
                relation: "property".into(),
                row: 0,
                attr: "bedrooms".into(),
            },
            verdict: Verdict::Incorrect,
        });
        let mut t = MappingEvaluation::default();
        let out = t.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0, "one annotation is not enough evidence");
        assert_eq!(kb.matches().find(|m| m.id == "m_beds").unwrap().score, 0.8);
    }
}
