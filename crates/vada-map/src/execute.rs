//! Mapping execution: run the Vadalog program against the source
//! relations and coerce the answers into the typed target schema.

use std::collections::HashMap;
use std::sync::Arc;

use vada_common::obs::{key as obs_key, SpanGuard};
use vada_common::{AttrType, Relation, Result, Schema, Tuple, VadaError, Value};
use vada_datalog::engine::{Database, Engine, EngineConfig, FactSet};
use vada_datalog::parse_program;
use vada_kb::{KnowledgeBase, MappingDef};

/// Execution configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecuteConfig {
    /// Engine limits. Its `obs` is not read: an execution records into the
    /// knowledge base's registry ([`KnowledgeBase::obs`]), the engine run
    /// included.
    pub engine: EngineConfig,
}

/// Normalise a raw extracted value into the target attribute type.
/// Currency symbols and thousands separators are stripped for numeric
/// targets; unparseable values become null (the defect stays visible as
/// missing data rather than corrupt data).
pub fn coerce_value(v: &Value, ty: AttrType) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    match ty {
        AttrType::Str => match v {
            Value::Str(_) => v.clone(),
            other => Value::str(other.to_string()),
        },
        AttrType::Int | AttrType::Float => {
            let direct = v.coerce(ty);
            if let Ok(x) = direct {
                return x;
            }
            if let Value::Str(s) = v {
                let cleaned: String = s
                    .chars()
                    .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect();
                if !cleaned.is_empty() {
                    if let Ok(parsed) = Value::parse_as(&cleaned, ty) {
                        return parsed;
                    }
                    // ints rendered with decimals, e.g. "250000.0"
                    if ty == AttrType::Int {
                        if let Ok(f) = cleaned.parse::<f64>() {
                            if f.fract() == 0.0 {
                                return Value::Int(f as i64);
                            }
                        }
                    }
                }
            }
            Value::Null
        }
        AttrType::Bool => v.coerce(AttrType::Bool).unwrap_or(Value::Null),
    }
}

/// Per tuple that several rows of a source hold, how many rows beyond the
/// first hold it.
pub(crate) type Repeats = HashMap<Tuple, usize>;

/// The execution input of one source relation: its rows as facts, in
/// first-occurrence order, and its [`Repeats`]. The handle is shared, so
/// every execution over the same version of the source loads it without
/// copying a tuple.
pub(crate) fn source_input(rel: &Relation) -> (Arc<FactSet>, Repeats) {
    let mut rows = FactSet::default();
    let mut repeats = HashMap::new();
    rows.reserve(rel.len());
    for t in rel.iter() {
        if !rows.insert(t.clone()) {
            *repeats.entry(t.clone()).or_insert(0) += 1;
        }
    }
    (Arc::new(rows), repeats)
}

/// The execution database of a mapping: each source's rows under its name,
/// in the order the sources come.
pub(crate) fn input_db<'a>(
    sources: impl IntoIterator<Item = (&'a str, &'a Arc<FactSet>)>,
) -> Database {
    let mut db = Database::new();
    for (name, rows) in sources {
        db.insert_shared(name, rows.clone());
    }
    db
}

/// The registered target schema, checked to be the one `mapping` writes.
pub(crate) fn registered_target<'a>(
    mapping: &MappingDef,
    kb: &'a KnowledgeBase,
) -> Result<&'a Schema> {
    let target = kb
        .target_schema()
        .ok_or_else(|| VadaError::Kb("no target schema registered".into()))?;
    if target.name != mapping.target {
        return Err(VadaError::Kb(format!(
            "mapping `{}` targets `{}` but the registered target is `{}`",
            mapping.id, mapping.target, target.name
        )));
    }
    Ok(target)
}

/// Execute a mapping from scratch and return the result in the target
/// schema: one engine run over an input built from the sources' rows. The
/// transducers go through [`ResultStore`](crate::ResultStore), whose
/// incremental sessions materialise the mapping only when its stored
/// result is stale, byte-identically to this.
pub fn execute_mapping(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
) -> Result<Relation> {
    let target = registered_target(mapping, kb)?;
    let _span = execute_span(mapping, kb);
    let program = parse_program(&mapping.rules)?;
    let obs = kb.obs();
    obs.incr(obs_key::MAP_FULL);
    let inputs = (mapping.sources.iter())
        .map(|s| Ok((s.as_str(), source_input(kb.relation(s)?).0)))
        .collect::<Result<Vec<_>>>()?;
    let input = input_db(inputs.iter().map(|(s, rows)| (*s, rows)));
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..cfg.engine.clone() });
    // a mapping materialises its whole target relation — an all-free
    // access pattern demand cannot restrict — so it runs the full fixpoint
    let output = engine.run(&program, input)?;
    let facts = output.shared_fact_set(&target.name).unwrap_or_default();
    Ok(coerce_rows(&facts, target, &mapping.id, None)?.0)
}

/// The span one materialisation of `mapping` records under, in the
/// knowledge base's registry: input build and engine run, or a session's
/// full run or step, nest underneath.
pub(crate) fn execute_span<'a>(mapping: &MappingDef, kb: &'a KnowledgeBase) -> SpanGuard<'a> {
    let span = kb.obs().span("map/execute");
    span.attr("mapping", &mapping.id);
    span.attr("target", &mapping.target);
    span
}

/// What a run's rows changed since an earlier run's: the earlier rows
/// whose fact the run no longer derives, and those facts, row for row; the
/// positions of the rows coerced afresh, ascending — every row, without an
/// earlier run; and per row, the earlier row it continues, if any.
#[derive(Debug, Default)]
pub(crate) struct RowDiff {
    pub removed: Vec<Tuple>,
    pub removed_facts: Vec<Tuple>,
    pub inserted: Vec<usize>,
    pub continues: Vec<Option<usize>>,
}

/// The rows of the raw target `facts` coerced into `target`, row for row.
/// A fact an earlier run also derived keeps the row it was coerced to
/// there (`earlier`: that run's facts and rows); only the others are
/// coerced. The earlier facts are walked in step with `facts`, so a fact
/// is looked up only where the order departs from theirs; the walk's
/// findings come back as the [`RowDiff`] from the earlier run.
pub(crate) fn coerce_rows(
    facts: &FactSet,
    target: &Schema,
    mapping_id: &str,
    earlier: Option<(&FactSet, &Relation)>,
) -> Result<(Relation, RowDiff)> {
    let mut rows = Vec::with_capacity(facts.len());
    let mut diff = RowDiff::default();
    let mut kept_rows = vec![false; earlier.map_or(0, |(f, _)| f.len())];
    let mut next = 0;
    for (row, t) in facts.tuples().iter().enumerate() {
        let kept = earlier.and_then(|(f, r)| {
            let at = match f.tuples().get(next) {
                Some(e) if e == t => next,
                _ => f.row_of(facts, row)?,
            };
            next = at + 1;
            kept_rows[at] = true;
            Some((at, r.tuples()[at].clone()))
        });
        diff.continues.push(kept.as_ref().map(|(at, _)| *at));
        rows.push(match kept {
            Some((_, kept)) => kept,
            None => {
                diff.inserted.push(row);
                coerce_fact(t, target, mapping_id)?
            }
        });
    }
    if let Some((f, r)) = earlier {
        for at in (0..f.len()).filter(|&at| !kept_rows[at]) {
            diff.removed.push(r.tuples()[at].clone());
            diff.removed_facts.push(f.tuples()[at].clone());
        }
    }
    Ok((Relation::from_tuples(target.clone(), rows)?, diff))
}

/// Coerce one derived target fact into the typed target schema.
fn coerce_fact(t: &Tuple, target: &Schema, mapping_id: &str) -> Result<Tuple> {
    if t.arity() != target.arity() {
        return Err(VadaError::Eval(format!(
            "mapping `{mapping_id}` produced arity {} for target arity {}",
            t.arity(),
            target.arity()
        )));
    }
    Ok(t.iter().zip(target.attributes()).map(|(v, a)| coerce_value(v, a.ty)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["£250,000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["300000", "9 park rd", "EH1 1AA"]).unwrap();
        rm.push(Tuple::new(vec![Value::str("bad price"), Value::str("1 mill ln"), Value::Null]))
            .unwrap();
        kb.register_source(rm);
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        kb.register_source(dep);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        kb
    }

    fn mapping(rules: &str, sources: &[&str]) -> MappingDef {
        MappingDef {
            id: "m".into(),
            target: "property".into(),
            rules: rules.into(),
            sources: sources.iter().map(|s| s.to_string()).collect(),
            matches_used: vec![],
            parts: vec![],
        }
    }

    #[test]
    fn projection_mapping_coerces_types() {
        let m = mapping(
            "property(S, PC, P, null) :- rightmove(P, S, PC).",
            &["rightmove"],
        );
        let rel = execute_mapping(&ExecuteConfig::default(), &m, &kb()).unwrap();
        assert_eq!(rel.len(), 3);
        let by_street = |s: &str| {
            rel.iter()
                .find(|t| t[0] == Value::str(s))
                .cloned()
                .unwrap()
        };
        // pretty price parsed
        assert_eq!(by_street("12 high st")[2], Value::Int(250_000));
        // plain price parsed
        assert_eq!(by_street("9 park rd")[2], Value::Int(300_000));
        // unparseable price → null, not garbage
        assert!(by_street("1 mill ln")[2].is_null());
    }

    #[test]
    fn left_outer_district_join() {
        let rules = r#"
            property(S, PC, P, C) :- rightmove(P, S, PC), D = district(PC), D != null, deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), D = district(PC), not has_crime(D).
            has_crime(D) :- deprivation(D, _), D != null.
        "#;
        let m = mapping(rules, &["rightmove", "deprivation"]);
        let rel = execute_mapping(&ExecuteConfig::default(), &m, &kb()).unwrap();
        let crime_of = |s: &str| {
            rel.iter()
                .find(|t| t[0] == Value::str(s))
                .map(|t| t[3].clone())
                .unwrap()
        };
        // M1 1AA matches deprivation M1
        assert_eq!(crime_of("12 high st"), Value::Int(500));
        // EH1 1AA has no deprivation row: kept with null crimerank
        assert!(crime_of("9 park rd").is_null());
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn wrong_target_rejected() {
        let m = MappingDef {
            id: "m".into(),
            target: "other".into(),
            rules: "other(X) :- rightmove(X, _, _).".into(),
            sources: vec!["rightmove".into()],
            matches_used: vec![],
            parts: vec![],
        };
        assert!(execute_mapping(&ExecuteConfig::default(), &m, &kb()).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let m = mapping("property(S) :- rightmove(_, S, _).", &["rightmove"]);
        assert!(execute_mapping(&ExecuteConfig::default(), &m, &kb()).is_err());
    }

    #[test]
    fn coerce_value_cases() {
        assert_eq!(coerce_value(&Value::str("£1,250"), AttrType::Int), Value::Int(1250));
        assert_eq!(coerce_value(&Value::str("3"), AttrType::Int), Value::Int(3));
        assert_eq!(coerce_value(&Value::str("x"), AttrType::Int), Value::Null);
        assert_eq!(coerce_value(&Value::Null, AttrType::Int), Value::Null);
        assert_eq!(coerce_value(&Value::Int(5), AttrType::Str), Value::str("5"));
        assert_eq!(
            coerce_value(&Value::str("2.5"), AttrType::Float),
            Value::Float(2.5)
        );
    }
}
