//! Mapping execution: run the Vadalog program against the source
//! relations and coerce the answers into the typed target schema.

use std::sync::Arc;

use vada_common::obs::key as obs_key;
use vada_common::{AttrType, Relation, Result, Schema, Tuple, VadaError, Value};
use vada_datalog::engine::{Database, Engine, EngineConfig, FactSet};
use vada_datalog::{parse_program, Program};
use vada_kb::{KnowledgeBase, MappingDef};

/// Execution configuration.
#[derive(Debug, Clone, Default)]
pub struct ExecuteConfig {
    /// Engine limits. Its `obs` is not read: an execution records into the
    /// knowledge base's registry ([`KnowledgeBase::obs`]), the engine run
    /// included.
    pub engine: EngineConfig,
}

/// Extract the outward code (district) of a postcode-shaped string.
pub(crate) fn district_of(postcode: &str) -> Option<&str> {
    let outward = postcode.split_whitespace().next()?;
    let has_alpha = outward.chars().any(|c| c.is_ascii_alphabetic());
    let has_digit = outward.chars().any(|c| c.is_ascii_digit());
    (has_alpha && has_digit).then_some(outward)
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

/// The helper predicate a mapping reads a postcode's district through.
const DISTRICT: &str = "postcode_district";

/// The `postcode_district(full, district)` helper facts one row
/// contributes, in value order; the full postcode is the cell's own string.
fn district_facts(row: &Tuple) -> impl Iterator<Item = Tuple> + '_ {
    row.iter().filter_map(|v| {
        let s = v.as_str().filter(|s| s.contains(' '))?;
        Some(Tuple::new(vec![v.clone(), Value::str(district_of(s)?)]))
    })
}

/// One source relation as an execution reads it: its rows as facts, and the
/// `postcode_district(full, district)` helper facts derived from every
/// postcode-shaped value in them, each in first-occurrence order. Both are
/// shared handles, so every execution over the same version of the source
/// can load them without copying a tuple.
#[derive(Debug)]
pub(crate) struct SourceInput {
    rows: Arc<FactSet>,
    districts: Arc<FactSet>,
}

impl SourceInput {
    /// Build the input of `rel` at its current contents.
    pub(crate) fn build(rel: &Relation) -> SourceInput {
        let mut rows = FactSet::default();
        rows.reserve(rel.len());
        let mut districts = FactSet::default();
        for t in rel.iter() {
            rows.insert(t.clone());
            for fact in district_facts(t) {
                districts.insert(fact);
            }
        }
        SourceInput { rows: Arc::new(rows), districts: Arc::new(districts) }
    }
}

/// The execution database of `program`: each source's rows under its name
/// and, when the program mentions `postcode_district`, each source's helper
/// facts under that name, in the order the sources come — the facts and
/// their order are those of inserting every row, then its helper facts,
/// one by one.
pub(crate) fn input_db<'a>(
    program: &Program,
    sources: impl IntoIterator<Item = (&'a str, &'a SourceInput)>,
) -> Database {
    let districts = program.all_predicates().contains(DISTRICT);
    let mut db = Database::new();
    for (name, input) in sources {
        db.insert_shared(name, input.rows.clone());
        if districts && !input.districts.is_empty() {
            db.insert_shared(DISTRICT, input.districts.clone());
        }
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
/// schema. The transducers go through
/// [`ResultStore`](crate::ResultStore), which runs the engine the same way
/// only when its stored materialisation is stale.
pub fn execute_mapping(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    kb: &KnowledgeBase,
) -> Result<Relation> {
    let target = registered_target(mapping, kb)?;
    let scratch = |program: &Program| {
        let inputs = mapping
            .sources
            .iter()
            .map(|s| Ok((s.as_str(), SourceInput::build(kb.relation(s)?))))
            .collect::<Result<Vec<_>>>()?;
        Ok(input_db(program, inputs.iter().map(|(s, input)| (*s, input))))
    };
    Ok(materialise(cfg, mapping, target, kb, scratch)?.0)
}

/// One engine run of `mapping` into `target` over the database `input`
/// builds for the parsed program: the coerced result, and the engine's raw
/// target facts it was coerced from — row `i` of the result is fact `i`.
/// The facts are the run's own fact set, not a copy. The run records into
/// the knowledge base's registry.
pub(crate) fn materialise(
    cfg: &ExecuteConfig,
    mapping: &MappingDef,
    target: &Schema,
    kb: &KnowledgeBase,
    input: impl FnOnce(&Program) -> Result<Database>,
) -> Result<(Relation, Arc<FactSet>)> {
    let program = parse_program(&mapping.rules)?;
    let obs = kb.obs();
    obs.incr(obs_key::MAP_FULL);
    // wraps input build + engine run: the engine's stratum spans nest
    // underneath
    let span = obs.span("map/execute");
    span.attr("mapping", &mapping.id);
    span.attr("target", &mapping.target);
    let input = input(&program)?;
    let engine = Engine::new(EngineConfig { obs: obs.clone(), ..cfg.engine.clone() });
    // a mapping materialises its whole target relation — an all-free
    // access pattern demand cannot restrict — so it runs the full fixpoint
    let output = engine.run(&program, input)?;

    let facts = output.shared_fact_set(&target.name).unwrap_or_default();
    let mut rel = Relation::empty(target.clone());
    for t in facts.tuples() {
        rel.push(coerce_fact(t, target, &mapping.id)?)?;
    }
    Ok((rel, facts))
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
    Ok(Tuple::new(
        t.iter()
            .zip(target.attributes())
            .map(|(v, a)| coerce_value(v, a.ty))
            .collect::<Vec<Value>>(),
    ))
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
            property(S, PC, P, C) :- rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), deprivation(D, _).
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

    #[test]
    fn only_a_program_that_mentions_districts_loads_them() {
        let kb = kb();
        let rm = SourceInput::build(kb.relation("rightmove").unwrap());
        let dep = SourceInput::build(kb.relation("deprivation").unwrap());
        let plain = parse_program("property(S, PC, P, null) :- rightmove(P, S, PC).").unwrap();
        let db = input_db(&plain, [("rightmove", &rm)]);
        assert!(db.fact_set(DISTRICT).is_none(), "{:?}", db.predicates());
        assert_eq!(db.facts("rightmove").len(), 3);
        // the source's facts are the kept input itself, not a copy
        assert!(Arc::ptr_eq(&db.shared_fact_set("rightmove").unwrap(), &rm.rows));

        let joined = parse_program(
            "property(S, PC, P, C) :- \
             rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).",
        )
        .unwrap();
        let db = input_db(&joined, [("rightmove", &rm), ("deprivation", &dep)]);
        let district = |pc: &str, d: &str| Tuple::new(vec![Value::str(pc), Value::str(d)]);
        assert_eq!(db.facts(DISTRICT), [district("M1 1AA", "M1"), district("EH1 1AA", "EH1")]);
        assert!(Arc::ptr_eq(&db.shared_fact_set(DISTRICT).unwrap(), &rm.districts));
        assert!(rm.districts.len() == 2 && dep.districts.is_empty());
    }

    #[test]
    fn district_of_shapes() {
        assert_eq!(district_of("M13 9PL"), Some("M13"));
        assert_eq!(district_of("EH8 9AB"), Some("EH8"));
        assert_eq!(district_of("hello world"), None);
        assert_eq!(district_of(""), None);
    }
}
