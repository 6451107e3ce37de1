//! Candidate mapping generation from matches.
//!
//! Sources are classified as **primary** (their matches cover enough of
//! the target schema to stand alone — the listing sources) or
//! **augmenting** (they share a join key with the target and contribute
//! extra attributes — the deprivation table). Candidates are the cross
//! product of {each primary, the union of all primaries} × {without /
//! with all augmenting joins}; joins are left-outer so augmentation never
//! loses rows. The augmenting source is keyed by district, so a join goes
//! through the engine's built-in `district` function.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vada_common::{Result, Schema, VadaError};
use vada_kb::{KnowledgeBase, MappingDef, MappingPart, MatchDef};

/// Generation configuration.
#[derive(Debug, Clone)]
pub struct MapGenConfig {
    /// Minimum match score to use a correspondence in a mapping.
    pub match_threshold: f64,
    /// A source whose matches cover at least this many target attributes
    /// is primary.
    pub primary_min_attrs: usize,
    /// The target attribute acting as join key for augmentation.
    pub join_key: String,
}

impl Default for MapGenConfig {
    fn default() -> Self {
        MapGenConfig {
            match_threshold: 0.5,
            primary_min_attrs: 3,
            join_key: "postcode".into(),
        }
    }
}

/// The best match per (source, target attribute) above the threshold.
fn best_matches(
    kb: &KnowledgeBase,
    threshold: f64,
) -> BTreeMap<String, BTreeMap<String, MatchDef>> {
    let mut out: BTreeMap<String, BTreeMap<String, MatchDef>> = BTreeMap::new();
    for m in kb.matches() {
        if m.score < threshold {
            continue;
        }
        let per_source = out.entry(m.src_rel.clone()).or_default();
        match per_source.get(&m.tgt_attr) {
            Some(prev) if prev.score >= m.score => {}
            _ => {
                per_source.insert(m.tgt_attr.clone(), m.clone());
            }
        }
    }
    out
}

struct SourceRole<'a> {
    name: String,
    schema: &'a Schema,
    /// target attr → match
    matches: BTreeMap<String, MatchDef>,
}

/// Emit the body atom for a source with fresh variables `prefix0..n`, the
/// column matched to target attribute `key.0` named `key.1` instead;
/// returns `(atom text, target attr → variable name)`.
fn source_atom(
    role: &SourceRole,
    prefix: &str,
    key: Option<(&str, &str)>,
) -> (String, BTreeMap<String, String>) {
    let mut vars: Vec<String> =
        (0..role.schema.arity()).map(|i| format!("{prefix}{i}")).collect();
    if let Some((attr, var)) = key {
        if let Some(idx) = role.matches.get(attr).and_then(|m| role.schema.index_of(&m.src_attr)) {
            vars[idx] = var.to_string();
        }
    }
    let atom = format!("{}({})", role.name, vars.join(", "));
    let mut var_of_target = BTreeMap::new();
    for (tgt, m) in &role.matches {
        if let Some(idx) = role.schema.index_of(&m.src_attr) {
            var_of_target.insert(tgt.clone(), vars[idx].clone());
        }
    }
    (atom, var_of_target)
}

/// Build the rules for one primary source, optionally augmented.
fn rules_for_primary(
    cfg: &MapGenConfig,
    target: &Schema,
    primary: &SourceRole,
    augmenting: &[&SourceRole],
) -> Result<String> {
    let (p_atom, p_vars) = source_atom(primary, "S", None);
    let mut rules = String::new();

    if augmenting.is_empty() {
        let head_args: Vec<String> = target
            .attr_names()
            .iter()
            .map(|a| p_vars.get(*a).cloned().unwrap_or_else(|| "null".into()))
            .collect();
        writeln!(rules, "{}({}) :- {}.", target.name, head_args.join(", "), p_atom)
            .expect("string write");
        return Ok(rules);
    }

    // with augmentation: a matched rule plus a null-padded complement rule
    // per augmenting source (left outer join), both reading the primary's
    // key through `district`. We support one augmenting source per join for
    // clarity; several augmentations compose by sequential application in
    // candidate enumeration.
    let aug = augmenting[0];
    let Some(key_var) = p_vars.get(&cfg.join_key) else {
        return Err(VadaError::Other(format!(
            "primary source `{}` has no match for join key `{}`",
            primary.name, cfg.join_key
        )));
    };
    // the augmenting source is keyed by district: its key column reads `D`
    let (a_atom, a_vars) = source_atom(aug, "A", Some((&cfg.join_key, "D")));
    if !a_vars.contains_key(&cfg.join_key) {
        return Err(VadaError::Other(format!(
            "augmenting source `{}` has no match for join key `{}`",
            aug.name, cfg.join_key
        )));
    }
    let district = format!("D = district({key_var})");

    let head_args_joined: Vec<String> = target
        .attr_names()
        .iter()
        .map(|a| {
            p_vars
                .get(*a)
                .or_else(|| a_vars.get(*a))
                .cloned()
                .unwrap_or_else(|| "null".into())
        })
        .collect();
    // `=` holds between nulls, so a value that is no postcode must not
    // meet a null key: both the join and the helper guard `D`
    writeln!(
        rules,
        "{}({}) :- {p_atom}, {district}, D != null, {a_atom}.",
        target.name,
        head_args_joined.join(", "),
    )
    .expect("string write");

    // complement: rows with no augmentation partner keep nulls
    let has_pred = format!("aux_has_{}_{}", aug.name, primary.name);
    let head_args_plain: Vec<String> = target
        .attr_names()
        .iter()
        .map(|a| p_vars.get(*a).cloned().unwrap_or_else(|| "null".into()))
        .collect();
    writeln!(
        rules,
        "{}({}) :- {p_atom}, {district}, not {has_pred}(D).",
        target.name,
        head_args_plain.join(", "),
    )
    .expect("string write");
    writeln!(rules, "{has_pred}(D) :- {a_atom}, D != null.").expect("string write");
    Ok(rules)
}

/// Generate candidate mappings from the knowledge base's matches. A
/// candidate's id is its position in the output (`map0`, `map1`, …), so
/// ids depend on the knowledge base alone, never on how many passes ran
/// before in the process.
pub fn generate_candidates(cfg: &MapGenConfig, kb: &KnowledgeBase) -> Result<Vec<MappingDef>> {
    let target = kb
        .target_schema()
        .ok_or_else(|| VadaError::Kb("no target schema registered".into()))?
        .clone();
    let by_source = best_matches(kb, cfg.match_threshold);

    let mut primaries: Vec<SourceRole> = Vec::new();
    let mut augmenting: Vec<SourceRole> = Vec::new();
    for (source, matches) in by_source {
        let Ok(rel) = kb.relation(&source) else { continue };
        let role = SourceRole { name: source.clone(), schema: rel.schema(), matches };
        // classify on *distinct source attributes* covered: a two-column
        // table can never stand alone for a wide target, even if one of
        // its columns spuriously matches several target attributes
        let distinct_src: std::collections::HashSet<&str> =
            role.matches.values().map(|m| m.src_attr.as_str()).collect();
        if distinct_src.len() >= cfg.primary_min_attrs {
            primaries.push(role);
        } else if role.matches.contains_key(&cfg.join_key) && role.matches.len() >= 2 {
            augmenting.push(role);
        }
    }
    if primaries.is_empty() {
        return Err(VadaError::Other(
            "no primary source: matches cover too little of the target schema".into(),
        ));
    }

    // candidate shapes: each primary alone, plus the union of all primaries
    let mut shapes: Vec<Vec<&SourceRole>> = primaries.iter().map(|p| vec![p]).collect();
    if primaries.len() > 1 {
        shapes.push(primaries.iter().collect());
    }

    let aug_options: Vec<Vec<&SourceRole>> = if augmenting.is_empty() {
        vec![vec![]]
    } else {
        vec![vec![], augmenting.iter().collect()]
    };

    let mut out = Vec::new();
    for shape in &shapes {
        for augs in &aug_options {
            // one part per primary, each the stand-alone candidate of its
            // own structure: the primary's rules, read from the primary
            // and the augmenting sources
            let aug_names = augs.iter().map(|a| a.name.clone());
            let Ok(mut parts) = shape
                .iter()
                .map(|p| {
                    let rules = rules_for_primary(cfg, &target, p, augs)?;
                    let sources = std::iter::once(p.name.clone()).chain(aug_names.clone());
                    Ok(MappingPart { rules, sources: sources.collect() })
                })
                .collect::<Result<Vec<_>>>()
            else {
                continue;
            };
            let rules: String = parts.iter().map(|p| p.rules.as_str()).collect();
            let sources: Vec<String> =
                shape.iter().map(|p| p.name.clone()).chain(aug_names).collect();
            let mut matches_used: Vec<String> = shape
                .iter()
                .chain(augs)
                .flat_map(|r| r.matches.values().map(|m| m.id.clone()))
                .collect();
            matches_used.sort();
            matches_used.dedup();
            if parts.len() == 1 {
                // a single primary is not a union
                parts.clear();
            }
            out.push(MappingDef {
                id: format!("map{}", out.len()),
                target: target.name.clone(),
                rules,
                sources,
                matches_used,
                parts,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Relation};
    use vada_kb::MatchDef;

    fn kb_with_matches() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode", "bedrooms", "type", "description"],
        ));
        rm.push(tuple!["250000", "12 high st", "M1 1AA", "3", "flat", "desc"]).unwrap();
        kb.register_source(rm);
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        kb.register_source(dep);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("type", AttrType::Str),
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        let mut add = |id: &str, rel: &str, src: &str, tgt: &str, score: f64| {
            kb.add_match(MatchDef {
                id: id.into(),
                src_rel: rel.into(),
                src_attr: src.into(),
                tgt_attr: tgt.into(),
                score,
                matcher: "schema".into(),
            });
        };
        add("m0", "rightmove", "type", "type", 1.0);
        add("m1", "rightmove", "street", "street", 1.0);
        add("m2", "rightmove", "postcode", "postcode", 1.0);
        add("m3", "rightmove", "price", "price", 1.0);
        add("m4", "deprivation", "postcode", "postcode", 0.9);
        add("m5", "deprivation", "crime", "crimerank", 0.9);
        kb
    }

    #[test]
    fn generates_plain_and_augmented_candidates() {
        let kb = kb_with_matches();
        let cands = generate_candidates(&MapGenConfig::default(), &kb).unwrap();
        // one primary × {no aug, aug}
        assert_eq!(cands.len(), 2);
        let plain = &cands[0];
        assert_eq!(plain.sources, vec!["rightmove"]);
        assert!(plain.rules.contains("property("));
        assert!(plain.rules.contains("null"));
        let aug = &cands[1];
        assert!(aug.sources.contains(&"deprivation".to_string()));
        assert_eq!(
            aug.rules,
            "property(S4, S1, S2, S0, A1) :- rightmove(S0, S1, S2, S3, S4, S5), \
             D = district(S2), D != null, deprivation(D, A1).\n\
             property(S4, S1, S2, S0, null) :- rightmove(S0, S1, S2, S3, S4, S5), \
             D = district(S2), not aux_has_deprivation_rightmove(D).\n\
             aux_has_deprivation_rightmove(D) :- deprivation(D, A1), D != null.\n"
        );
    }

    #[test]
    fn generated_rules_parse() {
        let kb = kb_with_matches();
        for cand in generate_candidates(&MapGenConfig::default(), &kb).unwrap() {
            vada_datalog::parse_program(&cand.rules)
                .unwrap_or_else(|e| panic!("rules do not parse: {e}\n{}", cand.rules));
        }
    }

    #[test]
    fn low_scores_are_ignored() {
        let mut kb = kb_with_matches();
        kb.add_match(MatchDef {
            id: "bad".into(),
            src_rel: "rightmove".into(),
            src_attr: "description".into(),
            tgt_attr: "crimerank".into(),
            score: 0.1,
            matcher: "schema".into(),
        });
        let cands = generate_candidates(&MapGenConfig::default(), &kb).unwrap();
        assert!(!cands[0].matches_used.contains(&"bad".to_string()));
    }

    #[test]
    fn no_primary_errors() {
        let mut kb = KnowledgeBase::new();
        kb.register_target_schema(Schema::all_str("t", &["a", "b", "c", "d"]));
        let mut s = Relation::empty(Schema::all_str("s", &["x"]));
        s.push(tuple!["v"]).unwrap();
        kb.register_source(s);
        kb.add_match(MatchDef {
            id: "m".into(),
            src_rel: "s".into(),
            src_attr: "x".into(),
            tgt_attr: "a".into(),
            score: 0.9,
            matcher: "schema".into(),
        });
        assert!(generate_candidates(&MapGenConfig::default(), &kb).is_err());
    }

    #[test]
    fn union_candidate_when_two_primaries() {
        let mut kb = kb_with_matches();
        let mut otm = Relation::empty(Schema::all_str(
            "onthemarket",
            &["asking_price", "street_name", "post_code"],
        ));
        otm.push(tuple!["300000", "9 park rd", "EH1 1AA"]).unwrap();
        kb.register_source(otm);
        for (id, src, tgt) in [
            ("o0", "asking_price", "price"),
            ("o1", "street_name", "street"),
            ("o2", "post_code", "postcode"),
        ] {
            kb.add_match(MatchDef {
                id: id.into(),
                src_rel: "onthemarket".into(),
                src_attr: src.into(),
                tgt_attr: tgt.into(),
                score: 0.9,
                matcher: "schema".into(),
            });
        }
        let cands = generate_candidates(&MapGenConfig::default(), &kb).unwrap();
        // {rm, otm, rm∪otm} × {plain, aug}
        assert_eq!(cands.len(), 6);
        let union = cands
            .iter()
            .find(|c| c.sources.contains(&"rightmove".into()) && c.sources.contains(&"onthemarket".into()))
            .unwrap();
        // union rules contain two rules for the target head
        assert!(union.rules.matches("property(").count() >= 2);

        // the unions, plain and augmented, record one part per primary:
        // the parts concatenate to the rules, and each is the stand-alone
        // candidate of the same structure
        let unions: Vec<&MappingDef> = cands.iter().filter(|c| !c.parts.is_empty()).collect();
        assert_eq!(unions.len(), 2);
        for union in unions {
            assert_eq!(union.parts.len(), 2);
            let concatenated: String = union.parts.iter().map(|p| p.rules.as_str()).collect();
            assert_eq!(concatenated, union.rules);
            for part in &union.parts {
                assert!(
                    cands.iter().any(|c| c.rules == part.rules && c.sources == part.sources),
                    "{part:?}"
                );
            }
        }
    }
}
