//! Name-based schema matching.
//!
//! For every (source attribute, target attribute) pair, the score is the
//! maximum of:
//!
//! * normalised Levenshtein similarity of the normal forms,
//! * token Jaccard (camelCase/snake_case aware),
//! * q-gram Jaccard (typo/concatenation tolerant),
//! * a synonym-lexicon hit (`beds` → `bedrooms`, `details` →
//!   `description`, ...).
//!
//! Scores below `threshold` are dropped. This matcher's input dependency is
//! *schemas only* (paper Table 1, row "Schema Matching").

use vada_common::text::{levenshtein_sim, qgram_sim, token_jaccard, tokenize};
use vada_common::Schema;

use crate::correspondence::Correspondence;

/// Synonym lexicon: pairs of token sequences considered equivalent. A small
/// built-in vocabulary of the real-estate/listings domain; extend via
/// [`SchemaMatchConfig::extra_synonyms`].
const SYNONYMS: &[(&str, &str)] = &[
    ("beds", "bedrooms"),
    ("bed", "bedrooms"),
    ("asking price", "price"),
    ("cost", "price"),
    ("details", "description"),
    ("desc", "description"),
    ("property type", "type"),
    ("kind", "type"),
    ("street name", "street"),
    ("road", "street"),
    ("post code", "postcode"),
    ("zip", "postcode"),
    ("zipcode", "postcode"),
    ("town", "city"),
    ("crime", "crimerank"),
    ("crime rank", "crimerank"),
];

/// Configuration for the schema matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaMatchConfig {
    /// Minimum score to report a correspondence.
    pub threshold: f64,
    /// Additional domain synonyms as `(a, b)` token-sequence pairs.
    pub extra_synonyms: Vec<(String, String)>,
    /// Score assigned to a synonym hit.
    pub synonym_score: f64,
}

impl Default for SchemaMatchConfig {
    fn default() -> Self {
        SchemaMatchConfig { threshold: 0.45, extra_synonyms: Vec::new(), synonym_score: 0.9 }
    }
}

fn token_phrase(name: &str) -> String {
    tokenize(name).join(" ")
}

fn synonym_hit(cfg: &SchemaMatchConfig, a: &str, b: &str) -> bool {
    let pa = token_phrase(a);
    let pb = token_phrase(b);
    let hits = |x: &str, y: &str| {
        SYNONYMS
            .iter()
            .any(|(s, t)| (*s == x && *t == y) || (*s == y && *t == x))
            || cfg
                .extra_synonyms
                .iter()
                .any(|(s, t)| (s == x && t == y) || (s == y && t == x))
    };
    hits(&pa, &pb)
}

/// Score one attribute-name pair.
pub fn name_similarity(cfg: &SchemaMatchConfig, a: &str, b: &str) -> (f64, &'static str) {
    let pa = token_phrase(a);
    let pb = token_phrase(b);
    if pa == pb {
        return (1.0, "exact");
    }
    if synonym_hit(cfg, a, b) {
        return (cfg.synonym_score, "synonym");
    }
    let lev = levenshtein_sim(&pa, &pb);
    let tok = token_jaccard(a, b);
    let qg = qgram_sim(&pa, &pb);
    let (best, kind) = [(lev, "levenshtein"), (tok, "token"), (qg, "qgram")]
        .into_iter()
        .max_by(|x, y| x.0.total_cmp(&y.0))
        .expect("non-empty");
    (best, kind)
}

/// Match a source schema against the target schema.
pub fn schema_match(
    cfg: &SchemaMatchConfig,
    src: &Schema,
    tgt: &Schema,
) -> Vec<Correspondence> {
    let mut out = Vec::new();
    for sa in src.attributes() {
        for ta in tgt.attributes() {
            let (score, kind) = name_similarity(cfg, &sa.name, &ta.name);
            if score >= cfg.threshold {
                out.push(Correspondence {
                    src_rel: src.name.clone(),
                    src_attr: sa.name.clone(),
                    tgt_attr: ta.name.clone(),
                    score,
                    matcher: "schema".into(),
                    evidence: format!("{kind} similarity {score:.2}"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::Schema;

    fn cfg() -> SchemaMatchConfig {
        SchemaMatchConfig::default()
    }

    fn best_target(corrs: &[Correspondence], src_attr: &str) -> Option<String> {
        corrs
            .iter()
            .filter(|c| c.src_attr == src_attr)
            .max_by(|a, b| a.score.total_cmp(&b.score))
            .map(|c| c.tgt_attr.clone())
    }

    #[test]
    fn identical_names_match_perfectly() {
        let (s, kind) = name_similarity(&cfg(), "price", "price");
        assert_eq!(s, 1.0);
        assert_eq!(kind, "exact");
        // case/underscore variants too
        assert_eq!(name_similarity(&cfg(), "Post_Code", "post code").0, 1.0);
    }

    #[test]
    fn synonyms_hit() {
        assert_eq!(name_similarity(&cfg(), "beds", "bedrooms").1, "synonym");
        assert_eq!(name_similarity(&cfg(), "details", "description").1, "synonym");
        assert_eq!(name_similarity(&cfg(), "asking_price", "price").1, "synonym");
    }

    #[test]
    fn paper_scenario_varied_names_resolve() {
        let src = Schema::all_str(
            "onthemarket",
            &["asking_price", "street_name", "post_code", "beds", "property_type", "details"],
        );
        let tgt = Schema::all_str(
            "property",
            &["type", "description", "street", "postcode", "bedrooms", "price", "crimerank"],
        );
        let corrs = schema_match(&cfg(), &src, &tgt);
        assert_eq!(best_target(&corrs, "asking_price").unwrap(), "price");
        assert_eq!(best_target(&corrs, "street_name").unwrap(), "street");
        assert_eq!(best_target(&corrs, "post_code").unwrap(), "postcode");
        assert_eq!(best_target(&corrs, "beds").unwrap(), "bedrooms");
        assert_eq!(best_target(&corrs, "property_type").unwrap(), "type");
        assert_eq!(best_target(&corrs, "details").unwrap(), "description");
    }

    #[test]
    fn unrelated_names_filtered_by_threshold() {
        let src = Schema::all_str("s", &["zzz_internal_id"]);
        let tgt = Schema::all_str("t", &["price"]);
        assert!(schema_match(&cfg(), &src, &tgt).is_empty());
    }

    #[test]
    fn extra_synonyms_extend_lexicon() {
        let mut c = cfg();
        c.extra_synonyms.push(("quid".into(), "price".into()));
        assert_eq!(name_similarity(&c, "quid", "price").1, "synonym");
    }

    #[test]
    fn scores_are_symmetric() {
        let c = cfg();
        for (a, b) in [("beds", "bedrooms"), ("street_name", "street"), ("post_code", "postcode")] {
            assert!((name_similarity(&c, a, b).0 - name_similarity(&c, b, a).0).abs() < 1e-12);
        }
    }
}
