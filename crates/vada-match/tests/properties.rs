//! Property-based tests for the matching activity: name-similarity scoring
//! must be symmetric, thresholds must act as pure filters (raising one only
//! removes correspondences), and the value normal form the instance matcher
//! keys on must agree with the fusion blocking key — two values the matcher
//! considers identical always land in the same block.

use proptest::prelude::*;

use vada_common::text::{blocking_key, normalize};
use vada_common::{tuple, Schema};
use vada_match::schema_match::name_similarity;
use vada_match::{combine, schema_match, CombineConfig, Correspondence, SchemaMatchConfig};

/// Attribute-name generator: lowercase words with the separators the
/// tokenizer understands (space / underscore), occasionally empty-ish.
const NAME: &str = "[a-z_ ]{0,12}";

fn pair_set(corrs: &[Correspondence]) -> std::collections::BTreeSet<(String, String, String)> {
    corrs.iter().map(|c| c.pair_key()).collect()
}

proptest! {
    #[test]
    fn name_similarity_is_symmetric(a in NAME, b in NAME) {
        let cfg = SchemaMatchConfig::default();
        let (sab, _) = name_similarity(&cfg, &a, &b);
        let (sba, _) = name_similarity(&cfg, &b, &a);
        prop_assert_eq!(sab, sba, "score({:?}, {:?}) asymmetric", a, b);
        prop_assert!((0.0..=1.0).contains(&sab), "score {} out of range", sab);
    }

    #[test]
    fn schema_match_threshold_is_monotone(
        src_names in proptest::collection::vec("[a-z_]{1,10}", 1..6),
        tgt_names in proptest::collection::vec("[a-z_]{1,10}", 1..6),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let dedup = |names: Vec<String>| -> Vec<String> {
            let mut seen = std::collections::BTreeSet::new();
            names.into_iter().filter(|n| seen.insert(n.clone())).collect()
        };
        let src_names = dedup(src_names);
        let tgt_names = dedup(tgt_names);
        let src = Schema::all_str(
            "s", &src_names.iter().map(String::as_str).collect::<Vec<_>>());
        let tgt = Schema::all_str(
            "t", &tgt_names.iter().map(String::as_str).collect::<Vec<_>>());
        let at = |threshold: f64| {
            schema_match(&SchemaMatchConfig { threshold, ..Default::default() }, &src, &tgt)
        };
        let loose = at(lo);
        let strict = at(hi);
        // every reported score clears the bar it was asked for…
        for c in &loose {
            prop_assert!(c.score >= lo, "{:?} under threshold {}", c, lo);
        }
        // …and a higher bar reports a subset of a lower one
        let loose_pairs = pair_set(&loose);
        for key in pair_set(&strict) {
            prop_assert!(loose_pairs.contains(&key), "{key:?} appeared only at the stricter threshold");
        }
    }

    #[test]
    fn combine_threshold_is_monotone(
        scores in proptest::collection::vec(("[a-c]{1}", "[x-z]{1}", 0.0f64..1.0, 0u8..3), 0..8),
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut schema_evi = Vec::new();
        let mut instance_evi = Vec::new();
        for (src_attr, tgt_attr, score, which) in &scores {
            let c = Correspondence {
                src_rel: "s".into(),
                src_attr: src_attr.clone(),
                tgt_attr: tgt_attr.clone(),
                score: *score,
                matcher: String::new(),
                evidence: String::new(),
            };
            // one stream, the other, or corroborated by both
            if *which != 1 { schema_evi.push(c.clone()); }
            if *which != 0 { instance_evi.push(c); }
        }
        let at = |threshold: f64| {
            combine(&CombineConfig { threshold, ..Default::default() }, &schema_evi, &instance_evi)
        };
        let loose = at(lo);
        let strict = at(hi);
        for c in &loose {
            prop_assert!(c.score >= lo, "{:?} under threshold {}", c, lo);
        }
        let loose_pairs = pair_set(&loose);
        for key in pair_set(&strict) {
            prop_assert!(loose_pairs.contains(&key), "{key:?} appeared only at the stricter threshold");
        }
        // corroboration invariant: combining never exceeds the best input
        for c in &loose {
            let best_in = schema_evi.iter().chain(&instance_evi)
                .filter(|e| e.pair_key() == c.pair_key())
                .map(|e| e.score)
                .fold(0.0f64, f64::max);
            prop_assert!(c.score <= best_in + 1e-12, "{:?} outscored its evidence {}", c, best_in);
        }
    }

    #[test]
    fn matcher_value_identity_agrees_with_blocking_key(
        a in "[ a-zA-Z0-9_.,-]{0,16}",
        b in "[ a-zA-Z0-9_.,-]{0,16}",
    ) {
        // the instance matcher equates values by `normalize`; fusion blocking
        // equates rows by `blocking_key`. The two normal forms must be the
        // same function, so co-matched values are co-blocked by construction.
        let mut ka = String::new();
        let mut kb = String::new();
        // a non-null cell always keys (even when its normal form is empty:
        // such rows share the "" block rather than going singleton)
        prop_assert!(blocking_key(&tuple![a.as_str()], &[0], &mut ka));
        prop_assert!(blocking_key(&tuple![b.as_str()], &[0], &mut kb));
        prop_assert_eq!(&ka, &normalize(&a), "key text drifted for {:?}", a);
        let same_value = normalize(&a) == normalize(&b);
        prop_assert_eq!(same_value, ka == kb,
            "matcher identity and blocking key disagree on {:?} vs {:?}", a, b);
    }
}
