//! Property-based tests for the shared substrate: total value ordering,
//! hash/equality consistency, CSV round-trips, and similarity bounds.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use vada_common::text::{
    jaro, jaro_chars, jaro_winkler, jaro_winkler_chars, levenshtein, levenshtein_sim, normalize,
    normalize_append, token_jaccard,
};
use vada_common::{csv, Relation, Schema, Tuple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 £,.-]{0,12}".prop_map(Value::str),
    ]
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn value_ordering_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
    }

    #[test]
    fn value_ordering_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort(); // sort panics (in debug) on non-total orders; also verify
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
    }

    #[test]
    fn equal_values_hash_equal(a in arb_value(), b in arb_value()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?} but hashes differ", a, b);
        }
    }

    #[test]
    fn csv_round_trips(rows in proptest::collection::vec(
        proptest::collection::vec("[^\r]{0,20}", 3..4), 0..20)
    ) {
        let text = csv::serialize(&rows);
        let parsed = csv::parse(&text).unwrap();
        // serialize always terminates rows, so empty input round-trips to empty
        if rows.is_empty() {
            prop_assert!(parsed.is_empty());
        } else {
            prop_assert_eq!(parsed, rows);
        }
    }

    #[test]
    fn relation_csv_round_trips(cells in proptest::collection::vec(
        ("[a-z £,\"0-9]{0,10}", "[a-z]{0,8}"), 1..15)
    ) {
        let schema = Schema::all_str("r", &["a", "b"]);
        let mut rel = vada_common::Relation::empty(schema.clone());
        for (a, b) in &cells {
            rel.push(vada_common::Tuple::new(vec![
                Value::parse_as(a, vada_common::AttrType::Str).unwrap(),
                Value::parse_as(b, vada_common::AttrType::Str).unwrap(),
            ])).unwrap();
        }
        let text = csv::write_relation(&rel);
        let back = csv::read_relation(&text, schema).unwrap();
        prop_assert_eq!(back.tuples(), rel.tuples());
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        // identity, symmetry, triangle inequality
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn similarities_are_bounded(a in "[a-zA-Z_ ]{0,16}", b in "[a-zA-Z_ ]{0,16}") {
        for s in [levenshtein_sim(&a, &b), jaro_winkler(&a, &b), token_jaccard(&a, &b)] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "similarity {s} out of range");
        }
    }

    #[test]
    fn normalize_is_idempotent(s in "[a-zA-Z0-9 ,.\\-_]{0,24}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once.clone());
        // and produces only lowercase alphanumerics and single spaces
        prop_assert!(!once.contains("  "));
        prop_assert!(once.chars().all(|c| c.is_lowercase() || c.is_numeric() || c == ' '));
    }
}

// ---------------------------------------------------------------------------
// The text primitives fusion and repair score with, against the
// implementations they replaced: Jaro over `&str` allocating four vectors a
// call, and a normal form that sent every character through the Unicode
// lower-casing iterator. Scores are compared bit for bit — clustering and
// fuzzy repair threshold them, so "close" is a different answer.
// ---------------------------------------------------------------------------

/// Jaro as it was before `jaro_chars`.
fn jaro_oracle(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push(i);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matched_b: Vec<char> = b_used
        .iter()
        .zip(&b)
        .filter(|(u, _)| **u)
        .map(|(_, c)| *c)
        .collect();
    let transpositions = matches_a
        .iter()
        .map(|&i| a[i])
        .zip(&matched_b)
        .filter(|(x, y)| x != *y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler as it was before `jaro_winkler_chars`.
fn jaro_winkler_oracle(a: &str, b: &str) -> f64 {
    let j = jaro_oracle(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The normal form with no ASCII shortcut.
fn normalize_oracle(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.trim().chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Short strings over a small alphabet (so characters match, transpose and
/// share prefixes by chance), with characters whose lower case is another
/// character (`É`), two characters (`İ`) or position-dependent in other
/// libraries (`Σ`), and separators.
const SHORT_TEXT: &str = "[a-dA-D ÉéßİıΣσ1².,-]{0,12}";
/// Longer than the 128 match flags `jaro_chars` keeps on the stack.
const LONG_TEXT: &str = "[abc ]{60,150}";

fn assert_jaro_agrees(a: &str, b: &str) -> Result<(), TestCaseError> {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let want = jaro_oracle(a, b).to_bits();
    prop_assert_eq!(jaro(a, b).to_bits(), want, "jaro({:?}, {:?})", a, b);
    prop_assert_eq!(jaro_chars(&ca, &cb).to_bits(), want, "jaro_chars({:?}, {:?})", a, b);
    let want = jaro_winkler_oracle(a, b).to_bits();
    prop_assert_eq!(jaro_winkler(a, b).to_bits(), want, "jaro_winkler({:?}, {:?})", a, b);
    prop_assert_eq!(
        jaro_winkler_chars(&ca, &cb).to_bits(), want, "jaro_winkler_chars({:?}, {:?})", a, b
    );
    Ok(())
}

proptest! {
    #[test]
    fn jaro_over_chars_matches_the_allocating_oracle_bit_for_bit(
        a in SHORT_TEXT, b in SHORT_TEXT, long_a in LONG_TEXT, long_b in LONG_TEXT
    ) {
        assert_jaro_agrees(&a, &b)?;
        assert_jaro_agrees(&a, &a)?;
        // past the stack scratch, on either side and on both
        assert_jaro_agrees(&long_a, &long_b)?;
        assert_jaro_agrees(&long_a, &b)?;
        assert_jaro_agrees(&a, &long_b)?;
    }

    #[test]
    fn normal_form_matches_the_unicode_only_oracle(
        s in "[a-cA-C ÉéßİıΣσǅ1²٣.,_|-]{0,16}", prefix in "[a-c |]{0,4}"
    ) {
        prop_assert_eq!(normalize(&s), normalize_oracle(&s), "{:?}", s);
        // appending leaves what was there alone
        let mut out = prefix.clone();
        normalize_append(&s, &mut out);
        prop_assert_eq!(out, format!("{prefix}{}", normalize_oracle(&s)), "{:?}", s);
    }
}


/// `Relation::remove_rows` as it was first written — drain every tuple
/// into a fresh `Vec`, skipping the removed positions — kept as the oracle
/// for the in-place compaction. Returns `(removed, kept)`.
fn remove_rows_by_rebuild(tuples: &[Tuple], rows: &[usize]) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let removed = sorted.iter().map(|&r| tuples[r].clone()).collect();
    let mut next = sorted.iter().peekable();
    let mut kept = Vec::with_capacity(tuples.len() - sorted.len());
    for (row, t) in tuples.iter().enumerate() {
        if next.peek() == Some(&&row) {
            next.next();
        } else {
            kept.push(t.clone());
        }
    }
    (removed, kept)
}

proptest! {
    /// In-place `remove_rows` ≡ drain-and-rebuild on arbitrary position
    /// sets — empty, single, duplicated, unsorted — plus the fixed hard
    /// cases (first row, last row, both, every row): same removed tuples
    /// and same surviving order.
    #[test]
    fn in_place_row_removal_matches_the_rebuild(
        len in 1usize..40,
        picks in proptest::collection::vec(0usize..1000, 0..12),
    ) {
        let schema = Schema::all_str("r", &["id", "bucket"]);
        let tuples: Vec<Tuple> = (0..len)
            .map(|i| Tuple::new(vec![Value::str(i.to_string()), Value::str((i % 3).to_string())]))
            .collect();
        let random: Vec<usize> = picks.iter().map(|p| p % len).collect();
        let cases = [
            random,
            vec![],
            vec![0],
            vec![len - 1],
            vec![len - 1, 0, len - 1],
            (0..len).rev().collect(),
        ];
        for rows in &cases {
            let mut rel = Relation::from_tuples(schema.clone(), tuples.clone()).unwrap();
            let (want_removed, want_kept) = remove_rows_by_rebuild(&tuples, rows);
            prop_assert_eq!(rel.remove_rows(rows).unwrap(), want_removed, "rows {:?}", rows);
            prop_assert_eq!(rel.tuples(), &want_kept[..], "rows {:?}", rows);
        }
    }
}

/// `arb_value` plus the canonical codec's hard cases: every NaN payload,
/// negative zero, the infinities, the extreme integers, and strings with
/// embedded NULs, newlines, quotes, and non-ASCII.
fn arb_adversarial_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_value(),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(f64::from_bits(0x7FF8_0000_0000_1234))), // payloaded NaN
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(f64::MIN_POSITIVE)),
        Just(Value::Float(f64::MAX)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        Just(Value::str("embedded\nnewline")),
        Just(Value::str("embedded\0nul")),
        Just(Value::str("quote\"comma, — ünïcode")),
        Just(Value::str("")),
    ]
}

proptest! {
    /// The storage codec is total and canonical over every value,
    /// including the ones CSV cannot carry: decode∘encode is the
    /// identity under value equality (which unifies NaN payloads and
    /// `-0.0` exactly like the codec does), and re-encoding the decoded
    /// value is *byte*-identical — encoded bytes are a stable canonical
    /// form fit for CRC-framed logs.
    #[test]
    fn value_codec_round_trips_canonically(v in arb_adversarial_value()) {
        use vada_common::codec::{decode_value, encode_value, Reader};
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = decode_value(&mut r).unwrap();
        prop_assert!(r.is_done(), "decode must consume exactly the encoding");
        prop_assert_eq!(&back, &v, "decode∘encode must be identity modulo canonicalisation");
        let mut again = Vec::new();
        encode_value(&back, &mut again);
        prop_assert_eq!(again, bytes, "the decoded value must re-encode byte-identically");
    }

    /// Same at tuple granularity, plus: every strict prefix of the
    /// encoding is rejected, never misread — the property the WAL's
    /// torn-tail handling builds on.
    #[test]
    fn tuple_codec_round_trips_and_rejects_every_prefix(
        vals in proptest::collection::vec(arb_adversarial_value(), 0..6)
    ) {
        use vada_common::codec::{decode_tuple, encode_tuple, Reader};
        let t = vada_common::Tuple::new(vals);
        let mut bytes = Vec::new();
        encode_tuple(&t, &mut bytes);
        let back = decode_tuple(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(&back, &t);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            prop_assert!(
                decode_tuple(&mut r).is_err() || !r.is_done(),
                "a strict prefix (cut {}) must not silently decode to a whole tuple",
                cut
            );
        }
    }
}

proptest! {
    /// The disabled observability stub is observably free: any script of
    /// counter bumps, spans and attributes leaves no trace — no counter
    /// values, no span ids, an empty report. This is the property that lets
    /// a disabled handle sit on every hot path unconditionally.
    #[test]
    fn disabled_obs_collection_is_observably_free(
        script in proptest::collection::vec(("[a-z.]{1,12}", 0u64..1000), 0..24)
    ) {
        use vada_common::Obs;
        let obs = Obs::disabled();
        for (name, n) in &script {
            obs.add(name, *n);
            obs.incr(name);
            let span = obs.span(name);
            span.attr("n", n);
            prop_assert_eq!(span.id(), 0, "disabled spans are elided");
            drop(span);
            prop_assert_eq!(obs.get(name), 0);
        }
        prop_assert!(!obs.is_enabled());
        prop_assert!(obs.counters().is_empty());
        prop_assert!(obs.report().structural().is_empty());
        let report = obs.report();
        prop_assert!(!report.enabled);
        prop_assert!(report.counters.is_empty());
        prop_assert!(report.spans.is_empty());
    }
}

/// Pin the vendored proptest shrinker: integers halve toward zero,
/// collections truncate, and a failing property reports the minimal
/// counterexample the greedy loop converges to — not the raw random draw.
#[test]
fn proptest_stub_shrinks_failing_cases_to_minimal_counterexamples() {
    use proptest::shrink::Shrink;

    // integer candidates: zero first, then halved, then decremented
    assert_eq!(100u8.shrink(), vec![0, 50, 99]);
    assert_eq!(1u8.shrink(), vec![0]);
    assert_eq!(0u8.shrink(), Vec::<u8>::new());
    assert_eq!((-7i64).shrink(), vec![0, -3, -6]);

    // collection candidates: empty, first half, all-but-last
    assert_eq!(
        vec![1, 2, 3, 4].shrink(),
        vec![vec![], vec![1, 2], vec![1, 2, 3]]
    );
    assert_eq!(vec![9].shrink(), vec![Vec::<i32>::new()]);
    assert_eq!("abcd".to_string().shrink(), vec!["".into(), "ab".to_string(), "abc".into()]);

    // tuples shrink component-wise
    assert!((4u8, 2u8).shrink().contains(&(0, 2)));
    assert!((4u8, 2u8).shrink().contains(&(4, 0)));

    // end-to-end: `len < 3` fails on some random draw and must shrink to a
    // vector of exactly three elements (truncation cannot go lower without
    // the property passing again)
    proptest::proptest! {
        fn vec_stays_short(xs in proptest::collection::vec(99u8..100, 0..10)) {
            prop_assert!(xs.len() < 3);
        }
    }
    let panic = std::panic::catch_unwind(vec_stays_short)
        .expect_err("the embedded property must fail");
    let msg = panic
        .downcast_ref::<String>()
        .expect("panic message is a formatted string");
    assert!(msg.contains("minimal counterexample"), "{msg}");
    assert_eq!(
        msg.matches("99").count(),
        3,
        "expected exactly the three-element counterexample in: {msg}"
    );
}
