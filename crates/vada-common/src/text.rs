//! String-similarity primitives used by schema matching, instance matching,
//! duplicate detection and repair.
//!
//! All similarities are normalised to `[0, 1]` where `1` means identical.

use std::collections::HashSet;

use crate::tuple::Tuple;

/// Lower-case, trim, and collapse internal whitespace/punctuation to single
/// spaces. Matching and blocking both key on this normal form.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_append(s, &mut out);
    out
}

/// Append the normal form of `s` (see [`normalize`]) to `out`, touching
/// nothing before `out`'s current end. Lets hot loops (blocking-key
/// extraction) reuse one scratch buffer instead of allocating per cell.
pub fn normalize_append(s: &str, out: &mut String) {
    let start = out.len();
    let mut last_space = true;
    for c in s.trim().chars() {
        if c.is_alphanumeric() {
            if c.is_ascii() {
                out.push(c.to_ascii_lowercase());
            } else {
                out.extend(c.to_lowercase());
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.len() > start && out.ends_with(' ') {
        out.pop();
    }
}

/// Build the fusion blocking key of `t` over `cols` into `key` (cleared
/// first): the normal forms of the non-null key cells joined by `|`.
/// Returns `false` when every key cell is null (such rows block as
/// singletons). This is the *single* definition of the blocking key —
/// `vada_fusion`'s blocking calls it, and the `vada-match`
/// property suite pins the matcher's value identity against it. Columns
/// beyond the tuple's arity are skipped: a missing key cell behaves like
/// a null one.
pub fn blocking_key(t: &Tuple, cols: &[usize], key: &mut String) -> bool {
    key.clear();
    let mut any = false;
    for &c in cols {
        if c >= t.arity() {
            continue;
        }
        let v = &t[c];
        if v.is_null() {
            continue;
        }
        if any {
            key.push('|');
        }
        any = true;
        match v.as_str() {
            Some(s) => normalize_append(s, key),
            None => normalize_append(&v.to_string(), key),
        }
    }
    any
}

/// Levenshtein edit distance (unit costs).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein similarity: `1 - dist / max_len`.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// [`jaro`] over already-decoded characters, for callers that compare the
/// same strings many times (pairwise record scoring, fuzzy repair): no
/// decoding and no heap allocation per call — the match flags live in a
/// stack buffer, with a heap fallback only for inputs longer than it.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    const STACK_FLAGS: usize = 128;
    let mut stack = [false; STACK_FLAGS];
    let mut heap;
    let flags: &mut [bool] = if a.len() + b.len() <= STACK_FLAGS {
        &mut stack[..a.len() + b.len()]
    } else {
        heap = vec![false; a.len() + b.len()];
        &mut heap
    };
    let (a_used, b_used) = flags.split_at_mut(a.len());
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut m = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                a_used[i] = true;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // the k-th matched character of `a` against the k-th of `b`
    fn matched<'a>(chars: &'a [char], used: &'a [bool]) -> impl Iterator<Item = char> + 'a {
        chars.iter().zip(used).filter(|(_, u)| **u).map(|(c, _)| *c)
    }
    let transpositions = matched(a, a_used)
        .zip(matched(b, b_used))
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity (common-prefix boost, `p = 0.1`, max prefix 4).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// [`jaro_winkler`] over already-decoded characters (see [`jaro_chars`]).
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Character q-grams of the normalised string (padding-free).
pub fn qgrams(s: &str, q: usize) -> HashSet<String> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < q {
        if chars.is_empty() {
            return HashSet::new();
        }
        return [chars.iter().collect::<String>()].into();
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Jaccard similarity of two sets.
pub fn jaccard<T: std::hash::Hash + Eq>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Token-level Jaccard over whitespace tokens of the normal form, with
/// camelCase and snake_case splitting — the workhorse of name-based schema
/// matching (`propertyType` vs `property_type` ≈ 1).
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: HashSet<String> = tokenize(a).into_iter().collect();
    let tb: HashSet<String> = tokenize(b).into_iter().collect();
    jaccard(&ta, &tb)
}

/// Split an identifier or phrase into lower-cased tokens (whitespace,
/// punctuation, snake_case and camelCase boundaries).
pub fn tokenize(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in s.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower && !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            cur.extend(c.to_lowercase());
            prev_lower = c.is_lowercase() || c.is_numeric();
        } else {
            if !cur.is_empty() {
                tokens.push(std::mem::take(&mut cur));
            }
            prev_lower = false;
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// q-gram (q=3) Jaccard similarity of the normal forms.
pub fn qgram_sim(a: &str, b: &str) -> f64 {
    jaccard(&qgrams(&normalize(a), 3), &qgrams(&normalize(b), 3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn normalize_collapses() {
        assert_eq!(normalize("  12,  High-St. "), "12 high st");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn blocking_key_matches_fusion_semantics() {
        let mut key = String::new();
        assert!(blocking_key(&tuple!["12 High St.", "M1 1AA"], &[0, 1], &mut key));
        let first = key.clone();
        assert!(blocking_key(&tuple!["12 high st", "M1 1AA"], &[0, 1], &mut key));
        assert_eq!(first, key, "normalisation folds case/punctuation");
        let null_row = Tuple::new(vec![Value::Null, Value::Null]);
        assert!(!blocking_key(&null_row, &[0, 1], &mut key));
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.9611).abs() < 1e-3, "got {jw}");
        assert_eq!(jaro_winkler("abc", "abc"), 1.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
    }

    #[test]
    fn jaro_symmetric() {
        for (a, b) in [("dwayne", "duane"), ("postcode", "post code"), ("x", "y")] {
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
        }
    }

    #[test]
    fn tokenize_splits_cases() {
        assert_eq!(tokenize("propertyType"), vec!["property", "type"]);
        assert_eq!(tokenize("property_type"), vec!["property", "type"]);
        assert_eq!(tokenize("Property Type!"), vec!["property", "type"]);
    }

    #[test]
    fn token_jaccard_matches_identifier_styles() {
        assert_eq!(token_jaccard("propertyType", "property_type"), 1.0);
        assert!(token_jaccard("bedrooms", "price") < 0.2);
    }

    #[test]
    fn qgram_sim_typo_tolerant() {
        assert!(qgram_sim("postcode", "postcde") > 0.3);
        assert!(qgram_sim("postcode", "crime") < 0.2);
    }

    #[test]
    fn jaccard_empty_sets_equal() {
        let a: HashSet<u8> = HashSet::new();
        let b: HashSet<u8> = HashSet::new();
        assert_eq!(jaccard(&a, &b), 1.0);
    }
}
