//! Shared parsing rules for the environment knobs.
//!
//! `VADA_THREADS` is a count and `VADA_WAL` a payload with an "off"
//! spelling; both agree on one set of trim/case rules, defined here:
//!
//! - **counts** ([`parse_count`]): a bare non-negative integer, surrounding
//!   whitespace ignored; anything unparseable reads as absent, letting the
//!   knob fall back to its default rather than erroring at startup.
//! - **off-switches** ([`parse_off`]): empty, `0`, or `off` —
//!   case-insensitive, whitespace ignored — for knobs whose *value* is a
//!   payload (a WAL path) and which need an explicit disabled spelling.
//!
//! The parsers are pure functions over string slices so they can be tested
//! exhaustively without mutating the process environment (the test suite is
//! multi-threaded; `std::env::set_var` would race). The [`count`] wrapper
//! does the `std::env::var` read.

/// A count knob's value as a non-negative integer, if it parses as one
/// after trimming; `None` for anything else (garbage falls back to the
/// knob's default rather than erroring).
pub fn parse_count(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok()
}

/// Whether a payload knob's value means *disabled*: empty, `0`, or `off`,
/// case-insensitive, surrounding whitespace ignored.
pub fn parse_off(v: &str) -> bool {
    let v = v.trim();
    v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off")
}

/// Read an environment count under the shared rules: unset or unparseable
/// reads as absent.
pub fn count(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| parse_count(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    // parsers only: tests must not mutate the process environment (the
    // suite is multi-threaded), so the `count` reader is covered by
    // `par`'s ambient-tolerant `from_env_parses_thread_counts` instead.

    #[test]
    fn counts_parse_trimmed_integers_only() {
        assert_eq!(parse_count("4"), Some(4));
        assert_eq!(parse_count(" 16\n"), Some(16));
        assert_eq!(parse_count("0"), Some(0));
        for v in ["", "four", "-2", "3.5", "0x10", "1 2", "∞"] {
            assert_eq!(parse_count(v), None, "{v:?} should not parse");
        }
    }

    #[test]
    fn off_switch_accepts_its_three_spellings() {
        for v in ["", "0", "off", "OFF", " Off ", "  ", "\t0 "] {
            assert!(parse_off(v), "{v:?} should read as off");
        }
        for v in ["1", "on", "tmpdir", "/var/wal", "0ff", "of f"] {
            assert!(!parse_off(v), "{v:?} should not read as off");
        }
    }
}
