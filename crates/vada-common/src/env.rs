//! Shared parsing rules for the `VADA_*` environment knobs.
//!
//! Every knob used to carry its own ad-hoc parser: `VADA_MAGIC`
//! accepted `1|true|on` case-insensitively,
//! `VADA_THREADS` parsed bare integers, and `VADA_WAL` had a third
//! spelling for "off". The knobs now agree on one set of trim/case rules,
//! defined here:
//!
//! - **flags** ([`parse_flag`]): `1`, `true`, or `on` — case-insensitive,
//!   surrounding whitespace ignored — mean *enabled*; anything else
//!   (including unset, empty, and garbage) means *disabled*.
//! - **counts** ([`parse_count`]): a bare non-negative integer, surrounding
//!   whitespace ignored; anything unparseable reads as absent, letting the
//!   knob fall back to its default rather than erroring at startup.
//! - **off-switches** ([`parse_off`]): empty, `0`, or `off` —
//!   case-insensitive, whitespace ignored — for knobs whose *value* is a
//!   payload (a WAL path) and which need an explicit disabled spelling.
//!
//! The parsers are pure functions over string slices so they can be tested
//! exhaustively without mutating the process environment (the test suite is
//! multi-threaded; `std::env::set_var` would race). The [`flag`] and
//! [`count`] wrappers do the `std::env::var` read.

/// Whether a flag knob's value means *enabled*: `1`, `true`, or `on`,
/// case-insensitive, surrounding whitespace ignored.
pub fn parse_flag(v: &str) -> bool {
    matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on")
}

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

/// Read an environment flag under the shared rules: unset reads as
/// disabled.
pub fn flag(name: &str) -> bool {
    std::env::var(name).map(|v| parse_flag(&v)).unwrap_or(false)
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
    // suite is multi-threaded), so the `flag`/`count` readers are covered
    // by each knob's ambient-tolerant `env_contract` test instead.

    #[test]
    fn flags_accept_the_three_spellings_case_insensitively() {
        for v in ["1", "true", "on", "TRUE", "On", " 1 ", "\ttrue\n", " ON "] {
            assert!(parse_flag(v), "{v:?} should enable");
        }
    }

    #[test]
    fn flags_reject_everything_else() {
        for v in ["", "0", "off", "false", "yes", "2", "enabled", "o n", "tru e", "1x", "☃"] {
            assert!(!parse_flag(v), "{v:?} should disable");
        }
    }

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
