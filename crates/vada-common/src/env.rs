//! Shared parsing rules for the environment knobs.
//!
//! `VADA_WAL` is a payload with an "off" spelling, under these trim/case
//! rules:
//!
//! - **off-switches** ([`parse_off`]): empty, `0`, or `off` —
//!   case-insensitive, whitespace ignored — for knobs whose *value* is a
//!   payload (a WAL path) and which need an explicit disabled spelling.
//!
//! The parser is a pure function over string slices so it can be tested
//! exhaustively without mutating the process environment (the test suite is
//! multi-threaded; `std::env::set_var` would race).

/// Whether a payload knob's value means *disabled*: empty, `0`, or `off`,
/// case-insensitive, surrounding whitespace ignored.
pub fn parse_off(v: &str) -> bool {
    let v = v.trim();
    v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off")
}

#[cfg(test)]
mod tests {
    use super::*;

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
