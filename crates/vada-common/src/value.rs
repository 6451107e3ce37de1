//! Typed, nullable values — the atoms that flow through the wrangling
//! pipeline.
//!
//! [`Value`] implements a *total* ordering (including over floats and across
//! types) so that values can be used as join keys, index keys and sort keys
//! without panicking on `NaN` or mixed-type columns. Nulls sort first;
//! cross-type comparisons fall back to a fixed type rank.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Result, VadaError};
use crate::schema::AttrType;

/// A single typed, nullable data value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style null / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is canonicalised for hashing/ordering.
    Float(f64),
    /// Interned UTF-8 string (cheaply cloneable).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`AttrType`] of this value, or `None` for null.
    pub fn attr_type(&self) -> Option<AttrType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(AttrType::Bool),
            Value::Int(_) => Some(AttrType::Int),
            Value::Float(_) => Some(AttrType::Float),
            Value::Str(_) => Some(AttrType::Str),
        }
    }

    /// The string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an int value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload; ints are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Numeric view used by comparison built-ins: ints and floats compare on
    /// the real line.
    pub fn numeric(&self) -> Option<f64> {
        self.as_float()
    }

    /// Parse a raw token into a value of the given type. Empty strings parse
    /// to null for every type.
    pub fn parse_as(raw: &str, ty: AttrType) -> Result<Value> {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Ok(Value::Null);
        }
        match ty {
            AttrType::Bool => match trimmed.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
                "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
                other => Err(VadaError::Type(format!("cannot parse `{other}` as bool"))),
            },
            AttrType::Int => trimmed
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| VadaError::Type(format!("cannot parse `{trimmed}` as int"))),
            AttrType::Float => trimmed
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| VadaError::Type(format!("cannot parse `{trimmed}` as float"))),
            AttrType::Str => Ok(Value::str(trimmed)),
        }
    }

    /// Best-effort inference: int, then float, then bool, then string.
    pub fn infer(raw: &str) -> Value {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return Value::Float(f);
        }
        match trimmed {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::str(trimmed),
        }
    }

    /// Coerce this value to `ty` where a lossless/sane conversion exists
    /// (int↔float, anything→string via display, string→numeric via parse).
    pub fn coerce(&self, ty: AttrType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.attr_type() == Some(t) => Ok(v.clone()),
            (Value::Int(i), AttrType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), AttrType::Int) if f.fract() == 0.0 && in_i64_range(*f) => {
                Ok(Value::Int(*f as i64))
            }
            (Value::Str(s), t) => Value::parse_as(s, t),
            (v, AttrType::Str) => Ok(Value::str(v.to_string())),
            (v, t) => Err(VadaError::Type(format!("cannot coerce {v} to {t}"))),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // ints and floats share a rank: compare numerically
            Value::Str(_) => 3,
        }
    }

    /// The canonical bit pattern of a float: all NaN payloads unify, `-0.0`
    /// folds into `+0.0`. This is the representation hashing uses, and the
    /// one the binary codec persists, so equal values stay byte-identical
    /// across the serialization boundary.
    pub fn canonical_f64(f: f64) -> u64 {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0.0f64.to_bits() // unify +0.0 and -0.0
        } else {
            f.to_bits()
        }
    }
}

/// Whether `f` is exactly representable as an `i64`: `[-2^63, 2^63)`.
/// `2^63` itself is the first excluded value — `as i64` would saturate it
/// (and everything larger, e.g. `1e300`) to `i64::MAX` silently. The lower
/// bound is inclusive because `-2^63 == i64::MIN` is an exact double.
fn in_i64_range(f: f64) -> bool {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0; // 2^63
    (-TWO_POW_63..TWO_POW_63).contains(&f)
}

/// `f64::total_cmp` with `-0.0` unified to `+0.0` and all NaN payloads
/// unified, so the ordering agrees with the canonical hash.
fn total_cmp_canonical(a: f64, b: f64) -> Ordering {
    let canon = |f: f64| {
        if f.is_nan() {
            f64::NAN
        } else if f == 0.0 {
            0.0
        } else {
            f
        }
    };
    canon(a).total_cmp(&canon(b))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_cmp_canonical(*a, *b),
            (Int(a), Float(b)) => total_cmp_canonical(*a as f64, *b),
            (Float(a), Int(b)) => total_cmp_canonical(*a, *b as f64),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally, so both
            // hash through the canonical f64 bit pattern. Distinct huge ints
            // may collide on the same f64 — harmless, they remain unequal.
            Value::Int(i) => {
                2u8.hash(state);
                Value::canonical_f64(*i as f64).hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                Value::canonical_f64(*f).hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nulls_sort_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::str("a"), Value::Bool(true)];
        vals.sort();
        assert!(vals[0].is_null());
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_int_float_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn zero_signs_unify_in_hash() {
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(Value::Float(0.0).cmp(&Value::Float(-0.0)), Ordering::Equal);
    }

    #[test]
    fn parse_as_types() {
        assert_eq!(Value::parse_as("42", AttrType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            Value::parse_as("4.5", AttrType::Float).unwrap(),
            Value::Float(4.5)
        );
        assert_eq!(
            Value::parse_as("yes", AttrType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(Value::parse_as("", AttrType::Int).unwrap(), Value::Null);
        assert!(Value::parse_as("abc", AttrType::Int).is_err());
    }

    #[test]
    fn infer_prefers_narrowest() {
        assert_eq!(Value::infer("3"), Value::Int(3));
        assert_eq!(Value::infer("3.5"), Value::Float(3.5));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("hi"), Value::str("hi"));
        assert_eq!(Value::infer("  "), Value::Null);
    }

    #[test]
    fn coerce_round_trips() {
        assert_eq!(
            Value::Int(3).coerce(AttrType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.0).coerce(AttrType::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::str("12").coerce(AttrType::Int).unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            Value::Int(9).coerce(AttrType::Str).unwrap(),
            Value::str("9")
        );
        assert!(Value::Float(3.5).coerce(AttrType::Int).is_err());
        assert_eq!(Value::Null.coerce(AttrType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn coerce_rejects_floats_outside_i64_range() {
        // regression: these have fract() == 0.0 but `as i64` would saturate
        for f in [1e300, 9_223_372_036_854_775_808.0, -1e300, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Value::Float(f).coerce(AttrType::Int).unwrap_err();
            assert_eq!(err.kind(), "type", "{f}");
        }
        // boundary: i64::MIN is an exact double and must still convert...
        assert_eq!(
            Value::Float(-9_223_372_036_854_775_808.0)
                .coerce(AttrType::Int)
                .unwrap(),
            Value::Int(i64::MIN)
        );
        // ...and the largest double strictly below 2^63 converts exactly
        let below = 9_223_372_036_854_774_784.0f64; // 2^63 - 1024
        assert_eq!(
            Value::Float(below).coerce(AttrType::Int).unwrap(),
            Value::Int(below as i64)
        );
        assert!(Value::Float(f64::NAN).coerce(AttrType::Int).is_err());
    }

    #[test]
    fn display_null_is_empty() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }
}
