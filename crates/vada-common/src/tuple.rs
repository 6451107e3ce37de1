//! Tuples: fixed-arity rows of [`Value`]s.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::value::Value;

/// A row of values: immutable and reference-counted, so a clone is one
/// refcount increment and every layer a row passes through (source,
/// execution input, engine fact, result, repair copy, fusion survivor,
/// journal event) shares one allocation instead of copying it. Hashable and
/// totally ordered so it can serve as a join or index key.
///
/// The refcounts and the values sit in one allocation. [`Tuple::new`] moves
/// an existing `Vec` into a fresh one; hot construction paths avoid that
/// copy by collecting an iterator of known length (`FromIterator` over a
/// slice, range or array iterator) or by draining a reused buffer
/// ([`Tuple::from_drain`]).
#[derive(Debug, Clone, Eq, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

/// Equal when the values are. A row compared with a clone of itself — the
/// common case, since rows pass between layers by refcount — is answered by
/// the pointer alone (`Arc`'s own shortcut does not apply to slices).
impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

/// The values' hash, as equality compares the values.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Tuple {
        Tuple(Arc::from(values.into()))
    }

    /// Build a tuple from the values in `buf`, leaving `buf` empty with its
    /// capacity kept — for construction that can fail half-way (parsing,
    /// decoding, head resolution) and reuses one buffer across rows.
    pub fn from_drain(buf: &mut Vec<Value>) -> Tuple {
        Tuple(buf.drain(..).collect())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The value at `idx`, if in range.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// A new tuple keeping only the fields at `indices`, in order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// A new tuple with field `idx` replaced by `value`; `self` is left
    /// untouched. Panics if `idx` is out of range.
    pub fn with_value(&self, idx: usize, value: Value) -> Tuple {
        assert!(idx < self.0.len(), "field {idx} out of range for arity {}", self.0.len());
        self.0
            .iter()
            .enumerate()
            .map(|(i, v)| if i == idx { value.clone() } else { v.clone() })
            .collect()
    }

    /// Concatenate two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Number of null fields.
    pub fn null_count(&self) -> usize {
        self.0.iter().filter(|v| v.is_null()).count()
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

/// A tuple hashes and compares exactly like its value slice (the derived
/// impls delegate through the `Arc` to the slice), so a `HashMap<Tuple, _>`
/// can be probed with a borrowed `&[Value]` — no key tuple allocated per
/// lookup.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Build a [`Tuple`] from a list of expressions convertible to [`Value`],
/// in one allocation (the values are collected from an array, not moved
/// out of a `Vec`).
///
/// ```
/// use vada_common::{tuple, Value};
/// let t = tuple!["12 High St", 3, 250000.0];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[1], Value::Int(3));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        <$crate::Tuple as ::core::iter::FromIterator<$crate::Value>>::from_iter([
            $($crate::Value::from($v)),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_and_index() {
        let t = tuple!["a", 1, 2.5, true];
        assert_eq!(t.arity(), 4);
        assert_eq!(t[0], Value::str("a"));
        assert_eq!(t[3], Value::Bool(true));
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10, 20, 30];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![30, 10]);
    }

    #[test]
    fn concat_appends() {
        let t = tuple![1].concat(&tuple![2, 3]);
        assert_eq!(t, tuple![1, 2, 3]);
    }

    #[test]
    fn null_count_counts() {
        let t = Tuple::new(vec![Value::Null, Value::Int(1), Value::Null]);
        assert_eq!(t.null_count(), 2);
    }

    #[test]
    fn with_value_replaces() {
        let t = tuple![1, 2];
        assert_eq!(t.with_value(1, Value::Int(9)), tuple![1, 9]);
        // original untouched
        assert_eq!(t, tuple![1, 2]);
    }

    #[test]
    fn a_clone_shares_the_values() {
        let t = tuple!["a", 1, 2.5];
        let c = t.clone();
        assert!(std::ptr::eq(t.values().as_ptr(), c.values().as_ptr()));
        let changed = c.with_value(0, Value::str("b"));
        assert!(!std::ptr::eq(t.values().as_ptr(), changed.values().as_ptr()));
        assert_eq!(c, tuple!["a", 1, 2.5], "with_value leaves the shared original untouched");
        assert_eq!(changed, tuple!["b", 1, 2.5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_value_out_of_range_panics() {
        let _ = tuple![1, 2].with_value(2, Value::Null);
    }

    #[test]
    fn every_constructor_builds_the_same_key() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        }
        let values = vec![Value::str("a"), Value::Int(1), Value::Null, Value::Float(2.5)];
        // `Int(1)` and `Float(1.0)` are one value, so they must be one key
        let written_apart = [Value::str("a"), Value::Float(1.0), Value::Null, Value::Float(2.5)];
        let mut buf = values.clone();
        let capacity = buf.capacity();
        let built = [
            Tuple::new(values.clone()),
            values.iter().cloned().collect::<Tuple>(),
            Tuple::from_drain(&mut buf),
        ];
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), capacity, "the drained buffer keeps its capacity");
        for t in &built {
            assert_eq!(t, &built[0]);
            assert_eq!(t.values(), &values[..]);
            assert_eq!(hash_of(t), hash_of(&values[..]), "Borrow<[Value]> contract");
            assert_eq!(hash_of(t), hash_of(&written_apart[..]));
        }
        assert_eq!(Tuple::from_drain(&mut buf), tuple![], "an empty buffer is the empty tuple");
    }

    #[test]
    fn borrowed_slice_probes_a_tuple_keyed_map() {
        use std::collections::HashMap;
        let mut m: HashMap<Tuple, usize> = HashMap::new();
        m.insert(tuple!["a", 1, 2.5], 7);
        m.insert(tuple![], 9);
        let key = [Value::str("a"), Value::Float(1.0), Value::Float(2.5)];
        assert_eq!(m.get(&key[..]), Some(&7), "Int(1) and Float(1.0) are one key");
        assert_eq!(m.get(&key[..2]), None);
        assert_eq!(m.get(&[][..]), Some(&9));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1, 2] < tuple![1, 3]);
        assert!(tuple![1] < tuple![1, 0]);
    }
}
