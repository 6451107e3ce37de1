//! Weighted record similarity over typed fields.

use vada_common::text::{blocking_key, jaro_winkler_chars};
use vada_common::{Result, Tuple, VadaError, Value};

/// How a field is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Jaro-Winkler over the normal forms.
    Text,
    /// `1 − |a − b| / max(|a|, |b|)` for numeric values (numeric strings
    /// are parsed).
    Numeric,
    /// 1 when equal (normal forms), else 0.
    Exact,
}

/// One compared field with its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSpec {
    /// Column index in the tuples being compared.
    pub col: usize,
    /// Relative weight.
    pub weight: f64,
    /// Comparison kind.
    pub kind: FieldKind,
}

fn numeric_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Str(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// One compared field of one row, read once.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Null, or a `Numeric` field that does not read as a number: the field
    /// takes no part in a comparison.
    Skip,
    /// The normal form of a `Text` or `Exact` field, as a span of
    /// [`PreparedRows::chars`].
    Chars { start: usize, end: usize },
    /// The value of a `Numeric` field.
    Number(f64),
}

/// The compared fields of a set of rows, normalised once: every pair drawn
/// from them is then scored without touching a [`Value`], formatting a cell
/// or allocating. Normal forms live decoded in one flat character arena.
pub(crate) struct PreparedRows<'s> {
    spec: &'s [FieldSpec],
    chars: Vec<char>,
    /// `spec.len()` cells per prepared row, in the order rows were pushed.
    cells: Vec<Cell>,
    norm: String,
}

impl<'s> PreparedRows<'s> {
    /// An empty arena for rows of the given arity. A field naming a column
    /// the rows do not have is refused here, once, rather than panicking on
    /// the first pair that reads it.
    pub(crate) fn new(spec: &'s [FieldSpec], arity: usize) -> Result<PreparedRows<'s>> {
        if let Some((i, f)) = spec.iter().enumerate().find(|(_, f)| f.col >= arity) {
            return Err(VadaError::Schema(format!(
                "field spec {i} compares column {}, but the rows have {arity} column(s)",
                f.col
            )));
        }
        Ok(PreparedRows { spec, chars: Vec::new(), cells: Vec::new(), norm: String::new() })
    }

    /// Prepare `t` as the next row; returns its slot.
    pub(crate) fn push(&mut self, t: &Tuple) -> usize {
        let slot = self.cells.len() / self.spec.len().max(1);
        for f in self.spec {
            let cell = match f.kind {
                FieldKind::Numeric => numeric_of(&t[f.col]).map_or(Cell::Skip, Cell::Number),
                // one key column: the key is the cell's normal form, and a
                // null cell has none
                FieldKind::Text | FieldKind::Exact => {
                    if blocking_key(t, &[f.col], &mut self.norm) {
                        let start = self.chars.len();
                        self.chars.extend(self.norm.chars());
                        Cell::Chars { start, end: self.chars.len() }
                    } else {
                        Cell::Skip
                    }
                }
            };
            self.cells.push(cell);
        }
        slot
    }

    fn field_similarity(&self, kind: FieldKind, a: Cell, b: Cell) -> Option<f64> {
        match (a, b) {
            (Cell::Chars { start: sa, end: ea }, Cell::Chars { start: sb, end: eb }) => {
                let (a, b) = (&self.chars[sa..ea], &self.chars[sb..eb]);
                Some(match kind {
                    FieldKind::Exact => f64::from(a == b),
                    _ => jaro_winkler_chars(a, b),
                })
            }
            (Cell::Number(x), Cell::Number(y)) => {
                let denom = x.abs().max(y.abs());
                if denom == 0.0 {
                    Some(1.0)
                } else {
                    Some((1.0 - (x - y).abs() / denom).max(0.0))
                }
            }
            _ => None,
        }
    }

    /// Weighted similarity of the rows in slots `a` and `b`; comparisons
    /// where either side is skipped drop out (weights renormalised).
    /// Returns 0 when no field is comparable.
    pub(crate) fn similarity(&self, a: usize, b: usize) -> f64 {
        let n = self.spec.len();
        let (cells_a, cells_b) = (&self.cells[a * n..(a + 1) * n], &self.cells[b * n..(b + 1) * n]);
        let mut total_weight = 0.0;
        let mut acc = 0.0;
        for ((f, &ca), &cb) in self.spec.iter().zip(cells_a).zip(cells_b) {
            if let Some(sim) = self.field_similarity(f.kind, ca, cb) {
                acc += f.weight * sim;
                total_weight += f.weight;
            }
        }
        if total_weight == 0.0 {
            0.0
        } else {
            acc / total_weight
        }
    }
}

/// Weighted similarity of two tuples over the given fields; comparisons
/// where either side is null are skipped (weights renormalised). Returns 0
/// when no field is comparable. Clustering prepares every row once instead
/// of once per pair, and scores through the same comparison.
pub fn record_similarity(spec: &[FieldSpec], a: &Tuple, b: &Tuple) -> Result<f64> {
    let mut rows = PreparedRows::new(spec, a.arity().min(b.arity()))?;
    let (a, b) = (rows.push(a), rows.push(b));
    Ok(rows.similarity(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::tuple;

    fn spec() -> Vec<FieldSpec> {
        vec![
            FieldSpec { col: 0, weight: 2.0, kind: FieldKind::Text },
            FieldSpec { col: 1, weight: 1.0, kind: FieldKind::Numeric },
            FieldSpec { col: 2, weight: 1.0, kind: FieldKind::Exact },
        ]
    }

    #[test]
    fn identical_records_score_one() {
        let t = tuple!["12 high st", "250000", "M1 1AA"];
        assert!((record_similarity(&spec(), &t, &t).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn near_duplicates_score_high() {
        let a = tuple!["12 high st", "250000", "M1 1AA"];
        let b = tuple!["12 High St.", "251000", "M1 1AA"];
        let s = record_similarity(&spec(), &a, &b).unwrap();
        assert!(s > 0.95, "{s}");
    }

    #[test]
    fn different_records_score_low() {
        let a = tuple!["12 high st", "250000", "M1 1AA"];
        let b = tuple!["99 park rd", "780000", "EH1 1AA"];
        let s = record_similarity(&spec(), &a, &b).unwrap();
        assert!(s < 0.6, "{s}");
    }

    #[test]
    fn nulls_skip_fields_and_renormalise() {
        let a = tuple!["12 high st", "250000", "M1 1AA"];
        let b = vada_common::Tuple::new(vec![
            Value::str("12 high st"),
            Value::Null,
            Value::str("M1 1AA"),
        ]);
        let s = record_similarity(&spec(), &a, &b).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_field_past_either_tuple_is_an_error() {
        let short = tuple!["12 high st", "250000"];
        let full = tuple!["12 high st", "250000", "M1 1AA"];
        for (a, b) in [(&short, &full), (&full, &short)] {
            let err = record_similarity(&spec(), a, b).unwrap_err();
            assert_eq!(err.kind(), "schema", "{err}");
            assert!(err.message().contains("field spec 2 compares column 2"), "{err}");
        }
    }

    #[test]
    fn all_null_pairs_score_zero() {
        let a = vada_common::Tuple::new(vec![Value::Null, Value::Null, Value::Null]);
        assert_eq!(record_similarity(&spec(), &a, &a).unwrap(), 0.0);
    }

    #[test]
    fn numeric_similarity_is_relative() {
        let spec = vec![FieldSpec { col: 0, weight: 1.0, kind: FieldKind::Numeric }];
        let s_close = record_similarity(&spec, &tuple![100], &tuple![110]).unwrap();
        let s_far = record_similarity(&spec, &tuple![100], &tuple![200]).unwrap();
        assert!(s_close > s_far);
        assert_eq!(record_similarity(&spec, &tuple![0], &tuple![0]).unwrap(), 1.0);
    }
}
