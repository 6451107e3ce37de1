//! In-memory relations: a [`Schema`] plus a bag of [`Tuple`]s.
//!
//! Relations are the unit of data exchanged between wrangling components and
//! stored in the knowledge base. They are bags (duplicates allowed) because
//! extraction output routinely contains duplicates — deduplication is itself
//! a wrangling step (`vada-fusion`).

use std::fmt;

use crate::error::{Result, VadaError};
use crate::schema::Schema;
use crate::tuple::Tuple;

/// An in-memory relation (bag semantics). Its rows are shared [`Tuple`]s,
/// so cloning a relation copies one handle per row, never a value.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation { schema, tuples: Vec::new() }
    }

    /// Build a relation from tuples, validating arity (types are not strictly
    /// enforced: wrangling inputs are dirty by nature, and nulls are legal in
    /// every column).
    pub fn from_tuples(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(VadaError::Schema(format!(
                    "tuple arity {} does not match schema `{}` arity {}",
                    t.arity(),
                    schema.name,
                    schema.arity()
                )));
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's name (shorthand for `schema().name`).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples as a slice.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Append a tuple, validating arity.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(VadaError::Schema(format!(
                "tuple arity {} does not match schema `{}` arity {}",
                tuple.arity(),
                self.schema.name,
                self.schema.arity()
            )));
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Append many tuples.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<()> {
        for t in tuples {
            self.push(t)?;
        }
        Ok(())
    }

    /// Replace the tuple at `row`.
    pub fn replace(&mut self, row: usize, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(VadaError::Schema("arity mismatch in replace".into()));
        }
        if row >= self.tuples.len() {
            return Err(VadaError::Schema(format!("row {row} out of range")));
        }
        self.tuples[row] = tuple;
        Ok(())
    }

    /// Remove the tuples at the given row indices (interpreted against the
    /// pre-removal numbering; duplicates are collapsed), preserving the
    /// relative order of the remaining rows. Returns the removed tuples in
    /// ascending row order. Compacts in place: the cost is the rows
    /// removed plus the tail behind the first of them, not the relation.
    pub fn remove_rows(&mut self, rows: &[usize]) -> Result<Vec<Tuple>> {
        let mut sorted: Vec<usize> = rows.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&last) = sorted.last() {
            if last >= self.tuples.len() {
                return Err(VadaError::Schema(format!(
                    "row {last} out of range for `{}` ({} rows)",
                    self.schema.name,
                    self.tuples.len()
                )));
            }
        }
        let Some(&first) = sorted.first() else {
            return Ok(Vec::new());
        };
        if sorted.len() == 1 {
            return Ok(vec![self.tuples.remove(first)]);
        }
        let removed: Vec<Tuple> = sorted.iter().map(|&r| self.tuples[r].clone()).collect();
        // one pass over the tail: each surviving row is swapped down into
        // the next free slot, which leaves the removed rows behind `write`
        let mut write = first;
        let mut next = sorted[1..].iter().peekable();
        for read in first + 1..self.tuples.len() {
            if next.peek() == Some(&&read) {
                next.next();
            } else {
                self.tuples.swap(write, read);
                write += 1;
            }
        }
        self.tuples.truncate(write);
        Ok(removed)
    }

    /// Insert `rows[i]` so that it ends up at index `positions[i]` of the
    /// grown relation (`positions` strictly ascending, each below the new
    /// length), keeping the relative order of the rows already there.
    /// Validates everything ([`check_insert`](Self::check_insert)) before
    /// the first row moves. The cost is the rows inserted plus the tail
    /// behind the first of them.
    pub fn insert_rows(&mut self, positions: &[usize], rows: &[Tuple]) -> Result<()> {
        self.check_insert(positions, rows)?;
        insert_at(&mut self.tuples, positions, |i| rows[i].clone());
        Ok(())
    }

    /// Whether [`insert_rows`](Self::insert_rows) accepts `positions` and
    /// `rows`: as many of each, positions strictly ascending and inside the
    /// grown relation, every row of the schema's arity.
    pub fn check_insert(&self, positions: &[usize], rows: &[Tuple]) -> Result<()> {
        if positions.len() != rows.len() {
            return Err(VadaError::Schema(format!(
                "{} position(s) for {} inserted row(s)",
                positions.len(),
                rows.len()
            )));
        }
        let len = self.tuples.len() + rows.len();
        if let Some(pair) = positions.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(VadaError::Schema(format!(
                "insert positions {} and {} are not ascending",
                pair[0], pair[1]
            )));
        }
        if let Some(&last) = positions.last().filter(|&&last| last >= len) {
            return Err(VadaError::Schema(format!(
                "insert position {last} out of range for `{}` ({len} rows after the insert)",
                self.schema.name
            )));
        }
        if let Some(t) = rows.iter().find(|t| t.arity() != self.schema.arity()) {
            return Err(VadaError::Schema(format!(
                "tuple arity {} does not match schema `{}` arity {}",
                t.arity(),
                self.schema.name,
                self.schema.arity()
            )));
        }
        Ok(())
    }

    /// Retain only tuples matching the predicate.
    pub fn retain(&mut self, f: impl FnMut(&Tuple) -> bool) {
        self.tuples.retain(f);
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
    }

    /// Project to the named attributes (bag semantics preserved).
    pub fn project(&self, names: &[&str]) -> Result<Relation> {
        let schema = self.schema.project(names)?;
        let indices: Vec<usize> = names
            .iter()
            .map(|n| self.schema.require(n))
            .collect::<Result<_>>()?;
        let tuples = self.tuples.iter().map(|t| t.project(&indices)).collect();
        Relation::from_tuples(schema, tuples)
    }

    /// Fraction of non-null cells in column `name` (1.0 for empty relations:
    /// an empty column violates nothing).
    pub fn completeness(&self, name: &str) -> Result<f64> {
        let idx = self.schema.require(name)?;
        if self.tuples.is_empty() {
            return Ok(1.0);
        }
        let non_null = self.tuples.iter().filter(|t| !t[idx].is_null()).count();
        Ok(non_null as f64 / self.tuples.len() as f64)
    }

    /// Deduplicate identical tuples in place (set semantics snapshot).
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.tuples.retain(|t| seen.insert(t.clone()));
    }

    /// Render as an aligned text table (for reports and the demo harness).
    pub fn to_table(&self, max_rows: usize) -> String {
        let headers = self.schema.attr_names();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let shown = self.tuples.iter().take(max_rows).collect::<Vec<_>>();
        let cells: Vec<Vec<String>> = shown
            .iter()
            .map(|t| t.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, row: &[String]| {
            for (i, c) in row.iter().enumerate() {
                out.push_str("| ");
                out.push_str(c);
                out.push_str(&" ".repeat(widths[i].saturating_sub(c.len()) + 1));
            }
            out.push_str("|\n");
        };
        line(
            &mut out,
            &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        );
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &cells {
            line(&mut out, row);
        }
        if self.tuples.len() > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.tuples.len()));
        }
        out
    }
}

/// Insert `positions.len()` items into `items` so that the `i`-th, built by
/// `new(i)`, ends up at index `positions[i]` of the grown vector, keeping
/// the relative order of the items already there. `positions` must be
/// strictly ascending and inside the grown vector. The cost is the items
/// inserted plus the tail behind the first of them. Whatever is kept row
/// by row beside a relation makes room for an insert through this, as
/// [`Relation::insert_rows`] does for the rows themselves.
pub fn insert_at<T>(items: &mut Vec<T>, positions: &[usize], mut new: impl FnMut(usize) -> T) {
    let Some(&first) = positions.first() else { return };
    let len = items.len() + positions.len();
    let mut tail = items.split_off(first).into_iter();
    let mut next = 0;
    for at in first..len {
        if positions.get(next) == Some(&at) {
            items.push(new(next));
            next += 1;
        } else {
            items.push(tail.next().expect("positions inside the grown vector"));
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} rows]", self.schema, self.tuples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;
    use crate::tuple;
    use crate::value::Value;

    fn rel() -> Relation {
        let schema = Schema::new(
            "r",
            [("a", AttrType::Int), ("b", AttrType::Str)],
        )
        .unwrap();
        Relation::from_tuples(
            schema,
            vec![tuple![1, "x"], tuple![2, "y"], tuple![1, "z"]],
        )
        .unwrap()
    }

    #[test]
    fn arity_is_validated() {
        let schema = Schema::all_str("r", &["a"]);
        assert!(Relation::from_tuples(schema.clone(), vec![tuple![1, 2]]).is_err());
        let mut r = Relation::empty(schema);
        assert!(r.push(tuple![1, 2]).is_err());
        assert!(r.push(tuple![1]).is_ok());
    }

    #[test]
    fn project_and_select() {
        let r = rel();
        let p = r.project(&["b"]).unwrap();
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn completeness_counts_nulls() {
        let schema = Schema::all_str("r", &["a"]);
        let r = Relation::from_tuples(
            schema,
            vec![
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::str("v")]),
            ],
        )
        .unwrap();
        assert!((r.completeness("a").unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_rows_preserves_remaining_order() {
        let mut r = rel();
        let removed = r.remove_rows(&[2, 0, 2]).unwrap();
        assert_eq!(removed, vec![tuple![1, "x"], tuple![1, "z"]]);
        assert_eq!(r.tuples(), &[tuple![2, "y"]]);
        assert!(r.remove_rows(&[5]).is_err());
        assert!(r.remove_rows(&[]).unwrap().is_empty());
    }

    #[test]
    fn insert_rows_lands_each_row_at_its_post_insert_position() {
        let mut r = rel();
        let before = r.tuples().to_vec();
        r.insert_rows(&[0, 2, 5], &[tuple![7, "a"], tuple![8, "b"], tuple![9, "c"]]).unwrap();
        assert_eq!(r.len(), 6);
        assert_eq!(
            r.tuples(),
            &[
                tuple![7, "a"],
                before[0].clone(),
                tuple![8, "b"],
                before[1].clone(),
                before[2].clone(),
                tuple![9, "c"],
            ]
        );
        // refused whole: out of range, not ascending, a count or an arity
        // that disagrees
        let kept = r.tuples().to_vec();
        assert!(r.insert_rows(&[7], &[tuple![1, "x"]]).is_err());
        assert!(r.insert_rows(&[1, 1], &[tuple![1, "x"], tuple![1, "y"]]).is_err());
        assert!(r.insert_rows(&[1], &[]).is_err());
        assert!(r.insert_rows(&[0], &[tuple![1]]).is_err());
        assert_eq!(r.tuples(), kept.as_slice());
        r.insert_rows(&[], &[]).unwrap();
        assert_eq!(r.tuples(), kept.as_slice());
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let schema = Schema::all_str("r", &["a"]);
        let mut r = Relation::from_tuples(
            schema,
            vec![
                Tuple::new(vec![Value::str("x")]),
                Tuple::new(vec![Value::str("x")]),
            ],
        )
        .unwrap();
        r.dedup();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn to_table_renders() {
        let r = rel();
        let t = r.to_table(2);
        assert!(t.contains("| a"));
        assert!(t.contains("(3 rows total)"));
    }
}
