//! Row-id hash tables over a fact arena. [`FactSet`](crate::engine::FactSet)
//! and the join index [`RowIndex`] share one layout: a power-of-two table
//! of ids, walked by linear probing ([`probe`]) and compared against the
//! arena, so neither stores a tuple twice. A fact set keeps the join
//! indexes the engine asks of it ([`FactSet::index`](crate::engine::FactSet::index)),
//! so every run and session that shares the facts shares their indexes.

use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::OnceLock;

use vada_common::{Tuple, Value};

/// Marks a free slot in a table, and the end of a [`RowIndex`] chain.
pub(crate) const FREE: usize = usize::MAX;

/// Hash a fact's values under a process-random SipHash key (facts come from
/// outside the program, so the tables keep the flooding resistance of the
/// `HashSet` they replaced). Taking an iterator lets a probe hash a
/// projection or a scratch buffer without building a tuple first.
pub(crate) fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut hasher = KEYS.get_or_init(RandomState::new).build_hasher();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

/// Walk the probe sequence of `hash` in `slots` (non-empty, a power of two
/// long, each slot an id or [`FREE`]): `Ok(id)` of the first id `is_match`
/// accepts, or `Err(slot)` of the free slot that ends the sequence.
pub(crate) fn probe(
    slots: &[usize],
    hash: u64,
    is_match: impl Fn(usize) -> bool,
) -> std::result::Result<usize, usize> {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match slots[slot] {
            FREE => return Err(slot),
            id if is_match(id) => return Ok(id),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// Re-seat ids `0..` in a table of `capacity` slots (a power of two), from
/// their stored hashes in id order.
pub(crate) fn reseat(slots: &mut Vec<usize>, capacity: usize, hashes: impl Iterator<Item = u64>) {
    slots.clear();
    slots.resize(capacity, FREE);
    for (id, hash) in hashes.enumerate() {
        let slot = probe(slots, hash, |_| false).expect_err("a never-matching probe ends free");
        slots[slot] = id;
    }
}

/// A join index over one predicate's rows on fixed columns: projection →
/// the rows carrying it, ascending. One open-addressing table of key
/// groups and one `next` link per row; a probe compares the key against
/// its group's first row, so no key is built or stored, and a lookup costs
/// the rows it yields.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    groups: Vec<Group>,
    /// Linear-probing table over `groups`: a group id or [`FREE`] per
    /// slot, zero or a power of two long and at least twice `groups.len()`.
    slots: Vec<usize>,
    /// Per row, the next row of its group, or [`FREE`] at a chain's end
    /// (and for rows never filed).
    next: Vec<usize>,
}

/// The rows sharing one projection: its hash, and the ends of its chain.
#[derive(Debug, Clone)]
struct Group {
    hash: u64,
    first: usize,
    last: usize,
}

impl RowIndex {
    /// File `rows` of `facts` (ascending, past every row filed before)
    /// under their projection on `cols`. Rows too short to project
    /// (mixed-arity predicates) are skipped — the join's arity check would
    /// reject them anyway.
    pub(crate) fn extend(
        &mut self,
        facts: &[Tuple],
        cols: &[usize],
        rows: impl Iterator<Item = usize>,
    ) {
        for row in rows {
            let t = &facts[row];
            if !cols.iter().all(|&c| c < t.arity()) {
                continue;
            }
            let hash = hash_values(cols.iter().map(|&c| &t[c]));
            if (self.groups.len() + 1) * 2 > self.slots.len() {
                let capacity = (self.slots.len() * 2).max(8);
                reseat(&mut self.slots, capacity, self.groups.iter().map(|g| g.hash));
            }
            self.next.resize(row + 1, FREE);
            let found = probe(&self.slots, hash, |g| {
                let g = &self.groups[g];
                g.hash == hash && cols.iter().all(|&c| facts[g.first][c] == t[c])
            });
            match found {
                Ok(g) => {
                    let last = std::mem::replace(&mut self.groups[g].last, row);
                    self.next[last] = row;
                }
                Err(slot) => {
                    self.slots[slot] = self.groups.len();
                    self.groups.push(Group { hash, first: row, last: row });
                }
            }
        }
    }

    /// The rows of `facts` whose projection on `cols` equals `key`,
    /// ascending — `facts` and `cols` as filed.
    pub(crate) fn rows(&self, facts: &[Tuple], cols: &[usize], key: &[Value]) -> Rows<'_> {
        if self.slots.is_empty() {
            return Rows::NONE;
        }
        let hash = hash_values(key);
        let found = probe(&self.slots, hash, |g| {
            let g = &self.groups[g];
            g.hash == hash && cols.iter().map(|&c| &facts[g.first][c]).eq(key)
        });
        match found {
            Ok(g) => Rows { next: &self.next, row: self.groups[g].first },
            Err(_) => Rows::NONE,
        }
    }
}

/// One key's rows, ascending: a walk along a [`RowIndex`]'s links.
pub(crate) struct Rows<'i> {
    next: &'i [usize],
    row: usize,
}

impl Rows<'static> {
    /// No rows.
    pub(crate) const NONE: Rows<'static> = Rows { next: &[], row: FREE };
}

impl Iterator for Rows<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let row = self.row;
        (row != FREE).then(|| {
            self.row = self.next[row];
            row
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FactSet;
    use proptest::prelude::*;

    /// A fact of arity 1–3 over a three-value domain, so keys repeat.
    fn fact((arity, a, b, c): (u8, u8, u8, u8)) -> Tuple {
        [a, b, c][..arity as usize].iter().map(|&v| Value::Int(v as i64)).collect()
    }

    /// One column, or two in either order (`k == l` projects on one).
    fn columns(k: u8, l: u8, two: bool) -> Vec<usize> {
        if two && k != l {
            vec![k as usize, l as usize]
        } else {
            vec![k as usize]
        }
    }

    /// Every key's chain equals the ascending visible rows whose projection
    /// equals it, and an absent key yields no row.
    fn check(
        index: &RowIndex,
        facts: &[Tuple],
        cols: &[usize],
        visible: &[usize],
    ) -> std::result::Result<(), TestCaseError> {
        let projectable: Vec<usize> = visible
            .iter()
            .copied()
            .filter(|&row| cols.iter().all(|&c| c < facts[row].arity()))
            .collect();
        for &row in &projectable {
            let key: Vec<Value> = cols.iter().map(|&c| facts[row][c].clone()).collect();
            let expected: Vec<usize> = projectable
                .iter()
                .copied()
                .filter(|&r| cols.iter().map(|&c| &facts[r][c]).eq(&key))
                .collect();
            prop_assert_eq!(index.rows(facts, cols, &key).collect::<Vec<_>>(), expected);
        }
        let absent = vec![Value::Int(99); cols.len()];
        prop_assert_eq!(index.rows(facts, cols, &absent).count(), 0);
        Ok(())
    }

    proptest! {
        #[test]
        fn chains_list_exactly_the_rows_of_their_key(
            rows in proptest::collection::vec((1u8..4, 0u8..3, 0u8..3, 0u8..3), 0..60),
            hidden in proptest::collection::vec(0usize..60, 0..20),
            shape in (0u8..3, 0u8..3, 0u8..2),
            split in 0usize..61
        ) {
            let facts: Vec<Tuple> = rows.into_iter().map(fact).collect();
            let cols = columns(shape.0, shape.1, shape.2 == 1);
            let all: Vec<usize> = (0..facts.len()).collect();

            // all at once
            let mut whole = RowIndex::default();
            whole.extend(&facts, &cols, 0..facts.len());
            check(&whole, &facts, &cols, &all)?;

            // over a prefix, then extended over the rest: a fact set's kept
            // index, asked for before and after appends that dedup the facts
            let mut kept = FactSet::default();
            let split = split.min(facts.len());
            for t in &facts[..split] {
                kept.insert(t.clone());
            }
            kept.index(&cols);
            for t in &facts[split..] {
                kept.insert(t.clone());
            }
            let index = kept.index(&cols).0;
            let stored = kept.tuples();
            check(&index.rows, stored, &cols, &(0..stored.len()).collect::<Vec<_>>())?;

            // over a view with some facts filtered out
            let mut minus = FactSet::default();
            for &row in hidden.iter().filter(|&&row| row < facts.len()) {
                minus.insert(facts[row].clone());
            }
            let visible: Vec<usize> =
                all.into_iter().filter(|&row| !minus.contains(&facts[row])).collect();
            let mut filtered = RowIndex::default();
            filtered.extend(&facts, &cols, visible.iter().copied());
            check(&filtered, &facts, &cols, &visible)?;
        }
    }
}
