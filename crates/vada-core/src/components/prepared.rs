//! What a transducer derives from knowledge-base relations, kept across its
//! runs: derived once per version of what it reads, not once per run.
//!
//! A kept value sits beside the journal mark it is current at, and
//! [`KnowledgeBase::since`] decides whether it still is: `Unchanged` always
//! reuses it, `Rebuild` never does, and on `Rows(events)` the consumer says
//! whether those row events leave its value valid. [`Prepared`] keeps one
//! value over a set of relations (a quality reference, learned CFDs, the
//! instance matcher's context side); [`PerRelation`] keeps one per relation,
//! so a transducer that works source by source redoes only the sources an
//! edit reached. Instance matching keeps each source's correspondences with
//! its sample frontier and, while that is known, accepts appends and
//! removals or rewrites at or past it (see [`vada_match::match_source`]);
//! schema matching accepts every row event, since none changes a schema;
//! source profiling accepts none.

use std::collections::HashMap;

use vada_common::obs::key as obs_key;
use vada_common::Result;
use vada_kb::{DeltaEvent, JournalMark, KnowledgeBase, Since};

/// A value derived from some knowledge-base relations, kept with the key it
/// was derived under and the journal mark it is current at. Lives in the
/// transducer that built it, never in the knowledge base, and is never
/// persisted.
#[derive(Debug)]
pub(crate) struct Prepared<K, V> {
    kept: Option<(K, JournalMark, V)>,
}

impl<K, V> Default for Prepared<K, V> {
    fn default() -> Self {
        Prepared { kept: None }
    }
}

impl<K: PartialEq, V> Prepared<K, V> {
    /// The kept value when it was built under `key` and the journal vouches
    /// for it over `relations` (row events count only if `valid` accepts
    /// them); otherwise `build` it afresh and keep that. Says whether the
    /// value was reused. A reuse advances the mark, so steady edits to
    /// other relations never push it out of the journal window. A failed
    /// build keeps nothing.
    pub(crate) fn get_or_build(
        &mut self,
        kb: &KnowledgeBase,
        key: K,
        relations: &[&str],
        valid: impl FnOnce(&V, &[&DeltaEvent]) -> bool,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(&mut V, bool)> {
        let current = self.kept.as_ref().is_some_and(|(kept_key, mark, value)| {
            *kept_key == key
                && match kb.since(mark, relations) {
                    Since::Unchanged => true,
                    Since::Rows(events) => valid(value, &events),
                    Since::Rebuild => false,
                }
        });
        if current {
            let (_, mark, value) = self.kept.as_mut().expect("checked above");
            *mark = kb.mark();
            return Ok((value, true));
        }
        self.kept = None;
        let value = build()?;
        let (_, _, value) = self.kept.insert((key, kb.mark(), value));
        Ok((value, false))
    }

    /// [`Prepared::get_or_build`] for reference-derived state, which any
    /// change to its relations invalidates. Tallies
    /// `quality.reference.{prepared,reused}`.
    pub(crate) fn reuse_or_build(
        &mut self,
        kb: &KnowledgeBase,
        key: K,
        relations: &[&str],
        build: impl FnOnce() -> Result<V>,
    ) -> Result<&mut V> {
        let (value, reused) = self.get_or_build(kb, key, relations, |_, _| false, build)?;
        kb.obs().incr(if reused {
            obs_key::QUALITY_REF_REUSED
        } else {
            obs_key::QUALITY_REF_PREPARED
        });
        Ok(value)
    }
}

/// One [`Prepared`] value per relation, each watching its relation alone:
/// a value is rebuilt only when its own relation changed in a way the
/// consumer does not accept, or its key moved.
#[derive(Debug)]
pub(crate) struct PerRelation<K, V> {
    kept: HashMap<String, Prepared<K, V>>,
}

impl<K, V> Default for PerRelation<K, V> {
    fn default() -> Self {
        PerRelation { kept: HashMap::new() }
    }
}

impl<K: PartialEq, V> PerRelation<K, V> {
    /// Forget the values of relations not in `relations`.
    pub(crate) fn retain(&mut self, relations: &[String]) {
        self.kept.retain(|name, _| relations.contains(name));
    }

    /// [`Prepared::get_or_build`] for `relation`'s value.
    pub(crate) fn get_or_build(
        &mut self,
        kb: &KnowledgeBase,
        relation: &str,
        key: K,
        valid: impl FnOnce(&V, &[&DeltaEvent]) -> bool,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(&mut V, bool)> {
        if !self.kept.contains_key(relation) {
            self.kept.insert(relation.to_string(), Prepared::default());
        }
        let kept = self.kept.get_mut(relation).expect("inserted above");
        kept.get_or_build(kb, key, &[relation], valid, build)
    }
}
