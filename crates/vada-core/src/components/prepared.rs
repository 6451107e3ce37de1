//! What a quality transducer derives from context relations, kept across
//! its runs: the reference is prepared once per version, not once per run.

use vada_common::obs::key as obs_key;
use vada_common::Result;
use vada_kb::{JournalMark, KnowledgeBase, Since};

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
    /// The kept value when it was built under `key` and `relations` are
    /// [`Since::Unchanged`] since its mark; otherwise `build` it afresh
    /// and keep that. A reuse advances the mark, so steady edits to other
    /// relations never push it out of the journal window. Tallies
    /// `quality.reference.{prepared,reused}`. A failed build keeps nothing.
    pub(crate) fn reuse_or_build(
        &mut self,
        kb: &KnowledgeBase,
        key: K,
        relations: &[&str],
        build: impl FnOnce() -> Result<V>,
    ) -> Result<&mut V> {
        let current = self.kept.as_ref().is_some_and(|(kept_key, mark, _)| {
            *kept_key == key && kb.since(mark, relations) == Since::Unchanged
        });
        if current {
            kb.obs().incr(obs_key::QUALITY_REF_REUSED);
            let (_, mark, value) = self.kept.as_mut().expect("checked above");
            *mark = kb.mark();
            return Ok(value);
        }
        self.kept = None;
        let value = build()?;
        kb.obs().incr(obs_key::QUALITY_REF_PREPARED);
        let (_, _, value) = self.kept.insert((key, kb.mark(), value));
        Ok(value)
    }
}
