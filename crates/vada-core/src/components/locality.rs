//! What keeps work on the result local, stated once for the three
//! components that rely on it.
//!
//! Duplicate detection compares rows only within a **block**: the rows whose
//! [`block_attr`] has the same normal form (a row whose block attribute is
//! null is a block of its own). Repair rewrites a row from that row alone.
//! So the repair–detection–fusion chain's output for a block is a function
//! of that block's raw rows, in order — as long as repair never rewrites
//! the block attribute, which [`repair_keeps_blocks`] decides. Mapping
//! execution relies on exactly this to restore only the blocks an edit
//! reached; detection reads its blocking attribute, and repair its
//! reference and fuzzy attributes, from here, so the three cannot drift
//! apart.

use vada_common::{Result, Schema};
use vada_context::data_context::cfd_training_contexts;
use vada_kb::{CfdRule, KnowledgeBase};

/// The attribute duplicate detection blocks the result on: `postcode` when
/// the result has one, else its first attribute.
pub(crate) fn block_attr(schema: &Schema) -> &str {
    match schema.index_of("postcode") {
        Some(_) => "postcode",
        None => &schema.attr(0).name,
    }
}

/// The reference context repair runs against: the best-covering context
/// that can train CFDs, if any.
pub(crate) fn repair_reference(kb: &KnowledgeBase) -> Result<Option<String>> {
    Ok(cfd_training_contexts(kb)?.into_iter().next().map(|(name, _)| name))
}

/// The attribute fuzzy repair snaps to reference values and the attribute
/// it groups the candidates by — `street` by `postcode` — when both the
/// result and the reference have both.
pub(crate) fn fuzzy_attrs(
    result: &Schema,
    reference: &Schema,
) -> Option<(&'static str, &'static str)> {
    ["street", "postcode"]
        .iter()
        .all(|a| result.index_of(a).is_some() && reference.index_of(a).is_some())
        .then_some(("street", "postcode"))
}

/// Whether repairing rows of `result` against `reference` under `cfds`
/// leaves every row in its block: no variable CFD repair applies (one whose
/// attributes both sides have) writes the block attribute, and the fuzzy
/// attribute is not the block attribute. Constant CFDs never rewrite a
/// cell.
pub(crate) fn repair_keeps_blocks<'c>(
    result: &Schema,
    reference: &Schema,
    cfds: impl IntoIterator<Item = &'c CfdRule>,
) -> bool {
    let block = block_attr(result);
    let applies = |cfd: &CfdRule| {
        let variable = cfd.rhs.1.is_none() && cfd.lhs.iter().all(|(_, p)| p.is_none());
        let attrs = || cfd.lhs.iter().map(|(a, _)| a).chain([&cfd.rhs.0]);
        variable
            && attrs().all(|a| result.index_of(a).is_some() && reference.index_of(a).is_some())
    };
    !cfds.into_iter().any(|cfd| cfd.rhs.0 == block && applies(cfd))
        && fuzzy_attrs(result, reference).is_none_or(|(fuzzy, _)| fuzzy != block)
}
