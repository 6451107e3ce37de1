//! Mapping transducers: generation, selection, execution.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;

use vada_common::obs::key as obs_key;
use vada_common::text::blocking_key;
use vada_common::{Result, Schema, Tuple, VadaError};
use vada_context::UserContext;
use vada_kb::{CellVeto, JournalMark, KnowledgeBase, Since};
use vada_map::{
    generate_candidates, rank_mappings, ExecuteConfig, MapGenConfig, MappingScore, Part,
    ResultStore,
};

use crate::components::feedback::veto_rows;
use crate::components::follow::{follow, Origins};
use crate::components::locality::{block_attr, repair_keeps_blocks, repair_reference};
use crate::criteria::canonicalize_statements;
use crate::transducer::{Activity, RunOutcome, Transducer};

/// One [`ResultStore`] handle shared by the mapping transducers of a
/// fleet: [`MappingQuality`](crate::components::MappingQuality)
/// materialises every candidate into it, and [`MappingExecution`] takes
/// the selected one back out.
pub type SharedStore = Rc<RefCell<ResultStore>>;

/// Generate candidate mappings from the current matches (paper Table 1:
/// "Mapping Generation — Src/Target Schemas"; the schemas enter through
/// the matches over them).
#[derive(Debug, Default)]
pub struct MappingGeneration {
    /// Generation configuration.
    pub config: MapGenConfig,
}

impl Transducer for MappingGeneration {
    fn name(&self) -> &str {
        "mapping_generation"
    }

    fn activity(&self) -> Activity {
        Activity::Mapping
    }

    fn input_dependency(&self) -> &str {
        r#"match(_, _, _, _, S, _), S >= 0.5, target_attr(_, _, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["matches", "target", "relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let candidates = generate_candidates(&self.config, kb)?;
        kb.clear_mappings();
        kb.clear_quality("mapping");
        let n = candidates.len();
        for c in candidates {
            kb.add_mapping(c);
        }
        Ok(RunOutcome::new(format!("{n} candidate mappings"), n))
    }
}

/// Select among candidate mappings by weighted utility over their quality
/// metrics (paper Table 1: "Mapping Selection — Quality Metrics"; §3 step
/// 4: weights derived from the user context's pairwise comparisons).
#[derive(Debug, Default)]
pub struct MappingSelection;

impl Transducer for MappingSelection {
    fn name(&self) -> &str {
        "mapping_selection"
    }

    fn activity(&self) -> Activity {
        Activity::Selection
    }

    fn input_dependency(&self) -> &str {
        r#"quality("mapping", _, _, _, _)"#
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        &["quality", "user_context"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let target = kb
            .target_schema()
            .ok_or_else(|| VadaError::Kb("no target schema".into()))?
            .name
            .clone();
        // per-mapping criterion scores from the quality facts
        let mut scores: std::collections::BTreeMap<String, Vec<(String, f64)>> =
            Default::default();
        let mut criteria: std::collections::BTreeSet<String> = Default::default();
        for q in kb.quality_facts() {
            if q.entity_kind == "mapping" {
                scores
                    .entry(q.entity.clone())
                    .or_default()
                    .push((q.criterion.clone(), q.value));
                criteria.insert(q.criterion.clone());
            }
        }
        if scores.is_empty() {
            return Ok(RunOutcome::noop("no mapping quality metrics"));
        }
        let candidates: Vec<MappingScore> = scores
            .into_iter()
            .map(|(id, pairs)| MappingScore {
                mapping_id: id,
                scores: pairs.into_iter().collect(),
            })
            .collect();
        // derive the user context; without statements, weigh all criteria
        // equally
        let extra: Vec<vada_context::Criterion> = criteria
            .iter()
            .filter_map(|c| vada_context::Criterion::parse(c).ok())
            .collect();
        let statements = canonicalize_statements(kb.user_context(), &target)?;
        let ctx = if statements.is_empty() {
            UserContext::uniform(extra)?
        } else {
            UserContext::derive(&statements, &extra)?
        };
        let ranked = rank_mappings(&candidates, &ctx);
        let (best, utility) = ranked.first().expect("non-empty candidates").clone();
        let changed = kb.selected_mapping() != Some(best.as_str());
        if changed {
            kb.select_mapping(&best)?;
        }
        Ok(RunOutcome::new(
            format!(
                "selected {best} (utility {utility:.3}) out of {} candidates{}",
                ranked.len(),
                if changed { "" } else { " — unchanged" }
            ),
            usize::from(changed),
        ))
    }
}

/// Execute the selected mapping and materialise the result (re-applying
/// any feedback-derived vetoes so user corrections survive
/// re-materialisation). The selected mapping comes from the
/// [`ResultStore`] — in the default fleet the one
/// [`MappingQuality`](crate::components::MappingQuality) filled, so it is a
/// hit while the journal proves no source changed, and is rebuilt
/// otherwise.
///
/// The result it stores is then repaired and fused in place, so the next
/// output cannot simply be put over it: that would send repair, detection
/// and fusion back over every row. Execution therefore keeps its *own*
/// last output — the mapping's rows with the vetoes applied, before repair
/// and fusion rewrote them — with the journal mark after the write, and
/// follows the result's row events since to know which output row each
/// stored row holds. The next output is diffed against that previous
/// output row by row, and only the blocks the diff reached (a block is
/// duplicate detection's: the rows sharing a postcode) are restored: their
/// stored rows removed, their new output rows inserted at their output
/// positions, as two row-level edits. Outside those blocks
/// the output rows are the same rows in the same order, and what is stored
/// there is what the chain makes of them, so the chain, which follows row
/// edits, ends where it would after a whole put.
///
/// The row diff is the store's. Execution keeps, per part of its output
/// ([`Part`]), the part's version and the output row each of its rows
/// became. A row of the next output pairs with a row of the previous one
/// when its part is the version written there, or a refresh of that
/// version ([`Part::parent`]) in which the row continues one
/// ([`Part::continues`]); rows the candidate or a veto dropped pair on
/// neither side. A part that neither is nor refreshes a written version —
/// a re-selected structure, a changed target: the store's fingerprints pin
/// rules, sources and target — pairs nothing, and its blocks are restored
/// whole. A pair that would cross an earlier one stays unpaired, so the
/// pairing is order-preserving, and any order-preserving pairing of equal
/// rows is an exact diff. An output none of whose rows pairs is put whole,
/// as on the first run: the diff would restore every block, and a changed
/// target's rows would not fit the relation written before. So is one
/// where a condition fails; the diff rests on four, checked on every run:
///
/// 1. the journal vouches for the result's row events since the mark
///    ([`KnowledgeBase::since`] answers `Unchanged` or `Rows`), and every
///    stored row is one execution wrote;
/// 2. the vetoes are the ones it last applied — a new veto means
///    `feedback_repair` edited fused rows in place — so whether a veto
///    drops or rewrites a row depends on the row alone;
/// 3. repair's inputs are unchanged since the mark: the data-context
///    relations and bindings, and the CFDs;
/// 4. repair cannot move a row between blocks: no CFD it applies writes
///    the block attribute, and it does not snap that attribute.
#[derive(Debug, Default)]
pub struct MappingExecution {
    store: SharedStore,
    written: Option<Written>,
}

/// What [`MappingExecution`] last wrote, and what it wrote it under.
#[derive(Debug)]
struct Written {
    under: Under,
    /// What the next diff reads of the output.
    raw: Raw,
    /// The parts the output was made of.
    chains: Vec<Chain>,
    /// The journal mark after the write.
    mark: JournalMark,
    /// Per stored row, the output row it holds, as of `mark`.
    origins: Origins,
}

/// What a diff reads of the output it follows: after a whole put, the
/// output rows, vetoes applied, in output order, until the first diff
/// computes their blocks; from then on, only the blocks.
#[derive(Debug)]
enum Raw {
    Rows(Vec<Tuple>),
    Blocks(RawBlocks),
}

/// What an output is written under: conditions 2 and 3, besides the
/// context relations' rows.
#[derive(Debug, PartialEq)]
struct Under {
    vetoes: Vec<CellVeto>,
    /// The version the CFDs last changed at: not their content, since
    /// repair may have run under other CFDs in between.
    cfds: u64,
    /// The version the data-context bindings and kinds last moved at.
    data_context: u64,
}

impl Under {
    fn of(kb: &KnowledgeBase) -> Under {
        Under {
            vetoes: kb.vetoes().to_vec(),
            cfds: kb.aspect_version("cfds"),
            data_context: kb.aspect_version("data_context"),
        }
    }
}

/// One part of an output: the part's version and, per row of the part, the
/// output row it became, or [`NEW`] when the candidate or a veto dropped it.
#[derive(Debug)]
struct Chain {
    version: u64,
    at: Vec<u32>,
}

/// No row: an output row that pairs with no row of the previous output, or
/// a part's row that no output row holds.
const NEW: u32 = u32::MAX;

/// The chains of the output `parts` make once the vetoes drop the rows at
/// `vetoed` (positions among the candidate's rows, ascending), and per row
/// of that output, the row of the output `written` describes that it pairs
/// with, or [`NEW`]. Part `k` pairs with the written part `k` only, through
/// its version or its parent's; a pair that would cross an earlier one
/// stays unpaired.
fn pair_parts(written: &[Chain], parts: &[Part<'_>], vetoed: &[usize]) -> (Vec<Chain>, Vec<u32>) {
    let mut vetoed = vetoed.iter().copied().peekable();
    let (mut candidate_row, mut next_old) = (0, 0);
    let mut kept = Vec::new();
    let mut chains = Vec::with_capacity(parts.len());
    for (k, part) in parts.iter().enumerate() {
        // the row of the written output a row of this part is
        let was = |row: usize| match written.get(k) {
            Some(w) if w.version == part.version => Some(w.at[row]),
            Some(w) if part.parent == Some(w.version) => part.continues[row].map(|r| w.at[r]),
            _ => None,
        };
        let mut dropped = part.dropped.iter().copied().peekable();
        let mut at = Vec::with_capacity(part.rows.len());
        for row in 0..part.rows.len() {
            // the candidate drops the row, or a veto does
            let gone = dropped.next_if_eq(&row).is_some() || {
                candidate_row += 1;
                vetoed.next_if_eq(&(candidate_row - 1)).is_some()
            };
            if gone {
                at.push(NEW);
                continue;
            }
            let old = was(row).filter(|&old| old != NEW && old >= next_old);
            if let Some(old) = old {
                next_old = old + 1;
            }
            at.push(kept.len() as u32);
            kept.push(old.unwrap_or(NEW));
        }
        chains.push(Chain { version: part.version, at });
    }
    (chains, kept)
}

/// A block id for a row whose block attribute is null: a block of its own.
const UNKEYED: u32 = u32::MAX;

/// Per output row, its block: one id per hash of the normal form of the
/// block attribute, or [`UNKEYED`]. Two forms whose hashes collide share an
/// id, which only makes a diff restore both blocks when it reaches one:
/// restoring a block whole is exact whatever reached it.
#[derive(Debug, Default)]
struct RawBlocks {
    of: Vec<u32>,
    ids: HashMap<u64, u32>,
}

impl RawBlocks {
    /// The block of `t`, whose block attribute is column `col`.
    fn id(&mut self, t: &Tuple, col: usize, key: &mut String) -> u32 {
        if !blocking_key(t, &[col], key) {
            return UNKEYED;
        }
        let mut hash = DefaultHasher::new();
        key.hash(&mut hash);
        let next = self.ids.len() as u32;
        *self.ids.entry(hash.finish()).or_insert(next)
    }
}

/// What a diffed write did.
struct Diffed {
    blocks: usize,
    removed: usize,
    inserted: usize,
}

impl Written {
    /// Whether the next output, typed in `schema`, may be written as a diff
    /// against this one: the four conditions of [`MappingExecution`]. Brings
    /// the origins up to date as it checks the first.
    fn diffable(&mut self, kb: &KnowledgeBase, under: &Under, schema: &Schema) -> Result<bool> {
        if self.under != *under {
            return Ok(false);
        }
        let contexts: Vec<String> = kb.context_relations().into_iter().map(|(r, _)| r).collect();
        let contexts: Vec<&str> = contexts.iter().map(String::as_str).collect();
        if kb.since(&self.mark, &contexts) != Since::Unchanged {
            return Ok(false);
        }
        if let Some(reference) = repair_reference(kb)? {
            let reference = kb.relation(&reference)?.schema();
            if !repair_keeps_blocks(schema, reference, kb.cfds()) {
                return Ok(false);
            }
        }
        Ok(follow(kb, &self.mark, &schema.name, &mut self.origins)
            && !self.origins.0.contains(&Origins::FOREIGN))
    }

    /// Write `raw`, the next output, typed in `schema`, as the diff against
    /// this one, `kept` pairing its rows with this one's ([`pair_parts`]):
    /// remove the stored rows of every block the diff reached and insert
    /// that block's rows of `raw` at their output positions. Returns the
    /// blocks of `raw` and the origins after the write, and what the write
    /// did.
    fn diff(
        self,
        kb: &mut KnowledgeBase,
        schema: &Schema,
        raw: &[Tuple],
        kept: &[u32],
    ) -> Result<(RawBlocks, Origins, Diffed)> {
        let col = schema.require(block_attr(schema))?;
        let mut key = String::new();
        let mut blocks = match self.raw {
            Raw::Blocks(blocks) => blocks,
            Raw::Rows(rows) => {
                let mut blocks = RawBlocks::default();
                blocks.of = rows.iter().map(|t| blocks.id(t, col, &mut key)).collect();
                blocks
            }
        };
        let mut new_of_old = vec![NEW; blocks.of.len()];
        for (j, &i) in kept.iter().enumerate().filter(|(_, &i)| i != NEW) {
            new_of_old[i as usize] = j as u32;
        }
        let block_of_new: Vec<u32> = raw
            .iter()
            .zip(kept)
            .map(|(t, &i)| match i {
                NEW => blocks.id(t, col, &mut key),
                i => blocks.of[i as usize],
            })
            .collect();
        // a removed or added row puts its block in the set, or itself when
        // it has none
        let mut touched = vec![false; blocks.ids.len()];
        let (mut unkeyed, mut reached) = (0, 0);
        let gone = blocks.of.iter().zip(&new_of_old).filter(|(_, &j)| j == NEW).map(|(b, _)| b);
        let added = block_of_new.iter().zip(kept).filter(|(_, &i)| i == NEW).map(|(b, _)| b);
        for &b in gone.chain(added) {
            match b {
                UNKEYED => unkeyed += 1,
                b if !touched[b as usize] => {
                    touched[b as usize] = true;
                    reached += 1;
                }
                _ => {}
            }
        }
        let restored = |b: u32, paired: bool| !paired || (b != UNKEYED && touched[b as usize]);
        let mut removals = Vec::new();
        // the result after the write, as output rows: the stored rows that
        // stay and the restored rows, merged in output order
        let mut origins = Vec::with_capacity(raw.len());
        let mut stays = Vec::new();
        for (s, &o) in self.origins.0.iter().enumerate() {
            let new = new_of_old[o as usize];
            if restored(blocks.of[o as usize], new != NEW) {
                removals.push(s);
            } else {
                stays.push(new);
            }
        }
        let mut inserts = Vec::new();
        let mut stays = stays.into_iter().peekable();
        for (j, (&b, &i)) in block_of_new.iter().zip(kept).enumerate() {
            if !restored(b, i != NEW) {
                continue;
            }
            while let Some(n) = stays.next_if(|&n| (n as usize) < j) {
                origins.push(n);
            }
            inserts.push((origins.len(), raw[j].clone()));
            origins.push(j as u32);
        }
        origins.extend(stays);
        kb.remove_rows(&schema.name, &removals)?;
        kb.insert_rows(&schema.name, &inserts)?;
        blocks.of = block_of_new;
        let diffed =
            Diffed { blocks: reached + unkeyed, removed: removals.len(), inserted: inserts.len() };
        Ok((blocks, Origins(origins), diffed))
    }
}

impl MappingExecution {
    /// A mapping-execution transducer reading through `store`. [`Default`]
    /// gives it a private store of its own.
    pub fn with_store(store: SharedStore) -> MappingExecution {
        MappingExecution { store, written: None }
    }
}

impl Transducer for MappingExecution {
    fn name(&self) -> &str {
        "mapping_execution"
    }

    fn activity(&self) -> Activity {
        Activity::Execution
    }

    fn input_dependency(&self) -> &str {
        "selected_mapping(_)"
    }

    fn input_aspects(&self) -> &'static [&'static str] {
        // NOT `feedback`: vetoes reach the current result through the
        // feedback_repair transducer; execution re-applies them only when a
        // re-materialisation happens for structural reasons.
        &["selection", "mappings", "relations"]
    }

    fn run(&mut self, kb: &mut KnowledgeBase) -> Result<RunOutcome> {
        let id = kb
            .selected_mapping()
            .expect("dependency guarantees a selection")
            .to_string();
        let mapping = kb
            .get_mapping(&id)
            .ok_or_else(|| VadaError::Kb(format!("selected mapping `{id}` vanished")))?
            .clone();
        let (result, vetoed, chains, kept) = {
            let mut store = self.store.borrow_mut();
            let candidate = store.candidate(&ExecuteConfig::default(), &mapping, kb)?;
            // the one copy: the result the vetoes apply to and the KB keeps
            let mut result = candidate.to_relation();
            let (vetoed, gone) = veto_rows(&mut result, kb.vetoes());
            let parts: Vec<Part> = candidate.parts().collect();
            let written = self.written.as_ref().map_or(&[][..], |w| &w.chains);
            let (chains, kept) = pair_parts(written, &parts, &gone);
            (result, vetoed, chains, kept)
        };
        let rows = result.len();
        let under = Under::of(kb);
        // taken out, so a failed write leaves nothing kept; an output none
        // of whose rows pairs is put whole
        let diffable = match self.written.take() {
            Some(mut last) if kept.iter().any(|&old| old != NEW) => {
                last.diffable(kb, &under, result.schema())?.then_some(last)
            }
            _ => None,
        };
        let summary = format!("materialised {rows} rows from {id} ({vetoed} cells vetoed)");
        let (raw, origins, outcome) = match diffable {
            Some(last) => {
                let (blocks, origins, diffed) =
                    last.diff(kb, result.schema(), result.tuples(), &kept)?;
                let writes = diffed.removed + diffed.inserted;
                kb.obs().incr(obs_key::MAP_RESULT_DIFFED);
                kb.obs().add(obs_key::MAP_RESULT_DIFF_ROWS, writes as u64);
                let summary = format!(
                    "{summary}; restored {} block(s): {} row(s) removed, {} inserted",
                    diffed.blocks, diffed.removed, diffed.inserted
                );
                (Raw::Blocks(blocks), origins, RunOutcome::new(summary, writes))
            }
            None => {
                let raw = Raw::Rows(result.tuples().to_vec());
                kb.put_result(result);
                kb.obs().incr(obs_key::MAP_RESULT_WHOLE);
                (raw, Origins((0..rows as u32).collect()), RunOutcome::new(summary, rows))
            }
        };
        let mark = kb.mark();
        self.written = Some(Written { under, raw, chains, mark, origins });
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType, Relation, Schema};
    use vada_kb::{MatchDef, QualityFact};

    fn kb_ready_for_mapping() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["250000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["£300,000", "9 park rd", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        for (id, src, tgt) in [
            ("m0", "price", "price"),
            ("m1", "street", "street"),
            ("m2", "postcode", "postcode"),
        ] {
            kb.add_match(MatchDef {
                id: id.into(),
                src_rel: "rightmove".into(),
                src_attr: src.into(),
                tgt_attr: tgt.into(),
                score: 0.95,
                matcher: "schema".into(),
            });
        }
        kb
    }

    #[test]
    fn generation_selection_execution_chain() {
        let mut kb = kb_ready_for_mapping();
        let mut gen = MappingGeneration::default();
        assert!(gen.ready(&kb).unwrap());
        let out = gen.run(&mut kb).unwrap();
        assert_eq!(out.writes, 1);
        let mapping_id = kb.mappings().next().unwrap().id.clone();

        // selection needs quality facts
        let mut sel = MappingSelection;
        assert!(!sel.ready(&kb).unwrap());
        kb.add_quality(QualityFact {
            entity_kind: "mapping".into(),
            entity: mapping_id.clone(),
            metric: "completeness".into(),
            criterion: "completeness(price)".into(),
            value: 0.9,
        });
        assert!(sel.ready(&kb).unwrap());
        let out = sel.run(&mut kb).unwrap();
        assert_eq!(kb.selected_mapping(), Some(mapping_id.as_str()));
        assert_eq!(out.writes, 1);
        // reselecting the same mapping writes nothing
        let out = sel.run(&mut kb).unwrap();
        assert_eq!(out.writes, 0);

        let mut exec = MappingExecution::default();
        assert!(exec.ready(&kb).unwrap());
        exec.run(&mut kb).unwrap();
        let result = kb.relation("property").unwrap();
        assert_eq!(result.len(), 2);
        // price coerced to int, currency stripped
        let prices: Vec<i64> = result
            .iter()
            .filter_map(|t| t[2].as_int())
            .collect();
        assert!(prices.contains(&250_000) && prices.contains(&300_000));
    }

    #[test]
    fn generation_clears_stale_candidates() {
        let mut kb = kb_ready_for_mapping();
        let mut gen = MappingGeneration::default();
        gen.run(&mut kb).unwrap();
        let first: Vec<String> = kb.mappings().map(|m| m.id.clone()).collect();
        gen.run(&mut kb).unwrap();
        let second: Vec<String> = kb.mappings().map(|m| m.id.clone()).collect();
        assert_eq!(second.len(), 1);
        // ids are positions in the pass's output, so the replacement of an
        // unchanged candidate carries the same id
        assert_eq!(first, second, "regeneration replaces candidates");
    }

    #[test]
    fn pair_parts_pairs_through_part_versions_and_keeps_order() {
        let rows = |n: usize| {
            let rows = (0..n).map(|i| tuple![i as i64]).collect();
            Relation::from_tuples(Schema::new("t", [("a", AttrType::Int)]).unwrap(), rows).unwrap()
        };
        let (five, two, one) = (rows(5), rows(2), rows(1));
        let part = |version, rows, dropped, parent, continues| Part {
            version,
            rows,
            dropped,
            parent,
            removed: &[],
            inserted: &[],
            continues,
        };
        // the last output: part 1's rows at 0..4 (its third dropped), part
        // 2's at 4 and 5, part 7's at 6
        let written = [
            Chain { version: 1, at: vec![0, 1, NEW, 2, 3] },
            Chain { version: 2, at: vec![4, 5] },
            Chain { version: 7, at: vec![6] },
        ];
        let parts = [
            // a refresh of version 1 that moved its fourth row before its
            // second, and inserted a row
            part(3, &five, &[], Some(1), &[Some(0), Some(3), None, Some(1), Some(4)][..]),
            // version 2 again, the union now dropping its first row
            part(2, &two, &[0], None, &[]),
            // a refresh of a version the last output did not hold
            part(9, &one, &[], Some(8), &[Some(0)]),
        ];
        // a veto drops the inserted row: the candidate's third
        let (chains, kept) = pair_parts(&written, &parts, &[2]);
        let at: Vec<(u64, Vec<u32>)> = chains.into_iter().map(|c| (c.version, c.at)).collect();
        assert_eq!(at, [(3, vec![0, 1, NEW, 2, 3]), (2, vec![NEW, 4]), (9, vec![5])]);
        // the moved row would cross the pair before it, so it stays
        // unpaired; so does the row of the unknown version
        assert_eq!(kept, [0, 2, NEW, 3, 5, NEW]);
    }
}
