//! Mapping transducers: generation, selection, execution.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;

use vada_common::obs::key as obs_key;
use vada_common::text::blocking_key;
use vada_common::{Result, Schema, Tuple, VadaError};
use vada_context::UserContext;
use vada_kb::{CellVeto, JournalMark, KnowledgeBase, MappingDef, Since};
use vada_map::{
    generate_candidates, rank_mappings, ExecuteConfig, MapGenConfig, MappingScore, ResultStore,
};

use crate::components::feedback::apply_vetoes;
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
/// edits, ends where it would after a whole put. That rests on five
/// conditions, checked on every run; when one fails the whole result is
/// put, as on the first run:
///
/// 1. the journal vouches for the result's row events since the mark
///    ([`KnowledgeBase::since`] answers `Unchanged` or `Rows`), and every
///    stored row is one execution wrote;
/// 2. the target schema and the selected mapping are unchanged;
/// 3. the vetoes are the ones it last applied — a new veto means
///    `feedback_repair` edited fused rows in place;
/// 4. repair's inputs are unchanged since the mark: the data-context
///    relations and bindings, and the CFDs;
/// 5. repair cannot move a row between blocks: no CFD it applies writes
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
    /// The output rows, vetoes applied, in output order.
    raw: Vec<Tuple>,
    /// Their blocks, computed by the first diff after a whole put.
    blocks: Option<RawBlocks>,
    /// The journal mark after the write.
    mark: JournalMark,
    /// Per stored row, the output row it holds, as of `mark`.
    origins: Origins,
}

/// What an output is written under: conditions 2 to 4, besides the
/// context relations' rows.
#[derive(Debug, PartialEq)]
struct Under {
    schema: Schema,
    mapping: MappingDef,
    vetoes: Vec<CellVeto>,
    /// The version the CFDs last changed at: not their content, since
    /// repair may have run under other CFDs in between.
    cfds: u64,
    /// The version the data-context bindings and kinds last moved at.
    data_context: u64,
}

impl Under {
    fn of(kb: &KnowledgeBase, mapping: &MappingDef, schema: &Schema) -> Under {
        Under {
            schema: schema.clone(),
            mapping: mapping.clone(),
            vetoes: kb.vetoes().to_vec(),
            cfds: kb.aspect_version("cfds"),
            data_context: kb.aspect_version("data_context"),
        }
    }
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
    /// Whether the next output may be written as a diff against this one:
    /// the five conditions of [`MappingExecution`]. Brings the origins up
    /// to date as it checks the first.
    fn diffable(&mut self, kb: &KnowledgeBase, under: &Under) -> Result<bool> {
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
            if !repair_keeps_blocks(&under.schema, reference, kb.cfds()) {
                return Ok(false);
            }
        }
        Ok(follow(kb, &self.mark, &under.schema.name, &mut self.origins)
            && !self.origins.0.contains(&Origins::FOREIGN))
    }

    /// Write `raw`, the next output, as the diff against this one: remove
    /// the stored rows of every block the diff reached and insert that
    /// block's rows of `raw` at their output positions. Returns what `raw`
    /// was written as, and what the write did.
    fn diff(
        mut self,
        kb: &mut KnowledgeBase,
        under: Under,
        raw: Vec<Tuple>,
    ) -> Result<(Written, Diffed)> {
        let col = under.schema.require(block_attr(&under.schema))?;
        let kept = pair_rows(&self.raw, &raw);
        let mut key = String::new();
        let mut blocks = match self.blocks.take() {
            Some(blocks) => blocks,
            None => {
                let mut blocks = RawBlocks::default();
                blocks.of = self.raw.iter().map(|t| blocks.id(t, col, &mut key)).collect();
                blocks
            }
        };
        let mut new_of_old = vec![NEW; self.raw.len()];
        for (j, &i) in kept.iter().enumerate().filter(|(_, &i)| i != NEW) {
            new_of_old[i as usize] = j as u32;
        }
        let block_of_new: Vec<u32> = raw
            .iter()
            .zip(&kept)
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
        let added = block_of_new.iter().zip(&kept).filter(|(_, &i)| i == NEW).map(|(b, _)| b);
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
        for (j, (&b, &i)) in block_of_new.iter().zip(&kept).enumerate() {
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
        let target = under.schema.name.clone();
        kb.remove_rows(&target, &removals)?;
        kb.insert_rows(&target, &inserts)?;
        blocks.of = block_of_new;
        let diffed =
            Diffed { blocks: reached + unkeyed, removed: removals.len(), inserted: inserts.len() };
        let written = Written {
            under,
            raw,
            blocks: Some(blocks),
            mark: kb.mark(),
            origins: Origins(origins),
        };
        Ok((written, diffed))
    }
}

/// A row of the next output that pairs with no row of the previous one.
const NEW: u32 = u32::MAX;

/// Edits past which [`pair_rows`] stops looking for pairs between the
/// common prefix and suffix.
const DIFF_BUDGET: usize = 512;

/// An order-preserving pairing of the rows of `old` and `new` with equal
/// content — compared as [`Tuple`] compares, pointer first and content on
/// a miss — as large as any: per row of `new`, the row of `old` it pairs
/// with, or [`NEW`]. The common prefix and suffix pair up front; between
/// them, Myers' greedy search for the shortest edit script pairs the rest
/// unless it takes more than [`DIFF_BUDGET`] edits, when nothing there
/// pairs. Any order-preserving pairing is a correct diff; a larger one
/// restores fewer blocks.
fn pair_rows(old: &[Tuple], new: &[Tuple]) -> Vec<u32> {
    let mut kept = vec![NEW; new.len()];
    let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
    let (old_rest, new_rest) = (&old[prefix..], &new[prefix..]);
    let suffix =
        old_rest.iter().rev().zip(new_rest.iter().rev()).take_while(|(a, b)| a == b).count();
    for (j, slot) in kept.iter_mut().enumerate().take(prefix) {
        *slot = j as u32;
    }
    for k in 1..=suffix {
        kept[new.len() - k] = (old.len() - k) as u32;
    }
    let (a, b) = (&old_rest[..old_rest.len() - suffix], &new_rest[..new_rest.len() - suffix]);
    for (x, y) in shortest_edit(a, b, DIFF_BUDGET).unwrap_or_default() {
        kept[prefix + y] = (prefix + x) as u32;
    }
    kept
}

/// The pairs `(x, y)` with `a[x] == b[y]` of a longest common subsequence
/// of `a` and `b`, ascending, by Myers' O((n + m) d) greedy search — or
/// `None` when it takes more than `budget` insertions and deletions.
fn shortest_edit(a: &[Tuple], b: &[Tuple], budget: usize) -> Option<Vec<(usize, usize)>> {
    let (n, m) = (a.len() as isize, b.len() as isize);
    let limit = budget.min(a.len() + b.len()) as isize;
    // v[off + k]: the furthest x reached on diagonal k = x - y; round d's
    // values for k in -d..=d are kept at trace[d * d..][..2 * d + 1]
    let off = limit + 1;
    let mut v = vec![0isize; 2 * off as usize + 1];
    let mut trace: Vec<u32> = Vec::new();
    let furthest = |v: &[isize], k: isize| v[(off + k) as usize];
    for d in 0..=limit {
        let mut done = false;
        for k in (-d..=d).step_by(2) {
            let down = k == -d || (k != d && furthest(&v, k - 1) < furthest(&v, k + 1));
            let mut x = if down { furthest(&v, k + 1) } else { furthest(&v, k - 1) + 1 };
            let mut y = x - k;
            while x < n && y < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[(off + k) as usize] = x;
            done |= x >= n && y >= m;
        }
        trace.extend(v[(off - d) as usize..=(off + d) as usize].iter().map(|&x| x as u32));
        if done {
            return Some(backtrack(&trace, n, m, d));
        }
    }
    None
}

/// Walk the rounds of [`shortest_edit`] back from `(n, m)` at round `d`,
/// collecting the pairs its diagonal moves made.
fn backtrack(trace: &[u32], n: isize, m: isize, d: isize) -> Vec<(usize, usize)> {
    let at = |d: isize, k: isize| trace[(d * d + d + k) as usize] as isize;
    let mut pairs = Vec::new();
    let (mut x, mut y) = (n, m);
    for d in (0..=d).rev() {
        let k = x - y;
        let (start_x, prev) = if d == 0 {
            (0, None)
        } else {
            let down = k == -d || (k != d && at(d - 1, k - 1) < at(d - 1, k + 1));
            let prev_k = if down { k + 1 } else { k - 1 };
            let prev_x = at(d - 1, prev_k);
            (if down { prev_x } else { prev_x + 1 }, Some((prev_x, prev_x - prev_k)))
        };
        while x > start_x {
            x -= 1;
            y -= 1;
            pairs.push((x as usize, y as usize));
        }
        if let Some((px, py)) = prev {
            (x, y) = (px, py);
        }
    }
    pairs.reverse();
    pairs
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
        // the one copy: the result the vetoes apply to and the KB keeps
        let mut result = self
            .store
            .borrow_mut()
            .candidate(&ExecuteConfig::default(), &mapping, kb)?
            .to_relation();
        let vetoed = apply_vetoes(&mut result, kb.vetoes());
        let rows = result.len();
        let under = Under::of(kb, &mapping, result.schema());
        // taken out, so a failed write leaves nothing kept
        let diffable = match self.written.take() {
            Some(mut last) => last.diffable(kb, &under)?.then_some(last),
            None => None,
        };
        let summary = format!("materialised {rows} rows from {id} ({vetoed} cells vetoed)");
        if let Some(last) = diffable {
            let (written, diffed) = last.diff(kb, under, result.tuples().to_vec())?;
            self.written = Some(written);
            let writes = diffed.removed + diffed.inserted;
            kb.obs().incr(obs_key::MAP_RESULT_DIFFED);
            kb.obs().add(obs_key::MAP_RESULT_DIFF_ROWS, writes as u64);
            return Ok(RunOutcome::new(
                format!(
                    "{summary}; restored {} block(s): {} row(s) removed, {} inserted",
                    diffed.blocks, diffed.removed, diffed.inserted
                ),
                writes,
            ));
        }
        let raw = result.tuples().to_vec();
        kb.put_result(result);
        kb.obs().incr(obs_key::MAP_RESULT_WHOLE);
        self.written = Some(Written {
            under,
            raw,
            blocks: None,
            mark: kb.mark(),
            origins: Origins((0..rows as u32).collect()),
        });
        Ok(RunOutcome::new(summary, rows))
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

    /// The length of a longest common subsequence, by the textbook table.
    fn lcs_len(a: &[Tuple], b: &[Tuple]) -> usize {
        let mut table = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for i in (0..a.len()).rev() {
            for j in (0..b.len()).rev() {
                table[i][j] = if a[i] == b[j] {
                    table[i + 1][j + 1] + 1
                } else {
                    table[i + 1][j].max(table[i][j + 1])
                };
            }
        }
        table[0][0]
    }

    #[test]
    fn pair_rows_pairs_a_longest_common_subsequence() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // few distinct rows, so rows repeat; some shared by pointer
            let pool: Vec<Tuple> = (0..rng.gen_range(1..6)).map(|v| tuple![v as i64]).collect();
            let old: Vec<Tuple> = (0..rng.gen_range(0..30))
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect();
            let mut new = old.clone();
            for _ in 0..rng.gen_range(0..8) {
                match rng.gen_range(0..3) {
                    0 if !new.is_empty() => {
                        new.remove(rng.gen_range(0..new.len()));
                    }
                    1 => {
                        // equal content, another pointer
                        let v = rng.gen_range(0..pool.len() as i64);
                        new.insert(rng.gen_range(0..new.len() + 1), tuple![v]);
                    }
                    _ => new.push(tuple![99]),
                }
            }
            let kept = pair_rows(&old, &new);
            let pairs: Vec<(usize, usize)> = kept
                .iter()
                .enumerate()
                .filter(|(_, &i)| i != NEW)
                .map(|(j, &i)| (i as usize, j))
                .collect();
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "seed {seed}: not order-preserving");
            assert!(pairs.iter().all(|&(i, j)| old[i] == new[j]), "seed {seed}: unequal pair");
            assert_eq!(pairs.len(), lcs_len(&old, &new), "seed {seed}: not a longest pairing");
        }
        // past the budget only the common prefix and suffix pair
        let old: Vec<Tuple> = (0..DIFF_BUDGET as i64 + 2).map(|v| tuple![v]).collect();
        let mut new: Vec<Tuple> = old.iter().rev().cloned().collect();
        new.insert(0, old[0].clone());
        new.push(old[old.len() - 1].clone());
        let paired = pair_rows(&old, &new).iter().filter(|&&i| i != NEW).count();
        assert_eq!(paired, 2);
    }
}
