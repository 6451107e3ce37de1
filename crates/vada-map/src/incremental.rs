//! The mapping **result store**: the one way both mapping transducers
//! materialise a mapping.
//!
//! A [`ResultStore`] keeps one entry per *structurally distinct* mapping
//! (fingerprinted by rules, source list and target schema — mapping ids
//! regenerate on every generation pass, the structure usually does not):
//! the coerced result plus the [delta journal](vada_kb::DeltaJournal)
//! position (lineage, watermark) it is current at. On re-execution it
//! scans the journal since that watermark. When the lineage matches, the
//! window still covers the watermark, and no event names one of the
//! mapping's sources, nothing the mapping reads has changed and the stored
//! result is handed back as is — no parse, no input database, no engine
//! run (`map.execute.reused`). Otherwise the entry is re-materialised from
//! scratch through [`execute_mapping`] and stored again: a stale mapping
//! is re-run, never maintained.
//!
//! The output is byte-identical to [`execute_mapping`] on the same
//! knowledge base in every case.
//!
//! ```
//! use vada_common::{tuple, AttrType, Relation, Schema};
//! use vada_kb::{KnowledgeBase, MappingDef};
//! use vada_map::{execute_mapping, ExecuteConfig, ResultStore};
//!
//! let mut kb = KnowledgeBase::new();
//! let mut src = Relation::empty(Schema::all_str("listings", &["street", "price"]));
//! src.push(tuple!["1 high st", "250000"]).unwrap();
//! kb.register_source(src.clone());
//! kb.register_target_schema(
//!     Schema::new("property", [("street", AttrType::Str), ("price", AttrType::Int)]).unwrap(),
//! );
//! let mapping = MappingDef {
//!     id: "m0".into(),
//!     target: "property".into(),
//!     rules: "property(S, P) :- listings(S, P).".into(),
//!     sources: vec!["listings".into()],
//!     matches_used: vec![],
//! };
//!
//! let mut store = ResultStore::default();
//! let cfg = ExecuteConfig::default();
//! let first = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(first.len(), 1);
//!
//! // nothing the mapping reads has changed: the stored result comes back
//! store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(store.stats().reused_runs, 1);
//!
//! // append a row and re-execute: the journal names `listings`, so the
//! // entry is re-materialised…
//! src.push(tuple!["2 park rd", "300000"]).unwrap();
//! kb.register_source(src);
//! let second = store.execute(&cfg, &mapping, &kb).unwrap();
//! assert_eq!(second.len(), 2);
//! // …byte-identical to a from-scratch execution, which it was
//! assert_eq!(second.tuples(), execute_mapping(&cfg, &mapping, &kb).unwrap().tuples());
//! assert_eq!(store.stats().full_runs, 2);
//! ```

use std::collections::BTreeMap;

use vada_common::obs::key as obs_key;
use vada_common::{Relation, Result, Schema};
use vada_kb::{KnowledgeBase, MappingDef};

use crate::execute::{execute_mapping, registered_target, ExecuteConfig};

/// Cap on retained entries; the least recently used is evicted beyond it.
pub const DEFAULT_STORE_CAPACITY: usize = 16;

/// Store-level counters, for benches and the repro driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// From-scratch materializations: first sights and every stale entry.
    pub full_runs: usize,
    /// Executions answered from the stored result (no source changed).
    pub reused_runs: usize,
    /// The most recent reason the journal could not vouch for a stored
    /// entry, if any.
    pub last_fallback: Option<String>,
}

/// One stored materialisation and the journal position it is current at.
#[derive(Debug)]
struct Materialisation {
    /// Journal lineage the watermark was taken against: a mismatch means
    /// the history may have diverged under the same sequence numbers
    /// (e.g. work resumed on a clone), so the watermark is meaningless.
    lineage: u64,
    /// KB version consumed through (journal watermark).
    watermark: u64,
    /// The coerced result.
    result: Relation,
}

impl Materialisation {
    /// Whether anything `mapping` reads changed since the watermark, or
    /// why the journal cannot be trusted to say. The fingerprint already
    /// pins rules, sources and target, so only events naming a source
    /// relation count; metadata aspects never reach the execution input.
    fn is_stale(&self, mapping: &MappingDef, kb: &KnowledgeBase) -> Result<bool, String> {
        if kb.journal().lineage() != self.lineage {
            return Err("knowledge-base journal lineage changed since the last run".into());
        }
        let mut events = kb
            .journal()
            .scan_since(self.watermark)
            .ok_or("journal window no longer covers the last run")?;
        Ok(events.any(|e| {
            e.change.relation().is_some_and(|r| mapping.sources.iter().any(|s| s == r))
        }))
    }
}

/// The result store: one [`Materialisation`] per mapping structure. See
/// the module docs.
#[derive(Debug)]
pub struct ResultStore {
    entries: BTreeMap<String, Materialisation>,
    /// Fingerprints in least→most recently used order.
    lru: Vec<String>,
    capacity: usize,
    stats: ExecutorStats,
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::with_capacity(DEFAULT_STORE_CAPACITY)
    }
}

/// The structural identity of a mapping execution: same fingerprint ⇒
/// same program, same input sources, same output typing.
fn fingerprint(mapping: &MappingDef, target: &Schema) -> String {
    let mut fp = String::new();
    fp.push_str(&target.name);
    for a in target.attributes() {
        fp.push_str(&format!("|{}:{}", a.name, a.ty.name()));
    }
    fp.push_str(&format!("|src={:?}|", mapping.sources));
    fp.push_str(&mapping.rules);
    fp
}

impl ResultStore {
    /// A store retaining at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> ResultStore {
        ResultStore {
            entries: BTreeMap::new(),
            lru: Vec::new(),
            capacity: capacity.max(1),
            stats: ExecutorStats::default(),
        }
    }

    /// Store-level counters.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Materialise `mapping`: the stored result when the journal proves
    /// no source changed since it was built, a re-materialised one
    /// otherwise. The result is byte-identical to
    /// [`execute_mapping`] on the same knowledge base — including row
    /// order — in every case.
    pub fn execute(
        &mut self,
        cfg: &ExecuteConfig,
        mapping: &MappingDef,
        kb: &KnowledgeBase,
    ) -> Result<&Relation> {
        let target = registered_target(mapping, kb)?;
        let fp = fingerprint(mapping, target);
        self.lru.retain(|f| f != &fp);
        self.lru.push(fp.clone());

        match self.entries.get(&fp).map(|e| e.is_stale(mapping, kb)) {
            Some(Ok(false)) => {
                cfg.engine.obs.incr(obs_key::MAP_REUSED);
                self.stats.reused_runs += 1;
                let entry = self.entries.get_mut(&fp).expect("looked up above");
                entry.watermark = kb.version();
                return Ok(&entry.result);
            }
            Some(Err(reason)) => self.stats.last_fallback = Some(reason),
            _ => {}
        }
        let result = match execute_mapping(cfg, mapping, kb) {
            Ok(result) => result,
            Err(e) => {
                // the journal names a source since the watermark, so the
                // pre-edit result can never be handed back: free it now
                self.entries.remove(&fp);
                self.lru.retain(|f| f != &fp);
                return Err(e);
            }
        };
        self.stats.full_runs += 1;
        let entry = Materialisation {
            lineage: kb.journal().lineage(),
            watermark: kb.version(),
            result,
        };
        self.entries.insert(fp.clone(), entry);
        while self.lru.len() > self.capacity {
            let evicted = self.lru.remove(0);
            self.entries.remove(&evicted);
        }
        Ok(&self.entries[&fp].result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vada_common::{tuple, AttrType};

    fn kb_and_mapping() -> (KnowledgeBase, MappingDef) {
        let mut kb = KnowledgeBase::new();
        let mut rm = Relation::empty(Schema::all_str(
            "rightmove",
            &["price", "street", "postcode"],
        ));
        rm.push(tuple!["£250,000", "12 high st", "M1 1AA"]).unwrap();
        rm.push(tuple!["300000", "9 park rd", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        let mut dep = Relation::empty(Schema::all_str("deprivation", &["postcode", "crime"]));
        dep.push(tuple!["M1", "500"]).unwrap();
        kb.register_source(dep);
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Int),
                ],
            )
            .unwrap(),
        );
        let rules = r#"
            property(S, PC, P, C) :- rightmove(P, S, PC), postcode_district(PC, D), deprivation(D, C).
            property(S, PC, P, null) :- rightmove(P, S, PC), not has_crime(PC).
            has_crime(PC) :- postcode_district(PC, D), deprivation(D, _).
        "#;
        let mapping = MappingDef {
            id: "m".into(),
            target: "property".into(),
            rules: rules.into(),
            sources: vec!["deprivation".into(), "rightmove".into()],
            matches_used: vec![],
        };
        (kb, mapping)
    }

    /// Execute through the store and pin the answer to the scratch path.
    fn checked(store: &mut ResultStore, mapping: &MappingDef, kb: &KnowledgeBase) {
        let cfg = ExecuteConfig::default();
        let got = store.execute(&cfg, mapping, kb).unwrap();
        let scratch = execute_mapping(&cfg, mapping, kb).unwrap();
        assert_eq!(got.schema(), scratch.schema());
        assert_eq!(got.tuples(), scratch.tuples());
    }

    /// `(materialised from scratch, reused)` so far.
    fn tally(store: &ResultStore) -> (usize, usize) {
        let s = store.stats();
        (s.full_runs, s.reused_runs)
    }

    #[test]
    fn matches_scratch_across_appends_and_replacements() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.stats().full_runs, 1);

        // grow the last source (rightmove) with an already-seen postcode
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm.clone());
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.stats().full_runs, 2, "{:?}", store.stats());

        // a new postcode adds a postcode_district fact feeding the negated
        // has_crime
        let mut rm_new = kb.relation("rightmove").unwrap().clone();
        rm_new.push(tuple!["99000", "7 new rd", "M9 9ZZ"]).unwrap();
        kb.register_source(rm_new);
        checked(&mut store, &mapping, &kb);

        // a brand-new district-shaped value in the non-final source lands
        // before rightmove's helper facts in the input
        let mut dep = kb.relation("deprivation").unwrap().clone();
        dep.push(tuple!["EH1 1ZZ", "900"]).unwrap();
        kb.register_source(dep);
        checked(&mut store, &mapping, &kb);

        // replace a source outright
        let mut rm2 = Relation::empty(rm.schema().clone());
        rm2.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
        kb.register_source(rm2);
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (5, 0), "{:?}", store.stats());
    }

    #[test]
    fn row_removals_take_the_retraction_path() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);

        // grow rightmove with a second M1 1AA row, then remove it again
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        kb.remove_rows("rightmove", &[2]).unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (3, 0), "{:?}", store.stats());

        // removing the only EH1 1AA row orphans its helper fact and
        // shrinks the negated `has_crime`
        kb.remove_rows("rightmove", &[1]).unwrap();
        checked(&mut store, &mapping, &kb);

        // a tail rewrite
        kb.update_source("rightmove", &[(0, tuple!["199000", "12 high st", "M1 1AA"])])
            .unwrap();
        checked(&mut store, &mapping, &kb);

        // delete everything, then re-add: empty result, then rebuilt rows
        kb.remove_rows("rightmove", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let empty = store.execute(&ExecuteConfig::default(), &mapping, &kb).unwrap();
        assert!(empty.is_empty());
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["5000", "9 new st", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (7, 1), "{:?}", store.stats());
    }

    #[test]
    fn duplicate_rows_keep_the_fact_alive() {
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("s", &["a"]));
        src.push(tuple!["x"]).unwrap();
        src.push(tuple!["x"]).unwrap();
        src.push(tuple!["y"]).unwrap();
        kb.register_source(src);
        kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
        let mapping = MappingDef {
            id: "m".into(),
            target: "t".into(),
            rules: "t(X) :- s(X).".into(),
            sources: vec!["s".into()],
            matches_used: vec![],
        };
        let cfg = ExecuteConfig::default();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);

        // removing ONE of the two "x" rows must not retract the fact
        kb.remove_rows("s", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let got = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(got.len(), 2, "t(x) survives via the duplicate row");

        // removing the last "x" retracts it
        kb.remove_rows("s", &[0]).unwrap();
        checked(&mut store, &mapping, &kb);
        let got = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(tally(&store), (3, 2), "{:?}", store.stats());
    }

    #[test]
    fn diverged_clone_lineage_forces_a_rebuild() {
        // the watermark-replay hazard: take a clone, advance BOTH the
        // original and the clone past the store's watermark with
        // different content under the same sequence numbers — trusting
        // the clone's journal against the original's watermark would
        // silently skip the divergent events
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        let clone = kb.clone();
        checked(&mut store, &mapping, &kb);

        // original lineage advances (the store consumes it normally)
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);

        // the clone's lineage advances differently, past the watermark
        let mut kb2 = clone;
        let mut rm2 = kb2.relation("rightmove").unwrap().clone();
        rm2.push(tuple!["777", "7 other st", "M1 1AA"]).unwrap();
        rm2.push(tuple!["888", "8 other st", "M1 1AA"]).unwrap();
        kb2.register_source(rm2);
        checked(&mut store, &mapping, &kb2);
        assert_eq!(tally(&store), (3, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("lineage")),
            "{:?}",
            store.stats()
        );
    }

    #[test]
    fn mid_relation_rewrite_rebuilds() {
        let (mut kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // rewriting row 0 of 2 is not a tail edit: scan order changes
        kb.update_source("rightmove", &[(0, tuple!["111", "12 high st", "M1 1AA"])])
            .unwrap();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
    }

    #[test]
    fn structural_change_creates_a_fresh_session() {
        let (mut kb, mut mapping) = kb_and_mapping();
        let mut store = ResultStore::default();
        checked(&mut store, &mapping, &kb);
        // a different mapping id with identical structure shares the entry
        mapping.id = "m2".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (1, 1), "{:?}", store.stats());
        let mut rm = kb.relation("rightmove").unwrap().clone();
        rm.push(tuple!["500000", "4 mill ln", "EH1 1AA"]).unwrap();
        kb.register_source(rm);
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.entries.len(), 1);
        // changed rules: new fingerprint, a second entry
        mapping.rules = "property(S, PC, P, null) :- rightmove(P, S, PC).".into();
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (3, 1), "{:?}", store.stats());
        assert_eq!(store.entries.len(), 2);
    }

    // ---- when is the stored result handed back? ----

    #[test]
    fn store_hits_on_an_unchanged_kb_and_across_regenerated_ids() {
        let mut store = ResultStore::default();
        let (kb, mut mapping) = kb_and_mapping();
        let obs = vada_common::Obs::enabled();
        let mut cfg = ExecuteConfig::default();
        cfg.engine.obs = obs.clone();
        let first = store.execute(&cfg, &mapping, &kb).unwrap().clone();
        let runs_after_first = obs.get(obs_key::STRATUM_PASSES);
        assert!(runs_after_first > 0);

        // same knowledge base: nothing is parsed, built or derived
        let again = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(again.tuples(), first.tuples());
        // a generation pass re-issues the same structure under a new id
        mapping.id = "m_regenerated".into();
        let renamed = store.execute(&cfg, &mapping, &kb).unwrap();
        assert_eq!(renamed.tuples(), first.tuples());

        assert_eq!(tally(&store), (1, 2), "{:?}", store.stats());
        assert_eq!(obs.get(obs_key::MAP_REUSED), 2);
        assert_eq!(obs.get(obs_key::MAP_FULL), 1);
        assert_eq!(obs.get(obs_key::STRATUM_PASSES), runs_after_first);
    }

    #[test]
    fn store_misses_on_every_kind_of_source_change() {
        type Change = fn(&mut KnowledgeBase);
        let changes: [(&str, Change); 5] = [
            ("RowsAppended", |kb| {
                let mut rm = kb.relation("rightmove").unwrap().clone();
                rm.push(tuple!["410000", "3 kings ave", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            ("RowsRemoved", |kb| {
                kb.remove_rows("rightmove", &[0]).unwrap();
            }),
            ("RowsReplaced", |kb| {
                kb.update_source("rightmove", &[(1, tuple!["1", "9 park rd", "EH1 1AA"])])
                    .unwrap();
            }),
            ("RelationReplaced", |kb| {
                let mut rm = Relation::empty(kb.relation("rightmove").unwrap().schema().clone());
                rm.push(tuple!["1", "x st", "M1 1AA"]).unwrap();
                kb.register_source(rm);
            }),
            // the *other* source of the join counts just the same
            ("RowsAppended(deprivation)", |kb| {
                let mut dep = kb.relation("deprivation").unwrap().clone();
                dep.push(tuple!["EH1", "900"]).unwrap();
                kb.register_source(dep);
            }),
        ];
        for (name, change) in changes {
            let mut store = ResultStore::default();
            let (mut kb, mapping) = kb_and_mapping();
            checked(&mut store, &mapping, &kb);
            change(&mut kb);
            checked(&mut store, &mapping, &kb);
            assert_eq!(tally(&store), (2, 0), "{name}: {:?}", store.stats());
            // refreshed and stored: the next look is a hit again
            checked(&mut store, &mapping, &kb);
            assert_eq!(tally(&store), (2, 1), "{name}: {:?}", store.stats());
        }
    }

    #[test]
    fn store_misses_when_the_journal_cannot_vouch_for_the_watermark() {
        // lineage: work resumed on a clone, even an untouched one
        let mut store = ResultStore::default();
        let (kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
        let resumed = kb.clone();
        checked(&mut store, &mapping, &resumed);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("lineage")),
            "{:?}",
            store.stats()
        );

        // window: more events than the journal retains, none on a source
        let mut store = ResultStore::default();
        let (seed, mapping) = kb_and_mapping();
        let mut kb = KnowledgeBase::with_journal_capacity(4);
        kb.register_source(seed.relation("rightmove").unwrap().clone());
        kb.register_source(seed.relation("deprivation").unwrap().clone());
        kb.register_target_schema(seed.target_schema().unwrap().clone());
        checked(&mut store, &mapping, &kb);
        for _ in 0..5 {
            kb.set_user_context(Vec::new());
        }
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
        assert!(
            store.stats().last_fallback.as_deref().is_some_and(|r| r.contains("window")),
            "{:?}",
            store.stats()
        );
        // a hit advances the watermark, so steady churn below the
        // window size never loses the entry
        for _ in 0..3 {
            kb.set_user_context(Vec::new());
            kb.set_user_context(Vec::new());
            checked(&mut store, &mapping, &kb);
        }
        assert_eq!(tally(&store), (2, 3), "{:?}", store.stats());
    }

    #[test]
    fn store_misses_on_a_target_schema_change() {
        let mut store = ResultStore::default();
        let (mut kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
        // same name and arity, but crimerank is now text: the coerced
        // result differs although no source moved
        kb.register_target_schema(
            Schema::new(
                "property",
                [
                    ("street", AttrType::Str),
                    ("postcode", AttrType::Str),
                    ("price", AttrType::Int),
                    ("crimerank", AttrType::Str),
                ],
            )
            .unwrap(),
        );
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (2, 0), "{:?}", store.stats());
    }

    #[test]
    fn store_respects_the_lru_bound() {
        let (kb, mapping) = kb_and_mapping();
        let mut store = ResultStore::with_capacity(2);
        let variant = |n: usize| MappingDef {
            rules: format!("property(S, PC, P, {n}) :- rightmove(P, S, PC)."),
            ..mapping.clone()
        };
        for n in 0..3 {
            checked(&mut store, &variant(n), &kb);
        }
        assert_eq!(store.entries.len(), 2);
        assert_eq!(store.lru.len(), 2);
        // the two most recent structures are still stored…
        checked(&mut store, &variant(2), &kb);
        checked(&mut store, &variant(1), &kb);
        assert_eq!(tally(&store), (3, 2), "{:?}", store.stats());
        // …the least recently used one was evicted
        checked(&mut store, &variant(0), &kb);
        assert_eq!(tally(&store), (4, 2), "{:?}", store.stats());
        assert_eq!(store.entries.len(), 2);
    }

    #[test]
    fn unrelated_kb_churn_is_ignored() {
        let mut store = ResultStore::default();
        let (mut kb, mapping) = kb_and_mapping();
        checked(&mut store, &mapping, &kb);
        // metadata aspects, an unrelated relation (added, grown,
        // replaced, removed), a result and an intermediate
        kb.add_cfd(vada_kb::CfdRule {
            id: "c".into(),
            relation: "property".into(),
            lhs: vec![("postcode".into(), None)],
            rhs: ("street".into(), None),
            support: 1,
        });
        kb.set_user_context(Vec::new());
        let mut other = Relation::empty(Schema::all_str("unrelated", &["a"]));
        other.push(tuple!["x"]).unwrap();
        kb.register_source(other.clone());
        other.push(tuple!["y"]).unwrap();
        kb.register_source(other.clone());
        kb.register_source(Relation::empty(other.schema().clone()));
        kb.put_intermediate(Relation::empty(Schema::all_str("candidate_m", &["a"])));
        kb.remove_intermediate("candidate_m");
        kb.put_result(Relation::empty(kb.target_schema().unwrap().clone()));
        checked(&mut store, &mapping, &kb);
        assert_eq!(tally(&store), (1, 1), "{:?}", store.stats());
    }

    #[test]
    fn failed_apply_drops_the_session_and_recovers() {
        let mut store = ResultStore::default();
        let mut kb = KnowledgeBase::new();
        let mut src = Relation::empty(Schema::all_str("s", &["a"]));
        src.push(tuple![1]).unwrap();
        kb.register_source(src.clone());
        kb.register_target_schema(Schema::new("t", [("a", AttrType::Str)]).unwrap());
        let mapping = MappingDef {
            id: "m".into(),
            target: "t".into(),
            rules: "t(Y) :- s(X), Y = X + 0.".into(),
            sources: vec!["s".into()],
            matches_used: vec![],
        };
        checked(&mut store, &mapping, &kb);
        assert_eq!(store.entries.len(), 1);

        // a row that breaks the arithmetic: the refresh fails and must not
        // leave the pre-edit result behind as a hit
        src.push(tuple!["not a number"]).unwrap();
        kb.register_source(src.clone());
        let cfg = ExecuteConfig::default();
        let err = store.execute(&cfg, &mapping, &kb).unwrap_err();
        assert_eq!(err.kind(), "eval", "{err}");
        assert!(store.entries.is_empty() && store.lru.is_empty());
        assert!(store.execute(&cfg, &mapping, &kb).is_err(), "no stale hit");
        assert_eq!(store.stats().reused_runs, 0);

        kb.remove_rows("s", &[1]).unwrap();
        checked(&mut store, &mapping, &kb);
    }
}
