//! Crash-recovery differential tests for the durable knowledge base
//! (`KnowledgeBase::persist_to`): every mutation is fsync'd to the
//! write-ahead log before it is applied, so truncating the log at **any**
//! record boundary (a crash after that record's fsync) and reopening must
//! yield a catalog, journal window, watermarks, and lineage byte-identical
//! to the uninterrupted run's state at that point — and a mid-record cut
//! (a torn tail) must recover exactly the preceding boundary, never
//! misread bytes.
//! Snapshot compaction and its once-per-window cadence, the
//! interrupted-compaction overlap, and O(change) resume of journal
//! watermarks and wrangling sessions are pinned alongside.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vada::Wrangler;
use vada_common::{tuple, AttrType, Obs, Relation, Schema, Tuple, Value};
use vada_extract::sources::target_schema;
use vada_extract::{Scenario, ScenarioConfig, UniverseConfig};
use vada_common::obs::key as obs_key;
use vada_kb::storage::{Wal, SNAPSHOT_FILE, WAL_FILE};
use vada_kb::{ContextKind, DeltaChange, KnowledgeBase, PairwiseStatement, Since};

mod common;
use common::TempDir;

/// Fingerprint exactly what recovery promises to restore: the version,
/// the journal (lineage, watermarks, full retained window), per-aspect
/// versions, and every catalog relation byte for byte. Derived metadata
/// is deliberately absent — it is re-derived by wrangling.
fn fingerprint(kb: &KnowledgeBase) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "version={} lineage={} pruned={}\n",
        kb.version(),
        kb.journal().lineage(),
        kb.journal().pruned_through()
    ));
    for aspect in [
        "relations", "result", "intermediates", "target", "matches", "mappings", "selection",
        "cfds", "quality", "feedback", "user_context", "data_context", "staged",
    ] {
        out.push_str(&format!("aspect {aspect}={}\n", kb.aspect_version(aspect)));
    }
    for e in kb
        .journal()
        .scan_since(kb.journal().pruned_through())
        .expect("a journal serves its own pruned-through watermark")
    {
        out.push_str(&format!("{e:?}\n"));
    }
    for (name, kind, rel) in kb.catalog().entries() {
        out.push_str(&format!(
            "=== {name} [{}] {:?} ===\n{:?}\n",
            kind.tag(),
            rel.schema(),
            rel.tuples()
        ));
    }
    out
}

/// The byte offsets of the WAL's record boundaries (header first), read
/// back from the frame length fields alone — no decoding, so the scan
/// works on any prefix the truncation loop is about to produce.
fn record_boundaries(wal_bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![8usize];
    let mut pos = 8usize;
    while wal_bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(wal_bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if wal_bytes.len() - pos - 8 < len {
            break;
        }
        pos += 8 + len;
        offsets.push(pos);
    }
    offsets
}

/// A pool of tuples for the mixed-type relation, exercising the value
/// codec's hard cases: extreme integers, infinities, embedded newlines,
/// NULs, quotes, and non-ASCII — everything but non-canonical floats
/// (`NaN`, `-0.0`), which encode canonically by design and are pinned in
/// the codec property suites instead.
fn adversarial_row(rng: &mut StdRng) -> Tuple {
    let strings = [
        "plain",
        "with\nnewline",
        "with\0nul",
        "\"quoted\", and, commas",
        "naïve — ünïcode",
        "",
    ];
    let ints = [i64::MIN, i64::MAX, 0, -1, 42];
    let floats = [f64::INFINITY, f64::NEG_INFINITY, 1.5, -f64::MAX, 0.0];
    Tuple::new(vec![
        Value::str(strings[rng.gen_range(0usize..strings.len())]),
        Value::Int(ints[rng.gen_range(0usize..ints.len())]),
        Value::Float(floats[rng.gen_range(0usize..floats.len())]),
    ])
}

fn mixed_schema(name: &str) -> Schema {
    Schema::new(
        name,
        [("s", AttrType::Str), ("i", AttrType::Int), ("f", AttrType::Float)],
    )
    .unwrap()
}

/// Apply one random single-event mutation to `kb`. Every arm journals
/// exactly one event, so WAL record `k` corresponds 1:1 to script step
/// `k` and the truncation loop can pair each boundary with the
/// fingerprint captured after that step.
fn random_mutation(kb: &mut KnowledgeBase, rng: &mut StdRng, step: usize) {
    match rng.gen_range(0usize..9) {
        // grown re-registration → monotone RowsAppended
        0 => {
            let mut grown = kb.relation("mixed").unwrap().clone();
            for _ in 0..rng.gen_range(1usize..3) {
                grown.push(adversarial_row(rng)).unwrap();
            }
            kb.register_source(grown);
        }
        // row-level retraction (kept non-empty for the other arms)
        1 if kb.relation("mixed").unwrap().len() > 2 => {
            let len = kb.relation("mixed").unwrap().len();
            kb.remove_rows("mixed", &[rng.gen_range(0usize..len)]).unwrap();
        }
        // row-level insert, one or two rows anywhere, the ends included
        7 => {
            let len = kb.relation("mixed").unwrap().len();
            let first = rng.gen_range(0usize..len + 1);
            let mut rows = vec![(first, adversarial_row(rng))];
            if rng.gen_range(0usize..2) == 0 {
                rows.push((rng.gen_range(first + 1..len + 2), adversarial_row(rng)));
            }
            kb.insert_rows("mixed", &rows).unwrap();
        }
        // in-place rewrite, tail or mid
        2 => {
            let len = kb.relation("mixed").unwrap().len();
            let row = if rng.gen_range(0usize..2) == 0 { len - 1 } else { rng.gen_range(0usize..len) };
            kb.update_source("mixed", &[(row, adversarial_row(rng))]).unwrap();
        }
        // a brand-new relation → RelationAdded (full payload in the WAL)
        3 => {
            let mut rel = Relation::empty(mixed_schema(&format!("extra{step}")));
            rel.push(adversarial_row(rng)).unwrap();
            kb.register_source(rel);
        }
        // same name, shuffled rows → RelationReplaced (full payload)
        4 => {
            let old = kb.relation("mixed").unwrap();
            let mut rows: Vec<Tuple> = old.tuples().to_vec();
            rows.reverse();
            rows.push(adversarial_row(rng));
            let rel = Relation::from_tuples(old.schema().clone(), rows).unwrap();
            kb.register_source(rel);
        }
        // metadata aspects: journalled as AspectChanged, state re-derived
        5 => kb.stage_document(format!("doc{step}"), "a\n1\n"),
        // result / intermediate relations persist like any other
        6 => {
            let mut rel = Relation::empty(mixed_schema("the_result"));
            rel.push(adversarial_row(rng)).unwrap();
            kb.put_result(rel);
        }
        _ => {
            let mut rel = Relation::empty(mixed_schema(&format!("inter{}", step % 3)));
            rel.push(adversarial_row(rng)).unwrap();
            kb.put_intermediate(rel);
        }
    }
}

/// One stretch of the log between two checkpoints, as a crash could find
/// it on disk: the snapshot it sits on, every byte the log reached before
/// the next checkpoint reset it, and the script step the snapshot captured
/// (log record `j` of the epoch is step `base + j`).
struct Epoch {
    snapshot: Vec<u8>,
    log: Vec<u8>,
    base: usize,
}

/// Run `steps` random single-event mutations on the (already persisted)
/// `kb`, then crash it everywhere: within every checkpoint epoch, truncate
/// the log at **every** record boundary plus torn cuts inside every record,
/// reopen, and compare byte-for-byte against the state the uninterrupted
/// run had at exactly that point. Returns how many epochs the run crossed
/// and how many steps inserted rows.
fn crash_at_every_boundary(
    label: &str,
    mut kb: KnowledgeBase,
    dir: &std::path::Path,
    rng: &mut StdRng,
    steps: usize,
) -> (usize, usize) {
    let wal_path = dir.join(WAL_FILE);
    let snap_path = dir.join(SNAPSHOT_FILE);
    let on_disk = || (std::fs::read(&snap_path).unwrap(), std::fs::read(&wal_path).unwrap());

    // fingerprints[k] = state once the first k post-persist events are on disk
    let mut fingerprints = vec![fingerprint(&kb)];
    let mut epochs = Vec::new();
    let mut base = 0;
    let mut inserts = 0;
    for step in 0..steps {
        let before = kb.version();
        let (snapshot, log) = on_disk();
        random_mutation(&mut kb, rng, step);
        assert_eq!(kb.version(), before + 1, "script steps must be single-event");
        let last = kb.journal().scan_since(before).and_then(|mut events| events.next());
        let inserted = last.is_some_and(|e| matches!(e.change, DeltaChange::RowsInserted { .. }));
        inserts += usize::from(inserted);
        fingerprints.push(fingerprint(&kb));
        if std::fs::read(&wal_path).unwrap().len() < log.len() {
            // this step checkpointed first: the log it found is complete,
            // and the new snapshot holds the state after `step` events
            epochs.push(Epoch { snapshot, log, base });
            base = step;
        }
    }
    kb.storage_health().unwrap();
    drop(kb);
    let (snapshot, log) = on_disk();
    epochs.push(Epoch { snapshot, log, base });

    let mut records = 0;
    for (e, epoch) in epochs.iter().enumerate() {
        std::fs::write(&snap_path, &epoch.snapshot).unwrap();
        let boundaries = record_boundaries(&epoch.log);
        records += boundaries.len() - 1;
        for (j, &cut) in boundaries.iter().enumerate() {
            let k = epoch.base + j;
            // a crash right after record j's fsync
            std::fs::write(&wal_path, &epoch.log[..cut]).unwrap();
            let reopened = KnowledgeBase::open(dir).unwrap();
            assert_eq!(
                fingerprint(&reopened),
                fingerprints[k],
                "{label}: epoch {e} boundary {j} must recover the state at step {k}"
            );
            // torn tails inside the *next* record recover boundary j exactly
            if j + 1 < boundaries.len() {
                let next = boundaries[j + 1];
                for torn in [cut + 1, cut + 9, next - 1] {
                    std::fs::write(&wal_path, &epoch.log[..torn]).unwrap();
                    let reopened = KnowledgeBase::open(dir).unwrap();
                    assert_eq!(
                        fingerprint(&reopened),
                        fingerprints[k],
                        "{label}: torn cut at byte {torn} must fall back to boundary {j} of epoch {e}"
                    );
                }
            }
        }
    }
    assert_eq!(records, steps, "one WAL record per step, each in exactly one epoch");
    (epochs.len(), inserts)
}

/// The core differential: a randomized edit script against a durable KB,
/// then — from the surviving log bytes — a reopen at **every** record
/// boundary plus torn cuts inside every record, each compared
/// byte-for-byte against the state the uninterrupted run had at exactly
/// that point. Run once on the default window (the whole script fits one
/// log) and once on an 8-event window that is already pruning when the
/// base is persisted, so the boundaries cross window pruning without a
/// checkpoint, and checkpoints.
#[test]
fn truncation_at_every_record_boundary_recovers_that_exact_state() {
    for seed in [11u64, 23, 47] {
        for (capacity, steps) in [(None, 30), (Some(8), 44)] {
            let dir = TempDir::new(&format!("boundary-{seed}-{capacity:?}"));
            let mut rng = StdRng::seed_from_u64(seed);

            let mut kb = match capacity {
                Some(c) => KnowledgeBase::with_journal_capacity(c),
                None => KnowledgeBase::new(),
            };
            let mut base = Relation::empty(mixed_schema("mixed"));
            for _ in 0..3 {
                base.push(adversarial_row(&mut rng)).unwrap();
            }
            kb.register_source(base);
            if capacity.is_some() {
                // four more events: the window starts pruning at the fifth
                // log record, four records before the first checkpoint
                for i in 0..4 {
                    kb.stage_document(format!("pre{i}"), "a\n1\n");
                }
            }
            kb.persist_to(&dir).unwrap();
            kb.storage_health().unwrap();

            let label = format!("seed {seed} capacity {capacity:?}");
            let (epochs, inserts) = crash_at_every_boundary(&label, kb, &dir, &mut rng, steps);
            // a checkpoint lands on the event after the log reaches `capacity` records
            let expected = capacity.map_or(1, |c| 1 + (steps - 1) / c);
            assert_eq!(epochs, expected, "{label}");
            assert!(inserts > 0, "{label}: the script inserted no rows");
        }
    }
}

/// Records in the log file right now, counted off its frame headers.
fn log_records(dir: &std::path::Path) -> usize {
    record_boundaries(&std::fs::read(dir.join(WAL_FILE)).unwrap()).len() - 1
}

/// Compaction: once the log holds a full window of records, the next event
/// folds it into a snapshot first — however long the in-memory window has
/// been pruning. A reopen after compaction restores the full state;
/// restoring the *pre-compaction* log next to the new snapshot — exactly
/// what a crash between "snapshot renamed" and "log reset" leaves —
/// replays no stale records and recovers the checkpoint state.
#[test]
fn compaction_snapshots_and_survives_the_crash_window() {
    let dir = TempDir::new("compaction");
    let mut kb = KnowledgeBase::with_journal_capacity(8);
    let mut rel = Relation::empty(mixed_schema("mixed"));
    rel.push(tuple!["a", 1i64, 1.5f64]).unwrap();
    kb.register_source(rel);
    // the window is full and pruning before the base is even persisted
    for i in 0..10 {
        kb.stage_document(format!("pre{i}"), "a\n1\n");
    }
    assert_eq!(kb.journal().pruned_through(), 3);
    kb.persist_to(&dir).unwrap();
    kb.set_obs(Obs::enabled());
    let compactions = |kb: &KnowledgeBase| kb.obs().get(obs_key::WAL_COMPACTIONS);

    // every event prunes the window, none checkpoints: the cadence counts
    // log records, and the log holds fewer than 8
    for i in 0..8 {
        kb.stage_document(format!("d{i}"), "a\n1\n");
        assert_eq!(log_records(&dir), i + 1);
    }
    assert_eq!(kb.journal().pruned_through(), 11);
    assert_eq!(compactions(&kb), 0, "a full log is compacted by the next event, not before");
    let pre_compaction = fingerprint(&kb);
    let old_log = std::fs::read(dir.join(WAL_FILE)).unwrap();

    // the event after the 8th record: checkpoint first, then append
    kb.stage_document("overflow", "a\n1\n");
    assert_eq!(compactions(&kb), 1);
    assert_eq!(log_records(&dir), 1, "compaction resets the log to the overflow record");
    kb.storage_health().unwrap();
    let post_compaction = fingerprint(&kb);
    drop(kb);

    let reopened = KnowledgeBase::open(&dir).unwrap();
    assert_eq!(fingerprint(&reopened), post_compaction);
    drop(reopened);

    // simulate the interrupted compaction: new snapshot + the old log
    std::fs::write(dir.join(WAL_FILE), &old_log).unwrap();
    let mut reopened = KnowledgeBase::open(&dir).unwrap();
    assert_eq!(
        fingerprint(&reopened),
        pre_compaction,
        "stale records at or below the snapshot version must be skipped"
    );
    // the stale records still fill the log, so the next event finishes
    // the interrupted compaction instead of growing the log past a window
    reopened.stage_document("overflow", "a\n1\n");
    assert_eq!(log_records(&dir), 1);
    assert_eq!(fingerprint(&reopened), post_compaction);
}

/// The cadence, counted exactly: a checkpoint lands on the event *after*
/// the log reaches `capacity` records, so `records` single-row edits on a
/// persisted base cost `(records - 1) / capacity` snapshots — never one per
/// edit — while every one of them is still framed and fsync'd on its own.
#[test]
fn single_row_edits_checkpoint_once_per_window() {
    const CAPACITY: usize = 16;
    let dir = TempDir::new("cadence");
    let mut kb = KnowledgeBase::with_journal_capacity(CAPACITY);
    let mut rel = Relation::empty(mixed_schema("mixed"));
    for i in 0..200i64 {
        rel.push(tuple!["row", i, 0.5f64]).unwrap();
    }
    kb.register_source(rel);
    kb.persist_to(&dir).unwrap();
    kb.set_obs(Obs::enabled());

    for records in 1..=(4 * CAPACITY + 3) {
        if records % 2 == 0 {
            kb.remove_rows("mixed", &[records % 7]).unwrap();
        } else {
            kb.update_source("mixed", &[(records % 5, tuple!["edited", records as i64, 1.5f64])])
                .unwrap();
        }
        let obs = kb.obs();
        assert_eq!(
            obs.get(obs_key::WAL_COMPACTIONS) as usize,
            (records - 1) / CAPACITY,
            "after {records} records"
        );
        assert_eq!(obs.get(obs_key::WAL_APPENDS) as usize, records);
        assert_eq!(obs.get(obs_key::WAL_FSYNCS) as usize, records);
    }
    kb.storage_health().unwrap();
    let live = fingerprint(&kb);
    drop(kb);
    assert_eq!(fingerprint(&KnowledgeBase::open(&dir).unwrap()), live);
}

/// A knowledge base records nothing until a registry is attached. A
/// stand-alone durable base — a long edit session outside any wrangler —
/// keeps no counters or spans for its edits and queries, however
/// many it makes. An attached registry sees exactly the events after the
/// attach, and a clone of the attached base records into nothing.
#[test]
fn a_knowledge_base_records_nothing_until_a_registry_is_attached() {
    const N: usize = 64;
    const M: usize = 9;
    let dir = TempDir::new("unobserved");
    let mut kb = KnowledgeBase::new();
    let mut rel = Relation::empty(mixed_schema("mixed"));
    for i in 0..8i64 {
        rel.push(tuple!["row", i, 0.5f64]).unwrap();
    }
    kb.register_source(rel);
    kb.persist_to(&dir).unwrap();
    let edit = |kb: &mut KnowledgeBase, i: usize| {
        kb.update_source("mixed", &[(i % 8, tuple!["edited", i as i64, 1.5f64])]).unwrap();
        kb.query("relation(R, K, N)").unwrap();
    };

    for i in 0..N {
        edit(&mut kb, i);
    }
    let report = kb.obs().report();
    assert!(!report.enabled, "a fresh base starts with the disabled stub");
    assert!(report.counters.is_empty(), "{:?}", report.counters);
    assert!(report.spans.is_empty(), "{} spans", report.spans.len());

    let obs = Obs::enabled();
    kb.set_obs(obs.clone());
    for i in 0..M {
        edit(&mut kb, N + i);
    }
    assert_eq!(obs.get(obs_key::KB_EVENTS), M as u64, "nothing recorded before the attach");
    assert_eq!(obs.get(obs_key::WAL_APPENDS), M as u64);
    let appends = obs.span_records().iter().filter(|s| s.name == "wal/append").count();
    assert_eq!(appends, M);

    let before = obs.report();
    let mut clone = kb.clone();
    edit(&mut clone, 0);
    assert!(!clone.obs().is_enabled(), "a clone's events are not pipeline events");
    let after = obs.report();
    assert_eq!(after.counters, before.counters);
    assert_eq!(after.spans.len(), before.spans.len());
    kb.storage_health().unwrap();
}

/// Consumer watermarks resume O(change) across a crash: the recovered
/// journal keeps its lineage and versions, so a watermark taken before the
/// crash (what the mapping result stores keep) reads an empty slice on the
/// untouched reopened base and exactly the one row-level event after the
/// first post-recovery edit — never `None`, which would force a rebuild.
#[test]
fn pre_crash_watermark_resumes_o_change_after_reopen() {
    let dir = TempDir::new("watermark-resume");
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 40, seed: 5 },
        ..Default::default()
    });
    let mut kb = KnowledgeBase::new();
    kb.register_source(s.rightmove.clone());
    kb.persist_to(&dir).unwrap();
    kb.register_source(s.deprivation.clone());
    let lineage = kb.journal().lineage();
    let (watermark, version) = (kb.mark(), kb.version());
    let first_row = kb.relation("rightmove").unwrap().tuples()[0].clone();
    drop(kb);

    let sources = ["rightmove", "deprivation"];
    let mut kb = KnowledgeBase::open(&dir).unwrap();
    assert_eq!(kb.journal().lineage(), lineage, "recovery must keep the lineage id");
    assert_eq!(
        kb.journal().scan_since(version).map(|events| events.count()),
        Some(0),
        "unchanged reopened base must journal nothing since the pre-crash watermark"
    );
    assert_eq!(
        kb.since(&watermark, &sources),
        Since::Unchanged,
        "the pre-crash mark must still pass the lineage and window checks"
    );
    kb.remove_rows("rightmove", &[0]).unwrap();
    let events: Vec<_> = kb
        .journal()
        .scan_since(version)
        .expect("post-recovery edits must replay")
        .collect();
    assert_eq!(events.len(), 1);
    assert_eq!(
        kb.since(&watermark, &sources),
        Since::Rows(events.clone()),
        "the mark reads the edit through the lineage-checked cursor too"
    );
    assert_eq!(
        events[0].change,
        DeltaChange::RowsRemoved {
            relation: "rightmove".into(),
            rows: vec![first_row],
            positions: vec![0],
        }
    );
}

/// Drive the full wrangling pipeline durably, checkpoint the observable
/// state at each pipeline step, then crash and reopen at each of those
/// watermarks: the recovered state must be byte-identical every time.
#[test]
fn wrangled_kb_recovers_byte_identically_across_the_config_matrix() {
    let dir = TempDir::new("matrix");
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 40, seed: 9 },
        ..Default::default()
    });
    let mut w = Wrangler::new();
    w.kb_mut().persist_to(&dir).unwrap();

    let mut watermarks = Vec::new();
    let checkpoint = |w: &Wrangler| (w.kb().version(), fingerprint(w.kb()));
    w.add_source(s.rightmove.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap succeeds");
    watermarks.push(checkpoint(&w));
    w.add_data_context(
        s.address.clone(),
        ContextKind::Reference,
        &[("street", "street"), ("postcode", "postcode")],
    )
    .unwrap();
    w.run().expect("context step succeeds");
    watermarks.push(checkpoint(&w));
    w.remove_source_rows("rightmove", &[1, 3]).unwrap();
    w.set_user_context(vec![PairwiseStatement {
        more_important: "completeness(crimerank)".into(),
        less_important: "completeness(bedrooms)".into(),
        strength: "strongly".into(),
    }]);
    w.run().expect("edit step succeeds");
    watermarks.push(checkpoint(&w));
    w.kb().storage_health().unwrap();
    drop(w);

    let wal_path = dir.join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    let boundaries = record_boundaries(&full);
    let (_wal, records) = Wal::open(&wal_path).unwrap();
    assert_eq!(boundaries.len(), records.len() + 1);

    for (version, expected) in &watermarks {
        // the boundary right after the record that produced `version`
        let k = records
            .iter()
            .position(|r| r.event.seq == *version)
            .map(|i| i + 1)
            .expect("every checkpoint version has a WAL record");
        std::fs::write(&wal_path, &full[..boundaries[k]]).unwrap();
        let reopened = KnowledgeBase::open(&dir).unwrap();
        assert_eq!(
            &fingerprint(&reopened),
            expected,
            "crash at v{version} must recover that state"
        );
    }
}

/// Re-wrangling a recovered knowledge base reproduces the pre-crash
/// result: the catalog survives the crash byte-identically, and the
/// derived metadata (matches, mappings, selections) is re-derived by the
/// pipeline — the paper's pay-as-you-go loop picks up where it left off.
#[test]
fn recovered_kb_rewrangles_to_the_same_result() {
    let dir = TempDir::new("rewrangle");
    let s = Scenario::generate(ScenarioConfig {
        universe: UniverseConfig { properties: 40, seed: 13 },
        ..Default::default()
    });
    let mut w = Wrangler::new();
    w.kb_mut().persist_to(&dir).unwrap();
    w.add_source(s.rightmove.clone());
    w.add_source(s.deprivation.clone());
    w.set_target(target_schema());
    w.run().expect("bootstrap succeeds");
    let result_before: Vec<Tuple> = w.result().expect("result materialised").tuples().to_vec();
    drop(w);

    let kb = KnowledgeBase::open(&dir).unwrap();
    let mut w2 = Wrangler::with_kb(kb);
    // metadata is re-derived, not restored: the user re-states intent
    w2.set_target(target_schema());
    w2.run().expect("re-wrangle succeeds");
    assert_eq!(
        w2.result().expect("result re-materialised").tuples(),
        &result_before[..],
        "re-wrangling the recovered catalog must reproduce the result"
    );
}

/// A wrangler's base is durable from `persist_to` until
/// `disable_durability`: the detach leaves the files on disk, and they
/// reopen to the state the log reached.
#[test]
fn a_detached_log_keeps_its_files_and_reopens() {
    let dir = TempDir::new("detach");
    let mut w = Wrangler::new();
    assert_eq!(w.kb().durable_dir(), None, "a wrangler starts in memory");
    w.kb_mut().persist_to(&dir).unwrap();
    assert_eq!(w.kb().durable_dir(), Some(&*dir));
    w.add_source({
        let mut r = Relation::empty(mixed_schema("mixed"));
        r.push(tuple!["x", 7i64, 0.5f64]).unwrap();
        r
    });
    w.kb_mut().disable_durability();
    assert_eq!(w.kb().durable_dir(), None);
    w.kb_mut().remove_rows("mixed", &[0]).unwrap();
    // the files survive the detach and reopen to the last logged state
    let kb = KnowledgeBase::open(&dir).unwrap();
    assert_eq!(kb.relation("mixed").unwrap().len(), 1);
}
