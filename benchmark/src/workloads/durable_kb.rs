//! `durable_kb`: the storage layer used for writes, then for recovery. A
//! scenario is ingested from CSV into a persisted knowledge base, edited one
//! row at a time until the 4096-event journal window has filled, and then
//! run as a long-lived session: a few acknowledged edits, a restart, a
//! recovery, again and again.

use std::path::Path;
use std::time::Instant;

use vada::vada_common::csv::{read_relation, write_relation};
use vada::vada_common::{Relation, Tuple, VadaError, Value};
use vada::vada_kb::KnowledgeBase;

use super::{scenario, Bench};
use crate::proc::{dir_size, proc_io};

/// Edits timed as before-the-window: safely short of the 4096 events the
/// journal keeps (the ingest adds a few of its own).
const PRE_WINDOW: usize = 4000;
/// Edits after which the window has certainly filled; the ones in between
/// are run but belong to neither regime.
const WINDOW_FULL: usize = 4200;
/// Edits between two restarts of the session.
const EDITS_PER_CYCLE: usize = 8;

struct Setup {
    /// `(relation as generated, its CSV rendering)`.
    docs: Vec<(Relation, String)>,
}

fn setup(b: &mut Bench) -> Result<Setup, VadaError> {
    let start = Instant::now();
    let s = scenario(&b.p, b.p.size(10_000, 500), 0.05);
    b.sample("extract.generate.busy_s", start.elapsed().as_secs_f64());
    let docs = [s.rightmove, s.onthemarket, s.deprivation, s.address]
        .into_iter()
        .map(|r| {
            let text = write_relation(&r);
            (r, text)
        })
        .collect();
    Ok(Setup { docs })
}

/// The single-row edit script: even edits remove a `rightmove` row (while it
/// has rows to spare), odd edits rewrite the tail row of `onthemarket`.
/// Returns the bytes of user data the edit supplied (the CSV rendering of
/// the edited row).
fn edit(kb: &mut KnowledgeBase, i: usize) -> Result<usize, VadaError> {
    let len = kb.relation("rightmove")?.len();
    if i.is_multiple_of(2) && len > 100 {
        let removed = kb.remove_rows("rightmove", &[(i * 7919) % len])?;
        return Ok(row_bytes(&removed[0]));
    }
    let name = if i.is_multiple_of(2) {
        "rightmove"
    } else {
        "onthemarket"
    };
    let rel = kb.relation(name)?;
    let row = rel.len() - 1;
    let rewritten = rel.tuples()[row].with_value(0, Value::str((100_000 + i).to_string()));
    let bytes = row_bytes(&rewritten);
    kb.update_source(name, &[(row, rewritten)])?;
    Ok(bytes)
}

fn row_bytes(t: &Tuple) -> usize {
    t.iter().map(|v| v.to_string().len() + 1).sum()
}

/// Every catalogued relation of the live base, for comparison after a
/// recovery.
fn relations(kb: &KnowledgeBase, names: &[String]) -> Result<Vec<Relation>, VadaError> {
    names.iter().map(|n| kb.relation(n).cloned()).collect()
}

fn session(b: &mut Bench, s: &Setup, dir: &Path) -> Result<(), VadaError> {
    let names: Vec<String> = s.docs.iter().map(|(r, _)| r.name().to_string()).collect();

    // ingest: CSV text into a persisted base
    b.rec.set_enabled(b.p.trace);
    b.rec.begin_trace("durable_kb/ingest".into());
    let io0 = proc_io();
    let start = Instant::now();
    let mut kb = KnowledgeBase::new();
    kb.persist_to(dir)?;
    let mut user_bytes = 0usize;
    for (rel, text) in &s.docs {
        let open = b.rec.enter("common.csv.read");
        let parsed = read_relation(text, rel.schema().clone())?;
        b.rec.count("rows", parsed.len() as u64);
        b.rec.exit(open);
        b.rec.time("kb.register", || kb.register_source(parsed));
        user_bytes += text.len();
    }
    b.set("kb.storage.ingest_s", start.elapsed().as_secs_f64());

    // before the window fills: every edit timed on its own
    let mut acks = Vec::with_capacity(WINDOW_FULL);
    let mut io_pre = io0;
    for i in 0..WINDOW_FULL {
        let start = Instant::now();
        let bytes = edit(&mut kb, i)?;
        acks.push(start.elapsed().as_secs_f64());
        if i < PRE_WINDOW {
            user_bytes += bytes;
        }
        if i + 1 == PRE_WINDOW {
            io_pre = proc_io();
        }
    }
    b.attempted += WINDOW_FULL as u64;
    kb.storage_health()?;

    // after it: cycles of a few edits and a restart, until the time is up
    let io1 = proc_io();
    let mut post_user_bytes = 0usize;
    let mut post_acks = Vec::new();
    let mut i = WINDOW_FULL;
    b.drive("durable_kb", 3, 1, 1, |b, _| {
        b.attempt();
        let open = b.rec.enter("cycle");
        let done = (|| -> Result<f64, VadaError> {
            let start = Instant::now();
            let edits = b.rec.enter("kb.storage.edits");
            for _ in 0..EDITS_PER_CYCLE {
                let edit_start = Instant::now();
                post_user_bytes += edit(&mut kb, i)?;
                post_acks.push(edit_start.elapsed().as_secs_f64());
                i += 1;
            }
            b.rec.exit(edits);
            let edits_s = start.elapsed().as_secs_f64();
            let (version, live) = (kb.version(), relations(&kb, &names)?);
            // restart: the live base goes away, the directory is all there is
            kb = KnowledgeBase::new();
            let start = Instant::now();
            let reopened = b
                .rec
                .time("kb.storage.recover", || KnowledgeBase::open(dir))?;
            let cycle_s = edits_s + start.elapsed().as_secs_f64();
            let wrong = u64::from(b.p.inject_wrong_answer);
            let same = reopened.version() + wrong == version
                && names
                    .iter()
                    .zip(&live)
                    .all(|(n, want)| reopened.relation(n).is_ok_and(|got| super::same(got, want)));
            kb = reopened;
            kb.storage_health()?;
            if !same {
                return Err(VadaError::Kb(
                    "the reopened base differs from the live one".into(),
                ));
            }
            Ok(cycle_s)
        })();
        b.rec.exit(open);
        match done {
            Ok(seconds) => {
                b.sample_op(seconds);
                true
            }
            Err(e) => {
                b.fail(e);
                false
            }
        }
    });
    let io2 = proc_io();

    if b.p.trace {
        b.extend("kb.storage.edit_ack_s", acks[..PRE_WINDOW].iter().copied());
        b.extend(
            "kb.storage.edit_ack_postwindow_s",
            post_acks.iter().copied(),
        );
        let mut sorted: Vec<f64> = acks.into_iter().chain(post_acks).collect();
        sorted.sort_by(f64::total_cmp);
        b.set("kb.storage.edit_ack_p99_s", sorted[sorted.len() * 99 / 100]);
        let recoveries = b.rec.durations("kb.storage.recover");
        b.extend("kb.storage.recover_s", recoveries);
        b.set(
            "kb.storage.write_amp_prewindow",
            (io_pre.0 - io0.0) as f64 / user_bytes as f64,
        );
        if post_user_bytes > 0 {
            b.set(
                "kb.storage.write_amp_postwindow",
                (io2.0 - io1.0) as f64 / post_user_bytes as f64,
            );
        }
        b.set("kb.storage.bytes_written", (io2.0 - io0.0) as f64);
        b.set("kb.storage.write_syscalls", (io2.1 - io0.1) as f64);
        b.set("kb.storage.disk_bytes", dir_size(dir) as f64);
    }
    Ok(())
}

pub fn run(b: &mut Bench) {
    let s = match b.setup(setup) {
        Ok(s) => s,
        Err(e) => {
            b.attempt();
            return b.fail(format!("set-up: {e}"));
        }
    };
    let dir = b.p.tmp.join("durable_kb");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = session(b, &s, &dir) {
        b.attempt();
        b.fail(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if b.p.trace {
        super::replay::derive_layer_metrics(b);
        b.trace_overhead();
    }
}
