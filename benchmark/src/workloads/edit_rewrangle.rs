//! `edit_rewrangle`: the interactive loop. A wrangled scenario takes small
//! edits — rows appended, removed, rewritten, cells annotated — and is
//! re-wrangled after each: small writes beside large re-reads. The script
//! is fixed, so the state growth over the session is part of the
//! measurement.

use std::time::Instant;

use vada::vada_common::csv::write_relation;
use vada::vada_common::{Relation, Tuple, VadaError, Value};
use vada::vada_extract::{Oracle, Scenario};

use super::paygo_wrangle::{sample_core, Ingest, Wrangle};
use super::replay::{derive_layer_metrics, stage_replay};
use super::{scenario, Bench};
use crate::stats;

/// Rows per source edit.
const BATCH: usize = 32;
/// Annotations per feedback operation.
const ANNOTATIONS: usize = 20;
/// Operations per cycle: append, remove, update, annotate.
const CYCLE: usize = 4;
/// Operations per session. Re-wrangling gets dearer as a session goes on
/// (a cycle costs half as much again by the fourth), so a run measures
/// whole sessions of a fixed length from a fresh set-up each: however many
/// fit in the time, the cycles sampled are the same mix of young and old.
const SESSION: usize = 4 * CYCLE;

struct Setup {
    scenario: Scenario,
    docs: Vec<(String, String)>,
    wr: Wrangle,
    /// The fifth of `rightmove` kept out of the bootstrap, appended in
    /// batches by the script.
    held_back: Vec<Tuple>,
}

fn setup(b: &mut Bench) -> Result<Setup, VadaError> {
    let start = Instant::now();
    let scenario = scenario(&b.p, b.p.size(4000, 1000), 0.05);
    b.sample("extract.generate.busy_s", start.elapsed().as_secs_f64());
    let keep = scenario.rightmove.len() * 4 / 5;
    let held_back = scenario.rightmove.tuples()[keep..].to_vec();
    let rightmove = Relation::from_tuples(
        scenario.rightmove.schema().clone(),
        scenario.rightmove.tuples()[..keep].to_vec(),
    )?;
    let sources = [&scenario.deprivation, &scenario.onthemarket, &rightmove];
    let docs = sources
        .iter()
        .map(|r| (r.name().to_string(), write_relation(r)))
        .collect();
    let mut wr = Wrangle::bootstrap(b, Ingest::Relations(&sources))?;
    wr.data_context(b, &scenario.address)?;
    Ok(Setup {
        scenario,
        docs,
        wr,
        held_back,
    })
}

/// An edit call, its arguments already built.
type Edit = Box<dyn FnOnce(&mut vada::Wrangler) -> Result<(), VadaError>>;

/// FNV-1a over the CSV rendering: equal digests mean byte-identical results.
fn digest(rel: &Relation) -> u64 {
    write_relation(rel)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One operation of the script: the edit call plus the `run()` after it.
/// Building the edit's arguments is the user's side and stays untimed.
fn operation(
    b: &mut Bench,
    s: &mut Setup,
    oracle_ids: &mut usize,
    i: usize,
) -> Result<f64, VadaError> {
    // `cycle` numbers the cycles of the whole run, so no two sessions make
    // the same edits
    let cycle = i / CYCLE;
    let current = s.wr.w.kb().relation("rightmove")?;
    let len = current.len();
    let edit: Edit = match i % CYCLE {
        0 => {
            let from = i % SESSION / CYCLE * BATCH;
            let batch = s
                .held_back
                .get(from..from + BATCH)
                .ok_or_else(|| VadaError::Kb("held-back rows used up".into()))?;
            let mut grown = current.clone();
            grown.extend(batch.iter().cloned())?;
            Box::new(move |w| {
                w.add_source(grown);
                Ok(())
            })
        }
        1 => {
            let first = (cycle * 131) % (len - 2 * BATCH);
            let rows: Vec<usize> = (0..BATCH).map(|k| first + 2 * k).collect();
            Box::new(move |w| w.remove_source_rows("rightmove", &rows).map(|_| ()))
        }
        2 => {
            let price = current.schema().require("price")?;
            let edits: Vec<(usize, Tuple)> = (len - BATCH..len)
                .zip(0..)
                .map(|(row, k)| {
                    let repriced = Value::str((100_000 + 1_000 * cycle + k).to_string());
                    (row, current.tuples()[row].with_value(price, repriced))
                })
                .collect();
            Box::new(move |w| w.update_source_rows("rightmove", &edits))
        }
        _ => {
            // the oracle numbers its records from zero; keep ids unique
            // across the session by shifting them
            let mut records = Oracle::new(&s.scenario.universe).annotate(
                s.wr.result()?,
                ANNOTATIONS,
                b.p.seed_for(10 + cycle as u64),
            );
            for r in &mut records {
                r.id = format!("e{}", *oracle_ids);
                *oracle_ids += 1;
            }
            Box::new(move |w| {
                w.add_feedback(records);
                Ok(())
            })
        }
    };
    let start = Instant::now();
    let open = b.rec.enter("kb.edit");
    let edited = edit(&mut s.wr.w);
    b.rec.exit(open);
    edited?;
    b.rec.time("core.run", || s.wr.w.run())?;
    Ok(start.elapsed().as_secs_f64())
}

/// The main role under `VADA_INCREMENTAL=1`, and the `replay` role under no
/// profile, which runs the same script for exactly `--ops` operations so
/// the parent can compare the final results of the two.
pub fn run(b: &mut Bench) {
    let mut session: Option<Setup> = None;
    let mut digests = 0xcbf2_9ce4_8422_2325u64;
    let mut oracle_ids = 0usize;
    let (mut session_start, mut cycle_s) = (0, 0.0);
    let mut iteration = None;
    // every untraced edit-plus-run on its own, for the tail latency
    let mut op_seconds = Vec::new();
    b.drive("edit_rewrangle", 2 * SESSION, SESSION, SESSION, |b, i| {
        b.attempt();
        if i % SESSION == 0 {
            if let Some(done) = session.take() {
                digests = done
                    .wr
                    .result()
                    .map_or(0, |r| digests.rotate_left(7) ^ digest(r));
            }
            let start = Instant::now();
            match setup(b) {
                Ok(s) => session = Some(s),
                Err(e) => {
                    b.fail(format!("set-up: {e}"));
                    return false;
                }
            }
            b.sample("setup_s", start.elapsed().as_secs_f64());
            session_start = session.as_ref().map_or(0, |s| s.wr.w.trace().len());
            iteration = Some(b.rec.enter("session"));
        }
        let s = session.as_mut().expect("a session is open");
        match operation(b, s, &mut oracle_ids, i) {
            Ok(seconds) => {
                cycle_s += seconds;
                if !b.tracing() {
                    op_seconds.push(seconds);
                }
            }
            Err(e) => {
                b.rec.exit(iteration.take().expect("a session is open"));
                b.fail(format!("operation {i}: {e}"));
                return false;
            }
        }
        if i % CYCLE == CYCLE - 1 {
            b.sample_op(cycle_s);
            cycle_s = 0.0;
        }
        if i % SESSION == SESSION - 1 {
            if b.tracing() {
                let run_s = b
                    .rec
                    .busy_by_trace("core.run")
                    .last()
                    .copied()
                    .unwrap_or(0.0);
                sample_core(b, &s.wr.w, session_start, run_s);
                if let Err(e) = stage_replay(b, &s.wr.w, &s.docs) {
                    b.fail(format!("stage replay: {e}"));
                }
            }
            b.rec.exit(iteration.take().expect("a session is open"));
        }
        true
    });

    match session.as_ref().map(|s| s.wr.result()) {
        Some(Ok(result)) => {
            let wrong = u64::from(b.p.inject_wrong_answer);
            b.extras.insert(
                "digest".into(),
                format!("{:016x}", (digests.rotate_left(7) ^ digest(result)) ^ wrong),
            );
        }
        _ => b.fail("no session left a result"),
    }
    b.extras.insert("ops".into(), b.attempted.to_string());
    if b.p.trace {
        derive_layer_metrics(b);
        b.trace_overhead();
        if let Some((pct, value)) = stats::tail(&op_seconds) {
            b.set("core.rewrangle_tail_s", value);
            b.set("core.rewrangle_tail_pct", pct);
        }
    }
}
