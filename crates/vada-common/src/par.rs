//! Deterministic chunked parallelism over `std::thread`.
//!
//! Every hot loop in the pipeline (pairwise similarity, per-stratum rule
//! passes, batched CSV ingest) funnels through the two combinators here, so
//! one module carries the whole determinism argument:
//!
//! - **Chunked, not work-stealing.** The input slice is split into one
//!   contiguous chunk per worker; workers never exchange items, so the
//!   assignment of item → worker is a pure function of `(len, workers)`.
//! - **Result order = input order.** Per-worker outputs are spliced back in
//!   chunk order, so the caller observes exactly the sequence a sequential
//!   loop would have produced.
//! - **Deterministic failure.** The error (or captured panic) with the
//!   *lowest input index* wins, which is the same error a sequential loop
//!   would have stopped on. Panics are caught per item and surfaced as
//!   [`VadaError::Parallel`] naming the stage — never a hang or abort.
//!
//! Because of these three properties, [`Parallelism::Sequential`] and
//! [`Parallelism::Threads(n)`](Parallelism::Threads) are observably
//! identical for any deterministic item function; both paths stay live
//! forever and are pinned to each other by the root
//! `parallel_equivalence` differential suite.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::{Result, VadaError};

/// How much parallelism a pipeline stage may use.
///
/// The default is read from the `VADA_THREADS` environment variable
/// (unset, `0`, or `1` mean sequential), so an operator can switch the
/// whole pipeline over without touching call sites; the determinism
/// guarantee above makes the override safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run on the calling thread.
    Sequential,
    /// Run on up to `n` scoped worker threads (clamped to
    /// [`MAX_WORKERS`]; 0 and 1 behave like sequential).
    Threads(usize),
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

impl Parallelism {
    /// Read the `VADA_THREADS` override: `>= 2` (under the shared
    /// [`crate::env`] count rules) selects [`Parallelism::Threads`],
    /// anything else (including unset or unparseable) selects
    /// [`Parallelism::Sequential`].
    pub fn from_env() -> Parallelism {
        match crate::env::count("VADA_THREADS") {
            Some(n) if n >= 2 => Parallelism::Threads(n),
            _ => Parallelism::Sequential,
        }
    }

    /// Number of workers this level actually runs (at least 1, at most
    /// [`MAX_WORKERS`] — so labels and telemetry derived from this value
    /// always match real execution).
    pub fn workers(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => (*n).clamp(1, MAX_WORKERS),
        }
    }

    /// Whether more than one worker may run.
    pub fn is_parallel(&self) -> bool {
        self.workers() > 1
    }
}

/// Hard ceiling on spawned workers per call. Oversubscription beyond the
/// core count is allowed (it is how the differential suites exercise real
/// multi-threading on small machines), but an absurd `VADA_THREADS` must
/// not turn into a one-thread-per-item spawn storm — `Scope::spawn` panics
/// outside any catch_unwind when the OS refuses a thread.
pub const MAX_WORKERS: usize = 256;

fn effective_workers(par: Parallelism, items: usize) -> usize {
    par.workers().min(items)
}

/// Run one item under a panic guard, converting a panic into
/// [`VadaError::Parallel`] that names the stage and the item.
fn run_one<T, R, F>(stage: &str, idx: usize, item: &T, f: &F) -> Result<R>
where
    F: Fn(usize, &T) -> Result<R>,
{
    match catch_unwind(AssertUnwindSafe(|| f(idx, item))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
                *s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            Err(VadaError::Parallel(format!(
                "stage `{stage}` panicked on item {idx}: {msg}"
            )))
        }
    }
}

/// Fallible parallel map with sequential semantics: applies `f` to every
/// item and returns the results **in input order**, or the failure with
/// the lowest input index (exactly what a sequential loop would return).
/// Panics inside `f` are captured (on both paths) and surfaced as
/// [`VadaError::Parallel`] naming `stage`.
pub fn par_try_map<T, R, F>(par: Parallelism, stage: &str, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    let workers = effective_workers(par, items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(stage, i, t, &f))
            .collect();
    }
    let chunk = items.len().div_ceil(workers);
    let per_worker: Vec<Result<Vec<R>, (usize, VadaError)>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                scope.spawn(move || {
                    let base = w * chunk;
                    let mut out = Vec::with_capacity(slice.len());
                    for (off, item) in slice.iter().enumerate() {
                        match run_one(stage, base + off, item, f) {
                            Ok(r) => out.push(r),
                            Err(e) => return Err((base + off, e)),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are captured per item"))
            .collect()
    });
    // Chunks cover ascending index ranges, so the first failing worker (in
    // chunk order) holds the lowest-index failure — but a failure only
    // matches the sequential outcome if every earlier chunk fully
    // succeeded, which the ordered scan below guarantees.
    let mut results = Vec::with_capacity(items.len());
    for wr in per_worker {
        match wr {
            Ok(mut v) => results.append(&mut v),
            Err((_, e)) => return Err(e),
        }
    }
    Ok(results)
}

/// Infallible variant of [`par_try_map`]: only panics inside `f` can
/// produce an error.
pub fn par_map<T, R, F>(par: Parallelism, stage: &str, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_try_map(par, stage, items, |i, t| Ok(f(i, t)))
}

/// Parallel fold over contiguous chunks: each worker reduces one chunk
/// (receiving the chunk's base index and slice, so it can keep per-worker
/// scratch state), and the per-chunk accumulators come back **in chunk
/// order**. The number of chunks varies with the worker count, so callers
/// must merge accumulators with a chunking-invariant operation (e.g.
/// key-keyed maps whose per-key lists stay in ascending row order) to
/// preserve the sequential-equivalence guarantee.
pub fn par_chunks<T, A, F>(par: Parallelism, stage: &str, items: &[T], f: F) -> Result<Vec<A>>
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> Result<A> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let workers = effective_workers(par, items.len());
    let chunk = items.len().div_ceil(workers);
    let bases: Vec<usize> = (0..items.len()).step_by(chunk).collect();
    par_try_map(par, stage, &bases, |_, &base| {
        f(base, &items[base..(base + chunk).min(items.len())])
    })
}

/// [`par_try_map`] with scheduling telemetry: the stage dispatch and its
/// item count are recorded on the *coordinating* thread before any worker
/// runs, so the counters depend only on what was submitted — never on how
/// the workers were scheduled — and are identical at every thread count.
pub fn par_try_map_obs<T, R, F>(
    obs: &crate::obs::Obs,
    par: Parallelism,
    stage: &str,
    items: &[T],
    f: F,
) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    obs.incr(crate::obs::key::PAR_STAGES);
    obs.add(crate::obs::key::PAR_ITEMS, items.len() as u64);
    par_try_map(par, stage, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_levels() -> [Parallelism; 4] {
        [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(8),
        ]
    }

    #[test]
    fn results_keep_input_order_at_every_level() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for par in all_levels() {
            let got = par_map(par, "test", &items, |_, &x| x * 2).unwrap();
            assert_eq!(got, expected, "{par:?}");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..64).collect();
        for par in all_levels() {
            let err = par_try_map(par, "test", &items, |i, _| {
                if i >= 7 {
                    Err(VadaError::Other(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err.message(), "boom at 7", "{par:?}");
        }
    }

    #[test]
    fn panic_is_captured_and_names_the_stage() {
        let items: Vec<usize> = (0..32).collect();
        for par in all_levels() {
            let err = par_map(par, "unit/poison", &items, |i, &x| {
                if i == 13 {
                    panic!("poisoned item");
                }
                x
            })
            .unwrap_err();
            assert_eq!(err.kind(), "parallel", "{par:?}");
            assert!(err.message().contains("unit/poison"), "{err}");
            assert!(err.message().contains("item 13"), "{err}");
            assert!(err.message().contains("poisoned item"), "{err}");
        }
    }

    #[test]
    fn absurd_thread_counts_are_capped_not_spawned() {
        let items: Vec<usize> = (0..10_000).collect();
        let got = par_map(Parallelism::Threads(1_000_000), "t", &items, |_, &x| x + 1).unwrap();
        assert_eq!(got.len(), items.len());
        assert_eq!(got[9_999], 10_000);
        assert_eq!(effective_workers(Parallelism::Threads(1_000_000), 10_000), MAX_WORKERS);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<usize> = vec![];
        for par in all_levels() {
            assert_eq!(par_map(par, "t", &empty, |_, &x| x).unwrap(), Vec::<usize>::new());
            assert_eq!(par_map(par, "t", &[41usize], |_, &x| x + 1).unwrap(), vec![42]);
        }
    }

    #[test]
    fn chunk_accumulators_come_back_in_order() {
        let items: Vec<usize> = (0..50).collect();
        for par in all_levels() {
            let sums = par_chunks(par, "t", &items, |base, slice| {
                Ok((base, slice.iter().sum::<usize>()))
            })
            .unwrap();
            // bases ascend and the chunk sums cover everything exactly once
            assert!(sums.windows(2).all(|w| w[0].0 < w[1].0), "{par:?}");
            assert_eq!(sums.iter().map(|(_, s)| s).sum::<usize>(), 49 * 50 / 2);
        }
    }

    #[test]
    fn from_env_parses_thread_counts() {
        // `from_env` is also exercised implicitly by the CI parallel gate,
        // which runs the whole suite under VADA_THREADS=4.
        match std::env::var("VADA_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n >= 2 => assert_eq!(Parallelism::from_env(), Parallelism::Threads(n)),
            _ => assert_eq!(Parallelism::from_env(), Parallelism::Sequential),
        }
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(1_000_000).workers(), MAX_WORKERS);
        assert!(!Parallelism::Sequential.is_parallel());
        assert!(Parallelism::Threads(2).is_parallel());
    }
}
