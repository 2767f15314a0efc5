//! A small persistent fork-join thread pool for intra-worker kernel
//! parallelism.
//!
//! PowerSGD encode time is dominated by its three GEMMs and Top-K encode
//! by the `|data|` magnitude scan; both decompose into independent bands.
//! The pool spawns its workers **once** (at construction; the process-wide
//! [`global()`] pool on first use) and parks them on a condvar, so the
//! per-call cost is one mutex push + wakeup instead of a thread spawn.
//! Three banding primitives are exposed:
//!
//! - [`Pool::for_rows`] splits a mutable output buffer into disjoint
//!   row bands and runs a closure on each band concurrently;
//! - [`Pool::for_spans`] hands each band a `[lo, hi)` index span (for
//!   kernels whose in/out buffers need block-aligned banding, e.g. the
//!   32-elements-per-word sign kernels);
//! - [`Pool::map_spans`] additionally collects one result per band in band
//!   order (for the chunked top-k gather, which concatenates per-band
//!   index/value vectors).
//!
//! The banding is **bit-identical** to the serial kernel for every caller
//! in this crate because bands never split an accumulation chain: each
//! output element's FMA chain is computed in the same order regardless of
//! which band it lands in (see `matrix::matmul_pooled` et al.), and the
//! band *boundaries* depend only on `(units, bands)` — so results are also
//! identical across pool widths and repeated runs (verified by
//! `tests/kernel_props.rs`).
//!
//! Width comes from `GCS_KERNEL_THREADS` when set, else the legacy
//! `GCS_THREADS`, else [`std::thread::available_parallelism`]; setting
//! `GCS_FORCE_SCALAR=1` pins the width to 1 so the scalar reference path
//! is truly single-threaded. With width 1 (the common case on small CI
//! boxes) every call runs inline on the caller's thread with zero
//! overhead and no threads are spawned, so the pooled kernels are safe to
//! use unconditionally.
//!
//! # Soundness of the submission protocol
//!
//! Worker threads outlive any one call, so band closures cannot be handed
//! to them by borrow; instead [`Pool::dispatch`] erases the closure to a
//! raw `*const dyn Fn(usize)` and publishes it in a queue slot. The
//! submitting thread (a) participates in the band claim loop itself and
//! (b) blocks until every claimed band has finished executing before
//! returning, so the erased pointer is only ever dereferenced while the
//! closure (and everything it borrows) is alive. Panics inside a band are
//! caught on the executing thread, recorded, and re-raised on the
//! submitting thread after all bands drain.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A raw pointer that may cross threads. Used by the banding primitives to
/// hand disjoint sub-slices of one buffer to concurrent bands.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

// Manual impls: the derives would demand `T: Copy`, but the wrapped
// pointer is Copy for any `T`.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// By-value accessor: calling a method on `self` makes closures
    /// capture the whole (Sync) wrapper instead of disjointly borrowing
    /// the raw (non-Sync) pointer field.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is only used to address *disjoint* regions of a buffer
// the submitting thread holds exclusively for the duration of a dispatch;
// the dispatch protocol (see module docs) guarantees all cross-thread
// accesses finish before the submitter returns.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — disjointness is the caller's per-band contract.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Type-erased band task: call with a band index in `0..bands`.
///
/// The `'static` in the field type is a lie told to the type system;
/// see the module docs for why the pointer never outlives its closure.
struct RawTask(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (bound enforced at construction in
// `dispatch`) and is kept alive by the submitting thread until every band
// completes, so sharing the pointer across worker threads is sound.
unsafe impl Send for RawTask {}
// SAFETY: as above.
unsafe impl Sync for RawTask {}

/// One submitted fan-out: a task pointer plus claim/completion state.
struct Job {
    task: RawTask,
    bands: usize,
    /// Next unclaimed band index; claims are atomic-RMW so each band runs
    /// exactly once.
    next: AtomicUsize,
    /// Bands not yet finished; guarded by a mutex so the final decrement
    /// and the submitter's wait synchronize (mutex release/acquire is the
    /// happens-before edge that publishes band writes to the submitter).
    remaining: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by any band, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Claims the next band index, or `None` when all are claimed.
    fn claim(&self) -> Option<usize> {
        // SYNC: Relaxed is sufficient for the band cursor: the CAS inside
        // fetch_update makes each claim unique on its own, and band
        // *results* are never published through this atomic — the
        // `remaining` mutex release/acquire plus the condvar join carry
        // the happens-before edge to the submitter (verified by the
        // Pass 3 pool-join model in gcs-analyze).
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v < self.bands).then_some(v + 1)
            })
            .ok()
    }

    /// Runs one band, recording (not propagating) any panic, and signals
    /// the submitter when it was the last.
    fn run_band(&self, idx: usize) {
        // SAFETY: `task` points at a closure the submitting thread keeps
        // alive until `remaining` hits 0, which cannot happen before this
        // call returns (we decrement below, after the call).
        let f = unsafe { &*self.task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// State shared between pool handles and the parked worker threads.
struct Shared {
    queue: Mutex<JobQueue>,
    work_cv: Condvar,
}

#[derive(Default)]
struct JobQueue {
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

impl JobQueue {
    /// Claims a band from the first job that still has one, pruning jobs
    /// that were fully claimed by their submitter in the meantime.
    fn claim(&mut self) -> Option<(Arc<Job>, usize)> {
        while let Some(job) = self.jobs.first() {
            match job.claim() {
                Some(idx) => {
                    let job = Arc::clone(job);
                    if idx + 1 == job.bands {
                        self.jobs.remove(0);
                    }
                    return Some((job, idx));
                }
                None => {
                    self.jobs.remove(0);
                }
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let claimed = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(c) = q.claim() {
                    break Some(c);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        match claimed {
            Some((job, idx)) => job.run_band(idx),
            None => return,
        }
    }
}

/// Signals worker shutdown when the last pool handle drops, so `Pool`
/// values created in tests do not leak parked threads.
struct ShutdownGuard(Arc<Shared>);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.queue.lock().unwrap().shutdown = true;
        self.0.work_cv.notify_all();
    }
}

/// Fork-join helper over disjoint bands, backed by persistent workers.
#[derive(Clone)]
pub struct Pool {
    width: usize,
    shared: Option<Arc<Shared>>,
    _guard: Option<Arc<ShutdownGuard>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("width", &self.width).finish()
    }
}

impl Pool {
    /// A pool that fans out to at most `width` threads (including the
    /// calling thread). `width` is clamped to at least 1; `width - 1`
    /// worker threads are spawned immediately and parked until work
    /// arrives (none for width 1).
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        if width == 1 {
            return Pool {
                width,
                shared: None,
                _guard: None,
            };
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(JobQueue::default()),
            work_cv: Condvar::new(),
        });
        let mut spawned = 0usize;
        for i in 0..width - 1 {
            let s = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("gcs-kernel-{i}"));
            if builder.spawn(move || worker_loop(s)).is_ok() {
                spawned += 1;
            }
        }
        // If the OS refused some threads the pool degrades gracefully: the
        // submitter always participates, so any width still completes.
        Pool {
            width: spawned + 1,
            shared: Some(Arc::clone(&shared)),
            _guard: Some(Arc::new(ShutdownGuard(shared))),
        }
    }

    /// Width from the environment: `GCS_KERNEL_THREADS` when set to a
    /// positive integer, else the legacy `GCS_THREADS`, else
    /// [`std::thread::available_parallelism`], else 1. `GCS_FORCE_SCALAR=1`
    /// overrides everything to width 1 (single-threaded scalar reference).
    pub fn from_env() -> Self {
        Pool::new(width_from(
            crate::kernels::force_scalar(),
            std::env::var("GCS_KERNEL_THREADS").ok().as_deref(),
            std::env::var("GCS_THREADS").ok().as_deref(),
        ))
    }

    /// Maximum number of concurrent bands.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of bands for fanning `units` work items out with at least
    /// `min_units_per_band` items per band.
    fn bands_for(&self, units: usize, min_units_per_band: usize) -> usize {
        self.width
            .min(units / min_units_per_band.max(1))
            .clamp(1, units.max(1))
    }

    /// Core fan-out: runs `f(0), f(1), ..., f(bands - 1)` concurrently
    /// across the pool (the calling thread participates) and returns once
    /// all bands finish, re-raising the first band panic if any.
    fn dispatch(&self, bands: usize, f: &(dyn Fn(usize) + Sync)) {
        let Some(shared) = self.shared.as_ref().filter(|_| bands > 1) else {
            for b in 0..bands {
                f(b);
            }
            return;
        };
        let ptr: *const (dyn Fn(usize) + Sync + '_) = f;
        // SAFETY: erases the closure's borrow lifetime to 'static. The
        // pointer is dereferenced only by `Job::run_band`, and this
        // function does not return until `remaining == 0`, i.e. until
        // every `run_band` call has completed — so the closure outlives
        // every dereference (see module docs).
        let task = RawTask(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(ptr)
        });
        let job = Arc::new(Job {
            task,
            bands,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(bands),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut q = shared.queue.lock().unwrap();
            // Drop exhausted entries left behind by submitters that
            // claimed their own last band.
            // SYNC: a Relaxed read of the cursor is only a garbage-
            // collection hint under the queue mutex; a stale value keeps
            // an exhausted job one round longer, never hands out a band
            // twice (the CAS in `claim` stays authoritative).
            q.jobs.retain(|j| j.next.load(Ordering::Relaxed) < j.bands);
            q.jobs.push(Arc::clone(&job));
        }
        shared.work_cv.notify_all();
        // Participate: claim bands alongside the workers.
        while let Some(idx) = job.claim() {
            job.run_band(idx);
        }
        // Wait for bands claimed by workers to finish.
        let mut remaining = job.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = job.done_cv.wait(remaining).unwrap();
        }
        drop(remaining);
        let payload = job.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Splits `out` (rows of `row_len` elements each) into up to
    /// [`width`](Pool::width) near-equal contiguous row bands of at least
    /// `min_rows_per_band` rows and runs `f(first_row, band)` on each band
    /// concurrently, returning once all bands finish.
    ///
    /// With one band (width 1, few rows, or a small buffer) `f` runs
    /// inline exactly once over the whole buffer. Band boundaries depend
    /// only on the row count and band count — not on scheduling — so
    /// callers whose bands are independent get bit-identical results for
    /// every width.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `row_len`, or if `f`
    /// panics on any band (the panic is propagated).
    pub fn for_rows<T, F>(&self, out: &mut [T], row_len: usize, min_rows_per_band: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if out.is_empty() || row_len == 0 {
            f(0, out);
            return;
        }
        assert_eq!(
            out.len() % row_len,
            0,
            "buffer length {} is not a multiple of row length {row_len}",
            out.len()
        );
        let rows = out.len() / row_len;
        let bands = self.bands_for(rows, min_rows_per_band);
        if bands == 1 {
            f(0, out);
            return;
        }
        let base = SendPtr(out.as_mut_ptr());
        self.dispatch(bands, &move |b| {
            let lo = rows * b / bands;
            let hi = rows * (b + 1) / bands;
            // SAFETY: bands partition `0..rows` into disjoint `[lo, hi)`
            // ranges, so each band's sub-slice is exclusively owned by one
            // closure invocation; `out` itself is borrowed mutably for the
            // whole dispatch.
            let band = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(lo * row_len), (hi - lo) * row_len)
            };
            f(lo, band);
        });
    }

    /// [`for_rows`](Pool::for_rows) over two buffers of the same shape
    /// banded alike: `f(first_row, band_of_a, band_of_b)`, for kernels that
    /// write two outputs per row (a product and the residual it leaves).
    ///
    /// # Panics
    ///
    /// As [`for_rows`](Pool::for_rows), and if the lengths of `a` and `b`
    /// differ.
    pub fn for_row_pairs<T, F>(
        &self,
        a: &mut [T],
        b: &mut [T],
        row_len: usize,
        min_rows_per_band: usize,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T], &mut [T]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "paired buffers differ in length");
        let b_base = SendPtr(b.as_mut_ptr());
        self.for_rows(a, row_len, min_rows_per_band, move |row_lo, a_band| {
            // SAFETY: `for_rows` hands out disjoint bands of `a`, each
            // once; `b` has `a`'s length, so the same element range of `b`
            // is in bounds and owned by this invocation alone. `b` itself
            // is borrowed mutably for the whole call.
            let b_band = unsafe {
                std::slice::from_raw_parts_mut(b_base.get().add(row_lo * row_len), a_band.len())
            };
            f(row_lo, a_band, b_band);
        });
    }

    /// Splits `0..units` into up to [`width`](Pool::width) contiguous
    /// spans of at least `min_units_per_band` units and runs `f(lo, hi)`
    /// on each span concurrently. Does nothing when `units == 0`.
    ///
    /// Unlike [`for_rows`](Pool::for_rows) no buffer is split here — the
    /// closure indexes its own captures, which is what kernels with
    /// block-aligned in/out pairs (sign words ↔ 32 floats) need.
    pub fn for_spans<F>(&self, units: usize, min_units_per_band: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if units == 0 {
            return;
        }
        let bands = self.bands_for(units, min_units_per_band);
        self.dispatch(bands, &|b| {
            f(units * b / bands, units * (b + 1) / bands);
        });
    }

    /// Like [`for_spans`](Pool::for_spans) but collects `f`'s result for
    /// each span, returned in span order (lowest `lo` first) — the shape
    /// the chunked top-k gather needs to concatenate per-band matches in
    /// serial scan order.
    pub fn map_spans<R, F>(&self, units: usize, min_units_per_band: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if units == 0 {
            return Vec::new();
        }
        let bands = self.bands_for(units, min_units_per_band);
        let slots: Vec<Mutex<Option<R>>> = (0..bands).map(|_| Mutex::new(None)).collect();
        self.dispatch(bands, &|b| {
            let r = f(units * b / bands, units * (b + 1) / bands);
            *slots[b].lock().unwrap() = Some(r);
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every band stores its result")
            })
            .collect()
    }
}

/// Pure width policy, split out so the env plumbing is testable without
/// mutating the process environment: `force_scalar` wins (width 1), then
/// `GCS_KERNEL_THREADS`, then `GCS_THREADS`, then available parallelism.
fn width_from(force_scalar: bool, kernel_threads: Option<&str>, threads: Option<&str>) -> usize {
    if force_scalar {
        return 1;
    }
    let parse = |s: Option<&str>| {
        s.and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
    };
    parse(kernel_threads)
        .or_else(|| parse(threads))
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// The process-wide pool used by the pooled kernels when the caller does
/// not thread one through explicitly (compressors keep their trait
/// signatures unchanged by going through this). Workers are spawned once,
/// on first use, with the width from the environment.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_clamped_to_one() {
        assert_eq!(Pool::new(0).width(), 1);
        assert_eq!(Pool::new(5).width(), 5);
    }

    #[test]
    fn width_policy_honors_force_scalar_and_env_order() {
        assert_eq!(width_from(true, Some("8"), Some("4")), 1);
        assert_eq!(width_from(false, Some("8"), Some("4")), 8);
        assert_eq!(width_from(false, None, Some("4")), 4);
        assert_eq!(width_from(false, Some("garbage"), Some("4")), 4);
        assert_eq!(width_from(false, Some("0"), Some("3")), 3);
        // No env: falls back to available_parallelism (>= 1 either way).
        assert!(width_from(false, None, None) >= 1);
    }

    #[test]
    fn for_rows_covers_every_row_exactly_once() {
        for width in [1usize, 2, 3, 7] {
            for rows in [1usize, 2, 5, 16, 33] {
                let row_len = 3;
                let mut out = vec![0u32; rows * row_len];
                Pool::new(width).for_rows(&mut out, row_len, 1, |first_row, band| {
                    for (r, row) in band.chunks_mut(row_len).enumerate() {
                        for v in row.iter_mut() {
                            *v += (first_row + r) as u32 + 1;
                        }
                    }
                });
                let expect: Vec<u32> = (0..rows)
                    .flat_map(|r| std::iter::repeat_n(r as u32 + 1, row_len))
                    .collect();
                assert_eq!(out, expect, "width={width} rows={rows}");
            }
        }
    }

    #[test]
    fn for_row_pairs_bands_both_buffers_alike() {
        for width in [1, 2, 3] {
            let pool = Pool::new(width);
            let (mut a, mut b) = (vec![0usize; 7 * 3], vec![0usize; 7 * 3]);
            pool.for_row_pairs(&mut a, &mut b, 3, 1, |row_lo, a_band, b_band| {
                assert_eq!(a_band.len(), b_band.len());
                for (i, (x, y)) in a_band.iter_mut().zip(b_band).enumerate() {
                    *x += row_lo * 3 + i + 1;
                    *y += 2 * (row_lo * 3 + i + 1);
                }
            });
            assert!(a.iter().enumerate().all(|(i, &x)| x == i + 1));
            assert!(b.iter().enumerate().all(|(i, &y)| y == 2 * (i + 1)));
        }
    }

    #[test]
    fn for_rows_respects_min_band_size() {
        // 10 rows, min 8 per band: only one band fits, so everything runs
        // inline in a single call.
        let mut calls = std::sync::atomic::AtomicUsize::new(0);
        let mut out = vec![0u8; 10];
        Pool::new(4).for_rows(&mut out, 1, 8, |_, _| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(*calls.get_mut(), 1);
    }

    #[test]
    fn for_rows_empty_buffer_runs_once() {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        let mut out: Vec<f32> = Vec::new();
        Pool::new(3).for_rows(&mut out, 4, 1, |_, band| {
            assert!(band.is_empty());
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn for_spans_partitions_exactly() {
        for width in [1usize, 2, 4] {
            for units in [1usize, 5, 16, 67] {
                let hits: Vec<AtomicUsize> = (0..units).map(|_| AtomicUsize::new(0)).collect();
                Pool::new(width).for_spans(units, 1, |lo, hi| {
                    assert!(lo < hi && hi <= units);
                    for h in &hits[lo..hi] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "width={width} units={units}"
                );
            }
        }
        // Zero units: closure must not run.
        Pool::new(2).for_spans(0, 1, |_, _| panic!("must not run"));
    }

    #[test]
    fn map_spans_returns_results_in_span_order() {
        let pool = Pool::new(4);
        let spans = pool.map_spans(100, 1, |lo, hi| (lo, hi));
        assert!(!spans.is_empty());
        let mut expect_lo = 0;
        for (lo, hi) in spans {
            assert_eq!(lo, expect_lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 100);
        assert!(pool.map_spans(0, 1, |_, _| 0u8).is_empty());
    }

    #[test]
    fn band_panic_propagates_to_submitter() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_spans(16, 1, |lo, _| {
                if lo >= 8 {
                    panic!("band boom");
                }
            });
        }));
        assert!(result.is_err(), "band panic must reach the submitter");
        // The pool must still be usable afterwards.
        let sum: usize = pool.map_spans(10, 1, |lo, hi| hi - lo).into_iter().sum();
        assert_eq!(sum, 10);
    }

    #[test]
    fn pool_survives_many_round_trips() {
        // Regression guard for the persistent queue: repeated dispatches
        // must not wedge on stale jobs or lost wakeups.
        let pool = Pool::new(4);
        for round in 0..200usize {
            let total: usize = pool
                .map_spans(round + 1, 1, |lo, hi| hi - lo)
                .into_iter()
                .sum();
            assert_eq!(total, round + 1);
        }
    }

    #[test]
    fn global_pool_is_stable() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().width() >= 1);
    }
}
