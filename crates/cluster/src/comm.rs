//! Handle-based asynchronous collectives: a dedicated communication thread
//! per worker.
//!
//! [`CommEngine::spawn`] moves a [`WorkerHandle`] onto its own thread and
//! exposes `start_*` methods that enqueue collective jobs on a **bounded**
//! channel and return immediately with a pending handle.  The caller
//! overlaps its own compute (packing / encoding the next gradient bucket)
//! with the collective in flight and later blocks on
//! [`Pending::wait`] to retrieve the result.
//!
//! # Ordering invariant
//!
//! The comm thread processes jobs strictly FIFO.  As long as every rank
//! submits the *same sequence* of collectives — which the pipelined
//! exchange engine guarantees by construction (all ranks walk the same
//! bucket schedule) — the underlying blocking collectives pair up
//! correctly across ranks and cannot deadlock.  Interleaving jobs from
//! multiple producer threads on one engine would break this; the engine is
//! deliberately `!Sync`-by-convention (methods take `&self` but the
//! pipelined engine owns it uniquely).
//!
//! # Backpressure
//!
//! The job queue is a `sync_channel(queue_depth)`: once `queue_depth`
//! collectives are in flight, `start_*` blocks until the comm thread
//! drains one.  Depth 2 gives classic double buffering — bucket *i* on the
//! wire while bucket *i+1* is being encoded.
//!
//! The arithmetic is *identical* to calling the blocking collectives
//! inline: the comm thread simply calls [`WorkerHandle::all_reduce_mean`]
//! (the mean over the handle's members, divided inside the ring) /
//! [`WorkerHandle::all_gather_bytes`] on the same handle, so results are
//! bit-exact with the sequential engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::transport::{Frame, WorkerHandle};
use crate::{ClusterError, Result};

/// One queued collective. Buffers travel by value inside it so the comm
/// thread can work on them without synchronization; they come back
/// through the job's reply channel for the caller to recycle.
type Job = Box<dyn FnOnce(&WorkerHandle, &Shared) + Send>;

/// In-flight collective started by [`CommEngine::start_all_reduce_mean`]
/// (`T` is the reduced buffer) or [`CommEngine::start_all_gather`] (`T`
/// is one frame per rank, in rank order, this rank's entry a zero-copy
/// view of what it sent, plus the sent buffer for recycling).
#[must_use = "a pending collective does nothing until waited on"]
pub struct Pending<T> {
    rx: Receiver<Result<T>>,
}

impl<T> Pending<T> {
    /// Block until the collective completes and return its result.
    pub fn wait(self) -> Result<T> {
        self.rx
            .recv()
            .unwrap_or(Err(ClusterError::Disconnected { peer: usize::MAX }))
    }
}

/// What the comm thread shares with its engine.
#[derive(Default)]
struct Shared {
    /// First collective error the comm thread hit. Once set, the engine is
    /// poisoned: queued and future jobs are answered with this error
    /// instead of being executed, so one rank's failure surfaces
    /// immediately on every subsequent `start_*`/`wait` instead of
    /// desynchronizing the cross-rank job pairing (or hanging).
    poisoned: Mutex<Option<ClusterError>>,
    /// Nanoseconds the comm thread has spent executing collectives (wire
    /// busy time).  The gap between a caller's blocked `wait` time and
    /// this counter is scheduling overhead / exposed encode time.
    busy_nanos: AtomicU64,
}

impl Shared {
    fn last_error(&self) -> Option<ClusterError> {
        // A poisoned mutex only means another thread panicked while
        // holding the lock; the Option inside is still valid.
        self.poisoned
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Runs one collective, timed, and poisons the engine if it fails. A
    /// poisoned engine answers without touching the wire: executing
    /// further collectives after a failure would desynchronize rank
    /// pairing.
    fn execute<T>(&self, collective: impl FnOnce() -> Result<T>) -> Result<T> {
        if let Some(e) = self.last_error() {
            return Err(e);
        }
        let t0 = Instant::now();
        let res = collective();
        self.busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        if let Err(e) = &res {
            let mut slot = self.poisoned.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert_with(|| e.clone());
        }
        res
    }
}

/// A worker's dedicated communication thread.
///
/// Owns the [`WorkerHandle`] for the lifetime of the engine; call
/// [`shutdown`](CommEngine::shutdown) to drain the queue and get the
/// handle back.
pub struct CommEngine {
    jobs: Option<SyncSender<Job>>,
    thread: Option<JoinHandle<WorkerHandle>>,
    rank: usize,
    shared: Arc<Shared>,
}

impl CommEngine {
    /// Spawn the communication thread.  `queue_depth` bounds the number of
    /// collectives that may be queued or in flight at once (must be ≥ 1);
    /// further `start_*` calls block until a slot frees up.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] if `queue_depth` is zero
    /// and [`ClusterError::Protocol`] if the OS refuses to spawn the
    /// thread.
    pub fn spawn(worker: WorkerHandle, queue_depth: usize) -> Result<Self> {
        if queue_depth < 1 {
            return Err(ClusterError::InvalidArgument(
                "queue_depth must be at least 1".into(),
            ));
        }
        let rank = worker.rank();
        let (tx, rx) = sync_channel::<Job>(queue_depth);
        let shared = Arc::new(Shared::default());
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("gcs-comm-{rank}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job(&worker, &thread_shared);
                }
                worker
            })
            .map_err(|e| ClusterError::Protocol(format!("failed to spawn comm thread: {e}")))?;
        Ok(Self {
            jobs: Some(tx),
            thread: Some(thread),
            rank,
            shared,
        })
    }

    /// Seconds the comm thread has spent executing collectives since
    /// spawn (monotone; read a delta around a region to attribute wire
    /// time to it).  Caller `wait` time minus this delta is *exposed*
    /// wait — time the pipeline stalled with nothing on the wire.
    pub fn busy_seconds(&self) -> f64 {
        self.shared.busy_nanos.load(Ordering::SeqCst) as f64 * 1e-9
    }

    /// The first collective error the comm thread hit, if any. A poisoned
    /// engine fails every subsequent job with this error instead of
    /// touching the wire.
    pub fn last_error(&self) -> Option<ClusterError> {
        self.shared.last_error()
    }

    /// Rank of the underlying worker.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Enqueue a mean-all-reduce of `data` over the handle's members,
    /// bit-identical to the blocking [`WorkerHandle::all_reduce_mean`].
    ///
    /// Blocks only if the job queue is full (backpressure).
    pub fn start_all_reduce_mean(&self, mut data: Vec<f32>) -> Result<Pending<Vec<f32>>> {
        self.start(move |worker| worker.all_reduce_mean(&mut data).map(|()| data))
    }

    /// Enqueue an all-gather of `data` (opaque bytes).
    ///
    /// Blocks only if the job queue is full (backpressure).
    pub fn start_all_gather(&self, data: Vec<u8>) -> Result<Pending<(Vec<Frame>, Vec<u8>)>> {
        self.start(move |worker| worker.all_gather_bytes(&data).map(|frames| (frames, data)))
    }

    /// Enqueues `collective` behind every job already queued.
    fn start<T: Send + 'static>(
        &self,
        collective: impl FnOnce(&WorkerHandle) -> Result<T> + Send + 'static,
    ) -> Result<Pending<T>> {
        if let Some(e) = self.last_error() {
            return Err(e);
        }
        let Some(jobs) = self.jobs.as_ref() else {
            return Err(ClusterError::Protocol(
                "comm engine already shut down".into(),
            ));
        };
        let (reply, rx) = std::sync::mpsc::channel();
        let job: Job = Box::new(move |worker, shared| {
            // A dropped reply receiver just means the caller abandoned the
            // pending handle; keep serving.
            let _ = reply.send(shared.execute(|| collective(worker)));
        });
        jobs.send(job)
            .map_err(|_| ClusterError::Disconnected { peer: self.rank })?;
        Ok(Pending { rx })
    }

    /// Drain any queued jobs, stop the comm thread, and recover the
    /// [`WorkerHandle`] for further (blocking) use.
    pub fn shutdown(mut self) -> WorkerHandle {
        drop(self.jobs.take());
        let Some(thread) = self.thread.take() else {
            // `shutdown` consumes `self` and `thread` is always Some until
            // then; reachable only through a logic error in this module.
            unreachable!("comm thread already joined");
        };
        match thread.join() {
            Ok(worker) => worker,
            // The comm thread only panics if the worker closure panicked;
            // re-raise that panic on the caller's thread rather than
            // swallowing it or inventing a second panic site.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Drop for CommEngine {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(t) = self.thread.take() {
            // Propagating a panic out of drop would abort; losing the
            // handle here is fine, the cluster is going away anyway.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimCluster;

    #[test]
    fn async_reduce_matches_blocking_bitwise() {
        let outs = SimCluster::run(4, |w| {
            let rank = w.rank();
            let make = |salt: usize| -> Vec<f32> {
                (0..257)
                    .map(|i| ((rank * 53 + salt * 7 + i) % 97) as f32 * 0.31 - 1.5)
                    .collect()
            };
            let mut blocking0 = make(0);
            let mut blocking1 = make(1);
            w.all_reduce_mean(&mut blocking0).unwrap();
            w.all_reduce_mean(&mut blocking1).unwrap();

            (blocking0, blocking1)
        });
        let outs_async = SimCluster::run(4, |w| {
            let rank = w.rank();
            let make = |salt: usize| -> Vec<f32> {
                (0..257)
                    .map(|i| ((rank * 53 + salt * 7 + i) % 97) as f32 * 0.31 - 1.5)
                    .collect()
            };
            let eng = CommEngine::spawn(w, 2).unwrap();
            // Two overlapping reductions in flight at once.
            let p0 = eng.start_all_reduce_mean(make(0)).unwrap();
            let p1 = eng.start_all_reduce_mean(make(1)).unwrap();
            let r0 = p0.wait().unwrap();
            let r1 = p1.wait().unwrap();
            let _ = eng.shutdown();
            (r0, r1)
        });
        for ((b0, b1), (a0, a1)) in outs.iter().zip(&outs_async) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(b0), bits(a0));
            assert_eq!(bits(b1), bits(a1));
        }
    }

    #[test]
    fn async_gather_returns_rank_order_and_recycles_buffer() {
        let outs = SimCluster::run(4, |w| {
            let rank = w.rank();
            let eng = CommEngine::spawn(w, 2).unwrap();
            let sent = vec![rank as u8; rank + 1];
            let (frames, buf) = eng.start_all_gather(sent.clone()).unwrap().wait().unwrap();
            let _ = eng.shutdown();
            (frames, buf, sent)
        });
        for (frames, buf, sent) in outs {
            assert_eq!(buf, sent, "send buffer must come back for reuse");
            assert_eq!(frames.len(), 4);
            for (r, f) in frames.iter().enumerate() {
                assert_eq!(f.as_slice(), vec![r as u8; r + 1].as_slice());
            }
        }
    }

    #[test]
    fn shutdown_returns_usable_handle() {
        let sums = SimCluster::run(2, |w| {
            let eng = CommEngine::spawn(w, 1).unwrap();
            let _ = eng
                .start_all_reduce_mean(vec![1.0, 2.0])
                .unwrap()
                .wait()
                .unwrap();
            let w = eng.shutdown();
            let mut x = vec![w.rank() as f32 + 1.0];
            w.all_reduce_sum(&mut x).unwrap();
            x[0]
        });
        assert_eq!(sums, vec![3.0, 3.0]);
    }

    #[test]
    fn failed_collective_poisons_engine_instead_of_hanging() {
        use crate::faults::{FaultPlan, RecvPolicy};
        use std::time::Duration;
        // Rank 1 never participates, so rank 0's reduce times out. The
        // engine must surface the error on the pending handle, remember
        // it, and fail later jobs fast — no hang, no mismatched pairing.
        let plan = FaultPlan::new(3).recv_policy(RecvPolicy::with_timeout(
            Duration::from_millis(20),
            1,
            Duration::from_millis(10),
        ));
        let cluster = crate::SimCluster::new_with_faults(2, None, Some(plan));
        let outs = cluster.run_workers(|w| {
            if w.rank() == 0 {
                let eng = CommEngine::spawn(w, 2).unwrap();
                let first = eng.start_all_reduce_mean(vec![1.0; 4]).unwrap().wait();
                let poisoned = eng.last_error().is_some();
                // Later jobs fail fast at start (poisoned engine).
                let second = eng.start_all_reduce_mean(vec![1.0; 4]);
                let _ = eng.shutdown();
                (first.is_err(), poisoned, second.is_err())
            } else {
                // Deliberately absent from the collective. Give rank 0
                // time to time out before this handle drops (a drop would
                // surface Disconnected instead of Timeout).
                std::thread::sleep(Duration::from_millis(120));
                (true, true, true)
            }
        });
        assert_eq!(outs, vec![(true, true, true); 2]);
    }

    #[test]
    fn fifo_mixed_jobs_pair_up_across_ranks() {
        // Alternate reduce and gather jobs; identical submission order on
        // every rank must pair collectives correctly.
        let outs = SimCluster::run(3, |w| {
            let rank = w.rank();
            let eng = CommEngine::spawn(w, 2).unwrap();
            let r = eng.start_all_reduce_mean(vec![rank as f32; 5]).unwrap();
            let g = eng.start_all_gather(vec![rank as u8; 3]).unwrap();
            let r2 = eng.start_all_reduce_mean(vec![1.0f32; 2]).unwrap();
            let red = r.wait().unwrap();
            let (frames, _) = g.wait().unwrap();
            let red2 = r2.wait().unwrap();
            let _ = eng.shutdown();
            (red, frames.len(), red2)
        });
        for (red, nframes, red2) in outs {
            assert_eq!(red, vec![1.0; 5]); // (0+1+2) / 3
            assert_eq!(nframes, 3);
            assert_eq!(red2, vec![1.0; 2]);
        }
    }
}
