//! Pass 3 — race checker for the kernel pool, over a thread/event IR.
//!
//! `gcs_tensor::pool` is the one concurrent component whose data races
//! the compiler cannot rule out: it is the workspace's only file with
//! `unsafe impl Send/Sync`, a `Condvar`, and `Ordering::Relaxed`. Every
//! other threaded component lives in a `#![forbid(unsafe_code)]` crate
//! (Pass 2 enforces the attribute), where a data race is a compile error.
//!
//! The pool's band cursor and condvar join are lifted into a small model:
//! a fixed set of threads, each a straight-line sequence of events over
//! shared resources (plain variables, mutexes, condvars, bounded channels,
//! counters). A [`ThreadModel`] is a [`Machine`], so the analyzer's one
//! explorer visits all interleavings of the small configs (widths 1 and
//! 2). In any reachable state, two *co-enabled* conflicting plain accesses
//! (same variable, at least one write, different threads) are a data race:
//! mutual exclusion, channel blocking, and condvar joins are the only
//! things that can prevent co-enabling, and an atomic never blocks, so it
//! can neither order nor separate two accesses. States with no enabled
//! transition and unfinished threads are deadlocks; if a thread is parked
//! on a condvar there, it is a *lost wakeup*.
//!
//! Each model declares *source anchors* (e.g. `fetch_update` in
//! `pool.rs`); if refactoring removes them, the pass fails with a
//! `model-drift` finding instead of silently verifying a stale model.

use crate::explore::{Machine, PassReport, SourceAnchor};
use std::path::Path;

/// One event in a thread's straight-line program. Resources are indices
/// into the owning [`ThreadModel`]'s tables.
#[derive(Clone, Debug)]
pub enum Op {
    /// Plain (non-atomic) read of a shared variable.
    Read(usize),
    /// Plain (non-atomic) write of a shared variable.
    Write(usize),
    /// An atomic access, such as the pool's Relaxed band-cursor claim: a
    /// step of its own that never blocks and orders nothing.
    Atomic,
    /// Acquire a mutex (blocks until free).
    Lock(usize),
    /// Release a mutex the thread holds.
    Unlock(usize),
    /// Blocking send on a bounded channel (blocks while full).
    Send(usize),
    /// Blocking receive on a bounded channel (blocks while empty).
    Recv(usize),
    /// Decrement a counter (callers hold the guarding lock by convention).
    Dec(usize),
    /// Wake every thread parked on the condvar.
    NotifyAll(usize),
    /// Correct `while counter != 0 { cv.wait(lock) }` join: re-checks the
    /// predicate after every wakeup, holding `lock`.
    WaitZero {
        cv: usize,
        lock: usize,
        counter: usize,
    },
    /// Broken `if`-style wait that parks unconditionally exactly once —
    /// only used by seeded negative models to pin lost-wakeup detection.
    WaitOnce { cv: usize, lock: usize },
}

impl Op {
    fn plain_access(&self) -> Option<(usize, bool)> {
        match *self {
            Op::Read(v) => Some((v, false)),
            Op::Write(v) => Some((v, true)),
            _ => None,
        }
    }
}

/// A closed concurrent system: named threads over shared resources.
#[derive(Clone, Debug, Default)]
pub struct ThreadModel {
    pub name: String,
    pub vars: Vec<String>,
    pub locks: Vec<String>,
    /// (name, capacity).
    pub chans: Vec<(String, usize)>,
    /// (name, initial value).
    pub counters: Vec<(String, usize)>,
    pub cvs: Vec<String>,
    pub threads: Vec<(String, Vec<Op>)>,
    pub anchors: Vec<SourceAnchor>,
}

impl ThreadModel {
    fn new(name: impl Into<String>) -> Self {
        ThreadModel {
            name: name.into(),
            ..ThreadModel::default()
        }
    }
    fn var(&mut self, name: impl Into<String>) -> usize {
        self.vars.push(name.into());
        self.vars.len() - 1
    }
    fn lock(&mut self, name: impl Into<String>) -> usize {
        self.locks.push(name.into());
        self.locks.len() - 1
    }
    fn chan(&mut self, name: impl Into<String>, cap: usize) -> usize {
        self.chans.push((name.into(), cap.max(1)));
        self.chans.len() - 1
    }
    fn counter(&mut self, name: impl Into<String>, init: usize) -> usize {
        self.counters.push((name.into(), init));
        self.counters.len() - 1
    }
    fn cv(&mut self, name: impl Into<String>) -> usize {
        self.cvs.push(name.into());
        self.cvs.len() - 1
    }
    fn thread(&mut self, name: impl Into<String>, ops: Vec<Op>) {
        assert!(self.threads.len() < 32, "model limited to 32 threads");
        self.threads.push((name.into(), ops));
    }
    fn anchor(&mut self, file: &'static str, ident: &'static str) {
        self.anchors.push(SourceAnchor::new(file, ident));
    }
}

/// Global state of a model during exploration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ThreadState {
    pc: Vec<u16>,
    /// Mutex owner thread, or -1 when free.
    owner: Vec<i8>,
    fill: Vec<u8>,
    ctr: Vec<u8>,
    /// Per-condvar bitmask of parked threads.
    parked: Vec<u32>,
    /// Bitmask of threads woken by a notify that must re-acquire their
    /// wait lock before proceeding.
    wants: u32,
}

impl ThreadState {
    fn is_parked(&self, t: usize) -> bool {
        self.parked.iter().any(|&mask| mask & (1 << t) != 0)
    }

    fn finished(&self, m: &ThreadModel, t: usize) -> bool {
        self.pc[t] as usize >= m.threads[t].1.len()
            && !self.is_parked(t)
            && self.wants & (1 << t) == 0
    }
}

/// Attempt to step thread `t` from `s`: the successor state, or `None`
/// if `t` is blocked or finished.
fn try_step(m: &ThreadModel, s: &ThreadState, t: usize) -> Option<ThreadState> {
    let bit = 1u32 << t;
    if s.is_parked(t) {
        return None;
    }
    let ops = &m.threads[t].1;
    let pc = s.pc[t] as usize;
    if s.wants & bit != 0 {
        // Woken from a condvar wait: must re-acquire the wait lock.
        let (lock, advance) = match ops[pc] {
            Op::WaitZero { lock, .. } => (lock, false),
            Op::WaitOnce { lock, .. } => (lock, true),
            _ => unreachable!("wants-lock thread must sit at a wait op"),
        };
        if s.owner[lock] != -1 {
            return None;
        }
        let mut n = s.clone();
        n.owner[lock] = t as i8;
        n.wants &= !bit;
        if advance {
            n.pc[t] += 1;
        }
        return Some(n);
    }
    let op = ops.get(pc)?;
    let mut n = s.clone();
    match *op {
        Op::Lock(l) => {
            if s.owner[l] != -1 {
                return None;
            }
            n.owner[l] = t as i8;
        }
        Op::Unlock(l) => {
            debug_assert_eq!(s.owner[l], t as i8, "unlock of lock not held");
            n.owner[l] = -1;
        }
        Op::Send(c) => {
            if (s.fill[c] as usize) >= m.chans[c].1 {
                return None;
            }
            n.fill[c] += 1;
        }
        Op::Recv(c) => {
            if s.fill[c] == 0 {
                return None;
            }
            n.fill[c] -= 1;
        }
        Op::Dec(c) => n.ctr[c] = n.ctr[c].saturating_sub(1),
        Op::NotifyAll(cv) => {
            let woken = n.parked[cv];
            n.parked[cv] = 0;
            n.wants |= woken;
        }
        Op::WaitZero { cv, lock, counter } => {
            debug_assert_eq!(s.owner[lock], t as i8, "wait without lock held");
            if s.ctr[counter] != 0 {
                n.owner[lock] = -1;
                n.parked[cv] |= bit;
                return Some(n);
            }
            // Predicate already satisfied: fall through without parking.
        }
        Op::WaitOnce { cv, lock } => {
            debug_assert_eq!(s.owner[lock], t as i8, "wait without lock held");
            n.owner[lock] = -1;
            n.parked[cv] |= bit;
            return Some(n);
        }
        Op::Read(_) | Op::Write(_) | Op::Atomic => {}
    }
    n.pc[t] += 1;
    Some(n)
}

impl Machine for ThreadModel {
    type State = ThreadState;
    const VIOLATION: &'static str = "unordered-access";

    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&self) -> ThreadState {
        ThreadState {
            pc: vec![0; self.threads.len()],
            owner: vec![-1; self.locks.len()],
            fill: vec![0; self.chans.len()],
            ctr: self.counters.iter().map(|&(_, init)| init as u8).collect(),
            parked: vec![0; self.cvs.len()],
            wants: 0,
        }
    }

    fn successors(&self, s: &ThreadState) -> Vec<ThreadState> {
        (0..self.threads.len())
            .filter_map(|t| try_step(self, s, t))
            .collect()
    }

    /// Every pair of co-enabled conflicting plain accesses.
    fn invariant(&self, s: &ThreadState) -> Vec<String> {
        let accesses: Vec<(usize, usize, bool)> = (0..self.threads.len())
            .filter(|&t| !s.is_parked(t) && s.wants & (1 << t) == 0)
            .filter_map(|t| {
                let op = self.threads[t].1.get(s.pc[t] as usize)?;
                op.plain_access().map(|(v, w)| (t, v, w))
            })
            .collect();
        let mut races = Vec::new();
        for (i, &(t1, v1, w1)) in accesses.iter().enumerate() {
            for &(t2, v2, w2) in &accesses[i + 1..] {
                if v1 == v2 && (w1 || w2) {
                    races.push(format!(
                        "threads `{}` and `{}` can access `{}` concurrently ({} vs {}) with no ordering between them",
                        self.threads[t1].0,
                        self.threads[t2].0,
                        self.vars[v1],
                        if w1 { "write" } else { "read" },
                        if w2 { "write" } else { "read" },
                    ));
                }
            }
        }
        races
    }

    fn accepting(&self, s: &ThreadState) -> bool {
        (0..self.threads.len()).all(|t| s.finished(self, t))
    }

    fn stuck(&self, s: &ThreadState) -> (&'static str, String) {
        let parked: Vec<&str> = (0..self.threads.len())
            .filter(|&t| s.is_parked(t))
            .map(|t| self.threads[t].0.as_str())
            .collect();
        let blocked: Vec<String> = (0..self.threads.len())
            .filter(|&t| !s.finished(self, t))
            .map(|t| format!("{}@{}", self.threads[t].0, s.pc[t]))
            .collect();
        if parked.is_empty() {
            (
                "deadlock",
                format!("no enabled transition; blocked: {}", blocked.join(", ")),
            )
        } else {
            (
                "lost-wakeup",
                format!(
                    "thread(s) {} parked on a condvar with no future notify (blocked: {})",
                    parked.join(", "),
                    blocked.join(", ")
                ),
            )
        }
    }

    fn anchors(&self) -> &[SourceAnchor] {
        &self.anchors
    }
}

/// `gcs_tensor::pool`: submitter publishes a job, workers claim bands via
/// a Relaxed `fetch_update` cursor, everyone decrements `remaining` under
/// the job mutex and the submitter joins on the condvar before reading
/// band results.
fn pool_join_model(width: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("pool-join/width{width}"));
    m.anchor("crates/tensor/src/pool.rs", "fetch_update");
    m.anchor("crates/tensor/src/pool.rs", "Condvar");
    let jobs = m.chan("job_queue", width.max(1));
    let remaining = m.counter("remaining", width);
    let mu = m.lock("job_mutex");
    let done = m.cv("done_cv");
    let bands: Vec<usize> = (0..width).map(|b| m.var(format!("band{b}"))).collect();

    let mut sub = Vec::new();
    for _ in 1..width {
        sub.push(Op::Send(jobs));
    }
    sub.extend([
        Op::Atomic,
        Op::Write(bands[0]),
        Op::Lock(mu),
        Op::Dec(remaining),
        Op::NotifyAll(done),
        Op::Unlock(mu),
        Op::Lock(mu),
        Op::WaitZero {
            cv: done,
            lock: mu,
            counter: remaining,
        },
        Op::Unlock(mu),
    ]);
    for &b in &bands {
        sub.push(Op::Read(b));
    }
    m.thread("submitter", sub);
    for (w, &band) in bands.iter().enumerate().skip(1) {
        m.thread(
            format!("worker{w}"),
            vec![
                Op::Recv(jobs),
                Op::Atomic,
                Op::Write(band),
                Op::Lock(mu),
                Op::Dec(remaining),
                Op::NotifyAll(done),
                Op::Unlock(mu),
            ],
        );
    }
    m
}

/// The pool models at widths 1 and 2.
pub fn real_models() -> Vec<ThreadModel> {
    vec![pool_join_model(1), pool_join_model(2)]
}

/// Seeded negative models: each must be rejected by the checker. Used by
/// `gradcomp analyze --inject race` and the crate's own tests to prove the
/// pass has teeth.
pub fn seeded_negative_models() -> Vec<ThreadModel> {
    // 1. Band results "published" only through the Relaxed cursor: the
    //    submitter reads a worker's band without the mutex/condvar join.
    let mut relaxed = ThreadModel::new("negative/pool-relaxed-publish");
    let jobs = relaxed.chan("job_queue", 1);
    let band = relaxed.var("band1");
    relaxed.thread(
        "submitter",
        vec![Op::Send(jobs), Op::Atomic, Op::Read(band)],
    );
    relaxed.thread("worker1", vec![Op::Recv(jobs), Op::Atomic, Op::Write(band)]);

    // 2. `if`-style condvar wait: the notify can land before the park.
    let mut lost = ThreadModel::new("negative/pool-if-wait-lost-wakeup");
    let jobs = lost.chan("job_queue", 1);
    let mu = lost.lock("job_mutex");
    let done = lost.cv("done_cv");
    lost.thread(
        "submitter",
        vec![
            Op::Send(jobs),
            Op::Lock(mu),
            Op::WaitOnce { cv: done, lock: mu },
            Op::Unlock(mu),
        ],
    );
    lost.thread(
        "worker1",
        vec![
            Op::Recv(jobs),
            Op::Lock(mu),
            Op::NotifyAll(done),
            Op::Unlock(mu),
        ],
    );

    vec![relaxed, lost]
}

/// Explore an explicit model list (no source anchors).
pub fn check_models(models: &[ThreadModel]) -> PassReport {
    let mut report = PassReport::default();
    for m in models {
        report.check(m, None);
    }
    report
}

/// Pass 3 entry point: explore every real model and cross-check the
/// anchors against the source tree rooted at `root`.
pub fn run_thread_pass(root: &Path) -> PassReport {
    let mut report = PassReport::default();
    for m in &real_models() {
        report.check(m, Some(root));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{check_anchors, explore};

    fn repo_root() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn real_models_are_race_and_deadlock_free() {
        let report = run_thread_pass(&repo_root());
        assert!(
            report.ok(),
            "real runtime models must verify clean: {:#?}",
            report.findings
        );
        assert_eq!(
            report.machines,
            ["pool-join/width1", "pool-join/width2"],
            "expected the full config sweep"
        );
    }

    #[test]
    fn relaxed_publish_negative_is_flagged() {
        let models = seeded_negative_models();
        let fs = explore(&models[0]).findings;
        assert!(
            fs.iter().any(|f| f.kind == "unordered-access"),
            "co-enabled scan must flag the relaxed-publish race: {fs:?}"
        );
    }

    #[test]
    fn if_style_wait_negative_is_a_lost_wakeup() {
        let models = seeded_negative_models();
        let fs = explore(&models[1]).findings;
        assert!(fs.iter().any(|f| f.kind == "lost-wakeup"), "{fs:?}");
    }

    #[test]
    fn every_negative_model_fails_the_pass() {
        let report = check_models(&seeded_negative_models());
        assert!(!report.ok());
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn anchor_drift_is_detected() {
        let mut m = ThreadModel::new("drift-probe");
        m.anchor("crates/tensor/src/pool.rs", "no_such_identifier_xyzzy");
        let fs = check_anchors(&repo_root(), &m);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, "model-drift");

        // Pass 4 machines carry anchors too: the Hello handshake is clean
        // against the real tree and drifts on both anchors against a root
        // without `crates/cluster/src/tcp.rs`.
        let hello = crate::protocol::HelloMesh {
            p: 2,
            mutant_double_accept: false,
            forged: false,
        };
        assert!(check_anchors(&repo_root(), &hello).is_empty());
        let fs = check_anchors(Path::new(env!("CARGO_MANIFEST_DIR")), &hello);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.kind == "model-drift"), "{fs:?}");
    }
}
