//! Pass 3 — happens-before race checker over an abstracted thread/event IR.
//!
//! Each concurrent component of the runtime (`gcs_tensor::pool` band
//! cursor + condvar join, `CommEngine` comm thread + poison slot, the
//! bucket schedule's depth-bounded window on its comm lane, the `AdaptiveEngine`
//! decide/broadcast step, and `TcpCluster` per-peer reader threads) is
//! lifted into a small model: a fixed set of threads, each a straight-line
//! sequence of events over shared resources (plain variables, declared
//! atomics with their `Ordering`, mutexes, condvars, bounded channels,
//! counters).
//!
//! Two complementary checks run over every model:
//!
//! 1. **Exhaustive exploration** of all interleavings on the small configs
//!    (p ∈ {2,3,4}, window ∈ {1,2}, widths {1,2}). In any reachable state,
//!    two *co-enabled* conflicting plain accesses (same variable, at least
//!    one write, different threads) are a data race — mutual exclusion,
//!    channel blocking, and condvar joins are the only things that can
//!    prevent co-enabling, so this is sound for the IR. States with no
//!    enabled transition and unfinished threads are deadlocks; if a thread
//!    is parked on a condvar there, it is a *lost wakeup*.
//! 2. **Vector clocks + lockset** over a canonical schedule: every access
//!    is stamped with the thread's vector clock and the set of locks held.
//!    Lock release/acquire, channel send/recv, and Acquire/Release/SeqCst
//!    atomics propagate clocks; `Ordering::Relaxed` deliberately does
//!    *not*. Conflicting accesses that are clock-unordered with disjoint
//!    locksets are reported even when the canonical schedule happened to
//!    serialize them.
//!
//! Model drift is the classic failure mode of abstracted checking, so each
//! model declares *source anchors*: identifier tokens that must still
//! appear in the real source file it abstracts (e.g. `fetch_update` in
//! `pool.rs`). If refactoring removes them, the pass fails with a
//! `model-drift` finding instead of silently verifying a stale model.

use crate::lint;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;

/// Declared ordering on an atomic event. `Relaxed` creates no
/// happens-before edge in the vector-clock pass; all others synchronize
/// through the atomic's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl AtomicOrd {
    fn acquires(self) -> bool {
        matches!(
            self,
            AtomicOrd::Acquire | AtomicOrd::AcqRel | AtomicOrd::SeqCst
        )
    }
    fn releases(self) -> bool {
        matches!(
            self,
            AtomicOrd::Release | AtomicOrd::AcqRel | AtomicOrd::SeqCst
        )
    }
}

/// One event in a thread's straight-line program. Resources are indices
/// into the owning [`ThreadModel`]'s tables.
#[derive(Clone, Debug)]
pub enum Op {
    /// Plain (non-atomic) read of a shared variable.
    Read(usize),
    /// Plain (non-atomic) write of a shared variable.
    Write(usize),
    /// Atomic read-modify-write (e.g. the pool band-cursor claim).
    Rmw(usize, AtomicOrd),
    /// Atomic load.
    Load(usize, AtomicOrd),
    /// Atomic store.
    Store(usize, AtomicOrd),
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

/// An identifier token that must still appear in a real source file; the
/// model-drift tripwire for abstracted checking.
#[derive(Clone, Debug)]
pub struct SourceAnchor {
    pub file: &'static str,
    pub ident: &'static str,
}

/// A closed concurrent system: named threads over shared resources.
#[derive(Clone, Debug, Default)]
pub struct ThreadModel {
    pub name: String,
    pub vars: Vec<String>,
    pub atomics: Vec<String>,
    pub locks: Vec<String>,
    /// (name, capacity, initial fill) — initial fill models frames already
    /// queued by an external peer (e.g. bytes on a TCP socket).
    pub chans: Vec<(String, usize, usize)>,
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
    fn atomic(&mut self, name: impl Into<String>) -> usize {
        self.atomics.push(name.into());
        self.atomics.len() - 1
    }
    fn lock(&mut self, name: impl Into<String>) -> usize {
        self.locks.push(name.into());
        self.locks.len() - 1
    }
    fn chan(&mut self, name: impl Into<String>, cap: usize, prefill: usize) -> usize {
        self.chans.push((name.into(), cap.max(1), prefill));
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
        self.anchors.push(SourceAnchor { file, ident });
    }
}

/// A typed finding from the race checker.
#[derive(Clone, Debug)]
pub struct ThreadFinding {
    pub model: String,
    /// `unordered-access`, `vc-lockset-race`, `deadlock`, `lost-wakeup`,
    /// `state-explosion`, or `model-drift`.
    pub kind: String,
    pub detail: String,
}

/// Global state of a model during exploration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
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

impl State {
    fn initial(m: &ThreadModel) -> State {
        State {
            pc: vec![0; m.threads.len()],
            owner: vec![-1; m.locks.len()],
            fill: m.chans.iter().map(|&(_, _, pre)| pre as u8).collect(),
            ctr: m.counters.iter().map(|&(_, init)| init as u8).collect(),
            parked: vec![0; m.cvs.len()],
            wants: 0,
        }
    }

    fn is_parked(&self, t: usize) -> bool {
        self.parked.iter().any(|&mask| mask & (1 << t) != 0)
    }

    fn finished(&self, m: &ThreadModel, t: usize) -> bool {
        self.pc[t] as usize >= m.threads[t].1.len()
            && !self.is_parked(t)
            && self.wants & (1 << t) == 0
    }

    fn all_finished(&self, m: &ThreadModel) -> bool {
        (0..m.threads.len()).all(|t| self.finished(m, t))
    }
}

/// What a successful step did — consumed by the vector-clock pass.
enum Exec {
    Ran(Op),
    Parked { lock: usize },
    Reacquired { cv: usize, lock: usize },
}

/// Attempt to step thread `t` from `s`. Returns the successor state and a
/// description of the transition, or `None` if `t` is blocked/finished.
fn try_step(m: &ThreadModel, s: &State, t: usize) -> Option<(State, Exec)> {
    let bit = 1u32 << t;
    if s.is_parked(t) {
        return None;
    }
    let ops = &m.threads[t].1;
    let pc = s.pc[t] as usize;
    if s.wants & bit != 0 {
        // Woken from a condvar wait: must re-acquire the wait lock.
        let (cv, lock, advance) = match ops[pc] {
            Op::WaitZero { cv, lock, .. } => (cv, lock, false),
            Op::WaitOnce { cv, lock } => (cv, lock, true),
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
        return Some((n, Exec::Reacquired { cv, lock }));
    }
    if pc >= ops.len() {
        return None;
    }
    let op = ops[pc].clone();
    let mut n = s.clone();
    match op {
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
                return Some((n, Exec::Parked { lock }));
            }
            // Predicate already satisfied: fall through without parking.
        }
        Op::WaitOnce { cv, lock } => {
            debug_assert_eq!(s.owner[lock], t as i8, "wait without lock held");
            n.owner[lock] = -1;
            n.parked[cv] |= bit;
            return Some((n, Exec::Parked { lock }));
        }
        Op::Read(_) | Op::Write(_) | Op::Rmw(..) | Op::Load(..) | Op::Store(..) => {}
    }
    n.pc[t] += 1;
    Some((n, Exec::Ran(op)))
}

/// Upper bound on reachable states per model; these models are tiny, so
/// hitting this means the abstraction itself regressed.
const MAX_STATES: usize = 1 << 20;

/// Exhaustively explore every interleaving of `m`, reporting co-enabled
/// conflicting plain accesses, deadlocks, and lost wakeups. Returns the
/// findings and the number of distinct states visited.
pub fn explore(m: &ThreadModel) -> (Vec<ThreadFinding>, usize) {
    let mut findings = Vec::new();
    let mut seen_pairs: HashSet<String> = HashSet::new();
    let mut seen: HashSet<State> = HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    let init = State::initial(m);
    seen.insert(init.clone());
    queue.push_back(init);
    let mut stuck_reported = false;

    while let Some(s) = queue.pop_front() {
        if seen.len() > MAX_STATES {
            findings.push(ThreadFinding {
                model: m.name.clone(),
                kind: "state-explosion".into(),
                detail: format!("exceeded {MAX_STATES} states; shrink the model"),
            });
            break;
        }
        // Race scan: every pair of co-enabled conflicting plain accesses.
        let accesses: Vec<(usize, usize, bool)> = (0..m.threads.len())
            .filter(|&t| !s.is_parked(t) && s.wants & (1 << t) == 0)
            .filter(|&t| (s.pc[t] as usize) < m.threads[t].1.len())
            .filter_map(|t| {
                m.threads[t].1[s.pc[t] as usize]
                    .plain_access()
                    .map(|(v, w)| (t, v, w))
            })
            .collect();
        for i in 0..accesses.len() {
            for j in i + 1..accesses.len() {
                let (t1, v1, w1) = accesses[i];
                let (t2, v2, w2) = accesses[j];
                if v1 == v2 && (w1 || w2) {
                    let key = format!("{}:{t1}:{t2}:{v1}", m.name);
                    if seen_pairs.insert(key) {
                        findings.push(ThreadFinding {
                            model: m.name.clone(),
                            kind: "unordered-access".into(),
                            detail: format!(
                                "threads `{}` and `{}` can access `{}` concurrently ({} vs {}) with no ordering between them",
                                m.threads[t1].0,
                                m.threads[t2].0,
                                m.vars[v1],
                                if w1 { "write" } else { "read" },
                                if w2 { "write" } else { "read" },
                            ),
                        });
                    }
                }
            }
        }
        // Successors.
        let mut any = false;
        for t in 0..m.threads.len() {
            if let Some((n, _)) = try_step(m, &s, t) {
                any = true;
                if seen.insert(n.clone()) {
                    queue.push_back(n);
                }
            }
        }
        if !any && !s.all_finished(m) && !stuck_reported {
            stuck_reported = true;
            let parked: Vec<&str> = (0..m.threads.len())
                .filter(|&t| s.is_parked(t))
                .map(|t| m.threads[t].0.as_str())
                .collect();
            let blocked: Vec<String> = (0..m.threads.len())
                .filter(|&t| !s.finished(m, t))
                .map(|t| format!("{}@{}", m.threads[t].0, s.pc[t]))
                .collect();
            findings.push(if parked.is_empty() {
                ThreadFinding {
                    model: m.name.clone(),
                    kind: "deadlock".into(),
                    detail: format!("no enabled transition; blocked: {}", blocked.join(", ")),
                }
            } else {
                ThreadFinding {
                    model: m.name.clone(),
                    kind: "lost-wakeup".into(),
                    detail: format!(
                        "thread(s) {} parked on a condvar with no future notify (blocked: {})",
                        parked.join(", "),
                        blocked.join(", ")
                    ),
                }
            });
        }
    }
    (findings, seen.len())
}

type Vc = Vec<u32>;

fn vc_join(a: &mut Vc, b: &Vc) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x).max(*y);
    }
}

fn vc_leq(a: &Vc, b: &Vc) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

struct Access {
    var: usize,
    thread: usize,
    write: bool,
    vc: Vc,
    locks: Vec<usize>,
}

/// Vector-clock + lockset scan over a canonical round-robin schedule.
/// Reports conflicting access pairs that are clock-unordered with disjoint
/// locksets — the classic FastTrack-style check, restricted to one
/// schedule (the exhaustive pass covers the rest).
pub fn vector_clock_scan(m: &ThreadModel) -> Vec<ThreadFinding> {
    let n = m.threads.len();
    let mut s = State::initial(m);
    let mut vcs: Vec<Vc> = (0..n)
        .map(|t| {
            let mut v = vec![0u32; n];
            v[t] = 1;
            v
        })
        .collect();
    let mut lock_clock: Vec<Vc> = vec![vec![0; n]; m.locks.len()];
    let mut cv_clock: Vec<Vc> = vec![vec![0; n]; m.cvs.len()];
    let mut atomic_clock: Vec<Vc> = vec![vec![0; n]; m.atomics.len()];
    let mut chan_clock: Vec<VecDeque<Vc>> = m
        .chans
        .iter()
        .map(|&(_, _, pre)| (0..pre).map(|_| vec![0; n]).collect())
        .collect();
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut accesses: Vec<Access> = Vec::new();

    let mut steps = 0usize;
    loop {
        let mut progressed = false;
        for t in 0..n {
            let Some((next, exec)) = try_step(m, &s, t) else {
                continue;
            };
            progressed = true;
            steps += 1;
            match exec {
                Exec::Ran(op) => {
                    match op {
                        Op::Lock(l) => {
                            let lc = lock_clock[l].clone();
                            vc_join(&mut vcs[t], &lc);
                            held[t].push(l);
                        }
                        Op::Unlock(l) => {
                            lock_clock[l] = vcs[t].clone();
                            held[t].retain(|&x| x != l);
                        }
                        Op::Send(c) => chan_clock[c].push_back(vcs[t].clone()),
                        Op::Recv(c) => {
                            if let Some(sc) = chan_clock[c].pop_front() {
                                vc_join(&mut vcs[t], &sc);
                            }
                        }
                        Op::NotifyAll(cv) => {
                            let snap = vcs[t].clone();
                            vc_join(&mut cv_clock[cv], &snap);
                        }
                        Op::Rmw(a, o) | Op::Load(a, o) | Op::Store(a, o) => {
                            if o.acquires() {
                                let ac = atomic_clock[a].clone();
                                vc_join(&mut vcs[t], &ac);
                            }
                            if o.releases() {
                                let snap = vcs[t].clone();
                                vc_join(&mut atomic_clock[a], &snap);
                            }
                            // Relaxed: no clock movement — on purpose.
                        }
                        Op::Read(v) | Op::Write(v) => {
                            accesses.push(Access {
                                var: v,
                                thread: t,
                                write: matches!(op, Op::Write(_)),
                                vc: vcs[t].clone(),
                                locks: held[t].clone(),
                            });
                        }
                        Op::Dec(_) | Op::WaitZero { .. } | Op::WaitOnce { .. } => {}
                    }
                    vcs[t][t] += 1;
                }
                Exec::Parked { lock } => {
                    // Parking releases the lock.
                    lock_clock[lock] = vcs[t].clone();
                    held[t].retain(|&x| x != lock);
                    vcs[t][t] += 1;
                }
                Exec::Reacquired { cv, lock } => {
                    let lc = lock_clock[lock].clone();
                    vc_join(&mut vcs[t], &lc);
                    let cc = cv_clock[cv].clone();
                    vc_join(&mut vcs[t], &cc);
                    held[t].push(lock);
                    vcs[t][t] += 1;
                }
            }
            s = next;
        }
        if !progressed || steps > 10_000 {
            break;
        }
    }

    let mut findings = Vec::new();
    let mut seen_pairs: HashSet<(usize, usize, usize)> = HashSet::new();
    for i in 0..accesses.len() {
        for j in i + 1..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.var != b.var || a.thread == b.thread || !(a.write || b.write) {
                continue;
            }
            if vc_leq(&a.vc, &b.vc) || vc_leq(&b.vc, &a.vc) {
                continue;
            }
            if a.locks.iter().any(|l| b.locks.contains(l)) {
                continue;
            }
            let key = (a.var, a.thread.min(b.thread), a.thread.max(b.thread));
            if seen_pairs.insert(key) {
                findings.push(ThreadFinding {
                    model: m.name.clone(),
                    kind: "vc-lockset-race".into(),
                    detail: format!(
                        "accesses to `{}` by `{}` and `{}` are vector-clock-unordered with disjoint locksets",
                        m.vars[a.var], m.threads[a.thread].0, m.threads[b.thread].0
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Models of the real runtime components.
// ---------------------------------------------------------------------------

/// `gcs_tensor::pool`: submitter publishes a job, workers claim bands via
/// a Relaxed `fetch_update` cursor, everyone decrements `remaining` under
/// the job mutex and the submitter joins on the condvar before reading
/// band results.
fn pool_join_model(width: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("pool-join/width{width}"));
    m.anchor("crates/tensor/src/pool.rs", "fetch_update");
    m.anchor("crates/tensor/src/pool.rs", "Condvar");
    let jobs = m.chan("job_queue", width.max(1), 0);
    let cursor = m.atomic("band_cursor");
    let remaining = m.counter("remaining", width);
    let mu = m.lock("job_mutex");
    let done = m.cv("done_cv");
    let bands: Vec<usize> = (0..width).map(|b| m.var(format!("band{b}"))).collect();

    let mut sub = Vec::new();
    for _ in 1..width {
        sub.push(Op::Send(jobs));
    }
    sub.extend([
        Op::Rmw(cursor, AtomicOrd::Relaxed),
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
                Op::Rmw(cursor, AtomicOrd::Relaxed),
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

/// `CommEngine`: bounded job channel into the comm thread, per-job result
/// published through the reply channel, poison slot guarded by its mutex.
fn comm_engine_model(jobs: usize, depth: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("comm-engine/jobs{jobs}-depth{depth}"));
    m.anchor("crates/cluster/src/comm.rs", "sync_channel");
    m.anchor("crates/cluster/src/comm.rs", "last_error");
    let q = m.chan("job_channel", depth, 0);
    let reply = m.chan("reply_channel", jobs, 0);
    let pl = m.lock("poison_mutex");
    let poison = m.var("poison_slot");
    let results: Vec<usize> = (0..jobs).map(|j| m.var(format!("result{j}"))).collect();

    let mut sub = Vec::new();
    for _ in 0..jobs {
        // start_*: check last_error() under the poison lock, then enqueue.
        sub.extend([Op::Lock(pl), Op::Read(poison), Op::Unlock(pl), Op::Send(q)]);
    }
    for &r in &results {
        sub.extend([Op::Recv(reply), Op::Read(r)]);
    }
    m.thread("submitter", sub);

    let mut comm = Vec::new();
    for &r in &results {
        comm.extend([
            Op::Recv(q),
            Op::Write(r),
            // store_error: poison slot only ever touched under its mutex.
            Op::Lock(pl),
            Op::Write(poison),
            Op::Unlock(pl),
            Op::Send(reply),
        ]);
    }
    m.thread("comm", comm);
    m
}

/// The bucket schedule's comm lane (`run_rounds` in `exec.rs`, which
/// `PipelinedEngine` drives): the in-flight window is a bounded channel of
/// capacity `window` (`while inflight.len() >= lane.window()`); bucket
/// buffers are published to the absorb strictly through FIFO completions
/// (`complete_front`'s `pop_front`).
fn pipeline_window_model(buckets: usize, window: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("pipeline-window/buckets{buckets}-w{window}"));
    m.anchor("crates/ddp/src/exec.rs", "run_rounds");
    m.anchor("crates/ddp/src/exec.rs", "window");
    m.anchor("crates/ddp/src/exec.rs", "complete_front");
    m.anchor("crates/ddp/src/exec.rs", "pop_front");
    let q = m.chan("inflight", window, 0);
    let done = m.chan("completions", buckets, 0);
    let bufs: Vec<usize> = (0..buckets).map(|b| m.var(format!("bucket{b}"))).collect();

    let mut eng = Vec::new();
    for _ in 0..buckets {
        eng.push(Op::Send(q));
    }
    for &b in &bufs {
        eng.extend([Op::Recv(done), Op::Read(b)]);
    }
    m.thread("engine", eng);

    let mut comm = Vec::new();
    for &b in &bufs {
        comm.extend([Op::Recv(q), Op::Write(b), Op::Send(done)]);
    }
    m.thread("comm", comm);
    m
}

/// `AdaptiveEngine` decide/broadcast: rank 0 writes the decision table and
/// always broadcasts; followers apply only what they received.
fn adaptive_decide_model(p: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("adaptive-decide/p{p}"));
    m.anchor("crates/ddp/src/adaptive.rs", "encode_decisions");
    m.anchor("crates/ddp/src/adaptive.rs", "decode_decisions");
    let decision = m.var("decision_table");
    let bcast: Vec<usize> = (1..p)
        .map(|r| m.chan(format!("bcast_to_{r}"), 1, 0))
        .collect();

    let mut r0 = vec![Op::Write(decision)];
    for &c in &bcast {
        r0.push(Op::Send(c));
    }
    r0.push(Op::Read(decision));
    m.thread("rank0", r0);
    for (i, &c) in bcast.iter().enumerate() {
        m.thread(
            format!("rank{}", i + 1),
            vec![Op::Recv(c), Op::Read(decision)],
        );
    }
    m
}

/// `TcpCluster` per-peer reader threads: frames flow socket → reader →
/// mailbox channel; liveness bits are SeqCst atomics.
fn tcp_readers_model(p: usize) -> ThreadModel {
    let mut m = ThreadModel::new(format!("tcp-readers/p{p}"));
    m.anchor("crates/cluster/src/tcp.rs", "reader_loop");
    m.anchor("crates/cluster/src/tcp.rs", "SeqCst");
    let mut main_ops = Vec::new();
    for peer in 1..p {
        let sock = m.chan(format!("socket_{peer}"), 2, 1);
        let mb = m.chan(format!("mailbox_{peer}"), 2, 0);
        let alive = m.atomic(format!("alive_{peer}"));
        let buf = m.var(format!("frame_{peer}"));
        m.thread(
            format!("reader{peer}"),
            vec![
                Op::Recv(sock),
                Op::Write(buf),
                Op::Send(mb),
                Op::Store(alive, AtomicOrd::SeqCst),
            ],
        );
        main_ops.extend([
            Op::Recv(mb),
            Op::Read(buf),
            Op::Load(alive, AtomicOrd::SeqCst),
        ]);
    }
    m.thread("main", main_ops);
    m
}

/// The real runtime models at every small config demanded by the pass:
/// widths {1,2} for the pool, window {1,2} for the pipeline, p ∈ {2,3,4} for
/// the rank-indexed protocols.
pub fn real_models() -> Vec<ThreadModel> {
    let mut ms = Vec::new();
    for width in [1usize, 2] {
        ms.push(pool_join_model(width));
    }
    for jobs in [1usize, 2] {
        for depth in [1usize, 2] {
            ms.push(comm_engine_model(jobs, depth));
        }
    }
    for buckets in [2usize, 3] {
        for window in [1usize, 2] {
            ms.push(pipeline_window_model(buckets, window));
        }
    }
    for p in [2usize, 3, 4] {
        ms.push(adaptive_decide_model(p));
        ms.push(tcp_readers_model(p));
    }
    ms
}

/// Seeded negative models: each must be rejected by the checker. Used by
/// `gradcomp analyze --inject race` and the crate's own tests to prove the
/// pass has teeth.
pub fn seeded_negative_models() -> Vec<ThreadModel> {
    // 1. Band results "published" only through the Relaxed cursor: the
    //    submitter reads a worker's band without the mutex/condvar join.
    let mut relaxed = ThreadModel::new("negative/pool-relaxed-publish");
    let jobs = relaxed.chan("job_queue", 1, 0);
    let cursor = relaxed.atomic("band_cursor");
    let band = relaxed.var("band1");
    relaxed.thread(
        "submitter",
        vec![
            Op::Send(jobs),
            Op::Rmw(cursor, AtomicOrd::Relaxed),
            Op::Read(band),
        ],
    );
    relaxed.thread(
        "worker1",
        vec![
            Op::Recv(jobs),
            Op::Rmw(cursor, AtomicOrd::Relaxed),
            Op::Write(band),
        ],
    );

    // 2. Poison slot touched without its mutex: with two jobs queued,
    //    the submitter's pre-submit error check for job 1 races the comm
    //    thread's unlocked store after job 0.
    let mut poison = ThreadModel::new("negative/comm-unlocked-poison");
    let q = poison.chan("job_channel", 2, 0);
    let slot = poison.var("poison_slot");
    poison.thread(
        "submitter",
        vec![Op::Read(slot), Op::Send(q), Op::Read(slot), Op::Send(q)],
    );
    poison.thread(
        "comm",
        vec![Op::Recv(q), Op::Write(slot), Op::Recv(q), Op::Write(slot)],
    );

    // 3. `if`-style condvar wait: the notify can land before the park.
    let mut lost = ThreadModel::new("negative/pool-if-wait-lost-wakeup");
    let jobs = lost.chan("job_queue", 1, 0);
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

    // 4. Pipeline absorb before the FIFO completion arrives.
    let mut window = ThreadModel::new("negative/pipeline-window-early-decode");
    let q = window.chan("inflight", 1, 0);
    let buf = window.var("bucket0");
    window.thread("engine", vec![Op::Send(q), Op::Read(buf)]);
    window.thread("comm", vec![Op::Recv(q), Op::Write(buf)]);

    vec![relaxed, poison, lost, window]
}

/// Report for the whole pass.
#[derive(Clone, Debug, Default)]
pub struct ThreadPassReport {
    pub models_checked: usize,
    pub states_explored: usize,
    pub findings: Vec<ThreadFinding>,
    pub models: Vec<String>,
}

impl ThreadPassReport {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run both checks over an explicit model list (no source anchors).
pub fn check_models(models: &[ThreadModel]) -> ThreadPassReport {
    let mut report = ThreadPassReport::default();
    for m in models {
        report.models_checked += 1;
        report.models.push(m.name.clone());
        let (mut fs, states) = explore(m);
        report.states_explored += states;
        report.findings.append(&mut fs);
        report.findings.extend(vector_clock_scan(m));
    }
    report
}

/// Verify each model's source anchors against the real tree at `root`.
fn check_anchors(root: &Path, models: &[ThreadModel]) -> Vec<ThreadFinding> {
    let mut findings = Vec::new();
    let mut cache: HashMap<&'static str, Option<String>> = HashMap::new();
    for m in models {
        for a in &m.anchors {
            let text = cache
                .entry(a.file)
                .or_insert_with(|| std::fs::read_to_string(root.join(a.file)).ok());
            let drifted = match text {
                None => true,
                Some(src) => lint::ident_count(src, a.ident) == 0,
            };
            if drifted {
                findings.push(ThreadFinding {
                    model: m.name.clone(),
                    kind: "model-drift".into(),
                    detail: format!(
                        "anchor `{}` no longer found in {} — the abstraction may be stale; update the model in threads.rs",
                        a.ident, a.file
                    ),
                });
            }
        }
    }
    findings
}

/// Pass 3 entry point: explore every real model and cross-check the
/// anchors against the source tree rooted at `root`.
pub fn run_thread_pass(root: &Path) -> ThreadPassReport {
    let models = real_models();
    let mut report = check_models(&models);
    report.findings.extend(check_anchors(root, &models));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(
            report.models_checked >= 14,
            "expected the full config sweep"
        );
        assert!(report.states_explored > 100);
    }

    #[test]
    fn relaxed_publish_negative_is_flagged_by_both_checks() {
        let models = seeded_negative_models();
        let m = &models[0];
        let (fs, _) = explore(m);
        assert!(
            fs.iter().any(|f| f.kind == "unordered-access"),
            "co-enabled scan must flag the relaxed-publish race: {fs:?}"
        );
        let vc = vector_clock_scan(m);
        assert!(
            vc.iter().any(|f| f.kind == "vc-lockset-race"),
            "vector-clock scan must flag it too (Relaxed creates no HB edge): {vc:?}"
        );
    }

    #[test]
    fn unlocked_poison_negative_is_flagged() {
        let models = seeded_negative_models();
        let (fs, _) = explore(&models[1]);
        assert!(fs.iter().any(|f| f.kind == "unordered-access"), "{fs:?}");
    }

    #[test]
    fn if_style_wait_negative_is_a_lost_wakeup() {
        let models = seeded_negative_models();
        let (fs, _) = explore(&models[2]);
        assert!(fs.iter().any(|f| f.kind == "lost-wakeup"), "{fs:?}");
    }

    #[test]
    fn early_decode_negative_is_flagged() {
        let models = seeded_negative_models();
        let (fs, _) = explore(&models[3]);
        assert!(fs.iter().any(|f| f.kind == "unordered-access"), "{fs:?}");
    }

    #[test]
    fn every_negative_model_fails_the_pass() {
        let report = check_models(&seeded_negative_models());
        assert!(!report.ok());
        assert!(report.findings.len() >= 4);
    }

    #[test]
    fn anchor_drift_is_detected() {
        let mut m = ThreadModel::new("drift-probe");
        m.anchor("crates/tensor/src/pool.rs", "no_such_identifier_xyzzy");
        let fs = check_anchors(&repo_root(), &[m]);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, "model-drift");
    }

    #[test]
    fn seqcst_atomics_do_not_false_positive() {
        // tcp-readers uses SeqCst liveness bits plus plain frame buffers
        // ordered by channels; neither check may flag it.
        let m = tcp_readers_model(4);
        let (fs, _) = explore(&m);
        assert!(fs.is_empty(), "{fs:?}");
        assert!(vector_clock_scan(&m).is_empty());
    }
}
