//! Schedule verifier / model checker.
//!
//! Three layers, cheapest first:
//!
//! 1. **Static structural checks** — no self-sends; per-channel pairing
//!    (the k-th send on a directed channel must meet a k-th recv with the
//!    same byte count — FIFO channels with a single writer and a single
//!    reader make program order the channel order, so this is exact, not
//!    an approximation).
//! 2. **Canonical-order execution** — run the schedule to completion
//!    under one deterministic scheduler, tracking symbolic per-element
//!    expression trees. Quiescence before completion is a deadlock; the
//!    blocked-op wait-for graph is reported with its cycle. On normal
//!    completion the final symbolic state is checked against the
//!    schedule's [`Expectation`].
//! 3. **Exhaustive interleaving search** (`check_deadlock_exhaustive`) —
//!    every scheduling, as a [`Machine`] walked by the analyzer's one
//!    explorer, for cross-validating layer 2 on small configurations.
//!
//! Why one canonical order suffices for deadlock-freedom: every channel
//! here is point-to-point FIFO with exactly one writer and one reader,
//! every `Recv` names its source (there is no `select`), and each process
//! is deterministic and sequential. That makes the system a Kahn process
//! network: any two enabled transitions commute, so executing one never
//! disables the other, and every maximal execution reaches the same final
//! state — including whether that state is "all programs finished". A
//! singleton persistent set (pick any enabled transition) is therefore a
//! sound partial-order reduction, and deadlock is scheduler-independent.
//! The bounded-channel capacities are part of the transition relation
//! (a full channel disables the send), so the argument covers the
//! `sync_channel` handshake models too. `check_deadlock_exhaustive`
//! exists to validate this argument empirically rather than trust it.

use crate::explore::{explore, Finding, Machine};
use crate::ir::{DataRef, Expectation, Expr, Op, RecvAction, Schedule, WireOp};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// A verification failure, with enough context to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    SelfSend {
        process: usize,
        op_index: usize,
    },
    /// Send/recv counts on a directed channel don't agree.
    PairingMismatch {
        src: usize,
        dst: usize,
        sends: usize,
        recvs: usize,
    },
    /// The k-th message on a channel has different sizes at the two ends.
    ByteMismatch {
        src: usize,
        dst: usize,
        seq: usize,
        send_bytes: usize,
        recv_bytes: usize,
    },
    Deadlock {
        /// Wait-for cycle as process indices (first == last omitted).
        cycle: Vec<usize>,
        detail: String,
    },
    /// Symbolic execution hit an inconsistency (payload kind/length
    /// mismatch, forwarding before receiving, blob misattribution, ...).
    DataFlow {
        process: usize,
        detail: String,
    },
    /// The schedule ran to completion but the final state breaks the
    /// schedule's claim.
    ExpectationFailed {
        detail: String,
    },
    /// The running collective's recorded program departs from the
    /// schedule at this op (`None`: that side's program has ended).
    Nonconforming {
        process: usize,
        op_index: usize,
        schedule: Option<WireOp>,
        recorded: Option<WireOp>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SelfSend { process, op_index } => {
                write!(f, "process {process} op {op_index}: send to self")
            }
            Violation::PairingMismatch {
                src,
                dst,
                sends,
                recvs,
            } => write!(
                f,
                "channel {src}->{dst}: {sends} send(s) but {recvs} recv(s)"
            ),
            Violation::ByteMismatch {
                src,
                dst,
                seq,
                send_bytes,
                recv_bytes,
            } => write!(
                f,
                "channel {src}->{dst} message {seq}: sender puts {send_bytes} B, receiver expects {recv_bytes} B"
            ),
            Violation::Deadlock { cycle, detail } => {
                write!(f, "deadlock: wait-for cycle {cycle:?}; {detail}")
            }
            Violation::DataFlow { process, detail } => {
                write!(f, "data-flow at process {process}: {detail}")
            }
            Violation::ExpectationFailed { detail } => {
                write!(f, "expectation failed: {detail}")
            }
            Violation::Nonconforming {
                process,
                op_index,
                schedule,
                recorded,
            } => {
                let show = |op: &Option<WireOp>| op.map_or("nothing".into(), |o| o.to_string());
                let (s, r) = (show(schedule), show(recorded));
                write!(f, "process {process} op {op_index}: the schedule has {s}, the code ran {r}")
            }
        }
    }
}

/// Outcome of verifying one schedule.
#[derive(Debug, Clone)]
pub struct VerifyResult {
    pub schedule: String,
    pub violations: Vec<Violation>,
    /// Ops executed by the canonical-order simulation (0 if it never ran
    /// because static checks already failed hard).
    pub ops_executed: usize,
}

impl VerifyResult {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run every check on a schedule.
pub fn verify_schedule(s: &Schedule) -> VerifyResult {
    let mut violations = static_checks(s);
    // Static pairing failures guarantee the simulation deadlocks or
    // leaves queued messages; still run it — the wait-for cycle it
    // reports is usually the more actionable diagnostic.
    let (mut sim_violations, ops_executed) = simulate(s);
    violations.append(&mut sim_violations);
    VerifyResult {
        schedule: s.name.clone(),
        violations,
        ops_executed,
    }
}

/// Layer 1: structural checks that need no execution.
pub fn static_checks(s: &Schedule) -> Vec<Violation> {
    let mut out = Vec::new();
    // Self-sends.
    for (pid, proc_) in s.processes.iter().enumerate() {
        for (i, op) in proc_.ops.iter().enumerate() {
            if let Op::Send { dst, .. } = op {
                if *dst == pid {
                    out.push(Violation::SelfSend {
                        process: pid,
                        op_index: i,
                    });
                }
            }
        }
    }
    // Pairing: per directed channel, ordered byte lists at both ends.
    let mut sends: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    let mut recvs: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (pid, proc_) in s.processes.iter().enumerate() {
        for op in &proc_.ops {
            match op {
                Op::Send { dst, bytes, .. } => sends.entry((pid, *dst)).or_default().push(*bytes),
                Op::Recv { src, bytes, .. } => recvs.entry((*src, pid)).or_default().push(*bytes),
            }
        }
    }
    let mut channels: Vec<(usize, usize)> = sends.keys().chain(recvs.keys()).copied().collect();
    channels.sort_unstable();
    channels.dedup();
    for ch in channels {
        let empty = Vec::new();
        let tx = sends.get(&ch).unwrap_or(&empty);
        let rx = recvs.get(&ch).unwrap_or(&empty);
        if tx.len() != rx.len() {
            out.push(Violation::PairingMismatch {
                src: ch.0,
                dst: ch.1,
                sends: tx.len(),
                recvs: rx.len(),
            });
        }
        for (seq, (sb, rb)) in tx.iter().zip(rx.iter()).enumerate() {
            if sb != rb {
                out.push(Violation::ByteMismatch {
                    src: ch.0,
                    dst: ch.1,
                    seq,
                    send_bytes: *sb,
                    recv_bytes: *rb,
                });
            }
        }
    }
    out
}

/// Symbolic message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Payload {
    Elems(Vec<Rc<Expr>>),
    Blob(usize),
    Opaque,
}

struct ProcState {
    vec: Vec<Rc<Expr>>,
    blobs: HashSet<usize>,
    last_recv: HashMap<usize, Payload>,
}

/// Layer 2: canonical-order execution with symbolic data flow.
///
/// Returns the violations found plus the number of ops executed.
fn simulate(s: &Schedule) -> (Vec<Violation>, usize) {
    let n = s.processes.len();
    let mut pcs = vec![0usize; n];
    let mut queues: HashMap<(usize, usize), VecDeque<Payload>> = HashMap::new();
    let mut states: Vec<ProcState> = (0..n)
        .map(|pid| ProcState {
            vec: (0..s.elems).map(|_| Expr::leaf(pid)).collect(),
            blobs: HashSet::from([pid]),
            last_recv: HashMap::new(),
        })
        .collect();
    let mut executed = 0usize;
    let queued = |queues: &HashMap<(usize, usize), VecDeque<Payload>>, ch| {
        queues.get(&ch).map_or(0, VecDeque::len)
    };

    // The last process to run goes on until it blocks, then the next
    // enabled one in index order. Any fixed choice rule is sound (see
    // module docs) and reproducible; this one costs O(1) tests per op.
    let mut last = 0;
    while let Some(pid) = (0..n)
        .map(|k| (last + k) % n)
        .find(|&pid| op_enabled(s, &pcs, &|ch| queued(&queues, ch), pid))
    {
        let op = &s.processes[pid].ops[pcs[pid]];
        match op {
            Op::Send { dst, bytes, data } => {
                let payload = match build_payload(pid, data, &states[pid]) {
                    Ok(p) => p,
                    Err(detail) => {
                        return (
                            vec![Violation::DataFlow {
                                process: pid,
                                detail,
                            }],
                            executed,
                        );
                    }
                };
                // Byte conservation ties the declared frame size to the
                // symbolic payload it carries.
                if let Payload::Elems(ref es) = payload {
                    if es.len() * 4 != *bytes {
                        return (
                            vec![Violation::DataFlow {
                                process: pid,
                                detail: format!(
                                    "op {}: declares {bytes} B but carries {} f32 elems",
                                    pcs[pid],
                                    es.len()
                                ),
                            }],
                            executed,
                        );
                    }
                }
                queues.entry((pid, *dst)).or_default().push_back(payload);
            }
            Op::Recv { src, action, .. } => {
                let Some(payload) = queues.get_mut(&(*src, pid)).and_then(|q| q.pop_front()) else {
                    // op_enabled guarantees non-empty; defensive.
                    break;
                };
                if let Err(detail) = apply_recv(action, &payload, &mut states[pid]) {
                    return (
                        vec![Violation::DataFlow {
                            process: pid,
                            detail: format!("op {}: {detail}", pcs[pid]),
                        }],
                        executed,
                    );
                }
                states[pid].last_recv.insert(*src, payload);
            }
        }
        pcs[pid] += 1;
        executed += 1;
        last = pid;
    }

    let all_done = pcs
        .iter()
        .enumerate()
        .all(|(pid, &pc)| pc == s.processes[pid].ops.len());
    if !all_done {
        return (
            vec![deadlock_report(s, &pcs, &|ch| queued(&queues, ch))],
            executed,
        );
    }
    // Messages left in queues were sent and never received — static
    // pairing already flags this, so don't duplicate the report here.
    let mut violations = Vec::new();
    if queues.values().all(|q| q.is_empty()) {
        check_expectation(s, &states, &mut violations);
    }
    (violations, executed)
}

/// Messages queued on each directed `(src, dst)` channel.
type Queued<'a> = &'a dyn Fn((usize, usize)) -> usize;

/// Whether process `pid`'s next op can run: a send needs room in a
/// bounded channel, a receive needs a queued message.
fn op_enabled(s: &Schedule, pcs: &[usize], queued: Queued<'_>, pid: usize) -> bool {
    let Some(op) = s.processes[pid].ops.get(pcs[pid]) else {
        return false;
    };
    match op {
        Op::Send { dst, .. } => s
            .channel_caps
            .get(&(pid, *dst))
            .is_none_or(|&cap| queued((pid, *dst)) < cap),
        Op::Recv { src, .. } => queued((*src, pid)) > 0,
    }
}

fn build_payload(pid: usize, data: &DataRef, st: &ProcState) -> Result<Payload, String> {
    match data {
        DataRef::Elems(r) => {
            if r.hi > st.vec.len() {
                return Err(format!(
                    "send range {}..{} exceeds buffer of {} elems",
                    r.lo,
                    r.hi,
                    st.vec.len()
                ));
            }
            Ok(Payload::Elems(st.vec[r.lo..r.hi].to_vec()))
        }
        DataRef::LastRecv { src } => st
            .last_recv
            .get(src)
            .cloned()
            .ok_or_else(|| format!("forwards frame from {src} before receiving one")),
        DataRef::Blob { origin } => {
            if *origin != pid && !st.blobs.contains(origin) {
                return Err(format!("sends blob of origin {origin} without holding it"));
            }
            Ok(Payload::Blob(*origin))
        }
        DataRef::Opaque => Ok(Payload::Opaque),
    }
}

fn apply_recv(action: &RecvAction, payload: &Payload, st: &mut ProcState) -> Result<(), String> {
    match action {
        RecvAction::Accumulate(r) | RecvAction::Overwrite(r) => {
            let Payload::Elems(incoming) = payload else {
                return Err(format!("expected element payload, got {payload:?}"));
            };
            if incoming.len() != r.len() {
                return Err(format!(
                    "range {}..{} wants {} elems, payload has {}",
                    r.lo,
                    r.hi,
                    r.len(),
                    incoming.len()
                ));
            }
            if r.hi > st.vec.len() {
                return Err(format!(
                    "recv range {}..{} exceeds buffer of {} elems",
                    r.lo,
                    r.hi,
                    st.vec.len()
                ));
            }
            for (k, inc) in incoming.iter().enumerate() {
                st.vec[r.lo + k] = if matches!(action, RecvAction::Accumulate(_)) {
                    Expr::sum(st.vec[r.lo + k].clone(), inc.clone())
                } else {
                    inc.clone()
                };
            }
            Ok(())
        }
        RecvAction::StoreBlob { origin } => {
            let Payload::Blob(actual) = payload else {
                return Err(format!("expected blob payload, got {payload:?}"));
            };
            if actual != origin {
                return Err(format!(
                    "receiver's index arithmetic says blob origin {origin}, wire says {actual}"
                ));
            }
            st.blobs.insert(*actual);
            Ok(())
        }
        RecvAction::Discard => Ok(()),
    }
}

/// Build the wait-for graph over blocked processes and report its cycle
/// (or, for a non-cyclic hang, what each blocked process waits on).
fn deadlock_report(s: &Schedule, pcs: &[usize], queued: Queued<'_>) -> Violation {
    // waits_on[pid] = the process whose progress would unblock pid.
    let mut waits_on: HashMap<usize, usize> = HashMap::new();
    let mut details = Vec::new();
    for (pid, (process, &pc)) in s.processes.iter().zip(pcs).enumerate() {
        let Some(op) = process.ops.get(pc) else {
            continue; // finished
        };
        match op {
            Op::Send { dst, .. } => {
                // Blocked send: channel at capacity, only the receiver
                // draining it helps.
                waits_on.insert(pid, *dst);
                details.push(format!(
                    "{} blocked sending to {} (channel full, cap {})",
                    process.name,
                    s.processes[*dst].name,
                    s.channel_caps
                        .get(&(pid, *dst))
                        .map_or("∞".to_string(), |c| c.to_string()),
                ));
            }
            Op::Recv { src, .. } => {
                waits_on.insert(pid, *src);
                details.push(format!(
                    "{} blocked receiving from {} ({} queued)",
                    process.name,
                    s.processes[*src].name,
                    queued((*src, pid))
                ));
            }
        }
    }
    // Walk successor pointers from any blocked node; in a finite graph
    // where some nodes have out-degree ≤ 1 we either fall off (waiting on
    // a finished process — starvation, not a cycle) or loop.
    let mut cycle = Vec::new();
    if let Some(&start) = waits_on.keys().min() {
        let mut seen_at: HashMap<usize, usize> = HashMap::new();
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if let Some(&i) = seen_at.get(&cur) {
                cycle = path[i..].to_vec();
                break;
            }
            seen_at.insert(cur, path.len());
            path.push(cur);
            match waits_on.get(&cur) {
                Some(&nxt) => cur = nxt,
                None => break, // waiting on a finished process
            }
        }
    }
    Violation::Deadlock {
        cycle,
        detail: details.join("; "),
    }
}

fn check_expectation(s: &Schedule, states: &[ProcState], out: &mut Vec<Violation>) {
    match &s.expect {
        Expectation::None => {}
        Expectation::ReducedVector {
            ranks,
            contributors,
        } => {
            let mut want = contributors.clone();
            want.sort_unstable();
            let Some(&first) = ranks.first() else {
                return;
            };
            for &r in ranks {
                for e in 0..s.elems {
                    // The all-gather hands every rank the same node: a
                    // tree already checked on the first rank.
                    if r != first && Rc::ptr_eq(&states[r].vec[e], &states[first].vec[e]) {
                        continue;
                    }
                    let leaves = states[r].vec[e].leaves();
                    if leaves != want {
                        out.push(Violation::ExpectationFailed {
                            detail: format!(
                                "{} elem {e}: reduction {} sums ranks {leaves:?}, want {want:?}",
                                s.processes[r].name,
                                states[r].vec[e].render()
                            ),
                        });
                        return; // one concrete counterexample is enough
                    }
                    if states[r].vec[e] != states[first].vec[e] {
                        out.push(Violation::ExpectationFailed {
                            detail: format!(
                                "elem {e}: {} reduces as {} but {} as {} — association differs, result is not bit-deterministic",
                                s.processes[first].name,
                                states[first].vec[e].render(),
                                s.processes[r].name,
                                states[r].vec[e].render()
                            ),
                        });
                        return;
                    }
                }
            }
        }
        Expectation::GatheredBlobs { ranks, origins } => {
            for &r in ranks {
                for &o in origins {
                    if !states[r].blobs.contains(&o) {
                        out.push(Violation::ExpectationFailed {
                            detail: format!(
                                "{} never obtained the contribution of rank {o}",
                                s.processes[r].name
                            ),
                        });
                        return;
                    }
                }
            }
        }
        Expectation::BroadcastBlob { root, ranks } => {
            for &r in ranks {
                if !states[r].blobs.contains(root) {
                    out.push(Violation::ExpectationFailed {
                        detail: format!(
                            "{} never received the broadcast payload of root {root}",
                            s.processes[r].name
                        ),
                    });
                    return;
                }
            }
        }
    }
}

/// Layer 3's machine: every interleaving of a schedule, tracking only
/// what enabledness depends on.
struct Interleavings<'a>(&'a Schedule);

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Progress {
    pcs: Vec<usize>,
    /// Messages queued per directed channel; empty channels are absent,
    /// so each state has exactly one form.
    queued: BTreeMap<(usize, usize), usize>,
}

impl Machine for Interleavings<'_> {
    type State = Progress;

    fn name(&self) -> String {
        self.0.name.clone()
    }

    fn init(&self) -> Progress {
        Progress {
            pcs: vec![0; self.0.processes.len()],
            queued: BTreeMap::new(),
        }
    }

    fn successors(&self, st: &Progress) -> Vec<Progress> {
        let s = self.0;
        let queued = |ch| st.queued.get(&ch).copied().unwrap_or(0);
        let mut out = Vec::new();
        for pid in 0..s.processes.len() {
            if !op_enabled(s, &st.pcs, &queued, pid) {
                continue;
            }
            let mut n = st.clone();
            match s.processes[pid].ops[st.pcs[pid]] {
                Op::Send { dst, .. } => *n.queued.entry((pid, dst)).or_insert(0) += 1,
                Op::Recv { src, .. } => {
                    let q = n.queued.entry((src, pid)).or_insert(0);
                    *q -= 1;
                    if *q == 0 {
                        n.queued.remove(&(src, pid));
                    }
                }
            }
            n.pcs[pid] += 1;
            out.push(n);
        }
        out
    }

    fn invariant(&self, _: &Progress) -> Vec<String> {
        Vec::new()
    }

    fn accepting(&self, st: &Progress) -> bool {
        st.pcs
            .iter()
            .zip(&self.0.processes)
            .all(|(&pc, p)| pc == p.ops.len())
    }

    fn stuck(&self, st: &Progress) -> (&'static str, String) {
        let queued = |ch| st.queued.get(&ch).copied().unwrap_or(0);
        let report = deadlock_report(self.0, &st.pcs, &queued);
        ("deadlock", report.to_string())
    }
}

/// Layer 3: explore **every** interleaving of `s`.
///
/// Returns the number of states visited, or the first finding: a
/// `deadlock` carrying the same wait-for report as layer 2, or a
/// `state-explosion` (callers pick configs small enough that this never
/// triggers).
pub fn check_deadlock_exhaustive(s: &Schedule) -> Result<usize, Finding> {
    let r = explore(&Interleavings(s));
    match r.findings.into_iter().next() {
        Some(f) => Err(f),
        None => Ok(r.states),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataRef, Range, RecvAction};

    fn send(dst: usize, n: usize, lo: usize, hi: usize) -> Op {
        Op::Send {
            dst,
            bytes: n,
            data: DataRef::Elems(Range::new(lo, hi)),
        }
    }

    fn recv_acc(src: usize, n: usize, lo: usize, hi: usize) -> Op {
        Op::Recv {
            src,
            bytes: n,
            action: RecvAction::Accumulate(Range::new(lo, hi)),
        }
    }

    /// Two ranks exchange and accumulate one element — the smallest
    /// all-reduce. Sum-complete but NOT bit-deterministic: rank 0
    /// computes (0+1) while rank 1 computes (1+0), which is exactly why
    /// real schedules reduce-scatter so each element has one owner.
    fn tiny_exchange() -> Schedule {
        let mut s = Schedule::new("tiny", 2, 1);
        s.push(0, send(1, 4, 0, 1));
        s.push(0, recv_acc(1, 4, 0, 1));
        s.push(1, send(0, 4, 0, 1));
        s.push(1, recv_acc(0, 4, 0, 1));
        s.expect = Expectation::ReducedVector {
            ranks: vec![0, 1],
            contributors: vec![0, 1],
        };
        s
    }

    #[test]
    fn symmetric_exchange_is_not_bit_deterministic() {
        // Every op runs and every rank sums both contributions, but the
        // two ranks associate the sum differently, so the reduced-vector
        // expectation must fail on association alone.
        let r = verify_schedule(&tiny_exchange());
        assert_eq!(r.ops_executed, 4);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(
            matches!(
                &r.violations[0],
                Violation::ExpectationFailed { detail } if detail.contains("association differs")
            ),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn recv_before_send_deadlocks() {
        // Both ranks recv first: classic head-to-head deadlock.
        let mut s = Schedule::new("mispaired", 2, 1);
        s.push(0, recv_acc(1, 4, 0, 1));
        s.push(0, send(1, 4, 0, 1));
        s.push(1, recv_acc(0, 4, 0, 1));
        s.push(1, send(0, 4, 0, 1));
        let r = verify_schedule(&s);
        let dl = r
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::Deadlock { cycle, .. } => Some(cycle.clone()),
                _ => None,
            })
            .expect("must report deadlock");
        assert_eq!(dl.len(), 2, "two-rank wait-for cycle: {dl:?}");
        assert!(check_deadlock_exhaustive(&s).is_err());
    }

    #[test]
    fn bounded_channel_send_send_deadlocks() {
        // cap-1 channels, both sides send twice before receiving: the
        // second sends block forever. Unbounded channels would hide this.
        let mut s = Schedule::new("sync-overrun", 2, 1);
        for (me, peer) in [(0usize, 1usize), (1, 0)] {
            s.push(me, send(peer, 4, 0, 1));
            s.push(me, send(peer, 4, 0, 1));
            s.push(me, recv_acc(peer, 4, 0, 1));
            s.push(
                me,
                Op::Recv {
                    src: peer,
                    bytes: 4,
                    action: RecvAction::Discard,
                },
            );
        }
        s.channel_caps.insert((0, 1), 1);
        s.channel_caps.insert((1, 0), 1);
        let r = verify_schedule(&s);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::Deadlock { .. })),
            "{:?}",
            r.violations
        );
        // With capacity 2 the same program drains fine.
        s.channel_caps.insert((0, 1), 2);
        s.channel_caps.insert((1, 0), 2);
        assert!(verify_schedule(&s).ok());
    }

    #[test]
    fn self_send_and_byte_mismatch_are_static() {
        let mut s = Schedule::new("bad-static", 2, 1);
        s.push(0, send(0, 4, 0, 1)); // self-send
        s.push(0, send(1, 8, 0, 1)); // declares 8 B for 1 elem
        s.push(1, recv_acc(0, 4, 0, 1)); // and the recv disagrees anyway
        let v = static_checks(&s);
        assert!(v.iter().any(|x| matches!(x, Violation::SelfSend { .. })));
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::ByteMismatch {
                send_bytes: 8,
                recv_bytes: 4,
                ..
            }
        )));
        // Self-send channel 0->0 has a send and no recv.
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::PairingMismatch { src: 0, dst: 0, .. })));
    }

    #[test]
    fn double_count_reduction_is_rejectedable() {
        // Rank 1 accumulates the same contribution twice.
        let mut s = Schedule::new("double-count", 2, 1);
        s.push(0, send(1, 4, 0, 1));
        s.push(0, send(1, 4, 0, 1));
        s.push(0, recv_acc(1, 4, 0, 1));
        s.push(1, recv_acc(0, 4, 0, 1));
        s.push(1, recv_acc(0, 4, 0, 1));
        s.push(1, send(0, 4, 0, 1));
        s.expect = Expectation::ReducedVector {
            ranks: vec![1],
            contributors: vec![0, 1],
        };
        let r = verify_schedule(&s);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, Violation::ExpectationFailed { .. })),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn association_divergence_is_detected() {
        // Three ranks; ranks 0 and 2 both end with all contributions but
        // associate them differently — numerically "equal", bitwise not.
        let mut s = Schedule::new("assoc", 3, 1);
        // rank 1 sends its leaf to both 0 and 2.
        s.push(1, send(0, 4, 0, 1));
        s.push(1, send(2, 4, 0, 1));
        // rank 0: gets 1's leaf, then 2's leaf => ((0+1)+2)
        s.push(0, recv_acc(1, 4, 0, 1));
        s.push(0, recv_acc(2, 4, 0, 1));
        // rank 2: sends own leaf to 0 first, then receives 0's ORIGINAL?
        // No — rank 2 receives 1's leaf then 0's leaf => ((2+1)+0).
        s.push(2, send(0, 4, 0, 1));
        s.push(2, recv_acc(1, 4, 0, 1));
        s.push(2, recv_acc(0, 4, 0, 1));
        // rank 0 ships its own pristine leaf AFTER accumulating? It must
        // send before accumulating to give rank 2 a pure leaf — use a
        // fresh send op placed first.
        s.processes[0].ops.insert(0, send(2, 4, 0, 1));
        s.expect = Expectation::ReducedVector {
            ranks: vec![0, 2],
            contributors: vec![0, 1, 2],
        };
        let r = verify_schedule(&s);
        let has_assoc_failure = r.violations.iter().any(|v| {
            matches!(v, Violation::ExpectationFailed { detail }
                if detail.contains("association differs"))
        });
        assert!(has_assoc_failure, "{:?}", r.violations);
    }

    #[test]
    fn exhaustive_agrees_with_canonical_on_tiny_exchange() {
        let s = tiny_exchange();
        let states = check_deadlock_exhaustive(&s).expect("no deadlock");
        assert!(states > 1);
    }
}
