//! Pass 3 — protocol state machines.
//!
//! Three distributed protocols in the runtime are small enough to verify
//! outright by explicit-state exploration:
//!
//! * the **TCP Hello handshake** (`TcpWorker::build`): every rank dials
//!   its lower peers and accepts its higher ones, validating the Hello
//!   frame's source rank; an out-of-range or duplicate Hello ends `build`
//!   with a typed `Wire` error. Verified properties: every interleaving
//!   of dials and deliveries reaches the full mesh or that typed failure
//!   (deadlock freedom), and no peer slot is accepted twice even under
//!   retransmitted/forged Hellos (no double-accept).
//! * the **adaptive decision protocol** (an `Exchanger`'s adaptive
//!   arms): rank 0 decides and *always* broadcasts; followers apply
//!   exactly what they receive, in order. Verified: follower assignment sequences are
//!   always a prefix of rank 0's, and every run converges with identical
//!   assignments (no decision divergence).
//! * the **pipeline FIFO-completion window** (the bucket schedule's comm
//!   lane, `run_rounds` in `gcs_ddp::exec`, as an `Exchanger` on
//!   `Lane::Comm` drives it): at most `depth` buckets in flight, completions consumed strictly
//!   front-first by `complete_front`. Verified: the in-flight bound holds in every
//!   reachable state and completions are observed in submission order (no
//!   out-of-window completion).
//!
//! Each machine has mutant variants (duplicate-accepting handshake,
//! skip-empty-broadcast / decide-locally followers, unbounded or
//! newest-first window) used as seeded negatives: the pass must reject
//! them, and `gradcomp analyze --inject double-accept` wires one into the
//! CLI to prove the gate exits non-zero.
//!
//! Each machine names source anchors in the code it models (`Hello` and
//! `accept` in `gcs_cluster::tcp`; `encode_decisions` / `decode_decisions`
//! in `gcs_ddp::adaptive`; `run_rounds`, `complete_front` and `pop_front`
//! in `gcs_ddp::exec`), so the pass reports `model-drift` when that code
//! is refactored away.

use crate::explore::{Finding, Machine, PassReport, SourceAnchor};
use std::path::Path;

// ---------------------------------------------------------------------------
// Machine 1: TCP Hello handshake.
// ---------------------------------------------------------------------------

/// Dial-lower/accept-higher mesh handshake, with `forged` retransmitted
/// and out-of-range Hello frames injected adversarially.
pub struct HelloMesh {
    pub p: usize,
    /// Mutant: drop the duplicate-Hello guard (the real accept loop
    /// rejects a Hello for a slot that is already connected).
    pub mutant_double_accept: bool,
    /// Inject a retransmitted duplicate Hello (p-1 → 0) and one
    /// out-of-range Hello (src == dst).
    pub forged: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HelloState {
    /// Per rank: how many of its lower peers it has dialed so far.
    dialed: Vec<u8>,
    /// In-flight Hello frames, kept sorted so the state hashes canonically.
    inflight: Vec<(u8, u8)>,
    /// `accepted[dst][src]`: how many Hellos `dst` accepted from `src`.
    accepted: Vec<Vec<u8>>,
    /// Forged frames still to inject: (duplicate, out-of-range).
    forge_budget: (u8, u8),
    /// A rank rejected a Hello, so its `build` returned `ClusterError::Wire`.
    failed: bool,
}

impl HelloMesh {
    fn deliver(&self, s: &HelloState, idx: usize) -> HelloState {
        let mut n = s.clone();
        let (src, dst) = n.inflight.remove(idx);
        let (src_us, dst_us) = (src as usize, dst as usize);
        // Mirrors TcpWorker::build's accept-side validation: an
        // out-of-range Hello, or a duplicate for an already-connected
        // slot, fails the whole build.
        let duplicate = n.accepted[dst_us][src_us] >= 1 && !self.mutant_double_accept;
        if src_us <= dst_us || src_us >= self.p || duplicate {
            n.failed = true;
        } else {
            n.accepted[dst_us][src_us] += 1;
        }
        n
    }

    fn push_inflight(s: &mut HelloState, frame: (u8, u8)) {
        s.inflight.push(frame);
        s.inflight.sort_unstable();
    }
}

impl Machine for HelloMesh {
    type State = HelloState;

    fn name(&self) -> String {
        format!(
            "hello-handshake/p{}{}{}",
            self.p,
            if self.forged { "+forged" } else { "" },
            if self.mutant_double_accept {
                "+mutant-double-accept"
            } else {
                ""
            }
        )
    }

    fn init(&self) -> HelloState {
        HelloState {
            dialed: vec![0; self.p],
            inflight: Vec::new(),
            accepted: vec![vec![0; self.p]; self.p],
            forge_budget: if self.forged { (1, 1) } else { (0, 0) },
            failed: false,
        }
    }

    fn successors(&self, s: &HelloState) -> Vec<HelloState> {
        let mut out = Vec::new();
        if s.failed {
            return out;
        }
        // A rank dials its next lower peer, sending its Hello.
        for rank in 1..self.p {
            if (s.dialed[rank] as usize) < rank {
                let mut n = s.clone();
                let peer = n.dialed[rank];
                n.dialed[rank] += 1;
                Self::push_inflight(&mut n, (rank as u8, peer));
                out.push(n);
            }
        }
        // Any in-flight Hello is delivered (network reordering is free)
        // while its destination's accept loop still runs; after that it
        // sits unread in the listen backlog.
        for (idx, &(_, dst)) in s.inflight.iter().enumerate() {
            if idx > 0 && s.inflight[idx] == s.inflight[idx - 1] {
                continue; // identical frame, identical successor
            }
            let dst = dst as usize;
            let accepted: u8 = s.accepted[dst].iter().sum();
            if (accepted as usize) < self.p - 1 - dst {
                out.push(self.deliver(s, idx));
            }
        }
        // Adversarial injections: a retransmitted duplicate of the real
        // (p-1 → 0) Hello, and an out-of-range Hello with src == dst.
        if s.forge_budget.0 > 0 {
            let mut n = s.clone();
            n.forge_budget.0 -= 1;
            Self::push_inflight(&mut n, ((self.p - 1) as u8, 0));
            out.push(n);
        }
        if s.forge_budget.1 > 0 {
            let mut n = s.clone();
            n.forge_budget.1 -= 1;
            Self::push_inflight(&mut n, (0, 0));
            out.push(n);
        }
        out
    }

    fn invariant(&self, s: &HelloState) -> Vec<String> {
        for dst in 0..self.p {
            for src in 0..self.p {
                if s.accepted[dst][src] > 1 {
                    return vec![format!(
                        "double-accept: rank {dst} accepted {} Hellos from rank {src}",
                        s.accepted[dst][src]
                    )];
                }
            }
        }
        Vec::new()
    }

    fn accepting(&self, s: &HelloState) -> bool {
        // A typed failure, or the full mesh: every higher rank accepted
        // by every lower rank (a forged frame may be left in a backlog).
        s.failed || (0..self.p).all(|dst| (dst + 1..self.p).all(|src| s.accepted[dst][src] == 1))
    }

    fn anchors(&self) -> &[SourceAnchor] {
        const TCP: &str = "crates/cluster/src/tcp.rs";
        const ANCHORS: &[SourceAnchor] = &[
            SourceAnchor::new(TCP, "Hello"),
            SourceAnchor::new(TCP, "accept"),
        ];
        ANCHORS
    }
}

// ---------------------------------------------------------------------------
// Machine 2: adaptive decision protocol.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionVariant {
    /// Rank 0 always broadcasts; followers apply received decisions FIFO.
    Real,
    /// Mutant: rank 0 skips the broadcast when the decision is unchanged.
    SkipEmptyBroadcast,
    /// Mutant: a follower ignores the wire and decides locally.
    DecideLocally,
}

/// The decision value per round; round 1 repeats round 0 on purpose so
/// the skip-empty-broadcast mutant has something to skip.
const DECISIONS: [u8; 3] = [1, 1, 2];

pub struct DecisionProtocol {
    pub p: usize,
    pub variant: DecisionVariant,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DecState {
    /// Rounds completed by rank 0.
    r0_round: u8,
    /// Per follower: FIFO of broadcast decisions not yet applied.
    queues: Vec<Vec<u8>>,
    /// Per rank (index 0 = rank 0): applied decision sequence.
    applied: Vec<Vec<u8>>,
}

impl Machine for DecisionProtocol {
    type State = DecState;

    fn name(&self) -> String {
        format!("adaptive-decisions/p{}/{:?}", self.p, self.variant)
    }

    fn init(&self) -> DecState {
        DecState {
            r0_round: 0,
            queues: vec![Vec::new(); self.p - 1],
            applied: vec![Vec::new(); self.p],
        }
    }

    fn successors(&self, s: &DecState) -> Vec<DecState> {
        let mut out = Vec::new();
        // Rank 0 finishes a round: decide, apply locally, broadcast.
        if (s.r0_round as usize) < DECISIONS.len() {
            let r = s.r0_round as usize;
            let d = DECISIONS[r];
            let mut n = s.clone();
            n.r0_round += 1;
            n.applied[0].push(d);
            let skip = self.variant == DecisionVariant::SkipEmptyBroadcast
                && r > 0
                && d == DECISIONS[r - 1];
            if !skip {
                for q in &mut n.queues {
                    q.push(d);
                }
            }
            out.push(n);
        }
        // A follower applies the next queued decision.
        for f in 0..self.p - 1 {
            if !s.queues[f].is_empty() {
                let mut n = s.clone();
                let d = n.queues[f].remove(0);
                let local_guess = (n.applied[f + 1].len() as u8) % 2;
                n.applied[f + 1].push(if self.variant == DecisionVariant::DecideLocally {
                    local_guess
                } else {
                    d
                });
                out.push(n);
            }
        }
        out
    }

    fn invariant(&self, s: &DecState) -> Vec<String> {
        // Divergence check: every follower's applied sequence must be a
        // prefix of rank 0's.
        for f in 1..self.p {
            let (fs, r0) = (&s.applied[f], &s.applied[0]);
            if fs.len() > r0.len() || fs[..] != r0[..fs.len()] {
                return vec![format!(
                    "decision divergence: rank {f} applied {fs:?} but rank 0 decided {r0:?}"
                )];
            }
        }
        Vec::new()
    }

    fn accepting(&self, s: &DecState) -> bool {
        s.r0_round as usize == DECISIONS.len()
            && s.queues.iter().all(Vec::is_empty)
            && s.applied.iter().all(|a| a[..] == DECISIONS[..])
    }

    fn anchors(&self) -> &[SourceAnchor] {
        const ADAPTIVE: &str = "crates/ddp/src/adaptive.rs";
        const ANCHORS: &[SourceAnchor] = &[
            SourceAnchor::new(ADAPTIVE, "encode_decisions"),
            SourceAnchor::new(ADAPTIVE, "decode_decisions"),
        ];
        ANCHORS
    }
}

// ---------------------------------------------------------------------------
// Machine 3: pipeline FIFO-completion window.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowVariant {
    /// Submit only below the window bound; complete strictly front-first.
    Real,
    /// Mutant: no in-flight bound.
    NoWindowCheck,
    /// Mutant: completions consumed newest-first.
    PopNewest,
}

/// The bucket window of the schedule's comm lane (`run_rounds` in
/// `gcs_ddp::exec`): the engine submits while `inflight.len() <
/// lane.window()` (the pipeline depth) and `complete_front` pops the
/// oldest in-flight bucket.
pub struct PipelineWindow {
    pub buckets: usize,
    pub window: usize,
    pub variant: WindowVariant,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WindowState {
    next_submit: u8,
    /// In-flight buckets in submission order; `true` once the comm thread
    /// has finished its collective.
    inflight: Vec<(u8, bool)>,
    /// Bucket ids in the order the engine observed their completion.
    completed: Vec<u8>,
}

impl Machine for PipelineWindow {
    type State = WindowState;

    fn name(&self) -> String {
        format!(
            "pipeline-window/buckets{}-w{}/{:?}",
            self.buckets, self.window, self.variant
        )
    }

    fn init(&self) -> WindowState {
        WindowState {
            next_submit: 0,
            inflight: Vec::new(),
            completed: Vec::new(),
        }
    }

    fn successors(&self, s: &WindowState) -> Vec<WindowState> {
        let mut out = Vec::new();
        // Engine submits the next bucket.
        let below_window =
            s.inflight.len() < self.window || self.variant == WindowVariant::NoWindowCheck;
        if (s.next_submit as usize) < self.buckets && below_window {
            let mut n = s.clone();
            n.inflight.push((n.next_submit, false));
            n.next_submit += 1;
            out.push(n);
        }
        // Comm thread finishes the oldest unfinished collective (the job
        // channel is FIFO).
        if let Some(idx) = s.inflight.iter().position(|&(_, done)| !done) {
            let mut n = s.clone();
            n.inflight[idx].1 = true;
            out.push(n);
        }
        // Engine consumes a completion.
        match self.variant {
            WindowVariant::PopNewest => {
                if let Some(idx) = s.inflight.iter().rposition(|&(_, done)| done) {
                    let mut n = s.clone();
                    let (id, _) = n.inflight.remove(idx);
                    n.completed.push(id);
                    out.push(n);
                }
            }
            _ => {
                if s.inflight.first().is_some_and(|&(_, done)| done) {
                    let mut n = s.clone();
                    let (id, _) = n.inflight.remove(0);
                    n.completed.push(id);
                    out.push(n);
                }
            }
        }
        out
    }

    fn invariant(&self, s: &WindowState) -> Vec<String> {
        if s.inflight.len() > self.window {
            return vec![format!(
                "window overflow: {} buckets in flight, bound is {}",
                s.inflight.len(),
                self.window
            )];
        }
        if s.completed.windows(2).any(|w| w[0] >= w[1]) {
            return vec![format!(
                "out-of-window completion: observed order {:?} is not the submission order",
                s.completed
            )];
        }
        Vec::new()
    }

    fn accepting(&self, s: &WindowState) -> bool {
        s.next_submit as usize == self.buckets
            && s.inflight.is_empty()
            && s.completed.len() == self.buckets
    }

    fn anchors(&self) -> &[SourceAnchor] {
        const EXEC: &str = "crates/ddp/src/exec.rs";
        const ANCHORS: &[SourceAnchor] = &[
            SourceAnchor::new(EXEC, "run_rounds"),
            SourceAnchor::new(EXEC, "window"),
            SourceAnchor::new(EXEC, "complete_front"),
            SourceAnchor::new(EXEC, "pop_front"),
        ];
        ANCHORS
    }
}

// ---------------------------------------------------------------------------
// Pass plumbing.
// ---------------------------------------------------------------------------

/// Pass 3 entry point: explore the real machines (including adversarial
/// forged-Hello inputs) at every small config, and check their source
/// anchors against the tree rooted at `root`.
pub fn run_protocol_pass(root: &Path) -> PassReport {
    let mut report = PassReport::default();
    let root = Some(root);
    for p in [2usize, 3, 4] {
        for forged in [false, true] {
            let hello = HelloMesh {
                p,
                mutant_double_accept: false,
                forged,
            };
            report.check(&hello, root);
        }
        let decisions = DecisionProtocol {
            p,
            variant: DecisionVariant::Real,
        };
        report.check(&decisions, root);
    }
    for buckets in [2usize, 3] {
        for window in [1usize, 2] {
            let lane = PipelineWindow {
                buckets,
                window,
                variant: WindowVariant::Real,
            };
            report.check(&lane, root);
        }
    }
    report
}

/// Explore a mutant; one that yields no finding is itself reported.
fn check_mutant<M: Machine>(report: &mut PassReport, m: &M) {
    let before = report.findings.len();
    report.check(m, None);
    if report.findings.len() == before {
        let name = m.name();
        report.findings.push(Finding {
            model: name.clone(),
            kind: "invariant-violation".into(),
            detail: format!("mutant machine `{name}` was NOT rejected — checker lost its teeth"),
        });
    }
}

/// Seeded mutants: every machine here must produce at least one finding,
/// so this report is never `ok()` while the checker has teeth.
pub fn run_protocol_mutants() -> PassReport {
    let mut report = PassReport::default();
    check_mutant(
        &mut report,
        &HelloMesh {
            p: 3,
            mutant_double_accept: true,
            forged: true,
        },
    );
    for (p, variant) in [
        (2, DecisionVariant::SkipEmptyBroadcast),
        (3, DecisionVariant::DecideLocally),
    ] {
        check_mutant(&mut report, &DecisionProtocol { p, variant });
    }
    for (window, variant) in [
        (1, WindowVariant::NoWindowCheck),
        (2, WindowVariant::PopNewest),
    ] {
        check_mutant(
            &mut report,
            &PipelineWindow {
                buckets: 3,
                window,
                variant,
            },
        );
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
    fn real_machines_verify_clean() {
        let report = run_protocol_pass(&repo_root());
        assert!(
            report.ok(),
            "real protocol machines must verify: {:#?}",
            report.findings
        );
        assert!(report.machines.len() >= 13);
        assert!(report.states_explored > 500);
    }

    #[test]
    fn anchor_drift_is_detected() {
        // The Hello handshake is clean against the real tree and drifts
        // on both anchors against a root without `crates/cluster/src/tcp.rs`.
        let hello = HelloMesh {
            p: 2,
            mutant_double_accept: false,
            forged: false,
        };
        assert!(check_anchors(&repo_root(), &hello).is_empty());
        let fs = check_anchors(Path::new(env!("CARGO_MANIFEST_DIR")), &hello);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.kind == "model-drift"), "{fs:?}");
    }

    #[test]
    fn forged_hellos_are_rejected_not_accepted() {
        // The real handshake with forged frames ends in the full mesh or
        // a typed failure, and never double-accepts.
        let r = explore(&HelloMesh {
            p: 4,
            mutant_double_accept: false,
            forged: true,
        });
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn double_accept_mutant_is_rejected() {
        let r = explore(&HelloMesh {
            p: 3,
            mutant_double_accept: true,
            forged: true,
        });
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == "invariant-violation" && f.detail.contains("double-accept")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn skip_empty_broadcast_mutant_diverges_or_deadlocks() {
        let r = explore(&DecisionProtocol {
            p: 2,
            variant: DecisionVariant::SkipEmptyBroadcast,
        });
        assert!(!r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn decide_locally_mutant_diverges() {
        let r = explore(&DecisionProtocol {
            p: 3,
            variant: DecisionVariant::DecideLocally,
        });
        assert!(
            r.findings.iter().any(|f| f.detail.contains("divergence")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn unbounded_window_mutant_overflows() {
        let r = explore(&PipelineWindow {
            buckets: 3,
            window: 1,
            variant: WindowVariant::NoWindowCheck,
        });
        assert!(
            r.findings
                .iter()
                .any(|f| f.detail.contains("window overflow")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn newest_first_mutant_breaks_fifo() {
        let r = explore(&PipelineWindow {
            buckets: 3,
            window: 2,
            variant: WindowVariant::PopNewest,
        });
        assert!(
            r.findings
                .iter()
                .any(|f| f.detail.contains("out-of-window")),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn mutant_suite_always_reports() {
        let report = run_protocol_mutants();
        assert!(!report.ok());
        assert_eq!(report.machines.len(), 5);
    }
}
