//! Communication-schedule IR.
//!
//! A [`Schedule`] is a set of sequential processes, each a straight-line
//! program of [`Op`]s. Every op is a blocking point-to-point `Send` or
//! `Recv` on a directed FIFO channel `(src, dst)`; a channel may carry a
//! capacity bound (a send blocks while the channel holds `cap` messages,
//! mirroring `std::sync::mpsc::sync_channel`). Unbounded channels mirror
//! `mpsc::channel` — sends never block.
//!
//! Payloads are symbolic, not numeric: an element range sent from a
//! process snapshots that process's per-element expression trees, so the
//! verifier can prove *which* reduction every rank ends up with, not just
//! that bytes moved. Blob payloads model `all_gather`/`broadcast` frames
//! whose identity (origin rank) matters but whose contents do not.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Half-open element range `[lo, hi)` into a process's f32 buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    pub lo: usize,
    pub hi: usize,
}

impl Range {
    pub fn new(lo: usize, hi: usize) -> Self {
        Range { lo, hi }
    }

    pub fn len(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// What a `Send` puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataRef {
    /// Snapshot of the sender's current buffer over `range`.
    Elems(Range),
    /// Re-forward the payload of the most recent message received from
    /// `src` (zero-copy frame forwarding: the ring all-gather forwards
    /// the *incoming* frame, not the accumulated local state — the
    /// distinction is exactly what makes that schedule correct, so the IR
    /// keeps it first-class).
    LastRecv { src: usize },
    /// An identity-carrying frame originating at process `origin`
    /// (all-gather contribution, broadcast payload).
    Blob { origin: usize },
    /// Contents don't matter for verification (control messages: job
    /// submissions, completion replies, barrier tokens).
    Opaque,
}

/// What a `Recv` does with the payload it gets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvAction {
    /// Elementwise `buf[range] += payload` (payload must be elems of the
    /// same length). The sum is recorded left-associated:
    /// `new = Add(old, incoming)` — mirroring `add_f32s_from_bytes`.
    Accumulate(Range),
    /// `buf[range] = payload` (reduce-scatter hand-off, broadcast copy).
    Overwrite(Range),
    /// Store the received blob, asserting its origin is `origin` — the
    /// receiver's index arithmetic claims to know who the frame is from,
    /// and the verifier checks that claim.
    StoreBlob { origin: usize },
    /// Payload is consumed and dropped (control traffic).
    Discard,
}

/// One blocking communication operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Send {
        dst: usize,
        bytes: usize,
        data: DataRef,
    },
    Recv {
        src: usize,
        bytes: usize,
        action: RecvAction,
    },
}

impl Op {
    /// What the wire sees of this op: direction, peer and byte count.
    pub fn wire(&self) -> WireOp {
        match *self {
            Op::Send {
                dst: peer, bytes, ..
            } => WireOp::Send { peer, bytes },
            Op::Recv {
                src: peer, bytes, ..
            } => WireOp::Recv { peer, bytes },
        }
    }
}

/// An [`Op`] without its data: all that a recording of the running code
/// observes of one point-to-point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    Send { peer: usize, bytes: usize },
    Recv { peer: usize, bytes: usize },
}

impl fmt::Display for WireOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireOp::Send { peer, bytes } => write!(f, "send {bytes} B to {peer}"),
            WireOp::Recv { peer, bytes } => write!(f, "recv {bytes} B from {peer}"),
        }
    }
}

/// A sequential process: a straight-line program of ops.
#[derive(Debug, Clone)]
pub struct Process {
    /// Human-readable name for diagnostics (`"rank 3"`, `"comm 1"`).
    pub name: String,
    pub ops: Vec<Op>,
}

/// What the final symbolic state must look like for the schedule to be
/// declared correct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Every process in `ranks` ends with an expression tree per element
    /// that sums every process in `contributors` exactly once
    /// (completeness plus no-double-counting), and all ranks must hold
    /// *structurally identical* trees — the deterministic-reduction-order
    /// check that makes the result bit-identical on every rank.
    ReducedVector {
        ranks: Vec<usize>,
        contributors: Vec<usize>,
    },
    /// Every process in `ranks` ends holding a blob from every origin in
    /// `origins`.
    GatheredBlobs {
        ranks: Vec<usize>,
        origins: Vec<usize>,
    },
    /// Every process in `ranks` holds the blob originating at `root`.
    BroadcastBlob { root: usize, ranks: Vec<usize> },
    /// Only structural checks (pairing, deadlock); no data-flow claim.
    None,
}

/// A complete schedule: processes plus channel metadata and the claim to
/// verify.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub name: String,
    pub processes: Vec<Process>,
    /// Length of every process's symbolic f32 buffer.
    pub elems: usize,
    /// Capacity bounds for specific directed channels `(src, dst)`;
    /// channels absent from the map are unbounded.
    pub channel_caps: HashMap<(usize, usize), usize>,
    pub expect: Expectation,
}

impl Schedule {
    pub fn new(name: impl Into<String>, nprocs: usize, elems: usize) -> Self {
        Schedule {
            name: name.into(),
            processes: (0..nprocs)
                .map(|i| Process {
                    name: format!("rank {i}"),
                    ops: Vec::new(),
                })
                .collect(),
            elems,
            channel_caps: HashMap::new(),
            expect: Expectation::None,
        }
    }

    pub fn push(&mut self, proc_id: usize, op: Op) {
        self.processes[proc_id].ops.push(op);
    }

    /// Total bytes sent by one process across its whole program.
    pub fn sent_bytes(&self, proc_id: usize) -> usize {
        self.processes[proc_id]
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Send { bytes, .. } => Some(*bytes),
                Op::Recv { .. } => None,
            })
            .sum()
    }

    /// Total bytes received by one process across its whole program.
    pub fn recv_bytes(&self, proc_id: usize) -> usize {
        self.processes[proc_id]
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Recv { bytes, .. } => Some(*bytes),
                Op::Send { .. } => None,
            })
            .sum()
    }
}

/// Symbolic per-element value: a leaf per contributing process, combined
/// by `Add` nodes whose *shape* records the association order.
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    Leaf(usize),
    Add(Rc<Expr>, Rc<Expr>),
}

impl Expr {
    pub fn leaf(rank: usize) -> Rc<Expr> {
        Rc::new(Expr::Leaf(rank))
    }

    pub fn sum(a: Rc<Expr>, b: Rc<Expr>) -> Rc<Expr> {
        Rc::new(Expr::Add(a, b))
    }

    /// Multiset of leaf ranks, sorted (for the exactly-once check).
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out.sort_unstable();
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Leaf(r) => out.push(*r),
            Expr::Add(a, b) => {
                a.collect_leaves(out);
                b.collect_leaves(out);
            }
        }
    }

    /// Render as e.g. `((0+1)+2)` for diagnostics.
    pub fn render(&self) -> String {
        match self {
            Expr::Leaf(r) => r.to_string(),
            Expr::Add(a, b) => format!("({}+{})", a.render(), b.render()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_len_and_empty() {
        assert_eq!(Range::new(3, 7).len(), 4);
        assert!(Range::new(5, 5).is_empty());
        assert_eq!(Range::new(5, 3).len(), 0);
    }

    #[test]
    fn expr_association_order_is_visible() {
        let l = Expr::leaf(0);
        let r = Expr::leaf(1);
        let t = Expr::leaf(2);
        let left_assoc = Expr::sum(Expr::sum(l.clone(), r.clone()), t.clone());
        let right_assoc = Expr::sum(l, Expr::sum(r, t));
        assert_ne!(*left_assoc, *right_assoc, "association must be structural");
        assert_eq!(left_assoc.leaves(), right_assoc.leaves());
        assert_eq!(left_assoc.render(), "((0+1)+2)");
    }

    #[test]
    fn schedule_byte_totals() {
        let mut s = Schedule::new("t", 2, 4);
        s.push(
            0,
            Op::Send {
                dst: 1,
                bytes: 16,
                data: DataRef::Elems(Range::new(0, 4)),
            },
        );
        s.push(
            1,
            Op::Recv {
                src: 0,
                bytes: 16,
                action: RecvAction::Accumulate(Range::new(0, 4)),
            },
        );
        assert_eq!(s.sent_bytes(0), 16);
        assert_eq!(s.recv_bytes(1), 16);
    }
}
