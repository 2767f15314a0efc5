//! Conformance: Pass 1's schedules held to the collectives that run.
//!
//! [`record`] puts a pass-through [`Transport`] around a worker handle's
//! backend that logs the rank's sends and recvs as [`WireOp`]s, and issues
//! the [`Call`]s the extractors in [`crate::schedules`] model, splitting
//! the log at call boundaries; [`record_sim`] does so on every rank of one
//! `SimCluster`. [`conform`] requires each rank's recording to equal its
//! program in the schedule, op for op, so the verifier's pairing, byte and
//! deadlock verdicts, which read nothing else, are verdicts about the code.

use crate::ir::{Op, Schedule, WireOp};
use crate::schedules::{self, blob_bytes};
use crate::verify::Violation;
use gcs_cluster::{
    FaultLog, FaultPlan, Frame, Result, SimCluster, TrafficCounter, Transport, WorkerHandle,
};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A transport that forwards everything to the one it wraps and logs
/// each completed send and recv of its rank.
#[derive(Debug)]
struct Recorder {
    inner: Box<dyn Transport>,
    log: Sender<WireOp>,
}

impl Recorder {
    fn note(&self, op: WireOp) {
        // A dropped receiver means nobody reads the log any more.
        let _ = self.log.send(op);
    }

    fn received(&self, peer: usize, frame: Result<Frame>) -> Result<Frame> {
        let frame = frame?;
        let bytes = frame.len();
        self.note(WireOp::Recv { peer, bytes });
        Ok(frame)
    }
}

impl Transport for Recorder {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world(&self) -> usize {
        self.inner.world()
    }

    fn traffic(&self) -> &TrafficCounter {
        self.inner.traffic()
    }

    fn send(&self, peer: usize, frame: Frame) -> Result<()> {
        let bytes = frame.len();
        self.inner.send(peer, frame)?;
        self.note(WireOp::Send { peer, bytes });
        Ok(())
    }

    fn send_slice(&self, peer: usize, slice: &[u8]) -> Result<()> {
        let bytes = slice.len();
        self.inner.send_slice(peer, slice)?;
        self.note(WireOp::Send { peer, bytes });
        Ok(())
    }

    fn recv(&self, peer: usize) -> Result<Frame> {
        self.received(peer, self.inner.recv(peer))
    }

    fn recv_deadline(&self, peer: usize, timeout: Duration) -> Result<Frame> {
        self.received(peer, self.inner.recv_deadline(peer, timeout))
    }

    fn is_alive(&self, peer: usize) -> bool {
        self.inner.is_alive(peer)
    }

    fn mark_dead(&self, at_iter: usize) {
        self.inner.mark_dead(at_iter);
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.inner.fault_plan()
    }

    fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.inner.fault_log()
    }
}

/// One call of a collective entry point that an extractor models.
#[derive(Debug)]
pub enum Call {
    /// `all_reduce_sum` of an `n`-element buffer.
    Sum(usize),
    /// `all_reduce_mean` of an `n`-element buffer.
    Mean(usize),
    /// `all_reduce_mean_from` of an `n`-element buffer.
    MeanFrom(usize),
    /// `all_reduce_mean_many` of buffers of these lengths.
    MeanMany(Vec<usize>),
    /// `all_gather_bytes` of a [`blob_bytes`]`(rank)`-byte blob.
    AllGather,
    /// `broadcast` of a [`blob_bytes`]`(root)`-byte blob from this root.
    Broadcast(usize),
}

impl Call {
    /// The extractor's schedule of this call on the ring `members` of a
    /// `p`-rank world.
    pub fn schedule(&self, p: usize, members: &[usize]) -> Schedule {
        match self {
            Call::Sum(n) | Call::Mean(n) | Call::MeanFrom(n) => {
                schedules::ring_all_reduce(p, members, &[*n])
            }
            Call::MeanMany(lens) => schedules::ring_all_reduce(p, members, lens),
            Call::AllGather => schedules::ring_all_gather(p, members),
            Call::Broadcast(root) => schedules::broadcast(p, *root),
        }
    }

    fn issue(&self, h: &WorkerHandle) -> Result<()> {
        match self {
            Call::Sum(n) => h.all_reduce_sum(&mut vec![1.0; *n]),
            Call::Mean(n) => h.all_reduce_mean(&mut vec![1.0; *n]),
            Call::MeanFrom(n) => h.all_reduce_mean_from(&vec![1.0; *n]).map(drop),
            Call::MeanMany(lens) => {
                let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&n| vec![1.0; n]).collect();
                h.all_reduce_mean_many(&mut bufs)
            }
            Call::AllGather => h.all_gather_bytes(&vec![0; blob_bytes(h.rank())]).map(drop),
            Call::Broadcast(root) => {
                let blob = vec![7; blob_bytes(*root)];
                let data = (h.rank() == *root).then_some(&blob[..]);
                h.broadcast(*root, data).map(drop)
            }
        }
    }
}

/// The calls Pass 1 checks on the ring `members` of a `p`-rank world:
/// each ring entry point — over remainder chunks, a buffer shorter than
/// the ring (empty chunks still travel as 0-byte frames), and ragged
/// buffers with an empty one for the fused form — then the all-gather,
/// and at full membership broadcasts from an edge and a middle root.
pub fn calls(p: usize, members: &[usize]) -> Vec<Call> {
    let m = members.len();
    let mut calls = vec![
        Call::Sum(4 * m + 3),
        Call::Mean(m - 1),
        Call::MeanFrom(2 * m + 1),
        Call::MeanMany(vec![m - 1, 0, 4 * m + 3]),
        Call::AllGather,
    ];
    // `broadcast` addresses the whole world and refuses a shrunk ring.
    if m == p {
        let mut roots = vec![0, p / 2, p - 1];
        roots.dedup();
        calls.extend(roots.into_iter().map(Call::Broadcast));
    }
    calls
}

/// Issues `calls` in turn on `handle`, its ring set to `members`, with
/// a recorder around its backend; returns this rank's ops per call. A
/// rank not in `members` issues nothing.
///
/// # Errors
///
/// The first error of `set_members` or of a call.
pub fn record(handle: WorkerHandle, members: &[usize], calls: &[Call]) -> Result<Vec<Vec<WireOp>>> {
    if !members.contains(&handle.rank()) {
        return Ok(vec![Vec::new(); calls.len()]);
    }
    let (log, ops) = channel();
    let inner = handle.into_transport();
    let mut h = WorkerHandle::from_transport(Box::new(Recorder { inner, log }));
    h.set_members(members)?;
    calls
        .iter()
        .map(|call| {
            call.issue(&h)?;
            Ok(ops.try_iter().collect())
        })
        .collect()
}

/// [`record`] on every rank of one fresh `p`-rank [`SimCluster`]: rank
/// `r`'s ops for call `k` are `[r][k]`.
///
/// # Errors
///
/// The first rank's error, in rank order.
pub fn record_sim(p: usize, members: &[usize], calls: &[Call]) -> Result<Vec<Vec<Vec<WireOp>>>> {
    SimCluster::new(p)
        .run_workers(|h| record(h, members, calls))
        .into_iter()
        .collect()
}

/// The first op at which `rank`'s recording departs from its program in
/// `s` projected onto the wire; `None` when the two are equal op for op.
pub fn conform(s: &Schedule, rank: usize, recorded: &[WireOp]) -> Option<Violation> {
    let ops = s.processes.get(rank).map_or(&[][..], |p| &p.ops[..]);
    (0..ops.len().max(recorded.len())).find_map(|op_index| {
        let schedule = ops.get(op_index).map(Op::wire);
        let recorded = recorded.get(op_index).copied();
        (schedule != recorded).then_some(Violation::Nonconforming {
            process: rank,
            op_index,
            schedule,
            recorded,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_sends_keep_the_byte_totals_but_fail_conformance() {
        // 7 elements over 3 ranks: chunks of 3, 2 and 2, so rank 0's
        // first send (chunk 0, 12 B) and its second (chunk 2, 8 B) differ.
        let (p, members) = (3, vec![0, 1, 2]);
        let calls = [Call::Sum(7)];
        let recorded = record_sim(p, &members, &calls).expect("recording");
        let mut s = calls[0].schedule(p, &members);
        assert!((0..p).all(|r| conform(&s, r, &recorded[r][0]).is_none()));

        let ops = &mut s.processes[0].ops;
        let j = (1..ops.len())
            .find(|&j| matches!(ops[j], Op::Send { .. }) && ops[j].wire() != ops[0].wire())
            .expect("a send of another size");
        ops.swap(0, j);

        // Per-rank byte and message totals, all the traffic-counter pins
        // compared, still equal the recording's.
        let totals = |ops: &[WireOp]| {
            ops.iter()
                .fold((0, 0, 0), |(sent, msgs, got), op| match op {
                    WireOp::Send { bytes, .. } => (sent + bytes, msgs + 1, got),
                    WireOp::Recv { bytes, .. } => (sent, msgs, got + bytes),
                })
        };
        for (r, proc_) in s.processes.iter().enumerate() {
            let wire: Vec<WireOp> = proc_.ops.iter().map(Op::wire).collect();
            assert_eq!(totals(&wire), totals(&recorded[r][0]), "{}", proc_.name);
        }

        let v = conform(&s, 0, &recorded[0][0]).expect("the swap is caught");
        assert_eq!(
            v.to_string(),
            "process 0 op 0: the schedule has send 8 B to 1, the code ran send 12 B to 1"
        );
        assert!((1..p).all(|r| conform(&s, r, &recorded[r][0]).is_none()));
    }
}
