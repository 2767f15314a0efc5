//! Property tests tying the schedule IR to the two other sources of
//! truth in the workspace:
//!
//! 1. The α–β cost model (`gcs_cluster::cost::NetworkModel`) — the byte
//!    volumes the extracted schedules move must be exactly the volumes
//!    the paper's Equation 1 family charges for. With `α = 0` and
//!    `BW = 1` the model's "time" *is* the per-rank byte volume, so the
//!    comparison needs no tolerance when the chunking is uniform.
//! 2. The running code over real sockets — Pass 1 checks every schedule
//!    op for op against a recording of the collective on `SimCluster`;
//!    the same calls under the same recorder on `TcpCluster` must yield
//!    the same programs.
//!
//! Plus the required negative: a mispaired schedule (one send routed to
//! the wrong peer) must be rejected, and specifically as a deadlock by
//! both the canonical simulation and the exhaustive interleaving check.

use gcs_analyze::conformance;
use gcs_analyze::ir::{Op, Schedule};
use gcs_analyze::schedules;
use gcs_analyze::verify::{check_deadlock_exhaustive, static_checks, verify_schedule, Violation};
use gcs_cluster::cost::NetworkModel;

/// The full ring of `p` ranks.
fn all(p: usize) -> Vec<usize> {
    (0..p).collect()
}

/// `α = 0`, `BW = 1 B/s`: model time in seconds == byte volume.
fn unit_model() -> NetworkModel {
    NetworkModel::new(0.0, 1.0)
}

fn send_op_count(s: &Schedule, proc_id: usize) -> usize {
    s.processes[proc_id]
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Send { .. }))
        .count()
}

#[test]
fn ring_per_rank_volume_equals_alpha_beta_model_when_divisible() {
    // With p | n every chunk is exactly n/p elements, and Equation 1's
    // bandwidth term `2·b·(p−1)/(p·BW)` is the *exact* per-rank wire
    // volume, not an approximation. Both sides are integers, so compare
    // with == (IEEE division is correctly rounded and the true quotient
    // is representable).
    let model = unit_model();
    for p in 2..=16usize {
        let n = 13 * p; // divisible by p
        let bytes = 4 * n;
        let s = schedules::ring_all_reduce(p, &all(p), &[n]);
        let expect = model.ring_all_reduce(bytes, p);
        for rank in 0..p {
            assert_eq!(
                s.sent_bytes(rank) as f64,
                expect,
                "p={p} rank={rank}: IR sent bytes vs Eq. 1"
            );
            // Ring symmetry: every byte sent is received by the next
            // rank, so recv volume matches too (byte conservation).
            assert_eq!(
                s.recv_bytes(rank) as f64,
                expect,
                "p={p} rank={rank}: IR recv bytes vs Eq. 1"
            );
        }
    }
}

#[test]
fn ring_reduce_scatter_phase_matches_model_term() {
    // The first p−1 (send, recv) pairs of each rank's program are the
    // reduce-scatter phase; its send volume must be the model's
    // reduce_scatter term `b·(p−1)/(p·BW)` exactly (again p | n).
    let model = unit_model();
    for p in 2..=16usize {
        let n = 13 * p;
        let bytes = 4 * n;
        let s = schedules::ring_all_reduce(p, &all(p), &[n]);
        let expect = model.reduce_scatter(bytes, p);
        for rank in 0..p {
            let phase1: usize = s.processes[rank]
                .ops
                .iter()
                .take(2 * (p - 1))
                .filter_map(|op| match op {
                    Op::Send { bytes, .. } => Some(*bytes),
                    Op::Recv { .. } => None,
                })
                .sum();
            assert_eq!(
                phase1 as f64, expect,
                "p={p} rank={rank}: reduce-scatter phase volume"
            );
        }
    }
}

#[test]
fn ring_total_volume_conserved_for_ragged_sizes() {
    // When p does not divide n the chunks are ragged and per-rank
    // volumes differ by a few elements — but each of the 2(p−1) steps
    // moves every chunk exactly once across the whole ring, so the
    // *total* volume is exactly 2·(p−1)·4n, which is p times Equation
    // 1's per-rank average.
    let model = unit_model();
    for p in 2..=16usize {
        for n in [p + 1, 257, 1000] {
            let bytes = 4 * n;
            let s = schedules::ring_all_reduce(p, &all(p), &[n]);
            let total_sent: usize = (0..p).map(|r| s.sent_bytes(r)).sum();
            let total_recv: usize = (0..p).map(|r| s.recv_bytes(r)).sum();
            assert_eq!(total_sent, 2 * (p - 1) * bytes, "p={p} n={n} total");
            assert_eq!(total_sent, total_recv, "p={p} n={n} conservation");
            let avg = total_sent as f64 / p as f64;
            let expect = model.ring_all_reduce(bytes, p);
            assert!(
                (avg - expect).abs() < 1e-6,
                "p={p} n={n}: mean per-rank volume {avg} vs Eq. 1 {expect}"
            );
        }
    }
}

#[test]
fn all_gather_total_volume_is_sum_of_per_origin_model_terms() {
    // The gather extractor gives each origin a distinct blob size; the
    // model is linear in bytes, so the schedule's total traffic must be
    // the sum of the model's all_gather term over origins — each blob
    // crosses p−1 hops.
    let model = unit_model();
    for p in 2..=16usize {
        let s = schedules::ring_all_gather(p, &all(p));
        let total_sent: usize = (0..p).map(|r| s.sent_bytes(r)).sum();
        let expect: f64 = (0..p)
            .map(|origin| model.all_gather(schedules::blob_bytes(origin), p))
            .sum();
        assert_eq!(total_sent as f64, expect, "p={p}: gather total volume");
    }
}

#[test]
fn broadcast_depth_and_volume_match_model() {
    // Binomial-tree broadcast: the model charges `(α + b/BW)·⌈log₂ p⌉`.
    // With α = BW = 1 that factors as `(1 + b)·L`; the IR's critical
    // depth (the root sends in every round) must equal that same L, and
    // the total volume is one blob per non-root rank, from every root.
    let model = NetworkModel::new(1.0, 1.0);
    for p in 2..=16usize {
        for root in 0..p {
            let s = schedules::broadcast(p, root);
            assert!(verify_schedule(&s).ok(), "p={p} root={root}");
            let b = schedules::blob_bytes(root);
            let rounds = (p as f64).log2().ceil() as usize;
            assert_eq!(
                model.broadcast(b, p),
                ((1 + b) * rounds) as f64,
                "p={p}: model factorization"
            );
            let max_sends = (0..p).map(|r| send_op_count(&s, r)).max().unwrap();
            assert_eq!(max_sends, rounds, "p={p} root={root}: tree depth");
            assert_eq!(send_op_count(&s, root), rounds, "root sends every round");
            let total: usize = (0..p).map(|r| s.sent_bytes(r)).sum();
            assert_eq!(total, (p - 1) * b, "p={p} root={root}: one blob per rank");
        }
    }
}

#[test]
fn tcp_cluster_runs_the_verified_programs() {
    // The schedules Pass 1 verifies, checked op for op against the same
    // calls on the TCP mesh under the same recorder: the full ring, and a
    // ring shrunk to three of the four ranks. (Payload-only byte
    // accounting is `gcs-cluster`'s own test.)
    use gcs_cluster::{TcpCluster, TcpOptions};

    let p = 4;
    for members in [vec![0, 1, 2, 3], vec![0, 1, 3]] {
        let calls = conformance::calls(p, &members);
        let run = TcpCluster::run_with(p, TcpOptions::default(), |h| {
            conformance::record(h, &members, &calls)
        })
        .expect("tcp mesh");
        let recorded: Vec<_> = run.outputs.into_iter().map(|r| r.expect("ran")).collect();
        for (k, call) in calls.iter().enumerate() {
            let s = call.schedule(p, &members);
            for (rank, ops) in recorded.iter().enumerate() {
                assert_eq!(conformance::conform(&s, rank, &ops[k]), None, "{}", s.name);
            }
        }
    }
}

/// Reroute process 0's first send from its ring successor to its ring
/// predecessor — the classic "mispaired" bug where index arithmetic
/// targets the wrong peer. All chunk sizes are equal (p | n), so every
/// message still has a plausible length; only pairing and progress
/// analysis can catch it.
fn mispaired_ring(p: usize, n: usize) -> Schedule {
    let mut s = schedules::ring_all_reduce(p, &all(p), &[n]);
    let first_send = s.processes[0]
        .ops
        .iter_mut()
        .find(|op| matches!(op, Op::Send { .. }))
        .expect("ring rank has sends");
    match first_send {
        Op::Send { dst, .. } => *dst = p - 1,
        Op::Recv { .. } => unreachable!("filtered to sends"),
    }
    s
}

#[test]
fn mispaired_schedule_is_rejected_as_deadlock() {
    let s = mispaired_ring(3, 12);

    // Static pass: both touched channels are now unbalanced.
    let static_violations = static_checks(&s);
    assert!(
        static_violations
            .iter()
            .any(|v| matches!(v, Violation::PairingMismatch { src: 0, dst: 1, .. })),
        "channel 0->1 lost a send: {static_violations:?}"
    );
    assert!(
        static_violations
            .iter()
            .any(|v| matches!(v, Violation::PairingMismatch { src: 0, dst: 2, .. })),
        "channel 0->2 gained a send: {static_violations:?}"
    );

    // Canonical simulation: rank 1 starves waiting for the message that
    // went the wrong way — reported as a deadlock, exactly as the ISSUE
    // requires for a mispaired schedule.
    let result = verify_schedule(&s);
    assert!(!result.ok());
    assert!(
        result
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Deadlock { .. })),
        "expected a deadlock report, got {:?}",
        result.violations
    );

    // Exhaustive interleaving search agrees: some reachable quiescent
    // state is stuck.
    let err = check_deadlock_exhaustive(&s)
        .expect_err("mispaired ring must deadlock under exhaustive search");
    assert!(
        err.kind == "deadlock" && err.detail.starts_with("deadlock: wait-for cycle"),
        "exhaustive check returned {err:?}"
    );

    // And the unmodified schedule is clean under both checks — the
    // rejection above is caused by the mispairing, nothing else.
    let clean = schedules::ring_all_reduce(3, &all(3), &[12]);
    assert!(verify_schedule(&clean).ok());
    check_deadlock_exhaustive(&clean).expect("well-formed ring must be deadlock-free");
}

#[test]
fn dead_rank_subsets_keep_model_equivalence() {
    // Shrunk rings (dead-rank subsets) must obey the same Equation-1
    // volume law with p replaced by the live count m.
    let model = unit_model();
    let p = 8usize;
    for dead in [vec![3usize], vec![0, 5]] {
        let members: Vec<usize> = (0..p).filter(|r| !dead.contains(r)).collect();
        let m = members.len();
        let n = 13 * m;
        let s = schedules::ring_all_reduce(p, &members, &[n]);
        let expect = model.ring_all_reduce(4 * n, m);
        for &rank in &members {
            assert_eq!(
                s.sent_bytes(rank) as f64,
                expect,
                "dead={dead:?} rank={rank}: shrunk-ring volume"
            );
        }
        for &rank in &dead {
            assert_eq!(s.sent_bytes(rank), 0, "dead rank {rank} must be silent");
            assert_eq!(s.recv_bytes(rank), 0, "dead rank {rank} must be silent");
        }
        assert!(verify_schedule(&s).ok());
    }
}
