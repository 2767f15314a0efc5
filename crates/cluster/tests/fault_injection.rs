//! End-to-end tests of the deterministic fault-injection plane: dead
//! peers, recv deadlines under netem pacing, seed-reproducible event
//! sequences, and survivor-only (shrunk-ring) collectives.
//!
//! The determinism tests honor `GCS_FAULT_SEED` so CI can re-run the
//! suite under multiple fixed seeds.

use gcs_cluster::faults::{FaultPlan, RecvPolicy};
use gcs_cluster::{ClusterError, NetEmu, SimCluster, WorkerHandle};
use std::time::Duration;

/// Seed for the determinism tests; overridable so CI can sweep seeds.
fn seed_from_env() -> u64 {
    std::env::var("GCS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

#[test]
fn send_to_dead_peer_returns_peer_gone_not_panic() {
    // Regression test: a send to a rank declared dead must surface
    // `ClusterError::PeerGone` as a clean error — never a panic, never a
    // hang — and a recv from it must fail the same way.
    let plan = FaultPlan::new(1).kill(1, 0);
    let (outs, events) = SimCluster::run_with_faults(2, plan, |w| {
        if w.rank() == 0 {
            // Wait for rank 1 to flip its alive bit.
            while w.is_alive(1) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let send = w.send(1, vec![1, 2, 3]);
            let recv = w.recv(1);
            (
                send == Err(ClusterError::PeerGone { peer: 1 }),
                recv == Err(ClusterError::PeerGone { peer: 1 }),
            )
        } else {
            w.mark_dead(0);
            (true, true)
        }
    });
    assert_eq!(outs, vec![(true, true); 2]);
    // The death shows up in the fault log.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, gcs_cluster::FaultKind::RankDead { at_iter: 0 }) && e.src == 1));
}

#[test]
fn frames_sent_before_death_remain_receivable() {
    // A dying rank's in-flight frames are drained, not discarded; only
    // after the queue is empty does the receiver see PeerGone.
    let plan = FaultPlan::new(2).kill(0, 3);
    let (outs, _) = SimCluster::run_with_faults(2, plan, |w| {
        if w.rank() == 0 {
            w.send(1, vec![7u8; 4]).unwrap();
            w.mark_dead(3);
            true
        } else {
            while w.is_alive(0) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let drained = w.recv(0).unwrap();
            let after = w.recv(0);
            drained.as_slice() == [7u8; 4] && after == Err(ClusterError::PeerGone { peer: 0 })
        }
    });
    assert_eq!(outs, vec![true, true]);
}

#[test]
fn late_frame_times_out_exactly_once_and_is_received_on_retry() {
    // Netem pacing: a 1 MiB frame on a 100 MiB/s link with 5 ms latency
    // is delivered ~15 ms after the send. A 2 ms recv deadline must
    // surface Timeout WITHOUT discarding the frame; the retry (with a
    // deadline past the delivery time) must return it intact.
    let emu = NetEmu::new(Duration::from_millis(5), 100.0 * 1024.0 * 1024.0);
    let outs = SimCluster::run_with_netem(2, emu, |w| {
        if w.rank() == 0 {
            w.send(1, vec![42u8; 1024 * 1024]).unwrap();
            (true, true, true)
        } else {
            let first = w.recv_deadline(0, Duration::from_millis(2));
            let timed_out = first == Err(ClusterError::Timeout { peer: 0 });
            // Still too early: the stashed frame times out again, exactly
            // once per attempt, without being lost.
            let second = w.recv_deadline(0, Duration::from_millis(1));
            let timed_out_again = second == Err(ClusterError::Timeout { peer: 0 });
            // A deadline past the delivery time gets the frame.
            let third = w.recv_deadline(0, Duration::from_secs(5));
            let got = matches!(&third, Ok(f) if f.as_slice() == vec![42u8; 1024 * 1024]);
            (timed_out, timed_out_again, got)
        }
    });
    assert_eq!(outs, vec![(true, true, true); 2]);
}

#[test]
fn timed_out_frame_is_receivable_by_blocking_recv_too() {
    let emu = NetEmu::new(Duration::from_millis(10), 1e9);
    let outs = SimCluster::run_with_netem(2, emu, |w| {
        if w.rank() == 0 {
            w.send(1, vec![9u8; 8]).unwrap();
            true
        } else {
            let timed_out = w.recv_deadline(0, Duration::from_millis(1))
                == Err(ClusterError::Timeout { peer: 0 });
            let frame = w.recv(0).unwrap();
            timed_out && frame.as_slice() == [9u8; 8]
        }
    });
    assert_eq!(outs, vec![true, true]);
}

#[test]
fn same_seed_gives_identical_event_sequence() {
    // Two runs of the same raw-send workload under the same plan must
    // produce exactly the same (src, dst, seq, kind) sequence, no matter
    // how the worker threads interleave.
    let plan = FaultPlan::new(seed_from_env())
        .drop_prob(0.2)
        .reorder_prob(0.15)
        .delay_jitter(Duration::from_micros(200));
    let workload = |w: &gcs_cluster::WorkerHandle| {
        for dst in 0..w.world() {
            if dst == w.rank() {
                continue;
            }
            for i in 0..64u8 {
                // Fault fates are drawn and logged before the channel op,
                // so a peer that already exited (send error) cannot
                // perturb the event sequence.
                let _ = w.send(dst, vec![i; 16]);
            }
        }
    };
    let (_, events_a) = SimCluster::run_with_faults(4, plan.clone(), |w| workload(&w));
    let (_, events_b) = SimCluster::run_with_faults(4, plan.clone(), |w| workload(&w));
    assert!(!events_a.is_empty(), "plan must inject something");
    assert_eq!(events_a, events_b, "event sequence must be seed-pure");
    // A different seed produces a different sequence.
    let other = FaultPlan {
        seed: plan.seed ^ 0xDEAD_BEEF,
        ..plan
    };
    let (_, events_c) = SimCluster::run_with_faults(4, other, |w| workload(&w));
    assert_ne!(events_a, events_c);
}

#[test]
fn delay_only_faults_leave_collective_results_bit_identical() {
    // Delay jitter changes *when* frames arrive, never their content or
    // order, so every collective's result must match the clean run bit
    // for bit.
    let make = |rank: usize| -> Vec<f32> {
        (0..37)
            .map(|i| ((rank * 97 + i * 13) % 89) as f32 * 0.29 - 2.0)
            .collect()
    };
    // `straggle` is how long rank 0 sleeps before each collective, as a
    // worker with a slow backward pass would.
    let collectives = |w: WorkerHandle, straggle: Duration| {
        if w.rank() == 0 {
            std::thread::sleep(straggle);
        }
        let mut ring = make(w.rank());
        w.all_reduce_sum(&mut ring).unwrap();
        if w.rank() == 0 {
            std::thread::sleep(straggle);
        }
        let own: Vec<u8> = make(w.rank())
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let gathered: Vec<Vec<u8>> = w
            .all_gather_bytes(&own)
            .unwrap()
            .iter()
            .map(|f| f.to_vec())
            .collect();
        (ring, gathered)
    };
    let clean = SimCluster::run(4, |w| collectives(w, Duration::ZERO));
    let plan = FaultPlan::new(seed_from_env()).delay_jitter(Duration::from_micros(300));
    let (delayed, events) =
        SimCluster::run_with_faults(4, plan.clone(), |w| collectives(w, Duration::ZERO));
    // Fault fates come from each link's frame count, not the clock, so a
    // straggler's sleep moves neither the bits nor the injected delays.
    let (straggled, straggled_events) =
        SimCluster::run_with_faults(4, plan, |w| collectives(w, Duration::from_millis(2)));
    assert!(
        events
            .iter()
            .all(|e| matches!(e.kind, gcs_cluster::FaultKind::Delay { .. })),
        "delay-only plan must log only delays"
    );
    assert!(!events.is_empty());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for run in [&delayed, &straggled] {
        for ((cr, cg), (dr, dg)) in clean.iter().zip(run) {
            assert_eq!(bits(cr), bits(dr), "ring corrupted by delay");
            assert_eq!(cg, dg, "all-gather corrupted by delay");
        }
    }
    // The sorted list holds every Delay with its `extra`, so equal lists
    // mean an equal delay count and an equal summed injected delay.
    assert_eq!(
        straggled_events, events,
        "a straggler changed the injected delays"
    );
}

#[test]
fn reorder_swaps_frames_deterministically_without_losing_any() {
    let plan = FaultPlan::new(11).reorder_prob(0.5);
    let run = || {
        let (outs, events) = SimCluster::run_with_faults(2, plan.clone(), |w| {
            if w.rank() == 0 {
                for i in 0..20u8 {
                    w.send(1, vec![i]).unwrap();
                }
                // Receiving flushes any still-held frame so nothing is lost.
                let _ = w.recv(1).unwrap();
                Vec::new()
            } else {
                let got: Vec<u8> = (0..20).map(|_| w.recv(0).unwrap()[0]).collect();
                // Send the ack twice: if the first copy is reorder-held,
                // the second send releases it (swap), so at least one ack
                // reaches rank 0 before this handle drops. When the first
                // ack was delivered directly, rank 0 may already have
                // received it and hung up, so the second send is allowed
                // to fail with Disconnected.
                w.send(0, vec![0]).unwrap();
                let _ = w.send(0, vec![0]);
                got
            }
        });
        (outs[1].clone(), events)
    };
    let (got_a, events_a) = run();
    let (got_b, events_b) = run();
    assert_eq!(got_a, got_b, "reorder must replay identically");
    assert_eq!(events_a, events_b);
    // Nothing lost, something actually swapped.
    let mut sorted = got_a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..20).collect::<Vec<u8>>());
    assert!(
        events_a
            .iter()
            .any(|e| matches!(e.kind, gcs_cluster::FaultKind::Reorder)),
        "plan should have reordered at least one frame"
    );
    assert_ne!(got_a, (0..20).collect::<Vec<u8>>(), "order should differ");
}

#[test]
fn dropped_frames_surface_as_timeout_not_hang() {
    // Certain loss + a recv deadline: the collective fails with Timeout
    // after its retries instead of blocking forever.
    let plan = FaultPlan::new(5)
        .drop_prob(1.0)
        .recv_policy(RecvPolicy::with_timeout(
            Duration::from_millis(10),
            2,
            Duration::from_millis(5),
        ));
    let (outs, events) = SimCluster::run_with_faults(2, plan, |w| {
        let mut buf = vec![1.0f32; 8];
        let res = w.all_reduce_sum(&mut buf);
        // Stay alive until the peer has exhausted its own retries, so its
        // failure is a clean Timeout rather than a racy Disconnected.
        std::thread::sleep(Duration::from_millis(300));
        res
    });
    for out in outs {
        assert!(
            matches!(out, Err(ClusterError::Timeout { .. })),
            "expected Timeout, got {out:?}"
        );
    }
    assert!(events
        .iter()
        .all(|e| matches!(e.kind, gcs_cluster::FaultKind::Drop)));
}

/// One rank's ring mean, or `None` for a rank that sat it out.
type Outcome = Option<Result<Vec<f32>, ClusterError>>;

/// `body` under `plan` with the mean in place and then, on a fresh
/// cluster, out of place: each rank's `(in place, out of place)` outcome.
fn both_means_under(
    world: usize,
    plan: &FaultPlan,
    body: impl Fn(&WorkerHandle, bool) -> Outcome + Sync,
) -> Vec<(Outcome, Outcome)> {
    let (in_place, _) = SimCluster::run_with_faults(world, plan.clone(), |w| body(&w, false));
    let (out_of_place, _) = SimCluster::run_with_faults(world, plan.clone(), |w| body(&w, true));
    in_place.into_iter().zip(out_of_place).collect()
}

/// This rank's ring mean of eight ones, in place or out of place.
fn mean_of_ones(w: &WorkerHandle, out_of_place: bool) -> Result<Vec<f32>, ClusterError> {
    let mut buf = vec![1.0f32; 8];
    if out_of_place {
        w.all_reduce_mean_from(&buf)
    } else {
        w.all_reduce_mean(&mut buf).map(|()| buf)
    }
}

#[test]
fn out_of_place_mean_fails_like_the_in_place_one_on_dropped_frames() {
    let plan = FaultPlan::new(5)
        .drop_prob(1.0)
        .recv_policy(RecvPolicy::with_timeout(
            Duration::from_millis(10),
            2,
            Duration::from_millis(5),
        ));
    let outs = both_means_under(2, &plan, |w, out_of_place| {
        let res = mean_of_ones(w, out_of_place);
        // Outlive the peer's retries (see the test above).
        std::thread::sleep(Duration::from_millis(300));
        Some(res)
    });
    for (in_place, out_of_place) in outs {
        assert!(
            matches!(in_place, Some(Err(ClusterError::Timeout { .. }))),
            "{in_place:?}"
        );
        assert_eq!(out_of_place, in_place);
    }
}

#[test]
fn out_of_place_mean_fails_like_the_in_place_one_on_a_dead_peer() {
    // Rank 1 dies before the collective; rank 0 must see it as PeerGone
    // from either form.
    let plan = FaultPlan::new(1).kill(1, 0);
    let outs = both_means_under(2, &plan, |w, out_of_place| {
        if w.rank() == 1 {
            w.mark_dead(0);
            return None;
        }
        while w.is_alive(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(mean_of_ones(w, out_of_place))
    });
    assert_eq!(
        outs[0].0,
        Some(Err(ClusterError::PeerGone { peer: 1 })),
        "in place"
    );
    assert_eq!(outs[0].1, outs[0].0, "out of place");
    assert_eq!(outs[1], (None, None));
}

#[test]
fn survivors_shrink_the_ring_and_keep_reducing() {
    // Transport-level dead-rank degradation: rank 3 of 8 dies at
    // iteration 5 of 10. Survivors recompute membership from the shared
    // plan each iteration, shrink their handles' ring to it, and keep the
    // all-reduce running on 7 ranks.
    const WORLD: usize = 8;
    const STEPS: usize = 10;
    const DIE_AT: usize = 5;
    let plan = FaultPlan::new(7).kill(3, DIE_AT);
    let (outs, events) = SimCluster::run_with_faults(WORLD, plan.clone(), |mut w| {
        let rank = w.rank();
        let plan = w.fault_plan().expect("plan installed").clone();
        let mut sums = Vec::new();
        for iter in 0..STEPS {
            if plan.dead_at(rank, iter) {
                w.mark_dead(iter);
                break;
            }
            w.set_members(&plan.live_members(WORLD, iter)).unwrap();
            let mut buf = vec![(rank + 1) as f32; 4];
            w.all_reduce_sum(&mut buf).unwrap();
            sums.push(buf[0]);
        }
        sums
    });
    let full: f32 = (1..=WORLD).map(|r| r as f32).sum(); // 36
    let shrunk = full - 4.0; // rank 3 contributes 4.0
    for (rank, sums) in outs.iter().enumerate() {
        if rank == 3 {
            assert_eq!(sums, &vec![full; DIE_AT], "rank 3 stops after {DIE_AT}");
        } else {
            let mut expect = vec![full; DIE_AT];
            expect.extend(vec![shrunk; STEPS - DIE_AT]);
            assert_eq!(sums, &expect, "rank {rank}");
        }
    }
    assert!(events
        .iter()
        .any(|e| e.src == 3 && matches!(e.kind, gcs_cluster::FaultKind::RankDead { at_iter: 5 })));
}

#[test]
fn recv_robust_retries_through_a_slow_frame() {
    // One attempt would time out (frame needs ~12 ms, deadline 5 ms), but
    // the policy's retries extend the deadline until the frame lands.
    let emu = NetEmu::new(Duration::from_millis(12), 1e9);
    let plan = FaultPlan::new(0).recv_policy(RecvPolicy::with_timeout(
        Duration::from_millis(5),
        4,
        Duration::from_millis(5),
    ));
    let cluster = SimCluster::new_with_faults(2, Some(emu), Some(plan));
    let outs = cluster.run_workers(|w| {
        if w.rank() == 0 {
            w.send(1, vec![3u8; 8]).unwrap();
            true
        } else {
            w.recv_robust(0).unwrap().as_slice() == [3u8; 8]
        }
    });
    assert_eq!(outs, vec![true, true]);
}
