//! Backend-agnostic fault-semantics tests through the [`Transport`]
//! trait: the same workload runs on [`SimCluster`] and [`TcpCluster`]
//! (via the shared [`WorkerHandle`] surface) and must observe identical
//! timeout / dead-rank / drop semantics on both.
//!
//! Honors `GCS_FAULT_SEED` so CI re-runs the suite under multiple fixed
//! seeds; every seeded test also runs under a second seed derived from
//! the first so a single invocation already covers two plans.

use gcs_cluster::faults::{FaultPlan, RecvPolicy};
use gcs_cluster::{ClusterError, FaultKind, SimCluster, TcpCluster, TcpOptions, WorkerHandle};
use std::time::Duration;

/// Base seed; overridable so CI can sweep seeds.
fn seed_from_env() -> u64 {
    std::env::var("GCS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

/// Two distinct plan seeds per invocation.
fn seeds() -> [u64; 2] {
    let base = seed_from_env();
    [base, base ^ 0x9E37_79B9]
}

/// Runs the same closure on both backends under the same plan and
/// returns `(backend, outputs, events)` per backend.
fn run_both<R, F>(
    world: usize,
    plan: &FaultPlan,
    f: F,
) -> Vec<(&'static str, Vec<R>, Vec<gcs_cluster::FaultEvent>)>
where
    R: Send,
    F: Fn(WorkerHandle) -> R + Sync,
{
    let (sim_outs, sim_events) = SimCluster::run_with_faults(world, plan.clone(), &f);
    let (tcp_outs, tcp_events) =
        TcpCluster::run_with_faults(world, plan.clone(), &f).expect("tcp mesh forms on loopback");
    vec![("sim", sim_outs, sim_events), ("tcp", tcp_outs, tcp_events)]
}

#[test]
fn late_frame_times_out_exactly_once_on_both_backends() {
    // Exactly-once timeout semantics through the trait: a frame that has
    // not arrived yet times out on every too-early `recv_deadline`
    // WITHOUT being discarded, is delivered exactly once by a patient
    // deadline, and never reappears afterwards.
    for seed in seeds() {
        let plan = FaultPlan::new(seed).delay_jitter(Duration::from_millis(2));
        for (backend, outs, events) in run_both(2, &plan, |w| {
            if w.rank() == 0 {
                // Make the frame late regardless of the drawn jitter, so
                // the receiver's first two deadlines always expire.
                std::thread::sleep(Duration::from_millis(60));
                w.send(1, vec![42u8; 64]).unwrap();
                // Outlive the receiver's probes so sockets stay open.
                std::thread::sleep(Duration::from_millis(200));
                (true, true, true, true)
            } else {
                let early = w.recv_deadline(0, Duration::from_millis(5))
                    == Err(ClusterError::Timeout { peer: 0 });
                let early_again = w.recv_deadline(0, Duration::from_millis(5))
                    == Err(ClusterError::Timeout { peer: 0 });
                let got = matches!(
                    w.recv_deadline(0, Duration::from_secs(5)),
                    Ok(f) if f.as_slice() == [42u8; 64]
                );
                // The delivered frame must not be duplicated.
                let no_dup = w.recv_deadline(0, Duration::from_millis(5))
                    == Err(ClusterError::Timeout { peer: 0 });
                (early, early_again, got, no_dup)
            }
        }) {
            assert_eq!(
                outs,
                vec![(true, true, true, true); 2],
                "backend {backend} seed {seed}"
            );
            // A delay-only plan may log only delays.
            assert!(
                events
                    .iter()
                    .all(|e| matches!(e.kind, FaultKind::Delay { .. })),
                "backend {backend} seed {seed}: non-delay event in {events:?}"
            );
        }
    }
}

#[test]
fn dropped_frames_surface_as_timeout_through_recv_robust_on_both_backends() {
    // Certain loss + a bounded recv policy: `recv_robust` (used by every
    // collective) must exhaust its retries and fail with Timeout instead
    // of hanging, on sim and on real sockets alike.
    for seed in seeds() {
        let plan = FaultPlan::new(seed)
            .drop_prob(1.0)
            .recv_policy(RecvPolicy::with_timeout(
                Duration::from_millis(10),
                2,
                Duration::from_millis(5),
            ));
        for (backend, outs, events) in run_both(2, &plan, |w| {
            if w.rank() == 0 {
                let res = w.send(1, vec![7u8; 16]).is_ok();
                // Outlive the receiver's retry window so its failure is a
                // clean Timeout rather than a racy PeerGone.
                std::thread::sleep(Duration::from_millis(300));
                res
            } else {
                matches!(w.recv_robust(0), Err(ClusterError::Timeout { peer: 0 }))
            }
        }) {
            assert_eq!(outs, vec![true, true], "backend {backend} seed {seed}");
            assert!(
                !events.is_empty() && events.iter().all(|e| matches!(e.kind, FaultKind::Drop)),
                "backend {backend} seed {seed}: expected only Drop events, got {events:?}"
            );
        }
    }
}

#[test]
fn dead_rank_maps_to_peer_gone_on_both_backends() {
    // `mark_dead` propagates through the trait: the survivor's send AND
    // recv both surface `PeerGone`, and the death is logged, identically
    // on both backends.
    for seed in seeds() {
        let plan = FaultPlan::new(seed).kill(1, 0);
        for (backend, outs, events) in run_both(2, &plan, |w| {
            if w.rank() == 0 {
                while w.is_alive(1) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let send = w.send(1, vec![1, 2, 3]) == Err(ClusterError::PeerGone { peer: 1 });
                let recv = w.recv(1) == Err(ClusterError::PeerGone { peer: 1 });
                (send, recv)
            } else {
                w.mark_dead(0);
                // Keep the process alive until rank 0 has observed the
                // death so the TCP socket close cannot race the Dead frame.
                std::thread::sleep(Duration::from_millis(100));
                (true, true)
            }
        }) {
            assert_eq!(outs, vec![(true, true); 2], "backend {backend} seed {seed}");
            assert!(
                events
                    .iter()
                    .any(|e| e.src == 1 && matches!(e.kind, FaultKind::RankDead { at_iter: 0 })),
                "backend {backend} seed {seed}: death missing from {events:?}"
            );
        }
    }
}

#[test]
fn tcp_peer_disconnect_maps_to_peer_gone() {
    // A real socket close (peer process exits without mark_dead) cannot
    // be distinguished from a crash on the wire, so the TCP backend maps
    // it to `PeerGone` — the documented divergence from sim's
    // `Disconnected` for a *clean* exit.
    let outs = TcpCluster::run(2, |w| {
        if w.rank() == 0 {
            // Exit immediately: dropping the handle closes both sockets.
            true
        } else {
            matches!(w.recv(0), Err(ClusterError::PeerGone { peer: 0 }))
        }
    })
    .expect("tcp mesh forms on loopback");
    assert_eq!(outs, vec![true, true]);
}

#[test]
fn shrunk_ring_sum_is_bit_identical_on_both_backends_and_idles_non_members() {
    // Members {0, 2, 3} of 5 reduce among themselves on shrunk handles;
    // ranks 1 and 4 sit out. Both backends must produce the same bits,
    // and no frame may reach or leave a non-member.
    let members = [0usize, 2, 3];
    let make = |rank: usize| -> Vec<f32> {
        (0..37)
            .map(|i| ((rank * 131 + i * 17) % 101) as f32 * 0.37 - 3.0)
            .collect()
    };
    let plan = FaultPlan::new(seed_from_env());
    let runs = run_both(5, &plan, |mut w| {
        if !members.contains(&w.rank()) {
            let nothing_in = members
                .iter()
                .all(|&r| w.recv_deadline(r, Duration::from_millis(50)).is_err());
            return Err(nothing_in && w.traffic().messages_sent() == 0);
        }
        w.set_members(&members).unwrap();
        let mut buf = make(w.rank());
        w.all_reduce_sum(&mut buf).unwrap();
        Ok(buf.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
    });
    let (_, sim, _) = &runs[0];
    for (backend, outs, _) in &runs {
        assert_eq!(outs, sim, "backend {backend} deviates from sim");
    }
    for (rank, out) in sim.iter().enumerate() {
        match out {
            Ok(bits) => {
                assert_eq!(Ok(bits), sim[0].as_ref(), "members must agree");
                let want: f32 = members.iter().map(|&r| make(r)[0]).sum();
                let got = f32::from_bits(bits[0]);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "{got} vs {want}"
                );
            }
            Err(idle) => assert!(*idle && !members.contains(&rank), "rank {rank} not idle"),
        }
    }
}

#[test]
fn recv_robust_rides_out_a_late_frame_on_both_backends() {
    // One attempt would time out, but the policy's retries extend the
    // deadline until the late frame lands — exactly once.
    for seed in seeds() {
        let plan = FaultPlan::new(seed).recv_policy(RecvPolicy::with_timeout(
            Duration::from_millis(10),
            6,
            Duration::from_millis(10),
        ));
        for (backend, outs, _) in run_both(2, &plan, |w| {
            if w.rank() == 0 {
                std::thread::sleep(Duration::from_millis(25));
                w.send(1, vec![3u8; 8]).unwrap();
                std::thread::sleep(Duration::from_millis(200));
                true
            } else {
                w.recv_robust(0).unwrap().as_slice() == [3u8; 8]
            }
        }) {
            assert_eq!(outs, vec![true, true], "backend {backend} seed {seed}");
        }
    }
}

/// Blobs of assorted lengths — empty, one byte, odd, and a few frames of
/// 64 KiB — each with distinct content.
fn blobs() -> Vec<Vec<u8>> {
    [0usize, 1, 7, 4096, 65_536, 100_003]
        .iter()
        .enumerate()
        .map(|(k, &n)| (0..n).map(|i| (i * 31 + k * 7) as u8).collect())
        .collect()
}

/// Sends `b` from `w` to `peer` by slice or as a frame built from it.
fn send_as(w: &WorkerHandle, peer: usize, b: &[u8], by_slice: bool) {
    if by_slice {
        w.send_slice(peer, b).unwrap();
    } else {
        w.send(peer, gcs_cluster::Frame::from(b)).unwrap();
    }
}

#[test]
fn send_slice_delivers_and_counts_what_send_does_on_both_backends() {
    // Rank 0 sends every blob to rank 1 and to itself (the loop-back
    // path); what arrives and what the counters record must not depend on
    // whether the bytes went by slice or by frame.
    let run = |backend: &str, by_slice: bool| {
        // Both ranks then receive from rank 0: rank 1 over the link,
        // rank 0 through its loop-back.
        let body = |w: WorkerHandle| -> Vec<Vec<u8>> {
            let blobs = blobs();
            if w.rank() == 0 {
                for b in &blobs {
                    send_as(&w, 1, b, by_slice);
                    send_as(&w, 0, b, by_slice);
                }
            }
            blobs
                .iter()
                .map(|_| w.recv(0).unwrap().into_vec())
                .collect()
        };
        let (outs, traffic) = if backend == "sim" {
            let cluster = SimCluster::new(2);
            let traffic = cluster.traffic().to_vec();
            (cluster.run_workers(body), traffic)
        } else {
            let run = TcpCluster::run_with(2, TcpOptions::default(), body)
                .expect("tcp mesh forms on loopback");
            (run.outputs, run.traffic)
        };
        let counts: Vec<(u64, u64)> = traffic
            .iter()
            .map(|t| (t.bytes_sent(), t.messages_sent()))
            .collect();
        (outs, counts)
    };
    for backend in ["sim", "tcp"] {
        let by_frame = run(backend, false);
        let by_slice = run(backend, true);
        assert_eq!(by_slice, by_frame, "backend {backend}");
        assert_eq!(by_slice.0, vec![blobs(); 2], "backend {backend} payloads");
        let bytes: usize = blobs().iter().map(Vec::len).sum();
        assert_eq!(
            by_slice.1,
            vec![(2 * bytes as u64, 2 * blobs().len() as u64), (0, 0)],
            "backend {backend} counters"
        );
    }
}

#[test]
fn send_slice_under_drop_and_reorder_matches_send_on_both_backends() {
    // The fault fate is rolled per frame on the link, so a slice sequence
    // must see exactly the drops, swaps and delivery order of the same
    // frame sequence. The receiver drains until the sender's exit closes
    // the link (its exit releases any frame still held for a swap).
    for seed in seeds() {
        let plan = FaultPlan::new(seed).drop_prob(0.2).reorder_prob(0.3);
        let run = |by_slice: bool| {
            run_both(2, &plan, move |w| {
                if w.rank() == 0 {
                    for k in 0..48u8 {
                        let b = vec![k; 1 + usize::from(k) * 97];
                        send_as(&w, 1, &b, by_slice);
                    }
                    Vec::new()
                } else {
                    let mut got = Vec::new();
                    while let Ok(f) = w.recv_deadline(0, Duration::from_secs(5)) {
                        got.push(f.into_vec());
                    }
                    got
                }
            })
        };
        let by_frame = run(false);
        let by_slice = run(true);
        for ((backend, slice_outs, slice_events), (_, frame_outs, frame_events)) in
            by_slice.iter().zip(&by_frame)
        {
            assert_eq!(slice_events, frame_events, "backend {backend} seed {seed}");
            assert_eq!(slice_outs, frame_outs, "backend {backend} seed {seed}");
            let kinds =
                |k: fn(&FaultKind) -> bool| slice_events.iter().filter(|e| k(&e.kind)).count();
            assert!(
                kinds(|k| matches!(k, FaultKind::Drop)) > 0
                    && kinds(|k| matches!(k, FaultKind::Reorder)) > 0,
                "backend {backend} seed {seed}: plan must both drop and reorder: {slice_events:?}"
            );
            assert_eq!(
                slice_outs[1].len() + kinds(|k| matches!(k, FaultKind::Drop)),
                48,
                "backend {backend} seed {seed}: every frame not dropped arrives"
            );
        }
    }
}

#[test]
fn one_plan_logs_the_same_faults_on_both_backends() {
    // Both backends send through one injector, so the same plan over the
    // same lock-step program drops, delays and reorders the same frames,
    // and logs each delay as the same whole number of microseconds. Ranks
    // pass frames round a 3-ring and to themselves (the loop-back link);
    // a shared barrier keeps every rank up until all have sent, so no
    // link closes under a sender.
    let done = std::sync::Barrier::new(3);
    for seed in seeds() {
        let plan = FaultPlan::new(seed)
            .drop_prob(0.2)
            .reorder_prob(0.3)
            .delay_jitter(Duration::from_micros(1_500));
        let runs = run_both(3, &plan, |w| {
            for k in 0..32u8 {
                for peer in [w.ring_next(), w.rank()] {
                    w.send(peer, vec![k; 64]).unwrap();
                }
                // A lost or late frame just times out: only the sends and
                // the flush before each receive decide the log.
                for peer in [w.ring_prev(), w.rank()] {
                    let _ = w.recv_deadline(peer, Duration::from_millis(1));
                }
            }
            done.wait();
        });
        let (_, _, sim) = &runs[0];
        let (_, _, tcp) = &runs[1];
        for kind in [
            |k: &FaultKind| matches!(k, FaultKind::Drop),
            |k: &FaultKind| matches!(k, FaultKind::Reorder),
            |k: &FaultKind| matches!(k, FaultKind::Delay { .. }),
        ] {
            assert!(sim.iter().any(|e| kind(&e.kind)), "seed {seed}: {sim:?}");
        }
        assert_eq!(tcp, sim, "seed {seed}: the backends' fault logs differ");
    }
}
