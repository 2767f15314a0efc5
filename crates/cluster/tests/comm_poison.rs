//! Poison-slot ordering under concurrent submitters: once the comm
//! thread hits its first collective error, every later job — no matter
//! which thread submits it, and no matter whether it was rejected at
//! `start_*` or answered through its pending handle — must observe the
//! poisoned error. Nothing may hang and nothing may silently succeed,
//! because a success after a failure would desynchronize cross-rank job
//! pairing (the hazard the Pass 1 `comm-engine` schedule checks in
//! miniature).
//!
//! Honors `GCS_FAULT_SEED` so CI can sweep the deterministic fault
//! plane under multiple fixed seeds.

use gcs_cluster::comm::CommEngine;
use gcs_cluster::faults::{FaultPlan, RecvPolicy};
use gcs_cluster::SimCluster;
use std::time::Duration;

/// Seed for the fault plan; overridable so CI can sweep seeds.
fn seed_from_env() -> u64 {
    std::env::var("GCS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

#[test]
fn concurrent_submitters_all_observe_poison_after_first_error() {
    // Rank 1 never participates, so rank 0's first reduce times out and
    // poisons the engine.
    let plan = FaultPlan::new(seed_from_env()).recv_policy(RecvPolicy::with_timeout(
        Duration::from_millis(20),
        1,
        Duration::from_millis(10),
    ));
    let cluster = SimCluster::new_with_faults(2, None, Some(plan));
    let outs = cluster.run_workers(|w| {
        if w.rank() == 0 {
            let eng = CommEngine::spawn(w, 4).unwrap();
            let first = eng.start_all_reduce_mean(vec![1.0; 8]).unwrap().wait();
            assert!(first.is_err(), "doomed reduce must surface its timeout");
            assert!(eng.last_error().is_some(), "first error must poison");

            // Four submitter threads race jobs into the poisoned engine.
            // Every one must come back with an error — fast-failed at
            // start or answered with the stored poison — never a hang,
            // never an Ok.
            let observed = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|i| {
                        let eng = &eng;
                        s.spawn(move || {
                            let res = if i % 2 == 0 {
                                eng.start_all_reduce_mean(vec![2.0; 4])
                                    .and_then(|p| p.wait().map(|_| ()))
                            } else {
                                eng.start_all_gather(vec![i as u8; 3])
                                    .and_then(|p| p.wait().map(|_| ()))
                            };
                            res.is_err()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<bool>>()
            });
            let still_poisoned = eng.last_error().is_some();
            let _ = eng.shutdown();
            (observed, still_poisoned)
        } else {
            // Deliberately absent from every collective; stay alive long
            // enough for rank 0 to time out rather than see Disconnected.
            std::thread::sleep(Duration::from_millis(250));
            (vec![true; 4], true)
        }
    });
    assert_eq!(outs, vec![(vec![true; 4], true); 2]);
}
