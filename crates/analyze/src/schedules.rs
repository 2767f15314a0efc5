//! Schedule extractors: lift each collective in `gcs-cluster` into the
//! IR by replaying its index arithmetic (neighbor selection, chunk order,
//! send/recv interleaving) over the cluster's own [`chunk_table`],
//! without moving any bytes. What the wire shows of a schedule is checked
//! against the code op for op ([`crate::conformance`]); what it cannot
//! show — which element range a send snapshots, whether a recv
//! accumulates or overwrites — is the extractor's, and is what the
//! reduction-order proof reads.

use crate::ir::{DataRef, Expectation, Op, Range, RecvAction, Schedule};
use gcs_cluster::collectives::chunk_table;

fn send_elems(s: &mut Schedule, from: usize, to: usize, lo: usize, hi: usize) {
    s.push(
        from,
        Op::Send {
            dst: to,
            bytes: (hi - lo) * 4,
            data: DataRef::Elems(Range::new(lo, hi)),
        },
    );
}

fn recv_elems(s: &mut Schedule, at: usize, from: usize, lo: usize, hi: usize, accumulate: bool) {
    let r = Range::new(lo, hi);
    s.push(
        at,
        Op::Recv {
            src: from,
            bytes: (hi - lo) * 4,
            action: if accumulate {
                RecvAction::Accumulate(r)
            } else {
                RecvAction::Overwrite(r)
            },
        },
    );
}

/// Ring all-reduce over `members` (actual process ids, strictly
/// ascending), reducing the elements `table` splits into `m` chunks (chunk
/// `i` is `table[i]..table[i + 1]`) at `offset` into each member's buffer.
/// Models `WorkerHandle::ring_all_reduce`, the one ring body behind
/// `all_reduce_sum`, `all_reduce_mean`, `all_reduce_mean_from` and the
/// fused `all_reduce_mean_many`. The mean's divide by `m` is local
/// arithmetic on the reduce-scatter's final hop, and where the
/// out-of-place form reads its contribution and writes its result is
/// local too; neither adds a frame, so one schedule models all four.
fn push_ring_all_reduce_ops(s: &mut Schedule, members: &[usize], offset: usize, table: &[usize]) {
    let m = members.len();
    if m <= 1 {
        return;
    }
    let chunk = |i: usize| (table[i], table[i + 1]);
    for (pos, &rank) in members.iter().enumerate() {
        let next = members[(pos + 1) % m];
        let prev = members[(pos + m - 1) % m];
        // Phase 1, the reduce-scatter, accumulates; phase 2, the
        // all-gather of the reduced chunks, runs one position further on.
        for (shift, accumulate) in [(0, true), (1, false)] {
            for step in 0..m - 1 {
                let (ss, se) = chunk((pos + shift + m - step) % m);
                send_elems(s, rank, next, offset + ss, offset + se);
                let (rs, re) = chunk((pos + shift + 2 * m - step - 1) % m);
                recv_elems(s, rank, prev, offset + rs, offset + re, accumulate);
            }
        }
    }
}

/// Ring all-reduce of buffers of `lens` elements among `members` of a
/// `p`-rank world, over [`chunk_table`]`(lens, m)`: one buffer is
/// `all_reduce_sum`/`_mean`/`_mean_from`, several the fused
/// `all_reduce_mean_many`. Non-members get empty programs (dead ranks
/// are simply not on the ring); every element of every buffer must end
/// reduced over all members.
pub fn ring_all_reduce(p: usize, members: &[usize], lens: &[usize]) -> Schedule {
    let mut s = Schedule::new(
        format!("ring-all-reduce p={p} members={members:?} lens={lens:?}"),
        p,
        lens.iter().sum(),
    );
    push_ring_all_reduce_ops(&mut s, members, 0, &chunk_table(lens, members.len()));
    s.expect = Expectation::ReducedVector {
        ranks: members.to_vec(),
        contributors: members.to_vec(),
    };
    s
}

/// Per-origin blob size used by the gather/broadcast extractors: distinct
/// sizes per origin make the byte-pairing check sensitive to *which*
/// frame the index arithmetic routes where, not just how many.
pub fn blob_bytes(origin: usize) -> usize {
    16 + 8 * origin
}

/// Ring all-gather among `members` of a `p`-rank world — models
/// `WorkerHandle::all_gather_bytes` (members `0..p` is the healthy ring,
/// a subset a handle shrunk by `set_members`): each blob traverses the
/// ring by zero-copy forwarding, and the receiver attributes step-`s`
/// arrivals to origin position `(pos + 2m - s - 1) % m`.
pub fn ring_all_gather(p: usize, members: &[usize]) -> Schedule {
    let mut s = Schedule::new(format!("ring-all-gather p={p} members={members:?}"), p, 0);
    s.expect = Expectation::GatheredBlobs {
        ranks: members.to_vec(),
        origins: members.to_vec(),
    };
    let m = members.len();
    if m <= 1 {
        return s;
    }
    for (pos, &rank) in members.iter().enumerate() {
        let next = members[(pos + 1) % m];
        let prev = members[(pos + m - 1) % m];
        for step in 0..m - 1 {
            // Step 0 sends our own blob; later steps forward the frame
            // just received. Either way the sender can compute the
            // origin, so the byte count (origin-dependent) is exact.
            let sent_origin = members[(pos + 2 * m - step) % m]; // pos at step 0
            let data = if step == 0 {
                DataRef::Blob { origin: rank }
            } else {
                DataRef::LastRecv { src: prev }
            };
            s.push(
                rank,
                Op::Send {
                    dst: next,
                    bytes: blob_bytes(sent_origin),
                    data,
                },
            );
            let origin = members[(pos + 2 * m - step - 1) % m];
            s.push(
                rank,
                Op::Recv {
                    src: prev,
                    bytes: blob_bytes(origin),
                    action: RecvAction::StoreBlob { origin },
                },
            );
        }
    }
    s
}

/// Binomial-tree broadcast from `root` — models
/// `WorkerHandle::broadcast`: virtual ranks rotate `root` to 0, and in
/// the round with mask `2^k` every holder `vrank < mask` feeds
/// `vrank + mask`.
pub fn broadcast(p: usize, root: usize) -> Schedule {
    assert!(root < p, "extractor models the validated path");
    let mut s = Schedule::new(format!("broadcast p={p} root={root}"), p, 0);
    s.expect = Expectation::BroadcastBlob {
        root,
        ranks: (0..p).collect(),
    };
    let bytes = blob_bytes(root);
    for rank in 0..p {
        let vrank = (rank + p - root) % p;
        let mut have = vrank == 0;
        let mut mask = 1usize;
        while mask < p {
            if vrank < mask {
                let dst_v = vrank + mask;
                if dst_v < p {
                    let dst = (dst_v + root) % p;
                    s.push(
                        rank,
                        Op::Send {
                            dst,
                            bytes,
                            data: DataRef::Blob { origin: root },
                        },
                    );
                }
            } else if vrank < 2 * mask && !have {
                let src_v = vrank - mask;
                let src = (src_v + root) % p;
                s.push(
                    rank,
                    Op::Recv {
                        src,
                        bytes,
                        action: RecvAction::StoreBlob { origin: root },
                    },
                );
                have = true;
            }
            mask <<= 1;
        }
    }
    s
}

/// The CommEngine / comm-lane handshake: `p` producer processes
/// (ids `0..p`) each drive a comm thread (ids `p..2p`) over a bounded
/// job channel of capacity `depth` (`mpsc::sync_channel(queue_depth)` in
/// `CommEngine::spawn`), with at most `depth` jobs in flight before the
/// producer blocks on a completion reply — the comm lane's
/// admission rule. Each job runs a full ring all-reduce among the comm
/// threads over its own `n`-element segment.
///
/// This is the schedule where bounded capacities matter: model the job
/// channel as unbounded and a submit-overrun deadlock becomes invisible.
pub fn comm_engine_pipeline(p: usize, depth: usize, jobs: usize, n: usize) -> Schedule {
    assert!(
        depth > 0,
        "sync_channel(0) rendezvous is not used by CommEngine"
    );
    let nprocs = 2 * p;
    let mut s = Schedule::new(
        format!("comm-engine p={p} depth={depth} jobs={jobs} n={n}"),
        nprocs,
        jobs * n,
    );
    let comm_ids: Vec<usize> = (p..2 * p).collect();
    s.expect = Expectation::ReducedVector {
        ranks: comm_ids.clone(),
        contributors: comm_ids.clone(),
    };
    // Tiny control frames; sizes are arbitrary but fixed.
    let job_bytes = 8;
    let reply_bytes = 8;
    for r in 0..p {
        let comm = p + r;
        s.channel_caps.insert((r, comm), depth);
        // Producer: submit with the comm lane's window rule.
        let mut inflight = 0usize;
        for _ in 0..jobs {
            if inflight == depth {
                s.push(
                    r,
                    Op::Recv {
                        src: comm,
                        bytes: reply_bytes,
                        action: RecvAction::Discard,
                    },
                );
                inflight -= 1;
            }
            s.push(
                r,
                Op::Send {
                    dst: comm,
                    bytes: job_bytes,
                    data: DataRef::Opaque,
                },
            );
            inflight += 1;
        }
        for _ in 0..inflight {
            s.push(
                r,
                Op::Recv {
                    src: comm,
                    bytes: reply_bytes,
                    action: RecvAction::Discard,
                },
            );
        }
    }
    // Comm threads: pop a job, run its collective, post the reply. The
    // collective ops for job k are interleaved per comm thread by
    // generating them job-segment at a time.
    for k in 0..jobs {
        for r in 0..p {
            let comm = p + r;
            s.push(
                comm,
                Op::Recv {
                    src: r,
                    bytes: job_bytes,
                    action: RecvAction::Discard,
                },
            );
        }
        push_ring_all_reduce_ops(&mut s, &comm_ids, k * n, &chunk_table(&[n], p));
        for r in 0..p {
            let comm = p + r;
            s.push(
                comm,
                Op::Send {
                    dst: r,
                    bytes: reply_bytes,
                    data: DataRef::Opaque,
                },
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_deadlock_exhaustive, verify_schedule};

    #[test]
    fn comm_engine_handshake_verifies_and_needs_the_bound() {
        for depth in [1usize, 2, 3] {
            for jobs in [1usize, 4] {
                let s = comm_engine_pipeline(4, depth, jobs, 5);
                let r = verify_schedule(&s);
                assert!(r.ok(), "depth={depth} jobs={jobs}: {:?}", r.violations);
            }
        }
        // Cross-validate the canonical-order argument on a small config.
        check_deadlock_exhaustive(&comm_engine_pipeline(2, 1, 2, 1)).expect("no deadlock");
        // A producer that ignores the admission window deadlocks against
        // the bounded job channel: submit all jobs up front with no reply
        // recvs interleaved, while the comm thread blocks on a bounded
        // reply channel after the second job — producer waits on the full
        // job queue, comm thread waits on the full reply queue.
        let mut bad = comm_engine_pipeline(2, 1, 4, 1);
        // Rebuild producer 0's program as blind sends followed by recvs.
        let prog = &mut bad.processes[0].ops;
        prog.sort_by_key(|op| matches!(op, Op::Recv { .. }));
        // Also bound the reply channel so the comm thread can block.
        bad.channel_caps.insert((2, 0), 1);
        let r = verify_schedule(&bad);
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, crate::verify::Violation::Deadlock { .. })),
            "expected overrun deadlock: {:?}",
            r.violations
        );
    }
}
