//! Bit-exactness and traffic-accounting properties of the zero-copy data
//! plane.
//!
//! The Frame refactor and the allocation-free ring must be *semantically
//! invisible*: every f32 the collective produces must be bit-identical to a
//! scalar reference that replays the ring's summation order, and the wire
//! traffic the counters record must equal the seed's accounting exactly.

use gcs_cluster::{SimCluster, TcpCluster, TcpOptions, WorkerHandle};

/// The equal split the ring's chunks should follow, written out here as
/// this test's own reference rather than taken from the crate.
fn chunk_range(len: usize, p: usize, i: usize) -> (usize, usize) {
    let base = len / p;
    let rem = len % p;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    (start, start + size)
}

/// Deterministic per-(rank, element) value with mixed exponents, so f32
/// addition order actually matters.
fn val(rank: usize, e: usize) -> f32 {
    let h = (rank as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((e as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let mantissa = ((h >> 40) as f32) / 1000.0 - 8.0;
    let exp = ((h >> 33) % 7) as i32 - 3;
    mantissa * (2.0f32).powi(exp)
}

/// Scalar replay of the ring reduce-scatter order: chunk `c` starts at rank
/// `c` and accumulates as `x_{c+t} + acc` while travelling the ring, so the
/// fold order per element is fixed by its chunk, not its rank.
fn ring_reference(len: usize, p: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; len];
    for c in 0..p {
        let (s, e) = chunk_range(len, p, c);
        for (i, slot) in (s..e).zip(&mut out[s..e]) {
            let mut acc = val(c, i);
            // `val + acc`, not `acc += val`: the ring adds the local value
            // to the incoming partial sum, and which NaN payload survives
            // depends on that operand order.
            #[allow(clippy::assign_op_pattern)]
            for t in 1..p {
                acc = val((c + t) % p, i) + acc;
            }
            *slot = acc;
        }
    }
    out
}

#[test]
fn all_reduce_bit_identical_to_scalar_ring_order() {
    for p in 1..=9usize {
        // Uneven sizes on purpose: shorter than the world (empty chunks),
        // non-multiples of p, and a couple of larger odd lengths.
        let lens = [
            1,
            2,
            3,
            5,
            7,
            13,
            31,
            p.saturating_sub(1).max(1),
            p + 1,
            2 * p + 3,
        ];
        for len in lens {
            let expect = ring_reference(len, p);
            let outs = SimCluster::run(p, move |w| {
                let mut buf: Vec<f32> = (0..len).map(|i| val(w.rank(), i)).collect();
                w.all_reduce_sum(&mut buf).unwrap();
                buf
            });
            for (rank, out) in outs.iter().enumerate() {
                for (i, (&got, &want)) in out.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "p={p} len={len} rank={rank} elem={i}: got {got}, want {want}"
                    );
                }
            }
        }
    }
}

#[test]
fn all_gather_traffic_unchanged_by_frame_refactor() {
    // The ring all-gather forwards each foreign blob once per hop; even
    // though forwarding is now a refcount bump, the counters must still
    // record (p-1) sends of b bytes per worker, exactly as the seed's
    // clone-based version did.
    for p in [2usize, 5, 8] {
        let b = 537usize;
        let cluster = SimCluster::new(p);
        let traffic = cluster.traffic().to_vec();
        cluster.run_workers(|h| {
            h.all_gather_bytes(&vec![0xA5u8; b]).unwrap();
        });
        for (rank, t) in traffic.iter().enumerate() {
            assert_eq!(
                t.bytes_sent(),
                ((p - 1) * b) as u64,
                "p={p} rank={rank} bytes"
            );
            assert_eq!(t.messages_sent(), (p - 1) as u64, "p={p} rank={rank} msgs");
        }
    }
}

#[test]
fn all_reduce_frame_count_unchanged_by_seed_reuse() {
    // The all-gather seed reuses the reduce-scatter's final frame; the
    // schedule must still be 2(p-1) frames per rank, one per hop — p = 2
    // included, where the final hop is the only reduce-scatter hop.
    for p in [2usize, 3, 6] {
        for len in [1usize, 10, 257] {
            let cluster = SimCluster::new(p);
            let traffic = cluster.traffic().to_vec();
            cluster.run_workers(|h| {
                let mut buf = vec![1.0f32; len];
                h.all_reduce_sum(&mut buf).unwrap();
            });
            for (rank, t) in traffic.iter().enumerate() {
                assert_eq!(
                    t.messages_sent(),
                    2 * (p - 1) as u64,
                    "p={p} len={len} rank={rank} frames"
                );
            }
        }
    }
}

#[test]
fn all_reduce_traffic_unchanged_by_buffer_reuse() {
    // Wire bytes per rank are fully determined by the chunk schedule; the
    // reclaimed-buffer fast path must not change them.
    for p in [3usize, 6] {
        for len in [10usize, 257] {
            let cluster = SimCluster::new(p);
            let traffic = cluster.traffic().to_vec();
            cluster.run_workers(|h| {
                let mut buf = vec![1.0f32; len];
                h.all_reduce_sum(&mut buf).unwrap();
            });
            for (rank, t) in traffic.iter().enumerate() {
                let mut expect = 0u64;
                for s in 0..p - 1 {
                    let rs_idx = (rank + p - s) % p;
                    let ag_idx = (rank + 1 + p - s) % p;
                    for idx in [rs_idx, ag_idx] {
                        let (cs, ce) = chunk_range(len, p, idx);
                        expect += ((ce - cs) * 4) as u64;
                    }
                }
                assert_eq!(
                    t.bytes_sent(),
                    expect,
                    "p={p} len={len} rank={rank} ring bytes"
                );
            }
        }
    }
}

/// [`val`] with specials mixed in: NaN payloads (quiet and signalling, both
/// signs), ±0, denormals and ±inf, at hashed positions so that on some
/// elements several ranks contribute a NaN.
fn special(rank: usize, e: usize) -> f32 {
    const SPECIALS: [u32; 10] = [
        0x7FC0_0000, // quiet NaN
        0xFFC0_1234, // negative quiet NaN with a payload
        0x7FA0_0001, // signalling NaN
        0xFF80_0F00, // negative signalling NaN
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x0000_0001, // smallest denormal
        0x8040_0000, // negative denormal
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
    ];
    let h = (rank as u64 + 1)
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add((e as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    let h = (h >> 29) as usize;
    if h.is_multiple_of(3) {
        f32::from_bits(SPECIALS[(h / 3) % SPECIALS.len()])
    } else {
        val(rank, e)
    }
}

/// An input family: the value rank `r` contributes at element `e`.
type Input = fn(usize, usize) -> f32;

/// Per-member results plus per-rank `(bytes, messages)` sent.
type RingRun = (Vec<Option<Vec<f32>>>, Vec<(u64, u64)>);

/// Which ring collective a run calls.
#[derive(Clone, Copy, PartialEq)]
enum Form {
    /// `all_reduce_sum` in place.
    Sum,
    /// `all_reduce_mean` in place.
    Mean,
    /// `all_reduce_mean_from`, out of place.
    MeanFrom,
}

/// This rank's `form` collective over a buffer filled by `input`. The
/// out-of-place form must leave its source as it was.
fn reduce(w: &WorkerHandle, len: usize, input: Input, form: Form) -> Vec<f32> {
    let mut buf: Vec<f32> = (0..len).map(|i| input(w.rank(), i)).collect();
    match form {
        Form::Sum => w.all_reduce_sum(&mut buf).unwrap(),
        Form::Mean => w.all_reduce_mean(&mut buf).unwrap(),
        Form::MeanFrom => {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let before = bits(&buf);
            let mean = w.all_reduce_mean_from(&buf).unwrap();
            assert_eq!(bits(&buf), before, "all_reduce_mean_from wrote its source");
            return mean;
        }
    }
    buf
}

/// The `form` collective over the ranks of `members`, their handles
/// shrunk with `set_members`, of buffers filled by `input`.
fn run_ring(world: usize, members: &[usize], len: usize, input: Input, form: Form) -> RingRun {
    let cluster = SimCluster::new(world);
    let traffic = cluster.traffic().to_vec();
    let outs = cluster.run_workers(|mut w| {
        if !members.contains(&w.rank()) {
            return None;
        }
        w.set_members(members).unwrap();
        Some(reduce(&w, len, input, form))
    });
    (outs, sent(&traffic))
}

/// Per-rank `(bytes, messages)` sent.
fn sent(traffic: &[std::sync::Arc<gcs_cluster::TrafficCounter>]) -> Vec<(u64, u64)> {
    traffic
        .iter()
        .map(|t| (t.bytes_sent(), t.messages_sent()))
        .collect()
}

/// Per-member result bits, for comparisons that must see NaN payloads.
fn bits(outs: &[Option<Vec<f32>>]) -> Vec<Option<Vec<u32>>> {
    outs.iter()
        .map(|o| o.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

#[test]
fn all_reduce_mean_is_the_sum_divided_bit_for_bit() {
    let inputs: [(&str, Input); 2] = [("finite", val), ("specials", special)];
    for p in 1..=9usize {
        // The full ring, every other rank, and one rank alone.
        let full: Vec<usize> = (0..p).collect();
        let alternate: Vec<usize> = (0..p).step_by(2).collect();
        let single = vec![p / 2];
        for members in [full, alternate, single] {
            let m = members.len();
            // Empty, one element, fewer than the members, ragged, and long
            // enough that each chunk spans several of the mean's blocks.
            let lens = [0, 1, p.saturating_sub(1), 2 * p + 3, 97, 5000];
            for len in lens {
                for (family, input) in inputs {
                    let ctx = format!("p={p} members={members:?} len={len} {family}");
                    let (sums, sum_sent) = run_ring(p, &members, len, input, Form::Sum);
                    let (means, mean_sent) = run_ring(p, &members, len, input, Form::Mean);
                    // Same frames and bytes as the sum: 2(m-1) per member,
                    // none for ranks off the ring.
                    assert_eq!(mean_sent, sum_sent, "{ctx} traffic");
                    for (rank, &(_, msgs)) in mean_sent.iter().enumerate() {
                        let want = if members.contains(&rank) {
                            2 * (m - 1)
                        } else {
                            0
                        };
                        assert_eq!(msgs, want as u64, "{ctx} rank={rank} frames");
                    }
                    for (rank, (sum, mean)) in sums.iter().zip(&means).enumerate() {
                        let (Some(sum), Some(mean)) = (sum, mean) else {
                            assert!(sum.is_none() && mean.is_none(), "{ctx} rank={rank}");
                            continue;
                        };
                        for (i, (&s, &got)) in sum.iter().zip(mean).enumerate() {
                            let want = s / m as f32;
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{ctx} rank={rank} elem={i}: got {got}, want {want}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn all_reduce_mean_from_is_copy_then_mean_bit_for_bit() {
    let inputs: [(&str, Input); 2] = [("finite", val), ("specials", special)];
    for p in 1..=5usize {
        // The full ring and every other rank (one rank alone at p <= 2).
        let full: Vec<usize> = (0..p).collect();
        let alternate: Vec<usize> = (0..p).step_by(2).collect();
        for members in [full, alternate] {
            for len in [0, 1, p - 1, p, 4097] {
                for (family, input) in inputs {
                    let ctx = format!("p={p} members={members:?} len={len} {family}");
                    let (copies, copy_sent) = run_ring(p, &members, len, input, Form::Mean);
                    let (froms, from_sent) = run_ring(p, &members, len, input, Form::MeanFrom);
                    assert_eq!(from_sent, copy_sent, "{ctx} traffic");
                    assert_eq!(bits(&froms), bits(&copies), "{ctx} bits");
                }
            }
        }
    }
}

#[test]
fn all_reduce_mean_from_is_copy_then_mean_over_tcp() {
    for len in [0usize, 1, 2, 4097] {
        for (family, input) in [("finite", val as Input), ("specials", special)] {
            let run = |form| {
                let run = TcpCluster::run_with(2, TcpOptions::default(), |w| {
                    Some(reduce(&w, len, input, form))
                })
                .expect("tcp mesh forms on loopback");
                (bits(&run.outputs), sent(&run.traffic))
            };
            assert_eq!(
                run(Form::MeanFrom),
                run(Form::Mean),
                "len={len} {family}: bits or traffic differ"
            );
        }
    }
}

/// Buffer lists for the fused ring: none, one, empty buffers, buffers
/// shorter than the ring, ragged ones and one spanning several blocks.
fn buffer_lists(p: usize) -> Vec<Vec<usize>> {
    vec![
        vec![],
        vec![5],
        vec![0, 3, 0],
        vec![1, p.saturating_sub(1), 2 * p + 3, 97],
        vec![4097, 2, 0, 13, 1],
    ]
}

/// Rank `rank`'s buffers of `lens`, filled by `input`; buffer `b` starts
/// at element `1000 * b` of the family so no two buffers repeat.
fn buffers(rank: usize, lens: &[usize], input: Input) -> Vec<Vec<f32>> {
    lens.iter()
        .enumerate()
        .map(|(b, &len)| (0..len).map(|i| input(rank, 1000 * b + i)).collect())
        .collect()
}

/// One `all_reduce_mean_many` over all buffers (`fused`), or one
/// `all_reduce_mean` per buffer.
fn mean_many(w: &WorkerHandle, lens: &[usize], input: Input, fused: bool) -> Vec<Vec<u32>> {
    let mut bufs = buffers(w.rank(), lens, input);
    if fused {
        w.all_reduce_mean_many(&mut bufs).unwrap();
    } else {
        for buf in &mut bufs {
            w.all_reduce_mean(buf).unwrap();
        }
    }
    bufs.iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Per-member result bits and per-rank `(bytes, messages)` sent.
type ManyRun = (Vec<Option<Vec<Vec<u32>>>>, Vec<(u64, u64)>);

fn run_many(world: usize, members: &[usize], lens: &[usize], input: Input, fused: bool) -> ManyRun {
    let cluster = SimCluster::new(world);
    let traffic = cluster.traffic().to_vec();
    let outs = cluster.run_workers(|mut w| {
        if !members.contains(&w.rank()) {
            return None;
        }
        w.set_members(members).unwrap();
        Some(mean_many(&w, lens, input, fused))
    });
    (outs, sent(&traffic))
}

#[test]
fn all_reduce_mean_many_is_each_buffers_own_ring_bit_for_bit() {
    let inputs: [(&str, Input); 2] = [("finite", val), ("specials", special)];
    // Full rings of 1, 2, 3 and 5 members, and a ring shrunk to 3 of 5.
    let rings: [(usize, Vec<usize>); 5] = [
        (1, vec![0]),
        (2, vec![0, 1]),
        (3, vec![0, 1, 2]),
        (5, vec![0, 1, 2, 3, 4]),
        (5, vec![0, 2, 3]),
    ];
    for (world, members) in rings {
        let m = members.len();
        for lens in buffer_lists(m) {
            for (family, input) in inputs {
                let ctx = format!("p={world} members={members:?} lens={lens:?} {family}");
                let (fused, fused_sent) = run_many(world, &members, &lens, input, true);
                let (apart, apart_sent) = run_many(world, &members, &lens, input, false);
                assert_eq!(fused, apart, "{ctx} bits");
                for rank in 0..world {
                    let on_ring = members.contains(&rank) && !lens.is_empty();
                    let frames = if on_ring { 2 * (m - 1) as u64 } else { 0 };
                    assert_eq!(fused_sent[rank].1, frames, "{ctx} rank={rank} frames");
                    assert_eq!(
                        fused_sent[rank].0, apart_sent[rank].0,
                        "{ctx} rank={rank} bytes"
                    );
                }
            }
        }
    }
}

#[test]
fn all_reduce_mean_many_is_each_buffers_own_ring_over_tcp() {
    for lens in buffer_lists(2) {
        for (family, input) in [("finite", val as Input), ("specials", special)] {
            let run = |fused| {
                let run = TcpCluster::run_with(2, TcpOptions::default(), |w| {
                    Some(mean_many(&w, &lens, input, fused))
                })
                .expect("tcp mesh forms on loopback");
                (bits_many(run.outputs), sent(&run.traffic))
            };
            let (fused, fused_sent) = run(true);
            let (apart, apart_sent) = run(false);
            assert_eq!(fused, apart, "lens={lens:?} {family}: bits differ");
            for (rank, (f, a)) in fused_sent.iter().zip(&apart_sent).enumerate() {
                let frames = if lens.is_empty() { 0 } else { 2 };
                assert_eq!(*f, (a.0, frames), "lens={lens:?} {family} rank={rank}");
            }
        }
    }
}

/// Unwraps every rank's result of a full-ring run.
fn bits_many(outs: Vec<Option<Vec<Vec<u32>>>>) -> Vec<Vec<Vec<u32>>> {
    outs.into_iter().flatten().collect()
}
