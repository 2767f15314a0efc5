//! Datapath micro-benchmark: times the allocation-free data plane against
//! the seed's naive implementations and writes `BENCH_datapath.json` at the
//! repo root.
//!
//! Eight kernels are tracked:
//!
//! 1. Ring all-reduce on a 25 MiB gradient for p ∈ {4, 8, 16}, against a
//!    faithful reconstruction of the seed's clone-based ring (fresh wire
//!    buffer plus per-element f32↔byte conversion every step).
//! 2. All-reduce algorithms head-to-head on the same buffer: ring vs.
//!    Rabenseifner recursive halving-doubling (power-of-two worlds) vs.
//!    hierarchical two-level reduce.
//! 3. Register-blocked GEMM against the seed's scalar i-k-j loop, on a
//!    PowerSGD-shaped skinny product and a square product; and `a_mul_bt`
//!    at the MLP forward's shapes against the scalar dot loop it replaced.
//! 4. PowerSGD rank-4 round trip over ResNet-50-style layer shapes, and
//!    the three products of one round trip on a 1024 x 1024 layer at
//!    ranks 4, 8 and 16: the skinny paths against the general kernels
//!    they took over from.
//! 5. Top-k 1% selection and sign pack/unpack on the same 25 MiB buffer.
//! 6. The ring mean's final reduce-scatter hop (add the incoming chunk,
//!    divide by the member count): one divide pass after the add against
//!    the L1-blocked add-and-divide `all_reduce_mean` runs.
//! 7. The training step's model-sized outputs (the big model's `gW1` and
//!    PowerSGD's rank-4 `Ĝ`) written once against zero-filled first, and
//!    `minibatch_grad` of the benchmark's two models.
//! 8. Per-kernel SIMD vs. scalar rows: every primitive in the
//!    [`gcs_tensor::kernels`] dispatch table timed against both tables on
//!    the same buffers, plus the GEMM tile through both dispatch paths.
//!    The report's `metadata` object records the CPU model, detected
//!    feature string, and whether `GCS_FORCE_SCALAR` was set.
//!
//! Run with `cargo run -p gcs-bench --bin datapath --release`. Set
//! `GCS_BENCH_SMOKE=1` for a seconds-long CI smoke run (tiny sizes, one
//! iteration — timings meaningless, only the plumbing is exercised; the
//! tracked JSON is not rewritten).

use gcs_bench::timing::{bench, black_box, Timing};
use gcs_cluster::{Frame, SimCluster, WorkerHandle};
use gcs_compress::driver::round_trip;
use gcs_compress::powersgd::PowerSgd;
use gcs_tensor::bits::SignBits;
use gcs_tensor::kernels;
use gcs_tensor::matrix::{
    a_mul_bt, at_mul_b, at_mul_b_into, at_mul_b_with_tile, matmul, matmul_with_dispatch,
    matmul_with_tile, reconstruct_residual_into, reconstruct_residual_pooled, MatrixRef,
};
use gcs_tensor::select::top_k_abs_with;
use gcs_tensor::Tensor;
use gcs_train::task::{MlpClassification, Task};
use serde_json::{json, Value};

/// Benchmark sizes; `full` is the tracked configuration, smoke mode
/// shrinks everything to exercise the plumbing in seconds.
#[derive(Clone, Copy)]
struct Params {
    /// Gradient elements for the collective benches (full: 25 MiB of f32,
    /// the paper's ResNet-50 bucket scale).
    ring_elems: usize,
    ring_iters: usize,
    gemm_iters: usize,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Params {
                ring_elems: 64 * 1024,
                ring_iters: 1,
                gemm_iters: 1,
            }
        } else {
            Params {
                ring_elems: 25 * 1024 * 1024 / 4,
                ring_iters: 7,
                gemm_iters: 10,
            }
        }
    }
}

const RING_WORLDS: [usize; 3] = [4, 8, 16];
/// GPUs per node of the paper's p3.8xlarge testbed, used to group ranks
/// in the hierarchical all-reduce.
const GPUS_PER_NODE: usize = 4;

/// Best-of-N speedup: on a single shared core the mean is dominated by
/// scheduler noise, so ratios use the minimum observed time per variant.
fn speedup(seed: &Timing, fast: &Timing) -> f64 {
    seed.min_s / fast.min_s
}

// ---------------------------------------------------------------------------
// Seed references, reconstructed verbatim from the pre-refactor data plane.
// ---------------------------------------------------------------------------

/// The seed's chunk partition (identical to the current one).
fn chunk_range(len: usize, p: usize, i: usize) -> (usize, usize) {
    let base = len / p;
    let rem = len % p;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    (start, start + size)
}

/// Seed serialization: a fresh `Vec` grown 4 bytes per element.
fn seed_f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 4);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Seed deserialization: collect into a fresh `Vec<f32>`, then copy again.
fn seed_bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// The seed's ring all-reduce: same schedule as the current
/// [`WorkerHandle::all_reduce_sum`], but every step allocates a fresh wire
/// buffer and an intermediate `Vec<f32>` before touching `buf`.
fn seed_all_reduce_sum(w: &WorkerHandle, buf: &mut [f32]) {
    let p = w.world();
    if p == 1 {
        return;
    }
    let rank = w.rank();
    let len = buf.len();
    let next = w.ring_next();
    let prev = w.ring_prev();
    for s in 0..p - 1 {
        let send_idx = (rank + p - s) % p;
        let recv_idx = (rank + 2 * p - s - 1) % p;
        let (ss, se) = chunk_range(len, p, send_idx);
        w.send(next, Frame::from_vec(seed_f32s_to_bytes(&buf[ss..se])))
            .expect("ring send");
        let incoming = seed_bytes_to_f32s(&w.recv(prev).expect("ring recv"));
        let (rs, re) = chunk_range(len, p, recv_idx);
        for (x, y) in buf[rs..re].iter_mut().zip(&incoming) {
            *x += y;
        }
    }
    for s in 0..p - 1 {
        let send_idx = (rank + 1 + p - s) % p;
        let recv_idx = (rank + p - s) % p;
        let (ss, se) = chunk_range(len, p, send_idx);
        w.send(next, Frame::from_vec(seed_f32s_to_bytes(&buf[ss..se])))
            .expect("ring send");
        let incoming = seed_bytes_to_f32s(&w.recv(prev).expect("ring recv"));
        let (rs, re) = chunk_range(len, p, recv_idx);
        buf[rs..re].copy_from_slice(&incoming);
    }
}

/// The seed's GEMM: scalar i-k-j streaming loop with a zero skip.
fn seed_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    for i in 0..m {
        for l in 0..k {
            let aik = a[i * k + l];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// `a_mul_bt` before it ran one output row per vector lane: per row of A,
/// four B rows at a time through four scalar accumulators, and the last
/// `n % 4` columns as an iterator sum.
fn scalar_a_mul_bt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (l, &av) in arow.iter().enumerate() {
                s0 += av * b0[l];
                s1 += av * b1[l];
                s2 += av * b2[l];
                s3 += av * b3[l];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        for j in j..n {
            orow[j] = arow
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .map(|(x, y)| x * y)
                .sum();
        }
    }
}

// ---------------------------------------------------------------------------
// Benchmarks.
// ---------------------------------------------------------------------------

/// Times one ring variant at world size `p`: each worker loops the
/// collective over a persistent 25 MiB buffer; rank 0's timing is reported
/// (the ring synchronizes every rank to the same cadence).
fn time_ring(pr: Params, p: usize, use_seed: bool) -> Timing {
    let mut outs = SimCluster::run(p, move |w| {
        let mut buf: Vec<f32> = (0..pr.ring_elems)
            .map(|i| (i % 97) as f32 * 1e-3 + w.rank() as f32)
            .collect();
        bench(1, pr.ring_iters, || {
            if use_seed {
                seed_all_reduce_sum(&w, &mut buf);
            } else {
                w.all_reduce_sum(&mut buf).expect("all_reduce_sum");
            }
            black_box(&buf);
        })
    });
    outs.swap_remove(0)
}

fn ring_section(pr: Params) -> Vec<Value> {
    let mut rows = Vec::new();
    for &p in &RING_WORLDS {
        let fast = time_ring(pr, p, false);
        let seed = time_ring(pr, p, true);
        let sp = speedup(&seed, &fast);
        println!(
            "ring all-reduce p={p:<2}  fast {}  seed {}  speedup {sp:.2}x",
            fast.ms(),
            seed.ms()
        );
        rows.push(json!({
            "kernel": "ring_all_reduce",
            "p": p,
            "mbytes": (pr.ring_elems * 4) as f64 / (1024.0 * 1024.0),
            "fast_ms": fast.min_s * 1e3,
            "seed_ms": seed.min_s * 1e3,
            "speedup": sp,
        }));
    }
    rows
}

/// All-reduce algorithm to benchmark head-to-head.
#[derive(Clone, Copy)]
enum Algo {
    Ring,
    Rabenseifner,
    Hierarchical,
}

fn time_algo(pr: Params, p: usize, algo: Algo) -> Timing {
    let mut outs = SimCluster::run(p, move |w| {
        let mut buf: Vec<f32> = (0..pr.ring_elems)
            .map(|i| (i % 97) as f32 * 1e-3 + w.rank() as f32)
            .collect();
        bench(1, pr.ring_iters, || {
            match algo {
                Algo::Ring => w.all_reduce_sum(&mut buf).expect("ring"),
                Algo::Rabenseifner => w
                    .rabenseifner_all_reduce_sum(&mut buf)
                    .expect("rabenseifner"),
                Algo::Hierarchical => w
                    .hierarchical_all_reduce_sum(&mut buf, GPUS_PER_NODE)
                    .expect("hierarchical"),
            }
            black_box(&buf);
        })
    });
    outs.swap_remove(0)
}

/// Ring vs. Rabenseifner vs. hierarchical on the same buffer. All three
/// produce identical sums (modulo addition order); what differs is the
/// number of passes over the buffer and the message schedule, which is
/// what shows up on an in-process transport where bandwidth is memcpy.
fn all_reduce_algorithms_section(pr: Params) -> Vec<Value> {
    let mut rows = Vec::new();
    for &p in &RING_WORLDS {
        let ring = time_algo(pr, p, Algo::Ring);
        // Rabenseifner's recursive halving-doubling needs a power-of-two
        // world; RING_WORLDS all qualify, but guard anyway so editing the
        // sweep can't panic the bench.
        let raben = p
            .is_power_of_two()
            .then(|| time_algo(pr, p, Algo::Rabenseifner));
        let hier = time_algo(pr, p, Algo::Hierarchical);
        let raben_ms = raben.map(|t| t.min_s * 1e3);
        println!(
            "all-reduce algos p={p:<2}  ring {}  rabenseifner {}  hierarchical {}",
            ring.ms(),
            raben.map_or_else(|| "n/a".into(), |t| t.ms()),
            hier.ms()
        );
        rows.push(json!({
            "kernel": "all_reduce_algorithms",
            "p": p,
            "gpus_per_node": GPUS_PER_NODE,
            "mbytes": (pr.ring_elems * 4) as f64 / (1024.0 * 1024.0),
            "ring_ms": ring.min_s * 1e3,
            "rabenseifner_ms": raben_ms,
            "hierarchical_ms": hier.min_s * 1e3,
        }));
    }
    rows
}

fn time_gemm(pr: Params, m: usize, k: usize, n: usize) -> (Timing, Timing, f64) {
    let a = Tensor::randn([m, k], 11).into_vec();
    let b = Tensor::randn([k, n], 13).into_vec();
    let mut out = vec![0.0f32; m * n];
    let fast = bench(2, pr.gemm_iters, || {
        let av = MatrixRef::new(&a, m, k).expect("a view");
        let bv = MatrixRef::new(&b, k, n).expect("b view");
        matmul(av, bv, &mut out).expect("matmul");
        black_box(&out);
    });
    let seed = bench(2, pr.gemm_iters, || {
        seed_matmul(&a, &b, &mut out, m, k, n);
        black_box(&out);
    });
    let sp = speedup(&seed, &fast);
    (fast, seed, sp)
}

fn gemm_section(pr: Params, smoke: bool) -> Vec<Value> {
    // The two shapes PowerSGD actually runs (a conv layer viewed as
    // 512 x 4608 against a rank-4 factor) plus a square product where
    // register blocking is load-bound.
    let shapes = if smoke {
        [(64usize, 128usize, 16usize), (48, 48, 48)]
    } else {
        [(512usize, 4608usize, 64usize), (384, 384, 384)]
    };
    let mut rows = Vec::new();
    for &(m, k, n) in &shapes {
        let (fast, seed, speedup) = time_gemm(pr, m, k, n);
        println!(
            "matmul {m}x{k}x{n}  fast {}  seed {}  speedup {speedup:.2}x",
            fast.ms(),
            seed.ms()
        );
        rows.push(json!({
            "kernel": "matmul",
            "m": m, "k": k, "n": n,
            "fast_ms": fast.min_s * 1e3,
            "seed_ms": seed.min_s * 1e3,
            "speedup": speedup,
        }));
    }
    rows
}

/// `a_mul_bt` at the MLP forward's first layer, `X · W1ᵀ`, on the
/// benchmark's two models (a 4-row batch against a `1024 x 1024` W1, an
/// 8-row batch against a `512 x 256` one), against the scalar loop it
/// replaced. Both outputs are checked bit-equal.
fn a_mul_bt_section(pr: Params, smoke: bool) -> Vec<Value> {
    // (m, k, n): A is m x k, B is n x k.
    let shapes = if smoke {
        [(4usize, 64usize, 64usize), (8, 32, 48)]
    } else {
        [(4, 1024, 1024), (8, 256, 512)]
    };
    let iters = pr.gemm_iters * 5;
    let mut rows = Vec::new();
    for (m, k, n) in shapes {
        let a = Tensor::randn([m, k], 53).into_vec();
        let b = Tensor::randn([n, k], 59).into_vec();
        let am = MatrixRef::new(&a, m, k).expect("a view");
        let bm = MatrixRef::new(&b, n, k).expect("b view");
        let (mut out, mut ref_out) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let fast = bench(2, iters, || {
            a_mul_bt(am, bm, black_box(&mut out)).expect("a_mul_bt");
        });
        let reference = bench(2, iters, || {
            scalar_a_mul_bt(&a, &b, black_box(&mut ref_out), m, k, n);
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out),
            bits(&ref_out),
            "a_mul_bt and the scalar loop disagree"
        );
        let sp = speedup(&reference, &fast);
        println!(
            "a_mul_bt {m}x{k} * ({n}x{k})T  {:.3} ms  (scalar loop {:.3} ms, {sp:.2}x)",
            fast.min_s * 1e3,
            reference.min_s * 1e3
        );
        rows.push(json!({
            "kernel": "a_mul_bt",
            "m": m, "k": k, "n": n,
            "fast_ms": fast.min_s * 1e3,
            "reference_ms": reference.min_s * 1e3,
            "speedup": sp,
        }));
    }
    rows
}

/// The two model-sized outputs of a training step, each built as its
/// caller builds it, into a fresh buffer per call: zero-filled and then
/// overwritten by the slice form, or written once by the `Vec` form. The
/// big model's weight gradient `gW1 = dhidᵀ · X` (a 4-row batch:
/// `1024 x 4 · 4 x 1024`) and PowerSGD's rank-4 `Ĝ = P̂ · Q̄ᵀ` of a
/// `1024 x 1024` layer with its residual update, on one kernel thread as
/// the benchmark runs them. Both forms are checked bit-equal.
fn write_once_section(pr: Params, smoke: bool) -> Vec<Value> {
    let (d, r) = if smoke { (64usize, 4usize) } else { (1024, 4) };
    let iters = pr.gemm_iters * 10;
    let pool = gcs_tensor::Pool::new(1);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rows = Vec::new();
    let mut push = |op: &str, zeroed: Timing, once: Timing| {
        println!(
            "write-once {op:<12} {d}x{r}x{d}  {:.3} ms  (zeroed first {:.3} ms, {:.2}x)",
            once.min_s * 1e3,
            zeroed.min_s * 1e3,
            speedup(&zeroed, &once)
        );
        rows.push(json!({
            "kernel": "write_once",
            "op": op,
            "m": d, "k": r, "n": d,
            "write_once_ms": once.min_s * 1e3,
            "zeroed_ms": zeroed.min_s * 1e3,
            "speedup": speedup(&zeroed, &once),
        }));
    };

    // `Aᵀ · B` with A = dhid and B = X, both `r x d`.
    let dhid = Tensor::randn([r, d], 71).into_vec();
    let x = Tensor::randn([r, d], 73).into_vec();
    let dm = MatrixRef::new(&dhid, r, d).expect("dhid view");
    let xm = MatrixRef::new(&x, r, d).expect("x view");
    let zeroed_atb = || {
        let mut g = vec![0.0f32; d * d];
        at_mul_b(dm, xm, &mut g).expect("at_mul_b");
        g
    };
    let once_atb = || {
        let mut g = Vec::new();
        at_mul_b_into(&pool, dm, xm, &mut g).expect("at_mul_b_into");
        g
    };
    let zeroed = bench(2, iters, || drop(black_box(zeroed_atb())));
    let once = bench(2, iters, || drop(black_box(once_atb())));
    assert_eq!(
        bits(&zeroed_atb()),
        bits(&once_atb()),
        "write-once at_mul_b"
    );
    push("at_mul_b", zeroed, once);

    // `layer − P · Qᵀ` with both factors `d x r`. The residual is updated
    // in place, so each call starts from one the last call wrote; the
    // timing does not depend on values.
    let p = Tensor::randn([d, r], 79).into_vec();
    let q = Tensor::randn([d, r], 83).into_vec();
    let pm = MatrixRef::new(&p, d, r).expect("p view");
    let qm = MatrixRef::new(&q, d, r).expect("q view");
    let layer = Tensor::randn([d, d], 89).into_vec();
    let zeroed_rec = |e: &mut [f32]| {
        let mut g = vec![0.0f32; d * d];
        reconstruct_residual_pooled(&pool, pm, qm, Some(e), &mut g).expect("reconstruct");
        g
    };
    let once_rec = |e: &mut [f32]| {
        let mut g = Vec::new();
        reconstruct_residual_into(&pool, pm, qm, Some(e), &mut g).expect("reconstruct_into");
        g
    };
    let mut e = layer.clone();
    let zeroed = bench(2, iters, || drop(black_box(zeroed_rec(&mut e))));
    let once = bench(2, iters, || drop(black_box(once_rec(&mut e))));
    let (mut e_zeroed, mut e_once) = (layer.clone(), layer);
    assert_eq!(
        (bits(&zeroed_rec(&mut e_zeroed)), bits(&e_zeroed)),
        (bits(&once_rec(&mut e_once)), bits(&e_once)),
        "write-once reconstruct"
    );
    push("reconstruct", zeroed, once);
    rows
}

/// `minibatch_grad` of the benchmark's two models at their batch sizes
/// (the big one's 4 rows, the small one's 8), on 64 samples: the step's
/// T_comp, forward and backward.
fn minibatch_grad_section(pr: Params, smoke: bool) -> Vec<Value> {
    // (dim, hidden, classes, batch)
    let models = if smoke {
        [(64usize, 64usize, 16usize, 4usize), (32, 48, 10, 8)]
    } else {
        [(1024, 1024, 16, 4), (256, 512, 10, 8)]
    };
    let iters = pr.gemm_iters * 10;
    let mut rows = Vec::new();
    for (d, h, c, batch) in models {
        let task = MlpClassification::new(d, h, c, 64, 7);
        let params = task.init_params(5);
        let mut seed = 0;
        let t = bench(2, iters, || {
            seed += 1;
            black_box(task.minibatch_grad(&params, batch, seed));
        });
        println!(
            "minibatch_grad {d}-{h}-{c} batch {batch}  {:.3} ms",
            t.min_s * 1e3
        );
        rows.push(json!({
            "kernel": "minibatch_grad",
            "m": batch, "k": d, "n": h,
            "classes": c,
            "grad_ms": t.min_s * 1e3,
        }));
    }
    rows
}

/// Block of the mean's final hop in `gcs_cluster::collectives`: the add and
/// the divide run 512 elements at a time.
const MEAN_BLOCK: usize = 512;

/// The ring mean's final reduce-scatter hop — add the incoming wire chunk,
/// divide by the member count — three ways on one chunk: the add alone
/// (what the sum's hop costs), the add and then a divide pass over the
/// whole chunk, and the add and divide per L1-sized block, which is what
/// `all_reduce_mean` runs. The chunk sizes are `dense-ring-tcp`'s
/// (half of the 1024 x 1024 weight's bucket) and a quarter of the ring
/// section's buffer. The two divides are checked bit-equal.
fn ring_mean_hop_section(pr: Params, smoke: bool) -> Vec<Value> {
    let sizes = if smoke {
        [4096usize, 1000]
    } else {
        [512 * 1024, pr.ring_elems / 4]
    };
    let divide = |xs: &mut [f32]| xs.iter_mut().for_each(|x| *x /= 2.0);
    // Sub-millisecond passes over a few MB that other tenants' memory
    // traffic disturbs: a long best-of.
    let iters = pr.gemm_iters * 20;
    let mut rows = Vec::new();
    for n in sizes {
        let partial = Tensor::randn([n], 61).into_vec();
        let mut wire = vec![0u8; n * 4];
        kernels::f32s_to_bytes(&Tensor::randn([n], 67).into_vec(), &mut wire);
        // Timed in place (the values drift, the work does not), then run
        // once more each from the same partial sum to compare the bits.
        let blocked_hop = |buf: &mut [f32]| {
            for (xs, w) in buf.chunks_mut(MEAN_BLOCK).zip(wire.chunks(4 * MEAN_BLOCK)) {
                kernels::add_from_bytes(w, xs);
                divide(xs);
            }
        };
        let two_pass_hop = |buf: &mut [f32]| {
            kernels::add_from_bytes(&wire, buf);
            divide(buf);
        };
        let mut buf = partial.clone();
        let add = bench(2, iters, || {
            kernels::add_from_bytes(&wire, black_box(&mut buf));
        });
        let two_pass = bench(2, iters, || two_pass_hop(black_box(&mut buf)));
        let blocked = bench(2, iters, || blocked_hop(black_box(&mut buf)));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut a, mut b) = (partial.clone(), partial);
        two_pass_hop(&mut a);
        blocked_hop(&mut b);
        assert_eq!(bits(&a), bits(&b), "blocked and two-pass divides disagree");
        println!(
            "ring mean hop n={n}  add {:.3} ms  add+divide pass {:.3} ms  blocked {:.3} ms",
            add.min_s * 1e3,
            two_pass.min_s * 1e3,
            blocked.min_s * 1e3
        );
        rows.push(json!({
            "kernel": "ring_mean_hop",
            "n": n,
            "add_ms": add.min_s * 1e3,
            "two_pass_ms": two_pass.min_s * 1e3,
            "blocked_ms": blocked.min_s * 1e3,
        }));
    }
    rows
}

fn powersgd_section(pr: Params, smoke: bool) -> Value {
    // ResNet-50-style layer shapes (the encode_decode suite's conv set).
    let shapes: Vec<Vec<usize>> = if smoke {
        vec![vec![32, 32, 3, 3], vec![64, 128]]
    } else {
        vec![
            vec![64, 64, 3, 3],
            vec![128, 128, 3, 3],
            vec![256, 256, 3, 3],
            vec![512, 512, 3, 3],
            vec![512, 2048],
            vec![1000, 512],
        ]
    };
    let grads: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| Tensor::randn(s.clone(), 17 + i as u64))
        .collect();
    let params: usize = grads.iter().map(Tensor::numel).sum();
    let mut c = PowerSgd::new(4).expect("rank 4");
    let t = bench(1, pr.gemm_iters, || {
        for (layer, g) in grads.iter().enumerate() {
            black_box(round_trip(&mut c, layer, g).expect("powersgd round trip"));
        }
    });
    println!(
        "powersgd rank-4 round trip  {} layers / {params} params  {}",
        grads.len(),
        t.ms()
    );
    json!({
        "kernel": "powersgd_rank4",
        "layers": grads.len(),
        "params": params,
        "round_trip_ms": t.mean_s * 1e3,
    })
}

/// The three GEMMs of a PowerSGD round trip on a square layer, each through
/// the entry point `PowerSgd` calls (which picks the skinny path from the
/// rank) and through the general path it stands in for: the general
/// register tiles for `M · Q` and `Mᵀ · P̂`, and `a_mul_bt` followed by the
/// residual subtraction for the fused reconstruct. That reference runs the
/// lane-per-row `a_mul_bt`, not the scalar loop the fused kernel was first
/// measured against (see `a_mul_bt_section`), so its ratio is against the
/// fastest unfused form. Both sides are checked equal.
fn skinny_gemm_section(pr: Params, smoke: bool) -> Vec<Value> {
    let n = if smoke { 64 } else { 1024 };
    let iters = pr.gemm_iters * 5;
    let tile = gcs_tensor::autotune::choice().gemm_tile;
    let layer = Tensor::randn([n, n], 43).into_vec();
    let layer_ref = MatrixRef::new(&layer, n, n).expect("layer view");
    let mut rows = Vec::new();
    for r in [4usize, 8, 16] {
        let q = Tensor::randn([n, r], 47).into_vec();
        let q_ref = MatrixRef::new(&q, n, r).expect("factor view");
        let (mut fast_out, mut ref_out) = (vec![0.0f32; n * r], vec![0.0f32; n * r]);
        let mut push = |op: &str, dims: (usize, usize, usize), fast: Timing, reference: Timing| {
            println!(
                "skinny {op:<12} {n}x{n} r={r:<2}  {:.3} ms  (general path {:.3} ms, {:.2}x)",
                fast.min_s * 1e3,
                reference.min_s * 1e3,
                speedup(&reference, &fast)
            );
            rows.push(json!({
                "kernel": "skinny_gemm",
                "op": op,
                "m": dims.0, "k": dims.1, "n": dims.2,
                "skinny_ms": fast.min_s * 1e3,
                "reference_ms": reference.min_s * 1e3,
                "speedup": speedup(&reference, &fast),
            }));
        };

        let fast = bench(2, iters, || {
            matmul(layer_ref, q_ref, black_box(&mut fast_out)).expect("matmul");
        });
        let reference = bench(2, iters, || {
            matmul_with_tile(tile, layer_ref, q_ref, black_box(&mut ref_out)).expect("matmul");
        });
        assert_eq!(fast_out, ref_out, "skinny matmul and the tiles disagree");
        push("matmul", (n, n, r), fast, reference);

        let fast = bench(2, iters, || {
            at_mul_b(layer_ref, q_ref, black_box(&mut fast_out)).expect("at_mul_b");
        });
        let reference = bench(2, iters, || {
            at_mul_b_with_tile(tile, layer_ref, q_ref, black_box(&mut ref_out)).expect("at_mul_b");
        });
        assert_eq!(fast_out, ref_out, "skinny at_mul_b and the tiles disagree");
        push("at_mul_b", (n, n, r), fast, reference);

        // `layer − P · Qᵀ` with both factors `n x r`. The fused kernel
        // updates its residual in place, so it starts each call from a
        // residual it wrote itself; the timing does not depend on values.
        let p_ref = MatrixRef::new(&fast_out, n, r).expect("factor view");
        let pool = gcs_tensor::Pool::new(1);
        let (mut g, mut e) = (vec![0.0f32; n * n], layer.clone());
        let fast = bench(2, iters, || {
            reconstruct_residual_pooled(&pool, p_ref, q_ref, Some(&mut e), black_box(&mut g))
                .expect("reconstruct");
        });
        let (mut g_ref, mut e_ref) = (vec![0.0f32; n * n], vec![0.0f32; n * n]);
        let reference = bench(2, iters, || {
            a_mul_bt(p_ref, q_ref, &mut g_ref).expect("a_mul_bt");
            for ((e, w), g) in e_ref.iter_mut().zip(&layer).zip(&g_ref) {
                *e = w - g;
            }
            black_box(&mut e_ref);
        });
        e.copy_from_slice(&layer);
        reconstruct_residual_pooled(&pool, p_ref, q_ref, Some(&mut e), &mut g)
            .expect("reconstruct");
        assert_eq!(
            (&g, &e),
            (&g_ref, &e_ref),
            "fused reconstruct and a_mul_bt disagree"
        );
        push("reconstruct", (n, r, n), fast, reference);
    }
    rows
}

/// Top-k as it ran before the sampled bound, and still the route
/// [`top_k_abs_with`] falls back to: `|x|` copy of the whole input,
/// quickselect over all `n` magnitudes, threshold gather, lowest-index tie
/// fill. Rebuilt from the public kernels so the tracked report keeps the
/// before/after pair in one row.
fn reference_top_k_abs(data: &[f32], k: usize, mags: &mut Vec<f32>) -> (Vec<u32>, Vec<f32>) {
    mags.clear();
    mags.resize(data.len(), 0.0);
    kernels::abs_into(data, mags);
    let (_, kth, _) = mags.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    let threshold = *kth;
    let (mut indices, mut values) = (Vec::with_capacity(k), Vec::with_capacity(k));
    kernels::gather_above(data, threshold, false, &mut indices, &mut values);
    for (i, &v) in data.iter().enumerate() {
        if indices.len() == k {
            break;
        }
        if v.abs() == threshold {
            indices.push(i as u32);
            values.push(v);
        }
    }
    (indices, values)
}

fn selection_section(pr: Params) -> (Value, Value) {
    let n = pr.ring_elems;
    let g = Tensor::randn([n], 23);
    let k = n / 100;
    let mut mags = Vec::new();
    let topk = bench(1, pr.gemm_iters, || {
        black_box(top_k_abs_with(g.data(), k, &mut mags));
    });
    let reference = bench(1, pr.gemm_iters, || {
        black_box(reference_top_k_abs(g.data(), k, &mut mags));
    });
    let sel = top_k_abs_with(g.data(), k, &mut mags);
    assert_eq!(
        (sel.indices, sel.values),
        reference_top_k_abs(g.data(), k, &mut mags),
        "select and its reference disagree"
    );
    println!(
        "top-k 1% select  n={n} k={k}  {}  (full-quickselect reference {}, {:.2}x)",
        topk.ms(),
        reference.ms(),
        speedup(&reference, &topk)
    );

    let mut packed = SignBits::pack(g.data());
    let pack = bench(1, pr.gemm_iters, || {
        packed = SignBits::pack(g.data());
        black_box(&packed);
    });
    let unpack = bench(1, pr.gemm_iters, || {
        black_box(packed.unpack(1.0));
    });
    println!(
        "sign pack/unpack  n={n}  pack {}  unpack {}",
        pack.ms(),
        unpack.ms()
    );
    (
        json!({
            "kernel": "topk_select",
            "n": n,
            "k": k,
            "ratio": 0.01,
            "select_ms": topk.mean_s * 1e3,
            "reference_ms": reference.mean_s * 1e3,
        }),
        json!({
            "kernel": "sign_pack_unpack",
            "n": n,
            "pack_ms": pack.mean_s * 1e3,
            "unpack_ms": unpack.mean_s * 1e3,
        }),
    )
}

/// Times one kernel under both dispatch tables and returns the JSON row.
/// The closure receives `use_simd` and runs the kernel on shared buffers
/// (one closure, so the buffers are borrowed only once). `iters` comes from
/// the caller so smoke mode stays fast.
fn simd_row(name: &str, n: usize, iters: usize, mut f: impl FnMut(bool)) -> Value {
    let sc = bench(1, iters, || f(false));
    let sv = bench(1, iters, || f(true));
    let sp = speedup(&sc, &sv);
    println!(
        "simd kernel {name:<16} n={n:<9} scalar {}  simd {}  speedup {sp:.2}x",
        sc.ms(),
        sv.ms()
    );
    json!({
        "kernel": name,
        "n": n,
        "scalar_ms": sc.min_s * 1e3,
        "simd_ms": sv.min_s * 1e3,
        "speedup": sp,
    })
}

/// Per-kernel SIMD vs. scalar comparison: calls both dispatch tables
/// directly (ignoring `GCS_FORCE_SCALAR`) on identical buffers, so the rows
/// isolate the kernel code from everything around it. Empty on hosts
/// without the SIMD table.
fn simd_kernels_section(pr: Params) -> Vec<Value> {
    let sc = kernels::scalar();
    let Some(sv) = kernels::simd() else {
        println!("simd kernels: no SIMD table on this host, skipping simd-vs-scalar rows");
        return Vec::new();
    };
    let n = pr.ring_elems;
    let iters = pr.gemm_iters;
    let data = Tensor::randn([n], 29).into_vec();
    let other = Tensor::randn([n], 31).into_vec();
    let words_len = n.div_ceil(32);
    let table = move |s: bool| if s { sv } else { sc };
    let mut rows = Vec::new();

    // Sign pack / unpack / majority vote (SignSGD and 1-bit Adam paths).
    let mut words = vec![0u32; words_len];
    rows.push(simd_row("sign_pack", n, iters, |s| {
        (table(s).sign_pack)(&data, black_box(&mut words));
    }));
    let mut out = vec![0.0f32; n];
    rows.push(simd_row("sign_unpack_fill", n, iters, |s| {
        (table(s).unpack_fill)(&words, -1.0, 1.0, black_box(&mut out));
    }));
    let mut tally = vec![0i32; n];
    rows.push(simd_row("vote_add", n, iters, |s| {
        (table(s).vote_add)(&words, black_box(&mut tally));
    }));
    rows.push(simd_row("vote_pack", n, iters, |s| {
        (table(s).vote_pack)(&tally, black_box(&mut words));
    }));

    // Wire (de)serialization and the ring's receive-and-accumulate step.
    let mut bytes = vec![0u8; n * 4];
    rows.push(simd_row("f32s_to_bytes", n, iters, |s| {
        (table(s).f32s_to_bytes)(&other, black_box(&mut bytes));
    }));
    rows.push(simd_row("bytes_to_f32s", n, iters, |s| {
        (table(s).bytes_to_f32s)(&bytes, black_box(&mut out));
    }));
    let mut acc = data.clone();
    rows.push(simd_row("add_from_bytes", n, iters, |s| {
        (table(s).add_from_bytes)(&bytes, black_box(&mut acc));
    }));
    let mut acc2 = data.clone();
    rows.push(simd_row("add_assign", n, iters, |s| {
        (table(s).add_assign)(black_box(&mut acc2), &other);
    }));
    let mut acc3 = data.clone();
    rows.push(simd_row("axpy", n, iters, |s| {
        (table(s).axpy)(black_box(&mut acc3), 0.999, &other);
    }));

    // Top-k support kernels: |x| materialization, L1 reduction, and the
    // threshold scan-and-gather (threshold chosen near the top-1% cut of a
    // standard normal, ~2.6 sigma; NaN-inclusive compare, the form the
    // select's candidate pass runs).
    let mut mags = vec![0.0f32; n];
    rows.push(simd_row("abs_into", n, iters, |s| {
        (table(s).abs_into)(&data, black_box(&mut mags));
    }));
    rows.push(simd_row("sum_abs", n, iters, |s| {
        black_box((table(s).sum_abs)(&data));
    }));
    let threshold = 2.6f32;
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    rows.push(simd_row("gather_above", n, iters, |s| {
        idx.clear();
        vals.clear();
        (table(s).gather_above)(&data, threshold, true, &mut idx, &mut vals);
        black_box((&idx, &vals));
    }));

    // GEMM microkernel through both dispatch paths (PowerSGD's skinny
    // shape). Unlike the rows above this compares the same register-blocked
    // algorithm with scalar mul_add vs. AVX2 FMA tiles.
    let (m, k, nn) = if pr.ring_elems < 1024 * 1024 {
        (64usize, 128usize, 16usize)
    } else {
        (512usize, 4608usize, 64usize)
    };
    let a = Tensor::randn([m, k], 37).into_vec();
    let b = Tensor::randn([k, nn], 41).into_vec();
    let mut gout = vec![0.0f32; m * nn];
    rows.push(simd_row("matmul_tile", m * k * nn, iters, |s| {
        let av = MatrixRef::new(&a, m, k).expect("a view");
        let bv = MatrixRef::new(&b, k, nn).expect("b view");
        matmul_with_dispatch(s, av, bv, &mut gout).expect("matmul");
        black_box(&gout);
    }));
    rows
}

/// `model name` from `/proc/cpuinfo`, or `"unknown"` off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host + dispatch provenance for the tracked report (bench hygiene: a
/// number without the CPU, dispatch mode, thread count and tile shape that
/// produced it is noise).
fn metadata(smoke: bool) -> Value {
    let choice = gcs_tensor::autotune::choice();
    json!({
        "cpu_model": cpu_model(),
        "kernel_features": kernels::feature_string(),
        "active_kernel_table": kernels::active().name,
        "simd_active": kernels::simd_active(),
        "force_scalar": std::env::var("GCS_FORCE_SCALAR").ok(),
        "kernel_threads": gcs_tensor::pool::global().width(),
        "gemm_tile": choice.gemm_tile.name(),
        "wire_chunk_elems": choice.wire_chunk_elems,
        "autotune_provenance": choice.provenance,
        "smoke": smoke,
    })
}

fn main() {
    println!("datapath micro-benchmark (release builds only give meaningful numbers)");
    let smoke = std::env::var_os("GCS_BENCH_SMOKE").is_some();
    let pr = Params::new(smoke);
    let ring = ring_section(pr);
    let algos = all_reduce_algorithms_section(pr);
    let mean_hop = ring_mean_hop_section(pr, smoke);
    let gemm = gemm_section(pr, smoke);
    let abt = a_mul_bt_section(pr, smoke);
    let write_once = write_once_section(pr, smoke);
    let grad = minibatch_grad_section(pr, smoke);
    let psgd = powersgd_section(pr, smoke);
    let skinny = skinny_gemm_section(pr, smoke);
    let (topk, signs) = selection_section(pr);
    let simd = simd_kernels_section(pr);

    let report = json!({
        "bench": "datapath",
        "metadata": metadata(smoke),
        "ring_all_reduce": ring,
        "all_reduce_algorithms": algos,
        "ring_mean_hop": mean_hop,
        "matmul": gemm,
        "a_mul_bt": abt,
        "write_once": write_once,
        "minibatch_grad": grad,
        "powersgd": psgd,
        "skinny_gemm": skinny,
        "topk": topk,
        "signs": signs,
        "simd_kernels": simd,
    });
    // `GCS_BENCH_OUT` redirects the report (written even in smoke mode —
    // the regression gate diffs report *structure* against the committed
    // file and only compares timings between two full runs).
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_datapath.json");
    let out = std::env::var("GCS_BENCH_OUT").ok();
    match (out, smoke) {
        (Some(path), _) => {
            let text = serde_json::to_string_pretty(&report).expect("serialize report");
            std::fs::write(&path, text).expect("write GCS_BENCH_OUT report");
            println!("wrote {path}");
        }
        (None, true) => {
            // Smoke timings are meaningless; don't clobber the tracked file.
            println!("smoke mode: skipping write of {default_path}");
        }
        (None, false) => {
            let text = serde_json::to_string_pretty(&report).expect("serialize report");
            std::fs::write(default_path, text).expect("write BENCH_datapath.json");
            println!("wrote {default_path}");
        }
    }
}
