//! Isolated timings of single layer functions, at the sizes the
//! workloads use them. Each reading is the median of repeated calls on
//! seed-generated data; these explain a move in a step time, they are
//! never an end-to-end claim.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gcs_tensor::bits::{MajorityVote, SignBits};
use gcs_tensor::kernels;
use gcs_tensor::matrix::{at_mul_b, matmul, MatrixRef};
use gcs_tensor::select::top_k_abs_with;
use gcs_tensor::Tensor;

use crate::run::on_cluster;
use crate::stats::median;
use crate::workload::Backend;

/// Median wall time in ms of `f`, over at least 5 calls and then for as
/// long as `budget` lasts (at most `max_reps`).
fn median_ms(budget: Duration, max_reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (samples.len() < max_reps && started.elapsed() < budget) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

pub struct TensorTimings {
    pub gemm_ms: f64,
    pub topk_select_ms: f64,
    pub sign_pack_ms: f64,
    pub wire_convert_ms: f64,
}

/// The `gcs-tensor` kernels behind each workload's hot path.
pub fn tensor(seed: u64, budget: Duration) -> TensorTimings {
    let each = budget / 4;

    // PowerSGD rank 4 on the 1024x1024 layer: P = M·Q, then Q = Mᵀ·P.
    let (n, r) = (1024, 4);
    let m = Tensor::randn([n, n], seed).into_vec();
    let q = Tensor::randn([n, r], seed ^ 1).into_vec();
    let mut p = vec![0.0f32; n * r];
    let mut q_next = vec![0.0f32; n * r];
    let gemm_ms = median_ms(each, 400, || {
        let m_ref = MatrixRef::new(&m, n, n).expect("m is n x n");
        matmul(m_ref, MatrixRef::new(&q, n, r).expect("q is n x r"), &mut p).expect("dims agree");
        let p_ref = MatrixRef::new(&p, n, r).expect("p is n x r");
        at_mul_b(m_ref, p_ref, &mut q_next).expect("dims agree");
        black_box(&q_next);
    });

    // Top-K 1 % of a 1 MiB bucket's worth of the same gradient.
    let len = 1 << 20;
    let k = len / 100;
    let mut mags = Vec::new();
    let topk_select_ms = median_ms(each, 400, || {
        black_box(top_k_abs_with(black_box(&m[..len]), k, &mut mags));
    });

    // SignSGD on the small model's 512x256 layer, two voters.
    let signs_of = &m[..512 * 256];
    let mut unpacked = vec![0.0f32; signs_of.len()];
    let sign_pack_ms = median_ms(each, 2000, || {
        let bits = SignBits::pack(black_box(signs_of));
        let mut vote = MajorityVote::new(signs_of.len());
        vote.add(&bits);
        vote.add(&bits);
        vote.majority_bits().unpack_into(-1.0, 1.0, &mut unpacked);
        black_box(&unpacked);
    });

    // One 1 MiB ring segment: encode, accumulate into the wire image,
    // decode.
    let floats = &m[..(1 << 20) / 4];
    let mut bytes = vec![0u8; floats.len() * 4];
    let mut back = vec![0.0f32; floats.len()];
    let wire_convert_ms = median_ms(each, 2000, || {
        kernels::f32s_to_bytes(black_box(floats), &mut bytes);
        kernels::add_into_bytes(floats, &mut bytes);
        kernels::bytes_to_f32s(&bytes, &mut back);
        black_box(&back);
    });

    TensorTimings {
        gemm_ms,
        topk_select_ms,
        sign_pack_ms,
        wire_convert_ms,
    }
}

pub struct ClusterTimings {
    /// Round trip of a 64-byte frame, µs: twice the per-message α.
    pub p2p_rtt_us: f64,
    /// One-way throughput of 4 MiB frames, MiB/s: the link's β.
    pub p2p_mib_per_s: f64,
    /// Forming and tearing down an idle two-rank cluster, ms.
    pub mesh_form_ms: f64,
}

/// Point-to-point α and β of `backend`, and its formation cost.
pub fn cluster(backend: Backend, budget: Duration) -> Result<ClusterTimings, String> {
    const BIG_FRAME: usize = 4 << 20;
    let each = budget / 3;
    // Rank 0 times ping-pongs against an echoing rank 1; a zero-length
    // frame tells the echo side to stop.
    let ping_pong = |frame_len: usize, max_reps: usize| -> Result<f64, String> {
        let outs = on_cluster(backend, |worker| -> gcs_cluster::Result<f64> {
            if worker.rank() == 0 {
                let frame = gcs_cluster::Frame::from_vec(vec![1u8; frame_len]);
                let mut failure = None;
                let ms = median_ms(each, max_reps, || {
                    let trip = worker
                        .send(1, frame.clone())
                        .and_then(|()| worker.recv(1).map(drop));
                    if let Err(e) = trip {
                        failure.get_or_insert(e);
                    }
                });
                worker.send(1, gcs_cluster::Frame::empty())?;
                failure.map_or(Ok(ms), Err)
            } else {
                loop {
                    let frame = worker.recv(0)?;
                    if frame.is_empty() {
                        return Ok(0.0);
                    }
                    worker.send(0, frame)?;
                }
            }
        })?;
        outs.into_iter()
            .next()
            .expect("rank 0 reports")
            .map_err(|e| format!("ping-pong of {frame_len} B frames: {e}"))
    };
    let rtt_ms = ping_pong(64, 20_000)?;
    let big_rtt_ms = ping_pong(BIG_FRAME, 200)?;
    let mesh_form_ms = {
        let mut failure = None;
        let ms = median_ms(each, 10, || {
            if let Err(e) = on_cluster(backend, |worker| worker.rank()) {
                failure.get_or_insert(e);
            }
        });
        failure.map_or(Ok(ms), Err)?
    };
    let mib_each_way = BIG_FRAME as f64 / (1 << 20) as f64;
    Ok(ClusterTimings {
        p2p_rtt_us: rtt_ms * 1e3,
        p2p_mib_per_s: 2.0 * mib_each_way / (big_rtt_ms / 1e3),
        mesh_form_ms,
    })
}
