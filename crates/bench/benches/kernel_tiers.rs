//! The kernel-tier stop-line timer (DESIGN.md §10, "Adding a kernel",
//! item 7): every entry of the `gcs_tensor::kernels` dispatch table, in
//! every table this CPU runs, at the call sizes the four benchmark
//! workloads use. The kernels that failed the stop-line have one body and
//! no table entry; DESIGN.md §10 keeps their last timings.
//!
//! For each entry and size, the tables take turns — forward order on even
//! rounds, reverse on odd — for `ROUNDS` rounds; a round times one batch
//! of calls long enough to swamp the clock. A row gives each table's median
//! ns per call and the scalar table's median over each other table's. The
//! `mix` row weighs the sizes by how often the workloads call them: total
//! scalar time over total tier time for that call mix.
//!
//! Plain `main()` harness (`harness = false`): run with
//! `cargo bench -p gcs-bench --bench kernel_tiers`.

use gcs_bench::timing::black_box;
use gcs_tensor::kernels::{self, Kernels};
use std::time::{Duration, Instant};

/// Alternating rounds per entry and size; the stop-line asks for ≥ 10.
const ROUNDS: usize = 15;

/// Wall time of one timed batch of calls.
const BATCH: Duration = Duration::from_millis(2);

/// One entry and its `(elements, calls)` sizes: how many calls of that
/// length the four workloads made in 6 s each at seed 1, summed (a
/// counter on the free wrappers found them). A size with 0 calls is timed
/// for the record but carries no weight in the mix: no workload calls the
/// entry, and its sibling's sizes stand in.
struct Case {
    entry: &'static str,
    sizes: &'static [(usize, u64)],
}

const SIGN_SIZES: &[(usize, u64)] = &[
    (10, 20_000),
    (512, 20_000),
    (5120, 20_000),
    (131_072, 20_000),
];

const DENSE_SIZES: &[(usize, u64)] = &[
    (10, 19_998),
    (16, 5606),
    (512, 19_998),
    (1024, 5606),
    (5120, 19_998),
    (16_384, 5606),
    (131_072, 19_998),
    (1_048_576, 5606),
];

const CASES: &[Case] = &[
    Case {
        entry: "sign_pack",
        sizes: SIGN_SIZES,
    },
    Case {
        entry: "unpack_fill",
        sizes: SIGN_SIZES,
    },
    // No workload calls it; 1-bit SGD's decode runs on the same layers.
    Case {
        entry: "unpack_add",
        sizes: &[(10, 0), (512, 0), (5120, 0), (131_072, 0)],
    },
    Case {
        entry: "sum_abs",
        sizes: SIGN_SIZES,
    },
    Case {
        entry: "add_assign",
        sizes: DENSE_SIZES,
    },
    Case {
        entry: "axpy",
        sizes: DENSE_SIZES,
    },
    Case {
        entry: "gather_above",
        sizes: &[(17_424, 1418), (1_048_576, 1573)],
    },
    Case {
        entry: "tanh",
        sizes: &[(4096, 25_612)],
    },
];

/// Finite pseudo-random values in `[-8, 8)`, as a gradient's would be.
fn data(n: usize, salt: u32) -> Vec<f32> {
    (0..n as u32)
        .map(|i| (i ^ salt).wrapping_mul(2_654_435_761) as f32 / u32::MAX as f32 * 16.0 - 8.0)
        .collect()
}

/// One call of `entry` in table `k` on `n` elements, with its own buffers.
/// In-place kernels run on their own output again and again: the sums
/// grow and `tanh` settles towards 0, none of them into subnormals or NaN.
fn runner(entry: &str, k: &'static Kernels, n: usize) -> Box<dyn FnMut()> {
    let xs = data(n, 0x5eed);
    let ys = data(n, 0xbeef);
    let words = vec![0x9e37_79b9u32; n.div_ceil(32)];
    match entry {
        "sign_pack" => {
            let mut out = vec![0u32; n.div_ceil(32)];
            Box::new(move || (k.sign_pack)(black_box(&xs), &mut out))
        }
        "unpack_fill" => {
            let mut out = ys;
            Box::new(move || (k.unpack_fill)(black_box(&words), -0.5, 0.5, &mut out))
        }
        "unpack_add" => {
            let mut out = ys;
            Box::new(move || (k.unpack_add)(black_box(&words), -0.5, 0.5, &mut out))
        }
        "add_assign" => {
            let mut acc = xs;
            Box::new(move || (k.add_assign)(&mut acc, black_box(&ys)))
        }
        "axpy" => {
            let mut y = xs;
            Box::new(move || (k.axpy)(&mut y, black_box(0.01), &ys))
        }
        "sum_abs" => Box::new(move || {
            black_box((k.sum_abs)(black_box(&xs)));
        }),
        "gather_above" => {
            // Top-K 1 %: the threshold is the 99th percentile magnitude.
            let mut mags: Vec<f32> = xs.iter().map(|x| x.abs()).collect();
            mags.sort_by(f32::total_cmp);
            let t = mags[n * 99 / 100];
            let (mut idx, mut val) = (Vec::new(), Vec::new());
            Box::new(move || {
                idx.clear();
                val.clear();
                (k.gather_above)(black_box(&xs), t, false, &mut idx, &mut val);
            })
        }
        "tanh" => {
            let mut v = xs;
            Box::new(move || (k.tanh)(&mut v))
        }
        other => panic!("no runner for kernel entry {other}"),
    }
}

/// Median ns per call of each table's `entry` on `n` elements.
fn medians(tables: &[&'static Kernels], entry: &str, n: usize) -> Vec<f64> {
    let mut runs: Vec<Box<dyn FnMut()>> = tables.iter().map(|k| runner(entry, k, n)).collect();
    // Calibrate one batch on the scalar table, which warms it too.
    let started = Instant::now();
    let mut reps = 0u32;
    while started.elapsed() < BATCH {
        runs[0]();
        reps += 1;
    }
    for run in &mut runs[1..] {
        for _ in 0..reps {
            run();
        }
    }
    let mut samples = vec![Vec::with_capacity(ROUNDS); tables.len()];
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..tables.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for t in order {
            let t0 = Instant::now();
            for _ in 0..reps {
                runs[t]();
            }
            samples[t].push(t0.elapsed().as_nanos() as f64 / f64::from(reps));
        }
    }
    samples
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

fn main() {
    let tables = kernels::tables();
    let mut headers = vec!["entry".to_string(), "size".to_string()];
    for k in &tables {
        headers.push(format!("{} ns", k.name));
    }
    for k in &tables[1..] {
        headers.push(format!("scalar/{}", k.name));
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for case in CASES {
        let mut weighted = vec![0.0f64; tables.len()];
        for &(n, calls) in case.sizes {
            let ns = medians(&tables, case.entry, n);
            for (w, t) in weighted.iter_mut().zip(&ns) {
                *w += calls as f64 * t;
            }
            let mut row = vec![case.entry.to_string(), n.to_string()];
            row.extend(ns.iter().map(|t| format!("{t:.0}")));
            row.extend(ns[1..].iter().map(|t| format!("{:.2}", ns[0] / t)));
            rows.push(row);
        }
        if weighted[0] > 0.0 {
            let mut row = vec![case.entry.to_string(), "mix".to_string()];
            row.extend(weighted.iter().map(|_| String::new()));
            row.extend(
                weighted[1..]
                    .iter()
                    .map(|t| format!("{:.2}", weighted[0] / t)),
            );
            rows.push(row);
        }
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    gcs_bench::print_table(
        &format!(
            "Kernel tiers: median ns per call over {ROUNDS} alternating rounds ({})",
            kernels::feature_string()
        ),
        &headers,
        &rows,
    );
}
