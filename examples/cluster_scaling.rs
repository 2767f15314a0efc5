//! Cluster scaling: run *real* collectives over in-process workers and
//! watch why all-reduce compatibility decides scalability — per-worker
//! ring traffic stays flat while all-gather traffic grows linearly.
//!
//! ```sh
//! cargo run --release --example cluster_scaling
//! ```

use gradcomp::cluster::SimCluster;
use gradcomp::compress::registry::MethodConfig;
use gradcomp::ddp::{ExchangeConfig, Exchanger};
use gradcomp::tensor::Tensor;

/// Runs one real gradient exchange on `workers` in-process workers and
/// returns the average bytes each worker put on the wire.
fn per_worker_traffic(method: &MethodConfig, workers: usize) -> u64 {
    let grads: Vec<Vec<Tensor>> = (0..workers)
        .map(|w| vec![Tensor::randn([64, 64], w as u64)])
        .collect();
    let cluster = SimCluster::new(workers);
    let counters = cluster.traffic().to_vec();
    cluster.run_workers(|worker| {
        let rank = worker.rank();
        let cfg = ExchangeConfig::per_layer(method.clone());
        let mut exchanger = Exchanger::new(worker, cfg).expect("method builds");
        exchanger.exchange(&grads[rank]).expect("exchange");
    });
    counters.iter().map(|t| t.bytes_sent()).sum::<u64>() / workers as u64
}

fn main() {
    println!("Per-worker bytes sent for one 64x64 gradient exchange (real data):\n");
    println!("{:<22} {:>8} {:>8} {:>8}", "method", "p=2", "p=4", "p=8");
    for method in [
        MethodConfig::SyncSgd,
        MethodConfig::PowerSgd { rank: 4 },
        MethodConfig::SignSgd,
        MethodConfig::TopK { ratio: 0.05 },
    ] {
        let name = method.build().expect("builds").properties().name;
        let t: Vec<u64> = [2usize, 4, 8]
            .iter()
            .map(|&p| per_worker_traffic(&method, p))
            .collect();
        println!("{name:<22} {:>8} {:>8} {:>8}", t[0], t[1], t[2]);
    }
    println!(
        "\nExpected shape: all-reducible methods (syncSGD, PowerSGD) send a nearly\n\
         constant number of bytes per worker as p grows; gather-based methods\n\
         (SignSGD, Top-K) forward every peer's payload, so their per-worker\n\
         traffic grows with p even though their payloads are 'compressed'."
    );
}
