//! One timing rule on both lanes of the bucket schedule: `comm_s` is the
//! collective (the call inline, the blocked wait on the comm thread), and
//! everything after it — deserialization, `aggregate`, `absorb` — is
//! `decode_s`. The measured-mode controller inverts bandwidth from
//! `comm_s`, so CPU work charged there would read as wire time.

use gcs_cluster::SimCluster;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{Compressor, Payload};
use gcs_ddp::{Exchanger, Lane, Plan};
use gcs_tensor::{Shape, Tensor};

/// A gather-path scheme whose `aggregate` sleeps, so the timing rule's
/// line between `comm_s` and `decode_s` shows.
struct SlowAggregate(Box<dyn Compressor>);

const AGGREGATE_SLEEP_S: f64 = 0.02;

impl Compressor for SlowAggregate {
    fn properties(&self) -> gcs_compress::Properties {
        self.0.properties()
    }
    fn compressed_bytes(&self, shape: &Shape) -> usize {
        self.0.compressed_bytes(shape)
    }
    fn encode(&mut self, layer: usize, grad: &Tensor) -> gcs_compress::Result<Payload> {
        self.0.encode(layer, grad)
    }
    fn aggregate(&self, round: usize, payloads: &[Payload]) -> gcs_compress::Result<Payload> {
        std::thread::sleep(std::time::Duration::from_secs_f64(AGGREGATE_SLEEP_S));
        self.0.aggregate(round, payloads)
    }
    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> gcs_compress::Result<()> {
        self.0.absorb(layer, round, agg)
    }
    fn finish(&mut self, layer: usize, shape: &Shape) -> gcs_compress::Result<Tensor> {
        self.0.finish(layer, shape)
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

#[test]
fn aggregate_is_decode_time_not_comm_time_on_both_lanes() {
    let grads: Vec<Vec<Tensor>> = (0..2)
        .map(|rank| {
            vec![
                Tensor::randn([8usize, 8], 47 + rank),
                Tensor::randn([12usize], 53 + rank),
            ]
        })
        .collect();
    let outs = SimCluster::run(2, |worker| {
        let slow = || SlowAggregate(MethodConfig::SignSgd.build().unwrap());
        let grads = &grads[worker.rank()];
        let plan = Plan::Buckets {
            bytes: usize::MAX,
            matricize: false,
        };
        let mut engine = Exchanger::with_compressor(worker, plan, Lane::Inline, slow()).unwrap();
        engine.exchange(grads).unwrap();
        let inline = engine.last_timings()[0];
        let (worker, _) = engine.into_parts();
        let lane = Lane::Comm { depth: 2 };
        let mut engine = Exchanger::with_compressor(worker, plan, lane, slow()).unwrap();
        engine.exchange(grads).unwrap();
        let comm = engine.last_timings()[0];
        let _ = engine.into_parts();
        [inline, comm]
    });
    for t in outs.iter().flatten() {
        assert!(
            t.decode_s >= AGGREGATE_SLEEP_S && AGGREGATE_SLEEP_S > t.comm_s,
            "aggregate must be charged to decode_s, not comm_s: {t:?}"
        );
    }
}
