//! α–β communication cost model (§4 of the paper).
//!
//! The cost of moving a vector of `n` bytes is modelled as `α + βn` where
//! `α` is per-message latency and `β = 1/BW`. Collective algorithms
//! compose this per step; the formulas below are the standard ones
//! (Thakur et al., 2005) and match Equation 1 of the paper for ring
//! all-reduce. Two topologies the engines do not run are priced here
//! too, for the ablations: a parameter server
//! ([`NetworkModel::parameter_server`]) and a two-level network
//! ([`HierarchicalNetwork`]).

use crate::{ClusterError, Result};

/// Analytic network model: latency per hop and bandwidth per link.
///
/// # Example
///
/// ```
/// use gcs_cluster::cost::NetworkModel;
///
/// // 10 Gbps, 50 µs latency.
/// let net = NetworkModel::new(50e-6, 10e9 / 8.0);
/// let t = net.ring_all_reduce(100e6 as usize, 16);
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency α in seconds.
    pub alpha: f64,
    /// Link bandwidth in **bytes per second** (so 10 Gbps = `10e9 / 8`).
    pub bandwidth: f64,
    /// Incast severity `c ≥ 0`: gather-style all-to-one traffic sees an
    /// effective bandwidth of `BW / (1 + c·ln p)` (TCP incast collapse —
    /// the effect §4.3 blames for the paper's 14.2 % SignSGD model error,
    /// citing DCTCP). `0` disables it (the paper's own model).
    pub incast: f64,
}

impl NetworkModel {
    /// Creates a model from latency (seconds) and bandwidth (bytes/s).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive or non-finite.
    pub fn new(alpha: f64, bandwidth: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        NetworkModel {
            alpha,
            bandwidth,
            incast: 0.0,
        }
    }

    /// Enables incast modelling with severity `c` (≈ 0.2–0.5 reproduces
    /// the degradation the paper observed for SignSGD's all-gather).
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or non-finite.
    pub fn with_incast(mut self, c: f64) -> Self {
        assert!(c.is_finite() && c >= 0.0, "incast severity must be >= 0");
        self.incast = c;
        self
    }

    /// Convenience constructor from Gbps (as quoted by cloud providers).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is non-positive or non-finite.
    pub fn from_gbps(alpha: f64, gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "gbps must be positive");
        Self::new(alpha, gbps * 1e9 / 8.0)
    }

    /// The paper's AWS p3.8xlarge baseline: ~10 Gbps with a per-hop ring
    /// latency of ~15 µs (the paper derives α by timing a ring-reduce of a
    /// tiny tensor and dividing by `p − 1`).
    pub fn datacenter_10gbps() -> Self {
        Self::from_gbps(15e-6, 10.0)
    }

    /// Time for one point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 / self.bandwidth
    }

    /// Ring all-reduce of `bytes` across `p` workers — Equation 1:
    /// `α(p−1) + 2·b·(p−1)/(p·BW)`.
    ///
    /// (The paper folds reduce-scatter + all-gather latency into a single
    /// `α(p−1)` term; we keep its convention so model validation matches.)
    pub fn ring_all_reduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        self.alpha * (pf - 1.0) + 2.0 * bytes as f64 * (pf - 1.0) / (pf * self.bandwidth)
    }

    /// Double-binary-tree all-reduce: `2·α·log₂(p) + 2·b/BW` (latency
    /// logarithmic, bandwidth ~constant; what NCCL switches to at scale).
    pub fn tree_all_reduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let lg = (p as f64).log2().ceil();
        2.0 * self.alpha * lg + 2.0 * bytes as f64 / self.bandwidth
    }

    /// All-gather where every worker contributes `bytes`: each receives
    /// `(p−1)·bytes` — this is the linear-in-`p` traffic that breaks the
    /// scalability of non-all-reducible schemes (paper §2.2, Figures 5–6).
    pub fn all_gather(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        // All-to-one reception suffers incast collapse when enabled.
        let bw_eff = self.bandwidth / (1.0 + self.incast * pf.ln());
        self.alpha * (pf - 1.0) + bytes as f64 * (pf - 1.0) / bw_eff
    }

    /// Reduce-scatter of `bytes` across `p` workers:
    /// `α(p−1) + b·(p−1)/(p·BW)`.
    pub fn reduce_scatter(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        self.alpha * (pf - 1.0) + bytes as f64 * (pf - 1.0) / (pf * self.bandwidth)
    }

    /// Binomial-tree broadcast of `bytes`: `(α + b/BW)·log₂(p)`.
    pub fn broadcast(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let lg = (p as f64).log2().ceil();
        (self.alpha + bytes as f64 / self.bandwidth) * lg
    }

    /// Aggregation time through `shards` parameter-server shards — the
    /// topology the community *moved away from* (§2.2: "a number of
    /// systems have shifted from using a parameter server based topology
    /// to an all-reduce topology"). Each worker sends `bytes / shards` to
    /// every shard and receives the aggregate back; a shard's link carries
    /// `p·bytes/shards` in each direction, serialized by its NIC:
    /// `2·α + 2·p·b / (s·BW)`. Unlike the ring's scale-free `2b(p−1)/p`,
    /// this grows linearly with the worker count.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] if `shards == 0` — the
    /// typed error path, not a panic, per the data-plane lint contract.
    pub fn parameter_server(&self, bytes: usize, p: usize, shards: usize) -> Result<f64> {
        if shards == 0 {
            return Err(ClusterError::InvalidArgument(
                "parameter server needs at least one shard".into(),
            ));
        }
        if p <= 1 {
            return Ok(0.0);
        }
        Ok(2.0 * self.alpha + 2.0 * (p as f64) * (bytes as f64) / (shards as f64 * self.bandwidth))
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::datacenter_10gbps()
    }
}

/// A two-level network: a fast intra-node fabric and a slower inter-node
/// network.
///
/// The paper's testbed is p3.8xlarge: 4 V100s per node on NVLink
/// (~100+ GB/s) with ~10 Gbps between nodes. NCCL exploits this with a
/// hierarchical all-reduce: reduce inside the node, ring across node
/// leaders on the slow network, broadcast back inside the node. The paper
/// models the flat ring for simplicity; this prices the hierarchical
/// variant beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalNetwork {
    /// Intra-node fabric (NVLink-class).
    pub intra: NetworkModel,
    /// Inter-node network (Ethernet-class).
    pub inter: NetworkModel,
    /// GPUs per node.
    pub gpus_per_node: usize,
}

impl HierarchicalNetwork {
    /// Creates a hierarchical model.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_node == 0`.
    pub fn new(intra: NetworkModel, inter: NetworkModel, gpus_per_node: usize) -> Self {
        assert!(gpus_per_node > 0, "need at least one GPU per node");
        HierarchicalNetwork {
            intra,
            inter,
            gpus_per_node,
        }
    }

    /// The paper's testbed: 4 GPUs/node on ~100 GB/s NVLink (3 µs hop),
    /// 10 Gbps / 15 µs between nodes.
    pub fn p3_8xlarge() -> Self {
        Self::new(
            NetworkModel::new(3e-6, 100e9),
            NetworkModel::datacenter_10gbps(),
            4,
        )
    }

    /// Cost of a hierarchical all-reduce of `bytes` across `p` GPUs:
    /// intra-node reduce-scatter + inter-node ring over the node leaders
    /// (on `bytes` — each leader carries the node's full reduced vector) +
    /// intra-node broadcast. Falls back to a flat intra-node ring when all
    /// GPUs share one node.
    pub fn hierarchical_all_reduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let g = self.gpus_per_node.min(p);
        let nodes = p.div_ceil(g);
        if nodes <= 1 {
            return self.intra.ring_all_reduce(bytes, p);
        }
        let intra_reduce = self.intra.reduce_scatter(bytes, g);
        let inter = self.inter.ring_all_reduce(bytes, nodes);
        let intra_bcast = self.intra.broadcast(bytes, g);
        intra_reduce + inter + intra_bcast
    }

    /// Cost of the flat ring all-reduce the paper models, where every hop
    /// crosses the slow network.
    pub fn flat_all_reduce(&self, bytes: usize, p: usize) -> f64 {
        self.inter.ring_all_reduce(bytes, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::from_gbps(15e-6, 10.0)
    }

    #[test]
    fn single_worker_collectives_are_free() {
        let n = net();
        assert_eq!(n.ring_all_reduce(1 << 20, 1), 0.0);
        assert_eq!(n.all_gather(1 << 20, 1), 0.0);
        assert_eq!(n.tree_all_reduce(1 << 20, 1), 0.0);
        assert_eq!(n.broadcast(1 << 20, 1), 0.0);
    }

    #[test]
    fn ring_bandwidth_term_saturates_with_p() {
        // 2b(p-1)/p -> 2b as p grows: per-worker traffic is ~constant.
        let n = NetworkModel::new(0.0, 1e9);
        let b = 100_000_000;
        let t8 = n.ring_all_reduce(b, 8);
        let t64 = n.ring_all_reduce(b, 64);
        assert!(
            t64 / t8 < 1.15,
            "ring must be near scale-free: {}",
            t64 / t8
        );
    }

    #[test]
    fn all_gather_grows_linearly_with_p() {
        let n = NetworkModel::new(0.0, 1e9);
        let b = 1_000_000;
        let t8 = n.all_gather(b, 8);
        let t64 = n.all_gather(b, 64);
        assert!(
            (t64 / t8 - 9.0).abs() < 0.1,
            "all-gather should scale ~(p-1): {}",
            t64 / t8
        );
    }

    #[test]
    fn tree_beats_ring_on_latency_at_scale() {
        // Tiny message, many workers: latency dominates.
        let n = net();
        let bytes = 1024;
        assert!(n.tree_all_reduce(bytes, 128) < n.ring_all_reduce(bytes, 128));
    }

    #[test]
    fn ring_beats_tree_on_bandwidth_at_small_scale() {
        // Huge message, few workers: ring's (p-1)/p factor wins.
        let n = net();
        let bytes = 500_000_000;
        assert!(n.ring_all_reduce(bytes, 4) < n.tree_all_reduce(bytes, 4));
    }

    #[test]
    fn equation_one_exact_value() {
        // b = 125 MB at 10 Gbps (= 1.25e9 B/s), p = 4, alpha = 0:
        // 2 * 125e6 * 3/4 / 1.25e9 = 0.15 s.
        let n = NetworkModel::new(0.0, 1.25e9);
        let t = n.ring_all_reduce(125_000_000, 4);
        assert!((t - 0.15).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn from_gbps_converts_to_bytes() {
        let n = NetworkModel::from_gbps(0.0, 8.0);
        assert!((n.bandwidth - 1e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = NetworkModel::new(0.0, 0.0);
    }

    #[test]
    fn incast_slows_gathers_but_not_rings() {
        let clean = net();
        let congested = net().with_incast(0.3);
        let bytes = 10_000_000;
        let p = 64;
        assert!(congested.all_gather(bytes, p) > 1.5 * clean.all_gather(bytes, p));
        assert_eq!(
            congested.ring_all_reduce(bytes, p),
            clean.ring_all_reduce(bytes, p),
            "point-to-point ring traffic sees no incast"
        );
    }

    #[test]
    fn incast_grows_with_fan_in() {
        let n = net().with_incast(0.3);
        let per_worker = |p: usize| n.all_gather(1_000_000, p) / (p as f64 - 1.0);
        assert!(per_worker(64) > per_worker(4));
    }

    #[test]
    #[should_panic(expected = "incast severity")]
    fn negative_incast_rejected() {
        let _ = net().with_incast(-1.0);
    }

    #[test]
    fn degenerate_worlds_cost_nothing_in_every_formula() {
        // p = 1 makes the α–β formulas' (p − 1) terms vanish, and p = 0 is
        // a caller bug either way; both must return exactly 0.0 — never a
        // negative time, NaN, or division by zero — for every collective.
        let n = net().with_incast(0.3);
        let bytes = 10_000_000;
        for p in [0usize, 1] {
            assert_eq!(n.ring_all_reduce(bytes, p), 0.0, "ring, p={p}");
            assert_eq!(n.tree_all_reduce(bytes, p), 0.0, "tree, p={p}");
            assert_eq!(n.all_gather(bytes, p), 0.0, "all-gather, p={p}");
            assert_eq!(n.reduce_scatter(bytes, p), 0.0, "reduce-scatter, p={p}");
            assert_eq!(n.broadcast(bytes, p), 0.0, "broadcast, p={p}");
            // PS with a valid shard count follows the same p∈{0,1} rule…
            assert_eq!(
                n.parameter_server(bytes, p, 1),
                Ok(0.0),
                "parameter server, p={p}"
            );
            // …while shards = 0 is the typed error path, not a panic,
            // regardless of the world size.
            assert!(
                matches!(
                    n.parameter_server(bytes, p, 0),
                    Err(ClusterError::InvalidArgument(_))
                ),
                "parameter server shards=0, p={p}"
            );
        }
        assert!(matches!(
            n.parameter_server(bytes, 8, 0),
            Err(ClusterError::InvalidArgument(_))
        ));
        // And the first real world size is strictly positive and finite.
        for t in [
            n.ring_all_reduce(bytes, 2),
            n.tree_all_reduce(bytes, 2),
            n.all_gather(bytes, 2),
            n.reduce_scatter(bytes, 2),
            n.broadcast(bytes, 2),
        ] {
            assert!(t.is_finite() && t > 0.0);
        }
    }

    #[test]
    fn ps_cost_grows_linearly_ring_does_not() {
        let net = NetworkModel::new(0.0, 1e9);
        let bytes = 10_000_000;
        let ps8 = net.parameter_server(bytes, 8, 1).unwrap();
        let ps64 = net.parameter_server(bytes, 64, 1).unwrap();
        assert!((ps64 / ps8 - 8.0).abs() < 1e-9, "PS scales with p");
        let ring8 = net.ring_all_reduce(bytes, 8);
        let ring64 = net.ring_all_reduce(bytes, 64);
        assert!(ring64 / ring8 < 1.15, "ring stays flat");
        // At p = 2 PS is within a small constant of the ring; at 64 it is
        // hopeless.
        assert!(net.parameter_server(bytes, 2, 1).unwrap() < 5.0 * net.ring_all_reduce(bytes, 2));
        assert!(ps64 > 10.0 * ring64);
    }

    #[test]
    fn sharding_divides_server_time() {
        let net = NetworkModel::new(0.0, 1e9);
        let one = net.parameter_server(1_000_000, 32, 1).unwrap();
        let four = net.parameter_server(1_000_000, 32, 4).unwrap();
        assert!((one / four - 4.0).abs() < 1e-9);
    }

    #[test]
    fn p3_defaults_are_sane() {
        let h = HierarchicalNetwork::p3_8xlarge();
        assert_eq!(h.gpus_per_node, 4);
        assert!(h.intra.bandwidth > 10.0 * h.inter.bandwidth);
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_scale() {
        // Flat ring pays inter-node latency for every one of p-1 hops;
        // hierarchical pays it only across nodes.
        let h = HierarchicalNetwork::p3_8xlarge();
        let bytes = 100_000_000;
        for p in [8usize, 32, 96] {
            let flat = h.flat_all_reduce(bytes, p);
            let hier = h.hierarchical_all_reduce(bytes, p);
            assert!(hier < flat, "p={p}: hier {hier} vs flat {flat}");
        }
    }

    #[test]
    fn single_node_uses_intra_fabric_only() {
        let h = HierarchicalNetwork::p3_8xlarge();
        let t = h.hierarchical_all_reduce(1_000_000, 4);
        assert!((t - h.intra.ring_all_reduce(1_000_000, 4)).abs() < 1e-12);
    }
}
