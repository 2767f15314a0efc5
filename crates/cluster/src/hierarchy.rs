//! Two-level (intra-node / inter-node) network modelling and a real
//! hierarchical all-reduce.
//!
//! The paper's testbed is p3.8xlarge: 4 V100s per node on NVLink
//! (~100+ GB/s) with ~10 Gbps between nodes. NCCL exploits this with a
//! hierarchical all-reduce: reduce inside the node, ring across node
//! leaders on the slow network, broadcast back inside the node. The paper
//! models the flat ring for simplicity; this module provides the
//! hierarchical variant as an extension, both as a cost formula and as a
//! real collective over the channel mesh (used by the
//! `ablation_hierarchy` bench).

use crate::collectives::{
    add_f32s_from_bytes, check_f32_frame, fill_bytes_from_f32s, fill_f32s_from_bytes,
};
use crate::cost::NetworkModel;
use crate::transport::{Frame, WorkerHandle};
use crate::{ClusterError, Result};

/// A two-level network: a fast intra-node fabric and a slower inter-node
/// network.
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

impl Default for HierarchicalNetwork {
    fn default() -> Self {
        Self::p3_8xlarge()
    }
}

impl WorkerHandle {
    /// Real hierarchical all-reduce (sum): reduce to the node leader,
    /// ring-all-reduce among leaders, broadcast back within the node.
    /// Ranks are grouped into nodes by `rank / gpus_per_node`.
    ///
    /// Produces exactly the same sums as [`WorkerHandle::all_reduce_sum`]
    /// (addition reordering aside).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] if `gpus_per_node == 0`
    /// or the handle's ring was shrunk, and transport errors if peers
    /// hang up.
    pub fn hierarchical_all_reduce_sum(&self, buf: &mut [f32], gpus_per_node: usize) -> Result<()> {
        if gpus_per_node == 0 {
            return Err(ClusterError::InvalidArgument(
                "gpus_per_node must be positive".into(),
            ));
        }
        let p = self.full_world("hierarchical all-reduce")?;
        if p == 1 {
            return Ok(());
        }
        let rank = self.rank();
        let node = rank / gpus_per_node;
        let leader = node * gpus_per_node;
        let node_end = (leader + gpus_per_node).min(p);
        let is_leader = rank == leader;

        // Phase 1: node members send to the leader; the leader reduces
        // straight out of each incoming frame's bytes.
        if is_leader {
            for peer in leader + 1..node_end {
                let incoming = self.recv_robust(peer)?;
                check_f32_frame(&incoming, buf.len(), "hierarchical reduce")?;
                add_f32s_from_bytes(buf, &incoming);
            }
        } else {
            let mut wire = Vec::new();
            fill_bytes_from_f32s(&mut wire, buf);
            self.send(leader, Frame::from_vec(wire))?;
        }

        // Phase 2: leaders all-reduce among themselves over a leader ring.
        let nodes = p.div_ceil(gpus_per_node);
        if is_leader && nodes > 1 {
            let my_node = node;
            let next_leader = ((my_node + 1) % nodes) * gpus_per_node;
            let prev_leader = ((my_node + nodes - 1) % nodes) * gpus_per_node;
            // Simple ring accumulation: nodes-1 steps of pass-and-add of
            // the full vector (semantically equivalent to ring all-reduce).
            // Each step forwards the frame received in the previous step,
            // so after the first send the ring circulates frames zero-copy.
            let mut accum = buf.to_vec();
            let mut wire = Vec::new();
            fill_bytes_from_f32s(&mut wire, buf);
            let mut outgoing = Frame::from_vec(wire);
            for _ in 0..nodes - 1 {
                self.send(next_leader, outgoing)?;
                let incoming = self.recv_robust(prev_leader)?;
                check_f32_frame(&incoming, accum.len(), "leader ring")?;
                add_f32s_from_bytes(&mut accum, &incoming);
                outgoing = incoming;
            }
            buf.copy_from_slice(&accum);
        }

        // Phase 3: leader broadcasts the result within the node — one
        // frame fanned out by refcount bump.
        if is_leader {
            let mut wire = Vec::new();
            fill_bytes_from_f32s(&mut wire, buf);
            let bcast = Frame::from_vec(wire);
            for peer in leader + 1..node_end {
                self.send(peer, bcast.clone())?;
            }
        } else {
            let incoming = self.recv_robust(leader)?;
            check_f32_frame(&incoming, buf.len(), "hierarchical broadcast")?;
            fill_f32s_from_bytes(buf, &incoming);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimCluster;

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

    #[test]
    fn real_hierarchical_allreduce_matches_flat_sum() {
        for (p, g) in [(8usize, 4usize), (6, 2), (5, 4), (4, 4), (3, 1), (7, 3)] {
            let outs = SimCluster::run(p, |w| {
                let mut buf: Vec<f32> = (0..6).map(|i| (w.rank() * 10 + i) as f32).collect();
                w.hierarchical_all_reduce_sum(&mut buf, g).unwrap();
                buf
            });
            for out in &outs {
                for (i, &x) in out.iter().enumerate() {
                    let expected: f32 = (0..p).map(|r| (r * 10 + i) as f32).sum();
                    assert_eq!(x, expected, "p={p} g={g} i={i}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_allreduce_rejects_zero_group() {
        let outs = SimCluster::run(2, |w| {
            let mut buf = vec![1.0f32];
            w.hierarchical_all_reduce_sum(&mut buf, 0).is_err()
        });
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn inter_node_traffic_is_reduced() {
        // With 2 nodes of 2 GPUs, only leaders exchange across the "slow"
        // boundary; total traffic must be below a flat p=4 all-gather of
        // full vectors.
        let p = 4;
        let n = 1000usize;
        let cluster = SimCluster::new(p);
        let counters = cluster.traffic().to_vec();
        cluster.run_workers(|w| {
            let mut buf = vec![1.0f32; n];
            w.hierarchical_all_reduce_sum(&mut buf, 2).unwrap();
        });
        // Non-leaders send exactly one vector (to their leader).
        assert_eq!(counters[1].bytes_sent(), (n * 4) as u64);
        assert_eq!(counters[3].bytes_sent(), (n * 4) as u64);
    }
}
