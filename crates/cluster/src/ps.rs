//! Parameter-server topology — the baseline the community *moved away
//! from* (§2.2: "a number of systems have shifted from using a parameter
//! server based topology to an all-reduce topology"; every DawnBench
//! submission used all-reduce).
//!
//! The server's link carries `p` gradients in and `p` aggregates out, so
//! unlike the ring's scale-free `2b(p−1)/p` per-worker traffic, PS
//! aggregation time grows linearly with the worker count unless the
//! server is sharded. Both the cost model and a real exchange over the
//! channel mesh are provided.

use crate::collectives::{
    add_f32s_from_bytes, check_f32_frame, fill_bytes_from_f32s, fill_f32s_from_bytes,
};
use crate::cost::NetworkModel;
use crate::transport::{Frame, WorkerHandle};
use crate::{ClusterError, Result};

impl NetworkModel {
    /// Aggregation time through `shards` parameter-server shards: each
    /// worker sends `bytes / shards` to every shard and receives the
    /// aggregate back; a shard's link carries `p·bytes/shards` in each
    /// direction, serialized by its NIC:
    /// `2·α + 2·p·b / (s·BW)`.
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

impl WorkerHandle {
    /// Real parameter-server sum: every rank sends its buffer to
    /// `server`, which accumulates and sends the total back. All ranks
    /// (including the server) end with the sum.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] for an out-of-range
    /// server or a shrunk handle, [`ClusterError::Mismatch`] on length
    /// disagreement, and transport errors if peers hang up.
    pub fn ps_all_reduce_sum(&self, buf: &mut [f32], server: usize) -> Result<()> {
        let p = self.full_world("parameter-server all-reduce")?;
        if server >= p {
            return Err(ClusterError::InvalidArgument(format!(
                "server rank {server} out of range for world {p}"
            )));
        }
        if p == 1 {
            return Ok(());
        }
        if self.rank() == server {
            // Accumulate straight out of each incoming frame's bytes; the
            // reply is one frame fanned out to every peer by refcount bump.
            for peer in (0..p).filter(|&r| r != server) {
                let incoming = self.recv(peer)?;
                check_f32_frame(&incoming, buf.len(), "ps aggregation")?;
                add_f32s_from_bytes(buf, &incoming);
            }
            let mut out = Vec::new();
            fill_bytes_from_f32s(&mut out, buf);
            let reply = Frame::from_vec(out);
            for peer in (0..p).filter(|&r| r != server) {
                self.send(peer, reply.clone())?;
            }
        } else {
            let mut wire = Vec::new();
            fill_bytes_from_f32s(&mut wire, buf);
            self.send(server, Frame::from_vec(wire))?;
            let incoming = self.recv(server)?;
            check_f32_frame(&incoming, buf.len(), "ps broadcast")?;
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
    fn ps_sum_matches_sequential_sum() {
        for p in [2usize, 3, 5, 8] {
            for server in [0usize, p - 1] {
                let outs = SimCluster::run(p, move |w| {
                    let mut buf: Vec<f32> = (0..5).map(|i| (w.rank() * 10 + i) as f32).collect();
                    w.ps_all_reduce_sum(&mut buf, server).unwrap();
                    buf
                });
                for out in &outs {
                    for (i, &x) in out.iter().enumerate() {
                        let expected: f32 = (0..p).map(|r| (r * 10 + i) as f32).sum();
                        assert_eq!(x, expected, "p={p} server={server}");
                    }
                }
            }
        }
    }

    #[test]
    fn ps_rejects_bad_server() {
        let outs = SimCluster::run(2, |w| {
            let mut buf = vec![1.0f32];
            w.ps_all_reduce_sum(&mut buf, 7).is_err()
        });
        assert_eq!(outs, vec![true, true]);
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
    fn ps_server_traffic_is_the_bottleneck() {
        // Count real bytes: the server sends (p-1)·n, workers send n each.
        let p = 5;
        let n = 100usize;
        let cluster = SimCluster::new(p);
        let counters = cluster.traffic().to_vec();
        cluster.run_workers(|w| {
            let mut buf = vec![1.0f32; n];
            w.ps_all_reduce_sum(&mut buf, 0).unwrap();
        });
        assert_eq!(counters[0].bytes_sent(), ((p - 1) * n * 4) as u64);
        for c in &counters[1..] {
            assert_eq!(c.bytes_sent(), (n * 4) as u64);
        }
    }
}
