//! Recursive halving-doubling (Rabenseifner) all-reduce.
//!
//! The third classic all-reduce (after ring and double tree, §2.2's
//! citation \[47\]): reduce-scatter by recursive *halving*, all-gather by
//! recursive *doubling*. Bandwidth-optimal like the ring
//! (`2n(p−1)/(p·BW)`), but with `2·log₂(p)` latency steps instead of
//! `2(p−1)` — the best of both at large scale for power-of-two worlds.
//!
//! The halving-step reduce and the f32↔byte conversion go through the
//! shared collectives helpers, which dispatch to the
//! [`gcs_tensor::kernels`] SIMD table — the same vectorized segment sum the
//! ring uses, with the same fixed (elementwise) association order.

use crate::collectives::{
    add_f32s_from_bytes, check_f32_frame, fill_bytes_from_f32s, fill_f32s_from_bytes,
};
use crate::transport::{Frame, WorkerHandle};
use crate::{ClusterError, Result};

impl crate::cost::NetworkModel {
    /// Rabenseifner all-reduce cost: `2α·log₂(p) + 2b(p−1)/(p·BW)`.
    pub fn rabenseifner_all_reduce(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pf = p as f64;
        2.0 * self.alpha * pf.log2().ceil()
            + 2.0 * bytes as f64 * (pf - 1.0) / (pf * self.bandwidth)
    }
}

impl WorkerHandle {
    /// Recursive halving-doubling all-reduce (sum). Requires a
    /// power-of-two world size.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] for non-power-of-two
    /// worlds (real MPI implementations fall back to ring there; callers
    /// should too) or a shrunk handle, and transport errors if peers hang
    /// up.
    pub fn rabenseifner_all_reduce_sum(&self, buf: &mut [f32]) -> Result<()> {
        let p = self.full_world("recursive halving-doubling")?;
        if p == 1 {
            return Ok(());
        }
        if !p.is_power_of_two() {
            return Err(ClusterError::InvalidArgument(format!(
                "recursive halving-doubling needs a power-of-two world, got {p}"
            )));
        }
        let rank = self.rank();
        let n = buf.len();

        // Segment boundaries per recursion level, tracked as element
        // ranges [lo, hi). At each halving step we keep the half that
        // contains our own final chunk.
        let mut lo = 0usize;
        let mut hi = n;
        let mut mask = p / 2;
        // Phase 1: recursive halving reduce-scatter. The ranges we hand
        // away are remembered so the doubling phase can replay them in
        // reverse — this keeps odd-length splits exact.
        let mut handed_away: Vec<(usize, usize)> = Vec::new();
        // One wire buffer, recycled from each received frame (frames here
        // have exactly one receiver, so the reclaim never copies).
        let mut wire: Vec<u8> = Vec::with_capacity(n.div_ceil(2) * 4);
        while mask >= 1 {
            let partner = rank ^ mask;
            let mid = lo + (hi - lo) / 2;
            // Ranks with the `mask` bit clear keep the lower half.
            let keep_low = rank & mask == 0;
            let (send_range, keep_range) = if keep_low {
                ((mid, hi), (lo, mid))
            } else {
                ((lo, mid), (mid, hi))
            };
            fill_bytes_from_f32s(&mut wire, &buf[send_range.0..send_range.1]);
            self.send(partner, Frame::from_vec(wire))?;
            let incoming = self.recv_robust(partner)?;
            check_f32_frame(&incoming, keep_range.1 - keep_range.0, "halving step")?;
            add_f32s_from_bytes(&mut buf[keep_range.0..keep_range.1], &incoming);
            wire = incoming.into_vec();
            handed_away.push(send_range);
            lo = keep_range.0;
            hi = keep_range.1;
            mask /= 2;
        }

        // Phase 2: recursive doubling all-gather, replaying the handed-away
        // ranges in reverse: at each level the partner holds exactly the
        // range we gave up at the matching halving level.
        let mut mask = 1usize;
        while mask < p {
            let partner = rank ^ mask;
            fill_bytes_from_f32s(&mut wire, &buf[lo..hi]);
            self.send(partner, Frame::from_vec(wire))?;
            let incoming = self.recv_robust(partner)?;
            let Some((plo, phi)) = handed_away.pop() else {
                return Err(ClusterError::Protocol(
                    "doubling phase outran the halving-range stack".into(),
                ));
            };
            check_f32_frame(&incoming, phi - plo, "doubling step")?;
            fill_f32s_from_bytes(&mut buf[plo..phi], &incoming);
            wire = incoming.into_vec();
            lo = lo.min(plo);
            hi = hi.max(phi);
            mask *= 2;
        }
        let _ = wire;
        debug_assert_eq!((lo, hi), (0, n));
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::cost::NetworkModel;
    use crate::SimCluster;

    #[test]
    fn matches_sequential_sum_for_powers_of_two() {
        for p in [2usize, 4, 8, 16] {
            for n in [1usize, 7, 16, 33] {
                let outs = SimCluster::run(p, move |w| {
                    let mut buf: Vec<f32> = (0..n).map(|i| (w.rank() * 100 + i) as f32).collect();
                    w.rabenseifner_all_reduce_sum(&mut buf).unwrap();
                    buf
                });
                for out in &outs {
                    for (i, &x) in out.iter().enumerate() {
                        let expected: f32 = (0..p).map(|r| (r * 100 + i) as f32).sum();
                        assert_eq!(x, expected, "p={p} n={n} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let outs = SimCluster::run(3, |w| {
            let mut buf = vec![1.0f32; 4];
            w.rabenseifner_all_reduce_sum(&mut buf).is_err()
        });
        assert_eq!(outs, vec![true; 3]);
    }

    #[test]
    fn single_worker_is_noop() {
        let outs = SimCluster::run(1, |w| {
            let mut buf = vec![3.0f32];
            w.rabenseifner_all_reduce_sum(&mut buf).unwrap();
            buf[0]
        });
        assert_eq!(outs, vec![3.0]);
    }

    #[test]
    fn cost_has_ring_bandwidth_and_tree_latency() {
        let net = NetworkModel::from_gbps(15e-6, 10.0);
        let bytes = 100_000_000;
        let p = 128;
        let rab = net.rabenseifner_all_reduce(bytes, p);
        let ring = net.ring_all_reduce(bytes, p);
        let tree = net.tree_all_reduce(bytes, p);
        // Beats ring (less latency) and beats tree (better bandwidth term).
        assert!(rab < ring, "rab {rab} ring {ring}");
        assert!(rab < tree, "rab {rab} tree {tree}");
        // Pure bandwidth term matches the ring's.
        let net0 = NetworkModel::new(0.0, 1e9);
        assert!(
            (net0.rabenseifner_all_reduce(bytes, p) - net0.ring_all_reduce(bytes, p)).abs() < 1e-12
        );
    }
}
