//! Collective operations with real data movement.
//!
//! The ring all-reduce here is the textbook reduce-scatter + all-gather
//! ring (what NCCL runs with `NCCL_TREE_THRESHOLD=0`, the configuration
//! the paper forces for its model validation). All collectives move actual
//! bytes through the channel mesh so that non-associative aggregations can
//! only be expressed the way real systems express them: via all-gather.
//!
//! # Data-plane fast path
//!
//! The ring all-reduce ([`WorkerHandle::all_reduce_sum`],
//! [`WorkerHandle::all_reduce_mean`], the out-of-place
//! [`WorkerHandle::all_reduce_mean_from`] and the fused
//! [`WorkerHandle::all_reduce_mean_many`], one body over a chunk table)
//! makes no pass over the gradient that is neither wire nor arithmetic
//! (the fused form adds one pack and one unpack copy of its buffers). Each phase's seed —
//! this rank's own chunk, then its completed chunk — goes out with
//! [`WorkerHandle::send_slice`] straight from the caller's memory
//! ([`gcs_tensor::kernels::f32s_wire_image`], a borrowed view on
//! little-endian targets), so on TCP the socket write reads the `f32`s
//! themselves. The reduce-scatter folds the local contribution directly
//! into the received wire image (`w ← x + w` via
//! [`gcs_tensor::kernels::add_into_bytes`], the same operand order as the
//! buffer-side accumulator, so sums are bit-identical to
//! decode-accumulate-reserialize) and forwards that buffer; the mean
//! divides each chunk on the hop that completes it, so the all-gather
//! carries the mean. The all-gather decodes each incoming frame into the
//! result and forwards the *same* [`Frame`] by refcount bump. The
//! out-of-place mean reads the caller's gradient where the in-place forms
//! read their buffer and writes a fresh [`WriteOnce`] output in those two
//! places only, so it neither copies the gradient nor zero-fills the
//! output. Every conversion and
//! reduce dispatches through [`gcs_tensor::kernels`] (AVX-512/AVX2 where
//! detected; fixed association order keeps results identical in every
//! configuration) on the calling thread.

use crate::transport::{Frame, WorkerHandle};
use crate::{ClusterError, Result};
use gcs_tensor::kernels::{self, WriteOnce};
use std::ops::Range;

/// Splits `len` elements into `p` contiguous chunks whose sizes differ by
/// at most one. Returns the `(start, end)` of chunk `i`.
fn chunk_range(len: usize, p: usize, i: usize) -> (usize, usize) {
    let base = len / p;
    let rem = len % p;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    (start, start + size)
}

/// The ring's chunk table for buffers of `lens` elements over `m`
/// members: `m + 1` offsets into their **chunk-major** packing, chunk `c`
/// (`table[c]..table[c + 1]`) holding every buffer's [`chunk_range`] `c`
/// in buffer order, so it starts at the sum of their starts (chunk `m`'s
/// start is a buffer's end). One buffer (`&[len]`) gets the equal split.
pub fn chunk_table(lens: &[usize], m: usize) -> Vec<usize> {
    (0..=m)
        .map(|c| lens.iter().map(|&len| chunk_range(len, m, c).0).sum())
        .collect()
}

/// Checks that `bytes` decodes to exactly `expected` f32s.
fn check_f32_frame(bytes: &[u8], expected: usize, what: &str) -> Result<()> {
    if bytes.len() != expected * 4 {
        return Err(ClusterError::Mismatch(format!(
            "{what} frame of {} bytes != expected {} f32s",
            bytes.len(),
            expected
        )));
    }
    Ok(())
}

/// Decodes `bytes` into `out[..]` in place (`out.len() * 4 == bytes.len()`).
fn fill_f32s_from_bytes(out: &mut [f32], bytes: &[u8]) {
    kernels::bytes_to_f32s(bytes, out);
}

/// Accumulates `bytes` (decoded as f32s) into `out[..]` in place — the
/// ring's reduce step. Elementwise, so SIMD and scalar dispatch produce
/// identical bits.
fn add_f32s_from_bytes(out: &mut [f32], bytes: &[u8]) {
    kernels::add_from_bytes(bytes, out);
}

/// Folds `xs` into the wire image in place: `bytes ← encode(x + decode(w))`
/// elementwise. Operand order (`x` first) matches the `out += wire`
/// accumulator of [`add_f32s_from_bytes`], so a sum built step-by-step in
/// the wire buffer is bit-identical to one built in a float buffer and
/// re-serialized — including NaN payload propagation. One pass over the
/// frame instead of decode + accumulate + re-encode.
fn add_f32s_into_bytes(xs: &[f32], bytes: &mut [u8]) {
    kernels::add_into_bytes(xs, bytes);
}

/// Where the ring body reads this rank's contribution and writes the
/// result: one buffer in place ([`InPlace`]), or the caller's gradient
/// into a fresh write-once output ([`OutOfPlace`]).
trait RingIo {
    /// Elements reduced.
    fn len(&self) -> usize;
    /// This rank's contribution to `range`, read by the seeds and the
    /// folds — always before the body writes `range`.
    fn local(&self, range: Range<usize>) -> &[f32];
    /// The final reduce-scatter hop: `range ← local + incoming` (operand
    /// order `x + w`), divided by `divisor` for a mean.
    fn complete(&mut self, range: Range<usize>, incoming: &[u8], divisor: f32);
    /// The completed `range`, read back as the all-gather's seed.
    fn completed(&self, range: Range<usize>) -> Result<&[f32]>;
    /// The all-gather: `range ← decode(incoming)`.
    fn gather(&mut self, range: Range<usize>, incoming: &[u8]);
    /// A ring of one: the result is the contribution, divided by
    /// `divisor` (1) for a mean, which quiets a signalling NaN as the
    /// divide of a ring sum would.
    fn alone(&mut self, divisor: f32);
}

/// The in-place sum (or, with `mean`, mean) of `buf`.
struct InPlace<'a> {
    buf: &'a mut [f32],
    mean: bool,
}

impl RingIo for InPlace<'_> {
    fn len(&self) -> usize {
        self.buf.len()
    }

    fn local(&self, range: Range<usize>) -> &[f32] {
        &self.buf[range]
    }

    fn complete(&mut self, range: Range<usize>, incoming: &[u8], divisor: f32) {
        let out = &mut self.buf[range];
        if self.mean {
            kernels::add_from_bytes_then_divide(incoming, out, divisor);
        } else {
            add_f32s_from_bytes(out, incoming);
        }
    }

    fn completed(&self, range: Range<usize>) -> Result<&[f32]> {
        Ok(&self.buf[range])
    }

    fn gather(&mut self, range: Range<usize>, incoming: &[u8]) {
        fill_f32s_from_bytes(&mut self.buf[range], incoming);
    }

    fn alone(&mut self, divisor: f32) {
        if self.mean {
            kernels::divide(self.buf, divisor);
        }
    }
}

/// The mean of `src` into `out`; `src` is only read.
struct OutOfPlace<'a> {
    src: &'a [f32],
    out: WriteOnce,
}

impl RingIo for OutOfPlace<'_> {
    fn len(&self) -> usize {
        self.src.len()
    }

    fn local(&self, range: Range<usize>) -> &[f32] {
        &self.src[range]
    }

    fn complete(&mut self, range: Range<usize>, incoming: &[u8], divisor: f32) {
        let (start, xs) = (range.start, &self.src[range]);
        self.out
            .fill_add_from_bytes_then_divide(start, xs, incoming, divisor);
    }

    fn completed(&self, range: Range<usize>) -> Result<&[f32]> {
        self.out.filled(range).ok_or_else(|| {
            ClusterError::Protocol("ring mean's all-gather seed read before its final hop".into())
        })
    }

    fn gather(&mut self, range: Range<usize>, incoming: &[u8]) {
        self.out.fill_from_bytes(range.start, incoming);
    }

    fn alone(&mut self, divisor: f32) {
        self.out.fill_divided(0, self.src, divisor);
    }
}

impl WorkerHandle {
    /// Ring all-reduce (sum): after the call every member's `buf` holds
    /// the elementwise sum over the handle's [members](Self::members) —
    /// every rank unless [`WorkerHandle::set_members`] shrank the ring.
    ///
    /// All members must call this with buffers of equal length.
    ///
    /// Single-pass wire path: the two seeds (this rank's chunk, then its
    /// completed chunk) are sent from `buf` with
    /// [`WorkerHandle::send_slice`]. Each subsequent reduce-scatter step
    /// folds the local contribution *into the received wire image* (one
    /// `w ← x + w` pass) and forwards that buffer — the chunk a rank sends
    /// at step `s+1` is exactly the chunk it received at step `s`, so
    /// decode-accumulate-reserialize collapses into one kernel call. The
    /// all-gather decodes each incoming frame into `buf` and forwards the
    /// same [`Frame`] by refcount bump (zero copies). Same `2(m−1)` frame
    /// schedule and byte counts as the textbook formulation over `m`
    /// members, and the accumulation chain `x_{r} + (…)` keeps the same
    /// association order, so the result is **bit-identical** to it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Mismatch`] if peers send differently-sized
    /// chunks and [`ClusterError::Disconnected`] if a peer hangs up.
    pub fn all_reduce_sum(&self, buf: &mut [f32]) -> Result<()> {
        let table = chunk_table(&[buf.len()], self.members().len());
        self.ring_all_reduce(&mut InPlace { buf, mean: false }, &table)
    }

    /// Ring all-reduce (mean): after the call every member's `buf` holds
    /// the elementwise sum over the handle's [members](Self::members)
    /// divided by their count `m` — bit-identical to
    /// [`WorkerHandle::all_reduce_sum`] followed by `x / m` on every
    /// element, with the same frames and bytes on the wire.
    ///
    /// The divide happens where each chunk's sum is completed, on the
    /// reduce-scatter's final hop, so each rank divides `1/m` of the
    /// buffer and the all-gather carries the mean. A single member still
    /// divides its buffer by `1.0` (which quiets a signalling NaN, as the
    /// divide of a ring sum would).
    ///
    /// # Errors
    ///
    /// As [`WorkerHandle::all_reduce_sum`].
    pub fn all_reduce_mean(&self, buf: &mut [f32]) -> Result<()> {
        let table = chunk_table(&[buf.len()], self.members().len());
        self.ring_all_reduce(&mut InPlace { buf, mean: true }, &table)
    }

    /// [`WorkerHandle::all_reduce_mean`] of every buffer in `bufs`, in one
    /// ring: each buffer ends bit-identical to its own ring mean, and the
    /// call sends the `2(m−1)` frames of one ring with the byte total of
    /// all of them. Every member must pass the same number of buffers with
    /// the same lengths. One buffer is exactly
    /// [`WorkerHandle::all_reduce_mean`], without a copy; none sends
    /// nothing.
    ///
    /// Several buffers are packed **chunk-major**: fused chunk `c` is
    /// every buffer's chunk `c` of its own ring, in buffer order. Each
    /// element thus meets the same operands in the same order, and is
    /// divided on the same hop, as in its own ring — empty chunks of
    /// buffers shorter than the ring included — at any member count.
    ///
    /// # Errors
    ///
    /// As [`WorkerHandle::all_reduce_sum`].
    pub fn all_reduce_mean_many(&self, bufs: &mut [Vec<f32>]) -> Result<()> {
        match bufs {
            [] => return Ok(()),
            [buf] => return self.all_reduce_mean(buf),
            _ => {}
        }
        let m = self.members().len();
        let lens: Vec<usize> = bufs.iter().map(Vec::len).collect();
        let table = chunk_table(&lens, m);
        let mut fused = Vec::with_capacity(lens.iter().sum());
        for c in 0..m {
            for buf in bufs.iter() {
                let (s, e) = chunk_range(buf.len(), m, c);
                fused.extend_from_slice(&buf[s..e]);
            }
        }
        self.ring_all_reduce(
            &mut InPlace {
                buf: &mut fused,
                mean: true,
            },
            &table,
        )?;
        let mut from = fused.as_slice();
        for c in 0..m {
            for buf in bufs.iter_mut() {
                let (s, e) = chunk_range(buf.len(), m, c);
                let (chunk, rest) = from.split_at(e - s);
                buf[s..e].copy_from_slice(chunk);
                from = rest;
            }
        }
        Ok(())
    }

    /// Out-of-place ring all-reduce (mean): returns the elementwise sum of
    /// every member's `src` divided by the member count `m` — bit-identical
    /// to copying `src` and calling [`WorkerHandle::all_reduce_mean`], with
    /// the same frames and bytes on the wire — and leaves `src` untouched.
    ///
    /// This is MPI's and NCCL's distinct send and receive buffer: the
    /// seeds and the reduce-scatter's folds read `src` where it lies, and
    /// the result is a fresh buffer written exactly once, by each chunk's
    /// final hop and by the all-gather, never zero-filled. A gradient that
    /// *is* the payload therefore reaches the wire without a copy.
    ///
    /// # Errors
    ///
    /// As [`WorkerHandle::all_reduce_sum`].
    pub fn all_reduce_mean_from(&self, src: &[f32]) -> Result<Vec<f32>> {
        let mut io = OutOfPlace {
            src,
            out: WriteOnce::new(src.len()),
        };
        self.ring_all_reduce(&mut io, &chunk_table(&[src.len()], self.members().len()))?;
        io.out.into_vec().ok_or_else(|| {
            ClusterError::Protocol("ring mean left part of its output unwritten".into())
        })
    }

    /// The one ring body behind [`WorkerHandle::all_reduce_sum`],
    /// [`WorkerHandle::all_reduce_mean`],
    /// [`WorkerHandle::all_reduce_mean_many`] and
    /// [`WorkerHandle::all_reduce_mean_from`]; `io` says where this rank's
    /// contribution is read and the result written, and whether each
    /// completed chunk is divided by the member count (locally, adding no
    /// frame). Chunk `i` of the ring is `table[i]..table[i + 1]`: the
    /// equal split for one buffer, the chunk-major concatenation of every
    /// buffer's equal split for several.
    fn ring_all_reduce(&self, io: &mut impl RingIo, table: &[usize]) -> Result<()> {
        let (m, pos, next, prev) = self.ring();
        if table.len() != m + 1 || table.last() != Some(&io.len()) {
            return Err(ClusterError::InvalidArgument(format!(
                "ring chunk table {table:?} does not split {} elements {m} ways",
                io.len()
            )));
        }
        let divisor = m as f32;
        if m == 1 {
            io.alone(divisor);
            return Ok(());
        }
        let chunk = |i: usize| (table[i], table[i + 1]);
        // Holds a converted seed on big-endian targets only; on
        // little-endian ones the seeds go out from the caller's memory.
        let mut scratch: Vec<u8> = Vec::new();

        // Phase 1: reduce-scatter. Only the seed send reads our own
        // chunk; partial sums then travel (and accumulate) in wire form.
        // After m-1 steps chunk (pos+1) % m holds the full sum.
        let (ss, se) = chunk(pos);
        self.send_slice(
            next,
            kernels::f32s_wire_image(io.local(ss..se), &mut scratch),
        )?;
        for s in 0..m - 1 {
            let recv_idx = (pos + 2 * m - s - 1) % m;
            let incoming = self.recv_robust(prev)?;
            let (rs, re) = chunk(recv_idx);
            check_f32_frame(&incoming, re - rs, "reduce-scatter")?;
            if s + 1 < m - 1 {
                // Fold our contribution into the wire image and pass it
                // on (the frame is uniquely owned on a ring, so into_vec
                // reclaims the allocation without copying).
                let mut w = incoming.into_vec();
                add_f32s_into_bytes(io.local(rs..re), &mut w);
                self.send(next, Frame::from_vec(w))?;
            } else {
                // Final hop: this rank completes the sum for its chunk —
                // or, for the mean, the sum divided in the same pass —
                // which the all-gather phase then sends.
                io.complete(rs..re, &incoming, divisor);
            }
        }

        // Phase 2: all-gather of the reduced chunks. Our completed chunk
        // goes out from the result; every other frame is decoded into it
        // and forwarded as-is.
        let own = (pos + 1) % m;
        let (ss, se) = chunk(own);
        self.send_slice(
            next,
            kernels::f32s_wire_image(io.completed(ss..se)?, &mut scratch),
        )?;
        for s in 0..m - 1 {
            let recv_idx = (pos + m - s) % m;
            let incoming = self.recv_robust(prev)?;
            let (rs, re) = chunk(recv_idx);
            check_f32_frame(&incoming, re - rs, "all-gather")?;
            io.gather(rs..re, &incoming);
            if s + 1 < m - 1 {
                self.send(next, incoming)?;
            }
        }
        Ok(())
    }

    /// Ring all-gather: every member contributes one byte blob and
    /// receives everyone's, one [`Frame`] per member in position order
    /// (which, members being sorted, is rank order — at full membership
    /// index `r` is rank `r`'s blob). This is the collective
    /// non-all-reducible compressors are forced into; each worker receives
    /// `(m−1)` foreign blobs, so traffic grows linearly in `m`.
    ///
    /// Forwarding is zero-copy: each foreign blob is kept and re-sent as
    /// the same [`Frame`] (refcount bump), so a blob traverses the whole
    /// ring with exactly one allocation at its origin.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a peer hangs up.
    pub fn all_gather_bytes(&self, own: &[u8]) -> Result<Vec<Frame>> {
        let (m, pos, next, prev) = self.ring();
        let mut out: Vec<Frame> = vec![Frame::empty(); m];
        out[pos] = Frame::copy_from_slice(own);
        if m == 1 {
            return Ok(out);
        }
        let mut current = out[pos].clone();
        for s in 0..m - 1 {
            self.send(next, current)?;
            current = self.recv_robust(prev)?;
            let origin = (pos + 2 * m - s - 1) % m;
            out[origin] = current.clone();
        }
        Ok(out)
    }

    /// Broadcast from `root`: returns the root's bytes on every rank.
    /// Implemented as a binomial tree over ranks rotated so `root` is the
    /// tree root; every hop forwards the same [`Frame`] by refcount bump.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidArgument`] if `root` is out of range,
    /// a non-root passes data, or the handle's ring was shrunk.
    pub fn broadcast(&self, root: usize, data: Option<&[u8]>) -> Result<Frame> {
        // Ranks are addressed by arithmetic over `0..world`, so a shrunk
        // ring would route to (and block on) a dead rank.
        let p = self.world();
        if self.members().len() != p {
            return Err(ClusterError::InvalidArgument(format!(
                "broadcast needs all {p} ranks, but this handle's ring is {:?}",
                self.members()
            )));
        }
        if root >= p {
            return Err(ClusterError::InvalidArgument(format!(
                "broadcast root {root} out of range for world {p}"
            )));
        }
        let is_root = self.rank() == root;
        if is_root && data.is_none() {
            return Err(ClusterError::InvalidArgument(
                "broadcast root must supply data".into(),
            ));
        }
        if !is_root && data.is_some() {
            return Err(ClusterError::InvalidArgument(
                "only the broadcast root supplies data".into(),
            ));
        }
        // Virtual rank with root at 0.
        let vrank = (self.rank() + p - root) % p;
        let mut have: Option<Frame> = data.map(Frame::copy_from_slice);
        // Binomial tree: in round k (mask = 2^k), ranks with vrank < mask
        // send to vrank + mask.
        let mut mask = 1usize;
        while mask < p {
            if vrank < mask {
                let dst_v = vrank + mask;
                if dst_v < p {
                    let dst = (dst_v + root) % p;
                    let Some(payload) = have.clone() else {
                        return Err(ClusterError::Protocol(
                            "broadcast sender holds no data".into(),
                        ));
                    };
                    self.send(dst, payload)?;
                }
            } else if vrank < 2 * mask && have.is_none() {
                let src_v = vrank - mask;
                let src = (src_v + root) % p;
                have = Some(self.recv_robust(src)?);
            }
            mask <<= 1;
        }
        have.ok_or_else(|| ClusterError::Protocol("broadcast completed without data".into()))
    }

    /// Barrier: returns once every member has entered.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a peer hangs up.
    pub fn barrier(&self) -> Result<()> {
        let _ = self.all_gather_bytes(&[])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimCluster;

    /// Decodes a whole frame into a fresh `Vec<f32>`.
    fn bytes_to_f32s(bytes: &[u8]) -> Result<Vec<f32>> {
        if !bytes.len().is_multiple_of(4) {
            return Err(ClusterError::Mismatch(format!(
                "frame of {} bytes is not a whole number of f32s",
                bytes.len()
            )));
        }
        let mut out = vec![0.0f32; bytes.len() / 4];
        fill_f32s_from_bytes(&mut out, bytes);
        Ok(out)
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 5, 16] {
                let table = chunk_table(&[len], p);
                let mut covered = 0;
                for i in 0..p {
                    let (s, e) = chunk_range(len, p, i);
                    assert_eq!(s, covered, "len={len} p={p} i={i}");
                    assert_eq!((table[i], table[i + 1]), (s, e), "len={len} p={p} i={i}");
                    covered = e;
                }
                assert_eq!(covered, len);
            }
        }
        // Several buffers: fused chunk c is the sum of their chunks c.
        assert_eq!(chunk_table(&[2, 0, 7, 1], 3), [0, 5, 8, 10]);
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let outs = SimCluster::run(p, |w| {
                let mut buf: Vec<f32> = (0..10).map(|i| (w.rank() * 10 + i) as f32).collect();
                w.all_reduce_sum(&mut buf).unwrap();
                buf
            });
            for out in &outs {
                for (i, &x) in out.iter().enumerate() {
                    let expected: f32 = (0..p).map(|r| (r * 10 + i) as f32).sum();
                    assert_eq!(x, expected, "p={p} i={i}");
                }
            }
        }
    }

    #[test]
    fn all_reduce_handles_buffers_smaller_than_world() {
        // 3 elements across 8 workers: most chunks are empty.
        let outs = SimCluster::run(8, |w| {
            let mut buf = vec![1.0f32; 3];
            w.all_reduce_sum(&mut buf).unwrap();
            buf
        });
        for out in outs {
            assert_eq!(out, vec![8.0, 8.0, 8.0]);
        }
    }

    #[test]
    fn all_gather_returns_rank_ordered_blobs() {
        let outs = SimCluster::run(5, |w| w.all_gather_bytes(&[w.rank() as u8; 3]).unwrap());
        for out in outs {
            for (r, blob) in out.iter().enumerate() {
                assert_eq!(blob.as_slice(), &[r as u8; 3]);
            }
        }
    }

    #[test]
    fn all_gather_traffic_grows_linearly() {
        // Each worker forwards p-1 blobs of size b.
        let p = 6;
        let b = 1000;
        let cluster = SimCluster::new(p);
        let traffic = cluster.traffic().to_vec();
        cluster.run_workers(|h| {
            h.all_gather_bytes(&vec![0u8; b]).unwrap();
        });
        for t in traffic {
            assert_eq!(t.bytes_sent(), ((p - 1) * b) as u64);
        }
    }

    #[test]
    fn all_reduce_traffic_is_scale_free_per_worker() {
        // Ring all-reduce sends ~2*n*(p-1)/p elements per worker regardless
        // of p.
        let n = 1200usize;
        let mut per_p = Vec::new();
        for p in [3usize, 6, 12] {
            let cluster = SimCluster::new(p);
            let traffic = cluster.traffic().to_vec();
            cluster.run_workers(|h| {
                let mut buf = vec![1.0f32; n];
                h.all_reduce_sum(&mut buf).unwrap();
            });
            per_p.push(traffic[0].bytes_sent());
        }
        let max = *per_p.iter().max().unwrap() as f64;
        let min = *per_p.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.4,
            "per-worker ring traffic should be ~flat: {per_p:?}"
        );
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..5 {
            let outs = SimCluster::run(5, move |w| {
                let data = if w.rank() == root {
                    Some(vec![7u8, root as u8])
                } else {
                    None
                };
                w.broadcast(root, data.as_deref()).unwrap()
            });
            for out in outs {
                assert_eq!(out.as_slice(), &[7u8, root as u8]);
            }
        }
    }

    #[test]
    fn broadcast_argument_validation() {
        let outs = SimCluster::run(2, |w| {
            if w.rank() == 0 {
                // Root without data is an error.
                w.broadcast(0, None).is_err()
            } else {
                // Non-root with data is an error.
                w.broadcast(0, Some(&[1])).is_err()
            }
        });
        assert_eq!(outs, vec![true, true]);
    }

    #[test]
    fn barrier_completes() {
        let outs = SimCluster::run(4, |w| w.barrier().is_ok());
        assert_eq!(outs, vec![true; 4]);
    }

    #[test]
    fn non_f32_frame_is_rejected() {
        assert!(bytes_to_f32s(&[1, 2, 3]).is_err());
        assert_eq!(bytes_to_f32s(&1.0f32.to_le_bytes()).unwrap(), vec![1.0]);
    }

    /// Runs `f` on the ranks of `members` after shrinking their handles
    /// to it; the other ranks of the `world` sit out and yield `None`.
    fn run_among<R: Send>(
        world: usize,
        members: &[usize],
        f: impl Fn(&WorkerHandle) -> R + Sync,
    ) -> Vec<Option<R>> {
        SimCluster::run(world, |mut w| {
            if !members.contains(&w.rank()) {
                return None;
            }
            w.set_members(members).unwrap();
            Some(f(&w))
        })
    }

    #[test]
    fn shrunk_ring_sums_only_members() {
        // Ranks {0, 2, 3} of a 5-rank world reduce among themselves while
        // the others sit out.
        let members = [0usize, 2, 3];
        let outs = run_among(5, &members, |w| {
            let mut buf = vec![(w.rank() + 1) as f32; 7];
            w.all_reduce_sum(&mut buf).unwrap();
            buf
        });
        for (rank, out) in outs.iter().enumerate() {
            match out {
                Some(buf) => assert_eq!(buf, &vec![8.0f32; 7], "rank {rank}"), // 1+3+4
                None => assert!(!members.contains(&rank)),
            }
        }
    }

    #[test]
    fn sum_over_member_count_is_the_live_mean() {
        let mean = |w: &WorkerHandle| {
            let mut buf = vec![w.rank() as f32];
            w.all_reduce_sum(&mut buf).unwrap();
            buf[0] / w.members().len() as f32
        };
        let full = SimCluster::run(4, |w| mean(&w));
        assert_eq!(full, vec![1.5; 4]); // (0 + 1 + 2 + 3) / 4
        let shrunk = run_among(4, &[1, 3], mean);
        assert_eq!(shrunk, vec![None, Some(2.0), None, Some(2.0)]); // (1 + 3) / 2
    }

    #[test]
    fn shrunk_gather_returns_position_ordered_blobs() {
        let members = [0usize, 1, 4];
        let outs = run_among(5, &members, |w| {
            w.all_gather_bytes(&[w.rank() as u8; 3]).unwrap()
        });
        for out in outs.into_iter().flatten() {
            assert_eq!(out.len(), 3);
            for (pos, blob) in out.iter().enumerate() {
                assert_eq!(blob.as_slice(), &[members[pos] as u8; 3]);
            }
        }
    }

    #[test]
    fn set_members_rejects_malformed_lists() {
        let outs = SimCluster::run(3, |mut w| {
            let empty = w.set_members(&[]).is_err();
            let unsorted = w.set_members(&[2, 0, 1]).is_err();
            let dup = w.set_members(&[0, 0, 1, 2]).is_err();
            let out_of_range = w.set_members(&[0, 1, 7]).is_err();
            let missing_self = if w.rank() == 2 {
                w.set_members(&[0, 1]).is_err()
            } else {
                true
            };
            // A rejected list leaves the full ring in place.
            let kept = w.members() == [0, 1, 2];
            let mut buf = vec![1.0f32; 4];
            w.all_reduce_sum(&mut buf).unwrap();
            empty && unsorted && dup && out_of_range && missing_self && kept && buf == [3.0; 4]
        });
        assert_eq!(outs, vec![true; 3]);
    }

    #[test]
    fn single_member_ring_is_noop() {
        let outs = SimCluster::run(2, |mut w| {
            w.set_members(&[w.rank()]).unwrap();
            let mut buf = vec![3.5f32; 2];
            w.all_reduce_sum(&mut buf).unwrap();
            let gathered = w.all_gather_bytes(&[9u8]).unwrap();
            w.barrier().unwrap();
            (buf, gathered.len(), w.ring_next(), w.ring_prev())
        });
        for (rank, (buf, n, next, prev)) in outs.into_iter().enumerate() {
            assert_eq!(buf, vec![3.5f32; 2]);
            assert_eq!((n, next, prev), (1, rank, rank));
        }
    }

    #[test]
    fn rank_addressed_collectives_refuse_a_shrunk_ring() {
        // Rank 3 is gone; the survivors' handles ring over {0, 1, 2}.
        // Broadcast routes by rank over the whole world, so it must fail
        // at once instead of addressing (and blocking on) rank 3.
        let outs = run_among(4, &[0, 1, 2], |w| {
            let data = (w.rank() == 0).then_some(&[1u8][..]);
            matches!(w.broadcast(0, data), Err(ClusterError::InvalidArgument(_)))
        });
        assert_eq!(outs, vec![Some(true), Some(true), Some(true), None]);
    }
}
