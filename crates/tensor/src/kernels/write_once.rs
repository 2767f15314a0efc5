//! [`WriteOnce`]: an `f32` output that is filled range by range, in any
//! order, each element exactly once, and never zero-filled first.
//!
//! The ring all-reduce's out-of-place mean (`gcs-cluster`) writes its
//! result in two places only — each chunk's final reduce-scatter hop and
//! the all-gather — so a fresh `vec![0.0; n]` would be a whole extra pass
//! over a model-sized buffer. The cluster crate forbids `unsafe`, so the
//! uninitialised memory lives behind this safe type: the fills write every
//! element of their range before the range counts as filled, a range can
//! only be read back once it is filled, and [`WriteOnce::into_vec`] hands
//! out the buffer only when every element is.

use super::{add_from_bytes_then_divide, MEAN_BLOCK};
use std::mem::MaybeUninit;
use std::ops::Range;

/// A fixed-length `f32` buffer written range by range, never zero-filled.
///
/// Filling an element twice, or out of bounds, is a contract violation and
/// panics (like the kernel wrappers' length asserts); reading an unfilled
/// range and finishing with a gap are refused with `None`. Dropping a
/// half-filled buffer (a collective that failed midway) is fine.
pub struct WriteOnce {
    buf: Box<[MaybeUninit<f32>]>,
    /// The filled ranges: sorted, disjoint, adjacent ones merged. Only
    /// ever extended *after* every element of a range was written.
    filled: Vec<Range<usize>>,
}

impl WriteOnce {
    /// An unfilled buffer of `len` elements (allocated, not written).
    pub fn new(len: usize) -> Self {
        WriteOnce {
            buf: Box::new_uninit_slice(len),
            filled: Vec::new(),
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The ring mean's final hop into `[start, start + xs.len())`:
    /// `(x + decode(w)) / divisor` per element. Each `MEAN_BLOCK` block is
    /// a copy of `xs` that [`add_from_bytes_then_divide`] updates while it
    /// is in L1 — the in-place form run on a copy of `xs`, so the bits are
    /// the same.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != 4 * xs.len()`, or the range is out of
    /// bounds or overlaps a filled one.
    pub fn fill_add_from_bytes_then_divide(
        &mut self,
        start: usize,
        xs: &[f32],
        bytes: &[u8],
        divisor: f32,
    ) {
        assert_eq!(bytes.len(), xs.len() * 4, "add_from_bytes byte count");
        let range = start..start + xs.len();
        let out = self.unfilled(range.clone());
        for ((block, x), w) in out
            .chunks_mut(MEAN_BLOCK)
            .zip(xs.chunks(MEAN_BLOCK))
            .zip(bytes.chunks(4 * MEAN_BLOCK))
        {
            add_from_bytes_then_divide(w, block.write_copy_of_slice(x), divisor);
        }
        self.mark_filled(range);
    }

    /// `[start, start + bytes.len() / 4)` ← the little-endian `f32`s of
    /// `bytes` (the all-gather's decode).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of 4, or the range is out
    /// of bounds or overlaps a filled one.
    pub fn fill_from_bytes(&mut self, start: usize, bytes: &[u8]) {
        assert!(bytes.len().is_multiple_of(4), "bytes_to_f32s byte count");
        let range = start..start + bytes.len() / 4;
        let out = self.unfilled(range.clone());
        for (o, w) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            o.write(f32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
        self.mark_filled(range);
    }

    /// `[start, start + xs.len())` ← `x / divisor` per element (IEEE
    /// division, as [`super::divide`]).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or overlaps a filled one.
    pub fn fill_divided(&mut self, start: usize, xs: &[f32], divisor: f32) {
        let range = start..start + xs.len();
        super::divide(
            self.unfilled(range.clone()).write_copy_of_slice(xs),
            divisor,
        );
        self.mark_filled(range);
    }

    /// The filled elements `range`, or `None` unless every one of them is
    /// filled.
    pub fn filled(&self, range: Range<usize>) -> Option<&[f32]> {
        if range.start > range.end || range.end > self.len() {
            return None;
        }
        let covered = range.is_empty() || {
            let i = self.filled.partition_point(|f| f.end <= range.start);
            self.filled
                .get(i)
                .is_some_and(|f| f.start <= range.start && range.end <= f.end)
        };
        if !covered {
            return None;
        }
        let part = &self.buf[range];
        // SAFETY: every element of `part` lies in one filled range, and a
        // range is only recorded as filled after all of its elements were
        // written; `MaybeUninit<f32>` has the layout of `f32`.
        Some(unsafe { &*(part as *const [MaybeUninit<f32>] as *const [f32]) })
    }

    /// The whole buffer, or `None` unless every element is filled.
    pub fn into_vec(self) -> Option<Vec<f32>> {
        let complete = match self.filled.as_slice() {
            [] => self.buf.is_empty(),
            [only] => *only == (0..self.buf.len()),
            _ => false,
        };
        // SAFETY: the single merged filled range spans the whole buffer
        // (or the buffer is empty), so every element was written.
        complete.then(|| unsafe { self.buf.assume_init() }.into_vec())
    }

    /// `range` of the buffer, checked in bounds and disjoint from every
    /// filled range.
    fn unfilled(&mut self, range: Range<usize>) -> &mut [MaybeUninit<f32>] {
        assert!(
            range.end <= self.len(),
            "write-once range {range:?} out of bounds for {} elements",
            self.len()
        );
        let i = self.filled.partition_point(|f| f.end <= range.start);
        assert!(
            range.is_empty() || self.filled.get(i).is_none_or(|f| range.end <= f.start),
            "write-once range {range:?} overlaps a filled one"
        );
        &mut self.buf[range]
    }

    /// Records `range` (already written in full) as filled, merging it
    /// with adjacent filled ranges.
    fn mark_filled(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let i = self.filled.partition_point(|f| f.end <= range.start);
        let joins_prev = i > 0 && self.filled[i - 1].end == range.start;
        let joins_next = self.filled.get(i).is_some_and(|f| f.start == range.end);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.filled[i - 1].end = self.filled[i].end;
                self.filled.remove(i);
            }
            (true, false) => self.filled[i - 1].end = range.end,
            (false, true) => self.filled[i].start = range.start,
            (false, false) => self.filled.insert(i, range),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_fill_in_any_order_and_finish_once_covered() {
        let mut out = WriteOnce::new(10);
        out.fill_from_bytes(6, &[1.0f32, 2.0].map(f32::to_le_bytes).concat());
        out.fill_divided(0, &[4.0, 6.0], 2.0);
        assert_eq!(out.filled(6..8), Some(&[1.0f32, 2.0][..]));
        assert_eq!(out.filled(0..2), Some(&[2.0f32, 3.0][..]));
        // The gap [2, 6) and [8, 10) are unfilled: reads across them and
        // the finish are refused.
        assert_eq!(out.filled(1..3), None);
        assert_eq!(out.filled(7..9), None);
        assert_eq!(out.filled(11..12), None);
        out.fill_divided(8, &[5.0, 7.0], 1.0);
        let wire = [9.0f32, 10.0, 11.0, 12.0].map(f32::to_le_bytes).concat();
        out.fill_add_from_bytes_then_divide(2, &[1.0, 2.0, 3.0, 4.0], &wire, 2.0);
        // Adjacent fills merge, so a read may span several of them.
        assert_eq!(out.filled(1..9).map(<[f32]>::len), Some(8));
        assert_eq!(
            out.into_vec(),
            Some(vec![2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 1.0, 2.0, 5.0, 7.0])
        );
    }

    #[test]
    fn a_gap_refuses_the_finish() {
        let mut out = WriteOnce::new(5);
        out.fill_divided(0, &[1.0, 2.0], 1.0);
        out.fill_divided(3, &[1.0, 2.0], 1.0);
        assert_eq!(out.into_vec(), None);
        assert_eq!(WriteOnce::new(3).into_vec(), None);
        assert_eq!(WriteOnce::new(0).into_vec(), Some(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "overlaps a filled one")]
    fn a_second_write_is_refused() {
        let mut out = WriteOnce::new(4);
        out.fill_divided(1, &[1.0, 2.0], 1.0);
        out.fill_divided(2, &[3.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_out_of_bounds_write_is_refused() {
        WriteOnce::new(4).fill_divided(3, &[1.0, 2.0], 1.0);
    }
}
