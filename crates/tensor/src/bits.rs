//! Sign bit-packing and majority voting — the SignSGD kernels.
//!
//! SignSGD transmits one bit per 32-bit gradient element (`sign(g)`), and
//! aggregation is a per-coordinate majority vote:
//! `sign(Σᵢ sign(gᵢ))` (Section 2.1 of the paper).
//!
//! The pack/unpack inner loops dispatch through [`crate::kernels`], so
//! they run vectorized (AVX-512 or AVX2 where detected) with
//! byte-identical results to the scalar fallback. The vote never leaves
//! the packed domain: [`MajorityVote`] counts bit-sliced, 32 coordinates
//! per word operation, in plain loops that LLVM vectorizes.

use crate::kernels;

/// A packed vector of signs: bit = 1 means the element was non-negative.
///
/// `len` elements are packed into `ceil(len / 32)` `u32` words, LSB-first
/// within each word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignBits {
    words: Vec<u32>,
    len: usize,
}

impl SignBits {
    /// Packs the signs of `data` (one bit per element). Word-parallel:
    /// 32 elements per output word, no per-element division.
    pub fn pack(data: &[f32]) -> Self {
        let len = data.len();
        let mut words = vec![0u32; len.div_ceil(32)];
        kernels::sign_pack(data, &mut words);
        SignBits { words, len }
    }

    /// Reconstructs a `±1.0` vector, optionally scaled by `scale`.
    ///
    /// Element `i` becomes `+scale` if bit `i` is set, `-scale` otherwise.
    pub fn unpack(&self, scale: f32) -> Vec<f32> {
        let mut out = vec![0.0; self.len];
        kernels::unpack_fill(&self.words, -scale, scale, &mut out);
        out
    }

    /// [`unpack`](Self::unpack) with an asymmetric value pair: element `i`
    /// becomes `pos` if bit `i` is set, `neg` otherwise (1-bit SGD keeps
    /// distinct per-bucket means for the two halves).
    pub fn unpack_into(&self, neg: f32, pos: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "unpack_into length mismatch");
        kernels::unpack_fill(&self.words, neg, pos, out);
    }

    /// Accumulating unpack: `out[i] += if bit i { pos } else { neg }`.
    pub fn unpack_add_into(&self, neg: f32, pos: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "unpack_add_into length mismatch");
        kernels::unpack_add(&self.words, neg, pos, out);
    }

    /// Number of packed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no elements are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes of the packed representation.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Whether bit `i` is set (element was non-negative).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of bounds");
        (self.words[i / 32] >> (i % 32)) & 1 == 1
    }

    /// The raw packed words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Consumes the packing and returns the word buffer.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Reconstructs from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too short for `len` elements.
    pub fn from_words(words: Vec<u32>, len: usize) -> Self {
        assert!(words.len() * 32 >= len, "word buffer too short");
        SignBits { words, len }
    }
}

/// Accumulates sign votes from multiple workers and takes the majority —
/// SignSGD's non-associative aggregation (`sign(Σ sign(g))`).
///
/// This aggregation is *not* all-reduce compatible: the inner sum must see
/// every worker's vote before the outer sign is applied, which is why
/// SignSGD has to use all-gather in the paper's experiments.
///
/// The count stays in the packed domain: plane `j` holds bit `j` of every
/// coordinate's positive-vote count, 32 coordinates per `u32`, so `p`
/// voters need `⌈log2(p+1)⌉` planes of `⌈len/32⌉` words. A vote ripples
/// its bits through the planes as a carry, and the outcome is one
/// bit-sliced compare `count ≥ ⌈p/2⌉` — the same decision as
/// `Σ ±1 ≥ 0`, so exact ties and zero voters give `+`.
///
/// # Example
///
/// ```
/// use gcs_tensor::bits::{MajorityVote, SignBits};
///
/// let mut vote = MajorityVote::new(3);
/// vote.add(&SignBits::pack(&[-0.5, 1.0, 2.0]));
/// vote.add(&SignBits::pack(&[-0.1, -3.0, 1.0]));
/// vote.add(&SignBits::pack(&[-1.7, 4.0, -0.2]));
/// assert_eq!(vote.majority(1.0), vec![-1.0, 1.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MajorityVote {
    /// `planes[j]` word `w`, bit `b`: bit `j` of coordinate `32w + b`'s
    /// count of positive votes.
    planes: Vec<Vec<u32>>,
    /// Scratch for the carry a vote ripples through the planes.
    carry: Vec<u32>,
    len: usize,
    voters: usize,
}

impl MajorityVote {
    /// Creates a vote accumulator for `len`-element sign vectors.
    pub fn new(len: usize) -> Self {
        MajorityVote {
            planes: Vec::new(),
            carry: Vec::new(),
            len,
            voters: 0,
        }
    }

    /// Adds one worker's sign vector to the count.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the accumulator length.
    pub fn add(&mut self, bits: &SignBits) {
        assert_eq!(bits.len(), self.len, "vote length mismatch");
        let n_words = self.len.div_ceil(32);
        self.voters += 1;
        // The count can now reach `voters`, so it needs one more plane
        // each time `voters` reaches a power of two.
        if self.voters >> self.planes.len() != 0 {
            self.planes.push(vec![0; n_words]);
        }
        self.carry.clear();
        self.carry.extend_from_slice(&bits.words()[..n_words]);
        if let Some(last) = self.carry.last_mut() {
            *last &= tail_mask(self.len);
        }
        // Half adders, one plane at a time: sum = plane ^ carry,
        // carry' = plane & carry.
        for plane in &mut self.planes {
            for (p, c) in plane.iter_mut().zip(&mut self.carry) {
                let sum = *p ^ *c;
                *c &= *p;
                *p = sum;
            }
        }
    }

    /// Number of votes received so far.
    pub fn voters(&self) -> usize {
        self.voters
    }

    /// Resolves the majority as a `±scale` dense vector. Exact ties resolve
    /// to `+scale` (consistent with `sign(0) = +1` under `x >= 0` packing).
    pub fn majority(&self, scale: f32) -> Vec<f32> {
        self.majority_bits().unpack(scale)
    }

    /// Resolves the majority directly into packed form (what the server
    /// would broadcast back). Bits past `len` in the last word are zero.
    pub fn majority_bits(&self) -> SignBits {
        // `count ≥ t` from the least significant plane up: where the count
        // and `t` agree on bit `j`, the lower bits decide; otherwise bit `j`
        // does. Starting from "equal" (all ones) makes `t = 0` all `+`.
        let t = self.voters.div_ceil(2);
        let mut ge = vec![u32::MAX; self.len.div_ceil(32)];
        for (j, plane) in self.planes.iter().enumerate() {
            let t_bit = (t >> j) & 1 == 1;
            for (g, &c) in ge.iter_mut().zip(plane) {
                *g = if t_bit { c & *g } else { c | *g };
            }
        }
        if let Some(last) = ge.last_mut() {
            *last &= tail_mask(self.len);
        }
        SignBits {
            words: ge,
            len: self.len,
        }
    }
}

/// The valid bits of the last word of a `len`-element packing.
fn tail_mask(len: usize) -> u32 {
    match len % 32 {
        0 => u32::MAX,
        r => (1 << r) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let data = [1.5, -0.2, 0.0, -7.0, 3.3];
        let bits = SignBits::pack(&data);
        assert_eq!(bits.len(), 5);
        assert_eq!(bits.unpack(1.0), vec![1.0, -1.0, 1.0, -1.0, 1.0]);
        assert_eq!(bits.unpack(0.5), vec![0.5, -0.5, 0.5, -0.5, 0.5]);
    }

    #[test]
    fn packing_is_32x_compression() {
        let data = vec![1.0f32; 1024];
        let bits = SignBits::pack(&data);
        assert_eq!(bits.size_bytes(), 1024 / 8);
        // 4 bytes/f32 vs 1/8 byte/element = 32x.
        assert_eq!(data.len() * 4 / bits.size_bytes(), 32);
    }

    #[test]
    fn pack_crosses_word_boundaries() {
        let data: Vec<f32> = (0..100)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let bits = SignBits::pack(&data);
        for i in 0..100 {
            assert_eq!(bits.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn majority_vote_example_from_paper() {
        // Paper: coordinate values -0.5, -0.1, -1.7, 2 vote to -1.
        let mut vote = MajorityVote::new(1);
        for v in [-0.5f32, -0.1, -1.7, 2.0] {
            vote.add(&SignBits::pack(&[v]));
        }
        assert_eq!(vote.majority(1.0), vec![-1.0]);
        assert_eq!(vote.voters(), 4);
    }

    #[test]
    fn majority_tie_is_positive() {
        let mut vote = MajorityVote::new(1);
        vote.add(&SignBits::pack(&[1.0]));
        vote.add(&SignBits::pack(&[-1.0]));
        assert_eq!(vote.majority(1.0), vec![1.0]);
    }

    #[test]
    fn majority_bits_matches_dense_majority() {
        let mut vote = MajorityVote::new(40);
        for seed in 0..5u64 {
            let t = crate::Tensor::randn([40], seed);
            vote.add(&SignBits::pack(t.data()));
        }
        let dense = vote.majority(1.0);
        let packed = vote.majority_bits().unpack(1.0);
        assert_eq!(dense, packed);
    }

    #[test]
    fn from_words_roundtrip() {
        let bits = SignBits::pack(&[1.0, -1.0, 1.0]);
        let rebuilt = SignBits::from_words(bits.words().to_vec(), bits.len());
        assert_eq!(bits, rebuilt);
    }

    #[test]
    #[should_panic(expected = "word buffer too short")]
    fn from_words_validates_len() {
        let _ = SignBits::from_words(vec![0u32], 64);
    }
}
