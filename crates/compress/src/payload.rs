//! Compressed gradient payloads and their wire format.
//!
//! Payloads are what workers actually exchange. [`Payload::wire_bytes`] is
//! the size the network simulator charges for, and [`Payload::to_bytes`] /
//! [`Payload::from_bytes`] give a concrete little-endian serialization used
//! by the in-process cluster transport.

use crate::{CompressError, Result};
use gcs_tensor::f16::{decode_f16, encode_f16};
use gcs_tensor::{kernels, Shape, Tensor};
use std::collections::HashMap;

/// Which low-rank factor a [`Payload::Factor`] carries (PowerSGD sends `P`
/// then `Q`, paying the all-reduce latency twice — see §4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Factor {
    /// The `m x r` left factor.
    P,
    /// The `n x r` right factor.
    Q,
}

/// Guards the `usize → u32` narrowing every sparse encoder performs when it
/// pushes coordinate indices: a tensor beyond the `u32` index space must
/// fail loudly with a typed [`CompressError::Wire`] before any index is
/// emitted, never truncate silently on the TCP framing.
pub(crate) fn check_sparse_index_space(n: usize) -> Result<()> {
    if u32::try_from(n).is_err() {
        return Err(CompressError::Wire(format!(
            "tensor of {n} elements exceeds the u32 sparse-index space"
        )));
    }
    Ok(())
}

/// Checks a sparsifier's keep-fraction: unless `0 < ratio <= 1`, an
/// [`CompressError::InvalidConfig`] that calls it `what`.
pub(crate) fn check_ratio(what: &str, ratio: f64) -> Result<()> {
    if !(ratio > 0.0 && ratio <= 1.0) {
        return Err(CompressError::InvalidConfig(format!(
            "{what} must be in (0, 1], got {ratio}"
        )));
    }
    Ok(())
}

/// Coordinates a sparsifier keeping `ratio` of `numel` sends: the
/// rounded product, at least 1.
pub(crate) fn kept(numel: usize, ratio: f64) -> usize {
    ((numel as f64 * ratio).round() as usize).clamp(1, numel.max(1))
}

/// `dense[i] += v` for each sparse `(i, v)` pair. The pairs come off the
/// wire, so a peer's index past `dense.len()` is a typed
/// [`CompressError::Protocol`], never a panic in the data plane.
pub(crate) fn scatter_add_checked(
    dense: &mut [f32],
    indices: &[u32],
    values: &[f32],
) -> Result<()> {
    for (&i, &v) in indices.iter().zip(values) {
        let slot = dense
            .get_mut(i as usize)
            .ok_or_else(|| CompressError::Protocol(format!("index {i} out of bounds")))?;
        // Bounds-checked sparse scatter-add; no bulk kernel applies to
        // indexed single-element updates.
        *slot += v; // lint: allow(raw-f32-accumulation)
    }
    Ok(())
}

/// Checks every gathered payload before an `aggregate` allocates anything
/// sized by one of them: each must be the variant `view` accepts
/// (`expected` names it), and all must agree on the dense length `view`
/// reads. Peers supply every length but the receiver's own, which is
/// always in the set, so agreement bounds the allocation by what this
/// rank encoded. Returns that length and every payload's view, in order.
///
/// # Errors
///
/// [`CompressError::EmptyAggregate`] for no payloads,
/// [`CompressError::PayloadKind`] for a payload of another variant, and
/// [`CompressError::Protocol`] if the lengths disagree.
pub(crate) fn agreed_views<'a, T>(
    payloads: &'a [Payload],
    expected: &'static str,
    view: impl Fn(&'a Payload) -> Option<(usize, T)>,
) -> Result<(usize, Vec<T>)> {
    let views = payloads
        .iter()
        .map(|p| {
            view(p).ok_or_else(|| CompressError::PayloadKind {
                expected,
                actual: p.kind_name(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let Some(&(len, _)) = views.first() else {
        return Err(CompressError::EmptyAggregate);
    };
    if views.iter().any(|&(l, _)| l != len) {
        return Err(CompressError::Protocol(format!(
            "{expected} payloads disagree on length"
        )));
    }
    Ok((len, views.into_iter().map(|(_, v)| v).collect()))
}

/// The mean of `Sparse` payloads as a `Dense` one: the aggregate of the
/// sparsifiers (Top-K, DGC, variance-based), whose coordinate sets
/// differ across workers.
///
/// # Errors
///
/// As [`agreed_views`], plus [`CompressError::Protocol`] for an index
/// past the dense length.
pub(crate) fn sparse_mean(payloads: &[Payload]) -> Result<Payload> {
    let (len, pairs) = agreed_views(payloads, "Sparse", |p| match p {
        Payload::Sparse {
            len,
            indices,
            values,
        } => Some((*len, (indices, values))),
        _ => None,
    })?;
    let mut dense = vec![0.0; len];
    for (indices, values) in pairs {
        scatter_add_checked(&mut dense, indices, values)?;
    }
    kernels::scale(&mut dense, 1.0 / payloads.len() as f32);
    Ok(Payload::Dense(dense))
}

/// The mean of summable payloads, the aggregate of the all-reducible
/// methods: the first plus the others, scaled by `1/n`. Fails on no
/// payloads, or as [`Payload::add_assign`] on mismatched ones.
pub(crate) fn summable_mean(payloads: &[Payload]) -> Result<Payload> {
    let (first, rest) = payloads
        .split_first()
        .ok_or(CompressError::EmptyAggregate)?;
    let mut acc = first.clone();
    for p in rest {
        acc.add_assign(p)?;
    }
    acc.scale(1.0 / payloads.len() as f32)?;
    Ok(acc)
}

/// The mean of payloads that each `decode` to a dense vector, as a `Dense`
/// one: the first decoded vector, plus each later one as it is decoded,
/// times `1/n`. `decode` returns `None` for a payload of another variant
/// than `expected`, which fails as [`CompressError::PayloadKind`]; decoded
/// lengths that disagree fail as [`CompressError::Protocol`].
pub(crate) fn decoded_mean(
    payloads: &[Payload],
    expected: &'static str,
    decode: impl Fn(&Payload) -> Option<Result<Vec<f32>>>,
) -> Result<Payload> {
    let mut acc: Option<Vec<f32>> = None;
    for p in payloads {
        let dense = decode(p).ok_or_else(|| CompressError::PayloadKind {
            expected,
            actual: p.kind_name(),
        })??;
        match &mut acc {
            None => acc = Some(dense),
            Some(a) if a.len() == dense.len() => kernels::add_assign(a, &dense),
            Some(_) => {
                return Err(CompressError::Protocol(format!(
                    "{expected} payloads disagree on length"
                )))
            }
        }
    }
    let mut a = acc.ok_or(CompressError::EmptyAggregate)?;
    kernels::scale(&mut a, 1.0 / payloads.len() as f32);
    Ok(Payload::Dense(a))
}

/// What each layer absorbed from its one round, held until `finish`: the
/// single-round half of the [`Compressor`](crate::Compressor) protocol,
/// shared by every method but PowerSGD. `T` is the part of the aggregated
/// payload the method decodes in `finish` (by default a `Dense` mean).
#[derive(Debug, Default)]
pub(crate) struct Absorbed<T = Vec<f32>>(HashMap<usize, T>);

impl<T> Absorbed<T> {
    /// `absorb` for the single-round method `name`: keeps what `view`
    /// takes out of `agg` for `layer`. A round other than 0 is a
    /// [`CompressError::Protocol`]; `view` returns `None` for a payload of
    /// another variant than `expected`, a [`CompressError::PayloadKind`].
    pub(crate) fn absorb(
        &mut self,
        name: &str,
        layer: usize,
        round: usize,
        agg: Payload,
        expected: &'static str,
        view: impl FnOnce(Payload) -> Option<T>,
    ) -> Result<()> {
        if round != 0 {
            return Err(CompressError::Protocol(format!(
                "{name} has a single round, got {round}"
            )));
        }
        let actual = agg.kind_name();
        let v = view(agg).ok_or(CompressError::PayloadKind { expected, actual })?;
        self.0.insert(layer, v);
        Ok(())
    }

    /// Removes what `layer` absorbed, for `finish`; a
    /// [`CompressError::Protocol`] if nothing was absorbed since.
    pub(crate) fn take(&mut self, layer: usize) -> Result<T> {
        self.0.remove(&layer).ok_or_else(|| {
            CompressError::Protocol(format!("finish before absorb for layer {layer}"))
        })
    }

    /// Drops everything absorbed (`reset`).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

impl Absorbed {
    /// [`absorb`](Absorbed::absorb) of a `Dense` aggregate.
    pub(crate) fn absorb_dense(
        &mut self,
        name: &str,
        layer: usize,
        round: usize,
        agg: Payload,
    ) -> Result<()> {
        self.absorb(name, layer, round, agg, "Dense", |p| match p {
            Payload::Dense(v) => Some(v),
            _ => None,
        })
    }

    /// `finish` of a `Dense` aggregate: the mean itself, in `shape`.
    pub(crate) fn finish_dense(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        Tensor::from_shape_vec(shape.clone(), self.take(layer)?).map_err(Into::into)
    }
}

/// A compressed gradient in one of the representations used by the schemes
/// in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Uncompressed `f32` values (syncSGD, and dense intermediates).
    Dense(Vec<f32>),
    /// IEEE binary16 bit patterns (FP16 baseline).
    Half(Vec<u16>),
    /// Sparse coordinates: indices + values of a length-`len` vector.
    Sparse {
        /// Length of the underlying dense vector.
        len: usize,
        /// Flat coordinate indices.
        indices: Vec<u32>,
        /// Values at those coordinates.
        values: Vec<f32>,
    },
    /// Values-only sparse payload where the coordinate set is implied by a
    /// seed all workers share (Random-K) — this is what makes the method
    /// all-reducible at `k * 4` bytes.
    SharedSparse {
        /// Length of the underlying dense vector.
        len: usize,
        /// Seed identifying the shared coordinate set.
        seed: u64,
        /// Values at the shared coordinates.
        values: Vec<f32>,
    },
    /// One sign bit per element plus a scale (SignSGD).
    Signs {
        /// Packed sign words (LSB-first), 1 = non-negative.
        words: Vec<u32>,
        /// Number of packed elements.
        len: usize,
        /// Magnitude each sign is decoded to.
        scale: f32,
    },
    /// One low-rank factor (`rows x cols` row-major, `cols` = rank).
    Factor {
        /// Which factor this is.
        which: Factor,
        /// Rows of this factor.
        rows: usize,
        /// Columns of this factor (the compression rank).
        cols: usize,
        /// Row-major factor data.
        data: Vec<f32>,
    },
    /// Signed integer levels with a scale (QSGD): element ≈ `scale * level`.
    Quantized {
        /// Per-tensor scale.
        scale: f32,
        /// Quantization levels (`-s..=s`).
        levels: Vec<i8>,
    },
    /// 2-bit packed ternary values in `{-1, 0, +1}` times a scale (TernGrad).
    Ternary {
        /// Number of encoded elements.
        len: usize,
        /// Per-tensor scale (max |g|).
        scale: f32,
        /// 2 bits per element, 4 elements per byte: `00`=0, `01`=+1, `10`=−1.
        packed: Vec<u8>,
    },
    /// A truncated SVD triplet `U · diag(S) · Vᵀ` (ATOMO). Not summable —
    /// singular bases differ per worker, so aggregation needs all-gather.
    Svd {
        /// Rows of the matricized gradient.
        rows: usize,
        /// Columns of the matricized gradient.
        cols: usize,
        /// Retained rank.
        rank: usize,
        /// `rows x rank` left singular vectors, row-major.
        u: Vec<f32>,
        /// `rank` singular values.
        s: Vec<f32>,
        /// `cols x rank` right singular vectors, row-major.
        v: Vec<f32>,
    },
    /// One bit per element with separate negative/positive reconstruction
    /// values (1-bit SGD).
    TwoScale {
        /// Packed sign words, 1 = positive bucket.
        words: Vec<u32>,
        /// Number of packed elements.
        len: usize,
        /// Reconstruction value for the 0 bucket (≤ 0 in practice).
        neg: f32,
        /// Reconstruction value for the 1 bucket.
        pos: f32,
    },
}

/// The reassembly recipe for a summable payload: everything except the f32
/// content that actually rides the ring.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadShell {
    /// Rebuilds [`Payload::Dense`].
    Dense,
    /// Rebuilds [`Payload::Half`] by re-rounding the reduced f32 image.
    Half,
    /// Rebuilds [`Payload::Factor`].
    Factor {
        /// Which factor this is.
        which: Factor,
        /// Rows of the factor.
        rows: usize,
        /// Columns of the factor.
        cols: usize,
    },
    /// Rebuilds [`Payload::SharedSparse`].
    SharedSparse {
        /// Length of the underlying dense vector.
        len: usize,
        /// Seed identifying the shared coordinate set.
        seed: u64,
    },
}

impl PayloadShell {
    /// Splits a summable payload into its shell and the f32 image that
    /// rides the ring (a [`Payload::Half`] image is its f16 values decoded
    /// to f32); a gather payload comes back unchanged as `Err`. The inverse
    /// of [`PayloadShell::assemble`].
    ///
    /// # Errors
    ///
    /// Returns the payload itself when it is not summable.
    pub fn split(payload: Payload) -> std::result::Result<(PayloadShell, Vec<f32>), Payload> {
        Ok(match payload {
            Payload::Dense(v) => (PayloadShell::Dense, v),
            Payload::Half(h) => (PayloadShell::Half, decode_f16(&h)),
            Payload::Factor {
                which,
                rows,
                cols,
                data,
            } => (PayloadShell::Factor { which, rows, cols }, data),
            Payload::SharedSparse { len, seed, values } => {
                (PayloadShell::SharedSparse { len, seed }, values)
            }
            other => return Err(other),
        })
    }

    /// Rebuilds the payload around a reduced f32 image — the inverse of
    /// [`PayloadShell::split`] (a `Half` image is re-rounded to f16).
    pub fn assemble(&self, data: Vec<f32>) -> Payload {
        match self {
            PayloadShell::Dense => Payload::Dense(data),
            PayloadShell::Half => Payload::Half(encode_f16(&data)),
            PayloadShell::Factor { which, rows, cols } => Payload::Factor {
                which: *which,
                rows: *rows,
                cols: *cols,
                data,
            },
            PayloadShell::SharedSparse { len, seed } => Payload::SharedSparse {
                len: *len,
                seed: *seed,
                values: data,
            },
        }
    }
}

/// Wire-format tags (first byte of a serialized payload).
const TAG_DENSE: u8 = 1;
const TAG_HALF: u8 = 2;
const TAG_SPARSE: u8 = 3;
const TAG_SHARED_SPARSE: u8 = 4;
const TAG_SIGNS: u8 = 5;
const TAG_FACTOR_P: u8 = 6;
const TAG_FACTOR_Q: u8 = 7;
const TAG_QUANTIZED: u8 = 8;
const TAG_TERNARY: u8 = 9;
const TAG_TWO_SCALE: u8 = 10;
const TAG_SVD: u8 = 11;

impl Payload {
    /// The variant name, for diagnostics and
    /// [`CompressError::PayloadKind`].
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Dense(_) => "Dense",
            Payload::Half(_) => "Half",
            Payload::Sparse { .. } => "Sparse",
            Payload::SharedSparse { .. } => "SharedSparse",
            Payload::Signs { .. } => "Signs",
            Payload::Factor { .. } => "Factor",
            Payload::Quantized { .. } => "Quantized",
            Payload::Ternary { .. } => "Ternary",
            Payload::Svd { .. } => "Svd",
            Payload::TwoScale { .. } => "TwoScale",
        }
    }

    /// Bytes this payload occupies on the wire (payload data + scalar
    /// metadata; framing excluded). This is what the network cost model
    /// charges.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::Dense(v) => v.len() * 4,
            Payload::Half(v) => v.len() * 2,
            Payload::Sparse {
                indices, values, ..
            } => indices.len() * 4 + values.len() * 4,
            Payload::SharedSparse { values, .. } => values.len() * 4 + 8,
            Payload::Signs { words, .. } => words.len() * 4 + 4,
            Payload::Factor { data, .. } => data.len() * 4,
            Payload::Quantized { levels, .. } => levels.len() + 4,
            Payload::Ternary { packed, .. } => packed.len() + 4,
            Payload::Svd { u, s, v, .. } => (u.len() + s.len() + v.len()) * 4,
            Payload::TwoScale { words, .. } => words.len() * 4 + 8,
        }
    }

    /// Whether this payload supports elementwise [`Payload::add_assign`]
    /// (i.e. can travel through a sum-based all-reduce).
    pub fn is_summable(&self) -> bool {
        matches!(
            self,
            Payload::Dense(_)
                | Payload::Half(_)
                | Payload::Factor { .. }
                | Payload::SharedSparse { .. }
        )
    }

    /// Elementwise accumulation for summable payloads — the reduction the
    /// ring all-reduce applies. `Half` payloads are summed in `f32` and
    /// re-rounded, matching NCCL's fp16 all-reduce behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::PayloadKind`] if the variants differ or are
    /// not summable, and [`CompressError::Protocol`] on length / coordinate
    /// mismatches.
    pub fn add_assign(&mut self, other: &Payload) -> Result<()> {
        match (self, other) {
            (Payload::Dense(a), Payload::Dense(b)) => {
                check_len(a.len(), b.len())?;
                kernels::add_assign(a, b);
                Ok(())
            }
            (Payload::Half(a), Payload::Half(b)) => {
                check_len(a.len(), b.len())?;
                for (x, y) in a.iter_mut().zip(b) {
                    let sum =
                        gcs_tensor::f16::f16_bits_to_f32(*x) + gcs_tensor::f16::f16_bits_to_f32(*y);
                    *x = gcs_tensor::f16::f32_to_f16_bits(sum);
                }
                Ok(())
            }
            (
                Payload::Factor {
                    which: wa,
                    rows: ra,
                    cols: ca,
                    data: a,
                },
                Payload::Factor {
                    which: wb,
                    rows: rb,
                    cols: cb,
                    data: b,
                },
            ) => {
                if wa != wb || ra != rb || ca != cb {
                    return Err(CompressError::Protocol(
                        "factor payload shape mismatch".into(),
                    ));
                }
                check_len(a.len(), b.len())?;
                kernels::add_assign(a, b);
                Ok(())
            }
            (
                Payload::SharedSparse {
                    seed: sa,
                    values: a,
                    len: la,
                },
                Payload::SharedSparse {
                    seed: sb,
                    values: b,
                    len: lb,
                },
            ) => {
                if sa != sb || la != lb {
                    return Err(CompressError::Protocol(
                        "shared-sparse payloads disagree on seed or length".into(),
                    ));
                }
                check_len(a.len(), b.len())?;
                kernels::add_assign(a, b);
                Ok(())
            }
            (me, other) => Err(CompressError::PayloadKind {
                expected: "matching summable payloads",
                actual: if me.kind_name() == other.kind_name() {
                    me.kind_name()
                } else {
                    "mixed variants"
                },
            }),
        }
    }

    /// Scales a summable payload in place (used to turn sums into means).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::PayloadKind`] for non-summable variants.
    pub fn scale(&mut self, s: f32) -> Result<()> {
        match self {
            Payload::Dense(v) => {
                kernels::scale(v, s);
                Ok(())
            }
            Payload::Half(v) => {
                for x in v {
                    let scaled = gcs_tensor::f16::f16_bits_to_f32(*x) * s;
                    *x = gcs_tensor::f16::f32_to_f16_bits(scaled);
                }
                Ok(())
            }
            Payload::Factor { data, .. } => {
                kernels::scale(data, s);
                Ok(())
            }
            Payload::SharedSparse { values, .. } => {
                kernels::scale(values, s);
                Ok(())
            }
            other => Err(CompressError::PayloadKind {
                expected: "summable payload",
                actual: other.kind_name(),
            }),
        }
    }

    /// Serializes to a self-describing little-endian byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes() + 32);
        self.write_bytes(&mut out);
        out
    }

    /// Appends the serialization of this payload to `out` (the buffer is
    /// not cleared, so a caller can reuse one allocation across payloads —
    /// the DDP executor serializes every layer of every iteration through
    /// this path). Numeric arrays are written with bulk slice copies rather
    /// than per-element pushes.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_bytes() + 32);
        match self {
            Payload::Dense(v) => {
                out.push(TAG_DENSE);
                push_u64(out, v.len() as u64);
                push_f32s(out, v);
            }
            Payload::Half(v) => {
                out.push(TAG_HALF);
                push_u64(out, v.len() as u64);
                push_u16s(out, v);
            }
            Payload::Sparse {
                len,
                indices,
                values,
            } => {
                out.push(TAG_SPARSE);
                push_u64(out, *len as u64);
                push_u64(out, indices.len() as u64);
                push_u32s(out, indices);
                push_f32s(out, values);
            }
            Payload::SharedSparse { len, seed, values } => {
                out.push(TAG_SHARED_SPARSE);
                push_u64(out, *len as u64);
                push_u64(out, *seed);
                push_u64(out, values.len() as u64);
                push_f32s(out, values);
            }
            Payload::Signs { words, len, scale } => {
                out.push(TAG_SIGNS);
                push_u64(out, *len as u64);
                out.extend_from_slice(&scale.to_le_bytes());
                push_u32s(out, words);
            }
            Payload::Factor {
                which,
                rows,
                cols,
                data,
            } => {
                out.push(match which {
                    Factor::P => TAG_FACTOR_P,
                    Factor::Q => TAG_FACTOR_Q,
                });
                push_u64(out, *rows as u64);
                push_u64(out, *cols as u64);
                push_f32s(out, data);
            }
            Payload::Quantized { scale, levels } => {
                out.push(TAG_QUANTIZED);
                push_u64(out, levels.len() as u64);
                out.extend_from_slice(&scale.to_le_bytes());
                out.extend(levels.iter().map(|&l| l as u8));
            }
            Payload::Ternary { len, scale, packed } => {
                out.push(TAG_TERNARY);
                push_u64(out, *len as u64);
                out.extend_from_slice(&scale.to_le_bytes());
                out.extend_from_slice(packed);
            }
            Payload::Svd {
                rows,
                cols,
                rank,
                u,
                s,
                v,
            } => {
                out.push(TAG_SVD);
                push_u64(out, *rows as u64);
                push_u64(out, *cols as u64);
                push_u64(out, *rank as u64);
                push_f32s(out, u);
                push_f32s(out, s);
                push_f32s(out, v);
            }
            Payload::TwoScale {
                words,
                len,
                neg,
                pos,
            } => {
                out.push(TAG_TWO_SCALE);
                push_u64(out, *len as u64);
                out.extend_from_slice(&neg.to_le_bytes());
                out.extend_from_slice(&pos.to_le_bytes());
                push_u32s(out, words);
            }
        }
    }

    /// Deserializes a payload produced by [`Payload::to_bytes`] — the
    /// `n = 1` case of [`Payload::from_bytes_many`].
    ///
    /// The input must be exactly one payload: every byte is consumed, and
    /// trailing bytes (e.g. a length field that doesn't cover a whole
    /// number of elements, or a frame carrying more than it claims) are a
    /// structured error rather than being silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::Wire`] on truncated, malformed, or
    /// over-long input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Payload> {
        Self::from_bytes_many(bytes, 1)?
            .pop()
            .ok_or_else(|| CompressError::Wire("no payload parsed".into()))
    }

    /// Deserializes exactly `n` payloads written back to back by
    /// [`Payload::write_bytes`]. Each serialization is self-delimiting, so
    /// the concatenation needs no length prefix and costs no byte beyond
    /// its payloads.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::Wire`] if any payload is truncated or
    /// malformed, or if bytes remain after the `n`-th.
    pub fn from_bytes_many(bytes: &[u8], n: usize) -> Result<Vec<Payload>> {
        let mut r = Reader::new(bytes);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(r.payload()?);
        }
        if r.pos != bytes.len() {
            let after = match &out[..] {
                [one] => format!("{} payload", one.kind_name()),
                _ => format!("{n} payloads"),
            };
            return Err(CompressError::Wire(format!(
                "{} trailing bytes after {after}",
                bytes.len() - r.pos
            )));
        }
        Ok(out)
    }
}

impl Reader<'_> {
    /// Reads one payload from the cursor.
    fn payload(&mut self) -> Result<Payload> {
        let tag = self.u8()?;
        Ok(match tag {
            TAG_DENSE => {
                let n = self.u64()? as usize;
                Payload::Dense(self.f32s(n)?)
            }
            TAG_HALF => {
                let n = self.u64()? as usize;
                Payload::Half(self.u16s(n)?)
            }
            TAG_SPARSE => {
                let len = self.u64()? as usize;
                let k = self.u64()? as usize;
                let indices = self.u32s(k)?;
                let values = self.f32s(k)?;
                Payload::Sparse {
                    len,
                    indices,
                    values,
                }
            }
            TAG_SHARED_SPARSE => {
                let len = self.u64()? as usize;
                let seed = self.u64()?;
                let k = self.u64()? as usize;
                Payload::SharedSparse {
                    len,
                    seed,
                    values: self.f32s(k)?,
                }
            }
            TAG_SIGNS => {
                let len = self.u64()? as usize;
                let scale = self.f32()?;
                let words = self.u32s(len.div_ceil(32))?;
                Payload::Signs { words, len, scale }
            }
            TAG_FACTOR_P | TAG_FACTOR_Q => {
                let rows = self.u64()? as usize;
                let cols = self.u64()? as usize;
                let total = rows
                    .checked_mul(cols)
                    .ok_or_else(|| CompressError::Wire("factor dimensions overflow".into()))?;
                Payload::Factor {
                    which: if tag == TAG_FACTOR_P {
                        Factor::P
                    } else {
                        Factor::Q
                    },
                    rows,
                    cols,
                    data: self.f32s(total)?,
                }
            }
            TAG_QUANTIZED => {
                let n = self.u64()? as usize;
                let scale = self.f32()?;
                let raw = self.bytes(n)?;
                Payload::Quantized {
                    scale,
                    levels: raw.iter().map(|&b| b as i8).collect(),
                }
            }
            TAG_TERNARY => {
                let len = self.u64()? as usize;
                let scale = self.f32()?;
                let packed = self.bytes(len.div_ceil(4))?.to_vec();
                Payload::Ternary { len, scale, packed }
            }
            TAG_SVD => {
                let rows = self.u64()? as usize;
                let cols = self.u64()? as usize;
                let rank = self.u64()? as usize;
                let nu = rows.checked_mul(rank);
                let nv = cols.checked_mul(rank);
                let (nu, nv) = match (nu, nv) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(CompressError::Wire("svd dimensions overflow".into())),
                };
                Payload::Svd {
                    rows,
                    cols,
                    rank,
                    u: self.f32s(nu)?,
                    s: self.f32s(rank)?,
                    v: self.f32s(nv)?,
                }
            }
            TAG_TWO_SCALE => {
                let len = self.u64()? as usize;
                let neg = self.f32()?;
                let pos = self.f32()?;
                let words = self.u32s(len.div_ceil(32))?;
                Payload::TwoScale {
                    words,
                    len,
                    neg,
                    pos,
                }
            }
            other => {
                return Err(CompressError::Wire(format!("unknown payload tag {other}")));
            }
        })
    }
}

fn check_len(a: usize, b: usize) -> Result<()> {
    if a != b {
        return Err(CompressError::Protocol(format!(
            "payload length mismatch: {a} vs {b}"
        )));
    }
    Ok(())
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `xs` as little-endian `f32`s with one bulk resize and a
/// dispatched bulk-serialization kernel (no per-element Vec growth).
fn push_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    let start = out.len();
    out.resize(start + xs.len() * 4, 0);
    kernels::f32s_to_bytes(xs, &mut out[start..]);
}

fn push_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    let start = out.len();
    out.resize(start + xs.len() * 4, 0);
    kernels::u32s_to_bytes(xs, &mut out[start..]);
}

fn push_u16s(out: &mut Vec<u8>, xs: &[u16]) {
    let start = out.len();
    out.resize(start + xs.len() * 2, 0);
    for (chunk, x) in out[start..].chunks_exact_mut(2).zip(xs) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Minimal cursor over a byte slice with bounds-checked reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // checked_add guards against `pos + n` overflowing on adversarial
        // length fields.
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CompressError::Wire("truncated payload".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(f32::from_le_bytes(a))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let b = self.take(
            n.checked_mul(4)
                .ok_or_else(|| CompressError::Wire("length overflow".into()))?,
        )?;
        let mut out = vec![0.0f32; n];
        kernels::bytes_to_f32s(b, &mut out);
        Ok(out)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>> {
        let b = self.take(
            n.checked_mul(4)
                .ok_or_else(|| CompressError::Wire("length overflow".into()))?,
        )?;
        let mut out = vec![0u32; n];
        kernels::bytes_to_u32s(b, &mut out);
        Ok(out)
    }

    fn u16s(&mut self, n: usize) -> Result<Vec<u16>> {
        let b = self.take(
            n.checked_mul(2)
                .ok_or_else(|| CompressError::Wire("length overflow".into()))?,
        )?;
        Ok(b.chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Compressor;

    /// Asserts that `c` refuses `forged` — a payload whose peer-supplied
    /// length disagrees with `honest`'s — with a typed protocol error
    /// whichever of the two comes first, before it allocates by that
    /// length.
    pub(crate) fn assert_forged_length_refused(
        c: &dyn Compressor,
        honest: Payload,
        forged: Payload,
    ) {
        for pair in [[forged.clone(), honest.clone()], [honest, forged]] {
            let got = c.aggregate(0, &pair);
            assert!(matches!(got, Err(CompressError::Protocol(_))), "{got:?}");
        }
    }

    /// An honest 8-element `Sparse` payload, and one parsed off the wire
    /// whose length field claims 2^40 elements.
    pub(crate) fn honest_and_forged_sparse() -> (Payload, Payload) {
        let sparse = |len| Payload::Sparse {
            len,
            indices: vec![1],
            values: vec![0.5],
        };
        let forged = Payload::from_bytes(&sparse(1 << 40).to_bytes()).unwrap();
        (sparse(8), forged)
    }

    #[test]
    fn concatenated_payloads_parse_back_exactly() {
        let payloads = vec![
            Payload::Dense(vec![1.0, -2.0]),
            Payload::Signs {
                words: vec![0b101],
                len: 3,
                scale: 0.5,
            },
            Payload::Sparse {
                len: 9,
                indices: vec![4],
                values: vec![2.0],
            },
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            p.write_bytes(&mut wire);
        }
        let total: usize = payloads.iter().map(|p| p.to_bytes().len()).sum();
        assert_eq!(wire.len(), total, "no byte beyond the payloads");
        assert_eq!(Payload::from_bytes_many(&wire, 3).unwrap(), payloads);
        assert_eq!(Payload::from_bytes_many(&[], 0).unwrap(), vec![]);
        // Too few payloads asked for leaves trailing bytes; too many, or a
        // cut anywhere, is a truncated one.
        for (bytes, n) in [
            (&wire[..], 2),
            (&wire[..], 4),
            (&wire[..wire.len() - 1], 3),
            (&wire[..1], 1),
        ] {
            let got = Payload::from_bytes_many(bytes, n);
            assert!(matches!(got, Err(CompressError::Wire(_))), "{got:?}");
        }
    }

    fn roundtrip(p: Payload) {
        let bytes = p.to_bytes();
        let q = Payload::from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(p, q);
    }

    #[test]
    fn sparse_index_space_guard_is_a_typed_wire_error() {
        // Every sparse encoder narrows coordinate indices to u32; the
        // shared guard must reject tensors past that space loudly instead
        // of letting `i as u32` wrap on the wire.
        assert!(check_sparse_index_space(0).is_ok());
        assert!(check_sparse_index_space(u32::MAX as usize).is_ok());
        let err = check_sparse_index_space(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, CompressError::Wire(_)), "got {err:?}");
        assert!(err.to_string().contains("sparse-index space"));
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Payload::Dense(vec![1.0, -2.5, 3.25]));
        roundtrip(Payload::Half(vec![0x3c00, 0xbc00]));
        roundtrip(Payload::Sparse {
            len: 10,
            indices: vec![1, 5, 9],
            values: vec![0.5, -0.5, 2.0],
        });
        roundtrip(Payload::SharedSparse {
            len: 10,
            seed: 42,
            values: vec![1.0, 2.0],
        });
        roundtrip(Payload::Signs {
            words: vec![0b1011],
            len: 4,
            scale: 0.01,
        });
        roundtrip(Payload::Factor {
            which: Factor::P,
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        });
        roundtrip(Payload::Factor {
            which: Factor::Q,
            rows: 3,
            cols: 1,
            data: vec![1.0, 2.0, 3.0],
        });
        roundtrip(Payload::Quantized {
            scale: 0.125,
            levels: vec![-3, 0, 7, -128],
        });
        roundtrip(Payload::Ternary {
            len: 5,
            scale: 2.0,
            packed: vec![0b01_10_00_01, 0b10],
        });
        roundtrip(Payload::Svd {
            rows: 2,
            cols: 3,
            rank: 1,
            u: vec![0.5, -0.5],
            s: vec![3.0],
            v: vec![1.0, 0.0, 0.0],
        });
        roundtrip(Payload::TwoScale {
            words: vec![0b101],
            len: 3,
            neg: -0.5,
            pos: 0.75,
        });
    }

    #[test]
    fn split_inverts_assemble_and_passes_gather_payloads_through() {
        let summable = [
            Payload::Dense(vec![1.5, -2.0]),
            Payload::Half(encode_f16(&[0.25, -3.0, 7.0])),
            Payload::Factor {
                which: Factor::Q,
                rows: 2,
                cols: 1,
                data: vec![0.5, 4.0],
            },
            Payload::SharedSparse {
                len: 10,
                seed: 9,
                values: vec![3.0],
            },
        ];
        for payload in summable {
            let Ok((shell, image)) = PayloadShell::split(payload.clone()) else {
                panic!("{} is summable", payload.kind_name());
            };
            assert_eq!(shell.assemble(image), payload);
        }
        let gather = Payload::Quantized {
            scale: 0.5,
            levels: vec![1, -2],
        };
        assert_eq!(PayloadShell::split(gather.clone()), Err(gather));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Payload::from_bytes(&[]).is_err());
        assert!(Payload::from_bytes(&[99]).is_err());
        // Dense claiming more elements than bytes present.
        let mut b = vec![1u8];
        b.extend_from_slice(&100u64.to_le_bytes());
        b.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(Payload::from_bytes(&b).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_bytes() {
        // Regression: a byte length that is not a whole number of elements
        // used to be silently truncated — the reader consumed `len * 4`
        // bytes and ignored the rest. Every variant must now reject
        // over-long input with a structured Wire error.
        let victims = [
            Payload::Dense(vec![1.0, -2.5]),
            Payload::Signs {
                words: vec![0b1011],
                len: 4,
                scale: 0.01,
            },
            Payload::Sparse {
                len: 10,
                indices: vec![1, 5],
                values: vec![0.5, -0.5],
            },
        ];
        for p in victims {
            for extra in [1usize, 3, 4] {
                let mut b = p.to_bytes();
                b.extend(std::iter::repeat_n(0xAB, extra));
                let err = Payload::from_bytes(&b).expect_err("trailing bytes must error");
                let msg = err.to_string();
                assert!(msg.contains("trailing"), "unexpected error: {msg}");
            }
        }
        // A Dense length field that covers only part of the byte tail:
        // 1 claimed element but 6 data bytes -> 2 trailing bytes, error.
        let mut b = vec![1u8];
        b.extend_from_slice(&1u64.to_le_bytes());
        b.extend_from_slice(&1.0f32.to_le_bytes());
        b.extend_from_slice(&[0xCD, 0xEF]);
        assert!(Payload::from_bytes(&b).is_err());
    }

    #[test]
    fn from_bytes_rejects_overflowing_lengths() {
        let mut b = vec![1u8]; // Dense
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Payload::from_bytes(&b).is_err());
        let mut b = vec![6u8]; // Factor P
        b.extend_from_slice(&u64::MAX.to_le_bytes());
        b.extend_from_slice(&2u64.to_le_bytes());
        assert!(Payload::from_bytes(&b).is_err());
    }

    #[test]
    fn wire_bytes_reflect_compression() {
        let n = 1024;
        let dense = Payload::Dense(vec![0.0; n]);
        let signs = Payload::Signs {
            words: vec![0; n / 32],
            len: n,
            scale: 1.0,
        };
        let ternary = Payload::Ternary {
            len: n,
            scale: 1.0,
            packed: vec![0; n / 4],
        };
        assert_eq!(dense.wire_bytes(), 4096);
        assert_eq!(signs.wire_bytes(), n / 8 + 4);
        assert_eq!(ternary.wire_bytes(), n / 4 + 4);
        assert!(signs.wire_bytes() * 30 < dense.wire_bytes() * 2);
    }

    #[test]
    fn dense_add_and_scale() {
        let mut a = Payload::Dense(vec![1.0, 2.0]);
        a.add_assign(&Payload::Dense(vec![3.0, 4.0])).unwrap();
        a.scale(0.5).unwrap();
        assert_eq!(a, Payload::Dense(vec![2.0, 3.0]));
    }

    #[test]
    fn half_add_goes_through_f32() {
        use gcs_tensor::f16::f32_to_f16_bits;
        let mut a = Payload::Half(vec![f32_to_f16_bits(1.5)]);
        a.add_assign(&Payload::Half(vec![f32_to_f16_bits(2.25)]))
            .unwrap();
        assert_eq!(a, Payload::Half(vec![f32_to_f16_bits(3.75)]));
    }

    #[test]
    fn shared_sparse_add_checks_seed() {
        let mut a = Payload::SharedSparse {
            len: 4,
            seed: 1,
            values: vec![1.0],
        };
        let b = Payload::SharedSparse {
            len: 4,
            seed: 2,
            values: vec![1.0],
        };
        assert!(a.add_assign(&b).is_err());
    }

    #[test]
    fn non_summable_add_rejected() {
        let mut a = Payload::Signs {
            words: vec![0],
            len: 1,
            scale: 1.0,
        };
        let b = a.clone();
        assert!(!a.is_summable());
        assert!(a.add_assign(&b).is_err());
        assert!(a.scale(2.0).is_err());
    }

    #[test]
    fn mixed_variant_add_rejected() {
        let mut a = Payload::Dense(vec![1.0]);
        assert!(a.add_assign(&Payload::Half(vec![0])).is_err());
    }

    #[test]
    fn factor_add_checks_shape() {
        let mut a = Payload::Factor {
            which: Factor::P,
            rows: 2,
            cols: 1,
            data: vec![1.0, 2.0],
        };
        let b = Payload::Factor {
            which: Factor::Q,
            rows: 2,
            cols: 1,
            data: vec![1.0, 2.0],
        };
        assert!(a.add_assign(&b).is_err());
    }
}
