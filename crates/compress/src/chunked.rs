//! Chunk-granular streaming payloads: the `ChunkedEncode` / `ChunkedDecode`
//! surface that lets a compressor emit and consume a payload as an ordered
//! sequence of wire chunks instead of one monolithic blob.
//!
//! The streaming engine in `gcs-ddp` drives the protocol per (bucket,
//! round):
//!
//! ```text
//! begin_chunked_encode(layer, round, grad)      -> ChunkedEncode + header
//! encode_chunk(layer, enc, lo, hi, sink)*       -> wire chunk [lo, hi)
//! begin_chunked_decode(layer, round, header, p) -> ChunkedDecode
//! decode_chunk(layer, dec, lo, hi, data)*       -> absorb reduced chunk
//! finish_chunked_decode(layer, round, dec)      -> Compressor::absorb
//! ```
//!
//! Chunk coordinates are **element offsets into the payload's f32 image**
//! for summable payloads (what the ring all-reduce sums) and **byte
//! offsets into the serialized wire image** for gather payloads. Spans are
//! contiguous, in order, and cover the image exactly — so concatenating
//! the chunks reproduces the monolithic payload bit for bit, which is what
//! makes the streaming datapath bit-identical to the monolithic one.
//!
//! Every [`Compressor`](crate::Compressor) gets a correct default: the
//! payload is materialized once at `begin_chunked_encode` and sliced into
//! spans. Schemes with element-wise codecs (SignSGD, QSGD, TernGrad, FP16,
//! Top-K, Random-K) override the surface to do the actual encode work
//! *inside* `encode_chunk`, so encoding chunk `i+1` genuinely overlaps the
//! wire time of chunk `i`; PowerSGD streams its `P` factor as row panels,
//! running the GEMM lazily as chunks are pulled.
//!
//! # Cross-rank pairing invariant
//!
//! All ranks must submit the same number of chunks per (bucket, round).
//! For summable payloads the chunk count derives from the header's element
//! count, which is shape-determined for every summable payload kind. For
//! gather payloads the engine derives the chunk count from the scheme's
//! analytic [`compressed_bytes`](crate::Compressor::compressed_bytes)
//! (also shape-determined) and each rank splits its *actual* wire image
//! into exactly that many grain-aligned spans — possibly empty or uneven,
//! which the all-gather tolerates because frames carry their own lengths.

use crate::{CompressError, Factor, Payload, Result};
use gcs_tensor::f16::{decode_f16, encode_f16, f16_bits_to_f32, f32_to_f16_bits};

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
    /// The shell of a summable payload, or `None` for gather payloads.
    pub fn of(payload: &Payload) -> Option<PayloadShell> {
        match payload {
            Payload::Dense(_) => Some(PayloadShell::Dense),
            Payload::Half(_) => Some(PayloadShell::Half),
            Payload::Factor {
                which, rows, cols, ..
            } => Some(PayloadShell::Factor {
                which: *which,
                rows: *rows,
                cols: *cols,
            }),
            Payload::SharedSparse { len, seed, .. } => Some(PayloadShell::SharedSparse {
                len: *len,
                seed: *seed,
            }),
            _ => None,
        }
    }

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

/// What a chunked payload looks like on the wire — everything the engine
/// needs to schedule its chunks before any chunk exists.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkedHeader {
    /// A summable payload: `elems` f32 values ride the ring all-reduce in
    /// element-offset spans; `shell` rebuilds the payload on the far side.
    Summable {
        /// Reassembly recipe.
        shell: PayloadShell,
        /// Length of the f32 image (shape-determined for every summable
        /// payload kind, so all ranks agree on the chunk count).
        elems: usize,
    },
    /// A gather payload: `bytes` serialized bytes travel in byte-offset
    /// spans through the all-gather.
    Gather {
        /// Actual length of this rank's wire image.
        bytes: usize,
        /// Length of the scalar header prefix (tag + lengths + scales);
        /// chunk 0 always carries the whole prefix.
        prefix: usize,
        /// Alignment (in bytes) native emitters need for interior span
        /// boundaries (e.g. 4 for packed sign words). Decode concatenates,
        /// so it is grain-agnostic.
        grain: usize,
    },
}

impl ChunkedHeader {
    /// Number of f32 elements (summable) or bytes (gather) being streamed.
    pub fn image_len(&self) -> usize {
        match self {
            ChunkedHeader::Summable { elems, .. } => *elems,
            ChunkedHeader::Gather { bytes, .. } => *bytes,
        }
    }
}

/// Splits `[0, image_len)` into `chunks` in-order contiguous spans for a
/// chunked header: equal `chunk` element spans for summable payloads
/// (matching the segmented ring's schedule) and grain-aligned byte spans
/// for gather payloads (chunk 0 carries the prefix; spans may be empty
/// when the actual image is smaller than the agreed chunk count).
pub fn chunk_spans(header: &ChunkedHeader, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    match *header {
        ChunkedHeader::Summable { elems, .. } => {
            let c = elems.div_ceil(chunks).max(1);
            (0..chunks)
                .map(|j| ((j * c).min(elems), ((j + 1) * c).min(elems)))
                .collect()
        }
        ChunkedHeader::Gather {
            bytes,
            prefix,
            grain,
        } => {
            let grain = grain.max(1);
            let body = bytes.saturating_sub(prefix);
            let bound = |j: usize| {
                if j == 0 {
                    0
                } else if j >= chunks {
                    bytes
                } else {
                    // Integer interpolation rounded down to the grain keeps
                    // boundaries monotone and rank-deterministic even when
                    // actual byte counts differ across ranks.
                    prefix + (body * j / chunks) / grain * grain
                }
            };
            (0..chunks).map(|j| (bound(j), bound(j + 1))).collect()
        }
    }
}

/// The engine-side split: spans sized by a chunk *size* rather than a
/// chunk count. Summable spans are exactly the staggered chunked ring's
/// segment schedule (`(g·c, min((g+1)·c, n))`) — submitting each span as
/// its own plain ring is therefore bit-identical to handing the whole
/// image to `ring_all_reduce_chunked` with `chunk_elems = c`. Gather
/// spans derive their count from the scheme's *analytic* byte size
/// (`compressed_bytes`, shape-determined) so every rank agrees on the
/// chunk count even when actual wire bytes differ (DGC, variance-based);
/// the spans themselves split this rank's actual image.
pub fn wire_chunk_spans(
    header: &ChunkedHeader,
    chunk_elems: usize,
    analytic_bytes: usize,
) -> Vec<(usize, usize)> {
    let c = chunk_elems.max(1);
    match *header {
        ChunkedHeader::Summable { elems, .. } => (0..elems.div_ceil(c).max(1))
            .map(|g| ((g * c).min(elems), ((g + 1) * c).min(elems)))
            .collect(),
        ChunkedHeader::Gather { .. } => {
            let count = analytic_bytes.div_ceil(c * 4).max(1);
            chunk_spans(header, count)
        }
    }
}

/// In-progress chunked encode state for one (layer, round).
#[derive(Debug)]
pub struct ChunkedEncode {
    header: ChunkedHeader,
    stage: EncodeStage,
}

#[derive(Debug)]
enum EncodeStage {
    /// Default path: the payload was materialized at begin and is sliced
    /// into spans (`wire` holds the serialization for gather payloads).
    Whole { payload: Payload, wire: Vec<u8> },
    /// Native path: the scheme encodes inside `encode_chunk`, staging
    /// whatever it needs here (meaning is scheme-defined).
    Native(NativeEncode),
}

/// Scheme-owned staging for a native chunked encode. The fields are
/// deliberately generic — each scheme documents its own meaning:
/// `src` is typically the (residual-corrected) f32 source, `aux` holds
/// u32 side data (Top-K/Random-K indices, sign-word scratch), `param` a
/// per-payload scalar (scale / norm), and `cursor` the number of elements
/// consumed so far (RNG-bearing schemes use it to enforce in-order spans).
#[derive(Debug, Default)]
pub struct NativeEncode {
    /// f32 source staging.
    pub src: Vec<f32>,
    /// u32 side data / scratch.
    pub aux: Vec<u32>,
    /// Pre-serialized wire prefix for schemes whose scalar header does not
    /// fit the 13-byte `emit_scalar_prefix` shape (Sparse's 17-byte one).
    pub prefix: Vec<u8>,
    /// Per-payload scalar (scale, norm, …).
    pub param: f32,
    /// Elements consumed so far.
    pub cursor: usize,
}

impl ChunkedEncode {
    /// Default construction: materialize `payload` now, slice spans later.
    /// Gather payloads are serialized here so `encode_chunk` is a memcpy.
    pub fn whole(payload: Payload) -> ChunkedEncode {
        match PayloadShell::of(&payload) {
            Some(shell) => {
                let elems = summable_elems(&payload);
                ChunkedEncode {
                    header: ChunkedHeader::Summable { shell, elems },
                    stage: EncodeStage::Whole {
                        payload,
                        wire: Vec::new(),
                    },
                }
            }
            None => {
                let mut wire = Vec::new();
                payload.write_bytes(&mut wire);
                let (prefix, grain) = gather_layout(&payload);
                ChunkedEncode {
                    header: ChunkedHeader::Gather {
                        bytes: wire.len(),
                        prefix,
                        grain,
                    },
                    stage: EncodeStage::Whole { payload, wire },
                }
            }
        }
    }

    /// Native construction: the scheme will produce spans on demand.
    pub fn native(header: ChunkedHeader, state: NativeEncode) -> ChunkedEncode {
        ChunkedEncode {
            header,
            stage: EncodeStage::Native(state),
        }
    }

    /// The wire header of this encode.
    pub fn header(&self) -> &ChunkedHeader {
        &self.header
    }

    /// Whether the scheme opted into native chunk emission.
    pub fn is_native(&self) -> bool {
        matches!(self.stage, EncodeStage::Native(_))
    }

    /// Mutable access to native staging (for scheme `encode_chunk`
    /// overrides).
    ///
    /// # Errors
    ///
    /// Protocol error when this encode is on the default whole-payload path.
    pub fn native_mut(&mut self) -> Result<&mut NativeEncode> {
        match &mut self.stage {
            EncodeStage::Native(n) => Ok(n),
            EncodeStage::Whole { .. } => Err(CompressError::Protocol(
                "chunked encode is not native".into(),
            )),
        }
    }

    /// Emits span `[lo, hi)` from a whole-payload stage — the default
    /// `encode_chunk` body.
    ///
    /// # Errors
    ///
    /// Protocol error on a native stage, out-of-range spans, or a sink
    /// kind that does not match the header.
    pub fn emit_staged(&mut self, lo: usize, hi: usize, sink: ChunkSink<'_>) -> Result<()> {
        let EncodeStage::Whole { payload, wire } = &self.stage else {
            return Err(CompressError::Protocol(
                "native chunked encode routed to the default emitter".into(),
            ));
        };
        check_span(lo, hi, self.header.image_len())?;
        match sink {
            ChunkSink::F32(out) => {
                let image: &[f32] = match payload {
                    Payload::Dense(v) => v,
                    Payload::Factor { data, .. } => data,
                    Payload::SharedSparse { values, .. } => values,
                    Payload::Half(h) => {
                        // The f32 image of a Half payload is its decode;
                        // element-wise, so a span decode matches a span of
                        // the full decode bitwise.
                        out.extend(h[lo..hi].iter().map(|&b| f16_bits_to_f32(b)));
                        return Ok(());
                    }
                    other => {
                        return Err(CompressError::PayloadKind {
                            expected: "summable payload for an f32 chunk sink",
                            actual: other.kind_name(),
                        });
                    }
                };
                out.extend_from_slice(&image[lo..hi]);
                Ok(())
            }
            ChunkSink::Bytes(out) => {
                out.extend_from_slice(&wire[lo..hi]);
                Ok(())
            }
        }
    }
}

/// Destination of one encoded chunk: f32 values for summable payloads,
/// raw wire bytes for gather payloads. The engine hands in a cleared
/// recycled buffer; emitters append.
pub enum ChunkSink<'a> {
    /// f32 span of a summable payload's image.
    F32(&'a mut Vec<f32>),
    /// Byte span of a gather payload's wire image.
    Bytes(&'a mut Vec<u8>),
}

/// Unwraps an f32 chunk sink (native emitters of summable schemes).
///
/// # Errors
///
/// Protocol error when the engine handed a byte sink instead.
pub fn f32_sink<'a>(sink: ChunkSink<'a>) -> Result<&'a mut Vec<f32>> {
    match sink {
        ChunkSink::F32(out) => Ok(out),
        ChunkSink::Bytes(_) => Err(CompressError::Protocol(
            "expected an f32 chunk sink for a summable payload".into(),
        )),
    }
}

/// Unwraps a byte chunk sink (native emitters of gather schemes).
///
/// # Errors
///
/// Protocol error when the engine handed an f32 sink instead.
pub fn byte_sink<'a>(sink: ChunkSink<'a>) -> Result<&'a mut Vec<u8>> {
    match sink {
        ChunkSink::Bytes(out) => Ok(out),
        ChunkSink::F32(_) => Err(CompressError::Protocol(
            "expected a byte chunk sink for a gather payload".into(),
        )),
    }
}

/// The reduced wire content of one chunk on the decode side.
pub enum ChunkData<'a> {
    /// Mean-reduced f32 span of a summable payload.
    F32(&'a [f32]),
    /// Per-rank byte spans of a gathered payload (rank order).
    Frames(&'a [&'a [u8]]),
}

/// In-progress chunked decode state for one (layer, round).
#[derive(Debug)]
pub struct ChunkedDecode {
    stage: DecodeStage,
}

#[derive(Debug)]
enum DecodeStage {
    /// Default path for summable payloads: assemble the reduced f32 image,
    /// rebuild the payload at finish.
    Summable { shell: PayloadShell, data: Vec<f32> },
    /// Default path for gather payloads: concatenate per-rank byte spans,
    /// deserialize + aggregate at finish.
    Gather { parts: Vec<Vec<u8>> },
    /// FP16 native: re-round each reduced span to f16 bits as it lands.
    Half { pending: Vec<u16> },
}

impl ChunkedDecode {
    /// Default construction from a header (`world` sizes the gather parts).
    pub fn staged(header: &ChunkedHeader, world: usize) -> ChunkedDecode {
        let stage = match header {
            ChunkedHeader::Summable { shell, elems } => DecodeStage::Summable {
                shell: shell.clone(),
                data: vec![0.0; *elems],
            },
            ChunkedHeader::Gather { bytes, .. } => DecodeStage::Gather {
                parts: (0..world).map(|_| Vec::with_capacity(*bytes)).collect(),
            },
        };
        ChunkedDecode { stage }
    }

    /// FP16 native construction: chunk-wise re-rounding into f16 bits.
    pub fn half(elems: usize) -> ChunkedDecode {
        ChunkedDecode {
            stage: DecodeStage::Half {
                pending: vec![0; elems],
            },
        }
    }

    /// Absorbs one reduced chunk — the default `decode_chunk` body.
    ///
    /// # Errors
    ///
    /// Protocol error on span/stage mismatches.
    pub fn absorb_staged(&mut self, lo: usize, hi: usize, data: ChunkData<'_>) -> Result<()> {
        match (&mut self.stage, data) {
            (DecodeStage::Summable { data: image, .. }, ChunkData::F32(span)) => {
                check_span(lo, hi, image.len())?;
                check_len(hi - lo, span.len())?;
                image[lo..hi].copy_from_slice(span);
                Ok(())
            }
            (DecodeStage::Half { pending }, ChunkData::F32(span)) => {
                check_span(lo, hi, pending.len())?;
                check_len(hi - lo, span.len())?;
                for (slot, &x) in pending[lo..hi].iter_mut().zip(span) {
                    *slot = f32_to_f16_bits(x);
                }
                Ok(())
            }
            (DecodeStage::Gather { parts }, ChunkData::Frames(frames)) => {
                check_len(parts.len(), frames.len())?;
                for (part, frame) in parts.iter_mut().zip(frames) {
                    part.extend_from_slice(frame);
                }
                Ok(())
            }
            _ => Err(CompressError::Protocol(
                "chunk data kind does not match the decode stage".into(),
            )),
        }
    }

    /// Finishes the default decode: rebuilds the payload (summable) or
    /// deserializes + aggregates (gather) and absorbs through `compressor`.
    ///
    /// # Errors
    ///
    /// Propagates wire, aggregate, and absorb errors.
    pub fn finish_staged<C: crate::Compressor + ?Sized>(
        self,
        compressor: &mut C,
        layer: usize,
        round: usize,
    ) -> Result<()> {
        match self.stage {
            DecodeStage::Summable { shell, data } => {
                compressor.absorb(layer, round, shell.assemble(data))
            }
            DecodeStage::Half { pending } => {
                compressor.absorb(layer, round, Payload::Half(pending))
            }
            DecodeStage::Gather { parts } => {
                let payloads: Vec<Payload> = parts
                    .iter()
                    .map(|b| Payload::from_bytes(b))
                    .collect::<Result<_>>()?;
                let agg = compressor.aggregate(round, &payloads)?;
                compressor.absorb(layer, round, agg)
            }
        }
    }
}

/// Length of a summable payload's f32 image.
fn summable_elems(payload: &Payload) -> usize {
    match payload {
        Payload::Dense(v) => v.len(),
        Payload::Half(h) => h.len(),
        Payload::Factor { data, .. } => data.len(),
        Payload::SharedSparse { values, .. } => values.len(),
        _ => 0,
    }
}

/// `(prefix, grain)` of a gather payload's wire image: the scalar header
/// length and the alignment native emitters need for interior boundaries.
fn gather_layout(payload: &Payload) -> (usize, usize) {
    match payload {
        // tag + len u64 + k u64; indices and values are 4-byte words.
        Payload::Sparse { .. } => (17, 4),
        // tag + len u64 + scale f32; packed sign words are 4-byte.
        Payload::Signs { .. } => (13, 4),
        // tag + len u64 + scale f32; one byte per element.
        Payload::Quantized { .. } => (13, 1),
        // tag + len u64 + scale f32; one byte per 4 elements.
        Payload::Ternary { .. } => (13, 1),
        // tag + rows/cols/rank u64s; f32 regions.
        Payload::Svd { .. } => (25, 4),
        // tag + len u64 + neg/pos f32s; packed words.
        Payload::TwoScale { .. } => (17, 4),
        // Summable kinds never take the gather path; a conservative layout
        // keeps the function total.
        _ => (0, 1),
    }
}

fn check_span(lo: usize, hi: usize, len: usize) -> Result<()> {
    if lo > hi || hi > len {
        return Err(CompressError::Protocol(format!(
            "chunk span [{lo}, {hi}) out of range for image of {len}"
        )));
    }
    Ok(())
}

fn check_len(a: usize, b: usize) -> Result<()> {
    if a != b {
        return Err(CompressError::Protocol(format!(
            "chunk length mismatch: {a} vs {b}"
        )));
    }
    Ok(())
}

/// Serializes the 13-byte Signs/Quantized/Ternary-style prefix
/// `tag · len:u64 · scale:f32` and appends the bytes of it that fall in
/// `[lo, hi)` to `out`. Native byte emitters call this for chunk 0 (and
/// it is a no-op for later chunks, whose `lo >= prefix`).
pub fn emit_scalar_prefix(tag: u8, len: u64, scale: f32, lo: usize, hi: usize, out: &mut Vec<u8>) {
    let mut prefix = [0u8; 13];
    prefix[0] = tag;
    prefix[1..9].copy_from_slice(&len.to_le_bytes());
    prefix[9..13].copy_from_slice(&scale.to_le_bytes());
    emit_prefix_span(&prefix, lo, hi, out);
}

/// Appends the bytes of `prefix` that fall in the wire span `[lo, hi)`.
pub fn emit_prefix_span(prefix: &[u8], lo: usize, hi: usize, out: &mut Vec<u8>) {
    if lo < prefix.len() {
        out.extend_from_slice(&prefix[lo..hi.min(prefix.len())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(Some(&shell), PayloadShell::of(&payload).as_ref());
            assert_eq!(shell.assemble(image), payload);
        }
        let gather = Payload::Quantized {
            scale: 0.5,
            levels: vec![1, -2],
        };
        assert_eq!(PayloadShell::split(gather.clone()), Err(gather));
    }

    #[test]
    fn whole_summable_spans_reassemble_bitwise() {
        let payload = Payload::Dense((0..97).map(|i| i as f32 * 0.5 - 3.0).collect());
        let mut enc = ChunkedEncode::whole(payload.clone());
        let spans = chunk_spans(enc.header(), 7);
        let mut image = Vec::new();
        for &(lo, hi) in &spans {
            let mut chunk = Vec::new();
            enc.emit_staged(lo, hi, ChunkSink::F32(&mut chunk)).unwrap();
            image.extend_from_slice(&chunk);
        }
        assert_eq!(Payload::Dense(image), payload);
    }

    #[test]
    fn whole_gather_spans_reassemble_wire_image() {
        let payload = Payload::Signs {
            words: (0..9).collect(),
            len: 270,
            scale: 0.25,
        };
        let wire = payload.to_bytes();
        for chunks in [1usize, 2, 3, 5, 50] {
            let mut enc = ChunkedEncode::whole(payload.clone());
            let spans = chunk_spans(enc.header(), chunks);
            assert_eq!(spans.len(), chunks.max(1));
            assert_eq!(spans[0].0, 0);
            assert_eq!(spans.last().unwrap().1, wire.len());
            let mut out = Vec::new();
            for &(lo, hi) in &spans {
                assert!(lo <= hi);
                let mut chunk = Vec::new();
                enc.emit_staged(lo, hi, ChunkSink::Bytes(&mut chunk))
                    .unwrap();
                out.extend_from_slice(&chunk);
            }
            assert_eq!(out, wire);
            assert_eq!(Payload::from_bytes(&out).unwrap(), payload);
        }
    }

    #[test]
    fn gather_spans_are_grain_aligned_after_prefix() {
        let header = ChunkedHeader::Gather {
            bytes: 13 + 4 * 11,
            prefix: 13,
            grain: 4,
        };
        let spans = chunk_spans(&header, 4);
        for &(lo, hi) in &spans[1..] {
            assert_eq!((lo - 13) % 4, 0, "interior boundary must be word-aligned");
            assert!(hi >= lo);
        }
    }

    #[test]
    fn gather_spans_tolerate_more_chunks_than_bytes() {
        let header = ChunkedHeader::Gather {
            bytes: 15,
            prefix: 13,
            grain: 1,
        };
        let spans = chunk_spans(&header, 8);
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].0, 0);
        assert_eq!(spans.last().unwrap().1, 15);
        let covered: usize = spans.iter().map(|&(lo, hi)| hi - lo).sum();
        assert_eq!(covered, 15);
    }

    #[test]
    fn staged_decode_roundtrips_summable() {
        use crate::none::NoCompression;
        use crate::Compressor;
        let data: Vec<f32> = (0..40).map(|i| i as f32 - 20.0).collect();
        let header = ChunkedHeader::Summable {
            shell: PayloadShell::Dense,
            elems: data.len(),
        };
        let mut dec = ChunkedDecode::staged(&header, 3);
        for &(lo, hi) in &chunk_spans(&header, 3) {
            dec.absorb_staged(lo, hi, ChunkData::F32(&data[lo..hi]))
                .unwrap();
        }
        let mut c = NoCompression::new();
        dec.finish_staged(&mut c, 0, 0).unwrap();
        let out = c.finish(0, &gcs_tensor::Shape::new(vec![40])).unwrap();
        assert_eq!(out.data(), &data[..]);
    }

    #[test]
    fn prefix_span_emitter_is_exact() {
        let mut full = Vec::new();
        emit_scalar_prefix(5, 270, 0.25, 0, 13, &mut full);
        let reference = {
            let mut v = vec![5u8];
            v.extend_from_slice(&270u64.to_le_bytes());
            v.extend_from_slice(&0.25f32.to_le_bytes());
            v
        };
        assert_eq!(full, reference);
        // Split emission at every boundary must concatenate to the same.
        for cut in 0..=13 {
            let mut a = Vec::new();
            emit_scalar_prefix(5, 270, 0.25, 0, cut, &mut a);
            emit_scalar_prefix(5, 270, 0.25, cut, 13, &mut a);
            assert_eq!(a, reference);
        }
        // Past-prefix spans are no-ops.
        let mut b = Vec::new();
        emit_prefix_span(&full, 13, 40, &mut b);
        assert!(b.is_empty());
    }
}
