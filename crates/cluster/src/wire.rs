//! Versioned, length-prefixed wire format for the TCP transport.
//!
//! Every frame on a mesh socket is a fixed 20-byte header followed by
//! `len` payload bytes. The header carries magic + version (so a stray
//! connection or a skewed peer fails loudly at the first frame), the
//! source and destination ranks, a frame kind (data, handshake hello,
//! dead-rank announcement, control-plane message), the registry method id
//! for observability, the fault-injected extra delivery delay (decided
//! sender-side by the deterministic fault stream, applied receiver-side
//! so the wire itself stays full speed), and the payload length.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  = b"GCSW"
//!      4     1  version = 1
//!      5     1  kind    (0 data, 1 hello, 2 dead, 3 control)
//!      6     2  src rank
//!      8     2  dst rank
//!     10     2  method id (0 = raw collective bytes; control frames
//!               reuse it as the control-message id)
//!     12     4  delay_us (fault-injected delivery delay, microseconds)
//!     16     4  len (payload bytes; capped at MAX_FRAME_LEN)
//! ```
//!
//! All narrowing is checked: a rank that does not fit `u16`, a payload
//! longer than [`MAX_FRAME_LEN`], or a delay beyond the `u32` microsecond
//! field is a typed [`ClusterError::Wire`] error at encode time, and a
//! forged or corrupted header fails the same way at decode time — never a
//! silent truncation.

use crate::{ClusterError, Result};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::time::Duration;

/// Leading magic: `b"GCSW"` (Gradient Compression Study Wire).
pub const MAGIC: [u8; 4] = *b"GCSW";

/// Wire protocol version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Upper bound on one frame's payload (1 GiB). A header claiming more is
/// forged or corrupt; rejecting it here keeps a bad peer from driving a
/// multi-gigabyte allocation on the receiver.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// What a frame is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Collective payload bytes for the destination rank's mailbox.
    Data = 0,
    /// Mesh handshake: the dialer identifies itself (`src`) right after
    /// connecting; carries no payload.
    Hello = 1,
    /// The source rank declares itself dead; carries no payload.
    Dead = 2,
    /// Orchestrator/worker control-plane message; `method` is the
    /// control-message id and the payload is message-specific.
    Control = 3,
}

impl FrameKind {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(FrameKind::Data),
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Dead),
            3 => Ok(FrameKind::Control),
            other => Err(ClusterError::Wire(format!("unknown frame kind {other}"))),
        }
    }
}

/// A decoded (or to-be-encoded) frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHeader {
    pub kind: FrameKind,
    /// Sending rank.
    pub src: u16,
    /// Receiving rank.
    pub dst: u16,
    /// Registry method id for observability (0 = raw collective bytes);
    /// control frames reuse it as the control-message id.
    pub method: u16,
    /// Fault-injected extra delivery delay in microseconds, applied by
    /// the receiver before surfacing the frame.
    pub delay_us: u32,
    /// Payload length in bytes.
    pub len: u32,
}

impl WireHeader {
    /// Builds a header, checking every narrowing conversion.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Wire`] when `src`/`dst` exceed the `u16` rank
    /// fields, `len` exceeds [`MAX_FRAME_LEN`], or `delay` exceeds the
    /// `u32` microsecond field.
    pub fn new(
        kind: FrameKind,
        src: usize,
        dst: usize,
        method: u16,
        delay: Duration,
        len: usize,
    ) -> Result<Self> {
        let src = u16::try_from(src).map_err(|_| {
            ClusterError::Wire(format!("src rank {src} exceeds the u16 wire field"))
        })?;
        let dst = u16::try_from(dst).map_err(|_| {
            ClusterError::Wire(format!("dst rank {dst} exceeds the u16 wire field"))
        })?;
        let len = u32::try_from(len).map_err(|_| {
            ClusterError::Wire(format!("payload of {len} bytes exceeds the u32 wire field"))
        })?;
        if len > MAX_FRAME_LEN {
            return Err(ClusterError::Wire(format!(
                "payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap"
            )));
        }
        // Round sub-microsecond delays up so a nonzero injected delay
        // never quantizes to "no delay" on the wire.
        let delay_us = u32::try_from(delay.as_nanos().div_ceil(1_000)).map_err(|_| {
            ClusterError::Wire(format!(
                "injected delay {delay:?} exceeds the u32 microsecond field"
            ))
        })?;
        Ok(WireHeader {
            kind,
            src,
            dst,
            method,
            delay_us,
            len,
        })
    }

    /// Serializes the header.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4] = WIRE_VERSION;
        out[5] = self.kind as u8;
        out[6..8].copy_from_slice(&self.src.to_le_bytes());
        out[8..10].copy_from_slice(&self.dst.to_le_bytes());
        out[10..12].copy_from_slice(&self.method.to_le_bytes());
        out[12..16].copy_from_slice(&self.delay_us.to_le_bytes());
        out[16..20].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Parses and validates a header.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Wire`] on bad magic, unknown version or kind, or a
    /// length field beyond [`MAX_FRAME_LEN`].
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self> {
        if bytes[0..4] != MAGIC {
            return Err(ClusterError::Wire(format!(
                "bad magic {:02x?} (expected {MAGIC:02x?})",
                &bytes[0..4]
            )));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(ClusterError::Wire(format!(
                "unsupported wire version {} (expected {WIRE_VERSION})",
                bytes[4]
            )));
        }
        let kind = FrameKind::from_u8(bytes[5])?;
        let le16 = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        let le32 = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let len = le32(16);
        if len > MAX_FRAME_LEN {
            return Err(ClusterError::Wire(format!(
                "header claims {len} payload bytes, beyond the {MAX_FRAME_LEN}-byte frame cap"
            )));
        }
        Ok(WireHeader {
            kind,
            src: le16(6),
            dst: le16(8),
            method: le16(10),
            delay_us: le32(12),
            len,
        })
    }
}

/// Maps a socket error into the typed transport error.
pub(crate) fn io_error(err: std::io::Error) -> ClusterError {
    ClusterError::Io(err.to_string())
}

/// Writes one frame (header + payload). `header.len` must equal
/// `payload.len()`.
///
/// Header and payload go out together through `write_vectored` — one
/// `writev` per frame on a socket, instead of a header segment and a
/// payload segment under `TCP_NODELAY`. Partial writes resume where the
/// last one stopped, and `Interrupted` is retried.
///
/// # Errors
///
/// [`ClusterError::Wire`] on a header/payload length mismatch,
/// [`ClusterError::Io`] on socket errors.
pub fn write_frame(w: &mut impl Write, header: &WireHeader, payload: &[u8]) -> Result<()> {
    if header.len as usize != payload.len() {
        return Err(ClusterError::Wire(format!(
            "header claims {} payload bytes but {} were provided",
            header.len,
            payload.len()
        )));
    }
    let head = header.encode();
    let mut slices = [IoSlice::new(&head), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(io_error(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(io_error(err)),
        }
    }
    w.flush().map_err(io_error)
}

/// Reads one frame (header + payload).
///
/// The header is validated before anything is allocated, and the payload
/// is read into reserved capacity rather than a zero-filled buffer, so
/// each payload byte is written once, by the read itself.
///
/// # Errors
///
/// [`ClusterError::Wire`] on a malformed header, [`ClusterError::Io`] on
/// socket errors (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<(WireHeader, Vec<u8>)> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw).map_err(io_error)?;
    let header = WireHeader::decode(&raw)?;
    let len = header.len as usize;
    let mut payload = Vec::with_capacity(len);
    r.take(u64::from(header.len))
        .read_to_end(&mut payload)
        .map_err(io_error)?;
    if payload.len() != len {
        return Err(ClusterError::Io(format!(
            "stream ended {} bytes into a {len}-byte frame payload",
            payload.len()
        )));
    }
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_through_encode_decode() {
        let hdr =
            WireHeader::new(FrameKind::Data, 3, 7, 12, Duration::from_micros(250), 4096).unwrap();
        let decoded = WireHeader::decode(&hdr.encode()).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(decoded.delay_us, 250);
        assert_eq!(decoded.len, 4096);
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in [
            FrameKind::Data,
            FrameKind::Hello,
            FrameKind::Dead,
            FrameKind::Control,
        ] {
            let hdr = WireHeader::new(kind, 0, 1, 0, Duration::ZERO, 0).unwrap();
            assert_eq!(WireHeader::decode(&hdr.encode()).unwrap().kind, kind);
        }
    }

    #[test]
    fn narrowing_overflows_are_typed_errors_not_truncation() {
        // Rank beyond u16.
        let err = WireHeader::new(FrameKind::Data, 1 << 17, 0, 0, Duration::ZERO, 0);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
        let err = WireHeader::new(FrameKind::Data, 0, 1 << 17, 0, Duration::ZERO, 0);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
        // Payload beyond the frame cap (and beyond u32).
        let err = WireHeader::new(
            FrameKind::Data,
            0,
            1,
            0,
            Duration::ZERO,
            MAX_FRAME_LEN as usize + 1,
        );
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
        let err = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, u64::MAX as usize);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
        // Delay beyond the u32 microsecond field.
        let err = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::from_secs(5_000_000), 0);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
    }

    #[test]
    fn sub_microsecond_delay_rounds_up_not_to_zero() {
        let hdr = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::from_nanos(137), 0).unwrap();
        assert_eq!(hdr.delay_us, 1, "nonzero delay must stay visible");
    }

    #[test]
    fn forged_oversized_header_is_rejected_at_decode() {
        // Hand-forge a header whose length field claims more than the
        // frame cap: the decode must fail with the typed Wire error
        // before any allocation happens.
        let mut raw = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, 64)
            .unwrap()
            .encode();
        raw[16..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = WireHeader::decode(&raw);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");

        // And a reader fed the forged bytes refuses the frame the same
        // way instead of trying to read gigabytes.
        let mut stream: Vec<u8> = raw.to_vec();
        stream.extend_from_slice(&[0u8; 64]);
        let err = read_frame(&mut stream.as_slice());
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let good = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, 0)
            .unwrap()
            .encode();
        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(
            WireHeader::decode(&bad_magic),
            Err(ClusterError::Wire(_))
        ));
        let mut bad_version = good;
        bad_version[4] = 99;
        assert!(matches!(
            WireHeader::decode(&bad_version),
            Err(ClusterError::Wire(_))
        ));
        let mut bad_kind = good;
        bad_kind[5] = 42;
        assert!(matches!(
            WireHeader::decode(&bad_kind),
            Err(ClusterError::Wire(_))
        ));
    }

    #[test]
    fn frame_roundtrips_through_a_byte_stream() {
        let payload = b"gradient bytes".to_vec();
        let hdr = WireHeader::new(
            FrameKind::Data,
            1,
            0,
            3,
            Duration::from_micros(50),
            payload.len(),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &hdr, &payload).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let (decoded, got) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(got, payload);
    }

    #[test]
    fn write_frame_rejects_length_mismatch() {
        let hdr = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, 8).unwrap();
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &hdr, b"four");
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
    }

    #[test]
    fn max_frame_len_is_inclusive_at_construct_and_decode() {
        // The cap is inclusive: a header claiming exactly MAX_FRAME_LEN
        // must survive both construction and decode...
        let hdr = WireHeader::new(
            FrameKind::Data,
            0,
            1,
            0,
            Duration::ZERO,
            MAX_FRAME_LEN as usize,
        )
        .unwrap();
        let decoded = WireHeader::decode(&hdr.encode()).unwrap();
        assert_eq!(decoded.len, MAX_FRAME_LEN);

        // ...while one byte more is a typed Wire error on both paths
        // (decode sees the forged length since new() refuses to build it).
        let err = WireHeader::new(
            FrameKind::Data,
            0,
            1,
            0,
            Duration::ZERO,
            MAX_FRAME_LEN as usize + 1,
        );
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
        let mut raw = hdr.encode();
        raw[16..20].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = WireHeader::decode(&raw);
        assert!(matches!(err, Err(ClusterError::Wire(_))), "{err:?}");
    }

    #[test]
    fn zero_length_frame_roundtrips() {
        // Control/Hello frames legitimately carry no payload; the reader
        // must hand back an empty vec, not an error or a short read.
        let hdr = WireHeader::new(FrameKind::Control, 2, 5, 0, Duration::ZERO, 0).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &hdr, &[]).unwrap();
        assert_eq!(buf.len(), HEADER_LEN);
        let (decoded, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, hdr);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let hdr = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, 100).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&hdr.encode());
        buf.extend_from_slice(&[0u8; 10]); // 90 bytes short
        let err = read_frame(&mut buf.as_slice());
        assert!(matches!(err, Err(ClusterError::Io(_))), "{err:?}");
    }

    /// A sink that takes every byte it is offered and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain_calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_calls += 1;
            let before = self.bytes.len();
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_vectored_write() {
        let mut sink = CountingSink::default();
        for len in [0usize, 1, 4096] {
            let hdr = WireHeader::new(FrameKind::Data, 0, 1, 0, Duration::ZERO, len).unwrap();
            write_frame(&mut sink, &hdr, &vec![7u8; len]).unwrap();
        }
        assert_eq!((sink.vectored_calls, sink.plain_calls), (3, 0));
        assert_eq!(sink.bytes.len(), 3 * HEADER_LEN + 4097);
    }

    /// A sink that takes at most 7 bytes per call, and fails every other
    /// call with `Interrupted` before taking any.
    #[derive(Default)]
    struct TrickleSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            let before = self.bytes.len();
            for buf in bufs {
                let room = 7 - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_and_interrupted_writes_produce_the_same_stream() {
        for len in [0usize, 3, 13, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let hdr =
                WireHeader::new(FrameKind::Data, 2, 3, 9, Duration::from_micros(17), len).unwrap();
            let mut sink = TrickleSink::default();
            write_frame(&mut sink, &hdr, &payload).unwrap();
            let mut expected = hdr.encode().to_vec();
            expected.extend_from_slice(&payload);
            assert_eq!(sink.bytes, expected, "len {len}");
        }
    }

    /// A source that yields at most 3 bytes per read.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn short_reads_roundtrip_a_mebibyte_frame() {
        let payload: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let big = WireHeader::new(FrameKind::Data, 1, 0, 0, Duration::ZERO, payload.len()).unwrap();
        let tail = WireHeader::new(FrameKind::Control, 1, 0, 4, Duration::ZERO, 0).unwrap();
        let mut stream = Vec::new();
        write_frame(&mut stream, &big, &payload).unwrap();
        write_frame(&mut stream, &tail, &[]).unwrap();
        // The payload read must stop at the frame boundary, leaving the
        // next header for the next call.
        let mut src = Dribble(&stream);
        let (hdr, got) = read_frame(&mut src).unwrap();
        assert_eq!(hdr, big);
        assert!(got == payload, "payload corrupted by short reads");
        let (hdr, got) = read_frame(&mut src).unwrap();
        assert_eq!((hdr, got.len()), (tail, 0));
        assert!(src.0.is_empty());
    }
}
