//! Message envelopes and the binary payload codec.
//!
//! PARMONC worker→collector traffic is a fixed record: the two sum
//! matrices `[Σζ_ij]`, `[Σζ²_ij]` and the sample volume `l_m`
//! (paper Section 2.2). For the performance test's 1000×2 matrices the
//! paper quotes roughly 120 KB per message; here it is 32 048 bytes
//! (shape, volume and compute time, then two length-prefixed runs of
//! 2000 `f64`s). The codec here is a minimal little-endian binary
//! layout over [`crate::bytes::Bytes`]; it exists so the substrate
//! moves *serialized* payloads exactly like MPI would, letting the
//! benches measure realistic per-message costs.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bytes::{Bytes, BytesMut};

use crate::error::MpiError;
use crate::pool::BufferPool;

/// A message tag, used for matching like MPI's `tag` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tag(pub u32);

impl core::fmt::Display for Tag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "tag({})", self.0)
    }
}

/// A delivered message: source rank, tag and the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The sending rank.
    pub source: usize,
    /// The message tag.
    pub tag: Tag,
    /// The serialized payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Payload size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Incrementally encodes a payload.
///
/// # Examples
///
/// ```
/// use parmonc_mpi::envelope::{PayloadReader, PayloadWriter};
///
/// let mut w = PayloadWriter::new();
/// w.put_u64(42);
/// w.put_f64_slice(&[1.0, 2.5]);
/// let mut r = PayloadReader::new(w.finish());
/// assert_eq!(r.get_u64()?, 42);
/// assert_eq!(r.get_f64_vec()?, vec![1.0, 2.5]);
/// # Ok::<(), parmonc_mpi::MpiError>(())
/// ```
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: BytesMut,
}

impl PayloadWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(bytes),
        }
    }

    /// Creates a writer over a caller-supplied builder — typically one
    /// taken from a [`BufferPool`] so encoding
    /// reuses a retired send buffer instead of allocating.
    #[must_use]
    pub fn from_buffer(buf: BytesMut) -> Self {
        Self { buf }
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `f64` (little-endian bits).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends a length-prefixed slice of `f64`s.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        WordSink::buffer(&mut self.buf).put_f64_slice(vs);
    }

    /// Finalizes into an immutable payload.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Where an encoder puts a payload, one 8-byte little-endian word at a
/// time: appended to a byte buffer, or stored straight into the words
/// of a destination's latest-wins slot
/// ([`Transport::send_latest_with`](crate::Transport::send_latest_with)
/// on the thread substrate). An encoder written against the sink
/// produces the same bytes either way.
#[derive(Debug)]
pub struct WordSink<'a>(Sink<'a>);

#[derive(Debug)]
enum Sink<'a> {
    /// Appends to the buffer; `start` is its length when the sink was
    /// made.
    Buffer { buf: &'a mut BytesMut, start: usize },
    /// Stores into `words[at..]`; a store past the end panics.
    Words { words: &'a [AtomicU64], at: usize },
}

impl<'a> WordSink<'a> {
    /// A sink appending to `buf`.
    #[must_use]
    pub fn buffer(buf: &'a mut BytesMut) -> Self {
        let start = buf.len();
        Self(Sink::Buffer { buf, start })
    }

    /// The `len` bytes `fill` writes, in a buffer taken from `pool`.
    ///
    /// # Panics
    ///
    /// If `fill` writes another number of bytes than `len`.
    pub(crate) fn fill_pooled(
        pool: &BufferPool,
        len: usize,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> Bytes {
        let mut buf = pool.take(len);
        let mut sink = WordSink::buffer(&mut buf);
        fill(&mut sink);
        sink.assert_filled(len);
        buf.freeze()
    }

    /// A sink filling exactly `words`, in place.
    pub(crate) fn words(words: &'a [AtomicU64]) -> Self {
        Self(Sink::Words { words, at: 0 })
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        match &mut self.0 {
            Sink::Buffer { buf, .. } => buf.put_u64_le(v),
            Sink::Words { words, at } => {
                // Relaxed: the slot's state word publishes the payload.
                words[*at].store(v, Ordering::Relaxed);
                *at += 1;
            }
        }
    }

    /// Appends an `f64` (raw bits, so NaNs round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed slice of `f64`s, in bulk.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        match &mut self.0 {
            Sink::Buffer { buf, .. } => {
                buf.reserve(8 + 8 * vs.len());
                buf.put_u64_le(vs.len() as u64);
                buf.put_f64_slice_le(vs);
            }
            Sink::Words { words, at } => {
                let run = &words[*at..=*at + vs.len()];
                run[0].store(vs.len() as u64, Ordering::Relaxed);
                for (word, v) in run[1..].iter().zip(vs) {
                    word.store(v.to_bits(), Ordering::Relaxed);
                }
                *at += run.len();
            }
        }
    }

    /// Appends raw bytes; a ragged tail is zero-padded to a whole word
    /// in place, so it must be the last thing written.
    #[cfg(test)]
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        match &mut self.0 {
            Sink::Buffer { buf, .. } => buf.put_slice(bytes),
            Sink::Words { words, at } => {
                crate::mailbox::store_words(&words[*at..], bytes);
                *at += bytes.len().div_ceil(8);
            }
        }
    }

    /// Panics unless exactly `len` payload bytes (for an in-place sink:
    /// their whole words) have been written — an encoder that disagrees
    /// with the length it announced would publish another message's
    /// tail.
    pub(crate) fn assert_filled(&self, len: usize) {
        let (written, announced) = match &self.0 {
            Sink::Buffer { buf, start } => (buf.len() - start, len),
            Sink::Words { at, .. } => (at * 8, len.next_multiple_of(8)),
        };
        assert_eq!(
            written, announced,
            "the encoder wrote another length than it announced"
        );
    }
}

/// Incrementally decodes a payload written by [`PayloadWriter`].
#[derive(Debug)]
pub struct PayloadReader {
    buf: Bytes,
}

impl PayloadReader {
    /// Wraps a payload for reading.
    #[must_use]
    pub fn new(buf: Bytes) -> Self {
        Self { buf }
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::MalformedPayload`] if fewer than 8 bytes
    /// remain.
    pub fn get_u64(&mut self) -> Result<u64, MpiError> {
        if self.buf.remaining() < 8 {
            return Err(MpiError::MalformedPayload {
                what: "truncated u64",
            });
        }
        Ok(self.buf.get_u64_le())
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::MalformedPayload`] if fewer than 8 bytes
    /// remain.
    pub fn get_f64(&mut self) -> Result<f64, MpiError> {
        if self.buf.remaining() < 8 {
            return Err(MpiError::MalformedPayload {
                what: "truncated f64",
            });
        }
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed `Vec<f64>`.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::MalformedPayload`] on a truncated or
    /// oversized length prefix.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, MpiError> {
        let len = self.get_u64()? as usize;
        if self.buf.remaining() < len.saturating_mul(8) {
            return Err(MpiError::MalformedPayload {
                what: "truncated f64 vector",
            });
        }
        let mut out = vec![0.0; len];
        self.buf.get_f64_slice_le(&mut out);
        Ok(out)
    }

    /// Reads a length-prefixed `f64` sequence into an existing slice,
    /// without allocating — the in-place decode used on the collector
    /// hot path.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::MalformedPayload`] if the encoded length
    /// differs from `out.len()` or the payload is truncated.
    pub fn get_f64_slice_into(&mut self, out: &mut [f64]) -> Result<(), MpiError> {
        let len = self.get_u64()? as usize;
        if len != out.len() {
            return Err(MpiError::MalformedPayload {
                what: "f64 vector length mismatch",
            });
        }
        if self.buf.remaining() < len.saturating_mul(8) {
            return Err(MpiError::MalformedPayload {
                what: "truncated f64 vector",
            });
        }
        self.buf.get_f64_slice_le(out);
        Ok(())
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_testkit::prelude::*;

    #[test]
    fn round_trip_mixed_payload() {
        let mut w = PayloadWriter::new();
        w.put_u64(7);
        w.put_f64(-1.25);
        w.put_f64_slice(&[0.0, 1.0, f64::INFINITY]);
        let mut r = PayloadReader::new(w.finish());
        assert_eq!(r.get_u64().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap(), -1.25);
        assert_eq!(r.get_f64_vec().unwrap(), vec![0.0, 1.0, f64::INFINITY]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error() {
        let mut r = PayloadReader::new(Bytes::from_static(&[0, 1, 2]));
        assert!(matches!(
            r.get_u64(),
            Err(MpiError::MalformedPayload { .. })
        ));
        let mut w = PayloadWriter::new();
        w.put_u64(100); // claims 100 f64s, provides none
        let mut r = PayloadReader::new(w.finish());
        assert!(matches!(
            r.get_f64_vec(),
            Err(MpiError::MalformedPayload { .. })
        ));
    }

    #[test]
    fn envelope_len() {
        let mut w = PayloadWriter::new();
        w.put_u64(1);
        let env = Envelope {
            source: 3,
            tag: Tag(5),
            payload: w.finish(),
        };
        assert_eq!(env.len(), 8);
        assert!(!env.is_empty());
    }

    #[test]
    fn tag_display() {
        assert_eq!(Tag(5).to_string(), "tag(5)");
    }

    #[test]
    fn performance_test_message_size() {
        // The paper's performance-test message: two 1000x2 sum matrices
        // plus the sample volume. The paper quotes ~120 KB; ours is
        // 2*2000*8 ≈ 32 KB of sums plus their length prefixes.
        let mut w = PayloadWriter::new();
        w.put_u64(1); // sample volume
        w.put_f64_slice(&vec![0.0; 2000]);
        w.put_f64_slice(&vec![0.0; 2000]);
        let payload = w.finish();
        assert!(payload.len() > 32_000 && payload.len() < 40_000);
    }

    #[test]
    fn slice_into_checks_length_and_truncation() {
        let mut w = PayloadWriter::new();
        w.put_f64_slice(&[1.0, 2.0, 3.0]);
        let payload = w.finish();

        let mut exact = [0.0f64; 3];
        PayloadReader::new(payload.clone())
            .get_f64_slice_into(&mut exact)
            .unwrap();
        assert_eq!(exact, [1.0, 2.0, 3.0]);

        let mut wrong = [0.0f64; 2];
        assert!(matches!(
            PayloadReader::new(payload.clone()).get_f64_slice_into(&mut wrong),
            Err(MpiError::MalformedPayload { .. })
        ));

        let mut truncated = PayloadReader::new(payload.slice(..16));
        assert!(matches!(
            truncated.get_f64_slice_into(&mut exact),
            Err(MpiError::MalformedPayload { .. })
        ));
    }

    proptest! {
        #[test]
        fn f64_vec_round_trips(vs in collection::vec(any::<f64>(), 0..500)) {
            let mut w = PayloadWriter::new();
            w.put_f64_slice(&vs);
            let mut r = PayloadReader::new(w.finish());
            let decoded = r.get_f64_vec().unwrap();
            prop_assert_eq!(decoded.len(), vs.len());
            for (a, b) in decoded.iter().zip(&vs) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }

        /// The in-place decode agrees bit for bit with the allocating
        /// decode.
        #[test]
        fn slice_into_matches_vec_decode(vs in collection::vec(any::<f64>(), 0..200)) {
            let mut w = PayloadWriter::new();
            w.put_f64_slice(&vs);
            let payload = w.finish();
            let by_vec = PayloadReader::new(payload.clone()).get_f64_vec().unwrap();
            let mut in_place = vec![0.0f64; vs.len()];
            PayloadReader::new(payload).get_f64_slice_into(&mut in_place).unwrap();
            for (a, b) in in_place.iter().zip(&by_vec) {
                prop_assert!(a.to_bits() == b.to_bits());
            }
        }
    }
}
