//! Wire format of the worker → collector subtotal messages
//! (paper Section 2.2).
//!
//! Each message carries the worker's *cumulative* sums so far: the two
//! matrices `[Σζ_ij]`, `[Σζ²_ij]`, the sample volume `l_m`, and the
//! worker's accumulated compute time (used for the mean-time-per-
//! realization statistic in `func_log.dat`). Because the sums are
//! cumulative, the collector keeps only the *latest* message per worker
//! and replaces rather than adds — making message loss-free retrying
//! idempotent.

use parmonc_mpi::bytes::Bytes;
use parmonc_mpi::envelope::{PayloadReader, WordSink};
use parmonc_mpi::pool::BufferPool;
use parmonc_mpi::{MpiError, Tag};
use parmonc_stats::MatrixAccumulator;

use crate::error::ParmoncError;

/// Tag of an intermediate subtotal message.
pub const TAG_SUBTOTAL: Tag = Tag(1);
/// Tag of a worker's final subtotal message (its quota is done or the
/// deadline hit).
pub const TAG_FINAL: Tag = Tag(2);
/// Tag of the collector's stop broadcast (error-controlled stopping:
/// the target `eps_max` has been reached).
pub const TAG_STOP: Tag = Tag(3);
/// Tag of a worker's liveness heartbeat (empty payload). Sent between
/// realizations when no subtotal has left the worker recently, so the
/// collector can distinguish "slow" from "dead".
pub const TAG_HEARTBEAT: Tag = Tag(4);
/// Tag of the collector's quota extension (a single `u64` payload:
/// extra realizations). Sent to survivors when a dead worker's
/// remaining budget is reassigned; the survivor simulates the extra
/// realizations on its *own* fresh leapfrog streams.
pub const TAG_EXTEND: Tag = Tag(5);
/// A subtotal snapshot from one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Subtotal {
    /// Cumulative accumulator state (sums, sums of squares, volume).
    pub acc: MatrixAccumulator,
    /// Total compute seconds the worker has spent simulating.
    pub compute_seconds: f64,
}

impl Subtotal {
    /// Copies this subtotal into `slot`, reusing the allocations of the
    /// one already there.
    pub(crate) fn copy_into(&self, slot: &mut Option<Subtotal>) {
        match slot {
            Some(sub) => {
                sub.acc.clone_from(&self.acc);
                sub.compute_seconds = self.compute_seconds;
            }
            None => *slot = Some(self.clone()),
        }
    }

    /// Exact encoded size for a `nrow × ncol` accumulator: the 32-byte
    /// header (`nrow`, `ncol`, `count`, `compute_seconds`) plus two
    /// length-prefixed `f64` matrices.
    #[must_use]
    pub fn encoded_len(nrow: usize, ncol: usize) -> usize {
        48 + 16 * (nrow * ncol)
    }

    /// Serializes into a message payload.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        Self::encode_state_pooled(&self.acc, self.compute_seconds, &BufferPool::new(1))
    }

    /// Serializes borrowed accumulator state into a recycled buffer from `pool`
    /// (the allocation-free steady state of the strictest exchange
    /// mode): takes a retired send buffer, encodes, and freezes without
    /// copying. The receiver recycles the payload back after decoding.
    #[must_use]
    pub fn encode_state_pooled(
        acc: &MatrixAccumulator,
        compute_seconds: f64,
        pool: &BufferPool,
    ) -> Bytes {
        let (nrow, ncol) = acc.shape();
        let mut buf = pool.take(Self::encoded_len(nrow, ncol));
        Self::encode_state_into(acc, compute_seconds, &mut WordSink::buffer(&mut buf));
        buf.freeze()
    }

    /// The one encoder: writes the [`Subtotal::encoded_len`] bytes of
    /// borrowed accumulator state into `sink` — a buffer, or a
    /// destination's inbox in place
    /// ([`Transport::send_latest_with`](parmonc_mpi::Transport::send_latest_with)).
    pub(crate) fn encode_state_into(
        acc: &MatrixAccumulator,
        compute_seconds: f64,
        sink: &mut WordSink<'_>,
    ) {
        let (nrow, ncol) = acc.shape();
        sink.put_u64(nrow as u64);
        sink.put_u64(ncol as u64);
        sink.put_u64(acc.count());
        sink.put_f64(compute_seconds);
        sink.put_f64_slice(acc.sums());
        sink.put_f64_slice(acc.sums_sq());
    }

    /// Deserializes from a message payload.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Mpi`] on a truncated payload or
    /// [`ParmoncError::Stats`] if the decoded shape is inconsistent.
    pub fn decode(payload: Bytes) -> Result<Self, ParmoncError> {
        let mut r = PayloadReader::new(payload);
        let nrow = r.get_u64()? as usize;
        let ncol = r.get_u64()? as usize;
        let count = r.get_u64()?;
        let compute_seconds = r.get_f64()?;
        let sums = r.get_f64_vec()?;
        let sums_sq = r.get_f64_vec()?;
        if r.remaining() != 0 {
            return Err(ParmoncError::Mpi(MpiError::MalformedPayload {
                what: "trailing bytes after subtotal",
            }));
        }
        let acc = MatrixAccumulator::from_parts(nrow, ncol, sums, sums_sq, count)?;
        Ok(Self {
            acc,
            compute_seconds,
        })
    }

    /// Deserializes into `slot` in place. When `slot` already holds a
    /// subtotal of the same shape, its matrices are overwritten without
    /// allocating — the collector's steady state, where every worker
    /// re-sends the same shape each pass. Otherwise this falls back to
    /// a fresh [`Subtotal::decode`].
    ///
    /// # Errors
    ///
    /// Same as [`Subtotal::decode`]. If the in-place path fails midway
    /// the slot's contents are unspecified; callers treat decode errors
    /// as fatal for the stream.
    pub fn decode_into(payload: &Bytes, slot: &mut Option<Subtotal>) -> Result<(), ParmoncError> {
        let mut r = PayloadReader::new(payload.clone());
        let nrow = r.get_u64()? as usize;
        let ncol = r.get_u64()? as usize;
        let count = r.get_u64()?;
        let compute_seconds = r.get_f64()?;
        match slot {
            Some(sub) if sub.acc.shape() == (nrow, ncol) => {
                let (sums, sums_sq, cnt) = sub.acc.raw_parts_mut();
                r.get_f64_slice_into(sums)?;
                r.get_f64_slice_into(sums_sq)?;
                if r.remaining() != 0 {
                    return Err(ParmoncError::Mpi(MpiError::MalformedPayload {
                        what: "trailing bytes after subtotal",
                    }));
                }
                *cnt = count;
                sub.compute_seconds = compute_seconds;
                Ok(())
            }
            _ => {
                *slot = Some(Self::decode(payload.clone())?);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Subtotal {
        let mut acc = MatrixAccumulator::new(3, 2).unwrap();
        acc.add(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        acc.add(&[-1.0, 0.5, 0.0, 2.0, 8.0, 1.0]).unwrap();
        Subtotal {
            acc,
            compute_seconds: 12.75,
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let decoded = Subtotal::decode(s.encode()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn borrowed_and_pooled_encodes_are_bitwise_identical() {
        let s = sample();
        let owned = s.encode();
        let pool = BufferPool::default();
        let pooled = Subtotal::encode_state_pooled(&s.acc, s.compute_seconds, &pool);
        assert_eq!(owned, pooled);
        // Round-trip recycling: decode, reclaim, and the next encode
        // reuses the allocation.
        assert!(pool.recycle(pooled));
        let again = Subtotal::encode_state_pooled(&s.acc, s.compute_seconds, &pool);
        assert_eq!(owned, again);
    }

    #[test]
    fn encoded_len_is_exact() {
        let s = sample();
        let (nrow, ncol) = s.acc.shape();
        assert_eq!(s.encode().len(), Subtotal::encoded_len(nrow, ncol));
    }

    #[test]
    fn decode_into_reuses_matching_slot() {
        let s = sample();
        let payload = s.encode();
        // Same-shape slot: overwritten in place.
        let mut acc0 = MatrixAccumulator::new(3, 2).unwrap();
        acc0.add(&[9.0; 6]).unwrap();
        let mut slot = Some(Subtotal {
            acc: acc0,
            compute_seconds: 0.0,
        });
        let sums_ptr = slot.as_ref().unwrap().acc.sums().as_ptr();
        Subtotal::decode_into(&payload, &mut slot).unwrap();
        assert_eq!(slot.as_ref().unwrap(), &s);
        assert_eq!(
            slot.as_ref().unwrap().acc.sums().as_ptr(),
            sums_ptr,
            "same-shape decode must not reallocate"
        );
        // Empty slot: falls back to a fresh decode.
        let mut empty = None;
        Subtotal::decode_into(&payload, &mut empty).unwrap();
        assert_eq!(empty.as_ref().unwrap(), &s);
        // Shape change: replaced, not corrupted.
        let mut other = Some(Subtotal {
            acc: MatrixAccumulator::new(2, 2).unwrap(),
            compute_seconds: 0.0,
        });
        Subtotal::decode_into(&payload, &mut other).unwrap();
        assert_eq!(other.as_ref().unwrap(), &s);
    }

    #[test]
    fn truncated_payload_errors() {
        let s = sample();
        let full = s.encode();
        for cut in [0, 8, 20, full.len() - 1] {
            let err = Subtotal::decode(full.slice(..cut));
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let s = sample();
        let mut bytes = s.encode().to_vec();
        bytes.push(0);
        assert!(Subtotal::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        // Claim 2x2 but provide 6 sums.
        let mut buf = parmonc_mpi::BytesMut::new();
        let mut w = WordSink::buffer(&mut buf);
        w.put_u64(2);
        w.put_u64(2);
        w.put_u64(1);
        w.put_f64(0.0);
        w.put_f64_slice(&[0.0; 6]);
        w.put_f64_slice(&[0.0; 6]);
        assert!(Subtotal::decode(buf.freeze()).is_err());
    }

    #[test]
    fn paper_message_size_order() {
        // 1000x2 matrices: the performance test's periodic payload.
        let acc = MatrixAccumulator::new(1000, 2).unwrap();
        let payload = Subtotal {
            acc,
            compute_seconds: 0.0,
        }
        .encode();
        // Two 2000-entry f64 matrices ≈ 32 KB plus framing.
        assert!(payload.len() >= 32_000 && payload.len() <= 33_000);
    }
}
