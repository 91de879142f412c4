//! A minimal owned-buffer type in the style of the `bytes` crate.
//!
//! The substrate moves *serialized* payloads between ranks, and many
//! ranks may hold views of the same broadcast payload, so the buffer
//! must be cheaply cloneable. [`Bytes`] is an `Arc<Vec<u8>>` plus a
//! view window: clones and [`Bytes::slice`] are O(1), and the
//! little-endian accessors consume from the front the way the envelope
//! codec reads. [`BytesMut`] is the append-only builder that freezes
//! into a [`Bytes`]. Only the surface the workspace actually uses is
//! implemented.
//!
//! The `Arc<Vec<u8>>` backing (rather than `Arc<[u8]>`) matters on the
//! hot path: `Vec<u8> → Arc<[u8]>` always copies the contents into a
//! fresh allocation, so freezing an encoded payload used to cost a
//! second full copy. Freezing into `Arc<Vec<u8>>` just moves the Vec,
//! and [`Bytes::try_reclaim`] recovers the allocation for reuse once
//! the last handle drops its claim.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer (a shared window into an
/// `Arc<Vec<u8>>`).
///
/// # Examples
///
/// ```
/// use parmonc_mpi::bytes::Bytes;
///
/// let b = Bytes::from(vec![1u8, 2, 3, 4]);
/// let head = b.slice(..2);
/// assert_eq!(&head[..], &[1, 2]);
/// assert_eq!(b.to_vec(), vec![1, 2, 3, 4]); // original unaffected
/// ```
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::from_static(&[])
    }

    /// Wraps a static slice (copies it; this shim does not borrow).
    #[must_use]
    pub fn from_static(slice: &'static [u8]) -> Self {
        Self::from(slice.to_vec())
    }

    /// Copies a slice into a fresh buffer.
    #[must_use]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Self::from(slice.to_vec())
    }

    /// The visible bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Length of the visible window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Bytes not yet consumed by the `get_*` accessors (same as
    /// [`Bytes::len`]; named for `bytes::Buf` compatibility).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.len()
    }

    /// An O(1) sub-window. `range` is relative to the current window.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the visible window into a `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Recovers the backing allocation if this is the last handle to
    /// it, for reuse through a send-buffer freelist. Returns `None`
    /// (dropping `self` normally) while other clones or slices are
    /// still alive. The returned `Vec` is the *whole* backing buffer,
    /// cleared, regardless of the window this handle viewed.
    #[must_use]
    pub fn try_reclaim(self) -> Option<Vec<u8>> {
        let mut v = Arc::try_unwrap(self.data).ok()?;
        v.clear();
        Some(v)
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "buffer underflow");
        let out = &self.data[self.start..self.start + n];
        self.start += n;
        out
    }

    /// Consumes and returns a little-endian `u64` from the front.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain (callers check
    /// [`Bytes::remaining`] first, as with `bytes::Buf`).
    pub fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Consumes and returns a little-endian `f64` from the front.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes remain.
    pub fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Consumes `out.len()` little-endian `f64`s from the front into
    /// `out` — one bounds check and one pass instead of a check per
    /// value; runs shorter than a line keep the per-value path, which
    /// is faster there.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `8 * out.len()` bytes remain.
    pub(crate) fn get_f64_slice_le(&mut self, out: &mut [f64]) {
        if out.len() < BULK_MIN_VALUES {
            for slot in out {
                *slot = self.get_f64_le();
            }
            return;
        }
        let bytes = self.take(8 * out.len());
        for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *slot = f64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        }
    }
}

/// Shortest `f64` run the bulk codec paths take (one 64-byte line);
/// below it the per-value loop wins.
const BULK_MIN_VALUES: usize = 8;

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Wraps the `Vec` without copying its contents.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl core::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// An append-only byte builder that freezes into [`Bytes`].
#[derive(Debug, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// A builder reusing a recycled allocation (cleared, capacity
    /// kept) — the freelist path of
    /// [`BufferPool`](crate::pool::BufferPool).
    #[must_use]
    pub fn from_vec(mut v: Vec<u8>) -> Self {
        v.clear();
        Self { buf: v }
    }

    /// Ensures room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Spare capacity already reserved beyond the current length.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, slice: &[u8]) {
        self.buf.extend_from_slice(slice);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` (raw bits, so NaNs round-trip).
    pub fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    /// Appends little-endian `f64`s: one `resize` and one pass instead
    /// of a capacity check per value (per-value below a line, where
    /// that is faster).
    pub(crate) fn put_f64_slice_le(&mut self, vs: &[f64]) {
        if vs.len() < BULK_MIN_VALUES {
            for v in vs {
                self.put_f64_le(*v);
            }
            return;
        }
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (chunk, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Shortens the builder to `len` bytes (no-op if already shorter).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Finalizes into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trips_scalars() {
        let mut w = BytesMut::with_capacity(24);
        w.put_u64_le(7);
        w.put_f64_le(-2.5);
        w.put_f64_le(f64::NAN);
        assert_eq!(w.len(), 24);
        let mut b = w.freeze();
        assert_eq!(b.remaining(), 24);
        assert_eq!(b.get_u64_le(), 7);
        assert_eq!(b.get_f64_le(), -2.5);
        assert!(b.get_f64_le().is_nan());
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slices_are_windows_not_copies() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = b.slice(2..8);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6, 7]);
        let tail = mid.slice(4..);
        assert_eq!(tail.to_vec(), vec![6, 7]);
        assert_eq!(b.len(), 10);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn oversized_slice_panics() {
        let _ = Bytes::from(vec![1, 2]).slice(..5);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1, 2, 3]);
        let _ = b.get_u64_le();
    }

    #[test]
    fn try_reclaim_recovers_sole_allocation() {
        let b = Bytes::from(Vec::with_capacity(64));
        let v = b.try_reclaim().expect("sole handle");
        assert!(v.is_empty());
        assert!(v.capacity() >= 64);
    }

    #[test]
    fn try_reclaim_refuses_while_shared() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let view = b.slice(1..);
        assert!(b.try_reclaim().is_none(), "slice still alive");
        assert_eq!(view.to_vec(), vec![2, 3]);
        let v = view.try_reclaim().expect("last handle");
        // The whole backing buffer comes back, cleared.
        assert!(v.is_empty());
        assert!(v.capacity() >= 3);
    }

    #[test]
    fn from_vec_builder_reuses_allocation() {
        let recycled = Vec::with_capacity(128);
        let mut w = BytesMut::from_vec(recycled);
        assert!(w.is_empty());
        assert!(w.capacity() >= 128);
        w.put_u64_le(5);
        assert_eq!(w.freeze().to_vec()[0], 5);
    }

    #[test]
    fn equality_ignores_backing_layout() {
        let a = Bytes::from(vec![9, 1, 2, 3]).slice(1..);
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
