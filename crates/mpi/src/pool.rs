//! A small freelist of send buffers.
//!
//! In the strictest exchange mode a worker encodes and sends a
//! subtotal after *every* realization; allocating a fresh ~32 KB
//! buffer per message makes the allocator a hot-path participant. A
//! [`BufferPool`] keeps a bounded stack of retired allocations: the
//! sender takes one, encodes into it, freezes it into a
//! [`Bytes`] payload (no copy — see [`crate::bytes`]), and once the
//! receiver has decoded the message the allocation is
//! [`recycle`](BufferPool::recycle)d for the next send.
//!
//! Every rank owns its pool and is the only one to lock it. On the
//! threads-as-ranks substrate a message that fits the destination's
//! ring is copied in, so the sender recycles its encode buffer at
//! once, and the receiver copies it out into a buffer from *its* pool
//! and recycles that after decoding: take and recycle balance on each
//! side, and no allocation crosses threads. (One pool shared by all
//! ranks of a world put a lock and the buffers' cache lines between
//! the cores on every message.) Payloads too large for the ring travel
//! by handle and end up in the receiver's pool, up to its bound.

use std::sync::Mutex;

use crate::bytes::{Bytes, BytesMut};

/// Default bound on retained buffers (a few in-flight messages per
/// rank; beyond that, excess buffers are simply dropped).
pub const DEFAULT_POOL_CAPACITY: usize = 64;

/// A bounded, thread-safe freelist of byte buffers.
///
/// # Examples
///
/// ```
/// use parmonc_mpi::pool::BufferPool;
///
/// let pool = BufferPool::default();
/// let mut w = pool.take(1024);
/// w.put_u64_le(7);
/// let payload = w.freeze();
/// // ... send, receive, decode ...
/// assert!(pool.recycle(payload));
/// // The next take reuses the same allocation.
/// assert!(pool.take(8).capacity() >= 1024);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool retaining at most `capacity` idle buffers.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Takes a cleared builder with at least `min_capacity` bytes
    /// reserved, reusing a retired allocation when one is available.
    #[must_use]
    pub fn take(&self, min_capacity: usize) -> BytesMut {
        let recycled = self.free.lock().expect("buffer pool lock poisoned").pop();
        let mut w = match recycled {
            Some(v) => BytesMut::from_vec(v),
            None => BytesMut::with_capacity(min_capacity),
        };
        if w.capacity() < min_capacity {
            w.reserve(min_capacity);
        }
        w
    }

    /// Returns a payload's backing allocation to the freelist.
    ///
    /// Succeeds only when `payload` is the last handle to its
    /// allocation and the pool is not full; otherwise the buffer is
    /// dropped normally and `false` is returned (which is fine — the
    /// pool is an optimization, not an obligation).
    pub fn recycle(&self, payload: Bytes) -> bool {
        let Some(v) = payload.try_reclaim() else {
            return false;
        };
        let mut free = self.free.lock().expect("buffer pool lock poisoned");
        if free.len() >= self.capacity {
            return false;
        }
        free.push(v);
        true
    }

    /// Number of idle buffers currently retained.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.lock().expect("buffer pool lock poisoned").len()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(DEFAULT_POOL_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_capacity() {
        let pool = BufferPool::new(4);
        let mut w = pool.take(4096);
        w.put_slice(&[1, 2, 3]);
        let payload = w.freeze();
        assert!(pool.recycle(payload));
        assert_eq!(pool.idle(), 1);
        let w2 = pool.take(16);
        assert!(w2.capacity() >= 4096, "allocation was not reused");
        assert!(w2.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn shared_payloads_are_not_reclaimed() {
        let pool = BufferPool::new(4);
        let payload = pool.take(64).freeze();
        let clone = payload.clone();
        assert!(!pool.recycle(payload));
        assert_eq!(pool.idle(), 0);
        assert!(pool.recycle(clone));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pool_capacity_is_bounded() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            // Fresh buffers, not taken from the pool, so the freelist
            // only ever grows — until it hits the bound.
            let _ = pool.recycle(Bytes::from(vec![0u8; 8]));
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn take_honors_min_capacity_over_recycled_size() {
        let pool = BufferPool::new(4);
        assert!(pool.recycle(pool.take(8).freeze()));
        let w = pool.take(1 << 16);
        assert!(w.capacity() >= 1 << 16);
    }
}
