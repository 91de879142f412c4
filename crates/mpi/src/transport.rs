//! The [`Transport`] abstraction: the exact MPI subset PARMONC
//! consumes, as a trait.
//!
//! The runner (rank 0's collector loop, the workers' asynchronous
//! subtotal emission, heartbeats and liveness probing) only ever uses
//! a narrow slice of MPI: buffered point-to-point sends, blocking and
//! non-blocking receives with source/tag matching, `MPI_Iprobe`, and
//! the start-up barrier. [`Transport`] captures that slice so the
//! same collector/worker code runs unchanged over any substrate:
//!
//! * the in-process thread substrate ([`Communicator`], this crate) —
//!   ranks are OS threads exchanging [`Envelope`]s through per-rank
//!   in-place mailboxes;
//! * the socket substrate (`parmonc-ipc`) — ranks are processes that
//!   dial the collector, lease a rank via a versioned handshake and
//!   exchange the same length-prefixed envelopes: remote workers over
//!   TCP with elastic membership, or children a launcher started on
//!   this host, over a Unix-domain socket.
//!
//! The collectives ([`Transport::barrier`] and friends) are provided
//! methods layered on the point-to-point surface, so an implementor
//! only supplies the eight required primitives — [`Transport::send`]
//! and [`Transport::recycle`] default to the copying and pooling
//! obvious, [`Transport::send_latest_with`] to an ordinary queued
//! send, and [`Transport::retire_rank`] is an optional lifecycle
//! hint that only rank-leasing substrates act on.

use std::time::Duration;

use crate::bytes::Bytes;
use crate::collective;
use crate::comm::Communicator;
use crate::envelope::{Envelope, Tag, WordSink};
use crate::error::MpiError;
use crate::pool::BufferPool;

/// The MPI subset PARMONC consumes, abstracted over the substrate.
///
/// Matching semantics mirror MPI (and [`Communicator`], the reference
/// implementor): receives take optional source and tag filters
/// (`None` = wildcard); messages that arrive but do not match are
/// buffered and delivered to a later matching receive, preserving
/// per-(source, tag) order.
pub trait Transport {
    /// This rank's number (0-based).
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// The send-buffer freelist for this rank: senders take pre-sized
    /// encode buffers from it so steady-state traffic reuses retired
    /// allocations instead of allocating per message.
    fn pool(&self) -> &BufferPool;

    /// Returns a fully consumed payload's allocation to the freelist
    /// (the receiver-side half of the recycling contract). No-op if
    /// other handles to the payload are still alive.
    fn recycle(&self, payload: Bytes) {
        let _ = self.pool().recycle(payload);
    }

    /// Sends `payload` to rank `dest` with tag `tag`. Asynchronous and
    /// non-blocking (buffered send).
    ///
    /// # Errors
    ///
    /// [`MpiError::InvalidRank`] for an out-of-range destination, or
    /// [`MpiError::Disconnected`] if the destination is gone.
    fn send(&self, dest: usize, tag: Tag, payload: &[u8]) -> Result<(), MpiError> {
        self.send_bytes(dest, tag, Bytes::copy_from_slice(payload))
    }

    /// Zero-copy variant of [`Transport::send`] for payloads already in
    /// [`Bytes`] form.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::send`].
    fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError>;

    /// Sends a *latest-wins* message of `len` bytes, written by `fill`:
    /// one that supersedes this rank's earlier latest-wins messages to
    /// `dest` — a cumulative subtotal, of which the receiver only ever
    /// wants the newest. The substrate may drop it in favour of a
    /// newer latest-wins message from this rank that `dest` has not
    /// taken yet, and for nothing else; a message sent with
    /// [`Transport::send`] or [`Transport::send_bytes`] afterwards is
    /// never delivered ahead of it (or of the one that superseded it).
    ///
    /// The default encodes into a buffer from [`Transport::pool`] and
    /// queues it with [`Transport::send_bytes`]: every message is
    /// delivered, which is what the socket substrates put on the wire.
    /// The thread substrate lets `fill` write into the destination's
    /// inbox in place.
    ///
    /// # Errors
    ///
    /// Same as [`Transport::send`].
    ///
    /// # Panics
    ///
    /// If `fill` writes another number of bytes than `len`.
    fn send_latest_with(
        &self,
        dest: usize,
        tag: Tag,
        len: usize,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> Result<(), MpiError>
    where
        Self: Sized,
    {
        let payload = WordSink::fill_pooled(self.pool(), len, fill);
        self.send_bytes(dest, tag, payload)
    }

    /// Blocking receive of the next message matching the optional
    /// `source` and `tag` filters.
    ///
    /// # Errors
    ///
    /// [`MpiError::Disconnected`] if all possible senders are gone
    /// while no matching message is buffered.
    fn recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Result<Envelope, MpiError>;

    /// Blocking receive with a timeout; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`MpiError::Disconnected`] if all senders are gone.
    fn recv_timeout(
        &mut self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, MpiError>;

    /// Non-blocking receive: returns a matching message if one is
    /// already available (the `MPI_Iprobe` + `MPI_Recv` pattern the
    /// collector loop uses).
    fn try_recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope>;

    /// Whether a matching message is available without consuming it.
    fn iprobe(&mut self, source: Option<usize>, tag: Option<Tag>) -> bool;

    /// Declares that `rank`'s realization budget has been reassigned
    /// and the rank must never rejoin the world.
    ///
    /// The collector calls this when it declares a worker lost. For the
    /// thread substrate it is meaningless and the default is a no-op; a
    /// substrate that leases ranks (the socket world) must stop leasing
    /// the rank to new joiners, or a
    /// late joiner would redo realizations the collector already dealt
    /// to the survivors and the estimate would double-count them.
    fn retire_rank(&self, rank: usize) {
        let _ = rank;
    }

    /// Blocks until every rank has entered the barrier.
    ///
    /// # Errors
    ///
    /// Propagates transport errors ([`MpiError::Disconnected`]).
    fn barrier(&mut self) -> Result<(), MpiError>
    where
        Self: Sized,
    {
        collective::barrier(self)
    }

    /// Broadcasts `value` from `root` to all ranks; every rank returns
    /// the broadcast vector.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, and [`MpiError::InvalidRank`] for a
    /// bad root.
    fn broadcast_f64(&mut self, root: usize, value: &[f64]) -> Result<Vec<f64>, MpiError>
    where
        Self: Sized,
    {
        collective::broadcast_f64(self, root, value)
    }

    /// Gathers each rank's `value` vector on `root`; the root returns
    /// `Some(values_by_rank)`, other ranks return `None`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, and [`MpiError::InvalidRank`] for a
    /// bad root.
    fn gather(&mut self, root: usize, value: &[f64]) -> Result<Option<Vec<Vec<f64>>>, MpiError>
    where
        Self: Sized,
    {
        collective::gather(self, root, value)
    }

    /// Reduces each rank's `value` vector by entrywise summation on
    /// `root`; the root returns `Some(sums)`, other ranks return
    /// `None`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; [`MpiError::MalformedPayload`] if
    /// rank contributions have mismatched lengths.
    fn reduce_sum(&mut self, root: usize, value: &[f64]) -> Result<Option<Vec<f64>>, MpiError>
    where
        Self: Sized,
    {
        collective::reduce_sum(self, root, value)
    }
}

impl Transport for Communicator {
    fn rank(&self) -> usize {
        Communicator::rank(self)
    }

    fn size(&self) -> usize {
        Communicator::size(self)
    }

    fn pool(&self) -> &BufferPool {
        Communicator::pool(self)
    }

    fn send(&self, dest: usize, tag: Tag, payload: &[u8]) -> Result<(), MpiError> {
        Communicator::send(self, dest, tag, payload)
    }

    fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        Communicator::send_bytes(self, dest, tag, payload)
    }

    fn send_latest_with(
        &self,
        dest: usize,
        tag: Tag,
        len: usize,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> Result<(), MpiError> {
        Communicator::send_latest_with(self, dest, tag, len, fill)
    }

    fn recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Result<Envelope, MpiError> {
        Communicator::recv(self, source, tag)
    }

    fn recv_timeout(
        &mut self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, MpiError> {
        Communicator::recv_timeout(self, source, tag, timeout)
    }

    fn try_recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        Communicator::try_recv(self, source, tag)
    }

    fn iprobe(&mut self, source: Option<usize>, tag: Option<Tag>) -> bool {
        Communicator::iprobe(self, source, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    /// The generic surface the runner is written against must work over
    /// a `T: Transport` without naming the concrete type.
    fn ping<T: Transport>(comm: &mut T) -> Result<Vec<u8>, MpiError> {
        if comm.rank() == 0 {
            comm.send(1, Tag(1), b"ping")?;
            let reply = comm.recv(Some(1), Some(Tag(2)))?;
            Ok(reply.payload.to_vec())
        } else {
            let msg = comm.recv(Some(0), Some(Tag(1)))?;
            assert_eq!(&msg.payload[..], b"ping");
            comm.send(0, Tag(2), b"pong")?;
            Ok(Vec::new())
        }
    }

    #[test]
    fn communicator_implements_transport() {
        let results = World::run(2, ping).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), b"pong");
    }

    #[test]
    fn provided_collectives_delegate() {
        let results = World::run(3, |comm| {
            Transport::barrier(comm)?;
            let b = Transport::broadcast_f64(comm, 0, &[2.0 * comm.rank() as f64])?;
            let g = Transport::gather(comm, 0, &[comm.rank() as f64])?;
            let r = Transport::reduce_sum(comm, 0, &[1.0])?;
            Ok((b, g, r))
        })
        .unwrap();
        let (b, g, r) = results[0].as_ref().unwrap();
        assert_eq!(b, &vec![0.0]);
        assert_eq!(g.as_ref().unwrap(), &vec![vec![0.0], vec![1.0], vec![2.0]]);
        assert_eq!(r.as_ref().unwrap(), &vec![3.0]);
    }
}
