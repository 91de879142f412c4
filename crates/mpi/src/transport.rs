//! The [`Transport`] abstraction: the exact MPI subset PARMONC
//! consumes, as a trait.
//!
//! The runner (rank 0's collector loop, the workers' asynchronous
//! subtotal emission, heartbeats and liveness probing) only ever uses
//! a narrow slice of MPI: buffered point-to-point sends, a latest-wins
//! send for cumulative subtotals, and two receives with source/tag
//! matching — one that waits up to a timeout and one that never
//! waits. [`Transport`] captures that slice so the same
//! collector/worker code runs unchanged over the thread substrate
//! ([`Communicator`], ranks exchanging [`Envelope`]s through in-place
//! mailboxes) and the socket substrate (`parmonc-ipc`, ranks as
//! processes over TCP or a Unix-domain socket).
//!
//! An implementor supplies six required methods;
//! [`Transport::send`] and [`Transport::recycle`] default to the
//! copying and pooling obvious, [`Transport::send_latest_with`] to an
//! ordinary queued send, and [`Transport::retire_rank`] is an
//! optional lifecycle hint that only rank-leasing substrates act on.

use std::time::Duration;

use crate::bytes::Bytes;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    /// Long enough for a loaded machine; a lost message fails the test
    /// instead of hanging it.
    const TIMEOUT: Duration = Duration::from_secs(10);

    /// The next message from `source` with `tag`; panics on a timeout.
    fn expect<T: Transport>(comm: &mut T, source: usize, tag: Tag) -> Result<Envelope, MpiError> {
        let env = comm.recv_timeout(Some(source), Some(tag), TIMEOUT)?;
        Ok(env.unwrap_or_else(|| panic!("nothing from rank {source} within {TIMEOUT:?}")))
    }

    /// The generic surface the runner is written against must work over
    /// a `T: Transport` without naming the concrete type.
    fn ping<T: Transport>(comm: &mut T) -> Result<Vec<u8>, MpiError> {
        if comm.rank() == 0 {
            comm.send(1, Tag(1), b"ping")?;
            let reply = expect(comm, 1, Tag(2))?;
            Ok(reply.payload.to_vec())
        } else {
            let msg = expect(comm, 0, Tag(1))?;
            assert_eq!(&msg.payload[..], b"ping");
            comm.send(0, Tag(2), b"pong")?;
            Ok(Vec::new())
        }
    }

    #[test]
    fn communicator_implements_transport() {
        let mut comms = World::communicators(2).unwrap();
        let mut peer = comms.pop().unwrap();
        let reply = std::thread::scope(|scope| {
            let worker = scope.spawn(move || ping(&mut peer));
            let reply = ping(&mut comms[0]);
            worker.join().unwrap().unwrap();
            reply
        });
        assert_eq!(reply.unwrap(), b"pong");
    }
}
