//! The world launcher and per-rank communicator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parmonc_faults::FaultHandle;
use parmonc_obs::{EventKind, Monitor};

use crate::bytes::Bytes;
use crate::envelope::{Envelope, Tag, WordSink};
use crate::error::MpiError;
use crate::gate::FaultGate;
use crate::mailbox::{Cursor, Mailbox};
use crate::pool::BufferPool;

/// Per-receiver inbox statistics for monitored worlds: how many
/// messages sit undelivered in each rank's inbox, and the largest such
/// backlog ever seen. Only allocated when a [`Monitor`] is attached, so
/// unmonitored worlds pay nothing.
#[derive(Debug)]
struct ChannelStats {
    /// Messages enqueued for rank `i` and not yet pulled by it.
    depths: Vec<AtomicUsize>,
    /// High-water mark of `depths[i]`.
    high_water: Vec<AtomicU64>,
}

impl ChannelStats {
    fn new(size: usize) -> Self {
        Self {
            depths: (0..size).map(|_| AtomicUsize::new(0)).collect(),
            high_water: (0..size).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// What the ranks of one world share: every rank's inbox, and how
/// many communicators are still alive.
#[derive(Debug)]
struct Shared {
    /// `mailboxes[r]` is rank `r`'s inbox.
    mailboxes: Vec<Mailbox>,
    /// Communicators not yet dropped. A receiver blocked with nothing
    /// buffered while it is the only one left can never be served.
    live: AtomicUsize,
}

/// The per-rank handle: knows its rank, the world size, and how to
/// reach every other rank.
///
/// Matching semantics mirror MPI: [`Communicator::recv`] takes optional
/// source and tag filters; messages that arrive but do not match are
/// buffered and delivered to a later matching receive, preserving
/// per-(source, tag) order.
///
/// A communicator can move to another thread but cannot be shared
/// between threads: being the *only* writer of its rank's latest-wins
/// slots ([`Communicator::send_latest_with`]) is what lets it write
/// them in place.
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<parmonc_mpi::Communicator>();
/// ```
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    world: Arc<Shared>,
    /// This rank's read position in its own mailbox.
    cursor: Cursor,
    /// Messages taken from the mailbox but not yet matched.
    pending: VecDeque<Envelope>,
    /// Event sink for monitored worlds (disabled = one dead branch per
    /// operation).
    monitor: Monitor,
    /// Queue-depth counters, present only in monitored worlds.
    stats: Option<Arc<ChannelStats>>,
    /// The deterministic fault plane in front of every send (disabled =
    /// one dead branch per send). Force-flushed on [`Drop`] so a held
    /// message is late, never lost (unless scripted as a drop).
    gate: FaultGate,
    /// This rank's buffer freelist, locked by no other rank: encode
    /// buffers come back to it as soon as their bytes are in the
    /// destination's ring, and received payloads are copied out into
    /// buffers taken from it.
    pool: BufferPool,
}

impl Communicator {
    /// This rank's number (0-based).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[must_use]
    pub fn size(&self) -> usize {
        self.world.mailboxes.len()
    }

    /// This rank's send-buffer freelist. Senders take pre-sized encode
    /// buffers from it so steady-state traffic reuses retired
    /// allocations instead of allocating per message.
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Returns a fully consumed payload's allocation to this rank's
    /// freelist (the receiver-side half of the recycling contract).
    /// No-op if other handles to the payload are still alive.
    pub fn recycle(&self, payload: Bytes) {
        let _ = self.pool.recycle(payload);
    }

    /// Bumps the destination's queue-depth counter in a monitored
    /// world, returning the new depth. Must run *before* the message is
    /// enqueued — the receiver decrements on delivery, and a message
    /// counted after it was already delivered would underflow the
    /// counter. Balanced by [`Communicator::undo_enqueue`] when the
    /// send fails.
    fn note_enqueue(&self, dest: usize) -> Option<u64> {
        self.stats
            .as_ref()
            .map(|stats| stats.depths[dest].fetch_add(1, Ordering::Relaxed) as u64 + 1)
    }

    /// Reverts [`Communicator::note_enqueue`] after a failed send.
    fn undo_enqueue(&self, dest: usize) {
        if let Some(stats) = &self.stats {
            stats.depths[dest].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Records a successful send in a monitored world: emits
    /// `message_sent`, plus `queue_high_water` when the backlog
    /// (`depth`, from [`Communicator::note_enqueue`]) reaches a new
    /// maximum.
    fn note_send(&self, dest: usize, tag: Tag, bytes: usize, depth: u64) {
        if let Some(stats) = &self.stats {
            self.monitor.emit(
                Some(self.rank),
                EventKind::MessageSent {
                    dest,
                    tag: tag.0,
                    bytes: bytes as u64,
                },
            );
            let prev = stats.high_water[dest].fetch_max(depth, Ordering::Relaxed);
            if depth > prev {
                self.monitor
                    .emit(Some(dest), EventKind::QueueHighWater { depth });
            }
        }
    }

    /// Records a message leaving this rank's mailbox (it is now owned by
    /// the receiving rank, possibly in its pending buffer).
    fn note_delivery(&self, env: &Envelope) {
        if let Some(stats) = &self.stats {
            let depth = stats.depths[self.rank]
                .fetch_sub(1, Ordering::Relaxed)
                .saturating_sub(1) as u64;
            self.monitor.emit(
                Some(self.rank),
                EventKind::MessageReceived {
                    source: env.source,
                    tag: env.tag.0,
                    bytes: env.payload.len() as u64,
                    queue_depth: depth,
                },
            );
        }
    }

    /// Sends `payload` to rank `dest` with tag `tag`. Asynchronous and
    /// non-blocking (buffered send): the call returns once the message
    /// is enqueued.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidRank`] for an out-of-range
    /// destination, or [`MpiError::Disconnected`] if the destination has
    /// already been torn down.
    pub fn send(&self, dest: usize, tag: Tag, payload: &[u8]) -> Result<(), MpiError> {
        let mut buf = self.pool.take(payload.len());
        buf.put_slice(payload);
        self.send_bytes(dest, tag, buf.freeze())
    }

    /// Zero-copy variant of [`Communicator::send`] for payloads already
    /// in [`Bytes`] form.
    ///
    /// When a fault plane is attached ([`World::communicators_faulted`])
    /// the message may be scripted to be dropped, duplicated or held
    /// back; each injected fault is reported as a `fault_injected`
    /// monitor event. With the disabled plane (the default everywhere
    /// else) this is a single extra branch.
    ///
    /// # Errors
    ///
    /// Same as [`Communicator::send`].
    pub fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        self.check_dest(dest)?;
        self.gate
            .send(dest, tag, payload, |d, t, p| self.send_now(d, t, p))
    }

    fn check_dest(&self, dest: usize) -> Result<(), MpiError> {
        if dest < self.size() {
            Ok(())
        } else {
            Err(MpiError::InvalidRank {
                rank: dest,
                size: self.size(),
            })
        }
    }

    /// The unfaulted send path: enqueue for `dest`, with monitored
    /// queue-depth accounting. `dest` has already been validated.
    fn send_now(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        let bytes = payload.len();
        // Count the message before it is enqueued: once it is in the
        // mailbox the receiver may pull it (and decrement) at any time.
        let depth = self.note_enqueue(dest);
        match self.world.mailboxes[dest].push(self.rank, tag, payload) {
            Ok(copied) => {
                // Copied into the ring: the allocation stays here.
                if let Some(payload) = copied {
                    self.recycle(payload);
                }
                self.note_send(dest, tag, bytes, depth.unwrap_or(0));
                Ok(())
            }
            Err(e) => {
                self.undo_enqueue(dest);
                Err(e)
            }
        }
    }

    /// Sends a latest-wins message written by `fill` — see
    /// [`Transport::send_latest_with`](crate::Transport::send_latest_with).
    /// Here `fill` writes into `dest`'s inbox in place: no encode
    /// buffer, no copy, and `dest` finds only the newest such message
    /// of this rank when it looks. A payload that does not fit the
    /// in-place slot is built in a buffer from this rank's pool and
    /// goes by handle, still latest-wins.
    ///
    /// A fault plane ([`World::communicators_faulted`]) decides the
    /// message's fate in front of the slot: a dropped or held-back one
    /// is not published (the send that would release a held one
    /// supersedes it), a duplicated one is published once — a register
    /// is idempotent — and each is a `fault_injected` event.
    ///
    /// # Errors
    ///
    /// Same as [`Communicator::send`].
    ///
    /// # Panics
    ///
    /// If `fill` writes another number of bytes than `len`.
    pub fn send_latest_with(
        &self,
        dest: usize,
        tag: Tag,
        len: usize,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> Result<(), MpiError> {
        self.check_dest(dest)?;
        let queued = |d, t, p| self.send_now(d, t, p);
        if !self.gate.admits_latest(dest, tag, queued)? {
            return Ok(());
        }
        let depth = self.note_enqueue(dest);
        match self.world.mailboxes[dest].publish(self.rank, tag, len, &self.pool, fill) {
            Ok(superseded) => {
                // The message this one replaced will never be
                // delivered: it leaves the backlog here.
                if superseded {
                    self.undo_enqueue(dest);
                }
                let depth = depth.unwrap_or(0).saturating_sub(u64::from(superseded));
                self.note_send(dest, tag, len, depth);
                Ok(())
            }
            Err(e) => {
                self.undo_enqueue(dest);
                Err(e)
            }
        }
    }

    fn matches(env: &Envelope, source: Option<usize>, tag: Option<Tag>) -> bool {
        source.is_none_or(|s| env.source == s) && tag.is_none_or(|t| env.tag == t)
    }

    fn take_pending(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        // Over the two slices, not `VecDeque::iter().position(..)`:
        // whether that compiles to a loop or to a call of the
        // iterator's out-of-line `try_fold` per scan depends on how
        // the crate happens to be split into codegen units, and this
        // scan opens every receive — rank 0's inbox look after each
        // poll period among them — so its cost must not hang on that
        // split.
        let (front, back) = self.pending.as_slices();
        let found = |e: &Envelope| Self::matches(e, source, tag);
        let idx = match front.iter().position(found) {
            Some(idx) => idx,
            None => front.len() + back.iter().position(found)?,
        };
        self.pending.remove(idx)
    }

    /// Takes the next message out of this rank's mailbox, if one is
    /// deliverable, with monitored delivery accounting.
    fn poll(&mut self) -> Option<Envelope> {
        let env = self.world.mailboxes[self.rank].poll(
            &mut self.cursor,
            &self.pool,
            Ordering::Acquire,
        )?;
        self.note_delivery(&env);
        Some(env)
    }

    /// Blocks for the next message in this rank's mailbox; `Ok(None)`
    /// once `deadline` has passed.
    fn wait(&mut self, deadline: Option<Instant>) -> Result<Option<Envelope>, MpiError> {
        let world = &self.world;
        // SeqCst: pairs with the decrement in `Drop`, which is followed
        // by a look at this rank's `waiting` flag.
        let peers_alive = || world.live.load(Ordering::SeqCst) > 1;
        let env =
            world.mailboxes[self.rank].wait(&mut self.cursor, &self.pool, deadline, peers_alive)?;
        if let Some(env) = &env {
            self.note_delivery(env);
        }
        Ok(env)
    }

    /// Blocking receive of the next message matching the optional
    /// `source` and `tag` filters (`None` = wildcard, MPI's
    /// `MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Disconnected`] if every other communicator
    /// of the world has been dropped while no matching message is
    /// buffered.
    pub fn recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Result<Envelope, MpiError> {
        match self.recv_deadline(source, tag, None)? {
            Some(env) => Ok(env),
            None => unreachable!("a receive without a deadline cannot time out"),
        }
    }

    /// Blocking receive with a timeout; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::Disconnected`] if every other communicator
    /// of the world is gone and nothing is buffered.
    pub fn recv_timeout(
        &mut self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, MpiError> {
        self.recv_deadline(source, tag, Some(Instant::now() + timeout))
    }

    fn recv_deadline(
        &mut self,
        source: Option<usize>,
        tag: Option<Tag>,
        deadline: Option<Instant>,
    ) -> Result<Option<Envelope>, MpiError> {
        if let Some(env) = self.take_pending(source, tag) {
            return Ok(Some(env));
        }
        while let Some(env) = self.wait(deadline)? {
            if Self::matches(&env, source, tag) {
                return Ok(Some(env));
            }
            self.pending.push_back(env);
        }
        Ok(None)
    }

    /// Non-blocking receive: returns a matching message if one is
    /// already available (MPI's `MPI_Iprobe` + `MPI_Recv` pattern the
    /// collector loop uses).
    pub fn try_recv(&mut self, source: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        if let Some(env) = self.take_pending(source, tag) {
            return Some(env);
        }
        while let Some(env) = self.poll() {
            if Self::matches(&env, source, tag) {
                return Some(env);
            }
            self.pending.push_back(env);
        }
        None
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A rank tearing down force-flushes anything the fault plane
        // was holding, so "delayed" can never silently become "lost".
        // Errors are ignored: the receiver may already be gone.
        let _ = self.gate.flush(true, |d, t, p| self.send_now(d, t, p));
        self.world.mailboxes[self.rank].close();
        // Only a receiver left alone gives up, so only the departure
        // that leaves one communicator behind has anyone to wake.
        // SeqCst: ordered before the `waiting` loads below, pairing
        // with a sleeper's `waiting` store followed by its `live` load.
        if self.world.live.fetch_sub(1, Ordering::SeqCst) == 2 {
            for mailbox in &self.world.mailboxes {
                mailbox.wake_if_waiting();
            }
        }
    }
}

/// The world launcher: the `mpirun` analogue.
#[derive(Debug)]
pub struct World;

impl World {
    /// Builds the communicators for a world of `size` ranks, one to
    /// move onto each rank's thread (the runner spawns and joins the
    /// ranks itself).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`.
    pub fn communicators(size: usize) -> Result<Vec<Communicator>, MpiError> {
        Self::communicators_faulted(size, Monitor::disabled(), FaultHandle::disabled())
    }

    /// [`World::communicators`] with a [`Monitor`] and a deterministic
    /// fault plane attached. Every communicator reports
    /// `message_sent` / `message_received` / `queue_high_water` events
    /// through the monitor; every send consults the shared
    /// [`FaultHandle`], which may drop, duplicate or delay it. With
    /// both disabled this is exactly [`World::communicators`] — the
    /// queue-depth counters are not even allocated.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::EmptyWorld`] if `size == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use parmonc_faults::FaultHandle;
    /// use parmonc_mpi::{Tag, World};
    /// use parmonc_obs::{MemorySink, Monitor};
    /// use std::sync::Arc;
    ///
    /// let sink = Arc::new(MemorySink::new());
    /// let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
    /// let mut comms = World::communicators_faulted(2, monitor, FaultHandle::disabled()).unwrap();
    /// comms[1].send(0, Tag(1), b"subtotal").unwrap();
    /// comms[0].recv(None, None).unwrap();
    /// let kinds: Vec<_> = sink.snapshot().iter().map(|e| e.kind.name().to_string()).collect();
    /// assert_eq!(kinds, ["message_sent", "queue_high_water", "message_received"]);
    /// ```
    pub fn communicators_faulted(
        size: usize,
        monitor: Monitor,
        faults: FaultHandle,
    ) -> Result<Vec<Communicator>, MpiError> {
        if size == 0 {
            return Err(MpiError::EmptyWorld);
        }
        let world = Arc::new(Shared {
            mailboxes: (0..size).map(|_| Mailbox::new(size)).collect(),
            live: AtomicUsize::new(size),
        });
        let stats = monitor
            .is_enabled()
            .then(|| Arc::new(ChannelStats::new(size)));
        Ok((0..size)
            .map(|rank| Communicator {
                rank,
                world: Arc::clone(&world),
                cursor: Cursor::default(),
                pending: VecDeque::new(),
                monitor: monitor.clone(),
                stats: stats.clone(),
                gate: FaultGate::new(rank, faults.clone(), monitor.clone()),
                pool: BufferPool::default(),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::within;
    use parmonc_obs::MemorySink;
    use parmonc_testkit::TestRng;

    /// Generous: a hang is forever, a loaded machine is not.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Runs `f` on every rank of a fresh world of `size`, one scoped
    /// thread per rank (the runner's own pattern), and returns the
    /// results by rank. A rank's panic is re-raised here.
    fn on_ranks<T: Send>(
        size: usize,
        f: impl Fn(&mut Communicator) -> Result<T, MpiError> + Sync,
    ) -> Vec<Result<T, MpiError>> {
        let f = &f;
        let comms = World::communicators(size).unwrap();
        std::thread::scope(|scope| {
            let ranks: Vec<_> = comms
                .into_iter()
                .map(|mut comm| scope.spawn(move || f(&mut comm)))
                .collect();
            ranks
                .into_iter()
                .map(|rank| rank.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    fn monitored(size: usize, monitor: Monitor) -> Vec<Communicator> {
        World::communicators_faulted(size, monitor, FaultHandle::disabled()).unwrap()
    }

    #[test]
    fn world_rejects_zero_ranks() {
        assert!(matches!(World::communicators(0), Err(MpiError::EmptyWorld)));
    }

    #[test]
    fn rank_and_size() {
        let comms = World::communicators(3).unwrap();
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 3);
        }
    }

    #[test]
    fn ping_pong() {
        let results = on_ranks(2, |comm| {
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
        });
        assert_eq!(results[0].as_ref().unwrap(), b"pong");
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let mut comms = World::communicators(2).unwrap();
        let c = &mut comms[0];
        assert!(matches!(
            c.send(5, Tag(0), b""),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn self_send_and_receive() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(9), b"hello").unwrap();
        let env = c.recv(Some(0), Some(Tag(9))).unwrap();
        assert_eq!(&env.payload[..], b"hello");
    }

    #[test]
    fn tag_matching_buffers_non_matching_messages() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(1), b"first").unwrap();
        c.send(0, Tag(2), b"second").unwrap();
        // Ask for tag 2 first: tag-1 message must be buffered, not lost.
        let env2 = c.recv(None, Some(Tag(2))).unwrap();
        assert_eq!(&env2.payload[..], b"second");
        let env1 = c.recv(None, Some(Tag(1))).unwrap();
        assert_eq!(&env1.payload[..], b"first");
    }

    #[test]
    fn per_source_order_is_preserved() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        for i in 0..10u8 {
            c.send(0, Tag(0), &[i]).unwrap();
        }
        for i in 0..10u8 {
            let env = c.recv(Some(0), Some(Tag(0))).unwrap();
            assert_eq!(env.payload[0], i);
        }
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mut comms = World::communicators(2).unwrap();
        assert!(comms[0].try_recv(None, None).is_none());
    }

    #[test]
    fn recv_timeout_times_out() {
        let mut comms = World::communicators(2).unwrap();
        let got = comms[0]
            .recv_timeout(Some(1), None, Duration::from_millis(20))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_timeout_delivers_buffered_message() {
        let mut comms = World::communicators(1).unwrap();
        let c = &mut comms[0];
        c.send(0, Tag(1), b"now").unwrap();
        let got = c
            .recv_timeout(None, Some(Tag(1)), Duration::from_millis(1))
            .unwrap();
        assert!(got.is_some());
    }

    #[test]
    fn many_to_one_gather_pattern() {
        // The PARMONC collector pattern: rank 0 receives from everyone
        // in arrival order with wildcard matching.
        let results = on_ranks(8, |comm| {
            if comm.rank() == 0 {
                let mut total = 0u64;
                for _ in 1..comm.size() {
                    let env = comm.recv(None, None)?;
                    total += u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                }
                Ok(total)
            } else {
                comm.send(0, Tag(0), &(comm.rank() as u64).to_le_bytes())?;
                Ok(0)
            }
        });
        assert_eq!(*results[0].as_ref().unwrap(), (1..8).sum::<u64>());
    }

    #[test]
    fn stress_many_ranks_many_messages() {
        let results = on_ranks(16, |comm| {
            if comm.rank() == 0 {
                let mut sum = 0u64;
                let expected = (comm.size() - 1) * 50;
                for _ in 0..expected {
                    let env = comm.recv(None, None)?;
                    sum += u64::from_le_bytes(env.payload[..8].try_into().unwrap());
                }
                Ok(sum)
            } else {
                for i in 0..50u64 {
                    comm.send(0, Tag(0), &i.to_le_bytes())?;
                }
                Ok(0)
            }
        });
        assert_eq!(*results[0].as_ref().unwrap(), 15 * (0..50).sum::<u64>());
    }

    #[test]
    fn monitored_world_counts_queue_depths() {
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let mut comms = monitored(2, monitor);
        let (left, right) = comms.split_at_mut(1);
        let receiver = &mut left[0];
        let sender = &mut right[0];
        for i in 0..4u8 {
            sender.send(0, Tag(1), &[i]).unwrap();
        }
        for _ in 0..4 {
            receiver.recv(None, None).unwrap();
        }
        let events = sink.snapshot();
        let sent = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MessageSent { .. }))
            .count();
        let received: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageReceived { queue_depth, .. } => Some(queue_depth),
                _ => None,
            })
            .collect();
        let high_water: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::QueueHighWater { depth } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(sent, 4);
        // Backlog drains 3, 2, 1, 0 as the four messages are delivered.
        assert_eq!(received, vec![3, 2, 1, 0]);
        // Each send deepened the backlog, so each set a new high water.
        assert_eq!(high_water, vec![1, 2, 3, 4]);
    }

    #[test]
    fn latest_wins_send_is_superseded_and_never_overtaken() {
        let mut comms = World::communicators(2).unwrap();
        let (left, right) = comms.split_at_mut(1);
        let (receiver, sender) = (&mut left[0], &right[0]);
        for value in [1u64, 2, 3] {
            sender
                .send_latest_with(0, Tag(1), 8, |sink| sink.put_u64(value))
                .unwrap();
        }
        sender.send(0, Tag(2), b"final").unwrap();
        // The newest of the three, ahead of what was queued after it.
        let env = receiver.try_recv(None, None).unwrap();
        assert_eq!((env.source, env.tag), (1, Tag(1)));
        assert_eq!(env.payload[..], 3u64.to_le_bytes());
        assert_eq!(receiver.try_recv(None, None).unwrap().tag, Tag(2));
        assert!(receiver.try_recv(None, None).is_none());
        // No encode buffer was taken for any of them.
        assert_eq!(sender.pool().idle(), 1, "only the queued send's buffer");
        assert!(matches!(
            sender.send_latest_with(5, Tag(1), 0, |_| {}),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn latest_wins_send_counts_superseded_messages_out_of_the_backlog() {
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let mut comms = monitored(2, monitor);
        let (left, right) = comms.split_at_mut(1);
        for value in [1u64, 2, 3] {
            right[0]
                .send_latest_with(0, Tag(1), 8, |sink| sink.put_u64(value))
                .unwrap();
        }
        right[0].send(0, Tag(2), b"final").unwrap();
        while left[0].try_recv(None, None).is_some() {}
        let events = sink.snapshot();
        let sent: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageSent { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        let received: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageReceived {
                    tag, queue_depth, ..
                } => Some((tag, queue_depth)),
                _ => None,
            })
            .collect();
        let high_water: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::QueueHighWater { depth } => Some(depth),
                _ => None,
            })
            .collect();
        // Every publish is a message sent; two of them were superseded
        // unread, so two never arrive and never deepen the backlog.
        assert_eq!(sent, vec![1, 1, 1, 2]);
        assert_eq!(received, vec![(1, 1), (2, 0)]);
        assert_eq!(high_water, vec![1, 2]);
    }

    /// A fault plan decides a latest-wins message's fate in front of
    /// the slot it is published into, and changes nothing else: what is
    /// published still supersedes and is superseded.
    #[test]
    fn latest_wins_send_is_published_in_a_faulted_world_unless_its_fate_says_no() {
        use parmonc_faults::{FaultKind, FaultPlan};
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let faults = FaultPlan::new(1)
            .drop_message(1, 0, 1, 1)
            .delay_message(1, 0, 1, 2, 1)
            .duplicate_message(1, 0, 1, 4)
            .build();
        let mut comms = World::communicators_faulted(2, monitor, faults.clone()).unwrap();
        let (left, right) = comms.split_at_mut(1);
        let (receiver, sender) = (&mut left[0], &right[0]);
        let publish = |value: u64| {
            sender
                .send_latest_with(0, Tag(1), 8, |sink| sink.put_u64(value))
                .unwrap();
        };
        let mut newest = || {
            let env = receiver.try_recv(None, None)?;
            assert!(receiver.try_recv(None, None).is_none(), "one slot");
            Some(u64::from_le_bytes(env.payload[..].try_into().unwrap()))
        };
        // Message 0 is published; the dropped 1 and the held-back 2
        // leave it where it is, unread.
        publish(10);
        publish(11);
        publish(12);
        assert_eq!(newest(), Some(10));
        // Message 3 would have released the held one: it supersedes it
        // instead, and nothing comes after.
        publish(13);
        assert_eq!(newest(), Some(13));
        // The duplicated 4 is one publish.
        publish(14);
        assert_eq!(newest(), Some(14));
        // Under a plan too, a publish supersedes the unread one before.
        publish(15);
        publish(16);
        assert_eq!(newest(), Some(16));
        assert_eq!(sender.pool().idle(), 0, "no message took a buffer");

        let fired: Vec<(FaultKind, Option<u64>)> = faults
            .records()
            .into_iter()
            .map(|r| (r.kind, r.detail))
            .collect();
        assert_eq!(
            fired,
            vec![
                (FaultKind::MessageDrop, Some(1)),
                (FaultKind::MessageDelay, Some(2)),
                (FaultKind::MessageDuplicate, Some(4)),
            ]
        );
        let events = sink.snapshot();
        let injected: Vec<&str> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::FaultInjected { fault, .. } => Some(fault.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            injected,
            ["message_drop", "message_delay", "message_duplicate"]
        );
        // Seven messages were numbered and five of them sent.
        let sent = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MessageSent { .. }))
            .count();
        assert_eq!(sent, 5);
    }

    #[test]
    fn blocked_recv_learns_that_its_peers_are_gone() {
        // Both orders occur over the repetitions: the peer exits first,
        // or rank 0 is already asleep when it does.
        for _ in 0..50 {
            let results = within(WATCHDOG, || {
                on_ranks(2, |comm| {
                    if comm.rank() == 0 {
                        comm.recv(None, None).map(|_| ())
                    } else {
                        Ok(())
                    }
                })
            });
            assert_eq!(results, [Err(MpiError::Disconnected), Ok(())]);
        }
    }

    #[test]
    fn blocked_recv_timeout_learns_that_its_peers_are_gone() {
        // An hour's timeout: only the disconnect can end this in time.
        let results = within(WATCHDOG, || {
            on_ranks(2, |comm| {
                if comm.rank() == 0 {
                    comm.recv_timeout(None, None, Duration::from_secs(3600))
                        .map(|_| ())
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(results, [Err(MpiError::Disconnected), Ok(())]);
    }

    #[test]
    fn last_messages_of_a_departed_peer_are_still_delivered() {
        let mut comms = World::communicators(2).unwrap();
        let peer = comms.pop().unwrap();
        peer.send(0, Tag(1), b"parting words").unwrap();
        drop(peer);
        let env = comms[0].recv(None, None).unwrap();
        assert_eq!(&env.payload[..], b"parting words");
        assert_eq!(comms[0].recv(None, None), Err(MpiError::Disconnected));
        // A published message counts as buffered just the same.
        let mut comms = World::communicators(2).unwrap();
        let peer = comms.pop().unwrap();
        peer.send_latest_with(0, Tag(1), 8, |sink| sink.put_u64(7))
            .unwrap();
        drop(peer);
        let env = comms[0].recv(None, None).unwrap();
        assert_eq!(env.payload[..], 7u64.to_le_bytes());
        assert_eq!(comms[0].recv(None, None), Err(MpiError::Disconnected));
        // A message that matches no receive does not keep one alive.
        comms[0].send(0, Tag(2), b"to myself").unwrap();
        assert_eq!(
            comms[0].recv(None, Some(Tag(3))),
            Err(MpiError::Disconnected)
        );
    }

    #[test]
    fn panicking_peer_unblocks_a_receiver() {
        let (received, peer) = within(WATCHDOG, || {
            let mut comms = World::communicators(2).unwrap();
            let peer = comms.pop().unwrap();
            std::thread::scope(|scope| {
                let peer = scope.spawn(move || {
                    let _peer = peer;
                    panic!("worker exploded mid-run");
                });
                let received = comms[0].recv(None, None);
                (received, peer.join().map_err(|_| ()))
            })
        });
        assert_eq!(received, Err(MpiError::Disconnected));
        assert!(peer.is_err(), "the peer's panic reaches its join");
    }

    #[test]
    fn send_to_a_dropped_rank_is_disconnected() {
        let mut comms = World::communicators(3).unwrap();
        drop(comms.pop());
        assert_eq!(comms[0].send(2, Tag(0), b"x"), Err(MpiError::Disconnected));
        // The others are unaffected.
        comms[0].send(1, Tag(0), b"y").unwrap();
        assert_eq!(&comms[1].recv(Some(0), None).unwrap().payload[..], b"y");
    }

    #[test]
    fn buffered_sends_never_block_however_many() {
        // A same-thread harness sends far more than the ring holds
        // before it receives anything.
        let mut comms = World::communicators(2).unwrap();
        let (left, right) = comms.split_at_mut(1);
        for i in 0..20_000u64 {
            right[0].send(0, Tag(1), &i.to_le_bytes()).unwrap();
        }
        for i in 0..20_000u64 {
            let env = left[0].try_recv(Some(1), Some(Tag(1))).unwrap();
            assert_eq!(env.payload[..], i.to_le_bytes());
        }
        assert!(left[0].try_recv(None, None).is_none());
    }

    /// Six producers, 60 000 messages each, one consumer that stalls
    /// on purpose and mixes `recv` with `try_recv`: content, length and
    /// per-source order of every message are checked. The stalls let
    /// the ring fill, so traffic keeps moving between ring and spill.
    #[test]
    fn stress_six_producers_against_a_stalling_consumer() {
        const PRODUCERS: usize = 6;
        const MESSAGES: u64 = 60_000;
        const SEED: u64 = 0x006d_6169_6c62_6f78; // "mailbox"

        /// Message `i` of `source`: a seeded length (now and then a
        /// by-handle one) and bytes that depend on both.
        fn message(rng: &mut TestRng, source: usize, i: u64) -> Vec<u8> {
            let len = match rng.below(100) {
                0 => 4097 + rng.below(2000) as usize,
                1..=9 => rng.below(4097) as usize,
                _ => rng.below(130) as usize,
            };
            (0..len).map(|k| (i as usize + source + k) as u8).collect()
        }

        within(Duration::from_secs(300), || {
            let results = on_ranks(PRODUCERS + 1, |comm| {
                let rank = comm.rank();
                if rank != 0 {
                    let mut rng = TestRng::new(SEED + rank as u64);
                    for i in 0..MESSAGES {
                        comm.send(0, Tag(rank as u32), &message(&mut rng, rank, i))?;
                    }
                    return Ok(());
                }
                let mut expected: Vec<(TestRng, u64)> = (0..=PRODUCERS)
                    .map(|source| (TestRng::new(SEED + source as u64), 0))
                    .collect();
                let mut pace = TestRng::new(SEED);
                let mut received = 0;
                while received < PRODUCERS as u64 * MESSAGES {
                    let env = match pace.below(3) {
                        0 => comm.recv(None, None)?,
                        _ => match comm.try_recv(None, None) {
                            Some(env) => env,
                            None => continue,
                        },
                    };
                    let (rng, i) = &mut expected[env.source];
                    assert_eq!(env.tag, Tag(env.source as u32));
                    assert_eq!(
                        env.payload.to_vec(),
                        message(rng, env.source, *i),
                        "message {i} from rank {} (seed {SEED:#x})",
                        env.source
                    );
                    *i += 1;
                    received += 1;
                    comm.recycle(env.payload);
                    if pace.below(2000) == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                assert!(comm.try_recv(None, None).is_none());
                Ok(())
            });
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        });
    }

    #[test]
    fn unmonitored_world_allocates_no_stats() {
        let comms = World::communicators(2).unwrap();
        assert!(comms[0].stats.is_none());
        assert!(!comms[0].monitor.is_enabled());
    }

    #[test]
    fn faulted_world_drops_scripted_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).drop_message(1, 0, 7, 1).build();
        let mut comms =
            World::communicators_faulted(2, Monitor::disabled(), faults.clone()).unwrap();
        let (left, right) = comms.split_at_mut(1);
        for i in 0..3u8 {
            right[0].send(0, Tag(7), &[i]).unwrap();
        }
        // Sequence 1 (payload [1]) was dropped; 0 and 2 arrive in order.
        assert_eq!(left[0].try_recv(None, None).unwrap().payload[0], 0);
        assert_eq!(left[0].try_recv(None, None).unwrap().payload[0], 2);
        assert!(left[0].try_recv(None, None).is_none());
        assert_eq!(faults.records().len(), 1);
    }

    #[test]
    fn faulted_world_duplicates_scripted_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).duplicate_message(1, 0, 1, 0).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let (left, right) = comms.split_at_mut(1);
        right[0].send(0, Tag(1), b"twice").unwrap();
        assert_eq!(&left[0].try_recv(None, None).unwrap().payload[..], b"twice");
        assert_eq!(&left[0].try_recv(None, None).unwrap().payload[..], b"twice");
        assert!(left[0].try_recv(None, None).is_none());
    }

    #[test]
    fn delayed_message_is_overtaken_then_delivered() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).delay_message(1, 0, 1, 0, 2).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let (left, right) = comms.split_at_mut(1);
        right[0].send(0, Tag(1), b"early").unwrap(); // held
        assert!(left[0].try_recv(None, None).is_none());
        right[0].send(0, Tag(1), b"mid").unwrap(); // ages held to 1
        right[0].send(0, Tag(1), b"late").unwrap(); // releases held first
        let order: Vec<Vec<u8>> = (0..3)
            .map(|_| left[0].try_recv(None, None).unwrap().payload.to_vec())
            .collect();
        assert_eq!(
            order,
            vec![b"mid".to_vec(), b"early".to_vec(), b"late".to_vec()]
        );
    }

    #[test]
    fn dropping_a_communicator_flushes_held_messages() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).delay_message(1, 0, 1, 0, 100).build();
        let mut comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        let sender = comms.pop().unwrap();
        sender.send(0, Tag(1), b"held").unwrap();
        assert!(comms[0].try_recv(None, None).is_none());
        drop(sender); // force-flush: late, never lost
        assert_eq!(&comms[0].try_recv(None, None).unwrap().payload[..], b"held");
    }

    #[test]
    fn message_faults_emit_monitor_events() {
        use parmonc_faults::FaultPlan;
        let sink = Arc::new(MemorySink::new());
        let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let faults = FaultPlan::new(1).drop_message(1, 0, 1, 0).build();
        let comms = World::communicators_faulted(2, monitor, faults).unwrap();
        comms[1].send(0, Tag(1), b"gone").unwrap();
        let events = sink.snapshot();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::FaultInjected { fault, detail: Some(0) } if fault == "message_drop"
        )));
        // A dropped message produces no message_sent event.
        assert!(!events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MessageSent { .. })));
    }

    #[test]
    fn faulted_send_still_validates_the_destination() {
        use parmonc_faults::FaultPlan;
        let faults = FaultPlan::new(1).drop_fraction(1.0).build();
        let comms = World::communicators_faulted(2, Monitor::disabled(), faults).unwrap();
        assert!(matches!(
            comms[0].send(5, Tag(0), b""),
            Err(MpiError::InvalidRank { rank: 5, size: 2 })
        ));
    }
}
