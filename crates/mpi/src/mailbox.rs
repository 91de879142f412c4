//! The thread substrate's per-rank inbox: a fixed multi-producer /
//! single-consumer ring of in-place records, plus one locked spill
//! queue for everything the ring cannot take.
//!
//! In the strictest exchange mode every realization sends one small
//! message to rank 0, so the inbox *is* the parallel overhead. A
//! channel of heap envelopes makes both cores fight over the same
//! lines (the channel node, the payload's allocation, a shared
//! freelist lock). Here a message that fits is copied into the ring
//! and copied out again: the sender keeps its encode buffer, the
//! receiver fills one from its own pool, and nothing on the heap
//! crosses threads.
//!
//! # Record layout
//!
//! The ring is [`RING_LINES`] 64-byte lines of [`AtomicU64`] words
//! (safe Rust: payload words move with `Relaxed` stores and loads, a
//! record becomes visible by the store of its header word and is read
//! after an `Acquire` load of it). A record is
//!
//! ```text
//! [header: committed | padding | byte length][source << 32 | tag][payload words...]
//! ```
//!
//! rounded up to whole lines, so a record being written never shares a
//! line with one being read; a ragged tail is zero-padded and the true
//! byte length lives in the header. Producers claim lines with one CAS
//! on the claim cursor; a record that would straddle the end of the
//! ring claims the remainder as a padding record and starts at line 0.
//! The consumer clears the first word of every line it releases — the
//! only words a later lap can read as a header.
//!
//! # What the consumer does *not* do
//!
//! It writes nothing the producers read per message. Its position is
//! published to them in batches ([`PUBLISH_LINES`]) and never on an
//! empty poll: a cursor published per poll is a second line bouncing
//! between the cores on the path of every message.
//!
//! # Spill
//!
//! Sends never block. When the ring looks full, or the payload is
//! larger than [`INLINE_MAX`], the envelope goes by handle (no copy)
//! into a locked queue together with `mark`, the claim cursor read
//! under that lock. While the queue is non-empty every sender spills,
//! and the consumer takes a spilled envelope only once its own
//! position has reached `mark` — so everything its sender put in the
//! ring earlier has been delivered, and per-(source, tag) order holds
//! across ring → spill → ring. The ring is reused in place and never
//! grown: fresh blocks cost their page faults on every turn-over.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::bytes::Bytes;
use crate::envelope::{Envelope, Tag};
use crate::error::MpiError;
use crate::pool::BufferPool;

/// Words per 64-byte line.
const LINE_WORDS: usize = 8;
/// Ring size in lines (64 KiB).
const RING_LINES: u64 = 1024;
/// Largest payload copied into the ring; larger ones go by handle.
const INLINE_MAX: usize = 4096;
/// The consumer publishes its position once it has released this many
/// lines since the last publication.
const PUBLISH_LINES: u64 = RING_LINES / 8;
/// Words ahead of the payload in a record.
const HEADER_WORDS: usize = 2;
/// A blocking receive polls this many times with a doubling pause in
/// between ...
const SPIN_ROUNDS: u32 = 7;
/// ... then this many times yielding the core in between (with more
/// ranks than cores the sender may be waiting for this very core),
/// and only then goes to sleep.
const YIELD_ROUNDS: u32 = 4;

/// Header bit: the record is complete.
const COMMITTED: u64 = 1 << 63;
/// Header bit: the record only fills the ring up to its end.
const PADDING: u64 = 1 << 62;
/// Header bits holding the payload's byte length.
const LEN_MASK: u64 = u32::MAX as u64;

/// Lines a record with `len` payload bytes occupies.
fn record_lines(len: usize) -> u64 {
    (HEADER_WORDS + len.div_ceil(8)).div_ceil(LINE_WORDS) as u64
}

/// Copies `bytes` into `words` as little-endian words, zero-padding a
/// ragged tail.
fn store_words(words: &[AtomicU64], bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for (word, chunk) in words.iter().zip(&mut chunks) {
        let chunk = chunk.try_into().expect("chunks_exact(8)");
        word.store(u64::from_le_bytes(chunk), Ordering::Relaxed);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        words[bytes.len() / 8].store(u64::from_le_bytes(last), Ordering::Relaxed);
    }
}

/// Locks a mutex whose data every update leaves valid, so a poisoned
/// lock (a rank panicked while holding it) is still safe to enter —
/// and [`Drop`] paths must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The ring's storage, line-aligned.
struct Ring {
    words: Box<[AtomicU64]>,
    /// Index of the first word that starts a 64-byte line.
    base: usize,
}

impl Ring {
    fn new() -> Self {
        let words: Box<[AtomicU64]> = (0..RING_LINES as usize * LINE_WORDS + LINE_WORDS - 1)
            .map(|_| AtomicU64::new(0))
            .collect();
        let misaligned = words.as_ptr() as usize % 64;
        let base = (64 - misaligned) % 64 / 8;
        Self { words, base }
    }

    /// The `lines` lines starting at position `pos` (which must not
    /// straddle the end of the ring).
    fn lines(&self, pos: u64, lines: u64) -> &[AtomicU64] {
        let start = self.base + (pos % RING_LINES) as usize * LINE_WORDS;
        &self.words[start..start + lines as usize * LINE_WORDS]
    }

    /// The first word of the line at position `pos`.
    fn header(&self, pos: u64) -> &AtomicU64 {
        &self.words[self.base + (pos % RING_LINES) as usize * LINE_WORDS]
    }
}

/// The two cursors producers work on, alone on their line: the
/// consumer never reads it and writes it once per [`PUBLISH_LINES`].
#[repr(align(64))]
struct Cursors {
    /// Next unclaimed line position (monotonic; producers CAS it).
    claim: AtomicU64,
    /// Line position up to which the consumer has released the ring,
    /// as last published.
    consumed: AtomicU64,
}

/// The consumer's private position in its ring; lives in the owning
/// [`Communicator`](crate::Communicator), not in the shared mailbox.
#[derive(Debug, Default)]
pub(crate) struct Cursor {
    /// Next line position to read.
    head: u64,
    /// `head` as last published to the producers.
    published: u64,
}

/// One rank's inbox.
#[repr(align(64))]
pub(crate) struct Mailbox {
    cursors: Cursors,
    /// Allocated by the first inline send: an inbox nobody writes to
    /// owns no ring.
    ring: OnceLock<Ring>,
    /// Length of `spill`, readable without its lock.
    spilled: AtomicUsize,
    /// Set by the consumer (under `sleep`) while it is about to sleep
    /// or sleeping; producers load it after their commit store.
    waiting: AtomicBool,
    /// Set when the owning communicator is dropped.
    closed: AtomicBool,
    /// `(mark, envelope)`: by-handle messages, each deliverable once
    /// the consumer's position has reached `mark`.
    spill: Mutex<VecDeque<(u64, Envelope)>>,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl core::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Mailbox")
            .field("claim", &self.cursors.claim)
            .field("consumed", &self.cursors.consumed)
            .field("ring", &self.ring.get().is_some())
            .field("spilled", &self.spilled)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Self {
            cursors: Cursors {
                claim: AtomicU64::new(0),
                consumed: AtomicU64::new(0),
            },
            ring: OnceLock::new(),
            spilled: AtomicUsize::new(0),
            waiting: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            spill: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Delivers one message; never blocks. `Ok(Some(payload))` hands
    /// the payload back because its bytes were copied into the ring
    /// (the sender can reuse the allocation), `Ok(None)` means it went
    /// by handle.
    ///
    /// # Errors
    ///
    /// [`MpiError::Disconnected`] if the owning rank is gone.
    pub(crate) fn push(
        &self,
        source: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Result<Option<Bytes>, MpiError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(MpiError::Disconnected);
        }
        let kept = if self.push_inline(source, tag, &payload) {
            Some(payload)
        } else {
            let mut queue = lock(&self.spill);
            // Read under the lock, so marks never decrease along the
            // queue; at least the end of every record this sender has
            // put in the ring (its own claims precede this load).
            let mark = self.cursors.claim.load(Ordering::Relaxed);
            queue.push_back((
                mark,
                Envelope {
                    source,
                    tag,
                    payload,
                },
            ));
            // SeqCst: ordered against `waiting` like a header commit.
            self.spilled.store(queue.len(), Ordering::SeqCst);
            None
        };
        self.wake_if_waiting();
        Ok(kept)
    }

    /// Copies the message into the ring if it fits; `false` sends the
    /// caller to the spill queue.
    fn push_inline(&self, source: usize, tag: Tag, payload: &[u8]) -> bool {
        let Ok(source) = u32::try_from(source) else {
            return false;
        };
        // A non-empty spill queue keeps every sender out of the ring,
        // or a later message could overtake this sender's spilled one.
        if payload.len() > INLINE_MAX || self.spilled.load(Ordering::Acquire) != 0 {
            return false;
        }
        let ring = self.ring.get_or_init(Ring::new);
        let lines = record_lines(payload.len());
        // The claim reserves space and publishes no data (Relaxed);
        // what makes the space safe to write is the Acquire load of
        // `consumed`, after the consumer's Release store of it.
        let mut claim = self.cursors.claim.load(Ordering::Relaxed);
        let start = loop {
            let to_end = RING_LINES - claim % RING_LINES;
            let pad = if lines > to_end { to_end } else { 0 };
            let end = claim + pad + lines;
            if end - self.cursors.consumed.load(Ordering::Acquire) > RING_LINES {
                return false;
            }
            match self.cursors.claim.compare_exchange_weak(
                claim,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if pad > 0 {
                        ring.header(claim)
                            .store(COMMITTED | PADDING, Ordering::SeqCst);
                    }
                    break claim + pad;
                }
                Err(now) => claim = now,
            }
        };
        let record = ring.lines(start, lines);
        // Later lines first, the header's line last and in one burst:
        // the consumer polls that line, and every store to it while it
        // is being polled can cost a trip between the cores.
        let in_first_line = payload.len().min(8 * (LINE_WORDS - HEADER_WORDS));
        let (first, rest) = payload.split_at(in_first_line);
        store_words(&record[LINE_WORDS..], rest);
        record[1].store(
            u64::from(source) << 32 | u64::from(tag.0),
            Ordering::Relaxed,
        );
        store_words(&record[HEADER_WORDS..], first);
        // The commit: Release for the words above, SeqCst because it
        // must also order against the `waiting` load in `push`.
        record[0].store(COMMITTED | payload.len() as u64, Ordering::SeqCst);
        true
    }

    /// Takes the next deliverable message, if any. `order` is the
    /// ordering of the loads that decide "nothing there": `Acquire` on
    /// the polling path, `SeqCst` for the re-poll before sleeping.
    pub(crate) fn poll(
        &self,
        cursor: &mut Cursor,
        pool: &BufferPool,
        order: Ordering,
    ) -> Option<Envelope> {
        if let Some(ring) = self.ring.get() {
            loop {
                let header = ring.header(cursor.head).load(order);
                if header & COMMITTED == 0 {
                    break;
                }
                if header & PADDING != 0 {
                    let to_end = RING_LINES - cursor.head % RING_LINES;
                    self.release(ring, cursor, to_end);
                    continue;
                }
                let len = (header & LEN_MASK) as usize;
                let lines = record_lines(len);
                let record = ring.lines(cursor.head, lines);
                let meta = record[1].load(Ordering::Relaxed);
                let mut buf = pool.take(len.next_multiple_of(8));
                for word in &record[HEADER_WORDS..HEADER_WORDS + len.div_ceil(8)] {
                    buf.put_u64_le(word.load(Ordering::Relaxed));
                }
                buf.truncate(len);
                self.release(ring, cursor, lines);
                return Some(Envelope {
                    source: (meta >> 32) as usize,
                    tag: Tag(meta as u32),
                    payload: buf.freeze(),
                });
            }
        }
        // The ring is empty at `head`, or holds a record still being
        // written there — which the mark check below waits out.
        if self.spilled.load(order) == 0 {
            return None;
        }
        let mut queue = lock(&self.spill);
        if queue.front()?.0 > cursor.head {
            return None;
        }
        let (_, env) = queue.pop_front()?;
        self.spilled.store(queue.len(), Ordering::Release);
        Some(env)
    }

    /// Returns `lines` lines at the consumer's position to the
    /// producers: clears their first words now, publishes the new
    /// position once enough has accumulated.
    fn release(&self, ring: &Ring, cursor: &mut Cursor, lines: u64) {
        for line in 0..lines {
            ring.header(cursor.head + line).store(0, Ordering::Relaxed);
        }
        cursor.head += lines;
        if cursor.head - cursor.published >= PUBLISH_LINES {
            // Release: the clears above (and the payload reads before
            // them) happen before any producer that claims this space
            // after an Acquire load of `consumed`.
            self.cursors.consumed.store(cursor.head, Ordering::Release);
            cursor.published = cursor.head;
        }
    }

    /// Blocks until a message is deliverable, `deadline` passes
    /// (`Ok(None)`), or `peers_alive` turns false with nothing left to
    /// deliver. Spins and yields briefly, then sleeps on the condvar.
    ///
    /// # Errors
    ///
    /// [`MpiError::Disconnected`] when no peer is alive and the inbox
    /// is empty.
    pub(crate) fn wait(
        &self,
        cursor: &mut Cursor,
        pool: &BufferPool,
        deadline: Option<Instant>,
        peers_alive: impl Fn() -> bool,
    ) -> Result<Option<Envelope>, MpiError> {
        for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
            if let Some(env) = self.poll(cursor, pool, Ordering::Acquire) {
                return Ok(Some(env));
            }
            if round < SPIN_ROUNDS {
                for _ in 0..1u32 << round {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        // `waiting` is raised under the lock and a waker takes the
        // lock before notifying, so a notification cannot fall between
        // the re-poll and the wait.
        let mut guard = lock(&self.sleep);
        let outcome = loop {
            // Raised again on every turn: the waker lowers it, so that
            // one sleep costs one notification however many senders
            // arrive before this thread is back on a core.
            self.waiting.store(true, Ordering::SeqCst);
            if let Some(env) = self.poll(cursor, pool, Ordering::SeqCst) {
                break Ok(Some(env));
            }
            if !peers_alive() {
                // Whatever a peer sent, it sent before it left: look
                // once more now that its departure is visible.
                break self
                    .poll(cursor, pool, Ordering::SeqCst)
                    .map(Some)
                    .ok_or(MpiError::Disconnected);
            }
            guard = match deadline {
                None => self
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break Ok(None);
                    }
                    self.wake
                        .wait_timeout(guard, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        };
        self.waiting.store(false, Ordering::SeqCst);
        drop(guard);
        outcome
    }

    /// Marks the inbox closed: later sends to it fail.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Wakes the consumer if it is (about to be) asleep. Call after a
    /// `SeqCst` store of what it should see: that store and this load
    /// pair with the consumer's `waiting` store and `SeqCst` re-poll,
    /// so one of the two sides sees the other — no wake-up is lost,
    /// and an awake consumer costs no syscall.
    pub(crate) fn wake_if_waiting(&self) {
        if self.waiting.load(Ordering::SeqCst) && self.waiting.swap(false, Ordering::SeqCst) {
            let _guard = lock(&self.sleep);
            self.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::time::Duration;

    use parmonc_testkit::prelude::*;
    use parmonc_testkit::TestRng;

    use super::*;
    use crate::test_support::within;

    /// The payload of message number `seq` on its (source, tag) lane:
    /// every byte depends on the lane and the number, so a mix-up of
    /// records, lengths or tails shows.
    fn lane_payload(source: usize, tag: u32, seq: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (seq as usize * 31 + source * 7 + tag as usize * 3 + i) as u8)
            .collect()
    }

    /// Payload sizes around every boundary of the record layout: empty,
    /// ragged tails, exactly one line, inline limit ± 1, by handle —
    /// the first `edges` of them (12 leaves out the by-handle sizes).
    fn boundary_len(rng: &mut TestRng, edges: usize) -> usize {
        const EDGES: [usize; 14] = [
            0,
            1,
            7,
            8,
            9,
            47,
            48,
            49,
            64,
            1000,
            INLINE_MAX - 1,
            INLINE_MAX,
            INLINE_MAX + 1,
            3 * INLINE_MAX,
        ];
        if rng.below(4) == 0 {
            EDGES[rng.below(edges as u64) as usize]
        } else {
            rng.below(200) as usize
        }
    }

    /// Exactly-once delivery and per-(source, tag) FIFO against a model
    /// queue, over random sizes and random bursts of sends and polls —
    /// long enough to wrap the ring, need padding records, spill and
    /// come back from the spill many times.
    #[test]
    fn random_traffic_is_delivered_once_and_in_lane_order() {
        let mut wrapped = false;
        let mut overran = false;
        let mut returned = false;
        let mut check = |seed: u64| -> Result<(), TestCaseError> {
            let mut rng = TestRng::new(seed);
            let mailbox = Mailbox::new();
            let pool = BufferPool::default();
            let mut cursor = Cursor::default();
            let mut next_seq: BTreeMap<(usize, u32), u64> = BTreeMap::new();
            let mut expected: BTreeMap<(usize, u32), VecDeque<Vec<u8>>> = BTreeMap::new();
            let mut in_flight = 0usize;
            let mut was_spilling = false;
            // Half the cases send nothing by handle, so that only a
            // full ring can start a spill.
            let edges = if rng.below(2) == 0 { 12 } else { 14 };
            for _ in 0..40 {
                // A burst of sends, then a burst of polls; the long
                // send bursts overrun the ring.
                let sends = if rng.below(3) == 0 {
                    rng.below(1500)
                } else {
                    rng.below(40)
                };
                for _ in 0..sends {
                    let (source, tag) = (rng.below(3) as usize, rng.below(2) as u32);
                    let seq = next_seq.entry((source, tag)).or_default();
                    let bytes = lane_payload(source, tag, *seq, boundary_len(&mut rng, edges));
                    *seq += 1;
                    let kept = mailbox
                        .push(source, Tag(tag), Bytes::from(bytes.clone()))
                        .expect("open mailbox");
                    let may_go_inline = bytes.len() <= INLINE_MAX && !was_spilling;
                    prop_assert!(may_go_inline || kept.is_none());
                    overran |= may_go_inline && kept.is_none();
                    was_spilling = mailbox.spilled.load(Ordering::Relaxed) != 0;
                    expected.entry((source, tag)).or_default().push_back(bytes);
                    in_flight += 1;
                }
                let polls = if rng.below(3) == 0 {
                    in_flight
                } else {
                    rng.below(60) as usize
                };
                for _ in 0..polls.min(in_flight) {
                    let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire);
                    let Some(env) = env else {
                        return Err(TestCaseError::fail(format!(
                            "{in_flight} in flight, none deliverable"
                        )));
                    };
                    let lane = expected.entry((env.source, env.tag.0)).or_default();
                    prop_assert_eq!(Some(env.payload.to_vec()), lane.pop_front());
                    in_flight -= 1;
                    let spilling = mailbox.spilled.load(Ordering::Relaxed) != 0;
                    returned |= was_spilling && !spilling;
                    was_spilling = spilling;
                }
            }
            while let Some(env) = mailbox.poll(&mut cursor, &pool, Ordering::Acquire) {
                let lane = expected.entry((env.source, env.tag.0)).or_default();
                prop_assert_eq!(Some(env.payload.to_vec()), lane.pop_front());
                in_flight -= 1;
            }
            prop_assert_eq!(in_flight, 0);
            wrapped |= cursor.head > 2 * RING_LINES;
            Ok(())
        };
        let result = TestRunner::with_cases(48).run_named(
            "random_traffic_is_delivered_once_and_in_lane_order",
            &any::<u64>(),
            &mut check,
        );
        if let Err(msg) = result {
            panic!("{msg}");
        }
        assert!(
            wrapped && overran && returned,
            "the traffic never left the easy path"
        );
    }

    /// A record that does not fit before the end of the ring starts at
    /// line 0 behind a padding record, whatever the sizes around it.
    #[test]
    fn records_never_straddle_the_end_of_the_ring() {
        let mailbox = Mailbox::new();
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        // 65-line records do not divide the ring: every lap ends in a
        // padding record of a different length.
        for seq in 0..200u64 {
            let bytes = lane_payload(0, 0, seq, INLINE_MAX);
            let kept = mailbox.push(0, Tag(0), Bytes::from(bytes.clone())).unwrap();
            assert!(kept.is_some(), "message {seq} should fit the ring");
            let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire).unwrap();
            assert_eq!(env.payload.to_vec(), bytes, "message {seq}");
        }
        assert!(cursor.head > 200 * 65, "no padding was ever claimed");
    }

    /// Sleep → one send → wake, ten thousand times. The producer sends
    /// only once the consumer has raised `waiting` (it is under the
    /// sleep lock, about to wait or waiting), so every round takes the
    /// sleeping path and a lost wake-up hangs the round.
    #[test]
    fn sleeper_wakes_for_every_single_send() {
        const ROUNDS: u64 = 10_000;
        within(Duration::from_secs(120), || {
            let mailbox = Mailbox::new();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let pool = BufferPool::default();
                    let mut cursor = Cursor::default();
                    for round in 0..ROUNDS {
                        let env = mailbox
                            .wait(&mut cursor, &pool, None, || true)
                            .expect("peers alive")
                            .expect("no deadline");
                        assert_eq!(env.payload.to_vec(), round.to_le_bytes());
                    }
                });
                for round in 0..ROUNDS {
                    while !mailbox.waiting.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    let payload = Bytes::from(round.to_le_bytes().to_vec());
                    mailbox.push(1, Tag(0), payload).unwrap();
                }
            });
        });
    }

    #[test]
    fn wait_honours_its_deadline_and_the_peers_leaving() {
        let mailbox = Mailbox::new();
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        let soon = Instant::now() + Duration::from_millis(10);
        assert_eq!(
            mailbox.wait(&mut cursor, &pool, Some(soon), || true),
            Ok(None)
        );
        assert!(Instant::now() >= soon);
        assert_eq!(
            mailbox.wait(&mut cursor, &pool, None, || false),
            Err(MpiError::Disconnected)
        );
        // A message buffered before the peers left is still delivered.
        mailbox.push(2, Tag(5), Bytes::from(vec![1u8])).unwrap();
        let env = mailbox.wait(&mut cursor, &pool, None, || false).unwrap();
        assert_eq!(env.expect("buffered message").source, 2);
    }

    #[test]
    fn record_lines_round_up_to_whole_lines() {
        assert_eq!(record_lines(0), 1);
        assert_eq!(record_lines(48), 1); // 2 + 6 words: exactly one line
        assert_eq!(record_lines(49), 2);
        assert_eq!(record_lines(64), 2);
        assert_eq!(record_lines(INLINE_MAX), 65);
    }

    #[test]
    fn ring_storage_is_line_aligned() {
        let ring = Ring::new();
        assert_eq!(ring.header(0) as *const AtomicU64 as usize % 64, 0);
        assert_eq!(ring.lines(RING_LINES - 1, 1).len(), LINE_WORDS);
    }

    #[test]
    fn an_unused_mailbox_owns_no_ring() {
        let mailbox = Mailbox::new();
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        assert!(mailbox
            .poll(&mut cursor, &pool, Ordering::Acquire)
            .is_none());
        assert!(mailbox.ring.get().is_none());
        // A by-handle message does not need one either.
        let big = Bytes::from(vec![7u8; INLINE_MAX + 1]);
        assert!(mailbox.push(3, Tag(1), big).unwrap().is_none());
        assert!(mailbox.ring.get().is_none());
        let env = mailbox
            .poll(&mut cursor, &pool, Ordering::Acquire)
            .expect("spilled envelope");
        assert_eq!(
            (env.source, env.tag, env.len()),
            (3, Tag(1), INLINE_MAX + 1)
        );
    }

    #[test]
    fn inline_payload_comes_back_to_the_sender() {
        let mailbox = Mailbox::new();
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        let payload = Bytes::from(vec![1u8, 2, 3]);
        let kept = mailbox.push(1, Tag(9), payload).unwrap();
        assert_eq!(kept.expect("copied inline").to_vec(), vec![1, 2, 3]);
        let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire).unwrap();
        assert_eq!((env.source, env.tag), (1, Tag(9)));
        assert_eq!(env.payload.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn full_ring_spills_and_order_survives_the_return() {
        let mailbox = Mailbox::new();
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        // 64-byte payloads take two lines: the ring holds 512, the
        // rest spills, and nothing is consumed in between.
        let total = 2 * RING_LINES;
        let mut inline = 0;
        for i in 0..total {
            let payload = Bytes::from(vec![i as u8; 64]);
            if mailbox.push(0, Tag(1), payload).unwrap().is_some() {
                inline += 1;
            }
        }
        assert_eq!(inline, RING_LINES / 2);
        for i in 0..total {
            let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire).unwrap();
            assert_eq!(env.payload.to_vec(), vec![i as u8; 64], "message {i}");
        }
        assert!(mailbox
            .poll(&mut cursor, &pool, Ordering::Acquire)
            .is_none());
        // The queue drained, so senders are back in the ring.
        let payload = Bytes::from(vec![9u8; 64]);
        assert!(mailbox.push(0, Tag(1), payload).unwrap().is_some());
    }

    #[test]
    fn closed_mailbox_refuses_sends() {
        let mailbox = Mailbox::new();
        mailbox.close();
        assert_eq!(
            mailbox.push(0, Tag(0), Bytes::new()),
            Err(MpiError::Disconnected)
        );
    }
}
