//! The thread substrate's per-rank inbox: a fixed multi-producer /
//! single-consumer ring of in-place records, one locked spill queue
//! for everything the ring cannot take, and beside them one
//! latest-wins slot per source for messages that supersede their
//! predecessors.
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
//!
//! # Latest-wins slots
//!
//! Ring and spill are a *queue*: every message is delivered. A
//! cumulative subtotal does not need that — the receiver replaces what
//! it holds, so one that is superseded before anybody looked is dead
//! weight. [`Mailbox::publish`] is the register beside the queue: each
//! source owns one [`Slot`], a triple buffer of line-aligned words.
//! The writer fills the buffer it owns *in place* and hands it over
//! with one `swap` on the slot's state word (which of the three
//! buffers, a dirty bit, byte length, tag); the reader takes the
//! newest with one compare-exchange on the same word. Neither ever
//! waits for the other, neither ever sees a half-written payload, and
//! a publish touches no line the reader writes unless the reader took
//! something in between. A seqlock would need one buffer less but
//! makes the *reader* retry while the writer is busy — and in the
//! regime this is for the writer is always busy.
//!
//! The table of slots is allocated by the first publish an inbox
//! receives and a slot's buffers by the first publish of its source,
//! sized for that payload: an inbox nobody publishes to (every rank
//! but the collector) owns neither. A payload that
//! does not fit — larger than [`INLINE_MAX`] or than the buffers were
//! sized for — goes *by handle* through the same state word: the
//! slot's one-deep cell holds its [`Bytes`], and a superseded handle
//! goes back to its sender's pool. Memory per inbox is bounded by
//! sources × payload, whatever the rates.
//!
//! ## The contract
//!
//! * **Superseding.** A published message is only ever dropped in
//!   favour of a *newer published message from the same source*.
//!   Nothing pushed to the queue is ever dropped, and a publish never
//!   displaces a queued message.
//! * **Order.** Before a queued message from source *s* is delivered,
//!   *s*'s unread slot is delivered first. So once a queued message
//!   has been delivered, nothing its sender published before it can
//!   still arrive: published messages of one source are delivered in
//!   the order sent, queued ones too, and a queued message never
//!   overtakes a published one. (The reverse is allowed: a publish may
//!   be delivered ahead of a message its source queued earlier.) The
//!   slot goes ahead *once* per queued message, so republishing cannot
//!   hold the queue back.
//! * **Fairness.** After the queue, [`Mailbox::poll`] visits every
//!   slot at most once per drain pass (a pass ends with the `None`
//!   that says "nothing deliverable"), so a writer that republishes
//!   faster than the reader takes cannot pin a `while let Some(..)`
//!   drain loop.
//!
//! A slot has one writer (the source rank's communicator, which is
//! not `Sync`) and one reader (the inbox's owner).
//!
//! # Which path carries a run's traffic
//!
//! Counted per path and tag in a throwaway copy (no counter is
//! committed): the m = 2 runs of the repo benchmark's thread workloads
//! at `--seconds 24`, and the sixteen M = 512 runs of a full
//! `fig2_threads` grid (1000 × 2 subtotals, 32 048 bytes).
//!
//! | runs | ring | spill | slot in place | slot by handle |
//! |---|---|---|---|---|
//! | `free_periodic_threads`, 231 | 231 finals | — | — | — |
//! | `free_strict_threads`, 524 | 524 finals | — | 1 074 203 subtotals | — |
//! | `sde_strict_threads`, 144 | — | 144 finals | — | 41 883 subtotals |
//! | `fig2_threads` M = 512, 16 | 21 796 heartbeats | 8 176 finals, 895 heartbeats | — | 118 292 subtotals |
//!
//! Every path carries traffic, so none is deleted. Heartbeats spill
//! when the ring is full or a spilled final is queued ahead of them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::bytes::Bytes;
use crate::envelope::{Envelope, Tag, WordSink};
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
pub(crate) fn store_words(words: &[AtomicU64], bytes: &[u8]) {
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

/// Copies the `len` payload bytes held in `words` into a buffer from
/// `pool` (the receiver's).
fn copy_out(words: &[AtomicU64], len: usize, pool: &BufferPool) -> Bytes {
    let mut buf = pool.take(len.next_multiple_of(8));
    for word in &words[..len.div_ceil(8)] {
        buf.put_u64_le(word.load(Ordering::Relaxed));
    }
    buf.truncate(len);
    buf.freeze()
}

/// Locks a mutex whose data every update leaves valid, so a poisoned
/// lock (a rank panicked while holding it) is still safe to enter —
/// and [`Drop`] paths must not panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Line-aligned storage of [`AtomicU64`] words.
struct Lines {
    words: Box<[AtomicU64]>,
    /// Index of the first word that starts a 64-byte line.
    base: usize,
}

impl Lines {
    fn new(lines: usize) -> Self {
        let words: Box<[AtomicU64]> = (0..lines * LINE_WORDS + LINE_WORDS - 1)
            .map(|_| AtomicU64::new(0))
            .collect();
        let misaligned = words.as_ptr() as usize % 64;
        let base = (64 - misaligned) % 64 / 8;
        Self { words, base }
    }

    /// The `lines` lines starting at line `first`.
    fn span(&self, first: usize, lines: usize) -> &[AtomicU64] {
        let start = self.base + first * LINE_WORDS;
        &self.words[start..start + lines * LINE_WORDS]
    }
}

/// The ring's storage.
struct Ring(Lines);

impl Ring {
    fn new() -> Self {
        Self(Lines::new(RING_LINES as usize))
    }

    /// The `lines` lines starting at position `pos` (which must not
    /// straddle the end of the ring).
    fn lines(&self, pos: u64, lines: u64) -> &[AtomicU64] {
        self.0.span((pos % RING_LINES) as usize, lines as usize)
    }

    /// The first word of the line at position `pos`.
    fn header(&self, pos: u64) -> &AtomicU64 {
        &self.lines(pos, 1)[0]
    }
}

/// Slot state bit: a published message nobody has taken yet.
const DIRTY: u64 = 1 << 63;
/// Slot state bit: the message is the [`Bytes`] in the slot's cell,
/// not the words of a buffer.
const BY_HANDLE: u64 = 1 << 62;
/// Slot state bits 60–61: the buffer neither side owns right now — the
/// newest published one while [`DIRTY`], a spare otherwise.
const INDEX_SHIFT: u32 = 60;
/// Slot state bits 32–59: the payload's byte length (inline messages).
const SLOT_LEN_SHIFT: u32 = 32;
const SLOT_LEN_MASK: u64 = (1 << (INDEX_SHIFT - SLOT_LEN_SHIFT)) - 1;

/// Which buffer a slot state word names.
fn buffer_index(state: u64) -> u64 {
    state >> INDEX_SHIFT & 3
}

/// A slot's three buffers, `lines` lines each.
struct Buffers {
    storage: Lines,
    lines: usize,
}

impl Buffers {
    /// Buffers that hold `words` payload words.
    fn sized_for(words: usize) -> Self {
        let lines = words.div_ceil(LINE_WORDS).max(1);
        Self {
            storage: Lines::new(3 * lines),
            lines,
        }
    }

    /// Buffer `index`'s first `words` words, if it is that large.
    fn get(&self, index: u64, words: usize) -> Option<&[AtomicU64]> {
        (words <= self.lines * LINE_WORDS)
            .then(|| &self.storage.span(index as usize * self.lines, self.lines)[..words])
    }
}

/// One source's latest-wins register in one inbox (see the module
/// docs). Of the three buffers the writer owns `back`, the reader
/// `front` and the state word the third; a publish swaps `back` with
/// the state's, a take swaps `front` with it, so the three indices
/// stay a permutation and nobody writes a buffer somebody reads.
///
/// Two lines, shared with no other slot. In the in-place regime the
/// only words of them anybody writes are `state`, `back` and `front`,
/// which the compiler keeps together; `buffers` is read-only once set
/// and `cell` idle.
#[repr(align(64))]
struct Slot {
    /// `[DIRTY | BY_HANDLE | buffer index | byte length | tag]`.
    state: AtomicU64,
    /// The buffer the next publish fills. Only the writer touches it —
    /// on this line because the writer has just swapped `state`.
    back: AtomicU64,
    /// The buffer the last take read. Only the reader touches it.
    front: AtomicU64,
    /// Allocated and sized by the source's first inline publish.
    buffers: OnceLock<Buffers>,
    /// The by-handle message. A by-handle publish replaces it and
    /// swaps `state` under this lock, and a take of a by-handle state
    /// word happens under it, so word and cell cannot disagree.
    cell: Mutex<Option<Bytes>>,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: AtomicU64::new(1 << INDEX_SHIFT),
            back: AtomicU64::new(0),
            front: AtomicU64::new(2),
            buffers: OnceLock::new(),
            cell: Mutex::new(None),
        }
    }

    /// Makes `fill`'s payload the slot's content; `true` if that
    /// superseded a message nobody had taken. A payload that does not
    /// fit the buffers is built in a buffer from `pool` (the sender's)
    /// and goes by handle.
    fn publish(
        &self,
        tag: Tag,
        len: usize,
        pool: &BufferPool,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> bool {
        let back = self.back.load(Ordering::Relaxed);
        let words = len.div_ceil(8);
        let inline = (len <= INLINE_MAX)
            .then(|| self.buffers.get_or_init(|| Buffers::sized_for(words)))
            .and_then(|buffers| buffers.get(back, words));
        let word = DIRTY | back << INDEX_SHIFT | u64::from(tag.0);
        let old = if let Some(buffer) = inline {
            let mut sink = WordSink::words(buffer);
            fill(&mut sink);
            sink.assert_filled(len);
            // The hand-over: Release for the words above, Acquire for
            // the reader's last reads of the buffer this takes back,
            // SeqCst because it must also order against the `waiting`
            // load that follows in `Mailbox::publish`.
            let old = self
                .state
                .swap(word | (len as u64) << SLOT_LEN_SHIFT, Ordering::SeqCst);
            if old & (DIRTY | BY_HANDLE) == DIRTY | BY_HANDLE {
                // The superseded message sits in the cell.
                if let Some(stale) = lock(&self.cell).take() {
                    let _ = pool.recycle(stale);
                }
            }
            old
        } else {
            let payload = WordSink::fill_pooled(pool, len, fill);
            let mut cell = lock(&self.cell);
            let stale = cell.replace(payload);
            let old = self.state.swap(word | BY_HANDLE, Ordering::SeqCst);
            drop(cell);
            if let Some(stale) = stale {
                let _ = pool.recycle(stale);
            }
            old
        };
        self.back.store(buffer_index(old), Ordering::Relaxed);
        old & DIRTY != 0
    }

    /// Replaces the state word `seen` by a clean one naming the
    /// reader's `front` buffer; `false` if a publish got in between.
    /// Release hands `front` (read to the end by the previous take) to
    /// the writer, Acquire makes the published words visible.
    fn claim(&self, seen: u64) -> bool {
        let clean = self.front.load(Ordering::Relaxed) << INDEX_SHIFT;
        let claimed = self
            .state
            .compare_exchange(seen, clean, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if claimed {
            self.front.store(buffer_index(seen), Ordering::Relaxed);
        }
        claimed
    }

    /// Takes the newest published message, if there is an unread one.
    /// `order` as in [`Mailbox::poll`].
    fn take(&self, source: usize, pool: &BufferPool, order: Ordering) -> Option<Envelope> {
        loop {
            let seen = self.state.load(order);
            if seen & DIRTY == 0 {
                return None;
            }
            // Claimed by compare-exchange on exactly the word seen: a
            // publish in between makes it fail, and the newer word is
            // looked at instead.
            let payload = if seen & BY_HANDLE != 0 {
                let mut cell = lock(&self.cell);
                if !self.claim(seen) {
                    continue;
                }
                cell.take()
                    .expect("a by-handle state word is published with its cell filled")
            } else {
                if !self.claim(seen) {
                    continue;
                }
                let len = (seen >> SLOT_LEN_SHIFT & SLOT_LEN_MASK) as usize;
                let words = self
                    .buffers
                    .get()
                    .and_then(|buffers| buffers.get(buffer_index(seen), len.div_ceil(8)))
                    .expect("an inline state word names a buffer that holds its payload");
                copy_out(words, len, pool)
            };
            return Some(Envelope {
                source,
                tag: Tag(seen as u32),
                payload,
            });
        }
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
    /// The next slot the current drain pass looks at.
    scan: usize,
    /// The source whose slot has just been delivered ahead of the
    /// queued message it has at the front: that message is due next.
    ahead_of: Option<usize>,
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
    /// One latest-wins slot per source rank, allocated by the first
    /// publish: an inbox nobody publishes to owns no table.
    slots: OnceLock<Box<[Slot]>>,
    /// Ranks in the world (the length of `slots`).
    sources: usize,
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
            .field("slots", &self.slots.get().is_some())
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl Mailbox {
    /// The inbox of one rank in a world of `sources` ranks.
    pub(crate) fn new(sources: usize) -> Self {
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
            slots: OnceLock::new(),
            sources,
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

    /// Publishes a latest-wins message (module docs): `fill` writes the
    /// `len` payload bytes into `source`'s slot in place, or — when
    /// they do not fit it — into a buffer from `pool`, the sender's
    /// own. Never blocks. `Ok(true)` if this superseded a message from
    /// `source` that had not been taken.
    ///
    /// # Errors
    ///
    /// [`MpiError::Disconnected`] if the owning rank is gone.
    ///
    /// # Panics
    ///
    /// If `fill` writes another number of bytes than `len`.
    pub(crate) fn publish(
        &self,
        source: usize,
        tag: Tag,
        len: usize,
        pool: &BufferPool,
        fill: impl FnOnce(&mut WordSink<'_>),
    ) -> Result<bool, MpiError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(MpiError::Disconnected);
        }
        let slots = self
            .slots
            .get_or_init(|| (0..self.sources).map(|_| Slot::new()).collect());
        let superseded = slots[source].publish(tag, len, pool, fill);
        self.wake_if_waiting();
        Ok(superseded)
    }

    /// What goes ahead of the queued message from `source` the
    /// consumer has reached: the source's unread slot content, once.
    /// Whatever the source published before it queued that message was
    /// visible when the message was (its swaps precede the commit the
    /// consumer read), so one take has it, or its successor; what the
    /// slot holds after that was published later — and looking again
    /// would let a source that republishes faster than the consumer
    /// takes hold back the queue behind its own message for ever.
    fn take_ahead_of_queued(
        &self,
        cursor: &mut Cursor,
        source: usize,
        pool: &BufferPool,
        order: Ordering,
    ) -> Option<Envelope> {
        if cursor.ahead_of.take() == Some(source) {
            return None;
        }
        let env = self.slots.get()?.get(source)?.take(source, pool, order)?;
        cursor.ahead_of = Some(source);
        Some(env)
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
            // `claim` may be stale (read before other producers claimed
            // and the consumer passed them), leaving `end` behind
            // `consumed`: nothing is known to be full then, and the
            // exchange below fails and refreshes it.
            let consumed = self.cursors.consumed.load(Ordering::Acquire);
            if end.saturating_sub(consumed) > RING_LINES {
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

    /// Takes the next deliverable message, if any: the queue first —
    /// but ahead of each queued message its source's unread slot —
    /// then every slot once per drain pass. `order` is the ordering of
    /// the loads that decide "nothing there": `Acquire` on the polling
    /// path, `SeqCst` for the re-poll before sleeping.
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
                let source = (meta >> 32) as usize;
                // The record stays for the next poll if its sender's
                // slot goes first.
                if let Some(env) = self.take_ahead_of_queued(cursor, source, pool, order) {
                    return Some(env);
                }
                let payload = copy_out(&record[HEADER_WORDS..], len, pool);
                self.release(ring, cursor, lines);
                return Some(Envelope {
                    source,
                    tag: Tag(meta as u32),
                    payload,
                });
            }
        }
        // The ring is empty at `head`, or holds a record still being
        // written there — which the mark check below waits out.
        if self.spilled.load(order) != 0 {
            let mut queue = lock(&self.spill);
            if let Some((_, env)) = queue.front().filter(|(mark, _)| *mark <= cursor.head) {
                if let Some(env) = self.take_ahead_of_queued(cursor, env.source, pool, order) {
                    return Some(env);
                }
                let (_, env) = queue.pop_front()?;
                self.spilled.store(queue.len(), Ordering::Release);
                return Some(env);
            }
        }
        if let Some(slots) = self.slots.get() {
            while let Some(slot) = slots.get(cursor.scan) {
                cursor.scan += 1;
                if let Some(env) = slot.take(cursor.scan - 1, pool, order) {
                    return Some(env);
                }
            }
        }
        // The pass is over: every slot has been looked at once since
        // the last `None`.
        cursor.scan = 0;
        None
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
            // "Nothing there" must come from a whole drain pass.
            cursor.scan = 0;
            if let Some(env) = self.poll(cursor, pool, Ordering::SeqCst) {
                break Ok(Some(env));
            }
            if !peers_alive() {
                // Whatever a peer sent, it sent before it left: look
                // once more now that its departure is visible (from
                // slot 0 again: the `None` above ended the pass).
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
            let mailbox = Mailbox::new(4);
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
        let mailbox = Mailbox::new(4);
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
            let mailbox = Mailbox::new(4);
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

    /// The tag the model tests publish under; queued messages use 0
    /// and 1.
    const LATEST: Tag = Tag(100);

    fn publish_bytes(
        mailbox: &Mailbox,
        source: usize,
        bytes: &[u8],
        pool: &BufferPool,
    ) -> Result<bool, MpiError> {
        mailbox.publish(source, LATEST, bytes.len(), pool, |sink| {
            sink.put_bytes(bytes);
        })
    }

    /// The latest-wins contract against a model, over seeded mixes of
    /// `publish`, queued `push` and `poll` from four sources and every
    /// boundary size. The model is the mechanism (queue first, a
    /// source's slot once ahead of its queued message, then each slot
    /// once per pass) and must predict every poll exactly; the contract
    /// is then checked on what was delivered, in its own words.
    #[test]
    fn latest_wins_traffic_keeps_the_order_contract() {
        const SOURCES: usize = 4;
        /// What a source published before it queued message `q`.
        #[derive(Default)]
        struct Lane {
            /// The newest publish nobody has taken: (number, payload).
            slot: Option<(u64, Vec<u8>)>,
            published: u64,
            /// Number of the newest publish delivered.
            delivered: Option<u64>,
            /// `published` when each undelivered queued message was sent.
            published_before: VecDeque<u64>,
        }
        let mut handle_over_inline = false;
        let mut inline_over_handle = false;
        let mut outgrew_the_slot = false;
        let mut republished_within_a_pass = false;
        let mut check = |seed: u64| -> Result<(), TestCaseError> {
            let mut rng = TestRng::new(seed);
            let mailbox = Mailbox::new(SOURCES);
            let (pool, sender_pool) = (BufferPool::default(), BufferPool::default());
            let mut cursor = Cursor::default();
            let mut lanes: Vec<Lane> = (0..SOURCES).map(|_| Lane::default()).collect();
            let mut queue: VecDeque<(usize, u32, Vec<u8>)> = VecDeque::new();
            let mut scan = 0;
            let mut ahead_of = None;
            let mut taken_this_pass = [false; SOURCES];
            for _ in 0..400 {
                let source = rng.below(SOURCES as u64) as usize;
                match rng.below(5) {
                    0 | 1 => {
                        let lane = &mut lanes[source];
                        let len = boundary_len(&mut rng, 14);
                        let bytes = lane_payload(source, LATEST.0, lane.published, len);
                        let was = mailbox
                            .slots
                            .get()
                            .map(|s| s[source].state.load(Ordering::Relaxed));
                        let superseded = publish_bytes(&mailbox, source, &bytes, &sender_pool)
                            .expect("open mailbox");
                        prop_assert_eq!(superseded, lane.slot.is_some());
                        let now = mailbox.slots.get().expect("published")[source]
                            .state
                            .load(Ordering::Relaxed);
                        let by_handle = now & BY_HANDLE != 0;
                        prop_assert!(by_handle || len <= INLINE_MAX);
                        outgrew_the_slot |= by_handle && len <= INLINE_MAX;
                        if let Some(was) = was.filter(|was| was & DIRTY != 0) {
                            handle_over_inline |= by_handle && was & BY_HANDLE == 0;
                            inline_over_handle |= !by_handle && was & BY_HANDLE != 0;
                        }
                        republished_within_a_pass |= taken_this_pass[source];
                        lane.slot = Some((lane.published, bytes));
                        lane.published += 1;
                    }
                    2 => {
                        let tag = rng.below(2) as u32;
                        let number = queue.len() as u64 + rng.below(1000);
                        let bytes = lane_payload(source, tag, number, boundary_len(&mut rng, 14));
                        mailbox
                            .push(source, Tag(tag), Bytes::from(bytes.clone()))
                            .expect("open mailbox");
                        let lane = &mut lanes[source];
                        lane.published_before.push_back(lane.published);
                        queue.push_back((source, tag, bytes));
                    }
                    _ => {
                        for _ in 0..rng.below(4) {
                            // The model's poll.
                            let expected = match queue.front() {
                                Some(&(source, ..)) => {
                                    let went_ahead = ahead_of.take() == Some(source);
                                    if !went_ahead && lanes[source].slot.is_some() {
                                        ahead_of = Some(source);
                                    }
                                    ahead_of
                                }
                                None => loop {
                                    if scan == SOURCES {
                                        break None;
                                    }
                                    scan += 1;
                                    if lanes[scan - 1].slot.is_some() {
                                        break Some(scan - 1);
                                    }
                                },
                            };
                            let got = mailbox.poll(&mut cursor, &pool, Ordering::Acquire);
                            if let Some(source) = expected {
                                let lane = &mut lanes[source];
                                let (number, bytes) = lane.slot.take().expect("predicted");
                                let env = got.expect("an unread slot is deliverable");
                                prop_assert_eq!((env.source, env.tag), (source, LATEST));
                                prop_assert_eq!(env.payload.to_vec(), bytes);
                                // Published messages arrive in the order sent.
                                prop_assert!(lane.delivered.is_none_or(|d| d < number));
                                lane.delivered = Some(number);
                                taken_this_pass[source] = true;
                            } else if let Some((source, tag, bytes)) = queue.pop_front() {
                                let env = got.expect("a queued message is deliverable");
                                prop_assert_eq!((env.source, env.tag), (source, Tag(tag)));
                                prop_assert_eq!(env.payload.to_vec(), bytes);
                                // Whatever its source published before it
                                // has arrived — itself or a successor.
                                let lane = &mut lanes[source];
                                let before = lane.published_before.pop_front().expect("queued");
                                prop_assert!(before == 0 || lane.delivered >= Some(before - 1));
                            } else {
                                prop_assert!(got.is_none(), "the pass should be over");
                                scan = 0;
                                taken_this_pass = [false; SOURCES];
                            }
                        }
                    }
                }
            }
            // The newest publish of every source is delivered in the end,
            // and nothing is delivered that was not sent.
            let mut idle_polls = 0;
            while idle_polls < 2 {
                match mailbox.poll(&mut cursor, &pool, Ordering::Acquire) {
                    None => idle_polls += 1,
                    Some(env) if env.tag == LATEST => {
                        let lane = &mut lanes[env.source];
                        let (number, bytes) = lane.slot.take().expect("one unread publish");
                        prop_assert_eq!(env.payload.to_vec(), bytes);
                        lane.delivered = Some(number);
                    }
                    Some(env) => {
                        let (source, tag, bytes) = queue.pop_front().expect("one queued message");
                        prop_assert_eq!((env.source, env.tag.0), (source, tag));
                        prop_assert_eq!(env.payload.to_vec(), bytes);
                        let lane = &mut lanes[source];
                        let before = lane.published_before.pop_front().expect("queued");
                        prop_assert!(before == 0 || lane.delivered >= Some(before - 1));
                    }
                }
            }
            prop_assert!(queue.is_empty());
            for lane in &lanes {
                prop_assert!(lane.slot.is_none());
                prop_assert_eq!(lane.delivered, lane.published.checked_sub(1));
            }
            Ok(())
        };
        let result = TestRunner::with_cases(64).run_named(
            "latest_wins_traffic_keeps_the_order_contract",
            &any::<u64>(),
            &mut check,
        );
        if let Err(msg) = result {
            panic!("{msg}");
        }
        assert!(
            handle_over_inline
                && inline_over_handle
                && outgrew_the_slot
                && republished_within_a_pass,
            "the traffic never left the easy path"
        );
    }

    /// Three publishers at full speed — 64-byte counters, 4 KiB ones
    /// (inline, the largest that is), and one alternating between a
    /// line and a by-handle size — against a reader that polls, and
    /// now and then sleeps. Every delivered payload is one publish
    /// (all its words carry one counter), counters never go back, a
    /// queued heartbeat never overtakes the counter published before
    /// it, and each source's queued final arrives after its last
    /// counter and all its heartbeats.
    #[test]
    fn latest_wins_stress_never_tears_and_never_goes_back() {
        const PUBLISHES: u64 = 1_000_000;
        const BEAT_EVERY: u64 = 1 << 14;
        const FINAL: Tag = Tag(2);
        const HEARTBEAT: Tag = Tag(4);
        /// Bytes of publisher `source`'s counter `i`.
        fn size(source: usize, i: u64) -> usize {
            match source {
                1 => 64,
                2 => INLINE_MAX,
                _ if i.is_multiple_of(2) => 64,
                _ => INLINE_MAX + 64,
            }
        }
        within(Duration::from_secs(600), || {
            let mailbox = Mailbox::new(4);
            std::thread::scope(|scope| {
                for source in 1..4 {
                    let mailbox = &mailbox;
                    scope.spawn(move || {
                        let pool = BufferPool::default();
                        for i in 0..PUBLISHES {
                            if i % BEAT_EVERY == BEAT_EVERY - 1 {
                                let beat = Bytes::from(i.to_le_bytes().to_vec());
                                mailbox.push(source, HEARTBEAT, beat).expect("open mailbox");
                            }
                            let len = size(source, i);
                            mailbox
                                .publish(source, LATEST, len, &pool, |sink| {
                                    for _ in 0..len / 8 {
                                        sink.put_u64(i);
                                    }
                                })
                                .expect("open mailbox");
                        }
                        mailbox
                            .push(source, FINAL, Bytes::new())
                            .expect("open mailbox");
                        assert!(pool.idle() <= 2, "superseded handles pile up");
                    });
                }
                let pool = BufferPool::default();
                let mut cursor = Cursor::default();
                let mut newest = [None::<u64>; 4];
                let mut beats = [0; 4];
                let mut finals = 0;
                let mut delivered = 0u64;
                while finals < 3 {
                    let env = if delivered.is_multiple_of(1024) {
                        mailbox
                            .wait(&mut cursor, &pool, None, || true)
                            .expect("peers alive")
                            .expect("no deadline")
                    } else {
                        match mailbox.poll(&mut cursor, &pool, Ordering::Acquire) {
                            Some(env) => env,
                            None => continue,
                        }
                    };
                    delivered += 1;
                    if env.tag == FINAL {
                        assert_eq!(newest[env.source], Some(PUBLISHES - 1), "final overtook");
                        assert_eq!(beats[env.source], PUBLISHES / BEAT_EVERY);
                        finals += 1;
                        continue;
                    }
                    if env.tag == HEARTBEAT {
                        let next = u64::from_le_bytes(env.payload[..].try_into().unwrap());
                        assert!(newest[env.source] >= Some(next - 1), "heartbeat overtook");
                        beats[env.source] += 1;
                        continue;
                    }
                    let mut words = env
                        .payload
                        .chunks_exact(8)
                        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
                    let counter = words.next().expect("no empty publish");
                    assert!(words.all(|w| w == counter), "a torn payload");
                    assert_eq!(env.len(), size(env.source, counter));
                    assert!(newest[env.source] < Some(counter), "a counter went back");
                    newest[env.source] = Some(counter);
                    let _ = pool.recycle(env.payload);
                }
                assert!(mailbox
                    .poll(&mut cursor, &pool, Ordering::Acquire)
                    .is_none());
            });
        });
    }

    /// [`sleeper_wakes_for_every_single_send`] for `publish`: the
    /// producer publishes only while the consumer is (about to be)
    /// asleep, so a lost wake-up hangs both. A woken consumer raises
    /// `waiting` again before it looks, which lets the next publish
    /// in: rounds may be superseded, the last one may not be lost.
    #[test]
    fn latest_wins_publish_wakes_a_sleeper_every_time() {
        const ROUNDS: u64 = 10_000;
        within(Duration::from_secs(120), || {
            let mailbox = Mailbox::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let pool = BufferPool::default();
                    let mut cursor = Cursor::default();
                    let mut newest = None;
                    while newest < Some(ROUNDS - 1) {
                        let env = mailbox
                            .wait(&mut cursor, &pool, None, || true)
                            .expect("peers alive")
                            .expect("no deadline");
                        let round = u64::from_le_bytes(env.payload[..].try_into().unwrap());
                        assert!(newest < Some(round), "round {round} after {newest:?}");
                        newest = Some(round);
                    }
                });
                let pool = BufferPool::default();
                for round in 0..ROUNDS {
                    while !mailbox.waiting.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    mailbox
                        .publish(1, LATEST, 8, &pool, |sink| sink.put_u64(round))
                        .unwrap();
                }
            });
        });
    }

    /// A register, not a queue: a million publishes nobody reads leave
    /// the ring unclaimed, the spill queue empty, the sender's pool
    /// balanced — and one message to deliver.
    #[test]
    fn latest_wins_publishes_nobody_reads_take_no_space() {
        let mailbox = Mailbox::new(2);
        let (pool, sender_pool) = (BufferPool::default(), BufferPool::default());
        let mut cursor = Cursor::default();
        for i in 0..1_000_000u64 {
            let superseded = mailbox
                .publish(1, LATEST, 64, &sender_pool, |sink| {
                    (0..8).for_each(|k| sink.put_u64(i + k));
                })
                .unwrap();
            assert_eq!(superseded, i > 0);
        }
        assert_eq!(sender_pool.idle(), 0, "in place: no buffer is ever taken");
        // By handle, a superseded buffer goes back to its sender: two
        // allocations serve any number of publishes.
        for i in 0..10_000u64 {
            mailbox
                .publish(1, LATEST, INLINE_MAX + 8, &sender_pool, |sink| {
                    (0..=INLINE_MAX as u64 / 8).for_each(|_| sink.put_u64(i));
                })
                .unwrap();
            assert!(sender_pool.idle() <= 1);
        }
        assert!(mailbox.ring.get().is_none());
        assert_eq!(mailbox.cursors.claim.load(Ordering::Relaxed), 0);
        assert!(lock(&mailbox.spill).is_empty());
        let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire).unwrap();
        assert_eq!(
            (env.source, env.tag, env.len()),
            (1, LATEST, INLINE_MAX + 8)
        );
        assert_eq!(env.payload[..8], 9_999u64.to_le_bytes());
        assert!(mailbox
            .poll(&mut cursor, &pool, Ordering::Acquire)
            .is_none());
    }

    #[test]
    fn latest_wins_slot_is_sized_by_its_first_publish() {
        let mailbox = Mailbox::new(3);
        let pool = BufferPool::default();
        assert!(mailbox.slots.get().is_none(), "no publish, no table");
        publish_bytes(&mailbox, 2, &[7u8; 100], &pool).unwrap();
        let slots = mailbox.slots.get().expect("allocated by the first publish");
        assert!(slots[1].buffers.get().is_none(), "another source's slot");
        let buffers = slots[2].buffers.get().expect("sized by this publish");
        assert_eq!(buffers.lines, 2);
        assert_eq!(buffers.storage.span(0, 1).as_ptr() as usize % 64, 0);
        assert_eq!(core::mem::size_of::<Slot>(), 128);
        let line = |offset: usize| offset / 64;
        assert_eq!(
            line(core::mem::offset_of!(Slot, state)),
            line(core::mem::offset_of!(Slot, front))
        );
        // Two lines hold 128 bytes; one more goes by handle.
        publish_bytes(&mailbox, 2, &[8u8; 128], &pool).unwrap();
        assert_eq!(slots[2].state.load(Ordering::Relaxed) & BY_HANDLE, 0);
        publish_bytes(&mailbox, 2, &[9u8; 129], &pool).unwrap();
        assert_ne!(slots[2].state.load(Ordering::Relaxed) & BY_HANDLE, 0);
        let mut cursor = Cursor::default();
        let env = mailbox.poll(&mut cursor, &pool, Ordering::Acquire).unwrap();
        assert_eq!(env.payload.to_vec(), vec![9u8; 129]);
    }

    /// The slot goes ahead of a queued message once. Were it looked at
    /// on every poll, a source that republishes between polls would
    /// hold back its own queued message, and the queue behind it, for
    /// as long as it kept publishing.
    #[test]
    fn latest_wins_republishing_cannot_hold_back_the_queue() {
        let mailbox = Mailbox::new(2);
        let pool = BufferPool::default();
        let mut cursor = Cursor::default();
        let mut poll = || mailbox.poll(&mut cursor, &pool, Ordering::Acquire);
        for by_handle in [false, true] {
            publish_bytes(&mailbox, 1, b"before", &pool).unwrap();
            let queued = vec![1u8; if by_handle { INLINE_MAX + 1 } else { 1 }];
            mailbox.push(1, Tag(0), Bytes::from(queued)).unwrap();
            mailbox.push(0, Tag(0), Bytes::new()).unwrap();
            assert_eq!(poll().unwrap().payload.to_vec(), b"before");
            publish_bytes(&mailbox, 1, b"after", &pool).unwrap();
            let next_two = (poll().unwrap(), poll().unwrap());
            assert_eq!((next_two.0.source, next_two.0.tag), (1, Tag(0)));
            assert_eq!((next_two.1.source, next_two.1.tag), (0, Tag(0)));
            assert_eq!(poll().unwrap().payload.to_vec(), b"after");
            assert!(poll().is_none(), "the pass is over");
        }
    }

    #[test]
    #[should_panic(expected = "another length than it announced")]
    fn latest_wins_publish_checks_the_announced_length() {
        let mailbox = Mailbox::new(1);
        let _ = mailbox.publish(0, LATEST, 16, &BufferPool::default(), |sink| {
            sink.put_u64(1)
        });
    }

    #[test]
    fn wait_honours_its_deadline_and_the_peers_leaving() {
        let mailbox = Mailbox::new(4);
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
        // A message buffered before the peers left is still delivered —
        // a published one too, from a slot the last pass had passed.
        mailbox.push(2, Tag(5), Bytes::from(vec![1u8])).unwrap();
        let env = mailbox.wait(&mut cursor, &pool, None, || false).unwrap();
        assert_eq!(env.expect("buffered message").source, 2);
        publish_bytes(&mailbox, 3, b"newest", &pool).unwrap();
        assert!(mailbox
            .poll(&mut cursor, &pool, Ordering::Acquire)
            .is_some());
        publish_bytes(&mailbox, 1, b"parting", &pool).unwrap();
        let env = mailbox.wait(&mut cursor, &pool, None, || false).unwrap();
        assert_eq!(env.expect("published message").source, 1);
        assert_eq!(
            mailbox.wait(&mut cursor, &pool, None, || false),
            Err(MpiError::Disconnected)
        );
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
        let mailbox = Mailbox::new(4);
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
        let mailbox = Mailbox::new(4);
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
        let mailbox = Mailbox::new(4);
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
        let mailbox = Mailbox::new(4);
        mailbox.close();
        assert_eq!(
            mailbox.push(0, Tag(0), Bytes::new()),
            Err(MpiError::Disconnected)
        );
        assert_eq!(
            publish_bytes(&mailbox, 0, b"late", &BufferPool::default()),
            Err(MpiError::Disconnected)
        );
    }
}
