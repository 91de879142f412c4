//! Deterministic fault injection for PARMONC.
//!
//! A [`FaultPlan`] scripts every fault a chaos test wants to see —
//! rank crashes and link faults once a rank has completed *N*
//! realizations, message drop/duplication/delay by
//! `(src, dst, tag, sequence)`, and I/O faults (torn writes, bit
//! flips, `ErrorKind::Interrupted`) — from a single seed and its own
//! small generator, never the wall clock. What a *run* is scripted by
//! is the acting rank's realization count, which no send or exchange
//! optimisation changes: a plan means the same run however many
//! subtotals cross. A plan does not change how the runner it is
//! attached to simulates, exchanges or sends.
//!
//! Instrumented code holds a [`FaultHandle`], which mirrors the
//! `Monitor` pattern from `parmonc-obs`: the disabled handle
//! ([`FaultHandle::disabled`], also the `Default` and what
//! [`FaultPlan::build`] returns for an empty plan) is a single `None`
//! branch on the hot path — no locks, no hashing, no allocation.
//!
//! Decisions are pure functions of the plan plus the *identity* of the
//! operation (message coordinates, write ordinal), so they do not
//! depend on thread interleaving: [`FaultPlan::message_action`] and
//! [`FaultPlan::crash_point`] answer from the plan alone, while the
//! handle adds the per-channel sequence counters, write counters and
//! per-rank progress a live run needs. [`AtomicWriter`] injects the I/O
//! faults.
//!
//! # Example
//!
//! ```
//! use parmonc_faults::{FaultPlan, SendAction};
//!
//! let plan = FaultPlan::new(42)
//!     .crash_rank(2, 100)
//!     .drop_message(1, 0, 1, 3)
//!     .drop_fraction(0.05);
//! assert_eq!(plan.crash_point(2), Some(100));
//! assert_eq!(plan.message_action(1, 0, 1, 3), SendAction::Drop);
//!
//! let handle = plan.build();
//! assert!(handle.is_enabled());
//! // The handle numbers each (src, dst, tag) channel itself:
//! let (seq, action) = handle.on_send(1, 0, 1);
//! assert_eq!(seq, 0);
//! assert_eq!(action, SendAction::Deliver); // seq 3 is the scripted drop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod atomic;
pub use atomic::{AtomicWriter, Staged};

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Mixes a 64-bit value into a well-distributed hash (the splitmix64
/// finalizer). Deterministic, allocation-free, and good enough to turn
/// message identities into independent uniform deviates.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to the unit interval `[0, 1)` using its top 53 bits.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A tiny multiplicative LCG (Knuth's MMIX constants) — the plan's own
/// generator for choices that need a short deterministic stream, such
/// as picking which byte of a frame to corrupt. Never seeded from the
/// wall clock.
#[derive(Debug, Clone)]
struct Lcg64 {
    state: u64,
}

impl Lcg64 {
    fn new(seed: u64) -> Self {
        Self {
            state: splitmix64(seed),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        splitmix64(self.state)
    }
}

/// Every fault the plane can inject, named exactly as the monitor
/// schema's `fault_injected.fault` vocabulary spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker rank stops mid-run after a scripted realization count.
    RankCrash,
    /// A point-to-point message is silently discarded.
    MessageDrop,
    /// A point-to-point message is delivered twice.
    MessageDuplicate,
    /// A point-to-point message is held back and delivered late.
    MessageDelay,
    /// An atomic write is cut short, leaving a truncated file.
    TornWrite,
    /// One bit of a written file is flipped.
    BitFlip,
    /// A write fails once with `ErrorKind::Interrupted`.
    IoInterrupt,
    /// A transport connection is severed at a frame boundary once its
    /// rank's progress reaches the scripted point.
    NetSever,
    /// An outbound frame is held on the wire for a scripted delay.
    NetStall,
    /// A frame is cut mid-write and the connection broken, leaving the
    /// receiver a torn frame.
    NetTear,
    /// A reconnect attempt is vetoed by a scripted network partition.
    NetPartition,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [Self; 11] = [
        Self::RankCrash,
        Self::MessageDrop,
        Self::MessageDuplicate,
        Self::MessageDelay,
        Self::TornWrite,
        Self::BitFlip,
        Self::IoInterrupt,
        Self::NetSever,
        Self::NetStall,
        Self::NetTear,
        Self::NetPartition,
    ];

    /// The wire name used by `fault_injected` monitor events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::RankCrash => "rank_crash",
            Self::MessageDrop => "message_drop",
            Self::MessageDuplicate => "message_duplicate",
            Self::MessageDelay => "message_delay",
            Self::TornWrite => "torn_write",
            Self::BitFlip => "bit_flip",
            Self::IoInterrupt => "io_interrupt",
            Self::NetSever => "net_sever",
            Self::NetStall => "net_stall",
            Self::NetTear => "net_tear",
            Self::NetPartition => "net_partition",
        }
    }
}

/// What the fault plane decided about one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Deliver normally (the overwhelmingly common case).
    Deliver,
    /// Discard the message; the receiver never sees it.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message back while `hold_sends` further sends age it;
    /// it re-enters the channel during the `hold_sends`-th subsequent
    /// send, just ahead of that send's own message (reordered, never
    /// lost).
    Delay {
        /// Subsequent sends needed before the held message is
        /// released.
        hold_sends: u32,
    },
}

impl SendAction {
    /// The [`FaultKind`] this action injects; `None` for a plain
    /// delivery.
    #[must_use]
    pub fn kind(self) -> Option<FaultKind> {
        match self {
            Self::Deliver => None,
            Self::Drop => Some(FaultKind::MessageDrop),
            Self::Duplicate => Some(FaultKind::MessageDuplicate),
            Self::Delay { .. } => Some(FaultKind::MessageDelay),
        }
    }
}

/// A fault injected into one file write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Truncate the written bytes mid-file, modelling a crash between
    /// `write` and `rename`.
    TornWrite,
    /// Flip one deterministic bit of the contents.
    BitFlip,
    /// Fail once with `std::io::ErrorKind::Interrupted`.
    Interrupted,
}

impl IoFault {
    /// The matching [`FaultKind`] for monitor events.
    #[must_use]
    pub fn kind(self) -> FaultKind {
        match self {
            Self::TornWrite => FaultKind::TornWrite,
            Self::BitFlip => FaultKind::BitFlip,
            Self::Interrupted => FaultKind::IoInterrupt,
        }
    }
}

/// One scripted message-fault rule, matched by exact coordinates.
#[derive(Debug, Clone, PartialEq)]
struct MessageRule {
    src: usize,
    dst: usize,
    tag: u32,
    seq: u64,
    action: SendAction,
}

/// One scripted I/O-fault rule, matched by file-name substring and the
/// ordinal of the matching write.
#[derive(Debug, Clone, PartialEq)]
struct IoRule {
    file_substr: String,
    nth: u64,
    fault: IoFault,
}

/// What the fault plane decided about one outbound transport frame on
/// a worker's link to the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetAction {
    /// Write the frame normally.
    Deliver,
    /// Hold the frame on the wire for this many milliseconds, then
    /// deliver it.
    Stall {
        /// Delay before the frame is written.
        millis: u64,
    },
    /// Break the connection before any byte of the frame is written.
    Sever,
    /// Write only a prefix of the frame, then break the connection —
    /// the receiver sees a torn frame.
    Tear,
}

impl NetAction {
    /// The [`FaultKind`] this action injects; `None` for a plain
    /// delivery.
    #[must_use]
    pub fn kind(self) -> Option<FaultKind> {
        match self {
            Self::Deliver => None,
            Self::Stall { .. } => Some(FaultKind::NetStall),
            Self::Sever => Some(FaultKind::NetSever),
            Self::Tear => Some(FaultKind::NetTear),
        }
    }
}

/// One scripted network-fault rule on a worker rank's link: `action`
/// befalls the first outbound frame that starts once the rank has
/// completed `after` realizations, once.
#[derive(Debug, Clone, PartialEq)]
struct NetRule {
    rank: usize,
    after: u64,
    action: NetAction,
}

/// A scripted partition: the named ranks lose their link (a sever
/// [`NetRule`] each) and their next `duration_attempts` reconnect
/// attempts fail deterministically (time-free "duration").
#[derive(Debug, Clone, PartialEq)]
struct PartitionRule {
    ranks: Vec<usize>,
    duration_attempts: u64,
}

/// A seeded, scripted fault plan.
///
/// The plan is pure data: cloning it, comparing it, or consulting
/// [`Self::message_action`]/[`Self::crash_point`] never mutates
/// anything, so handles built from one plan in different processes
/// decide alike. [`Self::build`] compiles the plan into the stateful
/// [`FaultHandle`] live code consumes.
///
/// A crash directive for rank 0 stops the collector's loop after that
/// many of its own realizations, and the run returns `CollectorCrashed`
/// with what a TCP `resume_listen` restart resumes from on disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(usize, u64)>,
    message_rules: Vec<MessageRule>,
    drop_fraction: f64,
    duplicate_fraction: f64,
    io_rules: Vec<IoRule>,
    net_rules: Vec<NetRule>,
    partitions: Vec<PartitionRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed. The seed only matters once
    /// probabilistic faults ([`Self::drop_fraction`],
    /// [`Self::duplicate_fraction`]) or byte mutations are used.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The canonical "no faults" plan (what `Default` also gives).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Scripts rank `rank` to crash after completing `after`
    /// realizations: it stops simulating, sends no final subtotal, and
    /// goes silent.
    #[must_use]
    pub fn crash_rank(mut self, rank: usize, after: u64) -> Self {
        self.crashes.push((rank, after));
        self
    }

    /// Scripts the `seq`-th message (0-based, counted per
    /// `(src, dst, tag)` channel) to be dropped.
    #[must_use]
    pub fn drop_message(mut self, src: usize, dst: usize, tag: u32, seq: u64) -> Self {
        self.message_rules.push(MessageRule {
            src,
            dst,
            tag,
            seq,
            action: SendAction::Drop,
        });
        self
    }

    /// Scripts the `seq`-th message on a channel to be delivered twice.
    #[must_use]
    pub fn duplicate_message(mut self, src: usize, dst: usize, tag: u32, seq: u64) -> Self {
        self.message_rules.push(MessageRule {
            src,
            dst,
            tag,
            seq,
            action: SendAction::Duplicate,
        });
        self
    }

    /// Scripts the `seq`-th message on a channel to be held until
    /// `hold_sends` later sends from the same rank have overtaken it.
    #[must_use]
    pub fn delay_message(
        mut self,
        src: usize,
        dst: usize,
        tag: u32,
        seq: u64,
        hold_sends: u32,
    ) -> Self {
        self.message_rules.push(MessageRule {
            src,
            dst,
            tag,
            seq,
            action: SendAction::Delay { hold_sends },
        });
        self
    }

    /// Drops each unscripted message independently with probability
    /// `p`, decided by a pure hash of the message identity (so the
    /// decision is identical across runs and engines).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn drop_fraction(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop fraction must be in [0,1]");
        self.drop_fraction = p;
        self
    }

    /// Duplicates each unscripted, undropped message independently
    /// with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn duplicate_fraction(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate fraction must be in [0,1]"
        );
        self.duplicate_fraction = p;
        self
    }

    /// Scripts the `nth` (0-based) write to any file whose name
    /// contains `file_substr` to be torn: only a prefix of the bytes
    /// reaches the final path, as if the process died mid-write.
    #[must_use]
    pub fn torn_write(mut self, file_substr: &str, nth: u64) -> Self {
        self.io_rules.push(IoRule {
            file_substr: file_substr.to_string(),
            nth,
            fault: IoFault::TornWrite,
        });
        self
    }

    /// Scripts the `nth` matching write to have one bit flipped.
    #[must_use]
    pub fn bit_flip_write(mut self, file_substr: &str, nth: u64) -> Self {
        self.io_rules.push(IoRule {
            file_substr: file_substr.to_string(),
            nth,
            fault: IoFault::BitFlip,
        });
        self
    }

    /// Scripts the `nth` matching write to fail once with
    /// `ErrorKind::Interrupted` (callers are expected to retry).
    #[must_use]
    pub fn interrupt_write(mut self, file_substr: &str, nth: u64) -> Self {
        self.io_rules.push(IoRule {
            file_substr: file_substr.to_string(),
            nth,
            fault: IoFault::Interrupted,
        });
        self
    }

    /// Scripts `action` for the first outbound frame worker `rank`
    /// starts once it has completed `after` realizations (as last told
    /// by [`FaultHandle::note_progress`]). Each rule fires once.
    fn net_rule(mut self, rank: usize, after: u64, action: NetAction) -> Self {
        self.net_rules.push(NetRule {
            rank,
            after,
            action,
        });
        self
    }

    /// Scripts the link of worker `rank` to break, before any byte of
    /// the frame is written, at the first frame boundary once the rank
    /// has completed `after` realizations. The worker's transport is
    /// expected to reconnect and resume.
    #[must_use]
    pub fn sever_connection(self, rank: usize, after: u64) -> Self {
        self.net_rule(rank, after, NetAction::Sever)
    }

    /// Scripts the first outbound frame worker `rank` starts once it
    /// has completed `after` realizations to be held on the wire for
    /// `millis` milliseconds before delivery.
    #[must_use]
    pub fn stall_link(self, rank: usize, after: u64, millis: u64) -> Self {
        self.net_rule(rank, after, NetAction::Stall { millis })
    }

    /// Scripts the first outbound frame worker `rank` starts once it
    /// has completed `after` realizations to be cut mid-write: the
    /// receiver gets a torn frame and the connection breaks.
    #[must_use]
    pub fn tear_frame(self, rank: usize, after: u64) -> Self {
        self.net_rule(rank, after, NetAction::Tear)
    }

    /// Scripts a partition: every rank in `ranks` loses its link at the
    /// first frame boundary once it has completed `after` realizations,
    /// and its next `duration_attempts` reconnect attempts fail
    /// deterministically before the partition heals — a time-free
    /// "duration" that exercises the seeded backoff without wall-clock
    /// dependence.
    #[must_use]
    pub fn partition(mut self, ranks: &[usize], after: u64, duration_attempts: u64) -> Self {
        self.partitions.push(PartitionRule {
            ranks: ranks.to_vec(),
            duration_attempts,
        });
        ranks
            .iter()
            .fold(self, |plan, &rank| plan.sever_connection(rank, after))
    }

    /// True if the plan scripts nothing — [`Self::build`] then returns
    /// the disabled handle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.message_rules.is_empty()
            && self.io_rules.is_empty()
            && self.net_rules.is_empty()
            && self.partitions.is_empty()
            && self.drop_fraction == 0.0
            && self.duplicate_fraction == 0.0
    }

    /// True if the plan scripts any network fault (sever/stall/tear or
    /// a partition) on worker `rank`'s link. Transports use this to
    /// skip the frame-boundary wrapper entirely on unaffected links.
    #[must_use]
    pub fn targets_link(&self, rank: usize) -> bool {
        self.net_rules.iter().any(|r| r.rank == rank)
    }

    /// True if worker `rank`'s `attempt`-th reconnect attempt (0-based,
    /// counted across the run) is inside an unhealed partition.
    #[must_use]
    pub fn partition_blocks(&self, rank: usize, attempt: u64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.ranks.contains(&rank) && attempt < p.duration_attempts)
    }

    /// The scripted crash point for `rank`, if any (the earliest, if
    /// several were scripted).
    #[must_use]
    pub fn crash_point(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|(r, _)| *r == rank)
            .map(|(_, after)| *after)
            .min()
    }

    /// The fate of the `seq`-th message on channel `(src, dst, tag)`.
    ///
    /// Pure: scripted rules are checked first, then the probabilistic
    /// fractions, decided by hashing `(seed, src, dst, tag, seq)` — so
    /// the same message identity gets the same fate on every engine,
    /// regardless of thread interleaving.
    #[must_use]
    pub fn message_action(&self, src: usize, dst: usize, tag: u32, seq: u64) -> SendAction {
        for rule in &self.message_rules {
            if rule.src == src && rule.dst == dst && rule.tag == tag && rule.seq == seq {
                return rule.action;
            }
        }
        if self.drop_fraction > 0.0 || self.duplicate_fraction > 0.0 {
            let identity = splitmix64(self.seed)
                ^ splitmix64((src as u64) << 32 | dst as u64)
                ^ splitmix64(u64::from(tag) << 48 | seq);
            let u = unit_f64(splitmix64(identity));
            if u < self.drop_fraction {
                return SendAction::Drop;
            }
            if u < self.drop_fraction + self.duplicate_fraction {
                return SendAction::Duplicate;
            }
        }
        SendAction::Deliver
    }

    /// Compiles the plan into the handle live code consults. An empty
    /// plan compiles to the disabled handle.
    #[must_use]
    pub fn build(&self) -> FaultHandle {
        if self.is_empty() {
            FaultHandle::disabled()
        } else {
            FaultHandle {
                inner: Some(Arc::new(Inner {
                    plan: self.clone(),
                    state: Mutex::new(State {
                        seqs: HashMap::new(),
                        io_counts: vec![0; self.io_rules.len()],
                        progress: HashMap::new(),
                        net_fired: vec![false; self.net_rules.len()],
                        net_attempts: HashMap::new(),
                        records: Vec::new(),
                    }),
                })),
            }
        }
    }
}

/// One injected fault, as remembered by the handle for test
/// introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Which fault fired.
    pub kind: FaultKind,
    /// Kind-specific detail: the message sequence number for message
    /// faults, the write ordinal for I/O faults, the scripted
    /// realization count for crashes and link faults, the attempt
    /// ordinal for partition vetoes.
    pub detail: Option<u64>,
}

/// Mutable per-run state behind the enabled handle.
#[derive(Debug)]
struct State {
    /// Next sequence number per `(src, dst, tag)` channel.
    seqs: HashMap<(usize, usize, u32), u64>,
    /// Writes seen so far per I/O rule.
    io_counts: Vec<u64>,
    /// Realizations completed so far per rank with a scripted link
    /// fault, as last told by [`FaultHandle::note_progress`].
    progress: HashMap<usize, u64>,
    /// Which network rules have fired (each does once).
    net_fired: Vec<bool>,
    /// Reconnect attempts seen so far per worker link.
    net_attempts: HashMap<usize, u64>,
    /// Everything injected so far.
    records: Vec<FaultRecord>,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    state: Mutex<State>,
}

/// The stateful fault plane live code consults.
///
/// Mirrors the `Monitor` pattern: the disabled handle is a single
/// `None` check on every hot path, and cloning shares the same
/// sequence counters and record log across ranks.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle {
    inner: Option<Arc<Inner>>,
}

impl FaultHandle {
    /// The no-op handle: every query answers "no fault" after one
    /// branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// True if a non-empty plan is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The plan behind the handle, if enabled.
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.inner.as_deref().map(|i| &i.plan)
    }

    /// The scripted crash point for `rank`, if any.
    #[must_use]
    pub fn crash_after(&self, rank: usize) -> Option<u64> {
        self.inner.as_deref()?.plan.crash_point(rank)
    }

    /// Numbers an outgoing message on channel `(src, dst, tag)` and
    /// decides its fate. Returns `(sequence, action)`; the disabled
    /// handle always answers `(0, Deliver)` without locking.
    pub fn on_send(&self, src: usize, dst: usize, tag: u32) -> (u64, SendAction) {
        let Some(inner) = self.inner.as_deref() else {
            return (0, SendAction::Deliver);
        };
        let mut state = inner.state.lock().expect("fault state poisoned");
        let seq_ref = state.seqs.entry((src, dst, tag)).or_insert(0);
        let seq = *seq_ref;
        *seq_ref += 1;
        let action = inner.plan.message_action(src, dst, tag, seq);
        if let Some(kind) = action.kind() {
            state.records.push(FaultRecord {
                kind,
                detail: Some(seq),
            });
        }
        (seq, action)
    }

    /// Records that a rank is about to execute its crash, scripted
    /// for after `after` realizations.
    pub fn note_crash(&self, after: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner
                .state
                .lock()
                .expect("fault state poisoned")
                .records
                .push(FaultRecord {
                    kind: FaultKind::RankCrash,
                    detail: Some(after),
                });
        }
    }

    /// Decides whether this write of `path` gets an injected I/O
    /// fault. Counts one write per matching rule; a rule fires exactly
    /// once, on its scripted ordinal. The disabled handle answers
    /// `None` without locking.
    pub fn on_write(&self, path: &Path) -> Option<IoFault> {
        let inner = self.inner.as_deref()?;
        if inner.plan.io_rules.is_empty() {
            return None;
        }
        let name = path.file_name()?.to_string_lossy();
        let mut state = inner.state.lock().expect("fault state poisoned");
        let mut fired = None;
        for (idx, rule) in inner.plan.io_rules.iter().enumerate() {
            if !name.contains(&rule.file_substr) {
                continue;
            }
            let count = state.io_counts[idx];
            state.io_counts[idx] += 1;
            if count == rule.nth && fired.is_none() {
                fired = Some((rule.fault, count));
            }
        }
        if let Some((fault, ordinal)) = fired {
            state.records.push(FaultRecord {
                kind: fault.kind(),
                detail: Some(ordinal),
            });
            return Some(fault);
        }
        None
    }

    /// True if the plan scripts any network fault on worker `rank`'s
    /// link — a transport may skip its frame-boundary wrapper when
    /// this is false. The disabled handle answers `false`.
    #[must_use]
    pub fn targets_link(&self, rank: usize) -> bool {
        self.link(rank).is_some()
    }

    /// What is behind the handle, if it scripts a link fault for `rank`.
    fn link(&self, rank: usize) -> Option<&Inner> {
        self.inner.as_deref().filter(|i| i.plan.targets_link(rank))
    }

    /// Tells the plane that `rank` has completed `done` realizations —
    /// what its scripted link faults are keyed on. The simulation loop
    /// calls this once per timed block; the disabled handle, and a
    /// plan with no link fault for `rank`, return without locking.
    pub fn note_progress(&self, rank: usize, done: u64) {
        if let Some(inner) = self.link(rank) {
            let mut state = inner.state.lock().expect("fault state poisoned");
            state.progress.insert(rank, done);
        }
    }

    /// Decides the fate of the outbound frame worker `rank` is about
    /// to start: that of the first rule scripted for the rank, in plan
    /// order, whose realization count the rank has reached and which
    /// has not fired yet. The disabled handle always answers `Deliver`
    /// without locking.
    pub fn on_frame(&self, rank: usize) -> NetAction {
        let Some(inner) = self.link(rank) else {
            return NetAction::Deliver;
        };
        let mut state = inner.state.lock().expect("fault state poisoned");
        let done = state.progress.get(&rank).copied().unwrap_or(0);
        let due =
            inner.plan.net_rules.iter().enumerate().find(|(idx, rule)| {
                rule.rank == rank && rule.after <= done && !state.net_fired[*idx]
            });
        let Some((idx, rule)) = due else {
            return NetAction::Deliver;
        };
        state.net_fired[idx] = true;
        if let Some(kind) = rule.action.kind() {
            state.records.push(FaultRecord {
                kind,
                detail: Some(rule.after),
            });
        }
        rule.action
    }

    /// Numbers a reconnect attempt on worker `rank`'s link and decides
    /// whether an unhealed partition vetoes it (`true` = the dial must
    /// fail deterministically). The disabled handle answers `false`.
    pub fn on_reconnect_attempt(&self, rank: usize) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return false;
        };
        if inner.plan.partitions.is_empty() {
            return false;
        }
        let mut state = inner.state.lock().expect("fault state poisoned");
        let attempt_ref = state.net_attempts.entry(rank).or_insert(0);
        let attempt = *attempt_ref;
        *attempt_ref += 1;
        let blocked = inner.plan.partition_blocks(rank, attempt);
        if blocked {
            state.records.push(FaultRecord {
                kind: FaultKind::NetPartition,
                detail: Some(attempt),
            });
        }
        blocked
    }

    /// Everything injected so far, in order — for test introspection.
    #[must_use]
    pub fn records(&self) -> Vec<FaultRecord> {
        self.inner.as_deref().map_or_else(Vec::new, |inner| {
            inner
                .state
                .lock()
                .expect("fault state poisoned")
                .records
                .clone()
        })
    }
}

/// How [`mutate_bytes`] corrupted a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Bit `bit` of byte `index` was flipped.
    BitFlip {
        /// Byte offset of the flipped bit.
        index: usize,
        /// Bit position within the byte (0–7).
        bit: u8,
    },
    /// The frame was truncated to `len` bytes.
    Truncate {
        /// The new, shorter length.
        len: usize,
    },
}

/// Deterministically flips one bit of `bytes` in place (never
/// truncates) — the primitive behind injected bit-flip I/O faults.
/// Returns the `(byte index, bit)` flipped, or `None` for empty input.
pub fn flip_one_bit(seed: u64, bytes: &mut [u8]) -> Option<(usize, u8)> {
    if bytes.is_empty() {
        return None;
    }
    let mut lcg = Lcg64::new(seed);
    let index = (lcg.next_u64() % bytes.len() as u64) as usize;
    let bit = (lcg.next_u64() % 8) as u8;
    bytes[index] ^= 1 << bit;
    Some((index, bit))
}

/// Deterministically corrupts a byte frame in place — the primitive
/// behind the framing property tests: half the seeds flip one bit,
/// the other half truncate. Empty input is returned unchanged as a
/// zero-length truncation.
pub fn mutate_bytes(seed: u64, bytes: &mut Vec<u8>) -> Mutation {
    let mut lcg = Lcg64::new(seed);
    if bytes.is_empty() {
        return Mutation::Truncate { len: 0 };
    }
    if lcg.next_u64().is_multiple_of(2) {
        let index = (lcg.next_u64() % bytes.len() as u64) as usize;
        let bit = (lcg.next_u64() % 8) as u8;
        bytes[index] ^= 1 << bit;
        Mutation::BitFlip { index, bit }
    } else {
        let len = (lcg.next_u64() % bytes.len() as u64) as usize;
        bytes.truncate(len);
        Mutation::Truncate { len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn empty_plan_builds_disabled_handle() {
        let handle = FaultPlan::none().build();
        assert!(!handle.is_enabled());
        assert_eq!(handle.on_send(1, 0, 1), (0, SendAction::Deliver));
        assert_eq!(handle.crash_after(1), None);
        assert_eq!(handle.on_write(Path::new("checkpoint.dat")), None);
        assert!(handle.records().is_empty());
        assert!(FaultPlan::new(9).is_empty());
        assert!(!FaultHandle::default().is_enabled());
    }

    #[test]
    fn scripted_rules_fire_on_exact_coordinates() {
        let plan = FaultPlan::new(1)
            .drop_message(1, 0, 1, 2)
            .duplicate_message(2, 0, 1, 0)
            .delay_message(3, 0, 2, 1, 4);
        assert_eq!(plan.message_action(1, 0, 1, 2), SendAction::Drop);
        assert_eq!(plan.message_action(1, 0, 1, 3), SendAction::Deliver);
        assert_eq!(plan.message_action(2, 0, 1, 0), SendAction::Duplicate);
        assert_eq!(
            plan.message_action(3, 0, 2, 1),
            SendAction::Delay { hold_sends: 4 }
        );
        // Different tag, same everything else: no match.
        assert_eq!(plan.message_action(3, 0, 1, 1), SendAction::Deliver);
    }

    #[test]
    fn handle_counts_sequences_per_channel() {
        let handle = FaultPlan::new(1).drop_message(1, 0, 1, 1).build();
        assert_eq!(handle.on_send(1, 0, 1), (0, SendAction::Deliver));
        assert_eq!(handle.on_send(1, 0, 2), (0, SendAction::Deliver));
        assert_eq!(handle.on_send(1, 0, 1), (1, SendAction::Drop));
        assert_eq!(handle.on_send(1, 0, 1), (2, SendAction::Deliver));
        let records = handle.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, FaultKind::MessageDrop);
        assert_eq!(records[0].detail, Some(1));
    }

    #[test]
    fn fractional_drops_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(77).drop_fraction(0.1);
        let mut dropped = 0;
        for seq in 0..10_000 {
            let a = plan.message_action(1, 0, 1, seq);
            assert_eq!(a, plan.message_action(1, 0, 1, seq), "not deterministic");
            if a == SendAction::Drop {
                dropped += 1;
            }
        }
        // 10% of 10k with generous slack: the hash should not be wildly
        // miscalibrated.
        assert!((600..=1400).contains(&dropped), "dropped {dropped}");
        // A different seed decides differently somewhere.
        let other = FaultPlan::new(78).drop_fraction(0.1);
        assert!((0..10_000)
            .any(|s| plan.message_action(1, 0, 1, s) != other.message_action(1, 0, 1, s)));
    }

    #[test]
    fn duplicate_fraction_shares_the_same_deviate() {
        let plan = FaultPlan::new(3)
            .drop_fraction(0.05)
            .duplicate_fraction(0.05);
        let mut seen_dup = false;
        let mut seen_drop = false;
        for seq in 0..5_000 {
            match plan.message_action(4, 0, 1, seq) {
                SendAction::Drop => seen_drop = true,
                SendAction::Duplicate => seen_dup = true,
                _ => {}
            }
        }
        assert!(seen_drop && seen_dup);
    }

    #[test]
    fn crash_points_take_the_earliest_script() {
        let plan = FaultPlan::new(0).crash_rank(2, 100).crash_rank(2, 50);
        assert_eq!(plan.crash_point(2), Some(50));
        assert_eq!(plan.crash_point(1), None);
        let handle = plan.build();
        assert_eq!(handle.crash_after(2), Some(50));
        handle.note_crash(50);
        assert_eq!(handle.records()[0].kind, FaultKind::RankCrash);
    }

    #[test]
    fn io_rules_fire_once_on_their_ordinal() {
        let handle = FaultPlan::new(0)
            .torn_write("checkpoint.dat", 1)
            .interrupt_write("results", 0)
            .build();
        let ckpt = PathBuf::from("/data/checkpoint.dat");
        assert_eq!(handle.on_write(&ckpt), None); // write 0
        assert_eq!(handle.on_write(&ckpt), Some(IoFault::TornWrite)); // write 1
        assert_eq!(handle.on_write(&ckpt), None); // write 2
        assert_eq!(
            handle.on_write(Path::new("results_func.dat")),
            Some(IoFault::Interrupted)
        );
        assert_eq!(handle.on_write(Path::new("unrelated.txt")), None);
        let kinds: Vec<FaultKind> = handle.records().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![FaultKind::TornWrite, FaultKind::IoInterrupt]);
    }

    #[test]
    fn mutate_bytes_is_deterministic_and_always_corrupts() {
        for seed in 0..64 {
            let original: Vec<u8> = (0..40).map(|i| i as u8).collect();
            let mut a = original.clone();
            let mut b = original.clone();
            let ma = mutate_bytes(seed, &mut a);
            let mb = mutate_bytes(seed, &mut b);
            assert_eq!(ma, mb);
            assert_eq!(a, b);
            match ma {
                Mutation::BitFlip { index, bit } => {
                    assert!(index < original.len());
                    assert_eq!(a[index], original[index] ^ (1 << bit));
                }
                Mutation::Truncate { len } => {
                    assert!(len < original.len());
                    assert_eq!(a.len(), len);
                }
            }
        }
        let mut empty = Vec::new();
        assert_eq!(mutate_bytes(5, &mut empty), Mutation::Truncate { len: 0 });
    }

    #[test]
    fn flip_one_bit_is_deterministic_and_never_truncates() {
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        let fa = flip_one_bit(9, &mut a).unwrap();
        let fb = flip_one_bit(9, &mut b).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_eq!(a.iter().map(|x| x.count_ones()).sum::<u32>(), 1);
        assert_eq!(flip_one_bit(9, &mut []), None);
    }

    #[test]
    fn fault_kind_names_match_the_schema_vocabulary() {
        // `ALL` is in declaration order, so a variant added anywhere
        // but last shifts a discriminant off its position.
        for (position, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, position);
        }
        let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "rank_crash",
                "message_drop",
                "message_duplicate",
                "message_delay",
                "torn_write",
                "bit_flip",
                "io_interrupt",
                "net_sever",
                "net_stall",
                "net_tear",
                "net_partition",
            ]
        );
    }

    #[test]
    fn net_rules_fire_once_when_their_rank_has_got_that_far() {
        let plan = FaultPlan::new(5)
            .sever_connection(1, 3)
            .stall_link(2, 0, 40)
            .tear_frame(3, 1)
            .sever_connection(3, 1);
        assert!(plan.targets_link(1) && plan.targets_link(2) && plan.targets_link(3));
        assert!(!plan.targets_link(4));
        let handle = plan.build();
        // However many frames rank 1 writes, nothing happens before its
        // third realization is done — and then it happens to the next
        // frame, once.
        for done in 0..3 {
            handle.note_progress(1, done);
            assert_eq!(handle.on_frame(1), NetAction::Deliver);
            assert_eq!(handle.on_frame(1), NetAction::Deliver);
        }
        handle.note_progress(1, 64);
        assert_eq!(handle.on_frame(1), NetAction::Sever);
        assert_eq!(handle.on_frame(1), NetAction::Deliver);
        // A rule scripted for zero realizations is due from the start.
        assert_eq!(handle.on_frame(2), NetAction::Stall { millis: 40 });
        assert_eq!(handle.on_frame(2), NetAction::Deliver);
        // Two rules due at once fire on consecutive frames, in plan
        // order; another rank's progress is not this rank's.
        assert_eq!(handle.on_frame(3), NetAction::Deliver);
        handle.note_progress(3, 1);
        assert_eq!(handle.on_frame(3), NetAction::Tear);
        assert_eq!(handle.on_frame(3), NetAction::Sever);
        assert_eq!(handle.on_frame(3), NetAction::Deliver);
        assert_eq!(handle.on_frame(4), NetAction::Deliver);
        let fired: Vec<(FaultKind, Option<u64>)> = handle
            .records()
            .into_iter()
            .map(|r| (r.kind, r.detail))
            .collect();
        assert_eq!(
            fired,
            vec![
                (FaultKind::NetSever, Some(3)),
                (FaultKind::NetStall, Some(0)),
                (FaultKind::NetTear, Some(1)),
                (FaultKind::NetSever, Some(1)),
            ]
        );
    }

    #[test]
    fn handle_counts_reconnect_attempts_per_rank() {
        let handle = FaultPlan::new(7)
            .sever_connection(1, 1)
            .partition(&[2], 0, 2)
            .build();
        assert_eq!(handle.on_frame(1), NetAction::Deliver);
        handle.note_progress(1, 1);
        assert_eq!(handle.on_frame(1), NetAction::Sever);
        assert_eq!(handle.on_frame(1), NetAction::Deliver);
        // Rank 2 loses its link at its first frame and stays
        // partitioned for two reconnect attempts.
        assert_eq!(handle.on_frame(2), NetAction::Sever);
        assert!(handle.on_reconnect_attempt(2));
        assert!(handle.on_reconnect_attempt(2));
        assert!(!handle.on_reconnect_attempt(2));
        // Un-partitioned ranks are never vetoed.
        assert!(!handle.on_reconnect_attempt(1));
        let kinds: Vec<FaultKind> = handle.records().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::NetSever,
                FaultKind::NetSever,
                FaultKind::NetPartition,
                FaultKind::NetPartition,
            ]
        );
    }

    #[test]
    fn net_faults_disabled_handle_and_empty_plan() {
        let handle = FaultHandle::disabled();
        handle.note_progress(1, 9);
        assert_eq!(handle.on_frame(1), NetAction::Deliver);
        assert!(!handle.on_reconnect_attempt(1));
        assert!(!handle.targets_link(1));
        assert!(!FaultPlan::new(0).sever_connection(1, 0).is_empty());
        assert!(!FaultPlan::new(0).partition(&[1], 0, 1).is_empty());
    }
}
