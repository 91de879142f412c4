//! The socket world: one collector listening, workers dialing in — with
//! rank *leases* and automatic recovery on both sides of every link.
//! Both socket backends are this module: over TCP
//! ([`TcpCollectorTransport::listen`], elastic membership) or over the
//! launcher's Unix-domain socket ([`crate::launch`], which waits until
//! every child it spawned has joined). The `Tcp` in the type and tag
//! names is historical.
//!
//! [`TcpCollectorTransport::listen`] binds a listener and returns
//! immediately with zero workers connected. Each logical worker rank
//! is a *lease*: a dialing worker completes the versioned
//! join/grant handshake (`docs/wire-protocol.md`) and is dealt the
//! lowest untouched rank — which is exactly an untouched leapfrog
//! stream range plus its share of the realization budget. Because
//! every rank's streams and quota are a pure function of the run
//! configuration, a worker that joins mid-run computes precisely what
//! a fixed-membership worker would have, and the estimates stay
//! bit-identical. Ranks whose budget the collector has already
//! reassigned (after declaring them lost) are *retired* via
//! [`parmonc_mpi::Transport::retire_rank`] and never leased again —
//! leasing one would double-count the reassigned realizations.
//!
//! **Resilience.** Three mechanisms make a broken link survivable
//! without perturbing a single estimate bit:
//!
//! * **Worker reconnect** — when a send fails, [`TcpWorkerTransport`]
//!   re-dials the collector on the seeded exponential-backoff schedule
//!   of its [`ReconnectPolicy`] and re-attaches with a
//!   [`Rejoin`] handshake that names its rank and the session
//!   *epoch* from the original grant, then retries the failed frame.
//! * **Sequence numbers** — every envelope a worker sends carries a
//!   monotonic per-rank sequence number, and the retried frame reuses
//!   the number of the failed send; the collector admits each number
//!   at most once ([`crate::admit_seq`]), so a frame that in fact
//!   arrived before the break is dropped on replay — exactly-once
//!   delivery over any reconnect schedule.
//! * **Collector resume** — [`ListenOptions::resume`] re-arms a
//!   restarted collector from a persisted [`LeaseSnapshot`]: the
//!   original epoch is re-announced, previously leased ranks stay
//!   reserved for their [`Rejoin`]-ing workers, and per-rank sequence
//!   dedup state carries over. Workers from a *different* run (a
//!   stale rejoin against a fresh collector) are refused with
//!   [`RejectCode::EpochMismatch`].
//!
//! Rank 0's side of every connection is one I/O thread, `IoLoop`, so a
//! rank's frames are delivered in one order by construction: a rejoin
//! is admitted only once its old connection's bytes are delivered.
//!
//! Connection health is split between two layers, on purpose:
//!
//! * **writes** carry a per-connection timeout (`io_timeout`), so a
//!   wedged peer turns a send into [`MpiError::Disconnected`] instead
//!   of blocking the collector loop;
//! * **reads** never time a peer out (only a handshake has a deadline):
//!   the collector reads what `poll` finds, and a worker's reader polls
//!   with a short kernel receive timeout (`PatientReader` below) purely
//!   so teardown can interrupt it. Judging *silence* is the job of the
//!   run's heartbeat-based liveness plane, which sees the same evidence
//!   on every backend.
//!
//! The wiring is a star, like the collection it carries: every
//! connection runs between a worker and rank 0, and a connection
//! speaks only for the rank it was leased (frames claiming another
//! source are dropped).

use std::io::{self, ErrorKind, Read};
use std::net::SocketAddr;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parmonc_faults::{AtomicWriter, FaultHandle};
use parmonc_mpi::bytes::Bytes;
use parmonc_mpi::comm::DeliveryAccount;
use parmonc_mpi::envelope::{Envelope, Tag};
use parmonc_mpi::error::MpiError;
use parmonc_mpi::gate::FaultGate;
use parmonc_mpi::pool::BufferPool;
use parmonc_mpi::transport::Transport;
use parmonc_obs::{EventKind, Monitor, SpanEmitter, SpanPhase};

use crate::backoff::{splitmix64, Backoff, ReconnectPolicy};
use crate::faulty::FaultyStream;
use crate::frame::{
    decode_header, read_frame, write_frame, write_frame_seq, ClockProbe, ClockReply, ClockSync,
    Frame, Grant, JoinRequest, Reject, RejectCode, Rejoin, FRAME_HEADER_LEN, TAG_TCP_CLOCK,
    TAG_TCP_CLOCK_PROBE, TAG_TCP_CLOCK_REPLY, TAG_TCP_GRANT, TAG_TCP_JOIN, TAG_TCP_REJECT,
    TAG_TCP_REJOIN, TCP_MAGIC, TCP_PROTOCOL_VERSION,
};
use crate::launcher::Children;
use crate::link::{pump_frames, ForwardSink, LinkClock, LinkHooks, Mailbox, WireTelemetry};
use crate::poll::{poll, PollFd};
use crate::socket::{Endpoint, Listener, Socket};

/// How often a worker's blocked reader wakes to check the stop flag —
/// the kernel receive timeout under [`PatientReader`].
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the I/O thread pauses after a failed `accept()` (EMFILE,
/// ECONNABORTED, ...) or `poll()`, so that a repeating error cannot
/// spin a core.
const ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// The most one read of a connection buffers: [`std::io::BufReader`]'s
/// capacity, so a large payload is copied no more often than by one.
const READ_CHUNK: usize = 8 * 1024;

/// How long a monitored collector waits at shutdown for the workers
/// that are still connected to hang up by themselves (see
/// [`TcpCollectorTransport::shutdown`]), polling every
/// [`DEPARTURE_POLL`].
const DEPARTURE_LINGER: Duration = Duration::from_millis(100);
const DEPARTURE_POLL: Duration = Duration::from_micros(200);

/// How often a monitored worker refreshes its clock-offset estimate by
/// piggybacking a [`TAG_TCP_CLOCK_PROBE`] on an outgoing send. Clock
/// traffic never feeds the estimates, so the cadence is a trace-quality
/// knob, not a correctness one.
const CLOCK_SYNC_INTERVAL_S: f64 = 2.0;

/// A fresh, non-zero session epoch for a newly armed collector. Drawn
/// from the wall clock and pid, which never feed the estimates —
/// bit-identity is unaffected.
fn fresh_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    splitmix64(nanos ^ (u64::from(std::process::id()) << 32)).max(1)
}

/// A worker's [`Read`] wrapper for sockets with a short `SO_RCVTIMEO`:
/// receive timeouts are retried (a kernel timeout consumes no bytes, so frame
/// decoding never sees a torn header) until the stop flag is raised,
/// at which point reads report a clean EOF. Dead-peer detection is
/// deliberately *not* done here — silence is judged by the run's
/// liveness plane on heartbeat evidence, not by the transport.
#[derive(Debug)]
struct PatientReader {
    inner: Socket,
    stop: Arc<AtomicBool>,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(0);
            }
            match (&self.inner).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                other => return other,
            }
        }
    }
}

/// The persistable image of a collector's lease table: everything a
/// restarted collector needs to take over an interrupted run's
/// membership — the session epoch its workers will [`Rejoin`] with,
/// which ranks were ever leased or retired, and the last admitted
/// sequence number per rank (so dedup survives the restart).
///
/// Produced by [`TcpCollectorTransport::snapshot`], persisted by the
/// collector itself on every membership change (see
/// [`ListenOptions::persist`]), and fed back via
/// [`ListenOptions::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseSnapshot {
    /// The session epoch announced in every grant.
    pub epoch: u64,
    /// World size including the collector.
    pub size: usize,
    /// Per rank (index `rank - 1`): ever leased?
    pub ever_leased: Vec<bool>,
    /// Per rank: budget reassigned, never lease again?
    pub retired: Vec<bool>,
    /// Per rank: highest admitted sequence number.
    pub last_seqs: Vec<u64>,
}

impl LeaseSnapshot {
    /// Serializes to the line-oriented text format persisted next to
    /// the run's checkpoint.
    #[must_use]
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "parmonc-leases v1");
        let _ = writeln!(out, "epoch {:016x}", self.epoch);
        let _ = writeln!(out, "size {}", self.size);
        for i in 0..self.size.saturating_sub(1) {
            let _ = writeln!(
                out,
                "rank {} {} {} {}",
                i + 1,
                u8::from(self.ever_leased[i]),
                u8::from(self.retired[i]),
                self.last_seqs[i]
            );
        }
        out
    }

    /// Parses the text format back; `None` on any malformation (a
    /// truncated lease table must fail loudly, not resume half a
    /// membership).
    #[must_use]
    pub fn decode(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        if lines.next()? != "parmonc-leases v1" {
            return None;
        }
        let epoch = u64::from_str_radix(lines.next()?.strip_prefix("epoch ")?, 16).ok()?;
        let size: usize = lines.next()?.strip_prefix("size ")?.parse().ok()?;
        let workers = size.checked_sub(1)?;
        let mut ever_leased = vec![false; workers];
        let mut retired = vec![false; workers];
        let mut last_seqs = vec![0u64; workers];
        let bit = |field: &str| match field {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        for i in 0..workers {
            let line = lines.next()?;
            let mut f = line.strip_prefix("rank ")?.split(' ');
            let rank: usize = f.next()?.parse().ok()?;
            if rank != i + 1 {
                return None;
            }
            ever_leased[i] = bit(f.next()?)?;
            retired[i] = bit(f.next()?)?;
            last_seqs[i] = f.next()?.parse().ok()?;
            if f.next().is_some() {
                return None;
            }
        }
        if lines.next().is_some() {
            return None;
        }
        Some(Self {
            epoch,
            size,
            ever_leased,
            retired,
            last_seqs,
        })
    }
}

/// The collector's rank-lease table, shared by rank 0 and the I/O thread.
#[derive(Debug)]
struct LeaseState {
    /// Write halves indexed by `rank - 1`; `None` while the rank is
    /// unleased or after its connection dropped. A rank has a writer
    /// exactly while the I/O thread holds a connection for it.
    writers: Vec<Option<Arc<Mutex<Socket>>>>,
    /// Ranks that have been leased at least once. Fresh joiners are
    /// dealt never-touched ranks first: a rank whose worker already
    /// completed frees its slot on disconnect, and handing that slot
    /// to the *next* joiner (instead of the lowest untouched one)
    /// would make the joiner redo a finished stream range while a
    /// genuinely untouched range starves.
    ever_leased: Vec<bool>,
    /// Ranks whose budget the collector reassigned; never leased again.
    retired: Vec<bool>,
    /// Per-rank highest admitted sequence number, shared by the rank's
    /// connections across reconnects (and restored from a
    /// [`LeaseSnapshot`] across collector restarts).
    last_seqs: Vec<Arc<AtomicU64>>,
    /// Per-rank wire counters. They live beside the lease — not the
    /// connection — so frames and dials accumulate across reconnects
    /// and the end-of-run `wire_stats` event covers the rank's whole
    /// history on this collector.
    wire: Vec<Arc<WireTelemetry>>,
    /// Per-rank clock-offset estimators, same lifetime as the wire
    /// counters: a rejoining worker updates the estimate in place and
    /// the monotone floor keeps the rank's corrected event stream from
    /// running backwards across the break.
    clocks: Vec<Arc<LinkClock>>,
}

impl LeaseState {
    /// Leases the lowest never-yet-leased rank to `writer`, falling
    /// back to the lowest dropped rank (a reconnect redoing the same
    /// streams is idempotent under replace-then-sum), or `None` when
    /// every rank is either connected or retired.
    fn lease(&mut self, writer: Arc<Mutex<Socket>>) -> Option<usize> {
        let free = |&i: &usize| self.writers[i].is_none() && !self.retired[i];
        let mut slots = (0..self.writers.len()).filter(free);
        let slot = slots
            .clone()
            .find(|&i| !self.ever_leased[i])
            .or_else(|| slots.next())?;
        if self.ever_leased[slot] {
            // A fresh joiner (a new worker incarnation — crash-restart
            // has no rank/epoch to Rejoin with) is taking over a
            // dropped rank. Its sequence numbers restart at 1, so the
            // old incarnation's dedup high-water mark must not swallow
            // its heartbeats and subtotals: redoing the range is
            // idempotent under replace-then-sum, and dedup is only
            // needed *within* one incarnation's rejoin replays.
            self.last_seqs[slot].store(0, Ordering::Relaxed);
        }
        self.writers[slot] = Some(writer);
        self.ever_leased[slot] = true;
        Some(slot + 1)
    }

    /// Re-attaches a [`Rejoin`]ing worker to the rank it already
    /// holds, replacing (and hanging up) any half-open previous
    /// connection. The caller has validated rank bounds, epoch and
    /// digest; this refuses only never-leased and retired ranks.
    fn rejoin(&mut self, rank: usize, writer: Arc<Mutex<Socket>>) -> Result<(), &'static str> {
        let i = rank - 1;
        if !self.ever_leased[i] {
            return Err("rejoin names a rank that was never leased");
        }
        if self.retired[i] {
            return Err("rank's remaining budget was reassigned after it was declared lost");
        }
        if let Some(old) = self.writers[i].replace(writer) {
            // The previous connection is half-open (the worker saw the
            // break first): hang it up.
            if let Ok(stream) = old.lock() {
                stream.hang_up();
            }
        }
        Ok(())
    }

    /// The persistable image of this table (see [`LeaseSnapshot`]).
    fn snapshot(&self, epoch: u64, size: usize) -> LeaseSnapshot {
        LeaseSnapshot {
            epoch,
            size,
            ever_leased: self.ever_leased.clone(),
            retired: self.retired.clone(),
            last_seqs: self
                .last_seqs
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Persists the lease table, a durable file of the run, as one
/// [`AtomicWriter::write_durable`] commit. Failures are swallowed: a
/// lost write degrades a *future* crash-resume to a stale (or absent)
/// table, which the rejoin validation handles, and must never disturb
/// the running session. Callers hold the lease lock across the snapshot
/// *and* this write: the I/O thread (admissions) and rank 0's thread
/// (`retire_rank`) both persist, and could otherwise rename an older
/// snapshot over a newer one — losing, e.g., a retired bit whose rank
/// would then be double-counted on resume.
fn persist_lease_table((path, writer): &(PathBuf, AtomicWriter), snapshot: &LeaseSnapshot) {
    let _ = writer.write_durable(path, snapshot.encode().as_bytes());
}

/// Configuration for [`TcpCollectorTransport::listen`].
#[derive(Debug)]
pub struct ListenOptions {
    /// The address to listen on, e.g. `0.0.0.0:7717` or `127.0.0.1:0`
    /// (port 0 picks an ephemeral port; read it back with
    /// [`TcpCollectorTransport::local_addr`]).
    pub addr: String,
    /// World size including the collector: the number of logical
    /// ranks, i.e. leases, is `size - 1`.
    pub size: usize,
    /// The run's monitor. Join/leave events and rank-0 transport
    /// events are emitted here; worker events arrive over the sockets
    /// and are re-emitted with the workers' timestamps.
    pub monitor: Monitor,
    /// The collector-side fault plane (rank 0's outgoing messages).
    pub faults: FaultHandle,
    /// Digest of the run configuration; joiners presenting a different
    /// digest are rejected (they would compute the wrong streams).
    pub config_digest: u64,
    /// Per-rank realization quotas, indexed by `rank - 1`; echoed in
    /// the grant so the worker can cross-check its own configuration.
    pub quotas: Vec<u64>,
    /// Per-connection write timeout, and how long a dialer has to
    /// complete its join frame.
    pub io_timeout: Duration,
    /// A lease table persisted by a previous incarnation of this
    /// collector: restart with the same session epoch, keep
    /// previously leased ranks reserved for their rejoining workers,
    /// and carry the sequence-number dedup state over. `None` arms a
    /// fresh session with a new epoch.
    pub resume: Option<LeaseSnapshot>,
    /// Whether span tracing is on for this run: echoed in every grant
    /// (flag bit 1) so workers wrap their phases in
    /// `span_started`/`span_ended` events. Requires a monitored run to
    /// have any effect.
    pub trace_spans: bool,
    /// Where to persist the lease table for crash-resume. When set,
    /// the table is written at bind time and re-written on every
    /// membership change — always *before* the grant that makes the
    /// change visible to a worker, so a crash can never lose a lease
    /// a worker believes it holds. `None` disables persistence.
    pub persist: Option<(PathBuf, AtomicWriter)>,
    /// Every worker reports to rank 0, so the only values accepted are
    /// an empty vector or zeros: [`TcpCollectorTransport::listen`]
    /// refuses any other entry with [`io::ErrorKind::InvalidInput`].
    /// Kept only so exhaustive struct literals of `ListenOptions` keep
    /// compiling.
    pub parents: Vec<usize>,
}

/// What rank 0's thread shares with the collector's I/O thread:
/// everything a handshake needs to admit a joiner, and the lease table
/// both work on.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    lease: Mutex<LeaseState>,
    /// Feeds the collector's own inbox (the I/O thread, and self-sends).
    tx: Sender<Envelope>,
    monitor: Monitor,
    stats: Arc<DeliveryAccount>,
    size: usize,
    quotas: Vec<u64>,
    config_digest: u64,
    epoch: u64,
    io_timeout: Duration,
    persist: Option<(PathBuf, AtomicWriter)>,
    trace_spans: bool,
}

/// Rank 0 of a socket world: the listener, lease table, and
/// collector-side transport.
///
/// [`TcpCollectorTransport::listen`] returns with *zero* workers
/// connected; membership is elastic. A logical rank that never connects
/// is eventually declared lost by the collector's liveness sweep and
/// its budget reassigned — exactly the worker-loss path — so a run
/// completes at full volume whether or not every lease is ever taken.
/// A world built by [`crate::launch`] is the same collector over a
/// Unix-domain socket, returned once every spawned child holds a lease.
#[derive(Debug)]
pub struct TcpCollectorTransport {
    ctx: Arc<Shared>,
    pool: BufferPool,
    gate: FaultGate,
    mailbox: Mailbox,
    local_addr: SocketAddr,
    /// Where [`TcpCollectorTransport::shutdown`] dials to wake the I/O
    /// thread out of `poll()` (see [`Listener::self_endpoint`]).
    wake: Endpoint,
    io: Option<JoinHandle<()>>,
    /// The worker processes of a launched world (see [`crate::launch`]);
    /// `None` for a TCP world, whose workers are somebody else's.
    pub(crate) launched: Option<Children>,
    shut_down: bool,
}

impl TcpCollectorTransport {
    /// Binds the listening socket and starts the I/O thread.
    ///
    /// # Errors
    ///
    /// Bind/thread-spawn failures, a zero world size, a quota table
    /// that does not cover `size - 1` ranks, a non-zero entry in
    /// `parents`, or a resume snapshot whose world size disagrees with
    /// the configuration.
    pub fn listen(opts: ListenOptions) -> io::Result<Self> {
        Self::listen_on(&Endpoint::Tcp(opts.addr.clone()), opts)
    }

    /// [`TcpCollectorTransport::listen`] on either kind of endpoint;
    /// `opts.addr` is not consulted.
    pub(crate) fn listen_on(endpoint: &Endpoint, opts: ListenOptions) -> io::Result<Self> {
        if opts.size == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "world size must be at least 1",
            ));
        }
        if opts.quotas.len() != opts.size.saturating_sub(1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "quota table must have one entry per worker rank",
            ));
        }
        if opts.parents.iter().any(|&parent| parent != 0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "every worker reports to rank 0: parents must be empty or all zero",
            ));
        }
        if let Some(snapshot) = &opts.resume {
            if snapshot.size != opts.size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "lease snapshot world size disagrees with the run configuration",
                ));
            }
        }
        let listener = Listener::bind(endpoint)?;
        let local_addr = listener.local_addr()?;
        let wake = listener.self_endpoint()?;

        let (tx, rx) = mpsc::channel();
        let stats = Arc::new(DeliveryAccount::default());
        let workers = opts.size.saturating_sub(1);
        let (epoch, ever_leased, retired, last_seqs) = match opts.resume {
            Some(s) => (
                s.epoch,
                s.ever_leased,
                s.retired,
                s.last_seqs
                    .into_iter()
                    .map(|n| Arc::new(AtomicU64::new(n)))
                    .collect(),
            ),
            None => (
                fresh_epoch(),
                vec![false; workers],
                vec![false; workers],
                (0..workers).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            ),
        };
        let lease = Mutex::new(LeaseState {
            writers: vec![None; workers],
            ever_leased,
            retired,
            last_seqs,
            wire: (0..workers)
                .map(|_| Arc::new(WireTelemetry::default()))
                .collect(),
            clocks: (0..workers)
                .map(|_| Arc::new(LinkClock::default()))
                .collect(),
        });
        if let Some(persist) = &opts.persist {
            // Capture the session epoch on disk before any worker can
            // join, so even a pre-join crash resumes the same session.
            // Like every persist, the snapshot and the write share one
            // lease-lock critical section (see [`persist_lease_table`]).
            if let Ok(l) = lease.lock() {
                persist_lease_table(persist, &l.snapshot(epoch, opts.size));
            }
        }

        let ctx = Arc::new(Shared {
            stop: AtomicBool::new(false),
            lease,
            tx,
            monitor: opts.monitor.clone(),
            stats: Arc::clone(&stats),
            size: opts.size,
            quotas: opts.quotas,
            config_digest: opts.config_digest,
            epoch,
            io_timeout: opts.io_timeout,
            persist: opts.persist,
            trace_spans: opts.trace_spans,
        });
        let io_loop = IoLoop {
            listener,
            ctx: Arc::clone(&ctx),
            conns: Vec::new(),
        };
        let io = std::thread::Builder::new()
            .name("parmonc-tcp-io".into())
            .spawn(move || io_loop.run())?;

        Ok(Self {
            ctx,
            pool: BufferPool::new(parmonc_mpi::pool::DEFAULT_POOL_CAPACITY),
            gate: FaultGate::new(0, opts.faults, opts.monitor.clone()),
            mailbox: Mailbox::new(0, rx, opts.monitor, stats),
            local_addr,
            wake,
            io: Some(io),
            launched: None,
            shut_down: false,
        })
    }

    /// The bound listening address — with port 0 in
    /// [`ListenOptions::addr`], this is where the ephemeral port is
    /// learned.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The session epoch announced in every grant: fresh for a new
    /// session, carried over from the snapshot on resume.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.ctx.epoch
    }

    /// The current membership image, for persistence alongside the
    /// run's checkpoint (see [`LeaseSnapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> LeaseSnapshot {
        let lease = self.ctx.lease.lock();
        let lease = lease.unwrap_or_else(PoisonError::into_inner);
        lease.snapshot(self.ctx.epoch, self.ctx.size)
    }

    /// How many ranks have been leased at least once — what the
    /// launcher polls until every child has joined. A read and nothing
    /// more: the I/O thread waits in `poll()` on the listener, so a
    /// child's dial is taken the moment it arrives.
    pub(crate) fn ever_leased(&self) -> usize {
        let leased = self.snapshot().ever_leased;
        leased.iter().filter(|&&leased| leased).count()
    }

    fn raw_send(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        let bytes = payload.len();
        if dest == 0 {
            let depth = self.ctx.stats.enqueue();
            self.ctx.stats.note_depth(&self.ctx.monitor, 0, depth);
            self.ctx
                .tx
                .send(Envelope {
                    source: 0,
                    tag,
                    payload,
                })
                .map_err(|_| MpiError::Disconnected)?;
            DeliveryAccount::note_sent(&self.ctx.monitor, 0, dest, tag, bytes);
            return Ok(());
        }
        let (writer, wire) = {
            let lease = self.ctx.lease.lock().map_err(|_| MpiError::Disconnected)?;
            let writer = lease
                .writers
                .get(dest - 1)
                .cloned()
                .flatten()
                .ok_or(MpiError::Disconnected)?;
            (writer, Arc::clone(&lease.wire[dest - 1]))
        };
        {
            let mut stream = writer.lock().map_err(|_| MpiError::Disconnected)?;
            write_frame(&mut *stream, 0, tag.0, &payload).map_err(|_| MpiError::Disconnected)?;
        }
        wire.count_out(FRAME_HEADER_LEN + bytes);
        DeliveryAccount::note_sent(&self.ctx.monitor, 0, dest, tag, bytes);
        Ok(())
    }

    /// Tears the world down: force-flushes fault-delayed sends, waits
    /// for a launched world's children to exit on their own (killing
    /// any that outlive the deadline), raises the stop flag, shuts
    /// every live connection down (remote workers see EOF), wakes the
    /// I/O thread out of `poll()` by dialing its own listener, and
    /// joins it — which guarantees every forwarded worker event is in
    /// the monitor's sinks on return. Idempotent.
    ///
    /// The wake dial goes to the bound address — to loopback when the
    /// listener is bound to `0.0.0.0` or `::` — or to the Unix socket
    /// path, which still exists here because a launched world's
    /// directory is removed last. If that dial fails (a full listen
    /// backlog, a host that filters loopback), the I/O thread is not
    /// joined: shutdown returns rather than hang, and the thread, which
    /// checks the stop flag after every `poll()` return, exits at the
    /// next connection or byte that reaches it.
    ///
    /// Children are reaped *before* the connections close: a child that
    /// has sent its final flushes its own sinks and exits by itself, so
    /// its link is already at EOF when the I/O thread is joined and
    /// nothing it forwarded is cut off — and no child sits out a
    /// reconnect schedule against a parent that has already gone. A TCP
    /// world has no children to reap; in a monitored run it waits
    /// instead, up to 100 ms, for the workers still connected to hang
    /// up by themselves, for the same reason.
    ///
    /// # Errors
    ///
    /// The first wait/kill error of a launched world, after every child
    /// is reaped anyway.
    pub fn shutdown(&mut self) -> io::Result<()> {
        if self.shut_down {
            return Ok(());
        }
        self.shut_down = true;
        let _ = self.gate.flush(true, |d, t, p| self.raw_send(d, t, p));
        let reaped = self.launched.as_mut().map_or(Ok(()), Children::wait_exit);
        // A launched world's children have exited by now, and their
        // links with them. A TCP worker hangs up by itself within
        // microseconds of its final message, but what it forwards on
        // the way out — the events around that message, its link's
        // accounting — may still be in flight when a collector that
        // was only waiting for that message gets here. A monitored run
        // gives the I/O thread a bounded moment to reach the end of
        // those streams (it clears each writer slot there): the trace
        // keeps its tail, and our own hang-up below does not cut a
        // frame in half for the thread to report as `torn_frame`.
        if self.ctx.monitor.is_enabled() {
            let deadline = Instant::now() + DEPARTURE_LINGER;
            let connected = || {
                let lease = self.ctx.lease.lock();
                lease.is_ok_and(|lease| lease.writers.iter().any(Option::is_some))
            };
            while connected() && Instant::now() < deadline {
                std::thread::sleep(DEPARTURE_POLL);
            }
        }
        self.ctx.stop.store(true, Ordering::Release);
        if let Ok(lease) = self.ctx.lease.lock() {
            for writer in lease.writers.iter().flatten() {
                if let Ok(stream) = writer.lock() {
                    stream.hang_up();
                }
            }
        }
        if let Some(handle) = self.io.take() {
            // Held open until the join; the thread drops its end unread.
            if let Ok(_wake) = self.wake.dial(self.ctx.io_timeout) {
                let _ = handle.join();
            }
        }
        if let Ok(mut lease) = self.ctx.lease.lock() {
            for writer in lease.writers.iter_mut() {
                *writer = None;
            }
        }
        // Removes a launched world's socket directory.
        self.launched = None;
        reaped
    }
}

impl Drop for TcpCollectorTransport {
    fn drop(&mut self) {
        // Unclean teardown of a launched world (panic or early error):
        // kill immediately rather than waiting out the exit deadline.
        // (A completed shutdown has already let the children go.)
        if let Some(children) = &mut self.launched {
            children.kill();
        }
        let _ = self.shutdown();
    }
}

impl Transport for TcpCollectorTransport {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        self.ctx.size
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        if dest >= self.ctx.size {
            return Err(MpiError::InvalidRank {
                rank: dest,
                size: self.ctx.size,
            });
        }
        self.gate
            .send(dest, tag, payload, |d, t, p| self.raw_send(d, t, p))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, MpiError> {
        self.mailbox.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Option<Envelope> {
        self.mailbox.try_recv()
    }

    fn retire_rank(&self, rank: usize) {
        if rank == 0 || rank >= self.ctx.size {
            return;
        }
        if let Ok(mut lease) = self.ctx.lease.lock() {
            lease.retired[rank - 1] = true;
            if let Some(persist) = &self.ctx.persist {
                persist_lease_table(persist, &lease.snapshot(self.ctx.epoch, self.ctx.size));
            }
        }
    }
}

/// Rank 0's I/O thread: it owns the listener and every connection and
/// waits for any of them in `poll(2)`. It accepts, runs each handshake,
/// delivers each frame and answers clock probes, reading only what
/// `poll` found waiting, so a connection that has sent half a frame or
/// half a join holds nobody else: the bytes wait in its [`Inbound`]. A
/// dialer that never completes its join is dropped at its handshake
/// deadline, `io_timeout` after it was accepted — the only timeout the
/// loop waits on. A rank's frames keep one order by construction: on a
/// rejoin, the rank's old connection is drained before the new one is
/// granted.
#[derive(Debug)]
struct IoLoop {
    listener: Listener,
    ctx: Arc<Shared>,
    conns: Vec<Conn>,
}

/// One accepted connection of the [`IoLoop`].
#[derive(Debug)]
struct Conn {
    socket: Socket,
    inbound: Inbound,
    link: Link,
    /// When a connection still in its handshake is dropped.
    deadline: Option<Instant>,
}

/// What a connection is to the [`IoLoop`].
#[derive(Debug)]
enum Link {
    /// Accepted, its join or rejoin frame not yet read in full.
    Handshake { peer: Option<String> },
    /// The current connection of `rank`.
    Joined { rank: usize, hooks: LinkHooks },
    /// Refused, replaced or ended; swept out at the end of the round.
    Closed,
}

/// The bytes of a connection not yet delivered: a few buffered ones, or
/// one frame whose payload is read straight into its own vector.
#[derive(Debug)]
struct Inbound {
    /// Read bytes, of which `start..end` are not yet decoded.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// A frame with its payload read up to the given length.
    body: Option<(Frame, usize)>,
}

impl Inbound {
    fn new() -> Self {
        Self {
            buf: vec![0; READ_CHUNK].into_boxed_slice(),
            start: 0,
            end: 0,
            body: None,
        }
    }

    /// Reads once from `socket`, which `poll` found ready; `Ok(0)` is
    /// the connection's end.
    fn read_from(&mut self, mut socket: &Socket) -> io::Result<usize> {
        if let Some((frame, filled)) = &mut self.body {
            let n = socket.read(&mut frame.payload[*filled..])?;
            *filled += n;
            return Ok(n);
        }
        // Less than a header is left, so there is room.
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        let n = socket.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next frame read in full, if there is one; an error for a
    /// length prefix past the protocol maximum.
    fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.body.is_none() {
            let pending = &self.buf[self.start..self.end];
            let Some(header) = pending.first_chunk() else {
                return Ok(None);
            };
            let mut frame = decode_header(header)?;
            let read = frame.payload.len().min(pending.len() - FRAME_HEADER_LEN);
            frame.payload[..read].copy_from_slice(&pending[FRAME_HEADER_LEN..][..read]);
            self.start += FRAME_HEADER_LEN + read;
            self.body = Some((frame, read));
        }
        match self.body.take() {
            Some((frame, filled)) if filled == frame.payload.len() => Ok(Some(frame)),
            open => {
                self.body = open;
                Ok(None)
            }
        }
    }

    /// Whether bytes of an unfinished frame are held.
    fn is_mid_frame(&self) -> bool {
        self.body.is_some() || self.start < self.end
    }
}

impl IoLoop {
    /// Serves until shutdown raises the stop flag and wakes the `poll`.
    fn run(mut self) {
        let mut fds = Vec::new();
        // Pairs with shutdown's `Release` store, made before its wake
        // dial and its hang-ups: nothing is read after it.
        while !self.ctx.stop.load(Ordering::Acquire) {
            fds.clear();
            fds.push(PollFd::input(self.listener.as_raw_fd()));
            fds.extend(
                self.conns
                    .iter()
                    .map(|c| PollFd::input(c.socket.as_raw_fd())),
            );
            let deadline = self.conns.iter().filter_map(|c| c.deadline).min();
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if poll(&mut fds, timeout).is_err() {
                std::thread::sleep(ERROR_BACKOFF);
                continue;
            }
            if self.ctx.stop.load(Ordering::Acquire) {
                break;
            }
            for (i, fd) in fds[1..].iter().enumerate() {
                if fd.is_ready() && !self.pump(i) {
                    self.close(i, true);
                }
            }
            if fds[0].is_ready() {
                self.accept_pending();
            }
            let now = Instant::now();
            for conn in &mut self.conns {
                if conn.deadline.is_some_and(|d| d <= now) {
                    conn.link = Link::Closed;
                }
            }
            self.conns.retain(|c| !matches!(c.link, Link::Closed));
        }
        for i in 0..self.conns.len() {
            self.close(i, true);
        }
    }

    /// Takes every pending dial as a new handshake.
    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                // A socket that cannot be configured is dropped: the
                // dialer sees EOF and retries on its schedule.
                Ok((socket, peer)) => {
                    if socket.configure(self.ctx.io_timeout).is_ok() {
                        self.conns.push(Conn {
                            socket,
                            inbound: Inbound::new(),
                            link: Link::Handshake { peer },
                            deadline: Some(Instant::now() + self.ctx.io_timeout),
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // An accept error (EMFILE, ECONNABORTED) is transient
                // on a healthy listener: serve on after a short pause.
                Err(_) => return std::thread::sleep(ERROR_BACKOFF),
            }
        }
    }

    /// Reads connection `i` until a read would wait — a rejoin may have
    /// drained it since `poll` — and hands every frame it completes to
    /// the handshake or to delivery. Returns `false` when the connection
    /// has ended: EOF, a read error, an impossible frame length, or an
    /// inbox nobody reads.
    fn pump(&mut self, i: usize) -> bool {
        while self.has_input(i) {
            let conn = &mut self.conns[i];
            match conn.inbound.read_from(&conn.socket) {
                Ok(0) => return false,
                Ok(_) => {}
                Err(e) => return e.kind() == ErrorKind::Interrupted,
            }
            loop {
                let Ok(frame) = self.conns[i].inbound.next_frame() else {
                    return false;
                };
                match (frame, &self.conns[i].link) {
                    (_, Link::Closed) => return true,
                    (None, _) => break,
                    (Some(frame), Link::Handshake { .. }) => self.admit(i, frame),
                    (Some(frame), Link::Joined { hooks, .. }) => {
                        if !hooks.deliver(frame, &self.ctx.tx) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Whether a read of connection `i` would return without waiting.
    fn has_input(&self, i: usize) -> bool {
        let mut fd = [PollFd::input(self.conns[i].socket.as_raw_fd())];
        poll(&mut fd, Some(Duration::ZERO)).is_ok() && fd[0].is_ready()
    }

    /// Closes connection `i`, reporting a frame it ended inside as
    /// torn. A handshake ends unanswered. A rank's connection that
    /// `left` (rather than being replaced by a rejoin) frees the rank's
    /// lease, so that a reconnecting worker can take it back — the
    /// cumulative replace-then-sum averaging makes a redo of the same
    /// streams idempotent — and surfaces the departure after the
    /// collector-side wire totals, so a trace always pairs a departure
    /// with the link's final accounting (the collector forwards nothing
    /// over the link, so its only event losses are the frames it could
    /// not decode, which the telemetry counted).
    fn close(&mut self, i: usize, left: bool) {
        let Link::Joined { rank, hooks } = std::mem::replace(&mut self.conns[i].link, Link::Closed)
        else {
            return;
        };
        if self.conns[i].inbound.is_mid_frame() {
            hooks.torn();
        }
        if left {
            if let Ok(mut lease) = self.ctx.lease.lock() {
                lease.writers[rank - 1] = None;
            }
            self.ctx.monitor.emit(Some(0), hooks.wire.to_event(rank, 0));
            let left = EventKind::WorkerLeft { worker: rank };
            self.ctx.monitor.emit(Some(0), left);
        }
    }

    /// Validates connection `i`'s join (or rejoin) request and, on
    /// success, leases it a rank and answers with the grant, after which
    /// its frames are delivered. Invalid requests are answered with a
    /// reject frame and dropped; a failure here never disturbs the rest
    /// of the world.
    fn admit(&mut self, i: usize, frame: Frame) {
        // Every early return leaves the connection closed.
        let Link::Handshake { peer } = std::mem::replace(&mut self.conns[i].link, Link::Closed)
        else {
            return;
        };
        let ctx = Arc::clone(&self.ctx);
        let socket = &self.conns[i].socket;
        if frame.tag != TAG_TCP_JOIN && frame.tag != TAG_TCP_REJOIN {
            // An alien connection: drop it without reply.
            return;
        }
        // `t1` of the NTP-style offset exchange: the collector's run
        // clock at request receipt, paired with the worker's `t0_s`.
        let t_recv_s = ctx.monitor.elapsed_s();
        // The common envelope checks, shared by join and rejoin: magic,
        // protocol version, configuration digest.
        let (magic, version, digest, t0_s, rejoin) = if frame.tag == TAG_TCP_JOIN {
            let Some(join) = JoinRequest::decode(&frame.payload) else {
                return reject(socket, RejectCode::BadMagic, "malformed join payload");
            };
            (
                join.magic,
                join.version,
                join.config_digest,
                join.t0_s,
                None,
            )
        } else {
            let Some(rejoin) = Rejoin::decode(&frame.payload) else {
                return reject(socket, RejectCode::BadMagic, "malformed rejoin payload");
            };
            (
                rejoin.magic,
                rejoin.version,
                rejoin.config_digest,
                rejoin.t0_s,
                Some(rejoin),
            )
        };
        if magic != TCP_MAGIC {
            return reject(
                socket,
                RejectCode::BadMagic,
                "join frame does not open with the PMNC magic",
            );
        }
        if version != TCP_PROTOCOL_VERSION {
            return reject(
                socket,
                RejectCode::VersionMismatch,
                &format!(
                    "worker speaks wire-protocol version {version}, collector speaks {TCP_PROTOCOL_VERSION}"
                ),
            );
        }
        if digest != ctx.config_digest {
            return reject(
                socket,
                RejectCode::ConfigMismatch,
                "run-configuration digest mismatch: this worker would compute the wrong streams",
            );
        }
        let Ok(write_half) = socket.try_clone() else {
            return;
        };
        let writer = Arc::new(Mutex::new(write_half));
        let (rank, reconnect) = match rejoin {
            None => {
                let leased = ctx
                    .lease
                    .lock()
                    .ok()
                    .and_then(|mut lease| lease.lease(Arc::clone(&writer)));
                let Some(rank) = leased else {
                    return reject(
                        socket,
                        RejectCode::BudgetExhausted,
                        "no worker rank available: every stream range is leased or its budget reassigned",
                    );
                };
                (rank, false)
            }
            Some(rejoin) => {
                if rejoin.epoch != ctx.epoch {
                    return reject(
                        socket,
                        RejectCode::EpochMismatch,
                        "session epoch mismatch: this lease belongs to a different collector session",
                    );
                }
                let rank = rejoin.rank as usize;
                if rank == 0 || rank >= ctx.size {
                    return reject(
                        socket,
                        RejectCode::BudgetExhausted,
                        "rejoin names an impossible rank",
                    );
                }
                // The rank's frames keep one order: what its current
                // connection already holds is delivered first, or this
                // one's would raise the dedup mark past it and have it
                // dropped as a replay.
                let previous = self
                    .conns
                    .iter()
                    .position(|c| matches!(c.link, Link::Joined { rank: r, .. } if r == rank));
                if let Some(j) = previous {
                    self.pump(j);
                }
                let outcome = ctx
                    .lease
                    .lock()
                    .map_err(|_| "lease table poisoned")
                    .and_then(|mut lease| lease.rejoin(rank, Arc::clone(&writer)));
                if let Err(reason) = outcome {
                    return reject(&self.conns[i].socket, RejectCode::BudgetExhausted, reason);
                }
                // Hung up by the rejoin, silently: the reconnect event
                // below tells that story.
                if let Some(j) = previous {
                    self.close(j, false);
                }
                (rank, true)
            }
        };
        let socket = &self.conns[i].socket;
        // Persist the lease *before* the grant goes out: once the worker
        // holds a grant it will REJOIN with this rank after any crash,
        // and a restarted collector must recognize the lease.
        let Ok((last_seq, wire, clock)) = ctx.lease.lock().map(|lease| {
            if let Some(persist) = &ctx.persist {
                persist_lease_table(persist, &lease.snapshot(ctx.epoch, ctx.size));
            }
            (
                Arc::clone(&lease.last_seqs[rank - 1]),
                Arc::clone(&lease.wire[rank - 1]),
                Arc::clone(&lease.clocks[rank - 1]),
            )
        }) else {
            return;
        };
        let grant = Grant {
            version: TCP_PROTOCOL_VERSION,
            monitor: ctx.monitor.is_enabled(),
            spans: ctx.trace_spans && ctx.monitor.is_enabled(),
            rank: rank as u32,
            size: ctx.size as u32,
            quota: ctx.quotas[rank - 1],
            epoch: ctx.epoch,
            t_recv_s,
            // `t2`: sampled as late as possible before the reply hits the
            // wire, so the worker's RTT estimate excludes our lease work.
            t_reply_s: ctx.monitor.elapsed_s(),
        };
        if write_frame(&mut &*socket, 0, TAG_TCP_GRANT, &grant.encode()).is_err() {
            if let Ok(mut lease) = ctx.lease.lock() {
                lease.writers[rank - 1] = None;
            }
            return;
        }
        // Account the handshake itself on the link's wire counters.
        wire.count_in(FRAME_HEADER_LEN + frame.payload.len());
        wire.count_out(FRAME_HEADER_LEN + grant.encode().len());
        // Seed the link's offset with the crude one-way estimate
        // `t1 - t0` (it over-corrects by the uplink latency). The worker
        // closes the proper RTT-symmetric estimate from the grant and
        // reports it in a `TAG_TCP_CLOCK` frame that — by wire ordering —
        // arrives before any event it forwards, so the seed only covers
        // the handshake gap.
        clock.set_offset(t_recv_s - t0_s);
        if reconnect {
            ctx.monitor
                .emit(Some(0), EventKind::WorkerReconnected { worker: rank });
        } else {
            ctx.monitor.emit(
                Some(0),
                EventKind::WorkerJoined {
                    worker: rank,
                    addr: peer,
                },
            );
        }
        // Answers the worker's periodic clock probes over this link's
        // writer: `t1` at receipt, `t2` as the reply is written.
        let responder: Box<dyn Fn(&Frame) + Send> = {
            let monitor = ctx.monitor.clone();
            let wire = Arc::clone(&wire);
            Box::new(move |frame: &Frame| {
                if frame.tag != TAG_TCP_CLOCK_PROBE {
                    return;
                }
                let Some(probe) = ClockProbe::decode(&frame.payload) else {
                    return;
                };
                let t1_s = monitor.elapsed_s();
                if let Ok(mut stream) = writer.lock() {
                    let reply = ClockReply {
                        t0_s: probe.t0_s,
                        t1_s,
                        t2_s: monitor.elapsed_s(),
                    };
                    let payload = reply.encode();
                    if write_frame(&mut *stream, 0, TAG_TCP_CLOCK_REPLY, &payload).is_ok() {
                        wire.count_out(FRAME_HEADER_LEN + payload.len());
                    }
                }
            })
        };
        self.conns[i].deadline = None;
        self.conns[i].link = Link::Joined {
            rank,
            hooks: LinkHooks {
                monitor: ctx.monitor.clone(),
                local_rank: 0,
                stats: Arc::clone(&ctx.stats),
                expect_source: Some(rank as u32),
                dedup: Some(last_seq),
                wire,
                clock: Some(clock),
                clock_responder: Some(responder),
            },
        };
    }
}

/// Answers a refused join with a reject frame and closes the
/// connection.
fn reject(stream: &Socket, code: RejectCode, reason: &str) {
    let payload = Reject {
        code,
        reason: reason.to_string(),
    }
    .encode();
    let _ = write_frame(&mut &*stream, 0, TAG_TCP_REJECT, &payload);
    stream.hang_up();
}

/// Configuration for [`TcpWorkerTransport::join`].
#[derive(Debug)]
pub struct JoinOptions {
    /// The collector's listening address, e.g. `collector-host:7717`.
    pub addr: String,
    /// Digest of this worker's run configuration; must match the
    /// collector's or the join is rejected.
    pub config_digest: u64,
    /// The worker-side fault plane; also drives the deterministic
    /// net-fault injection on this worker's outbound link.
    pub faults: FaultHandle,
    /// Connect timeout, write timeout, and the read timeout during the
    /// handshake.
    pub io_timeout: Duration,
    /// The seeded backoff schedule for the initial dial and every
    /// automatic reconnect after a broken connection.
    pub reconnect: ReconnectPolicy,
    /// Deterministic skew (seconds, may be negative) added to this
    /// worker's local event clock — a test/demo knob that models
    /// unsynchronized hosts so the collector-side alignment has
    /// something to correct. Zero in production. Never feeds the
    /// estimates, only timestamps.
    pub clock_skew_s: f64,
}

/// How one handshake attempt failed: transiently (worth retrying on
/// the backoff schedule) or permanently (the collector answered with a
/// reject, or with a grant for somebody else — retrying cannot change
/// its mind).
enum HandshakeError {
    Transient(io::Error),
    Permanent(io::Error),
}

/// Reads and classifies the collector's handshake reply.
fn read_grant(stream: &Socket) -> Result<Grant, HandshakeError> {
    let reply = read_frame(&mut &*stream)
        .map_err(HandshakeError::Transient)?
        .ok_or_else(|| {
            HandshakeError::Transient(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "collector closed the connection during the handshake",
            ))
        })?;
    match reply.tag {
        TAG_TCP_GRANT => Grant::decode(&reply.payload).ok_or_else(|| {
            HandshakeError::Transient(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed grant payload",
            ))
        }),
        TAG_TCP_REJECT => {
            let message = match Reject::decode(&reply.payload) {
                Some(r) => format!("collector rejected the join ({:?}): {}", r.code, r.reason),
                None => "collector rejected the join".to_string(),
            };
            Err(HandshakeError::Permanent(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                message,
            )))
        }
        _ => Err(HandshakeError::Transient(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected handshake reply",
        ))),
    }
}

/// What a worker needs to reach its collector, at join time and again
/// at every reconnect: where to dial, what to present, and the clock
/// and wire counters every handshake reads and writes.
#[derive(Debug)]
struct Uplink {
    endpoint: Endpoint,
    config_digest: u64,
    io_timeout: Duration,
    reconnect: ReconnectPolicy,
    /// This side's wire counters; flushed as a `wire_stats` event
    /// (link 0: the uplink to the collector) at drop.
    wire: Arc<WireTelemetry>,
    /// The instant the local event clock started — shared by the
    /// monitor and every handshake/probe timestamp, so `t0`/`t3`
    /// samples and event stamps are on one clock.
    clock_epoch: Instant,
    /// The deterministic skew from [`JoinOptions::clock_skew_s`].
    skew_s: f64,
}

impl Uplink {
    /// The worker's local event clock: seconds since the transport
    /// started dialing, plus the configured deterministic skew.
    fn local_now(&self) -> f64 {
        self.clock_epoch.elapsed().as_secs_f64() + self.skew_s
    }

    fn dial(&self) -> io::Result<Socket> {
        self.endpoint
            .dial(self.reconnect.attempt_timeout.min(self.io_timeout))
    }

    /// The one handshake, on a freshly dialed stream: a join (`lease`
    /// is `None`) or a rejoin naming the `(epoch, rank)` this worker
    /// already holds. Returns the grant and the local `t3` sample, with
    /// the stream left in the patient read discipline.
    fn attach(
        &self,
        stream: &Socket,
        lease: Option<(u64, usize)>,
    ) -> Result<(Grant, f64), HandshakeError> {
        use HandshakeError::{Permanent, Transient};
        stream.configure(self.io_timeout).map_err(Transient)?;
        let t0_s = self.local_now();
        let (tag, request) = match lease {
            None => {
                let mut join = JoinRequest::new(self.config_digest);
                join.t0_s = t0_s;
                (TAG_TCP_JOIN, join.encode().to_vec())
            }
            Some((epoch, rank)) => {
                let mut rejoin = Rejoin::new(self.config_digest, epoch, rank as u32);
                rejoin.t0_s = t0_s;
                (TAG_TCP_REJOIN, rejoin.encode().to_vec())
            }
        };
        write_frame(&mut &*stream, 0, tag, &request).map_err(Transient)?;
        self.wire.count_out(FRAME_HEADER_LEN + request.len());
        let grant = read_grant(stream)?;
        let t3_s = self.local_now();
        self.wire.count_in(FRAME_HEADER_LEN + grant.encode().len());
        let (rank, size) = (grant.rank as usize, grant.size as usize);
        match lease {
            None if rank == 0 || rank >= size => {
                return Err(Permanent(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "grant leased an impossible rank",
                )));
            }
            Some((epoch, held)) if rank != held || grant.epoch != epoch => {
                return Err(Permanent(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "rejoin grant does not match the original lease",
                )));
            }
            _ => {}
        }
        // Close the RTT-symmetric offset estimate and report it before
        // any event frame: written on the bare stream (pre fault-plane
        // wrap) so clock traffic never consumes a scripted frame
        // ordinal, and ordered ahead of every forwarded (or replayed)
        // event by the wire itself.
        if grant.monitor {
            let sync = ClockSync::estimate(t0_s, grant.t_recv_s, grant.t_reply_s, t3_s);
            let payload = sync.encode();
            write_frame(&mut &*stream, grant.rank, TAG_TCP_CLOCK, &payload).map_err(Transient)?;
            self.wire.count_out(FRAME_HEADER_LEN + payload.len());
        }
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(Transient)?;
        Ok((grant, t3_s))
    }
}

/// Builds the worker-side answer to a [`TAG_TCP_CLOCK_REPLY`]: close
/// the four-timestamp exchange with a local `t3` sample and report the
/// fresh offset estimate back to the collector. The report is written
/// through the *inner* stream ([`FaultyStream::get_mut`]) so clock
/// traffic never consumes a scripted frame ordinal — safe because the
/// writer lock guarantees the stream sits at a frame boundary — and is
/// skipped entirely while the link is severed (the next rejoin grant
/// re-syncs instead).
fn clock_reply_responder(
    writer: Arc<Mutex<FaultyStream<Socket>>>,
    wire: Arc<WireTelemetry>,
    rank: usize,
    local_now: impl Fn() -> f64 + Send + 'static,
) -> Box<dyn Fn(&Frame) + Send> {
    Box::new(move |frame: &Frame| {
        if frame.tag != TAG_TCP_CLOCK_REPLY {
            return;
        }
        let Some(reply) = ClockReply::decode(&frame.payload) else {
            return;
        };
        let t3_s = local_now();
        let sync = ClockSync::estimate(reply.t0_s, reply.t1_s, reply.t2_s, t3_s);
        if let Ok(mut stream) = writer.lock() {
            if stream.is_severed() {
                return;
            }
            let payload = sync.encode();
            if write_frame(stream.get_mut(), rank as u32, TAG_TCP_CLOCK, &payload).is_ok() {
                wire.count_out(FRAME_HEADER_LEN + payload.len());
            }
        }
    })
}

/// A worker's end of a socket world: dials the collector, completes
/// the handshake, and speaks for exactly the rank it was leased. A
/// broken connection does not kill the worker — sends transparently
/// re-dial on the seeded [`ReconnectPolicy`] schedule, re-attach with a
/// [`Rejoin`] handshake, and retry the failed frame under its original
/// sequence number (so the collector's dedup keeps delivery
/// exactly-once).
#[derive(Debug)]
pub struct TcpWorkerTransport {
    rank: usize,
    size: usize,
    quota: u64,
    pool: BufferPool,
    monitor: Monitor,
    gate: FaultGate,
    mailbox: Mailbox,
    writer: Arc<Mutex<FaultyStream<Socket>>>,
    stop: Arc<AtomicBool>,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// Readers orphaned by reconnects; they exit on their own once
    /// their dead socket drains, and are joined at drop.
    stale_readers: Mutex<Vec<JoinHandle<()>>>,
    /// Kept so reconnect can respawn readers feeding the same inbox.
    tx: Sender<Envelope>,
    stats: Arc<DeliveryAccount>,
    uplink: Uplink,
    epoch: u64,
    faults: FaultHandle,
    next_seq: AtomicU64,
    /// Span emitter for this worker's phases; enabled by grant flag
    /// bit 1 on monitored runs, inert otherwise.
    spans: SpanEmitter,
    /// `f64` bits of the local clock at the last offset exchange
    /// (handshake, rejoin, or probe) — the re-sync throttle.
    last_sync: AtomicU64,
    /// Reconnect spans measured while the writer lock was held; the
    /// forwarding sink needs that same lock, so they are drained into
    /// the monitor only after it is released (see `raw_send`/`drop`).
    pending_spans: Mutex<Vec<(f64, f64)>>,
}

impl TcpWorkerTransport {
    /// Dials the collector (on the reconnect policy's backoff
    /// schedule) and completes the join/grant handshake.
    ///
    /// # Errors
    ///
    /// Resolution/connection failures after the dial budget is spent,
    /// handshake I/O errors, a malformed reply — or a reject frame,
    /// surfaced as [`io::ErrorKind::ConnectionRefused`] with the
    /// collector's reason in the message.
    pub fn join(opts: JoinOptions) -> io::Result<Self> {
        Self::join_on(Endpoint::Tcp(opts.addr.clone()), opts)
    }

    /// [`TcpWorkerTransport::join`] for a worker process started by
    /// [`crate::launch`]: `opts.addr` is the path of the launcher's
    /// Unix-domain socket ([`crate::WorkerInfo::socket`]), everything
    /// else — handshake, lease, reconnect, errors — is the same.
    pub fn join_unix(opts: JoinOptions) -> io::Result<Self> {
        Self::join_on(Endpoint::Unix(PathBuf::from(&opts.addr)), opts)
    }

    fn join_on(endpoint: Endpoint, opts: JoinOptions) -> io::Result<Self> {
        // The backoff seed identifies the link, but the rank is not
        // known until the grant — seed the initial dial per process
        // and per join instead, so a fleet of workers dialing a
        // not-yet-up collector does not retry in lock-step. (Backoff
        // timing never feeds the estimates, so a non-deterministic
        // seed cannot perturb a bit.)
        static DIAL_NONCE: AtomicU64 = AtomicU64::new(0);
        let dial_seed = splitmix64(
            (u64::from(std::process::id()) << 32) ^ DIAL_NONCE.fetch_add(1, Ordering::Relaxed),
        );
        let uplink = Uplink {
            endpoint,
            config_digest: opts.config_digest,
            io_timeout: opts.io_timeout,
            reconnect: opts.reconnect,
            wire: Arc::new(WireTelemetry::default()),
            // The local event clock starts *before* the dial: the
            // handshake's `t0`/`t3` samples and every later event stamp
            // must come off one clock, or the offset exchange would
            // correct the wrong thing.
            clock_epoch: Instant::now(),
            skew_s: opts.clock_skew_s,
        };
        let stream = crate::backoff::retry(opts.reconnect, dial_seed, |_| uplink.dial())?;
        let (grant, t3_s) = match uplink.attach(&stream, None) {
            Ok(granted) => granted,
            Err(HandshakeError::Transient(e) | HandshakeError::Permanent(e)) => return Err(e),
        };
        let rank = grant.rank as usize;
        let size = grant.size as usize;
        let writer = Arc::new(Mutex::new(FaultyStream::new(
            stream.try_clone()?,
            rank,
            opts.faults.clone(),
        )));
        let monitor = if grant.monitor {
            Monitor::new_skewed_from(
                uplink.clock_epoch,
                vec![Box::new(ForwardSink::new(
                    Arc::clone(&writer),
                    rank,
                    Arc::clone(&uplink.wire),
                ))],
                uplink.skew_s,
            )
        } else {
            Monitor::disabled()
        };
        let stats = Arc::new(DeliveryAccount::default());
        let (tx, rx) = mpsc::channel();
        let this = Self {
            rank,
            size,
            quota: grant.quota,
            pool: BufferPool::new(parmonc_mpi::pool::DEFAULT_POOL_CAPACITY),
            spans: SpanEmitter::new(&monitor, rank, grant.spans),
            gate: FaultGate::new(rank, opts.faults.clone(), monitor.clone()),
            monitor,
            mailbox: Mailbox::new(rank, rx, Monitor::disabled(), Arc::clone(&stats)),
            writer,
            stop: Arc::new(AtomicBool::new(false)),
            reader: Mutex::new(None),
            stale_readers: Mutex::new(Vec::new()),
            tx,
            stats,
            uplink,
            epoch: grant.epoch,
            faults: opts.faults,
            next_seq: AtomicU64::new(0),
            last_sync: AtomicU64::new(t3_s.to_bits()),
            pending_spans: Mutex::new(Vec::new()),
        };
        let reader = this.spawn_reader(stream)?;
        this.reader
            .lock()
            .expect("no other thread has seen this transport yet")
            .replace(reader);
        Ok(this)
    }

    /// Starts the thread pumping `stream` into this worker's inbox.
    fn spawn_reader(&self, stream: Socket) -> io::Result<JoinHandle<()>> {
        let patient = PatientReader {
            inner: stream,
            stop: Arc::clone(&self.stop),
        };
        let (clock_epoch, skew_s) = (self.uplink.clock_epoch, self.uplink.skew_s);
        let hooks = LinkHooks {
            monitor: self.monitor.clone(),
            local_rank: self.rank,
            stats: Arc::clone(&self.stats),
            // The only peer on this link is the collector.
            expect_source: Some(0),
            dedup: None,
            wire: Arc::clone(&self.uplink.wire),
            clock: None,
            clock_responder: Some(clock_reply_responder(
                Arc::clone(&self.writer),
                Arc::clone(&self.uplink.wire),
                self.rank,
                move || clock_epoch.elapsed().as_secs_f64() + skew_s,
            )),
        };
        let tx = self.tx.clone();
        std::thread::Builder::new()
            .name(format!("parmonc-tcp-r{}", self.rank))
            .spawn(move || pump_frames(patient, tx, hooks))
    }

    /// The worker's monitor: enabled (forwarding over the socket) when
    /// the collector's run is monitored, disabled otherwise.
    #[must_use]
    pub fn monitor(&self) -> Monitor {
        self.monitor.clone()
    }

    /// The realization quota the grant promised for this rank; callers
    /// cross-check it against their own configuration before
    /// computing.
    #[must_use]
    pub fn granted_quota(&self) -> u64 {
        self.quota
    }

    /// The session epoch from the grant; a resumed collector
    /// re-announces the same epoch, anything else refuses our rejoin.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-establishes the link after a broken send, with the writer
    /// lock held (so concurrent senders queue behind the recovery
    /// instead of racing it): hang up the old socket, re-dial on the
    /// seeded backoff schedule — each attempt first consulting the
    /// fault plane's partition veto — re-attach with a rejoin
    /// handshake, swap the stream under the [`FaultyStream`], and
    /// respawn the reader.
    fn reconnect_locked(&self, stream: &mut FaultyStream<Socket>) -> io::Result<()> {
        if self.stop.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "transport is shutting down",
            ));
        }
        // The recovery is timed here but reported later: the span
        // would be forwarded through the very writer lock this method
        // holds, so it is queued and drained once the lock is free.
        let span_start_s = self.uplink.local_now();
        // Hang the old connection up explicitly: when only the fault
        // plane broke the link, the kernel socket is still healthy and
        // the collector would otherwise keep the half-open connection
        // (and our rank's writer slot) alive.
        stream.get_ref().hang_up();
        let mut backoff = Backoff::new(self.uplink.reconnect, self.rank as u64);
        let mut last_err: Option<io::Error> = None;
        loop {
            let Some(delay) = backoff.next_delay() else {
                return Err(last_err.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "reconnect attempt budget exhausted",
                    )
                }));
            };
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            if self.faults.on_reconnect_attempt(self.rank) {
                last_err = Some(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "reconnect attempt vetoed by the scripted partition",
                ));
                continue;
            }
            self.uplink.wire.count_dial();
            let attempt = self
                .uplink
                .dial()
                .map_err(HandshakeError::Transient)
                .and_then(|candidate| {
                    let (_, t3_s) = self
                        .uplink
                        .attach(&candidate, Some((self.epoch, self.rank)))?;
                    let write_half = candidate.try_clone().map_err(HandshakeError::Transient)?;
                    Ok((candidate, write_half, t3_s))
                });
            let (candidate, write_half, t3_s) = match attempt {
                Ok(attached) => attached,
                // A reject is final: the collector will answer every
                // retry the same way (wrong epoch, retired rank, ...).
                Err(HandshakeError::Permanent(e)) => return Err(e),
                Err(HandshakeError::Transient(e)) => {
                    last_err = Some(e);
                    continue;
                }
            };
            // The rejoin grant doubled as a fresh offset exchange.
            self.last_sync.store(t3_s.to_bits(), Ordering::Relaxed);
            // The link is back. The old reader exits on its own (its
            // socket is shut down); joining it here could deadlock —
            // it may be blocked forwarding an event through the very
            // writer lock we hold — so it is parked for drop instead.
            stream.replace(write_half);
            match self.spawn_reader(candidate) {
                Ok(handle) => {
                    if let Ok(mut slot) = self.reader.lock() {
                        let old = slot.replace(handle);
                        if let (Some(old), Ok(mut stale)) = (old, self.stale_readers.lock()) {
                            stale.push(old);
                        }
                    }
                }
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            }
            if self.spans.is_enabled() {
                if let Ok(mut pending) = self.pending_spans.lock() {
                    pending.push((span_start_s, self.uplink.local_now()));
                }
            }
            return Ok(());
        }
    }

    fn raw_send(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        // The link runs to the collector and nowhere else.
        if dest != 0 {
            return Err(MpiError::InvalidRank {
                rank: dest,
                size: self.size,
            });
        }
        let (wire_tag, on_wire) = (tag.0, &payload[..]);
        let result = {
            let mut stream = self.writer.lock().map_err(|_| MpiError::Disconnected)?;
            // One sequence number per *logical* send, assigned under the
            // writer lock so wire order always matches sequence order — a
            // lower number written later would be dropped by the
            // collector's dedup as a "replay" that never arrived. A retry
            // after reconnect reuses the number, so the collector can
            // recognize a replay of a frame that actually arrived before
            // the link broke.
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let sent = if write_frame_seq(&mut *stream, self.rank as u32, wire_tag, seq, on_wire)
                .is_ok()
            {
                Ok(())
            } else if self.reconnect_locked(&mut stream).is_err() {
                Err(MpiError::Disconnected)
            } else {
                write_frame_seq(&mut *stream, self.rank as u32, wire_tag, seq, on_wire)
                    .map_err(|_| MpiError::Disconnected)
            };
            if sent.is_ok() {
                self.uplink.wire.count_out(FRAME_HEADER_LEN + on_wire.len());
                self.maybe_probe(&mut stream);
            }
            sent
        };
        // Reconnect spans are measured under the writer lock but
        // forwarded through it — drain them only now that it is free.
        self.flush_pending_spans();
        if result.is_ok() {
            DeliveryAccount::note_sent(&self.monitor, self.rank, dest, tag, payload.len());
        }
        result
    }

    /// Piggybacks a clock probe on an outgoing send when the last
    /// offset exchange is older than [`CLOCK_SYNC_INTERVAL_S`]. The
    /// probe is written through the inner stream so clock traffic
    /// never consumes a scripted fault ordinal, and skipped while the
    /// link is severed — the rejoin grant re-syncs instead.
    fn maybe_probe(&self, stream: &mut FaultyStream<Socket>) {
        if !self.monitor.is_enabled() || stream.is_severed() {
            return;
        }
        let now_s = self.uplink.local_now();
        if now_s - f64::from_bits(self.last_sync.load(Ordering::Relaxed)) < CLOCK_SYNC_INTERVAL_S {
            return;
        }
        let payload = ClockProbe { t0_s: now_s }.encode();
        let written = write_frame(
            stream.get_mut(),
            self.rank as u32,
            TAG_TCP_CLOCK_PROBE,
            &payload,
        );
        if written.is_ok() {
            self.uplink.wire.count_out(FRAME_HEADER_LEN + payload.len());
            self.last_sync.store(now_s.to_bits(), Ordering::Relaxed);
        }
    }

    /// Drains reconnect spans measured under the writer lock into the
    /// monitor. Never called while the lock is held — the forwarding
    /// sink needs it.
    fn flush_pending_spans(&self) {
        if !self.spans.is_enabled() {
            return;
        }
        let drained: Vec<(f64, f64)> = match self.pending_spans.lock() {
            Ok(mut pending) => pending.drain(..).collect(),
            Err(_) => return,
        };
        for (start_s, end_s) in drained {
            self.spans.closed_at(SpanPhase::Reconnect, start_s, end_s);
        }
    }

    /// The worker's span emitter: live when the grant's span flag was
    /// set on a monitored run, inert otherwise.
    #[must_use]
    pub fn spans(&self) -> SpanEmitter {
        self.spans.clone()
    }
}

impl Drop for TcpWorkerTransport {
    fn drop(&mut self) {
        // Raise the stop flag first so a dead collector cannot make
        // the delayed-send flush spin through a reconnect schedule at
        // teardown; on a live link the flush still delivers — a
        // delayed message is late, never lost. Then hang up, which
        // unblocks our reader and tells the collector we left.
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.gate.flush(true, |d, t, p| self.raw_send(d, t, p));
        self.flush_pending_spans();
        // The uplink's final accounting, forwarded while the socket is
        // still up: frames and bytes both ways, reconnect dials, and
        // any forwarded events the sink had to drop on the floor. Sent
        // best-effort — if the link is already dead the collector's
        // own side of the accounting still tells the story.
        if self.monitor.is_enabled() {
            self.monitor.emit(
                Some(self.rank),
                self.uplink.wire.to_event(0, self.monitor.dropped_events()),
            );
        }
        if let Ok(stream) = self.writer.lock() {
            stream.get_ref().hang_up();
        }
        if let Ok(mut slot) = self.reader.lock() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
        if let Ok(mut stale) = self.stale_readers.lock() {
            for handle in stale.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl Transport for TcpWorkerTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn send_bytes(&self, dest: usize, tag: Tag, payload: Bytes) -> Result<(), MpiError> {
        if dest >= self.size {
            return Err(MpiError::InvalidRank {
                rank: dest,
                size: self.size,
            });
        }
        self.gate
            .send(dest, tag, payload, |d, t, p| self.raw_send(d, t, p))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Envelope>, MpiError> {
        self.mailbox.recv_timeout(timeout)
    }

    fn try_recv(&mut self) -> Option<Envelope> {
        self.mailbox.try_recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_faults::FaultPlan;
    use std::io::Write;
    use std::net::{Shutdown, TcpStream};
    use std::sync::Condvar;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// The next message, which must be from `source` with tag `tag`;
    /// nothing within [`TIMEOUT`] fails the test instead of hanging it.
    fn expect(comm: &mut impl Transport, source: usize, tag: u32) -> Envelope {
        let env = comm.recv_timeout(TIMEOUT).unwrap().unwrap_or_else(|| {
            panic!("nothing from rank {source} with tag {tag} within {TIMEOUT:?}")
        });
        assert_eq!((env.source, env.tag), (source, Tag(tag)), "{env:?}");
        env
    }

    /// The two address families one protocol runs over. The handshake
    /// tests below take the kind as an input: what holds on loopback
    /// TCP must hold on the launcher's Unix-domain socket.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Tcp,
        Unix,
    }

    const KINDS: [Kind; 2] = [Kind::Tcp, Kind::Unix];

    /// A listening collector of the given kind (digest 42) and the
    /// endpoint its workers dial.
    fn world(kind: Kind, size: usize, quotas: Vec<u64>) -> (TcpCollectorTransport, TestEndpoint) {
        world_with(kind, options(size, quotas, None))
    }

    /// A [`world`] listening with `opts`.
    fn world_with(kind: Kind, opts: ListenOptions) -> (TcpCollectorTransport, TestEndpoint) {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let bind = match kind {
            Kind::Tcp => Endpoint::Tcp("127.0.0.1:0".into()),
            Kind::Unix => Endpoint::Unix(std::env::temp_dir().join(format!(
                "parmonc-ipc-test-{}-{}.sock",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ))),
        };
        let collector =
            TcpCollectorTransport::listen_on(&bind, opts).expect("bind the test endpoint");
        let dial = match bind {
            Endpoint::Tcp(_) => Endpoint::Tcp(collector.local_addr().to_string()),
            unix @ Endpoint::Unix(_) => unix,
        };
        (collector, TestEndpoint(dial))
    }

    /// A test's endpoint. A Unix one's socket file goes when the test
    /// does, whether it passes or panics.
    #[derive(Debug)]
    struct TestEndpoint(Endpoint);

    impl std::ops::Deref for TestEndpoint {
        type Target = Endpoint;

        fn deref(&self) -> &Endpoint {
            &self.0
        }
    }

    impl Drop for TestEndpoint {
        fn drop(&mut self) {
            if let Endpoint::Unix(path) = &self.0 {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Shuts a [`world`] down.
    fn close(mut collector: TcpCollectorTransport) {
        collector.shutdown().unwrap();
    }

    fn options(size: usize, quotas: Vec<u64>, resume: Option<LeaseSnapshot>) -> ListenOptions {
        ListenOptions {
            addr: "127.0.0.1:0".into(),
            size,
            monitor: Monitor::disabled(),
            faults: FaultHandle::disabled(),
            config_digest: 42,
            quotas,
            io_timeout: TIMEOUT,
            resume,
            persist: None,
            trace_spans: false,
            parents: Vec::new(),
        }
    }

    fn join_at(
        endpoint: Endpoint,
        digest: u64,
        faults: FaultHandle,
    ) -> io::Result<TcpWorkerTransport> {
        TcpWorkerTransport::join_on(endpoint, join_options(String::new(), digest, faults))
    }

    fn join_options(addr: String, digest: u64, faults: FaultHandle) -> JoinOptions {
        JoinOptions {
            addr,
            config_digest: digest,
            faults,
            io_timeout: TIMEOUT,
            reconnect: ReconnectPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(20),
                attempt_timeout: TIMEOUT,
            },
            clock_skew_s: 0.0,
        }
    }

    fn collector(size: usize, quotas: Vec<u64>) -> TcpCollectorTransport {
        collector_with(size, quotas, None)
    }

    fn collector_with(
        size: usize,
        quotas: Vec<u64>,
        resume: Option<LeaseSnapshot>,
    ) -> TcpCollectorTransport {
        TcpCollectorTransport::listen(options(size, quotas, resume)).expect("listen on loopback")
    }

    fn join(addr: String, digest: u64) -> io::Result<TcpWorkerTransport> {
        TcpWorkerTransport::join(join_options(addr, digest, FaultHandle::disabled()))
    }

    /// Dials a raw join frame and returns the decoded reject.
    fn raw_join_reject(endpoint: &Endpoint, request: &JoinRequest) -> Reject {
        let stream = endpoint.dial(TIMEOUT).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        write_frame(&mut &stream, 0, TAG_TCP_JOIN, &request.encode()).unwrap();
        let reply = read_frame(&mut &stream).unwrap().expect("a reply frame");
        assert_eq!(reply.tag, TAG_TCP_REJECT);
        Reject::decode(&reply.payload).expect("well-formed reject")
    }

    /// Dials a raw join and returns the open stream plus the grant.
    fn raw_join(addr: SocketAddr) -> (TcpStream, Grant) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        write_frame(&mut stream, 0, TAG_TCP_JOIN, &JoinRequest::new(42).encode()).unwrap();
        let reply = read_frame(&mut &stream).unwrap().expect("a reply frame");
        assert_eq!(reply.tag, TAG_TCP_GRANT);
        let grant = Grant::decode(&reply.payload).expect("well-formed grant");
        (stream, grant)
    }

    /// Dials a raw rejoin and returns the raw reply frame.
    fn raw_rejoin(addr: SocketAddr, rejoin: &Rejoin) -> crate::frame::Frame {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        write_frame(&mut stream, 0, TAG_TCP_REJOIN, &rejoin.encode()).unwrap();
        read_frame(&mut &stream).unwrap().expect("a reply frame")
    }

    #[test]
    fn grants_a_lease_and_round_trips_envelopes() {
        for kind in KINDS {
            let (mut collector, endpoint) = world(kind, 2, vec![125]);
            let epoch = collector.epoch();
            let dial = endpoint.clone();
            let worker_side = std::thread::spawn(move || {
                let mut worker = join_at(dial, 42, FaultHandle::disabled()).expect("join succeeds");
                assert_eq!(worker.rank(), 1);
                assert_eq!(worker.size(), 2);
                assert_eq!(worker.granted_quota(), 125);
                assert_eq!(worker.epoch(), epoch);
                worker.send(0, Tag(7), b"subtotal").unwrap();
                let env = expect(&mut worker, 0, 9);
                assert_eq!(&env.payload[..], b"ack");
            });
            let env = expect(&mut collector, 1, 7);
            assert_eq!(env.source, 1, "{kind:?}");
            assert_eq!(&env.payload[..], b"subtotal");
            collector.send(1, Tag(9), b"ack").unwrap();
            worker_side.join().unwrap();
            close(collector);
        }
    }

    /// What keeps a stray local process that finds the launcher's
    /// socket from claiming a rank — the job the spawn token used to
    /// do: without the magic it is turned away, and no lease is spent
    /// on it.
    #[test]
    fn wrong_magic_is_rejected() {
        for kind in KINDS {
            let (collector, endpoint) = world(kind, 2, vec![10]);
            let mut request = JoinRequest::new(42);
            request.magic = 0x0BAD_CAFE;
            let reject = raw_join_reject(&endpoint, &request);
            assert_eq!(reject.code, RejectCode::BadMagic, "{kind:?}");
            assert_eq!(
                collector.ever_leased(),
                0,
                "{kind:?}: a reject costs no lease"
            );
            close(collector);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut collector = collector(2, vec![10]);
        let mut request = JoinRequest::new(42);
        request.version = TCP_PROTOCOL_VERSION + 1;
        let reject = raw_join_reject(&Endpoint::Tcp(collector.local_addr().to_string()), &request);
        assert_eq!(reject.code, RejectCode::VersionMismatch);
        assert!(reject.reason.contains("version"), "{}", reject.reason);
        collector.shutdown().unwrap();
    }

    #[test]
    fn config_digest_mismatch_is_rejected_with_the_reason() {
        for kind in KINDS {
            let (collector, endpoint) = world(kind, 2, vec![10]);
            let err = join_at(endpoint.clone(), 43, FaultHandle::disabled()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{kind:?}");
            assert!(err.to_string().contains("digest"), "{kind:?}: {err}");
            assert_eq!(
                collector.ever_leased(),
                0,
                "{kind:?}: a reject costs no lease"
            );
            close(collector);
        }
    }

    #[test]
    fn exhausted_budget_rejects_the_joiner_cleanly() {
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr();
        // Retiring the only worker rank models "budget already
        // reassigned": the late joiner must be refused, not leased a
        // double-counted stream range.
        collector.retire_rank(1);
        let reject = raw_join_reject(&Endpoint::Tcp(addr.to_string()), &JoinRequest::new(42));
        assert_eq!(reject.code, RejectCode::BudgetExhausted);
        collector.shutdown().unwrap();
    }

    #[test]
    fn dropped_connection_frees_the_rank_for_a_reconnect() {
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr().to_string();
        let first = join(addr.clone(), 42).expect("first join");
        assert_eq!(first.rank(), 1);
        drop(first);
        // The collector notices the hang-up within the read poll and
        // releases the lease; a fresh worker then gets the same rank.
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match join(addr.clone(), 42) {
                Ok(second) => {
                    assert_eq!(second.rank(), 1);
                    break;
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "lease never freed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        collector.shutdown().unwrap();
    }

    #[test]
    fn rejoin_regrants_the_rank_and_dedups_replayed_sequences() {
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr();
        let (mut first, grant) = raw_join(addr);
        assert_eq!(grant.rank, 1);
        write_frame_seq(&mut first, 1, 7, 1, b"one").unwrap();
        write_frame_seq(&mut first, 1, 7, 2, b"two").unwrap();
        assert_eq!(&expect(&mut collector, 1, 7).payload[..], b"one");
        assert_eq!(&expect(&mut collector, 1, 7).payload[..], b"two");
        first.shutdown(Shutdown::Both).unwrap();

        // Rejoin with the granted epoch: same rank comes back, and a
        // replay of seq 2 (which already arrived) is dropped while the
        // fresh seq 3 is delivered — exactly-once across the break.
        let mut second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(TIMEOUT)).unwrap();
        let rejoin = Rejoin::new(42, grant.epoch, 1);
        write_frame(&mut second, 0, TAG_TCP_REJOIN, &rejoin.encode()).unwrap();
        let reply = read_frame(&mut &second).unwrap().expect("a reply frame");
        assert_eq!(reply.tag, TAG_TCP_GRANT);
        let regrant = Grant::decode(&reply.payload).unwrap();
        assert_eq!(regrant.rank, 1);
        assert_eq!(regrant.epoch, grant.epoch);
        write_frame_seq(&mut second, 1, 7, 2, b"two").unwrap();
        write_frame_seq(&mut second, 1, 7, 3, b"three").unwrap();
        let env = expect(&mut collector, 1, 7);
        assert_eq!(
            &env.payload[..],
            b"three",
            "replayed seq 2 must be deduplicated"
        );
        collector.shutdown().unwrap();
    }

    /// A monitor sink that holds the I/O thread re-emitting a forwarded
    /// `realizations` event with `completed: HOLD` until it is opened.
    #[derive(Default)]
    struct HeldSink {
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl HeldSink {
        const HOLD: u64 = 999;

        fn wait_until_holding(&self) {
            let state = self.state.lock().unwrap();
            let (state, timeout) = self
                .changed
                .wait_timeout_while(state, TIMEOUT, |(holding, _)| !*holding)
                .unwrap();
            assert!(
                !timeout.timed_out() && state.0,
                "the I/O thread never reached the sink"
            );
        }

        fn open(&self) {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.1 = true;
            self.changed.notify_all();
        }
    }

    /// Opens its sink when dropped, so that a failed assertion does not
    /// leave the held I/O thread, and the shutdown that joins it,
    /// hanging.
    struct OpenOnDrop(Arc<HeldSink>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.open();
        }
    }

    impl parmonc_obs::EventSink for HeldSink {
        fn record(&self, event: &parmonc_obs::Event) {
            if !matches!(
                event.kind,
                EventKind::Realizations {
                    completed: Self::HOLD,
                    ..
                }
            ) {
                return;
            }
            let mut state = self.state.lock().unwrap();
            state.0 = true;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }
    }

    /// A rank's connections deliver one at a time. The I/O thread is
    /// held inside the monitor while seq 1 and 2 wait unread on the
    /// first connection; the worker rejoins and sends seq 3 on the
    /// second. Delivered first, seq 3 would raise the dedup mark past 1
    /// and 2, which would then be dropped as replays though they never
    /// arrived — how a severed worker lost frames on a loaded host.
    #[test]
    fn a_rejoined_connection_delivers_after_everything_its_predecessor_received() {
        let sink = Arc::new(HeldSink::default());
        let mut opts = options(2, vec![10], None);
        opts.monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
        let mut collector = TcpCollectorTransport::listen(opts).expect("listen on loopback");
        let opener = OpenOnDrop(Arc::clone(&sink));
        let addr = collector.local_addr();
        let (mut first, grant) = raw_join(addr);
        let held = parmonc_obs::Event::at(
            0.0,
            Some(1),
            EventKind::Realizations {
                completed: HeldSink::HOLD,
                compute_seconds: 0.0,
            },
        );
        let line = held.to_json_line();
        write_frame(&mut first, 1, crate::frame::TAG_IPC_EVENT, line.as_bytes()).unwrap();
        sink.wait_until_holding();
        write_frame_seq(&mut first, 1, 7, 1, b"one").unwrap();
        write_frame_seq(&mut first, 1, 7, 2, b"two").unwrap();

        // The held thread answers the rejoin only once it is let go.
        let mut second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(TIMEOUT)).unwrap();
        let rejoin = Rejoin::new(42, grant.epoch, 1);
        write_frame(&mut second, 0, TAG_TCP_REJOIN, &rejoin.encode()).unwrap();
        write_frame_seq(&mut second, 1, 7, 3, b"three").unwrap();
        let early = collector.recv_timeout(Duration::from_millis(200)).unwrap();
        assert!(
            early.is_none(),
            "delivered ahead of its predecessor: {early:?}"
        );

        drop(opener);
        let reply = read_frame(&mut &second).unwrap().expect("a reply frame");
        assert_eq!(reply.tag, TAG_TCP_GRANT);
        for payload in [&b"one"[..], b"two", b"three"] {
            assert_eq!(&expect(&mut collector, 1, 7).payload[..], payload);
        }
        drop((first, second));
        collector.shutdown().unwrap();
    }

    #[test]
    fn fresh_joiner_on_a_dropped_rank_starts_with_clean_dedup_state() {
        // A crash-restarted worker cannot Rejoin (its rank and epoch
        // died with the old process), so it comes back as a *fresh*
        // joiner and its sequence numbers restart at 1. Leasing it the
        // dropped rank must reset the dedup high-water mark, or every
        // frame the new incarnation sends — heartbeats and subtotals
        // alike — would be silently dropped as a replay of the old one.
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr();
        let (mut first, grant) = raw_join(addr);
        assert_eq!(grant.rank, 1);
        write_frame_seq(&mut first, 1, 7, 1, b"one").unwrap();
        write_frame_seq(&mut first, 1, 7, 2, b"two").unwrap();
        for _ in 0..2 {
            expect(&mut collector, 1, 7);
        }
        first.shutdown(Shutdown::Both).unwrap();
        drop(first);

        // Wait for the collector to free the lease, then join fresh.
        let deadline = Instant::now() + TIMEOUT;
        let (mut second, regrant) = loop {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(TIMEOUT)).unwrap();
            write_frame(&mut stream, 0, TAG_TCP_JOIN, &JoinRequest::new(42).encode()).unwrap();
            let reply = read_frame(&mut &stream).unwrap().expect("a reply frame");
            if reply.tag == TAG_TCP_GRANT {
                break (stream, Grant::decode(&reply.payload).unwrap());
            }
            assert!(Instant::now() < deadline, "lease never freed");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(regrant.rank, 1);
        // The new incarnation's seq 1 must be admitted, not swallowed
        // by the old incarnation's high-water mark of 2.
        write_frame_seq(&mut second, 1, 7, 1, b"reborn").unwrap();
        let env = collector
            .recv_timeout(TIMEOUT)
            .unwrap()
            .expect("the fresh incarnation's first frame must be admitted");
        assert_eq!((env.source, env.tag), (1, Tag(7)));
        assert_eq!(&env.payload[..], b"reborn");
        collector.shutdown().unwrap();
    }

    #[test]
    fn a_stalled_dialer_does_not_block_other_joins() {
        // A connection that completes TCP accept but never sends its
        // join frame must not wedge admission for the full handshake
        // read timeout: the I/O thread reads a connection only when
        // `poll` finds input on it, and keeps each one's half-read join
        // in its own buffer, so a healthy joiner (or a rejoining
        // worker) gets through immediately.
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr();
        let stalled = TcpStream::connect(addr).unwrap();
        // Give the I/O thread time to accept the stalled connection first.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let worker = join(addr.to_string(), 42).expect("join succeeds");
        assert!(
            started.elapsed() < TIMEOUT / 2,
            "healthy join was blocked behind the stalled dialer"
        );
        assert_eq!(worker.rank(), 1);
        drop(stalled);
        drop(worker);
        collector.shutdown().unwrap();
    }

    /// One connection's unfinished frame holds nobody else: neither a
    /// dialer halfway through its join frame nor a rank halfway through
    /// a subtotal keeps another rank's frames from being delivered, and
    /// each is taken up again where it stopped.
    #[test]
    fn a_partial_frame_holds_no_other_rank() {
        let mut collector = collector(4, vec![5, 5, 5]);
        let addr = collector.local_addr();
        let mut join = Vec::new();
        write_frame(&mut join, 0, TAG_TCP_JOIN, &JoinRequest::new(42).encode()).unwrap();
        let mut half_join = TcpStream::connect(addr).unwrap();
        half_join.set_read_timeout(Some(TIMEOUT)).unwrap();
        // Cut inside the header.
        half_join.write_all(&join[..10]).unwrap();
        let (mut first, grant) = raw_join(addr);
        assert_eq!(grant.rank, 1);
        let (mut second, grant) = raw_join(addr);
        assert_eq!(grant.rank, 2);

        // Rank 1 sends a header and half of a payload several reads
        // long.
        let payload: Vec<u8> = (0..40_000u32).map(|i| i as u8).collect();
        let mut subtotal = Vec::new();
        write_frame_seq(&mut subtotal, 1, 7, 1, &payload).unwrap();
        let cut = FRAME_HEADER_LEN + payload.len() / 2;
        first.write_all(&subtotal[..cut]).unwrap();
        for seq in 1..=3u8 {
            write_frame_seq(&mut second, 2, 7, u64::from(seq), &[seq]).unwrap();
        }
        for seq in 1..=3u8 {
            assert_eq!(&expect(&mut collector, 2, 7).payload[..], &[seq]);
        }
        first.write_all(&subtotal[cut..]).unwrap();
        assert_eq!(expect(&mut collector, 1, 7).payload[..], payload[..]);

        half_join.write_all(&join[10..]).unwrap();
        let reply = read_frame(&mut &half_join).unwrap().expect("a reply frame");
        assert_eq!(reply.tag, TAG_TCP_GRANT);
        assert_eq!(Grant::decode(&reply.payload).unwrap().rank, 3);
        collector.shutdown().unwrap();
    }

    /// The names of this process's threads that start with
    /// `parmonc-tcp-`, less a worker's readers (`parmonc-tcp-r{rank}`).
    #[cfg(target_os = "linux")]
    fn collector_threads() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("parmonc-tcp-") && !name.starts_with("parmonc-tcp-r"))
            .collect()
    }

    /// However many workers have joined, the collector's side of the
    /// world is one thread. Other tests' collectors share this process,
    /// so the test re-runs itself alone in a process of its own.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_collector_runs_on_one_thread_whatever_joins() {
        const NAME: &str = "tcp::tests::the_collector_runs_on_one_thread_whatever_joins";
        if !std::env::args().any(|arg| arg == "--test-threads=1") {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args([NAME, "--exact", "--test-threads=1"])
                .output()
                .expect("run the test alone");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let mut collector = collector(9, vec![10; 8]);
        let addr = collector.local_addr().to_string();
        let mut workers = Vec::new();
        for joined in [0, 1, 8] {
            while workers.len() < joined {
                let worker = join(addr.clone(), 42).expect("join succeeds");
                // Once a frame of the rank is delivered, its link is
                // being read.
                worker.send(0, Tag(7), b"here").unwrap();
                expect(&mut collector, worker.rank(), 7);
                workers.push(worker);
            }
            // A thread names itself once it runs: a refused join, which
            // costs no lease, is answered by a running collector.
            let refused = raw_join_reject(&Endpoint::Tcp(addr.clone()), &JoinRequest::new(43));
            assert_eq!(refused.code, RejectCode::ConfigMismatch);
            let threads = collector_threads();
            assert_eq!(threads.len(), 1, "{joined} joined: {threads:?}");
        }
        drop(workers);
        collector.shutdown().unwrap();
    }

    /// Runs `body` on its own thread and fails if it has not returned
    /// within `limit`, so that a shutdown which never wakes its I/O
    /// thread fails the test instead of hanging the suite.
    fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
        let handle = std::thread::spawn(body);
        let deadline = Instant::now() + limit;
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "still running after {limit:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
        handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    #[test]
    fn shutdown_wakes_an_acceptor_nobody_dialed() {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let mut binds = vec![
            Endpoint::Tcp("127.0.0.1:0".into()),
            Endpoint::Tcp("0.0.0.0:0".into()),
            Endpoint::Unix(std::env::temp_dir().join(format!(
                "parmonc-ipc-wake-{}-{}.sock",
                std::process::id(),
                NONCE.fetch_add(1, Ordering::Relaxed)
            ))),
        ];
        if std::net::TcpListener::bind("[::1]:0").is_ok() {
            binds.push(Endpoint::Tcp("[::]:0".into()));
        }
        let binds: Vec<TestEndpoint> = binds.into_iter().map(TestEndpoint).collect();
        for bind in binds {
            let mut collector = TcpCollectorTransport::listen_on(&bind, options(2, vec![10], None))
                .expect("bind the test endpoint");
            let wake = collector.wake.clone();
            if let (Endpoint::Tcp(bound), Endpoint::Tcp(dialed)) = (&*bind, &wake) {
                let dialed: SocketAddr = dialed.parse().unwrap();
                assert!(dialed.ip().is_loopback(), "{bound} wakes through {dialed}");
            }
            let collector = within(Duration::from_secs(20), move || {
                collector.shutdown().unwrap();
                collector
            });
            // Joined, not skipped: the acceptor has exited and closed
            // the listener it owned, so nothing answers a dial now.
            assert!(
                wake.dial(TIMEOUT).is_err(),
                "{bind:?}: the acceptor outlived shutdown"
            );
            close(collector);
        }
    }

    #[test]
    fn a_silent_dialer_does_not_hold_shutdown_past_the_handshake_timeout() {
        let io_timeout = Duration::from_millis(300);
        for kind in KINDS {
            let mut opts = options(2, vec![10], None);
            opts.io_timeout = io_timeout;
            let (mut collector, endpoint) = world_with(kind, opts);
            let silent = endpoint.dial(TIMEOUT).unwrap();
            // Wait until the dial is accepted, so shutdown finds its
            // handshake open: dials are accepted in the order they
            // arrive, so once a join dialed after it holds its grant,
            // the silent one has been taken.
            let behind = join_at(endpoint.clone(), 42, FaultHandle::disabled());
            assert!(
                behind.is_ok(),
                "{kind:?}: the dial was never accepted: {behind:?}"
            );
            let started = Instant::now();
            let collector = within(Duration::from_secs(20), move || {
                collector.shutdown().unwrap();
                collector
            });
            assert!(
                started.elapsed() < io_timeout + Duration::from_secs(2),
                "{kind:?}: shutdown took {:?}",
                started.elapsed()
            );
            drop((silent, behind));
            close(collector);
        }
    }

    /// Shutdown wakes a launched world's acceptor through the socket in
    /// its private directory; it must still reap the child and remove
    /// that directory afterwards. Re-executed as the child, this test
    /// joins as the one worker and returns.
    #[test]
    fn a_launched_world_reaps_and_removes_its_socket_directory() {
        const NAME: &str = "tcp::tests::a_launched_world_reaps_and_removes_its_socket_directory";
        if let Some(info) = crate::worker_env() {
            let socket = info.socket.display().to_string();
            let worker =
                TcpWorkerTransport::join_unix(join_options(socket, 42, FaultHandle::disabled()))
                    .expect("the child joins its parent's world");
            assert_eq!(worker.rank(), 1);
            return;
        }
        let args = vec![NAME.to_string(), "--exact".to_string()];
        let mut world =
            crate::launch(options(2, vec![10], None), Some(args)).expect("launch one worker");
        let Endpoint::Unix(socket) = world.wake.clone() else {
            panic!("a launched world listens on a Unix socket");
        };
        let dir = socket
            .parent()
            .expect("the socket's directory")
            .to_path_buf();
        assert!(dir.is_dir());
        let world = within(Duration::from_secs(60), move || {
            world.shutdown().unwrap();
            world
        });
        assert!(world.launched.is_none(), "the child was not reaped");
        assert!(!dir.exists(), "{dir:?} outlived shutdown");
    }

    #[test]
    fn rejoin_with_the_wrong_epoch_is_rejected() {
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr();
        let (_stream, grant) = raw_join(addr);
        let reply = raw_rejoin(addr, &Rejoin::new(42, grant.epoch.wrapping_add(1), 1));
        assert_eq!(reply.tag, TAG_TCP_REJECT);
        let reject = Reject::decode(&reply.payload).unwrap();
        assert_eq!(reject.code, RejectCode::EpochMismatch);
        assert!(reject.reason.contains("epoch"), "{}", reject.reason);
        collector.shutdown().unwrap();
    }

    #[test]
    fn rejoin_of_a_never_leased_rank_is_rejected() {
        let mut collector = collector(3, vec![5, 5]);
        let addr = collector.local_addr();
        let reply = raw_rejoin(addr, &Rejoin::new(42, collector.epoch(), 2));
        assert_eq!(reply.tag, TAG_TCP_REJECT);
        let reject = Reject::decode(&reply.payload).unwrap();
        assert_eq!(reject.code, RejectCode::BudgetExhausted);
        assert!(reject.reason.contains("never leased"), "{}", reject.reason);
        collector.shutdown().unwrap();
    }

    #[test]
    fn lease_snapshot_round_trips_and_resume_preserves_the_session() {
        let mut first = collector(3, vec![5, 5]);
        let addr = first.local_addr();
        let (_stream, grant) = raw_join(addr);
        assert_eq!(grant.rank, 1);
        let snapshot = first.snapshot();
        assert_eq!(snapshot.epoch, first.epoch());
        assert_eq!(snapshot.ever_leased, vec![true, false]);
        assert_eq!(
            LeaseSnapshot::decode(&snapshot.encode()),
            Some(snapshot.clone())
        );
        first.shutdown().unwrap();

        // A restarted collector armed with the snapshot announces the
        // same epoch and lets the leased rank rejoin — while a fresh
        // join is dealt the still-untouched rank 2, not rank 1.
        let mut second = collector_with(3, vec![5, 5], Some(snapshot));
        assert_eq!(second.epoch(), grant.epoch);
        let addr2 = second.local_addr();
        let reply = raw_rejoin(addr2, &Rejoin::new(42, grant.epoch, 1));
        assert_eq!(reply.tag, TAG_TCP_GRANT);
        assert_eq!(Grant::decode(&reply.payload).unwrap().rank, 1);
        let (_join2, grant2) = raw_join(addr2);
        assert_eq!(grant2.rank, 2, "fresh joiners get untouched ranks");
        second.shutdown().unwrap();
    }

    #[test]
    fn lease_table_is_persisted_before_each_grant() {
        let dir =
            std::env::temp_dir().join(format!("parmonc-lease-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leases.dat");
        let writer = AtomicWriter::default();
        let mut collector = TcpCollectorTransport::listen(ListenOptions {
            addr: "127.0.0.1:0".into(),
            size: 3,
            monitor: Monitor::disabled(),
            faults: FaultHandle::disabled(),
            config_digest: 42,
            quotas: vec![5, 5],
            io_timeout: TIMEOUT,
            resume: None,
            persist: Some((path.clone(), writer.clone())),
            trace_spans: false,
            parents: Vec::new(),
        })
        .expect("listen on loopback");
        // The session epoch hits disk at bind time, before any join.
        let snapshot =
            LeaseSnapshot::decode(&std::fs::read_to_string(&path).unwrap()).expect("valid table");
        assert_eq!(snapshot.epoch, collector.epoch());
        assert_eq!(snapshot.ever_leased, vec![false, false]);
        // Each persist is one durable commit: the temp's fsync and the
        // directory's.
        assert_eq!(writer.fsyncs(), 2);
        // By the time a worker holds its grant, the lease is durable:
        // persist happens strictly before the grant frame is written.
        let (_stream, grant) = raw_join(collector.local_addr());
        let snapshot = LeaseSnapshot::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(snapshot.ever_leased[grant.rank as usize - 1]);
        assert_eq!(writer.fsyncs(), 4);
        // Retirement (budget reassignment) is persisted too.
        collector.retire_rank(2);
        let snapshot = LeaseSnapshot::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(snapshot.retired, vec![false, true]);
        assert_eq!(writer.fsyncs(), 6);
        collector.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_lease_table_write_leaves_no_temp_file() {
        // A directory at the table's path makes the rename fail
        // (EISDIR) after the temp file was written and synced.
        let dir =
            std::env::temp_dir().join(format!("parmonc-lease-tmp-leak-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("leases.dat");
        std::fs::create_dir_all(&path).unwrap();
        let snapshot = LeaseSnapshot {
            epoch: 7,
            size: 3,
            ever_leased: vec![true, false],
            retired: vec![false, false],
            last_seqs: vec![1, 0],
        };
        persist_lease_table(&(path.clone(), AtomicWriter::default()), &snapshot);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(path.is_dir(), "the failed write must not replace the path");
        assert_eq!(names, ["leases.dat"], "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lease_snapshots_fail_to_decode() {
        let good = LeaseSnapshot {
            epoch: 7,
            size: 3,
            ever_leased: vec![true, false],
            retired: vec![false, true],
            last_seqs: vec![12, 0],
        };
        let text = good.encode();
        assert_eq!(LeaseSnapshot::decode(&text), Some(good));
        assert_eq!(LeaseSnapshot::decode(""), None);
        assert_eq!(LeaseSnapshot::decode("parmonc-leases v1\n"), None);
        let truncated = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert_eq!(LeaseSnapshot::decode(&truncated), None);
        let padded = format!("{text}extra\n");
        assert_eq!(LeaseSnapshot::decode(&padded), None);
    }

    /// `parents` survives only as a field of the struct literal: every
    /// worker reports to rank 0, so a listen that names any other
    /// parent is refused before it binds, and a worker's send to
    /// another worker is refused too.
    #[test]
    fn only_star_parents_are_accepted() {
        let options = |parents: Vec<usize>| ListenOptions {
            addr: "127.0.0.1:0".into(),
            size: 3,
            monitor: Monitor::disabled(),
            faults: FaultHandle::disabled(),
            config_digest: 42,
            quotas: vec![5, 5],
            io_timeout: TIMEOUT,
            resume: None,
            persist: None,
            trace_spans: false,
            parents,
        };
        let err = TcpCollectorTransport::listen(options(vec![0, 1]))
            .expect_err("a tree of parents is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut collector =
            TcpCollectorTransport::listen(options(vec![0, 0])).expect("zeros are the star");
        let addr = collector.local_addr().to_string();
        let _first = join(addr.clone(), 42).expect("rank 1 joins");
        let second = join(addr, 42).expect("rank 2 joins");
        assert!(matches!(
            second.send(1, Tag(7), b"sideways"),
            Err(MpiError::InvalidRank { rank: 1, size: 3 })
        ));
        collector.shutdown().unwrap();
    }

    #[test]
    fn worker_transport_survives_a_scripted_severance() {
        // The fault plane severs rank 1's link once it has done 2
        // realizations (this test is the simulation loop that says
        // so); the worker transport must reconnect on its own and
        // every envelope must arrive exactly once.
        for kind in KINDS {
            let (mut collector, endpoint) = world(kind, 2, vec![10]);
            let dial = endpoint.clone();
            let faults = FaultPlan::new(9).sever_connection(1, 2).build();
            let worker_side = std::thread::spawn(move || {
                let worker = join_at(dial, 42, faults.clone()).expect("join succeeds");
                for i in 0..5u8 {
                    faults.note_progress(1, u64::from(i));
                    worker
                        .send(0, Tag(7), &[i])
                        .expect("send survives the severance");
                }
            });
            let mut got = Vec::new();
            for _ in 0..5 {
                let env = expect(&mut collector, 1, 7);
                got.push(env.payload[0]);
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4], "{kind:?}");
            worker_side.join().unwrap();
            close(collector);
        }
    }

    #[test]
    fn scripted_partition_blocks_reconnects_until_it_lifts() {
        // Sever once 1 realization is done, then veto the first 2
        // reconnect attempts: the worker still gets through on the
        // third.
        let mut collector = collector(2, vec![10]);
        let addr = collector.local_addr().to_string();
        let faults = FaultPlan::new(9).partition(&[1], 1, 2).build();
        let progress = faults.clone();
        let worker_side = std::thread::spawn(move || {
            let worker = TcpWorkerTransport::join(JoinOptions {
                addr,
                config_digest: 42,
                faults,
                io_timeout: TIMEOUT,
                reconnect: ReconnectPolicy {
                    attempts: 6,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(8),
                    attempt_timeout: TIMEOUT,
                },
                clock_skew_s: 0.0,
            })
            .expect("join succeeds");
            worker.send(0, Tag(7), b"before").unwrap();
            progress.note_progress(1, 1);
            worker
                .send(0, Tag(7), b"after")
                .expect("send rides out the partition");
        });
        assert_eq!(&expect(&mut collector, 1, 7).payload[..], b"before");
        assert_eq!(&expect(&mut collector, 1, 7).payload[..], b"after");
        worker_side.join().unwrap();
        collector.shutdown().unwrap();
    }
}
