//! Run configuration: the arguments of `parmoncc`/`parmoncf`
//! (paper Section 3.2) plus the knobs this reproduction adds.

use std::path::{Path, PathBuf};
use std::time::Duration;

use parmonc_faults::FaultPlan;
use parmonc_ipc::ReconnectPolicy;
use parmonc_rng::LeapConfig;

use crate::error::ParmoncError;

/// The resumption flag `res` of `parmoncc`/`parmoncf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resume {
    /// `res = 0`: a new simulation; brand-new result files are created.
    #[default]
    New,
    /// `res = 1`: resume the previous simulation; its results are loaded
    /// from the files and averaged in by formula (5). Requires a fresh
    /// `seqnum`.
    Resume,
}

/// Which substrate carries rank traffic.
///
/// All backends implement the same [`parmonc_mpi::Transport`] trait
/// and run the identical collector/worker code, so for a fixed
/// configuration and seed the estimates are bit-identical across
/// backends — only the isolation (and its costs) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Ranks are OS threads in this process exchanging envelopes over
    /// channels (`parmonc-mpi`). The default: fastest, and the whole
    /// world shares one address space.
    #[default]
    Threads,
    /// Ranks are separate *processes*: rank 0 launches the current
    /// binary once per worker, and each child joins over a private
    /// Unix-domain socket with the same lease handshake a TCP worker
    /// uses (`parmonc-ipc`) — the paper's actual deployment shape, one
    /// address space per rank.
    ///
    /// The re-execution runs the user program's `main` again in every
    /// worker up to the `run()` call, where the runtime diverts into
    /// the worker loop; guard side effects before that call with
    /// [`crate::ipc::is_worker`].
    Processes,
    /// Ranks are remote *hosts*: rank 0 listens on a TCP address
    /// ([`NetOptions::listen`]) and workers started independently
    /// — typically on other machines — dial in with
    /// [`ParmoncBuilder::run_worker`], complete a versioned handshake
    /// (see `docs/wire-protocol.md`), and lease an untouched leapfrog
    /// stream range. Membership is elastic: workers may join mid-run,
    /// and because every rank's streams are fixed by `(seqnum, rank)`,
    /// the estimates stay bit-identical to a fixed-membership run.
    Tcp,
}

/// When workers ship subtotals to rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exchange {
    /// Offer a subtotal after every completed realization — the
    /// "strictest conditions" of the paper's performance test
    /// (Section 4). An offer ships unless exchange would then cost the
    /// rank more than an eighth of its time: after one ships, the next
    /// is due `min(8 × cost, heartbeat_period)` later, where `cost` is
    /// what the runtime spent on that exchange (encode, send, any time
    /// blocked in a socket write), measured from the clock reads the
    /// loop already takes. With a realization time above `8 × cost` —
    /// the paper's 7.7 s, or anything above a few tens of microseconds
    /// on threads — exactly one subtotal per realization ships; below
    /// it the ones in between are superseded unsent, which the
    /// collector's replace-then-sum (formula (5)) cannot tell from
    /// having merged them. The final subtotal always ships, so final
    /// estimates do not depend on any of this. A routine shorter than
    /// 4 µs is timed in blocks of up to 1 024 calls, and the offer is
    /// made once per block; at 4 µs and above a block is one call. An
    /// enabled [`FaultPlan`] changes none of this: a faulted run is
    /// timed in blocks and governed like any other.
    EveryRealization,
    /// Ship when `perpass` has elapsed since the last send (the normal
    /// production mode, Section 3.2).
    #[default]
    Periodic,
}

/// Validated run configuration. Build one with [`crate::Parmonc::builder`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Realization matrix rows (`nrow`).
    pub nrow: usize,
    /// Realization matrix columns (`ncol`).
    pub ncol: usize,
    /// Maximal total sample volume (`maxsv`).
    pub max_sample_volume: u64,
    /// Resumption flag (`res`).
    pub resume: Resume,
    /// The "experiments" subsequence number (`seqnum`).
    pub seqnum: u64,
    /// Number of processors `M` (ranks; rank 0 both simulates and
    /// collects, as in the paper's performance test).
    pub processors: usize,
    /// Period of data passing from workers (`perpass`). Ignored when
    /// `exchange` is [`Exchange::EveryRealization`].
    pub pass_period: Duration,
    /// Period of averaging/saving on rank 0 (`peraver`).
    pub averaging_period: Duration,
    /// Exchange mode.
    pub exchange: Exchange,
    /// Wall-clock budget, emulating the cluster job time limit; `None`
    /// means run until `max_sample_volume`.
    pub deadline: Option<Duration>,
    /// Stop early once `eps_max` (the largest absolute stochastic
    /// error over the matrix) falls to or below this target — the
    /// error control that Section 2.2 motivates periodic averaging
    /// with. `None` disables error-targeted stopping. Checked on
    /// rank 0 at every averaging point; workers are told to stop via a
    /// broadcast and still send their final subtotals.
    pub target_abs_error: Option<f64>,
    /// Root of the output tree; `parmonc_data/` is created inside.
    pub output_dir: PathBuf,
    /// Leap configuration (`genparam` override or default).
    pub leaps: LeapConfig,
    /// Whether `leaps` was set explicitly through the builder; when
    /// `false`, [`ParmoncBuilder::build`] consults
    /// `parmonc_genparam.dat` in the output directory, as the paper's
    /// routines do (Section 3.5).
    pub leaps_explicit: bool,
    /// Whether the run-monitor observability layer is on. A monitored
    /// run writes `parmonc_data/monitor/run_metrics.jsonl` (one JSON
    /// event per line; schema in `docs/observability.md`) and attaches
    /// a [`parmonc_obs::MonitorSummary`] to the report. Off by default;
    /// monitoring never changes the estimates.
    pub monitor: bool,
    /// Deterministic fault plan for chaos testing. Empty (the default)
    /// compiles to a zero-cost no-op handle; see `parmonc-faults` and
    /// `docs/fault-tolerance.md`.
    pub faults: FaultPlan,
    /// How often a worker sends a liveness heartbeat when it has not
    /// otherwise contacted the collector (checked between
    /// realizations).
    pub heartbeat_period: Duration,
    /// How long the collector waits without hearing from a worker
    /// before declaring it dead and reassigning its remaining budget.
    /// Must comfortably exceed both `heartbeat_period` and the longest
    /// single realization, or slow workers are declared dead falsely.
    pub liveness_timeout: Duration,
    /// If `true`, a detected worker loss aborts the run with
    /// [`ParmoncError::WorkerLost`] instead of degrading gracefully.
    pub fail_on_worker_loss: bool,
    /// Which substrate carries rank traffic (threads in-process,
    /// forked worker processes over Unix-domain sockets, or remote
    /// workers over TCP).
    pub transport: Transport,
    /// TCP backend, collector side: the address rank 0 listens on
    /// (e.g. `"0.0.0.0:7070"`; port 0 picks an ephemeral port, written
    /// to `parmonc_data/collector.addr`). Required when `transport` is
    /// [`Transport::Tcp`] and [`ParmoncBuilder::run`] is called.
    pub listen_addr: Option<String>,
    /// TCP backend, worker side: the collector address a
    /// [`ParmoncBuilder::run_worker`] call dials (e.g.
    /// `"collector.example:7070"`). Ignored by [`ParmoncBuilder::run`].
    pub join_addr: Option<String>,
    /// TCP backend: per-connection I/O timeout. Writes that stall this
    /// long fail the connection; the worker is then caught by the
    /// liveness plane. Reads are bounded by the liveness timeout
    /// instead (see `docs/wire-protocol.md`).
    pub tcp_io_timeout: Duration,
    /// TCP backend, worker side: the seeded backoff schedule for the
    /// initial dial and every automatic reconnect after a broken
    /// connection. Deterministic — jitter is drawn from a hash of
    /// `(rank, attempt)`, never the wall clock — so a scripted network
    /// fault replays the same recovery bit-identically. Tune with the
    /// `reconnect_*` setters of [`NetOptions`]; see `docs/cluster.md`.
    pub reconnect: ReconnectPolicy,
    /// TCP backend, collector side: `true` resumes a *crashed*
    /// collector session instead of starting a fresh one — the lease
    /// table and session epoch are reloaded from
    /// `parmonc_data/results/leases.dat`, rejoining workers keep their
    /// ranks and sequence dedup state, and accumulation restarts from
    /// the original baseline (the cumulative-subtotal discipline makes
    /// re-sent subtotals idempotent). Set via
    /// [`NetOptions::resume_listen`].
    pub resume_collector: bool,
    /// Arguments the process backend passes to the re-executed worker
    /// binary (excluding the program name; the hidden worker flag is
    /// appended automatically). `None` — the default — inherits this
    /// process's own arguments, which is right for CLI binaries; test
    /// harnesses set this to the filter that reaches the spawning test
    /// function. Ignored by the thread backend.
    pub worker_args: Option<Vec<String>>,
    /// Whether the run emits causal *spans* (`span_started`/
    /// `span_ended` events bracketing the implicit phases — stream
    /// positioning, realization batches, subtotal sends, collector
    /// merges, checkpoints, reconnects) into the monitor stream, for
    /// `parmonc-trace timeline` / `critical-path`. Requires
    /// [`RunConfig::monitor`]; off by default. Purely observational —
    /// spans never change the estimates — and deliberately *excluded*
    /// from [`RunConfig::wire_digest`], so a collector with spans on
    /// accepts workers that were built without the flag (they are told
    /// through the handshake grant instead).
    pub trace_spans: bool,
    /// TCP backend, worker side: a deterministic offset (seconds) added
    /// to every local monitor timestamp *before* it leaves the worker —
    /// a test-only knob that emulates an unsynchronized host clock so
    /// the collector's clock-alignment plane can be exercised
    /// deterministically. The offset skews only the observability
    /// timestamps; seeds, payload math, and control flow are untouched,
    /// so estimates stay bit-identical. Excluded from
    /// [`RunConfig::wire_digest`]. Default `0.0`.
    pub clock_skew_s: f64,
}

impl RunConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Config`] for zero dimensions, zero
    /// volume, zero processors, a processor count exceeding the leap
    /// capacity, or a seqnum exceeding the experiment capacity.
    pub fn validate(&self) -> Result<(), ParmoncError> {
        if self.nrow == 0 || self.ncol == 0 {
            return Err(ParmoncError::Config(format!(
                "matrix dimensions must be positive, got {}x{}",
                self.nrow, self.ncol
            )));
        }
        if self.max_sample_volume == 0 {
            return Err(ParmoncError::Config(
                "max_sample_volume must be positive".into(),
            ));
        }
        if self.processors == 0 {
            return Err(ParmoncError::Config("processors must be at least 1".into()));
        }
        if self.processors as u64 > self.leaps.processors() {
            return Err(ParmoncError::Config(format!(
                "{} processors exceed the leap capacity of {} per experiment",
                self.processors,
                self.leaps.processors()
            )));
        }
        if let Some(target) = self.target_abs_error {
            if target <= 0.0 || target.is_nan() {
                return Err(ParmoncError::Config(format!(
                    "target_abs_error must be positive, got {target}"
                )));
            }
        }
        if self.liveness_timeout <= self.heartbeat_period {
            return Err(ParmoncError::Config(format!(
                "liveness_timeout ({:?}) must exceed heartbeat_period ({:?}) or live workers are declared dead",
                self.liveness_timeout, self.heartbeat_period
            )));
        }
        if self.seqnum >= self.leaps.experiments() {
            return Err(ParmoncError::Config(format!(
                "seqnum {} exceeds the experiment capacity {}",
                self.seqnum,
                self.leaps.experiments()
            )));
        }
        if self.transport == Transport::Tcp && self.processors < 2 {
            return Err(ParmoncError::Config(
                "the TCP transport needs processors >= 2: rank 0 collects locally and every \
                 other rank is a lease for a remote worker"
                    .into(),
            ));
        }
        if self.transport != Transport::Tcp && self.listen_addr.is_some() {
            return Err(ParmoncError::Config(
                "listen_addr is only meaningful with the TCP transport".into(),
            ));
        }
        if self.resume_collector && self.transport != Transport::Tcp {
            return Err(ParmoncError::Config(
                "resume_listen is only meaningful with the TCP transport".into(),
            ));
        }
        if self.trace_spans && !self.monitor {
            return Err(ParmoncError::Config(
                "trace_spans requires the monitor: spans are monitor events, so call \
                 .monitor() as well"
                    .into(),
            ));
        }
        if !self.clock_skew_s.is_finite() {
            return Err(ParmoncError::Config(format!(
                "clock_skew_s must be finite, got {}",
                self.clock_skew_s
            )));
        }
        if self.reconnect.attempts == 0 {
            return Err(ParmoncError::Config(
                "reconnect_attempts must be at least 1 (the initial dial counts as an attempt)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Per-worker realization quota: worker `m` of `M` simulates
    /// `maxsv / M` realizations plus one of the first `maxsv % M`
    /// remainders — so the quotas sum exactly to `maxsv`.
    #[must_use]
    pub fn quota(&self, worker: usize) -> u64 {
        let m = self.processors as u64;
        let base = self.max_sample_volume / m;
        let extra = u64::from((worker as u64) < self.max_sample_volume % m);
        base + extra
    }

    /// Digest of every configuration field that determines the wire
    /// conversation and the estimate: the TCP handshake exchanges it so
    /// a worker started with a mismatched configuration (different
    /// matrix shape, volume, seed, world size, exchange mode, or leap
    /// parameters) is rejected instead of silently corrupting the
    /// stream bookkeeping. FNV-1a over the little-endian field bytes;
    /// see `docs/wire-protocol.md` for the exact layout.
    #[must_use]
    pub fn wire_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.nrow as u64).to_le_bytes());
        eat(&(self.ncol as u64).to_le_bytes());
        eat(&self.max_sample_volume.to_le_bytes());
        eat(&self.seqnum.to_le_bytes());
        eat(&(self.processors as u64).to_le_bytes());
        eat(&[match self.exchange {
            Exchange::EveryRealization => 0,
            Exchange::Periodic => 1,
        }]);
        eat(&self.leaps.ne().to_le_bytes());
        eat(&self.leaps.np().to_le_bytes());
        eat(&self.leaps.nr().to_le_bytes());
        h
    }
}

/// The TCP networking surface in one struct: address, role, timeouts,
/// and the reconnect schedule. Built with one of the role constructors
/// ([`NetOptions::listen`], [`NetOptions::join`],
/// [`NetOptions::resume_listen`]), refined with the chained setters,
/// and applied with [`ParmoncBuilder::net`] — which also selects
/// [`Transport::Tcp`].
///
/// ```
/// use std::time::Duration;
/// use parmonc::prelude::*;
/// use parmonc::NetOptions;
///
/// let cfg = Parmonc::builder(10, 2)
///     .max_sample_volume(1000)
///     .processors(4)
///     .net(
///         NetOptions::listen("127.0.0.1:0")
///             .io_timeout(Duration::from_secs(5))
///             .reconnect_attempts(20),
///     )
///     .build()
///     .unwrap();
/// assert_eq!(cfg.transport, Transport::Tcp);
/// assert_eq!(cfg.reconnect.attempts, 20);
/// ```
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Collector side: the address rank 0 listens on, e.g.
    /// `"0.0.0.0:7070"` (port 0 picks an ephemeral port, published in
    /// `parmonc_data/collector.addr`).
    pub listen_addr: Option<String>,
    /// Worker side: the collector address
    /// [`ParmoncBuilder::run_worker`] dials.
    pub join_addr: Option<String>,
    /// Collector side: resume a crashed collector session (lease table
    /// and epoch reloaded from `parmonc_data/results/leases.dat`).
    pub resume_collector: bool,
    /// Per-connection I/O timeout (default 10 s).
    pub io_timeout: Duration,
    /// The seeded backoff schedule for dials and reconnects.
    pub reconnect: ReconnectPolicy,
}

impl Default for NetOptions {
    fn default() -> Self {
        Self {
            listen_addr: None,
            join_addr: None,
            resume_collector: false,
            io_timeout: Duration::from_secs(10),
            reconnect: ReconnectPolicy::default(),
        }
    }
}

impl NetOptions {
    /// Collector role: listen on `addr` for dialing workers.
    #[must_use]
    pub fn listen(addr: impl Into<String>) -> Self {
        Self {
            listen_addr: Some(addr.into()),
            ..Self::default()
        }
    }

    /// Worker role: dial the collector at `addr` (consumed by
    /// [`ParmoncBuilder::run_worker`]).
    #[must_use]
    pub fn join(addr: impl Into<String>) -> Self {
        Self {
            join_addr: Some(addr.into()),
            ..Self::default()
        }
    }

    /// Collector role: resume a crashed collector session on `addr`
    /// (see [`RunConfig::resume_collector`] for the semantics).
    #[must_use]
    pub fn resume_listen(addr: impl Into<String>) -> Self {
        Self {
            listen_addr: Some(addr.into()),
            resume_collector: true,
            ..Self::default()
        }
    }

    /// Sets the per-connection I/O timeout. Writes that stall this
    /// long fail the connection and hand the worker to the liveness
    /// plane.
    #[must_use]
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Replaces the whole reconnect schedule at once.
    #[must_use]
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    /// Sets the maximum dial attempts per (re)connection (default 10;
    /// must be at least 1 — the initial dial counts).
    #[must_use]
    pub fn reconnect_attempts(mut self, attempts: u32) -> Self {
        self.reconnect.attempts = attempts;
        self
    }

    /// Sets the delay before the second dial attempt (default 25 ms);
    /// it doubles per attempt up to the ceiling.
    #[must_use]
    pub fn reconnect_base_delay(mut self, delay: Duration) -> Self {
        self.reconnect.base_delay = delay;
        self
    }

    /// Sets the ceiling on the (pre-jitter) reconnect delay (default
    /// 1 s).
    #[must_use]
    pub fn reconnect_max_delay(mut self, delay: Duration) -> Self {
        self.reconnect.max_delay = delay;
        self
    }

    /// Sets the timeout for each individual dial attempt (default
    /// 2 s).
    #[must_use]
    pub fn reconnect_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.reconnect.attempt_timeout = timeout;
        self
    }
}

/// Builder for a PARMONC run (C-BUILDER): configure, then
/// [`ParmoncBuilder::run`].
#[derive(Debug, Clone)]
pub struct ParmoncBuilder {
    config: RunConfig,
}

impl ParmoncBuilder {
    pub(crate) fn new(nrow: usize, ncol: usize) -> Self {
        Self {
            config: RunConfig {
                nrow,
                ncol,
                max_sample_volume: 1,
                resume: Resume::New,
                seqnum: 0,
                processors: 1,
                pass_period: Duration::from_secs(600),
                averaging_period: Duration::from_secs(1200),
                exchange: Exchange::Periodic,
                deadline: None,
                target_abs_error: None,
                output_dir: PathBuf::from("."),
                leaps: LeapConfig::default(),
                leaps_explicit: false,
                monitor: false,
                faults: FaultPlan::none(),
                heartbeat_period: Duration::from_millis(250),
                liveness_timeout: Duration::from_secs(30),
                fail_on_worker_loss: false,
                transport: Transport::Threads,
                listen_addr: None,
                join_addr: None,
                tcp_io_timeout: Duration::from_secs(10),
                reconnect: ReconnectPolicy::default(),
                resume_collector: false,
                worker_args: None,
                trace_spans: false,
                clock_skew_s: 0.0,
            },
        }
    }

    /// Sets `maxsv`, the maximal total sample volume.
    #[must_use]
    pub fn max_sample_volume(mut self, maxsv: u64) -> Self {
        self.config.max_sample_volume = maxsv;
        self
    }

    /// Sets the resumption flag `res`.
    #[must_use]
    pub fn resume(mut self, resume: Resume) -> Self {
        self.config.resume = resume;
        self
    }

    /// Sets `seqnum`, the "experiments" subsequence number.
    #[must_use]
    pub fn seqnum(mut self, seqnum: u64) -> Self {
        self.config.seqnum = seqnum;
        self
    }

    /// Sets the number of processors `M`.
    #[must_use]
    pub fn processors(mut self, m: usize) -> Self {
        self.config.processors = m;
        self
    }

    /// Sets `perpass`, the period of data passing.
    #[must_use]
    pub fn pass_period(mut self, period: Duration) -> Self {
        self.config.pass_period = period;
        self
    }

    /// Sets `peraver`, the period of averaging and saving.
    #[must_use]
    pub fn averaging_period(mut self, period: Duration) -> Self {
        self.config.averaging_period = period;
        self
    }

    /// Sets the exchange mode (periodic vs after every realization).
    #[must_use]
    pub fn exchange(mut self, exchange: Exchange) -> Self {
        self.config.exchange = exchange;
        self
    }

    /// Sets a wall-clock budget emulating the cluster job time limit.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Stops the simulation early once the largest absolute stochastic
    /// error `eps_max` reaches `target` (error-controlled stopping,
    /// Section 2.2's motivation for periodic averaging).
    #[must_use]
    pub fn target_abs_error(mut self, target: f64) -> Self {
        self.config.target_abs_error = Some(target);
        self
    }

    /// Sets the output directory (where `parmonc_data/` is created).
    #[must_use]
    pub fn output_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.config.output_dir = dir.as_ref().to_path_buf();
        self
    }

    /// Enables the run monitor: the run writes its event trace to
    /// `parmonc_data/monitor/run_metrics.jsonl` and the report carries
    /// a [`parmonc_obs::MonitorSummary`]. Purely observational — the
    /// estimates are bitwise identical with the monitor on or off.
    #[must_use]
    pub fn monitor(mut self) -> Self {
        self.config.monitor = true;
        self
    }

    /// Enables causal span tracing: the run brackets its implicit
    /// phases (stream positioning, realization batches, subtotal
    /// sends, collector merges, checkpoints, reconnects) in
    /// `span_started`/`span_ended` events so `parmonc-trace timeline`
    /// and `parmonc-trace critical-path` can reconstruct where the
    /// wall time went. Implies nothing about the estimates — they are
    /// bitwise identical with spans on or off — but requires
    /// [`ParmoncBuilder::monitor`] (validated at build time).
    #[must_use]
    pub fn trace_spans(mut self) -> Self {
        self.config.trace_spans = true;
        self
    }

    /// Adds a deterministic offset (seconds) to this worker's monitor
    /// timestamps, emulating an unsynchronized host clock for testing
    /// the TCP clock-alignment plane. Only meaningful for
    /// [`ParmoncBuilder::run_worker`]; purely observational.
    #[must_use]
    pub fn clock_skew(mut self, skew_s: f64) -> Self {
        self.config.clock_skew_s = skew_s;
        self
    }

    /// Overrides the leap configuration explicitly, bypassing any
    /// `parmonc_genparam.dat` in the output directory.
    #[must_use]
    pub fn leaps(mut self, leaps: LeapConfig) -> Self {
        self.config.leaps = leaps;
        self.config.leaps_explicit = true;
        self
    }

    /// Attaches a deterministic fault plan for chaos testing. An empty
    /// plan is free; a non-empty one makes the run inject exactly the
    /// scripted faults (see `docs/fault-tolerance.md`).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Sets the worker heartbeat period (liveness signalling).
    #[must_use]
    pub fn heartbeat_period(mut self, period: Duration) -> Self {
        self.config.heartbeat_period = period;
        self
    }

    /// Sets how long the collector tolerates silence from a worker
    /// before declaring it dead. Must exceed the heartbeat period and
    /// the longest single realization.
    #[must_use]
    pub fn liveness_timeout(mut self, timeout: Duration) -> Self {
        self.config.liveness_timeout = timeout;
        self
    }

    /// Makes a detected worker loss fatal ([`ParmoncError::WorkerLost`])
    /// instead of triggering graceful degradation.
    #[must_use]
    pub fn fail_on_worker_loss(mut self) -> Self {
        self.config.fail_on_worker_loss = true;
        self
    }

    /// Selects the transport substrate: [`Transport::Threads`] (the
    /// default, in-process), [`Transport::Processes`] (launched worker
    /// processes over a Unix-domain socket), or [`Transport::Tcp`]
    /// (remote workers dialing in; see [`NetOptions::listen`]).
    /// Estimates are bit-identical across backends for the same
    /// configuration and seed.
    #[must_use]
    pub fn transport(mut self, transport: Transport) -> Self {
        self.config.transport = transport;
        self
    }

    /// Applies the whole TCP networking surface at once and selects
    /// [`Transport::Tcp`]: address and role, I/O timeout, reconnect
    /// schedule, and the resume flag. See [`NetOptions`] for the role
    /// constructors and an example.
    #[must_use]
    pub fn net(mut self, net: NetOptions) -> Self {
        self.config.transport = Transport::Tcp;
        self.config.listen_addr = net.listen_addr;
        self.config.join_addr = net.join_addr;
        self.config.resume_collector = net.resume_collector;
        self.config.tcp_io_timeout = net.io_timeout;
        self.config.reconnect = net.reconnect;
        self
    }

    /// Overrides the arguments the process backend passes to the
    /// re-executed worker binary (see [`RunConfig::worker_args`]).
    /// Needed inside test harnesses, where the workers must re-run the
    /// exact test function that spawned them.
    #[must_use]
    pub fn worker_args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.config.worker_args = Some(args.into_iter().map(Into::into).collect());
        self
    }

    /// Finalizes the configuration without running (for inspection and
    /// tests).
    ///
    /// Unless [`ParmoncBuilder::leaps`] was called, this consults
    /// `parmonc_genparam.dat` in the output directory — the paper's
    /// lookup path for `genparam` overrides (Section 3.5).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Config`] if validation fails or the
    /// genparam file is malformed.
    pub fn build(mut self) -> Result<RunConfig, ParmoncError> {
        if !self.config.leaps_explicit {
            self.config.leaps = crate::genparam::load_genparam(&self.config.output_dir)?;
        }
        self.config.validate()?;
        Ok(self.config)
    }

    /// Validates and runs the simulation with the user realization
    /// routine; equivalent to the `parmoncc` call of the paper.
    ///
    /// # Errors
    ///
    /// Propagates configuration, I/O, and transport errors.
    pub fn run<R>(self, realize: R) -> Result<crate::runner::RunReport, ParmoncError>
    where
        R: crate::realize::Realize + Sync,
    {
        crate::runner::run(self.build()?, realize)
    }

    /// Runs as a remote *worker* of a TCP run: dials the collector set
    /// with [`NetOptions::join`], leases a rank via the versioned
    /// handshake (`docs/wire-protocol.md`), simulates the granted
    /// leapfrog stream range with `realize`, and returns when the
    /// quota is done or the collector tells it to stop.
    ///
    /// The builder must be configured *identically* to the collector's
    /// (same matrix shape, volume, seed, processors, exchange mode, and
    /// leaps): the handshake exchanges a digest of those fields and the
    /// collector rejects a mismatch. See `docs/cluster.md` for the
    /// multi-host walkthrough.
    ///
    /// # Errors
    ///
    /// Propagates configuration and I/O errors; a collector rejection
    /// (wrong version, mismatched configuration, exhausted budget)
    /// surfaces as [`ParmoncError::Io`] with the collector's reason.
    pub fn run_worker<R>(self, realize: R) -> Result<(), ParmoncError>
    where
        R: crate::realize::Realize + Sync,
    {
        let config = self.build()?;
        crate::runner::socket_worker(&config, &realize, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Parmonc;

    #[test]
    fn builder_defaults_mirror_paper() {
        let cfg = Parmonc::builder(10, 2)
            .max_sample_volume(100)
            .build()
            .unwrap();
        assert_eq!(cfg.nrow, 10);
        assert_eq!(cfg.ncol, 2);
        assert_eq!(cfg.resume, Resume::New);
        assert_eq!(cfg.exchange, Exchange::Periodic);
        assert_eq!(cfg.processors, 1);
        assert_eq!(cfg.leaps, LeapConfig::default());
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(Parmonc::builder(0, 2).max_sample_volume(1).build().is_err());
        assert!(Parmonc::builder(2, 0).max_sample_volume(1).build().is_err());
    }

    #[test]
    fn rejects_zero_volume_and_processors() {
        assert!(Parmonc::builder(1, 1).max_sample_volume(0).build().is_err());
        assert!(Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .processors(0)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_seqnum_beyond_capacity() {
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .seqnum(1 << 10) // capacity is 2^10
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("seqnum"));
    }

    #[test]
    fn rejects_processor_count_beyond_capacity() {
        let tiny = LeapConfig::new(12, 8, 4).unwrap(); // 2^4 = 16 processors
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .leaps(tiny)
            .processors(17)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("capacity"));
    }

    #[test]
    fn build_picks_up_genparam_file() {
        let dir =
            std::env::temp_dir().join(format!("parmonc-config-genparam-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        crate::genparam::write_genparam(&dir, 105, 85, 42).unwrap();

        // Implicit: the file wins.
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .output_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(
            (cfg.leaps.ne(), cfg.leaps.np(), cfg.leaps.nr()),
            (105, 85, 42)
        );

        // Explicit: the builder wins.
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .output_dir(&dir)
            .leaps(LeapConfig::default())
            .build()
            .unwrap();
        assert_eq!(cfg.leaps, LeapConfig::default());
    }

    #[test]
    fn rejects_liveness_timeout_not_exceeding_heartbeat() {
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .heartbeat_period(Duration::from_secs(5))
            .liveness_timeout(Duration::from_secs(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("liveness_timeout"));
    }

    #[test]
    fn fault_plan_defaults_to_empty() {
        let cfg = Parmonc::builder(1, 1).max_sample_volume(1).build().unwrap();
        assert!(cfg.faults.is_empty());
        assert!(!cfg.fail_on_worker_loss);
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .faults(parmonc_faults::FaultPlan::new(1).crash_rank(1, 5))
            .fail_on_worker_loss()
            .build()
            .unwrap();
        assert!(!cfg.faults.is_empty());
        assert!(cfg.fail_on_worker_loss);
    }

    #[test]
    fn reconnect_policy_is_tunable_and_validated() {
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .processors(2)
            .net(
                NetOptions::listen("127.0.0.1:0")
                    .reconnect_attempts(40)
                    .reconnect_base_delay(Duration::from_millis(5))
                    .reconnect_max_delay(Duration::from_millis(80))
                    .reconnect_attempt_timeout(Duration::from_secs(1)),
            )
            .build()
            .unwrap();
        assert_eq!(cfg.reconnect.attempts, 40);
        assert_eq!(cfg.reconnect.base_delay, Duration::from_millis(5));
        assert_eq!(cfg.reconnect.max_delay, Duration::from_millis(80));
        assert_eq!(cfg.reconnect.attempt_timeout, Duration::from_secs(1));

        let err = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .processors(2)
            .net(NetOptions::default().reconnect_attempts(0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("reconnect_attempts"));
    }

    #[test]
    fn resume_listen_selects_tcp_and_flags_the_resume() {
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .processors(2)
            .net(NetOptions::resume_listen("127.0.0.1:7070"))
            .build()
            .unwrap();
        assert_eq!(cfg.transport, Transport::Tcp);
        assert_eq!(cfg.listen_addr.as_deref(), Some("127.0.0.1:7070"));
        assert!(cfg.resume_collector);
        // The default remains a fresh session.
        let cfg = Parmonc::builder(1, 1)
            .max_sample_volume(10)
            .build()
            .unwrap();
        assert!(!cfg.resume_collector);
    }

    #[test]
    fn trace_spans_requires_monitor_and_skips_the_digest() {
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .trace_spans()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("trace_spans"));

        let plain = Parmonc::builder(2, 3)
            .max_sample_volume(10)
            .processors(2)
            .build()
            .unwrap();
        let traced = Parmonc::builder(2, 3)
            .max_sample_volume(10)
            .processors(2)
            .monitor()
            .trace_spans()
            .clock_skew(1.5)
            .build()
            .unwrap();
        assert!(traced.trace_spans);
        assert_eq!(traced.clock_skew_s, 1.5);
        // Neither observability flag may perturb the handshake digest:
        // a worker built without them must still be admitted.
        assert_eq!(plain.wire_digest(), traced.wire_digest());

        let err = Parmonc::builder(1, 1)
            .max_sample_volume(1)
            .clock_skew(f64::NAN)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("clock_skew"));
    }

    #[test]
    fn quotas_sum_to_maxsv() {
        for (maxsv, m) in [(100u64, 8usize), (7, 3), (1, 4), (1000, 1), (13, 13)] {
            let cfg = Parmonc::builder(1, 1)
                .max_sample_volume(maxsv)
                .processors(m)
                .build()
                .unwrap();
            let total: u64 = (0..m).map(|w| cfg.quota(w)).sum();
            assert_eq!(total, maxsv, "maxsv={maxsv} m={m}");
            // Quotas are balanced within 1.
            let quotas: Vec<u64> = (0..m).map(|w| cfg.quota(w)).collect();
            let min = quotas.iter().min().unwrap();
            let max = quotas.iter().max().unwrap();
            assert!(max - min <= 1);
        }
    }
}
