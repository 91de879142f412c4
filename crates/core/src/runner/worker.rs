//! Every other rank's side of a run: where a worker's subtotals go,
//! what an interior rank of a collection tree relays, and the [`Role`]
//! through which it answers the collector between realizations.

use std::time::{Duration, Instant};

use parmonc_ipc::{JoinOptions, TcpWorkerTransport, WorkerInfo};
use parmonc_mpi::Transport as Comm;
use parmonc_mpi::{Bytes, MpiError};
use parmonc_obs::{SpanEmitter, SpanPhase};
use parmonc_rng::StreamHierarchy;

use super::{simulate_quota, Control, RealizationLoop, Role, RunCtx};
use crate::config::RunConfig;
use crate::error::{IoContext, ParmoncError};
use crate::files::ResultsDir;
use crate::messages::{
    decode_batch, encode_batch, Subtotal, TAG_BATCH, TAG_EXTEND, TAG_FINAL, TAG_HEARTBEAT,
    TAG_REPARENT, TAG_STOP, TAG_SUBTOTAL,
};
use crate::realize::Realize;

/// How often a lingering relay (own quota done, descendants still
/// computing) services its inbox between forwards.
const RELAY_LINGER_POLL: Duration = Duration::from_millis(2);

/// An interior relay rank's store-and-forward state under a tree
/// collection topology: the latest raw subtotal payload seen from each
/// rank below it, forwarded upstream as one coalesced [`TAG_BATCH`]
/// per service pass. Payloads are kept *verbatim* — a relay never
/// decodes or pre-folds the floating-point state, so the collector's
/// rank-ordered fold (and with it the estimate) stays bit-identical to
/// the star topology's. Empty (and inert) for leaf ranks and under
/// [`parmonc_mpi::Topology::Star`].
struct RelayBuffer {
    /// `rank -> (raw subtotal payload, final seen)`; a `BTreeMap` so
    /// every flush is in ascending rank order.
    latest: std::collections::BTreeMap<usize, (Bytes, bool)>,
    /// Whether anything changed since the last successful flush.
    dirty: bool,
    /// Ranks whose subtotals are expected to flow through this rank.
    descendants: Vec<usize>,
    /// Ranks whose final flag has been flushed upstream.
    finals_flushed: std::collections::BTreeSet<usize>,
}

impl RelayBuffer {
    fn new(descendants: Vec<usize>) -> Self {
        Self {
            latest: std::collections::BTreeMap::new(),
            dirty: false,
            descendants,
            finals_flushed: std::collections::BTreeSet::new(),
        }
    }

    /// Replaces the stored payload for `rank` (cumulative subtotals:
    /// newest wins) — unless it holds that rank's final and this is
    /// not one: a final is the rank's last word, so a non-final behind
    /// it is a straggler (a delayed message flushed late) that would
    /// go upstream as a regressed payload flagged final. The same
    /// guard the collector's `handle` has.
    fn absorb(&mut self, rank: usize, payload: Bytes, is_final: bool) {
        if !is_final && self.latest.get(&rank).is_some_and(|(_, held)| *held) {
            return;
        }
        self.latest.insert(rank, (payload, is_final));
        self.dirty = true;
    }

    /// One coalesced batch of everything held, in ascending rank order.
    fn encode(&self) -> Bytes {
        encode_batch(
            self.latest
                .iter()
                .map(|(&rank, (payload, fin))| (rank, *fin, &payload[..])),
        )
    }

    fn note_flushed(&mut self) {
        self.dirty = false;
        for (&rank, (_, fin)) in &self.latest {
            if *fin {
                self.finals_flushed.insert(rank);
            }
        }
    }

    /// Whether every descendant's final has been forwarded upstream —
    /// the relay's linger loop is done. Descendants that never report
    /// (crashed, never joined) keep this false; the linger loop exits
    /// on stop/disconnect instead.
    fn all_finals_forwarded(&self) -> bool {
        self.descendants
            .iter()
            .all(|d| self.finals_flushed.contains(d))
    }
}

/// A non-collector rank's side of the run: where its subtotals go,
/// what it relays for the ranks below it, and whether the collector is
/// still there to talk to.
struct Worker<'a, C: Comm> {
    comm: C,
    /// Where this rank's subtotals flow: rank 0 under a star, an
    /// interior relay under a tree. Mutable — a vanished or reparented
    /// relay degrades the route to the collector, never the estimate.
    parent: usize,
    relay: RelayBuffer,
    /// A vanished collector (it aborted the run) is never the worker's
    /// error: the worker just winds down.
    lost_collector: bool,
    spans: &'a SpanEmitter,
}

impl<'a, C: Comm> Worker<'a, C> {
    fn new<R: ?Sized>(ctx: &RunCtx<'a, R>, comm: C, parent: usize, spans: &'a SpanEmitter) -> Self {
        let mut worker = Self {
            relay: RelayBuffer::new(ctx.config.collection_plan().descendants(comm.rank())),
            comm,
            parent: 0,
            lost_collector: false,
            spans,
        };
        worker.set_parent(parent);
        worker
    }

    /// Routes this rank's subtotals to `parent` — to the collector, if
    /// that names no other rank of this world.
    fn set_parent(&mut self, parent: usize) {
        self.parent = if parent == self.comm.rank() || parent >= self.comm.size() {
            0
        } else {
            parent
        };
    }

    /// Sends `own` to `dest`, encoded straight from the borrowed
    /// accumulator. A non-final subtotal is superseded by the next one,
    /// and is sent as such: on threads it is written into the
    /// receiver's inbox in place; on sockets, and for the final
    /// everywhere, into a recycled send buffer that is queued.
    fn send_subtotal(&self, dest: usize, own: &Subtotal, is_final: bool) -> Result<(), MpiError> {
        let (acc, compute_seconds) = (&own.acc, own.compute_seconds);
        if is_final {
            let payload = Subtotal::encode_state_pooled(acc, compute_seconds, self.comm.pool());
            self.comm.send_bytes(dest, TAG_FINAL, payload)
        } else {
            let (nrow, ncol) = acc.shape();
            let len = Subtotal::encoded_len(nrow, ncol);
            self.comm.send_latest_with(dest, TAG_SUBTOTAL, len, |sink| {
                Subtotal::encode_state_into(acc, compute_seconds, sink);
            })
        }
    }

    /// Sends upstream with `send`. A vanished relay degrades the route
    /// to the collector and retries once — what travels is cumulative,
    /// so the retry cannot double-count; a vanished collector raises
    /// `lost_collector`. Returns whether it was sent.
    fn send_upstream(
        &mut self,
        send: impl Fn(&Self, usize) -> Result<(), MpiError>,
    ) -> Result<bool, ParmoncError> {
        let mut sent = send(self, self.parent);
        if matches!(sent, Err(MpiError::Disconnected)) && self.parent != 0 {
            self.parent = 0;
            sent = send(self, 0);
        }
        match sent {
            Ok(()) => Ok(true),
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Flushes the relay buffer upstream as one [`TAG_BATCH`], if dirty.
    fn flush_relay(&mut self) -> Result<(), ParmoncError> {
        if !self.relay.dirty {
            return Ok(());
        }
        let sp = self.spans.start(SpanPhase::RelayMerge, None);
        let flushed =
            self.send_upstream(|w, dest| w.comm.send_bytes(dest, TAG_BATCH, w.relay.encode()));
        self.spans.end(sp, SpanPhase::RelayMerge);
        if flushed? {
            self.relay.note_flushed();
        }
        Ok(())
    }

    /// One control/relay service pass, shared by the in-simulation poll
    /// and the post-final linger loop: drain every pending envelope —
    /// control orders from rank 0, subtotals from the subtree — then flush
    /// one coalesced batch upstream if anything changed.
    fn relay_service(&mut self) -> Result<Control, ParmoncError> {
        let mut ctl = Control::default();
        while let Some(env) = self.comm.try_recv(None, None) {
            match env.tag {
                // Control is always the collector's voice; a routed
                // frame from a sibling cannot stop or extend us.
                TAG_STOP if env.source == 0 => ctl.stop = true,
                TAG_EXTEND if env.source == 0 && env.payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&env.payload);
                    ctl.extra += u64::from_le_bytes(buf);
                }
                TAG_REPARENT if env.source == 0 && env.payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&env.payload);
                    self.set_parent(u64::from_le_bytes(buf) as usize);
                }
                TAG_SUBTOTAL | TAG_FINAL if env.source != 0 && env.source < self.comm.size() => {
                    self.relay
                        .absorb(env.source, env.payload, env.tag == TAG_FINAL);
                }
                TAG_BATCH if env.source != 0 => {
                    // A deeper tree: a child relay's own coalesced
                    // batch folds entry-by-entry into this one.
                    for entry in decode_batch(&env.payload)? {
                        if entry.rank != 0 && entry.rank < self.comm.size() {
                            self.relay.absorb(entry.rank, entry.payload, entry.is_final);
                        }
                    }
                }
                _ => {}
            }
        }
        self.flush_relay()?;
        Ok(ctl)
    }

    /// A relay's own quota is done, but descendants may still be
    /// computing and their subtotals flow through this rank (a leaf has
    /// none, and is through at once): keep servicing until every
    /// descendant's final is flushed upstream, the collector says stop,
    /// or the uplink goes away (teardown or loss). Heartbeats keep this
    /// rank visible to the liveness plane meanwhile — a silent relay
    /// would be declared lost and its children reparented for nothing.
    fn linger<R: ?Sized>(&mut self, ctx: &RunCtx<'_, R>) -> Result<(), ParmoncError> {
        let mut last_beat = Instant::now();
        while !self.relay.all_finals_forwarded() && !self.lost_collector {
            if ctx.deadline_passed(Instant::now()) || self.relay_service()?.stop {
                break;
            }
            if last_beat.elapsed() >= ctx.config.heartbeat_period {
                self.heartbeat()?;
                last_beat = Instant::now();
            }
            std::thread::sleep(RELAY_LINGER_POLL);
        }
        Ok(())
    }
}

impl<C: Comm> Role for Worker<'_, C> {
    fn offer(
        &mut self,
        own: &Subtotal,
        _now: Instant,
        is_final: bool,
    ) -> Result<bool, ParmoncError> {
        let sent = self.send_upstream(|w, dest| w.send_subtotal(dest, own, is_final))?;
        Ok(sent && self.parent == 0)
    }

    /// Heartbeats always run straight to rank 0 on every topology:
    /// liveness is judged centrally, and a relay must not be able to
    /// silence its whole subtree by dying.
    fn heartbeat(&mut self) -> Result<(), ParmoncError> {
        match self.comm.send(0, TAG_HEARTBEAT, &[]) {
            Ok(()) => Ok(()),
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn poll(&mut self, _own: &Subtotal, _now: Instant) -> Result<Control, ParmoncError> {
        if self.lost_collector {
            return Ok(Control {
                stop: true,
                extra: 0,
            });
        }
        self.relay_service()
    }
}

pub(super) fn worker_loop<C: Comm, R: Realize + ?Sized>(
    ctx: &RunCtx<'_, R>,
    comm: C,
    trace_spans: bool,
    parent: usize,
) -> Result<(), ParmoncError> {
    let rank = comm.rank();
    let spans = SpanEmitter::new(ctx.monitor, rank, trace_spans);
    let mut worker = Worker::new(ctx, comm, parent, &spans);
    let mut sim = RealizationLoop::new(ctx, rank, None, &spans)?;
    // A crashed rank is gone, relay duties and all, without a final
    // message: the collector must notice via the liveness sweep.
    if simulate_quota(ctx, &mut sim, &mut worker)?.is_none() {
        worker.linger(ctx)?;
    }
    Ok(())
}

/// The one socket-worker entry: a remote TCP worker (`launched` is
/// `None`; the body behind
/// [`ParmoncBuilder::run_worker`](crate::config::ParmoncBuilder::run_worker))
/// dials the configured collector address, a launched process-backend
/// child dials the socket its parent named — then both lease a rank via
/// the versioned handshake and run the identical worker loop.
pub(crate) fn socket_worker<R: Realize>(
    config: &RunConfig,
    realize: &R,
    launched: Option<&WorkerInfo>,
) -> Result<(), ParmoncError> {
    let start = Instant::now();
    let addr = match launched {
        Some(info) => info.socket.display().to_string(),
        None => config.join_addr.clone().ok_or_else(|| {
            ParmoncError::Config(
                "run_worker needs a collector address: use .net(NetOptions::join(\"host:port\"))"
                    .into(),
            )
        })?,
    };
    // Each worker builds its own fault handle from the same seeded
    // plan; fault sequence counters are per-(src, dst, tag) channel,
    // and this process only ever *sends* on its own rank's channels,
    // so the decisions match the shared-handle thread backend exactly.
    let faults = config.faults.build();
    let dir = ResultsDir::create(&config.output_dir)?.with_faults(faults.clone());
    let hierarchy = StreamHierarchy::new(config.leaps);
    let opts = JoinOptions {
        addr,
        config_digest: config.wire_digest(),
        faults: faults.clone(),
        io_timeout: config.tcp_io_timeout,
        reconnect: config.reconnect,
        clock_skew_s: config.clock_skew_s,
    };
    let comm = if launched.is_some() {
        TcpWorkerTransport::join_unix(opts).io_ctx("joining the parent's collector socket")?
    } else {
        TcpWorkerTransport::join(opts).io_ctx("joining the TCP collector")?
    };
    // The digest already proved both sides agree on the configuration;
    // this cross-check catches quota-dealing bugs, where agreement on
    // the inputs still produced a different split.
    let rank = Comm::rank(&comm);
    let granted = comm.granted_quota();
    if granted != config.quota(rank) {
        return Err(ParmoncError::Config(format!(
            "collector granted rank {rank} a quota of {granted} realizations, but this \
             configuration deals it {}: the two sides disagree on the budget split",
            config.quota(rank)
        )));
    }
    let monitor = comm.monitor();
    // Span tracing is the *collector's* choice, carried to the worker
    // in the handshake grant — a worker built without the flag still
    // traces when the collector asks. The collection parent rides the
    // same grant: the collector owns the topology.
    let trace_spans = comm.spans().is_enabled();
    let parent = comm.granted_parent();
    let ctx = RunCtx {
        config,
        hierarchy: &hierarchy,
        dir: &dir,
        realize,
        monitor: &monitor,
        faults: &faults,
        start,
    };
    worker_loop(&ctx, comm, trace_spans, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmonc_stats::MatrixAccumulator;

    /// A rank's final is its last word to a relay too. A non-final
    /// that arrives behind it — the thread substrate's fault gate
    /// force-flushes a delayed subtotal at teardown, after the final —
    /// used to replace the payload while the final flag stayed: the
    /// relay then forwarded a regressed subtotal flagged final, and the
    /// collector counted it.
    #[test]
    fn relay_ignores_a_straggler_behind_a_final() {
        let subtotal = |realizations: usize| {
            let mut acc = MatrixAccumulator::new(1, 1).unwrap();
            for _ in 0..realizations {
                acc.add(&[1.0]).unwrap();
            }
            Subtotal {
                acc,
                compute_seconds: 0.0,
            }
            .encode()
        };
        let mut relay = RelayBuffer::new(vec![3]);
        relay.absorb(3, subtotal(10), false);
        relay.absorb(3, subtotal(12), true);
        relay.note_flushed();
        relay.absorb(3, subtotal(11), false);
        assert!(!relay.dirty, "a straggler is nothing to forward");
        let batch = decode_batch(&relay.encode()).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(batch[0].is_final);
        assert_eq!(batch[0].payload, subtotal(12));
        // A retransmitted final still replaces (and stays final).
        relay.absorb(3, subtotal(12), true);
        assert!(relay.dirty);
        assert!(decode_batch(&relay.encode()).unwrap()[0].is_final);
    }
}
