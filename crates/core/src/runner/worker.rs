//! Every other rank's side of a run: where a worker's subtotals go,
//! and the [`Role`] through which it answers the collector between
//! realizations.

use std::time::Instant;

use parmonc_ipc::{JoinOptions, TcpWorkerTransport, WorkerInfo};
use parmonc_mpi::MpiError;
use parmonc_mpi::Transport as Comm;
use parmonc_obs::SpanEmitter;
use parmonc_rng::StreamHierarchy;

use super::{simulate_quota, Control, RealizationLoop, Role, RunCtx};
use crate::config::RunConfig;
use crate::error::{IoContext, ParmoncError};
use crate::files::{ResultsDir, StateWriter};
use crate::messages::{Subtotal, TAG_EXTEND, TAG_FINAL, TAG_HEARTBEAT, TAG_STOP, TAG_SUBTOTAL};
use crate::realize::Realize;

/// A non-collector rank's side of the run: it reports straight to
/// rank 0 and notices when rank 0 is no longer there to talk to.
struct Worker<C: Comm> {
    comm: C,
    /// A vanished collector (it aborted the run) is never the worker's
    /// error: the worker just winds down.
    lost_collector: bool,
}

impl<C: Comm> Worker<C> {
    /// Sends `own` to rank 0, encoded straight from the borrowed
    /// accumulator. A non-final subtotal is superseded by the next one,
    /// and is sent as such: on threads it is written into the
    /// receiver's inbox in place; on sockets, and for the final
    /// everywhere, into a recycled send buffer that is queued.
    fn send_subtotal(&self, own: &Subtotal, is_final: bool) -> Result<(), MpiError> {
        let (acc, compute_seconds) = (&own.acc, own.compute_seconds);
        if is_final {
            let payload = Subtotal::encode_state_pooled(acc, compute_seconds, self.comm.pool());
            self.comm.send_bytes(0, TAG_FINAL, payload)
        } else {
            let (nrow, ncol) = acc.shape();
            let len = Subtotal::encoded_len(nrow, ncol);
            self.comm.send_latest_with(0, TAG_SUBTOTAL, len, |sink| {
                Subtotal::encode_state_into(acc, compute_seconds, sink);
            })
        }
    }

    /// A send to a vanished collector raises `lost_collector` instead
    /// of failing the worker.
    fn note_lost(&mut self, sent: Result<(), MpiError>) -> Result<(), ParmoncError> {
        match sent {
            Ok(()) => Ok(()),
            Err(MpiError::Disconnected) => {
                self.lost_collector = true;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }
}

impl<C: Comm> Role for Worker<C> {
    fn offer(&mut self, own: &Subtotal, _now: Instant, is_final: bool) -> Result<(), ParmoncError> {
        let sent = self.send_subtotal(own, is_final);
        self.note_lost(sent)
    }

    fn heartbeat(&mut self) -> Result<(), ParmoncError> {
        let sent = self.comm.send(0, TAG_HEARTBEAT, &[]);
        self.note_lost(sent)
    }

    /// Drains the collector's pending control orders.
    fn poll(&mut self, _own: &Subtotal, _now: Instant) -> Result<Control, ParmoncError> {
        if self.lost_collector {
            return Ok(Control {
                stop: true,
                extra: 0,
            });
        }
        let mut ctl = Control::default();
        while let Some(env) = self.comm.try_recv(None, None) {
            match env.tag {
                TAG_STOP => ctl.stop = true,
                TAG_EXTEND if env.payload.len() == 8 => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&env.payload);
                    ctl.extra += u64::from_le_bytes(buf);
                }
                _ => {}
            }
        }
        Ok(ctl)
    }
}

/// Runs a worker rank over `comm` and hands the endpoint back, still
/// connected: a socket worker writes its last state before it hangs up.
pub(super) fn worker_loop<C: Comm, R: Realize + ?Sized>(
    ctx: &RunCtx<'_, R>,
    comm: C,
    trace_spans: bool,
) -> Result<C, ParmoncError> {
    let rank = comm.rank();
    let spans = SpanEmitter::new(ctx.monitor, rank, trace_spans);
    let mut worker = Worker {
        comm,
        lost_collector: false,
    };
    let mut sim = RealizationLoop::new(ctx, rank, None, &spans)?;
    // A crashed rank is gone without a final message: the collector
    // must notice via the liveness sweep.
    simulate_quota(ctx, &mut sim, &mut worker)?;
    Ok(worker.comm)
}

/// The one socket-worker entry: a remote TCP worker (`launched` is
/// `None`; the body behind
/// [`ParmoncBuilder::run_worker`](crate::config::ParmoncBuilder::run_worker))
/// dials the configured collector address, a launched process-backend
/// child dials the socket its parent named — then both lease a rank via
/// the versioned handshake and run the identical worker loop. The
/// process has a state writer of its own, and no rank 0 to drop its
/// final state for it: that is written after the final offer, before
/// the worker hangs up (and on an error exit too). Returns the worker's
/// results directory, whose writer counts its fsyncs.
pub(crate) fn socket_worker<R: Realize>(
    config: &RunConfig,
    realize: &R,
    launched: Option<&WorkerInfo>,
) -> Result<ResultsDir, ParmoncError> {
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
    // traces when the collector asks.
    let trace_spans = comm.spans().is_enabled();
    let states = StateWriter::new(dir.clone(), config.processors);
    let ctx = RunCtx {
        config,
        hierarchy: &hierarchy,
        dir: &dir,
        realize,
        states: &states,
        monitor: &monitor,
        faults: &faults,
        start,
    };
    let looped = worker_loop(&ctx, comm, trace_spans);
    let flushed = states.flush();
    drop(looped?);
    flushed?;
    Ok(dir)
}
