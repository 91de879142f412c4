//! Rank 0's side of a run: the collector's state, its liveness and
//! reassignment bookkeeping, the save-point, and the [`Role`] through
//! which rank 0 collects between its own realizations.

use std::time::Instant;

use parmonc_mpi::Transport as Comm;
use parmonc_mpi::{Bytes, Envelope, MpiError};
use parmonc_obs::{ConvergenceTracker, EventKind, Monitor, SpanEmitter, SpanPhase};
use parmonc_stats::report::LogReport;
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use super::{simulate_quota, Control, RealizationLoop, Role, RunCtx};
use crate::config::RunConfig;
use crate::error::ParmoncError;
use crate::messages::{Subtotal, TAG_EXTEND, TAG_FINAL, TAG_HEARTBEAT, TAG_STOP};
use crate::realize::Realize;

/// Collector-side state: the latest cumulative subtotal per rank, and
/// when each arrived (for the monitor's snapshot-age metric).
pub(super) struct CollectorState {
    baseline: MatrixAccumulator,
    pub(super) latest: Vec<Option<Subtotal>>,
    updated_at: Vec<Option<Instant>>,
}

impl CollectorState {
    fn new(baseline: MatrixAccumulator, ranks: usize) -> Self {
        Self {
            baseline,
            latest: vec![None; ranks],
            updated_at: vec![None; ranks],
        }
    }

    /// Decodes a worker's cumulative subtotal *over* its previous
    /// snapshot (same shape ⇒ the matrices are overwritten in place,
    /// no allocation) and stamps its arrival time. The collector's
    /// steady state: every rank re-sends the same shape each pass.
    fn absorb(&mut self, rank: usize, payload: &Bytes, now: Instant) -> Result<(), ParmoncError> {
        Subtotal::decode_into(payload, &mut self.latest[rank])?;
        self.updated_at[rank] = Some(now);
        Ok(())
    }

    /// Refreshes rank 0's own snapshot from its borrowed running
    /// subtotal, reusing the previous snapshot's allocations.
    fn update_own(&mut self, own: &Subtotal, now: Instant) {
        own.copy_into(&mut self.latest[0]);
        self.updated_at[0] = Some(now);
    }

    /// Age of the stalest per-rank snapshot folded into an averaging
    /// pass; `None` until at least one rank has reported.
    fn max_snapshot_age(&self) -> Option<f64> {
        self.updated_at
            .iter()
            .flatten()
            .map(|t| t.elapsed().as_secs_f64())
            .fold(None, |acc, age| Some(acc.map_or(age, |m: f64| m.max(age))))
    }

    /// Formula (5): total = baseline + Σ_m latest_m (cumulative sums, so
    /// replace-then-sum, never double counting).
    fn total(&self) -> Result<MatrixAccumulator, ParmoncError> {
        let mut total = self.baseline.clone();
        for sub in self.latest.iter().flatten() {
            total.merge(&sub.acc)?;
        }
        Ok(total)
    }

    pub(super) fn new_volume(&self) -> u64 {
        self.latest.iter().flatten().map(|s| s.acc.count()).sum()
    }

    fn compute_seconds(&self) -> f64 {
        self.latest
            .iter()
            .flatten()
            .map(|s| s.compute_seconds)
            .sum()
    }
}

/// Collector-side liveness and reassignment bookkeeping.
pub(super) struct Liveness {
    /// Whether each rank is believed alive (rank 0 always is).
    alive: Vec<bool>,
    /// When the collector last heard *anything* from each rank.
    last_heard: Vec<Instant>,
    /// Extra realizations assigned to each rank beyond its base quota.
    extended: Vec<u64>,
    /// Ranks declared dead, in detection order.
    pub(super) lost: Vec<usize>,
    /// Total realizations moved by reassignment.
    pub(super) reassigned: u64,
    /// Reassigned realizations the collector itself must absorb.
    self_extra: u64,
}

impl Liveness {
    fn new(size: usize) -> Self {
        Self {
            alive: vec![true; size],
            last_heard: vec![Instant::now(); size],
            extended: vec![0; size],
            lost: Vec::new(),
            reassigned: 0,
            self_extra: 0,
        }
    }

    fn heard_from(&mut self, rank: usize, now: Instant) {
        self.last_heard[rank] = now;
    }
}

/// Everything the collector knows: the per-rank subtotals, which
/// finals are in, who is alive, and whether the run is winding down.
/// `rank0_loop` builds one, [`Rank0`] drives it from the inbox, and
/// `run` gets it back for the final averaging pass.
pub(super) struct Collector {
    pub(super) state: CollectorState,
    /// Whether each rank's final subtotal has been folded in.
    finals: Vec<bool>,
    pub(super) live: Liveness,
    /// Set once error-controlled stopping has been broadcast: lost
    /// budget is no longer reassigned.
    stopping: bool,
    /// When the last save-point was written (the run's start, before
    /// the first).
    last_average: Instant,
    /// Error-bar trajectory recorder; strictly read-only with respect
    /// to estimation — it observes already-computed summaries, so
    /// estimates stay bit-identical with the metrics plane on or off.
    /// The final averaging pass in `finish` lands in the same
    /// trajectory.
    convergence: ConvergenceTracker,
}

impl Collector {
    fn new(config: &RunConfig, baseline: MatrixAccumulator, size: usize) -> Self {
        Self {
            state: CollectorState::new(baseline, size),
            finals: vec![false; size],
            live: Liveness::new(size),
            stopping: false,
            last_average: Instant::now(),
            convergence: ConvergenceTracker::with_target(config.target_abs_error),
        }
    }

    /// Whether the next periodic save-point (the paper's `peraver`) is
    /// due at `now`.
    fn averaging_due(&self, config: &RunConfig, now: Instant) -> bool {
        now.duration_since(self.last_average) >= config.averaging_period
    }

    /// Splits `budget` realizations dropped by `from` as evenly as
    /// possible across surviving workers that are still simulating;
    /// shares that cannot be delivered (no survivors, or the survivor
    /// exited between the liveness check and the send) fall to the
    /// collector itself.
    fn reassign<C: Comm>(&mut self, from: usize, budget: u64, comm: &C, monitor: &Monitor) {
        let live = &mut self.live;
        live.reassigned += budget;
        let survivors: Vec<usize> = (1..live.alive.len())
            .filter(|&m| m != from && live.alive[m] && !self.finals[m])
            .collect();
        let mut self_share = 0u64;
        if survivors.is_empty() {
            self_share = budget;
        } else {
            let per = budget / survivors.len() as u64;
            let mut rem = budget % survivors.len() as u64;
            for &m in &survivors {
                let share = per + u64::from(rem > 0);
                rem = rem.saturating_sub(1);
                if share == 0 {
                    continue;
                }
                match comm.send(m, TAG_EXTEND, &share.to_le_bytes()) {
                    Ok(()) => {
                        live.extended[m] += share;
                        monitor.emit(
                            Some(0),
                            EventKind::WorkReassigned {
                                from_worker: from,
                                to_worker: m,
                                realizations: share,
                            },
                        );
                    }
                    Err(_) => self_share += share,
                }
            }
        }
        if self_share > 0 {
            live.extended[0] += self_share;
            live.self_extra += self_share;
            monitor.emit(
                Some(0),
                EventKind::WorkReassigned {
                    from_worker: from,
                    to_worker: 0,
                    realizations: self_share,
                },
            );
        }
    }

    /// Declares `dead` lost: keeps its last cumulative subtotal (those
    /// realizations are complete and unbiased), reassigns the rest of
    /// its budget, and records the loss — or fails the whole run when
    /// the configuration demands that.
    fn declare_lost<C: Comm, R: ?Sized>(
        &mut self,
        ctx: &RunCtx<'_, R>,
        comm: &C,
        dead: usize,
    ) -> Result<(), ParmoncError> {
        let received = self.state.latest[dead]
            .as_ref()
            .map_or(0, |s| s.acc.count());
        if ctx.config.fail_on_worker_loss {
            return Err(ParmoncError::WorkerLost {
                rank: dead,
                received_realizations: received,
            });
        }
        self.live.alive[dead] = false;
        self.live.lost.push(dead);
        // On an elastic-membership substrate (a socket world), the dead
        // rank's lease must never be granted again: its remaining
        // budget is about to be reassigned, so a late joiner on this
        // rank would double-count.
        comm.retire_rank(dead);
        ctx.monitor.emit(
            Some(0),
            EventKind::WorkerLost {
                worker: dead,
                received_realizations: received,
            },
        );
        let budget = (ctx.config.quota(dead) + self.live.extended[dead]).saturating_sub(received);
        if budget > 0 && !self.stopping {
            self.reassign(dead, budget, comm, ctx.monitor);
        }
        Ok(())
    }

    /// Sweeps for ranks that have gone quiet past the liveness timeout
    /// and declares them lost. With `force`, every still-awaited rank
    /// is declared immediately — used when the transport reports all
    /// senders disconnected, so no further message can ever arrive.
    fn check_liveness<C: Comm, R: ?Sized>(
        &mut self,
        ctx: &RunCtx<'_, R>,
        comm: &C,
        force: bool,
        now: Instant,
    ) -> Result<(), ParmoncError> {
        let dead: Vec<usize> = (1..self.live.alive.len())
            .filter(|&m| {
                self.live.alive[m]
                    && !self.finals[m]
                    && (force
                        || now
                            .checked_duration_since(self.live.last_heard[m])
                            .is_some_and(|age| age >= ctx.config.liveness_timeout))
            })
            .collect();
        for m in dead {
            self.declare_lost(ctx, comm, m)?;
        }
        Ok(())
    }

    /// Marks `rank`'s final received. A final from a rank that was
    /// extended but fell short (the extension raced its exit) gets the
    /// shortfall re-reassigned so the budget is never silently dropped;
    /// base-quota shortfalls (deadline, stop broadcast) are left alone.
    /// Called once per rank: `handle` drops everything a rank sends
    /// after its final.
    fn note_final<C: Comm, R: ?Sized>(&mut self, ctx: &RunCtx<'_, R>, comm: &C, rank: usize) {
        self.finals[rank] = true;
        let count = self.state.latest[rank]
            .as_ref()
            .map_or(0, |s| s.acc.count());
        let expected = ctx.config.quota(rank) + self.live.extended[rank];
        let shortfall = expected.saturating_sub(count).min(self.live.extended[rank]);
        let deadline_passed = ctx.deadline_passed(Instant::now());
        if shortfall > 0 && self.live.alive[rank] && !self.stopping && !deadline_passed {
            self.reassign(rank, shortfall, comm, ctx.monitor);
        }
    }

    /// Folds one inbound envelope into the collector state
    /// (heartbeats only refresh liveness).
    fn handle<C: Comm, R: ?Sized>(
        &mut self,
        ctx: &RunCtx<'_, R>,
        comm: &C,
        env: Envelope,
        now: Instant,
    ) -> Result<(), ParmoncError> {
        let source = env.source;
        self.live.heard_from(source, now);
        if env.tag == TAG_HEARTBEAT {
            return Ok(());
        }
        if self.finals[source] {
            comm.recycle(env.payload);
            return Ok(());
        }
        let is_final = env.tag == TAG_FINAL;
        self.state.absorb(source, &env.payload, now)?;
        comm.recycle(env.payload);
        if is_final {
            self.note_final(ctx, comm, source);
        }
        Ok(())
    }

    /// Error-controlled stopping: once a save-point's `eps_max` meets
    /// the configured target, notifies every worker — once. A worker
    /// that already sent its final and exited has dropped its inbox;
    /// that is not an error for a stop notification.
    fn stop_if_converged<C: Comm>(
        &mut self,
        config: &RunConfig,
        comm: &C,
        eps_max: f64,
    ) -> Result<(), ParmoncError> {
        let met = config
            .target_abs_error
            .is_some_and(|target| eps_max <= target);
        if self.stopping || !met {
            return Ok(());
        }
        for dest in 1..comm.size() {
            match comm.send(dest, TAG_STOP, &[]) {
                Ok(()) | Err(MpiError::Disconnected) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.stopping = true;
        Ok(())
    }
}

/// What one averaging pass produced.
pub(super) struct Averaged {
    pub(super) total: MatrixAccumulator,
    pub(super) summary: MatrixSummary,
    /// Mean compute time per new realization (the paper's τ_ζ).
    pub(super) mean_time: f64,
    /// The largest error bar — infinite while the sample is too small
    /// to have one — for error-controlled stopping.
    eps_max: f64,
}

impl Collector {
    /// Save-point: average everything received so far and rewrite the
    /// result files (the paper's "periodically calculates and saves in
    /// files the subtotal results").
    pub(super) fn save_point<R: ?Sized>(
        &mut self,
        ctx: &RunCtx<'_, R>,
        spans: &SpanEmitter,
    ) -> Result<Averaged, ParmoncError> {
        let RunCtx {
            config,
            dir,
            monitor,
            ..
        } = *ctx;
        let state = &self.state;
        let sp_merge = spans.start(SpanPhase::CollectorMerge, None);
        let pass_started = Instant::now();
        let max_age = state.max_snapshot_age();
        let total = state.total()?;
        let summary = total.summary();
        let new_volume = state.new_volume();
        let mean_time = if new_volume == 0 {
            0.0
        } else {
            state.compute_seconds() / new_volume as f64
        };
        let log = LogReport {
            sample_volume: total.count(),
            mean_time_per_realization: mean_time,
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: config.processors,
            seqnum: config.seqnum,
        };
        let save_started = Instant::now();
        let sp_ck = spans.start(SpanPhase::Checkpoint, Some(sp_merge));
        dir.save_point(&summary, &log, &total)?;
        spans.end(sp_ck, SpanPhase::Checkpoint);
        if monitor.is_enabled() {
            monitor.emit(
                Some(0),
                EventKind::SavePoint {
                    volume: total.count(),
                    duration_seconds: save_started.elapsed().as_secs_f64(),
                },
            );
            monitor.emit(
                Some(0),
                EventKind::AveragingPass {
                    volume: total.count(),
                    duration_seconds: pass_started.elapsed().as_secs_f64(),
                    eps_max: Some(summary.eps_max),
                    max_snapshot_age_seconds: max_age,
                },
            );
        }
        spans.end(sp_merge, SpanPhase::CollectorMerge);
        // A near-empty sample reports eps_max = 0 vacuously; never let it
        // trigger error-controlled stopping.
        let eps_max = if total.count() < 2 {
            f64::INFINITY
        } else {
            summary.eps_max
        };
        if monitor.is_enabled() {
            self.convergence.observe(
                monitor,
                Some(0),
                total.count(),
                &summary.means,
                &summary.abs_errors,
                eps_max,
            );
        }
        self.last_average = Instant::now();
        Ok(Averaged {
            total,
            summary,
            mean_time,
            eps_max,
        })
    }
}

/// Rank 0's side of the run: the collector, fed from the inbox between
/// rank 0's own realizations and then until every live worker's final
/// is in. Its timeline is spans: `realization_batch` while it
/// simulates, `collector_merge` / `checkpoint` while it saves, and
/// `inbox_wait` / `inbox_drain` while it waits on and folds the inbox.
struct Rank0<'a, C: Comm, R: ?Sized> {
    ctx: &'a RunCtx<'a, R>,
    comm: &'a mut C,
    collector: Collector,
    spans: &'a SpanEmitter,
}

impl<C: Comm, R: ?Sized> Rank0<'_, C, R> {
    /// A periodic save-point (every `peraver`), if one is due at `now`.
    /// Rank 0's running subtotal `own` must be visible to it (and to
    /// the error-control check behind it) even between offers; after
    /// rank 0's final offer there is nothing to refresh.
    fn average_if_due(&mut self, own: Option<&Subtotal>, now: Instant) -> Result<(), ParmoncError> {
        if !self.collector.averaging_due(self.ctx.config, now) {
            return Ok(());
        }
        if let Some(own) = own {
            self.collector.state.update_own(own, now);
        }
        let eps_max = self.collector.save_point(self.ctx, self.spans)?.eps_max;
        self.collector
            .stop_if_converged(self.ctx.config, &*self.comm, eps_max)
    }

    /// Waits for every *live* worker's final message, sweeping for dead
    /// ranks between arrivals instead of blocking forever, and waking
    /// when a state falls due for the writer. Returns
    /// `true` as soon as a reassignment lands on the collector itself —
    /// there is simulating to do — and `false` once nobody is awaited.
    fn wait_for_finals(&mut self) -> Result<bool, ParmoncError> {
        let ctx = self.ctx;
        let sweep = ctx.config.heartbeat_period;
        let mut now = Instant::now();
        loop {
            let collector = &mut self.collector;
            if collector.live.self_extra > 0 {
                return Ok(true);
            }
            let mut awaited = collector.finals.iter().zip(&collector.live.alive);
            if !awaited.any(|(f, a)| *a && !*f) {
                return Ok(false);
            }
            let timeout = ctx
                .states
                .next_due()
                .map_or(sweep, |due| sweep.min(due.saturating_duration_since(now)));
            let sp_wait = self.spans.start(SpanPhase::InboxWait, None);
            let received = self.comm.recv_timeout(None, None, timeout);
            self.spans.end(sp_wait, SpanPhase::InboxWait);
            // The turn's one clock read: the fold, the sweep, the writer
            // and the save-point all run as of it.
            now = Instant::now();
            ctx.states.start_if_due(now)?;
            let all_gone = match received {
                Ok(Some(env)) => {
                    let sp_drain = self.spans.start(SpanPhase::InboxDrain, None);
                    collector.handle(ctx, &*self.comm, env, now)?;
                    self.spans.end(sp_drain, SpanPhase::InboxDrain);
                    false
                }
                Ok(None) => false,
                // Every rank that could still send has exited: nothing more
                // can arrive, so every awaited rank is dead right now.
                Err(MpiError::Disconnected) => true,
                Err(e) => return Err(e.into()),
            };
            collector.check_liveness(ctx, &*self.comm, all_gone, now)?;
            self.average_if_due(None, now)?;
        }
    }

    /// Folds every message waiting in the inbox into the collector, as
    /// of `now`. A drain that received something is an `inbox_drain`
    /// span from `now` on, emitted once it is over; an empty one reads
    /// no clock and emits nothing.
    fn drain_inbox(&mut self, now: Instant) -> Result<(), ParmoncError> {
        let mut received = false;
        while let Some(env) = self.comm.try_recv(None, None) {
            self.collector.handle(self.ctx, &*self.comm, env, now)?;
            received = true;
        }
        if received && self.spans.is_enabled() {
            let end_s = self.ctx.monitor.elapsed_s();
            let start_s = end_s - now.elapsed().as_secs_f64();
            self.spans.closed_at(SpanPhase::InboxDrain, start_s, end_s);
        }
        Ok(())
    }
}

impl<C: Comm, R: ?Sized> Role for Rank0<'_, C, R> {
    /// Rank 0's subtotal goes nowhere. Only the final refreshes the
    /// collector's snapshot of rank 0: nothing reads that snapshot
    /// between save-points, and [`Rank0::average_if_due`] refreshes it
    /// before each one, so copying the matrices on every offer would
    /// be wasted.
    fn offer(&mut self, own: &Subtotal, now: Instant, is_final: bool) -> Result<(), ParmoncError> {
        if is_final {
            self.collector.state.update_own(own, now);
            self.collector.finals[0] = true;
        }
        Ok(())
    }

    /// The collector's duties between rank 0's realizations: drain the
    /// asynchronously arriving worker messages, sweep for ranks gone
    /// quiet, start the state writer once a state is due for it, write
    /// a save-point if one is due — and hand rank 0 the
    /// work reassigned to the collector itself, which it simulates on
    /// its own stream coordinates past its original quota, so no
    /// subsequence is reused.
    fn poll(&mut self, own: &Subtotal, now: Instant) -> Result<Control, ParmoncError> {
        self.drain_inbox(now)?;
        self.collector
            .check_liveness(self.ctx, &*self.comm, false, now)?;
        self.ctx.states.start_if_due(now)?;
        self.average_if_due(Some(own), now)?;
        Ok(Control {
            stop: self.collector.stopping,
            extra: std::mem::take(&mut self.collector.live.self_extra),
        })
    }
}

/// Rank 0 is a rank like any other that also collects: it simulates its
/// quota through [`simulate_quota`], then waits for the workers' finals
/// — going back into the same loop, on the same stream coordinates,
/// whenever a lost rank's budget lands on the collector itself
/// meanwhile. `resume_own` is where a crash-resume starts it: rank 0's
/// own progress comes back from its state file exactly like any other
/// rank's.
pub(super) fn rank0_loop<C: Comm, R: Realize + ?Sized>(
    ctx: &RunCtx<'_, R>,
    comm: &mut C,
    baseline: MatrixAccumulator,
    resume_own: Option<Subtotal>,
) -> Result<Collector, ParmoncError> {
    let spans = SpanEmitter::new(ctx.monitor, 0, ctx.config.trace_spans);
    let mut sim = RealizationLoop::new(ctx, 0, resume_own, &spans)?;
    let mut rank0 = Rank0 {
        ctx,
        collector: Collector::new(ctx.config, baseline, comm.size()),
        comm,
        spans: &spans,
    };
    loop {
        if let Some(after) = simulate_quota(ctx, &mut sim, &mut rank0)? {
            // Scripted collector crash: vanish abruptly — no stop
            // broadcast, no final save-point. Workers ride out the
            // outage on their reconnect backoff; the last save-point,
            // lease table, and worker files on disk are exactly what a
            // `resume_listen` restart picks up.
            return Err(ParmoncError::CollectorCrashed { after });
        }
        if !rank0.wait_for_finals()? {
            break;
        }
    }
    // Stragglers: a rank declared lost may have sent on, and its newest
    // cumulative subtotal is authoritative; `handle` drops what is stale.
    rank0.drain_inbox(Instant::now())?;
    Ok(rank0.collector)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use parmonc_mpi::World;
    use parmonc_obs::{Event, MemorySink, Monitor};
    use parmonc_rng::StreamHierarchy;

    use super::*;
    use crate::config::Exchange;
    use crate::error::ParmoncError;
    use crate::files::{ResultsDir, StateWriter};
    use crate::messages::TAG_SUBTOTAL;
    use crate::runner::tests::{serial_merge, tempdir, uniform_mean};
    use crate::runner::Parmonc;

    /// Rank 0's non-final offers leave its snapshot alone. A save-point
    /// taken between two of them still folds every realization rank 0
    /// has made, and the final offer leaves the snapshot equal to rank
    /// 0's subtotal.
    #[test]
    fn a_save_point_between_rank0_offers_folds_all_of_rank0() {
        let dir = tempdir("rank0-own");
        let config = Parmonc::builder(1, 1)
            .max_sample_volume(100)
            .processors(1)
            .averaging_period(Duration::ZERO)
            .output_dir(&dir)
            .build()
            .unwrap();
        let faults = config.faults.build();
        let realize = uniform_mean();
        let dir = ResultsDir::create(&config.output_dir).unwrap();
        let ctx: RunCtx<'_, dyn Realize> = RunCtx {
            config: &config,
            hierarchy: &StreamHierarchy::new(config.leaps),
            dir: &dir,
            realize: &realize,
            states: &StateWriter::new(dir.clone(), 1),
            monitor: &Monitor::disabled(),
            faults: &faults,
            start: Instant::now(),
        };
        let mut comm = World::communicators(1).unwrap().pop().unwrap();
        let spans = SpanEmitter::disabled();
        let mut rank0 = Rank0 {
            ctx: &ctx,
            comm: &mut comm,
            collector: Collector::new(&config, MatrixAccumulator::new(1, 1).unwrap(), 1),
            spans: &spans,
        };
        let mut own = Subtotal {
            acc: MatrixAccumulator::new(1, 1).unwrap(),
            compute_seconds: 0.0,
        };
        let realization = |own: &mut Subtotal, v: f64| {
            own.acc.add(&[v]).unwrap();
            own.compute_seconds += 1e-6;
        };

        realization(&mut own, 0.25);
        rank0.offer(&own, Instant::now(), false).unwrap();
        realization(&mut own, 0.5);
        realization(&mut own, 0.75);
        // With a zero averaging period every poll writes a save-point.
        rank0.poll(&own, Instant::now()).unwrap();
        let saved = ctx.dir.load_checkpoint().unwrap().expect("a save-point");
        assert_eq!(saved, own.acc);

        realization(&mut own, 1.0);
        rank0.offer(&own, Instant::now(), false).unwrap();
        realization(&mut own, 0.125);
        rank0.offer(&own, Instant::now(), true).unwrap();
        let snapshot = rank0.collector.state.latest[0].as_ref().unwrap();
        assert_eq!(snapshot.acc, own.acc);
        assert_eq!(snapshot.compute_seconds, own.compute_seconds);
        assert!(rank0.collector.finals[0]);
    }

    /// Rank 0's inbox on its timeline: a poll that folds a message is
    /// one `inbox_drain` span, a poll over an empty inbox is none, and
    /// waiting for a final is an `inbox_wait` and then an
    /// `inbox_drain`. With spans off neither phase appears.
    #[test]
    fn rank0_inbox_shows_as_wait_and_drain_spans() {
        /// The phases of the spans rank 0 closed in each of three steps
        /// (a poll that folds, an empty poll, a wait for the final),
        /// and the whole trace.
        fn inbox_steps(trace_spans: bool) -> (Vec<Vec<SpanPhase>>, Vec<Event>) {
            let dir = tempdir(&format!("rank0-inbox-{trace_spans}"));
            let config = Parmonc::builder(1, 1)
                .max_sample_volume(100)
                .processors(2)
                .output_dir(&dir)
                .build()
                .unwrap();
            let faults = config.faults.build();
            let realize = uniform_mean();
            let sink = Arc::new(MemorySink::new());
            let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
            let dir = ResultsDir::create(&config.output_dir).unwrap();
            let ctx: RunCtx<'_, dyn Realize> = RunCtx {
                config: &config,
                hierarchy: &StreamHierarchy::new(config.leaps),
                dir: &dir,
                realize: &realize,
                states: &StateWriter::new(dir.clone(), 2),
                monitor: &monitor,
                faults: &faults,
                start: Instant::now(),
            };
            let mut world = World::communicators(2).unwrap();
            let worker = world.pop().unwrap();
            let mut comm = world.pop().unwrap();
            let spans = SpanEmitter::new(&monitor, 0, trace_spans);
            let mut rank0 = Rank0 {
                ctx: &ctx,
                comm: &mut comm,
                collector: Collector::new(&config, MatrixAccumulator::new(1, 1).unwrap(), 2),
                spans: &spans,
            };
            let own = Subtotal {
                acc: MatrixAccumulator::new(1, 1).unwrap(),
                compute_seconds: 0.0,
            };
            let mut sub = own.clone();
            sub.acc.add(&[0.5]).unwrap();
            let mut seen = 0;
            let mut closed_since = || {
                let events = sink.snapshot();
                let phases = events[seen..]
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::SpanEnded { phase, .. } if e.rank == Some(0) => Some(phase),
                        _ => None,
                    })
                    .collect();
                seen = events.len();
                phases
            };

            worker.send(0, TAG_SUBTOTAL, &sub.encode()).unwrap();
            rank0.poll(&own, Instant::now()).unwrap();
            let folded = closed_since();
            rank0.poll(&own, Instant::now()).unwrap();
            let empty = closed_since();
            rank0.offer(&own, Instant::now(), true).unwrap();
            worker.send(0, TAG_FINAL, &sub.encode()).unwrap();
            assert!(!rank0.wait_for_finals().unwrap(), "nobody left to await");
            let waited = closed_since();
            assert_eq!(rank0.collector.state.latest[1].as_ref(), Some(&sub));
            (vec![folded, empty, waited], sink.snapshot())
        }

        let (steps, events) = inbox_steps(true);
        assert_eq!(
            steps,
            [
                vec![SpanPhase::InboxDrain],
                vec![],
                vec![SpanPhase::InboxWait, SpanPhase::InboxDrain],
            ]
        );
        for event in &events {
            parmonc_obs::schema::validate_line(&event.to_json_line()).unwrap();
        }
        let (steps, plain) = inbox_steps(false);
        assert_eq!(steps, [vec![], vec![], vec![]]);
        assert!(!plain.iter().any(|e| matches!(
            e.kind,
            EventKind::SpanStarted { .. } | EventKind::SpanEnded { .. }
        )));
    }

    #[test]
    fn error_controlled_stopping_halts_before_maxsv() {
        // eps for U(0,1) is 3*sqrt(1/12)/sqrt(L) ≈ 0.866/sqrt(L):
        // target 0.02 needs L ≈ 1900 — far below maxsv = 10^6.
        let dir = tempdir("error-stop");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1_000_000)
            .processors(2)
            .target_abs_error(0.02)
            .pass_period(Duration::ZERO)
            .averaging_period(Duration::ZERO)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert!(
            report.new_volume < 1_000_000,
            "must stop early, got {}",
            report.new_volume
        );
        assert!(
            report.new_volume >= 1_000,
            "needs enough data for the target"
        );
        assert!(
            report.summary.eps_max <= 0.021,
            "target met: eps {}",
            report.summary.eps_max
        );
    }

    #[test]
    fn error_target_unreachable_runs_to_maxsv() {
        let dir = tempdir("error-stop-never");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2_000)
            .processors(2)
            .target_abs_error(1e-12)
            .pass_period(Duration::ZERO)
            .averaging_period(Duration::ZERO)
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.new_volume, 2_000);
    }

    #[test]
    fn worker_crash_degrades_gracefully() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(42).crash_rank(2, 10))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        assert_eq!(report.lost_workers, vec![2]);
        // The rank crashed after exactly its scripted ten realizations;
        // how many of them the last subtotal it shipped held is the
        // governor's business, and what it did not deliver of its quota
        // of 500 was made up elsewhere.
        assert!(
            report.worker_volumes[2] <= 10,
            "{:?}",
            report.worker_volumes
        );
        assert_eq!(
            report.worker_volumes[2] + report.reassigned_realizations,
            500
        );
        assert_eq!(report.new_volume, 2000);
        assert!((report.summary.means[0] - 0.5).abs() < 0.05);
        // Degraded, the run is still the same estimator: the serial
        // merge of the streams it says contributed.
        assert_eq!(
            report.summary,
            serial_merge(0, (1, 1), &report.worker_volumes)
        );
    }

    #[test]
    fn worker_loss_can_fail_the_run() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash-strict");
        let err = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .faults(FaultPlan::new(42).crash_rank(2, 10))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .fail_on_worker_loss()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap_err();
        assert!(matches!(err, ParmoncError::WorkerLost { rank: 2, .. }));
    }

    #[test]
    fn crash_run_emits_fault_events() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("crash-monitored");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(1200)
            .processors(3)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(9).crash_rank(1, 5))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .monitor()
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        let summary = report.monitor.expect("monitored run");
        assert_eq!(summary.workers_lost, 1);
        assert!(summary.faults_injected >= 1, "rank_crash must be recorded");
        // The first offer always ships; the rest, up to the scripted
        // five realizations, are the governor's to withhold.
        let delivered = report.worker_volumes[1];
        assert!((1..=5).contains(&delivered), "{delivered} delivered");
        assert_eq!(summary.ranks[&1].realizations, delivered);
        assert!(summary.ranks[&1].messages_sent >= 1);
        assert_eq!(summary.reassigned_realizations, 400 - delivered);
        assert_eq!(report.new_volume, 1200);
    }

    #[test]
    fn message_drops_do_not_bias_the_estimate() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("drops");
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2000)
            .processors(4)
            .exchange(Exchange::EveryRealization)
            .faults(FaultPlan::new(1234).drop_fraction(0.05))
            .heartbeat_period(Duration::from_millis(10))
            .liveness_timeout(Duration::from_millis(100))
            .output_dir(&dir)
            .run(uniform_mean())
            .unwrap();
        // Cumulative subtotals make drops harmless; lost finals are
        // detected and their shortfall re-simulated, so the volume can
        // only meet or (via duplicated extensions) exceed the target.
        assert!(
            report.new_volume >= 2000,
            "volume {} must reach the target",
            report.new_volume
        );
        assert!((report.summary.means[0] - 0.5).abs() < 0.05);
        assert_eq!(
            report.summary,
            serial_merge(0, (1, 1), &report.worker_volumes)
        );
    }
}
