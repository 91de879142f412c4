//! The paper's evaluation claims (Section 4, Fig. 2) as executable
//! assertions on the thread runner that ships, plus the capacity claims
//! of Section 2.4.
//!
//! The paper's realization is τ = 7.7 s of CPU; here the routine sleeps
//! τ = 20 ms and then fills the paper's 1000 × 2 output from its stream,
//! so a subtotal is the size the paper's program sends. A sleeping rank
//! costs no CPU, so M = 64 ranks fit on a two-core box and still run
//! through the real collector, mailboxes, exchange governor and
//! save-point files. `fig2_threads` runs the same routine up to M = 512.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use parmonc::messages::{TAG_FINAL, TAG_SUBTOTAL};
use parmonc::prelude::{Exchange, Parmonc, RealizeFn, RunReport};
use parmonc_obs::{Event, EventKind};

const TAU: Duration = Duration::from_millis(20);
const PER_RANK: u64 = 40;

/// Runs one at a time: the ranks sleep, but their fills, encodes and
/// wake-ups share the box's cores, and a second run beside them would
/// be measured too.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A finished sleeping run.
struct SleepingRun {
    report: RunReport,
    /// The run's event trace; empty unless monitored.
    events: Vec<Event>,
    /// Mean wall time of one call of the routine, by its own clock.
    routine_seconds: f64,
}

/// One strict-exchange star run of [`PER_RANK`] sleeping realizations
/// on each of `m` ranks.
fn sleeping_run(name: &str, m: usize, monitor: bool) -> SleepingRun {
    let _alone = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("parmonc-fig2-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = Parmonc::builder(1000, 2)
        .max_sample_volume(PER_RANK * m as u64)
        .processors(m)
        .exchange(Exchange::EveryRealization)
        // The exchange governor holds the next offer for 8 × what the
        // last exchange cost, capped at the heartbeat period. With the
        // cap below τ every offer ships, as in the paper's program; with
        // the default 250 ms, a rank stalled ≈ 20 ms inside one exchange
        // (64 ranks sharing a two-core box) withholds up to 7 offers.
        .heartbeat_period(TAU / 2)
        .output_dir(&dir);
    let builder = if monitor { builder.monitor() } else { builder };
    let routine_nanos = AtomicU64::new(0);
    let report = builder
        .run(RealizeFn::new(|rng, out| {
            let start = Instant::now();
            std::thread::sleep(TAU);
            rng.fill_f64(out);
            routine_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }))
        .unwrap();
    let events = if monitor {
        std::fs::read_to_string(report.results_dir.run_metrics_path())
            .unwrap()
            .lines()
            .map(|line| parmonc_obs::schema::parse_line(line).unwrap())
            .collect()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.new_volume, PER_RANK * m as u64);
    let routine_seconds = routine_nanos.into_inner() as f64 * 1e-9 / report.new_volume as f64;
    SleepingRun {
        report,
        events,
        routine_seconds,
    }
}

#[test]
fn mean_realization_time_matches_tau() {
    // The paper's τ_ζ is what `func_log.dat` reports: on one rank the
    // timed interval is the routine itself, a sleep of τ plus a
    // 2000-value fill. It is bounded by the routine's own clock, not by
    // τ: while the host gives the box about one core, a sleep overshoots
    // by milliseconds (routine means of 22.9–28.3 ms in 5 of 30 runs).
    let run = sleeping_run("tau", 1, false);
    let (tau, routine) = (TAU.as_secs_f64(), run.routine_seconds);
    let measured = run.report.mean_time_per_realization;
    assert!(
        routine >= tau,
        "routine mean {routine} s against tau {tau} s"
    );
    assert!(
        (routine..=1.1 * routine).contains(&measured),
        "mean time per realization {measured} s against the routine's own {routine} s"
    );
}

#[test]
fn figure2_panels_reproduce_linear_speedup() {
    // "for all the values of L the speedup of parallelization is in
    // direct proportion to the number of processors despite 'strict'
    // conditions related to data exchange." Measured at M = 64 under
    // strict exchange: each rank's wall stays close to its own
    // PER_RANK · τ. In 45 runs of this file, with `regime_probe`
    // reading 1.02–2.09 (two cores and about one), the efficiency was
    // 0.66–0.89; the floor is about three quarters of that minimum.
    let wall = sleeping_run("speedup", 64, false).report.elapsed;
    let eff = PER_RANK as f64 * TAU.as_secs_f64() / wall.as_secs_f64();
    assert!(eff >= 0.5, "efficiency {eff:.3} at M = 64");
}

#[test]
fn strict_exchange_sends_one_message_per_realization() {
    // "All the processors sent data to the 0-th processor after having
    // simulated each realization": the first PER_RANK − 1 subtotals as
    // offers, the last as the final. Heartbeats are not data: one goes
    // out just before the final, a full τ after the last offer.
    let run = sleeping_run("messages", 64, true);
    let data_sent = |rank: usize| {
        run.events
            .iter()
            .filter(|e| {
                e.rank == Some(rank)
                    && matches!(e.kind, EventKind::MessageSent { tag, .. }
                        if tag == TAG_SUBTOTAL.0 || tag == TAG_FINAL.0)
            })
            .count() as u64
    };
    for rank in 1..64 {
        assert_eq!(run.report.worker_volumes[rank], PER_RANK, "rank {rank}");
        assert_eq!(
            data_sent(rank),
            PER_RANK,
            "rank {rank}: subtotals sent for {PER_RANK} realizations"
        );
    }
}

mod capacity_claims {
    //! Section 2.4's quantitative claims, verified against the RNG
    //! crate from the integration side.
    use parmonc_rng::multiplier::{order_exponent, DEFAULT_MULTIPLIER};
    use parmonc_rng::LeapConfig;

    #[test]
    fn period_is_2_pow_126() {
        assert_eq!(order_exponent(DEFAULT_MULTIPLIER), Some(126));
    }

    #[test]
    fn hierarchy_supports_paper_counts() {
        // ~10^3 experiments, ~10^5 processors, ~10^16 realizations.
        let c = LeapConfig::default();
        assert_eq!(c.experiments(), 1 << 10); // ≈ 10^3
        assert_eq!(c.processors(), 1 << 17); // ≈ 1.3·10^5
        assert_eq!(c.realizations(), 1 << 55); // ≈ 3.6·10^16
                                               // And one realization may draw 2^43 ≈ 8.8·10^12 numbers —
                                               // more than the *entire period* of the 40-bit generator the
                                               // paper cites as insufficient (2^38 ≈ 2.7·10^11).
        assert!(1u128 << c.nr() > 1u128 << 38);
    }
}
