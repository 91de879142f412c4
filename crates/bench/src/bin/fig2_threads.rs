//! The paper's performance test (Section 4, Fig. 2) on the runner that
//! ships, at the paper's processor counts.
//!
//! The paper's realization is τ = 7.7 s of CPU on a processor of its
//! own. Here the user routine *sleeps* τ instead, then fills its
//! 1000 × 2 output from its stream, so every subtotal is the size the
//! paper's program sends. A sleeping rank costs no CPU, so hundreds of
//! ranks fit on a few cores, and each run still goes through the real
//! thread-backend collector, mailboxes, exchange governor and
//! save-point files.
//!
//! The grid is fixed: M ∈ {1, 8, 64, 128, 256, 512}, strict
//! ([`Exchange::EveryRealization`]) and periodic exchange,
//! τ ∈ {200, 50, 10, 2} ms. Each cell runs two lengths, `l_per_proc / 2`
//! and `l_per_proc` realizations per rank (L = n · M), and fits
//! wall = fixed + n · round through the two points. Efficiency is the per-rank ideal n · τ over `report.elapsed`.
//! Beside each wall, `files@n` is the number of state files
//! (`workers/worker_NNNN.dat`) that run wrote.
//!
//! ```text
//! fig2_threads [max_procs] [l_per_proc] [--monitor]
//! ```
//!
//! `max_procs` (default 512) drops the larger M; `l_per_proc` defaults
//! to 40. With `PARMONC_BENCH_JSON` set, each cell's record
//! (`efficiency_short`, `efficiency_long`, `fixed_s`, `round_s`) is
//! merged into that file under
//! `fig2_threads/tau<τ>ms/m<M>/star/<strict|periodic>/` (the `star`
//! segment keeps the keys of earlier recordings); run
//! `regime_probe` with the same file first to record the box's regime
//! beside them.
//! With `--monitor`, each run records its observability trace and the
//! last run's monitor summary table is printed after the grid.

use std::process::ExitCode;
use std::time::Duration;

use parmonc::prelude::{Exchange, Parmonc, ParmoncError, RealizeFn, RunReport};
use parmonc_bench::harness::{record_metric, write_json_if_requested};

const PROCESSORS: [usize; 6] = [1, 8, 64, 128, 256, 512];
const TAUS_MS: [u64; 4] = [200, 50, 10, 2];

/// One run of `per_rank` realizations on each of `m` ranks.
fn run(
    m: usize,
    per_rank: u64,
    tau: Duration,
    exchange: Exchange,
    monitor: bool,
) -> Result<RunReport, ParmoncError> {
    let dir = std::env::temp_dir().join(format!("parmonc-fig2-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = Parmonc::builder(1000, 2)
        .max_sample_volume(per_rank * m as u64)
        .processors(m)
        .exchange(exchange)
        .output_dir(&dir);
    if monitor {
        builder = builder.monitor();
    }
    let report = builder.run(RealizeFn::new(move |rng, out| {
        std::thread::sleep(tau);
        rng.fill_f64(out);
    }));
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let before = args.len();
    args.retain(|a| a != "--monitor");
    let monitor = args.len() < before;
    let max_procs: usize = args.first().map_or(512, |s| s.parse().unwrap_or(512));
    let long: u64 = args.get(1).map_or(40, |s| s.parse().unwrap_or(40)).max(2);
    let short = long / 2;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fig2 on the thread runner: the routine sleeps tau, then fills 1000x2; \
         {short} and {long} realizations per rank; host has {cores} core(s)"
    );
    println!(
        "{:>6} {:>4} {:>8} {:>9} {:>8} {:>9} {:>8} {:>7} {:>7} {:>9} {:>10}",
        "tau_ms",
        "M",
        "exchange",
        format!("wall@{short}"),
        format!("files@{short}"),
        format!("wall@{long}"),
        format!("files@{long}"),
        format!("eff@{short}"),
        format!("eff@{long}"),
        "fixed_s",
        "round_ms"
    );

    let mut failed = false;
    let mut last_summary = None;
    for tau_ms in TAUS_MS {
        let tau = Duration::from_millis(tau_ms);
        for m in PROCESSORS.into_iter().filter(|&m| m <= max_procs) {
            for (exch, exchange) in [
                ("strict", Exchange::EveryRealization),
                ("periodic", Exchange::Periodic),
            ] {
                let (mut walls, mut files) = ([0.0f64; 2], [0u64; 2]);
                for ((wall, written), n) in walls.iter_mut().zip(&mut files).zip([short, long]) {
                    match run(m, n, tau, exchange, monitor) {
                        Ok(report) => {
                            *wall = report.elapsed.as_secs_f64();
                            *written = report.state_files_written;
                            last_summary = report.monitor;
                        }
                        Err(e) => {
                            eprintln!("tau {tau_ms} ms, M = {m}, {exch}, n = {n}: {e}");
                            failed = true;
                        }
                    }
                }
                let efficiency = |wall: f64, n: u64| n as f64 * tau.as_secs_f64() / wall;
                let (eff_short, eff_long) =
                    (efficiency(walls[0], short), efficiency(walls[1], long));
                let round = (walls[1] - walls[0]) / (long - short) as f64;
                let fixed = walls[0] - short as f64 * round;
                println!(
                    "{tau_ms:>6} {m:>4} {exch:>8} {:>9.3} {:>8} {:>9.3} {:>8} {eff_short:>7.3} {eff_long:>7.3} {fixed:>9.3} {:>10.2}",
                    walls[0],
                    files[0],
                    walls[1],
                    files[1],
                    round * 1e3
                );
                let key = format!("fig2_threads/tau{tau_ms}ms/m{m}/star/{exch}");
                record_metric(&format!("{key}/efficiency_short"), eff_short);
                record_metric(&format!("{key}/efficiency_long"), eff_long);
                record_metric(&format!("{key}/fixed_s"), fixed);
                record_metric(&format!("{key}/round_s"), round);
            }
        }
    }
    write_json_if_requested();
    if let Some(summary) = last_summary {
        println!("\nmonitor summary of the last run:");
        println!("{}", summary.render_table());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
