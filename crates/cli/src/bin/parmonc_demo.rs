//! `parmonc-demo <pi|transport|queue> [volume] [processors] [dir]
//! [--monitor] [--transport threads|processes|tcp] [--listen host:port]
//! [--join host:port]` — runs a bundled workload through the full
//! PARMONC pipeline and prints the averaged results; with `--monitor`,
//! also records a run trace and prints the monitor summary table.
//! `--transport processes` runs the workers as separate OS processes
//! over Unix-domain sockets instead of threads. `--listen` starts a
//! TCP collector waiting for remote workers, and `--join` runs this
//! process as one such worker (started with the same positional
//! arguments, so both sides agree on the configuration; see
//! `docs/cluster.md`). `--resume-listen` restarts a *crashed* TCP
//! collector: the session epoch and lease table are reloaded from the
//! output directory and the surviving workers rejoin with their ranks
//! intact (runbook in `docs/cluster.md`).

use std::process::ExitCode;

use parmonc::prelude::{NetOptions, Parmonc, ParmoncBuilder, ParmoncError, RunReport};
use parmonc_apps::{MM1Queue, PiEstimator, SlabTransport};
use parmonc_cli::{exit_code_for, parse_demo_args, DemoArgs, DemoWorkload};

fn builder_for(args: &DemoArgs, ncol: usize) -> ParmoncBuilder {
    let mut b = Parmonc::builder(1, ncol)
        .max_sample_volume(args.volume)
        .processors(args.processors)
        .transport(args.transport)
        .output_dir(&args.dir);
    if let Some(addr) = &args.listen {
        b = b.net(NetOptions::listen(addr.clone()));
    }
    if let Some(addr) = &args.join {
        b = b.net(NetOptions::join(addr.clone()));
    }
    if let Some(addr) = &args.resume_listen {
        b = b.net(NetOptions::resume_listen(addr.clone()));
    }
    if args.monitor {
        b = b.monitor();
    }
    if args.spans {
        b = b.trace_spans();
    }
    if args.skew_s != 0.0 {
        b = b.clock_skew(args.skew_s);
    }
    b
}

fn run(args: &DemoArgs) -> Result<(RunReport, Vec<&'static str>), ParmoncError> {
    let builder = |ncol: usize| builder_for(args, ncol);
    match args.workload {
        DemoWorkload::Pi => Ok((builder(1).run(PiEstimator)?, vec!["pi"])),
        DemoWorkload::Transport => Ok((
            builder(3).run(SlabTransport::new(2.0, 1.0, 0.3))?,
            vec!["P(transmit)", "P(reflect)", "P(absorb)"],
        )),
        DemoWorkload::Queue => Ok((
            builder(2).run(MM1Queue::new(0.5, 1.0, 5_000, 500))?,
            vec!["E[wait]", "P(delayed)"],
        )),
    }
}

fn run_worker(args: &DemoArgs) -> Result<(), ParmoncError> {
    let builder = |ncol: usize| builder_for(args, ncol);
    match args.workload {
        DemoWorkload::Pi => builder(1).run_worker(PiEstimator),
        DemoWorkload::Transport => builder(3).run_worker(SlabTransport::new(2.0, 1.0, 0.3)),
        DemoWorkload::Queue => builder(2).run_worker(MM1Queue::new(0.5, 1.0, 5_000, 500)),
    }
}

fn main() -> ExitCode {
    let args = match parse_demo_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.join.is_some() {
        return match run_worker(&args) {
            Ok(()) => {
                println!("worker done");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("parmonc-demo worker: {e}");
                ExitCode::from(exit_code_for(&e))
            }
        };
    }
    match run(&args) {
        Ok((report, labels)) => {
            println!(
                "L = {} realizations on {} processors in {:.2?} (tau = {:.3e} s)",
                report.total_volume,
                report.processors,
                report.elapsed,
                report.mean_time_per_realization
            );
            for (j, label) in labels.iter().enumerate() {
                println!(
                    "{label:>12} = {:.6} ± {:.6} ({:.3}%)",
                    report.summary.means[j],
                    report.summary.abs_errors[j],
                    report.summary.rel_errors_percent[j]
                );
            }
            println!("results in {}", report.results_dir.root().display());
            if let Some(summary) = &report.monitor {
                println!();
                println!("{}", summary.render_table());
                println!(
                    "event trace in {}",
                    report.results_dir.run_metrics_path().display()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("parmonc-demo: {e}");
            ExitCode::from(exit_code_for(&e))
        }
    }
}
