//! Save-points, crash recovery and resumption — the operational story
//! of Sections 3.2 and 3.4 in one runnable script.
//!
//! 1. A first job runs with a wall-clock deadline (like a cluster job
//!    limit) and is cut off mid-simulation.
//! 2. `manaver` folds the per-worker subtotal files the dead job left
//!    behind into proper result files.
//! 3. A second job with `res = 1` (and a *fresh* `seqnum`, as the paper
//!    requires) resumes, automatically averaging the previous results.
//!
//! ```text
//! cargo run --release --example resume_manaver [-- --monitor]
//! ```
//!
//! With `--monitor`, both jobs also record an event trace and print
//! the run-monitor summary table.

use std::time::Duration;

use parmonc::prelude::{Parmonc, ParmoncError, RealizeFn, Resume};

fn slow_uniform() -> impl parmonc::Realize + Sync {
    RealizeFn::new(|rng, out| {
        std::thread::sleep(Duration::from_millis(2));
        out[0] = rng.next_f64();
    })
}

fn main() -> Result<(), ParmoncError> {
    let monitor = std::env::args().any(|a| a == "--monitor");
    let dir = std::env::temp_dir().join("parmonc-resume-demo");
    let _ = std::fs::remove_dir_all(&dir);

    // --- job 1: killed by its walltime -----------------------------
    let builder1 = Parmonc::builder(1, 1)
        .max_sample_volume(1_000_000) // "endless" like the paper's 10^9
        .processors(4)
        .seqnum(0)
        .deadline(Duration::from_millis(300))
        .output_dir(&dir);
    let builder1 = if monitor {
        builder1.monitor()
    } else {
        builder1
    };
    let report1 = builder1.run(slow_uniform())?;
    println!(
        "job 1 hit its walltime after {} of 1000000 realizations",
        report1.new_volume
    );

    // --- manaver: recover whatever the workers had ------------------
    // (The run above finished cleanly, so simulate the crash aftermath
    // by re-creating worker subtotal files from its checkpoint halves.)
    let rd = report1.results_dir.clone();
    let ckpt = rd.load_checkpoint()?.expect("job 1 saved a checkpoint");
    rd.save_worker_subtotal(
        0,
        &parmonc::messages::Subtotal {
            acc: ckpt.clone(),
            compute_seconds: 0.1,
        },
    )?;
    // Job 1 was fresh (res = 0), so it left no baseline: manaver's
    // total is the worker files'.
    let mreport = parmonc::manaver::manaver(&dir)?;
    println!(
        "manaver recovered {} realizations from {} worker file(s); mean = {:.6}",
        mreport.recovered_volume, mreport.workers_found, mreport.summary.means[0]
    );

    // --- job 2: res = 1, fresh seqnum -------------------------------
    let builder2 = Parmonc::builder(1, 1)
        .max_sample_volume(500)
        .processors(4)
        .seqnum(1) // must differ from job 1's seqnum
        .resume(Resume::Resume)
        .output_dir(&dir);
    let builder2 = if monitor {
        builder2.monitor()
    } else {
        builder2
    };
    let report2 = builder2.run(slow_uniform())?;
    println!(
        "job 2 resumed {} old + {} new = {} total realizations",
        report2.resumed_volume, report2.new_volume, report2.total_volume
    );
    println!(
        "final estimate of E[U(0,1)]: {:.6} ± {:.6} (exact 0.5)",
        report2.summary.means[0], report2.summary.abs_errors[0]
    );
    assert!((report2.summary.means[0] - 0.5).abs() <= report2.summary.abs_errors[0] + 0.05);
    if let Some(summary) = &report2.monitor {
        println!();
        println!("{}", summary.render_table());
        println!(
            "event trace in {} (metrics in {})",
            report2.results_dir.run_metrics_path().display(),
            report2.results_dir.metrics_prom_path().display()
        );
    }
    Ok(())
}
