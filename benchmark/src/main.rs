//! The repository benchmark: whole-run realizations per second and
//! two-rank efficiency on four workloads, with a per-layer budget timed
//! from outside the program. See `benchmark/README.md`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S | --reps R] [--trace 0|1] [--quick] [--json PATH]
//! ```
//!
//! Without `--workload` every workload runs, each in a re-executed
//! process of this binary so that `VmHWM` is per workload.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod arms;
mod check;
mod layers;
mod procfs;
mod replay;
mod report;
mod summary;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use parmonc::messages::Subtotal;
use parmonc::{LeapConfig, Realize, RunConfig};

use crate::arms::{run_once, Run};
use crate::check::{failure, Expected};
use crate::replay::Replay;
use crate::report::{metrics_json, numbers_json, result_line, strings_json, Metric};
use crate::summary::{fast_half_mean, median, quartiles};
use crate::trace::{coverage, per_call_ns, Span, Tracer};
use crate::workload::{Free, Matrix, Routine, SdePath, Workload, WORKLOADS};

/// Benchmark-internal result: any layer's error, boxed.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Where runs write, relative to the repository root the benchmark is
/// started from. Wiped per workload; listed in `.gitignore`.
const OUT_DIR: &str = "benchmark/out";
/// Minimal runs (L = 2) whose median wall is `setup_s`.
const SETUP_RUNS: usize = 21;
/// Fewest (m=1, m=2) pairs a `--seconds` budget may end after.
const MIN_REPS: usize = 3;
/// (untraced, traced) replay pairs of a `--trace 1` run.
const REPLAY_PAIRS: usize = 5;
/// Repetitions of a `--quick` smoke run.
const QUICK_REPS: usize = 2;

const USAGE: &str = "usage: parmonc-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--reps R] [--trace 0|1] [--quick] [--json PATH]";

/// The command line.
#[derive(Debug)]
struct Options {
    /// Run this workload in this process; `None` runs them all, each
    /// in a child process.
    workload: Option<&'static Workload>,
    /// Becomes the run's `seqnum`: other streams, identical work.
    seed: u64,
    /// Measure (m=1, m=2) pairs until this many seconds have passed.
    seconds: f64,
    /// A fixed number of pairs instead.
    reps: Option<usize>,
    /// Also run the traced replay and the layer timings, and print the
    /// per-layer metrics in the result line.
    trace: bool,
    /// L ÷ 10 and two repetitions: a smoke run, never a recorded one.
    quick: bool,
    /// Write the full record (every metric and every wall time) here.
    json: Option<PathBuf>,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self {
            workload: None,
            seed: 1,
            seconds: 20.0,
            reps: None,
            trace: true,
            quick: false,
            json: None,
        };
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                opts.quick = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    opts.workload = Some(Workload::find(&value).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value:?}; one of {}", names.join(", "))
                    })?);
                }
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad())?;
                    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--reps" => {
                    let reps: usize = value.parse().map_err(|_| bad())?;
                    if reps == 0 {
                        return Err(bad());
                    }
                    opts.reps = Some(reps);
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--json" => opts.json = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
            }
        }
        if opts.quick && opts.reps.is_none() {
            opts.reps = Some(QUICK_REPS);
        }
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload {
        Some(w) => match w.routine {
            Routine::Free => measure(w, &Free, &opts),
            Routine::Matrix => measure(w, &Matrix, &opts),
            Routine::Sde => measure(w, &SdePath::new(), &opts),
        },
        None => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("parmonc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in its own process of this binary, and
/// prints one combined record. True if every workload passed its
/// output check.
fn run_all(opts: &Options) -> Res<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(OUT_DIR)?;
    let mut all_correct = true;
    let mut records = Vec::with_capacity(WORKLOADS.len());
    for w in &WORKLOADS {
        let record = Path::new(OUT_DIR).join(format!("record-{}.json", w.name));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&record);
        if let Some(reps) = opts.reps {
            child.args(["--reps", &reps.to_string()]);
        }
        if opts.quick {
            child.arg("--quick");
        }
        // `status` waits for the child; its output goes straight to ours.
        let status = child.status()?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&record)
            .map_err(|e| format!("{} left no record ({status}): {e}", w.name))?;
        records.push(format!("\"{}\": {}", w.name, text.trim()));
    }
    let combined = format!(
        "{{\"seed\": {}, \"correct\": {all_correct}, \"workloads\": {{{}}}}}",
        opts.seed,
        records.join(", ")
    );
    if let Some(path) = &opts.json {
        std::fs::write(path, format!("{combined}\n"))?;
    }
    println!("{combined}");
    Ok(all_correct)
}

fn walls(runs: &[Run]) -> Vec<f64> {
    runs.iter().map(|r| r.wall_s).collect()
}

/// Prints `name value unit` and a note beside it.
fn print_metric(m: &Metric, note: &str) {
    println!("  {:<28} {:>14.6e} {:<6} {note}", m.name, m.value, m.unit);
}

/// The note beside a value summarized from repeated walls: their
/// median, quartiles and count, each mapped through `scale` into the
/// metric's unit.
fn spread_note(walls: &[f64], scale: impl Fn(f64) -> f64) -> String {
    let (q1, q3) = quartiles(walls);
    let (a, b) = (scale(q1), scale(q3));
    format!(
        "median {:.4e}, quartiles {:.4e} .. {:.4e}, R = {}",
        scale(median(walls)),
        a.min(b),
        a.max(b),
        walls.len()
    )
}

/// What the per-layer metrics need from the arms.
struct ArmWalls {
    /// Wall of the m=1 arm, seconds.
    wall1: f64,
    /// Wall of the m=2 arm, seconds.
    wall2: f64,
    /// Median CPU-busy share of the m=2 runs.
    busy: f64,
}

/// The `--trace 1` part: alternating untraced and traced replays, the
/// layer calls timed alone, and the runner's share by subtraction.
/// Returns the per-layer metrics and the spans of the fastest traced
/// replay.
fn trace_layers<R: Realize>(
    w: &Workload,
    config: &RunConfig,
    realize: &R,
    untraced: &Replay,
    arms: &ArmWalls,
    dir: &Path,
) -> Res<(Vec<Metric>, Vec<Span>)> {
    let l = config.max_sample_volume as f64;
    // Untraced and traced replays alternate; the fastest of each
    // is compared, since noise only ever adds time.
    let mut untraced_wall_s = untraced.wall_s;
    let mut traced = replay::replay(w, config, realize, Tracer::on())?;
    for _ in 1..REPLAY_PAIRS {
        let again = replay::replay(w, config, realize, Tracer::off())?;
        untraced_wall_s = untraced_wall_s.min(again.wall_s);
        let again = replay::replay(w, config, realize, Tracer::on())?;
        if again.wall_s < traced.wall_s {
            traced = again;
        }
    }
    let layer = |name| per_call_ns(&traced.spans, name);
    let compute_ns = layer("rng.position") + layer("realize") + layer("stats.add");
    let (nrow, ncol) = w.shape();
    let payload_bytes = Subtotal::encoded_len(nrow, ncol);
    let (tcp_frame_ns, tcp_mib_per_s) = layers::tcp_frames(payload_bytes)?;
    let files = layers::files(&untraced.total, config, dir)?;
    let steps = w.steps_per_realization();
    let per_layer = vec![
        Metric::new("rng.position_ns", "ns", layer("rng.position")),
        Metric::new(
            "rng.draw_ns_per_value",
            "ns",
            layers::draw_ns_per_value(w, config)?,
        ),
        Metric::new(
            "rng.draws_per_realization",
            "count",
            layers::draws_per_realization(config, realize)?,
        ),
        Metric::new("rng.jump_ns", "ns", layers::jump_ns(config)?),
        Metric::new("realize.ns", "ns", layer("realize")),
        Metric::new(
            "sde.step_ns",
            "ns",
            if steps == 0 {
                0.0
            } else {
                layer("realize") / steps as f64
            },
        ),
        Metric::new("stats.add_ns", "ns", layer("stats.add")),
        Metric::new("stats.merge_ns", "ns", layer("stats.merge")),
        Metric::new("stats.summary_ns", "ns", layer("stats.summary")),
        Metric::new("messages.encode_ns", "ns", layer("messages.encode")),
        Metric::new("messages.decode_ns", "ns", layer("messages.decode")),
        Metric::new("messages.payload_bytes", "bytes", payload_bytes as f64),
        Metric::new("mpi.send_recv_ns", "ns", layer("mpi.send_recv")),
        Metric::new("mpi.pingpong_ns", "ns", layers::pingpong_ns(payload_bytes)?),
        Metric::new("ipc.frame_write_ns", "ns", layer("ipc.frame_write")),
        Metric::new("ipc.frame_read_ns", "ns", layer("ipc.frame_read")),
        Metric::new("ipc.tcp_frame_ns", "ns", tcp_frame_ns),
        Metric::new("ipc.tcp_mib_per_s", "MiB/s", tcp_mib_per_s),
        Metric::new("ipc.listen_join_s", "s", layers::listen_join_s(config)?),
        Metric::new("files.save_results_s", "s", files.save_results_s),
        Metric::new("files.save_checkpoint_s", "s", files.save_checkpoint_s),
        Metric::new("files.load_checkpoint_s", "s", files.load_checkpoint_s),
        Metric::new(
            "files.checkpoint_bytes",
            "bytes",
            files.checkpoint_bytes as f64,
        ),
        Metric::new(
            "config.build_s",
            "s",
            layers::config_build_s(w, config, dir)?,
        ),
        Metric::new(
            "runner.unattributed_ns",
            "ns",
            arms.wall1 * 1e9 / l - compute_ns,
        ),
        Metric::new(
            "runner.parallel_excess_ns",
            "ns",
            (2.0 * arms.wall2 - arms.wall1) * 1e9 / l,
        ),
        Metric::new("runner.cpu_busy_ratio", "ratio", arms.busy),
        Metric::new("replay.ns_per_realization", "ns", untraced_wall_s * 1e9 / l),
        Metric::new("replay.coverage", "ratio", coverage(&traced.spans)),
        Metric::new(
            "replay.trace_overhead_pct",
            "%",
            (traced.wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
        ),
    ];
    Ok((per_layer, traced.spans))
}

/// Measures one workload in this process. True if every run passed the
/// output check.
fn measure<R: Realize + Sync>(w: &Workload, realize: &R, opts: &Options) -> Res<bool> {
    let seqnum = opts.seed % LeapConfig::DEFAULT.experiments();
    let volume = if opts.quick { w.volume / 10 } else { w.volume };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    std::fs::create_dir_all(OUT_DIR)?;
    let dir = Path::new(OUT_DIR).join(format!("run-{}", w.name));
    println!(
        "workload {}: L = {volume}, seed {} (seqnum {seqnum}), B = {}, {cores} cores\n  why: {}",
        w.name, opts.seed, w.block, w.why
    );

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut judge = |label: String, run: &Run, expected: &Expected<'_>| {
        attempted += 1;
        let why = match &run.outcome {
            Ok(observed) => failure(observed, expected),
            Err(e) => Some(e.clone()),
        };
        if let Some(why) = why {
            failures.push(format!("{label}: {why}"));
        }
    };

    // Set-up: minimal two-rank jobs, so that nearly all of the wall is
    // directory creation, jump tables, spawn or listen/join/grant, and
    // the final save with its fsyncs.
    let mut setup_walls = Vec::with_capacity(SETUP_RUNS);
    for i in 0..SETUP_RUNS {
        let run = run_once(w, realize, seqnum, 2, 2, &dir);
        setup_walls.push(run.wall_s);
        let expected = Expected {
            volume: 2,
            first_checkpoint: None,
            serial_means: None,
            exact_mean: None,
        };
        judge(format!("set-up run {i}"), &run, &expected);
    }

    // The arms alternate so that machine drift hits both.
    let mut m1: Vec<Run> = Vec::new();
    let mut m2: Vec<Run> = Vec::new();
    let mut busy = Vec::new();
    let arms_started = Instant::now();
    loop {
        m1.push(run_once(w, realize, seqnum, 1, volume, &dir));
        let cpu_before = procfs::cpu_seconds()?;
        let run = run_once(w, realize, seqnum, 2, volume, &dir);
        busy.push((procfs::cpu_seconds()? - cpu_before) / (2.0 * run.wall_s));
        m2.push(run);
        let done = match opts.reps {
            Some(reps) => m1.len() >= reps,
            None => m1.len() >= MIN_REPS && arms_started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    let peak_rss_mib = procfs::peak_rss_mib()?;
    let _ = std::fs::remove_dir_all(&dir);

    // The serial reference: the same streams, walked by one thread.
    let config = w.builder(seqnum, 2, volume, &dir).build()?;
    let untraced = replay::replay(w, &config, realize, Tracer::off())?;
    let exact = |cell: usize| w.exact_mean(cell);
    for (arm, runs, serial) in [
        ("m=1", &m1, None),
        ("m=2", &m2, Some(untraced.summary.means.as_slice())),
    ] {
        let first = runs[0].outcome.as_ref().ok().map(|o| o.checkpoint.clone());
        for (i, run) in runs.iter().enumerate() {
            let expected = Expected {
                volume,
                first_checkpoint: first.as_deref(),
                serial_means: serial,
                exact_mean: Some(&exact),
            };
            judge(format!("{arm} repetition {i}"), run, &expected);
        }
    }
    let failed = failures.len() as u64;

    let (walls1, walls2) = (walls(&m1), walls(&m2));
    let (wall1, wall2) = (fast_half_mean(&walls1), fast_half_mean(&walls2));
    let l = volume as f64;
    let end_to_end = [
        Metric::new("realizations_per_s", "1/s", l / wall2),
        Metric::new("serial_realizations_per_s", "1/s", l / wall1),
        Metric::new("efficiency_m2", "ratio", wall1 / (2.0 * wall2)),
        Metric::new("setup_s", "s", median(&setup_walls)),
    ];
    // Under strict exchange the collector's inbox backlog, and with it
    // the peak, depends on how the two ranks happened to be scheduled:
    // reported, but not a bounded end-to-end metric.
    let peak_rss = Metric::new("peak_rss_mib", "MiB", peak_rss_mib);
    println!("end to end (no monitor, no spans, no tracing):");
    let rate = |wall: f64| l / wall;
    print_metric(&end_to_end[0], &spread_note(&walls2, rate));
    print_metric(&end_to_end[1], &spread_note(&walls1, rate));
    print_metric(&end_to_end[2], "");
    print_metric(&end_to_end[3], &spread_note(&setup_walls, |wall| wall));
    print_metric(&peak_rss, "");
    println!(
        "  {:<28} {:>14.6e} ratio  {failed} of {attempted} runs",
        "failed_fraction",
        failed as f64 / attempted as f64
    );
    for why in &failures {
        println!("  FAILED {why}");
    }

    let mut per_layer = vec![peak_rss];
    let mut spans = Vec::new();
    if opts.trace {
        let arms = ArmWalls {
            wall1,
            wall2,
            busy: median(&busy),
        };
        let (layers, recorded) = trace_layers(w, &config, realize, &untraced, &arms, &dir)?;
        println!("per layer (one traced single-threaded replay, and layer calls timed alone):");
        for m in &layers {
            print_metric(m, "");
        }
        per_layer.extend(layers);
        spans = recorded;
    }

    if let Some(path) = &opts.json {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seqnum\": {seqnum}, \"volume\": {volume}, \
             \"block\": {}, \"cores\": {cores}, \"correct\": {}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"failures\": {}, \"end_to_end\": {}, \"per_layer\": {}, \
             \"walls_m1_s\": {}, \"walls_m2_s\": {}, \"walls_setup_s\": {}}}\n",
            w.name,
            opts.seed,
            w.block,
            failed == 0,
            strings_json(&failures),
            metrics_json(&end_to_end)?,
            metrics_json(&per_layer)?,
            numbers_json(&walls1),
            numbers_json(&walls2),
            numbers_json(&setup_walls),
        );
        std::fs::write(path, record)?;
    }
    // Spans stay in memory until everything is measured.
    if opts.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
        trace::write_jsonl(&path, w.name, &spans)?;
    }
    let reported = if opts.trace {
        &per_layer
    } else {
        &end_to_end[..]
    };
    println!("{}", result_line(attempted, failed, reported)?);
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let opts = parse(&[
            "--workload",
            "matrix_strict_tcp",
            "--seed",
            "41",
            "--seconds",
            "24",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(opts.workload.unwrap().name, "matrix_strict_tcp");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (41, 24.0, false));
        assert_eq!(opts.reps, None);
    }

    #[test]
    fn quick_means_two_repetitions_unless_told_otherwise() {
        assert_eq!(parse(&["--quick"]).unwrap().reps, Some(QUICK_REPS));
        assert_eq!(parse(&["--quick", "--reps", "4"]).unwrap().reps, Some(4));
        assert!(parse(&[]).unwrap().workload.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for args in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--reps", "0"],
            &["--trace", "2"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse(args).is_err(), "{args:?} was accepted");
        }
    }
}
