//! Which regime is the box in? Two threads spin a fixed count at the
//! same time, then one after the other. The concurrent wall over one
//! spin's wall alone is ≈ 1 while the VM gets two cores' worth of CPU
//! and ≈ 2 while it gets one — the two regimes every benchmark campaign
//! in EXPERIMENTS.md has had to tell apart. A round takes 2–4 ms; the
//! median of five rounds is reported, with the ns per spin step (the
//! core's own speed, which varies too).
//!
//! ```text
//! regime_probe
//! regime_spin_ratio 0.98 (concurrent 0.61 ms, one spin alone 0.62 ms, 1.54 ns per step)
//! ```
//!
//! With `PARMONC_BENCH_JSON` set, both numbers it prints are merged
//! into that file: the ratio as `regime_spin_ratio` and the per-core
//! speed as `regime_ns_per_step` (informational: `hotpath_compare`
//! gates no key of either name).

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use parmonc_bench::harness::{record_metric, write_json_if_requested};

/// Steps of one spin of dependent multiply-adds: 0.5–1.3 ms on the box
/// PR 25 was measured on (1.4–3.2 ns a step).
const STEPS: u64 = 400_000;

/// Rounds taken; the median ratio is reported.
const ROUNDS: usize = 5;

fn spin() -> u64 {
    let mut x = 1u64;
    for _ in 0..STEPS {
        // `black_box` each step, or LLVM folds unrolled steps together.
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    x
}

/// One round: (wall of two spins started together, mean wall of a spin
/// run alone), each spin on a fresh thread.
fn round() -> (Duration, Duration) {
    let barrier = Barrier::new(2);
    let spans: Vec<(Instant, Instant)> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let start = Instant::now();
                    spin();
                    (start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spin thread"))
            .collect()
    });
    let first = spans.iter().map(|s| s.0).min().expect("two spins");
    let last = spans.iter().map(|s| s.1).max().expect("two spins");
    let alone: Duration = (0..2)
        .map(|_| {
            thread::spawn(|| {
                let start = Instant::now();
                spin();
                start.elapsed()
            })
            .join()
            .expect("spin thread")
        })
        .sum();
    (last - first, alone / 2)
}

fn main() {
    let mut rounds: Vec<(f64, Duration, Duration)> = (0..ROUNDS)
        .map(|_| {
            let (together, alone) = round();
            (
                together.as_secs_f64() / alone.as_secs_f64(),
                together,
                alone,
            )
        })
        .collect();
    rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ratio, together, alone) = rounds[ROUNDS / 2];
    let ns_per_step = alone.as_secs_f64() * 1e9 / STEPS as f64;
    println!(
        "regime_spin_ratio {ratio:.2} (concurrent {:.2} ms, one spin alone {:.2} ms, {ns_per_step:.2} ns per step)",
        together.as_secs_f64() * 1e3,
        alone.as_secs_f64() * 1e3,
    );
    record_metric("regime_spin_ratio", ratio);
    record_metric("regime_ns_per_step", ns_per_step);
    write_json_if_requested();
}
