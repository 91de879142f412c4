//! Transport overhead: running the same workload with ranks as OS
//! processes over Unix-domain sockets (`Transport::Processes`), or as
//! remote workers over loopback TCP (`Transport::Tcp`), must stay
//! within a bounded wall-time overhead of the thread backend. The
//! measured overheads are recorded as
//! `bound_process_transport_overhead_pct` and
//! `bound_tcp_transport_overhead_pct` so `hotpath_compare` gates them
//! against the committed ceilings in `BENCH_hotpath.json`.
//!
//! # Re-execution discipline
//!
//! The process backend re-executes *this bench binary* once per worker,
//! so the very first `run()` call reached by the binary must be a
//! process-backend run with exactly the configuration every process
//! arm uses: a re-executed worker diverts into the worker loop inside
//! that first call and never reaches the thread arms. For the same
//! reason the process arm's output directory is deterministic (no PID
//! suffix) and only the parent wipes it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use parmonc::ipc::FaultyStream;
use parmonc::prelude::{
    Exchange, NetOptions, Parmonc, ParmoncBuilder, Realize, RealizeFn, Transport,
};
use parmonc_bench::harness::{
    black_box, criterion_group, criterion_main, fast_mode, record_metric, Criterion,
};
use parmonc_bench::ScaledDiffusion;
use parmonc_faults::FaultHandle;

/// One full run of the laptop-scale diffusion workload on the given
/// transport; returns wall seconds (setup + spawn + ranks + final
/// save). Both arms share one configuration so their estimates — and
/// the work measured — are identical; only the substrate differs.
fn run_once(transport: Transport, dir: &Path) -> f64 {
    let workload = ScaledDiffusion::new(40);
    let scheme = workload.scheme().clone();
    let volume = if fast_mode() { 150 } else { 600 };
    if !parmonc::ipc::is_worker() {
        let _ = std::fs::remove_dir_all(dir);
    }
    let started = Instant::now();
    let report = Parmonc::builder(ScaledDiffusion::POINTS, 2)
        .max_sample_volume(volume)
        .processors(2)
        .exchange(Exchange::EveryRealization)
        .transport(transport)
        .output_dir(dir)
        .run(RealizeFn::new(move |rng, out| {
            scheme.realize_into(rng, out)
        }))
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(report.new_volume, volume);
    let _ = std::fs::remove_dir_all(dir);
    elapsed
}

/// One full run of the same workload over loopback TCP ([`diffusion`]
/// is called once per side): a collector listening on an ephemeral
/// port plus one in-process worker thread dialing it — the real wire
/// conversation (handshake, framing, heartbeats), only the remote host
/// is simulated. Returns wall seconds including the listener setup and
/// the worker's address discovery.
fn run_once_tcp(dir: &Path, worker_dir: &Path, volume: u64) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(worker_dir);
    let started = Instant::now();
    let collector = {
        let (b, realize) = diffusion(volume);
        let b = b.output_dir(dir).net(NetOptions::listen("127.0.0.1:0"));
        std::thread::spawn(move || b.run(realize).unwrap())
    };
    let addr_path = dir.join("parmonc_data").join("collector.addr");
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                break addr;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    let (b, realize) = diffusion(volume);
    b.output_dir(worker_dir)
        .net(NetOptions::join(addr))
        .run_worker(realize)
        .unwrap();
    let report = collector.join().unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(report.new_volume, volume);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(worker_dir);
    elapsed
}

/// The diffusion workload of [`run_once`], for the TCP arm.
fn diffusion(volume: u64) -> (ParmoncBuilder, impl Realize + Send + Sync + 'static) {
    let scheme = ScaledDiffusion::new(40).scheme().clone();
    (
        Parmonc::builder(ScaledDiffusion::POINTS, 2)
            .max_sample_volume(volume)
            .processors(2)
            .exchange(Exchange::EveryRealization),
        RealizeFn::new(move |rng, out: &mut [f64]| scheme.realize_into(rng, out)),
    )
}

/// The fastest observed run — the noise-robust estimator for a
/// deterministic workload (noise only ever adds time).
fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bench_transport_overhead(_c: &mut Criterion) {
    // Deterministic: re-executed workers must rebuild this exact path.
    let proc_dir = std::env::temp_dir().join("parmonc-bench-transport-processes");
    let thread_dir = std::env::temp_dir().join(format!(
        "parmonc-bench-transport-threads-{}",
        std::process::id()
    ));
    let tcp_dir = std::env::temp_dir().join(format!(
        "parmonc-bench-transport-tcp-{}",
        std::process::id()
    ));
    let tcp_worker_dir = std::env::temp_dir().join(format!(
        "parmonc-bench-transport-tcp-worker-{}",
        std::process::id()
    ));

    // Warmup — and the mandatory first run() of the binary (see module
    // docs): workers spawned by *any* process run divert here.
    let _ = black_box(run_once(Transport::Processes, &proc_dir));

    // Interleaved triples, process arm first in each (a worker must
    // never reach a thread run), so slow machine-load drift hits every
    // arm equally.
    let samples: usize = if fast_mode() { 5 } else { 11 };
    let mut processes = Vec::with_capacity(samples);
    let mut tcp = Vec::with_capacity(samples);
    let mut threads = Vec::with_capacity(samples);
    let volume = if fast_mode() { 150 } else { 600 };
    for _ in 0..samples {
        processes.push(run_once(Transport::Processes, &proc_dir));
        tcp.push(run_once_tcp(&tcp_dir, &tcp_worker_dir, volume));
        threads.push(run_once(Transport::Threads, &thread_dir));
    }
    let proc_min = minimum(&processes);
    let tcp_min = minimum(&tcp);
    let thread_min = minimum(&threads);
    let proc_overhead = (proc_min - thread_min) / thread_min;
    let tcp_overhead = (tcp_min - thread_min) / thread_min;
    println!(
        "transport_overhead: threads {thread_min:.4} s, processes {proc_min:.4} s \
         ({:.2}%), tcp {tcp_min:.4} s ({:.2}%)",
        proc_overhead * 100.0,
        tcp_overhead * 100.0
    );
    record_metric(
        "bound_process_transport_overhead_pct",
        proc_overhead * 100.0,
    );
    record_metric("bound_tcp_transport_overhead_pct", tcp_overhead * 100.0);

    // Net-fault-plane guard: every worker's outbound link rides a
    // [`FaultyStream`] even when nothing is scripted, and the disabled
    // wrapper must be one boolean check per write. Charge the *entire*
    // wrapped write (not just the delta over a bare write — strictly
    // conservative) twice per realization, and bound it against the
    // TCP arm's measured per-realization wall cost.
    let mut faulty = FaultyStream::new(std::io::sink(), 1, FaultHandle::disabled());
    let frame = [0u8; 148];
    let iters: u64 = if fast_mode() { 400_000 } else { 4_000_000 };
    let mut per_write = f64::INFINITY;
    for _ in 0..9 {
        let started = Instant::now();
        for _ in 0..iters {
            faulty.write_all(black_box(&frame)).unwrap();
        }
        per_write = per_write.min(started.elapsed().as_secs_f64() / iters as f64);
    }
    let net_overhead = 2.0 * per_write / (tcp_min / volume as f64);
    println!(
        "net_fault_plane: disabled wrapped write {:.2} ns, 2x-budget ratio {:.4}%",
        per_write * 1e9,
        net_overhead * 100.0
    );
    record_metric("bound_net_fault_plane_overhead_pct", net_overhead * 100.0);
}

criterion_group!(benches, bench_transport_overhead);
criterion_main!(benches);
