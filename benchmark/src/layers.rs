//! Layer calls that are not part of the per-realization pipeline (or
//! that need a second thread or the kernel), timed on their own at the
//! workload's shape and payload size.

use std::hint::black_box;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use parmonc::messages::TAG_SUBTOTAL;
use parmonc::{Realize, ResultsDir, RunConfig, StreamHierarchy, StreamId};
use parmonc_faults::FaultHandle;
use parmonc_ipc::frame::{read_frame, write_frame_seq};
use parmonc_ipc::{
    JoinOptions, ListenOptions, ReconnectPolicy, TcpCollectorTransport, TcpWorkerTransport,
};
use parmonc_mpi::{Bytes, World};
use parmonc_obs::Monitor;
use parmonc_stats::report::LogReport;
use parmonc_stats::MatrixAccumulator;

use crate::summary::median;
use crate::workload::{Routine, Workload};
use crate::Res;

/// Seconds `work` takes.
fn seconds<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = work();
    (started.elapsed().as_secs_f64(), out)
}

/// Median seconds of `reps` calls of `work`.
fn median_seconds(reps: usize, mut work: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (s, result) = seconds(&mut work);
        result?;
        samples.push(s);
    }
    Ok(median(&samples))
}

/// `rng.jump_ns`: `StreamHierarchy::realization_stream` from scratch —
/// the three jump-table walks a rank pays once to reach its first
/// stream.
pub fn jump_ns(config: &RunConfig) -> Res<f64> {
    const CALLS: u64 = 20_000;
    let hierarchy = StreamHierarchy::new(config.leaps);
    let (s, result) = seconds(|| -> Res<()> {
        for i in 0..CALLS {
            let id = StreamId::new(config.seqnum, i % 2, i * 7919);
            black_box(hierarchy.realization_stream(black_box(id))?);
        }
        Ok(())
    });
    result?;
    Ok(s * 1e9 / CALLS as f64)
}

/// `rng.draws_per_realization`: base random numbers one realization
/// consumes, exact by `RealizationStream::drawn` over rank 0's first
/// realizations.
pub fn draws_per_realization<R: Realize>(config: &RunConfig, realize: &R) -> Res<f64> {
    const REALIZATIONS: u64 = 256;
    let mut cursor =
        StreamHierarchy::new(config.leaps).cursor(StreamId::new(config.seqnum, 0, 0))?;
    let mut out = vec![0.0f64; config.nrow * config.ncol];
    let mut drawn = 0u64;
    for _ in 0..REALIZATIONS {
        let mut stream = cursor.next_stream()?;
        realize.realize(&mut stream, &mut out);
        drawn += stream.drawn();
    }
    Ok(drawn as f64 / REALIZATIONS as f64)
}

/// `rng.draw_ns_per_value`: the draw call the workload's routine makes,
/// alone on one stream — scalar `next_f64` for the free and SDE
/// routines, `fill_f64` of a whole matrix for the bulk one.
pub fn draw_ns_per_value(w: &Workload, config: &RunConfig) -> Res<f64> {
    const VALUES: usize = 8_000_000;
    let mut stream = StreamHierarchy::new(config.leaps).realization_stream(StreamId::new(
        config.seqnum,
        0,
        0,
    ))?;
    let (s, ()) = match w.routine {
        Routine::Free | Routine::Sde => seconds(|| {
            let mut sum = 0.0;
            for _ in 0..VALUES {
                sum += stream.next_f64();
            }
            black_box(sum);
        }),
        Routine::Matrix => {
            let mut out = vec![0.0f64; config.nrow * config.ncol];
            seconds(|| {
                for _ in 0..VALUES / out.len() {
                    stream.fill_f64(black_box(&mut out));
                }
            })
        }
    };
    Ok(s * 1e9 / VALUES as f64)
}

/// `mpi.pingpong_ns`: one round trip of a `payload_len`-byte message
/// between two threads over `World::communicators(2)` — the wake-up
/// and contention a same-thread send/receive cannot show.
pub fn pingpong_ns(payload_len: usize) -> Res<f64> {
    const TRIPS: u32 = 20_000;
    let mut comms = World::communicators(2)?;
    let mut rank1 = comms.pop().ok_or("no rank 1")?;
    let mut rank0 = comms.pop().ok_or("no rank 0")?;
    std::thread::scope(|scope| -> Res<f64> {
        let echo = scope.spawn(move || -> Result<(), parmonc_mpi::MpiError> {
            for _ in 0..TRIPS {
                let env = rank1.recv(None, None)?;
                rank1.send_bytes(0, TAG_SUBTOTAL, env.payload)?;
            }
            Ok(())
        });
        let mut payload = Bytes::from(vec![0u8; payload_len]);
        let (s, result) = seconds(|| -> Result<(), parmonc_mpi::MpiError> {
            for _ in 0..TRIPS {
                rank0.send_bytes(1, TAG_SUBTOTAL, payload)?;
                payload = rank0.recv(None, None)?.payload;
            }
            Ok(())
        });
        result?;
        echo.join().expect("the echo thread panicked")?;
        Ok(s * 1e9 / f64::from(TRIPS))
    })
}

/// `ipc.tcp_frame_ns` and `ipc.tcp_mib_per_s`: one writer thread and
/// one reader thread over a loopback `TcpStream`, a `payload_len`-byte
/// frame at a time, written and read the way the TCP transport does
/// (no-delay socket, buffered reader).
pub fn tcp_frames(payload_len: usize) -> Res<(f64, f64)> {
    // About 64 MiB or 20 000 frames, whichever is less work.
    let frames = (64 * 1024 * 1024 / payload_len.max(1)).clamp(2_000, 20_000) as u64;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| -> Res<(f64, f64)> {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let payload = vec![0u8; payload_len];
            for seq in 1..=frames {
                write_frame_seq(&mut stream, 1, TAG_SUBTOTAL.0, seq, &payload)?;
            }
            Ok(())
        });
        let (stream, _) = listener.accept()?;
        let mut reader = BufReader::new(stream);
        let (s, result) = seconds(|| -> Res<()> {
            for _ in 0..frames {
                black_box(read_frame(&mut reader)?.ok_or("the writer hung up early")?);
            }
            Ok(())
        });
        result?;
        writer.join().expect("the writer thread panicked")?;
        let mib = (frames as usize * payload_len) as f64 / (1024.0 * 1024.0);
        Ok((s * 1e9 / frames as f64, mib / s))
    })
}

/// `ipc.listen_join_s`: `TcpCollectorTransport::listen`, one
/// `TcpWorkerTransport::join` until granted, then hang-up and
/// `shutdown`.
pub fn listen_join_s(config: &RunConfig) -> Res<f64> {
    median_seconds(5, || {
        let mut collector = TcpCollectorTransport::listen(ListenOptions {
            addr: "127.0.0.1:0".into(),
            size: 2,
            monitor: Monitor::disabled(),
            faults: FaultHandle::disabled(),
            config_digest: config.wire_digest(),
            quotas: vec![config.quota(1)],
            io_timeout: Duration::from_secs(10),
            resume: None,
            trace_spans: false,
            persist: None,
            parents: Vec::new(),
        })?;
        let worker = TcpWorkerTransport::join(JoinOptions {
            addr: collector.local_addr().to_string(),
            config_digest: config.wire_digest(),
            faults: FaultHandle::disabled(),
            io_timeout: Duration::from_secs(10),
            reconnect: ReconnectPolicy::default(),
            clock_skew_s: 0.0,
        })?;
        drop(worker);
        collector.shutdown()?;
        Ok(())
    })
}

/// `core::files` at the workload's shape.
#[derive(Debug)]
pub struct FileTimes {
    /// `files.save_results_s`.
    pub save_results_s: f64,
    /// `files.save_checkpoint_s`.
    pub save_checkpoint_s: f64,
    /// `files.load_checkpoint_s`.
    pub load_checkpoint_s: f64,
    /// `files.checkpoint_bytes`.
    pub checkpoint_bytes: u64,
}

/// Saves and loads `total` in `dir` the way a run's final save-point
/// does (the write beside the read).
pub fn files(total: &MatrixAccumulator, config: &RunConfig, dir: &Path) -> Res<FileTimes> {
    const REPS: usize = 7;
    let _ = std::fs::remove_dir_all(dir);
    let results = ResultsDir::create(dir)?;
    let summary = total.summary();
    let log = LogReport {
        sample_volume: total.count(),
        mean_time_per_realization: 0.0,
        eps_max: summary.eps_max,
        rho_max: summary.rho_max,
        sigma2_max: summary.sigma2_max,
        processors: config.processors,
        seqnum: config.seqnum,
    };
    let save_results_s = median_seconds(REPS, || Ok(results.save_results(&summary, &log)?))?;
    let save_checkpoint_s = median_seconds(REPS, || Ok(results.save_checkpoint(total)?))?;
    let load_checkpoint_s = median_seconds(REPS, || {
        black_box(results.load_checkpoint()?.ok_or("no checkpoint to load")?);
        Ok(())
    })?;
    let checkpoint_bytes = std::fs::metadata(results.checkpoint_path())?.len();
    let _ = std::fs::remove_dir_all(dir);
    Ok(FileTimes {
        save_results_s,
        save_checkpoint_s,
        load_checkpoint_s,
        checkpoint_bytes,
    })
}

/// `config.build_s`: `ParmoncBuilder::build` — validation and the
/// `parmonc_genparam.dat` lookup in `dir`.
pub fn config_build_s(w: &Workload, config: &RunConfig, dir: &Path) -> Res<f64> {
    median_seconds(21, || {
        black_box(
            w.builder(config.seqnum, 2, config.max_sample_volume, dir)
                .build()?,
        );
        Ok(())
    })
}
