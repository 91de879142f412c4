//! The on-disk layout of simulation results (paper Section 3.6).
//!
//! When a job starts, PARMONC creates `parmonc_data/` in the user's
//! working directory:
//!
//! ```text
//! <output_dir>/parmonc_data/
//!     results/func.dat        matrix of sample means
//!     results/func_ci.dat     means + absolute/relative errors + variances
//!     results/func_log.dat    volume, mean time per realization, upper bounds
//!     results/checkpoint.dat  raw sums (exact resumption state)
//!     results/baseline.dat    sums a res = 1 session carried over (absent = none)
//!     parmonc_exp.dat         journal of experiments started here
//!     workers/worker_NNNN.dat per-processor cumulative subtotals (manaver input)
//! ```
//!
//! `func*.dat` match the paper's files; `checkpoint.dat` holds the raw
//! `(Σζ, Σζ², l)` sums so `res = 1` resumption is exact rather than
//! reconstructed from rounded means, and `workers/` is what the
//! `manaver` command averages after an aborted job (Section 3.4). The
//! mean time per realization in `func_log.dat` is the ranks' timed
//! intervals summed over the new volume: an interval is one realization
//! (the user's routine with the runtime's zeroing, stream positioning
//! and accumulate around it) when that takes 4 µs or more; a shorter
//! routine is timed a block of realizations at a time.
//!
//! Every mutation of the tree is an operation of the directory's one
//! writer, [`AtomicWriter`], which also injects a fault plan's I/O
//! faults and counts its fsyncs and mutations; every rule recovery reads
//! a file under is written once, in the recovery readers below:
//!
//! | file | written by | read under |
//! |---|---|---|
//! | `results/`, `workers/` | `create_dir_all` | |
//! | `checkpoint.dat` | `stage` + `publish`, after `rotate` to `.bak` | a corrupt primary falls back to `.bak`; none is `NothingToResume` to `res = 1` |
//! | `parmonc_exp.dat` | `append`, neither fsynced nor renamed | a `seqnum` already there is `SeqnumAlreadyUsed` to `res = 1` |
//! | `baseline.dat` | `stage` + `publish`; `remove` | absent is empty |
//! | `leases.dat` | `write_durable`, by a clone of the writer | missing is `NothingToResume`, undecodable `CorruptCheckpoint` |
//! | `workers/worker_NNNN.dat` | `stage` + `publish`; `remove` | rank 0's by name on a crash-resume, all by `manaver` |
//! | `func*.dat`, `collector.addr` | `stage` + `publish` | |
//!
//! Every accumulator read is checked against the shape the run asks for
//! (`ResumeShapeMismatch`) and every checkpoint-format file against its
//! FNV-1a 64 checksum + length footer (`CorruptCheckpoint`).
//!
//! What recovery reads is fsynced before its rename; the renderings are
//! not, as the next save-point or `manaver` renders them again. A
//! save-point is one commit ([`ResultsDir::save_point`]): `.bak`
//! rotation only after every temp is written, one fsync of `results/`
//! after the renames. A state file's rename is not made durable: a lost
//! one leaves its older generation, which a resume replays. State files
//! are written by one `StateWriter` per process, off the ranks' threads.
//! A `remove` fsyncs its directory once if a file went.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parmonc_faults::{AtomicWriter, FaultHandle};
use parmonc_ipc::LeaseSnapshot;
use parmonc_stats::report::{self, LogReport};
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use crate::error::{IoContext, ParmoncError};
use crate::messages::Subtotal;

/// Name of the data directory created in the working directory.
pub const DATA_DIR: &str = "parmonc_data";

/// Handle to a `parmonc_data` directory tree.
#[derive(Debug, Clone)]
pub struct ResultsDir {
    root: PathBuf,
    /// The one writer of this handle and its clones: it makes every
    /// mutation of the tree, injects the I/O faults and counts both.
    writer: AtomicWriter,
}

impl PartialEq for ResultsDir {
    fn eq(&self, other: &Self) -> bool {
        // Identity is the directory; the writer is run plumbing.
        self.root == other.root
    }
}

impl Eq for ResultsDir {}

/// One line of the experiment journal `parmonc_exp.dat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentRecord {
    /// The "experiments" subsequence number used.
    pub seqnum: u64,
    /// The `maxsv` of the run.
    pub max_sample_volume: u64,
    /// Processor count.
    pub processors: usize,
    /// Whether the run was a resumption.
    pub resumed: bool,
    /// Total sample volume already on disk when the run started.
    pub volume_before: u64,
}

impl ResultsDir {
    /// Creates (or opens) the `parmonc_data` tree under `output_dir`.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] if the directories cannot be
    /// created.
    pub fn create(output_dir: impl AsRef<Path>) -> Result<Self, ParmoncError> {
        let root = output_dir.as_ref().join(DATA_DIR);
        let writer = AtomicWriter::default();
        for sub in ["results", "workers"] {
            let path = root.join(sub);
            writer
                .create_dir_all(&path)
                .io_ctx(format!("creating {}", path.display()))?;
        }
        Ok(Self { root, writer })
    }

    /// Opens an existing `parmonc_data` tree under `output_dir`.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::NothingToResume`] if the tree does not
    /// exist.
    pub fn open(output_dir: impl AsRef<Path>) -> Result<Self, ParmoncError> {
        let root = output_dir.as_ref().join(DATA_DIR);
        if !root.is_dir() {
            return Err(ParmoncError::NothingToResume { dir: root });
        }
        Ok(Self {
            root,
            writer: AtomicWriter::default(),
        })
    }

    /// Attaches a fault plane so chaos tests can inject I/O faults
    /// (torn writes, bit flips, interrupts) into this directory's
    /// writes. The disabled handle (the default) costs one branch.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.writer = self.writer.with_faults(faults);
        self
    }

    /// The writer, whose [`AtomicWriter::fsyncs`] and
    /// [`AtomicWriter::mutations`] count a run's fsyncs and mutations.
    #[must_use]
    pub(crate) fn writer(&self) -> &AtomicWriter {
        &self.writer
    }

    /// The root of the tree (`.../parmonc_data`).
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of `results/func.dat`.
    #[must_use]
    pub fn func_path(&self) -> PathBuf {
        self.root.join("results/func.dat")
    }

    /// Path of `results/func_ci.dat`.
    #[must_use]
    pub fn func_ci_path(&self) -> PathBuf {
        self.root.join("results/func_ci.dat")
    }

    /// Path of `results/func_log.dat`.
    #[must_use]
    pub fn func_log_path(&self) -> PathBuf {
        self.root.join("results/func_log.dat")
    }

    /// Path of `results/checkpoint.dat`.
    #[must_use]
    pub fn checkpoint_path(&self) -> PathBuf {
        self.root.join("results/checkpoint.dat")
    }

    /// Path of the last-good checkpoint generation
    /// (`results/checkpoint.dat.bak`), rotated by every commit that
    /// replaces the checkpoint and used as the fallback when the
    /// primary fails its integrity check.
    #[must_use]
    pub fn checkpoint_backup_path(&self) -> PathBuf {
        self.root.join("results/checkpoint.dat.bak")
    }

    /// Path of `results/baseline.dat` — the state carried over from
    /// completed previous runs, against which `manaver` re-averages the
    /// worker subtotals of a crashed job.
    #[must_use]
    pub fn baseline_path(&self) -> PathBuf {
        self.root.join("results/baseline.dat")
    }

    /// Path of the experiment journal `parmonc_exp.dat`.
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("parmonc_exp.dat")
    }

    /// Path of the TCP collector's bound address file
    /// `collector.addr`, written when a run listens on an ephemeral
    /// port (port 0) so scripts can discover where to point
    /// `--join` workers.
    #[must_use]
    pub fn collector_addr_path(&self) -> PathBuf {
        self.root.join("collector.addr")
    }

    /// Records the TCP collector's actually bound address (one line).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] if the write fails.
    pub fn write_collector_addr(&self, addr: &str) -> Result<(), ParmoncError> {
        self.commit(&[(self.collector_addr_path(), format!("{addr}\n"), false)])
    }

    /// Path of `results/leases.dat` — the TCP collector's persisted
    /// lease table (session epoch, per-rank lease/retire flags, and
    /// sequence-dedup watermarks), rewritten before every grant so a
    /// `resume_listen` restart recognizes every lease a worker holds.
    #[must_use]
    pub fn lease_table_path(&self) -> PathBuf {
        self.root.join("results/leases.dat")
    }

    /// Directory of run-monitor output (`monitor/`).
    #[must_use]
    pub fn monitor_dir(&self) -> PathBuf {
        self.root.join("monitor")
    }

    /// Path of the monitor event trace `monitor/run_metrics.jsonl`
    /// (one JSON event per line; schema in `docs/observability.md`).
    #[must_use]
    pub fn run_metrics_path(&self) -> PathBuf {
        self.monitor_dir().join("run_metrics.jsonl")
    }

    /// Path of the Prometheus text exposition `monitor/metrics.prom`,
    /// rewritten periodically by the metrics plane and rendered once
    /// more at exit.
    #[must_use]
    pub fn metrics_prom_path(&self) -> PathBuf {
        self.monitor_dir().join("metrics.prom")
    }

    /// Path of worker `m`'s subtotal file.
    #[must_use]
    pub fn worker_path(&self, worker: usize) -> PathBuf {
        self.root.join(format!("workers/worker_{worker:04}.dat"))
    }

    /// The one commit of every write: stage each `(path, contents,
    /// durable)` — a failure leaves every file as it was — then rotate a
    /// replaced `checkpoint.dat` to `.bak`, rename in order, and fsync
    /// `results/` once if a durable file was renamed into it (never
    /// `workers/`: a state file may be stale).
    fn commit(&self, files: &[(PathBuf, String, bool)]) -> Result<(), ParmoncError> {
        let staged = files
            .iter()
            .map(|(path, contents, durable)| {
                let staged = self.writer.stage(path, contents.as_bytes(), *durable);
                staged.io_ctx(format!("writing {}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let primary = self.checkpoint_path();
        if files.iter().any(|(path, ..)| *path == primary) {
            let backup = self.checkpoint_backup_path();
            let rotated = self.writer.rotate(&primary, &backup);
            rotated.io_ctx(format!("rotating checkpoint to {}", backup.display()))?;
        }
        for (temp, (path, ..)) in staged.into_iter().zip(files) {
            temp.publish()
                .io_ctx(format!("renaming into {}", path.display()))?;
        }
        let dir = self.root.join("results");
        if files
            .iter()
            .any(|(path, _, durable)| *durable && path.starts_with(&dir))
        {
            let synced = self.writer.sync_dir(&dir);
            synced.io_ctx(format!("syncing directory {}", dir.display()))?;
        }
        Ok(())
    }

    /// The three `func*.dat` renderings of a summary and run metadata.
    fn renderings(&self, summary: &MatrixSummary, log: &LogReport) -> [(PathBuf, String, bool); 3] {
        [
            (self.func_path(), report::render_func(summary), false),
            (self.func_ci_path(), report::render_func_ci(summary), false),
            (self.func_log_path(), report::render_func_log(log), false),
        ]
    }

    /// Writes the three human-readable result files from a summary and
    /// run metadata. They are rendered files: no fsync.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_results(
        &self,
        summary: &MatrixSummary,
        log: &LogReport,
    ) -> Result<(), ParmoncError> {
        self.commit(&self.renderings(summary, log))
    }

    /// Writes the exact resumption state (raw sums) as one commit: a
    /// failed write keeps the primary, a torn one falls back to `.bak`.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_checkpoint(&self, acc: &MatrixAccumulator) -> Result<(), ParmoncError> {
        self.commit(&[(self.checkpoint_path(), encode_checkpoint(acc, 0.0), true)])
    }

    /// A save-point: [`ResultsDir::save_checkpoint`] and
    /// [`ResultsDir::save_results`] as one commit of two fsyncs.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_point(
        &self,
        summary: &MatrixSummary,
        log: &LogReport,
        acc: &MatrixAccumulator,
    ) -> Result<(), ParmoncError> {
        let [func, func_ci, func_log] = self.renderings(summary, log);
        let checkpoint = (self.checkpoint_path(), encode_checkpoint(acc, 0.0), true);
        self.commit(&[checkpoint, func, func_ci, func_log])
    }

    /// Loads the resumption state, or `None` if no checkpoint exists.
    /// A corrupt (torn, bit-flipped, unparseable) primary silently
    /// falls back to the last-good `.bak` generation; use
    /// [`ResultsDir::load_checkpoint_recovering`] to observe the
    /// fallback.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::CorruptCheckpoint`] when both the
    /// primary and the backup fail their integrity checks, or
    /// [`ParmoncError::Io`] for unreadable files.
    pub fn load_checkpoint(&self) -> Result<Option<MatrixAccumulator>, ParmoncError> {
        Ok(self.load_checkpoint_recovering()?.map(|(acc, _)| acc))
    }

    /// [`ResultsDir::load_checkpoint`], also reporting whether the
    /// state came from the `.bak` fallback (`true` = the primary was
    /// corrupt or missing and the last-good generation was used).
    ///
    /// # Errors
    ///
    /// As for [`ResultsDir::load_checkpoint`].
    pub fn load_checkpoint_recovering(
        &self,
    ) -> Result<Option<(MatrixAccumulator, bool)>, ParmoncError> {
        let primary = self.checkpoint_path();
        let backup = self.checkpoint_backup_path();
        match Self::read_state(&primary) {
            Ok(Some(state)) => Ok(Some((state.acc, false))),
            Ok(None) => match Self::read_state(&backup)? {
                Some(state) => Ok(Some((state.acc, true))),
                None => Ok(None),
            },
            Err(err @ ParmoncError::CorruptCheckpoint { .. }) => {
                match Self::read_state(&backup) {
                    Ok(Some(state)) => Ok(Some((state.acc, true))),
                    // No good backup: report the primary's corruption.
                    Ok(None) | Err(_) => Err(err),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Writes the baseline state (sums carried over from completed
    /// previous runs).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_baseline(&self, acc: &MatrixAccumulator) -> Result<(), ParmoncError> {
        self.commit(&[(self.baseline_path(), encode_checkpoint(acc, 0.0), true)])
    }

    /// Removes the baseline an earlier session left, with one fsync of
    /// `results/` so that the removal survives a power loss; none when
    /// there is no file. An absent baseline reads as an empty one.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] if the file or the directory sync
    /// fails.
    pub(crate) fn discard_baseline(&self) -> Result<(), ParmoncError> {
        let path = self.baseline_path();
        let removed = self
            .writer
            .remove(&self.root.join("results"), [path.clone()]);
        removed.io_ctx(format!("removing {}", path.display()))
    }

    /// Loads the baseline state, or `None` if absent (which a caller
    /// reads as an empty baseline).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Parse`] / [`ParmoncError::Io`] as for
    /// [`ResultsDir::load_checkpoint`].
    pub fn load_baseline(&self) -> Result<Option<MatrixAccumulator>, ParmoncError> {
        Ok(Self::read_state(&self.baseline_path())?.map(|state| state.acc))
    }

    /// Reads a checkpoint-format file, or `None` if it is absent.
    fn read_state(path: &Path) -> Result<Option<Subtotal>, ParmoncError> {
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(path).io_ctx(format!("reading {}", path.display()))?;
        let (acc, compute_seconds) = decode_checkpoint(&text, path)?;
        Ok(Some(Subtotal {
            acc,
            compute_seconds,
        }))
    }

    /// Appends one record to the experiment journal.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn append_experiment(&self, rec: &ExperimentRecord) -> Result<(), ParmoncError> {
        let line = format!(
            "seqnum={} maxsv={} processors={} res={} volume_before={}\n",
            rec.seqnum,
            rec.max_sample_volume,
            rec.processors,
            u8::from(rec.resumed),
            rec.volume_before
        );
        let path = self.journal_path();
        let appended = self.writer.append(&path, line.as_bytes());
        appended.io_ctx(format!("appending to {}", path.display()))
    }

    /// Reads the experiment journal (empty if none exists).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] for unreadable files; malformed
    /// lines are skipped (the journal is informational).
    pub fn read_experiments(&self) -> Result<Vec<ExperimentRecord>, ParmoncError> {
        let path = self.journal_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = fs::read_to_string(&path).io_ctx(format!("reading {}", path.display()))?;
        let mut records = Vec::new();
        for line in text.lines() {
            let mut seqnum = None;
            let mut maxsv = None;
            let mut procs = None;
            let mut res = None;
            let mut before = None;
            for field in line.split_whitespace() {
                if let Some((k, v)) = field.split_once('=') {
                    match k {
                        "seqnum" => seqnum = v.parse().ok(),
                        "maxsv" => maxsv = v.parse().ok(),
                        "processors" => procs = v.parse().ok(),
                        "res" => res = v.parse::<u8>().ok(),
                        "volume_before" => before = v.parse().ok(),
                        _ => {}
                    }
                }
            }
            if let (Some(seqnum), Some(maxsv), Some(procs), Some(res), Some(before)) =
                (seqnum, maxsv, procs, res, before)
            {
                records.push(ExperimentRecord {
                    seqnum,
                    max_sample_volume: maxsv,
                    processors: procs,
                    resumed: res != 0,
                    volume_before: before,
                });
            }
        }
        Ok(records)
    }

    /// Writes worker `m`'s cumulative subtotal (the `manaver` input).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_worker_subtotal(
        &self,
        worker: usize,
        subtotal: &Subtotal,
    ) -> Result<(), ParmoncError> {
        let state = encode_checkpoint(&subtotal.acc, subtotal.compute_seconds);
        self.commit(&[(self.worker_path(worker), state, true)])
    }

    /// Loads every worker subtotal present on disk, sorted by worker
    /// index.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] / [`ParmoncError::Parse`] on
    /// unreadable or corrupt files.
    pub fn load_worker_subtotals(&self) -> Result<Vec<(usize, Subtotal)>, ParmoncError> {
        let dir = self.root.join("workers");
        let mut out = Vec::new();
        let entries = fs::read_dir(&dir).io_ctx(format!("listing {}", dir.display()))?;
        for entry in entries {
            let entry = entry.io_ctx("reading directory entry")?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(idx) = name
                .strip_prefix("worker_")
                .and_then(|s| s.strip_suffix(".dat"))
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            if let Some(state) = Self::read_state(&entry.path())? {
                out.push((idx, state));
            }
        }
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out)
    }

    /// Removes all worker subtotal files (done when a run completes
    /// cleanly and they are folded into the checkpoint), then fsyncs
    /// `workers/` once if anything was removed, so that no removed file
    /// outlives a power loss beside the next session's files. Nothing
    /// to remove costs no fsync.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on removal failure.
    pub fn clear_worker_subtotals(&self) -> Result<(), ParmoncError> {
        let dir = self.root.join("workers");
        let entries = fs::read_dir(&dir).io_ctx(format!("listing {}", dir.display()))?;
        let paths = entries
            .map(|entry| entry.map(|entry| entry.path()))
            .collect::<Result<Vec<_>, _>>()
            .io_ctx("reading directory entry")?;
        let removed = self.writer.remove(&dir, paths);
        removed.io_ctx(format!("removing the files in {}", dir.display()))
    }
}

/// The recovery readers: each applies the rules of its file, and its
/// caller — a `res = 1` session, a TCP crash-resume or `manaver` — makes
/// only its own decision.
impl ResultsDir {
    /// What a `res = 1` session carries over: the checkpoint of `shape`,
    /// and whether it came from `.bak`. A `seqnum` the journal holds is
    /// refused: the paper requires a fresh "experiments" subsequence on
    /// resumption, or the new realizations would repeat the old base
    /// random numbers.
    pub(crate) fn resume_checkpoint(
        &self,
        shape: (usize, usize),
        seqnum: u64,
    ) -> Result<(MatrixAccumulator, bool), ParmoncError> {
        let (previous, recovered) =
            self.load_checkpoint_recovering()?
                .ok_or_else(|| ParmoncError::NothingToResume {
                    dir: self.root.clone(),
                })?;
        let previous = expect_shape(previous, shape)?;
        if self
            .read_experiments()?
            .iter()
            .any(|rec| rec.seqnum == seqnum)
        {
            return Err(ParmoncError::SeqnumAlreadyUsed { seqnum });
        }
        Ok((previous, recovered))
    }

    /// The baseline of `shape`; only a session that carries volume over
    /// writes one, so an absent one is empty.
    pub(crate) fn baseline(
        &self,
        shape: (usize, usize),
    ) -> Result<MatrixAccumulator, ParmoncError> {
        match self.load_baseline()? {
            Some(baseline) => expect_shape(baseline, shape),
            None => Ok(MatrixAccumulator::new(shape.0, shape.1)?),
        }
    }

    /// The lease table a TCP crash-resume restarts from. A torn one must
    /// fail loudly, not resume half a membership.
    pub(crate) fn lease_table(&self) -> Result<LeaseSnapshot, ParmoncError> {
        let path = self.lease_table_path();
        if !path.exists() {
            return Err(ParmoncError::NothingToResume {
                dir: self.root.clone(),
            });
        }
        let text = fs::read_to_string(&path).io_ctx(format!("reading {}", path.display()))?;
        LeaseSnapshot::decode(&text).ok_or_else(|| ParmoncError::CorruptCheckpoint {
            path,
            reason: "unparseable lease table".into(),
        })
    }

    /// Rank `rank`'s state file, read by name, of `shape`.
    pub(crate) fn state_file(
        &self,
        rank: usize,
        shape: (usize, usize),
    ) -> Result<Option<Subtotal>, ParmoncError> {
        let Some(state) = Self::read_state(&self.worker_path(rank))? else {
            return Ok(None);
        };
        let acc = expect_shape(state.acc, shape)?;
        Ok(Some(Subtotal { acc, ..state }))
    }
}

/// Every accumulator recovery reads must be of the shape the run asks
/// for.
fn expect_shape(
    acc: MatrixAccumulator,
    requested: (usize, usize),
) -> Result<MatrixAccumulator, ParmoncError> {
    if acc.shape() == requested {
        Ok(acc)
    } else {
        Err(ParmoncError::ResumeShapeMismatch {
            on_disk: acc.shape(),
            requested,
        })
    }
}

/// The one writer of a process's state files (`workers/worker_NNNN.dat`,
/// what `manaver` and a crash-resume read), so that no rank renders or
/// fsyncs one on its own simulating thread.
///
/// A rank hands its cumulative subtotal over with a time it is due
/// ([`StateWriter::hand_off`]): a copy into the rank's one cell, no
/// render. The cell is latest-wins: a newer state replaces a pending one
/// and keeps the earlier due time, so the writer never writes a
/// superseded state and, when it falls behind, writes each file less
/// often rather than queueing. It renders and commits through the
/// directory's [`AtomicWriter`].
///
/// The writer's thread, `parmonc-state`, is started only when a state
/// first falls due: by the hand-off of a state due at once, or by
/// [`StateWriter::start_if_due`], which rank 0 calls from the loops it
/// runs anyway. A run that ends before anything is due starts no thread
/// and writes no file. Once started, the thread waits for each due time
/// itself. [`StateWriter::supersede`] drops what is pending once the
/// final save-point holds it; [`StateWriter::flush`] writes it instead.
pub(crate) struct StateWriter {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// While no thread runs: the earliest due time of a pending state,
    /// in nanoseconds since `epoch` (`u64::MAX`: none). Rank 0 compares
    /// its clock reads against it. It publishes no data — the cells are
    /// read under their lock — so `Relaxed` is enough.
    next_due: AtomicU64,
    epoch: Instant,
}

struct Shared {
    dir: ResultsDir,
    cells: Mutex<Cells>,
    wake: Condvar,
}

struct Cells {
    /// Per rank: the newest state handed over, and when it is due if it
    /// is not yet written. The allocation stays for the next hand-off.
    states: Vec<(Option<Subtotal>, Option<Instant>)>,
    /// The thread is to exit after the write it is in.
    closed: bool,
    /// The first write that failed, for the next caller to raise.
    failed: Option<ParmoncError>,
    written: u64,
}

impl StateWriter {
    /// A writer for `ranks` ranks' state files in `dir`, with no thread.
    pub(crate) fn new(dir: ResultsDir, ranks: usize) -> Self {
        let cells = Cells {
            states: vec![(None, None); ranks],
            closed: false,
            failed: None,
            written: 0,
        };
        Self {
            shared: Arc::new(Shared {
                dir,
                cells: Mutex::new(cells),
                wake: Condvar::new(),
            }),
            thread: Mutex::new(None),
            next_due: AtomicU64::new(u64::MAX),
            epoch: Instant::now(),
        }
    }

    /// Hands `rank`'s state over at `now`, to be written once `due`.
    ///
    /// # Errors
    ///
    /// An earlier write that failed, or a thread that cannot be started.
    pub(crate) fn hand_off(
        &self,
        rank: usize,
        state: &Subtotal,
        due: Instant,
        now: Instant,
    ) -> Result<(), ParmoncError> {
        let mut cells = self.shared.lock();
        if let Some(e) = cells.failed.take() {
            return Err(e);
        }
        let (cell, pending) = &mut cells.states[rank];
        state.copy_into(cell);
        let due = pending.map_or(due, |earlier| earlier.min(due));
        *pending = Some(due);
        drop(cells);
        if due <= now {
            self.start()
        } else {
            self.next_due
                .fetch_min(self.since_epoch(due), Ordering::Relaxed);
            self.shared.wake.notify_one();
            Ok(())
        }
    }

    /// Starts the thread if a pending state is due at `now`. Before the
    /// thread runs this is one comparison.
    ///
    /// # Errors
    ///
    /// A thread that cannot be started.
    pub(crate) fn start_if_due(&self, now: Instant) -> Result<(), ParmoncError> {
        if self.since_epoch(now) < self.next_due.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.start()
    }

    /// The earliest due time of a pending state while no thread waits
    /// for it: how long rank 0 may block before calling
    /// [`StateWriter::start_if_due`].
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let nanos = self.next_due.load(Ordering::Relaxed);
        (nanos != u64::MAX).then(|| self.epoch + Duration::from_nanos(nanos))
    }

    /// State files written so far.
    pub(crate) fn written(&self) -> u64 {
        self.shared.lock().written
    }

    /// Drops every pending state: the final save-point has committed
    /// all of them. Returns once no write is in flight, so nothing
    /// writes a state file after this.
    ///
    /// # Errors
    ///
    /// The first write that failed.
    pub(crate) fn supersede(&self) -> Result<(), ParmoncError> {
        self.stop();
        let mut cells = self.shared.lock();
        for (_, pending) in &mut cells.states {
            *pending = None;
        }
        cells.failed.take().map_or(Ok(()), Err)
    }

    /// Writes every pending state now, due or not, on the caller's
    /// thread: what an error exit and a socket worker's last step do.
    ///
    /// # Errors
    ///
    /// The first write that failed.
    pub(crate) fn flush(&self) -> Result<(), ParmoncError> {
        self.stop();
        let mut cells = self.shared.lock();
        for rank in 0..cells.states.len() {
            if let (Some(state), Some(_)) = &cells.states[rank] {
                let written = self.shared.write(rank, state);
                cells.states[rank].1 = None;
                cells.note(written);
            }
        }
        cells.failed.take().map_or(Ok(()), Err)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX - 1)
    }

    /// Starts the thread unless it runs; from then on it keeps the due
    /// times itself.
    fn start(&self) -> Result<(), ParmoncError> {
        let mut thread = self.thread.lock().unwrap_or_else(PoisonError::into_inner);
        if thread.is_none() {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("parmonc-state".into())
                .spawn(move || shared.run());
            *thread = Some(spawned.io_ctx("starting the state-file writer")?);
            #[cfg(test)]
            hooks::note_started(self.shared.dir.root());
        }
        self.next_due.store(u64::MAX, Ordering::Relaxed);
        drop(thread);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Stops the thread, if it runs, after the write it is in. A thread
    /// that panicked is a failed write for the next caller to raise.
    fn stop(&self) {
        self.shared.lock().closed = true;
        self.shared.wake.notify_one();
        let thread = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(Err(_)) = thread.map(JoinHandle::join) {
            let panicked = Err(std::io::Error::other("the writer thread panicked"));
            self.shared
                .lock()
                .note(panicked.io_ctx("writing state files"));
        }
    }
}

impl Drop for StateWriter {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Shared {
    /// Every update of the cells is a plain store, so a panic elsewhere
    /// never leaves them half-written.
    fn lock(&self) -> MutexGuard<'_, Cells> {
        self.cells.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self, rank: usize, state: &Subtotal) -> Result<(), ParmoncError> {
        #[cfg(test)]
        hooks::hold(self.dir.root());
        self.dir.save_worker_subtotal(rank, state)
    }

    /// The thread: writes the pending state due first, outside the lock,
    /// and otherwise sleeps until the next due time or a hand-off.
    fn run(&self) {
        let mut cells = self.lock();
        while !cells.closed {
            let now = Instant::now();
            let next = cells
                .states
                .iter()
                .enumerate()
                .filter_map(|(rank, (_, due))| due.map(|due| (due, rank)))
                .min();
            cells = match next {
                Some((due, rank)) if due <= now => {
                    let (cell, pending) = &mut cells.states[rank];
                    *pending = None;
                    let state = cell.take().expect("a pending cell holds a state");
                    drop(cells);
                    let written = self.write(rank, &state);
                    let mut cells = self.lock();
                    cells.states[rank].0.get_or_insert(state);
                    cells.note(written);
                    cells
                }
                Some((due, _)) => {
                    let waited = self.wake.wait_timeout(cells, due - now);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self
                    .wake
                    .wait(cells)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

impl Cells {
    fn note(&mut self, written: Result<(), ParmoncError>) {
        match written {
            Ok(()) => self.written += 1,
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }
}

/// Test hooks on a directory's state writer: hold each of its writes,
/// and tell whether its thread was ever started.
#[cfg(test)]
pub(crate) mod hooks {
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;
    use std::time::Duration;

    static HELD: Mutex<Vec<(PathBuf, Duration)>> = Mutex::new(Vec::new());
    static STARTED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

    /// Every state write into `root` takes `by` longer.
    pub(crate) fn hold_writes(root: &Path, by: Duration) {
        HELD.lock().unwrap().push((root.to_path_buf(), by));
    }

    /// Whether a state writer of `root` started its thread.
    pub(crate) fn started(root: &Path) -> bool {
        STARTED.lock().unwrap().iter().any(|p| p == root)
    }

    pub(super) fn hold(root: &Path) {
        let held = HELD
            .lock()
            .unwrap()
            .iter()
            .find(|(p, _)| p == root)
            .map(|h| h.1);
        if let Some(by) = held {
            std::thread::sleep(by);
        }
    }

    pub(super) fn note_started(root: &Path) {
        STARTED.lock().unwrap().push(root.to_path_buf());
    }
}

/// FNV-1a 64-bit hash — the checkpoint integrity checksum. Hand-rolled
/// (8 lines) to keep the workspace dependency-free.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes an accumulator (plus compute seconds) as the checkpoint /
/// worker-file text format:
///
/// ```text
/// nrow ncol count compute_seconds
/// sum sum_sq          (one line per matrix entry, row-major)
/// # fnv64 <16-hex checksum> len <body bytes>
/// ```
///
/// The footer line covers every byte before it; a torn write truncates
/// it (length mismatch or missing footer) and a bit flip breaks the
/// checksum, so [`decode_checkpoint`] detects both.
///
/// The whole file is written into one buffer reserved up front: a data
/// line is two `{:.16e}` numbers of at most 24 bytes, a space and a
/// newline.
fn encode_checkpoint(acc: &MatrixAccumulator, compute_seconds: f64) -> String {
    use std::fmt::Write as _;
    const LINE_BYTES: usize = 2 * 24 + 2;
    let (nrow, ncol) = acc.shape();
    let mut out = String::with_capacity((nrow * ncol + 2) * LINE_BYTES);
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "{nrow} {ncol} {} {compute_seconds:.16e}", acc.count());
    for (s, q) in acc.sums().iter().zip(acc.sums_sq()) {
        report::push_sci(&mut out, *s);
        out.push(' ');
        report::push_sci(&mut out, *q);
        out.push('\n');
    }
    let (sum, len) = (fnv1a64(out.as_bytes()), out.len());
    let _ = writeln!(out, "# fnv64 {sum:016x} len {len}");
    out
}

/// Decodes the checkpoint text format, verifying and stripping the
/// integrity footer first. Every failure — missing or malformed
/// footer, checksum or length mismatch, unparseable body — is a
/// [`ParmoncError::CorruptCheckpoint`] naming `path` and the reason.
fn decode_checkpoint(text: &str, path: &Path) -> Result<(MatrixAccumulator, f64), ParmoncError> {
    let corrupt = |reason: String| ParmoncError::CorruptCheckpoint {
        path: path.to_path_buf(),
        reason,
    };

    // Verify and strip the footer: it must be the final line and cover
    // exactly the bytes before it.
    let body_start = text
        .rfind("# fnv64 ")
        .ok_or_else(|| corrupt("missing integrity footer".into()))?;
    if body_start != 0 && !text[..body_start].ends_with('\n') {
        return Err(corrupt("integrity footer is not on its own line".into()));
    }
    let footer = text[body_start..].trim_end();
    let body = &text[..body_start];
    let fields: Vec<&str> = footer.split_whitespace().collect();
    if fields.len() != 5 || fields[0] != "#" || fields[1] != "fnv64" || fields[3] != "len" {
        return Err(corrupt(format!("malformed integrity footer {footer:?}")));
    }
    let expected_sum = u64::from_str_radix(fields[2], 16)
        .map_err(|_| corrupt(format!("bad checksum token {:?}", fields[2])))?;
    let expected_len: usize = fields[4]
        .parse()
        .map_err(|_| corrupt(format!("bad length token {:?}", fields[4])))?;
    if body.len() != expected_len {
        return Err(corrupt(format!(
            "length mismatch: footer says {expected_len} bytes, found {} (torn write?)",
            body.len()
        )));
    }
    let actual_sum = fnv1a64(body.as_bytes());
    if actual_sum != expected_sum {
        return Err(corrupt(format!(
            "fnv64 mismatch: footer says {expected_sum:016x}, contents hash to {actual_sum:016x}"
        )));
    }

    let mut lines = body.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| corrupt("empty body".into()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 4 {
        return Err(corrupt(format!(
            "header must have 4 fields, got {}",
            fields.len()
        )));
    }
    let bad = |line: usize, token: &str| corrupt(format!("bad number {token:?} on line {line}"));
    let nrow: usize = fields[0].parse().map_err(|_| bad(1, fields[0]))?;
    let ncol: usize = fields[1].parse().map_err(|_| bad(1, fields[1]))?;
    let count: u64 = fields[2].parse().map_err(|_| bad(1, fields[2]))?;
    let secs: f64 = fields[3].parse().map_err(|_| bad(1, fields[3]))?;

    let mut sums = Vec::with_capacity(nrow * ncol);
    let mut sums_sq = Vec::with_capacity(nrow * ncol);
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 2 {
            return Err(corrupt(format!(
                "data line {} must have 2 fields, got {}",
                lineno + 1,
                fields.len()
            )));
        }
        sums.push(
            fields[0]
                .parse::<f64>()
                .map_err(|_| bad(lineno + 1, fields[0]))?,
        );
        sums_sq.push(
            fields[1]
                .parse::<f64>()
                .map_err(|_| bad(lineno + 1, fields[1]))?,
        );
    }
    let acc = MatrixAccumulator::from_parts(nrow, ncol, sums, sums_sq, count)
        .map_err(|e| corrupt(format!("inconsistent contents: {e}")))?;
    Ok((acc, secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> parmonc_testkit::TempDir {
        let dir = parmonc_testkit::TempDir::new(&format!("files-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_acc() -> MatrixAccumulator {
        let mut acc = MatrixAccumulator::new(2, 3).unwrap();
        acc.add(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        acc.add(&[0.5, -1.5, 2.5, 0.0, 1e-9, 1e9]).unwrap();
        acc
    }

    #[test]
    fn create_builds_tree() {
        let dir = tempdir("create");
        let rd = ResultsDir::create(&dir).unwrap();
        assert!(rd.root().is_dir());
        assert!(rd.root().join("results").is_dir());
        assert!(rd.root().join("workers").is_dir());
        // Creating again is idempotent.
        ResultsDir::create(&dir).unwrap();
    }

    #[test]
    fn open_missing_reports_nothing_to_resume() {
        let dir = tempdir("open-missing");
        let err = ResultsDir::open(dir.join("nope")).unwrap_err();
        assert!(matches!(err, ParmoncError::NothingToResume { .. }));
    }

    /// A missing lease table is nothing to resume, an undecodable one a
    /// corrupt file named as such, and a good one decodes.
    #[test]
    fn lease_table_round_trips_and_is_refused_by_name() {
        let dir = tempdir("leases");
        let rd = ResultsDir::create(&dir).unwrap();
        assert!(matches!(
            rd.lease_table(),
            Err(ParmoncError::NothingToResume { .. })
        ));
        let encoded = "parmonc-leases v1\nepoch 00000000deadbeef\nsize 2\nrank 1 1 0 7\n";
        fs::write(rd.lease_table_path(), &encoded[..encoded.len() / 2]).unwrap();
        let err = rd.lease_table().unwrap_err();
        assert!(matches!(err, ParmoncError::CorruptCheckpoint { .. }));
        assert!(err.to_string().contains("leases.dat"), "{err}");
        fs::write(rd.lease_table_path(), encoded).unwrap();
        assert_eq!(rd.lease_table().unwrap().encode(), encoded);
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let dir = tempdir("ckpt");
        let rd = ResultsDir::create(&dir).unwrap();
        assert!(rd.load_checkpoint().unwrap().is_none());
        let acc = sample_acc();
        rd.save_checkpoint(&acc).unwrap();
        let loaded = rd.load_checkpoint().unwrap().unwrap();
        assert_eq!(loaded.shape(), acc.shape());
        assert_eq!(loaded.count(), acc.count());
        // Bitwise equality: checkpoints must be exact for resumption.
        for (a, b) in loaded.sums().iter().zip(acc.sums()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in loaded.sums_sq().iter().zip(acc.sums_sq()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn results_files_written_and_parseable() {
        let dir = tempdir("results");
        let rd = ResultsDir::create(&dir).unwrap();
        let summary = sample_acc().summary();
        let log = LogReport {
            sample_volume: 2,
            mean_time_per_realization: 0.5,
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: 4,
            seqnum: 1,
        };
        rd.save_results(&summary, &log).unwrap();
        let func = fs::read_to_string(rd.func_path()).unwrap();
        let (nrow, ncol, means) = report::parse_func(&func).unwrap();
        assert_eq!((nrow, ncol), (2, 3));
        assert_eq!(means, summary.means);
        let parsed_log =
            report::parse_func_log(&fs::read_to_string(rd.func_log_path()).unwrap()).unwrap();
        assert_eq!(parsed_log, log);
        let ci = fs::read_to_string(rd.func_ci_path()).unwrap();
        assert_eq!(report::parse_func_ci(&ci).unwrap().len(), 6);
    }

    #[test]
    fn journal_append_and_read() {
        let dir = tempdir("journal");
        let rd = ResultsDir::create(&dir).unwrap();
        assert!(rd.read_experiments().unwrap().is_empty());
        let rec1 = ExperimentRecord {
            seqnum: 0,
            max_sample_volume: 100,
            processors: 4,
            resumed: false,
            volume_before: 0,
        };
        let rec2 = ExperimentRecord {
            seqnum: 2,
            max_sample_volume: 200,
            processors: 8,
            resumed: true,
            volume_before: 100,
        };
        rd.append_experiment(&rec1).unwrap();
        rd.append_experiment(&rec2).unwrap();
        assert_eq!(rd.read_experiments().unwrap(), vec![rec1, rec2]);
    }

    #[test]
    fn worker_subtotals_round_trip_and_clear() {
        let dir = tempdir("workers");
        let rd = ResultsDir::create(&dir).unwrap();
        let sub = Subtotal {
            acc: sample_acc(),
            compute_seconds: 3.25,
        };
        rd.save_worker_subtotal(3, &sub).unwrap();
        rd.save_worker_subtotal(1, &sub).unwrap();
        let loaded = rd.load_worker_subtotals().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, 1); // sorted
        assert_eq!(loaded[1].0, 3);
        assert_eq!(loaded[0].1.compute_seconds, 3.25);
        assert_eq!(loaded[0].1.acc.count(), 2);
        rd.clear_worker_subtotals().unwrap();
        assert!(rd.load_worker_subtotals().unwrap().is_empty());
    }

    #[test]
    fn corrupt_checkpoint_without_backup_errors() {
        let dir = tempdir("corrupt");
        let rd = ResultsDir::create(&dir).unwrap();
        fs::write(rd.checkpoint_path(), "2 3 nonsense 0.0\n").unwrap();
        let err = rd.load_checkpoint().unwrap_err();
        assert!(matches!(err, ParmoncError::CorruptCheckpoint { .. }));
        assert!(err.to_string().contains("checkpoint.dat"));
    }

    #[test]
    fn footer_detects_truncation_and_bit_flips() {
        let acc = sample_acc();
        let good = encode_checkpoint(&acc, 2.0);
        decode_checkpoint(&good, Path::new("t.dat")).unwrap();

        // Torn write: a prefix that loses data must be rejected. (Losing
        // only the final newline keeps body and footer intact, so that
        // single case legitimately still decodes.)
        for cut in [0, 1, good.len() / 2, good.len() - 2] {
            let err = decode_checkpoint(&good[..cut], Path::new("t.dat")).unwrap_err();
            assert!(
                matches!(err, ParmoncError::CorruptCheckpoint { .. }),
                "prefix of {cut} bytes must be corrupt"
            );
        }

        // Bit flip in the body: checksum mismatch.
        let mut bytes = good.clone().into_bytes();
        bytes[4] ^= 0x01;
        if let Ok(flipped) = String::from_utf8(bytes) {
            let err = decode_checkpoint(&flipped, Path::new("t.dat")).unwrap_err();
            assert!(matches!(err, ParmoncError::CorruptCheckpoint { .. }));
        }
    }

    #[test]
    fn save_checkpoint_rotates_a_backup_generation() {
        let dir = tempdir("rotate");
        let rd = ResultsDir::create(&dir).unwrap();
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        assert!(!rd.checkpoint_backup_path().exists());
        acc.add(&[2.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        assert!(rd.checkpoint_backup_path().exists());
        // The backup holds the previous generation.
        let text = fs::read_to_string(rd.checkpoint_backup_path()).unwrap();
        let (old, _) = decode_checkpoint(&text, &rd.checkpoint_backup_path()).unwrap();
        assert_eq!(old.count(), 1);
    }

    #[test]
    fn load_checkpoint_recovers_from_backup_when_primary_is_torn() {
        let dir = tempdir("recover");
        let rd = ResultsDir::create(&dir).unwrap();
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        acc.add(&[2.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        // Tear the primary: keep only the first half of its bytes.
        let full = fs::read_to_string(rd.checkpoint_path()).unwrap();
        fs::write(rd.checkpoint_path(), &full[..full.len() / 2]).unwrap();

        let (recovered, used_backup) = rd.load_checkpoint_recovering().unwrap().unwrap();
        assert!(used_backup);
        assert_eq!(recovered.count(), 1); // last-good generation

        // The plain loader takes the same fallback silently.
        let loaded = rd.load_checkpoint().unwrap().unwrap();
        assert_eq!(loaded.count(), 1);
    }

    #[test]
    fn torn_write_fault_is_caught_on_load() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("torn-fault");
        let plan = FaultPlan::new(7).torn_write("checkpoint.dat", 0);
        let rd = ResultsDir::create(&dir).unwrap().with_faults(plan.build());
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        // The torn write reports success — the damage is only visible
        // on load, which is exactly what the footer is for.
        rd.save_checkpoint(&acc).unwrap();
        let err = rd.load_checkpoint().unwrap_err();
        assert!(matches!(err, ParmoncError::CorruptCheckpoint { .. }));
    }

    #[test]
    fn bit_flip_fault_is_caught_on_load() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("flip-fault");
        let plan = FaultPlan::new(11).bit_flip_write("checkpoint.dat", 0);
        let rd = ResultsDir::create(&dir).unwrap().with_faults(plan.build());
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        let err = rd.load_checkpoint().unwrap_err();
        assert!(matches!(err, ParmoncError::CorruptCheckpoint { .. }));
    }

    #[test]
    fn interrupted_write_is_retried_transparently() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("eintr-fault");
        let plan = FaultPlan::new(13).interrupt_write("checkpoint.dat", 0);
        let rd = ResultsDir::create(&dir).unwrap().with_faults(plan.build());
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        assert_eq!(rd.load_checkpoint().unwrap().unwrap().count(), 1);
    }

    /// The checkpoint format's exact bytes for a fixed 3×2 accumulator,
    /// as the per-line `format!` encoder wrote them: zeros of both
    /// signs, a negative, the smallest subnormal, ±1e300 and a count
    /// above one. A faster encoder must write the same file.
    #[test]
    fn checkpoint_encoding_matches_the_golden_bytes() {
        const GOLDEN: &str = "3 2 7 1.2500000000000000e-1\n\
            0.0000000000000000e0 0.0000000000000000e0\n\
            -0.0000000000000000e0 1.0000000000000000e0\n\
            -3.5000000000000000e0 1.2250000000000000e1\n\
            4.9406564584124654e-324 2.2250738585071984e-309\n\
            1.0000000000000001e300 1.0000000000000001e300\n\
            -1.0000000000000001e300 1.0000000000000001e300\n\
            # fnv64 72fa7e86ebcb67a3 len 297\n";
        let sums = vec![0.0, -0.0, -3.5, 5e-324, 1e300, -1e300];
        let sums_sq = vec![0.0, 1.0, 12.25, 2.225_073_858_507_2e-309, 1e300, 1e300];
        let acc = MatrixAccumulator::from_parts(3, 2, sums.clone(), sums_sq.clone(), 7).unwrap();
        let text = encode_checkpoint(&acc, 0.125);
        assert_eq!(text, GOLDEN);
        let (decoded, secs) = decode_checkpoint(&text, Path::new("golden.dat")).unwrap();
        assert_eq!((decoded.shape(), decoded.count(), secs), ((3, 2), 7, 0.125));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(decoded.sums()), bits(&sums));
        assert_eq!(bits(decoded.sums_sq()), bits(&sums_sq));
    }

    /// A save whose rename fails (`func.dat` is a directory: `EISDIR`)
    /// reports the error and leaves no temp file in `results/`.
    #[test]
    fn a_failed_save_leaves_no_temp_file() {
        let dir = tempdir("failed-save");
        let rd = ResultsDir::create(&dir).unwrap();
        fs::create_dir(rd.func_path()).unwrap();
        let summary = sample_acc().summary();
        let log = LogReport {
            sample_volume: 2,
            mean_time_per_realization: 0.5,
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: 1,
            seqnum: 0,
        };
        assert!(matches!(
            rd.save_results(&summary, &log),
            Err(ParmoncError::Io { .. })
        ));
        let results = fs::read_dir(rd.root().join("results")).unwrap();
        let names: Vec<String> = results
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !names.iter().any(|n| n.contains(".tmp.")),
            "temp file left behind: {names:?}"
        );
    }

    /// The three result files' exact bytes for a fixed 3 × 2 summary,
    /// as the `write!` renderers wrote them: zeros of both signs, a
    /// negative, the smallest subnormal, ±1e300, one ulp either side of
    /// 1e-22 and of 1e17, both roundings of an exact decimal tie, and
    /// infinite relative errors. A faster renderer must write the same
    /// files.
    #[test]
    fn results_files_match_the_golden_bytes() {
        const FUNC: &str = "0.0000000000000000e0 -0.0000000000000000e0\n\
            -3.5000000000000000e0 4.9406564584124654e-324\n\
            1.0000000000000001e300 -1.0000000000000001e300\n";
        const FUNC_CI: &str = "# i j mean abs_error rel_error_percent variance\n\
            1 1 0.0000000000000000e0 9.9999999999999993e-23 inf 0.0000000000000000e0\n\
            1 2 -0.0000000000000000e0 1.0000000000000002e-22 inf 1.0000000000000000e0\n\
            2 1 -3.5000000000000000e0 9.9999999999999984e16 1.0000000000000000e-22 1.2250000000000000e1\n\
            2 2 4.9406564584124654e-324 1.0000000000000002e17 1.0000000000000000e17 2.2250738585072014e-308\n\
            3 1 1.0000000000000001e300 2.2517998136852478e15 1.2500000000000000e1 3.3333333333333331e-1\n\
            3 2 -1.0000000000000001e300 2.2517998136852472e15 1.0000000000000001e-1 1.7976931348623157e308\n";
        const FUNC_LOG: &str = "sample_volume = 7\n\
            mean_time_per_realization_sec = 1.200000000e-7\n\
            eps_max = 1.0000000000000002e17\n\
            rho_max_percent = 1.0000000000000000e17\n\
            sigma2_max = 1.7976931348623157e308\n\
            processors = 2\n\
            seqnum = 3\n";
        let ulps = |v: f64| {
            [
                f64::from_bits(v.to_bits() - 1),
                f64::from_bits(v.to_bits() + 1),
            ]
        };
        let [below_tiny, above_tiny] = ulps(1e-22);
        let [below_big, above_big] = ulps(1e17);
        let summary = MatrixSummary {
            nrow: 3,
            ncol: 2,
            count: 7,
            means: vec![0.0, -0.0, -3.5, 5e-324, 1e300, -1e300],
            abs_errors: vec![
                below_tiny,
                above_tiny,
                below_big,
                above_big,
                // 2 251 799 813 685 247.75 and .25: exact ties.
                9_007_199_254_740_991.0 / 4.0,
                9_007_199_254_740_989.0 / 4.0,
            ],
            rel_errors_percent: vec![f64::INFINITY, f64::INFINITY, 1e-22, 1e17, 12.5, 0.1],
            variances: vec![0.0, 1.0, 12.25, f64::MIN_POSITIVE, 1.0 / 3.0, f64::MAX],
            eps_max: above_big,
            rho_max: 1e17,
            sigma2_max: f64::MAX,
        };
        let log = LogReport {
            sample_volume: 7,
            mean_time_per_realization: 1.2e-7,
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: 2,
            seqnum: 3,
        };
        let dir = tempdir("results-golden");
        let rd = ResultsDir::create(&dir).unwrap();
        rd.save_results(&summary, &log).unwrap();
        let read = |p: PathBuf| fs::read_to_string(p).unwrap();
        assert_eq!(read(rd.func_path()), FUNC);
        assert_eq!(read(rd.func_ci_path()), FUNC_CI);
        assert_eq!(read(rd.func_log_path()), FUNC_LOG);
    }

    #[test]
    fn checkpoint_text_codec_is_bitwise_for_arbitrary_floats() {
        use parmonc_testkit::prelude::*;
        let mut runner = parmonc_testkit::TestRunner::default();
        runner
            .run(
                &(
                    collection::vec(any::<f64>(), 6),
                    collection::vec(any::<f64>(), 6),
                    any::<u64>(),
                ),
                |(sums, sums_sq, count)| {
                    // NaN payloads don't round-trip equality; keep finite
                    // and infinite values, which is what accumulators hold.
                    let clean = |v: &Vec<f64>| -> Vec<f64> {
                        v.iter()
                            .map(|x| if x.is_nan() { 0.0 } else { *x })
                            .collect()
                    };
                    let sums = clean(&sums);
                    let sums_sq = clean(&sums_sq);
                    let acc =
                        MatrixAccumulator::from_parts(2, 3, sums.clone(), sums_sq.clone(), count)
                            .unwrap();
                    let text = encode_checkpoint(&acc, 1.25);
                    let (decoded, secs) = decode_checkpoint(&text, Path::new("prop.dat")).unwrap();
                    prop_assert_eq!(decoded.count(), count);
                    prop_assert_eq!(secs, 1.25);
                    for (a, b) in decoded.sums().iter().zip(&sums) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for (a, b) in decoded.sums_sq().iter().zip(&sums_sq) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    fn sample_log(summary: &MatrixSummary) -> LogReport {
        LogReport {
            sample_volume: summary.count,
            mean_time_per_realization: 0.5,
            eps_max: summary.eps_max,
            rho_max: summary.rho_max,
            sigma2_max: summary.sigma2_max,
            processors: 2,
            seqnum: 0,
        }
    }

    fn count_in(path: PathBuf) -> u64 {
        let text = fs::read_to_string(&path).unwrap();
        decode_checkpoint(&text, &path).unwrap().0.count()
    }

    fn temps_in(dir: PathBuf) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect()
    }

    /// A checkpoint write that fails after its retries leaves the
    /// previous generation as the primary: the rotation to `.bak` comes
    /// only after the new generation is durable in its temp.
    #[test]
    fn a_failed_checkpoint_write_keeps_the_previous_primary() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("failed-rotation");
        let plan = (1..=4).fold(FaultPlan::new(17), |p, n| {
            p.interrupt_write("checkpoint.dat", n)
        });
        let rd = ResultsDir::create(&dir).unwrap().with_faults(plan.build());
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        acc.add(&[2.0]).unwrap();
        assert!(matches!(
            rd.save_checkpoint(&acc),
            Err(ParmoncError::Io { .. })
        ));
        assert_eq!(count_in(rd.checkpoint_path()), 1);
        let (loaded, used_backup) = rd.load_checkpoint_recovering().unwrap().unwrap();
        assert_eq!((loaded.count(), used_backup), (1, false));
        assert!(!rd.checkpoint_backup_path().exists());
        assert!(temps_in(rd.root().join("results")).is_empty());
    }

    /// A save-point stages every file before it rotates or renames
    /// anything: a rendering that fails to stage leaves the previous
    /// checkpoint, its rendering and no `.bak` or temp behind; a good
    /// save-point renames the checkpoint into place after rotating the
    /// previous one.
    #[test]
    fn a_save_point_rotates_only_after_every_temp_is_written() {
        use parmonc_faults::FaultPlan;
        let dir = tempdir("commit-order");
        let rd = ResultsDir::create(&dir).unwrap();
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        let first = acc.summary();
        rd.save_point(&first, &sample_log(&first), &acc).unwrap();
        let func = fs::read_to_string(rd.func_path()).unwrap();

        let plan = (0..=3).fold(FaultPlan::new(19), |p, n| {
            p.interrupt_write("func_ci.dat", n)
        });
        let faulty = ResultsDir::open(&dir).unwrap().with_faults(plan.build());
        acc.add(&[2.0]).unwrap();
        let second = acc.summary();
        assert!(faulty
            .save_point(&second, &sample_log(&second), &acc)
            .is_err());
        assert_eq!(count_in(rd.checkpoint_path()), 1);
        assert!(!rd.checkpoint_backup_path().exists());
        assert_eq!(fs::read_to_string(rd.func_path()).unwrap(), func);
        assert!(temps_in(rd.root().join("results")).is_empty());

        rd.save_point(&second, &sample_log(&second), &acc).unwrap();
        assert_eq!(count_in(rd.checkpoint_path()), 2);
        assert_eq!(count_in(rd.checkpoint_backup_path()), 1);
        let (_, _, means) =
            report::parse_func(&fs::read_to_string(rd.func_path()).unwrap()).unwrap();
        assert_eq!(means, second.means);
    }

    /// Fsyncs are paid for what recovery reads and counted per handle
    /// (clones share the count): a save-point is one commit of two
    /// fsyncs, a state file one, the baseline two, its removal one (none
    /// when there is none to remove), the state files' removal one (none
    /// when there are none), a rendering none.
    #[test]
    fn fsyncs_are_paid_only_for_what_recovery_reads() {
        let dir = tempdir("fsyncs");
        let rd = ResultsDir::create(&dir).unwrap();
        let clone = rd.clone();
        let acc = sample_acc();
        let summary = acc.summary();
        let log = sample_log(&summary);
        let sub = Subtotal {
            acc: acc.clone(),
            compute_seconds: 1.0,
        };
        let mut expected = 0;
        let mut step = |paid: u64, write: &dyn Fn()| {
            write();
            expected += paid;
            assert_eq!(rd.writer().fsyncs(), expected);
        };
        step(0, &|| clone.save_results(&summary, &log).unwrap());
        step(0, &|| clone.write_collector_addr("127.0.0.1:7717").unwrap());
        step(1, &|| clone.save_worker_subtotal(0, &sub).unwrap());
        step(0, &|| clone.discard_baseline().unwrap());
        step(2, &|| clone.save_baseline(&acc).unwrap());
        step(1, &|| clone.discard_baseline().unwrap());
        assert!(!rd.baseline_path().exists());
        assert_eq!(rd.load_baseline().unwrap(), None);
        step(2, &|| clone.save_point(&summary, &log, &acc).unwrap());
        step(2, &|| clone.save_checkpoint(&acc).unwrap());
        step(1, &|| clone.clear_worker_subtotals().unwrap());
        step(0, &|| clone.clear_worker_subtotals().unwrap());
        assert_eq!(ResultsDir::open(&dir).unwrap().writer().fsyncs(), 0);
    }

    /// The state writer's cell is latest-wins and keeps the earliest
    /// due time. A state not yet due starts no thread and writes
    /// nothing; one due at once starts the thread, which writes it;
    /// `supersede` drops what is pending and `flush` writes it.
    #[test]
    fn the_state_writer_writes_the_newest_state_once_due() {
        let dir = tempdir("state-writer");
        let rd = ResultsDir::create(&dir).unwrap();
        let state = |n: u32| {
            let mut acc = MatrixAccumulator::new(1, 2).unwrap();
            for i in 0..n {
                acc.add(&[f64::from(i), 0.5]).unwrap();
            }
            Subtotal {
                acc,
                compute_seconds: f64::from(n),
            }
        };
        let on_disk = |rank| {
            let files = rd.load_worker_subtotals().unwrap();
            files.into_iter().find(|(r, _)| *r == rank).map(|(_, s)| s)
        };
        let now = Instant::now();
        let hour = Duration::from_secs(3600);

        let states = StateWriter::new(rd.clone(), 2);
        states.hand_off(1, &state(1), now + hour, now).unwrap();
        states.hand_off(1, &state(2), now + 2 * hour, now).unwrap();
        let due = states.next_due().expect("a state is pending");
        assert!(due > now + hour / 2 && due <= now + hour, "{due:?}");
        states.start_if_due(now).unwrap();
        states.supersede().unwrap();
        assert!(!hooks::started(rd.root()));
        assert_eq!((states.written(), rd.writer().fsyncs()), (0, 0));
        assert_eq!(on_disk(1), None);

        let states = StateWriter::new(rd.clone(), 2);
        states.hand_off(0, &state(3), now, now).unwrap();
        let waited = Instant::now();
        while states.written() == 0 {
            assert!(waited.elapsed() < Duration::from_secs(10), "never written");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(hooks::started(rd.root()));
        assert_eq!(on_disk(0), Some(state(3)));
        states.hand_off(1, &state(4), now + hour, now).unwrap();
        states.hand_off(1, &state(5), now + hour, now).unwrap();
        states.flush().unwrap();
        assert_eq!(states.written(), 2);
        assert_eq!(on_disk(1), Some(state(5)));
        assert_eq!(rd.writer().fsyncs(), 2);
    }

    #[test]
    fn overwriting_checkpoint_keeps_latest() {
        let dir = tempdir("overwrite");
        let rd = ResultsDir::create(&dir).unwrap();
        let mut acc = MatrixAccumulator::new(1, 1).unwrap();
        acc.add(&[1.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        acc.add(&[2.0]).unwrap();
        rd.save_checkpoint(&acc).unwrap();
        let loaded = rd.load_checkpoint().unwrap().unwrap();
        assert_eq!(loaded.count(), 2);
    }
}
