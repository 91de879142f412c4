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
//! All writes go through a uniquely named temp file that is fsynced,
//! renamed into place, and followed by an fsync of the parent
//! directory — so a crash mid-write never corrupts a save-point and
//! two concurrent runs in one directory cannot collide on the temp
//! name. Checkpoint-format files additionally carry an FNV-1a 64
//! checksum + length footer; [`ResultsDir::load_checkpoint`] falls
//! back to the last-good `.bak` generation when the primary fails its
//! integrity check.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parmonc_faults::{FaultHandle, IoFault};
use parmonc_stats::report::{self, LogReport};
use parmonc_stats::{MatrixAccumulator, MatrixSummary};

use crate::error::{IoContext, ParmoncError};
use crate::messages::Subtotal;

/// Name of the data directory created in the working directory.
pub const DATA_DIR: &str = "parmonc_data";

/// Distinguishes concurrent writers within one process so temp names
/// never collide (the process id distinguishes processes).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Handle to a `parmonc_data` directory tree.
#[derive(Debug, Clone)]
pub struct ResultsDir {
    root: PathBuf,
    /// Fault plane for I/O fault injection; disabled outside chaos
    /// tests.
    faults: FaultHandle,
}

impl PartialEq for ResultsDir {
    fn eq(&self, other: &Self) -> bool {
        // Identity is the directory; the fault plane is run plumbing.
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
        fs::create_dir_all(root.join("results"))
            .io_ctx(format!("creating {}", root.join("results").display()))?;
        fs::create_dir_all(root.join("workers"))
            .io_ctx(format!("creating {}", root.join("workers").display()))?;
        Ok(Self {
            root,
            faults: FaultHandle::disabled(),
        })
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
            faults: FaultHandle::disabled(),
        })
    }

    /// Attaches a fault plane so chaos tests can inject I/O faults
    /// (torn writes, bit flips, interrupts) into this directory's
    /// writes. The disabled handle (the default) costs one branch.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
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
    /// (`results/checkpoint.dat.bak`), rotated on every
    /// [`ResultsDir::save_checkpoint`] and used as the fallback when
    /// the primary fails its integrity check.
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
        self.write_atomic(&self.collector_addr_path(), &format!("{addr}\n"))
    }

    /// Path of `results/leases.dat` — the TCP collector's persisted
    /// lease table (session epoch, per-rank lease/retire flags, and
    /// sequence-dedup watermarks), rewritten before every grant so a
    /// `resume_listen` restart recognizes every lease a worker holds.
    #[must_use]
    pub fn lease_table_path(&self) -> PathBuf {
        self.root.join("results/leases.dat")
    }

    /// Loads the persisted lease table, or `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] if the file exists but cannot be
    /// read.
    pub fn load_lease_table(&self) -> Result<Option<String>, ParmoncError> {
        let path = self.lease_table_path();
        if !path.exists() {
            return Ok(None);
        }
        fs::read_to_string(&path)
            .map(Some)
            .io_ctx(format!("reading {}", path.display()))
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

    /// Atomically replaces `path` with `contents`: write a uniquely
    /// named temp file (pid + counter, so concurrent runs in one
    /// directory never collide), fsync it, rename it into place, and
    /// fsync the parent directory so the rename itself is durable.
    ///
    /// With an attached fault plane this is also where I/O faults are
    /// injected: an `Interrupted` write is retried (as callers of raw
    /// `write` must), a bit flip corrupts the contents in place, and a
    /// torn write leaves a truncated file at the final path — exactly
    /// the crash-mid-save the checksum footer exists to catch.
    fn write_atomic(&self, path: &Path, contents: &str) -> Result<(), ParmoncError> {
        let mut contents = std::borrow::Cow::Borrowed(contents.as_bytes());
        if self.faults.is_enabled() {
            let mut interrupts = 0u32;
            loop {
                match self.faults.on_write(path) {
                    None => break,
                    Some(IoFault::Interrupted) => {
                        // A real Interrupted write is transient; model
                        // the caller-visible retry, but never spin.
                        interrupts += 1;
                        if interrupts > 3 {
                            return Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
                                .io_ctx(format!("writing {}", path.display()));
                        }
                    }
                    Some(IoFault::BitFlip) => {
                        let mut corrupted = contents.into_owned();
                        let _ = parmonc_faults::flip_one_bit(
                            path.as_os_str().len() as u64,
                            &mut corrupted,
                        );
                        contents = std::borrow::Cow::Owned(corrupted);
                        break;
                    }
                    Some(IoFault::TornWrite) => {
                        // Model a crash mid-save: a truncated file at
                        // the final path, bypassing the atomic rename.
                        let torn = &contents[..contents.len() / 2];
                        fs::write(path, torn).io_ctx(format!("writing {}", path.display()))?;
                        return Ok(());
                    }
                }
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let write_and_rename = || {
            {
                let mut f = fs::File::create(&tmp).io_ctx(format!("creating {}", tmp.display()))?;
                f.write_all(&contents)
                    .io_ctx(format!("writing {}", tmp.display()))?;
                f.sync_all().io_ctx(format!("syncing {}", tmp.display()))?;
            }
            fs::rename(&tmp, path).io_ctx(format!("renaming into {}", path.display()))
        };
        if let Err(e) = write_and_rename() {
            // Nothing sweeps the directory: remove what the failed save left.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Make the rename durable: fsync the parent directory. Some
        // platforms cannot open directories for syncing; that is not a
        // data-loss path, so only a failed sync of an opened dir is an
        // error.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                dir.sync_all()
                    .io_ctx(format!("syncing directory {}", parent.display()))?;
            }
        }
        Ok(())
    }

    /// Writes the three human-readable result files from a summary and
    /// run metadata.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_results(
        &self,
        summary: &MatrixSummary,
        log: &LogReport,
    ) -> Result<(), ParmoncError> {
        self.write_atomic(&self.func_path(), &report::render_func(summary))?;
        self.write_atomic(&self.func_ci_path(), &report::render_func_ci(summary))?;
        self.write_atomic(&self.func_log_path(), &report::render_func_log(log))
    }

    /// Writes the exact resumption state (raw sums), first rotating
    /// the previous checkpoint to `.bak` so a torn write of the new
    /// generation can always fall back to the last good one.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_checkpoint(&self, acc: &MatrixAccumulator) -> Result<(), ParmoncError> {
        let path = self.checkpoint_path();
        if path.exists() {
            let backup = self.checkpoint_backup_path();
            fs::rename(&path, &backup)
                .io_ctx(format!("rotating checkpoint to {}", backup.display()))?;
        }
        self.write_atomic(&path, &encode_checkpoint(acc, 0.0))
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
        match Self::load_acc_file(&primary) {
            Ok(Some(acc)) => Ok(Some((acc, false))),
            Ok(None) => match Self::load_acc_file(&backup)? {
                Some(acc) => Ok(Some((acc, true))),
                None => Ok(None),
            },
            Err(err @ ParmoncError::CorruptCheckpoint { .. }) => {
                match Self::load_acc_file(&backup) {
                    Ok(Some(acc)) => Ok(Some((acc, true))),
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
        self.write_atomic(&self.baseline_path(), &encode_checkpoint(acc, 0.0))
    }

    /// Loads the baseline state, or `None` if absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Parse`] / [`ParmoncError::Io`] as for
    /// [`ResultsDir::load_checkpoint`].
    pub fn load_baseline(&self) -> Result<Option<MatrixAccumulator>, ParmoncError> {
        Self::load_acc_file(&self.baseline_path())
    }

    fn load_acc_file(path: &Path) -> Result<Option<MatrixAccumulator>, ParmoncError> {
        if !path.exists() {
            return Ok(None);
        }
        let text = fs::read_to_string(path).io_ctx(format!("reading {}", path.display()))?;
        let (acc, _secs) = decode_checkpoint(&text, path)?;
        Ok(Some(acc))
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
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .io_ctx(format!("opening {}", path.display()))?;
        f.write_all(line.as_bytes())
            .io_ctx(format!("appending to {}", path.display()))
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
        self.save_worker_state(worker, &subtotal.acc, subtotal.compute_seconds)
    }

    /// [`ResultsDir::save_worker_subtotal`] from borrowed accumulator
    /// state — lets the simulation loop checkpoint its running
    /// accumulator without cloning it into a [`Subtotal`] first.
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on write failure.
    pub fn save_worker_state(
        &self,
        worker: usize,
        acc: &MatrixAccumulator,
        compute_seconds: f64,
    ) -> Result<(), ParmoncError> {
        self.write_atomic(
            &self.worker_path(worker),
            &encode_checkpoint(acc, compute_seconds),
        )
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
            let path = entry.path();
            let text = fs::read_to_string(&path).io_ctx(format!("reading {}", path.display()))?;
            let (acc, compute_seconds) = decode_checkpoint(&text, &path)?;
            out.push((
                idx,
                Subtotal {
                    acc,
                    compute_seconds,
                },
            ));
        }
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out)
    }

    /// Removes all worker subtotal files (done when a run completes
    /// cleanly and they are folded into the checkpoint).
    ///
    /// # Errors
    ///
    /// Returns [`ParmoncError::Io`] on removal failure.
    pub fn clear_worker_subtotals(&self) -> Result<(), ParmoncError> {
        let dir = self.root.join("workers");
        let entries = fs::read_dir(&dir).io_ctx(format!("listing {}", dir.display()))?;
        for entry in entries {
            let entry = entry.io_ctx("reading directory entry")?;
            fs::remove_file(entry.path()).io_ctx(format!("removing {}", entry.path().display()))?;
        }
        Ok(())
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

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parmonc-files-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
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

    #[test]
    fn lease_table_round_trips_and_is_optional() {
        let dir = tempdir("leases");
        let rd = ResultsDir::create(&dir).unwrap();
        assert!(rd.load_lease_table().unwrap().is_none());
        let encoded = "parmonc-leases v1\nepoch 00000000deadbeef\nsize 2\nrank 1 1 0 7\n";
        fs::write(rd.lease_table_path(), encoded).unwrap();
        assert_eq!(rd.load_lease_table().unwrap().as_deref(), Some(encoded));
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
