//! The one writer of the results directory and the TCP lease table: it
//! makes every mutation of the tree and injects every I/O fault of a
//! plan. A file goes to a temp beside the target, fsynced before its
//! rename if *durable*, and one directory fsync makes a commit's renames
//! survive a power loss.

use std::borrow::Cow;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{flip_one_bit, FaultHandle, IoFault};

/// Temp names are pid + this counter, so concurrent writers never collide.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes files by temp and rename and counts the fsyncs and mutations
/// it makes — per writer, not per process; clones share the counts.
#[derive(Debug, Clone, Default)]
pub struct AtomicWriter {
    faults: FaultHandle,
    counts: Arc<Counts>,
}

#[derive(Debug, Default)]
struct Counts {
    fsyncs: AtomicU64,
    mutations: AtomicU64,
}

impl Counts {
    /// Counts `op` as one mutation if it succeeded.
    fn mutated<T>(&self, op: io::Result<T>) -> io::Result<T> {
        if op.is_ok() {
            self.mutations.fetch_add(1, Ordering::Relaxed);
        }
        op
    }
}

/// A temp not yet renamed into place. Dropped unpublished, it removes
/// the temp: nothing sweeps the directory.
#[derive(Debug)]
pub struct Staged {
    tmp: PathBuf,
    path: PathBuf,
    counts: Arc<Counts>,
}

impl AtomicWriter {
    /// This writer, counts and all, injecting the I/O faults `faults`
    /// scripts. The disabled handle (the default) costs one branch.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Fsyncs issued so far by this writer and its clones.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.counts.fsyncs.load(Ordering::Relaxed)
    }

    /// Mutations made so far by this writer and its clones: a temp
    /// written, a rename (publish or rotation), a file removed, an
    /// append and a directory tree created are one each.
    #[must_use]
    pub fn mutations(&self) -> u64 {
        self.counts.mutations.load(Ordering::Relaxed)
    }

    /// Writes `bytes` to a fresh temp beside `path`, fsynced if
    /// `durable`. A scripted `Interrupted` write is retried (as callers
    /// of raw `write` must), a bit flip corrupts the bytes, and a torn
    /// write stages their first half unsynced, so that its publish
    /// leaves the truncated file a crash mid-save would.
    pub fn stage(&self, path: &Path, bytes: &[u8], mut durable: bool) -> io::Result<Staged> {
        let mut bytes = Cow::Borrowed(bytes);
        let mut interrupts = 0;
        while let Some(fault) = self.faults.on_write(path) {
            match fault {
                // Model the retry, but never spin.
                IoFault::Interrupted if interrupts < 3 => interrupts += 1,
                IoFault::Interrupted => return Err(io::ErrorKind::Interrupted.into()),
                IoFault::BitFlip => {
                    let seed = path.as_os_str().len() as u64;
                    let _ = flip_one_bit(seed, bytes.to_mut());
                    break;
                }
                IoFault::TornWrite => {
                    bytes = Cow::Owned(bytes[..bytes.len() / 2].to_vec());
                    durable = false;
                    break;
                }
            }
        }
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let staged = Staged {
            tmp: path.with_extension(format!("tmp.{}.{n}", std::process::id())),
            path: path.to_path_buf(),
            counts: Arc::clone(&self.counts),
        };
        let mut f = self.counts.mutated(fs::File::create(&staged.tmp))?;
        f.write_all(&bytes)?;
        if durable {
            self.sync(&f)?;
        }
        Ok(staged)
    }

    /// Fsyncs directory `dir`, making the renames into it durable. A
    /// directory the platform cannot open for syncing is skipped: that
    /// is not a data-loss path.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir).map_or(Ok(()), |d| self.sync(&d))
    }

    /// One durable file as its own commit: a fsynced temp, the rename
    /// and a fsync of the directory.
    pub fn write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.stage(path, bytes, true)?.publish()?;
        path.parent().map_or(Ok(()), |dir| self.sync_dir(dir))
    }

    /// Renames `path`, if it exists, to `backup`.
    pub fn rotate(&self, path: &Path, backup: &Path) -> io::Result<()> {
        if path.exists() {
            self.counts.mutated(fs::rename(path, backup))?;
        }
        Ok(())
    }

    /// Appends `bytes` to `path`, created if absent: neither fsynced
    /// nor renamed.
    pub fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let open = fs::OpenOptions::new().create(true).append(true).open(path);
        self.counts.mutated(open)?.write_all(bytes)
    }

    /// Creates directory `dir` and its missing parents.
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.counts.mutated(fs::create_dir_all(dir))
    }

    /// Removes each of `paths` that exists, then fsyncs `dir`, the
    /// directory they are in, once if any went.
    pub fn remove(&self, dir: &Path, paths: impl IntoIterator<Item = PathBuf>) -> io::Result<()> {
        let mut removed = false;
        for path in paths {
            match fs::remove_file(path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                gone => {
                    self.counts.mutated(gone)?;
                    removed = true;
                }
            }
        }
        if removed {
            self.sync_dir(dir)?;
        }
        Ok(())
    }

    fn sync(&self, f: &fs::File) -> io::Result<()> {
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        f.sync_all()
    }
}

impl Staged {
    /// Renames the temp into place.
    pub fn publish(mut self) -> io::Result<()> {
        self.counts.mutated(fs::rename(&self.tmp, &self.path))?;
        self.tmp = PathBuf::new();
        Ok(())
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if !self.tmp.as_os_str().is_empty() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}
