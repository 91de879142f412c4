//! The one atomic-write primitive of the results directory and the TCP
//! lease table: a temp beside the target, fsynced before its rename if
//! *durable*, and one directory fsync for a commit whose renames must
//! survive a power loss.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Temp names are pid + this counter, so concurrent writers never collide.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes files by temp and rename and counts the fsyncs it issues —
/// per writer, not per process; clones share the count.
#[derive(Debug, Clone, Default)]
pub struct AtomicWriter {
    fsyncs: Arc<AtomicU64>,
}

/// A temp not yet renamed into place. Dropped unpublished, it removes
/// the temp: nothing sweeps the directory.
#[derive(Debug)]
pub struct Staged {
    tmp: PathBuf,
    path: PathBuf,
}

impl AtomicWriter {
    /// Fsyncs issued so far by this writer and its clones.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Writes `bytes` to a fresh temp beside `path`, fsynced if
    /// `durable`.
    pub fn stage(&self, path: &Path, bytes: &[u8], durable: bool) -> io::Result<Staged> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{n}", std::process::id()));
        let staged = Staged {
            tmp,
            path: path.to_path_buf(),
        };
        let mut f = fs::File::create(&staged.tmp)?;
        f.write_all(bytes)?;
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

    fn sync(&self, f: &fs::File) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        f.sync_all()
    }
}

impl Staged {
    /// Renames the temp into place.
    pub fn publish(mut self) -> io::Result<()> {
        fs::rename(&self.tmp, &self.path)?;
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
