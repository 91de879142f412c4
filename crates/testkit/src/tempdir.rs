//! Run directories that do not outlive their test.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A path under the system temp dir that is removed, with everything
/// in it, when the guard drops. A test holds the guard until it has
/// read what its run wrote; handing the guard itself to a function
/// that takes `impl AsRef<Path>` by value drops it at that call, so
/// pass `&dir`.
///
/// # Example
///
/// ```
/// use parmonc_testkit::TempDir;
///
/// let dir = TempDir::new("doc-example");
/// std::fs::create_dir_all(&dir).unwrap();
/// std::fs::write(dir.join("x.dat"), "1").unwrap();
/// let path = dir.to_path_buf();
/// drop(dir);
/// assert!(!path.exists());
/// ```
#[derive(Debug)]
#[must_use = "the directory is removed when the guard drops"]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// `parmonc-{name}-{process id}` under the system temp dir, cleared
    /// of whatever an earlier run left there but not created: the code
    /// under test decides when it comes into being.
    pub fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("parmonc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
