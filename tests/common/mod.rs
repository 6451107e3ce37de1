//! Helpers shared by the root integration suites.

use std::path::{Path, PathBuf};

/// A fresh, empty directory under the system temp dir for one test's
/// write-ahead log. It is removed with everything in it when the guard
/// drops, so a test leaves no directory behind, also when it fails.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `vada-test-<pid>-<name>`: unique per test binary run as long as
    /// `name` is unique among the tests of one suite.
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("vada-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
