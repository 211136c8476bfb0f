//! Shared by the integration tests (`mod common;`): a private temp
//! directory for the ones that touch the real file system.

#![allow(
    dead_code,
    reason = "each test binary compiles this module and uses its own subset"
)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp dir that belongs to one caller:
/// the name carries the pid and a per-process counter, so tests running
/// in parallel in one binary (or in two binaries at once) never share
/// it. Removed on drop, also when the test panics.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Reserve `<tmp>/<tag>-<pid>-<n>`, clearing anything a killed
    /// earlier run with the same pid left there. The directory itself is
    /// created by whoever writes into it (`LocalFs::new` does).
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("clearing {}: {e}", dir.display())
            }
            _ => TempDir(dir),
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("leaving {}: {e}", self.0.display());
        }
    }
}
