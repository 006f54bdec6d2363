//! Helpers shared by the integration tests of this crate.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, unique per test
/// binary, tag and call.
pub fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("streamlink-cli-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
