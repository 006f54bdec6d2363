//! The server under test: `streamlink serve` as a separate process.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::sys;

/// The flags every workload pins; everything else stays at its default.
pub const PINNED_FLAGS: [&str; 6] = [
    "--addr",
    "127.0.0.1:0",
    "--slots",
    "64",
    "--fsync",
    "interval",
];

/// How the server gets its start state.
#[derive(Debug, Clone)]
pub enum StartState {
    /// `--data-dir DIR`: durable, recovers snapshot plus journal.
    DataDir(PathBuf),
    /// `--snapshot FILE`: in memory, no journal.
    Snapshot(PathBuf),
}

impl StartState {
    /// The complete `serve` argument list.
    #[must_use]
    pub fn args(&self) -> Vec<String> {
        let mut args = vec!["serve".to_string()];
        args.extend(PINNED_FLAGS.iter().map(|s| (*s).to_string()));
        let (flag, path) = match self {
            StartState::DataDir(p) => ("--data-dir", p),
            StartState::Snapshot(p) => ("--snapshot", p),
        };
        args.push(flag.into());
        args.push(path.display().to_string());
        args
    }
}

/// A running `streamlink serve`.
pub struct Serve {
    child: Child,
    /// Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to first answered `PING`.
    pub setup: Duration,
}

/// How a server run ended.
#[derive(Debug, Clone, Copy)]
pub struct Shutdown {
    /// SIGTERM to exit.
    pub elapsed: Duration,
    /// Highest `VmHWM` seen before exit, KiB.
    pub peak_rss_kib: u64,
}

impl Serve {
    /// Spawns the server with `extra` flags after the pinned ones and
    /// waits until it answers `PING`; stderr is appended to `log`.
    pub fn start(
        bin: &Path,
        state: &StartState,
        extra: &[&str],
        log: &Path,
    ) -> Result<Serve, String> {
        let stderr = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(state.args())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "serve did not announce its address (got {line:?}); see {}",
                log.display()
            ));
        };
        let ping = (|| -> std::io::Result<String> {
            let mut conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            conn.write_all(b"PING\n")?;
            let mut reply = String::new();
            BufReader::new(conn).read_line(&mut reply)?;
            Ok(reply)
        })();
        let setup = started.elapsed();
        let mut serve = Serve {
            child,
            _stdout: stdout,
            addr,
            setup,
        };
        match ping {
            Ok(reply) if reply.trim_end() == "OK pong" => Ok(serve),
            other => {
                serve.kill();
                Err(format!("first PING failed: {other:?}"))
            }
        }
    }

    /// The server's current `VmHWM`, KiB.
    #[must_use]
    pub fn peak_rss_kib(&self) -> Option<u64> {
        sys::peak_rss_kib(self.child.id())
    }

    /// SIGKILL and reap: ends the process without a final snapshot.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGTERM, then waits up to `limit` for exit 0, sampling `VmHWM`
    /// until the process is gone so the final snapshot's peak counts.
    pub fn terminate(mut self, limit: Duration) -> Result<Shutdown, String> {
        let mut peak = self.peak_rss_kib().unwrap_or(0);
        let started = Instant::now();
        sys::terminate(self.child.id()).map_err(|e| format!("SIGTERM failed: {e}"))?;
        let status: ExitStatus = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() > limit => {
                    self.kill();
                    return Err(format!("serve did not exit within {limit:?} of SIGTERM"));
                }
                Ok(None) => {
                    if let Some(kib) = self.peak_rss_kib() {
                        peak = peak.max(kib);
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(e) => return Err(format!("wait failed: {e}")),
            }
        };
        let elapsed = started.elapsed();
        if !status.success() {
            return Err(format!("serve exited with {status} after SIGTERM"));
        }
        Ok(Shutdown {
            elapsed,
            peak_rss_kib: peak,
        })
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // A run that bails out early must not leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Copies a file or a directory tree (regular files only) and forces
/// every file and directory to disk, so a later timed phase does not pay
/// for this copy's writeback.
pub fn copy_durably(src: &Path, dst: &Path) -> std::io::Result<u64> {
    if src.is_file() {
        let bytes = std::fs::copy(src, dst)?;
        File::open(dst)?.sync_all()?;
        if let Some(parent) = dst.parent() {
            File::open(parent)?.sync_all()?;
        }
        return Ok(bytes);
    }
    std::fs::create_dir_all(dst)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        let to = dst.join(entry.file_name());
        if kind.is_dir() {
            bytes += copy_durably(&entry.path(), &to)?;
        } else if kind.is_file() {
            bytes += std::fs::copy(entry.path(), &to)?;
            File::open(&to)?.sync_all()?;
        }
    }
    File::open(dst)?.sync_all()?;
    Ok(bytes)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            bytes += dir_bytes(&entry.path())?;
        } else if kind.is_file() {
            bytes += entry.metadata()?.len();
        }
    }
    Ok(bytes)
}
