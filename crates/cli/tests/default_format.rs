//! The default write format, end to end: `streamlink serve` without
//! `--format` writes binary v3 — WAL records, checkpoint generations and
//! the shutdown generation all open with the `SLB3` magic — and a crash
//! on such a data directory loses no acked edge and scrubs clean.
//!
//! The text-format twins of these tests live in `fault_tolerance.rs`
//! and `scrub_fault_matrix.rs`, which pin `--format v2`.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod common;
use common::temp_dir;

use graphstream::VertexId;
use streamlink_core::{durable, journal, SketchConfig, SketchStore};

const SLOTS: &str = "64";
const SEED: &str = "42";

/// A durable `streamlink serve` child with no `--format` flag.
struct Server {
    child: Child,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Server {
    fn start(dir: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--slots", SLOTS, "--seed", SEED])
            .args(["--data-dir", dir.to_str().unwrap(), "--fsync", "always"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn streamlink serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let addr = BufReader::new(stdout)
            .lines()
            .find_map(|line| Some(line.ok()?.strip_prefix("LISTENING ")?.to_string()))
            .expect("server exited before announcing LISTENING");
        let conn = TcpStream::connect(&addr).expect("connect to server");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        Server {
            child,
            conn,
            reader,
        }
    }

    fn ask(&mut self, cmd: &str) -> String {
        writeln!(self.conn, "{cmd}").expect("send command");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        line.trim_end().to_string()
    }

    fn insert_all(&mut self, edges: &[(u64, u64)]) {
        for &(u, v) in edges {
            assert_eq!(self.ask(&format!("INSERT {u} {v}")), "OK inserted");
        }
    }

    fn edges(&mut self) -> u64 {
        let stats = self.ask("STATS");
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("edges="))
            .unwrap_or_else(|| panic!("no edges= in {stats:?}"))
            .parse()
            .unwrap()
    }

    /// SIGKILL: no drain, no final snapshot.
    fn kill(mut self) {
        self.child.kill().expect("SIGKILL child");
        self.child.wait().expect("reap child");
    }

    /// SIGTERM: drain and write the shutdown generation.
    fn terminate(mut self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "SIGTERM exit: {status:?}");
                return;
            }
            assert!(start.elapsed() < Duration::from_secs(8), "SIGTERM hang");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Two hubs sharing a neighborhood plus a long tail.
fn edges(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .flat_map(|w| [(1, 100 + w % 17), (2, 100 + w % 13), (w % 5 + 3, 200 + w)])
        .collect()
}

/// JACCARD and DEGREE answers of an uninterrupted in-process run,
/// formatted as the server formats them.
fn reference_answers(stream: &[(u64, u64)]) -> Vec<String> {
    let mut store = SketchStore::new(
        SketchConfig::with_slots(SLOTS.parse().unwrap()).seed(SEED.parse().unwrap()),
    );
    for &(u, v) in stream {
        store.insert_edge(VertexId(u), VertexId(v));
    }
    let mut out = Vec::new();
    for (u, v) in [(1, 2), (1, 3), (3, 4)] {
        let j = store.jaccard(VertexId(u), VertexId(v));
        out.push(j.map_or("OK unseen".to_string(), |s| format!("OK {s:.6}")));
        out.push(format!("OK {}", store.degree(VertexId(u))));
    }
    out
}

fn server_answers(server: &mut Server) -> Vec<String> {
    let mut out = Vec::new();
    for (u, v) in [(1, 2), (1, 3), (3, 4)] {
        out.push(server.ask(&format!("JACCARD {u} {v}")));
        out.push(server.ask(&format!("DEGREE {u}")));
    }
    out
}

fn starts_with_slb3(path: &Path) -> bool {
    fs::read(path).unwrap().starts_with(b"SLB3")
}

#[test]
fn sigkill_mid_insert_on_a_default_data_dir_loses_no_acked_edge() {
    let dir = temp_dir("sigkill");
    let stream = edges(120);
    let cut = stream.len() / 2;

    // A tiny edge budget checkpoints during ingest, so the crash lands
    // with v3 generations and a v3 journal tail on disk.
    let mut server = Server::start(&dir, &["--snapshot-every-edges", "37"]);
    server.insert_all(&stream[..cut]);
    server.kill();

    let mut server = Server::start(&dir, &[]);
    assert_eq!(server.edges(), cut as u64, "every acked edge recovered");
    server.insert_all(&stream[cut..]);
    assert_eq!(
        server_answers(&mut server),
        reference_answers(&stream),
        "recovered estimates diverge from the uninterrupted run"
    );
    server.kill();

    let out = Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args(["scrub", "--data-dir", dir.to_str().unwrap()])
        .output()
        .expect("run streamlink scrub");
    let report = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{report}");
    assert!(report.contains("CLEAN"), "{report}");
    assert!(report.contains("(v3 verified"), "{report}");
    assert!(!report.contains("v2 verified"), "{report}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn default_data_dir_writes_v3_wal_and_generations() {
    let dir = temp_dir("slb3");
    let stream = edges(30);

    let mut server = Server::start(&dir, &[]);
    server.insert_all(&stream);
    let (_, segment) = journal::list_segments(&dir).unwrap().pop().unwrap();
    assert!(starts_with_slb3(&segment), "WAL segment {segment:?}");
    server.terminate();

    let (seq, generation) = durable::list_generations(&dir).unwrap().pop().unwrap();
    assert_eq!(seq, stream.len() as u64, "shutdown generation covers all");
    assert!(starts_with_slb3(&generation), "generation {generation:?}");

    let mut server = Server::start(&dir, &[]);
    assert_eq!(server.edges(), stream.len() as u64);
    assert_eq!(server_answers(&mut server), reference_answers(&stream));
    server.terminate();
    fs::remove_dir_all(&dir).unwrap();
}
