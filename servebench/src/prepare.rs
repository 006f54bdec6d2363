//! The prepared start state: a data directory written by the server
//! under test from the seed's INSERT stream, ending with a snapshot
//! generation plus a journal tail.
//!
//! Building it takes a load through `serve`, a graceful shutdown (whose
//! final snapshot becomes the only generation) and a second start, with
//! default flags, that journals the last [`TAIL_EDGES`] edges and is then
//! killed, so every recovery from it loads a snapshot *and* replays a
//! journal. The load runs with checkpoints deferred to that shutdown: the
//! start state is then the same for a seed however the load was
//! scheduled, and it is built in a fraction of the time. The result is
//! cached per seed and server binary under the work directory; the
//! [`KEEP_STATES`] most recently used states are kept.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, UNIX_EPOCH};

use streamlink_core::durable;
use streamlink_core::loadgen::Op;

use crate::load::{self, Script, FAILED};
use crate::server::{dir_bytes, Serve, StartState};
use crate::workload::{prepared_stream, CONNS, DEPTH, PREPARED_EDGES, TAIL_EDGES};

/// Cached states kept besides the one in use (about 110 MB each).
const KEEP_STATES: usize = 11;
/// Checkpoint triggers beyond the load's size and duration.
const DEFER_CHECKPOINTS: [&str; 4] = [
    "--snapshot-every-edges",
    "1000000000",
    "--snapshot-every-secs",
    "1000000",
];

pub struct Prepared {
    /// The data directory (read-only: runs copy it).
    pub dir: PathBuf,
    /// Its newest snapshot generation.
    pub newest_generation: PathBuf,
    /// The stream it holds, in order; the newest generation covers all
    /// but the last [`TAIL_EDGES`].
    pub edges: Vec<(u64, u64)>,
    /// Distinct vertices of the stream.
    pub vertices: usize,
    /// Bytes of the data directory.
    pub bytes: u64,
}

/// Returns the prepared state for `seed`, building it if the cache has
/// none for this seed and server binary.
pub fn prepare(bin: &Path, work: &Path, seed: u64) -> Result<Prepared, String> {
    let ops = prepared_stream(seed);
    let edges: Vec<(u64, u64)> = ops.iter().map(|op| (op.u, op.v)).collect();
    let states = work.join("states");
    let home = states.join(format!("{seed}-{}", binary_key(bin)?));
    let ready = home.join("ready");
    let dir = home.join("data");
    if !ready.exists() {
        let _ = fs::remove_dir_all(&home);
        fs::create_dir_all(&home).map_err(|e| format!("cannot create {}: {e}", home.display()))?;
        build(bin, &home, &dir, &ops)?;
        fs::write(&ready, b"").map_err(|e| e.to_string())?;
    }
    // Mark as most recently used, then evict the rest.
    fs::write(&ready, b"").map_err(|e| e.to_string())?;
    evict(&states, &home);
    let newest_generation = durable::list_generations(&dir)
        .map_err(|e| e.to_string())?
        .pop()
        .map(|(_, path)| path)
        .ok_or("prepared state has no snapshot generation")?;
    let vertices = edges
        .iter()
        .flat_map(|&(u, v)| [u, v])
        .collect::<HashSet<_>>()
        .len();
    let bytes = dir_bytes(&dir).map_err(|e| e.to_string())?;
    Ok(Prepared {
        dir,
        newest_generation,
        edges,
        vertices,
        bytes,
    })
}

/// Identifies the server build, so a rebuilt binary never reuses a state
/// an older build wrote.
fn binary_key(bin: &Path) -> Result<String, String> {
    let meta = fs::metadata(bin).map_err(|e| format!("{}: {e}", bin.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok(format!("{:x}-{mtime:x}", meta.len()))
}

fn build(bin: &Path, home: &Path, dir: &Path, ops: &[Op]) -> Result<(), String> {
    let log = home.join("serve.log");
    let state = StartState::DataDir(dir.to_path_buf());
    let (body, tail) = ops.split_at(PREPARED_EDGES - TAIL_EDGES);

    let serve = Serve::start(bin, &state, &DEFER_CHECKPOINTS, &log)?;
    load(&serve, body)?;
    serve.terminate(Duration::from_secs(120))?;

    let mut serve = Serve::start(bin, &state, &[], &log)?;
    load(&serve, tail)?;
    // Killed, not terminated: a graceful stop would fold the tail into
    // a final snapshot.
    serve.kill();

    let covered = durable::list_generations(dir)
        .map_err(|e| e.to_string())?
        .last()
        .map_or(0, |(seq, _)| *seq);
    if covered != body.len() as u64 {
        return Err(format!(
            "newest generation covers seq {covered}, expected {}",
            body.len()
        ));
    }
    Ok(())
}

/// Inserts `ops` closed-loop over [`CONNS`] connections; every insert
/// must be acknowledged.
fn load(serve: &Serve, ops: &[Op]) -> Result<(), String> {
    let scripts: Vec<Script> = (0..CONNS)
        .map(|c| Script::new(ops.iter().skip(c).step_by(CONNS).copied().collect()))
        .collect();
    let (streams, _) = load::closed_loop(serve.addr, &scripts, DEPTH, Duration::from_secs(60))?;
    let failed = streams
        .iter()
        .map(|s| s.done.iter().filter(|&&d| d == FAILED).count())
        .sum::<usize>();
    if failed > 0 {
        return Err(format!(
            "{failed} inserts failed while preparing the start state"
        ));
    }
    Ok(())
}

/// Removes cached states other than `keep`, oldest first, past
/// [`KEEP_STATES`].
fn evict(states: &Path, keep: &Path) {
    let Ok(entries) = fs::read_dir(states) else {
        return;
    };
    let mut others: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p != keep)
        .map(|p| {
            let used = fs::metadata(p.join("ready"))
                .and_then(|m| m.modified())
                .unwrap_or(UNIX_EPOCH);
            (used, p)
        })
        .collect();
    others.sort();
    let excess = others.len().saturating_sub(KEEP_STATES);
    for (_, path) in others.into_iter().take(excess) {
        let _ = fs::remove_dir_all(path);
    }
}
