//! The serving side of durability: open a data directory, keep the
//! journal, run the background checkpointer.
//!
//! The crash-safety protocol itself lives in `streamlink-core`
//! ([`streamlink_core::journal`], [`streamlink_core::durable`]); this
//! module wires it to the live server:
//!
//! * [`open`] recovers the store (best snapshot generation + journal
//!   tail, falling back past corrupt generations) and opens a fresh
//!   journal segment at the recovered WAL high-water mark — *not* the
//!   store's edge count, which runs behind after corrupt records were
//!   quarantined.
//! * [`checkpoint_now`] captures a snapshot and rotates the journal
//!   under the locks, then writes a new generation, trims retention, and
//!   prunes with no store lock held. Sketches are copy-on-write, so the
//!   capture copies one pointer per vertex: ingestion stalls for that
//!   and the rotation (`checkpoint.capture_pause_ns`), and a writer
//!   copies a sketch only when it changes one the capture still holds.
//! * `checkpoint_loop` runs `checkpoint_now` whenever the journal lag
//!   passes the configured edge budget or the time interval elapses.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use streamlink_core::chaos::FaultPlan;
use streamlink_core::durable::{self, Recovery};
use streamlink_core::journal::{FsyncPolicy, Journal};
use streamlink_core::metrics;
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::WireFormat;

use super::ServerState;

/// A live data directory: its path plus the journal accepting new
/// appends. Sits behind a `Mutex` inside [`ServerState`].
#[derive(Debug)]
pub struct Persist {
    pub(super) dir: PathBuf,
    pub(super) journal: Journal,
}

/// Recovers the store from `dir` (moving it out via
/// [`Recovery::store`]) and opens a journal segment for the edges this
/// process will ack. New records — journal appends and checkpoint
/// snapshots — are written in `format`; recovery reads whatever formats
/// the directory already holds, so switching formats needs no
/// migration step. Returns the recovery report so the caller can log
/// what was rebuilt (fallbacks taken, records quarantined).
///
/// # Errors
/// Fails on environmental IO errors (unreadable directory, journal
/// creation). Corruption is not fatal: recovery falls back and
/// quarantines (see [`streamlink_core::recover`]). A missing/empty
/// directory is not an error (fresh start).
pub fn open(
    dir: &Path,
    config: streamlink_core::SketchConfig,
    fsync: FsyncPolicy,
    format: WireFormat,
) -> io::Result<(Persist, Recovery)> {
    open_with_faults(dir, config, fsync, format, None)
}

/// Like [`open`], but installs a scripted [`FaultPlan`] on the journal,
/// so tests can make exact appends/fsyncs/snapshot-writes of a *live*
/// server fail. Production callers use [`open`].
///
/// # Errors
/// As [`open`].
pub fn open_with_faults(
    dir: &Path,
    config: streamlink_core::SketchConfig,
    fsync: FsyncPolicy,
    format: WireFormat,
    faults: Option<Arc<FaultPlan>>,
) -> io::Result<(Persist, Recovery)> {
    fs::create_dir_all(dir)?;
    let recovery = durable::recover(dir, config)?;
    let journal = Journal::create_with_format(dir, recovery.next_seq(), fsync, format, faults)?;
    Ok((
        Persist {
            dir: dir.to_path_buf(),
            journal,
        },
        recovery,
    ))
}

/// What one checkpoint accomplished.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// WAL seq the new snapshot generation covers.
    pub snapshot_seq: u64,
    /// Journal segments the retained generations made deletable.
    pub segments_pruned: usize,
}

/// Takes one checkpoint: capture + journal rotation under the store
/// lock and the persist mutex (brief; timed into
/// `checkpoint.capture_pause_ns`), then — holding neither —
/// [`durable::write_generation`], and finally a journal prune back to
/// the oldest retained generation under the persist mutex alone (so
/// every retained generation can still replay forward; see
/// [`streamlink_core::checkpoint`] for the ordering argument). The
/// whole attempt is counted by [`durable::metered`].
///
/// Safe against a crash at any point: the snapshot write is atomic, and
/// trimming/pruning only run after it returns.
///
/// # Errors
/// Fails on IO errors — real or injected via the journal's
/// [`FaultPlan`]; the journal still holds every acked edge, so a failed
/// checkpoint costs nothing but disk space.
pub fn checkpoint_now(state: &ServerState) -> io::Result<CheckpointReport> {
    let Some(persist) = state.persist.as_ref() else {
        return Ok(CheckpointReport {
            snapshot_seq: 0,
            segments_pruned: 0,
        });
    };
    fn lock(p: &std::sync::Mutex<Persist>) -> std::sync::MutexGuard<'_, Persist> {
        p.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    durable::metered(|| {
        let (snapshot, wal_seq, dir, format, faults) = {
            let store = state.read_store();
            let paused = Instant::now();
            let mut persist = lock(persist);
            let snapshot = StoreSnapshot::capture(&store);
            let wal_seq = persist.journal.next_seq() - 1;
            let rotated = persist.journal.rotate(wal_seq + 1);
            metrics::global().checkpoint_capture_pause.observe(paused);
            rotated?;
            (
                snapshot,
                wal_seq,
                persist.dir.clone(),
                persist.journal.format(),
                persist.journal.faults().cloned(),
            )
        };
        let oldest_retained = durable::write_generation(
            &snapshot,
            wal_seq,
            &dir,
            format,
            faults.as_deref(),
            state.config().snapshot_keep,
        )?;
        let segments_pruned = lock(persist).journal.prune_below(oldest_retained)?;
        state.set_last_snapshot_seq(snapshot.edges_processed);
        Ok(CheckpointReport {
            snapshot_seq: wal_seq,
            segments_pruned,
        })
    })
}

/// The checkpointer thread body: poll until shutdown, checkpointing
/// when the journal lag hits the edge budget or the interval elapses
/// with anything to persist. The final shutdown checkpoint is the
/// lifecycle's job ([`super::serve`]), not this loop's.
pub(super) fn checkpoint_loop(state: &ServerState) {
    let interval = state.config().snapshot_every;
    let edge_budget = state.config().snapshot_every_edges.max(1);
    let mut last_attempt = Instant::now();
    while !state.shutdown_requested() {
        thread::sleep(Duration::from_millis(25));
        let lag = state.journal_lag();
        let due = lag >= edge_budget || (lag > 0 && last_attempt.elapsed() >= interval);
        if !due {
            continue;
        }
        last_attempt = Instant::now();
        match checkpoint_now(state) {
            Ok(report) => eprintln!(
                "checkpoint: snapshot at seq {} ({} segment(s) pruned)",
                report.snapshot_seq, report.segments_pruned
            ),
            // Non-fatal: the journal still holds everything acked.
            Err(e) => eprintln!("checkpoint failed (will retry): {e}"),
        }
    }
}
