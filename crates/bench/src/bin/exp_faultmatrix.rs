//! **E20 (fault matrix)** — randomized fault schedules over the durable
//! storage stack, pinning the self-healing contract at scale: **every
//! acked edge is recovered or explicitly quarantined — never silently
//! lost.**
//!
//! Each seed drives one simulated server lifetime: edges are journaled
//! (fsync-always) and acked only when the append succeeds, checkpoints
//! fire at random points (retaining 2 snapshot generations), and a
//! scripted [`FaultPlan`] injects ENOSPC, short writes, and failed
//! fsyncs at random operation indices. The run then "SIGKILLs" at a
//! random op, optionally damages the directory post-hoc the way disks
//! do (bit flips in WAL or snapshot, tail truncation, garbage appends),
//! recovers, and audits seq-by-seq where every acked edge went.
//!
//! Checked invariants, per seed:
//!
//! * no damage, or a corrupted snapshot with an older generation to
//!   fall back to → **zero** acked edges lost (and for the snapshot
//!   case, the fallback actually happened);
//! * WAL damage → every lost acked edge is explained by explicit
//!   evidence (quarantined records or a reported torn tail), and the
//!   recovered store holds every other acked edge. One carve-out:
//!   truncation that lands exactly on a record boundary leaves a
//!   well-formed file with its tail records missing — undetectable by
//!   any per-record checksum (it needs an external high-water mark) —
//!   so truncation loss is accepted iff it is a contiguous *suffix* of
//!   the acked stream; a lost record *before* a surviving one is still
//!   a violation.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_faultmatrix -- \
//!     [--scale small|standard|large] [--seeds 60]
//! ```
//!
//! Exits nonzero if any seed violates an invariant — CI runs this as a
//! gate (50+ seeds).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use graphstream::VertexId;
use serde::Serialize;
use streamlink_bench::{flag_value, scale_from_args, ResultWriter, Rng, EXP_SEED};
use streamlink_core::chaos::{self, FaultKind, FaultPlan};
use streamlink_core::journal::{self, FsyncPolicy, Journal, JournalEntry};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{durable, SketchConfig, SketchStore};

/// Snapshot generations retained per run — two, so newest-generation
/// corruption always has a fallback once two checkpoints have fired.
const KEEP: usize = 2;

#[derive(Serialize)]
struct Row {
    seed: u64,
    attempted: u64,
    acked: u64,
    nacked: u64,
    checkpoints: u64,
    checkpoint_failures: u64,
    damage: String,
    fallbacks: u64,
    quarantined: u64,
    tail_dropped: u64,
    recovered_edges: u64,
    lost_acked: u64,
    ok: bool,
    violation: String,
}

fn temp_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "streamlink-exp-fault-{}-{seed}",
        std::process::id()
    ))
}

/// Applies one post-crash damage mode and names what it did. Snapshot
/// corruption is only injected when a fallback generation exists, so the
/// zero-loss expectation it carries is honest.
fn apply_damage(dir: &Path, pick: u64, rng: &mut Rng) -> std::io::Result<String> {
    let segments: Vec<_> = journal::list_segments(dir)?
        .into_iter()
        .filter(|(_, p)| fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
        .collect();
    let generations = durable::list_generations(dir)?;
    match pick {
        1 | 2 if pick == 2 && generations.len() >= 2 => {
            // Bit rot inside the newest generation's payload (past the
            // ~46-byte v2 header).
            let (_, path) = generations.last().expect("len >= 2");
            let len = fs::metadata(path)?.len();
            let offset = 46 + rng.below(len.saturating_sub(46));
            chaos::flip_bit(path, offset, (rng.below(8)) as u8)?;
            Ok("snapshot-bitflip".into())
        }
        1 | 2 if !segments.is_empty() => {
            let (_, path) = &segments[rng.below(segments.len() as u64) as usize];
            let len = fs::metadata(path)?.len();
            chaos::flip_bit(path, rng.below(len), (rng.below(8)) as u8)?;
            Ok("wal-bitflip".into())
        }
        3 if !segments.is_empty() => {
            let (_, path) = segments.last().expect("non-empty");
            chaos::tear_file(path, rng.below(30) + 1)?;
            Ok("wal-truncate".into())
        }
        4 if !segments.is_empty() => {
            let (_, path) = segments.last().expect("non-empty");
            chaos::append_garbage(path, b"F 999999999 torn garbage")?;
            Ok("wal-garbage".into())
        }
        _ => Ok("none".into()),
    }
}

fn run_seed(seed: u64) -> Row {
    let mut rng = Rng::new(seed);
    let dir = temp_dir(seed);
    let _ = fs::remove_dir_all(&dir);
    let config = SketchConfig::with_slots(32).seed(EXP_SEED);

    // Schedule the in-flight fault matrix: ENOSPC, short writes, failed
    // fsyncs, and the occasional failed snapshot write.
    let attempted = 60 + rng.below(120);
    let plan = Arc::new(FaultPlan::new());
    for op in 0..attempted {
        if rng.chance(23) {
            if rng.chance(2) {
                plan.fail_append(op, FaultKind::Enospc);
            } else {
                plan.fail_append(op, FaultKind::ShortWrite(rng.below(14) as usize));
            }
        }
        if rng.chance(29) {
            plan.fail_fsync(op);
        }
    }
    if rng.chance(3) {
        plan.fail_snapshot(rng.below(3));
    }

    // One server lifetime: journal, ack, checkpoint — then die mid-loop.
    let mut journal =
        Journal::create_with_faults(&dir, 1, FsyncPolicy::Always, Some(Arc::clone(&plan)))
            .expect("create journal");
    let mut store = SketchStore::new(config);
    let mut acked: Vec<u64> = Vec::new();
    let mut nacked = 0u64;
    let (mut checkpoints, mut checkpoint_failures) = (0u64, 0u64);
    let kill_at = attempted / 2 + rng.below(attempted / 2);
    for i in 0..attempted {
        if i == kill_at {
            break; // SIGKILL: no drain, no final snapshot.
        }
        let (u, v) = (VertexId(rng.below(50)), VertexId(rng.below(50)));
        let seq = journal.next_seq();
        match journal.append(JournalEntry { seq, u, v }) {
            Ok(()) => {
                store.insert_edge(u, v);
                acked.push(seq);
            }
            Err(_) => nacked += 1, // ERR storage: the edge was never acked
        }
        if rng.chance(20) {
            let snapshot = StoreSnapshot::capture(&store);
            let wal_seq = journal.next_seq() - 1;
            let result = journal
                .rotate(wal_seq + 1)
                .and_then(|()| durable::checkpoint(&snapshot, wal_seq, &dir, &mut journal, KEEP));
            match result {
                Ok(_) => checkpoints += 1,
                Err(_) => checkpoint_failures += 1, // journal still has it all
            }
        }
    }
    drop(journal);

    // Post-crash disk damage, then recovery.
    let damage = apply_damage(&dir, seed % 5, &mut rng).expect("damage injection");
    let recovery = durable::recover(&dir, config).expect("recover");

    // Audit: where did every acked seq go? Either the loaded snapshot
    // covers it (seq <= watermark) or a surviving WAL record replays it.
    let mut survived: Vec<u64> = Vec::new();
    let audit = journal::replay(&dir, recovery.snapshot_seq, |e| survived.push(e.seq))
        .expect("audit replay");
    let lost: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|&s| s > recovery.snapshot_seq && !survived.contains(&s))
        .collect();

    let explicit = audit.quarantined > 0 || audit.torn_tail;
    // Boundary-exact truncation leaves no forensic trace; it is only
    // acceptable as pure tail loss — every lost seq newer than every
    // surviving one.
    let max_survived = survived
        .iter()
        .max()
        .copied()
        .unwrap_or(recovery.snapshot_seq);
    let suffix_loss = lost.iter().all(|&s| s > max_survived);
    let violation = if damage == "none" || damage == "snapshot-bitflip" {
        if !lost.is_empty() {
            format!(
                "{} acked seq(s) lost with no WAL damage: {lost:?}",
                lost.len()
            )
        } else if damage == "snapshot-bitflip" && recovery.fallbacks == 0 {
            "corrupt newest generation did not trigger a fallback".into()
        } else {
            String::new()
        }
    } else if !(lost.is_empty() || explicit || (damage == "wal-truncate" && suffix_loss)) {
        format!("{} acked seq(s) lost SILENTLY: {lost:?}", lost.len())
    } else {
        String::new()
    };

    let row = Row {
        seed,
        attempted,
        acked: acked.len() as u64,
        nacked,
        checkpoints,
        checkpoint_failures,
        damage,
        fallbacks: recovery.fallbacks,
        quarantined: audit.quarantined,
        tail_dropped: audit.tail_dropped,
        recovered_edges: recovery.store.edges_processed(),
        lost_acked: lost.len() as u64,
        ok: violation.is_empty(),
        violation,
    };
    let _ = fs::remove_dir_all(&dir);
    row
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let default_seeds = match scale_from_args(&args) {
        datasets::Scale::Small => 50,
        datasets::Scale::Standard => 60,
        datasets::Scale::Large => 150,
    };
    let seeds: u64 = flag_value(&args, "--seeds")
        .map(|s| s.parse().expect("--seeds takes a number"))
        .unwrap_or(default_seeds);

    let mut writer = ResultWriter::new("faultmatrix");
    println!(
        "{:>6} {:>8} {:>7} {:>7} {:>5} {:>18} {:>9} {:>11} {:>5} {:>5}",
        "seed",
        "attempt",
        "acked",
        "nacked",
        "ckpt",
        "damage",
        "fallback",
        "quarantine",
        "lost",
        "ok"
    );
    let mut failures = 0u64;
    let mut snapshot_fallback_runs = 0u64;
    for seed in 0..seeds {
        let row = run_seed(seed);
        println!(
            "{:>6} {:>8} {:>7} {:>7} {:>5} {:>18} {:>9} {:>11} {:>5} {:>5}",
            row.seed,
            row.attempted,
            row.acked,
            row.nacked,
            row.checkpoints,
            row.damage,
            row.fallbacks,
            row.quarantined,
            row.lost_acked,
            if row.ok { "yes" } else { "NO" },
        );
        if !row.ok {
            eprintln!("seed {}: {}", row.seed, row.violation);
            failures += 1;
        }
        if row.damage == "snapshot-bitflip" && row.fallbacks > 0 {
            snapshot_fallback_runs += 1;
        }
        writer.write_row(&row);
    }

    println!("# {seeds} seeds, {failures} invariant violation(s), {snapshot_fallback_runs} snapshot-fallback run(s)");
    if failures > 0 {
        eprintln!("FAIL: acked edges were lost silently (see rows above)");
        return ExitCode::FAILURE;
    }
    if snapshot_fallback_runs == 0 && seeds >= 10 {
        eprintln!("FAIL: no run exercised the snapshot fallback path; matrix coverage regressed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
