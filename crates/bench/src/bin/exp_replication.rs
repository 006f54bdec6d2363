//! **E23 (chaos convergence)** — randomized delivery-fault schedules
//! over the replication stack, pinning the anti-entropy contract:
//! **after one final anti-entropy round, every replica equals the
//! primary byte for byte** — every per-vertex sketch slot, every degree
//! counter, and the edge count.
//!
//! Each seed drives one simulated primary/replica fleet. The primary
//! ingests a random edge stream in three windows; within each window
//! every replica receives that window's WAL entries through its own
//! scripted [`DeliveryPlan`] — random drops, duplicates, reorder delays,
//! and the occasional partition window (a contiguous run of drops).
//! Between windows replicas randomly crash back to an empty store
//! (resuming from seq 0, exactly like a restarted in-memory replica) or
//! run a mid-stream anti-entropy join. After the stream ends, one final
//! anti-entropy round joins a primary snapshot into every replica, and
//! [`divergence`] must report `None` for each.
//!
//! The dedup gate is what makes this non-trivial: sketch slots are
//! idempotent min-registers, but degree counters are not — a duplicated
//! or replayed entry that slipped past the seq gate would double-count
//! degrees and show up here as a divergence.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_replication -- \
//!     [--scale small|standard|large] [--seeds 30]
//! ```
//!
//! Exits nonzero if any seed leaves a replica divergent — CI runs this
//! as a gate (30+ seeds).

use std::process::ExitCode;

use graphstream::VertexId;
use serde::Serialize;
use streamlink_bench::{flag_value, scale_from_args, ResultWriter, Rng, EXP_SEED};
use streamlink_core::chaos::DeliveryPlan;
use streamlink_core::journal::JournalEntry;
use streamlink_core::merge::merge_join;
use streamlink_core::repl::{divergence, ReplicaApplier};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

#[derive(Serialize)]
struct Row {
    seed: u64,
    entries: u64,
    replicas: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    partitions: u64,
    crashes: u64,
    mid_ae_rounds: u64,
    deduped: u64,
    gap_skips: u64,
    divergent_before_final_ae: u64,
    ok: bool,
    violation: String,
}

/// One simulated replica: its store plus the seq-dedup apply gate.
struct Replica {
    store: SketchStore,
    applier: ReplicaApplier,
}

fn run_seed(seed: u64) -> Row {
    let mut rng = Rng::new(seed);
    let config = SketchConfig::with_slots(32).seed(EXP_SEED);

    // The primary's WAL: seqs 1..=entries over a vertex space small
    // enough that sketches and degrees are dense and non-trivial.
    let entries = 120 + rng.below(180);
    let stream: Vec<JournalEntry> = (1..=entries)
        .map(|seq| JournalEntry {
            seq,
            u: VertexId(rng.below(48)),
            v: VertexId(48 + rng.below(48)),
        })
        .collect();

    // Three ingest windows with randomized cut points.
    let cut1 = (entries / 4 + rng.below(entries / 4)) as usize;
    let cut2 = cut1 + (entries / 4 + rng.below(entries / 4)) as usize;
    let bounds = [0usize, cut1, cut2, entries as usize];

    let mut primary = SketchStore::new(config);
    let replicas = 2 + rng.below(2);
    let mut fleet: Vec<Replica> = (0..replicas)
        .map(|_| Replica {
            store: SketchStore::new(config),
            applier: ReplicaApplier::new(0),
        })
        .collect();

    let (mut dropped, mut duplicated, mut delayed) = (0u64, 0u64, 0u64);
    let (mut partitions, mut crashes, mut mid_ae_rounds) = (0u64, 0u64, 0u64);

    for w in 0..3 {
        let window = &stream[bounds[w]..bounds[w + 1]];
        for e in window {
            primary.insert_edge(e.u, e.v);
        }
        let primary_seq = bounds[w + 1] as u64;

        for rep in &mut fleet {
            // Each replica sees this window through its own fault plan.
            let mut plan = DeliveryPlan::new();
            let len = window.len() as u64;
            if rng.chance(3) && len > 4 {
                // A partition: a contiguous run of entries never arrives.
                let start = rng.below(len - 2);
                let span = 1 + rng.below((len - start).min(24));
                for i in start..start + span {
                    plan.drop_at(i);
                }
                partitions += 1;
                dropped += span;
            }
            for i in 0..len {
                if plan.fault_at(i).is_some() {
                    continue; // the partition window wins this index
                }
                if rng.chance(12) {
                    plan.drop_at(i);
                    dropped += 1;
                } else if rng.chance(10) {
                    plan.duplicate_at(i);
                    duplicated += 1;
                } else if rng.chance(9) {
                    plan.delay_at(i, (1 + rng.below(30)) as usize);
                    delayed += 1;
                }
            }
            for e in plan.apply(window.to_vec()) {
                rep.applier.offer(&mut rep.store, e);
            }
        }

        // Between windows: crash-resets and mid-stream anti-entropy.
        if w < 2 {
            for rep in &mut fleet {
                if rng.chance(4) {
                    // SIGKILL + restart of an in-memory replica: empty
                    // store, resume pulling from seq 0.
                    rep.store = SketchStore::new(config);
                    rep.applier.reset_to(0);
                    crashes += 1;
                }
                if rng.chance(2) {
                    let snap = StoreSnapshot::capture(&primary).restore();
                    merge_join(&mut rep.store, &snap).expect("compatible configs");
                    rep.applier.advance_to(primary_seq);
                    mid_ae_rounds += 1;
                }
            }
        }
    }

    // The headline invariant: one final anti-entropy round converges
    // every replica exactly, no matter what delivery did.
    let divergent_before_final_ae = fleet
        .iter()
        .filter(|rep| divergence(&primary, &rep.store).is_some())
        .count() as u64;
    let snap = StoreSnapshot::capture(&primary).restore();
    let mut violation = String::new();
    for (i, rep) in fleet.iter_mut().enumerate() {
        merge_join(&mut rep.store, &snap).expect("compatible configs");
        rep.applier.advance_to(entries);
        if violation.is_empty() {
            if let Some(d) = divergence(&primary, &rep.store) {
                violation = format!("replica {i} diverges after final anti-entropy: {d}");
            }
        }
    }

    Row {
        seed,
        entries,
        replicas,
        dropped,
        duplicated,
        delayed,
        partitions,
        crashes,
        mid_ae_rounds,
        deduped: fleet.iter().map(|r| r.applier.deduped()).sum(),
        gap_skips: fleet.iter().map(|r| r.applier.gap_skips()).sum(),
        divergent_before_final_ae,
        ok: violation.is_empty(),
        violation,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let default_seeds = match scale_from_args(&args) {
        datasets::Scale::Small => 30,
        datasets::Scale::Standard => 40,
        datasets::Scale::Large => 120,
    };
    let seeds: u64 = flag_value(&args, "--seeds")
        .map(|s| s.parse().expect("--seeds takes a number"))
        .unwrap_or(default_seeds);

    let mut writer = ResultWriter::new("replication");
    println!(
        "{:>6} {:>7} {:>4} {:>7} {:>6} {:>7} {:>5} {:>7} {:>6} {:>7} {:>9} {:>7} {:>5}",
        "seed",
        "entries",
        "reps",
        "dropped",
        "duped",
        "delayed",
        "parts",
        "crashes",
        "midAE",
        "deduped",
        "gapskips",
        "behind",
        "ok"
    );
    let mut failures = 0u64;
    let (mut total_crashes, mut total_partitions) = (0u64, 0u64);
    let (mut total_deduped, mut runs_behind) = (0u64, 0u64);
    for seed in 0..seeds {
        let row = run_seed(seed);
        println!(
            "{:>6} {:>7} {:>4} {:>7} {:>6} {:>7} {:>5} {:>7} {:>6} {:>7} {:>9} {:>7} {:>5}",
            row.seed,
            row.entries,
            row.replicas,
            row.dropped,
            row.duplicated,
            row.delayed,
            row.partitions,
            row.crashes,
            row.mid_ae_rounds,
            row.deduped,
            row.gap_skips,
            row.divergent_before_final_ae,
            if row.ok { "yes" } else { "NO" },
        );
        if !row.ok {
            eprintln!("seed {}: {}", row.seed, row.violation);
            failures += 1;
        }
        total_crashes += row.crashes;
        total_partitions += row.partitions;
        total_deduped += row.deduped;
        runs_behind += u64::from(row.divergent_before_final_ae > 0);
        writer.write_row(&row);
    }

    println!(
        "# {seeds} seeds, {failures} divergence(s); coverage: {total_crashes} crash-reset(s), \
         {total_partitions} partition(s), {total_deduped} dedup(s), {runs_behind} run(s) behind \
         before the final round"
    );
    if failures > 0 {
        eprintln!("FAIL: a replica diverged from the primary after anti-entropy (see rows above)");
        return ExitCode::FAILURE;
    }
    // Meta-check: a schedule set that never crashed a replica, never
    // partitioned, never exercised dedup, or never even fell behind
    // would make the invariant vacuous.
    if seeds >= 10
        && (total_crashes == 0 || total_partitions == 0 || total_deduped == 0 || runs_behind == 0)
    {
        eprintln!(
            "FAIL: schedule coverage regressed (crashes={total_crashes} \
             partitions={total_partitions} deduped={total_deduped} behind={runs_behind})"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
