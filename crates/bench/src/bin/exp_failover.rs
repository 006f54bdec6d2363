//! **E25 (failover chaos)** — randomized kill/partition/revive
//! schedules over a simulated failover cluster, pinning the three
//! safety invariants of the lease protocol:
//!
//! 1. **Mutual exclusion**: at no virtual instant is more than one
//!    node a *writable* primary (role plus a fresh majority lease).
//! 2. **Zero acked-write loss**: every write the serving primary acked
//!    is present in the final primary's store after the cluster heals —
//!    un-replicated tails of dead timelines come back through the
//!    revived node's journal handoff.
//! 3. **Byte-for-byte convergence**: after healing, every node's store
//!    equals the final primary's exactly ([`divergence`] is `None`),
//!    and the final primary equals the acked-write truth store.
//! 4. **Timeline coherence**: every node keeps a
//!    [`streamlink_core::events`] journal of its elections, votes,
//!    promotions, fences, handoffs, and resyncs; the journals merge
//!    into one causal cluster timeline that must show **at most one
//!    promotion per epoch** ([`events::check_single_primary`]). Each
//!    seed's merged timeline is written to
//!    `results/failover_events/seed-<n>.jsonl` so any chaos run can be
//!    reconstructed with `streamlink cluster-events`.
//!
//! Each seed drives a 3–5 node cluster on a virtual 25 ms tick clock
//! (lease L = 200 ms). Per tick a client writes to whichever node
//! claims the primary role (acked only while its majority lease is
//! fresh — refusals count as fenced writes), replicas renew leases and
//! pull the WAL from the highest-epoch reachable primary, and expired
//! leases open staggered candidacies resolved by majority vote. Chaos
//! kills the primary (revived later with its durable journal, vote,
//! and epoch — roles are never revived), kills replicas, and partitions
//! nodes for multiples of the lease window. A revived stale primary
//! must be fenced on contact, refuse a second bootstrap, hand off its
//! dead-timeline tail, and resync onto the new epoch.
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_failover -- \
//!     [--scale small|standard|large] [--seeds 30]
//! ```
//!
//! Exits nonzero on any invariant violation, and on schedule sets that
//! never elected, never fenced, never handed off, or never revived —
//! a vacuous pass is a failure.

use std::process::ExitCode;

use graphstream::VertexId;
use serde::Serialize;
use streamlink_bench::{flag_value, results_dir, scale_from_args, ResultWriter, Rng, EXP_SEED};
use streamlink_core::events::{self, ClusterEvent, EventKind};
use streamlink_core::failover::{ExchangeOutcome, FailoverNode, Role, Timeline};
use streamlink_core::journal::JournalEntry;
use streamlink_core::repl::{divergence, ReplicaApplier};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{SketchConfig, SketchStore};

/// Virtual milliseconds per simulation tick.
const TICK_MS: u64 = 25;
/// The lease window L, in virtual milliseconds.
const LEASE_MS: u64 = 200;

#[derive(Serialize)]
struct Row {
    seed: u64,
    nodes: u64,
    ticks: u64,
    acked: u64,
    elections: u64,
    forced_kills: u64,
    revivals: u64,
    partitions: u64,
    fenced_writes: u64,
    stale_fenced: u64,
    handoffs: u64,
    handoff_dups: u64,
    refused_bootstraps: u64,
    downtime_ticks: u64,
    max_writable: u64,
    events: u64,
    ok: bool,
    violation: String,
}

/// One simulated cluster member. The store, journal (`log`), applied
/// seq, epoch/vote, timeline, and data epoch survive a kill (durable
/// node); the failover role never does.
struct Node {
    id: String,
    fo: FailoverNode,
    tl: Timeline,
    data_epoch: u64,
    store: SketchStore,
    applier: ReplicaApplier,
    /// The node's durable WAL: every entry it acked or applied.
    log: Vec<JournalEntry>,
    /// Last seq this node assigned as a primary.
    seq: u64,
    alive: bool,
    revive_at: u64,
    /// Partitioned from everyone until this virtual instant.
    cut_until: u64,
    /// Whether this node ever held the primary role (drives the
    /// bootstrap-refusal check at revival).
    was_primary: bool,
    /// This node's causal event journal — its view of the incident,
    /// stamped with virtual ticks, merged across nodes at the end.
    journal: Vec<ClusterEvent>,
}

/// Appends one event to `node`'s journal under its current applied seq
/// (the simulated counterpart of [`events::emit`] on a live node).
fn record(node: &mut Node, now: u64, kind: EventKind, epoch: u64, detail: &str) {
    node.journal.push(ClusterEvent {
        node_id: node.id.clone(),
        epoch,
        applied_seq: node.applier.applied_seq(),
        tick_ms: now,
        kind,
        detail: detail.into(),
        corr_id: None,
    });
}

struct Counters {
    elections: u64,
    forced_kills: u64,
    revivals: u64,
    partitions: u64,
    fenced_writes: u64,
    stale_fenced: u64,
    handoffs: u64,
    handoff_dups: u64,
    refused_bootstraps: u64,
    downtime_ticks: u64,
    max_writable: u64,
}

fn reachable(a: &Node, b: &Node, now: u64) -> bool {
    a.alive && b.alive && a.cut_until <= now && b.cut_until <= now
}

fn local_seq(node: &Node) -> u64 {
    // Primaries advance their applier alongside every ack, so the
    // applied seq is the durable high-water mark for both roles.
    node.applier.applied_seq()
}

/// The index of the alive node currently holding the primary role at
/// the highest epoch (a fenced predecessor may coexist briefly).
fn acting_primary(nodes: &[Node]) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.alive && n.fo.role() == Role::Primary)
        .max_by_key(|(_, n)| n.fo.epoch())
        .map(|(i, _)| i)
}

/// Offers one dead-timeline entry to the primary, exactly like
/// `REPL HANDOFF`: deduped by the per-old-epoch contiguous high-water
/// mark, re-acked as a fresh write on the current timeline.
fn handoff(pri: &mut Node, now: u64, old_epoch: u64, entry: &JournalEntry, c: &mut Counters) {
    let Some(hw) = pri.tl.handoff_highwater(old_epoch) else {
        return;
    };
    if entry.seq <= hw {
        c.handoff_dups += 1;
        return;
    }
    if entry.seq != hw + 1 {
        return; // gap: another survivor's tail must land first
    }
    pri.seq += 1;
    pri.store.insert_edge(entry.u, entry.v);
    pri.log.push(JournalEntry {
        seq: pri.seq,
        u: entry.u,
        v: entry.v,
    });
    pri.applier.advance_to(pri.seq);
    pri.tl.accept_handoff(old_epoch, entry.seq, pri.seq);
    c.handoffs += 1;
    let epoch = pri.fo.epoch();
    record(
        pri,
        now,
        EventKind::HandoffAccepted,
        epoch,
        &format!("re-acked seq {} of dead epoch {old_epoch}", entry.seq),
    );
}

/// Rejoins `nodes[r]` onto `nodes[p]`'s timeline: hand off the
/// un-replicated tail of the dead timeline from the rejoiner's durable
/// journal, then resync wholesale (snapshot replace) onto the primary.
fn rejoin(nodes: &mut [Node], now: u64, r: usize, p: usize, c: &mut Counters) {
    let (data_epoch, applied) = (nodes[r].data_epoch, nodes[r].applier.applied_seq());
    if let Some(base) = nodes[p].tl.fork_after(data_epoch) {
        if applied > base {
            // Entries that entered our journal as handoff re-acks are
            // presented under their origin identity (see
            // `Timeline::reack_origin`) so both surviving copies dedup
            // against the same high-water mark.
            let tail: Vec<(u64, JournalEntry)> = nodes[r]
                .log
                .iter()
                .filter(|e| e.seq > base && e.seq <= applied)
                .map(|e| match nodes[r].tl.reack_origin(e.seq) {
                    Some((oe, os)) => (oe, JournalEntry { seq: os, ..*e }),
                    None => (data_epoch, *e),
                })
                .collect();
            for (oe, entry) in &tail {
                let (pri, _) = split_two(nodes, p, r);
                handoff(pri, now, *oe, entry, c);
            }
        }
    }
    let (snapshot, pri_seq, pri_tl, pri_epoch) = {
        let pri = &nodes[p];
        (
            StoreSnapshot::capture(&pri.store),
            pri.seq,
            pri.tl.clone(),
            pri.tl.latest_epoch(),
        )
    };
    let (pri_log, rep) = {
        let (pri, rep) = split_two(nodes, p, r);
        (pri.log.clone(), rep)
    };
    let old_data_epoch = rep.data_epoch;
    rep.store = snapshot.restore();
    rep.applier.reset_to(0);
    rep.applier.advance_to(pri_seq);
    rep.seq = pri_seq; // a stale primaryship seq must not outlive its timeline
    rep.log = pri_log;
    rep.tl = pri_tl;
    rep.data_epoch = pri_epoch;
    record(
        rep,
        now,
        EventKind::Resync,
        pri_epoch,
        &format!("resynced off dead epoch {old_data_epoch} onto epoch {pri_epoch}"),
    );
}

/// Two disjoint mutable borrows out of the node slice.
fn split_two(nodes: &mut [Node], a: usize, b: usize) -> (&mut Node, &mut Node) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[allow(clippy::too_many_lines)]
fn run_seed(seed: u64) -> (Row, Vec<ClusterEvent>) {
    let mut rng = Rng::new(seed);
    let config = SketchConfig::with_slots(32).seed(EXP_SEED);
    let n = 3 + rng.below(3) as usize; // 3..=5 members
    let mut nodes: Vec<Node> = (0..n)
        .map(|i| Node {
            id: format!("n{i}"),
            fo: FailoverNode::new(&format!("n{i}"), n, LEASE_MS),
            tl: Timeline::new(),
            data_epoch: 0,
            store: SketchStore::new(config),
            applier: ReplicaApplier::new(0),
            log: Vec::new(),
            seq: 0,
            alive: true,
            revive_at: 0,
            cut_until: 0,
            was_primary: false,
            journal: Vec::new(),
        })
        .collect();

    // Node 0 bootstraps the fresh cluster as the epoch-1 primary.
    assert!(nodes[0].fo.bootstrap_primary());
    nodes[0].tl.record_fork(1, 0);
    nodes[0].data_epoch = 1;
    nodes[0].was_primary = true;
    record(
        &mut nodes[0],
        0,
        EventKind::Bootstrap,
        1,
        "bootstrapped as epoch-1 primary",
    );
    let mut now = 0u64;
    for node in &mut nodes {
        node.fo.arm(now);
    }

    let mut truth = SketchStore::new(config);
    let mut acked = 0u64;
    let mut c = Counters {
        elections: 0,
        forced_kills: 0,
        revivals: 0,
        partitions: 0,
        fenced_writes: 0,
        stale_fenced: 0,
        handoffs: 0,
        handoff_dups: 0,
        refused_bootstraps: 0,
        downtime_ticks: 0,
        max_writable: 0,
    };
    let mut violation = String::new();
    let note = |v: &mut String, msg: String| {
        if v.is_empty() {
            *v = msg;
        }
    };

    let chaos_ticks = 400 + rng.below(200);
    let heal_ticks = 600;
    for tick in 0..chaos_ticks + heal_ticks {
        now += TICK_MS;
        let healing = tick >= chaos_ticks;

        // --- Chaos schedule (quiet during the heal phase). ---
        if healing {
            for node in &mut nodes {
                node.cut_until = node.cut_until.min(now);
                if !node.alive {
                    node.revive_at = node.revive_at.min(now);
                }
            }
        } else {
            if rng.chance(60) {
                if let Some(p) = acting_primary(&nodes) {
                    // SIGKILL the primary; it revives well after the
                    // election it causes, journal and epoch intact.
                    nodes[p].alive = false;
                    nodes[p].revive_at = now + LEASE_MS * (4 + rng.below(8));
                    c.forced_kills += 1;
                }
            }
            if rng.chance(120) {
                let i = rng.below(n as u64) as usize;
                if nodes[i].alive && nodes[i].fo.role() != Role::Primary {
                    nodes[i].alive = false;
                    nodes[i].revive_at = now + LEASE_MS * (2 + rng.below(4));
                    c.forced_kills += 1;
                }
            }
            if rng.chance(80) {
                let i = rng.below(n as u64) as usize;
                if nodes[i].cut_until <= now {
                    nodes[i].cut_until = now + LEASE_MS * (1 + rng.below(5));
                    c.partitions += 1;
                }
            }
        }

        // --- Revivals: durable state comes back, the role does not. ---
        for nd in nodes.iter_mut() {
            if !nd.alive && nd.revive_at <= now {
                let epoch = nd.fo.epoch();
                let voted = nd.fo.voted().cloned();
                let mut fo = FailoverNode::new(&nd.id, n, LEASE_MS);
                fo.restore(epoch, voted);
                // A revived ex-primary must NOT be able to bootstrap a
                // second epoch-1 timeline.
                if nd.was_primary {
                    if fo.bootstrap_primary() {
                        note(
                            &mut violation,
                            format!("revived {} re-bootstrapped at epoch {epoch}", nd.id),
                        );
                    } else {
                        c.refused_bootstraps += 1;
                    }
                }
                fo.arm(now);
                nd.fo = fo;
                nd.alive = true;
                // Restart resumes from the local disk seq: applied
                // stays where the journal left it — no re-pull of the
                // whole world.
                nd.seq = nd.applier.applied_seq().max(nd.seq);
                c.revivals += 1;
            }
        }

        // --- Invariant 1: at most one writable primary, every tick. ---
        let writable = nodes
            .iter()
            .filter(|nd| nd.alive && nd.fo.role() == Role::Primary && nd.fo.writable(now))
            .count() as u64;
        c.max_writable = c.max_writable.max(writable);
        if writable > 1 {
            note(
                &mut violation,
                format!("{writable} writable primaries at t={now}ms"),
            );
        }

        // --- Client traffic: write to whoever claims the role. ---
        match acting_primary(&nodes) {
            Some(p) => {
                for _ in 0..rng.below(3) {
                    if nodes[p].fo.writable(now) {
                        let (u, v) = (VertexId(rng.below(48)), VertexId(48 + rng.below(48)));
                        nodes[p].seq += 1;
                        let seq = nodes[p].seq;
                        nodes[p].store.insert_edge(u, v);
                        nodes[p].log.push(JournalEntry { seq, u, v });
                        nodes[p].applier.advance_to(seq);
                        truth.insert_edge(u, v);
                        acked += 1;
                    } else {
                        // `ERR fenced`: refused, never acked, not truth.
                        c.fenced_writes += 1;
                    }
                }
            }
            None => c.downtime_ticks += 1,
        }

        // --- Lease renewal + WAL pull, one round per replica. ---
        for r in 0..n {
            if !nodes[r].alive {
                continue;
            }
            let Some(p) = acting_primary(&nodes) else {
                continue;
            };
            // A stale primary that lost its lease probes too (the
            // `fenced_probe` path): RemoteStale fences it, it steps
            // down and rejoins below like any replica.
            if p == r || !reachable(&nodes[r], &nodes[p], now) {
                continue;
            }
            let peer_epoch = nodes[r].fo.epoch();
            let rep_id = nodes[r].id.clone();
            let outcome = nodes[p].fo.note_peer(&rep_id, peer_epoch, now);
            let pri_epoch = nodes[p].fo.epoch();
            match outcome {
                ExchangeOutcome::RemoteStale => {
                    // `ERR fenced`: adopt the real epoch, rejoin below.
                    c.stale_fenced += 1;
                    record(
                        &mut nodes[p],
                        now,
                        EventKind::Fence,
                        pri_epoch,
                        &format!("fenced {rep_id} at stale epoch {peer_epoch}"),
                    );
                    nodes[r].fo.observe_epoch(pri_epoch, now);
                    record(
                        &mut nodes[r],
                        now,
                        EventKind::EpochAdopted,
                        pri_epoch,
                        "adopted newer epoch after being fenced",
                    );
                }
                ExchangeOutcome::Adopted => {
                    // Our epoch outran the contacted primary's: it just
                    // stepped down; nothing to pull from it anymore.
                    let adopted = nodes[p].fo.epoch();
                    record(
                        &mut nodes[p],
                        now,
                        EventKind::StepDown,
                        adopted,
                        &format!("stepped down: {rep_id} carried a newer epoch"),
                    );
                    continue;
                }
                ExchangeOutcome::Ok => {
                    nodes[r].fo.note_primary(pri_epoch, now);
                }
            }
            if nodes[r].data_epoch != nodes[p].tl.latest_epoch() {
                rejoin(&mut nodes, now, r, p, &mut c);
                continue;
            }
            // Adopt the primary's timeline (`tl=` rides every lease
            // reply) *before* pulling, so our handoff marks and re-ack
            // provenance are never staler than our applied data.
            nodes[r].tl = nodes[p].tl.clone();
            // Contiguous pull of anything new (lossy delivery is E23's
            // subject; here the tail must stay handoff-contiguous).
            let after = nodes[r].applier.applied_seq();
            let batch: Vec<JournalEntry> = nodes[p]
                .log
                .iter()
                .filter(|e| e.seq > after)
                .copied()
                .collect();
            let (pri, rep) = split_two(&mut nodes, p, r);
            let _ = pri;
            for e in batch {
                rep.applier.offer(&mut rep.store, e);
                rep.log.push(e);
            }
        }

        // --- Expired leases open candidacies; votes resolve in-tick. ---
        for i in 0..n {
            if !nodes[i].alive || nodes[i].fo.role() == Role::Primary || nodes[i].cut_until > now {
                continue;
            }
            let rank = i as u64; // ids are "n0".."n4": index == sort rank
            if !nodes[i].fo.candidacy_due(now, rank) {
                continue;
            }
            if nodes[i].fo.candidacy_epoch().is_some() && !nodes[i].fo.candidacy_stale(now) {
                continue;
            }
            let target = nodes[i].fo.start_candidacy(now);
            record(
                &mut nodes[i],
                now,
                EventKind::CandidacyStarted,
                target,
                "lease expired; seeking votes",
            );
            // A log identity is (data_epoch, seq): a revived ex-primary
            // with a long journal on a dead timeline must not outrank a
            // shorter log carrying the newer epoch's acked writes.
            let my_log = (nodes[i].data_epoch, local_seq(&nodes[i]));
            let my_id = nodes[i].id.clone();
            let mut won = nodes[i].fo.record_grant(&my_id, now);
            for v in 0..n {
                if won || v == i || !reachable(&nodes[i], &nodes[v], now) {
                    continue;
                }
                let own = (nodes[v].data_epoch, local_seq(&nodes[v]));
                if nodes[v].fo.grant_vote(&my_id, target, my_log, own, now) {
                    record(
                        &mut nodes[v],
                        now,
                        EventKind::VoteGranted,
                        target,
                        &format!("vote granted to {my_id}"),
                    );
                    let granter = nodes[v].id.clone();
                    won = nodes[i].fo.record_grant(&granter, now);
                } else {
                    // `ERR vote denied epoch=N`: a voter ahead of the
                    // target teaches us the real epoch — abort and
                    // retry from there instead of spinning below it.
                    let voter_epoch = nodes[v].fo.epoch();
                    if voter_epoch > target {
                        nodes[i].fo.observe_epoch(voter_epoch, now);
                        break;
                    }
                }
            }
            if won {
                // Promotion: fork the timeline at our applied seq; our
                // journal becomes the new timeline's WAL.
                let base = nodes[i].applier.applied_seq().max(nodes[i].seq);
                nodes[i].tl.record_fork(target, base);
                nodes[i].data_epoch = target;
                nodes[i].seq = base;
                nodes[i].was_primary = true;
                c.elections += 1;
                record(
                    &mut nodes[i],
                    now,
                    EventKind::Promotion,
                    target,
                    &format!("promoted to primary (base seq {base})"),
                );
            }
        }
    }

    // --- Final verdict after the heal phase. ---
    let ticks = chaos_ticks + heal_ticks;
    match acting_primary(&nodes) {
        Some(p) => {
            if !nodes[p].fo.writable(now) {
                note(
                    &mut violation,
                    "healed cluster's primary is not writable".into(),
                );
            }
            // Invariant 2+3: the truth store (every acked write, once)
            // must equal the final primary byte for byte...
            if let Some(d) = divergence(&truth, &nodes[p].store) {
                note(&mut violation, format!("acked-write loss or dup: {d}"));
            }
            // ...and every healed node must equal the primary.
            for r in 0..n {
                if r == p {
                    continue;
                }
                if let Some(d) = divergence(&nodes[p].store, &nodes[r].store) {
                    note(
                        &mut violation,
                        format!("{} diverges after healing: {d}", nodes[r].id),
                    );
                }
            }
        }
        None => note(&mut violation, "no primary after the heal phase".into()),
    }
    if truth.edges_processed() != acked {
        note(
            &mut violation,
            format!(
                "truth store holds {} edges but {acked} were acked",
                truth.edges_processed()
            ),
        );
    }

    // --- Invariant 4: the merged event timeline is coherent. ---
    // Per-node journals merge deterministically into one causal
    // history; two Bootstrap/Promotion records inside one epoch would
    // mean two nodes *believed* they owned the same epoch — caught
    // here even if their writable windows never overlapped on a tick.
    let journals: Vec<Vec<ClusterEvent>> = nodes.iter().map(|nd| nd.journal.clone()).collect();
    let merged = events::merge(&journals);
    if let Err(e) = events::check_single_primary(&merged) {
        note(&mut violation, format!("merged event timeline: {e}"));
    }

    let row = Row {
        seed,
        nodes: n as u64,
        ticks,
        acked,
        elections: c.elections,
        forced_kills: c.forced_kills,
        revivals: c.revivals,
        partitions: c.partitions,
        fenced_writes: c.fenced_writes,
        stale_fenced: c.stale_fenced,
        handoffs: c.handoffs,
        handoff_dups: c.handoff_dups,
        refused_bootstraps: c.refused_bootstraps,
        downtime_ticks: c.downtime_ticks,
        max_writable: c.max_writable,
        events: merged.len() as u64,
        ok: violation.is_empty(),
        violation,
    };
    (row, merged)
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

    let mut writer = ResultWriter::new("failover");
    println!(
        "{:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>7} {:>5} {:>6} {:>6} {:>8} {:>8} {:>8} {:>5}",
        "seed",
        "nodes",
        "acked",
        "elect",
        "kills",
        "parts",
        "fenced",
        "stale",
        "handed",
        "dups",
        "revived",
        "downtime",
        "writable",
        "ok"
    );
    let mut failures = 0u64;
    let (mut total_elections, mut total_handoffs) = (0u64, 0u64);
    let (mut total_fenced, mut total_revivals) = (0u64, 0u64);
    let (mut total_refused, mut total_events) = (0u64, 0u64);
    let events_dir = results_dir().join("failover_events");
    if let Err(e) = std::fs::create_dir_all(&events_dir) {
        eprintln!("cannot create {}: {e}", events_dir.display());
        return ExitCode::FAILURE;
    }
    for seed in 0..seeds {
        let (row, timeline) = run_seed(seed);
        // The merged timeline is the post-mortem artifact: feedable to
        // `streamlink cluster-events --merge <file>` as-is.
        let journal_path = events_dir.join(format!("seed-{seed}.jsonl"));
        let lines: String = timeline
            .iter()
            .map(|e| format!("{}\n", e.render_line()))
            .collect();
        if let Err(e) = std::fs::write(&journal_path, lines) {
            eprintln!("cannot write {}: {e}", journal_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{:>6} {:>5} {:>6} {:>6} {:>6} {:>5} {:>7} {:>5} {:>6} {:>6} {:>8} {:>8} {:>8} {:>5}",
            row.seed,
            row.nodes,
            row.acked,
            row.elections,
            row.forced_kills,
            row.partitions,
            row.fenced_writes,
            row.stale_fenced,
            row.handoffs,
            row.handoff_dups,
            row.revivals,
            row.downtime_ticks,
            row.max_writable,
            if row.ok { "yes" } else { "NO" },
        );
        if !row.ok {
            eprintln!("seed {}: {}", row.seed, row.violation);
            failures += 1;
        }
        total_elections += row.elections;
        total_handoffs += row.handoffs;
        total_fenced += row.fenced_writes + row.stale_fenced;
        total_revivals += row.revivals;
        total_refused += row.refused_bootstraps;
        total_events += row.events;
        writer.write_row(&row);
    }

    println!(
        "# {seeds} seeds, {failures} violation(s); coverage: {total_elections} election(s), \
         {total_handoffs} handoff(s), {total_fenced} fence event(s), {total_revivals} \
         revival(s), {total_refused} refused re-bootstrap(s), {total_events} journal event(s) \
         (merged timelines under {})",
        events_dir.display()
    );
    if failures > 0 {
        eprintln!("FAIL: a failover safety invariant was violated (see rows above)");
        return ExitCode::FAILURE;
    }
    // Meta-check: a schedule set that never elected, never fenced,
    // never handed off a dead tail, or never revived a node would make
    // every invariant vacuous.
    if seeds >= 10
        && (total_elections == 0
            || total_handoffs == 0
            || total_fenced == 0
            || total_revivals == 0
            || total_refused == 0
            || total_events == 0)
    {
        eprintln!(
            "FAIL: schedule coverage regressed (elections={total_elections} \
             handoffs={total_handoffs} fenced={total_fenced} revivals={total_revivals} \
             refused_bootstraps={total_refused} events={total_events})"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
