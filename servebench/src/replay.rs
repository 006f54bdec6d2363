//! The traced in-process replay: the workload's prepared stream and op
//! sequence, on one thread, through each layer's public entry point.
//!
//! Every call gets a span (name, start, end, parent, op id). The layers
//! are timed from outside, so a layer's self time is its span minus the
//! spans of the lower-layer calls made for the same op: the protocol
//! layer's `handle_command` runs against a durable `ServerState`, and the
//! same op is then applied to a mirror store and journal through
//! `SketchStore`, `Journal` and `HasherBank` directly, in the same state.
//!
//! Every workload replays against a durable state, so every layer is
//! measured on every workload. On `mixed-mem`, whose server has no data
//! directory, the journal, checkpoint and recovery rows therefore price
//! the op mix with durability; they are not work that server does.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use graphstream::VertexId;
use streamlink_cli::server::protocol::handle_command;
use streamlink_cli::server::{persistence, ServerConfig, ServerState};
use streamlink_core::config::HasherBank;
use streamlink_core::journal::{FsyncPolicy, Journal, JournalEntry};
use streamlink_core::loadgen::{Op, OpKind};
use streamlink_core::snapshot::StoreSnapshot;
use streamlink_core::{durable, SketchStore, WireFormat};

use crate::check::server_config;
use crate::prepare::Prepared;
use crate::server::copy_durably;
use crate::stats::{median, Metric};
use crate::workload::{Phase, Workload, CONNS};

/// Probes of each read kind the workload's mix lacks, so every protocol
/// row is measured on every workload.
const READ_PROBES: usize = 1_000;
/// Audit cycles timed.
const AUDIT_CYCLES: usize = 3;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start: u64,
    end: u64,
}

/// In-memory span log, written out once at the end.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as one span; returns its result and the span's id.
    fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (out, id)
    }

    fn set_parent(&mut self, child: u32, parent: u32) {
        self.spans[child as usize].parent = parent;
    }

    fn ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end - s.start
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Per-call samples, nanoseconds (self times where a row says so).
#[derive(Default)]
struct Rows {
    hash: Vec<f64>,
    store_insert: Vec<f64>,
    store_jaccard: Vec<f64>,
    store_degree: Vec<f64>,
    journal_append: Vec<f64>,
    /// Indexed by [`kind_index`].
    protocol: [Vec<f64>; 4],
}

fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Insert => 0,
        OpKind::Jaccard => 1,
        OpKind::Degree => 2,
        OpKind::Explain => 3,
    }
}

/// The layers below the protocol, called directly.
struct Mirror {
    store: SketchStore,
    journal: Journal,
    bank: HasherBank,
    hu: Vec<u64>,
    hv: Vec<u64>,
}

impl Mirror {
    fn new(store: SketchStore, journal: Journal) -> Self {
        let bank = store.config().build_bank();
        let k = store.config().slots();
        Mirror {
            store,
            journal,
            bank,
            hu: vec![0; k],
            hv: vec![0; k],
        }
    }

    /// Applies `op` as the server does below the protocol; returns the
    /// summed duration of the top-level spans it recorded under `parent`.
    fn apply(
        &mut self,
        t: &mut Tracer,
        rows: &mut Rows,
        id: u64,
        op: &Op,
        parent: u32,
    ) -> Result<u64, String> {
        let (u, v) = (VertexId(op.u), VertexId(op.v));
        match op.kind {
            OpKind::Insert => {
                let journal = self.append(t, rows, id, parent, u, v)?;
                Ok(journal + self.insert(t, rows, id, parent, u, v))
            }
            OpKind::Jaccard | OpKind::Explain => {
                let (est, s) = t.span("store.jaccard", id, parent, || self.store.jaccard(u, v));
                std::hint::black_box(est);
                rows.store_jaccard.push(t.ns(s) as f64);
                Ok(t.ns(s))
            }
            OpKind::Degree => {
                let (deg, s) = t.span("store.degree", id, parent, || self.store.degree(u));
                std::hint::black_box(deg);
                rows.store_degree.push(t.ns(s) as f64);
                Ok(t.ns(s))
            }
        }
    }

    fn append(
        &mut self,
        t: &mut Tracer,
        rows: &mut Rows,
        id: u64,
        parent: u32,
        u: VertexId,
        v: VertexId,
    ) -> Result<u64, String> {
        let seq = self.journal.next_seq();
        let (res, j) = t.span("journal.append", id, parent, || {
            self.journal.append(JournalEntry { seq, u, v })
        });
        res.map_err(|e| format!("journal append: {e}"))?;
        rows.journal_append.push(t.ns(j) as f64);
        Ok(t.ns(j))
    }

    /// Hashes both endpoints with the store's hasher bank, then inserts
    /// the edge; the store's self time is the insert minus that hashing.
    fn insert(
        &mut self,
        t: &mut Tracer,
        rows: &mut Rows,
        id: u64,
        parent: u32,
        u: VertexId,
        v: VertexId,
    ) -> u64 {
        let (bank, hu, hv) = (&self.bank, &mut self.hu, &mut self.hv);
        let ((), h1) = t.span("hashkit.hash", id, NO_PARENT, || {
            bank.hash_all_into(u.0, hu)
        });
        let ((), h2) = t.span("hashkit.hash", id, NO_PARENT, || {
            bank.hash_all_into(v.0, hv)
        });
        std::hint::black_box((&self.hu, &self.hv));
        let ((), s) = t.span("store.insert", id, parent, || self.store.insert_edge(u, v));
        t.set_parent(h1, s);
        t.set_parent(h2, s);
        rows.hash.push(t.ns(h1) as f64);
        rows.hash.push(t.ns(h2) as f64);
        rows.store_insert
            .push(t.ns(s).saturating_sub(t.ns(h1) + t.ns(h2)) as f64);
        t.ns(s)
    }
}

fn med(xs: &mut [f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

fn ms(t: &Tracer, id: u32) -> f64 {
    t.ns(id) as f64 / 1e6
}

/// Replays `workload` for `seed` under `scratch` and returns the
/// per-layer rows it measures.
pub fn replay(
    workload: Workload,
    seed: u64,
    open_secs: u64,
    prepared: &Prepared,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let _ = fs::remove_dir_all(scratch);
    fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();
    let format = WireFormat::default();
    let config = server_config();
    let mut t = Tracer {
        t0: Instant::now(),
        spans: Vec::with_capacity(4 << 20),
    };
    let mut rows = Rows::default();
    let mut out = Vec::new();

    // 1. The prepared stream through journal, hashing and the store.
    let journal_dir = scratch.join("journal");
    let mut mirror = Mirror::new(
        SketchStore::new(config),
        Journal::create_with_format(&journal_dir, 1, FsyncPolicy::OnRotate, format, None)
            .map_err(io)?,
    );
    for (i, &(u, v)) in prepared.edges.iter().enumerate() {
        let (u, v) = (VertexId(u), VertexId(v));
        mirror.append(&mut t, &mut rows, i as u64, NO_PARENT, u, v)?;
        mirror.insert(&mut t, &mut rows, i as u64, NO_PARENT, u, v);
    }
    let journal_bytes = crate::server::dir_bytes(&journal_dir).map_err(io)?;
    let store = &mirror.store;
    out.push(Metric::new(
        "store.bytes_per_vertex",
        store.memory_bytes() as f64 / store.vertex_count().max(1) as f64,
        "B/vertex",
    ));
    out.push(Metric::new(
        "journal.bytes_per_edge",
        journal_bytes as f64 / prepared.edges.len() as f64,
        "B/edge",
    ));

    // 2. Snapshot capture, write and read of that store.
    let op = prepared.edges.len() as u64;
    let (snap, capture) = t.span("snapshot.capture", op, NO_PARENT, || {
        StoreSnapshot::capture(&mirror.store)
    });
    let snap_path = scratch.join("replay.snapshot");
    let (res, write) = t.span("snapshot.write", op, NO_PARENT, || {
        snap.write_atomic_as(&snap_path, format)
    });
    res.map_err(io)?;
    let vertices = snap.vertices.len().max(1) as f64;
    drop(snap);
    let snap_bytes = fs::metadata(&snap_path).map_err(io)?.len();
    let (res, read) = t.span("snapshot.read", op, NO_PARENT, || {
        StoreSnapshot::read_from(&snap_path)
    });
    drop(res.map_err(io)?);
    out.push(Metric::new("snapshot.capture_ms", ms(&t, capture), "ms"));
    out.push(Metric::new("snapshot.write_ms", ms(&t, write), "ms"));
    out.push(Metric::new("snapshot.read_ms", ms(&t, read), "ms"));
    out.push(Metric::new(
        "snapshot.bytes_per_vertex",
        snap_bytes as f64 / vertices,
        "B/vertex",
    ));
    drop(mirror);

    // 3. Recovery of the prepared state; its snapshot read alone first.
    let recover_dir = scratch.join("recover");
    copy_durably(&prepared.dir, &recover_dir).map_err(io)?;
    let (res, gen_read) = t.span("snapshot.read", op + 1, NO_PARENT, || {
        StoreSnapshot::read_from(&prepared.newest_generation)
    });
    drop(res.map_err(io)?);
    let (res, recover) = t.span("durable.recover", op + 1, NO_PARENT, || {
        durable::recover(&recover_dir, config)
    });
    drop(res.map_err(io)?);
    out.push(Metric::new("durable.recover_ms", ms(&t, recover), "ms"));
    out.push(Metric::new(
        "durable.replay_ms",
        (ms(&t, recover) - ms(&t, gen_read)).max(0.0),
        "ms",
    ));
    fs::remove_dir_all(&recover_dir).map_err(io)?;

    // 4. The op sequence: protocol over a durable ServerState, then the
    //    same op on a mirror of its store and journal.
    let state_dir = scratch.join("state");
    copy_durably(&prepared.dir, &state_dir).map_err(io)?;
    let (persist, recovery) =
        persistence::open(&state_dir, config, FsyncPolicy::OnRotate, format).map_err(io)?;
    let mut mirror = Mirror::new(
        recovery.store.clone(),
        Journal::create_with_format(
            &scratch.join("mirror"),
            recovery.next_seq(),
            FsyncPolicy::OnRotate,
            format,
            None,
        )
        .map_err(io)?,
    );
    let server_config = ServerConfig::default();
    let budget = server_config.snapshot_every_edges.max(1);
    let state = ServerState::with_persistence(
        recovery.store,
        persist,
        recovery.snapshot_seq,
        server_config,
    );
    let mut covered = recovery.snapshot_seq;
    let mut checkpoints: Vec<(u32, u64, u64)> = Vec::new(); // (span, bytes, new edges)
    let mut checkpoint = |t: &mut Tracer, op: u64| -> Result<(), String> {
        let (res, span) = t.span("persistence.checkpoint", op, NO_PARENT, || {
            persistence::checkpoint_now(&state)
        });
        let report = res.map_err(io)?;
        let bytes = fs::metadata(durable::generation_path(&state_dir, report.snapshot_seq))
            .map_err(io)?
            .len();
        checkpoints.push((span, bytes, report.snapshot_seq.saturating_sub(covered)));
        covered = report.snapshot_seq;
        Ok(())
    };

    let mut ops: Vec<Op> = Vec::new();
    for phase in [Phase::Warmup, Phase::Open, Phase::Capacity] {
        let scripts = workload.scripts(seed, phase, open_secs);
        let len = scripts.iter().map(|s| s.ops.len()).max().unwrap_or(0);
        for i in 0..len {
            ops.extend(scripts.iter().take(CONNS).filter_map(|s| s.ops.get(i)));
        }
    }
    for kind in [OpKind::Jaccard, OpKind::Degree, OpKind::Explain] {
        let seen = ops.iter().filter(|op| op.kind == kind).count();
        if seen < READ_PROBES {
            let donors: Vec<Op> = ops.iter().take(READ_PROBES).copied().collect();
            ops.extend(donors.into_iter().map(|op| Op { kind, ..op }));
        }
    }
    let first_op = op + 2;
    for (i, op) in ops.iter().enumerate() {
        let id = first_op + i as u64;
        let line = op.command_line();
        let (reply, p) = t.span("protocol.handle_command", id, NO_PARENT, || {
            handle_command(&state, &line)
        });
        if reply.starts_with("ERR") {
            return Err(format!("{line}: {reply}"));
        }
        let below = mirror.apply(&mut t, &mut rows, id, op, p)?;
        rows.protocol[kind_index(op.kind)].push(t.ns(p).saturating_sub(below) as f64);
        if op.kind == OpKind::Insert && state.journal_lag() >= budget {
            checkpoint(&mut t, id)?;
        }
    }
    // The shutdown snapshot every durable run ends with.
    checkpoint(&mut t, first_op + ops.len() as u64)?;
    let mut ck_ms: Vec<f64> = checkpoints.iter().map(|&(s, _, _)| ms(&t, s)).collect();
    let (bytes, new_edges) = checkpoints
        .iter()
        .fold((0u64, 0u64), |(b, e), &(_, bytes, edges)| {
            (b + bytes, e + edges)
        });
    out.push(Metric::new(
        "persistence.checkpoint_ms",
        med(&mut ck_ms),
        "ms",
    ));
    out.push(Metric::new(
        "persistence.bytes_per_new_edge",
        bytes as f64 / new_edges.max(1) as f64,
        "B/edge",
    ));
    out.push(Metric::new(
        "persistence.checkpoints",
        checkpoints.len() as f64,
        "count",
    ));

    let mut audit_ms: Vec<f64> = (0..AUDIT_CYCLES)
        .map(|c| {
            let (_, s) = t.span(
                "audit.cycle",
                first_op + ops.len() as u64 + c as u64,
                NO_PARENT,
                || state.run_audit_cycle(),
            );
            ms(&t, s)
        })
        .collect();
    out.push(Metric::new("audit.cycle_ms", med(&mut audit_ms), "ms"));
    drop(state);
    drop(mirror);

    out.push(Metric::new("hashkit.hash_ns", med(&mut rows.hash), "ns"));
    out.push(Metric::new(
        "store.insert_ns",
        med(&mut rows.store_insert),
        "ns",
    ));
    out.push(Metric::new(
        "store.jaccard_ns",
        med(&mut rows.store_jaccard),
        "ns",
    ));
    out.push(Metric::new(
        "store.degree_ns",
        med(&mut rows.store_degree),
        "ns",
    ));
    out.push(Metric::new(
        "journal.append_ns",
        med(&mut rows.journal_append),
        "ns",
    ));
    for (name, i) in [
        ("protocol.insert_ns", 0),
        ("protocol.jaccard_ns", 1),
        ("protocol.degree_ns", 2),
        ("protocol.explain_ns", 3),
    ] {
        out.push(Metric::new(name, med(&mut rows.protocol[i]), "ns"));
    }
    // Keep only the span log; the stores and journals are scratch.
    for dir in [&journal_dir, &state_dir, &scratch.join("mirror")] {
        fs::remove_dir_all(dir).map_err(io)?;
    }
    fs::remove_file(&snap_path).map_err(io)?;
    t.write(&scratch.join("spans.tsv")).map_err(io)?;
    Ok(out)
}
