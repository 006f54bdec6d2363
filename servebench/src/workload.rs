//! The three workloads and every input derived from the seed.

use streamlink_core::loadgen::{MixSpec, Op, OpKind, OpStream, SplitMix64, WorkloadSpec};

use crate::load::Script;

/// Vertex-id universe of the prepared stream and of every op stream.
pub const VERTICES: u64 = 50_000;
/// Zipf exponent of vertex choice.
pub const ZIPF_S: f64 = 1.1;
/// Edges in the prepared start state.
pub const PREPARED_EDGES: usize = 400_000;
/// How many of those the start state holds only in its journal, past
/// the newest snapshot generation (replayed on every recovery).
pub const TAIL_EDGES: usize = 20_000;
/// Load connections (and threads): the host's two cores.
pub const CONNS: usize = 2;
/// Open-loop rate, pooled over all connections.
pub const OPEN_RATE: u64 = 10_000;
/// Untimed warm-up before the open-loop phase, seconds.
pub const WARMUP_SECS: u64 = 1;
/// Requests each connection keeps in flight in the capacity phase.
pub const DEPTH: usize = 64;
/// Operations per connection in the capacity phase.
pub const CAPACITY_OPS: usize = 75_000;

/// Seed-derivation purposes, so no two inputs share a random stream.
const PURPOSE_PREPARED: u64 = 1;
const PURPOSE_PAIRS: u64 = 2;
/// Plus the workload's index: each workload has its own op streams.
const PURPOSE_OPS: u64 = 8;

/// A load phase; each has its own op streams.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Warmup = 0,
    Open = 1,
    Capacity = 2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Query,
    MixedMem,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "ingest" => Ok(Workload::Ingest),
            "query" => Ok(Workload::Query),
            "mixed-mem" => Ok(Workload::MixedMem),
            other => Err(format!(
                "unknown workload {other:?}; expected ingest, query or mixed-mem"
            )),
        }
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Query => "query",
            Workload::MixedMem => "mixed-mem",
        }
    }

    /// INSERT/JACCARD/DEGREE/EXPLAIN weights.
    #[must_use]
    pub fn mix(self) -> MixSpec {
        let (insert, jaccard, degree, explain) = match self {
            Workload::Ingest => (90, 8, 2, 0),
            Workload::Query => (5, 60, 25, 10),
            Workload::MixedMem => (60, 25, 10, 5),
        };
        MixSpec {
            insert,
            jaccard,
            degree,
            explain,
        }
    }

    /// Whether the server runs on a data directory (journal and
    /// checkpoints) rather than an in-memory snapshot load.
    #[must_use]
    pub fn durable(self) -> bool {
        self != Workload::MixedMem
    }

    fn index(self) -> u64 {
        match self {
            Workload::Ingest => 0,
            Workload::Query => 1,
            Workload::MixedMem => 2,
        }
    }

    /// Operations per connection in `phase` at the given open-loop
    /// duration.
    fn phase_len(phase: Phase, open_secs: u64) -> usize {
        let per_conn_rate = OPEN_RATE / CONNS as u64;
        match phase {
            Phase::Warmup => (per_conn_rate * WARMUP_SECS) as usize,
            Phase::Open => (per_conn_rate * open_secs) as usize,
            Phase::Capacity => CAPACITY_OPS,
        }
    }

    /// The op scripts of `phase`, one per connection.
    #[must_use]
    pub fn scripts(self, seed: u64, phase: Phase, open_secs: u64) -> Vec<Script> {
        let spec = WorkloadSpec {
            seed: derive(seed, PURPOSE_OPS + self.index()),
            vertices: VERTICES,
            zipf_s: ZIPF_S,
            mix: self.mix(),
        };
        let len = Self::phase_len(phase, open_secs);
        (0..CONNS as u64)
            .map(|c| {
                let stream = OpStream::new(&spec, phase as u64 * CONNS as u64 + c);
                Script::new(stream.take(len).collect())
            })
            .collect()
    }
}

/// A sub-seed for one purpose; distinct purposes never share a stream.
#[must_use]
pub fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed).fork(purpose).next_u64()
}

/// The prepared INSERT stream: Zipf(1.1) over [`VERTICES`] ids.
#[must_use]
pub fn prepared_stream(seed: u64) -> Vec<Op> {
    let spec = WorkloadSpec {
        seed: derive(seed, PURPOSE_PREPARED),
        vertices: VERTICES,
        zipf_s: ZIPF_S,
        mix: MixSpec {
            insert: 1,
            jaccard: 0,
            degree: 0,
            explain: 0,
        },
    };
    let ops: Vec<Op> = OpStream::new(&spec, 0).take(PREPARED_EDGES).collect();
    debug_assert!(ops.iter().all(|op| op.kind == OpKind::Insert));
    ops
}

/// The seed of the accuracy pair sample.
#[must_use]
pub fn pair_seed(seed: u64) -> u64 {
    derive(seed, PURPOSE_PAIRS)
}
