//! Shared harness for the experiment binaries (`src/bin/exp_*`).
//!
//! Every binary regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §4 for the index), prints it as an aligned
//! text table, and appends machine-readable JSON rows to
//! `results/<experiment>.jsonl` so EXPERIMENTS.md can cite exact numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

use serde::Serialize;

use datasets::{Scale, SimulatedDataset};
use graphstream::{AdjacencyGraph, EdgeStream, MemoryStream, VertexId};
use linkpred::Measure;
use streamlink_core::{SketchConfig, SketchStore};

/// The sketch sizes every accuracy sweep uses (the x-axis of the paper's
/// error figures).
pub const K_SWEEP: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Default seed for experiment determinism.
pub const EXP_SEED: u64 = 0xE0;

/// The seeded xorshift64 generator behind every chaos schedule (E20 fault
/// matrix, E23 replication, E24 codec workload, E25 failover). Its
/// sequence is part of each gate's contract: seed `n` must replay the
/// same schedule on every build, so never change the arithmetic.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value; the state is never zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A draw from `[0, n)` (`n = 0` is treated as 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `1 / one_in`.
    pub fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// Writes experiment rows as JSON lines under `results/`, creating the
/// directory on first use, and echoes a human-readable table to stdout.
pub struct ResultWriter {
    file: std::fs::File,
    experiment: String,
}

impl ResultWriter {
    /// Opens (truncates) `results/<experiment>.jsonl`.
    ///
    /// # Panics
    /// Panics if the results directory cannot be created — experiments
    /// cannot meaningfully continue without an output channel.
    #[must_use]
    pub fn new(experiment: &str) -> Self {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("cannot create results directory");
        let path = dir.join(format!("{experiment}.jsonl"));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        println!("# {experiment} -> {}", path.display());
        Self {
            file,
            experiment: experiment.to_string(),
        }
    }

    /// Appends one JSON row.
    ///
    /// # Panics
    /// Panics on serialization or IO failure.
    pub fn write_row<T: Serialize>(&mut self, row: &T) {
        let json = serde_json::to_string(row)
            .unwrap_or_else(|e| panic!("{}: row serialization failed: {e}", self.experiment));
        writeln!(self.file, "{json}")
            .unwrap_or_else(|e| panic!("{}: write failed: {e}", self.experiment));
    }
}

/// Where experiment outputs go: `$STREAMLINK_RESULTS` or `./results`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("STREAMLINK_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Parses `--scale small|standard|large` from argv (default standard —
/// experiments are meant to run at paper scale; tests pass small).
#[must_use]
pub fn scale_from_args(args: &[String]) -> Scale {
    match flag_value(args, "--scale").unwrap_or("standard") {
        "small" => Scale::Small,
        "large" => Scale::Large,
        _ => Scale::Standard,
    }
}

/// Returns the value following `flag` in `args`.
#[must_use]
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Builds a sketch store over a stream with `k` slots.
#[must_use]
pub fn build_store(stream: &MemoryStream, k: usize, seed: u64) -> SketchStore {
    let mut store = SketchStore::new(SketchConfig::with_slots(k).seed(seed));
    store.insert_stream(stream.edges());
    store
}

/// Scores a pair with a [`SketchStore`] under a measure.
#[must_use]
pub fn sketch_score(
    store: &SketchStore,
    measure: Measure,
    u: VertexId,
    v: VertexId,
) -> Option<f64> {
    match measure {
        Measure::Jaccard => store.jaccard(u, v),
        Measure::CommonNeighbors => store.common_neighbors(u, v),
        Measure::AdamicAdar => store.adamic_adar(u, v),
        Measure::ResourceAllocation => store.resource_allocation(u, v),
        Measure::PreferentialAttachment => store.preferential_attachment(u, v),
        Measure::Cosine => store.cosine(u, v),
        Measure::Overlap => store.overlap(u, v),
    }
}

/// Scores a pair exactly on an adjacency graph.
#[must_use]
pub fn exact_score(g: &AdjacencyGraph, measure: Measure, u: VertexId, v: VertexId) -> f64 {
    match measure {
        Measure::Jaccard => g.jaccard(u, v),
        Measure::CommonNeighbors => g.common_neighbors(u, v) as f64,
        Measure::AdamicAdar => g.adamic_adar(u, v),
        Measure::ResourceAllocation => g.resource_allocation(u, v),
        Measure::PreferentialAttachment => g.preferential_attachment(u, v),
        Measure::Cosine => g.cosine(u, v),
        Measure::Overlap => g.overlap(u, v),
    }
}

/// Materializes every dataset at a scale, with its stream, once.
#[must_use]
pub fn all_datasets(scale: Scale) -> Vec<(SimulatedDataset, MemoryStream)> {
    SimulatedDataset::ALL
        .iter()
        .map(|&d| (d, d.stream(scale)))
        .collect()
}

/// Prints an aligned table header.
pub fn table_header(columns: &[&str]) {
    let row: Vec<String> = columns.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * columns.len()));
}

/// Prints one aligned row.
pub fn table_row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_finds_pairs() {
        let args: Vec<String> = ["--scale", "small", "--k", "64"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(flag_value(&args, "--scale"), Some("small"));
        assert_eq!(flag_value(&args, "--k"), Some("64"));
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn scale_parsing_defaults_to_standard() {
        assert_eq!(scale_from_args(&[]), Scale::Standard);
        let args: Vec<String> = ["--scale", "small"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(scale_from_args(&args), Scale::Small);
    }

    #[test]
    fn build_store_ingests_everything() {
        let stream = SimulatedDataset::FlickrLike.stream(Scale::Small);
        let store = build_store(&stream, 16, 1);
        assert_eq!(store.edges_processed() as usize, stream.len());
    }

    #[test]
    fn scores_agree_between_backends_at_high_k() {
        let stream = SimulatedDataset::DblpLike.stream(Scale::Small);
        let g = AdjacencyGraph::from_edges(stream.edges());
        let store = build_store(&stream, 512, 2);
        let (u, v) = (VertexId(0), VertexId(1));
        for m in Measure::ALL {
            if let Some(est) = sketch_score(&store, m, u, v) {
                let exact = exact_score(&g, m, u, v);
                if m == Measure::Jaccard {
                    assert!((est - exact).abs() < 0.2, "{m}: {est} vs {exact}");
                }
            }
        }
    }

    #[test]
    fn result_writer_writes_jsonl() {
        let dir = std::env::temp_dir().join("streamlink_test_results");
        std::env::set_var("STREAMLINK_RESULTS", &dir);
        {
            let mut w = ResultWriter::new("unit_test");
            w.write_row(&serde_json::json!({"a": 1}));
            w.write_row(&serde_json::json!({"a": 2}));
        }
        let content = std::fs::read_to_string(dir.join("unit_test.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
        std::env::remove_var("STREAMLINK_RESULTS");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
