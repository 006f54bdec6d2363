//! **E15 (extension figure)** — sustained mixed ingest/query workload on
//! the store the server runs: throughput as the query share of the
//! operation mix sweeps 0% → 90%.
//!
//! The paper's setting is *online*: estimates are queried while the
//! stream is still arriving. This experiment drives one
//! `RwLock<SketchStore>` — the store `streamlink serve` shares between
//! its connection threads — with writer and reader threads over a fixed
//! operation budget and reports sustained operations/second, plus the
//! single-threaded `SketchStore` at the same mixes as the lock-free
//! baseline.
//!
//! Shape to establish: query operations are cheaper than inserts at
//! moderate k (no hashing of 2k values), so throughput *rises* with the
//! query share; the `rwlock` rows show what the single store lock costs
//! versus the unlocked store (writers serialize on it; readers share it).
//!
//! ```sh
//! cargo run --release -p streamlink-bench --bin exp_mixed [-- --scale ...] [--k N]
//! ```

use std::sync::RwLock;
use std::time::Instant;

use datasets::Scale;
use graphstream::{BarabasiAlbert, Edge, EdgeStream, VertexId};
use hashkit::mix64;
use serde::Serialize;
use streamlink_bench::{
    flag_value, scale_from_args, table_header, table_row, ResultWriter, EXP_SEED,
};
use streamlink_core::{SketchConfig, SketchStore};

#[derive(Serialize)]
struct Row {
    backend: String,
    query_share: f64,
    operations: usize,
    seconds: f64,
    ops_per_sec: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    let k: usize = flag_value(&args, "--k").map_or(128, |v| v.parse().expect("bad --k"));
    let n: u64 = match scale {
        Scale::Small => 2_000,
        Scale::Standard => 30_000,
        Scale::Large => 100_000,
    };
    let edges: Vec<Edge> = BarabasiAlbert::new(n, 4, EXP_SEED).edges().collect();
    let threads = std::thread::available_parallelism().map_or(2, |c| c.get().min(8));
    let mut out = ResultWriter::new("e15_mixed");

    println!(
        "\nE15 — mixed ingest/query throughput (k = {k}, {} base edges, {threads} worker threads)\n",
        edges.len()
    );
    table_header(&["backend", "query share", "ops", "time (s)", "ops/s"]);
    for query_share in [0.0f64, 0.25, 0.5, 0.9] {
        // Single-threaded baseline: interleave inserts and queries.
        let mut plain = SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED));
        let t = Instant::now();
        let mut ops = 0usize;
        let mut sink = 0.0f64;
        for (i, e) in edges.iter().enumerate() {
            plain.insert_edge(e.src, e.dst);
            ops += 1;
            // Issue queries to maintain the requested mix.
            let queries = ((i as f64 + 1.0) * query_share / (1.0 - query_share).max(1e-9)) as usize;
            let already = (ops as f64 * query_share) as usize;
            for q in already..queries.min(already + 8) {
                let a = VertexId(mix64(q as u64) % n);
                let b = VertexId(mix64(q as u64 ^ 0xABCD) % n);
                sink += plain.jaccard(a, b).unwrap_or(0.0);
                ops += 1;
            }
        }
        std::hint::black_box(sink);
        let secs = t.elapsed().as_secs_f64();
        let row = Row {
            backend: "single".into(),
            query_share,
            operations: ops,
            seconds: secs,
            ops_per_sec: ops as f64 / secs,
        };
        table_row(&[
            "single".into(),
            format!("{:.0}%", query_share * 100.0),
            ops.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", row.ops_per_sec),
        ]);
        out.write_row(&row);

        // The serving store: writers stream edges, readers fire queries.
        let store = RwLock::new(SketchStore::new(SketchConfig::with_slots(k).seed(EXP_SEED)));
        let queries_per_reader = (edges.len() as f64 * query_share / (1.0 - query_share).max(1e-9))
            as usize
            / threads.max(1);
        let t = Instant::now();
        std::thread::scope(|scope| {
            let chunk = edges.len().div_ceil(threads);
            for part in edges.chunks(chunk) {
                let store = &store;
                scope.spawn(move || {
                    for e in part {
                        store.write().expect("store lock").insert_edge(e.src, e.dst);
                    }
                });
            }
            for reader in 0..threads {
                let store = &store;
                scope.spawn(move || {
                    let mut sink = 0.0f64;
                    for q in 0..queries_per_reader {
                        let word = mix64((reader * 1_000_003 + q) as u64);
                        let a = VertexId(word % n);
                        let b = VertexId(mix64(word) % n);
                        sink += store
                            .read()
                            .expect("store lock")
                            .jaccard(a, b)
                            .unwrap_or(0.0);
                    }
                    std::hint::black_box(sink);
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        let total_ops = edges.len() + queries_per_reader * threads;
        let row = Row {
            backend: "rwlock".into(),
            query_share,
            operations: total_ops,
            seconds: secs,
            ops_per_sec: total_ops as f64 / secs,
        };
        table_row(&[
            "rwlock".into(),
            format!("{:.0}%", query_share * 100.0),
            total_ops.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", row.ops_per_sec),
        ]);
        out.write_row(&row);
    }
}
