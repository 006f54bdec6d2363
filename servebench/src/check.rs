//! The per-run correctness gate and the accuracy metric.
//!
//! After a run the benchmark rebuilds what the server should hold — an
//! in-process `SketchStore` with the server's configuration, fed the
//! prepared stream plus every acknowledged insert — and asks both the
//! same `JACCARD`/`DEGREE` questions over a seeded sample of pairs. The
//! reference answers come from the protocol layer itself
//! (`handle_command` on an in-memory `ServerState`), so the comparison is
//! string for string. Sketch slots are min-registers and degrees are
//! counters, so the order in which two connections' inserts interleaved
//! does not change the answers.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use graphstream::VertexId;
use streamlink_cli::server::protocol::handle_command;
use streamlink_cli::server::{ServerConfig, ServerState};
use streamlink_core::loadgen::SplitMix64;
use streamlink_core::{SketchConfig, SketchStore};

use crate::load;

/// Pairs in the accuracy and correctness sample.
pub const PAIRS: usize = 10_000;

/// The server's sketch shape: `--slots 64` and the default hash seed.
#[must_use]
pub fn server_config() -> SketchConfig {
    SketchConfig::with_slots(64).seed(0)
}

pub struct Verdict {
    /// Mean absolute error of the server's `JACCARD` against exact
    /// Jaccard over the pair sample.
    pub jaccard_mae: f64,
    /// Edges the server reports (`STATS edges=`).
    pub edges: u64,
    /// The first disagreement with the reference, if any: the run is
    /// then incorrect.
    pub mismatch: Option<String>,
}

/// Checks the live server at `addr` against the edges it acknowledged.
pub fn verify(addr: SocketAddr, edges: &[(u64, u64)], pair_seed: u64) -> Result<Verdict, String> {
    let mut store = SketchStore::new(server_config());
    let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(u, v) in edges {
        store.insert_edge(VertexId(u), VertexId(v));
        if u != v {
            adjacency.entry(u).or_default().push(v);
            adjacency.entry(v).or_default().push(u);
        }
    }
    for list in adjacency.values_mut() {
        list.sort_unstable();
        list.dedup();
    }
    let pairs = sample_pairs(&adjacency, pair_seed, PAIRS);
    let questions: Vec<String> = pairs
        .iter()
        .flat_map(|&(u, v)| [format!("JACCARD {u} {v}"), format!("DEGREE {u}")])
        .chain(std::iter::once("STATS".to_string()))
        .collect();

    let reference = ServerState::in_memory(
        store,
        ServerConfig {
            audit_interval: Duration::ZERO,
            repl_buffer: 0,
            ..ServerConfig::default()
        },
    );
    let answers = load::exchange(addr, &questions)?;
    let (stats, answers) = answers.split_last().ok_or("no answers")?;
    let mut mismatch = questions.iter().zip(answers).find_map(|(q, got)| {
        let want = handle_command(&reference, q);
        (*got != want).then(|| format!("{q}: server answered {got:?}, reference {want:?}"))
    });
    let served_edges: u64 = load::field(stats, "edges")
        .and_then(|e| e.parse().ok())
        .ok_or_else(|| format!("unparseable STATS: {stats:?}"))?;
    if served_edges != edges.len() as u64 {
        mismatch.get_or_insert(format!(
            "STATS edges={served_edges}, but {} edges were prepared or acknowledged",
            edges.len()
        ));
    }

    let mut abs_err = 0.0;
    for (&(u, v), answer) in pairs.iter().zip(answers.iter().step_by(2)) {
        let estimate: f64 = answer
            .strip_prefix("OK ")
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| format!("JACCARD {u} {v}: unparseable {answer:?}"))?;
        abs_err += (estimate - exact_jaccard(&adjacency[&u], &adjacency[&v])).abs();
    }
    Ok(Verdict {
        jaccard_mae: abs_err / pairs.len().max(1) as f64,
        edges: served_edges,
        mismatch,
    })
}

/// `n` pairs that share at least one neighbour: a seeded pivot vertex of
/// degree ≥ 2, then two of its distinct neighbours.
fn sample_pairs(adjacency: &HashMap<u64, Vec<u64>>, seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut pivots: Vec<u64> = adjacency
        .iter()
        .filter(|(_, nbrs)| nbrs.len() >= 2)
        .map(|(&w, _)| w)
        .collect();
    pivots.sort_unstable();
    if pivots.is_empty() {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let nbrs = &adjacency[&pivots[rng.gen_below(pivots.len() as u64) as usize]];
            let a = rng.gen_below(nbrs.len() as u64) as usize;
            let b = (a + 1 + rng.gen_below(nbrs.len() as u64 - 1) as usize) % nbrs.len();
            (nbrs[a], nbrs[b])
        })
        .collect()
}

/// |A ∩ B| / |A ∪ B| of two sorted, deduplicated neighbour lists.
fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
    let (mut i, mut j, mut common) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - common;
    if union == 0 {
        0.0
    } else {
        common as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_jaccard_of_sorted_lists() {
        assert_eq!(exact_jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(exact_jaccard(&[1], &[2]), 0.0);
    }

    #[test]
    fn sampled_pairs_share_a_neighbour() {
        let mut adjacency: HashMap<u64, Vec<u64>> = HashMap::new();
        for (u, v) in [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)] {
            adjacency.entry(u).or_default().push(v);
            adjacency.entry(v).or_default().push(u);
        }
        for list in adjacency.values_mut() {
            list.sort_unstable();
        }
        let pairs = sample_pairs(&adjacency, 7, 50);
        assert_eq!(pairs, sample_pairs(&adjacency, 7, 50));
        for (u, v) in pairs {
            assert_ne!(u, v);
            assert!(adjacency[&u].iter().any(|w| adjacency[&v].contains(w)));
        }
    }
}
