//! Sketch-store union — the distributed/parallel ingestion primitive.
//!
//! MinHash slots are min-registers, so the union of two stores built from
//! edge-disjoint sub-streams is *exactly* the store a single pass over the
//! combined stream would produce: merge slots component-wise by `min`, add
//! degree counters, add edge counts. This holds per vertex, so shards can
//! split the stream arbitrarily — by range, by hash, round-robin — as long
//! as no edge is delivered to two shards (that would double-count
//! degrees; slots themselves would still be correct).

use crate::store::{SketchStore, VertexState};

/// Why two stores could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Slot counts differ.
    SlotMismatch {
        /// Slots of the destination store.
        left: usize,
        /// Slots of the source store.
        right: usize,
    },
    /// Base seeds differ — the hash families are incompatible and slot
    /// values are not comparable.
    SeedMismatch,
    /// Hasher backends differ.
    BackendMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::SlotMismatch { left, right } => {
                write!(f, "cannot merge sketches of {left} and {right} slots")
            }
            MergeError::SeedMismatch => write!(f, "cannot merge stores with different seeds"),
            MergeError::BackendMismatch => {
                write!(f, "cannot merge stores with different hasher backends")
            }
        }
    }
}

impl std::error::Error for MergeError {}

fn check_compat(dst: &SketchStore, src: &SketchStore) -> Result<(), MergeError> {
    let (dc, sc) = (dst.config(), src.config());
    if dc.slots() != sc.slots() {
        return Err(MergeError::SlotMismatch {
            left: dc.slots(),
            right: sc.slots(),
        });
    }
    if dc.base_seed() != sc.base_seed() {
        return Err(MergeError::SeedMismatch);
    }
    if dc.hasher_backend() != sc.hasher_backend() {
        return Err(MergeError::BackendMismatch);
    }
    Ok(())
}

/// Merges `src` into `dst` (neighborhood union per vertex).
///
/// This is the **shard union**: degrees and edge counts are *added*, so
/// it is exact only when the two stores were built from edge-disjoint
/// sub-streams. For joining two replicas of the *same* stream, use
/// [`merge_join`].
///
/// # Errors
/// Fails without modifying `dst` if the configurations are incompatible.
pub fn merge_into(dst: &mut SketchStore, src: &SketchStore) -> Result<(), MergeError> {
    check_compat(dst, src)?;

    let _t = crate::trace::op("merge");
    let start = std::time::Instant::now();
    let k = dst.config().slots();
    // `dst` and `src` are distinct objects (`&mut` + `&`), so the
    // mutable view of one and the shared view of the other coexist:
    // merge straight out of `src` with zero transient allocation.
    let (src_states, src_edges) = src.parts();
    let (dst_states, dst_edges) = dst.parts_mut();
    for (&v, s) in src_states {
        let d = dst_states.entry(v).or_insert_with(|| VertexState::new(k));
        d.sketch.merge(&s.sketch);
        d.degree += s.degree;
    }
    *dst_edges += src_edges;
    let m = crate::metrics::global();
    m.merge_ops.incr();
    m.merge_latency.observe(start);
    Ok(())
}

/// Joins `src` into `dst` as two states of the **same** stream — the
/// state-based-CRDT join replication anti-entropy uses.
///
/// Slots are min-registers, so the component-wise `min` is a true
/// idempotent join. Degree counters and the edge count are *not*
/// idempotent, and must never be blindly re-added when the two states
/// observed overlapping prefixes of one stream; here they are joined by
/// `max`. That is exact under the replication invariant: a replica
/// applies each primary seq at most once (seq-deduplicated), so its
/// per-vertex degrees and edge count are each ≤ the primary's, and
/// `max` recovers exactly the more-advanced state's counters.
///
/// `merge_join` is idempotent (`join(a, a) == a`), commutative, and
/// monotone; self-join and repeated join never double-count.
///
/// # Errors
/// Fails without modifying `dst` if the configurations are incompatible.
pub fn merge_join(dst: &mut SketchStore, src: &SketchStore) -> Result<(), MergeError> {
    check_compat(dst, src)?;

    let _t = crate::trace::op("merge_join");
    let start = std::time::Instant::now();
    let k = dst.config().slots();
    let (src_states, src_edges) = src.parts();
    let (dst_states, dst_edges) = dst.parts_mut();
    for (&v, s) in src_states {
        let d = dst_states.entry(v).or_insert_with(|| VertexState::new(k));
        d.sketch.merge(&s.sketch);
        d.degree = d.degree.max(s.degree);
    }
    *dst_edges = (*dst_edges).max(src_edges);
    let m = crate::metrics::global();
    m.merge_ops.incr();
    m.merge_latency.observe(start);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HasherBackend, SketchConfig};
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(64).seed(7)
    }

    #[test]
    fn merged_equals_single_pass() {
        let stream: Vec<_> = BarabasiAlbert::new(300, 3, 2).edges().collect();
        let (first, second) = stream.split_at(stream.len() / 2);

        let mut a = SketchStore::new(cfg());
        a.insert_stream(first.iter().copied());
        let mut b = SketchStore::new(cfg());
        b.insert_stream(second.iter().copied());

        let mut whole = SketchStore::new(cfg());
        whole.insert_stream(stream.iter().copied());

        merge_into(&mut a, &b).unwrap();

        assert_eq!(a.vertex_count(), whole.vertex_count());
        assert_eq!(a.edges_processed(), whole.edges_processed());
        for v in whole.vertices() {
            assert_eq!(a.degree(v), whole.degree(v), "degree mismatch at {v}");
            assert_eq!(a.sketch(v), whole.sketch(v), "sketch mismatch at {v}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(100, 2, 1).edges());
        let before: Vec<_> = a.vertices().map(|v| (v, a.degree(v))).collect();
        merge_into(&mut a, &SketchStore::new(cfg())).unwrap();
        for (v, d) in before {
            assert_eq!(a.degree(v), d);
        }
    }

    #[test]
    fn merge_order_does_not_matter_for_sketches() {
        let stream: Vec<_> = BarabasiAlbert::new(200, 2, 3).edges().collect();
        let (x, y) = stream.split_at(stream.len() / 3);

        let build = |edges: &[graphstream::Edge]| {
            let mut s = SketchStore::new(cfg());
            s.insert_stream(edges.iter().copied());
            s
        };
        let mut ab = build(x);
        merge_into(&mut ab, &build(y)).unwrap();
        let mut ba = build(y);
        merge_into(&mut ba, &build(x)).unwrap();
        for v in ab.vertices() {
            assert_eq!(ab.sketch(v), ba.sketch(v));
            assert_eq!(ab.degree(v), ba.degree(v));
        }
    }

    #[test]
    fn slot_mismatch_rejected() {
        let mut a = SketchStore::new(SketchConfig::with_slots(32).seed(7));
        let b = SketchStore::new(SketchConfig::with_slots(64).seed(7));
        assert_eq!(
            merge_into(&mut a, &b),
            Err(MergeError::SlotMismatch {
                left: 32,
                right: 64
            })
        );
    }

    #[test]
    fn seed_mismatch_rejected() {
        let mut a = SketchStore::new(SketchConfig::with_slots(32).seed(1));
        let b = SketchStore::new(SketchConfig::with_slots(32).seed(2));
        assert_eq!(merge_into(&mut a, &b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn backend_mismatch_rejected() {
        let mut a = SketchStore::new(SketchConfig::with_slots(32));
        let b = SketchStore::new(SketchConfig::with_slots(32).backend(HasherBackend::Tabulation));
        assert_eq!(merge_into(&mut a, &b), Err(MergeError::BackendMismatch));
    }

    #[test]
    fn join_with_self_is_identity() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(200, 3, 5).edges());
        let b = {
            let mut b = SketchStore::new(cfg());
            b.insert_stream(BarabasiAlbert::new(200, 3, 5).edges());
            b
        };
        merge_join(&mut a, &b).unwrap();
        assert_eq!(a.edges_processed(), b.edges_processed());
        for v in b.vertices() {
            assert_eq!(a.degree(v), b.degree(v), "self-join changed degree of {v}");
            assert_eq!(a.sketch(v), b.sketch(v), "self-join changed sketch of {v}");
        }
    }

    #[test]
    fn join_of_prefix_state_recovers_full_state() {
        // A replica that saw only a prefix of the stream, joined with
        // the primary's full state, must equal the primary exactly —
        // degrees via max, not sum.
        let stream: Vec<_> = BarabasiAlbert::new(250, 3, 9).edges().collect();
        let mut replica = SketchStore::new(cfg());
        replica.insert_stream(stream.iter().take(stream.len() / 3).copied());
        let mut primary = SketchStore::new(cfg());
        primary.insert_stream(stream.iter().copied());

        merge_join(&mut replica, &primary).unwrap();
        assert_eq!(replica.edges_processed(), primary.edges_processed());
        assert_eq!(replica.vertex_count(), primary.vertex_count());
        for v in primary.vertices() {
            assert_eq!(replica.degree(v), primary.degree(v), "degree at {v}");
            assert_eq!(replica.sketch(v), primary.sketch(v), "sketch at {v}");
        }
    }

    #[test]
    fn join_is_commutative_for_same_stream_states() {
        let stream: Vec<_> = BarabasiAlbert::new(150, 2, 4).edges().collect();
        let prefix = |n: usize| {
            let mut s = SketchStore::new(cfg());
            s.insert_stream(stream.iter().take(n).copied());
            s
        };
        let (short, long) = (prefix(stream.len() / 2), prefix(stream.len()));
        let mut a = prefix(stream.len() / 2);
        merge_join(&mut a, &long).unwrap();
        let mut b = prefix(stream.len());
        merge_join(&mut b, &short).unwrap();
        assert_eq!(a.edges_processed(), b.edges_processed());
        for v in a.vertices() {
            assert_eq!(a.degree(v), b.degree(v));
            assert_eq!(a.sketch(v), b.sketch(v));
        }
    }

    #[test]
    fn join_rejects_incompatible_configs_untouched() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(50, 2, 1).edges());
        let edges_before = a.edges_processed();
        let b = SketchStore::new(SketchConfig::with_slots(128).seed(7));
        assert!(matches!(
            merge_join(&mut a, &b),
            Err(MergeError::SlotMismatch { .. })
        ));
        assert_eq!(a.edges_processed(), edges_before);
        assert_eq!(
            merge_join(
                &mut a,
                &SketchStore::new(SketchConfig::with_slots(64).seed(8))
            ),
            Err(MergeError::SeedMismatch)
        );
    }

    #[test]
    fn failed_merge_leaves_dst_untouched() {
        let mut a = SketchStore::new(cfg());
        a.insert_stream(BarabasiAlbert::new(50, 2, 1).edges());
        let edges_before = a.edges_processed();
        let b = SketchStore::new(SketchConfig::with_slots(128).seed(7));
        assert!(merge_into(&mut a, &b).is_err());
        assert_eq!(a.edges_processed(), edges_before);
    }
}
