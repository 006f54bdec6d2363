//! Live component-wise memory accounting for a serving process.
//!
//! The paper's space claim — *constant bytes per vertex, independent of
//! degree and stream length* — is proven offline by experiment E7. This
//! module makes it observable on a running server: [`MemoryReport`]
//! walks every resident component the serving stack owns (sketch slot
//! arrays, the store's vertex map, journal write buffer, trace ring,
//! event-journal ring, audit shadow sets), sums a deterministic
//! capacity model for each, and
//! publishes the result into the `mem.*` gauges — including the live
//! `mem.bytes_per_vertex` an operator can alert on.
//!
//! All component models are `O(1)` or `O(tracked vertices)` to compute
//! (never `O(edges)`), so a background refresh cycle can hold the store
//! read lock briefly without stalling ingest.

use crate::audit::AccuracyAuditor;
use crate::store::SketchStore;
use crate::trace;

/// One accounted component of the serving process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryComponent {
    /// Stable dotted identifier (e.g. `store.sketch_slots`).
    pub name: &'static str,
    /// Modeled resident bytes.
    pub bytes: usize,
    /// Entry count behind the bytes (vertices, slots, tracked sets…);
    /// 0 where no meaningful count exists.
    pub entries: usize,
}

/// A point-in-time component memory breakdown of the serving stack.
///
/// Built by [`MemoryReport::collect`], surfaced as JSON by the HTTP
/// `/memz` endpoint, and pushed into the `mem.*` gauges by
/// [`MemoryReport::publish`].
#[derive(Debug, Clone)]
pub struct MemoryReport {
    /// Every accounted component, in stable order.
    pub components: Vec<MemoryComponent>,
    /// Distinct vertices resident in the store.
    pub vertices: usize,
    /// Sum of all component bytes.
    pub total_bytes: usize,
    /// `total_bytes / max(vertices, 1)` — the live per-vertex cost.
    pub bytes_per_vertex: u64,
}

impl MemoryReport {
    /// Walks the store (and optional auditor) and assembles the report.
    ///
    /// `journal_buffer_bytes` and `repl_buffer_bytes` are passed in by
    /// the caller because the journal lives behind the server's
    /// persistence lock and the replication ship buffer behind its own
    /// lock, not inside the store; pass 0 for deployments without them.
    #[must_use]
    pub fn collect(
        store: &SketchStore,
        auditor: Option<&AccuracyAuditor>,
        journal_buffer_bytes: usize,
        repl_buffer_bytes: usize,
    ) -> Self {
        let vertices = store.vertex_count();
        let sm = store.memory_breakdown();
        let (shadow_bytes, shadow_tracked) = match auditor {
            Some(a) => (a.shadow_memory_bytes(), a.snapshot().tracked),
            None => (0, 0),
        };
        let components = vec![
            MemoryComponent {
                name: "store.sketch_slots",
                bytes: sm.sketch_slot_bytes,
                entries: vertices,
            },
            MemoryComponent {
                name: "store.sketch_map",
                bytes: sm.sketch_map_bytes,
                entries: vertices,
            },
            MemoryComponent {
                name: "store.degree_map",
                bytes: sm.degree_map_bytes,
                entries: vertices,
            },
            MemoryComponent {
                name: "store.fixed",
                bytes: sm.fixed_bytes,
                entries: 0,
            },
            MemoryComponent {
                name: "journal.write_buffer",
                bytes: journal_buffer_bytes,
                entries: 0,
            },
            MemoryComponent {
                name: "trace.ring",
                bytes: trace::ring_memory_bytes(),
                entries: trace::RING_CAPACITY,
            },
            MemoryComponent {
                name: "audit.shadow",
                bytes: shadow_bytes,
                entries: shadow_tracked,
            },
            MemoryComponent {
                name: "repl.buffer",
                bytes: repl_buffer_bytes,
                entries: 0,
            },
            MemoryComponent {
                name: "events.ring",
                bytes: crate::events::ring_memory_bytes(),
                entries: crate::events::RING_CAPACITY,
            },
        ];
        let total_bytes = components.iter().map(|c| c.bytes).sum();
        Self {
            components,
            vertices,
            total_bytes,
            bytes_per_vertex: (total_bytes / vertices.max(1)) as u64,
        }
    }

    /// Bytes of a named component (0 if absent) — publish/test helper.
    #[must_use]
    pub fn component_bytes(&self, name: &str) -> usize {
        self.components
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.bytes)
    }

    /// Pushes the report into the global `mem.*` gauges, making the
    /// breakdown scrapeable from `/metrics` and the TCP `METRICS`
    /// command.
    pub fn publish(&self) {
        let m = crate::metrics::global();
        m.mem_total_bytes.set(self.total_bytes as u64);
        m.mem_sketch_slot_bytes
            .set(self.component_bytes("store.sketch_slots") as u64);
        m.mem_sketch_map_bytes
            .set(self.component_bytes("store.sketch_map") as u64);
        m.mem_degree_map_bytes
            .set(self.component_bytes("store.degree_map") as u64);
        m.mem_store_fixed_bytes
            .set(self.component_bytes("store.fixed") as u64);
        m.mem_journal_buffer_bytes
            .set(self.component_bytes("journal.write_buffer") as u64);
        m.mem_trace_ring_bytes
            .set(self.component_bytes("trace.ring") as u64);
        m.mem_audit_shadow_bytes
            .set(self.component_bytes("audit.shadow") as u64);
        m.mem_repl_buffer_bytes
            .set(self.component_bytes("repl.buffer") as u64);
        m.mem_events_ring_bytes
            .set(self.component_bytes("events.ring") as u64);
        m.mem_vertices.set(self.vertices as u64);
        m.mem_bytes_per_vertex.set(self.bytes_per_vertex);
    }

    /// Renders the report as single-line JSON under the
    /// `streamlink.memz.v1` schema (served by HTTP `GET /memz`).
    #[must_use]
    pub fn render_json(&self) -> String {
        let rows: Vec<String> = self
            .components
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"bytes\":{},\"entries\":{}}}",
                    c.name, c.bytes, c.entries
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"streamlink.memz.v1\",\"total_bytes\":{},\"vertices\":{},\
             \"bytes_per_vertex\":{},\"components\":[{}]}}",
            self.total_bytes,
            self.vertices,
            self.bytes_per_vertex,
            rows.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::SketchConfig;
    use graphstream::VertexId;

    fn populated_store(vertices: u64) -> SketchStore {
        let mut store = SketchStore::new(SketchConfig::with_slots(64).seed(7));
        for v in 0..vertices / 2 {
            store.insert_edge(VertexId(v), VertexId(v + vertices / 2));
        }
        store
    }

    #[test]
    fn report_totals_are_component_sums() {
        let store = populated_store(200);
        let report = MemoryReport::collect(&store, None, 8192, 0);
        let sum: usize = report.components.iter().map(|c| c.bytes).sum();
        assert_eq!(report.total_bytes, sum);
        assert_eq!(report.vertices, 200);
        assert_eq!(report.component_bytes("journal.write_buffer"), 8192);
        assert_eq!(report.bytes_per_vertex, (report.total_bytes / 200) as u64);
        // The store components must agree with the store's own total.
        let store_sum = report.component_bytes("store.sketch_slots")
            + report.component_bytes("store.sketch_map")
            + report.component_bytes("store.degree_map")
            + report.component_bytes("store.fixed");
        assert_eq!(store_sum, store.memory_bytes());
    }

    #[test]
    fn empty_store_has_nonzero_per_vertex_denominator() {
        let store = SketchStore::new(SketchConfig::with_slots(64));
        let report = MemoryReport::collect(&store, None, 0, 0);
        assert_eq!(report.vertices, 0);
        assert_eq!(report.bytes_per_vertex, report.total_bytes as u64);
    }

    #[test]
    fn auditor_shadow_component_appears_when_present() {
        let mut store = SketchStore::new(SketchConfig::with_slots(64));
        let auditor = AccuracyAuditor::new(AuditConfig {
            vertex_sample_shift: 0,
            ..AuditConfig::default()
        });
        for v in 0u64..50 {
            store.insert_edge(VertexId(v), VertexId(v + 1000));
            auditor.observe_edge(VertexId(v), VertexId(v + 1000), 0, 0);
        }
        let with = MemoryReport::collect(&store, Some(&auditor), 0, 0);
        let without = MemoryReport::collect(&store, None, 0, 0);
        assert!(with.component_bytes("audit.shadow") > 0);
        assert_eq!(without.component_bytes("audit.shadow"), 0);
        assert!(with.total_bytes > without.total_bytes);
    }

    #[test]
    fn json_rendering_is_single_line_and_schema_tagged() {
        let store = populated_store(20);
        let json = MemoryReport::collect(&store, None, 0, 0).render_json();
        assert!(json.starts_with("{\"schema\":\"streamlink.memz.v1\""));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"name\":\"store.sketch_slots\""));
        assert!(json.contains("\"name\":\"trace.ring\""));
        assert!(json.contains("\"name\":\"events.ring\""));
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.get("total_bytes").and_then(|v| v.as_u64()).unwrap() > 0);
        let components = parsed
            .get("components")
            .and_then(|v| v.as_array())
            .expect("components array");
        assert_eq!(components.len(), 9);
    }

    #[test]
    fn publish_round_trips_through_the_gauges() {
        let m = crate::metrics::global();
        m.set_enabled(true);
        let store = populated_store(100);
        let report = MemoryReport::collect(&store, None, 4096, 2048);
        report.publish();
        let snap = m.snapshot();
        let gauge = |k: &str| {
            snap.gauges
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("gauge {k} missing"))
        };
        assert_eq!(gauge("mem.total_bytes"), report.total_bytes as u64);
        assert_eq!(gauge("mem.vertices"), 100);
        assert_eq!(gauge("mem.journal_buffer_bytes"), 4096);
        assert_eq!(gauge("mem.repl_buffer_bytes"), 2048);
        assert_eq!(gauge("mem.bytes_per_vertex"), report.bytes_per_vertex);
    }
}
