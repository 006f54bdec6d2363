//! Tests that assert on the exact contents of the process-global span
//! ring. They live in their own test binary: in the library's unit-test
//! binary every other test that inserts edges, merges or checkpoints
//! records spans into the same ring, so exact counts and orders there
//! race with whatever test happens to run alongside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use streamlink_core::trace::{
    child, degree_class, note_corr, op, profile, recent, record_sampled, render_profilez_json,
    render_trace_json, reset, set_enabled, spans_recorded, RING_CAPACITY,
};

/// Serializes trace tests: they share the global ring.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn op_records_span_with_children() {
    let _gate = lock();
    reset();
    {
        let g = op("cmd.query");
        g.note_degree(20);
        {
            let _c = child("store.read");
            std::hint::black_box(42);
        }
        {
            let _c = child("store.read");
        }
        {
            let _c = child("estimate.jaccard");
        }
    }
    let spans = recent(10);
    assert_eq!(spans.len(), 1);
    let s = &spans[0];
    assert_eq!(s.op, "cmd.query");
    assert_eq!(s.parent, None);
    assert_eq!(s.degree_class, Some(degree_class(20)));
    assert_eq!(s.children.len(), 2, "same-name children aggregate: {s:?}");
    assert_eq!(s.children[0].0, "store.read");
    assert!(s.dur_ns > 0);
}

#[test]
fn nested_ops_record_parent_and_breakdown() {
    let _gate = lock();
    reset();
    {
        let _outer = op("cmd.insert");
        {
            let _inner = op("merge");
        }
    }
    let spans = recent(10);
    assert_eq!(spans.len(), 2);
    // Newest first: outer completed last.
    assert_eq!(spans[0].op, "cmd.insert");
    assert_eq!(spans[1].op, "merge");
    assert_eq!(spans[1].parent, Some("cmd.insert"));
    assert_eq!(spans[0].children[0].0, "merge");
}

#[test]
fn disabled_tracing_records_nothing() {
    let _gate = lock();
    reset();
    set_enabled(false);
    {
        let _g = op("cmd.query");
        let _c = child("store.read");
    }
    record_sampled("store.insert", Instant::now());
    set_enabled(true);
    assert!(recent(10).is_empty());
}

#[test]
fn ring_keeps_newest_and_wraps() {
    let _gate = lock();
    reset();
    for _ in 0..(RING_CAPACITY + 10) {
        record_sampled("store.insert", Instant::now());
    }
    let spans = recent(5);
    assert_eq!(spans.len(), 5);
    assert_eq!(spans[0].seq, (RING_CAPACITY + 10) as u64);
    assert!(spans[0].seq > spans[1].seq, "newest first");
    assert_eq!(spans_recorded(), (RING_CAPACITY + 10) as u64);
}

#[test]
fn note_corr_stamps_the_innermost_op() {
    let _gate = lock();
    reset();
    {
        let _outer = op("cmd.repl");
        {
            let _inner = op("repl.lease");
            note_corr(42);
        }
        note_corr(7);
    }
    // No active op: must be a silent no-op, not a panic.
    note_corr(99);
    let spans = recent(10);
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].op, "cmd.repl");
    assert_eq!(spans[0].corr_id, Some(7));
    assert_eq!(spans[1].op, "repl.lease");
    assert_eq!(spans[1].corr_id, Some(42));
}

#[test]
fn ring_wraparound_survives_concurrent_scrapes() {
    let _gate = lock();
    reset();
    // Writers wrap the ring several times while scrapers read it —
    // the /tracez contract: every scrape sees only whole records
    // with plausible sequence numbers, and the final count is exact.
    const WRITERS: usize = 4;
    const PER_WRITER: usize = RING_CAPACITY; // 4x capacity total
    let scraping = std::sync::Arc::new(AtomicBool::new(true));
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            let scraping = scraping.clone();
            std::thread::spawn(move || {
                let mut seen_max = 0u64;
                while scraping.load(Ordering::Relaxed) {
                    let spans = recent(RING_CAPACITY);
                    assert!(spans.len() <= RING_CAPACITY);
                    for pair in spans.windows(2) {
                        assert!(pair[0].seq > pair[1].seq, "newest first, no torn order");
                    }
                    if let Some(first) = spans.first() {
                        assert!(first.seq >= seen_max, "newest seq never regresses");
                        seen_max = first.seq;
                        assert_eq!(first.op, "store.insert");
                    }
                }
            })
        })
        .collect();
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..PER_WRITER {
                    record_sampled("store.insert", Instant::now());
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    scraping.store(false, Ordering::Relaxed);
    for s in scrapers {
        s.join().unwrap();
    }
    assert_eq!(spans_recorded(), (WRITERS * PER_WRITER) as u64);
    let spans = recent(RING_CAPACITY);
    assert_eq!(spans.len(), RING_CAPACITY, "full ring after 4x wrap");
    assert_eq!(spans[0].seq, (WRITERS * PER_WRITER) as u64);
}

#[test]
fn profile_inclusive_times_are_coherent_child_le_parent() {
    let _gate = lock();
    reset();
    for _ in 0..50 {
        let _outer = op("cmd.insert");
        {
            let _inner = op("journal.append");
            std::hint::black_box(42);
        }
    }
    let p = profile(RING_CAPACITY);
    let parent = p
        .nodes
        .iter()
        .find(|n| n.op == "cmd.insert")
        .expect("parent node");
    let child = p
        .nodes
        .iter()
        .find(|n| n.op == "journal.append")
        .expect("child node");
    assert_eq!(child.parent.as_deref(), Some("cmd.insert"));
    assert_eq!(parent.count, 50);
    assert_eq!(child.count, 50);
    assert!(
        child.inclusive_ns <= parent.inclusive_ns,
        "child inclusive {} must not exceed parent inclusive {}",
        child.inclusive_ns,
        parent.inclusive_ns
    );
    // The parent's attributed child time matches the child node.
    let attributed = parent
        .children
        .iter()
        .find(|(n, _)| n == "journal.append")
        .expect("attributed child");
    assert!(attributed.1 <= parent.inclusive_ns);
    assert_eq!(
        parent.exclusive_ns,
        parent.inclusive_ns - attributed.1,
        "exclusive = inclusive minus attributed child time"
    );
}

#[test]
fn render_profilez_reads_the_ring() {
    let _gate = lock();
    reset();
    {
        let _g = op("cmd.stats");
    }
    let json = render_profilez_json(16);
    let _: serde_json::Value = serde_json::from_str(&json).expect("valid profilez JSON");
    assert!(json.contains("\"schema\":\"streamlink.profilez.v1\""));
    assert!(json.contains("\"op\":\"cmd.stats\""));
}

#[test]
fn trace_json_export_is_valid() {
    let _gate = lock();
    reset();
    {
        let _g = op("cmd.stats");
    }
    let json = render_trace_json(16);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid trace JSON");
    drop(parsed);
    assert!(json.contains("\"schema\":\"streamlink.trace.v1\""));
    assert!(json.contains("\"op\":\"cmd.stats\""));
}
