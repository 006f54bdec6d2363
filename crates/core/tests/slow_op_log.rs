//! The slow-op log round trip, alone in its own test binary: the slow-op
//! threshold and the log sink are process-global, so a span recorded by
//! any test running in parallel in the same process (a sampled
//! `store.insert`, say) would land in this log.

use std::time::Duration;

use streamlink_core::trace::{
    install_slow_op_log, op, reset, rotated_path, set_slow_op_threshold_ms, uninstall_slow_op_log,
    DEFAULT_SLOW_OP_MS,
};

#[test]
fn slow_op_log_writes_and_rotates() {
    reset();
    let dir = std::env::temp_dir().join(format!("streamlink-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("slowops.jsonl");
    // Tiny bound forces rotation after a couple of records.
    install_slow_op_log(&path, 400).unwrap();
    set_slow_op_threshold_ms(1);
    for _ in 0..8 {
        let _g = op("cmd.query");
        std::thread::sleep(Duration::from_millis(1)); // every op is "slow"
    }
    set_slow_op_threshold_ms(DEFAULT_SLOW_OP_MS);
    uninstall_slow_op_log();

    let current = std::fs::read_to_string(&path).unwrap();
    for line in current.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid slowop line");
        drop(v);
        assert!(line.contains("\"op\":\"cmd.query\""), "{line}");
    }
    let rotated = std::fs::read_to_string(rotated_path(&path)).expect("rotated generation");
    assert!(!rotated.is_empty());
    assert!(current.len() as u64 <= 400);
    std::fs::remove_dir_all(&dir).unwrap();
}
