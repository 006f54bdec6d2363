//! Exact statistics over raw samples, and the result line.
//!
//! Percentiles are nearest-rank over every sample the run recorded —
//! never read back from a bucketed histogram — and a failed or refused
//! operation is a sample of +∞, so it counts as missing every latency
//! limit.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, which must
/// be sorted ascending (+∞ allowed): the smallest sample with at least
/// `q·n` samples at or below it. `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // ceil(q·n) as a 1-based rank, clamped to [1, n]. The rounding guard
    // keeps e.g. 0.99·100 from landing on rank 100 through float error.
    let rank = ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// Sorts samples ascending; +∞ (failed operations) sorts last.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The nearest-rank median of `values` (sorts in place).
#[must_use]
pub fn median(values: &mut [f64]) -> Option<f64> {
    sort_samples(values);
    nearest_rank(values, 0.5)
}

/// Open-loop latency of one operation in milliseconds, anchored at the
/// time it was *due*, not the time it was sent: a stall that delays the
/// send of later operations shows in their latency. A failed operation
/// (`done_ns == None`) is +∞.
#[must_use]
pub fn latency_ms(due_ns: u64, done_ns: Option<u64>) -> f64 {
    match done_ns {
        Some(done) => done.saturating_sub(due_ns) as f64 / 1e6,
        None => f64::INFINITY,
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the final result line. Fails on an invalid name or a value
/// JSON cannot carry (NaN, ±∞).
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_arrays() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&xs, 0.05), Some(15.0));
        assert_eq!(nearest_rank(&xs, 0.30), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.40), Some(20.0));
        assert_eq!(nearest_rank(&xs, 0.50), Some(35.0));
        assert_eq!(nearest_rank(&xs, 1.00), Some(50.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 0.999), Some(100.0));
        assert_eq!(nearest_rank(&hundred, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), Some(2.0));
    }

    #[test]
    fn failed_ops_count_as_infinite_latency() {
        assert_eq!(latency_ms(5_000_000, None), f64::INFINITY);
        // 99 answered in 1 ms, one failed: p99 is still finite, the
        // maximum is not.
        let mut xs: Vec<f64> = (0..99)
            .map(|i| latency_ms(i, Some(i + 1_000_000)))
            .collect();
        xs.push(latency_ms(99, None));
        sort_samples(&mut xs);
        assert_eq!(nearest_rank(&xs, 0.99), Some(1.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(f64::INFINITY));
        // Two failures in a hundred push p99 past every limit.
        xs[98] = f64::INFINITY;
        sort_samples(&mut xs);
        assert_eq!(nearest_rank(&xs, 0.99), Some(f64::INFINITY));
        // A non-finite value never reaches the result line.
        assert!(render_result(true, 1, 0, &[Metric::new("p99_ms", f64::INFINITY, "ms")]).is_err());
    }

    /// A FIFO server that answers each op `service_ns` after it can
    /// start; op 0 additionally stalls for `stall_ns`. Ops are due every
    /// `gap_ns`; each is sent at its due time (an ideal pacer).
    fn simulate(n: u64, gap_ns: u64, service_ns: u64, stall_ns: u64) -> Vec<(u64, u64)> {
        let mut free_at = 0;
        (0..n)
            .map(|i| {
                let due = i * gap_ns;
                let start = due.max(free_at);
                let done = start + service_ns + if i == 0 { stall_ns } else { 0 };
                free_at = done;
                (due, done)
            })
            .collect()
    }

    #[test]
    fn due_time_anchoring_charges_a_stall_to_later_ops() {
        let calm = simulate(20, 1_000_000, 100_000, 0);
        let stalled = simulate(20, 1_000_000, 100_000, 10_000_000);
        let lat = |run: &[(u64, u64)], i: usize| latency_ms(run[i].0, Some(run[i].1));
        // Without the stall every op takes its service time.
        assert!((0..20).all(|i| (lat(&calm, i) - 0.1).abs() < 1e-9));
        // With it, ops due during the stall queue behind it: op 5 was
        // due at 5 ms and finished at 10.6 ms.
        assert!((lat(&stalled, 5) - 5.6).abs() < 1e-9);
        assert!(lat(&stalled, 9) > lat(&calm, 9));
        // The widening shrinks as the backlog drains and ends after it.
        assert!(lat(&stalled, 1) > lat(&stalled, 9));
        assert!((lat(&stalled, 15) - 0.1).abs() < 1e-9);
        let mut widened: Vec<f64> = (0..20).map(|i| lat(&stalled, i)).collect();
        let mut flat: Vec<f64> = (0..20).map(|i| lat(&calm, i)).collect();
        assert!(median(&mut widened) > median(&mut flat));
    }

    #[test]
    fn metric_names_match_the_allowed_alphabet() {
        for ok in [
            "p99_ms",
            "setup_s",
            "hashkit.hash_ns",
            "protocol.insert_ns",
            "driver.late_p99_us",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "p99 ms", "a/b", "ns\u{b5}", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        let line = render_result(true, 3, 0, &[Metric::new("a.b-c_d", 1.5, "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a.b-c_d\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert!(render_result(true, 1, 0, &[Metric::new("bad name", 1.0, "ms")]).is_err());
    }
}
