//! `servebench` — the serving benchmark for `streamlink serve`.
//!
//! ```text
//! servebench --serve-bin PATH --work-dir DIR --workload ingest|query|mixed-mem
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! One run prepares (or reuses) the seed's start state, starts the real
//! server on it three times and keeps the third, drives a warm-up, an
//! open-loop phase of `S` seconds and a closed-loop capacity phase,
//! checks the server's answers, and stops it with SIGTERM. Every figure
//! is printed with its unit; the last stdout line is the result: with
//! `--trace 0` it carries the gated end-to-end metrics, with `--trace 1`
//! (where the TCP run also records per-op spans and an in-process replay
//! times each layer) the per-layer metrics. See `README.md` beside this
//! crate.

mod check;
mod load;
mod prepare;
mod replay;
mod server;
mod stats;
mod sys;
mod workload;

use std::fs;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use prepare::Prepared;
use server::{copy_durably, dir_bytes, Serve, StartState};
use stats::{latency_ms, median, nearest_rank, render_result, sort_samples, Metric};
use workload::{pair_seed, Phase, Workload, CONNS, DEPTH, OPEN_RATE, PREPARED_EDGES, TAIL_EDGES};

/// Server starts per run; `setup_s` is their median, the last one serves.
const SETUPS: usize = 3;
/// Rounds of the capacity phase; `max_ops_s` is the fastest round's rate.
const CAPACITY_ROUNDS: usize = 6;
/// Idle `PING`s timed in the traced run.
const PINGS: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(get("--workload")?)?,
        seed: number("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        serve_bin: PathBuf::from(get("--serve-bin")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one TCP run against the server measured.
struct TcpRun {
    setups_s: Vec<f64>,
    /// Open-loop latencies from due time, ms, sorted; failed ops are +∞.
    latencies: Vec<f64>,
    /// Completions per second of each capacity round.
    round_rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    shutdown_s: f64,
    disk_bytes_per_edge: f64,
    verdict: check::Verdict,
    serve_version: String,
    /// Traced runs only: pacer lateness (µs), idle `PING` round trip (µs)
    /// and the server's own counters.
    late_us: Vec<f64>,
    ping_rtt_us: f64,
    counters: Vec<(&'static str, f64)>,
}

fn run(args: &Args) -> Result<String, String> {
    fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let prepared = prepare::prepare(&args.serve_bin, &args.work_dir, args.seed)?;
    let tcp = tcp_run(args, &prepared)?;
    print_stamp(args, &prepared, &tcp);
    let pct = |q| nearest_rank(&tcp.latencies, q).unwrap_or(f64::INFINITY);
    let (p50, p99, p999) = (pct(0.5), pct(0.99), pct(0.999));
    let setup_s = median(&mut tcp.setups_s.clone()).unwrap_or(f64::NAN);
    let max_ops_s = tcp.round_rates.iter().copied().fold(0.0, f64::max);
    let failed_ratio = tcp.failed as f64 / tcp.attempted.max(1) as f64;
    println!(
        "{} seed={}: setup_s={setup_s:.3} s (starts {:.3?}); open loop {} ops at {OPEN_RATE}/s: \
         p50_ms={p50:.4} p99_ms={p99:.4} p99.9_ms={p999:.4}; capacity rounds {:.0?} ops/s: \
         max_ops_s={max_ops_s:.0}; failed {}/{} (failed_ratio={failed_ratio:.6}); \
         peak_rss_mb={:.1} shutdown_s={:.3} disk_bytes_per_edge={:.2} jaccard_mae={:.6} \
         ({} pairs); edges={}",
        args.workload.name(),
        args.seed,
        tcp.setups_s,
        tcp.latencies.len(),
        tcp.round_rates,
        tcp.failed,
        tcp.attempted,
        tcp.peak_rss_mb,
        tcp.shutdown_s,
        tcp.disk_bytes_per_edge,
        tcp.verdict.jaccard_mae,
        check::PAIRS,
        tcp.verdict.edges,
    );
    if let Some(m) = &tcp.verdict.mismatch {
        println!("correctness gate FAILED: {m}");
    }
    let metrics = if args.trace {
        let mut late = tcp.late_us.clone();
        sort_samples(&mut late);
        let mut rows = replay::replay(
            args.workload,
            args.seed,
            args.seconds,
            &prepared,
            &args.work_dir.join("trace").join("replay"),
        )?;
        rows.push(Metric::new("connection.ping_rtt_us", tcp.ping_rtt_us, "us"));
        for &(name, value) in &tcp.counters {
            rows.push(Metric::new(name, value, "count"));
        }
        rows.push(Metric::new(
            "driver.late_p99_us",
            nearest_rank(&late, 0.99).unwrap_or(f64::NAN),
            "us",
        ));
        rows.push(Metric::new("driver.traced_p50_ms", p50, "ms"));
        rows.push(Metric::new("driver.traced_p99_ms", p99, "ms"));
        for m in &rows {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        rows
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", tcp.peak_rss_mb, "MB"),
            Metric::new("disk_bytes_per_edge", tcp.disk_bytes_per_edge, "B/edge"),
            Metric::new("jaccard_mae", tcp.verdict.jaccard_mae, "abs"),
        ]
    };
    render_result(
        tcp.verdict.mismatch.is_none(),
        tcp.attempted,
        tcp.failed,
        &metrics,
    )
}

/// Records what produced this result: code version, host, server flags,
/// seed, and the size of the prepared state.
fn print_stamp(args: &Args, prepared: &Prepared, tcp: &TcpRun) {
    let git = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let start = if args.workload.durable() {
        StartState::DataDir("DIR".into())
    } else {
        StartState::Snapshot("FILE".into())
    };
    println!(
        "stamp git_describe={git} serve_version={} nproc={nproc} workload={} seed={} \
         seconds={} trace={} serve_flags=\"{}\" prepared_vertices={} prepared_edges={} \
         prepared_bytes={}",
        tcp.serve_version,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        start.args().join(" "),
        prepared.vertices,
        prepared.edges.len(),
        prepared.bytes,
    );
}

fn count_failed(done: &[u64]) -> u64 {
    done.iter().filter(|&&d| d == load::FAILED).count() as u64
}

fn tcp_run(args: &Args, prepared: &Prepared) -> Result<TcpRun, String> {
    let io = |e: std::io::Error| e.to_string();
    let run_dir = args.work_dir.join("run");
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(io)?;
    // A snapshot start holds the newest generation only, without the
    // journal tail.
    let (start, mut edges) = if args.workload.durable() {
        let dir = run_dir.join("data");
        copy_durably(&prepared.dir, &dir).map_err(io)?;
        (StartState::DataDir(dir), prepared.edges.clone())
    } else {
        let file = run_dir.join("start.snapshot");
        copy_durably(&prepared.newest_generation, &file).map_err(io)?;
        let covered = prepared.edges[..PREPARED_EDGES - TAIL_EDGES].to_vec();
        (StartState::Snapshot(file), covered)
    };
    let log = run_dir.join("serve.log");

    let mut setups_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let mut probe = Serve::start(&args.serve_bin, &start, &[], &log)?;
        setups_s.push(probe.setup.as_secs_f64());
        // Killed, not terminated, so the start state stays as it was.
        probe.kill();
    }
    let serve = Serve::start(&args.serve_bin, &start, &[], &log)?;
    setups_s.push(serve.setup.as_secs_f64());
    let addr = serve.addr;

    let ping_rtt_us = if args.trace {
        median(&mut load::ping_rtts_us(addr, PINGS)?).unwrap_or(f64::NAN)
    } else {
        0.0
    };
    let rate = OPEN_RATE / CONNS as u64;
    let grace = Duration::from_secs(10);
    let warmup = args
        .workload
        .scripts(args.seed, Phase::Warmup, args.seconds);
    let warm = load::open_loop(addr, &warmup, rate, grace, false)?;
    let warm_failed: u64 = warm.iter().map(|s| count_failed(&s.done)).sum();
    if warm_failed > 0 {
        return Err(format!("{warm_failed} warm-up operations failed"));
    }
    let open_scripts = args.workload.scripts(args.seed, Phase::Open, args.seconds);
    let open = load::open_loop(addr, &open_scripts, rate, grace, args.trace)?;
    if args.trace {
        let dir = args.work_dir.join("trace");
        fs::create_dir_all(&dir).map_err(io)?;
        write_load_spans(&dir.join("load.tsv"), &open_scripts, &open).map_err(io)?;
    }
    let cap_scripts = args
        .workload
        .scripts(args.seed, Phase::Capacity, args.seconds);
    let (cap_done, round_rates) = capacity_rounds(addr, &cap_scripts)?;

    let mut latencies = Vec::new();
    let mut late_us = Vec::new();
    for s in &open {
        latencies.extend(
            s.due
                .iter()
                .zip(&s.done)
                .map(|(&due, &done)| latency_ms(due, (done != load::FAILED).then_some(done))),
        );
        late_us.extend(
            s.sent
                .iter()
                .zip(&s.due)
                .map(|(&sent, &due)| sent.saturating_sub(due) as f64 / 1e3),
        );
    }
    sort_samples(&mut latencies);
    let open_failed: u64 = open.iter().map(|s| count_failed(&s.done)).sum();
    let cap_failed: u64 = cap_done.iter().map(|d| count_failed(d)).sum();
    let attempted = latencies.len() + cap_done.iter().map(Vec::len).sum::<usize>();

    for (scripts, dones) in [
        (&warmup, warm.iter().map(|s| &s.done).collect::<Vec<_>>()),
        (&open_scripts, open.iter().map(|s| &s.done).collect()),
        (&cap_scripts, cap_done.iter().collect()),
    ] {
        for (script, done) in scripts.iter().zip(dones) {
            edges.extend(script.acked_inserts(done));
        }
    }
    let verdict = check::verify(addr, &edges, pair_seed(args.seed))?;
    let stats = load::exchange(addr, &["STATS".to_string()])?;
    let serve_version = load::field(&stats[0], "version")
        .unwrap_or("unknown")
        .to_string();
    let counters = if args.trace {
        let lines = load::request_lines(addr, "METRICS")?;
        let value = |key: &str| -> Result<f64, String> {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("METRICS has no {key}"))
        };
        vec![
            ("server.checkpoints", value("checkpoint.count")?),
            ("server.journal_appends", value("journal.appends")?),
            ("server.journal_fsyncs", value("journal.fsyncs")?),
            ("server.sheds", value("server.connections_shed")?),
        ]
    } else {
        Vec::new()
    };

    let shutdown = serve.terminate(Duration::from_secs(120))?;
    let disk = match &start {
        StartState::DataDir(dir) => dir_bytes(dir).map_err(io)?,
        StartState::Snapshot(file) => fs::metadata(file).map_err(io)?.len(),
    };
    let _ = fs::remove_dir_all(&run_dir);
    Ok(TcpRun {
        setups_s,
        latencies,
        round_rates,
        attempted: attempted as u64,
        failed: open_failed + cap_failed,
        peak_rss_mb: shutdown.peak_rss_kib as f64 / 1024.0,
        shutdown_s: shutdown.elapsed.as_secs_f64(),
        disk_bytes_per_edge: disk as f64 / verdict.edges.max(1) as f64,
        verdict,
        serve_version,
        late_us,
        ping_rtt_us,
        counters,
    })
}

/// Runs the capacity phase as [`CAPACITY_ROUNDS`] consecutive closed-loop
/// rounds over slices of the scripts. Returns each script's reply record
/// and each round's completions per second. Host stalls only ever slow a
/// round down, so the fastest round is the estimate of capacity.
fn capacity_rounds(
    addr: SocketAddr,
    scripts: &[load::Script],
) -> Result<(Vec<Vec<u64>>, Vec<f64>), String> {
    let mut done: Vec<Vec<u64>> = vec![Vec::new(); scripts.len()];
    let mut rates = Vec::with_capacity(CAPACITY_ROUNDS);
    for r in 0..CAPACITY_ROUNDS {
        let round: Vec<load::Script> = scripts
            .iter()
            .map(|s| {
                let n = s.len();
                let slice = &s.ops[n * r / CAPACITY_ROUNDS..n * (r + 1) / CAPACITY_ROUNDS];
                load::Script::new(slice.to_vec())
            })
            .collect();
        let (streams, elapsed) = load::closed_loop(addr, &round, DEPTH, Duration::from_secs(60))?;
        let ops: usize = round.iter().map(load::Script::len).sum();
        rates.push(ops as f64 / elapsed.as_secs_f64().max(1e-9));
        for (d, s) in done.iter_mut().zip(streams) {
            d.extend(s.done);
        }
    }
    Ok((done, rates))
}

/// Writes the traced run's per-op load spans: due, sent and replied
/// times in ns from the phase start (`-` for a failed op).
fn write_load_spans(
    path: &Path,
    scripts: &[load::Script],
    open: &[load::OpenStream],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "conn\top\tkind\tdue_ns\tsent_ns\treplied_ns")?;
    for (c, (script, s)) in scripts.iter().zip(open).enumerate() {
        for (i, op) in script.ops.iter().enumerate() {
            let replied = match s.done[i] {
                load::FAILED => "-".to_string(),
                t => t.to_string(),
            };
            writeln!(
                out,
                "{c}\t{i}\t{}\t{}\t{}\t{replied}",
                op.kind.name(),
                s.due[i],
                s.sent[i]
            )?;
        }
    }
    out.flush()
}
