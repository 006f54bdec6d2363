//! The load generator: one thread and one TCP connection per stream, at
//! most two of each.
//!
//! * [`open_loop`] sends every operation at its due time whether or not
//!   earlier replies have arrived, and stamps replies against the due
//!   time (coordinated-omission safe).
//! * [`closed_loop`] keeps a fixed number of requests in flight per
//!   connection and reports completions per second.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use streamlink_core::loadgen::{intended_start_ns, Op, OpKind};

use crate::sys;

/// `done` value of an operation that failed, was refused, or was lost
/// to a dead connection.
pub const FAILED: u64 = u64::MAX;

/// A stream's operations with their command lines pre-rendered, so the
/// timed loop only copies bytes.
pub struct Script {
    pub ops: Vec<Op>,
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Script {
    #[must_use]
    pub fn new(ops: Vec<Op>) -> Self {
        let mut bytes = Vec::with_capacity(ops.len() * 24);
        let mut ends = Vec::with_capacity(ops.len());
        for op in &ops {
            bytes.extend_from_slice(op.command_line().as_bytes());
            bytes.push(b'\n');
            ends.push(bytes.len());
        }
        Script { ops, bytes, ends }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The command bytes of operations `from..to`.
    fn lines(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }

    /// The inserts whose replies acknowledged them.
    pub fn acked_inserts<'a>(&'a self, done: &'a [u64]) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.ops
            .iter()
            .zip(done)
            .filter(|(op, &d)| op.kind == OpKind::Insert && d != FAILED)
            .map(|(op, _)| (op.u, op.v))
    }
}

/// Whether `reply` is the success answer to an operation of `kind`.
#[must_use]
pub fn reply_ok(kind: OpKind, reply: &[u8]) -> bool {
    match kind {
        OpKind::Insert => reply == b"OK inserted",
        OpKind::Jaccard | OpKind::Degree => reply.starts_with(b"OK "),
        OpKind::Explain => reply.starts_with(b"OK measure=") || reply == b"OK unseen",
    }
}

/// Splits complete lines off the front of `buf[..*filled]`, calling
/// `each` per line (without the newline), and keeps the partial tail.
fn take_lines(buf: &mut [u8], filled: &mut usize, mut each: impl FnMut(&[u8])) {
    let mut start = 0;
    while let Some(pos) = buf[start..*filled].iter().position(|&b| b == b'\n') {
        let mut line = &buf[start..start + pos];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        each(line);
        start += pos + 1;
    }
    buf.copy_within(start..*filled, 0);
    *filled -= start;
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One open-loop stream's record, in nanoseconds from the phase start.
pub struct OpenStream {
    pub due: Vec<u64>,
    /// When each command was handed to the socket (traced runs only).
    pub sent: Vec<u64>,
    /// When its reply was read, or [`FAILED`].
    pub done: Vec<u64>,
}

/// Runs each script open-loop on its own connection at `rate_per_conn`
/// operations per second; stream `c` is offset by `c/streams` of a gap so
/// the pooled arrivals are evenly spaced. Replies still missing `grace`
/// after the last due time count as failed.
pub fn open_loop(
    addr: SocketAddr,
    scripts: &[Script],
    rate_per_conn: u64,
    grace: Duration,
    trace: bool,
) -> Result<Vec<OpenStream>, String> {
    let streams = scripts.len() as u64;
    let gap = 1_000_000_000 / rate_per_conn.max(1);
    let connections = scripts
        .iter()
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let workers: Vec<_> = scripts
            .iter()
            .zip(connections)
            .zip(0u64..)
            .map(|((script, conn), c)| {
                let due: Vec<u64> = (0..script.len() as u64)
                    .map(|i| c * gap / streams + intended_start_ns(i, rate_per_conn))
                    .collect();
                s.spawn(move || drive_open(conn, script, due, t0, grace, trace))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "load thread panicked".to_string())?)
            .collect()
    })
}

fn drive_open(
    mut conn: TcpStream,
    script: &Script,
    due: Vec<u64>,
    t0: Instant,
    grace: Duration,
    trace: bool,
) -> Result<OpenStream, String> {
    let n = script.len();
    let give_up =
        due.last().copied().unwrap_or(0) + u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);
    let mut sent = if trace { vec![0; n] } else { Vec::new() };
    let mut done = vec![FAILED; n];
    sys::tighten_timer_slack().map_err(|e| format!("timer slack: {e}"))?;
    conn.set_nonblocking(true).map_err(|e| e.to_string())?;
    let fd = conn.as_raw_fd();
    let (mut next_send, mut next_done) = (0usize, 0usize);
    let mut outbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut inbox = vec![0u8; 1 << 16];
    let mut filled = 0usize;
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    'run: while next_done < n {
        let now = since(t0);
        let mut end = next_send;
        while end < n && due[end] <= now {
            end += 1;
        }
        if end > next_send {
            outbox.extend_from_slice(script.lines(next_send, end));
            if trace {
                sent[next_send..end].fill(now);
            }
            next_send = end;
        }
        while !outbox.is_empty() {
            match conn.write(&outbox) {
                Ok(k) => {
                    outbox.drain(..k);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break 'run,
            }
        }
        if now > give_up {
            break;
        }
        let wake = if next_send < n {
            due[next_send]
        } else {
            give_up
        };
        let wait = wake.saturating_sub(since(t0));
        if wait > 0 && outbox.is_empty() {
            sys::wait_readable(fd, Duration::from_nanos(wait)).map_err(|e| e.to_string())?;
        }
        loop {
            match conn.read(&mut inbox[filled..]) {
                Ok(0) => break 'run,
                Ok(k) => {
                    filled += k;
                    let t = since(t0);
                    take_lines(&mut inbox, &mut filled, |line| {
                        if next_done < n {
                            if reply_ok(script.ops[next_done].kind, line) {
                                done[next_done] = t;
                            }
                            next_done += 1;
                        }
                    });
                    if filled == inbox.len() {
                        return Err("reply line longer than 64 KiB".into());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break 'run,
            }
        }
    }
    Ok(OpenStream { due, sent, done })
}

/// One closed-loop stream's record.
pub struct ClosedStream {
    /// Per operation: reply time in ns from the phase start, or
    /// [`FAILED`].
    pub done: Vec<u64>,
}

/// Runs each script closed-loop on its own connection with `depth`
/// requests in flight. Returns the per-stream records and the time from
/// the phase start to the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    scripts: &[Script],
    depth: usize,
    limit: Duration,
) -> Result<(Vec<ClosedStream>, Duration), String> {
    let connections = scripts
        .iter()
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now();
    let streams: Vec<ClosedStream> = std::thread::scope(|s| {
        let workers: Vec<_> = scripts
            .iter()
            .zip(connections)
            .map(|(script, conn)| s.spawn(move || drive_closed(conn, script, depth, t0, limit)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "load thread panicked".to_string())?)
            .collect::<Result<_, String>>()
    })?;
    let last = streams
        .iter()
        .flat_map(|s| s.done.iter().copied().filter(|&d| d != FAILED))
        .max()
        .unwrap_or(0);
    Ok((streams, Duration::from_nanos(last)))
}

fn drive_closed(
    mut conn: TcpStream,
    script: &Script,
    depth: usize,
    t0: Instant,
    limit: Duration,
) -> Result<ClosedStream, String> {
    let n = script.len();
    let mut done = vec![FAILED; n];
    conn.set_read_timeout(Some(limit))
        .map_err(|e| e.to_string())?;
    let mut next_send = depth.min(n);
    let mut next_done = 0usize;
    let mut inbox = vec![0u8; 1 << 16];
    let mut filled = 0usize;
    if n == 0 || conn.write_all(script.lines(0, next_send)).is_err() {
        return Ok(ClosedStream { done });
    }
    while next_done < n {
        match conn.read(&mut inbox[filled..]) {
            Ok(0) => break,
            Ok(k) => {
                filled += k;
                let t = since(t0);
                take_lines(&mut inbox, &mut filled, |line| {
                    if next_done < n {
                        if reply_ok(script.ops[next_done].kind, line) {
                            done[next_done] = t;
                        }
                        next_done += 1;
                    }
                });
                if filled == inbox.len() {
                    return Err("reply line longer than 64 KiB".into());
                }
                let refill = (next_done + depth).min(n);
                if refill > next_send {
                    if conn.write_all(script.lines(next_send, refill)).is_err() {
                        break;
                    }
                    next_send = refill;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    Ok(ClosedStream { done })
}

/// Sends `lines` pipelined (in windows of 256) on one connection and
/// returns the one-line replies in order.
pub fn exchange(addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
    let conn = connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let mut replies = Vec::with_capacity(lines.len());
    for window in lines.chunks(256) {
        let mut out = String::new();
        for l in window {
            out.push_str(l);
            out.push('\n');
        }
        writer
            .write_all(out.as_bytes())
            .map_err(|e| e.to_string())?;
        for _ in window {
            let mut reply = String::new();
            if reader.read_line(&mut reply).map_err(|e| e.to_string())? == 0 {
                return Err("server closed the connection".into());
            }
            replies.push(reply.trim_end().to_string());
        }
    }
    Ok(replies)
}

/// Sends one command whose answer spans several lines and ends with a
/// line starting `OK ` or `ERR`; returns every line.
pub fn request_lines(addr: SocketAddr, command: &str) -> Result<Vec<String>, String> {
    let mut conn = connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    conn.write_all(format!("{command}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for line in BufReader::new(conn).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let last = line.starts_with("OK") || line.starts_with("ERR");
        lines.push(line);
        if last {
            return Ok(lines);
        }
    }
    Err(format!("{command}: connection closed mid-answer"))
}

/// Round-trip times of `n` sequential `PING`s on one idle connection,
/// in microseconds.
pub fn ping_rtts_us(addr: SocketAddr, n: usize) -> Result<Vec<f64>, String> {
    let conn = connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let mut rtts = Vec::with_capacity(n);
    let mut reply = String::new();
    for _ in 0..n {
        let start = Instant::now();
        writer.write_all(b"PING\n").map_err(|e| e.to_string())?;
        reply.clear();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
        if reply.trim_end() != "OK pong" {
            return Err(format!("PING answered {reply:?}"));
        }
    }
    Ok(rtts)
}

/// Parses `key=value` tokens of a one-line answer (e.g. `STATS`).
#[must_use]
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_split_and_tails_kept() {
        let mut buf = vec![0u8; 32];
        let input = b"OK a\r\nOK b\nOK";
        buf[..input.len()].copy_from_slice(input);
        let mut filled = input.len();
        let mut seen = Vec::new();
        take_lines(&mut buf, &mut filled, |l| seen.push(l.to_vec()));
        assert_eq!(seen, vec![b"OK a".to_vec(), b"OK b".to_vec()]);
        assert_eq!(&buf[..filled], b"OK");
    }

    #[test]
    fn replies_are_classified_per_kind() {
        assert!(reply_ok(OpKind::Insert, b"OK inserted"));
        assert!(!reply_ok(OpKind::Insert, b"ERR busy retry"));
        assert!(reply_ok(OpKind::Jaccard, b"OK 0.250000"));
        assert!(reply_ok(OpKind::Explain, b"OK unseen"));
        assert!(!reply_ok(OpKind::Degree, b"ERR bad-arg"));
        assert_eq!(field("OK vertices=3 edges=7", "edges"), Some("7"));
        assert_eq!(field("OK vertices=3 edges=7", "edge"), None);
    }
}
