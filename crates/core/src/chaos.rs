//! Fault-injection helpers for durability testing.
//!
//! Production code must survive torn writes, partial files, and injected
//! IO errors; this module provides the tools the tests use to produce
//! those conditions deterministically:
//!
//! * [`FaultPlan`] — a scripted schedule of storage faults (ENOSPC,
//!   short writes, failed fsyncs) the journal and checkpoint paths
//!   consult when one is installed, so tests can make the *live* write
//!   path fail at exact operation counts;
//! * [`DeliveryPlan`] — a scripted schedule of *network delivery* faults
//!   (drop/duplicate/delay-reorder by message index) that perturbs a
//!   message sequence deterministically, so replication chaos schedules
//!   (E23) are reproducible the same way `FaultPlan` storage schedules
//!   are;
//! * [`ChaosWriter`] — a writer that fails with an injected error after a
//!   byte budget, leaving a genuine partial write behind;
//! * [`tear_file`] — chops bytes off a file's end, reproducing a write
//!   cut by a crash;
//! * [`append_garbage`] — appends non-protocol bytes, reproducing a
//!   corrupted tail;
//! * [`flip_bit`] — flips one bit at an exact offset, reproducing silent
//!   media bit rot the CRC framing must catch.
//!
//! It ships in the library (not behind `cfg(test)`) so integration tests
//! and the bench harness can drive the same faults against real files;
//! nothing in the serving path *triggers* faults — production code only
//! ever checks an installed plan, and no plan is installed outside tests.

use std::fs::{self, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// One kind of injected storage failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails before any byte lands (`ENOSPC`-shaped).
    Enospc,
    /// The first `n` bytes of the record land on disk, then the write
    /// fails — a torn record a crashed `write(2)` leaves behind.
    ShortWrite(usize),
}

/// What the journal should do with the append it is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendDecision {
    /// No fault scheduled: write the whole record.
    Proceed,
    /// Fail without writing anything.
    Fail,
    /// Write exactly this many bytes of the record, then fail.
    ShortWrite(usize),
}

#[derive(Debug, Default)]
struct PlanState {
    appends_seen: u64,
    fsyncs_seen: u64,
    snapshots_seen: u64,
    /// `(fire_at_op_index, kind)`, one-shot, consumed when fired.
    append_faults: Vec<(u64, FaultKind)>,
    fsync_faults: Vec<u64>,
    snapshot_faults: Vec<u64>,
}

/// A scripted schedule of storage faults.
///
/// Install one via [`crate::journal::Journal::create_with_faults`] (the
/// serving layer threads it through `persistence::open`); every journal
/// append/fsync and every checkpoint snapshot write then consults the
/// plan. Faults are **one-shot**: after firing they are consumed, so a
/// server under test degrades on the scheduled operation and then heals
/// — exactly the "keep serving reads, ack-fail the write" contract the
/// fault-matrix tests pin.
///
/// All methods are `&self` (internally locked), so one plan can be
/// shared across the server threads of a test.
#[derive(Debug, Default)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// An empty plan: every operation proceeds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Schedules the journal append with 0-based index `op` to fail.
    pub fn fail_append(&self, op: u64, kind: FaultKind) {
        self.lock().append_faults.push((op, kind));
    }

    /// Schedules the explicit fsync with 0-based index `op` to fail.
    pub fn fail_fsync(&self, op: u64) {
        self.lock().fsync_faults.push(op);
    }

    /// Schedules the checkpoint snapshot write with 0-based index `op`
    /// to fail before writing.
    pub fn fail_snapshot(&self, op: u64) {
        self.lock().snapshot_faults.push(op);
    }

    /// Consulted by the journal before each append; counts the
    /// operation and returns the scheduled decision.
    pub fn next_append(&self) -> AppendDecision {
        let mut s = self.lock();
        let op = s.appends_seen;
        s.appends_seen += 1;
        match take_fault(&mut s.append_faults, op) {
            None => AppendDecision::Proceed,
            Some(FaultKind::Enospc) => AppendDecision::Fail,
            Some(FaultKind::ShortWrite(n)) => AppendDecision::ShortWrite(n),
        }
    }

    /// Consulted before each explicit journal fsync.
    ///
    /// # Errors
    /// Returns the injected error when this fsync is scheduled to fail.
    pub fn next_fsync(&self) -> io::Result<()> {
        let mut s = self.lock();
        let op = s.fsyncs_seen;
        s.fsyncs_seen += 1;
        if take_at(&mut s.fsync_faults, op) {
            return Err(injected("fsync failed"));
        }
        Ok(())
    }

    /// Consulted before each checkpoint snapshot write.
    ///
    /// # Errors
    /// Returns the injected error when this snapshot write is scheduled
    /// to fail.
    pub fn next_snapshot(&self) -> io::Result<()> {
        let mut s = self.lock();
        let op = s.snapshots_seen;
        s.snapshots_seen += 1;
        if take_at(&mut s.snapshot_faults, op) {
            return Err(injected("snapshot write failed (no space)"));
        }
        Ok(())
    }

    /// The injected-error constructor, public so tests can compare
    /// messages.
    #[must_use]
    pub fn error(detail: &str) -> io::Error {
        injected(detail)
    }
}

fn take_fault(faults: &mut Vec<(u64, FaultKind)>, op: u64) -> Option<FaultKind> {
    let idx = faults.iter().position(|&(at, _)| at == op)?;
    Some(faults.swap_remove(idx).1)
}

fn take_at(faults: &mut Vec<u64>, op: u64) -> bool {
    match faults.iter().position(|&at| at == op) {
        Some(idx) => {
            faults.swap_remove(idx);
            true
        }
        None => false,
    }
}

fn injected(detail: &str) -> io::Error {
    io::Error::other(format!("injected fault: {detail}"))
}

/// One kind of injected delivery fault, keyed by 0-based message index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFault {
    /// The message is lost in transit.
    Drop,
    /// The message arrives twice, back to back (the common
    /// retransmission duplicate).
    Duplicate,
    /// The message is held back and delivered strictly after the
    /// message `delay` positions later in the original sequence — a
    /// scripted reorder.
    Delay(usize),
}

/// A scripted, deterministic schedule of delivery faults.
///
/// Where [`FaultPlan`] perturbs the *storage* path of a live journal,
/// `DeliveryPlan` perturbs a *message sequence* — the WAL entries a
/// primary ships to a replica. [`DeliveryPlan::apply`] is a pure
/// transformation of the input sequence: the same plan applied to the
/// same messages always yields the same delivery order, so an E23 chaos
/// schedule is exactly reproducible from its seed.
///
/// At most one fault is honored per message index (the first one
/// scheduled wins); indices past the end of the sequence are ignored.
#[derive(Debug, Default, Clone)]
pub struct DeliveryPlan {
    /// `(message_index, fault)`, first scheduled per index wins.
    faults: Vec<(u64, DeliveryFault)>,
}

impl DeliveryPlan {
    /// An empty plan: every message is delivered once, in order.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the message with 0-based index `at` to be dropped.
    pub fn drop_at(&mut self, at: u64) {
        self.faults.push((at, DeliveryFault::Drop));
    }

    /// Schedules the message with 0-based index `at` to be delivered
    /// twice, back to back.
    pub fn duplicate_at(&mut self, at: u64) {
        self.faults.push((at, DeliveryFault::Duplicate));
    }

    /// Schedules the message with 0-based index `at` to be delayed past
    /// the message `by` positions later (a reorder). `by == 0` keeps the
    /// message in place.
    pub fn delay_at(&mut self, at: u64, by: usize) {
        self.faults.push((at, DeliveryFault::Delay(by)));
    }

    /// The fault scheduled for message index `at`, if any (first
    /// scheduled wins).
    #[must_use]
    pub fn fault_at(&self, at: u64) -> Option<DeliveryFault> {
        self.faults
            .iter()
            .find(|&&(idx, _)| idx == at)
            .map(|&(_, f)| f)
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies the plan to a message sequence, returning the sequence a
    /// receiver would observe.
    ///
    /// Dropped messages are omitted; duplicated messages appear twice,
    /// adjacent; a message delayed by `by` is delivered strictly after
    /// the (undelayed) message at index `at + by`. The transformation is
    /// pure and deterministic.
    pub fn apply<T: Clone>(&self, messages: impl IntoIterator<Item = T>) -> Vec<T> {
        // Emission key: normal/duplicate copies sort at 2*index, a copy
        // delayed to target index t sorts at 2*t + 1 — strictly after
        // the undelayed message at t. The sort is stable, so equal keys
        // keep arrival order and the whole transform is deterministic.
        let mut keyed: Vec<(u64, T)> = Vec::new();
        for (i, msg) in messages.into_iter().enumerate() {
            let idx = i as u64;
            match self.fault_at(idx) {
                None => keyed.push((idx * 2, msg)),
                Some(DeliveryFault::Drop) => {}
                Some(DeliveryFault::Duplicate) => {
                    keyed.push((idx * 2, msg.clone()));
                    keyed.push((idx * 2, msg));
                }
                Some(DeliveryFault::Delay(by)) => {
                    keyed.push(((idx + by as u64) * 2 + 1, msg));
                }
            }
        }
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, msg)| msg).collect()
    }
}

/// A writer that emits an injected error once `budget` bytes have been
/// written, forwarding everything before that to the inner writer.
///
/// The partial prefix *is* written — exactly what a crash mid-write
/// leaves on disk.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    budget: usize,
    written: usize,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner`, allowing `budget` bytes through before failing.
    #[must_use]
    pub fn new(inner: W, budget: usize) -> Self {
        ChaosWriter {
            inner,
            budget,
            written: 0,
        }
    }

    /// Total bytes actually forwarded to the inner writer.
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let remaining = self.budget.saturating_sub(self.written);
        if remaining == 0 {
            return Err(io::Error::other("injected fault: write budget exhausted"));
        }
        let n = self.inner.write(&buf[..buf.len().min(remaining)])?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Truncates the last `bytes` bytes off the file at `path`, simulating a
/// write torn by a crash. The cut is clamped to the file's length, so
/// tearing more than the file holds (including tearing a zero-length
/// file by any amount) empties it instead of underflowing.
///
/// # Errors
/// Fails if the file cannot be opened or resized.
pub fn tear_file(path: &Path, bytes: u64) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(bytes))?;
    f.sync_all()
}

/// Flips bit `bit` (0 = least significant) of the byte at `offset` in
/// the file at `path`, simulating silent single-bit media rot at an
/// exact position.
///
/// # Errors
/// Fails if the file cannot be opened, `offset` is past the end, or the
/// write fails.
pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let len = f.metadata()?.len();
    if offset >= len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("flip_bit offset {offset} past end of {len}-byte file"),
        ));
    }
    f.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(&byte)?;
    f.sync_all()
}

/// Appends `garbage` to the file at `path`, simulating a corrupted tail.
///
/// # Errors
/// Fails if the file cannot be opened or written.
pub fn append_garbage(path: &Path, garbage: &[u8]) -> io::Result<()> {
    let mut f = OpenOptions::new().append(true).open(path)?;
    f.write_all(garbage)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{self, FsyncPolicy, Journal, JournalEntry};
    use crate::test_support::temp_dir;
    use graphstream::VertexId;

    #[test]
    fn chaos_writer_fails_after_budget_with_partial_prefix() {
        let mut w = ChaosWriter::new(Vec::new(), 10);
        assert_eq!(w.write(b"hello ").unwrap(), 6);
        assert_eq!(w.write(b"world!!").unwrap(), 4); // clipped at budget
        let err = w.write(b"more").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(w.written(), 10);
        assert_eq!(w.into_inner(), b"hello worl");
    }

    #[test]
    fn chaos_writer_with_zero_budget_fails_immediately() {
        let mut w = ChaosWriter::new(Vec::new(), 0);
        assert!(w.write(b"x").is_err());
        assert!(w.into_inner().is_empty());
    }

    #[test]
    fn torn_journal_write_loses_only_the_unacked_tail() {
        // Drive a real journal through tear_file and confirm replay drops
        // exactly the torn entry.
        let dir = temp_dir("tear");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=4 {
            j.append(JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(seq + 10),
            })
            .unwrap();
        }
        drop(j);
        let (_, path) = journal::list_segments(&dir).unwrap()[0].clone();
        tear_file(&path, 3).unwrap(); // cut into entry 4's line

        let mut seen = Vec::new();
        let report = journal::replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(report.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_tail_is_ignored_by_replay() {
        let dir = temp_dir("garbage");
        let mut j = Journal::create(&dir, 1, FsyncPolicy::Never).unwrap();
        for seq in 1..=3 {
            j.append(JournalEntry {
                seq,
                u: VertexId(seq),
                v: VertexId(seq + 10),
            })
            .unwrap();
        }
        drop(j);
        let (_, path) = journal::list_segments(&dir).unwrap()[0].clone();
        append_garbage(&path, b"\x00\xffnot a journal line\x7f").unwrap();

        let mut seen = Vec::new();
        let report = journal::replay(&dir, 0, |e| seen.push(e.seq)).unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(report.torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_beyond_length_empties_file() {
        let dir = temp_dir("empty");
        let path = dir.join("f");
        fs::write(&path, b"abc").unwrap();
        tear_file(&path, 100).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tear_zero_length_file_is_a_clamped_no_op() {
        // Files shorter than the cut — including empty ones — must clamp
        // to zero, never underflow or error.
        let dir = temp_dir("zerolen");
        let path = dir.join("empty");
        fs::write(&path, b"").unwrap();
        tear_file(&path, 7).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        tear_file(&path, 0).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flip_bit_flips_exactly_one_bit_and_is_self_inverse() {
        let dir = temp_dir("flip");
        let path = dir.join("f");
        fs::write(&path, b"hello").unwrap();
        flip_bit(&path, 1, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hdllo");
        flip_bit(&path, 1, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        // Past-the-end offsets are a usage error, not silent no-ops.
        assert!(flip_bit(&path, 5, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_schedules_one_shot_append_faults() {
        let plan = FaultPlan::new();
        plan.fail_append(1, FaultKind::Enospc);
        plan.fail_append(3, FaultKind::ShortWrite(4));
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
        assert_eq!(plan.next_append(), AppendDecision::Fail);
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
        assert_eq!(plan.next_append(), AppendDecision::ShortWrite(4));
        // Consumed: the same indices never fire twice.
        assert_eq!(plan.next_append(), AppendDecision::Proceed);
    }

    #[test]
    fn delivery_plan_empty_is_identity() {
        let plan = DeliveryPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.apply(0..6), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn delivery_plan_drop_removes_exactly_that_index() {
        let mut plan = DeliveryPlan::new();
        plan.drop_at(2);
        assert_eq!(plan.apply(0..5), vec![0, 1, 3, 4]);
    }

    #[test]
    fn delivery_plan_duplicate_delivers_adjacent_copies() {
        let mut plan = DeliveryPlan::new();
        plan.duplicate_at(1);
        assert_eq!(plan.apply(0..4), vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn delivery_plan_delay_reorders_past_later_messages() {
        let mut plan = DeliveryPlan::new();
        plan.delay_at(0, 2);
        // Message 0 lands strictly after message 2.
        assert_eq!(plan.apply(0..5), vec![1, 2, 0, 3, 4]);
        // Delay past the end of the stream lands at the end.
        let mut tail = DeliveryPlan::new();
        tail.delay_at(1, 100);
        assert_eq!(tail.apply(0..4), vec![0, 2, 3, 1]);
        // A zero delay keeps the message in place (after index ties,
        // arrival order is preserved).
        let mut zero = DeliveryPlan::new();
        zero.delay_at(2, 0);
        assert_eq!(zero.apply(0..4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn delivery_plan_combined_faults_are_deterministic() {
        let mut plan = DeliveryPlan::new();
        plan.drop_at(0);
        plan.duplicate_at(3);
        plan.delay_at(1, 3);
        assert_eq!(plan.len(), 3);
        let once = plan.apply(0..7);
        let twice = plan.apply(0..7);
        assert_eq!(once, twice, "apply must be pure");
        assert_eq!(once, vec![2, 3, 3, 4, 1, 5, 6]);
    }

    #[test]
    fn delivery_plan_first_fault_per_index_wins_and_oob_ignored() {
        let mut plan = DeliveryPlan::new();
        plan.drop_at(1);
        plan.duplicate_at(1); // shadowed by the drop scheduled first
        plan.drop_at(99); // past the end: ignored
        assert_eq!(plan.fault_at(1), Some(DeliveryFault::Drop));
        assert_eq!(plan.fault_at(2), None);
        assert_eq!(plan.apply(0..3), vec![0, 2]);
    }

    #[test]
    fn fault_plan_schedules_fsync_and_snapshot_faults() {
        let plan = FaultPlan::new();
        plan.fail_fsync(0);
        plan.fail_snapshot(1);
        let err = plan.next_fsync().unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(plan.next_fsync().is_ok());
        assert!(plan.next_snapshot().is_ok());
        assert!(plan.next_snapshot().is_err());
        assert!(plan.next_snapshot().is_ok());
    }
}
