//! Durable, crash-safe persistence for execution feedback.
//!
//! The paper's feedback loop is only useful if the measurements survive
//! the thing databases do most reliably: crash. A [`FeedbackStore`]
//! persists every harvested [`FeedbackReport`] — together with the
//! epoch stamps that make staleness checking possible after restart —
//! through an append-only, CRC-framed write-ahead log:
//!
//! ```text
//! feedback.wal   frame*            appended on every absorb, fsync'd
//! feedback.snap  magic ++ frame*   rewritten atomically on compaction
//!
//! frame := [len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Every payload begins with a monotone sequence number, so recovery
//! can merge snapshot and WAL without double-absorbing a report even if
//! a crash lands *between* the snapshot rename and the WAL truncation.
//! Recovery is byte-for-byte deterministic: frames are replayed until
//! the first torn one (short header, implausible length, short payload,
//! CRC mismatch, or an undecodable payload), and the WAL is truncated
//! back to the last fully-framed record. A torn tail therefore never
//! poisons later appends, and reopening the same bytes always yields
//! the same records.
//!
//! Torn writes themselves can be injected through the storage layer's
//! [`FaultPlan`] (the WAL is addressed as a pseudo-table), which is how
//! the crash-recovery tests exercise mid-append power loss without
//! actual power loss.

use pf_common::{Error, PageId, Result, TableId};
use pf_feedback::{DpcMeasurement, FeedbackReport, Mechanism};
use pf_optimizer::{EpochStamp, HintSet, StalenessDecision, StalenessPolicy, TableEpochState};
use pf_storage::{crc32, ErrorFault, FaultPlan};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Environment variable naming the directory a feedback store should
/// live in (read by the repro binary).
pub const FEEDBACK_DIR_ENV: &str = "PF_FEEDBACK_DIR";

/// WAL file name inside the store directory.
const WAL_FILE: &str = "feedback.wal";
/// Snapshot file name inside the store directory.
const SNAP_FILE: &str = "feedback.snap";
/// Snapshot magic + format version.
const SNAP_MAGIC: &[u8; 8] = b"PFFEED\x01\x00";
/// Upper bound on a single frame payload; lengths beyond this are torn
/// garbage, not data (guards allocation on corrupt length bytes).
const MAX_PAYLOAD: usize = 1 << 26;
/// Strings longer than this are corrupt, not data.
const MAX_STR: usize = 1 << 20;
/// The pseudo-table the WAL occupies in a [`FaultPlan`]'s address
/// space; appends are "pages" of this table, keyed by sequence number.
const WAL_FAULT_TABLE: TableId = TableId(u32::MAX);
/// The pseudo-table snapshot compactions occupy (disjoint from the WAL
/// site space); each compaction is keyed by the store's next sequence
/// number at the time.
const SNAP_FAULT_TABLE: TableId = TableId(u32::MAX - 1);

fn io_err(e: std::io::Error) -> Error {
    Error::InvalidArgument(format!("feedback store I/O: {e}"))
}

/// One persisted feedback report with its harvest-time epoch stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReport {
    /// Monotone sequence number (dedup key across snapshot + WAL).
    pub seq: u64,
    /// The harvested report.
    pub report: FeedbackReport,
    /// Modification state of each involved table at harvest time.
    pub stamps: HashMap<String, EpochStamp>,
}

/// Size and shape of a store, for the CLI's `.feedback stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Recovered + appended reports currently live.
    pub records: usize,
    /// Total measurements across live reports.
    pub measurements: usize,
    /// Bytes in the WAL file.
    pub wal_bytes: u64,
    /// Bytes in the snapshot file (0 when never compacted).
    pub snapshot_bytes: u64,
    /// Next sequence number an append would take.
    pub next_seq: u64,
}

// ---------------------------------------------------------------------
// payload codec
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one record as a frame payload (no frame header).
fn encode_record(rec: &StoredReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&rec.seq.to_le_bytes());
    // Stamps in sorted table order: the encoding of a record is a
    // function of its value, never of hash-map iteration order.
    let mut stamps: Vec<(&String, &EpochStamp)> = rec.stamps.iter().collect();
    stamps.sort_by_key(|(t, _)| t.as_str());
    out.extend_from_slice(&(stamps.len() as u32).to_le_bytes());
    for (table, stamp) in stamps {
        put_str(&mut out, table);
        out.extend_from_slice(&stamp.epoch.to_le_bytes());
        out.extend_from_slice(&stamp.dirty_pages.to_le_bytes());
    }
    out.extend_from_slice(&(rec.report.measurements.len() as u32).to_le_bytes());
    for m in &rec.report.measurements {
        put_str(&mut out, &m.table);
        put_str(&mut out, &m.expression);
        match m.estimated {
            Some(est) => {
                out.push(1);
                out.extend_from_slice(&est.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&m.actual.to_le_bytes());
        match m.mechanism {
            Mechanism::ExactScan => out.push(0),
            Mechanism::LinearCounting => out.push(1),
            Mechanism::PageSampling(frac) => {
                out.push(2);
                out.extend_from_slice(&frac.to_le_bytes());
            }
            Mechanism::BitVector(bits) => {
                out.push(3);
                out.extend_from_slice(&bits.to_le_bytes());
            }
        }
        out.push(u8::from(m.degraded));
        out.extend_from_slice(&m.skipped_pages.to_le_bytes());
        out.push(u8::from(m.budget_shed));
    }
    out
}

/// Byte cursor over a frame payload; every getter returns `None` on
/// exhaustion — an undecodable payload is a torn frame, not a panic.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

/// Decodes one frame payload; `None` means torn/corrupt.
fn decode_record(payload: &[u8]) -> Option<StoredReport> {
    let mut c = Cur {
        buf: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let stamp_count = c.u32()? as usize;
    if stamp_count > payload.len() {
        return None;
    }
    let mut stamps = HashMap::with_capacity(stamp_count);
    for _ in 0..stamp_count {
        let table = c.str()?;
        let epoch = c.u64()?;
        let dirty_pages = c.u64()?;
        stamps.insert(table, EpochStamp { epoch, dirty_pages });
    }
    let m_count = c.u32()? as usize;
    if m_count > payload.len() {
        return None;
    }
    let mut report = FeedbackReport::new();
    for _ in 0..m_count {
        let table = c.str()?;
        let expression = c.str()?;
        let estimated = match c.u8()? {
            0 => None,
            1 => Some(c.f64()?),
            _ => return None,
        };
        let actual = c.f64()?;
        let mechanism = match c.u8()? {
            0 => Mechanism::ExactScan,
            1 => Mechanism::LinearCounting,
            2 => Mechanism::PageSampling(c.f64()?),
            3 => Mechanism::BitVector(c.u64()?),
            _ => return None,
        };
        let degraded = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let skipped_pages = c.u64()?;
        let budget_shed = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        report.push(DpcMeasurement {
            table,
            expression,
            estimated,
            actual,
            mechanism,
            degraded,
            skipped_pages,
            budget_shed,
        });
    }
    if c.pos != payload.len() {
        // Trailing bytes: the length field and the payload disagree —
        // corrupt, not merely short.
        return None;
    }
    Some(StoredReport {
        seq,
        report,
        stamps,
    })
}

/// Wraps a payload in a `[len][crc][payload]` frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Scans `bytes` frame-by-frame from `start`, appending decoded records
/// to `out`; returns the offset one past the last *valid* frame. Stops
/// (without error) at the first torn frame.
fn replay_frames(bytes: &[u8], start: usize, out: &mut Vec<StoredReport>) -> usize {
    let mut pos = start;
    loop {
        let Some(header) = bytes.get(pos..pos + 8) else {
            return pos; // short header → torn tail
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        let want_crc = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
        if len > MAX_PAYLOAD {
            return pos; // implausible length → corrupt length bytes
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            return pos; // short payload → torn tail
        };
        if crc32(payload) != want_crc {
            return pos; // bit rot or torn sector inside the payload
        }
        let Some(rec) = decode_record(payload) else {
            return pos; // CRC ok but undecodable: treat as torn
        };
        out.push(rec);
        pos += 8 + len;
    }
}

// ---------------------------------------------------------------------
// the store
// ---------------------------------------------------------------------

/// Append-only durable store for harvested feedback reports.
///
/// All reads are served from memory (the store is tiny next to the
/// data it describes); the WAL and snapshot exist purely so that a
/// crash at any byte loses at most the report being appended.
#[derive(Debug)]
pub struct FeedbackStore {
    dir: PathBuf,
    wal: File,
    records: Vec<StoredReport>,
    next_seq: u64,
    fault_plan: Option<FaultPlan>,
    /// Set after an injected torn write: the in-memory state and the
    /// file have diverged exactly as in a crash, so further appends are
    /// refused until the store is reopened (recovered).
    torn: bool,
}

impl FeedbackStore {
    /// Opens (or creates) the store in `dir`, recovering all records
    /// from the snapshot and the WAL. Torn WAL tails are truncated
    /// away; duplicate sequence numbers (a crash between snapshot
    /// rename and WAL truncation) are dropped.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err)?;

        let mut records = Vec::new();
        let snap_path = dir.join(SNAP_FILE);
        if snap_path.exists() {
            let bytes = std::fs::read(&snap_path).map_err(io_err)?;
            if bytes.len() < SNAP_MAGIC.len() || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
                return Err(Error::InvalidArgument(format!(
                    "{} is not a feedback snapshot",
                    snap_path.display()
                )));
            }
            // The snapshot was published by an atomic rename, so a torn
            // tail here is bit rot; recover the valid prefix.
            replay_frames(&bytes, SNAP_MAGIC.len(), &mut records);
        }
        let max_snap_seq = records.last().map(|r| r.seq);

        let wal_path = dir.join(WAL_FILE);
        if wal_path.exists() {
            let bytes = std::fs::read(&wal_path).map_err(io_err)?;
            let mut wal_records = Vec::new();
            let valid_len = replay_frames(&bytes, 0, &mut wal_records);
            if valid_len < bytes.len() {
                // Truncate the torn tail so the next append lands on a
                // frame boundary.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(io_err)?;
                f.set_len(valid_len as u64).map_err(io_err)?;
                f.sync_data().map_err(io_err)?;
            }
            // Skip WAL frames already captured by the snapshot.
            records.extend(
                wal_records
                    .into_iter()
                    .filter(|r| max_snap_seq.is_none_or(|s| r.seq > s)),
            );
        }

        let next_seq = records.last().map_or(0, |r| r.seq + 1);
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(io_err)?;
        Ok(FeedbackStore {
            dir,
            wal,
            records,
            next_seq,
            fault_plan: None,
            torn: false,
        })
    }

    /// Installs (or clears) a fault plan used to inject torn writes
    /// into WAL appends and — when the plan has error returns enabled —
    /// ENOSPC, failed fsync, and failed rename into appends and
    /// compactions: the crash-recovery tests' power switch.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All live records, in sequence order.
    pub fn records(&self) -> &[StoredReport] {
        &self.records
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one report (with its epoch stamps) to the WAL, fsync'd
    /// before the in-memory state is updated. Returns the record's
    /// sequence number.
    ///
    /// Under an installed fault plan, an append may instead suffer a
    /// torn write: a strict prefix of the frame reaches the file, the
    /// call fails, and the store refuses further appends until it is
    /// reopened — exactly the contract of a crash mid-append.
    pub fn append(
        &mut self,
        report: &FeedbackReport,
        stamps: &HashMap<String, EpochStamp>,
    ) -> Result<u64> {
        if self.torn {
            return Err(Error::InvalidArgument(
                "feedback store suffered a torn write; reopen to recover".into(),
            ));
        }
        let seq = self.next_seq;
        let rec = StoredReport {
            seq,
            report: report.clone(),
            stamps: stamps.clone(),
        };
        let bytes = frame(&encode_record(&rec));
        if let Some(plan) = &self.fault_plan {
            let site = PageId(seq as u32);
            if plan
                .fault_for(WAL_FAULT_TABLE, site)
                .is_some_and(|k| k.corrupts())
            {
                // Simulated power loss mid-append: a strict prefix of
                // the frame hits the disk.
                let keep = (plan.entropy_for(WAL_FAULT_TABLE, site) as usize) % bytes.len();
                self.wal.write_all(&bytes[..keep]).map_err(io_err)?;
                self.wal.sync_data().map_err(io_err)?;
                self.torn = true;
                return Err(Error::StorageFull {
                    what: format!(
                        "torn write injected at seq {seq} ({keep} of {} bytes)",
                        bytes.len()
                    ),
                });
            }
            match plan.error_fault_for(WAL_FAULT_TABLE, site) {
                Some(ErrorFault::WriteNoSpace) => {
                    // ENOSPC mid-frame: the write syscall fails after a
                    // strict prefix lands. The frame is not
                    // acknowledged; recovery truncates the tail.
                    let keep = (plan.entropy_for(WAL_FAULT_TABLE, site) as usize) % bytes.len();
                    self.wal.write_all(&bytes[..keep]).map_err(io_err)?;
                    self.wal.sync_data().map_err(io_err)?;
                    self.torn = true;
                    return Err(Error::StorageFull {
                        what: format!(
                            "WAL append hit ENOSPC at seq {seq} ({keep} of {} bytes)",
                            bytes.len()
                        ),
                    });
                }
                Some(ErrorFault::FsyncFailed) => {
                    // The frame reached the file but fsync failed: it
                    // may or may not be durable, so it must not be
                    // acknowledged. Reopening resolves the ambiguity
                    // deterministically (the complete frame replays).
                    self.wal.write_all(&bytes).map_err(io_err)?;
                    self.torn = true;
                    return Err(Error::StorageFull {
                        what: format!("WAL fsync failed at seq {seq}"),
                    });
                }
                _ => {}
            }
        }
        self.wal.write_all(&bytes).map_err(io_err)?;
        self.wal.sync_data().map_err(io_err)?;
        self.next_seq += 1;
        self.records.push(rec);
        Ok(seq)
    }

    /// Rewrites the snapshot from the live records (write-temp, fsync,
    /// atomic rename) and truncates the WAL. A crash before the rename
    /// leaves the old snapshot + full WAL; a crash between rename and
    /// truncation leaves duplicates that recovery drops by sequence
    /// number — no interleaving loses a record.
    pub fn compact(&mut self) -> Result<()> {
        if self.torn {
            return Err(Error::InvalidArgument(
                "feedback store suffered a torn write; reopen to recover".into(),
            ));
        }
        let tmp_path = self.dir.join("feedback.snap.tmp");
        let snap_path = self.dir.join(SNAP_FILE);
        // Error-return injection for this compaction. Every injected
        // crash point leaves the previous snapshot and the full WAL
        // intact (recovery ignores the stray temp file), so nothing
        // acknowledged is ever lost.
        let injected = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.error_fault_for(SNAP_FAULT_TABLE, PageId(self.next_seq as u32)));
        {
            let mut tmp = File::create(&tmp_path).map_err(io_err)?;
            tmp.write_all(SNAP_MAGIC).map_err(io_err)?;
            for (i, rec) in self.records.iter().enumerate() {
                if injected == Some(ErrorFault::WriteNoSpace) && i == self.records.len() / 2 {
                    return Err(Error::StorageFull {
                        what: format!("snapshot write hit ENOSPC after {i} record(s)"),
                    });
                }
                tmp.write_all(&frame(&encode_record(rec))).map_err(io_err)?;
            }
            if injected == Some(ErrorFault::FsyncFailed) {
                return Err(Error::StorageFull {
                    what: "snapshot fsync failed".into(),
                });
            }
            tmp.sync_data().map_err(io_err)?;
        }
        if injected == Some(ErrorFault::RenameFailed) {
            return Err(Error::StorageFull {
                what: "snapshot rename failed".into(),
            });
        }
        std::fs::rename(&tmp_path, &snap_path).map_err(io_err)?;
        self.wal.set_len(0).map_err(io_err)?;
        self.wal.sync_data().map_err(io_err)?;
        Ok(())
    }

    /// Replays every live record into `hints` (stamped absorption, so
    /// `budget_shed` measurements are skipped and staleness can be
    /// applied afterwards).
    pub fn replay_into(&self, hints: &mut HintSet) {
        for rec in &self.records {
            hints.absorb_report_stamped(&rec.report, &rec.stamps);
        }
    }

    /// Drops every stored measurement the staleness policy would evict
    /// against the tables' current modification state, then compacts so
    /// the eviction is durable. Returns the number of measurements
    /// dropped. Reports left without measurements are removed whole.
    pub fn evict_stale(
        &mut self,
        policy: StalenessPolicy,
        states: &HashMap<String, TableEpochState>,
    ) -> Result<usize> {
        let mut dropped = 0usize;
        for rec in &mut self.records {
            let stamps = &rec.stamps;
            rec.report.measurements.retain(|m| {
                let (Some(stamp), Some(state)) = (stamps.get(&m.table), states.get(&m.table))
                else {
                    return true;
                };
                if policy.decide(*stamp, *state) == StalenessDecision::Evicted {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.records.retain(|r| !r.report.measurements.is_empty());
        if dropped > 0 {
            self.compact()?;
        }
        Ok(dropped)
    }

    /// Size and shape of the store right now.
    pub fn stats(&self) -> StoreStats {
        let file_len = |name: &str| {
            std::fs::metadata(self.dir.join(name))
                .map(|m| m.len())
                .unwrap_or(0)
        };
        StoreStats {
            records: self.records.len(),
            measurements: self
                .records
                .iter()
                .map(|r| r.report.measurements.len())
                .sum(),
            wal_bytes: file_len(WAL_FILE),
            snapshot_bytes: file_len(SNAP_FILE),
            next_seq: self.next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pagefeed-fbstore-{name}-{}", std::process::id()))
    }

    fn fresh(name: &str) -> PathBuf {
        let dir = tmp(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report(tag: u64) -> (FeedbackReport, HashMap<String, EpochStamp>) {
        let mut report = FeedbackReport::new();
        report.push(DpcMeasurement {
            table: "sales".into(),
            expression: format!("state='S{tag}'"),
            estimated: Some(4_000.0 + tag as f64),
            actual: 120.0 + tag as f64,
            mechanism: Mechanism::ExactScan,
            degraded: false,
            skipped_pages: 0,
            budget_shed: false,
        });
        report.push(DpcMeasurement {
            table: "orders".into(),
            expression: format!("qty<{tag}"),
            estimated: None,
            actual: 7.0,
            mechanism: Mechanism::PageSampling(0.25),
            degraded: true,
            skipped_pages: 3,
            budget_shed: tag % 2 == 1,
        });
        let mut stamps = HashMap::new();
        stamps.insert(
            "sales".to_string(),
            EpochStamp {
                epoch: tag,
                dirty_pages: tag * 2,
            },
        );
        (report, stamps)
    }

    #[test]
    fn append_reopen_round_trips() {
        let dir = fresh("roundtrip");
        let mut expected = Vec::new();
        {
            let mut store = FeedbackStore::open(&dir).expect("open fresh");
            assert!(store.is_empty());
            for tag in 0..5 {
                let (report, stamps) = sample_report(tag);
                let seq = store.append(&report, &stamps).expect("append");
                assert_eq!(seq, tag);
                expected.push(StoredReport {
                    seq,
                    report,
                    stamps,
                });
            }
        }
        let store = FeedbackStore::open(&dir).expect("reopen");
        assert_eq!(store.records(), expected.as_slice());
        assert_eq!(store.stats().next_seq, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_framed_prefix() {
        let dir = fresh("fuzz");
        let mut frame_ends = vec![0usize]; // valid prefixes end on frame boundaries
        {
            let mut store = FeedbackStore::open(&dir).expect("open fresh");
            for tag in 0..4 {
                let (report, stamps) = sample_report(tag);
                store.append(&report, &stamps).expect("append");
                frame_ends.push(
                    std::fs::metadata(dir.join(WAL_FILE))
                        .expect("wal exists")
                        .len() as usize,
                );
            }
        }
        let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
        assert_eq!(*frame_ends.last().expect("non-empty"), bytes.len());

        let cut_dir = fresh("fuzz-cut");
        for cut in 0..=bytes.len() {
            let _ = std::fs::remove_dir_all(&cut_dir);
            std::fs::create_dir_all(&cut_dir).expect("mk cut dir");
            std::fs::write(cut_dir.join(WAL_FILE), &bytes[..cut]).expect("write prefix");
            let store = FeedbackStore::open(&cut_dir).expect("recovery must not fail");
            let whole_frames = frame_ends.iter().filter(|&&e| e <= cut).count() - 1;
            assert_eq!(
                store.len(),
                whole_frames,
                "cut at byte {cut}: expected {whole_frames} records"
            );
            // The torn tail is gone from disk too: reopening is stable.
            let on_disk = std::fs::metadata(cut_dir.join(WAL_FILE))
                .expect("wal exists")
                .len() as usize;
            assert_eq!(on_disk, frame_ends[whole_frames]);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&cut_dir);
    }

    #[test]
    fn flipped_byte_truncates_from_the_damaged_frame() {
        let dir = fresh("bitrot");
        {
            let mut store = FeedbackStore::open(&dir).expect("open fresh");
            for tag in 0..3 {
                let (report, stamps) = sample_report(tag);
                store.append(&report, &stamps).expect("append");
            }
        }
        let wal = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).expect("read wal");
        // Damage a byte inside the second frame's payload.
        let mut probe = Vec::new();
        let first_end = {
            let end = replay_frames(&bytes[..], 0, &mut probe);
            assert_eq!(probe.len(), 3);
            let mut one = Vec::new();
            let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
            let first = 8 + len;
            assert!(first < end);
            replay_frames(&bytes[..first], 0, &mut one);
            first
        };
        bytes[first_end + 10] ^= 0x40;
        std::fs::write(&wal, &bytes).expect("write damaged wal");
        let store = FeedbackStore::open(&dir).expect("recover");
        assert_eq!(store.len(), 1, "frames after the damage are discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_dedups_even_if_wal_truncation_is_lost() {
        let dir = fresh("compact");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        for tag in 0..3 {
            let (report, stamps) = sample_report(tag);
            store.append(&report, &stamps).expect("append");
        }
        let wal_before = std::fs::read(dir.join(WAL_FILE)).expect("read wal");
        store.compact().expect("compact");
        assert_eq!(store.stats().wal_bytes, 0);
        assert!(store.stats().snapshot_bytes > 0);

        // Simulate a crash *between* the snapshot rename and the WAL
        // truncation: the old WAL bytes come back.
        std::fs::write(dir.join(WAL_FILE), &wal_before).expect("restore wal");
        drop(store);
        let store = FeedbackStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 3, "duplicates dropped by sequence number");
        assert_eq!(store.stats().next_seq, 3);

        // Appends after compaction land in the WAL and survive reopen.
        drop(store);
        let mut store = FeedbackStore::open(&dir).expect("reopen again");
        let (report, stamps) = sample_report(9);
        store.append(&report, &stamps).expect("append post-compact");
        drop(store);
        let store = FeedbackStore::open(&dir).expect("final reopen");
        assert_eq!(store.len(), 4);
        assert_eq!(store.records()[3].seq, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_loses_only_the_in_flight_record() {
        let dir = fresh("torn");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        for tag in 0..3 {
            let (report, stamps) = sample_report(tag);
            store.append(&report, &stamps).expect("append");
        }
        // Every site faults at rate 1.0 (corrupting kinds are 3 of 4
        // draws; find a seed whose site 3 corrupts).
        let plan = (0..64u64)
            .map(|seed| FaultPlan::new(seed, 1.0).expect("valid plan"))
            .find(|p| {
                p.fault_for(WAL_FAULT_TABLE, PageId(3))
                    .is_some_and(|k| k.corrupts())
            })
            .expect("some seed corrupts site 3");
        store.set_fault_plan(Some(plan));
        let (report, stamps) = sample_report(3);
        let err = store.append(&report, &stamps).expect_err("torn write");
        assert!(err.to_string().contains("torn write"), "{err}");
        // The store is poisoned until reopened, like a crashed process.
        assert!(store.append(&report, &stamps).is_err());
        assert!(store.compact().is_err());
        drop(store);

        let store = FeedbackStore::open(&dir).expect("recover");
        assert_eq!(store.len(), 3, "only the in-flight record is lost");
        assert_eq!(store.stats().next_seq, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rate-1.0 error-return plan (no byte damage) whose draw at
    /// `site` of `table` is the wanted kind.
    fn error_plan_hitting(table: TableId, site: u32, wanted: ErrorFault) -> FaultPlan {
        (0..256u64)
            .map(|seed| {
                FaultPlan::new(seed, 0.0)
                    .and_then(|p| p.with_error_returns(1.0))
                    .expect("valid plan")
            })
            .find(|p| p.error_fault_for(table, PageId(site)) == Some(wanted))
            .expect("some seed draws the wanted error kind")
    }

    #[test]
    fn enospc_append_is_typed_and_never_acknowledges_the_partial_frame() {
        let dir = fresh("enospc");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        for tag in 0..3 {
            let (report, stamps) = sample_report(tag);
            store.append(&report, &stamps).expect("append");
        }
        store.set_fault_plan(Some(error_plan_hitting(
            WAL_FAULT_TABLE,
            3,
            ErrorFault::WriteNoSpace,
        )));
        let (report, stamps) = sample_report(3);
        let err = store.append(&report, &stamps).expect_err("ENOSPC");
        assert!(
            matches!(err, Error::StorageFull { .. }),
            "typed storage-full error, got {err:?}"
        );
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(store.len(), 3, "partial frame never absorbed");
        // Poisoned like a crashed process until reopened.
        assert!(store.append(&report, &stamps).is_err());
        drop(store);

        let store = FeedbackStore::open(&dir).expect("recover");
        assert_eq!(store.len(), 3, "only the unacknowledged frame is lost");
        assert_eq!(store.stats().next_seq, 3);
        let wal_once = std::fs::read(dir.join(WAL_FILE)).expect("wal");
        drop(store);
        let store = FeedbackStore::open(&dir).expect("recover again");
        assert_eq!(store.len(), 3);
        let wal_twice = std::fs::read(dir.join(WAL_FILE)).expect("wal");
        assert_eq!(wal_once, wal_twice, "recovery is byte-deterministic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_refuses_to_acknowledge_but_recovery_is_deterministic() {
        let dir = fresh("fsync");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        for tag in 0..2 {
            let (report, stamps) = sample_report(tag);
            store.append(&report, &stamps).expect("append");
        }
        store.set_fault_plan(Some(error_plan_hitting(
            WAL_FAULT_TABLE,
            2,
            ErrorFault::FsyncFailed,
        )));
        let (report, stamps) = sample_report(2);
        let err = store.append(&report, &stamps).expect_err("fsync fails");
        assert!(matches!(err, Error::StorageFull { .. }), "{err:?}");
        assert!(err.to_string().contains("fsync"), "{err}");
        assert_eq!(store.len(), 2, "unsynced frame not acknowledged");
        drop(store);

        // The frame reached the file; recovery resolves the ambiguity
        // the same way every time: the complete frame replays.
        let store = FeedbackStore::open(&dir).expect("recover");
        assert_eq!(store.len(), 3);
        assert_eq!(store.stats().next_seq, 3);
        let wal_once = std::fs::read(dir.join(WAL_FILE)).expect("wal");
        drop(store);
        let store = FeedbackStore::open(&dir).expect("recover again");
        assert_eq!(store.len(), 3);
        assert_eq!(
            wal_once,
            std::fs::read(dir.join(WAL_FILE)).expect("wal"),
            "recovery is byte-deterministic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_crash_points_never_lose_acknowledged_frames() {
        for kind in [
            ErrorFault::WriteNoSpace,
            ErrorFault::FsyncFailed,
            ErrorFault::RenameFailed,
        ] {
            let dir = fresh(&format!("compact-{kind}"));
            let mut store = FeedbackStore::open(&dir).expect("open fresh");
            let mut expected = Vec::new();
            for tag in 0..3 {
                let (report, stamps) = sample_report(tag);
                let seq = store.append(&report, &stamps).expect("append");
                expected.push(StoredReport {
                    seq,
                    report,
                    stamps,
                });
            }
            store.set_fault_plan(Some(error_plan_hitting(SNAP_FAULT_TABLE, 3, kind)));
            let err = store.compact().expect_err("injected compaction failure");
            assert!(matches!(err, Error::StorageFull { .. }), "{kind}: {err:?}");
            // The failed compaction is not a crash: the store stays
            // usable, and nothing durable moved.
            assert_eq!(store.records(), expected.as_slice());
            drop(store);

            let store = FeedbackStore::open(&dir).expect("recover (tmp file ignored)");
            assert_eq!(store.records(), expected.as_slice(), "{kind}");
            assert_eq!(store.stats().next_seq, 3);
            drop(store);

            // Healing the plan lets the same compaction land.
            let mut store = FeedbackStore::open(&dir).expect("reopen");
            store.set_fault_plan(None);
            store.compact().expect("compact after heal");
            assert_eq!(store.stats().wal_bytes, 0);
            drop(store);
            let store = FeedbackStore::open(&dir).expect("post-compact reopen");
            assert_eq!(store.records(), expected.as_slice(), "{kind}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replay_into_hints_skips_shed_measurements() {
        let dir = fresh("replay");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        let (report, stamps) = sample_report(1); // tag 1 → orders shed
        store.append(&report, &stamps).expect("append");
        let mut hints = HintSet::new();
        store.replay_into(&mut hints);
        assert_eq!(hints.dpc("sales", "state='S1'"), Some(121.0));
        assert_eq!(hints.dpc("orders", "qty<1"), None, "shed not absorbed");
        let hint = hints.dpc_hint("sales", "state='S1'").expect("stamped");
        assert_eq!(
            hint.stamp,
            Some(EpochStamp {
                epoch: 1,
                dirty_pages: 2
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_stale_drops_dead_measurements_durably() {
        let dir = fresh("evict");
        let mut store = FeedbackStore::open(&dir).expect("open fresh");
        let (report, mut stamps) = sample_report(0);
        stamps.insert(
            "orders".to_string(),
            EpochStamp {
                epoch: 0,
                dirty_pages: 0,
            },
        );
        store.append(&report, &stamps).expect("append");

        let mut states = HashMap::new();
        // sales barely drifted; orders half-rewritten.
        states.insert(
            "sales".to_string(),
            TableEpochState {
                epoch: 1,
                dirty_pages: 1,
                pages: 100,
            },
        );
        states.insert(
            "orders".to_string(),
            TableEpochState {
                epoch: 5,
                dirty_pages: 50,
                pages: 100,
            },
        );
        let dropped = store
            .evict_stale(StalenessPolicy::default(), &states)
            .expect("evict");
        assert_eq!(dropped, 1);
        assert_eq!(store.stats().measurements, 1);
        drop(store);
        let store = FeedbackStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().measurements, 1, "eviction survived restart");
        assert_eq!(store.records()[0].report.measurements[0].table, "sales");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_snapshot_file_is_rejected() {
        let dir = fresh("badmagic");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(SNAP_FILE), b"not a snapshot").expect("write junk");
        assert!(FeedbackStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
