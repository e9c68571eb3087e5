//! The segmented log: append path with group commit, and the recovery
//! scan with torn-tail repair.
//!
//! On-disk layout of a log directory:
//!
//! ```text
//! <dir>/seg-00000001.wal     sealed segment
//! <dir>/seg-00000002.wal     active segment (append target)
//! ```
//!
//! Each segment starts with a 16-byte header (`XYWALOG1` + u64 LE first
//! LSN) followed by a run of record frames ([`crate::record`]). LSNs are
//! assigned densely starting at 1, so a record's LSN is implicit in its
//! position: `first_lsn + ordinal`. Consecutive segments must therefore
//! tile the LSN space — a numbering gap is detected as corruption, and a
//! first segment that does not start at LSN 1 is refused as
//! [`WalError::Truncated`]: segments are never deleted, so such a
//! directory was cut short by an earlier release that kept the missing
//! history in a snapshot this one cannot read.

use crate::record::{decode_frame, encode_frame, Record};
use crate::{WalConfig, WalError, WalSync};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

const MAGIC: [u8; 8] = *b"XYWALOG1";
const SEGMENT_HEADER_BYTES: usize = 16;

fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.wal")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn create_segment(dir: &Path, index: u64, first_lsn: u64) -> std::io::Result<File> {
    let path = dir.join(segment_name(index));
    let mut file = File::create(&path)?;
    let mut header = [0u8; SEGMENT_HEADER_BYTES];
    header[..8].copy_from_slice(&MAGIC);
    header[8..].copy_from_slice(&first_lsn.to_le_bytes());
    file.write_all(&header)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(file)
}

/// One scanned segment.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Segment file path.
    pub path: PathBuf,
    /// Segment index (from the file name).
    pub index: u64,
    /// LSN of the segment's first record (from the header).
    pub first_lsn: u64,
    /// Number of valid records decoded.
    pub records: u64,
    /// File size in bytes (before any torn-tail truncation).
    pub bytes: u64,
}

impl SegmentReport {
    /// LSN of the last valid record, or `None` for an empty segment.
    pub fn last_lsn(&self) -> Option<u64> {
        (self.records > 0).then(|| self.first_lsn + self.records - 1)
    }
}

/// A detected torn tail: the last segment ends in a partial or damaged
/// frame, as a crash mid-append leaves it.
#[derive(Debug, Clone)]
pub struct TornTail {
    /// The segment carrying the torn tail (always the last one).
    pub segment: PathBuf,
    /// Length of the valid prefix; [`Wal::open`] truncates to this (and
    /// removes the file outright when 0, i.e. the header itself is torn).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix that will be discarded.
    pub lost_bytes: u64,
    /// Why decoding stopped.
    pub reason: String,
}

/// Result of a read-only [`scan`] of a log directory.
#[derive(Debug)]
pub struct ScanReport {
    /// Every segment present, in LSN order.
    pub segments: Vec<SegmentReport>,
    /// Every valid record with its LSN, in LSN order.
    pub records: Vec<(u64, Record)>,
    /// A torn tail in the last segment, if any. `scan` only reports it;
    /// [`Wal::open`] repairs it.
    pub torn: Option<TornTail>,
}

/// Read a log directory without mutating it — the basis of both recovery
/// and `xydiff wal inspect`. Fails on corruption anywhere except the
/// tail of the last segment, which is reported as [`ScanReport::torn`],
/// and on a log whose first record is not LSN 1
/// ([`WalError::Truncated`]). Files other than `seg-*.wal` are ignored.
pub fn scan(dir: &Path) -> Result<ScanReport, WalError> {
    let mut named: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(index) = parse_segment_name(name) {
            named.push((index, path));
        }
    }
    named.sort();

    let mut segments = Vec::new();
    let mut records = Vec::new();
    let mut torn = None;
    let mut expected_first: Option<u64> = None;
    for (pos, (index, path)) in named.iter().enumerate() {
        let is_last = pos + 1 == named.len();
        let bytes = fs::read(path)?;
        if bytes.len() < SEGMENT_HEADER_BYTES || bytes[..8] != MAGIC {
            if is_last {
                // A crash while creating the segment left a partial header:
                // nothing in it was ever acknowledged.
                torn = Some(TornTail {
                    segment: path.clone(),
                    valid_bytes: 0,
                    lost_bytes: bytes.len() as u64,
                    reason: "incomplete segment header".to_string(),
                });
                segments.push(SegmentReport {
                    path: path.clone(),
                    index: *index,
                    first_lsn: 0,
                    records: 0,
                    bytes: bytes.len() as u64,
                });
                break;
            }
            return Err(WalError::Corrupt {
                segment: path.clone(),
                offset: 0,
                message: "bad segment header".to_string(),
            });
        }
        // INVARIANT: the slice is exactly 8 bytes (length checked above).
        let first_lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        match expected_first {
            None if first_lsn != 1 => {
                return Err(WalError::Truncated { segment: path.clone(), first_lsn });
            }
            Some(expected) if first_lsn != expected => {
                return Err(WalError::Corrupt {
                    segment: path.clone(),
                    offset: 8,
                    message: format!(
                        "segment LSN gap: expected first LSN {expected}, found {first_lsn}"
                    ),
                });
            }
            _ => {}
        }
        let mut offset = SEGMENT_HEADER_BYTES;
        let mut count = 0u64;
        while offset < bytes.len() {
            match decode_frame(&bytes[offset..]) {
                Ok((record, used)) => {
                    records.push((first_lsn + count, record));
                    count += 1;
                    offset += used;
                }
                Err(e) if is_last => {
                    torn = Some(TornTail {
                        segment: path.clone(),
                        valid_bytes: offset as u64,
                        lost_bytes: (bytes.len() - offset) as u64,
                        reason: e.to_string(),
                    });
                    break;
                }
                Err(e) => {
                    return Err(WalError::Corrupt {
                        segment: path.clone(),
                        offset: offset as u64,
                        message: e.to_string(),
                    });
                }
            }
        }
        expected_first = Some(first_lsn + count);
        segments.push(SegmentReport {
            path: path.clone(),
            index: *index,
            first_lsn,
            records: count,
            bytes: bytes.len() as u64,
        });
    }
    Ok(ScanReport { segments, records, torn })
}

/// What [`Wal::open`] found and repaired before handing the log back.
#[derive(Debug)]
pub struct Recovery {
    /// The whole history to replay: every valid record, in LSN order.
    pub records: Vec<(u64, Record)>,
    /// Whether a torn tail was found (and truncated away).
    pub torn: bool,
    /// Bytes discarded by torn-tail truncation.
    pub torn_bytes: u64,
    /// Segments present after torn-tail repair.
    pub segments: usize,
    /// Highest LSN on disk (0 for an empty log).
    pub last_lsn: u64,
}

#[derive(Debug)]
struct State {
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    /// LSN the next append will get (`written_lsn + 1`).
    next_lsn: u64,
    /// Highest LSN handed to the OS.
    written_lsn: u64,
    /// Highest LSN known to have reached stable storage.
    durable_lsn: u64,
    /// A group-commit leader is currently in `fdatasync`.
    syncing: bool,
    /// An append failed mid-write; the tail may be torn, so the writer
    /// refuses to bury it under further records.
    poisoned: bool,
    /// Segments on disk (sealed + active).
    segments: usize,
}

#[derive(Debug, Default)]
struct AtomicStats {
    appends: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsynced_records: AtomicU64,
    max_fsync_batch: AtomicU64,
}

/// A point-in-time copy of the log's counters, for metrics exposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Highest LSN handed to the OS.
    pub appended_lsn: u64,
    /// Highest LSN known durable.
    pub durable_lsn: u64,
    /// Segments currently on disk (sealed + active).
    pub segments: usize,
    /// Records appended since open.
    pub appends: u64,
    /// Frame bytes appended since open.
    pub appended_bytes: u64,
    /// Group-commit fsyncs performed since open.
    pub fsyncs: u64,
    /// Records covered by those fsyncs (sum of batch sizes).
    pub fsynced_records: u64,
    /// Largest single fsync batch.
    pub max_fsync_batch: u64,
}

/// What one append achieved.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Whether the record is on stable storage (true under
    /// [`WalSync::Always`], false under [`WalSync::None`]).
    pub durable: bool,
    /// Frame bytes written.
    pub bytes: u64,
}

/// The writer half: a shared, thread-safe append-only log.
///
/// All appenders share one mutex-guarded file; writes are short, and
/// durability waits happen outside the lock so a leader's `fdatasync`
/// never blocks other appenders from writing the next batch.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    sync_mode: WalSync,
    segment_bytes: u64,
    state: Mutex<State>,
    cv: Condvar,
    stats: AtomicStats,
}

impl Wal {
    /// Open (creating if missing) the log at `config.dir`: scan it, repair
    /// any torn tail, and return the writer together with everything the
    /// caller must replay.
    pub fn open(config: &WalConfig) -> Result<(Wal, Recovery), WalError> {
        fs::create_dir_all(&config.dir)?;
        let mut report = scan(&config.dir)?;

        let mut torn_bytes = 0;
        let torn = report.torn.is_some();
        if let Some(t) = report.torn.take() {
            torn_bytes = t.lost_bytes;
            if t.valid_bytes == 0 {
                fs::remove_file(&t.segment)?;
                report.segments.pop();
            } else {
                let f = OpenOptions::new().write(true).open(&t.segment)?;
                f.set_len(t.valid_bytes)?;
                f.sync_all()?;
                if let Some(s) = report.segments.last_mut() {
                    s.bytes = t.valid_bytes;
                }
            }
            sync_dir(&config.dir)?;
        }

        let last_lsn =
            report.segments.iter().filter_map(SegmentReport::last_lsn).max().unwrap_or(0);
        let (file, seg_index, seg_bytes) = match report.segments.last() {
            Some(s) => {
                let f = OpenOptions::new().append(true).open(&s.path)?;
                // Everything retained by the scan is durable from here on.
                f.sync_data()?;
                (f, s.index, s.bytes)
            }
            None => {
                let f = create_segment(&config.dir, 1, 1)?;
                (f, 1, SEGMENT_HEADER_BYTES as u64)
            }
        };
        let segments = report.segments.len().max(1);

        let wal = Wal {
            dir: config.dir.clone(),
            sync_mode: config.sync,
            segment_bytes: config.segment_bytes.max(4 << 10),
            state: Mutex::new(State {
                file,
                seg_index,
                seg_bytes,
                next_lsn: last_lsn + 1,
                written_lsn: last_lsn,
                durable_lsn: last_lsn,
                syncing: false,
                poisoned: false,
                segments,
            }),
            cv: Condvar::new(),
            stats: AtomicStats::default(),
        };
        let recovery = Recovery {
            records: report.records,
            torn,
            torn_bytes,
            segments,
            last_lsn,
        };
        Ok((wal, recovery))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured durability policy.
    pub fn sync_mode(&self) -> WalSync {
        self.sync_mode
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned std mutex only means another appender panicked while
        // holding it; the state itself is still consistent (every mutation
        // is completed before the guard drops), so keep going.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_cv<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one record, group-committing per the configured policy, and
    /// return its LSN and durability. Under [`WalSync::Always`] the call
    /// returns only once the record (and every earlier one) has been
    /// fsynced — one leader's fsync covers the whole written batch.
    pub fn append(&self, record: &Record) -> Result<AppendOutcome, WalError> {
        let frame = encode_frame(record);
        let lsn;
        {
            let mut st = self.lock();
            if st.poisoned {
                return Err(WalError::Poisoned);
            }
            if st.seg_bytes >= self.segment_bytes {
                if let Err(e) = self.roll(&mut st) {
                    st.poisoned = true;
                    self.cv.notify_all();
                    return Err(e);
                }
            }
            lsn = st.next_lsn;
            if let Err(e) = st.file.write_all(&frame) {
                st.poisoned = true;
                self.cv.notify_all();
                return Err(WalError::Io(e));
            }
            st.next_lsn += 1;
            st.written_lsn = lsn;
            st.seg_bytes += frame.len() as u64;
        }
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        let durable = match self.sync_mode {
            WalSync::None => false,
            WalSync::Always => {
                self.wait_durable(lsn)?;
                true
            }
        };
        Ok(AppendOutcome { lsn, durable, bytes: frame.len() as u64 })
    }

    /// Seal the active segment and start the next one. Called under the
    /// state lock.
    fn roll(&self, st: &mut State) -> Result<(), WalError> {
        st.file.sync_data()?;
        st.durable_lsn = st.durable_lsn.max(st.written_lsn);
        let index = st.seg_index + 1;
        st.file = create_segment(&self.dir, index, st.next_lsn)?;
        st.segments += 1;
        st.seg_index = index;
        st.seg_bytes = SEGMENT_HEADER_BYTES as u64;
        Ok(())
    }

    /// Block until everything up to `lsn` is on stable storage, becoming
    /// the group-commit leader if no fsync is in flight.
    fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        let mut st = self.lock();
        loop {
            if st.poisoned {
                return Err(WalError::Poisoned);
            }
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if st.syncing {
                st = self.wait_cv(st);
                continue;
            }
            st.syncing = true;
            let target = st.written_lsn;
            let already = st.durable_lsn;
            let file = match st.file.try_clone() {
                Ok(f) => f,
                Err(e) => {
                    st.syncing = false;
                    st.poisoned = true;
                    self.cv.notify_all();
                    return Err(WalError::Io(e));
                }
            };
            // fsync outside the lock: followers keep appending the next
            // batch while this one flushes.
            drop(st);
            let result = file.sync_data();
            st = self.lock();
            st.syncing = false;
            match result {
                Ok(()) => {
                    if st.durable_lsn < target {
                        st.durable_lsn = target;
                        let batch = target.saturating_sub(already);
                        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                        self.stats.fsynced_records.fetch_add(batch, Ordering::Relaxed);
                        self.stats.max_fsync_batch.fetch_max(batch, Ordering::Relaxed);
                    }
                    self.cv.notify_all();
                }
                Err(e) => {
                    st.poisoned = true;
                    self.cv.notify_all();
                    return Err(WalError::Io(e));
                }
            }
        }
    }

    /// Force everything appended so far onto stable storage (used at
    /// shutdown, and periodically under [`WalSync::None`]).
    pub fn sync(&self) -> Result<(), WalError> {
        let target = self.lock().written_lsn;
        self.wait_durable(target)
    }

    /// Highest LSN handed to the OS so far.
    pub fn appended_lsn(&self) -> u64 {
        self.lock().written_lsn
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_lsn
    }

    /// Segments currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.lock().segments
    }

    /// A point-in-time copy of every counter.
    pub fn stats(&self) -> WalStats {
        let (appended_lsn, durable_lsn, segments) = {
            let st = self.lock();
            (st.written_lsn, st.durable_lsn, st.segments)
        };
        WalStats {
            appended_lsn,
            durable_lsn,
            segments,
            appends: self.stats.appends.load(Ordering::Relaxed),
            appended_bytes: self.stats.bytes.load(Ordering::Relaxed),
            fsyncs: self.stats.fsyncs.load(Ordering::Relaxed),
            fsynced_records: self.stats.fsynced_records.load(Ordering::Relaxed),
            max_fsync_batch: self.stats.max_fsync_batch.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xywal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn delta(key: &str, version: u64) -> Record {
        Record::Delta {
            key: key.to_string(),
            version,
            delta_xml: format!("<delta v=\"{version}\"/>"),
        }
    }

    fn open(dir: &Path) -> (Wal, Recovery) {
        Wal::open(&WalConfig::new(dir)).unwrap()
    }

    #[test]
    fn fresh_log_appends_and_recovers_in_order() {
        let dir = tmpdir("fresh");
        let (wal, rec) = open(&dir);
        assert_eq!(rec.records.len(), 0);
        assert!(!rec.torn);
        let a = wal.append(&Record::Init { key: "k".into(), xml: "<k/>".into() }).unwrap();
        assert_eq!(a.lsn, 1);
        assert!(a.durable);
        for v in 1..=5 {
            assert_eq!(wal.append(&delta("k", v)).unwrap().lsn, 1 + v);
        }
        assert_eq!(wal.appended_lsn(), 6);
        assert_eq!(wal.durable_lsn(), 6);
        drop(wal);

        let (wal2, rec2) = open(&dir);
        assert_eq!(rec2.records.len(), 6);
        assert_eq!(rec2.last_lsn, 6);
        let lsns: Vec<u64> = rec2.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (1..=6).collect::<Vec<_>>());
        assert_eq!(rec2.records[0].1.key(), "k");
        // LSNs continue where the previous writer stopped.
        assert_eq!(wal2.append(&delta("k", 6)).unwrap().lsn, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_usable() {
        let dir = tmpdir("torn");
        let (wal, _) = open(&dir);
        for v in 1..=3 {
            wal.append(&delta("k", v)).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: garbage after the last full record.
        let seg = dir.join(segment_name(1));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);

        let before = fs::metadata(&seg).unwrap().len();
        let (wal2, rec) = open(&dir);
        assert!(rec.torn);
        assert_eq!(rec.torn_bytes, 3);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(fs::metadata(&seg).unwrap().len(), before - 3);
        // Appending after repair produces a clean, fully-decodable log.
        wal2.append(&delta("k", 4)).unwrap();
        drop(wal2);
        let (_, rec3) = open(&dir);
        assert!(!rec3.torn);
        assert_eq!(rec3.records.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_record_truncation_keeps_the_valid_prefix() {
        let dir = tmpdir("midrec");
        let (wal, _) = open(&dir);
        for v in 1..=3 {
            wal.append(&delta("key-with-some-length", v)).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        // Cut into the middle of the third record.
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let (_, rec) = open(&dir);
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.last_lsn, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_segment_is_removed() {
        let dir = tmpdir("tornheader");
        let (wal, _) = open(&dir);
        wal.append(&delta("k", 1)).unwrap();
        drop(wal);
        // A crash during segment creation: a second segment with 4 header bytes.
        fs::write(dir.join(segment_name(2)), b"XYWA").unwrap();
        let (wal2, rec) = open(&dir);
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 1);
        assert!(!dir.join(segment_name(2)).exists());
        assert_eq!(wal2.append(&delta("k", 2)).unwrap().lsn, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_an_error() {
        let dir = tmpdir("sealedcorrupt");
        let cfg = WalConfig::new(&dir).with_segment_bytes(4 << 10);
        let (wal, _) = Wal::open(&cfg).unwrap();
        let big = "x".repeat(512);
        for v in 1..=20 {
            wal.append(&Record::Delta { key: "k".into(), version: v, delta_xml: big.clone() })
                .unwrap();
        }
        assert!(wal.segment_count() > 1, "load must have rolled segments");
        drop(wal);
        // Flip a payload byte in the middle of the FIRST (sealed) segment.
        let seg = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        match Wal::open(&cfg) {
            Err(WalError::Corrupt { segment, .. }) => {
                assert!(segment.to_string_lossy().contains("seg-00000001"));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_that_does_not_start_at_lsn_1_is_refused() {
        // What an earlier release left behind once a snapshot let it delete
        // the first segments: the history below LSN 41 is not on disk.
        let dir = tmpdir("truncated");
        fs::create_dir_all(&dir).unwrap();
        drop(create_segment(&dir, 3, 41).unwrap());
        fs::write(dir.join("WATERMARK"), "40\n").unwrap();
        for result in [scan(&dir).map(drop), Wal::open(&WalConfig::new(&dir)).map(drop)] {
            match result {
                Err(WalError::Truncated { segment, first_lsn }) => {
                    assert_eq!(first_lsn, 41);
                    assert!(segment.ends_with(segment_name(3)));
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_watermark_file_beside_a_complete_log_is_ignored() {
        let dir = tmpdir("straywm");
        let (wal, _) = open(&dir);
        for v in 1..=3 {
            wal.append(&delta("k", v)).unwrap();
        }
        drop(wal);
        fs::write(dir.join("WATERMARK"), "2\n").unwrap();
        let (wal2, rec) = open(&dir);
        assert_eq!(rec.records.len(), 3, "every record replays, whatever the file says");
        assert_eq!(wal2.append(&delta("k", 4)).unwrap().lsn, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_group_commit() {
        let dir = tmpdir("group");
        let (wal, _) = open(&dir);
        let wal = Arc::new(wal);
        let threads = 8;
        let per_thread = 25u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let w = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for v in 1..=per_thread {
                        let out = w.append(&delta(&format!("k{t}"), v)).unwrap();
                        assert!(out.durable);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = threads as u64 * per_thread;
        assert_eq!(wal.appended_lsn(), total);
        assert_eq!(wal.durable_lsn(), total);
        let stats = wal.stats();
        assert_eq!(stats.appends, total);
        assert!(stats.fsyncs <= total);
        assert_eq!(stats.fsynced_records, total);
        drop(wal);
        let (_, rec) = open(&dir);
        assert_eq!(rec.records.len(), total as usize);
        // Per-key version order is preserved in LSN order.
        for t in 0..threads {
            let versions: Vec<u64> = rec
                .records
                .iter()
                .filter(|(_, r)| r.key() == format!("k{t}"))
                .map(|(_, r)| r.version())
                .collect();
            assert_eq!(versions, (1..=per_thread).collect::<Vec<_>>());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_none_reports_not_durable_but_survives_reopen() {
        let dir = tmpdir("syncnone");
        let cfg = WalConfig::new(&dir).with_sync(WalSync::None);
        let (wal, _) = Wal::open(&cfg).unwrap();
        let out = wal.append(&delta("k", 1)).unwrap();
        assert!(!out.durable);
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 1);
        drop(wal);
        let (_, rec) = Wal::open(&cfg).unwrap();
        assert_eq!(rec.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_without_mutating() {
        let dir = tmpdir("scan");
        let (wal, _) = open(&dir);
        for v in 1..=3 {
            wal.append(&delta("k", v)).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_name(1));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[1, 2, 3, 4]).unwrap();
        drop(f);
        let len_before = fs::metadata(&seg).unwrap().len();
        let report = scan(&dir).unwrap();
        assert_eq!(report.records.len(), 3);
        assert!(report.torn.is_some());
        assert_eq!(fs::metadata(&seg).unwrap().len(), len_before, "scan never truncates");
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].records, 3);
        assert_eq!(report.segments[0].last_lsn(), Some(3));
        let _ = fs::remove_dir_all(&dir);
    }
}
