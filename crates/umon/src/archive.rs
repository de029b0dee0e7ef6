//! The crash-safe on-disk period archive.
//!
//! Eviction without an archive is data loss; with one, it is tiering. The
//! analyzer appends every *accepted* report here at ingest time —
//! write-ahead, before the report becomes queryable — so whatever the
//! process does afterwards (evict, crash, restart), the accepted history is
//! on disk exactly once per `(host, period)`.
//!
//! Layout: one append-only segment file per host, `host_<id>.seg`, holding
//!
//! ```text
//! [8-byte magic "UMONSEG2"]
//! repeat: [payload_len: u32 LE] [digest(payload): u64 LE] [payload]
//! ```
//!
//! where each payload is [`PeriodReport::encode`]'s compact binary encoding:
//! period, host and config fingerprint as fixed LE u64s, then the varint
//! [`SketchReport`](wavesketch::SketchReport) codec from
//! `wavesketch::report`, and the checksum is
//! [`wavesketch::report::digest`] of it — the same value as the collection
//! plane's [`Envelope`](crate::collector::Envelope) seal over the same
//! bytes. A record is either intact or detectably damaged, never silently
//! wrong. A report that came through the [`Collector`](crate::Collector)
//! is written as the very bytes the collector verified, under the digest
//! it checked: nothing is encoded or digested again here.
//!
//! A segment that starts with another `UMONSEG` version (the FNV-1a
//! records of `UMONSEG1`) is refused, not read: [`PeriodArchive::scan`]
//! lists it in [`ArchiveScan::refused_segments`], recovery leaves it
//! byte-identical, and [`PeriodArchive::append`] for its host fails (the
//! analyzer counts the error and keeps the report resident). There is no
//! second reader for the old format.
//!
//! Crash-recovery invariant: a crash mid-append can only damage the *tail*
//! of one segment. [`PeriodArchive::scan`] reads each segment until the
//! first truncated or checksum-failing record, keeps everything before it,
//! and reports the damaged tail as a [`TornTail`] (with a best-effort count
//! of the records lost); it never panics on arbitrary bytes. Recovery
//! truncates torn tails ([`PeriodArchive::truncate_damage`]) so subsequent
//! appends — including backfilled re-uploads of the lost records — land on
//! a clean segment instead of behind unreachable garbage.
//!
//! The archive is also the analyzer's *cold tier*: [`append`] returns the
//! record's [`SegLoc`] and [`read_payload_at`] reads one record's verified
//! payload back by location, so evicted periods stay queryable from disk
//! (`crate::cold` reads them without decoding).
//!
//! [`append`]: PeriodArchive::append
//! [`read_payload_at`]: PeriodArchive::read_payload_at

use crate::host_agent::PeriodReport;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wavesketch::report::digest;

/// Leading magic of every segment file (8 bytes, versioned).
const MAGIC: &[u8; 8] = b"UMONSEG2";

/// What every version's magic starts with; the last byte is the version.
const MAGIC_STEM: &[u8] = b"UMONSEG";

/// Record header: `[payload_len: u32 LE] [digest: u64 LE]`.
const HEADER: usize = 12;

/// Per-record payload cap: a corrupt length prefix must fail the scan, not
/// attempt a multi-gigabyte read.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// True if a segment starting with `head` is of another format version:
/// refused, never read, truncated or appended to. Bytes without the
/// `UMONSEG` stem are not a segment at all, just a damaged tail.
fn foreign_version(head: &[u8]) -> bool {
    head.len() >= MAGIC.len() && head.starts_with(MAGIC_STEM) && !head.starts_with(MAGIC)
}

/// The byte location of one record inside its host's segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegLoc {
    /// Byte offset of the record header (length prefix) from file start.
    pub offset: u64,
    /// Total record span in bytes: 12-byte header plus payload.
    pub len: u32,
}

/// One segment's damaged tail: what a crash (or bit rot) cost us, reported
/// so recovery can distinguish "clean shutdown" from "lost data, backfill
/// needed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// The host whose segment is damaged.
    pub host: usize,
    /// Best-effort count of records in the damaged region (record framing
    /// is walked by length prefix even where checksums fail; a trailing
    /// partial record counts as one).
    pub lost_records: u64,
    /// Bytes in the damaged region.
    pub lost_bytes: u64,
    /// File length of the intact prefix (including magic) — the truncation
    /// point that makes the segment clean again.
    pub intact_bytes: u64,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "archive segment for host {} lost {} record(s) ({} bytes) to a torn tail; \
             backfill needed",
            self.host, self.lost_records, self.lost_bytes
        )
    }
}

/// What a [`PeriodArchive::scan`] found on disk.
#[derive(Debug, Default)]
pub struct ArchiveScan {
    /// Every intact archived report, ordered `(host, period)` ascending.
    pub reports: Vec<PeriodReport>,
    /// Byte location of each record in its host segment, parallel to
    /// `reports`.
    pub locs: Vec<SegLoc>,
    /// Hosts whose segment ended in a damaged or truncated record (the
    /// intact prefix is still in `reports`).
    pub damaged_tails: Vec<usize>,
    /// Per-segment damage detail, parallel in host order to
    /// `damaged_tails`.
    pub torn_tails: Vec<TornTail>,
    /// Hosts whose segment is of another format version (ascending): not
    /// read, and left byte-identical by recovery.
    pub refused_segments: Vec<usize>,
}

/// One host's open append handle plus its current file length (the offset
/// the next record will land at).
#[derive(Debug)]
struct Segment {
    file: File,
    len: u64,
}

/// An open period archive rooted at one directory.
#[derive(Debug)]
pub struct PeriodArchive {
    dir: PathBuf,
    /// Open append handles, one per host heard.
    files: HashMap<usize, Segment>,
    /// The record buffer, `[len][digest][payload]`, kept between appends
    /// so a warm archive writes without allocating.
    record: Vec<u8>,
}

impl PeriodArchive {
    /// Opens (creating if needed) an archive directory for appending.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            files: HashMap::new(),
            record: Vec::new(),
        })
    }

    /// The archive's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(dir: &Path, host: usize) -> PathBuf {
        dir.join(format!("host_{host}.seg"))
    }

    /// The open segment of `host`, opening it (and writing the magic into
    /// a new one) on first use. Fails for a segment of another format
    /// version, which is never appended to.
    fn segment<'a>(
        dir: &Path,
        files: &'a mut HashMap<usize, Segment>,
        host: usize,
    ) -> std::io::Result<&'a mut Segment> {
        let slot = match files.entry(host) {
            Entry::Occupied(open) => return Ok(open.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let path = Self::segment_path(dir, host);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut len = file.metadata()?.len();
        if len == 0 {
            file.write_all(MAGIC)?;
            len = MAGIC.len() as u64;
        } else if len >= MAGIC.len() as u64 {
            let mut head = [0u8; MAGIC.len()];
            file.read_exact(&mut head)?;
            if foreign_version(&head) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{} is a segment of another format version; refusing to append",
                        path.display()
                    ),
                ));
            }
        }
        Ok(slot.insert(Segment { file, len }))
    }

    /// Appends one accepted report to its host's segment, creating the
    /// segment (with magic) on first use. The record is flushed to the OS
    /// before this returns, so a later process crash cannot lose it.
    /// Returns the record's location for the cold-tier index.
    pub fn append(&mut self, report: &PeriodReport) -> std::io::Result<SegLoc> {
        // The payload is encoded straight behind a reserved header, then
        // digested in place: one buffer, reused across appends.
        self.record.clear();
        self.record.resize(HEADER, 0);
        report.encode_into(&mut self.record);
        let checksum = digest(&self.record[HEADER..]);
        self.write_record(report.host, checksum)
    }

    /// [`Self::append`] for a report whose encoding and its digest the
    /// caller already holds — the collector's verified bytes — so neither
    /// is computed again.
    pub(crate) fn append_encoded(
        &mut self,
        host: usize,
        payload: &[u8],
        checksum: u64,
    ) -> std::io::Result<SegLoc> {
        self.record.clear();
        self.record.resize(HEADER, 0);
        self.record.extend_from_slice(payload);
        self.write_record(host, checksum)
    }

    /// The one record writer: fills the header reserved at the front of the
    /// record buffer and writes the whole record with one call, which keeps
    /// a crash from interleaving half-records from different appends.
    fn write_record(&mut self, host: usize, checksum: u64) -> std::io::Result<SegLoc> {
        let seg = Self::segment(&self.dir, &mut self.files, host)?;
        let record = &mut self.record;
        let payload_len = record.len() - HEADER;
        record[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        record[4..HEADER].copy_from_slice(&checksum.to_le_bytes());
        seg.file.write_all(record)?;
        seg.file.flush()?;
        let loc = SegLoc {
            offset: seg.len,
            len: record.len() as u32,
        };
        seg.len += record.len() as u64;
        Ok(loc)
    }

    /// Reads one record's payload back by location from `dir` (no open
    /// archive needed — the cold read path runs behind `&Analyzer`): the
    /// [`PeriodReport::encode`] bytes the record's digest verifies, in one
    /// exact-size buffer. `Ok(None)` if the record no longer verifies
    /// (truncated, or a length or checksum mismatch) — possible only if the
    /// segment was damaged after the location was indexed.
    pub fn read_payload_at(
        dir: impl AsRef<Path>,
        host: usize,
        loc: SegLoc,
    ) -> std::io::Result<Option<Box<[u8]>>> {
        let path = Self::segment_path(dir.as_ref(), host);
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let Some(len) = (loc.len as usize).checked_sub(HEADER) else {
            return Ok(None);
        };
        let mut header = [0u8; HEADER];
        let mut payload = vec![0u8; len].into_boxed_slice();
        if file.read_exact(&mut header).is_err() || file.read_exact(&mut payload).is_err() {
            return Ok(None);
        }
        match Self::read_header(&header, 0) {
            Some((n, want)) if n == len && digest(&payload) == want => Ok(Some(payload)),
            _ => Ok(None),
        }
    }

    /// Truncates every torn segment in `scan` back to its intact prefix, so
    /// later appends (and the backfilled re-uploads of the lost records)
    /// extend a clean segment instead of hiding behind unreachable bytes.
    pub fn truncate_damage(&mut self, scan: &ArchiveScan) -> std::io::Result<()> {
        for tail in &scan.torn_tails {
            // Drop any open handle first: its tracked length is stale.
            self.files.remove(&tail.host);
            let path = Self::segment_path(&self.dir, tail.host);
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(tail.intact_bytes)?;
        }
        Ok(())
    }

    /// Reads every segment under `dir`, keeping each segment's intact record
    /// prefix. Tolerates a damaged or truncated tail per segment (the
    /// expected shape after a crash mid-append) — and, conservatively, any
    /// other trailing garbage — without panicking. A segment of another
    /// format version is not read: it is listed in
    /// [`ArchiveScan::refused_segments`].
    pub fn scan(dir: impl AsRef<Path>) -> std::io::Result<ArchiveScan> {
        let dir = dir.as_ref();
        let mut out = ArchiveScan::default();
        if !dir.exists() {
            return Ok(out);
        }
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(host) = name
                .strip_prefix("host_")
                .and_then(|n| n.strip_suffix(".seg"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            if foreign_version(&bytes) {
                out.refused_segments.push(host);
                continue;
            }
            if let Some(tail) = Self::scan_segment(host, &bytes, &mut out.reports, &mut out.locs) {
                out.damaged_tails.push(host);
                out.torn_tails.push(tail);
            }
        }
        let locs = std::mem::take(&mut out.locs);
        let mut zipped: Vec<(PeriodReport, SegLoc)> = out.reports.drain(..).zip(locs).collect();
        zipped.sort_by_key(|(r, _)| (r.host, r.period));
        for (r, l) in zipped {
            out.reports.push(r);
            out.locs.push(l);
        }
        out.damaged_tails.sort_unstable();
        out.torn_tails.sort_unstable_by_key(|t| t.host);
        out.refused_segments.sort_unstable();
        Ok(out)
    }

    /// Appends one segment's intact records (and their locations) to
    /// `reports`/`locs`; `Some(TornTail)` if the segment ended in damage
    /// (bad magic, truncated record, checksum or decode failure). The
    /// damaged region is walked by length prefix — record framing survives
    /// payload corruption — to count how many records it held.
    fn scan_segment(
        host: usize,
        bytes: &[u8],
        reports: &mut Vec<PeriodReport>,
        locs: &mut Vec<SegLoc>,
    ) -> Option<TornTail> {
        let Some(body) = bytes.strip_prefix(MAGIC.as_slice()) else {
            return Some(TornTail {
                host,
                lost_records: u64::from(!bytes.is_empty()),
                lost_bytes: bytes.len() as u64,
                intact_bytes: 0,
            });
        };
        let magic = MAGIC.len();
        let mut pos = 0usize;
        while pos < body.len() {
            let Some((len, want)) = Self::read_header(body, pos) else {
                break;
            };
            let Some(payload) = body.get(pos + HEADER..pos + HEADER + len) else {
                break;
            };
            if digest(payload) != want {
                break;
            }
            let Some(report) = PeriodReport::decode(payload) else {
                break;
            };
            reports.push(report);
            locs.push(SegLoc {
                offset: (magic + pos) as u64,
                len: (HEADER + len) as u32,
            });
            pos += HEADER + len;
        }
        if pos >= body.len() {
            return None;
        }
        // Damaged region: count records by walking length prefixes without
        // trusting checksums; a partial trailing record counts as one.
        let intact = pos;
        let mut lost = 0u64;
        while pos < body.len() {
            lost += 1;
            match Self::read_header(body, pos) {
                Some((len, _)) if pos + HEADER + len <= body.len() => pos += HEADER + len,
                _ => break,
            }
        }
        Some(TornTail {
            host,
            lost_records: lost,
            lost_bytes: (body.len() - intact) as u64,
            intact_bytes: (magic + intact) as u64,
        })
    }

    /// Reads the `[len][checksum]` record header at `pos`, rejecting
    /// truncated headers and implausible lengths.
    fn read_header(body: &[u8], pos: usize) -> Option<(usize, u64)> {
        let header = body.get(pos..pos + HEADER)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return None;
        }
        let want = u64::from_le_bytes(header[4..HEADER].try_into().expect("8 bytes"));
        Some((len as usize, want))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_agent::{HostAgent, HostAgentConfig};
    use wavesketch::SketchConfig;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("umon_archive_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_reports(host: usize) -> Vec<PeriodReport> {
        let cfg = HostAgentConfig {
            sketch: SketchConfig::builder()
                .rows(2)
                .width(32)
                .levels(4)
                .topk(64)
                .max_windows(4096)
                .heavy_rows(16)
                .build(),
            period_ns: 16 << 13,
            window_shift: 13,
        };
        let mut agent = HostAgent::new(host, cfg);
        for w in [1u64, 5, 18, 22, 35, 40] {
            agent.observe(7, w << 13, 900);
        }
        agent.finish()
    }

    #[test]
    fn roundtrip_across_hosts() {
        let dir = tmp_dir("roundtrip");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let mut want = Vec::new();
        for host in [3usize, 0] {
            for r in sample_reports(host) {
                archive.append(&r).unwrap();
                want.push(r);
            }
        }
        drop(archive);
        want.sort_by_key(|r| (r.host, r.period));

        let scan = PeriodArchive::scan(&dir).unwrap();
        assert!(scan.damaged_tails.is_empty());
        assert_eq!(scan.reports.len(), want.len());
        for (got, want) in scan.reports.iter().zip(&want) {
            assert_eq!(got.host, want.host);
            assert_eq!(got.period, want.period);
            assert_eq!(got.config_fingerprint, want.config_fingerprint);
            assert_eq!(got.report, want.report);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_bytes_are_the_documented_record_format() {
        let dir = tmp_dir("format");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        // Largest first, so later appends reuse a buffer holding a longer
        // record's bytes.
        let mut reports = sample_reports(1);
        reports.sort_by_key(|r| std::cmp::Reverse(r.encode().len()));
        let mut want = b"UMONSEG2".to_vec();
        for r in &reports {
            archive.append(r).unwrap();
            let payload = r.encode();
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&digest(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
        }
        drop(archive);
        assert!(reports.len() >= 2);
        assert_eq!(std::fs::read(dir.join("host_1.seg")).unwrap(), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_the_intact_prefix() {
        let dir = tmp_dir("truncated");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let reports = sample_reports(0);
        assert!(reports.len() >= 2);
        for r in &reports {
            archive.append(r).unwrap();
        }
        drop(archive);

        let path = dir.join("host_0.seg");
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-way through the last record: the crash-mid-append shape.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.damaged_tails, vec![0]);
        assert_eq!(scan.reports.len(), reports.len() - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_is_detected_and_quarantines_the_tail() {
        let dir = tmp_dir("bitflip");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let reports = sample_reports(0);
        for r in &reports {
            archive.append(r).unwrap();
        }
        drop(archive);

        let path = dir.join("host_0.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // damage inside the last record's payload
        std::fs::write(&path, &bytes).unwrap();

        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.damaged_tails, vec![0]);
        assert_eq!(scan.reports.len(), reports.len() - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_appends_instead_of_clobbering() {
        let dir = tmp_dir("reopen");
        let reports = sample_reports(0);
        assert!(reports.len() >= 2);
        {
            let mut archive = PeriodArchive::open(&dir).unwrap();
            archive.append(&reports[0]).unwrap();
        }
        {
            let mut archive = PeriodArchive::open(&dir).unwrap();
            archive.append(&reports[1]).unwrap();
        }
        let scan = PeriodArchive::scan(&dir).unwrap();
        assert!(scan.damaged_tails.is_empty());
        assert_eq!(scan.reports.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scanning_a_missing_directory_is_empty_not_an_error() {
        let scan = PeriodArchive::scan(tmp_dir("never_created")).unwrap();
        assert!(scan.reports.is_empty());
        assert!(scan.damaged_tails.is_empty());
    }

    #[test]
    fn read_back_by_location_roundtrips() {
        let dir = tmp_dir("readback");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let reports = sample_reports(2);
        let mut locs = Vec::new();
        for r in &reports {
            locs.push(archive.append(r).unwrap());
        }
        drop(archive);

        for (r, loc) in reports.iter().zip(&locs) {
            let got = PeriodArchive::read_payload_at(&dir, 2, *loc)
                .unwrap()
                .expect("record verifies");
            assert_eq!(*got, *r.encode(), "the payload is the report's encoding");
        }
        // The scan reports the same locations append returned.
        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.locs, locs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_counted_and_truncation_makes_the_segment_clean_again() {
        let dir = tmp_dir("torn_truncate");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let reports = sample_reports(0);
        assert!(reports.len() >= 2);
        for r in &reports {
            archive.append(r).unwrap();
        }
        drop(archive);

        let path = dir.join("host_0.seg");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.damaged_tails, vec![0]);
        let tail = scan.torn_tails[0];
        assert_eq!(tail.lost_records, 1);
        assert!(tail.lost_bytes > 0);
        assert_eq!(scan.reports.len(), reports.len() - 1);

        // Truncate the damage; a re-appended record must be scannable
        // (not hidden behind unreachable garbage).
        let mut archive = PeriodArchive::open(&dir).unwrap();
        archive.truncate_damage(&scan).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            tail.intact_bytes,
            "segment truncated to its intact prefix"
        );
        archive.append(reports.last().unwrap()).unwrap();
        drop(archive);

        let rescan = PeriodArchive::scan(&dir).unwrap();
        assert!(rescan.damaged_tails.is_empty());
        assert_eq!(rescan.reports.len(), reports.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_damage_walk_counts_every_record_behind_the_tear() {
        let dir = tmp_dir("walk_count");
        let mut archive = PeriodArchive::open(&dir).unwrap();
        let reports = sample_reports(0);
        assert!(reports.len() >= 3);
        let mut locs = Vec::new();
        for r in &reports {
            locs.push(archive.append(r).unwrap());
        }
        drop(archive);

        // Flip a byte inside the SECOND record's payload: everything from
        // that record on is quarantined, but framing still counts them.
        let path = dir.join("host_0.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let hit = locs[1].offset as usize + HEADER + 3;
        bytes[hit] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.reports.len(), 1);
        let tail = scan.torn_tails[0];
        assert_eq!(tail.lost_records, (reports.len() - 1) as u64);
        assert_eq!(tail.intact_bytes, locs[1].offset);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_without_magic_is_a_damaged_tail() {
        let dir = tmp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("host_4.seg"), b"not a segment").unwrap();
        std::fs::write(dir.join("README"), b"ignored").unwrap();
        let scan = PeriodArchive::scan(&dir).unwrap();
        assert_eq!(scan.damaged_tails, vec![4]);
        assert!(scan.reports.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
