//! The wire format a measurement point ships to the μMon analyzer and its
//! bandwidth accounting.
//!
//! Per §4.2, only `w0`, the approximation set `A` and the retained detail set
//! `D` travel to the analyzer: bandwidth is `O(n/2^L + K)` per bucket, with a
//! metadata factor α > 1 for each detail coefficient's level and index.

use crate::select::Candidate;
use crate::streaming::EpochCoefficients;
use serde::{Deserialize, Serialize};

/// A retained detail coefficient on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetailRecord {
    /// Loop level (0-based, spans `2^{level+1}` windows).
    pub level: u32,
    /// Position index within the level.
    pub idx: u32,
    /// Unnormalized coefficient value.
    pub val: i64,
}

impl From<Candidate> for DetailRecord {
    fn from(c: Candidate) -> Self {
        Self {
            level: c.level,
            idx: c.idx,
            val: c.val,
        }
    }
}

/// The compressed record of one bucket epoch: everything needed to
/// reconstruct the epoch's window series at the analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketReport {
    /// Absolute window id of the first window in the epoch.
    pub w0: u64,
    /// Wavelet depth the bucket ran with.
    pub levels: u32,
    /// Padded epoch length in windows (power of two).
    pub padded_len: usize,
    /// Approximation coefficients (block sums over `2^levels` windows).
    pub approx: Vec<i64>,
    /// Retained detail coefficients.
    pub details: Vec<DetailRecord>,
}

impl BucketReport {
    /// Packs finished epoch coefficients into a report.
    pub fn from_coeffs(w0: u64, coeffs: EpochCoefficients) -> Self {
        Self {
            w0,
            levels: coeffs.levels,
            padded_len: coeffs.padded_len,
            approx: coeffs.approx,
            details: coeffs.details.into_iter().map(DetailRecord::from).collect(),
        }
    }

    /// Rebuilds the coefficient set for [`crate::reconstruct::reconstruct`].
    pub fn coeffs(&self) -> EpochCoefficients {
        EpochCoefficients {
            levels: self.levels,
            padded_len: self.padded_len,
            approx: self.approx.clone(),
            details: self
                .details
                .iter()
                .map(|d| Candidate {
                    level: d.level,
                    idx: d.idx,
                    val: d.val,
                })
                .collect(),
        }
    }

    /// Reconstructed per-window values (non-negative clamped), anchored at
    /// [`Self::w0`].
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut scratch = crate::reconstruct::ReconstructScratch::new();
        self.reconstruct_with(&mut scratch).to_vec()
    }

    /// As [`Self::reconstruct`], but into a reusable scratch — the kernel
    /// runs straight off the wire fields, so a warm scratch makes this
    /// allocation-free.
    pub fn reconstruct_with<'a>(
        &self,
        scratch: &'a mut crate::reconstruct::ReconstructScratch,
    ) -> &'a [f64] {
        crate::reconstruct::reconstruct_sparse_non_negative_into(
            self.levels,
            self.padded_len,
            &self.approx,
            self.details.iter().map(|d| (d.level, d.idx, d.val)),
            scratch,
        )
    }

    /// Total bytes of the epoch (exact — approximation coefficients are block
    /// sums and all of them are retained).
    pub fn total(&self) -> i64 {
        self.approx.iter().sum()
    }

    /// On-the-wire size in bytes: 4 (w0, relative to the period base) +
    /// 4 per approximation coefficient + 6 per detail (4 value + 2 packed
    /// level/index metadata — the α factor of §4.2).
    pub fn wire_bytes(&self) -> usize {
        4 + 4 * self.approx.len() + 6 * self.details.len()
    }

    /// Compression ratio vs. shipping one 4-byte counter per (padded) window.
    pub fn compression_ratio(&self) -> f64 {
        if self.padded_len == 0 {
            return 1.0;
        }
        self.wire_bytes() as f64 / (4.0 * self.padded_len as f64)
    }
}

// ---------------------------------------------------------------------------
// Compact binary serialization
//
// The on-disk period archive (`umon::archive`) stores every accepted report
// forever, so its record payloads use a dense binary encoding instead of
// JSON: varint (LEB128) lengths and zigzag-varint coefficients. Coefficients
// are small deltas most of the time, so zigzag varints beat fixed-width i64
// by ~5-7x on real reports (see the codec tests). Decoding never panics on
// truncated or corrupt input — the archive's crash-recovery path feeds it
// arbitrary tails.
// ---------------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (small magnitudes → short varints).
fn put_varint_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads one LEB128 varint at `*pos`, advancing it. `None` on truncation or
/// a varint longer than 10 bytes (corrupt input).
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads one zigzag varint at `*pos`.
fn get_varint_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    let z = get_varint(buf, pos)?;
    Some(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Hard cap on decoded list lengths: a corrupt length prefix must fail the
/// decode, not attempt a multi-gigabyte allocation.
const MAX_DECODE_LEN: u64 = 1 << 24;

fn checked_len(v: u64) -> Option<usize> {
    (v <= MAX_DECODE_LEN).then_some(v as usize)
}

/// Reads a list's length prefix at `*pos`. `None` unless at least that many
/// bytes follow: every element encodes to at least one byte, so a longer
/// list cannot be there, and the `Vec::with_capacity` the caller makes from
/// the result is bounded by the size of the input, not by what it claims.
fn get_list_len(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let n = checked_len(get_varint(buf, pos)?)?;
    (n <= buf.len() - *pos).then_some(n)
}

impl BucketReport {
    /// Appends the compact binary encoding of this epoch to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.w0);
        put_varint(out, self.levels as u64);
        put_varint(out, self.padded_len as u64);
        put_varint(out, self.approx.len() as u64);
        for &a in &self.approx {
            put_varint_i64(out, a);
        }
        put_varint(out, self.details.len() as u64);
        for d in &self.details {
            put_varint(out, d.level as u64);
            put_varint(out, d.idx as u64);
            put_varint_i64(out, d.val);
        }
    }

    /// Decodes one epoch at `*pos`, advancing it past the record. `None` on
    /// truncated or corrupt input (never panics).
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let w0 = get_varint(buf, pos)?;
        let levels = u32::try_from(get_varint(buf, pos)?).ok()?;
        let padded_len = checked_len(get_varint(buf, pos)?)?;
        let n_approx = get_list_len(buf, pos)?;
        let mut approx = Vec::with_capacity(n_approx);
        for _ in 0..n_approx {
            approx.push(get_varint_i64(buf, pos)?);
        }
        let n_details = get_list_len(buf, pos)?;
        let mut details = Vec::with_capacity(n_details);
        for _ in 0..n_details {
            let level = u32::try_from(get_varint(buf, pos)?).ok()?;
            let idx = u32::try_from(get_varint(buf, pos)?).ok()?;
            let val = get_varint_i64(buf, pos)?;
            details.push(DetailRecord { level, idx, val });
        }
        Some(Self {
            w0,
            levels,
            padded_len,
            approx,
            details,
        })
    }
}

/// The one checksum of the collection plane and the archive: a
/// multiply-and-fold digest over `bytes` read as little-endian `u64` words,
/// word `i` into lane `i % 4`. The tail is zero-padded to a whole word and
/// the byte length is folded in last, so a prefix differs from the whole
/// even where the cut-off bytes were zeros.
///
/// Each step of a lane is a bijection of its state for a fixed word, and
/// the final fold is a bijection of each lane, so a change confined to one
/// word — every single-byte damage — always shows. Four lanes let the
/// multiplies overlap instead of waiting on one chain. Not cryptographic:
/// it guards against lossy transports and torn writes, not adversaries.
/// Part of the on-disk format (`UMONSEG2` records carry it).
pub fn digest(bytes: &[u8]) -> u64 {
    // One multiply per word, not per byte. The fold carries the top bits
    // back down: a multiply only moves differences up, so without it two
    // flips of bit 63 in one lane would cancel.
    fn mix(h: u64, v: u64) -> u64 {
        let h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        h ^ (h >> 32)
    }
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
    }
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    let mut step = |block: &[u8]| {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    };
    let blocks = bytes.chunks_exact(32);
    let rest = blocks.remainder();
    blocks.for_each(&mut step);
    if !rest.is_empty() {
        let mut tail = [0u8; 32];
        tail[..rest.len()].copy_from_slice(rest);
        step(&tail[..rest.len().next_multiple_of(8)]);
    }
    let h = lanes[1..].iter().fold(lanes[0], |h, &lane| mix(h, lane));
    mix(h, bytes.len() as u64)
}

/// A full sketch report: every active bucket's epochs from one measurement
/// period, as uploaded by a host agent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SketchReport {
    /// Reports from the heavy part, tagged with the exact flow key bytes.
    pub heavy: Vec<(Vec<u8>, Vec<BucketReport>)>,
    /// Reports from the light part, tagged with (row, bucket index).
    pub light: Vec<(u32, u32, Vec<BucketReport>)>,
}

impl SketchReport {
    /// Total wire size in bytes, including per-entry tags (13-byte flow key
    /// for heavy entries, 3-byte row/index for light entries).
    pub fn wire_bytes(&self) -> usize {
        let heavy: usize = self
            .heavy
            .iter()
            .map(|(k, rs)| k.len() + rs.iter().map(BucketReport::wire_bytes).sum::<usize>())
            .sum();
        let light: usize = self
            .light
            .iter()
            .map(|(_, _, rs)| 3 + rs.iter().map(BucketReport::wire_bytes).sum::<usize>())
            .sum();
        heavy + light
    }

    /// Number of bucket-epoch records carried.
    pub fn epoch_count(&self) -> usize {
        self.heavy.iter().map(|(_, r)| r.len()).sum::<usize>()
            + self.light.iter().map(|(_, _, r)| r.len()).sum::<usize>()
    }

    /// [`digest`] of this report's [`Self::encode`] bytes.
    ///
    /// The collection plane seals and verifies the whole
    /// `PeriodReport` encoding instead (`umon::collector`), and the archive
    /// stores that digest as its record checksum, so this is the same
    /// function over the report's own bytes: any change that alters the
    /// encoding — a dropped entry, a reordered record, a flipped
    /// coefficient — changes the value.
    pub fn integrity(&self) -> u64 {
        digest(&self.encode())
    }

    /// Appends the compact binary encoding of the whole report to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.heavy.len() as u64);
        for (key, reports) in &self.heavy {
            put_varint(out, key.len() as u64);
            out.extend_from_slice(key);
            put_varint(out, reports.len() as u64);
            for r in reports {
                r.encode_into(out);
            }
        }
        put_varint(out, self.light.len() as u64);
        for &(row, col, ref reports) in &self.light {
            put_varint(out, row as u64);
            put_varint(out, col as u64);
            put_varint(out, reports.len() as u64);
            for r in reports {
                r.encode_into(out);
            }
        }
    }

    /// Convenience: the compact binary encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one report at `*pos`, advancing it past the record. `None` on
    /// truncated or corrupt input (never panics).
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let n_heavy = get_list_len(buf, pos)?;
        let mut heavy = Vec::with_capacity(n_heavy);
        for _ in 0..n_heavy {
            let key_len = get_list_len(buf, pos)?;
            let key = buf.get(*pos..*pos + key_len)?.to_vec();
            *pos += key_len;
            let n_reports = get_list_len(buf, pos)?;
            let mut reports = Vec::with_capacity(n_reports);
            for _ in 0..n_reports {
                reports.push(BucketReport::decode_from(buf, pos)?);
            }
            heavy.push((key, reports));
        }
        let n_light = get_list_len(buf, pos)?;
        let mut light = Vec::with_capacity(n_light);
        for _ in 0..n_light {
            let row = u32::try_from(get_varint(buf, pos)?).ok()?;
            let col = u32::try_from(get_varint(buf, pos)?).ok()?;
            let n_reports = get_list_len(buf, pos)?;
            let mut reports = Vec::with_capacity(n_reports);
            for _ in 0..n_reports {
                reports.push(BucketReport::decode_from(buf, pos)?);
            }
            light.push((row, col, reports));
        }
        Some(Self { heavy, light })
    }

    /// Decodes a buffer that must contain exactly one report (no trailing
    /// bytes). `None` on truncation, corruption, or trailing garbage.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let report = Self::decode_from(buf, &mut pos)?;
        (pos == buf.len()).then_some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{CoeffSelector, IdealTopK};
    use crate::streaming::StreamingTransform;

    fn sample_report() -> BucketReport {
        let mut t = StreamingTransform::new(3, 16, IdealTopK::new(64));
        for (i, v) in [(0u32, 10i64), (1, 20), (5, 5), (9, 40)] {
            t.push(i, v);
        }
        BucketReport::from_coeffs(100, t.finish())
    }

    #[test]
    fn coeffs_roundtrip_through_report() {
        let r = sample_report();
        let rec = r.reconstruct();
        assert_eq!(rec.len(), r.padded_len);
        assert!((rec[0] - 10.0).abs() < 1e-9);
        assert!((rec[9] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn total_is_exact() {
        assert_eq!(sample_report().total(), 75);
    }

    #[test]
    fn wire_bytes_counts_all_fields() {
        let r = sample_report();
        assert_eq!(r.wire_bytes(), 4 + 4 * r.approx.len() + 6 * r.details.len());
    }

    #[test]
    fn compression_ratio_shrinks_for_long_epochs() {
        // 2048-window epoch, L=8, K=32: ratio should be near the paper's
        // 0.028 example (§4.2).
        let mut t = StreamingTransform::new(8, 2048, IdealTopK::new(32));
        for i in 0..2000u32 {
            t.push(i, ((i * 7919) % 1501) as i64);
        }
        let r = BucketReport::from_coeffs(0, t.finish());
        let ratio = r.compression_ratio();
        assert!(ratio < 0.05, "ratio {ratio} too large");
        assert!(ratio > 0.005, "ratio {ratio} implausibly small");
    }

    #[test]
    fn empty_selector_keeps_reports_small_but_valid() {
        let mut t = StreamingTransform::new(2, 8, IdealTopK::new(1));
        t.push(0, 100);
        let r = BucketReport::from_coeffs(0, t.finish());
        assert!(r.wire_bytes() >= 8);
        assert!(!r.reconstruct().is_empty());
    }

    #[test]
    fn sketch_report_accounting() {
        let r = sample_report();
        let mut sr = SketchReport::default();
        sr.heavy.push((vec![0u8; 13], vec![r.clone()]));
        sr.light.push((0, 5, vec![r.clone(), r.clone()]));
        assert_eq!(sr.epoch_count(), 3);
        assert_eq!(
            sr.wire_bytes(),
            13 + r.wire_bytes() + 3 + 2 * r.wire_bytes()
        );
    }

    #[test]
    fn integrity_detects_truncation_and_corruption() {
        let r = sample_report();
        let mut sr = SketchReport::default();
        sr.heavy.push((vec![1u8; 13], vec![r.clone()]));
        sr.light.push((0, 5, vec![r.clone(), r.clone()]));
        let base = sr.integrity();
        assert_eq!(base, sr.integrity(), "digest must be deterministic");

        let mut truncated = sr.clone();
        truncated.light.pop();
        assert_ne!(base, truncated.integrity(), "dropped entry undetected");

        let mut shorter = sr.clone();
        shorter.light[0].2.pop();
        assert_ne!(base, shorter.integrity(), "dropped epoch undetected");

        let mut flipped = sr.clone();
        flipped.heavy[0].1[0].approx[0] ^= 1;
        assert_ne!(base, flipped.integrity(), "flipped coefficient undetected");

        let mut retagged = sr.clone();
        retagged.light[0].1 = 6;
        assert_ne!(base, retagged.integrity(), "retagged column undetected");

        // Two flips of the top bit in neighbouring words: a multiply alone
        // leaves each in bit 63, where the second would undo the first.
        let mut twice = sr;
        twice.heavy[0].1[0].details[0].val ^= i64::MIN;
        twice.heavy[0].1[0].details[1].val ^= i64::MIN;
        assert_ne!(base, twice.integrity(), "paired top-bit flips cancelled");
    }

    /// `digest` is an on-disk format (every archive record carries it):
    /// known answers for an empty input, one whole word, and several blocks
    /// with a ragged tail.
    #[test]
    fn digest_known_answers() {
        let ramp: Vec<u8> = (0..37).collect();
        assert_eq!(digest(b""), 0xd950_6df2_e436_3726);
        assert_eq!(digest(b"UMONSEG2"), 0x41fc_c1f4_3f9c_47bf);
        assert_eq!(digest(&ramp), 0x6980_1f80_d081_b21d);
        // Zero padding is not data: the length tells a cut-off zero apart.
        assert_ne!(digest(&[1, 0]), digest(&[1]));
    }

    #[test]
    fn serde_roundtrip() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: BucketReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    fn sample_sketch_report() -> SketchReport {
        let r = sample_report();
        let mut negated = r.clone();
        for a in &mut negated.approx {
            *a = -*a;
        }
        for d in &mut negated.details {
            d.val = -d.val;
        }
        let mut sr = SketchReport::default();
        sr.heavy.push((vec![7u8; 13], vec![r.clone(), negated]));
        sr.heavy.push((vec![], vec![])); // degenerate entry must survive
        sr.light.push((0, 5, vec![r.clone()]));
        sr.light.push((2, 63, vec![r]));
        sr
    }

    #[test]
    fn binary_codec_roundtrips() {
        let sr = sample_sketch_report();
        let bytes = sr.encode();
        assert_eq!(SketchReport::decode(&bytes), Some(sr.clone()));
        // The dense encoding should be well under the nominal wire budget.
        assert!(bytes.len() <= sr.wire_bytes() + 32);

        // Extreme coefficient magnitudes roundtrip exactly.
        let extreme = BucketReport {
            w0: u64::MAX,
            levels: 31,
            padded_len: 1 << 20,
            approx: vec![i64::MIN, i64::MAX, 0, -1, 1],
            details: vec![DetailRecord {
                level: u32::MAX,
                idx: u32::MAX,
                val: i64::MIN,
            }],
        };
        let mut buf = Vec::new();
        extreme.encode_into(&mut buf);
        let mut pos = 0;
        assert_eq!(BucketReport::decode_from(&buf, &mut pos), Some(extreme));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn binary_decode_rejects_every_truncation() {
        let bytes = sample_sketch_report().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                SketchReport::decode(&bytes[..cut]),
                None,
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn binary_decode_rejects_trailing_garbage_and_huge_lengths() {
        let mut bytes = sample_sketch_report().encode();
        bytes.push(0);
        assert_eq!(SketchReport::decode(&bytes), None, "trailing byte accepted");

        // A length prefix claiming 2^40 heavy entries must fail cleanly
        // rather than attempt the allocation.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F];
        assert_eq!(SketchReport::decode(&huge), None);

        // So must one under the hard cap that the buffer cannot hold: an
        // epoch declaring 2^24 approximation entries with five bytes left
        // (tests/alloc_gate.rs checks that nothing is allocated for it).
        let lying = [0, 8, 0, 0x80, 0x80, 0x80, 0x08, 1, 2, 3, 4, 5];
        assert_eq!(BucketReport::decode_from(&lying, &mut 0), None);
    }

    #[test]
    fn details_are_offered_nonzero_only() {
        // A constant signal has zero detail coefficients everywhere — the
        // selector must not waste slots on them.
        let mut sel = IdealTopK::new(8);
        let mut t = StreamingTransform::new(3, 16, IdealTopK::new(8));
        for i in 0..16u32 {
            t.push(i, 42);
        }
        let out = t.finish();
        assert!(out.details.iter().all(|c| c.val != 0));
        sel.reset();
    }
}
