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
    get_varint(buf, pos).map(unzigzag)
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

// ---------------------------------------------------------------------------
// Random access into an encoding
//
// A reader that needs a few epochs of a stored report should not decode all
// of them into owned vectors. [`ReportTable::build`] makes one validating
// pass over a `SketchReport` encoding and records where each heavy key,
// light tag and epoch starts; an [`EncodedEpoch`] then parses one epoch
// straight into the reconstruction kernel. The pass skips coefficient lists
// eight bytes at a time by counting varint terminator bytes, and falls back
// to the exact byte loop wherever that cannot prove a list valid, so it
// accepts exactly the bytes `SketchReport::decode` accepts.
// ---------------------------------------------------------------------------

/// One stored epoch, decoded ([`BucketReport`]) or still encoded
/// ([`EncodedEpoch`]): its span and its clamped reconstruction. Both forms
/// hand the kernel the same operands, so a series summed from either is
/// bit-identical.
pub trait EpochSource {
    /// `(w0, padded_len)`: the first window and the padded epoch length.
    fn span(&self) -> (u64, usize);
    /// The clamped per-window reconstruction, in `scratch`.
    fn reconstruct_with<'s>(
        &self,
        scratch: &'s mut crate::reconstruct::ReconstructScratch,
    ) -> &'s [f64];
}

impl EpochSource for BucketReport {
    fn span(&self) -> (u64, usize) {
        (self.w0, self.padded_len)
    }
    fn reconstruct_with<'s>(
        &self,
        scratch: &'s mut crate::reconstruct::ReconstructScratch,
    ) -> &'s [f64] {
        BucketReport::reconstruct_with(self, scratch)
    }
}

impl<T: EpochSource + ?Sized> EpochSource for &T {
    fn span(&self) -> (u64, usize) {
        (**self).span()
    }
    fn reconstruct_with<'s>(
        &self,
        scratch: &'s mut crate::reconstruct::ReconstructScratch,
    ) -> &'s [f64] {
        (**self).reconstruct_with(scratch)
    }
}

/// Terminator bits of a little-endian word of varint bytes: the top bit of
/// each byte that ends a varint.
const fn varint_ends(w: u64) -> u64 {
    !w & 0x8080_8080_8080_8080
}

/// The varint whose bytes are the low `bits / 8` bytes of `w`.
#[inline]
fn varint_in_word(w: u64, bits: u32) -> u64 {
    let x = if bits >= 64 { w } else { w & ((1 << bits) - 1) };
    // Pack the 7-bit groups: pairs, then quads, then the word.
    let x = x & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

const fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The little-endian word at `pos`, if eight bytes are left.
#[inline]
fn word_at(buf: &[u8], pos: usize) -> Option<u64> {
    let word = buf.get(pos..pos + 8)?;
    Some(u64::from_le_bytes(word.try_into().expect("eight bytes")))
}

/// Reads one varint of an encoding [`ReportTable::build`] accepted: one
/// little-endian word when eight bytes are left and the varint ends inside
/// it, [`get_varint`] otherwise. Never panics on other bytes, but only a
/// validated encoding gives the value `get_varint` would.
#[inline]
fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    if let Some(w) = word_at(buf, *pos) {
        let ends = varint_ends(w);
        if ends != 0 {
            // `bits` is eight times the varint's length in bytes.
            let bits = ends.trailing_zeros() + 1;
            *pos += (bits / 8) as usize;
            return varint_in_word(w, bits);
        }
    }
    get_varint(buf, pos).unwrap_or(0)
}

/// Reads one detail — level, index, zigzag value — as [`read_varint`]
/// would. The common shape takes one word and no branch on lengths: a
/// one-byte level and index (every detail of an epoch up to 256 windows)
/// and a value that ends within the next six bytes.
#[inline]
fn read_detail(buf: &[u8], pos: &mut usize) -> (u32, u32, i64) {
    if let Some(w) = word_at(buf, *pos) {
        let v = w >> 16;
        let ends = varint_ends(v) & 0x0000_ffff_ffff_ffff;
        if w & 0x8080 == 0 && ends != 0 {
            let bits = ends.trailing_zeros() + 1;
            *pos += 2 + (bits / 8) as usize;
            let (level, idx) = ((w & 0x7f) as u32, ((w >> 8) & 0x7f) as u32);
            return (level, idx, unzigzag(varint_in_word(v, bits)));
        }
    }
    let level = read_varint(buf, pos) as u32;
    let idx = read_varint(buf, pos) as u32;
    (level, idx, unzigzag(read_varint(buf, pos)))
}

/// Skips `n` varints from `pos` if every one of them is at most four bytes
/// long, so that each is a valid `u32` and a valid coefficient: the position
/// after the last. `None` when the bytes run out or a run of four
/// continuation bytes shows up (possibly a longer varint, possibly past the
/// `n`th): the caller settles those with the exact byte loop. Eight bytes a
/// step: a byte whose top bit is clear ends a varint.
fn skip_short_varints(buf: &[u8], mut pos: usize, mut n: usize) -> Option<usize> {
    // Continuation bytes since the last terminator.
    let mut run = 0u32;
    while n > 0 {
        let Some(w) = word_at(buf, pos) else {
            break;
        };
        let ends = varint_ends(w);
        let more = w & 0x8080_8080_8080_8080;
        // Four continuation bytes in a row inside the word, or a run carried
        // in from the last word that reaches four before this one ends it.
        if more & (more >> 8) & (more >> 16) & (more >> 24) != 0
            || run + ends.trailing_zeros() / 8 > 3
        {
            return None;
        }
        let count = ends.count_ones() as usize;
        if count >= n {
            let mut e = ends;
            for _ in 1..n {
                e &= e - 1;
            }
            return Some(pos + (e.trailing_zeros() / 8) as usize + 1);
        }
        n -= count;
        run = ends.leading_zeros() / 8;
        pos += 8;
    }
    while n > 0 {
        let &b = buf.get(pos)?;
        pos += 1;
        if b & 0x80 == 0 {
            n -= 1;
            run = 0;
        } else if run == 3 {
            return None;
        } else {
            run += 1;
        }
    }
    Some(pos)
}

/// Validates one [`BucketReport`] encoding at `pos` without decoding it:
/// the position after it, or `None` exactly when
/// [`BucketReport::decode_from`] fails there.
fn skip_epoch(buf: &[u8], mut pos: usize) -> Option<usize> {
    get_varint(buf, &mut pos)?;
    u32::try_from(get_varint(buf, &mut pos)?).ok()?;
    checked_len(get_varint(buf, &mut pos)?)?;
    let n = get_list_len(buf, &mut pos)?;
    pos = match skip_short_varints(buf, pos, n) {
        Some(end) => end,
        None => {
            for _ in 0..n {
                get_varint(buf, &mut pos)?;
            }
            pos
        }
    };
    let n = get_list_len(buf, &mut pos)?;
    Some(match skip_short_varints(buf, pos, 3 * n) {
        Some(end) => end,
        None => {
            for _ in 0..n {
                u32::try_from(get_varint(buf, &mut pos)?).ok()?;
                u32::try_from(get_varint(buf, &mut pos)?).ok()?;
                get_varint(buf, &mut pos)?;
            }
            pos
        }
    })
}

/// One entry of a [`ReportTable`]: a heavy key's `(offset, length)` in the
/// encoding or a light bucket's `(row, col)`, and the index of its first
/// epoch in the table's epoch list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableEntry {
    tag: [u32; 2],
    first_epoch: u32,
}

/// Where each entry and epoch of one [`SketchReport`] encoding starts, so a
/// reader can pick entries by key or tag and parse only the epochs it
/// needs ([`EncodedEpoch`]). Holds offsets, not the bytes: pass the same
/// encoding to every accessor.
#[derive(Debug, PartialEq, Eq)]
pub struct ReportTable {
    /// Heavy entries, then light entries, in encoding order.
    entries: Box<[TableEntry]>,
    /// How many of `entries` are heavy.
    heavy: usize,
    /// Byte offset of every epoch, in encoding order.
    epochs: Box<[u32]>,
}

impl ReportTable {
    /// One validating pass over `buf`: `Some` exactly when
    /// [`SketchReport::decode`] accepts `buf` (encodings longer than
    /// `u32::MAX` bytes are refused outright). Never panics, and allocates
    /// at most a small multiple of `buf.len()`: every count it reserves for
    /// is checked against the bytes left, as the decoder's are.
    pub fn build(buf: &[u8]) -> Option<Self> {
        u32::try_from(buf.len()).ok()?;
        let mut pos = 0;
        let mut epochs = Vec::new();
        let read_epochs = |pos: &mut usize, epochs: &mut Vec<u32>| -> Option<()> {
            for _ in 0..get_list_len(buf, pos)? {
                epochs.push(*pos as u32);
                *pos = skip_epoch(buf, *pos)?;
            }
            Some(())
        };
        let heavy = get_list_len(buf, &mut pos)?;
        let mut entries = Vec::with_capacity(heavy);
        for _ in 0..heavy {
            let key_len = get_list_len(buf, &mut pos)?;
            let tag = [pos as u32, key_len as u32];
            pos += key_len;
            entries.push(TableEntry {
                tag,
                first_epoch: epochs.len() as u32,
            });
            read_epochs(&mut pos, &mut epochs)?;
        }
        let light = get_list_len(buf, &mut pos)?;
        entries.reserve_exact(light);
        for _ in 0..light {
            let row = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
            let col = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
            entries.push(TableEntry {
                tag: [row, col],
                first_epoch: epochs.len() as u32,
            });
            read_epochs(&mut pos, &mut epochs)?;
        }
        (pos == buf.len()).then(|| Self {
            entries: entries.into_boxed_slice(),
            heavy,
            epochs: epochs.into_boxed_slice(),
        })
    }

    /// Heap bytes the table holds.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.entries) + std::mem::size_of_val(&*self.epochs)
    }

    /// Number of heavy entries.
    pub fn heavy_len(&self) -> usize {
        self.heavy
    }

    /// Number of light entries.
    pub fn light_len(&self) -> usize {
        self.entries.len() - self.heavy
    }

    /// Heavy entry `i`'s flow key bytes in `buf`.
    pub fn heavy_key<'b>(&self, buf: &'b [u8], i: usize) -> &'b [u8] {
        let [at, len] = self.entries[i].tag;
        &buf[at as usize..(at + len) as usize]
    }

    /// Light entry `i`'s `(row, col)`.
    pub fn light_tag(&self, i: usize) -> (u32, u32) {
        let [row, col] = self.entries[self.heavy + i].tag;
        (row, col)
    }

    /// Heavy entry `i`'s epochs in `buf`, in encoding order.
    pub fn heavy_epochs<'b>(
        &'b self,
        buf: &'b [u8],
        i: usize,
    ) -> impl Iterator<Item = EncodedEpoch<'b>> + Clone + 'b {
        self.entry_epochs(buf, i)
    }

    /// Light entry `i`'s epochs in `buf`, in encoding order.
    pub fn light_epochs<'b>(
        &'b self,
        buf: &'b [u8],
        i: usize,
    ) -> impl Iterator<Item = EncodedEpoch<'b>> + Clone + 'b {
        self.entry_epochs(buf, self.heavy + i)
    }

    fn entry_epochs<'b>(
        &'b self,
        buf: &'b [u8],
        e: usize,
    ) -> impl Iterator<Item = EncodedEpoch<'b>> + Clone + 'b {
        let first = self.entries[e].first_epoch as usize;
        let end = (self.entries.get(e + 1)).map_or(self.epochs.len(), |n| n.first_epoch as usize);
        (self.epochs[first..end].iter()).map(move |&at| EncodedEpoch(&buf[at as usize..]))
    }
}

/// One epoch inside an encoding a [`ReportTable`] accepted: the bytes from
/// the epoch's start to the end of the encoding, parsed on demand.
#[derive(Debug, Clone, Copy)]
pub struct EncodedEpoch<'b>(&'b [u8]);

impl EncodedEpoch<'_> {
    /// The fields ahead of the coefficients — `w0`, levels, padded length —
    /// and the position after them.
    fn header(&self) -> (u64, u32, usize, usize) {
        let mut pos = 0;
        let w0 = read_varint(self.0, &mut pos);
        let levels = read_varint(self.0, &mut pos) as u32;
        let padded_len = read_varint(self.0, &mut pos) as usize;
        (w0, levels, padded_len, pos)
    }

    /// The epoch as [`BucketReport::decode_from`] reads it.
    pub fn decode(&self) -> Option<BucketReport> {
        BucketReport::decode_from(self.0, &mut 0)
    }
}

impl EpochSource for EncodedEpoch<'_> {
    fn span(&self) -> (u64, usize) {
        let (w0, _, padded_len, _) = self.header();
        (w0, padded_len)
    }

    /// Parses the approximation list into the scratch and streams the
    /// details straight into the kernel: no per-epoch allocation once the
    /// scratch is warm, and the kernel's operands are the decoded report's.
    fn reconstruct_with<'s>(
        &self,
        scratch: &'s mut crate::reconstruct::ReconstructScratch,
    ) -> &'s [f64] {
        let buf = self.0;
        let (_, levels, padded_len, mut pos) = self.header();
        let mut approx = std::mem::take(&mut scratch.approx);
        approx.clear();
        let n = read_varint(buf, &mut pos) as usize;
        approx.extend((0..n).map(|_| unzigzag(read_varint(buf, &mut pos))));
        let n = read_varint(buf, &mut pos) as usize;
        let details = (0..n).map(|_| read_detail(buf, &mut pos));
        crate::reconstruct::reconstruct_sparse_non_negative_into(
            levels, padded_len, &approx, details, scratch,
        );
        scratch.approx = approx;
        &scratch.out
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

    /// A report whose varints span every length from 1 to 10 bytes: small
    /// and huge coefficients, levels and indices at the `u32` edge, a key
    /// that is not 13 bytes, entries without epochs.
    fn ragged_sketch_report() -> SketchReport {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut epoch = |w0: u64| {
            let n = (next() % 5) as usize;
            let approx = (0..n).map(|_| next() as i64 >> (next() % 64)).collect();
            let details = (0..(next() % 9))
                .map(|_| DetailRecord {
                    level: (next() >> (next() % 64)) as u32,
                    idx: (next() % 3000) as u32,
                    val: next() as i64 >> (next() % 64),
                })
                .collect();
            BucketReport {
                w0,
                levels: 8,
                padded_len: 256,
                approx,
                details,
            }
        };
        let mut sr = SketchReport::default();
        sr.heavy.push((vec![3u8; 13], vec![epoch(7), epoch(300)]));
        sr.heavy.push((vec![9u8; 4], vec![]));
        sr.heavy.push((vec![1u8; 13], vec![epoch(u64::MAX)]));
        for col in 0..6 {
            sr.light.push((
                col % 3,
                col * 1000,
                (0..col).map(|i| epoch(i as u64)).collect(),
            ));
        }
        sr.light.push((u32::MAX, u32::MAX, vec![epoch(1 << 40)]));
        sr
    }

    #[test]
    fn read_varint_matches_the_byte_loop_at_every_length_and_offset() {
        let mut values = vec![0u64, 1, u64::MAX];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        for &v in &values {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            for pad in 0..10 {
                let mut buf = vec![0x80u8; pad];
                buf.extend_from_slice(&enc);
                let tail = buf.len();
                buf.extend_from_slice(&[0xFF; 3]);
                for end in [tail, buf.len()] {
                    let (mut a, mut b) = (pad, pad);
                    assert_eq!(read_varint(&buf[..end], &mut a), v, "{v} at {pad}");
                    assert_eq!(get_varint(&buf[..end], &mut b), Some(v));
                    assert_eq!(a, b, "{v} at {pad}: position");
                }
            }
        }
    }

    #[test]
    fn read_detail_matches_three_byte_loops() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            1 << 20,
            1 << 27,
            1 << 28,
            u32::MAX as u64,
        ];
        let vals = [0i64, -1, 5, -300, 1 << 40, i64::MIN, i64::MAX];
        for &level in &values {
            for &idx in &values {
                for &val in &vals {
                    let mut buf = Vec::new();
                    put_varint(&mut buf, level);
                    put_varint(&mut buf, idx);
                    put_varint_i64(&mut buf, val);
                    let end = buf.len();
                    buf.extend_from_slice(&[0x80; 9]);
                    for b in [&buf[..end], &buf[..]] {
                        let mut pos = 0;
                        let got = read_detail(b, &mut pos);
                        assert_eq!(got, (level as u32, idx as u32, val), "{level} {idx} {val}");
                        assert_eq!(pos, end);
                    }
                }
            }
        }
    }

    /// `ReportTable::build` accepts exactly what `SketchReport::decode`
    /// accepts — the whole encoding, every truncation, every single-bit
    /// flip — and an accepted table reads back the decoded report: keys,
    /// tags and every epoch, whose reconstruction has the same bits.
    #[test]
    fn table_accepts_exactly_what_decode_accepts() {
        let mut scratch = crate::reconstruct::ReconstructScratch::new();
        for sr in [sample_sketch_report(), ragged_sketch_report()] {
            let bytes = sr.encode();
            let mut cases: Vec<Vec<u8>> = vec![bytes.clone()];
            cases.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
            for bit in 0..bytes.len() * 8 {
                let mut b = bytes.clone();
                b[bit / 8] ^= 1 << (bit % 8);
                cases.push(b);
            }
            let mut accepted = 0;
            for b in &cases {
                let (table, decoded) = (ReportTable::build(b), SketchReport::decode(b));
                assert_eq!(table.is_some(), decoded.is_some(), "{b:?}");
                let (Some(t), Some(d)) = (table, decoded) else {
                    continue;
                };
                accepted += 1;
                assert!(
                    t.heap_bytes() <= 16 * b.len(),
                    "{} for {}",
                    t.heap_bytes(),
                    b.len()
                );
                assert_eq!(
                    (t.heavy_len(), t.light_len()),
                    (d.heavy.len(), d.light.len())
                );
                let heavy = (0..t.heavy_len()).map(|i| {
                    let epochs = t.heavy_epochs(b, i).map(|e| e.decode().expect("accepted"));
                    (t.heavy_key(b, i).to_vec(), epochs.collect::<Vec<_>>())
                });
                assert_eq!(heavy.collect::<Vec<_>>(), d.heavy);
                let light = (0..t.light_len()).map(|i| {
                    let (row, col) = t.light_tag(i);
                    let epochs = t.light_epochs(b, i).map(|e| e.decode().expect("accepted"));
                    (row, col, epochs.collect::<Vec<_>>())
                });
                assert_eq!(light.collect::<Vec<_>>(), d.light);
                let encoded = (0..t.heavy_len()).flat_map(|i| t.heavy_epochs(b, i));
                let encoded = encoded.chain((0..t.light_len()).flat_map(|i| t.light_epochs(b, i)));
                let decoded = d.heavy.iter().flat_map(|e| &e.1);
                let decoded = decoded.chain(d.light.iter().flat_map(|e| &e.2));
                for (e, r) in encoded.zip(decoded) {
                    assert_eq!(e.span(), (r.w0, r.padded_len));
                    let got: Vec<u64> = (e.reconstruct_with(&mut scratch).iter())
                        .map(|v| v.to_bits())
                        .collect();
                    let want: Vec<u64> = r.reconstruct().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want);
                }
            }
            assert!(accepted > 1, "some flips must still decode");
        }
        // A lying list length fails before anything is reserved for it.
        assert_eq!(ReportTable::build(&[0xFF, 0xFF, 0xFF, 0x07, 0]), None);
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
