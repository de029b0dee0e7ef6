//! Configuration for WaveSketch instances and the paper's Count-Min
//! placement: row `r` of flow `f` is column `h_r(f) mod width`, the heavy
//! slot is `h_heavy(f) mod heavy_rows` (§4.2, Fig. 6).

use crate::flow::FlowKey;
use crate::select::SelectorKind;

/// Hash tag of the heavy part (see [`SketchConfig::heavy_slot`]). Light rows
/// use tags `0..d`, so `0xFF` yields an independent stream.
pub(crate) const HEAVY_TAG: u64 = 0xFF;

/// How many light-row hashes a [`Placement`] can carry precomputed. Configs
/// with more rows fall back to hashing rows lazily (still correct, just not
/// batched) — `d = 3` is the paper default and 4 is ample headroom.
const MAX_PREHASH_ROWS: usize = 4;

/// `h % m`, with the hardware divide replaced by a mask when `m` is a power
/// of two — the common case, since widths and heavy-row counts default to
/// powers of two. The result is identical for every input.
#[inline]
pub(crate) fn fast_mod(h: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        h & (m - 1)
    } else {
        h % m
    }
}

/// Per-update placement state, computed once via [`SketchConfig::place`] and
/// reused across all light rows and the heavy slot: the packed key bytes and
/// the raw row/heavy hashes.
///
/// The derived indices are bit-identical to calling
/// [`SketchConfig::light_col`] / [`SketchConfig::heavy_slot`] per row; this
/// only removes redundant re-packing and re-hashing. All `d + 1` hashes of an
/// update are computed in one interleaved batch
/// ([`FlowKey::hash_packed_many`]) so their multiply chains overlap instead
/// of serializing — the single biggest cost of the pre-refactor packet path.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    packed: [u8; 13],
    /// Raw hashes for rows `0..prehashed_rows` (tags `0..d`).
    row_hashes: [u64; MAX_PREHASH_ROWS],
    /// Raw hash for the heavy slot (tag `0xFF`).
    heavy_hash: u64,
    /// How many leading entries of `row_hashes` are valid.
    prehashed_rows: u8,
}

impl Placement {
    /// The packed key this placement was computed for.
    #[inline]
    pub fn packed(&self) -> &[u8; 13] {
        &self.packed
    }
}

/// Parameters of a WaveSketch (basic or full).
///
/// Paper defaults (§7.1): `rows = 3`, `width = 256`, `levels = 8`, `topk` set
/// from the memory budget (32–256), `max_windows` from the measurement period
/// (20 ms at 8.192 μs windows ≈ 2442, rounded up to a power of two).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchConfig {
    /// Number of hash rows `d` in the light/basic part.
    pub rows: usize,
    /// Buckets per row `w`. Sized to the number of *concurrent* flows in a
    /// microsecond window, not the total flow count (§4.2).
    pub width: usize,
    /// Wavelet decomposition depth `L`. The approximation array keeps one
    /// entry per `2^L` windows.
    pub levels: u32,
    /// Number of detail coefficients `K` retained per bucket.
    pub topk: usize,
    /// Maximum number of windows `n` a bucket can cover before it rolls over
    /// to a fresh epoch. Must be a power of two and `>= 2^levels`.
    pub max_windows: usize,
    /// Heavy-part rows `h` for the full version (ignored by the basic one).
    pub heavy_rows: usize,
    /// Which coefficient-selection strategy buckets use.
    pub selector: SelectorKind,
    /// Hash seed; two sketches with the same seed hash identically.
    pub seed: u64,
}

impl SketchConfig {
    /// Starts a builder pre-loaded with the paper's defaults.
    pub fn builder() -> SketchConfigBuilder {
        SketchConfigBuilder::default()
    }

    /// Entries in each bucket's approximation array: `ceil(n / 2^L)`.
    pub fn approx_len(&self) -> usize {
        let block = 1usize << self.levels;
        self.max_windows.div_ceil(block)
    }

    /// In-dataplane memory of one bucket in bytes.
    ///
    /// Counts the fixed fields (`w0`: 4 B, `i`: 2 B, `c`: 4 B), the
    /// approximation array (4 B per entry), the retained detail store
    /// (4 B value + 2 B level/index metadata per slot, the α ≈ 1.5 factor of
    /// §4.2) and the `L` in-flight partial details (4 B value + 2 B index).
    pub fn bucket_bytes(&self) -> usize {
        let fixed = 4 + 2 + 4;
        let approx = 4 * self.approx_len();
        let details = 6 * self.topk;
        let partial = 6 * self.levels as usize;
        fixed + approx + details + partial
    }

    /// Total in-dataplane memory of the basic sketch in bytes.
    pub fn basic_bytes(&self) -> usize {
        self.rows * self.width * self.bucket_bytes()
    }

    /// Total in-dataplane memory of the full sketch in bytes. Each heavy row
    /// adds a flow key (13 B for an IPv4 5-tuple) and a 4 B vote counter on
    /// top of the bucket itself.
    pub fn full_bytes(&self) -> usize {
        self.basic_bytes() + self.heavy_rows * (self.bucket_bytes() + 13 + 4)
    }

    /// A stable fingerprint of every knob that affects hashing and
    /// reconstruction. Reports tagged with a different fingerprint cannot be
    /// reconstructed correctly (wrong bucket placement or wavelet depth), so
    /// the analyzer refuses them.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.rows as u64,
            self.width as u64,
            self.levels as u64,
            self.max_windows as u64,
            self.heavy_rows as u64,
            self.seed,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Computes the per-update [`Placement`] once — packs the key and batches
    /// all `d + 1` hashes (light rows, heavy slot) through one interleaved
    /// pass — to be reused by [`Self::light_col_placed`] and
    /// [`Self::heavy_slot_placed`].
    #[inline]
    pub fn place(&self, flow: &FlowKey) -> Placement {
        self.place_packed(&flow.pack())
    }

    /// [`Self::place`] of an already packed key ([`FlowKey::pack`]'s 13
    /// bytes, the form heavy keys travel in), without unpacking it first.
    #[inline]
    pub fn place_packed(&self, packed: &[u8; 13]) -> Placement {
        let packed = *packed;
        let mut row_hashes = [0u64; MAX_PREHASH_ROWS];
        let (heavy_hash, prehashed_rows) = match self.rows {
            1 => {
                let [r0, hh] = FlowKey::hash_packed_many(&packed, [0, HEAVY_TAG], self.seed);
                row_hashes[0] = r0;
                (hh, 1u8)
            }
            2 => {
                let [r0, r1, hh] = FlowKey::hash_packed_many(&packed, [0, 1, HEAVY_TAG], self.seed);
                row_hashes[..2].copy_from_slice(&[r0, r1]);
                (hh, 2)
            }
            3 => {
                let [r0, r1, r2, hh] =
                    FlowKey::hash_packed_many(&packed, [0, 1, 2, HEAVY_TAG], self.seed);
                row_hashes[..3].copy_from_slice(&[r0, r1, r2]);
                (hh, 3)
            }
            4 => {
                let [r0, r1, r2, r3, hh] =
                    FlowKey::hash_packed_many(&packed, [0, 1, 2, 3, HEAVY_TAG], self.seed);
                row_hashes[..4].copy_from_slice(&[r0, r1, r2, r3]);
                (hh, 4)
            }
            // Unusually deep sketches hash rows lazily in `light_col_placed`.
            _ => (FlowKey::hash_packed(&packed, HEAVY_TAG, self.seed), 0),
        };
        Placement {
            packed,
            row_hashes,
            heavy_hash,
            prehashed_rows,
        }
    }

    /// [`Self::light_col`] from a precomputed [`Placement`].
    #[inline]
    pub fn light_col_placed(&self, p: &Placement, row: usize) -> usize {
        let row_hash = if row < p.prehashed_rows as usize {
            p.row_hashes[row]
        } else {
            FlowKey::hash_packed(&p.packed, row as u64, self.seed)
        };
        fast_mod(row_hash, self.width as u64) as usize
    }

    /// [`Self::heavy_slot`] from a precomputed [`Placement`].
    #[inline]
    pub fn heavy_slot_placed(&self, p: &Placement) -> usize {
        fast_mod(p.heavy_hash, self.heavy_rows as u64) as usize
    }

    /// Light-part column of `flow` in `row`: `h_row(flow) mod width`.
    #[inline]
    pub fn light_col(&self, flow: &FlowKey, row: usize) -> usize {
        self.light_col_placed(&self.place(flow), row)
    }

    /// Heavy-part slot of `flow`: `h_heavy(flow) mod heavy_rows`.
    #[inline]
    pub fn heavy_slot(&self, flow: &FlowKey) -> usize {
        self.heavy_slot_placed(&self.place(flow))
    }

    /// Report size in bytes for one *active* bucket: `w0` plus the
    /// approximation array plus the retained details with metadata (§4.2:
    /// bandwidth is `O(n/2^L + K)` with metadata factor α).
    pub fn report_bytes_per_bucket(&self) -> usize {
        4 + 4 * self.approx_len() + 6 * self.topk
    }

    fn validate(&self) {
        assert!(self.rows > 0, "rows must be positive");
        assert!(self.width > 0, "width must be positive");
        assert!(
            self.levels > 0 && self.levels < 32,
            "levels must be in 1..32"
        );
        assert!(self.topk > 0, "topk must be positive");
        assert!(
            self.max_windows.is_power_of_two(),
            "max_windows must be a power of two (got {})",
            self.max_windows
        );
        assert!(
            self.max_windows >= (1 << self.levels),
            "max_windows ({}) must be at least 2^levels ({})",
            self.max_windows,
            1u64 << self.levels
        );
    }
}

/// Builder for [`SketchConfig`], pre-loaded with the paper's defaults.
#[derive(Debug, Clone)]
pub struct SketchConfigBuilder {
    config: SketchConfig,
}

impl Default for SketchConfigBuilder {
    fn default() -> Self {
        Self {
            config: SketchConfig {
                rows: 3,
                width: 256,
                levels: 8,
                topk: 64,
                max_windows: 4096,
                heavy_rows: 256,
                selector: SelectorKind::Ideal,
                seed: 0x5EED_u64,
            },
        }
    }
}

impl SketchConfigBuilder {
    /// Sets the number of hash rows `d`.
    pub fn rows(mut self, d: usize) -> Self {
        self.config.rows = d;
        self
    }

    /// Sets the buckets per row `w`.
    pub fn width(mut self, w: usize) -> Self {
        self.config.width = w;
        self
    }

    /// Sets the wavelet depth `L`.
    pub fn levels(mut self, l: u32) -> Self {
        self.config.levels = l;
        self
    }

    /// Sets the retained-coefficient budget `K`.
    pub fn topk(mut self, k: usize) -> Self {
        self.config.topk = k;
        self
    }

    /// Sets the per-epoch window capacity `n` (rounded up to a power of two).
    pub fn max_windows(mut self, n: usize) -> Self {
        self.config.max_windows = n.next_power_of_two();
        self
    }

    /// Sets the heavy-part size `h` for the full version.
    pub fn heavy_rows(mut self, h: usize) -> Self {
        self.config.heavy_rows = h;
        self
    }

    /// Sets the coefficient-selection strategy.
    pub fn selector(mut self, s: SelectorKind) -> Self {
        self.config.selector = s;
        self
    }

    /// Sets the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range (zero sizes, `max_windows` smaller
    /// than one approximation block, …).
    pub fn build(self) -> SketchConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = SketchConfig::builder().build();
        assert_eq!(c.rows, 3);
        assert_eq!(c.width, 256);
        assert_eq!(c.levels, 8);
        assert_eq!(c.max_windows, 4096);
    }

    #[test]
    fn approx_len_is_windows_over_block() {
        let c = SketchConfig::builder().levels(8).max_windows(2048).build();
        assert_eq!(c.approx_len(), 8); // 2048 / 256
    }

    #[test]
    fn max_windows_rounds_up_to_power_of_two() {
        let c = SketchConfig::builder().max_windows(2442).build();
        assert_eq!(c.max_windows, 4096);
    }

    #[test]
    #[should_panic(expected = "at least 2^levels")]
    fn rejects_too_few_windows_for_depth() {
        SketchConfig::builder().levels(10).max_windows(512).build();
    }

    #[test]
    fn paper_compression_example_holds() {
        // §4.2: L=8, K=32, α=1.5, n=2000 → compression rate ≈ 0.028.
        // With n rounded to 2048: report = n/2^L entries + α·K entries.
        let c = SketchConfig::builder()
            .levels(8)
            .topk(32)
            .max_windows(2000)
            .build();
        let raw_entries = 2000.0;
        let kept_entries = c.approx_len() as f64 + 1.5 * 32.0;
        let ratio = kept_entries / raw_entries;
        assert!(
            ratio < 0.035,
            "ratio {ratio} should be near the paper's 0.028"
        );
    }

    /// Placement is the paper's Count-Min layout — each row and the heavy
    /// part hash the flow on their own, nothing routes it first — for
    /// power-of-two and other widths alike, through `place()`'s prehashed
    /// and lazily hashed rows alike, and from a packed key
    /// (`place_packed`) as from a `FlowKey`.
    #[test]
    fn placement_is_the_count_min_layout() {
        for width in [256usize, 12, 10, 1] {
            for heavy_rows in [256usize, 7] {
                for rows in [3usize, 6] {
                    let c = SketchConfig::builder()
                        .rows(rows)
                        .width(width)
                        .heavy_rows(heavy_rows)
                        .seed(0xC0FFEE)
                        .build();
                    for id in 0..500u64 {
                        let f = FlowKey::from_id(id);
                        let packed = c.place_packed(&f.pack());
                        for r in 0..rows {
                            let want = f.hash(r as u64, c.seed) % width as u64;
                            assert_eq!(
                                c.light_col(&f, r) as u64,
                                want,
                                "width {width}, row {r}, flow {id}"
                            );
                            assert_eq!(c.light_col_placed(&packed, r) as u64, want);
                        }
                        let want = f.hash(HEAVY_TAG, c.seed) % heavy_rows as u64;
                        assert_eq!(
                            c.heavy_slot(&f) as u64,
                            want,
                            "heavy_rows {heavy_rows}, flow {id}"
                        );
                        assert_eq!(c.heavy_slot_placed(&packed) as u64, want);
                    }
                }
            }
        }
    }

    #[test]
    fn placement_keeps_columns_uniformish() {
        let c = SketchConfig::builder().build();
        let mut counts = vec![0usize; c.width];
        let flows = 64 * c.width;
        for id in 0..flows as u64 {
            counts[c.light_col(&FlowKey::from_id(id), 0)] += 1;
        }
        // Every column reachable, no column pathologically hot.
        assert!(counts.iter().all(|&n| n > 0), "unreachable column");
        let max = *counts.iter().max().unwrap();
        assert!(max < 64 * 3, "hot column: {max} of expected 64");
    }

    #[test]
    fn memory_model_is_monotone_in_every_knob() {
        let base = SketchConfig::builder().build();
        let more_k = SketchConfig::builder().topk(128).build();
        let more_w = SketchConfig::builder().width(512).build();
        assert!(more_k.basic_bytes() > base.basic_bytes());
        assert!(more_w.basic_bytes() > base.basic_bytes());
        assert!(base.full_bytes() > base.basic_bytes());
    }
}
