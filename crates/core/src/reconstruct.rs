//! Analyzer-side reconstruction of a window-counter series from compressed
//! wavelet coefficients (Algorithm 2).
//!
//! Reconstruction starts from the deepest level: each approximation
//! coefficient `a` and its (possibly discarded ⇒ zero) detail `d` expand into
//! two shallower approximations `(a + d) / 2` and `(a − d) / 2`, repeated
//! until window granularity is reached. It runs in `f64` — the analyzer is a
//! CPU, and halving odd sums is not exact in integers.
//!
//! Two implementations coexist:
//!
//! * [`reconstruct_dense`] — the textbook form: materialize every stage,
//!   look every expansion's detail up in a hash map. A `HashMap` and a fresh
//!   `Vec` per stage. Kept as the reference oracle.
//! * [`reconstruct_into`] — the block-dense kernel the analyzer uses. The
//!   retained details are scattered into a dense per-level plane held by the
//!   [`ReconstructScratch`]; then each block of `2^top` windows is handled on
//!   its own. A block that received no detail is the constant run
//!   `approx / 2^top`, one `slice::fill`. A block that received one runs the
//!   same `top` butterfly stages as the oracle, reading its details as
//!   contiguous slices of the plane, so each stage is a branch-free loop the
//!   compiler vectorizes. Work is O(k + padded_len) whatever `k` is, and a
//!   warm scratch performs no heap allocation at all.
//!
//! The two are **bit-identical**, not merely close, which is what lets the
//! golden query fixtures pin curves as raw `f64` bit patterns. A block with
//! details performs literally the oracle's operations on the oracle's
//! operands (an absent detail is `+0.0` in the plane, `0 as f64` in the
//! oracle). A detail-free block relies on two facts:
//!
//! * halving an f64 is exact (an exponent decrement — the values here are
//!   i64-derived block sums divided at most `levels` ≤ 32 times, nowhere near
//!   the subnormal range), so `top` successive `/ 2.0` equal the run value
//!   computed the same way;
//! * a zero detail expands `a` into `(a + 0) / 2 = (a − 0) / 2 = a / 2` with
//!   no rounding introduced by the addition (`a + 0.0 == a` exactly unless
//!   `a` is `-0.0`, and `-0.0` never arises: inputs are `i64 as f64` and
//!   `x − x` rounds to `+0.0`), so skipping the expansions loses nothing.

use crate::streaming::EpochCoefficients;
use std::collections::HashMap;

/// Reference implementation: materializes every stage of the inverse
/// transform with a hash-map detail lookup. See the module docs; use
/// [`reconstruct`] (or [`reconstruct_into`] with a scratch) instead unless
/// you are differential-testing the kernel against it.
pub fn reconstruct_dense(coeffs: &EpochCoefficients) -> Vec<f64> {
    if coeffs.padded_len == 0 {
        return Vec::new();
    }
    // Effective depth: the transform stops early for short sequences.
    let top = coeffs.levels.min(coeffs.padded_len.trailing_zeros());

    // Index the retained details by (level, idx) for O(1) lookup.
    let mut details: HashMap<(u32, u32), i64> = HashMap::with_capacity(coeffs.details.len());
    for c in &coeffs.details {
        details.insert((c.level, c.idx), c.val);
    }

    // Start at block size 2^top; the approximation array stores one entry per
    // 2^levels windows, which equals 2^top unless the sequence is shorter
    // than one block (then a single entry covers everything).
    let blocks = coeffs.padded_len >> top;
    let mut cur: Vec<f64> = (0..blocks)
        .map(|p| coeffs.approx.get(p).copied().unwrap_or(0) as f64)
        .collect();

    for l in (0..top).rev() {
        let mut next = Vec::with_capacity(cur.len() * 2);
        for (q, &a) in cur.iter().enumerate() {
            let d = details.get(&(l, q as u32)).copied().unwrap_or(0) as f64;
            next.push((a + d) / 2.0);
            next.push((a - d) / 2.0);
        }
        cur = next;
    }
    cur
}

/// Reusable buffers for the kernel. One scratch serves any number of
/// sequential reconstructions; after it has seen each epoch shape once, no
/// further heap allocation happens.
#[derive(Debug, Default)]
pub struct ReconstructScratch {
    /// Dense detail plane: level `l`'s `padded_len >> (l + 1)` details sit
    /// at slots `(padded_len >> (l + 1)) + idx`, so the details one block
    /// consumes in one stage are one contiguous slice. All `+0.0` between
    /// calls (each call zeroes the slots it scattered into), never shrunk.
    plane: Vec<f64>,
    /// The plane slots the current call scattered into.
    touched: Vec<usize>,
    /// `has_detail[q]` — block `q` received at least one retained detail.
    has_detail: Vec<bool>,
    /// Half a block: the ping-pong partner of a block's slice of `out`.
    tile: Vec<f64>,
    /// The reconstruction itself; borrowed out by [`reconstruct_into`].
    pub(crate) out: Vec<f64>,
    /// An encoded epoch's approximation coefficients, parsed here for the
    /// kernel (`report::EncodedEpoch`); the kernel itself never reads it.
    pub(crate) approx: Vec<i64>,
}

impl ReconstructScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last reconstruction, if any (what [`reconstruct_into`] returned).
    pub fn last(&self) -> &[f64] {
        &self.out
    }
}

/// Reconstruction of one epoch into `scratch`, returning the
/// `padded_len`-long series. Bit-identical to [`reconstruct_dense`]; see the
/// module docs for why, and the proptest suite for the machine-checked claim.
pub fn reconstruct_into<'a>(
    coeffs: &EpochCoefficients,
    scratch: &'a mut ReconstructScratch,
) -> &'a [f64] {
    reconstruct_sparse_into(
        coeffs.levels,
        coeffs.padded_len,
        &coeffs.approx,
        coeffs.details.iter().map(|c| (c.level, c.idx, c.val)),
        scratch,
    )
}

/// As [`reconstruct_into`], then clamps negative reconstruction artifacts to
/// zero in place (counts cannot be negative).
pub fn reconstruct_non_negative_into<'a>(
    coeffs: &EpochCoefficients,
    scratch: &'a mut ReconstructScratch,
) -> &'a [f64] {
    reconstruct_into(coeffs, scratch);
    clamp_non_negative(&mut scratch.out);
    &scratch.out
}

/// As [`reconstruct_sparse_into`], then clamps negatives to zero in place.
pub fn reconstruct_sparse_non_negative_into<'a>(
    levels: u32,
    padded_len: usize,
    approx: &[i64],
    details: impl Iterator<Item = (u32, u32, i64)>,
    scratch: &'a mut ReconstructScratch,
) -> &'a [f64] {
    reconstruct_sparse_into(levels, padded_len, approx, details, scratch);
    clamp_non_negative(&mut scratch.out);
    &scratch.out
}

/// Clamps negatives to zero in place.
pub(crate) fn clamp_non_negative(v: &mut [f64]) {
    for x in v {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

/// The kernel over raw report fields; "sparse" is the input — the retained
/// details as `(level, idx, val)` triples. Taking them as an iterator lets
/// both [`EpochCoefficients`] (selector `Candidate`s) and `BucketReport`
/// (wire `DetailRecord`s) reconstruct without first converting one into the
/// other — the query path calls this with zero allocations.
pub fn reconstruct_sparse_into<'a>(
    levels: u32,
    padded_len: usize,
    approx: &[i64],
    details: impl Iterator<Item = (u32, u32, i64)>,
    scratch: &'a mut ReconstructScratch,
) -> &'a [f64] {
    let ReconstructScratch {
        plane,
        touched,
        has_detail,
        tile,
        out,
        ..
    } = scratch;
    // No pre-zeroing: every block below overwrites its whole slice.
    out.resize(padded_len, 0.0);
    if padded_len == 0 {
        return out;
    }
    let top = levels.min(padded_len.trailing_zeros());
    let block = 1usize << top;
    if plane.len() < padded_len {
        plane.resize(padded_len, 0.0);
    }
    tile.resize(block.div_ceil(2), 0.0);
    has_detail.clear();
    has_detail.resize(padded_len >> top, false);

    // Scatter the details the dense form would actually look up: level < top
    // and idx within the level's node count. Arrival order, so a duplicate
    // key is last-wins — exactly the hash-map overwrite of the dense form.
    for (level, idx, val) in details {
        if level < top && (idx as usize) < padded_len >> (level + 1) {
            let slot = (padded_len >> (level + 1)) + idx as usize;
            plane[slot] = val as f64;
            touched.push(slot);
            has_detail[idx as usize >> (top - 1 - level)] = true;
        }
    }

    for (q, out_block) in out.chunks_exact_mut(block).enumerate() {
        let v = approx.get(q).copied().unwrap_or(0) as f64;
        if !has_detail[q] {
            out_block.fill((0..top).fold(v, |x, _| x / 2.0));
            continue;
        }
        // Stage by stage the block's 1, 2, 4, … values bounce between the
        // tile and the block's slice of `out`; the side that starts is the
        // one that makes the last stage land in `out`.
        let (mut src, mut dst) = if top.is_multiple_of(2) {
            (out_block, &mut tile[..])
        } else {
            (&mut tile[..], out_block)
        };
        src[0] = v;
        for l in (0..top).rev() {
            let n = block >> (l + 1);
            let lo = (padded_len >> (l + 1)) + q * n;
            let det = &plane[lo..lo + n];
            for ((pair, &a), &d) in dst[..2 * n].chunks_exact_mut(2).zip(&src[..n]).zip(det) {
                pair[0] = (a + d) / 2.0;
                pair[1] = (a - d) / 2.0;
            }
            std::mem::swap(&mut src, &mut dst);
        }
    }
    for slot in touched.drain(..) {
        plane[slot] = 0.0;
    }
    out
}

/// Reconstructs the per-window series of one epoch.
///
/// The result has `padded_len` entries; windows the flow never touched
/// reconstruct to (approximately) zero. Negative reconstruction artifacts are
/// *not* clamped here — callers that know counts are non-negative can clamp.
///
/// Allocating convenience wrapper over [`reconstruct_into`]; hot paths should
/// hold a [`ReconstructScratch`] instead.
pub fn reconstruct(coeffs: &EpochCoefficients) -> Vec<f64> {
    let mut scratch = ReconstructScratch::new();
    reconstruct_into(coeffs, &mut scratch).to_vec()
}

/// Reconstructs and clamps negatives to zero (counts cannot be negative;
/// small negative artifacts appear when detail coefficients are discarded).
pub fn reconstruct_non_negative(coeffs: &EpochCoefficients) -> Vec<f64> {
    let mut v = reconstruct(coeffs);
    clamp_non_negative(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{Candidate, IdealTopK};
    use crate::streaming::StreamingTransform;

    fn via_stream(signal: &[i64], levels: u32, k: usize) -> Vec<f64> {
        let cap = signal.len().next_power_of_two().max(1 << levels);
        let mut t = StreamingTransform::new(levels, cap, IdealTopK::new(k));
        for (i, &v) in signal.iter().enumerate() {
            if v != 0 {
                t.push(i as u32, v);
            }
        }
        reconstruct(&t.finish())
    }

    /// Kernel (through `scratch`, fresh or reused) vs oracle, bit for bit.
    fn assert_bit_identical(
        coeffs: &EpochCoefficients,
        scratch: &mut ReconstructScratch,
        ctx: &str,
    ) {
        let dense = reconstruct_dense(coeffs);
        let kernel = reconstruct_into(coeffs, scratch);
        assert_eq!(dense.len(), kernel.len(), "{ctx}: length");
        for (i, (d, k)) in dense.iter().zip(kernel.iter()).enumerate() {
            assert_eq!(
                d.to_bits(),
                k.to_bits(),
                "{ctx}: window {i}: dense {d} vs kernel {k}"
            );
        }
    }

    #[test]
    fn lossless_roundtrip_through_streaming_transform() {
        let signal = [7, 9, 6, 3, 2, 4, 4, 6];
        let rec = via_stream(&signal, 3, 1024);
        for (i, &x) in signal.iter().enumerate() {
            assert!((rec[i] - x as f64).abs() < 1e-9, "window {i}");
        }
    }

    #[test]
    fn lossless_roundtrip_with_gaps_and_deep_levels() {
        let mut signal = vec![0i64; 300];
        signal[3] = 40;
        signal[100] = 7;
        signal[101] = 9;
        signal[299] = 1000;
        let rec = via_stream(&signal, 8, 4096);
        assert_eq!(rec.len(), 512);
        for (i, &x) in signal.iter().enumerate() {
            assert!(
                (rec[i] - x as f64).abs() < 1e-9,
                "window {i}: {} vs {x}",
                rec[i]
            );
        }
        for &r in &rec[300..] {
            assert!(r.abs() < 1e-9);
        }
    }

    #[test]
    fn total_volume_is_preserved_even_under_heavy_compression() {
        // All approximation coefficients are kept, so the series total is
        // exact no matter how few details survive (§4.2).
        let signal: Vec<i64> = (0..256).map(|i| (i * 13) % 97).collect();
        let rec = via_stream(&signal, 4, 2); // keep only 2 details
        let total_true: i64 = signal.iter().sum();
        let total_rec: f64 = rec.iter().sum();
        assert!((total_rec - total_true as f64).abs() < 1e-6);
    }

    #[test]
    fn k_limited_reconstruction_keeps_the_dominant_spike() {
        // One huge spike among small noise: with K=1 the spike's detail
        // coefficients dominate and the spike must survive compression.
        let mut signal = vec![1i64; 64];
        signal[20] = 100_000;
        let rec = via_stream(&signal, 6, 8);
        let max_pos = rec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_pos, 20, "spike must reconstruct at its window");
        assert!(rec[20] > 50_000.0);
    }

    #[test]
    fn empty_epoch_reconstructs_empty() {
        let t: StreamingTransform<IdealTopK> = StreamingTransform::new(3, 8, IdealTopK::new(4));
        assert!(reconstruct(&t.finish()).is_empty());
    }

    #[test]
    fn clamped_reconstruction_has_no_negatives() {
        let mut signal = vec![0i64; 128];
        signal[5] = 1000;
        signal[6] = 3;
        let rec = reconstruct_non_negative(&{
            let mut t = StreamingTransform::new(7, 128, IdealTopK::new(2));
            for (i, &v) in signal.iter().enumerate() {
                if v != 0 {
                    t.push(i as u32, v);
                }
            }
            t.finish()
        });
        assert!(rec.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn single_window_epoch() {
        let rec = via_stream(&[42], 8, 4);
        assert_eq!(rec, vec![42.0]);
    }

    #[test]
    fn kernel_matches_dense_bitwise_on_handpicked_epochs() {
        // Early-stop (trailing_zeros < levels), negative details, duplicate
        // keys (last wins, also with other details between the copies),
        // out-of-range details (ignored), short approx, and a multi-block
        // epoch whose details land in some blocks only.
        let detail = |level, idx, val| Candidate { level, idx, val };
        let cases = [
            EpochCoefficients {
                levels: 6,
                padded_len: 8, // early stop: top = 3 < levels
                approx: vec![41],
                details: vec![
                    Candidate {
                        level: 0,
                        idx: 3,
                        val: 7,
                    },
                    Candidate {
                        level: 2,
                        idx: 0,
                        val: -13,
                    },
                ],
            },
            EpochCoefficients {
                levels: 3,
                padded_len: 32, // blocks = 4, approx shorter than blocks
                approx: vec![100, -3],
                details: vec![
                    Candidate {
                        level: 1,
                        idx: 2,
                        val: 9,
                    },
                    Candidate {
                        level: 1,
                        idx: 2,
                        val: -9,
                    }, // duplicate: last wins
                    Candidate {
                        level: 0,
                        idx: 15,
                        val: 5,
                    },
                    Candidate {
                        level: 7,
                        idx: 0,
                        val: 999,
                    }, // level ≥ top: ignored
                    Candidate {
                        level: 0,
                        idx: 400,
                        val: 17,
                    }, // idx out of range: ignored
                ],
            },
            EpochCoefficients {
                levels: 5,
                padded_len: 1, // single window
                approx: vec![42],
                details: vec![],
            },
            EpochCoefficients {
                levels: 4,
                padded_len: 64,
                approx: vec![],
                details: vec![Candidate {
                    level: 3,
                    idx: 1,
                    val: -1,
                }],
            },
            EpochCoefficients {
                levels: 8,
                padded_len: 2560, // 10 blocks of 256; blocks 0, 3 and 9 get details
                approx: vec![900, 0, -40, 77, 0, 0, 1 << 40, 5, 6, -7],
                details: vec![
                    detail(0, 5, 11),          // block 0, window pair 5
                    detail(7, 3, -300),        // block 3, its top-level split
                    detail(3, 16 * 3 + 15, 8), // block 3, last level-3 node
                    detail(0, 1279, -1),       // block 9, last window pair
                    detail(6, 19, 123),        // block 9
                    detail(8, 0, 999),         // level == top: ignored
                    detail(7, 10, 999),        // idx one past the level: ignored
                ],
            },
            EpochCoefficients {
                levels: 4,
                padded_len: 32,
                approx: vec![64, 48],
                details: vec![
                    detail(2, 1, 9), // first copy ...
                    detail(0, 3, -5),
                    detail(3, 0, 21),
                    detail(2, 1, -17), // ... second copy, other details between
                    detail(1, 2, 4),
                    detail(2, 1, 2), // ... third copy wins
                ],
            },
        ];
        for (n, coeffs) in cases.iter().enumerate() {
            assert_bit_identical(coeffs, &mut ReconstructScratch::new(), &format!("case {n}"));
        }
    }

    #[test]
    fn one_scratch_serves_epochs_of_different_shapes() {
        let mut scratch = ReconstructScratch::new();
        for (padded_len, levels) in [(64usize, 6u32), (8, 2), (0, 5), (256, 4), (1, 1)] {
            let coeffs = EpochCoefficients {
                levels,
                padded_len,
                approx: (0..padded_len >> levels.min(padded_len.trailing_zeros()))
                    .map(|i| (i as i64 * 37) % 101 - 50)
                    .collect(),
                details: (0..levels.min(8))
                    .map(|l| Candidate {
                        level: l,
                        idx: l % 2,
                        val: 11 - 3 * l as i64,
                    })
                    .collect(),
            };
            assert_bit_identical(
                &coeffs,
                &mut scratch,
                &format!("shape ({padded_len}, {levels})"),
            );
        }

        // Stale plane: a detail-heavy epoch, then a detail-free one and a
        // one-detail one of other shapes. Anything the first left behind in
        // the scratch would show up in the later two.
        let busy = EpochCoefficients {
            levels: 6,
            padded_len: 128,
            approx: vec![1000, -1000],
            // Every odd node of levels 0..=4 and both level-5 roots.
            details: (0..6u32)
                .flat_map(|l| (0..64u32 >> l).map(move |i| (l, i)))
                .filter(|&(l, i)| i % 2 == 1 || l == 5)
                .map(|(level, idx)| Candidate {
                    level,
                    idx,
                    val: 3 * idx as i64 - 70,
                })
                .collect(),
        };
        assert_eq!(busy.details.len(), 64);
        assert_bit_identical(&busy, &mut scratch, "busy epoch");
        let quiet = EpochCoefficients {
            levels: 5,
            padded_len: 96,
            approx: vec![7, 0, -9],
            details: vec![],
        };
        assert_bit_identical(&quiet, &mut scratch, "detail-free epoch after a busy one");
        let lone = EpochCoefficients {
            levels: 8,
            padded_len: 256,
            approx: vec![12345],
            details: vec![Candidate {
                level: 0,
                idx: 127,
                val: 1,
            }],
        };
        assert_bit_identical(
            &lone,
            &mut scratch,
            "one-detail epoch reads the whole plane",
        );
    }
}
