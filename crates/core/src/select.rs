//! Coefficient selection — the compression stage of WaveSketch.
//!
//! When a detail coefficient finishes accumulating, the compression stage
//! decides whether to retain it. Two strategies are implemented:
//!
//! * [`IdealTopK`] — keeps the `K` coefficients with the largest
//!   energy-normalized magnitude `|d| · 2^{-(l+1)/2}` using a min-heap, the
//!   provably L2-optimal choice (Appendix A). This is the CPU version.
//! * [`HwThresholdSelector`] — the PISA-feasible approximation of §4.3:
//!   coefficients are split by level parity into two queues so that relative
//!   weights within a queue are exact powers of two (applied as right
//!   shifts), and the top-k is approximated by a pre-calibrated threshold.
//!
//! # The order, and what "the same selection" means
//!
//! [`rank_cmp`] is the one definition of "stronger": the exact weighted
//! magnitude first, then — between coefficients of equal weighted
//! magnitude — the lower `(level, idx)`. Within one epoch `(level, idx)` is
//! unique, so the order is total there and the `K` strongest coefficients
//! are a unique *set*, whatever data structure finds them. That set is the
//! whole contract between [`IdealTopK`] (std's `BinaryHeap`, push then pop
//! — the reference the streaming transform, the hardware calibration and
//! the tests use) and the flat store in [`crate::arena`] that ships
//! (compare with the weakest first, as Algorithm 1 writes it). The two are
//! deliberately different algorithms over the same order, so comparing
//! their retained sets tests both. The order of [`CoeffSelector::retained`]
//! is each structure's internal one and unspecified.

use crate::haar::weighted_cmp;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A finished detail coefficient offered to the compression stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Loop level `l` (0-based, as in Algorithm 1); the coefficient spans
    /// `2^{l+1}` windows.
    pub level: u32,
    /// Position index within the level (`i >> (l+1)`).
    pub idx: u32,
    /// Unnormalized coefficient value.
    pub val: i64,
}

/// Strategy choice carried in [`crate::SketchConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectorKind {
    /// Exact weighted top-k via a min-heap (CPU / control-plane version).
    Ideal,
    /// Threshold + parity-queue approximation (hardware version). The two
    /// fields are the per-parity retain thresholds in the *shifted* domain;
    /// calibrate them with [`crate::hw::calibrate_thresholds`].
    HwThreshold {
        /// Retain threshold for even loop levels (0, 2, 4, …).
        even: u64,
        /// Retain threshold for odd loop levels (1, 3, 5, …).
        odd: u64,
    },
}

/// Common interface of the two selection strategies.
pub trait CoeffSelector {
    /// Offers a finished coefficient; the selector may keep or discard it.
    fn offer(&mut self, c: Candidate);
    /// All currently retained coefficients (order unspecified).
    fn retained(&self) -> Vec<Candidate>;
    /// Number of retained coefficients.
    fn len(&self) -> usize;
    /// True if nothing is retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Clears all state for a new epoch.
    fn reset(&mut self);
}

/// The compression stage's total order: `Greater` means `a` is the stronger
/// coefficient, the one a full store keeps. Ranks by exact weighted
/// magnitude ([`weighted_cmp`]); coefficients of equal weighted magnitude
/// rank by position, the lower `(level, idx)` higher. Which of two
/// equal-energy coefficients survives does not change the reconstruction
/// error (Appendix A); fixing it makes the retained set a function of the
/// offered set alone, not of the structure holding it.
#[inline]
pub fn rank_cmp(a: &Candidate, b: &Candidate) -> Ordering {
    weighted_cmp(a.val, a.level, b.val, b.level)
        .then_with(|| (b.level, b.idx).cmp(&(a.level, a.idx)))
}

/// Heap entry ordered by *descending* rank so the `BinaryHeap` (a max-heap)
/// pops the weakest retained coefficient first.
#[derive(Debug, Clone, Copy)]
struct MinWeighted(Candidate);

impl PartialEq for MinWeighted {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MinWeighted {}
impl PartialOrd for MinWeighted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinWeighted {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse of the rank order → max-heap pops the minimum.
        rank_cmp(&other.0, &self.0)
    }
}

/// Exact weighted top-k selection (Appendix A) with an O(log K) min-heap:
/// every non-zero coefficient is pushed and, past `k`, the weakest popped
/// again. The reference implementation of the [`rank_cmp`] top-k set.
#[derive(Debug, Clone)]
pub struct IdealTopK {
    k: usize,
    heap: BinaryHeap<MinWeighted>,
}

impl IdealTopK {
    /// Creates a selector retaining at most `k` coefficients.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The weakest retained coefficient, if any — used for threshold
    /// calibration of the hardware version (§4.3).
    pub fn weakest(&self) -> Option<Candidate> {
        self.heap.peek().map(|m| m.0)
    }
}

impl CoeffSelector for IdealTopK {
    fn offer(&mut self, c: Candidate) {
        if c.val == 0 {
            return; // zero coefficients reconstruct as zero anyway
        }
        self.heap.push(MinWeighted(c));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }

    fn retained(&self) -> Vec<Candidate> {
        self.heap.iter().map(|m| m.0).collect()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn reset(&mut self) {
        self.heap.clear();
    }
}

/// Hardware-feasible selection (§4.3).
///
/// Weights `2^{-(l+1)/2}` differ by exact powers of two between levels of the
/// same parity, so the comparison value is `|val| >> (l / 2)` and coefficients
/// only compete within their parity class. Instead of a priority queue, a
/// coefficient is retained iff its shifted magnitude meets the calibrated
/// per-parity threshold; each class has a bounded store of `k/2` slots and
/// once full, further qualifying coefficients evict the weakest *slot* only
/// if strictly larger in the shifted domain (modelling the register-based
/// replacement a PISA pipeline can afford).
#[derive(Debug, Clone)]
pub struct HwThresholdSelector {
    cap_even: usize,
    cap_odd: usize,
    threshold_even: u64,
    threshold_odd: u64,
    even: Vec<Candidate>,
    odd: Vec<Candidate>,
    /// Coefficients that met the threshold but found the class store full and
    /// could not displace anything — counted for diagnostics.
    pub overflow_drops: u64,
}

impl HwThresholdSelector {
    /// Creates a selector with total capacity `k` (split across the two
    /// parity classes) and the given shifted-domain thresholds.
    ///
    /// An odd `k` cannot split evenly; the spare slot goes to the even class,
    /// which holds the lower (more energetic) half of the level range, so the
    /// total capacity is always exactly `k`.
    pub fn new(k: usize, threshold_even: u64, threshold_odd: u64) -> Self {
        assert!(
            k >= 2,
            "hardware selector needs k >= 2 (one slot per parity)"
        );
        Self {
            cap_even: k / 2 + k % 2,
            cap_odd: k / 2,
            threshold_even,
            threshold_odd,
            even: Vec::new(),
            odd: Vec::new(),
            overflow_drops: 0,
        }
    }

    /// Shifted-domain comparison value: `|val| >> (level / 2)` (§4.3's
    /// "right shift by ⌊r/2⌋").
    #[inline]
    pub fn shifted_magnitude(c: &Candidate) -> u64 {
        (c.val.unsigned_abs()) >> (c.level / 2)
    }

    fn offer_class(
        store: &mut Vec<Candidate>,
        cap: usize,
        threshold: u64,
        overflow: &mut u64,
        c: Candidate,
    ) {
        let mag = Self::shifted_magnitude(&c);
        if mag < threshold || c.val == 0 {
            return;
        }
        if store.len() < cap {
            store.push(c);
            return;
        }
        // Full: replace the weakest slot if strictly weaker than the newcomer.
        let (weakest_pos, weakest_mag) = store
            .iter()
            .enumerate()
            .map(|(i, s)| (i, Self::shifted_magnitude(s)))
            .min_by_key(|&(_, m)| m)
            .expect("store is non-empty when full");
        if weakest_mag < mag {
            store[weakest_pos] = c;
        } else {
            *overflow += 1;
        }
    }
}

impl CoeffSelector for HwThresholdSelector {
    fn offer(&mut self, c: Candidate) {
        if c.level.is_multiple_of(2) {
            Self::offer_class(
                &mut self.even,
                self.cap_even,
                self.threshold_even,
                &mut self.overflow_drops,
                c,
            );
        } else {
            Self::offer_class(
                &mut self.odd,
                self.cap_odd,
                self.threshold_odd,
                &mut self.overflow_drops,
                c,
            );
        }
    }

    fn retained(&self) -> Vec<Candidate> {
        self.even.iter().chain(self.odd.iter()).copied().collect()
    }

    fn len(&self) -> usize {
        self.even.len() + self.odd.len()
    }

    fn reset(&mut self) {
        self.even.clear();
        self.odd.clear();
        self.overflow_drops = 0;
    }
}

/// A concrete, cloneable selector — either strategy behind one type, so the
/// streaming transform (and with it, whole buckets) stays `Clone`-able for
/// non-destructive snapshots.
#[derive(Debug, Clone)]
pub enum Selector {
    /// Exact weighted top-k (CPU version).
    Ideal(IdealTopK),
    /// Threshold approximation (hardware version).
    Hw(HwThresholdSelector),
}

impl Selector {
    /// Builds a selector of the given kind with capacity `k`.
    pub fn new(kind: SelectorKind, k: usize) -> Self {
        match kind {
            SelectorKind::Ideal => Selector::Ideal(IdealTopK::new(k)),
            SelectorKind::HwThreshold { even, odd } => {
                Selector::Hw(HwThresholdSelector::new(k, even, odd))
            }
        }
    }
}

impl CoeffSelector for Selector {
    fn offer(&mut self, c: Candidate) {
        match self {
            Selector::Ideal(s) => s.offer(c),
            Selector::Hw(s) => s.offer(c),
        }
    }

    fn retained(&self) -> Vec<Candidate> {
        match self {
            Selector::Ideal(s) => s.retained(),
            Selector::Hw(s) => s.retained(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Selector::Ideal(s) => s.len(),
            Selector::Hw(s) => s.len(),
        }
    }

    fn reset(&mut self) {
        match self {
            Selector::Ideal(s) => s.reset(),
            Selector::Hw(s) => s.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(level: u32, idx: u32, val: i64) -> Candidate {
        Candidate { level, idx, val }
    }

    #[test]
    fn ideal_keeps_the_k_largest_same_level() {
        let mut s = IdealTopK::new(2);
        for (i, v) in [5i64, -9, 3, 7].iter().enumerate() {
            s.offer(cand(0, i as u32, *v));
        }
        let mut vals: Vec<i64> = s.retained().iter().map(|c| c.val).collect();
        vals.sort();
        assert_eq!(vals, vec![-9, 7]);
    }

    #[test]
    fn ideal_applies_level_weights() {
        // |100| at level 3 weighs 100/4 = 25; |30| at level 0 weighs 30/√2 ≈ 21.2.
        // So level-3 100 beats level-0 30, but level-0 40 (≈28.3) beats it.
        let mut s = IdealTopK::new(1);
        s.offer(cand(0, 0, 30));
        s.offer(cand(3, 0, 100));
        assert_eq!(s.retained()[0].level, 3);
        s.offer(cand(0, 1, 40));
        assert_eq!(s.retained()[0].val, 40);
    }

    #[test]
    fn ideal_ignores_zero_coefficients() {
        let mut s = IdealTopK::new(4);
        s.offer(cand(0, 0, 0));
        assert!(s.is_empty());
    }

    #[test]
    fn ideal_weakest_tracks_heap_minimum() {
        let mut s = IdealTopK::new(2);
        s.offer(cand(0, 0, 10));
        s.offer(cand(0, 1, 20));
        assert_eq!(s.weakest().unwrap().val, 10);
        s.offer(cand(0, 2, 15));
        assert_eq!(s.weakest().unwrap().val, 15);
    }

    /// Values drawn around the extremes and the small tie-rich range, levels
    /// on both sides of 32 (`weighted_cmp`'s fast / slow path boundary).
    fn extreme_candidate() -> impl proptest::prelude::Strategy<Value = Candidate> {
        use proptest::prelude::Strategy;
        (0u32..6, -4i64..5, 0usize..8, 0u32..4).prop_map(|(pick, small, band, idx)| Candidate {
            level: [0, 1, 2, 31, 32, 33, 63, 200][band],
            idx,
            val: match pick {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => i64::MIN + 1,
                3 => small << 40,
                _ => small,
            },
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn rank_cmp_is_antisymmetric_and_transitive(
            a in extreme_candidate(),
            b in extreme_candidate(),
            c in extreme_candidate(),
        ) {
            proptest::prop_assert_eq!(rank_cmp(&a, &b), rank_cmp(&b, &a).reverse());
            proptest::prop_assert_eq!(rank_cmp(&a, &a), Ordering::Equal);
            // Transitivity, ties included: equal links chain, and an equal
            // link passes the other link's verdict through.
            let (ab, bc, ac) = (rank_cmp(&a, &b), rank_cmp(&b, &c), rank_cmp(&a, &c));
            if ab == bc || bc == Ordering::Equal {
                proptest::prop_assert_eq!(ac, ab);
            }
            if ab == Ordering::Equal {
                proptest::prop_assert_eq!(ac, bc);
            }
            // Equal only for one position holding ±the same magnitude class.
            if rank_cmp(&a, &b) == Ordering::Equal {
                proptest::prop_assert_eq!((a.level, a.idx), (b.level, b.idx));
            }
        }
    }

    #[test]
    fn rank_cmp_breaks_weighted_ties_by_position() {
        // |20|·2^{-3/2} = |10|·2^{-1/2}: equal energy across levels.
        assert_eq!(
            rank_cmp(&cand(0, 5, 10), &cand(2, 0, -20)),
            Ordering::Greater
        );
        assert_eq!(rank_cmp(&cand(0, 5, 10), &cand(0, 4, -10)), Ordering::Less);
        assert_eq!(rank_cmp(&cand(0, 5, 10), &cand(0, 5, -10)), Ordering::Equal);
        assert_eq!(
            rank_cmp(&cand(7, 9, 11), &cand(7, 0, 10)),
            Ordering::Greater
        );
    }

    #[test]
    fn ideal_selection_is_l2_optimal_exhaustively() {
        // Appendix A: keeping the largest weighted coefficients minimizes the
        // L2 error. Verify exhaustively against all subsets of size k.
        use crate::haar::{inverse, transform, HaarCoefficients};
        let signal: Vec<i64> = vec![9, 1, 0, 14, 3, 3, 8, 2];
        let full = transform(&signal, 3);
        // Enumerate all (level, idx) coefficient positions.
        let mut positions = Vec::new();
        for (l, det) in full.details.iter().enumerate() {
            for (q, &v) in det.iter().enumerate() {
                positions.push((l as u32, q as u32, v));
            }
        }
        let k = 3;
        let err = |keep: &[usize]| -> f64 {
            let mut det: Vec<Vec<i64>> = full.details.iter().map(|d| vec![0; d.len()]).collect();
            for &p in keep {
                let (l, q, v) = positions[p];
                det[l as usize][q as usize] = v;
            }
            let rec = inverse(&HaarCoefficients {
                approx: full.approx.clone(),
                details: det,
                padded_len: full.padded_len,
            });
            signal
                .iter()
                .zip(&rec)
                .map(|(&a, &b)| (a as f64 - b) * (a as f64 - b))
                .sum::<f64>()
        };
        // Error of the heap's choice.
        let mut sel = IdealTopK::new(k);
        for &(l, q, v) in &positions {
            sel.offer(cand(l, q, v));
        }
        let chosen: Vec<usize> = sel
            .retained()
            .iter()
            .map(|c| {
                positions
                    .iter()
                    .position(|&(l, q, _)| l == c.level && q == c.idx)
                    .unwrap()
            })
            .collect();
        let heap_err = err(&chosen);
        // Brute force over all C(7,3) subsets.
        let n = positions.len();
        let mut best = f64::INFINITY;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    best = best.min(err(&[a, b, c]));
                }
            }
        }
        assert!(
            heap_err <= best + 1e-9,
            "heap error {heap_err} exceeds brute-force optimum {best}"
        );
    }

    #[test]
    fn hw_shifted_magnitude_halves_every_two_levels() {
        assert_eq!(
            HwThresholdSelector::shifted_magnitude(&cand(0, 0, 100)),
            100
        );
        assert_eq!(
            HwThresholdSelector::shifted_magnitude(&cand(1, 0, 100)),
            100
        );
        assert_eq!(HwThresholdSelector::shifted_magnitude(&cand(2, 0, 100)), 50);
        assert_eq!(HwThresholdSelector::shifted_magnitude(&cand(3, 0, 100)), 50);
        assert_eq!(HwThresholdSelector::shifted_magnitude(&cand(4, 0, 100)), 25);
    }

    #[test]
    fn hw_threshold_filters_small_coefficients() {
        let mut s = HwThresholdSelector::new(8, 10, 10);
        s.offer(cand(0, 0, 9)); // below threshold
        s.offer(cand(0, 1, 10)); // at threshold → kept
        s.offer(cand(1, 0, -50)); // odd class, kept
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hw_classes_are_independent() {
        let mut s = HwThresholdSelector::new(4, 1, 1); // 2 slots per class
        s.offer(cand(0, 0, 100)); // even, shifted 100
        s.offer(cand(2, 0, 100)); // even, shifted 50
                                  // Even class full; a stronger newcomer evicts the weakest slot.
        s.offer(cand(0, 1, 100)); // shifted 100 → evicts (2,0)
        assert!(s.retained().iter().all(|c| c.level != 2));
        // A weak even coefficient cannot displace anything.
        s.offer(cand(0, 2, 5));
        assert_eq!(s.overflow_drops, 1);
        // The odd class is independent: still empty, accepts even weak ones.
        s.offer(cand(1, 0, 5));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn hw_full_class_evicts_weakest_when_newcomer_is_larger() {
        let mut s = HwThresholdSelector::new(2, 1, 1); // 1 slot per class
        s.offer(cand(0, 0, 10));
        s.offer(cand(0, 1, 30));
        let kept = s.retained();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].val, 30);
    }

    #[test]
    fn hw_odd_k_keeps_full_capacity() {
        // Regression: `k / 2` per class silently capped an odd k at k - 1
        // retained coefficients. The spare slot belongs to the even class.
        for k in [2usize, 3, 5, 7, 8, 63, 64] {
            let mut s = HwThresholdSelector::new(k, 1, 1);
            for i in 0..(2 * k as u32) {
                s.offer(cand(i % 2, i, 1_000 + i as i64)); // alternate parity
            }
            assert_eq!(s.len(), k, "total capacity must be exactly k = {k}");
            let even = s.retained().iter().filter(|c| c.level == 0).count();
            assert_eq!(even, k / 2 + k % 2, "even class takes the spare slot");
            assert_eq!(s.len() - even, k / 2);
        }
    }

    #[test]
    fn reset_clears_both_strategies() {
        let mut a = IdealTopK::new(2);
        a.offer(cand(0, 0, 5));
        a.reset();
        assert!(a.is_empty());
        let mut b = HwThresholdSelector::new(2, 0, 0);
        b.offer(cand(0, 0, 5));
        b.reset();
        assert!(b.is_empty());
    }
}
