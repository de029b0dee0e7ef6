//! Flat bucket arenas: the state of many sketch buckets (`w0, i, c`, the
//! approximation array, the in-flight partial details and the retained
//! detail store) laid out in a handful of preallocated flat arrays instead
//! of one heap-allocated transform per bucket.
//!
//! Motivation (perf): the packet path of [`crate::BasicWaveSketch`] and
//! [`crate::FullWaveSketch`] touches one bucket per row per packet. With
//! per-bucket `Vec`s that is several dependent pointer chases per touch and
//! a fresh set of allocations on every heavy-part eviction or epoch
//! rollover. The arena keeps every bucket's state at a fixed offset of four
//! flat arrays, so
//!
//! * steady-state updates allocate nothing (asserted by the counting
//!   allocator in `tests/alloc_gate.rs`),
//! * evicting a heavy candidate is a constant-time in-place reset
//!   ([`BucketArena::reset_bucket`]) instead of building a new bucket, and
//! * completed epochs drain as exact-size lists
//!   ([`BucketArena::drain_bucket`]), ready to travel and be kept as they
//!   are.
//!
//! # What a drain is equal to
//!
//! Counting, epoch rollover and the transform are line-for-line those of the
//! per-bucket [`crate::streaming::StreamingTransform`], so `w0`, the padded
//! length and the approximation array of every drained epoch equal the
//! reference's. For the retained details the contract is the *set*:
//!
//! * The ideal store keeps a bucket's `K` slots unordered while there is
//!   room — nothing can be displaced yet — and turns them into a min-heap
//!   under [`rank_cmp`] when the last slot fills. From then on it is offered
//!   to as Algorithm 1 writes the compression step: a finished coefficient
//!   is compared with the weakest retained one first and enters only if it
//!   is stronger. `rank_cmp` is total within an epoch, so the retained set
//!   is the unique top-`K` and equals [`crate::IdealTopK`]'s (std's heap,
//!   push then pop) on every stream; the tests at the bottom of this file
//!   hold the two to that. The order of `details` inside a [`BucketReport`]
//!   is this store's array order and unspecified.
//! * The hardware selector's retained order is even-class-then-odd-class in
//!   insertion order with first-minimum replacement, replicated verbatim
//!   from [`HwThresholdSelector`].

use crate::config::SketchConfig;
use crate::report::BucketReport;
use crate::select::{rank_cmp, Candidate, HwThresholdSelector, SelectorKind};
use crate::streaming::EpochCoefficients;
use std::cmp::Ordering;

const EMPTY_CANDIDATE: Candidate = Candidate {
    level: 0,
    idx: 0,
    val: 0,
};

/// In-flight detail coefficient of one level (`_details[l]` in Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Partial {
    idx: u32,
    val: i64,
}

const EMPTY_PARTIAL: Partial = Partial { idx: 0, val: 0 };

/// Sentinel for "no offset folded into the transform yet". Real offsets are
/// `< max_windows` (the push asserts it), far below `u32::MAX`, so the
/// sentinel encoding is unambiguous — and keeps [`Header`] at 32 bytes
/// (vs 40 with `Option<u32>`), which matters because the packet path is one
/// header touch per row per packet and the header array is the hottest
/// cache-resident state.
const NO_OFFSET: u32 = u32::MAX;

/// Fixed-size per-bucket counter state (Figure 6's `w0, i, c` plus the
/// transform's last-offset watermark).
#[derive(Debug, Clone, Copy)]
struct Header {
    /// Absolute window id of the epoch start; `None` until the first packet.
    w0: Option<u64>,
    /// Count accumulated in the current window.
    c: i64,
    /// Offset of the window currently being counted.
    i: u32,
    /// Highest offset folded into the transform, [`NO_OFFSET`] before the
    /// first.
    last_offset: u32,
}

const EMPTY_HEADER: Header = Header {
    w0: None,
    c: 0,
    i: 0,
    last_offset: NO_OFFSET,
};

/// Sifts `element` down from `pos` of a min-heap under [`rank_cmp`] (the
/// root is the weakest retained coefficient), past every weaker child.
fn heap_sift_down(data: &mut [Candidate], pos: usize, element: Candidate) {
    let mut hole = pos;
    loop {
        let mut child = 2 * hole + 1;
        if child >= data.len() {
            break;
        }
        if child + 1 < data.len() && rank_cmp(&data[child + 1], &data[child]) == Ordering::Less {
            child += 1;
        }
        if rank_cmp(&data[child], &element) != Ordering::Less {
            break;
        }
        data[hole] = data[child];
        hole = child;
    }
    data[hole] = element;
}

/// [`HwThresholdSelector::offer`]'s per-class body on a flat slice: retain
/// iff the shifted magnitude meets the threshold, evicting the *first*
/// weakest slot only when strictly weaker than the newcomer.
fn hw_offer_class(
    store: &mut [Candidate],
    len: &mut u32,
    cap: usize,
    threshold: u64,
    overflow: &mut u64,
    c: Candidate,
) {
    let mag = HwThresholdSelector::shifted_magnitude(&c);
    if mag < threshold || c.val == 0 {
        return;
    }
    if (*len as usize) < cap {
        store[*len as usize] = c;
        *len += 1;
        return;
    }
    let filled = &mut store[..*len as usize];
    let (weakest_pos, weakest_mag) = filled
        .iter()
        .enumerate()
        .map(|(i, s)| (i, HwThresholdSelector::shifted_magnitude(s)))
        .min_by_key(|&(_, m)| m)
        .expect("store is non-empty when full");
    if weakest_mag < mag {
        filled[weakest_pos] = c;
    } else {
        *overflow += 1;
    }
}

/// Flat retained-coefficient stores for all buckets of an arena. One variant
/// per [`SelectorKind`]; the kind is uniform across the arena (it comes from
/// one [`SketchConfig`]).
#[derive(Debug, Clone)]
enum SelectorArena {
    /// Ideal weighted top-k: per bucket, `k` slots — unordered until all are
    /// in use, a min-heap under [`rank_cmp`] from then on.
    Ideal {
        k: usize,
        data: Vec<Candidate>,
        len: Vec<u32>,
    },
    /// Hardware parity-split threshold stores: per bucket, `cap_even` +
    /// `cap_odd` slots in insertion order.
    Hw {
        cap_even: usize,
        cap_odd: usize,
        threshold_even: u64,
        threshold_odd: u64,
        even: Vec<Candidate>,
        odd: Vec<Candidate>,
        len_even: Vec<u32>,
        len_odd: Vec<u32>,
        overflow: Vec<u64>,
    },
}

impl SelectorArena {
    fn new(kind: SelectorKind, k: usize, n: usize) -> Self {
        match kind {
            SelectorKind::Ideal => {
                assert!(k > 0, "k must be positive");
                SelectorArena::Ideal {
                    k,
                    data: vec![EMPTY_CANDIDATE; n * k],
                    len: vec![0; n],
                }
            }
            SelectorKind::HwThreshold { even, odd } => {
                assert!(
                    k >= 2,
                    "hardware selector needs k >= 2 (one slot per parity)"
                );
                let cap_even = k / 2 + k % 2;
                let cap_odd = k / 2;
                SelectorArena::Hw {
                    cap_even,
                    cap_odd,
                    threshold_even: even,
                    threshold_odd: odd,
                    even: vec![EMPTY_CANDIDATE; n * cap_even],
                    odd: vec![EMPTY_CANDIDATE; n * cap_odd],
                    len_even: vec![0; n],
                    len_odd: vec![0; n],
                    overflow: vec![0; n],
                }
            }
        }
    }

    /// Mutable view of bucket `b`'s slice of the stores.
    fn view(&mut self, b: usize) -> SelView<'_> {
        match self {
            SelectorArena::Ideal { k, data, len } => SelView::Ideal {
                data: &mut data[b * *k..(b + 1) * *k],
                len: &mut len[b],
            },
            SelectorArena::Hw {
                cap_even,
                cap_odd,
                threshold_even,
                threshold_odd,
                even,
                odd,
                len_even,
                len_odd,
                overflow,
            } => SelView::Hw {
                cap_even: *cap_even,
                cap_odd: *cap_odd,
                threshold_even: *threshold_even,
                threshold_odd: *threshold_odd,
                even: &mut even[b * *cap_even..(b + 1) * *cap_even],
                odd: &mut odd[b * *cap_odd..(b + 1) * *cap_odd],
                len_even: &mut len_even[b],
                len_odd: &mut len_odd[b],
                overflow: &mut overflow[b],
            },
        }
    }

    /// An owned single-bucket copy of bucket `b`'s state, for non-destructive
    /// snapshots (queries may allocate; the packet path never calls this).
    fn owned(&self, b: usize) -> SelectorArena {
        match self {
            SelectorArena::Ideal { k, data, len } => SelectorArena::Ideal {
                k: *k,
                data: data[b * *k..(b + 1) * *k].to_vec(),
                len: vec![len[b]],
            },
            SelectorArena::Hw {
                cap_even,
                cap_odd,
                threshold_even,
                threshold_odd,
                even,
                odd,
                len_even,
                len_odd,
                overflow,
            } => SelectorArena::Hw {
                cap_even: *cap_even,
                cap_odd: *cap_odd,
                threshold_even: *threshold_even,
                threshold_odd: *threshold_odd,
                even: even[b * *cap_even..(b + 1) * *cap_even].to_vec(),
                odd: odd[b * *cap_odd..(b + 1) * *cap_odd].to_vec(),
                len_even: vec![len_even[b]],
                len_odd: vec![len_odd[b]],
                overflow: vec![overflow[b]],
            },
        }
    }

    /// Clears bucket `b`'s store (the slice contents are left stale — the
    /// length is the source of truth).
    fn reset(&mut self, b: usize) {
        match self {
            SelectorArena::Ideal { len, .. } => len[b] = 0,
            SelectorArena::Hw {
                len_even,
                len_odd,
                overflow,
                ..
            } => {
                len_even[b] = 0;
                len_odd[b] = 0;
                overflow[b] = 0;
            }
        }
    }
}

/// One bucket's selector, borrowed from the flat stores: `offer` /
/// `retained` as in [`crate::select::CoeffSelector`].
enum SelView<'a> {
    /// `data` is the bucket's `k` slots, the first `len` in use; a min-heap
    /// exactly when `len == k`.
    Ideal {
        data: &'a mut [Candidate],
        len: &'a mut u32,
    },
    Hw {
        cap_even: usize,
        cap_odd: usize,
        threshold_even: u64,
        threshold_odd: u64,
        even: &'a mut [Candidate],
        odd: &'a mut [Candidate],
        len_even: &'a mut u32,
        len_odd: &'a mut u32,
        overflow: &'a mut u64,
    },
}

impl SelView<'_> {
    fn offer(&mut self, c: Candidate) {
        match self {
            SelView::Ideal { data, len } => {
                if c.val == 0 {
                    return; // zero coefficients reconstruct as zero anyway
                }
                let n = **len as usize;
                if n < data.len() {
                    // Room left: nothing can be displaced, so no order is
                    // needed yet. The slots become a heap when the last one
                    // fills (bottom-up, ≤ 2 compares per slot, and never for
                    // the many stores an epoch does not fill).
                    data[n] = c;
                    **len += 1;
                    if n + 1 == data.len() {
                        for pos in (0..data.len() / 2).rev() {
                            heap_sift_down(data, pos, data[pos]);
                        }
                    }
                } else if rank_cmp(&c, &data[0]) == Ordering::Greater {
                    // Algorithm 1's compression step: only a coefficient
                    // stronger than the weakest retained one displaces it.
                    heap_sift_down(data, 0, c);
                }
            }
            SelView::Hw {
                cap_even,
                cap_odd,
                threshold_even,
                threshold_odd,
                even,
                odd,
                len_even,
                len_odd,
                overflow,
            } => {
                if c.level.is_multiple_of(2) {
                    hw_offer_class(even, len_even, *cap_even, *threshold_even, overflow, c);
                } else {
                    hw_offer_class(odd, len_odd, *cap_odd, *threshold_odd, overflow, c);
                }
            }
        }
    }

    fn retained(&self) -> Vec<Candidate> {
        match self {
            SelView::Ideal { data, len, .. } => data[..**len as usize].to_vec(),
            SelView::Hw {
                even,
                odd,
                len_even,
                len_odd,
                ..
            } => even[..**len_even as usize]
                .iter()
                .chain(odd[..**len_odd as usize].iter())
                .copied()
                .collect(),
        }
    }
}

/// One bucket's streaming-transform state, borrowed from the flat arrays.
/// `push` and `finish` are line-for-line the algorithms of
/// [`crate::streaming::StreamingTransform`], operating on slices.
struct XformView<'a> {
    levels: u32,
    approx: &'a mut [i64],
    partials: &'a mut [Partial],
    /// [`NO_OFFSET`] encodes "nothing folded yet".
    last_offset: &'a mut u32,
    sel: SelView<'a>,
}

impl XformView<'_> {
    /// The `Transformation` procedure of Algorithm 1 (see
    /// `StreamingTransform::push` for the derivation).
    fn push(&mut self, offset: u32, count: i64) {
        let last = *self.last_offset;
        if last != NO_OFFSET {
            assert!(
                offset > last,
                "offsets must strictly increase ({offset} after {last})"
            );
        }
        let pos_a = (offset >> self.levels) as usize;
        assert!(
            pos_a < self.approx.len(),
            "offset {offset} exceeds capacity ({} approx entries)",
            self.approx.len()
        );
        self.approx[pos_a] += count;

        // Iterate the partial slots directly (the slice length *is* the level
        // count) and fold the sign without a data-dependent branch — the
        // parity bit of `offset >> l` is effectively random across levels.
        for (l, slot) in self.partials.iter_mut().enumerate() {
            let l = l as u32;
            let pos_d = offset >> (l + 1);
            let mut partial = *slot;
            if pos_d > partial.idx {
                // The previous span at this level is complete — compress it.
                self.sel.offer(Candidate {
                    level: l,
                    idx: partial.idx,
                    val: partial.val,
                });
                partial = Partial { idx: pos_d, val: 0 };
            }
            let delta = if (offset >> l) & 1 == 0 {
                count
            } else {
                count.wrapping_neg()
            };
            partial.val += delta;
            *slot = partial;
        }
        *self.last_offset = offset;
    }

    /// Flushes the in-flight partials and produces the epoch's coefficients
    /// (see `StreamingTransform::finish`). The underlying bucket state is
    /// left dirty; the caller resets or discards it.
    fn finish(mut self) -> EpochCoefficients {
        let len = match *self.last_offset {
            NO_OFFSET => {
                return EpochCoefficients {
                    levels: self.levels,
                    padded_len: 0,
                    approx: Vec::new(),
                    details: Vec::new(),
                }
            }
            last => last as usize + 1,
        };
        let padded_len = len.next_power_of_two();
        let top = self.levels.min(padded_len.trailing_zeros());
        for l in 0..top {
            let partial = self.partials[l as usize];
            self.sel.offer(Candidate {
                level: l,
                idx: partial.idx,
                val: partial.val,
            });
        }
        let blocks = padded_len.div_ceil(1 << self.levels).max(1);
        let blocks = blocks.min(self.approx.len());
        EpochCoefficients {
            levels: self.levels,
            padded_len,
            approx: self.approx[..blocks].to_vec(),
            details: self.sel.retained(),
        }
    }
}

/// A flat arena of `n` WaveSketch counter buckets (Figure 6: initial window
/// `w0`, current offset `i`, current counter `c`, approximation set `A` and
/// detail set `D` each), running the counting → transformation → compression
/// pipeline of Algorithm 1 with automatic epoch rollover for flows outliving
/// one measurement period (§7.1). Equal in output to `n` independent
/// per-bucket [`crate::streaming::StreamingTransform`]s up to the order of
/// each epoch's retained details (see the module docs); stand-alone users
/// (oracles, calibration, tests) build a one-bucket arena.
///
/// Bucket `b`'s state lives at offset `b` of `headers`-style flat
/// arrays; no per-bucket allocation exists, so updates, evictions
/// ([`Self::reset_bucket`]) and epoch rollovers never touch the allocator.
/// Only epoch *completion* stores grow (`completed`), and only at rollover —
/// never on the per-packet path.
#[derive(Debug, Clone)]
pub struct BucketArena {
    levels: u32,
    max_windows: usize,
    approx_len: usize,
    headers: Vec<Header>,
    /// `n × approx_len` block sums, bucket-major.
    approx: Vec<i64>,
    /// `n × levels` in-flight partial details, bucket-major.
    partials: Vec<Partial>,
    selectors: SelectorArena,
    /// Reports of epochs that rolled over before being drained, per bucket.
    completed: Vec<Vec<BucketReport>>,
}

impl BucketArena {
    /// Creates an arena of `n` empty buckets from explicit parameters.
    pub fn new(
        levels: u32,
        max_windows: usize,
        topk: usize,
        selector: SelectorKind,
        n: usize,
    ) -> Self {
        let approx_len = max_windows.div_ceil(1 << levels);
        Self {
            levels,
            max_windows,
            approx_len,
            headers: vec![EMPTY_HEADER; n],
            approx: vec![0; n * approx_len],
            partials: vec![EMPTY_PARTIAL; n * levels as usize],
            selectors: SelectorArena::new(selector, topk, n),
            completed: vec![Vec::new(); n],
        }
    }

    /// Creates an arena of `n` empty buckets from a sketch configuration.
    pub fn from_config(config: &SketchConfig, n: usize) -> Self {
        Self::new(
            config.levels,
            config.max_windows,
            config.topk,
            config.selector,
            n,
        )
    }

    /// Number of buckets in the arena.
    pub fn bucket_count(&self) -> usize {
        self.headers.len()
    }

    #[inline]
    fn xform_view(&mut self, b: usize) -> XformView<'_> {
        let a0 = b * self.approx_len;
        let p0 = b * self.levels as usize;
        XformView {
            levels: self.levels,
            approx: &mut self.approx[a0..a0 + self.approx_len],
            partials: &mut self.partials[p0..p0 + self.levels as usize],
            last_offset: &mut self.headers[b].last_offset,
            sel: self.selectors.view(b),
        }
    }

    /// The `Counting` procedure of Algorithm 1 on bucket `b`: adds `value`
    /// at absolute window `window`. Allocation-free in steady state.
    ///
    /// Packets must arrive in non-decreasing window order (they do on a real
    /// timeline); a packet for an older window than the current one is
    /// folded into the current window rather than lost, since the data plane
    /// cannot rewind. That fold saturates at `i64::MAX` instead of wrapping.
    #[inline]
    pub fn update(&mut self, b: usize, window: u64, value: i64) {
        let hdr = &mut self.headers[b];
        let w0 = match hdr.w0 {
            None => {
                // First packet of the epoch initializes w0.
                hdr.w0 = Some(window);
                hdr.i = 0;
                hdr.c = value;
                return;
            }
            Some(w0) => w0,
        };

        let offset = window.saturating_sub(w0);
        if offset >= self.max_windows as u64 {
            // Epoch capacity exhausted: seal it and start a new epoch at the
            // incoming window.
            self.seal_epoch(b);
            let hdr = &mut self.headers[b];
            hdr.w0 = Some(window);
            hdr.i = 0;
            hdr.c = value;
            return;
        }
        let offset = offset as u32;

        if offset <= hdr.i {
            // Same window (or a clock-skew straggler): accumulate. Saturate
            // so an adversarial byte count cannot wrap the counter past
            // i64::MAX into a huge negative epoch.
            hdr.c = hdr.c.saturating_add(value);
        } else {
            // The counted window is finished — transform and compress it,
            // then start counting the new window.
            let (i, c) = (hdr.i, hdr.c);
            self.xform_view(b).push(i, c);
            let hdr = &mut self.headers[b];
            hdr.i = offset;
            hdr.c = value;
        }
    }

    /// Prefetches bucket `b`'s header so a following [`Self::update`] of `b`
    /// starts from warm cache. Pure hint — no effect on results. Header-only
    /// on purpose: prefetching the approx/partials/selector slices as well
    /// measured as pure overhead, since the common fold touches only the
    /// header (DESIGN.md §15).
    #[inline]
    pub(crate) fn prefetch_header(&self, b: usize) {
        crate::batch::prefetch_read(&self.headers[b]);
    }

    /// Applies `n` staged records (`idx`/`windows`/`values`, SoA) to this
    /// arena **in record order**, prefetching the buckets of upcoming
    /// records a fixed distance ahead. Equivalent to `n` sequential
    /// [`Self::update`] calls — the prefetch distance only hides the cache
    /// miss that dominates the fold when the working set exceeds L2
    /// (DESIGN.md §10: the same prefetch on the scalar path measured
    /// neutral-to-negative because it had no lookahead; the batch does).
    pub(crate) fn apply_batch(&mut self, idx: &[u32], windows: &[u64], values: &[i64], n: usize) {
        const PF: usize = 16;
        debug_assert!(idx.len() >= n && windows.len() >= n && values.len() >= n);
        // One up-front range check over the whole batch lets the fold loop
        // skip the per-access bounds check on the hottest load. `stage`
        // constructs indices below `rows * width` by design; this assert
        // keeps the contract local instead of trusting the caller.
        let len = self.headers.len();
        assert!(idx[..n].iter().all(|&b| (b as usize) < len));
        for j in 0..n {
            if j + PF < n {
                // SAFETY: all of idx[..n] checked in-range above.
                crate::batch::prefetch_read(unsafe {
                    self.headers.get_unchecked(idx[j + PF] as usize)
                });
            }
            // SAFETY: same in-range guarantee.
            unsafe { self.update_trusted(idx[j] as usize, windows[j], values[j]) };
        }
    }

    /// [`Self::update`] with the bucket index trusted (caller has
    /// range-checked it) so the same-window fast path runs without a bounds
    /// check. Cold paths (first packet handled inline; push and epoch seal)
    /// fall back to the safe [`Self::update`], which redoes the header load
    /// from unmodified state — bit-identical by construction.
    ///
    /// # Safety
    ///
    /// `b` must be less than `self.headers.len()`.
    #[inline]
    unsafe fn update_trusted(&mut self, b: usize, window: u64, value: i64) {
        debug_assert!(b < self.headers.len());
        let max_windows = self.max_windows as u64;
        let hdr = unsafe { self.headers.get_unchecked_mut(b) };
        if let Some(w0) = hdr.w0 {
            let offset = window.saturating_sub(w0);
            if offset < max_windows {
                let offset = offset as u32;
                if offset <= hdr.i {
                    hdr.c = hdr.c.saturating_add(value);
                    return;
                }
            }
            self.update(b, window, value);
        } else {
            hdr.w0 = Some(window);
            hdr.i = 0;
            hdr.c = value;
        }
    }

    /// Seals bucket `b`'s current epoch into its completed list and resets
    /// the streaming state in place (no allocation unless a report is
    /// produced).
    fn seal_epoch(&mut self, b: usize) {
        let hdr = self.headers[b];
        if let Some(w0) = hdr.w0 {
            let (i, c) = (hdr.i, hdr.c);
            let mut view = self.xform_view(b);
            view.push(i, c);
            let coeffs = view.finish();
            if coeffs.padded_len > 0 {
                self.completed[b].push(BucketReport::from_coeffs(w0, coeffs));
            }
        }
        self.reset_epoch_state(b);
    }

    /// Zeroes bucket `b`'s transform state in place. Touches only the
    /// bucket's own slices; never allocates.
    ///
    /// A bucket whose transform never ran (`last_offset == NO_OFFSET`, i.e.
    /// no window ever completed) still has the all-zero approx/partials and
    /// empty selector the previous reset left behind, so only the header
    /// needs clearing. That is the common case for heavy-part evictions
    /// under slot contention — candidates are usually voted out within the
    /// window they were installed in — and skipping the dead fills roughly
    /// halves the eviction cost there.
    fn reset_epoch_state(&mut self, b: usize) {
        if self.headers[b].last_offset != NO_OFFSET {
            let a0 = b * self.approx_len;
            self.approx[a0..a0 + self.approx_len].fill(0);
            let p0 = b * self.levels as usize;
            self.partials[p0..p0 + self.levels as usize].fill(EMPTY_PARTIAL);
            self.selectors.reset(b);
        }
        self.headers[b] = EMPTY_HEADER;
    }

    /// Drains bucket `b`: seals the current epoch and hands over its
    /// completed list, leaving the bucket empty. The list is exact-size:
    /// a drained report travels the collection plane and is kept by the
    /// analyzer as it is, so spare capacity here would be resident there.
    pub fn drain_bucket(&mut self, b: usize) -> Vec<BucketReport> {
        self.seal_epoch(b);
        let mut reports = std::mem::take(&mut self.completed[b]);
        reports.shrink_to_fit();
        reports
    }

    /// Discards bucket `b`'s entire state — completed epochs included — in
    /// place. This is the heavy-part *eviction* path: constant-time, and
    /// allocation-free whenever no epoch had rolled over.
    pub fn reset_bucket(&mut self, b: usize) {
        self.completed[b].clear();
        self.reset_epoch_state(b);
    }

    /// Non-destructive query of bucket `b`: reports for all completed epochs
    /// plus a snapshot of the in-progress epoch (including the still-open
    /// window). Copies the bucket's slices; the flat state is untouched.
    pub fn snapshot_bucket(&self, b: usize) -> Vec<BucketReport> {
        let mut out = self.completed[b].clone();
        let hdr = self.headers[b];
        if let Some(w0) = hdr.w0 {
            let a0 = b * self.approx_len;
            let p0 = b * self.levels as usize;
            let mut approx = self.approx[a0..a0 + self.approx_len].to_vec();
            let mut partials = self.partials[p0..p0 + self.levels as usize].to_vec();
            let mut last_offset = hdr.last_offset;
            let mut sel = self.selectors.owned(b);
            let mut view = XformView {
                levels: self.levels,
                approx: &mut approx,
                partials: &mut partials,
                last_offset: &mut last_offset,
                sel: sel.view(0),
            };
            view.push(hdr.i, hdr.c);
            let coeffs = view.finish();
            if coeffs.padded_len > 0 {
                out.push(BucketReport::from_coeffs(w0, coeffs));
            }
        }
        out
    }

    /// True if no packet has ever hit bucket `b` (in the current or any
    /// completed epoch).
    pub fn is_bucket_empty(&self, b: usize) -> bool {
        self.headers[b].w0.is_none() && self.completed[b].is_empty()
    }

    /// The absolute window id that starts bucket `b`'s current epoch.
    pub fn epoch_start(&self, b: usize) -> Option<u64> {
        self.headers[b].w0
    }

    /// Total bytes recorded in bucket `b`'s current epoch so far (the
    /// approximation array plus the open window counter).
    pub fn current_epoch_total(&self, b: usize) -> i64 {
        let a0 = b * self.approx_len;
        let folded: i64 = self.approx[a0..a0 + self.approx_len].iter().sum();
        folded.saturating_add(self.headers[b].c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::reconstruct;
    use crate::select::{CoeffSelector, HwThresholdSelector, IdealTopK};

    /// Deterministic candidate stream: splitmix-style generator, no external
    /// RNG needed. `idx` is the position in the stream, so `(level, idx)` is
    /// unique per stream, as in a real epoch.
    fn candidates(seed: u64, n: usize, max_level: u32) -> Vec<Candidate> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n as u32)
            .map(|idx| {
                let r = next();
                Candidate {
                    level: (r % (max_level as u64 + 1)) as u32,
                    idx,
                    // Small value range to force plenty of weighted ties,
                    // the case the tie-break exists for.
                    val: ((r >> 32) % 41) as i64 - 20,
                }
            })
            .collect()
    }

    fn by_position(mut details: Vec<Candidate>) -> Vec<Candidate> {
        details.sort_by_key(|c| (c.level, c.idx));
        details
    }

    /// Offers `stream` to a fresh `k`-slot ideal store; the retained set in
    /// `(level, idx)` order.
    fn ideal_store(k: usize, stream: &[Candidate]) -> Vec<Candidate> {
        let mut data = vec![EMPTY_CANDIDATE; k];
        let mut len = 0u32;
        let mut view = SelView::Ideal {
            data: &mut data,
            len: &mut len,
        };
        for &c in stream {
            view.offer(c);
        }
        by_position(view.retained())
    }

    #[test]
    fn flat_ideal_store_retains_the_reference_set() {
        // Compare-with-the-weakest-first (this file) and push-then-pop on
        // std's heap (`IdealTopK`) are different algorithms over one total
        // order, so they must retain the same set on every stream.
        for seed in 0..64u64 {
            for k in [1usize, 2, 3, 7, 8, 64] {
                let stream = candidates(seed, 300, 9);
                let mut reference = IdealTopK::new(k);
                for &c in &stream {
                    reference.offer(c);
                }
                assert_eq!(
                    ideal_store(k, &stream),
                    by_position(reference.retained()),
                    "seed {seed} k {k}: flat store and IdealTopK retain different sets"
                );
            }
        }
    }

    /// The selector as it was before `rank_cmp`: std's heap ordered by
    /// weighted magnitude alone (which of several equal-energy coefficients
    /// survives is whatever std's sift order leaves), push then pop.
    #[derive(Clone, Copy)]
    struct MagnitudeOnly(Candidate);
    impl PartialEq for MagnitudeOnly {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for MagnitudeOnly {}
    impl PartialOrd for MagnitudeOnly {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for MagnitudeOnly {
        fn cmp(&self, other: &Self) -> Ordering {
            crate::haar::weighted_cmp(other.0.val, other.0.level, self.0.val, self.0.level)
        }
    }

    /// `val² · 2^{31 − level}`: the weighted energy, scaled to an integer.
    fn energies(details: &[Candidate]) -> Vec<u128> {
        let mut e: Vec<u128> = details
            .iter()
            .map(|c| (c.val.unsigned_abs() as u128).pow(2) << (31 - c.level))
            .collect();
        e.sort_unstable();
        e
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The tie-break changes *which* equal-energy coefficient survives,
        /// never how many survive or what energy they carry: against the
        /// magnitude-only selector the retained count and the multiset of
        /// weighted energies are equal on any stream.
        #[test]
        fn tie_break_preserves_count_and_energy_multiset(
            draws in proptest::collection::vec((0u32..10, -6i64..7), 0..400),
            k in 1usize..70,
        ) {
            let stream: Vec<Candidate> = draws
                .iter()
                .enumerate()
                .map(|(idx, &(level, val))| Candidate { level, idx: idx as u32, val })
                .collect();
            let mut old = std::collections::BinaryHeap::with_capacity(k + 1);
            for &c in stream.iter().filter(|c| c.val != 0) {
                old.push(MagnitudeOnly(c));
                if old.len() > k {
                    old.pop();
                }
            }
            let old: Vec<Candidate> = old.into_iter().map(|m| m.0).collect();
            let new = ideal_store(k, &stream);
            proptest::prop_assert_eq!(new.len(), old.len());
            proptest::prop_assert_eq!(energies(&new), energies(&old));
        }
    }

    #[test]
    fn full_store_admits_only_what_outranks_its_weakest() {
        let cand = |level, idx, val| Candidate { level, idx, val };
        let (weak, strong) = (cand(0, 5, 10), cand(0, 9, 30));
        // Zero is never retained, full store or not.
        assert_eq!(ideal_store(2, &[cand(0, 0, 0), weak]), vec![weak]);
        assert_eq!(
            ideal_store(2, &[weak, strong, cand(0, 1, 0)]),
            vec![weak, strong]
        );
        // Equal weighted magnitude, higher (level, idx): the weakest stays —
        // same level, and across levels (|20|·2^{-3/2} = |10|·2^{-1/2}).
        for tie in [cand(0, 7, -10), cand(2, 0, 20)] {
            assert_eq!(ideal_store(2, &[weak, strong, tie]), vec![weak, strong]);
        }
        // Equal weighted magnitude, lower (level, idx): displaces it.
        let tie = cand(0, 3, -10);
        assert_eq!(ideal_store(2, &[weak, strong, tie]), vec![tie, strong]);
        // Strictly stronger: displaces it, wherever it sits.
        let stronger = cand(3, 40, 41); // 41²/16 > 10²/2
        assert_eq!(
            ideal_store(2, &[weak, strong, stronger]),
            vec![strong, stronger]
        );
        // Weaker than the weakest: dropped.
        assert_eq!(
            ideal_store(2, &[weak, strong, cand(0, 1, 9)]),
            vec![weak, strong]
        );
        // k = 1: the store is its own root.
        assert_eq!(ideal_store(1, &[weak, cand(0, 7, -10)]), vec![weak]);
        assert_eq!(ideal_store(1, &[weak, tie]), vec![tie]);
        assert_eq!(ideal_store(1, &[weak, strong, cand(0, 1, 0)]), vec![strong]);
    }

    #[test]
    fn flat_hw_store_matches_reference_selector_exactly() {
        for seed in 0..32u64 {
            for (k, te, to) in [(2usize, 0u64, 0u64), (5, 3, 1), (8, 5, 5), (64, 1, 2)] {
                let stream = candidates(seed ^ 0xABCD, 400, 9);
                let mut reference = HwThresholdSelector::new(k, te, to);
                let cap_even = k / 2 + k % 2;
                let cap_odd = k / 2;
                let mut even = vec![EMPTY_CANDIDATE; cap_even];
                let mut odd = vec![EMPTY_CANDIDATE; cap_odd];
                let (mut le, mut lo, mut ov) = (0u32, 0u32, 0u64);
                let mut view = SelView::Hw {
                    cap_even,
                    cap_odd,
                    threshold_even: te,
                    threshold_odd: to,
                    even: &mut even,
                    odd: &mut odd,
                    len_even: &mut le,
                    len_odd: &mut lo,
                    overflow: &mut ov,
                };
                for c in stream {
                    reference.offer(c);
                    view.offer(c);
                }
                assert_eq!(view.retained(), reference.retained(), "seed {seed} k {k}");
                assert_eq!(ov, reference.overflow_drops, "overflow count diverged");
            }
        }
    }

    #[test]
    fn arena_bucket_matches_streaming_transform_reports() {
        use crate::select::Selector;
        use crate::streaming::StreamingTransform;
        // Drive an arena bucket and a StreamingTransform with the same
        // window stream; finished coefficients must be equal, the retained
        // details as a set.
        for kind in [
            SelectorKind::Ideal,
            SelectorKind::HwThreshold { even: 2, odd: 2 },
        ] {
            let mut arena = BucketArena::new(4, 64, 8, kind, 3);
            let mut xform = StreamingTransform::new(4, 64, Selector::new(kind, 8));
            let mut state = 7u64;
            let mut w = 10u64;
            let (mut last_i, mut last_c) = (0u32, 0i64);
            let mut w0: Option<u64> = None;
            for _ in 0..40 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let adv = state >> 60; // 0..16 window gap
                let v = ((state >> 20) % 1000) as i64;
                w += adv;
                if let Some(w0) = w0 {
                    if w - w0 >= 64 {
                        break; // stay inside one epoch (max_windows = 64)
                    }
                }
                // Mirror `BucketArena::update`'s folding against the raw transform
                // (offsets are relative to the first window seen, w0).
                match w0 {
                    None => {
                        w0 = Some(w);
                        last_i = 0;
                        last_c = v;
                    }
                    Some(w0) if (w - w0) as u32 <= last_i => last_c += v,
                    Some(w0) => {
                        xform.push(last_i, last_c);
                        last_i = (w - w0) as u32;
                        last_c = v;
                    }
                }
                arena.update(1, w, v); // use a middle bucket
            }
            if w0.is_some() {
                xform.push(last_i, last_c);
            }
            let reports = arena.drain_bucket(1);
            let coeffs = xform.finish();
            if coeffs.padded_len == 0 {
                assert!(reports.is_empty());
            } else {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].w0, w0.expect("bucket saw packets"));
                let (mut got, mut want) = (reports[0].coeffs(), coeffs);
                got.details = by_position(got.details);
                want.details = by_position(want.details);
                assert_eq!(got, want, "kind {kind:?}");
            }
            // Neighbour buckets untouched.
            assert!(arena.is_bucket_empty(0));
            assert!(arena.is_bucket_empty(2));
        }
    }

    #[test]
    fn reset_bucket_discards_everything_in_place() {
        let mut arena = BucketArena::new(3, 8, 4, SelectorKind::Ideal, 2);
        for w in 0..20u64 {
            arena.update(0, w, 100); // several rollovers → completed epochs
        }
        assert!(!arena.is_bucket_empty(0));
        arena.reset_bucket(0);
        assert!(arena.is_bucket_empty(0));
        assert!(arena.drain_bucket(0).is_empty());
        // And the bucket is immediately reusable.
        arena.update(0, 3, 7);
        let reports = arena.drain_bucket(0);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].w0, 3);
    }

    #[test]
    fn drain_is_exact_size_and_leaves_no_capacity() {
        // A long flow: two completed epochs + one open, reconstructing to
        // the injected counts end to end (k = 64 keeps every coefficient).
        let mut arena = BucketArena::new(2, 4, 64, SelectorKind::Ideal, 1);
        for w in 0..12u64 {
            arena.update(0, w, (w as i64 + 1) * 10);
        }
        let drained = arena.drain_bucket(0);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained.capacity(), drained.len(), "drain is exact-size");
        assert_eq!(arena.completed[0].capacity(), 0, "bucket keeps nothing");
        assert!(arena.is_bucket_empty(0));
        let all: Vec<f64> = drained
            .iter()
            .flat_map(|r| reconstruct(&r.coeffs()).into_iter().take(4))
            .collect();
        for (w, &got) in all.iter().enumerate() {
            assert!((got - (w as f64 + 1.0) * 10.0).abs() < 1e-9, "window {w}");
        }
    }

    #[test]
    fn first_packet_opens_the_epoch_and_same_window_accumulates() {
        let mut arena = BucketArena::new(3, 64, 16, SelectorKind::Ideal, 1);
        assert!(arena.is_bucket_empty(0));
        assert!(arena.drain_bucket(0).is_empty());
        arena.update(0, 1000, 500);
        assert_eq!(arena.epoch_start(0), Some(1000));
        assert!(!arena.is_bucket_empty(0));
        arena.update(0, 1000, 50);
        let first = arena.drain_bucket(0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].w0, 1000);
        assert_eq!(reconstruct(&first[0].coeffs())[0], 550.0);
        // Drained: the next packet starts a fresh epoch at its own window.
        assert!(arena.is_bucket_empty(0));
        arena.update(0, 5000, 7);
        let second = arena.drain_bucket(0);
        assert_eq!(second[0].w0, 5000);
        assert_eq!(reconstruct(&second[0].coeffs())[0], 7.0);
    }

    #[test]
    fn capacity_overflow_rolls_into_a_new_epoch() {
        let mut arena = BucketArena::new(3, 8, 16, SelectorKind::Ideal, 1);
        arena.update(0, 0, 1);
        arena.update(0, 7, 2);
        arena.update(0, 8, 3); // exceeds max_windows=8 → rollover
        arena.update(0, 9, 4);
        let reports = arena.drain_bucket(0);
        assert_eq!(reports.len(), 2);
        assert_eq!((reports[0].w0, reports[1].w0), (0, 8));
        let rec0 = reconstruct(&reports[0].coeffs());
        assert_eq!((rec0[0], rec0[7]), (1.0, 2.0));
        let rec1 = reconstruct(&reports[1].coeffs());
        assert_eq!((rec1[0], rec1[1]), (3.0, 4.0));
    }

    #[test]
    fn stragglers_fold_into_the_open_window_and_saturate() {
        let mut arena = BucketArena::new(3, 64, 16, SelectorKind::Ideal, 2);
        arena.update(0, 10, 100);
        arena.update(0, 12, 10);
        arena.update(0, 11, 5); // late packet: counted in window 12's counter
        assert_eq!(arena.current_epoch_total(0), 115);
        let rec = reconstruct(&arena.drain_bucket(0)[0].coeffs());
        assert_eq!((rec[0], rec[2]), (100.0, 15.0));

        // Regression: the same-window fold used a plain `+=`, so a counter
        // near i64::MAX wrapped into a huge negative epoch total in release
        // builds. It must saturate, and the saturated window seals cleanly.
        arena.update(1, 10, i64::MAX - 10);
        arena.update(1, 10, 100);
        assert_eq!(arena.current_epoch_total(1), i64::MAX);
        let reports = arena.drain_bucket(1);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].approx[0], i64::MAX);
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let mut arena = BucketArena::new(3, 64, 16, SelectorKind::Ideal, 1);
        arena.update(0, 10, 100);
        arena.update(0, 13, 40);
        let snap = arena.snapshot_bucket(0);
        assert_eq!(snap.len(), 1);
        let rec = reconstruct(&snap[0].coeffs());
        assert_eq!((rec[0], rec[3]), (100.0, 40.0));
        // Bucket still live.
        arena.update(0, 14, 1);
        let rec = reconstruct(&arena.drain_bucket(0)[0].coeffs());
        assert_eq!((rec[0], rec[3], rec[4]), (100.0, 40.0, 1.0));
    }

    #[test]
    fn hw_selector_bucket_also_roundtrips() {
        let kind = SelectorKind::HwThreshold { even: 0, odd: 0 };
        let mut arena = BucketArena::new(4, 64, 32, kind, 1);
        for w in 0..16 {
            arena.update(0, w, 100 + w as i64);
        }
        let rec = reconstruct(&arena.drain_bucket(0)[0].coeffs());
        for (w, &r) in rec.iter().enumerate().take(16) {
            assert!((r - (100.0 + w as f64)).abs() < 1e-9);
        }
    }
}
