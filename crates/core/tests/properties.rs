//! Property-based tests for the WaveSketch core invariants (DESIGN.md §6).

use proptest::prelude::*;
use wavesketch::haar;
use wavesketch::reconstruct::reconstruct;
use wavesketch::report::digest;
use wavesketch::select::{Candidate, CoeffSelector, HwThresholdSelector, IdealTopK};
use wavesketch::streaming::StreamingTransform;
use wavesketch::{
    BasicWaveSketch, BucketArena, BucketReport, DetailRecord, FlowKey, SketchConfig, SketchReport,
};

/// A sparse window series: strictly increasing offsets with positive counts.
fn sparse_series(max_offset: u32) -> impl Strategy<Value = Vec<(u32, i64)>> {
    proptest::collection::btree_map(0..max_offset, 1i64..100_000, 0..64)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    /// Offline Haar transform round-trips exactly for any signal.
    #[test]
    fn offline_roundtrip(signal in proptest::collection::vec(-50_000i64..50_000, 0..300),
                         levels in 1u32..10) {
        let coeffs = haar::transform(&signal, levels);
        let rec = haar::inverse(&coeffs);
        for (i, &x) in signal.iter().enumerate() {
            prop_assert!((rec[i] - x as f64).abs() < 1e-6);
        }
        for &r in &rec[signal.len()..] {
            prop_assert!(r.abs() < 1e-6);
        }
    }

    /// Streaming transform + reconstruction with an unbounded selector is
    /// lossless for any sparse series.
    #[test]
    fn streaming_roundtrip(series in sparse_series(512), levels in 1u32..9) {
        let mut t = StreamingTransform::new(levels, 512, IdealTopK::new(1 << 16));
        for &(off, v) in &series {
            t.push(off, v);
        }
        let rec = reconstruct(&t.finish());
        let mut dense = vec![0i64; rec.len()];
        for &(off, v) in &series {
            dense[off as usize] = v;
        }
        for (i, &x) in dense.iter().enumerate() {
            prop_assert!((rec[i] - x as f64).abs() < 1e-6,
                         "window {}: {} vs {}", i, rec[i], x);
        }
    }

    /// Streaming coefficients equal the offline transform of the dense
    /// zero-filled series (approximations always, details where retained).
    #[test]
    fn streaming_matches_offline(series in sparse_series(256), levels in 1u32..8) {
        let mut dense = vec![0i64; 256];
        for &(off, v) in &series {
            dense[off as usize] = v;
        }
        let mut t = StreamingTransform::new(levels, 256, IdealTopK::new(1 << 16));
        for &(off, v) in &series {
            t.push(off, v);
        }
        let online = t.finish();
        if online.padded_len == 0 {
            return Ok(()); // empty series
        }
        let offline = haar::transform(&dense[..online.padded_len], levels);
        prop_assert_eq!(&online.approx, &offline.approx);
        for c in &online.details {
            prop_assert_eq!(offline.details[c.level as usize][c.idx as usize], c.val);
        }
    }

    /// Total volume survives any compression level because approximation
    /// coefficients are never discarded.
    #[test]
    fn total_always_exact(series in sparse_series(512), k in 1usize..16) {
        let mut t = StreamingTransform::new(6, 512, IdealTopK::new(k));
        let mut total = 0i64;
        for &(off, v) in &series {
            t.push(off, v);
            total += v;
        }
        let rec = reconstruct(&t.finish());
        let rec_total: f64 = rec.iter().sum();
        prop_assert!((rec_total - total as f64).abs() < 1e-6);
    }

    /// Appendix A optimality on random signals: the ideal selection's L2
    /// error never exceeds that of 32 random same-size selections.
    #[test]
    fn ideal_selection_beats_random_subsets(
        signal in proptest::collection::vec(0i64..10_000, 16..64),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let levels = 4u32;
        let k = 4usize;
        let full = haar::transform(&signal, levels);
        let mut positions = Vec::new();
        for (l, det) in full.details.iter().enumerate() {
            for (q, &v) in det.iter().enumerate() {
                if v != 0 {
                    positions.push(Candidate { level: l as u32, idx: q as u32, val: v });
                }
            }
        }
        let err_of = |keep: &[Candidate]| -> f64 {
            let mut det: Vec<Vec<i64>> = full.details.iter().map(|d| vec![0; d.len()]).collect();
            for c in keep {
                det[c.level as usize][c.idx as usize] = c.val;
            }
            let rec = haar::inverse(&haar::HaarCoefficients {
                approx: full.approx.clone(),
                details: det,
                padded_len: full.padded_len,
            });
            // L2 optimality (Appendix A) holds over the padded vector — the
            // padding windows are part of the reconstruction target too.
            let mut padded = signal.clone();
            padded.resize(full.padded_len, 0);
            padded.iter().zip(&rec).map(|(&a, &b)| (a as f64 - b).powi(2)).sum()
        };
        let mut sel = IdealTopK::new(k);
        for &c in &positions {
            sel.offer(c);
        }
        let ideal_err = err_of(&sel.retained());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..32 {
            if positions.is_empty() {
                break;
            }
            let subset: Vec<Candidate> = (0..k.min(positions.len()))
                .map(|_| positions[rng.gen_range(0..positions.len())])
                .collect();
            prop_assert!(ideal_err <= err_of(&subset) + 1e-6);
        }
    }

    /// A bucket never under-reports total volume, for any update pattern
    /// (monotone or with stragglers) and any selector budget.
    #[test]
    fn bucket_total_conserved(updates in proptest::collection::vec((0u64..600, 1i64..10_000), 1..80),
                              k in 1usize..32) {
        let mut sorted = updates.clone();
        sorted.sort_by_key(|&(w, _)| w);
        let mut bucket = BucketArena::new(5, 256, k, wavesketch::SelectorKind::Ideal, 1);
        let mut total = 0i64;
        for &(w, v) in &sorted {
            bucket.update(0, w, v);
            total += v;
        }
        let reports = bucket.drain_bucket(0);
        let rep_total: i64 = reports.iter().map(|r| r.total()).sum();
        prop_assert_eq!(rep_total, total);
    }

    /// Count-Min property lifted to curves: for any flow population, the
    /// queried total of a recorded flow is never below its true total.
    #[test]
    fn sketch_never_undercounts(flows in proptest::collection::vec((0u64..40, 0u64..64, 1i64..5_000), 1..120)) {
        let config = SketchConfig::builder()
            .rows(3)
            .width(16)
            .levels(4)
            .topk(16)
            .max_windows(64)
            .build();
        let mut sketch = BasicWaveSketch::new(config);
        let mut truth = std::collections::HashMap::new();
        let mut by_window = flows.clone();
        by_window.sort_by_key(|&(_, w, _)| w);
        for &(id, w, v) in &by_window {
            sketch.update(&FlowKey::from_id(id), w, v);
            *truth.entry(id).or_insert(0i64) += v;
        }
        for (id, true_total) in truth {
            let est = sketch.query(&FlowKey::from_id(id)).expect("recorded flow").total();
            prop_assert!(est >= true_total as f64 - 1e-6,
                         "flow {} est {} < truth {}", id, est, true_total);
        }
    }

    /// Full-version conservation: whatever the flow mix, vote churn and
    /// elections, a queried flow's total never undercounts the truth (the
    /// light part counts everything; the heavy overlay only substitutes
    /// exact values).
    #[test]
    fn full_sketch_never_undercounts(
        flows in proptest::collection::vec((0u64..30, 0u64..128, 1i64..5_000), 1..150),
    ) {
        let config = SketchConfig::builder()
            .rows(2)
            .width(8)
            .levels(5)
            .topk(512)
            .max_windows(128)
            .heavy_rows(4) // tiny → guaranteed vote churn
            .build();
        let mut sketch = wavesketch::FullWaveSketch::new(config);
        let mut truth = std::collections::HashMap::new();
        let mut by_window = flows.clone();
        by_window.sort_by_key(|&(_, w, _)| w);
        for &(id, w, v) in &by_window {
            sketch.update(&FlowKey::from_id(id), w, v);
            *truth.entry(id).or_insert(0i64) += v;
        }
        for (id, true_total) in truth {
            let est = sketch.query(&FlowKey::from_id(id)).expect("recorded").total();
            prop_assert!(
                est >= true_total as f64 - 1e-6,
                "flow {} est {} < truth {}", id, est, true_total
            );
        }
    }

    /// The hardware selector with zero thresholds and huge capacity retains
    /// exactly the nonzero candidates the ideal selector would (same set).
    #[test]
    fn hw_with_zero_threshold_equals_ideal_at_large_k(series in sparse_series(128)) {
        let run = |mut sel: Box<dyn FnMut(Candidate)>| {
            let mut t = StreamingTransform::new(4, 128, IdealTopK::new(1 << 16));
            for &(off, v) in &series {
                t.push(off, v);
            }
            for c in t.finish().details {
                sel(c);
            }
        };
        let mut ideal = IdealTopK::new(1 << 16);
        run(Box::new(|c| ideal.offer(c)));
        let mut hw = HwThresholdSelector::new(1 << 16, 0, 0);
        run(Box::new(|c| hw.offer(c)));
        let to_set = |v: Vec<Candidate>| -> std::collections::BTreeSet<(u32, u32, i64)> {
            v.into_iter().map(|c| (c.level, c.idx, c.val)).collect()
        };
        prop_assert_eq!(to_set(ideal.retained()), to_set(hw.retained()));
    }
}

proptest! {
    /// `weighted_cmp` is exact across the full i64 range: it must agree with
    /// itself under the weight identity 2·|v| at level l+2 ≡ |v| at level l
    /// (value² quadruples, squared weight quarters), and be antisymmetric —
    /// properties the pre-fix u128 arithmetic violated by overflowing.
    #[test]
    fn weighted_cmp_is_antisymmetric_and_scale_invariant(
        a in -i64::MAX..i64::MAX,
        b in -i64::MAX..i64::MAX,
        la in 0u32..200,
        lb in 0u32..200,
    ) {
        let fwd = haar::weighted_cmp(a, la, b, lb);
        prop_assert_eq!(fwd, haar::weighted_cmp(b, lb, a, la).reverse());
        prop_assert_eq!(haar::weighted_cmp(a, la, a, la), std::cmp::Ordering::Equal);
        if a.checked_mul(2).is_some() {
            prop_assert_eq!(haar::weighted_cmp(2 * a, la + 2, b, lb), fwd);
        }
        if b.checked_mul(2).is_some() {
            prop_assert_eq!(haar::weighted_cmp(a, la, 2 * b, lb + 2), fwd);
        }
    }
}

/// An arbitrary epoch coefficient set, including shapes the transform itself
/// would never emit: single-window and early-stop epochs
/// (`padded_len.trailing_zeros() < levels`), truncated or over-long
/// approximation arrays, duplicate detail keys and details whose level or
/// index is out of range for the epoch, and lengths that are a whole number
/// of blocks but not a power of two (the kernel's detail plane is laid out
/// from `padded_len`). The kernel must shrug at all of them exactly the way
/// the dense reference does.
fn arb_epoch() -> impl Strategy<Value = wavesketch::streaming::EpochCoefficients> {
    (
        0u32..8,
        0usize..8,
        1usize..6,
        proptest::collection::vec(-1_000_000i64..1_000_000, 0..16),
        proptest::collection::vec((0u32..10, 0u32..300, -1_000_000i64..1_000_000), 0..24),
    )
        .prop_map(|(levels, len_log2, odd_blocks, mut approx, details)| {
            let padded_len = odd_blocks << len_log2;
            let blocks = padded_len >> levels.min(padded_len.trailing_zeros());
            approx.truncate(blocks + 3); // short, exact and over-long lengths
            wavesketch::streaming::EpochCoefficients {
                levels,
                padded_len,
                approx,
                details: details
                    .into_iter()
                    .map(|(level, idx, val)| Candidate { level, idx, val })
                    .collect(),
            }
        })
}

proptest! {
    /// The block-dense reconstruction kernel is **bit-identical** to the dense
    /// reference — `f64::to_bits` equality per window, not an epsilon — for
    /// arbitrary coefficient sets, including empty, single-window and
    /// early-stop epochs and out-of-range or duplicate details.
    #[test]
    fn kernel_reconstruction_is_bit_identical_to_dense(coeffs in arb_epoch()) {
        use wavesketch::reconstruct::{reconstruct_dense, reconstruct_into, ReconstructScratch};
        let dense = reconstruct_dense(&coeffs);
        let mut scratch = ReconstructScratch::new();
        let kernel = reconstruct_into(&coeffs, &mut scratch);
        prop_assert_eq!(dense.len(), kernel.len());
        for (i, (d, k)) in dense.iter().zip(kernel.iter()).enumerate() {
            prop_assert_eq!(d.to_bits(), k.to_bits(),
                            "window {}: dense {} vs kernel {}", i, d, k);
        }
    }

    /// Same bit-identity over *real* epochs: coefficient sets produced by the
    /// streaming transform under aggressive top-k compression, reconstructed
    /// through one shared scratch (so buffer reuse across shapes is also
    /// under test). Covers empty epochs (no pushes survive) naturally.
    #[test]
    fn kernel_matches_dense_on_transform_output(
        series in sparse_series(512),
        levels in 1u32..9,
        k in 1usize..12,
    ) {
        use wavesketch::reconstruct::{reconstruct_dense, reconstruct_into, ReconstructScratch};
        let mut scratch = ReconstructScratch::new();
        for cap in [512usize, 64, 1] {
            let mut t = StreamingTransform::new(levels, cap, IdealTopK::new(k));
            for &(off, v) in &series {
                if (off as usize) < cap {
                    t.push(off, v);
                }
            }
            let coeffs = t.finish();
            let dense = reconstruct_dense(&coeffs);
            let kernel = reconstruct_into(&coeffs, &mut scratch);
            let dense_bits: Vec<u64> = dense.iter().map(|v| v.to_bits()).collect();
            let kernel_bits: Vec<u64> = kernel.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(dense_bits, kernel_bits, "cap {}", cap);
        }
    }
}

/// One arbitrary bucket epoch for the digest property — field values over
/// their whole ranges, since the digest never interprets them.
fn arb_bucket_report() -> impl Strategy<Value = BucketReport> {
    (
        0u64..u64::MAX,
        0u32..u32::MAX,
        0usize..usize::MAX,
        proptest::collection::vec(i64::MIN..i64::MAX, 0..4),
        proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, i64::MIN..i64::MAX), 0..6),
    )
        .prop_map(|(w0, levels, padded_len, approx, details)| BucketReport {
            w0,
            levels,
            padded_len,
            approx,
            details: details
                .into_iter()
                .map(|(level, idx, val)| DetailRecord { level, idx, val })
                .collect(),
        })
}

fn arb_sketch_report() -> impl Strategy<Value = SketchReport> {
    let epochs = || proptest::collection::vec(arb_bucket_report(), 0..3);
    (
        proptest::collection::vec((proptest::collection::vec(0u8..255, 0..14), epochs()), 0..3),
        proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, epochs()), 0..3),
    )
        .prop_map(|(heavy, light)| SketchReport { heavy, light })
}

/// The epoch list of heavy (`light == false`) or light entry `e`.
fn epochs_mut(sr: &mut SketchReport, light: bool, e: usize) -> &mut Vec<BucketReport> {
    if light {
        &mut sr.light[e].2
    } else {
        &mut sr.heavy[e].1
    }
}

/// Every report one small damage away from `sr`: each single-bit flip of each
/// field, each single dropped entry / epoch / approximation / detail, each
/// swap of two different details one or two positions apart, and each
/// exchange of an approximation value with a different detail value.
fn damaged_copies(sr: &SketchReport) -> Vec<(String, SketchReport)> {
    let mut out = Vec::new();
    let mut damage = |what: String, edit: &dyn Fn(&mut SketchReport)| {
        let mut copy = sr.clone();
        edit(&mut copy);
        out.push((what, copy));
    };
    for (e, (key, _)) in sr.heavy.iter().enumerate() {
        damage(format!("drop heavy {e}"), &|m| {
            m.heavy.remove(e);
        });
        for bit in 0..8 * key.len() {
            damage(format!("heavy {e} key bit {bit}"), &|m| {
                m.heavy[e].0[bit / 8] ^= 1 << (bit % 8)
            });
        }
    }
    for e in 0..sr.light.len() {
        damage(format!("drop light {e}"), &|m| {
            m.light.remove(e);
        });
        for bit in 0..32 {
            damage(format!("light {e} row bit {bit}"), &|m| {
                m.light[e].0 ^= 1 << bit
            });
            damage(format!("light {e} col bit {bit}"), &|m| {
                m.light[e].1 ^= 1 << bit
            });
        }
    }
    let heavy = sr.heavy.iter().map(|(_, brs)| (false, brs));
    let light = sr.light.iter().map(|(_, _, brs)| (true, brs));
    for (e, (light, epochs)) in heavy.enumerate().chain(light.enumerate()) {
        for (i, r) in epochs.iter().enumerate() {
            let at = format!("{} {e} epoch {i}", if light { "light" } else { "heavy" });
            damage(format!("drop {at}"), &|m| {
                epochs_mut(m, light, e).remove(i);
            });
            for bit in 0..64 {
                damage(format!("{at} w0 bit {bit}"), &|m| {
                    epochs_mut(m, light, e)[i].w0 ^= 1 << bit
                });
                damage(format!("{at} padded_len bit {bit}"), &|m| {
                    epochs_mut(m, light, e)[i].padded_len ^= 1 << bit
                });
            }
            for bit in 0..32 {
                damage(format!("{at} levels bit {bit}"), &|m| {
                    epochs_mut(m, light, e)[i].levels ^= 1 << bit
                });
            }
            for a in 0..r.approx.len() {
                damage(format!("drop {at} approx {a}"), &|m| {
                    epochs_mut(m, light, e)[i].approx.remove(a);
                });
                for bit in 0..64 {
                    damage(format!("{at} approx {a} bit {bit}"), &|m| {
                        epochs_mut(m, light, e)[i].approx[a] ^= 1 << bit
                    });
                }
            }
            for d in 0..r.details.len() {
                damage(format!("drop {at} detail {d}"), &|m| {
                    epochs_mut(m, light, e)[i].details.remove(d);
                });
                // Swaps of neighbours and of details two apart.
                for gap in [1, 2] {
                    if d + gap < r.details.len() && r.details[d] != r.details[d + gap] {
                        damage(format!("swap {at} details {d}, {}", d + gap), &|m| {
                            epochs_mut(m, light, e)[i].details.swap(d, d + gap)
                        });
                    }
                }
                for a in 0..r.approx.len() {
                    if r.approx[a] != r.details[d].val {
                        damage(format!("exchange {at} approx {a}, detail {d} val"), &|m| {
                            let epoch = &mut epochs_mut(m, light, e)[i];
                            std::mem::swap(&mut epoch.approx[a], &mut epoch.details[d].val)
                        });
                    }
                }
                for bit in 0..32 {
                    damage(format!("{at} detail {d} level bit {bit}"), &|m| {
                        epochs_mut(m, light, e)[i].details[d].level ^= 1 << bit
                    });
                    damage(format!("{at} detail {d} idx bit {bit}"), &|m| {
                        epochs_mut(m, light, e)[i].details[d].idx ^= 1 << bit
                    });
                }
                for bit in 0..64 {
                    damage(format!("{at} detail {d} val bit {bit}"), &|m| {
                        epochs_mut(m, light, e)[i].details[d].val ^= 1 << bit
                    });
                }
            }
        }
    }
    out
}

proptest! {
    /// The envelope digest (`SketchReport::integrity`) sees every small
    /// damage a lossy transport can do: any single flipped bit of any field,
    /// any single dropped entry, epoch, approximation or detail, any two
    /// details one or two positions apart swapped (across lanes and within
    /// one), any approximation value exchanged with a detail value.
    #[test]
    fn integrity_changes_under_every_small_damage(sr in arb_sketch_report()) {
        let sealed = sr.integrity();
        for (what, damaged) in damaged_copies(&sr) {
            prop_assert!(damaged.integrity() != sealed, "undetected: {}", what);
        }
    }

    /// The byte digest the seal and the archive records share sees every
    /// single-byte damage of an encoding (any nonzero XOR of any one byte:
    /// a change confined to one word) and every strict prefix (a torn
    /// record or a truncated datagram).
    #[test]
    fn digest_changes_under_every_byte_flip_and_every_prefix(sr in arb_sketch_report()) {
        let bytes = sr.encode();
        let sealed = digest(&bytes);
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for mask in 1..=u8::MAX {
                damaged[at] ^= mask;
                prop_assert!(digest(&damaged) != sealed, "undetected: byte {} ^ {:#04x}", at, mask);
                damaged[at] ^= mask;
            }
        }
        for cut in 0..bytes.len() {
            prop_assert!(digest(&bytes[..cut]) != sealed, "undetected: prefix of {} bytes", cut);
        }
    }
}
