//! Batch ingest: structure-of-arrays staging and a vectorized hash chain for
//! [`crate::FullWaveSketch::update_batch`] / [`crate::BasicWaveSketch::update_batch`].
//!
//! A sketch update is three phases: hash the key (`d + 1` FNV-1a chains),
//! derive bucket indices, fold the value into each bucket. The per-record
//! path pays the full FNV latency per packet — ~32 ns of the ~68 ns update on
//! the reference box — because one chain is a serial dependency of 13
//! multiplies and even the interleaved [`crate::FlowKey::hash_packed_many`]
//! only overlaps the `d + 1` chains of a *single* key. This module restores
//! the missing parallelism by hashing *many keys per instruction stream*:
//!
//! * **Staging** (`BatchScratch`): a burst of `(FlowKey, window, value)`
//!   records is packed into transposed key-byte rows (byte `i` of key `j` at
//!   `packed_pos(i, j)`), so one SIMD row load picks up byte `i` of 8
//!   consecutive keys in one instruction.
//! * **Hash kernel**: the same FNV-1a + splitmix64 math evaluated 8 keys
//!   wide with AVX-512 `vpmullq`. All integer ops are exact, so the kernel
//!   is bit-identical to the scalar hash by construction — and unit tests
//!   pin it against a portable reference.
//! * **Derive**: light-column / heavy-slot indices from the raw hashes,
//!   identical to [`crate::SketchConfig::light_col_placed`] /
//!   `heavy_slot_placed`. The fold (`apply_batch`) range-checks every staged
//!   index once, up front, instead of on every bucket access.
//!
//! The fold phase stays in `BucketArena::apply_batch`, which
//! walks one row at a time with the *next* records' buckets prefetched —
//! possible only in a batch, where future addresses are already known
//! (DESIGN.md §10 records why prefetching the per-record path measured
//! neutral-to-negative: it has no lookahead).
//!
//! # Selection
//!
//! There is one staged pipeline and one fallback. [`active_kernel`] reports
//! [`BatchKernel::Avx512`] when the CPU has `avx512f` + `avx512dq`
//! (`is_x86_feature_detected!`); every sketch reads it once at construction.
//! On any other CPU or architecture it reports [`BatchKernel::Scalar`] and
//! `update_batch` is a loop over per-record `update` — no staging, no
//! `BatchScratch`. An AVX2 kernel and a software-interleaved kernel used to
//! sit in between; both measured at or below the per-record path they were
//! pinned bit-identical to (DESIGN.md §15 "Tried and rejected").
//!
//! # Bit-identity contract
//!
//! Batching may only reorder *independent* work. The admissible reorderings
//! (proved by the per-bucket state machine in `arena.rs` and pinned by
//! golden fixtures, the 32-seed differential fuzz and the batch proptests):
//!
//! * light buckets are mutually independent and share no state with the
//!   heavy part, so row-at-a-time application preserves each bucket's
//!   record order while reordering across buckets;
//! * the heavy vote machine is per-slot; the batch path replays records in
//!   original order, so each slot sees the exact scalar sequence.
//!
//! Records for the *same* bucket are never pre-merged: `saturating_add` is
//! not associative once mixed-sign values are involved, so merging
//! same-window records before the fold could change saturation behaviour.

use crate::config::{fast_mod, SketchConfig, HEAVY_TAG};
use crate::flow::{chain_init, FlowKey};

/// Records staged per internal chunk. Bounds the scratch memory (a few KB)
/// regardless of caller batch size, and keeps the staged arrays L1-resident
/// while the fold phase walks them.
pub(crate) const CHUNK: usize = 256;

/// Packed key bytes per key (see [`FlowKey::pack`]).
#[cfg(any(target_arch = "x86_64", test))]
const KEY_BYTES: usize = 13;

/// Records per transpose block (one SIMD row-load's worth of keys).
const BLOCK: usize = 8;

/// Bytes per transpose block: 16 byte-rows (13 key bytes + 3 pad) × 8 keys.
const BLOCK_BYTES: usize = 2 * BLOCK * BLOCK;

/// Byte `i` of record `j` in the block-major packed matrix: record `j`
/// lives in block `j / 8`, column `j % 8`; inside a block the 16 byte-rows
/// (13 key bytes + 3 pad) are contiguous, 8 keys each. A hash step's
/// 8-key byte vector is therefore one contiguous 8-byte load, and the
/// whole block spans two cache lines.
#[inline(always)]
fn packed_pos(i: usize, j: usize) -> usize {
    (j / BLOCK) * BLOCK_BYTES + i * BLOCK + (j % BLOCK)
}

/// How `update_batch` ingests a burst on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKernel {
    /// The staged pipeline: 8 keys per 512-bit vector (`vpmullq`; needs
    /// `avx512f` + `avx512dq`).
    Avx512,
    /// No staging: `update_batch` loops over per-record `update`.
    Scalar,
}

impl BatchKernel {
    /// Stable lower-case name (used in bench records and logs).
    pub fn name(self) -> &'static str {
        match self {
            BatchKernel::Avx512 => "avx512",
            BatchKernel::Scalar => "scalar",
        }
    }
}

/// True if the CPU can run [`x86::hash_avx512`].
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The path every `update_batch` takes on this CPU: the staged AVX-512
/// pipeline where `avx512f` + `avx512dq` are detected, the per-record
/// `update` loop everywhere else. The two are bit-identical, so this only
/// ever decides speed. (The detection macro caches its answer.)
pub fn active_kernel() -> BatchKernel {
    if avx512_available() {
        BatchKernel::Avx512
    } else {
        BatchKernel::Scalar
    }
}

/// True if the pack phase may use the `vpermt2b` transpose
/// ([`x86::pack_transpose_vbmi`]); the scalar transpose produces the same
/// matrix everywhere else.
fn vbmi_transpose_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable transpose-pack: 13 byte stores per record, all landing inside
/// the record's own 128-byte block (two cache lines). Produces bytes
/// identical to the SIMD transpose.
fn pack_transpose_scalar(chunk: &[(FlowKey, u64, i64)], packed_t: &mut [u8]) {
    for (j, (flow, _, _)) in chunk.iter().enumerate() {
        let p = flow.pack();
        for (i, &byte) in p.iter().enumerate() {
            packed_t[packed_pos(i, j)] = byte;
        }
    }
}

/// Reusable staging buffers for one sketch's batch ingest. Sized once at
/// construction (from the config's row count); `stage` never allocates, so
/// the batch path stays inside the repo's zero-allocation gate. Only sketches
/// on the staged path ([`BatchKernel::Avx512`]) ever build one.
#[derive(Debug)]
pub(crate) struct BatchScratch {
    /// Transpose the pack phase with `vpermt2b` (CPUs with `avx512bw` +
    /// `avx512vbmi`); otherwise byte-by-byte scalar stores produce the
    /// identical matrix.
    vbmi: bool,
    /// Per-tag initial FNV states: rows `0..d`, then (full sketch only) the
    /// heavy tag.
    inits: Vec<u64>,
    /// Transposed packed key bytes, block-major (see [`packed_pos`]).
    packed_t: Vec<u8>,
    /// Raw hashes, tag-major: tag `t` of record `j` at `t * CHUNK + j`.
    hashes: Vec<u64>,
    /// Per-record flow keys (SoA copy of the chunk). The heavy vote replay
    /// compares keys per record; reading them here instead of back out of
    /// the caller's wider AoS records avoids a second streaming pass over
    /// the input.
    pub(crate) keys: Vec<FlowKey>,
    /// Per-record windows (SoA copy of the chunk).
    pub(crate) windows: Vec<u64>,
    /// Per-record values (SoA copy of the chunk).
    pub(crate) values: Vec<i64>,
    /// Light arena bucket index (`row * width + col`), row-major:
    /// row `r` of record `j` at `r * CHUNK + j`.
    pub(crate) light_idx: Vec<u32>,
    /// Heavy slot per record (empty when staged without a heavy part).
    pub(crate) heavy_idx: Vec<u32>,
}

impl BatchScratch {
    /// Builds scratch for `config`; `heavy` adds the heavy-tag chain.
    pub(crate) fn new(config: &SketchConfig, heavy: bool) -> Self {
        let mut tags: Vec<u64> = (0..config.rows as u64).collect();
        if heavy {
            tags.push(HEAVY_TAG);
        }
        let inits: Vec<u64> = tags.iter().map(|&t| chain_init(config.seed, t)).collect();
        Self {
            vbmi: vbmi_transpose_available(),
            packed_t: vec![0; (CHUNK / BLOCK) * BLOCK_BYTES],
            hashes: vec![0; inits.len() * CHUNK],
            inits,
            keys: vec![FlowKey::from_id(0); CHUNK],
            windows: vec![0; CHUNK],
            values: vec![0; CHUNK],
            light_idx: vec![0; config.rows * CHUNK],
            heavy_idx: if heavy { vec![0; CHUNK] } else { Vec::new() },
        }
    }

    /// Packs, hashes and derives bucket indices for `chunk`
    /// (`chunk.len() <= CHUNK`). After this, `windows`/`values`,
    /// `light_idx` and (if staged with a heavy part) `heavy_idx` describe
    /// the chunk record-for-record.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks `avx512f` + `avx512dq` (such CPUs take the
    /// per-record path and never stage).
    pub(crate) fn stage(&mut self, config: &SketchConfig, chunk: &[(FlowKey, u64, i64)]) {
        self.pack(chunk);
        self.hash(chunk.len());
        self.derive(config, chunk.len());
    }

    /// Copies windows/values SoA and transpose-packs the keys block-major
    /// (see [`packed_pos`]). The transposed byte stores dominated the
    /// original pack phase (~12 ns/record as 13 long-stride stores);
    /// contiguous 16-byte key writes + a 2×`vpermt2b` in-register transpose
    /// per 8 keys brought it under 2 ns.
    fn pack(&mut self, chunk: &[(FlowKey, u64, i64)]) {
        // A hard bound, not a debug one: `hash`'s raw-pointer stores rely on
        // every staged block lying inside the CHUNK-sized buffers.
        assert!(chunk.len() <= CHUNK);
        for (j, (flow, window, value)) in chunk.iter().enumerate() {
            self.keys[j] = *flow;
            self.windows[j] = *window;
            self.values[j] = *value;
        }
        #[cfg(target_arch = "x86_64")]
        if self.vbmi {
            // SAFETY: `vbmi` is `vbmi_transpose_available()`, i.e. avx512f,
            // avx512bw and avx512vbmi were all detected at runtime; the
            // assert above gives `chunk.len() <= CHUNK` and `packed_t` was
            // sized to `CHUNK / BLOCK` blocks in `new`.
            unsafe { x86::pack_transpose_vbmi(chunk, &mut self.packed_t) };
            return;
        }
        pack_transpose_scalar(chunk, &mut self.packed_t);
    }

    /// Hashes the `n` packed keys for every tag in `inits`, writing raw hash
    /// `t` of key `j` to `hashes[t * CHUNK + j]`. Keys `>= n` of the
    /// trailing SIMD block hash stale staging bytes; nothing reads them.
    fn hash(&mut self, n: usize) {
        assert!(
            avx512_available() && n <= CHUNK,
            "the staged batch pipeline needs avx512f + avx512dq"
        );
        // Tag groups of up to 5 chains share each byte-vector load and keep
        // 5 independent multiply chains in flight per block.
        #[cfg(target_arch = "x86_64")]
        {
            let blocks = n.div_ceil(BLOCK);
            for (g0, group) in self.inits.chunks(5).enumerate() {
                let out_g = &mut self.hashes[g0 * 5 * CHUNK..];
                // SAFETY: the assert above saw avx512f + avx512dq detected
                // at runtime. `n <= CHUNK` gives `blocks * BLOCK <= CHUNK`
                // (CHUNK is a multiple of BLOCK), `packed_t` holds
                // `CHUNK / BLOCK` blocks and `hashes` holds `inits.len() *
                // CHUNK` words (both sized in `new`), so `out_g` has at
                // least `group.len() * CHUNK`.
                unsafe {
                    match group.len() {
                        5 => x86::hash_avx512::<5>(&self.packed_t, group, blocks, out_g),
                        4 => x86::hash_avx512::<4>(&self.packed_t, group, blocks, out_g),
                        3 => x86::hash_avx512::<3>(&self.packed_t, group, blocks, out_g),
                        2 => x86::hash_avx512::<2>(&self.packed_t, group, blocks, out_g),
                        _ => x86::hash_avx512::<1>(&self.packed_t, group, blocks, out_g),
                    }
                }
            }
        }
    }

    /// Derives light / heavy indices from the raw hashes — bit-identical to
    /// `light_col_placed` / `heavy_slot_placed` over `place()`.
    fn derive(&mut self, config: &SketchConfig, n: usize) {
        let width = config.width;
        for r in 0..config.rows {
            let hashes = &self.hashes[r * CHUNK..][..n];
            let idx = &mut self.light_idx[r * CHUNK..];
            for (out, &h) in idx.iter_mut().zip(hashes) {
                *out = (r * width + fast_mod(h, width as u64) as usize) as u32;
            }
        }
        if !self.heavy_idx.is_empty() {
            let hashes = &self.hashes[config.rows * CHUNK..][..n];
            for (out, &h) in self.heavy_idx.iter_mut().zip(hashes) {
                *out = fast_mod(h, config.heavy_rows as u64) as u32;
            }
        }
    }
}

/// Prefetches the cache line holding `p` into all levels (no-op off x86_64).
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed, it cannot fault.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX-512 transpose and hash kernel. The kernel evaluates exactly
    //! `avalanche((...((init ^ b0) * P ^ b1) * P ... ^ b12) * P)` per key —
    //! xor, shift and wrapping multiply are exact integer ops, so every key's
    //! hash is bit-identical to the scalar chain by construction.

    use super::{BLOCK, BLOCK_BYTES, CHUNK, KEY_BYTES};
    use crate::flow::{AVALANCHE_MUL2, FNV_PRIME, TAG_MUL};
    use crate::FlowKey;
    use core::arch::x86_64::*;

    /// `vpermt2b` index vector for the 8×16 key transpose: output byte
    /// `i * 8 + l` of half `half` takes source byte `l * 16 + half * 8 + i`
    /// of the two concatenated 64-byte AoS key registers.
    const fn transpose_idx(half: usize) -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut i = 0;
        while i < 8 {
            let mut l = 0;
            while l < 8 {
                idx[i * 8 + l] = (l * 16 + half * 8 + i) as u8;
                l += 1;
            }
            i += 1;
        }
        idx
    }

    static IDX_LO: [u8; 64] = transpose_idx(0);
    static IDX_HI: [u8; 64] = transpose_idx(1);

    /// One key's 16 packed bytes in an xmm, built from registers (no stack
    /// round-trip). SSE4.1 ⊂ the callers' AVX-512 feature set, so this
    /// inlines into them.
    ///
    /// # Safety
    ///
    /// Requires `sse4.1` at runtime — implied by the `avx512f` check
    /// [`pack_transpose_vbmi`], its only caller, is gated on. Touches no
    /// memory beyond the `flow` reference.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    unsafe fn key_xmm(flow: &FlowKey) -> __m128i {
        let v = flow.pack_u128();
        _mm_insert_epi64::<1>(_mm_cvtsi64_si128(v as u64 as i64), (v >> 64) as i64)
    }

    /// Four keys' xmm registers stacked into one 64-byte register.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` at runtime (checked by `vbmi_transpose_available`
    /// before [`pack_transpose_vbmi`], its only caller, runs).
    /// Register-only: no memory access.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn stack4(k0: __m128i, k1: __m128i, k2: __m128i, k3: __m128i) -> __m512i {
        let r = _mm512_inserti32x4::<1>(_mm512_castsi128_si512(k0), k1);
        let r = _mm512_inserti32x4::<2>(r, k2);
        _mm512_inserti32x4::<3>(r, k3)
    }

    /// Packs up to `CHUNK` keys block-major: 8 keys are widened to 16-byte
    /// register slots, stacked into two 64-byte registers and transposed
    /// into byte-row order by two `vpermt2b`s — the whole block never
    /// touches memory until the final two stores. (An earlier variant
    /// staged the keys through a 128-byte stack buffer; the vector loads
    /// then stalled on store-to-load-forwarding misses against the scalar
    /// byte stores, costing more than the transpose itself.) Bytes written
    /// are identical to [`super::pack_transpose_scalar`] for keys `< n`;
    /// tail slots of a ragged last block are zero here and stale there —
    /// both unread garbage.
    ///
    /// # Safety
    ///
    /// Requires `avx512f`, `avx512bw` and `avx512vbmi` at runtime
    /// (`vbmi_transpose_available`). `packed_t` must hold `CHUNK / BLOCK`
    /// blocks and `chunk.len() <= CHUNK`: the stores walk one
    /// `BLOCK_BYTES` block per 8 records through a raw pointer.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn pack_transpose_vbmi(chunk: &[(FlowKey, u64, i64)], packed_t: &mut [u8]) {
        debug_assert_eq!(packed_t.len(), (CHUNK / BLOCK) * BLOCK_BYTES);
        let idx_lo = _mm512_loadu_si512(IDX_LO.as_ptr() as *const __m512i);
        let idx_hi = _mm512_loadu_si512(IDX_HI.as_ptr() as *const __m512i);
        let mut blocks = chunk.chunks_exact(BLOCK);
        let mut dst = packed_t.as_mut_ptr();
        for recs in blocks.by_ref() {
            let a = stack4(
                key_xmm(&recs[0].0),
                key_xmm(&recs[1].0),
                key_xmm(&recs[2].0),
                key_xmm(&recs[3].0),
            );
            let b = stack4(
                key_xmm(&recs[4].0),
                key_xmm(&recs[5].0),
                key_xmm(&recs[6].0),
                key_xmm(&recs[7].0),
            );
            _mm512_storeu_si512(dst as *mut __m512i, _mm512_permutex2var_epi8(a, idx_lo, b));
            _mm512_storeu_si512(
                dst.add(64) as *mut __m512i,
                _mm512_permutex2var_epi8(a, idx_hi, b),
            );
            dst = dst.add(BLOCK_BYTES);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut keys = [_mm_setzero_si128(); BLOCK];
            for (l, (flow, _, _)) in tail.iter().enumerate() {
                keys[l] = key_xmm(flow);
            }
            let a = stack4(keys[0], keys[1], keys[2], keys[3]);
            let b = stack4(keys[4], keys[5], keys[6], keys[7]);
            _mm512_storeu_si512(dst as *mut __m512i, _mm512_permutex2var_epi8(a, idx_lo, b));
            _mm512_storeu_si512(
                dst.add(64) as *mut __m512i,
                _mm512_permutex2var_epi8(a, idx_hi, b),
            );
        }
    }

    /// Finishing avalanche on one 8-key state vector. (Inlines into the
    /// `avx512f,avx512dq` callers, which enable a superset of features.)
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512dq` at runtime — the same
    /// `avx512_available` check [`hash_avx512`], its only caller, is gated
    /// on. Register-only: no memory access.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn avalanche512(x: __m512i, m1: __m512i, m2: __m512i) -> __m512i {
        let mut x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
        x = _mm512_mullo_epi64(x, m1);
        x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
        x = _mm512_mullo_epi64(x, m2);
        _mm512_xor_si512(x, _mm512_srli_epi64(x, 31))
    }

    /// 8 keys per 512-bit register, `G` tag chains per block, **two blocks
    /// in flight**: `vpmullq` is long-latency (~15 cycles) and each chain
    /// is 13 serial multiplies, so `G` chains alone leave the multiplier
    /// mostly idle — 2×`G` independent chains turn the block loop from
    /// latency-bound (~24 cycles/key at `G = 5`) to throughput-bound
    /// (~14 cycles/key).
    ///
    /// # Safety
    ///
    /// Requires `avx512f` and `avx512dq` at runtime (`avx512_available`).
    /// `inits.len() == G`, `packed_t` must hold `blocks` blocks of
    /// `BLOCK_BYTES`, `out` must hold `G * CHUNK` u64s and
    /// `blocks * BLOCK <= CHUNK`: loads and stores go through raw pointers.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn hash_avx512<const G: usize>(
        packed_t: &[u8],
        inits: &[u64],
        blocks: usize,
        out: &mut [u64],
    ) {
        debug_assert_eq!(inits.len(), G);
        debug_assert!(blocks * BLOCK <= CHUNK);
        debug_assert!(out.len() >= G * CHUNK);
        let prime = _mm512_set1_epi64(FNV_PRIME as i64);
        let m1 = _mm512_set1_epi64(TAG_MUL as i64);
        let m2 = _mm512_set1_epi64(AVALANCHE_MUL2 as i64);
        let mut blk = 0;
        while blk + 2 <= blocks {
            let p0 = packed_t.as_ptr().add(blk * BLOCK_BYTES);
            let p1 = p0.add(BLOCK_BYTES);
            let mut s0 = [_mm512_setzero_si512(); G];
            let mut s1 = [_mm512_setzero_si512(); G];
            for g in 0..G {
                s0[g] = _mm512_set1_epi64(inits[g] as i64);
                s1[g] = s0[g];
            }
            for i in 0..KEY_BYTES {
                // One 8-byte row load per block feeds all G chains.
                let b0 = _mm512_cvtepu8_epi64(_mm_loadl_epi64(p0.add(i * BLOCK) as *const __m128i));
                let b1 = _mm512_cvtepu8_epi64(_mm_loadl_epi64(p1.add(i * BLOCK) as *const __m128i));
                for g in 0..G {
                    s0[g] = _mm512_mullo_epi64(_mm512_xor_si512(s0[g], b0), prime);
                    s1[g] = _mm512_mullo_epi64(_mm512_xor_si512(s1[g], b1), prime);
                }
            }
            let j = blk * BLOCK;
            for g in 0..G {
                let o = out.as_mut_ptr().add(g * CHUNK + j);
                _mm512_storeu_si512(o as *mut __m512i, avalanche512(s0[g], m1, m2));
                _mm512_storeu_si512(o.add(BLOCK) as *mut __m512i, avalanche512(s1[g], m1, m2));
            }
            blk += 2;
        }
        if blk < blocks {
            let p0 = packed_t.as_ptr().add(blk * BLOCK_BYTES);
            let mut st = [_mm512_setzero_si512(); G];
            for g in 0..G {
                st[g] = _mm512_set1_epi64(inits[g] as i64);
            }
            for i in 0..KEY_BYTES {
                let b = _mm512_cvtepu8_epi64(_mm_loadl_epi64(p0.add(i * BLOCK) as *const __m128i));
                for s in st.iter_mut() {
                    *s = _mm512_mullo_epi64(_mm512_xor_si512(*s, b), prime);
                }
            }
            for (g, &s) in st.iter().enumerate() {
                let o = out.as_mut_ptr().add(g * CHUNK + blk * BLOCK);
                _mm512_storeu_si512(o as *mut __m512i, avalanche512(s, m1, m2));
            }
        }
    }
}

/// Test support for the `update_batch` selection tests in `basic.rs` and
/// `full.rs`: a tiny config and a deterministic stream that cross every
/// boundary the staged pipeline has to respect — epochs seal mid-burst
/// (`max_windows = 16` against ~100 windows), heavy candidates are evicted
/// mid-burst (40 flows over 8 slots) and the length (1003) is no multiple of
/// [`CHUNK`].
#[cfg(test)]
pub(crate) fn churn_stream() -> (SketchConfig, Vec<(FlowKey, u64, i64)>) {
    let config = SketchConfig::builder()
        .rows(3)
        .width(32)
        .levels(4)
        .topk(32)
        .max_windows(16)
        .heavy_rows(8)
        .build();
    // Multiplicative mixing is plenty here: the point is churn, not quality.
    let stream = (0..1003u64)
        .map(|i| {
            let r = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            (FlowKey::from_id(r % 40), i / 10, 1 + (r % 100_000) as i64)
        })
        .collect();
    (config, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{avalanche, FNV_PRIME};

    /// Portable reference for the hash phase, reading the same packed matrix
    /// as the AVX-512 kernel: per tag, one block's 8 chains in scalar
    /// registers. Lets `stage`'s pack and derive phases — and, on CPUs that
    /// have it, the kernel itself — be checked on any machine.
    fn hash_scalar_interleaved(packed_t: &[u8], inits: &[u64], n: usize, out: &mut [u64]) {
        let blocks = n.div_ceil(BLOCK);
        for (t, &init) in inits.iter().enumerate() {
            for blk in 0..blocks {
                let j = blk * BLOCK;
                let mut s = [init; BLOCK];
                for i in 0..KEY_BYTES {
                    let row = &packed_t[blk * BLOCK_BYTES + i * BLOCK..][..BLOCK];
                    for l in 0..BLOCK {
                        s[l] = (s[l] ^ row[l] as u64).wrapping_mul(FNV_PRIME);
                    }
                }
                for l in 0..BLOCK {
                    out[t * CHUNK + j + l] = avalanche(s[l]);
                }
            }
        }
    }

    /// The hash phases checkable on this CPU: the portable reference
    /// (`false`) always, the production AVX-512 pipeline (`true`) where it
    /// can run.
    fn pipelines_here() -> Vec<bool> {
        if avx512_available() {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    /// Every config of `configs` paired with every pipeline in
    /// [`pipelines_here`].
    fn with_pipelines(configs: &[SketchConfig]) -> Vec<(&SketchConfig, bool)> {
        (configs.iter())
            .flat_map(|c| pipelines_here().into_iter().map(move |a| (c, a)))
            .collect()
    }

    /// Pack + hash, either as production does it (`avx512`) or through the
    /// scalar transpose and the reference hash.
    fn pack_and_hash(scratch: &mut BatchScratch, avx512: bool, chunk: &[(FlowKey, u64, i64)]) {
        if avx512 {
            scratch.pack(chunk);
            scratch.hash(chunk.len());
        } else {
            scratch.vbmi = false;
            scratch.pack(chunk);
            hash_scalar_interleaved(
                &scratch.packed_t,
                &scratch.inits,
                chunk.len(),
                &mut scratch.hashes,
            );
        }
    }

    /// [`BatchScratch::stage`] with the hash phase of [`pack_and_hash`].
    fn stage_with(
        scratch: &mut BatchScratch,
        avx512: bool,
        config: &SketchConfig,
        chunk: &[(FlowKey, u64, i64)],
    ) {
        pack_and_hash(scratch, avx512, chunk);
        scratch.derive(config, chunk.len());
    }

    fn small_config(rows: usize) -> SketchConfig {
        SketchConfig::builder()
            .rows(rows)
            .width(64)
            .levels(4)
            .topk(16)
            .max_windows(256)
            .heavy_rows(16)
            .build()
    }

    /// A width-12, heavy-7 config: `derive`'s `fast_mod` takes its
    /// hardware-divide branch for both light columns and heavy slots.
    fn non_pow2_config() -> SketchConfig {
        SketchConfig {
            width: 12,
            heavy_rows: 7,
            ..small_config(3)
        }
    }

    /// The kernel (and the reference it is checked against elsewhere) must
    /// reproduce `FlowKey::hash_packed` bit-for-bit for every tag, including
    /// ragged chunk tails.
    #[test]
    fn kernels_match_scalar_hash_bit_for_bit() {
        let config = SketchConfig::builder().rows(3).seed(0x5EED_CAFE).build();
        let tags = [0u64, 1, 2, HEAVY_TAG];
        for &n in &[1usize, 7, 8, 9, 63, 255, 256] {
            let chunk: Vec<(FlowKey, u64, i64)> = (0..n as u64)
                .map(|i| (FlowKey::from_id(i * 7919 + 3), 0, 1))
                .collect();
            for avx512 in pipelines_here() {
                let mut scratch = BatchScratch::new(&config, true);
                pack_and_hash(&mut scratch, avx512, &chunk);
                for (t, &tag) in tags.iter().enumerate() {
                    for (j, (k, _, _)) in chunk.iter().enumerate() {
                        assert_eq!(
                            scratch.hashes[t * CHUNK + j],
                            FlowKey::hash_packed(&k.pack(), tag, config.seed),
                            "avx512 {avx512}, tag {tag:#x}, key {j}, n {n}"
                        );
                    }
                }
            }
        }
    }

    /// Staged indices must equal the scalar placement-derived ones, for
    /// power-of-two and other array sizes.
    #[test]
    fn staged_indices_match_scalar_placement() {
        let chunk: Vec<(FlowKey, u64, i64)> = (0..100u64)
            .map(|i| (FlowKey::from_id(i * 31), i / 4, 100 + i as i64))
            .collect();
        for (config, avx512) in with_pipelines(&[small_config(3), non_pow2_config()]) {
            let mut scratch = BatchScratch::new(config, true);
            stage_with(&mut scratch, avx512, config, &chunk);
            for (j, (flow, window, value)) in chunk.iter().enumerate() {
                let p = config.place(flow);
                for r in 0..config.rows {
                    let want = r * config.width + config.light_col_placed(&p, r);
                    assert_eq!(
                        scratch.light_idx[r * CHUNK + j] as usize,
                        want,
                        "avx512 {avx512}, row {r}, record {j}"
                    );
                }
                assert_eq!(
                    scratch.heavy_idx[j] as usize,
                    config.heavy_slot_placed(&p),
                    "avx512 {avx512}, record {j}"
                );
                assert_eq!(scratch.windows[j], *window);
                assert_eq!(scratch.values[j], *value);
            }
        }
    }

    /// Deeper sketches must still derive identical indices: tag groups
    /// split at 5 chains, so 4 rows + heavy is exactly one group and 6 rows
    /// (beyond the Placement prehash limit) + heavy is a group of 5 and one
    /// of 2.
    #[test]
    fn deep_row_configs_split_tag_groups_correctly() {
        let chunk: Vec<(FlowKey, u64, i64)> =
            (0..50u64).map(|i| (FlowKey::from_id(i), 0, 1)).collect();
        for (config, avx512) in with_pipelines(&[small_config(4), small_config(6)]) {
            let mut scratch = BatchScratch::new(config, true);
            stage_with(&mut scratch, avx512, config, &chunk);
            for (j, (flow, _, _)) in chunk.iter().enumerate() {
                for r in 0..config.rows {
                    let want = r * config.width + config.light_col(flow, r);
                    assert_eq!(scratch.light_idx[r * CHUNK + j] as usize, want);
                }
                assert_eq!(scratch.heavy_idx[j] as usize, config.heavy_slot(flow));
            }
        }
    }

    /// Diagnostic (not a gate): per-phase wall time of the batch pipeline,
    /// for attributing a throughput regression to pack, hash, derive or the
    /// fold without rebuilding the bench harness. Ignored by default; run
    /// with: cargo test --release -p wavesketch --lib -- --ignored
    /// phase_timing --nocapture
    #[test]
    #[ignore = "manual perf diagnostic, prints timings"]
    fn phase_timing() {
        use std::time::Instant;
        if !avx512_available() {
            println!(
                "no avx512f+avx512dq: update_batch is the per-record loop, nothing to attribute"
            );
            return;
        }
        let n: u64 = 4_000_000;
        let flows = 512u64;
        // splitmix-driven stream mimicking the bench workload shape.
        let mut s = 0xBE9Cu64;
        let mut rnd = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut x = s;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        };
        let mut window = 0u64;
        let stream: Vec<(FlowKey, u64, i64)> = (0..n)
            .map(|_| {
                if rnd() % 5 == 0 {
                    window = (window + 1).min(4000);
                }
                (
                    FlowKey::from_id(rnd() % flows),
                    window,
                    64 + (rnd() % 1436) as i64,
                )
            })
            .collect();
        let config = SketchConfig::builder().build();
        let nf = n as f64;
        let report = |name: &str, f: &mut dyn FnMut() -> u64| {
            let mut best = u64::MAX;
            let mut acc = 0;
            for _ in 0..3 {
                let t = Instant::now();
                acc = f();
                best = best.min(t.elapsed().as_nanos() as u64);
            }
            println!("{name:26}{:6.1} ns/u  [{acc:x}]", best as f64 / nf);
        };

        let mut scratch = BatchScratch::new(&config, true);
        report("stage (pack+hash+derive):", &mut || {
            let mut acc = 0u64;
            for chunk in stream.chunks(CHUNK) {
                scratch.stage(&config, chunk);
                acc ^= scratch.light_idx[0] as u64 ^ scratch.heavy_idx[0] as u64;
            }
            acc
        });

        let mut scratch = BatchScratch::new(&config, true);
        report("pack only:", &mut || {
            let mut acc = 0u64;
            for chunk in stream.chunks(CHUNK) {
                scratch.pack(chunk);
                acc ^= scratch.packed_t[0] as u64;
            }
            acc
        });

        let chunks = stream.len() / CHUNK;
        let mut scratch2 = BatchScratch::new(&config, true);
        scratch2.stage(&config, &stream[..CHUNK]);
        report("hash only:", &mut || {
            let mut acc = 0u64;
            for _ in 0..chunks {
                scratch2.hash(CHUNK);
                acc ^= scratch2.hashes[0];
            }
            acc
        });

        report("full update_batch[256]:", &mut || {
            let mut sketch = crate::FullWaveSketch::new(config.clone());
            for chunk in stream.chunks(CHUNK) {
                sketch.update_batch(chunk);
            }
            sketch.heavy_flows().len() as u64
        });

        report("basic update_batch[256]:", &mut || {
            let mut sketch = crate::BasicWaveSketch::new(config.clone());
            for chunk in stream.chunks(CHUNK) {
                sketch.update_batch(chunk);
            }
            sketch.active_buckets() as u64
        });

        report("full per-record:", &mut || {
            let mut sketch = crate::FullWaveSketch::new(config.clone());
            for (flow, w, v) in &stream {
                sketch.update(flow, *w, *v);
            }
            sketch.heavy_flows().len() as u64
        });

        report("basic per-record:", &mut || {
            let mut sketch = crate::BasicWaveSketch::new(config.clone());
            for (flow, w, v) in &stream {
                sketch.update(flow, *w, *v);
            }
            sketch.active_buckets() as u64
        });
    }
}
