//! Flow identifiers and the hash family used by the sketch.

/// A 5-tuple flow key (IPv4), the flow identifier WaveSketch hashes on.
///
/// The simulator's flow ids map into this type; any unique 104-bit identity
/// works since the sketch only hashes the packed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP/RoCEv2).
    pub proto: u8,
}

impl FlowKey {
    /// Builds a key from explicit 5-tuple parts.
    pub fn from_v4(
        src_ip: [u8; 4],
        dst_ip: [u8; 4],
        src_port: u16,
        dst_port: u16,
        proto: u8,
    ) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// Builds a synthetic key from a dense flow id, convenient for simulators
    /// and tests. Distinct ids yield distinct keys.
    pub fn from_id(id: u64) -> Self {
        let b = id.to_le_bytes();
        Self {
            src_ip: [10, b[0], b[1], b[2]],
            dst_ip: [10, b[3], b[4], b[5]],
            src_port: u16::from_le_bytes([b[6], b[7]]),
            dst_port: 4791, // RoCEv2 UDP port
            proto: 17,
        }
    }

    /// Packs the key into 13 bytes for hashing.
    pub fn pack(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.src_ip);
        out[4..8].copy_from_slice(&self.dst_ip);
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.proto;
        out
    }

    /// [`Self::pack`] widened to a little-endian `u128` (bytes 13..16 zero):
    /// byte `k` of the result equals `pack()[k]`. Built entirely in
    /// registers — the batch pack phase feeds SIMD vectors from this and a
    /// 13-byte stack array would stall every vector load on
    /// store-to-load-forwarding misses.
    #[inline]
    pub(crate) fn pack_u128(&self) -> u128 {
        u32::from_le_bytes(self.src_ip) as u128
            | (u32::from_le_bytes(self.dst_ip) as u128) << 32
            | (self.src_port.swap_bytes() as u128) << 64
            | (self.dst_port.swap_bytes() as u128) << 80
            | (self.proto as u128) << 96
    }

    /// Hash of the key for row `row` under `seed`.
    ///
    /// This is a seeded FNV-1a/xor-fold construction: cheap, deterministic and
    /// pairwise independent enough for the Count-Min analysis (each row gets a
    /// distinct seeded stream).
    #[inline]
    pub fn hash(&self, row: u64, seed: u64) -> u64 {
        Self::hash_packed(&self.pack(), row, seed)
    }

    /// [`Self::hash`] over pre-packed key bytes.
    ///
    /// The sketch update needs `d + 1` hashes of the *same* key (light rows,
    /// heavy slot); packing once and hashing the bytes directly keeps
    /// the values bit-identical while the packing cost is paid once per
    /// packet instead of once per hash.
    #[inline]
    pub fn hash_packed(packed: &[u8; 13], row: u64, seed: u64) -> u64 {
        let [h] = Self::hash_packed_many(packed, [row], seed);
        h
    }

    /// Computes [`Self::hash_packed`] for `N` row tags at once, returning one
    /// hash per tag in order.
    ///
    /// Each value is bit-identical to the corresponding single-tag call; the
    /// point of the batch is instruction-level parallelism. One FNV-1a chain
    /// is a serial dependency of 13 multiplies (~40 cycles of latency on its
    /// own), so hashing the `d + 1` tags of a sketch update one after another
    /// is latency-bound. Interleaving the chains byte-by-byte keeps `N`
    /// independent multiplies in flight and makes the batch cost close to a
    /// single chain.
    #[inline]
    pub fn hash_packed_many<const N: usize>(
        packed: &[u8; 13],
        rows: [u64; N],
        seed: u64,
    ) -> [u64; N] {
        let mut h = [0u64; N];
        for (state, row) in h.iter_mut().zip(rows) {
            *state = chain_init(seed, row);
        }
        for &byte in packed {
            let b = byte as u64;
            for state in &mut h {
                *state = (*state ^ b).wrapping_mul(FNV_PRIME);
            }
        }
        // Final avalanche (splitmix64 finalizer) so low bits are well mixed
        // before the caller reduces modulo a small width.
        for state in &mut h {
            *state = avalanche(*state);
        }
        h
    }
}

/// FNV-1a offset basis (the `base` of every chain before seed/tag mixing).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Multiplier folding the seed into the chain's initial state.
pub(crate) const SEED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Multiplier folding the row tag into the initial state; also the first
/// multiplier of the splitmix64 avalanche.
pub(crate) const TAG_MUL: u64 = 0xbf58_476d_1ce4_e5b9;
/// Second multiplier of the splitmix64 avalanche.
pub(crate) const AVALANCHE_MUL2: u64 = 0x94d0_49bb_1331_11eb;

/// Initial FNV state for `(seed, tag)` — the per-chain seed/tag mixing of
/// [`FlowKey::hash_packed_many`], shared with the batch kernels
/// ([`crate::batch`]) so both paths stay bit-identical by construction.
#[inline]
pub(crate) fn chain_init(seed: u64, tag: u64) -> u64 {
    (FNV_OFFSET ^ seed.wrapping_mul(SEED_MUL)) ^ tag.wrapping_add(1).wrapping_mul(TAG_MUL)
}

/// The splitmix64 finalizer applied to every finished FNV chain.
#[inline]
pub(crate) fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(TAG_MUL);
    x ^= x >> 27;
    x = x.wrapping_mul(AVALANCHE_MUL2);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn from_id_is_injective_on_a_large_range() {
        let keys: HashSet<FlowKey> = (0..10_000).map(FlowKey::from_id).collect();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn hash_depends_on_row_and_seed() {
        let k = FlowKey::from_id(42);
        assert_ne!(k.hash(0, 1), k.hash(1, 1), "rows must hash independently");
        assert_ne!(k.hash(0, 1), k.hash(0, 2), "seeds must hash independently");
        assert_eq!(k.hash(0, 1), k.hash(0, 1), "hash must be deterministic");
    }

    #[test]
    fn hash_spreads_over_small_width() {
        // 1000 flows into 256 buckets: every bucket index should be hit at
        // least once if the low bits are well mixed.
        let mut hit = [false; 256];
        for id in 0..1000 {
            let k = FlowKey::from_id(id);
            hit[(k.hash(0, 7) % 256) as usize] = true;
        }
        let covered = hit.iter().filter(|h| **h).count();
        assert!(covered > 240, "only {covered}/256 buckets covered");
    }

    #[test]
    fn batched_hashes_match_single_hashes() {
        // The interleaved chains must not contaminate each other: every entry
        // of the batch equals the stand-alone hash for its tag.
        for id in 0..100u64 {
            let p = FlowKey::from_id(id).pack();
            let tags = [0u64, 1, 2, 0xFF];
            let batch = FlowKey::hash_packed_many(&p, tags, 0x5EED);
            for (i, &t) in tags.iter().enumerate() {
                assert_eq!(batch[i], FlowKey::hash_packed(&p, t, 0x5EED), "tag {t}");
            }
        }
    }

    #[test]
    fn pack_u128_matches_pack_bytes() {
        // The SIMD pack path widens through pack_u128; byte k of the LE u128
        // must equal pack()[k] for the kernels to stay bit-identical.
        for id in 0..100u64 {
            let k = FlowKey::from_id(id);
            let bytes = k.pack_u128().to_le_bytes();
            assert_eq!(&bytes[..13], &k.pack(), "id {id}");
            assert_eq!(&bytes[13..], &[0, 0, 0], "high bytes must be zero");
        }
        let k = FlowKey::from_v4([1, 2, 3, 4], [5, 6, 7, 8], 0x1234, 0x5678, 6);
        assert_eq!(&k.pack_u128().to_le_bytes()[..13], &k.pack());
    }

    #[test]
    fn pack_roundtrips_fields() {
        let k = FlowKey::from_v4([1, 2, 3, 4], [5, 6, 7, 8], 0x1234, 0x5678, 6);
        let p = k.pack();
        assert_eq!(&p[0..4], &[1, 2, 3, 4]);
        assert_eq!(&p[8..10], &[0x12, 0x34]);
        assert_eq!(p[12], 6);
    }
}
