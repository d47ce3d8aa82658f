//! The workspace's checksums — one per verification frequency — and its
//! one integer mixer.
//!
//! [`fnv1a_64`] (streaming form: [`Fnv1a`]) is the checksum of every
//! durable format that is verified once, at open or recovery — WAL
//! records, checkpoints — and the structural digest of mini-batches and
//! epoch orderings. It costs one dependent xor-multiply per *byte*, which
//! nobody notices on a path that runs once per process.
//!
//! [`page_sum64`] is the checksum of a disk-tier page image
//! (`bgl-store`'s pager), the only checksum verified per batch on the read
//! path: every buffer-pool miss re-verifies the 4 KiB image it read, ~900
//! times per `train-remote` batch. It absorbs the image a `u64` word at a
//! time into four independent lanes, so the multiplies pipeline instead of
//! chaining: 0.21 µs against FNV-1a's 5.1 µs over a 4 088-byte image on
//! the benchmark host. It detects with certainty what FNV-1a detects with
//! certainty (any corruption confined to one word, hence any single-bit
//! flip); see its doc comment.
//!
//! [`mix64`] turns `(seed, key)` into a well-spread 64-bit value: per-node
//! sampling seeds, open-loop arrival draws, [`page_sum64`]'s lane fold and
//! the hash of every [`IdMap`] (the feature cache's key → slot maps);
//! [`splitmix64`] is the same finaliser stepped from a single state word,
//! for the fault plans' seeded choices.
//!
//! All four are wire- or disk-visible: changing a checksum invalidates what
//! is stored under it (the paged file's header version names its sum), and
//! changing the mixer moves every seeded sample as well. Everything is
//! `#[inline]`: the callers sit in other crates and call per word, per
//! page or per node, and the workspace builds without LTO.

/// Running FNV-1a 64 state.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb `x` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

/// Independent lanes of [`page_sum64`]: enough that a lane's next multiply
/// never waits on its last (latency 3–4 cycles, one issued per cycle).
const SUM_LANES: usize = 4;
/// Lane seeds (the fractional bits of √2, √3, √5, √7): distinct and
/// non-zero, so an all-zero image does not leave every lane at zero.
const SUM_SEEDS: [u64; SUM_LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
];
/// Odd, so multiplying by it is a bijection of `u64`.
const SUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One absorb step. For a fixed `word` it is a bijection of the lane state
/// and for a fixed state a bijection of the word (xor, multiply by an odd
/// constant, rotate). The rotate moves the top bits, which a multiply only
/// ever carries upward and out, back to the bottom.
#[inline]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(SUM_MUL).rotate_left(29)
}

/// Checksum of a page image: `bytes` as little-endian `u64` words dealt
/// round-robin into [`SUM_LANES`] multiply-xor lanes, the last word
/// zero-padded, then the length and every lane folded through [`mix64`].
/// Any length, including zero.
///
/// What it guarantees: every absorb step is a bijection of its lane for a
/// fixed word and of the word for a fixed lane, and the fold is a bijection
/// in each lane with the others fixed, so corruption confined to one word —
/// any single-bit flip in particular — always changes the sum. No all-zero
/// image sums to zero (`hash::tests` walks every length to 8 KiB and every
/// power-of-two page size the pager accepts), which is what lets a
/// zero-filled double-write slot fail verification.
#[inline]
pub fn page_sum64(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| {
        let mut le = [0u8; 8];
        le[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(le)
    };
    let mut lanes = SUM_SEEDS;
    let mut blocks = bytes.chunks_exact(8 * SUM_LANES);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, word(w));
        }
    }
    // Fewer than SUM_LANES words are left, the last possibly short.
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = absorb(*lane, word(w));
    }
    lanes.iter().fold(mix64(SUM_MUL, bytes.len() as u64), |sum, &lane| mix64(sum, lane))
}

/// splitmix64 finaliser over `a ^ b·φ`: mixes a seed with a key (node id,
/// hop, request index) into a well-spread value. `mix64(a, b)` and
/// `mix64(b, a)` differ.
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the published splitmix64 generator from state `x` (add φ,
/// then the same finaliser): the fault plans' seeded draws. A recorded
/// fault seed names its tear, kill and short-read points through this
/// function, so it must stay the reference generator.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15), 0)
}

/// Hasher of [`IdMap`]: one [`mix64`] per `u32` key where the default
/// SipHash runs a dozen rounds — on the feature cache's per-key path that
/// was most of a lookup. `mix64(0, ·)` is a bijection of `u64`, so distinct
/// ids never share a hash; unlike SipHash it is unkeyed, which is acceptable
/// for node ids: they are dense and bounded by the graph's node count, so a
/// chosen key set can crowd a probe group no further than ids ÷ buckets.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Only `NodeId` keys are hashed; this is the trait's required fallback.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0, b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = mix64(self.0, x as u64);
    }
}

/// A `NodeId`-keyed map that is only ever probed, never iterated: what an
/// iteration would yield depends on the hasher, a probe does not.
pub type IdMap<V> =
    std::collections::HashMap<crate::NodeId, V, std::hash::BuildHasherDefault<IdHasher>>;

/// An empty [`IdMap`] with room for `capacity` keys.
pub fn id_map<V>(capacity: usize) -> IdMap<V> {
    IdMap::with_capacity_and_hasher(capacity, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_map_behaves_like_a_map() {
        let mut m: IdMap<u32> = id_map(16);
        for v in (0..5000u32).map(|i| i.wrapping_mul(2_654_435_761)) {
            assert_eq!(m.insert(v, !v), None);
        }
        assert_eq!(m.len(), 5000);
        for v in (0..5000u32).map(|i| i.wrapping_mul(2_654_435_761)) {
            assert_eq!(m.get(&v), Some(&!v));
        }
        assert_eq!(m.remove(&0), Some(!0));
        assert!(!m.contains_key(&0) && !m.contains_key(&1));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.word(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv1a_64(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    /// Byte `i` of the pattern images the page-sum tests share.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// The paged-file format pin: these change only with the header version.
    #[test]
    fn page_sum64_matches_its_golden_vectors() {
        assert_eq!(page_sum64(b""), 0x6f43_80e8_93b0_3e17);
        assert_eq!(page_sum64(&0x0807_0605_0403_0201u64.to_le_bytes()), 0xfb3a_fb3e_193a_ce8b);
        assert_eq!(page_sum64(&pattern(56)), 0x8958_4e32_384b_8bd4);
        assert_eq!(page_sum64(&pattern(4088)), 0xe6fb_c0b8_db4e_3803);
        // A short last word is zero-padded, and the length tells it from the
        // padded image.
        assert_ne!(page_sum64(&[1, 2, 3]), page_sum64(&[1, 2, 3, 0]));
    }

    /// Every single-bit flip, not a sample: a 4 088-byte image (page size
    /// 4 096: 127 full blocks and a three-word tail) and a 56-byte one (page
    /// size 64, the smallest the suites use: one block and a tail).
    #[test]
    fn page_sum64_changes_under_every_single_bit_flip() {
        for len in [4088usize, 56] {
            let mut image = pattern(len);
            let sum = page_sum64(&image);
            for bit in 0..len * 8 {
                image[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_sum64(&image), sum, "len {len}, bit {bit}");
                image[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// `Pager::create` leaves the double-write slot all zero, stored sum
    /// included, and relies on it failing verification: every image length
    /// to 8 KiB, then every power-of-two page size up to the pager's 1 MiB
    /// limit (the image is the page less its 8-byte sum).
    #[test]
    fn page_sum64_of_zeros_is_never_zero() {
        let zeros = vec![0u8; 1 << 20];
        let page_images = (14..=20).map(|k| (1usize << k) - 8);
        for len in (0..=8192).chain(page_images) {
            assert_ne!(page_sum64(&zeros[..len]), 0, "len {len}");
        }
    }

    #[test]
    fn mix64_spreads_and_separates() {
        // Deterministic, and neither argument is ignored.
        assert_eq!(mix64(1, 2), mix64(1, 2));
        assert_ne!(mix64(1, 2), mix64(2, 1));
        assert_ne!(mix64(0, 0), mix64(0, 1));
        assert_ne!(mix64(0, 1), mix64(1, 1));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference generator seeded with 0.
        let phi = 0x9E37_79B9_7F4A_7C15u64;
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(phi), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(phi.wrapping_mul(2)), 0x06C4_5D18_8009_454F);
    }
}
