//! The workspace's one checksum and one integer mixer.
//!
//! [`fnv1a_64`] (streaming form: [`Fnv1a`]) is every durable format's
//! checksum — disk pages, WAL records, `disk` footers, checkpoints — and
//! the structural digest of mini-batches and epoch orderings. [`mix64`]
//! turns `(seed, key)` into a well-spread 64-bit value: per-node sampling
//! seeds and open-loop arrival draws; [`splitmix64`] is the same finaliser
//! stepped from a single state word, for the fault plans' seeded choices.
//! The checksum and the mixer are wire- and disk-visible: changing either
//! invalidates stored checksums and moves every seeded sample. Everything is `#[inline]`: the
//! callers sit in other crates and call per word or per node, and the
//! workspace builds without LTO.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.word(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv1a_64(&[1, 2, 3, 4, 5, 6, 7, 8]));
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
