//! FNV-1a 64: the one non-cryptographic hash behind the workspace's
//! stable fingerprints (journal frames, checkpoint manifests, the serve
//! library cache, the NPN index, and the match-index cache key). Its
//! values are stored on disk, so they must never change.

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64 hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(BASIS)
    }
}

impl Fnv1a {
    /// Folds `bytes` in, one FNV-1a round per byte.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// Folds a whole 64-bit word in as a single round (xor, then
    /// multiply). Cheaper than [`Fnv1a::bytes`] over the word's eight
    /// bytes, and a different value.
    pub fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(PRIME);
    }

    /// The hash of everything folded in so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_bytes_equal_one_shot() {
        let mut h = Fnv1a::default();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
