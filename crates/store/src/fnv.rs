//! FNV-1a 64-bit hashing for fingerprints persisted beside container
//! sections.
//!
//! Fit artifacts and batch checkpoints both store a fingerprint of the
//! state they hold in the container header, and both recompute it on
//! load. A persisted fingerprint must hash the same bytes to the same
//! digest in every build, on every platform, under every Rust version —
//! which `DefaultHasher` (whose algorithm is unspecified) does not
//! promise. FNV-1a does, and is a dozen lines.

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a string plus a separator so adjacent fields cannot collide
    /// by concatenation (`"ab","c"` vs `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Feeds an integer in a fixed-width encoding.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_separator_safe() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        // Pinned digest: the fingerprint must be stable across builds, or
        // every upgrade would invalidate on-disk artifacts and checkpoints.
        let mut h = Fnv1a::new();
        h.write(b"darklight");
        assert_eq!(h.finish(), 0xf350_767a_c37e_d7cf);
    }
}
