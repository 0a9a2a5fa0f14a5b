//! Deterministic model of the on-chip true random number generator.
//!
//! Real GuardNN hardware contains a TRNG used for key generation and
//! ephemeral DH exponents (Table I of the paper). For a reproducible
//! software model we substitute an AES-CTR pseudorandom generator seeded
//! explicitly; every simulation and test can therefore be replayed bit-for-
//! bit. See ARCHITECTURE.md, "`crates/crypto` → §II", for the
//! substitution note.
//!
//! # Example
//!
//! ```
//! use guardnn_crypto::rng::TrngModel;
//!
//! let mut rng = TrngModel::from_seed(7);
//! let a = rng.next_bytes(16);
//! let b = rng.next_bytes(16);
//! assert_ne!(a, b);
//! ```

use crate::aes::Aes128;

/// A deterministic counter-mode PRG standing in for the hardware TRNG.
#[derive(Clone)]
pub struct TrngModel {
    cipher: Aes128,
    counter: u128,
}

impl std::fmt::Debug for TrngModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrngModel")
            .field("counter", &self.counter)
            .finish()
    }
}

impl TrngModel {
    /// Creates a generator from a full 16-byte seed.
    pub fn from_seed_bytes(seed: [u8; 16]) -> Self {
        Self {
            cipher: Aes128::new(&seed),
            counter: 0,
        }
    }

    /// Creates a generator from a small integer seed (convenience for tests
    /// and benchmarks).
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(b"guardnnT");
        Self::from_seed_bytes(bytes)
    }

    /// Produces the next 16-byte random block.
    pub fn next_block(&mut self) -> [u8; 16] {
        let block = self.counter.to_be_bytes();
        self.counter = self.counter.wrapping_add(1);
        self.cipher.encrypt_block(&block)
    }

    /// Produces `n` random bytes.
    pub fn next_bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.extend_from_slice(&self.next_block());
        }
        out.truncate(n);
        out
    }

    /// Produces a uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let block = self.next_block();
        // lint:allow(panic-discipline) — next_block() returns 16 bytes, the 8-byte slice is exact
        u64::from_le_bytes(block[..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = TrngModel::from_seed(99);
        let mut b = TrngModel::from_seed(99);
        assert_eq!(a.next_bytes(100), b.next_bytes(100));
    }

    #[test]
    fn seeds_differ() {
        let mut a = TrngModel::from_seed(1);
        let mut b = TrngModel::from_seed(2);
        assert_ne!(a.next_bytes(32), b.next_bytes(32));
    }

    #[test]
    fn stream_advances() {
        let mut rng = TrngModel::from_seed(0);
        let x = rng.next_u64();
        let y = rng.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn exact_lengths() {
        let mut rng = TrngModel::from_seed(3);
        for n in [0, 1, 15, 16, 17, 33] {
            assert_eq!(rng.next_bytes(n).len(), n);
        }
    }
}
