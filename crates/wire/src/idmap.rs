//! A fixed hasher for maps keyed by identifiers.
//!
//! Transaction ids are hex SHA-256 digests and public keys are SHA-256
//! output; `std`'s SipHash-1-3 spends more on such a key than the lookup
//! it serves. [`IdHasher`] is a multiply–rotate over 8-byte words with a
//! folding finish. It is unkeyed: use it for maps whose keys are digests
//! or names the operator chose, never for keys an outside party picks.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd constant with no short bit pattern (2⁶⁴ / golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply–rotate hasher for identifier keys; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// A multiply moves entropy upward only, and the table reads both ends
    /// of the result (bucket from the low bits, tag from the high), so the
    /// high half is folded down, multiplied through once more and folded
    /// again.
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        let h = (h ^ (h >> 32)).wrapping_mul(MULTIPLIER);
        h ^ (h >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    /// The hasher is part of no format, but a silent change to it would
    /// move every map's layout and with it any latent order dependence.
    #[test]
    fn fixed_output_vectors() {
        assert_eq!(hash_of(""), 0x8abe_92bf_b836_6b19);
        assert_eq!(hash_of("tx-1"), 0x447b_ee71_4940_50d3);
        assert_eq!(hash_of(&[0u8; 32]), 0x5afb_90a1_774f_c65d);
        assert_eq!(hash_of(&[0xabu8; 32]), 0x2c18_02f1_8dce_d35e);
    }

    /// Largest bucket when `keys` fill 2¹⁴ buckets by the low and by the
    /// high 14 bits of their hash.
    fn worst_bucket(keys: impl Iterator<Item = String>) -> (u32, u32) {
        let (mut low, mut high) = (vec![0u32; 1 << 14], vec![0u32; 1 << 14]);
        for key in keys {
            let h = hash_of(key.as_str());
            low[(h & 0x3fff) as usize] += 1;
            high[(h >> 50) as usize] += 1;
        }
        (
            low.into_iter().max().unwrap_or(0),
            high.into_iter().max().unwrap_or(0),
        )
    }

    #[test]
    fn hex_ids_and_sequential_names_spread_over_both_ends() {
        // Hex ids as `Proposal::derive_tx_id` renders them; any fixed
        // 64-hex-character generator does for a spread test.
        let hex = (0..10_000u64).map(|n| {
            let mut state = n.wrapping_mul(0xd6e8_feb8_6659_fd93) | 1;
            (0..4)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    format!("{state:016x}")
                })
                .collect::<String>()
        });
        let names = (0..10_000u64).map(|n| format!("tx-{n}"));
        for (what, (low, high)) in [("hex", worst_bucket(hex)), ("names", worst_bucket(names))] {
            assert!(low <= 10, "{what}: {low} keys share one low-bit bucket");
            assert!(high <= 10, "{what}: {high} keys share one high-bit bucket");
        }
    }
}
