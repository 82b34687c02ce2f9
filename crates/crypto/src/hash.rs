//! SHA-256 per FIPS 180-4, implemented from scratch for the simulator.

use fabric_wire::{Decode, Encode, Reader, WireError};
use std::fmt;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

#[cfg(debug_assertions)]
thread_local! {
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// SHA-256 compressions run on the calling thread so far. Exists in debug
/// builds only: it is how tests hold the commit path to a hash budget.
#[cfg(debug_assertions)]
pub fn compressions_on_this_thread() -> u64 {
    COMPRESSIONS.with(std::cell::Cell::get)
}

/// A 32-byte SHA-256 digest.
///
/// # Examples
///
/// ```
/// use fabric_crypto::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hexadecimal rendering of the digest.
    pub fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 64];
        for (pair, byte) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = DIGITS[usize::from(byte >> 4)];
            pair[1] = DIGITS[usize::from(byte & 0x0f)];
        }
        std::str::from_utf8(&out)
            .expect("hex digits are ASCII")
            .to_owned()
    }

    /// Parses a 64-character lowercase/uppercase hex string.
    ///
    /// Returns `None` on malformed input.
    pub fn from_hex(s: &str) -> Option<Self> {
        fn nibble(c: u8) -> Option<u8> {
            match c {
                b'0'..=b'9' => Some(c - b'0'),
                b'a'..=b'f' => Some(c - b'a' + 10),
                b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        }
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
            *byte = (nibble(pair[0])? << 4) | nibble(pair[1])?;
        }
        Some(Hash256(out))
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Encode for Hash256 {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Hash256(<[u8; 32]>::decode(r)?))
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use fabric_crypto::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    /// Skip the hardware path even when available (test cross-checking).
    force_scalar: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
            force_scalar: false,
        }
    }

    /// A hasher pinned to the scalar rounds, so tests can cross-check the
    /// hardware compression against the FIPS reference loop.
    #[cfg(test)]
    pub(crate) fn new_scalar_for_tests() -> Self {
        Sha256 {
            force_scalar: true,
            ..Self::new()
        }
    }

    /// The compression state after absorbing exactly one 64-byte block
    /// from the initial state. Lets callers precompute keyed prefixes
    /// (HMAC pads) once and resume with [`Sha256::from_midstate`].
    pub(crate) fn midstate_of_block(block: &[u8; 64]) -> [u32; 8] {
        let mut h = Sha256::new();
        h.compress(block);
        h.state
    }

    /// A hasher resumed from `state` with `absorbed` bytes (a multiple of
    /// 64) already compressed into it.
    pub(crate) fn from_midstate(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "midstate must be block-aligned");
        Sha256 {
            state,
            len: absorbed,
            buf: [0u8; 64],
            buf_len: 0,
            force_scalar: false,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: &[u8; 64] = data[..64].try_into().expect("64-byte slice");
            let block = *block;
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Completes the hash and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — written in
        // place rather than byte-by-byte through `update`.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        if used + 1 > 56 {
            // No room for the length in this block; it goes in an extra one.
            self.buf[used + 1..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        } else {
            self.buf[used + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256(out)
    }

    /// One compression round: the SHA extensions when the CPU has them
    /// (probed once), the scalar FIPS loop otherwise.
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(debug_assertions)]
        COMPRESSIONS.with(|count| count.set(count.get() + 1));
        if self.force_scalar {
            return self.compress_scalar(block);
        }
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::available() {
            return crate::sha_ni::compress(&mut self.state, block);
        }
        self.compress_scalar(block);
    }

    fn compress_scalar(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / FIPS 180-4 reference vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), *expected);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split={split}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Hash256::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Hash256::from_hex("zz"), None);
        assert_eq!(Hash256::from_hex(&"0".repeat(63)), None);
        assert_eq!(Hash256::from_hex(&"0g".repeat(32)), None);
        // 64 bytes, but not 64 hex characters.
        assert_eq!(Hash256::from_hex(&"é".repeat(32)), None);
        assert_eq!(
            Hash256::from_hex(&d.to_hex().to_uppercase()),
            Some(d),
            "upper case parses"
        );
    }

    #[test]
    fn hex_matches_the_formatter_on_random_digests() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4e1b);
        for _ in 0..1000 {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let d = Hash256(bytes);
            let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(d.to_hex(), formatted);
            assert_eq!(Hash256::from_hex(&formatted), Some(d));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn compressions_are_counted_per_thread() {
        let before = compressions_on_this_thread();
        sha256(&[0u8; 55]); // one block with padding
        sha256(&[0u8; 56]); // padding spills into a second block
        assert_eq!(compressions_on_this_thread() - before, 3);
        let elsewhere = std::thread::spawn(|| {
            sha256(b"abc");
            compressions_on_this_thread()
        })
        .join()
        .expect("thread");
        assert_eq!(elsewhere, 1);
        assert_eq!(compressions_on_this_thread() - before, 3);
    }

    #[test]
    fn wire_roundtrip() {
        use fabric_wire::{Decode, Encode};
        let d = sha256(b"wire");
        assert_eq!(Hash256::from_wire(&d.to_wire()).unwrap(), d);
    }
}
