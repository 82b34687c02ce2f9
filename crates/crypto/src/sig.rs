//! Simulated digital signatures backed by a process-private CA registry.
//!
//! The reproduction does not need real ECDSA: the paper's attacks abuse
//! endorsement *policy*, never signature forgery. What the simulation must
//! guarantee is that code holding only public identities cannot fabricate a
//! signature for someone else. We get that by keeping each identity's secret
//! key inside [`Keypair`] (and a module-private registry used only by
//! verification), and defining `sig = HMAC-SHA256(sk, SHA-256(msg))`:
//! hash-then-sign, as Fabric's ECDSA does. Whoever already holds a
//! message's digest signs or verifies it in two compressions.

use crate::hash::{sha256, Hash256};
use crate::hmac::{hmac_from_midstates, hmac_midstates};
use fabric_wire::{Decode, Encode, IdMap, Reader, WireError};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;

/// An identity's keyed material: the HMAC pad midstates precomputed from
/// its secret key, so each signature or verification skips the key-pad
/// setup and its two compression rounds.
#[derive(Clone, Copy)]
struct SecretEntry {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl SecretEntry {
    fn mac(&self, digest: &Hash256) -> [u8; 32] {
        hmac_from_midstates(self.inner, self.outer, digest.as_bytes()).0
    }
}

/// Registry of `public key -> verification material`, playing the role of
/// the Fabric CA for signature verification inside the simulation.
/// Module-private: attack code cannot reach other identities' secrets
/// through the public API.
static CA_REGISTRY: RwLock<Option<IdMap<[u8; 32], SecretEntry>>> = RwLock::new(None);

/// A public identity key (the SHA-256 of the secret key).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey([u8; 32]);

impl PublicKey {
    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex prefix for display.
    pub fn short_hex(&self) -> String {
        Hash256(self.0).to_hex()[..8].to_string()
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", self.short_hex())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&Hash256(self.0).to_hex())
    }
}

impl Encode for PublicKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PublicKey(<[u8; 32]>::decode(r)?))
    }
}

/// A signature over a message by one identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature([u8; 32]);

impl Signature {
    /// Verifies that `self` is a valid signature by `pk` over `msg`.
    ///
    /// Returns `false` for unknown identities or mismatched messages;
    /// verification never panics.
    pub fn verify(&self, pk: &PublicKey, msg: &[u8]) -> bool {
        self.verify_digest(pk, &sha256(msg))
    }

    /// [`Signature::verify`] for a caller that already holds
    /// `SHA-256(msg)`.
    pub fn verify_digest(&self, pk: &PublicKey, digest: &Hash256) -> bool {
        let entry = {
            let guard = CA_REGISTRY.read();
            let Some(map) = guard.as_ref() else {
                return false;
            };
            let Some(entry) = map.get(&pk.0) else {
                return false;
            };
            *entry
        };
        entry.mac(digest) == self.0
    }

    /// Raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a signature from raw bytes (e.g. decoded from the wire). The
    /// result is only meaningful if it verifies.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Signature(bytes)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}…)", &Hash256(self.0).to_hex()[..8])
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature(<[u8; 32]>::decode(r)?))
    }
}

/// Amortizes CA-registry lookups across many verifications.
///
/// [`Signature::verify`] takes the registry read-lock and hashes into the
/// identity map on every call. A block's signatures, however, come from a
/// handful of distinct identities (each endorsing peer signs every
/// transaction it endorses), so a committer verifying a whole block pays
/// those per-call costs hundreds of times for the same few identities. A
/// `BatchVerifier` resolves each identity's verification material — the
/// precomputed HMAC pad midstates — **once**, caches it locally, and replays
/// only the two per-digest compression rounds for subsequent signatures by
/// the same identity.
///
/// Unknown identities are cached too (as "unknown"), so repeated forged
/// signatures cost one registry probe total. The cache snapshots the
/// registry per identity: a keypair generated *after* an identity was first
/// resolved is not picked up, which never matters on the commit path
/// (transactions carry identities that existed at endorsement time).
///
/// # Examples
///
/// ```
/// use fabric_crypto::{BatchVerifier, Keypair};
///
/// let kp = Keypair::generate_from_seed(5);
/// let mut batch = BatchVerifier::new();
/// for i in 0..3u8 {
///     let msg = [i; 4];
///     let sig = kp.sign(&msg);
///     assert!(batch.verify(&kp.public_key(), &msg, &sig));
/// }
/// assert_eq!(batch.identities_resolved(), 1);
/// ```
#[derive(Default)]
pub struct BatchVerifier {
    cache: IdMap<[u8; 32], Option<SecretEntry>>,
}

impl fmt::Debug for BatchVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BatchVerifier({} identities)", self.cache.len())
    }
}

impl BatchVerifier {
    /// An empty verifier; identities are resolved on first use.
    pub fn new() -> Self {
        BatchVerifier::default()
    }

    /// Verifies `sig` over `msg` by `pk`, resolving `pk`'s verification
    /// material from the CA registry only on this verifier's first
    /// encounter with the identity. Same outcome as [`Signature::verify`].
    pub fn verify(&mut self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        self.verify_digest(pk, &sha256(msg), sig)
    }

    /// [`BatchVerifier::verify`] for a caller that already holds
    /// `SHA-256(msg)`.
    pub fn verify_digest(&mut self, pk: &PublicKey, digest: &Hash256, sig: &Signature) -> bool {
        let entry = self.cache.entry(pk.0).or_insert_with(|| {
            CA_REGISTRY
                .read()
                .as_ref()
                .and_then(|map| map.get(&pk.0))
                .copied()
        });
        entry.is_some_and(|entry| entry.mac(digest) == sig.0)
    }

    /// Distinct identities resolved so far (known or unknown).
    pub fn identities_resolved(&self) -> usize {
        self.cache.len()
    }
}

/// A signing identity: secret key plus derived public key.
///
/// # Examples
///
/// ```
/// use fabric_crypto::Keypair;
///
/// let alice = Keypair::generate_from_seed(1);
/// let bob = Keypair::generate_from_seed(2);
/// let sig = alice.sign(b"endorse tx");
/// assert!(sig.verify(&alice.public_key(), b"endorse tx"));
/// // Bob's key does not verify Alice's signature.
/// assert!(!sig.verify(&bob.public_key(), b"endorse tx"));
/// ```
#[derive(Clone)]
pub struct Keypair {
    /// The secret, in the only form signing needs it.
    pads: SecretEntry,
    pk: PublicKey,
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak the secret key through Debug.
        write!(f, "Keypair(pk={}…)", self.pk.short_hex())
    }
}

impl Keypair {
    /// Generates the keypair of `seed` and registers its public key with
    /// the simulation CA. A network node's seed comes from
    /// `fabric_wire::derive_seed`, so no two nodes share one.
    pub fn generate_from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sk = [0u8; 32];
        rng.fill_bytes(&mut sk);
        Self::from_secret(sk)
    }

    fn from_secret(sk: [u8; 32]) -> Self {
        let pk = PublicKey(sha256(&sk).0);
        let (inner, outer) = hmac_midstates(&sk);
        let pads = SecretEntry { inner, outer };
        CA_REGISTRY
            .write()
            .get_or_insert_with(IdMap::default)
            .insert(pk.0, pads);
        Keypair { pads, pk }
    }

    /// The public identity of this keypair.
    pub fn public_key(&self) -> PublicKey {
        self.pk
    }

    /// Signs `msg` with this identity's secret key.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_digest(&sha256(msg))
    }

    /// [`Keypair::sign`] for a caller that already holds `SHA-256(msg)`.
    pub fn sign_digest(&self, digest: &Hash256) -> Signature {
        Signature(self.pads.mac(digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::generate_from_seed(40);
        let sig = kp.sign(b"msg");
        assert!(sig.verify(&kp.public_key(), b"msg"));
        assert!(!sig.verify(&kp.public_key(), b"other"));
    }

    #[test]
    fn a_signature_is_the_mac_of_the_message_digest() {
        let mut sk = [0u8; 32];
        StdRng::seed_from_u64(42).fill_bytes(&mut sk);
        let kp = Keypair::generate_from_seed(42);
        for msg in [&b""[..], b"msg", &[7u8; 200]] {
            let digest = sha256(msg);
            let sig = kp.sign(msg);
            assert_eq!(sig, kp.sign_digest(&digest));
            assert_eq!(sig.0, crate::hmac_sha256(&sk, digest.as_bytes()).0);
            assert!(sig.verify_digest(&kp.public_key(), &digest));
            assert!(!sig.verify_digest(&kp.public_key(), &sha256(b"other")));
            // The digest is what is signed, not a message to hash again.
            assert!(!sig.verify(&kp.public_key(), digest.as_bytes()));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_digest_signs_and_verifies_in_two_compressions() {
        let kp = Keypair::generate_from_seed(43);
        let digest = sha256(b"counted");
        let mut batch = BatchVerifier::new();
        let sig = kp.sign_digest(&digest);
        assert!(batch.verify_digest(&kp.public_key(), &digest, &sig));
        let before = crate::compressions_on_this_thread();
        kp.sign_digest(&digest);
        assert_eq!(crate::compressions_on_this_thread() - before, 2);
        assert!(sig.verify_digest(&kp.public_key(), &digest));
        assert_eq!(crate::compressions_on_this_thread() - before, 4);
        assert!(batch.verify_digest(&kp.public_key(), &digest, &sig));
        assert_eq!(crate::compressions_on_this_thread() - before, 6);
    }

    #[test]
    fn forged_signature_fails() {
        let kp = Keypair::generate_from_seed(44);
        let forged = Signature::from_bytes([0u8; 32]);
        assert!(!forged.verify(&kp.public_key(), b"msg"));
    }

    #[test]
    fn unknown_identity_fails() {
        let pk = PublicKey([7u8; 32]);
        let kp = Keypair::generate_from_seed(45);
        let sig = kp.sign(b"msg");
        assert!(!sig.verify(&pk, b"msg"));
    }

    #[test]
    fn deterministic_seeds_are_stable() {
        let a = Keypair::generate_from_seed(42);
        let b = Keypair::generate_from_seed(42);
        assert_eq!(a.public_key(), b.public_key());
        assert_eq!(a.sign(b"x"), b.sign(b"x"));
    }

    #[test]
    fn distinct_generate_keys_are_distinct() {
        let a = Keypair::generate_from_seed(46);
        let b = Keypair::generate_from_seed(47);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn batch_verifier_matches_per_call_verify() {
        let a = Keypair::generate_from_seed(81);
        let b = Keypair::generate_from_seed(82);
        let unknown = PublicKey([9u8; 32]);
        let mut batch = BatchVerifier::new();
        for (i, kp) in [&a, &b, &a, &a, &b].iter().enumerate() {
            let msg = format!("msg-{i}").into_bytes();
            let sig = kp.sign(&msg);
            assert!(batch.verify(&kp.public_key(), &msg, &sig));
            assert!(batch.verify_digest(&kp.public_key(), &sha256(&msg), &sig));
            assert!(!batch.verify(&kp.public_key(), b"other", &sig));
            assert!(!batch.verify(&unknown, &msg, &sig));
            // Cross-identity confusion must fail exactly like `verify`.
            let other = if kp.public_key() == a.public_key() {
                &b
            } else {
                &a
            };
            assert_eq!(
                batch.verify(&other.public_key(), &msg, &sig),
                sig.verify(&other.public_key(), &msg)
            );
        }
        // Two real identities plus the unknown one: three resolutions.
        assert_eq!(batch.identities_resolved(), 3);
    }
}
