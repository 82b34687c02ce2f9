//! Cryptographic substrate for the Fabric PDC simulator.
//!
//! Hyperledger Fabric relies on SHA-256 for private-data hashing and on
//! X.509/ECDSA identities for endorsement signatures. This crate provides:
//!
//! * [`Sha256`] / [`sha256`] — a from-scratch FIPS 180-4 SHA-256
//!   implementation, tested against NIST vectors. Private-data hashing and
//!   the paper's "New Feature 2" payload hashing use this directly.
//! * [`hmac_sha256`] — RFC 2104 HMAC, tested against RFC 4231 vectors.
//! * [`Keypair`] / [`Signature`] — a *simulated* signature scheme: a keypair
//!   holds a secret 32-byte key, signatures are
//!   `HMAC-SHA256(sk, SHA-256(msg))` (hash-then-sign, so a holder of the
//!   digest signs and verifies in two compressions), and
//!   verification resolves the public key through a process-private CA
//!   registry populated at key generation. Within the simulation this gives
//!   the property that matters for the paper's attacks — code that does not
//!   hold an identity's secret cannot produce a signature that verifies for
//!   that identity — without pulling a full ECDSA implementation into the
//!   reproduction. The attacks in the paper never break cryptography; they
//!   abuse endorsement *policy*.
//!
//! # Examples
//!
//! ```
//! use fabric_crypto::{sha256, Keypair};
//!
//! let digest = sha256(b"private value");
//! assert_eq!(digest.to_hex().len(), 64);
//!
//! let kp = Keypair::generate_from_seed(7);
//! let sig = kp.sign(b"proposal response");
//! assert!(sig.verify(&kp.public_key(), b"proposal response"));
//! assert!(!sig.verify(&kp.public_key(), b"tampered"));
//! ```

mod hash;
mod hmac;
mod sha_ni;
mod sig;

#[cfg(debug_assertions)]
pub use hash::compressions_on_this_thread;
pub use hash::{sha256, Hash256, Sha256};
pub use hmac::hmac_sha256;
pub use sig::{BatchVerifier, Keypair, PublicKey, Signature};
