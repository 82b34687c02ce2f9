//! Decoding hostile bytes: no input panics a decoder, and an input that
//! decodes is the one encoding of the value it decodes to.
//!
//! The second property is what lets a digest of received bytes stand in
//! for the digest of the decoded value (DESIGN.md, "Hashing discipline"):
//! `Transaction::decode` seeds its memo from the ranges it read, the
//! payload's on its own, and the orderer decodes a `Vec<Transaction>`.
//! Arbitrary bytes almost never reach the inner decoders, so most cases
//! start from the encoding of a generated value and damage it.

use fabric_crypto::{sha256, Keypair, Signature};
use fabric_types::{
    Block, ChaincodeEvent, ChaincodeId, ChannelId, CollectionHashedRwSet, CollectionName,
    CollectionPvtRwSet, Endorsement, HashedRead, HashedWrite, Identity, KvRead, KvRwSet, KvWrite,
    MetadataWrite, NsRwSet, PayloadCommitment, ProposalResponsePayload, PvtDataPackage, Response,
    Role, Transaction, TxId, TxRwSet, TxValidationCode, Version,
};
use fabric_wire::{Decode, Encode};
use proptest::prelude::*;

/// Decodes `bytes` as `T`; whatever decodes must encode back to `bytes`.
fn decodes_canonically_or_not_at_all<T: Encode + Decode>(bytes: &[u8]) -> bool {
    match T::from_wire(bytes) {
        Ok(value) => {
            assert_eq!(
                value.to_wire(),
                bytes,
                "a second encoding of one value decoded"
            );
            true
        }
        Err(_) => false,
    }
}

fn check_all(bytes: &[u8]) {
    decodes_canonically_or_not_at_all::<Transaction>(bytes);
    decodes_canonically_or_not_at_all::<Vec<Transaction>>(bytes);
    decodes_canonically_or_not_at_all::<ProposalResponsePayload>(bytes);
    decodes_canonically_or_not_at_all::<Block>(bytes);
    decodes_canonically_or_not_at_all::<PvtDataPackage>(bytes);
}

/// A small deterministic stream of choices drawn from one seed.
struct Choices(u64);

impl Choices {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound.max(1) as u64) as usize
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        (0..self.next(max + 1))
            .map(|_| self.next(256) as u8)
            .collect()
    }

    fn version(&mut self) -> Option<Version> {
        (self.next(2) == 1).then(|| Version::new(self.next(9) as u64, self.next(300) as u64))
    }
}

fn kv_rwset(c: &mut Choices) -> KvRwSet {
    KvRwSet {
        reads: (0..c.next(3))
            .map(|i| KvRead {
                key: format!("r{i}"),
                version: c.version(),
            })
            .collect(),
        writes: (0..c.next(3))
            .map(|i| KvWrite {
                key: format!("w{i}"),
                value: (c.next(3) > 0).then(|| c.bytes(40)),
            })
            .collect(),
    }
}

fn transaction(c: &mut Choices) -> Transaction {
    let ns_rwsets = (0..c.next(3))
        .map(|n| NsRwSet {
            namespace: ChaincodeId::new(format!("cc{n}")),
            public: kv_rwset(c),
            metadata_writes: (0..c.next(2))
                .map(|i| MetadataWrite {
                    key: format!("m{i}"),
                    validation_parameter: (c.next(2) == 1).then(|| "OR('Org1MSP.peer')".into()),
                })
                .collect(),
            collections: (0..c.next(3))
                .map(|i| CollectionHashedRwSet {
                    collection: CollectionName::new(format!("col{i}")),
                    reads: (0..c.next(2))
                        .map(|_| HashedRead {
                            key_hash: sha256(&c.bytes(8)),
                            version: c.version(),
                        })
                        .collect(),
                    writes: (0..c.next(3))
                        .map(|_| HashedWrite {
                            key_hash: sha256(&c.bytes(8)),
                            value_hash: (c.next(3) > 0).then(|| sha256(&c.bytes(8))),
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    let identity = |c: &mut Choices, role| {
        let kp = Keypair::generate_from_seed(600 + c.next(4) as u64);
        Identity::new(format!("Org{}MSP", c.next(3)), role, kp.public_key())
    };
    let signature = |c: &mut Choices| Signature::from_bytes(sha256(&c.bytes(8)).0);
    Transaction {
        tx_id: TxId::new(sha256(&c.bytes(8)).to_hex()),
        channel: ChannelId::new("ch1"),
        chaincode: ChaincodeId::new("cc0"),
        creator: identity(c, Role::Client),
        payload: ProposalResponsePayload {
            proposal_hash: sha256(&c.bytes(8)),
            response: if c.next(5) == 0 {
                Response::error("boom")
            } else {
                Response::ok(c.bytes(60))
            },
            results: TxRwSet { ns_rwsets },
            event: (c.next(3) == 0).then(|| ChaincodeEvent {
                name: "evt".into(),
                payload: c.bytes(20),
            }),
        },
        commitment: if c.next(2) == 0 {
            PayloadCommitment::Plain
        } else {
            PayloadCommitment::HashedPayload
        },
        endorsements: (0..c.next(4))
            .map(|_| Endorsement {
                endorser: identity(c, Role::Peer),
                signature: signature(c),
            })
            .collect(),
        client_signature: signature(c),
        memo: Default::default(),
    }
}

fn batch(c: &mut Choices) -> Vec<Transaction> {
    (0..c.next(4)).map(|_| transaction(c)).collect()
}

fn block(c: &mut Choices) -> Block {
    let txs = batch(c);
    let mut block = Block::new(c.next(50) as u64, sha256(&c.bytes(8)), txs);
    if c.next(2) == 1 {
        block.metadata.validation_codes = block
            .transactions
            .iter()
            .map(|_| {
                if c.next(3) == 0 {
                    TxValidationCode::MvccReadConflict
                } else {
                    TxValidationCode::Valid
                }
            })
            .collect();
        let kp = Keypair::generate_from_seed(599);
        block.metadata.orderer = Some(Identity::new("OrdererMSP", Role::Orderer, kp.public_key()));
        block.metadata.orderer_signature = Some(kp.sign(&block.header.to_wire()));
    }
    block
}

fn package(c: &mut Choices) -> PvtDataPackage {
    PvtDataPackage {
        tx_id: TxId::new(sha256(&c.bytes(8)).to_hex()),
        namespace: ChaincodeId::new(format!("cc{}", c.next(3))),
        collections: (0..c.next(3))
            .map(|i| CollectionPvtRwSet {
                collection: CollectionName::new(format!("col{i}")),
                rwset: kv_rwset(c),
            })
            .collect(),
    }
}

/// Damages `bytes` in place: overwrite, flip, insert, delete or truncate.
fn damage(bytes: &mut Vec<u8>, c: &mut Choices) {
    if bytes.is_empty() {
        bytes.push(c.next(256) as u8);
        return;
    }
    let at = c.next(bytes.len());
    match c.next(5) {
        0 => bytes[at] = c.next(256) as u8,
        1 => bytes[at] ^= 1 << c.next(8),
        2 => bytes.insert(at, c.next(256) as u8),
        3 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        check_all(&bytes);
    }

    #[test]
    fn generated_values_round_trip(seed in 1u64..u64::MAX) {
        let mut c = Choices(seed);
        let tx = transaction(&mut c);
        prop_assert_eq!(&Transaction::from_wire(&tx.to_wire()).expect("transaction"), &tx);
        prop_assert_eq!(
            &ProposalResponsePayload::from_wire(&tx.payload.to_wire()).expect("payload"),
            &tx.payload
        );
        let batch = batch(&mut c);
        prop_assert_eq!(&Vec::<Transaction>::from_wire(&batch.to_wire()).expect("batch"), &batch);
        let block = block(&mut c);
        prop_assert_eq!(&Block::from_wire(&block.to_wire()).expect("block"), &block);
        let package = package(&mut c);
        prop_assert_eq!(
            &PvtDataPackage::from_wire(&package.to_wire()).expect("package"),
            &package
        );
    }

    #[test]
    fn damaged_encodings_decode_canonically_or_not_at_all(
        seed in 1u64..u64::MAX,
        hits in 1usize..4,
    ) {
        let mut c = Choices(seed);
        let encodings = [
            transaction(&mut c).to_wire(),
            transaction(&mut c).payload.to_wire(),
            batch(&mut c).to_wire(),
            block(&mut c).to_wire(),
            package(&mut c).to_wire(),
        ];
        for mut bytes in encodings {
            for _ in 0..hits {
                damage(&mut bytes, &mut c);
            }
            check_all(&bytes);
        }
    }
}

/// The damage has to reach both outcomes, or the property above is
/// vacuous: some damaged encodings must still decode (and did so
/// canonically), and some must be rejected.
#[test]
fn damage_reaches_both_outcomes() {
    let (mut decoded, mut rejected) = (0, 0);
    for seed in 1..400u64 {
        let mut c = Choices(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut bytes = transaction(&mut c).to_wire();
        damage(&mut bytes, &mut c);
        if decodes_canonically_or_not_at_all::<Transaction>(&bytes) {
            decoded += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(decoded > 20, "only {decoded} damaged encodings decoded");
    assert!(
        rejected > 20,
        "only {rejected} damaged encodings were rejected"
    );
}
