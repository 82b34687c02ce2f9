//! Property-based tests over the core data structures and the workflow.

use fabric_pdc::crypto::{sha256, Keypair};
use fabric_pdc::policy::SignaturePolicy;
use fabric_pdc::prelude::*;
use fabric_pdc::types::{KvRead, KvRwSet, KvWrite, Version};
use fabric_pdc::wire::{Decode, Encode};
use proptest::prelude::*;

fn arb_version() -> impl Strategy<Value = Option<Version>> {
    proptest::option::of((0u64..100, 0u64..50).prop_map(|(b, t)| Version::new(b, t)))
}

fn arb_rwset() -> impl Strategy<Value = KvRwSet> {
    let reads = proptest::collection::vec(
        ("[a-z]{1,8}", arb_version()).prop_map(|(key, version)| KvRead { key, version }),
        0..5,
    );
    let writes = proptest::collection::vec(
        (
            "[a-z]{1,8}",
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16)),
        )
            .prop_map(|(key, value)| KvWrite { key, value }),
        0..5,
    );
    (reads, writes).prop_map(|(reads, writes)| KvRwSet { reads, writes })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hashing a rwset preserves shape: same lengths, same versions, same
    /// deletes, and key hashes are the SHA-256 of the keys.
    #[test]
    fn hashed_rwset_preserves_shape(rwset in arb_rwset()) {
        let (hr, hw) = rwset.to_hashed();
        prop_assert_eq!(hr.len(), rwset.reads.len());
        prop_assert_eq!(hw.len(), rwset.writes.len());
        for (h, r) in hr.iter().zip(&rwset.reads) {
            prop_assert_eq!(h.key_hash, sha256(r.key.as_bytes()));
            prop_assert_eq!(h.version, r.version);
        }
        for (h, w) in hw.iter().zip(&rwset.writes) {
            prop_assert_eq!(h.is_delete(), w.is_delete());
            prop_assert_eq!(h.value_hash.is_some(), w.value.is_some());
        }
    }

    /// The Table-I classification is stable under hashing: a plaintext
    /// rwset and its hashed form classify identically.
    #[test]
    fn classification_survives_hashing(rwset in arb_rwset()) {
        let pvt = fabric_pdc::types::CollectionPvtRwSet {
            collection: CollectionName::new("c"),
            rwset: rwset.clone(),
        };
        prop_assert_eq!(pvt.to_hashed().kind(), rwset.kind());
    }

    /// A member's plaintext check is the hashed form's equality: plaintext
    /// hashes to a transaction's collection rwset exactly when hashing it
    /// gives that rwset, whichever one field of it was edited.
    #[test]
    fn plaintext_hashes_to_exactly_its_own_hashed_form(rwset in arb_rwset(), edit in 0u8..5) {
        let pvt = fabric_pdc::types::CollectionPvtRwSet {
            collection: CollectionName::new("c"),
            rwset,
        };
        let mut edited = pvt.clone();
        match edit {
            1 => if let Some(r) = edited.rwset.reads.first_mut() {
                r.version = r.version.map_or(Some(Version::new(1, 1)), |_| None);
            },
            2 => if let Some(w) = edited.rwset.writes.first_mut() {
                w.value = Some(b"edited".to_vec());
            },
            3 => if let Some(w) = edited.rwset.writes.first_mut() {
                w.value = None;
            },
            4 => edited.collection = CollectionName::new("d"),
            _ => {}
        }
        let hashed = edited.to_hashed();
        prop_assert!(edited.hashes_to(&hashed));
        prop_assert_eq!(pvt.hashes_to(&hashed), pvt.to_hashed() == hashed);
    }

    /// Wire roundtrip for rwsets.
    #[test]
    fn rwset_wire_roundtrip(rwset in arb_rwset()) {
        let bytes = rwset.to_wire();
        prop_assert_eq!(KvRwSet::from_wire(&bytes).unwrap(), rwset);
    }

    /// Signatures verify iff key and message match.
    #[test]
    fn signature_soundness(seed_a in 1u64..500, seed_b in 501u64..1000, msg in any::<Vec<u8>>(), other in any::<Vec<u8>>()) {
        let a = Keypair::generate_from_seed(seed_a);
        let b = Keypair::generate_from_seed(seed_b);
        let sig = a.sign(&msg);
        prop_assert!(sig.verify(&a.public_key(), &msg));
        prop_assert!(!sig.verify(&b.public_key(), &msg));
        if msg != other {
            prop_assert!(!sig.verify(&a.public_key(), &other));
        }
    }

    /// OutOf(n) monotonicity: adding endorsers never un-satisfies a policy.
    #[test]
    fn policy_monotonicity(n in 1u32..4, present in proptest::collection::vec(0usize..5, 0..5)) {
        let expr = format!(
            "OutOf({n},'Org0MSP.peer','Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer')"
        );
        let policy = SignaturePolicy::parse(&expr).unwrap();
        let ids: Vec<Identity> = present
            .iter()
            .map(|&i| Identity::new(
                format!("Org{i}MSP"),
                Role::Peer,
                Keypair::generate_from_seed(3000 + i as u64).public_key(),
            ))
            .collect();
        let before = policy.satisfied_by(&ids);
        let mut more = ids.clone();
        more.push(Identity::new(
            "Org0MSP",
            Role::Peer,
            Keypair::generate_from_seed(4242).public_key(),
        ));
        let after = policy.satisfied_by(&more);
        prop_assert!(!before || after, "satisfaction must be monotone");
    }

    /// Policy display/parse roundtrip.
    #[test]
    fn policy_display_roundtrip(n in 1u32..3, orgs in proptest::collection::vec(1usize..9, 3..6)) {
        let principals: Vec<String> = orgs.iter().map(|o| format!("'Org{o}MSP.peer'")).collect();
        let expr = format!("OutOf({n},{})", principals.join(","));
        let parsed = SignaturePolicy::parse(&expr).unwrap();
        let reparsed = SignaturePolicy::parse(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes must never panic protocol decoders.
    #[test]
    fn protocol_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        use fabric_pdc::types::{Block, Proposal, Transaction, TxRwSet};
        let _ = Transaction::from_wire(&bytes);
        let _ = Block::from_wire(&bytes);
        let _ = Proposal::from_wire(&bytes);
        let _ = TxRwSet::from_wire(&bytes);
    }

    /// Valid encodings decode back to the same value even after the wire
    /// passes through a copy (no aliasing/state effects).
    #[test]
    fn rwset_double_roundtrip(rwset in arb_rwset()) {
        let bytes = rwset.to_wire();
        let copy = bytes.clone();
        prop_assert_eq!(KvRwSet::from_wire(&copy).unwrap(), rwset);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end determinism: the same seed yields byte-identical chains.
    #[test]
    fn network_is_deterministic(seed in 0u64..50) {
        let run = |seed: u64| {
            let mut net = NetworkBuilder::new("ch1")
                .orgs(&["Org1MSP", "Org2MSP"])
                .seed(seed)
                .build();
            net.deploy_chaincode(ChaincodeDefinition::new("assets"), std::sync::Arc::new(AssetTransfer));
            net.submit_transaction(
                "client0.org1",
                "assets",
                "CreateAsset",
                &["a", "red", "alice", "1"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .unwrap();
            net.peer("peer0.org1").block_store().tip_hash()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
