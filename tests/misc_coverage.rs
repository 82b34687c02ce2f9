//! Edge-case coverage across subsystems that the scenario tests don't
//! reach: orderer batching behaviour, deep policy nesting, identity
//! corner cases, and hostile-input handling at the network boundary.

use fabric_pdc::orderer::{BatchConfig, OrderingService};
use fabric_pdc::policy::SignaturePolicy;
use fabric_pdc::prelude::*;
use std::sync::Arc;

#[test]
fn orderer_timeout_resets_after_each_cut() {
    let mut o = OrderingService::new(
        3,
        1200,
        BatchConfig {
            max_message_count: 100,
            batch_timeout_ticks: 5,
        },
    );
    assert!(o.run_until_ready(2000));
    assert_eq!(o.pending_len(), 0);

    // Nothing pending: ticking never cuts empty blocks.
    o.run_ticks(20);
    assert!(o.take_blocks().is_empty());
}

#[test]
fn deeply_nested_policy_parses_and_evaluates() {
    let expr = "OR(AND('Org1MSP.peer',OR('Org2MSP.peer','Org3MSP.peer')),\
                OutOf(2,'Org4MSP.peer','Org5MSP.peer',AND('Org1MSP.admin','Org2MSP.admin')))";
    let policy = SignaturePolicy::parse(expr).unwrap();

    let peer = |org: &str, seed: u64| {
        Identity::new(
            org,
            Role::Peer,
            Keypair::generate_from_seed(seed).public_key(),
        )
    };
    let admin = |org: &str, seed: u64| {
        Identity::new(
            org,
            Role::Admin,
            Keypair::generate_from_seed(seed).public_key(),
        )
    };

    // Left branch: org1 peer + org3 peer.
    assert!(policy.satisfied_by(&[peer("Org1MSP", 1), peer("Org3MSP", 3)]));
    // Right branch: org4 peer + the nested AND of two admins.
    assert!(policy.satisfied_by(&[
        peer("Org4MSP", 4),
        admin("Org1MSP", 11),
        admin("Org2MSP", 12)
    ]));
    // Near misses fail.
    assert!(!policy.satisfied_by(&[peer("Org1MSP", 1)]));
    assert!(!policy.satisfied_by(&[peer("Org4MSP", 4), admin("Org1MSP", 11)]));
}

#[test]
fn hash256_hex_accepts_uppercase_and_rejects_junk() {
    let d = sha256(b"case");
    let upper = d.to_hex().to_ascii_uppercase();
    assert_eq!(Hash256::from_hex(&upper), Some(d));
    assert_eq!(Hash256::from_hex(&"g".repeat(64)), None);
    // Multi-byte UTF-8 of the right char-length must not panic.
    assert_eq!(Hash256::from_hex(&"é".repeat(32)), None);
}

#[test]
fn proposal_to_unknown_channel_is_cleanly_refused() {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(1201)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));

    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(1202),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        ChannelId::new("other-channel"),
        ChaincodeId::new("assets"),
        "ReadAsset",
        vec![b"x".to_vec()],
        Default::default(),
    );
    let err = net.endorse("peer0.org1", &proposal).unwrap_err();
    assert!(matches!(err, NetworkError::Endorse { .. }));
}

#[test]
fn foreign_channel_transaction_is_invalidated_not_committed() {
    // A transaction assembled for another channel that somehow reaches this
    // channel's orderer must be flagged BAD_PAYLOAD by every peer.
    let mut net1 = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(1203)
        .build();
    net1.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    let mut net2 = NetworkBuilder::new("ch2")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(1203)
        .build();
    net2.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));

    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(1204),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        ChannelId::new("ch2"),
        ChaincodeId::new("assets"),
        "CreateAsset",
        vec![
            b"a1".to_vec(),
            b"red".to_vec(),
            b"alice".to_vec(),
            b"1".to_vec(),
        ],
        Default::default(),
    );
    let r1 = net2.endorse("peer0.org1", &proposal).unwrap();
    let r2 = net2.endorse("peer0.org2", &proposal).unwrap();
    let (tx, _) = client.assemble_transaction(&proposal, &[r1, r2]).unwrap();

    // Cross-submit to channel 1's orderer.
    let tx_id = tx.tx_id.clone();
    net1.submit(tx);
    for _ in 0..200 {
        net1.advance(1);
        if net1.transaction_status(&tx_id).is_some() {
            break;
        }
    }
    assert_eq!(
        net1.transaction_status(&tx_id),
        Some(TxValidationCode::BadPayload)
    );
    assert!(net1
        .peer("peer0.org1")
        .world_state()
        .get_public(&ChaincodeId::new("assets"), "a1")
        .is_none());
}

#[test]
fn empty_args_and_unicode_keys_survive_the_full_pipeline() {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(1205)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    // Unicode asset id round-trips through rwsets, hashing and commit.
    let id = "资产-α-🚀";
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "assets",
            "CreateAsset",
            &[id, "rouge", "aliče", "7"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
    let payload = net
        .evaluate_transaction("client0.org1", "peer0.org2", "assets", "ReadAsset", &[id])
        .unwrap();
    assert_eq!(Asset::from_bytes(&payload).unwrap().owner, "aliče");
}

/// Policy text that does not parse, deployed as is. A chaincode policy
/// with a misspelt rule fails every transaction as `BadPayload`; one that
/// parses but names a sub-policy no org defines fails every transaction
/// the policy check, and discovery finds no endorsers for it. So does a
/// write under a collection endorsement policy that does not parse, and
/// that policy, being defined, is no Use Case 2 fallback. A member policy
/// that does not parse names no member org, so a private write reaches no
/// peer in plaintext and commits hashes everywhere.
#[test]
fn malformed_policies_fail_closed_end_to_end() {
    let (ns, col) = (ChaincodeId::new("guarded"), CollectionName::new("PDC1"));
    let orgs = ["Org1MSP", "Org2MSP", "Org3MSP"];
    let deploy = |definition: ChaincodeDefinition| {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&orgs)
            .seed(49)
            .with_telemetry(Telemetry::new())
            .build();
        net.deploy_chaincode(definition, Arc::new(GuardedPdc::unconstrained("PDC1")));
        net
    };
    let write = |net: &mut FabricNetwork, key: &str| {
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &[key, "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap()
    };
    let fallbacks = |net: &FabricNetwork| {
        let events = net.telemetry().unwrap().audit().events();
        events
            .iter()
            .filter(|e| matches!(e, AuditEvent::PolicyFallbackToChaincodeLevel { .. }))
            .count()
    };
    let pdc1 =
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")]);

    let mut net = deploy(
        ChaincodeDefinition::new("guarded")
            .with_endorsement_policy("MAJORTY Endorsement")
            .with_collection(pdc1.clone()),
    );
    for key in ["k1", "k2", "k3"] {
        assert_eq!(
            write(&mut net, key).validation_code,
            TxValidationCode::BadPayload
        );
    }

    // No org defines a sub-policy `Endorsment`, so the policy is never
    // satisfied: every peer fails every write, and discovery finds no set.
    let mut net = deploy(
        ChaincodeDefinition::new("guarded")
            .with_endorsement_policy("MAJORITY Endorsment")
            .with_collection(pdc1.clone()),
    );
    for key in ["k1", "k2", "k3"] {
        let tx_id = write(&mut net, key).tx_id;
        for name in net.peer_names() {
            let (_, code) = net.peer(&name).block_store().transaction(&tx_id).unwrap();
            let failed = Some(TxValidationCode::EndorsementPolicyFailure);
            assert_eq!(code, failed, "{key} on {name}");
        }
    }
    assert_eq!(net.discover_endorsers("guarded"), None);

    let mut net = deploy(
        ChaincodeDefinition::new("guarded")
            .with_collection(pdc1.with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer'")),
    );
    assert_eq!(
        write(&mut net, "k1").validation_code,
        TxValidationCode::BadPayload
    );
    assert_eq!(fallbacks(&net), 0);

    let mut net = deploy(ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::new("PDC1", "OR('Org1MSP.member','Org2MSP.member'"),
    ));
    for name in net.peer_names() {
        let installed = net.peer(&name).chaincode(&ns).unwrap();
        assert!(installed.memberships.is_empty(), "{name}");
        for org in orgs {
            assert!(!installed.definition.org_is_member(&OrgId::new(org), &col));
        }
    }
    assert_eq!(
        write(&mut net, "k1").validation_code,
        TxValidationCode::Valid
    );
    // Undefined, not unparsable: this write does fall back, once per peer.
    assert_eq!(fallbacks(&net), net.peer_names().len());
    let gossip = net.gossip_mut();
    assert_eq!((gossip.delivered_total(), gossip.dropped_total()), (0, 0));
    for name in net.peer_names() {
        let state = net.peer(&name).world_state();
        assert!(state.get_private(&ns, &col, "k1").is_none(), "{name}");
        assert!(state.get_private_hash(&ns, &col, "k1").is_some(), "{name}");
    }
}
