//! Edge-case coverage across subsystems that the scenario tests don't
//! reach: orderer batching behaviour, deep policy nesting, identity
//! corner cases, and hostile-input handling at the network boundary.

use fabric_pdc::chaincode::DefinitionError;
use fabric_pdc::orderer::{BatchConfig, OrderingService};
use fabric_pdc::policy::{Policy, SignaturePolicy};
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
    assert_eq!(net1.commit(tx), Ok(TxValidationCode::BadPayload));
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

/// A definition the channel cannot run is refused at install, field by
/// field, and installs nothing: a chaincode policy with a misspelt rule or
/// a sub-policy name no org defines, a collection endorsement policy or a
/// member policy that does not parse, a member org the channel does not
/// have, `RequiredPeerCount` above `MaxPeerCount`, and a second collection
/// of one name. None of them reaches a validator, so none can fail a
/// transaction as `BadPayload`; read as undefined, the unparsable
/// collection endorsement policy would instead have fallen back to the
/// chaincode policy (Use Case 2). `deploy_chaincode` panics with the
/// refusal.
#[test]
fn malformed_definitions_are_refused_at_install() {
    let (ns, col) = (ChaincodeId::new("guarded"), CollectionName::new("PDC1"));
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(49)
        .build();
    let pdc1 =
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")]);
    let guarded = || ChaincodeDefinition::new("guarded");
    let unparsable = |expr: &str| SignaturePolicy::parse(expr).unwrap_err();
    let mut too_few_max = pdc1.clone();
    (too_few_max.required_peer_count, too_few_max.max_peer_count) = (2, 1);

    let cases = [
        (
            guarded()
                .with_endorsement_policy("MAJORTY Endorsement")
                .with_collection(pdc1.clone()),
            DefinitionError::UnparsableEndorsementPolicy(
                Policy::parse("MAJORTY Endorsement").unwrap_err(),
            ),
        ),
        (
            guarded()
                .with_endorsement_policy("MAJORITY Endorsment")
                .with_collection(pdc1.clone()),
            DefinitionError::UndefinedSubPolicy("Endorsment".into()),
        ),
        (
            guarded().with_collection(
                pdc1.clone()
                    .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer'"),
            ),
            DefinitionError::UnparsableCollectionEndorsementPolicy {
                collection: col.clone(),
                error: unparsable("AND('Org1MSP.peer','Org2MSP.peer'"),
            },
        ),
        (
            guarded().with_collection(CollectionConfig::new(
                "PDC1",
                "OR('Org1MSP.member','Org2MSP.member'",
            )),
            DefinitionError::UnparsableMemberPolicy {
                collection: col.clone(),
                error: unparsable("OR('Org1MSP.member','Org2MSP.member'"),
            },
        ),
        (
            guarded().with_collection(CollectionConfig::membership_of(
                "PDC1",
                &[OrgId::new("Org1MSP"), OrgId::new("Org9MSP")],
            )),
            DefinitionError::UnknownMemberOrg {
                collection: col.clone(),
                org: OrgId::new("Org9MSP"),
            },
        ),
        (
            guarded().with_collection(too_few_max),
            DefinitionError::RequiredAboveMax {
                collection: col.clone(),
                required: 2,
                max: 1,
            },
        ),
        (
            guarded()
                .with_collection(pdc1.clone())
                .with_collection(CollectionConfig::new("PDC1", "OR('Org3MSP.member')")),
            DefinitionError::DuplicateCollection(col.clone()),
        ),
    ];
    for (definition, refusal) in cases {
        for name in net.peer_names() {
            let handle = Arc::new(GuardedPdc::unconstrained("PDC1"));
            let peer = net.peer_mut(&name);
            assert_eq!(
                peer.install_chaincode(definition.clone(), handle),
                Err(refusal.clone()),
                "{name}"
            );
            assert!(peer.chaincode(&ns).is_none(), "{name}");
        }
    }

    let misspelt = guarded().with_endorsement_policy("MAJORTY Endorsement");
    let deploy = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.deploy_chaincode(misspelt, Arc::new(GuardedPdc::unconstrained("PDC1")));
    }));
    let message = deploy.unwrap_err();
    let message = message.downcast_ref::<String>().unwrap();
    assert!(
        message.starts_with("cannot deploy guarded: EndorsementPolicy:"),
        "{message}"
    );
    for name in net.peer_names() {
        assert!(net.peer(&name).chaincode(&ns).is_none(), "{name}");
    }
    assert!(net.deployed_definitions().is_empty());

    // The same collection, well formed, deploys and commits.
    net.deploy_chaincode(
        guarded().with_collection(pdc1),
        Arc::new(GuardedPdc::unconstrained("PDC1")),
    );
    let outcome = net
        .submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k1", "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert_eq!(outcome.validation_code, TxValidationCode::Valid);
}
