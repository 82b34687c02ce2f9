//! Failure injection across the composed network: orderer crashes and
//! gossip loss must not break safety (consistent ledgers) or liveness
//! (transactions still commit while a Raft quorum survives).

use fabric_pdc::gossip::{GossipHub, PeerId};
use fabric_pdc::prelude::*;
use fabric_pdc::raft::Cluster;
use fabric_pdc::types::PvtDataPackage;
use std::collections::BTreeMap;
use std::sync::Arc;

fn network(seed: u64) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    let def = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false),
    );
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
    net
}

fn create(net: &mut FabricNetwork, id: &str) -> TxValidationCode {
    net.submit_transaction(
        "client0.org1",
        "assets",
        "CreateAsset",
        &[id, "red", "alice", "1"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap()
    .validation_code
}

#[test]
fn ordering_survives_minority_orderer_crashes() {
    let mut net = network(940);
    assert!(create(&mut net, "before").is_valid());

    // Crash one of the three Raft orderers; quorum (2/3) survives.
    net.crash_orderer(2);
    assert!(net.wait_for_orderer(5000), "raft re-elects");
    assert!(create(&mut net, "after-one-crash").is_valid());

    // Ledgers stay consistent at every peer.
    let names = net.peer_names();
    let tip = net.peer(&names[0]).block_store().tip_hash();
    for name in &names {
        assert_eq!(net.peer(name).block_store().tip_hash(), tip, "{name}");
        assert!(net.peer(name).block_store().verify_chain(), "{name}");
        assert!(net
            .peer(name)
            .world_state()
            .get_public(&ChaincodeId::new("assets"), "after-one-crash")
            .is_some());
    }
}

#[test]
fn pdc_flow_survives_orderer_crash_and_gossip_loss_together() {
    let mut net = network(941);
    net.crash_orderer(3);
    assert!(net.wait_for_orderer(5000));
    net.gossip_mut().set_drop_rate(0.8);

    let outcome = net
        .submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k1", "7"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
    assert!(outcome.validation_code.is_valid());
    // Commit-time pull reconciliation still delivered plaintext to members.
    for member in ["peer0.org1", "peer0.org2"] {
        assert_eq!(
            net.peer(member)
                .world_state()
                .get_private(
                    &ChaincodeId::new("guarded"),
                    &CollectionName::new("PDC1"),
                    "k1"
                )
                .unwrap()
                .value,
            b"7",
            "{member}"
        );
    }
}

#[test]
fn many_transactions_across_crash_keep_unique_heights() {
    let mut net = network(942);
    for i in 0..5 {
        assert!(create(&mut net, &format!("a{i}")).is_valid());
    }
    net.crash_orderer(1);
    assert!(net.wait_for_orderer(5000));
    for i in 5..10 {
        assert!(create(&mut net, &format!("a{i}")).is_valid());
    }
    // All ten assets exist exactly once; the chain has no gaps.
    let peer = net.peer("peer0.org3");
    assert!(peer.block_store().verify_chain());
    for i in 0..10 {
        assert!(peer
            .world_state()
            .get_public(&ChaincodeId::new("assets"), &format!("a{i}"))
            .is_some());
    }
}

#[test]
fn a_lone_transaction_commits_whichever_orderer_crashes_once_its_batch_is_replicated() {
    // Ticks 1-2 age the lone transaction into a batch; tick 3 delivers the
    // batch's appends to the followers, whose acks would commit it at
    // tick 4. Crashing the leader then leaves the batch on the followers
    // only: the new leader must commit it without another proposal.
    for crashed in 1..=3 {
        let mut net = network(943);
        let client = net.client_mut("client0.org1");
        let args = ["lone", "red", "alice", "1"].map(|a| a.as_bytes().to_vec());
        let proposal = client.create_proposal(
            "ch1",
            "assets",
            "CreateAsset",
            args.to_vec(),
            BTreeMap::new(),
        );
        let responses = ["peer0.org1", "peer0.org2"].map(|p| net.endorse(p, &proposal).unwrap());
        let (tx, _) = net
            .client_mut("client0.org1")
            .assemble_transaction(&proposal, &responses)
            .unwrap();
        let tx_id = tx.tx_id.clone();
        net.submit(tx);
        net.advance(3);
        assert_eq!(net.transaction_status(&tx_id), None, "orderer {crashed}");

        net.crash_orderer(crashed);
        assert!(net.wait_for_orderer(5000), "orderer {crashed}");
        net.advance(200);
        assert!(
            net.transaction_status(&tx_id)
                .is_some_and(|code| code.is_valid()),
            "orderer {crashed} crashed and the transaction never committed"
        );
    }
}

#[test]
fn gossip_and_raft_draw_different_drop_sequences_from_one_seed() {
    // Raft's loss coins, one per message, grouped by tick: (messages, drops).
    let seed = 7;
    let mut cluster = Cluster::new(3, seed);
    cluster.set_drop_rate(0.5);
    let mut raft = Vec::new();
    for _ in 0..300 {
        let before = cluster.stats();
        cluster.tick();
        let after = cluster.stats();
        let dropped = after.messages_dropped - before.messages_dropped;
        let sent = after.messages_delivered - before.messages_delivered + dropped;
        if sent > 0 {
            raft.push((sent, dropped));
        }
    }
    assert!(raft.len() >= 20, "{} ticks sent messages", raft.len());

    // Gossip's coins in the same groups: one push to one member per coin.
    let (endorser, member) = (PeerId::new("peer0.org1"), PeerId::new("peer0.org2"));
    let mut hub = GossipHub::new(seed);
    hub.register(endorser.clone());
    hub.register(member.clone());
    hub.set_drop_rate(0.5);
    let pkg = Arc::new(PvtDataPackage {
        tx_id: TxId::new("tx"),
        namespaces: vec![],
        collections: vec![],
    });
    let gossip: Vec<(u64, u64)> = raft
        .iter()
        .map(|&(sent, _)| {
            let delivered: usize = (0..sent)
                .map(|_| hub.push(&endorser, std::slice::from_ref(&member), Arc::clone(&pkg)))
                .sum();
            (sent, sent - delivered as u64)
        })
        .collect();
    assert_ne!(raft, gossip, "the two components drew the same coins");
}
