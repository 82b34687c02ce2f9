//! How many network ticks a full batch takes from submission to every
//! peer's ledger. The Raft orderer sends a batch to its followers when it
//! is cut, not at the next heartbeat, so the count is fixed by the hops
//! alone: cut and append, followers take it, acks reach the leader, the
//! new commit index reaches the observing orderer, and the block is
//! delivered in the same tick.

use fabric_pdc::prelude::*;
use fabric_pdc::raft::Cluster;
use std::sync::Arc;

/// Submits one full batch (`max_message_count` = 10 creates) and returns
/// how many `advance(1)` calls it took to land on every peer's ledger.
fn ticks_to_land(seed: u64) -> usize {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    // Past the new leader's first heartbeats, so the cluster is quiet.
    net.advance(20);
    let names = net.peer_names();
    let target = net.peer(&names[0]).block_store().height() + 1;

    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(seed ^ 0x0a55),
        DefenseConfig::original(),
    );
    for i in 0..10 {
        let proposal = client.create_proposal(
            net.channel().clone(),
            ChaincodeId::new("assets"),
            "CreateAsset",
            vec![
                format!("a{i}").into_bytes(),
                b"red".to_vec(),
                b"alice".to_vec(),
                b"1".to_vec(),
            ],
            Default::default(),
        );
        let r1 = net.endorse("peer0.org1", &proposal).expect("endorse org1");
        let r2 = net.endorse("peer0.org2", &proposal).expect("endorse org2");
        let (tx, _) = client
            .assemble_transaction(&proposal, &[r1, r2])
            .expect("assemble");
        net.submit(tx);
    }

    let mut advances = 0;
    while names
        .iter()
        .any(|n| net.peer(n).block_store().height() < target)
    {
        assert!(advances < 100, "the batch never landed");
        net.advance(1);
        advances += 1;
    }
    for name in &names {
        let store = net.peer(name).block_store();
        assert_eq!(store.height(), target, "{name}");
        let block = store.block(target - 1).expect("the batch's block");
        assert_eq!(block.transactions.len(), 10, "{name}");
        assert!(block.metadata.validation_codes.iter().all(|c| c.is_valid()));
    }
    advances
}

/// Whether orderer 1, the node the ordering service reads committed
/// batches from, is the Raft leader a network built at `seed` elects: the
/// service starts a cluster of the network's orderer count and seed, with
/// default timing, exactly like this one.
fn observer_leads(seed: u64) -> bool {
    let mut raft = Cluster::new(3, seed);
    raft.run_until_leader(10_000) == Some(1)
}

#[test]
fn a_full_batch_lands_on_every_ledger_after_four_ticks() {
    // At seed 1 orderer 1 follows and learns the commit on the fourth
    // tick; at seed 2 it leads and commits on the third.
    assert!(!observer_leads(1) && observer_leads(2));
    assert_eq!(ticks_to_land(1), 4);
    assert_eq!(ticks_to_land(2), 3);
}
