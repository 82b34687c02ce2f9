//! The commit path's hash budget, counted in SHA-256 compressions.
//!
//! Every peer checks every signature and the data hash of every block, so
//! hashing is multiplied by peers × signatures (DESIGN.md, "Hashing
//! discipline"). Signatures cover digests and the digests travel with the
//! shared transaction, which leaves each peer two compressions per
//! signature, 32 bytes of data hash per transaction, and the hashes of the
//! private key and value it checks against the rwset. This test holds the
//! live network to that, with the counter `fabric-crypto` compiles into
//! debug builds only.
#![cfg(debug_assertions)]

use fabric_pdc::crypto::compressions_on_this_thread;
use fabric_pdc::orderer::BatchConfig;
use fabric_pdc::prelude::*;

const NS: &str = "guarded";
const COL: &str = "PDC1";
const PEERS: usize = 8;
const BLOCK_TXS: usize = 100;

#[test]
fn a_pdc_write_block_on_eight_peers_stays_within_the_hash_budget() {
    // Delivery and validation run on the calling thread at this size
    // (800 transaction-commits is below the fork threshold, and parallel
    // validation is off by default), so the thread-local counter sees all
    // of it; the lower bound below fails if that stops being true.
    let mut net = NetworkBuilder::new("budget")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(7)
        .batch(BatchConfig {
            max_message_count: BLOCK_TXS,
            batch_timeout_ticks: 1_000_000,
        })
        .build();
    let def = ChaincodeDefinition::new(NS)
        .with_endorsement_policy("MAJORITY Endorsement")
        .with_collection(
            CollectionConfig::membership_of(COL, &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
                .with_member_only_read(false)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
        );
    net.deploy_chaincode(def, std::sync::Arc::new(GuardedPdc::unconstrained(COL)));
    for extra in 0..PEERS - 2 {
        net.add_peer(if extra % 2 == 0 { "Org1MSP" } else { "Org2MSP" });
    }
    let names = net.peer_names();
    assert_eq!(names.len(), PEERS);

    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(9_100_000),
        DefenseConfig::original(),
    );
    let txs: Vec<Transaction> = (0..BLOCK_TXS)
        .map(|i| {
            let proposal = client.create_proposal(
                net.channel().clone(),
                ChaincodeId::new(NS),
                "write",
                vec![format!("hk{i}").into_bytes(), b"12".to_vec()],
                Default::default(),
            );
            let r1 = net.endorse("peer0.org1", &proposal).expect("endorse org1");
            let r2 = net.endorse("peer0.org2", &proposal).expect("endorse org2");
            client
                .assemble_transaction(&proposal, &[r1, r2])
                .expect("assemble")
                .0
        })
        .collect();
    assert!(txs.iter().all(|tx| tx.endorsements.len() == 2));
    let target = net.peer(&names[0]).block_store().height() + 1;
    for tx in txs {
        net.submit(tx);
    }

    // Everything from cutting the block to the last peer's append.
    let before = compressions_on_this_thread();
    for _ in 0..10_000 {
        net.advance(1);
        if names
            .iter()
            .all(|n| net.peer(n).block_store().height() >= target)
        {
            break;
        }
    }
    let spent = compressions_on_this_thread() - before;

    for name in &names {
        let store = net.peer(name).block_store();
        assert_eq!(store.height(), target, "{name} committed the block");
        let block = store.block(target - 1).expect("block");
        assert_eq!(block.transactions.len(), BLOCK_TXS);
        assert!(block.metadata.validation_codes.iter().all(|c| c.is_valid()));
    }
    let per_tx_per_peer = spent as f64 / (BLOCK_TXS * PEERS) as f64;
    println!("{spent} compressions, {per_tx_per_peer:.2} per transaction per peer");
    assert!(
        per_tx_per_peer <= 12.0,
        "{per_tx_per_peer:.2} compressions per transaction per peer"
    );
    // Three signatures at two compressions each cannot cost less; a lower
    // reading means work moved to a thread this counter does not see.
    assert!(
        per_tx_per_peer >= 6.0,
        "{per_tx_per_peer:.2} compressions per transaction per peer is below the floor"
    );
}
