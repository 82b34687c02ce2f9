//! Ablation benches over the substrates DESIGN.md calls out: hashing,
//! canonical encoding, policy evaluation, world state, Raft ordering, and
//! the full end-to-end submission path.
//!
//! Run: `cargo bench -p fabric-bench --bench substrates`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fabric_bench::{fixture_network, NS};
use fabric_pdc::crypto::{hmac_sha256, sha256, Keypair};
use fabric_pdc::gossip::{GossipHub, PeerId};
use fabric_pdc::ledger::WorldState;
use fabric_pdc::policy::{EndorserSet, ImplicitMetaPolicy, SignaturePolicy};
use fabric_pdc::prelude::*;
use fabric_pdc::raft::Cluster;
use fabric_pdc::types::{PvtDataPackage, Version};
use fabric_pdc::wire::{Decode, Encode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

fn crypto_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| black_box(sha256(d)))
        });
    }
    let key = [7u8; 32];
    let msg = vec![1u8; 256];
    group.bench_function("hmac_sha256_256B", |b| {
        b.iter(|| black_box(hmac_sha256(&key, &msg)))
    });
    let kp = Keypair::generate_from_seed(1);
    let sig = kp.sign(&msg);
    group.bench_function("sign_256B", |b| b.iter(|| black_box(kp.sign(&msg))));
    group.bench_function("verify_256B", |b| {
        b.iter(|| black_box(sig.verify(&kp.public_key(), &msg)))
    });
    // What a peer pays per signature once the message digest is known.
    let digest = sha256(&msg);
    group.bench_function("verify_digest", |b| {
        b.iter(|| black_box(sig.verify_digest(&kp.public_key(), &digest)))
    });
    group.finish();
}

/// One PDC write as the commit path sees it (client signature plus two
/// endorsements), and 500 copies of it under distinct hex ids.
fn pdc_write_and_500_copies() -> (Transaction, Vec<Transaction>) {
    let mut net = fixture_network(DefenseConfig::original(), 17);
    let channel = net.channel().clone();
    let proposal = net.client_mut("client0.org1").create_proposal(
        channel,
        NS,
        "write",
        vec![b"k1".to_vec(), b"12".to_vec()],
        BTreeMap::new(),
    );
    let responses = ["peer0.org1", "peer0.org2"].map(|p| net.endorse(p, &proposal).expect(p));
    let (tx, _) = net
        .client_mut("client0.org1")
        .assemble_transaction(&proposal, &responses)
        .expect("assemble");
    let copies = (0..500u32)
        .map(|i| Transaction {
            tx_id: TxId::new(sha256(&i.to_be_bytes()).to_hex()),
            ..tx.clone()
        })
        .collect();
    (tx, copies)
}

fn types_benches(c: &mut Criterion) {
    use fabric_pdc::crypto::BatchVerifier;
    use fabric_pdc::types::Block;
    let mut group = c.benchmark_group("types");
    let (tx, copies) = pdc_write_and_500_copies();
    // Every peer after the first: three signatures against digests the
    // shared transaction already carries.
    let mut batch = BatchVerifier::new();
    assert_eq!(tx.verify_signatures_batched(&mut batch), None);
    group.bench_function("verify_signatures_warm_memo", |b| {
        b.iter(|| black_box(tx.verify_signatures_batched(&mut batch)))
    });
    // Likewise the data hash: 32 bytes per transaction.
    black_box(Block::compute_data_hash(&copies));
    group.throughput(Throughput::Elements(copies.len() as u64));
    group.bench_function("data_hash_500_tx_warm", |b| {
        b.iter(|| black_box(Block::compute_data_hash(&copies)))
    });
    group.finish();
}

fn wire_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let mut map = BTreeMap::new();
    for i in 0..64 {
        map.insert(format!("key-{i:03}"), vec![i as u8; 32]);
    }
    let encoded = map.to_wire();
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_map64", |b| b.iter(|| black_box(map.to_wire())));
    group.bench_function("decode_map64", |b| {
        b.iter(|| black_box(BTreeMap::<String, Vec<u8>>::from_wire(&encoded).unwrap()))
    });
    group.finish();
}

fn policy_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy");
    let expr =
        "OutOf(3,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer','Org5MSP.peer')";
    group.bench_function("parse_outof5", |b| {
        b.iter(|| black_box(SignaturePolicy::parse(expr).unwrap()))
    });

    let policy = SignaturePolicy::parse(expr).unwrap();
    let ids: Vec<Identity> = (1..=5)
        .map(|i| {
            Identity::new(
                format!("Org{i}MSP"),
                Role::Peer,
                Keypair::generate_from_seed(100 + i).public_key(),
            )
        })
        .collect();
    group.bench_function("evaluate_outof5", |b| {
        b.iter(|| black_box(policy.satisfied_by(&ids)))
    });

    let meta = ImplicitMetaPolicy::parse("MAJORITY Endorsement").unwrap();
    let mut org_policies = BTreeMap::new();
    for i in 1..=5 {
        let org = OrgId::new(format!("Org{i}MSP"));
        org_policies.insert(
            org.clone(),
            SignaturePolicy::parse(&format!("OR('Org{i}MSP.peer')")).unwrap(),
        );
    }
    group.bench_function("evaluate_majority5", |b| {
        b.iter(|| black_box(meta.evaluate(&org_policies, &ids)))
    });

    // The commit path's shape: the default chaincode-level policy on a
    // two-org channel, over the de-duplicated set of the two endorsements
    // a transaction carries.
    let two_orgs: BTreeMap<OrgId, SignaturePolicy> = org_policies.into_iter().take(2).collect();
    let endorsers: Vec<&Identity> = ids.iter().take(2).collect();
    let majority = Policy::ImplicitMeta(meta);
    group.bench_function("evaluate_majority_2_endorsers", |b| {
        b.iter(|| {
            let set: EndorserSet<'_> = endorsers.iter().copied().collect();
            black_box(majority.evaluate_set(&two_orgs, &set))
        })
    });
    group.finish();
}

fn gossip_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("gossip");
    // One endorsement's dissemination on an 8-peer channel, then the
    // post-commit purge that keeps the stores at their steady size.
    let mut hub = GossipHub::new(5);
    let endorser = PeerId::new("peer0.org1");
    let recipients: Vec<PeerId> = (1..=7)
        .map(|i| PeerId::new(format!("peer{i}.org2")))
        .collect();
    hub.register(endorser.clone());
    for r in &recipients {
        hub.register(r.clone());
    }
    let pkg = Arc::new(PvtDataPackage {
        tx_id: TxId::new("tx-push"),
        namespaces: vec![],
        collections: vec![],
    });
    group.bench_function("push_7_recipients", |b| {
        b.iter(|| {
            black_box(hub.push(&endorser, &recipients, Arc::clone(&pkg)));
            hub.purge_committed([&pkg.tx_id]);
        })
    });
    group.finish();
}

fn ledger_benches(c: &mut Criterion) {
    use fabric_pdc::ledger::BlockStore;
    use fabric_pdc::types::Block;
    let mut group = c.benchmark_group("ledger");
    // Appending a block is indexing its transaction ids: 500 inserts
    // keyed by 64-character hex strings.
    let (_, copies) = pdc_write_and_500_copies();
    let block = Block::new(0, Hash256::default(), copies);
    group.bench_function("tx_index_insert_500", |b| {
        b.iter(|| {
            let mut store = BlockStore::new();
            store.append_unchecked(block.clone());
            black_box(store.contains_tx(&block.transactions[499].tx_id))
        })
    });
    group.bench_function("world_state_put_get_1k", |b| {
        b.iter(|| {
            let mut ws = WorldState::new();
            let ns = ChaincodeId::new(NS);
            for i in 0..1000u64 {
                ws.put_public(
                    &ns,
                    &format!("k{i}"),
                    i.to_be_bytes().to_vec(),
                    Version::new(1, i),
                );
            }
            for i in 0..1000u64 {
                black_box(ws.get_public(&ns, &format!("k{i}")));
            }
        })
    });
    group.bench_function("private_put_with_hashing_1k", |b| {
        b.iter(|| {
            let mut ws = WorldState::new();
            let ns = ChaincodeId::new(NS);
            let col = CollectionName::new("PDC1");
            for i in 0..1000u64 {
                ws.put_private(
                    &ns,
                    &col,
                    &format!("k{i}"),
                    vec![1u8; 64],
                    Version::new(1, i),
                );
            }
            black_box(ws.hashed_len())
        })
    });
    group.finish();
}

fn raft_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("raft");
    group.sample_size(20);
    group.bench_function("replicate_100_entries_5_nodes", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(5, 42);
            let leader = cluster.run_until_leader(1000).expect("leader");
            for i in 0..100u32 {
                cluster.propose(leader, i.to_be_bytes().to_vec()).unwrap();
            }
            cluster.run_ticks(60);
            assert_eq!(cluster.committed(leader).len(), 100);
        })
    });
    group.finish();
}

fn end_to_end_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    for (name, defense) in [
        ("original", DefenseConfig::original()),
        ("hardened", DefenseConfig::hardened()),
    ] {
        group.bench_function(BenchmarkId::new("pdc_write_commit", name), |b| {
            let mut net = fixture_network(defense, 13);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let outcome = net
                    .submit_transaction(
                        "client0.org1",
                        NS,
                        "write",
                        &["k1", "12"],
                        &[],
                        &["peer0.org1", "peer0.org2"],
                    )
                    .expect("commit");
                assert!(outcome.validation_code.is_valid());
            })
        });
    }
    // Endorsement with dissemination on a wide network: the per-package
    // member selection and push grow with the peer count (Fig. 2, 7–9).
    group.bench_function("endorse_pdc_write_8_peers", |b| {
        let mut net = fixture_network(DefenseConfig::original(), 13);
        for extra in 0..5 {
            net.add_peer(["Org1MSP", "Org2MSP"][extra % 2]);
        }
        let channel = net.channel().clone();
        b.iter(|| {
            let proposal = net.client_mut("client0.org1").create_proposal(
                channel.clone(),
                NS,
                "write",
                vec![b"k1".to_vec(), b"12".to_vec()],
                BTreeMap::new(),
            );
            black_box(net.endorse("peer0.org1", &proposal).expect("endorse"))
        })
    });
    group.finish();
}

fn sweep_benches(c: &mut Criterion) {
    // Ablation 1: MAJORITY evaluation cost vs. channel size — the unit of
    // work New Feature 1 adds per PDC read transaction.
    let mut group = c.benchmark_group("sweep_policy_orgs");
    for n in [2usize, 4, 6, 8, 10] {
        let mut org_policies = BTreeMap::new();
        let ids: Vec<Identity> = (1..=n)
            .map(|i| {
                let org = format!("Org{i}MSP");
                org_policies.insert(
                    OrgId::new(org.clone()),
                    SignaturePolicy::parse(&format!("OR('{org}.peer')")).unwrap(),
                );
                Identity::new(
                    org,
                    Role::Peer,
                    Keypair::generate_from_seed(60_000 + i as u64).public_key(),
                )
            })
            .collect();
        let meta = ImplicitMetaPolicy::parse("MAJORITY Endorsement").unwrap();
        group.bench_function(BenchmarkId::new("majority_eval", n), |b| {
            b.iter(|| black_box(meta.evaluate(&org_policies, &ids)))
        });
    }
    group.finish();

    // Ablation 2: validation latency vs. block size (how Fig. 11 numbers
    // scale when the orderer batches more transactions per block).
    use fabric_pdc::types::Block;
    let mut group = c.benchmark_group("sweep_block_size");
    group.sample_size(15);
    let mut net = fixture_network(DefenseConfig::original(), 16);
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    let mut all_txs = Vec::new();
    for i in 0..64u64 {
        let mut client = Client::new(
            "Org1MSP",
            Keypair::generate_from_seed(43_000 + i),
            DefenseConfig::original(),
        );
        let proposal = client.create_proposal(
            net.channel().clone(),
            ChaincodeId::new("assets"),
            "CreateAsset",
            vec![
                format!("s{i}").into_bytes(),
                b"red".to_vec(),
                b"alice".to_vec(),
                b"1".to_vec(),
            ],
            Default::default(),
        );
        let r1 = net.peer("peer0.org1").endorse(&proposal).unwrap().0;
        let r2 = net.peer("peer0.org2").endorse(&proposal).unwrap().0;
        let (tx, _) = client.assemble_transaction(&proposal, &[r1, r2]).unwrap();
        all_txs.push(tx);
    }
    let template = net.peer("peer0.org3").clone();
    for size in [1usize, 4, 16, 64] {
        let block = Block::new(
            template.block_store().height(),
            template.block_store().tip_hash(),
            all_txs[..size].to_vec(),
        );
        group.throughput(Throughput::Elements(size as u64));
        group.bench_function(BenchmarkId::new("validate_commit", size), |b| {
            b.iter(|| {
                let mut peer = template.clone();
                let mut no_pvt = |_: &TxId| None;
                black_box(peer.process_block(block.clone(), &mut no_pvt).unwrap())
            })
        });
    }
    group.finish();
}

fn analyzer_benches(c: &mut Criterion) {
    use fabric_pdc::analyzer::{corpus, scan_corpus, CorpusSpec};
    let mut group = c.benchmark_group("analyzer");
    group.sample_size(10);
    let spec = CorpusSpec::small(77);
    let root = std::env::temp_dir().join("fabric-bench-corpus");
    let _ = std::fs::remove_dir_all(&root);
    corpus::materialize(&spec, &root).expect("materialize");
    group.bench_function("scan_320_projects", |b| {
        b.iter(|| black_box(scan_corpus(&root).unwrap().len()))
    });
    group.bench_function("generate_320_projects", |b| {
        b.iter(|| black_box(corpus::generate(&spec).len()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(
    benches,
    crypto_benches,
    types_benches,
    wire_benches,
    policy_benches,
    gossip_benches,
    ledger_benches,
    raft_benches,
    end_to_end_benches,
    sweep_benches,
    analyzer_benches,
);
criterion_main!(benches);
