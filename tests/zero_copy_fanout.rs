//! Zero-copy block fan-out, pinned by a counting global allocator.
//!
//! The network fans each cut block out to every peer. With `Arc`-shared
//! transaction storage that fan-out is a refcount bump — `Block::clone`
//! must perform **zero** heap allocations, which pins per-peer delivery
//! at O(1) deep copies regardless of block size, where rebuilding the
//! block from owned transactions allocates at least once per transaction.
//! On the live submit→commit path the same fact is read off the ledgers:
//! every peer's committed block points at one transaction storage.
//!
//! The last groups hold the per-transaction path to its allocation
//! budgets (DESIGN.md, "Allocation discipline"): identifier clones, policy
//! evaluation and gossip push allocate nothing, endorsing on a wider
//! network costs no allocation per extra recipient, recording a span
//! allocates nothing but an owned field value, and a block leaves the
//! orderer with every memo seeded from the bytes it was decoded from.

use fabric_pdc::gossip::{GossipHub, PeerId};
use fabric_pdc::orderer::{BatchConfig, OrderingService};
use fabric_pdc::peer::ChannelPolicies;
use fabric_pdc::policy::EndorserSet;
use fabric_pdc::prelude::*;
use fabric_pdc::telemetry::TraceSink;
use fabric_pdc::types::{Block, PvtDataPackage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// System allocator wrapper that counts allocation events and bytes.
/// Deallocations are not tracked: the interesting quantity is how much
/// allocator traffic a code path *causes*, not its live footprint.
///
/// The counters are per thread: every path measured here runs on the
/// thread that measures it, and the test harness's own threads allocate
/// whenever they like (a process-wide count read 1 for a refcount bump
/// about once in forty runs).
struct CountingAlloc;

thread_local! {
    // `const` and without destructors, so reading them from inside the
    // allocator neither allocates nor outlives the thread's storage.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes every test in this binary, so one test's threads never
/// compete with another's measured window for the two cores.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns `(result, allocation calls, allocated bytes)`.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let calls0 = ALLOC_CALLS.get();
    let bytes0 = ALLOC_BYTES.get();
    let result = f();
    (
        result,
        ALLOC_CALLS.get() - calls0,
        ALLOC_BYTES.get() - bytes0,
    )
}

const NS: &str = "guarded";
const COL: &str = "PDC1";

/// 2-org network (plus `extra_peers` additional peers, alternating orgs)
/// with the guarded PDC chaincode deployed and blocks cut at exactly
/// `block_txs` transactions.
fn fanout_network(extra_peers: usize, block_txs: usize) -> FabricNetwork {
    let mut net = NetworkBuilder::new("zc")
        .orgs(&["Org1MSP", "Org2MSP"])
        .seed(41)
        .batch(BatchConfig {
            max_message_count: block_txs,
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
    net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained(COL)));
    for extra in 0..extra_peers {
        let org = if extra % 2 == 0 { "Org1MSP" } else { "Org2MSP" };
        net.add_peer(org);
    }
    net
}

/// Pre-endorsed, pre-assembled distinct-key PDC writes, one per index in
/// `keys`, whose private data has been disseminated through the network's
/// gossip layer.
fn prepare_txs(net: &mut FabricNetwork, keys: Range<usize>) -> Vec<Transaction> {
    keys.map(|i| {
        let mut client = Client::new(
            "Org1MSP",
            Keypair::generate_from_seed(8_800_000 + i as u64),
            DefenseConfig::original(),
        );
        let proposal = client.create_proposal(
            net.channel().clone(),
            ChaincodeId::new(NS),
            "write",
            vec![format!("zk{i}").into_bytes(), b"12".to_vec()],
            Default::default(),
        );
        let r1 = net.endorse("peer0.org1", &proposal).expect("endorse org1");
        let r2 = net.endorse("peer0.org2", &proposal).expect("endorse org2");
        client
            .assemble_transaction(&proposal, &[r1, r2])
            .expect("assemble")
            .0
    })
    .collect()
}

/// Submits `txs` and ticks until all peers committed `blocks` more blocks.
fn run_to_commit(net: &mut FabricNetwork, txs: Vec<Transaction>, blocks: usize) {
    let names = net.peer_names();
    let target = net.peer(&names[0]).block_store().height() + blocks as u64;
    for tx in txs {
        net.submit(tx);
    }
    for _ in 0..10_000 {
        net.advance(1);
        if names
            .iter()
            .all(|n| net.peer(n).block_store().height() >= target)
        {
            return;
        }
    }
    panic!("blocks did not commit within the tick budget");
}

/// The core pin: cloning a block is allocation-free (per-peer fan-out is
/// O(1) deep copies, independent of how many transactions it carries),
/// while the deep-clone reconstruction allocates at least once per
/// transaction.
#[test]
fn block_clone_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap();
    const TXS: usize = 8;
    let mut net = fanout_network(0, TXS);
    let txs = prepare_txs(&mut net, 0..TXS);
    let tip = net.peer("peer0.org1").block_store().tip_hash();
    let height = net.peer("peer0.org1").block_store().height();
    let block = Block::new(height, tip, txs);

    let (shared, shared_calls, shared_bytes) = measured(|| std::hint::black_box(block.clone()));
    assert_eq!(
        (shared_calls, shared_bytes),
        (0, 0),
        "Arc fan-out must be a pure refcount bump"
    );
    assert_eq!(shared, block);

    let (deep, deep_calls, _) = measured(|| {
        std::hint::black_box(Block {
            header: block.header.clone(),
            transactions: block.transactions.to_vec().into(),
            metadata: block.metadata.clone(),
        })
    });
    assert!(
        deep_calls >= TXS as u64,
        "deep-cloning {TXS} transactions must allocate at least once each, measured {deep_calls}"
    );
    assert_eq!(deep, block, "deep clone is observationally identical");
}

/// Delivery copies no transaction: after a live submit→commit run on four
/// peers, the committed block in every peer's ledger points at the same
/// transaction storage.
#[test]
fn delivered_blocks_share_transaction_storage() {
    let _guard = SERIAL.lock().unwrap();
    const TXS: usize = 16;
    let mut net = fanout_network(2, TXS);
    let txs = prepare_txs(&mut net, 0..TXS);
    let number = net.peer("peer0.org1").block_store().height();
    run_to_commit(&mut net, txs, 1);
    let names = net.peer_names();
    assert_eq!(names.len(), 4);
    let stored: Vec<&Block> = names
        .iter()
        .map(|n| net.peer(n).block_store().block(number).expect("committed"))
        .collect();
    assert_eq!(stored[0].transactions.len(), TXS);
    // Pointer equality with the first peer's copy is equality of every pair.
    for (name, block) in names.iter().zip(&stored).skip(1) {
        assert!(
            Arc::ptr_eq(&stored[0].transactions, &block.transactions),
            "{name} holds its own copy of block {number}'s transactions"
        );
    }
}

/// Identifiers are shared strings: copying one into an event, an index or
/// a log entry is a refcount bump.
#[test]
fn identifier_clones_are_allocation_free() {
    let _guard = SERIAL.lock().unwrap();
    let tx_id = TxId::new("6f1c".repeat(16));
    let peer_id = PeerId::new("peer0.org1");
    let ((tx_copy, peer_copy), calls, _) =
        measured(|| std::hint::black_box((tx_id.clone(), peer_id.clone())));
    assert_eq!(calls, 0, "TxId::clone and PeerId::clone must not allocate");
    assert_eq!((tx_copy, peer_copy), (tx_id, peer_id));
}

/// Policy evaluation, endorser de-duplication included, uses no heap for
/// up to 16 endorsers, on every policy shape and both outcomes.
#[test]
fn policy_evaluation_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap();
    let orgs: Vec<OrgId> = (1..=4).map(|i| OrgId::new(format!("Org{i}MSP"))).collect();
    // 16 distinct peers over the four orgs, plus a duplicate of the first.
    let mut peers: Vec<Identity> = (0..16u64)
        .map(|i| {
            let key = Keypair::generate_from_seed(9_100 + i).public_key();
            Identity::new(orgs[i as usize % 4].clone(), Role::Peer, key)
        })
        .collect();
    peers.push(peers[0].clone());
    let all: Vec<&Identity> = peers.iter().collect();
    let org_policies = ChannelPolicies::default_for(&orgs);
    let org_policies = org_policies.org_policies();

    let signature = [
        "AND('Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')",
        "OR('Org9MSP.peer','Org4MSP.member')",
        "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer')",
        "AND(OR('Org1MSP.peer','Org2MSP.peer'),OutOf(2,'Org1MSP.peer','Org1MSP.peer','Org9MSP.peer'))",
        "AND('Org1MSP.peer','Org9MSP.peer')",
    ];
    for (expr, endorsers) in signature
        .iter()
        .flat_map(|expr| [(expr, &all[..]), (expr, &all[..2]), (expr, &all[..0])])
    {
        let policy = SignaturePolicy::parse(expr).unwrap();
        let (_, calls, _) =
            measured(|| std::hint::black_box(policy.satisfied_by_set(&set_of(endorsers))));
        assert_eq!(calls, 0, "{expr} over {} endorsers", endorsers.len());
        let policy = Policy::Signature(policy);
        let (_, calls, _) = measured(|| {
            std::hint::black_box(policy.evaluate_set(org_policies, &set_of(endorsers)))
        });
        assert_eq!(calls, 0, "Policy {expr} over {} endorsers", endorsers.len());
    }
    for expr in ["MAJORITY Endorsement", "ANY Endorsement", "ALL Endorsement"] {
        let policy = Policy::parse(expr).unwrap();
        for endorsers in [&all[..], &all[..2], &all[..0]] {
            let (_, calls, _) = measured(|| {
                std::hint::black_box(policy.evaluate_set(org_policies, &set_of(endorsers)))
            });
            assert_eq!(calls, 0, "{expr} over {} endorsers", endorsers.len());
        }
    }
    assert!(Policy::parse("MAJORITY Endorsement")
        .unwrap()
        .evaluate_set(org_policies, &set_of(&all)));
}

/// The commit path's endorser set: built once per transaction from its
/// endorsements.
fn set_of<'a>(endorsers: &[&'a Identity]) -> EndorserSet<'a> {
    endorsers.iter().copied().collect()
}

/// A push shares the package and the ids: once the recipients' stores and
/// the event log have room, seven deliveries allocate nothing.
#[test]
fn gossip_push_is_allocation_free_once_stores_have_capacity() {
    let _guard = SERIAL.lock().unwrap();
    let mut hub = GossipHub::new(3);
    let endorser = PeerId::new("peer0.org1");
    let recipients: Vec<PeerId> = (1..=7)
        .map(|i| PeerId::new(format!("peer{i}.org2")))
        .collect();
    hub.register(endorser.clone());
    for r in &recipients {
        hub.register(r.clone());
    }
    let package = |i: u32| {
        Arc::new(PvtDataPackage {
            tx_id: TxId::new(format!("tx{i}")),
            namespaces: vec![],
            collections: vec![],
        })
    };
    // Five pushes leave room for a sixth entry in every store (hash maps
    // grow at 4, 8, 15, ... entries) and in the log (35 of 64 slots).
    for i in 0..5 {
        hub.push(&endorser, &recipients, package(i));
    }
    let pkg = package(5);
    let (delivered, calls, _) = measured(|| hub.push(&endorser, &recipients, pkg));
    assert_eq!(delivered, 7);
    assert_eq!(calls, 0, "push to 7 recipients must not allocate");
}

/// Dissemination hands `push` a cached recipient slice and shared ids, so
/// endorsing a PDC write on 8 peers allocates (almost) no more than on 2.
#[test]
fn endorse_allocations_do_not_grow_with_recipients() {
    let _guard = SERIAL.lock().unwrap();
    let endorse_calls = |extra_peers: usize| -> u64 {
        let mut net = fanout_network(extra_peers, 1_000);
        let mut client = Client::new(
            "Org1MSP",
            Keypair::generate_from_seed(8_700_000),
            DefenseConfig::original(),
        );
        let mut endorse_one = |i: usize| {
            let proposal = client.create_proposal(
                net.channel().clone(),
                ChaincodeId::new(NS),
                "write",
                vec![format!("ek{i}").into_bytes(), b"12".to_vec()],
                Default::default(),
            );
            measured(|| net.endorse("peer0.org1", &proposal).expect("endorse")).1
        };
        // Warm the stores past their first growth steps, then take the
        // cheapest of three: a growth step of a store or of the log may
        // fall on one of them, not on all.
        for i in 0..5 {
            endorse_one(i);
        }
        (5..8).map(&mut endorse_one).min().expect("three runs")
    };
    let (narrow, wide) = (endorse_calls(0), endorse_calls(6));
    assert!(
        wide <= narrow + 4,
        "endorse on 8 peers allocated {wide} times, on 2 peers {narrow}"
    );
}

/// The orderer encodes each payload once and decodes it once: names come
/// out shared, payload bytes as ranges of the Raft entry, and every memo
/// seeded. So cutting a block allocates for the decoded structure alone,
/// and the block's first data-hash check and signature checks allocate
/// nothing per transaction (the one allocation is the data hash's count
/// prefix).
#[test]
fn a_cut_block_leaves_the_orderer_with_every_memo_seeded() {
    let _guard = SERIAL.lock().unwrap();
    const TXS: usize = 100;
    let mut net = fanout_network(0, TXS);
    let txs = prepare_txs(&mut net, 0..TXS);
    let mut orderer = OrderingService::new(
        3,
        43,
        BatchConfig {
            max_message_count: TXS,
            batch_timeout_ticks: 1_000_000,
        },
    );
    assert!(orderer.run_until_ready(1_000));
    let (blocks, cut_calls, _) = measured(|| {
        for tx in txs {
            orderer.submit(tx);
        }
        for _ in 0..1_000 {
            orderer.tick();
            let blocks = orderer.take_blocks();
            if !blocks.is_empty() {
                return blocks;
            }
        }
        panic!("no block was cut within 1 000 ticks");
    });
    assert_eq!(blocks.len(), 1);
    let block = &blocks[0];
    assert_eq!(block.transactions.len(), TXS);
    let per_tx = cut_calls as f64 / TXS as f64;
    println!("cutting a {TXS}-tx block: {per_tx:.2} allocations per transaction");
    assert!(
        per_tx <= 6.0,
        "cutting a {TXS}-tx block allocated {per_tx:.2} times per transaction"
    );

    let (verdicts, check_calls, _) = measured(|| {
        (
            block.data_hash_is_consistent(),
            block
                .transactions
                .iter()
                .all(|tx| tx.verify_signatures().is_none()),
        )
    });
    assert_eq!(verdicts, (true, true));
    println!("checking it: {check_calls} allocations");
    assert!(
        check_calls <= 1,
        "checking a just-cut {TXS}-tx block allocated {check_calls} times"
    );
}

/// Recording a span allocates nothing but an owned field value: the name
/// is a literal, the node and identifiers are shared, integers and codes
/// stay typed, and a full sink evicts without freeing into a new record.
#[test]
fn recording_a_span_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap();
    let sink = Arc::new(TraceSink::with_capacity(8));
    let telemetry = Telemetry::with_collector(sink.clone());
    let node: Arc<str> = Arc::from("peer0.org1");
    let tx_id = TxId::new("6f1c".repeat(16));
    let chaincode = ChaincodeId::new(NS);
    let commit_span = || {
        let mut s = telemetry.span("peer.commit");
        s.trace(TraceContext::for_tx(tx_id.as_str()));
        s.node(&node);
        s.field("code", TxValidationCode::MvccReadConflict.as_str());
    };
    for _ in 0..sink.capacity() {
        commit_span();
    }
    let (_, calls, _) = measured(|| (0..100).for_each(|_| commit_span()));
    assert_eq!(calls, 0, "100 peer.commit spans into a full sink");
    assert_eq!(sink.len(), sink.capacity());
    assert_eq!(sink.evicted(), 100);

    let (_, calls, _) = measured(|| {
        let mut s = telemetry.span("peer.endorse");
        s.trace(TraceContext::for_tx(tx_id.as_str()));
        s.node(&node);
        s.field("chaincode", chaincode.as_arc());
        s.field("function", Box::<str>::from("write"));
        s.field("result", "ok");
    });
    assert!(
        calls <= 1,
        "a peer.endorse span may allocate its owned function name only, measured {calls}"
    );
}

/// A traced commit records a block span and two spans per transaction,
/// and allocates (almost) nothing more than an untraced one:
/// the sink growing toward its cap may take one step.
#[test]
fn traced_commit_allocates_no_more_than_untraced() {
    let _guard = SERIAL.lock().unwrap();
    const TXS: usize = 10;
    let commit_calls = |telemetry: Option<Telemetry>| -> u64 {
        let mut net = fanout_network(0, 1_000);
        if let Some(t) = telemetry {
            net.peer_mut("peer0.org1").set_telemetry(t);
        }
        let mut commit = |keys: Range<usize>| {
            let txs = prepare_txs(&mut net, keys);
            let peer_id = net.peer("peer0.org1").gossip_id().clone();
            let pkgs: Vec<(TxId, Option<Arc<PvtDataPackage>>)> = txs
                .iter()
                .map(|tx| {
                    (
                        tx.tx_id.clone(),
                        net.gossip_mut().get_shared(&peer_id, &tx.tx_id),
                    )
                })
                .collect();
            let mut provider = |id: &TxId| {
                pkgs.iter()
                    .find(|(tx_id, _)| tx_id == id)
                    .and_then(|(_, pkg)| pkg.clone())
            };
            let peer = net.peer_mut("peer0.org1");
            let block = Block::new(
                peer.block_store().height(),
                peer.block_store().tip_hash(),
                txs,
            );
            let (outcome, calls, _) =
                measured(|| peer.process_block(block, &mut provider).expect("commits"));
            assert!(outcome.validation_codes.iter().all(|c| c.is_valid()));
            assert!(outcome.missing_private_data.is_empty());
            calls
        };
        commit(0..TXS);
        commit(TXS..2 * TXS)
    };
    let telemetry = Telemetry::new();
    let traced = commit_calls(Some(telemetry.clone()));
    let untraced = commit_calls(None);
    let records = telemetry.trace().expect("sink").records();
    let commits = records.iter().filter(|r| r.name == "peer.commit").count();
    assert_eq!(commits, 2 * TXS, "every transaction was traced");
    assert!(
        traced <= untraced + 2,
        "a traced {TXS}-tx commit allocated {traced} times, untraced {untraced}"
    );
}
