//! Equivalence of the shipped validator and the reference validator
//! (`support::reference_peer`): for any block — valid, under-endorsed,
//! tampered, duplicated, and SBE-parameter-changing transactions
//! interleaved, under any defense configuration — `Peer::process_block`
//! must produce the same validation codes, the same world-state digest,
//! the same history index, and the same chain tip as
//! `ReferencePeer::process_block`.
//!
//! The interesting adversarial case is a transaction that writes a key's
//! state-based-endorsement parameter *earlier in the same block* than a
//! write to that key: the later write must be checked against the
//! in-block parameter, and it raises an `SbeReCheck` audit event.
//!
//! The same contract extends to multi-block streams: the concatenated
//! outcomes, final digest and chain tip must match the reference loop
//! even when an SBE mutation or an MVCC read hazard straddles a block
//! boundary, and two runs of one stream must emit the same audit-event
//! sequence and the same alert log.

mod support;

use fabric_pdc::chaincode::samples::{SbeDemo, SecuredTrade};
use fabric_pdc::orderer::BatchConfig;
use fabric_pdc::peer::BlockCommitOutcome;
use fabric_pdc::prelude::*;
use fabric_pdc::types::{Block, PvtDataPackage, Transaction};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use support::reference_peer::ReferencePeer;

/// PDC chaincode namespace (collection members: org1, org2).
const PDC_NS: &str = "guarded";
/// Hash-probe chaincode namespace: the same collection, but its `exists`
/// reads only the private-data hash, so every peer can endorse it.
const PROBE_NS: &str = "probe";
/// Private data collection name.
const COL: &str = "PDC1";
/// SBE chaincode namespace (public state, key-level policies).
const SBE_NS: &str = "sbe";

const PEERS: [&str; 3] = ["peer0.org1", "peer0.org2", "peer0.org3"];

/// The defense configurations the random-block proptests draw from.
const DEFENSES: [fn() -> DefenseConfig; 4] = [
    DefenseConfig::original,
    DefenseConfig::feature1,
    DefenseConfig::feature2,
    DefenseConfig::hardened,
];

/// Key-level policies a generated `set_policy` can install. Deliberately
/// includes policies that later writes in the block will fail.
const SBE_POLICIES: [&str; 3] = [
    "OR('Org2MSP.peer')",
    "AND('Org1MSP.peer','Org2MSP.peer')",
    "OR('Org3MSP.peer')",
];

/// One generated transaction in the block under test.
#[derive(Debug, Clone)]
enum TxSpec {
    /// Private write to `bk{key}` endorsed by the given collection-member
    /// peers (subset of {org1, org2}; singletons fail the collection AND).
    PdcWrite { key: u8, endorsers: Vec<usize> },
    /// Private read-modify-write of the seeded `bk0`: its hashed read
    /// carries the pre-stream version, so any earlier write to `bk0` —
    /// in the same block or an earlier block of the stream — makes this
    /// an MVCC read conflict.
    PdcAdd { endorsers: Vec<usize> },
    /// Public write to `sk{key}`; validity depends on the key's SBE
    /// parameter at validation time (possibly written earlier in-block).
    SbePut { key: u8, endorsers: Vec<usize> },
    /// Writes the SBE parameter of `sk{key}` — every later in-block
    /// transaction touching that key must be re-checked against it.
    SbeSetPolicy {
        key: u8,
        policy: usize,
        endorsers: Vec<usize>,
    },
    /// A PDC read-only transaction (a hashed read of the never-written
    /// `bk0` in the probe namespace) endorsed by any peers: with org3 among them it passes the chaincode MAJORITY policy
    /// but fails the collection policy under Feature 1 and the non-member
    /// filter under the supplemental defense.
    PdcProbe { endorsers: Vec<usize> },
    /// A well-endorsed PDC write whose response payload is corrupted after
    /// assembly (invalid signatures).
    Tampered { key: u8 },
    /// A byte-for-byte copy of an earlier transaction in the block.
    DuplicateOf(usize),
}

/// Non-empty subset of all three peers.
fn arb_endorsers() -> impl Strategy<Value = Vec<usize>> {
    proptest::sample::subsequence(vec![0usize, 1, 2], 1..=3)
}

/// Non-empty subset of the collection members (org1, org2).
fn arb_member_endorsers() -> impl Strategy<Value = Vec<usize>> {
    proptest::sample::subsequence(vec![0usize, 1], 1..=2)
}

fn arb_spec() -> impl Strategy<Value = TxSpec> {
    prop_oneof![
        3 => (0u8..4, arb_member_endorsers())
            .prop_map(|(key, endorsers)| TxSpec::PdcWrite { key, endorsers }),
        2 => arb_member_endorsers().prop_map(|endorsers| TxSpec::PdcAdd { endorsers }),
        2 => arb_endorsers().prop_map(|endorsers| TxSpec::PdcProbe { endorsers }),
        3 => (0u8..3, arb_endorsers())
            .prop_map(|(key, endorsers)| TxSpec::SbePut { key, endorsers }),
        2 => (0u8..3, 0usize..SBE_POLICIES.len(), arb_endorsers())
            .prop_map(|(key, policy, endorsers)| TxSpec::SbeSetPolicy { key, policy, endorsers }),
        1 => (0u8..4).prop_map(|key| TxSpec::Tampered { key }),
        1 => (0usize..16).prop_map(TxSpec::DuplicateOf),
    ]
}

/// Deploys the PDC, hash-probe and SBE chaincodes. Both PDC namespaces
/// use the chaincode policy MAJORITY and the collection policy
/// AND(org1, org2).
fn deploy_chaincodes(net: &mut FabricNetwork) {
    let pdc_def = |ns: &str| {
        ChaincodeDefinition::new(ns)
            .with_endorsement_policy("MAJORITY Endorsement")
            .with_collection(
                CollectionConfig::membership_of(
                    COL,
                    &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
                )
                .with_member_only_read(false)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
            )
    };
    net.deploy_chaincode(pdc_def(PDC_NS), Arc::new(GuardedPdc::unconstrained(COL)));
    net.deploy_chaincode(pdc_def(PROBE_NS), Arc::new(SecuredTrade::new(COL)));
    net.deploy_chaincode(ChaincodeDefinition::new(SBE_NS), Arc::new(SbeDemo));
}

/// 3-org network under `defense` with every chaincode deployed and one
/// committed SBE parameter (`sk0` pinned to AND(org1, org2)), so
/// generated blocks exercise committed parameters as well as in-block
/// ones.
fn equivalence_network(seed: u64, defense: DefenseConfig) -> FabricNetwork {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .defense(defense)
        .build();
    deploy_chaincodes(&mut net);
    // Seed bk0 so `PdcAdd` read-modify-writes have a key to read.
    let outcome = net
        .submit_transaction(
            "client0.org1",
            PDC_NS,
            "write",
            &["bk0", "12"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .expect("seed bk0");
    assert!(outcome.validation_code.is_valid(), "seed bk0");
    for (function, args) in [
        ("put", vec!["sk0", "seeded"]),
        (
            "set_policy",
            vec!["sk0", "AND('Org1MSP.peer','Org2MSP.peer')"],
        ),
    ] {
        let outcome = net
            .submit_transaction(
                "client0.org1",
                SBE_NS,
                function,
                &args,
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .expect("seed tx");
        assert!(outcome.validation_code.is_valid(), "seed {function}");
    }
    net
}

/// Endorses one invocation at the given peers and assembles the signed
/// transaction with a client under the network's defense configuration,
/// collecting any private-data package under its tx-id.
fn build_tx(
    net: &mut FabricNetwork,
    ns: &str,
    function: &str,
    args: Vec<Vec<u8>>,
    endorsers: &[usize],
    client_seed: u64,
    pkgs: &mut HashMap<TxId, PvtDataPackage>,
) -> Transaction {
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(7_700_000 + client_seed),
        net.peer(PEERS[0]).defense(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new(ns),
        function,
        args,
        Default::default(),
    );
    let mut responses = Vec::with_capacity(endorsers.len());
    let mut pvt = None;
    for &e in endorsers {
        let (resp, pkg) = net.peer(PEERS[e]).endorse(&proposal).expect("endorse");
        pvt = pvt.or(pkg);
        responses.push(resp);
    }
    let (tx, _) = client
        .assemble_transaction(&proposal, &responses)
        .expect("assemble");
    if let Some(pkg) = pvt {
        pkgs.insert(tx.tx_id.clone(), pkg);
    }
    tx
}

/// Builds the pre-chained block stream described by `blocks_specs` on
/// top of the network's current state (block headers do not cover
/// metadata, so the whole stream exists before the first commit), plus
/// the private-data packages its commit needs.
///
/// Every transaction is endorsed against the *pre-stream* committed
/// state — so a `PdcAdd` in a later block carries a read version an
/// earlier block's write invalidates, and a `DuplicateOf` may copy a
/// transaction from an earlier block (caught by the committed-duplicate
/// check once that block lands).
fn build_stream(
    net: &mut FabricNetwork,
    blocks_specs: &[Vec<TxSpec>],
) -> (Vec<Block>, HashMap<TxId, PvtDataPackage>) {
    let total: usize = blocks_specs.iter().map(Vec::len).sum();
    let mut all: Vec<Transaction> = Vec::with_capacity(total);
    let mut pkgs = HashMap::new();
    let store = net.peer("peer0.org2").block_store();
    let first_number = store.height();
    let mut prev = store.tip_hash();
    let mut stream = Vec::with_capacity(blocks_specs.len());
    for (specs, number) in blocks_specs.iter().zip(first_number..) {
        let mut txs: Vec<Transaction> = Vec::with_capacity(specs.len());
        for spec in specs {
            let i = all.len();
            let tx = match spec {
                TxSpec::PdcWrite { key, endorsers } => build_tx(
                    net,
                    PDC_NS,
                    "write",
                    vec![
                        format!("bk{key}").into_bytes(),
                        format!("{}", 100 + i).into_bytes(),
                    ],
                    endorsers,
                    i as u64,
                    &mut pkgs,
                ),
                TxSpec::PdcAdd { endorsers } => build_tx(
                    net,
                    PDC_NS,
                    "add",
                    vec![b"bk0".to_vec(), b"1".to_vec()],
                    endorsers,
                    i as u64,
                    &mut pkgs,
                ),
                TxSpec::PdcProbe { endorsers } => build_tx(
                    net,
                    PROBE_NS,
                    "exists",
                    vec![b"bk0".to_vec()],
                    endorsers,
                    i as u64,
                    &mut pkgs,
                ),
                TxSpec::SbePut { key, endorsers } => build_tx(
                    net,
                    SBE_NS,
                    "put",
                    vec![
                        format!("sk{key}").into_bytes(),
                        format!("v{i}").into_bytes(),
                    ],
                    endorsers,
                    i as u64,
                    &mut pkgs,
                ),
                TxSpec::SbeSetPolicy {
                    key,
                    policy,
                    endorsers,
                } => build_tx(
                    net,
                    SBE_NS,
                    "set_policy",
                    vec![
                        format!("sk{key}").into_bytes(),
                        SBE_POLICIES[*policy].as_bytes().to_vec(),
                    ],
                    endorsers,
                    i as u64,
                    &mut pkgs,
                ),
                TxSpec::Tampered { key } => {
                    let mut tx = build_tx(
                        net,
                        PDC_NS,
                        "write",
                        vec![
                            format!("bk{key}").into_bytes(),
                            format!("{}", 100 + i).into_bytes(),
                        ],
                        &[0, 1],
                        i as u64,
                        &mut pkgs,
                    );
                    tx.payload.response.payload = b"tampered".to_vec();
                    tx
                }
                TxSpec::DuplicateOf(j) => match all.get(j % total.max(1)) {
                    Some(tx) => tx.clone(),
                    // No earlier transaction to copy: degrade to a valid write.
                    None => build_tx(
                        net,
                        PDC_NS,
                        "write",
                        vec![
                            format!("bk{i}").into_bytes(),
                            format!("{}", 100 + i).into_bytes(),
                        ],
                        &[0, 1],
                        i as u64,
                        &mut pkgs,
                    ),
                },
            };
            all.push(tx.clone());
            txs.push(tx);
        }
        let block = Block::new(number, prev, txs);
        prev = block.hash();
        stream.push(block);
    }
    (stream, pkgs)
}

/// Builds the single block described by `specs` (see [`build_stream`]).
fn build_block(
    net: &mut FabricNetwork,
    specs: &[TxSpec],
) -> (Block, HashMap<TxId, PvtDataPackage>) {
    let (mut stream, pkgs) = build_stream(net, std::slice::from_ref(&specs.to_vec()));
    (stream.pop().expect("one block"), pkgs)
}

/// Runs the block through the reference validator and through
/// `process_block`, asserting identical outcomes, world-state digests,
/// history indexes and chain tips.
fn assert_equivalent(net: &FabricNetwork, block: &Block, pkgs: &HashMap<TxId, PvtDataPackage>) {
    assert_stream_equivalent(net, std::slice::from_ref(block), pkgs);
}

/// Commits the whole stream through the reference loop and, twice, through
/// the `process_block` loop, asserting identical concatenated outcomes,
/// final world-state digests, history indexes and chain tips, and that the
/// two runs of the shipped path emit the same audit-event sequence.
///
/// The reference commits a cold, owned copy of each block
/// (`Transaction::clone` starts with empty memos); the two shipped runs
/// share each block's storage and its warm digests, as two peers of one
/// network do. A memo that outlived the fields it was computed from would
/// make the two sides disagree.
fn assert_stream_equivalent(
    net: &FabricNetwork,
    blocks: &[Block],
    pkgs: &HashMap<TxId, PvtDataPackage>,
) -> Vec<BlockCommitOutcome> {
    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);

    let mut reference = ReferencePeer::from(net.peer("peer0.org2"));
    let mut ref_outcomes = Vec::with_capacity(blocks.len());
    for b in blocks {
        let cold = Block {
            header: b.header.clone(),
            transactions: b.transactions.to_vec().into(),
            metadata: b.metadata.clone(),
        };
        ref_outcomes.push(
            reference
                .process_block(cold, &mut provider)
                .expect("reference: stream chains"),
        );
    }

    let mut audit_sequences = Vec::with_capacity(2);
    for _run in 0..2 {
        let mut peer = net.peer("peer0.org2").clone();
        let telemetry = Telemetry::new();
        peer.set_telemetry(telemetry.clone());
        let outcomes: Vec<BlockCommitOutcome> = blocks
            .iter()
            .map(|b| {
                peer.process_block(b.clone(), &mut provider)
                    .expect("pipeline: stream chains")
            })
            .collect();
        assert_eq!(outcomes, ref_outcomes, "stream outcomes diverged");
        assert_eq!(
            peer.world_state().digest(),
            reference.world_state.digest(),
            "world state diverged"
        );
        assert_eq!(peer.history(), &reference.history, "history diverged");
        assert_eq!(
            peer.block_store().tip_hash(),
            reference.block_store.tip_hash(),
            "chain tip diverged"
        );
        audit_sequences.push(telemetry.audit().events());
    }
    assert_eq!(
        audit_sequences[0], audit_sequences[1],
        "two runs of one stream audited differently"
    );
    ref_outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed blocks under every defense configuration: the
    /// pipeline is an observationally pure optimization of the reference
    /// validator.
    #[test]
    fn pipeline_matches_reference_on_random_blocks(
        specs in proptest::collection::vec(arb_spec(), 1..14),
        seed in 0u64..1_000,
        defense in 0..DEFENSES.len(),
    ) {
        let mut net = equivalence_network(10_000 + seed, DEFENSES[defense]());
        let (block, pkgs) = build_block(&mut net, &specs);
        assert_equivalent(&net, &block, &pkgs);
    }
}

/// Deterministic regression for the dirty-key path: a `set_policy` early
/// in the block changes which endorser sets later writes to the same key
/// need, and both validators agree on the resulting codes.
#[test]
fn mid_block_policy_change_governs_later_writes() {
    let mut net = equivalence_network(42, DefenseConfig::original());
    let specs = [
        // sk1 created under the chaincode MAJORITY policy.
        TxSpec::SbePut {
            key: 1,
            endorsers: vec![0, 1],
        },
        // Mid-block: pin sk1 to OR(org3).
        TxSpec::SbeSetPolicy {
            key: 1,
            policy: 2,
            endorsers: vec![0, 1],
        },
        // org1+org2 satisfy MAJORITY but fail the in-block parameter.
        TxSpec::SbePut {
            key: 1,
            endorsers: vec![0, 1],
        },
        // org3 alone fails MAJORITY but satisfies OR(org3); key-level
        // parameters replace the chaincode policy for writes.
        TxSpec::SbePut {
            key: 1,
            endorsers: vec![2],
        },
    ];
    let (block, pkgs) = build_block(&mut net, &specs);
    assert_equivalent(&net, &block, &pkgs);

    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);
    let mut peer = net.peer("peer0.org2").clone();
    let outcome = peer.process_block(block, &mut provider).expect("chains");
    assert_eq!(
        outcome.validation_codes,
        vec![
            TxValidationCode::Valid,
            TxValidationCode::Valid,
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::Valid,
        ]
    );
}

/// A valid write, an under-endorsed write, a tampered write and an
/// in-block duplicate of the first: both validators agree on every code.
#[test]
fn reference_and_pipeline_agree_on_a_mixed_block() {
    let mut net = equivalence_network(69, DefenseConfig::original());
    let specs = [
        TxSpec::PdcWrite {
            key: 1,
            endorsers: vec![0, 1],
        },
        TxSpec::PdcWrite {
            key: 2,
            endorsers: vec![0],
        },
        TxSpec::Tampered { key: 3 },
        TxSpec::DuplicateOf(0),
    ];
    let (block, pkgs) = build_block(&mut net, &specs);
    let outcome = assert_stream_equivalent(&net, std::slice::from_ref(&block), &pkgs);
    assert_eq!(
        outcome[0].validation_codes,
        vec![
            TxValidationCode::Valid,
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::InvalidClientSignature,
            TxValidationCode::DuplicateTxId,
        ]
    );
}

/// The defense branches are reached: a PDC read-only probe endorsed with
/// a non-member passes the original framework, fails the collection
/// policy under Feature 1, and fails the non-member filter once the
/// collection policy is satisfied; both validators agree under each.
#[test]
fn defense_branches_match_reference() {
    let cases = [
        (
            DefenseConfig::original(),
            vec![0, 2],
            TxValidationCode::Valid,
        ),
        (
            DefenseConfig::feature1(),
            vec![0, 2],
            TxValidationCode::EndorsementPolicyFailure,
        ),
        (
            DefenseConfig::hardened(),
            vec![0, 1, 2],
            TxValidationCode::NonMemberEndorsement,
        ),
    ];
    for (defense, endorsers, expected) in cases {
        let mut net = equivalence_network(70, defense);
        let (block, pkgs) = build_block(&mut net, &[TxSpec::PdcProbe { endorsers }]);
        let outcome = assert_stream_equivalent(&net, std::slice::from_ref(&block), &pkgs);
        assert_eq!(outcome[0].validation_codes, vec![expected], "{defense:?}");
    }
}

/// An adversarial block — a mid-block SBE parameter flip followed by a
/// now-under-endorsed write, a tampered plaintext PDC write, and a
/// duplicated transaction — must audit identically on every run (checked
/// by `assert_equivalent`), and the sequence itself is deterministic:
/// events appear in block order with the re-check and plaintext signals
/// exactly once each.
#[test]
fn adversarial_block_audits_deterministically() {
    let mut net = equivalence_network(77, DefenseConfig::original());
    let specs = [
        TxSpec::SbePut {
            key: 2,
            endorsers: vec![0, 1],
        },
        // Pin sk2 to OR(org3): the next write is re-checked and fails.
        TxSpec::SbeSetPolicy {
            key: 2,
            policy: 2,
            endorsers: vec![0, 1],
        },
        TxSpec::SbePut {
            key: 2,
            endorsers: vec![0, 1],
        },
        // Well-endorsed PDC write with a corrupted (plaintext, non-empty)
        // response payload: rejected, but the Use Case 3 signal fires.
        TxSpec::Tampered { key: 1 },
        TxSpec::DuplicateOf(0),
    ];
    let (block, pkgs) = build_block(&mut net, &specs);
    assert_equivalent(&net, &block, &pkgs);

    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);
    let mut peer = net.peer("peer0.org2").clone();
    let telemetry = Telemetry::new();
    peer.set_telemetry(telemetry.clone());
    peer.process_block(block.clone(), &mut provider)
        .expect("chains");

    let events = telemetry.audit().events();
    let rechecks: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, AuditEvent::SbeReCheck { .. }))
        .collect();
    assert_eq!(
        rechecks.len(),
        1,
        "exactly one dirty-key re-check: {events:?}"
    );
    assert!(
        matches!(
            rechecks[0],
            AuditEvent::SbeReCheck {
                tx_id,
                outcome: TxValidationCode::EndorsementPolicyFailure,
                ..
            } if *tx_id == block.transactions[2].tx_id
        ),
        "re-check audits the under-endorsed write: {:?}",
        rechecks[0]
    );
    let plaintexts: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, AuditEvent::PlaintextPayloadInTx { .. }))
        .collect();
    assert_eq!(
        plaintexts.len(),
        1,
        "exactly one plaintext payload: {events:?}"
    );
    assert!(
        matches!(
            plaintexts[0],
            AuditEvent::PlaintextPayloadInTx { tx_id, .. }
                if *tx_id == block.transactions[3].tx_id
        ),
        "plaintext signal names the tampered transaction: {:?}",
        plaintexts[0]
    );
    // Block order: the tx-2 re-check precedes the tx-3 plaintext signal.
    let recheck_pos = events
        .iter()
        .position(|e| matches!(e, AuditEvent::SbeReCheck { .. }))
        .unwrap();
    let plaintext_pos = events
        .iter()
        .position(|e| matches!(e, AuditEvent::PlaintextPayloadInTx { .. }))
        .unwrap();
    assert!(recheck_pos < plaintext_pos, "events out of block order");
}

/// Pins the whole audit sequence of a block that exercises every check,
/// with the non-member filter as the only defense: a probe endorsed by a
/// non-member, a valid write, a read-modify-write that conflicts with it,
/// an SBE parameter flip that the next write fails, a tampered write and
/// an in-block duplicate. Each transaction's events come in one run, in
/// block order.
#[test]
fn every_check_audits_in_block_order() {
    let defense = DefenseConfig {
        filter_non_member_endorsers: true,
        ..DefenseConfig::original()
    };
    let mut net = equivalence_network(78, defense);
    let specs = [
        TxSpec::PdcProbe {
            endorsers: vec![0, 2],
        },
        TxSpec::PdcWrite {
            key: 0,
            endorsers: vec![0, 1],
        },
        TxSpec::PdcAdd {
            endorsers: vec![0, 1],
        },
        TxSpec::SbePut {
            key: 2,
            endorsers: vec![0, 1],
        },
        TxSpec::SbeSetPolicy {
            key: 2,
            policy: 2,
            endorsers: vec![0, 1],
        },
        TxSpec::SbePut {
            key: 2,
            endorsers: vec![0, 1],
        },
        TxSpec::Tampered { key: 1 },
        TxSpec::DuplicateOf(1),
    ];
    let (block, pkgs) = build_block(&mut net, &specs);
    let outcome = assert_stream_equivalent(&net, std::slice::from_ref(&block), &pkgs);
    assert_eq!(
        outcome[0].validation_codes,
        vec![
            TxValidationCode::NonMemberEndorsement,
            TxValidationCode::Valid,
            TxValidationCode::MvccReadConflict,
            TxValidationCode::Valid,
            TxValidationCode::Valid,
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::InvalidClientSignature,
            TxValidationCode::DuplicateTxId,
        ]
    );

    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);
    let mut peer = net.peer("peer0.org2").clone();
    let telemetry = Telemetry::new();
    peer.set_telemetry(telemetry.clone());
    peer.process_block(block.clone(), &mut provider)
        .expect("chains");
    let position = |tx_id: &TxId| {
        block
            .transactions
            .iter()
            .position(|tx| tx.tx_id == *tx_id)
            .expect("an event names a transaction of the block")
    };
    let sequence: Vec<(&str, usize)> = telemetry
        .audit()
        .events()
        .iter()
        .map(|e| (e.kind(), position(e.tx_id())))
        .collect();
    assert_eq!(
        sequence,
        vec![
            ("endorsement_by_non_member", 0),
            ("plaintext_payload_in_tx", 0),
            ("defense_rejected", 0),
            ("plaintext_payload_in_tx", 2),
            ("mvcc_conflict", 2),
            ("sbe_re_check", 5),
            ("plaintext_payload_in_tx", 6),
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-block streams under every defense configuration: the
    /// `process_block` loop is an observationally pure optimization of
    /// the reference loop, even with duplicates, SBE mutations, and
    /// read-modify-writes whose hazards span the boundary between
    /// consecutive blocks.
    #[test]
    fn streams_match_reference_on_random_blocks(
        blocks_specs in proptest::collection::vec(
            proptest::collection::vec(arb_spec(), 1..6),
            2..4,
        ),
        seed in 0u64..1_000,
        defense in 0..DEFENSES.len(),
    ) {
        let mut net = equivalence_network(20_000 + seed, DEFENSES[defense]());
        let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
        assert_stream_equivalent(&net, &blocks, &pkgs);
    }
}

/// Directed cross-block MVCC hazard: block N writes `bk0`, and block
/// N+1 carries a read-modify-write of `bk0` endorsed against the
/// pre-stream version: the MVCC check of block N+1 must run against the
/// post-block-N state to catch the conflict.
#[test]
fn cross_block_mvcc_conflict_straddles_pipeline_boundary() {
    let mut net = equivalence_network(55, DefenseConfig::original());
    let blocks_specs = vec![
        vec![TxSpec::PdcWrite {
            key: 0,
            endorsers: vec![0, 1],
        }],
        vec![
            TxSpec::PdcAdd {
                endorsers: vec![0, 1],
            },
            TxSpec::PdcWrite {
                key: 1,
                endorsers: vec![0, 1],
            },
        ],
    ];
    let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
    let outcomes = assert_stream_equivalent(&net, &blocks, &pkgs);
    assert_eq!(outcomes[0].validation_codes, vec![TxValidationCode::Valid]);
    assert_eq!(
        outcomes[1].validation_codes,
        vec![TxValidationCode::MvccReadConflict, TxValidationCode::Valid],
        "the stale read-modify-write conflicts; the fresh-key write lands"
    );
}

/// Directed in-block MVCC hazard for completeness: the write and the
/// stale read-modify-write share one block, so the conflict arises from
/// the block's own in-block version bump.
#[test]
fn in_block_mvcc_conflict_matches_reference() {
    let mut net = equivalence_network(56, DefenseConfig::original());
    let blocks_specs = vec![vec![
        TxSpec::PdcWrite {
            key: 0,
            endorsers: vec![0, 1],
        },
        TxSpec::PdcAdd {
            endorsers: vec![0, 1],
        },
    ]];
    let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
    let outcomes = assert_stream_equivalent(&net, &blocks, &pkgs);
    assert_eq!(
        outcomes[0].validation_codes,
        vec![TxValidationCode::Valid, TxValidationCode::MvccReadConflict]
    );
}

/// Directed cross-block SBE mutation: block N pins `sk1` to OR(org3),
/// so a block-N+1 write endorsed by org1+org2 — fine under the chaincode
/// MAJORITY policy — must fail the policy check against the freshly
/// committed parameter, while an org3 endorsement passes it.
#[test]
fn cross_block_sbe_mutation_governs_next_block() {
    let mut net = equivalence_network(66, DefenseConfig::original());
    let blocks_specs = vec![
        vec![
            TxSpec::SbePut {
                key: 1,
                endorsers: vec![0, 1],
            },
            TxSpec::SbeSetPolicy {
                key: 1,
                policy: 2,
                endorsers: vec![0, 1],
            },
        ],
        vec![
            TxSpec::SbePut {
                key: 1,
                endorsers: vec![0, 1],
            },
            TxSpec::SbePut {
                key: 1,
                endorsers: vec![2],
            },
        ],
    ];
    let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
    let outcomes = assert_stream_equivalent(&net, &blocks, &pkgs);
    assert_eq!(
        outcomes[0].validation_codes,
        vec![TxValidationCode::Valid, TxValidationCode::Valid]
    );
    assert_eq!(
        outcomes[1].validation_codes,
        vec![
            TxValidationCode::EndorsementPolicyFailure,
            TxValidationCode::Valid,
        ],
        "the committed parameter from the previous block governs"
    );
}

/// Cross-block duplicate: a byte-for-byte copy of a block-N transaction
/// in block N+1 is caught by the committed-duplicate check against the
/// block store as block N left it.
#[test]
fn cross_block_duplicate_is_rejected_as_committed() {
    let mut net = equivalence_network(67, DefenseConfig::original());
    let blocks_specs = vec![
        vec![TxSpec::PdcWrite {
            key: 2,
            endorsers: vec![0, 1],
        }],
        // DuplicateOf indexes the global transaction list: 0 is the
        // block-0 write.
        vec![
            TxSpec::DuplicateOf(0),
            TxSpec::PdcWrite {
                key: 3,
                endorsers: vec![0, 1],
            },
        ],
    ];
    let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
    let outcomes = assert_stream_equivalent(&net, &blocks, &pkgs);
    assert_eq!(outcomes[0].validation_codes, vec![TxValidationCode::Valid]);
    assert_eq!(
        outcomes[1].validation_codes,
        vec![TxValidationCode::DuplicateTxId, TxValidationCode::Valid]
    );
}

/// Every block contributes exactly one observation to the per-block
/// commit histogram.
#[test]
fn block_histogram_counts_once_per_block() {
    let mut net = equivalence_network(92, DefenseConfig::original());
    let specs = vec![
        vec![TxSpec::PdcWrite {
            key: 1,
            endorsers: vec![0, 1],
        }],
        vec![TxSpec::SbePut {
            key: 1,
            endorsers: vec![0, 1],
        }],
        vec![TxSpec::PdcWrite {
            key: 2,
            endorsers: vec![0, 1],
        }],
    ];
    let (blocks, pkgs) = build_stream(&mut net, &specs);
    let mut peer = net.peer("peer0.org2").clone();
    let telemetry = Telemetry::new();
    peer.set_telemetry(telemetry.clone());
    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);
    for b in &blocks {
        peer.process_block(b.clone(), &mut provider)
            .expect("block chains");
    }
    let count = telemetry
        .metrics()
        .find_histogram("fabric_commit_block_seconds", &[])
        .map(|h| h.count())
        .unwrap_or(0);
    assert_eq!(count, blocks.len() as u64, "one observation per block");
}

/// Commits `blocks` on a fresh clone of `peer0.org2` with a monitor
/// watching the peer's telemetry, then drives
/// `ticks` post-commit monitor ticks (the first drains every audit event;
/// the quiet remainder ages the detector windows out so firing alerts
/// resolve). Returns the full alert-transition log.
fn monitored_commit_transitions(
    net: &FabricNetwork,
    blocks: &[Block],
    pkgs: &HashMap<TxId, PvtDataPackage>,
    ticks: u32,
) -> Vec<AlertTransition> {
    let mut provider = |tx_id: &TxId| pkgs.get(tx_id).cloned().map(Arc::new);
    let mut peer = net.peer("peer0.org2").clone();
    let telemetry = Telemetry::new();
    peer.set_telemetry(telemetry.clone());
    let monitor = Monitor::with_config(
        &telemetry,
        MonitorConfig {
            resolve_ticks: 4,
            ..MonitorConfig::default()
        },
    );
    for b in blocks {
        peer.process_block(b.clone(), &mut provider)
            .expect("pipeline: stream chains");
    }
    for _ in 0..ticks {
        monitor.observe_tick(&[]);
    }
    monitor.transitions()
}

/// Directed alert lifecycle: a tampered plaintext PDC write fires the
/// Use Case 3 alert, and once the burst ages out of the detector window
/// the alert resolves — with a transition log that is byte-identical
/// on a second run.
#[test]
fn tampered_stream_alert_fires_and_resolves_identically() {
    use fabric_pdc::monitor::UC3_RULE;

    let mut net = equivalence_network(93, DefenseConfig::original());
    let blocks_specs = vec![
        vec![
            TxSpec::Tampered { key: 1 },
            TxSpec::PdcWrite {
                key: 2,
                endorsers: vec![0, 1],
            },
        ],
        vec![TxSpec::SbePut {
            key: 0,
            endorsers: vec![0, 1],
        }],
    ];
    let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);

    let log = monitored_commit_transitions(&net, &blocks, &pkgs, 80);
    assert_eq!(
        log,
        monitored_commit_transitions(&net, &blocks, &pkgs, 80),
        "two runs of one stream logged different alert transitions"
    );
    let phases: Vec<AlertPhase> = log
        .iter()
        .filter(|t| t.rule == UC3_RULE)
        .map(|t| t.to)
        .collect();
    assert_eq!(
        phases,
        vec![AlertPhase::Firing, AlertPhase::Resolved],
        "the plaintext-payload alert must run the full lifecycle: {log:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Alert determinism: the monitor's full transition log — pending,
    /// firing, resolved — is a pure function of the committed stream.
    /// Two independent runs of one random multi-block stream must yield
    /// byte-identical logs.
    #[test]
    fn alert_log_is_deterministic_across_schedulers(
        blocks_specs in proptest::collection::vec(
            proptest::collection::vec(arb_spec(), 1..6),
            2..4,
        ),
        seed in 0u64..1_000,
    ) {
        let mut net = equivalence_network(30_000 + seed, DefenseConfig::original());
        let (blocks, pkgs) = build_stream(&mut net, &blocks_specs);
        prop_assert_eq!(
            monitored_commit_transitions(&net, &blocks, &pkgs, 80),
            monitored_commit_transitions(&net, &blocks, &pkgs, 80),
            "two runs of one stream logged different alert transitions"
        );
    }
}

/// Endorses, assembles, and submits one spec'd transaction through the
/// *live* network: private data disseminates through the gossip layer,
/// and the ordering service cuts the block. `all` records every
/// assembled transaction so a later [`TxSpec::DuplicateOf`] can resubmit
/// one byte-for-byte.
fn submit_live(net: &mut FabricNetwork, spec: &TxSpec, i: u64, all: &mut Vec<Transaction>) {
    let (ns, function, args, endorsers): (&str, &str, Vec<Vec<u8>>, Vec<usize>) = match spec {
        TxSpec::PdcWrite { key, endorsers } => (
            PDC_NS,
            "write",
            vec![
                format!("bk{key}").into_bytes(),
                format!("{}", 100 + i).into_bytes(),
            ],
            endorsers.clone(),
        ),
        TxSpec::PdcAdd { endorsers } => (
            PDC_NS,
            "add",
            vec![b"bk0".to_vec(), b"1".to_vec()],
            endorsers.clone(),
        ),
        TxSpec::PdcProbe { endorsers } => {
            (PROBE_NS, "exists", vec![b"bk0".to_vec()], endorsers.clone())
        }
        TxSpec::SbePut { key, endorsers } => (
            SBE_NS,
            "put",
            vec![
                format!("sk{key}").into_bytes(),
                format!("v{i}").into_bytes(),
            ],
            endorsers.clone(),
        ),
        TxSpec::SbeSetPolicy {
            key,
            policy,
            endorsers,
        } => (
            SBE_NS,
            "set_policy",
            vec![
                format!("sk{key}").into_bytes(),
                SBE_POLICIES[*policy].as_bytes().to_vec(),
            ],
            endorsers.clone(),
        ),
        TxSpec::Tampered { key } => (
            PDC_NS,
            "write",
            vec![
                format!("bk{key}").into_bytes(),
                format!("{}", 100 + i).into_bytes(),
            ],
            vec![0, 1],
        ),
        TxSpec::DuplicateOf(j) => {
            if let Some(tx) = all.get(*j % all.len().max(1)).cloned() {
                net.submit(tx.clone());
                all.push(tx);
                return;
            }
            // No earlier transaction to copy: degrade to a valid write.
            (
                PDC_NS,
                "write",
                vec![
                    format!("bk{i}").into_bytes(),
                    format!("{}", 100 + i).into_bytes(),
                ],
                vec![0, 1],
            )
        }
    };
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(7_900_000 + i),
        DefenseConfig::original(),
    );
    let proposal = client.create_proposal(
        net.channel().clone(),
        ChaincodeId::new(ns),
        function,
        args,
        Default::default(),
    );
    let responses: Vec<_> = endorsers
        .iter()
        .map(|&e| net.endorse(PEERS[e], &proposal).expect("live endorse"))
        .collect();
    let (mut tx, _) = client
        .assemble_transaction(&proposal, &responses)
        .expect("assemble");
    if matches!(spec, TxSpec::Tampered { .. }) {
        tx.payload.response.payload = b"tampered".to_vec();
    }
    net.submit(tx.clone());
    all.push(tx);
}

/// Drives a randomized stream through the **full** network — endorse,
/// gossip dissemination, Raft ordering, block fan-out to five peers (two
/// of which never endorse anything), validation, commit, transient-store
/// purge — and asserts the peers converged: every peer committed every
/// block and holds the same chain tip, and peers of one org hold the same
/// world state.
fn live_run(seed: u64, blocks_specs: &[Vec<TxSpec>]) {
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(seed)
        .batch(BatchConfig {
            max_message_count: 64,
            batch_timeout_ticks: 2,
        })
        .build();
    deploy_chaincodes(&mut net);
    net.add_peer("Org1MSP");
    net.add_peer("Org2MSP");
    // Seed bk0 and sk0 exactly as `equivalence_network` does, so the
    // generated specs exercise committed state as well as in-block state.
    for (ns, function, args) in [
        (PDC_NS, "write", vec!["bk0", "12"]),
        (SBE_NS, "put", vec!["sk0", "seeded"]),
        (
            SBE_NS,
            "set_policy",
            vec!["sk0", "AND('Org1MSP.peer','Org2MSP.peer')"],
        ),
    ] {
        let outcome = net
            .submit_transaction(
                "client0.org1",
                ns,
                function,
                &args,
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .expect("seed tx");
        assert!(outcome.validation_code.is_valid(), "seed {function}");
    }
    let names = net.peer_names();
    let start = net.peer(&names[0]).block_store().height();
    let mut all = Vec::new();
    let mut i = 0u64;
    for specs in blocks_specs {
        for spec in specs {
            submit_live(&mut net, spec, i, &mut all);
            i += 1;
        }
        // Long enough for the batch timeout to cut this block before the
        // next block's transactions arrive.
        net.advance(24);
    }
    net.advance(50);
    let expected = start + blocks_specs.len() as u64;
    let first = net.peer(&names[0]);
    for name in &names {
        let peer = net.peer(name);
        let store = peer.block_store();
        assert_eq!(
            store.height(),
            expected,
            "{name} did not commit every block"
        );
        assert_eq!(
            store.tip_hash(),
            first.block_store().tip_hash(),
            "{name} diverged from {}'s chain",
            names[0]
        );
        let same_org = names
            .iter()
            .map(|n| net.peer(n))
            .find(|p| p.org() == peer.org())
            .expect("the peer itself");
        assert_eq!(
            peer.world_state().digest(),
            same_org.world_state().digest(),
            "{name} diverged from its org's first peer"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Live delivery converges: a randomized stream driven through a
    /// five-peer network, every block handed to all peers as clones of one
    /// shared storage, leaves every peer at the same height and chain tip
    /// and same-org peers with the same world-state digest.
    #[test]
    fn live_peers_converge_on_random_streams(
        blocks_specs in proptest::collection::vec(
            proptest::collection::vec(arb_spec(), 1..5),
            1..3,
        ),
        seed in 0u64..1_000,
    ) {
        live_run(40_000 + seed, &blocks_specs);
    }
}
