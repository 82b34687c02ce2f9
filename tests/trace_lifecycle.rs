//! Trace continuity: every committed transaction must be resolvable from
//! its tx ID to a complete cross-node lifecycle timeline — client,
//! endorsing peers, orderer, Raft, and every committing peer — and two
//! runs of one seeded workload must agree on the trace's shape and on the
//! audit trail the validating peers emit.

use fabric_pdc::prelude::*;
use std::sync::Arc;

const ORGS: [&str; 3] = ["Org1MSP", "Org2MSP", "Org3MSP"];

fn traced_network(seed: u64) -> (FabricNetwork, Telemetry) {
    let telemetry = Telemetry::new();
    let mut net = NetworkBuilder::new("ch1")
        .orgs(&ORGS)
        .seed(seed)
        .with_telemetry(telemetry.clone())
        .build();
    net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
    (net, telemetry)
}

fn assert_metric_families(telemetry: &Telemetry, families: &[&str]) {
    let samples = telemetry.metrics().samples();
    for family in families {
        assert!(
            samples.iter().any(|s| s.name == *family),
            "metric family {family} is not in the registry"
        );
    }
}

/// Submits `count` asset creations and returns their tx IDs.
fn run_workload(net: &mut FabricNetwork, count: usize) -> Vec<TxId> {
    (0..count)
        .map(|i| {
            let asset = format!("a{i}");
            let outcome = net
                .submit_transaction(
                    "client0.org1",
                    "assets",
                    "CreateAsset",
                    &[&asset, "red", "alice", "100"],
                    &[],
                    &["peer0.org1", "peer0.org2"],
                )
                .expect("commit");
            assert!(outcome.validation_code.is_valid());
            outcome.tx_id
        })
        .collect()
}

/// Every committed transaction resolves — from its tx ID alone — to a
/// complete five-phase timeline whose spans cover the client, both
/// endorsing peers, the orderer, Raft, and all three committing peers.
#[test]
fn committed_transactions_have_complete_cross_node_timelines() {
    let (mut net, telemetry) = traced_network(21);
    let tx_ids = run_workload(&mut net, 3);
    let records = telemetry.trace().records();

    for tx_id in &tx_ids {
        let timeline = TxTimeline::collect(&records, tx_id.as_str());
        assert!(
            timeline.complete(),
            "tx {tx_id} missing phases: {:?}",
            timeline.phases()
        );
        assert_eq!(
            timeline.trace_id,
            trace_id(tx_id.as_str()),
            "trace id must derive from the tx id"
        );
        let nodes = timeline.nodes();
        assert!(nodes.contains(&"client0.org1"), "client span: {nodes:?}");
        for peer in ["peer0.org1", "peer0.org2", "peer0.org3"] {
            assert!(nodes.contains(&peer), "{peer} span: {nodes:?}");
        }
        assert!(nodes.contains(&"orderer"), "orderer span: {nodes:?}");
        assert!(
            nodes.iter().any(|n| n.starts_with("raft")),
            "raft span: {nodes:?}"
        );
        // Two endorsing peers, three committing peers.
        let endorse_spans = records
            .iter()
            .filter(|r| r.trace_id == timeline.trace_id && r.name == "peer.endorse")
            .count();
        assert_eq!(endorse_spans, 2, "one endorse span per endorsing peer");
        for name in ["peer.validate", "peer.commit"] {
            let spans = records
                .iter()
                .filter(|r| r.trace_id == timeline.trace_id && r.name == name)
                .count();
            assert_eq!(spans, 3, "one {name} span per committing peer");
        }
    }

    // The metric families dashboards scrape by name: a run to commit
    // registers these six (the seventh, `fabric_audit_events_total`, appears
    // with the first audit event; see `mvcc_conflict_audit_trail`).
    assert_metric_families(
        &telemetry,
        &[
            "fabric_commit_block_seconds",
            "fabric_validation_results_total",
            "fabric_blocks_committed_total",
            "fabric_txs_processed_total",
            "fabric_committed_block_height",
            "fabric_endorsements_total",
        ],
    );
}

/// Trace identity is a function of the seed: two runs of the same seeded
/// workload yield the same tx IDs, the same trace IDs, and the same set
/// of traced span names.
#[test]
fn trace_identity_is_parallelism_invariant() {
    let mut shapes = Vec::new();
    for _run in 0..2 {
        let (mut net, telemetry) = traced_network(22);
        let tx_ids = run_workload(&mut net, 2);
        let records = telemetry.trace().records();
        let shape: Vec<(TxId, u64, Vec<String>)> = tx_ids
            .into_iter()
            .map(|tx_id| {
                let timeline = TxTimeline::collect(&records, tx_id.as_str());
                let mut names: Vec<String> = records
                    .iter()
                    .filter(|r| r.trace_id == timeline.trace_id)
                    .map(|r| format!("{}@{}", r.name, r.node))
                    .collect();
                names.sort();
                (tx_id, timeline.trace_id, names)
            })
            .collect();
        shapes.push(shape);
    }
    assert_eq!(
        shapes[0], shapes[1],
        "trace shape differs between two runs of one seed"
    );
}

/// Builds a block with an MVCC conflict (two transfers of the same asset
/// in one block), commits it, and returns the pipeline's audit trail as
/// `(kind, tx_id)` pairs.
fn mvcc_conflict_audit_trail() -> Vec<(&'static str, TxId)> {
    let (mut net, telemetry) = traced_network(23);
    run_workload(&mut net, 1); // commits asset a0

    // Endorse two conflicting transfers against the same committed state,
    // then submit both before advancing: they land in one block and the
    // second must fail MVCC validation, which every committing peer
    // audits.
    let channel = net.channel().clone();
    let mut txs = Vec::new();
    for owner in ["bob", "carol"] {
        let proposal = net.client_mut("client0.org1").create_proposal(
            channel.clone(),
            ChaincodeId::new("assets"),
            "TransferAsset",
            vec![b"a0".to_vec(), owner.as_bytes().to_vec()],
            Default::default(),
        );
        let responses = vec![
            net.endorse("peer0.org1", &proposal).expect("endorse"),
            net.endorse("peer0.org2", &proposal).expect("endorse"),
        ];
        let (tx, _) = net
            .client_mut("client0.org1")
            .assemble_transaction(&proposal, &responses)
            .expect("assemble");
        txs.push(tx);
    }
    let tx_ids: Vec<TxId> = txs.iter().map(|tx| tx.tx_id.clone()).collect();
    for tx in txs {
        net.submit(tx);
    }
    net.advance(20);
    assert_eq!(
        net.transaction_status(&tx_ids[0]),
        Some(TxValidationCode::Valid)
    );
    assert_eq!(
        net.transaction_status(&tx_ids[1]),
        Some(TxValidationCode::MvccReadConflict)
    );

    assert_metric_families(&telemetry, &["fabric_audit_events_total"]);

    let trail: Vec<(&'static str, TxId)> = telemetry
        .audit()
        .events()
        .iter()
        .map(|e| (e.kind(), e.tx_id().clone()))
        .collect();
    assert!(
        trail.contains(&("mvcc_conflict", tx_ids[1].clone())),
        "the losing transfer's MVCC conflict is not audited: {trail:?}"
    );
    trail
}

/// The audit trail is evidence; it must be the same on every run of the
/// same traffic.
#[test]
fn audit_trail_is_identical_across_runs() {
    assert_eq!(
        mvcc_conflict_audit_trail(),
        mvcc_conflict_audit_trail(),
        "audit evidence differs between two runs"
    );
}
