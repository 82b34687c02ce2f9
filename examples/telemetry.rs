//! Observability end-to-end: one shared [`Telemetry`] pipeline attached to
//! a whole network, driven through the secured-trade workflow, then dumped
//! as a Prometheus text exposition, one line per span, and the
//! security-audit event log.
//!
//! Run with `cargo run -p fabric-pdc --example telemetry`.

use fabric_pdc::prelude::*;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // One telemetry pipeline; every peer and the orderer report into it.
    let telemetry = Telemetry::new();
    let mut net = NetworkBuilder::new("trade-channel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(4)
        .with_telemetry(telemetry.clone())
        .build();

    let definition = ChaincodeDefinition::new("trade")
        .with_endorsement_policy("ANY Endorsement")
        .with_collection(
            CollectionConfig::membership_of("sellerCollection", &[OrgId::new("Org1MSP")])
                .with_endorsement_policy("OR('Org1MSP.peer')"),
        );
    net.deploy_chaincode(definition, Arc::new(SecuredTrade::new("sellerCollection")));

    // The secured-trade workflow: the seller offers assets (appraisals
    // travel in the transient map), the buyer verifies one claim against
    // the on-chain hash at its own peer.
    for (asset, appraisal) in [
        ("asset1", "appraised-at-9500-USD"),
        ("asset2", "appraised-at-120-USD"),
        ("asset3", "appraised-at-88000-USD"),
    ] {
        let outcome = net.submit_transaction(
            "client0.org1",
            "trade",
            "offer",
            &[asset],
            &[("appraisal", appraisal.as_bytes())],
            &["peer0.org1"],
        )?;
        assert!(outcome.validation_code.is_valid());
    }
    let mut buyer = Client::new(
        "Org2MSP",
        Keypair::generate_from_seed(77),
        DefenseConfig::original(),
    );
    let proposal = buyer.create_proposal(
        net.channel().clone(),
        ChaincodeId::new("trade"),
        "verify",
        vec![b"asset1".to_vec()],
        [("claimed".to_string(), b"appraised-at-9500-USD".to_vec())]
            .into_iter()
            .collect(),
    );
    net.endorse("peer0.org2", &proposal)?;

    // 1. Metrics, Prometheus text exposition format.
    println!("== metrics (Prometheus text format) ==");
    print!("{}", telemetry.metrics().render_prometheus());

    // 2. Spans, one line each in completion order. They are flat: the
    //    spans of one transaction share its trace id, which is how the
    //    `trace_tx` example collects a timeline (and exports the same
    //    spans as Chrome-trace/Perfetto JSON).
    println!("\n== spans ==");
    for span in telemetry.trace().records() {
        println!("{span}");
    }

    // 3. Security-audit events. The workflow ran with the original (no
    //    defenses) configuration, so the offers' public response payloads
    //    committed in plaintext — exactly the paper's Use Case 3 signal.
    println!("\n== security-audit events ==");
    for event in telemetry.audit().events() {
        println!("{event}");
    }
    println!(
        "\n{} spans, {} audit events",
        telemetry.trace().len(),
        telemetry.audit().len()
    );
    Ok(())
}
