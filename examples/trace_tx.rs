//! End-to-end transaction tracing: one secured-trade transaction followed
//! across every node it touches. The client, both endorsing peers, the
//! ordering service, the Raft substrate, and every committing peer all
//! report spans into one shared [`Telemetry`] pipeline; because trace IDs
//! derive deterministically from the transaction ID, the whole journey is
//! resolvable afterwards from the tx ID alone.
//!
//! Prints the per-transaction lifecycle timeline (endorse → order →
//! replicate → validate → commit), then exports all spans as a
//! Chrome-trace/Perfetto JSON document (paste into `ui.perfetto.dev` or
//! `chrome://tracing`).
//!
//! Run with `cargo run -p fabric-pdc --example trace_tx`.

use fabric_pdc::prelude::*;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // One telemetry pipeline; every node reports into it, keying each
    // span to its transaction's trace id.
    let telemetry = Telemetry::new();
    let mut net = NetworkBuilder::new("trade-channel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(7)
        .with_telemetry(telemetry.clone())
        .build();

    // Both trading orgs are collection members and must co-endorse.
    let definition = ChaincodeDefinition::new("trade")
        .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')")
        .with_collection(
            CollectionConfig::membership_of(
                "tradeCollection",
                &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
            )
            .with_endorsement_policy("OR('Org1MSP.peer','Org2MSP.peer')"),
        );
    net.deploy_chaincode(definition, Arc::new(SecuredTrade::new("tradeCollection")));

    let outcome = net.submit_transaction(
        "client0.org1",
        "trade",
        "offer",
        &["asset1"],
        &[("appraisal", b"appraised-at-9500-USD".as_slice())],
        &["peer0.org1", "peer0.org2"],
    )?;
    assert!(outcome.validation_code.is_valid());

    let records = telemetry.trace().records();

    // 1. The per-transaction lifecycle timeline, resolved from the tx ID.
    let timeline = TxTimeline::collect(&records, outcome.tx_id.as_str());
    println!("== transaction timeline ==");
    print!("{}", timeline.render());
    assert!(
        timeline.complete(),
        "a committed transaction must have all five lifecycle phases"
    );
    println!(
        "nodes on the transaction's path: {}",
        timeline.nodes().join(", ")
    );

    // 2. Chrome-trace/Perfetto export of every span the network recorded.
    println!("\n== chrome trace (load in ui.perfetto.dev) ==");
    println!("{}", render_chrome_trace(&records));
    Ok(())
}
