//! Linting a live network: run every PDC rule over the chaincode
//! definitions actually deployed on a channel, and flow-analyze the
//! chaincode behind them.
//!
//! Deploys two chaincodes — the defended `SecuredTrade` setup from the
//! `secured_trade` example and the paper's vulnerable `SaccPrivate`
//! (Listing 2) — then lints both, prints the text report plus the SARIF
//! document a CI system would archive, and asserts the verdicts: both
//! `sacc` functions leak through the response payload (`PDC009`) and
//! `trade` produces no error.
//!
//! Run with `cargo run -p fabric-pdc --example lint_demo`.

use fabric_pdc::lint::flow::{self, ArgSpec, EntryPoint, FlowTarget};
use fabric_pdc::lint::{self, render, LintSubject, Severity};
use fabric_pdc::prelude::*;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let mut net = NetworkBuilder::new("audit-channel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(9)
        .build();

    // Defended: collection-level endorsement policy pinned to the seller.
    let trade: Arc<dyn Chaincode> = Arc::new(SecuredTrade::new("sellerCollection"));
    net.deploy_chaincode(
        ChaincodeDefinition::new("trade")
            .with_endorsement_policy("ANY Endorsement")
            .with_collection(
                CollectionConfig::membership_of("sellerCollection", &[OrgId::new("Org1MSP")])
                    .with_endorsement_policy("OR('Org1MSP.peer')")
                    .with_required_peer_count(1),
            ),
        trade.clone(),
    );
    // Vulnerable: the paper's sacc — chaincode-level policy governs the
    // collection (Use Case 2) and both functions leak (Use Case 3).
    let sacc: Arc<dyn Chaincode> = Arc::new(SaccPrivate::default());
    net.deploy_chaincode(
        ChaincodeDefinition::new("sacc")
            .with_endorsement_policy("ANY Endorsement")
            .with_collection(CollectionConfig::membership_of(
                "demo",
                &[OrgId::new("Org1MSP")],
            )),
        sacc.clone(),
    );

    // The configuration rules over every deployed definition, then flow
    // analysis of the chaincode deployed under each.
    let subjects: Vec<LintSubject> = net
        .deployed_definitions()
        .into_iter()
        .map(|d| LintSubject::from_definition(d, net.orgs()))
        .collect();
    let mut findings = lint::lint_subjects(&subjects);
    for definition in net.deployed_definitions() {
        let name = definition.id.as_str();
        let (chaincode, entry_points) = match name {
            "trade" => (
                trade.clone(),
                vec![
                    EntryPoint::new("offer", [ArgSpec::SeedKey])
                        .with_transient("appraisal", ArgSpec::Input),
                    EntryPoint::new("verify", [ArgSpec::SeedKey])
                        .with_transient("claimed", ArgSpec::Input),
                ],
            ),
            "sacc" => (
                sacc.clone(),
                vec![
                    EntryPoint::new("set", [ArgSpec::SeedKey, ArgSpec::Input]),
                    EntryPoint::new("get", [ArgSpec::SeedKey]),
                ],
            ),
            other => return Err(format!("unexpected deployment {other}").into()),
        };
        findings.extend(flow::analyze_target(&FlowTarget {
            name: name.to_string(),
            uri: format!("network:{name}"),
            chaincode,
            definition: definition.clone(),
            entry_points,
            channel_orgs: net.orgs().to_vec(),
        }));
    }
    lint::sort_and_dedup(&mut findings);

    println!("== fabric-lint over audit-channel ==\n");
    print!("{}", render::render_text(&findings));

    println!("\n== SARIF 2.1.0 (for CI upload) ==\n");
    print!("{}", render::render_sarif(&findings));

    for function in ["set", "get"] {
        assert!(
            findings.iter().any(|f| f.subject == "sacc"
                && f.rule_id == "PDC009"
                && f.message.starts_with(&format!("function '{function}'"))),
            "sacc's `{function}` must leak through the response payload"
        );
    }
    assert!(
        findings
            .iter()
            .all(|f| f.subject != "trade" || f.severity < Severity::Error),
        "the defended trade deployment must produce no error"
    );
    Ok(())
}
