//! Self-check: the linter over the repo's own example deployments.
//!
//! The `secured_trade` example (examples/secured_trade.rs) is this
//! repo's showcase of a *defended* PDC deployment — its collection pins
//! an `EndorsementPolicy` to the seller and keeps private data out of
//! response payloads. Linting that exact definition must produce no
//! error-severity findings; stripping its defenses must re-introduce
//! them.

use fabric_pdc::lint;
use fabric_pdc::lint::flow::{self, ArgSpec, EntryPoint, FlowTarget};
use fabric_pdc::lint::{LintSubject, Severity};
use fabric_pdc::prelude::*;
use std::sync::Arc;

fn channel_orgs() -> Vec<OrgId> {
    vec![
        OrgId::new("Org1MSP"),
        OrgId::new("Org2MSP"),
        OrgId::new("Org3MSP"),
    ]
}

/// The exact definition `examples/secured_trade.rs` deploys.
fn secured_trade_definition() -> ChaincodeDefinition {
    ChaincodeDefinition::new("trade")
        .with_endorsement_policy("ANY Endorsement")
        .with_collection(
            CollectionConfig::membership_of("sellerCollection", &[OrgId::new("Org1MSP")])
                .with_endorsement_policy("OR('Org1MSP.peer')"),
        )
}

#[test]
fn secured_trade_network_passes_the_linter() {
    // Build the example's live network and lint what is actually
    // deployed on the channel, not a hand-copied definition.
    let mut net = NetworkBuilder::new("trade-channel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(4)
        .build();
    net.deploy_chaincode(
        secured_trade_definition(),
        Arc::new(SecuredTrade::new("sellerCollection")),
    );
    let subjects: Vec<LintSubject> = net
        .deployed_definitions()
        .into_iter()
        .map(|d| LintSubject::from_definition(d, net.orgs()))
        .collect();
    assert_eq!(subjects.len(), 1);
    assert_eq!(subjects[0].channel_orgs, channel_orgs());
    let findings = lint::lint_subjects(&subjects);
    assert!(
        findings.iter().all(|f| f.severity < Severity::Error),
        "the defended example must not produce errors: {findings:#?}"
    );
    // In particular, the attack preconditions are absent.
    for rule in ["PDC006", "PDC009"] {
        assert!(
            findings.iter().all(|f| f.rule_id != rule),
            "{rule} fired on the defended example"
        );
    }
}

#[test]
fn stripping_the_collection_policy_reintroduces_use_case_errors() {
    // The same deployment without the collection-level policy: PDC writes
    // fall back to "ANY Endorsement", which any of the three orgs — all
    // non-members but the seller — can satisfy alone (Use Cases 1/2).
    let weakened = ChaincodeDefinition::new("trade")
        .with_endorsement_policy("ANY Endorsement")
        .with_collection(CollectionConfig::membership_of(
            "sellerCollection",
            &[OrgId::new("Org1MSP")],
        ));
    let subject = LintSubject::from_definition(&weakened, &channel_orgs());
    let findings = lint::lint_subject(&subject);
    let fired: Vec<&str> = findings.iter().map(|f| f.rule_id).collect();
    assert!(fired.contains(&"PDC001"), "{fired:?}");
    assert!(fired.contains(&"PDC006"), "{fired:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.rule_id == "PDC006" && f.severity == Severity::Error),
        "{findings:#?}"
    );
}

#[test]
fn probing_secured_trade_finds_no_payload_leak() {
    // Dynamic check of the same property the example demonstrates: the
    // appraisal never enters a response payload. `verify` answers
    // true/false and `offer` returns only the asset key.
    let target = FlowTarget {
        name: "trade".into(),
        uri: "network:trade".into(),
        chaincode: Arc::new(SecuredTrade::new("sellerCollection")),
        definition: secured_trade_definition(),
        entry_points: vec![
            EntryPoint::new("offer", [ArgSpec::SeedKey])
                .with_transient("appraisal", ArgSpec::Input),
            EntryPoint::new("verify", [ArgSpec::SeedKey]).with_transient("claimed", ArgSpec::Input),
        ],
        channel_orgs: channel_orgs(),
    };
    let findings = flow::analyze_target(&target);
    assert!(
        findings.is_empty(),
        "unexpected flow findings: {findings:#?}"
    );
}

#[test]
fn probing_the_vulnerable_sample_feeds_pdc009() {
    // End-to-end: flow-analyze the paper's Listing 2 chaincode as
    // deployed; `set` echoes the value it wrote and `get` returns the
    // value it read, so both report Use Case 3.
    let target = FlowTarget {
        name: "sacc".into(),
        uri: "network:sacc".into(),
        chaincode: Arc::new(SaccPrivate::default()),
        definition: ChaincodeDefinition::new("sacc").with_collection(
            CollectionConfig::membership_of("demo", &[OrgId::new("Org1MSP")]),
        ),
        entry_points: vec![
            EntryPoint::new("set", [ArgSpec::SeedKey, ArgSpec::Input]),
            EntryPoint::new("get", [ArgSpec::SeedKey]),
        ],
        channel_orgs: channel_orgs(),
    };
    let findings = flow::analyze_target(&target);
    let leaky: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule_id == "PDC009")
        .filter_map(|f| f.message.split('\'').nth(1))
        .collect();
    assert_eq!(leaky, ["get", "set"], "{findings:#?}");
    assert!(findings.iter().all(|f| f.location.uri == "network:sacc"));
}
