//! Self-check: the linter over the repo's own example deployments.
//!
//! The `secured_trade` example (examples/secured_trade.rs) is this
//! repo's showcase of a *defended* PDC deployment — its collection pins
//! an `EndorsementPolicy` to the seller and keeps private data out of
//! response payloads. Linting that exact definition must produce no
//! error-severity findings; stripping its defenses must re-introduce
//! them.

use fabric_pdc::lint;
use fabric_pdc::lint::{LintSubject, Severity};
use fabric_pdc::prelude::*;

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
        std::sync::Arc::new(SecuredTrade::new("sellerCollection")),
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
fn flow_analysis_state_drives_pdc018() {
    // Tri-state: unknown stays silent, a known gap fires the note, a
    // completed analysis silences it.
    for (flow_analyzed, expect_finding) in [(None, false), (Some(false), true), (Some(true), false)]
    {
        let definition = secured_trade_definition();
        let mut subject = LintSubject::from_definition(&definition, &channel_orgs());
        if let Some(analyzed) = flow_analyzed {
            subject = subject.with_flow_analyzed(analyzed);
        }
        let findings = lint::lint_subject(&subject);
        assert_eq!(
            findings.iter().any(|f| f.rule_id == "PDC018"),
            expect_finding,
            "flow_analyzed={flow_analyzed:?}: {findings:#?}"
        );
        if expect_finding {
            let f = findings.iter().find(|f| f.rule_id == "PDC018").unwrap();
            assert_eq!(f.severity, Severity::Note);
            assert!(f.message.contains("--flow"), "{}", f.message);
        }
    }
}

#[test]
fn flow_analyzing_the_deployed_sample_justifies_the_tri_state_true() {
    // The honest way to set `flow_analyzed: true` on a subject: actually
    // run the flow analyzer over the deployed chaincode. secured_trade is
    // in the built-in registry and must come back clean.
    let target = fabric_pdc::flow::sample_registry()
        .into_iter()
        .find(|t| t.name == "secured_trade")
        .expect("secured_trade registered");
    let flow_findings = fabric_pdc::flow::analyze_target(&target);
    assert!(flow_findings.is_empty(), "{flow_findings:#?}");

    let subject = LintSubject::from_definition(&secured_trade_definition(), &channel_orgs())
        .with_flow_analyzed(flow_findings.is_empty());
    let findings = lint::lint_subject(&subject);
    assert!(
        findings.iter().all(|f| f.rule_id != "PDC018"),
        "{findings:#?}"
    );
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
    // MATCH/MISMATCH and `offer` returns only the asset key.
    let definition = secured_trade_definition();
    let leaks = lint::probe::probe_leaks(
        &SecuredTrade::new("sellerCollection"),
        &definition,
        "network:trade",
        &[
            lint::probe::ProbeSpec::write("offer"),
            lint::probe::ProbeSpec::read("verify"),
        ],
    );
    assert!(leaks.is_empty(), "unexpected payload leaks: {leaks:?}");
}

#[test]
fn probing_the_vulnerable_sample_feeds_pdc009() {
    // End-to-end: probe the paper's Listing 1/2 chaincode, feed the
    // observed leaks into a subject, and the linter reports Use Case 3.
    let definition = ChaincodeDefinition::new("sacc").with_collection(
        CollectionConfig::membership_of("demo", &[OrgId::new("Org1MSP")]),
    );
    let mut subject = LintSubject::from_definition(&definition, &channel_orgs());
    subject.leaks = lint::probe::probe_leaks(
        &SaccPrivate::default(),
        &definition,
        &subject.uri,
        &lint::probe::sacc_probes(),
    );
    let findings = lint::lint_subject(&subject);
    assert_eq!(
        findings.iter().filter(|f| f.rule_id == "PDC009").count(),
        2,
        "{findings:#?}"
    );
}
