//! Table II, re-run as an integration test: every attack × configuration
//! cell on a freshly built prototype network — plus the forensic side of
//! the story: every attack must leave a trail in the shared telemetry
//! pipeline's security-audit event stream.

use fabric_pdc::attacks::{
    build_lab, render_table2, run_attack, run_table2, AttackKind, LabConfig,
};
use fabric_pdc::monitor::{DEFENSE_RULE, MVCC_STORM_RULE, UC1_RULE, UC2_RULE, UC3_RULE};
use fabric_pdc::prelude::*;
use std::collections::BTreeSet;

/// The rules a transition list fired, deduplicated and sorted.
fn fired_rules(alerts: &[AlertTransition]) -> BTreeSet<String> {
    alerts
        .iter()
        .filter(|t| t.to == AlertPhase::Firing)
        .map(|t| t.rule.clone())
        .collect()
}

#[test]
fn table2_reproduces_the_paper() {
    let rows = run_table2(20210704);
    let rendered = render_table2(&rows);
    println!("{rendered}");

    // Encode the paper's table as the expected matrix.
    // Columns: MAJORITY, 2OutOf5, AND(org1,org2), Feature1, Original, Feature2.
    let expect: [(&str, [Option<bool>; 6]); 6] = [
        (
            "Read-Only",
            [Some(true), Some(true), Some(true), Some(false), None, None],
        ),
        (
            "Write-Only",
            [Some(true), Some(true), Some(false), Some(false), None, None],
        ),
        (
            "Read-Write",
            [Some(true), Some(true), Some(false), Some(false), None, None],
        ),
        (
            "Delete-Related",
            [Some(true), Some(true), Some(false), Some(false), None, None],
        ),
        (
            "PDC-Read",
            [None, None, None, None, Some(true), Some(false)],
        ),
        (
            "PDC-Write",
            [None, None, None, None, Some(true), Some(false)],
        ),
    ];

    for (row, (label, cells)) in rows.iter().zip(expect.iter()) {
        assert_eq!(&row.label, label);
        for (i, expected) in cells.iter().enumerate() {
            assert_eq!(
                &row.cells[i].works, expected,
                "{label} / column {} ({})",
                i, row.cells[i].config
            );
        }
    }
}

/// Every injection attack — succeeding or not — trips at least one
/// security-audit event on the lab's shared telemetry pipeline. On the
/// paper's default configuration each attack shows both Use Case 1 (the
/// non-member org3 endorsed a PDC transaction) and Use Case 2 (PDC1
/// defines no endorsement policy of its own, so validation fell back to
/// the chaincode level).
#[test]
fn every_attack_leaves_an_audit_trail() {
    let org3 = OrgId::new("Org3MSP");
    for kind in AttackKind::all() {
        let mut lab = build_lab(&LabConfig::default());
        let outcome = run_attack(&mut lab, kind);
        assert!(
            !outcome.audit_events.is_empty(),
            "{kind}: attack left no audit events"
        );
        assert!(
            outcome.audit_events.iter().any(|e| matches!(
                e,
                AuditEvent::EndorsementByNonMember { endorser_org, .. } if *endorser_org == org3
            )),
            "{kind}: non-member endorsement by org3 not audited (Use Case 1)"
        );
        assert!(
            outcome
                .audit_events
                .iter()
                .any(|e| matches!(e, AuditEvent::PolicyFallbackToChaincodeLevel { .. })),
            "{kind}: chaincode-level policy fallback not audited (Use Case 2)"
        );
    }
}

/// Every attack-lab scenario fires exactly its mapped alert rules, and
/// the UC1 alert names the non-member endorsement as its evidence, whose
/// transaction's timeline the trace sink holds. The monitor is
/// re-baselined after lab seeding, so every transition in
/// `outcome.alerts` was provoked by the attack itself.
#[test]
fn every_attack_fires_exactly_its_mapped_alerts() {
    for kind in AttackKind::all() {
        let mut lab = build_lab(&LabConfig::default());
        let outcome = run_attack(&mut lab, kind);
        // UC1 (non-member endorsement) and UC2 (policy fallback) fire on
        // every injection attack; UC3 (plaintext payload) additionally
        // fires whenever the fabricated transaction carries a response
        // payload — the read forgery's whole point, and a side effect of
        // the colluding chaincode echoing values on the write paths.
        let expected: BTreeSet<String> = [UC1_RULE, UC2_RULE]
            .into_iter()
            .map(str::to_string)
            .collect();
        let mut fired = fired_rules(&outcome.alerts);
        // Tolerate UC3 presence per payload shape but pin everything else.
        let had_uc3 = fired.remove(UC3_RULE);
        assert_eq!(fired, expected, "{kind}: unexpected alert set");
        if kind == AttackKind::FakeRead {
            assert!(had_uc3, "{kind}: plaintext payload alert missing");
        }
        // No defense ran and no storm happened: those rules stay quiet.
        for rule in [DEFENSE_RULE, MVCC_STORM_RULE, "node_critical"] {
            assert!(
                !outcome.alerts.iter().any(|t| t.rule == rule),
                "{kind}: {rule} fired spuriously"
            );
        }
        // The UC1 alert names the event that tripped it, and the sink
        // holds that transaction's spans up to validation.
        let monitor = lab.net.monitor().expect("lab attaches a monitor");
        let uc1_alert = monitor
            .active_alerts()
            .into_iter()
            .find(|a| a.rule == UC1_RULE)
            .unwrap_or_else(|| panic!("{kind}: uc1 alert not firing"));
        let evidence = uc1_alert
            .evidence
            .unwrap_or_else(|| panic!("{kind}: uc1 alert names no evidence"));
        assert!(
            matches!(evidence, AuditEvent::EndorsementByNonMember { .. }),
            "{kind}: uc1 evidence is {evidence}"
        );
        let telemetry = lab.net.telemetry().expect("lab attaches telemetry");
        let timeline = TxTimeline::collect(&telemetry.trace().records(), evidence.tx_id().as_str());
        assert!(
            timeline.phase("validate").is_some(),
            "{kind}: no validate span for the evidence transaction {}",
            evidence.tx_id()
        );
    }
}

/// When the supplemental filter defense stops the attack, the monitor
/// raises the defense-rejection alert alongside the use-case ones.
#[test]
fn defended_attack_raises_the_defense_rejection_alert() {
    let cfg = LabConfig {
        defense: DefenseConfig {
            filter_non_member_endorsers: true,
            ..DefenseConfig::original()
        },
        ..LabConfig::default()
    };
    let mut lab = build_lab(&cfg);
    let outcome = run_attack(&mut lab, AttackKind::FakeWrite);
    assert!(!outcome.succeeded);
    let fired = fired_rules(&outcome.alerts);
    assert!(
        fired.contains(DEFENSE_RULE),
        "defense rejection did not alert: {fired:?}"
    );
    assert!(fired.contains(UC1_RULE), "{fired:?}");
}

/// A fully defended, correctly configured monitored network: hardened
/// defenses everywhere, a collection-level endorsement policy, honest
/// chaincode on every peer.
fn defended_monitored_net() -> (FabricNetwork, Monitor) {
    let telemetry = Telemetry::new();
    let monitor = Monitor::new(&telemetry);
    let mut net = NetworkBuilder::new("mychannel")
        .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
        .seed(77)
        .defense(DefenseConfig::hardened())
        .with_telemetry(telemetry)
        .with_monitor(monitor.clone())
        .build();
    let definition = ChaincodeDefinition::new("guarded").with_collection(
        CollectionConfig::membership_of("PDC1", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
    );
    net.deploy_chaincode(
        definition,
        std::sync::Arc::new(GuardedPdc::unconstrained("PDC1")),
    );
    (net, monitor)
}

/// An honest workload on a fully defended, correctly configured network
/// raises no alert at all: the monitor stays silent end to end.
#[test]
fn honest_defended_run_fires_nothing() {
    let (mut net, monitor) = defended_monitored_net();
    // A run of honest member-endorsed writes plus quiet ticks.
    for (i, value) in [(1, 12), (2, 13), (3, 14)] {
        let outcome = net
            .submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &[&format!("h{i}"), &value.to_string()],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .expect("honest write commits");
        assert!(outcome.validation_code.is_valid());
    }
    net.advance(80);
    assert!(
        monitor.transitions().is_empty(),
        "honest defended traffic alerted: {:?}",
        monitor.transitions()
    );
    assert!(monitor.firing_rules().is_empty());
    // And the health model agrees everything is fine.
    let status = monitor.status();
    assert!(
        status
            .nodes
            .iter()
            .all(|n| n.verdict == fabric_pdc::monitor::HealthVerdict::Healthy),
        "{status:?}"
    );
}

/// A burst of MVCC conflicts — several stale transactions aborting in one
/// block — trips the storm detector, while the isolated conflict of
/// ordinary contention does not.
#[test]
fn mvcc_abort_storm_alerts_on_a_burst() {
    let (mut net, monitor) = defended_monitored_net();
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["k1", "12"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();

    // Stash several transactions endorsed against the same (pre-commit)
    // version of k1...
    let mut client = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(990),
        DefenseConfig::hardened(),
    );
    let mut stale = Vec::new();
    for _ in 0..3 {
        let proposal = client.create_proposal(
            net.channel().clone(),
            ChaincodeId::new("guarded"),
            "add",
            vec![b"k1".to_vec(), b"1".to_vec()],
            Default::default(),
        );
        let r1 = net.endorse("peer0.org1", &proposal).unwrap();
        let r2 = net.endorse("peer0.org2", &proposal).unwrap();
        let (tx, _) = client.assemble_transaction(&proposal, &[r1, r2]).unwrap();
        stale.push(tx);
    }
    // ...let a fresh write invalidate them all...
    net.submit_transaction(
        "client0.org1",
        "guarded",
        "write",
        &["k1", "13"],
        &[],
        &["peer0.org1", "peer0.org2"],
    )
    .unwrap();
    // ...and commit the stale batch in one block: every honest peer
    // reports an MVCC abort for each, well past 4x the quiet baseline.
    for tx in stale {
        net.submit(tx);
    }
    net.advance(10);
    let fired = fired_rules(&monitor.transitions());
    assert!(
        fired.contains(MVCC_STORM_RULE),
        "storm did not alert: {fired:?}"
    );
    // The storm is the only attack-class alert: no use-case rule fired.
    for rule in [UC1_RULE, UC2_RULE, UC3_RULE, DEFENSE_RULE] {
        assert!(!fired.contains(rule), "{rule} fired spuriously: {fired:?}");
    }
}

/// The read forgery commits the fabricated value through the transaction's
/// plaintext response payload — the Use Case 3 signal.
#[test]
fn read_forgery_reports_plaintext_payload() {
    let mut lab = build_lab(&LabConfig::default());
    let outcome = run_attack(&mut lab, AttackKind::FakeRead);
    assert!(
        outcome.succeeded,
        "read forgery works on the original config"
    );
    assert!(
        outcome
            .audit_events
            .iter()
            .any(|e| matches!(e, AuditEvent::PlaintextPayloadInTx { .. })),
        "plaintext payload commit not audited (Use Case 3)"
    );
}

/// When the supplemental non-member-endorser filter stops an attack, the
/// rejection itself is audited.
#[test]
fn filter_defense_rejection_is_audited() {
    let cfg = LabConfig {
        defense: DefenseConfig {
            filter_non_member_endorsers: true,
            ..DefenseConfig::original()
        },
        ..LabConfig::default()
    };
    let mut lab = build_lab(&cfg);
    let outcome = run_attack(&mut lab, AttackKind::FakeWrite);
    assert!(
        !outcome.succeeded,
        "the filter defense stops the fake write"
    );
    assert_eq!(
        outcome.validation_code,
        Some(TxValidationCode::NonMemberEndorsement)
    );
    assert!(
        outcome
            .audit_events
            .iter()
            .any(|e| matches!(e, AuditEvent::DefenseRejected { .. })),
        "defense rejection not audited"
    );
    let monitor = lab.net.monitor().expect("lab attaches a monitor");
    let alert = monitor
        .active_alerts()
        .into_iter()
        .find(|a| a.rule == DEFENSE_RULE)
        .expect("defense rejection alert firing");
    assert!(
        matches!(alert.evidence, Some(AuditEvent::DefenseRejected { .. })),
        "defense alert evidence is {:?}",
        alert.evidence
    );
}
