//! Self-analysis regression: the flow analyzer over the repo's own
//! sample chaincodes.
//!
//! The deliberately leaky sample must trigger every flow rule with a
//! complete source→sink path rendered into all three output formats;
//! the paper's `sacc` leaks exactly where §V-B says it does; the
//! defended samples must analyze clean. Each rule also gets one minimal
//! closure-based fixture that triggers it and one that provably does
//! not.

use fabric_chaincode::{ChaincodeDefinition, ChaincodeStub};
use fabric_lint::flow::{
    analyze_target, channel_orgs, sample_registry, ArgSpec, EntryPoint, FlowTarget, SEED_KEY,
};
use fabric_lint::render::{render_json, render_sarif, render_text};
use fabric_lint::Finding;
use fabric_types::{CollectionConfig, CollectionName, OrgId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn target_named(name: &str) -> FlowTarget {
    sample_registry()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no registry target named {name}"))
}

fn rule_ids(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.rule_id).collect();
    ids.dedup();
    ids
}

#[test]
fn leaky_escrow_triggers_every_flow_rule() {
    let findings = analyze_target(&target_named("leaky_escrow"));
    let ids = rule_ids(&findings);
    for rule in [
        "PDC009", "PDC012", "PDC013", "PDC014", "PDC015", "PDC016", "PDC017",
    ] {
        assert!(ids.contains(&rule), "{rule} missing from {ids:?}");
    }
}

#[test]
fn leaky_escrow_findings_carry_complete_flow_paths() {
    let findings = analyze_target(&target_named("leaky_escrow"));
    for rule in ["PDC009", "PDC012", "PDC013", "PDC014", "PDC015"] {
        let f = findings
            .iter()
            .find(|f| f.rule_id == rule)
            .unwrap_or_else(|| panic!("{rule} expected"));
        assert!(
            f.message.contains("flow: GetPrivateData(escrowCollection"),
            "{rule} lacks a source step: {}",
            f.message
        );
        assert!(f.message.contains(" -> "), "{rule}: {}", f.message);
    }
    // Sink ends per rule.
    let msg = |rule: &str| &findings.iter().find(|f| f.rule_id == rule).unwrap().message;
    assert!(msg("PDC009").starts_with("function 'peek'"));
    assert!(msg("PDC009").ends_with("-> response payload recorded in the block"));
    assert!(msg("PDC012").ends_with("public world state"));
    assert!(msg("PDC013").ends_with("every block listener"));
    assert!(msg("PDC014").contains("response payload to the Org3MSP client"));
    assert!(msg("PDC015").contains("collection 'auditCollection'"));
}

#[test]
fn flow_paths_reach_all_three_renderers() {
    let findings = analyze_target(&target_named("leaky_escrow"));
    let text = render_text(&findings);
    let json = render_json(&findings);
    let sarif = render_sarif(&findings);
    for out in [&text, &json, &sarif] {
        assert!(out.contains("flow: GetPrivateData(escrowCollection"));
        assert!(out.contains("PDC012"));
        assert!(out.contains("PDC017"));
    }
    // SARIF indexes every flow rule in the registry.
    for rule in [
        "PDC009", "PDC012", "PDC013", "PDC014", "PDC015", "PDC016", "PDC017",
    ] {
        assert!(sarif.contains(&format!("\"id\": \"{rule}\"")), "{rule}");
    }
}

/// §V-B counts both of `sacc`'s functions (Listing 2) as leaky when
/// submitted: `set` returns the value it wrote with `PutPrivateData`, and
/// `get` returns the value it read with `GetPrivateData`. The remediated
/// `sacc_fixed` takes `set`'s value from the transient map and returns
/// only the key, so only its `get` still leaks.
#[test]
fn sacc_leaks_through_the_payload_where_the_paper_says() {
    for (name, leaky) in [("sacc", &["get", "set"][..]), ("sacc_fixed", &["get"][..])] {
        let findings = analyze_target(&target_named(name));
        let verdicts: Vec<(&str, &str)> = findings
            .iter()
            .map(|f| (f.rule_id, f.message.split('\'').nth(1).unwrap_or_default()))
            .collect();
        let expected: Vec<(&str, &str)> = leaky.iter().map(|f| ("PDC009", *f)).collect();
        assert_eq!(verdicts, expected, "{name}: {findings:#?}");
        for f in &findings {
            let source = if f.message.starts_with("function 'get'") {
                "flow: GetPrivateData(demo"
            } else {
                "flow: PutPrivateData(demo"
            };
            assert!(f.message.contains(source), "{}", f.message);
            assert!(
                f.message
                    .ends_with("-> response payload recorded in the block"),
                "{}",
                f.message
            );
        }
    }
}

#[test]
fn defended_samples_analyze_clean() {
    for name in ["guarded", "secured_trade"] {
        let findings = analyze_target(&target_named(name));
        assert!(
            findings.is_empty(),
            "{name} must produce no flow findings: {findings:#?}"
        );
    }
}

// ---- minimal per-rule fixtures: one trigger, one non-trigger ----

/// A single-collection target around a closure chaincode.
fn closure_target(
    collections: &[(&str, &[&str])],
    entry: EntryPoint,
    chaincode: impl Fn(&mut ChaincodeStub<'_>) -> Result<Vec<u8>, fabric_chaincode::ChaincodeError>
        + Send
        + Sync
        + 'static,
) -> FlowTarget {
    let mut definition = ChaincodeDefinition::new("fixture");
    for (name, orgs) in collections {
        let orgs: Vec<OrgId> = orgs.iter().map(|o| OrgId::new(*o)).collect();
        definition = definition.with_collection(CollectionConfig::membership_of(*name, &orgs));
    }
    FlowTarget {
        name: "fixture".into(),
        uri: "test:fixture".into(),
        chaincode: Arc::new(chaincode),
        definition,
        entry_points: vec![entry],
        channel_orgs: channel_orgs(),
    }
}

fn only_rules(findings: &[Finding], expect: &[&str]) {
    let ids = rule_ids(findings);
    assert_eq!(ids, expect, "{findings:#?}");
}

#[test]
fn pdc012_public_write_of_private_data() {
    let pdc = CollectionName::new("pdc");
    let leak = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("copy", [ArgSpec::SeedKey]),
        {
            let pdc = pdc.clone();
            move |stub| {
                let v = stub.get_private_data(&pdc, SEED_KEY)?.unwrap_or_default();
                stub.put_state("out", v);
                Ok(Vec::new())
            }
        },
    );
    only_rules(&analyze_target(&leak), &["PDC012"]);

    // Non-trigger: the write stays in the collection.
    let safe = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("copy", [ArgSpec::SeedKey]),
        move |stub| {
            let v = stub.get_private_data(&pdc, SEED_KEY)?.unwrap_or_default();
            stub.put_private_data(&pdc, "out", v);
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&safe), &[]);
}

#[test]
fn pdc013_event_emission_of_private_data() {
    let pdc = CollectionName::new("pdc");
    let leak = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("emit", [ArgSpec::SeedKey]),
        {
            let pdc = pdc.clone();
            move |stub| {
                let v = stub.get_private_data(&pdc, SEED_KEY)?.unwrap_or_default();
                stub.set_event("leak", v);
                Ok(Vec::new())
            }
        },
    );
    only_rules(&analyze_target(&leak), &["PDC013"]);

    // Non-trigger: the event carries only the (public) key name.
    let safe = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("emit", [ArgSpec::SeedKey]),
        move |stub| {
            stub.get_private_data(&pdc, SEED_KEY)?;
            stub.set_event("updated", SEED_KEY.as_bytes().to_vec());
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&safe), &[]);
}

#[test]
fn pdc014_response_to_non_member_depends_on_member_only_read() {
    // member_only_read=false lets the Org3 client receive the value.
    let pdc = CollectionName::new("pdc");
    let mut leak = closure_target(&[], EntryPoint::new("read", [ArgSpec::SeedKey]), {
        let pdc = pdc.clone();
        move |stub| Ok(stub.get_private_data(&pdc, SEED_KEY)?.unwrap_or_default())
    });
    leak.definition = ChaincodeDefinition::new("fixture").with_collection(
        CollectionConfig::membership_of("pdc", &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")])
            .with_member_only_read(false),
    );
    // Returning the read value is also Listing 1 (PDC009) in both cases.
    only_rules(&analyze_target(&leak), &["PDC009", "PDC014"]);

    // Non-trigger: default member_only_read=true blocks the non-member
    // client before the payload exists; member clients may read.
    let safe = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("read", [ArgSpec::SeedKey]),
        move |stub| Ok(stub.get_private_data(&pdc, SEED_KEY)?.unwrap_or_default()),
    );
    only_rules(&analyze_target(&safe), &["PDC009"]);
}

#[test]
fn pdc015_downgrade_fires_only_toward_laxer_collections() {
    let strict = CollectionName::new("strict");
    let lax = CollectionName::new("lax");
    let leak = closure_target(
        &[
            ("strict", &["Org1MSP", "Org2MSP"]),
            ("lax", &["Org1MSP", "Org3MSP"]),
        ],
        EntryPoint::new("mirror", [ArgSpec::SeedKey]),
        {
            let strict = strict.clone();
            let lax = lax.clone();
            move |stub| {
                let v = stub
                    .get_private_data(&strict, SEED_KEY)?
                    .unwrap_or_default();
                stub.put_private_data(&lax, "copy", v);
                Ok(Vec::new())
            }
        },
    );
    only_rules(&analyze_target(&leak), &["PDC015"]);

    // Non-trigger: copying into a strict *subset* collection loses
    // nothing — every subset member already held the source.
    let wide = CollectionName::new("wide");
    let narrow = CollectionName::new("narrow");
    let safe = closure_target(
        &[("wide", &["Org1MSP", "Org2MSP"]), ("narrow", &["Org1MSP"])],
        EntryPoint::new("mirror", [ArgSpec::SeedKey]),
        move |stub| {
            let v = stub.get_private_data(&wide, SEED_KEY)?.unwrap_or_default();
            stub.put_private_data(&narrow, "copy", v);
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&safe), &[]);
}

#[test]
fn pdc016_guessable_commitment_vs_client_supplied_value() {
    let pdc = CollectionName::new("pdc");
    // Trigger: a hardcoded dictionary word, not supplied by the client.
    let leak = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("settle", [ArgSpec::SeedKey]),
        {
            let pdc = pdc.clone();
            move |stub| {
                stub.put_private_data(&pdc, SEED_KEY, b"approved".to_vec());
                Ok(Vec::new())
            }
        },
    );
    only_rules(&analyze_target(&leak), &["PDC016"]);

    // Non-trigger: the committed value is exactly the client's input —
    // its entropy is the client's own choice.
    let safe = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("store", [ArgSpec::SeedKey, ArgSpec::Literal("42")]),
        move |stub| {
            let v = stub.args()[1].clone();
            stub.put_private_data(&pdc, SEED_KEY, v);
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&safe), &[]);
}

#[test]
fn pdc017_nondeterminism_vs_deterministic_writes() {
    // Trigger: a process-local counter in the write set.
    let counter = AtomicU64::new(0);
    let leak = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("stamp", [ArgSpec::SeedKey]),
        move |stub| {
            let n = counter.fetch_add(1, Ordering::Relaxed);
            stub.put_state("seq", n.to_string().into_bytes());
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&leak), &["PDC017"]);

    // Non-trigger: the same shape with a constant.
    let safe = closure_target(
        &[("pdc", &["Org1MSP", "Org2MSP"])],
        EntryPoint::new("stamp", [ArgSpec::SeedKey]),
        move |stub| {
            stub.put_state("seq", b"constant".to_vec());
            Ok(Vec::new())
        },
    );
    only_rules(&analyze_target(&safe), &[]);
}
