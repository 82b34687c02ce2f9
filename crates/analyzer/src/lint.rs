//! Bridge from scanner output to the `fabric-lint` rule engine.
//!
//! [`scan_project`](crate::scan_project) extracts raw facts from a
//! project's file tree; this module reshapes a [`ProjectReport`] into a
//! [`LintSubject`] so the same rules that check live
//! `ChaincodeDefinition`s also run over scanned corpora.
//!
//! A scanned project does not state its channel membership, so the
//! bridge approximates the channel as the union of organizations
//! *observed* in any policy expression (membership policies, collection
//! endorsement policies, the `configtx.yaml` default). That is a lower
//! bound: an organization named in a policy must exist on the channel.
//! Rules that reason about non-members therefore only fire on orgs the
//! project itself names — never on invented ones.

use crate::scan::{LeakKind, ProjectReport};
use fabric_lint::{flow, CollectionFacts, LeakChannel, LeakFact, LintSubject};
use fabric_policy::{Policy, SignaturePolicy};
use fabric_types::OrgId;
use std::collections::BTreeSet;

/// Converts one scanned project into a lint subject.
pub fn subject_from_report(report: &ProjectReport) -> LintSubject {
    let name = report
        .path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| report.path.to_string_lossy().into_owned());
    let uri = report.path.to_string_lossy().into_owned();

    let mut observed: BTreeSet<OrgId> = BTreeSet::new();
    let mut observe = |expr: &str| {
        if let Ok(Policy::Signature(p)) = Policy::parse(expr) {
            observed.extend(p.organizations());
        }
    };
    if let Some(p) = &report.default_policy {
        observe(p);
    }
    for c in &report.collections {
        if let Some(p) = &c.member_policy {
            observe(p);
        }
        if let Some(p) = &c.endorsement_policy {
            observe(p);
        }
    }

    let collections = report
        .collections
        .iter()
        .map(|c| CollectionFacts {
            name: c.name.clone(),
            uri: uri.clone(),
            member_orgs: c
                .member_policy
                .as_deref()
                .and_then(|p| SignaturePolicy::parse(p).ok())
                .map(|p| p.organizations())
                .unwrap_or_default(),
            endorsement_policy: c.endorsement_policy.clone(),
            required_peer_count: c.required_peer_count,
            max_peer_count: c.max_peer_count,
            block_to_live: c.block_to_live,
            member_only_read: c.member_only_read,
            member_only_write: c.member_only_write,
        })
        .collect();

    let leaks = report
        .leaks
        .iter()
        .map(|l| LeakFact {
            uri: l.file.to_string_lossy().into_owned(),
            function: l.function.clone(),
            channel: match l.kind {
                LeakKind::Read => LeakChannel::ReadPayload,
                LeakKind::Write => LeakChannel::WritePayload,
            },
        })
        .collect();

    LintSubject {
        name,
        uri,
        channel_orgs: observed.into_iter().collect(),
        chaincode_policy: report.default_policy.clone(),
        collections,
        leaks,
    }
}

/// Lints every scanned project, returning one merged, deterministically
/// ordered finding list.
pub fn lint_corpus(reports: &[ProjectReport]) -> Vec<fabric_lint::Finding> {
    let subjects: Vec<LintSubject> = reports.iter().map(subject_from_report).collect();
    fabric_lint::lint_subjects(&subjects)
}

/// [`lint_corpus`] plus information-flow taint analysis of the built-in
/// sample registry (`analyze lint --flow`). Both finding sets land in
/// one deterministically ordered list, so every renderer shows
/// configuration and flow findings side by side.
pub fn lint_corpus_with_flow(reports: &[ProjectReport]) -> Vec<fabric_lint::Finding> {
    let mut findings = lint_corpus(reports);
    findings.extend(flow::analyze_targets(&flow::sample_registry()));
    fabric_lint::sort_and_dedup(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{CollectionDef, LeakFinding};
    use std::path::PathBuf;

    fn report_with_collection(c: CollectionDef) -> ProjectReport {
        ProjectReport {
            path: PathBuf::from("/corpus/proj-1"),
            explicit_pdc: true,
            collections: vec![c],
            default_policy: Some("MAJORITY Endorsement".into()),
            ..ProjectReport::default()
        }
    }

    #[test]
    fn subject_carries_all_facts() {
        let mut report = report_with_collection(CollectionDef {
            name: "c1".into(),
            has_endorsement_policy: true,
            member_policy: Some("OR('Org1MSP.member','Org2MSP.member')".into()),
            endorsement_policy: Some("AND('Org1MSP.peer','Org3MSP.peer')".into()),
            required_peer_count: Some(0),
            max_peer_count: Some(3),
            block_to_live: Some(5),
            member_only_read: Some(false),
            member_only_write: None,
        });
        report.leaks.push(LeakFinding {
            file: PathBuf::from("chaincode/cc.go"),
            function: "setPrivate".into(),
            kind: LeakKind::Write,
        });

        let subject = subject_from_report(&report);
        assert_eq!(subject.name, "proj-1");
        assert_eq!(
            subject.chaincode_policy.as_deref(),
            Some("MAJORITY Endorsement")
        );
        // Observed orgs: members + the endorsement policy's Org3MSP.
        let names: Vec<&str> = subject.channel_orgs.iter().map(OrgId::as_str).collect();
        assert_eq!(names, ["Org1MSP", "Org2MSP", "Org3MSP"]);
        let c = &subject.collections[0];
        assert_eq!(c.member_orgs.len(), 2);
        assert_eq!(c.block_to_live, Some(5));
        assert_eq!(c.member_only_read, Some(false));
        assert_eq!(c.member_only_write, None);
        assert_eq!(subject.leaks[0].channel, LeakChannel::WritePayload);
    }

    #[test]
    fn lint_corpus_flags_the_paper_defaults() {
        // The corpus default shape: no EndorsementPolicy,
        // RequiredPeerCount 0 — PDC001 and PDC004 must fire.
        let report = report_with_collection(CollectionDef {
            name: "collectionPrivate".into(),
            member_policy: Some("OR('Org1MSP.member','Org2MSP.member')".into()),
            required_peer_count: Some(0),
            max_peer_count: Some(3),
            block_to_live: Some(1_000_000),
            member_only_read: Some(true),
            ..CollectionDef::default()
        });
        let findings = lint_corpus(std::slice::from_ref(&report));
        let ids: Vec<&str> = findings.iter().map(|f| f.rule_id).collect();
        assert!(ids.contains(&"PDC001"), "{ids:?}");
        assert!(ids.contains(&"PDC004"), "{ids:?}");
    }

    #[test]
    fn unknown_fields_produce_no_findings() {
        let report = report_with_collection(CollectionDef {
            name: "sparse".into(),
            member_policy: Some("OR('Org1MSP.member')".into()),
            has_endorsement_policy: true,
            endorsement_policy: Some("OR('Org1MSP.peer')".into()),
            ..CollectionDef::default()
        });
        let findings = lint_corpus(std::slice::from_ref(&report));
        assert!(
            findings.is_empty(),
            "sparse-but-defended config must stay silent: {findings:?}"
        );
    }
}
