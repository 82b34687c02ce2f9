//! `INSTRUMENTS.md` is the one list of the program's instruments. This
//! test holds it to the live program: every attack of the lab runs on a
//! traced, monitored network, and the metric families, span names, audit
//! kinds and alert rules that run produces must be exactly the ones the
//! catalogue lists — less the rows it marks as registered only on a
//! fault — and each span must carry a trace id exactly when the
//! catalogue keys it by transaction.

use fabric_pdc::attacks::{build_lab, run_attack, AttackKind, LabConfig};
use fabric_pdc::prelude::*;
use fabric_pdc::telemetry::MetricValue;
use fabric_pdc::types::{ChaincodeId, CollectionName, OrgId, TxId};
use std::collections::BTreeSet;

const CATALOGUE: &str = include_str!("../INSTRUMENTS.md");

/// The rows of the table under `## {heading}`: the cells of each row
/// whose first cell is a backticked name, backticks stripped from it.
fn rows(heading: &str) -> Vec<Vec<String>> {
    let start = CATALOGUE
        .find(&format!("\n## {heading}\n"))
        .unwrap_or_else(|| panic!("INSTRUMENTS.md has no `## {heading}` section"));
    let section = &CATALOGUE[start + heading.len() + 5..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let mut cells: Vec<String> = l
                .trim_matches('|')
                .split(" | ")
                .map(|c| c.trim().to_string())
                .collect();
            cells[0] = cells[0].trim_matches('`').to_string();
            cells
        })
        .collect()
}

fn names(rows: &[Vec<String>]) -> BTreeSet<String> {
    rows.iter().map(|r| r[0].clone()).collect()
}

/// Every attack of the lab under its default configuration, then under
/// the hardened defenses, on one traced and monitored network each.
fn lab_pipelines() -> Vec<Telemetry> {
    let hardened = LabConfig {
        defense: DefenseConfig::hardened(),
        ..LabConfig::default()
    };
    [LabConfig::default(), hardened]
        .into_iter()
        .map(|cfg| {
            let mut lab = build_lab(&cfg);
            for kind in AttackKind::all() {
                run_attack(&mut lab, kind);
            }
            lab.net.advance(4);
            lab.net.telemetry().expect("the lab is traced").clone()
        })
        .collect()
}

#[test]
fn catalogue_matches_what_a_traced_attack_lab_registers() {
    let pipelines = lab_pipelines();
    let samples: Vec<_> = pipelines
        .iter()
        .flat_map(|t| t.metrics().samples())
        .collect();

    // Metric families and their kinds.
    let metrics = rows("Metrics");
    let registered: BTreeSet<String> = samples.iter().map(|s| s.name.clone()).collect();
    let on_demand: BTreeSet<String> = metrics
        .iter()
        .filter(|r| !r[3].starts_with("on attach") && !r[3].starts_with("on first event"))
        .map(|r| r[0].clone())
        .collect();
    let expected: BTreeSet<String> = names(&metrics).difference(&on_demand).cloned().collect();
    assert_eq!(
        registered, expected,
        "INSTRUMENTS.md lists other metric families than a traced lab registers"
    );
    for sample in &samples {
        let row = metrics.iter().find(|r| r[0] == sample.name).unwrap();
        let kind = match sample.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        assert_eq!(row[1], kind, "{} is a {kind}", sample.name);
        let labels: Vec<String> = sample
            .labels
            .iter()
            .map(|(k, _)| format!("`{k}`"))
            .collect();
        let labels = if labels.is_empty() {
            "—".to_string()
        } else {
            labels.join(", ")
        };
        assert_eq!(row[2], labels, "labels of {}", sample.name);
    }

    // Alert rules: the monitor exports one gauge per rule.
    let rules: BTreeSet<String> = samples
        .iter()
        .filter(|s| s.name == "fabric_alert_firing")
        .flat_map(|s| s.labels.iter().map(|(_, v)| v.clone()))
        .collect();
    assert_eq!(rules, names(&rows("Alert rules")));

    // Span names: every span the lab records is catalogued, and carries
    // a trace id exactly when its row keys it by transaction.
    let span_rows = rows("Spans");
    let records: Vec<_> = pipelines.iter().flat_map(|t| t.trace().records()).collect();
    let spans: BTreeSet<String> = records.iter().map(|r| r.name.to_string()).collect();
    assert_eq!(spans, names(&span_rows));
    for record in &records {
        let row = span_rows.iter().find(|r| r[0] == record.name).unwrap();
        assert_eq!(
            record.trace_id != 0,
            row[2] == "transaction",
            "{} is keyed by {}: {record}",
            record.name,
            row[2]
        );
    }

    // Audit kinds: the catalogue lists every kind the lab counted.
    let counted: BTreeSet<String> = samples
        .iter()
        .filter(|s| s.name == "fabric_audit_events_total")
        .flat_map(|s| s.labels.iter().map(|(_, v)| v.clone()))
        .collect();
    let audit = names(&rows("Audit events"));
    assert!(counted.is_subset(&audit), "{counted:?} vs {audit:?}");
}

#[test]
fn catalogue_lists_every_audit_kind() {
    let tx_id = TxId::new("tx");
    let chaincode = ChaincodeId::new("cc");
    let kinds: BTreeSet<String> = [
        AuditEvent::EndorsementByNonMember {
            tx_id: tx_id.clone(),
            collection: CollectionName::new("c"),
            endorser_org: OrgId::new("o"),
        },
        AuditEvent::PolicyFallbackToChaincodeLevel {
            tx_id: tx_id.clone(),
            chaincode: chaincode.clone(),
            collection: CollectionName::new("c"),
        },
        AuditEvent::PlaintextPayloadInTx {
            tx_id: tx_id.clone(),
            chaincode: chaincode.clone(),
            payload_bytes: 1,
        },
        AuditEvent::MvccConflict {
            tx_id: tx_id.clone(),
            chaincode: chaincode.clone(),
        },
        AuditEvent::SbeReCheck {
            tx_id: tx_id.clone(),
            chaincode,
            outcome: TxValidationCode::Valid,
        },
        AuditEvent::DefenseRejected {
            tx_id,
            code: TxValidationCode::BadPayload,
        },
    ]
    .iter()
    .map(|e| e.kind().to_string())
    .collect();
    assert_eq!(kinds, names(&rows("Audit events")));
}
