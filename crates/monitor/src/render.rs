//! Renderers for monitor state: the aggregated text status table for
//! people and the JSON-lines alert export for tools.

use crate::alert::{AlertPhase, AlertTransition};
use crate::NetworkStatus;
use fabric_telemetry::json_str;
use std::fmt::Write as _;

/// How many transition-log tail entries the status table shows.
const RECENT_TRANSITIONS: usize = 10;

/// Renders the aggregated `network status` snapshot: one row per node,
/// one row per detector, active alerts, and the transition-log tail.
pub(crate) fn render_status(status: &NetworkStatus) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "network status @ tick {}", status.tick);

    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>6} {:>9} {:>8} {:>9}",
        "NODE", "HEALTH", "LAG", "BACKLOG", "GOSSIP", "P99(ms)"
    );
    if status.nodes.is_empty() {
        let _ = writeln!(out, "  (no node samples yet)");
    }
    for node in &status.nodes {
        let p99 = node
            .stage_p99_seconds
            .map(|s| format!("{:.3}", s * 1e3))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:>6} {:>9} {:>8} {:>9}",
            node.node,
            node.verdict.label(),
            node.commit_lag,
            node.backlog,
            node.gossip_pending,
            p99
        );
        for reason in &node.reasons {
            let _ = writeln!(out, "    - {reason}");
        }
    }

    let _ = writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>7} {:>8}",
        "DETECTOR", "WINDOW", "BASELINE", "ACTIVE", "TOTAL"
    );
    for det in &status.detectors {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.2} {:>7} {:>8}",
            det.name,
            det.windowed,
            det.baseline_window,
            if det.active { "yes" } else { "no" },
            det.total
        );
    }

    let _ = writeln!(out, "ALERTS");
    if status.active_alerts.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for alert in &status.active_alerts {
        let _ = writeln!(
            out,
            "  {} {} since_tick={} {}",
            AlertPhase::Firing.label(),
            alert.key,
            alert.fired_at,
            alert.message,
        );
        if let Some(evidence) = &alert.evidence {
            let _ = writeln!(out, "    evidence: {evidence}");
        }
    }

    let _ = writeln!(out, "RECENT TRANSITIONS");
    let tail = status
        .transitions
        .iter()
        .rev()
        .take(RECENT_TRANSITIONS)
        .collect::<Vec<_>>();
    if tail.is_empty() {
        let _ = writeln!(out, "  (none)");
    }
    for t in tail.into_iter().rev() {
        let _ = writeln!(out, "  {t}");
    }
    out
}

/// Renders the transition log as JSON lines (`Monitor::alerts_jsonl`).
pub(crate) fn render_alerts_jsonl(transitions: &[AlertTransition]) -> String {
    let mut out = String::new();
    for t in transitions {
        let _ = writeln!(
            out,
            "{{\"tick\":{},\"rule\":{},\"key\":{},\"phase\":\"{}\"}}",
            t.tick,
            json_str(&t.rule),
            json_str(&t.key),
            match t.to {
                AlertPhase::Firing => "firing",
                AlertPhase::Resolved => "resolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthVerdict, NodeHealth};
    use crate::{DetectorStatus, UC1_RULE};

    fn transition(tick: u64, to: AlertPhase) -> AlertTransition {
        AlertTransition {
            tick,
            rule: UC1_RULE.to_string(),
            key: UC1_RULE.to_string(),
            to,
        }
    }

    #[test]
    fn status_table_carries_nodes_detectors_and_transitions() {
        let status = NetworkStatus {
            tick: 42,
            nodes: vec![NodeHealth {
                node: "peer0.org1".into(),
                verdict: HealthVerdict::Healthy,
                commit_lag: 0,
                backlog: 0,
                gossip_pending: 0,
                stage_p99_seconds: Some(0.0012),
                reasons: vec![],
            }],
            detectors: vec![DetectorStatus {
                name: UC1_RULE,
                windowed: 3,
                baseline_window: 0.0,
                active: true,
                total: 3,
            }],
            active_alerts: vec![],
            transitions: vec![
                transition(40, AlertPhase::Firing),
                transition(41, AlertPhase::Resolved),
            ],
        };
        let text = render_status(&status);
        assert!(text.contains("network status @ tick 42"));
        assert!(text.contains("NODE"));
        assert!(text.contains("peer0.org1"));
        assert!(text.contains("healthy"));
        assert!(text.contains(UC1_RULE));
        assert!(text.contains("FIRING"));
        assert!(text.contains("RESOLVED"));
    }

    #[test]
    fn jsonl_export_is_one_object_per_transition() {
        let jsonl = render_alerts_jsonl(&[
            transition(7, AlertPhase::Firing),
            transition(9, AlertPhase::Resolved),
        ]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"tick\":7,\"rule\":\"uc1_nonmember_endorsement_rate\",\
             \"key\":\"uc1_nonmember_endorsement_rate\",\"phase\":\"firing\"}"
        );
        assert!(lines[1].contains("\"phase\":\"resolved\""));
    }

    #[test]
    fn jsonl_export_escapes_control_characters_in_keys() {
        let mut t = transition(3, AlertPhase::Firing);
        t.key = "node_critical:peer\t0\r.org1\u{1}".to_string();
        let jsonl = render_alerts_jsonl(&[t]);
        assert!(
            jsonl.contains(r#""key":"node_critical:peer\t0\r.org1\u0001""#),
            "{jsonl}"
        );
        assert!(!jsonl.trim_end().chars().any(char::is_control), "{jsonl}");
    }
}
