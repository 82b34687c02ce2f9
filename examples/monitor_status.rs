//! Online monitoring and alerting over the attack lab.
//!
//! The attack lab wires the full observability stack: a telemetry
//! pipeline, and a streaming [`Monitor`] the
//! network ticks once per delivered block. This example runs the
//! paper's fake PDC write attack and watches the monitor react:
//!
//! 1. the attack's non-member endorsement trips the
//!    `uc1_nonmember_endorsement_rate` detector and the alert fires,
//!    naming that endorsement as its evidence, whose transaction's spans
//!    the trace sink still holds;
//! 2. the live status table shows per-node health, every detector's
//!    window, and the firing alerts;
//! 3. after a quiet interval the detector windows drain, the alerts
//!    resolve, and the transition log records the full lifecycle;
//! 4. the same log exports as JSON lines for downstream tooling.
//!
//! Run with `cargo run -p fabric-pdc --example monitor_status`.

use fabric_pdc::attacks::{build_lab, run_attack, AttackKind, LabConfig};
use fabric_pdc::prelude::*;

fn main() {
    let mut lab = build_lab(&LabConfig::default());
    let monitor = lab
        .net
        .monitor()
        .expect("the attack lab attaches a monitor")
        .clone();

    println!("=== 1. Fake PDC results injection under the default MAJORITY policy ===\n");
    for kind in AttackKind::all() {
        let outcome = run_attack(&mut lab, kind);
        println!(
            "{:<14} attack {}: {}",
            kind.label(),
            if outcome.succeeded {
                "SUCCEEDS"
            } else {
                "fails  "
            },
            outcome.note
        );
        for t in &outcome.alerts {
            println!("    alert {t}");
        }
    }

    println!("\n=== 2. Network status while the alerts fire ===\n");
    println!("{}", monitor.render_status());

    // Each firing rate alert names the audit event that tripped it; the
    // trace sink holds that transaction's spans on every node.
    let telemetry = lab
        .net
        .telemetry()
        .expect("the attack lab attaches telemetry");
    let records = telemetry.trace().records();
    for alert in monitor.active_alerts() {
        let Some(evidence) = &alert.evidence else {
            continue;
        };
        let timeline = TxTimeline::collect(&records, evidence.tx_id().as_str());
        println!("evidence for {}: {evidence}", alert.key);
        print!("{}", timeline.render());
        assert!(
            timeline.phase("validate").is_some(),
            "the evidence transaction's validation must be traced"
        );
    }

    // Quiet interval: the attack traffic stops, the sliding windows
    // drain (64 ticks), and the resolve hysteresis (64 more) closes the
    // alerts.
    let quiet_ticks = 140;
    println!("\n=== 3. Status after {quiet_ticks} quiet ticks: alerts resolve ===\n");
    lab.net.advance(quiet_ticks);
    println!("{}", monitor.render_status());

    println!("=== 4. Alert transition log (JSON lines) ===\n");
    print!("{}", monitor.alerts_jsonl());

    let transitions = monitor.transitions();
    assert!(
        transitions
            .iter()
            .any(|t| t.to == AlertPhase::Firing && t.rule == "uc1_nonmember_endorsement_rate"),
        "the non-member endorsement alert must have fired"
    );
    assert!(
        transitions.iter().any(|t| t.to == AlertPhase::Resolved),
        "alerts must resolve after the quiet interval"
    );
}
