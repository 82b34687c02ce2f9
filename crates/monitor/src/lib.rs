//! Streaming evaluation over the telemetry streams: who is healthy,
//! what is under attack, and what should page an operator.
//!
//! The paper's defenses only matter if someone notices an attack while
//! it is happening. [`fabric_telemetry`] emits the raw signals — typed
//! [`AuditEvent`]s for the Table II use cases, latency histograms,
//! spans — and this crate is the thing that *watches* them:
//!
//! * **Rate detectors** — sliding-window counts and EWMA baselines over
//!   the audit stream, one named detector per attack class
//!   (`uc1_nonmember_endorsement_rate`, `uc3_plaintext_payload_rate`,
//!   `mvcc_abort_storm`, ...).
//! * **Health model** ([`NodeSample`] → [`NodeHealth`]) — scores commit
//!   lag, commit backlog, gossip anti-entropy staleness, and block-commit
//!   p99 inflation into `Healthy/Degraded/Critical` per node.
//! * **Alert engine** ([`Alert`], [`AlertTransition`]) — firing →
//!   resolved with dedup keys and resolve hysteresis; a rate alert names
//!   the [`AuditEvent`] that tripped it as its evidence, whose
//!   transaction's spans `TxTimeline::collect` finds in the trace sink.
//! * **Renderers** — a text status table for people, a JSON-lines
//!   transition log for tools, and `fabric_alert_firing{rule=...}`
//!   gauges through the Prometheus exporter.
//!
//! The monitor has no settings: the detector set, health limits and
//! hysteresis are fixed (see [`Monitor::new`]). The engine advances only
//! on [`Monitor::observe_tick`] — normally called once per network tick
//! by `FabricNetwork::advance` — and takes no wall-clock input on any
//! alerting decision, so the transition log is a pure function of the
//! block-ordered audit sequence.
//!
//! # Example
//!
//! ```
//! use fabric_monitor::{Monitor, NodeSample};
//! use fabric_telemetry::{AuditEvent, Telemetry};
//! use fabric_types::{CollectionName, OrgId, TxId};
//!
//! let telemetry = Telemetry::new();
//! let monitor = Monitor::new(&telemetry);
//! telemetry.emit(AuditEvent::EndorsementByNonMember {
//!     tx_id: TxId::new("tx1"),
//!     collection: CollectionName::new("PDC1"),
//!     endorser_org: OrgId::new("org3"),
//! });
//! monitor.observe_tick(&[NodeSample {
//!     node: "peer0.org1".into(),
//!     ..NodeSample::default()
//! }]);
//! assert_eq!(
//!     monitor.firing_rules(),
//!     vec!["uc1_nonmember_endorsement_rate".to_string()]
//! );
//! assert!(monitor.render_status().contains("FIRING uc1_nonmember_endorsement_rate"));
//! let evidence = monitor.active_alerts()[0].evidence.clone();
//! assert_eq!(evidence.unwrap().tx_id().as_str(), "tx1");
//! ```
//!
//! [`AuditEvent`]: fabric_telemetry::AuditEvent

mod alert;
mod detector;
mod health;
mod render;

pub use alert::{Alert, AlertPhase, AlertTransition};
pub use health::{HealthVerdict, NodeHealth, NodeSample};

use alert::{AlertBook, Condition};
use detector::{DetectorSpec, DetectorState};
use fabric_telemetry::{Gauge, Telemetry};
use health::HealthModel;
use parking_lot::Mutex;
use render::{render_alerts_jsonl, render_status};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Detector / alert-rule names, one per Table II attack class.
pub const UC1_RULE: &str = "uc1_nonmember_endorsement_rate";
/// Use Case 2: collection policy silently falling back to chaincode level.
pub const UC2_RULE: &str = "uc2_policy_fallback_rate";
/// Use Case 3: plaintext private payload observable in a transaction.
pub const UC3_RULE: &str = "uc3_plaintext_payload_rate";
/// Defense-layer rejections (the defenses are being probed).
pub const DEFENSE_RULE: &str = "defense_rejection_rate";
/// MVCC abort storm: conflicts spiking above the contention baseline.
pub const MVCC_STORM_RULE: &str = "mvcc_abort_storm";
/// Per-node health rule (dedup key `node_critical:<node>`).
pub const NODE_CRITICAL_RULE: &str = "node_critical";

/// The detector set: one rule per attack class.
///
/// UC1/UC2/UC3 and defense rejections are static-threshold at one event
/// — none of them has a legitimate rate in a healthy network. MVCC
/// conflicts do (ordinary contention), so the storm detector is
/// relative-spike: at least 3 aborts in the window *and* 4× the EWMA
/// baseline.
fn detectors() -> Vec<DetectorSpec> {
    vec![
        DetectorSpec::threshold(UC1_RULE, "endorsement_by_non_member", 1, 64),
        DetectorSpec::threshold(UC2_RULE, "policy_fallback_to_chaincode_level", 1, 64),
        DetectorSpec::threshold(UC3_RULE, "plaintext_payload_in_tx", 1, 64),
        DetectorSpec::threshold(DEFENSE_RULE, "defense_rejected", 1, 64),
        DetectorSpec::relative_spike(MVCC_STORM_RULE, "mvcc_conflict", 4.0, 3, 32),
    ]
}

/// Point-in-time snapshot of one detector for status rendering.
#[derive(Debug, Clone)]
pub struct DetectorStatus {
    pub name: &'static str,
    pub windowed: u64,
    pub baseline_window: f64,
    pub active: bool,
    pub total: u64,
}

/// Aggregated point-in-time view of the whole network.
#[derive(Debug, Clone)]
pub struct NetworkStatus {
    /// Monitor tick the snapshot was taken at.
    pub tick: u64,
    /// Per-node health, node-name order.
    pub nodes: Vec<NodeHealth>,
    /// Detector states, in the order [`UC1_RULE`] … [`MVCC_STORM_RULE`].
    pub detectors: Vec<DetectorStatus>,
    /// Firing alerts, key order.
    pub active_alerts: Vec<Alert>,
    /// Firing/resolved transition log, oldest first.
    pub transitions: Vec<AlertTransition>,
}

struct EngineState {
    tick: u64,
    /// Read cursor into the shared [`fabric_telemetry::AuditLog`].
    cursor: usize,
    detectors: Vec<DetectorState>,
    health: HealthModel,
    alerts: AlertBook,
}

struct MonitorInner {
    telemetry: Telemetry,
    /// `fabric_alert_firing{rule=...}` handles, resolved once.
    gauges: Vec<(&'static str, Gauge)>,
    state: Mutex<EngineState>,
}

/// A streaming monitor over one telemetry pipeline. Clones share state;
/// attach to a network with `NetworkBuilder::with_monitor`.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<MonitorInner>,
}

impl Monitor {
    /// A monitor over `telemetry`'s audit stream and metrics, with the
    /// fixed detectors, health limits and hysteresis INSTRUMENTS.md lists
    /// under "Alert rules".
    pub fn new(telemetry: &Telemetry) -> Self {
        let detectors = detectors();
        let mut rules: Vec<&'static str> = detectors.iter().map(|d| d.name).collect();
        rules.push(NODE_CRITICAL_RULE);
        let gauges = rules
            .into_iter()
            .map(|rule| {
                (
                    rule,
                    telemetry.metrics().gauge(
                        "fabric_alert_firing",
                        "1 while at least one alert of this rule is firing",
                        &[("rule", rule)],
                    ),
                )
            })
            .collect();
        Monitor {
            inner: Arc::new(MonitorInner {
                telemetry: telemetry.clone(),
                gauges,
                state: Mutex::new(EngineState {
                    tick: 0,
                    cursor: 0,
                    detectors: detectors.into_iter().map(DetectorState::new).collect(),
                    health: HealthModel::default(),
                    alerts: AlertBook::default(),
                }),
            }),
        }
    }

    /// The telemetry pipeline this monitor watches.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Advances the engine by one logical tick: drains new audit events,
    /// steps every detector, scores `samples`, and runs the alert state
    /// machine. Returns the transitions that happened this tick.
    ///
    /// Must be called from deterministic points (the network tick loop);
    /// no wall clock is read.
    pub fn observe_tick(&self, samples: &[NodeSample]) -> Vec<AlertTransition> {
        let mut st = self.inner.state.lock();
        st.tick += 1;
        let tick = st.tick;

        let events = self.inner.telemetry.audit().events_since(st.cursor);
        st.cursor += events.len();

        // Only active conditions are built: the book counts a key with no
        // entry as inactive, so a quiet tick formats nothing.
        let mut conditions: BTreeMap<String, Condition> = BTreeMap::new();
        for det in &mut st.detectors {
            let count = events.iter().filter(|e| e.kind() == det.spec.kind).count() as u64;
            if count > 0 {
                det.last_event = events
                    .iter()
                    .rev()
                    .find(|e| e.kind() == det.spec.kind)
                    .cloned();
            }
            let eval = det.step(count);
            if eval.active {
                conditions.insert(
                    det.spec.name.to_string(),
                    Condition {
                        rule: det.spec.name,
                        message: format!(
                            "{} {} events in {}-tick window (baseline {:.2})",
                            eval.windowed,
                            det.spec.kind,
                            det.spec.window_ticks,
                            eval.baseline_window
                        ),
                        evidence: det.last_event.clone(),
                    },
                );
            }
        }

        st.health.observe(samples);
        for (node, health) in &st.health.last {
            if health.verdict == HealthVerdict::Critical {
                conditions.insert(
                    format!("{NODE_CRITICAL_RULE}:{node}"),
                    Condition {
                        rule: NODE_CRITICAL_RULE,
                        message: format!("{node}: {}", health.reasons.join("; ")),
                        evidence: None,
                    },
                );
            }
        }

        let transitions = st.alerts.step(tick, &conditions);

        let firing = st.alerts.firing_rules();
        for (rule, gauge) in &self.inner.gauges {
            gauge.set(if firing.iter().any(|r| r == rule) {
                1.0
            } else {
                0.0
            });
        }
        transitions
    }

    /// Aggregated snapshot for rendering.
    pub fn status(&self) -> NetworkStatus {
        let st = self.inner.state.lock();
        NetworkStatus {
            tick: st.tick,
            nodes: st.health.last.values().cloned().collect(),
            detectors: st
                .detectors
                .iter()
                .map(|d| DetectorStatus {
                    name: d.spec.name,
                    windowed: d.last_eval.windowed,
                    baseline_window: d.last_eval.baseline_window,
                    active: d.last_eval.active,
                    total: d.total,
                })
                .collect(),
            active_alerts: st.alerts.active(),
            transitions: st.alerts.transitions(),
        }
    }

    /// The aggregated text status table: one row per node, one per
    /// detector, the firing alerts and the transition-log tail.
    pub fn render_status(&self) -> String {
        render_status(&self.status())
    }

    /// The transition log as JSON lines, one object per transition,
    /// oldest first:
    ///
    /// ```text
    /// {"tick":12,"rule":"uc1_nonmember_endorsement_rate","key":"...","phase":"firing"}
    /// ```
    pub fn alerts_jsonl(&self) -> String {
        render_alerts_jsonl(&self.transitions())
    }

    /// Firing/resolved transition log, oldest first.
    pub fn transitions(&self) -> Vec<AlertTransition> {
        self.inner.state.lock().alerts.transitions()
    }

    /// Rules with at least one firing alert, sorted.
    pub fn firing_rules(&self) -> Vec<String> {
        self.inner.state.lock().alerts.firing_rules()
    }

    /// Firing alerts, key order.
    pub fn active_alerts(&self) -> Vec<Alert> {
        self.inner.state.lock().alerts.active()
    }

    /// Re-baselines the monitor: drops detector windows, health
    /// baselines, and all alert state, and fast-forwards the audit
    /// cursor past everything already emitted. The tick counter keeps
    /// running. Used after known-noisy setup phases (network seeding) so
    /// alerting starts from a clean slate.
    pub fn reset(&self) {
        let mut st = self.inner.state.lock();
        for det in &mut st.detectors {
            det.reset();
        }
        st.health.reset();
        st.alerts.reset();
        st.cursor = self.inner.telemetry.audit().len();
        for (_, gauge) in &self.inner.gauges {
            gauge.set(0.0);
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Monitor")
            .field("tick", &st.tick)
            .field("detectors", &st.detectors.len())
            .field("active_alerts", &st.alerts.active().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_telemetry::AuditEvent;
    use fabric_types::{ChaincodeId, CollectionName, OrgId, TxId};

    fn uc1(n: u64) -> AuditEvent {
        AuditEvent::EndorsementByNonMember {
            tx_id: TxId::new(format!("tx{n}")),
            collection: CollectionName::new("PDC1"),
            endorser_org: OrgId::new("org3"),
        }
    }

    fn conflict(n: u64) -> AuditEvent {
        AuditEvent::MvccConflict {
            tx_id: TxId::new(format!("tx{n}")),
            chaincode: ChaincodeId::new("cc"),
        }
    }

    #[test]
    fn uc1_event_fires_its_detector_and_exports_the_gauge() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        assert!(
            monitor.observe_tick(&[]).is_empty(),
            "quiet tick, no alerts"
        );
        telemetry.emit(uc1(1));
        let transitions = monitor.observe_tick(&[]);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].rule, UC1_RULE);
        assert_eq!(transitions[0].to, AlertPhase::Firing);
        assert!(telemetry
            .metrics()
            .render_prometheus()
            .contains("fabric_alert_firing{rule=\"uc1_nonmember_endorsement_rate\"} 1"));
    }

    #[test]
    fn firing_alert_names_the_newest_event_of_its_tick_as_evidence() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        telemetry.emit(uc1(1));
        telemetry.emit(uc1(2));
        monitor.observe_tick(&[]);
        let alerts = monitor.active_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].evidence, Some(uc1(2)));
        assert!(monitor
            .render_status()
            .contains("evidence: endorsement_by_non_member: tx tx2"));
    }

    #[test]
    fn alert_resolves_after_the_window_drains_and_quiet_hysteresis_passes() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        telemetry.emit(uc1(1));
        monitor.observe_tick(&[]);
        assert_eq!(monitor.firing_rules(), vec![UC1_RULE.to_string()]);
        let mut resolved_at = None;
        for _ in 0..200 {
            for t in monitor.observe_tick(&[]) {
                if t.to == AlertPhase::Resolved {
                    resolved_at = Some(t.tick);
                }
            }
        }
        let resolved_at = resolved_at.expect("alert resolved");
        // Event at tick 1; the 64-tick window drains at tick 65; 64
        // quiet ticks later the alert resolves.
        assert_eq!(resolved_at, 128);
        assert!(monitor.firing_rules().is_empty());
        assert!(monitor.active_alerts().is_empty());
        assert!(telemetry
            .metrics()
            .render_prometheus()
            .contains("fabric_alert_firing{rule=\"uc1_nonmember_endorsement_rate\"} 0"));
    }

    #[test]
    fn mvcc_storm_needs_a_burst_not_a_single_conflict() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        telemetry.emit(conflict(1));
        monitor.observe_tick(&[]);
        assert!(
            monitor.firing_rules().is_empty(),
            "one conflict is normal contention"
        );
        for n in 2..6 {
            telemetry.emit(conflict(n));
        }
        monitor.observe_tick(&[]);
        assert_eq!(monitor.firing_rules(), vec![MVCC_STORM_RULE.to_string()]);
    }

    #[test]
    fn idle_gap_between_load_windows_does_not_fire_a_storm_on_resume() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        let mut next = 0u64;
        let mut emit_conflicts = |n: u64| {
            for _ in 0..n {
                telemetry.emit(conflict(next));
                next += 1;
            }
        };
        // Sustained background contention: 2 MVCC aborts per tick.
        for _ in 0..64 {
            emit_conflicts(2);
            monitor.observe_tick(&[]);
        }
        assert!(monitor.firing_rules().is_empty(), "steady rate is normal");
        // A long idle gap — e.g. the pause between two sweep windows.
        for _ in 0..200 {
            monitor.observe_tick(&[]);
        }
        // Traffic resumes at the same healthy rate: the EWMA baseline
        // must have survived the gap instead of decaying to ~zero and
        // branding the first busy windows an mvcc_abort_storm.
        for _ in 0..40 {
            emit_conflicts(2);
            monitor.observe_tick(&[]);
            assert!(
                monitor.firing_rules().is_empty(),
                "resumed background contention is not a storm"
            );
        }
        // A genuine storm after the gap still fires.
        emit_conflicts(300);
        monitor.observe_tick(&[]);
        assert_eq!(monitor.firing_rules(), vec![MVCC_STORM_RULE.to_string()]);
    }

    #[test]
    fn critical_node_fires_the_per_node_health_rule() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        let lagging = NodeSample {
            node: "peer0.org2".into(),
            committed_height: 1,
            ordered_height: 20,
            ..NodeSample::default()
        };
        let transitions = monitor.observe_tick(&[lagging]);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].rule, NODE_CRITICAL_RULE);
        assert_eq!(transitions[0].key, "node_critical:peer0.org2");
        let status = monitor.status();
        assert_eq!(status.nodes[0].verdict, HealthVerdict::Critical);
    }

    #[test]
    fn reset_rebaselines_past_already_emitted_events() {
        let telemetry = Telemetry::new();
        let monitor = Monitor::new(&telemetry);
        telemetry.emit(uc1(1));
        monitor.observe_tick(&[]);
        assert!(!monitor.firing_rules().is_empty());
        monitor.reset();
        assert!(monitor.firing_rules().is_empty());
        assert!(monitor.transitions().is_empty());
        // Old events are not re-consumed; a fresh one still fires.
        assert!(monitor.observe_tick(&[]).is_empty());
        telemetry.emit(uc1(2));
        assert_eq!(monitor.observe_tick(&[]).len(), 1);
    }

    #[test]
    fn transition_log_is_a_pure_function_of_the_event_sequence() {
        let run = || {
            let telemetry = Telemetry::new();
            let monitor = Monitor::new(&telemetry);
            for i in 0..200u64 {
                if i < 40 && i % 7 == 0 {
                    telemetry.emit(uc1(i));
                }
                if (21..60).contains(&i) {
                    telemetry.emit(conflict(i));
                    telemetry.emit(conflict(i + 100));
                }
                monitor.observe_tick(&[]);
            }
            monitor.transitions()
        };
        let log = run();
        assert!(log.iter().any(|t| t.to == AlertPhase::Resolved), "{log:?}");
        assert_eq!(log, run());
    }
}
