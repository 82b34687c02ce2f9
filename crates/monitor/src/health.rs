//! Per-node health scoring.
//!
//! Every monitor tick each node reports a [`NodeSample`] — raw gauges
//! the network layer can read cheaply (chain heights, queue depths,
//! gossip backlog, block-commit p99). The health model scores them against
//! [`HealthThresholds`] into a [`HealthVerdict`], keeping an EWMA
//! baseline of the phase latency so inflation is judged relative to the
//! node's own normal rather than an absolute number.
//!
//! The signals follow the performance-characterization literature's
//! bottleneck indicators: commit lag (a validator falling behind
//! ordering), commit-stage backlog (work queued faster than it drains),
//! anti-entropy staleness (private data not reconciling), and phase-p99
//! inflation (the knee of the latency curve).
//!
//! Verdicts from the integer dimensions (lag / backlog / gossip) are
//! deterministic replays of the simulation; the latency dimension reads
//! wall-clock histograms and therefore only ever *degrades* a node — it
//! never reaches `Critical`, so it cannot perturb the deterministic
//! alert stream.

use std::collections::BTreeMap;

/// Aggregate health verdict for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    /// All dimensions within thresholds.
    Healthy,
    /// At least one dimension past its soft threshold.
    Degraded,
    /// At least one dimension past its hard threshold.
    Critical,
}

impl HealthVerdict {
    /// Lower-case label for renderers and gauges.
    pub fn label(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Critical => "critical",
        }
    }
}

/// One node's raw signals for one monitor tick.
#[derive(Debug, Clone, Default)]
pub struct NodeSample {
    /// Node name, e.g. `peer0.org1` or `orderer0`.
    pub node: String,
    /// Local committed chain height.
    pub committed_height: u64,
    /// Height the ordering service has cut up to (the target the node
    /// should converge to).
    pub ordered_height: u64,
    /// Commit-stage backlog: work accepted but not yet committed
    /// (pending orderer txs, queued blocks).
    pub backlog: u64,
    /// Private-data packages awaiting gossip anti-entropy reconciliation.
    pub gossip_pending: u64,
    /// Block-commit latency p99 in seconds (`fabric_commit_block_seconds`),
    /// when the histogram is available.
    pub stage_p99_seconds: Option<f64>,
}

/// Soft (degraded) and hard (critical) limits for each health dimension.
#[derive(Debug, Clone)]
pub struct HealthThresholds {
    /// Blocks of commit lag tolerated before degraded / critical.
    pub degraded_lag: u64,
    pub critical_lag: u64,
    /// Backlog depth tolerated before degraded / critical.
    pub degraded_backlog: u64,
    pub critical_backlog: u64,
    /// Pending gossip reconciliations tolerated before degraded / critical.
    pub degraded_gossip: u64,
    pub critical_gossip: u64,
    /// p99 must exceed `inflation_factor` × the node's EWMA baseline —
    /// and the absolute floor — to count as inflated.
    pub p99_inflation_factor: f64,
    /// Absolute p99 floor (seconds) below which inflation is ignored.
    pub p99_floor_seconds: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            degraded_lag: 2,
            critical_lag: 8,
            degraded_backlog: 64,
            critical_backlog: 256,
            degraded_gossip: 8,
            critical_gossip: 64,
            p99_inflation_factor: 3.0,
            p99_floor_seconds: 0.001,
        }
    }
}

/// Scored health of one node at one tick.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    pub node: String,
    pub verdict: HealthVerdict,
    /// `ordered_height - committed_height`, saturating.
    pub commit_lag: u64,
    pub backlog: u64,
    pub gossip_pending: u64,
    /// Most recent p99, when sampled.
    pub stage_p99_seconds: Option<f64>,
    /// Human-readable reasons for a non-healthy verdict.
    pub reasons: Vec<String>,
}

/// EWMA smoothing for the per-node p99 baseline.
const P99_ALPHA: f64 = 0.2;

#[derive(Debug, Default)]
struct NodeTrack {
    p99_baseline: Option<f64>,
}

/// Scores [`NodeSample`]s into [`NodeHealth`] verdicts, tracking one
/// latency baseline per node.
#[derive(Debug)]
pub(crate) struct HealthModel {
    thresholds: HealthThresholds,
    tracks: BTreeMap<String, NodeTrack>,
    /// Verdicts from the most recent tick, by node name.
    pub last: BTreeMap<String, NodeHealth>,
}

impl HealthModel {
    pub fn new(thresholds: HealthThresholds) -> Self {
        HealthModel {
            thresholds,
            tracks: BTreeMap::new(),
            last: BTreeMap::new(),
        }
    }

    /// Scores one tick's samples, replacing the previous snapshot.
    pub fn observe(&mut self, samples: &[NodeSample]) {
        let mut next = BTreeMap::new();
        for sample in samples {
            let health = self.score(sample);
            next.insert(sample.node.clone(), health);
        }
        self.last = next;
    }

    fn score(&mut self, sample: &NodeSample) -> NodeHealth {
        let t = &self.thresholds;
        let mut verdict = HealthVerdict::Healthy;
        let mut reasons = Vec::new();
        let mut raise = |v: &mut HealthVerdict, to: HealthVerdict, reason: String| {
            if to > *v {
                *v = to;
            }
            reasons.push(reason);
        };

        let lag = sample
            .ordered_height
            .saturating_sub(sample.committed_height);
        if lag >= t.critical_lag {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!("commit lag {lag} blocks (critical >= {})", t.critical_lag),
            );
        } else if lag >= t.degraded_lag {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!("commit lag {lag} blocks (degraded >= {})", t.degraded_lag),
            );
        }

        if sample.backlog >= t.critical_backlog {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!(
                    "commit backlog {} (critical >= {})",
                    sample.backlog, t.critical_backlog
                ),
            );
        } else if sample.backlog >= t.degraded_backlog {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!(
                    "commit backlog {} (degraded >= {})",
                    sample.backlog, t.degraded_backlog
                ),
            );
        }

        if sample.gossip_pending >= t.critical_gossip {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!(
                    "gossip anti-entropy backlog {} (critical >= {})",
                    sample.gossip_pending, t.critical_gossip
                ),
            );
        } else if sample.gossip_pending >= t.degraded_gossip {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!(
                    "gossip anti-entropy backlog {} (degraded >= {})",
                    sample.gossip_pending, t.degraded_gossip
                ),
            );
        }

        if let Some(p99) = sample.stage_p99_seconds {
            let track = self.tracks.entry(sample.node.clone()).or_default();
            if let Some(baseline) = track.p99_baseline {
                if p99 > t.p99_floor_seconds && p99 > t.p99_inflation_factor * baseline {
                    // Wall-clock-derived: degrades only, never critical,
                    // so timing jitter cannot reach the alert stream.
                    raise(
                        &mut verdict,
                        HealthVerdict::Degraded,
                        format!(
                            "commit p99 {:.3}ms inflated over baseline {:.3}ms",
                            p99 * 1e3,
                            baseline * 1e3
                        ),
                    );
                }
                track.p99_baseline = Some(P99_ALPHA * p99 + (1.0 - P99_ALPHA) * baseline);
            } else {
                track.p99_baseline = Some(p99);
            }
        }

        NodeHealth {
            node: sample.node.clone(),
            verdict,
            commit_lag: lag,
            backlog: sample.backlog,
            gossip_pending: sample.gossip_pending,
            stage_p99_seconds: sample.stage_p99_seconds,
            reasons,
        }
    }

    /// Drops all baselines and the last snapshot.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.last.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: &str) -> NodeSample {
        NodeSample {
            node: node.into(),
            committed_height: 10,
            ordered_height: 10,
            ..NodeSample::default()
        }
    }

    #[test]
    fn in_sync_node_is_healthy() {
        let mut model = HealthModel::new(HealthThresholds::default());
        model.observe(&[sample("peer0.org1")]);
        let h = &model.last["peer0.org1"];
        assert_eq!(h.verdict, HealthVerdict::Healthy);
        assert!(h.reasons.is_empty());
    }

    #[test]
    fn commit_lag_escalates_degraded_then_critical() {
        let mut model = HealthModel::new(HealthThresholds::default());
        let mut s = sample("peer0.org1");
        s.ordered_height = 13; // lag 3 >= degraded 2
        model.observe(&[s.clone()]);
        assert_eq!(model.last["peer0.org1"].verdict, HealthVerdict::Degraded);
        s.ordered_height = 30; // lag 20 >= critical 8
        model.observe(&[s]);
        let h = &model.last["peer0.org1"];
        assert_eq!(h.verdict, HealthVerdict::Critical);
        assert_eq!(h.commit_lag, 20);
        assert!(h.reasons.iter().any(|r| r.contains("commit lag")));
    }

    #[test]
    fn worst_dimension_wins() {
        let mut model = HealthModel::new(HealthThresholds::default());
        let mut s = sample("peer0.org1");
        s.gossip_pending = 9; // degraded
        s.backlog = 500; // critical
        model.observe(&[s]);
        let h = &model.last["peer0.org1"];
        assert_eq!(h.verdict, HealthVerdict::Critical);
        assert_eq!(h.reasons.len(), 2);
    }

    #[test]
    fn p99_inflation_only_degrades_and_tracks_a_baseline() {
        let mut model = HealthModel::new(HealthThresholds::default());
        let mut s = sample("peer0.org1");
        s.stage_p99_seconds = Some(0.002);
        model.observe(&[s.clone()]); // establishes baseline, no verdict yet
        assert_eq!(model.last["peer0.org1"].verdict, HealthVerdict::Healthy);
        s.stage_p99_seconds = Some(0.1); // 50x the baseline
        model.observe(&[s]);
        let h = &model.last["peer0.org1"];
        assert_eq!(
            h.verdict,
            HealthVerdict::Degraded,
            "latency alone never criticals"
        );
        assert!(h.reasons.iter().any(|r| r.contains("p99")));
    }

    #[test]
    fn sub_floor_p99_never_counts_as_inflated() {
        let mut model = HealthModel::new(HealthThresholds::default());
        let mut s = sample("peer0.org1");
        s.stage_p99_seconds = Some(0.000_001);
        model.observe(&[s.clone()]);
        s.stage_p99_seconds = Some(0.000_9); // 900x but under the 1ms floor
        model.observe(&[s]);
        assert_eq!(model.last["peer0.org1"].verdict, HealthVerdict::Healthy);
    }
}
