//! Per-node health scoring.
//!
//! Every monitor tick each node reports a [`NodeSample`] — raw gauges
//! the network layer can read cheaply (chain heights, queue depths,
//! gossip backlog, block-commit p99). The health model scores them against
//! fixed limits into a [`HealthVerdict`], keeping an EWMA
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

/// Blocks of commit lag at which a node is degraded / critical.
const DEGRADED_LAG: u64 = 2;
const CRITICAL_LAG: u64 = 8;
/// Backlog depth at which a node is degraded / critical.
const DEGRADED_BACKLOG: u64 = 64;
const CRITICAL_BACKLOG: u64 = 256;
/// Unreconciled gossip packages at which a node is degraded / critical.
const DEGRADED_GOSSIP: u64 = 8;
const CRITICAL_GOSSIP: u64 = 64;
/// A p99 above this multiple of the node's EWMA baseline, and above the
/// absolute floor (seconds), counts as inflated.
const P99_INFLATION_FACTOR: f64 = 3.0;
const P99_FLOOR_SECONDS: f64 = 0.001;

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
#[derive(Debug, Default)]
pub(crate) struct HealthModel {
    tracks: BTreeMap<String, NodeTrack>,
    /// Verdicts from the most recent tick, by node name.
    pub last: BTreeMap<String, NodeHealth>,
}

impl HealthModel {
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
        if lag >= CRITICAL_LAG {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!("commit lag {lag} blocks (critical >= {CRITICAL_LAG})"),
            );
        } else if lag >= DEGRADED_LAG {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!("commit lag {lag} blocks (degraded >= {DEGRADED_LAG})"),
            );
        }

        if sample.backlog >= CRITICAL_BACKLOG {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!(
                    "commit backlog {} (critical >= {CRITICAL_BACKLOG})",
                    sample.backlog
                ),
            );
        } else if sample.backlog >= DEGRADED_BACKLOG {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!(
                    "commit backlog {} (degraded >= {DEGRADED_BACKLOG})",
                    sample.backlog
                ),
            );
        }

        if sample.gossip_pending >= CRITICAL_GOSSIP {
            raise(
                &mut verdict,
                HealthVerdict::Critical,
                format!(
                    "gossip anti-entropy backlog {} (critical >= {CRITICAL_GOSSIP})",
                    sample.gossip_pending
                ),
            );
        } else if sample.gossip_pending >= DEGRADED_GOSSIP {
            raise(
                &mut verdict,
                HealthVerdict::Degraded,
                format!(
                    "gossip anti-entropy backlog {} (degraded >= {DEGRADED_GOSSIP})",
                    sample.gossip_pending
                ),
            );
        }

        if let Some(p99) = sample.stage_p99_seconds {
            let track = self.tracks.entry(sample.node.clone()).or_default();
            if let Some(baseline) = track.p99_baseline {
                if p99 > P99_FLOOR_SECONDS && p99 > P99_INFLATION_FACTOR * baseline {
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
        let mut model = HealthModel::default();
        model.observe(&[sample("peer0.org1")]);
        let h = &model.last["peer0.org1"];
        assert_eq!(h.verdict, HealthVerdict::Healthy);
        assert!(h.reasons.is_empty());
    }

    #[test]
    fn commit_lag_escalates_degraded_then_critical() {
        let mut model = HealthModel::default();
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
        let mut model = HealthModel::default();
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
        let mut model = HealthModel::default();
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
        let mut model = HealthModel::default();
        let mut s = sample("peer0.org1");
        s.stage_p99_seconds = Some(0.000_001);
        model.observe(&[s.clone()]);
        s.stage_p99_seconds = Some(0.000_9); // 900x but under the 1ms floor
        model.observe(&[s]);
        assert_eq!(model.last["peer0.org1"].verdict, HealthVerdict::Healthy);
    }
}
