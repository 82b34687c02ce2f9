//! Sliding-window rate detectors over the audit-event stream.
//!
//! Each detector watches one audit-event kind and decides, once per
//! monitor tick, whether its rate condition holds. Two modes:
//!
//! * [`DetectorMode::Threshold`] — the fixed-window count reaches a
//!   static floor. Right for signals that should *never* appear in a
//!   healthy network (a single non-member endorsement is an incident).
//! * [`DetectorMode::RelativeSpike`] — the fixed-window count exceeds
//!   `factor`× an EWMA baseline of the per-tick rate. Right for signals
//!   with a legitimate background rate (MVCC conflicts under contention)
//!   where only a burst above normal is anomalous.
//!
//! All state advances in whole ticks with no wall-clock input, so a
//! detector fed the same audit sequence produces the same decisions —
//! the property the alert-determinism tests pin across repeated runs.

use fabric_telemetry::AuditEvent;
use std::collections::VecDeque;

/// EWMA smoothing factor for the windowed-count baseline.
const BASELINE_ALPHA: f64 = 0.1;

/// How a [`DetectorSpec`] turns a windowed count into an active/inactive
/// decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DetectorMode {
    /// Active when the window holds at least `count` events.
    Threshold {
        /// Static floor on the in-window event count.
        count: u64,
    },
    /// Active when the window holds at least `min_count` events *and*
    /// the count exceeds `factor` × an EWMA baseline of past windowed
    /// counts. `min_count` keeps a cold baseline (≈0) from turning the
    /// first stray event into a "spike".
    RelativeSpike {
        /// Multiple of the baseline the window must exceed.
        factor: f64,
        /// Absolute floor below which no spike fires.
        min_count: u64,
    },
}

/// Static description of one rate detector.
#[derive(Debug, Clone)]
pub(crate) struct DetectorSpec {
    /// Detector (and alert-rule) name, e.g. `uc1_nonmember_endorsement_rate`.
    pub name: &'static str,
    /// The [`AuditEvent::kind`] this detector counts.
    pub kind: &'static str,
    /// Activation mode.
    pub mode: DetectorMode,
    /// Sliding-window length in monitor ticks.
    pub window_ticks: usize,
}

impl DetectorSpec {
    /// Threshold-mode detector.
    pub(crate) fn threshold(
        name: &'static str,
        kind: &'static str,
        count: u64,
        window_ticks: usize,
    ) -> Self {
        DetectorSpec {
            name,
            kind,
            mode: DetectorMode::Threshold { count },
            window_ticks,
        }
    }

    /// Relative-spike-mode detector.
    pub(crate) fn relative_spike(
        name: &'static str,
        kind: &'static str,
        factor: f64,
        min_count: u64,
        window_ticks: usize,
    ) -> Self {
        DetectorSpec {
            name,
            kind,
            mode: DetectorMode::RelativeSpike { factor, min_count },
            window_ticks,
        }
    }
}

/// One detector's decision for the current tick.
#[derive(Debug, Clone)]
pub(crate) struct DetectorEval {
    /// Condition holds this tick.
    pub active: bool,
    /// Events in the sliding window.
    pub windowed: u64,
    /// EWMA baseline of the windowed count (what "normal" looks like
    /// over one window).
    pub baseline_window: f64,
}

/// Runtime state of one detector: the per-tick count ring plus the EWMA
/// baseline.
#[derive(Debug)]
pub(crate) struct DetectorState {
    pub spec: DetectorSpec,
    /// Per-tick counts, newest at the back; at most `window_ticks` long.
    recent: VecDeque<u64>,
    /// Sum of `recent` (maintained incrementally).
    windowed: u64,
    /// EWMA of the windowed count; `None` until the first tick seeds it.
    ewma_windowed: Option<f64>,
    /// Events seen since the detector was created.
    pub total: u64,
    /// The newest matching event, kept so a firing alert can name the
    /// concrete evidence that tripped it.
    pub last_event: Option<AuditEvent>,
    /// The decision made on the most recent tick.
    pub last_eval: DetectorEval,
}

impl DetectorState {
    pub fn new(spec: DetectorSpec) -> Self {
        DetectorState {
            spec,
            recent: VecDeque::new(),
            windowed: 0,
            ewma_windowed: None,
            total: 0,
            last_event: None,
            last_eval: DetectorEval {
                active: false,
                windowed: 0,
                baseline_window: 0.0,
            },
        }
    }

    /// Advances the detector by one tick in which `count` matching
    /// events arrived.
    pub fn step(&mut self, count: u64) -> DetectorEval {
        if self.recent.len() == self.spec.window_ticks {
            if let Some(expired) = self.recent.pop_front() {
                self.windowed -= expired;
            }
        }
        self.recent.push_back(count);
        self.windowed += count;
        self.total += count;

        let baseline_window = self.ewma_windowed.unwrap_or(0.0);
        let active = match self.spec.mode {
            DetectorMode::Threshold { count } => self.windowed >= count,
            DetectorMode::RelativeSpike { factor, min_count } => {
                self.windowed >= min_count && self.windowed as f64 > factor * baseline_window
            }
        };
        // The baseline absorbs this tick only *after* the decision, so a
        // burst is judged against pre-burst normal, not against itself.
        // Idle ticks (no matching events at all) leave the baseline
        // frozen: "normal" is what traffic looks like when there *is*
        // traffic. Otherwise a long quiet gap between load windows
        // decays the EWMA toward zero and the first busy window after
        // the gap — at exactly yesterday's healthy rate — reads as a
        // relative spike.
        if count > 0 {
            let windowed = self.windowed as f64;
            self.ewma_windowed = Some(match self.ewma_windowed {
                Some(prev) => BASELINE_ALPHA * windowed + (1.0 - BASELINE_ALPHA) * prev,
                None => windowed,
            });
        }

        let eval = DetectorEval {
            active,
            windowed: self.windowed,
            baseline_window,
        };
        self.last_eval = eval.clone();
        eval
    }

    /// Drops all window and baseline state (the spec stays).
    pub fn reset(&mut self) {
        self.recent.clear();
        self.windowed = 0;
        self.ewma_windowed = None;
        self.total = 0;
        self.last_event = None;
        self.last_eval = DetectorEval {
            active: false,
            windowed: 0,
            baseline_window: 0.0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_detector_activates_at_the_floor_and_expires_with_the_window() {
        let mut d = DetectorState::new(DetectorSpec::threshold("t", "k", 2, 3));
        assert!(!d.step(1).active, "one event under a floor of two");
        assert!(d.step(1).active, "two events inside the window");
        assert!(d.step(0).active, "both events still in the 3-tick window");
        let eval = d.step(0);
        assert!(!eval.active, "first event slid out of the window");
        assert_eq!(eval.windowed, 1);
        assert!(!d.step(0).active);
        assert_eq!(d.total, 2);
    }

    #[test]
    fn relative_spike_needs_min_count_when_baseline_is_cold() {
        let mut d = DetectorState::new(DetectorSpec::relative_spike("s", "k", 4.0, 3, 4));
        assert!(!d.step(1).active, "single event is not a storm");
        assert!(!d.step(1).active);
        assert!(
            d.step(4).active,
            "burst clears min_count and 4x a cold baseline"
        );
    }

    #[test]
    fn relative_spike_tolerates_a_steady_background_rate() {
        let mut d = DetectorState::new(DetectorSpec::relative_spike("s", "k", 4.0, 3, 4));
        // Long steady run: baseline converges to ~2/tick, window ~8.
        for _ in 0..64 {
            assert!(!d.step(2).active, "steady rate never spikes");
        }
        // A 5x burst in one tick clears factor * baseline.
        let eval = d.step(40);
        assert!(eval.active, "burst over baseline fires: {eval:?}");
    }

    #[test]
    fn idle_gap_does_not_turn_resumed_traffic_into_a_spike() {
        let mut d = DetectorState::new(DetectorSpec::relative_spike("s", "k", 4.0, 3, 4));
        // Establish a healthy background rate of 2 events/tick.
        for _ in 0..64 {
            assert!(!d.step(2).active);
        }
        let baseline_before_gap = d.last_eval.baseline_window;
        // A long idle gap between sweep windows: the baseline must
        // freeze at "what traffic looks like", not decay toward zero.
        for _ in 0..200 {
            assert!(!d.step(0).active, "idle ticks never spike");
        }
        // Traffic resumes at exactly the old healthy rate. Before the
        // idle-freeze fix the decayed baseline flagged this window as an
        // mvcc_abort_storm-style relative spike.
        for _ in 0..16 {
            let eval = d.step(2);
            assert!(
                !eval.active,
                "resumed background rate after an idle gap is not a storm: {eval:?}"
            );
            assert!(
                eval.baseline_window >= baseline_before_gap * 0.8,
                "baseline must survive the gap: {eval:?} vs {baseline_before_gap}"
            );
        }
        // A genuine burst after the gap still fires.
        let eval = d.step(40);
        assert!(eval.active, "real bursts still spike after a gap: {eval:?}");
    }

    #[test]
    fn step_sequences_are_deterministic() {
        let run = || {
            let mut d = DetectorState::new(DetectorSpec::relative_spike("s", "k", 3.0, 2, 5));
            (0..32)
                .map(|i| d.step((i % 7) as u64).active)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_clears_window_and_baseline() {
        let mut d = DetectorState::new(DetectorSpec::threshold("t", "k", 1, 4));
        d.step(5);
        assert!(d.last_eval.active);
        d.reset();
        assert_eq!(d.total, 0);
        assert!(!d.last_eval.active);
        assert!(!d.step(0).active);
    }
}
