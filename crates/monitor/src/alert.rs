//! The alert state machine: firing → resolved.
//!
//! Active conditions (detector activations, critical node verdicts) are
//! fed in once per tick keyed by a dedup key (`rule`, or `rule:node`); a
//! key without one is inactive that tick. An alert fires on the first
//! tick its condition holds, and must then stay clear
//! for [`RESOLVE_TICKS`] consecutive ticks before it resolves
//! (hysteresis against flapping). Firing and resolving append to a
//! bounded transition log; a resolved alert leaves the book, and the log
//! is its only record.
//!
//! Everything is keyed and iterated through `BTreeMap`s and advances in
//! whole ticks, so the transition log is a pure function of the
//! condition sequence — the determinism the equivalence tests assert.

use fabric_telemetry::AuditEvent;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// Ticks a condition must stay clear before its alert resolves.
pub(crate) const RESOLVE_TICKS: u64 = 64;
/// Transitions kept in the transition log.
const TRANSITIONS_CAP: usize = 4096;

/// Phase of an alert's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertPhase {
    /// Alert is live.
    Firing,
    /// Condition cleared long enough; alert closed.
    Resolved,
}

impl AlertPhase {
    /// Upper-case label used by renderers (`FIRING ...` lines).
    pub fn label(&self) -> &'static str {
        match self {
            AlertPhase::Firing => "FIRING",
            AlertPhase::Resolved => "RESOLVED",
        }
    }
}

/// One firing alert.
///
/// Carries no wall-clock payload, so two runs that see the same
/// condition sequence fire `==`-identical alerts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Rule name, e.g. `uc1_nonmember_endorsement_rate`.
    pub rule: String,
    /// Dedup key: the rule name, suffixed with the node for per-node
    /// rules (`node_critical:peer0.org1`).
    pub key: String,
    /// Tick the alert fired.
    pub fired_at: u64,
    /// Condition description at the latest active tick.
    pub message: String,
    /// The audit event that tripped the rule when it fired (the newest
    /// matching event of that tick); `None` for rules without audit
    /// evidence (`node_critical`). Its transaction's spans are
    /// `TxTimeline::collect` over the pipeline's trace sink.
    pub evidence: Option<AuditEvent>,
}

/// One entry of the firing/resolved transition log.
///
/// Carries no wall-clock or evidence payload: two runs that see the same
/// condition sequence produce `==`-identical logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Monitor tick the transition happened on.
    pub tick: u64,
    /// Rule name.
    pub rule: String,
    /// Dedup key.
    pub key: String,
    /// `Firing` or `Resolved`.
    pub to: AlertPhase,
}

impl fmt::Display for AlertTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tick={} {} {}", self.tick, self.to.label(), self.key)
    }
}

/// A condition that holds for one dedup key at one tick.
#[derive(Debug, Clone)]
pub(crate) struct Condition {
    pub rule: &'static str,
    pub message: String,
    /// The audit event that tripped the rule, if it has audit evidence.
    pub evidence: Option<AuditEvent>,
}

#[derive(Debug)]
struct ActiveAlert {
    alert: Alert,
    /// Consecutive inactive ticks.
    inactive_streak: u64,
}

/// Bounded alert book: firing alerts and the transition log.
#[derive(Debug, Default)]
pub(crate) struct AlertBook {
    active: BTreeMap<String, ActiveAlert>,
    transitions: VecDeque<AlertTransition>,
}

impl AlertBook {
    /// Advances every tracked key by one tick. `conditions` maps dedup
    /// key → this tick's active condition; keys absent from the map are
    /// inactive. Returns the transitions appended this tick.
    pub fn step(
        &mut self,
        tick: u64,
        conditions: &BTreeMap<String, Condition>,
    ) -> Vec<AlertTransition> {
        let mut out = Vec::new();

        // Firing alerts (including keys with no condition entry this
        // tick — those are inactive) stay up or count toward resolving.
        self.active.retain(|key, state| match conditions.get(key) {
            Some(c) => {
                state.inactive_streak = 0;
                state.alert.message = c.message.clone();
                true
            }
            None => {
                state.inactive_streak += 1;
                let resolves = state.inactive_streak >= RESOLVE_TICKS;
                if resolves {
                    out.push(AlertTransition {
                        tick,
                        rule: state.alert.rule.clone(),
                        key: key.clone(),
                        to: AlertPhase::Resolved,
                    });
                }
                !resolves
            }
        });

        // Newly active keys fire on this same tick.
        for (key, cond) in conditions {
            if self.active.contains_key(key) {
                continue;
            }
            let alert = Alert {
                rule: cond.rule.to_string(),
                key: key.clone(),
                fired_at: tick,
                message: cond.message.clone(),
                evidence: cond.evidence.clone(),
            };
            out.push(AlertTransition {
                tick,
                rule: alert.rule.clone(),
                key: key.clone(),
                to: AlertPhase::Firing,
            });
            self.active.insert(
                key.clone(),
                ActiveAlert {
                    alert,
                    inactive_streak: 0,
                },
            );
        }

        for t in &out {
            if self.transitions.len() == TRANSITIONS_CAP {
                self.transitions.pop_front();
            }
            self.transitions.push_back(t.clone());
        }
        out
    }

    /// Firing alerts, key order.
    pub fn active(&self) -> Vec<Alert> {
        self.active.values().map(|s| s.alert.clone()).collect()
    }

    /// Rules with at least one firing alert, deduped, sorted.
    pub fn firing_rules(&self) -> Vec<String> {
        let mut rules: Vec<String> = self.active.values().map(|s| s.alert.rule.clone()).collect();
        rules.sort();
        rules.dedup();
        rules
    }

    /// The firing/resolved transition log, oldest first.
    pub fn transitions(&self) -> Vec<AlertTransition> {
        self.transitions.iter().cloned().collect()
    }

    /// Drops all alert state and the log.
    pub fn reset(&mut self) {
        self.active.clear();
        self.transitions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(rule: &'static str) -> (String, Condition) {
        (
            rule.to_string(),
            Condition {
                rule,
                message: format!("{rule} condition"),
                evidence: None,
            },
        )
    }

    /// Steps `book` through `ticks` quiet ticks starting at `from`,
    /// returning every transition they produced.
    fn quiet(book: &mut AlertBook, from: u64, ticks: u64) -> Vec<AlertTransition> {
        (from..from + ticks)
            .flat_map(|tick| book.step(tick, &BTreeMap::new()))
            .collect()
    }

    #[test]
    fn fires_immediately_with_for_ticks_one_and_resolves_after_quiet() {
        let mut book = AlertBook::default();
        let active: BTreeMap<_, _> = [cond("r")].into();
        let t1 = book.step(1, &active);
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].to, AlertPhase::Firing);
        assert!(
            quiet(&mut book, 2, RESOLVE_TICKS - 1).is_empty(),
            "one quiet tick short of the resolve hysteresis"
        );
        let last = quiet(&mut book, RESOLVE_TICKS + 1, 1);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].to, AlertPhase::Resolved);
        assert_eq!(last[0].tick, RESOLVE_TICKS + 1);
        assert!(book.active().is_empty());
        assert_eq!(
            book.transitions(),
            [t1[0].clone(), last[0].clone()],
            "the log is the resolved alert's only record"
        );
    }

    #[test]
    fn resolve_hysteresis_rides_through_flapping() {
        let mut book = AlertBook::default();
        let active: BTreeMap<_, _> = [cond("r")].into();
        book.step(1, &active);
        // Quiet for one tick short of resolving, then active again:
        // still one firing alert, no resolve, no re-fire.
        assert!(quiet(&mut book, 2, RESOLVE_TICKS - 1).is_empty());
        assert!(book.step(RESOLVE_TICKS + 1, &active).is_empty());
        assert_eq!(book.firing_rules(), vec!["r".to_string()]);
        assert_eq!(
            book.transitions().len(),
            1,
            "flapping produced no extra transitions"
        );
    }

    #[test]
    fn keys_dedup_and_independent_keys_track_separately() {
        let mut book = AlertBook::default();
        let conditions: BTreeMap<String, Condition> = [
            (
                "node_critical:peer0.org1".to_string(),
                Condition {
                    rule: "node_critical",
                    message: "m".into(),
                    evidence: None,
                },
            ),
            (
                "node_critical:peer0.org2".to_string(),
                Condition {
                    rule: "node_critical",
                    message: "m".into(),
                    evidence: None,
                },
            ),
        ]
        .into();
        let t = book.step(1, &conditions);
        assert_eq!(t.len(), 2, "one alert per key");
        // Same conditions again: already firing, nothing new.
        assert!(book.step(2, &conditions).is_empty());
        assert_eq!(book.firing_rules(), vec!["node_critical".to_string()]);
    }

    /// Fires and resolves one alert `cycles` times; returns the last tick.
    fn cycle(book: &mut AlertBook, cycles: u64) -> u64 {
        let active: BTreeMap<_, _> = [cond("r")].into();
        let mut tick = 0;
        for _ in 0..cycles {
            tick += 1;
            book.step(tick, &active);
            quiet(book, tick + 1, RESOLVE_TICKS);
            tick += RESOLVE_TICKS;
        }
        tick
    }

    #[test]
    fn transition_log_is_bounded() {
        let mut book = AlertBook::default();
        let last = cycle(&mut book, TRANSITIONS_CAP as u64 / 2 + 2);
        let log = book.transitions();
        assert_eq!(log.len(), TRANSITIONS_CAP);
        assert_eq!(log.last().unwrap().tick, last);
    }
}
