//! `fabric-lint` — a rule-based linter for private data collection (PDC)
//! misconfigurations, and the information-flow analysis of the chaincode
//! behind them.
//!
//! The paper shows that PDC privacy rests on configuration the platform
//! does not check: collections that omit the optional
//! `EndorsementPolicy` fall back to the chaincode-level policy (Use
//! Case 2), endorsement policies satisfiable by collection non-members
//! admit forged PDC results (Use Case 1), and chaincode that returns
//! private values through the response payload publishes them to every
//! ordering and committing node (Use Case 3, Listings 1–2; 91.67 % of
//! the GitHub corpus).
//!
//! This crate turns those findings into machine-checkable rules:
//!
//! * [`LintSubject`] is the structured input — one chaincode (or scanned
//!   project) with its channel organizations, chaincode-level policy,
//!   collection configurations, and any known payload leaks. Build one
//!   from a live [`ChaincodeDefinition`] with
//!   [`LintSubject::from_definition`], or from a corpus scan (see
//!   `fabric-analyzer`).
//! * [`lint_subject`] runs every registered rule and returns sorted
//!   [`Finding`]s; [`rules()`] is the stable registry (`PDC001`…).
//! * [`flow`] drives a *live* chaincode through the stub API with planted
//!   sentinels and reports every flow of private data into a sink with a
//!   wider audience, the Use Case 3 response payload included.
//! * [`render`] emits the findings as plain text, JSON, or SARIF 2.1.0.
//!
//! [`ChaincodeDefinition`]: fabric_chaincode::ChaincodeDefinition

pub mod flow;
pub mod render;
pub mod rules;
pub mod subject;

// The flow analysis internals, re-exported through [`flow`].
mod lattice;
mod registry;
mod taint;

pub use rules::{lint_subject, lint_subjects, rule, rules, sort_and_dedup};
pub use subject::{CollectionFacts, LeakChannel, LeakFact, LintSubject};

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; worth reviewing.
    Note,
    /// Likely misconfiguration; exploitable under extra assumptions.
    Warning,
    /// Violates a paper-demonstrated attack precondition.
    Error,
}

impl Severity {
    /// The SARIF `level` string for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// Static metadata of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable identifier (`PDC001`…). Never reused or renumbered.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Default severity of findings from this rule.
    pub severity: Severity,
    /// The paper use case the rule guards (1, 2, 3), if any.
    pub use_case: Option<u8>,
    /// One-line description.
    pub description: &'static str,
}

/// Where a finding points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Location {
    /// Artifact URI: a file path for scanned projects, or a
    /// `network:<chaincode>` pseudo-URI for live definitions.
    pub uri: String,
    /// The collection the finding concerns, when applicable.
    pub collection: Option<String>,
}

impl Location {
    /// A location in an artifact with no collection context.
    pub fn artifact(uri: impl Into<String>) -> Self {
        Location {
            uri: uri.into(),
            collection: None,
        }
    }

    /// A location naming a collection inside an artifact.
    pub fn in_collection(uri: impl Into<String>, collection: impl Into<String>) -> Self {
        Location {
            uri: uri.into(),
            collection: Some(collection.into()),
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.collection {
            Some(c) => write!(f, "{}#{}", self.uri, c),
            None => f.write_str(&self.uri),
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (its stable ID).
    pub rule_id: &'static str,
    /// Severity of this particular finding (defaults to the rule's; a rule
    /// may escalate, e.g. a vacuous `0-of` policy).
    pub severity: Severity,
    /// The subject (project/chaincode name) the finding belongs to.
    pub subject: String,
    /// Where the problem is.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The stable sort key: subject, then rule, then location, then
    /// message. Reports sorted by this key are byte-identical no matter
    /// what order rules or scan workers produced the findings in.
    pub fn sort_key(&self) -> (&str, &str, &Location, &str) {
        (&self.subject, self.rule_id, &self.location, &self.message)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {} ({})",
            self.severity, self.rule_id, self.subject, self.message, self.location
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.sarif_level(), "error");
    }

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = rules().iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "rule IDs must be unique and ascending");
        assert!(ids.iter().all(|id| id.starts_with("PDC")));
    }

    #[test]
    fn every_paper_use_case_has_a_rule() {
        for uc in 1..=3u8 {
            assert!(
                rules().iter().any(|r| r.use_case == Some(uc)),
                "no rule covers use case {uc}"
            );
        }
    }

    #[test]
    fn finding_display_mentions_rule_and_location() {
        let f = Finding {
            rule_id: "PDC001",
            severity: Severity::Warning,
            subject: "proj".into(),
            location: Location::in_collection("collections.json", "c1"),
            message: "msg".into(),
        };
        let s = f.to_string();
        assert!(s.contains("PDC001") && s.contains("collections.json#c1"));
    }
}
