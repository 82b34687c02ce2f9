//! Finding renderers: plain text, JSON, and SARIF 2.1.0.
//!
//! All renderers are deterministic functions of the (sorted) finding
//! list, so two runs over the same corpus produce byte-identical
//! reports regardless of scan parallelism. The JSON and SARIF encoders
//! are hand-rolled — the workspace builds offline with no serializer
//! dependency.

use crate::{rules, Finding, Severity};
use std::fmt::Write as _;

/// Renders findings as one line each, followed by a summary line.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    let (errors, warnings, notes) = tally(findings);
    let _ = writeln!(
        out,
        "{} finding(s): {errors} error(s), {warnings} warning(s), {notes} note(s)",
        findings.len()
    );
    out
}

/// Renders findings as a JSON report:
/// `{"findings": [...], "summary": {...}}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"severity\": {}, \"subject\": {}, \"uri\": {}, \
             \"collection\": {}, \"message\": {}}}",
            escape(f.rule_id),
            escape(&f.severity.to_string()),
            escape(&f.subject),
            escape(&f.location.uri),
            f.location
                .collection
                .as_deref()
                .map_or_else(|| "null".to_string(), escape),
            escape(&f.message),
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    let (errors, warnings, notes) = tally(findings);
    let _ = write!(
        out,
        "],\n  \"summary\": {{\"errors\": {errors}, \"warnings\": {warnings}, \
         \"notes\": {notes}}}\n}}\n"
    );
    out
}

/// Renders findings as a SARIF 2.1.0 log with the full rule registry in
/// `tool.driver.rules`, so SARIF viewers can show rule metadata even for
/// rules that produced no results.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"fabric-lint\",\n          \
         \"informationUri\": \"https://github.com/hyperledger/fabric\",\n          \
         \"rules\": [",
    );
    for (i, r) in rules().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": {}, \"name\": {}, \"shortDescription\": {{\"text\": {}}}, \
             \"defaultConfiguration\": {{\"level\": {}}}{}}}",
            escape(r.id),
            escape(r.name),
            escape(r.description),
            escape(r.severity.sarif_level()),
            r.use_case
                .map(|uc| format!(", \"properties\": {{\"paperUseCase\": {uc}}}"))
                .unwrap_or_default(),
        );
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = rules()
            .iter()
            .position(|r| r.id == f.rule_id)
            .expect("finding from registered rule");
        let logical = f
            .location
            .collection
            .as_deref()
            .map(|c| {
                format!(
                    ", \"logicalLocations\": [{{\"name\": {}, \"kind\": \"collection\"}}]",
                    escape(c)
                )
            })
            .unwrap_or_default();
        let _ = write!(
            out,
            "\n        {{\"ruleId\": {}, \"ruleIndex\": {rule_index}, \"level\": {}, \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}}}{logical}}}]}}",
            escape(f.rule_id),
            escape(f.severity.sarif_level()),
            escape(&format!("{}: {}", f.subject, f.message)),
            escape(&f.location.uri),
        );
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn tally(findings: &[Finding]) -> (usize, usize, usize) {
    let count = |s| findings.iter().filter(|f| f.severity == s).count();
    (
        count(Severity::Error),
        count(Severity::Warning),
        count(Severity::Note),
    )
}

/// `s` as a JSON string literal, quotes included, with the mandatory
/// escapes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                rule_id: "PDC001",
                severity: Severity::Warning,
                subject: "proj-a".into(),
                location: Location::in_collection("collections.json", "c1"),
                message: "no EndorsementPolicy".into(),
            },
            Finding {
                rule_id: "PDC009",
                severity: Severity::Error,
                subject: "proj-a".into(),
                location: Location::artifact("cc.go"),
                message: "leaks \"secret\" via payload".into(),
            },
        ]
    }

    #[test]
    fn text_has_one_line_per_finding_plus_summary() {
        let text = render_text(&sample());
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("2 finding(s): 1 error(s), 1 warning(s), 0 note(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("leaks \\\"secret\\\" via payload"));
        assert!(json.contains("\"summary\": {\"errors\": 1, \"warnings\": 1, \"notes\": 0}"));
        assert!(json.contains("\"collection\": \"c1\""));
        assert!(json.contains("\"collection\": null"));
    }

    #[test]
    fn sarif_lists_every_rule_and_indexes_results() {
        let sarif = render_sarif(&sample());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        for r in rules() {
            assert!(sarif.contains(&format!("\"id\": \"{}\"", r.id)), "{}", r.id);
        }
        assert!(sarif.contains("\"ruleId\": \"PDC001\", \"ruleIndex\": 0"));
        assert!(sarif.contains("\"paperUseCase\": 2"));
        assert!(sarif.contains("\"logicalLocations\": [{\"name\": \"c1\""));
    }

    #[test]
    fn empty_reports_are_well_formed() {
        assert!(render_json(&[]).contains("\"findings\": []"));
        assert!(render_sarif(&[]).contains("\"results\": []"));
        assert!(render_text(&[]).contains("0 finding(s)"));
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\tb\nc"), "\"a\\tb\\nc\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
