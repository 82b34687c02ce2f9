//! The docs cite only what exists: every backticked `crates/…`, `tests/…`,
//! `examples/…` or `scripts/…` path in the top-level documents names a
//! file or directory of this repository. EXPERIMENTS.md's "Removed
//! mechanisms" section is skipped, because it cites what was deleted.

use std::path::Path;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "INSTRUMENTS.md",
    "crates/benchmark/README.md",
];

const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "scripts/"];

/// The text of `doc` without the sections that cite removed paths.
fn citing_text(doc: &str, text: &str) -> String {
    if doc != "EXPERIMENTS.md" {
        return text.to_string();
    }
    let mut kept = String::new();
    let mut skipping = false;
    for line in text.lines() {
        if line.starts_with("## ") {
            skipping = line == "## Removed mechanisms";
        }
        if !skipping {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    kept
}

/// The repository paths cited in backticked spans of `text`: each word of
/// a span that starts with one of [`ROOTS`], cut where a path cannot go
/// on (so `tests/a.rs::name` and `net.rs:340` cite the file).
fn cited_paths(text: &str) -> Vec<&str> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    text.split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .filter(|word| ROOTS.iter().any(|root| word.starts_with(root)))
        .map(|word| {
            let end = word.find(|c| !is_path_char(c)).unwrap_or(word.len());
            word[..end].trim_end_matches('.')
        })
        .collect()
}

#[test]
fn every_cited_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut missing = Vec::new();
    let mut cited = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in cited_paths(&citing_text(doc, &text)) {
            cited += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(cited > 50, "only {cited} cited paths found");
    assert!(
        missing.is_empty(),
        "cited paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn citations_are_cut_at_the_path() {
    let text = "see `tests/a.rs::name`, `crates/x/src/net.rs:340` and \
                `examples/b.rs --full`; not `cargo test` or `src/c.rs`.";
    assert_eq!(
        cited_paths(text),
        ["tests/a.rs", "crates/x/src/net.rs", "examples/b.rs"]
    );
    let experiments =
        "## A\n`crates/kept`\n## Removed mechanisms\n`crates/gone`\n## B\n`tests/kept`\n";
    assert_eq!(
        cited_paths(&citing_text("EXPERIMENTS.md", experiments)),
        ["crates/kept", "tests/kept"]
    );
}
