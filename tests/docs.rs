//! The docs cite only what exists, and each stays within its size:
//!
//! * every backticked `crates/…`, `tests/…`, `examples/…` or `scripts/…`
//!   path in the top-level documents names a file or directory of this
//!   repository. In EXPERIMENTS.md's "Removed mechanisms" section only
//!   the table rows that name a commit are skipped, because they cite
//!   what that commit still had;
//! * every `DESIGN.md §N` in the docs, the Rust sources, `scripts/ci.sh`
//!   and the verify notes, and every bare `§N` in DESIGN.md itself, names
//!   one of DESIGN.md's `## N.` headings;
//! * every section quoted by name — `DESIGN.md`, `EXPERIMENTS.md` or
//!   `ROADMAP`, then a comma or `'s`, then the name in double quotes — is
//!   found in the document it names;
//! * EXPERIMENTS.md, DESIGN.md and README.md stay under their byte
//!   ceilings, so results and rules do not regrow their history.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "INSTRUMENTS.md",
    "crates/benchmark/README.md",
];

const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "scripts/"];

/// Documents a citation may quote a section of by name, and the file each
/// name refers to.
const NAMED: [(&str, &str); 3] = [
    ("DESIGN.md", "DESIGN.md"),
    ("EXPERIMENTS.md", "EXPERIMENTS.md"),
    ("ROADMAP", "ROADMAP.md"),
];

const CEILINGS: [(&str, usize); 3] = [
    ("EXPERIMENTS.md", 27_648),
    ("DESIGN.md", 20_480),
    ("README.md", 14_336),
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Whether `line` names a commit: a backticked span of 7 to 40 hex digits.
fn names_commit(line: &str) -> bool {
    line.split('`')
        .skip(1)
        .step_by(2)
        .any(|span| (7..=40).contains(&span.len()) && span.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// The text of `doc` without the lines that cite removed paths: the
/// commit-naming table rows of EXPERIMENTS.md's "Removed mechanisms".
fn citing_text(doc: &str, text: &str) -> String {
    let mut kept = String::new();
    let mut removed = false;
    for line in text.lines() {
        if line.starts_with("## ") {
            removed = doc == "EXPERIMENTS.md" && line == "## Removed mechanisms";
        }
        if !(removed && line.starts_with('|') && names_commit(line)) {
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

/// The leading number of `text`, and the rest.
fn number(text: &str) -> Option<(u32, &str)> {
    let end = text
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len());
    Some((text[..end].parse().ok()?, &text[end..]))
}

/// The DESIGN.md sections `text` cites: `DESIGN.md §N` (or `DESIGN §N`),
/// every section of a range `§N–§M`, and, when `text` is DESIGN.md
/// itself, every bare `§N`. The paper's own sections (`§V-A`) are roman.
fn cited_sections(text: &str, own: bool) -> Vec<u32> {
    let mut cited = Vec::new();
    let mut cite = |after: &str| {
        if let Some((first, rest)) = number(after) {
            let last = rest
                .strip_prefix("–§")
                .or_else(|| rest.strip_prefix("-§"))
                .and_then(number)
                .map_or(first, |(last, _)| last);
            cited.extend(first..=last.max(first));
        }
    };
    if own {
        text.split('§').skip(1).for_each(&mut cite);
    } else {
        for prefix in ["DESIGN.md §", "DESIGN §"] {
            for (at, _) in text.match_indices(prefix) {
                cite(&text[at + prefix.len()..]);
            }
        }
    }
    cited
}

/// The numbers of DESIGN.md's `## N.` headings.
fn design_sections(design: &str) -> Vec<u32> {
    design
        .lines()
        .filter_map(|line| line.strip_prefix("## "))
        .filter_map(|heading| number(heading).filter(|(_, rest)| rest.starts_with('.')))
        .map(|(n, _)| n)
        .collect()
}

/// `text` with each line break, and the comment leader and indentation
/// after it, read as one space, so a quoted name may wrap.
fn joined(text: &str) -> String {
    text.lines()
        .map(|line| {
            let line = line.trim_start();
            ["//!", "///", "//", "#"]
                .iter()
                .find_map(|leader| line.strip_prefix(leader))
                .unwrap_or(line)
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The section names `text` quotes from `doc`: `doc, "Name"`,
/// `doc §N, "Name"` and `doc's "Name"`.
fn cited_names<'a>(text: &'a str, doc: &str) -> Vec<&'a str> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(doc) {
        let mut rest = &text[at + doc.len()..];
        if let Some(after) = rest.strip_prefix(" §") {
            rest = number(after).map_or(rest, |(_, after)| after);
        }
        let Some(quoted) = rest
            .strip_prefix(", \"")
            .or_else(|| rest.strip_prefix("'s \""))
        else {
            continue;
        };
        if let Some(end) = quoted.find('"') {
            names.push(&quoted[..end]);
        }
    }
    names
}

/// Every file that may cite a DESIGN.md section: the docs and ROADMAP.md,
/// the `.rs` files under `crates/`, `tests/` and `examples/`,
/// `scripts/ci.sh`, and the verify notes.
fn citing_files(root: &Path) -> Vec<PathBuf> {
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let mut files: Vec<PathBuf> = DOCS
        .iter()
        .chain(&[
            "ROADMAP.md",
            "scripts/ci.sh",
            ".claude/skills/verify/SKILL.md",
        ])
        .map(|file| root.join(file))
        .filter(|path| path.exists())
        .collect();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files
}

#[test]
fn every_cited_path_exists() {
    let root = root();
    let mut missing = Vec::new();
    let mut cited = 0;
    for doc in DOCS {
        let text = read(&root.join(doc));
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
    let experiments = "## A\n`crates/kept`\n## Removed mechanisms\n\
                       | `crates/gone` | `e297ab5` |\nprose on `crates/cited`\n\
                       | `crates/no_commit` | later |\n## B\n`tests/kept`\n";
    assert_eq!(
        cited_paths(&citing_text("EXPERIMENTS.md", experiments)),
        [
            "crates/kept",
            "crates/cited",
            "crates/no_commit",
            "tests/kept"
        ]
    );
    assert_eq!(
        cited_paths(&citing_text("README.md", experiments)).len(),
        5,
        "only EXPERIMENTS.md cites removed paths"
    );
}

#[test]
fn every_cited_design_section_exists() {
    let root = root();
    let sections = design_sections(&read(&root.join("DESIGN.md")));
    assert!(sections.len() >= 10, "DESIGN.md headings: {sections:?}");
    let mut dangling = Vec::new();
    let mut cited = 0;
    for file in citing_files(&root) {
        let own = file.ends_with("DESIGN.md");
        for n in cited_sections(&read(&file), own) {
            cited += 1;
            if !sections.contains(&n) {
                let name = file.strip_prefix(&root).unwrap_or(&file).display();
                dangling.push(format!("{name}: §{n}"));
            }
        }
    }
    assert!(cited > 10, "only {cited} section citations found");
    assert!(
        dangling.is_empty(),
        "DESIGN.md sections cited but not defined:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn every_quoted_section_name_exists() {
    let root = root();
    let targets: Vec<(&str, String)> = NAMED
        .iter()
        .map(|(doc, file)| (*doc, joined(&read(&root.join(file)))))
        .collect();
    let mut dangling = Vec::new();
    let mut cited = 0;
    for file in citing_files(&root) {
        let text = joined(&read(&file));
        for (doc, target) in &targets {
            for name in cited_names(&text, doc) {
                cited += 1;
                if !target.contains(name) {
                    let from = file.strip_prefix(&root).unwrap_or(&file).display();
                    dangling.push(format!("{from}: {doc}, {name:?}"));
                }
            }
        }
    }
    assert!(cited > 5, "only {cited} quoted section names found");
    assert!(
        dangling.is_empty(),
        "sections quoted by name but not found:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn section_citations_are_read_as_written() {
    // `\u{a7}` is `§`, spelled so that this file cites no section itself.
    let text = "DESIGN.md \u{a7}3, DESIGN \u{a7}8\u{2013}\u{a7}10 and \
                DESIGN.md \u{a7}12; not the paper's \u{a7}V-A or \u{a7}4";
    assert_eq!(cited_sections(text, false), [3, 12, 8, 9, 10]);
    assert_eq!(cited_sections(text, true), [3, 8, 10, 12, 4]);
    let design = "# T\n## 1. One\n## 2. Two\n### 3. Sub\n## Notes\n";
    assert_eq!(design_sections(design), [1, 2]);
    let quoting = "(DESIGN.md, \"Hashing\n//! discipline\"), DESIGN.md \u{a7}9, \
                   \"Recording a span\", and EXPERIMENTS.md's \"Fig. 11\"";
    let quoting = joined(quoting);
    assert_eq!(
        cited_names(&quoting, "DESIGN.md"),
        ["Hashing discipline", "Recording a span"]
    );
    assert_eq!(cited_names(&quoting, "EXPERIMENTS.md"), ["Fig. 11"]);
}

#[test]
fn documents_stay_within_their_ceilings() {
    let root = root();
    let over: Vec<String> = CEILINGS
        .iter()
        .filter_map(|&(doc, ceiling)| {
            let bytes = read(&root.join(doc)).len();
            (bytes > ceiling).then(|| format!("{doc}: {bytes} B > {ceiling} B"))
        })
        .collect();
    assert!(
        over.is_empty(),
        "documents over their ceilings:\n{}",
        over.join("\n")
    );
}
