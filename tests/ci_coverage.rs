//! The CI gate runs everything there is to run:
//!
//! * `scripts/ci.sh` runs exactly the examples that `examples/` holds and
//!   `crates/core/Cargo.toml` declares, so an added example is not left
//!   out of step 6 and a deleted one does not fail it;
//! * every `tests/*.rs` file is a `[[test]]` target of
//!   `crates/core/Cargo.toml`, because cargo compiles no other file under
//!   `tests/`, and every target's file exists.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `(name, path)` of every `[[kind]]` table in a Cargo manifest.
fn targets(manifest: &str, kind: &str) -> Vec<(String, String)> {
    let header = format!("[[{kind}]]");
    let mut found = Vec::new();
    let mut current: Option<(String, String)> = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            found.extend(current.take());
            if line == header {
                current = Some(Default::default());
            }
            continue;
        }
        let Some(target) = current.as_mut() else {
            continue;
        };
        let Some((field, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_matches('"').to_string();
        match field.trim() {
            "name" => target.0 = value,
            "path" => target.1 = value,
            _ => {}
        }
    }
    found.extend(current);
    found
}

/// The words of the `for <var> in … ; do` loop over `var` in a shell
/// script, which may continue over `\`-ended lines.
fn loop_words(script: &str, var: &str) -> Vec<String> {
    let head = format!("for {var} in ");
    let start = script
        .find(&head)
        .unwrap_or_else(|| panic!("no `{head}` loop"));
    let body = &script[start + head.len()..];
    let end = body.find("; do").expect("the loop ends with `; do`");
    body[..end]
        .split_whitespace()
        .filter(|word| *word != "\\")
        .map(str::to_string)
        .collect()
}

/// The stems of the `.rs` files directly in `dir`, and the names of its
/// subdirectories that hold a `main.rs`.
fn entries(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let is_target = if path.is_dir() {
                path.join("main.rs").exists()
            } else {
                path.extension().is_some_and(|ext| ext == "rs")
            };
            let stem = path.file_stem()?.to_str()?.to_string();
            is_target.then_some(stem)
        })
        .collect()
}

#[test]
fn ci_runs_every_example_there_is() {
    let root = root();
    let ci = loop_words(&read(&root.join("scripts/ci.sh")), "example");
    let ran: BTreeSet<String> = ci.iter().cloned().collect();
    assert_eq!(ran.len(), ci.len(), "an example runs twice: {ci:?}");
    let manifest = read(&root.join("crates/core/Cargo.toml"));
    let declared: BTreeSet<String> = targets(&manifest, "example")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(ran, declared, "scripts/ci.sh vs crates/core/Cargo.toml");
    assert_eq!(
        ran,
        entries(&root.join("examples")),
        "scripts/ci.sh vs examples/"
    );
}

#[test]
fn every_test_file_is_a_test_target() {
    let root = root();
    let manifest = read(&root.join("crates/core/Cargo.toml"));
    let declared = targets(&manifest, "test");
    for (name, path) in &declared {
        let file = root.join("crates/core").join(path);
        assert!(file.exists(), "[[test]] {name}: {path} does not exist");
    }
    let declared: BTreeSet<String> = declared
        .iter()
        .filter_map(|(_, path)| path.strip_prefix("../../tests/")?.strip_suffix(".rs"))
        .map(str::to_string)
        .collect();
    let files: BTreeSet<String> = entries(&root.join("tests"))
        .into_iter()
        .filter(|stem| root.join("tests").join(format!("{stem}.rs")).is_file())
        .collect();
    let undeclared: Vec<_> = files.difference(&declared).collect();
    assert!(
        undeclared.is_empty(),
        "tests/ files no [[test]] of crates/core/Cargo.toml runs: {undeclared:?}"
    );
}

#[test]
fn lists_are_read_as_written() {
    let manifest = "[package]\nname = \"core\"\n\n[[example]]\nname = \"a\"\npath = \"x/a.rs\"\n\n\
                    [dependencies]\nname = \"not-a-target\"\n\n[[test]]\nname = \"t\"\npath = \"t.rs\"\n";
    assert_eq!(
        targets(manifest, "example"),
        [("a".into(), "x/a.rs".into())]
    );
    assert_eq!(targets(manifest, "test"), [("t".into(), "t.rs".into())]);
    let script = "set -e\nfor example in a b \\\n    c; do\n  run \"$example\"\ndone\n";
    assert_eq!(loop_words(script, "example"), ["a", "b", "c"]);
}
