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

/// Shipped seeds that do not come from `fabric_wire::derive_seed`: the
/// file, a fragment of the line that seeds, and why it stays.
const UNDERIVED_SEEDS: &[(&str, &str, &str)] = &[
    (
        "crates/raft/src/node.rs",
        "StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9e3779b97f4a7c15))",
        "RaftNode's election stream: deriving it changes which orderer leads a network, and \
         with it every tick metric; it moves with ROADMAP's First-committer delivery",
    ),
    (
        "crates/analyzer/src/corpus.rs",
        "StdRng::seed_from_u64(spec.seed)",
        "a corpus spec's seed is the root of the generator's one stream, shared with no other \
         component; deriving it would re-draw the corpus whose findings the docs cite",
    ),
];

/// Functions whose bodies turn a seed into a stream or a key by design:
/// the rule itself and the seed-to-key step every key goes through.
const SEED_PRIMITIVES: [&str; 2] = ["fn derive_seed(", "fn generate_from_seed("];

/// The shipped part of a source file: everything before its first
/// `#[cfg(test)]`, without `//` comments, and with the bodies of
/// [`SEED_PRIMITIVES`] blanked (newlines kept, so line numbers hold).
fn shipped_code(source: &str) -> String {
    let shipped = source.split("#[cfg(test)]").next().unwrap_or_default();
    let mut code: String = shipped
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n");
    for primitive in SEED_PRIMITIVES {
        let Some(start) = code.find(primitive) else {
            continue;
        };
        let open = start + code[start..].find('{').expect("a function body");
        let close = open + balanced(&code[open..], '{', '}');
        let blank: String = code[open..close]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        code.replace_range(open..close, &blank);
    }
    code
}

/// The length of the bracketed span that opens at `text`'s first char.
fn balanced(text: &str, open: char, close: char) -> usize {
    let mut depth = 0;
    for (i, c) in text.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    text.len()
}

/// Whether an identifier or path names a seed (`seed`, `cfg.seed`,
/// `NETWORK_SEED`).
fn names_a_seed(token: &str) -> bool {
    let last = token.rsplit(['.', ':']).next().unwrap_or_default();
    last.to_ascii_lowercase().contains("seed")
}

/// The identifier-or-path tokens of `code`, each with its byte offset,
/// and every `^` as a token of its own.
fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices() {
        let word = c.is_alphanumeric() || c == '_' || c == '.' || c == ':';
        match (word, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push((s, &code[s..i]));
                start = None;
            }
            _ => {}
        }
        if c == '^' {
            out.push((i, "^"));
        }
    }
    if let Some(s) = start {
        out.push((s, &code[s..]));
    }
    out
}

/// Every place `code` mixes a seed by hand, as `(byte offset, what)`: a
/// seed XOR-ed with anything, or a seeding call whose argument is neither
/// a `derive_seed` call nor a constant.
fn hand_mixed_seeds(code: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    let toks = tokens(code);
    for (i, &(at, tok)) in toks.iter().enumerate() {
        if tok != "^" {
            continue;
        }
        let before = i.checked_sub(1).map(|j| toks[j].1).unwrap_or_default();
        let after = toks.get(i + 1).map(|t| t.1).unwrap_or_default();
        if names_a_seed(before) || names_a_seed(after) {
            found.push((at, format!("`{before} ^ {after}`")));
        }
    }
    for call in ["seed_from_u64(", "generate_from_seed("] {
        for (at, _) in code.match_indices(call) {
            if code[..at].ends_with("fn ") {
                continue;
            }
            let open = at + call.len() - 1;
            let arg = code[open + 1..open + balanced(&code[open..], '(', ')') - 1].trim();
            let derived = arg.starts_with("derive_seed(") || arg.contains("::derive_seed(");
            let constant = tokens(arg).iter().all(|(_, t)| {
                t.starts_with(|c: char| c.is_ascii_digit()) || !t.contains(char::is_lowercase)
            });
            if !derived && !constant {
                found.push((at, format!("`{call}{arg})`")));
            }
        }
    }
    found
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The `.rs` files under every crate's `src` but the benchmark's.
fn shipped_files(root: &Path) -> Vec<PathBuf> {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| !path.ends_with("benchmark"))
        .collect();
    crates.sort();
    crates
        .iter()
        .flat_map(|c| rust_files(&c.join("src")))
        .collect()
}

#[test]
fn every_shipped_seed_is_derived_through_one_function() {
    let root = root();
    let mut excused = BTreeSet::new();
    let mut violations = Vec::new();
    for file in shipped_files(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let source = read(&file);
        let code = shipped_code(&source);
        for (at, what) in hand_mixed_seeds(&code) {
            let line_no = code[..at].lines().count().max(1);
            let line = source.lines().nth(line_no - 1).unwrap_or_default();
            match UNDERIVED_SEEDS
                .iter()
                .position(|(f, fragment, _)| *f == rel && line.contains(fragment))
            {
                Some(listed) => {
                    excused.insert(listed);
                }
                None => violations.push(format!("{rel}:{line_no}: {what}")),
            }
        }
    }
    assert!(
        violations.is_empty(),
        "seeds mixed by hand; derive them with fabric_wire::derive_seed(parent, label):\n{}",
        violations.join("\n")
    );
    for (i, (file, fragment, _)) in UNDERIVED_SEEDS.iter().enumerate() {
        assert!(
            excused.contains(&i),
            "{file} no longer seeds `{fragment}`: drop it from UNDERIVED_SEEDS"
        );
    }
}

#[test]
fn hand_mixed_seeds_are_seen_and_derived_ones_are_not() {
    let flagged = |code: &str| hand_mixed_seeds(&shipped_code(code)).len();
    assert_eq!(
        flagged("let k = Keypair::generate_from_seed(cfg.seed ^ 0xbad0_c0de);"),
        2
    );
    assert_eq!(flagged("let mut rng = StdRng::seed_from_u64(seed);"), 1);
    assert_eq!(flagged("let s = LabConfig { seed: seed ^ 1 };"), 1);
    assert_eq!(flagged("let s = self.seed ^ 0x9ee7 ^ index;"), 1);
    assert_eq!(
        flagged("Keypair::generate_from_seed(derive_seed(seed, \"orderer.key\"))"),
        0
    );
    assert_eq!(
        flagged("StdRng::seed_from_u64(fabric_wire::derive_seed(s, \"raft.drop\"))"),
        0
    );
    assert_eq!(
        flagged("Keypair::generate_from_seed(0xf10a + 1 << BASE_SHIFT)"),
        0
    );
    // Comments, tests and the primitives' own bodies are not shipped mixes.
    assert_eq!(
        flagged("// seed ^ 1\n#[cfg(test)]\nfn t() { seed_from_u64(seed) }"),
        0
    );
    assert_eq!(
        flagged("pub fn derive_seed(parent: u64) -> u64 { let z = parent ^ seed; z }"),
        0
    );
}

/// The byte offsets at which `code` builds a `Transaction` with a struct
/// literal: `Transaction {` (path-qualified or not) that does not follow
/// `struct`, `impl`, `for` or `->`.
fn transaction_literals(code: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("Transaction {")
        .map(|(at, _)| at)
        .filter(|&at| {
            let before = &code[..at];
            let head = before.trim_end_matches(|c: char| ident(c) || c == ':');
            !before.ends_with(ident)
                && !["struct", "impl", "for", "->"]
                    .iter()
                    .any(|word| head.trim_end().ends_with(word))
        })
        .collect()
}

/// One assembler: outside the benchmark, shipped code builds a
/// `Transaction` only in the client SDK, which checks the endorsements it
/// packages, and in `Transaction`'s own `Decode`. An attack drives the
/// same client an honest organization runs.
#[test]
fn only_the_client_and_the_decoder_build_transactions() {
    let root = root();
    let mut violations = Vec::new();
    for file in shipped_files(&root) {
        let rel = file.strip_prefix(&root).unwrap().to_string_lossy();
        let code = shipped_code(&read(&file));
        let decode = code.find("impl Decode for Transaction {").map(|start| {
            let open = start + code[start..].find('{').unwrap();
            open..open + balanced(&code[open..], '{', '}')
        });
        for at in transaction_literals(&code) {
            let allowed = rel == "crates/client/src/lib.rs"
                || (rel == "crates/types/src/transaction.rs"
                    && decode.as_ref().is_some_and(|body| body.contains(&at)));
            if !allowed {
                let line_no = code[..at].lines().count();
                violations.push(format!("{rel}:{line_no}"));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a Transaction built outside fabric_client::Client and its Decode:\n{}",
        violations.join("\n")
    );
}

#[test]
fn transaction_literals_are_told_from_declarations() {
    let found = |code: &str| transaction_literals(code).len();
    assert_eq!(found("let tx = Transaction { tx_id, ..cold };"), 1);
    assert_eq!(found("Some(fabric_types::Transaction { tx_id })"), 1);
    assert_eq!(found("Ok(Transaction { memo, ..cold })"), 1);
    assert_eq!(found("pub struct Transaction {"), 0);
    assert_eq!(
        found("impl Transaction {\nimpl Decode for Transaction {"),
        0
    );
    assert_eq!(found("fn tx() -> Transaction {"), 0);
    assert_eq!(found("let p = PvtTransaction { id };"), 0);
}
