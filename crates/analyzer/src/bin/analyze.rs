//! `analyze` — the static-analysis CLI (the Rust port of the paper's
//! Python tool).
//!
//! ```console
//! $ analyze scan <dir> [--json]            # scan a corpus directory
//! $ analyze project <dir> [--json]         # detail scan of one project
//! $ analyze lint <dir> [--json] [--sarif <path>] [--flow]
//!                                          # scan + run the PDC linter
//!                                          # (--flow adds taint analysis)
//! $ analyze generate <dir> [--full]        # materialize a synthetic corpus
//! ```
//!
//! Unknown flags are errors: a typo like `--jsno` fails loudly instead of
//! silently changing the output format.

use fabric_analyzer::{
    corpus, dir_is_project, lint_corpus, scan_corpus, scan_project, CorpusReport, CorpusSpec,
};
use fabric_lint::render;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  analyze scan <corpus-dir> [--json]
  analyze project <project-dir> [--json]
  analyze lint <dir> [--json] [--sarif <path>] [--flow]
  analyze generate <out-dir> [--full]";

/// Parsed command line: positionals plus the accepted flags.
struct Cli {
    command: String,
    dir: PathBuf,
    json: bool,
    full: bool,
    flow: bool,
    sarif: Option<PathBuf>,
}

impl Cli {
    /// Parses the argument vector; any unknown flag or missing value is
    /// an `Err` with a message.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut positionals: Vec<&str> = Vec::new();
        let mut json = false;
        let mut full = false;
        let mut flow = false;
        let mut sarif = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => json = true,
                "--full" => full = true,
                "--flow" => flow = true,
                "--sarif" => {
                    let path = it
                        .next()
                        .ok_or_else(|| "--sarif requires an output path".to_string())?;
                    sarif = Some(PathBuf::from(path));
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag: {flag}"));
                }
                positional => positionals.push(positional),
            }
        }
        let [command, dir] = positionals[..] else {
            return Err(format!(
                "expected exactly a command and a directory, got {} positional argument(s)",
                positionals.len()
            ));
        };
        let allowed: &[&str] = match command {
            "scan" | "project" => &["--json"],
            "lint" => &["--json", "--sarif", "--flow"],
            "generate" => &["--full"],
            other => return Err(format!("unknown command: {other}")),
        };
        if json && !allowed.contains(&"--json") {
            return Err(format!("--json is not accepted by `{command}`"));
        }
        if full && !allowed.contains(&"--full") {
            return Err(format!("--full is not accepted by `{command}`"));
        }
        if sarif.is_some() && !allowed.contains(&"--sarif") {
            return Err(format!("--sarif is not accepted by `{command}`"));
        }
        if flow && !allowed.contains(&"--flow") {
            return Err(format!("--flow is not accepted by `{command}`"));
        }
        Ok(Cli {
            command: command.to_string(),
            dir: PathBuf::from(dir),
            json,
            full,
            flow,
            sarif,
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match cli.command.as_str() {
        "scan" => cmd_scan(&cli.dir, cli.json),
        "project" => cmd_project(&cli.dir, cli.json),
        "lint" => cmd_lint(&cli.dir, cli.json, cli.flow, cli.sarif.as_deref()),
        "generate" => cmd_generate(&cli.dir, cli.full),
        _ => unreachable!("validated by Cli::parse"),
    }
}

fn cmd_scan(dir: &Path, json: bool) -> ExitCode {
    let reports = match scan_corpus(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let agg = CorpusReport::from_reports(&reports);
    if json {
        println!("{}", agg.to_json());
    } else {
        println!("{}", agg.render_fig7());
        println!("{}", agg.render_fig8());
        println!("{}", agg.render_fig9());
        println!("{}", agg.render_fig10());
    }
    skipped_dirs_exit(&reports, json)
}

/// Shared tail for scan-backed commands: warn about every directory the
/// walk could not read, and — under `--json`, where the output feeds
/// aggregation pipelines — refuse to exit 0 for an undercounting report.
/// Human-readable output stays exit 0: the warnings are on stderr.
fn skipped_dirs_exit(reports: &[fabric_analyzer::ProjectReport], json: bool) -> ExitCode {
    let mut skipped = 0usize;
    for report in reports {
        for dir in &report.skipped_dirs {
            skipped += 1;
            eprintln!("warning: skipped unreadable directory {}", dir.display());
        }
    }
    if skipped > 0 && json {
        eprintln!("error: {skipped} director(ies) were unscannable; JSON aggregation is partial");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_project(dir: &Path, json: bool) -> ExitCode {
    let report = match scan_project(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", project_json(&report));
        return skipped_dirs_exit(std::slice::from_ref(&report), true);
    }
    println!("project: {}", report.path.display());
    println!("explicit PDC:  {}", report.explicit_pdc);
    println!("implicit PDC:  {}", report.implicit_pdc);
    for c in &report.collections {
        println!(
            "  collection {:<24} EndorsementPolicy customized: {}",
            c.name, c.has_endorsement_policy
        );
    }
    match &report.default_policy {
        Some(p) => println!("configtx default policy: {p}"),
        None => println!("configtx default policy: (no configtx.yaml found)"),
    }
    if report.leaks.is_empty() {
        println!("leaks: none detected");
    } else {
        for l in &report.leaks {
            println!("  LEAK [{}] {} in {}", l.kind, l.function, l.file.display());
        }
    }
    if report.explicit_pdc && report.uses_chaincode_level_policy() {
        println!(
            "WARNING: PDC transactions are validated by the chaincode-level policy — \
             potentially vulnerable to fake PDC results injection (ICDCS'21)"
        );
    }
    skipped_dirs_exit(std::slice::from_ref(&report), false)
}

/// JSON detail report for one project (hand-rolled, like the rest of the
/// workspace's encoders).
fn project_json(report: &fabric_analyzer::ProjectReport) -> String {
    use render::escape;
    let collections: Vec<String> = report
        .collections
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"endorsement_policy_customized\": {}}}",
                escape(&c.name),
                c.has_endorsement_policy
            )
        })
        .collect();
    let leaks: Vec<String> = report
        .leaks
        .iter()
        .map(|l| {
            format!(
                "{{\"file\": {}, \"function\": {}, \"kind\": \"{}\"}}",
                escape(&l.file.to_string_lossy()),
                escape(&l.function),
                l.kind
            )
        })
        .collect();
    let skipped: Vec<String> = report
        .skipped_dirs
        .iter()
        .map(|d| escape(&d.to_string_lossy()))
        .collect();
    format!(
        "{{\n  \"path\": {},\n  \"explicit_pdc\": {},\n  \"implicit_pdc\": {},\n  \
         \"collections\": [{}],\n  \"default_policy\": {},\n  \"leaks\": [{}],\n  \
         \"skipped_dirs\": [{}]\n}}",
        escape(&report.path.to_string_lossy()),
        report.explicit_pdc,
        report.implicit_pdc,
        collections.join(", "),
        report
            .default_policy
            .as_deref()
            .map_or("null".to_string(), escape),
        leaks.join(", "),
        skipped.join(", "),
    )
}

fn cmd_lint(dir: &Path, json: bool, flow: bool, sarif: Option<&Path>) -> ExitCode {
    // A directory with scannable files at its top level is one project
    // (even when it has subdirectories like `chaincode/`); a corpus root
    // holds only project subdirectories.
    let reports = match dir_is_project(dir) {
        Ok(true) => scan_project(dir).map(|r| vec![r]),
        Ok(false) => scan_corpus(dir).and_then(|reports| {
            if reports.is_empty() {
                scan_project(dir).map(|r| vec![r])
            } else {
                Ok(reports)
            }
        }),
        Err(e) => Err(e),
    };
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot scan {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    for report in &reports {
        for skipped in &report.skipped_dirs {
            eprintln!(
                "warning: skipped unreadable directory {}",
                skipped.display()
            );
        }
    }
    let findings = if flow {
        fabric_analyzer::lint_corpus_with_flow(&reports)
    } else {
        lint_corpus(&reports)
    };
    if let Some(path) = sarif {
        if let Err(e) = std::fs::write(path, render::render_sarif(&findings)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("SARIF report written to {}", path.display());
    }
    if json {
        print!("{}", render::render_json(&findings));
    } else {
        print!("{}", render::render_text(&findings));
    }
    if findings
        .iter()
        .any(|f| f.severity == fabric_lint::Severity::Error)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_generate(dir: &Path, full: bool) -> ExitCode {
    let spec = if full {
        CorpusSpec::default()
    } else {
        CorpusSpec::small(42)
    };
    match corpus::materialize(&spec, dir) {
        Ok(projects) => {
            println!(
                "materialized {} synthetic projects under {}",
                projects.len(),
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
