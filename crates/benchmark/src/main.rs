//! `fabric-benchmark`: one command per need.
//!
//! ```text
//! bench   --workload W --seed N (--seconds S | --repeats N) --trace 0|1
//!         one run in this process; the last stdout line is its JSON result
//! run     [--workload W] [--seed N] [--repeats N] [--out FILE]
//!         every end-to-end metric by name, each workload in its own process
//! trace   [--workload W] [--seed N] [--repeats N]
//!         the per-layer table; writes target/benchmark/<workload>.trace.json
//! compare A.json B.json
//!         two `--out` files, one row per workload and metric
//! check   [--seed N] [--repeats N]
//!         two full sets of this build must agree within the bounds
//! ```
//!
//! `--smoke` cuts every round to 2 % of its operations.

use fabric_benchmark::json::Json;
use fabric_benchmark::measure::{self, Stop};
use fabric_benchmark::report;
use fabric_benchmark::workload::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1;
const RUN_REPEATS: u32 = 5;
const TRACE_REPEATS: u32 = 3;

/// `--key value` pairs, bare `--flags`, and positional arguments.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 2] = ["--smoke", "--detail"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if FLAGS.contains(&arg.as_str()) {
                args.flags.push(arg.clone());
            } else if arg.starts_with("--") {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                args.options.push((arg.clone(), value.clone()));
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: bad value {v:?}")))
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option {k}")),
            None => Ok(()),
        }
    }

    /// The workloads `--workload` selects: one, or all five.
    fn workloads(&self) -> Result<Vec<&'static workload::Spec>, String> {
        match self.get("--workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workload::by_name(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload {name:?}")),
        }
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--repeats",
        "--trace",
        "--trace-file",
    ])?;
    let name = args.get("--workload").ok_or("bench needs --workload")?;
    let spec = workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = args.number("--seed")?.unwrap_or(DEFAULT_SEED);
    let stop = match (args.number("--seconds")?, args.number("--repeats")?) {
        (Some(s), None) => Stop::Seconds(s),
        (None, Some(n)) => Stop::Repeats(n),
        _ => return Err("bench needs exactly one of --seconds and --repeats".to_string()),
    };
    let smoke = args.flag("--smoke");
    let report = match args.number::<u8>("--trace")?.unwrap_or(0) {
        0 => measure::end_to_end(spec, seed, stop, smoke),
        1 => {
            let trace_file = args.get("--trace-file").map(PathBuf::from);
            let (report, trace_json) =
                measure::per_layer(spec, seed, stop, smoke, trace_file.is_some());
            if let (Some(path), Some(json)) = (trace_file, trace_json) {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                }
                std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            report
        }
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    for e in &report.errors {
        eprintln!("incorrect: {e}");
    }
    println!("{}", report::result_line(&report, args.flag("--detail")));
    Ok(report.correct())
}

/// Runs `bench` on one workload in a child process, so that its peak
/// resident set is its own, and returns its detailed result line.
fn bench_in_child(spec: &workload::Spec, extra: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["bench", "--detail", "--workload", spec.name])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !output.status.success() {
        return Err(format!(
            "{}: run failed ({}) {line}",
            spec.name, output.status
        ));
    }
    Ok(line)
}

struct SetOptions {
    seed: u64,
    repeats: u32,
    smoke: bool,
}

impl SetOptions {
    fn from(args: &Args, default_repeats: u32) -> Result<Self, String> {
        Ok(SetOptions {
            seed: args.number("--seed")?.unwrap_or(DEFAULT_SEED),
            repeats: args.number("--repeats")?.unwrap_or(default_repeats),
            smoke: args.flag("--smoke"),
        })
    }

    fn child_args(&self, trace: u8) -> Vec<String> {
        let mut extra = vec![
            "--seed".to_string(),
            self.seed.to_string(),
            "--repeats".to_string(),
            self.repeats.to_string(),
            "--trace".to_string(),
            trace.to_string(),
        ];
        if self.smoke {
            extra.push("--smoke".to_string());
        }
        extra
    }
}

/// The end-to-end result of one workload, printed as a table and
/// returned as its detailed result line.
fn run_workload(spec: &workload::Spec, options: &SetOptions) -> Result<String, String> {
    let line = bench_in_child(spec, &options.child_args(0))?;
    let title = format!(
        "{} (seed {}, {} rounds)",
        spec.name, options.seed, options.repeats
    );
    print!("{}", report::table(&title, &Json::parse(&line)?));
    Ok(line)
}

fn result_set(options: &SetOptions, results: &[(String, String)]) -> String {
    report::result_set(options.seed, options.repeats, options.smoke, results)
}

fn run(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--repeats", "--out"])?;
    let options = SetOptions::from(args, RUN_REPEATS)?;
    let mut results = Vec::new();
    for spec in args.workloads()? {
        results.push((spec.name.to_string(), run_workload(spec, &options)?));
    }
    if let Some(path) = args.get("--out") {
        std::fs::write(path, result_set(&options, &results)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(true)
}

fn trace(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--repeats"])?;
    let options = SetOptions::from(args, TRACE_REPEATS)?;
    for spec in args.workloads()? {
        let file = format!("target/benchmark/{}.trace.json", spec.name);
        let mut extra = options.child_args(1);
        extra.extend(["--trace-file".to_string(), file.clone()]);
        let line = bench_in_child(spec, &extra)?;
        let title = format!("{} per layer (seed {})", spec.name, options.seed);
        print!("{}", report::table(&title, &Json::parse(&line)?));
        println!("  spans of the first round: {file}");
    }
    Ok(true)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, agree) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(agree)
}

fn check(args: &Args) -> Result<bool, String> {
    args.only(&["--workload", "--seed", "--repeats"])?;
    let options = SetOptions::from(args, RUN_REPEATS)?;
    // Both sets run a workload back to back, so that a slow spell of the
    // host falls on both sides of a row rather than on one whole set.
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for spec in args.workloads()? {
        first.push((spec.name.to_string(), run_workload(spec, &options)?));
        second.push((spec.name.to_string(), run_workload(spec, &options)?));
    }
    let (table, agree) = report::compare(
        &Json::parse(&result_set(&options, &first))?,
        &Json::parse(&result_set(&options, &second))?,
    );
    print!("{table}");
    println!(
        "{}",
        if agree {
            "check: both sets agree within the bounds"
        } else {
            "check: the sets DISAGREE"
        }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: fabric-benchmark <bench|run|trace|compare|check> [options]");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "bench" => bench(&args),
        "run" => run(&args),
        "trace" => trace(&args),
        "compare" => compare(&args),
        "check" => check(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
