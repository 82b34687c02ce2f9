//! Result lines, tables, and the comparison of two result sets.

use crate::json::{number, quote, Json};
use crate::measure::{Report, END_TO_END};

/// The one-line JSON object a run prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics`; each metric a value and a unit.
/// With `detail`, each metric also carries its sample count and
/// quartiles (what `run`, `compare` and `check` read).
pub fn result_line(report: &Report, detail: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let mut fields = format!(
                "\"value\": {}, \"unit\": {}",
                number(m.value),
                quote(m.unit)
            );
            if detail {
                fields.push_str(&format!(
                    ", \"n\": {}, \"q1\": {}, \"q3\": {}",
                    m.n,
                    number(m.q1),
                    number(m.q3)
                ));
            }
            format!("{}: {{{fields}}}", quote(m.name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A metric read back from a detailed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: u64,
    pub q1: f64,
    pub q3: f64,
}

/// The metrics of a parsed result line, in the order printed.
pub fn readings(result: &Json) -> Vec<Reading> {
    let Some(metrics) = result.get("metrics") else {
        return Vec::new();
    };
    metrics
        .fields()
        .iter()
        .map(|(name, m)| {
            let num = |key: &str| m.get(key).and_then(Json::as_f64);
            let value = num("value").unwrap_or(0.0);
            Reading {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                value,
                n: num("n").unwrap_or(1.0) as u64,
                q1: num("q1").unwrap_or(value),
                q3: num("q3").unwrap_or(value),
            }
        })
        .collect()
}

/// Every metric by name, with unit, sample count and quartiles.
pub fn table(title: &str, result: &Json) -> String {
    let mut out =
        format!(
        "{title}: correct={} attempted={} failed={}\n  {:<36} {:>16} {:<8} {:>8} {:>14} {:>14}\n",
        result.get("correct").and_then(Json::as_bool).unwrap_or(false),
        result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        "metric",
        "value",
        "unit",
        "n",
        "q1",
        "q3"
    );
    for r in readings(result) {
        out.push_str(&format!(
            "  {:<36} {:>16.4} {:<8} {:>8} {:>14.4} {:>14.4}\n",
            r.name, r.value, r.unit, r.n, r.q1, r.q3
        ));
    }
    out
}

/// A whole result set: one detailed result per workload.
pub fn result_set(seed: u64, repeats: u32, smoke: bool, workloads: &[(String, String)]) -> String {
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, line)| format!("    {}: {line}", quote(name)))
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"repeats\": {repeats},\n  \"smoke\": {smoke},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

/// Compares result set `b` against `a`, one row per workload and
/// end-to-end metric, with each side's median and quartiles. Exact
/// metrics must be equal; wall-clock medians must agree within the
/// metric's bound, and are otherwise *unresolved*. Returns the table and
/// whether every row agreed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:<26} {:>14} {:>27} {:>14} {:>27}  {}\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "verdict"
    );
    let mut agree = true;
    let empty = Json::Null;
    let workloads_a = a.get("workloads").unwrap_or(&empty).fields();
    for (workload, result_a) in workloads_a {
        let Some(result_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            out.push_str(&format!("{workload:<20} missing in B\n"));
            agree = false;
            continue;
        };
        let (ra, rb) = (readings(result_a), readings(result_b));
        for metric in END_TO_END {
            let find = |rs: &[Reading]| rs.iter().find(|r| r.name == metric.name).cloned();
            let (Some(x), Some(y)) = (find(&ra), find(&rb)) else {
                out.push_str(&format!("{workload:<20} {:<26} missing\n", metric.name));
                agree = false;
                continue;
            };
            let verdict = if metric.exact {
                if x.value == y.value {
                    "equal"
                } else {
                    "DIFFERS"
                }
            } else {
                let gap = (x.value - y.value).abs();
                if gap <= (metric.bound * x.value.abs()).max(metric.slack) {
                    "within bound"
                } else {
                    "UNRESOLVED"
                }
            };
            agree &= verdict == "equal" || verdict == "within bound";
            let range = |r: &Reading| format!("{:.4}..{:.4}", r.q1, r.q3);
            out.push_str(&format!(
                "{workload:<20} {:<26} {:>14.4} {:>27} {:>14.4} {:>27}  {verdict}\n",
                metric.name,
                x.value,
                range(&x),
                y.value,
                range(&y)
            ));
        }
    }
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Metric;

    fn report(goodput: f64, p50: f64) -> Report {
        let metric = |name, unit, value| Metric {
            name,
            unit,
            value,
            n: 3,
            q1: value * 0.99,
            q3: value * 1.01,
        };
        Report {
            attempted: 10,
            metrics: vec![
                metric("setup_s", "s", 0.02),
                metric("goodput_tps", "ops/s", goodput),
                metric("goodput_per_tick", "tx/tick", 5.0),
                metric("commit_latency_ticks_p50", "ticks", p50),
                metric("commit_latency_ticks_p99", "ticks", 9.0),
                metric("peak_in_flight", "txs", 40.0),
                metric("ok_share", "ratio", 1.0),
                metric("peak_rss_mb", "MB", 100.0),
            ],
            ..Report::default()
        }
    }

    fn set(r: &Report) -> Json {
        let text = result_set(1, 3, false, &[("w".to_string(), result_line(r, true))]);
        Json::parse(&text).unwrap()
    }

    #[test]
    fn plain_line_has_exactly_the_contract_keys() {
        let line = result_line(&report(1000.0, 4.0), false);
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("goodput_tps").unwrap();
        let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
    }

    #[test]
    fn compare_accepts_noise_and_flags_exact_drift() {
        let base = set(&report(1000.0, 4.0));
        let (_, ok) = compare(&base, &set(&report(1050.0, 4.0)));
        assert!(ok, "5 % apart is within goodput's bound");
        let (text, ok) = compare(&base, &set(&report(1300.0, 4.0)));
        assert!(!ok && text.contains("UNRESOLVED"));
        let (text, ok) = compare(&base, &set(&report(1000.0, 5.0)));
        assert!(!ok && text.contains("DIFFERS"));
    }
}
