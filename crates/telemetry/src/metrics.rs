//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Metric series are identified by `(name, sorted labels)`. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed clones
//! that update atomically without touching the registry lock, so hot
//! paths pay one atomic op per update. Registration
//! ([`MetricsRegistry::counter`] etc.) is get-or-create and is the only
//! operation that locks.
//!
//! [`MetricsRegistry::render_prometheus`] renders a consistent
//! point-in-time view in the text exposition format, the one format
//! scrapers and tests read; [`MetricsRegistry::samples`] is the typed
//! view.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Histogram buckets (upper bounds, seconds) sized for block-commit and
/// endorsement latencies: tens of microseconds up to seconds.
pub const DURATION_SECONDS_BUCKETS: &[f64] = &[
    0.000_025, 0.000_1, 0.000_25, 0.001, 0.002_5, 0.01, 0.025, 0.1, 0.25, 1.0, 2.5,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Increments by `n`.
    pub fn inc_by(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move up and down.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds; observations above the last bound land in the
    /// implicit `+Inf` slot at `counts[bounds.len()]`.
    bounds: Arc<[f64]>,
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram (Prometheus semantics: `le` is inclusive).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let slot = self
            .core
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.counts[slot].fetch_add(1, Ordering::Relaxed);
        let mut current = self.core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.core.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Cumulative `(le, count)` pairs, ending with the `+Inf` total.
    fn cumulative(&self) -> (Vec<(f64, u64)>, u64) {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.core.bounds.len());
        for (i, &b) in self.core.bounds.iter().enumerate() {
            acc += self.core.counts[i].load(Ordering::Relaxed);
            out.push((b, acc));
        }
        acc += self.core.counts[self.core.bounds.len()].load(Ordering::Relaxed);
        (out, acc)
    }

    /// Estimates the `q`-quantile (clamped to `0.0..=1.0`) from the
    /// fixed buckets, interpolating linearly within the bucket that
    /// contains the target rank (the Prometheus `histogram_quantile`
    /// estimator).
    ///
    /// Returns `None` when the histogram is empty. Ranks that fall in
    /// the `+Inf` overflow bucket clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (cumulative, total) = self.cumulative();
        quantile_from_cumulative(&cumulative, total, q)
    }
}

/// Shared quantile estimator over cumulative `(le, count)` buckets (the
/// Prometheus `histogram_quantile` linear interpolation).
fn quantile_from_cumulative(cumulative: &[(f64, u64)], total: u64, q: f64) -> Option<f64> {
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut prev_bound = 0.0;
    let mut prev_count = 0u64;
    for &(bound, count) in cumulative {
        if count as f64 >= rank && count > prev_count {
            let in_bucket = (count - prev_count) as f64;
            let fraction = ((rank - prev_count as f64) / in_bucket).clamp(0.0, 1.0);
            return Some(prev_bound + (bound - prev_bound) * fraction);
        }
        prev_bound = bound;
        prev_count = count;
    }
    cumulative.last().map(|&(bound, _)| bound)
}

/// The value of one metric series in a [`MetricSample`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram: cumulative `(le, count)` buckets, sum, and total count.
    Histogram {
        /// Cumulative counts per finite upper bound.
        buckets: Vec<(f64, u64)>,
        /// Sum of observations.
        sum: f64,
        /// Total observations (the `+Inf` cumulative count).
        count: u64,
    },
}

/// One series in a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric family name.
    pub name: String,
    /// Family help text.
    pub help: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Point-in-time value.
    pub value: MetricValue,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    buckets: Option<Arc<[f64]>>,
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

type SeriesKey = (String, Vec<(String, String)>);

/// A thread-safe registry of metric families and their label series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    families: BTreeMap<String, Family>,
    series: BTreeMap<SeriesKey, Series>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates a counter series.
    ///
    /// # Panics
    /// If `name` was previously registered with a different metric kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let mut inner = self.inner.lock();
        inner.ensure_family(name, help, Kind::Counter, None);
        let series = inner
            .series
            .entry(series_key(name, labels))
            .or_insert_with(|| Series::Counter(Arc::new(AtomicU64::new(0))));
        match series {
            Series::Counter(cell) => Counter { cell: cell.clone() },
            _ => unreachable!("family kind already checked"),
        }
    }

    /// Gets or creates a gauge series.
    ///
    /// # Panics
    /// If `name` was previously registered with a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut inner = self.inner.lock();
        inner.ensure_family(name, help, Kind::Gauge, None);
        let series = inner
            .series
            .entry(series_key(name, labels))
            .or_insert_with(|| Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match series {
            Series::Gauge(bits) => Gauge { bits: bits.clone() },
            _ => unreachable!("family kind already checked"),
        }
    }

    /// Gets or creates a fixed-bucket histogram series. `buckets` are the
    /// finite upper bounds and must be sorted ascending; the `+Inf`
    /// bucket is implicit. Bounds are fixed by the first registration.
    ///
    /// # Panics
    /// If `name` was previously registered with a different kind, or
    /// `buckets` is empty or unsorted.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[f64],
    ) -> Histogram {
        assert!(!buckets.is_empty(), "histogram {name} needs buckets");
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} buckets must be sorted ascending"
        );
        let mut inner = self.inner.lock();
        inner.ensure_family(name, help, Kind::Histogram, Some(buckets));
        let bounds = inner
            .families
            .get(name)
            .and_then(|f| f.buckets.clone())
            .expect("histogram family has buckets");
        let series = inner
            .series
            .entry(series_key(name, labels))
            .or_insert_with(|| {
                let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
                Series::Histogram(Arc::new(HistogramCore {
                    bounds,
                    counts,
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                }))
            });
        match series {
            Series::Histogram(core) => Histogram { core: core.clone() },
            _ => unreachable!("family kind already checked"),
        }
    }

    /// Looks up an existing histogram series without creating it.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let inner = self.inner.lock();
        match inner.series.get(&series_key(name, labels)) {
            Some(Series::Histogram(core)) => Some(Histogram { core: core.clone() }),
            _ => None,
        }
    }

    /// Point-in-time snapshot of every series, sorted by name then labels.
    pub fn samples(&self) -> Vec<MetricSample> {
        let inner = self.inner.lock();
        inner
            .series
            .iter()
            .map(|((name, labels), series)| {
                let family = &inner.families[name];
                let value = match series {
                    Series::Counter(cell) => MetricValue::Counter(cell.load(Ordering::Relaxed)),
                    Series::Gauge(bits) => {
                        MetricValue::Gauge(f64::from_bits(bits.load(Ordering::Relaxed)))
                    }
                    Series::Histogram(core) => {
                        let h = Histogram { core: core.clone() };
                        let (buckets, count) = h.cumulative();
                        MetricValue::Histogram {
                            buckets,
                            sum: h.sum(),
                            count,
                        }
                    }
                };
                MetricSample {
                    name: name.clone(),
                    help: family.help.clone(),
                    labels: labels.clone(),
                    value,
                }
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for sample in self.samples() {
            if last_family.as_deref() != Some(&sample.name) {
                let kind = {
                    let inner = self.inner.lock();
                    inner.families[&sample.name].kind
                };
                let _ = writeln!(out, "# HELP {} {}", sample.name, sample.help);
                let _ = writeln!(out, "# TYPE {} {}", sample.name, kind.as_str());
                last_family = Some(sample.name.clone());
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {v}",
                        sample.name,
                        label_set(&sample.labels, None)
                    );
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        sample.name,
                        label_set(&sample.labels, None),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Histogram {
                    buckets,
                    sum,
                    count,
                } => {
                    for (le, c) in buckets {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {c}",
                            sample.name,
                            label_set(&sample.labels, Some(&fmt_f64(*le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {count}",
                        sample.name,
                        label_set(&sample.labels, Some("+Inf"))
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        sample.name,
                        label_set(&sample.labels, None),
                        fmt_f64(*sum)
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {count}",
                        sample.name,
                        label_set(&sample.labels, None)
                    );
                }
            }
        }
        out
    }
}

impl RegistryInner {
    fn ensure_family(&mut self, name: &str, help: &str, kind: Kind, buckets: Option<&[f64]>) {
        match self.families.get(name) {
            Some(existing) => assert!(
                existing.kind == kind,
                "metric {name} already registered as {}, requested {}",
                existing.kind.as_str(),
                kind.as_str()
            ),
            None => {
                self.families.insert(
                    name.to_string(),
                    Family {
                        help: help.to_string(),
                        kind,
                        buckets: buckets.map(Arc::from),
                    },
                );
            }
        }
    }
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

/// Renders a `{k="v",...}` label set, optionally appending an `le` label
/// (for histogram buckets). Empty label sets render as nothing.
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double-quote, and line feed.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats an `f64` without scientific notation surprises: integral
/// values render bare (`1`), fractional values keep full precision.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_renders_empty_exports() {
        let registry = MetricsRegistry::new();
        assert_eq!(registry.render_prometheus(), "");
        assert!(registry.samples().is_empty());
    }

    #[test]
    fn bucket_upper_bounds_are_inclusive() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "bounds", &[], &[1.0, 2.0]);
        // Prometheus `le` semantics: an observation equal to a bound lands
        // in that bound's bucket, not the next one up.
        h.observe(1.0);
        h.observe(2.0);
        h.observe(2.000_001);
        let (buckets, count) = h.cumulative();
        assert_eq!(buckets, vec![(1.0, 1), (2.0, 2)]);
        assert_eq!(count, 3, "above-last-bound observations land in +Inf");
        assert_eq!(h.sum(), 1.0 + 2.0 + 2.000_001);
    }

    #[test]
    fn observations_below_first_bound_count_in_first_bucket() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "bounds", &[], &[0.5]);
        h.observe(0.0);
        h.observe(-1.0);
        let (buckets, count) = h.cumulative();
        assert_eq!(buckets, vec![(0.5, 2)]);
        assert_eq!(count, 2);
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let registry = MetricsRegistry::new();
        registry
            .counter("c", "escape", &[("path", "a\\b\"c\nd")])
            .inc();
        let text = registry.render_prometheus();
        assert!(
            text.contains(r#"c{path="a\\b\"c\nd"} 1"#),
            "backslash, quote, and newline must be escaped: {text:?}"
        );
        // The rendered line must stay a single line.
        assert!(text
            .lines()
            .any(|l| l.starts_with("c{") && l.ends_with(" 1")));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_and_inf() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", "latency", &[("stage", "s")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = registry.render_prometheus();
        for line in [
            "lat_bucket{stage=\"s\",le=\"0.1\"} 1",
            "lat_bucket{stage=\"s\",le=\"1\"} 2",
            "lat_bucket{stage=\"s\",le=\"+Inf\"} 3",
            "lat_count{stage=\"s\"} 3",
        ] {
            assert!(text.contains(line), "missing {line:?} in {text}");
        }
    }

    #[test]
    fn label_order_does_not_split_series() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("c", "", &[("x", "1"), ("y", "2")]);
        let b = registry.counter("c", "", &[("y", "2"), ("x", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "label order is normalized into one series");
        assert_eq!(registry.samples().len(), 1);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 1_000;
        let registry = MetricsRegistry::new();
        let counter = registry.counter("c", "contended", &[]);
        let gauge = registry.gauge("g", "contended", &[]);
        let histogram = registry.histogram("h", "contended", &[], &[0.5]);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let counter = counter.clone();
                let gauge = gauge.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        counter.inc();
                        gauge.add(1.0);
                        histogram.observe(1.0);
                    }
                });
            }
        });
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(counter.get(), total);
        assert_eq!(gauge.get(), total as f64);
        assert_eq!(histogram.count(), total);
        assert_eq!(histogram.sum(), total as f64);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("m", "", &[]);
        registry.gauge("m", "", &[]);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "empty", &[], &[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "interp", &[], &[1.0, 2.0, 4.0]);
        // 2 observations in (0,1], 2 in (1,2], none in (2,4].
        for v in [0.2, 0.8, 1.5, 1.9] {
            h.observe(v);
        }
        // Median rank 2.0 sits exactly at the top of the first bucket.
        assert_eq!(h.quantile(0.5), Some(1.0));
        // Rank 3.0 is halfway through the second bucket: 1.0 + 0.5*(2-1).
        assert_eq!(h.quantile(0.75), Some(1.5));
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn quantile_in_single_bucket_scales_linearly() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "single", &[], &[10.0]);
        for _ in 0..4 {
            h.observe(3.0);
        }
        // All mass in one bucket: interpolation spans (0, 10].
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn quantile_clamps_overflow_bucket_to_last_finite_bound() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "overflow", &[], &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(200.0);
        // Ranks beyond the finite buckets clamp to the largest bound.
        assert_eq!(h.quantile(0.9), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(2.0));
        // But ranks inside finite buckets still interpolate.
        assert!((h.quantile(0.1).unwrap() - 0.3).abs() < 1e-12);
    }
}
