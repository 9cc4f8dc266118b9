//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, all safe to update from many threads at once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A monotonically increasing counter.
///
/// Cheap to clone; clones share the same underlying cell, so a hot loop can
/// fetch the handle once and increment without touching the registry again.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (stored as `f64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default bucket upper bounds: a 1-2-5 ladder from 1µs to 10s.
///
/// Wide enough for both wall-time spans (seconds) and the unit-scale
/// quantities the pipeline observes (energy residuals, weights).
pub const DEFAULT_BUCKETS: [f64; 22] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

/// Bucket upper bounds for *virtual-tick* quantities (queue waits, deadline
/// slack): a 1-1.5-2-3 ladder from 1 tick to 1024 ticks. Tick observations
/// are small integers, so the seconds-tuned [`DEFAULT_BUCKETS`] would fold
/// everything into its top buckets and quantiles would be useless.
pub const TICK_BUCKETS: [f64; 20] = [
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0,
    256.0, 384.0, 512.0, 768.0, 1024.0,
];

#[derive(Debug)]
struct HistogramInner {
    /// Ascending upper bounds; an implicit +∞ bucket follows the last.
    bounds: Vec<f64>,
    /// One cell per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. Clones share the same cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let inner = &*self.0;
        let idx = inner.bounds.partition_point(|&bound| bound < value);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Starts a wall-clock timer that records its elapsed seconds here
    /// when dropped: `let _stage = histogram.start_timer();` times the
    /// rest of the enclosing block.
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer { histogram: self, started: Instant::now() }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`). See
    /// [`HistogramSnapshot::quantile`] for estimation semantics.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// Estimated median. Convenience over [`Histogram::quantile`].
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// A point-in-time [`HistogramSummary`]: count, mean, and the serving
    /// percentiles, computed from one consistent snapshot.
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// The guard of [`Histogram::start_timer`].
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    histogram: &'a Histogram,
    started: Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.histogram.observe(self.started.elapsed().as_secs_f64());
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (implicit +∞ bucket follows).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), Prometheus-style: the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q · count)`. Resolution is therefore one bucket width — fine
    /// for latency reporting, not for exact statistics.
    ///
    /// Edge cases: an empty histogram reports `0.0`; a quantile landing in
    /// the overflow (+∞) bucket saturates to the last finite bound (there
    /// is no upper bound to report); `q = 0` is the smallest bucket that
    /// holds any observation.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        // ceil(q * count), clamped to at least the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (bucket, &filled) in self.buckets.iter().enumerate() {
            cumulative += filled;
            if cumulative >= rank {
                return match self.bounds.get(bucket) {
                    Some(&bound) => bound,
                    // Overflow bucket: saturate to the last finite bound.
                    None => self.bounds.last().copied().unwrap_or(0.0),
                };
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Count, mean, and serving percentiles in one struct.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }
}

/// The digest bench code reports for a latency histogram: count, mean, and
/// the standard serving percentiles (bucket-upper-bound estimates).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Mean observed value (0 when empty).
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl std::fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "count={} mean={:.6} p50={:.6} p95={:.6} p99={:.6}",
            self.count, self.mean, self.p50, self.p95, self.p99
        )
    }
}

/// Point-in-time copy of a whole registry, ordered by name for
/// deterministic rendering and comparison.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counters-only snapshot: how an owner that already keeps its
    /// numbers as plain fields (a report struct, a few atomics) renders
    /// them under metric names.
    pub fn from_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        MetricsSnapshot {
            counters: counters.into_iter().map(|(name, value)| (name.to_owned(), value)).collect(),
            ..MetricsSnapshot::default()
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A copy keeping only metrics whose name starts with `prefix`.
    ///
    /// Metric namespaces are dot-delimited (`engine.*`, `p2p.*`, …), so
    /// golden comparisons over one subsystem slice the snapshot by prefix
    /// instead of enumerating every name another subsystem might mint.
    pub fn retain_prefix(&self, prefix: &str) -> MetricsSnapshot {
        let keep = |name: &str| name.starts_with(prefix);
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, &value)| (name.clone(), value))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, &value)| (name.clone(), value))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, histogram)| (name.clone(), histogram.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot as aligned `name value` lines; histograms show
    /// count / mean / sum (buckets elided — they're for programmatic use).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|name| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:<width$}  {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name:<width$}  {value:.6}");
        }
        for (name, histogram) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<width$}  count={} mean={:.6} sum={:.6}",
                histogram.count,
                histogram.mean(),
                histogram.sum,
            );
        }
        out
    }
}

/// A thread-safe registry of named metrics.
///
/// Accessors get-or-create: the first `counter("x")` call registers the
/// counter, later calls return a handle to the same cell, so an owner
/// resolves its names once and records through the handles.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("snapshot", &self.snapshot()).finish()
    }
}

fn get_or_create<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(found) = map.read().unwrap().get(name) {
        return found.clone();
    }
    map.write().unwrap().entry(name.to_string()).or_default().clone()
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the counter `name`, creating it at zero if new.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name)
    }

    /// Handle to the gauge `name`, creating it at zero if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.gauges, name)
    }

    /// Handle to the histogram `name` with [`DEFAULT_BUCKETS`].
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_buckets(name, &DEFAULT_BUCKETS)
    }

    /// Handle to the histogram `name`; `bounds` apply only on first
    /// creation (an existing histogram keeps its buckets).
    pub fn histogram_with_buckets(&self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some(found) = self.histograms.read().unwrap().get(name) {
            return found.clone();
        }
        self.histograms
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(name, counter)| (name.clone(), counter.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(name, gauge)| (name.clone(), gauge.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
                .collect(),
        }
    }

    /// `snapshot().render_text()`.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_share_cells() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(registry.counter("x").get(), 5);
        assert_eq!(registry.snapshot().counters["x"], 5);
    }

    #[test]
    fn gauges_move_both_ways() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("load");
        g.set(2.5);
        g.set(-1.0);
        assert_eq!(registry.gauge("load").get(), -1.0);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let histogram = Histogram::with_bounds(&[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 50.0] {
            histogram.observe(v);
        }
        let snap = histogram.snapshot();
        assert_eq!(snap.buckets, vec![2, 1, 1]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 56.2).abs() < 1e-9);
        assert!((snap.mean() - 14.05).abs() < 1e-9);
    }

    #[test]
    fn timer_records_one_observation_on_drop() {
        let histogram = Histogram::with_bounds(&[1.0]);
        {
            let _timer = histogram.start_timer();
            assert_eq!(histogram.count(), 0, "nothing is recorded while the guard lives");
        }
        assert_eq!(histogram.count(), 1);
        assert!(histogram.sum() >= 0.0);
    }

    #[test]
    fn boundary_value_falls_in_its_bucket() {
        // Upper bounds are inclusive (prometheus-style `le`).
        let histogram = Histogram::with_bounds(&[1.0]);
        histogram.observe(1.0);
        assert_eq!(histogram.snapshot().buckets, vec![1, 0]);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let histogram = Histogram::with_bounds(&[1.0, 2.0, 5.0, 10.0]);
        // 90 observations ≤ 1, 5 in (1, 2], 4 in (2, 5], 1 in (5, 10].
        for _ in 0..90 {
            histogram.observe(0.5);
        }
        for _ in 0..5 {
            histogram.observe(1.5);
        }
        for _ in 0..4 {
            histogram.observe(3.0);
        }
        histogram.observe(7.0);
        assert_eq!(histogram.p50(), 1.0);
        assert_eq!(histogram.quantile(0.90), 1.0);
        assert_eq!(histogram.p95(), 2.0);
        assert_eq!(histogram.p99(), 5.0);
        assert_eq!(histogram.quantile(1.0), 10.0);
        assert_eq!(histogram.quantile(0.0), 1.0, "q=0 is the smallest occupied bucket");
    }

    #[test]
    fn quantiles_on_empty_and_single_sample_histograms() {
        let empty = Histogram::with_bounds(&[1.0, 2.0]);
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.p99(), 0.0);
        let summary = empty.summary();
        assert_eq!(summary.count, 0);
        assert_eq!(summary.mean, 0.0);
        assert_eq!(summary.p95, 0.0);

        let single = Histogram::with_bounds(&[1.0, 2.0]);
        single.observe(1.5);
        // Every percentile of a one-sample distribution is that sample's
        // bucket bound.
        assert_eq!(single.p50(), 2.0);
        assert_eq!(single.p95(), 2.0);
        assert_eq!(single.p99(), 2.0);
        assert_eq!(single.summary().count, 1);
    }

    #[test]
    fn quantile_saturates_at_the_overflow_bucket() {
        let histogram = Histogram::with_bounds(&[1.0, 10.0]);
        histogram.observe(100.0);
        histogram.observe(200.0);
        // Both observations overflow: the estimate can only promise "beyond
        // the last finite bound".
        assert_eq!(histogram.p50(), 10.0);
        assert_eq!(histogram.p99(), 10.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let histogram = Histogram::with_bounds(&[1.0]);
        histogram.observe(0.5);
        let _ = histogram.quantile(1.5);
    }

    #[test]
    fn summary_display_is_stable() {
        let histogram = Histogram::with_bounds(&[1.0, 2.0]);
        histogram.observe(0.5);
        histogram.observe(1.5);
        let text = histogram.summary().to_string();
        assert!(text.contains("count=2"), "{text}");
        assert!(text.contains("p95=2.000000"), "{text}");
    }

    #[test]
    fn from_counters_names_plain_numbers() {
        let snapshot = MetricsSnapshot::from_counters([("b", 2), ("a", 1)]);
        assert_eq!(snapshot.counters.keys().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(snapshot.counters["b"], 2);
        assert!(snapshot.gauges.is_empty() && snapshot.histograms.is_empty());
    }

    #[test]
    fn retain_prefix_keeps_one_namespace() {
        let registry = MetricsRegistry::new();
        registry.counter("engine.runs").add(2);
        registry.counter("serve.requests.served").add(5);
        registry.gauge("serve.queue.depth").set(1.0);
        registry.histogram("serve.latency.seconds").observe(0.01);
        let snapshot = registry.snapshot();

        let serve_only = snapshot.retain_prefix("serve.");
        assert_eq!(serve_only.counters["serve.requests.served"], 5);
        assert_eq!(serve_only.gauges["serve.queue.depth"], 1.0);
        assert_eq!(serve_only.histograms["serve.latency.seconds"].count, 1);
        assert!(!serve_only.counters.contains_key("engine.runs"));
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let registry = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = registry.counter("c");
                let histogram = registry.histogram("h");
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                        histogram.observe(0.001);
                    }
                });
            }
        });
        assert_eq!(registry.counter("c").get(), 80_000);
        assert_eq!(registry.histogram("h").count(), 80_000);
        assert!((registry.histogram("h").sum() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn render_text_lists_all_names() {
        let registry = MetricsRegistry::new();
        registry.counter("alpha").add(3);
        registry.gauge("beta").set(1.5);
        registry.histogram("gamma").observe(0.5);
        let text = registry.render_text();
        assert!(text.contains("alpha"), "{text}");
        assert!(text.contains("beta"), "{text}");
        assert!(text.contains("gamma"), "{text}");
        assert!(text.contains("count=1"), "{text}");
    }
}
