//! Process-global metrics registry: named monotonic counters and fixed-bucket
//! histograms, snapshotted into a [`MetricsReport`].
//!
//! Collection is off by default (one relaxed atomic load per site when
//! disabled) and is enabled explicitly by harnesses — the exploration
//! benchmark under `benchmark/` reads its per-layer counters from registry
//! snapshots, and `contrarc-serve` exports them. Like sinks, metrics observe
//! and never steer: no instrumented code path reads a metric back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Bucket upper bounds for small count distributions (pivots per node,
/// search depths): powers of two up to 4096.
pub const COUNT_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// Bucket upper bounds for wall-clock durations in seconds (100µs … 10s).
pub const SECONDS_BUCKETS: &[f64] = &[
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
];

static METRICS_ON: AtomicBool = AtomicBool::new(false);

struct Hist {
    bounds: &'static [f64],
    /// One slot per bound plus an overflow slot.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

struct Gauge {
    value: i64,
    /// High-water mark since the last reset (e.g. peak queue depth).
    max: i64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Hist>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    hists: BTreeMap::new(),
});

/// Whether metric collection is enabled.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turn metric collection on or off. Existing values are kept; call
/// [`reset_metrics`] for a clean slate.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::SeqCst);
}

/// Clear every counter, gauge, and histogram.
pub fn reset_metrics() {
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    reg.counters.clear();
    reg.gauges.clear();
    reg.hists.clear();
}

/// Add `delta` to the named counter. No-op while collection is disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    *reg.counters.entry(name).or_insert(0) += delta;
}

/// Record `value` into the named fixed-bucket histogram. The first
/// observation fixes the bucket bounds; callers must pass the same `bounds`
/// for a given name (use the shared constants above). No-op while disabled.
pub fn observe_hist(name: &'static str, bounds: &'static [f64], value: f64) {
    if !metrics_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let hist = reg.hists.entry(name).or_insert_with(|| Hist {
        bounds,
        counts: vec![0; bounds.len() + 1],
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    });
    let slot = hist
        .bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(hist.bounds.len());
    hist.counts[slot] += 1;
    hist.count += 1;
    hist.sum += value;
    hist.min = hist.min.min(value);
    hist.max = hist.max.max(value);
}

/// Set the named gauge to an absolute value, tracking its high-water mark
/// (e.g. live queue depth and peak queue depth). No-op while disabled.
pub fn gauge_set(name: &'static str, value: i64) {
    if !metrics_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let gauge = reg
        .gauges
        .entry(name)
        .or_insert(Gauge { value, max: value });
    gauge.value = value;
    gauge.max = gauge.max.max(value);
}

/// Adjust the named gauge by a signed delta (starting from 0), tracking its
/// high-water mark. No-op while disabled.
pub fn gauge_add(name: &'static str, delta: i64) {
    if !metrics_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let gauge = reg.gauges.entry(name).or_insert(Gauge { value: 0, max: 0 });
    gauge.value += delta;
    gauge.max = gauge.max.max(gauge.value);
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Last set value.
    pub value: i64,
    /// High-water mark since the last reset.
    pub max: i64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one extra overflow slot at the end.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`) from the bucket counts by
    /// linear interpolation inside the bucket containing the target rank —
    /// the same estimator Prometheus' `histogram_quantile` uses, except the
    /// open-ended overflow bucket interpolates toward the tracked `max`
    /// instead of being unbounded. Estimates are clamped to the observed
    /// `[min, max]` range; an empty histogram estimates 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && cum as f64 >= rank {
                let upper = self.bounds.get(i).copied().unwrap_or(self.max);
                let lower = if i == 0 {
                    self.min.min(upper)
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
                return (lower + (upper - lower) * frac).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A point-in-time snapshot of the whole registry, ready for rendering
/// (`contrarc::report`) or JSON embedding (`contrarc-serve`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsReport {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of a named counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render as a JSON object value (no surrounding key), e.g.
    /// `{"counters":{"milp.nodes":12},"histograms":{…}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name, c.value);
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"max\":{}}}",
                g.name, g.value, g.max
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"bounds\":[",
                h.name,
                h.count,
                json_num(h.sum),
                json_num(if h.count == 0 { 0.0 } else { h.min }),
                json_num(if h.count == 0 { 0.0 } else { h.max }),
            );
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", json_num(*b));
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Snapshot the registry without clearing it.
#[must_use]
pub fn snapshot() -> MetricsReport {
    let reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    MetricsReport {
        counters: reg
            .counters
            .iter()
            .map(|(&name, &value)| CounterSnapshot { name, value })
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(&name, g)| GaugeSnapshot {
                name,
                value: g.value,
                max: g.max,
            })
            .collect(),
        histograms: reg
            .hists
            .iter()
            .map(|(&name, h)| HistogramSnapshot {
                name,
                bounds: h.bounds.to_vec(),
                counts: h.counts.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
            })
            .collect(),
    }
}

/// Run `f` with a clean, enabled registry and return its result together
/// with the snapshot taken afterwards. Serializes competing callers (the
/// registry is process-global), restores the previous enablement state, and
/// leaves the registry reset. Intended for tests and harnesses.
pub fn with_metrics<T>(f: impl FnOnce() -> T) -> (T, MetricsReport) {
    static SCOPE: Mutex<()> = Mutex::new(());
    let _guard = SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_metrics_enabled(self.0);
            reset_metrics();
        }
    }
    let restore = Restore(metrics_enabled());
    reset_metrics();
    set_metrics_enabled(true);
    let result = f();
    let report = snapshot();
    drop(restore);
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    #[test]
    fn counters_and_histograms_snapshot() {
        let ((), report) = with_metrics(|| {
            counter_add("test.hits", 2);
            counter_add("test.hits", 3);
            observe_hist("test.depth", COUNT_BUCKETS, 3.0);
            observe_hist("test.depth", COUNT_BUCKETS, 9000.0);
        });
        assert_eq!(report.counter("test.hits"), Some(5));
        let h = report.histogram("test.depth").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 3.0);
        assert_eq!(h.max, 9000.0);
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow bucket used");
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn gauges_track_value_and_high_water_mark() {
        let ((), report) = with_metrics(|| {
            gauge_add("test.depth", 3);
            gauge_add("test.depth", 2);
            gauge_add("test.depth", -4);
            gauge_set("test.level", 9);
            gauge_set("test.level", 1);
        });
        let depth = report.gauge("test.depth").unwrap();
        assert_eq!(depth.value, 1);
        assert_eq!(depth.max, 5);
        let level = report.gauge("test.level").unwrap();
        assert_eq!(level.value, 1);
        assert_eq!(level.max, 9);
        let doc = parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("test.depth"))
                .and_then(|g| g.get("max")),
            Some(&JsonValue::Num(5.0))
        );
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let ((), report) = with_metrics(|| ());
        assert!(report.is_empty());
        counter_add("test.ignored", 1);
        observe_hist("test.ignored_h", SECONDS_BUCKETS, 0.5);
        let ((), after) = with_metrics(|| ());
        assert_eq!(after.counter("test.ignored"), None);
        assert!(after.histogram("test.ignored_h").is_none());
    }

    #[test]
    fn report_json_parses_with_hand_parser() {
        let ((), report) = with_metrics(|| {
            counter_add("a.b", 7);
            observe_hist("c.d", SECONDS_BUCKETS, 0.002);
        });
        let doc = parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a.b")),
            Some(&JsonValue::Num(7.0))
        );
        let hist = doc.get("histograms").and_then(|h| h.get("c.d")).unwrap();
        assert_eq!(hist.get("count"), Some(&JsonValue::Num(1.0)));
    }
}
