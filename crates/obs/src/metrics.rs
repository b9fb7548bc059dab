//! Process-global metrics registry: named monotonic counters and gauges with
//! high-water marks, snapshotted into a [`MetricsReport`].
//!
//! Collection is off by default (one relaxed atomic load per site when
//! disabled) and is enabled explicitly by harnesses — the exploration
//! benchmark under `benchmark/` reads its per-layer counters from registry
//! snapshots, and `contrarc-serve` closes each job trace with one. Like
//! sinks, metrics observe and never steer: no instrumented code path reads a
//! metric back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

static METRICS_ON: AtomicBool = AtomicBool::new(false);

struct Gauge {
    value: i64,
    /// High-water mark since the last reset (e.g. peak queue depth).
    max: i64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
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

/// Clear every counter and gauge.
pub fn reset_metrics() {
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    reg.counters.clear();
    reg.gauges.clear();
}

/// Add `delta` to the named counter. No-op while collection is disabled.
pub fn counter_add(name: &'static str, delta: u64) {
    if !metrics_enabled() {
        return;
    }
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    *reg.counters.entry(name).or_insert(0) += delta;
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

/// A point-in-time snapshot of the whole registry, ready for lookup or JSON
/// embedding (`contrarc-serve`'s job traces).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
}

impl MetricsReport {
    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
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

    /// Render as a JSON object value (no surrounding key), e.g.
    /// `{"counters":{"milp.nodes":12},"gauges":{…}}`.
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
        out.push_str("}}");
        out
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
        });
        assert_eq!(report.counter("test.hits"), Some(5));
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
        let ((), after) = with_metrics(|| ());
        assert_eq!(after.counter("test.ignored"), None);
    }

    #[test]
    fn report_json_parses_with_hand_parser() {
        let ((), report) = with_metrics(|| {
            counter_add("a.b", 7);
        });
        let doc = parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a.b")),
            Some(&JsonValue::Num(7.0))
        );
    }
}
