//! Integration tests for the observability subsystem: the JSONL wire schema
//! stays valid end-to-end, spans nest correctly, and the metrics registry
//! agrees with the exploration statistics it mirrors.
//!
//! The sink and metrics registries are process-global, so every test routes
//! through `with_sink` / `with_metrics`, which serialize installs against
//! each other and restore the previous state on exit.

use contrarc::{explore, ExplorerConfig, Problem};
use contrarc_obs::json::validate_trace_line;
use contrarc_obs::sinks::{JsonlSink, MemorySink};
use contrarc_systems::rpl::{build, RplConfig, RplLines};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The sink and metrics registries are process-global, and the metrics test
/// asserts exact counter equality — a concurrently running exploration from a
/// sibling test would pollute the registry. Every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn problem() -> Problem {
    build(&RplConfig::default(), RplLines::Both)
}

#[test]
fn jsonl_trace_is_schema_valid_and_names_every_phase() {
    let _serial = serialize();
    let path =
        std::env::temp_dir().join(format!("contrarc_obs_schema_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create trace file");
    contrarc_obs::with_sink(Arc::new(sink), || {
        explore(&problem(), &ExplorerConfig::complete()).expect("exploration failed");
        contrarc_obs::flush_sink();
    });

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    assert!(!text.trim().is_empty(), "trace file is empty");

    let mut names = BTreeSet::new();
    let mut open = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let rec =
            validate_trace_line(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        names.insert(rec.name.clone());
        match rec.ev.as_str() {
            "open" => {
                assert!(open.insert(rec.span), "span id {} reused", rec.span);
            }
            "close" => {
                assert!(open.remove(&rec.span), "close without open: {line}");
                assert!(rec.dur_us.is_some(), "close without dur_us: {line}");
            }
            "instant" => {}
            other => panic!("unknown event kind {other}"),
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    for expected in [
        "explore.iteration",
        "explore.select",
        "explore.refine",
        "refine.path",
        "milp.solve",
    ] {
        assert!(names.contains(expected), "no '{expected}' span in trace");
    }
}

#[test]
fn spans_nest_under_open_parents() {
    let _serial = serialize();
    let sink = Arc::new(MemorySink::default());
    let events = contrarc_obs::with_sink(Arc::<MemorySink>::clone(&sink), || {
        explore(&problem(), &ExplorerConfig::complete()).expect("exploration failed");
        sink.events()
    });
    assert!(!events.is_empty(), "no events");

    // Every non-root parent must refer to a span that was opened.
    let opened: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind.wire_name() == "open")
        .map(|e| e.span)
        .collect();
    for e in &events {
        assert!(
            e.parent == 0 || opened.contains(&e.parent),
            "event '{}' has dangling parent {}",
            e.name,
            e.parent
        );
    }
}

#[test]
fn metrics_registry_mirrors_exploration_stats() {
    let _serial = serialize();
    let (result, report) = contrarc_obs::metrics::with_metrics(|| {
        explore(&problem(), &ExplorerConfig::complete()).expect("exploration failed")
    });
    let stats = result.stats();
    assert!(!report.is_empty(), "no metrics recorded");

    assert_eq!(
        report.counter("explore.iterations"),
        Some(stats.iterations as u64),
        "iteration counter disagrees with ExplorationStats"
    );
    assert_eq!(
        report.counter("refine.cache_hits"),
        Some(stats.cache_hits),
        "cache-hit counter disagrees with ExplorationStats"
    );
    assert_eq!(
        report.counter("refine.cache_misses"),
        Some(stats.cache_misses),
        "cache-miss counter disagrees with ExplorationStats"
    );
    assert!(stats.cache_misses > 0, "refinement ran");
    assert_eq!(
        report.counter("refine.path_checks"),
        Some(stats.cache_misses),
        "every cache miss is one path check"
    );
    assert!(report.counter("milp.nodes").unwrap_or(0) > 0);
}

#[test]
fn live_gauges_are_populated() {
    let _serial = serialize();
    let (result, report) = contrarc_obs::metrics::with_metrics(|| {
        explore(&problem(), &ExplorerConfig::complete()).expect("exploration failed")
    });
    for name in ["milp.frontier", "explore.cut_pool", "refine.cache_entries"] {
        let g = report
            .gauge(name)
            .unwrap_or_else(|| panic!("gauge '{name}' never set during exploration"));
        assert!(g.max > 0, "gauge '{name}' never rose above zero");
    }
    // The cut-pool gauge ends at the value the statistics imply.
    assert_eq!(
        report.gauge("explore.cut_pool").unwrap().value,
        result.stats().cuts_added as i64,
        "final cut-pool gauge disagrees with cuts_added"
    );
}

#[test]
fn metrics_disabled_outside_with_metrics_scope() {
    let _serial = serialize();
    let ((), report) = contrarc_obs::metrics::with_metrics(|| {});
    assert!(report.is_empty(), "empty closure must record nothing");
    // Outside a scope these are no-ops; nothing to assert beyond "no panic",
    // but the call must be safe from test threads.
    contrarc_obs::metrics::counter_add("obs.test.orphan", 1);
}
