//! The benchmark's own span recorder. Spans are opened and closed in the
//! benchmark's code around each call into a layer, kept in memory, and
//! written at the end as JSONL in the `contrarc-obs` wire schema, so
//! `trace_report` reads the file like any `CONTRARC_TRACE` capture.

use contrarc_obs::sinks::event_to_jsonl;
use contrarc_obs::{Event, EventKind, Value};
use std::sync::Arc;
use std::time::Instant;

/// An open span: its id, name, parent, and start.
pub struct Open {
    id: u64,
    name: &'static str,
    parent: u64,
    start: Instant,
    start_us: u64,
}

/// In-memory span log of one benchmark process (single-threaded: every span
/// is opened on the benchmark's main thread).
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    thread: Arc<str>,
    events: Vec<Event>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            thread: Arc::from("main"),
            events: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_us = self.now_us();
        self.events.push(Event {
            kind: EventKind::SpanOpen,
            name,
            span: id,
            parent,
            thread: Arc::clone(&self.thread),
            t_us: start_us,
            dur_us: None,
            fields,
        });
        Open {
            id,
            name,
            parent,
            start: Instant::now(),
            start_us,
        }
    }

    /// Close `span` (which must be the innermost open span) and return its
    /// wall time in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let secs = span.start.elapsed().as_secs_f64();
        let t_us = self.now_us();
        assert_eq!(
            self.stack.pop(),
            Some(span.id),
            "spans close innermost first"
        );
        self.events.push(Event {
            kind: EventKind::SpanClose,
            name: span.name,
            span: span.id,
            parent: span.parent,
            thread: Arc::clone(&self.thread),
            t_us,
            dur_us: Some(t_us.saturating_sub(span.start_us)),
            fields: Vec::new(),
        });
        secs
    }

    /// The log as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event_to_jsonl(event));
            out.push('\n');
        }
        out
    }
}
