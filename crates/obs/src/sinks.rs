//! Sink implementations: JSONL, stderr pretty-printer, and an in-memory
//! buffer for tests.

use crate::json::escape_into;
use crate::{Event, EventKind, Sink, Value};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

fn push_value_json(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => escape_into(out, s),
    }
}

/// Render one event as a single JSONL line (no trailing newline). The field
/// order is stable: `ev`, `t_us`, `span`, `parent`, `thread`, `name`,
/// `dur_us` (close only), `fields`.
#[must_use]
pub fn event_to_jsonl(event: &Event) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"ev\":\"");
    out.push_str(event.kind.wire_name());
    let _ = write!(
        out,
        "\",\"t_us\":{},\"span\":{},\"parent\":{},\"thread\":",
        event.t_us, event.span, event.parent
    );
    escape_into(&mut out, &event.thread);
    out.push_str(",\"name\":");
    escape_into(&mut out, event.name);
    if let Some(dur) = event.dur_us {
        let _ = write!(out, ",\"dur_us\":{dur}");
    }
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, key);
        out.push(':');
        push_value_json(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// Writes one JSON object per event to a writer. Each line is written (and
/// flushed) atomically under a lock, so concurrent threads never interleave
/// within a line and an abrupt process exit loses at most nothing. Write
/// errors are swallowed: diagnostics must never steer the computation.
pub struct JsonlSink {
    writer: Mutex<Box<dyn std::io::Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wrap an arbitrary writer.
    #[must_use]
    pub fn new(writer: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Create (truncate) `path` and write the trace there.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::fs::File::create(path)?)))
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event_to_jsonl(event);
        line.push('\n');
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.flush();
    }
}

/// Human progress lines on stderr: prints instant events as
/// `[  12.345s] name key=value …` and ignores span traffic, so stdout stays
/// machine-parseable while stderr carries progress.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrPrettySink;

impl Sink for StderrPrettySink {
    fn record(&self, event: &Event) {
        if event.kind != EventKind::Instant {
            return;
        }
        let mut line = String::with_capacity(96);
        let secs = event.t_us as f64 / 1e6;
        let _ = write!(line, "[{secs:>9.3}s] {}", event.name);
        for (key, value) in &event.fields {
            let _ = write!(line, " {key}={value}");
        }
        eprintln!("{line}");
    }
}

/// Buffers every event in memory — for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A copy of everything recorded so far, in delivery order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_trace_line;
    use std::sync::Arc;

    fn sample(kind: EventKind, span: u64, dur: Option<u64>) -> Event {
        Event {
            kind,
            name: "phase.sub",
            span,
            parent: 0,
            thread: Arc::from("main"),
            t_us: 7,
            dur_us: dur,
            fields: vec![
                ("n", Value::U64(3)),
                ("cost", Value::F64(1.5)),
                ("label", Value::Str("a\"b".to_owned())),
                ("ok", Value::Bool(true)),
            ],
        }
    }

    #[test]
    fn jsonl_lines_validate_against_schema() {
        for (kind, span, dur) in [
            (EventKind::SpanOpen, 4, None),
            (EventKind::SpanClose, 4, Some(11)),
            (EventKind::Instant, 0, None),
        ] {
            let line = event_to_jsonl(&sample(kind, span, dur));
            validate_trace_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut e = sample(EventKind::Instant, 0, None);
        e.fields = vec![("bad", Value::F64(f64::NAN))];
        let line = event_to_jsonl(&e);
        assert!(line.contains("\"bad\":null"), "{line}");
        validate_trace_line(&line).unwrap();
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(&sample(EventKind::SpanOpen, 1, None));
        sink.record(&sample(EventKind::SpanClose, 1, Some(2)));
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            validate_trace_line(line).unwrap();
        }
    }
}
