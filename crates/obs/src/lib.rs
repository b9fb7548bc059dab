//! # contrarc-obs
//!
//! Zero-dependency observability substrate for the ContrArc workspace:
//! structured spans and events with pluggable sinks, plus a process-global
//! metrics registry (counters, and gauges with high-water marks).
//!
//! ## Design contract
//!
//! Sinks **observe, never steer**. Instrumented code must behave identically
//! whether a sink is installed or not: no instrumentation site may branch on
//! sink state, and no sink may feed data back into the exploration. This is
//! what keeps the engine-wide determinism guarantee (bit-identical optimum,
//! cuts, and stats) intact with tracing on or off: the *event stream* carries
//! timings that vary from run to run, the *results* may not.
//!
//! ## Fast path
//!
//! When no sink is installed (the default), every `span!`/`event!` site costs
//! one relaxed atomic load and a branch; field expressions are not even
//! evaluated. Installing any sink turns emission on.
//!
//! ## Event schema
//!
//! Every event carries: kind (`open`/`close`/`instant`), a static name,
//! a span id (0 for instants), the parent span id (0 for roots), a thread
//! label, a monotonic microsecond timestamp relative to the first event, and
//! typed key/value fields. `close` events additionally carry the span's
//! duration in microseconds. See [`json::validate_trace_line`] for the JSONL
//! wire schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sinks;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered.
    SpanOpen,
    /// A span was closed; `dur_us` is set.
    SpanClose,
    /// A point-in-time event inside (or outside) any span.
    Instant,
}

impl EventKind {
    /// The stable wire name of this kind (`open` / `close` / `instant`).
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "open",
            EventKind::SpanClose => "close",
            EventKind::Instant => "instant",
        }
    }
}

/// One structured observation delivered to a [`Sink`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Open, close, or instant.
    pub kind: EventKind,
    /// Static event name, dot-separated by convention (`milp.node`).
    pub name: &'static str,
    /// Span id (unique per process run); 0 for instant events.
    pub span: u64,
    /// Parent span id; 0 when emitted outside any span.
    pub parent: u64,
    /// Name of the emitting thread (`main`, a test's name, …), or `thread`
    /// for an unnamed one.
    pub thread: Arc<str>,
    /// Microseconds since the process-local trace epoch (monotonic).
    pub t_us: u64,
    /// Span duration in microseconds; `Some` only for close events.
    pub dur_us: Option<u64>,
    /// Typed key/value fields.
    pub fields: Vec<(&'static str, Value)>,
}

/// Destination for events. Implementations must be cheap-ish and must never
/// influence the instrumented computation (observe, never steer).
pub trait Sink: Send + Sync {
    /// Deliver one event. Called from arbitrary threads.
    fn record(&self, event: &Event);
    /// Flush any buffered output.
    fn flush(&self) {}
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_LABEL: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Whether a live sink is installed. Instrumentation macros check this before
/// evaluating any field expression; one relaxed load when disabled.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Microseconds since the first observation this process made (monotonic).
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Install `sink` as the process-global event destination, replacing any
/// previous one (which is flushed), and enable emission.
pub fn install_sink(sink: Arc<dyn Sink>) {
    let previous = {
        let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
        slot.replace(sink)
    };
    TRACE_ON.store(true, Ordering::SeqCst);
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Remove and flush the installed sink, returning it (if any). Emission is
/// disabled first, so no event can race past the removal.
pub fn uninstall_sink() -> Option<Arc<dyn Sink>> {
    TRACE_ON.store(false, Ordering::SeqCst);
    let sink = {
        let mut slot = SINK.write().unwrap_or_else(PoisonError::into_inner);
        slot.take()
    };
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Flush the installed sink, if any, without removing it.
pub fn flush_sink() {
    let slot = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(s) = slot.as_ref() {
        s.flush();
    }
}

/// Run `f` with `sink` installed, then restore the previous disabled state.
///
/// The global sink slot is process-wide; this helper serializes competing
/// installers behind a lock so concurrent tests don't observe each other's
/// events. The sink is uninstalled (and flushed) even if `f` panics. Do not
/// nest calls on one thread — the inner call would deadlock on the lock.
pub fn with_sink<T>(sink: Arc<dyn Sink>, f: impl FnOnce() -> T) -> T {
    let _guard = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            uninstall_sink();
        }
    }
    install_sink(sink);
    let _restore = Restore;
    f()
}

fn emit(event: &Event) {
    let slot = SINK.read().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        sink.record(event);
    }
}

/// The emitting thread's name, looked up once per thread.
fn thread_label() -> Arc<str> {
    THREAD_LABEL.with(|l| {
        if let Some(label) = l.borrow().as_ref() {
            return Arc::clone(label);
        }
        let label: Arc<str> = Arc::from(std::thread::current().name().unwrap_or("thread"));
        *l.borrow_mut() = Some(Arc::clone(&label));
        label
    })
}

/// RAII guard for an open span. Created by [`span_with`] (usually through the
/// [`span!`] macro); emits the close event, with any [`record`]ed fields and
/// the measured duration, on drop.
///
/// [`record`]: SpanGuard::record
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    name: &'static str,
    parent: u64,
    start_us: u64,
    close_fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    /// A guard that does nothing — what `span!` hands out when disabled.
    #[must_use]
    pub fn disabled() -> Self {
        SpanGuard { active: None }
    }

    /// Whether this guard represents a live span.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attach a field to the eventual close event (e.g. a result computed
    /// while the span was open). No-op on a disabled guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(a) = &mut self.active {
            a.close_fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&a.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != a.id);
            }
        });
        let t = now_us();
        emit(&Event {
            kind: EventKind::SpanClose,
            name: a.name,
            span: a.id,
            parent: a.parent,
            thread: thread_label(),
            t_us: t,
            dur_us: Some(t.saturating_sub(a.start_us)),
            fields: a.close_fields,
        });
    }
}

/// Open a span named `name` with the given fields. Prefer the [`span!`]
/// macro, which skips field evaluation entirely when tracing is disabled.
#[must_use]
pub fn span_with(name: &'static str, fields: Vec<(&'static str, Value)>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let t = now_us();
    emit(&Event {
        kind: EventKind::SpanOpen,
        name,
        span: id,
        parent,
        thread: thread_label(),
        t_us: t,
        dur_us: None,
        fields,
    });
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            name,
            parent,
            start_us: t,
            close_fields: Vec::new(),
        }),
    }
}

/// Emit a point-in-time event named `name` with the given fields, parented to
/// the innermost open span on this thread. Prefer the [`event!`] macro.
pub fn instant_with(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !enabled() {
        return;
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    emit(&Event {
        kind: EventKind::Instant,
        name,
        span: 0,
        parent,
        thread: thread_label(),
        t_us: now_us(),
        dur_us: None,
        fields,
    });
}

/// Open a span: `span!("milp.node", seq = 4, depth = 2)`. Returns a
/// [`SpanGuard`]; field expressions are only evaluated when tracing is
/// enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_with(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Emit an instant event: `event!("milp.incumbent", objective = 12.5)`.
/// Field expressions are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::instant_with(
                $name,
                vec![$((stringify!($key), $crate::Value::from($value))),*],
            );
        }
    };
}

/// A cloneable handle to an optional sink, suitable for embedding in a
/// configuration struct (`ExplorerConfig::observer`). Equality is identity:
/// two observers compare equal iff they hold the same sink allocation (or
/// both hold none), so configs stay `PartialEq` without requiring sinks to be.
#[derive(Clone, Default)]
pub struct Observer(Option<Arc<dyn Sink>>);

impl Observer {
    /// An observer that installs nothing.
    #[must_use]
    pub fn none() -> Self {
        Observer(None)
    }

    /// An observer wrapping `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Observer(Some(sink))
    }

    /// Whether a sink is present.
    #[must_use]
    pub fn is_some(&self) -> bool {
        self.0.is_some()
    }

    /// Install the wrapped sink as the process-global destination (see
    /// [`install_sink`]). Returns whether anything was installed.
    pub fn install(&self) -> bool {
        match &self.0 {
            Some(sink) => {
                install_sink(Arc::clone(sink));
                true
            }
            None => false,
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("Observer(sink)"),
            None => f.write_str("Observer(none)"),
        }
    }
}

impl PartialEq for Observer {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

/// If `CONTRARC_TRACE` is set, install a [`sinks::JsonlSink`] writing to that
/// path and return `Ok(true)`; otherwise return `Ok(false)`.
///
/// # Errors
///
/// Propagates the I/O error if the trace file cannot be created.
pub fn init_from_env() -> std::io::Result<bool> {
    match std::env::var_os("CONTRARC_TRACE") {
        Some(path) => {
            let sink = sinks::JsonlSink::create(std::path::Path::new(&path))?;
            install_sink(Arc::new(sink));
            Ok(true)
        }
        None => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::MemorySink;

    #[test]
    fn disabled_macros_do_not_evaluate_fields() {
        // Hold the installer lock so no concurrent test enables tracing.
        let _guard = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        uninstall_sink();
        let mut evaluated = false;
        let _g = span!(
            "test.noop",
            touched = {
                evaluated = true;
                1u64
            }
        );
        event!(
            "test.noop_event",
            touched = {
                evaluated = true;
                2u64
            }
        );
        assert!(!evaluated, "fields evaluated while tracing disabled");
    }

    #[test]
    fn span_nesting_and_close_fields() {
        let sink = Arc::new(MemorySink::default());
        let events = {
            let sink2 = Arc::clone(&sink);
            with_sink(sink2, || {
                let mut outer = span!("test.outer", layer = "a");
                {
                    let _inner = span!("test.inner");
                    event!("test.tick", n = 3u64);
                }
                outer.record("result", 42u64);
                drop(outer);
            });
            sink.events()
        };
        assert_eq!(events.len(), 5);
        let outer_open = &events[0];
        let inner_open = &events[1];
        let tick = &events[2];
        let inner_close = &events[3];
        let outer_close = &events[4];
        assert_eq!(outer_open.kind, EventKind::SpanOpen);
        assert_eq!(inner_open.parent, outer_open.span);
        assert_eq!(tick.kind, EventKind::Instant);
        assert_eq!(tick.parent, inner_open.span);
        assert_eq!(inner_close.span, inner_open.span);
        assert!(inner_close.dur_us.is_some());
        assert_eq!(
            outer_close.fields,
            vec![("result", Value::U64(42))],
            "close-time fields survive"
        );
    }

    #[test]
    fn observer_equality_is_identity() {
        let a = Observer::new(Arc::new(MemorySink::default()));
        let b = Observer::new(Arc::new(MemorySink::default()));
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(Observer::none(), Observer::default());
        assert_ne!(a, Observer::none());
    }
}
