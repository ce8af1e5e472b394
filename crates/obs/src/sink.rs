//! Trace sinks: where [`TraceEvent`] streams go.
//!
//! A [`TraceSink`] is the shared-consumer side of the layer — sweep
//! progress, cell lifecycle, and any ad-hoc events flow through one. The
//! built-in sinks cover the common cases: [`JsonlSink`] renders each event
//! as one JSON line into any writer, [`VecSink`] buffers events for tests,
//! and any `Fn(&TraceEvent)` closure is a sink via the blanket impl.

use std::io::Write;
use std::sync::{Mutex, PoisonError};

use crate::event::TraceEvent;

/// Consumes a stream of trace events. Sinks are shared across worker
/// threads, so they take `&self` and must be `Send + Sync`; interior
/// mutability (usually a mutex around a writer or buffer) is the sink's
/// business.
pub trait TraceSink: Send + Sync {
    /// Receives one event. Ordering across threads is whatever the
    /// producers' schedule happens to be; per-producer ordering is
    /// preserved because each producer emits synchronously.
    fn emit(&self, event: &TraceEvent);
}

impl<F> TraceSink for F
where
    F: Fn(&TraceEvent) + Send + Sync,
{
    fn emit(&self, event: &TraceEvent) {
        self(event);
    }
}

/// An `Arc`'d sink is a sink, so a producer can keep one handle and hand
/// another to a runner (e.g. a shared [`VecSink`] inspected after a sweep).
impl<T: TraceSink + ?Sized> TraceSink for std::sync::Arc<T> {
    fn emit(&self, event: &TraceEvent) {
        (**self).emit(event);
    }
}

/// Renders each event as one JSON line into a writer.
///
/// In full mode (the default) lines include wall-clock fields; in canonical
/// mode they use [`TraceEvent::canonical_json_line`], producing a
/// schedule-independent stream. Write errors are swallowed — tracing must
/// never take down the run it is observing.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    canonical: bool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing full lines (wall-clock fields included).
    #[must_use]
    pub fn new(writer: W) -> Self {
        Self { writer: Mutex::new(writer), canonical: false }
    }

    /// A sink writing canonical lines (wall-clock fields stripped).
    #[must_use]
    pub fn canonical(writer: W) -> Self {
        Self { writer: Mutex::new(writer), canonical: true }
    }

    /// Flushes and returns the writer.
    #[must_use]
    pub fn into_inner(self) -> W {
        let mut writer = self.writer.into_inner().unwrap_or_else(PoisonError::into_inner);
        let _ = writer.flush();
        writer
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, event: &TraceEvent) {
        let line = if self.canonical { event.canonical_json_line() } else { event.to_json_line() };
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(writer, "{line}");
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("canonical", &self.canonical).finish_non_exhaustive()
    }
}

/// Buffers every event in memory — the test sink.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered events, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Drains and returns the buffered events.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The buffered events rendered as canonical (schedule-independent)
    /// JSON lines.
    #[must_use]
    pub fn canonical_lines(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(TraceEvent::canonical_json_line)
            .collect()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn emit(&self, event: &TraceEvent) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&TraceEvent::new("a").field("x", 1u64));
        sink.emit(&TraceEvent::new("b").wall_micros("wall_micros", 9));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "{\"event\":\"a\",\"x\":1}\n{\"event\":\"b\",\"wall_micros\":9}\n");
    }

    #[test]
    fn canonical_sink_strips_wall_fields() {
        let sink = JsonlSink::canonical(Vec::new());
        sink.emit(&TraceEvent::new("b").field("x", 1u64).wall_micros("wall_micros", 9));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text, "{\"event\":\"b\",\"x\":1}\n");
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let sink = VecSink::new();
        assert!(sink.is_empty());
        sink.emit(&TraceEvent::new("a"));
        sink.emit(&TraceEvent::new("b"));
        assert_eq!(sink.len(), 2);
        let names: Vec<_> = sink.events().iter().map(|e| e.name()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn closures_are_sinks() {
        let count = std::sync::atomic::AtomicUsize::new(0);
        let sink = |_e: &TraceEvent| {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        };
        let dyn_sink: &dyn TraceSink = &sink;
        dyn_sink.emit(&TraceEvent::new("a"));
        dyn_sink.emit(&TraceEvent::new("b"));
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 2);
    }
}
