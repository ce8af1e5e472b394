//! The emission API: the [`Recorder`] trait, the no-op [`NullRecorder`],
//! and the hot-path [`RecorderHandle`].

use crate::event::TraceEvent;

/// Receives instrumentation as it happens.
///
/// Implementations decide what to keep: [`crate::MemoryRecorder`]
/// aggregates into a deterministic [`crate::Snapshot`];
/// [`NullRecorder`] discards everything and reports itself disabled so
/// callers can skip emission entirely.
pub trait Recorder {
    /// Whether emissions reach anything. Hot paths consult this once and
    /// skip all emission work when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the counter named `key`.
    fn counter(&mut self, key: &'static str, delta: u64);

    /// Sets the gauge named `key` (last write wins; merging sums).
    fn gauge(&mut self, key: &'static str, value: f64);

    /// Attaches a label (last write wins).
    fn label(&mut self, key: &'static str, value: &str);

    /// Opens a span for `phase`.
    fn span_enter(&mut self, phase: &'static str);

    /// Closes the innermost open span for `phase`, attributing `cycles` of
    /// simulated time.
    fn span_exit(&mut self, phase: &'static str, cycles: u64);

    /// Records `value` into the histogram named `key`.
    fn histogram(&mut self, key: &'static str, value: u64);

    /// Emits a structured trace event.
    fn event(&mut self, event: &TraceEvent);
}

/// The disabled recorder: every method is a no-op the optimizer removes,
/// and [`Recorder::enabled`] is `false` so instrumented code can skip
/// emission without even a virtual call (see [`RecorderHandle`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn counter(&mut self, _key: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&mut self, _key: &'static str, _value: f64) {}

    #[inline(always)]
    fn label(&mut self, _key: &'static str, _value: &str) {}

    #[inline(always)]
    fn span_enter(&mut self, _phase: &'static str) {}

    #[inline(always)]
    fn span_exit(&mut self, _phase: &'static str, _cycles: u64) {}

    #[inline(always)]
    fn histogram(&mut self, _key: &'static str, _value: u64) {}

    #[inline(always)]
    fn event(&mut self, _event: &TraceEvent) {}
}

/// The form instrumented hot paths hold a recorder in.
///
/// A handle over a disabled recorder stores [`None`], so every emission
/// reduces to one predictable branch — no virtual call, no argument
/// marshalling. This is what lets `BatchCtx` forward every state write and
/// edge touch without measurably slowing the propagation path when tracing
/// is off (the criterion smoke in `tdgraph-bench` asserts it).
#[derive(Default)]
pub struct RecorderHandle<'a> {
    inner: Option<&'a mut dyn Recorder>,
}

impl std::fmt::Debug for RecorderHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle").field("enabled", &self.is_enabled()).finish()
    }
}

impl<'a> RecorderHandle<'a> {
    /// A handle that forwards to `recorder` — unless the recorder reports
    /// itself disabled, in which case the handle is empty and emissions
    /// cost one branch.
    #[must_use]
    pub fn new(recorder: &'a mut dyn Recorder) -> Self {
        if recorder.enabled() {
            Self { inner: Some(recorder) }
        } else {
            Self { inner: None }
        }
    }

    /// The no-op handle.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether emissions reach a live recorder.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Re-borrows the handle for a narrower scope.
    #[must_use]
    pub fn reborrow(&mut self) -> RecorderHandle<'_> {
        match &mut self.inner {
            Some(r) => RecorderHandle { inner: Some(*r) },
            None => RecorderHandle { inner: None },
        }
    }

    /// Forwards [`Recorder::counter`].
    #[inline]
    pub fn counter(&mut self, key: &'static str, delta: u64) {
        if let Some(r) = &mut self.inner {
            r.counter(key, delta);
        }
    }

    /// Forwards [`Recorder::gauge`].
    #[inline]
    pub fn gauge(&mut self, key: &'static str, value: f64) {
        if let Some(r) = &mut self.inner {
            r.gauge(key, value);
        }
    }

    /// Forwards [`Recorder::label`].
    #[inline]
    pub fn label(&mut self, key: &'static str, value: &str) {
        if let Some(r) = &mut self.inner {
            r.label(key, value);
        }
    }

    /// Forwards [`Recorder::span_enter`].
    #[inline]
    pub fn span_enter(&mut self, phase: &'static str) {
        if let Some(r) = &mut self.inner {
            r.span_enter(phase);
        }
    }

    /// Forwards [`Recorder::span_exit`].
    #[inline]
    pub fn span_exit(&mut self, phase: &'static str, cycles: u64) {
        if let Some(r) = &mut self.inner {
            r.span_exit(phase, cycles);
        }
    }

    /// Forwards [`Recorder::histogram`].
    #[inline]
    pub fn histogram(&mut self, key: &'static str, value: u64) {
        if let Some(r) = &mut self.inner {
            r.histogram(key, value);
        }
    }

    /// Forwards [`Recorder::event`].
    #[inline]
    pub fn event(&mut self, event: &TraceEvent) {
        if let Some(r) = &mut self.inner {
            r.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MemoryRecorder;

    #[test]
    fn null_recorder_reports_disabled() {
        assert!(!NullRecorder.enabled());
        let mut null = NullRecorder;
        let handle = RecorderHandle::new(&mut null);
        assert!(!handle.is_enabled(), "a handle over NullRecorder must be empty");
    }

    #[test]
    fn disabled_handle_drops_everything() {
        let mut h = RecorderHandle::disabled();
        h.counter("k", 1);
        h.span_enter("p");
        h.span_exit("p", 10);
        h.histogram("h", 3);
        h.event(&TraceEvent::new("e"));
        assert!(!h.is_enabled());
    }

    #[test]
    fn live_handle_forwards() {
        let mut mem = MemoryRecorder::new();
        {
            let mut h = RecorderHandle::new(&mut mem);
            assert!(h.is_enabled());
            h.counter("k", 2);
            h.counter("k", 3);
            let mut narrow = h.reborrow();
            narrow.counter("k", 5);
        }
        assert_eq!(mem.snapshot().counter("k"), 10);
    }
}
