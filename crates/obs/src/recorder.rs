//! The emission API: the [`Recorder`] trait and the no-op [`NullRecorder`].

use crate::event::TraceEvent;

/// Receives instrumentation as it happens.
///
/// Implementations decide what to keep: [`crate::MemoryRecorder`]
/// aggregates into a deterministic [`crate::Snapshot`]; [`NullRecorder`]
/// discards everything.
pub trait Recorder {
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

/// The disabled recorder: every method is a no-op the optimizer removes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
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
