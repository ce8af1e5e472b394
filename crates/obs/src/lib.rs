//! # tdgraph-obs — the unified observability layer.
//!
//! Every figure of the paper's evaluation is a derived metric: the
//! useful/useless update split (Fig 3b/11), phase-time breakdowns (Fig
//! 3a/10), cache/NoC/DRAM traffic (Fig 15–18), and energy (Fig 19). Before
//! this crate the reproduction computed those through three disconnected
//! surfaces — `UpdateCounters`/`RunMetrics` in the engines crate,
//! `MachineStats` in the simulator, and the sweep runner's ad-hoc
//! JSON-lines progress events. This crate is the one instrumentation
//! substrate they all emit into:
//!
//! * [`Recorder`] — the emission trait: named counters, per-phase spans
//!   (simulated-cycle attribution), and value histograms.
//! * [`NullRecorder`] / [`RecorderHandle`] — the disabled path. A handle
//!   built from [`RecorderHandle::disabled`] reduces every hot-path
//!   emission to one branch on an [`Option`], so instrumented code pays
//!   nothing when tracing is off.
//! * [`MemoryRecorder`] / [`Snapshot`] — the in-memory sink. A snapshot
//!   stores everything in ordered maps and carries no clock, so two
//!   snapshots built from the same events in any interleaving render
//!   byte-identically. Parallel producers (sweep cells, fleet workers)
//!   keep one snapshot each and fold them with [`Snapshot::merge_from`]
//!   in cell-index order.
//! * [`TraceEvent`] / [`TraceSink`] — structured events rendered as JSON
//!   lines. The sweep runner's progress events (`cell_started`,
//!   `cell_failed`, `cell_restored`, …) are ordinary trace events, and
//!   [`TraceEvent::canonical_json_line`] strips wall-clock fields so event
//!   streams can be compared across schedules.
//!
//! The domain crates keep their dense accumulators (`MachineStats`,
//! `UpdateCounters`) as hot-path representations, export them into a
//! [`Snapshot`] at phase/run boundaries, and derive their public metric
//! types *from* the snapshot — the snapshot is the source of truth.

// Robustness gate: non-test observability code must never unwrap/expect —
// a tracing layer must not be able to take the system down (enforced by CI
// clippy, same as the engines and facade crates).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod keys;
pub mod recorder;
pub mod sink;
pub mod snapshot;

pub use event::{TraceEvent, Value};
pub use recorder::{NullRecorder, Recorder, RecorderHandle};
pub use sink::{JsonlSink, TraceSink, VecSink};
pub use snapshot::{Histogram, MemoryRecorder, PhaseTotals, Snapshot};
