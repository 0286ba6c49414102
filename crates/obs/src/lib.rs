//! Observability for the RSSD simulation stack: dual-timeline structured
//! tracing and its grammar ([`check()`]), the log-linear [`Histogram`], and
//! host-side phase profiling.
//!
//! Everything in this crate is **zero-cost when disabled**: the sink and
//! profiler handles default to a disabled state whose emission paths are a
//! single `Option` branch, and no component of the simulator ever *reads*
//! anything back from the observability layer — observation cannot perturb
//! simulation, which is what keeps the workspace's byte-identical-report
//! determinism contracts intact with tracing enabled (pinned by proptest in
//! `rssd-fleet` and `rssd-faults`).
//!
//! There are **no globals**: a [`SinkHandle`] or [`ProfilerHandle`] is
//! threaded explicitly into each component (`set_trace_sink` /
//! `set_profiler` methods on the instrumented types). Handles are cheap
//! `Rc` clones, which is safe under the fleet's share-nothing model —
//! members build their whole device stack *inside* a worker thread and
//! extract the recorded events as plain data before returning.
//!
//! See DESIGN.md §10 for the dual-timeline model and the export format.

pub mod check;
pub mod chrome;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use check::{check, TraceRule, TraceSummary, TraceViolation};
pub use chrome::export_chrome_trace;
pub use metrics::Histogram;
pub use profile::{ProfileBreakdown, ProfilerHandle};
pub use trace::{SinkHandle, TraceEvent, TraceEventKind};
