//! # hth-trace — observability plumbing for the HTH pipeline
//!
//! Three small, dependency-free pillars shared by every other crate:
//!
//! * **Tracing** ([`trace`]): span/instant events pushed into per-thread
//!   fixed-capacity ring buffers behind a single atomic enabled flag.
//!   The disabled path is one relaxed load; a collector drains every
//!   thread's buffer and exports Chrome `trace_event` JSON that loads in
//!   `chrome://tracing` and Perfetto.
//! * **Metrics** ([`metrics`]): named counters, gauges and log-bucketed
//!   histograms with point-in-time snapshots, snapshot deltas, and a
//!   Prometheus-style text exposition. The per-subsystem stat structs
//!   (`TaintStats`, `MatchStats`, shard/pool/fleet counters) all fold
//!   into one [`MetricsSnapshot`] describing a whole run.
//! * **Flight recorder** ([`flight`]): an *always-on* bounded ring of
//!   recent events and coarse stage timings — independent of the
//!   tracer's enabled gate — snapshotted into serializable
//!   [`DiagnosticBundle`]s when a trigger fires (warning, quarantine,
//!   restore fallback, protocol drop).
//! * **Diagnostics log** ([`diag`]): structured `level + component +
//!   message` lines through a token-bucket rate limit, giving the
//!   previously-silent failure paths a bounded voice.
//!
//! The remaining pillar — warning provenance — lives in `hth-core`,
//! where the `Warning` type is defined; this crate stays at the bottom
//! of the dependency DAG so every layer can emit spans and metrics.

#![warn(missing_docs)]

pub mod diag;
pub mod flight;
pub mod metrics;
pub mod trace;

pub use diag::{global as global_diag, DiagLevel, DiagLog};
pub use flight::{
    BundleRing, DiagnosticBundle, FlightEntry, FlightRecorder, SmallStr, Trigger,
    DEFAULT_BUNDLE_RETENTION, DEFAULT_FLIGHT_CAPACITY,
};
pub use metrics::{global as global_metrics, Histogram, MetricsSnapshot, Registry};
pub use trace::{
    drain, enabled, instant, set_enabled, span, Phase, RingBuffer, Span, TraceEvent, TraceLog,
};
