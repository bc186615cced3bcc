//! Opt-in telemetry for the embedded MPLS reproduction.
//!
//! The paper validates its label stack modifier through signal traces and
//! cycle counts; the simulator layers above it need the software analogue —
//! per-stage counters, queue-depth time series, latency histograms — in the
//! spirit of the per-stage counters programmable switch pipelines expose.
//!
//! The crate provides:
//!
//! * typed instruments ([`instrument`]): monotonic [`Counter`]s, [`Gauge`]s,
//!   fixed-bucket [`Histogram`]s and ring-buffer [`TimeSeries`] with a
//!   configurable sampling interval that degrades gracefully (downsampling)
//!   instead of growing without bound;
//! * a [`Registry`] that owns instruments and hands out copyable integer
//!   handles, so the hot path records by index with no string hashing;
//! * a lightweight span/event [`Tracer`] keyed by *simulation* time in
//!   nanoseconds, never wall clock;
//! * JSON and CSV exporters ([`export`]) over a serializable
//!   [`TelemetryReport`] snapshot.
//!
//! Telemetry is a value, not a type: a run holds an `Option<Registry>`
//! and every record site checks it. A run without telemetry pays one
//! predictable branch per record site it reaches, and builds no instrument,
//! name or sample: on the three `perfbench` workloads its `run_s` measured
//! 0.90–0.99× of an earlier build that compiled the checks away
//! (`mpls-bench`'s overhead test pins that such a run is not slower than a
//! telemetry run).

pub mod export;
pub mod instrument;
pub mod registry;
pub mod report;
pub mod tracer;

pub use export::{to_csv as telemetry_to_csv, to_json as telemetry_to_json};
pub use instrument::{Counter, Gauge, Histogram, TimeSeries};
pub use registry::{CounterId, GaugeId, HistId, Registry, SeriesId, TelemetryConfig};
pub use report::{
    EventExport, HistogramExport, SeriesExport, SpanExport, TelemetryReport, ValueExport,
};
pub use tracer::{Event, Span, SpanId, Tracer};
