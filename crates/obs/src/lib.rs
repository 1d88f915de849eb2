//! `nulpa-obs` — structured tracing for the ν-LPA simulator stack.
//!
//! The crate defines the [`TraceSink`] trait that instrumented code
//! (the SIMT wave scheduler, the per-vertex hashtables, the LPA drivers)
//! emits into: spans keyed by simulated cycles, counters, and log2
//! histograms ([`Hist`]). The statically no-op [`NullSink`] is the
//! default so untraced runs pay nothing; [`RecordingSink`] backs tests;
//! [`JsonlSink`] and [`ChromeTraceSink`] are the two file exporters
//! (line-delimited JSON, and Chrome trace-event JSON viewable in
//! Perfetto with 1 simulated cycle rendered as 1 µs).
//!
//! Everything is hand-rolled — the build environment is offline, so the
//! crate has no dependencies ([`json`] holds the tiny JSON writer and
//! recursive-descent parser; [`summary`] reads trace files back for the
//! `nulpa trace` subcommand). [`gate`] is the one baseline format and
//! regression gate every CI check (cycles, host profile, quality,
//! scaling) runs through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod gate;
pub mod hist;
pub mod json;
pub mod meta;
pub mod sink;
pub mod summary;

pub use export::{ChromeTraceSink, JsonlSink};
pub use hist::{bucket_bounds, bucket_index, Hist, Percentiles, HIST_BUCKETS};
pub use sink::{track, MetricsEvent, NullSink, RecordingSink, TraceEvent, TraceSink, Value};
pub use summary::{summarize, TraceSummary};
