//! # nu-lpa — facade crate
//!
//! Re-exports the whole ν-LPA reproduction workspace under one roof so
//! examples and downstream users can depend on a single crate.
//!
//! * [`graph`] — CSR graphs, generators, dataset stand-ins ([`nulpa_graph`]).
//! * [`simt`] — the SIMT/GPU execution-model simulator ([`nulpa_simt`]).
//! * [`hashtab`] — per-vertex open-addressing hashtables ([`nulpa_hashtab`]).
//! * [`core`] — the ν-LPA algorithm itself ([`nulpa_core`]).
//! * [`baselines`] — FLPA, GVE-LPA, NetworKit PLP, Gunrock LP, Louvain,
//!   Leiden, COPRA, SLPA and LabelRank ([`nulpa_baselines`]).
//! * [`metrics`] — modularity, NMI, partition stats ([`nulpa_metrics`]).
//! * [`obs`] — structured tracing: sinks, histograms, JSONL/Perfetto
//!   exporters ([`nulpa_obs`]).
//! * [`sancheck`] — dynamic hazard checker for the SIMT execution model
//!   ([`nulpa_sancheck`]).
//! * [`prof`] — cycle-attribution profiler: per-component cost
//!   breakdowns, occupancy timelines, roofline summaries and the perf
//!   gate ([`nulpa_prof`]).
//! * [`telemetry`] — host-side telemetry: lock-free metrics registry,
//!   counting allocator, wall-clock phase spans, per-iteration
//!   convergence trajectories and the run-history ledger
//!   ([`nulpa_telemetry`]).
//! * [`check`] — static kernel effect verifier + workspace invariant
//!   linter ([`nulpa_check`]).

#![forbid(unsafe_code)]

pub use nulpa_baselines as baselines;
pub use nulpa_check as check;
pub use nulpa_core as core;
pub use nulpa_graph as graph;
pub use nulpa_hashtab as hashtab;
pub use nulpa_metrics as metrics;
pub use nulpa_obs as obs;
pub use nulpa_prof as prof;
pub use nulpa_sancheck as sancheck;
pub use nulpa_simt as simt;
pub use nulpa_telemetry as telemetry;
