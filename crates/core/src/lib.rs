//! # nulpa-core
//!
//! ν-LPA: the paper's GPU label-propagation algorithm for community
//! detection, in three backends sharing one configuration:
//!
//! * [`lpa_gpu`] — the reproduction of the CUDA implementation, executed
//!   on the SIMT simulator with full cost metering (Algorithm 1 + 2,
//!   Pick-Less / Cross-Check swap mitigation, thread- and block-per-vertex
//!   kernels, per-vertex hashtables).
//! * [`lpa_native`] — the same schedule as a native host port, used for
//!   wall-clock benchmarking against the baselines (Fig. 6).
//! * [`lpa_seq`] — a simple sequential reference for differential testing.
//!
//! Plus [`pulp_partition`] — the paper's stated future-work application:
//! size-constrained k-way graph partitioning by label propagation.
//!
//! ```
//! use nulpa_core::{lpa_native, LpaConfig};
//! use nulpa_graph::gen::caveman_weighted;
//! use nulpa_metrics::modularity;
//!
//! let g = caveman_weighted(4, 8, 0.5);
//! let result = lpa_native(&g, &LpaConfig::default());
//! assert!(modularity(&g, &result.labels) > 0.5);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod coarsen;
pub mod config;
// The only unsafe code in this crate lives in these two modules
// (audited, allowlisted in check/unsafe_allowlist.toml and enforced by
// `nulpa check`): `disjoint` hands out non-overlapping mutable table
// regions from one buffer, and `gpu` takes such disjoint per-vertex
// regions from it (vertex-disjoint by CSR construction) for its parallel
// table writes.
#[allow(unsafe_code)]
pub mod disjoint;
pub mod dynamic;
pub mod effects;
pub mod fastpath;
#[allow(unsafe_code)]
pub mod gpu;
pub mod hostprof;
pub mod linkpred;
pub mod native;
pub mod observe;
pub mod partition;
pub mod pulp;
pub mod result;
pub mod seq;

pub use addr::AddrMap;
pub use coarsen::{coarsen_lpa, CoarseLevel, CoarsenConfig, CoarsenResult};
pub use config::{resolve_threads, LpaConfig, SwapMode, ValueType, MAX_THREADS};
pub use dynamic::{apply_batch, frontier, lpa_dynamic, EdgeBatch};
pub use effects::shipped_effects;
pub use fastpath::{bucket_partition, BucketThresholds};
pub use gpu::{lpa_gpu, lpa_gpu_observed, lpa_gpu_traced};
pub use hostprof::{
    BucketCounters, HostProfData, IterRepairStats, SpanKind, SpanRec, ThreadProfData, BUCKET_NAMES,
};
pub use linkpred::{adamic_adar, community_adamic_adar, top_k_predictions};
pub use native::{
    lpa_native, lpa_native_from_state, lpa_native_hostprof, lpa_native_observed, lpa_native_traced,
};
pub use observe::{IterObserver, NullObserver};
pub use partition::{partition_all, partition_candidates, KernelPartition};
pub use pulp::{pulp_partition, pulp_partition_weighted, PulpConfig, PulpResult};
pub use result::LpaResult;
pub use seq::{lpa_seq, lpa_seq_observed, lpa_seq_traced, SWEEP_BLOCK};
