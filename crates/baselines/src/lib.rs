//! # nulpa-baselines
//!
//! The four systems the ν-LPA paper evaluates against (Fig. 6), each
//! reimplemented from its published description:
//!
//! * [`flpa()`](fn@flpa) — Fast Label Propagation Algorithm (Traag & Šubelj 2023),
//!   the sequential queue-based baseline.
//! * [`networkit_plp()`](fn@networkit_plp) — NetworKit's parallel LPA with `std::map` label
//!   weights, active flags, and the 10⁻⁵ threshold heuristic.
//! * [`gunrock_lp()`](fn@gunrock_lp) — Gunrock-style synchronous (Jacobi) label
//!   propagation, reproducing its characteristic low modularity.
//! * [`louvain()`](fn@louvain) — complete multi-level Louvain (local moving +
//!   aggregation), the cuGraph-Louvain stand-in for the quality/runtime
//!   trade-off.
//!
//! Plus [`gve_lpa()`](fn@gve_lpa) — the paper's own multicore predecessor (per-thread
//! collision-free hashtables) — [`leiden()`](fn@leiden) — the quality upper bound the
//! paper's appendix compares against indirectly — and the three
//! label-propagation relatives the paper's introduction reports having
//! evaluated ([`copra()`](fn@copra), [`slpa()`](fn@slpa), [`labelrank()`](fn@labelrank)), against which plain
//! LPA "emerged as the most efficient, delivering communities of
//! comparable quality".
//!
//! Every baseline runs on one thread. Those written with `par_*`
//! iterators build against `vendor/rayon`, a sequential stand-in with
//! rayon's API, so their "parallel" loops run in order on the calling
//! thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod copra;
pub mod flpa;
pub mod gunrock_lp;
pub mod gve_lpa;
pub mod labelrank;
pub mod leiden;
pub mod louvain;
pub mod networkit_plp;
pub mod slpa;

pub use copra::{copra, CopraConfig, CopraResult};
pub use flpa::{flpa, FlpaResult};
pub use gunrock_lp::{gunrock_lp, GunrockConfig, GunrockResult};
pub use gve_lpa::{gve_lpa, GveLpaConfig, GveLpaResult};
pub use labelrank::{labelrank, LabelRankConfig, LabelRankResult};
pub use leiden::{communities_connected, leiden, LeidenConfig, LeidenResult};
pub use louvain::{louvain, LouvainConfig, LouvainResult};
pub use networkit_plp::{networkit_plp, PlpConfig, PlpResult};
pub use slpa::{slpa, SlpaConfig, SlpaResult};
