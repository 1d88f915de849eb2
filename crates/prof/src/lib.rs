//! # nulpa-prof
//!
//! Kernel-level cycle-attribution profiler for the SIMT simulator — the
//! reproduction's analogue of Nsight Compute. The simulator already
//! *charges* every cycle it reports (see `nulpa-simt`); this crate answers
//! *where the cycles went*:
//!
//! * **Component attribution** — every charge a
//!   [`nulpa_simt::LaneMeter`] makes is tagged at charge time with a
//!   [`nulpa_simt::Comp`] id (ALU, global near/far, atomic, probe
//!   near/far, shared, barrier, frontier compaction). The per-component totals partition the
//!   lane cycles exactly — no leaked or double-counted charges — which
//!   [`Profile::verify`] checks bit-for-bit against the untagged
//!   `KernelStats`.
//! * **Loss ledger** — divergence (`idle`), load imbalance (warps done
//!   before the wave's slowest warp/block) and issue-throughput stall
//!   (wave duration beyond the critical path) close two exact ledgers:
//!   `lane + idle + imbalance = Σ critical×slots` and
//!   `sim_cycles = Σ critical + stall`.
//! * **Occupancy timeline** — per wave: simulated time interval, items
//!   resident vs. wave capacity, SMs active.
//! * **Roofline summary** — per kernel: useful work vs. charged
//!   lane-slots, ALU vs. memory cycle balance, bound classification.
//!
//! [`ProfileSink`] collects the scheduler's metrics records through the
//! ordinary `nulpa-obs` trace-sink interface; [`Profile`] aggregates them
//! per kernel / per iteration; [`render`] and [`json`] produce the
//! text-table and machine-readable forms behind `nulpa profile`;
//! [`json::gate_row`] is a profile's row in the CI perf gate
//! (`nulpa_obs::gate`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod json;
pub mod profile;
pub mod render;
pub mod run;

pub use collect::{LaunchRec, ProfileSink, WaveRec};
pub use profile::{IterAgg, KernelAgg, Profile};
pub use run::{backends, profile_graph, BackendSpec, GraphProfile};
