//! Wall-clock benchmark of the native ν-LPA path, end to end and layer by
//! layer. See `README.md` in this directory for the workloads, the
//! metrics and the noise evidence behind their design.

pub mod checks;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod workload;
