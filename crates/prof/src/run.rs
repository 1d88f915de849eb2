//! Profiling driver: runs the simulated-GPU backend under a
//! [`ProfileSink`] for a matrix of profiling configurations ("backends")
//! and returns verified [`Profile`]s.

use crate::collect::ProfileSink;
use crate::profile::Profile;
use nulpa_core::{lpa_gpu_traced, LpaConfig, ValueType};
use nulpa_graph::Csr;
use nulpa_simt::DeviceConfig;

/// One profiling configuration: a label plus the LPA config it runs.
///
/// All backends drive the simulated-GPU path (`lpa_gpu_traced`) — the
/// native and sequential backends do not meter cycles, so there is
/// nothing to attribute there.
#[derive(Clone, Debug)]
pub struct BackendSpec {
    /// Stable label (used in reports, JSON and the perf gate).
    pub name: &'static str,
    /// Configuration the backend runs.
    pub config: LpaConfig,
}

/// The default backend matrix: the paper's A100 preset, the tiny
/// multi-wave device, the shared-memory-tables ablation and the 64-bit
/// datatype ablation.
pub fn backends() -> Vec<BackendSpec> {
    vec![
        BackendSpec {
            name: "a100",
            config: LpaConfig::default(),
        },
        BackendSpec {
            name: "tiny",
            config: LpaConfig::default().with_device(DeviceConfig::tiny()),
        },
        BackendSpec {
            name: "a100-shared",
            config: LpaConfig::default().with_shared_tables(true),
        },
        BackendSpec {
            name: "a100-f64",
            config: LpaConfig::default().with_value_type(ValueType::F64),
        },
    ]
}

/// A verified profile plus the run outcome it came from.
#[derive(Clone, Debug)]
pub struct GraphProfile {
    /// The aggregated profile.
    pub profile: Profile,
    /// Communities found (distinct labels), for the report header.
    pub communities: usize,
    /// Conservation-check outcome (`Err` = attribution leaked cycles).
    pub conservation: Result<(), String>,
}

/// Run one `(graph, backend)` profile: execute the simulated backend with
/// a collecting sink, aggregate, and verify conservation against the
/// run's untagged `KernelStats`.
pub fn profile_graph(graph_name: &str, g: &Csr, spec: &BackendSpec) -> GraphProfile {
    let mut sink = ProfileSink::new();
    let result = lpa_gpu_traced(g, &spec.config, &mut sink);
    let profile = Profile::build(
        graph_name,
        spec.name,
        spec.config.device.sm_count,
        sink,
        result.iterations as u64,
        result.converged,
    );
    let conservation = profile.verify(&result.stats);
    let mut labels: Vec<u32> = result.labels.clone();
    labels.sort_unstable();
    labels.dedup();
    GraphProfile {
        profile,
        communities: labels.len(),
        conservation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::two_cliques_light_bridge;

    #[test]
    fn profile_run_conserves_cycles() {
        let g = two_cliques_light_bridge(5);
        for spec in backends() {
            let gp = profile_graph("two-cliques", &g, &spec);
            gp.conservation
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(gp.profile.totals.sim_cycles > 0);
            assert!(!gp.profile.kernels.is_empty());
            assert!(gp.communities >= 2);
        }
    }
}
