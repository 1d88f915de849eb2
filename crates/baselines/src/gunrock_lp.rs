//! Gunrock-style synchronous label propagation.
//!
//! Gunrock's `LpProblem` implements *synchronous* (Jacobi-style) label
//! propagation: every vertex computes its new label from the previous
//! iteration's labels, and all updates land together. Synchronous LP is
//! known to oscillate on bipartite-ish structure (the community-swap
//! pathology affects *every* vertex pair, not just co-resident ones),
//! which is why the paper observes that "the modularity achieved by
//! Gunrock LPA is very low". This baseline reproduces that behaviour on
//! one thread: its `into_par_iter` builds against the sequential
//! `vendor/rayon` stand-in.

use crate::common::argmax_label;
use nulpa_graph::{Csr, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;

/// Gunrock-LP configuration.
#[derive(Clone, Copy, Debug)]
pub struct GunrockConfig {
    /// Iteration cap. Gunrock's default app setting runs a small fixed
    /// number of synchronous sweeps.
    pub max_iterations: u32,
    /// Stop early when fewer than this fraction of vertices change.
    pub tolerance: f64,
}

impl Default for GunrockConfig {
    fn default() -> Self {
        GunrockConfig {
            max_iterations: 10,
            tolerance: 1e-3,
        }
    }
}

/// Result of a synchronous LP run.
#[derive(Clone, Debug)]
pub struct GunrockResult {
    /// Final labels.
    pub labels: Vec<VertexId>,
    /// Iterations performed.
    pub iterations: u32,
    /// Changes per iteration (oscillation shows as a non-decaying tail).
    pub changed_per_iter: Vec<usize>,
}

/// Run synchronous label propagation.
pub fn gunrock_lp(g: &Csr, config: &GunrockConfig) -> GunrockResult {
    let n = g.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut changed_per_iter = Vec::new();
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let old = labels.clone(); // Jacobi: everyone reads the old state
        let new: Vec<VertexId> = (0..n as VertexId)
            .into_par_iter()
            .map(|v| {
                let mut weights: HashMap<VertexId, f64> = HashMap::new();
                for (j, w) in g.neighbors(v) {
                    if j == v {
                        continue;
                    }
                    *weights.entry(old[j as usize]).or_insert(0.0) += w as f64;
                }
                weights
                    .iter()
                    .fold(None, |acc, (&l, &w)| argmax_label(acc, l, w))
                    .map_or(old[v as usize], |(l, _)| l)
            })
            .collect();
        let changed = new.iter().zip(&old).filter(|(a, b)| a != b).count();
        labels = new;
        changed_per_iter.push(changed);
        if (changed as f64) < config.tolerance * n as f64 {
            break;
        }
    }

    GunrockResult {
        labels,
        iterations,
        changed_per_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{caveman_weighted, planted_partition, two_cliques_light_bridge};
    use nulpa_graph::GraphBuilder;
    use nulpa_metrics::{check_labels, modularity};

    fn cfg() -> GunrockConfig {
        GunrockConfig::default()
    }

    #[test]
    fn synchronous_oscillation_on_matching() {
        // perfect matching: pairs swap labels forever under Jacobi updates
        let mut b = GraphBuilder::new(20);
        for i in 0..10u32 {
            b.push_undirected(2 * i, 2 * i + 1, 1.0);
        }
        let g = b.build();
        let r = gunrock_lp(&g, &cfg());
        assert_eq!(r.iterations, cfg().max_iterations, "should not converge");
        assert!(r.changed_per_iter.iter().all(|&c| c == 20));
    }

    #[test]
    fn quality_below_async_lpa() {
        // the headline claim: synchronous LP yields very low modularity.
        // Sparse near-bipartite structure (grids, chains) oscillates under
        // Jacobi updates; async FLPA handles it fine.
        let g = nulpa_graph::gen::grid2d(20, 20, 1.0, 0);
        let q_sync = modularity(&g, &gunrock_lp(&g, &cfg()).labels);
        let q_async = modularity(&g, &crate::flpa::flpa(&g, 1).labels);
        assert!(q_sync < 0.2, "sync should be near zero, got {q_sync}");
        assert!(q_sync < q_async - 0.2, "sync {q_sync} vs async {q_async}");
    }

    #[test]
    fn still_finds_obvious_cliques_sometimes() {
        // dense cliques stabilize even under synchronous updates
        let g = caveman_weighted(3, 8, 0.5);
        let r = gunrock_lp(&g, &cfg());
        let q = modularity(&g, &r.labels);
        assert!(q > 0.0, "Q = {q}");
    }

    #[test]
    fn labels_valid_and_counts_recorded() {
        let g = two_cliques_light_bridge(5);
        let r = gunrock_lp(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert_eq!(r.changed_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn empty_graph() {
        let g = nulpa_graph::Csr::empty(3);
        let r = gunrock_lp(&g, &cfg());
        assert_eq!(r.labels, vec![0, 1, 2]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn deterministic() {
        let pp = planted_partition(&[40, 40], 8.0, 1.0, 3);
        assert_eq!(
            gunrock_lp(&pp.graph, &cfg()).labels,
            gunrock_lp(&pp.graph, &cfg()).labels
        );
    }
}
