//! NetworKit-style Parallel Label Propagation (PLP).
//!
//! Reimplementation of `NetworKit::PLP::run()` as the paper describes it
//! (§2, related work): every vertex starts with a unique label; a boolean
//! active-flag vector tracks vertices whose neighbourhood changed; each
//! iteration processes the active vertices in a shuffled order (NetworKit
//! runs them in parallel under an OpenMP *guided* schedule; the `par_iter`
//! here builds against the sequential `vendor/rayon` stand-in, so this
//! port runs them one after another on one thread); per-vertex
//! label weights live in an `std::map` (here `BTreeMap` — deliberately,
//! since the paper's critique of PLP is precisely this allocation-heavy
//! map); convergence uses the threshold heuristic: stop when fewer than
//! `tolerance · |V|` vertices updated (NetworKit's θ = 10⁻⁵).

use crate::common::{argmax_label, shuffle};
use nulpa_graph::{Csr, VertexId};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// PLP configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlpConfig {
    /// Update-threshold tolerance (NetworKit default 10⁻⁵).
    pub tolerance: f64,
    /// Iteration cap (NetworKit's `maxIterations`; effectively unbounded
    /// there, capped here for safety).
    pub max_iterations: u32,
    /// Shuffle seed for the processing order.
    pub seed: u64,
}

impl Default for PlpConfig {
    fn default() -> Self {
        PlpConfig {
            tolerance: 1e-5,
            max_iterations: 100,
            seed: 0,
        }
    }
}

/// Result of a PLP run.
#[derive(Clone, Debug)]
pub struct PlpResult {
    /// Final labels.
    pub labels: Vec<VertexId>,
    /// Iterations performed.
    pub iterations: u32,
    /// Updated-vertex counts per iteration.
    pub updated_per_iter: Vec<usize>,
}

/// Run NetworKit-style PLP.
pub fn networkit_plp(g: &Csr, config: &PlpConfig) -> PlpResult {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as VertexId).map(AtomicU32::new).collect();
    let active: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(1)).collect();
    let threshold = (config.tolerance * n as f64).max(1.0);

    let mut updated_per_iter = Vec::new();
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let mut order: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| active[v as usize].load(Ordering::Relaxed) == 1 && g.degree(v) > 0)
            .collect();
        if order.is_empty() {
            updated_per_iter.push(0);
            break;
        }
        shuffle(&mut order, config.seed ^ iter as u64);

        let updated: usize = order
            .par_iter()
            .map(|&v| {
                active[v as usize].store(0, Ordering::Relaxed);
                // the std::map the paper criticises
                let mut weights: BTreeMap<VertexId, f64> = BTreeMap::new();
                for (j, w) in g.neighbors(v) {
                    if j == v {
                        continue;
                    }
                    let l = labels[j as usize].load(Ordering::Relaxed);
                    *weights.entry(l).or_insert(0.0) += w as f64;
                }
                let best = weights
                    .iter()
                    .fold(None, |acc, (&l, &w)| argmax_label(acc, l, w));
                let Some((best_label, _)) = best else {
                    return 0usize;
                };
                let cur = labels[v as usize].load(Ordering::Relaxed);
                if best_label != cur {
                    labels[v as usize].store(best_label, Ordering::Relaxed);
                    for &j in g.neighbor_ids(v) {
                        active[j as usize].store(1, Ordering::Relaxed);
                    }
                    1
                } else {
                    0
                }
            })
            .sum();

        updated_per_iter.push(updated);
        if (updated as f64) < threshold {
            break;
        }
    }

    PlpResult {
        labels: labels.into_iter().map(|l| l.into_inner()).collect(),
        iterations,
        updated_per_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{
        caveman_ground_truth, caveman_weighted, complete, erdos_renyi, planted_partition,
    };
    use nulpa_graph::Csr;
    use nulpa_metrics::{check_labels, community_count, modularity, nmi, same_partition};

    fn cfg() -> PlpConfig {
        PlpConfig::default()
    }

    #[test]
    fn caveman_recovered() {
        let g = caveman_weighted(5, 8, 0.5);
        let r = networkit_plp(&g, &cfg());
        assert!(same_partition(&r.labels, &caveman_ground_truth(5, 8)));
    }

    #[test]
    fn complete_collapses() {
        let g = complete(12);
        let r = networkit_plp(&g, &cfg());
        assert_eq!(community_count(&r.labels), 1);
    }

    #[test]
    fn planted_partition_quality() {
        let pp = planted_partition(&[60, 60, 60], 12.0, 0.5, 5);
        let r = networkit_plp(&pp.graph, &cfg());
        assert!(modularity(&pp.graph, &r.labels) > 0.35);
        assert!(nmi(&r.labels, &pp.ground_truth) > 0.6);
    }

    #[test]
    fn tight_tolerance_runs_longer_than_loose() {
        let g = erdos_renyi(400, 1600, 3);
        let tight = networkit_plp(&g, &cfg());
        let loose = networkit_plp(
            &g,
            &PlpConfig {
                tolerance: 0.05,
                ..cfg()
            },
        );
        assert!(loose.iterations <= tight.iterations);
    }

    #[test]
    fn valid_labels_and_iteration_accounting() {
        let g = erdos_renyi(200, 600, 8);
        let r = networkit_plp(&g, &cfg());
        assert!(check_labels(&g, &r.labels).is_ok());
        assert_eq!(r.updated_per_iter.len(), r.iterations as usize);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(3);
        let r = networkit_plp(&g, &cfg());
        assert_eq!(r.labels, vec![0, 1, 2]);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = erdos_renyi(300, 1200, 4);
        let r = networkit_plp(
            &g,
            &PlpConfig {
                max_iterations: 2,
                ..cfg()
            },
        );
        assert!(r.iterations <= 2);
    }
}
