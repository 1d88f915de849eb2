//! LPA-based k-way graph partitioning — the paper's stated future work.
//!
//! The conclusion motivates ν-LPA "for performance-critical applications,
//! such as partitioning of large graphs. We plan to look into this in the
//! future." This module implements that application in the style of PuLP
//! (Slota et al., "PuLP: Scalable multi-objective multi-constraint
//! partitioning using label propagation", cited by the paper): labels are
//! *part ids* instead of community ids, propagation maximizes the weight
//! connecting a vertex to a part, and a size constraint keeps parts
//! balanced.
//!
//! Algorithm:
//! 1. initialize parts by contiguous chunks (CSR order is usually already
//!    locality-friendly) or randomly;
//! 2. LPA sweeps in shuffled order — a vertex moves to its most-connected
//!    part *iff* the destination stays under `balance · n/k` and the move
//!    does not empty the source below a floor;
//! 3. stop when a sweep moves fewer than `tolerance · n` vertices.

use crate::seq::shuffle_candidates;
use nulpa_graph::{Csr, VertexId};
use std::collections::BTreeMap;

/// Deterministic, magnitude-uncorrelated label order for tie-breaking
/// (shared with [`crate::coarsen`]). Breaking weight ties by smallest raw
/// label would cascade every tie toward label 0.
#[inline]
pub(crate) fn scramble(label: VertexId) -> u32 {
    (label ^ 0x5bd1_e995)
        .wrapping_mul(0x9e37_79b9)
        .rotate_left(13)
}

/// Partitioner configuration.
#[derive(Clone, Copy, Debug)]
pub struct PulpConfig {
    /// Number of parts `k`.
    pub num_parts: usize,
    /// Maximum part size as a multiple of `n / k` (1.05 = 5 % slack).
    pub balance: f64,
    /// Sweep cap.
    pub max_iterations: u32,
    /// Stop when fewer than this fraction of vertices move in a sweep.
    pub tolerance: f64,
    /// Start from random part assignment instead of contiguous chunks.
    pub random_init: bool,
    /// Seed for shuffles / random init.
    pub seed: u64,
}

impl Default for PulpConfig {
    fn default() -> Self {
        PulpConfig {
            num_parts: 2,
            balance: 1.05,
            max_iterations: 20,
            tolerance: 0.005,
            random_init: false,
            seed: 0,
        }
    }
}

/// Result of a partitioning run.
#[derive(Clone, Debug)]
pub struct PulpResult {
    /// Part id (`0..k`) of every vertex.
    pub parts: Vec<VertexId>,
    /// Sweeps performed.
    pub iterations: u32,
    /// Vertices moved per sweep.
    pub moved_per_iter: Vec<usize>,
}

/// Partition `g` into `config.num_parts` balanced parts by size-constrained
/// label propagation.
///
/// # Panics
/// Panics if `num_parts` is 0 or exceeds `|V|`, or the balance is < 1.
pub fn pulp_partition(g: &Csr, config: &PulpConfig) -> PulpResult {
    pulp_partition_weighted(g, config, None)
}

/// [`pulp_partition`] with per-vertex weights: the balance constraint caps
/// each part's total *weight* instead of its vertex count. This is what a
/// multilevel pipeline needs — after [`crate::coarsen::coarsen_lpa`],
/// super-vertices carry different numbers of original vertices, and
/// partitioning the coarse graph by count alone projects back imbalanced.
///
/// # Panics
/// Additionally panics if `weights` has the wrong length or non-positive
/// entries.
pub fn pulp_partition_weighted(
    g: &Csr,
    config: &PulpConfig,
    weights: Option<&[f64]>,
) -> PulpResult {
    let n = g.num_vertices();
    let k = config.num_parts;
    assert!(k >= 1, "need at least one part");
    assert!(k <= n.max(1), "more parts than vertices");
    assert!(config.balance >= 1.0, "balance factor must be >= 1");
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "weights length mismatch");
        assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
    }
    let weight = |v: usize| weights.map_or(1.0, |w| w[v]);
    let total_weight: f64 = weights.map_or(n as f64, |w| w.iter().sum());

    // initial assignment
    let mut parts: Vec<VertexId> = if config.random_init {
        use rand::Rng;
        use rand::SeedableRng;
        let mut r = rand_chacha::ChaCha8Rng::seed_from_u64(config.seed);
        (0..n).map(|_| r.gen_range(0..k) as VertexId).collect()
    } else {
        // contiguous chunks of ceil(n/k)
        let chunk = n.div_ceil(k.max(1)).max(1);
        (0..n).map(|v| (v / chunk) as VertexId).collect()
    };
    let mut sizes = vec![0.0f64; k];
    for (v, &p) in parts.iter().enumerate() {
        sizes[p as usize] += weight(v);
    }

    let cap = (total_weight / k as f64) * config.balance;
    // every part keeps at least half its fair share
    let floor = total_weight / (2.0 * k as f64);

    let mut moved_per_iter = Vec::new();
    let mut iterations = 0;

    if n == 0 || k == 1 {
        return PulpResult {
            parts,
            iterations: 0,
            moved_per_iter,
        };
    }

    let mut order: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        shuffle_candidates(&mut order, iter ^ 0x9a97);
        let mut moved = 0usize;

        for &v in &order {
            let cur = parts[v as usize];
            let w_v = weight(v as usize);
            let mut conn: BTreeMap<VertexId, f64> = BTreeMap::new();
            for (j, w) in g.neighbors(v) {
                if j == v {
                    continue;
                }
                *conn.entry(parts[j as usize]).or_insert(0.0) += w as f64;
            }
            let cur_w = conn.get(&cur).copied().unwrap_or(0.0);
            // best admissible destination strictly better-connected than cur
            let mut best: Option<(VertexId, f64)> = None;
            for (&p, &w) in &conn {
                if p == cur || w <= cur_w {
                    continue;
                }
                if sizes[p as usize] + w_v > cap || sizes[cur as usize] - w_v < floor {
                    continue;
                }
                match best {
                    Some((bp, bw)) if w > bw || (w == bw && scramble(p) < scramble(bp)) => {
                        best = Some((p, w))
                    }
                    None => best = Some((p, w)),
                    _ => {}
                }
            }
            if let Some((p, _)) = best {
                sizes[cur as usize] -= w_v;
                sizes[p as usize] += w_v;
                parts[v as usize] = p;
                moved += 1;
            }
        }

        moved_per_iter.push(moved);
        if (moved as f64) < config.tolerance * n as f64 {
            break;
        }
    }

    PulpResult {
        parts,
        iterations,
        moved_per_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{caveman_weighted, erdos_renyi, grid2d};
    use nulpa_metrics::{cut_fraction, imbalance};

    fn cfg(k: usize) -> PulpConfig {
        PulpConfig {
            num_parts: k,
            ..Default::default()
        }
    }

    #[test]
    fn parts_valid_and_balanced_on_grid() {
        let g = grid2d(32, 32, 1.0, 0);
        let r = pulp_partition(&g, &cfg(4));
        assert!(r.parts.iter().all(|&p| (p as usize) < 4));
        let imb = imbalance(&r.parts, 4);
        assert!(imb <= 1.06, "imbalance {imb}");
    }

    #[test]
    fn cut_improves_over_random_on_grid() {
        let g = grid2d(32, 32, 1.0, 0);
        let refined = pulp_partition(&g, &cfg(4));
        let random = pulp_partition(
            &g,
            &PulpConfig {
                num_parts: 4,
                random_init: true,
                max_iterations: 0,
                ..Default::default()
            },
        );
        // a 0-iteration random partition cuts ~75 % of edges; refinement
        // must do far better
        let f_ref = cut_fraction(&g, &refined.parts);
        let f_rand = cut_fraction(&g, &random.parts);
        assert!(f_ref < f_rand / 2.0, "refined {f_ref} vs random {f_rand}");
        assert!(f_ref < 0.2, "refined cut fraction {f_ref}");
    }

    #[test]
    fn random_init_also_converges() {
        let g = grid2d(24, 24, 1.0, 1);
        let r = pulp_partition(
            &g,
            &PulpConfig {
                num_parts: 3,
                random_init: true,
                ..Default::default()
            },
        );
        let f = cut_fraction(&g, &r.parts);
        assert!(f < 0.35, "cut fraction {f}");
        assert!(imbalance(&r.parts, 3) <= 1.6);
    }

    #[test]
    fn respects_community_boundaries() {
        // two cliques, two parts: the bridge should be the only cut
        let g = caveman_weighted(2, 8, 0.5);
        let r = pulp_partition(&g, &cfg(2));
        let f = cut_fraction(&g, &r.parts);
        assert!(f < 0.05, "cut fraction {f}");
        assert_eq!(imbalance(&r.parts, 2), 1.0);
    }

    #[test]
    fn single_part_is_trivial() {
        let g = erdos_renyi(50, 120, 2);
        let r = pulp_partition(&g, &cfg(1));
        assert!(r.parts.iter().all(|&p| p == 0));
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(20, 20, 0.8, 2);
        assert_eq!(
            pulp_partition(&g, &cfg(4)).parts,
            pulp_partition(&g, &cfg(4)).parts
        );
    }

    #[test]
    fn empty_graph() {
        let g = nulpa_graph::Csr::empty(0);
        let r = pulp_partition(&g, &cfg(1));
        assert!(r.parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "more parts")]
    fn rejects_k_above_n() {
        pulp_partition(&nulpa_graph::Csr::empty(2), &cfg(5));
    }

    #[test]
    fn weighted_partition_caps_weight_not_count() {
        // 8 heavy vertices (weight 10) + 32 light (weight 1) in a ring
        let n = 40;
        let mut b = nulpa_graph::GraphBuilder::new(n);
        for i in 0..n as u32 {
            b.push_undirected(i, (i + 1) % n as u32, 1.0);
        }
        let g = b.build();
        let weights: Vec<f64> = (0..n)
            .map(|v| if v % 5 == 0 { 10.0 } else { 1.0 })
            .collect();
        let total: f64 = weights.iter().sum();
        let k = 4;
        let r = pulp_partition_weighted(&g, &cfg(k), Some(&weights));
        let mut part_w = vec![0.0f64; k];
        for (v, &p) in r.parts.iter().enumerate() {
            part_w[p as usize] += weights[v];
        }
        // contiguous init puts at most ceil(n/k) vertices per part; weights
        // may start above the cap, but no *move* may push a part above it —
        // and every part must respect the floor
        for (p, &w) in part_w.iter().enumerate() {
            assert!(
                w >= total / (2.0 * k as f64) - 10.0,
                "part {p} too light: {w}"
            );
        }
        assert_eq!(r.parts.len(), n);
    }

    #[test]
    fn weighted_matches_unweighted_with_unit_weights() {
        let g = grid2d(16, 16, 1.0, 1);
        let unit = vec![1.0; g.num_vertices()];
        let a = pulp_partition(&g, &cfg(4));
        let b = pulp_partition_weighted(&g, &cfg(4), Some(&unit));
        assert_eq!(a.parts, b.parts);
    }

    #[test]
    #[should_panic(expected = "weights length")]
    fn weighted_rejects_wrong_length() {
        let g = grid2d(4, 4, 1.0, 0);
        pulp_partition_weighted(&g, &cfg(2), Some(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rejects_nonpositive() {
        let g = grid2d(2, 2, 1.0, 0);
        pulp_partition_weighted(&g, &cfg(2), Some(&[1.0, 0.0, 1.0, 1.0]));
    }

    #[test]
    fn balance_cap_never_violated() {
        let g = erdos_renyi(200, 600, 5);
        let r = pulp_partition(&g, &cfg(5));
        let imb = imbalance(&r.parts, 5);
        assert!(imb <= 1.05 + 0.05, "imbalance {imb}"); // cap is ceil'd
    }
}
