//! Weight-constrained graph coarsening by label propagation.
//!
//! One of the applications the paper's introduction cites for LPA
//! (Valejo et al. 2020, "A coarsening method for large multilevel
//! graphs"): collapse a graph into a hierarchy of successively smaller
//! graphs, where each super-vertex is an LPA community whose total
//! *vertex weight* is capped — the user controls the size of the
//! coarsest graph and the balance of super-vertices, which is what makes
//! the hierarchy usable for multilevel partitioning and drawing.
//!
//! Each level runs a constrained LPA (a vertex may only adopt a
//! neighbour's label if the merged super-vertex stays under the cap),
//! aggregates, and repeats until the target size or a fixed point.

use crate::pulp::scramble;
use crate::seq::shuffle_candidates;
use nulpa_graph::{Csr, DuplicatePolicy, GraphBuilder, VertexId};
use nulpa_metrics::compact_labels;
use std::collections::BTreeMap;

/// Coarsening configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// Stop when the coarse graph has at most this many vertices.
    pub target_vertices: usize,
    /// Maximum total vertex weight of a super-vertex, as a multiple of the
    /// average (2.0 = a super-vertex may hold at most twice the fair
    /// share of `|V| / target_vertices` original vertices).
    pub max_weight_factor: f64,
    /// LPA sweeps per level.
    pub sweeps_per_level: u32,
    /// Maximum levels.
    pub max_levels: u32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig {
            target_vertices: 64,
            max_weight_factor: 2.0,
            sweeps_per_level: 4,
            max_levels: 20,
            seed: 0,
        }
    }
}

/// One level of the hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse graph (edge weights are summed fine-edge weights; self
    /// loops carry intra-super-vertex weight).
    pub graph: Csr,
    /// For each vertex of the *previous* (finer) level, its super-vertex
    /// in this level's graph.
    pub mapping: Vec<VertexId>,
    /// Total original-vertex weight of every super-vertex.
    pub vertex_weights: Vec<f64>,
}

/// The coarsening hierarchy, finest to coarsest.
#[derive(Clone, Debug)]
pub struct CoarsenResult {
    /// Levels in coarsening order (`levels[0].mapping` indexes the input).
    pub levels: Vec<CoarseLevel>,
}

impl CoarsenResult {
    /// The coarsest graph (the input graph if no coarsening happened).
    pub fn coarsest(&self) -> Option<&Csr> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Project labels on the coarsest graph back to the original vertices.
    pub fn project(&self, coarse_labels: &[VertexId]) -> Vec<VertexId> {
        let Some(first) = self.levels.first() else {
            return coarse_labels.to_vec();
        };
        // compose mappings: original -> level0 -> ... -> coarsest
        let mut map: Vec<VertexId> = first.mapping.clone();
        for level in &self.levels[1..] {
            for m in map.iter_mut() {
                *m = level.mapping[*m as usize];
            }
        }
        map.iter().map(|&c| coarse_labels[c as usize]).collect()
    }
}

/// Coarsen `g` by weight-constrained label propagation.
pub fn coarsen_lpa(g: &Csr, config: &CoarsenConfig) -> CoarsenResult {
    assert!(config.target_vertices >= 1);
    assert!(config.max_weight_factor >= 1.0);
    let n0 = g.num_vertices();
    let cap = (config.max_weight_factor * n0 as f64 / config.target_vertices as f64).max(1.0);

    let mut levels = Vec::new();
    let mut current = g.clone();
    let mut weights: Vec<f64> = vec![1.0; n0];

    for level in 0..config.max_levels {
        if current.num_vertices() <= config.target_vertices {
            break;
        }
        let labels = constrained_lpa(
            &current,
            &weights,
            cap,
            config.sweeps_per_level,
            config.seed ^ (level as u64) << 16,
        );
        let (mapping, k) = compact_labels(&labels);
        if k == current.num_vertices() {
            break; // no reduction possible under the cap
        }

        // aggregate graph and vertex weights
        let mut b = GraphBuilder::new(k)
            .keep_self_loops(true)
            .duplicate_policy(DuplicatePolicy::SumWeights)
            .reserve(current.num_edges().min(4 * k));
        for u in current.vertices() {
            for (v, w) in current.neighbors(u) {
                b.push_edge(mapping[u as usize], mapping[v as usize], w);
            }
        }
        let coarse = b.build();
        let mut wts = vec![0.0f64; k];
        for (u, &m) in mapping.iter().enumerate() {
            wts[m as usize] += weights[u];
        }
        levels.push(CoarseLevel {
            graph: coarse.clone(),
            mapping,
            vertex_weights: wts.clone(),
        });
        current = coarse;
        weights = wts;
    }

    CoarsenResult { levels }
}

/// One level of weight-constrained LPA: labels are super-vertex seeds;
/// adopting a label is allowed only while the receiving super-vertex's
/// accumulated weight stays under `cap`.
fn constrained_lpa(
    g: &Csr,
    vertex_weights: &[f64],
    cap: f64,
    sweeps: u32,
    seed: u64,
) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
    let mut group_weight: Vec<f64> = vertex_weights.to_vec();

    let mut order: Vec<VertexId> = g.vertices().filter(|&v| g.degree(v) > 0).collect();
    let mut acc: BTreeMap<VertexId, f64> = BTreeMap::new();

    for sweep in 0..sweeps {
        shuffle_candidates(&mut order, sweep);
        let _ = seed;
        let mut moves = 0usize;
        for &v in &order {
            let cur = labels[v as usize];
            let w_v = vertex_weights[v as usize];
            acc.clear();
            for (j, w) in g.neighbors(v) {
                if j == v {
                    continue;
                }
                *acc.entry(labels[j as usize]).or_insert(0.0) += w as f64;
            }
            // strongest admissible label
            let mut best: Option<(VertexId, f64)> = None;
            for (&c, &w) in &acc {
                if c == cur {
                    continue;
                }
                if group_weight[c as usize] + w_v > cap {
                    continue;
                }
                match best {
                    Some((bc, bw)) if w > bw || (w == bw && scramble(c) < scramble(bc)) => {
                        best = Some((c, w))
                    }
                    None => best = Some((c, w)),
                    _ => {}
                }
            }
            // move only if strictly better connected than staying
            let stay = acc.get(&cur).copied().unwrap_or(0.0);
            if let Some((c, w)) = best {
                if w > stay {
                    group_weight[cur as usize] -= w_v;
                    group_weight[c as usize] += w_v;
                    labels[v as usize] = c;
                    moves += 1;
                }
            }
        }
        if moves == 0 {
            break;
        }
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{caveman_weighted, grid2d, web_crawl};

    fn cfg(target: usize) -> CoarsenConfig {
        CoarsenConfig {
            target_vertices: target,
            ..Default::default()
        }
    }

    #[test]
    fn coarsens_to_target() {
        let g = grid2d(30, 30, 1.0, 0);
        let r = coarsen_lpa(&g, &cfg(50));
        let coarsest = r.coarsest().unwrap();
        assert!(
            coarsest.num_vertices() <= 200,
            "{}",
            coarsest.num_vertices()
        );
        assert!(coarsest.num_vertices() < g.num_vertices() / 4);
    }

    #[test]
    fn weight_cap_respected_on_every_level() {
        let g = web_crawl(2000, 6, 0.1, 1);
        let c = cfg(40);
        let cap = c.max_weight_factor * g.num_vertices() as f64 / c.target_vertices as f64;
        let r = coarsen_lpa(&g, &c);
        for (i, level) in r.levels.iter().enumerate() {
            for (sv, &w) in level.vertex_weights.iter().enumerate() {
                assert!(w <= cap + 1e-9, "level {i} super-vertex {sv}: {w} > {cap}");
            }
        }
    }

    #[test]
    fn total_weight_preserved() {
        let g = caveman_weighted(6, 8, 1.0);
        let r = coarsen_lpa(&g, &cfg(6));
        for level in &r.levels {
            assert!((level.graph.total_weight() - g.total_weight()).abs() < 1e-3);
            let total_w: f64 = level.vertex_weights.iter().sum();
            assert!((total_w - g.num_vertices() as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_roundtrip() {
        let g = caveman_weighted(4, 8, 0.5);
        let r = coarsen_lpa(&g, &cfg(4));
        let coarsest = r.coarsest().unwrap();
        // label every coarse vertex with itself; the projection must give
        // every original vertex a valid coarse id and respect the mapping
        let ids: Vec<VertexId> = (0..coarsest.num_vertices() as VertexId).collect();
        let projected = r.project(&ids);
        assert_eq!(projected.len(), g.num_vertices());
        assert!(projected
            .iter()
            .all(|&p| (p as usize) < coarsest.num_vertices()));
        // vertices of the same clique should mostly land together
        let same = (0..8).filter(|&v| projected[v] == projected[0]).count();
        assert!(same >= 4, "clique scattered: {same}/8 together");
    }

    #[test]
    fn empty_hierarchy_for_small_graph() {
        let g = caveman_weighted(2, 4, 0.5);
        let r = coarsen_lpa(&g, &cfg(100));
        assert!(r.levels.is_empty());
        assert!(r.coarsest().is_none());
        // projection with no levels is the identity on the given labels
        assert_eq!(r.project(&[7, 7, 7, 7, 7, 7, 7, 7]), vec![7; 8]);
    }

    #[test]
    fn deterministic() {
        let g = web_crawl(1000, 5, 0.1, 2);
        let a = coarsen_lpa(&g, &cfg(30));
        let b = coarsen_lpa(&g, &cfg(30));
        assert_eq!(a.levels.len(), b.levels.len());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.mapping, y.mapping);
            assert_eq!(x.graph, y.graph);
        }
    }
}
