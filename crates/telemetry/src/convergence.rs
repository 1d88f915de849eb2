//! Per-iteration convergence telemetry for the LPA backends.
//!
//! [`ConvergenceRecorder`] implements [`nulpa_core::IterObserver`] and is
//! attached through the backends' `_observed` entry points. After every
//! committed iteration it records an [`IterationSample`]: ΔN, the
//! active-vertex fraction (the share of vertices the pruned sweep still
//! processes), the
//! community count and label entropy, and the modularity of the current
//! labeling.
//!
//! Modularity is maintained *incrementally*: the recorder keeps the
//! Eq. 1 per-community sums (`σ_c` intra-community directed weight, `Σ_c`
//! incident directed weight) and community sizes, and updates them per
//! label move in `O(deg(v))` by diffing the observed labels against the
//! previous iteration's — re-scoring with
//! [`nulpa_metrics::modularity_from_sums`]. A full recomputation per
//! iteration would be `O(|E|)` per iteration and dominate small runs; the
//! incremental path costs only the changed vertices' adjacency, matching
//! the backends' own pruning philosophy. The equivalence test asserts the
//! trajectory matches `nulpa_metrics::modularity` recomputed from scratch
//! to within f64 noise.

use nulpa_core::IterObserver;
use nulpa_graph::{Csr, VertexId};
use nulpa_metrics::modularity_from_sums;

/// One iteration's convergence measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationSample {
    /// 0-based iteration index.
    pub iter: u32,
    /// Vertices whose label changed (net of Cross-Check reverts).
    pub delta_n: usize,
    /// Candidate vertices processed (the pruned work set).
    pub active: usize,
    /// `active / |V|`.
    pub active_fraction: f64,
    /// Distinct communities after the iteration.
    pub communities: usize,
    /// Shannon entropy (bits) of the community-size distribution.
    pub entropy_bits: f64,
    /// Modularity `Q` (Eq. 1) of the labeling after the iteration.
    pub modularity: f64,
}

/// Incrementally maintained convergence trajectory; see module docs.
#[derive(Debug)]
pub struct ConvergenceRecorder<'g> {
    g: &'g Csr,
    two_m: f64,
    /// Labels as of the last observed iteration (starts at identity —
    /// every backend initialises `C[v] = v`).
    prev: Vec<VertexId>,
    sizes: Vec<u32>,
    sigma_in: Vec<f64>,
    sigma_tot: Vec<f64>,
    communities: usize,
    /// `Σ_c s_c·log2(s_c)` over community sizes, maintained per move so
    /// entropy is O(1) per iteration: `H = log2(n) − SLS/n`.
    size_log_sum: f64,
    /// The recorded trajectory.
    pub samples: Vec<IterationSample>,
}

fn s_log2_s(s: u32) -> f64 {
    if s <= 1 {
        0.0
    } else {
        let s = s as f64;
        s * s.log2()
    }
}

impl<'g> ConvergenceRecorder<'g> {
    /// New recorder for a run on `g` starting from the identity labeling.
    pub fn new(g: &'g Csr) -> Self {
        let n = g.num_vertices();
        let mut sigma_in = vec![0.0; n];
        let mut sigma_tot = vec![0.0; n];
        for v in 0..n as VertexId {
            sigma_tot[v as usize] = g.weighted_degree(v);
            // Under identity labels the only intra-community edges are
            // self loops.
            for (u, w) in g.neighbors(v) {
                if u == v {
                    sigma_in[v as usize] += w as f64;
                }
            }
        }
        ConvergenceRecorder {
            g,
            two_m: g.total_weight(),
            prev: (0..n as VertexId).collect(),
            sizes: vec![1; n],
            sigma_in,
            sigma_tot,
            communities: n,
            size_log_sum: 0.0,
            samples: Vec::new(),
        }
    }

    /// Apply one label move `v: d → c` against the current `prev` state,
    /// updating the Eq. 1 sums exactly.
    fn apply_move(&mut self, v: VertexId, c: VertexId) {
        let d = self.prev[v as usize];
        debug_assert_ne!(d, c);
        let k_v = self.g.weighted_degree(v);
        self.sigma_tot[d as usize] -= k_v;
        self.sigma_tot[c as usize] += k_v;
        for (u, w) in self.g.neighbors(v) {
            let w = w as f64;
            if u == v {
                // A self loop appears once in v's adjacency and stays
                // intra-community on both sides of the move.
                self.sigma_in[d as usize] -= w;
                self.sigma_in[c as usize] += w;
                continue;
            }
            // The symmetric edge (u, v) contributes the same weight from
            // u's adjacency, hence the factor 2.
            let lu = self.prev[u as usize];
            if lu == d {
                self.sigma_in[d as usize] -= 2.0 * w;
            }
            if lu == c {
                self.sigma_in[c as usize] += 2.0 * w;
            }
        }
        self.size_log_sum -= s_log2_s(self.sizes[d as usize]) + s_log2_s(self.sizes[c as usize]);
        self.sizes[d as usize] -= 1;
        self.sizes[c as usize] += 1;
        self.size_log_sum += s_log2_s(self.sizes[d as usize]) + s_log2_s(self.sizes[c as usize]);
        if self.sizes[d as usize] == 0 {
            self.communities -= 1;
        }
        if self.sizes[c as usize] == 1 {
            self.communities += 1;
        }
        self.prev[v as usize] = c;
    }

    /// Modularity of the currently tracked labeling.
    pub fn current_modularity(&self) -> f64 {
        modularity_from_sums(&self.sigma_in, &self.sigma_tot, self.two_m)
    }

    /// Entropy (bits) of the currently tracked community sizes.
    pub fn current_entropy_bits(&self) -> f64 {
        let n = self.prev.len();
        if n == 0 {
            return 0.0;
        }
        ((n as f64).log2() - self.size_log_sum / n as f64).max(0.0)
    }

    /// Final modularity — the last sample's, or the identity labeling's
    /// when the run had zero iterations.
    pub fn final_modularity(&self) -> f64 {
        self.samples
            .last()
            .map(|s| s.modularity)
            .unwrap_or_else(|| self.current_modularity())
    }
}

impl IterObserver for ConvergenceRecorder<'_> {
    fn on_iteration(&mut self, iter: u32, changed: usize, active: usize, labels: &[VertexId]) {
        assert_eq!(labels.len(), self.prev.len(), "label length mismatch");
        for (v, &label) in labels.iter().enumerate() {
            if label != self.prev[v] {
                self.apply_move(v as VertexId, label);
            }
        }
        let n = self.prev.len();
        self.samples.push(IterationSample {
            iter,
            delta_n: changed,
            active,
            active_fraction: active as f64 / n.max(1) as f64,
            communities: self.communities,
            entropy_bits: self.current_entropy_bits(),
            modularity: self.current_modularity(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_core::{lpa_seq_observed, LpaConfig};
    use nulpa_graph::gen::{caveman_weighted, erdos_renyi, two_cliques_light_bridge};
    use nulpa_graph::GraphBuilder;
    use nulpa_metrics::{community_count, modularity};
    use nulpa_obs::NullSink as ObsNullSink;

    /// Independent check: apply the recorder to hand-rolled label
    /// sequences and compare against from-scratch recomputation.
    #[test]
    fn incremental_matches_recompute_on_synthetic_moves() {
        let g = erdos_renyi(120, 360, 17);
        let n = g.num_vertices();
        let mut rec = ConvergenceRecorder::new(&g);
        // three synthetic "iterations" of label merges
        let mut labels: Vec<VertexId> = (0..n as VertexId).collect();
        for (round, modulus) in [(0u32, 16u32), (1, 4), (2, 2)] {
            for l in labels.iter_mut() {
                *l %= modulus;
            }
            rec.on_iteration(round, n, n, &labels);
            let expect = modularity(&g, &labels);
            let got = rec.samples.last().unwrap().modularity;
            assert!(
                (got - expect).abs() < 1e-9,
                "round {round}: incremental {got} vs recomputed {expect}"
            );
            assert_eq!(
                rec.samples.last().unwrap().communities,
                community_count(&labels)
            );
        }
    }

    #[test]
    fn tracks_real_seq_run() {
        for g in [
            two_cliques_light_bridge(6),
            caveman_weighted(4, 8, 0.5),
            erdos_renyi(200, 600, 42),
        ] {
            let mut rec = ConvergenceRecorder::new(&g);
            let r = lpa_seq_observed(&g, &LpaConfig::default(), &mut ObsNullSink, &mut rec);
            assert_eq!(rec.samples.len(), r.iterations as usize);
            // ΔN trajectory matches the backend's own record
            let dn: Vec<usize> = rec.samples.iter().map(|s| s.delta_n).collect();
            assert_eq!(dn, r.changed_per_iter);
            // final incremental Q equals from-scratch Q on final labels
            let q = modularity(&g, &r.labels);
            assert!(
                (rec.final_modularity() - q).abs() < 1e-9,
                "incremental {} vs recomputed {q}",
                rec.final_modularity()
            );
            assert_eq!(
                rec.samples.last().unwrap().communities,
                community_count(&r.labels)
            );
        }
    }

    #[test]
    fn entropy_bounds_and_monotonicity_of_fractions() {
        let g = caveman_weighted(6, 8, 0.5);
        let mut rec = ConvergenceRecorder::new(&g);
        lpa_seq_observed(&g, &LpaConfig::default(), &mut ObsNullSink, &mut rec);
        let n = g.num_vertices() as f64;
        for s in &rec.samples {
            assert!(s.entropy_bits >= 0.0 && s.entropy_bits <= n.log2() + 1e-9);
            assert!(s.active_fraction >= 0.0 && s.active_fraction <= 1.0);
        }
        // converged caveman run: last iteration is near-stable
        assert!(rec.samples.last().unwrap().delta_n <= rec.samples[0].delta_n);
    }

    #[test]
    fn self_loops_handled_exactly() {
        let g = GraphBuilder::new(4)
            .keep_self_loops(true)
            .add_edge(0, 0, 3.0)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(2, 3, 2.0)
            .build();
        let mut rec = ConvergenceRecorder::new(&g);
        let labels = vec![0, 0, 2, 2];
        rec.on_iteration(0, 2, 4, &labels);
        let expect = modularity(&g, &labels);
        let got = rec.samples[0].modularity;
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn zero_iteration_run_reports_identity_quality() {
        let g = nulpa_graph::Csr::empty(5);
        let rec = ConvergenceRecorder::new(&g);
        assert_eq!(rec.final_modularity(), 0.0);
        assert_eq!(rec.communities, 5);
    }
}
