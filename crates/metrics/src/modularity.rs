//! Modularity (Eq. 1) and delta-modularity (Eq. 2) of the paper.
//!
//! Conventions: graphs are stored symmetrized (each undirected edge twice),
//! so the *directed* total weight equals `2m`. All accumulation is in
//! `f64` regardless of the graph's `f32` edge weights — quality numbers
//! must not depend on the hashtable datatype ablation (Fig. 5).

use nulpa_graph::{Csr, VertexId};
use rayon::prelude::*;

/// Modularity `Q` of the partition `labels` on graph `g`, per Eq. 1:
///
/// `Q = Σ_c [ σ_c / 2m − (Σ_c / 2m)² ]`
///
/// where `σ_c` is the total weight of intra-community directed edges and
/// `Σ_c` the total directed weight incident to community `c`.
///
/// Returns 0 for an edgeless graph (no structure to score).
///
/// # Panics
/// Panics if `labels.len() != |V|` or any label is out of range.
pub fn modularity(g: &Csr, labels: &[VertexId]) -> f64 {
    let n = g.num_vertices();
    assert_eq!(labels.len(), n, "labels length mismatch");
    let two_m = g.total_weight();
    if two_m == 0.0 {
        return 0.0;
    }
    // σ_c and Σ_c accumulated per community.
    let mut sigma_in = vec![0.0f64; n];
    let mut sigma_tot = vec![0.0f64; n];
    for u in g.vertices() {
        let cu = labels[u as usize] as usize;
        assert!(cu < n, "label {cu} out of range");
        for (v, w) in g.neighbors(u) {
            let w = w as f64;
            sigma_tot[cu] += w;
            if labels[v as usize] == cu as VertexId {
                sigma_in[cu] += w;
            }
        }
    }
    sigma_in
        .iter()
        .zip(&sigma_tot)
        .map(|(&si, &st)| si / two_m - (st / two_m) * (st / two_m))
        .sum()
}

/// [`modularity`] written with rayon iterators, used by the harness on the
/// larger stand-ins. It builds against the sequential `vendor/rayon`
/// stand-in, so it runs on one thread. Numerically: per-community sums
/// are formed with the same pairing, then reduced; results match
/// [`modularity`] to within f64 rounding.
pub fn modularity_par(g: &Csr, labels: &[VertexId]) -> f64 {
    let n = g.num_vertices();
    assert_eq!(labels.len(), n, "labels length mismatch");
    let two_m = g.total_weight();
    if two_m == 0.0 {
        return 0.0;
    }
    let (sigma_in, sigma_tot) = (0..n as u32)
        .into_par_iter()
        .fold(
            || (vec![0.0f64; n], vec![0.0f64; n]),
            |(mut si, mut st), u| {
                let cu = labels[u as usize] as usize;
                assert!(cu < n, "label {cu} out of range");
                for (v, w) in g.neighbors(u) {
                    let w = w as f64;
                    st[cu] += w;
                    if labels[v as usize] == cu as VertexId {
                        si[cu] += w;
                    }
                }
                (si, st)
            },
        )
        .reduce(
            || (vec![0.0f64; n], vec![0.0f64; n]),
            |(mut a1, mut a2), (b1, b2)| {
                for i in 0..n {
                    a1[i] += b1[i];
                    a2[i] += b2[i];
                }
                (a1, a2)
            },
        );
    sigma_in
        .iter()
        .zip(&sigma_tot)
        .map(|(&si, &st)| si / two_m - (st / two_m) * (st / two_m))
        .sum()
}

/// Modularity from already-accumulated per-community sums — the Eq. 1
/// fold shared with incrementally maintained trajectories (the
/// `nulpa-telemetry` convergence recorder keeps `σ_c`/`Σ_c` up to date
/// across label moves and re-scores with this).
///
/// `sigma_in[c]` is the total weight of intra-community *directed* edges
/// of community `c`, `sigma_tot[c]` the total directed weight incident to
/// it, and `two_m` the directed total weight of the graph. Returns 0 when
/// `two_m` is 0.
pub fn modularity_from_sums(sigma_in: &[f64], sigma_tot: &[f64], two_m: f64) -> f64 {
    assert_eq!(sigma_in.len(), sigma_tot.len(), "sum length mismatch");
    if two_m == 0.0 {
        return 0.0;
    }
    sigma_in
        .iter()
        .zip(sigma_tot)
        .map(|(&si, &st)| si / two_m - (st / two_m) * (st / two_m))
        .sum()
}

/// Delta modularity of moving vertex `i` from community `d` to `c`
/// (Eq. 2):
///
/// `ΔQ = (K_{i→c} − K_{i→d}) / m − K_i (K_i + Σ_c − Σ_d) / 2m²`
///
/// `k_to_c`/`k_to_d` are `K_{i→c}`/`K_{i→d}` *excluding* any self loop;
/// `sigma_c`/`sigma_d` are the total directed weights Σ of the target and
/// source communities *excluding vertex i's own contribution from Σ_d*...
/// Specifically, following the paper's Eq. 2, `sigma_d` must include `K_i`
/// (vertex `i` still in `d`) and `sigma_c` must not.
pub fn delta_modularity(
    k_i: f64,
    k_to_c: f64,
    k_to_d: f64,
    sigma_c: f64,
    sigma_d: f64,
    two_m: f64,
) -> f64 {
    let m = two_m / 2.0;
    (k_to_c - k_to_d) / m - k_i * (k_i + sigma_c - sigma_d) / (2.0 * m * m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{caveman, caveman_ground_truth, complete, cycle, two_cliques_bridge};
    use nulpa_graph::{Csr, GraphBuilder};

    fn singleton_labels(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).collect()
    }

    #[test]
    fn all_in_one_community_is_zero() {
        let g = complete(6);
        let labels = vec![0; 6];
        let q = modularity(&g, &labels);
        assert!(q.abs() < 1e-12, "Q = {q}");
    }

    #[test]
    fn singletons_on_complete_graph_negative() {
        let g = complete(6);
        let q = modularity(&g, &singleton_labels(6));
        assert!(q < 0.0);
    }

    #[test]
    fn two_cliques_optimal_partition() {
        let g = two_cliques_bridge(5);
        let labels = caveman_ground_truth(2, 5);
        let q = modularity(&g, &labels);
        // 2 cliques of 10 edges + bridge: 2m = 42.
        // σ_c = 20 each, Σ_c = 21 each → Q = 2*(20/42 - (21/42)^2) = 40/42 - 0.5
        let expected = 40.0 / 42.0 - 0.5;
        assert!((q - expected).abs() < 1e-9, "Q = {q}, expected {expected}");
    }

    #[test]
    fn cycle_modularity_closed_form() {
        // C_12 split into 3 arcs of 4: σ_c = 2*3 intra (each arc has 3 edges),
        // Σ_c = 8 per arc, 2m = 24 → Q = 3*(6/24 - (8/24)^2) = 0.75 - 1/3
        let g = cycle(12);
        let labels: Vec<VertexId> = (0..12).map(|v| (v / 4) as VertexId).collect();
        let q = modularity(&g, &labels);
        let expected = 0.75 - 1.0 / 3.0;
        assert!((q - expected).abs() < 1e-9, "Q = {q}");
    }

    #[test]
    fn range_bounds_hold() {
        let g = caveman(4, 5);
        for labels in [
            vec![0; 20],
            singleton_labels(20),
            caveman_ground_truth(4, 5),
        ] {
            let q = modularity(&g, &labels);
            assert!((-0.5..=1.0).contains(&q), "Q = {q}");
        }
    }

    #[test]
    fn good_partition_beats_bad() {
        let g = caveman(4, 6);
        let good = caveman_ground_truth(4, 6);
        let bad: Vec<VertexId> = (0..24).map(|v| (v % 4) as VertexId).collect();
        assert!(modularity(&g, &good) > modularity(&g, &bad));
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = nulpa_graph::gen::erdos_renyi(200, 600, 3);
        let labels: Vec<VertexId> = (0..200).map(|v| (v % 17) as VertexId).collect();
        let a = modularity(&g, &labels);
        let b = modularity_par(&g, &labels);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_zero() {
        let g = Csr::empty(5);
        assert_eq!(modularity(&g, &singleton_labels(5)), 0.0);
    }

    #[test]
    fn weights_respected() {
        // two vertices, heavy edge; both in same community → Q = 0 (one community)
        let g = GraphBuilder::new(3)
            .add_undirected_edge(0, 1, 10.0)
            .add_undirected_edge(1, 2, 0.1)
            .build();
        let grouped = vec![0, 0, 2];
        let q = modularity(&g, &grouped);
        // heavy pair together should be close to maximal for this graph
        let split = vec![0, 1, 2];
        assert!(q > modularity(&g, &split));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_label_len() {
        modularity(&complete(3), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_label() {
        modularity(&complete(3), &[0, 1, 7]);
    }

    #[test]
    fn delta_modularity_matches_recomputation() {
        // Move vertex 0 of a two-clique graph from its clique (d) into the
        // other (c) and compare ΔQ with direct recomputation of Q.
        let g = two_cliques_bridge(4);
        let before = caveman_ground_truth(2, 4);
        let mut after = before.clone();
        after[0] = 1;
        let dq_direct = modularity(&g, &after) - modularity(&g, &before);

        let two_m = g.total_weight();
        let k_i = g.weighted_degree(0);
        let mut k_to_c = 0.0;
        let mut k_to_d = 0.0;
        for (v, w) in g.neighbors(0) {
            if before[v as usize] == 1 {
                k_to_c += w as f64;
            } else if before[v as usize] == 0 {
                k_to_d += w as f64;
            }
        }
        let mut sigma = [0.0f64; 2];
        for u in g.vertices() {
            sigma[before[u as usize] as usize] += g.weighted_degree(u);
        }
        let dq = delta_modularity(k_i, k_to_c, k_to_d, sigma[1], sigma[0], two_m);
        assert!(
            (dq - dq_direct).abs() < 1e-9,
            "formula {dq} vs direct {dq_direct}"
        );
    }
}
