//! Dynamic Frontier LPA — community detection on evolving graphs.
//!
//! The ν-LPA lineage continues into dynamic graphs (Sahu's follow-up
//! "DF-LPA": updating communities on graphs receiving batch updates
//! without recomputing from scratch). This module implements that
//! extension on top of the native backend:
//!
//! * an [`EdgeBatch`] of insertions/deletions is applied to the CSR;
//! * the **frontier** is seeded per the Dynamic Frontier rule — an
//!   inserted edge `(i, j)` marks both endpoints when it *crosses*
//!   communities (`C[i] ≠ C[j]`; an intra-community insertion cannot
//!   change any argmax), a deleted edge marks both endpoints when it was
//!   *internal* (`C[i] = C[j]`);
//! * pruned LPA then runs from the previous labels with only the frontier
//!   unprocessed — label changes re-activate neighbours exactly as in the
//!   static algorithm, so the update cascades precisely as far as it
//!   needs to.

use crate::config::LpaConfig;
use crate::native::lpa_native_from_state;
use crate::result::LpaResult;
use nulpa_graph::{Csr, VertexId, Weight};

/// A batch of edge updates to an undirected graph.
#[derive(Clone, Debug, Default)]
pub struct EdgeBatch {
    /// Undirected insertions (stored in both directions on apply).
    pub insertions: Vec<(VertexId, VertexId, Weight)>,
    /// Undirected deletions (both directions removed; missing edges are
    /// ignored).
    pub deletions: Vec<(VertexId, VertexId)>,
}

impl EdgeBatch {
    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }
}

/// Apply a batch to a graph, producing the updated CSR.
///
/// The result is what [`nulpa_graph::GraphBuilder`] would build from the
/// surviving old edges plus the mirrored insertions: deletions remove
/// every stored copy of a pre-batch edge (an insertion of the same pair
/// in the same batch survives), self loops are dropped, and parallel
/// edges are merged by summing their weights in ascending
/// `(target, weight bits)` order, so the weights match bit for bit.
/// Each run of vertices that the batch does not touch and whose adjacency
/// is already in that form is copied with one slice copy; only the other
/// vertices are merged. `O(|V| + |E| + |B| log |B|)`, plus a sort of each
/// touched vertex's adjacency.
///
/// # Panics
/// Panics if an insertion names a vertex `>= |V|` or has a non-finite
/// weight.
pub fn apply_batch(g: &Csr, batch: &EdgeBatch) -> Csr {
    let n = g.num_vertices();
    // Both directions of every insertion, keyed as the builder sorts them.
    let mut insert: Vec<(VertexId, VertexId, u32)> = Vec::with_capacity(2 * batch.insertions.len());
    for &(u, v, w) in &batch.insertions {
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for |V| = {n}"
        );
        assert!(w.is_finite(), "edge weight must be finite");
        if u != v {
            insert.push((u, v, w.to_bits()));
            insert.push((v, u, w.to_bits()));
        }
    }
    insert.sort_unstable();
    let mut delete: Vec<(VertexId, VertexId)> = Vec::with_capacity(batch.deletions.len() * 2);
    for &(u, v) in &batch.deletions {
        delete.push((u, v));
        delete.push((v, u));
    }
    delete.sort_unstable();
    delete.dedup();

    let (offsets, targets, weights) = (g.offsets(), g.targets(), g.weights());
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0);
    let mut new_targets = Vec::with_capacity(targets.len() + insert.len());
    let mut new_weights = Vec::with_capacity(targets.len() + insert.len());
    let (mut ins, mut del) = (&insert[..], &delete[..]);
    let mut merged: Vec<(VertexId, u32)> = Vec::new();
    // Vertices `run..u` are untouched and in builder form; their slices
    // are copied in one piece when the run ends.
    let mut run = 0;
    for u in 0..n {
        let (lo, hi) = (offsets[u], offsets[u + 1]);
        let ts = &targets[lo..hi];
        let uid = u as VertexId;
        let (u_ins, rest) = ins.split_at(ins.iter().take_while(|e| e.0 == uid).count());
        ins = rest;
        let (u_del, rest) = del.split_at(del.iter().take_while(|e| e.0 == uid).count());
        del = rest;
        if u_ins.is_empty()
            && u_del.is_empty()
            && ts.windows(2).all(|p| p[0] < p[1])
            && ts.binary_search(&uid).is_err()
        {
            new_offsets.push(new_targets.len() + hi - offsets[run]);
            continue;
        }
        new_targets.extend_from_slice(&targets[offsets[run]..lo]);
        new_weights.extend_from_slice(&weights[offsets[run]..lo]);
        run = u + 1;

        // Sort and sum as `GraphBuilder::build` does, so the sums match
        // bit for bit.
        merged.clear();
        merged.extend(
            ts.iter()
                .zip(&weights[lo..hi])
                .filter(|&(&v, _)| v != uid && u_del.binary_search_by_key(&v, |d| d.1).is_err())
                .map(|(&v, &w)| (v, w.to_bits())),
        );
        merged.extend(u_ins.iter().map(|&(_, v, bits)| (v, bits)));
        merged.sort_unstable();
        let start = new_targets.len();
        for &(v, bits) in &merged {
            let w = Weight::from_bits(bits);
            if new_targets.len() > start && new_targets.last() == Some(&v) {
                *new_weights.last_mut().expect("aligned with targets") += w;
            } else {
                new_targets.push(v);
                new_weights.push(w);
            }
        }
        new_offsets.push(new_targets.len());
    }
    new_targets.extend_from_slice(&targets[offsets[run]..]);
    new_weights.extend_from_slice(&weights[offsets[run]..]);
    Csr::from_raw(new_offsets, new_targets, new_weights)
}

/// The Dynamic Frontier seed: endpoints whose local argmax may have
/// changed. Pass the labels of the *previous* run on the *old* graph.
pub fn frontier(batch: &EdgeBatch, prev_labels: &[VertexId]) -> Vec<VertexId> {
    let mut f = Vec::new();
    for &(u, v, _) in &batch.insertions {
        if prev_labels[u as usize] != prev_labels[v as usize] {
            f.push(u);
            f.push(v);
        }
    }
    for &(u, v) in &batch.deletions {
        if prev_labels[u as usize] == prev_labels[v as usize] {
            f.push(u);
            f.push(v);
        }
    }
    f.sort_unstable();
    f.dedup();
    f
}

/// Update communities after a batch: apply the batch, seed the frontier,
/// and run pruned LPA from the previous labels. Returns the new graph and
/// the LPA result (whose `changed_per_iter` shows how little work the
/// incremental update needed).
pub fn lpa_dynamic(
    g: &Csr,
    prev_labels: &[VertexId],
    batch: &EdgeBatch,
    config: &LpaConfig,
) -> (Csr, LpaResult) {
    assert_eq!(prev_labels.len(), g.num_vertices(), "label length mismatch");
    let g_new = apply_batch(g, batch);
    let seed = frontier(batch, prev_labels);
    let result = lpa_native_from_state(&g_new, config, prev_labels.to_vec(), &seed);
    (g_new, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::lpa_native;
    use nulpa_graph::gen::{caveman_ground_truth, caveman_weighted, planted_partition};
    use nulpa_metrics::{check_labels, modularity, same_partition};

    fn cfg() -> LpaConfig {
        LpaConfig::default()
    }

    #[test]
    fn apply_batch_inserts_and_deletes() {
        let g = caveman_weighted(2, 4, 0.5);
        let batch = EdgeBatch {
            insertions: vec![(0, 5, 2.0)],
            deletions: vec![(0, 4)], // the bridge
        };
        let g2 = apply_batch(&g, &batch);
        assert_eq!(g2.edge_weight(0, 5), Some(2.0));
        assert_eq!(g2.edge_weight(5, 0), Some(2.0));
        assert_eq!(g2.edge_weight(0, 4), None);
        assert!(g2.is_symmetric());
    }

    #[test]
    fn apply_batch_ignores_missing_deletions() {
        let g = caveman_weighted(2, 4, 0.5);
        let batch = EdgeBatch {
            insertions: vec![],
            deletions: vec![(0, 7)], // no such edge
        };
        assert_eq!(apply_batch(&g, &batch), g);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_batch_rejects_out_of_range_insertion() {
        let g = caveman_weighted(2, 4, 0.5);
        let batch = EdgeBatch {
            insertions: vec![(0, 8, 1.0)],
            deletions: vec![],
        };
        apply_batch(&g, &batch);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn apply_batch_rejects_nan_weight() {
        let g = caveman_weighted(2, 4, 0.5);
        let batch = EdgeBatch {
            insertions: vec![(0, 5, f32::NAN)],
            deletions: vec![],
        };
        apply_batch(&g, &batch);
    }

    #[test]
    fn apply_batch_on_a_clone_gives_the_same_graph() {
        let g = caveman_weighted(3, 5, 0.5);
        let copy = g.clone();
        let batch = EdgeBatch {
            insertions: vec![(0, 7, 2.0), (3, 12, 1.0), (12, 3, 0.5)],
            deletions: vec![(0, 1), (4, 5)],
        };
        assert_eq!(apply_batch(&g, &batch), apply_batch(&copy, &batch));
        assert_eq!(copy, g);
    }

    #[test]
    fn frontier_rules() {
        // labels: {0,0,1,1}
        let labels = vec![0, 0, 1, 1];
        let batch = EdgeBatch {
            insertions: vec![(0, 1, 1.0), (1, 2, 1.0)], // intra, inter
            deletions: vec![(2, 3), (0, 3)],            // intra, inter
        };
        let f = frontier(&batch, &labels);
        // inter insertion (1,2) and intra deletion (2,3) contribute
        assert_eq!(f, vec![1, 2, 3]);
    }

    #[test]
    fn empty_batch_converges_immediately() {
        let g = caveman_weighted(4, 6, 0.5);
        let base = lpa_native(&g, &cfg());
        let (g2, r) = lpa_dynamic(&g, &base.labels, &EdgeBatch::default(), &cfg());
        assert_eq!(g2, g);
        assert_eq!(r.labels, base.labels);
        assert_eq!(r.total_changes(), 0);
        assert!(r.converged);
    }

    #[test]
    fn incremental_matches_static_quality_with_less_work() {
        let pp = planted_partition(&[80, 80, 80], 12.0, 0.5, 5);
        let g = pp.graph;
        let base = lpa_native(&g, &cfg());

        // perturb: a few random-ish inter edges and one deletion
        let batch = EdgeBatch {
            insertions: vec![(0, 100, 1.0), (10, 170, 1.0), (50, 200, 1.0)],
            deletions: vec![(0, 1)],
        };
        let (g_new, dynamic) = lpa_dynamic(&g, &base.labels, &batch, &cfg());
        let from_scratch = lpa_native(&g_new, &cfg());

        assert!(check_labels(&g_new, &dynamic.labels).is_ok());
        let q_dyn = modularity(&g_new, &dynamic.labels);
        let q_full = modularity(&g_new, &from_scratch.labels);
        assert!(q_dyn > 0.9 * q_full, "dyn {q_dyn} vs full {q_full}");
        // the incremental update must touch far fewer vertices
        assert!(
            dynamic.total_changes() * 5 < from_scratch.total_changes().max(1),
            "dyn changed {} vs full {}",
            dynamic.total_changes(),
            from_scratch.total_changes()
        );
    }

    #[test]
    fn stable_merged_community_survives_bridge_deletion() {
        // The documented limitation of frontier-based dynamic LPA (shared
        // with DF-LPA): a merged community is a *fixed point* — after the
        // bridge is deleted, every vertex's neighbours still carry the
        // merged label, so no frontier update can split it. A from-scratch
        // run on the new graph does split. Dynamic updates trade this
        // occasional suboptimality for orders-of-magnitude less work.
        // The merged labelling is built explicitly: both 5-cliques carry
        // label 0, a fixed point of LPA on the bridged graph.
        let g = caveman_weighted(2, 5, 10.0);
        let merged = vec![0; g.num_vertices()];
        let all: Vec<VertexId> = g.vertices().collect();
        let settled = lpa_native_from_state(&g, &cfg(), merged.clone(), &all);
        assert_eq!(
            settled.labels, merged,
            "the merged labelling is a fixed point"
        );

        let batch = EdgeBatch {
            insertions: vec![],
            deletions: vec![(0, 5)],
        };
        let (g_new, r) = lpa_dynamic(&g, &merged, &batch, &cfg());
        // dynamic: stays merged (stable fixed point), converges instantly
        assert_eq!(nulpa_metrics::community_count(&r.labels), 1);
        assert_eq!(r.total_changes(), 0);
        // static rerun: finds the split
        let fresh = lpa_native(&g_new, &cfg());
        assert!(same_partition(&fresh.labels, &caveman_ground_truth(2, 5)));
        assert!(modularity(&g_new, &fresh.labels) > modularity(&g_new, &r.labels));
    }

    #[test]
    fn inter_community_insertions_can_merge() {
        let g = caveman_weighted(2, 4, 0.5);
        let base = lpa_native(&g, &cfg());
        // saturate the cut: connect everything to everything across
        let mut ins = Vec::new();
        for u in 0..4u32 {
            for v in 4..8u32 {
                ins.push((u, v, 3.0));
            }
        }
        let (g_new, r) = lpa_dynamic(
            &g,
            &base.labels,
            &EdgeBatch {
                insertions: ins,
                deletions: vec![],
            },
            &cfg(),
        );
        assert_eq!(nulpa_metrics::community_count(&r.labels), 1);
        assert!(check_labels(&g_new, &r.labels).is_ok());
    }

    #[test]
    #[should_panic(expected = "label length mismatch")]
    fn rejects_wrong_label_length() {
        let g = caveman_weighted(2, 4, 0.5);
        lpa_dynamic(&g, &[0, 1], &EdgeBatch::default(), &cfg());
    }
}
