//! Edge-list graph builder producing validated [`Csr`] graphs.
//!
//! The builder mirrors the preprocessing the paper applies to its inputs:
//! directed inputs are *symmetrized* (a reverse edge is added for every
//! edge — Table 1 reports `|E|` "after adding reverse edges"), duplicate
//! edges are merged by summing weights, and self loops are dropped by
//! default (LPA skips `j = i` during label accumulation; Algorithm 1).

use crate::csr::{Csr, VertexId, Weight};

/// Policy for duplicate `(u, v)` entries in the edge list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Sum the weights of duplicates (default; matches weighted-multigraph
    /// collapse used by the paper's loaders).
    #[default]
    SumWeights,
    /// Keep one weight per `(u, v)`, the one with the lowest bit pattern
    /// (the smallest, for non-negative weights), and discard the rest.
    KeepFirst,
    /// Keep duplicates as parallel edges.
    KeepAll,
}

/// Incremental builder for [`Csr`] graphs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
    keep_self_loops: bool,
    duplicates: DuplicatePolicy,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "vertex ids must fit in u32 with one sentinel value to spare"
        );
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
            keep_self_loops: false,
            duplicates: DuplicatePolicy::SumWeights,
        }
    }

    /// Keep or drop self loops (dropped by default).
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Set the duplicate-edge policy.
    pub fn duplicate_policy(mut self, p: DuplicatePolicy) -> Self {
        self.duplicates = p;
        self
    }

    /// Pre-allocate space for `m` more edges.
    pub fn reserve(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Add one directed edge.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// Add one undirected edge (stored in both directions).
    pub fn add_undirected_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_undirected(u, v, w);
        self
    }

    /// Add many directed edges.
    pub fn add_edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        for (u, v, w) in it {
            self.push_edge(u, v, w);
        }
        self
    }

    /// Add many undirected edges.
    pub fn add_undirected_edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        for (u, v, w) in it {
            self.push_undirected(u, v, w);
        }
        self
    }

    /// Non-consuming edge insertion, for loop-heavy generator code.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for |V| = {}",
            self.num_vertices
        );
        assert!(w.is_finite(), "edge weight must be finite");
        if u == v && !self.keep_self_loops {
            return;
        }
        self.edges.push((u, v, w));
    }

    /// Non-consuming undirected edge insertion.
    pub fn push_undirected(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.push_edge(u, v, w);
        if u != v {
            self.push_edge(v, u, w);
        }
    }

    /// Number of directed edge entries currently queued.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Symmetrize the queued edge list: for every queued `(u, v, w)` with no
    /// queued `(v, u, _)`, queue `(v, u, w)`. Used when loading directed
    /// datasets, matching the paper's "ensure the edges are undirected".
    ///
    /// Contract: after symmetrization every stored edge has a reverse
    /// (structural symmetry). Weights follow: a direction that already
    /// existed keeps its own weight; duplicates of `(u, v)` each schedule
    /// their own reverse, so merged weight sums match in both directions.
    pub fn symmetrize(mut self) -> Self {
        let mut seen: Vec<(VertexId, VertexId)> =
            self.edges.iter().map(|&(u, v, _)| (u, v)).collect();
        seen.sort_unstable();
        let mut extra = Vec::new();
        for &(u, v, w) in &self.edges {
            if u != v && seen.binary_search(&(v, u)).is_err() {
                extra.push((v, u, w));
            }
        }
        self.edges.extend(extra);
        self
    }

    /// Finalize into a validated CSR graph.
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let mut edges = self.edges;
        // Sort by (source, target, weight-bits): the weight component makes
        // duplicate merging order-deterministic, so both directions of an
        // undirected edge sum their duplicates in the same order and stay
        // bit-identical (f32 addition is commutative but not associative).
        edges.sort_unstable_by_key(|e| (e.0, e.1, e.2.to_bits()));

        match self.duplicates {
            DuplicatePolicy::KeepAll => {}
            DuplicatePolicy::SumWeights => {
                edges.dedup_by(|next, acc| {
                    if next.0 == acc.0 && next.1 == acc.1 {
                        acc.2 += next.2;
                        true
                    } else {
                        false
                    }
                });
            }
            DuplicatePolicy::KeepFirst => {
                edges.dedup_by_key(|&mut (u, v, _)| (u, v));
            }
        }

        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let (targets, weights): (Vec<_>, Vec<_>) =
            edges.into_iter().map(|(_, v, w)| (v, w)).unzip();
        Csr::from_raw(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_sum_weights() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
    }

    #[test]
    fn duplicate_keep_first() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepFirst)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn duplicate_keep_all() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepAll)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::new(2).add_edge(0, 0, 1.0).build();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(1, 1, 4.0)
            .build();
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.edge_weight(1, 1), Some(4.0));
    }

    #[test]
    fn symmetrize_adds_missing_reverse_edges() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 2.0)
            .add_edge(1, 0, 5.0) // already has a reverse, keep both as-is
            .add_edge(1, 2, 1.0) // reverse missing
            .symmetrize()
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(5.0));
        assert_eq!(g.edge_weight(2, 1), Some(1.0));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn symmetrize_mirrors_each_duplicate() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepAll)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 1.0)
            .symmetrize()
            .build();
        // each parallel (0,1) edge gets its own reverse, so merged weight
        // sums stay equal in both directions under SumWeights
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);

        let merged = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.0)
            .symmetrize()
            .build();
        assert_eq!(merged.edge_weight(0, 1), merged.edge_weight(1, 0));
        assert_eq!(merged.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn undirected_edge_stored_both_ways() {
        let g = GraphBuilder::new(2).add_undirected_edge(0, 1, 3.0).build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertex() {
        GraphBuilder::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        GraphBuilder::new(2).add_edge(0, 1, f32::NAN);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn deterministic_layout() {
        let mk = || {
            GraphBuilder::new(4)
                .add_undirected_edges([(3, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)])
                .build()
        };
        assert_eq!(mk(), mk());
    }
}
