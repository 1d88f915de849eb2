//! Compressed Sparse Row (CSR) graph representation.
//!
//! This is the storage format ν-LPA operates on: vertex ids are `u32`
//! (paper §5.1.2 uses 32-bit identifiers), edge weights are `f32`, and the
//! per-vertex adjacency offsets double as the hashtable offsets used by the
//! per-vertex open-addressing tables (paper Fig. 2).
//!
//! The graph is stored as a *directed* adjacency structure; undirected
//! graphs store each edge in both directions (the paper symmetrizes its
//! directed inputs the same way, see Table 1's "after adding reverse
//! edges"). All algorithms in this workspace assume that symmetric form.

use std::fmt;

/// Vertex identifier. 32-bit, as in the paper's configuration.
pub type VertexId = u32;

/// Edge weight. 32-bit float, as in the paper's configuration.
pub type Weight = f32;

/// An immutable weighted graph in Compressed Sparse Row form.
///
/// Invariants (checked by [`Csr::validate`], maintained by the builder):
/// * `offsets.len() == num_vertices + 1`, `offsets[0] == 0`,
///   `offsets` is non-decreasing and `offsets[n] == targets.len()`.
/// * `targets.len() == weights.len()`.
/// * every target is `< num_vertices`.
/// * within a vertex's adjacency slice, targets are sorted ascending
///   (useful for binary-searching edges and for deterministic iteration).
#[derive(Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays violate the CSR invariants listed on [`Csr`];
    /// use [`Csr::try_from_raw`] for arrays from outside the program.
    pub fn from_raw(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        Self::try_from_raw(offsets, targets, weights).expect("invalid CSR arrays")
    }

    /// Build from raw CSR arrays, returning the first violated invariant
    /// (see [`Csr::validate`]) instead of panicking.
    pub fn try_from_raw(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<Weight>,
    ) -> Result<Self, String> {
        let g = Csr {
            offsets,
            targets,
            weights,
        };
        g.validate()?;
        Ok(g)
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *stored directed* edges. For a symmetrized undirected
    /// graph this is `2|E|` in the paper's notation minus self loops
    /// stored once; Table 1 reports this directed count as `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of vertex `u` (number of stored out-edges).
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// CSR offset of vertex `u`'s adjacency slice — `O_i` in the paper;
    /// the per-vertex hashtable for `u` lives at offset `2 * O_i`.
    #[inline]
    pub fn offset(&self, u: VertexId) -> usize {
        self.offsets[u as usize]
    }

    /// The full offsets array (length `|V| + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The full targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The full weights array.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Iterate over vertex ids `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Neighbours of `u` with weights, in ascending target order.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (lo, hi) = self.range(u);
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Neighbour ids of `u` (no weights).
    #[inline]
    pub fn neighbor_ids(&self, u: VertexId) -> &[VertexId] {
        let (lo, hi) = self.range(u);
        &self.targets[lo..hi]
    }

    /// Neighbour weights of `u`, aligned with [`Csr::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, u: VertexId) -> &[Weight] {
        let (lo, hi) = self.range(u);
        &self.weights[lo..hi]
    }

    #[inline]
    fn range(&self, u: VertexId) -> (usize, usize) {
        let u = u as usize;
        (self.offsets[u], self.offsets[u + 1])
    }

    /// Weighted degree `K_i = Σ_j w_ij` of vertex `u`.
    pub fn weighted_degree(&self, u: VertexId) -> f64 {
        self.neighbor_weights(u).iter().map(|&w| w as f64).sum()
    }

    /// Total *directed* edge weight — `2m` in the paper's notation for a
    /// symmetrized graph (each undirected edge contributes twice).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().map(|&w| w as f64).sum()
    }

    /// `true` if the directed edge `(u, v)` is stored.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbor_ids(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let (lo, _) = self.range(u);
        self.neighbor_ids(u)
            .binary_search(&v)
            .ok()
            .map(|k| self.weights[lo + k])
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Average degree `D_avg = |E| / |V|` (directed count).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Check that the stored graph is symmetric with matching weights,
    /// i.e. represents an undirected graph. `O(|E| log D)`.
    pub fn is_symmetric(&self) -> bool {
        for u in self.vertices() {
            for (v, w) in self.neighbors(u) {
                match self.edge_weight(v, u) {
                    Some(wb) if wb == w => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Verify all CSR structural invariants. Returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets array must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err(format!("offsets[0] = {}, expected 0", self.offsets[0]));
        }
        if *self.offsets.last().unwrap() != self.targets.len() {
            return Err(format!(
                "offsets[last] = {} but targets.len() = {}",
                self.offsets.last().unwrap(),
                self.targets.len()
            ));
        }
        if self.targets.len() != self.weights.len() {
            return Err(format!(
                "targets.len() = {} but weights.len() = {}",
                self.targets.len(),
                self.weights.len()
            ));
        }
        for (u, w) in self.offsets.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(format!("offsets decrease at vertex {u}"));
            }
            let slice = (self.targets.get(w[0]..w[1]))
                .ok_or_else(|| format!("offsets[{}] past the edge arrays", u + 1))?;
            for pair in slice.windows(2) {
                if pair[0] > pair[1] {
                    return Err(format!("adjacency of vertex {u} not sorted"));
                }
            }
        }
        let n = self.num_vertices() as VertexId;
        if let Some(&bad) = self.targets.iter().find(|&&t| t >= n) {
            return Err(format!("target {bad} out of range (|V| = {n})"));
        }
        Ok(())
    }

    /// Count self loops `(u, u)` stored in the graph.
    pub fn num_self_loops(&self) -> usize {
        self.vertices()
            .map(|u| self.neighbor_ids(u).iter().filter(|&&v| v == u).count())
            .sum()
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr {{ |V| = {}, |E| = {}, D_avg = {:.2} }}",
            self.num_vertices(),
            self.num_edges(),
            self.avg_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Csr {
        GraphBuilder::new(3)
            .add_undirected_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
        assert!(g.is_symmetric());
    }

    #[test]
    fn try_from_raw_rejects_invalid_arrays_without_panicking() {
        let ok = Csr::try_from_raw(vec![0, 1, 2], vec![1, 0], vec![1.0, 1.0]).unwrap();
        assert_eq!(ok.num_edges(), 2);
        for (offsets, targets, weights, why) in [
            (
                vec![0, 5, 2],
                vec![1, 0],
                vec![1.0, 1.0],
                "past the edge arrays",
            ),
            (vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0], "decrease"),
            (vec![1, 1, 2], vec![1, 0], vec![1.0, 1.0], "offsets[0]"),
            (vec![0, 1, 2], vec![1, 7], vec![1.0, 1.0], "out of range"),
            (vec![0, 1, 2], vec![1, 0], vec![1.0], "weights.len()"),
            (vec![0, 1, 3], vec![1, 0], vec![1.0, 1.0], "targets.len()"),
        ] {
            let err = Csr::try_from_raw(offsets, targets, weights).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Csr::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6); // symmetrized
        for u in g.vertices() {
            assert_eq!(g.degree(u), 2);
        }
        assert_eq!(g.total_weight(), 6.0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = GraphBuilder::new(4)
            .add_undirected_edges([(2, 0, 3.0), (2, 3, 1.5), (2, 1, 2.0)])
            .build();
        let nbrs: Vec<_> = g.neighbors(2).collect();
        assert_eq!(nbrs, vec![(0, 3.0), (1, 2.0), (3, 1.5)]);
    }

    #[test]
    fn has_edge_and_weight() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
        assert_eq!(g.edge_weight(1, 1), None);
    }

    #[test]
    fn weighted_degree_sums_weights() {
        let g = GraphBuilder::new(3)
            .add_undirected_edges([(0, 1, 2.0), (0, 2, 0.5)])
            .build();
        assert_eq!(g.weighted_degree(0), 2.5);
        assert_eq!(g.weighted_degree(1), 2.0);
    }

    #[test]
    fn offsets_match_degrees() {
        let g = triangle();
        assert_eq!(g.offset(0), 0);
        assert_eq!(g.offset(1), 2);
        assert_eq!(g.offset(2), 4);
        assert_eq!(g.offsets().len(), 4);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn from_raw_rejects_bad_offsets() {
        Csr::from_raw(vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn from_raw_rejects_out_of_range_target() {
        Csr::from_raw(vec![0, 1], vec![3], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn from_raw_rejects_unsorted_adjacency() {
        Csr::from_raw(vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn self_loop_counting() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(0, 0, 1.0)
            .add_undirected_edge(0, 1, 1.0)
            .build();
        assert_eq!(g.num_self_loops(), 1);
    }

    #[test]
    fn asymmetric_graph_detected() {
        let g = Csr::from_raw(vec![0, 1, 1], vec![1], vec![1.0]);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn debug_format_mentions_sizes() {
        let s = format!("{:?}", triangle());
        assert!(s.contains("|V| = 3"));
        assert!(s.contains("|E| = 6"));
    }
}
