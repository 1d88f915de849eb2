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

/// Panics unless `n` vertices fit in `u32` ids with one sentinel to spare.
fn assert_vertex_count(n: usize) {
    assert!(
        n < u32::MAX as usize,
        "vertex ids must fit in u32 with one sentinel value to spare"
    );
}

/// Incremental builder for [`Csr`] graphs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
    keep_self_loops: bool,
    duplicates: DuplicatePolicy,
    symmetrize: bool,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert_vertex_count(n);
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
            keep_self_loops: false,
            duplicates: DuplicatePolicy::SumWeights,
            symmetrize: false,
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
        self.push_unchecked(u, v, w);
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

    /// Queue `(u, v, w)` without the range and weight checks, for a
    /// reader that has checked the weight and learns |V| only at the end
    /// of its input; it must then call [`Self::set_num_vertices`] with a
    /// |V| above every queued id.
    pub(crate) fn push_unchecked(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if u != v || self.keep_self_loops {
            self.edges.push((u, v, w));
        }
    }

    /// Queue `other`'s edges after this builder's, in their order.
    pub(crate) fn append(&mut self, mut other: GraphBuilder) {
        self.edges.append(&mut other.edges);
    }

    /// Set |V| after [`Self::push_unchecked`].
    pub(crate) fn set_num_vertices(&mut self, n: usize) {
        assert_vertex_count(n);
        self.num_vertices = n;
    }

    /// Symmetrize at [`Self::build`]: for every queued `(u, v, w)` with no
    /// queued `(v, u, _)`, the graph also gets `(v, u, w)`. Used when
    /// loading directed datasets, matching the paper's "ensure the edges
    /// are undirected".
    ///
    /// The flag applies to every edge queued before `build`, also to edges
    /// queued after this call (no caller in this workspace does that).
    ///
    /// Contract: after symmetrization every stored edge has a reverse
    /// (structural symmetry). Weights follow: a direction that already
    /// existed keeps its own weight; duplicates of `(u, v)` each get their
    /// own reverse, so merged weight sums match in both directions.
    ///
    /// Cost: `O(|V| + |E|)` on top of `build`: one pass that checks whether
    /// the built CSR is already structurally symmetric and, only if it is
    /// not, a transpose by a counting scatter and a merge of each row with
    /// its transpose row.
    pub fn symmetrize(mut self) -> Self {
        self.symmetrize = true;
        self
    }

    /// Finalize into a validated CSR graph.
    ///
    /// Queued edges are placed by a counting sort on their source; each
    /// row is then sorted by `(target, weight bits)`, skipped when already
    /// in that order, and duplicates are folded in that order under the
    /// [`DuplicatePolicy`]. A queue that is already in CSR order (strictly
    /// ascending `(source, target)`) is copied as it is. Sorting by the
    /// weight bits makes the folding order-deterministic, so both
    /// directions of an undirected edge sum their duplicates alike and stay
    /// bit-identical (`f32` addition is commutative but not associative).
    /// Cost: `O(|V| + |E|)` plus the sorts of the rows that arrive out of
    /// order, and the [`Self::symmetrize`] pass when set.
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let ((mut offsets, mut targets, mut weights), in_order) =
            scatter_rows(n, || self.edges.iter().copied());
        drop(self.edges);

        if !in_order {
            let key = |e: &(VertexId, Weight)| (e.0, e.1.to_bits());
            let fold = self.duplicates != DuplicatePolicy::KeepAll;
            let mut row = Vec::new();
            let (mut start, mut len) = (0, 0);
            for u in 0..n {
                let end = offsets[u + 1];
                offsets[u] = len;
                row.clear();
                row.extend((start..end).map(|i| (targets[i], weights[i])));
                if !row.is_sorted_by_key(key) {
                    row.sort_unstable_by_key(key);
                }
                for &(v, w) in &row {
                    if fold && len > offsets[u] && targets[len - 1] == v {
                        if self.duplicates == DuplicatePolicy::SumWeights {
                            weights[len - 1] += w;
                        }
                        continue;
                    }
                    targets[len] = v;
                    weights[len] = w;
                    len += 1;
                }
                start = end;
            }
            offsets[n] = len;
            targets.truncate(len);
            weights.truncate(len);
        }

        if self.symmetrize {
            (offsets, targets, weights) = with_missing_reverses(offsets, targets, weights);
        }
        Csr::from_raw(offsets, targets, weights)
    }
}

/// CSR arrays: offsets, targets, weights.
type Rows = (Vec<usize>, Vec<VertexId>, Vec<Weight>);

/// CSR rows of `n` vertices from `(source, target, weight)` triples by a
/// counting sort on the source: `edges` is walked once to count and once
/// to place, and each row keeps its triples in walk order. The flag says
/// the triples came strictly ascending by `(source, target)`: already in
/// CSR order, with nothing to sort or fold, and placed by a plain copy.
fn scatter_rows<I>(n: usize, edges: impl Fn() -> I) -> (Rows, bool)
where
    I: Iterator<Item = (VertexId, VertexId, Weight)>,
{
    let mut offsets = vec![0usize; n + 1];
    // `(u, v)` as one key, ascending when `(u, v)` is
    let (mut in_order, mut next_key) = (true, 0);
    for (u, v, _) in edges() {
        offsets[u as usize + 1] += 1;
        let key = u64::from(u) << 32 | u64::from(v);
        in_order &= key >= next_key;
        next_key = key + 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    if in_order {
        let (targets, weights) = edges().map(|(_, v, w)| (v, w)).unzip();
        return ((offsets, targets, weights), true);
    }
    let mut targets = vec![0; offsets[n]];
    let mut weights = vec![0.0; offsets[n]];
    // each offset serves as its row's cursor, ending at the next row's start
    for (u, v, w) in edges() {
        let at = &mut offsets[u as usize];
        targets[*at] = v;
        weights[*at] = w;
        *at += 1;
    }
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    ((offsets, targets, weights), false)
}

/// The built rows plus, in each row `u`, the entries `(v, w)` of row `v`
/// that target `u` where row `u` has no entry for `v`. That is the CSR the
/// fold would give for the queue with every edge mirrored: row `v`'s
/// entries for `u` are already folded in `(target, weight bits)` order,
/// the same order the mirrored duplicates would sum in, and a self loop
/// finds itself.
fn with_missing_reverses(
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
) -> Rows {
    let n = offsets.len() - 1;
    // Undirected input has nothing to add: its transpose has the same
    // structure. The k-th edge into `v`, counted in source order, would
    // land on row `v`'s k-th entry; check that it is already there. No
    // row can take more edges than it holds, and both sides count |E|,
    // so every row then matches whole.
    let mut next = offsets.clone();
    let symmetric = (0..n).all(|u| {
        targets[offsets[u]..offsets[u + 1]].iter().all(|&v| {
            let at = &mut next[v as usize];
            let hit = *at < offsets[v as usize + 1] && targets[*at] == u as VertexId;
            *at += 1;
            hit
        })
    });
    if symmetric {
        return (offsets, targets, weights);
    }
    // walking rows in order leaves each transpose row sorted by source, and
    // the parallel entries of one source in their row order
    let (o, t, w) = (&offsets, &targets, &weights);
    let ((t_offsets, t_targets, t_weights), _) = scatter_rows(n, || {
        (0..n).flat_map(move |u| (o[u]..o[u + 1]).map(move |i| (t[i], u as VertexId, w[i])))
    });
    let m = targets.len() + t_targets.len();
    let mut out: Rows = (
        Vec::with_capacity(n + 1),
        Vec::with_capacity(m),
        Vec::with_capacity(m),
    );
    out.0.push(0);
    for u in 0..n {
        let (mut i, mut j) = (offsets[u], t_offsets[u]);
        let (a_end, b_end) = (offsets[u + 1], t_offsets[u + 1]);
        while i < a_end || j < b_end {
            if j == b_end || (i < a_end && targets[i] <= t_targets[j]) {
                let v = targets[i];
                out.1.push(v);
                out.2.push(weights[i]);
                i += 1;
                while j < b_end && t_targets[j] == v {
                    j += 1;
                }
            } else {
                out.1.push(t_targets[j]);
                out.2.push(t_weights[j]);
                j += 1;
            }
        }
        out.0.push(out.1.len());
    }
    out
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
