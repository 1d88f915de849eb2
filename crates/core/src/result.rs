//! Output of an LPA run.

use nulpa_graph::VertexId;
use nulpa_simt::KernelStats;

/// Result of one LPA run (any backend).
#[derive(Clone, Debug)]
pub struct LpaResult {
    /// Final community label of every vertex.
    pub labels: Vec<VertexId>,
    /// Iterations performed (`l_i` at exit).
    pub iterations: u32,
    /// `true` if the tolerance test fired before the iteration cap.
    pub converged: bool,
    /// Vertices whose label changed, per iteration (`ΔN` series).
    pub changed_per_iter: Vec<usize>,
    /// Vertices each iteration had to inspect to build its work set:
    /// |V| per sweep on every backend.
    pub scanned_per_iter: Vec<usize>,
    /// Simulator statistics (zeroed for the native/sequential backends).
    pub stats: KernelStats,
    /// Label cells staged more than once within a single simulated wave,
    /// cumulative over the run (zero for the native/sequential backends;
    /// ν-LPA writes each vertex from exactly one thread, so a non-zero
    /// count indicates a scheduling bug — the parallel ≡ serial matrix
    /// test also asserts it is identical across host-thread counts).
    pub staged_collisions: u64,
}

impl LpaResult {
    /// Number of distinct communities — `|Γ|` in Table 1.
    pub fn num_communities(&self) -> usize {
        nulpa_metrics::community_count(&self.labels)
    }

    /// Total label changes across all iterations.
    pub fn total_changes(&self) -> usize {
        self.changed_per_iter.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn community_count_delegates() {
        let r = LpaResult {
            labels: vec![0, 0, 2, 2],
            iterations: 3,
            converged: true,
            changed_per_iter: vec![4, 2, 0],
            scanned_per_iter: vec![4, 4, 4],
            stats: KernelStats::new(),
            staged_collisions: 0,
        };
        assert_eq!(r.num_communities(), 2);
        assert_eq!(r.total_changes(), 6);
    }
}
