//! Per-iteration observation hooks for host-side telemetry.
//!
//! The three LPA backends ([`crate::lpa_seq`], [`crate::lpa_native`],
//! [`crate::lpa_gpu`]) expose `_observed` entry points that call an
//! [`IterObserver`] once per completed iteration with the post-iteration
//! label array. This is the attachment point for convergence telemetry
//! (ΔN trajectories, active-vertex fraction, incremental modularity —
//! see the `nulpa-telemetry` crate) without entangling the algorithm
//! crates with the metrics layer.
//!
//! Observation is strictly read-only and gated: when
//! [`IterObserver::is_enabled`] returns `false` (the [`NullObserver`]
//! default), the backends skip the label snapshot entirely, so an
//! unobserved run pays one virtual call per iteration and nothing else.
//! The neutrality tests assert byte-identical labels, stats, and trace
//! output with and without an observer attached.

use nulpa_graph::VertexId;

/// Receives one callback per completed LPA iteration.
pub trait IterObserver {
    /// `false` skips snapshotting and the [`Self::on_iteration`] call —
    /// the backends check this once per iteration.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Called after iteration `iter` (0-based) has fully committed,
    /// including any Cross-Check revert pass.
    ///
    /// * `changed` — vertices whose label changed this iteration (ΔN,
    ///   net of Cross-Check reverts; matches `changed_per_iter`).
    /// * `active` — candidate vertices processed this iteration (the
    ///   pruned work set).
    /// * `labels` — the committed label of every vertex after the
    ///   iteration.
    fn on_iteration(&mut self, iter: u32, changed: usize, active: usize, labels: &[VertexId]);
}

/// The do-nothing observer: reports disabled, so backends skip all
/// observation work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl IterObserver for NullObserver {
    fn is_enabled(&self) -> bool {
        false
    }
    fn on_iteration(&mut self, _iter: u32, _changed: usize, _active: usize, _labels: &[VertexId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: records every callback.
    pub(crate) struct Recorder {
        pub calls: Vec<(u32, usize, usize, Vec<VertexId>)>,
    }

    impl IterObserver for Recorder {
        fn on_iteration(&mut self, iter: u32, changed: usize, active: usize, labels: &[VertexId]) {
            self.calls.push((iter, changed, active, labels.to_vec()));
        }
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.is_enabled());
    }

    #[test]
    fn recorder_default_is_enabled() {
        let r = Recorder { calls: Vec::new() };
        assert!(r.is_enabled());
    }
}
