//! Output checks, counted as failed/attempted for the result line.

use nulpa_graph::{Csr, VertexId};
use nulpa_metrics::check_labels;

/// Tally of the checks one run made.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Description of every check that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The two label vectors are bit-identical.
    pub fn same_labels(&mut self, what: &str, a: &[VertexId], b: &[VertexId]) {
        self.check(a == b, || {
            let at = a.iter().zip(b).position(|(x, y)| x != y);
            format!(
                "{what}: labels differ (len {} vs {}, first difference at {at:?})",
                a.len(),
                b.len()
            )
        });
    }

    /// The two graphs have identical offsets, targets and weight bits;
    /// returns whether they do.
    pub fn same_csr(&mut self, what: &str, got: &Csr, want: &Csr) -> bool {
        let bits = |g: &Csr| g.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let ok = got.offsets() == want.offsets()
            && got.targets() == want.targets()
            && bits(got) == bits(want);
        self.check(ok, || {
            format!(
                "{what}: CSR differs (|V| {} vs {}, |E| {} vs {})",
                got.num_vertices(),
                want.num_vertices(),
                got.num_edges(),
                want.num_edges()
            )
        });
        ok
    }

    /// One label per vertex, each a vertex id.
    pub fn valid_labels(&mut self, what: &str, g: &Csr, labels: &[VertexId]) {
        let r = check_labels(g, labels);
        self.check(r.is_ok(), || format!("{what}: {}", r.as_ref().unwrap_err()));
    }

    /// Number of failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}
