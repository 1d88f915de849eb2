//! Deterministic (seeded) synthetic graph generators.
//!
//! These stand in for the paper's SuiteSparse datasets (see DESIGN.md §1):
//! each generator family is matched to one dataset category by degree
//! distribution, diameter, and community structure. All generators take an
//! explicit seed and are reproducible across runs and platforms
//! (they use `ChaCha8Rng`, whose stream is specified).

mod ba;
mod classic;
mod erdos;
mod grid;
mod kmer;
mod planted;
mod rmat;
mod web;

pub use ba::{barabasi_albert, barabasi_albert_local};
pub use classic::{
    caveman, caveman_ground_truth, caveman_weighted, complete, cycle, path, star,
    two_cliques_bridge, two_cliques_light_bridge,
};
pub use erdos::erdos_renyi;
pub use grid::grid2d;
pub use kmer::kmer_chain;
pub use planted::{planted_partition, PlantedPartition};
pub use rmat::{rmat, RmatParams};
pub use web::{web_crawl, web_crawl_hosts};

use crate::csr::Csr;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The built-in graph trio `nulpa` and the CI gates run when no graph is
/// given: two planted-partition graphs and one noise graph, small enough
/// that whole backend matrices run in seconds. The names are the graph
/// part of every gate row key.
pub fn builtin_trio() -> Vec<(String, Csr)> {
    vec![
        ("two-cliques-s6".into(), two_cliques_light_bridge(6)),
        ("caveman-4x8".into(), caveman_weighted(4, 8, 0.5)),
        ("erdos-renyi-256".into(), erdos_renyi(256, 768, 42)),
    ]
}

pub(crate) fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}
