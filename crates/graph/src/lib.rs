//! # nulpa-graph
//!
//! Graph substrate for the ν-LPA reproduction: CSR storage with 32-bit
//! vertex ids and `f32` weights (the paper's configuration), an edge-list
//! builder with the paper's preprocessing (symmetrization, duplicate
//! merging, self-loop removal), MatrixMarket/edge-list I/O, seeded
//! synthetic generators, and stand-ins for the 13 SuiteSparse datasets of
//! Table 1.
//!
//! ## Quick example
//! ```
//! use nulpa_graph::{GraphBuilder, gen};
//!
//! let g = GraphBuilder::new(4)
//!     .add_undirected_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
//!     .build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.degree(1), 2);
//!
//! let social = gen::planted_partition(&[50, 50], 8.0, 1.0, 42);
//! assert_eq!(social.graph.num_vertices(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod permute;
pub mod stats;
pub mod subgraph;
pub mod threads;

pub use builder::{DuplicatePolicy, GraphBuilder};
pub use csr::{Csr, VertexId, Weight};
pub use threads::{resolve_threads, MAX_THREADS};
