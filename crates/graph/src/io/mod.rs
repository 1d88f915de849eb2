//! Graph serialization: whitespace edge lists and MatrixMarket.
//!
//! The paper loads SuiteSparse matrices in MatrixMarket form; these readers
//! let users of this crate run the same pipeline on real downloads when
//! they have them.

mod binary;
mod edgelist;
mod mtx;

pub use binary::{read_binary, write_binary};
pub use edgelist::{read_edge_list, write_edge_list};
pub use mtx::{read_matrix_market, write_matrix_market};

/// Errors produced by the graph readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with 1-based line number.
    Parse {
        /// 1-based line number (0 when not line-specific).
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Entries to preallocate at most for a count read from a file; past
/// this, buffers grow only as data actually arrives.
pub(crate) const PREALLOC: usize = 1 << 24;

/// `Err` unless `n` vertices fit in `u32` ids with the sentinel to spare
/// (the limit [`crate::GraphBuilder::new`] asserts).
pub(crate) fn check_vertex_count(line: usize, n: usize) -> Result<(), IoError> {
    if n >= u32::MAX as usize {
        return Err(parse_err(
            line,
            format!("|V| = {n} exceeds the u32 vertex-id range"),
        ));
    }
    Ok(())
}

pub(crate) fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}
