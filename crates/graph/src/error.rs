//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while constructing or manipulating graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referenced a vertex id outside `0..n`.
    VertexOutOfRange {
        /// Offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A graph was declared with more vertices than `u32` vertex ids can name.
    TooManyVertices {
        /// The declared vertex count.
        n: usize,
    },
    /// An edge had a non-positive (or non-finite) weight; the Laplacian machinery of the
    /// paper requires `w > 0`.
    NonPositiveWeight {
        /// Offending weight.
        weight: f64,
    },
    /// A self-loop `(u, u)` was supplied; Laplacians of self-loops are identically zero
    /// and the sparsification analysis excludes them.
    SelfLoop {
        /// The vertex with the loop.
        vertex: usize,
    },
    /// Two graphs passed to a binary operation had different vertex counts.
    SizeMismatch {
        /// Vertex count of the left operand.
        left: usize,
        /// Vertex count of the right operand.
        right: usize,
    },
    /// Failure while parsing a graph from text.
    Parse(String),
    /// A stateful consumer (e.g. a streaming sparsifier) was used again after an
    /// earlier error left it with partially-applied input. The payload describes the
    /// original failure.
    Poisoned(String),
    /// An I/O failure while reading or writing a graph file.
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::TooManyVertices { n } => {
                write!(f, "n = {n} vertices do not fit in u32 vertex ids")
            }
            GraphError::NonPositiveWeight { weight } => {
                write!(
                    f,
                    "edge weight {weight} is not strictly positive and finite"
                )
            }
            GraphError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
            GraphError::SizeMismatch { left, right } => {
                write!(f, "graphs have different vertex counts: {left} vs {right}")
            }
            GraphError::Parse(msg) => write!(f, "parse error: {msg}"),
            GraphError::Poisoned(msg) => {
                write!(f, "poisoned by an earlier partial-ingest failure: {msg}")
            }
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 5 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('5'));
        let e = GraphError::NonPositiveWeight { weight: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = GraphError::SizeMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("4"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let g: GraphError = io.into();
        assert!(matches!(g, GraphError::Io(_)));
    }
}
