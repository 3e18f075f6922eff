//! Error types for graph construction and IO.

use std::error::Error;
use std::fmt;

/// Errors produced while building or loading graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A self-loop `(v, v)` was added; the friending model has no notion of
    /// being one's own friend.
    SelfLoop {
        /// The offending node.
        node: usize,
    },
    /// A node id referenced a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying IO failure, flattened to a message to keep the error
    /// type `Clone + PartialEq`.
    Io(String),
    /// A generator was given inconsistent parameters.
    InvalidParameter {
        /// Description of the inconsistency.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range for graph with {node_count} nodes")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
            GraphError::InvalidParameter { message } => {
                write!(f, "invalid parameter: {message}")
            }
        }
    }
}

impl Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(GraphError, &str)> = vec![
            (GraphError::SelfLoop { node: 3 }, "self-loop on node 3"),
            (
                GraphError::NodeOutOfRange { node: 9, node_count: 5 },
                "node 9 out of range for graph with 5 nodes",
            ),
            (
                GraphError::Parse { line: 4, message: "expected two node ids".into() },
                "parse error on line 4: expected two node ids",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: GraphError = io.into();
        assert!(matches!(err, GraphError::Io(_)));
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn error_trait_object() {
        fn takes_err(_: &dyn Error) {}
        takes_err(&GraphError::SelfLoop { node: 0 });
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
