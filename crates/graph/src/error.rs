//! Crate-wide error umbrella.
//!
//! The substrate's fallible operations each have a focused error type —
//! [`LoadError`] for edge-list files, [`BatchError`] for update-batch
//! validation, [`ApplyError`] for applying batches to a
//! [`StreamingGraph`](crate::streaming::StreamingGraph). [`GraphError`]
//! unifies them so higher layers (the engine harness, the sweep runner) can
//! carry "something in the graph layer failed" as one typed value.

use std::error::Error;
use std::fmt;

use crate::io::LoadError;
use crate::streaming::ApplyError;
use crate::update::BatchError;

/// Any error produced by the graph substrate.
#[derive(Debug)]
pub enum GraphError {
    /// Loading or parsing an edge-list file failed.
    Load(LoadError),
    /// An update batch failed validation.
    Batch(BatchError),
    /// Applying a batch (or bulk-inserting edges) failed.
    Apply(ApplyError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Load(e) => write!(f, "edge-list load failed: {e}"),
            GraphError::Batch(e) => write!(f, "update batch invalid: {e}"),
            GraphError::Apply(e) => write!(f, "batch application failed: {e}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Load(e) => Some(e),
            GraphError::Batch(e) => Some(e),
            GraphError::Apply(e) => Some(e),
        }
    }
}

impl From<LoadError> for GraphError {
    fn from(e: LoadError) -> Self {
        GraphError::Load(e)
    }
}

impl From<BatchError> for GraphError {
    fn from(e: BatchError) -> Self {
        GraphError::Batch(e)
    }
}

impl From<ApplyError> for GraphError {
    fn from(e: ApplyError) -> Self {
        GraphError::Apply(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: GraphError = ApplyError::MissingEdge { src: 1, dst: 2 }.into();
        assert!(matches!(e, GraphError::Apply(_)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("absent edge"));

        let e: GraphError = BatchError::SelfLoop { vertex: 7 }.into();
        assert!(e.to_string().contains("self-loop"));

        let e: GraphError = LoadError::Parse { line: 3, content: "x".into() }.into();
        assert!(e.to_string().contains("line 3"));
    }
}
