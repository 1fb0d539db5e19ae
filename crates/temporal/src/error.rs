//! Error type shared by the temporal data model.

use std::fmt;

/// Errors produced while constructing or parsing temporal-model values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalError {
    /// An interval with `end < start` (intervals are closed and ordered).
    InvalidInterval { id: u64, start: i64, end: i64 },
    /// An operation that requires a non-empty collection received an empty one.
    EmptyCollection,
    /// A structurally invalid RTJ query (disconnected, anti-parallel edge, …).
    InvalidQuery(String),
    /// A malformed line in the plain-text collection format.
    Parse { line: usize, message: String },
    /// Invalid partitioning parameters (zero granules or non-positive width).
    InvalidPartitioning(String),
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalError::InvalidInterval { id, start, end } => {
                write!(f, "interval {id} has end {end} < start {start}")
            }
            TemporalError::EmptyCollection => write!(f, "collection is empty"),
            TemporalError::InvalidQuery(msg) => write!(f, "invalid RTJ query: {msg}"),
            TemporalError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TemporalError::InvalidPartitioning(msg) => {
                write!(f, "invalid time partitioning: {msg}")
            }
        }
    }
}

impl std::error::Error for TemporalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TemporalError::InvalidInterval { id: 7, start: 10, end: 3 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("10") && s.contains('3'));
        assert!(TemporalError::EmptyCollection.to_string().contains("empty"));
        let q = TemporalError::InvalidQuery("loop".into());
        assert!(q.to_string().contains("loop"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(TemporalError::EmptyCollection);
    }
}
