//! Error type shared by the sparse linear algebra substrate.

use std::fmt;

/// Errors produced by matrix construction, factorization, and I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// An entry's row or column index is outside the matrix dimensions.
    IndexOutOfBounds {
        /// Row index of the rejected entry.
        row: usize,
        /// Column index of the rejected entry.
        col: usize,
        /// Row count of the matrix.
        nrows: usize,
        /// Column count of the matrix.
        ncols: usize,
    },
    /// A CSR invariant is violated (row pointers not monotone, lengths
    /// inconsistent, column indices unsorted or out of range).
    InvalidCsr(String),
    /// The matrix is not (numerically) symmetric where symmetry is required.
    NotSymmetric {
        /// Row of the first offending pair.
        row: usize,
        /// Column of the first offending pair.
        col: usize,
        /// `|A[row, col] − A[col, row]|`, above the tolerance.
        diff: f64,
    },
    /// Cholesky factorization hit a non-positive pivot: the matrix is not
    /// positive definite (or is ill-conditioned beyond `f64`).
    NotPositiveDefinite {
        /// Row at which the factorization stopped.
        pivot_index: usize,
        /// The non-positive (or non-finite) value found there.
        pivot: f64,
    },
    /// A dimension mismatch between operands (e.g. SpMV with a wrong-length
    /// vector).
    DimensionMismatch {
        /// The size the operation required.
        expected: usize,
        /// The size it was given.
        found: usize,
    },
    /// Matrix Market parse failure with a line number and message.
    MatrixMarket {
        /// 1-based line of the input the parser stopped at.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// Underlying I/O error (stringified so the error type stays `Clone`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) outside matrix dimensions {nrows}x{ncols}"
            ),
            SparseError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
            SparseError::NotSymmetric { row, col, diff } => write!(
                f,
                "matrix not symmetric: |A[{row},{col}] - A[{col},{row}]| = {diff:e}"
            ),
            SparseError::NotPositiveDefinite { pivot_index, pivot } => write!(
                f,
                "matrix not positive definite: pivot {pivot_index} = {pivot:e}"
            ),
            SparseError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            SparseError::MatrixMarket { line, msg } => {
                write!(f, "Matrix Market parse error at line {line}: {msg}")
            }
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_data() {
        let e = SparseError::IndexOutOfBounds {
            row: 3,
            col: 7,
            nrows: 2,
            ncols: 2,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7') && s.contains("2x2"));

        let e = SparseError::NotPositiveDefinite {
            pivot_index: 5,
            pivot: -1.0,
        };
        assert!(e.to_string().contains("pivot 5"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
