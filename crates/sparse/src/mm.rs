//! Matrix Market I/O (coordinate format).
//!
//! The paper's test matrices (`Emilia_923`, `audikw_1`) come from the
//! SuiteSparse collection in Matrix Market format. This reader/writer lets
//! the benchmark harness run on the genuine matrices when a copy is
//! available; the repository itself ships synthetic substitutes (see
//! [`crate::gen`] and PAPER.md, "What the stand-ins do not reproduce").
//!
//! Supported: `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` (pattern entries get
//! value 1.0). Symmetric files store the lower triangle; the reader mirrors
//! off-diagonal entries.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Pattern,
}

fn parse_header(line: &str) -> Result<(Field, Symmetry), SparseError> {
    let err = |msg: &str| SparseError::MatrixMarket {
        line: 1,
        msg: msg.to_string(),
    };
    let lower = line.to_ascii_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" {
        return Err(err("missing %%MatrixMarket header"));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(err("only 'matrix coordinate' objects are supported"));
    }
    let field = match tokens[3] {
        "real" | "integer" => Field::Real,
        "pattern" => Field::Pattern,
        other => return Err(err(&format!("unsupported field '{other}'"))),
    };
    let sym = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(err(&format!("unsupported symmetry '{other}'"))),
    };
    Ok((field, sym))
}

/// Reads a Matrix Market coordinate file from any reader.
///
/// # Errors
/// Returns [`SparseError::MatrixMarket`] on malformed input or
/// [`SparseError::Io`] on read failure.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix, SparseError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    let (_, first) = lines.next().ok_or_else(|| SparseError::MatrixMarket {
        line: 1,
        msg: "empty file".into(),
    })?;
    let (field, sym) = parse_header(&first?)?;

    // Skip comment lines, find the size line.
    let mut size_line = None;
    let mut size_line_no = 0usize;
    for (no, line) in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        size_line_no = no + 1;
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::MatrixMarket {
        line: size_line_no,
        msg: "missing size line".into(),
    })?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::MatrixMarket {
            line: size_line_no,
            msg: format!("bad size line: {e}"),
        })?;
    if dims.len() != 3 {
        return Err(SparseError::MatrixMarket {
            line: size_line_no,
            msg: format!("size line must have 3 fields, found {}", dims.len()),
        });
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    let cap = if sym == Symmetry::Symmetric {
        2 * nnz
    } else {
        nnz
    };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    let mut seen = 0usize;
    for (no, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse_idx = |tok: Option<&str>| -> Result<usize, SparseError> {
            tok.ok_or(())
                .and_then(|t| t.parse::<usize>().map_err(|_| ()))
                .map_err(|_| SparseError::MatrixMarket {
                    line: no + 1,
                    msg: "bad entry line".into(),
                })
        };
        let r = parse_idx(it.next())?;
        let c = parse_idx(it.next())?;
        if r == 0 || c == 0 {
            return Err(SparseError::MatrixMarket {
                line: no + 1,
                msg: "Matrix Market indices are 1-based; found 0".into(),
            });
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real => it
                .next()
                .ok_or(())
                .and_then(|t| t.parse::<f64>().map_err(|_| ()))
                .map_err(|_| SparseError::MatrixMarket {
                    line: no + 1,
                    msg: "missing or bad value".into(),
                })?,
        };
        let (r0, c0) = (r - 1, c - 1);
        coo.push(r0, c0, v)?;
        if sym == Symmetry::Symmetric && r0 != c0 {
            coo.push(c0, r0, v)?;
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::MatrixMarket {
            line: 0,
            msg: format!("expected {nnz} entries, found {seen}"),
        });
    }
    Ok(CsrMatrix::from_coo(coo))
}

/// Reads a Matrix Market file from disk.
///
/// # Errors
/// See [`read_matrix_market`].
pub fn read_matrix_market_file<P: AsRef<Path>>(path: P) -> Result<CsrMatrix, SparseError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Writes a matrix in `coordinate real general` format (all stored entries,
/// 1-based indices).
///
/// # Errors
/// Returns [`SparseError::Io`] on write failure.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, writer: W) -> Result<(), SparseError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by esrcg-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes a matrix to a Matrix Market file on disk.
///
/// # Errors
/// See [`write_matrix_market`].
pub fn write_matrix_market_file<P: AsRef<Path>>(a: &CsrMatrix, path: P) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(a, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_general_real() {
        let input = "%%MatrixMarket matrix coordinate real general\n\
                     % a comment\n\
                     2 3 3\n\
                     1 1 1.5\n\
                     2 3 -2.0\n\
                     1 2 4.0\n";
        let a = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.get(0, 0), 1.5);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 2), -2.0);
    }

    #[test]
    fn reads_symmetric_and_mirrors() {
        let input = "%%MatrixMarket matrix coordinate real symmetric\n\
                     3 3 3\n\
                     1 1 2.0\n\
                     2 1 -1.0\n\
                     3 3 5.0\n";
        let a = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 4);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn reads_pattern() {
        let input = "%%MatrixMarket matrix coordinate pattern general\n\
                     2 2 2\n\
                     1 1\n\
                     2 2\n";
        let a = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        let input = "%%MatrixMarket matrix array real general\n1 1\n1.0\n";
        assert!(read_matrix_market(input.as_bytes()).is_err());
        let input = "not a header\n";
        assert!(read_matrix_market(input.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let input = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let err = read_matrix_market(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 2 entries"));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let input = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(input.as_bytes()).is_err());
    }

    #[test]
    fn round_trips_through_write() {
        let a = CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0]);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_round_trip() {
        let a = CsrMatrix::identity(4);
        let dir = std::env::temp_dir().join("esrcg_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("id4.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let b = read_matrix_market_file(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_case_insensitive() {
        let input = "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 3.0\n";
        let a = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 3.0);
    }
}
