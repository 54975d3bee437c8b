//! The SpMV storage-format switch and the per-problem conversion cache.
//!
//! [`SpmvFormat`] selects how the solver's SpMV hot loops store the matrix:
//! plain CSR (the reference), SELL-C-σ ([`crate::sellcs`]), or BCSR
//! ([`crate::bcsr`]). All formats produce **bitwise identical** results —
//! each output row is the same sequential ascending-column accumulation,
//! and padded storage is guarded, never multiplied — so the format knob is
//! purely a performance decision, exactly like the thread count.
//!
//! Conversion is not free (one pass over the matrix per piece), so it
//! happens **once per problem**: [`FormatCache::build`] converts every
//! rank's interior and boundary row lists — the two pieces the split-phase
//! distributed SpMV multiplies — next to the `RowSplitSet`/`CommPlan` it
//! mirrors, and the solver shares the cache across ranks through the
//! `SharedProblem`. That outer SpMV is where formats stop: recovery runs
//! the CSR operators it extracts per failure domain, whatever the format.

use crate::bcsr::{BcsrMatrix, MAX_BCSR_DIM};
use crate::csr::CsrMatrix;
use crate::partition::Partition;
use crate::sellcs::{SellMatrix, MAX_SELL_C};
use crate::split::{RowRuns, RowSplitSet};

/// Which storage format the SpMV hot loops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpmvFormat {
    /// Compressed sparse row — the scalar reference layout.
    #[default]
    Csr,
    /// SELL-C-σ sliced ELLPACK: chunks of `c` lanes, rows sorted by
    /// descending length within σ-row windows.
    Sellcs {
        /// Chunk height (lanes per chunk), `1..=MAX_SELL_C`.
        c: usize,
        /// Sort-window size in rows (rounded up to a multiple of `c`).
        sigma: usize,
    },
    /// BCSR: dense `r × c` tiles on aligned block columns with occupancy
    /// masks.
    Bcsr {
        /// Block height, `1..=MAX_BCSR_DIM`.
        r: usize,
        /// Block width, `1..=MAX_BCSR_DIM`.
        c: usize,
    },
}

impl SpmvFormat {
    /// The SELL-C-σ default used by benches and examples: `C = 8`, σ = 64.
    pub fn sell() -> Self {
        SpmvFormat::Sellcs { c: 8, sigma: 64 }
    }

    /// The BCSR default for 3-DOF elasticity operators: 3×3 tiles.
    pub fn bcsr3() -> Self {
        SpmvFormat::Bcsr { r: 3, c: 3 }
    }

    /// Short report name: `csr`, `sell-8-64`, `bcsr-3x3`.
    pub fn name(&self) -> String {
        match *self {
            SpmvFormat::Csr => "csr".to_string(),
            SpmvFormat::Sellcs { c, sigma } => format!("sell-{c}-{sigma}"),
            SpmvFormat::Bcsr { r, c } => format!("bcsr-{r}x{c}"),
        }
    }

    /// Parses the [`SpmvFormat::name`] syntax back into a format.
    ///
    /// # Errors
    /// Returns a message naming the accepted forms on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || {
            format!("unknown SpMV format '{s}' (expected csr, sell-<C>-<sigma>, or bcsr-<R>x<C>)")
        };
        if s == "csr" {
            return Ok(SpmvFormat::Csr);
        }
        if let Some(rest) = s.strip_prefix("sell-") {
            let (c, sigma) = rest.split_once('-').ok_or_else(err)?;
            let fmt = SpmvFormat::Sellcs {
                c: c.parse().map_err(|_| err())?,
                sigma: sigma.parse().map_err(|_| err())?,
            };
            fmt.validate()?;
            return Ok(fmt);
        }
        if let Some(rest) = s.strip_prefix("bcsr-") {
            let (r, c) = rest.split_once('x').ok_or_else(err)?;
            let fmt = SpmvFormat::Bcsr {
                r: r.parse().map_err(|_| err())?,
                c: c.parse().map_err(|_| err())?,
            };
            fmt.validate()?;
            return Ok(fmt);
        }
        Err(err())
    }

    /// Validates the format parameters.
    ///
    /// # Errors
    /// Returns the constraint violated (zero or oversized dimensions).
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SpmvFormat::Csr => Ok(()),
            SpmvFormat::Sellcs { c, sigma } => {
                if !(1..=MAX_SELL_C).contains(&c) {
                    return Err(format!("sell: C must be in 1..={MAX_SELL_C}, got {c}"));
                }
                if sigma == 0 {
                    return Err("sell: sigma must be positive".into());
                }
                Ok(())
            }
            SpmvFormat::Bcsr { r, c } => {
                if !(1..=MAX_BCSR_DIM).contains(&r) || !(1..=MAX_BCSR_DIM).contains(&c) {
                    return Err(format!(
                        "bcsr: block dims must be in 1..={MAX_BCSR_DIM}, got {r}x{c}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// `true` for the plain-CSR reference (no conversion, no cache).
    pub fn is_csr(&self) -> bool {
        matches!(self, SpmvFormat::Csr)
    }
}

/// A converted row-list piece in whichever non-CSR format is selected.
#[derive(Debug, Clone)]
pub enum FormatMatrix {
    /// SELL-C-σ storage.
    Sell(SellMatrix),
    /// Masked-block BCSR storage.
    Bcsr(BcsrMatrix),
}

impl FormatMatrix {
    /// Converts the listed rows of `a` (`out[i]` = output position of
    /// `rows[i]`). Returns `None` for [`SpmvFormat::Csr`] — CSR needs no
    /// conversion.
    ///
    /// # Panics
    /// Panics on invalid format parameters (validate the format first) or
    /// a non-increasing `out` list.
    pub(crate) fn from_rows(
        a: &CsrMatrix,
        rows: &[usize],
        out: &[usize],
        format: SpmvFormat,
    ) -> Option<Self> {
        match format {
            SpmvFormat::Csr => None,
            SpmvFormat::Sellcs { c, sigma } => Some(FormatMatrix::Sell(SellMatrix::from_rows(
                a, rows, out, c, sigma,
            ))),
            SpmvFormat::Bcsr { r, c } => Some(FormatMatrix::Bcsr(BcsrMatrix::from_rows(
                a, rows, out, r, c,
            ))),
        }
    }

    /// Converts a whole matrix (output position = row index).
    pub fn from_csr(a: &CsrMatrix, format: SpmvFormat) -> Option<Self> {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        Self::from_rows(a, &rows, &rows, format)
    }

    /// Stored (structural) entries.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        match self {
            FormatMatrix::Sell(m) => m.nnz(),
            FormatMatrix::Bcsr(m) => m.nnz(),
        }
    }

    /// Number of columns of the source matrix.
    pub(crate) fn ncols(&self) -> usize {
        match self {
            FormatMatrix::Sell(m) => m.ncols(),
            FormatMatrix::Bcsr(m) => m.ncols(),
        }
    }
}

/// One rank's converted SpMV pieces: the interior/boundary row lists of
/// the split-phase schedule, which together cover the owned range exactly
/// once. Output positions are local (`row - range.start`) in both, matching
/// what the CSR kernels write.
#[derive(Debug, Clone)]
pub struct RankFormatPieces {
    /// The interior rows (computable while the halo is in flight).
    pub interior: FormatMatrix,
    /// The boundary rows (need received halo entries).
    pub boundary: FormatMatrix,
}

/// Per-rank converted matrices for one (problem, partition, format) — the
/// cached companion of the `RowSplitSet`, built once per problem and
/// shared by every rank. See the module docs for the data flow.
#[derive(Debug, Clone)]
pub struct FormatCache {
    format: SpmvFormat,
    per_rank: Vec<RankFormatPieces>,
}

impl FormatCache {
    /// Converts every rank's pieces of `a` under `partition`, using the
    /// interior/boundary classification already cached in `splits`.
    /// Returns `None` for [`SpmvFormat::Csr`].
    ///
    /// # Panics
    /// Panics on invalid format parameters or a partition/split not
    /// covering `a`.
    pub fn build(
        a: &CsrMatrix,
        partition: &Partition,
        splits: &RowSplitSet,
        format: SpmvFormat,
    ) -> Option<Self> {
        if format.is_csr() {
            return None;
        }
        assert_eq!(partition.n(), a.nrows(), "format cache: partition size");
        assert_eq!(
            splits.n_ranks(),
            partition.n_ranks(),
            "format cache: splits"
        );
        let per_rank = partition
            .iter()
            .map(|(rank, range)| {
                let split = splits.of(rank);
                // The converters take explicit row lists; expand the runs
                // once here, at conversion time.
                let piece = |runs: &RowRuns| {
                    let rows = runs.to_vec();
                    let out: Vec<usize> = rows.iter().map(|&r| r - range.start).collect();
                    FormatMatrix::from_rows(a, &rows, &out, format).expect("non-CSR format")
                };
                RankFormatPieces {
                    interior: piece(split.interior()),
                    boundary: piece(split.boundary()),
                }
            })
            .collect();
        Some(FormatCache { format, per_rank })
    }

    /// The format every piece is stored in.
    pub fn format(&self) -> SpmvFormat {
        self.format
    }

    /// Number of ranks covered.
    #[cfg(test)]
    pub(crate) fn n_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// The converted pieces of `rank`.
    pub fn of(&self, rank: usize) -> &RankFormatPieces {
        &self.per_rank[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::KernelBackend;
    use crate::gen::poisson2d;

    #[test]
    fn names_round_trip_through_parse() {
        for fmt in [
            SpmvFormat::Csr,
            SpmvFormat::sell(),
            SpmvFormat::bcsr3(),
            SpmvFormat::Sellcs { c: 4, sigma: 128 },
            SpmvFormat::Bcsr { r: 2, c: 4 },
        ] {
            assert_eq!(SpmvFormat::parse(&fmt.name()).unwrap(), fmt);
        }
        assert!(SpmvFormat::parse("ellpack").is_err());
        assert!(SpmvFormat::parse("sell-0-4").is_err());
        assert!(SpmvFormat::parse("bcsr-9x9").is_err());
        assert!(SpmvFormat::parse("bcsr-3").is_err());
        assert_eq!(SpmvFormat::default(), SpmvFormat::Csr);
    }

    #[test]
    fn validate_bounds() {
        assert!(SpmvFormat::Csr.validate().is_ok());
        assert!(SpmvFormat::Sellcs { c: 17, sigma: 1 }.validate().is_err());
        assert!(SpmvFormat::Sellcs { c: 8, sigma: 0 }.validate().is_err());
        assert!(SpmvFormat::Bcsr { r: 0, c: 2 }.validate().is_err());
        assert!(SpmvFormat::Bcsr { r: 8, c: 8 }.validate().is_ok());
    }

    #[test]
    fn cache_pieces_reproduce_split_phase_bitwise() {
        let a = poisson2d(14, 11);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let part = Partition::balanced(n, 3);
        let splits = RowSplitSet::build(&a, &part);
        let be = KernelBackend::Sequential;
        for fmt in [SpmvFormat::sell(), SpmvFormat::bcsr3()] {
            let cache = FormatCache::build(&a, &part, &splits, fmt).unwrap();
            assert_eq!(cache.n_ranks(), 3);
            assert_eq!(cache.format(), fmt);
            for (rank, range) in part.iter() {
                let mut reference = vec![0.0; range.len()];
                be.spmv_rows_into(&a, range.clone(), &x, &mut reference);
                let pieces = cache.of(rank);
                // Interior-then-boundary covers the owned rows exactly.
                let mut y = vec![f64::NAN; range.len()];
                be.spmv_fmt_into(&pieces.interior, &x, &mut y);
                be.spmv_fmt_into(&pieces.boundary, &x, &mut y);
                assert_eq!(y, reference, "split, rank {rank}, {}", fmt.name());
            }
        }
        assert!(FormatCache::build(&a, &part, &splits, SpmvFormat::Csr).is_none());
    }
}
