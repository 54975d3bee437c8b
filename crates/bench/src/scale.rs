//! Experiment scale presets.
//!
//! The paper runs n ≈ 9.2·10⁵ matrices on 128 cluster nodes; this
//! simulation defaults to n ≈ 3.7·10⁴ on 64 simulated ranks, which
//! reproduces the table *shapes* in minutes on a laptop. `large` gets
//! closer to the paper's C/T ratios at the cost of longer runs; `small`
//! (16 ranks) is the scale of the tracked `BENCH_paper_small/` oracle.

use esrcg_core::driver::MatrixSource;

use crate::grid::TableSpec;

/// A scale preset: matrix sizes, rank count, repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (about five seconds for every artifact on two
    /// cores).
    Small,
    /// Default laptop scale.
    Default,
    /// Closer to the paper's iteration counts; about seven minutes per
    /// table on two cores.
    Large,
}

impl Scale {
    /// Parses `small` / `default` / `large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The grid `which` — `emilia` (the `Emilia_923` stand-in, labelled
    /// `emilia-like`) or `audikw` (`audikw-like`) — at this scale: its
    /// ranks, intervals, φ values and repetitions, RHS seed 1, progress on.
    pub fn table_spec(self, which: &str) -> TableSpec {
        let (label, matrix) = match which {
            "emilia" => ("emilia-like", self.emilia()),
            _ => ("audikw-like", self.audikw()),
        };
        TableSpec {
            label: label.to_string(),
            matrix,
            n_ranks: self.n_ranks(),
            t_values: self.t_values(),
            phi_values: self.phi_values(),
            reps: self.reps(),
            seed: 1,
            progress: true,
        }
    }

    /// The `Emilia_923` stand-in at this scale (Tables 2, 4; Fig. 2).
    fn emilia(&self) -> MatrixSource {
        match self {
            Scale::Small => MatrixSource::EmiliaLike {
                nx: 8,
                ny: 8,
                nz: 96,
            },
            Scale::Default => MatrixSource::EmiliaLike {
                nx: 12,
                ny: 12,
                nz: 256,
            },
            Scale::Large => MatrixSource::EmiliaLike {
                nx: 16,
                ny: 16,
                nz: 512,
            },
        }
    }

    /// The `audikw_1` stand-in at this scale (Tables 3, 4; Fig. 3).
    fn audikw(&self) -> MatrixSource {
        match self {
            Scale::Small => MatrixSource::AudikwLike {
                nx: 4,
                ny: 4,
                nz: 96,
            },
            Scale::Default => MatrixSource::AudikwLike {
                nx: 6,
                ny: 6,
                nz: 256,
            },
            Scale::Large => MatrixSource::AudikwLike {
                nx: 8,
                ny: 8,
                nz: 512,
            },
        }
    }

    /// Simulated cluster size (the paper uses 128 nodes; 64 keeps the
    /// φ = 8 failure block a comparably small fraction of the machine).
    fn n_ranks(&self) -> usize {
        match self {
            Scale::Small => 16,
            Scale::Default => 64,
            Scale::Large => 64,
        }
    }

    /// Repetitions per cell. The paper repeats ≥ 5 times against machine
    /// noise; our modeled time is deterministic, so repetitions only vary
    /// the right-hand-side seed and one repetition is already meaningful.
    fn reps(&self) -> usize {
        match self {
            Scale::Small | Scale::Default => 1,
            Scale::Large => 3,
        }
    }

    /// Checkpoint intervals to test: the paper's {1 (=ESR), 20, 50, 100}.
    /// At small scale C is short, so the largest interval is dropped.
    fn t_values(&self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1, 10, 20],
            _ => vec![1, 20, 50, 100],
        }
    }

    /// Redundancy levels φ to test (the paper's {1, 3, 8}).
    fn phi_values(&self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1, 3],
            _ => vec![1, 3, 8],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn presets_are_valid() {
        for s in [Scale::Small, Scale::Default, Scale::Large] {
            assert!(s.n_ranks() > *s.phi_values().iter().max().unwrap());
            assert!(!s.t_values().is_empty());
            assert!(s.reps() >= 1);
            assert!(s.emilia().build().is_ok());
        }
    }
}
