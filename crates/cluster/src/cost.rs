//! The α–β–γ communication/computation cost model.
//!
//! Converts counted events (messages, bytes, flops) into modeled seconds.
//! The defaults are calibrated to a commodity cluster — the absolute values
//! are not meant to match the paper's VSC3 testbed, only to put computation
//! and communication in a realistic ratio so that overhead *shapes* (who
//! wins, how overheads scale with φ and T) are preserved. The campaign
//! harness sweeps the four named presets of [`CostModel::presets`]; the
//! three fields stay public for anything else.

/// Cost model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (the "α" of the α–β model).
    pub alpha: f64,
    /// Seconds per byte transferred (1/β, the reciprocal bandwidth).
    pub seconds_per_byte: f64,
    /// Seconds per floating-point operation (1/γ, the reciprocal
    /// effective flop rate for sparse kernels).
    pub seconds_per_flop: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // 2 µs MPI latency, 1 GiB/s effective point-to-point bandwidth,
            // 2 GFLOP/s effective sparse-kernel compute rate per node.
            alpha: 2.0e-6,
            seconds_per_byte: 1.0 / (1024.0 * 1024.0 * 1024.0),
            seconds_per_flop: 1.0 / 2.0e9,
        }
    }
}

impl CostModel {
    /// A model where communication is free — isolates compute effects.
    pub fn compute_only(seconds_per_flop: f64) -> Self {
        CostModel {
            alpha: 0.0,
            seconds_per_byte: 0.0,
            seconds_per_flop,
        }
    }

    /// A model where computation is free — isolates communication effects.
    pub fn comm_only(alpha: f64, seconds_per_byte: f64) -> Self {
        CostModel {
            alpha,
            seconds_per_byte,
            seconds_per_flop: 0.0,
        }
    }

    /// A latency-dominated network: per-message latency 250× the default
    /// (500 µs — think congested fabric or wide-area links) with the
    /// default bandwidth and compute rate. Global reductions pay the tree
    /// latency on every stage, so this is the regime where
    /// communication-avoiding recurrences (s-step CG) pull ahead of
    /// per-iteration pipelining.
    pub fn latency_dominated() -> Self {
        CostModel {
            alpha: 5.0e-4,
            ..CostModel::default()
        }
    }

    /// The named presets benches and campaigns can sweep, in canonical
    /// order: `default`, `latency-dominated`, `compute-only`, `comm-only`
    /// (the parameterized constructors evaluated at the default rates).
    pub(crate) fn presets() -> [CostModel; 4] {
        let d = CostModel::default();
        [
            d,
            CostModel::latency_dominated(),
            CostModel::compute_only(d.seconds_per_flop),
            CostModel::comm_only(d.alpha, d.seconds_per_byte),
        ]
    }

    /// The preset name of this model, or `custom` when the parameters
    /// match no preset. Stable — report schemas key on these strings.
    pub fn name(&self) -> &'static str {
        let d = CostModel::default();
        if *self == d {
            "default"
        } else if *self == CostModel::latency_dominated() {
            "latency-dominated"
        } else if *self == CostModel::compute_only(d.seconds_per_flop) {
            "compute-only"
        } else if *self == CostModel::comm_only(d.alpha, d.seconds_per_byte) {
            "comm-only"
        } else {
            "custom"
        }
    }

    /// Parses a preset name (the inverse of [`CostModel::name`]).
    ///
    /// # Errors
    /// Returns a human-readable message for unknown names.
    pub fn parse(name: &str) -> Result<CostModel, String> {
        CostModel::presets()
            .into_iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown cost model '{name}' (expected one of: default, \
                     latency-dominated, compute-only, comm-only)"
                )
            })
    }

    /// Time for a message of `bytes` payload to cross the network after
    /// injection.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 * self.seconds_per_byte
    }

    /// Sender-side injection overhead per message.
    #[inline]
    pub(crate) fn injection_time(&self) -> f64 {
        self.alpha
    }

    /// Time to execute `flops` floating-point operations.
    #[inline]
    pub(crate) fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 * self.seconds_per_flop
    }

    /// Modeled duration of an *overlapped* (split-phase) stage: a transfer
    /// of `bytes` hidden under `flops` of independent compute costs the
    /// maximum of the two, not their sum. The logical clock realizes this
    /// naturally — receives synchronize to an arrival time
    /// (`advance_to`) instead of adding a wait — and the cluster tests
    /// check the clock against this closed form
    /// (`overlapped_stage_cost_matches_the_closed_form` in `spmd.rs`).
    #[inline]
    #[cfg(test)]
    pub(crate) fn overlapped_time(&self, bytes: usize, flops: u64) -> f64 {
        self.transfer_time(bytes).max(self.compute_time(flops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = CostModel::default();
        assert!(c.alpha > 0.0);
        assert!(c.transfer_time(0) == c.alpha);
        assert!(c.transfer_time(1 << 30) > 0.9); // ~1 GiB at ~1 GiB/s
        assert!((c.compute_time(2_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_only_zeroes_comm() {
        let c = CostModel::compute_only(1e-9);
        assert_eq!(c.transfer_time(1000), 0.0);
        assert_eq!(c.injection_time(), 0.0);
        assert!(c.compute_time(10) > 0.0);
    }

    #[test]
    fn comm_only_zeroes_compute() {
        let c = CostModel::comm_only(1e-6, 1e-9);
        assert_eq!(c.compute_time(1_000_000), 0.0);
        assert!(c.transfer_time(8) > 1e-6);
    }

    #[test]
    fn preset_names_round_trip() {
        for preset in CostModel::presets() {
            assert_ne!(preset.name(), "custom");
            assert_eq!(CostModel::parse(preset.name()), Ok(preset));
        }
        assert_eq!(CostModel::default().name(), "default");
        assert_eq!(CostModel::latency_dominated().name(), "latency-dominated");
        assert!(CostModel::parse("warp-drive").is_err());
        let custom = CostModel {
            alpha: 1.0,
            ..CostModel::default()
        };
        assert_eq!(custom.name(), "custom");
    }

    #[test]
    fn latency_dominated_raises_only_alpha() {
        let (d, l) = (CostModel::default(), CostModel::latency_dominated());
        assert!(l.alpha > 100.0 * d.alpha);
        assert_eq!(l.seconds_per_byte, d.seconds_per_byte);
        assert_eq!(l.seconds_per_flop, d.seconds_per_flop);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let c = CostModel::default();
        assert!(c.transfer_time(2000) > c.transfer_time(1000));
    }

    #[test]
    fn overlapped_time_is_max_not_sum() {
        let c = CostModel::default();
        // Compute-dominated: the transfer hides entirely.
        let big_compute = 10_000_000u64;
        assert_eq!(
            c.overlapped_time(100, big_compute),
            c.compute_time(big_compute)
        );
        // Communication-dominated: compute hides under the transfer.
        assert_eq!(c.overlapped_time(1 << 28, 10), c.transfer_time(1 << 28));
        // Always at most the blocking sum, at least each component.
        let (b, f) = (4096usize, 50_000u64);
        let t = c.overlapped_time(b, f);
        assert!(t <= c.transfer_time(b) + c.compute_time(f));
        assert!(t >= c.transfer_time(b) && t >= c.compute_time(f));
    }
}
