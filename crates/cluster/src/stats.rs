//! Per-rank, per-phase instrumentation counters.
//!
//! Every solver activity is attributed to a [`Phase`]; the experiment driver
//! uses the per-phase modeled-time breakdown to populate the paper's
//! "failure-free overhead" and "reconstruction overhead" columns.

use std::fmt;

/// Solver activity phases for cost attribution.
///
/// The recovery phases are what the paper's "reconstruction overhead" column
/// measures: gathering redundant data at the replacement nodes plus the
/// inner solves (ESRP), or fetching checkpoints from buddies (IMCR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Communication-plan construction, initial residual, other one-off setup.
    Setup = 0,
    /// The regular sparse matrix–vector product (halo exchange + local rows).
    SpMV = 1,
    /// Dot-product reductions and convergence checks.
    Reduction = 2,
    /// Preconditioner application.
    Precond = 3,
    /// Vector updates (axpy / copies) in the main loop.
    VecOps = 4,
    /// Redundant-copy work of the ESR/ESRP storage stages that is not part
    /// of an SpMV: the ASpMV top-ups that stand alone (a designated
    /// destination that is no halo peer — sent after the halo, drained
    /// after the boundary rows), the explicit exchanges of the search
    /// direction under the pipelined / s-step recurrences, and the starred
    /// copies (local, no modeled time). A top-up that rides a halo message
    /// is bytes of [`Phase::SpMV`].
    Storage = 5,
    /// IMCR checkpoint traffic to buddy nodes.
    Checkpoint = 6,
    /// Recovery: gathering surviving/redundant data at replacement nodes.
    RecoveryGather = 7,
    /// Recovery: the inner solves of the ESR reconstruction (Alg. 2).
    RecoveryInner = 8,
    /// Recovery: survivors resetting their state, queue purges, rollback.
    RecoveryReset = 9,
    /// Anything else.
    Other = 10,
}

/// Number of phases (length of the per-phase counter arrays).
pub const N_PHASES: usize = 11;

impl Phase {
    /// All phases, in counter-array order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Setup,
        Phase::SpMV,
        Phase::Reduction,
        Phase::Precond,
        Phase::VecOps,
        Phase::Storage,
        Phase::Checkpoint,
        Phase::RecoveryGather,
        Phase::RecoveryInner,
        Phase::RecoveryReset,
        Phase::Other,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::SpMV => "spmv",
            Phase::Reduction => "reduction",
            Phase::Precond => "precond",
            Phase::VecOps => "vecops",
            Phase::Storage => "storage",
            Phase::Checkpoint => "checkpoint",
            Phase::RecoveryGather => "recovery-gather",
            Phase::RecoveryInner => "recovery-inner",
            Phase::RecoveryReset => "recovery-reset",
            Phase::Other => "other",
        }
    }

    /// True for the three recovery phases.
    pub(crate) fn is_recovery(self) -> bool {
        matches!(
            self,
            Phase::RecoveryGather | Phase::RecoveryInner | Phase::RecoveryReset
        )
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters for one rank, split by phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    /// Floating-point operations charged per phase.
    pub flops: [u64; N_PHASES],
    /// Messages sent per phase.
    pub msgs_sent: [u64; N_PHASES],
    /// Payload bytes sent per phase.
    pub bytes_sent: [u64; N_PHASES],
    /// Modeled seconds the rank's logical clock advanced per phase.
    pub modeled_time: [f64; N_PHASES],
    /// Modeled seconds spent blocked in `recv` waiting for a message to
    /// arrive, per phase — a subset of `modeled_time`. This is the wait the
    /// split-phase SpMV hides under interior compute: blocking exchanges
    /// accumulate it, overlapped ones drive it toward zero.
    pub recv_wait: [f64; N_PHASES],
}

impl Default for RankStats {
    fn default() -> Self {
        RankStats {
            flops: [0; N_PHASES],
            msgs_sent: [0; N_PHASES],
            bytes_sent: [0; N_PHASES],
            modeled_time: [0.0; N_PHASES],
            recv_wait: [0.0; N_PHASES],
        }
    }
}

impl RankStats {
    /// Total messages sent over all phases.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Total bytes sent over all phases.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Total modeled time over all phases.
    pub fn total_time(&self) -> f64 {
        self.modeled_time.iter().sum()
    }

    /// Modeled time attributed to one phase (the interval tuner reads the
    /// accumulated `Storage`/`Checkpoint` cost through this).
    pub fn phase_time(&self, phase: Phase) -> f64 {
        self.modeled_time[phase as usize]
    }

    /// Total modeled time spent waiting for message arrival in `recv`,
    /// over all phases.
    pub fn total_recv_wait(&self) -> f64 {
        self.recv_wait.iter().sum()
    }

    /// Element-wise accumulation (for aggregating across ranks).
    pub(crate) fn merge(&mut self, other: &RankStats) {
        for i in 0..N_PHASES {
            self.flops[i] += other.flops[i];
            self.msgs_sent[i] += other.msgs_sent[i];
            self.bytes_sent[i] += other.bytes_sent[i];
            self.modeled_time[i] += other.modeled_time[i];
            self.recv_wait[i] += other.recv_wait[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_phases_have_distinct_indices_and_names() {
        let mut seen = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p as usize));
            assert!(names.insert(p.name()));
            assert!((p as usize) < N_PHASES);
        }
        assert_eq!(seen.len(), N_PHASES);
    }

    #[test]
    fn recovery_classification() {
        assert!(Phase::RecoveryGather.is_recovery());
        assert!(Phase::RecoveryInner.is_recovery());
        assert!(Phase::RecoveryReset.is_recovery());
        assert!(!Phase::SpMV.is_recovery());
    }

    #[test]
    fn totals_and_merge() {
        let mut a = RankStats::default();
        a.flops[Phase::SpMV as usize] = 10;
        a.msgs_sent[Phase::Reduction as usize] = 2;
        a.bytes_sent[Phase::Reduction as usize] = 16;
        a.modeled_time[Phase::RecoveryInner as usize] = 0.5;
        a.modeled_time[Phase::SpMV as usize] = 1.0;
        a.recv_wait[Phase::SpMV as usize] = 0.25;

        assert_eq!(a.total_msgs(), 2);
        assert_eq!(a.total_bytes(), 16);
        assert_eq!(a.phase_time(Phase::SpMV), 1.0);
        assert_eq!(a.phase_time(Phase::Checkpoint), 0.0);
        assert!((a.total_time() - 1.5).abs() < 1e-15);
        assert!((a.total_recv_wait() - 0.25).abs() < 1e-15);

        let mut b = RankStats::default();
        b.flops[Phase::SpMV as usize] = 5;
        b.merge(&a);
        assert_eq!(b.flops[Phase::SpMV as usize], 15);
        assert!((b.total_recv_wait() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Phase::SpMV.to_string(), "spmv");
    }
}
