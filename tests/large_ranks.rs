//! A solve pair at a rank count far beyond the host's cores: 1 024 ranks of
//! 16 rows each. The modeled clock is a function of the protocol alone, so
//! its bits are pinned (recorded on the thread-per-rank runtime, before the
//! coroutine scheduler replaced it); what the host pays for the run is the
//! runtime's business and the benchmark's to measure.
//!
//! The ESRP run costs *exactly* the reference's time since the redundant
//! copies ride the halo (it read `0x3fa13b970348ba7c`, +0.17 %, while they
//! were a second protocol): a rank's halo peers are s ± 1 (one entry) and
//! s ± 8 (its sixteen), the top-ups for s + 1 and s − 1 travel inside the
//! short messages, which still land before the long ones that bound the
//! exchange, and the one for s + 2 stands alone and is drained after the
//! boundary rows.

use esrcg::prelude::*;

fn experiment() -> Experiment {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 128, ny: 128 })
        .n_ranks(1024)
}

#[test]
fn thousand_rank_solve_pair_reproduces_the_recorded_bits() {
    let reference = experiment().run().expect("reference run");
    let esrp = experiment()
        .strategy(Strategy::Esrp { t: 20 })
        .phi(3)
        .run()
        .expect("esrp run");
    for (name, report, bits) in [
        ("reference", &reference, 0x3fa12cf1225920ed_u64),
        ("esrp(20, phi = 3)", &esrp, 0x3fa12cf1225920ed),
    ] {
        assert!(report.converged, "{name}");
        assert_eq!(report.iterations, 200, "{name}");
        assert_eq!(
            report.modeled_time.to_bits(),
            bits,
            "{name}: modeled_time {:#018x}",
            report.modeled_time.to_bits()
        );
    }
}
