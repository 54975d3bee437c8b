//! Every workload and metric name the harness emits, with unit and
//! direction. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step, and a run refuses to report a set that differs from these
//! tables.
//!
//! Units say which clock a time is on: `s`/`ms`/`us`/`ns` are host time,
//! `model_*` is the simulator's modeled clock (exact: a pure function of
//! the inputs, identical on every host and run).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction, and whether it is exact (a modeled
/// or counted quantity that must repeat bit for bit at a fixed seed).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// True for modeled-clock and counted quantities.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "kernel-bound",
    "rank-bound",
    "paper-grid",
    "recovery-storm",
    "fleet",
];

/// End-to-end metrics: the same five on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    host("wall_s", "s", Lower),
    host("setup_s", "s", Lower),
    host("peak_rss_mb", "MiB", Lower),
    exact("modeled_s", "s", Lower),
    exact("overhead_pct", "%", Lower),
];

/// Per-layer metrics, named by the module they measure.
pub const PER_LAYER: [MetricDef; 72] = [
    // sparse — kernels on the kernel-bound matrix, sequential backend.
    host("sparse.triad_gbps", "GB/s", Higher),
    host("sparse.spmv_csr_gflops", "GFLOP/s", Higher),
    host("sparse.spmv_csr_gbps", "GB/s", Higher),
    host("sparse.spmv_sell_gflops", "GFLOP/s", Higher),
    host("sparse.spmv_bcsr_gflops", "GFLOP/s", Higher),
    host("sparse.spmv_masked_gflops", "GFLOP/s", Higher),
    host("sparse.spmv_par_speedup", "ratio", Higher),
    host("sparse.dot_gflops", "GFLOP/s", Higher),
    host("sparse.axpby_gbps", "GB/s", Higher),
    host("sparse.fused_axpy2_gbps", "GB/s", Higher),
    host("sparse.pool_dispatch_us", "us", Lower),
    host("sparse.gen_s", "s", Lower),
    host("sparse.format_convert_s", "s", Lower),
    // precond
    host("precond.build_s", "s", Lower),
    host("precond.apply_ns_per_row", "ns", Lower),
    // cluster — runtime primitives, then the workload's own pass.
    host("cluster.spawn_us_per_rank", "us", Lower),
    host("cluster.sendrecv_host_us", "us", Lower),
    host("cluster.allreduce_host_us_r16", "us", Lower),
    host("cluster.allreduce_host_us_r128", "us", Lower),
    host("cluster.sys_cpu_share", "ratio", Lower),
    host("cluster.cpu_s_per_pass", "s", Lower),
    host("cluster.ctx_switches_per_rank_iter", "count", Lower),
    exact("cluster.allreduce_modeled_us_r128", "model_us", Lower),
    exact("cluster.recv_wait_share", "ratio", Lower),
    exact("cluster.msgs_per_iter", "count", Lower),
    exact("cluster.bytes_per_iter", "B", Lower),
    exact("cluster.bufpool_hit_rate", "ratio", Higher),
    host("cluster.trace_overhead_pct", "%", Lower),
    // core.dist
    host("dist.plan_build_s", "s", Lower),
    host("dist.halo_host_us_r16", "us", Lower),
    exact("dist.halo_bytes_per_iter", "B", Lower),
    exact("dist.interior_row_share", "ratio", Higher),
    // core.solver
    exact("solver.iterations", "count", Lower),
    exact("solver.modeled_us_per_iter", "model_us", Lower),
    exact("solver.phase_share.spmv", "ratio", Lower),
    exact("solver.phase_share.reduction", "ratio", Lower),
    exact("solver.phase_share.precond", "ratio", Lower),
    exact("solver.phase_share.vecops", "ratio", Lower),
    exact("solver.phase_share.storage", "ratio", Lower),
    exact("solver.phase_share.checkpoint", "ratio", Lower),
    host("solver.host_us_per_rank_iter", "us", Lower),
    exact("solver.pipelined_vs_classic", "ratio", Lower),
    exact("solver.sstep4_vs_classic", "ratio", Lower),
    exact("solver.failure_free_overhead_pct.esr", "%", Lower),
    exact("solver.failure_free_overhead_pct.esrp20", "%", Lower),
    exact("solver.failure_free_overhead_pct.esrp50", "%", Lower),
    exact("solver.failure_free_overhead_pct.imcr20", "%", Lower),
    exact("solver.residual_drift_max", "ratio", Lower),
    // core.recovery — the storm probe, per strategy.
    exact("recovery.modeled_ms_per_event.esr", "model_ms", Lower),
    exact("recovery.modeled_ms_per_event.esrp", "model_ms", Lower),
    exact("recovery.modeled_ms_per_event.imcr", "model_ms", Lower),
    host("recovery.host_ms_per_event.esr", "ms", Lower),
    host("recovery.host_ms_per_event.esrp", "ms", Lower),
    host("recovery.host_ms_per_event.imcr", "ms", Lower),
    exact("recovery.wasted_iters_per_event.esr", "count", Lower),
    exact("recovery.wasted_iters_per_event.esrp", "count", Lower),
    exact("recovery.wasted_iters_per_event.imcr", "count", Lower),
    exact("recovery.inner_iters_per_event", "count", Lower),
    exact("recovery.phase_share.gather", "ratio", Lower),
    exact("recovery.phase_share.inner", "ratio", Lower),
    exact("recovery.phase_share.reset", "ratio", Lower),
    exact("recovery.full_restarts", "count", Lower),
    exact("recovery.modeled_share_pct", "%", Lower),
    // core.driver
    host("driver.assemble_s", "s", Lower),
    // campaign — the reduced probe campaign.
    host("campaign.enumerate_ms", "ms", Lower),
    host("campaign.trace_compile_us", "us", Lower),
    host("campaign.runs_per_s_w1", "1/s", Higher),
    host("campaign.runs_per_s_wN", "1/s", Higher),
    host("campaign.worker_scaling", "ratio", Higher),
    host("campaign.render_ms", "ms", Lower),
    exact("campaign.report_kb", "KiB", Lower),
    exact("campaign.failed_cells", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}: {}",
                m.name,
                m.unit
            );
        }
    }

    /// `(name, unit, better)` of every entry of one `BENCHMARK.json` list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |e: &Value, f: &str| e.get(f).and_then(Value::as_str).unwrap_or("").to_string();
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a '{key}' list"))
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_in_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS, "workloads, in order");

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let in_code: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
                .collect();
            assert_eq!(
                listed(&doc, key),
                in_code,
                "{key}: names, units, directions"
            );
        }

        // Every end-to-end metric carries a bound the contract accepts, and
        // set-up time carries the largest.
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Value::as_str).unwrap().to_string(),
                    e.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let setup = bounds.iter().find(|b| b.0 == "setup_s").unwrap().1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
            assert!(*bound <= setup, "{name} has a larger bound than setup_s");
        }
    }
}
