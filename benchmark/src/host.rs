//! What the harness records about the machine and about its own process:
//! host facts for every result file, and process-wide resource counters
//! (CPU time, context switches, peak resident set) sampled around a pass.
//!
//! Linux only, like the container the benchmark runs in: facts come from
//! `/proc` and `/sys`, counters from `getrusage(2)`.

use std::fs;

use crate::json::{Object, Value};

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    /// ru_ixrss … ru_nsignals: eleven fields the harness does not read.
    _unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Process-wide resource counters, covering every thread the process has
/// run so far, including threads that already exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// CPU seconds spent in user mode.
    pub user_s: f64,
    /// CPU seconds spent in the kernel.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size in MiB (`ru_maxrss`, the counter
    /// `/proc/self/status` shows as `VmHWM`).
    pub peak_rss_mib: f64,
}

impl Usage {
    /// Samples the counters now.
    pub fn now() -> Usage {
        const RUSAGE_SELF: i32 = 0;
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage`-shaped value
        // (layout above: 2×timeval + 14×long = 144 bytes on 64-bit Linux),
        // and getrusage writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            user_s: secs(raw.utime),
            sys_s: secs(raw.stime),
            ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
            peak_rss_mib: raw.maxrss_kib as f64 / 1024.0,
        }
    }

    /// Counters accumulated since `earlier` (the peak is not a difference
    /// and keeps its current value).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            peak_rss_mib: self.peak_rss_mib,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor ran someone else while this guest wanted the CPU.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Size of the largest cache `/sys` lists for cpu0, e.g. `"266240K"`.
fn llc_size() -> Option<String> {
    let mut best: Option<(u32, String)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map(|(_, size)| size)
}

fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The host facts of a result file, sampled when the run starts. A fact
/// the machine does not expose is recorded as `null`, not guessed.
pub fn describe() -> Object {
    let text = |v: Option<String>| v.map_or(Value::Null, Value::Str);
    let mut o = Object::new();
    o.set("nproc", nproc())
        .set("cpu_model", text(cpu_model()))
        .set("llc_size", text(llc_size()))
        .set("rustc", env!("BENCHMARK_RUSTC_VERSION"))
        .set(
            "load_average_1m_at_start",
            load_average().map_or(Value::Null, Value::Num),
        );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_counters_advance_with_work() {
        let before = Usage::now();
        let mut acc = 0.0f64;
        for i in 0..20_000_000u64 {
            acc += std::hint::black_box(i as f64).sqrt();
        }
        std::hint::black_box(acc);
        let spent = Usage::now().since(&before);
        assert!(spent.cpu_s() > 0.0, "CPU time advanced: {spent:?}");
        assert!(
            spent.peak_rss_mib > 1.0,
            "a running process has a resident set"
        );
    }

    #[test]
    fn host_description_names_every_fact() {
        let d = describe();
        for key in [
            "nproc",
            "cpu_model",
            "llc_size",
            "rustc",
            "load_average_1m_at_start",
        ] {
            assert!(d.get(key).is_some(), "{key}");
        }
        assert!(d.get("nproc").and_then(Value::as_f64).unwrap() >= 1.0);
    }
}
