//! The host header printed with every result: a number from another
//! host, toolchain or revision is not a comparison.

use std::fmt;

/// Where and how a result was measured.
#[derive(Clone, Debug)]
pub struct HostHeader {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Width of the rayon pool the program would use.
    pub rayon_width: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git revision of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl HostHeader {
    /// Probe the current host.
    pub fn probe() -> HostHeader {
        HostHeader {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rayon_width: rayon::current_num_threads(),
            rustc: env!("LEDGER_RUSTC_VERSION"),
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

impl fmt::Display for HostHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host: nproc={} cpu=\"{}\" rayon_width={} rustc=\"{}\" git_rev={}",
            self.nproc, self.cpu_model, self.rayon_width, self.rustc, self.git_rev
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit `HEAD` names, read from `.git` in the working directory
/// (the benchmark runs from the checkout root); no process is spawned.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(r)),
        None => Some(head.to_string()),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
///
/// # Panics
/// If the kernel does not report `VmHWM`: the run cannot measure one of
/// its metrics and must not print a result.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}
