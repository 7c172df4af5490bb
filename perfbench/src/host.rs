//! The host record printed with every report, and peak memory.

use std::fs;

#[derive(Debug)]
pub struct Host {
    /// Cores this process may run on (`available_parallelism`).
    pub nproc: usize,
    /// Processors the kernel lists in `/proc/cpuinfo`.
    pub cpus_listed: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |line: &str, key: &str| {
            line.split_once(':')
                .filter(|(k, _)| k.trim() == key)
                .map(|(_, v)| v.trim().to_string())
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpus_listed: cpuinfo
                .lines()
                .filter(|l| field(l, "processor").is_some())
                .count(),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| field(l, "model name"))
                .unwrap_or_else(|| "unknown".to_string()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Whether `threads` oversubscribes the cores this process can use.
    pub fn oversubscribed(&self, threads: usize) -> bool {
        threads > self.nproc || (self.cpus_listed > 0 && threads > self.cpus_listed)
    }

    pub fn json(&self, threads: usize) -> String {
        format!(
            "{{\"nproc\": {}, \"cpus_listed\": {}, \"cpu_model\": {:?}, \"kernel\": {:?}, \
             \"commit\": {:?}, \"threads\": {}, \"oversubscribed\": {}}}",
            self.nproc,
            self.cpus_listed,
            self.cpu_model,
            self.kernel,
            self.commit,
            threads,
            self.oversubscribed(threads)
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in an exported source tree).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => fs::read_to_string(format!(".git/{name}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(name).map(|hash| hash.trim().to_string()))
            }),
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Jiffies since boot over all CPUs: `(total, steal)`, where steal is
/// time the hypervisor ran something else while a vCPU wanted to run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}
