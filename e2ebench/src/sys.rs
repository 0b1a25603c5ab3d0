//! Process-level measurements read from `/proc/self` (Linux).

use std::path::PathBuf;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric tick field") as f64;
    (tick(11) + tick(12)) / USER_HZ
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// Peak resident set size of the process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Bytes the process has passed to `write`-family calls so far (`wchar`).
pub fn bytes_written() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("wchar in /proc/self/io")
}

/// A scratch directory under the working directory, unique to this
/// process, removed again on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.e2ebench/<tag>-<pid>` under the current directory.
    pub fn new(tag: &str) -> Self {
        let path = PathBuf::from(".e2ebench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create benchmark work directory");
        Self { path }
    }

    /// The directory.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_monotonic() {
        let c0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= c0);
        assert!(peak_rss_mb() > 0.0);
        let w0 = bytes_written();
        let dir = WorkDir::new("sys-test");
        std::fs::write(dir.path().join("f"), vec![0u8; 4096]).unwrap();
        assert!(bytes_written() >= w0 + 4096);
    }
}
