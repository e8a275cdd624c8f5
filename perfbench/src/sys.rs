//! Run hygiene and host measurements: a fresh state directory per run
//! (removed at exit), peak-RSS readings, and the host-speed probe.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// A run's private state: `tmp/` (the `TMPDIR` of the benchmark and
/// everything it starts: build dirs, gcc temporaries, dylib scratch
/// copies, sockets) and `state/` (`ACCMOS_CACHE_DIR`: build cache,
/// ledger, job journal). Removed on drop.
#[derive(Debug)]
pub struct RunDir {
    pub root: PathBuf,
}

impl RunDir {
    /// Create `.perfbench/run-<pid>` under the current directory and
    /// point `TMPDIR` and `ACCMOS_CACHE_DIR` into it, so neither the
    /// benchmark nor the program touches `~/.cache/accmos` or `/tmp`.
    /// Call before any thread starts.
    pub fn create() -> std::io::Result<RunDir> {
        let root = std::env::current_dir()?
            .join(".perfbench")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("tmp"))?;
        std::fs::create_dir_all(root.join("state"))?;
        std::env::set_var("TMPDIR", root.join("tmp"));
        std::env::set_var("ACCMOS_CACHE_DIR", root.join("state"));
        Ok(RunDir { root })
    }

    pub fn tmp(&self) -> PathBuf {
        self.root.join("tmp")
    }

    pub fn state(&self) -> PathBuf {
        self.root.join("state")
    }

    /// What the program left behind in the run's temp dir:
    /// (`accmos-build-*` dirs, socket files).
    pub fn leftovers(&self) -> (usize, usize) {
        let mut builds = 0;
        let mut sockets = 0;
        for entry in std::fs::read_dir(self.tmp())
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("accmos-build-") {
                builds += 1;
            }
            if name.ends_with(".sock") {
                sockets += 1;
            }
        }
        (builds, sockets)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Remove `.perfbench` too when this was the last run in it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set, in KiB, of the largest reaped descendant of this
/// process (`RUSAGE_CHILDREN`): gcc's `cc1` for compile-heavy work.
pub fn children_max_rss_kb() -> u64 {
    u64::try_from(children_usage().maxrss).unwrap_or(0)
}

/// `getrusage(RUSAGE_CHILDREN)`; all zeros if the call fails.
fn children_usage() -> RUsage {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the x86_64/aarch64 Linux `struct rusage`
    // layout (two timevals then fourteen longs) and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        usage.maxrss = 0;
        usage.utime = [0; 2];
        usage.stime = [0; 2];
    }
    usage
}

/// A fixed pure-Rust workload (integer mixing over a small table), timed
/// in milliseconds: it does not touch the program, so a change in it
/// between runs is host drift, not a regression.
pub fn host_probe_ms() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut table = [0u64; 256];
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..4_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & 255;
            table[slot] = table[slot].wrapping_add(x ^ i);
        }
        std::hint::black_box(&table);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Poll until `path` exists (a daemon's socket) or `timeout` passes.
pub fn wait_for(path: &Path, timeout: std::time::Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if path.exists() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    false
}
