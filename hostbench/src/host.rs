//! Host-state readings taken beside every run. They explain why two
//! sets of runs disagree; they never rescale a reported metric.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (Linux `USER_HZ`, fixed at 100 on the supported
/// platforms).
const USER_HZ: f64 = 100.0;

/// CPU time and fault counters of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

impl Usage {
    /// Reads `/proc/self/stat`.
    ///
    /// # Errors
    ///
    /// Fails when the file is missing or not in the Linux layout.
    pub fn now() -> Result<Usage, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // Field 2 (the command name) may hold spaces; count from the
        // closing parenthesis, after which field 3 comes first.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("unexpected /proc/self/stat layout")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Result<u64, String> {
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("missing field {n} in /proc/self/stat"))
        };
        Ok(Usage {
            minflt: field(10)?,
            user_s: field(14)? as f64 / USER_HZ,
            sys_s: field(15)? as f64 / USER_HZ,
        })
    }

    /// Counters accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    /// Share of the CPU time spent in the kernel (0 with no CPU time).
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Milliseconds one fixed integer loop takes. It calls no simulator
/// code, so a change of this number between runs is the host's, not
/// the program's.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for i in 0..black_box(4_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_monotone() {
        let a = Usage::now().expect("linux /proc");
        black_box(probe_ms());
        let b = Usage::now().expect("linux /proc");
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
