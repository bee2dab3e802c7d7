//! Host readings from `/proc`: hypervisor steal and resident memory.
//!
//! On a virtual machine the hypervisor runs other guests on the physical
//! cores behind this guest's vCPUs. The time a runnable vCPU waits for
//! them is *steal*. On the host this benchmark was built on, steal took
//! 3–16% of the busy vCPU time and drifted within seconds, so consecutive
//! replays of one seed differed by up to a quarter in wall time. Scaling a
//! replay's wall time by the share of its busy vCPU time that was stolen
//! cut that spread by more than half. On a host without steal the share
//! is 0 and wall time is reported unchanged.

/// Cumulative CPU time of the whole guest, in clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    /// Time vCPUs spent running or stolen: user, nice, system, irq,
    /// softirq and steal.
    busy: u64,
    /// Time runnable vCPUs were stolen by the hypervisor.
    steal: u64,
}

impl CpuTimes {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    pub fn read() -> Result<CpuTimes, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or("/proc/stat has no aggregate cpu line")?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("/proc/stat: {e}"))?;
        if fields.len() < 8 {
            return Err("/proc/stat cpu line has fewer than 8 fields".to_string());
        }
        let [user, nice, system, _idle, _iowait, irq, softirq, steal] =
            <[u64; 8]>::try_from(&fields[..8]).expect("eight fields checked above");
        Ok(CpuTimes {
            busy: user + nice + system + irq + softirq + steal,
            steal,
        })
    }

    /// Share of the busy vCPU time since `earlier` that the hypervisor
    /// stole; 0 when no vCPU was busy.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy == 0 {
            0.0
        } else {
            steal as f64 / busy as f64
        }
    }
}

/// Reads a `/proc/self/status` field, in KiB.
pub fn status_kib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size, so a later reading covers only what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}
