//! Host noise diagnostics: the calling thread's on-CPU time and run-queue
//! wait from `/proc/thread-self/schedstat`.

use std::time::Duration;

/// One schedstat reading.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub on_cpu: Duration,
    /// Time spent runnable but waiting for a CPU.
    pub runq_wait: Duration,
}

impl SchedStat {
    /// Reads the current thread's counters; zeros where the kernel does not
    /// expose them.
    pub fn now() -> SchedStat {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedStat {
            on_cpu: Duration::from_nanos(fields.next().unwrap_or(0)),
            runq_wait: Duration::from_nanos(fields.next().unwrap_or(0)),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu: self.on_cpu.saturating_sub(earlier.on_cpu),
            runq_wait: self.runq_wait.saturating_sub(earlier.runq_wait),
        }
    }
}
