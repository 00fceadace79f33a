//! Process and host counters read from `/proc` (peak resident set, this
//! process's CPU time, the host's steal time), call timing in wall and CPU
//! time, and the CPU affinity the serving workloads place their threads
//! with.

use std::fs;
use std::io;
use std::time::Instant;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| invalid("no VmHWM in /proc/self/status".into()))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid(format!("bad VmHWM line {line:?}")))?;
    Ok(kib / 1024.0)
}

/// User and system CPU seconds this process has used so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

pub fn cpu_times() -> io::Result<CpuTimes> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| invalid("bad /proc/self/stat".into()))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .map(|t| t / USER_HZ)
            .ok_or_else(|| invalid(format!("no field {} in /proc/self/stat", i + 3)))
    };
    Ok(CpuTimes {
        user_s: tick(11)?,
        sys_s: tick(12)?,
    })
}

/// Host-wide CPU ticks: steal and total, from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub steal: u64,
    pub total: u64,
}

pub fn host_ticks() -> io::Result<HostTicks> {
    let stat = fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or_else(|| invalid("no cpu line in /proc/stat".into()))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    // time is already inside user time, so only the first eight add up.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    Ok(HostTicks {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
    })
}

/// CPU time through the C library's `clock_gettime`. The kernel counts a
/// thread's CPU time only while the thread runs, so it leaves out what the
/// hypervisor steals from the vCPUs and the time the thread waits for a CPU.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Which threads a CPU clock sums.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// Every thread of this process, those that have ended included.
    Process,
    /// The calling thread.
    Thread,
}

/// Seconds of CPU time `clock` has counted so far.
pub fn cpu_s(clock: CpuClock) -> f64 {
    let id = match clock {
        CpuClock::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
        CpuClock::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec; both clock ids exist on Linux.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One timed call: the instants at its two ends, and the CPU time the whole
/// process used in between.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub start: Instant,
    pub end: Instant,
    pub cpu_s: f64,
}

impl Lap {
    /// Runs and times `f`.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Lap) {
        let cpu0 = cpu_s(CpuClock::Process);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let cpu_s = cpu_s(CpuClock::Process) - cpu0;
        (out, Lap { start, end, cpu_s })
    }

    pub fn wall_s(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// CPU affinity through the C library (`sched_getaffinity` and
/// `sched_setaffinity` on a mask of up to 1,024 CPUs).
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, in ascending order.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err(invalid("sched_getaffinity returned no CPU".into()));
    }
    Ok(cpus)
}

/// Restricts thread `tid` (0 for the calling thread) to `cpus`. Threads it
/// starts afterwards inherit the restriction.
pub fn pin_thread(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        let word = mask
            .get_mut(c / 64)
            .ok_or_else(|| invalid(format!("CPU {c} is beyond the affinity mask")))?;
        *word |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Thread ids of this process whose name starts with `prefix` (the kernel
/// keeps the first 15 bytes of a thread's name).
pub fn threads_named(prefix: &str) -> io::Result<Vec<i32>> {
    let prefix = &prefix[..prefix.len().min(15)];
    let mut tids = Vec::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Ok(comm) = fs::read_to_string(entry.path().join("comm")) else {
            continue; // the thread has exited since the listing
        };
        if comm.trim_end().starts_with(prefix) {
            if let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) {
                tids.push(tid);
            }
        }
    }
    tids.sort_unstable();
    Ok(tids)
}

/// Process and host counters at one instant, so a window is the difference
/// of two of them.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub cpu: CpuTimes,
    pub host: HostTicks,
}

impl Probe {
    pub fn now() -> io::Result<Self> {
        Ok(Self {
            cpu: cpu_times()?,
            host: host_ticks()?,
        })
    }
}

/// What a window cost: this process's CPU seconds and the host's steal share.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCost {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub steal_frac: f64,
}

impl WindowCost {
    pub fn between(a: &Probe, b: &Probe) -> Self {
        let total = b.host.total.saturating_sub(a.host.total);
        Self {
            cpu_user_s: b.cpu.user_s - a.cpu.user_s,
            cpu_sys_s: b.cpu.sys_s - a.cpu.sys_s,
            steal_frac: if total == 0 {
                0.0
            } else {
                b.host.steal.saturating_sub(a.host.steal) as f64 / total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_monotone() {
        let a = Probe::now().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = Probe::now().unwrap();
        let w = WindowCost::between(&a, &b);
        assert!(w.cpu_user_s >= 0.0 && w.cpu_sys_s >= 0.0);
        assert!((0.0..=1.0).contains(&w.steal_frac));
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn lap_times_the_call_in_wall_and_cpu_time() {
        let t0 = cpu_s(CpuClock::Thread);
        let (v, lap) = Lap::time(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(v, 7);
        assert!(lap.wall_s() >= 0.02 && lap.cpu_s >= 0.0);
        // Sleeping takes wall time and next to no CPU time.
        let slept = cpu_s(CpuClock::Thread) - t0;
        assert!(slept < 0.01, "{slept}");
        // CPU time spent on another thread counts for the process, and not
        // for the calling thread.
        let t0 = cpu_s(CpuClock::Thread);
        let ((), lap) = Lap::time(|| {
            std::thread::spawn(|| {
                let mut x = 0u64;
                for i in 0..50_000_000u64 {
                    x = x.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(x);
            })
            .join()
            .unwrap()
        });
        let mine = cpu_s(CpuClock::Thread) - t0;
        assert!(
            lap.cpu_s > 0.005 && mine < lap.cpu_s,
            "{} {mine}",
            lap.cpu_s
        );
        // Reversed ends read as zero wall time, not as a negative one.
        let back = Lap {
            start: lap.end,
            end: lap.start,
            cpu_s: 0.0,
        };
        assert_eq!(back.wall_s(), 0.0);
    }

    #[test]
    fn pinning_confines_a_thread_and_what_it_starts() {
        let all = allowed_cpus().unwrap();
        let home = all[0];
        std::thread::Builder::new()
            .name("perfbench-pin-test".into())
            .spawn(move || {
                pin_thread(0, &[home]).unwrap();
                assert_eq!(allowed_cpus().unwrap(), vec![home]);
                let child = std::thread::spawn(|| allowed_cpus().unwrap())
                    .join()
                    .unwrap();
                assert_eq!(child, vec![home]);
                let me = threads_named("perfbench-pin-test").unwrap();
                assert_eq!(me.len(), 1);
                // Widened again by id, as the serving workloads widen the
                // server's engine thread.
                pin_thread(me[0], &all).unwrap();
                assert_eq!(allowed_cpus().unwrap(), all);
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(pin_thread(0, &[usize::MAX / 2]).is_err());
    }
}
