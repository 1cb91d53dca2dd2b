//! Host-speed calibration.
//!
//! On a shared host the same work runs up to twice as slow for seconds
//! or minutes at a time, while neighbours load the machine, and file
//! syncs slow down the same way while they load the disk. No statistic
//! over a run's own samples removes a slowdown that covers the whole
//! run. So every timed region is bracketed by fixed probes — code of the
//! benchmark's own that no change to the programs under test can move —
//! and its time is scaled by how fast the probes ran around it:
//!
//! ```text
//! reported = cpu × CPU_REF_MS / cpu_probe_ms + blocked × IO_REF_MS / io_probe_ms
//! ```
//!
//! `cpu` is the process's CPU time over the region and `blocked` the
//! rest of its wall time. The probe times are the medians of the
//! [`NEAREST`] probes nearest the region in time, on both sides of it:
//! slow phases can start and end within a second. A workload that never waits on the disk has no
//! I/O probe, and its blocked time is scaled like its CPU time. The
//! result is the time the region would take on the host at the speed at
//! which the probes take their reference times. A change to the programs
//! under test moves `cpu` or `blocked` and not the probes, so it shows
//! in full.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CPU probe's time on the reference host (a quiet 2-vCPU Xeon VM),
/// in ms. It only sets the scale of the reported times.
pub const CPU_REF_MS: f64 = 1.0;
/// The I/O probe's time on the reference host's disk, in ms.
pub const IO_REF_MS: f64 = 1.0;

/// Words of the CPU probe's table: 64 KiB, just past the L1 data cache.
const TABLE_WORDS: usize = 1 << 14;
/// Steps of one CPU probe: about [`CPU_REF_MS`] on the reference host.
const STEPS: u32 = 400_000;
/// Synced renames of one I/O probe: about [`IO_REF_MS`] on the
/// reference host.
const IO_SYNCS: usize = 2;
/// Seconds between probes inside a timed loop.
const EVERY_S: f64 = 0.05;
/// Probes a scale is the median of.
const NEAREST: usize = 9;

/// One round of probes.
struct Probe {
    /// When it ran, in seconds since the clock was made.
    at: f64,
    /// CPU probe time (ms).
    cpu: f64,
    /// I/O probe time (ms), 0 without an I/O probe.
    io: f64,
}

/// One timed op, until it is scaled by [`Clock::ms`].
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Its midpoint, in seconds since the clock was made.
    at: f64,
    /// Wall time (ms).
    wall: f64,
    /// Process CPU time (ms), at most `wall`.
    cpu: f64,
}

/// The probes and the probe times they have seen.
pub struct Clock {
    table: Vec<u32>,
    /// Where the I/O probe syncs its file, for a workload that waits on
    /// the disk.
    io_dir: Option<PathBuf>,
    probes: Vec<Probe>,
    start: Instant,
}

impl Clock {
    /// A clock with a CPU probe only, and a full window of fresh probes.
    pub fn new() -> Clock {
        let mut x = 0x2545_F491u32;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        let mut c = Clock {
            table,
            io_dir: None,
            probes: Vec::new(),
            start: Instant::now(),
        };
        c.burst();
        c
    }

    /// A clock that also probes synced file writes in `dir`.
    pub fn with_io(dir: &Path) -> Clock {
        let mut c = Clock::new();
        c.io_dir = Some(dir.to_path_buf());
        c.burst();
        c
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs one probe of each kind and records their times.
    fn probe(&mut self) {
        let at = self.now();
        let t = Instant::now();
        std::hint::black_box(interpret(&mut self.table, STEPS));
        let cpu = t.elapsed().as_secs_f64() * 1e3;
        let io = self.io_dir.as_ref().map_or(0.0, |dir| {
            let t = Instant::now();
            sync_renames(dir);
            t.elapsed().as_secs_f64() * 1e3
        });
        self.probes.push(Probe { at, cpu, io });
    }

    /// Replaces the windows with [`NEAREST`] fresh probes.
    fn burst(&mut self) {
        for _ in 0..NEAREST {
            self.probe();
        }
    }

    /// Scales `cpu` and `blocked` ms by the medians of `probes`.
    fn scaled(&self, cpu: f64, blocked: f64, probes: &[Probe]) -> f64 {
        let median =
            |f: fn(&Probe) -> f64| crate::report::median(&probes.iter().map(f).collect::<Vec<_>>());
        let cpu_scale = CPU_REF_MS / median(|p| p.cpu);
        let io_scale = if self.io_dir.is_some() {
            IO_REF_MS / median(|p| p.io)
        } else {
            cpu_scale
        };
        cpu * cpu_scale + blocked * io_scale
    }

    /// Times `f`, an op of a timed loop, after probing if [`EVERY_S`]
    /// has passed since the last probe. Returns its result and its
    /// stamp, which [`Clock::ms`] turns into a time once the probes
    /// after it have run.
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> (R, Stamp) {
        let last = self.probes.last().map_or(0.0, |p| p.at);
        if self.now() - last >= EVERY_S {
            self.probe();
        }
        let before = self.now();
        let (r, wall, cpu) = timed(f);
        let at = before + wall / 2e3;
        (r, Stamp { at, wall, cpu })
    }

    /// The time of an op in ms at reference speed, scaled by the
    /// [`NEAREST`] probes nearest its midpoint.
    pub fn ms(&self, s: &Stamp) -> f64 {
        let n = self.probes.len();
        let mid = self.probes.partition_point(|p| p.at < s.at);
        let from = mid
            .saturating_sub(NEAREST / 2)
            .min(n.saturating_sub(NEAREST));
        let window = &self.probes[from..(from + NEAREST).min(n)];
        self.scaled(s.cpu, s.wall - s.cpu, window)
    }

    /// Times `f`, a region of seconds, between two full windows of
    /// probes. Returns its result and its time in seconds at reference
    /// speed, scaled by the median of both windows.
    pub fn region<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.burst();
        let before = self.probes.len() - NEAREST;
        let (r, wall, cpu) = timed(f);
        self.burst();
        let ms = self.scaled(cpu, wall - cpu, &self.probes[before..]);
        (r, ms / 1e3)
    }

    /// Notes for the table: the median of every probe of each kind (ms),
    /// that is, how fast the host ran.
    pub fn notes(&self, out: &mut crate::report::Outcome) {
        let all = |f: fn(&Probe) -> f64| self.probes.iter().map(f).collect::<Vec<_>>();
        out.note("cpu_probe_ms", crate::report::median(&all(|p| p.cpu)), "ms");
        if self.io_dir.is_some() {
            out.note("io_probe_ms", crate::report::median(&all(|p| p.io)), "ms");
        }
    }
}

/// Runs `f`, returning its result, its wall time and the process's CPU
/// time over it (ms, at most the wall time).
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (c, t) = (process_cpu_ms(), Instant::now());
    let r = f();
    let wall = t.elapsed().as_secs_f64() * 1e3;
    let cpu = (process_cpu_ms() - c).clamp(0.0, wall);
    (r, wall, cpu)
}

/// CPU time of every thread of this process so far, in ms.
fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for),
    // which is all `clock_gettime` writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The I/O probe: [`IO_SYNCS`] times, write a small file in `dir`, sync
/// it, rename it over the last one and sync the directory — a shard
/// commit in miniature.
fn sync_renames(dir: &Path) {
    let (tmp, done) = (dir.join("probe.tmp"), dir.join("probe"));
    for _ in 0..IO_SYNCS {
        let mut f = std::fs::File::create(&tmp).expect("creating the I/O probe file");
        f.write_all(&[0x5a; 1024])
            .expect("writing the I/O probe file");
        f.sync_all().expect("syncing the I/O probe file");
        std::fs::rename(&tmp, &done).expect("renaming the I/O probe file");
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .expect("syncing the I/O probe directory");
    }
}

fn xorshift(mut x: u32) -> u32 {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    x
}

/// The guest program the probe interprets: a loop of 16 opcodes.
const PROGRAM: [u8; 16] = [0, 2, 1, 4, 6, 0, 3, 5, 2, 7, 1, 0, 6, 4, 3, 2];

/// The probe: `steps` steps of a register-machine interpreter running
/// [`PROGRAM`] in a loop over data from a xorshift stream — the
/// well-predicted dispatch, table loads and stores and integer work of
/// a simulator's inner loop.
///
/// Of several probes tried (random dispatch, pure ALU, streaming, tables
/// of 4 KiB to 16 MiB), this one's slowdown tracked the kernel
/// workloads' best through the host's slow phases: over twenty runs
/// whose raw throughput spanned 2x, the log-log slope was 1.1 and the
/// correlation 0.94.
fn interpret(table: &mut [u32], steps: u32) -> u32 {
    let mask = table.len() - 1;
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    let mut x = 0x9E37_79B9u32;
    for i in 0..steps as usize {
        x = xorshift(x);
        let (a, b) = ((i * 3) & 7, (i * 5 + 1) & 7);
        let addr = (r[b] ^ x) as usize & mask;
        match PROGRAM[i & 15] {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 => r[a] = table[addr],
            3 => table[addr] = r[a],
            4 => r[a] = r[a].rotate_left(r[b] & 31),
            5 => r[a] ^= x,
            6 => r[a] = table[addr].wrapping_add(r[b]),
            _ => r[b] = (r[a] >> 3) ^ table[(addr ^ 64) & mask],
        }
    }
    r.iter().fold(0, |h, v| h ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic() {
        let mut a = Clock::new();
        let mut b = Clock::new();
        assert_eq!(interpret(&mut a.table, 1000), interpret(&mut b.table, 1000));
    }

    /// A clock whose probe `i` ran at second `i` and took `ms(i)`.
    fn clock_with(io: bool, ms: impl Fn(usize) -> (f64, f64)) -> Clock {
        let mut c = Clock::new();
        c.io_dir = io.then(|| PathBuf::from("unused"));
        c.probes = (0..40)
            .map(|i| {
                let (cpu, io) = ms(i);
                Probe {
                    at: i as f64,
                    cpu,
                    io,
                }
            })
            .collect();
        c
    }

    #[test]
    fn scaled_times_follow_the_nearest_probes() {
        let stamp = |at| Stamp {
            at,
            wall: 14.0,
            cpu: 10.0,
        };
        // A host running the CPU probe at half speed halves CPU time;
        // without an I/O probe, blocked time is scaled the same way.
        let c = clock_with(false, |_| (2.0 * CPU_REF_MS, 0.0));
        assert!((c.ms(&stamp(20.5)) - 7.0).abs() < 1e-12);
        // With one, blocked time follows the I/O probe.
        let c = clock_with(true, |_| (2.0 * CPU_REF_MS, IO_REF_MS / 4.0));
        assert!((c.ms(&stamp(20.5)) - 21.0).abs() < 1e-12);
        // Only the probes around an op count: a slow phase from second
        // 20 on scales the ops in it, and not those well before it.
        let c = clock_with(false, |i| (if i < 20 { 1.0 } else { 2.0 }, 0.0));
        assert!((c.ms(&stamp(30.5)) - 7.0).abs() < 1e-12);
        assert!((c.ms(&stamp(9.5)) - 14.0).abs() < 1e-12);
        // Ops past the last probe use the last probes.
        assert!((c.ms(&stamp(99.0)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn the_io_probe_syncs_in_its_directory() {
        let dir = crate::inputs::WorkDir::new("selftest-clock");
        let c = Clock::with_io(dir.path());
        assert!(c.probes.iter().rev().take(NEAREST).all(|p| p.io > 0.0));
        assert!(dir.path().join("probe").exists());
    }
}
