//! The calibration kernel, and the clock that converts wall time into
//! reference time with it.
//!
//! The benchmark runs on a shared virtual machine whose speed drifts by
//! tens of per cent over seconds to hours: neighbours contend for the
//! caches and the memory bus, and the host takes the virtual CPUs away for
//! milliseconds at a time, more often the more of them are busy. The
//! kernel is fixed, memory-bound work of the same kind as the weave (a
//! sort and an ordered-map build over freshly allocated memory), run at
//! every boundary between slices of load on as many threads as the
//! workload keeps busy. Dividing a slice's times by the kernel's time
//! around it, and multiplying by [`REFERENCE_NS`], reports what the slice
//! would have taken on the machine at its reference speed. A change to
//! the program moves the slice and not the kernel, so it shows in full;
//! drift of the machine moves both, and cancels.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed: about its time on one
/// thread of the 2-vCPU Intel Xeon VM the benchmark was set up on.
pub const REFERENCE_NS: f64 = 8e6;

/// Keys sorted, and inserted into the ordered map, per kernel run.
const SORT_KEYS: u64 = 100_000;
const MAP_INSERTS: u64 = 40_000;

/// One run of the kernel, seeded so no run can be folded into another.
fn kernel(seed: u64) -> u64 {
    let mix = |i: u64| (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut keys: Vec<u64> = (0..SORT_KEYS).map(mix).collect();
    keys.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for i in 0..MAP_INSERTS {
        *map.entry(mix(i) % (MAP_INSERTS / 2)).or_insert(0u32) += 1;
    }
    keys[keys.len() / 2] ^ map.len() as u64
}

/// Converts wall time into reference time, measuring the kernel at every
/// boundary between the slices it scales.
pub struct Clock {
    /// Threads the kernel runs on at once: as many as the measured work
    /// keeps busy, so the host's contention for them shows in both.
    threads: usize,
    /// The kernel's time at the last boundary, nanoseconds.
    last_ns: f64,
    runs: u64,
}

impl Clock {
    /// Measures the first boundary, running the kernel on `threads`
    /// threads at once.
    pub fn start(threads: usize) -> Clock {
        let mut clock = Clock {
            threads,
            last_ns: 0.0,
            runs: 0,
        };
        clock.last_ns = clock.measure();
        clock
    }

    /// Wall time until every thread has finished its kernel run.
    fn measure(&mut self) -> f64 {
        let seeds: Vec<u64> = (0..self.threads as u64)
            .map(|t| self.runs << 8 | t)
            .collect();
        self.runs += 1;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for &seed in &seeds[1..] {
                s.spawn(move || black_box(kernel(black_box(seed))));
            }
            black_box(kernel(black_box(seeds[0])));
        });
        t0.elapsed().as_nanos() as f64
    }

    /// Ends the slice that began at the last boundary: measures this
    /// boundary and returns the slice's scale, reference time per wall
    /// time, from the mean of its two boundaries.
    pub fn end_slice(&mut self) -> f64 {
        let now_ns = self.measure();
        let scale = REFERENCE_NS / ((self.last_ns + now_ns) / 2.0);
        self.last_ns = now_ns;
        scale
    }
}

/// Kernel runs before and after a [`timed`] call. Each side counts as
/// their median: a stall of the host that lands on one kernel run of a few
/// milliseconds would otherwise skew the scale of the whole call.
const TIMED_RUNS: usize = 5;

/// Runs `f` as one slice of its own, calibrated on `threads` threads, and
/// returns its result with its time in reference nanoseconds.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let mut clock = Clock {
        threads,
        last_ns: 0.0,
        runs: 0,
    };
    let mut boundary = || crate::stats::median((0..TIMED_RUNS).map(|_| clock.measure()).collect());
    let before_ns = boundary();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let after_ns = boundary();
    (out, wall_ns * REFERENCE_NS / ((before_ns + after_ns) / 2.0))
}
