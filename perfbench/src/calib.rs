//! Host-speed calibration of the host-time metrics.
//!
//! On a shared virtual host the speed per instruction drifts from second
//! to second and from minute to minute, by far more than the changes the
//! benchmark should detect. A fixed reference kernel, which is part of
//! this crate and calls nothing in the library, is timed before the
//! first timed repetition and after every one. Each repetition is scaled
//! by the host's slowness around it: the mean of the two readings that
//! enclose it, relative to the kernel's nominal time, raised to the
//! workload's sensitivity ([`crate::workloads::host_sensitivity`]),
//! which differs between the repetition and the set-ups.
//! Host-time metrics are therefore in calibrated seconds — the time the
//! repetition would take on this host at the speed where the kernel takes
//! its nominal time.
//!
//! The kernel runs on as many threads as the workload uses, so a
//! workload on two workers is scaled by how much of two CPUs the host
//! gave at the time.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Iterations of the branchy integer loop.
const LOOP_ITERS: u64 = 20_000_000;

/// Elements sorted by the allocation-and-sort part (8 MB of `u64`).
const SORT_LEN: usize = 1_000_000;

/// Nominal wall time of each part, seconds, by thread count (1 and 2):
/// typical times on the 2-CPU Xeon host the benchmark was sized on. Two
/// threads got between one and about 1.6 CPUs of throughput there.
const NOMINAL_LOOP_S: [f64; 2] = [0.147, 0.177];
const NOMINAL_SORT_S: [f64; 2] = [0.0275, 0.032];

/// A branchy integer loop over a xorshift stream: ALU and branch
/// predictor.
fn branchy_loop(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 3 {
            0 => acc.wrapping_add(x >> 3),
            1 => acc ^ x.rotate_left(7),
            _ => acc.wrapping_mul(3).wrapping_add(i),
        };
    }
    acc
}

/// Allocates, fills and sorts `n` pseudo-random words: allocator,
/// memory and data-dependent branches.
fn alloc_sort(n: usize) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v: Vec<u64> = (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    v[n / 2]
}

/// Wall time of `threads` simultaneous calls of `f`.
fn timed(threads: usize, f: fn() -> u64) -> f64 {
    let t = Instant::now();
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || black_box(f()));
        }
    });
    t.elapsed().as_secs_f64()
}

/// One reading of the host's slowness on `threads` threads (1 or 2):
/// the geometric mean of each part's time over its nominal time, so 1.0
/// is nominal speed and 1.2 is 20% slower. Also returns the seconds the
/// reading took.
fn slowness(threads: usize) -> (f64, f64) {
    let i = threads.clamp(1, 2) - 1;
    let lp = timed(threads, || branchy_loop(black_box(LOOP_ITERS)));
    let so = timed(threads, || alloc_sort(black_box(SORT_LEN)));
    (
        (lp / NOMINAL_LOOP_S[i] * so / NOMINAL_SORT_S[i]).sqrt(),
        lp + so,
    )
}

/// How strongly a workload's times follow the host's slowness: the
/// exponents applied to a segment's mean reading, one for the repetition
/// and one for the set-ups.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    /// Exponent for the repetition's wall.
    pub run: f64,
    /// Exponent for the set-up times.
    pub setup: f64,
}

/// A segment's slowness factors; divide its times by them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Factors {
    /// Factor for the repetition's wall.
    pub run: f64,
    /// Factor for the set-up times.
    pub setup: f64,
}

/// Readings around a sequence of timed segments. Inactive, it reads
/// nothing and every factor is 1.
pub struct Calibrator {
    threads: usize,
    sensitivity: Sensitivity,
    active: bool,
    last: f64,
    /// Seconds one reading takes (0 when inactive).
    pub reading_s: f64,
}

impl Calibrator {
    /// Takes the first reading, which opens the first segment.
    pub fn new(active: bool, threads: usize, sensitivity: Sensitivity) -> Self {
        let (last, reading_s) = if active {
            slowness(threads)
        } else {
            (1.0, 0.0)
        };
        Calibrator {
            threads,
            sensitivity,
            active,
            last,
            reading_s,
        }
    }

    /// Closes the current segment with a new reading, which also opens
    /// the next one, and returns the segment's slowness factors: the mean
    /// of its two readings, raised to each sensitivity.
    pub fn close(&mut self) -> Factors {
        if !self.active {
            return Factors {
                run: 1.0,
                setup: 1.0,
            };
        }
        let (now, took) = slowness(self.threads);
        let mean = (self.last + now) / 2.0;
        self.last = now;
        self.reading_s = took;
        Factors {
            run: mean.powf(self.sensitivity.run),
            setup: mean.powf(self.sensitivity.setup),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_calibrator_reads_nothing() {
        let sensitivity = Sensitivity {
            run: 1.5,
            setup: 1.5,
        };
        let mut c = Calibrator::new(false, 1, sensitivity);
        assert_eq!(
            c.close(),
            Factors {
                run: 1.0,
                setup: 1.0
            }
        );
        assert_eq!(c.reading_s, 0.0);
    }

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(branchy_loop(1000), branchy_loop(1000));
        assert_eq!(alloc_sort(1000), alloc_sort(1000));
    }
}
