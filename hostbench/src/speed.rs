//! Host speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±20% over
//! minutes: other tenants' load slows every program on the machine, and
//! one process's whole run can fall in a slow or a fast stretch. So every
//! timing it reports is scaled to a reference host speed.
//!
//! Between operations, after every [`INTERVAL`] of work, the benchmark
//! times a fixed calibration: branchy integer hashing into a 64 KiB table.
//! It is the benchmark's own code and does the same work every time, so a
//! change to the simulator cannot move it; its time carries only the
//! host's speed. With `factor = REFERENCE_US / calibration time`, a
//! duration `t` is reported as `t × factor` and a rate `r` as `r / factor`,
//! where the factor is the median of the last [`WINDOW`] calibrations. Raw
//! timings are printed beside the scaled ones.
//!
//! Calibrations that also timed an interpreter loop over 1 MiB or random
//! writes across 8 MiB tracked the simulator's slow stretches less well on
//! the reference host: those kernels have slow stretches of their own.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The calibration's median time on the host the bounds were set on (a
/// 2-vCPU KVM guest of a 2.1 GHz Xeon), so scaled timings read close to raw
/// ones there.
pub const REFERENCE_US: f64 = 2_000.0;

/// Work between two calibrations of a timed pass.
pub const INTERVAL: Duration = Duration::from_millis(200);

/// Calibrations the current factor is the median of.
pub const WINDOW: usize = 5;

const TABLE_WORDS: usize = 1 << 14;
const HASH_STEPS: u32 = 400_000;
/// Calibrations a run can hold without regrowing its record.
const CAPACITY: usize = 1 << 15;

struct Calibrator {
    table: Vec<u32>,
    /// Raw time of every calibration so far, in µs.
    times_us: Vec<f64>,
    last: Instant,
}

thread_local! {
    static CAL: RefCell<Option<Calibrator>> = const { RefCell::new(None) };
}

impl Calibrator {
    fn new() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            times_us: Vec::with_capacity(CAPACITY),
            last: Instant::now(),
        }
    }

    /// Times one calibration pass, in µs, after an untimed one that brings
    /// the table back into cache whatever the simulator left there.
    fn run(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.times_us.push(us);
        self.last = Instant::now();
        us
    }

    /// One pass; the table is reset first, so every pass does the same work.
    fn pass(&mut self) {
        let mut x = 0x1234_5678_u64;
        self.table.fill(0);
        for _ in 0..HASH_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE_WORDS - 1);
            if x & 3 == 0 {
                self.table[i] = self.table[i].wrapping_add(x as u32);
            } else {
                self.table[i] ^= (x >> 32) as u32;
            }
        }
        black_box(&self.table);
    }

    fn factor(&self, since: usize) -> f64 {
        let start = since.min(self.times_us.len().saturating_sub(1));
        REFERENCE_US / median(&self.times_us[start..])
    }
}

fn with<R>(f: impl FnOnce(&mut Calibrator) -> R) -> R {
    CAL.with(|c| f(c.borrow_mut().get_or_insert_with(Calibrator::new)))
}

/// Allocates the calibration's record and calibrates once. Call before any
/// set-up, so the record stays out of the heap the simulator's memories are
/// carved from.
pub fn init() {
    with(|c| {
        c.run();
    });
}

/// Calibrates now; returns the raw time in µs.
pub fn calibrate() -> f64 {
    with(Calibrator::run)
}

/// Calibrates if [`INTERVAL`] has passed since the last calibration.
pub fn tick() {
    with(|c| {
        if c.last.elapsed() >= INTERVAL {
            c.run();
        }
    });
}

/// Calibrations made so far; pass to [`factor_since`].
pub fn mark() -> usize {
    with(|c| c.times_us.len())
}

/// The current factor: over the last [`WINDOW`] calibrations.
pub fn factor() -> f64 {
    with(|c| c.factor(c.times_us.len().saturating_sub(WINDOW)))
}

/// The factor over every calibration since `mark` (at least the last one).
pub fn factor_since(mark: usize) -> f64 {
    with(|c| c.factor(mark))
}

/// Median raw calibration time of the whole run, in µs.
pub fn median_us() -> f64 {
    with(|c| median(&c.times_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_the_same_path_every_time() {
        let mut c = Calibrator::new();
        c.run();
        let first = c.table.clone();
        c.run();
        assert_eq!(c.table, first);
        assert_eq!(c.times_us.len(), 2);
        assert!(c.factor(0) > 0.0 && c.factor(0).is_finite());
    }
}
