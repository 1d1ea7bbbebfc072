//! A fixed reference kernel that measures how fast the process runs
//! heap-heavy work at the moment, so the end-to-end times can be scaled to
//! one machine speed.
//!
//! On a shared VM the same op set runs up to 40 % faster or slower from one
//! run to the next, and within a run the speed can change by a third from
//! one ten-second stretch to the next. All of the benchmark's heap-heavy work
//! moves together: while the ops are slow this kernel is slow too, while a
//! register-only loop stays within a few per cent. The kernel is benchmark
//! code that no change to `resyn` touches, so scaling by it removes the
//! machine's speed and keeps the program's.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel's median time on the calibration VM (2-vCPU x86-64). Times
/// scaled by [`Calibration::scale`] read as if every run had the kernel at
/// this speed.
const NOMINAL_S: f64 = 0.0095;

/// One run of the kernel: grow a hash map of vectors to 40,000 keys with
/// 60,000 pushes, looking up a key after each, and drop it. About 10 ms.
fn run() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 12_345u64;
    let mut found = 0usize;
    for i in 0..60_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.entry(x % 40_000).or_default().push(i);
        if let Some(v) = map.get(&((x >> 17) % 40_000)) {
            found += v.len();
        }
    }
    black_box((found, map.len()));
    drop(map);
    t.elapsed().as_secs_f64()
}

/// How often the kernel runs: between op slots, once at least this long
/// has passed since its last run (about 4 % of a run's time).
const EVERY: Duration = Duration::from_millis(250);

/// Kernel samples on each side of an epoch that make up its local speed.
const HALF_WINDOW: usize = 2;

/// The kernel's samples through a run. Work done after `k` samples is in
/// epoch `k`; its time is scaled by the kernel's median over the samples
/// around that epoch, so a change of speed within a run is followed.
pub struct Calibration {
    samples: Vec<f64>,
    last: Instant,
}

impl Calibration {
    /// Start with one sample, so every epoch has one before it.
    pub fn new() -> Calibration {
        let mut cal = Calibration {
            samples: Vec::new(),
            last: Instant::now(),
        };
        cal.sample();
        cal
    }

    fn sample(&mut self) {
        self.samples.push(run());
        self.last = Instant::now();
    }

    /// Run the kernel if [`EVERY`] has passed since its last run.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// The epoch of work done from now until the next sample.
    pub fn epoch(&self) -> usize {
        self.samples.len()
    }

    /// End the run with a sample, so the last epoch has one after it too.
    pub fn finish(&mut self) {
        self.sample();
    }

    /// The factor that brings a time measured in `epoch` to [`NOMINAL_S`]:
    /// the samples just before and after it, [`HALF_WINDOW`] on each side.
    pub fn scale(&self, epoch: usize) -> f64 {
        let lo = epoch.saturating_sub(HALF_WINDOW);
        let hi = (epoch + HALF_WINDOW).min(self.samples.len());
        NOMINAL_S / median(&self.samples[lo..hi])
    }

    /// Times tagged with their epochs, each scaled by [`Calibration::scale`].
    pub fn scaled(&self, times: &[(f64, usize)]) -> Vec<f64> {
        times
            .iter()
            .map(|&(secs, epoch)| secs * self.scale(epoch))
            .collect()
    }

    /// The kernel's median over the whole run.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}
