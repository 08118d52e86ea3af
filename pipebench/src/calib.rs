//! Host-speed calibration of the end-to-end times.
//!
//! On a shared host the speed of one core drifts by up to ~1.6x over
//! tens of seconds, as other tenants load the machine. That drift is far
//! wider than any regression bound, and a run of one minute cannot
//! average it away. So every end-to-end trip is bracketed by runs of a
//! fixed calibration kernel, which uses only the standard library and
//! none of this repository's code, and the trip's wall time is reported
//! at the kernel's reference speed:
//!
//! ```text
//! calibrated = wall × REF_S / mean(kernel before, kernel after)
//! ```
//!
//! A slower program still reads slower; a slower host does not. The raw
//! wall-time medians and the kernel's median are reported beside the
//! calibrated ones in the host facts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference seconds of one kernel run: calibrated times are seconds on
/// a host where the kernel takes exactly this long.
pub const REF_S: f64 = 0.020;

/// The calibration kernel: an event-queue loop, hash-map updates,
/// allocation and a sort, the operations a DES trip is made of.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..4096 {
        heap.push(Reverse(next() % 1_000_000));
    }
    let mut acc = 0u64;
    for _ in 0..200_000 {
        let Reverse(t) = heap.pop().expect("heap is never empty");
        let k = next();
        *map.entry(k % 65_536).or_insert(0) += t;
        heap.push(Reverse(t + k % 1000));
        acc = acc.wrapping_add(t);
    }
    let mut v: Vec<u64> = (0..200_000).map(|_| next()).collect();
    v.sort_unstable();
    acc ^ v[1000] ^ map.len() as u64
}

/// Kernel runs interleaved with timed trips. The kernel is
/// single-threaded for threaded trips too: over a run, it tracked the
/// threaded trips' drift better than a kernel on both cores did.
#[derive(Default)]
pub struct Calibrator {
    kernels: Vec<f64>,
    /// `(metric, wall seconds, index of the kernel run before it)`.
    trips: Vec<(&'static str, f64, usize)>,
}

impl Calibrator {
    /// Run the kernel once; call before the first trip and after each.
    pub fn tick(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(self.kernels.len() as u64)));
        self.kernels.push(t.elapsed().as_secs_f64());
    }

    /// Record a trip that ran since the last [`Calibrator::tick`].
    pub fn record(&mut self, name: &'static str, wall: f64) {
        let before = self
            .kernels
            .len()
            .checked_sub(1)
            .expect("tick before the first trip");
        self.trips.push((name, wall, before));
    }

    /// Every trip as `(metric, wall, calibrated)`, plus the kernel runs.
    pub fn finish(self) -> (Vec<(&'static str, f64, f64)>, Vec<f64>) {
        let kernels = self.kernels;
        let out = self
            .trips
            .into_iter()
            .map(|(name, wall, i)| {
                let after = kernels.get(i + 1).unwrap_or(&kernels[i]);
                (name, wall, wall * REF_S * 2.0 / (kernels[i] + after))
            })
            .collect();
        (out, kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_are_scaled_by_the_bracketing_kernels() {
        let mut c = Calibrator {
            kernels: vec![0.010, 0.030],
            trips: vec![("measure_s", 1.0, 0), ("setup_s", 0.5, 1)],
        };
        c.tick();
        let (trips, kernels) = c.finish();
        assert_eq!(kernels.len(), 3);
        assert!((trips[0].2 - 1.0 * REF_S / 0.020).abs() < 1e-12);
        let k = (0.030 + kernels[2]) / 2.0;
        assert!((trips[1].2 - 0.5 * REF_S / k).abs() < 1e-12);
        assert_eq!(kernel(3), kernel(3));
    }
}
