//! Host speed, measured with a fixed kernel of the benchmark's own.
//!
//! The shared 2-vCPU host the benchmark was tuned on slows down by up to
//! 1.5×, for stretches from a fraction of a second to minutes, as other
//! tenants contend for its caches and memory. Process CPU time rises with
//! wall time and steal time stays 0, so no clock leaves the slowdown out.
//! A probe times a fixed kernel: random read-modify-writes over a 4 MiB
//! table, the access pattern of the engine's query caches. A timed piece
//! is then scaled to the reference speed by the kernel's times just before
//! and just after it:
//!
//! ```text
//! piece × REFERENCE_S / mean(kernel before, kernel after)
//! ```
//!
//! The kernel is the benchmark's own code, so a change to the program
//! moves the scaled times in proportion to the wall times.

use std::time::Instant;

/// The kernel's typical time on the reference machine (a 2-vCPU Xeon VM at
/// 2.0 GHz); a scaled time is in seconds at that speed.
pub const REFERENCE_S: f64 = 2.5e-3;
/// Table size in 64-bit words (4 MiB: past the L2 cache, like the engine's
/// caches).
const TABLE_WORDS: usize = 1 << 19;
/// Table updates per probe.
const STEPS: u64 = 200_000;
/// Bytes the probe's table keeps resident.
pub const TABLE_BYTES: usize = TABLE_WORDS * 8;

pub struct HostSpeed {
    table: Vec<u64>,
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Allocates and touches the table, so probes never page-fault.
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed { table: vec![1; TABLE_WORDS], probes: Vec::new() };
        speed.probe();
        speed.probes.clear();
        speed
    }

    /// Times the kernel once; returns its seconds.
    pub fn probe(&mut self) -> f64 {
        let mask = self.table.len() - 1;
        let start = Instant::now();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for i in 0..STEPS {
            // xorshift64: the same slot sequence on every probe.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = x as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(i) ^ acc;
            acc = acc.wrapping_add(self.table[slot.wrapping_mul(7).wrapping_add(1) & mask]);
        }
        std::hint::black_box(acc);
        let secs = start.elapsed().as_secs_f64();
        self.probes.push(secs);
        secs
    }

    /// Every probe's seconds since the last `take_probes`.
    pub fn take_probes(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.probes)
    }
}

/// `secs`, timed between probes that took `before` and `after` seconds,
/// in seconds at the reference speed.
pub fn at_reference(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_kernel_around_the_piece() {
        assert_eq!(at_reference(1.0, REFERENCE_S, REFERENCE_S), 1.0);
        // Host 1.5x slower on both sides: the piece took 1.5x too long.
        let slow = 1.5 * REFERENCE_S;
        assert!((at_reference(1.5, slow, slow) - 1.0).abs() < 1e-12);
        // Slow before, normal after: the mean of the two.
        assert!((at_reference(1.25, slow, REFERENCE_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probes_are_recorded_until_taken() {
        let mut speed = HostSpeed::new();
        let secs = speed.probe();
        assert!(secs > 0.0);
        assert_eq!(speed.take_probes(), vec![secs]);
        assert!(speed.take_probes().is_empty());
    }
}
