//! A fixed calibration loop that measures how fast the host is running
//! right now.
//!
//! On a shared host, other tenants slow the fuzz loop by up to half for
//! stretches of minutes, far longer than one run. Every timed slot is
//! bracketed by this loop, and the slot's time is scaled by how much slower
//! than nominal the loop ran around it. The loop uses only the standard
//! library, so no change to the program under test can change its speed.
//! Its mix follows the fuzz loop's own: high-IPC integer work with scattered
//! table updates, SipHash set churn, and short `bool`-array passes.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// A typical time of the calibration loop on a 2-vCPU x86-64 host, in
/// seconds. Only sets the scale: scaled times equal raw times when the host
/// runs at this speed.
pub const NOMINAL_S: f64 = 0.0015;

/// Runs the calibration loop once; returns its wall time in seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut table = vec![0u64; 1 << 14];
    for i in 0..40_000u64 {
        for (j, v) in lanes.iter_mut().enumerate() {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let k = (*v as usize + j) & (table.len() - 1);
            table[k] = table[k].wrapping_add(i);
        }
    }
    let mut seen = HashSet::with_capacity(1024);
    for i in 0..8_000u64 {
        let key = (lanes[(i % 8) as usize] ^ i, i);
        seen.insert(key);
        if seen.len() > 512 {
            seen.remove(&(lanes[((i + 1) % 8) as usize] ^ (i - 512), i - 512));
        }
    }
    let (mut curr, mut last, mut total) = (vec![false; 133], vec![false; 133], vec![false; 133]);
    let mut diff = 0usize;
    for i in 0..2_000usize {
        curr.iter_mut().for_each(|b| *b = false);
        curr[i % 133] = true;
        curr[(i * 7) % 133] = true;
        for (t, &c) in total.iter_mut().zip(&curr) {
            *t |= c;
        }
        diff += curr.iter().zip(&last).filter(|(a, b)| a != b).count();
        last.copy_from_slice(&curr);
    }
    black_box((&lanes, &table, seen.len(), diff, &total));
    start.elapsed().as_secs_f64()
}

/// How much slower than nominal the host ran over a stretch bracketed by
/// calibration runs taking `before` and `after` seconds.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_relative_to_nominal() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert_eq!(slowdown(NOMINAL_S, 3.0 * NOMINAL_S), 2.0);
        assert!(run() > 0.0);
    }
}
