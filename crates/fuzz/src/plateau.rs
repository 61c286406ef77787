//! Windowed plateau detection for a fuzzing campaign.
//!
//! A campaign *plateaus* when a full execution window passes without the
//! covered-goal count moving. The detector is pure integer bookkeeping over
//! `(executions, covered)` observations — no clock, no RNG — so the same
//! campaign always fires the same plateau events regardless of wall-clock
//! speed, and the watcher can run attached to a byte-identity-checked
//! campaign without perturbing it.
//!
//! The windowing contract is "exactly one event per quiet window, stamped
//! at its boundary": a stall of `3 × window` executions fires three times,
//! at `anchor + window`, `anchor + 2 × window` and `anchor + 3 × window`,
//! however sparse the observations. Any coverage gain re-anchors the window
//! at the execution that gained, so a campaign fires at the same boundaries
//! whether it is observed after every execution or once per batch.

/// Watches a campaign's executions and coverage gains and reports every
/// execution window that elapses with no gain.
#[derive(Debug, Clone)]
pub struct PlateauDetector {
    window: u64,
    window_start: u64,
    fired: u64,
}

impl PlateauDetector {
    /// Creates a detector firing after every `window` executions without a
    /// coverage gain. A zero window is clamped to 1.
    pub fn new(window: u64) -> Self {
        PlateauDetector { window: window.max(1), window_start: 0, fired: 0 }
    }

    /// The configured window, in executions.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// How many plateau events have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Feeds one observation: the campaign reached `executions`, and
    /// `gained` says whether the execution at that count earned coverage.
    /// Returns the boundary of the next quiet window that closed — by
    /// `executions`, or strictly before it when it gained — consuming that
    /// window; the caller emits a `plateau` event stamped there and calls
    /// again until `None`. Once no window is left, a gain re-anchors the
    /// next window at `executions` (observations may arrive out of order
    /// across shards; the anchor never moves back).
    pub fn observe(&mut self, executions: u64, gained: bool) -> Option<u64> {
        let boundary = self.window_start + self.window;
        if boundary < executions || (boundary == executions && !gained) {
            self.window_start = boundary;
            self.fired += 1;
            return Some(boundary);
        }
        if gained {
            self.window_start = self.window_start.max(executions);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_window_fires_exactly_once() {
        let mut d = PlateauDetector::new(100);
        for n in 1..100 {
            assert_eq!(d.observe(n, false), None, "fired early at {n}");
        }
        assert_eq!(d.observe(100, false), Some(100));
        assert_eq!(d.observe(101, false), None, "double-fired within the same window");
        assert_eq!(d.fired(), 1);
    }

    #[test]
    fn gain_resets_the_window() {
        let mut d = PlateauDetector::new(100);
        assert_eq!(d.observe(90, false), None);
        assert_eq!(d.observe(95, true), None); // gain at 95 re-anchors
        assert_eq!(d.observe(194, false), None);
        assert_eq!(d.observe(195, false), Some(195));
        assert_eq!(d.fired(), 1);
    }

    #[test]
    fn a_gain_on_the_boundary_re_anchors_instead_of_firing() {
        let mut d = PlateauDetector::new(100);
        assert_eq!(d.observe(100, true), None);
        assert_eq!(d.observe(199, false), None);
        assert_eq!(d.observe(200, false), Some(200));
    }

    #[test]
    fn sparse_observations_fire_once_per_elapsed_window_at_its_boundary() {
        // One observation after a 350-exec stall fires three times, stamped
        // at the three window boundaries.
        let mut d = PlateauDetector::new(100);
        let fires: Vec<u64> = std::iter::from_fn(|| d.observe(350, false)).collect();
        assert_eq!(fires, [100, 200, 300]);
        // The partial fourth window completes at 400.
        assert_eq!(d.observe(399, false), None);
        assert_eq!(d.observe(400, false), Some(400));
        // A gain at 730 first closes the windows before it, then re-anchors.
        let fires: Vec<u64> = std::iter::from_fn(|| d.observe(730, true)).collect();
        assert_eq!(fires, [500, 600, 700]);
        assert_eq!(d.observe(829, false), None);
        assert_eq!(d.observe(830, false), Some(830));
    }

    #[test]
    fn an_earlier_gain_never_moves_the_anchor_back() {
        let mut d = PlateauDetector::new(100);
        assert_eq!(d.observe(50, true), None);
        assert_eq!(d.observe(20, true), None);
        assert_eq!(d.observe(150, false), Some(150));
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut d = PlateauDetector::new(0);
        assert_eq!(d.window(), 1);
        assert_eq!(d.observe(1, false), Some(1));
    }
}
