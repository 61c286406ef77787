//! A bounded coverage/throughput time series for live dashboards and the
//! campaign artifact.
//!
//! The registry samples one [`SeriesPoint`] per merge window (rate-limited
//! by a minimum interval); when the ring reaches capacity it *compacts* —
//! every other point is dropped and the minimum interval doubles — so an
//! arbitrarily long campaign is summarized by a bounded, uniformly thinning
//! series (the same trick AFL's `plot_data` uses). Points are appended in
//! time order by the single merging side (coordinator or sequential loop),
//! so the persisted series is deterministic given the sample times.

use std::fmt::Write as _;

use crate::json::{push_json_f64, Json};

/// One sample of campaign progress.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Seconds since campaign start.
    pub t_s: f64,
    /// Inputs executed so far.
    pub executions: u64,
    /// Branches covered so far.
    pub covered: usize,
    /// Total branch probes.
    pub branch_count: usize,
    /// Retained corpus entries across shards.
    pub corpus: u64,
    /// Open branch goals (`branch_count - covered`): the frontier the
    /// fuzzer is still chasing.
    pub frontier_open: usize,
    /// Execution rate over the window since the previous sample.
    pub execs_per_sec: f64,
}

impl SeriesPoint {
    /// Coverage percentage at this sample (0 when the model has no probes).
    pub fn coverage_pct(&self) -> f64 {
        if self.branch_count == 0 {
            0.0
        } else {
            100.0 * self.covered as f64 / self.branch_count as f64
        }
    }

    /// Appends the point as one JSON object: the spelling campaign.json
    /// and `/snapshot` share.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"t_s\":");
        push_json_f64(out, self.t_s);
        let _ = write!(
            out,
            ",\"executions\":{},\"covered\":{},\"branch_count\":{},\"corpus\":{},\"frontier_open\":{}",
            self.executions, self.covered, self.branch_count, self.corpus, self.frontier_open
        );
        out.push_str(",\"execs_per_sec\":");
        push_json_f64(out, self.execs_per_sec);
        out.push('}');
    }

    /// Parses a point written by [`SeriesPoint::push_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &Json) -> Result<SeriesPoint, String> {
        let count = |key: &str| value.field_u64(key, "series point");
        let real = |key: &str| value.field_f64(key, "series point");
        Ok(SeriesPoint {
            t_s: real("t_s")?,
            executions: count("executions")?,
            covered: count("covered")? as usize,
            branch_count: count("branch_count")? as usize,
            corpus: count("corpus")?,
            frontier_open: count("frontier_open")? as usize,
            execs_per_sec: real("execs_per_sec")?,
        })
    }
}

/// The bounded, self-compacting sample ring.
#[derive(Debug, Clone)]
pub struct SeriesRing {
    points: Vec<SeriesPoint>,
    capacity: usize,
    min_interval_s: f64,
    compactions: u32,
}

impl Default for SeriesRing {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl SeriesRing {
    /// Default ring capacity (samples).
    pub const DEFAULT_CAPACITY: usize = 512;
    /// Initial minimum spacing between samples, seconds.
    pub const INITIAL_INTERVAL_S: f64 = 0.1;

    /// A ring holding at most `capacity` samples (clamped to ≥ 4).
    pub fn new(capacity: usize) -> Self {
        SeriesRing {
            points: Vec::new(),
            capacity: capacity.max(4),
            min_interval_s: Self::INITIAL_INTERVAL_S,
            compactions: 0,
        }
    }

    /// Offers a sample; returns `true` if it was retained. Samples closer
    /// than the current minimum interval to the last retained sample are
    /// rejected (the caller can offer on every merge without bookkeeping).
    pub fn offer(&mut self, point: SeriesPoint) -> bool {
        if let Some(last) = self.points.last() {
            if point.t_s - last.t_s < self.min_interval_s {
                return false;
            }
        }
        self.points.push(point);
        if self.points.len() >= self.capacity {
            // Keep every other sample; double the spacing going forward.
            let mut keep = false;
            self.points.retain(|_| {
                keep = !keep;
                keep
            });
            self.min_interval_s *= 2.0;
            self.compactions += 1;
        }
        true
    }

    /// The retained samples, oldest first.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// How many times the ring halved itself.
    pub fn compactions(&self) -> u32 {
        self.compactions
    }

    /// Current minimum spacing between retained samples, seconds.
    pub fn min_interval_s(&self) -> f64 {
        self.min_interval_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t_s: f64, executions: u64) -> SeriesPoint {
        SeriesPoint {
            t_s,
            executions,
            covered: 10,
            branch_count: 40,
            corpus: 5,
            frontier_open: 30,
            execs_per_sec: 100.0,
        }
    }

    #[test]
    fn rejects_samples_below_the_interval() {
        let mut ring = SeriesRing::new(16);
        assert!(ring.offer(point(0.0, 1)));
        assert!(!ring.offer(point(0.05, 2)), "closer than 0.1s");
        assert!(ring.offer(point(0.2, 3)));
        assert_eq!(ring.points().len(), 2);
    }

    #[test]
    fn compaction_halves_and_doubles_interval() {
        let mut ring = SeriesRing::new(8);
        for i in 0..8 {
            assert!(ring.offer(point(i as f64, i as u64)));
        }
        assert_eq!(ring.compactions(), 1);
        assert_eq!(ring.points().len(), 4);
        assert!((ring.min_interval_s() - 0.2).abs() < 1e-12);
        // Survivors are the even-index samples, still time-ordered.
        let times: Vec<f64> = ring.points().iter().map(|p| p.t_s).collect();
        assert_eq!(times, vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn long_campaign_stays_bounded() {
        let mut ring = SeriesRing::new(64);
        for i in 0..100_000 {
            ring.offer(point(i as f64 * 0.1, i as u64));
        }
        assert!(ring.points().len() < 64);
        assert!(ring.compactions() > 0);
        let times: Vec<f64> = ring.points().iter().map(|p| p.t_s).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "monotone time");
    }

    #[test]
    fn json_round_trips_and_names_bad_fields() {
        let p = point(0.25, 17);
        let mut out = String::new();
        p.push_json(&mut out);
        assert_eq!(
            out,
            "{\"t_s\":0.25,\"executions\":17,\"covered\":10,\"branch_count\":40,\"corpus\":5,\
             \"frontier_open\":30,\"execs_per_sec\":100}"
        );
        assert_eq!(SeriesPoint::from_json(&Json::parse(&out).unwrap()), Ok(p));
        let err = SeriesPoint::from_json(&Json::parse("{\"t_s\":1}").unwrap()).unwrap_err();
        assert!(err.contains("executions"), "{err}");
    }

    #[test]
    fn coverage_pct_handles_empty_models() {
        assert_eq!(point(0.0, 0).coverage_pct(), 25.0);
        let mut p = point(0.0, 0);
        p.branch_count = 0;
        assert_eq!(p.coverage_pct(), 0.0);
    }
}
