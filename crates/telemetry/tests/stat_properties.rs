//! Property tests on the telemetry primitives: the algebra that makes
//! per-shard stats safe to merge in any order, and the histogram bucketing
//! invariants the Prometheus exposition relies on.

use cftcg_telemetry::{Histogram, ShardStats, YieldMatrix, YieldOutcome};
use proptest::prelude::*;

/// Builds a histogram from a list of observations.
fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Records one attributed execution of operator `op`, and its new coverage.
fn record_yield(m: &mut YieldMatrix, op: usize, earned: bool) {
    m.record(op, YieldOutcome::Executed);
    if earned {
        m.record(op, YieldOutcome::NewCoverage);
    }
}

/// Compact generator output: executions, iterations, discoveries, exec
/// latencies, and (operator, earned) attribution events.
type RawStats = (u64, u64, u64, Vec<u64>, Vec<(usize, bool)>);

/// Builds shard stats from compact generator output.
fn stats_of((execs, iters, discoveries, latencies, ops): &RawStats) -> ShardStats {
    let mut s = ShardStats::new(8);
    s.executions = *execs;
    s.iterations = *iters;
    s.discoveries = *discoveries;
    for &v in latencies {
        s.exec_latency_ns.record(v);
    }
    for &(op, earned) in ops {
        record_yield(&mut s.yields, op % 8, earned);
    }
    s
}

fn stats_strategy() -> impl Strategy<Value = RawStats> {
    (
        0..1_000_000u64,
        0..1_000_000u64,
        0..1_000u64,
        prop::collection::vec(any::<u64>(), 0..32),
        prop::collection::vec((any::<usize>(), any::<bool>()), 0..32),
    )
}

proptest! {
    /// Every value lands in a bucket whose bounds bracket it, so the
    /// bucketing round-trips: bound(index(v)) covers v.
    #[test]
    fn bucket_bounds_bracket_every_value(value in any::<u64>()) {
        let index = Histogram::bucket_index(value);
        prop_assert!(index < cftcg_telemetry::BUCKETS);
        prop_assert!(Histogram::bucket_lower_bound(index) <= value);
        prop_assert!(value <= Histogram::bucket_upper_bound(index));
    }

    /// Merging histograms is commutative: a+b == b+a, element-wise.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// A merged histogram equals one built from the concatenated stream —
    /// sharding the observations never changes the final shape.
    #[test]
    fn histogram_merge_matches_concatenation(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge_from(&histogram_of(&b));
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, histogram_of(&concat));
    }

    /// The quantile upper bound is an actual upper bound: at least `q·count`
    /// observations are ≤ it.
    #[test]
    fn quantile_upper_bound_is_sound(
        values in prop::collection::vec(0..1_000_000u64, 1..64),
        q in 0.0..=1.0f64,
    ) {
        let h = histogram_of(&values);
        let bound = h.quantile_upper_bound(q);
        let at_or_below = values.iter().filter(|&&v| v <= bound).count() as f64;
        prop_assert!(at_or_below >= (q * values.len() as f64).ceil().max(1.0));
    }

    /// Shard-stat merging is commutative, so the coordinator may fold worker
    /// reports in any arrival order.
    #[test]
    fn shard_stats_merge_is_commutative(
        a in stats_strategy(),
        b in stats_strategy(),
    ) {
        let (sa, sb) = (stats_of(&a), stats_of(&b));
        let mut ab = sa.clone();
        ab.merge_from(&sb);
        let mut ba = sb.clone();
        ba.merge_from(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Shard-stat merging is associative: (a+b)+c == a+(b+c), so batching
    /// deltas before the global merge is equivalent to merging one by one.
    #[test]
    fn shard_stats_merge_is_associative(
        a in stats_strategy(),
        b in stats_strategy(),
        c in stats_strategy(),
    ) {
        let (sa, sb, sc) = (stats_of(&a), stats_of(&b), stats_of(&c));
        let mut left = sa.clone();
        left.merge_from(&sb);
        left.merge_from(&sc);
        let mut bc = sb.clone();
        bc.merge_from(&sc);
        let mut right = sa.clone();
        right.merge_from(&bc);
        prop_assert_eq!(left, right);
    }

    /// delta_since inverts merge_from: baseline + (current − baseline)
    /// reconstructs current exactly.
    #[test]
    fn delta_since_inverts_merge(
        base in stats_strategy(),
        extra in stats_strategy(),
    ) {
        let baseline = stats_of(&base);
        let mut current = baseline.clone();
        current.merge_from(&stats_of(&extra));
        let delta = current.delta_since(&baseline);
        let mut rebuilt = baseline.clone();
        rebuilt.merge_from(&delta);
        prop_assert_eq!(rebuilt, current);
    }

    /// The yield matrix never reports more coverage-earning executions than
    /// executions for any operator, through merge and delta alike.
    #[test]
    fn yield_new_coverage_never_exceeds_executed(
        ops in prop::collection::vec((any::<usize>(), any::<bool>()), 0..128),
        split in 0..128usize,
    ) {
        let mut a = YieldMatrix::new(4);
        let mut b = YieldMatrix::new(4);
        for (i, &(op, earned)) in ops.iter().enumerate() {
            record_yield(if i < split { &mut a } else { &mut b }, op % 4, earned);
        }
        let baseline = a.clone();
        a.merge_from(&b);
        let delta = a.delta_since(&baseline);
        for m in [&a, &delta] {
            for op in 0..4 {
                prop_assert!(
                    m.get(op, YieldOutcome::NewCoverage) <= m.get(op, YieldOutcome::Executed)
                );
            }
        }
    }
}
