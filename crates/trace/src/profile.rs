//! Per-block profiling: a [`BlockObserver`] that attributes interpreter
//! wall-clock time to block *kinds*, aggregated into the telemetry layer's
//! [`KindCost`] accumulators.
//!
//! Profiling runs at replay/audit time on the interpreter (the VM inlines
//! block boundaries away, so it has nothing to attribute) and never in the
//! fuzzing hot path — the fuzzer's outcomes stay byte-identical.

use std::collections::BTreeMap;

use cftcg_codegen::CompiledModel;
use cftcg_model::Model;
use cftcg_sim::{BlockObserver, SimError, Simulator};
use cftcg_telemetry::{BlockCost, KindCost, Telemetry};

use crate::probe::decode_tuple;

/// A per-block-kind execution profile. Keys are `BlockKind::tag` strings;
/// a `BTreeMap` keeps reports deterministic.
#[derive(Debug, Clone, Default)]
pub struct BlockProfile {
    kinds: BTreeMap<&'static str, KindCost>,
}

impl BlockProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct block kinds observed.
    pub fn kind_count(&self) -> usize {
        self.kinds.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The per-kind rows, hottest-first (total ns desc, then name for ties).
    pub fn hottest(&self) -> Vec<BlockCost> {
        KindCost::rows(self.kinds.iter().map(|(kind, cost)| (*kind, cost)))
    }

    /// Folds this profile into the telemetry registry (and through it, the
    /// Prometheus exposition and status reports).
    pub fn merge_into(&self, telemetry: &Telemetry) {
        for (kind, cost) in &self.kinds {
            telemetry.merge_block_cost(kind, cost);
        }
    }
}

impl BlockObserver for BlockProfile {
    const ENABLED: bool = true;

    fn block(&mut self, kind: &'static str, nanos: u64) {
        self.kinds.entry(kind).or_default().record(nanos);
    }
}

/// Replays one input byte string on the interpreter with the profiler
/// attached, attributing per-block time into `profile`. Returns the number
/// of ticks executed.
///
/// # Errors
///
/// Propagates interpreter stepping errors.
pub fn profile_case(
    model: &Model,
    compiled: &CompiledModel,
    bytes: &[u8],
    profile: &mut BlockProfile,
) -> Result<u64, SimError> {
    let mut sim = Simulator::new(model)
        .map_err(|e| SimError::Eval(format!("model failed validation: {e}")))?;
    let mut inputs = Vec::new();
    let mut ticks = 0u64;
    for tuple in compiled.layout().split(bytes) {
        decode_tuple(compiled, tuple, &mut inputs);
        sim.step_observed(&inputs, profile)?;
        ticks += 1;
    }
    Ok(ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_codegen::compile;
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    #[test]
    fn profile_attributes_every_block_kind() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let g = b.add("g", BlockKind::Gain { gain: 3.0 });
        let sat = b.add("sat", BlockKind::Saturation { lower: 0.0, upper: 1.0 });
        let y = b.outport("y");
        b.wire(u, g);
        b.wire(g, sat);
        b.wire(sat, y);
        let model = b.finish().unwrap();
        let compiled = compile(&model).unwrap();

        let mut profile = BlockProfile::new();
        let bytes = vec![0u8; compiled.layout().tuple_size() * 5];
        let ticks = profile_case(&model, &compiled, &bytes, &mut profile).unwrap();
        assert_eq!(ticks, 5);
        let rows = profile.hottest();
        let kinds: Vec<&str> = rows.iter().map(|row| row.kind.as_str()).collect();
        assert!(kinds.contains(&"Gain"));
        assert!(kinds.contains(&"Saturation"));
        for row in &rows {
            assert_eq!(row.executions, 5);
        }
        // The latency histogram saw every execution too.
        let registry = Telemetry::new();
        profile.merge_into(&registry);
        assert_eq!(registry.snapshot().block_ns.count(), 5 * rows.len() as u64);
    }
}
