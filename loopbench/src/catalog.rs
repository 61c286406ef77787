//! Every metric and workload the benchmark reports, with units and
//! directions. `BENCHMARK.json` at the repository root lists the same names
//! (checked by test).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by the untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", Lower),
    m("execs_per_s", "1/s", Higher),
    m("ticks_per_s", "1/s", Higher),
    m("goals_covered", "count", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Reported by the traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 24] = [
    m("model.load_s", "s", Lower),
    m("codegen.compile_s", "s", Lower),
    m("codegen.jit_s", "s", Lower),
    m("codegen.flat_ops", "count", Lower),
    m("codegen.step_ns_per_tick", "ns", Lower),
    m("coverage.probe_ns_per_tick", "ns", Lower),
    m("coverage.bookkeeping_ns_per_tick", "ns", Lower),
    m("coverage.replay_ns_per_case", "ns", Lower),
    m("fuzz.mutate_ns_per_exec", "ns", Lower),
    m("fuzz.corpus_ns_per_exec", "ns", Lower),
    m("fuzz.loop_ns_per_tick", "ns", Lower),
    m("fuzz.residual_ns_per_tick", "ns", Lower),
    m("fuzz.ticks_per_exec", "ticks", Lower),
    m("fuzz.useful_ratio", "ratio", Higher),
    m("fuzz.emitted_cases", "count", Higher),
    m("fuzz.corpus_inserts", "count", Higher),
    m("fuzz.time_to_coverage_s", "s", Lower),
    m("fuzz.last_goal_execs", "count", Lower),
    m("parallel.scaling", "ratio", Higher),
    m("parallel.sync_pct", "%", Lower),
    m("parallel.w1_ticks_per_exec", "ticks", Lower),
    m("parallel.w2_ticks_per_exec", "ticks", Lower),
    m("telemetry.overhead_pct", "%", Lower),
    m("core.artifact_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use cftcg_telemetry::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_plain_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.map(Workload::name));
        for name in &names {
            assert!(valid_name(name), "{name} is not [A-Za-z0-9_.-]+");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap_or_default().to_vec();
        let field =
            |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        for (key, metrics) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = metrics
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalog");
        }
        let setup = list("end_to_end").into_iter().find(|m| field(m, "name") == "setup_s");
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let setup_bound = bound(&setup.expect("setup_s is listed"));
        for m in list("end_to_end") {
            assert!(bound(&m) <= setup_bound && bound(&m) <= 0.25, "{} bound", field(&m, "name"));
        }
    }
}
