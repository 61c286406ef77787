//! The campaign event schema: everything the JSONL sink can log.
//!
//! One event per line, serialized as a flat JSON object with a `"type"`
//! discriminator and a `"t"` wall-clock offset in seconds since the
//! campaign started. The schema is documented in DESIGN.md §5c and consumed
//! by `cftcg report`.

use crate::json::{push_json_f64, push_json_str, Json};
use crate::span::SpanReport;

/// One mutation operator's yield-matrix row, carried by
/// [`Event::CampaignEnd`] (and the snapshot/report surfaces).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YieldReport {
    /// Mutation-operator name (Table 1 spelling).
    pub name: String,
    /// Candidate executions whose mutation chain included this operator.
    pub executed: u64,
    /// Of those, how many covered at least one new branch.
    pub new_coverage: u64,
    /// Of those, how many were committed to the corpus.
    pub corpus_insert: u64,
    /// Of those, how many first witnessed an assertion violation.
    pub violation: u64,
}

impl YieldReport {
    /// Appends the row as one JSON object: the spelling the JSONL log,
    /// `/snapshot` and campaign.json share.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        push_json_str(out, &self.name);
        out.push_str(&format!(
            ",\"executed\":{},\"new_coverage\":{},\"corpus_insert\":{},\"violation\":{}}}",
            self.executed, self.new_coverage, self.corpus_insert, self.violation
        ));
    }

    /// Parses a row written by [`YieldReport::push_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &Json) -> Result<YieldReport, String> {
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("yield row: missing or non-integer `{key}`"))
        };
        Ok(YieldReport {
            name: value
                .get("name")
                .and_then(Json::as_str)
                .ok_or("yield row: missing `name`")?
                .into(),
            executed: field("executed")?,
            new_coverage: field("new_coverage")?,
            corpus_insert: field("corpus_insert")?,
            violation: field("violation")?,
        })
    }
}

/// One still-open goal named by a [`Event::Plateau`] frontier diff: the
/// goal's human-readable label and its frontier cause classification tag
/// (pre-rendered by the fuzz layer — telemetry stays coverage-agnostic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlateauGoal {
    /// The goal label (e.g. `charge_ok outcome=true`).
    pub label: String,
    /// The frontier cause tag (e.g. `unreached-decision`, `mcdc-pair`).
    pub cause: String,
}

/// A campaign event. Field names below match the JSON keys exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The campaign began: identity and shape of the run.
    CampaignStart {
        /// Model name.
        model: String,
        /// Base RNG seed.
        seed: u64,
        /// Worker-shard count (1 = sequential).
        workers: usize,
        /// Wall-clock budget in milliseconds (`None` for execution budgets).
        budget_ms: Option<u64>,
        /// Total branch probes in the instrumentation map.
        branch_count: usize,
    },
    /// An externally supplied seed input entered the corpus.
    SeedAdded {
        /// Originating shard.
        shard: usize,
        /// Executions completed when the seed was absorbed.
        executions: u64,
        /// Seconds since campaign start.
        t: f64,
    },
    /// An input covered at least one new branch and was emitted as a test
    /// case. In parallel campaigns these carry *global* novelty (judged by
    /// the coordinator's re-execution), so `covered` is monotone.
    NewCoverage {
        /// Discovering shard.
        shard: usize,
        /// Executions completed at discovery.
        executions: u64,
        /// Total branches covered after this input.
        covered: usize,
        /// Total branch probes.
        total: usize,
        /// Seconds since campaign start.
        t: f64,
    },
    /// First witness for an assertion violation.
    Violation {
        /// Discovering shard.
        shard: usize,
        /// Assertion index in the instrumentation map.
        assertion: usize,
        /// Assertion label.
        label: String,
        /// Seconds since campaign start.
        t: f64,
    },
    /// The corpus replaced a retained entry (churn signal).
    CorpusEvict {
        /// Shard whose corpus evicted.
        shard: usize,
        /// Corpus size after the eviction.
        corpus_len: usize,
        /// Seconds since campaign start.
        t: f64,
    },
    /// Lineage of a newly emitted test case: the mutation round that
    /// produced it and its ancestry links, keyed by stable shard-strided
    /// case ids. One event per suite entry, emitted right after its
    /// `new-coverage` event, so the JSONL stream carries the full lineage
    /// DAG of the emitted suite.
    CaseLineage {
        /// Shard that minted the case.
        shard: usize,
        /// Stable case id (shard-strided).
        case: u64,
        /// Parent case id (`None` for bootstrap tuples and seeds).
        parent: Option<u64>,
        /// Crossover partner id, when `TuplesCrossOver` consulted one.
        crossover: Option<u64>,
        /// Mutation operators applied, in order (Table 1 spellings).
        ops: Vec<String>,
        /// Campaign executions when the case was emitted.
        executions: u64,
        /// Seconds since campaign start.
        t: f64,
    },
    /// The parallel coordinator finished a sync round.
    SyncRound {
        /// Round index (0-based).
        round: u64,
        /// Coordinator merge cost for this round, in milliseconds.
        duration_ms: f64,
        /// Candidate cases accepted as globally novel.
        accepted: usize,
        /// Corpus entries broadcast to other shards.
        broadcast: usize,
        /// Global executions after the round.
        executions: u64,
        /// Global branches covered after the round.
        covered: usize,
        /// Total branch probes.
        total: usize,
        /// Seconds since campaign start.
        t: f64,
    },
    /// Periodic span self-profiling summary: aggregate wall-clock
    /// attribution per engine phase (emitted on status ticks and at
    /// campaign end when spans were recorded).
    SpanSummary {
        /// One row per non-empty span kind, in taxonomy order.
        spans: Vec<SpanReport>,
        /// Seconds since campaign start.
        t: f64,
    },
    /// One point of a benchmark coverage-growth series (used by the bench
    /// binaries instead of ad-hoc CSV plumbing).
    BenchPoint {
        /// Generating tool (`CFTCG`, `SLDV`, …).
        tool: String,
        /// Model name.
        model: String,
        /// Series timestamp in seconds.
        t: f64,
        /// Branches covered at `t`.
        covered: usize,
        /// Total branch probes.
        total: usize,
    },
    /// The coverage frontier stalled: a full detection window of executions
    /// elapsed without a single new goal. Carries a frontier diff naming
    /// the still-open goals and their cause classifications, so a stalled
    /// campaign explains *what* it is stuck on. Fires once per quiet
    /// window; a campaign that stays stalled emits one event per window.
    Plateau {
        /// Shard that detected the stall (coordinator = 0).
        shard: usize,
        /// Executions completed when the window closed.
        executions: u64,
        /// Detection window width, in executions.
        window: u64,
        /// Branches covered (unchanged across the whole window).
        covered: usize,
        /// Total branch probes.
        total: usize,
        /// Open goals at detection time (full frontier size; `frontier`
        /// below may be capped).
        open: u64,
        /// The frontier diff: still-open goals with cause classifications
        /// (capped to the first [`PLATEAU_FRONTIER_CAP`] entries).
        frontier: Vec<PlateauGoal>,
        /// Seconds since campaign start.
        t: f64,
    },
    /// The campaign finished: final aggregates and the mutation yield.
    CampaignEnd {
        /// Inputs executed.
        executions: u64,
        /// Model iterations executed.
        iterations: u64,
        /// Branches covered at the end.
        covered: usize,
        /// Total branch probes.
        total: usize,
        /// Distinct assertions violated.
        violations: usize,
        /// Wall-clock seconds the campaign ran.
        elapsed_s: f64,
        /// Iteration throughput.
        iterations_per_second: f64,
        /// Per-operator × per-outcome mutation yield (empty when the
        /// campaign ran without yield accounting).
        yields: Vec<YieldReport>,
    },
}

/// Upper bound on frontier rows carried by one [`Event::Plateau`] — keeps
/// the JSONL line bounded on models with huge open frontiers.
pub const PLATEAU_FRONTIER_CAP: usize = 32;

impl Event {
    /// The `"type"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStart { .. } => "campaign-start",
            Event::SeedAdded { .. } => "seed-added",
            Event::NewCoverage { .. } => "new-coverage",
            Event::Violation { .. } => "violation",
            Event::CorpusEvict { .. } => "corpus-evict",
            Event::CaseLineage { .. } => "case-lineage",
            Event::SyncRound { .. } => "sync-round",
            Event::SpanSummary { .. } => "span-summary",
            Event::BenchPoint { .. } => "bench-point",
            Event::Plateau { .. } => "plateau",
            Event::CampaignEnd { .. } => "campaign-end",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"type\":");
        push_json_str(&mut out, self.kind());
        match self {
            Event::CampaignStart { model, seed, workers, budget_ms, branch_count } => {
                out.push_str(",\"model\":");
                push_json_str(&mut out, model);
                out.push_str(&format!(",\"seed\":{seed},\"workers\":{workers}"));
                match budget_ms {
                    Some(ms) => out.push_str(&format!(",\"budget_ms\":{ms}")),
                    None => out.push_str(",\"budget_ms\":null"),
                }
                out.push_str(&format!(",\"branch_count\":{branch_count}"));
            }
            Event::SeedAdded { shard, executions, t } => {
                out.push_str(&format!(",\"shard\":{shard},\"executions\":{executions},\"t\":"));
                push_json_f64(&mut out, *t);
            }
            Event::NewCoverage { shard, executions, covered, total, t } => {
                out.push_str(&format!(
                    ",\"shard\":{shard},\"executions\":{executions},\"covered\":{covered},\"total\":{total},\"t\":"
                ));
                push_json_f64(&mut out, *t);
            }
            Event::Violation { shard, assertion, label, t } => {
                out.push_str(&format!(",\"shard\":{shard},\"assertion\":{assertion},\"label\":"));
                push_json_str(&mut out, label);
                out.push_str(",\"t\":");
                push_json_f64(&mut out, *t);
            }
            Event::CorpusEvict { shard, corpus_len, t } => {
                out.push_str(&format!(",\"shard\":{shard},\"corpus_len\":{corpus_len},\"t\":"));
                push_json_f64(&mut out, *t);
            }
            Event::CaseLineage { shard, case, parent, crossover, ops, executions, t } => {
                out.push_str(&format!(",\"shard\":{shard},\"case\":{case},\"parent\":"));
                match parent {
                    Some(p) => out.push_str(&p.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(",\"crossover\":");
                match crossover {
                    Some(c) => out.push_str(&c.to_string()),
                    None => out.push_str("null"),
                }
                out.push_str(",\"ops\":[");
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, op);
                }
                out.push_str(&format!("],\"executions\":{executions},\"t\":"));
                push_json_f64(&mut out, *t);
            }
            Event::SyncRound {
                round,
                duration_ms,
                accepted,
                broadcast,
                executions,
                covered,
                total,
                t,
            } => {
                out.push_str(&format!(",\"round\":{round},\"duration_ms\":"));
                push_json_f64(&mut out, *duration_ms);
                out.push_str(&format!(
                    ",\"accepted\":{accepted},\"broadcast\":{broadcast},\"executions\":{executions},\"covered\":{covered},\"total\":{total},\"t\":"
                ));
                push_json_f64(&mut out, *t);
            }
            Event::SpanSummary { spans, t } => {
                out.push_str(",\"spans\":[");
                for (i, span) in spans.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    push_json_str(&mut out, span.name);
                    out.push_str(&format!(
                        ",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                        span.count, span.total_ns, span.p50_ns, span.p99_ns
                    ));
                }
                out.push_str("],\"t\":");
                push_json_f64(&mut out, *t);
            }
            Event::BenchPoint { tool, model, t, covered, total } => {
                out.push_str(",\"tool\":");
                push_json_str(&mut out, tool);
                out.push_str(",\"model\":");
                push_json_str(&mut out, model);
                out.push_str(",\"t\":");
                push_json_f64(&mut out, *t);
                out.push_str(&format!(",\"covered\":{covered},\"total\":{total}"));
            }
            Event::Plateau { shard, executions, window, covered, total, open, frontier, t } => {
                out.push_str(&format!(
                    ",\"shard\":{shard},\"executions\":{executions},\"window\":{window},\"covered\":{covered},\"total\":{total},\"open\":{open},\"frontier\":["
                ));
                for (i, goal) in frontier.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"label\":");
                    push_json_str(&mut out, &goal.label);
                    out.push_str(",\"cause\":");
                    push_json_str(&mut out, &goal.cause);
                    out.push('}');
                }
                out.push_str("],\"t\":");
                push_json_f64(&mut out, *t);
            }
            Event::CampaignEnd {
                executions,
                iterations,
                covered,
                total,
                violations,
                elapsed_s,
                iterations_per_second,
                yields,
            } => {
                out.push_str(&format!(
                    ",\"executions\":{executions},\"iterations\":{iterations},\"covered\":{covered},\"total\":{total},\"violations\":{violations},\"elapsed_s\":"
                ));
                push_json_f64(&mut out, *elapsed_s);
                out.push_str(",\"iterations_per_second\":");
                push_json_f64(&mut out, *iterations_per_second);
                out.push_str(",\"yields\":[");
                for (i, row) in yields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    row.push_json(&mut out);
                }
                out.push(']');
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn every_event_serializes_to_parseable_json() {
        let events = [
            Event::CampaignStart {
                model: "SolarPV".into(),
                seed: 7,
                workers: 4,
                budget_ms: Some(3_000),
                branch_count: 56,
            },
            Event::SeedAdded { shard: 0, executions: 1, t: 0.01 },
            Event::NewCoverage { shard: 2, executions: 512, covered: 12, total: 56, t: 0.5 },
            Event::Violation {
                shard: 1,
                assertion: 0,
                label: "overcharge \"guard\"".into(),
                t: 1.0,
            },
            Event::CorpusEvict { shard: 0, corpus_len: 256, t: 2.0 },
            Event::CaseLineage {
                shard: 1,
                case: (1 << 40) + 3,
                parent: Some(1 << 40),
                crossover: None,
                ops: vec!["InsertTuple".into(), "ChangeBinaryFloat".into()],
                executions: 741,
                t: 1.5,
            },
            Event::SyncRound {
                round: 3,
                duration_ms: 1.25,
                accepted: 2,
                broadcast: 2,
                executions: 4096,
                covered: 30,
                total: 56,
                t: 2.5,
            },
            Event::SpanSummary {
                spans: vec![SpanReport {
                    name: "execution",
                    count: 4_096,
                    total_ns: 9_000_000,
                    p50_ns: 2_047,
                    p99_ns: 16_383,
                }],
                t: 2.75,
            },
            Event::BenchPoint {
                tool: "CFTCG".into(),
                model: "TCP".into(),
                t: 0.2,
                covered: 9,
                total: 40,
            },
            Event::Plateau {
                shard: 0,
                executions: 9_000,
                window: 4_096,
                covered: 48,
                total: 56,
                open: 8,
                frontier: vec![PlateauGoal {
                    label: "charge_ok \"outcome\"=true".into(),
                    cause: "mcdc-pair".into(),
                }],
                t: 2.9,
            },
            Event::CampaignEnd {
                executions: 10_000,
                iterations: 1_000_000,
                covered: 50,
                total: 56,
                violations: 1,
                elapsed_s: 3.0,
                iterations_per_second: 333_333.3,
                yields: vec![YieldReport {
                    name: "EraseTuples".into(),
                    executed: 900,
                    new_coverage: 12,
                    corpus_insert: 40,
                    violation: 1,
                }],
            },
        ];
        for event in &events {
            let line = event.to_json();
            let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.get("type").unwrap().as_str(), Some(event.kind()));
        }
    }

    #[test]
    fn case_lineage_round_trips_ids_and_ops() {
        let event = Event::CaseLineage {
            shard: 0,
            case: 5,
            parent: None,
            crossover: Some(2),
            ops: vec!["EraseTuples".into()],
            executions: 10,
            t: 0.25,
        };
        let parsed = Json::parse(&event.to_json()).unwrap();
        assert_eq!(parsed.get("case").unwrap().as_u64(), Some(5));
        assert_eq!(parsed.get("parent"), Some(&Json::Null));
        assert_eq!(parsed.get("crossover").unwrap().as_u64(), Some(2));
        let ops = parsed.get("ops").unwrap().as_array().unwrap();
        assert_eq!(ops[0].as_str(), Some("EraseTuples"));
    }

    #[test]
    fn campaign_end_yields_round_trip() {
        let event = Event::CampaignEnd {
            executions: 1,
            iterations: 2,
            covered: 3,
            total: 4,
            violations: 0,
            elapsed_s: 0.5,
            iterations_per_second: 4.0,
            yields: vec![
                YieldReport {
                    name: "A".into(),
                    executed: 10,
                    new_coverage: 2,
                    corpus_insert: 5,
                    violation: 0,
                },
                YieldReport { name: "B".into(), executed: 20, ..YieldReport::default() },
            ],
        };
        let parsed = Json::parse(&event.to_json()).unwrap();
        assert_eq!(parsed.get("operators"), None);
        let yields = parsed.get("yields").unwrap().as_array().unwrap();
        assert_eq!(yields.len(), 2);
        assert_eq!(yields[0].get("name").unwrap().as_str(), Some("A"));
        assert_eq!(yields[0].get("corpus_insert").unwrap().as_u64(), Some(5));
        assert_eq!(yields[1].get("executed").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn plateau_frontier_round_trips() {
        let event = Event::Plateau {
            shard: 0,
            executions: 4_096,
            window: 2_048,
            covered: 10,
            total: 56,
            open: 46,
            frontier: vec![
                PlateauGoal { label: "a".into(), cause: "unreached-decision".into() },
                PlateauGoal { label: "b \"quoted\"".into(), cause: "mcdc-pair".into() },
            ],
            t: 1.0,
        };
        let parsed = Json::parse(&event.to_json()).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("plateau"));
        assert_eq!(parsed.get("open").unwrap().as_u64(), Some(46));
        assert_eq!(parsed.get("window").unwrap().as_u64(), Some(2_048));
        let frontier = parsed.get("frontier").unwrap().as_array().unwrap();
        assert_eq!(frontier.len(), 2);
        assert_eq!(frontier[1].get("label").unwrap().as_str(), Some("b \"quoted\""));
        assert_eq!(frontier[1].get("cause").unwrap().as_str(), Some("mcdc-pair"));
    }
}
