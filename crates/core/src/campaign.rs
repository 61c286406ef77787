//! The persisted campaign artifact: one JSON document holding everything
//! the forensic front ends (`cftcg explain`, the HTML campaign explorer)
//! need to reconstruct a finished campaign — the emitted suite with its
//! per-case metadata and raw bytes, the input lineage DAG, and the per-goal
//! first-hit provenance.
//!
//! The document is written by `cftcg fuzz --out DIR` next to the CSV test
//! cases and read back by `cftcg explain` / `cftcg report --html`, possibly
//! on another machine. Serialization is hand-rolled (the workspace builds
//! offline, so no serde) against the same minimal JSON support the
//! telemetry JSONL sinks use; parsing reuses
//! [`cftcg_telemetry::json::Json`]. The executed observations
//! ([`FullTracker`](cftcg_coverage::FullTracker)) are deliberately *not*
//! serialized — the suite bytes are, and replaying them through the
//! compiled model reproduces the tracker exactly, which keeps the artifact
//! small and makes the frontier/score shown by the front ends verifiable
//! from first principles.
//!
//! Numbers are stored as JSON numbers and parsed as `f64`: every value the
//! artifact holds (execution counts, shard-strided lineage ids of
//! `shard * 2^40 + n`) stays far below 2^53, so the round trip is exact.

use std::fmt::Write as _;

use cftcg_coverage::{Goal, InstrumentationMap};
use cftcg_fuzz::{
    Generation, Lineage, LineageOrigin, LineageRecord, MutationKind, SHARD_ID_STRIDE,
};
use cftcg_telemetry::json::{push_json_f64, push_json_str, Json};
use cftcg_telemetry::{SeriesPoint, YieldReport};

/// One emitted test case with its forensic metadata and raw driver bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCase {
    /// Shard-strided lineage id (resolves into [`CampaignArtifact::lineage`]).
    pub id: u64,
    /// Shard that discovered the case.
    pub shard: usize,
    /// Campaign execution index when the case was emitted.
    pub executions: u64,
    /// Cumulative covered branches after this case was emitted.
    pub covered_branches: usize,
    /// Emission wall-clock offset since campaign start, in seconds.
    pub t_s: f64,
    /// The raw fuzz-driver byte stream of the case.
    pub bytes: Vec<u8>,
}

/// First-hit provenance of one covered goal (the serializable projection of
/// [`FirstHit`](cftcg_coverage::FirstHit)).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignHit {
    /// The covered goal.
    pub goal: Goal,
    /// Campaign execution index of the covering input.
    pub executions: u64,
    /// Wall-clock offset of the covering input, in seconds.
    pub elapsed_s: f64,
    /// Shard that discovered the covering input.
    pub shard: usize,
    /// Lineage id of the covering test case.
    pub case: u64,
    /// Mutation-operator chain (Table 1 indices) of the covering input's
    /// final mutation round. Empty for seeds and bootstraps.
    pub ops: Vec<u8>,
}

/// Host identity of the machine a campaign ran on, recorded so `cftcg diff`
/// can flag apples-to-oranges comparisons (different core counts or
/// architectures make throughput-derived numbers incomparable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostMeta {
    /// Available hardware parallelism at campaign start.
    pub cores: u64,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

/// Aggregate cost of one profiled span kind — the serializable projection
/// of [`cftcg_telemetry::SpanReport`] (which borrows its name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span kind name (taxonomy spelling, e.g. `execution`).
    pub name: String,
    /// Spans recorded.
    pub count: u64,
    /// Total attributed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Upper bound of the median latency bucket.
    pub p50_ns: u64,
    /// Upper bound of the 99th-percentile latency bucket.
    pub p99_ns: u64,
}

/// A complete persisted campaign: run identity, the suite with forensics,
/// the lineage DAG, and per-goal provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArtifact {
    /// Model name the campaign ran against.
    pub model: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Worker shard count (1 for sequential runs).
    pub workers: usize,
    /// Total inputs executed.
    pub executions: u64,
    /// Total model iterations executed.
    pub iterations: u64,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_s: f64,
    /// Size of the model's branch-probe universe.
    pub branch_count: usize,
    /// Branches covered by the campaign.
    pub covered_branches: usize,
    /// The emitted suite, in emission order.
    pub cases: Vec<CampaignCase>,
    /// The input lineage DAG, in mint order.
    pub lineage: Vec<LineageRecord>,
    /// Per-goal first-hit provenance, in canonical goal order.
    pub hits: Vec<CampaignHit>,
    /// The telemetry coverage/throughput time series (bounded ring,
    /// oldest first). Empty when the campaign ran without telemetry or the
    /// artifact predates the series schema.
    pub series: Vec<SeriesPoint>,
    /// Resolved execution engine (`ref` / `flat` / `jit`). Attached by the
    /// CLI after the run — never by [`from_generation`](Self::from_generation),
    /// whose output must stay byte-identical across engines. `None` for
    /// artifacts that predate the comparison schema.
    pub engine: Option<String>,
    /// Host identity. CLI-attached like [`engine`](Self::engine); `None`
    /// for pre-comparison artifacts.
    pub host: Option<HostMeta>,
    /// The mutation-yield matrix (per-operator outcome counters, Table-1
    /// order). Part of the deterministic search trajectory, so populated by
    /// [`from_generation`](Self::from_generation) directly. Empty for
    /// generators that record no yields and for pre-comparison artifacts.
    pub yields: Vec<YieldReport>,
    /// Span-profile summary (per-phase wall-clock attribution). Wall-clock
    /// derived, so CLI-attached only when telemetry ran; empty otherwise.
    pub spans: Vec<SpanSummary>,
}

impl CampaignArtifact {
    /// Captures a finished generation as a persistable artifact. Generators
    /// that do not track forensics (empty `suite_meta`, no provenance)
    /// degrade gracefully: case ids fall back to suite indices and the hit
    /// list stays empty.
    pub fn from_generation(
        model: &str,
        seed: u64,
        workers: usize,
        generation: &Generation,
        map: &InstrumentationMap,
    ) -> Self {
        let cases = generation
            .suite
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let meta = generation.suite_meta.get(i);
                CampaignCase {
                    id: meta.map_or(i as u64, |m| m.case),
                    shard: meta.map_or(0, |m| m.shard),
                    executions: meta.map_or(0, |m| m.executions),
                    covered_branches: meta.map_or(0, |m| m.covered_branches),
                    t_s: generation.case_times.get(i).map_or(0.0, |t| t.as_secs_f64()),
                    bytes: case.bytes.clone(),
                }
            })
            .collect();
        let hits = generation.provenance.as_ref().map_or_else(Vec::new, |p| {
            p.covered_goals(map)
                .into_iter()
                .map(|(goal, hit)| CampaignHit {
                    goal,
                    executions: hit.executions,
                    elapsed_s: hit.elapsed.as_secs_f64(),
                    shard: hit.shard,
                    case: hit.case,
                    ops: hit.ops.clone(),
                })
                .collect()
        });
        let covered_branches = generation
            .provenance
            .as_ref()
            .map(|p| p.covered_counts().0)
            .or_else(|| generation.suite_meta.last().map(|m| m.covered_branches))
            .unwrap_or(0);
        CampaignArtifact {
            model: model.to_string(),
            seed,
            workers,
            executions: generation.executions,
            iterations: generation.iterations,
            elapsed_s: generation.elapsed.as_secs_f64(),
            branch_count: map.branch_count(),
            covered_branches,
            cases,
            lineage: generation.lineage.clone(),
            hits,
            // The generation itself carries no wall-clock series; the CLI
            // attaches the registry's ring after the run when telemetry was
            // on (keeping this constructor deterministic for byte-identity
            // tests).
            series: Vec::new(),
            // Engine, host, and span profile are likewise CLI-attached:
            // the same generation must serialize identically whichever
            // engine executed it and whether telemetry observed it.
            engine: None,
            host: None,
            // The yield matrix is part of the search trajectory itself —
            // identical across engines and observation setups — so it is
            // safe to persist here.
            yields: generation.yield_reports(),
            spans: Vec::new(),
        }
    }

    /// The lineage DAG rebuilt for ancestry queries.
    pub fn lineage_dag(&self) -> Lineage {
        Lineage::from_records(self.lineage.clone())
    }

    /// Looks an emitted case up by lineage id.
    pub fn case(&self, id: u64) -> Option<&CampaignCase> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// Serializes the artifact as one JSON document (line-structured:
    /// one case / lineage record / hit per line, for diffability).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n\"model\":");
        push_json_str(&mut out, &self.model);
        let _ = write!(out, ",\n\"seed\":{},\n\"workers\":{}", self.seed, self.workers);
        let _ = write!(
            out,
            ",\n\"executions\":{},\n\"iterations\":{}",
            self.executions, self.iterations
        );
        out.push_str(",\n\"elapsed_s\":");
        push_json_f64(&mut out, self.elapsed_s);
        let _ = write!(
            out,
            ",\n\"branch_count\":{},\n\"covered_branches\":{}",
            self.branch_count, self.covered_branches
        );
        out.push_str(",\n\"cases\":[");
        for (i, case) in self.cases.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"id\":{},\"shard\":{},\"executions\":{},\"covered_branches\":{},\"t_s\":",
                case.id, case.shard, case.executions, case.covered_branches
            );
            push_json_f64(&mut out, case.t_s);
            let _ = write!(out, ",\"bytes\":\"{}\"}}", to_hex(&case.bytes));
        }
        out.push_str("],\n\"lineage\":[");
        for (i, record) in self.lineage.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "{{\"id\":{},\"parent\":", record.id);
            push_opt_u64(&mut out, record.parent);
            out.push_str(",\"crossover\":");
            push_opt_u64(&mut out, record.crossover);
            out.push_str(",\"ops\":[");
            for (j, op) in record.ops.iter().enumerate() {
                let _ = write!(out, "{}{}", if j == 0 { "" } else { "," }, op.index());
            }
            let _ = write!(
                out,
                "],\"origin\":\"{}\",\"shard\":{},\"executions\":{}}}",
                record.origin.tag(),
                record.shard,
                record.executions
            );
        }
        out.push_str("],\n\"hits\":[");
        for (i, hit) in self.hits.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"goal\":");
            push_goal(&mut out, hit.goal);
            let _ = write!(out, ",\"executions\":{},\"elapsed_s\":", hit.executions);
            push_json_f64(&mut out, hit.elapsed_s);
            let _ = write!(out, ",\"shard\":{},\"case\":{},\"ops\":[", hit.shard, hit.case);
            for (j, op) in hit.ops.iter().enumerate() {
                let _ = write!(out, "{}{}", if j == 0 { "" } else { "," }, op);
            }
            out.push_str("]}");
        }
        out.push_str("],\n\"series\":[");
        for (i, point) in self.series.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"t_s\":");
            push_json_f64(&mut out, point.t_s);
            let _ = write!(
                out,
                ",\"executions\":{},\"covered\":{},\"branch_count\":{},\"corpus\":{},\"frontier_open\":{}",
                point.executions, point.covered, point.branch_count, point.corpus,
                point.frontier_open
            );
            out.push_str(",\"execs_per_sec\":");
            push_json_f64(&mut out, point.execs_per_sec);
            out.push('}');
        }
        out.push_str("],\n\"engine\":");
        match &self.engine {
            Some(engine) => push_json_str(&mut out, engine),
            None => out.push_str("null"),
        }
        out.push_str(",\n\"host\":");
        match &self.host {
            Some(host) => {
                let _ = write!(out, "{{\"cores\":{},\"arch\":", host.cores);
                push_json_str(&mut out, &host.arch);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\n\"yields\":[");
        for (i, row) in self.yields.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            row.push_json(&mut out);
        }
        out.push_str("],\n\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"name\":");
            push_json_str(&mut out, &span.name);
            let _ = write!(
                out,
                ",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                span.count, span.total_ns, span.p50_ns, span.p99_ns
            );
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses an artifact back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field when the document is
    /// not a valid campaign artifact.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("campaign artifact: {e}"))?;
        let cases = doc
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("campaign artifact: missing `cases` array")?
            .iter()
            .map(parse_case)
            .collect::<Result<Vec<_>, _>>()?;
        let lineage = doc
            .get("lineage")
            .and_then(Json::as_array)
            .ok_or("campaign artifact: missing `lineage` array")?
            .iter()
            .map(parse_lineage_record)
            .collect::<Result<Vec<_>, _>>()?;
        let hits = doc
            .get("hits")
            .and_then(Json::as_array)
            .ok_or("campaign artifact: missing `hits` array")?
            .iter()
            .map(parse_hit)
            .collect::<Result<Vec<_>, _>>()?;
        // Pre-series artifacts simply have no samples — not an error.
        let series = match doc.get("series") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("campaign artifact: `series` is not an array")?
                .iter()
                .map(parse_series_point)
                .collect::<Result<Vec<_>, _>>()?,
        };
        // Comparison-schema fields: artifacts written before `cftcg diff`
        // existed carry none of these and must keep loading.
        let engine = match doc.get("engine") {
            None | Some(Json::Null) => None,
            Some(v) => {
                Some(v.as_str().ok_or("campaign artifact: `engine` is not a string")?.to_string())
            }
        };
        let host = match doc.get("host") {
            None | Some(Json::Null) => None,
            Some(v) => Some(HostMeta {
                cores: field_u64(v, "cores")?,
                arch: v
                    .get("arch")
                    .and_then(Json::as_str)
                    .ok_or("campaign artifact: host missing `arch`")?
                    .to_string(),
            }),
        };
        let yields = match doc.get("yields") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("campaign artifact: `yields` is not an array")?
                .iter()
                .map(YieldReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let spans = match doc.get("spans") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("campaign artifact: `spans` is not an array")?
                .iter()
                .map(parse_span_summary)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(CampaignArtifact {
            model: doc
                .get("model")
                .and_then(Json::as_str)
                .ok_or("campaign artifact: missing `model`")?
                .to_string(),
            seed: field_u64(&doc, "seed")?,
            workers: field_u64(&doc, "workers")? as usize,
            executions: field_u64(&doc, "executions")?,
            iterations: field_u64(&doc, "iterations")?,
            elapsed_s: field_f64(&doc, "elapsed_s")?,
            branch_count: field_u64(&doc, "branch_count")? as usize,
            covered_branches: field_u64(&doc, "covered_branches")? as usize,
            cases,
            lineage,
            hits,
            series,
            engine,
            host,
            yields,
            spans,
        })
    }

    /// Checks that this campaign was recorded against `map`: the same
    /// branch-probe universe, and every first-hit goal inside it. Front
    /// ends resolve goal indices through the map, so a campaign from a
    /// different model must be refused before it is rendered.
    ///
    /// # Errors
    ///
    /// Returns a message naming the mismatch.
    pub fn check_against(&self, map: &InstrumentationMap) -> Result<(), String> {
        if self.branch_count != map.branch_count() {
            return Err(format!(
                "campaign of model `{}` has {} branches, the given model has {}",
                self.model,
                self.branch_count,
                map.branch_count()
            ));
        }
        for hit in &self.hits {
            let in_range = match hit.goal {
                Goal::Outcome(b) => b < map.branch_count(),
                Goal::Condition(c, _) | Goal::Mcdc(c) => c < map.condition_count(),
            };
            if !in_range {
                return Err(format!(
                    "campaign of model `{}` names goal {:?}, outside the given model",
                    self.model, hit.goal
                ));
            }
        }
        Ok(())
    }
}

/// Parses a case reference: the `s<shard>:<n>` form the reports print
/// (see [`cftcg_coverage::format_case_id`]) or a raw decimal lineage id.
pub fn parse_case_id(text: &str) -> Option<u64> {
    if let Some(rest) = text.strip_prefix('s') {
        let (shard, n) = rest.split_once(':')?;
        let shard: u64 = shard.parse().ok()?;
        let n: u64 = n.parse().ok()?;
        (n < SHARD_ID_STRIDE).then(|| shard.checked_mul(SHARD_ID_STRIDE))??.checked_add(n)
    } else {
        text.parse().ok()
    }
}

fn push_opt_u64(out: &mut String, value: Option<u64>) {
    match value {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

fn push_goal(out: &mut String, goal: Goal) {
    let _ = match goal {
        Goal::Outcome(b) => write!(out, "{{\"kind\":\"outcome\",\"index\":{b}}}"),
        Goal::Condition(c, v) => {
            write!(out, "{{\"kind\":\"condition\",\"index\":{c},\"value\":{v}}}")
        }
        Goal::Mcdc(c) => write!(out, "{{\"kind\":\"mcdc\",\"index\":{c}}}"),
    };
}

fn parse_goal(value: &Json) -> Result<Goal, String> {
    let kind = value.get("kind").and_then(Json::as_str).ok_or("hit: missing goal `kind`")?;
    let index = field_u64(value, "index")? as usize;
    match kind {
        "outcome" => Ok(Goal::Outcome(index)),
        "mcdc" => Ok(Goal::Mcdc(index)),
        "condition" => match value.get("value") {
            Some(Json::Bool(v)) => Ok(Goal::Condition(index, *v)),
            _ => Err("hit: condition goal missing boolean `value`".to_string()),
        },
        other => Err(format!("hit: unknown goal kind `{other}`")),
    }
}

fn field_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("campaign artifact: missing or non-integer `{key}`"))
}

fn field_f64(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("campaign artifact: missing or non-numeric `{key}`"))
}

fn opt_field_u64(value: &Json, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            v.as_u64().map(Some).ok_or_else(|| format!("campaign artifact: non-integer `{key}`"))
        }
    }
}

fn parse_case(value: &Json) -> Result<CampaignCase, String> {
    Ok(CampaignCase {
        id: field_u64(value, "id")?,
        shard: field_u64(value, "shard")? as usize,
        executions: field_u64(value, "executions")?,
        covered_branches: field_u64(value, "covered_branches")? as usize,
        t_s: field_f64(value, "t_s")?,
        bytes: from_hex(value.get("bytes").and_then(Json::as_str).ok_or("case: missing `bytes`")?)?,
    })
}

fn parse_lineage_record(value: &Json) -> Result<LineageRecord, String> {
    let ops = value
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("lineage record: missing `ops`")?
        .iter()
        .map(|op| {
            let idx = op.as_u64().ok_or("lineage record: non-integer op index")? as usize;
            MutationKind::ALL
                .get(idx)
                .copied()
                .ok_or_else(|| format!("lineage record: op index {idx} out of Table-1 range"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let origin = match value.get("origin").and_then(Json::as_str) {
        Some("bootstrap") => LineageOrigin::Bootstrap,
        Some("external") => LineageOrigin::External,
        Some("mutant") => LineageOrigin::Mutant,
        Some(other) => return Err(format!("lineage record: unknown origin `{other}`")),
        None => return Err("lineage record: missing `origin`".to_string()),
    };
    Ok(LineageRecord {
        id: field_u64(value, "id")?,
        parent: opt_field_u64(value, "parent")?,
        crossover: opt_field_u64(value, "crossover")?,
        ops,
        origin,
        shard: field_u64(value, "shard")? as usize,
        executions: field_u64(value, "executions")?,
    })
}

fn parse_series_point(value: &Json) -> Result<SeriesPoint, String> {
    Ok(SeriesPoint {
        t_s: field_f64(value, "t_s")?,
        executions: field_u64(value, "executions")?,
        covered: field_u64(value, "covered")? as usize,
        branch_count: field_u64(value, "branch_count")? as usize,
        corpus: field_u64(value, "corpus")?,
        frontier_open: field_u64(value, "frontier_open")? as usize,
        execs_per_sec: field_f64(value, "execs_per_sec")?,
    })
}

fn parse_span_summary(value: &Json) -> Result<SpanSummary, String> {
    Ok(SpanSummary {
        name: value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("span summary: missing `name`")?
            .to_string(),
        count: field_u64(value, "count")?,
        total_ns: field_u64(value, "total_ns")?,
        p50_ns: field_u64(value, "p50_ns")?,
        p99_ns: field_u64(value, "p99_ns")?,
    })
}

fn parse_hit(value: &Json) -> Result<CampaignHit, String> {
    let ops = value
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("hit: missing `ops`")?
        .iter()
        .map(|op| {
            op.as_u64()
                .filter(|&v| v < MutationKind::ALL.len() as u64)
                .map(|v| v as u8)
                .ok_or("hit: op index out of Table-1 range".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignHit {
        goal: parse_goal(value.get("goal").ok_or("hit: missing `goal`")?)?,
        executions: field_u64(value, "executions")?,
        elapsed_s: field_f64(value, "elapsed_s")?,
        shard: field_u64(value, "shard")? as usize,
        case: field_u64(value, "case")?,
        ops,
    })
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("case: odd-length hex byte string".to_string());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(text.get(i..i + 2).ok_or("case: non-ASCII hex")?, 16)
                .map_err(|_| format!("case: invalid hex at offset {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_model::{BlockKind, DataType, ModelBuilder};

    fn sample_artifact() -> CampaignArtifact {
        CampaignArtifact {
            model: "demo \"quoted\"".to_string(),
            seed: 7,
            workers: 2,
            executions: 1234,
            iterations: 5678,
            elapsed_s: 1.25,
            branch_count: 10,
            covered_branches: 8,
            cases: vec![CampaignCase {
                id: SHARD_ID_STRIDE + 3,
                shard: 1,
                executions: 17,
                covered_branches: 4,
                t_s: 0.5,
                bytes: vec![0x00, 0xff, 0x7f],
            }],
            lineage: vec![
                LineageRecord {
                    id: 0,
                    parent: None,
                    crossover: None,
                    ops: vec![],
                    origin: LineageOrigin::Bootstrap,
                    shard: 0,
                    executions: 1,
                },
                LineageRecord {
                    id: SHARD_ID_STRIDE + 3,
                    parent: Some(0),
                    crossover: Some(0),
                    ops: vec![MutationKind::TuplesCrossOver, MutationKind::EraseTuples],
                    origin: LineageOrigin::Mutant,
                    shard: 1,
                    executions: 17,
                },
            ],
            hits: vec![
                CampaignHit {
                    goal: Goal::Outcome(2),
                    executions: 17,
                    elapsed_s: 0.5,
                    shard: 1,
                    case: SHARD_ID_STRIDE + 3,
                    ops: vec![7, 2],
                },
                CampaignHit {
                    goal: Goal::Condition(1, true),
                    executions: 1,
                    elapsed_s: 0.0,
                    shard: 0,
                    case: 0,
                    ops: vec![],
                },
                CampaignHit {
                    goal: Goal::Mcdc(1),
                    executions: 17,
                    elapsed_s: 0.5,
                    shard: 1,
                    case: SHARD_ID_STRIDE + 3,
                    ops: vec![7, 2],
                },
            ],
            series: vec![SeriesPoint {
                t_s: 0.5,
                executions: 17,
                covered: 4,
                branch_count: 10,
                corpus: 2,
                frontier_open: 6,
                execs_per_sec: 34.0,
            }],
            engine: Some("flat".to_string()),
            host: Some(HostMeta { cores: 8, arch: "x86_64".to_string() }),
            yields: vec![YieldReport {
                name: "EraseTuples".to_string(),
                executed: 40,
                new_coverage: 3,
                corpus_insert: 2,
                violation: 0,
            }],
            spans: vec![SpanSummary {
                name: "execution".to_string(),
                count: 17,
                total_ns: 120_000,
                p50_ns: 6_000,
                p99_ns: 20_000,
            }],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let artifact = sample_artifact();
        let json = artifact.to_json();
        let parsed = CampaignArtifact::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, artifact);
        // Serializing the parse reproduces the exact document.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn seeds_beyond_f64_precision_round_trip() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let artifact = CampaignArtifact { seed, ..sample_artifact() };
            let json = artifact.to_json();
            let parsed = CampaignArtifact::from_json(&json).expect("round trip parses");
            assert_eq!(parsed.seed, seed);
            assert_eq!(parsed.to_json(), json);
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_field_names() {
        assert!(CampaignArtifact::from_json("not json").is_err());
        let err = CampaignArtifact::from_json("{\"model\":\"m\"}").unwrap_err();
        assert!(err.contains("cases"), "{err}");
        let doc =
            sample_artifact().to_json().replace("\"origin\":\"mutant\"", "\"origin\":\"alien\"");
        assert!(CampaignArtifact::from_json(&doc).unwrap_err().contains("alien"));
        let doc = sample_artifact().to_json().replace("\"bytes\":\"00ff7f\"", "\"bytes\":\"00f\"");
        assert!(CampaignArtifact::from_json(&doc).unwrap_err().contains("hex"));
        let doc = sample_artifact().to_json().replace("\"series\":[", "\"series\":{},\"x\":[");
        assert!(CampaignArtifact::from_json(&doc).unwrap_err().contains("series"));
    }

    #[test]
    fn pre_series_documents_still_parse() {
        // Artifacts written before the series schema have no `series` key
        // (and a fortiori none of the comparison-schema keys either); they
        // must load with empty defaults, not fail.
        let mut artifact = sample_artifact();
        let json = artifact.to_json();
        let start = json.find(",\n\"series\":[").expect("series key present");
        let end = json.rfind(']').expect("last array close");
        let legacy = format!("{}{}", &json[..start], &json[end + 1..]);
        let parsed = CampaignArtifact::from_json(&legacy).expect("legacy artifact parses");
        assert!(parsed.series.is_empty());
        assert_eq!(parsed.engine, None);
        assert_eq!(parsed.host, None);
        assert!(parsed.yields.is_empty() && parsed.spans.is_empty());
        artifact.series.clear();
        artifact.engine = None;
        artifact.host = None;
        artifact.yields.clear();
        artifact.spans.clear();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn null_engine_and_host_round_trip() {
        // A run without telemetry writes `engine`/`host` as null and empty
        // spans; the round trip must preserve that exactly.
        let mut artifact = sample_artifact();
        artifact.engine = None;
        artifact.host = None;
        artifact.spans.clear();
        let json = artifact.to_json();
        assert!(json.contains("\"engine\":null"));
        assert!(json.contains("\"host\":null"));
        let parsed = CampaignArtifact::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, artifact);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn case_id_parsing_accepts_both_forms() {
        assert_eq!(parse_case_id("s0:5"), Some(5));
        assert_eq!(parse_case_id("s3:17"), Some(3 * SHARD_ID_STRIDE + 17));
        assert_eq!(parse_case_id("42"), Some(42));
        assert_eq!(parse_case_id("s1"), None);
        assert_eq!(parse_case_id("sx:1"), None);
        // Round trip with the canonical renderer.
        let id = 2 * SHARD_ID_STRIDE + 9;
        assert_eq!(parse_case_id(&cftcg_coverage::format_case_id(id)), Some(id));
    }

    #[test]
    fn from_generation_captures_forensics_of_a_real_run() {
        let mut b = ModelBuilder::new("sat");
        let u = b.inport("u", DataType::I8);
        let sat = b.add("s", BlockKind::Saturation { lower: -10.0, upper: 10.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        let tool = crate::Cftcg::new(&b.finish().unwrap()).unwrap();
        let generation = tool.generate_executions(2_000, 3);
        let map = tool.compiled().map();
        let artifact = CampaignArtifact::from_generation("sat", 3, 1, &generation, map);

        assert_eq!(artifact.cases.len(), generation.suite.len());
        assert_eq!(artifact.executions, generation.executions);
        assert_eq!(artifact.branch_count, map.branch_count());
        assert!(artifact.covered_branches > 0);
        assert!(!artifact.hits.is_empty(), "a real run covers goals");
        assert!(
            artifact.yields.iter().any(|y| y.executed > 0),
            "a real run records mutation yields"
        );
        assert!(artifact.engine.is_none() && artifact.spans.is_empty(), "CLI-attached only");
        // Every hit's case resolves through the lineage DAG to a root.
        let dag = artifact.lineage_dag();
        for hit in &artifact.hits {
            let chain = dag.chain(hit.case);
            assert!(!chain.is_empty(), "hit case {} missing from lineage", hit.case);
            assert!(chain.last().unwrap().parent.is_none());
        }
        // And the whole artifact survives persistence.
        let parsed = CampaignArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn check_against_refuses_another_models_campaign() {
        let mut b = ModelBuilder::new("sat");
        let u = b.inport("u", DataType::I8);
        let sat = b.add("s", BlockKind::Saturation { lower: -10.0, upper: 10.0 });
        let y = b.outport("y");
        b.wire(u, sat);
        b.wire(sat, y);
        let tool = crate::Cftcg::new(&b.finish().unwrap()).unwrap();
        let map = tool.compiled().map();
        let generation = tool.generate_executions(500, 3);
        let artifact = CampaignArtifact::from_generation("sat", 3, 1, &generation, map);
        assert_eq!(artifact.check_against(map), Ok(()));

        let mut wider = artifact.clone();
        wider.branch_count += 1;
        assert!(wider.check_against(map).unwrap_err().contains("branches"));

        let mut stray = artifact.clone();
        stray.hits[0].goal = Goal::Outcome(map.branch_count());
        assert!(stray.check_against(map).unwrap_err().contains("outside"));
        stray.hits[0].goal = Goal::Mcdc(map.condition_count());
        assert!(stray.check_against(map).is_err());
    }
}
