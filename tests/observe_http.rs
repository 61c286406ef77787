//! Integration test for the live observatory: a short SolarPV campaign
//! runs with a telemetry registry attached while an [`ObserveServer`] on
//! an ephemeral port serves `/metrics`, `/snapshot`, and the dashboard.
//! The endpoints are scraped over raw TCP *during* the run and must
//! reflect live campaign state, not just post-run totals.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cftcg::fuzz::FuzzConfig;
use cftcg::observe::{Observatory, ObserveServer};
use cftcg::telemetry::json::Json;
use cftcg::telemetry::{SpanKind, SpanTrace, Telemetry};
use cftcg::Cftcg;

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to observatory");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Parses `cftcg_executions_total <n>` out of a Prometheus exposition body.
fn executions_total(metrics: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix("cftcg_executions_total "))
        .and_then(|v| v.parse().ok())
        .expect("cftcg_executions_total present")
}

#[test]
fn live_solar_pv_campaign_serves_all_endpoints() {
    let model = cftcg::benchmarks::by_name("SolarPV").expect("bundled benchmark");
    let trace = SpanTrace::new();
    let telemetry =
        Arc::new(Telemetry::new().with_span_trace(trace.clone()).with_plateau_window(2_000));
    let server =
        ObserveServer::bind("127.0.0.1:0", Observatory::new(Arc::clone(&telemetry), model.name()))
            .expect("observatory binds an ephemeral port");
    let addr = server.local_addr();

    // Run the campaign in the background while this thread scrapes.
    let campaign = {
        let telemetry = Arc::clone(&telemetry);
        std::thread::spawn(move || {
            let model = cftcg::benchmarks::by_name("SolarPV").unwrap();
            let tool = Cftcg::new(&model)
                .expect("benchmark compiles")
                .with_config(FuzzConfig { telemetry: Some(telemetry), ..FuzzConfig::default() });
            tool.generate(Duration::from_millis(1_200), 0)
        })
    };

    // Poll /metrics until the campaign is visibly making progress.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mid_run_execs = loop {
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "metrics status: {head}");
        assert!(
            head.to_ascii_lowercase().contains("content-type: text/plain; version=0.0.4"),
            "Prometheus content type: {head}"
        );
        let execs = executions_total(&body);
        if execs > 0 {
            break execs;
        }
        assert!(Instant::now() < deadline, "campaign never reported executions");
        std::thread::sleep(Duration::from_millis(20));
    };

    // /snapshot is valid JSON describing the same live campaign.
    let (head, body) = http_get(addr, "/snapshot");
    assert!(head.starts_with("HTTP/1.1 200"), "snapshot status: {head}");
    assert!(head.to_ascii_lowercase().contains("content-type: application/json"));
    let snapshot = Json::parse(&body).expect("snapshot is valid JSON");
    assert_eq!(snapshot.get("model").and_then(Json::as_str), Some("SolarPV"));
    let snapshot_execs =
        snapshot.get("executions").and_then(Json::as_u64).expect("executions field");
    assert!(snapshot_execs >= mid_run_execs, "snapshot lags metrics: {snapshot_execs}");

    // The dashboard renders HTML with the model name and self-refresh.
    let (head, body) = http_get(addr, "/");
    assert!(head.starts_with("HTTP/1.1 200"), "dashboard status: {head}");
    assert!(head.to_ascii_lowercase().contains("content-type: text/html"));
    assert!(body.contains("cftcg observatory"), "dashboard title missing");
    assert!(body.contains("SolarPV"), "dashboard names the model");
    assert!(body.contains("http-equiv=\"refresh\""), "dashboard self-refreshes");

    // Unknown paths 404, /healthz answers — without killing the server.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "unknown path: {head}");
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");
    assert_eq!(body, "ok\n");

    let generation = campaign.join().expect("campaign thread");
    assert!(generation.executions > 0);

    // After the run, the final scrape reflects the completed campaign and
    // the span trace exports Perfetto-loadable Chrome trace JSON.
    let (_, body) = http_get(addr, "/metrics");
    assert!(executions_total(&body) >= generation.executions);
    // The mutation-yield family is present and labeled per kind × outcome.
    assert!(body.contains("cftcg_mutation_yield{kind="), "yield family exported:\n{body}");
    assert!(body.contains("outcome=\"executed\"}"), "outcome labels exported");
    assert!(body.contains("cftcg_goals_per_second "), "goal rate exported");
    assert!(body.contains("cftcg_plateaus_total "), "plateau counter exported");

    // The snapshot carries the new search-forensics sections.
    let (_, body) = http_get(addr, "/snapshot");
    let snapshot = Json::parse(&body).expect("final snapshot is valid JSON");
    let yields = snapshot.get("yields").and_then(Json::as_array).expect("yields section");
    assert!(!yields.is_empty(), "yield rows present after a fuzzing run");
    assert!(
        yields.iter().any(|y| y.get("executed").and_then(Json::as_u64).unwrap_or(0) > 0),
        "some operator executed"
    );
    let seeds = snapshot.get("corpus_seeds").and_then(Json::as_array).expect("corpus_seeds");
    assert!(!seeds.is_empty(), "corpus forensics published at flush");
    assert!(snapshot.get("plateaus").is_some(), "plateau counter in snapshot");
    let chrome = trace.to_chrome_json();
    let parsed = Json::parse(&chrome).expect("trace is valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!events.is_empty(), "trace captured span events");
    for kind in [SpanKind::Mutation, SpanKind::Execution] {
        assert!(
            events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(kind.name())),
            "trace contains {} spans",
            kind.name()
        );
    }

    server.shutdown();
}
