//! The standing observability invariant, extended to the full observatory:
//! a workers=1 campaign with every observation layer attached — telemetry
//! registry, span-trace buffer, live HTTP observatory being scraped
//! mid-run — must serialize to the same `campaign.json` as a bare
//! sequential run. Wall-clock fields legitimately differ and are
//! normalized; everything else is compared byte for byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cftcg::fuzz::FuzzConfig;
use cftcg::observe::{Observatory, ObserveServer};
use cftcg::pipeline::CampaignArtifact;
use cftcg::telemetry::{SpanKind, SpanTrace, Telemetry};
use cftcg::Cftcg;

/// Zeroes every `"t_s"` / `"elapsed_s"` value in a campaign JSON document.
fn strip_wallclock(mut s: String) -> String {
    for key in ["\"t_s\":", "\"elapsed_s\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let start = from + rel + key.len();
            let end = s[start..].find([',', '}', '\n']).map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    s
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response)
}

#[test]
fn observatory_leaves_workers1_campaign_byte_identical() {
    const EXECUTIONS: u64 = 3_000;
    const SEED: u64 = 42;
    let model = cftcg::benchmarks::by_name("TCP").expect("bundled benchmark");

    // Bare sequential run: no telemetry, no spans, no server.
    let bare = {
        let tool = Cftcg::new(&model).expect("benchmark compiles");
        let generation = tool.generate_executions(EXECUTIONS, SEED);
        CampaignArtifact::from_generation(model.name(), SEED, 1, &generation, tool.compiled().map())
            .to_json()
    };

    // Fully-observed workers=1 run: registry + span trace attached, HTTP
    // observatory live and scraped concurrently while the campaign runs.
    let trace = SpanTrace::new();
    let telemetry =
        Arc::new(Telemetry::new().with_span_trace(trace.clone()).with_plateau_window(500));
    let server =
        ObserveServer::bind("127.0.0.1:0", Observatory::new(Arc::clone(&telemetry), model.name()))
            .expect("observatory binds");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let scraper = {
        let stop = Arc::clone(&stop);
        let scrapes = Arc::clone(&scrapes);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/snapshot", "/", "/healthz"] {
                    if let Some(response) = http_get(addr, path) {
                        assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
                        scrapes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    let observed = {
        // Every introspection layer armed: registry, span trace, and the
        // plateau detector (yield stats and corpus accounting are always
        // on once a registry is attached).
        let tool = Cftcg::new(&model).expect("benchmark compiles").with_config(FuzzConfig {
            telemetry: Some(Arc::clone(&telemetry)),
            ..FuzzConfig::default()
        });
        let generation = tool.generate_parallel_executions(EXECUTIONS, SEED, 1);
        CampaignArtifact::from_generation(model.name(), SEED, 1, &generation, tool.compiled().map())
            .to_json()
    };
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");
    server.shutdown();

    assert!(scrapes.load(Ordering::Relaxed) > 0, "the observatory was actually scraped mid-run");
    assert!(
        telemetry.snapshot().totals.spans.histogram(SpanKind::Execution).count() > 0,
        "span profiling was live during the observed run"
    );
    assert!(!trace.is_empty(), "the span trace buffer captured events");
    assert_eq!(
        strip_wallclock(bare),
        strip_wallclock(observed),
        "campaign artifacts must be byte-identical modulo wall-clock"
    );
}
