#![warn(missing_docs)]

//! # Live campaign observatory
//!
//! A tiny, dependency-free HTTP server that exposes a *running* fuzzing
//! campaign's telemetry registry on three endpoints:
//!
//! | path | content | purpose |
//! |---|---|---|
//! | `/metrics` | Prometheus text exposition | scrapeable by any Prometheus-compatible collector |
//! | `/snapshot` | JSON | one consistent point-in-time view: totals, coverage, spans, time series |
//! | `/` | HTML | self-refreshing dashboard with an inline-SVG coverage-vs-time curve |
//! | `/diff` | HTML | the latest `cftcg diff` / `cftcg ab` report (`results/diff_latest.html`) |
//! | `/healthz` | `ok` | liveness probe for supervisors and CI smoke jobs |
//!
//! The observatory is read-only: any method other than `GET` gets a
//! `405 Method Not Allowed` (with an `Allow: GET` header), and a request
//! line that is not even `METHOD TARGET ...` gets a `400 Bad Request`.
//!
//! The server is deliberately primitive — std-only TCP, blocking I/O, one
//! thread per connection — because its job is a handful of requests per
//! second from a human or one scraper, not production traffic. The accept
//! loop polls a non-blocking listener so [`ObserveServer::shutdown`] (and
//! `Drop`) can stop it without an extra wake-up connection.
//!
//! **Determinism.** The observatory only *reads* the shared
//! [`Telemetry`] registry (every render boils down to
//! [`Telemetry::snapshot`]); it never feeds anything back into the fuzzing
//! loop. Attaching it to a campaign therefore cannot change the generated
//! suite — the workers=1 byte-identity invariant holds with the server
//! running (`tests/observatory_byte_identity.rs` in the workspace root
//! enforces this).
//!
//! ```no_run
//! use std::sync::Arc;
//! use cftcg_observe::{Observatory, ObserveServer};
//! use cftcg_telemetry::Telemetry;
//!
//! let telemetry = Arc::new(Telemetry::new());
//! let observatory = Observatory::new(Arc::clone(&telemetry), "SolarPV");
//! let server = ObserveServer::bind("127.0.0.1:0", observatory).unwrap();
//! println!("dashboard at http://{}/", server.local_addr());
//! // ... run the campaign ...
//! server.shutdown();
//! ```

mod render;

pub use render::snapshot_json;

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cftcg_telemetry::Telemetry;

/// The read-only view the endpoints render: the shared telemetry registry
/// plus campaign identity. Cloning shares the registry.
#[derive(Clone)]
pub struct Observatory {
    telemetry: Arc<Telemetry>,
    model: String,
}

impl Observatory {
    /// An observatory over `telemetry` for a campaign on `model`.
    pub fn new(telemetry: Arc<Telemetry>, model: impl Into<String>) -> Self {
        Observatory { telemetry, model: model.into() }
    }

    /// The model name shown on the dashboard.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The `/metrics` body: live Prometheus text exposition.
    pub fn metrics_text(&self) -> String {
        self.telemetry.prometheus_text()
    }

    /// The `/snapshot` body: one consistent JSON view of the campaign.
    pub fn snapshot_json(&self) -> String {
        render::snapshot_json(&self.model, &self.telemetry.snapshot())
    }

    /// The `/` body: the self-refreshing HTML dashboard.
    pub fn dashboard_html(&self) -> String {
        render::dashboard_html(&self.model, &self.telemetry.snapshot())
    }
}

/// A running observatory HTTP server. Dropping it stops the accept loop.
pub struct ObserveServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// How often the accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection socket timeout: a stalled client must not pin a thread.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on the request head we are willing to buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

impl ObserveServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9000"`, or port `0` for an ephemeral
    /// port — read it back with [`local_addr`](Self::local_addr)) and starts
    /// serving `observatory` in a background thread.
    pub fn bind(addr: impl ToSocketAddrs, observatory: Observatory) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + flag polling: shutdown needs no wake-up
        // connection and no platform-specific socket trickery.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("cftcg-observe".into())
            .spawn(move || accept_loop(listener, observatory, stop))?;
        Ok(ObserveServer { addr, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The actually-bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. In-flight
    /// connection threads finish their single response and exit on their
    /// own (every response closes the connection).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObserveServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, observatory: Observatory, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let view = observatory.clone();
                // Thread-per-connection: the expected load is one human
                // browser tab plus at most one scraper.
                let _ = std::thread::Builder::new()
                    .name("cftcg-observe-conn".into())
                    .spawn(move || handle_connection(stream, &view));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (ECONNABORTED etc.): back off, retry.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves exactly one request and closes the connection.
fn handle_connection(mut stream: TcpStream, observatory: &Observatory) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let parsed = parse_target(&request_line);
    let (status, content_type, body) = match parsed {
        Target::Get("/") | Target::Get("/index.html") => {
            ("200 OK", "text/html; charset=utf-8", observatory.dashboard_html())
        }
        Target::Get("/metrics") => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", observatory.metrics_text())
        }
        Target::Get("/snapshot") => ("200 OK", "application/json", observatory.snapshot_json()),
        Target::Get("/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".into()),
        // The latest `cftcg diff`/`cftcg ab` HTML report, mirrored to disk
        // by the CLI. Read per request: a diff run while the observatory is
        // up is served without restarting anything.
        Target::Get("/diff") => match std::fs::read_to_string("results/diff_latest.html") {
            Ok(html) => ("200 OK", "text/html; charset=utf-8", html),
            Err(_) => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no diff report yet; run `cftcg diff <model> <a/campaign.json> \
                 <b/campaign.json>` to generate results/diff_latest.html\n"
                    .into(),
            ),
        },
        Target::Get(_) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /, /metrics, /snapshot, /diff, /healthz\n".into(),
        ),
        Target::MethodNotAllowed => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed; the observatory is read-only (GET)\n".into(),
        ),
        Target::Malformed => {
            ("400 Bad Request", "text/plain; charset=utf-8", "bad request\n".into())
        }
    };
    let allow = if matches!(parsed, Target::MethodNotAllowed) { "Allow: GET\r\n" } else { "" };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\n{allow}Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the end of the request head and returns the request line.
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines().next().map(str::to_string)
}

/// The routing view of a request line.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// `GET <target>`: the query-stripped target to route.
    Get(&'a str),
    /// Syntactically a request, but the method is not `GET` → 405.
    MethodNotAllowed,
    /// Not even `METHOD TARGET ...` → 400.
    Malformed,
}

/// Extracts the request target from `GET <target> HTTP/1.x` (query strings
/// are ignored; only `GET` is served).
fn parse_target(request_line: &str) -> Target<'_> {
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next();
    let Some(target) = parts.next() else {
        return Target::Malformed;
    };
    if method != Some("GET") {
        return Target::MethodNotAllowed;
    }
    Target::Get(target.split('?').next().unwrap_or(target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cftcg_telemetry::{Event, ShardStats};

    fn test_observatory() -> Observatory {
        let t = Arc::new(Telemetry::new());
        t.emit(&Event::CampaignStart {
            model: "TestModel".into(),
            seed: 7,
            workers: 1,
            budget_ms: None,
            branch_count: 12,
        });
        let mut stats = ShardStats::new(4);
        stats.executions = 1000;
        stats.iterations = 5000;
        t.merge_shard(0, &stats, 3);
        t.emit(&Event::NewCoverage { shard: 0, executions: 1000, covered: 9, total: 12, t: 0.1 });
        Observatory::new(t, "TestModel")
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_three_endpoints_on_an_ephemeral_port() {
        let server = ObserveServer::bind("127.0.0.1:0", test_observatory()).expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port resolved");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "metrics head: {head}");
        assert!(body.contains("cftcg_executions_total 1000"), "metrics body:\n{body}");
        assert!(body.contains("cftcg_covered_branches 9"));

        let (head, body) = get(addr, "/snapshot");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("application/json"));
        let parsed = cftcg_telemetry::json::Json::parse(&body).expect("snapshot is valid JSON");
        assert_eq!(parsed.get("model").unwrap().as_str(), Some("TestModel"));
        assert_eq!(parsed.get("executions").unwrap().as_u64(), Some(1000));
        assert_eq!(parsed.get("covered").unwrap().as_u64(), Some(9));
        assert_eq!(parsed.get("frontier_open").unwrap().as_u64(), Some(3));

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("<title>cftcg observatory"));
        assert!(body.contains("TestModel"));

        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_404_and_non_get_gets_405() {
        let server = ObserveServer::bind("127.0.0.1:0", test_observatory()).expect("bind");
        let addr = server.local_addr();
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "404 head: {head}");

        // A well-formed non-GET request is a method problem, not a routing
        // problem: 405 plus the Allow header naming the one served method.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "POST head: {response}");
        assert!(response.contains("\r\nAllow: GET\r\n"), "Allow header present: {response}");

        // A request line without a target is simply malformed.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GARBAGE\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "malformed head: {response}");
    }

    #[test]
    fn diff_route_serves_the_mirrored_report_or_a_hint() {
        let server = ObserveServer::bind("127.0.0.1:0", test_observatory()).expect("bind");
        let addr = server.local_addr();
        // The CLI mirrors reports to results/diff_latest.html relative to
        // the working directory; absent file → 404 with the recipe.
        let mirror = std::path::Path::new("results/diff_latest.html");
        if !mirror.exists() {
            let (head, body) = get(addr, "/diff");
            assert!(head.starts_with("HTTP/1.1 404"), "no-report head: {head}");
            assert!(body.contains("cftcg diff"), "hint names the command: {body}");
        }
        std::fs::create_dir_all("results").unwrap();
        std::fs::write(mirror, "<!DOCTYPE html><html><body>diff-report</body></html>").unwrap();
        let (head, body) = get(addr, "/diff");
        assert!(head.starts_with("HTTP/1.1 200"), "report head: {head}");
        assert!(head.contains("text/html"));
        assert!(body.contains("diff-report"));
        let _ = std::fs::remove_file(mirror);
        let _ = std::fs::remove_dir("results");
    }

    #[test]
    fn healthz_answers_ok_for_liveness_probes() {
        let server = ObserveServer::bind("127.0.0.1:0", test_observatory()).expect("bind");
        let (head, body) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "healthz head: {head}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn query_strings_are_ignored_when_routing() {
        let server = ObserveServer::bind("127.0.0.1:0", test_observatory()).expect("bind");
        let (head, _) = get(server.local_addr(), "/metrics?refresh=1");
        assert!(head.starts_with("HTTP/1.1 200"));
    }
}
