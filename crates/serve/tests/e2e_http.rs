//! End-to-end tests over real `TcpStream`s: correctness against the
//! in-process `Campaign` reference (byte-for-byte), concurrency, load
//! shedding, protocol errors and graceful drain.
//!
//! The campaign is built in memory from the deterministic synthetic
//! generator — no disk — so this suite runs identically with
//! observability compiled out (`--no-default-features`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use musa_apps::AppId;
use musa_core::{Campaign, RowMetric};
use musa_serve::engine::{Dim, QueryEngine, RowFilter};
use musa_serve::synth::synthetic_results;
use musa_serve::{api, Server, ServerConfig};

fn start(rows_per_app: usize, config: ServerConfig) -> (musa_serve::ServerHandle, SocketAddr) {
    let engine = Arc::new(QueryEngine::new(synthetic_results(rows_per_app)));
    let handle = Server::start(engine, config).expect("bind ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// One full request/response over a fresh connection; returns
/// `(status, body)`.
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    raw_request(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn raw_request(addr: SocketAddr, wire: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A server rejecting early (413) closes its read side mid-send;
    // the resulting broken pipe is expected, not a test failure.
    let _ = stream.write_all(wire.as_bytes());
    let _ = stream.flush();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            // RST after the response (unread request bytes) is fine if
            // we already have the head.
            Err(_) if !raw.is_empty() => break,
            Err(e) => panic!("read response: {e}"),
        }
    }
    parse_response(&String::from_utf8_lossy(&raw))
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn best_and_pareto_agree_with_campaign_byte_for_byte() {
    let rows = synthetic_results(864); // the full design space
    let campaign = Campaign {
        results: rows.clone(),
    };
    let engine = Arc::new(QueryEngine::new(rows));
    let handle = Server::start(engine, ServerConfig::local_ephemeral()).unwrap();
    let addr = handle.addr();

    for app in AppId::ALL {
        let filter = RowFilter::new().with(Dim::App, app.label());

        // /best: the reference rows come from Campaign::top_k (a row
        // scan); the server's from the columnar index. Same serialiser,
        // so any selection or ordering divergence shows as a byte diff.
        let (status, body) = http_get(
            addr,
            &format!("/best?app={}&metric=time_ns&k=5", app.label()),
        );
        assert_eq!(status, 200);
        let want = api::best_body(
            &filter,
            RowMetric::TimeNs,
            5,
            &campaign.top_k(app, RowMetric::TimeNs, 5),
        );
        assert_eq!(body, want, "/best mismatch for {}", app.label());

        // /pareto: reference from Campaign::pareto_front.
        let (status, body) = http_get(
            addr,
            &format!("/pareto?app={}&x=time_ns&y=energy_j", app.label()),
        );
        assert_eq!(status, 200);
        let front = campaign.pareto_front(app, RowMetric::TimeNs, RowMetric::EnergyJ);
        assert!(!front.is_empty(), "synthetic frontier must be non-trivial");
        let want = api::pareto_body(&filter, RowMetric::TimeNs, RowMetric::EnergyJ, &front);
        assert_eq!(body, want, "/pareto mismatch for {}", app.label());
    }
    handle.shutdown();
}

#[test]
fn concurrent_clients_all_succeed() {
    let (handle, addr) = start(64, ServerConfig::local_ephemeral());
    let targets = [
        "/healthz",
        "/summary",
        "/rows?app=hydro&limit=2",
        "/best?app=spmz&metric=energy_j&k=3",
        "/pareto?app=btmz&x=time_ns&y=energy_j",
        "/metrics",
    ];
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..6 {
                    let target = targets[(t + i) % targets.len()];
                    let (status, body) = http_get(addr, target);
                    assert_eq!(status, 200, "{target} from thread {t}: {body}");
                    assert!(body.starts_with('{'), "{target}: {body}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }
    handle.shutdown();
}

#[test]
fn saturation_sheds_503_and_recovers() {
    // One worker, queue depth one: a silent connection pins the worker,
    // a second fills the queue, so the third *must* be answered 503 by
    // the accept thread — quickly, not after a timeout.
    let config = ServerConfig {
        workers: 1,
        backlog: 1,
        read_timeout: Duration::from_millis(1500),
        ..ServerConfig::local_ephemeral()
    };
    let (handle, addr) = start(8, config);

    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let hold_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let begin = Instant::now();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "expected load shedding, got: {body}");
    assert!(body.contains("\"error\""));
    assert!(
        begin.elapsed() < Duration::from_millis(1000),
        "503 must be immediate, not a timeout ({:?})",
        begin.elapsed()
    );

    // Release the held connections; the server must recover.
    drop(hold_worker);
    drop(hold_queue);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http_get(addr, "/healthz");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered");
        std::thread::sleep(Duration::from_millis(100));
    }
    handle.shutdown();
}

#[test]
fn protocol_errors_get_structured_statuses() {
    let (handle, addr) = start(8, ServerConfig::local_ephemeral());
    // Malformed request line.
    assert_eq!(raw_request(addr, "BLARG\r\n\r\n").0, 400);
    // Valid syntax, unknown endpoint.
    assert_eq!(http_get(addr, "/nope").0, 404);
    // Unsupported method.
    assert_eq!(
        raw_request(addr, "POST /rows HTTP/1.1\r\nHost: t\r\n\r\n").0,
        405
    );
    // Head past the size cap.
    let big = format!("GET /rows?x={} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    assert_eq!(raw_request(addr, &big).0, 413);
    // Bad query parameter values.
    assert_eq!(http_get(addr, "/best?metric=bogus").0, 400);
    assert_eq!(http_get(addr, "/rows?apps=hydro").0, 400);
    // A silent client is timed out with 408, not held forever.
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::local_ephemeral()
    };
    let (handle2, addr2) = start(8, config);
    let mut silent = TcpStream::connect(addr2).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = String::new();
    silent.read_to_string(&mut raw).unwrap();
    assert_eq!(parse_response(&raw).0, 408);
    handle2.shutdown();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    let config = ServerConfig {
        workers: 1,
        backlog: 4,
        read_timeout: Duration::from_millis(600),
        ..ServerConfig::local_ephemeral()
    };
    let (handle, addr) = start(8, config);

    // Pin the only worker with a silent connection, then queue a real
    // request behind it.
    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn(move || http_get(addr, "/healthz"));
    std::thread::sleep(Duration::from_millis(150));

    // Shutdown must drain: the queued request is answered, not dropped.
    handle.shutdown();
    let (status, body) = queued.join().expect("queued client panicked");
    assert_eq!(status, 200, "queued request dropped on shutdown: {body}");
    drop(hold_worker);

    // And the port is actually closed afterwards.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    match refused {
        Err(_) => {}
        Ok(mut s) => {
            // Some stacks accept briefly; the connection must yield no
            // response bytes.
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let mut buf = String::new();
            let _ = s.read_to_string(&mut buf);
            assert!(buf.is_empty(), "server still answering after shutdown");
        }
    }
}

#[test]
fn quit_endpoint_is_gated_and_signals() {
    let (handle, addr) = start(
        8,
        ServerConfig {
            allow_quit: true,
            ..ServerConfig::local_ephemeral()
        },
    );
    assert!(!handle.wait_quit(Duration::from_millis(50)));
    let (status, body) = http_get(addr, "/quit");
    assert_eq!(status, 200);
    assert!(body.contains("draining"));
    assert!(handle.wait_quit(Duration::from_secs(5)));
    handle.shutdown();
}
