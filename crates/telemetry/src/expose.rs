//! Std-only scrape endpoint: Prometheus text exposition over blocking
//! TCP.
//!
//! [`ExposeServer::start`] binds a listener and spawns one accept-loop
//! thread that answers `GET` requests:
//!
//! * `/metrics` — the current [`TelemetryReport`] rendered as Prometheus
//!   text exposition format 0.0.4 ([`prometheus_text`]): counters with a
//!   `_total` suffix, histograms with cumulative `le` buckets
//!   (the registry's inclusive-upper bucket edges *are* `le` semantics,
//!   so rendering is a running sum — no re-bucketing), everything under
//!   a `pbpair_` prefix.
//! * `/health` — a JSON body the owner refreshes each round (the serve
//!   manager publishes its HealthLedger tally here).
//! * `/timeseries` — a JSON body the owner refreshes each round (the
//!   delta-frame series dump).
//!
//! The server is deliberately tiny: blocking I/O, one thread, no keep-
//! alive, std only. A request head must end within 4 KiB and within 2 s
//! of accept, or the connection is dropped unanswered. It exists so an
//! operator can point `curl` or a Prometheus scraper at a running
//! fleet, not to be a web framework. Scrapes read live atomics and
//! shared strings; they never touch the deterministic round loop, so
//! exposing a fleet cannot perturb its digest.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::{HistogramSnapshot, TelemetryReport};
use crate::Telemetry;

/// Rewrites a metric name into a Prometheus-safe identifier under the
/// `pbpair_` namespace: every character outside `[a-zA-Z0-9_]` becomes
/// `_` (so `enc.sad_ops` scrapes as `pbpair_enc_sad_ops`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("pbpair_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn render_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cum += c;
        match h.bounds.get(i) {
            Some(b) => out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cum}\n")),
            None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n")),
        }
    }
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders a report as Prometheus text exposition format 0.0.4.
///
/// Deterministic and timing counters both render as counter families
/// (`_total` suffix); stages render as three labelled counter families
/// (`pbpair_stage_calls_total{stage="..."}`, units and wall
/// nanoseconds). Families appear in the report's sorted order.
pub fn prometheus_text(report: &TelemetryReport) -> String {
    let mut out = String::new();
    for (name, v) in report.counters.iter().chain(&report.timing_counters) {
        let name = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {name}_total counter\n"));
        out.push_str(&format!("{name}_total {v}\n"));
    }
    for (name, h) in report.histograms.iter().chain(&report.timing_histograms) {
        render_histogram(&mut out, &sanitize_metric_name(name), h);
    }
    if !report.stages.is_empty() {
        out.push_str("# TYPE pbpair_stage_calls_total counter\n");
        for (name, s) in &report.stages {
            out.push_str(&format!(
                "pbpair_stage_calls_total{{stage=\"{name}\"}} {}\n",
                s.calls
            ));
        }
        out.push_str("# TYPE pbpair_stage_units_total counter\n");
        for (name, s) in &report.stages {
            out.push_str(&format!(
                "pbpair_stage_units_total{{stage=\"{name}\"}} {}\n",
                s.units
            ));
        }
        out.push_str("# TYPE pbpair_stage_wall_ns_total counter\n");
        for (name, s) in &report.stages {
            out.push_str(&format!(
                "pbpair_stage_wall_ns_total{{stage=\"{name}\"}} {}\n",
                s.wall_ns
            ));
        }
    }
    out
}

struct Shared {
    tel: Telemetry,
    health_json: Mutex<String>,
    timeseries_json: Mutex<String>,
}

/// A running scrape endpoint. Dropping the handle shuts the listener
/// down and joins its thread.
pub struct ExposeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ExposeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExposeServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ExposeServer {
    /// Binds `127.0.0.1:port` (port 0 picks an ephemeral port — the
    /// bound address is [`ExposeServer::addr`]) and starts serving the
    /// given telemetry context. `/metrics` snapshots `tel` on every
    /// scrape; `/health` and `/timeseries` serve the most recent bodies
    /// published via [`ExposeServer::publish_health`] /
    /// [`ExposeServer::publish_timeseries`].
    ///
    /// # Errors
    ///
    /// Fails when the port cannot be bound.
    pub fn start(port: u16, tel: Telemetry) -> std::io::Result<ExposeServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tel,
            health_json: Mutex::new("{}".to_string()),
            timeseries_json: Mutex::new(crate::timeseries::TimeSeries::new().to_json()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("pbpair-expose".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            handle_connection(stream, &shared);
                        }
                    }
                })?
        };
        Ok(ExposeServer {
            addr,
            shared,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the `/health` body.
    pub fn publish_health(&self, json: String) {
        *self.shared.health_json.lock().expect("expose health lock") = json;
    }

    /// Replaces the `/timeseries` body.
    pub fn publish_timeseries(&self, json: String) {
        *self
            .shared
            .timeseries_json
            .lock()
            .expect("expose timeseries lock") = json;
    }
}

impl Drop for ExposeServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// How long a client has, from accept, to deliver its whole request
/// head. The accept loop serves one connection at a time, so this also
/// bounds how long one slow or silent client can delay a scrape.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Reads a request head into `buf` up to its blank line. Returns the
/// head's length, or `None` if the client closed, failed or ran past
/// [`HEAD_DEADLINE`] first, or overflowed `buf`.
fn read_head(stream: &mut TcpStream, buf: &mut [u8]) -> Option<usize> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut len = 0usize;
    while len < buf.len() {
        // A zero timeout would mean "block forever", so an exhausted
        // deadline ends the read instead.
        let left = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())?;
        stream.set_read_timeout(Some(left)).ok()?;
        match stream.read(&mut buf[len..]) {
            Ok(0) | Err(_) => return None,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    return Some(len);
                }
            }
        }
    }
    None
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    // Everything we accept is a bodyless GET, so the head is all we
    // need; a client that cannot deliver one in time is dropped.
    let Some(len) = read_head(&mut stream, &mut buf) else {
        return;
    };
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "only GET\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(&shared.tel.report()),
            ),
            "/health" => (
                "200 OK",
                "application/json",
                shared
                    .health_json
                    .lock()
                    .expect("expose health lock")
                    .clone(),
            ),
            "/timeseries" => (
                "200 OK",
                "application/json",
                shared
                    .timeseries_json
                    .lock()
                    .expect("expose timeseries lock")
                    .clone(),
            ),
            "/" => (
                "200 OK",
                "text/plain",
                "pbpair observability plane: /metrics /health /timeseries\n".to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        let mut line = String::new();
        // Skip headers.
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        reader.read_to_string(&mut body).unwrap();
        (status.trim().to_string(), body)
    }

    #[test]
    fn sanitization_prefixes_and_replaces() {
        assert_eq!(sanitize_metric_name("enc.sad_ops"), "pbpair_enc_sad_ops");
        assert_eq!(sanitize_metric_name("a-b c"), "pbpair_a_b_c");
    }

    #[test]
    fn exposition_renders_cumulative_le_buckets() {
        let tel = Telemetry::new();
        tel.counter("enc.frames").inc(12);
        let h = tel.histogram("enc.frame_bits", &[10, 100]);
        for v in [5, 50, 500] {
            h.record(v);
        }
        tel.stage("encode").span().add_units(42);
        let text = prometheus_text(&tel.report());
        assert!(text.contains("# TYPE pbpair_enc_frames_total counter\n"));
        assert!(text.contains("pbpair_enc_frames_total 12\n"));
        assert!(text.contains("pbpair_enc_frame_bits_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("pbpair_enc_frame_bits_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("pbpair_enc_frame_bits_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("pbpair_enc_frame_bits_sum 555\n"));
        assert!(text.contains("pbpair_enc_frame_bits_count 3\n"));
        assert!(text.contains("pbpair_stage_units_total{stage=\"encode\"} 42\n"));
    }

    #[test]
    fn server_serves_metrics_health_and_timeseries() {
        let tel = Telemetry::new();
        tel.counter("serve.rounds").inc(7);
        let server = ExposeServer::start(0, tel.clone()).unwrap();
        server.publish_health("{\"ok\":true}".into());
        server.publish_timeseries("{\"frames\":[]}".into());
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("pbpair_serve_rounds_total 7\n"));

        // Live scrape: the registry moved between requests.
        tel.counter("serve.rounds").inc(3);
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("pbpair_serve_rounds_total 10\n"));

        let (status, body) = get(addr, "/health");
        assert!(status.contains("200"));
        assert_eq!(body, "{\"ok\":true}");
        let (_, body) = get(addr, "/timeseries");
        assert_eq!(body, "{\"frames\":[]}");
        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"));
        drop(server);
        // The port is released after shutdown.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    /// Sends `bytes` on `stream` and returns whatever the server
    /// answers before closing it.
    fn send_raw(mut stream: TcpStream, bytes: &[u8]) -> Vec<u8> {
        let _ = stream.write_all(bytes);
        let mut reply = Vec::new();
        // A reset counts as "dropped" as much as a clean close does.
        let _ = stream.read_to_end(&mut reply);
        reply
    }

    #[test]
    fn hostile_clients_are_dropped_and_scrapes_still_answer_in_time() {
        let tel = Telemetry::new();
        tel.counter("serve.rounds").inc(1);
        let server = ExposeServer::start(0, tel).unwrap();
        let addr = server.addr();

        // A trickling client: one byte of a head every 0.5 s for 8 s,
        // never reaching the blank line. Without one deadline per head
        // it would hold the only serving thread for the whole 8 s.
        let mut trickle = TcpStream::connect(addr).unwrap();
        let trickler = std::thread::spawn(move || {
            for b in b"GET /metrics HTT" {
                if trickle.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
            send_raw(trickle, b"")
        });
        // Let the server accept the trickler before the others queue.
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();

        // A full 4 KiB head with no blank line, and garbage bytes, each
        // connected (so queued) before the scrape below.
        let mut oversized = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        oversized.resize(4096, b'a');
        let mut garbage: Vec<u8> = (0u32..512)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        garbage.extend_from_slice(b"\r\n\r\n");
        let hostile = [oversized, garbage].map(|bytes| {
            let stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || send_raw(stream, &bytes))
        });

        // A scrape queued behind all of them is answered within the
        // deadline plus a margin.
        let (status, body) = get(addr, "/metrics");
        let waited = start.elapsed();
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("pbpair_serve_rounds_total 1\n"));
        assert!(
            waited < HEAD_DEADLINE + Duration::from_millis(1500),
            "scrape waited {waited:?} behind hostile clients"
        );

        for reply in hostile
            .into_iter()
            .map(|t| t.join().unwrap())
            .chain([trickler.join().unwrap()])
        {
            assert!(
                !reply.starts_with(b"HTTP/1.1 200"),
                "a hostile request was served: {:?}",
                String::from_utf8_lossy(&reply)
            );
        }
    }
}
