//! Minimal std-only HTTP status endpoint for live campaigns — the seed of
//! the roadmap's `metamut serve` daemon.
//!
//! [`StatusServer::bind`] starts one accept-loop thread serving, from the
//! given [`Telemetry`] handle:
//!
//! - `/metrics` — the metrics registry in Prometheus text exposition
//!   format (see [`crate::prometheus`] for the naming scheme)
//! - `/timeseries` — the buffered campaign time-series as a JSON array
//! - `/spans` — the currently open span tree as nested JSON
//! - `/` — a JSON index of the routes
//!
//! Only `GET` with HTTP/1.0-style framing is supported; every response
//! closes its connection. That is deliberately as small as a status
//! endpoint can be: no external dependency, no keep-alive state, nothing
//! a fuzzing host has to harden. Dropping the server unblocks and joins
//! the accept thread.

use crate::{prometheus, Telemetry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Extra GET routes for [`StatusServer::bind_with_routes`]: the handler
/// receives the request path (query string stripped) and returns
/// `(content_type, body)` for paths it owns, or `None` to fall through to
/// the built-in telemetry routes. This is how the `metamut serve` daemon
/// mounts its job-status pages on the same listener as `/metrics`.
pub type ExtraRoutes = Arc<dyn Fn(&str) -> Option<(String, String)> + Send + Sync>;

/// A running status endpoint; dropping it stops the accept thread.
pub struct StatusServer {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving the telemetry handle. Also turns on span recording and
    /// series sampling so `/spans` and `/timeseries` have data.
    pub fn bind(addr: &str, telemetry: Telemetry) -> std::io::Result<StatusServer> {
        StatusServer::bind_with_routes(addr, telemetry, None)
    }

    /// [`StatusServer::bind`] with additional caller-owned GET routes,
    /// consulted before the built-in ones.
    pub fn bind_with_routes(
        addr: &str,
        telemetry: Telemetry,
        routes: Option<ExtraRoutes>,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        telemetry.spans().set_recording(true);
        telemetry.series().set_enabled(true);
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let thread = std::thread::Builder::new()
            .name("metamut-status".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if !flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = serve_connection(stream, &telemetry, routes.as_ref());
                    }
                }
            })?;
        Ok(StatusServer {
            addr,
            running,
            thread: Some(thread),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    routes: Option<&ExtraRoutes>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read until the end of the request head (or a small cap — status
    // requests have no body worth reading).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");

    let bare_path = path.split('?').next().unwrap_or("/");
    let mounted = if method == "GET" {
        routes.and_then(|r| r(bare_path))
    } else {
        None
    };
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8".to_string(),
            "only GET is supported\n".to_string(),
        )
    } else if let Some((content_type, body)) = mounted {
        ("200 OK", content_type, body)
    } else {
        match bare_path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8".to_string(),
                prometheus::render(&telemetry.snapshot()),
            ),
            "/timeseries" => (
                "200 OK",
                "application/json".to_string(),
                telemetry.series().to_json_array(),
            ),
            "/spans" => (
                "200 OK",
                "application/json".to_string(),
                telemetry.spans().open_tree_json(),
            ),
            "/" => (
                "200 OK",
                "application/json".to_string(),
                "{\"routes\":[\"/metrics\",\"/timeseries\",\"/spans\"]}".to_string(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8".to_string(),
                "not found\n".to_string(),
            ),
        }
    };

    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Client-side limits for [`fetch_with`]: how long to wait for a wedged
/// daemon and how often to retry a transport failure before giving up.
#[derive(Debug, Clone, Copy)]
pub struct FetchOptions {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read socket timeout (a stalled response fails instead of
    /// blocking the CLI forever).
    pub read_timeout: Duration,
    /// Extra attempts after a *transport* failure (connect refused, reset,
    /// timeout). HTTP error statuses are real answers and never retried.
    pub retries: u32,
}

impl Default for FetchOptions {
    fn default() -> Self {
        FetchOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            retries: 1,
        }
    }
}

/// Tiny HTTP GET client for the endpoint above (used by `metamut status`
/// and the smoke tests): returns the response body, or an error including
/// any non-2xx status line. Applies [`FetchOptions::default`] — bounded
/// timeouts plus one retry — so a wedged daemon cannot hang the caller.
pub fn fetch(addr: &str, path: &str) -> std::io::Result<String> {
    fetch_with(addr, path, FetchOptions::default())
}

/// [`fetch`] with explicit timeouts and retry budget.
pub fn fetch_with(addr: &str, path: &str, options: FetchOptions) -> std::io::Result<String> {
    let mut last_err = None;
    for attempt in 0..=options.retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        match fetch_once(addr, path, options) {
            Ok(body) => return Ok(body),
            // A served HTTP error is a definitive answer — do not retry.
            Err(FetchError::Status(msg)) => return Err(std::io::Error::other(msg)),
            Err(FetchError::Transport(e)) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

enum FetchError {
    /// The daemon answered with a non-2xx status (definitive; no retry).
    Status(String),
    /// The transport failed (refused, reset, timed out) — retryable.
    Transport(std::io::Error),
}

impl From<std::io::Error> for FetchError {
    fn from(e: std::io::Error) -> Self {
        FetchError::Transport(e)
    }
}

fn fetch_once(addr: &str, path: &str, options: FetchOptions) -> Result<String, FetchError> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&target, options.connect_timeout)?;
    stream.set_read_timeout(Some(options.read_timeout))?;
    stream.set_write_timeout(Some(options.connect_timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        FetchError::Transport(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no response head",
        ))
    })?;
    let status_line = head.lines().next().unwrap_or("");
    let ok = status_line
        .split_whitespace()
        .nth(1)
        .is_some_and(|code| code.starts_with('2'));
    if !ok {
        return Err(FetchError::Status(format!("{path}: {status_line}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_metrics_timeseries_and_spans() {
        let t = Telemetry::new();
        t.counter_add("fuzz_execs", 42);
        t.gauge_set("fuzz_coverage", 7.0);
        let server = StatusServer::bind("127.0.0.1:0", t.clone()).expect("bind");
        let addr = server.local_addr().to_string();

        let _guard = t.span("campaign");
        t.series().record(&crate::SeriesPoint {
            t_us: 1,
            iteration: 1,
            execs: 1,
            covered: 7,
            corpus: 1,
            crashes: 0,
            execs_per_sec: 10.0,
            dedup_hit_rate: 0.0,
            ub_filter_rate: 0.0,
        });

        let metrics = fetch(&addr, "/metrics").expect("/metrics");
        assert!(metrics.contains("# TYPE metamut_fuzz_execs counter"));
        assert!(metrics.contains("metamut_fuzz_execs 42"));

        let series = fetch(&addr, "/timeseries").expect("/timeseries");
        let parsed: Vec<crate::SeriesPoint> = serde_json::from_str(&series).expect("parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].covered, 7);

        let spans = fetch(&addr, "/spans").expect("/spans");
        let doc: serde_json::Value = serde_json::from_str(&spans).expect("parses");
        let open = doc.get("open").and_then(|v| v.as_array()).expect("open");
        assert_eq!(open.len(), 1);
        assert_eq!(
            open[0].get("name").and_then(|v| v.as_str()),
            Some("campaign")
        );

        let index = fetch(&addr, "/").expect("/");
        assert!(index.contains("/metrics"));
        assert!(fetch(&addr, "/nope").is_err());
    }

    #[test]
    fn fetch_retries_transport_failures_once() {
        // First connection is dropped before any response (a transport
        // failure); the second is served. The default one-retry budget
        // must absorb exactly this.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().expect("accept 1");
            drop(first);
            let (mut second, _) = listener.accept().expect("accept 2");
            let mut buf = [0u8; 512];
            let _ = second.read(&mut buf);
            let body = "ok";
            let _ = second.write_all(
                format!(
                    "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        });
        assert_eq!(fetch(&addr, "/metrics").expect("retried fetch"), "ok");
        server.join().expect("server thread");
    }

    #[test]
    fn fetch_does_not_retry_http_errors() {
        // A served 404 is a definitive answer: one connection, no retry.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let mut served = 0u32;
            listener
                .set_nonblocking(false)
                .expect("blocking accept loop");
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 512];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n");
            served += 1;
            drop(conn);
            // Give a would-be retry a moment to arrive, then count it.
            listener.set_nonblocking(true).expect("nonblocking");
            std::thread::sleep(Duration::from_millis(150));
            if listener.accept().is_ok() {
                served += 1;
            }
            served
        });
        assert!(fetch(&addr, "/nope").is_err());
        assert_eq!(server.join().expect("server thread"), 1, "404 was retried");
    }

    #[test]
    fn mounted_routes_take_precedence_and_fall_through() {
        let t = Telemetry::new();
        t.counter_add("fuzz_execs", 1);
        let routes: ExtraRoutes = Arc::new(|path: &str| {
            (path == "/jobs").then(|| ("application/json".to_string(), "[1,2]".to_string()))
        });
        let server = StatusServer::bind_with_routes("127.0.0.1:0", t, Some(routes)).expect("bind");
        let addr = server.local_addr().to_string();
        assert_eq!(fetch(&addr, "/jobs").expect("/jobs"), "[1,2]");
        // Unclaimed paths still reach the built-in telemetry routes.
        let metrics = fetch(&addr, "/metrics").expect("/metrics");
        assert!(metrics.contains("metamut_fuzz_execs 1"));
        assert!(fetch(&addr, "/nope").is_err());
    }

    #[test]
    fn server_shuts_down_on_drop() {
        let t = Telemetry::new();
        let server = StatusServer::bind("127.0.0.1:0", t).expect("bind");
        let addr = server.local_addr().to_string();
        drop(server);
        assert!(fetch(&addr, "/metrics").is_err());
    }
}
