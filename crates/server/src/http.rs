//! Plain-HTTP scrape routes: metrics scrapes, health checks, and
//! flight-recorder dumps, answered on the reactor's scrape listener
//! ([`crate::ServeOptions::metrics_addr`]):
//!
//! * `GET /metrics` — the text exposition
//!   ([`gk_metrics::render_exposition`]), the shape every
//!   Prometheus-style scraper expects;
//! * `GET /healthz` — `ok version=... uptime_secs=...` for liveness
//!   probes;
//! * `GET /traces` — the trace flight recorder's retained request
//!   traces, rendered exactly as the `TRACES` protocol verb answers
//!   (or its `ERR` line when tracing is off).
//!
//! Any other `GET` path gets a 404; any other method gets a
//! `405 Method Not Allowed` carrying an `Allow: GET` header. The
//! endpoint is deliberately not the line protocol: probes and scrapers
//! speak HTTP, and a separate listener keeps their traffic apart from
//! the line-protocol admission bound.

use crate::proto::Request;
use crate::protocol::Server;

/// Renders one complete `Connection: close` HTTP response for a parsed
/// request line of a server's scrape connection.
pub(crate) fn render_http_response(server: &Server, method: &str, path: &str) -> String {
    let (status, extra, body) = route(server, method, path);
    response(status, extra, &body)
}

/// One complete `Connection: close` HTTP response.
pub(crate) fn response(status: &str, extra: Option<&str>, body: &str) -> String {
    let extra = extra.map_or(String::new(), |h| format!("{h}\r\n"));
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n{extra}\r\n{body}",
        body.len()
    )
}

/// Maps one request to `(status line, extra header, body)`.
fn route(
    server: &Server,
    method: &str,
    path: &str,
) -> (&'static str, Option<&'static str>, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            Some("Allow: GET"),
            String::from("only GET is served\n"),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            None,
            gk_metrics::render_exposition(&server.index().registry().snapshot()),
        ),
        "/healthz" => (
            "200 OK",
            None,
            format!(
                "ok version={} uptime_secs={}\n",
                env!("CARGO_PKG_VERSION"),
                server.uptime_secs()
            ),
        ),
        "/traces" => {
            let mut body = server.execute(Request::Traces { n: None }).render();
            body.push('\n');
            ("200 OK", None, body)
        }
        _ => (
            "404 Not Found",
            None,
            String::from("only GET /metrics, /healthz and /traces are served\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve_with, ServeHandle, ServeOptions};
    use gk_core::KeySet;
    use gk_graph::parse_graph;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;

    fn test_server(trace_buffer: usize) -> Arc<Server> {
        let g = parse_graph(
            r#"
            a1:album name_of "Anthology 2"
            a1:album release_year "1996"
            a2:album name_of "Anthology 2"
            a2:album release_year "1996"
            "#,
        )
        .unwrap();
        let keys = KeySet::parse(r#"key "Q2" album(x) { x -name_of-> n*; x -release_year-> y*; }"#)
            .unwrap();
        let mut s = Server::new(g, keys);
        s.set_trace_buffer(trace_buffer);
        Arc::new(s)
    }

    /// Serves `server` with a scrape listener; returns it and its address.
    fn serve_scrapes(server: Arc<Server>) -> (ServeHandle, SocketAddr) {
        let opts = ServeOptions {
            threads: 1,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        };
        let h = serve_with(server, "127.0.0.1:0", &opts).unwrap();
        let addr = h.metrics_addr().expect("scrape listener requested");
        (h, addr)
    }

    /// One raw HTTP exchange: request bytes in, full response text out.
    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        resp
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn routes_answer_their_documented_statuses() {
        let server = test_server(4);
        let _ = server.handle("SAME a1 a2");
        let (h, addr) = serve_scrapes(server);

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("gk_requests_same_total 1"), "{metrics}");
        assert!(
            metrics.contains("# TYPE gk_request_micros_same histogram"),
            "{metrics}"
        );

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("ok version="), "{health}");
        assert!(health.contains("uptime_secs="), "{health}");

        let traces = get(addr, "/traces");
        assert!(traces.starts_with("HTTP/1.1 200 OK"), "{traces}");
        assert!(traces.contains("TRACES n="), "{traces}");
        assert!(traces.contains("verb=same"), "{traces}");

        let missing = get(addr, "/other");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{missing}"
        );

        let post = exchange(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            post.starts_with("HTTP/1.1 405 Method Not Allowed"),
            "{post}"
        );
        assert!(post.contains("Allow: GET\r\n"), "{post}");

        h.stop();
    }

    #[test]
    fn traces_route_reports_tracing_off_without_a_recorder() {
        let (h, addr) = serve_scrapes(test_server(0));
        let traces = get(addr, "/traces");
        assert!(traces.starts_with("HTTP/1.1 200 OK"), "{traces}");
        assert!(traces.contains("ERR tracing is off"), "{traces}");
        h.stop();
    }

    #[test]
    fn half_open_scraper_does_not_wedge_the_endpoint() {
        let (h, addr) = serve_scrapes(test_server(0));
        // A scraper that connects, sends half a request line and stalls
        // costs the reactor one idle buffer, not the listener.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /met").unwrap();
        // A well-behaved scrape right behind it is served at once.
        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        // Shutdown closes the stalled connection without an answer.
        h.stop();
        let mut rest = String::new();
        stalled.read_to_string(&mut rest).unwrap_or_default();
        assert!(rest.is_empty(), "stalled scraper got: {rest}");
    }
}
