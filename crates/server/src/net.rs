//! TCP framing of the line protocol.
//!
//! Connections are persistent: each request line gets one response
//! *paragraph* — the response text followed by a blank line — so clients
//! can read multi-line answers (`EXPLAIN`, `HELP`) without length
//! prefixes. Blank lines are skipped (no paragraph), `QUIT` answers `BYE`
//! and closes, and a line over [`MAX_REQUEST_LINE`] answers `ERR request
//! too long` and closes.
//!
//! One front-end speaks this framing: the nonblocking epoll reactor in
//! [`crate::event_loop`]. One I/O thread owns every socket, complete
//! request lines run on a small worker pool, and concurrency is bounded
//! by `--max-conns`, not by thread count. The reactor serves any
//! [`LineHandler`]: a standalone [`Server`] through [`serve`] /
//! [`serve_with`], or the cluster router through [`serve_handler`], so
//! every line-protocol endpoint shares one framing, one set of limits and
//! one family of connection metrics.

use crate::event_loop;
use crate::http;
use crate::protocol::Server;
use gk_metrics::{Counter, Gauge, Registry};
use std::net::SocketAddr;
use std::sync::Arc;

/// Longest accepted request line, in bytes (terminator excluded). A
/// client that exceeds it gets `ERR request too long` and is
/// disconnected; the overrun also counts into
/// `gk_conn_read_errors_total`. Bounds per-connection memory against
/// newline-free byte floods.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// What the reactor serves: one request line in, one answer paragraph
/// out. Handlers run on the reactor's worker threads, several at once.
pub trait LineHandler: Send + Sync + 'static {
    /// Answers one request line: trimmed, never blank, never `QUIT`
    /// (the reactor answers those itself). The reactor appends the
    /// blank-line paragraph terminator.
    fn answer(&self, line: &str) -> String;

    /// Answers one HTTP request on the scrape listener
    /// ([`ServeOptions::metrics_addr`]) with a complete response. The
    /// default serves no routes.
    fn scrape(&self, _method: &str, _path: &str) -> String {
        http::response("404 Not Found", None, "no scrape routes are served here\n")
    }
}

impl LineHandler for Server {
    fn answer(&self, line: &str) -> String {
        self.handle(line)
    }

    fn scrape(&self, method: &str, path: &str) -> String {
        http::render_http_response(self, method, path)
    }
}

/// Connection-lifecycle metrics the reactor records, registered in the
/// registry of whatever it serves (a server's or the router's).
#[derive(Clone, Copy)]
pub struct NetMetrics {
    /// Connections accepted since startup (`gk_connections_total`).
    pub(crate) connections_total: Counter,
    /// Connections currently open (`gk_connections_active`).
    pub(crate) connections_active: Gauge,
    /// Request-read I/O errors (`gk_conn_read_errors_total`).
    pub(crate) read_errors: Counter,
    /// Response-write I/O errors (`gk_conn_write_errors_total`).
    pub(crate) write_errors: Counter,
    /// Connections refused by `--max-conns` admission control
    /// (`gk_conns_rejected_total`).
    pub(crate) rejected: Counter,
    /// Requests parsed and queued for the worker pool but not yet picked
    /// up (`gk_ready_queue_depth`).
    pub(crate) ready_depth: Gauge,
    /// Event-loop `epoll_wait` returns (`gk_eventloop_wakeups_total`).
    pub(crate) wakeups: Counter,
    /// Responses that did not fit the socket buffer in one write and
    /// re-armed `EPOLLOUT` (`gk_conn_write_stalls_total`).
    pub(crate) write_stalls: Counter,
}

impl NetMetrics {
    /// Registers (or finds) the connection families in `reg`.
    pub fn register(reg: &Registry) -> NetMetrics {
        NetMetrics {
            connections_total: reg.counter(
                "gk_connections_total",
                "TCP connections accepted since startup.",
            ),
            connections_active: reg
                .gauge("gk_connections_active", "TCP connections currently open."),
            read_errors: reg.counter(
                "gk_conn_read_errors_total",
                "Connections dropped by a request-read I/O error.",
            ),
            write_errors: reg.counter(
                "gk_conn_write_errors_total",
                "Connections dropped by a response-write I/O error.",
            ),
            rejected: reg.counter(
                "gk_conns_rejected_total",
                "Connections refused with `ERR busy` by --max-conns admission control.",
            ),
            ready_depth: reg.gauge(
                "gk_ready_queue_depth",
                "Requests queued for the worker pool, not yet picked up (epoll model).",
            ),
            wakeups: reg.counter(
                "gk_eventloop_wakeups_total",
                "Event-loop epoll_wait returns since startup.",
            ),
            write_stalls: reg.counter(
                "gk_conn_write_stalls_total",
                "Responses that outgrew the socket buffer and re-armed EPOLLOUT.",
            ),
        }
    }
}

/// Configuration for [`serve_with`] and [`serve_handler`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads executing requests.
    pub threads: usize,
    /// Admission bound on simultaneous line-protocol connections; `0`
    /// means unlimited. Beyond it, new connections are answered
    /// `ERR busy` and closed (`gk_conns_rejected_total`).
    pub max_conns: usize,
    /// Optional `host:port` for the HTTP scrape endpoint
    /// (`/metrics`, `/healthz`, `/traces`), served by the same reactor.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            max_conns: 0,
            metrics_addr: None,
        }
    }
}

/// A running TCP front-end. Dropping the handle without calling
/// [`stop`](ServeHandle::stop) leaves the daemon threads running.
pub struct ServeHandle(event_loop::EpollServer);

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// The bound scrape-endpoint address, when one was requested via
    /// [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.0.metrics_addr
    }

    /// Stops accepting, closes every connection, and joins the reactor
    /// and the workers (each finishes the job it is running first).
    pub fn stop(self) {
        self.0.stop();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
/// serves `server` with `threads` request workers until
/// [`ServeHandle::stop`]. Shorthand for [`serve_with`] with default
/// [`ServeOptions`].
pub fn serve(server: Arc<Server>, addr: &str, threads: usize) -> std::io::Result<ServeHandle> {
    serve_with(
        server,
        addr,
        &ServeOptions {
            threads,
            ..ServeOptions::default()
        },
    )
}

/// Binds `addr` and serves `server` per `opts` until
/// [`ServeHandle::stop`]. `STATS` then reports `net_model=epoll` and the
/// admission bound.
pub fn serve_with(
    server: Arc<Server>,
    addr: &str,
    opts: &ServeOptions,
) -> std::io::Result<ServeHandle> {
    server.note_net_config(opts.max_conns);
    let net = server.net;
    serve_handler(server, net, addr, opts)
}

/// Binds `addr` and serves `handler` per `opts` until
/// [`ServeHandle::stop`], counting connections into `net`.
pub fn serve_handler(
    handler: Arc<dyn LineHandler>,
    net: NetMetrics,
    addr: &str,
    opts: &ServeOptions,
) -> std::io::Result<ServeHandle> {
    event_loop::spawn(handler, net, addr, opts).map(ServeHandle)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gk_core::KeySet;
    use gk_graph::parse_graph;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn test_server() -> Arc<Server> {
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
        Arc::new(Server::new(g, keys))
    }

    fn opts(threads: usize) -> ServeOptions {
        ServeOptions {
            threads,
            ..ServeOptions::default()
        }
    }

    /// Reads one response paragraph (text up to the blank line).
    fn read_paragraph(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
        let mut out = String::new();
        let mut buf = String::new();
        loop {
            buf.clear();
            if reader.read_line(&mut buf)? == 0 {
                if out.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof before paragraph",
                    ));
                }
                break;
            }
            if buf.trim_end_matches(['\r', '\n']).is_empty() {
                break;
            }
            out.push_str(&buf);
        }
        Ok(out.trim_end().to_string())
    }

    /// One request on a fresh connection.
    pub(crate) fn ask(addr: impl std::net::ToSocketAddrs, line: &str) -> String {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        read_paragraph(&mut BufReader::new(conn)).unwrap()
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let h = serve_with(test_server(), "127.0.0.1:0", &opts(2)).unwrap();
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        // One burst of pipelined requests: answers must come back in
        // request order, ending with BYE and EOF after QUIT.
        writer.write_all(b"PING\nSAME a1 a2\nPING\nQUIT\n").unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");
        assert!(read_paragraph(&mut reader).unwrap().starts_with("YES"));
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");
        assert_eq!(read_paragraph(&mut reader).unwrap(), "BYE");
        let mut rest = String::new();
        BufRead::read_line(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "got {rest:?} after BYE");
        h.stop();
    }

    #[test]
    fn any_line_handler_is_served_with_the_same_framing() {
        struct Shout;
        impl LineHandler for Shout {
            fn answer(&self, line: &str) -> String {
                line.to_uppercase()
            }
        }
        let net = NetMetrics::register(&Registry::new());
        let h = serve_handler(Arc::new(Shout), net, "127.0.0.1:0", &opts(1)).unwrap();
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writer.write_all(b"hello\n\n  there \nquit\n").unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "HELLO");
        assert_eq!(read_paragraph(&mut reader).unwrap(), "THERE");
        assert_eq!(read_paragraph(&mut reader).unwrap(), "BYE");
        h.stop();
        assert_eq!(net.connections_total.get(), 1);
        assert_eq!(net.connections_active.get(), 0);
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let server = test_server();
        let before = server.net.read_errors.get();
        let h = serve_with(Arc::clone(&server), "127.0.0.1:0", &opts(2)).unwrap();

        // A complete-but-over-long line.
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let mut big = vec![b'A'; MAX_REQUEST_LINE + 1];
        big.push(b'\n');
        writer.write_all(&big).unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "ERR request too long");
        let mut rest = String::new();
        BufRead::read_line(&mut reader, &mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close");

        // A newline-free flood: rejected without buffering it all.
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let flood = vec![b'B'; MAX_REQUEST_LINE + 4096];
        // The server may cut the connection mid-write; that reset is
        // exactly the behavior under test, not a test failure.
        let _ = writer.write_all(&flood);
        let _ = writer.flush();
        let got = read_paragraph(&mut reader).unwrap_or_default();
        assert!(
            got.is_empty() || got == "ERR request too long",
            "got {got:?}"
        );

        h.stop();
        assert!(
            server.net.read_errors.get() >= before + 2,
            "oversized requests must count into gk_conn_read_errors_total"
        );
    }

    #[test]
    fn rejects_beyond_max_conns_with_err_busy() {
        let server = test_server();
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 2,
                max_conns: 1,
                metrics_addr: None,
            },
        )
        .unwrap();

        // First connection occupies the only admission slot.
        let held = TcpStream::connect(h.addr()).unwrap();
        let mut writer = held.try_clone().unwrap();
        let mut reader = BufReader::new(held);
        writer.write_all(b"PING\n").unwrap();
        assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG");

        // The second is turned away at the door.
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut busy = BufReader::new(conn);
        assert_eq!(read_paragraph(&mut busy).unwrap(), "ERR busy");
        assert!(server.net.rejected.get() >= 1);

        // Releasing the slot readmits: the reactor frees it before the
        // socket shutdown, but a fresh connect can still race the
        // teardown, so retry briefly.
        drop(writer);
        drop(reader);
        let mut readmitted = false;
        for _ in 0..50 {
            let conn = TcpStream::connect(h.addr()).unwrap();
            let mut w = conn.try_clone().unwrap();
            let mut r = BufReader::new(conn);
            if w.write_all(b"PING\n").is_ok() && read_paragraph(&mut r).is_ok_and(|p| p == "PONG") {
                readmitted = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            readmitted,
            "slot must free after the held connection closes"
        );
        h.stop();
    }

    #[test]
    fn slow_loris_does_not_stall_other_connections() {
        // One worker thread: if a half-written request occupied it, the
        // probe below could not be answered until the loris completed.
        let h = serve_with(test_server(), "127.0.0.1:0", &opts(1)).unwrap();

        // The loris: half a request line, then silence.
        let loris = TcpStream::connect(h.addr()).unwrap();
        let mut loris_writer = loris.try_clone().unwrap();
        let mut loris_reader = BufReader::new(loris);
        loris_writer.write_all(b"PI").unwrap();
        loris_writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // A well-behaved probe right behind it is answered immediately —
        // the timestamps are the proof of no cross-connection stall.
        let probe_start = Instant::now();
        assert_eq!(ask(h.addr(), "PING"), "PONG");
        let probe_elapsed = probe_start.elapsed();
        assert!(
            probe_elapsed < Duration::from_millis(500),
            "probe stalled behind the loris: {probe_elapsed:?}"
        );

        // The loris completes its line and still gets the right answer.
        loris_writer.write_all(b"NG\n").unwrap();
        assert_eq!(read_paragraph(&mut loris_reader).unwrap(), "PONG");
        h.stop();
    }

    #[test]
    fn the_reactor_hosts_the_metrics_endpoint() {
        let h = serve_with(
            test_server(),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 2,
                max_conns: 0,
                metrics_addr: Some("127.0.0.1:0".to_string()),
            },
        )
        .unwrap();
        let maddr = h.metrics_addr().expect("metrics endpoint requested");
        let mut conn = TcpStream::connect(maddr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("gk_eventloop_wakeups_total"), "{resp}");
        assert!(resp.contains("gk_conns_rejected_total"), "{resp}");
        h.stop();
    }

    #[test]
    fn stats_reports_net_model_and_max_conns() {
        let server = test_server();
        assert!(server.handle("STATS").contains("net_model=none"));
        let h = serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            &ServeOptions {
                threads: 1,
                max_conns: 7,
                metrics_addr: None,
            },
        )
        .unwrap();
        let stats = ask(h.addr(), "STATS");
        assert!(stats.contains("net_model=epoll"), "{stats}");
        assert!(stats.contains("max_conns=7"), "{stats}");
        h.stop();
    }

    #[test]
    fn deep_pipelining_is_answered_completely_and_in_order() {
        // 4x the per-connection pending bound, written in one burst:
        // exercises the pause/resume backpressure path end to end.
        let h = serve_with(test_server(), "127.0.0.1:0", &opts(2)).unwrap();
        let conn = TcpStream::connect(h.addr()).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let n = 1024;
        let burst = "PING\n".repeat(n);
        let writer_thread = std::thread::spawn(move || {
            let _ = writer.write_all(burst.as_bytes());
        });
        for i in 0..n {
            assert_eq!(read_paragraph(&mut reader).unwrap(), "PONG", "response {i}");
        }
        writer_thread.join().unwrap();
        h.stop();
    }
}
