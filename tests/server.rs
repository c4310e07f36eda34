//! Integration tests for the resident entity-resolution service: the full
//! query → ingest → incremental-advance loop in-process, and concurrent
//! correctness under a streaming insert (readers must see either the
//! pre-update or the post-update `Eq`, never a torn mixture).

use keys_for_graphs::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const KEYS: &str = r#"
    key "Q2" album(x)  { x -name_of-> n*; x -release_year-> y*; }
    key "Q3" artist(x) { x -name_of-> n*; a:album -recorded_by-> x; }
"#;

/// A catalog with one planted duplicate pair (a1/a2, resolved at startup)
/// and one latent pair (b1/b2 + their artists r1/r2) that only becomes a
/// duplicate once release years stream in.
const CATALOG: &str = r#"
    a1:album name_of "Anthology 2"
    a1:album release_year "1996"
    a2:album name_of "Anthology 2"
    a2:album release_year "1996"
    b1:album name_of "Let It Be"
    b1:album recorded_by r1:artist
    r1:artist name_of "The Beatles"
    b2:album name_of "Let It Be"
    b2:album recorded_by r2:artist
    r2:artist name_of "The Beatles"
"#;

const MERGING_INSERT: &str =
    r#"INSERT b1:album release_year "1970" ; b2:album release_year "1970""#;

fn catalog_server() -> Server {
    Server::new(parse_graph(CATALOG).unwrap(), KeySet::parse(KEYS).unwrap())
}

/// A client whose every call fails after 10 s instead of hanging.
fn client(addr: &str) -> Client {
    let mut c = Client::lazy(addr);
    c.set_deadline(Some(std::time::Duration::from_secs(10)));
    c
}

#[test]
fn query_ingest_query_loop_via_incremental_path() {
    let server = catalog_server();

    // 1. The planted duplicate is resolved by the startup chase …
    assert!(server.handle("SAME a1 a2").starts_with("YES"));
    // … with a checkable proof.
    let proof = server.handle("EXPLAIN a1 a2");
    assert!(proof.starts_with("PROOF"), "{proof}");
    assert!(proof.contains("by Q2"), "{proof}");
    assert!(proof.contains("verified"), "{proof}");

    // 2. The latent pair is not yet identified.
    assert!(server.handle("SAME b1 b2").starts_with("NO"));
    assert!(server.handle("SAME r1 r2").starts_with("NO"));

    // 3. Streaming inserts complete Q2's witness for b1/b2.
    let resp = server.handle(MERGING_INSERT);
    assert!(resp.starts_with("OK mode=incremental"), "{resp}");

    // 4. The new duplicates are visible, including the recursive cascade
    //    through Q3 to the artists.
    assert!(server.handle("SAME b1 b2").starts_with("YES"));
    assert!(server.handle("SAME r1 r2").starts_with("YES"));
    assert_eq!(server.handle("DUPS b1"), "DUPS b1: b2");
    let proof2 = server.handle("EXPLAIN r1 r2");
    assert!(proof2.contains("by Q3"), "{proof2}");

    // 5. And STATS attributes the advance to the incremental path — the
    //    startup chase was the only full chase that ever ran.
    let stats = server.handle("STATS");
    assert!(stats.contains("incremental_advances=1"), "{stats}");
    assert!(stats.contains("full_rechases=0"), "{stats}");
    assert!(stats.contains("version=1"), "{stats}");
}

#[test]
fn concurrent_readers_see_no_torn_state_during_insert() {
    // The merging insert identifies TWO pairs atomically: b1<=>b2 (Q2) and,
    // through recursion, r1<=>r2 (Q3). Both flips commit in one snapshot
    // swap, so every reader — 8 threads of mixed SAME/DUPS traffic racing
    // the writer — must observe one of exactly two worlds:
    //
    //   pre-update:  SAME b1 b2 = NO,  DUPS r1 = NONE …
    //   post-update: SAME b1 b2 = YES, DUPS r1 = r2 …
    //
    // and, because versions only advance, a thread that has seen the
    // post-update world may never see the pre-update world afterwards.
    // A torn read (b-pair merged but r-pair not, or a post->pre flip)
    // panics the reader thread and fails the test at join.
    const READERS: usize = 8;
    const ITERS: usize = 300;

    let server = Arc::new(catalog_server());
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let server = Arc::clone(&server);
            let start = &start;
            let done = &done;
            scope.spawn(move || {
                // Classify one response as pre(false)/post(true) state.
                let classify = |req: &str, resp: &str| -> bool {
                    match (req, resp) {
                        (r, s) if r.starts_with("SAME") && s.starts_with("YES") => true,
                        (r, s) if r.starts_with("SAME") && s.starts_with("NO") => false,
                        ("DUPS b1", "DUPS b1: b2") => true,
                        ("DUPS b1", s) if s.starts_with("NONE") => false,
                        ("DUPS r1", "DUPS r1: r2") => true,
                        ("DUPS r1", s) if s.starts_with("NONE") => false,
                        (r, s) => panic!("reader {reader}: invalid answer {s:?} to {r:?}"),
                    }
                };
                let queries = ["SAME b1 b2", "SAME r1 r2", "DUPS b1", "DUPS r1"];
                start.wait();
                let mut seen_post = false;
                for i in 0..ITERS {
                    let req = queries[(i + reader) % queries.len()];
                    let post = classify(req, &server.handle(req));
                    if seen_post && !post {
                        panic!("reader {reader}: post-update state regressed at iter {i}");
                    }
                    seen_post |= post;
                    if done.load(Ordering::Relaxed) && i > ITERS / 2 {
                        break;
                    }
                }
            });
        }

        // The writer: one batched insert racing the readers.
        let server_w = Arc::clone(&server);
        start.wait();
        let resp = server_w.handle(MERGING_INSERT);
        assert!(resp.starts_with("OK mode=incremental"), "{resp}");
        done.store(true, Ordering::Relaxed);
    });

    // Steady state after the race: both pairs merged, one incremental
    // advance, no full re-chase.
    assert!(server.handle("SAME b1 b2").starts_with("YES"));
    assert!(server.handle("SAME r1 r2").starts_with("YES"));
    let stats = server.handle("STATS");
    assert!(stats.contains("incremental_advances=1"), "{stats}");
    assert!(stats.contains("full_rechases=0"), "{stats}");
}

#[test]
fn concurrent_tcp_clients_with_mixed_traffic() {
    // The same race through real sockets and the worker pool: 8 TCP
    // clients issue SAME/DUPS while one client INSERTs.
    use keys_for_graphs::server::serve;

    let server = Arc::new(catalog_server());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr().to_string();

    let barrier = Barrier::new(9);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let addr = addr.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = client(&addr);
                barrier.wait();
                let mut seen_post = false;
                for i in 0..40 {
                    let req = if (i + t) % 2 == 0 {
                        "SAME b1 b2"
                    } else {
                        "SAME r1 r2"
                    };
                    let resp = client.request_line(req).unwrap();
                    let post = resp.starts_with("YES");
                    assert!(
                        post || resp.starts_with("NO"),
                        "client {t}: unexpected answer {resp:?}"
                    );
                    if seen_post {
                        assert!(post, "client {t}: regressed at iter {i}");
                    }
                    seen_post |= post;
                }
            });
        }
        let addr2 = addr.clone();
        let barrier = &barrier;
        scope.spawn(move || {
            barrier.wait();
            let resp = client(&addr2).request_line(MERGING_INSERT).unwrap();
            assert!(resp.starts_with("OK"), "{resp}");
        });
    });

    let after = client(&addr).request_line("SAME b1 b2").unwrap();
    assert!(after.starts_with("YES"), "{after}");
    handle.stop();
}

#[test]
fn blank_lines_are_skipped_and_framing_stays_aligned() {
    // Piped input ("query --stdin" with a trailing newline, sloppy shell
    // heredocs) interleaves blank lines with requests. A blank line must
    // produce NO response paragraph — answering ERR would misalign a
    // pipelined client that matches responses to requests by counting
    // paragraphs, and would inflate gk_request_errors_total.
    use keys_for_graphs::server::serve;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Arc::new(catalog_server());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", 1).unwrap();

    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.write_all(b"SAME a1 a2\n\n\nSTATS\n\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // Exactly two response paragraphs come back, in request order, with
    // nothing in between for the three blank lines.
    let mut read_paragraph = || {
        let mut para = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server closed");
            if line.trim_end_matches(['\r', '\n']).is_empty() {
                return para;
            }
            para.push_str(&line);
        }
    };
    assert!(read_paragraph().starts_with("YES"));
    assert!(read_paragraph().starts_with("STATS"));

    // The error counter never moved: blank lines were skipped, not parsed.
    let metrics = server.handle("METRICS");
    assert!(metrics.contains("gk_request_errors_total 0"), "{metrics}");
    handle.stop();
}

#[test]
fn one_shot_request_times_out_against_a_silent_server() {
    // A listener that accepts and then never answers models a wedged
    // server: a client under a deadline must fail instead of blocking.
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        std::thread::sleep(std::time::Duration::from_secs(5));
        drop(conn);
    });

    let t0 = std::time::Instant::now();
    let mut c = Client::lazy(&addr);
    c.set_deadline(Some(std::time::Duration::from_millis(200)));
    let err = c
        .request_line("STATS")
        .expect_err("read against a silent server must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "{err:?}"
    );
    assert!(t0.elapsed() < std::time::Duration::from_secs(3));
    drop(hold); // detach: the holder thread finishes on its own clock
}
