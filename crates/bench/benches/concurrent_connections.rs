//! Criterion bench for the epoll front-end under many concurrent
//! pipelined clients on the 10k-entity Google-flavoured workload:
//! **epoll/Nconn** opens N simultaneous `gk-client` connections, each
//! pipelining its own deterministic request batch, and the reactor
//! multiplexes them over 4 request workers.
//!
//! The `concurrent_connections` suite experiment checks the answers
//! against in-process `Server::handle`. Client counts stay modest here —
//! criterion repeats each iteration many times, and the 1024-client
//! capacity point lives in the suite experiment, not the hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use gk_client::Client;
use gk_datagen::{generate, GenConfig};
use gk_graph::GraphBuilder;
use gk_server::{serve, Server};
use std::sync::{Arc, Barrier};

fn bench_concurrent_connections(cr: &mut Criterion) {
    // ~10k entities: the scale the PR's acceptance criterion names.
    let w = generate(
        &GenConfig::google()
            .with_scale(0.46)
            .with_chain(2)
            .with_radius(2),
    );
    let names: Vec<String> = w
        .graph
        .entities()
        .take(512)
        .map(|e| w.graph.entity_label(e))
        .collect();

    // Deterministic per-client request-line batches.
    const PER_CLIENT: usize = 32;
    let batch = |c: usize| -> Vec<String> {
        (0..PER_CLIENT)
            .map(|i| {
                let a = &names[(c * 31 + i * 7) % names.len()];
                let b = &names[(c * 17 + i * 13 + 5) % names.len()];
                match (c + i) % 4 {
                    0 => format!("SAME {a} {b}"),
                    1 => format!("REP {a}"),
                    2 => format!("DUPS {a}"),
                    _ => "PING".to_string(),
                }
            })
            .collect()
    };

    let mut group = cr.benchmark_group("concurrent_connections_google_10k");
    group.sample_size(10);

    let server = Arc::new(Server::new(
        GraphBuilder::from_graph(&w.graph).freeze(),
        w.keys.clone(),
    ));
    let handle = serve(server, "127.0.0.1:0", 4).expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    for clients in [16usize, 64] {
        group.bench_with_input(
            criterion::BenchmarkId::new("epoll", format!("{clients}conn")),
            &clients,
            |b, &clients| {
                b.iter(|| {
                    // Fresh connections each iteration: connection churn
                    // is part of what a front-end schedules.
                    let barrier = Arc::new(Barrier::new(clients + 1));
                    let threads: Vec<_> = (0..clients)
                        .map(|c| {
                            let addr = addr.clone();
                            let barrier = Arc::clone(&barrier);
                            let lines = batch(c);
                            std::thread::spawn(move || {
                                let mut client = Client::connect(&addr).expect("connect");
                                barrier.wait();
                                client
                                    .run_pipelined_raw(&lines, 8)
                                    .expect("pipelined batch")
                            })
                        })
                        .collect();
                    barrier.wait();
                    for t in threads {
                        t.join().expect("client thread");
                    }
                });
            },
        );
    }
    handle.stop();
    group.finish();
}

criterion_group!(benches, bench_concurrent_connections);
criterion_main!(benches);
