//! The traced run's per-layer figures.
//!
//! The workload's own operations are replayed in-process through each
//! layer's public entry point and the calls are timed here, around the
//! calls; the program gains no instrumentation. Counters the program
//! already returns (`AdvanceReport`/`KeyChange` iso and round counts, the
//! phase span trees the index records into a caller's `Span`, the WAL
//! fsync histogram, and the cluster router's `METRICS`) fill in the rest.
//!
//! Every workload reports every layer: where its script has no operation
//! of a kind (lookup has no `INSERT`), the replay uses the plan's probes —
//! a `DELETE` that breaks a planted pair and the `INSERT` restoring it, one
//! `DROPKEY`/`ADDKEY` of a generated key, one `EXPLAIN` — on the same graph.

use crate::inputs::{check_closure, check_explain, check_read};
use crate::stats::median;
use crate::wire::{triples_in, Plan, Tally};
use gk_client::Client;
use gk_core::{chase_reference, ChaseEngine, ChaseOrder, KeySet};
use gk_graph::{parse_graph, parse_triple_specs, GraphView, TripleSpec};
use gk_metrics::trace::Span;
use gk_metrics::TraceNode;
use gk_server::{Durability, EmIndex, FsyncMode, MetricValue, Request, Response, Server};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Stream batches replayed through the in-process cluster.
const CLUSTER_REPLAY_BATCHES: usize = 16;

/// Per-layer figures by metric name, plus the samples behind them.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn push(&mut self, k: &'static str, v: f64) {
        self.samples.entry(k).or_default().push(v);
    }

    /// The median, or the mean of fewer than five samples: span times are
    /// whole microseconds, and the mean of a few keeps their spread.
    fn summarize(&mut self, k: &'static str) -> Result<(), String> {
        let s = self
            .samples
            .get(k)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("no {k} samples"))?;
        let v = if s.len() >= 5 {
            median(s)
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        };
        self.values.insert(k, v);
        Ok(())
    }

    pub fn count(&self, k: &str) -> usize {
        self.samples.get(k).map_or(0, Vec::len)
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn specs(line: &str) -> Result<Vec<TripleSpec>, String> {
    let batch = line.split_once(' ').map_or("", |(_, b)| b);
    parse_triple_specs(&batch.replace(" ; ", "\n")).map_err(|e| e.to_string())
}

fn child_micros(node: &TraceNode, name: &str) -> f64 {
    node.children
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.micros as f64)
        .sum()
}

/// Candidate pairs the chase seeded with (the `seed` span's counter).
fn seed_candidates(node: &TraceNode) -> u64 {
    if node.name == "seed" {
        return node.counter("candidates").unwrap_or(0);
    }
    node.children.iter().map(seed_candidates).sum()
}

fn closure(server: &Server, plan: &Plan, when: &str) -> Result<(), String> {
    match server.execute(Request::Stats) {
        Response::Stats(s) => check_closure(&plan.truth, &s, when),
        other => Err(format!("STATS answered {}", other.render())),
    }
}

/// Replays `plan` through the layers; wire shares come from `t`'s samples.
pub fn replay(plan: &Plan, t: &Tally, dir: &Path) -> Result<Layers, String> {
    let mut l = Layers::default();
    let keys = KeySet::parse(&plan.keys_text).map_err(|e| e.to_string())?;

    // graph + core: what every start pays.
    for _ in 0..3 {
        let t0 = Instant::now();
        let g = parse_graph(&plan.base_text).map_err(|e| e.to_string())?;
        l.push("graph.parse_s", secs(t0));
        std::hint::black_box(g);
    }
    let g = parse_graph(&plan.base_text).map_err(|e| e.to_string())?;
    let compiled = keys.compile(&g);
    let t0 = Instant::now();
    let r = chase_reference(&g, &compiled, ChaseOrder::Deterministic);
    l.push("core.full_chase_s", secs(t0));
    std::hint::black_box(r);

    // index + store: a durable index, fsync on every record.
    let data_dir = dir.join("replay");
    let _ = std::fs::remove_dir_all(&data_dir);
    let dur = Durability::in_dir(&data_dir).with_fsync(FsyncMode::Always);
    let (index, _) = EmIndex::open_durable(g, keys.clone(), ChaseEngine::Incremental, &dur)?;
    let server = Server::from_index(index);
    let fsync = server.index().stats.wal_fsync_micros;
    let (fsync_sum0, fsync_n0) = (fsync.sum(), fsync.count());
    let mut wal_bytes = 0.0;
    let mut inserted = 0.0;
    let mut insert = |l: &mut Layers, line: &str| -> Result<(), String> {
        let s = specs(line)?;
        let span = Span::root("insert");
        let t0 = Instant::now();
        let r = server.index().insert_traced(&s, &span)?;
        l.push("index.insert_us", secs(t0) * 1e6);
        span.finish();
        let node = span.to_node().expect("root span is enabled");
        l.push("index.apply_batch_us", child_micros(&node, "apply_batch"));
        l.push("index.compile_us", child_micros(&node, "compile"));
        l.push(
            "index.delta_chase_us",
            child_micros(&node, "delta_chase") + child_micros(&node, "full_rechase"),
        );
        l.push(
            "index.insert_self_us",
            node.micros.saturating_sub(node.child_micros()) as f64,
        );
        l.push("store.wal_append_us", child_micros(&node, "wal_append"));
        wal_bytes += node
            .children
            .iter()
            .filter(|c| c.name == "wal_append")
            .map(|c| c.counter("bytes").unwrap_or(0))
            .sum::<u64>() as f64;
        inserted += triples_in(line) as f64;
        l.push("core.iso_checks_per_insert", r.iso_checks as f64);
        l.push("core.rounds_per_insert", r.rounds as f64);
        l.push("core.candidates_per_insert", seed_candidates(&node) as f64);
        Ok(())
    };
    for batch in &plan.stream {
        insert(&mut l, batch)?;
    }
    l.push(
        "graph.delta_triples",
        server.index().snapshot().graph.delta_triples() as f64,
    );

    // proto + execute: the read list, verb by verb.
    let mut exec_of: HashMap<&str, f64> = HashMap::new();
    let mut exec_all = Vec::new();
    for line in &plan.reads {
        let t0 = Instant::now();
        let req = Request::parse(line).map_err(|e| format!("{line}: {e}"))?;
        let t1 = Instant::now();
        let resp = server.execute(req);
        let t2 = Instant::now();
        let text = resp.render();
        let t3 = Instant::now();
        check_read(&plan.truth, line, &text)?;
        let exec_us = (t2 - t1).as_secs_f64() * 1e6;
        l.push("proto.parse_us", (t1 - t0).as_secs_f64() * 1e6);
        l.push("proto.render_us", (t3 - t2).as_secs_f64() * 1e6);
        let verb_key = match line.split_whitespace().next() {
            Some("SAME") => "execute.same_us",
            Some("REP") => "execute.rep_us",
            _ => "execute.dups_us",
        };
        l.push(verb_key, exec_us);
        exec_of.insert(line, exec_us);
        exec_all.push(exec_us);
    }
    for (line, rtt) in &t.read_rtts {
        if let Some(e) = exec_of.get(line.as_str()) {
            l.push("wire.read_us", rtt - e);
        }
    }
    let mean_exec = exec_all.iter().sum::<f64>() / exec_all.len().max(1) as f64;
    let per_read = 1e6 / median(t.get("reads_per_s"));
    l.push("wire.pipelined_read_us", per_read - mean_exec);

    // EXPLAIN: the verb, then the proof search it runs.
    for (a, b) in &plan.explains {
        let t0 = Instant::now();
        let resp = server.execute(Request::Explain {
            a: a.clone(),
            b: b.clone(),
        });
        l.push("execute.explain_ms", secs(t0) * 1e3);
        check_explain(&plan.truth, a, b, &resp.render())?;
        let snap = server.index().snapshot();
        let (ea, eb) = (snap.graph.entity_named(a), snap.graph.entity_named(b));
        let (ea, eb) = ea
            .zip(eb)
            .ok_or_else(|| format!("{a} or {b} unknown in the replay"))?;
        let t0 = Instant::now();
        let proof = gk_core::prove(&snap.graph, &snap.compiled, ea, eb);
        l.push("core.prove_ms", secs(t0) * 1e3);
        if proof.is_none() {
            return Err(format!("prove found no proof for planted pair {a} {b}"));
        }
    }

    // DELETE that breaks a planted pair, and the INSERT restoring it.
    for (del, ins) in &plan.probes {
        let span = Span::root("delete");
        let t0 = Instant::now();
        let r = server.index().delete_traced(&specs(del)?, &span)?;
        l.push("index.delete_ms", secs(t0) * 1e3);
        span.finish();
        let node = span.to_node().expect("root span is enabled");
        l.push(
            "index.full_rechase_ms",
            child_micros(&node, "full_rechase") / 1e3,
        );
        l.push("core.iso_checks_per_delete", r.iso_checks as f64);
        insert(&mut l, ins)?;
    }
    closure(&server, plan, "replay after the probes")?;

    // DROPKEY + ADDKEY of one generated key.
    let names: Vec<String> = if plan.key_changes.is_empty() {
        keys.keys().iter().take(1).map(|k| k.name.clone()).collect()
    } else {
        plan.key_changes.clone()
    };
    for name in &names {
        let key = server
            .index()
            .keys()
            .keys()
            .iter()
            .find(|k| &k.name == name)
            .cloned()
            .ok_or_else(|| format!("no key {name}"))?;
        let t0 = Instant::now();
        let r = server.index().drop_key(name)?;
        l.push("index.dropkey_ms", secs(t0) * 1e3);
        l.push("core.iso_checks_per_keychange", r.iso_checks as f64);
        let t0 = Instant::now();
        let r = server.index().add_keys(vec![key])?;
        l.push("index.addkey_ms", secs(t0) * 1e3);
        l.push("core.iso_checks_per_keychange", r.iso_checks as f64);
    }
    closure(&server, plan, "replay after the key change")?;
    l.push(
        "store.fsync_us",
        (fsync.sum() - fsync_sum0) as f64 / (fsync.count() - fsync_n0).max(1) as f64,
    );
    l.push("store.wal_bytes_per_triple", wal_bytes / inserted.max(1.0));

    // Recovery from the same data dir.
    drop(server);
    let t0 = Instant::now();
    let (index, _) =
        EmIndex::recover_durable(&dur, ChaseEngine::Incremental)?.ok_or("nothing to recover")?;
    l.push("store.recover_s", secs(t0));
    closure(&Server::from_index(index), plan, "replay after recovery")?;
    let _ = std::fs::remove_dir_all(&data_dir);

    cluster_replay(plan, &mut l)?;

    for k in METRIC_KEYS {
        l.summarize(k)?;
    }
    Ok(l)
}

fn router_counters(c: &mut Client) -> Result<(f64, f64, f64, f64), String> {
    let mut out = (0.0, 0.0, 0.0, 0.0);
    for m in c.metrics().map_err(|e| format!("router METRICS: {e}"))? {
        match (m.name.as_str(), m.value) {
            ("gk_cluster_rounds_total", MetricValue::Counter(v)) => out.0 = v as f64,
            ("gk_cluster_merges_rx_total", MetricValue::Counter(v)) => out.1 = v as f64,
            ("gk_shard_rpc_micros", MetricValue::Histogram { count, sum, .. }) => {
                out = (out.0, out.1, sum as f64, count as f64)
            }
            _ => {}
        }
    }
    Ok(out)
}

/// A 2-shard in-process cluster on the plan's base graph: the router's
/// `METRICS` deltas over each replayed `INSERT`.
fn cluster_replay(plan: &Plan, l: &mut Layers) -> Result<(), String> {
    let opts = gk_cluster::ClusterOpts {
        shards: 2,
        heartbeat: Duration::ZERO,
        ..gk_cluster::ClusterOpts::default()
    };
    let cluster =
        gk_cluster::Cluster::launch(&plan.base_text, &plan.keys_text, "127.0.0.1:0", &opts)?;
    let result = (|| {
        let mut c = Client::connect(cluster.router_addr()).map_err(|e| e.to_string())?;
        c.set_deadline(Some(crate::proc::REQUEST_DEADLINE));
        let mut inserts: Vec<(Option<&str>, &str)> = plan
            .stream
            .iter()
            .take(CLUSTER_REPLAY_BATCHES)
            .map(|b| (None, b.as_str()))
            .collect();
        if inserts.is_empty() {
            inserts = plan
                .probes
                .iter()
                .map(|(d, i)| (Some(d.as_str()), i.as_str()))
                .collect();
        }
        let (mut rpc_sum, mut rpc_n) = (0.0, 0.0);
        for (del, ins) in inserts {
            if let Some(d) = del {
                let a = c.request_line(d).map_err(|e| e.to_string())?;
                if !a.starts_with("OK") {
                    return Err(format!("router DELETE answered {a}"));
                }
            }
            let before = router_counters(&mut c)?;
            let a = c.request_line(ins).map_err(|e| e.to_string())?;
            if !a.starts_with("OK") {
                return Err(format!("router INSERT answered {a}"));
            }
            let after = router_counters(&mut c)?;
            l.push("cluster.rounds_per_insert", after.0 - before.0);
            l.push("cluster.merges_rx_per_insert", after.1 - before.1);
            rpc_sum += after.2 - before.2;
            rpc_n += after.3 - before.3;
        }
        l.push("cluster.shard_rpc_us", rpc_sum / rpc_n.max(1.0));
        // The replayed state is the plan's truth only for the probes.
        if plan.stream.is_empty() {
            let s = c.stats().map_err(|e| e.to_string())?;
            check_closure(&plan.truth, &s, "cluster replay")?;
        }
        Ok(())
    })();
    cluster.stop();
    result
}

/// Every per-layer metric, in report order.
pub const METRIC_KEYS: [&str; 33] = [
    "wire.read_us",
    "wire.pipelined_read_us",
    "proto.parse_us",
    "proto.render_us",
    "execute.same_us",
    "execute.rep_us",
    "execute.dups_us",
    "execute.explain_ms",
    "index.insert_us",
    "index.delta_chase_us",
    "index.compile_us",
    "index.apply_batch_us",
    "index.insert_self_us",
    "index.delete_ms",
    "index.full_rechase_ms",
    "index.addkey_ms",
    "index.dropkey_ms",
    "core.iso_checks_per_insert",
    "core.candidates_per_insert",
    "core.rounds_per_insert",
    "core.iso_checks_per_delete",
    "core.iso_checks_per_keychange",
    "core.prove_ms",
    "core.full_chase_s",
    "graph.parse_s",
    "graph.delta_triples",
    "store.wal_append_us",
    "store.fsync_us",
    "store.wal_bytes_per_triple",
    "store.recover_s",
    "cluster.shard_rpc_us",
    "cluster.rounds_per_insert",
    "cluster.merges_rx_per_insert",
];
