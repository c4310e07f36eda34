//! The four workloads, driven over the wire from one closed-loop client.
//!
//! Each workload starts the program as a child process, repeats whole
//! rounds of a fixed script until the run's measuring time is spent, and
//! checks every answer against the planted truth. In a traced run every
//! second round wraps its requests in `TRACE` (the router refuses that for
//! mutations, so cluster writes stay plain); those rounds feed the
//! `traced.*` samples that show the tracing overhead.

use crate::inputs::{check_closure, check_explain, check_read, stat, Data, Truth};
use crate::proc::Server;
use crate::stats::Rng;
use gk_client::Client;
use gk_server::Response;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Requests in flight in the pipelined pass.
pub const PIPE_DEPTH: usize = 64;

/// Starts made before measuring, for `setup_s`.
pub const SETUP_REPS: usize = 5;

const SERVE_BANNER: &str = "serving on ";
const CLUSTER_BANNER: &str = "cluster router on ";

/// The sizes of one workload's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// `GenConfig::google().with_scale(..)`.
    pub scale: f64,
    /// Share of the triples the server starts from; the rest is streamed.
    pub base_share: f64,
    /// Read requests per round (lookup, ingest, cluster) or per burst (churn).
    pub reads: usize,
    /// Requests per pipelined pass (the read list, cycled).
    pub pipe_reads: usize,
    /// Pipelined passes per read phase.
    pub pipe_passes: usize,
    /// `EXPLAIN`s per round (lookup).
    pub explains: usize,
    /// Delete/restore cycles per round (churn).
    pub cycles: usize,
}

impl Shape {
    pub fn of(workload: &str, tiny: bool) -> Shape {
        let s = match workload {
            "lookup" => Shape {
                scale: 0.5,
                base_share: 1.0,
                reads: 2000,
                pipe_reads: 4096,
                pipe_passes: 4,
                explains: 4,
                cycles: 0,
            },
            "ingest" => Shape {
                scale: 0.5,
                base_share: 0.5,
                reads: 1000,
                pipe_reads: 4096,
                pipe_passes: 4,
                explains: 0,
                cycles: 0,
            },
            "churn" => Shape {
                scale: 0.5,
                base_share: 1.0,
                reads: 200,
                pipe_reads: 2048,
                pipe_passes: 2,
                explains: 0,
                cycles: 3,
            },
            // The router answers pipelined reads at ~1.3k/s (see README).
            "cluster" => Shape {
                scale: 0.25,
                base_share: 0.9,
                reads: 1000,
                pipe_reads: 500,
                pipe_passes: 2,
                explains: 0,
                cycles: 0,
            },
            other => panic!("unknown workload {other}"),
        };
        if tiny {
            Shape {
                scale: 0.05,
                reads: s.reads.min(100),
                pipe_reads: 100,
                pipe_passes: 1,
                ..s
            }
        } else {
            s
        }
    }
}

/// What one run did and measured.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations (the first few verbatim, then counted).
    pub wrong: u64,
    pub notes: Vec<String>,
    pub samples: BTreeMap<String, Vec<f64>>,
    /// `(request line, RTT µs)` of untraced sequential reads, for the
    /// wire share of each read.
    pub read_rtts: Vec<(String, f64)>,
}

impl Tally {
    pub fn push(&mut self, key: &str, v: f64) {
        self.samples.entry(key.to_string()).or_default().push(v);
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.wrong += 1;
            if self.notes.len() < 10 {
                self.notes.push(e);
            }
        }
    }
}

/// The run's settings.
pub struct Ctx {
    pub bin: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub sabotage: bool,
}

/// What a workload sent, kept for the traced run's in-process replay.
pub struct Plan {
    pub shape: Shape,
    pub base_text: String,
    pub keys_text: String,
    pub stream: Vec<String>,
    pub reads: Vec<String>,
    /// Planted pairs this workload explains (at least one).
    pub explains: Vec<(String, String)>,
    /// `(DELETE, restoring INSERT)` lines that break and restore a planted pair.
    pub probes: Vec<(String, String)>,
    /// Names of the keys dropped and re-added (none: the first key of Σ).
    pub key_changes: Vec<String>,
    pub truth: Truth,
}

impl Ctx {
    fn data(&self, shape: &Shape) -> Data {
        let mut d = Data::generate(shape.scale, self.seed);
        if self.sabotage {
            let a = d.planted[0].0.clone();
            d.truth.sabotage(&a);
        }
        d
    }

    fn write(&self, name: &str, text: &str) -> Result<String, String> {
        let p = self.dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p.display().to_string())
    }

    fn start(&self, args: &[String], banner: &str) -> Result<Server, String> {
        Server::start(&self.bin, args, banner, &self.dir.join("server.err"))
    }

    /// `SETUP_REPS` starts; all but the last are killed.
    fn start_reps(&self, args: &[String], banner: &str, t: &mut Tally) -> Result<Server, String> {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let s = self.start(args, banner)?;
            t.push("setup", s.setup_s);
            last = Some(s);
        }
        Ok(last.expect("SETUP_REPS > 0"))
    }

    /// True while another round should start.
    fn more(&self, t0: Instant, round: usize) -> bool {
        let min_rounds = if self.trace { 2 } else { 1 };
        round < min_rounds || t0.elapsed().as_secs_f64() < self.seconds
    }

    /// Traced runs wrap every second round in `TRACE`.
    fn traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }

    /// A path under the run dir with nothing there yet.
    fn fresh_dir(&self, name: &str) -> String {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p.display().to_string()
    }
}

/// Sample key under tracing.
fn key(name: &str, traced: bool) -> String {
    if traced {
        format!("traced.{name}")
    } else {
        name.to_string()
    }
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// The wrapped answer of a `TRACE` reply.
fn unwrap_trace(answer: &str) -> Result<String, String> {
    answer
        .split_once("\nANSWER\n")
        .map(|(_, a)| a.to_string())
        .ok_or_else(|| format!("not a TRACE answer: {answer}"))
}

/// One timed request. `Ok(None)` is an `ERR` answer, counted as failed.
fn timed(
    c: &mut Client,
    line: &str,
    traced: bool,
    t: &mut Tally,
) -> Result<Option<(String, f64)>, String> {
    t.attempted += 1;
    let wire = if traced {
        format!("TRACE {line}")
    } else {
        line.to_string()
    };
    let t0 = Instant::now();
    let answer = c
        .request_line(&wire)
        .map_err(|e| format!("{}: {e}", verb(line)))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let answer = if traced {
        unwrap_trace(&answer)?
    } else {
        answer
    };
    if answer.starts_with("ERR") {
        t.failed += 1;
        if t.notes.len() < 10 {
            t.notes.push(format!("{}: {answer}", verb(line)));
        }
        return Ok(None);
    }
    Ok(Some((answer, ms)))
}

fn verb(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

/// An untimed request whose answer a check reads.
fn ask(c: &mut Client, line: &str, t: &mut Tally) -> Result<String, String> {
    t.attempted += 1;
    c.request_line(line)
        .map_err(|e| format!("{}: {e}", verb(line)))
}

fn stats(c: &mut Client, t: &mut Tally) -> Result<Vec<(String, String)>, String> {
    t.attempted += 1;
    c.stats().map_err(|e| format!("STATS: {e}"))
}

/// An `OK mode=…` answer; its iso/rounds counters go to the tally.
fn check_update(t: &mut Tally, class: &str, answer: &str) {
    match Response::parse(answer) {
        Ok(Response::Updated(r)) => {
            t.push(&format!("{class}.iso"), r.iso_checks as f64);
            t.push(&format!("{class}.rounds"), r.rounds as f64);
        }
        Ok(Response::KeyAdded(k)) | Ok(Response::KeyDropped(k)) => {
            t.push(&format!("{class}.iso"), k.iso_checks as f64);
        }
        _ => t.check(Err(format!("{class}: unexpected answer {answer}"))),
    }
}

/// The read list once one request at a time (latency), then `pipe_passes`
/// passes of `pipe_reads` of it, cycled, through the pipeline (throughput), checking
/// every answer and that both passes answer byte-identically.
fn read_phase(
    c: &mut Client,
    lines: &[String],
    shape: &Shape,
    truth: &Truth,
    traced: bool,
    t: &mut Tally,
) -> Result<(), String> {
    let mut seq = Vec::with_capacity(lines.len());
    for l in lines {
        let a = timed(c, l, traced, t)?;
        if let Some((answer, ms)) = &a {
            t.push(&key("read", traced), *ms);
            if !traced {
                t.read_rtts.push((l.clone(), ms * 1e3));
            }
            t.check(check_read(truth, l, answer));
        }
        seq.push(a.map(|(answer, _)| answer));
    }
    let wire: Vec<String> = lines
        .iter()
        .cycle()
        .take(shape.pipe_reads)
        .map(|l| {
            if traced {
                format!("TRACE {l}")
            } else {
                l.clone()
            }
        })
        .collect();
    for _ in 0..shape.pipe_passes {
        t.attempted += wire.len() as u64;
        let t0 = Instant::now();
        let piped = c
            .run_pipelined_raw(&wire, PIPE_DEPTH)
            .map_err(|e| format!("pipelined reads: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        t.push(&key("reads_per_s", traced), wire.len() as f64 / secs);
        for (s, p) in seq.iter().cycle().zip(&piped) {
            let p = if traced { unwrap_trace(p)? } else { p.clone() };
            if p.starts_with("ERR") {
                t.failed += 1;
            } else if s.as_deref() != Some(p.as_str()) {
                t.check(Err(format!(
                    "pipelined answer {p:?} differs from sequential {s:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Bytes under a directory.
fn dir_bytes(p: &Path) -> u64 {
    std::fs::read_dir(p)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Read-only traffic on a fully resolved graph, plus timed `EXPLAIN`s.
pub fn lookup(cx: &Ctx, t: &mut Tally) -> Result<Plan, String> {
    let shape = Shape::of("lookup", cx.tiny);
    let data = cx.data(&shape);
    let (base, _) = data.split(1.0);
    let g = cx.write("graph.triples", &base)?;
    let k = cx.write("keys.gk", &data.keys_text)?;
    let server = cx.start_reps(&args(&["serve", &g, &k, "--port", "0"]), SERVE_BANNER, t)?;
    let mut c = server.client()?;
    let reads = data.reads(shape.reads, &mut Rng::new(cx.seed));
    let pairs = &data.planted;
    let t0 = Instant::now();
    let mut round = 0;
    while cx.more(t0, round) {
        let traced = cx.traced(round);
        read_phase(&mut c, &reads, &shape, &data.truth, traced, t)?;
        for i in 0..shape.explains {
            let (a, b) = &pairs[(round * shape.explains + i) % pairs.len()];
            if let Some((answer, ms)) = timed(&mut c, &format!("EXPLAIN {a} {b}"), traced, t)? {
                t.push(&key("explain", traced), ms);
                t.check(check_explain(&data.truth, a, b, &answer));
            }
        }
        round += 1;
    }
    t.push("peak_rss", server.peak_rss_mb()?);
    let s = stats(&mut c, t)?;
    t.check(check_closure(&data.truth, &s, "lookup"));
    server.kill();
    Ok(Plan {
        shape,
        base_text: base,
        keys_text: data.keys_text.clone(),
        stream: Vec::new(),
        reads,
        explains: pairs.iter().take(shape.explains.max(1)).cloned().collect(),
        probes: pairs
            .iter()
            .take(3)
            .map(|(_, b)| data.break_pair(b))
            .collect(),
        key_changes: Vec::new(),
        truth: data.truth,
    })
}

/// The single-line DSL of every declared key, from `KEYS`.
fn key_lines(c: &mut Client, t: &mut Tally) -> Result<Vec<String>, String> {
    match Response::parse(&ask(c, "KEYS", t)?) {
        Ok(Response::KeyList { keys, .. }) if !keys.is_empty() => Ok(keys),
        other => Err(format!("KEYS: unexpected answer {other:?}")),
    }
}

/// The name in `key "NAME" …`.
pub fn key_name(dsl: &str) -> Result<&str, String> {
    dsl.split('"')
        .nth(1)
        .ok_or_else(|| format!("no key name in {dsl:?}"))
}

/// Durable start on half a graph, the rest streamed as `INSERT` batches,
/// then SIGKILL and a restart from the data dir.
pub fn ingest(cx: &Ctx, t: &mut Tally) -> Result<Plan, String> {
    let shape = Shape::of("ingest", cx.tiny);
    let data = cx.data(&shape);
    let (base, stream) = data.split(shape.base_share);
    let streamed = data.lines.len() - base.lines().count();
    let g = cx.write("graph.triples", &base)?;
    let k = cx.write("keys.gk", &data.keys_text)?;
    let serve = |dir: &str| {
        args(&[
            "serve",
            &g,
            &k,
            "--port",
            "0",
            "--data-dir",
            dir,
            "--fsync",
            "always",
        ])
    };
    for i in 0..SETUP_REPS {
        let dd = cx.fresh_dir(&format!("setup-{i}"));
        let s = cx.start(&serve(&dd), SERVE_BANNER)?;
        t.push("setup", s.setup_s);
        s.kill();
        let _ = std::fs::remove_dir_all(&dd);
    }
    let reads = data.reads(shape.reads, &mut Rng::new(cx.seed));
    let t0 = Instant::now();
    let mut round = 0;
    while cx.more(t0, round) {
        let traced = cx.traced(round);
        let dd = cx.fresh_dir("data");
        let server = cx.start(&serve(&dd), SERVE_BANNER)?;
        t.push("setup", server.setup_s);
        let mut c = server.client()?;
        let late_from = stream.len() - stream.len().div_ceil(10);
        let ts = Instant::now();
        for (i, batch) in stream.iter().enumerate() {
            if let Some((answer, ms)) = timed(&mut c, batch, traced, t)? {
                t.push(&key("insert", traced), ms);
                if i >= late_from {
                    t.push(&key("insert_late", traced), ms);
                }
                check_update(t, "insert", &answer);
            }
        }
        t.push(
            &key("triples_per_s", traced),
            streamed as f64 / ts.elapsed().as_secs_f64(),
        );
        let s = stats(&mut c, t)?;
        t.check(check_closure(&data.truth, &s, "after the stream"));
        let held = stat(&s, "triples")?;
        t.check(if held == data.lines.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "after the stream the server holds {held} of {} triples",
                data.lines.len()
            ))
        });
        read_phase(&mut c, &reads, &shape, &data.truth, traced, t)?;
        t.push("peak_rss", server.peak_rss_mb()?);
        t.push(
            "disk_bytes_per_triple",
            dir_bytes(Path::new(&dd)) as f64 / held as f64,
        );
        server.kill();

        let restarted = cx.start(&serve(&dd), SERVE_BANNER)?;
        t.push("recover", restarted.setup_s);
        let mut c = restarted.client()?;
        let s = stats(&mut c, t)?;
        t.check(check_closure(&data.truth, &s, "after the restart"));
        let again = stat(&s, "triples")?;
        t.check(if again == held {
            Ok(())
        } else {
            Err(format!(
                "the restarted server holds {again} triples, {held} were acknowledged"
            ))
        });
        t.attempted += reads.len() as u64;
        let answers = c
            .run_pipelined_raw(&reads, PIPE_DEPTH)
            .map_err(|e| format!("reads after restart: {e}"))?;
        for (l, a) in reads.iter().zip(&answers) {
            t.check(check_read(&data.truth, l, a));
        }
        restarted.kill();
        let _ = std::fs::remove_dir_all(&dd);
        round += 1;
    }
    let (_, b) = &data.planted[0];
    Ok(Plan {
        shape,
        base_text: base,
        keys_text: data.keys_text.clone(),
        stream,
        reads,
        explains: data.planted.iter().take(1).cloned().collect(),
        probes: vec![data.break_pair(b)],
        key_changes: Vec::new(),
        truth: data.truth,
    })
}

/// Reads beside deletes, restoring inserts and key changes on a resolved graph.
pub fn churn(cx: &Ctx, t: &mut Tally) -> Result<Plan, String> {
    let shape = Shape::of("churn", cx.tiny);
    let data = cx.data(&shape);
    let (base, _) = data.split(1.0);
    let g = cx.write("graph.triples", &base)?;
    let k = cx.write("keys.gk", &data.keys_text)?;
    let server = cx.start_reps(&args(&["serve", &g, &k, "--port", "0"]), SERVE_BANNER, t)?;
    let mut c = server.client()?;
    let keys = key_lines(&mut c, t)?;
    let reads = data.reads(shape.reads, &mut Rng::new(cx.seed));
    let t0 = Instant::now();
    let mut round = 0;
    let mut probes = Vec::new();
    let mut key_changes = Vec::new();
    while cx.more(t0, round) {
        let traced = cx.traced(round);
        for cycle in 0..shape.cycles {
            read_phase(&mut c, &reads, &shape, &data.truth, traced, t)?;
            let n = round * shape.cycles + cycle;
            let (a, b) = &data.planted[n % data.planted.len()];
            let (del, ins) = data.break_pair(b);
            if let Some((answer, ms)) = timed(&mut c, &del, traced, t)? {
                t.push(&key("delete", traced), ms);
                check_update(t, "delete", &answer);
            }
            let same = ask(&mut c, &format!("SAME {a} {b}"), t)?;
            t.check(if same.starts_with("NO ") {
                Ok(())
            } else {
                Err(format!(
                    "after deleting {b}'s name the pair still answers {same}"
                ))
            });
            if let Some((answer, ms)) = timed(&mut c, &ins, traced, t)? {
                t.push(&key("insert", traced), ms);
                check_update(t, "insert", &answer);
            }
            let same = ask(&mut c, &format!("SAME {a} {b}"), t)?;
            t.check(check_read(&data.truth, &format!("SAME {a} {b}"), &same));
            let s = stats(&mut c, t)?;
            t.check(check_closure(&data.truth, &s, "after the restoring INSERT"));
            if probes.len() < shape.cycles {
                probes.push((del, ins));
            }
        }
        // One key change closes every round.
        let dsl = &keys[round % keys.len()];
        let name = key_name(dsl)?;
        if let Some((answer, ms)) = timed(&mut c, &format!("DROPKEY {name}"), traced, t)? {
            t.push(&key("dropkey", traced), ms);
            check_update(t, "keychange", &answer);
        }
        if let Some((answer, ms)) = timed(&mut c, &format!("ADDKEY {dsl}"), traced, t)? {
            t.push(&key("addkey", traced), ms);
            check_update(t, "keychange", &answer);
        }
        let s = stats(&mut c, t)?;
        t.check(check_closure(&data.truth, &s, "after ADDKEY"));
        if key_changes.is_empty() {
            key_changes.push(name.to_string());
        }
        round += 1;
    }
    t.push("peak_rss", server.peak_rss_mb()?);
    server.kill();
    Ok(Plan {
        shape,
        base_text: base,
        keys_text: data.keys_text.clone(),
        stream: Vec::new(),
        reads,
        explains: data.planted.iter().take(1).cloned().collect(),
        probes,
        key_changes,
        truth: data.truth,
    })
}

/// A 2-shard cluster started from most of a graph; the rest streamed
/// through the router, then a read burst.
pub fn cluster(cx: &Ctx, t: &mut Tally) -> Result<Plan, String> {
    let shape = Shape::of("cluster", cx.tiny);
    let data = cx.data(&shape);
    let (base, stream) = data.split(shape.base_share);
    let streamed = data.lines.len() - base.lines().count();
    let g = cx.write("graph.triples", &base)?;
    let k = cx.write("keys.gk", &data.keys_text)?;
    let launch = args(&[
        "cluster",
        &g,
        &k,
        "--shards",
        "2",
        "--heartbeat-ms",
        "0",
        "--port",
        "0",
    ]);
    drop(cx.start_reps(&launch, CLUSTER_BANNER, t)?);
    let reads = data.reads(shape.reads, &mut Rng::new(cx.seed));
    let t0 = Instant::now();
    let mut round = 0;
    while cx.more(t0, round) {
        let traced = cx.traced(round);
        let server = cx.start(&launch, CLUSTER_BANNER)?;
        t.push("setup", server.setup_s);
        let mut c = server.client()?;
        let ts = Instant::now();
        for batch in &stream {
            // The router refuses TRACE of a mutation: writes stay plain.
            if let Some((answer, ms)) = timed(&mut c, batch, false, t)? {
                t.push(&key("insert", traced), ms);
                check_update(t, "insert", &answer);
            }
        }
        t.push(
            &key("triples_per_s", traced),
            streamed as f64 / ts.elapsed().as_secs_f64(),
        );
        let s = stats(&mut c, t)?;
        t.check(check_closure(&data.truth, &s, "cluster after the stream"));
        read_phase(&mut c, &reads, &shape, &data.truth, traced, t)?;
        t.push("peak_rss", server.peak_rss_mb()?);
        server.kill();
        round += 1;
    }
    let (_, b) = &data.planted[0];
    Ok(Plan {
        shape,
        base_text: base,
        keys_text: data.keys_text.clone(),
        stream,
        reads,
        explains: data.planted.iter().take(1).cloned().collect(),
        probes: vec![data.break_pair(b)],
        key_changes: Vec::new(),
        truth: data.truth,
    })
}

/// Triples in an `INSERT`/`DELETE` line.
pub fn triples_in(line: &str) -> usize {
    line.matches(" ; ").count() + 1
}

/// Sanity: a batch never exceeds [`crate::inputs::BATCH`] triples.
#[cfg(test)]
mod tests {
    #[test]
    fn batches_are_bounded() {
        let d = crate::inputs::Data::generate(0.05, 1);
        let (_, s) = d.split(0.5);
        assert!(s
            .iter()
            .all(|b| super::triples_in(b) <= crate::inputs::BATCH));
    }
}
