//! Wire-level benchmark of the graphkeys resident service.
//!
//! ```text
//! perfbench --graphkeys PATH --workload lookup|ingest|churn|cluster
//!           --seed N --seconds S --trace 0|1
//! perfbench --graphkeys PATH --smoke
//! perfbench --write-manifest BENCHMARK.json
//! ```
//!
//! One run starts the program as a child process on loopback, drives one
//! workload from a single closed-loop client for `--seconds`, checks every
//! answer against the generator's planted truth, prints a report, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). `run.py`
//! builds the program and this binary and passes the `--graphkeys` path.

mod inputs;
mod layers;
mod proc;
mod stats;
mod wire;

use stats::{median, tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use wire::{Ctx, Plan, Tally};

/// One benchmark metric as `BENCHMARK.json` declares it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// End-to-end only: the share of the parent's median it may worsen by.
    bound: Option<f64>,
}

/// The workloads `BENCHMARK.json` declares.
const WORKLOADS: [(&str, &str); 3] = [
    ("lookup", "read-only SAME/REP/DUPS and EXPLAIN on a resolved graph: reactor, proto, Server::execute and the proof path"),
    ("ingest", "durable start on half a graph, the rest as 64-triple INSERTs, then SIGKILL and recovery: delta chase, overlay, WAL"),
    ("churn", "reads beside DELETEs that break planted pairs, restoring INSERTs and DROPKEY/ADDKEY: full re-chase and key changes"),
];

/// Runs by hand and in `--smoke`, but is not declared: its `op_p50_ms`
/// does not repeat on a shared 2-vCPU host (see README).
const UNDECLARED: [&str; 1] = ["cluster"];

/// The declared end-to-end metrics. `reads_per_s` and `read_tail_ms` are
/// printed but not declared: they move with the host's steal time (README).
const END_TO_END: [Metric; 4] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: Some(0.25),
    },
    Metric {
        name: "read_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Some(0.25),
    },
    Metric {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Some(0.25),
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: Some(0.15),
    },
];

/// The workload-defining request whose median is `op_p50_ms`.
fn main_op(workload: &str) -> &'static str {
    match workload {
        "lookup" => "explain",
        "churn" => "delete",
        _ => "insert",
    }
}

fn per_layer() -> Vec<Metric> {
    layers::METRIC_KEYS
        .iter()
        .map(|&name| Metric {
            name,
            unit: layer_unit(name),
            better: "lower",
            bound: None,
        })
        .collect()
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("bytes_per_triple") {
        "B"
    } else {
        "count"
    }
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    graphkeys: Option<PathBuf>,
    smoke: bool,
    /// Scale 0.05 with 100 reads: the smoke test's size.
    tiny: bool,
    manifest: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        graphkeys: None,
        smoke: false,
        tiny: false,
        manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--graphkeys" => a.graphkeys = Some(PathBuf::from(val()?)),
            "--write-manifest" => a.manifest = Some(PathBuf::from(val()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The measured outcome of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn header(cx: &Ctx, workload: &str) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "n/a (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let fsync = if workload == "ingest" {
        "always"
    } else {
        "off (no data dir)"
    };
    format!(
        "# perfbench workload={workload} seed={} seconds={} trace={} commit={commit} nproc={nproc} kernel={} fsync={fsync}",
        cx.seed,
        cx.seconds,
        u8::from(cx.trace),
        kernel.trim()
    )
}

/// Runs one workload and prints its report; the JSON line is the caller's.
fn run(a: &Args, workload: &str, trace: bool, sabotage: bool) -> Result<Outcome, String> {
    let bin = a
        .graphkeys
        .clone()
        .ok_or("--graphkeys PATH is required (run.py passes it)")?;
    if !bin.is_file() {
        return Err(format!("no graphkeys binary at {}", bin.display()));
    }
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_run")
        .join(format!("{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cx = Ctx {
        bin,
        dir: dir.clone(),
        seed: a.seed,
        seconds: a.seconds,
        trace,
        tiny: a.tiny,
        sabotage,
    };
    println!("{}", header(&cx, workload));
    let result = run_in(&cx, workload);
    let _ = std::fs::remove_dir_all(&dir);
    // Fails, and keeps the directory, while another run still uses it.
    let _ = std::fs::remove_dir(dir.parent().expect("run dirs live under .bench_run"));
    result
}

fn run_in(cx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut t = Tally::default();
    let plan = match workload {
        "lookup" => wire::lookup(cx, &mut t)?,
        "ingest" => wire::ingest(cx, &mut t)?,
        "churn" => wire::churn(cx, &mut t)?,
        "cluster" => wire::cluster(cx, &mut t)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let s = plan.shape;
    println!(
        "inputs: google scale={} base_share={} batch={} reads={} (zipf s={}) pipeline_depth={} pipelined_reads={}x{} explains/round={} cycles/round={} truth_pairs={}",
        s.scale,
        s.base_share,
        inputs::BATCH,
        s.reads,
        inputs::ZIPF_S,
        wire::PIPE_DEPTH,
        s.pipe_passes,
        s.pipe_reads,
        s.explains,
        s.cycles,
        plan.truth.pairs()
    );
    let e2e = end_to_end(workload, &t)?;
    print_e2e(&t, &e2e);
    let mut metrics = Vec::new();
    if cx.trace {
        print_overhead(&t);
        let l = layers::replay(&plan, &t, &cx.dir)?;
        println!("per-layer (in-process replay of this workload's operations):");
        for m in per_layer() {
            let v = l.values[m.name];
            println!(
                "  {:<32} {:>14.4} {:<5} (n={})",
                m.name,
                v,
                m.unit,
                l.count(m.name)
            );
            metrics.push((m.name, v, m.unit));
        }
    } else {
        metrics = e2e;
    }
    report_plan_note(&plan);
    for n in &t.notes {
        println!("  ! {n}");
    }
    println!(
        "operations: attempted={} failed={} wrong_answers={}",
        t.attempted, t.failed, t.wrong
    );
    Ok(Outcome {
        correct: t.wrong == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
    })
}

fn report_plan_note(plan: &Plan) {
    println!(
        "script: stream_batches={} probes={} key_changes={} explains={}",
        plan.stream.len(),
        plan.probes.len(),
        plan.key_changes.len().max(1),
        plan.explains.len()
    );
}

/// The declared end-to-end metrics, from the untraced samples.
fn end_to_end(workload: &str, t: &Tally) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let need = |k: &str| -> Result<&[f64], String> {
        let s = t.get(k);
        if s.is_empty() {
            Err(format!("no {k} samples"))
        } else {
            Ok(s)
        }
    };
    Ok(vec![
        ("setup_s", median(need("setup")?), "s"),
        ("read_p50_ms", median(need("read")?), "ms"),
        ("op_p50_ms", median(need(main_op(workload))?), "ms"),
        (
            "peak_rss_mb",
            need("peak_rss")?.iter().copied().fold(0.0, f64::max),
            "MiB",
        ),
    ])
}

/// Every figure the workload produced, by the names the README uses.
fn print_e2e(t: &Tally, e2e: &[(&'static str, f64, &'static str)]) {
    const NAMED: [(&str, &str, &str); 13] = [
        ("setup_s", "setup", "s"),
        ("read_p50_ms", "read", "ms"),
        ("reads_per_s", "reads_per_s", "1/s"),
        ("explain_p50_ms", "explain", "ms"),
        ("insert_p50_ms", "insert", "ms"),
        ("insert_late_p50_ms", "insert_late", "ms"),
        ("triples_per_s", "triples_per_s", "1/s"),
        ("delete_p50_ms", "delete", "ms"),
        ("addkey_p50_ms", "addkey", "ms"),
        ("dropkey_p50_ms", "dropkey", "ms"),
        ("recover_s", "recover", "s"),
        ("disk_bytes_per_triple", "disk_bytes_per_triple", "B"),
        ("peak_rss_mb", "peak_rss", "MiB"),
    ];
    println!("end-to-end (client side, untraced):");
    for (name, key, unit) in NAMED {
        let s = t.get(key);
        if s.is_empty() {
            continue;
        }
        println!("  {name:<24} {:>14.4} {unit:<5} (n={})", median(s), s.len());
        if let Some(tail_name) = name
            .strip_suffix("_p50_ms")
            .filter(|n| *n == "read" || *n == "insert")
        {
            match tail(s) {
                Some((p, v)) => println!(
                    "  {:<24} {v:>14.4} {unit:<5} (p{p}, n={})",
                    format!("{tail_name}_tail_ms"),
                    s.len()
                ),
                None => println!(
                    "  {:<24} {:>14} {unit:<5} (n={} < {})",
                    format!("{tail_name}_tail_ms"),
                    "-",
                    s.len(),
                    stats::MIN_TAIL_SAMPLES
                ),
            }
        }
    }
    for class in ["insert", "delete", "keychange"] {
        for c in ["iso", "rounds"] {
            let s = t.get(&format!("{class}.{c}"));
            if !s.is_empty() {
                println!(
                    "  {:<24} {:>14.1} count (median of OK replies, n={})",
                    format!("{class}.{c}"),
                    median(s),
                    s.len()
                );
            }
        }
    }
    let mut line = String::from("declared:");
    for (n, v, u) in e2e {
        let _ = write!(line, " {n}={v:.4}{u}");
    }
    println!("{line}");
}

/// Traced rounds beside untraced ones: the cost of `TRACE` itself.
fn print_overhead(t: &Tally) {
    println!("tracing overhead (TRACE-wrapped rounds vs untraced rounds of this run):");
    for key in [
        "read",
        "reads_per_s",
        "explain",
        "insert",
        "insert_late",
        "triples_per_s",
        "delete",
        "addkey",
        "dropkey",
    ] {
        let (plain, traced) = (t.get(key), t.get(&format!("traced.{key}")));
        if plain.is_empty() || traced.is_empty() {
            continue;
        }
        let (p, q) = (median(plain), median(traced));
        println!(
            "  {key:<16} untraced {p:>12.4} (n={})  traced {q:>12.4} (n={})  ratio {:.3}",
            plain.len(),
            traced.len(),
            q / p
        );
    }
}

fn json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, v, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": ");
    let _ = writeln!(s, "{RUN_SECONDS},\n  \"workloads\": [");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let sep = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: u32 = 25;

/// Every workload at a tiny size, traced and untraced, plus one run with a
/// deliberately wrong expectation that the checks must reject.
fn smoke(a: &Args) -> Result<(), String> {
    let tiny = Args {
        tiny: true,
        seconds: 0.5,
        ..a.clone()
    };
    let all: Vec<&str> = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .chain(UNDECLARED)
        .collect();
    for &w in &all {
        for trace in [false, true] {
            let o = run(&tiny, w, trace, false)?;
            let want = if trace {
                layers::METRIC_KEYS.len()
            } else {
                END_TO_END.len()
            };
            if !o.correct || o.failed > 0 || o.metrics.len() != want {
                return Err(format!(
                    "smoke {w} trace={trace}: correct={} failed={} metrics={}",
                    o.correct,
                    o.failed,
                    o.metrics.len()
                ));
            }
            println!("{}", json(&o));
        }
    }
    for &w in &all {
        let o = run(&tiny, w, false, true)?;
        if o.correct {
            return Err(format!("smoke {w}: a wrong expectation went unnoticed"));
        }
        println!("smoke {w}: the wrong expectation was caught");
    }
    println!("smoke: ok");
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|a| {
        if let Some(p) = &a.manifest {
            return std::fs::write(p, manifest()).map_err(|e| format!("{}: {e}", p.display()));
        }
        if a.smoke {
            return smoke(&a);
        }
        let o = run(&a, &a.workload, a.trace, false)?;
        println!("{}", json(&o));
        Ok(())
    }) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}
