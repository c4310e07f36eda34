//! The router: the cluster's front door, speaking the same line-in /
//! paragraph-out protocol as a standalone `gk-server` — served by the
//! same epoll reactor ([`gk_server::serve_handler`]), so framing, blank
//! lines, `QUIT`, the request-size bound and admission behave
//! identically.
//!
//! Queries forward raw (byte-for-byte, including malformed lines — the
//! shard's own `ERR usage:` answer comes back unchanged) to a shard picked
//! by hashing the first entity argument; any converged shard answers
//! identically, the hash just spreads read load.  Mutations go through the
//! [`Coordinator`]: broadcast to every replica, then the distributed chase
//! converges before the client gets its answer.  `METRICS` answers the
//! router's own registry (the `gk_cluster_*` family plus the reactor's
//! connection families); shard metrics stay reachable on the shards
//! themselves.

use crate::coordinator::Coordinator;
use gk_client::Client;
use gk_metrics::Registry;
use gk_server::{
    serve_handler, LineHandler, NetMetrics, Request, Response, ServeHandle, ServeOptions,
};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the heartbeat re-converges the cluster with no update in
/// flight — this is what heals a shard that restarted from its own WAL
/// (its un-snapshotted external merges are re-shipped from the global log).
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(200);

/// A running router: the reactor front + the heartbeat thread.
pub struct RouterHandle {
    addr: String,
    front: ServeHandle,
    stop: Arc<AtomicBool>,
    heartbeat: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front address (useful with `:0`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the heartbeat and the front, joining every thread the
    /// router started.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.heartbeat {
            let _ = t.join();
        }
        self.front.stop();
    }
}

/// Binds `listen` and serves the cluster front until `stop()`. The
/// front is the same epoll reactor a standalone server runs (same
/// framing, request-size bound and connection metrics, counted into
/// `registry`), with [`ServeOptions::default`] workers routing lines.
pub fn serve_router(
    coordinator: Arc<Coordinator>,
    registry: Arc<Registry>,
    listen: &str,
    heartbeat: Duration,
) -> io::Result<RouterHandle> {
    let net = NetMetrics::register(&registry);
    let router = Router {
        pools: coordinator
            .shard_addrs()
            .iter()
            .map(|a| ShardPool {
                addr: a.clone(),
                idle: Mutex::new(Vec::new()),
            })
            .collect(),
        coord: coordinator.clone(),
        registry,
    };
    let front = serve_handler(Arc::new(router), net, listen, &ServeOptions::default())?;
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = (!heartbeat.is_zero()).then(|| {
        let stop = stop.clone();
        std::thread::spawn(move || heartbeat_loop(&coordinator, heartbeat, &stop))
    });
    Ok(RouterHandle {
        addr: front.addr().to_string(),
        front,
        stop,
        heartbeat,
    })
}

fn heartbeat_loop(coord: &Arc<Coordinator>, interval: Duration, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        // Sleep in short slices so stop() returns promptly.
        let mut left = interval;
        while !left.is_zero() && !stop.load(Ordering::SeqCst) {
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A shard being down mid-restart is expected; the next beat heals.
        let _ = coord.converge();
    }
}

/// Reused query connections to one shard: a worker takes an idle client
/// (or dials a new one) per forwarded read and returns it afterwards, so
/// the pool holds at most one client per concurrently forwarding worker.
struct ShardPool {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl ShardPool {
    fn forward(&self, line: &str) -> io::Result<String> {
        let popped = self.idle.lock().pop();
        let mut client = popped.unwrap_or_else(|| Client::lazy(&self.addr));
        // A failed call leaves the client disconnected; it redials on
        // next use, so it goes back to the pool either way.
        let answer = client.request_line(line);
        self.idle.lock().push(client);
        answer
    }
}

/// The router's [`LineHandler`]: runs on the reactor's workers.
struct Router {
    coord: Arc<Coordinator>,
    registry: Arc<Registry>,
    pools: Vec<ShardPool>,
}

impl LineHandler for Router {
    fn answer(&self, line: &str) -> String {
        answer_line(line, &self.coord, &self.registry, &self.pools)
    }
}

/// Which shard should answer a read — hash of the first entity argument,
/// so a hot entity's repeated queries hit one shard's answer cache.
/// Reads with no entity argument (STATS, KEYS, HELP, …) go to shard 0.
fn affinity(req: &Request, n: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let label = match req {
        Request::Same { a, .. } | Request::Explain { a, .. } => Some(a),
        Request::Dups { entity } | Request::Rep { entity } => Some(entity),
        Request::Trace { inner } => return affinity(inner, n),
        _ => None,
    };
    match label {
        Some(l) => {
            let mut h = rustc_hash::FxHasher::default();
            l.hash(&mut h);
            (h.finish() % n as u64) as usize
        }
        None => 0,
    }
}

/// True for the wrapped-or-not verbs that mutate replicas and therefore
/// must go through the coordinator's broadcast + converge path.
fn is_mutation(req: &Request) -> bool {
    matches!(
        req,
        Request::Insert { .. }
            | Request::Delete { .. }
            | Request::AddKey { .. }
            | Request::DropKey { .. }
    )
}

/// Routes one request line and renders the answer paragraph.
fn answer_line(line: &str, coord: &Coordinator, reg: &Registry, pools: &[ShardPool]) -> String {
    let n = coord.num_shards();
    let parsed = Request::parse(line);
    let answer = match &parsed {
        Ok(req) if is_mutation(req) => coord.update(line, req),
        Ok(Request::Snapshot | Request::Compact) => coord.broadcast_admin(line),
        Ok(Request::Metrics) => Ok(Response::Metrics(reg.snapshot()).render()),
        Ok(Request::ShardChase { .. } | Request::Merges { .. }) => {
            Ok("ERR SHARDCHASE/MERGES are cluster-internal (address a shard directly)".to_string())
        }
        Ok(Request::Trace { inner }) if is_mutation(inner) => {
            Ok("ERR TRACE of a mutation is not supported through the cluster router".to_string())
        }
        Ok(req) => pools[affinity(req, n)].forward(line),
        // Unparseable lines forward raw so the shard's own ERR answer
        // (usage text and all) comes back byte-identical to standalone.
        Err(_) => pools[0].forward(line),
    };
    answer.unwrap_or_else(|e| format!("ERR {e}"))
}
