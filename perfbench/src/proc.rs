//! The program under test as a child process on loopback.

use gk_client::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a start (including a chase of the whole graph) may take.
const START_DEADLINE: Duration = Duration::from_secs(120);

/// Per-request read deadline on benchmark connections.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// A running `graphkeys serve` / `graphkeys cluster`. Dropping it kills
/// the process and waits for it.
pub struct Server {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    /// Spawn → first answer (`PONG`), in seconds.
    pub setup_s: f64,
}

impl Server {
    /// Starts `graphkeys <args>` (which must bind `--port 0`), waits for
    /// the banner line holding `banner` and the bound address, and for
    /// the first answer. Standard error goes to `err_log`.
    pub fn start(
        bin: &Path,
        args: &[String],
        banner: &str,
        err_log: &Path,
    ) -> Result<Server, String> {
        let err =
            std::fs::File::create(err_log).map_err(|e| format!("{}: {e}", err_log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            drain: None,
            addr: String::new(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = out.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                let log = std::fs::read_to_string(err_log).unwrap_or_default();
                return Err(format!(
                    "graphkeys {} exited before serving: {log}",
                    args.join(" ")
                ));
            }
            if line.contains(banner) {
                server.addr = line
                    .split_whitespace()
                    .find(|t| t.starts_with("127.0.0.1:"))
                    .ok_or_else(|| format!("no address in banner {line:?}"))?
                    .to_string();
                break;
            }
        }
        // Keep draining stdout so a late write never meets a closed pipe.
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        }));
        let mut c = server.client()?;
        loop {
            match c.request_line("PING") {
                Ok(a) if a == "PONG" => break,
                Ok(a) => return Err(format!("PING answered {a:?}")),
                Err(e) if t0.elapsed() > START_DEADLINE => return Err(format!("no answer: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        server.setup_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect_timeout(&self.addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        c.set_deadline(Some(REQUEST_DEADLINE));
        Ok(c)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// SIGKILL, then wait for the process and its stdout drain.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}
