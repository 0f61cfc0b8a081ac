//! The `serve` process under test: build, spawn, register the workload's
//! graphs, scrape counters, read its `/proc` figures, and stop it.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Builds the repository's `serve` binary with the repository's own
/// release profile and returns its path.
pub fn build_serve(repo: &Path) -> io::Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "ic-service",
            "--bin",
            "serve",
        ])
        .args(["--message-format", "json"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other("building serve failed"));
    }
    // the artifact message for the serve binary names its executable
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"name\":\"serve\""))
        .find_map(|l| {
            let rest = l.split("\"executable\":\"").nth(1)?;
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .ok_or_else(|| io::Error::other("cargo named no serve executable"))
}

/// A field of `/proc/<pid>/status` (e.g. `VmHWM` in KiB, `Threads`).
pub fn proc_status(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// A running `serve` process; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawns `serve` in `workdir` (with `--data-dir data` when durable)
    /// and sends the registration lines. Returns the server and the
    /// seconds from spawn until the last registration was acknowledged.
    pub fn start(
        bin: &Path,
        workdir: &Path,
        durable: bool,
        setup: &[String],
    ) -> io::Result<(Server, f64)> {
        let data = workdir.join("data");
        if data.exists() {
            std::fs::remove_dir_all(&data)?;
        }
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = Command::new(bin);
        cmd.arg(&addr)
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if durable {
            cmd.args(["--data-dir", "data"]);
        }
        let start = Instant::now();
        let server = Server {
            child: cmd.spawn()?,
            addr,
        };
        let mut conn = server.connect(Duration::from_secs(10))?;
        for line in setup {
            conn.ok(line)?;
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// Connects, retrying while the server is still starting.
    pub fn connect(&self, patience: Duration) -> io::Result<Conn> {
        let deadline = Instant::now() + patience;
        loop {
            match Conn::connect(&self.addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process (SIGKILL: nothing is flushed on the way out) and
    /// waits for it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Server counters at one instant: every `key=value` of the `STATS`
/// header (as `stats.<key>`) and every sample of `METRICS`.
pub type Counters = BTreeMap<String, f64>;

pub fn scrape(conn: &mut Conn) -> io::Result<Counters> {
    let mut out = Counters::new();
    let stats = conn.text("STATS")?;
    if let Some(head) = stats.first() {
        for tok in head.split_ascii_whitespace() {
            if let Some((k, v)) = tok.split_once('=') {
                if let Ok(v) = v.parse() {
                    out.insert(format!("stats.{k}"), v);
                }
            }
        }
    }
    for line in conn.text("METRICS")? {
        if line.starts_with('#') || line.starts_with("OK") {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse() {
                out.insert(name.to_string(), v);
            }
        }
    }
    Ok(out)
}

/// `after[key] - before[key]`, 0 when absent.
pub fn delta(before: &Counters, after: &Counters, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}
