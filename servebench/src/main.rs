//! `servebench` — the serving benchmark. One run generates a workload's
//! inputs from `--seed`, builds and spawns the repository's `serve`
//! binary, registers the workload's graphs (several times, for the
//! set-up time), drives a steady and a saturate phase open-loop over
//! loopback, checks every answer, and prints every metric. The last
//! line of standard output is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate in-process traced replay.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot-read --seed 1 --seconds 20 --trace 0
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use servebench::check::{self, CheckReport};
use servebench::client::{self, Outcome, PhaseRun};
use servebench::inputs::{self, Inputs, Kind, Workload};
use servebench::reference::{Answer, LineHash, Reference};
use servebench::server::{self, Counters, Server};
use servebench::stats::{mean, quantile};
use servebench::traced::{self, Layers};

/// `serve` spawns per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (hot-read, cold-search, churn)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <hot-read|cold-search|churn> --seed N --seconds S [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Printed with the others but left out of the result line.
    info: bool,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            info: false,
        });
    }

    fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, samples);
        if let Some(m) = self.0.last_mut() {
            m.info = true;
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .filter(|m| !m.info)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    fn table(&self, out: &mut String) {
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<8} n={}{}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.samples,
                if m.info { "  (info)" } else { "" }
            );
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Latencies (ms) from due time to `end` of the ok events of `kinds`.
fn latencies(
    events: &[inputs::Event],
    run: &PhaseRun,
    kinds: &[Kind],
    end: fn(&Outcome) -> u64,
) -> Vec<f64> {
    events
        .iter()
        .zip(&run.outcomes)
        .filter(|(e, o)| kinds.contains(&e.kind) && o.ok())
        .map(|(_, o)| end(o).saturating_sub(o.due) as f64 / 1e6)
        .collect()
}

fn run(args: &Args) -> io::Result<()> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or_else(|| io::Error::other("benchmark directory has no parent"))?
        .to_path_buf();
    if !repo.join("crates/service/Cargo.toml").exists() {
        return Err(io::Error::other("the repository's crates are missing"));
    }
    let serve = server::build_serve(&repo)?;
    let workdir = std::env::current_dir()?
        .join(".bench_work")
        .join(args.workload.name());
    if workdir.exists() {
        std::fs::remove_dir_all(&workdir)?;
    }
    std::fs::create_dir_all(&workdir)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = nproc.clamp(1, 2);

    let clock = Instant::now();
    let progress = |stage: &str| {
        eprintln!(
            "servebench: {stage} done at {:.1} s",
            clock.elapsed().as_secs_f64()
        )
    };
    let mut reference = Reference::default();
    let inputs = inputs::generate(args.workload, args.seed, args.seconds, &mut reference);
    inputs.write_files(&workdir)?;
    let setup_lines = inputs.setup_lines();
    progress("inputs");

    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_TRIALS {
        if let Some(old) = live.take() {
            Server::kill(old);
        }
        let (srv, secs) = Server::start(&serve, &workdir, inputs.durable, &setup_lines)?;
        setup_times.push(secs);
        live = Some(srv);
    }
    let srv = live.expect("at least one set-up trial");
    progress("set-up");
    let pid = srv.pid();
    let mut control = srv.connect(Duration::from_secs(5))?;
    let origin = Instant::now();

    let warmup = client::run_phase(&srv.addr, &inputs.warmup, 1, origin, None, pid)?;
    let c0 = server::scrape(&mut control)?;
    let steady = client::run_phase(&srv.addr, &inputs.steady.events, conns, origin, None, pid)?;
    // the steady operating point's peak; the saturate phase's depends on
    // which requests happened to overlap
    let rss_kib = server::proc_status(pid, "VmHWM").unwrap_or(0);
    let c1 = server::scrape(&mut control)?;
    let stop = Duration::from_secs_f64(inputs.saturate.seconds);
    let saturate = client::run_phase(
        &srv.addr,
        &inputs.saturate.events,
        conns,
        origin,
        Some(stop),
        pid,
    )?;
    let c2 = server::scrape(&mut control)?;
    progress("phases");

    // the live answers and generations the data dir must reproduce
    let mut live_answers = Vec::new();
    let mut last_gen: BTreeMap<String, u64> = BTreeMap::new();
    if inputs.durable {
        for e in inputs.warmup.iter().filter(|e| e.kind == Kind::Query) {
            let mut slots = vec![LineHash::default()];
            control.exchange(&e.steps[0], &mut slots)?;
            live_answers.push((
                e.steps[0].clone(),
                Answer {
                    count: slots[0].lines(),
                    hash: slots[0].finish(),
                },
            ));
        }
        for (events, run) in [
            (&inputs.warmup, &warmup),
            (&inputs.steady.events, &steady),
            (&inputs.saturate.events, &saturate),
        ] {
            for (e, o) in events.iter().zip(&run.outcomes) {
                if e.kind == Kind::Update && o.ok() {
                    let name = e.steps[0]
                        .split_ascii_whitespace()
                        .nth(1)
                        .unwrap_or("")
                        .to_string();
                    let g = last_gen.entry(name).or_default();
                    *g = (*g).max(o.generation);
                }
            }
        }
    }
    drop(control);
    srv.kill();

    let mut report = check::check_run(
        &inputs,
        &[
            (&inputs.warmup, &warmup.outcomes),
            (&inputs.steady.events, &steady.outcomes),
            (&inputs.saturate.events, &saturate.outcomes),
        ],
        &mut reference,
    );
    check::check_oracle(&inputs, &mut reference, &mut report);
    if inputs.durable {
        check::check_durability(&workdir.join("data"), &last_gen, &live_answers, &mut report);
    }

    progress("checks");
    let e2e = end_to_end(&inputs, &steady, &saturate, &setup_times, rss_kib, &report);
    let layers = if args.trace {
        let layers = traced::run(&inputs, &workdir.join("traced"))?;
        progress("traced run");
        Some(layers)
    } else {
        None
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "servebench workload={} seed={} seconds={} trace={} nproc={nproc} connections={conns}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        out,
        "offered: steady {} events/s for {:.2} s, saturate {} events/s for {:.2} s",
        inputs.steady.qps, inputs.steady.seconds, inputs.saturate.qps, inputs.saturate.seconds
    );
    let _ = writeln!(
        out,
        "commit: {}",
        command_line("git", &["rev-parse", "HEAD"], &repo)
    );
    let _ = writeln!(out, "rustc: {}", command_line("rustc", &["-V"], &repo));
    let _ = writeln!(
        out,
        "checked: {} answers, {} events attempted, {} failed, {} wrong, oracle {}/{} mismatched, durability {}/{} failed",
        report.answers_checked,
        report.attempted,
        report.failed,
        report.wrong,
        report.oracle_mismatches,
        report.oracle_checks,
        report.durability_failures,
        report.durability_checks
    );
    for p in &report.problems {
        let _ = writeln!(out, "  problem: {p}");
    }
    let _ = writeln!(out, "end-to-end:");
    e2e.table(&mut out);
    let result = match &layers {
        Some(layers) => {
            let per_layer = per_layer(&inputs, &steady, &saturate, &[&c0, &c1, &c2], layers);
            let _ = writeln!(out, "per-layer (traced run):");
            per_layer.table(&mut out);
            per_layer
        }
        None => e2e,
    };
    print!("{out}");
    std::fs::write(
        workdir.join(format!(
            "result-seed{}-trace{}.txt",
            args.seed,
            u8::from(args.trace)
        )),
        &out,
    )?;
    let errors = report.errors();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors == 0,
        report.attempted.max(1),
        errors,
        result.json()
    );
    Ok(())
}

fn end_to_end(
    inputs: &Inputs,
    steady: &PhaseRun,
    saturate: &PhaseRun,
    setup_times: &[f64],
    rss_kib: u64,
    report: &CheckReport,
) -> Metrics {
    let ev = &inputs.steady.events;
    let reads = latencies(ev, steady, &[Kind::Query, Kind::Batch], |o| o.done);
    let firsts = latencies(ev, steady, &[Kind::Session], |o| o.first);
    let commits = latencies(ev, steady, &[Kind::Update], |o| o.done);
    let completed = saturate.outcomes.iter().filter(|o| o.ok()).count();
    let wall_s = (saturate.end - saturate.start) as f64 / 1e9;
    let lag: Vec<f64> = steady
        .outcomes
        .iter()
        .filter(|o| o.attempted())
        .map(|o| o.sent.saturating_sub(o.due) as f64 / 1e6)
        .collect();
    let mut m = Metrics::default();
    m.push(
        "setup_s",
        quantile(setup_times, 0.5),
        "s",
        setup_times.len(),
    );
    m.push(
        "max_qps",
        completed as f64 / wall_s.max(1e-9),
        "events/s",
        completed,
    );
    m.push("rss_mb", rss_kib as f64 / 1024.0, "MiB", 1);
    // Printed, not gated: on a two-vCPU machine whose speed varies from
    // run to run, these moved by more than the largest bound allowed.
    for (name, samples) in [("read", &reads), ("first", &firsts), ("commit", &commits)] {
        for (p, label) in [(0.5, "p50"), (0.9, "p90"), (0.95, "p95"), (0.99, "p99")] {
            m.info(
                format!("{name}_{label}_ms"),
                quantile(samples, p),
                "ms",
                samples.len(),
            );
        }
    }
    m.info(
        "error_share",
        report.errors() as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );
    m.info("send_lag_p99_ms", quantile(&lag, 0.99), "ms", lag.len());
    m.info(
        "send_lag_max_ms",
        lag.iter().copied().fold(0.0, f64::max),
        "ms",
        lag.len(),
    );
    m
}

fn per_layer(
    inputs: &Inputs,
    steady: &PhaseRun,
    saturate: &PhaseRun,
    counters: &[&Counters; 3],
    l: &Layers,
) -> Metrics {
    let [c0, c1, c2] = *counters;
    let d = |key: &str| server::delta(c0, c2, key);
    let ev = &inputs.steady.events;
    let tcp_reads: Vec<f64> = ev
        .iter()
        .zip(&steady.outcomes)
        .filter(|(e, o)| e.kind.is_read() && o.ok())
        .map(|(_, o)| (o.done - o.sent) as f64 / 1e3)
        .collect();
    let handle = l.samples("protocol.read");
    let read_bytes: Vec<f64> = [(ev, steady), (&inputs.saturate.events, saturate)]
        .into_iter()
        .flat_map(|(evs, run)| evs.iter().zip(&run.outcomes))
        .filter(|(e, o)| e.kind.is_read() && o.ok())
        .map(|(_, o)| o.bytes as f64)
        .collect();
    let sat_ns = (saturate.end - saturate.start) as f64;
    let workers = c2.get("ic_pool_workers").copied().unwrap_or(1.0).max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let file_queries = l.sum("graph.file_queries");
    let mut m = Metrics::default();
    let n = |name: &str| l.samples(name).len();
    let q = |name: &str, p: f64| quantile(l.samples(name), p);
    m.push(
        "server.transport_p50_us",
        quantile(&tcp_reads, 0.5) - quantile(handle, 0.5),
        "us",
        tcp_reads.len(),
    );
    m.push(
        "server.transport_p99_us",
        quantile(&tcp_reads, 0.99) - quantile(handle, 0.99),
        "us",
        tcp_reads.len(),
    );
    m.push(
        "server.reply_bytes_mean",
        mean(&read_bytes),
        "bytes",
        read_bytes.len(),
    );
    m.push("server.write_errors", d("stats.write_errors"), "count", 1);
    m.push("server.accept_errors", d("stats.accept_errors"), "count", 1);
    m.push(
        "protocol.handle_line_p50_us",
        quantile(handle, 0.5),
        "us",
        handle.len(),
    );
    m.push(
        "protocol.handle_line_p99_us",
        quantile(handle, 0.99),
        "us",
        handle.len(),
    );
    m.push(
        "pool.queue_p50_us",
        q("pool.queue", 0.5),
        "us",
        n("pool.queue"),
    );
    m.push(
        "pool.queue_p99_us",
        q("pool.queue", 0.99),
        "us",
        n("pool.queue"),
    );
    m.push(
        "pool.busy_share",
        ratio(
            server::delta(c1, c2, "ic_pool_busy_ns_total"),
            workers * sat_ns,
        ),
        "ratio",
        1,
    );
    m.push(
        "planner.plan_p50_us",
        q("planner.plan", 0.5),
        "us",
        n("planner.plan"),
    );
    for algo in ic_core::AlgorithmId::ALL {
        let key = format!("stats.{}", algo.name());
        m.push(
            format!("planner.executions.{}", algo.name()),
            d(&key),
            "count",
            1,
        );
    }
    m.push(
        "cache.probe_p50_us",
        q("cache.probe", 0.5),
        "us",
        n("cache.probe"),
    );
    m.push(
        "cache.hit_ratio",
        ratio(d("stats.hits"), d("stats.queries")),
        "ratio",
        d("stats.queries") as usize,
    );
    m.push(
        "cache.prefix_served_share",
        ratio(d("stats.prefix_served"), d("stats.queries")),
        "ratio",
        d("stats.queries") as usize,
    );
    m.push("inflight.coalesced", d("stats.coalesced"), "count", 1);
    m.push(
        "core.execute_p50_us",
        q("core.execute", 0.5),
        "us",
        n("core.execute"),
    );
    m.push(
        "core.execute_p99_us",
        q("core.execute", 0.99),
        "us",
        n("core.execute"),
    );
    m.push(
        "core.count_p50_us",
        q("core.count", 0.5),
        "us",
        n("core.count"),
    );
    m.push(
        "core.enumerate_p50_us",
        q("core.enumerate", 0.5),
        "us",
        n("core.enumerate"),
    );
    m.push(
        "core.rounds_mean",
        mean(l.samples("core.rounds")),
        "count",
        n("core.rounds"),
    );
    m.push(
        "core.useful_ratio",
        ratio(
            l.sum("core.final_prefix_size"),
            l.sum("core.total_counted_size"),
        ),
        "ratio",
        n("core.rounds"),
    );
    m.push(
        "core.first_p50_us",
        q("core.first", 0.5),
        "us",
        n("core.first"),
    );
    m.push(
        "graph.bytes_read_per_query",
        ratio(l.sum("graph.bytes_read"), file_queries),
        "bytes",
        file_queries as usize,
    );
    m.push(
        "graph.read_ops_per_query",
        ratio(l.sum("graph.read_ops"), file_queries),
        "count",
        file_queries as usize,
    );
    m.push(
        "graph.build_s",
        inputs.graphs.iter().map(|g| g.build_s).sum(),
        "s",
        inputs.graphs.len(),
    );
    m.push(
        "session.open_p50_us",
        q("session.open", 0.5),
        "us",
        n("session.open"),
    );
    m.push(
        "session.next_p50_us",
        q("session.next", 0.5),
        "us",
        n("session.next"),
    );
    m.push(
        "session.threads_peak",
        steady.threads_peak.max(saturate.threads_peak) as f64,
        "count",
        1,
    );
    m.push(
        "dynamic.update_p50_us",
        q("dynamic.update", 0.5),
        "us",
        n("dynamic.update"),
    );
    m.push(
        "dynamic.commit_p50_us",
        q("dynamic.commit", 0.5),
        "us",
        n("dynamic.commit"),
    );
    m.push(
        "dynamic.commit_p99_us",
        q("dynamic.commit", 0.99),
        "us",
        n("dynamic.commit"),
    );
    m.push(
        "dynamic.cores_visited_mean",
        mean(l.samples("dynamic.cores_visited")),
        "count",
        n("dynamic.cores_visited"),
    );
    m.push(
        "persist.fsync_per_commit_us",
        ratio(d("ic_wal_fsync_ns_total"), d("ic_wal_commits_total")) / 1e3,
        "us",
        d("ic_wal_commits_total") as usize,
    );
    m.push(
        "persist.wal_ops",
        d("ic_wal_ops_appended_total"),
        "count",
        1,
    );
    m.push(
        "obs.trace_overhead",
        l.traced_s / l.untraced_s.max(1e-9) - 1.0,
        "ratio",
        1,
    );
    m
}
