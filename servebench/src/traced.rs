//! The traced run: the workload's warmup and steady events replayed in
//! process, with a span around each call the benchmark makes into a
//! layer's public function. Three passes, each on a fresh `Service`
//! holding the same graphs:
//!
//! 1. untraced — every request line through `protocol::handle_line`,
//!    timed only as a whole;
//! 2. traced — the same lines, with a span around each `handle_line`;
//!    the ratio of the two wall times is the tracing overhead;
//! 3. layers — the same events through `Service::query_traced` (whose
//!    `QueryTrace` splits queue, plan, cache, execute and serialize),
//!    `Algorithm::run_store` for every miss, `ProgressiveSearch` for
//!    every session, and `Service::open_session`, `session_next`,
//!    `update` and `commit_updates`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ic_core::ProgressiveSearch;
use ic_graph::StorageKind;
use ic_service::{protocol, Query, Service, ServiceConfig, Stage, UpdateOp};

use crate::client::field;
use crate::inputs::{Event, Inputs, Kind, SESSION_PULL};

/// Samples by span name, in microseconds, plus plain counts.
#[derive(Debug, Default)]
pub struct Layers {
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    pub sums: BTreeMap<&'static str, f64>,
    pub untraced_s: f64,
    pub traced_s: f64,
}

impl Layers {
    fn span(&mut self, name: &'static str, start: Instant) {
        self.record(name, start.elapsed().as_nanos() as f64 / 1e3);
    }

    fn record(&mut self, name: &'static str, value: f64) {
        self.spans.entry(name).or_default().push(value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// A fresh service holding the workload's graphs, registered from the
/// prebuilt in-process copies (file twins saved under `dir`).
fn fresh_service(inputs: &Inputs, dir: &Path) -> io::Result<Arc<Service>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let svc = if inputs.durable {
        Service::with_persistence(ServiceConfig::default(), dir.join("data"))
            .map_err(|e| io::Error::other(e.to_string()))?
    } else {
        Service::new(ServiceConfig::default())
    };
    for g in &inputs.graphs {
        svc.register(&g.name, (*g.graph).clone());
    }
    for t in &inputs.twins {
        let path = dir.join(&t.file);
        let path = path.to_string_lossy();
        svc.save_store(&t.source, &path)
            .and_then(|_| svc.register_file(&t.name, &path, None))
            .map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(svc)
}

/// Sends the events' lines through `handle_line`, substituting session
/// ids; with `layers`, each call is a span under its request kind.
fn replay_lines(svc: &Arc<Service>, events: &[Event], layers: Option<&mut Layers>) {
    let mut layers = layers;
    for e in events {
        let mut session = String::new();
        for step in &e.steps {
            let line = step.replace("$S", &session);
            let start = Instant::now();
            let reply = protocol::handle_line(svc, &line);
            if let Some(l) = layers.as_deref_mut() {
                let name = match line.split_ascii_whitespace().next() {
                    Some("QUERY") | Some("BATCH") => "protocol.read",
                    Some("OPEN") | Some("NEXT") | Some("CLOSE") => "protocol.session",
                    _ => "protocol.update",
                };
                l.span(name, start);
            }
            if let Some(id) = field(&reply, "session") {
                session = id.to_string();
            }
        }
    }
}

fn parse_update(line: &str) -> Option<(&str, UpdateOp)> {
    let t: Vec<&str> = line.split_ascii_whitespace().collect();
    let num = |i: usize| t.get(i)?.parse::<u64>().ok();
    let op = match *t.get(2)? {
        "ADD" => UpdateOp::InsertEdge {
            u: num(3)?,
            v: num(4)?,
            default_weight: None,
        },
        "DEL" => UpdateOp::DeleteEdge {
            u: num(3)?,
            v: num(4)?,
        },
        "REWEIGHT" => UpdateOp::Reweight {
            v: num(3)?,
            weight: t.get(4)?.parse().ok()?,
        },
        _ => return None,
    };
    Some((t.get(1)?, op))
}

fn query_of(spec: &str) -> Option<Query> {
    let t: Vec<&str> = spec.split_ascii_whitespace().collect();
    Some(Query::new(
        *t.first()?,
        t.get(1)?.parse().ok()?,
        t.get(2)?.parse().ok()?,
    ))
}

/// The layer pass: each steady event through the service's public API.
fn layer_pass(svc: &Arc<Service>, events: &[Event], l: &mut Layers) -> io::Result<()> {
    let fail = |e: ic_service::ServiceError| io::Error::other(e.to_string());
    for e in events {
        match e.kind {
            Kind::Query => {
                let q = query_of(&e.steps[0]["QUERY".len()..])
                    .ok_or_else(|| io::Error::other("bad query"))?;
                let (resp, trace) = svc.query_traced(q.clone()).map_err(fail)?;
                for (stage, name) in [
                    (Stage::Queue, "pool.queue"),
                    (Stage::Plan, "planner.plan"),
                    (Stage::CacheProbe, "cache.probe"),
                    (Stage::Execute, "core.execute"),
                    (Stage::Serialize, "service.serialize"),
                ] {
                    l.record(name, trace.stage_ns(stage) as f64 / 1e3);
                }
                if resp.cached || resp.coalesced {
                    continue;
                }
                // the miss again, straight through the algorithm trait
                let entry = svc.graph(&q.graph).map_err(fail)?;
                let core_query = q.to_core().map_err(fail)?;
                let start = Instant::now();
                let result = resp
                    .explain
                    .algorithm
                    .resolve()
                    .run_store(&entry.store, &core_query)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                l.span("core.run_store", start);
                let s = result.stats;
                l.record("core.count", s.count_ns as f64 / 1e3);
                l.record("core.enumerate", s.enumerate_ns as f64 / 1e3);
                l.record("core.rounds", s.rounds as f64);
                l.add("core.final_prefix_size", s.final_prefix_size as f64);
                l.add("core.total_counted_size", s.total_counted_size as f64);
                if entry.store.kind() == StorageKind::File {
                    l.add("graph.file_queries", 1.0);
                    l.add("graph.bytes_read", s.bytes_read as f64);
                    l.add("graph.read_ops", s.read_ops as f64);
                }
            }
            Kind::Batch => {
                let queries: Option<Vec<Query>> = e.steps[0]["BATCH".len()..]
                    .split(';')
                    .map(query_of)
                    .collect();
                let queries = queries.ok_or_else(|| io::Error::other("bad batch"))?;
                svc.query_batch(&queries);
            }
            Kind::Session => {
                let t: Vec<&str> = e.steps[0].split_ascii_whitespace().collect();
                let (graph, gamma) = (t[1], t[2].parse::<u32>().map_err(io::Error::other)?);
                let start = Instant::now();
                let id = svc.open_session(graph, gamma).map_err(fail)?;
                l.span("session.open", start);
                let start = Instant::now();
                svc.session_next(id, SESSION_PULL[0]).map_err(fail)?;
                l.span("session.next", start);
                svc.session_next(id, SESSION_PULL[1]).map_err(fail)?;
                svc.close_session(id).map_err(fail)?;
                // the progressive search itself, on the same instance
                let g = Arc::clone(svc.graph(graph).map_err(fail)?.memory().map_err(fail)?);
                let start = Instant::now();
                let mut stream = ProgressiveSearch::new(&g, gamma);
                let _ = stream.next();
                l.span("core.first", start);
            }
            Kind::Update => {
                for line in &e.steps {
                    if let Some(name) = line.strip_prefix("COMMIT ") {
                        let start = Instant::now();
                        let (_, receipt) = svc.commit_updates(name).map_err(fail)?;
                        l.span("dynamic.commit", start);
                        l.record("dynamic.cores_visited", receipt.cores_visited as f64);
                    } else {
                        let (name, op) =
                            parse_update(line).ok_or_else(|| io::Error::other("bad update"))?;
                        let start = Instant::now();
                        svc.update(name, op).map_err(fail)?;
                        l.span("dynamic.update", start);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs the three passes over the warmup and steady events. `dir` holds
/// each pass's files (file twins, data dirs).
pub fn run(inputs: &Inputs, dir: &Path) -> io::Result<Layers> {
    let mut layers = Layers::default();
    let steady = &inputs.steady.events;

    let svc = fresh_service(inputs, &dir.join("untraced"))?;
    replay_lines(&svc, &inputs.warmup, None);
    let start = Instant::now();
    replay_lines(&svc, steady, None);
    layers.untraced_s = start.elapsed().as_secs_f64();
    drop(svc);

    let svc = fresh_service(inputs, &dir.join("traced"))?;
    replay_lines(&svc, &inputs.warmup, None);
    let start = Instant::now();
    replay_lines(&svc, steady, Some(&mut layers));
    layers.traced_s = start.elapsed().as_secs_f64();
    drop(svc);

    let svc = fresh_service(inputs, &dir.join("layers"))?;
    replay_lines(&svc, &inputs.warmup, None);
    layer_pass(&svc, steady, &mut layers)?;
    drop(svc);
    std::fs::remove_dir_all(dir)?;
    Ok(layers)
}
