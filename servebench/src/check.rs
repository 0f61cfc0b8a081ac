//! Answer checking, after the timed run: every reply against the
//! in-process reference, and the churn data directory against the live
//! server it was written by.
//!
//! Reads racing a commit may see either generation; a reply is accepted
//! if it equals the reference of any generation the graph held between
//! the read being sent and its reply arriving.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use ic_graph::{GraphBuilder, WeightedGraph};
use ic_service::{protocol, Service, ServiceConfig};

use crate::client::Outcome;
use crate::inputs::{Event, Inputs, Kind, SESSION_PULL};
use crate::reference::{Answer, LineHash, Reference};

/// Every grid lane is computed to at least this many communities.
const MIN_LANE_K: usize = 64;

#[derive(Debug, Default)]
pub struct CheckReport {
    pub attempted: u64,
    /// Events that got `ERR` or lost their connection.
    pub failed: u64,
    /// Events with an answer that matched no reference.
    pub wrong: u64,
    pub answers_checked: u64,
    pub oracle_checks: u64,
    pub oracle_mismatches: u64,
    /// Durability checks made and failed (churn only).
    pub durability_checks: u64,
    pub durability_failures: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl CheckReport {
    /// Everything that counts toward `error_share`.
    pub fn errors(&self) -> u64 {
        self.failed + self.wrong + self.oracle_mismatches + self.durability_failures
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// A mutated graph's edge set and weights, replayed from the update
/// lines the server acknowledged.
struct GraphState {
    n: usize,
    edges: HashSet<(u64, u64)>,
    weights: Vec<f64>,
}

impl GraphState {
    fn of(g: &WeightedGraph) -> GraphState {
        let mut weights = vec![0.0; g.n()];
        for r in 0..g.n() as u32 {
            weights[g.external_id(r) as usize] = g.weight(r);
        }
        let edges = g
            .edges()
            .map(|(a, b)| key(g.external_id(a), g.external_id(b)))
            .collect();
        GraphState {
            n: g.n(),
            edges,
            weights,
        }
    }

    fn apply(&mut self, line: &str) {
        let t: Vec<&str> = line.split_ascii_whitespace().collect();
        let num = |i: usize| -> u64 { t[i].parse().expect("generated id") };
        match t[2] {
            "ADD" => {
                self.edges.insert(key(num(3), num(4)));
            }
            "DEL" => {
                self.edges.remove(&key(num(3), num(4)));
            }
            "REWEIGHT" => self.weights[num(3) as usize] = t[4].parse().expect("generated weight"),
            other => panic!("unexpected update action {other}"),
        }
    }

    /// A from-scratch build of the current state.
    fn build(&self) -> WeightedGraph {
        let mut b = GraphBuilder::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        for v in 0..self.n {
            b.add_vertex(v as u64);
            b.set_weight(v as u64, self.weights[v]);
        }
        b.build().expect("reference graph")
    }
}

fn key(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// Acknowledged commits of one graph: (COMMIT sent, acknowledged), ns.
type Commits = Vec<(u64, u64)>;

/// Checks every attempted event of `runs` (warmup, steady and saturate,
/// in the order they ran). Mutated graphs get one reference generation
/// per acknowledged commit.
pub fn check_run(
    inputs: &Inputs,
    runs: &[(&[Event], &[Outcome])],
    reference: &mut Reference,
) -> CheckReport {
    let mut report = CheckReport::default();
    let mut commits: BTreeMap<String, Commits> = BTreeMap::new();
    let mut states: BTreeMap<String, GraphState> = BTreeMap::new();
    let mut updates: Vec<(&Event, &Outcome)> = runs
        .iter()
        .flat_map(|(evs, outs)| evs.iter().zip(outs.iter()))
        .filter(|(e, o)| e.kind == Kind::Update && o.ok())
        .collect();
    updates.sort_by_key(|(_, o)| o.done);
    for (e, o) in updates {
        let name = e.steps[0].split_ascii_whitespace().nth(1).expect("graph");
        let state = states
            .entry(name.to_string())
            .or_insert_with(|| GraphState::of(reference.graph(name, 0).expect("registered graph")));
        for line in &e.steps[..e.steps.len() - 1] {
            state.apply(line);
        }
        let list = commits.entry(name.to_string()).or_default();
        list.push((o.commit_sent, o.done));
        reference.add_generation(name, list.len(), Arc::new(state.build()));
    }

    for (events, outcomes) in runs {
        for (e, o) in events.iter().zip(outcomes.iter()) {
            if !o.attempted() {
                continue;
            }
            report.attempted += 1;
            if !o.ok() {
                report.failed += 1;
                report.note(format!("{:?} failed: {:?}", e.steps, o.status));
                continue;
            }
            let asks = asks(e);
            if asks.len() != o.answers.len() {
                report.wrong += 1;
                report.note(format!(
                    "{:?}: {} answers for {} asks",
                    e.steps,
                    o.answers.len(),
                    asks.len()
                ));
                continue;
            }
            let mut wrong = false;
            for ((graph, gamma, k), answer) in asks.iter().zip(&o.answers) {
                let source = inputs.source_of(graph);
                let list = commits.get(source).map(Vec::as_slice).unwrap_or(&[]);
                let lo = list.partition_point(|&(_, done)| done < o.sent);
                let hi = list.partition_point(|&(sent, _)| sent < o.done);
                report.answers_checked += 1;
                let ok = (lo..=hi).any(|gen| {
                    reference
                        .lane(source, gen, *gamma, (*k).max(MIN_LANE_K))
                        .expect(*k)
                        == *answer
                });
                if !ok {
                    wrong = true;
                    report.note(format!(
                        "{:?}: {graph} γ={gamma} k={k} generations {lo}..={hi} got {answer:?}",
                        e.steps
                    ));
                }
            }
            if wrong {
                report.wrong += 1;
            }
        }
    }
    report
}

/// The (graph, γ, k) each answer of an event must match.
fn asks(e: &Event) -> Vec<(String, u32, usize)> {
    let parse = |t: &[&str]| -> (String, u32, usize) {
        (
            t[0].to_string(),
            t[1].parse().expect("generated gamma"),
            t[2].parse().expect("generated k"),
        )
    };
    let first = &e.steps[0];
    match e.kind {
        Kind::Query => {
            let t: Vec<&str> = first.split_ascii_whitespace().skip(1).collect();
            vec![parse(&t)]
        }
        Kind::Batch => first["BATCH".len()..]
            .split(';')
            .map(|s| parse(&s.split_ascii_whitespace().collect::<Vec<_>>()))
            .collect(),
        Kind::Session => {
            let t: Vec<&str> = first.split_ascii_whitespace().skip(1).collect();
            vec![(
                t[0].to_string(),
                t[1].parse().expect("generated gamma"),
                SESSION_PULL.iter().sum(),
            )]
        }
        Kind::Update => Vec::new(),
    }
}

/// Checks the γ = 2 lane of each of `inputs.oracle_graphs`, at its last
/// generation, against the naive oracle. The oracle is quadratic in the
/// graph, so it is kept to the small graphs.
pub fn check_oracle(inputs: &Inputs, reference: &mut Reference, report: &mut CheckReport) {
    const GAMMA: u32 = 2;
    for name in &inputs.oracle_graphs {
        let gen = reference.generations(name).saturating_sub(1);
        if !reference.check_oracle(name, gen, GAMMA, MIN_LANE_K) {
            report.note(format!(
                "{name} generation {gen} γ={GAMMA}: ic_core differs from the naive oracle"
            ));
        }
    }
    report.oracle_checks = reference.oracle_checks;
    report.oracle_mismatches = reference.oracle_mismatches;
}

/// The answer in an in-process `QUERY` reply.
fn answer_of(reply: &str) -> Option<Answer> {
    if !reply.starts_with("OK") {
        return None;
    }
    let mut h = LineHash::default();
    for line in reply.lines().filter(|l| l.starts_with("C ")) {
        h.push(line);
    }
    Some(Answer {
        count: h.lines(),
        hash: h.finish(),
    })
}

/// Reopens a killed server's data directory in process. Every graph
/// must come back at the generation its last acknowledged `COMMIT`
/// named, and answer `queries` exactly as the live server did before it
/// was killed.
pub fn check_durability(
    data_dir: &Path,
    generations: &BTreeMap<String, u64>,
    live: &[(String, Answer)],
    report: &mut CheckReport,
) {
    let svc = match Service::with_persistence(ServiceConfig::default(), data_dir) {
        Ok(svc) => svc,
        Err(e) => {
            report.durability_checks += 1;
            report.durability_failures += 1;
            report.note(format!("data dir did not reopen: {e}"));
            return;
        }
    };
    for (name, &gen) in generations {
        report.durability_checks += 1;
        let got = svc.graph(name).map(|e| e.generation);
        if got.as_ref().ok() != Some(&gen) {
            report.durability_failures += 1;
            report.note(format!(
                "{name} recovered at {got:?}, last acknowledged {gen}"
            ));
        }
    }
    for (line, want) in live {
        report.durability_checks += 1;
        let got = answer_of(&protocol::handle_line(&svc, line));
        if got.as_ref() != Some(want) {
            report.durability_failures += 1;
            report.note(format!(
                "{line} after recovery: {got:?}, live server {want:?}"
            ));
        }
    }
}
