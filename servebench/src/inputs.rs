//! Seeded workload inputs: the graphs a workload registers, the request
//! lines `serve` receives, and their open-loop schedule.
//!
//! Everything is a function of (workload, seed, seconds): the same
//! arguments give byte-identical [`Inputs::to_text`]. Each workload's
//! graphs are fixed; the seed draws the requests. Arrivals are one
//! Poisson process per phase; each arrival draws its request kind from
//! the workload's mix. Update batches are generated against a tracked
//! copy of each mutated graph's edge set, so every `ADD` names an absent
//! edge and every `DEL` a present one.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ic_graph::generators::{assemble, WeightKind};
use ic_graph::rng::splitmix64;
use ic_graph::{io, Pcg32, WeightedGraph};
use ic_load::Zipf;
use ic_service::SyntheticSpec;

use crate::reference::Reference;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Popular small queries the result cache answers.
    HotRead,
    /// Distinct large queries and progressive sessions on large graphs.
    ColdSearch,
    /// Reads beside durable update batches and commits.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::ColdSearch, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdSearch => "cold-search",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered rates (events per second) of the steady and the saturate
    /// phase. The steady rate sits well below the workload's completed
    /// rate under saturation, and low enough that an event seldom finds
    /// its connection still busy with an earlier one; the saturate rate
    /// is far above capacity.
    fn rates(self) -> (f64, f64) {
        match self {
            Workload::HotRead => (40.0, 20_000.0),
            Workload::ColdSearch => (15.0, 250.0),
            Workload::Churn => (24.0, 2_000.0),
        }
    }

    /// Relative shares of (QUERY, BATCH, session, update) events.
    fn mix(self) -> [f64; 4] {
        match self {
            Workload::HotRead => [0.85, 0.15, 0.0, 0.0],
            Workload::ColdSearch => [0.80, 0.0, 0.20, 0.0],
            Workload::Churn => [0.90, 0.0, 0.0, 0.10],
        }
    }
}

/// What an event does; decides which latency metric it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `QUERY`.
    Query,
    /// One `BATCH` of sub-queries.
    Batch,
    /// `OPEN`, `NEXT 1`, `NEXT 50`, `CLOSE` of a progressive session.
    Session,
    /// `UPDATE` lines followed by their `COMMIT`.
    Update,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Batch => "batch",
            Kind::Session => "session",
            Kind::Update => "update",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Kind::Query | Kind::Batch)
    }
}

/// Communities a session pulls: `NEXT 1`, then `NEXT 50`.
pub const SESSION_PULL: [usize; 2] = [1, 50];

/// One scheduled request group. Steps run in order on one connection;
/// `$S` in a step stands for the session id the `OPEN` reply named.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub due_us: u64,
    pub kind: Kind,
    pub steps: Vec<String>,
}

/// One open-loop phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    pub qps: f64,
    pub seconds: f64,
    pub events: Vec<Event>,
}

/// How a generated graph reaches the server.
#[derive(Clone, Debug)]
pub enum Source {
    /// `GEN` with this recipe.
    Gen(SyntheticSpec),
    /// `LOAD` of an `ICG1` file the benchmark writes (these bytes).
    Load { file: String, bytes: Arc<Vec<u8>> },
}

/// A generated graph the workload registers, built in process too (for
/// the answer reference and the traced run).
#[derive(Clone, Debug)]
pub struct GraphDef {
    pub name: String,
    pub source: Source,
    pub graph: Arc<WeightedGraph>,
    /// Seconds the in-process build took.
    pub build_s: f64,
}

impl GraphDef {
    /// A graph the server generates itself with `GEN`.
    fn gen(name: &str, spec: SyntheticSpec) -> GraphDef {
        let start = Instant::now();
        let graph = Arc::new(spec.build());
        GraphDef {
            name: name.to_string(),
            source: Source::Gen(spec),
            graph,
            build_s: start.elapsed().as_secs_f64(),
        }
    }

    /// A PageRank-weighted Barabási–Albert graph, built here and sent as
    /// a file: `GEN … ba` draws from an unseeded hash set, so two
    /// processes given the same seed build different graphs, and the
    /// benchmark could neither reproduce nor validly mutate the server's.
    fn barabasi_albert(name: &str, n: usize, d: usize, seed: u64) -> GraphDef {
        let start = Instant::now();
        let graph = Arc::new(assemble(
            n,
            &barabasi_albert(n, d, seed),
            WeightKind::PageRank,
        ));
        let build_s = start.elapsed().as_secs_f64();
        let mut bytes = Vec::new();
        io::write_binary(&graph, &mut bytes).expect("writing to memory");
        GraphDef {
            name: name.to_string(),
            source: Source::Load {
                file: format!("{name}.icg"),
                bytes: Arc::new(bytes),
            },
            graph,
            build_s,
        }
    }

    /// The line that registers this graph.
    pub fn setup_line(&self) -> String {
        match &self.source {
            Source::Gen(SyntheticSpec::Gnm { n, m, seed }) => {
                format!("GEN {} gnm {n} {m} {seed}", self.name)
            }
            Source::Gen(SyntheticSpec::BarabasiAlbert { n, d, seed }) => {
                format!("GEN {} ba {n} {d} {seed}", self.name)
            }
            Source::Gen(SyntheticSpec::Rmat {
                scale,
                edge_factor,
                seed,
            }) => format!("GEN {} rmat {scale} {edge_factor} {seed}", self.name),
            Source::Load { file, .. } => format!("LOAD {} {file}", self.name),
        }
    }
}

/// Barabási–Albert preferential attachment with `d` distinct targets per
/// new vertex, drawn degree-proportionally from the running endpoint
/// list; targets are kept in draw order, so the graph is a function of
/// the seed.
fn barabasi_albert(n: usize, d: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Pcg32::new(seed);
    let mut edges = Vec::with_capacity(n * d);
    let mut pool: Vec<u32> = Vec::with_capacity(2 * n * d);
    for u in 0..=d as u32 {
        for v in 0..u {
            edges.push((v, u));
            pool.extend([u, v]);
        }
    }
    let mut targets = Vec::with_capacity(d);
    for v in (d + 1) as u32..n as u32 {
        targets.clear();
        while targets.len() < d {
            let t = pool[rng.gen_index(pool.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t.min(v), t.max(v)));
            pool.extend([v, t]);
        }
    }
    edges
}

/// A file-backed twin: `SAVE <source> <file>` then `LOADX <name> <file>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileTwin {
    pub name: String,
    pub source: String,
    pub file: String,
}

/// Everything one run sends, plus the graphs it registers.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Whether `serve` runs with `--data-dir`.
    pub durable: bool,
    pub graphs: Vec<GraphDef>,
    pub twins: Vec<FileTwin>,
    /// Small read graphs whose reference is also checked against the
    /// naive oracle.
    pub oracle_graphs: Vec<String>,
    /// Untimed requests after setup: fill the cache, create overlays.
    pub warmup: Vec<Event>,
    pub steady: Phase,
    pub saturate: Phase,
}

impl Inputs {
    /// The registration lines, in order (`GEN`, `SAVE`, `LOADX`).
    pub fn setup_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.graphs.iter().map(GraphDef::setup_line).collect();
        for t in &self.twins {
            lines.push(format!("SAVE {} {}", t.source, t.file));
            lines.push(format!("LOADX {} {}", t.name, t.file));
        }
        lines
    }

    /// Writes the files `LOAD` lines name into `dir`.
    pub fn write_files(&self, dir: &std::path::Path) -> std::io::Result<()> {
        for g in &self.graphs {
            if let Source::Load { file, bytes } = &g.source {
                std::fs::write(dir.join(file), bytes.as_slice())?;
            }
        }
        Ok(())
    }

    /// The in-process graph a registered name answers from (file twins
    /// answer from their source).
    pub fn source_of<'a>(&'a self, name: &'a str) -> &'a str {
        self.twins
            .iter()
            .find(|t| t.name == name)
            .map_or(name, |t| t.source.as_str())
    }

    /// Every line `serve` receives, with its schedule, as text.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# workload={} seed={} durable={}\n",
            self.workload.name(),
            self.seed,
            self.durable
        );
        for line in self.setup_lines() {
            let _ = writeln!(out, "P {line}");
        }
        for g in &self.graphs {
            if let Source::Load { file, bytes } = &g.source {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                std::hash::Hasher::write(&mut h, bytes);
                let digest = std::hash::Hasher::finish(&h);
                let _ = writeln!(out, "F {file} bytes={} hash={digest:016x}", bytes.len());
            }
        }
        let phases = [
            ("warmup", &self.warmup[..]),
            ("steady", &self.steady.events[..]),
        ];
        for (name, events) in phases
            .into_iter()
            .chain([("saturate", &self.saturate.events[..])])
        {
            for e in events {
                let _ = writeln!(
                    out,
                    "E {name} {} {} {}",
                    e.due_us,
                    e.kind.name(),
                    e.steps.join(" | ")
                );
            }
        }
        for p in [&self.steady, &self.saturate] {
            let _ = writeln!(
                out,
                "# phase={} qps={} seconds={}",
                p.name, p.qps, p.seconds
            );
        }
        out
    }
}

/// Share of the measured seconds spent in the steady phase; the rest is
/// the saturate phase.
pub const STEADY_SHARE: f64 = 0.75;

/// Generates a workload's inputs. `reference` receives the generated
/// graphs (generation 0); cold-search also reads lane sizes from it.
pub fn generate(workload: Workload, seed: u64, seconds: f64, reference: &mut Reference) -> Inputs {
    // The graphs are fixed per workload; the seed draws the request
    // stream. Figures from different seeds then differ by the requests
    // alone, not by which graph a seed happened to build.
    let mut state = (workload as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut graph_seed = || splitmix64(&mut state) % 1_000_000;
    let mut rng = Pcg32::new(splitmix64(&mut (seed ^ 0xB3_0C4D)));
    let (steady_qps, saturate_qps) = workload.rates();
    let steady_s = seconds * STEADY_SHARE;
    let saturate_s = seconds - steady_s;
    let steady_due = arrivals(&mut rng, steady_qps, steady_s);
    let saturate_due = arrivals(&mut rng, saturate_qps, saturate_s);
    let steady_kinds: Vec<Kind> = steady_due
        .iter()
        .map(|_| draw_kind(&mut rng, workload))
        .collect();
    let saturate_kinds: Vec<Kind> = saturate_due
        .iter()
        .map(|_| draw_kind(&mut rng, workload))
        .collect();

    let gnm = |n, m, seed| SyntheticSpec::Gnm { n, m, seed };
    let (graphs, twins, durable) = match workload {
        Workload::HotRead => (
            vec![
                GraphDef::gen("g0", gnm(2000, 8000, graph_seed())),
                GraphDef::gen("g1", gnm(1000, 3000, graph_seed())),
            ],
            vec![],
            false,
        ),
        Workload::ColdSearch => {
            let ba = GraphDef::barabasi_albert("ba", 200_000, 8, graph_seed());
            let rmat = SyntheticSpec::Rmat {
                scale: 17,
                edge_factor: 16,
                seed: graph_seed(),
            };
            (
                vec![ba, GraphDef::gen("rm", rmat)],
                vec![FileTwin {
                    name: "bf".to_string(),
                    source: "ba".to_string(),
                    file: "ba.icsr".to_string(),
                }],
                false,
            )
        }
        Workload::Churn => (
            vec![
                GraphDef::barabasi_albert("ba", 50_000, 6, graph_seed()),
                GraphDef::gen("g", gnm(2000, 8000, graph_seed())),
            ],
            vec![],
            true,
        ),
    };
    for g in &graphs {
        reference.add_generation(&g.name, 0, Arc::clone(&g.graph));
    }

    let mut steps = StepSource::new(workload, &graphs, reference, &mut rng);
    let mut warmup = Vec::new();
    if workload == Workload::Churn {
        // the first update of a graph builds its dynamic overlay; do that
        // before timing starts
        warmup.push(Event {
            due_us: 0,
            kind: Kind::Update,
            steps: steps.mutables[0].update(&mut rng),
        });
    }
    for line in steps.grid_lines() {
        warmup.push(Event {
            due_us: 0,
            kind: Kind::Query,
            steps: vec![line],
        });
    }
    let mut make = |due: &[u64], kinds: &[Kind], rng: &mut Pcg32| -> Vec<Event> {
        due.iter()
            .zip(kinds)
            .map(|(&due_us, &kind)| Event {
                due_us,
                kind,
                steps: steps.steps(kind, rng),
            })
            .collect()
    };
    let mut steady = make(&steady_due, &steady_kinds, &mut rng);
    let mut saturate = make(&saturate_due, &saturate_kinds, &mut rng);
    if workload == Workload::ColdSearch {
        let lanes = steps.cold_lanes.clone();
        assign_cold_ks(&lanes, &mut steady, true);
        assign_cold_ks(&lanes, &mut saturate, false);
    }
    Inputs {
        workload,
        seed,
        durable,
        oracle_graphs: match workload {
            Workload::HotRead => vec!["g1".to_string()],
            Workload::ColdSearch => vec![],
            Workload::Churn => vec!["g".to_string()],
        },
        graphs,
        twins,
        warmup,
        steady: Phase {
            name: "steady",
            qps: steady_qps,
            seconds: steady_s,
            events: steady,
        },
        saturate: Phase {
            name: "saturate",
            qps: saturate_qps,
            seconds: saturate_s,
            events: saturate,
        },
    }
}

/// Poisson arrival times (µs) at `qps` over `seconds`.
fn arrivals(rng: &mut Pcg32, qps: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0_f64;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / qps;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e6).round() as u64);
    }
}

fn draw_kind(rng: &mut Pcg32, workload: Workload) -> Kind {
    let mix = workload.mix();
    let mut u = rng.gen_f64() * mix.iter().sum::<f64>();
    for (share, kind) in
        mix.into_iter()
            .zip([Kind::Query, Kind::Batch, Kind::Session, Kind::Update])
    {
        if u < share {
            return kind;
        }
        u -= share;
    }
    Kind::Query
}

/// k values of the popular grids; all fit the server's result cache.
const GRID_KS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// γ values of the popular grids (kept at or below each graph's γ_max).
const GRID_GAMMAS: [u32; 3] = [2, 3, 4];
/// Sub-queries per `BATCH`.
const BATCH_SIZE: usize = 8;
/// Largest k a cold-search query asks for.
const COLD_K_MAX: usize = 1000;
/// Smallest k a cold-search query asks for.
const COLD_K_MIN: usize = 10;
/// R-MAT γ candidates for cold-search; kept where the lane holds at
/// least [`COLD_MIN_LANE`] communities.
const RMAT_GAMMAS: [u32; 12] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96];
const COLD_MIN_LANE: usize = 200;
/// Share of churn's update events that reweight vertices instead of
/// changing edges.
const REWEIGHT_SHARE: f64 = 0.15;

/// A cold-search lane: graph name, γ, and how many communities it holds
/// (capped at [`COLD_K_MAX`]).
#[derive(Clone, Debug)]
struct ColdLane {
    graph: String,
    gamma: u32,
    size: usize,
}

/// Per-workload step generation.
struct StepSource {
    workload: Workload,
    /// Popular (graph, γ, k) grid behind a seeded permutation, and its
    /// Zipf popularity.
    grid: Vec<(String, u32, usize)>,
    zipf: Zipf,
    /// Graphs updates mutate, with their tracked state.
    mutables: Vec<Mutable>,
    /// Cold-search query lanes and session (graph, γ) targets, each in a
    /// seeded order that queries and sessions cycle through, so every
    /// run asks every lane equally often.
    cold_lanes: Vec<ColdLane>,
    session_targets: Vec<(String, u32)>,
    issued: [usize; 2],
}

impl StepSource {
    fn new(
        workload: Workload,
        graphs: &[GraphDef],
        reference: &mut Reference,
        rng: &mut Pcg32,
    ) -> StepSource {
        let find = |name: &str| graphs.iter().find(|g| g.name == name).expect("graph");
        let gamma_max = |name: &str| ic_graph::stats::graph_stats(&find(name).graph).gamma_max;
        let (read_graphs, update_graphs): (&[&str], &[&str]) = match workload {
            Workload::HotRead => (&["g0", "g1"], &[]),
            Workload::ColdSearch => (&["ba", "rm"], &[]),
            // commits on the large graph only: reads of `g` stay cached,
            // so half the reads hit and the other half see invalidations
            Workload::Churn => (&["ba", "g"], &["ba"]),
        };
        let mut grid = Vec::new();
        let mut session_targets = Vec::new();
        let mut cold_lanes = Vec::new();
        for &name in read_graphs {
            let gmax = gamma_max(name);
            let gammas: Vec<u32> = GRID_GAMMAS.into_iter().filter(|&g| g <= gmax).collect();
            if workload == Workload::ColdSearch {
                let candidates: Vec<u32> = if name == "ba" {
                    (1..=gmax).collect()
                } else {
                    RMAT_GAMMAS.into_iter().filter(|&g| g <= gmax).collect()
                };
                for gamma in candidates {
                    let size = reference.lane(name, 0, gamma, COLD_K_MAX).held();
                    if size >= COLD_MIN_LANE {
                        session_targets.push((name.to_string(), gamma));
                        cold_lanes.push(ColdLane {
                            graph: name.to_string(),
                            gamma,
                            size,
                        });
                    }
                }
            } else {
                for &gamma in &gammas {
                    for k in GRID_KS {
                        grid.push((name.to_string(), gamma, k));
                    }
                }
            }
        }
        if workload == Workload::ColdSearch {
            // the file-backed twin serves the same lanes as its source
            let twin: Vec<ColdLane> = cold_lanes
                .iter()
                .filter(|l| l.graph == "ba")
                .map(|l| ColdLane {
                    graph: "bf".to_string(),
                    ..l.clone()
                })
                .collect();
            cold_lanes.extend(twin);
            rng.shuffle(&mut cold_lanes);
            rng.shuffle(&mut session_targets);
        }
        // the popularity order is part of the workload, not of the seed
        Pcg32::new(workload as u64 + 0x5EED).shuffle(&mut grid);
        let zipf = Zipf::new(grid.len().max(1), 1.0);
        let mutables = update_graphs
            .iter()
            .map(|&name| Mutable::new(name, &find(name).graph))
            .collect();
        StepSource {
            workload,
            grid,
            zipf,
            mutables,
            cold_lanes,
            session_targets,
            issued: [0; 2],
        }
    }

    fn grid_lines(&self) -> Vec<String> {
        self.grid
            .iter()
            .map(|(g, gamma, k)| format!("QUERY {g} {gamma} {k}"))
            .collect()
    }

    fn popular(&self, rng: &mut Pcg32) -> String {
        let (g, gamma, k) = &self.grid[self.zipf.sample(rng)];
        format!("{g} {gamma} {k}")
    }

    fn steps(&mut self, kind: Kind, rng: &mut Pcg32) -> Vec<String> {
        match kind {
            Kind::Query if self.workload == Workload::ColdSearch => {
                // k is assigned per lane afterwards (assign_cold_ks)
                let lane = self.issued[0] % self.cold_lanes.len();
                self.issued[0] += 1;
                vec![format!("QUERY #{lane}")]
            }
            Kind::Query => vec![format!("QUERY {}", self.popular(rng))],
            Kind::Batch => {
                let subs: Vec<String> = (0..BATCH_SIZE).map(|_| self.popular(rng)).collect();
                vec![format!("BATCH {}", subs.join(" ; "))]
            }
            Kind::Session => {
                let (g, gamma) = &self.session_targets[self.issued[1] % self.session_targets.len()];
                self.issued[1] += 1;
                vec![
                    format!("OPEN {g} {gamma}"),
                    format!("NEXT $S {}", SESSION_PULL[0]),
                    format!("NEXT $S {}", SESSION_PULL[1]),
                    "CLOSE $S".to_string(),
                ]
            }
            Kind::Update => {
                let i = rng.gen_index(self.mutables.len());
                self.mutables[i].update(rng)
            }
        }
    }
}

/// Replaces each cold-search `QUERY #<lane>` placeholder with a real
/// query. Within a lane, k strictly increases over the run, so no answer
/// is ever a prefix of an earlier (cached) one: the steady phase takes
/// the lower half of the lane's k range, the saturate phase the upper.
/// The ks are evenly spaced over the half, so the seed changes which
/// lanes are asked and when, not how large the answers are.
fn assign_cold_ks(lanes: &[ColdLane], events: &mut [Event], lower: bool) {
    let mut by_lane: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(lane) = e.steps[0].strip_prefix("QUERY #") {
            by_lane
                .entry(lane.parse().expect("lane index"))
                .or_default()
                .push(i);
        }
    }
    for (lane, idx) in by_lane {
        let l = &lanes[lane];
        // k < size keeps every cached answer short of exhausting its lane
        let top = l.size.min(COLD_K_MAX + 1) - 1;
        let mid = (COLD_K_MIN + top) / 2;
        let (lo, hi) = if lower {
            (COLD_K_MIN, mid)
        } else {
            (mid + 1, top)
        };
        let span = (hi - lo + 1) as f64;
        for (j, &i) in idx.iter().enumerate() {
            let k = lo + ((j as f64 + 0.5) * span / idx.len() as f64) as usize;
            events[i].steps[0] = format!("QUERY {} {} {k}", l.graph, l.gamma);
        }
    }
}

/// A graph the workload mutates, with its edge set tracked so that
/// every generated update is valid when applied in order.
struct Mutable {
    name: String,
    n: u32,
    edges: Vec<(u32, u32)>,
    index: HashMap<(u32, u32), usize>,
    max_weight: f64,
}

impl Mutable {
    fn new(name: &str, g: &WeightedGraph) -> Mutable {
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(a, b)| edge_key(g.external_id(a) as u32, g.external_id(b) as u32))
            .collect();
        let index = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        Mutable {
            name: name.to_string(),
            n: g.n() as u32,
            edges,
            index,
            max_weight: g.max_weight(),
        }
    }

    /// One update event: a batch of six valid edge inserts/deletes, or
    /// (at [`REWEIGHT_SHARE`]) two reweights, then `COMMIT`.
    fn update(&mut self, rng: &mut Pcg32) -> Vec<String> {
        let mut steps = Vec::new();
        if rng.gen_bool(REWEIGHT_SHARE) {
            for _ in 0..2 {
                let v = rng.gen_range(self.n);
                let w = self.max_weight * (0.05 + 0.9 * rng.gen_f64());
                steps.push(format!("UPDATE {} REWEIGHT {v} {w}", self.name));
            }
        } else {
            for _ in 0..6 {
                if rng.gen_bool(0.5) && !self.edges.is_empty() {
                    let (u, v) = self.edges[rng.gen_index(self.edges.len())];
                    self.remove(u, v);
                    steps.push(format!("UPDATE {} DEL {u} {v}", self.name));
                } else {
                    let (u, v) = loop {
                        let e = edge_key(rng.gen_range(self.n), rng.gen_range(self.n));
                        if e.0 != e.1 && !self.index.contains_key(&e) {
                            break e;
                        }
                    };
                    self.index.insert((u, v), self.edges.len());
                    self.edges.push((u, v));
                    steps.push(format!("UPDATE {} ADD {u} {v}", self.name));
                }
            }
        }
        steps.push(format!("COMMIT {}", self.name));
        steps
    }

    fn remove(&mut self, u: u32, v: u32) {
        let i = self.index.remove(&(u, v)).expect("tracked edge");
        self.edges.swap_remove(i);
        if let Some(&moved) = self.edges.get(i) {
            self.index.insert(moved, i);
        }
    }
}

fn edge_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}
