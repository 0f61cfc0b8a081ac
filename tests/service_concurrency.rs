//! The serving subsystem under concurrent load (the PR's acceptance
//! test): many client threads issue a mixed workload — planner-dispatched
//! batch queries, forced-mode queries, and progressive sessions — against
//! multiple registered graphs, and every answer must match what a
//! single-threaded forced-LocalSearch `TopKQuery` says, with the cache visibly
//! absorbing repeats.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use influential_communities::dynamic::UpdateOp;
use influential_communities::graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
use influential_communities::graph::{GraphBuilder, WeightedGraph};
use influential_communities::search::query::Selection;
use influential_communities::search::{Community, TopKQuery};
use influential_communities::service::{Algorithm, Counter, Mode, Query, Service, ServiceConfig};

/// The six interchangeable core-family algorithms (truss answers a
/// different family and is exercised separately by the service tests).
const CORE_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::LocalSearch,
    Algorithm::Progressive,
    Algorithm::Forward,
    Algorithm::OnlineAll,
    Algorithm::Backward,
    Algorithm::Naive,
];

/// Single-threaded ground truth through the unified core API.
fn reference_top_k(
    g: &influential_communities::graph::WeightedGraph,
    gamma: u32,
    k: usize,
) -> Vec<Community> {
    TopKQuery::new(gamma)
        .k(k)
        .algorithm(Selection::Forced(Algorithm::LocalSearch))
        .run(g)
        .expect("valid query")
        .communities
}

/// Reference answers computed single-threaded, keyed by (graph, γ, k).
type Reference = HashMap<(String, u32, usize), Vec<Community>>;

fn assert_matches(
    got: &[Community],
    reference: &Reference,
    graph: &str,
    gamma: u32,
    k: usize,
    context: &str,
) {
    let expected = &reference[&(graph.to_string(), gamma, k)];
    assert_eq!(got.len(), expected.len(), "{context}: count");
    for (a, b) in got.iter().zip(expected) {
        assert_eq!(a.keynode, b.keynode, "{context}: keynode");
        assert_eq!(a.members, b.members, "{context}: members");
        assert_eq!(a.influence, b.influence, "{context}: influence");
    }
}

#[test]
fn concurrent_mixed_workload_matches_single_threaded_search() {
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 128,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    let graphs = [
        (
            "gnm",
            assemble(180, &gnm(180, 700, 11), WeightKind::Uniform(42)),
        ),
        (
            "ba",
            assemble(200, &barabasi_albert(200, 4, 3), WeightKind::PageRank),
        ),
    ];
    let gammas = [2u32, 3, 4];
    let ks = [1usize, 3, 8, 250];

    // single-threaded ground truth for every combination in the workload
    let mut reference: Reference = HashMap::new();
    for (name, g) in &graphs {
        for &gamma in &gammas {
            for &k in &ks {
                reference.insert((name.to_string(), gamma, k), reference_top_k(g, gamma, k));
            }
        }
        svc.register(name, g.clone());
    }
    let reference = Arc::new(reference);

    // 8 threads × 13 batch queries = 104 concurrent queries, plus 8
    // progressive sessions pulled in parallel — every combination hit by
    // several threads so the cache must absorb repeats.
    const THREADS: usize = 8;
    const QUERIES_PER_THREAD: usize = 13;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                for q in 0..QUERIES_PER_THREAD {
                    let idx = t + q; // overlapping sequences force cache reuse
                    let (graph, _) = [("gnm", ()), ("ba", ())][idx % 2];
                    let gamma = [2u32, 3, 4][idx % 3];
                    let k = [1usize, 3, 8, 250][idx % 4];
                    // every fourth query pins an algorithm instead of
                    // letting the planner choose
                    let mode = match q % 5 {
                        1 => Mode::Forced(Algorithm::Forward),
                        2 => Mode::Forced(Algorithm::OnlineAll),
                        3 => Mode::Forced(Algorithm::Progressive),
                        4 => Mode::Forced(Algorithm::Backward),
                        _ => Mode::Auto,
                    };
                    let resp = svc
                        .query(Query::new(graph, gamma, k).with_mode(mode))
                        .expect("query succeeds");
                    assert_matches(
                        &resp.communities,
                        &reference,
                        graph,
                        gamma,
                        k,
                        &format!("thread {t} query {q} ({graph}, γ={gamma}, k={k})"),
                    );
                }

                // one progressive session per thread, interleaved with the
                // other threads' batch queries
                let graph = ["gnm", "ba"][t % 2];
                let gamma = [2u32, 3][t % 2];
                let id = svc.open_session(graph, gamma).expect("session opens");
                let mut streamed = Vec::new();
                loop {
                    let batch = svc.session_next(id, 3).expect("session next");
                    if batch.is_empty() {
                        break;
                    }
                    streamed.extend(batch);
                    if streamed.len() >= 8 {
                        break; // a client that stops early — LS-P's point
                    }
                }
                svc.close_session(id).expect("session closes");
                let k = streamed.len().max(1);
                let truncated: Vec<Community> = streamed.into_iter().take(k).collect();
                if !truncated.is_empty() {
                    let full = &reference.get(&(graph.to_string(), gamma, 250));
                    let expected = &full.expect("combo covered")[..truncated.len()];
                    for (a, b) in truncated.iter().zip(expected) {
                        assert_eq!(a.members, b.members, "session thread {t}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no worker panicked");
    }

    let stats = svc.stats();
    assert_eq!(
        stats[Counter::Queries],
        (THREADS * QUERIES_PER_THREAD) as u64
    );
    assert!(
        stats[Counter::Queries] >= 100,
        "acceptance floor: ≥100 queries"
    );
    assert!(
        stats[Counter::CacheHits] > 0,
        "repeated combinations must hit the cache: {stats:?}"
    );
    assert!(stats.hit_rate() > 0.0);
    assert_eq!(stats[Counter::SessionsOpened], THREADS as u64);
    assert_eq!(stats[Counter::SessionsClosed], THREADS as u64);
    assert!(stats[Counter::Streamed] > 0);

    // Every algorithm must execute at least once. The concurrent phase
    // cannot guarantee that by itself — mode is deliberately not part of
    // the cache key, so under some interleavings every forced-mode query
    // lands on a hit another algorithm populated. Drive one guaranteed
    // miss per algorithm (a fresh graph *name* per algorithm: with the
    // prefix-aware cache, no k against an already-queried lane is safe
    // from being served by slicing) and check the answers against the
    // single-threaded search while we're at it.
    for (i, algo) in CORE_ALGORITHMS.into_iter().enumerate() {
        let k = 11 + i;
        let name = format!("post-{algo}");
        svc.register(&name, graphs[0].1.clone());
        let resp = svc
            .query(Query::new(&name, 2, k).with_mode(Mode::Forced(algo)))
            .expect("post-pass query succeeds");
        assert!(!resp.cached, "{algo}: key must be fresh");
        assert!(!resp.coalesced, "{algo}: nothing to coalesce with");
        assert_eq!(resp.explain.algorithm, algo);
        assert!(resp.search_stats.is_some(), "{algo}: uniform stats");
        assert_matches_direct(&resp.communities, &graphs[0].1, 2, k);
    }
    let stats = svc.stats();
    for algo in CORE_ALGORITHMS {
        assert!(
            stats.executions(algo) > 0,
            "{algo} never executed: {stats:?}"
        );
    }
}

#[test]
fn cache_is_coherent_across_graph_replacement() {
    let svc = Service::with_defaults();
    let a = assemble(60, &gnm(60, 200, 1), WeightKind::Uniform(1));
    let b = assemble(80, &gnm(80, 320, 2), WeightKind::Uniform(2));
    svc.register("g", a.clone());
    let before = svc.query(Query::new("g", 2, 3)).unwrap();
    assert_matches_direct(&before.communities, &a, 2, 3);
    // replacing the graph must invalidate its cached answers
    svc.register("g", b.clone());
    let after = svc.query(Query::new("g", 2, 3)).unwrap();
    assert!(!after.cached, "stale answer served after re-registration");
    assert_matches_direct(&after.communities, &b, 2, 3);
}

fn assert_matches_direct(
    got: &[Community],
    g: &influential_communities::graph::WeightedGraph,
    gamma: u32,
    k: usize,
) {
    let expected = reference_top_k(g, gamma, k);
    assert_eq!(got.len(), expected.len());
    for (x, y) in got.iter().zip(&expected) {
        assert_eq!(x.members, y.members);
    }
}

/// The single-flight guarantee (this PR's acceptance test): 32 threads
/// fire the *same* cold query through `execute_inline` simultaneously,
/// and the search must run exactly once — one cache miss, every other
/// thread either coalesced onto the in-flight execution or (if it
/// arrived after the answer landed) served from the cache. The search is
/// made slow enough (forced OnlineAll on a 40k-edge graph) that under
/// any realistic scheduling all 31 non-leaders arrive while the leader
/// is still computing.
#[test]
fn thundering_herd_executes_the_search_exactly_once() {
    const THREADS: usize = 32;
    let g = assemble(
        10_000,
        &barabasi_albert(10_000, 4, 77),
        WeightKind::PageRank,
    );
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("herd", g.clone());
    let reference = reference_top_k(&g, 2, 32);

    // raw threads through execute_inline (not the pool, whose fixed
    // width would serialize the herd and mask the race being tested)
    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                svc.execute_inline(
                    &Query::new("herd", 2, 32).with_mode(Mode::Forced(Algorithm::OnlineAll)),
                )
                .expect("query succeeds")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // every thread got the full, correct answer
    let executed: Vec<_> = responses
        .iter()
        .filter(|r| !r.cached && !r.coalesced)
        .collect();
    for r in &responses {
        assert_eq!(r.communities.len(), reference.len());
        for (a, b) in r.communities.iter().zip(reference.iter()) {
            assert_eq!(a.members, b.members);
        }
    }
    // ...but only one of them computed it
    let stats = svc.stats();
    assert_eq!(
        stats[Counter::CacheMisses],
        1,
        "the herd executed more than once"
    );
    assert_eq!(executed.len(), 1, "exactly one leader");
    assert_eq!(stats[Counter::Queries], THREADS as u64);
    assert_eq!(
        stats[Counter::Coalesced] + stats[Counter::CacheHits],
        (THREADS - 1) as u64,
        "everyone else was coalesced or cache-served: {stats:?}"
    );
    assert!(
        stats[Counter::Coalesced] >= 1,
        "a slow search must coalesce at least some of a 32-thread herd"
    );
    assert_eq!(stats.executions(Algorithm::OnlineAll), 1);
}

/// `query_batch` answers must be indistinguishable from the same queries
/// issued one by one against a fresh service — while executing once per
/// `(graph, γ, family)` group instead of once per request.
#[test]
fn batched_answers_equal_individual_answers() {
    let g = assemble(180, &gnm(180, 700, 11), WeightKind::Uniform(42));
    let queries: Vec<Query> = [
        ("g", 2u32, 1usize),
        ("g", 2, 8),
        ("g", 2, 250),
        ("g", 3, 3),
        ("g", 3, 8),
        ("g", 4, 1),
        ("g", 2, 8), // exact duplicate rides along
    ]
    .into_iter()
    .map(|(name, gamma, k)| Query::new(name, gamma, k))
    .collect();

    let batched_svc = Service::with_defaults();
    batched_svc.register("g", g.clone());
    let batched = batched_svc.query_batch(&queries);

    let individual_svc = Service::with_defaults();
    individual_svc.register("g", g.clone());

    for (q, b) in queries.iter().zip(&batched) {
        let b = b.as_ref().expect("all queries valid");
        let individual = individual_svc.query(q.clone()).expect("query succeeds");
        assert_eq!(
            b.communities.len(),
            individual.communities.len(),
            "{q:?}: count"
        );
        for (x, y) in b.communities.iter().zip(individual.communities.iter()) {
            assert_eq!(x.keynode, y.keynode, "{q:?}");
            assert_eq!(x.members, y.members, "{q:?}");
            assert_eq!(x.influence, y.influence, "{q:?}");
        }
    }
    // 3 lanes (γ=2, γ=3, γ=4) → exactly 3 searches for 7 requests
    let stats = batched_svc.stats();
    assert_eq!(stats[Counter::Batches], 1);
    assert_eq!(
        stats[Counter::CacheMisses],
        3,
        "one search per group: {stats:?}"
    );
    assert_eq!(stats[Counter::Queries], queries.len() as u64);
}

/// The invalidation guarantee under *concurrent* load: while reader
/// threads hammer one graph name, the main thread replaces the graph
/// twice — once wholesale (`register`) and once through the dynamic
/// update path (`update` + `commit_updates`). Every answer must match one
/// of the three reference states, per-thread answers must only move
/// forward through those states, and any query issued after a swap
/// completed must see that swap: across a generation bump, a stale
/// answer is never served. (The pre-existing concurrency test asserted a
/// positive hit-rate but never exercised invalidation at all.)
#[test]
fn replace_graph_mid_flight_never_serves_stale_answers() {
    const GAMMA: u32 = 2;
    const K: usize = 3;
    let graph_a = assemble(60, &gnm(60, 200, 21), WeightKind::Uniform(5));
    let graph_b = assemble(90, &gnm(90, 360, 22), WeightKind::Uniform(6));

    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("g", graph_a.clone());

    // stage 0 = A, stage 1 = B, stage 2 = B with its top community's
    // keynode removed via the dynamic-update path (filled in below)
    let references: Arc<std::sync::Mutex<Vec<Vec<Community>>>> =
        Arc::new(std::sync::Mutex::new(vec![
            reference_top_k(&graph_a, GAMMA, K),
            reference_top_k(&graph_b, GAMMA, K),
        ]));
    let stage = Arc::new(AtomicUsize::new(0));

    const THREADS: usize = 6;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let references = Arc::clone(&references);
            let stage = Arc::clone(&stage);
            std::thread::spawn(move || {
                let mut floor = 0usize; // lowest stage this thread may still see
                let mut after_final_swap = 0usize;
                for q in 0..1_000_000 {
                    // keep querying until well past the last swap, so the
                    // reads genuinely interleave with both replacements
                    let issued_at = stage.load(Ordering::SeqCst);
                    if issued_at == 2 {
                        after_final_swap += 1;
                        if after_final_swap > 16 {
                            break;
                        }
                    }
                    assert!(q < 999_999, "swaps never observed");
                    let resp = svc.query(Query::new("g", GAMMA, K)).expect("query");
                    let refs = references.lock().unwrap();
                    let matched = refs.iter().enumerate().position(|(_, expected)| {
                        resp.communities.len() == expected.len()
                            && resp
                                .communities
                                .iter()
                                .zip(expected)
                                .all(|(a, b)| a.members == b.members)
                    });
                    drop(refs);
                    let matched = matched.unwrap_or_else(|| {
                        panic!("thread {t} query {q}: answer matches no reference state")
                    });
                    assert!(
                        matched >= issued_at,
                        "thread {t} query {q}: stale answer (stage {matched}) served \
                         after stage {issued_at} swap completed"
                    );
                    assert!(
                        matched >= floor,
                        "thread {t} query {q}: answer regressed from stage {floor} \
                         to stage {matched}"
                    );
                    floor = matched;
                }
            })
        })
        .collect();

    // swap 1: wholesale replacement A → B
    std::thread::sleep(std::time::Duration::from_millis(5));
    svc.register("g", graph_b.clone());
    stage.store(1, Ordering::SeqCst);

    // swap 2: dynamic-update replacement B → C (remove the top keynode).
    // C's expected answer is computed on a private DynamicGraph replica
    // and published to the reference table *before* the live swap, so a
    // reader can never observe an answer ahead of its reference.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let keynode_ext = {
        let top = &references.lock().unwrap()[1][0];
        graph_b.external_id(top.keynode)
    };
    let ref_c = {
        let mut replica = influential_communities::dynamic::DynamicGraph::new(graph_b.clone());
        replica.remove_vertex(keynode_ext).expect("replica removal");
        reference_top_k(&replica.commit().graph, GAMMA, K)
    };
    {
        let mut refs = references.lock().unwrap();
        // each stage must be observably different from its predecessor,
        // or the stale checks would be vacuous
        for (i, j) in [(0usize, 1usize), (1, 2usize)] {
            let next = if j == 2 { &ref_c } else { &refs[j] };
            assert!(
                refs[i].len() != next.len()
                    || refs[i]
                        .iter()
                        .zip(next)
                        .any(|(a, b)| a.influence != b.influence),
                "stage {j} must be observably different from stage {i}"
            );
        }
        refs.push(ref_c);
    }
    svc.update("g", UpdateOp::RemoveVertex { v: keynode_ext })
        .expect("update accepted");
    let (_, receipt) = svc.commit_updates("g").expect("commit succeeds");
    assert_eq!(receipt.ops_applied, 1);
    stage.store(2, Ordering::SeqCst);

    for h in handles {
        h.join().expect("no reader panicked");
    }

    // after everything settled: the final answer is stage 2's, uncached
    // answers were actually recomputed (three generations existed)
    let final_resp = svc.query(Query::new("g", GAMMA, K)).unwrap();
    let refs = references.lock().unwrap();
    assert_eq!(final_resp.communities.len(), refs[2].len());
    for (a, b) in final_resp.communities.iter().zip(&refs[2]) {
        assert_eq!(a.members, b.members);
    }
    let stats = svc.stats();
    assert!(
        stats[Counter::CacheMisses] >= 3,
        "each generation must have computed at least once: {stats:?}"
    );
}

/// `CLOSE` racing an in-flight `NEXT`: the pull that already holds the
/// session finishes its batch (no hang, no `WorkerGone`), and every later
/// `NEXT` finds the session gone.
#[test]
fn close_racing_next_lets_the_inflight_pull_finish() {
    use influential_communities::service::{ServiceError, SyntheticSpec};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 16,
        cache_shards: 2,
        ..ServiceConfig::default()
    });
    svc.register_synthetic(
        "big",
        SyntheticSpec::Gnm {
            n: 3_000,
            m: 12_000,
            seed: 7,
        },
    );
    let id = svc.open_session("big", 2).unwrap();
    let start = Arc::new(Barrier::new(2));
    let puller = {
        let svc = Arc::clone(&svc);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let batch = svc.session_next(id, 10_000);
            (batch, Instant::now())
        })
    };
    start.wait();
    std::thread::sleep(Duration::from_millis(20));
    svc.close_session(id).expect("CLOSE of an open session");
    let closed_at = Instant::now();
    let (batch, pulled_at) = puller.join().expect("puller did not panic");
    let batch = batch.expect("the in-flight pull gets its batch");
    assert!(!batch.is_empty());
    assert!(
        closed_at < pulled_at,
        "the pull should still have been running when CLOSE returned"
    );
    assert_eq!(
        svc.session_next(id, 1),
        Err(ServiceError::UnknownSession(id))
    );

    // the interrupted batch is the stream's true prefix
    let fresh = svc.open_session("big", 2).unwrap();
    let reference = svc.session_next(fresh, 10).unwrap();
    for (a, b) in batch.iter().zip(&reference) {
        assert_eq!(a.keynode, b.keynode);
        assert_eq!(a.members, b.members);
    }
    assert_eq!(svc.stats()[Counter::SessionsClosed], 1);
}

/// `n` vertices with the edges of `gnm(n, 4n, seed)`, external id
/// `id(v)` and a weight hashed from `v` — so graphs built with different
/// `id` maps share their structure, ranks and answers, and differ only
/// in the ids a reply prints.
fn relabelled_gnm(n: usize, seed: u64, id: impl Fn(u64) -> u64) -> WeightedGraph {
    let mut b = GraphBuilder::new();
    for v in 0..n as u64 {
        let w = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        b.set_weight(id(v), w);
    }
    for (u, v) in gnm(n, 4 * n, seed) {
        b.add_edge(id(u64::from(u)), id(u64::from(v)));
    }
    b.build().expect("valid graph")
}

/// The wire form of `communities`' `C` lines, from the core answer and
/// the graph's external ids.
fn reference_block(g: &WeightedGraph, communities: &[Community]) -> String {
    let mut out = String::new();
    for c in communities {
        let mut ids = c.external_members(g);
        ids.sort_unstable();
        let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "\nC influence={} members={}",
            c.influence,
            ids.join(",")
        ));
    }
    out
}

/// The `C` block of each answer in a `QUERY` or `BATCH` reply.
fn c_blocks(reply: &str) -> Vec<String> {
    assert!(
        reply.starts_with("OK ") && reply.ends_with("\nEND"),
        "{reply}"
    );
    assert!(!reply.contains("ERR"), "{reply}");
    let mut blocks: Vec<String> = Vec::new();
    for line in reply.lines() {
        if line.starts_with("C ") {
            let block = blocks
                .last_mut()
                .expect("a C line follows its answer's header");
            block.push('\n');
            block.push_str(line);
        } else if line.starts_with("R ")
            || (line.starts_with("OK ") && !line.starts_with("OK batch="))
        {
            blocks.push(String::new());
        }
    }
    blocks
}

/// The request lines the rendering race sends, with the ks they ask for
/// (one lane: every request is γ = 2 on `g`).
const RACE_REQUESTS: [(&str, &[usize]); 4] = [
    ("QUERY g 2 64", &[64]),
    ("QUERY g 2 5", &[5]),
    ("BATCH g 2 17 ; g 2 64 ; g 2 1", &[17, 64, 1]),
    ("QUERY g 2 200", &[200]),
];

/// Cached replies are cut from one rendering per cache entry, filled by
/// the entry's first re-use. 8 threads race that first fill through
/// `handle_line` (exact hits, prefix-served hits and a `BATCH` on one
/// lane) and every block must equal the reference. Then the graph is
/// re-registered, alternating between two graphs with different edges
/// and external ids, while the threads query on: no reply may mix rank
/// spaces — each equals the reference of one of the two instances (a
/// block translated through the other instance's ids matches neither).
#[test]
fn cached_replies_race_the_first_rendering_and_re_registration() {
    use influential_communities::service::protocol::handle_line;
    use std::sync::Barrier;
    const THREADS: usize = 8;
    const REQUESTS: usize = 200;
    const GAMMA: u32 = 2;

    let graphs = [
        Arc::new(relabelled_gnm(250, 5, |v| v)),
        Arc::new(relabelled_gnm(250, 6, |v| 3 * v + 1_000_000_007)),
    ];
    // expected block per (instance, k)
    let expected: Arc<Vec<HashMap<usize, String>>> = Arc::new(
        graphs
            .iter()
            .map(|g| {
                let all = reference_top_k(g, GAMMA, 200);
                assert!(all.len() >= 64, "{} communities", all.len());
                [1, 5, 17, 64, 200]
                    .into_iter()
                    .map(|k| (k, reference_block(g, &all[..k.min(all.len())])))
                    .collect()
            })
            .collect(),
    );
    assert_ne!(expected[0][&64], expected[1][&64], "the ids differ");
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("g", (*graphs[0]).clone());
    // the k = 200 entry is cached but not yet rendered: every request
    // below re-uses it, and the first ones race to fill it
    assert!(!svc.query(Query::new("g", GAMMA, 200)).unwrap().cached);
    let rendered_bytes = |svc: &Arc<Service>| svc.stats()[Counter::RenderedBytes] as usize;
    assert_eq!(rendered_bytes(&svc), 0);

    // Each thread checks every reply against the instances it may come
    // from, and reports which it saw.
    let race = |requests: usize, instances: &'static [usize], barrier: Arc<Barrier>| {
        (0..THREADS)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let expected = Arc::clone(&expected);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut seen = [0usize; 2];
                    barrier.wait();
                    for i in 0..requests {
                        let (line, ks) = RACE_REQUESTS[(t + i) % RACE_REQUESTS.len()];
                        let reply = handle_line(&svc, line);
                        let blocks = c_blocks(&reply);
                        let instance = instances.iter().copied().find(|&g| {
                            blocks.len() == ks.len()
                                && blocks.iter().zip(ks).all(|(b, k)| *b == expected[g][k])
                        });
                        let instance = instance.unwrap_or_else(|| {
                            panic!("thread {t} request {i} ({line}): reply matches no instance")
                        });
                        seen[instance] += 1;
                    }
                    seen
                })
            })
            .collect::<Vec<_>>()
    };

    let barrier = Arc::new(Barrier::new(THREADS));
    for h in race(REQUESTS, &[0], barrier) {
        assert_eq!(h.join().unwrap(), [REQUESTS, 0]);
    }
    // every answer was a hit on the one k = 200 entry (a BATCH counts
    // one per slot: 6 answers per 4 requests), rendered once
    let stats = svc.stats();
    assert_eq!(stats[Counter::CacheMisses], 1);
    assert_eq!(
        stats[Counter::CacheHits],
        (THREADS * REQUESTS * 6 / 4) as u64
    );
    assert_eq!(rendered_bytes(&svc), expected[0][&200].len());

    // now re-register between the two id maps while the threads query
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let readers = race(REQUESTS / 2, &[0, 1], Arc::clone(&barrier));
    barrier.wait();
    let mut swaps = 0usize;
    while !readers.iter().all(|h| h.is_finished()) {
        swaps += 1;
        svc.register("g", (*graphs[swaps % 2]).clone());
        // leave the readers room to hit each generation's entries too
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let mut seen = [0usize; 2];
    for h in readers {
        let s = h.join().unwrap();
        seen = [seen[0] + s[0], seen[1] + s[1]];
    }
    assert_eq!(seen[0] + seen[1], THREADS * REQUESTS / 2);
    assert!(swaps > 1, "the registrations ran beside the queries");
}
