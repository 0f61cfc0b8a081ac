//! End-to-end observability tests: histogram quantile accuracy against
//! an exact sorted reference (proptest), concurrent recording + merge,
//! the Prometheus exposition's line shape, `EXPLAIN ANALYZE` stage
//! tiling against end-to-end latency, the slow-query log, `STATS` row
//! determinism, `STATS`/`METRICS` agreement on every counter-table row,
//! and the per-reply socket-write series.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use influential_communities::obs::{Histogram, QueryClass, LATENCY_LE_BOUNDS_NS, SUB_BUCKETS};
use influential_communities::service::protocol::handle_line;
use influential_communities::service::stats::{Kind, TABLE};
use influential_communities::service::{serve, Algorithm, Query, Service, ServiceConfig};
use proptest::prelude::*;

fn svc_with(threshold: Duration) -> Arc<Service> {
    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 16,
        cache_shards: 2,
        slowlog_threshold: threshold,
        ..ServiceConfig::default()
    });
    svc.register("fig3", ic_graph::paper::figure3());
    svc
}

/// Exact quantile of a sorted sample, using the same nearest-rank rule
/// the histogram implements: the smallest value with cumulative count
/// ≥ ⌈q·n⌉.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// SplitMix64: deterministic value streams for the property test (the
/// vendored proptest draws only scalar parameters).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The log-linear histogram's quantiles match the exact sorted
    /// reference to within one sub-bucket of relative error: the
    /// reported value is an upper bound of the exact value's bucket, so
    /// `exact ≤ reported ≤ exact + exact/SUB_BUCKETS + 1`.
    #[test]
    fn quantiles_match_exact_reference_within_bucket_error(
        n in 1usize..400,
        seed in 0u64..1_000_000,
        // spread exponent: values span [0, 2^shift) — from tight
        // sub-microsecond clusters to multi-minute outliers
        shift in 4u32..44,
        q_mille in 0u64..1001,
    ) {
        let mut state = seed;
        let values: Vec<u64> = (0..n).map(|_| splitmix(&mut state) >> (64 - shift)).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());
        prop_assert_eq!(snap.min(), sorted[0]);
        for q in [q_mille as f64 / 1000.0, 0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q);
            let reported = snap.quantile(q);
            prop_assert!(reported >= exact, "q={q}: reported {reported} < exact {exact}");
            let slack = exact / SUB_BUCKETS as u64 + 1;
            prop_assert!(
                reported <= exact + slack,
                "q={q}: reported {reported} > exact {exact} + slack {slack}"
            );
        }
    }
}

/// Concurrent recorders into per-thread histograms, merged at the end,
/// agree exactly with one histogram fed every value — merge is a
/// bucket-wise sum, so no ordering can change the result.
#[test]
fn concurrent_recorders_merge_to_the_single_recorder_result() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;
    let merged = Histogram::new();
    let reference = Histogram::new();
    let shards: Vec<Histogram> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let h = Histogram::new();
                    // deterministic per-thread stream with a wide spread
                    for i in 0..PER_THREAD {
                        h.record((t * PER_THREAD + i).wrapping_mul(2_654_435_761) % 1_000_000_007);
                    }
                    h
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for shard in &shards {
        merged.merge(shard);
    }
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.record((t * PER_THREAD + i).wrapping_mul(2_654_435_761) % 1_000_000_007);
        }
    }
    let (m, r) = (merged.snapshot(), reference.snapshot());
    assert_eq!(m.count(), THREADS * PER_THREAD);
    assert_eq!(m.sum(), r.sum());
    for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(m.quantile(q), r.quantile(q), "q={q}");
    }
    for bound in LATENCY_LE_BOUNDS_NS {
        assert_eq!(m.count_le(bound), r.count_le(bound), "le={bound}");
    }
}

/// Every line of the `METRICS` exposition is well-formed Prometheus
/// text: a `# HELP`/`# TYPE` comment or `name{labels} value` where the
/// value parses as a finite number. The per-class histograms carry
/// cumulative buckets ending at `+Inf` = `_count`.
#[test]
fn metrics_exposition_is_well_formed_prometheus_text() {
    let svc = svc_with(Duration::from_millis(10));
    svc.query(Query::new("fig3", 3, 4)).unwrap();
    svc.query(Query::new("fig3", 3, 4)).unwrap(); // cached
    svc.query(Query::new("fig3", 3, 2)).unwrap(); // prefix-served
    let body = svc.metrics_text();
    assert!(!body.is_empty());
    let mut inf_buckets = 0;
    for line in body.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        // name{labels} value — split on the last space; the metric name
        // is ASCII [a-zA-Z0-9_:] up to the optional label block
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line:?}"));
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        assert!(name.starts_with("ic_"), "unprefixed metric in {line:?}");
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad labels in {line:?}"
                );
            }
        }
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(v.is_finite(), "{line:?}");
        if series.contains("le=\"+Inf\"") {
            inf_buckets += 1;
        }
    }
    assert!(inf_buckets >= 2, "per-class histograms render +Inf buckets");

    // the counters agree with STATS' view of the same traffic
    assert!(body.contains("ic_queries_total 3"), "{body}");
    // prefix-served answers count as hits too: one exact + one sliced
    assert!(body.contains("ic_cache_hits_total 2"), "{body}");
    assert!(body.contains("ic_prefix_served_total 1"), "{body}");
    // each answered class recorded exactly one end-to-end latency
    for class in ["cold", "cached", "prefix_served"] {
        let needle = format!("ic_query_latency_ns_count{{class=\"{class}\"}} 1");
        assert!(body.contains(&needle), "missing {needle:?} in {body}");
    }
    // quantile gauges sit between the class's recorded min and max:
    // one sample per class, so p50 = p99 = that sample's bucket bound
    for class in [QueryClass::Cold, QueryClass::Cached] {
        let snap = svc.metrics().class_snapshot(class);
        assert_eq!(snap.quantile(0.5), snap.quantile(0.99));
        assert!(snap.quantile(0.5) >= snap.min());
        assert!(snap.quantile(0.5) <= snap.max() + snap.max() / SUB_BUCKETS as u64 + 1);
    }
}

/// `EXPLAIN ANALYZE` reports measured stage timings that tile the
/// end-to-end trace exactly (sum == total, well within the 10% bound),
/// and the trace total is at least the execution latency the response
/// itself reports.
#[test]
fn explain_analyze_stages_tile_the_end_to_end_latency() {
    let svc = svc_with(Duration::from_millis(10));
    let (resp, trace) = svc.query_traced(Query::new("fig3", 3, 4)).unwrap();
    assert_eq!(
        trace.stages_total_ns(),
        trace.total_ns(),
        "stage timings tile the total exactly"
    );
    assert!(trace.total_ns() > 0);
    assert!(
        trace.total_ns() >= resp.latency.as_nanos() as u64,
        "trace spans queue+plan+serialize around the measured execution: \
         total={} latency={}",
        trace.total_ns(),
        resp.latency.as_nanos()
    );
    // end-to-end wall clock measured around the call bounds the trace
    let start = std::time::Instant::now();
    let (_, warm) = svc.query_traced(Query::new("fig3", 3, 4)).unwrap();
    let wall = start.elapsed().as_nanos() as u64;
    assert_eq!(warm.stages_total_ns(), warm.total_ns());
    assert!(
        warm.total_ns() <= wall,
        "trace {} > wall {}",
        warm.total_ns(),
        wall
    );
}

/// The slow-query ring retains full traces once the threshold is
/// crossed, and each retained trace tiles exactly.
#[test]
fn slowlog_retains_tiling_traces() {
    let svc = svc_with(Duration::ZERO); // everything is slow
    svc.query(Query::new("fig3", 3, 4)).unwrap();
    svc.query(Query::new("fig3", 3, 4)).unwrap();
    let log = svc.slowlog(10);
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].class, QueryClass::Cached, "newest first");
    assert_eq!(log[1].class, QueryClass::Cold);
    for entry in &log {
        assert_eq!(entry.trace.stages_total_ns(), entry.trace.total_ns());
        assert!(entry.trace.total_ns() > 0);
    }
    // a high threshold retains nothing, but histograms still record
    let quiet = svc_with(Duration::from_secs(3600));
    quiet.query(Query::new("fig3", 3, 4)).unwrap();
    assert!(quiet.slowlog(10).is_empty());
    assert_eq!(quiet.metrics().class_snapshot(QueryClass::Cold).count(), 1);
}

/// `STATS` store rows and `GRAPHS` listings are sorted by name, so two
/// identical calls render byte-identical row ordering regardless of
/// registration order.
#[test]
fn stats_rows_are_deterministically_ordered() {
    let svc = svc_with(Duration::from_millis(10));
    // register in anti-alphabetical order
    for name in ["zeta", "mid", "alpha"] {
        handle_line(&svc, &format!("GEN {name} gnm 30 60 7"));
    }
    let rows = |reply: &str| -> Vec<String> {
        reply
            .lines()
            .filter(|l| l.starts_with("S ") || l.starts_with("G "))
            .map(String::from)
            .collect()
    };
    let stats = handle_line(&svc, "STATS");
    let names: Vec<&str> = stats
        .lines()
        .filter_map(|l| l.strip_prefix("S graph="))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(names, ["alpha", "fig3", "mid", "zeta"], "{stats}");
    assert_eq!(rows(&stats), rows(&handle_line(&svc, "STATS")));
    let graphs = handle_line(&svc, "GRAPHS");
    assert_eq!(rows(&graphs), rows(&handle_line(&svc, "GRAPHS")));
}

/// The transport's write stage is observable server-side: every reply a
/// protocol connection writes adds its bytes to `ic_reply_bytes_total`
/// and one sample to `ic_reply_write_seconds`, so a `QUERY` between two
/// `METRICS` requests grows both series by exactly what was sent.
#[test]
fn reply_writes_grow_the_transport_series() {
    let svc = svc_with(Duration::from_secs(10));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_svc = Arc::clone(&svc);
    std::thread::spawn(move || serve(listener, server_svc));

    let mut client = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    // one request whose reply ends in an `END` line, returned verbatim
    let mut request = |line: &str| -> String {
        client.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        while !reply.ends_with("\nEND\n") {
            assert!(reader.read_line(&mut reply).unwrap() > 0, "EOF in {reply}");
        }
        reply
    };
    let series = |body: &str, name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from {body}"))
            .parse()
            .unwrap()
    };

    let before = request("METRICS");
    // the banner was the one reply written before this exposition
    assert_eq!(series(&before, "ic_reply_bytes_total"), banner.len() as f64);
    assert_eq!(series(&before, "ic_reply_write_seconds_count"), 1.0);
    let query = request("QUERY fig3 3 4");
    assert!(query.contains("count=4"), "{query}");
    let after = request("METRICS");

    let grew = |name: &str| series(&after, name) - series(&before, name);
    assert_eq!(
        grew("ic_reply_bytes_total"),
        (before.len() + query.len()) as f64,
        "the METRICS and QUERY replies, terminators included"
    );
    assert_eq!(grew("ic_reply_write_seconds_count"), 2.0);
    assert!(grew("ic_reply_write_seconds_sum") > 0.0, "{after}");
    assert_eq!(
        series(&after, "ic_reply_write_seconds_bucket{le=\"+Inf\"}"),
        series(&after, "ic_reply_write_seconds_count")
    );
}

/// Every counter-table row that has both a `STATS` key and a `METRICS`
/// name reads the same value through both verbs, after fixed traffic
/// that moves each recorded row: a cold, a cached and a prefix-served
/// `QUERY`, a `BATCH`, a session's `OPEN`/`NEXT`/`CLOSE`, and one query
/// with a forced algorithm.
#[test]
fn stats_and_metrics_agree_on_every_row_they_share() {
    let svc = svc_with(Duration::from_secs(10));
    for line in [
        "QUERY fig3 3 4",
        "QUERY fig3 3 4",
        "QUERY fig3 3 2",
        "BATCH fig3 4 2 ; fig3 4 1",
        "OPEN fig3 3",
        "NEXT 1 2",
        "CLOSE 1",
        "QUERY fig3 2 3 backward",
    ] {
        let reply = handle_line(&svc, line);
        assert!(reply.starts_with("OK"), "{line} -> {reply}");
    }
    let stats = handle_line(&svc, "STATS");
    let head = stats.lines().next().unwrap();
    let stats: HashMap<&str, &str> = head
        .split_whitespace()
        .skip(1)
        .map(|kv| kv.split_once('=').unwrap())
        .collect();
    let metrics = handle_line(&svc, "METRICS");
    let metrics: HashMap<&str, &str> = metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    let mut pairs = Vec::new();
    for row in TABLE {
        match (row.kind, row.stats, row.metric) {
            (Kind::PerAlgorithm, _, Some(name)) => {
                for algo in Algorithm::ALL {
                    pairs.push((algo.name(), format!("{name}{{algorithm=\"{algo}\"}}")));
                }
            }
            (_, Some(key), Some(name)) => pairs.push((key, name.to_string())),
            _ => {}
        }
    }
    assert!(pairs.len() > 20, "{pairs:?}");
    for (key, series) in &pairs {
        let from_stats = stats
            .get(key)
            .unwrap_or_else(|| panic!("STATS lacks {key}: {head}"));
        let from_metrics = metrics
            .get(series.as_str())
            .unwrap_or_else(|| panic!("METRICS lacks {series}"));
        assert_eq!(from_stats, from_metrics, "{key} vs {series}");
    }
    // the traffic moved every row it drives, so the equalities above
    // are not all 0 == 0
    let moved = "queries hits misses prefix_served batches sessions_opened sessions_closed \
                 streamed backward cached_entries";
    for key in moved.split_whitespace() {
        assert_ne!(stats[key], "0", "{key} did not move: {head}");
    }
}
