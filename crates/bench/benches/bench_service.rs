//! Serving-layer throughput: queries/sec through the full service stack
//! (planner + pool + cache) — cold (cache defeated by re-registration)
//! vs cached, a fixed 64-query mixed workload fanned out over
//! 1 / 2 / 4 worker threads, and the whole protocol reply of a cached
//! answer (`reply_cached_k64`, about 230 KB of wire text).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ic_bench::{dataset, Scale};
use ic_service::{protocol, Query, Service, ServiceConfig};
use std::time::Duration;

fn service_with(workers: usize) -> std::sync::Arc<Service> {
    let svc = Service::new(ServiceConfig {
        workers,
        cache_capacity: 512,
        cache_shards: 8,
        ..ServiceConfig::default()
    });
    svc.register("email", dataset("email", Scale::Small).clone());
    svc.register("wiki", dataset("wiki", Scale::Small).clone());
    svc
}

/// The mixed workload: 64 queries cycling over two graphs, three γ, and
/// four k values (32 distinct keys, so each repeats once per pass).
fn workload() -> Vec<Query> {
    let graphs = ["email", "wiki"];
    let gammas = [4u32, 8, 12];
    let ks = [1usize, 8, 32, 128];
    (0..64)
        .map(|i| Query::new(graphs[i % 2], gammas[i % 3], ks[i % 4]))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(300));

    // cold vs cached: the same query with the cache emptied vs primed
    let svc = service_with(4);
    group.bench_function("query_cold_k32", |b| {
        b.iter(|| {
            svc.clear_cache();
            black_box(svc.query(Query::new("email", 8, 32)).unwrap())
        })
    });
    let _ = svc.query(Query::new("email", 8, 32)).unwrap(); // prime
    group.bench_function("query_cached_k32", |b| {
        b.iter(|| black_box(svc.query(Query::new("email", 8, 32)).unwrap()))
    });

    // a cached answer's reply: cache probe plus the `C` block of 64
    // communities on a G(n = 2000, m = 8000) graph
    let _ = protocol::handle_line(&svc, "GEN g gnm 2000 8000 1");
    let _ = protocol::handle_line(&svc, "QUERY g 4 64"); // prime
    group.bench_function("reply_cached_k64", |b| {
        b.iter(|| black_box(protocol::handle_line(&svc, "QUERY g 4 64")))
    });

    // mixed 64-query workload, issued from the bench thread, executed by
    // 1 / 2 / 4 pool workers (cache cleared between iterations so the
    // workload always mixes 32 misses + 32 hits)
    for workers in [1usize, 2, 4] {
        let svc = service_with(workers);
        let queries = workload();
        group.bench_function(format!("mixed64_workers{workers}"), |b| {
            b.iter(|| {
                svc.clear_cache();
                let pending: Vec<_> = queries.iter().map(|q| svc.query_async(q.clone())).collect();
                for rx in pending {
                    black_box(rx.recv().unwrap().unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
