//! Figure 16: semi-external LocalSearch-SE vs OnlineAll-SE (I/O included).

use criterion::{criterion_group, criterion_main, Criterion};
use ic_bench::{dataset, Scale};
use ic_core::semi_external::{local_search_se_top_k, online_all_se_top_k};
use ic_graph::{save_icsr, FileCsr};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    let dir = std::env::temp_dir().join("ic_bench_se");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for name in ["email", "youtube"] {
        let g = dataset(name, Scale::Small);
        let path = dir.join(format!("{name}.icsr"));
        save_icsr(g, &path).expect("spill");
        let dg = FileCsr::open(&path).expect("open spill");
        group.bench_function(format!("local_search_se/{name}/k10"), |b| {
            b.iter(|| local_search_se_top_k(&dg, 10, 10).expect("LS-SE"))
        });
        group.bench_function(format!("online_all_se/{name}/k10"), |b| {
            b.iter(|| online_all_se_top_k(&dg, 10, 10).expect("OA-SE"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
