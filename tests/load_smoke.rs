//! CI smoke-load: generate a small deterministic trace, boot the real
//! service on an ephemeral port, and replay the trace open-loop at two
//! target rates. The bar is correctness, not throughput — every event
//! must complete with zero protocol and zero I/O errors, which
//! exercises the full request mix (cold/cached/batch/session/update)
//! against the live TCP stack.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use influential_communities::load::{generate, replay, ReplayOptions, WorkloadSpec};
use influential_communities::service::{
    serve_with, Counter, ServerOptions, Service, ServiceConfig,
};

fn boot(workers: usize) -> (String, Arc<Service>) {
    let svc = Service::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let accept_svc = Arc::clone(&svc);
    std::thread::spawn(move || {
        let _ = serve_with(
            &listener,
            accept_svc,
            ServerOptions {
                idle_timeout: Some(Duration::from_secs(10)),
            },
        );
    });
    (addr, svc)
}

#[test]
fn smoke_load_replays_cleanly_at_two_rates() {
    let spec = WorkloadSpec {
        seed: 7,
        qps: 150.0,
        duration_s: 1.0,
        ..WorkloadSpec::default()
    };
    let trace = generate(&spec);
    assert!(!trace.events.is_empty(), "workload produced no events");

    let (addr, svc) = boot(2);

    for target in [150.0, 300.0] {
        let opts = ReplayOptions {
            addr: addr.clone(),
            connections: 3,
            target_qps: target,
        };
        let report = replay(&trace, &opts).expect("replay runs");
        assert_eq!(
            report.sent,
            trace.events.len() as u64,
            "every event attempted at target {target}"
        );
        assert_eq!(
            report.protocol_errors, 0,
            "no ERR replies at target {target}"
        );
        assert_eq!(report.io_errors, 0, "no dropped events at target {target}");
        assert_eq!(report.ok, report.sent, "all events completed OK");
        let class_total: u64 = report.classes.iter().map(|c| c.count).sum();
        assert_eq!(class_total, report.ok, "per-class counts add up");
        assert!(report.p99_us > 0.0, "latency was actually measured");
    }

    // The replay drove real queries through the service, not a stub.
    let stats = svc.stats();
    assert!(stats[Counter::Queries] > 0, "service saw queries");
    assert_eq!(
        stats[Counter::AcceptErrors],
        0,
        "clean run had no accept errors"
    );
}
