//! The workload inputs are a function of (workload, seed, seconds).

use servebench::inputs::{generate, Workload};
use servebench::reference::Reference;
use servebench::stats::quantile;

fn text(workload: Workload, seed: u64) -> String {
    generate(workload, seed, 4.0, &mut Reference::default()).to_text()
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for workload in Workload::ALL {
        let first = text(workload, 7);
        assert_eq!(
            first,
            text(workload, 7),
            "{} is not deterministic",
            workload.name()
        );
        assert_ne!(
            first,
            text(workload, 8),
            "{} ignores its seed",
            workload.name()
        );
    }
}

#[test]
fn quantiles_use_nearest_rank() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&v, 0.5), 3.0);
    assert_eq!(quantile(&v, 0.9), 5.0);
    assert_eq!(quantile(&v, 0.0), 1.0);
    assert_eq!(quantile(&[], 0.5), 0.0);
}
