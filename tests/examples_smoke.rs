//! Keeps the examples honest: every example must compile, and the
//! examples exercised in the docs (`quickstart`, `progressive_stream`,
//! `service_demo`, `semi_external_demo`) must run to completion. Without
//! this harness an API change can silently rot `examples/` because
//! `cargo test` alone never builds them.

use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    // Respect the exact cargo that invoked the test run (set by cargo for
    // all child processes), falling back to PATH lookup.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")));
    cmd
}

/// Runs `cargo <args>`, asserts success and returns its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = cargo().args(args).output().expect("cargo spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "`cargo {}` failed:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        args.join(" "),
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn all_examples_compile() {
    run_ok(&["build", "--examples", "--quiet"]);
}

#[test]
fn quickstart_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "quickstart"]);
}

#[test]
fn service_demo_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "service_demo"]);
}

#[test]
fn dynamic_updates_runs_to_completion() {
    run_ok(&["run", "--quiet", "--example", "dynamic_updates"]);
}

#[test]
fn progressive_stream_runs_to_completion() {
    // Release profile: the example synthesizes a scale-15 R-MAT graph and
    // runs PageRank over it, which is needlessly slow unoptimized.
    run_ok(&[
        "run",
        "--release",
        "--quiet",
        "--example",
        "progressive_stream",
    ]);
}

#[test]
fn semi_external_demo_runs_to_completion() {
    // Release profile, like progressive_stream: OnlineAll-SE over a
    // 30k-vertex graph. The example itself asserts that LocalSearch-SE
    // and OnlineAll-SE give the same answers; OnlineAll-SE must read the
    // whole adjacency section.
    let out = run_ok(&[
        "run",
        "--release",
        "--quiet",
        "--example",
        "semi_external_demo",
    ]);
    let oa = out
        .lines()
        .find(|l| l.trim_start().starts_with("OnlineAll-SE:"))
        .unwrap_or_else(|| panic!("no OnlineAll-SE row in:\n{out}"));
    assert!(oa.contains("(100.00% of file)"), "{oa}");
}
