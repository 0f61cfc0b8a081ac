//! Fixture-driven check tests: for every check, one known-bad snippet
//! under `fixtures/` must fire and one near-miss must stay silent.
//!
//! Fixtures are scanned under synthetic serving/write-path names, so the
//! scope rules (`crates/service/src/...`) apply exactly as they do to
//! the live tree. The fixture files themselves are never compiled.

use ic_analysis::allowlist::Allowlist;
use ic_analysis::checks;
use ic_analysis::source::SourceFile;
use ic_analysis::{Finding, Workspace};

const PANIC_FIRES: &str = include_str!("fixtures/ic_panic_fires.rs");
const PANIC_CLEAN: &str = include_str!("fixtures/ic_panic_clean.rs");
const LOCK_FIRES: &str = include_str!("fixtures/ic_lock_fires.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/ic_lock_clean.rs");
const RESULT_FIRES: &str = include_str!("fixtures/ic_result_fires.rs");
const RESULT_CLEAN: &str = include_str!("fixtures/ic_result_clean.rs");
const PROTO_DISPATCH: &str = include_str!("fixtures/ic_proto_dispatch.rs");
const PROTO_README: &str = include_str!("fixtures/ic_proto_readme.md");
const PROTO_CORPUS: &str = include_str!("fixtures/ic_proto_corpus.rs");
const ALGO_QUERY: &str = include_str!("fixtures/ic_algo_query.rs");
const ALGO_CONSISTENCY: &str = include_str!("fixtures/ic_algo_consistency.rs");

/// Scans one fixture under a serving-path name and returns the findings
/// of a single check.
fn scan(rel: &str, source: &str, check: &str) -> Vec<Finding> {
    let files = vec![SourceFile::new(rel, source)];
    checks::run_all(&files)
        .into_iter()
        .filter(|f| f.check == check)
        .collect()
}

fn fire_lines(findings: &[Finding]) -> Vec<usize> {
    let mut lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Every fixture line tagged `// FIRE` must be reported; no other line
/// may be.
fn assert_fires_exactly_marked(rel: &str, source: &str, check: &str) {
    let marked: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// FIRE"))
        .map(|(i, _)| i + 1)
        .collect();
    assert!(!marked.is_empty(), "fixture {rel} has no // FIRE markers");
    let found = fire_lines(&scan(rel, source, check));
    assert_eq!(
        found, marked,
        "{check} on {rel}: findings (left) vs // FIRE markers (right)"
    );
}

#[test]
fn panic_fixture_fires_on_every_marked_line() {
    assert_fires_exactly_marked(
        "crates/service/src/fixture.rs",
        PANIC_FIRES,
        checks::IC_PANIC,
    );
}

#[test]
fn panic_near_misses_stay_silent() {
    let f = scan(
        "crates/service/src/fixture.rs",
        PANIC_CLEAN,
        checks::IC_PANIC,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_check_is_scoped_to_serving_paths() {
    // the same bad code outside the serving scope is none of IC-PANIC's
    // business (clippy and review own it there)
    let f = scan("crates/core/src/fixture.rs", PANIC_FIRES, checks::IC_PANIC);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_fixture_fires_on_every_marked_line() {
    assert_fires_exactly_marked("crates/service/src/fixture.rs", LOCK_FIRES, checks::IC_LOCK);
}

#[test]
fn lock_near_misses_stay_silent() {
    let f = scan("crates/service/src/fixture.rs", LOCK_CLEAN, checks::IC_LOCK);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn result_fixture_fires_on_every_marked_line() {
    assert_fires_exactly_marked(
        "crates/service/src/fixture.rs",
        RESULT_FIRES,
        checks::IC_RESULT,
    );
}

#[test]
fn result_near_misses_stay_silent() {
    let f = scan(
        "crates/service/src/fixture.rs",
        RESULT_CLEAN,
        checks::IC_RESULT,
    );
    assert!(f.is_empty(), "{f:?}");
}

/// The counter-table row that is the QUERY verb's counter evidence.
const QUERIES_ROW: &str = "counter_table! {\n    Queries: Some(\"queries\"), Some(\"ic_queries_total\"), Counter,\n        \"Queries answered.\";\n}\n";

fn proto_files(readme: &str, corpus: &str, stats: &str) -> Vec<SourceFile> {
    vec![
        SourceFile::new("crates/service/src/protocol.rs", PROTO_DISPATCH),
        SourceFile::new("README.md", readme),
        SourceFile::new("tests/protocol_robustness.rs", corpus),
        SourceFile::new("crates/service/src/stats.rs", stats),
    ]
}

#[test]
fn proto_fixture_reports_the_uncovered_verb_twice() {
    let f: Vec<Finding> = checks::run_all(&proto_files(PROTO_README, PROTO_CORPUS, QUERIES_ROW))
        .into_iter()
        .filter(|f| f.check == checks::IC_PROTO)
        .collect();
    // PING is dispatched but neither documented nor fuzzed; the nested
    // "FAST" arm must not be mistaken for a verb
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("PING")), "{f:?}");
    assert!(f.iter().any(|x| x.message.contains("README")), "{f:?}");
    assert!(f.iter().any(|x| x.message.contains("robustness")), "{f:?}");
}

#[test]
fn proto_near_miss_full_coverage_is_silent() {
    // add the missing row + corpus line: the same dispatcher goes clean
    let readme = format!("{PROTO_README}| `PING` | liveness probe |\n");
    let corpus = format!("{PROTO_CORPUS}const MORE: &str = \"PING\";\n");
    let f: Vec<Finding> = checks::run_all(&proto_files(&readme, &corpus, QUERIES_ROW))
        .into_iter()
        .filter(|f| f.check == checks::IC_PROTO)
        .collect();
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn proto_fixture_reports_a_verb_whose_counter_row_is_missing() {
    // documented and fuzzed everywhere, but the table lost QUERY's row:
    // the counter's name elsewhere in the file is not evidence
    let readme = format!("{PROTO_README}| `PING` | liveness probe |\n");
    let corpus = format!("{PROTO_CORPUS}const MORE: &str = \"PING\";\n");
    let stats = "// counts ic_queries_total\nconst NAME: &str = \"ic_queries_total\";\n";
    let f: Vec<Finding> = checks::run_all(&proto_files(&readme, &corpus, stats))
        .into_iter()
        .filter(|f| f.check == checks::IC_PROTO)
        .collect();
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].message.contains("QUERY"), "{f:?}");
    assert!(f[0].message.contains("counter table"), "{f:?}");
}

fn algo_files(consistency: &str) -> Vec<SourceFile> {
    vec![
        SourceFile::new("crates/core/src/query.rs", ALGO_QUERY),
        SourceFile::new("tests/consistency.rs", consistency),
        SourceFile::new(
            "crates/service/src/stats.rs",
            "const N: usize = Algorithm::ALL.len();\n",
        ),
    ]
}

#[test]
fn algo_fixture_reports_the_unwired_variant() {
    let f: Vec<Finding> = checks::run_all(&algo_files(ALGO_CONSISTENCY))
        .into_iter()
        .filter(|f| f.check == checks::IC_ALGO)
        .collect();
    // Hybrid: missing from ALL, no executor, not in the suite
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("Hybrid")), "{f:?}");
}

#[test]
fn algo_near_miss_fully_wired_is_silent() {
    // wire Hybrid everywhere: same files, zero findings
    let query = ALGO_QUERY
        .replace(
            "pub const ALL: [AlgorithmId; 2] = [AlgorithmId::LocalSearch, AlgorithmId::Progressive];",
            "pub const ALL: [AlgorithmId; 3] =\n        [AlgorithmId::LocalSearch, AlgorithmId::Progressive, AlgorithmId::Hybrid];",
        )
        .replace(
            "AlgorithmId::Hybrid => todo!(),",
            "AlgorithmId::Hybrid => &exec::Hybrid,",
        );
    let consistency = format!("{ALGO_CONSISTENCY}    check(AlgorithmId::Hybrid);\n");
    let files = vec![
        SourceFile::new("crates/core/src/query.rs", &query),
        SourceFile::new("tests/consistency.rs", &consistency),
        SourceFile::new(
            "crates/service/src/stats.rs",
            "const N: usize = Algorithm::ALL.len();\n",
        ),
    ];
    let f: Vec<Finding> = checks::run_all(&files)
        .into_iter()
        .filter(|f| f.check == checks::IC_ALGO)
        .collect();
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn suppression_requires_marker_and_allowlist_entry_together() {
    let bad = "pub fn f(x: Option<u32>) -> u32 {\n    // lint:allow(IC-PANIC): fixture reason\n    x.unwrap()\n}\n";
    let rel = "crates/service/src/fixture.rs";
    // marker alone: still a finding
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, bad)],
        Allowlist::parse("lint-allow.toml", "").unwrap(),
    );
    assert_eq!(ws.run().findings.len(), 1);
    // marker + matching justified entry: suppressed and counted
    let allow = r#"
[[allow]]
check = "IC-PANIC"
file = "crates/service/src/fixture.rs"
context = "x.unwrap()"
justification = "fixture"
"#;
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, bad)],
        Allowlist::parse("lint-allow.toml", allow).unwrap(),
    );
    let report = ws.run();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
    // entry alone (no marker): still a finding
    let unmarked = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let ws = Workspace::from_files(
        vec![SourceFile::new(rel, unmarked)],
        Allowlist::parse("lint-allow.toml", allow).unwrap(),
    );
    let report = ws.run();
    // the unwrap finding survives, and the entry is reported stale
    assert!(
        report.findings.iter().any(|f| f.check == checks::IC_PANIC),
        "{:?}",
        report.findings
    );
    assert!(
        report.findings.iter().any(|f| f.check == checks::IC_ALLOW),
        "{:?}",
        report.findings
    );
}
