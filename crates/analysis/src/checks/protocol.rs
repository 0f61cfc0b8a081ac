//! IC-PROTO: the protocol surface stays in sync, extracted — never
//! hand-listed — from the live dispatcher.
//!
//! The verb set is parsed out of the `fn dispatch` match in
//! `crates/service/src/protocol.rs` (top-level `"VERB" => ...` arms
//! only; nested sub-action matches like `UPDATE`'s `ADD`/`DEL` belong
//! to their verb). Every dispatched verb must then appear:
//!
//! 1. in a README protocol-table row (a line starting with `|`),
//! 2. somewhere in the `tests/protocol_robustness.rs` hostile corpus,
//! 3. for verbs with observable side effects, as a row of the counter
//!    table in `crates/service/src/stats.rs` (see `COUNTER_EVIDENCE`),
//!    the one table `STATS` and `METRICS` are rendered from.
//!
//! Adding a verb to the dispatcher without touching the docs, the
//! fuzz corpus, or the stats surface is exactly the drift this check
//! exists to stop.

use crate::checks::IC_PROTO;
use crate::source::{contains_token, SourceFile};
use crate::Finding;

/// Path of the dispatcher the verb set is extracted from.
const PROTOCOL_RS: &str = "crates/service/src/protocol.rs";
/// Path of the protocol documentation table.
const README: &str = "README.md";
/// Path of the hostile-input corpus.
const ROBUSTNESS: &str = "tests/protocol_robustness.rs";
/// Path of the counter table.
const STATS_RS: &str = "crates/service/src/stats.rs";

/// Verbs whose handling must be visible in a counter: the `METRICS`
/// name on the right must be a row of the counter table. Verbs not
/// listed are surfaces or one-shot commands with no meaningful counter.
const COUNTER_EVIDENCE: &[(&str, &str)] = &[
    ("QUERY", "ic_queries_total"),
    ("BATCH", "ic_batches_total"),
    ("OPEN", "ic_sessions_opened_total"),
    ("NEXT", "ic_communities_streamed_total"),
    ("CLOSE", "ic_sessions_closed_total"),
    ("SLOWLOG", "ic_slow_queries_total"),
];

pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let Some(proto) = files.iter().find(|f| f.rel() == PROTOCOL_RS) else {
        return Vec::new(); // not in scope for this input set (fixtures)
    };
    let mut out = Vec::new();
    let verbs = dispatch_verbs(proto);
    if verbs.is_empty() {
        out.push(Finding {
            check: IC_PROTO,
            file: PROTOCOL_RS.to_string(),
            line: 1,
            message: "could not extract any verb arms from fn dispatch".to_string(),
        });
        return out;
    }
    let readme = files.iter().find(|f| f.rel() == README);
    let corpus = files.iter().find(|f| f.rel() == ROBUSTNESS);
    let metric_names = files
        .iter()
        .find(|f| f.rel() == STATS_RS)
        .map(table_metric_names)
        .unwrap_or_default();
    for (verb, line) in &verbs {
        match readme {
            None => out.push(missing(verb, *line, "README.md is missing from the scan")),
            Some(r) => {
                let documented = r
                    .lines()
                    .any(|l| l.raw.trim_start().starts_with('|') && contains_token(l.raw, verb));
                if !documented {
                    out.push(missing(
                        verb,
                        *line,
                        "no README protocol-table row mentions it",
                    ));
                }
            }
        }
        match corpus {
            None => out.push(missing(
                verb,
                *line,
                "tests/protocol_robustness.rs is missing from the scan",
            )),
            Some(c) => {
                if !c.lines().any(|l| contains_token(l.raw, verb)) {
                    out.push(missing(
                        verb,
                        *line,
                        "the protocol_robustness hostile corpus never exercises it",
                    ));
                }
            }
        }
        if let Some((_, name)) = COUNTER_EVIDENCE.iter().find(|(v, _)| v == verb) {
            if !metric_names.contains(name) {
                out.push(missing(
                    verb,
                    *line,
                    &format!("its counter {name} is not a row of the counter table in {STATS_RS}"),
                ));
            }
        }
    }
    out
}

fn missing(verb: &str, line: usize, why: &str) -> Finding {
    Finding {
        check: IC_PROTO,
        file: PROTOCOL_RS.to_string(),
        line,
        message: format!("verb {verb} is dispatched but {why}"),
    }
}

/// The `METRICS` names of the counter table's rows: each row starts on
/// a line `Variant: <STATS key>, Some("<METRICS name>"), ...`.
fn table_metric_names(stats: &SourceFile) -> Vec<&str> {
    fn row(raw: &str) -> Option<&str> {
        let (variant, fields) = raw.trim().split_once(": ")?;
        let (_stats_key, fields) = fields.split_once(", ")?;
        let (name, _) = fields.strip_prefix("Some(\"")?.split_once("\")")?;
        variant
            .chars()
            .all(|c| c.is_ascii_alphanumeric())
            .then_some(name)
    }
    stats
        .lines()
        .filter(|l| !l.in_test)
        .filter_map(|l| row(l.raw))
        .collect()
}

/// Extracts `(verb, line)` pairs from the top-level match arms of
/// `fn dispatch`, delimited by brace depth so nested matches inside
/// other functions (or inside an arm's body) don't contribute.
fn dispatch_verbs(proto: &SourceFile) -> Vec<(String, usize)> {
    let mut verbs: Vec<(String, usize)> = Vec::new();
    let mut in_dispatch = false;
    let mut depth: i64 = 0;
    let mut arm_depth: Option<i64> = None;
    for line in proto.lines() {
        if line.in_test {
            continue;
        }
        if !in_dispatch {
            if line.code.contains("fn dispatch") {
                in_dispatch = true;
                depth = 0;
            } else {
                continue;
            }
        }
        let trimmed_raw = line.raw.trim_start();
        if trimmed_raw.starts_with('"') && line.code.contains("=>") {
            // Only arms of the *outermost* match inside dispatch: the
            // first arm fixes the depth all verb arms share.
            let at_depth = depth;
            if *arm_depth.get_or_insert(at_depth) == at_depth {
                if let Some(verb) = quoted_verb(trimmed_raw) {
                    if !verbs.iter().any(|(v, _)| *v == verb) {
                        verbs.push((verb, line.number));
                    }
                }
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth <= 0 {
                        return verbs; // fn dispatch closed
                    }
                }
                _ => {}
            }
        }
    }
    verbs
}

/// `"VERB ..." => ...` → `VERB` (first word of the first quoted string,
/// if it is ALL-CAPS).
fn quoted_verb(trimmed_raw: &str) -> Option<String> {
    let rest = trimmed_raw.strip_prefix('"')?;
    let end = rest.find('"')?;
    let word = rest[..end].split_whitespace().next()?;
    if !word.is_empty()
        && word
            .chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        Some(word.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DISPATCH: &str = r#"
pub fn dispatch(line: &str) -> String {
    match verb {
        "HELP" => help(),
        "QUERY" => {
            run_query()
        }
        "UPDATE" => {
            match action {
                "ADD" => add(),
                "DEL" => del(),
            }
        }
        other => unknown(other),
    }
}
"#;

    const QUERIES_ROW: &str =
        "counter_table! {\n    Queries: Some(\"queries\"), Some(\"ic_queries_total\"), Counter,\n        \"Queries answered.\";\n}\n";

    fn proto_file() -> SourceFile {
        SourceFile::new(PROTOCOL_RS, DISPATCH)
    }

    #[test]
    fn extracts_top_level_verbs_only() {
        let verbs: Vec<String> = dispatch_verbs(&proto_file())
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(verbs, vec!["HELP", "QUERY", "UPDATE"]);
    }

    #[test]
    fn clean_surfaces_produce_no_findings() {
        let files = vec![
            proto_file(),
            SourceFile::new(
                README,
                "| `HELP` | help |\n| `QUERY g` | query |\n| `UPDATE g ADD` | update |\n",
            ),
            SourceFile::new(
                ROBUSTNESS,
                "let verbs = [\"HELP\", \"QUERY x\", \"UPDATE g\"];\n",
            ),
            SourceFile::new(STATS_RS, QUERIES_ROW),
        ];
        let f = run(&files);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_readme_row_and_corpus_fire() {
        let files = vec![
            proto_file(),
            SourceFile::new(README, "| `HELP` | help |\n| `UPDATE g` | update |\n"),
            SourceFile::new(ROBUSTNESS, "let verbs = [\"HELP\", \"UPDATE\"];\n"),
            SourceFile::new(STATS_RS, QUERIES_ROW),
        ];
        let f = run(&files);
        let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(f.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("QUERY")), "{msgs:?}");
    }

    #[test]
    fn missing_counter_evidence_fires() {
        let covered = |stats: &str| {
            vec![
                proto_file(),
                SourceFile::new(
                    README,
                    "| `HELP` | x |\n| `QUERY` | x |\n| `UPDATE` | x |\n",
                ),
                SourceFile::new(ROBUSTNESS, "[\"HELP\", \"QUERY\", \"UPDATE\"]\n"),
                SourceFile::new(STATS_RS, stats),
            ]
        };
        // the counter's name anywhere but in a table row is no evidence
        for stats in [
            "",
            "// ic_queries_total\nconst S: &str = \"ic_queries_total\";\n",
            "    Queries: Some(\"ic_queries_total\"), None, Counter,\n",
        ] {
            let f = run(&covered(stats));
            assert_eq!(f.len(), 1, "{stats:?}: {f:?}");
            assert!(f[0].message.contains("counter table"), "{}", f[0].message);
        }
        assert!(run(&covered(QUERIES_ROW)).is_empty());
    }
}
