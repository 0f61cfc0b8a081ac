//! The line-oriented text protocol spoken by the `serve` binary.
//!
//! One request per line; one reply per request. Replies are a single
//! `OK …` / `ERR …` line, except community-bearing replies (`QUERY`,
//! `NEXT`), which follow the `OK` line with one `C` line per community
//! and a final `END` line. Vertices are printed as the caller's external
//! ids. The full verb set:
//!
//! ```text
//! LOAD <name> <path>                     register a graph file (ICG1 or text)
//! LOADX <name> <path.icsr> [budget]      register a file-backed `.icsr` store
//!                                        (vertex data resident under the
//!                                        optional byte budget, edges on disk;
//!                                        queries dispatch to the
//!                                        semi-external executors)
//! SAVE <name> <path>                     write a memory-resident graph as a
//!                                        `.icsr` file for LOADX
//! GEN <name> gnm <n> <m> <seed>          register synthetic G(n,m)
//! GEN <name> ba <n> <d> <seed>           register synthetic Barabási–Albert
//! GEN <name> rmat <scale> <ef> <seed>    register synthetic R-MAT
//! GRAPHS                                 list registered graphs
//! QUERY <graph> <gamma> <k> [mode]       top-k (mode: auto, local_search,
//!                                        progressive, forward, online_all,
//!                                        backward, naive, truss)
//! EXPLAIN ANALYZE <graph> <gamma> <k> [mode]
//!                                        run the query through the pool and
//!                                        report the plan next to *measured*
//!                                        per-stage nanoseconds (queue, plan,
//!                                        cache, execute, serialize) and the
//!                                        execution's I/O delta
//! BATCH <g> <gamma> <k> [mode] ; ...     many queries in one request;
//!                                        ';'-separated, grouped by
//!                                        (graph, γ, family) and answered
//!                                        with one search per group
//! EXPLAIN <graph> <gamma> <k> [mode]     plan only, with the reason
//! UPDATE <graph> ADD <u> <v> [w]         buffer an edge insert (w creates
//!                                        missing endpoints with that weight)
//! UPDATE <graph> DEL <u> <v>             buffer an edge delete
//! UPDATE <graph> ADDV <v> <w>            buffer a vertex add
//! UPDATE <graph> DELV <v>                buffer a vertex remove
//! UPDATE <graph> REWEIGHT <v> <w>        buffer an influence change
//! COMMIT <graph>                         fold pending updates into a fresh
//!                                        snapshot (bumps the generation)
//! OPEN <graph> <gamma>                   open a progressive session
//! NEXT <session> [n]                     pull up to n communities (default 1);
//!                                        the reply's done=0|1 reports stream
//!                                        exhaustion from the iterator itself
//!                                        (an empty batch with done=0 just
//!                                        means n was 0)
//! CLOSE <session>                        close a session
//! STATS                                  the counter table's keys, then one
//!                                        `S` row per registered store with
//!                                        its cumulative I/O, then `END`
//! METRICS                                full Prometheus text exposition
//!                                        (same body the --metrics-addr
//!                                        scrape endpoint serves), then `END`
//! SLOWLOG [n]                            the n most recent slow queries
//!                                        (default 10), newest first, one `L`
//!                                        row each with the per-stage trace
//! HELP                                   this listing
//! QUIT                                   close the connection
//! ```
//!
//! Updates apply to a per-graph overlay and become visible to queries
//! atomically at `COMMIT`, which re-registers the compacted snapshot
//! under a new generation (invalidating cached results by construction).
//!
//! [`handle_line`] is a pure request → reply function over an
//! [`Arc<Service>`]; the TCP front-end ([`crate::server`]) and the
//! in-process `service_demo` example share it, so the protocol is tested
//! without sockets.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use ic_core::Community;
use ic_dynamic::UpdateOp;
use ic_graph::GraphStore;

use crate::error::ServiceError;
use crate::planner::{parse_mode, Mode, Query};
use crate::service::{QueryResponse, Service, SyntheticSpec};

/// Help text returned by `HELP` (and useful as a banner).
pub const HELP: &str = "commands: LOAD <name> <path> | LOADX <name> <path.icsr> [budget] | \
SAVE <name> <path> | GEN <name> gnm|ba|rmat <args> <seed> | \
GRAPHS | QUERY <graph> <gamma> <k> [mode] | \
BATCH <graph> <gamma> <k> [mode] ; <graph> <gamma> <k> [mode] ; ... | \
EXPLAIN <graph> <gamma> <k> [mode] | EXPLAIN ANALYZE <graph> <gamma> <k> [mode] | \
UPDATE <graph> ADD|DEL <u> <v> [w] | UPDATE <graph> ADDV|DELV|REWEIGHT <v> [w] | \
COMMIT <graph> | OPEN <graph> <gamma> | NEXT <session> [n] | CLOSE <session> | \
STATS | METRICS | SLOWLOG [n] | HELP | QUIT";

/// Hard cap on sub-queries in one `BATCH` line. A request line is
/// already size-capped by the server; this bounds the *work* one line
/// can demand (each sub-query is a potential search).
pub const MAX_BATCH: usize = 256;

/// Handles one request line, returning the full (possibly multi-line)
/// reply without a trailing newline. Empty and `#`-comment lines get an
/// empty reply. `QUIT` is connection-level and handled by the caller.
/// Sessions opened here stay open until a `CLOSE`.
pub fn handle_line(svc: &Arc<Service>, line: &str) -> String {
    handle_owned_line(svc, line, &mut Vec::new())
}

/// [`handle_line`] for a caller that owns the sessions it opens: `OPEN`
/// pushes the new id to `sessions` and `CLOSE` removes it, so the
/// caller can close the rest when it goes away.
pub(crate) fn handle_owned_line(svc: &Arc<Service>, line: &str, sessions: &mut Vec<u64>) -> String {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return String::new();
    }
    match dispatch(svc, line, sessions) {
        Ok(reply) => reply,
        Err(e) => format!("ERR {e}"),
    }
}

fn dispatch(
    svc: &Arc<Service>,
    line: &str,
    sessions: &mut Vec<u64>,
) -> Result<String, ServiceError> {
    let mut parts = line.split_ascii_whitespace();
    // handle_line trims before dispatching, but parsing must not lean on
    // its caller: an empty line is simply an empty reply.
    let Some(verb_token) = parts.next() else {
        return Ok(String::new());
    };
    let verb = verb_token.to_ascii_uppercase();
    let args: Vec<&str> = parts.collect();
    match verb.as_str() {
        "HELP" => Ok(format!("OK {HELP}")),
        "LOAD" => {
            let [name, path] = expect_args::<2>(&verb, &args)?;
            let entry = svc.load_path(name, path)?;
            Ok(graph_line(
                &entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
            ))
        }
        "LOADX" => {
            let (name, path, budget) = match *args.as_slice() {
                [name, path] => (name, path, None),
                [name, path, b] => (name, path, Some(parse_num::<u64>("budget_bytes", b)?)),
                _ => return Err(usage(&verb, "LOADX <name> <path.icsr> [budget_bytes]")),
            };
            let entry = svc.register_file(name, path, budget)?;
            Ok(format!(
                "OK graph={} n={} m={} gamma_max={} storage={}",
                entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
                entry.storage(),
            ))
        }
        "SAVE" => {
            let [name, path] = expect_args::<2>(&verb, &args)?;
            svc.save_store(name, path)?;
            Ok(format!("OK saved={name} path={path}"))
        }
        "GEN" => {
            let [name, kind, a, b, seed] = expect_args::<5>(&verb, &args)?;
            let seed = parse_num::<u64>("seed", seed)?;
            let spec = match kind.to_ascii_lowercase().as_str() {
                "gnm" => SyntheticSpec::Gnm {
                    n: parse_num("n", a)?,
                    m: parse_num("m", b)?,
                    seed,
                },
                "ba" => SyntheticSpec::BarabasiAlbert {
                    n: parse_num("n", a)?,
                    d: parse_num("d", b)?,
                    seed,
                },
                "rmat" => SyntheticSpec::Rmat {
                    scale: parse_num("scale", a)?,
                    edge_factor: parse_num("edge_factor", b)?,
                    seed,
                },
                other => {
                    return Err(ServiceError::InvalidQuery(format!(
                        "unknown generator {other:?} (expected gnm, ba, rmat)"
                    )))
                }
            };
            check_synthetic(&spec)?;
            let entry = svc.register_synthetic(name, spec);
            Ok(graph_line(
                &entry.name,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max,
            ))
        }
        "GRAPHS" => {
            let graphs = svc.graphs();
            let mut out = format!("OK count={}", graphs.len());
            for g in graphs {
                out.push_str(&format!(
                    "\nG name={} n={} m={} gamma_max={}",
                    g.name, g.stats.n, g.stats.m, g.stats.gamma_max
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "QUERY" => {
            let query = parse_query(&verb, &args)?;
            let resp = svc.query(query)?;
            Ok(query_reply(&resp))
        }
        // the raw tail (not the token list): sub-queries separate on ';'
        // however the client spaces them
        "BATCH" => handle_batch(svc, &line[verb_token.len()..]),
        "EXPLAIN" => {
            // `EXPLAIN ANALYZE …` runs the query and reports measured
            // stage timings next to the plan; plain `EXPLAIN` stays
            // plan-only.
            if args
                .first()
                .is_some_and(|a| a.eq_ignore_ascii_case("ANALYZE"))
            {
                return handle_explain_analyze(svc, args.get(1..).unwrap_or_default());
            }
            let query = parse_query(&verb, &args)?;
            let e = svc.explain(&query)?;
            Ok(format!(
                "OK algo={} forced={} n={} m={} gamma_max={} stale_core={:.4} \
                 storage={} est_bytes={} reason={}",
                e.algorithm,
                e.forced,
                e.n,
                e.m,
                e.gamma_max,
                e.stale_core_fraction,
                e.storage,
                e.est_bytes,
                e.reason
            ))
        }
        "UPDATE" => {
            let (graph, op) = parse_update(&verb, &args)?;
            let st = svc.update(graph, op)?;
            Ok(format!(
                "OK graph={} pending={} stale_core={:.4} n={} m={} gamma_max={}",
                graph, st.pending, st.stale_core_fraction, st.n, st.m, st.gamma_max
            ))
        }
        "COMMIT" => {
            let [name] = expect_args::<1>(&verb, &args)?;
            let (entry, receipt) = svc.commit_updates(name)?;
            Ok(format!(
                "OK graph={} generation={} ops={} cores_visited={} n={} m={} gamma_max={}",
                entry.name,
                entry.generation,
                receipt.ops_applied,
                receipt.cores_visited,
                entry.stats.n,
                entry.stats.m,
                entry.stats.gamma_max
            ))
        }
        "OPEN" => {
            let [graph, gamma] = expect_args::<2>(&verb, &args)?;
            let gamma = parse_num::<u32>("gamma", gamma)?;
            let id = svc.open_session(graph, gamma)?;
            sessions.push(id);
            Ok(format!("OK session={id}"))
        }
        "NEXT" => {
            let (id_token, n_token) = match *args.as_slice() {
                [id] => (id, None),
                [id, n] => (id, Some(n)),
                _ => return Err(usage(&verb, "NEXT <session> [n]")),
            };
            let id = parse_num::<u64>("session", id_token)?;
            let n = match n_token {
                Some(s) => parse_num::<usize>("n", s)?,
                None => 1,
            };
            // Print through the instance the session actually streams
            // from — the name may have been re-registered to a different
            // graph mid-session, whose rank space would not match.
            let (instance, batch, done) = svc.session_pull(id, n)?;
            let g = GraphStore::Memory(instance);
            // done comes from the session iterator, never from batch
            // emptiness: NEXT <s> 0 on a live stream is count=0 done=0
            Ok(format!(
                "OK count={} done={}{}\nEND",
                batch.len(),
                u8::from(done),
                CommunityLines(&batch, &g)
            ))
        }
        "CLOSE" => {
            let [id] = expect_args::<1>(&verb, &args)?;
            let id = parse_num::<u64>("session", id)?;
            svc.close_session(id)?;
            sessions.retain(|&s| s != id);
            Ok(format!("OK closed={id}"))
        }
        "STATS" => {
            let mut out = String::from("OK");
            svc.stats().write_stats(&mut out);
            // one `S` row per registered store with its cumulative I/O
            for (name, kind, io) in svc.store_io() {
                out.push_str(&format!(
                    "\nS graph={name} storage={kind} io_bytes={} io_ops={}",
                    io.bytes_read, io.read_ops
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "METRICS" => {
            if !args.is_empty() {
                return Err(usage(&verb, "METRICS"));
            }
            // the exposition body is already newline-terminated
            Ok(format!("OK metrics\n{}END", svc.metrics_text()))
        }
        "SLOWLOG" => {
            if args.len() > 1 {
                return Err(usage(&verb, "SLOWLOG [n]"));
            }
            let n = match args.first() {
                Some(s) => parse_num::<usize>("n", s)?,
                None => 10,
            };
            let entries = svc.slowlog(n);
            let mut out = format!(
                "OK count={} slow_total={} threshold_ns={}",
                entries.len(),
                svc.metrics().slow_total(),
                svc.metrics().slowlog_threshold_ns(),
            );
            for e in entries {
                out.push_str(&format!(
                    "\nL seq={} graph={} gamma={} k={} algo={} class={}{} \
                     io_bytes={} io_ops={}",
                    e.seq,
                    e.graph,
                    e.gamma,
                    e.k,
                    e.algorithm,
                    e.class.name(),
                    stage_fields(&e.trace),
                    e.trace.io_bytes,
                    e.trace.io_ops,
                ));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "QUIT" => Ok("OK bye".to_string()),
        other => Err(ServiceError::InvalidQuery(format!(
            "unknown command {other:?} (try HELP)"
        ))),
    }
}

/// Handles the tail of a `BATCH` line: `;`-separated sub-queries, each
/// `<graph> <gamma> <k> [mode]`. Syntax errors (bad shape, non-numeric
/// arguments, too many sub-queries) reject the whole line; *semantic*
/// failures (unknown graph, parameters the central validation rejects)
/// fail only their own `R <i> ERR …` slot, exactly as the same query
/// issued individually would have.
fn handle_batch(svc: &Arc<Service>, tail: &str) -> Result<String, ServiceError> {
    const USAGE: &str = "<graph> <gamma> <k> [mode] [; <graph> <gamma> <k> [mode]]...";
    if tail.trim().is_empty() {
        return Err(usage("BATCH", USAGE));
    }
    let segments: Vec<&str> = tail.split(';').map(str::trim).collect();
    if segments.len() > MAX_BATCH {
        return Err(ServiceError::InvalidQuery(format!(
            "BATCH: {} sub-queries exceed the limit of {MAX_BATCH}",
            segments.len()
        )));
    }
    let mut queries = Vec::with_capacity(segments.len());
    for segment in segments {
        if segment.is_empty() {
            return Err(ServiceError::InvalidQuery(format!(
                "BATCH: empty sub-query (usage: BATCH {USAGE})"
            )));
        }
        let tokens: Vec<&str> = segment.split_ascii_whitespace().collect();
        queries.push(parse_query("BATCH", &tokens)?);
    }
    let results = svc.query_batch(&queries);
    let slots: Vec<(String, Block<'_>)> = results
        .iter()
        .enumerate()
        .map(|(i, result)| match result {
            Ok(resp) => (
                format!(
                    "\nR {i} OK algo={} cached={} coalesced={} count={}",
                    resp.explain.algorithm,
                    resp.cached,
                    resp.coalesced,
                    resp.communities.len(),
                ),
                Block::of(resp),
            ),
            // an error slot has no `C` lines
            Err(e) => (format!("\nR {i} ERR {e}"), Block::Stored("")),
        })
        .collect();
    Ok(assemble(&format!("OK batch={}", results.len()), &slots))
}

/// `EXPLAIN ANALYZE <graph> <gamma> <k> [mode]`: run the query through
/// the pool exactly as `QUERY` would, and report the planner's choice
/// next to the *measured* per-stage nanoseconds from the trace. The
/// stage fields tile the total exactly (`total_ns` is their sum), so a
/// client can see where the latency went; `reason` stays last because
/// its value contains spaces.
fn handle_explain_analyze(svc: &Arc<Service>, args: &[&str]) -> Result<String, ServiceError> {
    let query = parse_query("EXPLAIN ANALYZE", args)?;
    let (resp, trace) = svc.query_traced(query)?;
    let e = &resp.explain;
    Ok(format!(
        "OK algo={} forced={} cached={} coalesced={} count={} n={} m={} \
         gamma_max={} stale_core={:.4} storage={} est_bytes={}{} \
         io_bytes={} io_ops={} reason={}",
        e.algorithm,
        e.forced,
        resp.cached,
        resp.coalesced,
        resp.communities.len(),
        e.n,
        e.m,
        e.gamma_max,
        e.stale_core_fraction,
        e.storage,
        e.est_bytes,
        stage_fields(&trace),
        trace.io_bytes,
        trace.io_ops,
        e.reason,
    ))
}

/// ` total_ns=… queue_ns=… plan_ns=… cache_ns=… execute_ns=… serialize_ns=…`
/// — the measured timings shared by `EXPLAIN ANALYZE` and `SLOWLOG` rows.
/// Leading space; stage order follows [`Stage::ALL`].
fn stage_fields(trace: &ic_obs::QueryTrace) -> String {
    let mut out = format!(" total_ns={}", trace.total_ns());
    for stage in ic_obs::Stage::ALL {
        out.push_str(&format!(" {}_ns={}", stage.name(), trace.stage_ns(stage)));
    }
    out
}

fn parse_query(verb: &str, args: &[&str]) -> Result<Query, ServiceError> {
    let (graph, gamma, k, mode_token) = match *args {
        [graph, gamma, k] => (graph, gamma, k, None),
        [graph, gamma, k, mode] => (graph, gamma, k, Some(mode)),
        _ => return Err(usage(verb, "<graph> <gamma> <k> [mode]")),
    };
    let mode = match mode_token {
        Some(s) => parse_mode(s)?,
        None => Mode::Auto,
    };
    Ok(Query {
        graph: graph.to_string(),
        gamma: parse_num("gamma", gamma)?,
        k: parse_num("k", k)?,
        mode,
    })
}

/// Parses the argument tail of an `UPDATE` line:
/// `<graph> ADD|DEL <u> <v> [w]` or `<graph> ADDV|DELV|REWEIGHT <v> [w]`.
/// Returns the graph name alongside the op so the caller never indexes
/// back into the raw argument list.
fn parse_update<'a>(verb: &str, args: &[&'a str]) -> Result<(&'a str, UpdateOp), ServiceError> {
    const USAGE: &str = "<graph> ADD|DEL <u> <v> [w], or <graph> ADDV|DELV|REWEIGHT <v> [w]";
    let [graph, action_token, rest @ ..] = args else {
        return Err(usage(verb, USAGE));
    };
    let action = action_token.to_ascii_uppercase();
    let op = match action.as_str() {
        "ADD" => {
            let (u, v, w) = match *rest {
                [u, v] => (u, v, None),
                [u, v, w] => (u, v, Some(w)),
                _ => return Err(usage(verb, "<graph> ADD <u> <v> [w]")),
            };
            UpdateOp::InsertEdge {
                u: parse_num("u", u)?,
                v: parse_num("v", v)?,
                default_weight: match w {
                    Some(s) => Some(parse_num::<f64>("w", s)?),
                    None => None,
                },
            }
        }
        "DEL" => {
            let [u, v] = expect_args::<2>(verb, rest)?;
            UpdateOp::DeleteEdge {
                u: parse_num("u", u)?,
                v: parse_num("v", v)?,
            }
        }
        "ADDV" => {
            let [v, w] = expect_args::<2>(verb, rest)?;
            UpdateOp::AddVertex {
                v: parse_num("v", v)?,
                weight: parse_num("w", w)?,
            }
        }
        "DELV" => {
            let [v] = expect_args::<1>(verb, rest)?;
            UpdateOp::RemoveVertex {
                v: parse_num("v", v)?,
            }
        }
        "REWEIGHT" => {
            let [v, w] = expect_args::<2>(verb, rest)?;
            UpdateOp::Reweight {
                v: parse_num("v", v)?,
                weight: parse_num("w", w)?,
            }
        }
        other => {
            return Err(ServiceError::InvalidQuery(format!(
                "unknown update action {other:?} (expected ADD, DEL, ADDV, DELV, REWEIGHT)"
            )))
        }
    };
    Ok((graph, op))
}

fn query_reply(resp: &QueryResponse) -> String {
    let head = format!(
        "OK algo={} cached={} coalesced={} micros={} count={}",
        resp.explain.algorithm,
        resp.cached,
        resp.coalesced,
        resp.latency.as_micros(),
        resp.communities.len(),
    );
    assemble(&head, &[(String::new(), Block::of(resp))])
}

/// The terminator of every community-bearing reply.
const END: &str = "\nEND";

/// Assembles a community-bearing reply: `head`, then each slot's line
/// and `C` block, then [`END`]. When every block is [`Block::Stored`]
/// the reply is a concatenation of known slices, so its exact length —
/// with the `\n` the server appends — is reserved up front and the
/// buffer never grows. Otherwise fresh blocks render straight into the
/// reply as it grows.
fn assemble(head: &str, slots: &[(String, Block<'_>)]) -> String {
    let mut parts = vec![head];
    for (line, block) in slots {
        match block {
            Block::Stored(text) => parts.extend([line.as_str(), *text]),
            Block::Fresh(_) => return format!("{head}{}{END}", Slots(slots)),
        }
    }
    parts.push(END);
    let mut reply = String::with_capacity(parts.iter().map(|p| p.len()).sum::<usize>() + 1);
    for part in parts {
        reply.push_str(part);
    }
    reply
}

/// The `C` block of one answer.
enum Block<'a> {
    /// A prefix of the stored rendering of the cache entry the answer
    /// re-used.
    Stored(&'a str),
    /// An answer computed for this request, rendered as the reply is
    /// written; nothing is stored.
    Fresh(CommunityLines<'a>),
}

impl<'a> Block<'a> {
    /// The block of `resp`. An answer re-using a cache entry is cut from
    /// the entry's rendering, which its first re-use fills. Members are
    /// translated through the instance the query ran against, never a
    /// fresh registry lookup (the name may have been re-registered to a
    /// graph with a different rank space since); cache keys carry the
    /// generation, so that instance is the entry's rank space too.
    fn of(resp: &'a QueryResponse) -> Self {
        match &resp.donor {
            Some(donor) => Block::Stored(
                donor
                    .rendering(&resp.graph_instance)
                    .prefix(resp.communities.len()),
            ),
            None => Block::Fresh(CommunityLines(&resp.communities, &resp.graph_instance)),
        }
    }
}

/// Slot lines and their blocks, written in order.
struct Slots<'s, 'a>(&'s [(String, Block<'a>)]);

impl fmt::Display for Slots<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (line, block) in self.0 {
            f.write_str(line)?;
            match block {
                Block::Stored(text) => f.write_str(text)?,
                Block::Fresh(lines) => fmt::Display::fmt(lines, f)?,
            }
        }
        Ok(())
    }
}

/// The `C` lines of a whole answer, rendered once by [`CommunityLines`],
/// with the byte end of each community's line. Each line renders on its
/// own, so the first k communities — the answer to every k no larger —
/// are a byte prefix of the text.
#[derive(Debug)]
pub(crate) struct Rendering {
    text: String,
    ends: Vec<usize>,
}

impl Rendering {
    pub(crate) fn of(communities: &[Community], store: &GraphStore) -> Self {
        let mut text = CommunityLines(communities, store).to_string();
        text.shrink_to_fit();
        // each community's line starts with the only newline in it, so a
        // community ends where the next line starts
        let mut ends: Vec<usize> = text.match_indices('\n').skip(1).map(|(at, _)| at).collect();
        if !text.is_empty() {
            ends.push(text.len());
        }
        Rendering { text, ends }
    }

    /// The `C` block of the first `k` communities (of all, if fewer).
    pub(crate) fn prefix(&self, k: usize) -> &str {
        let end = k
            .min(self.ends.len())
            .checked_sub(1)
            .map_or(0, |last| self.ends[last]);
        &self.text[..end]
    }

    /// Bytes of wire text held.
    pub(crate) fn len(&self) -> usize {
        self.text.len()
    }
}

/// The `C` lines of a community-bearing reply (`QUERY`, `BATCH`,
/// `NEXT`), one `\nC influence=<f64> members=<ids>` line per community.
///
/// Canonical wire form: external ids ascending (rank order is an
/// internal detail clients should not have to know about). Rendering
/// writes the influence and every id straight into the reply buffer
/// through the formatter, sorting each community's ids in one buffer
/// reused across the block — no allocation per community or member. The
/// id table is memory-resident for every backend, so no I/O here.
struct CommunityLines<'a>(&'a [Community], &'a GraphStore);

impl fmt::Display for CommunityLines<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ids: Vec<u64> = Vec::new();
        let CommunityLines(communities, store) = *self;
        for c in communities {
            ids.clear();
            ids.extend(c.members.iter().map(|&r| store.external_id(r)));
            ids.sort_unstable();
            write!(f, "\nC influence={} members=", c.influence)?;
            // ids go through `u64`'s own `Display` with this formatter's
            // options, which are the defaults: the renderer is only ever
            // formatted with a plain `{}`
            let mut members = ids.iter();
            if let Some(id) = members.next() {
                fmt::Display::fmt(id, f)?;
            }
            for id in members {
                f.write_char(',')?;
                fmt::Display::fmt(id, f)?;
            }
        }
        Ok(())
    }
}

fn graph_line(name: &str, n: usize, m: usize, gamma_max: u32) -> String {
    format!("OK graph={name} n={n} m={m} gamma_max={gamma_max}")
}

fn expect_args<'a, const N: usize>(
    verb: &str,
    args: &[&'a str],
) -> Result<[&'a str; N], ServiceError> {
    <[&str; N]>::try_from(args.to_vec())
        .map_err(|_| usage(verb, &format!("expected {N} argument(s)")))
}

fn usage(verb: &str, usage: &str) -> ServiceError {
    ServiceError::InvalidQuery(format!("{verb}: usage {verb} {usage}"))
}

fn parse_num<T: std::str::FromStr>(field: &str, s: &str) -> Result<T, ServiceError> {
    s.parse()
        .map_err(|_| ServiceError::InvalidQuery(format!("{field}: not a valid number: {s:?}")))
}

/// Rejects generator parameters the generators cannot honor: G(n,m)
/// needs two vertices, Barabási–Albert needs `n > d ≥ 1`, and every
/// vertex id must fit a u32 (for R-MAT, `n = 2^scale`).
fn check_synthetic(spec: &SyntheticSpec) -> Result<(), ServiceError> {
    let fits = |n: usize| n <= u32::MAX as usize;
    let ok = match *spec {
        SyntheticSpec::Gnm { n, .. } => n >= 2 && fits(n),
        SyntheticSpec::BarabasiAlbert { n, d, .. } => d >= 1 && n > d && fits(n),
        SyntheticSpec::Rmat { scale, .. } => scale < u32::BITS,
    };
    if ok {
        return Ok(());
    }
    Err(ServiceError::InvalidQuery(format!(
        "GEN: {spec:?} is out of range (gnm needs n >= 2, ba needs n > d >= 1, \
         rmat needs scale < 32; vertex ids are u32)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::stats::Counter;
    use ic_graph::paper::figure3;

    fn svc() -> Arc<Service> {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        svc
    }

    /// The serializer's former rendering — one `format!` per `C` line, a
    /// fresh id `Vec` per community, one `to_string` per member — kept as
    /// the wire-format reference [`CommunityLines`] must match byte for
    /// byte.
    fn reference_community_lines(communities: &[Community], g: &GraphStore) -> String {
        let mut out = String::new();
        for c in communities {
            out.push_str(&format!("\nC influence={} members=", c.influence));
            let mut ids = c.external_members_in(g);
            ids.sort_unstable();
            for (i, id) in ids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
        }
        out
    }

    /// Asserts that a `QUERY` reply's lines after its header (which
    /// carries the run-dependent `micros=`) are the reference rendering of
    /// the same answer, re-fetched from the cache, in the rank space of
    /// the instance that answered. Returns the reply's header.
    fn assert_query_matches_reference(
        svc: &Arc<Service>,
        graph: &str,
        gamma: u32,
        k: usize,
    ) -> String {
        let reply = handle_line(svc, &format!("QUERY {graph} {gamma} {k}"));
        assert!(reply.starts_with("OK "), "{reply}");
        let resp = svc.query(Query::new(graph, gamma, k)).unwrap();
        assert!(resp.cached, "the reference renders the answer QUERY sent");
        let expected = reference_community_lines(&resp.communities, &resp.graph_instance);
        assert!(!expected.is_empty(), "{graph} {gamma} {k}: empty answer");
        let (head, body) = reply.split_at(reply.find('\n').unwrap());
        assert_eq!(body, format!("{expected}\nEND"), "{graph} {gamma} {k}");
        head.to_string()
    }

    /// The reply a `BATCH` line must get: each slot's header from `twin`
    /// (a service in the same cache state), its `C` lines from the
    /// reference rendering.
    fn reference_batch_reply(twin: &Arc<Service>, batch: &str) -> String {
        let queries: Vec<Query> = batch
            .split(';')
            .map(|s| {
                let t: Vec<&str> = s.split_ascii_whitespace().collect();
                Query::new(t[0], t[1].parse().unwrap(), t[2].parse().unwrap())
            })
            .collect();
        let results = twin.query_batch(&queries);
        let mut expected = format!("OK batch={}", results.len());
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(resp) => {
                    expected.push_str(&format!(
                        "\nR {i} OK algo={} cached={} coalesced={} count={}",
                        resp.explain.algorithm,
                        resp.cached,
                        resp.coalesced,
                        resp.communities.len()
                    ));
                    expected.push_str(&reference_community_lines(
                        &resp.communities,
                        &resp.graph_instance,
                    ));
                }
                Err(e) => expected.push_str(&format!("\nR {i} ERR {e}")),
            }
        }
        expected.push_str("\nEND");
        expected
    }

    /// A graph whose external ids are `0`, one value of every length
    /// from 1 to 20 digits, and `u64::MAX`, all in one clique, with
    /// weights of mixed magnitude and fraction ordered unlike the ids —
    /// so every community lists ids of every width, re-sorted from rank
    /// order, next to an influence exercising `f64` `{}` formatting.
    /// `reversed` hands the same ids out in reverse: the same ranks and
    /// answers, under different external ids.
    fn extreme_id_graph(reversed: bool) -> ic_graph::WeightedGraph {
        let mut ids = vec![0u64];
        ids.extend((0..19).map(|d| 10u64.pow(d) + u64::from(d) + 1));
        ids.extend([10u64.pow(19), u64::MAX]);
        if reversed {
            ids.reverse();
        }
        let weights = [
            0.1,
            1e-7,
            2.5,
            1e21,
            3.0,
            17.25,
            1.0 / 3.0,
            123456.789,
            1e-12,
            42.0,
            1e15,
            7.5e18,
            0.3,
            99.99,
            6.02214076e23,
            2f64.sqrt(),
            1e-300,
            1234.5,
            8.0,
            0.75,
            65536.0,
            31.4159,
        ];
        assert_eq!(ids.len(), weights.len());
        let mut b = ic_graph::GraphBuilder::new();
        for (i, (&id, &w)) in ids.iter().zip(&weights).enumerate() {
            b.set_weight(id, w);
            for &other in &ids[..i] {
                b.add_edge(id, other);
            }
        }
        b.build().unwrap()
    }

    /// The allocation-free serializer is byte-identical to the former
    /// rendering for every community-bearing verb, on the paper graph, a
    /// generated graph, extreme external ids, and a file-backed store
    /// (ids translated through the file's resident id table).
    #[test]
    fn community_lines_match_the_reference_rendering() {
        let svc = svc();
        // QUERY on figure3 and on a generated G(n, m) graph
        for (gamma, k) in [(1, 20), (2, 3), (3, 4), (4, 1)] {
            assert_query_matches_reference(&svc, "fig3", gamma, k);
        }
        assert!(handle_line(&svc, "GEN toy gnm 300 1200 7").starts_with("OK"));
        for (gamma, k) in [(2, 40), (3, 10)] {
            assert_query_matches_reference(&svc, "toy", gamma, k);
        }

        // extreme ids, memory-resident and file-backed
        svc.register("ids", extreme_id_graph(false));
        assert_query_matches_reference(&svc, "ids", 2, 100);
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-golden");
        let path = dir.file("ids.icsr");
        let path = path.to_str().unwrap();
        assert!(handle_line(&svc, &format!("SAVE ids {path}")).starts_with("OK"));
        assert!(handle_line(&svc, &format!("LOADX ids_file {path}")).contains("storage=file"));
        assert_query_matches_reference(&svc, "ids_file", 2, 100);
        assert_query_matches_reference(&svc, "ids_file", 5, 7);
        // the lowest-influence community is the whole clique
        let extreme = handle_line(&svc, "QUERY ids_file 2 100");
        assert!(extreme.contains(" members=0,2,"), "{extreme}");
        assert!(extreme.contains(",18446744073709551615\nEND"), "{extreme}");

        // BATCH and NEXT replies carry no timings: the whole reply of a
        // fresh service must equal the former rendering of its twin's
        let fresh = || {
            let s = super::tests::svc();
            assert!(handle_line(&s, "GEN toy gnm 300 1200 7").starts_with("OK"));
            s.register("ids", extreme_id_graph(false));
            s
        };
        let (svc, twin) = (fresh(), fresh());
        let batch = "fig3 3 4 ; toy 2 40 ; nope 1 1 ; ids 3 100 ; fig3 1 20";
        let expected = reference_batch_reply(&twin, batch);
        assert_eq!(handle_line(&svc, &format!("BATCH {batch}")), expected);
        // the same BATCH again is answered from the cache: every group's
        // lead hits, and its members share the lead's stored rendering,
        // which this first re-use fills — so does the one after it
        for _ in 0..2 {
            let expected = reference_batch_reply(&twin, batch);
            assert!(expected.contains("R 0 OK algo=local_search cached=true"));
            assert_eq!(handle_line(&svc, &format!("BATCH {batch}")), expected);
        }
        assert!(
            svc.stats()[Counter::RenderedBytes] > 0,
            "the batch re-used entries"
        );
        // mixed ks in one group, whose lead (k = 40) hits the toy entry
        let mixed = "toy 2 3 ; toy 2 40 ; toy 2 17 ; toy 2 1";
        let expected = reference_batch_reply(&twin, mixed);
        assert_eq!(handle_line(&svc, &format!("BATCH {mixed}")), expected);

        for (graph, gamma) in [("fig3", 3), ("toy", 2), ("ids", 2)] {
            let open = handle_line(&svc, &format!("OPEN {graph} {gamma}"));
            let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
            let twin_id = twin.open_session(graph, gamma).unwrap();
            let g = GraphStore::Memory(twin.session_graph_instance(twin_id).unwrap());
            for n in [2, 0, 1000] {
                let (next, done) = twin.session_next_full(twin_id, n).unwrap();
                let expected = format!(
                    "OK count={} done={}{}\nEND",
                    next.len(),
                    u8::from(done),
                    reference_community_lines(&next, &g)
                );
                assert_eq!(handle_line(&svc, &format!("NEXT {id} {n}")), expected);
            }
        }
    }

    /// Answers that re-use a cache entry reply with a prefix of the
    /// entry's stored rendering; every such block equals the reference
    /// rendering of the instance that answered.
    #[test]
    fn cached_replies_match_the_reference_rendering() {
        let svc = svc();
        assert!(handle_line(&svc, "GEN toy gnm 300 1200 7").starts_with("OK"));
        let query = |gamma, k| assert_query_matches_reference(&svc, "toy", gamma, k);

        // a miss stores nothing; the first exact hit fills the entry, the
        // next one replies from it
        assert!(query(2, 40).contains("cached=false"));
        assert_eq!(svc.stats()[Counter::RenderedBytes], 0);
        assert!(query(2, 40).contains("cached=true"));
        let filled = svc.stats()[Counter::RenderedBytes];
        assert!(filled > 0);
        assert!(query(2, 40).contains("cached=true"));
        // a prefix-served hit (k < the donor's k) is cut from the same text
        for k in [1, 10, 39] {
            assert!(query(2, k).contains("cached=true coalesced=false"));
        }
        assert_eq!(svc.stats()[Counter::RenderedBytes], filled, "filled once");
        assert_eq!(svc.stats()[Counter::PrefixServed], 6, "each k twice");

        // an exhausted donor (fewer communities than its k) asked for more
        let all = svc.query(Query::new("toy", 3, 100_000)).unwrap();
        let n = all.communities.len();
        assert!(!all.cached && n > 1 && n < 100_000, "{n}");
        for k in [200_000, n + 1, n, n - 1, 1] {
            let head = query(3, k);
            assert!(head.contains("cached=true"), "{head}");
            assert!(head.ends_with(&format!("count={}", k.min(n))), "{head}");
        }

        // re-registered under the same name with other external ids: the
        // new generation's entry renders in the new instance's id space
        svc.register("ids", extreme_id_graph(false));
        let before: Vec<String> = (0..3)
            .map(|_| handle_line(&svc, "QUERY ids 2 100"))
            .collect();
        assert_query_matches_reference(&svc, "ids", 2, 100);
        svc.register("ids", extreme_id_graph(true));
        for _ in 0..3 {
            assert_query_matches_reference(&svc, "ids", 2, 100);
            assert_query_matches_reference(&svc, "ids", 2, 5);
        }
        let after = handle_line(&svc, "QUERY ids 2 100");
        let block = |reply: &str| reply[reply.find('\n').unwrap()..].to_string();
        assert_ne!(block(&before[2]), block(&after), "the ids changed");
        assert_eq!(block(&before[1]), block(&before[2]));
    }

    /// Renderings are kept only for re-used entries and go with them: a
    /// workload of distinct queries retains no text.
    #[test]
    fn renderings_are_retained_only_for_re_used_entries() {
        let svc = svc();
        assert!(handle_line(&svc, "GEN toy gnm 300 1200 7").starts_with("OK"));
        let rendered = || svc.stats()[Counter::RenderedBytes] as usize;
        let gammas = 1..=6u32;
        for gamma in gammas.clone() {
            assert!(handle_line(&svc, &format!("QUERY toy {gamma} 30")).contains("cached=false"));
        }
        assert!(handle_line(&svc, "STATS").contains(" hits=0 misses=6 "));
        assert_eq!(rendered(), 0, "distinct cold queries");

        // one repeat fills exactly the entry's text
        let text_len = |gamma: u32| {
            let resp = svc.query(Query::new("toy", gamma, 30)).unwrap();
            reference_community_lines(&resp.communities, &resp.graph_instance).len()
        };
        assert!(handle_line(&svc, "QUERY toy 2 30").contains("cached=true"));
        assert_eq!(rendered(), text_len(2));
        assert!(handle_line(&svc, "QUERY toy 2 7").contains("cached=true"));
        assert_eq!(rendered(), text_len(2), "a prefix re-uses the text");

        // COMMIT starts a new generation: the old entries, and their
        // text, are dropped
        assert!(handle_line(&svc, "UPDATE toy ADDV 100000 1.0").starts_with("OK"));
        assert!(handle_line(&svc, "COMMIT toy").starts_with("OK"));
        assert_eq!(rendered(), 0, "after COMMIT");

        // and so does re-registration
        for _ in 0..2 {
            handle_line(&svc, "QUERY toy 4 30");
        }
        assert_eq!(rendered(), text_len(4));
        assert!(handle_line(&svc, "GEN toy gnm 300 1200 7").starts_with("OK"));
        assert_eq!(rendered(), 0, "after re-registration");
    }

    /// The stored rendering's community ends cut every prefix, including
    /// the empty one and those past the end.
    #[test]
    fn rendering_prefixes_end_on_community_boundaries() {
        let graph = Arc::new(figure3());
        let communities = ic_core::TopKQuery::new(2)
            .k(10)
            .run(&graph)
            .unwrap()
            .communities;
        let g = GraphStore::Memory(graph);
        assert!(communities.len() > 2);
        let rendering = Rendering::of(&communities, &g);
        for k in 0..=communities.len() + 2 {
            let head = &communities[..k.min(communities.len())];
            assert_eq!(
                rendering.prefix(k),
                reference_community_lines(head, &g),
                "k={k}"
            );
        }
        assert_eq!(rendering.len(), rendering.prefix(usize::MAX).len());
        let empty = Rendering::of(&[], &g);
        assert_eq!((empty.prefix(0), empty.prefix(3), empty.len()), ("", "", 0));
    }

    #[test]
    fn query_reply_lists_paper_communities() {
        let svc = svc();
        let reply = handle_line(&svc, "QUERY fig3 3 4");
        assert!(reply.starts_with("OK "), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
    }

    #[test]
    fn repeat_query_reports_cached() {
        let svc = svc();
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let reply = handle_line(&svc, "query fig3 3 4"); // verbs case-insensitive
        assert!(reply.contains("cached=true"), "{reply}");
    }

    #[test]
    fn explain_analyze_measures_stages() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN ANALYZE fig3 3 4");
        assert!(reply.starts_with("OK algo="), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("reason="), "{reply}");
        // every stage field is present, and the stages tile the total
        let field = |name: &str| -> u64 {
            reply
                .split_ascii_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("missing {name} in {reply}"))
                .parse()
                .unwrap()
        };
        let total = field("total_ns");
        let staged: u64 = [
            "queue_ns",
            "plan_ns",
            "cache_ns",
            "execute_ns",
            "serialize_ns",
        ]
        .iter()
        .map(|s| field(s))
        .sum();
        assert_eq!(staged, total, "stage timings tile the total: {reply}");
        assert!(total > 0, "{reply}");
        assert!(field("execute_ns") > 0, "cold query executed: {reply}");
        // the analyzed query warmed the cache; a re-run reports the hit
        let again = handle_line(&svc, "explain analyze fig3 3 4");
        assert!(again.contains("cached=true"), "{again}");
        assert!(again.contains("execute_ns=0"), "{again}");
        // verb remains strict about shape
        for bad in [
            "EXPLAIN ANALYZE",
            "EXPLAIN ANALYZE fig3 3",
            "EXPLAIN ANALYZE nope 3 4",
        ] {
            assert!(handle_line(&svc, bad).starts_with("ERR "), "{bad}");
        }
    }

    #[test]
    fn metrics_verb_returns_prometheus_body() {
        let svc = svc();
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let reply = handle_line(&svc, "METRICS");
        assert!(reply.starts_with("OK metrics\n"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        assert!(reply.contains("ic_queries_total 1"), "{reply}");
        assert!(
            reply.contains("ic_query_latency_ns_bucket{class=\"cold\""),
            "{reply}"
        );
        assert!(handle_line(&svc, "METRICS extra").starts_with("ERR "));
    }

    #[test]
    fn slowlog_verb_lists_slow_queries_newest_first() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            slowlog_threshold: std::time::Duration::ZERO, // everything is slow
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        // an idle slowlog is an empty listing, not an error
        assert!(handle_line(&svc, "SLOWLOG").starts_with("OK count=0 slow_total=0"));
        let _ = handle_line(&svc, "QUERY fig3 3 4");
        let _ = handle_line(&svc, "QUERY fig3 3 2"); // prefix-served hit
        let reply = handle_line(&svc, "SLOWLOG");
        assert!(reply.starts_with("OK count=2 slow_total=2"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        let rows: Vec<&str> = reply.lines().filter(|l| l.starts_with("L ")).collect();
        assert_eq!(rows.len(), 2, "{reply}");
        assert!(rows[0].contains("k=2"), "newest first: {reply}");
        assert!(rows[0].contains("class=prefix_served"), "{reply}");
        assert!(rows[1].contains("class=cold"), "{reply}");
        assert!(rows[1].contains("total_ns="), "{reply}");
        assert!(rows[1].contains("execute_ns="), "{reply}");
        // SLOWLOG n truncates; hostile forms are ERR lines
        assert!(handle_line(&svc, "SLOWLOG 1").contains("count=1"));
        assert!(handle_line(&svc, "SLOWLOG x").starts_with("ERR "));
        assert!(handle_line(&svc, "SLOWLOG 1 2").starts_with("ERR "));
    }

    #[test]
    fn explain_names_algorithm_and_reason() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN fig3 3 10 forward");
        assert!(reply.contains("algo=forward"), "{reply}");
        assert!(reply.contains("forced=true"), "{reply}");
        let auto = handle_line(&svc, "EXPLAIN fig3 3 10");
        assert!(auto.contains("reason="), "{auto}");
    }

    #[test]
    fn session_verbs_round_trip() {
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        assert!(open.starts_with("OK session="), "{open}");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        let first = handle_line(&svc, &format!("NEXT {id}"));
        assert!(first.contains("count=1 done=0"), "{first}");
        assert!(first.contains("members=3,11,12,20"), "{first}");
        let rest = handle_line(&svc, &format!("NEXT {id} 100"));
        assert!(rest.contains("count="), "{rest}");
        assert!(rest.contains("done=1"), "{rest}");
        let close = handle_line(&svc, &format!("CLOSE {id}"));
        assert!(close.starts_with("OK closed="), "{close}");
        let gone = handle_line(&svc, &format!("NEXT {id}"));
        assert!(gone.starts_with("ERR"), "{gone}");
    }

    /// Open sessions are bounded: the `OPEN` past the cap gets a typed
    /// `ERR`, and closing one makes room again.
    #[test]
    fn open_sessions_are_capped() {
        use crate::session::MAX_OPEN_SESSIONS;
        let svc = svc();
        for _ in 0..MAX_OPEN_SESSIONS {
            let open = handle_line(&svc, "OPEN fig3 3");
            assert!(open.starts_with("OK session="), "{open}");
        }
        assert_eq!(
            handle_line(&svc, "OPEN fig3 3"),
            "ERR too many open sessions (limit 1024)"
        );
        assert_eq!(
            svc.stats()[Counter::SessionsOpened],
            MAX_OPEN_SESSIONS as u64
        );
        assert!(handle_line(&svc, "CLOSE 1").starts_with("OK closed=1"));
        let open = handle_line(&svc, "OPEN fig3 3");
        assert!(open.starts_with("OK session="), "{open}");
    }

    /// The `done` field is derived from the session iterator, never from
    /// batch emptiness: a client probing with n=0 must not conclude a
    /// live stream is exhausted (the bug this PR fixes).
    #[test]
    fn next_zero_reports_done_from_the_iterator() {
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        // live stream, empty batch: count=0 but done=0
        let probe = handle_line(&svc, &format!("NEXT {id} 0"));
        assert!(probe.starts_with("OK count=0 done=0"), "{probe}");
        // the probe consumed nothing: the first community is still first
        let first = handle_line(&svc, &format!("NEXT {id} 1"));
        assert!(first.contains("members=3,11,12,20"), "{first}");
        // drain, then the same probe reports done=1
        let drained = handle_line(&svc, &format!("NEXT {id} 10000"));
        assert!(drained.contains("done=1"), "{drained}");
        let probe = handle_line(&svc, &format!("NEXT {id} 0"));
        assert!(probe.starts_with("OK count=0 done=1"), "{probe}");
    }

    #[test]
    fn batch_groups_and_answers_per_slot() {
        let svc = svc();
        let reply = handle_line(&svc, "BATCH fig3 3 4 ; fig3 3 1 ; fig3 2 2 ; nope 3 1");
        assert!(reply.starts_with("OK batch=4"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        assert!(reply.contains("R 0 OK"), "{reply}");
        assert!(reply.contains("count=4"), "{reply}");
        assert!(reply.contains("R 1 OK"), "{reply}");
        assert!(reply.contains("R 2 OK"), "{reply}");
        assert!(reply.contains("R 3 ERR unknown graph"), "{reply}");
        // the paper's top community leads slot 0 and slot 1 alike
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        // slots 0 and 1 shared one search; slot 2 (other γ) ran its own
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("misses=2"), "{stats}");
        assert!(stats.contains("batches=1"), "{stats}");
    }

    /// A `BATCH` of one behaves exactly like `QUERY`, and separators
    /// tolerate arbitrary spacing.
    #[test]
    fn batch_answers_match_individual_queries() {
        let individual_svc = svc();
        let individual = handle_line(&individual_svc, "QUERY fig3 3 4");
        let batched_svc = svc();
        let batched = handle_line(&batched_svc, "BATCH fig3 3 2;fig3 3 4");
        // the k=4 slot lists exactly the communities QUERY printed
        let individual_cs: Vec<&str> = individual.lines().filter(|l| l.starts_with("C ")).collect();
        let batched_slot1: Vec<&str> = batched
            .lines()
            .skip_while(|l| !l.starts_with("R 1 "))
            .skip(1)
            .take_while(|l| l.starts_with("C "))
            .collect();
        assert_eq!(batched_slot1, individual_cs, "{batched}");
        // and the k=2 slot is the 2-prefix
        let batched_slot0: Vec<&str> = batched
            .lines()
            .skip_while(|l| !l.starts_with("R 0 "))
            .skip(1)
            .take_while(|l| l.starts_with("C "))
            .collect();
        assert_eq!(batched_slot0, individual_cs[..2].to_vec(), "{batched}");
    }

    #[test]
    fn hostile_batch_forms_error_cleanly() {
        let svc = svc();
        for bad in [
            "BATCH",
            "BATCH ;",
            "BATCH ; ;",
            "BATCH fig3 3",
            "BATCH fig3 3 4 ;",
            "BATCH ; fig3 3 4",
            "BATCH fig3 3 4 ; fig3 3",
            "BATCH fig3 3 4 extra tokens here ; fig3 3 4",
            "BATCH fig3 x 4",
            "BATCH fig3 3 4 warp",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad:?} -> {reply}");
        }
        // over the sub-query cap: rejected without executing anything
        let huge = format!("BATCH {}", vec!["fig3 3 4"; MAX_BATCH + 1].join(" ; "));
        let reply = handle_line(&svc, &huge);
        assert!(reply.starts_with("ERR "), "{reply}");
        assert!(reply.contains("limit"), "{reply}");
        assert!(
            handle_line(&svc, "STATS").contains("queries=0"),
            "nothing ran"
        );
        // exactly at the cap is fine
        let full = format!("BATCH {}", vec!["fig3 3 4"; MAX_BATCH].join(" ; "));
        assert!(handle_line(&svc, &full).starts_with("OK batch=256"));
    }

    #[test]
    fn every_algorithm_mode_is_reachable_and_validated() {
        let svc = svc();
        // truss answers its own community family through the same verb
        let reply = handle_line(&svc, "QUERY fig3 4 1 truss");
        assert!(reply.contains("algo=truss"), "{reply}");
        assert!(reply.contains("influence=18 members=3,11,12,20"), "{reply}");
        // the centralized validation rejects truss below γ = 2
        assert!(handle_line(&svc, "QUERY fig3 1 1 truss").starts_with("ERR "));
        // the override-only baselines answer identically to local_search
        // (distinct k per mode keeps every query a genuine cache miss)
        let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        for (mode, k) in [("backward", 5), ("naive", 6)] {
            // the forced baseline goes first so it is a genuine miss; the
            // reference afterwards may hit the shared core-family entry
            // (identical answers are exactly the point)
            let got = handle_line(&svc, &format!("QUERY fig3 3 {k} {mode}"));
            let reference = handle_line(&svc, &format!("QUERY fig3 3 {k} local_search"));
            assert!(got.contains(&format!("algo={mode} cached=false")), "{got}");
            assert_eq!(tail(&got), tail(&reference), "{mode}");
        }
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("truss=1"), "{stats}");
        assert!(stats.contains("backward=1"), "{stats}");
        assert!(stats.contains("naive=1"), "{stats}");
    }

    #[test]
    fn gen_graphs_stats_flow() {
        let svc = svc();
        let gen = handle_line(&svc, "GEN toy gnm 50 150 7");
        assert!(gen.contains("graph=toy"), "{gen}");
        assert!(gen.contains("n=50"), "{gen}");
        let graphs = handle_line(&svc, "GRAPHS");
        assert!(graphs.contains("count=2"), "{graphs}");
        assert!(graphs.contains("name=fig3"), "{graphs}");
        assert!(graphs.contains("name=toy"), "{graphs}");
        let _ = handle_line(&svc, "QUERY toy 2 3");
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("queries=1"), "{stats}");
        assert!(stats.contains("graphs=2"), "{stats}");
    }

    #[test]
    fn save_loadx_round_trip_over_the_wire() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr");
        let svc = svc();
        let path = dir.file("fig3.icsr");
        let path = path.to_str().unwrap();

        let saved = handle_line(&svc, &format!("SAVE fig3 {path}"));
        assert!(saved.starts_with("OK saved=fig3"), "{saved}");
        let loaded = handle_line(&svc, &format!("LOADX disk {path}"));
        assert!(loaded.contains("graph=disk"), "{loaded}");
        assert!(loaded.contains("storage=file"), "{loaded}");

        // identical answers through the wire, semi-external dispatch
        let mem = handle_line(&svc, "QUERY fig3 3 4");
        let file = handle_line(&svc, "QUERY disk 3 4");
        let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(tail(&mem), tail(&file), "\nmem: {mem}\nfile: {file}");
        let explain = handle_line(&svc, "EXPLAIN disk 3 4");
        assert!(explain.contains("storage=file"), "{explain}");
        assert!(explain.contains("algo=local_search_se"), "{explain}");
        assert!(!explain.contains("est_bytes=0 "), "{explain}");

        // STATS carries a per-store I/O row for the file store
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains("S graph=disk storage=file"), "{stats}");
        assert!(stats.contains("S graph=fig3 storage=memory"), "{stats}");
        assert!(stats.ends_with("END"), "{stats}");
        let disk_row = stats
            .lines()
            .find(|l| l.starts_with("S graph=disk"))
            .unwrap();
        assert!(!disk_row.contains("io_bytes=0"), "{disk_row}");
    }

    #[test]
    fn explain_reports_memory_storage_for_resident_graphs() {
        let svc = svc();
        let reply = handle_line(&svc, "EXPLAIN fig3 3 4");
        assert!(reply.contains("storage=memory"), "{reply}");
        assert!(reply.contains("est_bytes=0"), "{reply}");
    }

    #[test]
    fn hostile_loadx_and_save_are_err_lines() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-err");
        let svc = svc();
        let bad = dir.file("bad.icsr");
        std::fs::write(&bad, b"ICSR nonsense").unwrap();
        let bad = bad.to_str().unwrap().to_string();
        for line in [
            "LOADX".to_string(),
            "LOADX onlyname".to_string(),
            "LOADX x y z extra".to_string(),
            "LOADX x /nonexistent/path.icsr".to_string(),
            format!("LOADX x {bad}"),
            format!("LOADX x {bad} notanumber"),
            "SAVE".to_string(),
            "SAVE fig3".to_string(),
            "SAVE nope /tmp/out.icsr".to_string(),
            "SAVE fig3 /nonexistent-dir-zzz/out.icsr".to_string(),
        ] {
            let reply = handle_line(&svc, &line);
            assert!(reply.starts_with("ERR "), "{line:?} -> {reply}");
        }
        // the hostile attempts left the service fully functional
        assert!(handle_line(&svc, "QUERY fig3 3 4").contains("count=4"));
    }

    #[test]
    fn corrupt_adjacency_record_is_a_storage_err_not_a_worker_panic() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-corrupt");
        let svc = svc();
        let path = dir.file("g.icsr");
        ic_graph::save_icsr(&figure3(), &path).unwrap();
        // overwrite the first adjacency record (after the 32-byte header
        // and the 24n + 8 bytes of resident vertex sections)
        let mut bytes = std::fs::read(&path).unwrap();
        let adj_start = 32 + 24 * figure3().n() + 8;
        bytes[adj_start..adj_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let path = path.to_str().unwrap();

        // the resident sections are sound, so the open succeeds
        assert!(handle_line(&svc, &format!("LOADX g {path}")).starts_with("OK"));
        for line in ["QUERY g 2 3", "QUERY g 2 3 online_all_se"] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("ERR storage error"), "{line} -> {reply}");
        }
        let stats = handle_line(&svc, "STATS");
        assert!(stats.contains(" worker_panics=0 "), "{stats}");
    }

    #[test]
    fn save_onto_a_live_file_backed_store_is_refused() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-live");
        let svc = svc();
        let path = dir.file("p.icsr");
        let path = path.to_str().unwrap();
        assert!(handle_line(&svc, "GEN a gnm 300 1500 1").starts_with("OK"));
        assert!(handle_line(&svc, "GEN b gnm 300 1500 2").starts_with("OK"));
        assert!(handle_line(&svc, &format!("SAVE a {path}")).starts_with("OK"));
        assert!(handle_line(&svc, &format!("LOADX f {path}")).starts_with("OK"));

        let reply = handle_line(&svc, &format!("SAVE b {path}"));
        assert!(reply.starts_with("ERR storage error"), "{reply}");
        // the same file under another spelling is the same target
        let dotted = format!("{}/./p.icsr", dir.path().to_str().unwrap());
        let reply = handle_line(&svc, &format!("SAVE b {dotted}"));
        assert!(reply.starts_with("ERR storage error"), "{reply}");

        // the refused SAVEs left the file, and so f's answers, untouched
        let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        let mem = handle_line(&svc, "QUERY a 3 5");
        let file = handle_line(&svc, "QUERY f 3 5");
        assert!(file.contains("count=5"), "{file}");
        assert_eq!(tail(&mem), tail(&file), "\nmem: {mem}\nfile: {file}");
        // a different target is still fine
        let other = dir.file("other.icsr");
        let reply = handle_line(&svc, &format!("SAVE b {}", other.to_str().unwrap()));
        assert!(reply.starts_with("OK"), "{reply}");
    }

    #[test]
    fn file_backed_rejections_are_err_lines() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-protocol-icsr-rej");
        let svc = svc();
        let path = dir.file("g.icsr");
        let path = path.to_str().unwrap();
        handle_line(&svc, &format!("SAVE fig3 {path}"));
        assert!(handle_line(&svc, &format!("LOADX gx {path}")).starts_with("OK"));
        for line in [
            "UPDATE gx ADD 1 2 1.0",
            "COMMIT gx",
            "OPEN gx 3",
            "QUERY gx 3 4 local_search",
        ] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("ERR storage error"), "{line} -> {reply}");
        }
        // but semi-external queries answer fine
        assert!(handle_line(&svc, "QUERY gx 3 4").contains("count=4"));
        assert!(handle_line(&svc, "QUERY gx 3 4 online_all_se").contains("count=4"));
    }

    #[test]
    fn next_survives_graph_replacement_mid_session() {
        // regression: NEXT used to translate the old instance's ranks
        // through a fresh registry lookup — an out-of-bounds panic once
        // the name was re-registered to a smaller graph
        let svc = svc();
        let open = handle_line(&svc, "OPEN fig3 3");
        let id: u64 = open.trim_start_matches("OK session=").parse().unwrap();
        let gen = handle_line(&svc, "GEN fig3 gnm 5 4 1"); // tiny replacement
        assert!(gen.starts_with("OK"), "{gen}");
        let next = handle_line(&svc, &format!("NEXT {id} 2"));
        assert!(next.starts_with("OK count=2"), "{next}");
        assert!(next.contains("members=3,11,12,20"), "{next}");
    }

    #[test]
    fn update_commit_round_trip_changes_answers() {
        let svc = svc();
        let before = handle_line(&svc, "QUERY fig3 3 1");
        assert!(before.contains("members=3,11,12,20"), "{before}");

        // delete the top clique's cheapest edge; not visible before COMMIT
        let upd = handle_line(&svc, "UPDATE fig3 DEL 3 11");
        assert!(upd.starts_with("OK graph=fig3 pending=1"), "{upd}");
        assert!(upd.contains("stale_core=0."), "{upd}");
        let mid = handle_line(&svc, "QUERY fig3 3 1");
        assert!(mid.contains("members=3,11,12,20"), "{mid}");

        let commit = handle_line(&svc, "COMMIT fig3");
        assert!(commit.starts_with("OK graph=fig3 generation="), "{commit}");
        assert!(commit.contains("ops=1"), "{commit}");
        let after = handle_line(&svc, "QUERY fig3 3 1");
        assert!(after.starts_with("OK"), "{after}");
        assert!(!after.contains("members=3,11,12,20"), "{after}");

        // growing a new clique through ADD with on-the-fly vertices
        for line in [
            "UPDATE fig3 ADD 50 51 30",
            "UPDATE fig3 ADD 52 50 30",
            "UPDATE fig3 ADD 52 51 30",
            "UPDATE fig3 ADD 53 50 30",
            "UPDATE fig3 ADD 53 51 30",
            "UPDATE fig3 ADD 53 52 30",
        ] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("OK"), "{line} -> {reply}");
        }
        // 6 edge inserts plus 4 on-the-fly vertex creations
        let commit2 = handle_line(&svc, "COMMIT fig3");
        assert!(commit2.contains("ops=10"), "{commit2}");
        let top = handle_line(&svc, "QUERY fig3 3 1");
        assert!(top.contains("influence=30 members=50,51,52,53"), "{top}");
    }

    #[test]
    fn explain_reports_staleness() {
        let svc = svc();
        let fresh = handle_line(&svc, "EXPLAIN fig3 3 4");
        assert!(fresh.contains("stale_core=0.0000"), "{fresh}");
        let _ = handle_line(&svc, "UPDATE fig3 DEL 3 11");
        let stale = handle_line(&svc, "EXPLAIN fig3 3 4");
        assert!(!stale.contains("stale_core=0.0000"), "{stale}");
    }

    #[test]
    fn malformed_updates_are_err_lines() {
        let svc = svc();
        for bad in [
            "UPDATE",
            "UPDATE fig3",
            "UPDATE fig3 ADD",
            "UPDATE fig3 ADD 1",
            "UPDATE fig3 ADD 1 2 3 4",
            "UPDATE fig3 ADD x 2",
            "UPDATE fig3 DEL 1",
            "UPDATE fig3 DEL 0 9",     // edge does not exist
            "UPDATE fig3 ADD 3 11",    // edge already exists
            "UPDATE fig3 ADD 90 91",   // endpoints missing, no weight
            "UPDATE fig3 ADDV 3 1.0",  // vertex exists
            "UPDATE fig3 ADDV 90 NaN", // non-finite weight
            "UPDATE fig3 DELV 404",
            "UPDATE fig3 REWEIGHT 404 2.0",
            "UPDATE fig3 WARP 1 2",
            "UPDATE nope ADD 1 2 1.0",
            "COMMIT",
            "COMMIT nope",
            "COMMIT fig3 extra",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad} -> {reply}");
        }
        // the graph still answers correctly after all those rejections
        let ok = handle_line(&svc, "QUERY fig3 3 4");
        assert!(ok.contains("count=4"), "{ok}");
    }

    #[test]
    fn errors_are_err_lines() {
        let svc = svc();
        for bad in [
            "QUERY nope 3 4",
            "QUERY fig3 0 4",
            "QUERY fig3 3",
            "QUERY fig3 3 4 warp",
            "NEXT 999",
            "CLOSE abc",
            "GEN x unknown 1 2 3",
            "FROBNICATE",
        ] {
            let reply = handle_line(&svc, bad);
            assert!(reply.starts_with("ERR "), "{bad} -> {reply}");
        }
        assert_eq!(handle_line(&svc, ""), "");
        assert_eq!(handle_line(&svc, "# comment"), "");
        assert!(handle_line(&svc, "HELP").contains("QUERY"));
    }
}
