//! The counter table: every scalar the service reports, one row each.
//!
//! A row names its `STATS` header key, its `METRICS` family, its help
//! text and its kind. `STATS` and the scalar part of `METRICS` are each
//! one loop over [`TABLE`], so adding a counter is one row plus its
//! increment site.
//!
//! `Counters` is the recorder: a fixed array of relaxed atomics
//! indexed by [`Counter`], so recording is one `fetch_add` with no lock
//! and no allocation. Rows whose value another component owns (the
//! pool, the cache, the registry, the session table, the slowlog) stay
//! zero there and are read when [`crate::Service::stats`] takes a
//! snapshot. Relaxed ordering is deliberate: counters are monotone and
//! independent, and a snapshot only needs to be *eventually*
//! consistent, never a linearizable cut.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ic_obs::PromText;

use crate::planner::Algorithm;

/// One per-algorithm execution count per [`Algorithm::ALL`] entry.
const ALGORITHM_COUNT: usize = Algorithm::ALL.len();

/// What a row reports, and so how `STATS` and `METRICS` render it.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A monotone count (`TYPE counter`).
    Counter,
    /// A level that can fall (`TYPE gauge`).
    Gauge,
    /// One count per [`Algorithm::ALL`] entry: a `STATS` key named after
    /// each algorithm, an `algorithm`-labelled `METRICS` sample each.
    PerAlgorithm,
    /// A `STATS` value computed from other rows when it is rendered.
    Derived(fn(&ServiceStats) -> String),
}

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub counter: Counter,
    /// The `STATS` header key; `None` for rows only `METRICS` shows.
    pub stats: Option<&'static str>,
    /// The `METRICS` family name; `None` for rows only `STATS` shows.
    pub metric: Option<&'static str>,
    pub kind: Kind,
    /// The `METRICS` `# HELP` text.
    pub help: &'static str,
}

macro_rules! counter_table {
    ($(
        $counter:ident: $stats:expr, $metric:expr, $kind:ident $(($derive:expr))?, $help:literal;
    )*) => {
        /// A row of [`TABLE`]; its discriminant is the row's index.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $(#[doc = $help] $counter,)*
        }

        /// Every row, in `STATS` header order.
        pub const TABLE: &[Row] = &[$(Row {
            counter: Counter::$counter,
            stats: $stats,
            metric: $metric,
            kind: Kind::$kind $(($derive))?,
            help: $help,
        },)*];
    };
}

counter_table! {
    Queries: Some("queries"), Some("ic_queries_total"), Counter,
        "Queries answered.";
    CacheHits: Some("hits"), Some("ic_cache_hits_total"), Counter,
        "Exact result-cache hits.";
    CacheMisses: Some("misses"), Some("ic_cache_misses_total"), Counter,
        "Result-cache misses.";
    Coalesced: Some("coalesced"), Some("ic_coalesced_total"), Counter,
        "Queries coalesced onto an identical in-flight execution.";
    PrefixServed: Some("prefix_served"), Some("ic_prefix_served_total"), Counter,
        "Queries served by slicing a larger-k cached answer.";
    Batches: Some("batches"), Some("ic_batches_total"), Counter,
        "Batch requests.";
    WorkerPanics: Some("worker_panics"), Some("ic_worker_panics_total"), Counter,
        "Jobs that panicked (workers survive).";
    HitRate: Some("hit_rate"), None, Derived(|s| format!("{:.4}", s.hit_rate())),
        "Share of queries answered from the result cache.";
    Executions: None, Some("ic_executions_total"), PerAlgorithm,
        "Algorithm executions by planner choice.";
    MeanLatencyMicros: Some("mean_latency_micros"), None,
        Derived(|s| s.mean_latency().as_micros().to_string()),
        "Mean wall-clock per query, microseconds.";
    SessionsOpened: Some("sessions_opened"), Some("ic_sessions_opened_total"), Counter,
        "Progressive sessions opened.";
    SessionsClosed: Some("sessions_closed"), Some("ic_sessions_closed_total"), Counter,
        "Progressive sessions closed.";
    SessionsOpen: Some("sessions_open"), Some("ic_sessions_open"), Gauge,
        "Progressive sessions open.";
    Streamed: Some("streamed"), Some("ic_communities_streamed_total"), Counter,
        "Communities streamed by sessions.";
    Graphs: Some("graphs"), Some("ic_graphs"), Gauge,
        "Registered graphs.";
    CachedEntries: Some("cached_entries"), Some("ic_cache_entries"), Gauge,
        "Result-cache entries.";
    RenderedBytes: Some("rendered_bytes"), Some("ic_cache_rendered_bytes"), Gauge,
        "Wire-text bytes held by the renderings of re-used cache entries.";
    AcceptErrors: Some("accept_errors"), Some("ic_accept_errors_total"), Counter,
        "Transient accept-loop failures the server survived.";
    WriteErrors: Some("write_errors"), Some("ic_write_errors_total"), Counter,
        "Client-socket writes that failed; each closed its connection.";
    LiveConnections: Some("live_connections"), Some("ic_live_connections"), Gauge,
        "Protocol connections currently being served.";
    ConnectionsTotal: None, Some("ic_connections_total"), Counter,
        "Protocol connections accepted.";
    ReplyBytes: None, Some("ic_reply_bytes_total"), Counter,
        "Reply bytes written to client sockets.";
    PoolWorkers: None, Some("ic_pool_workers"), Gauge,
        "Worker threads in the pool.";
    PoolQueueDepth: None, Some("ic_pool_queue_depth"), Gauge,
        "Jobs submitted but not yet picked up by a worker.";
    PoolBusyNs: None, Some("ic_pool_busy_ns_total"), Counter,
        "Cumulative nanoseconds workers spent executing jobs.";
    SlowQueries: None, Some("ic_slow_queries_total"), Counter,
        "Queries that crossed the slowlog threshold.";
    QueryLatencyNs: None, None, Counter,
        "Wall-clock spent answering queries, nanoseconds (feeds mean_latency_micros).";
}

const ROWS: usize = TABLE.len();

/// The recorder: one relaxed atomic per row, plus one per algorithm.
#[derive(Debug)]
pub(crate) struct Counters {
    values: [AtomicU64; ROWS],
    executed: [AtomicU64; ALGORITHM_COUNT],
}

impl Counters {
    pub(crate) fn new() -> Self {
        Counters {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
            executed: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.values[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, counter: Counter, n: u64) {
        self.values[counter as usize].fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn add_execution(&self, algorithm: Algorithm) {
        self.executed[algorithm.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every row: through `read` where it returns a value (rows
    /// another component owns), from the recorder otherwise.
    pub(crate) fn snapshot(&self, read: impl Fn(Counter) -> Option<u64>) -> ServiceStats {
        ServiceStats {
            values: std::array::from_fn(|i| {
                read(TABLE[i].counter).unwrap_or_else(|| self.values[i].load(Ordering::Relaxed))
            }),
            executed: std::array::from_fn(|i| self.executed[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time reading of every row; index it with a [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    values: [u64; ROWS],
    executed: [u64; ALGORITHM_COUNT],
}

impl Index<Counter> for ServiceStats {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.values[counter as usize]
    }
}

impl ServiceStats {
    /// Executions of one algorithm.
    pub fn executions(&self, algorithm: Algorithm) -> u64 {
        self.executed[algorithm.index()]
    }

    /// Fraction of queries answered from cache; 0.0 before any query.
    pub fn hit_rate(&self) -> f64 {
        match self[Counter::Queries] {
            0 => 0.0,
            queries => self[Counter::CacheHits] as f64 / queries as f64,
        }
    }

    /// Mean latency per query; zero before any query.
    pub fn mean_latency(&self) -> Duration {
        self[Counter::QueryLatencyNs]
            .checked_div(self[Counter::Queries])
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Appends the `STATS` header fields, ` key=value` each, in table
    /// order.
    pub(crate) fn write_stats(&self, out: &mut String) {
        for row in TABLE {
            match (row.kind, row.stats) {
                (Kind::PerAlgorithm, _) => {
                    for algo in Algorithm::ALL {
                        out.push_str(&format!(" {}={}", algo.name(), self.executions(algo)));
                    }
                }
                (Kind::Derived(value), Some(key)) => {
                    out.push_str(&format!(" {key}={}", value(self)));
                }
                (_, Some(key)) => out.push_str(&format!(" {key}={}", self[row.counter])),
                (_, None) => {}
            }
        }
    }

    /// Appends the `# HELP`/`# TYPE` header and the sample(s) of every
    /// row `METRICS` shows.
    pub(crate) fn write_metrics(&self, p: &mut PromText) {
        for row in TABLE {
            let Some(name) = row.metric else {
                continue;
            };
            let kind = if matches!(row.kind, Kind::Gauge) {
                "gauge"
            } else {
                "counter"
            };
            p.header(name, row.help, kind);
            if matches!(row.kind, Kind::PerAlgorithm) {
                for algo in Algorithm::ALL {
                    p.sample(name, &[("algorithm", algo.name())], self.executions(algo));
                }
            } else {
                p.sample(name, &[], self[row.counter]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stats_key_and_metrics_name_is_unique() {
        let mut names: Vec<&str> = TABLE
            .iter()
            .flat_map(|row| row.stats.into_iter().chain(row.metric))
            .chain(Algorithm::ALL.iter().map(|a| a.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a STATS key or METRICS name repeats");
    }

    #[test]
    fn counters_accumulate_and_derive() {
        let c = Counters::new();
        let empty = c.snapshot(|_| None);
        assert!(TABLE.iter().all(|row| empty[row.counter] == 0));
        assert_eq!(
            (empty.hit_rate(), empty.mean_latency()),
            (0.0, Duration::ZERO)
        );
        c.add(Counter::Queries, 3);
        c.add(Counter::CacheHits, 1);
        c.add(Counter::QueryLatencyNs, 42_000);
        c.add_execution(Algorithm::Forward);
        c.add(Counter::LiveConnections, 2);
        c.sub(Counter::LiveConnections, 1);
        let s = c.snapshot(|counter| (counter == Counter::Graphs).then_some(7));
        assert_eq!(s[Counter::Queries], 3);
        assert_eq!(s[Counter::LiveConnections], 1);
        assert_eq!(s[Counter::Graphs], 7, "read rows come from their owner");
        assert_eq!(s.executions(Algorithm::Forward), 1);
        assert_eq!(s.executions(Algorithm::Truss), 0);
        assert_eq!(s.mean_latency(), Duration::from_nanos(14_000));
        let mut head = String::new();
        s.write_stats(&mut head);
        assert!(head.starts_with(" queries=3 hits=1 "), "{head}");
        assert!(head.contains(" hit_rate=0.3333 local_search=0 "), "{head}");
        assert!(head.contains(" forward=1 "), "{head}");
        assert!(head.contains(" mean_latency_micros=14 "), "{head}");
    }
}
