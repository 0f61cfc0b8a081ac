//! Minimal Prometheus text-exposition (format 0.0.4) builder.
//!
//! Just enough of the format for a std-only scrape surface: `# HELP` /
//! `# TYPE` headers, counter/gauge samples with optional labels, and
//! cumulative histogram series (`_bucket{le=...}` + `_sum` + `_count`)
//! rendered from a [`HistogramSnapshot`]. Every emitted line is either a
//! comment or `name{labels} value` — the shape the observability tests
//! re-parse line by line.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;

/// The `le` boundaries (inclusive upper bounds, nanoseconds) histogram
/// series are rendered at: `2^k - 1` for k = 10..=31, i.e. ~1 µs to
/// ~2.1 s. These are exact bucket boundaries of the log-linear
/// histogram, so cumulative counts are exact, not interpolated.
pub const LATENCY_LE_BOUNDS_NS: [u64; 22] = {
    let mut bounds = [0u64; 22];
    let mut i = 0;
    while i < 22 {
        bounds[i] = (1u64 << (10 + i)) - 1;
        i += 1;
    }
    bounds
};

/// Accumulates exposition lines; [`PromText::finish`] yields the body.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

/// Escapes a label *value* per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn format_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl PromText {
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits the `# HELP` / `# TYPE` header for a metric family. Call
    /// once per family, before its samples.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Emits one integer sample (counter or gauge body line).
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let _ = writeln!(self.buf, "{name}{} {value}", format_labels(labels));
    }

    /// Emits one floating-point sample.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(self.buf, "{name}{} {value}", format_labels(labels));
    }

    /// Emits a full cumulative histogram family body for one label set:
    /// `_bucket` lines at [`LATENCY_LE_BOUNDS_NS`] plus `+Inf`, then
    /// `_sum` and `_count`. The family `# TYPE histogram` header must
    /// have been emitted by the caller (once, before all label sets).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        self.histogram_in(name, labels, snap, |ns| ns.to_string());
    }

    /// [`PromText::histogram`] for a family named in Prometheus' base
    /// unit (`*_seconds`): the same nanosecond samples and exact bucket
    /// boundaries, with the `le` bounds and `_sum` rendered in seconds.
    pub fn histogram_seconds(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) {
        self.histogram_in(name, labels, snap, |ns| (ns as f64 / 1e9).to_string());
    }

    /// The histogram body, with `unit` rendering nanosecond bounds and sum.
    fn histogram_in(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        unit: fn(u64) -> String,
    ) {
        for le in LATENCY_LE_BOUNDS_NS {
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let le_s = unit(le);
            with_le.push(("le", &le_s));
            let _ = writeln!(
                self.buf,
                "{name}_bucket{} {}",
                format_labels(&with_le),
                snap.count_le(le)
            );
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        let _ = writeln!(
            self.buf,
            "{name}_bucket{} {}",
            format_labels(&with_inf),
            snap.count()
        );
        let _ = writeln!(
            self.buf,
            "{name}_sum{} {}",
            format_labels(labels),
            unit(snap.sum())
        );
        let _ = writeln!(
            self.buf,
            "{name}_count{} {}",
            format_labels(labels),
            snap.count()
        );
    }

    /// The accumulated exposition body (newline-terminated lines).
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn samples_render_with_labels_and_escaping() {
        let mut p = PromText::new();
        p.header("ic_queries_total", "Total queries.", "counter");
        p.sample("ic_queries_total", &[], 7);
        p.sample("ic_io_bytes_total", &[("graph", "a\"b\\c\nd")], 42);
        p.sample_f64("ic_hit_rate", &[("shard", "0")], 0.25);
        let out = p.finish();
        assert!(out.contains("# TYPE ic_queries_total counter"));
        assert!(out.contains("ic_queries_total 7"));
        assert!(out.contains("ic_io_bytes_total{graph=\"a\\\"b\\\\c\\nd\"} 42"));
        assert!(out.contains("ic_hit_rate{shard=\"0\"} 0.25"));
        // every line is a comment or name{...} value
        for line in out.lines() {
            assert!(!line.is_empty());
            assert!(line.starts_with('#') || line.split_whitespace().count() >= 2);
        }
    }

    #[test]
    fn histogram_series_is_cumulative_and_counts_match() {
        let h = Histogram::new();
        for v in [500u64, 2000, 2000, 1 << 15, 1 << 25] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut p = PromText::new();
        p.header("ic_lat_ns", "Latency.", "histogram");
        p.histogram("ic_lat_ns", &[("class", "cold")], &snap);
        let out = p.finish();
        let buckets: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), LATENCY_LE_BOUNDS_NS.len() + 1);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 5, "+Inf bucket holds all");
        assert!(out.contains("ic_lat_ns_count{class=\"cold\"} 5"));
        assert!(out.contains(&format!("ic_lat_ns_sum{{class=\"cold\"}} {}", snap.sum())));
        // the first boundary (1023 ns) holds exactly the 500 ns sample
        assert!(out.contains("le=\"1023\"} 1"), "{out}");
    }

    #[test]
    fn seconds_histogram_rescales_bounds_and_sum_only() {
        let h = Histogram::new();
        for v in [500u64, 1_500_000_000] {
            h.record(v);
        }
        let mut p = PromText::new();
        p.header("ic_write_seconds", "Write time.", "histogram");
        p.histogram_seconds("ic_write_seconds", &[], &h.snapshot());
        let out = p.finish();
        assert!(
            out.contains("ic_write_seconds_bucket{le=\"0.000001023\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("ic_write_seconds_bucket{le=\"+Inf\"} 2"),
            "{out}"
        );
        assert!(out.contains("ic_write_seconds_sum 1.5000005\n"), "{out}");
        assert!(out.contains("ic_write_seconds_count 2\n"), "{out}");
    }
}
