//! Prometheus text-format exposition.
//!
//! Counter names in this workspace are computed strings (e.g.
//! `fast-user/write-protect/deliver_p50`) that are not legal Prometheus
//! metric names, so the exposition uses fixed metric families and carries
//! the real identifiers in labels — `efex_counter{component=…,name=…}` —
//! which keeps the mapping *lossless*: every `StatsSnapshot` counter and
//! every `Histogram` field round-trips through the text format exactly
//! (values are emitted as decimal `u64`, never floats).
//!
//! Histograms follow the Prometheus convention: cumulative `_bucket` series
//! with inclusive `le` upper bounds plus `le="+Inf"`, and `_sum`/`_count`
//! series; `_min`/`_max` gauges carry the two fields the convention has no
//! slot for.
//!
//! [`parse`] reads the format back: the tests below use it to prove the
//! mapping lossless, and tooling can consume a scrape without a Prometheus
//! server in the loop. It accepts the subset of the text format
//! the renderer emits: `# TYPE` comments (kept), other comments (skipped),
//! and sample lines `family{label="value",…} value` with escaped label
//! values (`\\`, `\"`, `\n`). Sample values are kept as raw text so
//! integer counters round-trip exactly via [`PromSample::value_u64`].

use std::fmt;

use efex_trace::Histogram;

use crate::monitor::HealthMonitor;
use crate::registry::{MetricKind, Registry, Sample};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn sample_labels(s: &Sample) -> String {
    let mut labels = format!(
        "component=\"{}\",name=\"{}\"",
        escape_label(&s.component),
        escape_label(&s.name)
    );
    if let Some(t) = s.tenant {
        labels.push_str(&format!(",tenant=\"{t}\""));
    }
    labels
}

fn render_kind(out: &mut String, reg: &Registry, kind: MetricKind) {
    let family = match kind {
        MetricKind::Counter => "efex_counter",
        MetricKind::Gauge => "efex_gauge",
    };
    let samples: Vec<&Sample> = reg.samples().iter().filter(|s| s.kind == kind).collect();
    if samples.is_empty() {
        return;
    }
    out.push_str(&format!("# TYPE {family} {}\n", kind.as_str()));
    for s in samples {
        out.push_str(&format!("{family}{{{}}} {}\n", sample_labels(s), s.value));
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let label = format!("name=\"{}\"", escape_label(name));
    let mut cumulative = 0u64;
    for (_lo, hi, count) in h.nonzero_buckets() {
        cumulative += count;
        // Buckets are half-open [lo, hi); Prometheus `le` is inclusive, so
        // the boundary is hi - 1 — which `Histogram::bucket_index` maps
        // straight back to the same bucket on re-parse.
        out.push_str(&format!(
            "efex_histogram_bucket{{{label},le=\"{}\"}} {cumulative}\n",
            hi - 1
        ));
    }
    out.push_str(&format!(
        "efex_histogram_bucket{{{label},le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!("efex_histogram_sum{{{label}}} {}\n", h.sum()));
    out.push_str(&format!("efex_histogram_count{{{label}}} {}\n", h.count()));
    if let (Some(min), Some(max)) = (h.min(), h.max()) {
        out.push_str(&format!("efex_histogram_min{{{label}}} {min}\n"));
        out.push_str(&format!("efex_histogram_max{{{label}}} {max}\n"));
    }
}

/// Renders a registry in Prometheus text format.
pub fn registry_to_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    render_kind(&mut out, reg, MetricKind::Counter);
    render_kind(&mut out, reg, MetricKind::Gauge);
    if !reg.histograms().is_empty() {
        out.push_str("# TYPE efex_histogram histogram\n");
        for (name, h) in reg.histograms() {
            render_histogram(&mut out, name, h);
        }
    }
    out
}

/// Renders a monitor — its registry plus the health-plane summary series
/// (`efex_health_findings`, `efex_health_evaluations`).
pub fn to_prometheus(mon: &HealthMonitor) -> String {
    let mut out = registry_to_prometheus(mon.registry_ref());
    out.push_str("# TYPE efex_health_findings gauge\n");
    out.push_str(&format!("efex_health_findings {}\n", mon.findings().len()));
    out.push_str("# TYPE efex_health_evaluations counter\n");
    out.push_str(&format!("efex_health_evaluations {}\n", mon.evaluations()));
    out
}

/// One scraped sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric family name (e.g. `"efex_counter"`).
    pub family: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value, verbatim as printed.
    pub raw_value: String,
}

impl PromSample {
    /// Looks a label up by name.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value as an exact `u64` (fails on floats and negatives).
    pub fn value_u64(&self) -> Option<u64> {
        self.raw_value.parse().ok()
    }
}

/// A parsed scrape: samples in source order plus the `# TYPE` declarations.
#[derive(Clone, Debug, Default)]
pub struct PromText {
    samples: Vec<PromSample>,
    types: Vec<(String, String)>,
}

impl PromText {
    /// All samples, in source order.
    pub fn samples(&self) -> &[PromSample] {
        &self.samples
    }

    /// The declared type of a family (`"counter"`, `"gauge"`, …).
    pub fn family_type(&self, family: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(f, _)| f == family)
            .map(|(_, t)| t.as_str())
    }

    /// The first sample of `family` whose labels include every given pair
    /// (extra labels on the sample are allowed).
    pub fn get(&self, family: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples
            .iter()
            .find(|s| s.family == family && labels.iter().all(|&(n, v)| s.label(n) == Some(v)))
    }

    /// Samples of one family, in source order.
    pub fn family(&self, family: &str) -> Vec<&PromSample> {
        self.samples.iter().filter(|s| s.family == family).collect()
    }
}

/// A scrape failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prom text line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PromError {}

/// Parses Prometheus text exposition format.
///
/// # Errors
///
/// Returns [`PromError`] (with the offending line number) on malformed
/// sample lines or unterminated label blocks.
pub fn parse(text: &str) -> Result<PromText, PromError> {
    let mut out = PromText::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let err = |message: String| PromError {
            line: lineno,
            message,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let family = parts
                    .next()
                    .ok_or_else(|| err("# TYPE without a family name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err(format!("# TYPE {family} without a type")))?;
                out.types.push((family.to_string(), kind.to_string()));
            }
            continue; // HELP and free-form comments are skipped
        }
        out.samples.push(parse_sample(line).map_err(err)?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => (&line[..brace], &line[brace..]),
        None => match line.find(char::is_whitespace) {
            Some(sp) => (&line[..sp], &line[sp..]),
            None => return Err("sample line has no value".into()),
        },
    };
    let family = name_part.trim();
    if family.is_empty() {
        return Err("sample line has no metric name".into());
    }
    let (labels, value_part) = if let Some(body) = rest.strip_prefix('{') {
        let (labels, after) = parse_labels(body)?;
        (labels, after)
    } else {
        (Vec::new(), rest)
    };
    let raw_value = value_part.trim();
    if raw_value.is_empty() {
        return Err(format!("sample {family} has no value"));
    }
    // Timestamps (a second whitespace-separated field) are not emitted by
    // this workspace; reject rather than mis-read.
    if raw_value.split_whitespace().count() != 1 {
        return Err(format!("sample {family} has trailing fields"));
    }
    Ok(PromSample {
        family: family.to_string(),
        labels,
        raw_value: raw_value.to_string(),
    })
}

/// Parsed label pairs plus the remainder after the closing brace.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses `name="value",…}` (the leading `{` already consumed); returns the
/// labels and the remainder after the closing brace.
fn parse_labels(mut s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches(',').trim_start();
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or("label without '='")?;
        let name = s[..eq].trim().to_string();
        s = s[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        let mut value = String::new();
        let mut chars = s.char_indices();
        let close = loop {
            let (at, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break at,
                '\\' => match chars.next().ok_or("dangling escape")?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    other => return Err(format!("unknown escape \\{other}")),
                },
                c => value.push(c),
            }
        };
        labels.push((name, value));
        s = &s[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_trace::StatsSnapshot;

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let mut reg = Registry::new();
        reg.record_counter("gc", None, "barrier_faults", 42);
        reg.record_counter("gc", Some(3), "barrier_faults", 7);
        reg.record_gauge("fleet", None, "tenants", 16);
        let text = registry_to_prometheus(&reg);
        assert!(text.contains("# TYPE efex_counter counter\n"), "{text}");
        assert!(
            text.contains("efex_counter{component=\"gc\",name=\"barrier_faults\"} 42\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "efex_counter{component=\"gc\",name=\"barrier_faults\",tenant=\"3\"} 7\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("efex_gauge{component=\"fleet\",name=\"tenants\"} 16\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(1000);
        let mut reg = Registry::new();
        reg.record_histogram("lat", &h);
        let text = registry_to_prometheus(&reg);
        assert!(
            text.contains("efex_histogram_bucket{name=\"lat\",le=\"1\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_bucket{name=\"lat\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_sum{name=\"lat\"} 1002\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_count{name=\"lat\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_min{name=\"lat\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("efex_histogram_max{name=\"lat\"} 1000\n"),
            "{text}"
        );
    }

    #[test]
    fn awkward_names_survive_label_escaping() {
        let mut reg = Registry::new();
        reg.record_counter("trace", None, "fast-user/write-protect/deliver_p50", 91);
        reg.record_counter("odd", None, "quote\"back\\slash", 1);
        let text = registry_to_prometheus(&reg);
        assert!(
            text.contains("name=\"fast-user/write-protect/deliver_p50\"} 91"),
            "{text}"
        );
        assert!(
            text.contains("name=\"quote\\\"back\\\\slash\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn parses_families_labels_and_values() {
        let text = "\
# HELP ignored free text
# TYPE efex_counter counter
efex_counter{component=\"gc\",name=\"faults\"} 42
efex_counter{component=\"gc\",name=\"faults\",tenant=\"3\"} 7
# TYPE efex_health_findings gauge
efex_health_findings 0
";
        let scrape = parse(text).unwrap();
        assert_eq!(scrape.family_type("efex_counter"), Some("counter"));
        assert_eq!(scrape.family_type("efex_health_findings"), Some("gauge"));
        let agg = scrape
            .get("efex_counter", &[("component", "gc"), ("name", "faults")])
            .unwrap();
        assert_eq!(agg.value_u64(), Some(42));
        assert_eq!(agg.label("tenant"), None);
        let tenant = scrape
            .get("efex_counter", &[("name", "faults"), ("tenant", "3")])
            .unwrap();
        assert_eq!(tenant.value_u64(), Some(7));
        let bare = scrape.get("efex_health_findings", &[]).unwrap();
        assert!(bare.labels.is_empty());
        assert_eq!(bare.value_u64(), Some(0));
    }

    #[test]
    fn unescapes_label_values() {
        let text = "efex_counter{name=\"quote\\\"back\\\\slash\\nnl\"} 1\n";
        let scrape = parse(text).unwrap();
        assert_eq!(
            scrape.samples()[0].label("name"),
            Some("quote\"back\\slash\nnl")
        );
    }

    #[test]
    fn u64_values_round_trip_exactly() {
        let big = u64::MAX;
        let text = format!("efex_counter{{name=\"x\"}} {big}\n");
        let scrape = parse(&text).unwrap();
        assert_eq!(scrape.samples()[0].value_u64(), Some(big));
    }

    #[test]
    fn malformed_lines_carry_the_line_number() {
        let e = parse("efex_counter{name=\"x\" 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("# TYPE ok counter\nnovalue\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
    }

    fn sample_snapshot() -> StatsSnapshot {
        StatsSnapshot::new("kernel-health")
            .counter("decode_cache_hits", 12_345)
            .counter("decode_cache_misses", 6)
            .counter("fast-user/write-protect/deliver_p50", 91)
            .counter("quote\"back\\slash", 1)
            .counter("zero", 0)
            .counter("huge", u64::MAX)
    }

    fn sample_histogram() -> Histogram {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 44, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        h
    }

    #[test]
    fn every_snapshot_counter_round_trips() {
        let snap = sample_snapshot();
        let mut reg = Registry::new();
        reg.record_snapshot(None, &snap);
        reg.record_snapshot(Some(7), &snap);
        let scrape = parse(&registry_to_prometheus(&reg)).expect("exposition must parse");

        assert_eq!(scrape.family_type("efex_counter"), Some("counter"));
        for (name, value) in &snap.counters {
            let agg = scrape
                .get(
                    "efex_counter",
                    &[("component", "kernel-health"), ("name", name)],
                )
                .unwrap_or_else(|| panic!("aggregate sample for {name} missing"));
            assert_eq!(agg.value_u64(), Some(*value), "{name} (aggregate)");
            assert_eq!(agg.label("tenant"), None, "{name} must be unscoped");
            let tenant = scrape
                .get(
                    "efex_counter",
                    &[
                        ("component", "kernel-health"),
                        ("name", name),
                        ("tenant", "7"),
                    ],
                )
                .unwrap_or_else(|| panic!("tenant sample for {name} missing"));
            assert_eq!(tenant.value_u64(), Some(*value), "{name} (tenant 7)");
        }
        // Nothing extra was invented: 2 scopes × the snapshot's counters.
        assert_eq!(scrape.family("efex_counter").len(), 2 * snap.counters.len());
    }

    #[test]
    fn every_histogram_field_round_trips() {
        let h = sample_histogram();
        let mut reg = Registry::new();
        reg.record_histogram("lat", &h);
        let scrape = parse(&registry_to_prometheus(&reg)).expect("exposition must parse");

        let field = |family: &str| {
            scrape
                .get(family, &[("name", "lat")])
                .unwrap_or_else(|| panic!("{family} missing"))
                .value_u64()
                .unwrap_or_else(|| panic!("{family} not a u64"))
        };
        assert_eq!(field("efex_histogram_sum"), h.sum());
        assert_eq!(field("efex_histogram_count"), h.count());
        assert_eq!(field("efex_histogram_min"), h.min().unwrap());
        assert_eq!(field("efex_histogram_max"), h.max().unwrap());

        // De-cumulate the buckets and map each `le` boundary back to its source
        // bucket: the reconstruction must equal `nonzero_buckets()` exactly.
        let mut reconstructed = Vec::new();
        let mut previous = 0u64;
        let mut saw_inf = false;
        for b in scrape.family("efex_histogram_bucket") {
            assert_eq!(b.label("name"), Some("lat"));
            let le = b.label("le").expect("bucket without le");
            let cumulative = b.value_u64().expect("bucket count not a u64");
            if le == "+Inf" {
                assert_eq!(cumulative, h.count(), "+Inf bucket is the total");
                saw_inf = true;
                continue;
            }
            let boundary: u64 = le.parse().expect("finite le must be a u64");
            let index = Histogram::bucket_index(boundary);
            let (lo, hi) = Histogram::bucket_range(index);
            reconstructed.push((lo, hi, cumulative - previous));
            previous = cumulative;
        }
        assert!(saw_inf, "+Inf bucket missing");
        let expected: Vec<(u64, u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn gauges_keep_their_kind_through_the_scrape() {
        let mut reg = Registry::new();
        reg.record_gauge("fleet", None, "tenants", 16);
        reg.record_counter("fleet", None, "deliveries", 400);
        let scrape = parse(&registry_to_prometheus(&reg)).unwrap();
        assert_eq!(scrape.family_type("efex_gauge"), Some("gauge"));
        let g = scrape
            .get("efex_gauge", &[("component", "fleet"), ("name", "tenants")])
            .unwrap();
        assert_eq!(g.value_u64(), Some(16));
        assert!(
            scrape
                .get("efex_gauge", &[("name", "deliveries")])
                .is_none(),
            "counters must not leak into the gauge family"
        );
    }
}
