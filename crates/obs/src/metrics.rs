//! Prometheus-style metrics: counters, gauges and fixed-bucket log-scale
//! histograms with deterministic text-format exposition.
//!
//! [`MetricsRegistry`] is the *online* counterpart of the offline
//! [`crate::Recorder`]: where the recorder keeps every span for
//! post-hoc trace inspection, the registry keeps only aggregates — a
//! monotonic [`counter`](MetricsRegistry::counter_add), a last-write-wins
//! [`gauge`](MetricsRegistry::gauge_set) and a fixed-bucket
//! [`histogram`](MetricsRegistry::histogram_observe) from which p50/p90/p99
//! are derivable — sized for a service answering configuration queries
//! rather than a bench run writing a trace file.
//!
//! Design constraints, in order:
//!
//! 1. **Dependency-free.** Plain `std`, like the rest of the workspace.
//! 2. **Deterministic exposition.** [`MetricsRegistry::render`] emits
//!    families sorted by name and series sorted by label set, so two
//!    registries fed the same observations produce byte-identical output
//!    (the property every golden test in this repo leans on).
//! 3. **Valid Prometheus text format.** `# HELP`/`# TYPE` headers, label
//!    escaping, cumulative monotone histogram buckets with `+Inf`, `_sum`
//!    and `_count`. [`validate_exposition`] checks those invariants
//!    structurally, mirroring
//!    [`validate_chrome_trace`](crate::validate_chrome_trace).
//!
//! # Examples
//!
//! ```
//! use pulp_obs::metrics::{MetricsRegistry, validate_exposition};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("requests_total", "Requests served.", &[("endpoint", "/predict")], 1.0);
//! reg.histogram_observe("latency_seconds", "Request latency.", &[], 0.003);
//! let text = reg.render();
//! validate_exposition(&text).unwrap();
//! assert!(text.contains("requests_total{endpoint=\"/predict\"} 1"));
//! ```

use crate::recorder::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A sorted, owned label set (the identity of one series in a family).
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// Default histogram buckets: log-scale, 5 per decade across 1e-6..=1e3
/// (covers microseconds to ~17 minutes when observations are seconds, and
/// equally serves cycle counts scaled down by 1e6). 46 buckets total.
pub fn default_buckets() -> Vec<f64> {
    log_buckets(1e-6, 1e3, 5)
}

/// Log-spaced bucket upper bounds: `per_decade` buckets per factor of ten
/// from `min` to `max` inclusive. The `+Inf` bucket is implicit — every
/// histogram gets it automatically.
///
/// # Panics
///
/// Panics if `min`/`max` are non-positive or out of order, or if
/// `per_decade` is zero — bucket layouts are compile-time decisions and a
/// bad one is a programming error.
pub fn log_buckets(min: f64, max: f64, per_decade: usize) -> Vec<f64> {
    assert!(
        min > 0.0 && max > min && per_decade > 0,
        "invalid bucket spec: min {min}, max {max}, per_decade {per_decade}"
    );
    let step = 10f64.powf(1.0 / per_decade as f64);
    let mut bounds = Vec::new();
    let mut b = min;
    // Multiplicative stepping accumulates error; regenerate from the
    // exponent each time so bucket bounds are reproducible.
    let mut i = 0u32;
    while b <= max * (1.0 + 1e-12) {
        bounds.push(b);
        i += 1;
        b = min * step.powi(i as i32);
    }
    bounds
}

#[derive(Debug, Clone)]
struct HistogramData {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts, same length as `bounds` plus one
    /// trailing slot for `+Inf`.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl HistogramData {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.sum = 0.0;
        self.count = 0;
    }

    fn merge_from(&mut self, other: &HistogramData) {
        debug_assert_eq!(self.bounds, other.bounds, "windowed slots share bounds");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The `q`-quantile (0..=1) estimated from the bucket layout: the upper
    /// bound of the bucket holding the target rank (`+Inf` degrades to the
    /// last finite bound). `None` while empty.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.bounds.last().copied().unwrap_or(f64::INFINITY)
                });
            }
        }
        None
    }
}

/// Layout of a sliding-window series: total window length, the number of
/// ring slots it is divided into, and (for histograms) the bucket bounds.
///
/// The window is a ring of `slots` sub-aggregates, each covering
/// `window_secs / slots` seconds. Observations rotate the slot they land in
/// (resetting it when its epoch is stale); reads merge only the slots whose
/// epoch falls inside the window anchored at the most recent observation —
/// time comes from the caller, so behaviour is fully deterministic and the
/// "last W seconds" view never depends on a hidden wall clock.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Ring slots the window is divided into (resolution of expiry).
    pub slots: usize,
    /// Histogram bucket upper bounds (ignored by windowed gauges).
    pub buckets: Vec<f64>,
}

impl Default for WindowConfig {
    /// One minute over six 10-second slots, [`default_buckets`] layout.
    fn default() -> Self {
        Self {
            window_secs: 60,
            slots: 6,
            buckets: default_buckets(),
        }
    }
}

/// One ring slot of a windowed series: the slot epoch (absolute slot index
/// since time zero) plus the sub-aggregate for that slot.
#[derive(Debug, Clone)]
struct WindowSlot<T> {
    epoch: u64,
    data: T,
}

#[derive(Debug, Clone)]
struct WindowedHistogram {
    slot_secs: u64,
    slots: Vec<WindowSlot<HistogramData>>,
}

impl WindowedHistogram {
    fn new(cfg: &WindowConfig) -> Self {
        let n = cfg.slots.max(1);
        let slot_secs = (cfg.window_secs / n as u64).max(1);
        Self {
            slot_secs,
            slots: (0..n)
                .map(|_| WindowSlot {
                    epoch: 0,
                    data: HistogramData::new(cfg.buckets.clone()),
                })
                .collect(),
        }
    }

    fn observe(&mut self, value: f64, now_s: u64) {
        let epoch = now_s / self.slot_secs;
        let n = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % n) as usize];
        if epoch < slot.epoch {
            return; // time went backwards; drop rather than pollute a slot
        }
        if epoch > slot.epoch {
            slot.data.reset();
            slot.epoch = epoch;
        }
        slot.data.observe(value);
    }

    /// All live slots merged: those within the window anchored at the most
    /// recent observed epoch.
    fn merged(&self) -> HistogramData {
        let n = self.slots.len() as u64;
        let anchor = self.slots.iter().map(|s| s.epoch).max().unwrap_or(0);
        let mut out = HistogramData::new(self.slots[0].data.bounds.clone());
        for slot in &self.slots {
            if slot.epoch + n > anchor {
                out.merge_from(&slot.data);
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
struct WindowedGauge {
    slot_secs: u64,
    slots: Vec<WindowSlot<Option<f64>>>,
}

impl WindowedGauge {
    fn new(cfg: &WindowConfig) -> Self {
        let n = cfg.slots.max(1);
        let slot_secs = (cfg.window_secs / n as u64).max(1);
        Self {
            slot_secs,
            slots: (0..n)
                .map(|_| WindowSlot {
                    epoch: 0,
                    data: None,
                })
                .collect(),
        }
    }

    fn observe(&mut self, value: f64, now_s: u64) {
        if !value.is_finite() {
            return;
        }
        let epoch = now_s / self.slot_secs;
        let n = self.slots.len() as u64;
        let slot = &mut self.slots[(epoch % n) as usize];
        if epoch < slot.epoch {
            return;
        }
        if epoch > slot.epoch {
            slot.data = None;
            slot.epoch = epoch;
        }
        slot.data = Some(match slot.data {
            Some(prev) => prev.max(value),
            None => value,
        });
    }

    /// Peak over the live slots, `None` before the first observation.
    fn peak(&self) -> Option<f64> {
        let n = self.slots.len() as u64;
        let anchor = self.slots.iter().map(|s| s.epoch).max().unwrap_or(0);
        self.slots
            .iter()
            .filter(|s| s.epoch + n > anchor)
            .filter_map(|s| s.data)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Quantiles a windowed histogram exposes, as (label value, q) pairs.
const WINDOW_QUANTILES: [(&str, f64); 3] = [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)];

#[derive(Debug, Clone)]
enum MetricData {
    Counter(f64),
    Gauge(f64),
    Histogram(HistogramData),
    WindowedHistogram(WindowedHistogram),
    WindowedGauge(WindowedGauge),
}

#[derive(Debug, Clone)]
struct Family {
    help: String,
    kind: &'static str,
    series: BTreeMap<LabelSet, MetricData>,
}

/// A registry of metric families, addressed by name + label set.
///
/// Unlike typical Prometheus client libraries there is no global state and
/// no handles: every operation names its family and labels directly, and
/// the registry is plain data (`Clone`), so ownership follows the same
/// pass-it-down discipline as [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &'static str) -> &mut Family {
        assert!(
            valid_metric_name(name),
            "invalid metric name `{name}` (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
        );
        let f = self.families.entry(name.to_string()).or_insert(Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            f.kind, kind,
            "metric `{name}` registered as {} but used as {kind}",
            f.kind
        );
        f
    }

    /// Adds `delta` (must be non-negative — counters are monotonic) to the
    /// counter `name{labels}`, creating it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics on a negative delta or a name already registered with a
    /// different type.
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: f64) {
        assert!(
            delta >= 0.0,
            "counter `{name}` cannot decrease (delta {delta})"
        );
        let set = label_set(labels);
        match self
            .family(name, help, "counter")
            .series
            .entry(set)
            .or_insert(MetricData::Counter(0.0))
        {
            MetricData::Counter(v) => *v += delta,
            _ => unreachable!("family() enforces the kind"),
        }
    }

    /// Sets the gauge `name{labels}` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let set = label_set(labels);
        match self
            .family(name, help, "gauge")
            .series
            .entry(set)
            .or_insert(MetricData::Gauge(0.0))
        {
            MetricData::Gauge(v) => *v = value,
            _ => unreachable!("family() enforces the kind"),
        }
    }

    /// Records `value` into the histogram `name{labels}` using the
    /// [`default_buckets`] layout. Non-finite values are dropped.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.histogram_observe_with(name, help, labels, value, default_buckets);
    }

    /// [`histogram_observe`](Self::histogram_observe) with an explicit
    /// bucket layout, applied only when the series is first created (a
    /// histogram's buckets are fixed for its lifetime).
    pub fn histogram_observe_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
        buckets: impl FnOnce() -> Vec<f64>,
    ) {
        let set = label_set(labels);
        match self
            .family(name, help, "histogram")
            .series
            .entry(set)
            .or_insert_with(|| MetricData::Histogram(HistogramData::new(buckets())))
        {
            MetricData::Histogram(h) => h.observe(value),
            _ => unreachable!("family() enforces the kind"),
        }
    }

    /// Records `value` into the sliding-window histogram `name{labels}` at
    /// caller time `now_s` (seconds; e.g. seconds since service start).
    /// `config` gives the window layout and is applied only when the series
    /// is first created. The series renders as a `gauge` family of
    /// p50/p90/p99 samples labelled `quantile`, computed over the window
    /// anchored at the most recent observation.
    pub fn windowed_observe_with(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
        now_s: u64,
        config: impl FnOnce() -> WindowConfig,
    ) {
        let set = label_set(labels);
        match self
            .family(name, help, "window_histogram")
            .series
            .entry(set)
            .or_insert_with(|| MetricData::WindowedHistogram(WindowedHistogram::new(&config())))
        {
            MetricData::WindowedHistogram(w) => w.observe(value, now_s),
            _ => unreachable!("family() enforces the kind"),
        }
    }

    /// Records `value` into the sliding-window peak gauge `name{labels}` at
    /// caller time `now_s`. The rendered sample is the maximum observed
    /// value over the window anchored at the most recent observation —
    /// a "worst level recently" companion to a last-write-wins gauge.
    pub fn windowed_gauge_set(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
        now_s: u64,
    ) {
        let set = label_set(labels);
        match self
            .family(name, help, "window_gauge")
            .series
            .entry(set)
            .or_insert_with(|| {
                MetricData::WindowedGauge(WindowedGauge::new(&WindowConfig::default()))
            }) {
            MetricData::WindowedGauge(w) => w.observe(value, now_s),
            _ => unreachable!("family() enforces the kind"),
        }
    }

    /// Windowed-histogram quantile over the live window, `None` for a
    /// missing series or an empty window.
    pub fn windowed_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        match self.families.get(name)?.series.get(&label_set(labels))? {
            MetricData::WindowedHistogram(w) => w.merged().quantile(q),
            _ => None,
        }
    }

    /// Number of observations inside a windowed histogram's live window.
    pub fn windowed_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.series.get(&label_set(labels))? {
            MetricData::WindowedHistogram(w) => Some(w.merged().count),
            _ => None,
        }
    }

    /// Current value of a counter or gauge series, if it exists. Windowed
    /// gauges report their live-window peak.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.series.get(&label_set(labels))? {
            MetricData::Counter(v) | MetricData::Gauge(v) => Some(*v),
            MetricData::WindowedGauge(w) => w.peak(),
            MetricData::Histogram(_) | MetricData::WindowedHistogram(_) => None,
        }
    }

    /// Observation count of a histogram series, if it exists.
    pub fn histogram_count(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.series.get(&label_set(labels))? {
            MetricData::Histogram(h) => Some(h.count),
            _ => None,
        }
    }

    /// Bucket-resolution quantile (e.g. `0.5`, `0.9`, `0.99`) of a
    /// histogram series; `None` for missing or empty series.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        match self.families.get(name)?.series.get(&label_set(labels))? {
            MetricData::Histogram(h) => h.quantile(q),
            _ => None,
        }
    }

    /// Number of metric families registered.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Returns `true` when no family has been registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Folds a [`Recorder`]'s spans and counters into this registry:
    ///
    /// * every **closed** span becomes an observation of
    ///   `<prefix>_stage_ticks{stage=...}` where `stage` is the span's
    ///   category (its name for uncategorised spans) — sample-level span
    ///   names stay out of the label set to keep cardinality bounded;
    /// * every recorder counter's **last** value becomes the gauge
    ///   `<prefix>_counter{name=...}` (recorder counters are samples of a
    ///   level, so a gauge is the faithful mapping).
    ///
    /// This is the offline→online bridge: run an instrumented pipeline
    /// stage with a `Recorder`, then fold the result into the service's
    /// registry so `/metrics` shows per-stage latency histograms.
    pub fn observe_recorder(&mut self, prefix: &str, rec: &Recorder) {
        for span in rec.spans() {
            let stage = if span.cat.is_empty() {
                span.name.as_str()
            } else {
                span.cat.as_str()
            };
            let name = format!("{prefix}_stage_ticks");
            self.histogram_observe(
                &name,
                "Span durations folded from a Recorder, in clock ticks.",
                &[("stage", stage)],
                span.duration() as f64,
            );
        }
        for (cname, samples) in rec.counters() {
            if let Some(last) = samples.last() {
                let name = format!("{prefix}_counter");
                self.gauge_set(
                    &name,
                    "Final values of Recorder counters.",
                    &[("name", cname)],
                    last.value,
                );
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// deterministically: families sorted by name, series sorted by label
    /// set, histogram buckets in ascending `le` order ending at `+Inf`.
    /// Windowed series render as `gauge` families: quantile samples (with a
    /// `quantile` label) for windowed histograms, the live-window peak for
    /// windowed gauges; empty windows render no samples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let exposed_kind = match family.kind {
                "window_histogram" | "window_gauge" => "gauge",
                k => k,
            };
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {exposed_kind}");
            for (labels, data) in &family.series {
                match data {
                    MetricData::Counter(v) | MetricData::Gauge(v) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels), fmt_value(*v));
                    }
                    MetricData::WindowedHistogram(w) => {
                        let merged = w.merged();
                        for (label, q) in WINDOW_QUANTILES {
                            if let Some(v) = merged.quantile(q) {
                                let _ = writeln!(
                                    out,
                                    "{name}{} {}",
                                    render_labels_with(labels, "quantile", label),
                                    fmt_value(v)
                                );
                            }
                        }
                    }
                    MetricData::WindowedGauge(w) => {
                        if let Some(v) = w.peak() {
                            let _ =
                                writeln!(out, "{name}{} {}", render_labels(labels), fmt_value(v));
                        }
                    }
                    MetricData::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &bound) in h.bounds.iter().enumerate() {
                            cumulative += h.counts[i];
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels_with(labels, "le", &fmt_value(bound))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels_with(labels, "le", "+Inf"),
                            h.count
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels),
                            fmt_value(h.sum)
                        );
                        let _ = writeln!(out, "{name}_count{} {}", render_labels(labels), h.count);
                    }
                }
            }
        }
        out
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes HELP text: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Labels plus one extra pair appended last (Prometheus convention puts
/// `le` after the user labels).
fn render_labels_with(labels: &LabelSet, key: &str, value: &str) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    inner.push(format!("{key}=\"{}\"", escape_label_value(value)));
    format!("{{{}}}", inner.join(","))
}

/// Formats a sample value: integers render without a fractional part
/// (Prometheus accepts both; bare integers keep counters greppable),
/// everything else uses Rust's shortest round-trip float formatting.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Exposition validator
// ---------------------------------------------------------------------------

/// One parsed sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Structurally validates a Prometheus text exposition, mirroring
/// [`validate_chrome_trace`](crate::validate_chrome_trace):
///
/// * every sample line parses (name, escaped labels, float value);
/// * every sample belongs to a family announced by `# HELP` + `# TYPE`
///   lines appearing before it (histogram samples may use the `_bucket`,
///   `_sum`, `_count` suffixes);
/// * family names are announced at most once and appear in sorted order
///   (the determinism contract of [`MetricsRegistry::render`]);
/// * counter values are non-negative;
/// * per histogram series: `le` bounds strictly increase, cumulative
///   bucket counts are monotone non-decreasing, the `+Inf` bucket exists
///   and equals `_count`, and `_sum`/`_count` are present.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: BTreeMap<String, bool> = BTreeMap::new();
    let mut last_family: Option<String> = None;
    // (family, series labels sans le) -> buckets/sum/count
    type SeriesKey = (String, Vec<(String, String)>);
    let mut hist_buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut hist_sum: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut hist_count: BTreeMap<SeriesKey, f64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid family name `{name}` in HELP"));
            }
            if helped.insert(name.to_string(), true).is_some() {
                return Err(format!("line {n}: duplicate HELP for `{name}`"));
            }
            if let Some(prev) = &last_family {
                if name <= prev.as_str() {
                    return Err(format!(
                        "line {n}: family `{name}` out of order after `{prev}` \
                         (render() sorts families)"
                    ));
                }
            }
            last_family = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown metric type `{kind}`"));
            }
            if !helped.contains_key(name) {
                return Err(format!(
                    "line {n}: TYPE for `{name}` without preceding HELP"
                ));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free comment
        }
        let sample = parse_sample(line).map_err(|e| format!("line {n}: {e} (in `{line}`)"))?;
        // Resolve the family: exact name, or histogram suffixes.
        let (family, suffix) = match types.get(&sample.name) {
            Some(_) => (sample.name.clone(), ""),
            None => {
                let stripped = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
                    sample
                        .name
                        .strip_suffix(suf)
                        .filter(|base| types.get(*base).is_some_and(|t| t == "histogram"))
                        .map(|base| (base.to_string(), *suf))
                });
                match stripped {
                    Some(pair) => pair,
                    None => {
                        return Err(format!(
                            "line {n}: sample `{}` has no preceding # TYPE",
                            sample.name
                        ))
                    }
                }
            }
        };
        let kind = types[&family].clone();
        if kind == "counter" && sample.value < 0.0 {
            return Err(format!(
                "line {n}: counter `{family}` has negative value {}",
                sample.value
            ));
        }
        for (k, _) in &sample.labels {
            if !valid_label_name(k) {
                return Err(format!("line {n}: invalid label name `{k}`"));
            }
        }
        if kind == "histogram" {
            let mut labels = sample.labels.clone();
            let le = labels.iter().position(|(k, _)| k == "le");
            match suffix {
                "_bucket" => {
                    let Some(i) = le else {
                        return Err(format!("line {n}: `{family}_bucket` without `le` label"));
                    };
                    let (_, bound) = labels.remove(i);
                    let bound = if bound == "+Inf" {
                        f64::INFINITY
                    } else {
                        bound
                            .parse::<f64>()
                            .map_err(|_| format!("line {n}: bad le bound `{bound}`"))?
                    };
                    hist_buckets
                        .entry((family.clone(), labels))
                        .or_default()
                        .push((bound, sample.value));
                }
                "_sum" => {
                    hist_sum.insert((family.clone(), labels), sample.value);
                }
                "_count" => {
                    hist_count.insert((family.clone(), labels), sample.value);
                }
                _ => {
                    return Err(format!(
                        "line {n}: bare sample `{family}` for a histogram family"
                    ))
                }
            }
        }
    }

    for ((family, labels), buckets) in &hist_buckets {
        let series = format!("{family}{}", render_labels(labels));
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = -1.0f64;
        for &(bound, count) in buckets {
            if bound <= prev_bound {
                return Err(format!(
                    "histogram {series}: le bounds not strictly increasing at {bound}"
                ));
            }
            if count < prev_count {
                return Err(format!(
                    "histogram {series}: cumulative bucket counts decrease at le={bound}"
                ));
            }
            prev_bound = bound;
            prev_count = count;
        }
        let Some(&(last_bound, last_count)) = buckets.last() else {
            continue;
        };
        if last_bound != f64::INFINITY {
            return Err(format!("histogram {series}: missing +Inf bucket"));
        }
        let Some(&count) = hist_count.get(&(family.clone(), labels.clone())) else {
            return Err(format!("histogram {series}: missing _count sample"));
        };
        if !hist_sum.contains_key(&(family.clone(), labels.clone())) {
            return Err(format!("histogram {series}: missing _sum sample"));
        }
        if (last_count - count).abs() > 1e-9 {
            return Err(format!(
                "histogram {series}: +Inf bucket {last_count} != _count {count}"
            ));
        }
    }
    Ok(())
}

/// Parses one sample line: `name{label="value",...} 1.5` or `name 1.5`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, labels_text, value_text) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label set".to_string())?;
            (
                &line[..brace],
                &line[brace + 1..close],
                line[close + 1..].trim(),
            )
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| "missing value".to_string())?;
            (&line[..sp], "", line[sp..].trim())
        }
    };
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name `{name_part}`"));
    }
    let labels = parse_labels(labels_text)?;
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|_| format!("invalid sample value `{v}`"))?,
    };
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"` with escape handling; empty input is fine.
fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        while chars.peek() == Some(&',') || chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}`: expected opening quote"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape `\\{other:?}`")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".to_string()),
            }
        }
        labels.push((key, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("hits_total", "Hits.", &[], 1.0);
        reg.counter_add("hits_total", "Hits.", &[], 2.0);
        assert_eq!(reg.value("hits_total", &[]), Some(3.0));
        let text = reg.render();
        assert!(text.contains("# HELP hits_total Hits."));
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total 3"));
        validate_exposition(&text).expect("valid");
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("temp", "t.", &[("core", "0")], 5.0);
        reg.gauge_set("temp", "t.", &[("core", "0")], 2.5);
        assert_eq!(reg.value("temp", &[("core", "0")]), Some(2.5));
        assert!(reg.render().contains("temp{core=\"0\"} 2.5"));
    }

    #[test]
    #[should_panic(expected = "cannot decrease")]
    fn counters_reject_negative_deltas() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x_total", "x.", &[], -1.0);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_panic() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", "x.", &[], 1.0);
        reg.gauge_set("x", "x.", &[], 1.0);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 1.0, 2.0, 150.0] {
            reg.histogram_observe_with("lat", "l.", &[], v, || vec![1.0, 10.0, 100.0]);
        }
        let text = reg.render();
        assert!(text.contains("lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{le=\"10\"} 3"));
        assert!(text.contains("lat_bucket{le=\"100\"} 3"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_sum{} 153.5") || text.contains("lat_sum 153.5"));
        assert!(text.contains("lat_count 4"));
        validate_exposition(&text).expect("valid");
    }

    #[test]
    fn histogram_quantiles_hit_bucket_bounds() {
        let mut reg = MetricsRegistry::new();
        for v in 1..=100 {
            reg.histogram_observe_with("q", "q.", &[], v as f64, || {
                (1..=10).map(|b| (b * 10) as f64).collect()
            });
        }
        assert_eq!(reg.histogram_quantile("q", &[], 0.5), Some(50.0));
        assert_eq!(reg.histogram_quantile("q", &[], 0.9), Some(90.0));
        assert_eq!(reg.histogram_quantile("q", &[], 0.99), Some(100.0));
        assert_eq!(reg.histogram_quantile("missing", &[], 0.5), None);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut reg = MetricsRegistry::new();
        reg.histogram_observe("h", "h.", &[], f64::NAN);
        reg.histogram_observe("h", "h.", &[], f64::INFINITY);
        reg.histogram_observe("h", "h.", &[], 1.0);
        assert_eq!(reg.histogram_count("h", &[]), Some(1));
    }

    #[test]
    fn label_escaping_round_trips_through_the_validator() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(
            "odd_total",
            "Weird\nhelp \\ text.",
            &[("path", "a\"b\\c\nd")],
            1.0,
        );
        let text = reg.render();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
        assert!(text.contains("# HELP odd_total Weird\\nhelp \\\\ text."));
        validate_exposition(&text).expect("escaped output parses");
    }

    #[test]
    fn rendering_is_deterministic_and_sorted() {
        let build = |order: &[(&str, f64)]| {
            let mut reg = MetricsRegistry::new();
            for (name, v) in order {
                reg.counter_add(name, "c.", &[("k", "v")], *v);
            }
            reg.counter_add("zz", "z.", &[("b", "2")], 1.0);
            reg.counter_add("zz", "z.", &[("a", "1")], 1.0);
            reg.render()
        };
        let a = build(&[("alpha", 1.0), ("beta", 2.0)]);
        let b = build(&[("beta", 2.0), ("alpha", 1.0)]);
        assert_eq!(a, b, "insertion order must not leak into the exposition");
        assert!(a.find("alpha").unwrap() < a.find("beta").unwrap());
        assert!(a.find("zz{a=\"1\"}").unwrap() < a.find("zz{b=\"2\"}").unwrap());
    }

    #[test]
    fn validator_rejects_structural_violations() {
        // Sample without a TYPE header.
        assert!(validate_exposition("loose_metric 1\n").is_err());
        // Negative counter.
        let bad = "# HELP c c.\n# TYPE c counter\nc -1\n";
        assert!(validate_exposition(bad).unwrap_err().contains("negative"));
        // Families out of order.
        let unsorted = "# HELP b b.\n# TYPE b counter\nb 1\n# HELP a a.\n# TYPE a counter\na 1\n";
        assert!(validate_exposition(unsorted)
            .unwrap_err()
            .contains("out of order"));
        // Histogram with decreasing cumulative counts.
        let shrink = "# HELP h h.\n# TYPE h histogram\n\
                      h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                      h_sum 9\nh_count 5\n";
        assert!(validate_exposition(shrink)
            .unwrap_err()
            .contains("decrease"));
        // Histogram missing the +Inf bucket.
        let no_inf = "# HELP h h.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));
        // +Inf bucket disagreeing with _count.
        let mismatch = "# HELP h h.\n# TYPE h histogram\n\
                        h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(mismatch)
            .unwrap_err()
            .contains("_count"));
    }

    #[test]
    fn log_buckets_are_log_spaced() {
        let b = log_buckets(0.001, 1.0, 1);
        assert_eq!(b.len(), 4);
        assert!((b[0] - 0.001).abs() < 1e-12);
        assert!((b[3] - 1.0).abs() < 1e-9);
        let d = default_buckets();
        assert!(d.len() > 40 && d.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn windowed_histogram_expires_old_slots() {
        let cfg = || WindowConfig {
            window_secs: 60,
            slots: 6,
            buckets: vec![1.0, 10.0, 100.0, 1000.0],
        };
        let mut reg = MetricsRegistry::new();
        // Ten slow observations early in the run...
        for i in 0..10 {
            reg.windowed_observe_with("lat_window", "w.", &[], 500.0, i, cfg);
        }
        assert_eq!(reg.windowed_quantile("lat_window", &[], 0.99), Some(1000.0));
        // ...then, two minutes later, fast ones: the slow slots are out of
        // the 60 s window anchored at the newest observation.
        for i in 0..10 {
            reg.windowed_observe_with("lat_window", "w.", &[], 0.5, 120 + i, cfg);
        }
        assert_eq!(reg.windowed_quantile("lat_window", &[], 0.99), Some(1.0));
        assert_eq!(reg.windowed_count("lat_window", &[]), Some(10));
    }

    #[test]
    fn windowed_histogram_renders_quantile_gauges() {
        let mut reg = MetricsRegistry::new();
        for i in 0..100u64 {
            reg.windowed_observe_with(
                "w_seconds_window",
                "w.",
                &[("endpoint", "/p")],
                0.001,
                i,
                WindowConfig::default,
            );
        }
        let text = reg.render();
        assert!(text.contains("# TYPE w_seconds_window gauge"), "{text}");
        assert!(
            text.contains("w_seconds_window{endpoint=\"/p\",quantile=\"0.99\"}"),
            "{text}"
        );
        validate_exposition(&text).expect("windowed exposition is valid");
    }

    #[test]
    fn empty_windowed_series_render_no_samples() {
        let mut reg = MetricsRegistry::new();
        reg.windowed_observe_with("w_window", "w.", &[], f64::NAN, 0, WindowConfig::default);
        let text = reg.render();
        assert!(text.contains("# TYPE w_window gauge"));
        assert!(!text.contains("w_window{"), "{text}");
        validate_exposition(&text).expect("headers without samples are valid");
    }

    #[test]
    fn windowed_gauge_tracks_the_window_peak() {
        let mut reg = MetricsRegistry::new();
        reg.windowed_gauge_set("depth_window", "d.", &[], 9.0, 0);
        reg.windowed_gauge_set("depth_window", "d.", &[], 3.0, 5);
        assert_eq!(reg.value("depth_window", &[]), Some(9.0));
        // 10 minutes later the early peak has aged out.
        reg.windowed_gauge_set("depth_window", "d.", &[], 2.0, 600);
        assert_eq!(reg.value("depth_window", &[]), Some(2.0));
        let text = reg.render();
        assert!(text.contains("depth_window 2"), "{text}");
        validate_exposition(&text).expect("valid");
    }

    #[test]
    fn windowed_backwards_time_is_dropped() {
        let mut reg = MetricsRegistry::new();
        reg.windowed_observe_with("w_window", "w.", &[], 1.0, 1000, WindowConfig::default);
        // Same slot index, older epoch: must not clobber the newer slot.
        reg.windowed_observe_with("w_window", "w.", &[], 1.0, 400, WindowConfig::default);
        assert_eq!(reg.windowed_count("w_window", &[]), Some(1));
    }

    #[test]
    fn recorder_bridge_folds_spans_and_counters() {
        let mut rec = Recorder::manual();
        let a = rec.start_cat("measure", "stage");
        rec.set_time(10);
        rec.end(a);
        let b = rec.start_cat("assemble", "stage");
        rec.set_time(14);
        rec.end(b);
        rec.counter("cache/hits", 7.0);

        let mut reg = MetricsRegistry::new();
        reg.observe_recorder("pulp", &rec);
        assert_eq!(
            reg.histogram_count("pulp_stage_ticks", &[("stage", "stage")]),
            Some(2)
        );
        assert_eq!(
            reg.value("pulp_counter", &[("name", "cache/hits")]),
            Some(7.0)
        );
        validate_exposition(&reg.render()).expect("bridged exposition is valid");
    }
}
