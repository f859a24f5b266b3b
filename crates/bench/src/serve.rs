//! The instrumented prediction service behind `pulp_cli serve`.
//!
//! A std-only, production-shaped HTTP/1.1 server exposing the paper's end
//! product — "static features in, minimum-energy core count out" — built
//! on a readiness-driven event loop with explicit admission control:
//!
//! ```text
//!              ┌── readiness event loop (one thread) ──┐
//! epoll/poll ──▶ accept ─▶ per-conn state machine ─────▶ bounded job queue
//!              │  reading → dispatched → writing → idle │       │
//!              │  (503 + Retry-After when the active    │       ▼
//!              │   set is full; timer-wheel deadlines)  │  N worker threads
//!              └────────◀── completions + waker ◀───────┘  (tree predictor)
//! ```
//!
//! The event loop (the thread that calls [`Server::run`]) owns every
//! socket: it accepts, reads and incrementally parses requests, flushes
//! responses, and arms read/write deadlines on a hashed timer wheel
//! ([`crate::net`] supplies the epoll shim, parser and wheel). Workers
//! never touch a socket — they pull parsed requests off the bounded queue,
//! run the predictor, render the response bytes and hand them back through
//! a completion list plus an eventfd waker. Admission is a bounded
//! *active* set of `workers + queue_depth` connections (accept → response
//! flushed); beyond it connections shed with `503` + `Retry-After`.
//! Established keep-alive connections parked between requests hold no
//! slot, no thread and no timer, which is what lets one loop hold 10k+
//! open connections.
//!
//! Endpoints:
//!
//! * `POST /predict` — body `{"kernel": "gemm", "dtype": "f32", "size":
//!   2048}` (a known kernel, features computed server-side) or
//!   `{"features": [/* full 20-dim static vector */]}`; replies with the
//!   predicted core count, the 0-based class, and — when the sample was in
//!   the training sweep — the expected energy at that core count.
//! * `POST /predict/batch` — body `{"requests": [<any /predict body>, …]}`;
//!   replies `{"count": N, "results": [<one /predict reply each>]}` via
//!   [`EnergyPredictor::predict_cores_batch`], bit-identical to N
//!   sequential `/predict` calls. Both prediction endpoints walk the
//!   quantized flat compilation of the model.
//! * `POST /admin/shutdown` — begins a graceful drain: in-flight and queued
//!   requests complete, new connections are refused, [`Server::run`]
//!   returns after joining every worker. SIGTERM/ctrl-c do the same when
//!   [`install_signal_shutdown`] is wired up (as `pulp_cli serve` does).
//! * `GET /metrics` — Prometheus text exposition from a
//!   [`MetricsRegistry`]: request counts by endpoint/status, request and
//!   per-stage latency histograms, queue-depth and in-flight gauges,
//!   shed/timeout/keep-alive-reuse counters, sweep-cache counters, model
//!   metadata and the startup-training stage histograms bridged from the
//!   pipeline `Recorder`.
//! * `GET /healthz` — `200 ok` once the model is trained (the server only
//!   starts accepting after training, so this is always `ok` when
//!   reachable).
//! * `GET /debug/requests?n=K` — the last K completed request traces from
//!   the flight recorder as Chrome trace-event JSON (one thread lane per
//!   request; loadable in Perfetto and accepted by
//!   [`pulp_obs::validate_chrome_trace`]).
//! * `GET /debug/slow?n=K` — the K worst requests by total latency since
//!   start as a compact JSON span breakdown, slowest first.
//!
//! Every admitted request draws a plain `u64` trace id from a
//! [`TraceIdGen`] (at accept, and afresh on each keep-alive reuse); each
//! request records read/queue-wait/features/predict/serialize/write
//! child spans under one `request` root, feeds the completed tree
//! into a bounded [`FlightRecorder`], and — when it exceeds
//! [`ServeOptions::slow_ms`] — emits a structured slow-request log line
//! through the state's [`Logger`] (JSON when `--log-json` is set).
//! Request latency is additionally folded into sliding-window series
//! (`pulp_serve_request_seconds_window`, `pulp_serve_queue_depth_window`)
//! rendered next to the cumulative histograms on `/metrics`.
//!
//! Connections are HTTP/1.1 keep-alive by default, capped at
//! [`ServeOptions::keepalive_max_requests`] requests each, with
//! [`ServeOptions::timeout_ms`] read/write deadlines on the timer wheel so
//! a slowloris peer costs one admission slot for one timeout, never a
//! thread and never forever. Bodies above [`ServeOptions::max_body_bytes`]
//! are refused with `413` *before* any allocation, and malformed request
//! lines get a `400` instead of a silently dropped connection.
//!
//! Everything rides on `std::net` plus a ~150-line raw `epoll` syscall
//! shim — no async runtime, no HTTP crate, no libc crate — mirroring how
//! the rest of the workspace treats dependencies.

use crate::net::{raw_fd, Event, HttpParser, Interest, Parsed, Poller, TimerWheel, Waker};
pub use crate::net::{Request, RequestError};
use pulp_energy::manifest::RunManifest;
use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_energy::{static_feature_vector, EnergyPredictor, PredictorMetadata, StaticFeatureSet};
use pulp_ml::TreeParams;
use pulp_obs::recorder::{Recorder, SpanId};
use pulp_obs::{
    FlightRecorder, LogFormat, Logger, MetricsRegistry, RequestTrace, TraceIdGen, WindowConfig,
};
use serde::Value;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Histogram bucket layout for request latencies: 100ns .. 10s.
fn latency_buckets() -> Vec<f64> {
    pulp_obs::metrics::log_buckets(1e-7, 10.0, 4)
}

/// Capacity knobs of one server instance (`pulp_cli serve` flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads pulling connections off the queue (`--workers`).
    pub workers: usize,
    /// Bounded connection-queue depth; a full queue sheds with 503 +
    /// `Retry-After` (`--queue-depth`).
    pub queue_depth: usize,
    /// Per-connection read/write deadline in milliseconds
    /// (`--timeout-ms`). A stalled peer costs a worker at most one
    /// timeout, never a hung thread.
    pub timeout_ms: u64,
    /// Maximum accepted request-body size (`--max-body-bytes`); larger
    /// `Content-Length` values are refused with 413 before allocating.
    pub max_body_bytes: usize,
    /// Requests served per keep-alive connection before the server closes
    /// it (`--keepalive-max`), bounding per-connection state lifetime.
    pub keepalive_max_requests: usize,
    /// Requests slower than this (end-to-end, in milliseconds) emit a
    /// structured slow-request log line with the full span breakdown
    /// (`--slow-ms`).
    pub slow_ms: u64,
    /// Completed request traces retained by the flight recorder
    /// (`--flight-capacity`). Applied by `pulp_cli serve` via
    /// [`ServeState::with_flight_capacity`]; states built directly default
    /// to the same value.
    pub flight_capacity: usize,
    /// `Retry-After` value (seconds) announced on 503 shed responses
    /// (`--retry-after-secs`).
    pub retry_after_secs: u64,
}

/// Default flight-recorder retention (traces).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            timeout_ms: 5_000,
            max_body_bytes: 1 << 20,
            keepalive_max_requests: 1_000,
            slow_ms: 500,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            retry_after_secs: 1,
        }
    }
}

/// Shared state of one running prediction service.
pub struct ServeState {
    predictor: EnergyPredictor,
    metadata: PredictorMetadata,
    /// Training samples by `(kernel, dtype, payload_bytes)` — used to
    /// answer "expected energy at the predicted core count" for kernels
    /// the sweep has measured.
    samples: Vec<(String, String, usize, Vec<f64>)>,
    metrics: Mutex<MetricsRegistry>,
    manifest: RunManifest,
    inflight: AtomicI64,
    /// Structured logger for operational lines (slow requests); stderr/Text
    /// by default, swapped via [`ServeState::with_logger`].
    logger: Logger,
    /// Ring of recently completed request traces (`/debug/requests`,
    /// `/debug/slow`).
    flight: FlightRecorder,
    /// Trace-id source stamping admitted connections.
    trace_ids: TraceIdGen,
    /// Service start time — anchors the `now_s` clock of the sliding-window
    /// metrics.
    started: Instant,
}

impl ServeState {
    /// Trains the service model on `opts` (startup cost: the full dataset
    /// sweep unless cached) and prepares the metrics registry, seeding it
    /// with pipeline-stage histograms from the instrumented build, model
    /// metadata and sweep-cache counters.
    ///
    /// # Panics
    ///
    /// Panics when the dataset cannot be built or the model cannot be
    /// trained — the service is useless without either.
    pub fn train(opts: &PipelineOptions) -> Self {
        let mut rec = Recorder::new();
        let data = LabeledDataset::build_observed(opts, &mut rec, BuildObserver::default())
            .expect("serve: dataset build failed");
        let mut metrics = MetricsRegistry::new();
        metrics.observe_recorder("pulp_pipeline", &rec);
        Self::fit(&data, metrics, opts)
    }

    /// Trains the service model on `data`, built with `opts`, and
    /// prepares the metrics registry on top of `metrics`.
    ///
    /// # Panics
    ///
    /// Panics when the model cannot be trained.
    pub fn fit(data: &LabeledDataset, metrics: MetricsRegistry, opts: &PipelineOptions) -> Self {
        let predictor = EnergyPredictor::train(data, StaticFeatureSet::All, TreeParams::default())
            .expect("serve: model training failed");
        Self::from_parts(predictor, data, metrics, opts)
    }

    /// Assembles the state from pre-built parts (the integration test
    /// trains offline and reuses the dataset).
    pub fn from_parts(
        predictor: EnergyPredictor,
        data: &LabeledDataset,
        mut metrics: MetricsRegistry,
        opts: &PipelineOptions,
    ) -> Self {
        let metadata = predictor.metadata();
        metrics.gauge_set(
            "pulp_model_info",
            "Model metadata (value is always 1; labels carry the info).",
            &[
                ("feature_set", metadata.feature_set.as_str()),
                ("n_features", &metadata.n_features.to_string()),
                ("n_classes", &metadata.n_classes.to_string()),
                ("tree_depth", &metadata.tree_depth.to_string()),
                ("tree_nodes", &metadata.tree_nodes.to_string()),
            ],
            1.0,
        );
        if let Some(cache) = &opts.cache {
            let stats = cache.stats();
            for (kind, v) in [
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("invalidations", stats.invalidations),
            ] {
                metrics.gauge_set(
                    "pulp_sweep_cache_lookups",
                    "Sweep-cache lookup outcomes during startup training.",
                    &[("kind", kind)],
                    v as f64,
                );
            }
        }
        let mut manifest = RunManifest::new("pulp_cli serve", &opts.config, &opts.model)
            .with_extra("feature_set", &metadata.feature_set)
            .with_extra("samples", data.len());
        if let Some(cache) = &opts.cache {
            manifest = manifest.with_cache_stats(cache.stats());
        }
        let samples = data
            .samples
            .iter()
            .map(|s| {
                (
                    s.kernel.clone(),
                    s.dtype.to_string(),
                    s.payload_bytes,
                    s.energy.clone(),
                )
            })
            .collect();
        Self {
            predictor,
            metadata,
            samples,
            metrics: Mutex::new(metrics),
            manifest,
            inflight: AtomicI64::new(0),
            logger: Logger::new(LogFormat::Text),
            flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            trace_ids: TraceIdGen::default(),
            started: Instant::now(),
        }
    }

    /// Replaces the logger (e.g. `Logger::new(LogFormat::Json)` for
    /// `--log-json`, or a sink logger in tests). Builder-style: call before
    /// wrapping the state in an `Arc`.
    #[must_use]
    pub fn with_logger(mut self, logger: Logger) -> Self {
        self.logger = logger;
        self
    }

    /// Replaces the flight recorder with one retaining `capacity` traces.
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight = FlightRecorder::new(capacity);
        self
    }

    /// The run manifest describing this service instance.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// The flight recorder holding recently completed request traces.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// This service's structured logger.
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// Snapshot of the logger's in-memory sink (`None` for stderr loggers);
    /// lets tests read slow-request lines through the shared state.
    pub fn log_lines(&self) -> Option<Vec<String>> {
        self.logger.sink_lines()
    }

    /// Seconds since service start — the clock feeding the sliding-window
    /// metrics.
    pub fn now_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// A sliding-window quantile (`pulp_serve_*_window` series), if the
    /// series exists and its window holds observations.
    pub fn windowed_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.metrics.lock().ok()?.windowed_quantile(name, labels, q)
    }

    /// A cumulative-histogram quantile at bucket resolution, if the series
    /// exists and is non-empty.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.metrics
            .lock()
            .ok()?
            .histogram_quantile(name, labels, q)
    }

    /// Renders the current `/metrics` exposition.
    pub fn render_metrics(&self) -> String {
        self.metrics.lock().expect("metrics lock").render()
    }

    /// Reads one metric sample back out of the registry — the programmatic
    /// mirror of scraping `/metrics`, used by the load benchmark and the
    /// integration tests.
    pub fn metric_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.metrics
            .lock()
            .expect("metrics lock")
            .value(name, labels)
    }

    fn counter_add(&self, name: &str, help: &'static str, labels: &[(&str, &str)], delta: f64) {
        if let Ok(mut m) = self.metrics.lock() {
            m.counter_add(name, help, labels, delta);
        }
    }

    fn gauge_set(&self, name: &str, help: &'static str, labels: &[(&str, &str)], value: f64) {
        if let Ok(mut m) = self.metrics.lock() {
            m.gauge_set(name, help, labels, value);
        }
    }

    /// Adjusts the in-flight request count and mirrors it into the gauge.
    fn inflight_delta(&self, delta: i64) {
        let now = self.inflight.fetch_add(delta, Ordering::SeqCst) + delta;
        self.gauge_set(
            "pulp_serve_inflight_requests",
            "Requests currently being processed by a worker.",
            &[],
            now as f64,
        );
    }

    fn note_queue_depth(&self, depth: usize) {
        self.gauge_set(
            "pulp_serve_queue_depth",
            "Connections waiting in the bounded accept queue.",
            &[],
            depth as f64,
        );
        if let Ok(mut m) = self.metrics.lock() {
            m.windowed_gauge_set(
                "pulp_serve_queue_depth_window",
                "Peak accept-queue depth over the sliding window.",
                &[],
                depth as f64,
                self.started.elapsed().as_secs(),
            );
        }
    }

    fn note_shed(&self) {
        self.counter_add(
            "pulp_serve_shed_total",
            "Connections refused with 503 because the queue was full.",
            &[],
            1.0,
        );
    }

    fn note_timeout(&self, kind: &str) {
        self.counter_add(
            "pulp_serve_timeouts_total",
            "Connections dropped on a read/write deadline.",
            &[("kind", kind)],
            1.0,
        );
    }

    fn note_keepalive_reuse(&self) {
        self.counter_add(
            "pulp_serve_keepalive_reuse_total",
            "Requests served on an already-used keep-alive connection.",
            &[],
            1.0,
        );
    }

    fn note_open_connections(&self, n: usize) {
        self.gauge_set(
            "pulp_serve_open_connections",
            "Connections currently open on the event loop, every state \
             included (idle keep-alive connections hold no worker).",
            &[],
            n as f64,
        );
    }

    fn note_accept_saturation(&self) {
        self.counter_add(
            "pulp_serve_accept_saturation_total",
            "Accept bursts that filled the whole batch without draining the \
             listen backlog — the accept loop itself is the bottleneck.",
            &[],
            1.0,
        );
    }
}

/// A generic bounded MPMC queue: non-blocking producer (`try_push` fails
/// when full — the caller sheds), blocking consumers, and a `close` that
/// lets consumers drain the backlog before retiring.
struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<(VecDeque<T>, bool)>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues without blocking; a full or closed queue hands the item
    /// back so the caller can shed it explicitly. Returns the new depth.
    fn try_push(&self, item: T) -> Result<usize, T> {
        let mut g = self.inner.lock().expect("queue lock");
        if g.1 || g.0.len() >= self.capacity {
            return Err(item);
        }
        g.0.push_back(item);
        let depth = g.0.len();
        drop(g);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available; `None` once the queue is closed
    /// *and* drained.
    fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = g.0.pop_front() {
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue wait");
        }
    }

    /// Stops accepting new items; consumers drain what is queued, then see
    /// `None`.
    fn close(&self) {
        self.inner.lock().expect("queue lock").1 = true;
        self.not_empty.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").0.len()
    }
}

/// A clonable remote control for one server's graceful shutdown.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// Wakes the event loop out of a blocked readiness wait so the flag is
    /// observed immediately (workers also use it to hand completions back).
    waker: Waker,
}

impl ShutdownHandle {
    /// `true` once a drain has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: sets the flag and wakes the event loop.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// A running server: the bound socket plus its readiness event loop and
/// worker pool, ready to [`run`](Server::run).
pub struct Server {
    /// The actual bound address (useful with port 0).
    pub addr: SocketAddr,
    listener: TcpListener,
    state: Arc<ServeState>,
    opts: ServeOptions,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
}

/// Where a connection currently is in its life cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Accumulating request bytes (an active slot is held).
    Reading,
    /// A parsed request is with the worker pool; socket interest is muted
    /// so a pipelining peer cannot spin the event loop.
    Dispatched,
    /// Flushing a response.
    Writing,
    /// Established keep-alive connection between requests. Holds no active
    /// slot and no deadline — parked idle connections are what the
    /// readiness tier scales to, far beyond the worker count.
    Idle,
}

/// Per-connection state machine driven by the event loop.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    parser: HttpParser,
    /// Trace id of the connection's next request (drawn at accept for the
    /// first; fresh ids on keep-alive reuse).
    trace_id: u64,
    /// Requests dispatched on this connection so far.
    served: usize,
    /// First byte of the current request (accept time for fresh
    /// connections) — the dispatch turns this into the `read` span.
    request_started: Instant,
    /// Authoritative armed deadline; timer-wheel entries that no longer
    /// match are stale (lazy cancellation).
    deadline_ms: Option<u64>,
    /// `true` once at least one response has been fully written.
    established: bool,
    /// This connection holds one of the bounded active slots.
    holds_slot: bool,
    /// Response bytes in flight and the write cursor.
    out: Vec<u8>,
    out_pos: usize,
    keep_after_write: bool,
    /// For routed responses: the tracer (write span open), endpoint label
    /// and status to finalize once the response is fully flushed.
    write_meta: Option<(RequestTracer, SpanId, &'static str, u16)>,
}

/// One parsed request on its way to a worker.
struct Job {
    token: u64,
    req: Request,
    trace_id: u64,
    /// Wire time: first byte to parse completion, in µs (the `read` span).
    read_us: u64,
    /// Queued-at instant; pickup time minus this is the queue wait.
    enqueued: Instant,
    /// 1-based request ordinal on its connection.
    index: usize,
}

/// A finished request on its way back from a worker to the event loop.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    keep: bool,
    status: u16,
    endpoint: &'static str,
    tracer: RequestTracer,
}

/// Everything a worker thread needs.
struct ServerCtx {
    state: Arc<ServeState>,
    opts: ServeOptions,
    queue: Arc<BoundedQueue<Job>>,
    completions: Mutex<Vec<Completion>>,
    shutdown: ShutdownHandle,
}

/// Event-loop token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Connections accepted per listener readiness before yielding back to the
/// loop; exhausting the batch bumps the accept-saturation counter.
const ACCEPT_BATCH: usize = 64;
/// Bytes read per connection per readiness event before yielding
/// (level-triggered polling re-reports whatever is left).
const READ_BURST_BYTES: usize = 256 * 1024;
/// Timer-wheel precision for read/write deadlines.
const TIMER_GRANULARITY_MS: u64 = 10;
/// Timer-wheel slot count (one rotation covers ~2.5s; longer deadlines
/// wrap and re-home, which the wheel handles).
const TIMER_SLOTS: usize = 256;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with
    /// default capacity knobs, without accepting yet.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, state: Arc<ServeState>) -> std::io::Result<Self> {
        Self::bind_with(addr, state, ServeOptions::default())
    }

    /// Binds with explicit capacity knobs.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and readiness-backend setup failures.
    pub fn bind_with(
        addr: &str,
        state: Arc<ServeState>,
        opts: ServeOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        Ok(Self {
            addr,
            listener,
            state,
            opts,
            shutdown: Arc::new(AtomicBool::new(false)),
            poller,
        })
    }

    /// A handle that triggers this server's graceful drain from another
    /// thread (or a signal-watcher).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            waker: self.poller.waker(),
        }
    }

    /// Serves until a graceful shutdown is requested (`POST
    /// /admin/shutdown`, [`ShutdownHandle::trigger`], or a signal wired
    /// via [`install_signal_shutdown`]).
    ///
    /// The calling thread becomes the event loop: it accepts, reads,
    /// parses, writes and tracks deadlines for every connection, while the
    /// fixed worker pool executes the actual prediction work. Admission is
    /// a bounded *active* set — connections from accept (or from the first
    /// byte of a keep-alive reuse) until their response is flushed — of
    /// `workers + queue_depth`; beyond it, connections shed with 503 +
    /// `Retry-After`. Established idle keep-alive connections are parked
    /// outside the active set at no per-connection thread cost, which is
    /// where the 10k+ concurrency headroom comes from. On drain, parked
    /// idle and silent fresh connections close immediately, in-flight
    /// requests (including partially read ones) complete, then workers are
    /// joined.
    pub fn run(self) {
        let shutdown = self.shutdown_handle();
        let Server {
            addr: _,
            listener,
            state,
            opts,
            shutdown: _,
            mut poller,
        } = self;
        for (knob, v) in [
            ("workers", opts.workers.max(1)),
            ("queue_depth", opts.queue_depth.max(1)),
            ("timeout_ms", opts.timeout_ms as usize),
            ("max_body_bytes", opts.max_body_bytes),
            ("keepalive_max_requests", opts.keepalive_max_requests),
            ("slow_ms", opts.slow_ms as usize),
            ("flight_capacity", state.flight.capacity()),
            ("retry_after_secs", opts.retry_after_secs as usize),
        ] {
            state.gauge_set(
                "pulp_serve_capacity",
                "Configured capacity knobs of this server instance.",
                &[("knob", knob)],
                v as f64,
            );
        }
        state.note_queue_depth(0);
        state.note_open_connections(0);
        // Sized so that admission control alone bounds it: every active
        // connection contributes at most one queued job.
        let slot_capacity = opts.workers.max(1) + opts.queue_depth.max(1);
        let queue = Arc::new(BoundedQueue::new(slot_capacity));
        let ctx = Arc::new(ServerCtx {
            state: Arc::clone(&state),
            opts,
            queue: Arc::clone(&queue),
            completions: Mutex::new(Vec::new()),
            shutdown: shutdown.clone(),
        });
        let workers: Vec<_> = (0..opts.workers.max(1))
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        let _ = listener.set_nonblocking(true);
        if let Err(e) = poller.add(raw_fd(&listener), LISTENER_TOKEN, Interest::Read) {
            state.logger.warn(
                "serve",
                "failed to register listener with the poller",
                &[("error", e.to_string())],
            );
        }
        EventLoop {
            state,
            ctx,
            opts,
            poller,
            listener: Some(listener),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            active_slots: 0,
            slot_capacity,
            timers: TimerWheel::new(TIMER_GRANULARITY_MS, TIMER_SLOTS),
            started: Instant::now(),
            draining: false,
            last_shed_log_s: None,
        }
        .run(&shutdown);
        // Every connection is gone; release the workers and join them.
        queue.close();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// The readiness event loop: single-threaded owner of every connection's
/// state machine, the timer wheel and the admission slots.
struct EventLoop {
    state: Arc<ServeState>,
    ctx: Arc<ServerCtx>,
    opts: ServeOptions,
    poller: Poller,
    /// Dropped at drain start so new connections are refused at the socket.
    listener: Option<TcpListener>,
    /// Connection slab; tokens embed `(generation << 32) | index` so stale
    /// timer entries and completions for a recycled index are ignored.
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Open connections (slab occupancy), mirrored to the gauge.
    open: usize,
    /// Connections currently in the bounded active set.
    active_slots: usize,
    slot_capacity: usize,
    timers: TimerWheel,
    started: Instant,
    draining: bool,
    /// Second (of `now_s`) the last shed log line was emitted — rate-limits
    /// shed logging to one line per second under overload.
    last_shed_log_s: Option<u64>,
}

impl EventLoop {
    fn run(mut self, shutdown: &ShutdownHandle) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if self.draining {
                Some(TIMER_GRANULARITY_MS)
            } else if self.timers.is_idle() {
                None // fully idle: block until accept/readiness/waker
            } else {
                Some(self.timers.granularity_ms())
            };
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.state
                    .logger
                    .warn("serve", "poller wait failed", &[("error", e.to_string())]);
                std::thread::sleep(Duration::from_millis(TIMER_GRANULARITY_MS));
            }
            if shutdown.is_shutdown() && !self.draining {
                self.begin_drain();
            }
            for ev in events.iter().copied() {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_event(ev);
                }
            }
            self.drain_completions();
            let now = self.now_ms();
            self.fire_timers(now);
            if self.draining && self.open == 0 {
                return;
            }
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn token_of(&self, idx: usize) -> u64 {
        (u64::from(self.gens[idx]) << 32) | idx as u64
    }

    /// Resolves a token to a live slab index, refusing stale generations.
    fn conn_at(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        let gen = (token >> 32) as u32;
        if idx < self.conns.len() && self.gens[idx] == gen && self.conns[idx].is_some() {
            Some(idx)
        } else {
            None
        }
    }

    fn try_acquire_slot(&mut self) -> bool {
        if self.active_slots < self.slot_capacity {
            self.active_slots += 1;
            true
        } else {
            false
        }
    }

    fn release_slot(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        if conn.holds_slot {
            conn.holds_slot = false;
            self.active_slots -= 1;
        }
    }

    fn arm_deadline(&mut self, idx: usize, at_ms: u64) {
        let token = self.token_of(idx);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.deadline_ms = Some(at_ms);
        self.timers.schedule(at_ms, token);
    }

    fn clear_deadline(&mut self, idx: usize) {
        self.conns[idx].as_mut().expect("live conn").deadline_ms = None;
    }

    /// Accepts a burst of pending connections; admission happens here.
    fn accept_ready(&mut self) {
        let mut accepted = 0usize;
        while accepted < ACCEPT_BATCH {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    accepted += 1;
                    if self.draining {
                        drop(stream);
                        continue;
                    }
                    if !self.try_acquire_slot() {
                        self.shed_fresh(stream);
                        continue;
                    }
                    self.admit(stream);
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
        // The whole batch filled without hitting WouldBlock: connections
        // are arriving faster than one readiness round drains them.
        self.state.note_accept_saturation();
    }

    /// Registers an admitted connection (slot already acquired): fresh
    /// connections enter `Reading` with the read deadline armed at accept,
    /// exactly like the blocking tier's `SO_RCVTIMEO` from accept.
    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let conn = Conn {
            stream,
            phase: Phase::Reading,
            parser: HttpParser::new(),
            trace_id: self.state.trace_ids.next_id(),
            served: 0,
            request_started: Instant::now(),
            deadline_ms: None,
            established: false,
            holds_slot: true,
            out: Vec::new(),
            out_pos: 0,
            keep_after_write: false,
            write_meta: None,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        self.open += 1;
        self.state.note_open_connections(self.open);
        let token = self.token_of(idx);
        let fd = raw_fd(&self.conns[idx].as_ref().expect("live conn").stream);
        if self.poller.add(fd, token, Interest::Read).is_err() {
            self.close_conn(idx);
            return;
        }
        let deadline = self.now_ms() + self.opts.timeout_ms.max(1);
        self.arm_deadline(idx, deadline);
    }

    /// Sheds a just-accepted connection (no slot available): 503 +
    /// `Retry-After`, written blocking with a bounded timeout — the socket
    /// is fresh, so this is one buffer copy in practice.
    fn shed_fresh(&mut self, mut stream: TcpStream) {
        self.note_shed_with_log();
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.opts.timeout_ms.max(1))));
        let bytes = render_response(
            503,
            "server overloaded, retry later\n",
            "text/plain; charset=utf-8",
            false,
            &[("Retry-After", &self.opts.retry_after_secs.to_string())],
        );
        let _ = stream.write_all(&bytes);
    }

    /// Counts a shed and emits the post-hoc analysis log line, rate-limited
    /// to one per second so overload cannot flood the log.
    fn note_shed_with_log(&mut self) {
        self.state.note_shed();
        let now_s = self.state.now_s();
        if self.last_shed_log_s == Some(now_s) {
            return;
        }
        self.last_shed_log_s = Some(now_s);
        self.state.logger.warn(
            "serve",
            "connection shed",
            &[
                ("queue_depth", self.ctx.queue.depth().to_string()),
                ("active_connections", self.active_slots.to_string()),
                ("open_connections", self.open.to_string()),
                ("retry_after_secs", self.opts.retry_after_secs.to_string()),
            ],
        );
    }

    /// Routes one readiness event to the owning connection's state.
    fn conn_event(&mut self, ev: Event) {
        let Some(idx) = self.conn_at(ev.token) else {
            return;
        };
        match self.conns[idx].as_ref().expect("live conn").phase {
            Phase::Reading | Phase::Idle => {
                if ev.readable || ev.hangup {
                    self.do_read(idx);
                }
            }
            Phase::Writing => {
                if ev.writable || ev.hangup {
                    self.do_write(idx);
                }
            }
            // Interest is muted while dispatched; a stray event (e.g. a
            // hangup race) is picked up after the response is written.
            Phase::Dispatched => {}
        }
    }

    /// Reads until `WouldBlock` (bounded per event), feeding the parser.
    /// The first byte on an idle connection re-enters admission control.
    fn do_read(&mut self, idx: usize) {
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        loop {
            let conn = self.conns[idx].as_mut().expect("live conn");
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.parser.feed_eof();
                    if conn.phase == Phase::Idle && !conn.parser.has_partial() {
                        // Clean keep-alive close between requests.
                        self.close_conn(idx);
                        return;
                    }
                    break;
                }
                Ok(n) => {
                    if conn.phase == Phase::Idle && !self.reactivate(idx) {
                        return; // overloaded: a 503 is on its way out
                    }
                    let conn = self.conns[idx].as_mut().expect("live conn");
                    conn.parser.feed(&buf[..n]);
                    total += n;
                    if total >= READ_BURST_BYTES {
                        break; // level-triggered: the rest re-reports
                    }
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transport error mid-read: same as the blocking tier's
                    // `RequestError::Io` — drop without a response.
                    self.close_conn(idx);
                    return;
                }
            }
        }
        if self.conns[idx].as_ref().expect("live conn").phase == Phase::Reading {
            self.pump_parser(idx);
        }
    }

    /// First byte of a keep-alive reuse: rejoin the active set, or shed
    /// with the same 503 contract as a fresh connection when full.
    /// Returns `false` when the connection left the `Idle` phase without
    /// becoming `Reading` (i.e. it is shedding).
    fn reactivate(&mut self, idx: usize) -> bool {
        if !self.try_acquire_slot() {
            self.note_shed_with_log();
            self.respond_and_close(
                idx,
                503,
                "server overloaded, retry later\n".to_string(),
                &[("Retry-After", &self.opts.retry_after_secs.to_string())],
            );
            return false;
        }
        let deadline = self.now_ms() + self.opts.timeout_ms.max(1);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.holds_slot = true;
        conn.phase = Phase::Reading;
        conn.request_started = Instant::now();
        conn.trace_id = self.state.trace_ids.next_id();
        self.arm_deadline(idx, deadline);
        true
    }

    /// Tries to complete one request out of the parse buffer.
    fn pump_parser(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        match conn.parser.take(self.opts.max_body_bytes) {
            Parsed::NeedMore => {}
            Parsed::Request(req) => self.dispatch(idx, req),
            Parsed::Failed(RequestError::Eof) | Parsed::Failed(RequestError::Io) => {
                self.close_conn(idx);
            }
            Parsed::Failed(RequestError::TimedOut) => {
                // The incremental parser never produces this (deadlines
                // live on the timer wheel), but map it like the old tier.
                self.state.note_timeout("read");
                self.respond_and_close(idx, 408, "request deadline exceeded\n".to_string(), &[]);
            }
            Parsed::Failed(RequestError::TooLarge { length, limit }) => {
                self.respond_and_close(
                    idx,
                    413,
                    format!("body of {length} bytes exceeds the {limit}-byte limit\n"),
                    &[],
                );
            }
            Parsed::Failed(RequestError::Malformed(why)) => {
                self.respond_and_close(idx, 400, format!("malformed request: {why}\n"), &[]);
            }
        }
    }

    /// Hands a parsed request to the worker pool and mutes the socket.
    fn dispatch(&mut self, idx: usize, req: Request) {
        self.clear_deadline(idx);
        let token = self.token_of(idx);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.phase = Phase::Dispatched;
        conn.served += 1;
        let job = Job {
            token,
            req,
            trace_id: conn.trace_id,
            read_us: conn.request_started.elapsed().as_micros() as u64,
            enqueued: Instant::now(),
            index: conn.served,
        };
        let fd = raw_fd(&conn.stream);
        let _ = self.poller.modify(fd, token, Interest::None);
        match self.ctx.queue.try_push(job) {
            Ok(depth) => self.state.note_queue_depth(depth),
            Err(_) => {
                // Unreachable by construction (active slots bound queued
                // jobs), but degrade like any other overload if it happens.
                self.note_shed_with_log();
                self.respond_and_close(
                    idx,
                    503,
                    "server overloaded, retry later\n".to_string(),
                    &[("Retry-After", &self.opts.retry_after_secs.to_string())],
                );
            }
        }
    }

    /// Starts flushing a transport-level error response (400/408/413/503)
    /// and closes once it is out. These bypass the flight recorder and the
    /// request counters, matching the blocking tier.
    fn respond_and_close(&mut self, idx: usize, status: u16, body: String, extra: &[(&str, &str)]) {
        let bytes = render_response(status, &body, "text/plain; charset=utf-8", false, extra);
        let token = self.token_of(idx);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.out = bytes;
        conn.out_pos = 0;
        conn.keep_after_write = false;
        conn.write_meta = None;
        conn.phase = Phase::Writing;
        let fd = raw_fd(&conn.stream);
        let _ = self.poller.modify(fd, token, Interest::None);
        let deadline = self.now_ms() + self.opts.timeout_ms.max(1);
        self.arm_deadline(idx, deadline);
        self.do_write(idx);
    }

    /// Collects worker completions and starts their response writes.
    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self.ctx.completions.lock().expect("completions lock");
            std::mem::take(&mut *guard)
        };
        for completion in done {
            let Some(idx) = self.conn_at(completion.token) else {
                // The connection died while its request executed (only
                // possible on registration failure); keep the books
                // consistent by recording the trace anyway.
                let Completion {
                    tracer,
                    endpoint,
                    status,
                    ..
                } = completion;
                finish_request(&self.state, self.opts.slow_ms, tracer, endpoint, status);
                continue;
            };
            self.begin_write(idx, completion);
        }
    }

    /// Starts flushing a routed response; the write span stays open until
    /// the last byte is out.
    fn begin_write(&mut self, idx: usize, completion: Completion) {
        let Completion {
            bytes,
            keep,
            status,
            endpoint,
            mut tracer,
            ..
        } = completion;
        let span = tracer.begin("write");
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.out = bytes;
        conn.out_pos = 0;
        conn.keep_after_write = keep;
        conn.write_meta = Some((tracer, span, endpoint, status));
        conn.phase = Phase::Writing;
        let deadline = self.now_ms() + self.opts.timeout_ms.max(1);
        self.arm_deadline(idx, deadline);
        self.do_write(idx);
    }

    /// Writes until done or `WouldBlock`; only a stalled write registers
    /// write interest (the optimistic first flush usually completes).
    fn do_write(&mut self, idx: usize) {
        enum Next {
            Done,
            Stalled,
            Broken,
        }
        let next = loop {
            let conn = self.conns[idx].as_mut().expect("live conn");
            let pending = &conn.out[conn.out_pos..];
            if pending.is_empty() {
                break Next::Done;
            }
            match conn.stream.write(pending) {
                Ok(0) => break Next::Broken,
                Ok(n) => conn.out_pos += n,
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break Next::Stalled,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break Next::Broken,
            }
        };
        match next {
            Next::Done => self.finish_write(idx),
            Next::Stalled => {
                let token = self.token_of(idx);
                let fd = raw_fd(&self.conns[idx].as_ref().expect("live conn").stream);
                let _ = self.poller.modify(fd, token, Interest::Write);
            }
            Next::Broken => self.abort_write(idx, false),
        }
    }

    /// A response could not be fully written (error or deadline). The
    /// request itself already executed, so its trace is still recorded —
    /// matching the blocking tier, which recorded before checking the
    /// write result.
    fn abort_write(&mut self, idx: usize, timed_out: bool) {
        if timed_out {
            self.state.note_timeout("write");
        }
        let conn = self.conns[idx].as_mut().expect("live conn");
        if let Some((mut tracer, span, endpoint, status)) = conn.write_meta.take() {
            tracer.finish(span);
            finish_request(&self.state, self.opts.slow_ms, tracer, endpoint, status);
        }
        self.close_conn(idx);
    }

    /// The response is fully flushed: finalize the trace, release the
    /// active slot, and either park the connection idle or close it.
    fn finish_write(&mut self, idx: usize) {
        self.clear_deadline(idx);
        let conn = self.conns[idx].as_mut().expect("live conn");
        let meta = conn.write_meta.take();
        let keep = conn.keep_after_write;
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.established = true;
        if let Some((mut tracer, span, endpoint, status)) = meta {
            tracer.finish(span);
            finish_request(&self.state, self.opts.slow_ms, tracer, endpoint, status);
        }
        self.release_slot(idx);
        if !keep || self.draining {
            self.close_conn(idx);
            return;
        }
        let token = self.token_of(idx);
        let conn = self.conns[idx].as_mut().expect("live conn");
        conn.phase = Phase::Idle;
        let fd = raw_fd(&conn.stream);
        let _ = self.poller.modify(fd, token, Interest::Read);
        if self.conns[idx]
            .as_ref()
            .expect("live conn")
            .parser
            .has_partial()
            && self.reactivate(idx)
        {
            // Pipelined bytes arrived with the previous request; they may
            // already hold a complete next request.
            self.pump_parser(idx);
        }
    }

    /// Fires elapsed deadlines. Stale entries (re-armed or disarmed since
    /// scheduling) are ignored by matching the connection's authoritative
    /// deadline — lazy cancellation.
    fn fire_timers(&mut self, now_ms: u64) {
        let mut expired: Vec<(u64, u64)> = Vec::new();
        self.timers.advance(now_ms, &mut expired);
        for (token, deadline) in expired {
            let Some(idx) = self.conn_at(token) else {
                continue;
            };
            let conn = self.conns[idx].as_ref().expect("live conn");
            if conn.deadline_ms != Some(deadline) {
                continue;
            }
            match conn.phase {
                Phase::Reading => {
                    self.state.note_timeout("read");
                    self.respond_and_close(
                        idx,
                        408,
                        "request deadline exceeded\n".to_string(),
                        &[],
                    );
                }
                Phase::Writing => self.abort_write(idx, true),
                // No deadline runs while dispatched or parked idle.
                Phase::Dispatched | Phase::Idle => {}
            }
        }
    }

    /// Begins the graceful drain: refuse new connections at the socket,
    /// close parked idle and silent fresh connections, and let everything
    /// mid-request (reading, executing, writing) run to completion under
    /// its normal deadlines.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.remove(raw_fd(&listener));
            drop(listener);
        }
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            let droppable = match conn.phase {
                Phase::Idle => !conn.parser.has_partial(),
                // A fresh connection that never sent a byte has nothing in
                // flight to drain.
                Phase::Reading => !conn.parser.has_partial(),
                Phase::Dispatched | Phase::Writing => false,
            };
            if droppable {
                self.close_conn(idx);
            }
        }
    }

    /// Removes a connection: deregisters, recycles the slab slot (bumping
    /// the generation so stale tokens miss) and releases its active slot.
    fn close_conn(&mut self, idx: usize) {
        self.release_slot(idx);
        let conn = self.conns[idx].take().expect("live conn");
        let _ = self.poller.remove(raw_fd(&conn.stream));
        drop(conn);
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        self.state.note_open_connections(self.open);
    }
}

/// One worker: pull parsed requests off the queue, execute, render the
/// response bytes, and hand the completion back to the event loop. Workers
/// never touch sockets — prediction work is all they do.
fn worker_loop(ctx: &ServerCtx) {
    while let Some(job) = ctx.queue.pop() {
        ctx.state.note_queue_depth(ctx.queue.depth());
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        let mut tracer = RequestTracer::with_read(job.trace_id, job.read_us, queue_wait_us);
        if job.index > 1 {
            ctx.state.note_keepalive_reuse();
        }
        ctx.state.inflight_delta(1);
        let handle_span = tracer.begin("handle");
        let (status, body, content_type) = if job.req.method == "POST"
            && job.req.path == "/admin/shutdown"
        {
            ctx.shutdown.trigger();
            (
                200,
                "draining: in-flight requests complete, new connections are refused\n".to_string(),
                "text/plain; charset=utf-8",
            )
        } else {
            route(&job.req, &ctx.state, &mut tracer)
        };
        let elapsed = tracer.finish(handle_span);
        record_request(&ctx.state, &job.req, status, elapsed);
        ctx.state.inflight_delta(-1);
        let keep = !ctx.shutdown.is_shutdown()
            && !job.req.close
            && job.index < ctx.opts.keepalive_max_requests.max(1);
        let bytes = render_response(status, &body, content_type, keep, &[]);
        let completion = Completion {
            token: job.token,
            bytes,
            keep,
            status,
            endpoint: endpoint_label(&job.req.path),
            tracer,
        };
        if let Ok(mut pending) = ctx.completions.lock() {
            pending.push(completion);
        }
        ctx.shutdown.waker.wake();
    }
}

/// Builds one request's span tree on a microsecond clock.
///
/// The tracer drives a manual-clock [`Recorder`]: ticks are µs since the
/// connection was accepted, so the `queue_wait` span (accept → worker
/// pickup, zero-length on keep-alive reuses) occupies `[0, offset)` and
/// every later span is stamped from a single `Instant` anchor. Freezing
/// ([`RequestTracer::into_trace`]) closes the root and yields the
/// [`RequestTrace`] fed to the flight recorder.
struct RequestTracer {
    /// Trace id drawn for this request at admission.
    trace_id: u64,
    rec: Recorder,
    /// Real-time anchor: the instant the worker picked the connection up.
    epoch: Instant,
    /// Ticks (µs) that elapsed before `epoch` — the queue wait.
    offset_us: u64,
    root: SpanId,
}

impl RequestTracer {
    /// A tracer with no wire history — queue wait only (unit tests).
    #[cfg(test)]
    fn new(trace_id: u64, queue_wait_us: u64) -> Self {
        Self::with_read(trace_id, 0, queue_wait_us)
    }

    /// Builds a tracer whose pre-pickup history is already known: the wire
    /// time (`read` span, `[0, read_us)`) the event loop measured, then
    /// the queue wait (`[read_us, read_us + queue_wait_us)`). The worker
    /// calls this at pickup so every later span is stamped live.
    fn with_read(trace_id: u64, read_us: u64, queue_wait_us: u64) -> Self {
        let mut rec = Recorder::manual();
        let root = rec.start("request");
        if read_us > 0 {
            let read = rec.start("read");
            rec.set_time(read_us);
            rec.end(read);
        }
        let wait = rec.start("queue_wait");
        rec.set_time(read_us + queue_wait_us);
        rec.end(wait);
        Self {
            trace_id,
            rec,
            epoch: Instant::now(),
            offset_us: read_us + queue_wait_us,
            root,
        }
    }

    fn now_ticks(&self) -> u64 {
        self.offset_us + self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a child span at the current wall time.
    fn begin(&mut self, name: &str) -> SpanId {
        let t = self.now_ticks();
        self.rec.set_time(t);
        self.rec.start(name)
    }

    /// Closes `span` at the current wall time, returning its duration in
    /// seconds (for bridging into the stage-latency histograms).
    fn finish(&mut self, span: SpanId) -> f64 {
        let t = self.now_ticks();
        self.rec.set_time(t);
        self.rec.end(span);
        self.rec
            .record_of(span)
            .map(|s| s.duration() as f64 / 1e6)
            .unwrap_or(0.0)
    }

    /// Closes everything and freezes the tree into a [`RequestTrace`].
    fn into_trace(mut self, label: &str, status: u16) -> RequestTrace {
        let t = self.now_ticks();
        self.rec.set_time(t);
        self.rec.end(self.root);
        self.rec.close_all();
        RequestTrace::new(self.trace_id, label, status, self.rec.spans().to_vec())
    }
}

/// Records one completed request into the flight recorder and, when it
/// blew the `slow_ms` budget, logs the full span breakdown.
fn finish_request(
    state: &ServeState,
    slow_ms: u64,
    tracer: RequestTracer,
    endpoint: &str,
    status: u16,
) {
    let trace = tracer.into_trace(endpoint, status);
    let total_us = trace.total_ticks();
    if total_us >= slow_ms.saturating_mul(1_000) {
        let breakdown = trace
            .spans
            .iter()
            .filter(|s| s.name != "request")
            .map(|s| format!("{}={}us", s.name, s.duration()))
            .collect::<Vec<_>>()
            .join(" ");
        state.logger.warn(
            "serve",
            "slow request",
            &[
                ("trace_id", trace.trace_id.to_string()),
                ("endpoint", endpoint.to_string()),
                ("status", status.to_string()),
                ("total_us", total_us.to_string()),
                ("spans", breakdown),
            ],
        );
    }
    state.flight.record(trace);
}

/// Renders one HTTP/1.1 response as wire bytes, announcing the
/// keep-alive decision. Workers render; the event loop flushes.
fn render_response(
    status: u16,
    body: &str,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Splits a request target into `(path, query)` at the first `?`.
fn split_query(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// Reads a `k=v` integer out of a query string. An absent key yields
/// `default`; a present value must be a positive integer (anything else —
/// garbage, zero, negatives, empty — is an error the caller turns into a
/// 400 instead of silently replacing the value). In-range values are
/// clamped to `[1, max]` — `max` is the structure's actual retention, so
/// over-asking degrades to "everything retained" rather than erroring.
fn query_count(
    query: Option<&str>,
    key: &str,
    default: usize,
    max: usize,
) -> Result<usize, String> {
    let raw = query
        .into_iter()
        .flat_map(|q| q.split('&'))
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='));
    match raw {
        None => Ok(default.clamp(1, max.max(1))),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n.clamp(1, max.max(1))),
            _ => Err(format!(
                "query parameter `{key}` must be a positive integer, got `{v}`"
            )),
        },
    }
}

/// Collapses a request target into a bounded endpoint label: known paths
/// keep their name (query stripped), everything else becomes `other` so a
/// scanner cannot blow up metric cardinality or trace labels.
fn endpoint_label(target: &str) -> &'static str {
    match split_query(target).0 {
        "/predict" => "/predict",
        "/predict/batch" => "/predict/batch",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/manifest" => "/manifest",
        "/admin/shutdown" => "/admin/shutdown",
        "/debug/requests" => "/debug/requests",
        "/debug/slow" => "/debug/slow",
        _ => "other",
    }
}

/// Routes one request, returning `(status, body, content type)`.
/// (`POST /admin/shutdown` is intercepted by the worker loop, which owns
/// the shutdown handle; everything else lands here.)
fn route(
    req: &Request,
    state: &ServeState,
    tracer: &mut RequestTracer,
) -> (u16, String, &'static str) {
    let json_error = |msg: String| {
        serde_json::to_string(&Value::Map(vec![("error".to_string(), Value::Str(msg))]))
            .unwrap_or_default()
    };
    let (path, query) = split_query(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => (200, "ok\n".to_string(), "text/plain; charset=utf-8"),
        ("GET", "/metrics") => (
            200,
            state.render_metrics(),
            "text/plain; version=0.0.4; charset=utf-8",
        ),
        ("GET", "/manifest") => (200, state.manifest.to_json_pretty(), "application/json"),
        ("GET", "/debug/requests") => match query_count(query, "n", 32, state.flight.capacity()) {
            Ok(n) => (
                200,
                state.flight.chrome_recent(n, "pulp-serve"),
                "application/json",
            ),
            Err(msg) => (400, json_error(msg), "application/json"),
        },
        ("GET", "/debug/slow") => match query_count(query, "n", 16, state.flight.slow_capacity()) {
            Ok(n) => (200, state.flight.slow_json(n), "application/json"),
            Err(msg) => (400, json_error(msg), "application/json"),
        },
        ("POST", "/predict" | "/predict/batch") => match predict(req, state, tracer) {
            Ok(body) => (200, body, "application/json"),
            Err(msg) => (400, json_error(msg), "application/json"),
        },
        ("GET", "/predict" | "/predict/batch" | "/admin/shutdown") => {
            (405, "use POST\n".to_string(), "text/plain; charset=utf-8")
        }
        _ => (404, "not found\n".to_string(), "text/plain; charset=utf-8"),
    }
}

/// One featurised prediction request: the full static vector plus, for
/// known kernels, the identity used to look up the measured energy.
struct Featurized {
    full: Vec<f64>,
    lookup: Option<(String, String, usize)>,
}

/// Turns one `/predict`-shaped body (already parsed) into the full static
/// feature vector — either taken verbatim from `features` or computed
/// server-side for a registered `kernel`.
fn featurize(body: &Value) -> Result<Featurized, String> {
    if let Ok(seq) = body.field("features").and_then(Value::as_seq) {
        let full: Vec<f64> = seq
            .iter()
            .map(|v| {
                v.as_f64()
                    .map_err(|_| "features must be an array of numbers".to_string())
            })
            .collect::<Result<_, _>>()?;
        return Ok(Featurized { full, lookup: None });
    }
    let name = body
        .field("kernel")
        .and_then(Value::as_str)
        .map_err(|_| "body needs `features` (array) or `kernel` (string)".to_string())?;
    let dtype_text = body.field("dtype").and_then(Value::as_str).unwrap_or("i32");
    let dtype = match dtype_text {
        "i32" => kernel_ir::DType::I32,
        "f32" => kernel_ir::DType::F32,
        other => return Err(format!("unknown dtype `{other}` (want i32 or f32)")),
    };
    let size = body.field("size").and_then(Value::as_u64).unwrap_or(2048) as usize;
    let def = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown kernel `{name}`"))?;
    if !def.supports(dtype) {
        return Err(format!("kernel `{name}` does not support {dtype}"));
    }
    let kernel = def
        .build(&pulp_kernels::KernelParams::new(dtype, size))
        .map_err(|e| format!("kernel `{name}` rejects size {size}: {e}"))?;
    Ok(Featurized {
        full: static_feature_vector(&kernel),
        lookup: Some((name.to_string(), dtype.to_string(), size)),
    })
}

/// Builds one `/predict`-reply map for a finished prediction, folding the
/// expected-energy lookup into the energy-lookup counter. `lookup` is the
/// `(kernel, dtype, size)` identity of a registered kernel's request.
fn reply_map(state: &ServeState, cores: usize, lookup: Option<&(String, String, usize)>) -> Value {
    // Expected energy at the predicted core count, when the training sweep
    // measured this exact sample.
    let expected = lookup.and_then(|(name, dtype, size)| {
        state
            .samples
            .iter()
            .find(|(k, d, p, _)| k == name && d == dtype && *p == *size)
            .and_then(|(_, _, _, energy)| energy.get(cores - 1).copied())
    });
    let outcome = if expected.is_some() { "hit" } else { "miss" };
    state.counter_add(
        "pulp_predict_energy_lookups_total",
        "Expected-energy lookups against the training sweep.",
        &[("outcome", outcome)],
        1.0,
    );
    let mut reply = vec![
        ("cores".to_string(), Value::U64(cores as u64)),
        ("class".to_string(), Value::U64((cores - 1) as u64)),
        (
            "expected_energy_fj".to_string(),
            expected.map_or(Value::Null, Value::F64),
        ),
        (
            "model".to_string(),
            Value::Str(state.metadata.feature_set.clone()),
        ),
    ];
    if let Some((name, dtype, size)) = lookup {
        reply.push(("kernel".to_string(), Value::Str(name.clone())));
        reply.push(("dtype".to_string(), Value::Str(dtype.clone())));
        reply.push(("size".to_string(), Value::U64(*size as u64)));
    }
    Value::Map(reply)
}

fn observe_stages(state: &ServeState, stages: &[(&str, f64)]) {
    if let Ok(mut metrics) = state.metrics.lock() {
        for (stage, s) in stages {
            metrics.histogram_observe_with(
                "pulp_predict_stage_seconds",
                "Per-stage /predict latency.",
                &[("stage", stage)],
                *s,
                latency_buckets,
            );
        }
    }
}

/// Serves both prediction routes: one `/predict` body, or a
/// `/predict/batch` body whose `requests` array holds `/predict` bodies.
/// Parse → featurise and width-check every item → one
/// [`EnergyPredictor::predict_cores_batch`] call → the item's reply map,
/// or `{count, results}` with one map per item, in order. A batch item's
/// error names it (`requests[i]: ...`).
///
/// Stage timings come from the request tracer's spans, so the
/// `pulp_predict_stage_seconds` histograms and the span tree in the flight
/// recorder always agree. Error returns may leave the current stage span
/// open; the tracer closes stragglers when the request tree is frozen.
fn predict(
    req: &Request,
    state: &ServeState,
    tracer: &mut RequestTracer,
) -> Result<String, String> {
    let batch = split_query(&req.path).0 == "/predict/batch";
    let span = tracer.begin("parse");
    let body: Value =
        serde_json::from_str(&req.body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let items = if batch {
        let items = body
            .field("requests")
            .and_then(Value::as_seq)
            .map_err(|_| "body needs `requests` (array of /predict bodies)".to_string())?;
        if items.is_empty() {
            return Err("`requests` must not be empty".to_string());
        }
        items
    } else {
        std::slice::from_ref(&body)
    };
    let parse_s = tracer.finish(span);

    let span = tracer.begin("features");
    let mut rows = Vec::with_capacity(items.len());
    let mut lookups = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        // Validated per item so a batch error names the offender;
        // `predict_cores_batch` would only report the width.
        let featurized = featurize(item).and_then(|f| {
            EnergyPredictor::check_feature_width(&f.full).map_err(|e| e.to_string())?;
            Ok(f)
        });
        match featurized {
            Ok(Featurized { full, lookup }) => {
                rows.push(full);
                lookups.push(lookup);
            }
            Err(e) if batch => return Err(format!("requests[{i}]: {e}")),
            Err(e) => return Err(e),
        }
    }
    let features_s = tracer.finish(span);

    let span = tracer.begin("predict");
    let cores = state
        .predictor
        .predict_cores_batch(&rows)
        .map_err(|e| e.to_string())?;
    let predict_s = tracer.finish(span);

    let span = tracer.begin("serialize");
    let mut results: Vec<Value> = cores
        .iter()
        .zip(&lookups)
        .map(|(&c, lookup)| reply_map(state, c, lookup.as_ref()))
        .collect();
    let reply = if batch {
        Value::Map(vec![
            ("count".to_string(), Value::U64(results.len() as u64)),
            ("results".to_string(), Value::Seq(results)),
        ])
    } else {
        results.swap_remove(0)
    };
    let out = serde_json::to_string(&reply).map_err(|e| e.to_string());
    let serialize_s = tracer.finish(span);

    observe_stages(
        state,
        &[
            ("parse", parse_s),
            ("features", features_s),
            ("predict", predict_s),
            ("serialize", serialize_s),
        ],
    );
    if batch {
        if let Ok(mut metrics) = state.metrics.lock() {
            metrics.histogram_observe(
                "pulp_predict_batch_size",
                "Items per /predict/batch request.",
                &[],
                items.len() as f64,
            );
        }
    }
    out
}

/// Folds one served request into the registry: cumulative counter and
/// histogram plus the sliding-window latency series rendered next to them.
fn record_request(state: &ServeState, req: &Request, status: u16, elapsed_s: f64) {
    let endpoint = endpoint_label(&req.path);
    let now_s = state.started.elapsed().as_secs();
    if let Ok(mut metrics) = state.metrics.lock() {
        metrics.counter_add(
            "pulp_http_requests_total",
            "HTTP requests served, by endpoint and status.",
            &[("endpoint", endpoint), ("status", &status.to_string())],
            1.0,
        );
        metrics.histogram_observe_with(
            "pulp_http_request_seconds",
            "End-to-end request latency.",
            &[("endpoint", endpoint)],
            elapsed_s,
            latency_buckets,
        );
        metrics.windowed_observe_with(
            "pulp_serve_request_seconds_window",
            "Request latency over the sliding window (p50/p90/p99).",
            &[("endpoint", endpoint)],
            elapsed_s,
            now_s,
            || WindowConfig {
                buckets: latency_buckets(),
                ..WindowConfig::default()
            },
        );
    }
}

#[cfg(unix)]
mod signal {
    //! Minimal std-only SIGINT/SIGTERM hook: the handler just flips an
    //! atomic (the only async-signal-safe thing it could do); a watcher
    //! thread polls the atomic and runs the graceful drain.

    use super::ShutdownHandle;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // `signal(2)` from the platform C library std already links; the
        // workspace stays dependency-free (no libc crate).
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the handlers and spawns the watcher that triggers
    /// `handle` once a signal arrives.
    pub fn install(handle: ShutdownHandle) {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        std::thread::Builder::new()
            .name("serve-signal-watcher".to_string())
            .spawn(move || loop {
                if SIGNALLED.load(Ordering::SeqCst) {
                    handle.trigger();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("spawn signal watcher");
    }
}

/// Wires SIGINT/SIGTERM to a graceful drain of the server owning `handle`
/// (no-op on non-unix platforms, where `POST /admin/shutdown` remains the
/// shutdown path).
pub fn install_signal_shutdown(handle: ShutdownHandle) {
    #[cfg(unix)]
    signal::install(handle);
    #[cfg(not(unix))]
    let _ = handle;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_obs::validate_exposition;

    fn quick_state() -> ServeState {
        let opts = PipelineOptions::quick(&["vec_scale", "fpu_storm"]);
        ServeState::train(&opts)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.into(),
            close: false,
        }
    }

    fn tracer() -> RequestTracer {
        RequestTracer::new(0, 0)
    }

    /// The one prediction handler, on the route `req` names.
    fn predict(req: &Request, state: &ServeState) -> Result<String, String> {
        super::predict(req, state, &mut tracer())
    }

    fn route(req: &Request, state: &ServeState) -> (u16, String, &'static str) {
        super::route(req, state, &mut tracer())
    }

    #[test]
    fn trained_state_renders_a_valid_exposition() {
        let state = quick_state();
        let text = state.render_metrics();
        validate_exposition(&text).expect("startup exposition valid");
        assert!(text.contains("pulp_model_info"));
        assert!(
            text.contains("pulp_pipeline_stage_ticks"),
            "training stage histograms bridged from the Recorder:\n{text}"
        );
    }

    #[test]
    fn predict_by_kernel_matches_offline_predictor() {
        let state = quick_state();
        let req = post(
            "/predict",
            r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#,
        );
        let body = predict(&req, &state).expect("predicts");
        let v: Value = serde_json::from_str(&body).expect("json");
        let cores = v.field("cores").and_then(Value::as_u64).expect("cores") as usize;
        assert!((1..=8).contains(&cores));
        assert!(
            v.field("expected_energy_fj")
                .and_then(Value::as_f64)
                .is_ok(),
            "training sample must resolve an expected energy: {body}"
        );
    }

    #[test]
    fn predict_by_features_and_errors() {
        let state = quick_state();
        let mk = |body: &str| post("/predict", body);
        let features: Vec<String> = (0..20).map(|i| format!("{}.0", i + 1)).collect();
        let ok = predict(
            &mk(&format!("{{\"features\": [{}]}}", features.join(","))),
            &state,
        )
        .expect("full vector predicts");
        let v: Value = serde_json::from_str(&ok).expect("json");
        assert!(matches!(
            v.field("expected_energy_fj").expect("field"),
            Value::Null
        ));

        assert!(predict(&mk("{\"features\": [1.0]}"), &state)
            .unwrap_err()
            .contains("20"));
        assert!(predict(&mk("not json"), &state).is_err());
        assert!(predict(&mk("{\"kernel\": \"nope\"}"), &state)
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(
            predict(&mk("{\"kernel\": \"gemm\", \"dtype\": \"f64\"}"), &state)
                .unwrap_err()
                .contains("dtype")
        );
    }

    #[test]
    fn batch_predict_is_bit_identical_to_sequential() {
        let state = quick_state();
        let bodies = [
            r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#.to_string(),
            r#"{"kernel": "fpu_storm", "dtype": "f32", "size": 4096}"#.to_string(),
            format!(
                "{{\"features\": [{}]}}",
                (0..20)
                    .map(|i| format!("{}.5", i))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ];
        let sequential: Vec<u64> = bodies
            .iter()
            .map(|b| {
                let reply = predict(&post("/predict", b), &state).expect("sequential predicts");
                let v: Value = serde_json::from_str(&reply).expect("json");
                v.field("cores").and_then(Value::as_u64).expect("cores")
            })
            .collect();
        let batch_body = format!("{{\"requests\": [{}]}}", bodies.join(","));
        let reply = predict(&post("/predict/batch", &batch_body), &state).expect("batch");
        let v: Value = serde_json::from_str(&reply).expect("json");
        assert_eq!(
            v.field("count").and_then(Value::as_u64),
            Ok(bodies.len() as u64)
        );
        let batch: Vec<u64> = v
            .field("results")
            .and_then(Value::as_seq)
            .expect("results")
            .iter()
            .map(|r| r.field("cores").and_then(Value::as_u64).expect("cores"))
            .collect();
        assert_eq!(batch, sequential, "batch must match N sequential predicts");
    }

    #[test]
    fn batch_predict_rejects_bad_shapes() {
        let state = quick_state();
        assert!(predict(&post("/predict/batch", "{}"), &state)
            .unwrap_err()
            .contains("requests"));
        assert!(
            predict(&post("/predict/batch", r#"{"requests": []}"#), &state)
                .unwrap_err()
                .contains("empty")
        );
        let err = predict(
            &post(
                "/predict/batch",
                r#"{"requests": [{"kernel": "vec_scale"}, {"kernel": "nope"}]}"#,
            ),
            &state,
        )
        .unwrap_err();
        assert!(
            err.contains("requests[1]") && err.contains("unknown kernel"),
            "{err}"
        );
    }

    #[test]
    fn request_metrics_move_in_lockstep() {
        let state = quick_state();
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            body: String::new(),
            close: false,
        };
        record_request(&state, &req, 200, 0.001);
        record_request(&state, &req, 200, 0.002);
        let text = state.render_metrics();
        assert!(
            text.contains("pulp_http_requests_total{endpoint=\"/healthz\",status=\"200\"} 2"),
            "{text}"
        );
        validate_exposition(&text).expect("valid after traffic");
    }

    #[test]
    fn routes_cover_the_surface() {
        let state = quick_state();
        let get = |path: &str| Request {
            method: "GET".into(),
            path: path.into(),
            body: String::new(),
            close: false,
        };
        assert_eq!(route(&get("/healthz"), &state).0, 200);
        assert_eq!(route(&get("/metrics"), &state).0, 200);
        assert_eq!(route(&get("/manifest"), &state).0, 200);
        assert_eq!(route(&get("/predict"), &state).0, 405);
        assert_eq!(route(&get("/predict/batch"), &state).0, 405);
        assert_eq!(route(&get("/admin/shutdown"), &state).0, 405);
        assert_eq!(route(&get("/nope"), &state).0, 404);
    }

    fn parse_bytes(text: &str, max_body: usize) -> Result<Request, RequestError> {
        let mut parser = HttpParser::new();
        parser.feed(text.as_bytes());
        parser.feed_eof();
        match parser.take(max_body) {
            Parsed::Request(req) => Ok(req),
            Parsed::Failed(e) => Err(e),
            Parsed::NeedMore => unreachable!("an EOF-fed parser always resolves"),
        }
    }

    #[test]
    fn read_request_parses_a_well_formed_request() {
        let req = parse_bytes(
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi",
            1024,
        )
        .ok()
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, "hi");
        assert!(!req.close);
    }

    #[test]
    fn read_request_reports_connection_wishes() {
        let req = parse_bytes("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 1024)
            .ok()
            .expect("parses");
        assert!(req.close);
        // HTTP/1.0 defaults to close unless keep-alive is requested.
        let req = parse_bytes("GET /healthz HTTP/1.0\r\n\r\n", 1024)
            .ok()
            .expect("parses");
        assert!(req.close);
        let req = parse_bytes(
            "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            1024,
        )
        .ok()
        .expect("parses");
        assert!(!req.close);
    }

    #[test]
    fn read_request_refuses_oversized_bodies_without_allocating() {
        let out = parse_bytes(
            "POST /predict HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
            1024,
        );
        match out {
            Err(RequestError::TooLarge { length, limit }) => {
                assert_eq!(length, 999_999_999_999);
                assert_eq!(limit, 1024);
            }
            _ => panic!("oversized Content-Length must be TooLarge"),
        }
    }

    #[test]
    fn read_request_flags_malformed_input_distinctly() {
        assert!(matches!(
            parse_bytes("garbage\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes("GET /x HTTP/1.1 extra\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes("GET x-no-slash HTTP/1.1\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes("GET /x FTP/1.0\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes("POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse_bytes("GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
        // Clean EOF before any bytes is the normal keep-alive end.
        assert!(matches!(parse_bytes("", 1024), Err(RequestError::Eof)));
        // EOF mid-headers is a truncated request, not a clean close.
        assert!(matches!(
            parse_bytes("GET /x HTTP/1.1\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).ok(), Some(1));
        assert_eq!(q.try_push(2).ok(), Some(2));
        assert_eq!(q.try_push(3), Err(3), "third item must bounce");
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(4), "closed queue refuses items");
        // Consumers drain the backlog, then observe the close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn serve_options_default_is_sane() {
        let o = ServeOptions::default();
        assert!(o.workers >= 1 && o.queue_depth >= 1);
        assert!(o.timeout_ms >= 1 && o.max_body_bytes >= 1024);
        assert!(o.keepalive_max_requests > 1);
        assert!(o.slow_ms >= 1 && o.flight_capacity >= 1);
    }

    #[test]
    fn endpoint_labels_collapse_and_strip_queries() {
        assert_eq!(endpoint_label("/predict"), "/predict");
        assert_eq!(endpoint_label("/debug/requests?n=4"), "/debug/requests");
        assert_eq!(endpoint_label("/healthz?probe=1"), "/healthz");
        assert_eq!(endpoint_label("/wp-admin.php"), "other");
    }

    #[test]
    fn query_counts_parse_strictly_and_clamp_to_capacity() {
        assert_eq!(query_count(Some("n=4"), "n", 32, 64), Ok(4));
        assert_eq!(query_count(Some("a=1&n=9"), "n", 32, 64), Ok(9));
        // Over-asking clamps to what the structure retains.
        assert_eq!(query_count(Some("n=9999"), "n", 32, 64), Ok(64));
        // An absent key is the default; a malformed present value is a
        // client error, not a silent fallback (regression: `n=banana`
        // used to quietly become 32).
        assert_eq!(query_count(None, "n", 32, 64), Ok(32));
        for bad in ["n=0", "n=banana", "n=-3", "n=", "n=1.5"] {
            let err = query_count(Some(bad), "n", 32, 64).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
    }

    #[test]
    fn predict_records_stage_spans_under_the_request_root() {
        let state = quick_state();
        let mut t = tracer();
        let handle = t.begin("handle");
        super::predict(
            &post(
                "/predict",
                r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#,
            ),
            &state,
            &mut t,
        )
        .expect("predicts");
        t.finish(handle);
        let trace = t.into_trace("/predict", 200);
        for name in ["queue_wait", "parse", "features", "predict", "serialize"] {
            assert!(trace.span(name).is_some(), "missing span {name}");
        }
        // Stage spans nest under `handle`, which nests under the root.
        let handle_idx = trace
            .spans
            .iter()
            .position(|s| s.name == "handle")
            .expect("handle span");
        let predict_span = trace.span("predict").expect("predict span");
        assert_eq!(predict_span.parent, Some(handle_idx));
        // The tracer's seconds agree with the frozen span durations.
        assert!(trace.total_ticks() > 0);
    }

    #[test]
    fn debug_endpoints_serve_flight_data() {
        let state = quick_state();
        // Seed the flight recorder with two completed requests.
        for (path, body) in [
            (
                "/predict",
                r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#,
            ),
            (
                "/predict",
                r#"{"kernel": "fpu_storm", "dtype": "f32", "size": 1024}"#,
            ),
        ] {
            let mut t = tracer();
            let handle = t.begin("handle");
            super::predict(&post(path, body), &state, &mut t).expect("predicts");
            t.finish(handle);
            state.flight.record(t.into_trace("/predict", 200));
        }
        let (status, body, ct) = route(
            &Request {
                method: "GET".into(),
                path: "/debug/requests?n=2".into(),
                body: String::new(),
                close: false,
            },
            &state,
        );
        assert_eq!((status, ct), (200, "application/json"));
        pulp_obs::validate_chrome_trace(&body).expect("debug trace validates");
        assert!(body.contains("queue_wait"), "{body}");

        let (status, body, _) = route(
            &Request {
                method: "GET".into(),
                path: "/debug/slow".into(),
                body: String::new(),
                close: false,
            },
            &state,
        );
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).expect("slow json");
        assert_eq!(v.as_seq().expect("array").len(), 2);
    }

    #[test]
    fn windowed_series_render_and_track_the_cumulative_histogram() {
        let state = quick_state();
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            body: String::new(),
            close: false,
        };
        for i in 0..50 {
            record_request(&state, &req, 200, 0.001 + f64::from(i) * 1e-5);
        }
        let text = state.render_metrics();
        validate_exposition(&text).expect("windowed series render validly");
        assert!(
            text.contains(
                "pulp_serve_request_seconds_window{endpoint=\"/healthz\",quantile=\"0.99\"}"
            ),
            "{text}"
        );
        // With every observation in the live window, windowed and
        // cumulative p99 agree to bucket resolution.
        let windowed = state
            .windowed_quantile(
                "pulp_serve_request_seconds_window",
                &[("endpoint", "/healthz")],
                0.99,
            )
            .expect("windowed p99");
        let cumulative = state
            .histogram_quantile(
                "pulp_http_request_seconds",
                &[("endpoint", "/healthz")],
                0.99,
            )
            .expect("cumulative p99");
        assert_eq!(windowed, cumulative);
    }

    #[test]
    fn slow_requests_emit_a_structured_log_line() {
        let state = Arc::new(quick_state().with_logger(Logger::to_sink(LogFormat::Json)));
        let mut t = tracer();
        let span = t.begin("handle");
        t.finish(span);
        finish_request(&state, 0, t, "/healthz", 200); // slow_ms=0: everything is slow
        let lines = state.log_lines().expect("sink logger");
        assert_eq!(lines.len(), 1, "{lines:?}");
        let v: Value = serde_json::from_str(&lines[0]).expect("json log line");
        assert_eq!(v.field("stage").and_then(Value::as_str), Ok("serve"));
        assert_eq!(v.field("msg").and_then(Value::as_str), Ok("slow request"));
        assert_eq!(v.field("endpoint").and_then(Value::as_str), Ok("/healthz"));
        assert!(v
            .field("spans")
            .and_then(Value::as_str)
            .expect("spans field")
            .contains("queue_wait="));
        assert_eq!(state.flight.len(), 1, "trace recorded");

        // A generous budget suppresses the line but still records the trace.
        let quiet = Arc::new(quick_state().with_logger(Logger::to_sink(LogFormat::Json)));
        let mut t = tracer();
        let span = t.begin("handle");
        t.finish(span);
        finish_request(&quiet, ServeOptions::default().slow_ms, t, "/healthz", 200);
        assert!(quiet.log_lines().expect("sink").is_empty());
        assert_eq!(quiet.flight.len(), 1);
    }
}
