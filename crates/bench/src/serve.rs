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
//! socket, epoll and the timer wheel ([`crate::net`]); a socket-free
//! connection core decides what each connection does next. Workers never
//! touch a socket — they run the predictor, render the response bytes and
//! hand them back through a completion list plus an eventfd waker.
//! Admission is a bounded *active* set of `workers + queue_depth`
//! connections (accept → response flushed); beyond it connections shed
//! with `503` + `Retry-After`. Parked keep-alive connections hold no slot,
//! no thread and no timer, which is what lets one loop hold 10k+ of them.
//!
//! Endpoints:
//!
//! * `POST /predict` — body `{"kernel": "gemm", "dtype": "f32", "size":
//!   2048}` (a known kernel: a swept sample's features come from a table
//!   built at train time, any other size is built server-side) or
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
//! Every request draws a plain `u64` trace id from a [`TraceIdGen`] when
//! a worker picks it up, records read/queue-wait/features/predict/
//! serialize/write child spans under one `request` root, feeds the
//! completed tree into a bounded [`FlightRecorder`], and — when it exceeds
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

mod conn;

use crate::net::{raw_fd, Event, Interest, Poller, TimerWheel, Waker};
pub use crate::net::{Request, RequestError};
use conn::{Action, ConnCore, Input, Job};
use kernel_ir::DType;
use pulp_energy::manifest::RunManifest;
use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_energy::{static_feature_vector, EnergyPredictor, PredictorMetadata, StaticFeatureSet};
use pulp_ml::TreeParams;
use pulp_obs::recorder::{Recorder, SpanId};
use pulp_obs::{
    FlightRecorder, LogFormat, Logger, MetricsRegistry, RequestTrace, TraceIdGen, WindowConfig,
};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// A training sample's `(kernel, dtype, payload_bytes)`.
type SampleKey = (String, DType, usize);

/// Shared state of one running prediction service.
pub struct ServeState {
    predictor: EnergyPredictor,
    metadata: PredictorMetadata,
    /// Every training sample's `(static row, energy per core count)`. The
    /// pipeline computes the row with the call `featurize` makes on a miss,
    /// so serving a swept kernel from here is exact.
    registered: HashMap<SampleKey, (Vec<f64>, Vec<f64>)>,
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
        let registered = data
            .samples
            .iter()
            .map(|s| {
                let key = (s.kernel.clone(), s.dtype, s.payload_bytes);
                (key, (s.static_x.clone(), s.energy.clone()))
            })
            .collect();
        Self {
            predictor,
            metadata,
            registered,
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
        self.metrics().windowed_quantile(name, labels, q)
    }

    /// A cumulative-histogram quantile at bucket resolution, if the series
    /// exists and is non-empty.
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.metrics().histogram_quantile(name, labels, q)
    }

    /// The metrics registry. A panic caught on a worker while it held the
    /// lock leaves the registry usable, so the poison is ignored.
    fn metrics(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Renders the current `/metrics` exposition.
    pub fn render_metrics(&self) -> String {
        self.metrics().render()
    }

    /// Reads one metric sample back out of the registry — the programmatic
    /// mirror of scraping `/metrics`, used by the load benchmark and the
    /// integration tests.
    pub fn metric_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.metrics().value(name, labels)
    }

    fn counter_add(&self, name: &str, help: &'static str, labels: &[(&str, &str)], delta: f64) {
        self.metrics().counter_add(name, help, labels, delta);
    }

    fn gauge_set(&self, name: &str, help: &'static str, labels: &[(&str, &str)], value: f64) {
        self.metrics().gauge_set(name, help, labels, value);
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
        self.metrics().windowed_gauge_set(
            "pulp_serve_queue_depth_window",
            "Peak accept-queue depth over the sliding window.",
            &[],
            depth as f64,
            self.started.elapsed().as_secs(),
        );
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
        let g = self.inner.lock().expect("queue lock");
        let empty = |(q, closed): &mut (VecDeque<T>, bool)| q.is_empty() && !*closed;
        let mut g = self.not_empty.wait_while(g, empty).expect("queue wait");
        g.0.pop_front()
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

/// What workers run for every request but `POST /admin/shutdown`:
/// [`route`], which only tests replace.
type Handler = fn(&Request, &ServeState, &mut RequestTracer) -> (u16, String, &'static str);

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
    /// Jobs with their `read` span (µs) and the instant they were queued.
    queue: Arc<BoundedQueue<(Job, u64, Instant)>>,
    completions: Mutex<Vec<Completion>>,
    shutdown: ShutdownHandle,
    handler: Handler,
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
    /// The calling thread becomes the event loop and the fixed worker pool
    /// does the prediction work. On drain, parked idle and silent fresh
    /// connections close at once, in-flight requests (partially read ones
    /// included) complete, then the workers are joined.
    pub fn run(self) {
        self.run_with(route);
    }

    /// [`Server::run`] with workers calling `handler` instead of [`route`].
    fn run_with(self, handler: Handler) {
        let shutdown = self.shutdown_handle();
        let Server {
            listener,
            state,
            opts,
            mut poller,
            ..
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
        let core = ConnCore::new(&opts);
        // Sized so that admission control alone bounds it: every active
        // connection contributes at most one queued job.
        let queue = Arc::new(BoundedQueue::new(core.capacity()));
        let ctx = Arc::new(ServerCtx {
            state: Arc::clone(&state),
            opts,
            queue: Arc::clone(&queue),
            completions: Mutex::new(Vec::new()),
            shutdown: shutdown.clone(),
            handler,
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
            poller,
            listener: Some(listener),
            core,
            streams: HashMap::new(),
            timers: TimerWheel::new(TIMER_GRANULARITY_MS, TIMER_SLOTS),
            started: Instant::now(),
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

/// The readiness event loop: the I/O shell around the [`ConnCore`]. It
/// owns epoll, `accept`, the timer wheel and every socket, feeds what
/// happens to the core and carries out the actions the core returns.
struct EventLoop {
    state: Arc<ServeState>,
    ctx: Arc<ServerCtx>,
    poller: Poller,
    /// Dropped at drain start so new connections are refused at the
    /// socket: `None` means draining.
    listener: Option<TcpListener>,
    /// A routed response carries its tracer with the `write` span open,
    /// endpoint label and status until the core finalises it.
    core: ConnCore<(RequestTracer, SpanId, &'static str, u16)>,
    /// Every open connection's socket, by core token.
    streams: HashMap<u64, TcpStream>,
    timers: TimerWheel,
    started: Instant,
    /// Second (of `now_s`) the last shed log line was emitted — rate-limits
    /// shed logging to one line per second under overload.
    last_shed_log_s: Option<u64>,
}

impl EventLoop {
    fn run(mut self, shutdown: &ShutdownHandle) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Fully idle: block until accept, readiness or the waker.
            let busy = self.listener.is_none() || !self.timers.is_idle();
            let timeout = busy.then_some(TIMER_GRANULARITY_MS);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.state
                    .logger
                    .warn("serve", "poller wait failed", &[("error", e.to_string())]);
                std::thread::sleep(Duration::from_millis(TIMER_GRANULARITY_MS));
            }
            if let Some(listener) = self.listener.take_if(|_| shutdown.is_shutdown()) {
                let _ = self.poller.remove(raw_fd(&listener));
                self.core.drain();
                self.apply();
            }
            // Connection events go where the core's interest says.
            for ev in events.iter().copied() {
                match self.core.interest(ev.token) {
                    _ if ev.token == LISTENER_TOKEN => self.accept_ready(),
                    Some(Interest::Read) if ev.readable || ev.hangup => self.read(ev.token),
                    Some(Interest::Write) if ev.writable || ev.hangup => self.write(ev.token),
                    _ => {}
                }
                self.apply();
            }
            self.drain_completions();
            self.fire_timers();
            if self.listener.is_none() && self.core.open() == 0 {
                return;
            }
        }
    }

    /// The core's clock: µs since the loop started.
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Accepts a burst of pending connections.
    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock (backlog drained) or a failed accept
            };
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let token = self.core.accept(self.now_us());
            let registered = self.poller.add(raw_fd(&stream), token, Interest::Read);
            self.streams.insert(token, stream);
            self.state.note_open_connections(self.core.open());
            if registered.is_err() {
                self.core.handle(self.now_us(), token, Input::ReadError);
            }
            self.apply();
        }
        // The whole batch filled without hitting WouldBlock: connections
        // are arriving faster than one readiness round drains them.
        self.state.note_accept_saturation();
    }

    /// Reads while the core wants bytes, at most `READ_BURST_BYTES` per
    /// event (level-triggered polling re-reports the rest).
    fn read(&mut self, token: u64) {
        let mut buf = [0u8; 16 * 1024];
        let mut total = 0usize;
        while total < READ_BURST_BYTES && self.core.interest(token) == Some(Interest::Read) {
            let Some(stream) = self.streams.get_mut(&token) else {
                return;
            };
            let input = match stream.read(&mut buf) {
                Ok(0) => Input::Eof,
                Ok(n) => {
                    total += n;
                    Input::Read(&buf[..n])
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => Input::ReadError,
            };
            self.core.handle(self.now_us(), token, input);
        }
    }

    /// Writes what the core has pending and reports how far it got.
    fn write(&mut self, token: u64) {
        let Some(stream) = self.streams.get_mut(&token) else {
            return;
        };
        let input = loop {
            match stream.write(self.core.pending(token)) {
                Ok(0) => break Input::WriteError,
                Ok(n) => break Input::Wrote(n),
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break Input::WouldBlock,
                Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break Input::WriteError,
            }
        };
        self.core.handle(self.now_us(), token, input);
    }

    /// Hands worker completions to the core; the `write` span opens here.
    fn drain_completions(&mut self) {
        let done = std::mem::take(&mut *self.ctx.completions.lock().expect("completions lock"));
        for c in done {
            let mut tracer = c.tracer;
            let write = tracer.begin("write");
            let meta = (tracer, write, c.endpoint, c.status);
            let input = Input::Completed {
                bytes: c.bytes,
                keep: c.keep,
                meta,
            };
            self.core.handle(self.now_us(), c.token, input);
            self.apply();
        }
    }

    fn fire_timers(&mut self) {
        let now_us = self.now_us();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        self.timers.advance(now_us / 1000, &mut expired);
        for (token, at_ms) in expired {
            self.core.handle(now_us, token, Input::Timer(at_ms));
        }
        self.apply();
    }

    /// Carries out the core's actions, including those that writing
    /// queues on the way.
    fn apply(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Dispatch(job) => {
                    let read_us = self.now_us().saturating_sub(job.started_us);
                    // Every queued job's connection holds one of the active
                    // slots, and the queue has a place for each slot.
                    let item = (job, read_us, Instant::now());
                    let Ok(depth) = self.ctx.queue.try_push(item) else {
                        unreachable!("active slots bound the queued jobs");
                    };
                    self.state.note_queue_depth(depth);
                }
                Action::Send(token) => self.write(token),
                Action::Interest(token, interest) => {
                    if let Some(stream) = self.streams.get(&token) {
                        let _ = self.poller.modify(raw_fd(stream), token, interest);
                    }
                }
                Action::Arm(token, at_ms) => self.timers.schedule(at_ms, token),
                Action::Finish((mut tracer, write, endpoint, status)) => {
                    tracer.finish(write);
                    finish_request(&self.state, self.ctx.opts.slow_ms, tracer, endpoint, status);
                }
                Action::Close(token) => {
                    if let Some(stream) = self.streams.remove(&token) {
                        let _ = self.poller.remove(raw_fd(&stream));
                    }
                    self.state.note_open_connections(self.core.open());
                }
                Action::Shed => self.note_shed_with_log(),
                Action::TimedOut(kind) => self.state.note_timeout(kind),
            }
        }
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
        let retry_after = self.ctx.opts.retry_after_secs;
        self.state.logger.warn(
            "serve",
            "connection shed",
            &[
                ("queue_depth", self.ctx.queue.depth().to_string()),
                ("active_connections", self.core.active().to_string()),
                ("open_connections", self.core.open().to_string()),
                ("retry_after_secs", retry_after.to_string()),
            ],
        );
    }
}

/// One worker: pull parsed requests off the queue, execute, render the
/// response bytes, and hand the completion back to the event loop. Workers
/// never touch sockets — prediction work is all they do.
fn worker_loop(ctx: &ServerCtx) {
    while let Some((job, read_us, enqueued)) = ctx.queue.pop() {
        ctx.state.note_queue_depth(ctx.queue.depth());
        let queue_wait_us = enqueued.elapsed().as_micros() as u64;
        let trace_id = ctx.state.trace_ids.next_id();
        let mut tracer = RequestTracer::with_read(trace_id, read_us, queue_wait_us);
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
            // A panicking handler still answers: its connection waits for
            // this completion, and a drain waits for the connection.
            let handle = AssertUnwindSafe(|| (ctx.handler)(&job.req, &ctx.state, &mut tracer));
            std::panic::catch_unwind(handle).unwrap_or_else(|_| {
                let fields = [("trace_id", trace_id.to_string())];
                ctx.state.logger.warn("serve", "handler panicked", &fields);
                (500, json_error("internal error"), "application/json")
            })
        };
        let elapsed = tracer.finish(handle_span);
        record_request(&ctx.state, &job.req, status, elapsed);
        ctx.state.inflight_delta(-1);
        let keep = job.keep && !ctx.shutdown.is_shutdown();
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

/// `{"error": msg}` as a JSON body.
fn json_error(msg: &str) -> String {
    let msg = serde_json::to_string(msg).unwrap_or_default();
    format!("{{\"error\":{msg}}}")
}

/// Routes one request, returning `(status, body, content type)`.
/// (`POST /admin/shutdown` is intercepted by the worker loop, which owns
/// the shutdown handle; everything else lands here.)
fn route(
    req: &Request,
    state: &ServeState,
    tracer: &mut RequestTracer,
) -> (u16, String, &'static str) {
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
            Err(msg) => (400, json_error(&msg), "application/json"),
        },
        ("GET", "/debug/slow") => match query_count(query, "n", 16, state.flight.slow_capacity()) {
            Ok(n) => (200, state.flight.slow_json(n), "application/json"),
            Err(msg) => (400, json_error(&msg), "application/json"),
        },
        ("POST", "/predict" | "/predict/batch") => match predict(req, state, tracer) {
            Ok(body) => (200, body, "application/json"),
            Err(msg) => (400, json_error(&msg), "application/json"),
        },
        ("GET", "/predict" | "/predict/batch" | "/admin/shutdown") => {
            (405, "use POST\n".to_string(), "text/plain; charset=utf-8")
        }
        _ => (404, "not found\n".to_string(), "text/plain; charset=utf-8"),
    }
}

/// What a `/predict` reply echoes besides the prediction: for a registered
/// kernel, the `(kernel, dtype, size)` asked for and, when the training
/// sweep measured that sample, its energies.
#[derive(Default)]
struct Echo<'a> {
    kernel: Option<(&'a str, DType, usize)>,
    energy: Option<&'a [f64]>,
}

/// Turns one `/predict`-shaped body (already parsed) into the full static
/// feature vector and the reply's echo. The vector is taken verbatim from
/// `features`, served from the training table for a swept `kernel`, or
/// computed by building any other registered one.
fn featurize<'a>(state: &'a ServeState, body: &'a Value) -> Result<(Vec<f64>, Echo<'a>), String> {
    if let Ok(seq) = body.field("features").and_then(Value::as_seq) {
        let full: Vec<f64> = seq
            .iter()
            .map(|v| {
                v.as_f64()
                    .map_err(|_| "features must be an array of numbers".to_string())
            })
            .collect::<Result<_, _>>()?;
        return Ok((full, Echo::default()));
    }
    let name = body
        .field("kernel")
        .and_then(Value::as_str)
        .map_err(|_| "body needs `features` (array) or `kernel` (string)".to_string())?;
    let dtype = match body.field("dtype").and_then(Value::as_str).unwrap_or("i32") {
        "i32" => DType::I32,
        "f32" => DType::F32,
        other => return Err(format!("unknown dtype `{other}` (want i32 or f32)")),
    };
    let size = body.field("size").and_then(Value::as_u64).unwrap_or(2048) as usize;
    let echo = |energy| Echo {
        kernel: Some((name, dtype, size)),
        energy,
    };
    if let Some((row, energy)) = state.registered.get(&(name.to_string(), dtype, size)) {
        return Ok((row.clone(), echo(Some(energy))));
    }
    let def = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == name)
        .ok_or_else(|| format!("unknown kernel `{name}`"))?;
    if !def.supports(dtype) {
        return Err(format!("kernel `{name}` does not support {dtype}"));
    }
    let built = def
        .build(&pulp_kernels::KernelParams::new(dtype, size))
        .map_err(|e| format!("kernel `{name}` rejects size {size}: {e}"))?;
    Ok((static_feature_vector(&built), echo(None)))
}

/// Appends one `/predict` reply object for a finished prediction to
/// `out`, `model` being the model's name as a JSON string; returns
/// whether the expected energy at `cores` was known. Scalars go through
/// `serde_json::to_string`, so floats and strings are formatted exactly
/// as a serialised `Value` tree formats them.
fn write_reply(out: &mut String, model: &str, cores: usize, echo: &Echo) -> bool {
    let expected = echo.energy.and_then(|e| e.get(cores - 1).copied());
    let json = |s: &str| serde_json::to_string(s).unwrap_or_default();
    let _ = write!(
        out,
        "{{\"cores\":{cores},\"class\":{},\"expected_energy_fj\":{},\"model\":{model}",
        cores - 1,
        serde_json::to_string(&expected).unwrap_or_default(),
    );
    if let Some((name, dtype, size)) = echo.kernel {
        let _ = write!(
            out,
            ",\"kernel\":{},\"dtype\":{},\"size\":{size}",
            json(name),
            json(&dtype.to_string()),
        );
    }
    out.push('}');
    expected.is_some()
}

/// Serves both prediction routes: one `/predict` body, or a
/// `/predict/batch` body whose `requests` array holds `/predict` bodies.
/// Parse → featurise and width-check every item → one
/// [`EnergyPredictor::predict_cores_batch`] call → the item's reply
/// object, or `{count, results}` with one object per item, in order,
/// written straight into one response string. A batch item's error names
/// it (`requests[i]: ...`).
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
    let mut echoes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        // Validated per item so a batch error names the offender;
        // `predict_cores_batch` would only report the width.
        match featurize(state, item).and_then(|f| {
            EnergyPredictor::check_feature_width(&f.0).map_err(|e| e.to_string())?;
            Ok(f)
        }) {
            Ok((full, echo)) => {
                rows.push(full);
                echoes.push(echo);
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
    // A registered-kernel reply is ~120 bytes.
    let mut out = String::with_capacity(32 + 128 * items.len());
    if batch {
        let _ = write!(out, "{{\"count\":{},\"results\":[", items.len());
    }
    let model = serde_json::to_string(&state.metadata.feature_set).unwrap_or_default();
    let mut hits = 0;
    for (i, (&c, echo)) in cores.iter().zip(&echoes).enumerate() {
        if i > 0 {
            out.push(',');
        }
        hits += usize::from(write_reply(&mut out, &model, c, echo));
    }
    if batch {
        out.push_str("]}");
    }
    let serialize_s = tracer.finish(span);

    let mut metrics = state.metrics();
    let stages = [
        ("parse", parse_s),
        ("features", features_s),
        ("predict", predict_s),
        ("serialize", serialize_s),
    ];
    for (stage, s) in stages {
        metrics.histogram_observe_with(
            "pulp_predict_stage_seconds",
            "Per-stage /predict latency.",
            &[("stage", stage)],
            s,
            latency_buckets,
        );
    }
    // Expected energy at the predicted core count is known exactly when
    // the training sweep measured the sample.
    let outcomes = [("hit", hits), ("miss", items.len() - hits)];
    for (outcome, n) in outcomes.into_iter().filter(|&(_, n)| n > 0) {
        metrics.counter_add(
            "pulp_predict_energy_lookups_total",
            "Expected-energy lookups against the training sweep.",
            &[("outcome", outcome)],
            n as f64,
        );
    }
    if batch {
        metrics.histogram_observe(
            "pulp_predict_batch_size",
            "Items per /predict/batch request.",
            &[],
            items.len() as f64,
        );
    }
    Ok(out)
}

/// Folds one served request into the registry: cumulative counter and
/// histogram plus the sliding-window latency series rendered next to them.
fn record_request(state: &ServeState, req: &Request, status: u16, elapsed_s: f64) {
    let endpoint = endpoint_label(&req.path);
    let now_s = state.started.elapsed().as_secs();
    let mut metrics = state.metrics();
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
        // SAFETY: `on_signal` only stores to an atomic, which is
        // async-signal-safe, and the handler stays valid for the process.
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
    use crate::net::{HttpParser, Parsed};
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
        RequestTracer::with_read(0, 0, 0)
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

    /// A quick state together with the dataset it was trained on.
    fn quick_parts() -> (ServeState, LabeledDataset) {
        let opts = PipelineOptions::quick(&["vec_scale", "fpu_storm"]);
        let data = LabeledDataset::build(&opts).expect("quick dataset");
        (ServeState::fit(&data, MetricsRegistry::new(), &opts), data)
    }

    /// One `/predict` reply as the handler produced it before the training
    /// table and direct rendering: the kernel built from the registry, the
    /// energy found by scanning the dataset, the reply a serialised `Value`
    /// tree. Also says whether the energy was known.
    fn oracle_item(state: &ServeState, data: &LabeledDataset, item: &Value) -> (Value, bool) {
        let (full, lookup) = match item.field("features").and_then(Value::as_seq) {
            Ok(seq) => (
                seq.iter().map(|v| v.as_f64().expect("number")).collect(),
                None,
            ),
            Err(_) => {
                let name = item
                    .field("kernel")
                    .and_then(Value::as_str)
                    .expect("kernel");
                let dtype = match item.field("dtype").and_then(Value::as_str) {
                    Ok("f32") => DType::F32,
                    _ => DType::I32,
                };
                let size = item.field("size").and_then(Value::as_u64).unwrap_or(2048) as usize;
                let def = pulp_kernels::registry()
                    .into_iter()
                    .find(|d| d.name == name)
                    .expect("registered kernel");
                let kernel = def
                    .build(&pulp_kernels::KernelParams::new(dtype, size))
                    .expect("kernel builds");
                let lookup = (name.to_string(), dtype.to_string(), size);
                (static_feature_vector(&kernel), Some(lookup))
            }
        };
        let cores = state
            .predictor
            .predict_cores_batch(&[full])
            .expect("predicts")[0];
        let expected = lookup.as_ref().and_then(|(name, dtype, size)| {
            data.samples
                .iter()
                .find(|s| {
                    &s.kernel == name && &s.dtype.to_string() == dtype && s.payload_bytes == *size
                })
                .and_then(|s| s.energy.get(cores - 1).copied())
        });
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
            reply.push(("kernel".to_string(), Value::Str(name)));
            reply.push(("dtype".to_string(), Value::Str(dtype)));
            reply.push(("size".to_string(), Value::U64(size as u64)));
        }
        (Value::Map(reply), expected.is_some())
    }

    /// The oracle's body for a `/predict` or `/predict/batch` request, and
    /// how many of its items knew their expected energy.
    fn oracle(
        state: &ServeState,
        data: &LabeledDataset,
        path: &str,
        body: &str,
    ) -> (String, usize) {
        let body: Value = serde_json::from_str(body).expect("json body");
        let (reply, hits) = if path == "/predict/batch" {
            let items = body
                .field("requests")
                .and_then(Value::as_seq)
                .expect("requests");
            let (results, hits): (Vec<Value>, Vec<bool>) =
                items.iter().map(|i| oracle_item(state, data, i)).unzip();
            let reply = Value::Map(vec![
                ("count".to_string(), Value::U64(results.len() as u64)),
                ("results".to_string(), Value::Seq(results)),
            ]);
            (reply, hits.into_iter().filter(|&h| h).count())
        } else {
            let (reply, hit) = oracle_item(state, data, &body);
            (reply, usize::from(hit))
        };
        (serde_json::to_string(&reply).expect("serialises"), hits)
    }

    /// `/predict` bodies covering every swept sample, off-grid sizes, a
    /// registered kernel outside the sweep, defaults and feature vectors.
    fn probe_bodies(data: &LabeledDataset) -> Vec<String> {
        let mut bodies: Vec<String> = data
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"kernel\":\"{}\",\"dtype\":\"{}\",\"size\":{}}}",
                    s.kernel, s.dtype, s.payload_bytes
                )
            })
            .collect();
        bodies.extend(
            [
                r#"{"kernel": "vec_scale", "dtype": "i32", "size": 1000}"#,
                r#"{"kernel": "fpu_storm", "dtype": "f32", "size": 3000}"#,
                r#"{"kernel": "gemm", "dtype": "f32", "size": 2048}"#,
                r#"{"kernel": "vec_scale"}"#,
                r#"{"features": [1.5, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1e300]}"#,
            ]
            .map(str::to_string),
        );
        let row: Vec<String> = data.samples[0]
            .static_x
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        bodies.push(format!("{{\"features\":[{}]}}", row.join(",")));
        bodies
    }

    #[test]
    fn registered_rows_are_the_static_features_of_a_fresh_build() {
        let (state, data) = quick_parts();
        assert_eq!(state.registered.len(), data.len());
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for s in &data.samples {
            let (row, energy) = &state.registered[&(s.kernel.clone(), s.dtype, s.payload_bytes)];
            let def = pulp_kernels::registry()
                .into_iter()
                .find(|d| d.name == s.kernel)
                .expect("registered kernel");
            let kernel = def
                .build(&pulp_kernels::KernelParams::new(s.dtype, s.payload_bytes))
                .expect("kernel builds");
            assert_eq!(bits(row), bits(&static_feature_vector(&kernel)), "{}", s.id);
            assert_eq!(bits(energy), bits(&s.energy), "{}", s.id);
        }
    }

    #[test]
    fn predict_bodies_are_byte_identical_to_the_value_tree_oracle() {
        let (state, data) = quick_parts();
        for body in probe_bodies(&data) {
            let reply = predict(&post("/predict", &body), &state).expect("predicts");
            assert_eq!(reply, oracle(&state, &data, "/predict", &body).0, "{body}");
        }
    }

    #[test]
    fn mixed_batches_are_byte_identical_to_the_value_tree_oracle() {
        let (state, data) = quick_parts();
        let bodies = probe_bodies(&data);
        for items in [&bodies[..], &bodies[bodies.len() - 4..], &bodies[..1]] {
            let body = format!("{{\"requests\": [{}]}}", items.join(", "));
            let reply = predict(&post("/predict/batch", &body), &state).expect("batch");
            assert_eq!(reply, oracle(&state, &data, "/predict/batch", &body).0);
        }
    }

    #[test]
    fn energy_lookup_counts_match_per_item_counting() {
        let (state, data) = quick_parts();
        let count = |outcome: &str| {
            state.metric_value("pulp_predict_energy_lookups_total", &[("outcome", outcome)])
        };
        let bodies = probe_bodies(&data);
        let features = bodies.last().expect("a features body");
        predict(&post("/predict", features), &state).expect("predicts");
        // An outcome no item had is not counted at all, not counted as 0.
        assert_eq!((count("hit"), count("miss")), (None, Some(1.0)));
        let (mut hits, mut items) = (0, 1);
        let batch = format!("{{\"requests\": [{}]}}", bodies.join(", "));
        let requests = bodies
            .iter()
            .map(|b| ("/predict", b.clone()))
            .chain([("/predict/batch", batch)]);
        for (path, body) in requests {
            predict(&post(path, &body), &state).expect("predicts");
            hits += oracle(&state, &data, path, &body).1;
            items += if path == "/predict" { 1 } else { bodies.len() };
            assert_eq!(count("hit"), Some(hits as f64), "{body}");
            assert_eq!(count("miss"), Some((items - hits) as f64), "{body}");
        }
        assert!(hits > 0 && hits < items);
    }

    /// One request on a fresh connection; the reply's status and body.
    fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all((head + body).as_bytes()).expect("send");
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("a reply before the timeout");
        let (head, body) = reply.split_once("\r\n\r\n").expect("head and body");
        (head[9..12].parse().expect("status code"), body.to_string())
    }

    #[test]
    fn a_panicking_handler_answers_500_and_its_worker_serves_on() {
        /// Panics on `/panic` while holding the metrics lock, so the
        /// registry is poisoned too; routes everything else.
        fn panicking(
            req: &Request,
            state: &ServeState,
            tracer: &mut RequestTracer,
        ) -> (u16, String, &'static str) {
            if req.path == "/panic" {
                let _held = state.metrics.lock();
                panic!("handler fault under test");
            }
            super::route(req, state, tracer)
        }
        let state = Arc::new(quick_state().with_logger(Logger::to_sink(LogFormat::Text)));
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", Arc::clone(&state), opts).expect("bind");
        let addr = server.addr;
        let running = std::thread::spawn(move || server.run_with(panicking));

        let (status, body) = call(addr, "POST", "/panic", "");
        assert_eq!(
            (status, body.as_str()),
            (500, r#"{"error":"internal error"}"#)
        );
        let kernel = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
        let (status, body) = call(addr, "POST", "/predict", kernel);
        assert_eq!(status, 200, "the one worker survived: {body}");
        let (status, metrics) = call(addr, "GET", "/metrics", "");
        assert_eq!(status, 200, "a poisoned registry still renders");
        assert!(
            metrics.contains(r#"pulp_http_requests_total{endpoint="other",status="500"} 1"#),
            "{metrics}"
        );
        let lines = state.log_lines().expect("sink logger");
        assert!(
            lines.iter().any(|l| l.contains("handler panicked")),
            "{lines:?}"
        );
        assert_eq!(call(addr, "POST", "/admin/shutdown", "").0, 200);
        running.join().expect("the server drains and returns");
    }
}
