//! `pulp_cli bench serve` — serving-layer load benchmark.
//!
//! Boots the production-shaped prediction server in-process on an
//! ephemeral port, then drives it with K concurrent keep-alive clients
//! split over three request mixes:
//!
//! * `kernel` — `POST /predict` with `{"kernel": …}` bodies (features
//!   computed server-side; the expensive single-request path),
//! * `features` — `POST /predict` with raw 20-dim `{"features": […]}`
//!   vectors (the cheap wire path),
//! * `batch` — `POST /predict/batch` with [`ServeBenchOptions::batch_size`]
//!   items per request (amortised admission + parsing).
//!
//! Every response is checked (HTTP 200, parseable JSON, 1..=8 cores), one
//! batch request is verified bit-identical against sequential `/predict`
//! calls, and the run finishes by exercising the graceful-shutdown path
//! (`POST /admin/shutdown`, then joining [`Server::run`]). The load runs
//! in [`ServeBenchOptions::rounds`] rounds and reports the median across
//! rounds of each round's percentiles — stable enough for a CI gate where
//! a single round's p99 is not. The report carries throughput, per-mix
//! p50/p90/p99 latency and the server's own shed/timeout/keep-alive
//! counters; its [`record`](ServeBenchReport::record) is
//! `BENCH_serve.json`, which `pulp_cli bench diff` gates on p99
//! regressions, and whose limits (failed requests, batch/sequential
//! parity, the flight-recorder capture, a collapsed open-loop schedule,
//! and any shedding or timeout in the quick profile) fail the run that
//! writes it.
//!
//! The model is trained on the dataset `pulp_cli bench serve` loads through
//! the sweep cache, like `pulp_cli serve`: the quick kernel set under
//! `--quick`, all 448 samples otherwise. The predictor costs microseconds
//! either way; this benchmark measures the serving layer (admission
//! control, parsing, keep-alive) rather than the tree.

use crate::record::{BenchRecord, Better, Tolerance};
use crate::serve::{ServeOptions, ServeState, Server};
use crate::QUICK_KERNELS;
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::static_feature_vector;
use pulp_obs::{validate_chrome_trace, MetricsRegistry};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Largest tolerated relative p99 regression, closed-loop per mix and
/// open-loop: 10%. The flight recorder runs on every request, so this gate
/// is what keeps its overhead honest.
pub const P99_TOLERANCE: f64 = 0.10;

/// The three request mixes, in report order.
pub const MIXES: [&str; 3] = ["kernel", "features", "batch"];

/// Options of one load-benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchOptions {
    /// Shrunken profile for CI smoke runs (`--quick`).
    pub quick: bool,
    /// Concurrent client threads (split round-robin over [`MIXES`]).
    pub clients: usize,
    /// Requests each client issues per round.
    pub requests_per_client: usize,
    /// Measurement rounds. Reported percentiles are the **median across
    /// rounds** of each round's percentile: a single round's p99 at
    /// microsecond latencies is dominated by scheduler noise (±30%
    /// run-to-run), the median of five rounds is stable enough for the
    /// [`P99_TOLERANCE`] CI gate.
    pub rounds: usize,
    /// Items per `/predict/batch` request in the batch mix.
    pub batch_size: usize,
    /// Open-loop target arrival rate, requests per second (`--rate`).
    /// Arrivals are Poisson: exponential gaps around `1/rate`, issued on
    /// schedule whether or not earlier responses came back.
    pub open_loop_rate_rps: f64,
    /// Open-loop measurement window, seconds.
    pub open_loop_duration_s: f64,
    /// Keep-alive connections the open-loop generator spreads its
    /// arrival process over.
    pub open_loop_connections: usize,
    /// Capacity knobs of the server under test.
    pub serve: ServeOptions,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            clients: 12,
            requests_per_client: 250,
            rounds: 5,
            batch_size: 16,
            open_loop_rate_rps: 2_000.0,
            open_loop_duration_s: 4.0,
            open_loop_connections: 8,
            serve: ServeOptions::default(),
        }
    }
}

impl ServeBenchOptions {
    /// The reduced smoke configuration: one client per mix, low enough
    /// concurrency that a correctly sized queue never sheds (so CI can
    /// require zero shed and zero timeouts) and that single-core CI
    /// runners are not oversubscribed into pure scheduler noise.
    pub fn quick() -> Self {
        Self {
            quick: true,
            clients: 3,
            requests_per_client: 200,
            batch_size: 8,
            open_loop_rate_rps: 300.0,
            open_loop_duration_s: 1.5,
            open_loop_connections: 4,
            ..Self::default()
        }
    }
}

/// Latency digest of one request mix. Percentiles are the median across
/// measurement rounds of each round's percentile (see
/// [`ServeBenchOptions::rounds`]); `max_us` is the worst latency over all
/// rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchMixRow {
    /// Mix identifier (see [`MIXES`]).
    pub mix: String,
    /// Requests issued in this mix across all rounds.
    pub requests: u64,
    /// Responses that were not HTTP 200 with a well-formed body.
    pub errors: u64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile request latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Worst observed request latency, microseconds.
    pub max_us: f64,
}

/// Open-loop (constant-arrival-rate) results: the tail-latency view that
/// closed-loop clients cannot give. Closed-loop clients wait for each
/// response before sending again, so a slow server slows its own load down
/// and the measured percentiles silently omit the requests that *would*
/// have arrived meanwhile — coordinated omission. Here arrivals follow a
/// Poisson schedule fixed up front, and every latency is stamped from the
/// request's **intended** send time, so server stalls surface as real
/// tail latency instead of vanishing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopReport {
    /// Arrival rate the generator aimed for, requests/second.
    pub target_rps: f64,
    /// Requests actually issued per second of wall time.
    pub achieved_rps: f64,
    /// Measurement window, seconds.
    pub duration_s: f64,
    /// Keep-alive connections the arrival process was spread over.
    pub connections: usize,
    /// Requests issued.
    pub requests: u64,
    /// Responses failing the correctness checks (non-200, bad body).
    pub errors: u64,
    /// Arrivals whose send left more than one mean gap late because the
    /// connection was still busy with an earlier exchange — the generator
    /// fell behind schedule (latencies still count from intended time).
    pub late_sends: u64,
    /// Latency percentiles from intended-send to response-complete, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Worst observed, µs.
    pub max_us: f64,
}

/// The full benchmark report; its `record()` is written to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Tool identifier for downstream diffing (`"serve"`).
    pub bench: String,
    /// `true` for `--quick` runs (not comparable to full runs).
    pub quick: bool,
    /// Concurrent clients that drove the run.
    pub clients: usize,
    /// Measurement rounds behind the median-of-rounds percentiles.
    pub rounds: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Server connection-queue depth.
    pub queue_depth: usize,
    /// Total requests issued across all mixes.
    pub total_requests: u64,
    /// Wall time of the load phase, seconds.
    pub wall_s: f64,
    /// `total_requests / wall_s`.
    pub throughput_rps: f64,
    /// Responses that failed the correctness checks.
    pub errors: u64,
    /// Server-side `pulp_serve_shed_total` after the run.
    pub shed_total: f64,
    /// Server-side `pulp_serve_timeouts_total` (all kinds) after the run.
    pub timeouts_total: f64,
    /// Server-side `pulp_serve_keepalive_reuse_total` after the run.
    pub keepalive_reuse_total: f64,
    /// `true` when one `/predict/batch` probe matched sequential
    /// `/predict` calls item-for-item.
    pub batch_matches_sequential: bool,
    /// `true` when the flight-recorder capture passes [`check_trace`].
    pub trace_ok: bool,
    /// One latency digest per mix.
    pub rows: Vec<ServeBenchMixRow>,
    /// Open-loop (Poisson-arrival, coordinated-omission-safe) results.
    pub open_loop: OpenLoopReport,
}

/// Result of one benchmark invocation: the report plus
/// the flight-recorder capture, which is written as a separate artifact
/// (`--trace-out`) rather than into `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeBenchRun {
    /// The report, whose `record()` is written to `BENCH_serve.json`.
    pub report: ServeBenchReport,
    /// Chrome-trace JSON from `GET /debug/requests`, captured right before
    /// shutdown — the tail of the load, one lane per request.
    pub trace_json: String,
    /// Sorted raw open-loop latencies (µs, intended-send to complete):
    /// the full distribution behind [`OpenLoopReport`]'s percentiles,
    /// exported as a histogram artifact via `--hist-out`.
    pub open_loop_latencies_us: Vec<u64>,
}

impl ServeBenchRun {
    /// Renders the open-loop latency distribution as a JSON histogram
    /// artifact: power-of-two bucket upper bounds in µs with per-bucket
    /// counts, so CI can archive the full tail shape, not just the
    /// percentiles in the report.
    pub fn open_loop_histogram_json(&self) -> String {
        use std::fmt::Write;
        let latencies = &self.open_loop_latencies_us;
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        let mut le = 1u64;
        let mut i = 0usize;
        while i < latencies.len() {
            let count = latencies[i..].iter().take_while(|&&v| v <= le).count();
            if count > 0 || !buckets.is_empty() {
                buckets.push((le, count as u64));
            }
            i += count;
            le = le.saturating_mul(2);
        }
        let mut out = String::from("{\n  \"unit\": \"us\",\n");
        let _ = writeln!(out, "  \"total\": {},", latencies.len());
        out.push_str("  \"buckets\": [\n");
        for (j, (le, count)) in buckets.iter().enumerate() {
            let comma = if j + 1 == buckets.len() { "" } else { "," };
            let _ = writeln!(out, "    {{\"le\": {le}, \"count\": {count}}}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Checks a flight-recorder capture taken after a full load run: it must
/// pass [`validate_chrome_trace`] and hold the per-request child spans the
/// server promises.
///
/// # Errors
///
/// Returns what is wrong with the capture.
pub fn check_trace(trace_json: &str) -> Result<(), String> {
    validate_chrome_trace(trace_json)
        .map_err(|e| format!("/debug/requests trace is malformed: {e}"))?;
    match ["queue_wait", "predict", "write"]
        .into_iter()
        .find(|span| !trace_json.contains(&format!("\"{span}\"")))
    {
        Some(span) => Err(format!("/debug/requests trace has no `{span}` spans")),
        None => Ok(()),
    }
}

/// `q`-quantile (0..=1) of an already-sorted latency sample, microseconds.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of an unsorted sample (lower-median for even counts, matching
/// [`percentile_us`]'s ceil-rank convention).
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    values[values.len().div_ceil(2) - 1]
}

/// Per-round, per-mix digest: `(mix, [p50, p90, p99, max], ok, errors)`.
type RoundStats = Vec<(String, [f64; 4], u64, u64)>;

/// SplitMix64 step — a tiny deterministic PRNG so Poisson schedules are
/// reproducible run to run (no `rand` dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One exponentially distributed inter-arrival gap (µs) around `mean_us`,
/// via inverse-CDF sampling: `-ln(U) * mean`.
fn exp_gap_us(state: &mut u64, mean_us: f64) -> u64 {
    // 53 uniform mantissa bits in [0, 1); flip to (0, 1] so ln() is finite.
    let u = 1.0 - (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    (-u.ln() * mean_us).round() as u64
}

/// What one open-loop generator thread (and, merged, the whole fleet)
/// brought back.
struct OpenLoopOutcome {
    latencies_us: Vec<u64>,
    requests: u64,
    errors: u64,
    late_sends: u64,
}

/// Drives the server open-loop: a Poisson arrival schedule at
/// `rate_rps`, split evenly over `connections` keep-alive connections,
/// for `duration_s`. Every request's latency is measured from its
/// **intended** arrival time — not from when the connection got around to
/// sending it — so a stalled server cannot hide queueing delay
/// (coordinated omission).
fn run_open_loop(
    addr: SocketAddr,
    rate_rps: f64,
    duration_s: f64,
    connections: usize,
    bodies: Arc<Vec<String>>,
) -> OpenLoopOutcome {
    let connections = connections.max(1);
    let mean_gap_us = 1e6 * connections as f64 / rate_rps.max(1e-6);
    let window_us = (duration_s.max(0.01) * 1e6) as u64;
    let handles: Vec<_> = (0..connections)
        .map(|i| {
            let bodies = Arc::clone(&bodies);
            std::thread::Builder::new()
                .name(format!("serve-openloop-{i}"))
                .spawn(move || {
                    // Deterministic per-thread seed: schedules replay
                    // exactly across runs of the same shape.
                    let mut rng = 0x0DDB_1A5E_5BAD_5EED_u64 ^ ((i as u64) << 17);
                    let mut outcome = OpenLoopOutcome {
                        latencies_us: Vec::new(),
                        requests: 0,
                        errors: 0,
                        late_sends: 0,
                    };
                    let mut client = match BenchClient::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            outcome.errors += 1;
                            return outcome;
                        }
                    };
                    let start = Instant::now();
                    let mut intended_us = exp_gap_us(&mut rng, mean_gap_us);
                    while intended_us < window_us {
                        let now_us = start.elapsed().as_micros() as u64;
                        if now_us < intended_us {
                            std::thread::sleep(std::time::Duration::from_micros(
                                intended_us - now_us,
                            ));
                        } else if now_us > intended_us + mean_gap_us as u64 {
                            // The previous exchange held the connection past
                            // this arrival's slot; the send is late but the
                            // latency below still counts from `intended_us`.
                            outcome.late_sends += 1;
                        }
                        let body = &bodies[outcome.requests as usize % bodies.len()];
                        outcome.requests += 1;
                        match client.request("POST", "/predict", body) {
                            Ok((status, text)) if response_ok("features", status, &text) => {
                                let done_us = start.elapsed().as_micros() as u64;
                                outcome
                                    .latencies_us
                                    .push(done_us.saturating_sub(intended_us));
                            }
                            _ => outcome.errors += 1,
                        }
                        intended_us += exp_gap_us(&mut rng, mean_gap_us);
                    }
                    outcome
                })
                .expect("bench: spawn open-loop client")
        })
        .collect();
    let mut merged = OpenLoopOutcome {
        latencies_us: Vec::new(),
        requests: 0,
        errors: 0,
        late_sends: 0,
    };
    for h in handles {
        let one = h.join().expect("bench: open-loop thread panicked");
        merged.latencies_us.extend(one.latencies_us);
        merged.requests += one.requests;
        merged.errors += one.errors;
        merged.late_sends += one.late_sends;
    }
    merged
}

/// One keep-alive client connection to the server under test.
struct BenchClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
}

impl BenchClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
            addr,
        })
    }

    /// Issues one request, reconnecting transparently when the server
    /// closed the connection (keep-alive cap); returns `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        match self.try_request(method, path, body) {
            Ok(out) => Ok(out),
            Err(_) => {
                *self = Self::connect(self.addr)?;
                self.try_request(method, path, body)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        read_response(&mut self.reader)
    }
}

/// Reads one HTTP/1.1 response off a keep-alive connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable status line")
        })?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "headers truncated",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// The rotating request bodies of one mix.
fn mix_bodies(mix: &str, batch_size: usize) -> Vec<String> {
    let kernel_bodies: Vec<String> = QUICK_KERNELS
        .iter()
        .map(|k| format!("{{\"kernel\": \"{k}\", \"dtype\": \"i32\", \"size\": 2048}}"))
        .collect();
    match mix {
        "kernel" => kernel_bodies,
        "features" => {
            // Real feature vectors (from the registry) so the tree sees
            // realistic split paths, serialised once up front.
            QUICK_KERNELS
                .iter()
                .filter_map(|k| {
                    let def = pulp_kernels::registry()
                        .into_iter()
                        .find(|d| d.name == *k)?;
                    let kernel = def
                        .build(&pulp_kernels::KernelParams::new(
                            kernel_ir::DType::I32,
                            2048,
                        ))
                        .ok()?;
                    let features = static_feature_vector(&kernel)
                        .iter()
                        .map(f64::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    Some(format!("{{\"features\": [{features}]}}"))
                })
                .collect()
        }
        "batch" => {
            let items: Vec<String> = (0..batch_size)
                .map(|i| kernel_bodies[i % kernel_bodies.len()].clone())
                .collect();
            vec![format!("{{\"requests\": [{}]}}", items.join(","))]
        }
        other => panic!("unknown mix `{other}`"),
    }
}

/// Checks one 200-response body for the mix's expected shape.
fn response_ok(mix: &str, status: u16, body: &str) -> bool {
    if status != 200 {
        return false;
    }
    let Ok(v) = serde_json::from_str::<Value>(body) else {
        return false;
    };
    let cores_ok = |r: &Value| {
        r.field("cores")
            .and_then(Value::as_u64)
            .is_ok_and(|c| (1..=8).contains(&c))
    };
    if mix == "batch" {
        v.field("results")
            .and_then(Value::as_seq)
            .is_ok_and(|rs| !rs.is_empty() && rs.iter().all(cores_ok))
    } else {
        cores_ok(&v)
    }
}

/// Verifies one `/predict/batch` probe against sequential `/predict`
/// calls, item for item.
fn batch_matches_sequential(addr: SocketAddr, batch_size: usize) -> bool {
    let Ok(mut client) = BenchClient::connect(addr) else {
        return false;
    };
    let items: Vec<String> = (0..batch_size)
        .map(|i| {
            let k = QUICK_KERNELS[i % QUICK_KERNELS.len()];
            format!("{{\"kernel\": \"{k}\", \"dtype\": \"i32\", \"size\": 2048}}")
        })
        .collect();
    let batch_body = format!("{{\"requests\": [{}]}}", items.join(","));
    let Ok((200, body)) = client.request("POST", "/predict/batch", &batch_body) else {
        return false;
    };
    let Ok(v) = serde_json::from_str::<Value>(&body) else {
        return false;
    };
    let Ok(results) = v.field("results").and_then(Value::as_seq) else {
        return false;
    };
    let batch: Vec<Option<u64>> = results
        .iter()
        .map(|r| r.field("cores").and_then(Value::as_u64).ok())
        .collect();
    let sequential: Vec<Option<u64>> = items
        .iter()
        .map(|item| {
            let (status, body) = client.request("POST", "/predict", item).ok()?;
            if status != 200 {
                return None;
            }
            serde_json::from_str::<Value>(&body)
                .ok()?
                .field("cores")
                .and_then(Value::as_u64)
                .ok()
        })
        .collect();
    !batch.is_empty() && batch.iter().all(Option::is_some) && batch == sequential
}

/// Runs the load benchmark: trains the model on `data` (built with
/// `pipeline`), boots the server, drives it with the configured client
/// fleet, snapshots the flight recorder, then shuts the server down
/// gracefully and returns the run.
///
/// # Panics
///
/// Panics when the model cannot be trained or the server cannot bind —
/// there is nothing to measure without either.
pub fn run_serve_bench(
    opts: &ServeBenchOptions,
    data: &LabeledDataset,
    pipeline: &PipelineOptions,
) -> ServeBenchRun {
    let state = Arc::new(ServeState::fit(data, MetricsRegistry::new(), pipeline));
    let server = Server::bind_with("127.0.0.1:0", Arc::clone(&state), opts.serve)
        .expect("bench: bind ephemeral port");
    let addr = server.addr;
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::Builder::new()
        .name("serve-bench-server".to_string())
        .spawn(move || server.run())
        .expect("bench: spawn server");

    // Warm-up: one request per mix so first-connection costs (kernel
    // registry, lazy allocations) stay out of the measured window.
    for mix in MIXES {
        if let Ok(mut c) = BenchClient::connect(addr) {
            let bodies = mix_bodies(mix, opts.batch_size);
            let path = if mix == "batch" {
                "/predict/batch"
            } else {
                "/predict"
            };
            let _ = c.request("POST", path, &bodies[0]);
        }
    }

    // Each round re-runs the full client fleet; per-mix percentiles are
    // computed per round and the rounds' medians are reported, so one
    // scheduler hiccup cannot move the record's p99.
    let clients = opts.clients.max(1);
    let rounds = opts.rounds.max(1);
    let mut round_stats: Vec<RoundStats> = Vec::with_capacity(rounds);
    let load_start = Instant::now();
    for _ in 0..rounds {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let mix = MIXES[i % MIXES.len()].to_string();
                let bodies = mix_bodies(&mix, opts.batch_size);
                let n = opts.requests_per_client.max(1);
                std::thread::Builder::new()
                    .name(format!("serve-bench-client-{i}"))
                    .spawn(move || {
                        let path = if mix == "batch" {
                            "/predict/batch"
                        } else {
                            "/predict"
                        };
                        let mut latencies = Vec::with_capacity(n);
                        let mut errors = 0u64;
                        let mut client = match BenchClient::connect(addr) {
                            Ok(c) => c,
                            Err(_) => return (mix, latencies, n as u64),
                        };
                        for r in 0..n {
                            let body = &bodies[r % bodies.len()];
                            let start = Instant::now();
                            match client.request("POST", path, body) {
                                Ok((status, text)) if response_ok(&mix, status, &text) => {
                                    latencies.push(start.elapsed().as_micros() as u64);
                                }
                                _ => errors += 1,
                            }
                        }
                        (mix, latencies, errors)
                    })
                    .expect("bench: spawn client")
            })
            .collect();

        let mut per_mix: Vec<(String, Vec<u64>, u64)> = MIXES
            .iter()
            .map(|m| ((*m).to_string(), Vec::new(), 0u64))
            .collect();
        for h in handles {
            let (mix, latencies, errors) = h.join().expect("bench: client thread panicked");
            let slot = per_mix
                .iter_mut()
                .find(|(m, _, _)| *m == mix)
                .expect("known mix");
            slot.1.extend(latencies);
            slot.2 += errors;
        }
        round_stats.push(
            per_mix
                .into_iter()
                .map(|(mix, mut latencies, errors)| {
                    latencies.sort_unstable();
                    let stats = [
                        percentile_us(&latencies, 0.50),
                        percentile_us(&latencies, 0.90),
                        percentile_us(&latencies, 0.99),
                        latencies.last().copied().unwrap_or(0) as f64,
                    ];
                    (mix, stats, latencies.len() as u64, errors)
                })
                .collect(),
        );
    }
    let wall_s = load_start.elapsed().as_secs_f64();

    // Open-loop phase: fixed Poisson arrival schedule over the cheap wire
    // path, latencies stamped from intended send times (CO-safe).
    let open_bodies = Arc::new(mix_bodies("features", opts.batch_size));
    let open_start = Instant::now();
    let mut open = run_open_loop(
        addr,
        opts.open_loop_rate_rps,
        opts.open_loop_duration_s,
        opts.open_loop_connections,
        open_bodies,
    );
    let open_wall_s = open_start.elapsed().as_secs_f64();
    open.latencies_us.sort_unstable();
    let open_report = OpenLoopReport {
        target_rps: opts.open_loop_rate_rps,
        achieved_rps: open.requests as f64 / open_wall_s.max(f64::MIN_POSITIVE),
        duration_s: opts.open_loop_duration_s,
        connections: opts.open_loop_connections.max(1),
        requests: open.requests,
        errors: open.errors,
        late_sends: open.late_sends,
        p50_us: percentile_us(&open.latencies_us, 0.50),
        p90_us: percentile_us(&open.latencies_us, 0.90),
        p99_us: percentile_us(&open.latencies_us, 0.99),
        p999_us: percentile_us(&open.latencies_us, 0.999),
        max_us: open.latencies_us.last().copied().unwrap_or(0) as f64,
    };

    let batch_ok = batch_matches_sequential(addr, opts.batch_size);

    // Snapshot the flight recorder while the server is still up: the tail
    // of the load as Chrome-trace JSON, one lane per request.
    let trace_json = BenchClient::connect(addr)
        .and_then(|mut c| c.request("GET", "/debug/requests?n=256", ""))
        .map(|(status, body)| if status == 200 { body } else { String::new() })
        .unwrap_or_default();
    let trace_ok = check_trace(&trace_json)
        .inspect_err(|e| eprintln!("bench serve: {e}"))
        .is_ok();

    // Exercise the graceful-shutdown path on every benchmark run, then
    // read the server's own counters before the state goes away.
    if let Ok(mut c) = BenchClient::connect(addr) {
        let _ = c.request("POST", "/admin/shutdown", "");
    } else {
        shutdown.trigger();
    }
    server_thread.join().expect("bench: server joins");

    let counter =
        |name: &str, labels: &[(&str, &str)]| state.metric_value(name, labels).unwrap_or(0.0);
    let shed_total = counter("pulp_serve_shed_total", &[]);
    let timeouts_total = counter("pulp_serve_timeouts_total", &[("kind", "read")])
        + counter("pulp_serve_timeouts_total", &[("kind", "write")]);
    let keepalive_reuse_total = counter("pulp_serve_keepalive_reuse_total", &[]);

    let mut rows = Vec::new();
    let mut total_requests = 0u64;
    let mut errors = 0u64;
    for mix in MIXES {
        let mut per_stat: [Vec<f64>; 4] = Default::default();
        let (mut requests, mut mix_errors) = (0u64, 0u64);
        for round in &round_stats {
            let (_, stats, ok, errs) = round
                .iter()
                .find(|(m, _, _, _)| m == mix)
                .expect("known mix");
            for (dst, s) in per_stat.iter_mut().zip(stats) {
                dst.push(*s);
            }
            requests += ok + errs;
            mix_errors += errs;
        }
        total_requests += requests;
        errors += mix_errors;
        let [mut p50s, mut p90s, mut p99s, maxes] = per_stat;
        rows.push(ServeBenchMixRow {
            mix: mix.to_string(),
            requests,
            errors: mix_errors,
            p50_us: median(&mut p50s),
            p90_us: median(&mut p90s),
            p99_us: median(&mut p99s),
            max_us: maxes.iter().copied().fold(0.0, f64::max),
        });
    }

    ServeBenchRun {
        report: ServeBenchReport {
            bench: "serve".to_string(),
            quick: opts.quick,
            clients,
            rounds,
            workers: opts.serve.workers,
            queue_depth: opts.serve.queue_depth,
            total_requests,
            wall_s,
            throughput_rps: total_requests as f64 / wall_s.max(f64::MIN_POSITIVE),
            errors,
            shed_total,
            timeouts_total,
            keepalive_reuse_total,
            batch_matches_sequential: batch_ok,
            trace_ok,
            rows,
            open_loop: open_report,
        },
        trace_json,
        open_loop_latencies_us: open.latencies_us,
    }
}

impl ServeBenchReport {
    /// The `BENCH_serve.json` record: every figure of the report, closed-loop
    /// mixes as `mix/field` and the open loop as `open_loop/field`, gated on
    /// p99 latency ([`P99_TOLERANCE`]). Its limits: no failed request, the
    /// batch probe matching sequential calls, a well-formed flight-recorder
    /// capture, an open loop achieving a quarter of its target rate, and —
    /// in the quick profile, whose fleet fits the queue — no shed, timeout
    /// or failed open-loop response.
    pub fn record(&self) -> BenchRecord {
        use Better::{Higher, Lower};
        let p99 = Some(Tolerance::Relative(P99_TOLERANCE));
        let none = Some(Tolerance::Limit(0.0));
        let quick_none = none.filter(|_| self.quick);
        let must = Some(Tolerance::Limit(1.0));
        let o = &self.open_loop;
        let collapsed = (o.requests > 0).then_some(Tolerance::Limit(0.25 * o.target_rps));
        BenchRecord::from_report(
            &self.bench,
            self.quick,
            self,
            &["mix"],
            |row, field| match field {
                "p99_us" => ("us", Lower, p99),
                "p50_us" | "p90_us" | "p999_us" | "max_us" => ("us", Lower, None),
                "errors" if row.is_empty() => ("count", Lower, none),
                "errors" if row == "open_loop" => ("count", Lower, quick_none),
                "shed_total" | "timeouts_total" => ("count", Lower, quick_none),
                "errors" | "late_sends" => ("count", Lower, None),
                "wall_s" => ("s", Lower, None),
                "duration_s" => ("s", Higher, None),
                "achieved_rps" => ("1/s", Higher, collapsed),
                "throughput_rps" | "target_rps" => ("1/s", Higher, None),
                "batch_matches_sequential" | "trace_ok" => ("bool", Higher, must),
                _ => ("count", Higher, None),
            },
        )
    }

    /// Renders the human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve bench: {} clients vs {} workers (queue {}), {:.0} req/s \
             over {:.2}s, median of {} rounds",
            self.clients,
            self.workers,
            self.queue_depth,
            self.throughput_rps,
            self.wall_s,
            self.rounds
        );
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "mix", "requests", "errors", "p50 [us]", "p90 [us]", "p99 [us]", "max [us]"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>7} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                r.mix, r.requests, r.errors, r.p50_us, r.p90_us, r.p99_us, r.max_us
            );
        }
        let _ = writeln!(
            out,
            "shed {} · timeouts {} · keep-alive reuses {} · batch≡sequential: {}",
            self.shed_total,
            self.timeouts_total,
            self.keepalive_reuse_total,
            if self.batch_matches_sequential {
                "ok"
            } else {
                "FAIL"
            }
        );
        let o = &self.open_loop;
        let _ = writeln!(
            out,
            "open-loop: target {:.0} rps → achieved {:.0} rps over {:.1}s on {} conns \
             (CO-safe) · p50 {:.0}us p90 {:.0}us p99 {:.0}us p99.9 {:.0}us max {:.0}us \
             · {} errors · {} late sends",
            o.target_rps,
            o.achieved_rps,
            o.duration_s,
            o.connections,
            o.p50_us,
            o.p90_us,
            o.p99_us,
            o.p999_us,
            o.max_us,
            o.errors,
            o.late_sends
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Breaks one figure of a healthy report.
    type Fault = fn(&mut ServeBenchReport);

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 50.0);
        assert_eq!(percentile_us(&sorted, 0.90), 90.0);
        assert_eq!(percentile_us(&sorted, 0.99), 99.0);
        assert_eq!(percentile_us(&sorted, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        assert_eq!(median(&mut [400.0, 9000.0, 380.0, 390.0, 410.0]), 400.0);
        assert_eq!(median(&mut [2.0, 1.0]), 1.0);
        assert_eq!(median(&mut [5.0]), 5.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn every_mix_builds_non_empty_bodies() {
        for mix in MIXES {
            let bodies = mix_bodies(mix, 4);
            assert!(!bodies.is_empty(), "mix {mix} has no bodies");
            for b in &bodies {
                let v: Value = serde_json::from_str(b).expect("mix body is JSON");
                assert!(v.as_map().is_ok());
            }
        }
    }

    #[test]
    fn response_ok_rejects_bad_shapes() {
        assert!(!response_ok("kernel", 503, "{}"));
        assert!(!response_ok("kernel", 200, "not json"));
        assert!(!response_ok("kernel", 200, r#"{"cores": 0}"#));
        assert!(response_ok("kernel", 200, r#"{"cores": 4}"#));
        assert!(!response_ok("batch", 200, r#"{"results": []}"#));
        assert!(response_ok(
            "batch",
            200,
            r#"{"results": [{"cores": 1}, {"cores": 8}]}"#
        ));
    }

    fn healthy_report() -> ServeBenchReport {
        ServeBenchReport {
            bench: "serve".to_string(),
            quick: true,
            clients: 3,
            rounds: 2,
            workers: 2,
            queue_depth: 8,
            total_requests: 30,
            wall_s: 0.5,
            throughput_rps: 60.0,
            errors: 0,
            shed_total: 0.0,
            timeouts_total: 0.0,
            keepalive_reuse_total: 27.0,
            batch_matches_sequential: true,
            trace_ok: true,
            rows: MIXES
                .iter()
                .map(|m| ServeBenchMixRow {
                    mix: (*m).to_string(),
                    requests: 10,
                    errors: 0,
                    p50_us: 100.0,
                    p90_us: 200.0,
                    p99_us: 300.0,
                    max_us: 400.0,
                })
                .collect(),
            open_loop: OpenLoopReport {
                target_rps: 300.0,
                achieved_rps: 295.0,
                duration_s: 1.5,
                connections: 4,
                requests: 440,
                errors: 0,
                late_sends: 2,
                p50_us: 150.0,
                p90_us: 400.0,
                p99_us: 900.0,
                p999_us: 1500.0,
                max_us: 2100.0,
            },
        }
    }

    #[test]
    fn poisson_gaps_are_deterministic_with_the_right_mean() {
        let mut a = 42u64;
        let mut b = 42u64;
        let gaps_a: Vec<u64> = (0..1000).map(|_| exp_gap_us(&mut a, 500.0)).collect();
        let gaps_b: Vec<u64> = (0..1000).map(|_| exp_gap_us(&mut b, 500.0)).collect();
        assert_eq!(gaps_a, gaps_b, "same seed, same schedule");
        let mean = gaps_a.iter().sum::<u64>() as f64 / gaps_a.len() as f64;
        assert!(
            (mean - 500.0).abs() < 100.0,
            "exponential gaps should average near the mean, got {mean}"
        );
    }

    #[test]
    fn open_loop_histogram_renders_valid_json_buckets() {
        let run = ServeBenchRun {
            report: healthy_report(),
            trace_json: String::new(),
            open_loop_latencies_us: vec![1, 3, 3, 7, 120, 4000],
        };
        let hist = run.open_loop_histogram_json();
        let v: Value = serde_json::from_str(&hist).expect("histogram is JSON");
        assert_eq!(v.field("unit").and_then(Value::as_str), Ok("us"));
        assert_eq!(v.field("total").and_then(Value::as_u64), Ok(6));
        let buckets = v
            .field("buckets")
            .and_then(Value::as_seq)
            .expect("buckets array");
        let total: u64 = buckets
            .iter()
            .map(|b| b.field("count").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(total, 6, "bucket counts cover every sample");
    }

    /// The breaches of `report`'s record.
    fn breaches(report: &ServeBenchReport) -> Vec<String> {
        report.record().breaches()
    }

    #[test]
    fn open_loop_gates_catch_errors_and_collapsed_schedules() {
        let mut report = healthy_report();
        report.open_loop.errors = 3;
        let problems = breaches(&report);
        assert!(
            problems.iter().any(|p| p.starts_with("open_loop/errors: ")),
            "{problems:?}"
        );
        report.quick = false;
        assert_eq!(breaches(&report), Vec::<String>::new(), "full may fail");
        let mut collapsed = healthy_report();
        collapsed.open_loop.achieved_rps = collapsed.open_loop.target_rps * 0.1;
        let problems = breaches(&collapsed);
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("open_loop/achieved_rps: ")),
            "{problems:?}"
        );
        // A run that issued nothing has no schedule to collapse.
        collapsed.open_loop.requests = 0;
        assert_eq!(breaches(&collapsed), Vec::<String>::new());
    }

    #[test]
    fn report_round_trips_through_json_and_verifies() {
        let report = healthy_report();
        assert_eq!(breaches(&report), Vec::<String>::new());
        let json = serde_json::to_string_pretty(&report).expect("serialise");
        let back: ServeBenchReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, report);
    }

    #[test]
    fn record_gates_p99_errors_and_quick_shedding() {
        let record = healthy_report().record();
        let gate = |name: &str| record.get(name).and_then(|m| m.tolerance);
        let p99 = Some(Tolerance::Relative(P99_TOLERANCE));
        for mix in MIXES {
            assert_eq!(gate(&format!("{mix}/p99_us")), p99, "{mix}");
            assert_eq!(gate(&format!("{mix}/p50_us")), None, "{mix}");
        }
        assert_eq!(gate("open_loop/p99_us"), p99);
        assert_eq!(gate("errors"), Some(Tolerance::Limit(0.0)));
        assert_eq!(gate("shed_total"), Some(Tolerance::Limit(0.0)));
        let mut full = healthy_report();
        full.quick = false;
        let full = full.record();
        assert_eq!(full.profile, "full");
        assert_eq!(full.get("shed_total").and_then(|m| m.tolerance), None);
        assert!(record.regressions(&record).expect("comparable").is_empty());

        // Each invariant, broken alone, is a breach naming its metric; the
        // quick-only ones hold in the full profile.
        let faults: [(&str, bool, Fault); 5] = [
            ("errors", false, |r| r.errors = 2),
            ("batch_matches_sequential", false, |r| {
                r.batch_matches_sequential = false;
            }),
            ("trace_ok", false, |r| r.trace_ok = false),
            ("shed_total", true, |r| r.shed_total = 2.0),
            ("timeouts_total", true, |r| r.timeouts_total = 1.0),
        ];
        for (metric, quick_only, fault) in faults {
            let mut broken = healthy_report();
            fault(&mut broken);
            let problems = breaches(&broken);
            assert_eq!(problems.len(), 1, "{metric}: {problems:?}");
            assert!(
                problems[0].starts_with(&format!("{metric}: ")),
                "{problems:?}"
            );
            broken.quick = false;
            assert_eq!(breaches(&broken).is_empty(), quick_only, "{metric}");
        }
    }

    #[test]
    fn run_verification_gates_on_the_captured_trace() {
        use pulp_obs::recorder::Recorder;
        use pulp_obs::{FlightRecorder, RequestTrace};

        let flight = FlightRecorder::new(4);
        let mut rec = Recorder::manual();
        let root = rec.start("request");
        let mut t = 0;
        for name in ["queue_wait", "predict", "write"] {
            let span = rec.start(name);
            t += 5;
            rec.set_time(t);
            rec.end(span);
        }
        rec.end(root);
        flight.record(RequestTrace::new(7, "/predict", 200, rec.spans().to_vec()));

        let trace = flight.chrome_recent(4, "pulp-serve");
        assert_eq!(check_trace(&trace), Ok(()));
        let problem = check_trace("{}").expect_err("a malformed trace must fail");
        assert!(problem.contains("malformed"), "{problem}");
        let problem = check_trace(&trace.replace("\"write\"", "\"send\""))
            .expect_err("a trace without write spans must fail");
        assert!(problem.contains("`write`"), "{problem}");
    }
}
