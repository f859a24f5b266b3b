//! `serve_features` and `serve_kernel_batch`: a full-dataset prediction
//! server on loopback (the `pulp_cli serve --full` model, default capacity
//! knobs, `workers = nproc`) driven by one keep-alive connection in a
//! closed loop.
//!
//! * `serve_features` posts `/predict` bodies carrying the raw 20-dim
//!   static vector of a seeded draw from the 448 samples.
//! * `serve_kernel_batch` posts `/predict/batch` bodies of 32
//!   `{kernel, dtype, size}` items drawn the same way.
//!
//! Every returned `cores` must equal the float-walk oracle
//! (`predict_cores_batch_float`) on the sample's static row.

use crate::client::{cores_in, request_bytes, Client};
use crate::expected::{self, check_dataset};
use crate::report::Report;
use crate::stats::{median, nproc, secs, span, timed, Histogram, SplitMix};
use crate::{work, Args};
use pulp_bench::net::{HttpParser, Parsed};
use pulp_bench::serve::{ServeOptions, ServeState, Server, ShutdownHandle};
use pulp_energy::pipeline::{LabeledDataset, SampleRecord};
use pulp_energy::{static_feature_vector, CacheStats, EnergyPredictor, StaticFeatureSet};
use pulp_kernels::{registry, KernelParams};
use pulp_ml::TreeParams;
use serde::Value;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Identical server start-ups timed for `setup_s` (each is ~50 ms).
const SETUP_REPS: usize = 7;
/// Distinct generated request bodies; the load cycles through them.
const POOL: usize = 512;
/// Items per `/predict/batch` body.
const BATCH: usize = 32;
/// Minimum wall time of each per-layer replay pass set.
const REPLAY_SECONDS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Features,
    KernelBatch,
}

impl Mix {
    fn of(workload: &str) -> Self {
        if workload == "serve_kernel_batch" {
            Self::KernelBatch
        } else {
            Self::Features
        }
    }

    fn path(self) -> &'static str {
        match self {
            Self::Features => "/predict",
            Self::KernelBatch => "/predict/batch",
        }
    }
}

/// One generated request: its body, the wire bytes and the oracle's
/// answer per item.
struct Input {
    wire: Vec<u8>,
    expected: Vec<usize>,
    /// Sample index per item (for the replay's featurisation).
    samples: Vec<usize>,
}

fn features_body(row: &[f64]) -> String {
    let values: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    format!("{{\"features\":[{}]}}", values.join(","))
}

fn kernel_item(data: &LabeledDataset, i: usize) -> String {
    let s = &data.samples[i];
    format!(
        "{{\"kernel\":\"{}\",\"dtype\":\"{}\",\"size\":{}}}",
        s.kernel, s.dtype, s.payload_bytes
    )
}

/// The seeded request pool.
fn generate(mix: Mix, seed: u64, data: &LabeledDataset, oracle: &[usize]) -> Vec<Input> {
    let mut rng = SplitMix::new(seed);
    (0..POOL)
        .map(|_| {
            let items = if mix == Mix::KernelBatch { BATCH } else { 1 };
            let samples: Vec<usize> = (0..items).map(|_| rng.below(data.len())).collect();
            let body = match mix {
                Mix::Features => features_body(&data.samples[samples[0]].static_x),
                Mix::KernelBatch => {
                    let items: Vec<String> =
                        samples.iter().map(|&i| kernel_item(data, i)).collect();
                    format!("{{\"requests\":[{}]}}", items.join(","))
                }
            };
            Input {
                wire: request_bytes("POST", mix.path(), &body),
                expected: samples.iter().map(|&i| oracle[i]).collect(),
                samples,
            }
        })
        .collect()
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<()>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.trigger();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Starts a server the way `pulp_cli serve --full --cache-dir` does and
/// waits for its first successful `/healthz`; returns it with the time
/// from start to that answer.
fn start(args: &Args, report: &mut Report) -> Result<(Running, f64, CacheStats), String> {
    let t0 = Instant::now();
    let opts = work::warm_options(&args.work_dir)?;
    let state = Arc::new(ServeState::train(&opts));
    let serve_opts = ServeOptions {
        workers: nproc(),
        ..ServeOptions::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", state, serve_opts).map_err(|e| format!("bind: {e}"))?;
    let running = Running {
        addr: server.addr,
        handle: server.shutdown_handle(),
        thread: std::thread::spawn(move || server.run()),
    };
    let healthz = request_bytes("GET", "/healthz", "");
    let mut client = Client::new(running.addr);
    loop {
        match client.send(&healthz) {
            Ok(r) if r.status == 200 => break,
            _ if secs(t0) > 60.0 => return Err("server never became healthy".into()),
            _ => std::thread::yield_now(),
        }
    }
    let s = secs(t0);
    let stats = opts.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    report.check(stats.misses + stats.invalidations == 0, || {
        format!("server start-up missed the warm cache: {stats}")
    });
    Ok((running, s, stats))
}

/// Client-side outcome of one closed-loop load phase.
struct Load {
    hist: Histogram,
    /// Latencies (s) of the last `RECENT` requests, oldest first.
    recent: VecDeque<f64>,
    requests: u64,
    items: usize,
    wall_s: f64,
    connects: u64,
}

/// Requests whose client latency is kept for reconciliation with the
/// server's flight recorder (its default capacity).
const RECENT: usize = 256;

/// One keep-alive connection, sequential requests cycling through
/// `inputs` for `seconds`; every reply is checked against the oracle.
fn closed_loop(addr: SocketAddr, inputs: &[Input], seconds: f64, report: &mut Report) -> Load {
    let mut client = Client::new(addr);
    let mut hist = Histogram::new();
    let mut recent = VecDeque::with_capacity(RECENT);
    let mut items = 0usize;
    let start = Instant::now();
    let mut i = 0usize;
    while secs(start) < seconds {
        let input = &inputs[i % inputs.len()];
        i += 1;
        let t = Instant::now();
        let reply = client.send(&input.wire);
        let s = secs(t);
        hist.record(s);
        if recent.len() == RECENT {
            recent.pop_front();
        }
        recent.push_back(s);
        report.op(match reply {
            Ok(r) if r.status == 200 => {
                let cores = cores_in(&r.body);
                if cores == input.expected {
                    items += cores.len();
                    Vec::new()
                } else {
                    vec![format!("cores {cores:?}, oracle says {:?}", input.expected)]
                }
            }
            Ok(r) => vec![format!("status {}: {}", r.status, r.body.trim())],
            Err(e) => vec![format!("transport: {e}")],
        });
    }
    Load {
        requests: hist.len(),
        hist,
        recent,
        items,
        wall_s: secs(start),
        connects: client.connects,
    }
}

/// Shared preparation: warm cache, oracle answers per sample, inputs.
fn prepare(args: &Args, report: &mut Report) -> Result<(LabeledDataset, Vec<Input>), String> {
    let labels = expected::load_labels(&args.expected_dir)?;
    let data = work::prepare_warm(&args.work_dir)?;
    let problems = check_dataset(&data, &labels);
    report.check(problems.is_empty(), || {
        format!("warm dataset: {}", problems.join("; "))
    });
    let oracle = EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default())
        .map_err(|e| e.to_string())?
        .predict_cores_batch_float(&data.static_rows())
        .map_err(|e| e.to_string())?;
    let inputs = generate(Mix::of(&args.workload), args.seed, &data, &oracle);
    Ok((data, inputs))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (_, inputs) = prepare(args, &mut report)?;

    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPS {
        let (running, s, _) = start(args, &mut report)?;
        setups.push(s);
        if i + 1 < SETUP_REPS {
            running.stop()?;
        } else {
            server = Some(running);
        }
    }
    let server = server.expect("at least one start");
    let load = closed_loop(server.addr, &inputs, args.seconds, &mut report);
    server.stop()?;

    let n = load.requests as usize;
    let per_op = load.items as f64 / n.max(1) as f64;
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("items_per_s", per_op / load.hist.quantile(0.5), "1/s", n);
    report.metric("latency_p50_us", load.hist.quantile(0.5) * 1e6, "us", n);
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb()?, "MiB", 1);
    Ok(report)
}

/// Per-request layer times of one replay pass set.
#[derive(Default)]
struct Layers {
    http: f64,
    parse: f64,
    featurize: f64,
    registry: f64,
    predict: f64,
    serialize: f64,
    requests: usize,
    items: usize,
}

/// One request through the handler's public building blocks (HTTP
/// parse, JSON parse, featurisation, batch predict, reply serialisation);
/// with `traced` each step is timed into `l`.
fn replay_one(
    traced: bool,
    mix: Mix,
    input: &Input,
    data: &LabeledDataset,
    predictor: &EnergyPredictor,
    l: &mut Layers,
) -> Result<(), String> {
    let request = span(traced, &mut l.http, || {
        let mut parser = HttpParser::new();
        parser.feed(&input.wire);
        parser.take(1 << 20)
    });
    let Parsed::Request(request) = request else {
        return Err("replay: request did not parse".into());
    };
    let body: Value = span(traced, &mut l.parse, || serde_json::from_str(&request.body))
        .map_err(|e| format!("replay: {e}"))?;
    let rows: Vec<Vec<f64>> = match mix {
        Mix::Features => vec![span(traced, &mut l.featurize, || {
            body.field("features")
                .and_then(Value::as_seq)
                .map(|s| s.iter().filter_map(|v| v.as_f64().ok()).collect())
        })
        .map_err(|e| format!("replay: {e}"))?],
        Mix::KernelBatch => {
            let mut rows = Vec::with_capacity(input.samples.len());
            for &i in &input.samples {
                let s = &data.samples[i];
                let def = span(traced, &mut l.registry, || {
                    registry().into_iter().find(|d| d.name == s.kernel)
                })
                .ok_or("replay: unknown kernel")?;
                let row = span(traced, &mut l.featurize, || {
                    def.build(&KernelParams::new(s.dtype, s.payload_bytes))
                        .map(|k| static_feature_vector(&k))
                })
                .map_err(|e| format!("replay: {e}"))?;
                rows.push(row);
            }
            rows
        }
    };
    let cores = span(traced, &mut l.predict, || {
        predictor.predict_cores_batch(&rows)
    })
    .map_err(|e| e.to_string())?;
    if cores != input.expected {
        return Err(format!(
            "replay: cores {cores:?}, oracle {:?}",
            input.expected
        ));
    }
    let out = span(traced, &mut l.serialize, || {
        let mut results: Vec<Value> = cores
            .iter()
            .zip(&input.samples)
            .map(|(&c, &i)| reply_value(mix, &data.samples[i], c))
            .collect();
        let reply = match mix {
            Mix::Features => results.remove(0),
            Mix::KernelBatch => Value::Map(vec![
                ("count".to_string(), Value::U64(results.len() as u64)),
                ("results".to_string(), Value::Seq(results)),
            ]),
        };
        serde_json::to_string(&reply)
    })
    .map_err(|e| e.to_string())?;
    std::hint::black_box(out);
    l.requests += 1;
    l.items += rows.len();
    Ok(())
}

/// Replays the request pool `passes` times, each request once traced and
/// once bare (alternating which goes first). Returns the traced layer
/// times and the traced and bare walls.
fn replay(
    passes: usize,
    mix: Mix,
    inputs: &[Input],
    data: &LabeledDataset,
    predictor: &EnergyPredictor,
) -> Result<(Layers, f64, f64), String> {
    let mut l = Layers::default();
    let mut bare = Layers::default();
    let (mut traced_s, mut bare_s) = (0.0, 0.0);
    let mut n = 0usize;
    for _ in 0..passes {
        for input in inputs {
            for traced in [n.is_multiple_of(2), !n.is_multiple_of(2)] {
                let t = Instant::now();
                if traced {
                    replay_one(true, mix, input, data, predictor, &mut l)?;
                    traced_s += secs(t);
                } else {
                    replay_one(false, mix, input, data, predictor, &mut bare)?;
                    bare_s += secs(t);
                }
            }
            n += 1;
        }
    }
    // The handler rebuilds the registry inside featurisation.
    l.featurize += l.registry;
    Ok((l, traced_s, bare_s))
}

/// A reply map shaped like the handler's for one prediction.
fn reply_value(mix: Mix, s: &SampleRecord, cores: usize) -> Value {
    let mut fields = vec![
        ("cores".to_string(), Value::U64(cores as u64)),
        ("class".to_string(), Value::U64(cores as u64 - 1)),
        (
            "expected_energy_fj".to_string(),
            match mix {
                Mix::Features => Value::Null,
                Mix::KernelBatch => Value::F64(s.energy[cores - 1]),
            },
        ),
        ("model".to_string(), Value::Str("static/ALL".into())),
    ];
    if mix == Mix::KernelBatch {
        fields.push(("kernel".to_string(), Value::Str(s.kernel.clone())));
        fields.push(("dtype".to_string(), Value::Str(s.dtype.to_string())));
        fields.push(("size".to_string(), Value::U64(s.payload_bytes as u64)));
    }
    Value::Map(fields)
}

/// Sum of the values of every sample of metric `name` in a Prometheus
/// text exposition.
fn exposition_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// Span durations (µs) by name from a `/debug/requests` Chrome trace.
fn span_durations(trace: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let v: Value = serde_json::from_str(trace).map_err(|e| format!("debug trace: {e}"))?;
    let events = v
        .field("traceEvents")
        .and_then(Value::as_seq)
        .map_err(|e| format!("debug trace: {e}"))?;
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for e in events {
        if e.field("ph").and_then(Value::as_str).ok() != Some("X") {
            continue;
        }
        let (Ok(name), Ok(dur)) = (
            e.field("name").and_then(Value::as_str),
            e.field("dur").and_then(Value::as_f64),
        ) else {
            continue;
        };
        match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, d)) => d.push(dur),
            None => out.push((name.to_string(), vec![dur])),
        }
    }
    Ok(out)
}

/// Spans that partition one request's server time.
const SPANS: [&str; 7] = [
    "queue_wait",
    "read",
    "parse",
    "features",
    "predict",
    "serialize",
    "write",
];

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mix = Mix::of(&args.workload);
    let (data, inputs) = prepare(args, &mut report)?;
    let (server, _, cache_stats) = start(args, &mut report)?;
    let load = closed_loop(server.addr, &inputs, args.seconds, &mut report);

    let mut client = Client::new(server.addr);
    let get = |client: &mut Client, path: &str| {
        client
            .send(&request_bytes("GET", path, ""))
            .map_err(|e| format!("GET {path}: {e}"))
            .and_then(|r| match r.status {
                200 => Ok(r.body),
                s => Err(format!("GET {path}: status {s}")),
            })
    };
    let trace = get(&mut client, "/debug/requests?n=256")?;
    let metrics = get(&mut client, "/metrics")?;
    server.stop()?;

    let spans = span_durations(&trace)?;
    let p50 = |name: &str| {
        spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, d)| median(d))
    };
    let traced_requests = spans
        .iter()
        .find(|(n, _)| n == "request")
        .map_or(0, |(_, d)| d.len());
    // Client latency of the same (most recent) requests the server traced.
    let recent: Vec<f64> = load.recent.iter().copied().collect();
    let recent = &recent[recent.len().saturating_sub(traced_requests)..];
    let client_p50_us = median(recent) * 1e6;
    let span_sum: f64 = SPANS.iter().map(|s| p50(s)).sum();
    let unattributed = client_p50_us - span_sum;
    report.check(traced_requests > 0, || "no traced requests".into());
    report.check(span_sum > 0.0 && span_sum <= client_p50_us, || {
        format!("server span p50s sum to {span_sum} us, client p50 is {client_p50_us} us")
    });
    report.check(p50("request") <= client_p50_us, || {
        format!(
            "server request p50 {} us exceeds client p50 {client_p50_us} us",
            p50("request")
        )
    });

    let predictor = EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default())
        .map_err(|e| e.to_string())?;
    let (_, one_pass) = timed(|| replay(1, mix, &inputs, &data, &predictor));
    let passes = ((REPLAY_SECONDS / one_pass.max(1e-9)).ceil() as usize).max(1);
    let (traced, traced_s, bare_s) = replay(passes, mix, &inputs, &data, &predictor)?;
    let requests = traced.requests as f64;
    let items = traced.items as f64;
    let predict_requests = exposition_sum(&metrics, "pulp_http_requests_total");
    report.metric(
        "cache.hit_ratio",
        cache_stats.hits as f64 / cache_stats.lookups().max(1) as f64,
        "ratio",
        cache_stats.lookups() as usize,
    );
    report.metric(
        "net.http_parse_us",
        traced.http / requests * 1e6,
        "us",
        traced.requests,
    );
    report.metric(
        "json.parse_us",
        traced.parse / requests * 1e6,
        "us",
        traced.requests,
    );
    report.metric(
        "json.serialize_us",
        traced.serialize / requests * 1e6,
        "us",
        traced.requests,
    );
    report.metric(
        "serve.featurize_us",
        traced.featurize / items * 1e6,
        "us",
        traced.items,
    );
    report.metric(
        "kernels.registry_us",
        traced.registry / items * 1e6,
        "us",
        traced.items,
    );
    report.metric(
        "predictor.predict_ns",
        traced.predict / items * 1e9,
        "ns",
        traced.items,
    );
    for s in SPANS.iter().chain(&["request"]) {
        report.metric(&format!("serve.span.{s}_us"), p50(s), "us", traced_requests);
    }
    report.metric("serve.unattributed_us", unattributed, "us", traced_requests);
    report.metric("serve.client_p50_us", client_p50_us, "us", recent.len());
    report.metric(
        "serve.client_p90_us",
        load.hist.quantile(0.9) * 1e6,
        "us",
        load.requests as usize,
    );
    report.metric(
        "bench.wall_items_per_s",
        load.items as f64 / load.wall_s,
        "1/s",
        load.requests as usize,
    );
    report.metric(
        "serve.keepalive_reuse_ratio",
        exposition_sum(&metrics, "pulp_serve_keepalive_reuse_total") / predict_requests.max(1.0),
        "ratio",
        predict_requests as usize,
    );
    report.metric(
        "serve.shed",
        exposition_sum(&metrics, "pulp_serve_shed_total"),
        "count",
        1,
    );
    report.metric(
        "serve.timeouts",
        exposition_sum(&metrics, "pulp_serve_timeouts_total"),
        "count",
        1,
    );
    report.metric("serve.connections", load.connects as f64, "count", 1);
    report.metric("bench.trace_overhead", traced_s / bare_s - 1.0, "ratio", 2);
    Ok(report)
}
