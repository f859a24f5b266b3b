//! End-to-end test of the instrumented prediction service.
//!
//! Boots a real [`Server`] on an ephemeral port, talks to it over raw
//! `TcpStream` HTTP/1.1 and checks the contract the service promises:
//!
//! 1. `/healthz`, `/metrics` and `/predict` all answer.
//! 2. `/predict` agrees with an offline predictor trained on the same
//!    dataset with the same protocol (training is deterministic).
//! 3. `/metrics` always passes the Prometheus exposition validator and its
//!    request counters move in exact lockstep with the requests we issue.

use pulp_bench::serve::{ServeOptions, ServeState, Server, ShutdownHandle};
use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_energy::{static_feature_vector, EnergyPredictor, StaticFeatureSet};
use pulp_ml::TreeParams;
use pulp_obs::{
    validate_chrome_trace, validate_exposition, LogFormat, Logger, MetricsRegistry, Recorder,
};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One shared quick dataset for every test in this file: the sweep is the
/// expensive part, training a fresh predictor from it is cheap, so each
/// test gets its own [`ServeState`] (fresh metrics) over the same data.
fn fixture() -> &'static (PipelineOptions, LabeledDataset) {
    static DATA: OnceLock<(PipelineOptions, LabeledDataset)> = OnceLock::new();
    DATA.get_or_init(|| {
        let opts = PipelineOptions::quick(&["vec_scale", "fpu_storm"]);
        let data = LabeledDataset::build(&opts).expect("quick dataset builds");
        (opts, data)
    })
}

/// A fresh server state over the shared fixture dataset.
fn fresh_state() -> Arc<ServeState> {
    let (opts, data) = fixture();
    Arc::new(ServeState::from_parts(
        EnergyPredictor::train(data, StaticFeatureSet::All, TreeParams::default())
            .expect("predictor trains"),
        data,
        MetricsRegistry::new(),
        opts,
    ))
}

/// Boots a server with explicit capacity knobs; returns its address, the
/// shared state (for metric assertions), a shutdown handle, and the thread
/// running [`Server::run`] so tests can prove it joins.
fn spawn_server(
    opts: ServeOptions,
) -> (
    SocketAddr,
    Arc<ServeState>,
    ShutdownHandle,
    std::thread::JoinHandle<()>,
) {
    let state = fresh_state();
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&state), opts).expect("bind ephemeral port");
    let addr = server.addr;
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, state, handle, thread)
}

/// Writes one HTTP/1.1 request on an already-open stream without closing
/// it, so keep-alive behaviour is observable.
fn send_on(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
}

/// Reads one `Content-Length`-framed response off a persistent connection:
/// `(status, headers, body)` with header names lowercased.
fn read_framed(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').expect("header separator");
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .expect("content-length header")
        .1
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

/// Issues one HTTP/1.1 request and returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A server that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads one sample value out of a rendered exposition by its exact
/// `name{labels}` prefix.
fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(series)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn serve_round_trip_matches_offline_pipeline_and_counts_requests() {
    // One shared quick dataset: the server trains from it and the offline
    // reference predictor trains on the identical inputs.
    let opts = PipelineOptions::quick(&["vec_scale", "fpu_storm"]);
    let mut rec = Recorder::new();
    let data = LabeledDataset::build_observed(&opts, &mut rec, BuildObserver::default())
        .expect("quick dataset builds");
    let mut metrics = MetricsRegistry::new();
    metrics.observe_recorder("pulp_pipeline", &rec);
    let offline = EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default())
        .expect("offline predictor trains");
    let state = Arc::new(ServeState::from_parts(
        EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default())
            .expect("server predictor trains"),
        &data,
        metrics,
        &opts,
    ));

    let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.addr;
    std::thread::spawn(move || server.run());

    // 1. All three endpoints answer.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let (status, first_metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_exposition(&first_metrics).expect("first exposition valid");

    // 2. /predict by kernel name matches the offline float-tree oracle on
    //    the exact same feature vector.
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#,
    );
    assert_eq!(status, 200, "predict failed: {body}");
    let reply: Value = serde_json::from_str(&body).expect("predict reply is JSON");
    let served = reply.field("cores").and_then(Value::as_u64).expect("cores") as usize;

    let def = pulp_kernels::registry()
        .into_iter()
        .find(|d| d.name == "vec_scale")
        .expect("vec_scale registered");
    let kernel = def
        .build(&pulp_kernels::KernelParams::new(
            kernel_ir::DType::I32,
            2048,
        ))
        .expect("vec_scale instantiates");
    let full = static_feature_vector(&kernel);
    let expected = offline
        .predict_cores_batch_float(std::slice::from_ref(&full))
        .expect("offline prediction")[0];
    assert_eq!(
        served, expected,
        "served prediction must match the offline pipeline"
    );
    assert!(
        reply
            .field("expected_energy_fj")
            .and_then(Value::as_f64)
            .is_ok(),
        "training sample resolves an expected energy: {body}"
    );

    // The raw-feature path gives the same answer as the kernel path.
    let features = full
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        &format!("{{\"features\": [{features}]}}"),
    );
    assert_eq!(status, 200);
    let reply: Value = serde_json::from_str(&body).expect("json");
    assert_eq!(
        reply.field("cores").and_then(Value::as_u64).expect("cores") as usize,
        expected
    );

    // Error surface: short vector -> 400, bad method -> 405, bad path -> 404.
    let (status, body) = request(addr, "POST", "/predict", r#"{"features": [1.0]}"#);
    assert_eq!(status, 400);
    assert!(body.contains("error"), "400 carries a JSON error: {body}");
    let (status, _) = request(addr, "GET", "/predict", "");
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/does-not-exist", "");
    assert_eq!(status, 404);

    // 3. The registry reflects exactly the requests issued above. The
    //    /metrics request itself is recorded after rendering, so the first
    //    scrape shows up here with count 1.
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    validate_exposition(&text).expect("second exposition valid");
    let count = |series: &str| sample(&text, series).unwrap_or(f64::NAN);
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="/healthz",status="200"}"#),
        2.0
    );
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="/metrics",status="200"}"#),
        1.0
    );
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="/predict",status="200"}"#),
        2.0
    );
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="/predict",status="400"}"#),
        1.0
    );
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="/predict",status="405"}"#),
        1.0
    );
    assert_eq!(
        count(r#"pulp_http_requests_total{endpoint="other",status="404"}"#),
        1.0
    );
    // Latency histograms track the same totals.
    assert_eq!(
        count(r#"pulp_http_request_seconds_count{endpoint="/healthz"}"#),
        2.0
    );
    assert_eq!(
        count(r#"pulp_http_request_seconds_count{endpoint="/predict"}"#),
        4.0
    );
    // Per-stage /predict instrumentation saw both successful predictions.
    assert_eq!(
        count(r#"pulp_predict_stage_seconds_count{stage="predict"}"#),
        2.0
    );
    // One energy lookup hit (kernel path) and one miss (raw features).
    assert_eq!(
        count(r#"pulp_predict_energy_lookups_total{outcome="hit"}"#),
        1.0
    );
    assert_eq!(
        count(r#"pulp_predict_energy_lookups_total{outcome="miss"}"#),
        1.0
    );

    // The manifest endpoint serves valid JSON describing this instance.
    let (status, body) = request(addr, "GET", "/manifest", "");
    assert_eq!(status, 200);
    let manifest: Value = serde_json::from_str(&body).expect("manifest is JSON");
    assert_eq!(
        manifest.field("tool").and_then(Value::as_str),
        Ok("pulp_cli serve")
    );
    assert_eq!(
        state.manifest().config_hash,
        manifest
            .field("config_hash")
            .and_then(Value::as_str)
            .expect("config_hash")
    );
}

#[test]
fn graceful_shutdown_drains_inflight_and_joins() {
    let (addr, _state, _handle, thread) = spawn_server(ServeOptions::default());

    // Park one request mid-flight: headers promise a body we have not sent
    // yet, so a worker sits in `read_request` waiting for it.
    let body = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
    let mut inflight = TcpStream::connect(addr).expect("connect");
    let (head, tail) = body.split_at(10);
    inflight
        .write_all(
            format!(
                "POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{head}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send partial request");
    std::thread::sleep(Duration::from_millis(100));

    // Ask the server to drain over a second connection.
    let (status, reply) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "shutdown ack: {reply}");
    assert!(reply.contains("draining"), "{reply}");

    // The in-flight request still completes after the drain began.
    inflight.write_all(tail.as_bytes()).expect("finish request");
    let mut reader = BufReader::new(inflight);
    let (status, _, reply) = read_framed(&mut reader);
    assert_eq!(status, 200, "in-flight request must complete: {reply}");
    let reply: Value = serde_json::from_str(&reply).expect("predict reply is JSON");
    assert!(reply.field("cores").and_then(Value::as_u64).is_ok());

    // `Server::run` returns: every worker joined.
    thread.join().expect("server thread joins cleanly");

    // And the listener is gone, so new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "connections after shutdown must be refused"
    );
}

#[test]
fn keepalive_connection_reuse_is_counted() {
    let (addr, state, handle, thread) = spawn_server(ServeOptions::default());

    // Three requests down one connection: HTTP/1.1 defaults to keep-alive.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for _ in 0..3 {
        send_on(&mut stream, "GET", "/healthz", "");
        let (status, headers, body) = read_framed(&mut reader);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert!(
            headers
                .iter()
                .any(|(n, v)| n == "connection" && v == "keep-alive"),
            "server must announce keep-alive: {headers:?}"
        );
    }
    drop(stream);

    // Requests 2 and 3 were reuses of the same connection.
    assert_eq!(
        state.metric_value("pulp_serve_keepalive_reuse_total", &[]),
        Some(2.0)
    );

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn keepalive_honours_per_connection_request_cap() {
    let opts = ServeOptions {
        keepalive_max_requests: 2,
        ..ServeOptions::default()
    };
    let (addr, _state, handle, thread) = spawn_server(opts);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    send_on(&mut stream, "GET", "/healthz", "");
    let (_, headers, _) = read_framed(&mut reader);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "connection" && v == "keep-alive"));
    // The second (cap-th) request is answered but the server closes after.
    send_on(&mut stream, "GET", "/healthz", "");
    let (status, headers, _) = read_framed(&mut reader);
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"),
        "cap-th response must announce close: {headers:?}"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("peer closed");
    assert!(rest.is_empty(), "no bytes after the final response");

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, queue depth one: parking the worker and queueing one
    // connection makes the very next connection shed.
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 1,
        timeout_ms: 5_000,
        ..ServeOptions::default()
    };
    let (addr, state, handle, thread) = spawn_server(opts);

    // Park the only worker: it blocks reading a request we never finish.
    let mut parked = TcpStream::connect(addr).expect("connect parked");
    parked
        .write_all(b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\n")
        .expect("park worker");
    std::thread::sleep(Duration::from_millis(200));

    // This connection sits in the queue (depth 1, now full).
    let queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(200));

    // The next connection must be shed: 503 + Retry-After, counted.
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    send_on(&mut shed, "GET", "/healthz", "");
    let mut reader = BufReader::new(shed);
    let (status, headers, body) = read_framed(&mut reader);
    assert_eq!(status, 503, "over-capacity connection must shed: {body}");
    assert!(
        headers.iter().any(|(n, _)| n == "retry-after"),
        "503 must carry Retry-After: {headers:?}"
    );
    assert!(
        state
            .metric_value("pulp_serve_shed_total", &[])
            .unwrap_or(0.0)
            >= 1.0,
        "shed_total must count the refused connection"
    );

    // Unpark the worker so the drain below is quick; the queued connection
    // then gets served too.
    parked.write_all(b"0123456789").expect("unpark");
    let mut parked_reader = BufReader::new(parked);
    let (status, _, _) = read_framed(&mut parked_reader);
    assert_eq!(status, 400, "ten bytes of junk JSON is a client error");
    drop(queued);

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn batch_predictions_match_sequential_over_http() {
    let (addr, _state, handle, thread) = spawn_server(ServeOptions::default());

    // Mixed batch: kernel-name items and a raw-feature item.
    let items = [
        r#"{"kernel": "vec_scale", "dtype": "i32", "size": 1024}"#.to_string(),
        r#"{"kernel": "fpu_storm", "dtype": "f32", "size": 2048}"#.to_string(),
        r#"{"kernel": "vec_scale", "dtype": "f32", "size": 4096}"#.to_string(),
    ];
    let batch_body = format!("{{\"requests\": [{}]}}", items.join(","));
    let (status, body) = request(addr, "POST", "/predict/batch", &batch_body);
    assert_eq!(status, 200, "batch failed: {body}");
    let reply: Value = serde_json::from_str(&body).expect("batch reply is JSON");
    assert_eq!(
        reply.field("count").and_then(Value::as_u64),
        Ok(items.len() as u64)
    );
    let results = reply
        .field("results")
        .and_then(Value::as_seq)
        .expect("results array");
    assert_eq!(results.len(), items.len());

    // Each batch result carries exactly the cores a sequential /predict
    // call returns for the same item.
    for (item, batched) in items.iter().zip(results) {
        let (status, body) = request(addr, "POST", "/predict", item);
        assert_eq!(status, 200, "sequential predict failed: {body}");
        let sequential: Value = serde_json::from_str(&body).expect("json");
        assert_eq!(
            batched.field("cores").and_then(Value::as_u64),
            sequential.field("cores").and_then(Value::as_u64),
            "batch and sequential disagree on {item}"
        );
    }

    // Shape errors name the offending item and reject empty batches.
    let (status, body) = request(
        addr,
        "POST",
        "/predict/batch",
        r#"{"requests": [{"kernel": "vec_scale", "dtype": "i32", "size": 64}, {"features": [1.0]}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("requests[1]"), "error names the item: {body}");
    let (status, _) = request(addr, "POST", "/predict/batch", r#"{"requests": []}"#);
    assert_eq!(status, 400);

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn unsupported_kernel_dtypes_get_400_and_the_worker_lives_on() {
    // One worker: a request that kills it leaves nobody to answer the next
    // request or to drain.
    let (addr, _state, _handle, thread) = spawn_server(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });

    // `fft` is f32-only and the default dtype is i32; `histogram` is
    // i32-only.
    for (path, body, names) in [
        (
            "/predict",
            r#"{"kernel": "fft"}"#,
            "kernel `fft` does not support i32",
        ),
        (
            "/predict",
            r#"{"kernel": "histogram", "dtype": "f32"}"#,
            "kernel `histogram` does not support f32",
        ),
        (
            "/predict/batch",
            r#"{"requests": [{"kernel": "vec_scale"}, {"kernel": "fft"}]}"#,
            "requests[1]: kernel `fft` does not support i32",
        ),
    ] {
        let (status, reply) = request(addr, "POST", path, body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert!(reply.contains(names), "{body}: {reply}");
    }
    let (status, reply) = request(addr, "POST", "/predict", r#"{"kernel": "vec_scale"}"#);
    assert_eq!(status, 200, "the worker still serves: {reply}");

    let (status, reply) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "shutdown ack: {reply}");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !thread.is_finished() {
        assert!(std::time::Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    thread.join().expect("server drains and joins");
}

#[test]
fn oversized_body_is_refused_with_413_before_reading_it() {
    let opts = ServeOptions {
        max_body_bytes: 256,
        ..ServeOptions::default()
    };
    let (addr, _state, handle, thread) = spawn_server(opts);

    // Announce a huge body and send none of it: the refusal must come from
    // the Content-Length check alone.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: 1000000\r\n\r\n")
        .expect("send oversized header");
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_framed(&mut reader);
    assert_eq!(status, 413, "oversized body must be refused: {body}");
    assert!(body.contains("256"), "413 names the limit: {body}");

    // A body at the limit still parses (and fails later, as bad JSON).
    let at_limit = "x".repeat(256);
    let (status, _) = request(addr, "POST", "/predict", &at_limit);
    assert_eq!(status, 400, "at-limit body reaches the JSON parser");

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn metrics_exposition_is_versioned_and_machine_valid() {
    let (addr, _state, handle, thread) = spawn_server(ServeOptions::default());

    // Exercise a predict first so histograms and windowed series exist.
    let body = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
    let (status, _) = request(addr, "POST", "/predict", body);
    assert_eq!(status, 200);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    send_on(&mut stream, "GET", "/metrics", "");
    let (status, headers, text) = read_framed(&mut reader);
    assert_eq!(status, 200);
    let content_type = &headers
        .iter()
        .find(|(n, _)| n == "content-type")
        .expect("content-type header")
        .1;
    assert!(
        content_type.starts_with("text/plain; version=0.0.4"),
        "Prometheus exposition must be versioned: {content_type}"
    );
    validate_exposition(&text).expect("exposition must pass the validator");
    // The sliding-window latency series renders next to the cumulative
    // histogram it mirrors.
    assert!(
        text.contains("pulp_serve_request_seconds_window"),
        "windowed series missing from the exposition"
    );
    assert!(text.contains("pulp_http_request_seconds_bucket"));

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn debug_requests_serves_a_validated_chrome_trace_of_every_request() {
    let (addr, state, handle, thread) = spawn_server(ServeOptions::default());

    let body = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
    const N: usize = 5;
    for _ in 0..N {
        let (status, reply) = request(addr, "POST", "/predict", body);
        assert_eq!(status, 200, "predict failed: {reply}");
    }

    let (status, trace) = request(addr, "GET", "/debug/requests?n=64", "");
    assert_eq!(status, 200, "debug endpoint failed: {trace}");
    validate_chrome_trace(&trace).expect("flight-recorder trace must validate");
    // Every request above appears as its own lane with the promised child
    // spans: queue wait at the front, the predict stage, the final write.
    let count = |needle: &str| trace.matches(needle).count();
    assert!(
        count("\"queue_wait\"") >= N,
        "every request carries a queue_wait span: {trace}"
    );
    assert!(count("\"predict\"") >= N, "predict spans missing: {trace}");
    assert!(count("\"write\"") >= N, "write spans missing: {trace}");
    // The recorder retained each completed request (the /debug request
    // itself is recorded after its response is written, so >= N).
    assert!(state.flight().completed() >= N as u64);

    // The slow table renders as a deterministic JSON array sorted worst
    // first.
    let (status, slow) = request(addr, "GET", "/debug/slow?n=8", "");
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&slow).expect("slow summary is JSON");
    let entries = v.as_seq().expect("top-level array");
    assert!(!entries.is_empty());
    let worst: Vec<u64> = entries
        .iter()
        .map(|e| {
            e.field("total_ticks")
                .and_then(Value::as_u64)
                .expect("ticks")
        })
        .collect();
    assert!(worst.windows(2).all(|w| w[0] >= w[1]), "sorted: {worst:?}");

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn debug_query_params_reject_malformed_values_with_400() {
    let (addr, state, handle, thread) = spawn_server(ServeOptions::default());

    for target in [
        "/debug/requests?n=banana",
        "/debug/requests?n=0",
        "/debug/requests?n=-1",
        "/debug/slow?n=",
        "/debug/slow?n=2.5",
    ] {
        let (status, body) = request(addr, "GET", target, "");
        assert_eq!(status, 400, "{target} must be rejected: {body}");
        let v: Value = serde_json::from_str(&body).expect("error body is JSON");
        let msg = v
            .field("error")
            .and_then(Value::as_str)
            .expect("error field");
        assert!(msg.contains("positive integer"), "{target}: {msg}");
    }

    // Well-formed but oversized values clamp to retention instead of
    // erroring; absent values keep serving the default.
    let over = state.flight().capacity() + 1000;
    for target in [
        format!("/debug/requests?n={over}"),
        "/debug/requests".to_string(),
        "/debug/slow?n=9999".to_string(),
        "/debug/slow".to_string(),
    ] {
        let (status, body) = request(addr, "GET", &target, "");
        assert_eq!(status, 200, "{target} must clamp, not fail: {body}");
    }

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn slow_request_lines_honour_the_json_log_format() {
    let (pipeline, data) = fixture();
    let state = Arc::new(
        ServeState::from_parts(
            EnergyPredictor::train(data, StaticFeatureSet::All, TreeParams::default())
                .expect("predictor trains"),
            data,
            MetricsRegistry::new(),
            pipeline,
        )
        .with_logger(Logger::to_sink(LogFormat::Json)),
    );
    // slow_ms 0: every request is "slow", so one line per request.
    let opts = ServeOptions {
        slow_ms: 0,
        ..ServeOptions::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", Arc::clone(&state), opts).expect("bind ephemeral port");
    let addr = server.addr;
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let body = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
    let (status, reply) = request(addr, "POST", "/predict", body);
    assert_eq!(status, 200, "predict failed: {reply}");

    // The line lands after the response is written; poll briefly.
    let mut lines = Vec::new();
    for _ in 0..100 {
        lines = state.log_lines().expect("sink logger");
        if !lines.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!lines.is_empty(), "slow_ms=0 must log every request");
    let v: Value = serde_json::from_str(&lines[0]).expect("JSON-lines record");
    assert_eq!(v.field("level").and_then(Value::as_str), Ok("warn"));
    assert_eq!(v.field("stage").and_then(Value::as_str), Ok("serve"));
    assert_eq!(v.field("endpoint").and_then(Value::as_str), Ok("/predict"));
    assert_eq!(v.field("status").and_then(Value::as_str), Ok("200"));
    assert!(v.field("trace_id").and_then(Value::as_str).is_ok());
    let spans = v.field("spans").and_then(Value::as_str).expect("spans");
    assert!(
        spans.contains("queue_wait=") && spans.contains("predict="),
        "span breakdown names the stages: {spans}"
    );

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn windowed_p99_tracks_the_cumulative_p99_under_steady_load() {
    let (addr, state, handle, thread) = spawn_server(ServeOptions::default());

    let body = r#"{"kernel": "vec_scale", "dtype": "i32", "size": 2048}"#;
    for _ in 0..60 {
        let (status, reply) = request(addr, "POST", "/predict", body);
        assert_eq!(status, 200, "predict failed: {reply}");
    }

    // Every observation of this run is inside the 60s window, and the
    // windowed series shares the cumulative histogram's log buckets — the
    // two p99 estimates must land within one log-bucket of each other
    // (buckets are 10^(1/4) apart).
    let windowed = state
        .windowed_quantile(
            "pulp_serve_request_seconds_window",
            &[("endpoint", "/predict")],
            0.99,
        )
        .expect("windowed series exists");
    let cumulative = state
        .histogram_quantile(
            "pulp_http_request_seconds",
            &[("endpoint", "/predict")],
            0.99,
        )
        .expect("cumulative histogram exists");
    assert!(windowed > 0.0 && cumulative > 0.0);
    let log_distance = (windowed / cumulative).log10().abs();
    assert!(
        log_distance < 0.2501,
        "windowed p99 {windowed} vs cumulative {cumulative}: {log_distance} decades apart"
    );

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn deeply_nested_json_bodies_get_400_and_the_server_lives_on() {
    let (addr, _state, handle, thread) = spawn_server(ServeOptions::default());

    // Just under the default 1 MiB body cap: without a nesting limit the
    // recursive-descent parser overflows a worker's stack and aborts the
    // whole process.
    let depth = ServeOptions::default().max_body_bytes - 64;
    for (path, body) in [
        ("/predict", "[".repeat(depth)),
        (
            "/predict/batch",
            "{\"requests\":".to_string() + &"[".repeat(depth),
        ),
        ("/predict", "{\"a\":".repeat(depth / 5)),
    ] {
        let (status, reply) = request(addr, "POST", path, &body);
        assert_eq!(status, 400, "{path}: nested body must be refused: {reply}");
        let (status, reply) = request(addr, "GET", "/healthz", "");
        assert_eq!(
            status, 200,
            "server must survive a nested {path} body: {reply}"
        );
    }

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn malformed_request_lines_get_400_not_a_dropped_connection() {
    let (addr, _state, handle, thread) = spawn_server(ServeOptions::default());

    for garbage in [
        "this is not http\r\n\r\n",
        "GET /healthz\r\n\r\n",
        "GET healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        "GET /healthz SMTP/1.0\r\nHost: t\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(garbage.as_bytes()).expect("send garbage");
        let mut reader = BufReader::new(stream);
        let (status, _, body) = read_framed(&mut reader);
        assert_eq!(status, 400, "{garbage:?} must get a 400, got: {body}");
        assert!(body.contains("malformed"), "{body}");
    }

    handle.trigger();
    thread.join().expect("server thread joins");
}

#[test]
fn a_thousand_idle_keepalive_connections_cost_no_capacity() {
    // The admission set is tiny (2 workers + 8 queue slots), yet a
    // thousand established keep-alive connections can park on the event
    // loop: established idle connections hold no slot, no thread and no
    // deadline. Before the readiness rewrite each of these held a worker.
    let opts = ServeOptions {
        workers: 2,
        queue_depth: 8,
        timeout_ms: 10_000,
        ..ServeOptions::default()
    };
    let (addr, state, handle, thread) = spawn_server(opts);

    const IDLE: usize = 1_000;
    let mut parked = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut stream = TcpStream::connect(addr).expect("connect idle conn");
        send_on(&mut stream, "GET", "/healthz", "");
        let mut reader = BufReader::new(stream);
        let (status, _, body) = read_framed(&mut reader);
        assert_eq!(status, 200, "idle conn {i} establish failed: {body}");
        parked.push(reader); // keep-alive: the server parks it idle
    }

    // The open-connections gauge sees the whole parked fleet.
    let open = state
        .metric_value("pulp_serve_open_connections", &[])
        .expect("open-connections gauge exists");
    assert!(
        open >= IDLE as f64,
        "gauge must count the parked fleet, got {open}"
    );

    // Active traffic still flows with bounded latency: the parked fleet
    // must not consume the admission slots actives need.
    let started = std::time::Instant::now();
    for _ in 0..20 {
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(
            status, 200,
            "active request failed under parked load: {body}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "20 active round-trips took {elapsed:?} with {IDLE} parked connections"
    );

    // Parked connections are still live: reuse one end-to-end.
    let reader = parked.last_mut().expect("parked fleet");
    send_on(reader.get_mut(), "GET", "/healthz", "");
    let (status, _, _) = read_framed(reader);
    assert_eq!(status, 200, "parked connection must still serve");

    handle.trigger();
    thread
        .join()
        .expect("server thread joins with 1k connections open");
}

#[test]
fn drain_completes_with_connections_in_every_state() {
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 4,
        timeout_ms: 5_000,
        ..ServeOptions::default()
    };
    let (addr, _state, _handle, thread) = spawn_server(opts);

    // Idle established: one completed request, then parked keep-alive.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    send_on(&mut idle, "GET", "/healthz", "");
    let mut idle_reader = BufReader::new(idle);
    let (status, _, _) = read_framed(&mut idle_reader);
    assert_eq!(status, 200);

    // Fresh and silent: accepted, never sent a byte.
    let silent = TcpStream::connect(addr).expect("connect silent");

    // Mid-read: headers sent, body short by six bytes.
    let mut partial = TcpStream::connect(addr).expect("connect partial");
    partial
        .write_all(b"POST /predict HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\n0123")
        .expect("send partial");
    std::thread::sleep(Duration::from_millis(100));

    // Trigger the drain over HTTP; this connection itself is mid-pipeline
    // (dispatched, then writing) while the drain begins.
    let mut admin = TcpStream::connect(addr).expect("connect admin");
    send_on(&mut admin, "POST", "/admin/shutdown", "");
    let mut admin_reader = BufReader::new(admin);
    let (status, _, body) = read_framed(&mut admin_reader);
    assert_eq!(status, 200, "shutdown must answer before closing: {body}");
    assert!(body.contains("draining"), "{body}");

    // The idle and silent connections are dropped by the drain...
    let mut probe = [0u8; 1];
    idle_reader
        .get_mut()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    assert_eq!(
        idle_reader.get_mut().read(&mut probe).expect("idle closes"),
        0,
        "parked idle connection must close on drain"
    );

    // ...while the mid-read request finishes its body and completes.
    partial.write_all(b"456789").expect("finish body");
    let mut partial_reader = BufReader::new(partial);
    let (status, _, body) = read_framed(&mut partial_reader);
    assert_eq!(
        status, 400,
        "in-flight request must complete through the drain: {body}"
    );

    drop(silent);
    thread.join().expect("server drains every state and joins");
}

#[test]
fn slow_loris_gets_408_from_the_timer_wheel_while_idle_conns_live_on() {
    let opts = ServeOptions {
        workers: 2,
        queue_depth: 4,
        timeout_ms: 150,
        ..ServeOptions::default()
    };
    let (addr, state, handle, thread) = spawn_server(opts);

    // Establish a keep-alive connection before the loris arrives.
    let mut veteran = TcpStream::connect(addr).expect("connect veteran");
    send_on(&mut veteran, "GET", "/healthz", "");
    let mut veteran_reader = BufReader::new(veteran);
    let (status, _, _) = read_framed(&mut veteran_reader);
    assert_eq!(status, 200);

    // The loris trickles half a request line and stalls; the timer wheel
    // must fire the read deadline and answer 408 without a worker ever
    // being involved.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"GET /healthz HT").expect("trickle");
    let mut loris_reader = BufReader::new(loris);
    let (status, _, body) = read_framed(&mut loris_reader);
    assert_eq!(status, 408, "stalled read must deadline: {body}");
    assert!(body.contains("deadline"), "{body}");
    assert!(
        state
            .metric_value("pulp_serve_timeouts_total", &[("kind", "read")])
            .unwrap_or(0.0)
            >= 1.0,
        "read timeout must be counted"
    );

    // Far longer than timeout_ms later, the established idle connection is
    // still alive: idle keep-alive connections carry no read deadline.
    std::thread::sleep(Duration::from_millis(400));
    send_on(veteran_reader.get_mut(), "GET", "/healthz", "");
    let (status, _, _) = read_framed(&mut veteran_reader);
    assert_eq!(status, 200, "established idle connections must not expire");

    handle.trigger();
    thread.join().expect("server thread joins");
}
