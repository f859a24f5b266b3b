//! Property tests for the sliding-window metrics and the flight recorder.
//!
//! The windowed quantiles are checked against a naive reference that keeps
//! every raw observation and re-derives the live set from first principles
//! (latest epoch per ring slot, window anchored at the newest epoch), then
//! full-resorts the surviving values. The flight-recorder properties pin
//! the at-capacity contract: exactly the most recent N completed traces
//! survive, in completion order.

use proptest::prelude::*;
use pulp_obs::metrics::log_buckets;
use pulp_obs::{FlightRecorder, MetricsRegistry, RequestTrace, WindowConfig};

/// Upper bound of the bucket a value falls into — the resolution at which
/// the histogram can answer quantile queries. Values past the last finite
/// bound land in `+Inf`, which the quantile degrades to the last bound.
fn bucket_bound(bounds: &[f64], value: f64) -> f64 {
    bounds
        .iter()
        .copied()
        .find(|&b| value <= b)
        .unwrap_or_else(|| *bounds.last().expect("non-empty bucket layout"))
}

/// The raw in-window observations, derived without the ring: an observation
/// is live iff its epoch is the newest to occupy its slot index AND it falls
/// inside the window anchored at the newest epoch overall. With monotone
/// feed times this is exactly the set the ring retains.
fn live_values(observations: &[(f64, u64)], slots: usize, window_secs: u64) -> Vec<f64> {
    let n = slots.max(1) as u64;
    let slot_secs = (window_secs / n).max(1);
    let epochs: Vec<u64> = observations.iter().map(|&(_, t)| t / slot_secs).collect();
    let Some(anchor) = epochs.iter().copied().max() else {
        return Vec::new();
    };
    let mut latest = vec![0u64; n as usize];
    for &e in &epochs {
        let i = (e % n) as usize;
        latest[i] = latest[i].max(e);
    }
    observations
        .iter()
        .zip(&epochs)
        .filter(|&(&(v, _), &e)| v.is_finite() && e + n > anchor && e == latest[(e % n) as usize])
        .map(|(&(v, _), _)| v)
        .collect()
}

/// Full-resort reference quantile: sort the live raw values, pick the rank
/// the histogram targets (`ceil(q * count)`, at least 1), and report the
/// bucket bound that value maps to — bucketing is monotone, so this is the
/// exact answer the histogram's cumulative-rank walk must produce.
fn reference_quantile(live: &[f64], bounds: &[f64], q: f64) -> Option<f64> {
    if live.is_empty() {
        return None;
    }
    let mut sorted = live.to_vec();
    sorted.sort_by(f64::total_cmp);
    let target = ((q * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
    Some(bucket_bound(bounds, sorted[target - 1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Windowed p50/p90/p99 and the live count agree with the naive
    /// reference for arbitrary value streams with monotone timestamps,
    /// across several slot layouts — including streams long enough to
    /// wrap the ring many times over.
    #[test]
    fn windowed_quantiles_match_a_full_resort_reference(
        raw in prop::collection::vec((0.0f64..20.0, 0u64..25), 1..200),
        slots in prop::sample::select(vec![1usize, 2, 3, 6]),
    ) {
        let bounds = log_buckets(1e-3, 16.0, 3);
        let window_secs = 60u64;
        // Deltas accumulate into non-decreasing absolute seconds, matching
        // how a live process feeds the window from a monotone clock.
        let mut now_s = 0u64;
        let observations: Vec<(f64, u64)> = raw
            .iter()
            .map(|&(v, dt)| {
                now_s += dt;
                (v, now_s)
            })
            .collect();

        let mut reg = MetricsRegistry::new();
        for &(v, t) in &observations {
            reg.windowed_observe_with("w_window", "windowed property series", &[], v, t, || {
                WindowConfig {
                    window_secs,
                    slots,
                    buckets: bounds.clone(),
                }
            });
        }

        let live = live_values(&observations, slots, window_secs);
        prop_assert_eq!(reg.windowed_count("w_window", &[]), Some(live.len() as u64));
        for q in [0.50, 0.90, 0.99] {
            let got = reg.windowed_quantile("w_window", &[], q);
            let want = reference_quantile(&live, &bounds, q);
            prop_assert_eq!(got, want, "quantile q={} diverged from the reference", q);
        }
    }

    /// A recorder at capacity retains exactly the most recent `cap` traces,
    /// oldest-first, and still counts every completion.
    #[test]
    fn flight_recorder_at_capacity_keeps_exactly_the_newest_traces(
        cap in 1usize..24,
        extra in 0usize..60,
    ) {
        let recorder = FlightRecorder::new(cap);
        let total = cap + extra;
        for i in 0..total as u64 {
            recorder.record(RequestTrace::new(i, "req", 200, Vec::new()));
        }
        prop_assert_eq!(recorder.len(), cap);
        prop_assert_eq!(recorder.completed(), total as u64);
        let kept = recorder.recent(cap);
        prop_assert_eq!(kept.len(), cap);
        let ids: Vec<u64> = kept.iter().map(|t| t.trace_id).collect();
        let expected: Vec<u64> = (extra as u64..total as u64).collect();
        prop_assert_eq!(ids, expected, "eviction must drop exactly the oldest traces");
    }
}

/// The default recorder retains exactly `capacity` traces at most, and
/// `recent` always reports completion order.
#[test]
fn striped_recorder_bounds_retention_and_orders_by_completion() {
    let capacity = 16;
    let recorder = FlightRecorder::new(capacity);
    for i in 0..10 * capacity as u64 {
        recorder.record(RequestTrace::new(i, "req", 200, Vec::new()));
    }
    assert_eq!(recorder.len(), capacity);
    assert_eq!(recorder.capacity(), capacity);
    assert_eq!(recorder.completed(), 10 * capacity as u64);
    let seqs: Vec<u64> = recorder.recent(capacity).iter().map(|t| t.seq()).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "recent() must be sorted by completion sequence: {seqs:?}"
    );
}
