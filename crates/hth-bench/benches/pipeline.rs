//! Pipeline bench: the single-shard analyst pool's per-event cost, and
//! what the always-on flight recorder adds to it.
//!
//! The Table 8 exploit corpus is captured once and fanned into a fresh
//! single-shard pool per run:
//!
//! * the pool must warn exactly like one expert fed the same events in
//!   order;
//! * `FlightRecorder::record`, timed in a tight loop at the default
//!   capacity, must cost at most 2% of the pool's per-event time — the
//!   stable figure;
//! * the pool with the recorder at its default capacity versus off
//!   must differ by at most 2% — the end-to-end A/B, whose order
//!   alternates between pairs because the second pass of a pair tends
//!   to read faster;
//! * the pool rate over the pre-PR per-event baseline.
//!
//! Results go to `BENCH_pipeline.json` at the repo root, written only
//! by a run that passes every gate.
//!
//! Run with `cargo bench -p hth-bench --bench pipeline`; `--test` runs
//! a tiny configuration as a smoke check (A/B bound 2×) and writes
//! nothing.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use harrier::SecpertEvent;
use hth_bench::json::Json;
use hth_core::{PolicyConfig, Secpert, Session, SessionConfig, Warning};
use hth_fleet::{AnalystPool, Backpressure, PoolConfig};
use hth_trace::FlightRecorder;

/// Pre-PR single-shard pipeline cost, measured on this machine at the
/// growth seed (commit `f59bff8`, before the batched shard path and
/// the single-CE fast match existed) with an identical harness: the
/// full Table 8 exploit corpus fanned into a one-shard pool, per-event
/// submit, queue 4096/Block, replicate 8, best of 3. Override with
/// `HTH_BASELINE_US_PER_EVENT` when re-baselining on other hardware.
const PRE_PR_US_PER_EVENT: f64 = 65.220;

/// Calls per round of the `FlightRecorder::record` loop.
const RECORD_CALLS: usize = 1_000_000;

/// Runs the exploit corpus once with inline analysis off, collecting
/// every event.
fn capture_corpus(scenario_cap: usize) -> Vec<SecpertEvent> {
    let events = Arc::new(Mutex::new(Vec::new()));
    for scenario in hth_workloads::exploits::scenarios().into_iter().take(scenario_cap) {
        let config =
            SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
        let mut session = Session::new(config).expect("policy loads");
        let begin = (scenario.setup)(&mut session);
        let sink = Arc::clone(&events);
        session.set_event_tap(Box::new(move |event| {
            sink.lock().expect("corpus sink").push(event.clone());
        }));
        let argv: Vec<&str> = begin.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            begin.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        session.start(begin.path, &argv, &env).expect("spawns");
        session.run().expect("runs");
    }
    Arc::try_unwrap(events)
        .unwrap_or_else(|_| unreachable!("sessions dropped"))
        .into_inner()
        .expect("corpus sink")
}

/// Fans `replicate` copies of the corpus, one session per copy, into a
/// fresh single-shard pool, one `submit` per event, and returns the
/// warnings and the submit-to-drain elapsed time.
fn pool_pass(
    corpus: &[SecpertEvent],
    replicate: usize,
    flight_capacity: usize,
) -> (u64, Vec<Warning>, Duration) {
    let config = PoolConfig {
        shards: 1,
        queue_capacity: 4096,
        backpressure: Backpressure::Block,
        flight_capacity,
        ..PoolConfig::default()
    };
    let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
    let start = Instant::now();
    for r in 0..replicate {
        for event in corpus {
            pool.submit(r as u64, event.clone());
        }
    }
    let report = pool.finish();
    let elapsed = start.elapsed();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    (report.events, report.warnings, elapsed)
}

/// The warnings of one expert fed `replicate` copies of the corpus in
/// order — what a single-shard pool must reproduce exactly.
fn expert_warnings(corpus: &[SecpertEvent], replicate: usize) -> Vec<Warning> {
    let mut expert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut warnings = Vec::new();
    for _ in 0..replicate {
        for event in corpus {
            warnings.extend(expert.process_event(event).expect("the standard policy"));
        }
    }
    warnings
}

/// The recorder's stable gate: the median ns per `FlightRecorder::record`
/// call at the default capacity, over 5 rounds of [`RECORD_CALLS`] calls
/// cycling through the corpus's events, must be at most 2% of the
/// pool's `pool_us` per event. Returns (ns per call, share in %).
fn record_gate(corpus: &[SecpertEvent], pool_us: f64) -> (f64, f64) {
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let recorder = FlightRecorder::new(PoolConfig::default().flight_capacity);
            let start = Instant::now();
            for (i, event) in corpus.iter().cycle().take(RECORD_CALLS).enumerate() {
                recorder.record(
                    black_box(i as u64),
                    event.time(),
                    "event",
                    event.syscall(),
                    event.resource_name(),
                );
            }
            let elapsed = start.elapsed();
            assert_eq!(black_box(recorder.recorded()), RECORD_CALLS as u64);
            elapsed.as_secs_f64() * 1e9 / RECORD_CALLS as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    let record_ns = rounds[rounds.len() / 2];
    let share_pct = record_ns / 1e3 / pool_us.max(1e-9) * 100.0;
    assert!(
        share_pct <= 2.0,
        "flight recorder record() at {record_ns:.1} ns is {share_pct:.3}% of \
         {pool_us:.3} us/event, over the 2% budget"
    );
    (record_ns, share_pct)
}

/// Best-of-3 pool elapsed with the recorder on (default capacity) and
/// off, alternating which side runs first in each pair.
fn flight_ab(corpus: &[SecpertEvent], replicate: usize) -> (Duration, Duration) {
    let flight_cap = PoolConfig::default().flight_capacity;
    let mut on = Duration::MAX;
    let mut off = Duration::MAX;
    for pair in 0..3 {
        if pair % 2 == 0 {
            on = on.min(pool_pass(corpus, replicate, flight_cap).2);
            off = off.min(pool_pass(corpus, replicate, 0).2);
        } else {
            off = off.min(pool_pass(corpus, replicate, 0).2);
            on = on.min(pool_pass(corpus, replicate, flight_cap).2);
        }
    }
    (on, off)
}

fn per_event_us(elapsed: Duration, events: u64) -> f64 {
    elapsed.as_secs_f64() * 1e6 / (events as f64).max(1.0)
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    let flight_cap = PoolConfig::default().flight_capacity;
    if test_mode {
        let corpus = capture_corpus(2);
        assert!(!corpus.is_empty(), "corpus capture produced no events");
        let (events, warnings, elapsed) = pool_pass(&corpus, 1, flight_cap);
        assert_eq!(events, corpus.len() as u64, "the pool must analyse every event");
        assert_eq!(
            warnings,
            expert_warnings(&corpus, 1),
            "the pool must warn exactly like one expert fed the same events in order"
        );
        record_gate(&corpus, per_event_us(elapsed, events));
        // The A/B, smoke edition: the corpus is tiny here, so the bound
        // is permissive (2x) — the <= 2% assertion runs in the full
        // bench.
        let (with_flight, without_flight) = flight_ab(&corpus, 1);
        assert!(
            with_flight <= without_flight * 2,
            "flight recorder smoke gate: on {with_flight:?} vs off {without_flight:?}"
        );
        println!("test pipeline ... ok");
        return;
    }

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let corpus = capture_corpus(usize::MAX);
    let corpus_events = corpus.len() as u64;
    println!("pipeline: corpus {corpus_events} events, {cpus} cpus");

    let replicate = 8;
    let (events, warnings, elapsed) = (0..3)
        .map(|_| pool_pass(&corpus, replicate, flight_cap))
        .min_by(|a, b| a.2.cmp(&b.2))
        .expect("three runs");
    assert_eq!(events, corpus_events * replicate as u64, "the pool must analyse every event");
    assert_eq!(
        warnings,
        expert_warnings(&corpus, replicate),
        "the pool must warn exactly like one expert fed the same events in order"
    );
    let pool_us = per_event_us(elapsed, events);
    let pool_eps = events as f64 / elapsed.as_secs_f64().max(1e-9);

    // The flight recorder is always on in the shipped configuration,
    // so its cost must disappear into the noise floor. The tight-loop
    // figure is the stable gate; the A/B below is the end-to-end check.
    let (record_ns, record_share_pct) = record_gate(&corpus, pool_us);
    let (flight_on, flight_off) = flight_ab(&corpus, replicate);
    let flight_on_us = per_event_us(flight_on, events);
    let flight_off_us = per_event_us(flight_off, events);
    let flight_overhead_pct = (flight_on_us - flight_off_us) / flight_off_us.max(1e-9) * 100.0;
    assert!(
        flight_overhead_pct <= 2.0,
        "flight recorder overhead {flight_overhead_pct:.3}% exceeds the 2% budget \
         (on {flight_on_us:.3} us/event vs off {flight_off_us:.3} us/event)"
    );

    let baseline_us = std::env::var("HTH_BASELINE_US_PER_EVENT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(PRE_PR_US_PER_EVENT);
    let baseline_eps = 1e6 / baseline_us;
    let speedup_vs_pre_pr = pool_eps / baseline_eps.max(1e-9);

    println!("pipeline/shard {pool_us:>8.3} us/event  ({pool_eps:>10.0} events/sec)");
    println!(
        "pipeline: flight recorder record() {record_ns:.1} ns/call, {record_share_pct:.3}% of \
         an event (budget 2%)"
    );
    println!(
        "pipeline: flight recorder A/B overhead {flight_overhead_pct:.3}%  \
         (on {flight_on_us:.3} vs off {flight_off_us:.3} us/event, budget 2%)"
    );
    println!(
        "pipeline: single-shard speedup over pre-PR pipeline \
         ({baseline_us:.3} us/event at seed): {speedup_vs_pre_pr:.2}x"
    );

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("pipeline".into())),
        ("cpus".into(), Json::Num(cpus as f64)),
        ("corpus_events".into(), Json::Num(corpus_events as f64)),
        (
            "single_shard".into(),
            Json::Obj(vec![
                ("events".into(), Json::Num(events as f64)),
                ("warnings".into(), Json::Num(warnings.len() as f64)),
                ("elapsed_ms".into(), Json::Num(elapsed.as_secs_f64() * 1e3)),
                ("us_per_event".into(), Json::Num(pool_us)),
                ("events_per_sec".into(), Json::Num(pool_eps)),
            ]),
        ),
        (
            "flight_recorder".into(),
            Json::Obj(vec![
                ("capacity".into(), Json::Num(flight_cap as f64)),
                ("record_ns".into(), Json::Num(record_ns)),
                ("record_share_pct".into(), Json::Num(record_share_pct)),
                ("on_us_per_event".into(), Json::Num(flight_on_us)),
                ("off_us_per_event".into(), Json::Num(flight_off_us)),
                ("overhead_pct".into(), Json::Num(flight_overhead_pct)),
                ("budget_pct".into(), Json::Num(2.0)),
            ]),
        ),
        (
            "pre_pr_baseline".into(),
            Json::Obj(vec![
                ("commit".into(), Json::Str("f59bff8".into())),
                ("us_per_event".into(), Json::Num(baseline_us)),
                ("events_per_sec".into(), Json::Num(baseline_eps)),
                (
                    "harness".into(),
                    Json::Str(
                        "same corpus, 1 shard, per-event submit, queue 4096/Block, \
                         replicate 8, best of 3"
                            .into(),
                    ),
                ),
            ]),
        ),
        ("speedup_vs_pre_pr".into(), Json::Num(speedup_vs_pre_pr)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_pipeline.json");
    println!("wrote {path}");
}
