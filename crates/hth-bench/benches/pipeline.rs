//! Batched-pipeline bench: the batched-vs-per-event shard throughput
//! that justifies the batch path, and the flight recorder's cost.
//!
//! The Table 8 exploit corpus is captured once and fanned into a fresh
//! single-shard pool per run:
//!
//! * the default batch size versus `batch_size=1` (the pre-batching
//!   per-event path, preserved verbatim); both runs must produce the
//!   same warning count;
//! * the flight recorder at its default capacity versus off, which
//!   must cost at most 2%;
//! * the batched rate over the pre-PR per-event baseline.
//!
//! Results go to `BENCH_pipeline.json` at the repo root.
//!
//! Run with `cargo bench -p hth-bench --bench pipeline`; `--test` runs
//! a tiny configuration as a smoke check and writes nothing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use harrier::SecpertEvent;
use hth_bench::json::Json;
use hth_core::{PolicyConfig, Session, SessionConfig};
use hth_fleet::{AnalystPool, Backpressure, PoolConfig};

const DEFAULT_BATCH: usize = 64;

/// Pre-PR single-shard pipeline cost, measured on this machine at the
/// growth seed (commit `f59bff8`, before the batched shard path and
/// the single-CE fast match existed) with an identical harness: the
/// full Table 8 exploit corpus fanned into a one-shard pool, per-event
/// submit, queue 4096/Block, replicate 8, best of 3. Override with
/// `HTH_BASELINE_US_PER_EVENT` when re-baselining on other hardware.
const PRE_PR_US_PER_EVENT: f64 = 65.220;

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

/// Fans `replicate` copies of the corpus into a fresh single-shard
/// pool at the given batch size (batch 1 submits per event — the
/// pre-batching path) and returns (events analysed, warning count,
/// drain-to-drain elapsed).
fn pool_pass(
    corpus: &Arc<Vec<SecpertEvent>>,
    batch_size: usize,
    replicate: usize,
    flight_capacity: usize,
) -> (u64, usize, Duration) {
    let config = PoolConfig {
        shards: 1,
        queue_capacity: 4096,
        backpressure: Backpressure::Block,
        batch_size,
        flight_capacity,
        ..PoolConfig::default()
    };
    let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
    let start = Instant::now();
    let mut buffer: Vec<SecpertEvent> = Vec::with_capacity(batch_size);
    for r in 0..replicate {
        let sid = r as u64;
        if batch_size <= 1 {
            for event in corpus.iter() {
                pool.submit(sid, event.clone());
            }
        } else {
            for run in corpus.chunks(batch_size) {
                buffer.extend(run.iter().cloned());
                pool.submit_batch(sid, &mut buffer);
            }
        }
    }
    let report = pool.finish();
    let elapsed = start.elapsed();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    (report.events, report.warnings.len(), elapsed)
}

fn per_event_us(elapsed: Duration, events: u64) -> f64 {
    elapsed.as_secs_f64() * 1e6 / (events as f64).max(1.0)
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    if test_mode {
        let corpus = capture_corpus(2);
        assert!(!corpus.is_empty(), "corpus capture produced no events");
        let shared = Arc::new(corpus);
        let flight_cap = PoolConfig::default().flight_capacity;
        let (batched_events, batched_warnings, _) =
            pool_pass(&shared, DEFAULT_BATCH, 1, flight_cap);
        let (serial_events, serial_warnings, _) = pool_pass(&shared, 1, 1, flight_cap);
        assert_eq!(batched_events, serial_events, "batched pool must analyse every event");
        assert_eq!(
            batched_warnings, serial_warnings,
            "batched pool must warn exactly like the per-event pool"
        );
        // Flight-recorder overhead gate, smoke edition: the corpus is
        // tiny here, so the bound is permissive (2x) — the real <= 2%
        // assertion runs in the full bench. Interleaved best-of-3
        // minimums keep a scheduler hiccup from failing the smoke.
        let mut with_flight = Duration::MAX;
        let mut without_flight = Duration::MAX;
        for _ in 0..3 {
            with_flight = with_flight.min(pool_pass(&shared, DEFAULT_BATCH, 1, flight_cap).2);
            without_flight = without_flight.min(pool_pass(&shared, DEFAULT_BATCH, 1, 0).2);
        }
        assert!(
            with_flight <= without_flight * 2,
            "flight recorder smoke gate: on {with_flight:?} vs off {without_flight:?}"
        );
        println!("test pipeline ... ok");
        return;
    }

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let corpus = Arc::new(capture_corpus(usize::MAX));
    let events = corpus.len() as u64;
    println!("pipeline: corpus {events} events, batch {DEFAULT_BATCH}, {cpus} cpus");

    // The headline batched-vs-serial throughput.
    let replicate = 8;
    let flight_cap = PoolConfig::default().flight_capacity;
    let (batched_events, batched_warnings, batched_elapsed) = (0..3)
        .map(|_| pool_pass(&corpus, DEFAULT_BATCH, replicate, flight_cap))
        .min_by(|a, b| a.2.cmp(&b.2))
        .expect("three runs");
    let (serial_events, serial_warnings, serial_elapsed) = (0..3)
        .map(|_| pool_pass(&corpus, 1, replicate, flight_cap))
        .min_by(|a, b| a.2.cmp(&b.2))
        .expect("three runs");
    assert_eq!(batched_events, serial_events);
    assert_eq!(
        batched_warnings, serial_warnings,
        "batched pool must warn exactly like the per-event pool"
    );

    // Flight-recorder overhead: the recorder is always on in the
    // shipped configuration, so its cost must disappear into the noise
    // floor. Interleaved best-of-3 pairs (on, off, on, off, ...) keep
    // slow machine-wide perturbations from landing on only one side.
    let mut flight_on = Duration::MAX;
    let mut flight_off = Duration::MAX;
    for _ in 0..3 {
        flight_on = flight_on.min(pool_pass(&corpus, DEFAULT_BATCH, replicate, flight_cap).2);
        flight_off = flight_off.min(pool_pass(&corpus, DEFAULT_BATCH, replicate, 0).2);
    }
    let flight_on_us = per_event_us(flight_on, batched_events);
    let flight_off_us = per_event_us(flight_off, batched_events);
    let flight_overhead_pct = (flight_on_us - flight_off_us) / flight_off_us.max(1e-9) * 100.0;
    assert!(
        flight_overhead_pct <= 2.0,
        "flight recorder overhead {flight_overhead_pct:.3}% exceeds the 2% budget \
         (on {flight_on_us:.3} us/event vs off {flight_off_us:.3} us/event)"
    );

    let batched_us = per_event_us(batched_elapsed, batched_events);
    let serial_us = per_event_us(serial_elapsed, serial_events);
    let batched_eps = batched_events as f64 / batched_elapsed.as_secs_f64().max(1e-9);
    let serial_eps = serial_events as f64 / serial_elapsed.as_secs_f64().max(1e-9);
    let speedup = batched_eps / serial_eps.max(1e-9);
    let baseline_us = std::env::var("HTH_BASELINE_US_PER_EVENT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(PRE_PR_US_PER_EVENT);
    let baseline_eps = 1e6 / baseline_us;
    let speedup_vs_pre_pr = batched_eps / baseline_eps.max(1e-9);

    println!(
        "pipeline/shard batch={DEFAULT_BATCH:<3} {batched_us:>8.3} us/event  ({batched_eps:>10.0} events/sec)"
    );
    println!("pipeline/shard batch=1   {serial_us:>8.3} us/event  ({serial_eps:>10.0} events/sec)");
    println!("pipeline: batched single-shard speedup over per-event: {speedup:.2}x");
    println!(
        "pipeline: flight recorder overhead {flight_overhead_pct:.3}%  \
         (on {flight_on_us:.3} vs off {flight_off_us:.3} us/event, budget 2%)"
    );
    println!(
        "pipeline: batched single-shard speedup over pre-PR pipeline \
         ({baseline_us:.3} us/event at seed): {speedup_vs_pre_pr:.2}x"
    );

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("pipeline".into())),
        ("cpus".into(), Json::Num(cpus as f64)),
        ("corpus_events".into(), Json::Num(events as f64)),
        ("batch_size".into(), Json::Num(DEFAULT_BATCH as f64)),
        (
            "single_shard".into(),
            Json::Obj(vec![
                (
                    "batched".into(),
                    Json::Obj(vec![
                        ("batch_size".into(), Json::Num(DEFAULT_BATCH as f64)),
                        ("events".into(), Json::Num(batched_events as f64)),
                        ("warnings".into(), Json::Num(batched_warnings as f64)),
                        ("elapsed_ms".into(), Json::Num(batched_elapsed.as_secs_f64() * 1e3)),
                        ("us_per_event".into(), Json::Num(batched_us)),
                        ("events_per_sec".into(), Json::Num(batched_eps)),
                    ]),
                ),
                (
                    "per_event".into(),
                    Json::Obj(vec![
                        ("batch_size".into(), Json::Num(1.0)),
                        ("events".into(), Json::Num(serial_events as f64)),
                        ("warnings".into(), Json::Num(serial_warnings as f64)),
                        ("elapsed_ms".into(), Json::Num(serial_elapsed.as_secs_f64() * 1e3)),
                        ("us_per_event".into(), Json::Num(serial_us)),
                        ("events_per_sec".into(), Json::Num(serial_eps)),
                    ]),
                ),
            ]),
        ),
        ("speedup_batched_vs_per_event".into(), Json::Num(speedup)),
        (
            "flight_recorder".into(),
            Json::Obj(vec![
                ("capacity".into(), Json::Num(flight_cap as f64)),
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
        ("speedup_batched_vs_pre_pr".into(), Json::Num(speedup_vs_pre_pr)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_pipeline.json");
    println!("wrote {path}");
}
