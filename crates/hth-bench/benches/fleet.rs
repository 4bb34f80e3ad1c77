//! Fleet throughput bench: how analyst-pool event throughput scales
//! with shard count.
//!
//! The Table 8 exploit corpus is run once to capture its event streams;
//! the captured events are then fanned into an [`AnalystPool`] from
//! four producer threads at 1, 2 and 4 shards, measuring analysed
//! events per second. Results go to `BENCH_fleet.json` at the repo root
//! so the scaling trajectory is recorded run over run.
//!
//! Run with `cargo bench -p hth-bench --bench fleet`; `--test` runs a
//! single tiny configuration as a smoke check and writes nothing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use harrier::SecpertEvent;
use hth_bench::json::Json;
use hth_core::{PolicyConfig, Session, SessionConfig};
use hth_fleet::{AnalystPool, Backpressure, PoolConfig};

const PRODUCERS: usize = 4;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Runs the exploit corpus once, inline analysis off, collecting every
/// event the sessions emit.
fn capture_corpus(scenario_cap: usize) -> Vec<SecpertEvent> {
    let events = Arc::new(Mutex::new(Vec::new()));
    for scenario in hth_workloads::exploits::scenarios().into_iter().take(scenario_cap) {
        let config =
            SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
        let mut session = Session::new(config).expect("policy loads");
        let start = (scenario.setup)(&mut session);
        let sink = Arc::clone(&events);
        session.set_event_tap(Box::new(move |event| {
            sink.lock().expect("corpus sink").push(event.clone());
        }));
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        session.start(start.path, &argv, &env).expect("spawns");
        session.run().expect("runs");
    }
    Arc::try_unwrap(events)
        .unwrap_or_else(|_| unreachable!("sessions dropped"))
        .into_inner()
        .expect("corpus sink")
}

struct Measurement {
    shards: usize,
    events: u64,
    elapsed: Duration,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Fans `replicate` copies of the corpus per producer thread into a
/// fresh pool, each copy as its own session id so the Fibonacci shard
/// hash spreads the load; returns the drain-to-drain measurement.
fn measure(corpus: &Arc<Vec<SecpertEvent>>, shards: usize, replicate: usize) -> Measurement {
    let config = PoolConfig {
        shards,
        queue_capacity: 4096,
        backpressure: Backpressure::Block,
        ..PoolConfig::default()
    };
    let pool = Arc::new(AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads"));
    let start = Instant::now();
    let mut producers = Vec::with_capacity(PRODUCERS);
    for p in 0..PRODUCERS {
        let pool = Arc::clone(&pool);
        let corpus = Arc::clone(corpus);
        producers.push(std::thread::spawn(move || {
            for r in 0..replicate {
                let sid = (p * replicate + r) as u64;
                for event in corpus.iter() {
                    pool.submit(sid, event.clone());
                }
            }
        }));
    }
    for producer in producers {
        producer.join().expect("producer panicked");
    }
    let report =
        Arc::try_unwrap(pool).unwrap_or_else(|_| unreachable!("producers joined")).finish();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    Measurement { shards, events: report.events, elapsed: start.elapsed() }
}

/// Best of three runs — pool throughput, like any timing, is noisy and
/// the fastest run is the least-perturbed one.
fn best_of(corpus: &Arc<Vec<SecpertEvent>>, shards: usize, replicate: usize) -> Measurement {
    (0..3)
        .map(|_| measure(corpus, shards, replicate))
        .max_by(|a, b| a.events_per_sec().total_cmp(&b.events_per_sec()))
        .expect("three runs")
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    if test_mode {
        let corpus = Arc::new(capture_corpus(2));
        let m = measure(&corpus, 2, 1);
        assert_eq!(m.events, (corpus.len() * PRODUCERS) as u64);
        println!("test fleet_throughput ... ok");
        return;
    }

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let corpus = Arc::new(capture_corpus(usize::MAX));
    let replicate = 24;
    println!(
        "fleet_throughput: corpus {} events, {} producers x {} replays, {} cpus",
        corpus.len(),
        PRODUCERS,
        replicate,
        cpus
    );

    let mut rows = Vec::new();
    for shards in SHARD_COUNTS {
        let m = best_of(&corpus, shards, replicate);
        println!(
            "fleet_throughput/shards={:<2} {:>9} events in {:>8.2?}  ({:>10.0} events/sec)",
            m.shards,
            m.events,
            m.elapsed,
            m.events_per_sec()
        );
        rows.push(m);
    }
    let speedup_2 = rows[1].events_per_sec() / rows[0].events_per_sec();
    let speedup = rows[rows.len() - 1].events_per_sec() / rows[0].events_per_sec();
    println!("fleet_throughput: 2-shard speedup over 1 shard: {speedup_2:.2}x");
    println!("fleet_throughput: 4-shard speedup over 1 shard: {speedup:.2}x");
    if cpus < SHARD_COUNTS[SHARD_COUNTS.len() - 1] {
        println!(
            "fleet_throughput: NOTE {cpus} cpu(s) available — shard scaling is \
             parallelism-bound; rerun on >= 4 cores for the full curve"
        );
    }

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("fleet_throughput".into())),
        ("cpus".into(), Json::Num(cpus as f64)),
        ("corpus_events".into(), Json::Num(corpus.len() as f64)),
        ("producers".into(), Json::Num(PRODUCERS as f64)),
        ("replays_per_producer".into(), Json::Num(replicate as f64)),
        (
            "shards".into(),
            Json::Arr(
                rows.iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("shards".into(), Json::Num(m.shards as f64)),
                            ("events".into(), Json::Num(m.events as f64)),
                            ("elapsed_ms".into(), Json::Num(m.elapsed.as_secs_f64() * 1e3)),
                            ("events_per_sec".into(), Json::Num(m.events_per_sec())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("speedup_2_shards_vs_1".into(), Json::Num(speedup_2)),
        ("speedup_4_shards_vs_1".into(), Json::Num(speedup)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_fleet.json");
    println!("wrote {path}");
}
