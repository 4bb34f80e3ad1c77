//! Serve-path bench: end-to-end daemon throughput and ack latency over
//! loopback, with and without an eviction-forcing memory budget.
//!
//! Each configuration binds a fresh in-process [`Server`] on an
//! ephemeral port, drives it with the `hth load` engine ([`run_load`]:
//! one connection, round-robin submits across sessions, every ack
//! timed), then drains the daemon to collect its lifecycle counters.
//! Results go to `BENCH_serve.json` at the repo root — events/sec, p50
//! and p99 ack latency, and the resident-session high-water mark per
//! row — so serve-path regressions show up run over run. Beside the
//! rows it records what a session open and an eviction revive cost
//! in-process (`open_us`: mean `SessionTable::open`; `restore_us`: mean
//! `Secpert::restore` of a grown engine's snapshot) and
//! `eviction_slowdown_32`, `resident_32` events/sec over `evicting_32`
//! events/sec.
//!
//! Run with `cargo bench -p hth-bench --bench serve`; `--test` runs one
//! tiny configuration as a smoke check and writes nothing.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hth_bench::json::Json;
use hth_core::Secpert;
use hth_serve::{run_load, ServeConfig, Server, SessionTable, TableConfig};

/// One bench row: a daemon with this budget, driven at this load.
struct Config {
    label: &'static str,
    sessions: u64,
    events_per_session: u64,
    budget_bytes: usize,
}

struct Measurement {
    label: &'static str,
    sessions: u64,
    events: u64,
    elapsed: Duration,
    p50_us: u64,
    p99_us: u64,
    resident_high_water: u64,
    evictions: u64,
    restores: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// An expert that has processed `events` synthetic events. Eviction
/// budgets are sized from one: a fresh engine's accounted bytes are
/// dominated by working-memory and token state that only exists once
/// events have flowed.
fn grown_engine(events: usize) -> Secpert {
    let mut probe = Secpert::new(&TableConfig::default().policy).expect("policy loads");
    for event in hth_serve::synthetic_events(0, events) {
        probe.process_event(&event).expect("probe event");
    }
    probe
}

/// Mean `SessionTable::open` over `opens` new sessions of one table, us.
fn open_us(opens: u64) -> f64 {
    let table = SessionTable::new(TableConfig::default());
    table.open(0).expect("warm-up open");
    let started = Instant::now();
    for sid in 1..=opens {
        table.open(sid).expect("open");
    }
    started.elapsed().as_secs_f64() * 1e6 / opens as f64
}

/// Mean `Secpert::restore` of the snapshot of an engine grown by
/// `events` events, over `restores` restores, us.
fn restore_us(events: usize, restores: u32) -> f64 {
    let policy = TableConfig::default().policy;
    let snapshot = grown_engine(events).snapshot().expect("quiescent engine");
    Secpert::restore(&policy, &snapshot).expect("warm-up restore");
    let started = Instant::now();
    for _ in 0..restores {
        black_box(Secpert::restore(&policy, &snapshot).expect("restore"));
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(restores)
}

/// Binds a daemon, runs the load engine against it, drains it, and
/// folds both sides into one measurement.
fn measure(config: &Config) -> Measurement {
    let table = TableConfig { budget_bytes: config.budget_bytes, ..TableConfig::default() };
    let server =
        Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), table, ..ServeConfig::default() })
            .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let report = run_load(addr, config.sessions, config.events_per_session).expect("load run");
    handle.shutdown();
    let summary = join.join().expect("server thread");

    Measurement {
        label: config.label,
        sessions: config.sessions,
        events: report.events,
        elapsed: report.elapsed,
        p50_us: report.ack_latency_us.quantile(0.5),
        p99_us: report.ack_latency_us.quantile(0.99),
        resident_high_water: summary.resident_high_water,
        evictions: summary.stats.evictions,
        restores: summary.stats.restores,
    }
}

/// Best of three runs — loopback round-trip timing is noisy and the
/// fastest run is the least-perturbed one.
fn best_of(config: &Config) -> Measurement {
    (0..3)
        .map(|_| measure(config))
        .max_by(|a, b| a.events_per_sec().total_cmp(&b.events_per_sec()))
        .expect("three runs")
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    if test_mode {
        let m = measure(&Config {
            label: "smoke",
            sessions: 2,
            events_per_session: 10,
            budget_bytes: TableConfig::default().budget_bytes,
        });
        assert_eq!(m.events, 20);
        assert!(m.resident_high_water >= 2);
        assert!(open_us(4) > 0.0 && restore_us(8, 4) > 0.0);
        println!("test serve_throughput ... ok");
        return;
    }

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let unbudgeted = TableConfig::default().budget_bytes;
    // A budget worth ~4 grown engines forces the 32-session row to
    // churn: most submits hit an evicted session and pay the
    // snapshot-restore revive on the serve path.
    let churn_budget = grown_engine(64).approx_bytes() * 4;
    let configs = [
        Config {
            label: "resident_8",
            sessions: 8,
            events_per_session: 64,
            budget_bytes: unbudgeted,
        },
        Config {
            label: "resident_32",
            sessions: 32,
            events_per_session: 64,
            budget_bytes: unbudgeted,
        },
        Config {
            label: "evicting_32",
            sessions: 32,
            events_per_session: 64,
            budget_bytes: churn_budget,
        },
    ];
    println!("serve_throughput: {} cpus, churn budget {} bytes", cpus, churn_budget);

    let mut rows = Vec::new();
    for config in &configs {
        let m = best_of(config);
        println!(
            "serve_throughput/{:<12} {:>6} events in {:>8.2?}  ({:>8.0} events/sec, \
             ack p50 <= {}us p99 <= {}us, high-water {} resident, {} evictions)",
            m.label,
            m.events,
            m.elapsed,
            m.events_per_sec(),
            m.p50_us,
            m.p99_us,
            m.resident_high_water,
            m.evictions,
        );
        rows.push(m);
    }
    let open_us = open_us(256);
    let restore_us = restore_us(64, 256);
    let rate =
        |label: &str| rows.iter().find(|m| m.label == label).map(Measurement::events_per_sec);
    let slowdown = rate("resident_32").expect("resident row") / rate("evicting_32").expect("row");
    println!(
        "serve_throughput: open {open_us:.1}us, restore {restore_us:.1}us, \
         resident_32/evicting_32 events/sec {slowdown:.2}x"
    );

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("serve_throughput".into())),
        ("cpus".into(), Json::Num(cpus as f64)),
        ("churn_budget_bytes".into(), Json::Num(churn_budget as f64)),
        ("open_us".into(), Json::Num(open_us)),
        ("restore_us".into(), Json::Num(restore_us)),
        ("eviction_slowdown_32".into(), Json::Num(slowdown)),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(m.label.into())),
                            ("sessions".into(), Json::Num(m.sessions as f64)),
                            ("events".into(), Json::Num(m.events as f64)),
                            ("elapsed_ms".into(), Json::Num(m.elapsed.as_secs_f64() * 1e3)),
                            ("events_per_sec".into(), Json::Num(m.events_per_sec())),
                            ("ack_p50_us".into(), Json::Num(m.p50_us as f64)),
                            ("ack_p99_us".into(), Json::Num(m.p99_us as f64)),
                            ("resident_high_water".into(), Json::Num(m.resident_high_water as f64)),
                            ("evictions".into(), Json::Num(m.evictions as f64)),
                            ("restores".into(), Json::Num(m.restores as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json.to_string_pretty() + "\n").expect("write BENCH_serve.json");
    println!("wrote {path}");
}
