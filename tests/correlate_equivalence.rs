//! Cross-session correlation equivalence: the fleet correlator's
//! verdict is a pure function of *what the sessions did*, not of how
//! their digests travelled.
//!
//! The reference is the sequential baseline: run each session of the
//! coordinated campaign ([`hth::hth_workloads::coordinated`]) inline,
//! digest it with [`digest_session`], feed the digests to one
//! [`Correlator`]. Every other leg must reproduce that
//! [`CorrelationReport`] *in full* — warnings, provenance, transcript,
//! and the rendered fleet causal trees — byte for byte:
//!
//! * the batch fleet: [`run_scenarios`] over shard counts {1, 2, 4},
//!   digests built shard-side and shipped over the digest wire codec;
//! * journal replay: every session recorded to an event journal,
//!   decoded back, re-analysed offline with [`replay`], re-digested;
//! * the serve daemon: sessions submitted event-at-a-time into a
//!   [`SessionTable`] — with the default budget and with `budget 0`
//!   (every session evicted and revived around every request) — and
//!   over real loopback TCP through the framed protocol;
//! * a property soak mixing transports, shard counts and worker counts
//!   (`PROPTEST_CASES` scales it up in CI).

use std::sync::{Arc, Mutex, OnceLock};

use hth::harrier::SecpertEvent;
use hth::hth_core::{digest_session, CorrelateConfig, CorrelationReport, Correlator};
use hth::hth_fleet::{replay, FleetConfig, JournalReader, JournalWriter};
use hth::hth_workloads::coordinated;
use hth::{PolicyConfig, Secpert, Session, SessionConfig};
use hth_serve::{Client, ServeConfig, Server, SessionTable, TableConfig};
use proptest::prelude::*;

/// The campaign, with the session ids the fleet would assign: scenario
/// index order.
fn campaign_ids() -> Vec<(u64, String)> {
    coordinated::scenarios().iter().enumerate().map(|(i, s)| (i as u64, s.id.to_string())).collect()
}

/// Records one scenario's raw event stream through the session tap
/// (no inline analysis) — the same stream the fleet's shards and the
/// serve daemon see.
fn record(scenario: &hth::hth_workloads::Scenario) -> Vec<SecpertEvent> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let config =
        SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
    let mut session = Session::new(config).expect("policy loads");
    let start = (scenario.setup)(&mut session);
    let sink = Arc::clone(&events);
    session.set_event_tap(Box::new(move |event| {
        sink.lock().expect("event sink").push(event.clone());
    }));
    let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(start.path, &argv, &env).expect("spawns");
    session.run().expect("runs");
    drop(session);
    Arc::try_unwrap(events)
        .unwrap_or_else(|_| unreachable!("tap dropped with the session"))
        .into_inner()
        .expect("event sink")
}

/// The recorded campaign streams, captured once — VM sessions are the
/// slow part of the suite.
fn corpus() -> &'static Vec<(u64, String, Vec<SecpertEvent>)> {
    static CORPUS: OnceLock<Vec<(u64, String, Vec<SecpertEvent>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        coordinated::scenarios()
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s.id.to_string(), record(s)))
            .collect()
    })
}

/// The sequential reference: inline sessions, one digest each, one
/// correlation pass.
fn baseline() -> &'static CorrelationReport {
    static BASELINE: OnceLock<CorrelationReport> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for (i, scenario) in coordinated::scenarios().iter().enumerate() {
            let mut session = Session::new(SessionConfig::default()).expect("policy loads");
            let start = (scenario.setup)(&mut session);
            let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
            let env: Vec<(&str, &str)> =
                start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            session.start(start.path, &argv, &env).expect("spawns");
            session.run().expect("runs");
            correlator.ingest(digest_session(
                i as u64,
                scenario.id,
                session.events(),
                session.warnings(),
            ));
        }
        correlator.correlate().expect("correlator policy loads")
    })
}

/// Asserts a leg reproduced the baseline report in full, including the
/// rendered fleet trees (provenance is part of `PartialEq`, but the
/// rendering is the user-visible surface `hth explain` prints, so pin
/// it explicitly).
fn assert_matches_baseline(leg: &str, report: &CorrelationReport) {
    let reference = baseline();
    assert_eq!(report, reference, "{leg}: correlation report diverged");
    assert_eq!(
        report.render_trees(),
        reference.render_trees(),
        "{leg}: rendered fleet trees diverged"
    );
    assert_eq!(report.render(), reference.render(), "{leg}: summary rendering diverged");
}

/// One batch-fleet run of the campaign with the correlator on.
fn fleet_leg(shards: usize, workers: usize) -> CorrelationReport {
    let mut config = FleetConfig::default();
    config.pool.shards = shards;
    config.workers = workers;
    config.correlate = Some(CorrelateConfig::default());
    let report =
        hth::hth_fleet::run_scenarios(coordinated::scenarios(), &config).expect("fleet runs");
    assert_eq!(report.session_errors, Vec::<String>::new());
    assert_eq!(report.analyst_errors, Vec::<String>::new());
    report.correlation.expect("correlate was configured")
}

/// Re-analyses the recorded corpus through the journal path: encode to
/// a journal, decode the events back, replay them into a fresh engine
/// for the warnings, digest, correlate.
fn journal_leg() -> CorrelationReport {
    let mut correlator = Correlator::new(CorrelateConfig::default());
    for (sid, label, events) in corpus() {
        let mut writer = JournalWriter::new(Vec::new()).expect("journal header");
        for event in events {
            writer.append(event).expect("journal append");
        }
        let bytes = writer.finish().expect("journal finish");

        let reader = JournalReader::new(std::io::Cursor::new(bytes.clone())).expect("header");
        let decoded: Vec<SecpertEvent> =
            reader.map(|r| r.expect("clean journal decodes")).collect();
        assert_eq!(&decoded, events, "journal round-trip must be lossless");

        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
        let reader = JournalReader::new(std::io::Cursor::new(bytes)).expect("header");
        let warnings = replay(reader, &mut secpert).expect("replay");
        correlator.ingest(digest_session(*sid, label, &decoded, &warnings));
    }
    correlator.correlate().expect("correlator policy loads")
}

/// Feeds the recorded corpus into a serve session table event by
/// event. Odd sessions are closed (retired digests), even ones stay
/// open (live snapshots) — `SessionTable::correlate` must merge both,
/// and it round-trips the digests through the wire codec on the way.
fn serve_leg(budget_bytes: usize) -> CorrelationReport {
    let table = SessionTable::new(TableConfig { budget_bytes, ..TableConfig::default() });
    for (sid, label, events) in corpus() {
        table.open(*sid).expect("open");
        table.set_label(*sid, label).expect("label");
        for event in events {
            table.submit(*sid, event).expect("submit");
        }
        if sid % 2 == 1 {
            table.close(*sid).expect("close");
        }
    }
    table.correlate(&CorrelateConfig::default()).expect("correlate")
}

/// The headline matrix: every shard count reproduces the sequential
/// baseline, and the baseline itself carries the
/// cross-session causal evidence the campaign was built to surface.
#[test]
fn fleet_matrix_matches_sequential_baseline() {
    let reference = baseline();
    assert_eq!(reference.sessions, 12);
    let rules: std::collections::BTreeSet<&str> =
        reference.warnings.iter().map(|w| w.rule.as_str()).collect();
    assert_eq!(
        rules,
        ["distributed_exfil", "recurring_dropper", "shared_c2"].into_iter().collect(),
        "{}",
        reference.render()
    );
    // The acceptance bar: at least one fleet warning whose causal tree
    // spans >= 3 sessions.
    let c2 = reference.warnings.iter().find(|w| w.rule == "shared_c2").expect("shared_c2");
    let provenance = c2.provenance.as_ref().expect("fleet provenance");
    assert!(
        provenance.taint_sources.len() >= 3,
        "shared_c2 tree must span >= 3 sessions: {:?}",
        provenance.taint_sources
    );
    assert_eq!(provenance.syscall, "digest-stream");

    for shards in [1usize, 2, 4] {
        assert_matches_baseline(&format!("fleet shards={shards}"), &fleet_leg(shards, 4));
    }
}

#[test]
fn journal_replay_matches_sequential_baseline() {
    assert_matches_baseline("journal replay", &journal_leg());
}

#[test]
fn serve_table_matches_sequential_baseline() {
    assert_matches_baseline(
        "serve (default budget)",
        &serve_leg(TableConfig::default().budget_bytes),
    );
    // Budget 0 evicts every session after every request: the digest
    // stream must not notice the churn.
    assert_matches_baseline("serve (budget 0, full churn)", &serve_leg(0));
}

/// The full daemon over loopback TCP: framed protocol, label requests,
/// drain summary.
#[test]
fn serve_daemon_matches_sequential_baseline() {
    let table =
        TableConfig { correlate: Some(CorrelateConfig::default()), ..TableConfig::default() };
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, table };
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr).expect("connect");
    for (sid, label, events) in corpus() {
        client.open(*sid).expect("open");
        client.label(*sid, label).expect("label");
        for event in events {
            client.submit(*sid, event).expect("submit");
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.correlator_warnings,
        baseline().warnings.len() as u64,
        "live stats must already see the fleet warnings"
    );
    client.shutdown().expect("shutdown");
    let summary = join.join().expect("server thread");
    let report = summary.correlation.expect("correlate was configured");
    assert_matches_baseline("serve daemon (TCP)", &report);
}

/// The golden anchor: the campaign's full fleet-level verdict — the
/// one-line-per-warning summary *and* every cross-session causal tree,
/// exactly as `hth fleet --correlate` and fleet-level `hth explain`
/// print them — pinned byte-for-byte. Any change to digest extraction,
/// aggregate grouping, the correlator rules, or provenance rendering
/// shows up here as a readable diff. Regenerate intentionally with
/// `UPDATE_GOLDEN=1 cargo test --test correlate_equivalence golden`.
#[test]
fn fleet_correlation_matches_golden_snapshot() {
    let report = fleet_leg(4, 4);
    let rendered = format!("{}\n{}", report.render(), report.render_trees());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/correlate.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("golden path writable");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden snapshot missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        golden, rendered,
        "fleet correlation diverged from tests/golden/correlate.txt; \
         if the change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Which transport a soak case exercises.
#[derive(Clone, Debug)]
enum Leg {
    Fleet { shards: usize, workers: usize },
    Journal,
    Serve { budget_bytes: usize },
}

fn leg_strategy() -> impl Strategy<Value = Leg> {
    const BUDGETS: [usize; 3] = [0, 1 << 14, 64 << 20];
    prop_oneof![
        (1usize..=4, 1usize..=4).prop_map(|(shards, workers)| Leg::Fleet { shards, workers }),
        Just(Leg::Journal),
        (0usize..BUDGETS.len()).prop_map(|b| Leg::Serve { budget_bytes: BUDGETS[b] }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transport invariance soak: any transport, any sharding, any
    /// worker count — one report. `PROPTEST_CASES=500` is the CI setting.
    #[test]
    fn correlator_is_transport_invariant(leg in leg_strategy()) {
        let report = match &leg {
            Leg::Fleet { shards, workers } => fleet_leg(*shards, *workers),
            Leg::Journal => journal_leg(),
            Leg::Serve { budget_bytes } => serve_leg(*budget_bytes),
        };
        assert_matches_baseline(&format!("{leg:?}"), &report);
    }

    /// Digest ingest order never matters: any permutation of the
    /// baseline digests correlates to the baseline report.
    #[test]
    fn ingest_order_is_irrelevant(seed in 0u64..1 << 48) {
        let mut ids = campaign_ids();
        // Deterministic Fisher-Yates from the seed (the shim has no
        // shuffle strategy).
        let mut state = seed | 1;
        for i in (1..ids.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ids.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for (sid, _label) in &ids {
            let (_, label, events) = &corpus()[*sid as usize];
            let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
            let mut writer = JournalWriter::new(Vec::new()).expect("journal header");
            for event in events {
                writer.append(event).expect("journal append");
            }
            let bytes = writer.finish().expect("journal finish");
            let reader = JournalReader::new(std::io::Cursor::new(bytes)).expect("header");
            let warnings = replay(reader, &mut secpert).expect("replay");
            correlator.ingest(digest_session(*sid, label, events, &warnings));
        }
        assert_matches_baseline(&format!("permutation seed={seed}"), &correlator.correlate().expect("correlate"));
    }
}
