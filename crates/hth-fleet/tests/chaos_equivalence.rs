//! The chaos acceptance property: a fault-injected fleet loses *only*
//! what its counters say it lost. For ten fixed seeds, the same
//! recorded event streams go through a supervised pool under a
//! [`FaultPlan`]; the survivor warning multiset must be a sub-multiset
//! of the fault-free baseline, and the difference must be *exactly* the
//! warnings of the events the counters report lost (quarantined by a
//! panic, or discarded by a degraded shard). No silent loss, no
//! invented warnings.
//!
//! This leans on a property the policy guarantees by construction: the
//! Secpert is stateless per event (cleanup rules retract each event's
//! facts), so a fresh engine replaying a lost event yields the same
//! warnings the baseline produced for it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use harrier::SecpertEvent;
use hth_core::{PolicyConfig, Secpert, Session, SessionConfig, Warning};
use hth_fleet::{warning_multiset, AnalystPool, FaultPlan, PoolConfig};
use hth_workloads::Scenario;

const SEEDS: [u64; 10] = [1, 2, 3, 5, 7, 11, 13, 42, 1009, 0xDEAD_BEEF];

fn workload() -> Vec<Scenario> {
    let mut scenarios = hth_workloads::exploits::scenarios();
    scenarios.extend(
        hth_workloads::macro_bench::scenarios()
            .into_iter()
            .filter(|s| s.id == "ttt" || s.id == "ttt_trojaned"),
    );
    scenarios
}

/// Runs one scenario inline (the fault-free sequential baseline),
/// recording its event stream through the session tap.
fn record(scenario: &Scenario) -> (Vec<Warning>, Vec<SecpertEvent>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let mut session = Session::new(SessionConfig::default()).expect("policy loads");
    let start = (scenario.setup)(&mut session);
    let sink = Arc::clone(&events);
    session.set_event_tap(Box::new(move |event| {
        sink.lock().expect("event sink").push(event.clone());
    }));
    let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(start.path, &argv, &env).expect("spawns");
    session.run().expect("runs");
    let warnings = session.warnings().to_vec();
    drop(session);
    let events = Arc::try_unwrap(events)
        .unwrap_or_else(|_| unreachable!("tap dropped with the session"))
        .into_inner()
        .expect("event sink");
    (warnings, events)
}

/// `a - b` over warning multisets; panics if `b ⊄ a`.
fn multiset_sub(
    a: &BTreeMap<(hth_core::Severity, String), usize>,
    b: &BTreeMap<(hth_core::Severity, String), usize>,
) -> BTreeMap<(hth_core::Severity, String), usize> {
    let mut out = a.clone();
    for (key, count) in b {
        let have = out.get_mut(key).unwrap_or_else(|| {
            panic!("survivors contain warnings the baseline never produced: {key:?}")
        });
        assert!(*have >= *count, "survivor count exceeds baseline for {key:?}");
        *have -= count;
        if *have == 0 {
            out.remove(key);
        }
    }
    out
}

#[test]
fn chaos_fleet_loses_exactly_what_the_counters_say() {
    let scenarios = workload();
    let mut baseline_warnings = Vec::new();
    let mut streams = Vec::new();
    for scenario in &scenarios {
        let (warnings, events) = record(scenario);
        baseline_warnings.extend(warnings);
        streams.push(events);
    }
    let baseline = warning_multiset(&baseline_warnings);
    assert!(!baseline.is_empty(), "the corpus must warn");

    for seed in SEEDS {
        // Rate faults from the seed plus one guaranteed panic per shard,
        // so every seed exercises the quarantine path deterministically.
        let mut plan = FaultPlan::from_seed(seed);
        for shard in 0..4 {
            plan = plan.panic_on(shard, 2 + seed % 3);
        }
        let config = PoolConfig {
            shards: 4,
            max_respawns: (seed % 3) as u32, // 0..=2: some seeds degrade
            faults: Some(Arc::new(plan)),
            keep_lost_events: true,
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
        for (sid, stream) in streams.iter().enumerate() {
            for event in stream {
                pool.submit(sid as u64, event.clone());
            }
        }
        let report = pool.finish();

        // Counter totality: every submitted event is analysed or in
        // exactly one loss bucket, per shard and in aggregate.
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(
                shard.submitted,
                shard.events + shard.lost(),
                "seed {seed} shard {i}: submitted != analysed + lost"
            );
        }
        assert_eq!(report.submitted, streams.iter().map(|s| s.len() as u64).sum::<u64>());
        assert!(report.quarantined > 0, "seed {seed}: the guaranteed panics must fire");
        assert_eq!(
            report.lost_events.len() as u64,
            report.lost(),
            "seed {seed}: every lost event is captured"
        );
        assert_eq!(
            report.quarantine_log.len() as u64,
            report.quarantined,
            "seed {seed}: every quarantine is logged"
        );

        // Survivors ⊆ baseline, and the missing part is exactly the
        // warnings of the lost events.
        let survivors = warning_multiset(&report.warnings);
        let missing = multiset_sub(&baseline, &survivors);
        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
        let mut lost_warnings = Vec::new();
        for (_session, event) in &report.lost_events {
            lost_warnings.extend(secpert.process_event(event).expect("stateless replay"));
        }
        assert_eq!(
            warning_multiset(&lost_warnings),
            missing,
            "seed {seed}: loss must be exactly accounted (quarantined {} discarded {} dropped {})",
            report.quarantined,
            report.discarded,
            report.dropped,
        );
    }
}

/// A fault-free pool over the same recorded streams reproduces the
/// sequential baseline exactly — the zero-chaos control for the test
/// above.
#[test]
fn fault_free_pool_matches_the_baseline_exactly() {
    let scenarios = workload();
    let mut baseline_warnings = Vec::new();
    let mut streams = Vec::new();
    for scenario in &scenarios {
        let (warnings, events) = record(scenario);
        baseline_warnings.extend(warnings);
        streams.push(events);
    }
    let pool = AnalystPool::new(
        &PoolConfig { shards: 4, ..PoolConfig::default() },
        &PolicyConfig::default(),
    )
    .expect("policy loads");
    for (sid, stream) in streams.iter().enumerate() {
        for event in stream {
            pool.submit(sid as u64, event.clone());
        }
    }
    let report = pool.finish();
    assert_eq!(report.lost(), 0);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(warning_multiset(&report.warnings), warning_multiset(&baseline_warnings));
}

/// A fault *inside* a drained run changes nothing the counters can
/// see: for the same ten seeds, a plan that stalls the first event of
/// every shard for 20 ms (so the queue fills behind it and the next
/// drain holds many events — the guaranteed panic then lands inside
/// that run) and the same plan without the stall produce identical
/// counters, identical survivor warning multisets, and identical
/// lost-event multisets, and both satisfy `submitted == analysed +
/// dropped + quarantined + discarded` on every shard.
#[test]
fn chaos_inside_a_batch_is_counted_exactly_like_per_event() {
    let scenarios = workload();
    let streams: Vec<Vec<SecpertEvent>> = scenarios.iter().map(|s| record(s).1).collect();

    let run = |seed: u64, stall: bool| {
        let mut plan = FaultPlan::from_seed(seed);
        for shard in 0..4 {
            if stall {
                plan = plan.stall_on(shard, 1, 20);
            }
            plan = plan.panic_on(shard, 2 + seed % 3);
        }
        let config = PoolConfig {
            shards: 4,
            max_respawns: (seed % 3) as u32,
            faults: Some(Arc::new(plan)),
            keep_lost_events: true,
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
        for (sid, stream) in streams.iter().enumerate() {
            for event in stream {
                pool.submit(sid as u64, event.clone());
            }
        }
        pool.finish()
    };

    for seed in SEEDS {
        let stalled = run(seed, true);
        let plain = run(seed, false);
        for report in [&stalled, &plain] {
            for (i, shard) in report.shards.iter().enumerate() {
                assert_eq!(
                    shard.submitted,
                    shard.events + shard.dropped + shard.quarantined + shard.discarded,
                    "seed {seed} shard {i}: conservation violated"
                );
            }
            assert!(report.quarantined > 0, "seed {seed}: the guaranteed panics must fire");
        }
        assert_eq!(stalled.submitted, plain.submitted, "seed {seed}");
        assert_eq!(stalled.events, plain.events, "seed {seed}: analysed diverged");
        assert_eq!(stalled.dropped, plain.dropped, "seed {seed}: dropped diverged");
        assert_eq!(stalled.quarantined, plain.quarantined, "seed {seed}: quarantined diverged");
        assert_eq!(stalled.discarded, plain.discarded, "seed {seed}: discarded diverged");
        assert_eq!(
            warning_multiset(&stalled.warnings),
            warning_multiset(&plain.warnings),
            "seed {seed}: survivor warnings diverged"
        );
        let multiset = |events: &[(u64, SecpertEvent)]| {
            let mut rendered: Vec<String> =
                events.iter().map(|(sid, e)| format!("{sid} {e:?}")).collect();
            rendered.sort();
            rendered
        };
        assert_eq!(
            multiset(&stalled.lost_events),
            multiset(&plain.lost_events),
            "seed {seed}: lost events diverged"
        );
    }
}

/// The correlator's chaos guarantee: a quarantined shard loses events,
/// but it cannot lose the *fleet verdict*. For every seed, the chaos
/// pool's (partial) digests plus digests rebuilt from the captured
/// lost events reconcile — via [`SessionDigest::merge`] inside
/// [`Correlator::ingest`] — to byte-identical correlation with the
/// fault-free baseline: same warnings, same cross-session provenance
/// trees. This is the two-halves-merge property of the digest, proved
/// end to end against the campaign that actually coordinates.
#[test]
fn lost_digests_replayed_reconcile_the_fleet_correlation() {
    use hth_core::{CorrelateConfig, Correlator, DigestBuilder};

    let scenarios = hth_workloads::coordinated::scenarios();
    let streams: Vec<(String, Vec<SecpertEvent>)> =
        scenarios.iter().map(|s| (s.id.to_string(), record(s).1)).collect();

    let run = |faults: Option<Arc<FaultPlan>>, max_respawns: u32| {
        let config = PoolConfig {
            shards: 4,
            faults,
            max_respawns,
            keep_lost_events: true,
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
        for (sid, (label, stream)) in streams.iter().enumerate() {
            pool.set_label(sid as u64, label);
            for event in stream {
                pool.submit(sid as u64, event.clone());
            }
        }
        pool.finish()
    };

    let baseline_report = run(None, 0);
    assert_eq!(baseline_report.lost(), 0);
    let mut baseline = Correlator::new(CorrelateConfig::default());
    for digest in &baseline_report.digests {
        baseline.ingest(digest.clone());
    }
    let baseline = baseline.correlate().expect("correlate");
    assert_eq!(
        baseline.warnings.len(),
        3,
        "the campaign must coordinate in the control run:\n{}",
        baseline.render()
    );

    for seed in SEEDS {
        let mut plan = FaultPlan::from_seed(seed);
        for shard in 0..4 {
            plan = plan.panic_on(shard, 2 + seed % 3);
        }
        let report = run(Some(Arc::new(plan)), (seed % 3) as u32);
        assert!(report.quarantined > 0, "seed {seed}: the guaranteed panics must fire");
        assert_eq!(report.lost_events.len() as u64, report.lost(), "seed {seed}");

        // Rebuild what the quarantined shards never digested: replay
        // each lost event through a fresh stateless engine (for its
        // warnings) into a per-session salvage digest.
        let mut salvage: BTreeMap<u64, DigestBuilder> = BTreeMap::new();
        let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
        for (sid, event) in &report.lost_events {
            let label = &streams[*sid as usize].0;
            let builder =
                salvage.entry(*sid).or_insert_with(|| DigestBuilder::new(*sid, label.as_str()));
            builder.observe(event);
            for warning in secpert.process_event(event).expect("stateless replay") {
                builder.observe_warning(&warning);
            }
        }

        // Partial digests + salvage digests merge to the whole.
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for digest in &report.digests {
            correlator.ingest(digest.clone());
        }
        for (_, builder) in salvage {
            correlator.ingest(builder.finish());
        }
        let reconciled = correlator.correlate().expect("correlate");
        assert_eq!(
            reconciled, baseline,
            "seed {seed}: reconciled correlation diverged from the fault-free baseline"
        );
        assert_eq!(
            reconciled.render_trees(),
            baseline.render_trees(),
            "seed {seed}: rendered fleet trees diverged"
        );
    }
}

/// A torn tail on the *first* segment of a rotated journal cuts a
/// would-be batch at the segment boundary: recovery salvages exactly
/// the frames before the tear plus every later segment, and batched
/// replay of the salvage is byte-identical to per-event replay.
#[test]
fn recover_torn_tail_splits_a_batch_at_a_segment_boundary() {
    use hth_fleet::{
        recover_segments, segment_path, segment_paths, RecoveryReport, SegmentedJournalWriter,
    };

    let stream = workload()
        .iter()
        .map(|s| record(s).1)
        .max_by_key(Vec::len)
        .expect("the workload is non-empty");
    assert!(stream.len() > 8, "the longest stream must span several frames");

    let dir = std::env::temp_dir().join("hth-chaos-torn-segment");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("torn.hthj");
    for path in segment_paths(&base) {
        std::fs::remove_file(path).expect("stale segment");
    }
    // Small segments force rotation mid-stream, so a 64-event batch
    // would span segment boundaries if batches were not cut per segment.
    let mut writer = SegmentedJournalWriter::create(&base, 256).expect("create");
    for event in &stream {
        writer.append(event).expect("append");
    }
    assert!(writer.segments() > 1, "the stream must rotate");
    writer.finish().expect("finish");

    // Tear the first segment mid-frame: its last event becomes a torn
    // tail, right where the batched replay crosses into segment 1.
    let first = segment_path(&base, 0);
    let bytes = std::fs::read(&first).expect("segment 0");
    std::fs::write(&first, &bytes[..bytes.len() - 3]).expect("torn write");

    let (salvaged, reports) = recover_segments(&base).expect("recover");
    assert_eq!(reports[0].frames_dropped, 1, "the torn frame is the only loss");
    assert!(reports[1..].iter().all(RecoveryReport::is_clean), "later segments are untouched");
    assert_eq!(
        salvaged.len() as u64 + 1,
        stream.len() as u64,
        "salvage must lose exactly the torn frame"
    );

    // The salvage equals the stream minus the torn frame; batched and
    // per-event replay of it agree warning-for-warning.
    let torn_index = reports[0].frames_ok as usize;
    let mut expected = stream.clone();
    expected.remove(torn_index);
    assert_eq!(salvaged, expected, "salvage is the stream minus the torn frame");

    let mut per_event = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut want = Vec::new();
    for event in &salvaged {
        want.extend(per_event.process_event(event).expect("replay"));
    }
    let mut batched = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut got = Vec::new();
    for run in salvaged.chunks(64) {
        got.extend(batched.process_batch(run).expect("replay"));
    }
    assert_eq!(warning_multiset(&got), warning_multiset(&want));
    assert_eq!(got.len(), want.len());
    assert_eq!(per_event.match_stats(), batched.match_stats());
}
