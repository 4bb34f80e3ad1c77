//! Supervision regressions for the analyst pool.
//!
//! The headline regression: under `Backpressure::Block`, a shard whose
//! analyst died used to stop draining its queue, so the next submitter
//! to hit the bound waited on `not_full` forever — a deadlock wired to
//! a single engine failure. Supervision keeps every worker draining
//! (quarantine + respawn while the budget lasts, drain-and-discard
//! after), so a blocked submitter always makes progress. The tests run
//! the submission under a watchdog: if the fix regresses, they fail in
//! seconds instead of hanging CI.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_core::{PolicyConfig, Secpert};
use hth_fleet::{AnalystPool, Backpressure, FaultPlan, PoolConfig, PoolReport};

fn event(i: u64) -> SecpertEvent {
    SecpertEvent::ResourceAccess {
        pid: 1,
        syscall: "SYS_execve",
        resource: SourceInfo::new(ResourceType::File, "/bin/ls"),
        origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/x")] },
        time: i,
        frequency: 5,
        address: 0,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }
}

/// Runs `submit`-flood + `finish` on a watchdog thread; panics if the
/// whole pool interaction does not complete within the deadline.
fn with_watchdog(config: PoolConfig, submissions: u64, deadline: Duration) -> PoolReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy loads");
        for i in 0..submissions {
            pool.submit(0, event(i));
        }
        let _ = tx.send(pool.finish());
    });
    match rx.recv_timeout(deadline) {
        Ok(report) => report,
        Err(_) => panic!(
            "pool deadlocked: {submissions} Block submissions did not drain within {deadline:?} \
             (the failed-shard drain regression is back)"
        ),
    }
}

/// The regression itself: every event panics the engine, the respawn
/// budget is zero, the queue holds two events, and the submitter uses
/// `Block`. The old pool deadlocked here; the supervised pool drains
/// everything and accounts for every event.
#[test]
fn block_submit_does_not_deadlock_when_the_shard_has_failed() {
    let plan = FaultPlan::new().panic_on(0, 1);
    let config = PoolConfig {
        shards: 1,
        queue_capacity: 2,
        backpressure: Backpressure::Block,
        max_respawns: 0,
        faults: Some(Arc::new(plan)),
        ..PoolConfig::default()
    };
    let report = with_watchdog(config, 200, Duration::from_secs(30));
    let stats = &report.shards[0];
    assert_eq!(stats.submitted, 200);
    assert_eq!(stats.quarantined, 1, "the panicking event");
    assert_eq!(stats.discarded, 199, "everything after the failure is drained, not stuck");
    assert_eq!(stats.events, 0);
    assert_eq!(stats.submitted, stats.events + stats.lost(), "no silent loss");
    assert!(report.errors.iter().any(|e| e.contains("respawn budget")), "{:?}", report.errors);
}

/// Same shape but with a respawn budget: the shard recovers and *keeps
/// analysing*, so Block stays lossless apart from the quarantined
/// events themselves.
#[test]
fn block_submit_survives_repeated_panics_within_budget() {
    let plan = FaultPlan::new().panic_on(0, 10).panic_on(0, 20).panic_on(0, 30);
    let config = PoolConfig {
        shards: 1,
        queue_capacity: 2,
        backpressure: Backpressure::Block,
        max_respawns: 3,
        faults: Some(Arc::new(plan)),
        ..PoolConfig::default()
    };
    let report = with_watchdog(config, 100, Duration::from_secs(30));
    let stats = &report.shards[0];
    assert_eq!(stats.submitted, 100);
    assert_eq!(stats.quarantined, 3);
    assert_eq!(stats.respawns, 3);
    assert_eq!(stats.events, 97, "analysis resumes after every respawn");
    assert_eq!(stats.discarded, 0);
    assert_eq!(report.warnings.len(), 97);
    assert!(report.errors.is_empty(), "budgeted respawns are not errors: {:?}", report.errors);
}

/// Injected queue stalls slow a shard down but lose nothing under
/// Block: the submitter just waits out the stall.
#[test]
fn stalls_delay_but_never_lose_events() {
    let plan = FaultPlan::new().stall_on(0, 3, 25).stall_on(0, 7, 25);
    let config = PoolConfig {
        shards: 1,
        queue_capacity: 2,
        backpressure: Backpressure::Block,
        faults: Some(Arc::new(plan)),
        ..PoolConfig::default()
    };
    let report = with_watchdog(config, 40, Duration::from_secs(30));
    let stats = &report.shards[0];
    assert_eq!(stats.submitted, 40);
    assert_eq!(stats.events, 40);
    assert_eq!(stats.lost(), 0);
    assert_eq!(report.warnings.len(), 40);
}

/// An engine *error* — a policy bug that surfaces at run time — is not
/// a bad event: the shard degrades to drain-and-discard. The failing
/// event's own warning, already in the engine's sink when its rule
/// failed, is not reported; it and every later event are discarded,
/// counted and kept.
#[test]
fn engine_error_degrades_the_shard_to_drain_and_discard() {
    // Salience -50 runs after check_execve (0) and before the -100
    // cleanup rules; the `+` of a string fails at run time.
    let policy = PolicyConfig {
        extra_rules: vec![r#"
            (defrule boom
              (declare (salience -50))
              (system_call_access (system_call_name SYS_execve) (resource_name ?name))
              (test (eq ?name "/bin/boom"))
              =>
              (bind ?x (+ 1 ?name)))
        "#
        .to_string()],
        ..PolicyConfig::default()
    };
    let mut boom = event(3);
    if let SecpertEvent::ResourceAccess { resource, .. } = &mut boom {
        *resource = SourceInfo::new(ResourceType::File, "/bin/boom");
    }

    let mut expert = Secpert::new(&policy).expect("policy loads");
    assert!(expert.process_event(&boom).is_err(), "the boom rule must fail at run time");
    assert!(
        expert.warnings().iter().any(|w| w.time == 3 && w.rule == "check_execve"),
        "check_execve must warn for the boom event before its rule fails, or this test \
         checks nothing"
    );

    let config = PoolConfig { shards: 1, keep_lost_events: true, ..PoolConfig::default() };
    let pool = AnalystPool::new(&config, &policy).expect("policy loads");
    for i in 0..3 {
        pool.submit(0, event(i));
    }
    pool.submit(0, boom);
    for i in 4..7 {
        pool.submit(0, event(i));
    }
    let report = pool.finish();
    let stats = &report.shards[0];
    assert_eq!(stats.events, 3, "the events before the failure are analysed");
    let warned: Vec<u64> = report.warnings.iter().map(|w| w.time).collect();
    assert_eq!(warned, vec![0, 1, 2], "the boom event's own warning must not be reported");
    assert_eq!(stats.discarded, 4, "the failing event and everything after it");
    assert_eq!(stats.quarantined, 0, "an engine error is not a panic");
    assert_eq!(stats.respawns, 0);
    assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
    assert!(report.errors[0].contains("engine error"), "{:?}", report.errors);
    let mut lost: Vec<u64> = report.lost_events.iter().map(|(_, e)| e.time()).collect();
    lost.sort_unstable();
    assert_eq!(lost, vec![3, 4, 5, 6]);
    assert_eq!(report.submitted, report.events + report.lost(), "no silent loss");
}
