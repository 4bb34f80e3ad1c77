//! The fleet orchestrator: run many workload sessions concurrently,
//! fan their event streams into a shared [`AnalystPool`], aggregate one
//! [`FleetReport`].
//!
//! This is the ROADMAP's production shape in miniature: monitoring
//! (sessions stepping VMs) and analysis (Secpert shards) are decoupled
//! by the event protocol, each side scaled by its own thread count.
//! Each session's tap submits its events one at a time, in order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use harrier::TaintStats;
use hth_core::{
    CorrelateConfig, CorrelationReport, Correlator, SessionConfig, SessionDigest, Severity,
};
use hth_trace::MetricsSnapshot;
use hth_workloads::Scenario;
use secpert_engine::{EngineError, MatchStats};

use crate::pool::{AnalystPool, PoolConfig, SessionId, ShardStats};

/// Fleet sizing: how many analyst shards, how many session-runner
/// threads, and the per-session configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Analyst pool shape.
    pub pool: PoolConfig,
    /// Session-runner threads (the monitoring side's parallelism).
    pub workers: usize,
    /// Configuration applied to every session. `analyze_inline` is
    /// forced off — analysis happens in the pool — and `record_events`
    /// off; the event stream lives in the queues, not in session memory.
    pub session: SessionConfig,
    /// Run the fleet correlator over the per-session digests after the
    /// pool drains (`hth fleet --correlate`). `None` skips correlation;
    /// the digests are collected either way.
    pub correlate: Option<CorrelateConfig>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            pool: PoolConfig::default(),
            workers: 4,
            session: SessionConfig::default(),
            correlate: None,
        }
    }
}

/// A warning multiset key: severity × rule.
pub type WarningKey = (Severity, String);

/// Aggregated outcome of a fleet run.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Sessions run to completion (including ones that produced faults).
    pub sessions: usize,
    /// Events submitted to the pool across all shards.
    pub submitted: u64,
    /// Events analysed across all shards.
    pub events: u64,
    /// Events evicted under [`crate::pool::Backpressure::DropOldest`].
    pub dropped: u64,
    /// Events quarantined after panicking an analyst.
    pub quarantined: u64,
    /// Events drained unanalysed by failed shards.
    pub discarded: u64,
    /// Fresh engines spawned after analyst panics.
    pub respawns: u32,
    /// One line per quarantined event (shard, event index, panic text).
    pub quarantine_log: Vec<String>,
    /// Wall-clock duration of the whole run (sessions + analysis drain).
    pub elapsed: Duration,
    /// Aggregate warning multiset: (severity, rule) → count.
    pub warning_counts: BTreeMap<WarningKey, usize>,
    /// Per-shard queue/drop/volume counters.
    pub shards: Vec<ShardStats>,
    /// Session-level failures (spawn errors, policy errors in setup).
    pub session_errors: Vec<String>,
    /// Shard-level engine failures.
    pub analyst_errors: Vec<String>,
    /// Match-network counters aggregated across every analyst engine
    /// (all-zero when the engines use the naive matcher).
    pub match_stats: MatchStats,
    /// Taint-store counters folded across every session's monitor.
    pub taint_stats: TaintStats,
    /// Per-session digests (session order), labelled with scenario ids
    /// — the facts the fleet correlator consumes.
    pub digests: Vec<SessionDigest>,
    /// The fleet correlator's verdict, when
    /// [`FleetConfig::correlate`] was set.
    pub correlation: Option<CorrelationReport>,
    /// Diagnostic bundles the shards' flight recorders captured (one
    /// per quarantine), shard order.
    pub bundles: Vec<std::sync::Arc<hth_trace::DiagnosticBundle>>,
}

impl FleetReport {
    /// Events analysed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Total warnings across the fleet.
    pub fn warnings(&self) -> usize {
        self.warning_counts.values().sum()
    }

    /// Events that never reached an analysis (dropped + quarantined +
    /// discarded). Zero on a healthy, lossless run.
    pub fn lost(&self) -> u64 {
        self.dropped + self.quarantined + self.discarded
    }

    /// Renders the report as a human-readable block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} sessions, {} events in {:.2?} ({:.0} events/sec), {} warnings",
            self.sessions,
            self.events,
            self.elapsed,
            self.events_per_sec(),
            self.warnings(),
        );
        for ((severity, rule), count) in self.warning_counts.iter().rev() {
            let _ = writeln!(out, "  {count:5}x [{severity}] {rule}");
        }
        if let Some(correlation) = &self.correlation {
            for line in correlation.render().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if self.lost() > 0 || self.respawns > 0 {
            let _ = writeln!(
                out,
                "  losses: {} of {} submitted ({} dropped, {} quarantined, {} discarded), {} respawns",
                self.lost(),
                self.submitted,
                self.dropped,
                self.quarantined,
                self.discarded,
                self.respawns,
            );
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: {} events, {} warnings, queue high-water {}, dropped {}",
                shard.events, shard.warnings, shard.high_water, shard.dropped,
            );
        }
        for line in &self.quarantine_log {
            let _ = writeln!(out, "  quarantined: {line}");
        }
        for error in self.session_errors.iter().chain(&self.analyst_errors) {
            let _ = writeln!(out, "  error: {error}");
        }
        out
    }

    /// One unified metrics snapshot for the whole run: taint-store
    /// counters from every session's monitor (`hth_taint_*`),
    /// match-network counters from every analyst engine
    /// (`hth_match_*`), and pool/fleet pipeline counters
    /// (`hth_pool_*`, `hth_fleet_*`) — including a histogram of
    /// per-shard event volume.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut metrics = MetricsSnapshot::default();
        self.taint_stats.record_metrics(&mut metrics);
        self.match_stats.record_metrics(&mut metrics);
        metrics.add_counter("hth_fleet_sessions", self.sessions as u64);
        metrics.add_counter("hth_fleet_warnings", self.warnings() as u64);
        metrics.add_counter("hth_pool_submitted", self.submitted);
        metrics.add_counter("hth_pool_events", self.events);
        metrics.add_counter("hth_pool_dropped", self.dropped);
        metrics.add_counter("hth_pool_quarantined", self.quarantined);
        metrics.add_counter("hth_pool_discarded", self.discarded);
        metrics.add_counter("hth_pool_respawns", u64::from(self.respawns));
        for shard in &self.shards {
            metrics.observe("hth_pool_shard_events", shard.events);
            metrics.max_gauge("hth_pool_queue_high_water", shard.high_water as i64);
        }
        metrics.add_counter("hth_fleet_digests", self.digests.len() as u64);
        if let Some(correlation) = &self.correlation {
            metrics.add_counter("hth_fleet_correlator_warnings", correlation.warnings.len() as u64);
        }
        metrics
    }
}

/// Builds the aggregate multiset from per-warning data.
pub fn warning_multiset<'a>(
    warnings: impl IntoIterator<Item = &'a hth_core::Warning>,
) -> BTreeMap<WarningKey, usize> {
    let mut counts = BTreeMap::new();
    for warning in warnings {
        *counts.entry((warning.severity, warning.rule.clone())).or_default() += 1;
    }
    counts
}

/// Runs every scenario as one fleet session, events fanned into a
/// sharded analyst pool; blocks until both sides drain.
///
/// # Errors
///
/// Returns the policy error if any shard engine fails to build. Session
/// and analyst failures during the run are collected in the report.
pub fn run_scenarios(
    scenarios: Vec<Scenario>,
    config: &FleetConfig,
) -> Result<FleetReport, EngineError> {
    let started = Instant::now();
    let sessions = scenarios.len();
    let pool = Arc::new(AnalystPool::new(&config.pool, &config.session.policy)?);

    let jobs: Arc<Mutex<VecDeque<(SessionId, Scenario)>>> = Arc::new(Mutex::new(
        scenarios.into_iter().enumerate().map(|(i, s)| (i as SessionId, s)).collect(),
    ));
    let session_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let taint_totals: Arc<Mutex<TaintStats>> = Arc::new(Mutex::new(TaintStats::default()));

    let workers = config.workers.clamp(1, sessions.max(1));
    let mut runners = Vec::with_capacity(workers);
    for _ in 0..workers {
        let jobs = Arc::clone(&jobs);
        let pool = Arc::clone(&pool);
        let errors = Arc::clone(&session_errors);
        let taint = Arc::clone(&taint_totals);
        let mut session_config = config.session.clone();
        session_config.analyze_inline = false;
        session_config.record_events = false;
        runners.push(std::thread::spawn(move || loop {
            let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            let Some((sid, scenario)) = job else { return };
            match run_one(sid, &scenario, session_config.clone(), &pool) {
                Ok(stats) => taint.lock().unwrap_or_else(PoisonError::into_inner).merge(&stats),
                Err(e) => errors
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(format!("{}: {e}", scenario.id)),
            }
        }));
    }
    let mut runner_errors = Vec::new();
    for (i, runner) in runners.into_iter().enumerate() {
        if runner.join().is_err() {
            runner_errors.push(format!("session runner {i} panicked"));
        }
    }

    let report = Arc::try_unwrap(pool)
        .unwrap_or_else(|_| unreachable!("all runners joined, pool has one owner"))
        .finish();
    let mut session_errors = Arc::try_unwrap(session_errors)
        .unwrap_or_default()
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    session_errors.extend(runner_errors);
    let mut analyst_errors = report.errors;
    let correlation = config.correlate.as_ref().map(|correlate_config| {
        let mut correlator = Correlator::new(correlate_config.clone());
        for digest in &report.digests {
            correlator.ingest(digest.clone());
        }
        correlator.correlate()
    });
    let correlation = match correlation {
        Some(Ok(report)) => Some(report),
        Some(Err(e)) => {
            analyst_errors.push(format!("correlator: {e}"));
            None
        }
        None => None,
    };
    Ok(FleetReport {
        sessions,
        submitted: report.submitted,
        events: report.events,
        dropped: report.dropped,
        quarantined: report.quarantined,
        discarded: report.discarded,
        respawns: report.respawns,
        quarantine_log: report.quarantine_log,
        elapsed: started.elapsed(),
        warning_counts: warning_multiset(&report.warnings),
        shards: report.shards,
        session_errors,
        analyst_errors,
        match_stats: report.match_stats,
        taint_stats: Arc::try_unwrap(taint_totals)
            .unwrap_or_default()
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
        digests: report.digests,
        correlation,
        bundles: report.bundles,
    })
}

/// Runs one scenario session with its event stream tapped into the
/// pool, one [`AnalystPool::submit`] per event; hands back the
/// monitor's taint-store counters (the session is dropped here, so
/// this is their last chance to reach the report).
fn run_one(
    sid: SessionId,
    scenario: &Scenario,
    config: SessionConfig,
    pool: &Arc<AnalystPool>,
) -> Result<TaintStats, hth_core::SessionError> {
    pool.set_label(sid, scenario.id);
    let mut session = hth_core::Session::new(config)?;
    let start = (scenario.setup)(&mut session);
    let tap_pool = Arc::clone(pool);
    session.set_event_tap(Box::new(move |event| tap_pool.submit(sid, event.clone())));
    let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(start.path, &argv, &env)?;
    session.run()?;
    Ok(session.taint_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rendering_and_rates() {
        let mut report = FleetReport {
            sessions: 2,
            events: 100,
            elapsed: Duration::from_millis(500),
            ..FleetReport::default()
        };
        report.warning_counts.insert((Severity::High, "check_execve".into()), 3);
        assert_eq!(report.events_per_sec(), 200.0);
        assert_eq!(report.warnings(), 3);
        let text = report.render();
        assert!(text.contains("2 sessions"), "{text}");
        assert!(text.contains("3x [HIGH] check_execve"), "{text}");
    }

    #[test]
    fn small_fleet_runs_scenarios() {
        let scenarios: Vec<Scenario> = hth_workloads::exploits::scenarios()
            .into_iter()
            .filter(|s| s.id == "ElmExploit" || s.id == "grabem")
            .collect();
        let config = FleetConfig {
            pool: PoolConfig { shards: 2, ..PoolConfig::default() },
            workers: 2,
            ..FleetConfig::default()
        };
        let report = run_scenarios(scenarios, &config).expect("policy loads");
        assert_eq!(report.sessions, 2);
        assert!(report.session_errors.is_empty(), "{:?}", report.session_errors);
        assert!(report.taint_stats.interned_sets >= 1, "sessions' taint stats reach the report");
        let metrics = report.metrics();
        assert_eq!(metrics.counter("hth_fleet_sessions"), 2);
        assert_eq!(metrics.counter("hth_pool_events"), report.events);
        assert!(report.analyst_errors.is_empty(), "{:?}", report.analyst_errors);
        // Both exploits produce exactly one High warning each.
        let highs: usize = report
            .warning_counts
            .iter()
            .filter(|((sev, _), _)| *sev == Severity::High)
            .map(|(_, count)| count)
            .sum();
        assert_eq!(highs, 2, "{:?}", report.warning_counts);
    }
}
