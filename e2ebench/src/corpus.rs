//! Captured event streams and the per-event analysis probe shared by
//! the workloads that replay streams instead of running programs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hth_core::harrier::SecpertEvent;
use hth_core::secpert_engine::MatchStats;
use hth_core::{PolicyConfig, Secpert, Session, SessionConfig};
use hth_workloads::Scenario;

/// One program's Harrier event stream, as the session tap saw it.
pub struct Stream {
    pub label: String,
    pub events: Vec<SecpertEvent>,
}

/// Runs each scenario once with inline analysis off and records its
/// event stream through the session's event tap: the stream the fleet
/// pool and the serve daemon receive in production.
pub fn capture(scenarios: &[Scenario]) -> Result<Vec<Stream>, String> {
    scenarios
        .iter()
        .map(|scenario| {
            let sink: Arc<Mutex<Vec<SecpertEvent>>> = Arc::default();
            let config =
                SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
            let mut session = Session::new(config).map_err(|e| e.to_string())?;
            let start = (scenario.setup)(&mut session);
            let tap = Arc::clone(&sink);
            session.set_event_tap(Box::new(move |event| {
                tap.lock().expect("event sink").push(event.clone());
            }));
            let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
            let env: Vec<(&str, &str)> =
                start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            session.start(start.path, &argv, &env).map_err(|e| format!("{}: {e}", scenario.id))?;
            session.run().map_err(|e| format!("{}: {e}", scenario.id))?;
            drop(session);
            let events = std::mem::take(&mut *sink.lock().expect("event sink"));
            Ok(Stream { label: scenario.id.to_string(), events })
        })
        .collect()
}

/// Analysis-layer costs measured on fresh experts over a set of
/// streams: policy compile per expert, fact build and full event
/// processing per event, and the match counters they produced.
#[derive(Default)]
pub struct Probe {
    pub compile_us: Vec<f64>,
    pub fact_us: Vec<f64>,
    pub event_us: Vec<f64>,
    pub match_stats: MatchStats,
}

/// Feeds every stream through its own fresh [`Secpert`], timing
/// `Secpert::new`, `build_fact` and `process_event` per call. A side
/// measurement of the traced run: it sits outside the attributed
/// operations.
pub fn probe(streams: &[&[SecpertEvent]], policy: &PolicyConfig) -> Result<Probe, String> {
    let mut probe = Probe::default();
    for events in streams {
        let started = Instant::now();
        let mut expert = Secpert::new(policy).map_err(|e| e.to_string())?;
        probe.compile_us.push(started.elapsed().as_secs_f64() * 1e6);
        for event in *events {
            let started = Instant::now();
            std::hint::black_box(expert.build_fact(event).map_err(|e| e.to_string())?);
            probe.fact_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            std::hint::black_box(expert.process_event(event).map_err(|e| e.to_string())?);
            probe.event_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        probe.match_stats.merge(&expert.match_stats());
    }
    Ok(probe)
}

/// Records the probe's figures as per-layer metrics.
pub fn record_probe(report: &mut crate::report::Report, probe: &mut Probe) {
    use crate::report::{mean, median, quantile};
    report.set("secpert.compile_us", median(&mut probe.compile_us));
    report.set("secpert.fact_us", mean(&probe.fact_us));
    report.set("secpert.event_us_p50", quantile(&mut probe.event_us, 0.5));
    report.set("secpert.event_us_p99", quantile(&mut probe.event_us, 0.99));
    record_match(report, &probe.match_stats);
}

/// Records Rete counters with their bases.
pub fn record_match(report: &mut crate::report::Report, m: &MatchStats) {
    use crate::report::ratio;
    report.set("match.alpha_tests", m.alpha_tests as f64);
    report.set("match.alpha_hit_ratio", ratio(m.alpha_hits, m.alpha_tests));
    report.set("match.join_attempts", m.join_attempts as f64);
    report.set("match.join_hit_ratio", ratio(m.join_matches, m.join_attempts));
    report.set("match.index_lookups", m.index_lookups as f64);
    report.set("match.index_hit_ratio", ratio(m.index_hits, m.index_lookups));
    report.set("match.activations", m.activations as f64);
    report.set("match.tokens_live", m.tokens_live as f64);
}
