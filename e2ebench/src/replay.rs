//! `replay`: a batch job with no VM. Each job replays a journal set
//! that interleaves many sessions' captured streams (the paper corpus,
//! gen2 and the 12-session coordinated campaign, under seeded session
//! ids): decoded through `JournalReader`/`EventBatch`, fed by
//! `submit_batch` to a 1-shard `AnalystPool` at the default batch size,
//! and finished by a `Correlator` pass over the pool's digests. Wire
//! decode, pool dispatch, fact build, Rete match and correlation do the
//! work; the policy is compiled once per job.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hth_core::harrier::SecpertEvent;
use hth_core::secpert_engine::MatchStats;
use hth_core::{
    digest_session, CorrelateConfig, Correlator, DigestBuilder, PolicyConfig, Secpert, Severity,
    Warning,
};
use hth_fleet::{
    warning_multiset, AnalystPool, EventBatch, JournalReader, JournalWriter, PoolConfig,
};

use crate::corpus::{self, Stream};
use crate::probe::Probes;
use crate::report::{self, Report, Rng};
use crate::spans;

/// Distinct jobs generated per seed; the run cycles through them.
const JOBS: usize = 16;
/// Times each captured stream appears in a job, under distinct session
/// ids: enough work per job that scheduling hiccups of a millisecond or
/// two spread over the tail instead of deciding the p99.
const COPIES: usize = 2;
/// Most events one interleaving turn decodes from a session's journal.
const MAX_TURN: usize = 8;
/// The fleet rules the campaign must fire in every job.
const CAMPAIGN_RULES: [&str; 3] = ["distributed_exfil", "recurring_dropper", "shared_c2"];

struct Job {
    /// Session id of each slot in this job; slot `k` replays stream
    /// `k % streams`.
    sids: Vec<u64>,
    /// `(slot, events)`: decode up to `events` from that slot's
    /// journal and submit them, in this order.
    turns: Vec<(usize, usize)>,
    expect_warnings: BTreeMap<(Severity, String), usize>,
    expect_fleet: BTreeMap<(Severity, String), u64>,
}

pub struct Input {
    streams: Vec<Stream>,
    journals: Vec<Vec<u8>>,
    jobs: Vec<Job>,
    events_per_job: usize,
    /// Mean `JournalWriter::append` time per event, measured while the
    /// journals were written.
    encode_us: f64,
}

impl Input {
    pub fn fingerprint(&self) -> String {
        let bytes: usize = self.journals.iter().map(Vec::len).sum();
        let turns: usize = self.jobs.iter().map(|j| j.turns.len()).sum();
        let warnings: usize = self.jobs.iter().flat_map(|j| j.expect_warnings.values()).sum();
        format!(
            "{} streams, {bytes} journal bytes, {} jobs, {turns} turns, {warnings} expected warnings",
            self.streams.len(),
            self.jobs.len()
        )
    }
}

/// Captures every stream, journals each one, computes per-session
/// reference warnings and draws the jobs.
pub fn setup(seed: u64) -> Result<Input, String> {
    let policy = PolicyConfig::default();
    let mut scenarios = hth_workloads::all_scenarios();
    scenarios.extend(hth_workloads::coordinated::scenarios());
    let streams = corpus::capture(&scenarios)?;
    let mut journals = Vec::with_capacity(streams.len());
    let (mut encode_ns, mut encoded) = (0u128, 0usize);
    for stream in &streams {
        let mut writer = JournalWriter::new(Vec::new()).map_err(|e| e.to_string())?;
        for event in &stream.events {
            let started = Instant::now();
            writer.append(event).map_err(|e| e.to_string())?;
            encode_ns += started.elapsed().as_nanos();
        }
        encoded += stream.events.len();
        journals.push(writer.finish().map_err(|e| e.to_string())?);
    }
    let reference: Vec<Vec<Warning>> = streams
        .iter()
        .map(|s| {
            let mut expert = Secpert::new(&policy).map_err(|e| e.to_string())?;
            expert.process_batch(&s.events).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::with_capacity(JOBS);
    for _ in 0..JOBS {
        let slots = streams.len() * COPIES;
        let mut sids: Vec<u64> = Vec::with_capacity(slots);
        while sids.len() < slots {
            let sid = rng.next_u64() >> 16;
            if !sids.contains(&sid) {
                sids.push(sid);
            }
        }
        // Seeded interleaving that keeps each stream's own order: draw
        // the next stream among those with events left.
        let mut left: Vec<usize> =
            (0..slots).map(|k| streams[k % streams.len()].events.len()).collect();
        let mut turns = Vec::new();
        let mut live: Vec<usize> = (0..slots).filter(|&k| left[k] > 0).collect();
        while !live.is_empty() {
            let k = rng.below(live.len());
            let s = live[k];
            let n = (1 + rng.below(MAX_TURN)).min(left[s]);
            turns.push((s, n));
            left[s] -= n;
            if left[s] == 0 {
                live.swap_remove(k);
            }
        }
        let expect_warnings = warning_multiset(reference.iter().cycle().take(slots).flatten());
        let mut correlator = Correlator::new(CorrelateConfig::default());
        for (k, sid) in sids.iter().enumerate() {
            let i = k % streams.len();
            correlator.ingest(digest_session(
                *sid,
                &streams[i].label,
                &streams[i].events,
                &reference[i],
            ));
        }
        let fleet = correlator.correlate().map_err(|e| e.to_string())?;
        let expect_fleet = fleet.warning_counts();
        for rule in CAMPAIGN_RULES {
            if !expect_fleet.keys().any(|(_, r)| r == rule) {
                return Err(format!("reference correlation does not fire {rule}"));
            }
        }
        jobs.push(Job { sids, turns, expect_warnings, expect_fleet });
    }
    Ok(Input {
        events_per_job: encoded * COPIES,
        encode_us: encode_ns as f64 / 1e3 / encoded.max(1) as f64,
        streams,
        journals,
        jobs,
    })
}

/// Counts a job must reproduce exactly every time it runs.
#[derive(Clone, Debug, PartialEq, Eq)]
struct JobCounts {
    events: u64,
    warnings: usize,
    digests: usize,
    fleet_warnings: usize,
    match_stats: MatchStats,
}

struct JobOutcome {
    counts: JobCounts,
    high_water: usize,
    lost: u64,
}

/// One replay job: decode start to correlation report. With `traced`,
/// every layer call runs inside a span under a `job` root.
fn run_job(
    input: &Input,
    j: usize,
    traced: bool,
    report: &mut Report,
) -> Result<JobOutcome, String> {
    let job = &input.jobs[j];
    let span = |name: &'static str| traced.then(|| spans::enter(name, ""));
    let close = |id: Option<usize>| {
        if let Some(id) = id {
            spans::exit(id);
        }
    };
    let root = span("job");
    let s = span("pool.new");
    let pool = AnalystPool::new(
        &PoolConfig { shards: 1, ..PoolConfig::default() },
        &PolicyConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    close(s);
    for (sid, stream) in job.sids.iter().zip(input.streams.iter().cycle()) {
        pool.set_label(*sid, &stream.label);
    }
    let s = span("journal.decode");
    let mut readers: Vec<JournalReader<&[u8]>> = input
        .journals
        .iter()
        .cycle()
        .take(job.sids.len())
        .map(|bytes| JournalReader::new(bytes.as_slice()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    close(s);
    let mut batch = EventBatch::with_capacity(MAX_TURN);
    let mut short_reads = 0usize;
    for &(slot, n) in &job.turns {
        let s = span("journal.decode");
        let got = batch.refill(&mut readers[slot], n).map_err(|e| e.to_string())?;
        close(s);
        short_reads += usize::from(got != n);
        let s = span("pool.submit");
        pool.submit_batch(job.sids[slot], batch.as_vec_mut());
        close(s);
    }
    let s = span("pool.finish");
    let mut pool_report = pool.finish();
    close(s);
    let digests = std::mem::take(&mut pool_report.digests);
    let digest_count = digests.len();
    let s = span("correlate");
    let mut correlator = Correlator::new(CorrelateConfig::default());
    for digest in digests {
        correlator.ingest(digest);
    }
    let fleet = correlator.correlate().map_err(|e| e.to_string())?;
    close(s);
    close(root);

    report.attempted += 1;
    let fleet_counts = fleet.warning_counts();
    let mut problems = Vec::new();
    if short_reads > 0 {
        problems.push(format!("{short_reads} journal turns decoded fewer events than written"));
    }
    if pool_report.lost() != 0 || !pool_report.errors.is_empty() {
        problems.push(format!(
            "lost {} events, errors {:?}",
            pool_report.lost(),
            pool_report.errors
        ));
    }
    if warning_multiset(&pool_report.warnings) != job.expect_warnings {
        problems
            .push("pool warning multiset differs from the per-session reference replays".into());
    }
    if fleet_counts != job.expect_fleet {
        problems.push(format!(
            "correlation {fleet_counts:?} differs from the reference {:?}",
            job.expect_fleet
        ));
    }
    if !problems.is_empty() {
        report.fail(format!("job {j}: {}", problems.join("; ")));
    }
    Ok(JobOutcome {
        counts: JobCounts {
            events: pool_report.events,
            warnings: pool_report.warnings.len(),
            digests: digest_count,
            fleet_warnings: fleet.warnings.len(),
            match_stats: pool_report.match_stats,
        },
        high_water: pool_report.shards.iter().map(|s| s.high_water).max().unwrap_or(0),
        lost: pool_report.lost(),
    })
}

/// What a job loop measured: per-job latency (ms, in run order) and
/// the outcomes' aggregates.
#[derive(Default)]
struct Loop {
    latencies: Vec<f64>,
    /// Without `traced`, the host-speed probe before each job.
    probes: Probes,
    /// With `traced`, the untraced run of each job made right before
    /// its traced run.
    untraced: Vec<f64>,
    high_water: usize,
    lost: u64,
    match_stats: MatchStats,
}

/// Runs jobs in order for `seconds`; checks each job's counts against
/// its first run. With `traced`, each job also runs untraced next to
/// its traced run, so the tracing overhead compares neighbours and
/// host-speed drift cancels; which of the two goes first alternates, so
/// neither always finds the caches warm.
fn job_loop(
    input: &Input,
    seconds: Duration,
    traced: bool,
    first: &mut [Option<JobCounts>],
    report: &mut Report,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let deadline = Instant::now() + seconds;
    while Instant::now() < deadline {
        let j = out.latencies.len() % input.jobs.len();
        // With `traced`, even-numbered jobs run untraced first, odd
        // ones traced first.
        let passes: &[bool] = match (traced, out.latencies.len() % 2) {
            (false, _) => {
                out.probes.take(out.latencies.len());
                &[false]
            }
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &this_traced in passes {
            let started = Instant::now();
            let outcome = run_job(input, j, this_traced, report)?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if traced && !this_traced {
                out.untraced.push(ms);
            } else {
                out.latencies.push(ms);
                out.match_stats.merge(&outcome.counts.match_stats);
            }
            out.high_water = out.high_water.max(outcome.high_water);
            out.lost += outcome.lost;
            match &first[j] {
                None => first[j] = Some(outcome.counts),
                Some(seen) if *seen != outcome.counts => {
                    report.fail(format!(
                        "job {j}: counts {:?} differ from its first run {seen:?}",
                        outcome.counts
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(out)
}

pub fn run(input: &Input, seconds: Duration, trace: bool, setup_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let bytes: usize = input.journals.iter().map(Vec::len).sum();
    report.line(format!(
        "input: {} jobs cycled; each replays {} sessions' journals ({} streams x {COPIES}, {} events, {} bytes) interleaved in turns of 1..={MAX_TURN} events into a 1-shard pool",
        input.jobs.len(),
        input.streams.len() * COPIES,
        input.streams.len(),
        input.events_per_job,
        bytes * COPIES
    ));
    let mut first = vec![None; input.jobs.len()];
    let Loop { latencies, probes, .. } = job_loop(input, seconds, false, &mut first, &mut report)?;
    let total_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let events = latencies.len() * input.events_per_job;
    report.line(format!(
        "timed: {} jobs, {events} events in {total_s:.3} s of jobs: {:.1} events/s",
        latencies.len(),
        events as f64 / total_s
    ));
    report.line(report::latency_line("job latency, unscaled", &mut latencies.clone()));
    report.line(probes.line());
    let scaled = probes.scale(&latencies, input.jobs.len());
    // Pooled over the whole run, not windowed: a window of 64 jobs has
    // six beyond its p90, and which jobs the pool thread's host noise
    // lands on moved that figure by more than 10% between runs.
    report.latencies("job latency (decode start -> correlation report)", &scaled, scaled.len());
    report.set("events_per_s", events as f64 / (scaled.iter().sum::<f64>() / 1e3));
    if trace {
        traced(input, seconds, &mut first, &mut report)?;
    }
    Ok(report)
}

fn traced(
    input: &Input,
    seconds: Duration,
    first: &mut [Option<JobCounts>],
    report: &mut Report,
) -> Result<(), String> {
    spans::take();
    let Loop { untraced, high_water, lost, match_stats, .. } =
        job_loop(input, seconds, true, first, report)?;
    let spans = spans::take();
    let fold = spans::fold(&spans);
    let (lines, total, layers, residual) = fold.attribution("job");
    report.lines.extend(lines);
    let traced_ms: Vec<f64> =
        spans::durations_us(&spans, "job").iter().map(|us| us / 1e3).collect();
    let overhead_us = (report::mean(&traced_ms) - report::mean(&untraced)) * 1e3;
    report.line(format!(
        "tracing overhead: {overhead_us:.3} us per job (traced minus untraced mean, each job run untraced next to its traced run, in alternating order)"
    ));
    let jobs = fold.roots as f64;
    let events = jobs * input.events_per_job as f64;

    // Side measurements outside the job spans: digest folding and the
    // per-event analysis probe.
    let job = &input.jobs[0];
    let started = Instant::now();
    for (sid, stream) in job.sids.iter().zip(input.streams.iter().cycle()) {
        let mut builder = DigestBuilder::new(*sid, stream.label.as_str());
        for event in &stream.events {
            builder.observe(event);
        }
        std::hint::black_box(builder.finish());
    }
    let observe_ns = started.elapsed().as_nanos() as f64 / input.events_per_job.max(1) as f64;
    let streams: Vec<&[SecpertEvent]> = input.streams.iter().map(|s| s.events.as_slice()).collect();
    let mut probe = corpus::probe(&streams, &PolicyConfig::default())?;
    report.line(format!(
        "pool.finish waits for the shard thread's analysis: the probe's mean process_event cost x {} events = {:.1} us per job",
        input.events_per_job,
        report::mean(&probe.event_us) * input.events_per_job as f64
    ));
    corpus::record_probe(report, &mut probe);
    corpus::record_match(report, &match_stats);

    let bytes: usize = input.journals.iter().map(Vec::len).sum();
    report.set("attr.total_us", total);
    report.set("attr.layers_us", layers);
    report.set("attr.residual_us", residual);
    report.set("attr.overhead_us", overhead_us);
    report.set("input.sessions", jobs * job.sids.len() as f64);
    report.set("input.events", events);
    report.set("wire.encode_us", input.encode_us);
    report.set(
        "wire.decode_us",
        fold.self_ns.get("journal.decode").copied().unwrap_or(0) as f64 / 1e3 / events.max(1.0),
    );
    report.set(
        "journal.bytes_per_event",
        (bytes * COPIES) as f64 / input.events_per_job.max(1) as f64,
    );
    report.set("pool.new_us", fold.per_root_us("pool.new"));
    report.set("pool.submit_blocked_us", fold.per_root_us("pool.submit"));
    report.set("pool.drain_us", fold.per_root_us("pool.finish"));
    report.set("pool.high_water", high_water as f64);
    report.set("pool.lost", lost as f64);
    report.set("digest.observe_ns", observe_ns);
    report.set("correlate.pass_ms", fold.per_root_us("correlate") / 1e3);
    Ok(())
}
