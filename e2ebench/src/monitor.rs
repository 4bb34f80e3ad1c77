//! `monitor`: the paper's use case. One user waits for one monitored
//! program after another (a closed loop on one thread), each under the
//! default `SessionConfig` with inline analysis and the flight recorder
//! on. Programs are the paper corpus plus §9 compute kernels, so VM
//! interpretation, kernel syscall handling, Harrier taint and
//! per-session policy compilation do most of the work.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hth_core::secpert_engine::MatchStats;
use hth_core::{PolicyConfig, RunReport, Secpert, Session, SessionConfig, Warning};
use hth_workloads::{Scenario, ScenarioResult, StartSpec};

use crate::probe::Probes;
use crate::report::{self, Report, Rng};
use crate::spans;

/// Compute-kernel sizes (`outer` loop trips), drawn uniformly and
/// independently for every kernel of every round. The range spans the
/// sizes the repository's own §9 harnesses run: 40 in the ablation's
/// shape test (`perf::ablation(40)`) up to 500 for the §9 table that
/// `all_results` prints.
const OUTER: (u32, u32) = (40, 500);
/// Compute kernels per round, beside the 67 corpus scenarios. At the
/// mean size this gives the kernels about as much session time as the
/// whole corpus, so interpretation and taint are half the loop.
const KERNELS: usize = 10;
/// Rounds generated up front; a run that outlasts them starts over.
/// Runs always end on a round boundary, so every run measures whole
/// rounds of the same scenario mix.
const ROUNDS: usize = 400;
/// Rounds per window of the end-to-end statistics (about a second).
const WINDOW_ROUNDS: usize = 4;

const KERNEL_PATH: &str = "/bench/compute";

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Program {
    /// Index into the corpus.
    Scenario(usize),
    /// A compute kernel with this many outer loop trips.
    Kernel(u32),
}

/// What one program run produced; it must repeat exactly each time the
/// same program runs.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    instructions: u64,
    events: u64,
    warnings: usize,
    memo_hits: u64,
    memo_misses: u64,
}

/// Instructions and events of a compute kernel, exact linear functions
/// of its size: `(per outer trip, fixed)` for each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KernelModel {
    instructions: (u64, u64),
    events: (u64, u64),
}

impl KernelModel {
    /// Fits the model to the counts of the two extreme sizes; the fit
    /// must be exact in integers.
    fn fit(lo: &Counts, hi: &Counts) -> Result<KernelModel, String> {
        let span = u64::from(OUTER.1 - OUTER.0);
        let line = |a: u64, b: u64| -> Result<(u64, u64), String> {
            let rise = b.checked_sub(a).ok_or("kernel counts shrink with size")?;
            if rise % span != 0 {
                return Err(format!("kernel counts {a} -> {b} are not linear in size"));
            }
            let slope = rise / span;
            Ok((slope, a - slope * u64::from(OUTER.0)))
        };
        Ok(KernelModel {
            instructions: line(lo.instructions, hi.instructions)?,
            events: line(lo.events, hi.events)?,
        })
    }

    fn predicts(&self, outer: u32, counts: &Counts) -> bool {
        let at = |(slope, fixed): (u64, u64)| slope * u64::from(outer) + fixed;
        counts.instructions == at(self.instructions) && counts.events == at(self.events)
    }
}

pub struct Input {
    scenarios: Vec<Scenario>,
    /// Assembly source of every kernel size drawn.
    kernels: BTreeMap<u32, String>,
    /// Programs in run order: each round is a seeded shuffle of every
    /// scenario and [`KERNELS`] freshly drawn kernels.
    order: Vec<Program>,
    /// Counts of each scenario's warm-up run.
    baseline: Vec<Counts>,
    model: KernelModel,
}

impl Input {
    pub fn fingerprint(&self) -> String {
        let instructions: u64 = self.baseline.iter().map(|c| c.instructions).sum();
        let events: u64 = self.baseline.iter().map(|c| c.events).sum();
        let hash = self.order.iter().fold(0u64, |h, p| {
            let id = match p {
                Program::Scenario(i) => *i as u64,
                Program::Kernel(outer) => (1 << 32) | u64::from(*outer),
            };
            h.wrapping_mul(31).wrapping_add(id)
        });
        format!(
            "{} scenarios, {instructions} instructions, {events} events, {} kernel sizes, model {:?}, order hash {hash}",
            self.baseline.len(),
            self.kernels.len(),
            self.model
        )
    }

    fn round_len(&self) -> usize {
        self.scenarios.len() + KERNELS
    }
}

/// Draws the rounds, and warms up every scenario and the two extreme
/// kernel sizes once (filling caches and recording the counts later
/// runs must repeat).
pub fn setup(seed: u64) -> Result<Input, String> {
    let mut rng = Rng::new(seed);
    let scenarios = hth_workloads::all_scenarios();
    let mut order = Vec::with_capacity(ROUNDS * (scenarios.len() + KERNELS));
    let mut kernels = BTreeMap::new();
    for outer in [OUTER.0, OUTER.1] {
        kernels.insert(outer, hth_bench::perf::workload_source(outer));
    }
    for _ in 0..ROUNDS {
        let mut round: Vec<Program> = (0..scenarios.len()).map(Program::Scenario).collect();
        for _ in 0..KERNELS {
            let outer = OUTER.0 + rng.below((OUTER.1 - OUTER.0 + 1) as usize) as u32;
            kernels.entry(outer).or_insert_with(|| hth_bench::perf::workload_source(outer));
            round.push(Program::Kernel(outer));
        }
        rng.shuffle(&mut round);
        order.extend(round);
    }
    let mut input = Input {
        scenarios,
        kernels,
        order,
        baseline: Vec::new(),
        model: KernelModel { instructions: (0, 0), events: (0, 0) },
    };
    // A misclassified program is not a set-up error: the timed loop
    // runs every program again and counts it as a failure there.
    for id in 0..input.scenarios.len() {
        let (_, counts, _) = run_plain(&input, Program::Scenario(id))?;
        input.baseline.push(counts);
    }
    let (_, lo, _) = run_plain(&input, Program::Kernel(OUTER.0))?;
    let (_, hi, _) = run_plain(&input, Program::Kernel(OUTER.1))?;
    input.model = KernelModel::fit(&lo, &hi)?;
    Ok(input)
}

fn start_spec(input: &Input, program: Program, session: &mut Session) -> StartSpec {
    match program {
        Program::Scenario(id) => (input.scenarios[id].setup)(session),
        Program::Kernel(outer) => {
            session.kernel.register_binary(KERNEL_PATH, &input.kernels[&outer], &[]);
            StartSpec::plain(KERNEL_PATH)
        }
    }
}

fn start(session: &mut Session, spec: &StartSpec) -> Result<u32, String> {
    let argv: Vec<&str> = spec.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = spec.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(spec.path, &argv, &env).map_err(|e| e.to_string())
}

fn name(input: &Input, program: Program) -> String {
    match program {
        Program::Scenario(id) => input.scenarios[id].id.to_string(),
        Program::Kernel(outer) => format!("compute(outer={outer})"),
    }
}

/// The oracle: a scenario must meet its expectation, a compute kernel
/// must run to completion and stay silent.
fn judge(
    input: &Input,
    program: Program,
    session: &Session,
    warnings: &[Warning],
    run: RunReport,
) -> (Counts, Option<String>) {
    let taint = session.taint_stats();
    let counts = Counts {
        instructions: run.instructions,
        events: session.harrier().events_emitted(),
        warnings: warnings.len(),
        memo_hits: taint.memo_hits,
        memo_misses: taint.memo_misses,
    };
    let ok = match program {
        Program::Scenario(id) => {
            let scenario = &input.scenarios[id];
            ScenarioResult {
                id: scenario.id,
                warnings: warnings.to_vec(),
                events: session.events().len(),
                report: run,
                transcript: String::new(),
                expected: scenario.expected.clone(),
            }
            .correct()
        }
        Program::Kernel(_) => warnings.is_empty() && !run.truncated && run.faults.is_empty(),
    };
    let problem = (!ok).then(|| format!("{}: wrong classification", name(input, program)));
    (counts, problem)
}

/// One monitored program as a user runs it: `Session::new` to `run`
/// returning. Returns the latency, counts and any oracle failure.
fn run_plain(
    input: &Input,
    program: Program,
) -> Result<(Duration, Counts, Option<String>), String> {
    let started = Instant::now();
    let mut session = Session::new(SessionConfig::default()).map_err(|e| e.to_string())?;
    let spec = start_spec(input, program, &mut session);
    start(&mut session, &spec)?;
    let run = session.run().map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    let (counts, problem) = judge(input, program, &session, session.warnings(), run);
    Ok((elapsed, counts, problem))
}

/// What the traced pass records beside its spans.
#[derive(Default)]
struct TraceSide {
    /// `Secpert::new` of each benchmark-owned expert, us.
    compile_us: Vec<f64>,
    match_stats: MatchStats,
}

/// The same program under spans: the session runs with inline analysis
/// off and an event tap performs the analysis in a benchmark-owned
/// expert, so monitor and analysis self times separate. That expert is
/// compiled before the `session` root opens, so the root covers the
/// same work as an untraced session.
fn run_traced(
    input: &Input,
    program: Program,
    policy: &PolicyConfig,
    side: &mut TraceSide,
) -> Result<(Counts, Option<String>), String> {
    let started = Instant::now();
    let expert = Secpert::new(policy).map_err(|e| e.to_string())?;
    side.compile_us.push(started.elapsed().as_secs_f64() * 1e6);
    let expert = Arc::new(Mutex::new(expert));
    let warnings: Arc<Mutex<Vec<Warning>>> = Arc::default();
    let tap_error: Arc<Mutex<Option<String>>> = Arc::default();
    let config = SessionConfig { analyze_inline: false, ..SessionConfig::default() };
    let root = spans::enter("session", "");
    let mut session =
        spans::timed("session.new", || Session::new(config)).map_err(|e| e.to_string())?;
    {
        let (expert, warnings, tap_error) =
            (Arc::clone(&expert), Arc::clone(&warnings), Arc::clone(&tap_error));
        session.set_event_tap(Box::new(move |event| {
            let tap = spans::enter("tap", event.syscall());
            let mut expert = expert.lock().expect("expert lock");
            match spans::timed("secpert.event", || expert.process_event(event)) {
                Ok(raised) => warnings.lock().expect("warning sink").extend(raised),
                Err(e) => *tap_error.lock().expect("tap error") = Some(e.to_string()),
            }
            drop(expert);
            spans::exit(tap);
        }));
    }
    spans::timed("session.start", || {
        let spec = start_spec(input, program, &mut session);
        start(&mut session, &spec)
    })?;
    let run = spans::timed("session.run", || session.run()).map_err(|e| e.to_string())?;
    spans::exit(root);
    if let Some(e) = tap_error.lock().expect("tap error").take() {
        return Err(e);
    }
    side.match_stats.merge(&expert.lock().expect("expert lock").match_stats());
    let warnings = warnings.lock().expect("warning sink").clone();
    Ok(judge(input, program, &session, &warnings, run))
}

/// The closed loop: runs programs in order, one at a time, for at least
/// `seconds` and in whole rounds, checking each against its oracle and
/// its expected counts: a scenario's warm-up counts, a kernel's exact
/// linear model and the first run of the same size. Returns every
/// run's program and counts, in run order.
fn closed_loop(
    input: &Input,
    seconds: Duration,
    report: &mut Report,
    mut run_one: impl FnMut(Program) -> Result<(Counts, Option<String>), String>,
) -> Result<Vec<(Program, Counts)>, String> {
    let mut expected: BTreeMap<Program, Counts> = input
        .baseline
        .iter()
        .enumerate()
        .map(|(id, counts)| (Program::Scenario(id), counts.clone()))
        .collect();
    let mut runs = Vec::new();
    let deadline = Instant::now() + seconds;
    while Instant::now() < deadline || runs.len() % input.round_len() != 0 {
        let program = input.order[runs.len() % input.order.len()];
        let (counts, problem) = run_one(program)?;
        report.attempted += 1;
        let seen = expected.entry(program).or_insert_with(|| counts.clone());
        if let Some(problem) = problem {
            report.fail(problem);
        } else if *seen != counts {
            report.fail(format!(
                "{}: counts {counts:?} differ from an earlier run's {seen:?}",
                name(input, program)
            ));
        } else if let Program::Kernel(outer) = program {
            if !input.model.predicts(outer, &counts) {
                report.fail(format!(
                    "{}: counts {counts:?} off the kernel model {:?}",
                    name(input, program),
                    input.model
                ));
            }
        }
        runs.push((program, counts));
    }
    Ok(runs)
}

pub fn run(input: &Input, seconds: Duration, trace: bool, setup_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.line(format!(
        "input: {} programs per round ({} corpus scenarios + {KERNELS} compute kernels, outer drawn uniformly from {}..={} per kernel), closed loop, 1 thread, whole rounds",
        input.round_len(),
        input.scenarios.len(),
        OUTER.0,
        OUTER.1
    ));
    let mut latencies = Vec::new();
    let mut probes = Probes::default();
    let runs = closed_loop(input, seconds, &mut report, |program| {
        probes.take(latencies.len());
        let (elapsed, counts, problem) = run_plain(input, program)?;
        latencies.push(elapsed.as_secs_f64() * 1e3);
        Ok((counts, problem))
    })?;
    let instructions: u64 = runs.iter().map(|(_, c)| c.instructions).sum();
    let events: u64 = runs.iter().map(|(_, c)| c.events).sum();
    let session_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.line(format!(
        "timed: {} sessions, {instructions} instructions, {events} events in {session_s:.3} s of sessions; monitored {:.3} Minstr/s",
        latencies.len(),
        instructions as f64 / session_s / 1e6
    ));
    report.line(report::latency_line("session latency, unscaled", &mut latencies.clone()));
    report.line(probes.line());
    let scaled = probes.scale(&latencies, input.round_len());
    let window = input.round_len() * WINDOW_ROUNDS;
    report.latencies("session latency (Session::new -> run returns)", &scaled, window);
    let paired: Vec<(f64, u64)> =
        scaled.iter().zip(&runs).map(|(ms, (_, counts))| (*ms, counts.events)).collect();
    let (rate, _) = report::windowed(&paired, window, |w| {
        w.iter().map(|(_, e)| *e as f64).sum::<f64>()
            / w.iter().map(|(ms, _)| ms / 1e3).sum::<f64>()
    });
    report.set("events_per_s", rate);
    report.set("monitor.mips", instructions as f64 / session_s / 1e6);
    if trace {
        traced(input, seconds, &mut report)?;
    }
    Ok(report)
}

/// Buckets a tap-to-tap gap by the syscall of the event that ends it.
fn gap_bucket(syscall: &str) -> &'static str {
    if syscall.contains("fork") || syscall.contains("clone") {
        "monitor.gap_us.fork"
    } else if syscall.contains("execve") {
        "monitor.gap_us.execve"
    } else {
        "monitor.gap_us.other"
    }
}

/// The traced pass over the same program order, for `seconds`. Each
/// program also runs untraced next to its traced run, so the tracing
/// overhead compares neighbours and host-speed drift cancels; which of
/// the two goes first alternates, so neither always finds the caches
/// warm.
fn traced(input: &Input, seconds: Duration, report: &mut Report) -> Result<(), String> {
    let policy = PolicyConfig::default();
    let mut side = TraceSide::default();
    let mut untraced_ms = Vec::new();
    spans::take();
    let runs = closed_loop(input, seconds, report, |program| {
        let traced_first = untraced_ms.len() % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = Some(run_traced(input, program, &policy, &mut side)?);
        }
        let (elapsed, plain, _) = run_plain(input, program)?;
        untraced_ms.push(elapsed.as_secs_f64() * 1e3);
        let (counts, problem) = match traced {
            Some(done) => done,
            None => run_traced(input, program, &policy, &mut side)?,
        };
        if plain != counts {
            return Err(format!(
                "{}: traced counts {counts:?} differ from untraced {plain:?}",
                name(input, program)
            ));
        }
        Ok((counts, problem))
    })?;
    let sessions = runs.len();
    let instructions: u64 = runs.iter().map(|(_, c)| c.instructions).sum();
    let events: u64 = runs.iter().map(|(_, c)| c.events).sum();
    let memo_hits: u64 = runs.iter().map(|(_, c)| c.memo_hits).sum();
    let memo_lookups: u64 = runs.iter().map(|(_, c)| c.memo_hits + c.memo_misses).sum();
    let spans = spans::take();
    let fold = spans::fold(&spans);
    let (lines, total, layers, residual) = fold.attribution("session");
    report.lines.extend(lines);

    // Monitor self time, split into tap-to-tap gaps by the syscall of
    // the event that ends each gap; the tail after the last event is
    // process exit and teardown.
    let mut gaps: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut prev_end: BTreeMap<usize, u64> = BTreeMap::new();
    for span in &spans {
        if span.name == "tap" {
            let run = span.parent.expect("taps run inside session.run");
            let prev = prev_end.entry(run).or_insert(spans[run].start);
            *gaps.entry(span.tag).or_default() += span.start - *prev;
            *prev = span.end;
        }
    }
    let mut tail = 0u64;
    for (i, span) in spans.iter().enumerate().filter(|(_, s)| s.name == "session.run") {
        tail += span.end - prev_end.get(&i).copied().unwrap_or(span.start);
    }
    let per_session = |ns: u64| ns as f64 / 1e3 / sessions.max(1) as f64;
    let mut buckets: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (syscall, ns) in &gaps {
        *buckets.entry(gap_bucket(syscall)).or_default() += ns;
    }
    buckets.insert("monitor.gap_us.exit", tail);
    for name in [
        "monitor.gap_us.fork",
        "monitor.gap_us.execve",
        "monitor.gap_us.other",
        "monitor.gap_us.exit",
    ] {
        report.set(name, per_session(buckets.get(name).copied().unwrap_or(0)));
    }
    let mut by_syscall: Vec<(&str, u64)> = gaps.iter().map(|(k, v)| (*k, *v)).collect();
    by_syscall.push(("(exit: after the last event)", tail));
    by_syscall.sort_by_key(|b| std::cmp::Reverse(b.1));
    report.line("monitor self time (session.run minus taps) by the syscall ending each gap, us per session:".into());
    for (syscall, ns) in by_syscall.iter().take(8) {
        report.line(format!("  {syscall:<28} {:>12.3}", per_session(*ns)));
    }

    // The largest layers, with monitor self time split into its gaps.
    let mut ranked: Vec<(String, f64)> = fold
        .self_ns
        .keys()
        .filter(|n| **n != "session" && **n != "session.run")
        .map(|n| (n.to_string(), fold.per_root_us(n)))
        .chain(by_syscall.iter().map(|(s, ns)| (format!("monitor gap {s}"), per_session(*ns))))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked.iter().take(4).map(|(n, us)| format!("{n} {us:.1} us")).collect();
    report.line(format!("largest layers per session: {}", top.join(", ")));

    let mut traced_ms = spans::durations_us(&spans, "session");
    traced_ms.iter_mut().for_each(|v| *v /= 1e3);
    let overhead_us = (report::mean(&traced_ms) - report::mean(&untraced_ms)) * 1e3;
    report.line(format!(
        "tracing overhead: {overhead_us:.3} us per session (traced minus untraced mean, each program run untraced next to its traced run, in alternating order)"
    ));

    // Fact build is timed by the probe over the corpus streams, outside
    // the sessions, so the taps do only what inline analysis does.
    let streams = crate::corpus::capture(&input.scenarios)?;
    let streams: Vec<&[hth_core::harrier::SecpertEvent]> =
        streams.iter().map(|s| s.events.as_slice()).collect();
    let probe = crate::corpus::probe(&streams, &policy)?;
    let mut event = spans::durations_us(&spans, "secpert.event");
    report.set("attr.total_us", total);
    report.set("attr.layers_us", layers);
    report.set("attr.residual_us", residual);
    report.set("attr.overhead_us", overhead_us);
    report.set("input.sessions", sessions as f64);
    report.set("input.events", events as f64);
    report.set("input.instructions", instructions as f64);
    report.set("secpert.compile_us", report::median(&mut side.compile_us));
    report.set("session.new_us", fold.per_root_us("session.new"));
    report.set("session.start_us", fold.per_root_us("session.start"));
    report.set("monitor.self_us", fold.per_root_us("session.run"));
    report.set("monitor.instructions", instructions as f64);
    report.set("monitor.events", events as f64);
    report.set("harrier.memo_hits", memo_hits as f64);
    report.set("harrier.memo_hit_ratio", report::ratio(memo_hits, memo_lookups));
    report.set("secpert.analysis_us", fold.per_root_us("secpert.event"));
    report.set("secpert.fact_us", report::mean(&probe.fact_us));
    report.set("secpert.event_us_p50", report::quantile(&mut event, 0.5));
    report.set("secpert.event_us_p99", report::quantile(&mut event, 0.99));
    crate::corpus::record_match(report, &side.match_stats);
    Ok(())
}
