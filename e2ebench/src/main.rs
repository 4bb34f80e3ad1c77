//! End-to-end benchmark of the HTH pipeline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <monitor|serve_churn|replay|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed before the clock
//! starts, drives the repository's public APIs for `--seconds`, checks
//! every output against an oracle and prints a human-readable report
//! followed by one JSON line (the last line of standard output). With
//! `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run, whose
//! spans are recorded by this benchmark around calls into each layer.
//! See `README.md` beside this file for the metric → layer → workload
//! table.

mod corpus;
mod monitor;
mod probe;
mod replay;
mod report;
mod serve;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::Probes;
use report::Report;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Host-speed probes timed right before and right after each set-up
/// repetition; that repetition is scaled by their median.
const SETUP_PROBES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result
/// with the median wall time in seconds, each repetition scaled to the
/// reference host speed (see `probe.rs`). Inputs are a pure function of
/// the seed, so every repetition must build the same thing; the
/// `fingerprint` of exact counts each setup reports must agree.
fn timed_setup<T>(
    setup: impl Fn() -> Result<T, String>,
    fingerprint: impl Fn(&T) -> String,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut probes = Probes::default();
    let mut last: Option<T> = None;
    for i in 0..SETUP_REPEATS {
        (0..SETUP_PROBES).for_each(|_| probes.take(i));
        let started = Instant::now();
        let built = setup()?;
        times.push(started.elapsed().as_secs_f64());
        (0..SETUP_PROBES).for_each(|_| probes.take(i));
        if let Some(prev) = &last {
            if fingerprint(prev) != fingerprint(&built) {
                return Err(format!(
                    "set-up is not deterministic: {} vs {}",
                    fingerprint(prev),
                    fingerprint(&built)
                ));
            }
        }
        last = Some(built);
    }
    Ok((last.expect("at least one setup ran"), report::median(&mut probes.scale(&times, 1))))
}

/// Runs `f` on a thread of its own pinned to the CPU it starts on; the
/// threads `f` spawns (the replay pool's shard, the daemon's threads)
/// inherit the pin, and the caller's affinity is left as it was.
///
/// A workload's threads then hand work to each other on one vCPU that
/// the workload keeps busy, and the host-speed probe (see `probe.rs`)
/// runs on that vCPU too. Spread over both vCPUs of the 2-vCPU VM this
/// benchmark was built on, every hand-off could wait for the host to
/// wake an idle vCPU: a delay that grows with the host's load, not with
/// the program, and that the probe cannot see. In paired runs while the
/// host was busy, replay's unscaled job p90 read 1.2 to 1.4 times its
/// p50 with the threads free and 1.1 times pinned.
fn on_one_cpu<T: Send>(f: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    extern "C" {
        fn sched_getcpu() -> std::ffi::c_int;
        fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::ffi::c_int;
    }
    let pinned = || {
        // SAFETY: sched_getcpu takes no arguments.
        let cpu = unsafe { sched_getcpu() };
        let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
        // A cpu_set_t of 1024 bits.
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64).ok_or_else(|| format!("CPU {cpu} beyond the affinity mask"))? |=
            1 << (cpu % 64);
        // SAFETY: pid 0 is the calling thread; the mask is `size` bytes
        // long and lives across the call.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            return Err(format!("sched_setaffinity to CPU {cpu} failed"));
        }
        f()
    };
    std::thread::scope(|s| s.spawn(pinned).join())
        .map_err(|_| "pinned thread panicked".to_string())?
}

fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    let seconds = Duration::from_secs(args.seconds);
    let mut report = match name {
        "monitor" => {
            let (input, setup_s) =
                timed_setup(|| monitor::setup(args.seed), monitor::Input::fingerprint)?;
            monitor::run(&input, seconds, args.trace, setup_s)
        }
        "serve_churn" => {
            let (input, setup_s) =
                timed_setup(|| serve::setup(args.seed, args.seconds), serve::Input::fingerprint)?;
            serve::run(input, seconds, args.trace, setup_s)
        }
        "replay" => {
            let (input, setup_s) =
                timed_setup(|| replay::setup(args.seed), replay::Input::fingerprint)?;
            replay::run(&input, seconds, args.trace, setup_s)
        }
        other => return Err(format!("unknown workload {other}")),
    }?;
    report.set("input.seed", args.seed as f64);
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["monitor", "serve_churn", "replay"],
        one => vec![one],
    };
    let mut all_correct = true;
    for name in names {
        match on_one_cpu(|| run_workload(name, &args)) {
            Ok(mut report) => {
                report.set("input.nproc", report::nproc() as f64);
                all_correct &= report.correct();
                report.print(name, args.seed, args.trace);
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
