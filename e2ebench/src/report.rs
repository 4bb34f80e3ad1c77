//! Metric names, statistics helpers and the result printer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload under `--trace 0`.
/// Names and units mirror `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload under `--trace 1`. A
/// layer that does no work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("attr.total_us", "us"),
    ("attr.layers_us", "us"),
    ("attr.residual_us", "us"),
    ("attr.overhead_us", "us"),
    ("tail.latency_ms_p99", "ms"),
    ("input.seed", "count"),
    ("input.nproc", "count"),
    ("input.sessions", "count"),
    ("input.events", "count"),
    ("input.instructions", "count"),
    ("secpert.compile_us", "us"),
    ("session.new_us", "us"),
    ("session.start_us", "us"),
    ("monitor.self_us", "us"),
    ("monitor.gap_us.fork", "us"),
    ("monitor.gap_us.execve", "us"),
    ("monitor.gap_us.other", "us"),
    ("monitor.gap_us.exit", "us"),
    ("monitor.instructions", "count"),
    ("monitor.events", "count"),
    ("monitor.mips", "Minstr/s"),
    ("harrier.memo_hits", "count"),
    ("harrier.memo_hit_ratio", "ratio"),
    ("secpert.analysis_us", "us"),
    ("secpert.event_us_p50", "us"),
    ("secpert.event_us_p99", "us"),
    ("secpert.fact_us", "us"),
    ("match.alpha_tests", "count"),
    ("match.alpha_hit_ratio", "ratio"),
    ("match.join_attempts", "count"),
    ("match.join_hit_ratio", "ratio"),
    ("match.index_lookups", "count"),
    ("match.index_hit_ratio", "ratio"),
    ("match.activations", "count"),
    ("match.tokens_live", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("journal.bytes_per_event", "B"),
    ("pool.new_us", "us"),
    ("pool.submit_blocked_us", "us"),
    ("pool.drain_us", "us"),
    ("pool.high_water", "count"),
    ("pool.lost", "count"),
    ("serve.queue_us", "us"),
    ("serve.rtt_us_p50", "us"),
    ("serve.rtt_us_p99", "us"),
    ("serve.server_us_p50", "us"),
    ("serve.server_us_p99", "us"),
    ("serve.open_ack_us_p99", "us"),
    ("serve.open_acks", "count"),
    ("table.open_us", "us"),
    ("table.close_us", "us"),
    ("table.submit_resident_us", "us"),
    ("table.submit_revive_us", "us"),
    ("table.submits", "count"),
    ("table.evictions", "count"),
    ("table.restores", "count"),
    ("table.revive_ratio", "ratio"),
    ("table.resident_high_water", "count"),
    ("secpert.snapshot_us", "us"),
    ("secpert.restore_us", "us"),
    ("secpert.snapshot_bytes", "B"),
    ("digest.observe_ns", "ns"),
    ("correlate.pass_ms", "ms"),
    ("gen.late_ms_max", "ms"),
    ("gen.requests", "count"),
    ("gen.offered_per_s", "1/s"),
];

/// What one workload run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// Operations attempted (sessions, requests or jobs).
    pub attempted: u64,
    /// Operations whose output failed its oracle.
    pub failed: u64,
    /// Why the run is not valid (first few failures, backlog flags).
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric value. The name must be one of
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.problem(reason);
    }

    /// Marks the run invalid without counting an operation as failed.
    pub fn problem(&mut self, reason: String) {
        if self.problems.len() < 8 {
            self.problems.push(reason);
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints and records one workload's latency distribution (ms), in
    /// run order. The end-to-end p50 and p90 are medians over windows of
    /// `window` consecutive operations (about a second of work) of each
    /// window's own p50 and p90: a host stall or slow spell of a few
    /// seconds then moves a minority of windows instead of the pooled
    /// quantile. The p99 is pooled over the whole run.
    pub fn latencies(&mut self, label: &str, values_ms: &[f64], window: usize) {
        let mut sorted = values_ms.to_vec();
        self.line(latency_line(label, &mut sorted));
        let (p50, windows) = windowed(values_ms, window, |w| quantile(&mut w.to_vec(), 0.5));
        let (p90, _) = windowed(values_ms, window, |w| quantile(&mut w.to_vec(), 0.9));
        self.line(format!(
            "{label}, median over {windows} windows of {window}: p50 {p50:.4} ms, p90 {p90:.4} ms"
        ));
        self.set("latency_ms_p50", p50);
        self.set("latency_ms_p90", p90);
        self.set("tail.latency_ms_p99", quantile(&mut sorted, 0.99));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!("== workload {workload} (seed {seed}, nproc {}) ==", nproc());
        for line in &self.lines {
            println!("{line}");
        }
        for problem in &self.problems {
            println!("FAIL: {problem}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_ratio {ratio} fraction ({} failed / {} attempted)",
            self.failed, self.attempted
        );
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// Median over consecutive windows of `window` items of `stat` applied
/// to each, and the number of windows. A last, partial window counts
/// only when it is the only one.
pub fn windowed<T>(items: &[T], window: usize, stat: impl Fn(&[T]) -> f64) -> (f64, usize) {
    let mut stats: Vec<f64> = items.chunks_exact(window.max(1)).map(&stat).collect();
    if stats.is_empty() && !items.is_empty() {
        stats.push(stat(items));
    }
    (median(&mut stats), stats.len())
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (sorts in place); 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Samples beyond the `q` quantile, so a report can say whether the
/// percentile has at least ten samples behind it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Summary line for one latency distribution: median, p90 and p99 with
/// the sample count, flagging a p99 that has fewer than ten samples
/// beyond.
pub fn latency_line(label: &str, values_ms: &mut [f64]) -> String {
    let n = values_ms.len();
    let p50 = quantile(values_ms, 0.5);
    let p90 = quantile(values_ms, 0.9);
    let p99 = quantile(values_ms, 0.99);
    let tail = beyond(n, 0.99);
    let warn = if tail < 10 { " (fewer than 10 samples beyond p99)" } else { "" };
    format!(
        "{label}: p50 {p50:.4} ms, p90 {p90:.4} ms, p99 {p99:.4} ms over {n} samples, {} beyond p90, {tail} beyond p99{warn}",
        beyond(n, 0.9)
    )
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A small seeded generator (SplitMix64): the only source of
/// randomness in the benchmark, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
