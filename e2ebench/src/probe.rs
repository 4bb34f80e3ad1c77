//! Host-speed probe: a fixed computation of the benchmark's own, timed
//! between the workload's operations, so the end-to-end timings can be
//! stated at one reference host speed.
//!
//! The 2-vCPU VM this benchmark was built on switches between a fast
//! and a slow state every few seconds; in the slow state everything,
//! the probe included, runs about 1.5 times longer, and the share of a
//! run spent there differs from run to run. Each operation's time is
//! therefore scaled by `REFERENCE_MS / p`, where `p` is the median probe
//! time over the operation's window of about half a second. The probe
//! runs no repository code, so a change to the program moves the scaled
//! figures exactly as it moves the raw ones.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report;

/// Keys the probe inserts: about a tenth of a millisecond of map
/// inserts, string formatting and small allocations, the kind of work
/// policy compiles and fact building do.
const KEYS: u64 = 250;

/// The probe's time, ms, in the fast state of the VM the benchmark was
/// built on. Scaled timings read as milliseconds on that host in that
/// state.
pub const REFERENCE_MS: f64 = 0.1;

fn work() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("rule_{}_{i}", x % 5000), vec![x; (x % 8) as usize]);
    }
    map.values().map(|v| v.len() as u64).sum::<u64>() + map.len() as u64
}

/// Runs the probe once and returns its wall time, ms.
pub fn time_ms() -> f64 {
    let started = Instant::now();
    std::hint::black_box(work());
    started.elapsed().as_secs_f64() * 1e3
}

/// Probe times taken during a run, each with the index of the
/// operation it ran before.
#[derive(Default)]
pub struct Probes(Vec<(usize, f64)>);

impl Probes {
    /// Times the probe before operation `op`.
    pub fn take(&mut self, op: usize) {
        self.0.push((op, time_ms()));
    }

    pub fn median_ms(&self) -> f64 {
        report::median(&mut self.0.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }

    /// Scales `values` (one per operation, in run order) to the
    /// reference speed, window by window of `window` operations. A
    /// window without a probe uses the median of the whole run.
    pub fn scale(&self, values: &[f64], window: usize) -> Vec<f64> {
        let window = window.max(1);
        let mut by_window: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (op, ms) in &self.0 {
            by_window.entry(op / window).or_default().push(*ms);
        }
        let whole = self.median_ms();
        let speed: BTreeMap<usize, f64> =
            by_window.into_iter().map(|(w, mut ms)| (w, report::median(&mut ms))).collect();
        values
            .iter()
            .enumerate()
            .map(|(i, v)| v * REFERENCE_MS / speed.get(&(i / window)).copied().unwrap_or(whole))
            .collect()
    }

    /// One line for the report: how many probes ran and their spread.
    pub fn line(&self) -> String {
        let mut ms: Vec<f64> = self.0.iter().map(|(_, ms)| *ms).collect();
        let q1 = report::quantile(&mut ms, 0.25);
        let q3 = report::quantile(&mut ms, 0.75);
        format!(
            "host-speed probe: {} runs, median {:.4} ms (quartiles {q1:.4}, {q3:.4}); timings below are scaled to the reference {REFERENCE_MS} ms",
            ms.len(),
            report::median(&mut ms)
        )
    }
}
