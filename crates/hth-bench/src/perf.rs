//! §9 — performance evaluation.
//!
//! The paper reports that data-flow tracking dominates Harrier's
//! overhead (its prototype was "very naive"; DOG's 5.5× is cited as the
//! state of the art). This module reproduces the *shape*: a
//! compute-heavy workload runs under increasing monitor configurations —
//! bare interpreter, syscall-events-only, +BB frequency, +full dataflow
//! — and the slowdown relative to the bare run is reported.

use std::time::Instant;

use emukernel::Kernel;
use harrier::HarrierConfig;
use hth_core::{Session, SessionConfig};
use hth_vm::{NullHooks, StepEvent};

use crate::report::Table;

/// The compute-heavy workload: a memory-copy/arithmetic kernel with a
/// few syscalls sprinkled in (so every configuration has events to
/// process), sized by `outer` loop iterations.
pub fn workload_source(outer: u32) -> String {
    format!(
        r#"
        .equ BUF, 0x09000000
        _start:
            mov edi, {outer}        ; outer loop
        outer_loop:
            mov ecx, 0
        inner_loop:
            ; load-modify-store over a 64-byte window
            mov eax, [BUF+0]
            add eax, ecx
            mov [BUF+4], eax
            mov eax, [BUF+4]
            xor eax, 0x5a5a5a5a
            mov [BUF+8], eax
            mov eax, [BUF+8]
            imul eax, 3
            mov [BUF+12], eax
            inc ecx
            cmp ecx, 40
            jne inner_loop
            ; one syscall per outer iteration
            mov eax, 13             ; time()
            int 0x80
            dec edi
            cmp edi, 0
            jne outer_loop
            mov eax, 4              ; write a footer to stdout
            mov ebx, 1
            mov ecx, msg
            mov edx, 5
            int 0x80
            mov eax, 1
            mov ebx, 0
            int 0x80
        .data
        msg: .asciz "done\n"
        "#
    )
}

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Configuration name.
    pub config: &'static str,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Million instructions per second.
    pub mips: f64,
    /// Slowdown relative to the bare run.
    pub slowdown: f64,
}

fn run_bare(outer: u32) -> (u64, f64) {
    let mut kernel = Kernel::new();
    kernel.register_binary("/bench/compute", &workload_source(outer), &[]);
    let mut proc = kernel.spawn("/bench/compute", &["/bench/compute"], &[]).expect("spawns");
    let start = Instant::now();
    loop {
        match proc.core.step(&mut NullHooks).expect("no faults") {
            StepEvent::Continue => {}
            StepEvent::Halted => break,
            StepEvent::Interrupt(0x80) => {
                if !{
                    kernel.syscall(&mut proc);
                    proc.runnable()
                } {
                    break;
                }
            }
            StepEvent::Interrupt(_) => break,
        }
    }
    (proc.core.instret(), start.elapsed().as_secs_f64())
}

fn run_session(outer: u32, harrier: HarrierConfig) -> (u64, f64) {
    let config = SessionConfig {
        harrier,
        max_instructions: u64::MAX / 2,
        record_events: false,
        ..SessionConfig::default()
    };
    let mut session = Session::new(config).expect("policy loads");
    session.kernel.register_binary("/bench/compute", &workload_source(outer), &[]);
    session.start("/bench/compute", &["/bench/compute"], &[]).expect("spawns");
    let start = Instant::now();
    session.run().expect("runs");
    (session.instructions(), start.elapsed().as_secs_f64())
}

/// Runs the four-configuration ablation.
pub fn ablation(outer: u32) -> Vec<PerfRow> {
    let configs: [(&'static str, Option<HarrierConfig>); 4] = [
        ("bare interpreter (no monitor)", None),
        (
            "HTH: syscall events only",
            Some(HarrierConfig {
                track_dataflow: false,
                track_bb_freq: false,
                ..HarrierConfig::default()
            }),
        ),
        (
            "HTH: + BB frequency",
            Some(HarrierConfig { track_dataflow: false, ..HarrierConfig::default() }),
        ),
        ("HTH: + full data flow", Some(HarrierConfig::default())),
    ];
    let mut rows = Vec::new();
    let mut base_seconds = None;
    for (name, harrier) in configs {
        let (instructions, seconds) = match harrier {
            None => run_bare(outer),
            Some(h) => run_session(outer, h),
        };
        let base = *base_seconds.get_or_insert(seconds);
        rows.push(PerfRow {
            config: name,
            instructions,
            seconds,
            mips: instructions as f64 / seconds / 1.0e6,
            slowdown: seconds / base,
        });
    }
    rows
}

/// Renders the ablation as a table.
pub fn perf_table(outer: u32) -> Table {
    let mut t = Table::new(
        "Section 9: Monitoring overhead ablation (slowdown vs bare interpreter)",
        &["Configuration", "Instructions", "Seconds", "MIPS", "Slowdown"],
    );
    for row in ablation(outer) {
        t.row(&[
            row.config,
            &row.instructions.to_string(),
            &format!("{:.4}", row.seconds),
            &format!("{:.2}", row.mips),
            &format!("{:.2}x", row.slowdown),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shape_matches_paper() {
        // Small workload: check ordering, not absolute numbers. Each run
        // takes well under a millisecond, so one host stall could flip
        // the order; keep each configuration's fastest of five runs (a
        // stall only ever adds time).
        let mut rows = ablation(40);
        for _ in 1..5 {
            for (best, row) in rows.iter_mut().zip(ablation(40)) {
                best.seconds = best.seconds.min(row.seconds);
            }
        }
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].slowdown, 1.0);
        // All configurations retire the same workload instructions.
        for row in &rows[1..] {
            assert_eq!(row.instructions, rows[0].instructions);
        }
        // Full dataflow must be the most expensive monitored config —
        // the paper's headline claim (§9).
        let full = rows[3].seconds;
        assert!(
            full >= rows[1].seconds && full >= rows[2].seconds,
            "dataflow should dominate: {rows:?}"
        );
    }
}
