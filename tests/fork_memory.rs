//! Monitoring a process costs what it touches: a fork shares its
//! parent's guest and shadow memory until one side writes, and an exited
//! process leaves no monitor state behind.
//!
//! A counting global allocator measures live heap bytes. The file holds
//! one test, so no other test thread allocates while a figure is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use hth::hth_workloads::all_scenarios;
use hth::{Session, SessionConfig};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak live heap, in KiB,
/// above the live heap when it started.
fn peak_kib<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, (PEAK.load(Relaxed) - base) / 1024)
}

/// A program whose parent forks `n` children that each exit at once.
fn forker(n: u32) -> String {
    format!(
        r"
        _start:
            mov edi, {n}
        fork_loop:
            mov eax, 2          ; fork
            int 0x80
            cmp eax, 0
            je child
            dec edi
            cmp edi, 0
            jne fork_loop
            mov eax, 1
            mov ebx, 0
            int 0x80
        child:
            mov eax, 1          ; exit
            mov ebx, 0
            int 0x80
        "
    )
}

/// Runs `forker(n)` with inline analysis and event recording off, so
/// the figure is the VM, the kernel and the monitor alone. Returns the
/// session with the pids of the children that exited.
fn run_forker(n: u32) -> (Session, Vec<u32>) {
    let config =
        SessionConfig { analyze_inline: false, record_events: false, ..Default::default() };
    let mut session = Session::new(config).expect("policy loads");
    session.kernel.register_binary("/bin/forker", &forker(n), &[]);
    let parent = session.start("/bin/forker", &["forker"], &[]).expect("spawns");
    let report = session.run().expect("runs");
    assert!(!report.truncated && report.faults.is_empty(), "{report:?}");
    let children: Vec<u32> =
        report.exited.iter().map(|&(pid, _)| pid).filter(|&pid| pid != parent).collect();
    assert_eq!(children.len(), n as usize, "every child ran and exited");
    (session, children)
}

#[test]
fn a_process_costs_what_it_touches() {
    // Warm-up: the policy compile and other process-wide caches are
    // built once and then stay.
    drop(run_forker(10));

    // An exited child leaves no monitor state behind.
    let (session, children) = run_forker(3);
    for pid in children {
        assert_eq!(session.harrier().attribution(pid), None, "child {pid} exited via SYS_exit");
    }
    drop(session);

    // Children that exit at once do not accumulate: 2,000 forks peak
    // within 10% of 100 forks. Two records do grow by 8 B a fork and are
    // allowed for: the kernel's fork ticks (the rate rule's input) and
    // the run report's exit statuses, 2,048 slots each at 2,000 forks.
    let records = 2 * 2_048 * 8 / 1024;
    let (_, few) = peak_kib(|| run_forker(100));
    let (_, many) = peak_kib(|| run_forker(2_000));
    eprintln!("fork loop peak: 100 forks {few} KiB, 2,000 forks {many} KiB");
    assert!(
        many <= few + few / 10 + records,
        "2,000 forks peaked at {many} KiB of live heap against {few} KiB for 100"
    );

    // The paper's fork-heavy scenarios cost a small multiple of a
    // one-process scenario.
    let heavy = ["loop_forker", "tree_forker", "superforker", "mw2.2.1_forkbomb"];
    let scenarios: Vec<_> = all_scenarios().into_iter().filter(|s| heavy.contains(&s.id)).collect();
    assert_eq!(scenarios.len(), heavy.len(), "every fork-heavy scenario is in the corpus");
    for scenario in &scenarios {
        let (result, kib) = peak_kib(|| scenario.run().expect("scenario runs"));
        eprintln!("{} peak: {kib} KiB", scenario.id);
        assert!(result.correct(), "{} is still detected", scenario.id);
        assert!(kib < 1_200, "{} peaked at {kib} KiB of live heap", scenario.id);
    }
}
