//! The sharded analyst pool: N worker threads, each owning a private
//! [`Secpert`] engine, fed through bounded per-shard queues — and
//! supervised, because a production analyst must outlive a misbehaving
//! event.
//!
//! Sessions are hashed to shards, so every event of one session is
//! analysed by the same engine in submission order — the property the
//! per-session warning sequence depends on — while different sessions
//! scale across engines. Queues are bounded; what happens at the bound
//! is an explicit [`Backpressure`] policy:
//!
//! * [`Backpressure::Block`] — the submitting thread waits (lossless,
//!   the default; monitoring throttles to analysis speed, paper §6.1.2's
//!   synchronous protocol generalised),
//! * [`Backpressure::DropOldest`] — the oldest queued event is evicted
//!   and counted (lossy, bounded latency; drop counters surface in
//!   [`ShardStats`]).
//!
//! Each analyst takes every queued event per lock crossing and hands
//! its engine one event per [`Secpert::process_event`] call, the way
//! paper §6.1.2 has Harrier hand Secpert one event at a time; the
//! queue bound is the only cap on a run. This module is the only code
//! that knows how a shard feeds its engine.
//!
//! Supervision: a panic inside the engine (or injected by a
//! [`FaultPlan`]) is caught with `catch_unwind`, the offending event is
//! *quarantined* (counted, described, optionally kept, and captured in
//! a diagnostic bundle from the shard's always-on [`FlightRecorder`]),
//! and the shard respawns a fresh `Secpert` — up to
//! [`PoolConfig::max_respawns`] times. Past the budget the shard
//! degrades to drain-and-discard so blocked submitters can never
//! deadlock on a dead analyst. Every loss path has a counter:
//! `submitted == analysed + dropped + quarantined + discarded` holds
//! for every shard, always.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use harrier::SecpertEvent;
use hth_core::{DigestBuilder, PolicyConfig, Secpert, SessionDigest, Warning};
use hth_trace::{DiagLevel, DiagnosticBundle, FlightRecorder, MetricsSnapshot, Trigger};
use secpert_engine::{EngineError, MatchStats};

use crate::digest_wire::{read_digest_stream, write_digest_stream};
use crate::faults::FaultPlan;

/// Identifies one monitored session within a fleet (used only for shard
/// routing and reporting; the kernel-level pid lives inside the event).
pub type SessionId = u64;

/// What `submit` does when a shard queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitter until the analyst drains a slot (lossless).
    #[default]
    Block,
    /// Evict the oldest queued event and count the drop (lossy).
    DropOldest,
}

/// Pool sizing, backpressure and supervision policy.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of analyst shards (worker threads / Secpert engines).
    pub shards: usize,
    /// Per-shard queue bound, in events. An analyst takes its whole
    /// queue per lock crossing, so a shard holds at most twice this
    /// many events: the queue, plus the run it is analysing. Under
    /// [`Backpressure::DropOldest`], only queued events can be evicted.
    pub queue_capacity: usize,
    /// Policy when a queue is full.
    pub backpressure: Backpressure,
    /// How many times a shard may respawn a fresh engine after a panic
    /// before degrading to drain-and-discard.
    pub max_respawns: u32,
    /// Deterministic fault injection (chaos testing); `None` in
    /// production.
    pub faults: Option<Arc<FaultPlan>>,
    /// Keep every lost event (dropped, quarantined, discarded) in the
    /// final report — exact loss accounting for tests; off by default
    /// because it is unbounded memory under sustained loss.
    pub keep_lost_events: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            shards: 4,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            max_respawns: 3,
            faults: None,
            keep_lost_events: false,
        }
    }
}

/// Per-shard counters, surfaced in the final report. Invariant:
/// `submitted == events + dropped + quarantined + discarded`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to this shard.
    pub submitted: u64,
    /// Events analysed by this shard.
    pub events: u64,
    /// Events evicted under [`Backpressure::DropOldest`].
    pub dropped: u64,
    /// Events quarantined after panicking the engine.
    pub quarantined: u64,
    /// Events drained unanalysed after the shard failed (engine error,
    /// respawn budget exhausted, or respawn failure).
    pub discarded: u64,
    /// Fresh engines spawned after panics.
    pub respawns: u32,
    /// Queue-depth high-water mark.
    pub high_water: usize,
    /// Warnings this shard's engine issued.
    pub warnings: usize,
    /// Match-network counters, merged across this shard's engines
    /// (respawns replace the engine; each one's work is accumulated
    /// before it is dropped).
    pub match_stats: MatchStats,
}

impl ShardStats {
    /// Events that never reached an analysis: dropped + quarantined +
    /// discarded.
    pub fn lost(&self) -> u64 {
        self.dropped + self.quarantined + self.discarded
    }
}

/// Everything a drained pool knows.
#[derive(Debug, Default)]
pub struct PoolReport {
    /// All warnings, grouped by shard in shard order (within a shard:
    /// analysis order).
    pub warnings: Vec<Warning>,
    /// Total events submitted across all shards.
    pub submitted: u64,
    /// Total events analysed.
    pub events: u64,
    /// Total events evicted under [`Backpressure::DropOldest`].
    pub dropped: u64,
    /// Total events quarantined after engine panics.
    pub quarantined: u64,
    /// Total events drained unanalysed by failed shards.
    pub discarded: u64,
    /// Fresh engines spawned after panics, across all shards.
    pub respawns: u32,
    /// Per-shard counters.
    pub shards: Vec<ShardStats>,
    /// Shard failures: engine errors, panic descriptions past the
    /// respawn budget, respawn failures, worker-thread losses.
    pub errors: Vec<String>,
    /// One line per quarantined event: which shard, which event, what
    /// the panic said.
    pub quarantine_log: Vec<String>,
    /// The lost events themselves (with the session they belonged to),
    /// when [`PoolConfig::keep_lost_events`] was set (dropped +
    /// quarantined + discarded, in no particular global order).
    pub lost_events: Vec<(SessionId, SecpertEvent)>,
    /// Match-network counters aggregated across all shards.
    pub match_stats: MatchStats,
    /// One digest per session, in session order: what each shard's
    /// analyst actually observed, shipped over the digest wire codec
    /// and merged here. Labels registered via
    /// [`AnalystPool::set_label`] are applied; unlabelled sessions keep
    /// an empty label (the correlator renders them `session-<id>`).
    pub digests: Vec<SessionDigest>,
    /// Diagnostic bundles captured during the run (one per
    /// quarantine), in shard order; each `id` is its index here.
    pub bundles: Vec<DiagnosticBundle>,
}

impl PoolReport {
    /// Total events that never reached an analysis.
    pub fn lost(&self) -> u64 {
        self.dropped + self.quarantined + self.discarded
    }
}

struct QueueState {
    deque: VecDeque<(SessionId, SecpertEvent)>,
    closed: bool,
    submitted: u64,
    dropped: u64,
    high_water: usize,
    /// Evicted events, kept only under `keep_lost_events`.
    evicted: Vec<(SessionId, SecpertEvent)>,
}

struct ShardQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Mutex poisoning cannot corrupt the queue invariants (no code path
/// panics while holding the lock with the state half-updated), so a
/// poisoned lock is recovered rather than propagated — the total error
/// path the pool's report depends on.
fn lock_state(queue: &ShardQueue) -> MutexGuard<'_, QueueState> {
    queue.state.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct ShardOutcome {
    warnings: Vec<Warning>,
    events: u64,
    quarantined: u64,
    discarded: u64,
    respawns: u32,
    errors: Vec<String>,
    quarantine_log: Vec<String>,
    lost_events: Vec<(SessionId, SecpertEvent)>,
    match_stats: MatchStats,
    /// Digest builders for the sessions this shard analysed; serialised
    /// into `digest_stream` when the shard drains.
    digests: BTreeMap<SessionId, DigestBuilder>,
    /// The shard's digests as a wire stream (header + CRC frames) —
    /// the same bytes a remote shard would ship to a correlator.
    digest_stream: Vec<u8>,
    /// Diagnostic bundles this shard captured (one per quarantine).
    bundles: Vec<DiagnosticBundle>,
}

impl ShardOutcome {
    fn digest(&mut self, session: SessionId) -> &mut DigestBuilder {
        self.digests.entry(session).or_insert_with(|| DigestBuilder::new(session, ""))
    }
}

/// The pool: construct, `submit` events, then `finish` to drain and
/// join. Submission is `&self`, so the pool can be shared across
/// monitoring threads behind an [`Arc`].
pub struct AnalystPool {
    queues: Vec<Arc<ShardQueue>>,
    workers: Vec<JoinHandle<ShardOutcome>>,
    capacity: usize,
    backpressure: Backpressure,
    keep_lost_events: bool,
    /// Program labels for the final digests, registered by whoever
    /// knows what a session *is* (the fleet runner's scenario id, a
    /// serve client's hello). Workers never read this — labels are
    /// applied when the digests are merged in [`AnalystPool::finish`].
    labels: Mutex<BTreeMap<SessionId, String>>,
}

impl AnalystPool {
    /// Builds the pool: one [`Secpert`] per shard (constructed up front,
    /// so policy errors surface here, not in a worker), one worker
    /// thread per shard.
    ///
    /// # Errors
    ///
    /// Propagates policy-load failures from any shard's engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero.
    pub fn new(config: &PoolConfig, policy: &PolicyConfig) -> Result<AnalystPool, EngineError> {
        assert!(config.shards > 0, "a pool needs at least one shard");
        assert!(config.queue_capacity > 0, "queue capacity must be non-zero");
        let mut engines = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            engines.push(Secpert::new(policy)?);
        }
        let queues: Vec<Arc<ShardQueue>> = (0..config.shards)
            .map(|_| {
                Arc::new(ShardQueue {
                    state: Mutex::new(QueueState {
                        deque: VecDeque::new(),
                        closed: false,
                        submitted: 0,
                        dropped: 0,
                        high_water: 0,
                        evicted: Vec::new(),
                    }),
                    not_empty: Condvar::new(),
                    not_full: Condvar::new(),
                })
            })
            .collect();
        let workers = engines
            .into_iter()
            .zip(&queues)
            .enumerate()
            .map(|(shard, (engine, queue))| {
                let queue = Arc::clone(queue);
                let supervisor = Supervisor {
                    shard,
                    policy: policy.clone(),
                    faults: config.faults.clone(),
                    max_respawns: config.max_respawns,
                    keep_lost_events: config.keep_lost_events,
                    flight: FlightRecorder::default(),
                };
                std::thread::spawn(move || analyst_loop(engine, &queue, supervisor))
            })
            .collect();
        Ok(AnalystPool {
            queues,
            workers,
            capacity: config.queue_capacity,
            backpressure: config.backpressure,
            keep_lost_events: config.keep_lost_events,
            labels: Mutex::new(BTreeMap::new()),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Registers the program label a session's digest will carry (the
    /// correlator's "distinct programs" dimension). Idempotent; last
    /// writer wins.
    pub fn set_label(&self, session: SessionId, label: &str) {
        self.labels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(session, label.to_string());
    }

    /// The shard a session's events are routed to (Fibonacci hashing on
    /// the session id, stable for the life of the pool).
    pub fn shard_of(&self, session: SessionId) -> usize {
        (session.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.queues.len()
    }

    /// Enqueues one event for the session's shard, applying the
    /// configured backpressure policy if that queue is full. Total: a
    /// panicked or degraded analyst keeps draining its queue, so this
    /// never deadlocks and never panics.
    pub fn submit(&self, session: SessionId, event: SecpertEvent) {
        let queue = &self.queues[self.shard_of(session)];
        let mut state = lock_state(queue);
        debug_assert!(!state.closed, "submit after finish");
        state.submitted += 1;
        if state.deque.len() >= self.capacity {
            match self.backpressure {
                Backpressure::Block => {
                    while state.deque.len() >= self.capacity && !state.closed {
                        state = queue.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
                Backpressure::DropOldest => {
                    if let Some(evicted) = state.deque.pop_front() {
                        state.dropped += 1;
                        if self.keep_lost_events {
                            state.evicted.push(evicted);
                        }
                    }
                }
            }
        }
        state.deque.push_back((session, event));
        state.high_water = state.high_water.max(state.deque.len());
        drop(state);
        queue.not_empty.notify_one();
    }

    /// Enqueues a buffer of events for the session's shard under a
    /// single lock crossing, preserving submission order and applying
    /// the backpressure policy per event — byte-identical outcomes to
    /// the same events submitted one [`AnalystPool::submit`] at a time.
    /// Drains `events`, leaving the buffer empty (capacity retained)
    /// for reuse.
    pub fn submit_batch(&self, session: SessionId, events: &mut Vec<SecpertEvent>) {
        if events.is_empty() {
            return;
        }
        let queue = &self.queues[self.shard_of(session)];
        let mut state = lock_state(queue);
        debug_assert!(!state.closed, "submit after finish");
        for event in events.drain(..) {
            state.submitted += 1;
            if state.deque.len() >= self.capacity {
                match self.backpressure {
                    Backpressure::Block => {
                        while state.deque.len() >= self.capacity && !state.closed {
                            // The analyst may have gone to sleep before
                            // this batch arrived; wake it before parking,
                            // or both sides wait forever.
                            queue.not_empty.notify_one();
                            state =
                                queue.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    Backpressure::DropOldest => {
                        if let Some(evicted) = state.deque.pop_front() {
                            state.dropped += 1;
                            if self.keep_lost_events {
                                state.evicted.push(evicted);
                            }
                        }
                    }
                }
            }
            state.deque.push_back((session, event));
            state.high_water = state.high_water.max(state.deque.len());
        }
        drop(state);
        queue.not_empty.notify_one();
    }

    /// Closes every queue, waits for the analysts to drain them, and
    /// aggregates the outcome. Total: worker panics (which `catch_unwind`
    /// should make impossible) are reported as errors, not propagated.
    pub fn finish(self) -> PoolReport {
        for queue in &self.queues {
            lock_state(queue).closed = true;
            queue.not_empty.notify_all();
            queue.not_full.notify_all();
        }
        let mut report = PoolReport::default();
        let mut digests: BTreeMap<SessionId, SessionDigest> = BTreeMap::new();
        for (shard, (queue, worker)) in self.queues.iter().zip(self.workers).enumerate() {
            let outcome = worker.join().unwrap_or_else(|panic| {
                let mut outcome = ShardOutcome::default();
                outcome
                    .errors
                    .push(format!("shard {shard}: worker lost ({})", describe_panic(&*panic)));
                outcome
            });
            let mut state = lock_state(queue);
            // A lost worker leaves its queue undrained; account the
            // leftovers as discarded so the submit invariant holds.
            let leftovers = state.deque.len() as u64;
            let leftover_events: Vec<(SessionId, SecpertEvent)> = state.deque.drain(..).collect();
            let evicted = std::mem::take(&mut state.evicted);
            let stats = ShardStats {
                submitted: state.submitted,
                events: outcome.events,
                dropped: state.dropped,
                quarantined: outcome.quarantined,
                discarded: outcome.discarded + leftovers,
                respawns: outcome.respawns,
                high_water: state.high_water,
                warnings: outcome.warnings.len(),
                match_stats: outcome.match_stats,
            };
            drop(state);
            report.submitted += stats.submitted;
            report.events += stats.events;
            report.dropped += stats.dropped;
            report.quarantined += stats.quarantined;
            report.discarded += stats.discarded;
            report.respawns += stats.respawns;
            report.match_stats.merge(&stats.match_stats);
            report.shards.push(stats);
            report.errors.extend(outcome.errors);
            report.quarantine_log.extend(outcome.quarantine_log);
            if self.keep_lost_events {
                report.lost_events.extend(evicted);
                report.lost_events.extend(outcome.lost_events);
                report.lost_events.extend(leftover_events);
            }
            report.warnings.extend(outcome.warnings);
            for mut bundle in outcome.bundles {
                bundle.id = report.bundles.len() as u64;
                report.bundles.push(bundle);
            }
            // Decode the shard's digest stream exactly as a remote
            // correlator would. A shard whose stream fails to decode is
            // a codec bug, not an event-loss path: report it loudly.
            match read_digest_stream(&outcome.digest_stream) {
                Ok(decoded) => {
                    for digest in decoded {
                        match digests.get_mut(&digest.session) {
                            Some(existing) => existing.merge(&digest),
                            None => {
                                digests.insert(digest.session, digest);
                            }
                        }
                    }
                }
                Err(e) => {
                    if !outcome.digest_stream.is_empty() {
                        report.errors.push(format!("shard {shard}: digest stream corrupt: {e}"));
                    }
                }
            }
        }
        let labels = self.labels.lock().unwrap_or_else(PoisonError::into_inner);
        for (session, digest) in &mut digests {
            if let Some(label) = labels.get(session) {
                digest.label = label.clone();
            }
        }
        report.digests = digests.into_values().collect();
        report
    }
}

fn describe_panic(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct Supervisor {
    shard: usize,
    policy: PolicyConfig,
    faults: Option<Arc<FaultPlan>>,
    max_respawns: u32,
    keep_lost_events: bool,
    /// The shard's always-on flight recorder.
    flight: FlightRecorder,
}

enum Analyst {
    /// Healthy: events go through the engine.
    Running(Box<Secpert>),
    /// Degraded: events are drained and discarded (engine error, respawn
    /// budget exhausted, or respawn failure) so submitters never block
    /// on a dead shard.
    Failed,
}

/// One analyst worker: take every queued event per queue-lock crossing
/// (the queue bound caps how many), then feed the private engine one
/// event per call under a panic supervisor. Runs until the queue is
/// closed *and* empty — even a failed shard keeps draining, which is
/// what makes `Backpressure::Block` deadlock-free.
fn analyst_loop(engine: Secpert, queue: &ShardQueue, supervisor: Supervisor) -> ShardOutcome {
    let _span = hth_trace::span("pool.analyst");
    let mut outcome = ShardOutcome::default();
    let mut analyst = Analyst::Running(Box::new(engine));
    let mut nth = 0u64;
    // Swapped with the queue's deque on every crossing, so both keep
    // their capacity and the lock is held for O(1) work.
    let mut run: VecDeque<(SessionId, SecpertEvent)> = VecDeque::new();
    loop {
        {
            let mut state = lock_state(queue);
            while state.deque.is_empty() && !state.closed {
                state = queue.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::swap(&mut state.deque, &mut run);
        }
        if run.is_empty() {
            // Closed and drained: fold the live engine's match counters
            // into the outcome before the engine is dropped, then ship
            // the shard's digests as one wire stream.
            if let Analyst::Running(engine) = &analyst {
                outcome.match_stats.merge(&engine.match_stats());
            }
            let digests: Vec<SessionDigest> = std::mem::take(&mut outcome.digests)
                .into_values()
                .map(DigestBuilder::finish)
                .collect();
            outcome.digest_stream = write_digest_stream(&digests);
            return outcome;
        }
        match run.len() {
            1 => queue.not_full.notify_one(),
            _ => queue.not_full.notify_all(),
        }
        let drained_at = std::time::Instant::now();
        for (session, event) in run.drain(..) {
            nth += 1;
            process(&mut analyst, &mut outcome, &supervisor, session, event, nth);
        }
        supervisor.flight.stage("pool.batch", drained_at.elapsed().as_nanos() as u64);
    }
}

/// One metrics snapshot of a shard's counters for a diagnostic bundle:
/// the outcome's accumulated match stats plus the live engine's (the
/// outcome only banks an engine's counters when it is retired).
fn shard_stats_snapshot(stats: &mut MetricsSnapshot, outcome: &ShardOutcome, analyst: &Analyst) {
    let mut match_stats = outcome.match_stats;
    if let Analyst::Running(engine) = analyst {
        match_stats.merge(&engine.match_stats());
    }
    match_stats.record_metrics(stats);
    stats.add_counter("hth_pool_events", outcome.events);
    stats.add_counter("hth_pool_quarantined", outcome.quarantined);
    stats.add_counter("hth_pool_discarded", outcome.discarded);
    stats.add_counter("hth_pool_respawns", u64::from(outcome.respawns));
    stats.add_counter("hth_pool_warnings", outcome.warnings.len() as u64);
}

/// Feeds the shard's `nth` event through the analyst: the injected
/// stall if the fault plan has one, then one engine call under
/// `catch_unwind`. The event lands in exactly one of analysed,
/// discarded (the shard is degraded, or the engine returned an error)
/// and quarantined (the engine panicked).
fn process(
    analyst: &mut Analyst,
    outcome: &mut ShardOutcome,
    supervisor: &Supervisor,
    session: SessionId,
    event: SecpertEvent,
    nth: u64,
) {
    let shard = supervisor.shard;
    let faults = supervisor.faults.as_deref();
    if let Some(stall) = faults.and_then(|f| f.stall(shard, nth)) {
        std::thread::sleep(stall);
    }
    let Analyst::Running(engine) = &mut *analyst else {
        outcome.discarded += 1;
        if supervisor.keep_lost_events {
            outcome.lost_events.push((session, event));
        }
        return;
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if faults.is_some_and(|f| f.should_panic(shard, nth)) {
            // Unwinds with a panic's `String` payload but without the
            // panic hook: an injected fault's only report is the
            // quarantine's own diagnostics.
            resume_unwind(Box::new(format!("injected fault: shard {shard} event {nth}")));
        }
        engine.process_event(&event)
    }));
    match result {
        Ok(Ok(warnings)) => {
            outcome.events += 1;
            supervisor.flight.record(
                session,
                event.time(),
                "event",
                event.syscall(),
                event.resource_name(),
            );
            let digest = outcome.digest(session);
            digest.observe(&event);
            for warning in &warnings {
                digest.observe_warning(warning);
            }
            outcome.warnings.extend(warnings);
        }
        Ok(Err(e)) => {
            // An engine *error* is a policy bug, not a bad event:
            // analysis results can no longer be trusted, so the shard
            // degrades. The event that surfaced the bug is discarded.
            hth_trace::global_diag().log(
                DiagLevel::Error,
                &format!("pool.shard{shard}"),
                &format!("engine error, shard degraded to drain-and-discard: {e}"),
            );
            outcome.errors.push(format!("shard {shard}: engine error: {e}"));
            outcome.discarded += 1;
            // Retired merge: this engine never runs again, so its live
            // tokens are folded into `tokens_removed` rather than
            // inflating the pool-wide live gauge.
            outcome.match_stats.merge_retired(&engine.match_stats());
            if supervisor.keep_lost_events {
                outcome.lost_events.push((session, event));
            }
            *analyst = Analyst::Failed;
        }
        Err(panic) => quarantine(analyst, outcome, supervisor, session, &event, nth, panic),
    }
}

/// Quarantines one event after a panic and respawns a fresh engine if
/// the budget allows; otherwise the shard degrades to drain-and-discard.
/// The previously-silent path now speaks: a rate-limited diagnostics
/// line per decision, and a [`Trigger::Quarantine`] bundle capturing
/// the shard's flight-recorder tail with the faulted event last.
fn quarantine(
    analyst: &mut Analyst,
    outcome: &mut ShardOutcome,
    supervisor: &Supervisor,
    session: SessionId,
    event: &SecpertEvent,
    event_nth: u64,
    panic: Box<dyn std::any::Any + Send>,
) {
    let shard = supervisor.shard;
    let message = describe_panic(&*panic);
    outcome.quarantined += 1;
    outcome.quarantine_log.push(format!("shard {shard} event {event_nth}: {message}"));
    if supervisor.keep_lost_events {
        outcome.lost_events.push((session, event.clone()));
    }
    // The engine is about to be replaced or dropped either way; bank
    // its match counters first. A retired merge: the replacement starts
    // with its own token population, so counting the dead engine's
    // tokens as live would double the gauge on every respawn.
    if let Analyst::Running(engine) = &*analyst {
        outcome.match_stats.merge_retired(&engine.match_stats());
    }
    let component = format!("pool.shard{shard}");
    let diag = hth_trace::global_diag();
    diag.log(
        DiagLevel::Error,
        &component,
        &format!("quarantined event {event_nth} ({}): {message}", event.syscall()),
    );
    if outcome.respawns >= supervisor.max_respawns {
        diag.log(
            DiagLevel::Error,
            &component,
            &format!(
                "respawn budget ({}) exhausted; draining without analysis",
                supervisor.max_respawns
            ),
        );
        outcome.errors.push(format!(
            "shard {shard}: respawn budget ({}) exhausted after: {message}",
            supervisor.max_respawns
        ));
        *analyst = Analyst::Failed;
    } else {
        match Secpert::new(&supervisor.policy) {
            Ok(fresh) => {
                outcome.respawns += 1;
                diag.log(
                    DiagLevel::Warn,
                    &component,
                    &format!(
                        "respawned fresh engine ({}/{})",
                        outcome.respawns, supervisor.max_respawns
                    ),
                );
                *analyst = Analyst::Running(Box::new(fresh));
            }
            Err(e) => {
                diag.log(DiagLevel::Error, &component, &format!("respawn failed: {e}"));
                outcome.errors.push(format!("shard {shard}: respawn failed: {e}"));
                *analyst = Analyst::Failed;
            }
        }
    }
    let flight = &supervisor.flight;
    flight.record(session, event.time(), "fault", event.syscall(), &message);
    let mut stats = MetricsSnapshot::new();
    shard_stats_snapshot(&mut stats, outcome, analyst);
    outcome.bundles.push(flight.capture(
        &component,
        Trigger::Quarantine { shard, event_nth, message },
        stats,
        Vec::new(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{Origin, ResourceType, SourceInfo};

    fn _assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn engines_cross_threads() {
        // The pool moves Secpert engines into worker threads; this
        // fails to compile if the engine ever stops being Send.
        _assert_send::<Secpert>();
    }

    fn dropper_event(i: u64) -> SecpertEvent {
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

    #[test]
    fn pool_analyses_and_warns() {
        let pool =
            AnalystPool::new(&PoolConfig::default(), &PolicyConfig::default()).expect("policy");
        for session in 0..8u64 {
            for i in 0..3 {
                pool.submit(session, dropper_event(i));
            }
        }
        let report = pool.finish();
        assert_eq!(report.submitted, 24);
        assert_eq!(report.events, 24);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.warnings.len(), 24, "every hardcoded execve warns Low");
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards.iter().map(|s| s.events).sum::<u64>(), 24);
    }

    #[test]
    fn same_session_same_shard() {
        let pool =
            AnalystPool::new(&PoolConfig::default(), &PolicyConfig::default()).expect("policy");
        for session in 0..100 {
            let shard = pool.shard_of(session);
            assert_eq!(shard, pool.shard_of(session), "routing must be stable");
            assert!(shard < pool.shards());
        }
        pool.finish();
    }

    #[test]
    fn drop_oldest_counts_evictions() {
        let config = PoolConfig {
            shards: 1,
            queue_capacity: 2,
            backpressure: Backpressure::DropOldest,
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy");
        // Stall the analyst? No need: submit faster than one engine can
        // possibly drain by flooding in a tight loop; with capacity 2 at
        // least some of 500 submissions must evict.
        for i in 0..500 {
            pool.submit(0, dropper_event(i));
        }
        let report = pool.finish();
        let stats = &report.shards[0];
        assert_eq!(stats.submitted, 500);
        assert_eq!(stats.events + stats.dropped, 500, "analysed + dropped = submitted");
        assert!(stats.high_water <= 2, "bounded queue respected: {}", stats.high_water);
    }

    #[test]
    fn panic_quarantines_the_event_and_respawns_the_analyst() {
        let config = PoolConfig {
            shards: 1,
            faults: Some(Arc::new(FaultPlan::new().panic_on(0, 3))),
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy");
        for i in 0..10 {
            pool.submit(0, dropper_event(i));
        }
        let report = pool.finish();
        let stats = &report.shards[0];
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.quarantined, 1, "exactly the faulted event");
        assert_eq!(stats.events, 9, "analysis resumes on a fresh engine");
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.discarded, 0);
        assert_eq!(report.warnings.len(), 9);
        assert_eq!(report.quarantine_log.len(), 1, "{:?}", report.quarantine_log);
        assert!(report.quarantine_log[0].contains("injected fault"), "{:?}", report.quarantine_log);
        assert!(report.errors.is_empty(), "a budgeted respawn is not an error");
    }

    /// A policy extension whose derived facts survive the standard
    /// cleanup rules, so an engine that has analysed events holds live
    /// tokens while quiescent — the state a quarantine kills.
    fn sticky_policy() -> PolicyConfig {
        PolicyConfig {
            extra_rules: vec![r#"
                (deftemplate execve_seen (slot time))
                (defrule remember_execve
                  (system_call_access (system_call_name SYS_execve) (time ?t))
                  =>
                  (assert (execve_seen (time ?t))))
                (defrule count_execves
                  (execve_seen (time ?t))
                  =>)
            "#
            .to_string()],
            ..PolicyConfig::default()
        }
    }

    /// Regression: merging a quarantined shard's match counters used to
    /// count the dead engine's live tokens as still live, so every
    /// respawn inflated the pool-wide `tokens_live` gauge. The merged
    /// gauge must equal the population of the engines that are actually
    /// alive at drain end — here, exactly one fresh engine that analysed
    /// the post-respawn suffix of the stream.
    #[test]
    fn respawn_does_not_double_count_live_tokens() {
        let policy = sticky_policy();
        let config = PoolConfig {
            shards: 1,
            faults: Some(Arc::new(FaultPlan::new().panic_on(0, 3))),
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &policy).expect("policy");
        for i in 0..10 {
            pool.submit(0, dropper_event(i));
        }
        let report = pool.finish();
        assert_eq!(report.respawns, 1);
        // Reference: a fresh engine fed the same events the respawned
        // analyst saw (nth 4..=10, i.e. times 3..10 — time 2 was
        // quarantined). Event processing is deterministic, so its live
        // population is exactly what the merged gauge must show.
        let mut reference = Secpert::new(&policy).expect("policy");
        for i in 3..10 {
            reference.process_event(&dropper_event(i)).expect("clean event");
        }
        assert!(
            reference.match_stats().tokens_live > 0,
            "the sticky policy must leave live tokens, or this test checks nothing"
        );
        assert_eq!(
            report.match_stats.tokens_live,
            reference.match_stats().tokens_live,
            "dead engine's tokens leaked into the live gauge"
        );
        assert_eq!(
            report.match_stats.tokens_created,
            report.match_stats.tokens_removed + report.match_stats.tokens_live,
            "created = removed + live must survive aggregation"
        );
    }

    /// Chaos-seeded variant of the same invariant: whatever a seeded
    /// fault plan does to the pool, the merged token accounting must
    /// stay closed (created = removed + live) and the loss ledger exact.
    #[test]
    fn seeded_chaos_keeps_token_accounting_closed() {
        for seed in [3u64, 17, 40104] {
            let config = PoolConfig {
                shards: 2,
                faults: Some(Arc::new(FaultPlan::from_seed(seed))),
                keep_lost_events: true,
                ..PoolConfig::default()
            };
            let pool = AnalystPool::new(&config, &sticky_policy()).expect("policy");
            for session in 0..4u64 {
                for i in 0..8 {
                    pool.submit(session, dropper_event(i));
                }
            }
            let report = pool.finish();
            assert_eq!(
                report.submitted,
                report.events + report.dropped + report.quarantined + report.discarded,
                "seed {seed}: loss ledger must balance"
            );
            assert_eq!(
                report.match_stats.tokens_created,
                report.match_stats.tokens_removed + report.match_stats.tokens_live,
                "seed {seed}: created = removed + live must survive chaos"
            );
        }
    }

    #[test]
    fn respawn_budget_exhaustion_degrades_to_discard() {
        let plan = FaultPlan::new().panic_on(0, 1).panic_on(0, 2).panic_on(0, 3);
        let config = PoolConfig {
            shards: 1,
            max_respawns: 1,
            faults: Some(Arc::new(plan)),
            keep_lost_events: true,
            ..PoolConfig::default()
        };
        let pool = AnalystPool::new(&config, &PolicyConfig::default()).expect("policy");
        for i in 0..10 {
            pool.submit(0, dropper_event(i));
        }
        let report = pool.finish();
        let stats = &report.shards[0];
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.quarantined, 2, "two panics hit a live engine");
        assert_eq!(stats.respawns, 1, "budget of one respawn");
        assert_eq!(stats.discarded, 8, "everything after the second panic is discarded");
        assert_eq!(stats.events, 0);
        assert_eq!(stats.submitted, stats.events + stats.lost());
        assert_eq!(report.lost_events.len() as u64, report.lost());
        assert!(report.errors.iter().any(|e| e.contains("respawn budget")), "{:?}", report.errors);
    }
}
