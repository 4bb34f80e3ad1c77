//! The monitoring session: wires the kernel, Harrier and Secpert into
//! the pipeline of Figure 1 — program → monitoring & tracking → events →
//! analysis & policy → warnings.

use emukernel::{errno, Kernel, ProcState, Process, SpawnError, SyscallEffect};
use harrier::{Harrier, HarrierConfig, SecpertEvent};
use hth_vm::{Reg, StepEvent};
use secpert_engine::EngineError;

use crate::policy::PolicyConfig;
use crate::secpert::Secpert;
use crate::warning::{Severity, Warning};

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Monitor configuration (dataflow / BB tracking toggles).
    pub harrier: HarrierConfig,
    /// Policy thresholds and trust lists.
    pub policy: PolicyConfig,
    /// Total instruction budget across all processes (safety stop for
    /// fork bombs and spinning servers).
    pub max_instructions: u64,
    /// Instructions per scheduling quantum.
    pub quantum: u64,
    /// Hard cap on live processes; further forks fail with `EAGAIN`.
    pub max_processes: usize,
    /// Keep every Harrier event for inspection (tables/benches).
    pub record_events: bool,
    /// Feed events through this session's own Secpert as they happen
    /// (the classic single-threaded pipeline). Fleet deployments turn
    /// this off and ship events to a shared analyst pool through an
    /// event tap instead (see [`Session::set_event_tap`]).
    pub analyze_inline: bool,
    /// Hybrid static/dynamic monitoring (paper §10 item 2): before a
    /// program runs, the Appendix B Secure Binary audit scans its image;
    /// if no hardcoded resource names are found, expensive data-flow
    /// tracking is switched off for the run — the origin information it
    /// would compute cannot implicate a hardcoded resource anyway.
    pub hybrid_static_analysis: bool,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            harrier: HarrierConfig::default(),
            policy: PolicyConfig::default(),
            max_instructions: 2_000_000,
            quantum: 200,
            max_processes: 128,
            record_events: true,
            analyze_inline: true,
            hybrid_static_analysis: false,
        }
    }
}

/// Errors from session construction and start-up.
#[derive(Debug)]
pub enum SessionError {
    /// The policy failed to load (engine error).
    Policy(EngineError),
    /// The program could not be spawned.
    Spawn(SpawnError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Policy(e) => write!(f, "policy error: {e}"),
            SessionError::Spawn(e) => write!(f, "spawn error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> SessionError {
        SessionError::Policy(e)
    }
}

impl From<SpawnError> for SessionError {
    fn from(e: SpawnError) -> SessionError {
        SessionError::Spawn(e)
    }
}

/// Outcome of a [`Session::run`].
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Instructions retired across all processes.
    pub instructions: u64,
    /// `(pid, status)` of exited processes.
    pub exited: Vec<(u32, i32)>,
    /// `(pid, fault)` of crashed processes.
    pub faults: Vec<(u32, String)>,
    /// True when the instruction budget stopped the run.
    pub truncated: bool,
}

/// Aggregated outcome of a session, for quick reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Warnings at Low severity.
    pub low: usize,
    /// Warnings at Medium severity.
    pub medium: usize,
    /// Warnings at High severity.
    pub high: usize,
    /// Distinct rules that fired, with counts, most frequent first.
    pub rules: Vec<(String, usize)>,
    /// Events Harrier emitted.
    pub events: usize,
    /// Instructions retired.
    pub instructions: u64,
}

impl std::fmt::Display for SessionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} warnings (high: {}, medium: {}, low: {}) from {} events over {} instructions",
            self.low + self.medium + self.high,
            self.high,
            self.medium,
            self.low,
            self.events,
            self.instructions,
        )?;
        for (rule, count) in &self.rules {
            writeln!(f, "  {count:4}x {rule}")?;
        }
        Ok(())
    }
}

/// Observer for the live event stream: called once per Harrier event, in
/// order, before inline analysis. This is the Harrier→Secpert protocol
/// boundary made pluggable — journal recorders and fleet analyst pools
/// both attach here.
pub type EventTap = Box<dyn FnMut(&SecpertEvent) + Send>;

/// An HTH monitoring session over one program (and its children).
pub struct Session {
    /// The emulated OS (configure files, hosts and peers through this).
    pub kernel: Kernel,
    harrier: Harrier,
    secpert: Secpert,
    procs: Vec<Process>,
    warnings: Vec<Warning>,
    events: Vec<SecpertEvent>,
    taps: Vec<EventTap>,
    config: SessionConfig,
    instructions: u64,
}

impl Session {
    /// Builds a session with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Policy`] when the policy fails to load.
    pub fn new(config: SessionConfig) -> Result<Session, SessionError> {
        Ok(Session {
            kernel: Kernel::new(),
            harrier: Harrier::new(config.harrier.clone()),
            secpert: Secpert::new(&config.policy)?,
            procs: Vec::new(),
            warnings: Vec::new(),
            events: Vec::new(),
            taps: Vec::new(),
            config,
            instructions: 0,
        })
    }

    /// Spawns and attaches the program to monitor.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Spawn`] when the binary is unknown or
    /// fails to assemble.
    pub fn start(
        &mut self,
        path: &str,
        argv: &[&str],
        env: &[(&str, &str)],
    ) -> Result<u32, SessionError> {
        let proc = self.kernel.spawn(path, argv, env)?;
        let pid = proc.pid;
        if self.config.hybrid_static_analysis && self.harrier.config().track_dataflow {
            // Static pre-pass (paper §10 item 2): a binary with no
            // hardcoded resource names cannot trip the origin-based
            // rules, so the dynamic data-flow tracker can be skipped.
            let audit = harrier::audit::audit(&proc.core.images()[0]);
            if audit.is_secure() {
                let config = harrier::HarrierConfig {
                    track_dataflow: false,
                    ..self.harrier.config().clone()
                };
                self.harrier = Harrier::new(config);
            }
        }
        self.harrier.attach(&proc);
        self.procs.push(proc);
        Ok(pid)
    }

    /// Runs all processes round-robin until they exit, crash, or the
    /// instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates policy evaluation errors (rule bugs), never workload
    /// faults — those are recorded in the report.
    pub fn run(&mut self) -> Result<RunReport, SessionError> {
        let _span = hth_trace::span("session.run");
        let mut report = RunReport::default();
        loop {
            if self.instructions >= self.config.max_instructions {
                report.truncated = true;
                break;
            }
            let mut progressed = false;
            let mut i = 0;
            while i < self.procs.len() {
                if self.procs[i].runnable() {
                    progressed = true;
                    self.run_quantum(i, &mut report)?;
                }
                i += 1;
            }
            if !progressed {
                break;
            }
            // Drop exited processes (children stay until observed here),
            // and their monitor state with them.
            self.procs.retain(|p| {
                if let ProcState::Exited(code) = p.state {
                    report.exited.push((p.pid, code));
                    self.harrier.detach(p.pid);
                    false
                } else {
                    true
                }
            });
        }
        report.instructions = self.instructions;
        Ok(report)
    }

    fn run_quantum(&mut self, idx: usize, report: &mut RunReport) -> Result<(), SessionError> {
        let mut left = self.config.quantum;
        loop {
            let budget = left.min(self.config.max_instructions.saturating_sub(self.instructions));
            if budget == 0 || !self.procs[idx].runnable() {
                return Ok(());
            }
            // Step until something other than `Continue` happens or the
            // budget runs out. Nothing between two such stops reads the
            // clock, so the hooks and the clock are each touched once per
            // run rather than once per instruction.
            let pid = self.procs[idx].pid;
            let (ran, step) = {
                let proc = &mut self.procs[idx];
                let mut hooks = self.harrier.hooks(pid);
                let mut ran = 0;
                loop {
                    let step = proc.core.step(&mut hooks);
                    ran += 1;
                    if ran == budget || !matches!(step, Ok(StepEvent::Continue)) {
                        break (ran, step);
                    }
                }
            };
            left -= ran;
            self.instructions += ran;
            self.kernel.note_instructions(ran);
            match step {
                Ok(StepEvent::Continue) => {}
                Ok(StepEvent::Halted) => {
                    self.procs[idx].state = ProcState::Exited(0);
                    return Ok(());
                }
                Ok(StepEvent::Interrupt(0x80)) => self.handle_syscall(idx)?,
                Ok(StepEvent::Interrupt(_)) => {
                    self.procs[idx].state = ProcState::Exited(-1);
                    return Ok(());
                }
                Err(e) => {
                    report.faults.push((pid, e.to_string()));
                    self.procs[idx].state = ProcState::Exited(-1);
                    return Ok(());
                }
            }
        }
    }

    fn handle_syscall(&mut self, idx: usize) -> Result<(), SessionError> {
        let record = self.kernel.syscall(&mut self.procs[idx]);
        let mut exec_to: Option<String> = None;
        match &record.effect {
            SyscallEffect::ForkRequested => {
                if self.procs.len() < self.config.max_processes {
                    let child = self.kernel.fork(&mut self.procs[idx]);
                    let (ppid, cpid) = (self.procs[idx].pid, child.pid);
                    self.procs[idx].core.cpu.set(Reg::Eax, cpid);
                    self.harrier.fork_attach(ppid, cpid);
                    self.procs.push(child);
                } else {
                    self.procs[idx].core.cpu.set(Reg::Eax, -errno::EAGAIN as u32);
                }
            }
            SyscallEffect::ExecRequested { path, found: true, .. } => {
                exec_to = Some(path.clone());
            }
            _ => {}
        }
        // Events are generated before an exec replaces the image, so
        // origins are read from the *current* shadow state.
        let events = self.harrier.on_syscall(&self.procs[idx], &record, &self.kernel);
        for event in &events {
            for tap in &mut self.taps {
                tap(event);
            }
            if self.config.analyze_inline {
                self.warnings.extend(self.secpert.process_event(event)?);
            }
        }
        if self.config.record_events {
            self.events.extend(events);
        }
        if let Some(path) = exec_to {
            let argv_owned = [path.clone()];
            let argv: Vec<&str> = argv_owned.iter().map(String::as_str).collect();
            if self.kernel.exec_into(&mut self.procs[idx], &path, &argv).is_ok() {
                self.harrier.on_exec(&self.procs[idx]);
            }
        }
        if let SyscallEffect::SignalRequested { target, sig } = record.effect {
            self.deliver_signal(idx, target, sig);
        }
        Ok(())
    }

    /// Delivers a `kill`-requested signal (after the event was emitted):
    /// a registered handler absorbs it, otherwise the target dies with
    /// `128 + sig`, mirroring the shell's exit-status convention.
    fn deliver_signal(&mut self, sender_idx: usize, target: u32, sig: u32) {
        let Some(victim) = self.procs.iter_mut().find(|p| p.pid == target && p.runnable()) else {
            self.procs[sender_idx].core.cpu.set(Reg::Eax, (-errno::ESRCH) as u32);
            return;
        };
        if victim.sig_handlers.contains_key(&sig) {
            victim.delivered_signals.push(sig);
        } else {
            victim.state = ProcState::Exited(128 + sig as i32);
        }
    }

    /// Attaches an event tap: it sees every Harrier event as it is
    /// generated, before (and regardless of) inline analysis. Multiple
    /// taps run in attachment order.
    pub fn set_event_tap(&mut self, tap: EventTap) {
        self.taps.push(tap);
    }

    /// All warnings issued so far, in order.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Highest severity seen (None = clean run).
    pub fn max_severity(&self) -> Option<Severity> {
        self.warnings.iter().map(|w| w.severity).max()
    }

    /// All Harrier events (when `record_events` is on).
    pub fn events(&self) -> &[SecpertEvent] {
        &self.events
    }

    /// The expert system (custom rules, inspection).
    pub fn secpert_mut(&mut self) -> &mut Secpert {
        &mut self.secpert
    }

    /// The monitor (taint inspection).
    pub fn harrier(&self) -> &Harrier {
        &self.harrier
    }

    /// Tag interning and union-memoization counters from the monitor's
    /// hash-consed tag store (perf diagnostics).
    pub fn taint_stats(&self) -> harrier::TaintStats {
        self.harrier.taint_stats()
    }

    /// Paper-style warning transcript accumulated by the policy rules.
    pub fn take_transcript(&mut self) -> String {
        self.secpert.take_transcript()
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// One unified metrics snapshot for this session: taint-store
    /// (`hth_taint_*`), match-network (`hth_match_*`), expert
    /// (`hth_secpert_*`) and pipeline (`hth_session_*`) counters.
    pub fn metrics(&self) -> hth_trace::MetricsSnapshot {
        let mut metrics = hth_trace::MetricsSnapshot::default();
        self.taint_stats().record_metrics(&mut metrics);
        self.secpert.record_metrics(&mut metrics);
        metrics.add_counter("hth_session_events", self.harrier.events_emitted());
        metrics.add_counter("hth_session_instructions", self.instructions);
        metrics.add_counter("hth_session_warnings", self.warnings.len() as u64);
        metrics
    }

    /// Aggregates warnings, rules and counters into a printable summary.
    pub fn summary(&self) -> SessionSummary {
        let mut summary = SessionSummary {
            events: self.events.len(),
            instructions: self.instructions,
            ..SessionSummary::default()
        };
        let mut rules: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for warning in &self.warnings {
            match warning.severity {
                Severity::Low => summary.low += 1,
                Severity::Medium => summary.medium += 1,
                Severity::High => summary.high += 1,
            }
            *rules.entry(warning.rule.as_str()).or_default() += 1;
        }
        summary.rules = rules.into_iter().map(|(r, c)| (r.to_string(), c)).collect();
        summary.rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        summary
    }
}
