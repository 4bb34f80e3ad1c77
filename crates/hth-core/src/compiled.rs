//! Compiled policies, shared process-wide.
//!
//! Parsing a CLIPS policy and building its match network costs far more
//! than everything else an expert does before its first event, and every
//! expert of one configuration compiles to the same network. So each
//! distinct configuration is compiled once ([`compile_expert`],
//! [`compile_fleet`]), a process-wide memo keyed by the configuration
//! value keeps that pristine engine, and every expert starts from a
//! copy of it ([`CompiledPolicy::instantiate`]).
//!
//! **Isolation.** A copy shares only what no event changes: templates,
//! rules, compiled match nodes, natives other than `warn` and globals.
//! Working memory, tokens and beta memories, agenda, refraction,
//! firings, transcript, warning sink and value cache belong to the
//! expert, and whatever an expert later changes on its own engine
//! (`load_policy`, `register_fn`, `set_global`) changes its copy only,
//! never the memo's.

use std::sync::{Arc, Mutex, PoisonError};

use secpert_engine::{Engine, EngineError, CORRELATE_RULES, DIGEST_TEMPLATES};

use crate::correlate::CorrelateConfig;
use crate::policy::{PolicyConfig, POLICY_CLIPS};
use crate::secpert::{register_filters, register_severity_text, register_warn, WarningSink};

/// Distinct configurations one memo keeps; past this the oldest goes,
/// so a stream of one-off configurations cannot grow it without bound.
const MEMO_CAP: usize = 16;

type Memo<K> = Mutex<Vec<(K, Arc<CompiledPolicy>)>>;

static EXPERT_POLICIES: Memo<PolicyConfig> = Mutex::new(Vec::new());
static FLEET_POLICIES: Memo<CorrelateConfig> = Mutex::new(Vec::new());

/// One compiled policy: a reset engine no event has reached.
pub(crate) struct CompiledPolicy {
    engine: Engine,
}

impl CompiledPolicy {
    /// The shared compile of the expert policy under `config`.
    pub(crate) fn expert(config: &PolicyConfig) -> Result<Arc<CompiledPolicy>, EngineError> {
        shared(&EXPERT_POLICIES, config, compile_expert)
    }

    /// The shared compile of the fleet correlator policy under `config`.
    pub(crate) fn fleet(config: &CorrelateConfig) -> Result<Arc<CompiledPolicy>, EngineError> {
        shared(&FLEET_POLICIES, config, compile_fleet)
    }

    /// A fresh engine starting from this compile, its `warn` native
    /// writing to `sink`.
    pub(crate) fn instantiate(&self, sink: &WarningSink) -> Engine {
        let mut engine = self.engine.clone();
        register_warn(&mut engine, Arc::clone(sink));
        engine
    }
}

/// Looks `key` up in `memo`, compiling and remembering it on a miss.
/// Failed compiles are not remembered: every call with a malformed
/// configuration fails the same way.
fn shared<K: Clone + PartialEq>(
    memo: &Memo<K>,
    key: &K,
    compile: fn(&K) -> Result<CompiledPolicy, EngineError>,
) -> Result<Arc<CompiledPolicy>, EngineError> {
    // Held across the compile, so concurrent first uses of a
    // configuration wait for one compile instead of racing several. A
    // compile that panics leaves the list untouched, so a poisoned
    // lock still guards a valid list.
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, compiled)) = memo.iter().find(|(k, _)| k == key) {
        return Ok(Arc::clone(compiled));
    }
    let compiled = Arc::new(compile(key)?);
    if memo.len() == MEMO_CAP {
        memo.remove(0);
    }
    memo.push((key.clone(), Arc::clone(&compiled)));
    Ok(compiled)
}

/// Compiles the expert policy under `config` from source, bypassing
/// the memo: the reference every shared copy must equal.
pub(crate) fn compile_expert(config: &PolicyConfig) -> Result<CompiledPolicy, EngineError> {
    compile(
        |engine| register_filters(engine, config),
        &[POLICY_CLIPS],
        &config.extra_rules,
        &[
            ("RARE_FREQUENCY", config.rare_frequency),
            ("LONG_TIME", config.long_time),
            ("PROC_COUNT_HIGH", config.proc_count_high),
            ("PROC_RATE_HIGH", config.proc_rate_high),
            ("MEM_HIGH", config.mem_high),
            ("MEM_VERY_HIGH", config.mem_very_high),
        ],
    )
}

/// Compiles the fleet correlator policy under `config` from source,
/// bypassing the memo.
pub(crate) fn compile_fleet(config: &CorrelateConfig) -> Result<CompiledPolicy, EngineError> {
    compile(
        register_severity_text,
        &[DIGEST_TEMPLATES, CORRELATE_RULES],
        &config.extra_rules,
        &[
            ("MIN_C2_LABELS", config.min_c2_labels),
            ("MIN_DROP_SESSIONS", config.min_drop_sessions),
            ("MIN_EXFIL_SESSIONS", config.min_exfil_sessions),
            ("EXFIL_FLEET_BYTES", config.exfil_fleet_bytes),
            ("EXFIL_SESSION_BYTES", config.exfil_session_bytes),
        ],
    )
}

/// The build sequence both policies share: natives, then the policy
/// sources and `extra_rules` in order, then the globals that override
/// the sources' defaults, then a reset.
fn compile(
    natives: impl FnOnce(&mut Engine),
    sources: &[&str],
    extra_rules: &[String],
    globals: &[(&str, i64)],
) -> Result<CompiledPolicy, EngineError> {
    let mut engine = Engine::new();
    natives(&mut engine);
    // A sink no expert reads; `instantiate` rebinds `warn` per expert.
    register_warn(&mut engine, WarningSink::default());
    // Provenance: every firing snapshots which other rules' live
    // matches shared its supporting facts.
    engine.set_support_capture(true);
    for source in sources.iter().copied().chain(extra_rules.iter().map(String::as_str)) {
        engine.load_str(source)?;
    }
    for (name, value) in globals {
        engine.set_global(name, *value);
    }
    engine.reset()?;
    Ok(CompiledPolicy { engine })
}

#[cfg(test)]
mod tests {
    use std::sync::{Barrier, OnceLock};

    use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
    use secpert_engine::MatchStats;

    use super::*;
    use crate::secpert::Secpert;
    use crate::warning::{Severity, Warning};

    /// Every captured corpus, gen2 and campaign stream, recorded once.
    fn streams() -> &'static [(String, Vec<SecpertEvent>)] {
        static STREAMS: OnceLock<Vec<(String, Vec<SecpertEvent>)>> = OnceLock::new();
        STREAMS.get_or_init(|| {
            let mut scenarios = hth_workloads::exploits::scenarios();
            scenarios.extend(hth_workloads::gen2::scenarios());
            scenarios.extend(hth_workloads::coordinated::scenarios());
            scenarios.iter().map(|s| (s.id.to_string(), s.record().expect(s.id))).collect()
        })
    }

    /// Everything an expert lets a caller observe after a run.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// What `process_event` returned, event after event.
        returned: Vec<Warning>,
        sink: Vec<Warning>,
        transcript: String,
        stats: MatchStats,
        events: u64,
        bytes: usize,
        snapshot: Vec<u8>,
    }

    fn feed(expert: &mut Secpert, events: &[SecpertEvent], returned: &mut Vec<Warning>) {
        for event in events {
            returned.extend(expert.process_event(event).expect("event"));
        }
    }

    fn outcome(mut expert: Secpert, returned: Vec<Warning>) -> Outcome {
        let bytes = expert.approx_bytes();
        Outcome {
            returned,
            sink: expert.warnings(),
            transcript: expert.take_transcript(),
            stats: expert.match_stats(),
            events: expert.events_processed(),
            bytes,
            snapshot: expert.snapshot().expect("quiescent"),
        }
    }

    fn run(mut expert: Secpert, events: &[SecpertEvent]) -> Outcome {
        let mut returned = Vec::new();
        feed(&mut expert, events, &mut returned);
        outcome(expert, returned)
    }

    /// The reference: an expert from an uncached compile.
    fn fresh(config: &PolicyConfig) -> Secpert {
        Secpert::from_compiled(&compile_expert(config).expect("policy compiles"))
    }

    #[test]
    fn shared_compile_matches_a_fresh_compile_on_every_stream() {
        let config = PolicyConfig::default();
        let shared = CompiledPolicy::expert(&config).unwrap();
        let streams = streams();
        let mut siblings = Vec::new();
        for (i, (id, events)) in streams.iter().enumerate() {
            // A sibling from the same compile works through another
            // stream first, and stays alive while this one runs.
            let mut sibling = Secpert::from_compiled(&shared);
            feed(&mut sibling, &streams[(i + 1) % streams.len()].1, &mut Vec::new());
            siblings.push(sibling);

            let want = run(fresh(&config), events);
            let got = run(Secpert::from_compiled(&shared), events);
            assert_eq!(got, want, "{id}: shared compile diverged from a fresh one");

            // Snapshot mid-stream, restore, continue: the uninterrupted run.
            let cut = events.len() / 2;
            let mut first = Secpert::from_compiled(&shared);
            let mut head = Vec::new();
            feed(&mut first, &events[..cut], &mut head);
            let head_transcript = first.take_transcript();
            let mut resumed = Secpert::restore(&config, &first.snapshot().unwrap()).unwrap();
            let mut tail = Vec::new();
            feed(&mut resumed, &events[cut..], &mut tail);
            assert_eq!(tail, want.returned[head.len()..], "{id}: warnings after the restore");
            assert_eq!(resumed.take_transcript(), want.transcript[head_transcript.len()..]);
            assert_eq!(resumed.match_stats(), want.stats, "{id}: stats after the restore");
            assert_eq!(resumed.events_processed(), want.events, "{id}");
            assert_eq!(resumed.snapshot().unwrap(), want.snapshot, "{id}: final snapshot");
        }
    }

    #[test]
    fn sibling_experts_never_see_each_other() {
        let config = PolicyConfig::default();
        let streams = streams();
        for pair in streams.windows(2) {
            let [(a_id, a_events), (b_id, b_events)] = pair else { unreachable!() };
            let want_a = run(Secpert::new(&config).unwrap(), a_events);
            let want_b = run(Secpert::new(&config).unwrap(), b_events);
            let (mut a, mut b) = (Secpert::new(&config).unwrap(), Secpert::new(&config).unwrap());
            let (mut a_returned, mut b_returned) = (Vec::new(), Vec::new());
            for i in 0..a_events.len().max(b_events.len()) {
                feed(&mut a, a_events.get(i..=i).unwrap_or_default(), &mut a_returned);
                feed(&mut b, b_events.get(i..=i).unwrap_or_default(), &mut b_returned);
            }
            assert_eq!(outcome(a, a_returned), want_a, "{a_id} next to {b_id}");
            assert_eq!(outcome(b, b_returned), want_b, "{b_id} next to {a_id}");
        }
    }

    fn execve(origin: (ResourceType, &str), time: u64, frequency: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_execve",
            resource: SourceInfo::new(ResourceType::File, "/bin/sh"),
            origin: Origin { sources: vec![SourceInfo::new(origin.0, origin.1)] },
            time,
            frequency,
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    fn resource(syscall: &'static str, count: u64, rate: u64, mem: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall,
            resource: SourceInfo::new(ResourceType::Unknown, "process"),
            origin: Origin::unknown(),
            time: 5,
            frequency: 3,
            address: 0,
            proc_count: Some(count),
            proc_rate: Some(rate),
            mem_total: Some(mem),
            server: None,
        }
    }

    fn libc_execve() -> SecpertEvent {
        execve((ResourceType::Binary, "/lib/tls/libc.so.6"), 10, 5)
    }

    const TAMPER_RULE: &str = r#"
        (defrule tamper (system_call_access (system_call_name SYS_brk))
          => (warn 3 tamper 1 1 "tampered"))"#;

    #[test]
    fn changes_to_one_expert_stay_out_of_the_shared_compile() {
        let config = PolicyConfig::default();
        let brk = resource("SYS_brk", 0, 0, 0);
        let mut tampered = Secpert::new(&config).unwrap();
        tampered.load_policy(TAMPER_RULE).unwrap();
        // Trust nothing: every origin name is suspicious.
        tampered.engine_mut().register_fn("filter_binary", |args| Ok(args[1].clone()));
        // Every execve is rare and late.
        tampered.engine_mut().set_global("RARE_FREQUENCY", 1000);
        tampered.engine_mut().set_global("LONG_TIME", 0);
        assert_eq!(tampered.process_event(&brk).unwrap()[0].rule, "tamper");
        assert_eq!(tampered.process_event(&libc_execve()).unwrap()[0].severity, Severity::Medium);

        let mut next = Secpert::new(&config).unwrap();
        assert!(next.engine_mut().rule_names().all(|rule| rule != "tamper"));
        assert_eq!(next.engine_mut().get_global("RARE_FREQUENCY"), Some(&2.into()));
        assert_eq!(next.engine_mut().get_global("LONG_TIME"), Some(&100.into()));
        assert!(next.process_event(&brk).unwrap().is_empty(), "tamper rule leaked");
        assert!(next.process_event(&libc_execve()).unwrap().is_empty(), "filter leaked");
        let (id, events) = &streams()[0];
        let want = run(fresh(&config), events);
        assert_eq!(run(Secpert::new(&config).unwrap(), events), want, "{id}");
    }

    /// What an expert of `config` warns about `event`.
    fn verdict(config: &PolicyConfig, event: &SecpertEvent) -> Vec<(Severity, String)> {
        let warnings = Secpert::new(config).unwrap().process_event(event).unwrap();
        warnings.into_iter().map(|w| (w.severity, w.rule)).collect()
    }

    #[test]
    fn every_policy_field_is_part_of_the_key() {
        let base = PolicyConfig::default();
        // Naming every field makes a new one fail to compile here until
        // it gets a case below.
        let PolicyConfig {
            rare_frequency: _,
            long_time: _,
            proc_count_high: _,
            proc_rate_high: _,
            mem_high: _,
            mem_very_high: _,
            trusted_binaries: _,
            trusted_sockets: _,
            extra_rules: _,
        } = &base;
        Secpert::new(&base).unwrap();
        let rare_late = execve((ResourceType::Binary, "/bin/app"), 500, 1);
        let socket = execve((ResourceType::Socket, "evil:99 (AF_INET)"), 10, 5);
        let cases = [
            ("rare_frequency", PolicyConfig { rare_frequency: 1, ..base.clone() }, &rare_late),
            ("long_time", PolicyConfig { long_time: 1000, ..base.clone() }, &rare_late),
            (
                "proc_count_high",
                PolicyConfig { proc_count_high: 11, ..base.clone() },
                &resource("SYS_clone", 10, 2, 0),
            ),
            (
                "proc_rate_high",
                PolicyConfig { proc_rate_high: 26, ..base.clone() },
                &resource("SYS_clone", 2, 25, 0),
            ),
            (
                "mem_high",
                PolicyConfig { mem_high: 4 << 20, ..base.clone() },
                &resource("SYS_brk", 0, 0, 2 << 20),
            ),
            (
                "mem_very_high",
                PolicyConfig { mem_very_high: 64 << 20, ..base.clone() },
                &resource("SYS_brk", 0, 0, 32 << 20),
            ),
            (
                "trusted_binaries",
                PolicyConfig { trusted_binaries: Vec::new(), ..base.clone() },
                &libc_execve(),
            ),
            (
                "trusted_sockets",
                PolicyConfig { trusted_sockets: vec!["evil:99".into()], ..base.clone() },
                &socket,
            ),
            (
                "extra_rules",
                PolicyConfig { extra_rules: vec![TAMPER_RULE.into()], ..base.clone() },
                &resource("SYS_brk", 0, 0, 0),
            ),
        ];
        for (field, changed, event) in &cases {
            let (before, after) = (verdict(&base, event), verdict(changed, event));
            assert!(!before.is_empty() || !after.is_empty(), "{field}: the case warns nowhere");
            assert_ne!(after, before, "{field}: changing it did not change the outcome");
            // The base configuration still compiles to the base policy.
            assert_eq!(verdict(&base, event), before, "{field}");
        }
        let medium = (Severity::Medium, "check_execve".to_string());
        assert!(verdict(&base, &rare_late).contains(&medium));
        assert!(!verdict(&cases[0].1, &rare_late).contains(&medium));
        assert!(verdict(&base, &libc_execve()).is_empty());
        assert!(!verdict(&cases[6].1, &libc_execve()).is_empty());
    }

    #[test]
    fn malformed_extra_rules_fail_every_call_and_spare_the_default() {
        let broken =
            PolicyConfig { extra_rules: vec!["(defrule broken (".into()], ..Default::default() };
        let default = PolicyConfig::default();
        let snapshot = Secpert::new(&default).unwrap().snapshot().unwrap();
        for _ in 0..3 {
            assert!(Secpert::new(&broken).is_err());
            assert!(Secpert::restore(&broken, &snapshot).is_err());
        }
        let (id, events) = &streams()[0];
        assert_eq!(run(Secpert::new(&default).unwrap(), events), run(fresh(&default), events));
        assert!(!run(Secpert::new(&default).unwrap(), events).returned.is_empty(), "{id}");
    }

    #[test]
    fn first_use_from_eight_threads_compiles_once() {
        // A configuration no other test uses: this is its first use.
        let config = PolicyConfig { proc_count_high: 8, ..Default::default() };
        let (_, events) = &streams()[0];
        let start = Barrier::new(8);
        let results: Vec<(Arc<CompiledPolicy>, Outcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let compiled = CompiledPolicy::expert(&config).unwrap();
                        let expert = Secpert::from_compiled(&compiled);
                        (compiled, run(expert, events))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread")).collect()
        });
        let want = run(fresh(&config), events);
        for (compiled, got) in &results {
            assert!(Arc::ptr_eq(compiled, &results[0].0), "compiled more than once");
            assert_eq!(got, &want);
        }
    }
}
