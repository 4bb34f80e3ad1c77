//! Secpert: the security expert (paper §6) — the policy loaded into the
//! CLIPS-like engine, the native filter functions, and the event
//! protocol between Harrier and the rules.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use harrier::{Origin, SecpertEvent, SourceInfo};
use secpert_engine::codec::{self, Framing, Reader, HEADER_LEN};
use secpert_engine::snapshot::{EngineSnapshot, SnapshotError};
use secpert_engine::{Engine, EngineError, Fact, FactBuilder, MatchStats, Value};

use crate::compiled::CompiledPolicy;
use crate::policy::PolicyConfig;
use crate::provenance;
use crate::warning::{Severity, Warning};

/// Leading magic of a serialized [`Secpert::snapshot`].
const SNAPSHOT_MAGIC: &[u8; 4] = b"HTHS";
/// Snapshot format version; bumped on any layout change so an old
/// server never misreads a new snapshot (and vice versa).
const SNAPSHOT_VERSION: u8 = 1;
/// A snapshot is one CRC frame with no length cap: it holds a whole
/// engine, and a cap would silently turn large revives into full
/// journal replays.
const SNAPSHOT_FRAMING: Framing = Framing { crc: true, max_len: u64::MAX };

/// Where the `warn` native records warnings.
pub(crate) type WarningSink = Arc<Mutex<Vec<Arc<Warning>>>>;

/// The security expert system: policy + engine + warning collection.
///
/// Warnings are stored behind `Arc` so readers can snapshot the sink
/// under the lock with cheap pointer clones and deep-copy outside it —
/// the `warn` native (called mid-inference) never contends with a
/// reader doing per-warning string clones.
pub struct Secpert {
    engine: Engine,
    warnings: WarningSink,
    events_processed: u64,
    values: ValueCache,
}

/// Interned `Value`s reused across events. Event streams repeat the
/// same paths, endpoints, type symbols and code addresses over and
/// over; the cache hands back one shared `Arc<str>` per distinct
/// string instead of allocating per event.
#[derive(Debug, Default)]
struct ValueCache {
    strs: HashMap<Box<str>, Value>,
    syms: HashMap<Box<str>, Value>,
    addrs: HashMap<u32, Value>,
}

/// Growth cap: a pathological stream of all-distinct strings resets
/// the cache rather than growing it without bound.
const VALUE_CACHE_CAP: usize = 1 << 16;

impl ValueCache {
    fn str_of(&mut self, s: &str) -> Value {
        if self.strs.len() >= VALUE_CACHE_CAP {
            self.strs.clear();
        }
        match self.strs.get(s) {
            Some(v) => v.clone(),
            None => {
                let v = Value::str(s);
                self.strs.insert(s.into(), v.clone());
                v
            }
        }
    }

    fn sym_of(&mut self, s: &str) -> Value {
        if self.syms.len() >= VALUE_CACHE_CAP {
            self.syms.clear();
        }
        match self.syms.get(s) {
            Some(v) => v.clone(),
            None => {
                let v = Value::sym(s);
                self.syms.insert(s.into(), v.clone());
                v
            }
        }
    }

    /// The `Value::str` of `format!("{addr:x}")`, rendered once per
    /// distinct address.
    fn addr_of(&mut self, addr: u32) -> Value {
        if self.addrs.len() >= VALUE_CACHE_CAP {
            self.addrs.clear();
        }
        match self.addrs.get(&addr) {
            Some(v) => v.clone(),
            None => {
                let v = Value::str(format!("{addr:x}"));
                self.addrs.insert(addr, v.clone());
                v
            }
        }
    }
}

impl Secpert {
    /// Builds a Secpert with the standard policy and the given
    /// configuration.
    ///
    /// The policy is compiled once per process for each distinct
    /// configuration; every expert starts from a copy of that compile
    /// with its own working memory, match state and warning sink.
    ///
    /// # Errors
    ///
    /// Returns engine errors if the policy fails to load: the embedded
    /// policy (a bug, covered by tests) or malformed `extra_rules`.
    /// Failed compiles are not remembered, so every call with such a
    /// configuration fails the same way.
    pub fn new(config: &PolicyConfig) -> Result<Secpert, EngineError> {
        let compiled = CompiledPolicy::expert(config)?;
        Ok(Secpert::from_compiled(&compiled))
    }

    /// An expert starting from `compiled`, with nothing processed yet.
    pub(crate) fn from_compiled(compiled: &CompiledPolicy) -> Secpert {
        let warnings = WarningSink::default();
        Secpert {
            engine: compiled.instantiate(&warnings),
            warnings,
            events_processed: 0,
            values: ValueCache::default(),
        }
    }

    /// Loads additional CLIPS policy text (custom rules on top of the
    /// standard policy).
    ///
    /// # Errors
    ///
    /// Propagates parse and semantic errors from the engine.
    pub fn load_policy(&mut self, clips: &str) -> Result<(), EngineError> {
        self.engine.load_str(clips)
    }

    /// Engine access (inspection, custom natives, extra globals).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Feeds one Harrier event through the rules; returns the warnings
    /// this event produced.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors (policy bugs).
    pub fn process_event(&mut self, event: &SecpertEvent) -> Result<Vec<Warning>, EngineError> {
        let _span = hth_trace::span("secpert.process_event");
        let before = self.warnings.lock().expect("warning sink poisoned").len();
        self.process_one(event)?;
        Ok(self.drain_since(before))
    }

    /// Feeds a batch of events through the rules; returns the warnings
    /// the batch produced, in event order. One event at a time through
    /// exactly the per-event path — `process_batch(&[e])` and
    /// `process_event(&e)` are byte-identical. Only the trace span and
    /// the final copy-out of the new warnings happen once per batch;
    /// each event still takes the warning-sink lock on its own.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors (policy bugs). Events before
    /// the failing one have been fully processed; their warnings remain
    /// readable through [`Secpert::warnings`].
    pub fn process_batch(&mut self, events: &[SecpertEvent]) -> Result<Vec<Warning>, EngineError> {
        let _span = hth_trace::span("secpert.process_batch");
        let before = self.warnings.lock().expect("warning sink poisoned").len();
        for event in events {
            self.process_one(event)?;
        }
        Ok(self.drain_since(before))
    }

    /// The shared per-event path: fact, assert, run, provenance. Both
    /// `process_event` and `process_batch` funnel through here, so
    /// batching cannot change observable behavior.
    fn process_one(&mut self, event: &SecpertEvent) -> Result<(), EngineError> {
        self.events_processed += 1;
        let warnings_before = self.warnings.lock().expect("warning sink poisoned").len();
        let firings_before = self.engine.firings().len();
        let fact = self.event_to_fact(event)?;
        self.engine.assert_fact(fact)?;
        self.engine.run(None)?;
        self.attach_provenance(event, warnings_before, firings_before);
        Ok(())
    }

    /// Builds (but does not assert) the engine fact for an event —
    /// exactly the fact [`Secpert::process_event`] would assert,
    /// sharing this expert's interning tables. A diagnostic and
    /// benchmarking hook: it lets the fact-construction stage be timed
    /// and inspected in isolation from matching.
    ///
    /// # Errors
    ///
    /// Propagates engine template errors (policy bugs).
    pub fn build_fact(&mut self, event: &SecpertEvent) -> Result<Fact, EngineError> {
        self.event_to_fact(event)
    }

    /// Deep-clones the warnings issued since sink length `before`.
    /// Snapshots the tail under the lock (Arc bumps only) and clones
    /// outside it.
    fn drain_since(&self, before: usize) -> Vec<Warning> {
        let tail: Vec<Arc<Warning>> = {
            let sink = self.warnings.lock().expect("warning sink poisoned");
            sink[before..].to_vec()
        };
        tail.iter().map(|w| (**w).clone()).collect()
    }

    /// Pairs each warning the current event produced with the firing
    /// that issued it and swaps a provenance-enriched copy into the
    /// sink, matching over the event's firing tail.
    fn attach_provenance(
        &self,
        event: &SecpertEvent,
        warnings_before: usize,
        firings_before: usize,
    ) {
        let firings = &self.engine.firings()[firings_before..];
        if firings.is_empty() {
            return;
        }
        let mut sink = self.warnings.lock().expect("warning sink poisoned");
        if sink.len() <= warnings_before {
            // The common case — no warning this event — skips the
            // taint-source rendering entirely.
            return;
        }
        let taint_sources = taint_sources_of(event);
        provenance::attach(&self.engine, firings, &mut sink[warnings_before..], |_, p| {
            p.event_index = self.events_processed;
            p.syscall = event.syscall().to_string();
            p.taint_sources = taint_sources.clone();
        });
    }

    /// All warnings issued so far.
    pub fn warnings(&self) -> Vec<Warning> {
        let snapshot: Vec<Arc<Warning>> =
            self.warnings.lock().expect("warning sink poisoned").clone();
        snapshot.iter().map(|w| (**w).clone()).collect()
    }

    /// Match-network counters for this expert's engine (all-zero when
    /// the engine was built with the naive matcher).
    pub fn match_stats(&self) -> MatchStats {
        self.engine.match_stats()
    }

    /// Folds this expert's counters into `metrics`: the match-network
    /// stats plus `hth_secpert_events` / `hth_secpert_warnings`.
    pub fn record_metrics(&self, metrics: &mut hth_trace::MetricsSnapshot) {
        self.engine.match_stats().record_metrics(metrics);
        metrics.add_counter("hth_secpert_events", self.events_processed);
        let warnings = self.warnings.lock().expect("warning sink poisoned").len();
        metrics.add_counter("hth_secpert_warnings", warnings as u64);
    }

    /// Takes the engine's printout transcript (paper-style warning text).
    pub fn take_transcript(&mut self) -> String {
        self.engine.take_output()
    }

    // ----- snapshot / restore -------------------------------------------

    /// Serializes this expert's resumable state: the event cursor plus
    /// the engine's facts, refraction set, and counters (see
    /// [`EngineSnapshot`]). The layout is the codec's header (`"HTHS"` +
    /// a version byte) and one uncapped CRC frame (`varint length`,
    /// little-endian CRC32, payload), so torn writes are detected on load
    /// exactly like a torn journal tail. Warnings are *not* carried —
    /// they live in the host's sink, and a resumed expert starts with an
    /// empty one.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Engine`] when the engine is not
    /// quiescent (mid-event; only snapshot between events).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let engine_snap = self.engine.snapshot()?;
        let mut payload = Vec::new();
        codec::put_varint(&mut payload, self.events_processed);
        payload.extend_from_slice(&engine_snap.encode());
        let mut out = Vec::with_capacity(payload.len() + 16);
        codec::write_header(&mut out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        SNAPSHOT_FRAMING.put(&mut out, &payload);
        Ok(out)
    }

    /// Rebuilds an expert from [`Secpert::snapshot`] bytes, against the
    /// same policy configuration the snapshot was taken under:
    /// [`Secpert::new`] then [`Secpert::resume`].
    ///
    /// # Errors
    ///
    /// As [`Secpert::resume`], plus [`SnapshotError::Engine`] when the
    /// policy fails to load.
    pub fn restore(config: &PolicyConfig, bytes: &[u8]) -> Result<Secpert, SnapshotError> {
        let mut expert = Secpert::new(config)?;
        expert.resume(bytes)?;
        Ok(expert)
    }

    /// Loads [`Secpert::snapshot`] bytes into this expert, which must
    /// not have processed an event yet and must carry the rules and
    /// templates the snapshotted one did: built from the same
    /// configuration and extended the same way (an expert armed by
    /// [`crate::Correlator::arm`] resumes into a fresh expert armed by
    /// the same correlator). Events processed after this pick up exactly
    /// where the snapshotted expert left off (fact ids, firing seqs,
    /// provenance event indices).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for torn or corrupt bytes (callers
    /// fall back to a full journal replay); [`SnapshotError::Engine`]
    /// when the snapshot names a template or rule this expert lacks.
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let version = codec::read_header(bytes, SNAPSHOT_MAGIC)
            .map_err(|_| SnapshotError::Corrupt("not a Secpert snapshot (bad magic)".into()))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let mut r = Reader::new(&bytes[HEADER_LEN..]);
        let mut payload = Reader::new(SNAPSHOT_FRAMING.read(&mut r)?);
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after snapshot frame",
                r.rest().len()
            )));
        }
        let events_processed = payload.varint()?;
        let engine_snap = EngineSnapshot::decode(payload.rest())?;
        self.engine.restore(&engine_snap)?;
        self.events_processed = events_processed;
        Ok(())
    }

    /// Approximate resident bytes attributable to this expert's event
    /// history: engine state (working memory, match network, firing
    /// records) plus the warning sink and interning caches. The input to
    /// fleet memory budgeting; an estimate, not an allocator census.
    pub fn approx_bytes(&self) -> usize {
        let warnings: usize = {
            let sink = self.warnings.lock().expect("warning sink poisoned");
            sink.iter()
                .map(|w| {
                    96 + w.rule.len()
                        + w.message.len()
                        + w.provenance.as_ref().map_or(0, |p| {
                            128 + p.rule_chain.iter().map(String::len).sum::<usize>()
                                + p.taint_sources.iter().map(String::len).sum::<usize>()
                                + p.support.iter().map(|s| 48 + s.fact.len()).sum::<usize>()
                        })
                })
                .sum()
        };
        let cache =
            (self.values.strs.len() + self.values.syms.len()) * 64 + self.values.addrs.len() * 32;
        self.engine.approx_bytes() + warnings + cache
    }

    fn event_to_fact(&mut self, event: &SecpertEvent) -> Result<Fact, EngineError> {
        fn names(cache: &mut ValueCache, sources: &[SourceInfo]) -> Value {
            Value::multi(sources.iter().map(|s| cache.str_of(&s.name)))
        }
        fn types(cache: &mut ValueCache, sources: &[SourceInfo]) -> Value {
            Value::multi(sources.iter().map(|s| cache.sym_of(s.kind.symbol())))
        }
        fn origin_names(cache: &mut ValueCache, origin: &Origin) -> Value {
            names(cache, &origin.sources)
        }
        fn origin_types(cache: &mut ValueCache, origin: &Origin) -> Value {
            types(cache, &origin.sources)
        }

        let Secpert { engine, values, .. } = self;
        match event {
            SecpertEvent::ResourceAccess {
                pid,
                syscall,
                resource,
                origin,
                time,
                frequency,
                address,
                proc_count,
                proc_rate,
                mem_total,
                server,
            } => {
                let mut b: FactBuilder = engine
                    .fact("system_call_access")?
                    .slot("pid", i64::from(*pid))
                    .slot("system_call_name", values.sym_of(syscall))
                    .slot("resource_name", values.str_of(&resource.name))
                    .slot("resource_type", values.sym_of(resource.kind.symbol()))
                    .slot("resource_origin_name", origin_names(values, origin))
                    .slot("resource_origin_type", origin_types(values, origin))
                    .slot("time", *time as i64)
                    .slot("frequency", *frequency as i64)
                    .slot("address", values.addr_of(*address))
                    .slot("proc_count", proc_count.unwrap_or(0) as i64)
                    .slot("proc_rate", proc_rate.unwrap_or(0) as i64)
                    .slot("mem_total", mem_total.unwrap_or(0) as i64);
                if let Some(server) = server {
                    b = b
                        .slot("server_address", values.str_of(&server.address))
                        .slot("server_origin_name", origin_names(values, &server.origin))
                        .slot("server_origin_type", origin_types(values, &server.origin));
                }
                b.build()
            }
            SecpertEvent::DataTransfer {
                pid,
                syscall,
                data_sources,
                data_origin,
                target,
                target_origin,
                time,
                frequency,
                address,
                executable_content,
                server,
                // Byte counts feed the fleet correlator's digests, not
                // the per-session policy's facts.
                bytes: _,
            } => {
                let mut b = engine
                    .fact("data_transfer")?
                    .slot("pid", i64::from(*pid))
                    .slot("system_call_name", values.sym_of(syscall))
                    .slot("source_name", names(values, data_sources))
                    .slot("source_type", types(values, data_sources))
                    .slot("data_origin_name", origin_names(values, data_origin))
                    .slot("data_origin_type", origin_types(values, data_origin))
                    .slot("target_name", values.str_of(&target.name))
                    .slot("target_type", values.sym_of(target.kind.symbol()))
                    .slot("target_origin_name", origin_names(values, target_origin))
                    .slot("target_origin_type", origin_types(values, target_origin))
                    .slot("time", *time as i64)
                    .slot("frequency", *frequency as i64)
                    .slot("address", values.addr_of(*address))
                    .slot(
                        "executable_content",
                        values.sym_of(if *executable_content { "TRUE" } else { "FALSE" }),
                    );
                if let Some(server) = server {
                    b = b
                        .slot("server_address", values.str_of(&server.address))
                        .slot("server_origin_name", origin_names(values, &server.origin))
                        .slot("server_origin_type", origin_types(values, &server.origin));
                }
                b.build()
            }
        }
    }
}

/// The event's taint-source set, rendered `KIND(name)`: the resource
/// origin for accesses; the data origin plus the target origin
/// (deduplicated, in that order) for transfers.
fn taint_sources_of(event: &SecpertEvent) -> Vec<String> {
    fn render(source: &SourceInfo) -> String {
        format!("{}({})", source.kind.symbol(), source.name)
    }
    match event {
        SecpertEvent::ResourceAccess { origin, .. } => origin.sources.iter().map(render).collect(),
        SecpertEvent::DataTransfer { data_origin, target_origin, .. } => {
            let mut out: Vec<String> = data_origin.sources.iter().map(render).collect();
            for source in &target_origin.sources {
                let rendered = render(source);
                if !out.contains(&rendered) {
                    out.push(rendered);
                }
            }
            out
        }
    }
}

/// Registers the `filter_*` natives used by the policy: each takes two
/// parallel multifields (types, names) and returns the names of the
/// entries with the wanted type, minus trusted ones.
pub(crate) fn register_filters(engine: &mut Engine, config: &PolicyConfig) {
    fn filter(
        args: &[Value],
        wanted: &'static str,
        trusted: Arc<Vec<String>>,
    ) -> Result<Value, EngineError> {
        let [types, names] = args else {
            return Err(EngineError::Type {
                expected: "two multifields (types, names)",
                found: format!("{} arguments", args.len()),
            });
        };
        let types = types.as_multi()?;
        let names = names.as_multi()?;
        let mut out = Vec::new();
        for (t, n) in types.iter().zip(names.iter()) {
            if t.is_sym(wanted) {
                let name = n.as_text().unwrap_or_default();
                if !trusted.iter().any(|trust| name.contains(trust.as_str())) {
                    out.push(n.clone());
                }
            }
        }
        // The common verdict is "nothing suspicious" — reuse the cached
        // empty multifield instead of allocating one per call.
        Ok(if out.is_empty() { Value::empty_multi() } else { Value::multi(out) })
    }

    let trusted_bin = Arc::new(config.trusted_binaries.clone());
    let trusted_sock = Arc::new(config.trusted_sockets.clone());
    let none: Arc<Vec<String>> = Arc::new(Vec::new());

    let t = trusted_bin;
    engine.register_fn("filter_binary", move |args| filter(args, "BINARY", t.clone()));
    let t = trusted_sock.clone();
    engine.register_fn("filter_socket", move |args| filter(args, "SOCKET", t.clone()));
    let t = trusted_sock;
    engine.register_fn("filter_sockets_in", move |args| filter(args, "SOCKET", t.clone()));
    let t = none.clone();
    engine.register_fn("filter_file", move |args| filter(args, "FILE", t.clone()));
    let t = none.clone();
    engine.register_fn("filter_user", move |args| filter(args, "USER_INPUT", t.clone()));
    let t = none;
    engine.register_fn("filter_hardware", move |args| filter(args, "HARDWARE", t.clone()));

    register_severity_text(engine);
}

/// Registers the `severity-text` native (level → `Warning [LOW]` …).
/// Shared with the fleet correlator, which has no `filter_*` natives.
pub(crate) fn register_severity_text(engine: &mut Engine) {
    engine.register_fn("severity-text", |args| {
        let level = args
            .first()
            .ok_or(EngineError::Type { expected: "severity level", found: "nothing".into() })?
            .as_int()?;
        let text = match level {
            1 => "Warning [LOW]",
            2 => "Warning [MEDIUM]",
            3 => "Warning [HIGH]",
            _ => "Warning [?]",
        };
        Ok(Value::str(text))
    });
}

/// Registers the `warn` native: `(warn level rule pid time message)`.
pub(crate) fn register_warn(engine: &mut Engine, sink: WarningSink) {
    engine.register_fn("warn", move |args| {
        let [level, rule, pid, time, message] = args else {
            return Err(EngineError::Type {
                expected: "(warn level rule pid time message)",
                found: format!("{} arguments", args.len()),
            });
        };
        let severity = Severity::from_level(level.as_int()?)
            .ok_or(EngineError::Type { expected: "severity 1..=3", found: level.to_string() })?;
        let warning = Warning {
            severity,
            rule: rule.as_text().unwrap_or("?").to_string(),
            pid: pid.as_int()? as u32,
            time: time.as_int()? as u64,
            message: message.to_display_string(),
            provenance: None,
        };
        sink.lock().expect("warning sink poisoned").push(Arc::new(warning));
        hth_trace::instant("secpert.warning");
        Ok(Value::truth())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{ResourceType, ServerInfo};

    fn access_event(
        syscall: &'static str,
        name: &str,
        origin: Vec<(ResourceType, &str)>,
    ) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall,
            resource: SourceInfo::new(ResourceType::File, name),
            origin: Origin {
                sources: origin.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
            },
            time: 10,
            frequency: 5,
            address: 0x8048403,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn policy_loads() {
        let secpert = Secpert::new(&PolicyConfig::default());
        assert!(secpert.is_ok(), "{:?}", secpert.err());
    }

    #[test]
    fn hardcoded_execve_is_low() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/ls",
                vec![(ResourceType::Binary, "/bin/dropper")],
            ))
            .unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Low);
        assert!(w[0].message.contains("SYS_execve"));
        assert!(w[0].message.contains("/bin/ls"));
        let transcript = s.take_transcript();
        assert!(transcript.contains("Warning [LOW]"), "{transcript}");
    }

    #[test]
    fn user_execve_is_silent() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/ls",
                vec![(ResourceType::UserInput, "USER_INPUT")],
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn socket_execve_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/tmp/payload",
                vec![(ResourceType::Socket, "evil:99 (AF_INET)")],
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
    }

    #[test]
    fn rare_late_hardcoded_execve_is_medium() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let event = SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_execve",
            resource: SourceInfo::new(ResourceType::File, "/bin/sh"),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")] },
            time: 500,    // > LONG_TIME
            frequency: 1, // < RARE_FREQUENCY
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        };
        let w = s.process_event(&event).unwrap();
        assert_eq!(w[0].severity, Severity::Medium);
        assert!(w[0].message.contains("rarely executed"));
    }

    #[test]
    fn trusted_libc_execve_is_filtered() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        // The ElmExploit false negative: /bin/sh string lives in libc.so.
        let w = s
            .process_event(&access_event(
                "SYS_execve",
                "/bin/sh",
                vec![(ResourceType::Binary, "/lib/tls/libc.so.6")],
            ))
            .unwrap();
        assert!(w.is_empty(), "trusted libc must be filtered: {w:?}");
    }

    #[test]
    fn clone_count_and_rate_rules() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let mk = |count, rate| SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_clone",
            resource: SourceInfo::new(ResourceType::Unknown, "process"),
            origin: Origin::unknown(),
            time: 5,
            frequency: 3,
            address: 0,
            proc_count: Some(count),
            proc_rate: Some(rate),
            mem_total: None,
            server: None,
        };
        assert!(s.process_event(&mk(2, 2)).unwrap().is_empty());
        let w = s.process_event(&mk(10, 2)).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Low);
        let w = s.process_event(&mk(30, 25)).unwrap();
        assert_eq!(w.len(), 2, "both count (Low) and rate (Medium) fire");
        assert!(w.iter().any(|w| w.severity == Severity::Medium));
    }

    fn transfer(
        sources: Vec<(ResourceType, &str)>,
        data_origin: Vec<(ResourceType, &str)>,
        target: (ResourceType, &str),
        target_origin: Vec<(ResourceType, &str)>,
        server: Option<ServerInfo>,
    ) -> SecpertEvent {
        let mk = |v: Vec<(ResourceType, &str)>| Origin {
            sources: v.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
        };
        SecpertEvent::DataTransfer {
            pid: 1,
            syscall: "SYS_write",
            data_sources: sources.into_iter().map(|(k, n)| SourceInfo::new(k, n)).collect(),
            data_origin: mk(data_origin),
            target: SourceInfo::new(target.0, target.1),
            target_origin: mk(target_origin),
            time: 10,
            frequency: 5,
            address: 0,
            executable_content: false,
            server,
            bytes: 0,
        }
    }

    #[test]
    fn file_to_socket_matrix() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        // user file + user socket: silent.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Socket, "h:1 (AF_INET)"),
                vec![(ResourceType::UserInput, "USER_INPUT")],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
        // user file + hardcoded socket: Low.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Socket, "h:2 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::Low);
        // hardcoded file + hardcoded socket: High.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::Binary, "/bin/x")],
                (ResourceType::Socket, "h:3 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
    }

    #[test]
    fn binary_to_hardcoded_file_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Binary, "/bin/grabem")],
                vec![],
                (ResourceType::File, ".exrc%"),
                vec![(ResourceType::Binary, "/bin/grabem")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
        assert!(w[0].message.contains(".exrc%"));
    }

    #[test]
    fn hardware_to_hardcoded_file_is_high() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Hardware, "HARDWARE")],
                vec![],
                (ResourceType::File, "hw.dat"),
                vec![(ResourceType::Binary, "/bin/x")],
                None,
            ))
            .unwrap();
        assert_eq!(w[0].severity, Severity::High);
        // user filename: silent.
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::Hardware, "HARDWARE")],
                vec![],
                (ResourceType::File, "user.dat"),
                vec![(ResourceType::UserInput, "USER_INPUT")],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn backdoor_server_rule_fires_with_server_context() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let server = ServerInfo {
            address: "LocalHost:11116 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
        };
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "outpipe32425")],
                vec![(ResourceType::Binary, "pmad")],
                (ResourceType::Socket, "gateway:36982 (AF_INET)"),
                vec![(ResourceType::Socket, "gateway:36982 (AF_INET)")],
                Some(server),
            ))
            .unwrap();
        assert!(w
            .iter()
            .any(|w| w.rule == "check_backdoor_server" && w.severity == Severity::High));
        assert!(w.iter().any(|w| w.message.contains("server with the address")));
    }

    #[test]
    fn console_writes_are_silent() {
        let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
        let w = s
            .process_event(&transfer(
                vec![(ResourceType::File, "/etc/motd")],
                vec![(ResourceType::UserInput, "USER_INPUT")],
                (ResourceType::Console, "STDOUT"),
                vec![],
                None,
            ))
            .unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn batch_is_equivalent_to_per_event() {
        let server = ServerInfo {
            address: "LocalHost:11116 (AF_INET)".into(),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
        };
        let events = vec![
            access_event("SYS_execve", "/bin/ls", vec![(ResourceType::Binary, "/bin/dropper")]),
            access_event("SYS_execve", "/bin/ls", vec![(ResourceType::UserInput, "USER_INPUT")]),
            transfer(
                vec![(ResourceType::File, "/etc/passwd")],
                vec![(ResourceType::Binary, "/bin/x")],
                (ResourceType::Socket, "h:3 (AF_INET)"),
                vec![(ResourceType::Binary, "/bin/x")],
                Some(server),
            ),
            access_event("SYS_open", "/tmp/f", vec![(ResourceType::Binary, "/bin/x")]),
        ];
        let mut per_event = Secpert::new(&PolicyConfig::default()).unwrap();
        let mut batched = Secpert::new(&PolicyConfig::default()).unwrap();
        let mut expected = Vec::new();
        for event in &events {
            expected.extend(per_event.process_event(event).unwrap());
        }
        let got = batched.process_batch(&events).unwrap();
        assert_eq!(expected, got);
        assert_eq!(per_event.match_stats(), batched.match_stats());
        assert_eq!(per_event.events_processed(), batched.events_processed());
        assert_eq!(per_event.take_transcript(), batched.take_transcript());
        assert_eq!(per_event.warnings(), batched.warnings());
    }

    /// Every expert starts from the standard policy, and the engine
    /// refuses a second `defrule`/`deftemplate` of a taken name and
    /// removes no rule. So no custom rule set can displace the cleanup
    /// catch-alls or the event templates they match: every event fact
    /// is built, matched and retracted.
    #[test]
    fn cleanup_rules_and_event_templates_cannot_be_redefined() {
        let texts = [
            (
                "cleanup_data_transfer",
                "(defrule cleanup_data_transfer (data_transfer (target_type SOCKET)) \
                 => (printout t crlf))",
            ),
            (
                "cleanup_system_call_access",
                "(defrule cleanup_system_call_access \
                 (system_call_access (system_call_name SYS_open)) => (printout t crlf))",
            ),
            ("data_transfer", "(deftemplate data_transfer (slot pid))"),
            ("system_call_access", "(deftemplate system_call_access (slot pid))"),
        ];
        for (name, text) in texts {
            let config =
                PolicyConfig { extra_rules: vec![text.to_string()], ..PolicyConfig::default() };
            assert!(
                matches!(Secpert::new(&config), Err(EngineError::Redefinition(n)) if n == name),
                "extra_rules accepted {text}"
            );
            let mut s = Secpert::new(&PolicyConfig::default()).unwrap();
            assert!(
                matches!(s.load_policy(text), Err(EngineError::Redefinition(n)) if n == name),
                "load_policy accepted {text}"
            );
        }
    }

    #[test]
    fn working_memory_stays_clean() {
        let socket_rule = PolicyConfig {
            extra_rules: vec!["(defrule on_socket_transfer \
                 (data_transfer (target_type SOCKET)) => (printout t crlf))"
                .to_string()],
            ..PolicyConfig::default()
        };
        for config in [PolicyConfig::default(), socket_rule] {
            let mut s = Secpert::new(&config).unwrap();
            for i in 0..20 {
                let _ = s
                    .process_event(&access_event(
                        "SYS_open",
                        &format!("/tmp/f{i}"),
                        vec![(ResourceType::Binary, "/bin/x")],
                    ))
                    .unwrap();
                let target = if i % 2 == 0 {
                    (ResourceType::Socket, "h:1 (AF_INET)")
                } else {
                    (ResourceType::File, "/tmp/out")
                };
                let _ = s
                    .process_event(&transfer(
                        vec![(ResourceType::File, "/etc/passwd")],
                        vec![],
                        target,
                        vec![],
                        None,
                    ))
                    .unwrap();
            }
            // Only initial-fact should remain after cleanup rules.
            assert_eq!(s.engine_mut().fact_count(), 1);
        }
    }
}
