//! Always-on flight recorder and diagnostic bundles.
//!
//! The opt-in tracer ([`crate::trace`]) answers "how fast was it?" when
//! someone thought to turn it on. This module answers "what was the
//! system doing?" at the moment something went wrong — and it is always
//! on, independent of the tracer's `ENABLED` gate, so the evidence
//! exists *before* anyone knew they would need it.
//!
//! A [`FlightRecorder`] is a bounded ring of compact [`FlightEntry`]
//! records (recent decoded events, faults, requests) plus coarse
//! per-stage timing accumulators. Recording is allocation-free: entries
//! hold fixed-capacity inline strings ([`SmallStr`]), so the hot path
//! pays one uncontended mutex and a memcpy. Only owners whose bundles
//! someone reads keep a recorder: each shard of an analyst pool and
//! each serve-daemon table owns its own, at [`DEFAULT_FLIGHT_CAPACITY`],
//! so there is no cross-thread contention.
//!
//! When a trigger fires — a shard quarantine, or on the serve table a
//! high-severity warning, a torn-snapshot fallback or a protocol drop
//! ([`Trigger`]) — the owner snapshots the ring together with its
//! current stats into a [`DiagnosticBundle`]: the event tail, stage
//! timings, a metrics snapshot plus the delta since the previous
//! capture, and the triggering warning's rendered provenance. A pool
//! hands its bundles out in its report (dumpable to disk as JSON); the
//! table retains its own in a bounded [`BundleRing`], fetchable over
//! the serve daemon's `/bundles/<n>` endpoint.
//!
//! [`DiagnosticBundle::render`] is deliberately restricted to the
//! deterministic fields (trigger, event tail, provenance) so that a
//! seeded chaos run renders byte-identically across runs; the JSON form
//! ([`DiagnosticBundle::to_json`]) carries everything, timings
//! included.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::MetricsSnapshot;

/// A fixed-capacity inline string: the flight recorder's hot path must
/// not allocate, so labels and details are truncated into these.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SmallStr {
    len: u8,
    bytes: [u8; SmallStr::CAP],
}

impl SmallStr {
    /// Inline capacity in bytes; longer strings are truncated at a
    /// character boundary.
    pub const CAP: usize = 46;

    /// Copies (at most [`SmallStr::CAP`] bytes of) `s` inline.
    pub fn new(s: &str) -> SmallStr {
        let mut end = s.len().min(SmallStr::CAP);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; SmallStr::CAP];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallStr { len: end as u8, bytes }
    }

    /// The stored prefix.
    pub fn as_str(&self) -> &str {
        // Construction only ever stores a UTF-8 prefix cut at a char
        // boundary, so this cannot fail.
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

impl std::fmt::Display for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// One recorded moment: an event analyzed, a request served, a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// Recorder-local ordinal, 1-based; the nth thing this recorder saw.
    pub seq: u64,
    /// Session the entry belongs to (0 when not applicable).
    pub session: u64,
    /// Virtual time of the event (0 when not applicable).
    pub time: u64,
    /// Entry class: `"event"`, `"warning"`, `"fault"`, `"request"`, …
    pub kind: &'static str,
    /// Short label — typically the syscall or request name.
    pub label: SmallStr,
    /// Short detail — typically the resource or message.
    pub detail: SmallStr,
}

impl FlightEntry {
    fn render_line(&self) -> String {
        format!(
            "seq {} session {} time {} {} {} {}",
            self.seq, self.session, self.time, self.kind, self.label, self.detail
        )
    }
}

/// What fired a bundle capture. The taxonomy is pinned in DESIGN.md
/// §8.1; every variant names enough context to find the culprit without
/// the bundle (the bundle adds the surrounding evidence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// A high-severity warning fired.
    Warning {
        /// Rule that fired.
        rule: String,
        /// Rendered severity (`HIGH`, …).
        severity: String,
    },
    /// A pool shard died and was quarantined.
    Quarantine {
        /// Faulted shard index.
        shard: usize,
        /// 1-based ordinal of the event that killed it.
        event_nth: u64,
        /// Panic / failure message.
        message: String,
    },
    /// A torn snapshot forced a full journal replay on session revival.
    RestoreFallback {
        /// Session whose snapshot was unusable.
        session: u64,
    },
    /// A protocol error dropped a connection.
    ProtocolDrop {
        /// The decode / framing error.
        error: String,
    },
}

impl Trigger {
    /// Stable lowercase kind tag (used in JSON and the bundle index).
    pub fn kind(&self) -> &'static str {
        match self {
            Trigger::Warning { .. } => "warning",
            Trigger::Quarantine { .. } => "quarantine",
            Trigger::RestoreFallback { .. } => "restore_fallback",
            Trigger::ProtocolDrop { .. } => "protocol_drop",
        }
    }

    /// One-line human description.
    pub fn detail(&self) -> String {
        match self {
            Trigger::Warning { rule, severity } => format!("[{severity}] {rule}"),
            Trigger::Quarantine { shard, event_nth, message } => {
                format!("shard {shard} event {event_nth}: {message}")
            }
            Trigger::RestoreFallback { session } => {
                format!("session {session}: torn snapshot, full replay")
            }
            Trigger::ProtocolDrop { error } => format!("connection dropped: {error}"),
        }
    }

    fn json_fields(&self, out: &mut String) {
        match self {
            Trigger::Warning { rule, severity } => {
                let _ = write!(out, ",\"rule\":{},\"severity\":{}", quote(rule), quote(severity));
            }
            Trigger::Quarantine { shard, event_nth, message } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"event_nth\":{event_nth},\"message\":{}",
                    quote(message)
                );
            }
            Trigger::RestoreFallback { session } => {
                let _ = write!(out, ",\"session\":{session}");
            }
            Trigger::ProtocolDrop { error } => {
                let _ = write!(out, ",\"error\":{}", quote(error));
            }
        }
    }
}

/// Cumulative coarse timing for one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StageTiming {
    batches: u64,
    nanos: u64,
}

#[derive(Debug)]
struct FlightState {
    ring: VecDeque<FlightEntry>,
    seq: u64,
    overwritten: u64,
    stages: BTreeMap<&'static str, StageTiming>,
    last_stats: MetricsSnapshot,
    captures: u64,
}

/// A bounded, always-on ring of recent [`FlightEntry`] records plus
/// coarse stage timings. One per shard / per table; see the module
/// docs for the overhead budget.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
}

/// Default ring capacity: enough tail to see what led up to a fault,
/// small enough that a ring costs ~30 KiB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` entries (min 1). Owners
    /// build [`FlightRecorder::default`]; the module's tests use small
    /// rings.
    fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            state: Mutex::new(FlightState {
                ring: VecDeque::with_capacity(capacity),
                seq: 0,
                overwritten: 0,
                stages: BTreeMap::new(),
                last_stats: MetricsSnapshot::new(),
                captures: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one entry. Allocation-free; one uncontended mutex.
    pub fn record(&self, session: u64, time: u64, kind: &'static str, label: &str, detail: &str) {
        let mut state = self.lock();
        state.seq += 1;
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
            state.overwritten += 1;
        }
        let seq = state.seq;
        state.ring.push_back(FlightEntry {
            seq,
            session,
            time,
            kind,
            label: SmallStr::new(label),
            detail: SmallStr::new(detail),
        });
    }

    /// Accumulates coarse timing for a named stage (call per drained
    /// run, not per event — the point is attribution, not precision).
    pub fn stage(&self, stage: &'static str, nanos: u64) {
        let mut state = self.lock();
        let timing = state.stages.entry(stage).or_default();
        timing.batches += 1;
        timing.nanos += nanos;
    }

    /// Total entries ever recorded (the seq of the newest entry).
    pub fn recorded(&self) -> u64 {
        self.lock().seq
    }

    /// Snapshots the ring and stats into a [`DiagnosticBundle`]. The
    /// bundle's `delta` is `stats` minus the `stats` of this recorder's
    /// previous capture (or empty at the first capture).
    pub fn capture(
        &self,
        component: &str,
        trigger: Trigger,
        stats: MetricsSnapshot,
        provenance: Vec<String>,
    ) -> DiagnosticBundle {
        let mut state = self.lock();
        let delta = stats.delta(&state.last_stats);
        state.last_stats = stats.clone();
        state.captures += 1;
        DiagnosticBundle {
            id: state.captures - 1,
            component: component.to_string(),
            trigger,
            events: state.ring.iter().copied().collect(),
            events_overwritten: state.overwritten,
            stages: state
                .stages
                .iter()
                .map(|(name, t)| (name.to_string(), t.batches, t.nanos))
                .collect(),
            stats,
            delta,
            provenance,
        }
    }
}

/// Everything known at the moment a trigger fired, serializable and
/// ring-retained. See the module docs for the render/JSON determinism
/// split.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosticBundle {
    /// Ordinal. Assigned per recorder at capture; re-assigned where
    /// several recorders' bundles meet: the retention-ring ordinal when
    /// pushed into a [`BundleRing`], the index in a pool's report.
    pub id: u64,
    /// Who captured it (`pool.shard3`, `serve.table`, …).
    pub component: String,
    /// What fired the capture.
    pub trigger: Trigger,
    /// The ring tail at capture time, oldest first.
    pub events: Vec<FlightEntry>,
    /// Entries lost to ring overwrite before the capture.
    pub events_overwritten: u64,
    /// Coarse stage timings: `(stage, batches, cumulative nanos)`.
    pub stages: Vec<(String, u64, u64)>,
    /// Full metrics snapshot at capture time.
    pub stats: MetricsSnapshot,
    /// `stats` minus the previous capture's snapshot.
    pub delta: MetricsSnapshot,
    /// Rendered provenance of the triggering warning (empty when the
    /// trigger carries no warning).
    pub provenance: Vec<String>,
}

impl DiagnosticBundle {
    /// One index line: `#id kind (component): detail`.
    pub fn summary(&self) -> String {
        format!(
            "#{} {} ({}): {}",
            self.id,
            self.trigger.kind(),
            self.component,
            self.trigger.detail()
        )
    }

    /// Deterministic rendering: trigger, event tail, provenance — no
    /// timings, no stats, so a seeded run renders byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "diagnostic bundle: {} ({})", self.trigger.kind(), self.component);
        let _ = writeln!(out, "  trigger: {}", self.trigger.detail());
        let _ = writeln!(
            out,
            "  events: {} retained, {} overwritten",
            self.events.len(),
            self.events_overwritten
        );
        for entry in &self.events {
            let _ = writeln!(out, "    {}", entry.render_line());
        }
        if !self.provenance.is_empty() {
            let _ = writeln!(out, "  provenance:");
            for line in &self.provenance {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }

    /// The full bundle as JSON (hand-rolled; the workspace is
    /// dependency-free). Includes the nondeterministic timings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"id\":{},\"component\":{},", self.id, quote(&self.component));
        let _ = write!(out, "\"trigger\":{{\"kind\":{}", quote(self.trigger.kind()));
        self.trigger.json_fields(&mut out);
        let _ = write!(out, ",\"detail\":{}}},", quote(&self.trigger.detail()));
        out.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"session\":{},\"time\":{},\"kind\":{},\"label\":{},\"detail\":{}}}",
                e.seq,
                e.session,
                e.time,
                quote(e.kind),
                quote(e.label.as_str()),
                quote(e.detail.as_str())
            );
        }
        let _ = write!(out, "],\"events_overwritten\":{},", self.events_overwritten);
        out.push_str("\"stages\":{");
        for (i, (name, batches, nanos)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{{\"batches\":{batches},\"nanos\":{nanos}}}", quote(name));
        }
        out.push_str("},");
        write_metrics_json(&mut out, "stats", &self.stats);
        out.push(',');
        write_metrics_json(&mut out, "delta", &self.delta);
        out.push_str(",\"provenance\":[");
        for (i, line) in self.provenance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quote(line));
        }
        out.push_str("]}");
        out
    }
}

fn write_metrics_json(out: &mut String, key: &str, metrics: &MetricsSnapshot) {
    let _ = write!(out, "{}:{{\"counters\":{{", quote(key));
    for (i, (name, value)) in metrics.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", quote(name));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in metrics.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{value}", quote(name));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, histogram)) in metrics.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
            quote(name),
            histogram.count(),
            histogram.sum(),
            histogram.quantile(0.50),
            histogram.quantile(0.99)
        );
    }
    out.push_str("}}");
}

/// JSON string escaping for the hand-rolled serializers.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Bounded retention of captured bundles, oldest evicted first: what a
/// serve table captures and its `/bundles` endpoint serves.
#[derive(Debug)]
pub struct BundleRing {
    capacity: usize,
    state: Mutex<BundleRingState>,
}

#[derive(Debug)]
struct BundleRingState {
    ring: VecDeque<Arc<DiagnosticBundle>>,
    total: u64,
}

/// Default bundle retention.
pub const DEFAULT_BUNDLE_RETENTION: usize = 16;

impl Default for BundleRing {
    fn default() -> BundleRing {
        BundleRing::new(DEFAULT_BUNDLE_RETENTION)
    }
}

impl BundleRing {
    /// A ring retaining the last `capacity` bundles (min 1).
    pub fn new(capacity: usize) -> BundleRing {
        BundleRing {
            capacity: capacity.max(1),
            state: Mutex::new(BundleRingState { ring: VecDeque::new(), total: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BundleRingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Retains `bundle`, re-assigning its `id` to the ring-wide capture
    /// ordinal (what `/bundles/<n>` indexes). Returns the retained
    /// bundle.
    pub fn push(&self, mut bundle: DiagnosticBundle) -> Arc<DiagnosticBundle> {
        let mut state = self.lock();
        bundle.id = state.total;
        state.total += 1;
        let bundle = Arc::new(bundle);
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(Arc::clone(&bundle));
        bundle
    }

    /// Bundles ever captured (retained or not).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// The bundle with ring-wide id `id`, if still retained.
    pub fn get(&self, id: u64) -> Option<Arc<DiagnosticBundle>> {
        self.lock().ring.iter().find(|b| b.id == id).cloned()
    }

    /// All retained bundles, oldest first.
    pub fn list(&self) -> Vec<Arc<DiagnosticBundle>> {
        self.lock().ring.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_str_truncates_at_char_boundary() {
        assert_eq!(SmallStr::new("abc").as_str(), "abc");
        let long = "x".repeat(SmallStr::CAP + 10);
        assert_eq!(SmallStr::new(&long).as_str().len(), SmallStr::CAP);
        // A multi-byte char straddling the cap is dropped, not split.
        let tricky = format!("{}é", "a".repeat(SmallStr::CAP - 1));
        let stored = SmallStr::new(&tricky);
        assert_eq!(stored.as_str(), &tricky[..SmallStr::CAP - 1]);
    }

    #[test]
    fn ring_retains_tail_and_counts_overwrites() {
        let recorder = FlightRecorder::new(4);
        for i in 0..10u64 {
            recorder.record(1, i, "event", "SYS_open", &format!("/tmp/{i}"));
        }
        assert_eq!(recorder.recorded(), 10);
        let bundle = recorder.capture(
            "test",
            Trigger::ProtocolDrop { error: "torn frame".into() },
            MetricsSnapshot::new(),
            Vec::new(),
        );
        let tail = &bundle.events;
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.first().unwrap().seq, 7);
        assert_eq!(tail.last().unwrap().seq, 10);
        assert_eq!(tail.last().unwrap().detail.as_str(), "/tmp/9");
        assert_eq!(bundle.events_overwritten, 6);
    }

    #[test]
    fn capture_delta_is_since_previous_capture() {
        let recorder = FlightRecorder::new(4);
        let mut stats = MetricsSnapshot::new();
        stats.add_counter("hth_x", 5);
        let first = recorder.capture(
            "c",
            Trigger::RestoreFallback { session: 1 },
            stats.clone(),
            Vec::new(),
        );
        assert_eq!(first.delta.counter("hth_x"), 5);
        stats.add_counter("hth_x", 3);
        let second = recorder.capture(
            "c",
            Trigger::RestoreFallback { session: 1 },
            stats.clone(),
            Vec::new(),
        );
        assert_eq!(second.delta.counter("hth_x"), 3);
        assert_eq!(second.stats.counter("hth_x"), 8);
    }

    #[test]
    fn bundle_json_is_parseable_shape() {
        let recorder = FlightRecorder::new(4);
        recorder.record(3, 40, "event", "SYS_open", "/etc/\"passwd\"");
        recorder.stage("pool.batch", 1234);
        let mut stats = MetricsSnapshot::new();
        stats.add_counter("hth_events", 1);
        stats.observe("hth_lat", 7);
        let bundle = recorder.capture(
            "pool.shard0",
            Trigger::Quarantine { shard: 0, event_nth: 5, message: "panic: boom".into() },
            stats,
            vec!["warning line".into()],
        );
        let json = bundle.to_json();
        assert!(json.contains("\"kind\":\"quarantine\""), "{json}");
        assert!(json.contains("\"shard\":0"), "{json}");
        assert!(json.contains("\\\"passwd\\\""), "{json}");
        assert!(json.contains("\"hth_events\":1"), "{json}");
        assert!(json.contains("\"pool.batch\""), "{json}");
        // Balanced braces/brackets outside strings — a cheap
        // well-formedness check (CI runs a real JSON parser).
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
    }

    #[test]
    fn bundle_ring_retains_and_indexes() {
        let ring = BundleRing::new(2);
        let recorder = FlightRecorder::new(4);
        for i in 0..3u64 {
            let bundle = recorder.capture(
                "c",
                Trigger::RestoreFallback { session: i },
                MetricsSnapshot::new(),
                Vec::new(),
            );
            ring.push(bundle);
        }
        assert_eq!(ring.total(), 3);
        assert!(ring.get(0).is_none(), "oldest evicted");
        assert_eq!(ring.get(1).unwrap().trigger, Trigger::RestoreFallback { session: 1 });
        assert_eq!(ring.get(2).unwrap().trigger, Trigger::RestoreFallback { session: 2 });
        let ids: Vec<u64> = ring.list().iter().map(|b| b.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn render_is_deterministic_for_same_inputs() {
        let make = || {
            let recorder = FlightRecorder::new(8);
            recorder.record(1, 10, "event", "SYS_socket", "1.2.3.4:6667");
            recorder.record(1, 11, "fault", "panic", "boom");
            recorder.stage("pool.batch", 999); // timings must not leak into render()
            recorder
                .capture(
                    "pool.shard1",
                    Trigger::Quarantine { shard: 1, event_nth: 2, message: "boom".into() },
                    MetricsSnapshot::new(),
                    vec!["prov".into()],
                )
                .render()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert!(a.contains("shard 1 event 2: boom"), "{a}");
        assert!(!a.contains("999"), "timings leaked into render: {a}");
    }
}
