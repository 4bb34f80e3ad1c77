//! `serve_churn`: an in-process `hth-serve` daemon on loopback, driven
//! on one connection by a seeded schedule of requests. Sessions arrive
//! on the schedule; each opens, labels itself, submits a real event
//! stream captured from the corpus and closes, while a few long-lived
//! sessions stay open throughout. The memory budget makes a share of
//! submits revive an evicted session, so policy compiles (open),
//! snapshot/restore plus journal replay (revive) and pure matching
//! (resident submit) all sit on the request path.
//!
//! The timed run sends the schedule closed-loop: each request as soon
//! as the previous one is acked, pass after pass. The traced run sends
//! it open-loop at a fixed rate, timing each ack from its due time, and
//! reports the generator's lateness and the daemon's backlog beside the
//! table replay's per-layer breakdown.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hth_core::harrier::SecpertEvent;
use hth_core::{PolicyConfig, Secpert};
use hth_fleet::wire::{self, EventDecoder, EventEncoder};
use hth_serve::protocol::{decode_ack, decode_request, encode_request, read_frame};
use hth_serve::{Ack, Request, ServeConfig, ServeSummary, Server, SessionTable, TableConfig};

use crate::corpus::{self, Stream};
use crate::probe::Probes;
use crate::report::{self, Report, Rng};
use crate::spans;

/// Offered load, requests per second (all kinds). The seed commit's
/// daemon is busy about a tenth of the time at this rate, so the
/// backlog stays flat and an ack's latency is mostly its own service
/// time: near saturation, queueing would multiply every change in
/// service time (or in host speed) several times over. Gaps between
/// requests are drawn uniformly from half to one and a half times the
/// mean gap; exponential gaps make bursts whose queueing swamps the
/// run-to-run comparison.
const RATE: u64 = 400;
/// Churning sessions open at any time.
const CHURN: usize = 6;
/// Sessions open for the whole run.
const LONG_LIVED: usize = 3;
/// Share of request slots that go to a long-lived session.
const LONG_SHARE: f64 = 0.1;
/// Resident-engine budget: small enough that a share of submits must
/// revive an evicted session.
const BUDGET_BYTES: usize = 24 << 10;
/// The generator starts this long after the server thread, so the
/// first due time is not already late.
const LEAD: Duration = Duration::from_millis(20);
/// The generator wakes this long before each request is due and, if
/// nothing is in flight, runs the host-speed probe (about 0.1 ms) and
/// spins until the request is due, so the probe neither delays a send
/// nor competes with the daemon. The shortest gap between requests is
/// 1.25 ms.
const PROBE_LEAD: Duration = Duration::from_micros(600);
/// Requests per window of the open-loop host-speed scaling (half a
/// second).
const SCALE_WINDOW: usize = RATE as usize / 2;
/// Closed loop: requests between two host-speed probes. The probe takes
/// about as long as a resident submit's round trip.
const CLOSED_PROBE_EVERY: usize = 8;
/// Closed loop: requests per window of the host-speed scaling, about
/// half a second.
const CLOSED_SCALE_WINDOW: usize = 2_000;
/// Closed loop: requests per window of the windowed medians, about two
/// seconds.
const CLOSED_WINDOW: usize = 4 * CLOSED_SCALE_WINDOW;
/// Longest wait for the next ack before the connection counts as lost.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
/// A run whose backlog (requests already due but not yet acked) is, on
/// average over its last quarter, more than this share plus
/// [`BACKLOG_SLACK`] requests above its first quarter's had a growing
/// backlog: it is invalid, not slow. A daemon that cannot hold the rate
/// falls behind by thousands of requests over a run; a host that runs
/// the whole process slower for a while raises the mean backlog by a
/// fraction of one request.
const BACKLOG_BOUND: f64 = 0.25;
const BACKLOG_SLACK: f64 = 1.0;

enum Op {
    Open,
    Label,
    Submit(usize),
    Close,
}

struct Planned {
    session: usize,
    op: Op,
}

struct SessionPlan {
    sid: u64,
    label: String,
    events: Vec<SecpertEvent>,
    /// Warnings each event raises in a fresh expert fed this stream.
    expect: Vec<u64>,
}

struct Plan {
    sessions: Vec<SessionPlan>,
    requests: Vec<Planned>,
    /// Each request, encoded and framed in send order.
    frames: Vec<Vec<u8>>,
    /// When each request is due, ns after the run's origin.
    due: Vec<u64>,
    corpus: Vec<Stream>,
    table: TableConfig,
}

pub struct Input {
    plan: Plan,
    server: Server,
}

impl Input {
    pub fn fingerprint(&self) -> String {
        self.plan.fingerprint()
    }
}

impl Plan {
    fn fingerprint(&self) -> String {
        let events: usize = self.sessions.iter().map(|s| s.events.len()).sum();
        let warnings: u64 = self.sessions.iter().flat_map(|s| &s.expect).sum();
        let bytes: usize = self.frames.iter().map(Vec::len).sum();
        let last_due = self.due.last().copied().unwrap_or(0);
        format!(
            "{} sessions, {} requests, {events} planned events, {warnings} expected warnings, {bytes} frame bytes, last due {last_due} ns",
            self.sessions.len(),
            self.requests.len()
        )
    }
}

/// Per-event warning counts of a fresh expert fed `events` in order.
fn expected_counts(events: &[SecpertEvent], policy: &PolicyConfig) -> Result<Vec<u64>, String> {
    let mut expert = Secpert::new(policy).map_err(|e| e.to_string())?;
    events
        .iter()
        .map(|e| expert.process_event(e).map(|w| w.len() as u64).map_err(|e| e.to_string()))
        .collect()
}

fn request_of(plan: &SessionPlan, op: &Op) -> Request {
    let session = plan.sid;
    match op {
        Op::Open => Request::Open { session },
        Op::Label => Request::Label { session, label: plan.label.clone() },
        Op::Submit(i) => Request::Submit { session, event: plan.events[*i].clone() },
        Op::Close => Request::Close { session },
    }
}

/// Captures the corpus, plans the request schedule for `seconds` at
/// [`RATE`], computes every expected ack, encodes the frames and binds
/// the server.
pub fn setup(seed: u64, seconds: u64) -> Result<Input, String> {
    let policy = PolicyConfig::default();
    let corpus = corpus::capture(&hth_workloads::all_scenarios())?;
    let corpus_expect: Vec<Vec<u64>> =
        corpus.iter().map(|s| expected_counts(&s.events, &policy)).collect::<Result<_, _>>()?;
    let mut rng = Rng::new(seed);
    let slots = (RATE * seconds) as usize;
    let sid_base = (rng.next_u64() & 0xFFFF_FFFF) << 16;
    let mut sessions: Vec<SessionPlan> = Vec::new();
    let mut requests: Vec<Planned> = Vec::new();

    // Long-lived sessions: concatenated corpus streams, long enough for
    // their share of the run.
    let long_events = (slots as f64 * LONG_SHARE / LONG_LIVED as f64 * 1.5) as usize + 1;
    for l in 0..LONG_LIVED {
        let mut events = Vec::new();
        while events.len() < long_events {
            events.extend(corpus[rng.below(corpus.len())].events.iter().cloned());
        }
        let expect = expected_counts(&events, &policy)?;
        sessions.push(SessionPlan {
            sid: sid_base + l as u64,
            label: format!("long-lived-{l}"),
            events,
            expect,
        });
        requests.push(Planned { session: l, op: Op::Open });
        requests.push(Planned { session: l, op: Op::Label });
    }
    let mut long_next = [0usize; LONG_LIVED];
    // Churn slots: (session index, next step) where step 0 is Open, 1
    // is Label, 2.. are submits, and the one after the last is Close.
    let mut churn: Vec<Option<(usize, usize)>> = vec![None; CHURN];
    while requests.len() < slots {
        if rng.unit() < LONG_SHARE {
            let l = rng.below(LONG_LIVED);
            if long_next[l] < sessions[l].events.len() {
                requests.push(Planned { session: l, op: Op::Submit(long_next[l]) });
                long_next[l] += 1;
                continue;
            }
        }
        let c = rng.below(CHURN);
        let (s, step) = match churn[c] {
            Some(slot) => slot,
            None => {
                let pick = rng.below(corpus.len());
                sessions.push(SessionPlan {
                    sid: sid_base + sessions.len() as u64,
                    label: corpus[pick].label.clone(),
                    events: corpus[pick].events.clone(),
                    expect: corpus_expect[pick].clone(),
                });
                (sessions.len() - 1, 0)
            }
        };
        let len = sessions[s].events.len();
        let op = match step {
            0 => Op::Open,
            1 => Op::Label,
            n if n - 2 < len => Op::Submit(n - 2),
            _ => Op::Close,
        };
        churn[c] = if matches!(op, Op::Close) { None } else { Some((s, step + 1)) };
        requests.push(Planned { session: s, op });
    }
    // Drain: close whatever is still open; its expected totals cover
    // the events actually submitted.
    for (s, _) in churn.iter().flatten() {
        requests.push(Planned { session: *s, op: Op::Close });
    }
    for l in 0..LONG_LIVED {
        requests.push(Planned { session: l, op: Op::Close });
    }
    let mut at = 0.0f64;
    let due = (0..requests.len())
        .map(|_| {
            let this = at as u64;
            at += (0.5 + rng.unit()) * 1e9 / RATE as f64;
            this
        })
        .collect();
    let mut encoder = EventEncoder::new();
    let frames = requests
        .iter()
        .map(|r| encode_request(&request_of(&sessions[r.session], &r.op), &mut encoder))
        .collect();
    let table = TableConfig { budget_bytes: BUDGET_BYTES, ..TableConfig::default() };
    let server =
        Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, table: table.clone() })
            .map_err(|e| format!("binding the daemon: {e}"))?;
    Ok(Input { plan: Plan { sessions, requests, frames, due, corpus, table }, server })
}

/// The value each request's ack must carry: warnings raised for a
/// submit, the session total so far for a close, 0 otherwise.
fn expected_acks(plan: &Plan) -> Vec<u64> {
    let mut totals = vec![0u64; plan.sessions.len()];
    plan.requests
        .iter()
        .map(|r| match r.op {
            Op::Submit(i) => {
                let n = plan.sessions[r.session].expect[i];
                totals[r.session] += n;
                n
            }
            Op::Close => totals[r.session],
            Op::Open | Op::Label => 0,
        })
        .collect()
}

/// Sleep overshoot is set by the thread's timer slack (50 us by
/// default), which would show up as generator lateness. One nanosecond
/// keeps the open-loop schedule honest without spinning.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads exactly one unsigned long argument,
    // passed here as c_ulong, and changes only the calling thread's slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// The ack side of the client's connection. Linux delays a receiver's
/// TCP ACK while it also sends, to ride on its next segment; the
/// daemon's Nagle algorithm then holds each ack until that ACK arrives,
/// i.e. until the next request is sent, and ack latency would track the
/// request gap instead of the daemon. Re-arming `TCP_QUICKACK` after
/// every read makes the client acknowledge each ack at once.
struct QuickAckReader(TcpStream);

impl QuickAckReader {
    fn quickack(&self) {
        use std::os::fd::AsRawFd as _;
        extern "C" {
            fn setsockopt(
                fd: std::ffi::c_int,
                level: std::ffi::c_int,
                name: std::ffi::c_int,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> std::ffi::c_int;
        }
        const IPPROTO_TCP: std::ffi::c_int = 6;
        const TCP_QUICKACK: std::ffi::c_int = 12;
        let on: std::ffi::c_int = 1;
        // SAFETY: the fd is this open socket's; TCP_QUICKACK reads one
        // c_int from `value`, which lives across the call.
        unsafe {
            setsockopt(
                self.0.as_raw_fd(),
                IPPROTO_TCP,
                TCP_QUICKACK,
                (&on as *const std::ffi::c_int).cast(),
                std::mem::size_of::<std::ffi::c_int>() as u32,
            );
        }
    }
}

impl std::io::Read for QuickAckReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        self.quickack();
        Ok(n)
    }
}

/// Live-run timings, nanoseconds since the schedule's origin.
struct Live {
    sent: Vec<u64>,
    /// `(arrival, ack)` in request order; shorter than the schedule if
    /// the connection failed.
    acks: Vec<(u64, Ack)>,
    summary: ServeSummary,
    /// The daemon's own ack-latency histogram (decode to ack written):
    /// p50 and p99, in its power-of-two buckets.
    server_us: (f64, f64),
    probes: Probes,
}

/// What the closed-loop run measured.
struct Closed {
    /// Send -> ack, ms, one per acked request in run order.
    latency: Vec<f64>,
    /// Whether each acked request was a submit.
    submit: Vec<bool>,
    /// Whole passes over the schedule.
    passes: usize,
    probes: Probes,
    summary: ServeSummary,
}

/// Drives the daemon closed-loop for `seconds`: the schedule's requests
/// in order, each sent as soon as the previous one is acked, pass after
/// pass. A pass closes every session it opens, so each starts from an
/// empty table and expects the same acks; each ack is checked. Every
/// thread shares one CPU (see `on_one_cpu` in `main.rs`), which the loop
/// keeps busy, so a request's time is client, transport and daemon work
/// and the host-speed probe, timed every [`CLOSED_PROBE_EVERY`]
/// requests, sees the same CPU.
fn closed_run(
    plan: &Plan,
    server: Server,
    expected: &[u64],
    seconds: Duration,
    report: &mut Report,
) -> Result<Closed, String> {
    let addr = server.local_addr();
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());
    let mut latency = Vec::new();
    let mut submit = Vec::new();
    let mut probes = Probes::default();
    let mut passes = 0;
    let driven = (|| {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut header = Vec::new();
        wire::write_header(&mut header);
        stream.write_all(&header).map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        reader.set_read_timeout(Some(ACK_TIMEOUT)).map_err(|e| e.to_string())?;
        let mut reader = QuickAckReader(reader);
        let started = Instant::now();
        'run: loop {
            for (i, frame) in plan.frames.iter().enumerate() {
                if latency.len() % CLOSED_PROBE_EVERY == 0 {
                    probes.take(latency.len());
                }
                report.attempted += 1;
                let sent = Instant::now();
                let ack = stream
                    .write_all(frame)
                    .map_err(|e| e.to_string())
                    .and_then(|()| read_frame(&mut reader).map_err(|e| e.to_string()))
                    .and_then(|payload| payload.ok_or_else(|| "connection closed".to_string()))
                    .and_then(|payload| decode_ack(&payload).map_err(|e| e.to_string()));
                let elapsed = sent.elapsed();
                match ack {
                    Ok(Ack::Ok { value }) if value == expected[i] => {}
                    Ok(other) => report.fail(format!(
                        "pass {passes} request {i}: ack {other:?}, expected Ok {{ value: {} }}",
                        expected[i]
                    )),
                    Err(e) => {
                        report.fail(format!("pass {passes} request {i}: no ack ({e})"));
                        break 'run;
                    }
                }
                latency.push(elapsed.as_secs_f64() * 1e3);
                submit.push(matches!(plan.requests[i].op, Op::Submit(_)));
                if started.elapsed() >= seconds {
                    break 'run;
                }
            }
            passes += 1;
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
        Ok::<(), String>(())
    })();
    handle.shutdown();
    let summary = daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;
    driven?;
    Ok(Closed { latency, submit, passes, probes, summary })
}

/// Drives the daemon open-loop: a sender sleeps until each request is
/// due and writes it, a receiver reads acks in order. While the daemon
/// is idle and the next request is far enough off, the sender times the
/// host-speed probe, then spins until the request is due, so the send
/// does not wait on a timer wake-up. Every thread shares one CPU (see
/// `on_one_cpu` in `main.rs`); the daemon is busy about a tenth of the
/// time, so one CPU holds the rate.
fn live_run(plan: &Plan, server: Server) -> Result<Live, String> {
    let addr = server.local_addr();
    let handle = server.handle();
    let live_table = server.table();
    let daemon = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut header = Vec::new();
    wire::write_header(&mut header);
    stream.write_all(&header).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    // A wedged daemon ends the run with the missing acks counted as
    // failures instead of hanging it.
    reader.set_read_timeout(Some(ACK_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut reader = QuickAckReader(reader);
    reader.quickack();
    let n = plan.frames.len();
    let origin = Instant::now() + LEAD;
    let acked = Arc::new(AtomicUsize::new(0));
    let receiver = {
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || {
            let mut acks = Vec::with_capacity(n);
            while acks.len() < n {
                let Ok(Some(payload)) = read_frame(&mut reader) else { break };
                let at = Instant::now().saturating_duration_since(origin).as_nanos() as u64;
                match decode_ack(&payload) {
                    Ok(ack) => acks.push((at, ack)),
                    Err(_) => break,
                }
                acked.store(acks.len(), Ordering::Release);
            }
            acks
        })
    };
    tighten_timer_slack();
    let mut sent = Vec::with_capacity(n);
    let mut probes = Probes::default();
    for (i, (frame, &due_ns)) in plan.frames.iter().zip(&plan.due).enumerate() {
        let due_at = origin + Duration::from_nanos(due_ns);
        let probe_at = due_at - PROBE_LEAD;
        let now = Instant::now();
        if probe_at > now {
            std::thread::sleep(probe_at - now);
            if acked.load(Ordering::Acquire) == i {
                probes.take(i);
                while Instant::now() < due_at {
                    std::hint::spin_loop();
                }
            }
        }
        let now = Instant::now();
        if due_at > now {
            std::thread::sleep(due_at - now);
        }
        sent.push(Instant::now().saturating_duration_since(origin).as_nanos() as u64);
        if stream.write_all(frame).is_err() {
            break;
        }
    }
    let acks = receiver.join().map_err(|_| "ack receiver panicked".to_string())?;
    let _ = stream.shutdown(std::net::Shutdown::Both);
    drop(stream);
    handle.shutdown();
    let summary = daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;
    let mut metrics = hth_trace::MetricsSnapshot::default();
    live_table.record_metrics(&mut metrics);
    let hist = metrics.histogram("hth_serve_ack_latency").cloned().unwrap_or_default();
    let server_us = (hist.quantile(0.5) as f64, hist.quantile(0.99) as f64);
    Ok(Live { sent, acks, summary, server_us, probes })
}

/// The daemon's backlog at each request's due time: requests due
/// before it that have not been acked yet.
fn backlog(due: &[u64], acks: &[(u64, Ack)]) -> Vec<f64> {
    let mut acked = 0;
    due.iter()
        .enumerate()
        .map(|(i, &at)| {
            while acked < acks.len() && acks[acked].0 <= at {
                acked += 1;
            }
            i.saturating_sub(acked) as f64
        })
        .collect()
}

/// Applies one decoded request to the table; returns the ack value.
fn apply(table: &SessionTable, request: Request) -> Result<u64, String> {
    let result = match request {
        Request::Open { session } => table.open(session).map(|()| 0),
        Request::Label { session, label } => table.set_label(session, &label).map(|()| 0),
        Request::Submit { session, event } => table.submit(session, &event),
        Request::Close { session } => table.close(session),
        other => return Err(format!("unplanned request {other:?}")),
    };
    result.map_err(|e| e.to_string())
}

fn decode(frame: &[u8], decoder: &mut EventDecoder) -> Result<Request, String> {
    let payload = read_frame(&mut &frame[..]).map_err(|e| e.to_string())?.ok_or("empty frame")?;
    decode_request(&payload, decoder).map_err(|e| e.to_string())
}

/// The table counters a replay of the schedule must reproduce exactly.
fn table_counts(table: &SessionTable) -> [u64; 5] {
    let stats = table.stats();
    [
        stats.events_total,
        stats.warnings_total,
        stats.evictions,
        stats.restores,
        table.resident_high_water(),
    ]
}

/// Replays the schedule straight against a [`SessionTable`] with the
/// daemon's configuration, no clock pacing and no spans. Returns the
/// wall time in us.
fn replay_untraced(
    plan: &Plan,
    expected: &[u64],
    report: &mut Report,
) -> Result<(f64, [u64; 5]), String> {
    let table = SessionTable::new(plan.table.clone());
    let mut decoder = EventDecoder::new();
    report.attempted += plan.frames.len() as u64;
    let started = Instant::now();
    for (i, frame) in plan.frames.iter().enumerate() {
        let value = apply(&table, decode(frame, &mut decoder)?)?;
        if value != expected[i] {
            report.fail(format!("table replay request {i}: ack {value}, expected {}", expected[i]));
        }
    }
    Ok((started.elapsed().as_secs_f64() * 1e6, table_counts(&table)))
}

/// Snapshot/restore costs measured on the table's own evicted engines.
#[derive(Default)]
struct Revives {
    restore_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

/// The traced replay: one `request` span per request, with the codec
/// and each table call inside it. Submits are split beforehand by
/// whether the session is resident.
fn replay_traced(
    plan: &Plan,
    expected: &[u64],
    report: &mut Report,
) -> Result<(Vec<spans::Span>, [u64; 5], Revives), String> {
    let policy = plan.table.policy.clone();
    let table = SessionTable::new(plan.table.clone());
    let mut encoder = EventEncoder::new();
    let mut decoder = EventDecoder::new();
    let mut revives = Revives::default();
    report.attempted += plan.requests.len() as u64;
    spans::take();
    for (i, planned) in plan.requests.iter().enumerate() {
        let session = &plan.sessions[planned.session];
        let request = request_of(session, &planned.op);
        let name = match planned.op {
            Op::Open => "table.open",
            Op::Label => "table.label",
            Op::Close => "table.close",
            Op::Submit(_) => match table.is_resident(session.sid) {
                Some(false) => "table.submit_revive",
                _ => "table.submit_resident",
            },
        };
        if name == "table.submit_revive" {
            let bytes =
                table.evicted_snapshot(session.sid).ok_or("evicted session without a snapshot")?;
            let started = Instant::now();
            let restored = Secpert::restore(&policy, &bytes).map_err(|e| e.to_string())?;
            revives.restore_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            let snapshot = restored.snapshot().map_err(|e| e.to_string())?;
            revives.snapshot_us.push(started.elapsed().as_secs_f64() * 1e6);
            revives.snapshot_bytes.push(snapshot.len() as f64);
        }
        let root = spans::enter("request", "");
        let frame = spans::timed("wire.encode", || encode_request(&request, &mut encoder));
        let decoded = spans::timed("wire.decode", || decode(&frame, &mut decoder))?;
        let value = spans::timed(name, || apply(&table, decoded))?;
        spans::exit(root);
        if frame != plan.frames[i] {
            report.fail(format!("request {i}: re-encoded frame differs from the schedule's"));
        }
        if value != expected[i] {
            report.fail(format!(
                "traced table replay request {i}: ack {value}, expected {}",
                expected[i]
            ));
        }
    }
    Ok((spans::take(), table_counts(&table), revives))
}

/// The timed run: the schedule closed-loop for `seconds`, every time
/// scaled to the reference host speed.
fn timed(
    plan: &Plan,
    server: Server,
    expected: &[u64],
    seconds: Duration,
    report: &mut Report,
) -> Result<(), String> {
    report.line(format!(
        "input: {} sessions ({LONG_LIVED} long-lived, {CHURN} churning at a time), {} requests per pass, sent closed-loop on one connection, budget {BUDGET_BYTES} bytes",
        plan.sessions.len(),
        plan.requests.len()
    ));
    let closed = closed_run(plan, server, expected, seconds, report)?;
    let submits = closed.submit.iter().filter(|s| **s).count();
    let wall_s = closed.latency.iter().sum::<f64>() / 1e3;
    report.line(format!(
        "timed: {} requests ({submits} submits, {} whole passes) in {wall_s:.3} s of round trips",
        closed.latency.len(),
        closed.passes
    ));
    report.line(format!(
        "daemon: {} events, {} warnings, {} evictions, {} restores, resident high water {}",
        closed.summary.stats.events_total,
        closed.summary.stats.warnings_total,
        closed.summary.stats.evictions,
        closed.summary.stats.restores,
        closed.summary.resident_high_water
    ));
    if closed.summary.stats.events_total != submits as u64 {
        report.problem(format!(
            "the daemon counted {} events for {submits} acked submits",
            closed.summary.stats.events_total
        ));
    }
    report.line(report::latency_line("ack latency, unscaled", &mut closed.latency.clone()));
    report.line(closed.probes.line());
    let scaled = closed.probes.scale(&closed.latency, CLOSED_SCALE_WINDOW);
    report.latencies("ack latency (send -> ack, all kinds)", &scaled, CLOSED_WINDOW);
    let paired: Vec<(f64, bool)> = scaled.iter().copied().zip(closed.submit).collect();
    let (rate, _) = report::windowed(&paired, CLOSED_WINDOW, |w| {
        w.iter().filter(|(_, s)| *s).count() as f64
            / (w.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3)
    });
    report.set("events_per_s", rate);
    Ok(())
}

pub fn run(input: Input, seconds: Duration, trace: bool, setup_s: f64) -> Result<Report, String> {
    let Input { plan, server } = input;
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let expected = expected_acks(&plan);
    let n = plan.requests.len();
    let submits = plan.requests.iter().filter(|r| matches!(r.op, Op::Submit(_))).count();
    report.set("input.sessions", plan.sessions.len() as f64);
    report.set("input.events", submits as f64);
    if !trace {
        timed(&plan, server, &expected, seconds, &mut report)?;
        return Ok(report);
    }
    report.line(format!(
        "input: {} sessions ({LONG_LIVED} long-lived, {CHURN} churning at a time), {n} requests ({submits} submits) at {RATE}/s (gaps uniform in 0.5..1.5 of the mean) open-loop on one connection, budget {BUDGET_BYTES} bytes",
        plan.sessions.len()
    ));
    let live = live_run(&plan, server)?;

    // Oracle: every request acked Ok with the value a fresh expert
    // computes for the same stream.
    report.attempted += n as u64;
    for (i, (_, ack)) in live.acks.iter().enumerate() {
        match ack {
            Ack::Ok { value } if *value == expected[i] => {}
            other => report.fail(format!(
                "request {i}: ack {other:?}, expected Ok {{ value: {} }}",
                expected[i]
            )),
        }
    }
    for i in live.acks.len()..n {
        report.fail(format!("request {i}: no ack (connection lost)"));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let latency: Vec<f64> =
        live.acks.iter().zip(&plan.due).map(|((at, _), due)| ms(at.saturating_sub(*due))).collect();
    let open_us: Vec<f64> = plan
        .requests
        .iter()
        .zip(&latency)
        .filter(|(r, _)| matches!(r.op, Op::Open))
        .map(|(_, l)| l * 1e3)
        .collect();
    let late: Vec<f64> =
        live.sent.iter().zip(&plan.due).map(|(s, d)| ms(s.saturating_sub(*d))).collect();
    let rtt_us: Vec<f64> = live
        .acks
        .iter()
        .zip(&live.sent)
        .map(|((at, _), s)| at.saturating_sub(*s) as f64 / 1e3)
        .collect();

    // Open-loop honesty: a backlog that grew over the run invalidates it.
    let depth = backlog(&plan.due, &live.acks);
    let quarter = depth.len() / 4;
    if quarter > 0 {
        let first = report::mean(&depth[..quarter]);
        let last = report::mean(&depth[depth.len() - quarter..]);
        report.line(format!(
            "backlog check: requests due but not yet acked, mean {first:.4} in the first quarter, {last:.4} in the last"
        ));
        if last > first * (1.0 + BACKLOG_BOUND) + BACKLOG_SLACK {
            report.problem(format!(
                "backlog grew: {last:.4} requests waiting on average in the last quarter vs {first:.4} in the first; the run is invalid at {RATE}/s"
            ));
        }
    }
    let span_s = live.acks.last().map_or(0.0, |(at, _)| *at as f64 / 1e9);
    report.line(report::latency_line("ack latency, unscaled", &mut latency.clone()));
    report.line(live.probes.line());
    let scaled = live.probes.scale(&latency, SCALE_WINDOW);
    report.latencies("ack latency (due -> ack, all kinds)", &scaled, RATE as usize);
    report.line(report::latency_line(
        "open ack latency (due -> ack, Open only)",
        &mut open_us.iter().map(|u| u / 1e3).collect::<Vec<_>>(),
    ));
    report.line(format!(
        "daemon: {} events, {} warnings, {} evictions, {} restores, resident high water {}",
        live.summary.stats.events_total,
        live.summary.stats.warnings_total,
        live.summary.stats.evictions,
        live.summary.stats.restores,
        live.summary.resident_high_water
    ));
    // The open-loop schedule fixes this rate: it falls only if the
    // daemon falls behind, which the backlog check then flags.
    report.set("events_per_s", submits as f64 / span_s.max(1e-9));
    report.set("serve.queue_us", report::mean(&late) * 1e3);
    report.set("serve.rtt_us_p50", report::quantile(&mut rtt_us.clone(), 0.5));
    report.set("serve.rtt_us_p99", report::quantile(&mut rtt_us.clone(), 0.99));
    report.set("serve.server_us_p50", live.server_us.0);
    report.set("serve.server_us_p99", live.server_us.1);
    report.set("serve.open_ack_us_p99", report::quantile(&mut open_us.clone(), 0.99));
    report.set("serve.open_acks", open_us.len() as f64);
    report.set("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
    report.set("gen.requests", n as f64);
    report.set("gen.offered_per_s", RATE as f64);
    let live_counts = [
        live.summary.stats.events_total,
        live.summary.stats.warnings_total,
        live.summary.stats.evictions,
        live.summary.stats.restores,
        live.summary.resident_high_water,
    ];
    report.set("table.submits", submits as f64);
    report.set("table.evictions", live_counts[2] as f64);
    report.set("table.restores", live_counts[3] as f64);
    report.set("table.revive_ratio", report::ratio(live_counts[3], submits as u64));
    report.set("table.resident_high_water", live_counts[4] as f64);
    traced(&plan, &expected, live_counts, &mut report)?;
    Ok(report)
}

fn traced(
    plan: &Plan,
    expected: &[u64],
    live_counts: [u64; 5],
    report: &mut Report,
) -> Result<(), String> {
    let n = plan.requests.len() as f64;
    // The first replay warms caches and the allocator; the overhead
    // compares the traced replay with the second, warm one.
    let (_, warm_counts) = replay_untraced(plan, expected, report)?;
    let (spans, traced_counts, mut revives) = replay_traced(plan, expected, report)?;
    let (untraced_us, counts) = replay_untraced(plan, expected, report)?;
    for (what, c) in [
        ("first untraced table replay", warm_counts),
        ("traced table replay", traced_counts),
        ("second untraced table replay", counts),
    ] {
        if c != live_counts {
            report.fail(format!("{what} counts {c:?} differ from the daemon's {live_counts:?}"));
        }
    }
    let fold = spans::fold(&spans);
    let (lines, total, layers, residual) = fold.attribution("request");
    report.lines.extend(lines);
    let overhead = total - untraced_us / n;
    report.line(format!(
        "tracing overhead: {overhead:.3} us per request (traced table replay minus untraced, {:.3} us per request)",
        untraced_us / n
    ));
    let streams: Vec<&[SecpertEvent]> = plan.corpus.iter().map(|s| s.events.as_slice()).collect();
    let mut probe = corpus::probe(&streams, &plan.table.policy)?;
    report.line(format!(
        "a resident submit costs {:.3} us in the table; the probe's mean process_event is {:.3} us of it",
        fold.per_span_us("table.submit_resident"),
        report::mean(&probe.event_us)
    ));
    corpus::record_probe(report, &mut probe);
    let submit_bytes: Vec<f64> = plan
        .requests
        .iter()
        .zip(&plan.frames)
        .filter(|(r, _)| matches!(r.op, Op::Submit(_)))
        .map(|(_, f)| f.len() as f64)
        .collect();
    report.set("attr.total_us", total);
    report.set("attr.layers_us", layers);
    report.set("attr.residual_us", residual);
    report.set("attr.overhead_us", overhead);
    report.set("wire.encode_us", fold.per_span_us("wire.encode"));
    report.set("wire.decode_us", fold.per_span_us("wire.decode"));
    report.set("journal.bytes_per_event", report::mean(&submit_bytes));
    report.set("table.open_us", fold.per_span_us("table.open"));
    report.set("table.close_us", fold.per_span_us("table.close"));
    report.set("table.submit_resident_us", fold.per_span_us("table.submit_resident"));
    report.set("table.submit_revive_us", fold.per_span_us("table.submit_revive"));
    report.set("secpert.restore_us", report::median(&mut revives.restore_us));
    report.set("secpert.snapshot_us", report::median(&mut revives.snapshot_us));
    report.set("secpert.snapshot_bytes", report::mean(&revives.snapshot_bytes));
    Ok(())
}
