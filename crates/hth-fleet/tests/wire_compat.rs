//! Wire-compat regression: a journal recorded *before* the syscall-ABI
//! refactor (committed as `tests/golden/journals/pre_refactor_abi.hthj`)
//! must keep decoding and replaying to the byte-identical warning
//! transcript forever. New effect/resource codes are strictly additive;
//! this test is the tripwire that proves it.
//!
//! The same frozen events also pin the two byte formats no other fixture
//! covers: a mid-stream `Secpert::snapshot` (`pre_refactor_abi.hths`)
//! and the session's digest stream (`pre_refactor_abi.hthd`). A round
//! trip passes even when encoder and decoder drift together; these
//! fixtures do not.
//!
//! Regenerate (only legitimate when *adding* a scenario to the fixture,
//! never to paper over a decode or encode change):
//!     UPDATE_GOLDEN=1 cargo test -p hth-fleet --test wire_compat

use std::sync::{Arc, Mutex};

use harrier::SecpertEvent;
use hth_core::{DigestBuilder, PolicyConfig, Secpert, Session, SessionConfig, Warning};
use hth_fleet::{read_digest_stream, replay, write_digest_stream, JournalReader, JournalWriter};
use hth_workloads::Scenario;

fn fixture_path(name: &str) -> String {
    format!("{}/../../tests/golden/journals/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs a scenario live while recording its event stream; returns the
/// journal bytes.
fn record(scenario: &Scenario) -> Vec<u8> {
    let journal = Arc::new(Mutex::new(JournalWriter::new(Vec::new()).expect("vec sink")));
    let mut session = Session::new(SessionConfig::default()).expect("policy loads");
    let start = (scenario.setup)(&mut session);
    let sink = Arc::clone(&journal);
    session.set_event_tap(Box::new(move |event| {
        sink.lock().expect("journal sink").append(event).expect("vec journal append");
    }));
    let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
    let env: Vec<(&str, &str)> = start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    session.start(start.path, &argv, &env).expect("spawns");
    session.run().expect("runs");
    drop(session);
    Arc::try_unwrap(journal)
        .unwrap_or_else(|_| unreachable!("tap dropped with the session"))
        .into_inner()
        .expect("sink")
        .finish()
        .expect("flush")
}

fn transcript(bytes: &[u8]) -> String {
    let reader = JournalReader::new(bytes).expect("journal header");
    let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let replayed = replay(reader, &mut secpert).expect("replay");
    let mut out = String::new();
    for w in &replayed {
        out.push_str(&format!(
            "t={} pid={} {} [{}] {}\n",
            w.time,
            w.pid,
            w.rule,
            w.severity.label(),
            w.message
        ));
    }
    out
}

/// The frozen pre-refactor journal replays byte-identically: both the
/// committed journal bytes and the warning transcript they produce are
/// pinned. If a wire/effect/resource code change breaks this, the change
/// was not additive.
#[test]
fn pre_refactor_journal_replays_byte_identically() {
    let journal_path = fixture_path("pre_refactor_abi.hthj");
    let transcript_path = fixture_path("pre_refactor_abi.warnings.txt");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let pma = hth_workloads::exploits::scenarios()
            .into_iter()
            .find(|s| s.id == "pma")
            .expect("pma is in the Table 8 set");
        let bytes = record(&pma);
        let rendered = transcript(&bytes);
        assert!(!rendered.is_empty(), "fixture scenario must warn");
        std::fs::write(&journal_path, &bytes).expect("write journal fixture");
        std::fs::write(&transcript_path, &rendered).expect("write transcript fixture");
        return;
    }

    let bytes = std::fs::read(&journal_path)
        .expect("pre-refactor journal fixture exists (UPDATE_GOLDEN=1 to seed)");
    let expected =
        std::fs::read_to_string(&transcript_path).expect("pre-refactor transcript fixture exists");
    let rendered = transcript(&bytes);
    assert_eq!(
        rendered, expected,
        "pre-refactor journal no longer replays to its pinned transcript — \
         a wire/effect/resource code change was not additive"
    );
}

/// Where the pinned snapshot and the first pinned digest are taken: two
/// thirds into the frozen journal's 18 events, after its first warnings
/// and before its last.
const CUT: usize = 12;

/// The frozen journal's events: the input both byte-format pins below
/// are derived from.
fn frozen_events() -> Vec<SecpertEvent> {
    let bytes = std::fs::read(fixture_path("pre_refactor_abi.hthj"))
        .expect("pre-refactor journal fixture exists");
    JournalReader::new(&bytes[..])
        .expect("journal header")
        .collect::<Result<_, _>>()
        .expect("frozen journal decodes")
}

/// Feeds `events` to `secpert`, returning every warning raised.
fn process(secpert: &mut Secpert, events: &[SecpertEvent]) -> Vec<Warning> {
    let mut warnings = Vec::new();
    for event in events {
        warnings.extend(secpert.process_event(event).expect("policy accepts the event"));
    }
    warnings
}

/// A snapshot taken mid-stream through the frozen events is pinned byte
/// for byte, and restoring the pinned bytes then feeding the remaining
/// events raises exactly the warnings the uninterrupted replay raises
/// on them.
#[test]
fn pre_refactor_snapshot_is_byte_identical_and_resumes() {
    let path = fixture_path("pre_refactor_abi.hths");
    let events = frozen_events();
    let config = PolicyConfig::default();
    let mut live = Secpert::new(&config).expect("policy loads");
    process(&mut live, &events[..CUT]);
    let bytes = live.snapshot().expect("quiescent between events");
    let tail = process(&mut live, &events[CUT..]);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        assert!(!tail.is_empty(), "the pinned cut must leave warnings to resume into");
        std::fs::write(&path, &bytes).expect("write snapshot fixture");
        return;
    }

    let pinned = std::fs::read(&path).expect("snapshot fixture exists (UPDATE_GOLDEN=1 to seed)");
    assert!(bytes == pinned, "Secpert::snapshot no longer writes the pinned bytes");
    let mut resumed = Secpert::restore(&config, &pinned).expect("pinned snapshot restores");
    assert_eq!(process(&mut resumed, &events[CUT..]), tail);
}

/// The session's digest stream — its digest at the snapshot cut and at
/// the end, the shape a live daemon streams — is pinned byte for byte.
/// The second frame repeats the label and rule names of the first, so
/// the interning back-references are pinned too.
#[test]
fn pre_refactor_digest_stream_is_byte_identical() {
    let path = fixture_path("pre_refactor_abi.hthd");
    let events = frozen_events();
    let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut builder = DigestBuilder::new(7, "pma");
    let mut digests = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if i == CUT {
            digests.push(builder.snapshot());
        }
        builder.observe(event);
        for warning in process(&mut secpert, std::slice::from_ref(event)) {
            builder.observe_warning(&warning);
        }
    }
    digests.push(builder.finish());
    let stream = write_digest_stream(&digests);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        assert!(
            digests.iter().all(|d| !d.warnings.is_empty()),
            "both pinned digests must carry warnings"
        );
        std::fs::write(&path, &stream).expect("write digest fixture");
        return;
    }

    let pinned = std::fs::read(&path).expect("digest fixture exists (UPDATE_GOLDEN=1 to seed)");
    assert!(stream == pinned, "write_digest_stream no longer writes the pinned bytes");
    assert_eq!(read_digest_stream(&pinned).expect("pinned stream decodes"), digests);
}
