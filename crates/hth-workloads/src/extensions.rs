//! §10 extension scenarios: workloads exercising the future-work
//! features this reproduction implements on top of the paper — memory
//! resource abuse (item 4) and downloaded-executable content analysis
//! (item 5). Cross-session monitoring (item 6) is exercised by the
//! root `tests/cross_session.rs` suite and `examples/cross_session.rs`.

use emukernel::{Endpoint, Peer};
use hth_core::{Session, Severity};

use crate::scenario::{Expectation, Group, Scenario, StartSpec};

/// All §10 extension scenarios.
pub fn scenarios() -> Vec<Scenario> {
    vec![memhog(), memhog_modest(), exe_downloader(), text_downloader()]
}

fn memhog() -> Scenario {
    Scenario {
        id: "memhog",
        group: Group::Extension,
        description: "Vundo-style memory hog: grows the heap past the abuse threshold",
        paper_note: "§10 item 4: memory resource-abuse rule (Low, then Medium)",
        expected: Expectation::Rules(Severity::Medium, &["check_memory_abuse"]),
        setup: Box::new(|session: &mut Session| {
            session.kernel.register_binary(
                "/ext/memhog",
                r"
                _start:
                    mov edi, 20         ; 20 x 1 MiB = 20 MiB total
                grow:
                    mov eax, 45         ; brk(+1 MiB)
                    mov ebx, 0x100000
                    int 0x80
                    dec edi
                    cmp edi, 0
                    jne grow
                    mov eax, 1
                    mov ebx, 0
                    int 0x80
                ",
                &[],
            );
            StartSpec::plain("/ext/memhog")
        }),
    }
}

fn memhog_modest() -> Scenario {
    Scenario {
        id: "memhog_modest",
        group: Group::Extension,
        description: "ordinary allocation stays under the abuse threshold",
        paper_note: "control: a few hundred KiB of heap is normal",
        expected: Expectation::Silent,
        setup: Box::new(|session: &mut Session| {
            session.kernel.register_binary(
                "/ext/modest",
                r"
                _start:
                    mov eax, 45         ; brk(+256 KiB)
                    mov ebx, 0x40000
                    int 0x80
                    mov eax, 1
                    mov ebx, 0
                    int 0x80
                ",
                &[],
            );
            StartSpec::plain("/ext/modest")
        }),
    }
}

/// Shared downloader program: fetch bytes from the peer, store them in a
/// *user-named* file (so only the content rule can object).
const DOWNLOADER: &str = r"
_start:
    mov ebp, esp
    mov eax, 102        ; socket()
    mov ebx, 1
    mov ecx, sockargs
    int 0x80
    mov edi, eax
    mov [connargs], edi
    mov eax, 102        ; connect (user initiated the download;
    mov ebx, 3          ;  address hardcoded like a mirror URL)
    mov ecx, connargs
    int 0x80
    mov [recvargs], edi
    mov eax, 102        ; recv the body
    mov ebx, 10
    mov ecx, recvargs
    int 0x80
    mov ebx, [ebp+8]    ; argv[1] = output file (user-named)
    mov eax, 5
    mov ecx, 0x41
    int 0x80
    mov esi, eax
    mov eax, 4          ; write the body
    mov ebx, esi
    mov ecx, 0x09000000
    mov edx, 16
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
.data
sockargs: .long 2, 1, 0
addr:     .word 2
port:     .word 80
ip:       .long 0x0a0000aa
connargs: .long 0, addr, 8
recvargs: .long 0, 0x09000000, 16, 0
";

fn downloader_scenario(
    id: &'static str,
    description: &'static str,
    body: &'static [u8],
    expected: Expectation,
    paper_note: &'static str,
) -> Scenario {
    Scenario {
        id,
        group: Group::Extension,
        description,
        paper_note,
        expected,
        setup: Box::new(move |session: &mut Session| {
            session.kernel.net.add_host("mirror.example", 0x0a00_00aa);
            session.kernel.net.add_peer(
                Endpoint { ip: 0x0a00_00aa, port: 80 },
                Peer { on_connect: vec![body.to_vec()], ..Peer::default() },
            );
            session.kernel.register_binary("/ext/fetch", DOWNLOADER, &[]);
            StartSpec::plain("/ext/fetch").arg("download.bin")
        }),
    }
}

fn exe_downloader() -> Scenario {
    downloader_scenario(
        "exe_downloader",
        "downloads an ELF executable into a user-named file",
        b"\x7fELF\x01\x01\x01\0payload!",
        Expectation::Rules(Severity::High, &["flow_executable_download"]),
        "§10 item 5: content analysis flags executable downloads even to \
         user-named files",
    )
}

fn text_downloader() -> Scenario {
    downloader_scenario(
        "text_downloader",
        "downloads plain text into a user-named file",
        b"hello, plain text",
        Expectation::Silent,
        "control: the same program fetching non-executable content is fine",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_scenarios_match_expectations() {
        let mut failures = Vec::new();
        for scenario in scenarios() {
            let result = scenario.run().unwrap();
            if !result.correct() {
                failures.push(format!(
                    "{}: expected {:?}, got {:?} rules {:?}\n{}",
                    scenario.id,
                    scenario.expected,
                    result.max_severity(),
                    result.rules_fired(),
                    result.transcript,
                ));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n---\n"));
    }

    #[test]
    fn memhog_escalates_to_medium() {
        let result = memhog().run().unwrap();
        let severities: Vec<_> = result
            .warnings
            .iter()
            .filter(|w| w.rule == "check_memory_abuse")
            .map(|w| w.severity)
            .collect();
        assert!(severities.contains(&Severity::Low), "Low at the first threshold");
        assert!(severities.contains(&Severity::Medium), "Medium past 16 MiB");
    }

    #[test]
    fn exe_magic_is_what_flags_the_download() {
        let exe = exe_downloader().run().unwrap();
        let txt = text_downloader().run().unwrap();
        assert!(exe.transcript.contains("is an executable"), "{}", exe.transcript);
        assert!(txt.warnings.is_empty());
    }
}
