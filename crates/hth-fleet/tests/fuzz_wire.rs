//! Decoder-totality fuzzing: mutate valid encodings — bit flips,
//! truncations, splices of two encodings, byte stomps — or hand over
//! garbage, and assert every decoder built on the shared codec is
//! *total*: each call returns a value or a typed error, never panics,
//! and never allocates anywhere near a corrupt length claim. The same
//! strategies drive three decoders ([`Format`]): the event stream, the
//! digest stream and the `Secpert` snapshot. The event decoder must
//! also never loop without consuming input.
//!
//! Every test fn is named `fuzz_wire_*` so CI can run exactly this
//! suite with `cargo test -p hth-fleet fuzz_wire` (bounded via the
//! `PROPTEST_CASES` env var the proptest shim honours).

use std::panic::{catch_unwind, AssertUnwindSafe};

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_core::{digest_session, DropIdentity, PolicyConfig, Secpert, SessionDigest, Severity};
use hth_fleet::{read_digest_stream, write_digest_stream, EventDecoder, EventEncoder};
use proptest::prelude::*;

const SYSCALLS: &[&str] = &["SYS_execve", "SYS_open", "SYS_write", "SYS_send"];

fn source() -> impl Strategy<Value = SourceInfo> {
    ((0usize..ResourceType::ALL.len()), "\\PC{0,24}")
        .prop_map(|(i, name)| SourceInfo { kind: ResourceType::ALL[i], name })
}

fn event() -> impl Strategy<Value = SecpertEvent> {
    (
        any::<u32>(),
        0usize..SYSCALLS.len(),
        source(),
        prop::collection::vec(source(), 0..4),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(pid, sc, resource, sources, time, frequency)| {
            SecpertEvent::ResourceAccess {
                pid,
                syscall: SYSCALLS[sc],
                resource,
                origin: Origin { sources },
                time,
                frequency,
                address: 0,
                proc_count: None,
                proc_rate: None,
                mem_total: None,
                server: None,
            }
        })
}

fn encode_stream(events: &[SecpertEvent]) -> Vec<u8> {
    let mut encoder = EventEncoder::new();
    let mut buf = Vec::new();
    for event in events {
        encoder.encode(event, &mut buf);
    }
    buf
}

/// A decoder under test. Errors are typed by each decoder's signature
/// ([`hth_fleet::WireError`], [`hth_core::SnapshotError`]); totality
/// is the rest.
#[derive(Clone, Copy, Debug)]
enum Format {
    /// An event stream through [`EventDecoder`].
    Events,
    /// A digest stream through [`read_digest_stream`].
    Digests,
    /// A `Secpert::snapshot` through [`Secpert::restore`].
    Snapshot,
}

/// Valid encodings of `events` in every [`Format`].
fn encodings(events: &[SecpertEvent]) -> [(Format, Vec<u8>); 3] {
    let mut secpert = Secpert::new(&PolicyConfig::default()).expect("policy loads");
    let mut warnings = Vec::new();
    for event in events {
        warnings.extend(secpert.process_event(event).expect("policy accepts the event"));
    }
    let observed = digest_session(1, "fuzz", events, &warnings);
    // A second digest with every field kind, repeating the first's label
    // so the stream carries back-references.
    let mut full = SessionDigest::new(2, "fuzz");
    full.warnings.insert((Severity::High, "check_socket_execve".into()), 2);
    full.beacons.insert("c2.example:6667".into());
    full.drops.insert(DropIdentity {
        path: "/tmp/stage2".into(),
        executable: true,
        content: vec!["SOCKET".into()],
    });
    full.exfil.insert("c2.example:6667".into(), 700);
    [
        (Format::Events, encode_stream(events)),
        (Format::Digests, write_digest_stream(&[observed, full])),
        (Format::Snapshot, secpert.snapshot().expect("quiescent between events")),
    ]
}

/// Decodes all of `buf` as `format`, asserting it returns instead of
/// panicking.
fn assert_total(format: Format, buf: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| match format {
        Format::Events => decode_events(buf),
        Format::Digests => drop(read_digest_stream(buf)),
        Format::Snapshot => drop(Secpert::restore(&PolicyConfig::default(), buf)),
    }));
    if outcome.is_err() {
        panic!("{format:?} decoder panicked on {} bytes: {buf:02x?}", buf.len());
    }
}

/// Decodes events until the input ends or a typed error stops the
/// stream, asserting every `Ok` consumes input and stays inside it (so
/// the loop always terminates).
fn decode_events(buf: &[u8]) {
    let mut decoder = EventDecoder::new();
    let mut pos = 0;
    while pos < buf.len() {
        match decoder.decode(&buf[pos..]) {
            Ok((_, used)) => {
                assert!(used > 0, "decode must consume input");
                assert!(pos + used <= buf.len(), "decode must not overrun");
                pos += used;
            }
            Err(_) => break, // a typed WireError is a valid outcome
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fuzz_wire_bit_flips_never_panic(
        events in prop::collection::vec(event(), 1..8),
        flips in prop::collection::vec((any::<u16>(), 0u8..8), 1..6),
    ) {
        for (format, mut buf) in encodings(&events) {
            for &(pos, bit) in &flips {
                let idx = pos as usize % buf.len();
                buf[idx] ^= 1 << bit;
            }
            assert_total(format, &buf);
        }
    }

    #[test]
    fn fuzz_wire_truncations_never_panic(
        events in prop::collection::vec(event(), 1..8),
        keep in any::<u16>(),
    ) {
        for (format, buf) in encodings(&events) {
            let keep = keep as usize % (buf.len() + 1);
            assert_total(format, &buf[..keep]);
        }
    }

    #[test]
    fn fuzz_wire_splices_never_panic(
        left in prop::collection::vec(event(), 1..6),
        right in prop::collection::vec(event(), 1..6),
        cut_l in any::<u16>(),
        cut_r in any::<u16>(),
    ) {
        // Stitch the head of one encoding onto the tail of another: the
        // seam lands mid-frame and the interning tables disagree.
        for ((format, a), (_, b)) in encodings(&left).into_iter().zip(encodings(&right)) {
            let cut_a = cut_l as usize % (a.len() + 1);
            let cut_b = cut_r as usize % (b.len() + 1);
            let mut spliced = a[..cut_a].to_vec();
            spliced.extend_from_slice(&b[cut_b..]);
            assert_total(format, &spliced);
        }
    }

    #[test]
    fn fuzz_wire_byte_stomps_never_panic(
        events in prop::collection::vec(event(), 1..8),
        stomps in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        for (format, mut buf) in encodings(&events) {
            for &(pos, value) in &stomps {
                let idx = pos as usize % buf.len();
                buf[idx] = value;
            }
            assert_total(format, &buf);
        }
    }

    #[test]
    fn fuzz_wire_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for format in [Format::Events, Format::Digests, Format::Snapshot] {
            assert_total(format, &bytes);
        }
    }
}

/// Adversarial length claims must be rejected without a matching
/// allocation: a stream whose varint claims a multi-gigabyte string or
/// collection is only a handful of bytes long, so a total decoder
/// errors out instead of reserving the claimed size.
#[test]
fn fuzz_wire_huge_length_claims_error_without_allocating() {
    // Each probe: a valid one-event prefix, then a tag byte and a
    // maximal varint where a length is expected.
    let valid = encode_stream(&[SecpertEvent::ResourceAccess {
        pid: 1,
        syscall: "SYS_open",
        resource: SourceInfo::new(ResourceType::File, "/etc/passwd"),
        origin: Origin { sources: vec![] },
        time: 1,
        frequency: 1,
        address: 0,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }]);
    let huge_varint = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    for tag in [0u8, 1u8] {
        let mut probe = valid.clone();
        probe.push(tag);
        probe.extend_from_slice(&huge_varint);
        // If the decoder allocated what the varint claims (~u64::MAX),
        // this would abort the process, not return — so returning at
        // all *is* the over-allocation assertion.
        assert_total(Format::Events, &probe);
    }
}

/// Extended soak: the same mutations at 50× the case count. Ignored by
/// default; CI runs it with `--include-ignored` under a bounded
/// `PROPTEST_CASES`.
#[test]
#[ignore = "extended soak; run explicitly or via --include-ignored"]
fn fuzz_wire_extended_soak() {
    // Drive the shim's RNG directly for a deterministic large sweep.
    let events: Vec<SecpertEvent> = (0..16)
        .map(|i| SecpertEvent::ResourceAccess {
            pid: i,
            syscall: SYSCALLS[i as usize % SYSCALLS.len()],
            resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{i}")),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/x")] },
            time: u64::from(i),
            frequency: u64::from(i) * 3,
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        })
        .collect();
    let cases: usize =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(5000);
    let mut state = 0x5EED_F00D_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for (format, clean) in encodings(&events) {
        for _ in 0..cases {
            let mut buf = clean.clone();
            for _ in 0..(next() % 8 + 1) {
                let r = next();
                let idx = (r as usize >> 8) % buf.len();
                match r % 3 {
                    0 => buf[idx] ^= 1 << (r >> 40 & 7),
                    1 => buf[idx] = (r >> 32) as u8,
                    _ => buf.truncate(idx),
                }
                if buf.is_empty() {
                    break;
                }
            }
            assert_total(format, &buf);
        }
    }
}
