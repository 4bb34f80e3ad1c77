//! The session table's always-on flight recorder, at the default
//! configuration: each of its three triggers captures a diagnostic
//! bundle into the ring that `/bundles` serves.

use std::sync::Arc;

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};
use hth_fleet::FaultPlan;
use hth_serve::{SessionTable, TableConfig};

fn open(sid: u64, i: u64) -> SecpertEvent {
    SecpertEvent::ResourceAccess {
        pid: 7,
        syscall: "SYS_open",
        resource: SourceInfo::new(ResourceType::File, format!("/var/data/{sid}-{i}")),
        origin: Origin::unknown(),
        time: i,
        frequency: 1,
        address: 0x4000,
        proc_count: None,
        proc_rate: None,
        mem_total: None,
        server: None,
    }
}

/// A dropper writing its own data to a file it names itself:
/// `flow_binary_to_file`, High.
fn drop_payload(time: u64) -> SecpertEvent {
    let dropper = Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/dropper")] };
    SecpertEvent::DataTransfer {
        pid: 7,
        syscall: "SYS_write",
        data_sources: dropper.sources.clone(),
        data_origin: Origin::unknown(),
        target: SourceInfo::new(ResourceType::File, "/tmp/payload"),
        target_origin: dropper,
        time,
        frequency: 1,
        address: 0x4010,
        executable_content: false,
        server: None,
        bytes: 8,
    }
}

#[test]
fn a_high_warning_captures_a_warning_bundle() {
    let table = SessionTable::new(TableConfig::default());
    for i in 1..4 {
        table.submit(1, &open(1, i)).expect("submit");
    }
    assert_eq!(table.bundle_ring().total(), 0, "no High warning yet");
    assert!(table.submit(1, &drop_payload(4)).expect("submit") > 0, "the write must warn");

    let bundles = table.bundle_ring().list();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    let bundle = &bundles[0];
    assert_eq!(bundle.trigger.kind(), "warning");
    assert_eq!(bundle.trigger.detail(), "[HIGH] flow_binary_to_file");
    assert_eq!(bundle.component, "serve.table");
    assert_eq!(bundle.events.len(), 4, "the tail holds every event so far");
    let last = bundle.events.last().expect("a tail");
    assert_eq!((last.session, last.time, last.kind), (1, 4, "event"));
    assert_eq!(last.label.as_str(), "SYS_write");
    assert_eq!(last.detail.as_str(), "/tmp/payload");
    assert!(!bundle.provenance.is_empty(), "the warning's causal tree rides along");
    assert_eq!(bundle.stats.counter("hth_serve_events_total"), 4);
}

#[test]
fn a_torn_snapshot_captures_a_restore_fallback_bundle() {
    let faults = Arc::new(FaultPlan::new().torn_snapshot(1, 7));
    let table =
        SessionTable::new(TableConfig { budget_bytes: 0, faults, ..TableConfig::default() });
    table.submit(2, &open(2, 1)).expect("first submit, then evicted with a torn snapshot");
    table.submit(2, &open(2, 2)).expect("revive by full replay");

    let bundles = table.bundle_ring().list();
    assert_eq!(bundles.len(), 1, "{bundles:?}");
    assert_eq!(bundles[0].trigger.kind(), "restore_fallback");
    assert_eq!(bundles[0].trigger.detail(), "session 2: torn snapshot, full replay");
    assert_eq!(bundles[0].events.len(), 1, "the event before the eviction");
    assert_eq!(table.stats().fallback_replays, 1);
}

#[test]
fn a_protocol_drop_captures_a_protocol_drop_bundle() {
    let table = SessionTable::new(TableConfig::default());
    table.submit(3, &open(3, 1)).expect("submit");
    table.capture_protocol_drop("frame crc mismatch");

    let bundle = table.bundle_ring().get(0).expect("bundle #0 is retained");
    assert_eq!(bundle.trigger.kind(), "protocol_drop");
    assert_eq!(bundle.trigger.detail(), "connection dropped: frame crc mismatch");
    assert_eq!(bundle.component, "serve.conn");
    assert_eq!(bundle.events.len(), 1);
    assert_eq!(table.bundle_ring().total(), 1);
}
