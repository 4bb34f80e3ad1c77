//! # hth-fleet — concurrent monitoring fleets over the event protocol
//!
//! The paper's architecture (§6.1.2, Figure 1) decouples Harrier (the
//! monitor) from Secpert (the analyst) with an event protocol. This
//! crate makes that protocol a real, concurrent, persistable stream:
//!
//! * [`wire`] — a compact versioned binary codec for
//!   [`harrier::SecpertEvent`] (varints, per-stream string interning,
//!   magic + version header),
//! * [`journal`] — append-only event journals over any `Write`/`Read`,
//!   with per-frame CRC32 (v2), segment rotation, and a recovery scan
//!   that salvages every decodable frame from a corrupted file
//!   ([`journal::replay`], [`journal::recover`]),
//! * [`digest_wire`] — the CRC-framed [`hth_core::SessionDigest`]
//!   stream shards send the fleet correlator,
//! * [`batch`] — [`EventBatch`], a reusable buffer that decodes a run
//!   of journal frames for [`pool::AnalystPool::submit_batch`] or
//!   [`hth_core::Secpert::process_batch`],
//! * [`pool`] — a sharded, *supervised* analyst pool: worker threads
//!   with private [`hth_core::Secpert`] engines fed one event per
//!   call, sessions hashed to shards, bounded queues with explicit
//!   [`pool::Backpressure`], panics quarantined and engines respawned
//!   under a retry budget,
//! * [`fleet`] — an orchestrator running many workload sessions across
//!   threads, fanning events into the pool and aggregating a
//!   [`fleet::FleetReport`],
//! * [`faults`] — deterministic seeded fault injection
//!   ([`faults::FaultPlan`], `hth fleet --chaos-seed N`) so the whole
//!   failure model above is reproducible and testable.
//!
//! The byte-level pieces the three stream modules share — varints,
//! CRC32, interning, the header and the CRC frame, and [`WireError`] —
//! live once in [`secpert_engine::codec`].

#![warn(missing_docs)]

pub mod batch;
pub mod digest_wire;
pub mod faults;
pub mod fleet;
pub mod journal;
pub mod pool;
pub mod wire;

pub use batch::EventBatch;
pub use digest_wire::{
    read_digest_stream, write_digest_stream, DigestDecoder, DigestEncoder, DIGEST_VERSION,
};
pub use faults::{ConnectionFault, FaultPlan, JournalFault};
pub use fleet::{run_scenarios, warning_multiset, FleetConfig, FleetReport, WarningKey};
pub use journal::{
    recover, recover_segments, replay, replay_repair, replay_segments, segment_path, segment_paths,
    JournalReader, JournalWriter, RecoveryOutcome, RecoveryReport, ReplayError,
    SegmentedJournalWriter, JOURNAL_V1, JOURNAL_V2, JOURNAL_V3,
};
pub use pool::{AnalystPool, Backpressure, PoolConfig, PoolReport, SessionId, ShardStats};
pub use wire::{EventDecoder, EventEncoder, WireError, MAX_FRAME_LEN};
