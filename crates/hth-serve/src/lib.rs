//! # hth-serve — the long-running HTH fleet daemon
//!
//! Batch mode (`hth fleet`) analyses a corpus and exits; this crate is
//! the resident form of the same pipeline: a TCP daemon that monitors
//! many programs *concurrently and indefinitely*, under a fixed memory
//! budget, without ever changing an analysis result.
//!
//! Three layers, bottom up:
//!
//! * [`table`] — the session registry: engines created on first event,
//!   evicted (snapshot + drop) under an LRU policy when resident bytes
//!   exceed the budget or a session goes idle, revived from snapshot +
//!   journal tail on the next event. Determinism of the engine snapshot
//!   (`secpert_engine::EngineSnapshot`) makes eviction invisible: the
//!   warning stream is byte-identical to an uninterrupted run.
//! * [`protocol`] — CRC-framed requests/acks over the fleet wire event
//!   codec; one port also answers HTTP scrapes: `/metrics` (Prometheus
//!   text), `/healthz`, `/statusz` ([`status::StatusReport`], what
//!   `hth top` renders), and `/bundles[/<n>]` (diagnostic bundles from
//!   the table's always-on flight recorder).
//! * [`server`] / [`client`] — the accept-loop daemon with a bounded
//!   worker pool and graceful drain, and the client the `hth load`
//!   generator and the chaos suite use to talk to it.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod status;
pub mod table;

use std::fmt;

use harrier::{Origin, ResourceType, SecpertEvent, SourceInfo};

pub use client::{run_load, Client, LoadReport};
pub use protocol::{Ack, Request, ServeStats};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use status::{SessionRow, StatusReport};
pub use table::{SessionTable, TableConfig};

/// Anything that can go wrong between a client and the session table.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Frame or event codec failure (torn frame, CRC mismatch, oversized
    /// or overflowing length, ...).
    Wire(hth_fleet::WireError),
    /// The policy engine rejected an event.
    Engine(secpert_engine::EngineError),
    /// A protocol-level violation (bad tag, trailing bytes, unknown
    /// session, or a server-reported error).
    Protocol(String),
    /// The peer went away mid-conversation (including a fault-planted
    /// mid-frame disconnect).
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ServeError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<hth_fleet::WireError> for ServeError {
    fn from(e: hth_fleet::WireError) -> ServeError {
        match e {
            // The frame reader's socket failures stay socket failures.
            hth_fleet::WireError::Io(e) => ServeError::Io(e),
            e => ServeError::Wire(e),
        }
    }
}

/// A deterministic synthetic event stream for session `session`: a mix
/// of file opens, reads, and writes with session-salted paths, shaped
/// like what Harrier emits for an ordinary (non-Trojan) program. Two
/// calls with the same arguments produce identical streams, which is
/// what the loadgen, the bench, and the soak tests all rely on.
pub fn synthetic_events(session: u64, count: usize) -> Vec<SecpertEvent> {
    // SplitMix64 finalizer, same constants as the fleet fault plan.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let pid = 100 + (session as u32 % 900);
    (0..count as u64)
        .map(|i| {
            let h = mix(session.wrapping_mul(0x1000) ^ i);
            let (syscall, name) = match h % 4 {
                0 => ("SYS_open", format!("/srv/s{session}/data{}.bin", h % 13)),
                1 => ("SYS_read", format!("/srv/s{session}/data{}.bin", h % 13)),
                2 => ("SYS_write", format!("/srv/s{session}/out{}.log", h % 7)),
                _ => ("SYS_close", format!("/srv/s{session}/data{}.bin", h % 13)),
            };
            SecpertEvent::ResourceAccess {
                pid,
                syscall,
                resource: SourceInfo::new(ResourceType::File, name),
                origin: Origin::unknown(),
                time: i + 1,
                frequency: 1 + h % 3,
                address: 0x1000 + (h as u32 & 0xfff),
                proc_count: None,
                proc_rate: None,
                mem_total: None,
                server: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_streams_are_deterministic_and_session_salted() {
        let a = synthetic_events(3, 50);
        let b = synthetic_events(3, 50);
        let c = synthetic_events(4, 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
    }
}
