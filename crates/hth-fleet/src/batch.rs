//! A reusable event batch buffer for callers that move runs of decoded
//! events.
//!
//! [`EventBatch::refill`] decodes up to `max` journal frames into the
//! buffer; the run then goes to [`crate::pool::AnalystPool::submit_batch`]
//! (one queue-lock crossing for the run) or to
//! [`hth_core::Secpert::process_batch`]. The buffer is allocated once
//! and refilled: `clear` keeps the spine's capacity, so steady-state
//! turnover costs no allocations beyond the events' own payloads.

use std::io::Read;

use harrier::SecpertEvent;

use crate::journal::JournalReader;
use crate::wire::WireError;

/// A reusable batch of decoded events.
#[derive(Debug, Default)]
pub struct EventBatch {
    events: Vec<SecpertEvent>,
}

impl EventBatch {
    /// An empty batch with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventBatch {
        EventBatch { events: Vec::with_capacity(capacity) }
    }

    /// Empties the batch, keeping its capacity for the next refill.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends one event.
    pub fn push(&mut self, event: SecpertEvent) {
        self.events.push(event);
    }

    /// The buffered events, in arrival order.
    pub fn as_slice(&self) -> &[SecpertEvent] {
        &self.events
    }

    /// Mutable access to the underlying buffer, for handing a batch to
    /// sinks that drain a `Vec` (e.g. `AnalystPool::submit_batch`).
    pub fn as_vec_mut(&mut self) -> &mut Vec<SecpertEvent> {
        &mut self.events
    }

    /// Clears the batch, then decodes up to `max` frames from the
    /// reader into it. Returns the number of events decoded; fewer than
    /// `max` (possibly zero) means the journal is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates wire-level decode errors (corruption, truncation).
    pub fn refill<R: Read>(
        &mut self,
        reader: &mut JournalReader<R>,
        max: usize,
    ) -> Result<usize, WireError> {
        self.events.clear();
        while self.events.len() < max {
            match reader.next_event()? {
                Some(event) => self.events.push(event),
                None => break,
            }
        }
        Ok(self.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use harrier::{Origin, ResourceType, SourceInfo};

    fn event(i: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_open",
            resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{i}")),
            origin: Origin::unknown(),
            time: i,
            frequency: 1,
            address: 0,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn refill_batches_a_journal() {
        let mut writer = JournalWriter::new(Vec::new()).unwrap();
        for i in 0..10 {
            writer.append(&event(i)).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let mut reader = JournalReader::new(&bytes[..]).unwrap();
        let mut batch = EventBatch::with_capacity(4);
        let mut seen = Vec::new();
        loop {
            let n = batch.refill(&mut reader, 4).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 4);
            seen.extend(batch.as_slice().iter().cloned());
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(seen, (0..10).map(event).collect::<Vec<_>>());
        assert!(batch.is_empty());
    }
}
