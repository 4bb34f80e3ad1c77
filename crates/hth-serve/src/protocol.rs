//! The serve wire protocol: CRC-framed requests and acks over TCP.
//!
//! A connection opens with the fleet wire header (`HTHW` + version, the
//! same preamble a journal or recorded event stream starts with), which
//! is also how the server tells a protocol client from an HTTP scrape:
//! the first bytes are either [`hth_fleet::wire::MAGIC`] or `GET `.
//!
//! After the preamble, both directions speak the shared codec's CRC
//! frame ([`Framing::CHECKED`], the journal's integrity envelope):
//!
//! ```text
//! [varint payload_len] [crc32(payload) LE u32] [payload]
//! ```
//!
//! The first payload byte is a tag. Requests:
//!
//! | tag | request  | payload after the tag                       |
//! |-----|----------|---------------------------------------------|
//! | 1   | Open     | varint session id                           |
//! | 2   | Submit   | varint session id, encoded [`SecpertEvent`]  |
//! | 3   | Flush    | —                                           |
//! | 4   | Close    | varint session id                           |
//! | 5   | Stats    | —                                           |
//! | 6   | Shutdown | —                                           |
//! | 7   | Label    | varint session id, varint length, UTF-8 label |
//!
//! Acks:
//!
//! | tag  | ack   | payload after the tag                          |
//! |------|-------|------------------------------------------------|
//! | 0x80 | Ok    | varint value (warnings raised, for Submit)     |
//! | 0x81 | Err   | varint length, UTF-8 message                   |
//! | 0x82 | Stats | the [`ServeStats`] counters as varints         |
//!
//! Events inside Submit frames use the versioned fleet event codec with
//! *per-connection* interning state ([`EventEncoder`]/[`EventDecoder`]),
//! so a long-lived connection amortises string costs exactly like a
//! journal does. Frames are hard-capped at
//! [`MAX_FRAME_LEN`](hth_fleet::MAX_FRAME_LEN); a frame that claims
//! more, fails its CRC or arrives truncated poisons only the connection
//! that sent it, never the sessions it was feeding. Payloads are read
//! with the codec's bounds-checked [`Reader`], so a length claim inside
//! one is truncation, never an overflow.

use std::io::{Read, Write};

use harrier::SecpertEvent;
use hth_fleet::wire::{EventDecoder, EventEncoder};
use secpert_engine::codec::{put_varint, Framing, Reader};

use crate::ServeError;

/// A request frame, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Create (or touch) a session.
    Open {
        /// Session id.
        session: u64,
    },
    /// Feed one event to a session.
    Submit {
        /// Session id.
        session: u64,
        /// The event.
        event: SecpertEvent,
    },
    /// Barrier: ack only once everything before it is applied.
    Flush,
    /// Retire a session, folding its warnings into the retired set.
    Close {
        /// Session id.
        session: u64,
    },
    /// Ask for the server's counters.
    Stats,
    /// Begin a graceful drain: stop accepting, finish queued work.
    Shutdown,
    /// Bind a program label to a session (shown in fleet digests and
    /// consumed by the correlator's label-diversity rules).
    Label {
        /// Session id.
        session: u64,
        /// The label (last writer wins).
        label: String,
    },
}

/// An ack frame, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ack {
    /// Success; `value` is request-specific (warnings raised for Submit,
    /// total session warnings for Close, zero otherwise).
    Ok {
        /// Request-specific payload.
        value: u64,
    },
    /// The request failed; the session table is unchanged.
    Err {
        /// Human-readable reason.
        message: String,
    },
    /// Counters in response to [`Request::Stats`].
    Stats(ServeStats),
}

/// Point-in-time server counters, small enough to travel in one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions currently resident (engine in memory).
    pub sessions_resident: u64,
    /// Sessions known (resident + evicted-but-open).
    pub sessions_open: u64,
    /// Events accepted over all sessions.
    pub events_total: u64,
    /// Warnings raised over all sessions.
    pub warnings_total: u64,
    /// Evictions performed (snapshot written, engine dropped).
    pub evictions: u64,
    /// Resumes served from a snapshot + journal tail.
    pub restores: u64,
    /// Resumes that fell back to a full journal replay (torn or
    /// unreadable snapshot).
    pub fallback_replays: u64,
    /// Bytes of resident engine state, as accounted.
    pub resident_bytes: u64,
    /// Fleet-level warnings from the correlator's latest pass over the
    /// live digests (zero when the table was built without a
    /// correlator configuration).
    pub correlator_warnings: u64,
}

const TAG_OPEN: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_FLUSH: u8 = 3;
const TAG_CLOSE: u8 = 4;
const TAG_STATS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_LABEL: u8 = 7;
const TAG_OK: u8 = 0x80;
const TAG_ERR: u8 = 0x81;
const TAG_STATS_ACK: u8 = 0x82;

/// Wraps `payload` in the journal frame envelope.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    Framing::CHECKED.put(&mut out, payload);
    out
}

/// Reads one frame payload from `stream`. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; mid-frame EOF, an overflowing or oversized
/// length or a CRC mismatch are errors (the caller drops the connection,
/// losing only whatever was unacked on it).
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    let mut payload = Vec::new();
    Ok(Framing::CHECKED.read_from(stream, &mut payload)?.then_some(payload))
}

/// Encodes a request into a framed byte vector, ready to write.
pub fn encode_request(req: &Request, encoder: &mut EventEncoder) -> Vec<u8> {
    let mut payload = Vec::new();
    match req {
        Request::Open { session } => {
            payload.push(TAG_OPEN);
            put_varint(&mut payload, *session);
        }
        Request::Submit { session, event } => {
            payload.push(TAG_SUBMIT);
            put_varint(&mut payload, *session);
            encoder.encode(event, &mut payload);
        }
        Request::Flush => payload.push(TAG_FLUSH),
        Request::Close { session } => {
            payload.push(TAG_CLOSE);
            put_varint(&mut payload, *session);
        }
        Request::Stats => payload.push(TAG_STATS),
        Request::Shutdown => payload.push(TAG_SHUTDOWN),
        Request::Label { session, label } => {
            payload.push(TAG_LABEL);
            put_varint(&mut payload, *session);
            put_text(&mut payload, label);
        }
    }
    frame(&payload)
}

/// Decodes a request payload (the bytes inside the frame).
pub fn decode_request(payload: &[u8], decoder: &mut EventDecoder) -> Result<Request, ServeError> {
    let (&tag, rest) =
        payload.split_first().ok_or_else(|| ServeError::Protocol("empty frame".into()))?;
    let mut r = Reader::new(rest);
    let req = match tag {
        TAG_OPEN => Request::Open { session: r.varint()? },
        TAG_SUBMIT => {
            let session = r.varint()?;
            let (event, used) = decoder.decode(r.rest())?;
            r.take(used as u64)?;
            Request::Submit { session, event }
        }
        TAG_FLUSH => Request::Flush,
        TAG_CLOSE => Request::Close { session: r.varint()? },
        TAG_STATS => Request::Stats,
        TAG_SHUTDOWN => Request::Shutdown,
        TAG_LABEL => {
            let session = r.varint()?;
            let label = get_text(&mut r, "label not UTF-8")?;
            Request::Label { session, label }
        }
        other => return Err(ServeError::Protocol(format!("unknown request tag {other:#x}"))),
    };
    expect_consumed(&r)?;
    Ok(req)
}

/// Appends `text` as a varint length and its UTF-8 bytes.
fn put_text(out: &mut Vec<u8>, text: &str) {
    put_varint(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

/// Reads what [`put_text`] wrote.
fn get_text(r: &mut Reader<'_>, not_utf8: &str) -> Result<String, ServeError> {
    let len = r.varint()?;
    let bytes = r.take(len)?;
    let text = std::str::from_utf8(bytes).map_err(|_| ServeError::Protocol(not_utf8.into()))?;
    Ok(text.to_string())
}

fn expect_consumed(r: &Reader<'_>) -> Result<(), ServeError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(ServeError::Protocol("trailing bytes in request".into()))
    }
}

/// Encodes an ack into a framed byte vector.
pub fn encode_ack(ack: &Ack) -> Vec<u8> {
    let mut payload = Vec::new();
    match ack {
        Ack::Ok { value } => {
            payload.push(TAG_OK);
            put_varint(&mut payload, *value);
        }
        Ack::Err { message } => {
            payload.push(TAG_ERR);
            put_text(&mut payload, message);
        }
        Ack::Stats(stats) => {
            payload.push(TAG_STATS_ACK);
            for v in stats.as_fields() {
                put_varint(&mut payload, v);
            }
        }
    }
    frame(&payload)
}

/// Decodes an ack payload (the bytes inside the frame).
pub fn decode_ack(payload: &[u8]) -> Result<Ack, ServeError> {
    let (&tag, rest) =
        payload.split_first().ok_or_else(|| ServeError::Protocol("empty ack".into()))?;
    let mut r = Reader::new(rest);
    let ack = match tag {
        TAG_OK => Ack::Ok { value: r.varint()? },
        TAG_ERR => Ack::Err { message: get_text(&mut r, "ack message not UTF-8")? },
        TAG_STATS_ACK => {
            let mut fields = [0u64; ServeStats::FIELDS];
            for f in fields.iter_mut() {
                *f = r.varint()?;
            }
            Ack::Stats(ServeStats::from_fields(fields))
        }
        other => return Err(ServeError::Protocol(format!("unknown ack tag {other:#x}"))),
    };
    expect_consumed(&r)?;
    Ok(ack)
}

/// Writes `bytes` fully to the stream (a thin helper so call sites stay
/// symmetrical with [`read_frame`]).
pub fn write_all(stream: &mut impl Write, bytes: &[u8]) -> Result<(), ServeError> {
    stream.write_all(bytes).map_err(ServeError::Io)
}

impl ServeStats {
    /// Number of counters carried in a Stats ack.
    pub const FIELDS: usize = 9;

    fn as_fields(&self) -> [u64; ServeStats::FIELDS] {
        [
            self.sessions_resident,
            self.sessions_open,
            self.events_total,
            self.warnings_total,
            self.evictions,
            self.restores,
            self.fallback_replays,
            self.resident_bytes,
            self.correlator_warnings,
        ]
    }

    fn from_fields(f: [u64; ServeStats::FIELDS]) -> ServeStats {
        ServeStats {
            sessions_resident: f[0],
            sessions_open: f[1],
            events_total: f[2],
            warnings_total: f[3],
            evictions: f[4],
            restores: f[5],
            fallback_replays: f[6],
            resident_bytes: f[7],
            correlator_warnings: f[8],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harrier::{Origin, ResourceType, SourceInfo};
    use hth_fleet::{WireError, MAX_FRAME_LEN};
    use secpert_engine::codec::crc32;

    fn sample_event(i: u64) -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 7,
            syscall: "SYS_open",
            resource: SourceInfo::new(ResourceType::File, format!("/tmp/f{i}")),
            origin: Origin::unknown(),
            time: i,
            frequency: 1,
            address: 0x1000 + i as u32,
            proc_count: None,
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    #[test]
    fn requests_round_trip_through_a_stream() {
        let mut enc = EventEncoder::new();
        let requests = vec![
            Request::Open { session: 3 },
            Request::Submit { session: 3, event: sample_event(0) },
            Request::Submit { session: 3, event: sample_event(1) },
            Request::Flush,
            Request::Label { session: 3, label: "pwsafe".into() },
            Request::Close { session: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        let mut stream = Vec::new();
        for req in &requests {
            stream.extend_from_slice(&encode_request(req, &mut enc));
        }
        // The serve protocol's pinned byte format.
        let pinned: &[u8] = &[
            0x02, 0x04, 0x72, 0xcb, 0xc1, 0x01, 0x03, 0x21, 0xf6, 0xdb, 0xfb, 0xac, 0x02, 0x03,
            0x00, 0x07, 0x00, 0x08, 0x53, 0x59, 0x53, 0x5f, 0x6f, 0x70, 0x65, 0x6e, 0x00, 0x00,
            0x07, 0x2f, 0x74, 0x6d, 0x70, 0x2f, 0x66, 0x30, 0x00, 0x00, 0x01, 0x80, 0x20, 0x00,
            0x00, 0x00, 0x00, 0x18, 0x9e, 0xcc, 0x2e, 0x9f, 0x02, 0x03, 0x00, 0x07, 0x01, 0x00,
            0x00, 0x07, 0x2f, 0x74, 0x6d, 0x70, 0x2f, 0x66, 0x31, 0x00, 0x01, 0x01, 0x81, 0x20,
            0x00, 0x00, 0x00, 0x00, 0x01, 0x37, 0xbe, 0x0b, 0x4b, 0x03, 0x09, 0x33, 0x8d, 0x07,
            0x11, 0x07, 0x03, 0x06, 0x70, 0x77, 0x73, 0x61, 0x66, 0x65, 0x02, 0x41, 0x86, 0xbc,
            0xbc, 0x04, 0x03, 0x01, 0x02, 0x1b, 0x68, 0xa2, 0x05, 0x01, 0xb8, 0x4a, 0x61, 0x3b,
            0x06,
        ];
        assert_eq!(stream, pinned);
        let mut dec = EventDecoder::new();
        let mut cursor = std::io::Cursor::new(stream);
        let mut decoded = Vec::new();
        while let Some(payload) = read_frame(&mut cursor).expect("frame") {
            decoded.push(decode_request(&payload, &mut dec).expect("request"));
        }
        assert_eq!(decoded, requests);
    }

    #[test]
    fn acks_round_trip() {
        let stats = ServeStats {
            sessions_resident: 2,
            sessions_open: 5,
            events_total: 100,
            warnings_total: 3,
            evictions: 4,
            restores: 2,
            fallback_replays: 1,
            resident_bytes: 1 << 20,
            correlator_warnings: 2,
        };
        // Each ack with its pinned frame.
        let pinned: [(Ack, &[u8]); 4] = [
            (Ack::Ok { value: 0 }, &[0x02, 0xb4, 0x8a, 0x5a, 0x7a, 0x80, 0x00]),
            (Ack::Ok { value: 42 }, &[0x02, 0x62, 0x43, 0xe1, 0xa1, 0x80, 0x2a]),
            (
                Ack::Err { message: "session table is draining".into() },
                &[
                    0x1b, 0xff, 0x05, 0xc8, 0x91, 0x81, 0x19, 0x73, 0x65, 0x73, 0x73, 0x69, 0x6f,
                    0x6e, 0x20, 0x74, 0x61, 0x62, 0x6c, 0x65, 0x20, 0x69, 0x73, 0x20, 0x64, 0x72,
                    0x61, 0x69, 0x6e, 0x69, 0x6e, 0x67,
                ],
            ),
            (
                Ack::Stats(stats),
                &[
                    0x0c, 0xe4, 0xbd, 0x90, 0x50, 0x82, 0x02, 0x05, 0x64, 0x03, 0x04, 0x02, 0x01,
                    0x80, 0x80, 0x40, 0x02,
                ],
            ),
        ];
        for (ack, bytes) in pinned {
            let framed = encode_ack(&ack);
            assert_eq!(framed, bytes, "{ack:?}");
            let mut cursor = std::io::Cursor::new(framed);
            let payload = read_frame(&mut cursor).expect("frame").expect("payload");
            assert_eq!(decode_ack(&payload).expect("ack"), ack);
        }
    }

    #[test]
    fn corrupt_and_truncated_frames_are_rejected() {
        let mut enc = EventEncoder::new();
        let good = encode_request(&Request::Open { session: 1 }, &mut enc);
        // Flip a payload bit: CRC mismatch.
        let mut torn = good.clone();
        let last = torn.len() - 1;
        torn[last] ^= 1;
        let err = read_frame(&mut std::io::Cursor::new(torn)).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Crc { .. })), "{err:?}");
        // Cut the frame mid-payload: truncated, not clean EOF.
        let cut = &good[..good.len() - 1];
        let err = read_frame(&mut std::io::Cursor::new(cut.to_vec())).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Truncated)), "{err:?}");
        // Empty stream: clean EOF.
        assert!(read_frame(&mut std::io::Cursor::new(Vec::new())).expect("eof").is_none());
    }

    #[test]
    fn oversized_frames_are_capped() {
        let mut framed = Vec::new();
        put_varint(&mut framed, MAX_FRAME_LEN + 1);
        framed.extend_from_slice(&[0u8; 4]);
        let err = read_frame(&mut std::io::Cursor::new(framed)).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::FrameTooLarge(_))), "{err:?}");
    }

    /// A length varint with bit 64 set overflows. Wrapped around, this
    /// one would read as a valid one-byte Flush frame.
    #[test]
    fn overflowing_frame_lengths_are_rejected() {
        let payload = [TAG_FLUSH];
        let mut framed = vec![0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        let err = read_frame(&mut std::io::Cursor::new(framed)).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::VarintOverflow)), "{err:?}");
    }

    /// A text length of `u64::MAX` inside a payload is truncation in
    /// debug and release builds alike, never an index overflow.
    #[test]
    fn huge_text_lengths_are_truncation() {
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut label = vec![TAG_LABEL, 0x01];
        label.extend_from_slice(&huge);
        let err = decode_request(&label, &mut EventDecoder::new()).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Truncated)), "{err:?}");
        let mut message = vec![TAG_ERR];
        message.extend_from_slice(&huge);
        let err = decode_ack(&message).unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Truncated)), "{err:?}");
    }
}
