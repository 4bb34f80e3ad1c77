//! The Harrier→Secpert event protocol as a compact, versioned binary
//! wire format.
//!
//! The paper (§6.1.2, Figure 1) describes Harrier streaming `resource
//! access` / `data transfer` events to Secpert over an event protocol;
//! this module is that protocol's on-the-wire shape. Every byte-level
//! piece comes from the shared codec ([`secpert_engine::codec`]); this
//! module only decides what goes where:
//!
//! * **Stream header** — magic `HTHW` + a version byte, written once per
//!   stream (see [`write_header`] / [`read_header`]).
//! * **Varints** — all integers are LEB128, so the common small
//!   pids/times/frequencies cost one byte.
//! * **String interning** — resource names, syscall names and server
//!   addresses repeat heavily within a stream, so each is sent inline
//!   once and as a back-reference after that. Encoder and decoder grow
//!   identical tables, so a stream is self-describing but must be
//!   decoded in order.
//! * **Events** — a tag byte (`0` = `ResourceAccess`, `1` =
//!   `DataTransfer`) followed by the variant's fields in declaration
//!   order. `Option` fields are a presence byte; vectors are a count
//!   varint; [`ResourceType`] is its stable [`ResourceType::code`].
//!
//! Encoding is infallible (it writes to a `Vec<u8>`); decoding returns
//! [`WireError`] on malformed input and never panics.

use harrier::{intern_syscall, Origin, ResourceType, SecpertEvent, ServerInfo, SourceInfo};
use secpert_engine::codec::{self, Interner, Reader, StringTable};

pub use secpert_engine::codec::{put_varint, WireError, HEADER_LEN, MAX_FRAME_LEN};

/// First bytes of every stream.
pub const MAGIC: [u8; 4] = *b"HTHW";

/// Current wire-format version. Version 2 appends the `bytes` counter
/// to `DataTransfer` records; version-1 streams decode it as 0.
pub const VERSION: u8 = codec::WIRE_VERSION;

/// Oldest event-codec version this build still decodes.
pub const MIN_VERSION: u8 = 1;

const TAG_RESOURCE_ACCESS: u8 = 0;
const TAG_DATA_TRANSFER: u8 = 1;

/// Writes the stream header (magic + version).
pub fn write_header(out: &mut Vec<u8>) {
    write_header_versioned(out, VERSION);
}

/// Writes a stream header with an explicit version byte (journal and
/// digest streams share the magic but carry their own version).
pub fn write_header_versioned(out: &mut Vec<u8>, version: u8) {
    codec::write_header(out, &MAGIC, version);
}

/// Checks the magic and returns the stream's version byte, leaving the
/// version policy to the caller (journals accept more versions than raw
/// wire streams do).
///
/// # Errors
///
/// [`WireError::BadMagic`] on foreign streams, [`WireError::Truncated`]
/// on short input.
pub fn read_header_any(buf: &[u8]) -> Result<u8, WireError> {
    codec::read_header(buf, &MAGIC)
}

/// Checks the stream header; returns the number of bytes consumed.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::BadVersion`] on foreign or
/// future streams, [`WireError::Truncated`] on short input.
pub fn read_header(buf: &[u8]) -> Result<usize, WireError> {
    let version = read_header_any(buf)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    Ok(HEADER_LEN)
}

/// Encodes [`SecpertEvent`]s into a stream, growing the string table as
/// it goes. One encoder per stream; events must be decoded by a single
/// [`EventDecoder`] in the same order.
#[derive(Debug)]
pub struct EventEncoder {
    strings: Interner,
    version: u8,
}

impl Default for EventEncoder {
    fn default() -> EventEncoder {
        EventEncoder::new()
    }
}

impl EventEncoder {
    /// A fresh encoder with an empty string table, emitting the current
    /// event-codec version.
    pub fn new() -> EventEncoder {
        EventEncoder::for_version(VERSION)
    }

    /// An encoder for an explicit event-codec version (legacy journal
    /// framings imply legacy event records).
    pub fn for_version(version: u8) -> EventEncoder {
        EventEncoder { strings: Interner::default(), version }
    }

    /// Number of distinct strings interned so far.
    pub fn interned_strings(&self) -> usize {
        self.strings.count()
    }

    /// Appends one event's encoding to `out`.
    pub fn encode(&mut self, event: &SecpertEvent, out: &mut Vec<u8>) {
        match event {
            SecpertEvent::ResourceAccess {
                pid,
                syscall,
                resource,
                origin,
                time,
                frequency,
                address,
                proc_count,
                proc_rate,
                mem_total,
                server,
            } => {
                out.push(TAG_RESOURCE_ACCESS);
                put_varint(out, u64::from(*pid));
                self.strings.put(out, syscall);
                self.put_source(out, resource);
                self.put_origin(out, origin);
                put_varint(out, *time);
                put_varint(out, *frequency);
                put_varint(out, u64::from(*address));
                self.put_opt_u64(out, *proc_count);
                self.put_opt_u64(out, *proc_rate);
                self.put_opt_u64(out, *mem_total);
                self.put_server(out, server);
            }
            SecpertEvent::DataTransfer {
                pid,
                syscall,
                data_sources,
                data_origin,
                target,
                target_origin,
                time,
                frequency,
                address,
                executable_content,
                server,
                bytes,
            } => {
                out.push(TAG_DATA_TRANSFER);
                put_varint(out, u64::from(*pid));
                self.strings.put(out, syscall);
                put_varint(out, data_sources.len() as u64);
                for source in data_sources {
                    self.put_source(out, source);
                }
                self.put_origin(out, data_origin);
                self.put_source(out, target);
                self.put_origin(out, target_origin);
                put_varint(out, *time);
                put_varint(out, *frequency);
                put_varint(out, u64::from(*address));
                out.push(u8::from(*executable_content));
                self.put_server(out, server);
                if self.version >= 2 {
                    put_varint(out, *bytes);
                }
            }
        }
    }

    fn put_source(&mut self, out: &mut Vec<u8>, source: &SourceInfo) {
        out.push(source.kind.code());
        self.strings.put(out, &source.name);
    }

    fn put_origin(&mut self, out: &mut Vec<u8>, origin: &Origin) {
        put_varint(out, origin.sources.len() as u64);
        for source in &origin.sources {
            self.put_source(out, source);
        }
    }

    fn put_opt_u64(&mut self, out: &mut Vec<u8>, v: Option<u64>) {
        match v {
            Some(v) => {
                out.push(1);
                put_varint(out, v);
            }
            None => out.push(0),
        }
    }

    fn put_server(&mut self, out: &mut Vec<u8>, server: &Option<ServerInfo>) {
        match server {
            Some(info) => {
                out.push(1);
                self.strings.put(out, &info.address);
                self.put_origin(out, &info.origin);
            }
            None => out.push(0),
        }
    }
}

/// Decodes a stream produced by one [`EventEncoder`], mirroring its
/// string table.
#[derive(Debug)]
pub struct EventDecoder {
    strings: StringTable<String>,
    version: u8,
}

impl Default for EventDecoder {
    fn default() -> EventDecoder {
        EventDecoder::new()
    }
}

impl EventDecoder {
    /// A fresh decoder with an empty string table, expecting the
    /// current event-codec version.
    pub fn new() -> EventDecoder {
        EventDecoder::for_version(VERSION)
    }

    /// A decoder for an explicit event-codec version (version-1 streams
    /// predate the `DataTransfer` byte counter and decode it as 0).
    pub fn for_version(version: u8) -> EventDecoder {
        EventDecoder { strings: StringTable::default(), version }
    }

    /// Decodes one event from the front of `buf`; returns the event and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input. The decoder's string table
    /// may have grown by then; discard the decoder after an error.
    pub fn decode(&mut self, buf: &[u8]) -> Result<(SecpertEvent, usize), WireError> {
        let mut cur = Reader::new(buf);
        let event = match cur.byte()? {
            TAG_RESOURCE_ACCESS => SecpertEvent::ResourceAccess {
                pid: cur.varint()? as u32,
                syscall: intern_syscall(&self.strings.get(&mut cur)?),
                resource: self.get_source(&mut cur)?,
                origin: self.get_origin(&mut cur)?,
                time: cur.varint()?,
                frequency: cur.varint()?,
                address: cur.varint()? as u32,
                proc_count: self.get_opt_u64(&mut cur)?,
                proc_rate: self.get_opt_u64(&mut cur)?,
                mem_total: self.get_opt_u64(&mut cur)?,
                server: self.get_server(&mut cur)?,
            },
            TAG_DATA_TRANSFER => SecpertEvent::DataTransfer {
                pid: cur.varint()? as u32,
                syscall: intern_syscall(&self.strings.get(&mut cur)?),
                data_sources: {
                    let n = cur.varint()? as usize;
                    let mut sources = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        sources.push(self.get_source(&mut cur)?);
                    }
                    sources
                },
                data_origin: self.get_origin(&mut cur)?,
                target: self.get_source(&mut cur)?,
                target_origin: self.get_origin(&mut cur)?,
                time: cur.varint()?,
                frequency: cur.varint()?,
                address: cur.varint()? as u32,
                executable_content: cur.byte()? != 0,
                server: self.get_server(&mut cur)?,
                bytes: if self.version >= 2 { cur.varint()? } else { 0 },
            },
            tag => return Err(WireError::BadTag(tag)),
        };
        Ok((event, cur.pos()))
    }

    fn get_source(&mut self, cur: &mut Reader<'_>) -> Result<SourceInfo, WireError> {
        let code = cur.byte()?;
        let kind = ResourceType::from_code(code).ok_or(WireError::BadResourceType(code))?;
        let name = self.strings.get(cur)?;
        Ok(SourceInfo { kind, name })
    }

    fn get_origin(&mut self, cur: &mut Reader<'_>) -> Result<Origin, WireError> {
        let n = cur.varint()? as usize;
        let mut sources = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            sources.push(self.get_source(cur)?);
        }
        Ok(Origin { sources })
    }

    fn get_opt_u64(&mut self, cur: &mut Reader<'_>) -> Result<Option<u64>, WireError> {
        match cur.byte()? {
            0 => Ok(None),
            _ => Ok(Some(cur.varint()?)),
        }
    }

    fn get_server(&mut self, cur: &mut Reader<'_>) -> Result<Option<ServerInfo>, WireError> {
        match cur.byte()? {
            0 => Ok(None),
            _ => {
                let address = self.strings.get(cur)?;
                let origin = self.get_origin(cur)?;
                Ok(Some(ServerInfo { address, origin }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_access() -> SecpertEvent {
        SecpertEvent::ResourceAccess {
            pid: 1,
            syscall: "SYS_execve",
            resource: SourceInfo::new(ResourceType::File, "/bin/ls"),
            origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")] },
            time: 42,
            frequency: 7,
            address: 0x0804_8403,
            proc_count: Some(3),
            proc_rate: None,
            mem_total: None,
            server: None,
        }
    }

    fn sample_transfer() -> SecpertEvent {
        SecpertEvent::DataTransfer {
            pid: 300,
            syscall: "SYS_write",
            data_sources: vec![
                SourceInfo::new(ResourceType::File, "/etc/passwd"),
                SourceInfo::new(ResourceType::UserInput, ""),
            ],
            data_origin: Origin::unknown(),
            target: SourceInfo::new(ResourceType::Socket, "évil:99 (AF_INET)"),
            target_origin: Origin {
                sources: vec![SourceInfo::new(ResourceType::Binary, "/bin/app")],
            },
            time: u64::MAX,
            frequency: 0,
            address: u32::MAX,
            executable_content: true,
            server: Some(ServerInfo {
                address: "LocalHost:11116 (AF_INET)".into(),
                origin: Origin { sources: vec![SourceInfo::new(ResourceType::Binary, "pmad")] },
            }),
            bytes: 1 << 40,
        }
    }

    /// A v1 encoder/decoder pair round-trips everything except the
    /// byte counter, which v1 streams cannot carry.
    #[test]
    fn v1_streams_decode_with_zero_bytes() {
        let mut enc = EventEncoder::for_version(1);
        let mut buf = Vec::new();
        enc.encode(&sample_transfer(), &mut buf);
        let mut dec = EventDecoder::for_version(1);
        let (decoded, used) = dec.decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        let mut expected = sample_transfer();
        if let SecpertEvent::DataTransfer { bytes, .. } = &mut expected {
            *bytes = 0;
        }
        assert_eq!(decoded, expected);
    }

    #[test]
    fn round_trip_both_variants() {
        let mut enc = EventEncoder::new();
        let mut buf = Vec::new();
        write_header(&mut buf);
        enc.encode(&sample_access(), &mut buf);
        enc.encode(&sample_transfer(), &mut buf);

        let mut dec = EventDecoder::new();
        let mut pos = read_header(&buf).unwrap();
        let (a, used) = dec.decode(&buf[pos..]).unwrap();
        pos += used;
        assert_eq!(a, sample_access());
        let (b, used) = dec.decode(&buf[pos..]).unwrap();
        pos += used;
        assert_eq!(b, sample_transfer());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn interning_makes_repeats_cheap() {
        let mut enc = EventEncoder::new();
        let mut first = Vec::new();
        enc.encode(&sample_access(), &mut first);
        let mut second = Vec::new();
        enc.encode(&sample_access(), &mut second);
        assert!(
            second.len() < first.len() / 2,
            "repeat encoding should collapse to back-references: {} vs {}",
            second.len(),
            first.len()
        );
    }

    #[test]
    fn header_any_returns_the_version() {
        assert_eq!(read_header_any(b"HTHW\x02rest").unwrap(), 2);
        assert!(matches!(read_header_any(b"NOPE\x01"), Err(WireError::BadMagic(_))));
        assert!(matches!(read_header_any(b"HTH"), Err(WireError::Truncated)));
    }

    #[test]
    fn header_rejects_foreign_streams() {
        assert!(matches!(read_header(b"HTH"), Err(WireError::Truncated)));
        assert!(matches!(read_header(b"NOPE\x01rest"), Err(WireError::BadMagic(_))));
        assert!(matches!(read_header(b"HTHW\x63rest"), Err(WireError::BadVersion(0x63))));
    }

    #[test]
    fn malformed_input_errors_cleanly() {
        let mut dec = EventDecoder::new();
        assert!(matches!(dec.decode(&[]), Err(WireError::Truncated)));
        assert!(matches!(dec.decode(&[9]), Err(WireError::BadTag(9))));
        // ResourceAccess with a string back-reference into an empty table.
        assert!(matches!(
            EventDecoder::new().decode(&[TAG_RESOURCE_ACCESS, 1, 5]),
            Err(WireError::BadStringRef(4))
        ));
        // Varint that never terminates within 64 bits.
        let mut buf = vec![TAG_RESOURCE_ACCESS];
        buf.extend_from_slice(&[0xff; 11]);
        assert!(matches!(EventDecoder::new().decode(&buf), Err(WireError::VarintOverflow)));
    }
}
