//! The byte codec every HTH stream is built from: LEB128 varints, IEEE
//! CRC32, order-dependent string interning, the magic + version header
//! and the CRC frame.
//!
//! The event wire and journals (`hth_fleet::wire`, `hth_fleet::journal`),
//! digest streams (`hth_fleet::digest_wire`), the serve protocol
//! (`hth_serve::protocol`) and both snapshot layers ([`crate::snapshot`]
//! and `hth_core::Secpert::snapshot`) all use these pieces, so this
//! module is the only code that knows the byte layout they share. It
//! lives in the engine crate because that is the lowest crate every
//! stream owner already depends on.
//!
//! * **Varints** — LEB128: 7 bits per byte, high bit = continuation.
//!   [`put_varint`] writes one; [`Reader::varint`] (slices) and
//!   [`Framing::read_from`] (any [`Read`]) decode through one
//!   overflow-checked step, so every reader rejects a varint that runs
//!   past 64 bits.
//! * **Strings** — the first occurrence is inline (`0` marker, length,
//!   UTF-8 bytes) and takes the next table index; later occurrences are
//!   `index + 1`. [`Interner`] and [`StringTable`] grow identical tables,
//!   so a stream must be decoded in order.
//! * **Header** — 4 magic bytes, then a version byte ([`write_header`],
//!   [`read_header`]). Each stream owner picks its magic and its version
//!   policy.
//! * **Frames** — `[varint len][crc32(payload) LE][payload]`; v1
//!   journals leave the CRC out. A [`Framing`] says which, and how long
//!   a frame may claim to be.
//!
//! Decoding never panics and never allocates what a corrupt length
//! claims: every failure is a [`WireError`].

use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read};

/// Newest event-wire version (`hth_fleet::wire::VERSION`), the maximum
/// that [`WireError::BadVersion`] names.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a journal, digest or serve frame's payload, in bytes.
/// Real records encode to well under a kilobyte; anything past this is a
/// corrupt length prefix, not a big record.
pub const MAX_FRAME_LEN: u64 = 1 << 20;

/// Size of a stream header (magic + version byte) in bytes.
pub const HEADER_LEN: usize = 5;

/// Decode-side failures of every stream built on this codec.
#[derive(Debug)]
pub enum WireError {
    /// Underlying reader failed.
    Io(std::io::Error),
    /// The stream does not start with the expected magic.
    BadMagic([u8; 4]),
    /// The stream's version is not one this build understands.
    BadVersion(u8),
    /// Unknown event tag byte.
    BadTag(u8),
    /// Unknown resource-type code.
    BadResourceType(u8),
    /// Unknown severity level in a digest stream.
    BadSeverity(u8),
    /// A string back-reference pointed outside the interning table.
    BadStringRef(u64),
    /// An inline string was not valid UTF-8.
    Utf8(std::str::Utf8Error),
    /// The input ended inside a value.
    Truncated,
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A frame failed its CRC32 check (bit rot / torn write).
    Crc {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// A frame length claims more than its [`Framing::max_len`] — a real
    /// record never gets close, so the length itself is corrupt. Readers
    /// refuse *before* allocating the claimed size.
    FrameTooLarge(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not an HTH event stream)"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (max {WIRE_VERSION})")
            }
            WireError::BadTag(t) => write!(f, "unknown event tag {t}"),
            WireError::BadResourceType(c) => write!(f, "unknown resource-type code {c}"),
            WireError::BadSeverity(l) => write!(f, "unknown severity level {l}"),
            WireError::BadStringRef(i) => write!(f, "string back-reference {i} out of range"),
            WireError::Utf8(e) => write!(f, "string is not UTF-8: {e}"),
            WireError::Truncated => f.write_str("input truncated mid-value"),
            WireError::VarintOverflow => f.write_str("varint longer than 64 bits"),
            WireError::Crc { stored, computed } => {
                write!(f, "frame CRC mismatch (stored {stored:#010x}, computed {computed:#010x})")
            }
            WireError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Appends `v` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Folds one LEB128 byte into `value` at bit `*shift`; `Ok(true)` once
/// the varint is complete. Bit 63 is the last one a `u64` has, so the
/// tenth byte may only be 0 or 1.
#[inline]
fn varint_step(value: &mut u64, shift: &mut u32, byte: u8) -> Result<bool, WireError> {
    if *shift == 63 && byte > 1 {
        return Err(WireError::VarintOverflow);
    }
    *value |= u64::from(byte & 0x7f) << *shift;
    *shift += 7;
    Ok(byte & 0x80 == 0)
}

/// Reads one varint a byte at a time, never past its end; `Ok(None)`
/// when the source ends cleanly before the first byte.
fn read_varint<R: Read + ?Sized>(src: &mut R) -> Result<Option<u64>, WireError> {
    let (mut value, mut shift) = (0, 0);
    loop {
        let mut byte = [0u8; 1];
        match src.read(&mut byte) {
            Ok(0) if shift == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
        if varint_step(&mut value, &mut shift, byte[0])? {
            return Ok(Some(value));
        }
    }
}

/// [`Read::read_exact`], reporting an early end of input as
/// [`WireError::Truncated`].
///
/// # Errors
///
/// [`WireError::Truncated`] at end of input, [`WireError::Io`] otherwise.
pub fn read_exact<R: Read + ?Sized>(src: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    src.read_exact(buf).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(e),
    })
}

static CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3 polynomial) of a byte slice: the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let byte = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads `n` raw bytes. A length read off the wire goes straight in:
    /// a claim longer than the input is truncation, never an allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], WireError> {
        let end = usize::try_from(n)
            .ok()
            .and_then(|n| self.pos.checked_add(n))
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireError::Truncated)?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    /// Reads `N` raw bytes as an array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N as u64)?);
        Ok(out)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input,
    /// [`WireError::VarintOverflow`] past 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let (mut value, mut shift) = (0, 0);
        while !varint_step(&mut value, &mut shift, self.byte()?)? {}
        Ok(value)
    }
}

/// The encode side of string interning: writes each string inline once,
/// then as a back-reference.
#[derive(Debug, Default)]
pub struct Interner {
    known: HashMap<String, u64>,
}

impl Interner {
    /// Appends `s`: `index + 1` if it was seen before, else a `0`
    /// marker, the length and the UTF-8 bytes (taking the next index).
    pub fn put(&mut self, out: &mut Vec<u8>, s: &str) {
        if let Some(&idx) = self.known.get(s) {
            put_varint(out, idx + 1);
            return;
        }
        put_varint(out, 0);
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
        let idx = self.known.len() as u64;
        self.known.insert(s.to_owned(), idx);
    }
}

/// The decode side of string interning, mirroring one [`Interner`].
/// Generic over the decoded string type (`String`, or `Arc<str>` where
/// decoded strings are shared).
#[derive(Debug)]
pub struct StringTable<S> {
    strings: Vec<S>,
}

impl<S> Default for StringTable<S> {
    fn default() -> StringTable<S> {
        StringTable { strings: Vec::new() }
    }
}

impl<S: Clone + for<'s> From<&'s str>> StringTable<S> {
    /// Reads one string written by [`Interner::put`].
    ///
    /// # Errors
    ///
    /// [`WireError::BadStringRef`] for a back-reference past the table,
    /// [`WireError::Utf8`] for invalid text, and reader errors.
    pub fn get(&mut self, r: &mut Reader<'_>) -> Result<S, WireError> {
        let marker = r.varint()?;
        if marker == 0 {
            let len = r.varint()?;
            let text = std::str::from_utf8(r.take(len)?).map_err(WireError::Utf8)?;
            let s = S::from(text);
            self.strings.push(s.clone());
            return Ok(s);
        }
        let idx = marker - 1;
        usize::try_from(idx)
            .ok()
            .and_then(|i| self.strings.get(i))
            .cloned()
            .ok_or(WireError::BadStringRef(idx))
    }
}

/// Writes a stream header: the 4 magic bytes, then the version byte.
pub fn write_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u8) {
    out.extend_from_slice(magic);
    out.push(version);
}

/// Checks `magic` at the front of `buf` and returns the version byte
/// after it, leaving the version policy to the caller.
///
/// # Errors
///
/// [`WireError::BadMagic`] on foreign streams, [`WireError::Truncated`]
/// on input shorter than [`HEADER_LEN`].
pub fn read_header(buf: &[u8], magic: &[u8; 4]) -> Result<u8, WireError> {
    let Some(&[a, b, c, d, version]) = buf.get(..HEADER_LEN) else {
        return Err(WireError::Truncated);
    };
    if [a, b, c, d] != *magic {
        return Err(WireError::BadMagic([a, b, c, d]));
    }
    Ok(version)
}

/// How a stream frames its records: `[varint len][crc32(payload) LE]
/// [payload]`, or `[varint len][payload]` without the CRC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Framing {
    /// Whether each frame carries the CRC32 of its payload.
    pub crc: bool,
    /// The longest payload a reader accepts; a longer claim is
    /// [`WireError::FrameTooLarge`].
    pub max_len: u64,
}

impl Framing {
    /// CRC frames capped at [`MAX_FRAME_LEN`]: journals from v2 on,
    /// digest streams and the serve protocol.
    pub const CHECKED: Framing = Framing { crc: true, max_len: MAX_FRAME_LEN };

    /// Appends `payload` as one frame.
    pub fn put(self, out: &mut Vec<u8>, payload: &[u8]) {
        put_varint(out, payload.len() as u64);
        if self.crc {
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        out.extend_from_slice(payload);
    }

    /// Reads one frame from the front of `r` and returns its payload.
    /// On a CRC mismatch `r` has already moved past the frame, so a scan
    /// knows where the next frame would start.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the input ends inside the frame,
    /// [`WireError::VarintOverflow`] / [`WireError::FrameTooLarge`] for a
    /// corrupt length, [`WireError::Crc`] for a corrupt payload.
    pub fn read<'a>(self, r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
        let (stored, payload) = self.split(r)?;
        verify(stored, payload)?;
        Ok(payload)
    }

    /// Moves `r` past one frame without checking its CRC: for counting
    /// what framing remains behind corruption.
    ///
    /// # Errors
    ///
    /// As [`Framing::read`], without [`WireError::Crc`].
    pub fn skip(self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.split(r).map(drop)
    }

    /// Reads one frame from `src` into `payload` (resized to fit, so one
    /// buffer serves a whole stream). `Ok(false)` when `src` ends cleanly
    /// before the frame's first byte.
    ///
    /// # Errors
    ///
    /// As [`Framing::read`], plus [`WireError::Io`] from `src`.
    pub fn read_from<R: Read + ?Sized>(
        self,
        src: &mut R,
        payload: &mut Vec<u8>,
    ) -> Result<bool, WireError> {
        let Some(len) = read_varint(src)? else { return Ok(false) };
        let len = self.check_len(len)?;
        let stored = if self.crc {
            let mut crc = [0u8; 4];
            read_exact(src, &mut crc)?;
            Some(u32::from_le_bytes(crc))
        } else {
            None
        };
        payload.resize(len as usize, 0);
        read_exact(src, payload)?;
        verify(stored, payload)?;
        Ok(true)
    }

    fn check_len(self, len: u64) -> Result<u64, WireError> {
        if len > self.max_len {
            return Err(WireError::FrameTooLarge(len));
        }
        Ok(len)
    }

    fn split<'a>(self, r: &mut Reader<'a>) -> Result<(Option<u32>, &'a [u8]), WireError> {
        let len = self.check_len(r.varint()?)?;
        let stored = if self.crc { Some(u32::from_le_bytes(r.array()?)) } else { None };
        Ok((stored, r.take(len)?))
    }
}

fn verify(stored: Option<u32>, payload: &[u8]) -> Result<(), WireError> {
    let Some(stored) = stored else { return Ok(()) };
    let computed = crc32(payload);
    if computed != stored {
        return Err(WireError::Crc { stored, computed });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn crc32_known_answers() {
        // The IEEE 802.3 check value, plus the empty-input identity.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"), "single-bit change must move the checksum");
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let values = [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX >> 1, u64::MAX];
        let mut buf = Vec::new();
        for v in values {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert!(r.is_empty());
        let mut src = &buf[..];
        for v in values {
            assert_eq!(read_varint(&mut src).unwrap(), Some(v));
        }
        assert_eq!(read_varint(&mut src).unwrap(), None, "clean end before a varint");
    }

    #[test]
    fn varints_past_64_bits_overflow_in_both_readers() {
        // Bit 64 set in the tenth byte, and a never-ending varint.
        let wide = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        for bytes in [&wide[..], &[0xff; 11][..]] {
            assert!(matches!(Reader::new(bytes).varint(), Err(WireError::VarintOverflow)));
            assert!(matches!(read_varint(&mut &bytes[..]), Err(WireError::VarintOverflow)));
        }
        assert!(matches!(Reader::new(&[0x80]).varint(), Err(WireError::Truncated)));
        assert!(matches!(read_varint(&mut &[0x80][..]), Err(WireError::Truncated)));
    }

    #[test]
    fn string_tables_decode_an_interner_into_any_string_type() {
        let mut interner = Interner::default();
        let mut buf = Vec::new();
        for s in ["open", "passwd", "open", "", "passwd"] {
            interner.put(&mut buf, s);
        }
        // Three distinct strings inline (marker, length, bytes), two
        // one-byte back-references.
        assert_eq!(buf.len(), (2 + 4) + (2 + 6) + 1 + 2 + 1);
        let mut owned = StringTable::<String>::default();
        let mut shared = StringTable::<Arc<str>>::default();
        let (mut a, mut b) = (Reader::new(&buf), Reader::new(&buf));
        for s in ["open", "passwd", "open", "", "passwd"] {
            assert_eq!(owned.get(&mut a).unwrap(), s);
            assert_eq!(&*shared.get(&mut b).unwrap(), s);
        }
        let mut empty = StringTable::<String>::default();
        assert!(matches!(empty.get(&mut Reader::new(&[5])), Err(WireError::BadStringRef(4))));
        let bad_utf8 = [0, 1, 0xff];
        assert!(matches!(empty.get(&mut Reader::new(&bad_utf8)), Err(WireError::Utf8(_))));
    }

    #[test]
    fn a_crc_mismatch_leaves_the_reader_past_the_frame() {
        let mut buf = Vec::new();
        Framing::CHECKED.put(&mut buf, b"payload");
        let end = buf.len();
        buf[end - 1] ^= 1;
        Framing::CHECKED.put(&mut buf, b"next");
        let mut r = Reader::new(&buf);
        assert!(matches!(Framing::CHECKED.read(&mut r), Err(WireError::Crc { .. })));
        assert_eq!(r.pos(), end);
        assert_eq!(Framing::CHECKED.read(&mut r).unwrap(), b"next");
        let mut skipped = Reader::new(&buf);
        Framing::CHECKED.skip(&mut skipped).unwrap();
        assert_eq!(skipped.pos(), end, "skip does not check the CRC");
        let err = Framing::CHECKED.read_from(&mut &buf[..], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, WireError::Crc { .. }));
    }

    #[test]
    fn frame_lengths_are_capped_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_FRAME_LEN + 1);
        buf.extend_from_slice(&[0; 4]);
        let err = Framing::CHECKED.read(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge(len) if len == MAX_FRAME_LEN + 1));
        let err = Framing::CHECKED.read_from(&mut &buf[..], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge(_)));
        // Uncapped, the same claim is simply longer than the input.
        let uncapped = Framing { max_len: u64::MAX, ..Framing::CHECKED };
        assert!(matches!(uncapped.read(&mut Reader::new(&buf)), Err(WireError::Truncated)));
    }
}
