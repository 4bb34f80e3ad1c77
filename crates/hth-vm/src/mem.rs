//! Sparse paged memory for the virtual machine.

use std::fmt;

use crate::pagetable::{PageTable, PAGE_SIZE};

/// Error raised on access to unmapped memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u32,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault at {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// A mapped page.
#[derive(Clone, Debug)]
enum Frame {
    /// Never written: reads as zeros and owns no storage.
    Zero,
    /// Written at least once.
    Data(Box<[u8; PAGE_SIZE as usize]>),
}

impl Frame {
    /// The page's bytes, allocated (zeroed) on the first write.
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE as usize] {
        if let Frame::Zero = self {
            let zeroed = vec![0; PAGE_SIZE as usize].into_boxed_slice();
            *self = Frame::Data(zeroed.try_into().expect("one page of bytes"));
        }
        match self {
            Frame::Data(bytes) => bytes,
            Frame::Zero => unreachable!("just allocated"),
        }
    }
}

/// Offset of `addr` within its page.
fn offset(addr: u32) -> usize {
    (addr % PAGE_SIZE) as usize
}

/// A sparse 32-bit address space whose cost follows the pages written.
///
/// Pages must be [mapped](Memory::map) before access — unmapped accesses
/// fault, which the interpreter reports as a crash of the monitored
/// program (faithful to running a real binary under Pin). A mapped page
/// reads as zeros and gets storage on its first write.
/// [`fork`](Memory::fork) is the only way to copy an address space: the
/// two sides share their pages, 4 MiB directory by directory, until one
/// of them writes into a directory, and that write copies that directory
/// alone. A process that exits frees only what it copied.
///
/// ```
/// use hth_vm::Memory;
/// let mut m = Memory::new();
/// m.map(0x1000, 0x2000);
/// m.write_u32(0x1ffc, 0xdead_beef).unwrap();
/// assert_eq!(m.read_u32(0x1ffc).unwrap(), 0xdead_beef);
/// assert!(m.read_u8(0x3000).is_err());
/// let mut child = m.fork();
/// child.write_u32(0x1ffc, 7).unwrap();
/// assert_eq!(m.read_u32(0x1ffc).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    pages: PageTable<Frame>,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// The address space of a forked child: a copy of this one whose
    /// pages stay shared with it until either side writes.
    pub fn fork(&mut self) -> Memory {
        Memory { pages: self.pages.fork() }
    }

    /// Maps `[start, end)` (rounded out to page boundaries) as accessible,
    /// zero-filled memory. Mapping an already-mapped range is a no-op for
    /// the overlapping pages. Because `end` is exclusive, the top page
    /// (`0xffff_f000..`) can never be mapped.
    pub fn map(&mut self, start: u32, end: u32) {
        assert!(start <= end, "map range reversed");
        let first = start / PAGE_SIZE;
        let last = end.saturating_add(PAGE_SIZE - 1) / PAGE_SIZE;
        for page in first..last {
            self.pages.slot(page * PAGE_SIZE).get_or_insert(Frame::Zero);
        }
    }

    /// True when `addr` lies on a mapped page.
    pub fn is_mapped(&self, addr: u32) -> bool {
        self.pages.get(addr).is_some()
    }

    /// Number of pages that hold storage, i.e. were written since they
    /// were mapped (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.values().filter(|frame| matches!(frame, Frame::Data(_))).count()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on unmapped addresses.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        match self.pages.get(addr) {
            Some(Frame::Data(bytes)) => Ok(bytes[offset(addr)]),
            Some(Frame::Zero) => Ok(0),
            None => Err(MemFault { addr }),
        }
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on unmapped addresses.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        let frame = self.pages.get_mut(addr).ok_or(MemFault { addr })?;
        frame.bytes_mut()[offset(addr)] = value;
        Ok(())
    }

    /// Reads a little-endian u32 (may straddle pages).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] at the first unmapped byte.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let off = offset(addr);
        if off <= PAGE_SIZE as usize - 4 {
            return match self.pages.get(addr) {
                Some(Frame::Data(bytes)) => {
                    Ok(u32::from_le_bytes(bytes[off..off + 4].try_into().expect("four bytes")))
                }
                Some(Frame::Zero) => Ok(0),
                None => Err(MemFault { addr }),
            };
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(bytes))
    }

    /// Writes a little-endian u32 (may straddle pages). A straddling
    /// write that faults keeps the bytes written before the fault.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] at the first unmapped byte.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        let off = offset(addr);
        if off <= PAGE_SIZE as usize - 4 {
            let frame = self.pages.get_mut(addr).ok_or(MemFault { addr })?;
            frame.bytes_mut()[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    /// Reads `len` bytes into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on unmapped addresses.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i))).collect()
    }

    /// Writes a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on unmapped addresses.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (lossy UTF-8), up to `max` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on unmapped addresses before the terminator.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<String, MemFault> {
        let mut bytes = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            bytes.push(b);
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        assert_eq!(m.read_u8(0), Err(MemFault { addr: 0 }));
        assert_eq!(m.write_u8(0x5000, 1), Err(MemFault { addr: 0x5000 }));
    }

    #[test]
    fn mapping_rounds_to_pages() {
        let mut m = Memory::new();
        m.map(0x1100, 0x1200);
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x1fff));
        assert!(!m.is_mapped(0x2000));
    }

    #[test]
    fn pages_get_storage_on_first_write() {
        let mut m = Memory::new();
        m.map(0x1000, 0x5000);
        assert_eq!(m.read_u32(0x1000).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
        m.write_u8(0x3001, 7).unwrap();
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u32(0x3000).unwrap(), 0x0700);
    }

    #[test]
    fn u32_round_trip_across_page_boundary() {
        let mut m = Memory::new();
        m.map(0x1000, 0x3000);
        let addr = 0x1ffe; // straddles the 0x2000 boundary
        m.write_u32(addr, 0x0102_0304).unwrap();
        assert_eq!(m.read_u32(addr).unwrap(), 0x0102_0304);
        assert_eq!(m.read_u8(addr).unwrap(), 0x04, "little endian");
    }

    #[test]
    fn cstr_reads_until_nul() {
        let mut m = Memory::new();
        m.map(0x1000, 0x2000);
        m.write_bytes(0x1000, b"/bin/ls\0junk").unwrap();
        assert_eq!(m.read_cstr(0x1000, 64).unwrap(), "/bin/ls");
    }

    #[test]
    fn cstr_respects_max() {
        let mut m = Memory::new();
        m.map(0x1000, 0x2000);
        m.write_bytes(0x1000, b"abcdef").unwrap();
        assert_eq!(m.read_cstr(0x1000, 3).unwrap(), "abc");
    }
}
