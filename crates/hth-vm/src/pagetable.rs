//! A two-level page table over the 32-bit guest address space.
//!
//! This is the one place that knows how an address splits into a page
//! directory, a page slot and a byte offset. Guest memory
//! ([`crate::Memory`]) and Harrier's shadow memory both keep their pages
//! here.

/// Page size in bytes (4 KiB, like the hardware being modelled).
pub const PAGE_SIZE: u32 = 1 << PAGE_BITS;

const PAGE_BITS: u32 = 12;
const SLOT_BITS: u32 = 10;
const SLOTS: usize = 1 << SLOT_BITS;
const DIRS: usize = 1 << (32 - PAGE_BITS - SLOT_BITS);

type Dir<T> = [Option<T>; SLOTS];

/// One optional value per 4 KiB page of the 32-bit address space.
///
/// The top ten address bits pick one of 1024 directories and the next
/// ten one of its 1024 page slots, so a lookup is two array indexes
/// whatever the address. A directory (4 MiB of address space) is
/// allocated on the first insert inside it. Nothing is hashed: the
/// monitored program chooses the addresses, and no address it picks can
/// make a lookup slower.
///
/// ```
/// use hth_vm::PageTable;
/// let mut t = PageTable::new();
/// *t.slot(0x0804_8123) = Some("text");
/// assert_eq!(t.get(0x0804_8fff), Some(&"text"));
/// assert_eq!(t.get(0x0804_9000), None);
/// assert_eq!(t.remove(0x0804_8000), Some("text"));
/// ```
#[derive(Clone, Debug)]
pub struct PageTable<T> {
    dirs: Box<[Option<Box<Dir<T>>>; DIRS]>,
}

/// Directory and slot index of the page holding `addr`.
fn split(addr: u32) -> (usize, usize) {
    ((addr >> (PAGE_BITS + SLOT_BITS)) as usize, (addr >> PAGE_BITS) as usize & (SLOTS - 1))
}

impl<T> Default for PageTable<T> {
    fn default() -> PageTable<T> {
        PageTable::new()
    }
}

impl<T> PageTable<T> {
    /// An empty table: every page slot is empty.
    pub fn new() -> PageTable<T> {
        PageTable { dirs: Box::new([const { None }; DIRS]) }
    }

    /// The value of the page holding `addr`.
    pub fn get(&self, addr: u32) -> Option<&T> {
        let (dir, slot) = split(addr);
        self.dirs[dir].as_ref()?[slot].as_ref()
    }

    /// The value of the page holding `addr`, mutably.
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut T> {
        let (dir, slot) = split(addr);
        self.dirs[dir].as_mut()?[slot].as_mut()
    }

    /// The slot of the page holding `addr`, allocating its directory on
    /// first use.
    pub fn slot(&mut self, addr: u32) -> &mut Option<T> {
        let (dir, slot) = split(addr);
        &mut self.dirs[dir].get_or_insert_with(|| Box::new([const { None }; SLOTS]))[slot]
    }

    /// Empties the slot of the page holding `addr`, returning its value.
    pub fn remove(&mut self, addr: u32) -> Option<T> {
        let (dir, slot) = split(addr);
        self.dirs[dir].as_mut()?[slot].take()
    }

    /// Every present value, in address order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.dirs.iter().flatten().flat_map(|dir| dir.iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_split_on_directory_and_page_bits() {
        let mut t = PageTable::new();
        *t.slot(0x003f_ffff) = Some(1); // last page of directory 0
        *t.slot(0x0040_0000) = Some(2); // first page of directory 1
        *t.slot(0xffff_ffff) = Some(3); // top page
        assert_eq!(t.get(0x003f_f000), Some(&1));
        assert_eq!(t.get(0x0040_0fff), Some(&2));
        assert_eq!(t.get(0xffff_f000), Some(&3));
        assert_eq!(t.get(0x0000_0000), None);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        *t.get_mut(0x0040_0000).unwrap() += 10;
        assert_eq!(t.remove(0x0040_0123), Some(12));
        assert_eq!(t.get(0x0040_0000), None);
        assert_eq!(t.remove(0x8000_0000), None, "an absent directory removes nothing");
    }

    #[test]
    fn every_page_has_its_own_slot() {
        // Every page of one directory, plus one page in every directory.
        let pages: std::collections::BTreeSet<u32> = (0..SLOTS as u32)
            .map(|page| 0x0800_0000 + page * PAGE_SIZE)
            .chain((0..DIRS as u32).map(|dir| (dir << (PAGE_BITS + SLOT_BITS)) | 0x5000))
            .collect();
        let mut t = PageTable::new();
        for &addr in &pages {
            *t.slot(addr) = Some(addr);
        }
        for &addr in &pages {
            assert_eq!(t.get(addr + PAGE_SIZE - 1), Some(&addr));
        }
        assert_eq!(t.values().count(), pages.len());
    }
}
