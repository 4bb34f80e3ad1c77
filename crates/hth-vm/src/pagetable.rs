//! A two-level page table over the 32-bit guest address space.
//!
//! This is the one place that knows how an address splits into a page
//! directory, a page slot and a byte offset, and the one place that
//! knows how a fork shares pages. Guest memory ([`crate::Memory`]) and
//! Harrier's shadow memory both keep their pages here.

use std::sync::Arc;

/// Page size in bytes (4 KiB, like the hardware being modelled).
pub const PAGE_SIZE: u32 = 1 << PAGE_BITS;

const PAGE_BITS: u32 = 12;
const SLOT_BITS: u32 = 10;
const SLOTS: usize = 1 << SLOT_BITS;
const DIRS: usize = 1 << (32 - PAGE_BITS - SLOT_BITS);

/// The page slots of one directory (4 MiB of address space).
type Slots<T> = [Option<T>; SLOTS];

/// A directory, held by one table or shared by several.
#[derive(Debug)]
enum Dir<T> {
    /// This table alone holds the directory and writes it in place.
    Owned(Box<Slots<T>>),
    /// A fork shares the directory; the first write copies it.
    Shared(Arc<Slots<T>>),
}

impl<T> Dir<T> {
    fn slots(&self) -> &Slots<T> {
        match self {
            Dir::Owned(slots) => slots,
            Dir::Shared(slots) => slots,
        }
    }
}

impl<T: Clone> Dir<T> {
    /// The slots, writable. A shared directory is unshared first.
    fn slots_mut(&mut self) -> &mut Slots<T> {
        if let Dir::Shared(_) = self {
            self.unshare();
        }
        match self {
            Dir::Owned(slots) => slots,
            Dir::Shared(_) => unreachable!("just unshared"),
        }
    }

    /// Makes a shared directory owned: it takes the pages back when no
    /// other table holds them any more, and copies them otherwise.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        if let Dir::Shared(shared) = self {
            let slots = match Arc::get_mut(shared) {
                Some(last) => Box::new(std::mem::replace(last, [const { None }; SLOTS])),
                None => Box::new((**shared).clone()),
            };
            *self = Dir::Owned(slots);
        }
    }
}

/// One optional value per 4 KiB page of the 32-bit address space.
///
/// The top ten address bits pick one of 1024 directories and the next
/// ten one of its 1024 page slots. A directory (4 MiB of address space)
/// is allocated on the first insert inside it, and a 2 KiB index maps
/// each directory number to it, so a lookup is three array indexes
/// whatever the address. Nothing is hashed: the monitored program
/// chooses the addresses, and no address it picks can make a lookup
/// slower.
///
/// [`fork`](PageTable::fork) is the only way to copy a table. It copies
/// the index, and the parent and the child then share every directory
/// until one of them writes into it; that write copies the one directory
/// it lands in (copy-on-write). A table reads and writes the directories
/// it owns in place, with no reference count touched; sharing costs a
/// branch on those paths, and an atomic operation only when a directory
/// is forked, unshared or dropped.
///
/// ```
/// use hth_vm::PageTable;
/// let mut t = PageTable::new();
/// *t.slot(0x0804_8123) = Some("text");
/// assert_eq!(t.get(0x0804_8fff), Some(&"text"));
/// assert_eq!(t.get(0x0804_9000), None);
/// let mut child = t.fork();
/// *child.slot(0x0804_8000) = Some("data");
/// assert_eq!(t.get(0x0804_8000), Some(&"text"), "the parent keeps its page");
/// assert_eq!(t.remove(0x0804_8000), Some("text"));
/// assert_eq!(child.get(0x0804_8000), Some(&"data"));
/// ```
#[derive(Debug)]
pub struct PageTable<T> {
    /// One more than the position in `dirs` of each directory; 0 while
    /// the directory is absent.
    index: Box<[u16; DIRS]>,
    /// The present directories, in the order they were first used.
    dirs: Vec<Dir<T>>,
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
        PageTable { index: Box::new([0; DIRS]), dirs: Vec::new() }
    }

    /// Position in `dirs` of directory `dir`, when it is present.
    fn position(&self, dir: usize) -> Option<usize> {
        usize::from(self.index[dir]).checked_sub(1)
    }

    /// The value of the page holding `addr`.
    pub fn get(&self, addr: u32) -> Option<&T> {
        let (dir, slot) = split(addr);
        self.dirs[self.position(dir)?].slots()[slot].as_ref()
    }

    /// Every present value, in address order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        (0..DIRS)
            .filter_map(|dir| self.position(dir))
            .flat_map(|at| self.dirs[at].slots().iter().flatten())
    }

    /// A copy of this table for a forked process. Every directory is
    /// shared between the two tables until one of them writes into it.
    pub fn fork(&mut self) -> PageTable<T> {
        let shared: Vec<Arc<Slots<T>>> = std::mem::take(&mut self.dirs)
            .into_iter()
            .map(|dir| match dir {
                Dir::Owned(slots) => Arc::from(slots),
                Dir::Shared(slots) => slots,
            })
            .collect();
        self.dirs = shared.iter().cloned().map(Dir::Shared).collect();
        PageTable { index: self.index.clone(), dirs: shared.into_iter().map(Dir::Shared).collect() }
    }
}

impl<T: Clone> PageTable<T> {
    /// The value of the page holding `addr`, mutably.
    pub fn get_mut(&mut self, addr: u32) -> Option<&mut T> {
        self.present(addr)?.as_mut()
    }

    /// The slot of the page holding `addr`, allocating its directory on
    /// first use.
    pub fn slot(&mut self, addr: u32) -> &mut Option<T> {
        let (dir, slot) = split(addr);
        let at = match self.position(dir) {
            Some(at) => at,
            None => {
                self.dirs.push(Dir::Owned(Box::new([const { None }; SLOTS])));
                self.index[dir] = self.dirs.len() as u16;
                self.dirs.len() - 1
            }
        };
        &mut self.dirs[at].slots_mut()[slot]
    }

    /// Empties the slot of the page holding `addr`, returning its value.
    pub fn remove(&mut self, addr: u32) -> Option<T> {
        self.present(addr)?.take()
    }

    /// The slot of the page holding `addr` when that page is present,
    /// writable. A shared directory is unshared only then.
    fn present(&mut self, addr: u32) -> Option<&mut Option<T>> {
        let (dir, slot) = split(addr);
        let at = self.position(dir)?;
        let dir = &mut self.dirs[at];
        if let Dir::Shared(shared) = dir {
            shared[slot].as_ref()?;
        }
        Some(&mut dir.slots_mut()[slot])
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
    fn a_fork_shares_directories_until_one_side_writes() {
        let mut parent = PageTable::new();
        *parent.slot(0x0804_8000) = Some(1);
        *parent.slot(0xbfff_f000) = Some(2);
        let mut child = parent.fork();
        let grandchild = child.fork();
        let shared = |t: &PageTable<i32>, addr| {
            let at = t.position(split(addr).0).unwrap();
            matches!(t.dirs[at], Dir::Shared(_))
        };
        assert!([&parent, &child, &grandchild].iter().all(|t| shared(t, 0x0804_8000)));

        // A write copies the one directory it lands in, for the writer.
        *child.get_mut(0x0804_8000).unwrap() += 10;
        assert!(!shared(&child, 0x0804_8000) && shared(&child, 0xbfff_f000));
        assert_eq!(parent.get(0x0804_8000), Some(&1));
        assert_eq!(grandchild.get(0x0804_8000), Some(&1));
        assert_eq!(child.get(0x0804_8000), Some(&11));

        // Lookups and removals of absent pages leave a directory shared.
        assert_eq!(parent.get_mut(0x0804_9000), None);
        assert_eq!(parent.remove(0x0804_9000), None);
        assert!(shared(&parent, 0x0804_8000));

        // Once the other holders are gone, the last one takes the
        // directory back and keeps its pages.
        drop(grandchild);
        assert_eq!(parent.remove(0x0804_8000), Some(1));
        assert!(!shared(&parent, 0x0804_8000));
        assert_eq!(parent.values().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(child.values().copied().collect::<Vec<_>>(), vec![11, 2]);
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
