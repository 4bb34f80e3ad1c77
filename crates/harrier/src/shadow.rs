//! Shadow state: one [`TagRef`] per register and per memory byte.
//!
//! Shadow memory is demand-allocated in 4 KiB pages on the VM's
//! [`PageTable`], the same direct-indexed table that holds guest memory,
//! and each page is kept in the most compact of two representations:
//!
//! * [`Page::Uniform`] — every byte of the page carries the same tag
//!   (one word for the whole page). Whole-buffer tagging, the common
//!   case for `read`/image loading/stack setup, stays O(1) per page.
//! * [`Page::Dense`] — one `TagRef` per byte, entered only when a page
//!   actually diverges.
//!
//! Because a [`TagRef`] is a `Copy` handle into the session's
//! [`TagStore`], reads and writes never touch a refcount and range
//! unions skip runs of identical refs with O(1) equality checks.
//!
//! A forked process's shadow ([`Shadow::fork`]) shares its parent's
//! pages through the page table's copy-on-write directories: the first
//! write into a shared 4 MiB directory copies that directory alone.

use std::collections::BTreeSet;

use hth_vm::{Loc, PageTable, Reg, TaintOp, PAGE_SIZE as PAGE};

use crate::tag::{SourceId, TagRef, TagStore};

/// One 4 KiB shadow page.
#[derive(Clone, Debug)]
enum Page {
    /// Every byte carries this tag.
    Uniform(TagRef),
    /// Per-byte tags (the page has diverged).
    Dense(Box<[TagRef; PAGE as usize]>),
}

impl Page {
    /// Converts to the per-byte representation and returns it.
    fn densify(&mut self) -> &mut [TagRef; PAGE as usize] {
        if let Page::Uniform(t) = *self {
            *self = Page::Dense(dense(t));
        }
        match self {
            Page::Dense(bytes) => bytes,
            Page::Uniform(_) => unreachable!("just densified"),
        }
    }
}

/// A dense page with every byte set to `tag`.
fn dense(tag: TagRef) -> Box<[TagRef; PAGE as usize]> {
    vec![tag; PAGE as usize].into_boxed_slice().try_into().expect("one page of tags")
}

/// Per-process shadow register file and shadow memory.
///
/// All tags are handles into one [`TagStore`] (owned by the monitor and
/// shared across processes), so the store is passed into the operations
/// that combine tags. Unshadowed bytes read as untainted.
/// [`fork`](Shadow::fork) is the only way to copy a shadow.
#[derive(Debug, Default)]
pub struct Shadow {
    regs: [TagRef; 8],
    pages: PageTable<Page>,
}

impl Shadow {
    /// Fresh, fully-untainted shadow state.
    pub fn new() -> Shadow {
        Shadow::default()
    }

    /// The shadow of a forked child: the same register tags, and shadow
    /// pages shared with this shadow until either side writes.
    pub fn fork(&mut self) -> Shadow {
        Shadow { regs: self.regs, pages: self.pages.fork() }
    }

    /// Tag of a register.
    pub fn reg(&self, reg: Reg) -> TagRef {
        self.regs[reg.index()]
    }

    /// Sets a register's tag.
    pub fn set_reg(&mut self, reg: Reg, tag: TagRef) {
        self.regs[reg.index()] = tag;
    }

    /// Tag of one memory byte.
    pub fn byte(&self, addr: u32) -> TagRef {
        match self.pages.get(addr) {
            Some(Page::Uniform(t)) => *t,
            Some(Page::Dense(bytes)) => bytes[(addr % PAGE) as usize],
            None => TagRef::EMPTY,
        }
    }

    /// Sets one memory byte's tag.
    pub fn set_byte(&mut self, addr: u32, tag: TagRef) {
        let off = (addr % PAGE) as usize;
        if let Some(page) = self.pages.get_mut(addr) {
            match page {
                Page::Uniform(t) if *t == tag => {}
                _ => page.densify()[off] = tag,
            }
        } else if !tag.is_empty() {
            let mut bytes = dense(TagRef::EMPTY);
            bytes[off] = tag;
            *self.pages.slot(addr) = Some(Page::Dense(bytes));
        }
    }

    /// Union of the tags of `len` bytes starting at `addr`.
    ///
    /// Uniform pages contribute one union each; dense pages are scanned
    /// with run-skipping, so a run of identical refs costs one memoized
    /// union instead of one merge per byte.
    pub fn range(&self, addr: u32, len: u32, store: &mut TagStore) -> TagRef {
        let mut out = TagRef::EMPTY;
        let mut cur = addr;
        let mut rem = len;
        while rem > 0 {
            let off = cur % PAGE;
            let n = (PAGE - off).min(rem);
            match self.pages.get(cur) {
                None => {}
                Some(Page::Uniform(t)) => out = store.union(out, *t),
                Some(Page::Dense(bytes)) => {
                    let mut last = None;
                    for &t in &bytes[off as usize..(off + n) as usize] {
                        if Some(t) != last {
                            out = store.union(out, t);
                            last = Some(t);
                        }
                    }
                }
            }
            cur = cur.wrapping_add(n);
            rem -= n;
        }
        out
    }

    /// Sets `len` bytes to the same tag. Fully covered pages collapse to
    /// one uniform tag (or are dropped when clearing) without touching
    /// per-byte state.
    pub fn set_range(&mut self, addr: u32, len: u32, tag: TagRef) {
        let mut cur = addr;
        let mut rem = len;
        while rem > 0 {
            let off = cur % PAGE;
            let n = (PAGE - off).min(rem);
            if n == PAGE {
                if tag.is_empty() {
                    self.pages.remove(cur);
                } else {
                    *self.pages.slot(cur) = Some(Page::Uniform(tag));
                }
            } else if let Some(page) = self.pages.get_mut(cur) {
                match page {
                    Page::Uniform(t) if *t == tag => {}
                    _ => {
                        page.densify()[off as usize..(off + n) as usize].fill(tag);
                    }
                }
            } else if !tag.is_empty() {
                let mut bytes = dense(TagRef::EMPTY);
                bytes[off as usize..(off + n) as usize].fill(tag);
                *self.pages.slot(cur) = Some(Page::Dense(bytes));
            }
            cur = cur.wrapping_add(n);
            rem -= n;
        }
    }

    /// Clears `len` bytes.
    pub fn clear_range(&mut self, addr: u32, len: u32) {
        self.set_range(addr, len, TagRef::EMPTY);
    }

    /// Tag at a [`Loc`].
    pub fn read_loc(&self, loc: Loc, store: &mut TagStore) -> TagRef {
        match loc {
            Loc::Reg(r) => self.reg(r),
            Loc::Mem(addr, len) => self.range(addr, len, store),
        }
    }

    /// Sets the tag at a [`Loc`].
    pub fn write_loc(&mut self, loc: Loc, tag: TagRef) {
        match loc {
            Loc::Reg(r) => self.set_reg(r, tag),
            Loc::Mem(addr, len) => self.set_range(addr, len, tag),
        }
    }

    /// Applies one dataflow micro-op: destination tag becomes the union
    /// of the source tags, plus the executing image's `BINARY` tag for
    /// immediates and `HARDWARE` for `cpuid` (paper §7.3.1).
    pub fn apply(&mut self, op: &TaintOp, binary: TagRef, hardware: TagRef, store: &mut TagStore) {
        let mut tag = TagRef::EMPTY;
        for src in op.srcs.iter().flatten() {
            let t = self.read_loc(*src, store);
            tag = store.union(tag, t);
        }
        if op.imm {
            tag = store.union(tag, binary);
        }
        if op.hardware {
            tag = store.union(tag, hardware);
        }
        self.write_loc(op.dst, tag);
    }

    /// Read-only union of a range, rendered as sorted source ids.
    ///
    /// Unlike [`Shadow::range`] this never writes to the store's memo
    /// tables, so diagnostics on a shared `&` monitor stay possible.
    pub fn range_ids(&self, addr: u32, len: u32, store: &TagStore) -> Vec<SourceId> {
        let mut refs = BTreeSet::new();
        let mut cur = addr;
        let mut rem = len;
        while rem > 0 {
            let off = cur % PAGE;
            let n = (PAGE - off).min(rem);
            match self.pages.get(cur) {
                None => {}
                Some(Page::Uniform(t)) => {
                    refs.insert(*t);
                }
                Some(Page::Dense(bytes)) => {
                    refs.extend(bytes[off as usize..(off + n) as usize].iter().copied());
                }
            }
            cur = cur.wrapping_add(n);
            rem -= n;
        }
        let mut ids = BTreeSet::new();
        for r in refs {
            ids.extend(store.ids(r).iter().copied());
        }
        ids.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{DataSource, SourceTable};

    fn ids() -> (TagStore, TagRef, TagRef, TagRef) {
        let mut t = SourceTable::new();
        let b = t.intern(DataSource::binary("/bin/app"));
        let h = t.intern(DataSource::Hardware);
        let f = t.intern(DataSource::file("/f"));
        let mut store = TagStore::new();
        let (b, h, f) = (store.single(b), store.single(h), store.single(f));
        (store, b, h, f)
    }

    #[test]
    fn byte_and_range_round_trip() {
        let (mut store, b, _, f) = ids();
        let mut s = Shadow::new();
        s.set_range(0x1000, 4, f);
        s.set_byte(0x1002, b);
        assert_eq!(s.byte(0x1000), f);
        assert_eq!(s.byte(0x1002), b);
        let r = s.range(0x1000, 4, &mut store);
        let (fid, bid) = (store.ids(f)[0], store.ids(b)[0]);
        assert!(store.contains(r, fid) && store.contains(r, bid));
        assert!(s.byte(0x9999_9999).is_empty());
    }

    #[test]
    fn uniform_pages_stay_compact() {
        let (mut store, b, _, f) = ids();
        let mut s = Shadow::new();
        // A 3-page aligned fill: every page is Uniform, no Dense page.
        s.set_range(3 * PAGE, 3 * PAGE, f);
        assert!(s.pages.values().all(|p| matches!(p, Page::Uniform(_))));
        assert_eq!(s.range(3 * PAGE, 3 * PAGE, &mut store), f);
        // Clearing a full page frees it entirely.
        s.clear_range(3 * PAGE, PAGE);
        assert_eq!(s.pages.values().count(), 2);
        // A diverging byte densifies exactly one page.
        s.set_byte(4 * PAGE + 7, b);
        assert_eq!(s.pages.values().filter(|p| matches!(p, Page::Dense(_))).count(), 1);
    }

    #[test]
    fn range_spans_page_boundaries() {
        let (mut store, b, _, f) = ids();
        let mut s = Shadow::new();
        s.set_range(PAGE - 2, 4, f);
        s.set_byte(PAGE + 1, b);
        let r = s.range(PAGE - 2, 4, &mut store);
        assert_eq!(store.ids(r).len(), 2);
        assert_eq!(s.range_ids(PAGE - 2, 4, &store), store.ids(r));
    }

    #[test]
    fn mov_propagates_and_imm_tags_binary() {
        let (mut store, b, h, f) = ids();
        let mut s = Shadow::new();
        s.set_reg(Reg::Ebx, f);
        // mov eax, ebx
        s.apply(
            &TaintOp {
                dst: Loc::Reg(Reg::Eax),
                srcs: [Some(Loc::Reg(Reg::Ebx)), None],
                imm: false,
                hardware: false,
            },
            b,
            h,
            &mut store,
        );
        assert_eq!(s.reg(Reg::Eax), f);
        // mov ecx, 5 (immediate)
        s.apply(
            &TaintOp { dst: Loc::Reg(Reg::Ecx), srcs: [None, None], imm: true, hardware: false },
            b,
            h,
            &mut store,
        );
        assert_eq!(s.reg(Reg::Ecx), b);
    }

    #[test]
    fn alu_unions_sources() {
        let (mut store, b, h, f) = ids();
        let mut s = Shadow::new();
        s.set_reg(Reg::Eax, f);
        s.set_reg(Reg::Ebx, h);
        // add eax, ebx — eax gets both.
        s.apply(
            &TaintOp {
                dst: Loc::Reg(Reg::Eax),
                srcs: [Some(Loc::Reg(Reg::Eax)), Some(Loc::Reg(Reg::Ebx))],
                imm: false,
                hardware: false,
            },
            b,
            h,
            &mut store,
        );
        let out = s.reg(Reg::Eax);
        let (fid, hid) = (store.ids(f)[0], store.ids(h)[0]);
        assert!(store.contains(out, fid) && store.contains(out, hid));
    }

    #[test]
    fn clear_breaks_dependence() {
        let (mut store, b, h, f) = ids();
        let mut s = Shadow::new();
        s.set_reg(Reg::Eax, f);
        s.apply(
            &TaintOp { dst: Loc::Reg(Reg::Eax), srcs: [None, None], imm: false, hardware: false },
            b,
            h,
            &mut store,
        );
        assert!(s.reg(Reg::Eax).is_empty());
    }

    #[test]
    fn memory_loc_width_respected() {
        let (mut store, b, h, f) = ids();
        let mut s = Shadow::new();
        s.set_reg(Reg::Eax, f);
        s.apply(
            &TaintOp {
                dst: Loc::Mem(0x2000, 4),
                srcs: [Some(Loc::Reg(Reg::Eax)), None],
                imm: false,
                hardware: false,
            },
            b,
            h,
            &mut store,
        );
        assert_eq!(s.byte(0x2003), f);
        assert!(s.byte(0x2004).is_empty());
    }
}
