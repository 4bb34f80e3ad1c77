//! Loadable images: the output of the assembler, the input of the loader.

use std::collections::HashMap;
use std::sync::Arc;

use crate::isa::Instr;

/// Identifier of a loaded image within one address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u32);

/// A relocated, loadable program image — the "binary" the monitor tags
/// with the `BINARY` data source when it is mapped.
#[derive(Clone, Debug)]
pub struct Image {
    name: Arc<str>,
    text_base: u32,
    text: Vec<Instr>,
    data_base: u32,
    data: Vec<u8>,
    entry: u32,
    exports: HashMap<Arc<str>, u32>,
    /// Instruction indexes whose `Call`/`Jmp` target is an unresolved
    /// external symbol, with the symbol name (patched at load time).
    externs: Vec<(usize, Arc<str>)>,
    bb_leaders: Vec<u32>,
    /// Per text index: does that instruction start a basic block?
    is_leader: Vec<bool>,
}

impl Image {
    /// Assembles an image from parts; used by the assembler.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: &str,
        text_base: u32,
        text: Vec<Instr>,
        data_base: u32,
        data: Vec<u8>,
        entry: u32,
        exports: HashMap<Arc<str>, u32>,
        externs: Vec<(usize, Arc<str>)>,
    ) -> Image {
        let bb_leaders = crate::bb::find_leaders(text_base, &text);
        let mut is_leader = vec![false; text.len()];
        for &leader in &bb_leaders {
            is_leader[((leader - text_base) / 4) as usize] = true;
        }
        Image {
            name: Arc::from(name),
            text_base,
            text,
            data_base,
            data,
            entry,
            exports,
            externs,
            bb_leaders,
            is_leader,
        }
    }

    /// Image name (e.g. `/bin/app`, `libc.so`). This is the string that
    /// shows up in `BINARY` data-source tags.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// First text address.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// One past the last text address.
    pub fn text_end(&self) -> u32 {
        self.text_base + 4 * self.text.len() as u32
    }

    /// Instructions in address order.
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// Mutable access for link-time patching of extern targets.
    pub(crate) fn text_mut(&mut self) -> &mut [Instr] {
        &mut self.text
    }

    /// Unresolved external references.
    pub fn externs(&self) -> &[(usize, Arc<str>)] {
        &self.externs
    }

    /// Clears extern records once patched.
    pub(crate) fn clear_externs(&mut self) {
        self.externs.clear();
    }

    /// Address of the instruction at text index `idx`.
    pub fn addr_of(&self, idx: usize) -> u32 {
        self.text_base + 4 * idx as u32
    }

    /// Text index of the instruction at `addr`, if it lies inside this
    /// image's text.
    fn index_of(&self, addr: u32) -> Option<usize> {
        if addr < self.text_base
            || addr >= self.text_end()
            || !(addr - self.text_base).is_multiple_of(4)
        {
            return None;
        }
        Some(((addr - self.text_base) / 4) as usize)
    }

    /// Instruction at `addr`, if it lies inside this image's text.
    pub fn instr_at(&self, addr: u32) -> Option<&Instr> {
        self.text.get(self.index_of(addr)?)
    }

    /// Instruction at `addr` and whether it starts a basic block, if
    /// `addr` lies inside this image's text.
    pub(crate) fn fetch(&self, addr: u32) -> Option<(&Instr, bool)> {
        let idx = self.index_of(addr)?;
        Some((&self.text[idx], self.is_leader[idx]))
    }

    /// Base address of the initialised data section.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// Initialised data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// One past the last data address.
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data.len() as u32
    }

    /// Entry point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Exported (`.global`) symbols.
    pub fn exports(&self) -> &HashMap<Arc<str>, u32> {
        &self.exports
    }

    /// Addresses that start a basic block, ascending.
    pub fn bb_leaders(&self) -> &[u32] {
        &self.bb_leaders
    }

    /// True when `addr` is inside this image's text section.
    pub fn contains_text(&self, addr: u32) -> bool {
        addr >= self.text_base && addr < self.text_end()
    }
}
