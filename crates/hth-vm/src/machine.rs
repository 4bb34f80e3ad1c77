//! The interpreter core: CPU state, execution, and monitor hooks.
//!
//! `Core` plays the role Pin plays in the paper: it executes the program
//! while exposing instrumentation at every granularity of Table 3 —
//! instruction (`on_instr` + `on_taint`), basic block (`on_bb`), routine
//! (`on_call`/`on_ret`), and image (loading is observable through
//! [`Core::images`]). The dataflow micro-ops ([`TaintOp`]) describe
//! exactly which locations each instruction read and wrote, so the
//! monitor above never has to re-implement instruction semantics.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::image::{Image, ImageId};
use crate::isa::{AluOp, Cond, Instr, MemRef, Operand, Reg, Target};
use crate::mem::{MemFault, Memory};

/// Condition flags (subset of EFLAGS).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag.
    pub cf: bool,
    /// Overflow flag.
    pub of: bool,
}

/// Architectural CPU state.
#[derive(Clone, Debug, Default)]
pub struct Cpu {
    /// General-purpose register file, indexed by [`Reg::index`].
    pub regs: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Condition flags.
    pub flags: Flags,
}

impl Cpu {
    /// Reads a register.
    pub fn get(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes a register.
    pub fn set(&mut self, reg: Reg, value: u32) {
        self.regs[reg.index()] = value;
    }
}

/// A taint location: a whole register or a span of memory bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// Register (tracked as a unit).
    Reg(Reg),
    /// Memory bytes `[addr, addr+len)` (tracked per byte).
    Mem(u32, u32),
}

/// A dataflow micro-op: `dst := union(srcs) [∪ BINARY] [∪ HARDWARE]`.
///
/// With no sources and no flags the destination's taint is *cleared*
/// (e.g. `xor eax, eax`, the canonical zeroing idiom).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaintOp {
    /// Destination location.
    pub dst: Loc,
    /// Up to two source locations whose tags flow into `dst`.
    pub srcs: [Option<Loc>; 2],
    /// Union in the executing image's `BINARY` source (immediates).
    pub imm: bool,
    /// Union in the `HARDWARE` source (`cpuid`).
    pub hardware: bool,
}

impl TaintOp {
    fn mov(dst: Loc, src: Loc) -> TaintOp {
        TaintOp { dst, srcs: [Some(src), None], imm: false, hardware: false }
    }

    fn imm(dst: Loc) -> TaintOp {
        TaintOp { dst, srcs: [None, None], imm: true, hardware: false }
    }

    fn clear(dst: Loc) -> TaintOp {
        TaintOp { dst, srcs: [None, None], imm: false, hardware: false }
    }

    fn hardware(dst: Loc) -> TaintOp {
        TaintOp { dst, srcs: [None, None], imm: false, hardware: true }
    }
}

/// Monitor callbacks. All methods default to no-ops so a partial monitor
/// (e.g. syscall-only, for the §9 overhead ablation) implements only what
/// it needs.
pub trait Hooks {
    /// Entering the basic block whose leader is `leader` in `image`.
    fn on_bb(&mut self, image: ImageId, leader: u32) {
        let _ = (image, leader);
    }

    /// About to execute `instr` at `addr` inside `image`.
    fn on_instr(&mut self, image: ImageId, addr: u32, instr: &Instr) {
        let _ = (image, addr, instr);
    }

    /// Dataflow effect of the instruction just executed.
    fn on_taint(&mut self, image: ImageId, op: &TaintOp) {
        let _ = (image, op);
    }

    /// A `call` transferred control; `symbol` is set when the target is
    /// an exported routine (routine-granularity instrumentation).
    fn on_call(
        &mut self,
        from_image: ImageId,
        to_image: ImageId,
        target: u32,
        symbol: Option<&Arc<str>>,
    ) {
        let _ = (from_image, to_image, target, symbol);
    }

    /// A `ret` transferred control back to `to_addr`.
    fn on_ret(&mut self, to_image: ImageId, to_addr: u32) {
        let _ = (to_image, to_addr);
    }
}

/// The no-op monitor: native-speed baseline for the overhead ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullHooks;

impl Hooks for NullHooks {}

/// Execution faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Data access to unmapped memory.
    Fault(MemFault),
    /// Instruction fetch from an address outside every image's text, or
    /// between two of its instructions.
    NoText(u32),
    /// Control transfer through an extern that the loader never resolved.
    UnresolvedExtern(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fault(fault) => write!(f, "{fault}"),
            VmError::NoText(addr) => write!(f, "instruction fetch outside text at {addr:#010x}"),
            VmError::UnresolvedExtern(sym) => write!(f, "unresolved external symbol `{sym}`"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<MemFault> for VmError {
    fn from(fault: MemFault) -> VmError {
        VmError::Fault(fault)
    }
}

/// Outcome of one [`Core::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// Instruction retired normally.
    Continue,
    /// `int n` executed (0x80 = syscall); the OS layer must service it.
    Interrupt(u8),
    /// `hlt` executed.
    Halted,
}

/// An execution core: CPU + memory + loaded images.
///
/// ```
/// use hth_vm::{asm, Core, NullHooks, StepEvent};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let img = asm::assemble("/bin/demo", "_start:\n mov eax, 7\n hlt\n", 0x0804_8000)?;
/// let mut core = Core::new();
/// core.load_image(img);
/// core.link()?;
/// core.start();
/// let mut hooks = NullHooks;
/// assert_eq!(core.step(&mut hooks)?, StepEvent::Continue);
/// assert_eq!(core.step(&mut hooks)?, StepEvent::Halted);
/// assert_eq!(core.cpu.get(hth_vm::Reg::Eax), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Core {
    /// Architectural state.
    pub cpu: Cpu,
    /// The address space.
    pub mem: Memory,
    images: Vec<Image>,
    symbol_at: HashMap<u32, Arc<str>>,
    cpuid_values: [u32; 4],
    instret: u64,
    last_image: usize,
}

impl Default for Core {
    fn default() -> Core {
        Core::new()
    }
}

impl Core {
    /// Creates an empty core.
    pub fn new() -> Core {
        Core {
            cpu: Cpu::default(),
            mem: Memory::new(),
            images: Vec::new(),
            symbol_at: HashMap::new(),
            cpuid_values: [0x0000_0001, 0x4854_4856, 0x4d56_5f48, 0x2056_3130],
            instret: 0,
            last_image: 0,
        }
    }

    /// The core of a forked child: the same registers, images and
    /// symbols, and an address space that shares its pages with this
    /// one until either side writes ([`Memory::fork`]).
    pub fn fork(&mut self) -> Core {
        Core {
            cpu: self.cpu.clone(),
            mem: self.mem.fork(),
            images: self.images.clone(),
            symbol_at: self.symbol_at.clone(),
            cpuid_values: self.cpuid_values,
            instret: self.instret,
            last_image: self.last_image,
        }
    }

    /// Overrides the values `cpuid` loads into eax..edx.
    pub fn set_cpuid(&mut self, values: [u32; 4]) {
        self.cpuid_values = values;
    }

    /// Loads an image: maps and copies its data section, indexes its
    /// exported symbols. Returns the image id.
    pub fn load_image(&mut self, image: Image) -> ImageId {
        let id = ImageId(self.images.len() as u32);
        if !image.data().is_empty() {
            self.mem.map(image.data_base(), image.data_end());
            self.mem
                .write_bytes(image.data_base(), image.data())
                .expect("freshly mapped data range");
        }
        for (sym, addr) in image.exports() {
            self.symbol_at.insert(*addr, sym.clone());
        }
        self.images.push(image);
        id
    }

    /// Resolves every pending extern reference against the exported
    /// symbols of all loaded images (dynamic linking).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnresolvedExtern`] naming the first symbol that
    /// no loaded image exports.
    pub fn link(&mut self) -> Result<(), VmError> {
        let mut exports: HashMap<Arc<str>, u32> = HashMap::new();
        for image in &self.images {
            for (sym, addr) in image.exports() {
                exports.entry(sym.clone()).or_insert(*addr);
            }
        }
        for image in &mut self.images {
            let fixups: Vec<(usize, Arc<str>)> = image.externs().to_vec();
            for (idx, sym) in fixups {
                let addr =
                    *exports.get(&sym).ok_or_else(|| VmError::UnresolvedExtern(sym.to_string()))?;
                match &mut image.text_mut()[idx] {
                    Instr::Call(t) | Instr::Jmp(t) | Instr::J(_, t) => *t = Target::Abs(addr),
                    other => panic!("extern fixup on non-branch {other:?}"),
                }
            }
            image.clear_externs();
        }
        Ok(())
    }

    /// Loaded images in load order.
    pub fn images(&self) -> &[Image] {
        &self.images
    }

    /// The image containing text address `addr`.
    pub fn image_at(&self, addr: u32) -> Option<(ImageId, &Image)> {
        let idx = self.find_image_idx(addr)?;
        Some((ImageId(idx as u32), &self.images[idx]))
    }

    fn find_image_idx(&self, addr: u32) -> Option<usize> {
        if let Some(img) = self.images.get(self.last_image) {
            if img.contains_text(addr) {
                return Some(self.last_image);
            }
        }
        self.images.iter().position(|img| img.contains_text(addr))
    }

    /// Exported symbol starting exactly at `addr`, if any.
    pub fn symbol_at(&self, addr: u32) -> Option<&Arc<str>> {
        self.symbol_at.get(&addr)
    }

    /// Points `eip` at the first image's entry. Stack setup is the OS
    /// layer's job.
    ///
    /// # Panics
    ///
    /// Panics when no image is loaded.
    pub fn start(&mut self) {
        self.cpu.eip = self.images.first().expect("no image loaded").entry();
    }

    /// Instructions retired so far (drives the virtual clock).
    pub fn instret(&self) -> u64 {
        self.instret
    }

    // ---- operand plumbing -------------------------------------------------

    fn ea(&self, m: &MemRef) -> u32 {
        let mut addr = m.disp as u32;
        if let Some(b) = m.base {
            addr = addr.wrapping_add(self.cpu.get(b));
        }
        if let Some(i) = m.index {
            addr = addr.wrapping_add(self.cpu.get(i));
        }
        addr
    }

    /// Reads an operand; returns the value and its taint source (None for
    /// immediates — the caller marks those `imm`).
    fn read(&self, op: &Operand, width: u32) -> Result<(u32, Option<Loc>), VmError> {
        Ok(match op {
            Operand::Reg(r) => (self.cpu.get(*r), Some(Loc::Reg(*r))),
            Operand::Imm(v) => (*v, None),
            Operand::Mem(m) => {
                let addr = self.ea(m);
                let value = if width == 1 {
                    u32::from(self.mem.read_u8(addr)?)
                } else {
                    self.mem.read_u32(addr)?
                };
                (value, Some(Loc::Mem(addr, width)))
            }
        })
    }

    /// Writes an operand; returns the destination taint location.
    fn write(&mut self, op: &Operand, value: u32, width: u32) -> Result<Loc, VmError> {
        Ok(match op {
            Operand::Reg(r) => {
                self.cpu.set(*r, value);
                Loc::Reg(*r)
            }
            Operand::Imm(_) => panic!("immediate as destination (assembler bug)"),
            Operand::Mem(m) => {
                let addr = self.ea(m);
                if width == 1 {
                    self.mem.write_u8(addr, value as u8)?;
                } else {
                    self.mem.write_u32(addr, value)?;
                }
                Loc::Mem(addr, width)
            }
        })
    }

    fn set_flags_logic(&mut self, result: u32) {
        self.cpu.flags.zf = result == 0;
        self.cpu.flags.sf = (result as i32) < 0;
        self.cpu.flags.cf = false;
        self.cpu.flags.of = false;
    }

    fn set_flags_add(&mut self, a: u32, b: u32, result: u32) {
        self.cpu.flags.zf = result == 0;
        self.cpu.flags.sf = (result as i32) < 0;
        self.cpu.flags.cf = (u64::from(a) + u64::from(b)) > u64::from(u32::MAX);
        self.cpu.flags.of = ((a ^ result) & (b ^ result) & 0x8000_0000) != 0;
    }

    fn set_flags_sub(&mut self, a: u32, b: u32, result: u32) {
        self.cpu.flags.zf = result == 0;
        self.cpu.flags.sf = (result as i32) < 0;
        self.cpu.flags.cf = a < b;
        self.cpu.flags.of = ((a ^ b) & (a ^ result) & 0x8000_0000) != 0;
    }

    fn cond(&self, c: Cond) -> bool {
        let f = self.cpu.flags;
        match c {
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::L => f.sf != f.of,
            Cond::Le => f.zf || f.sf != f.of,
            Cond::G => !f.zf && f.sf == f.of,
            Cond::Ge => f.sf == f.of,
            Cond::B => f.cf,
            Cond::Be => f.cf || f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::Ae => !f.cf,
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
        }
    }

    // ---- execution ---------------------------------------------------------

    /// Executes one instruction under the given monitor hooks. Generic
    /// over the hooks so a concrete monitor's callbacks are inlined;
    /// `&mut dyn Hooks` works too.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] when the program faults (unmapped access,
    /// wild jump, unresolved extern). Faults model the monitored program
    /// crashing, not a monitor failure.
    pub fn step<H: Hooks + ?Sized>(&mut self, hooks: &mut H) -> Result<StepEvent, VmError> {
        let eip = self.cpu.eip;
        let image_idx = self.find_image_idx(eip).ok_or(VmError::NoText(eip))?;
        self.last_image = image_idx;
        let image_id = ImageId(image_idx as u32);
        let (instr, is_leader) = self.images[image_idx].fetch(eip).ok_or(VmError::NoText(eip))?;
        let instr = instr.clone();
        if is_leader {
            hooks.on_bb(image_id, eip);
        }
        hooks.on_instr(image_id, eip, &instr);
        self.instret += 1;
        let next = eip.wrapping_add(4);
        self.cpu.eip = next;

        match &instr {
            Instr::Nop => {}
            Instr::Hlt => return Ok(StepEvent::Halted),
            Instr::Int(n) => return Ok(StepEvent::Interrupt(*n)),
            Instr::Mov(dst, src) | Instr::MovB(dst, src) => {
                let width = if matches!(instr, Instr::MovB(..)) { 1 } else { 4 };
                let (value, src_loc) = self.read(src, width)?;
                let dst_loc = self.write(dst, value, width)?;
                let op = match src_loc {
                    Some(loc) => TaintOp::mov(dst_loc, loc),
                    None => TaintOp::imm(dst_loc),
                };
                hooks.on_taint(image_id, &op);
            }
            Instr::Lea(reg, m) => {
                let addr = self.ea(m);
                self.cpu.set(*reg, addr);
                let srcs = [m.base.map(Loc::Reg), m.index.map(Loc::Reg)];
                hooks.on_taint(
                    image_id,
                    &TaintOp { dst: Loc::Reg(*reg), srcs, imm: true, hardware: false },
                );
            }
            Instr::Alu(op, dst, src) => {
                // `xor x, x` zeroes and breaks the dataflow dependency.
                if *op == AluOp::Xor && dst == src {
                    let dst_loc = self.write(dst, 0, 4)?;
                    self.set_flags_logic(0);
                    hooks.on_taint(image_id, &TaintOp::clear(dst_loc));
                } else {
                    let (a, dst_src_loc) = self.read(dst, 4)?;
                    let (b, src_loc) = self.read(src, 4)?;
                    let result = match op {
                        AluOp::Add => {
                            let r = a.wrapping_add(b);
                            self.set_flags_add(a, b, r);
                            r
                        }
                        AluOp::Sub => {
                            let r = a.wrapping_sub(b);
                            self.set_flags_sub(a, b, r);
                            r
                        }
                        AluOp::And => {
                            let r = a & b;
                            self.set_flags_logic(r);
                            r
                        }
                        AluOp::Or => {
                            let r = a | b;
                            self.set_flags_logic(r);
                            r
                        }
                        AluOp::Xor => {
                            let r = a ^ b;
                            self.set_flags_logic(r);
                            r
                        }
                        AluOp::Imul => {
                            let r = (a as i32).wrapping_mul(b as i32) as u32;
                            self.set_flags_logic(r);
                            r
                        }
                        AluOp::Shl => {
                            let r = a.wrapping_shl(b & 31);
                            self.set_flags_logic(r);
                            r
                        }
                        AluOp::Shr => {
                            let r = a.wrapping_shr(b & 31);
                            self.set_flags_logic(r);
                            r
                        }
                    };
                    let dst_loc = self.write(dst, result, 4)?;
                    hooks.on_taint(
                        image_id,
                        &TaintOp {
                            dst: dst_loc,
                            srcs: [dst_src_loc, src_loc],
                            imm: src_loc.is_none(),
                            hardware: false,
                        },
                    );
                }
            }
            Instr::Cmp(a, b) => {
                let (va, _) = self.read(a, 4)?;
                let (vb, _) = self.read(b, 4)?;
                let r = va.wrapping_sub(vb);
                self.set_flags_sub(va, vb, r);
            }
            Instr::Test(a, b) => {
                let (va, _) = self.read(a, 4)?;
                let (vb, _) = self.read(b, 4)?;
                self.set_flags_logic(va & vb);
            }
            Instr::Inc(x) | Instr::Dec(x) => {
                let (v, src_loc) = self.read(x, 4)?;
                let r = if matches!(instr, Instr::Inc(_)) {
                    v.wrapping_add(1)
                } else {
                    v.wrapping_sub(1)
                };
                self.cpu.flags.zf = r == 0;
                self.cpu.flags.sf = (r as i32) < 0;
                let dst_loc = self.write(x, r, 4)?;
                hooks.on_taint(
                    image_id,
                    &TaintOp { dst: dst_loc, srcs: [src_loc, None], imm: true, hardware: false },
                );
            }
            Instr::Neg(x) | Instr::NotOp(x) => {
                let (v, src_loc) = self.read(x, 4)?;
                let r = if matches!(instr, Instr::Neg(_)) { v.wrapping_neg() } else { !v };
                self.cpu.flags.zf = r == 0;
                self.cpu.flags.sf = (r as i32) < 0;
                let dst_loc = self.write(x, r, 4)?;
                hooks.on_taint(
                    image_id,
                    &TaintOp { dst: dst_loc, srcs: [src_loc, None], imm: false, hardware: false },
                );
            }
            Instr::Push(src) => {
                let (value, src_loc) = self.read(src, 4)?;
                let esp = self.cpu.get(Reg::Esp).wrapping_sub(4);
                self.cpu.set(Reg::Esp, esp);
                self.mem.write_u32(esp, value)?;
                let op = match src_loc {
                    Some(loc) => TaintOp::mov(Loc::Mem(esp, 4), loc),
                    None => TaintOp::imm(Loc::Mem(esp, 4)),
                };
                hooks.on_taint(image_id, &op);
            }
            Instr::Pop(dst) => {
                let esp = self.cpu.get(Reg::Esp);
                let value = self.mem.read_u32(esp)?;
                self.cpu.set(Reg::Esp, esp.wrapping_add(4));
                let dst_loc = self.write(dst, value, 4)?;
                hooks.on_taint(image_id, &TaintOp::mov(dst_loc, Loc::Mem(esp, 4)));
            }
            Instr::Jmp(t) => {
                self.cpu.eip = self.resolve_target(t)?;
            }
            Instr::J(c, t) => {
                if self.cond(*c) {
                    self.cpu.eip = self.resolve_target(t)?;
                }
            }
            Instr::Call(t) => {
                let target = self.resolve_target(t)?;
                let esp = self.cpu.get(Reg::Esp).wrapping_sub(4);
                self.cpu.set(Reg::Esp, esp);
                self.mem.write_u32(esp, next)?;
                hooks.on_taint(image_id, &TaintOp::clear(Loc::Mem(esp, 4)));
                self.cpu.eip = target;
                let to_image =
                    self.image_at(target).map(|(id, _)| id).ok_or(VmError::NoText(target))?;
                let symbol = self.symbol_at.get(&target).cloned();
                hooks.on_call(image_id, to_image, target, symbol.as_ref());
            }
            Instr::Ret => {
                let esp = self.cpu.get(Reg::Esp);
                let ret = self.mem.read_u32(esp)?;
                self.cpu.set(Reg::Esp, esp.wrapping_add(4));
                self.cpu.eip = ret;
                let to_image = self.image_at(ret).map(|(id, _)| id).ok_or(VmError::NoText(ret))?;
                hooks.on_ret(to_image, ret);
            }
            Instr::Movsb => {
                let src = self.cpu.get(Reg::Esi);
                let dst = self.cpu.get(Reg::Edi);
                let byte = self.mem.read_u8(src)?;
                self.mem.write_u8(dst, byte)?;
                self.cpu.set(Reg::Esi, src.wrapping_add(1));
                self.cpu.set(Reg::Edi, dst.wrapping_add(1));
                hooks.on_taint(image_id, &TaintOp::mov(Loc::Mem(dst, 1), Loc::Mem(src, 1)));
            }
            Instr::Loop(t) => {
                let ecx = self.cpu.get(Reg::Ecx).wrapping_sub(1);
                self.cpu.set(Reg::Ecx, ecx);
                hooks.on_taint(
                    image_id,
                    &TaintOp {
                        dst: Loc::Reg(Reg::Ecx),
                        srcs: [Some(Loc::Reg(Reg::Ecx)), None],
                        imm: true,
                        hardware: false,
                    },
                );
                if ecx != 0 {
                    self.cpu.eip = self.resolve_target(t)?;
                }
            }
            Instr::Cpuid => {
                for (i, reg) in [Reg::Eax, Reg::Ebx, Reg::Ecx, Reg::Edx].into_iter().enumerate() {
                    self.cpu.set(reg, self.cpuid_values[i]);
                    hooks.on_taint(image_id, &TaintOp::hardware(Loc::Reg(reg)));
                }
            }
        }
        Ok(StepEvent::Continue)
    }

    fn resolve_target(&self, t: &Target) -> Result<u32, VmError> {
        match t {
            Target::Abs(a) => Ok(*a),
            Target::Extern(sym) => Err(VmError::UnresolvedExtern(sym.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_source(src: &str) -> (Core, Vec<StepEvent>) {
        let img = assemble("/bin/t", src, 0x0804_8000).unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        // A tiny stack for push/pop tests.
        core.mem.map(0xbfff_0000, 0xc000_0000);
        core.cpu.set(Reg::Esp, 0xbfff_f000);
        let mut events = Vec::new();
        let mut hooks = NullHooks;
        for _ in 0..10_000 {
            let ev = core.step(&mut hooks).unwrap();
            events.push(ev);
            if ev == StepEvent::Halted {
                break;
            }
        }
        (core, events)
    }

    #[test]
    fn arithmetic_and_flags() {
        let (core, _) = run_source(
            r"
            _start:
                mov eax, 10
                sub eax, 3
                imul eax, 6
                add eax, 2
                hlt
            ",
        );
        assert_eq!(core.cpu.get(Reg::Eax), 44);
    }

    #[test]
    fn loop_with_counter() {
        let (core, _) = run_source(
            r"
            _start:
                mov ecx, 5
                xor eax, eax
            loop:
                add eax, ecx
                dec ecx
                cmp ecx, 0
                jne loop
                hlt
            ",
        );
        assert_eq!(core.cpu.get(Reg::Eax), 15);
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        let (core, _) = run_source(
            r"
            _start:
                mov eax, -1
                cmp eax, 1
                jl signed_less     ; -1 < 1 signed
                mov ebx, 0
                hlt
            signed_less:
                mov ebx, 1
                cmp eax, 1         ; 0xffffffff > 1 unsigned
                ja unsigned_above
                hlt
            unsigned_above:
                mov ecx, 1
                hlt
            ",
        );
        assert_eq!(core.cpu.get(Reg::Ebx), 1);
        assert_eq!(core.cpu.get(Reg::Ecx), 1);
    }

    #[test]
    fn call_and_ret() {
        let (core, _) = run_source(
            r"
            _start:
                call fn
                add eax, 1
                hlt
            fn:
                mov eax, 41
                ret
            ",
        );
        assert_eq!(core.cpu.get(Reg::Eax), 42);
    }

    #[test]
    fn push_pop_round_trip() {
        let (core, _) = run_source(
            r"
            _start:
                mov eax, 123
                push eax
                mov eax, 0
                pop ebx
                hlt
            ",
        );
        assert_eq!(core.cpu.get(Reg::Ebx), 123);
    }

    #[test]
    fn data_section_access() {
        let (core, _) = run_source(
            r"
            _start:
                mov eax, [value]
                movb ebx, [bytes+1]
                hlt
            .data
            value: .long 7
            bytes: .byte 1, 2, 3
            ",
        );
        assert_eq!(core.cpu.get(Reg::Eax), 7);
        assert_eq!(core.cpu.get(Reg::Ebx), 2);
    }

    #[test]
    fn interrupt_surfaces_to_caller() {
        let (_, events) = run_source("_start:\n mov eax, 1\n int 0x80\n hlt\n");
        assert_eq!(events[1], StepEvent::Interrupt(0x80));
    }

    #[test]
    fn cpuid_sets_registers() {
        let img = assemble("/bin/t", "_start:\n cpuid\n hlt\n", 0).unwrap();
        let mut core = Core::new();
        core.set_cpuid([1, 2, 3, 4]);
        core.load_image(img);
        core.link().unwrap();
        core.start();
        let mut taints = Vec::new();
        struct Rec<'a>(&'a mut Vec<TaintOp>);
        impl Hooks for Rec<'_> {
            fn on_taint(&mut self, _: ImageId, op: &TaintOp) {
                self.0.push(*op);
            }
        }
        core.step(&mut Rec(&mut taints)).unwrap();
        assert_eq!(core.cpu.get(Reg::Eax), 1);
        assert_eq!(core.cpu.get(Reg::Edx), 4);
        assert_eq!(taints.len(), 4);
        assert!(taints.iter().all(|t| t.hardware));
    }

    #[test]
    fn unmapped_access_is_a_fault() {
        let img = assemble("/bin/t", "_start:\n mov eax, [0x10]\n hlt\n", 0x1000).unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        assert!(matches!(core.step(&mut NullHooks), Err(VmError::Fault(_))));
    }

    #[test]
    fn wild_jump_is_no_text() {
        let img = assemble("/bin/t", "_start:\n jmp 0x99999000\n", 0x1000).unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        core.step(&mut NullHooks).unwrap();
        assert!(matches!(core.step(&mut NullHooks), Err(VmError::NoText(0x9999_9000))));
    }

    #[test]
    fn misaligned_jump_is_no_text() {
        let img = assemble("/bin/t", "_start:\n jmp 0x1002\n hlt\n", 0x1000).unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        core.step(&mut NullHooks).unwrap();
        assert!(matches!(core.step(&mut NullHooks), Err(VmError::NoText(0x1002))));
    }

    #[test]
    fn cross_image_call_via_extern() {
        let app =
            assemble("/bin/app", ".extern helper\n_start:\n call helper\n hlt\n", 0x0804_8000)
                .unwrap();
        let lib = assemble("libc.so", ".global helper\nhelper:\n mov eax, 99\n ret\n", 0x4000_0000)
            .unwrap();
        let mut core = Core::new();
        core.load_image(app);
        core.load_image(lib);
        core.link().unwrap();
        core.start();
        core.mem.map(0xbfff_0000, 0xc000_0000);
        core.cpu.set(Reg::Esp, 0xbfff_f000);

        struct CallRec(Vec<(ImageId, ImageId, Option<String>)>);
        impl Hooks for CallRec {
            fn on_call(
                &mut self,
                from: ImageId,
                to: ImageId,
                _target: u32,
                symbol: Option<&Arc<str>>,
            ) {
                self.0.push((from, to, symbol.map(|s| s.to_string())));
            }
        }
        let mut hooks = CallRec(Vec::new());
        while core.step(&mut hooks).unwrap() == StepEvent::Continue {}
        assert_eq!(core.cpu.get(Reg::Eax), 99);
        assert_eq!(hooks.0.len(), 1);
        let (from, to, sym) = &hooks.0[0];
        assert_eq!(from, &ImageId(0));
        assert_eq!(to, &ImageId(1));
        assert_eq!(sym.as_deref(), Some("helper"));
    }

    #[test]
    fn missing_extern_fails_at_link() {
        let app = assemble("/bin/app", ".extern nope\n_start:\n call nope\n hlt\n", 0).unwrap();
        let mut core = Core::new();
        core.load_image(app);
        assert!(matches!(core.link(), Err(VmError::UnresolvedExtern(_))));
    }

    #[test]
    fn xor_self_clears_taint() {
        let img = assemble("/bin/t", "_start:\n xor eax, eax\n hlt\n", 0).unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        struct Rec(Vec<TaintOp>);
        impl Hooks for Rec {
            fn on_taint(&mut self, _: ImageId, op: &TaintOp) {
                self.0.push(*op);
            }
        }
        let mut hooks = Rec(Vec::new());
        core.step(&mut hooks).unwrap();
        assert_eq!(hooks.0[0], TaintOp::clear(Loc::Reg(Reg::Eax)));
    }

    #[test]
    fn bb_hook_fires_on_leaders_only() {
        let img = assemble(
            "/bin/t",
            "_start:\n mov eax, 1\n jmp next\nnext:\n mov ebx, 2\n hlt\n",
            0x1000,
        )
        .unwrap();
        let mut core = Core::new();
        core.load_image(img);
        core.link().unwrap();
        core.start();
        struct Bb(Vec<u32>);
        impl Hooks for Bb {
            fn on_bb(&mut self, _: ImageId, leader: u32) {
                self.0.push(leader);
            }
        }
        let mut hooks = Bb(Vec::new());
        while core.step(&mut hooks).unwrap() == StepEvent::Continue {}
        assert_eq!(hooks.0, vec![0x1000, 0x1008]);
    }
}
