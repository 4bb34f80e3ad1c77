//! # hth-vm — the execution substrate under Harrier
//!
//! The HTH paper builds its monitor on Intel Pin instrumenting real x86
//! Linux binaries. This crate is the substitute substrate: a small
//! 32-bit x86-flavoured ISA with
//!
//! * a **text assembler** ([`asm::assemble`]) so workloads are written as
//!   assembly programs, exactly like the paper's micro-benchmarks,
//! * **loadable images** with exported symbols and load-time resolution
//!   of `.extern` references (dynamic linking of a toy `libc.so`),
//! * an **interpreter** ([`Core`]) that exposes monitor hooks at every
//!   granularity of the paper's Table 3 — instruction, basic block,
//!   routine (call/ret), and image — plus per-instruction **dataflow
//!   micro-ops** ([`TaintOp`]) that tell the monitor exactly which
//!   registers and memory bytes each instruction read and wrote, and
//! * `int 0x80` syscall surfacing (serviced by the `emukernel` crate) and
//!   `cpuid` as the paper's example of a `HARDWARE` data source.
//!
//! ```
//! use hth_vm::{asm, Core, NullHooks, Reg, StepEvent};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = asm::assemble(
//!     "/bin/sum",
//!     r"
//!     _start:
//!         mov ecx, 4
//!         xor eax, eax
//!     top:
//!         add eax, ecx
//!         dec ecx
//!         cmp ecx, 0
//!         jne top
//!         hlt
//!     ",
//!     0x0804_8000,
//! )?;
//! let mut core = Core::new();
//! core.load_image(image);
//! core.link()?;
//! core.start();
//! while core.step(&mut NullHooks)? == StepEvent::Continue {}
//! assert_eq!(core.cpu.get(Reg::Eax), 10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod bb;
pub mod disasm;
mod image;
mod isa;
mod machine;
mod mem;
mod pagetable;

pub use asm::AsmError;
pub use image::{Image, ImageId};
pub use isa::{AluOp, Cond, Instr, MemRef, Operand, Reg, Target};
pub use machine::{Core, Cpu, Flags, Hooks, Loc, NullHooks, StepEvent, TaintOp, VmError};
pub use mem::{MemFault, Memory};
pub use pagetable::{PageTable, PAGE_SIZE};
