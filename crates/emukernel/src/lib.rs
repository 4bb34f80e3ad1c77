//! # emukernel — the OS substrate under HTH
//!
//! The paper runs real programs on real Linux; Harrier observes them at
//! the syscall boundary. This crate replaces Linux with a deterministic
//! emulated kernel exposing the *same observable surface*:
//!
//! * an in-memory [`Vfs`] with regular files and FIFOs (`mknod`),
//! * a simulated [`Network`] — DNS, scripted remote peers for outbound
//!   connections, scripted remote clients for inbound ones,
//! * a [`Kernel`] servicing i386-style `int 0x80` syscalls (`open`,
//!   `read`, `write`, `execve`, `fork`/`clone`, `socketcall`, …) and
//!   reporting each call's observable effect as a [`SyscallRecord`] for
//!   the monitor,
//! * [`Process`] construction with argv/environment placed on the
//!   initial stack (which Harrier tags `USER_INPUT`), copy-on-write
//!   `fork` (the child shares the parent's pages until either side
//!   writes) and `execve` image replacement, and
//! * a virtual clock driven by retired instructions and `nanosleep`.
//!
//! ```
//! use emukernel::Kernel;
//! use hth_vm::{NullHooks, StepEvent};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::new();
//! kernel.register_binary(
//!     "/bin/hello",
//!     r#"
//!     _start:
//!         mov eax, 4      ; write
//!         mov ebx, 1      ; stdout
//!         mov ecx, msg
//!         mov edx, 6
//!         int 0x80
//!         mov eax, 1      ; exit
//!         mov ebx, 0
//!         int 0x80
//!     .data
//!     msg: .asciz "hello\n"
//!     "#,
//!     &[],
//! );
//! let mut proc = kernel.spawn("/bin/hello", &["/bin/hello"], &[])?;
//! while proc.runnable() {
//!     match proc.core.step(&mut NullHooks)? {
//!         StepEvent::Interrupt(0x80) => { kernel.syscall(&mut proc); }
//!         StepEvent::Continue => {}
//!         _ => break,
//!     }
//! }
//! assert_eq!(kernel.stdout(), b"hello\n");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod abi;
mod kernel;
mod net;
mod process;
mod vfs;

pub use abi::{
    asm_consts, name_of, sockcall, stub_source, sysno, ArgKind, CStrArg, SyscallDef, MAX_CSTR_LEN,
    SOCKETCALL_NAMES, TABLE,
};
pub use kernel::{
    build_initial_stack, errno, oflags, BinarySpec, Kernel, Resource, SpawnError, SyscallEffect,
    SyscallRecord, APP_BASE, FD_MAX, HEAP_BASE, LIB_BASE, LIB_STRIDE, MAX_HEAP, MAX_MMAP_LEN,
    MAX_SLEEP_TICKS, MMAP_BASE, MMAP_LIMIT, SCRATCH_BASE, SCRATCH_SIZE, STACK_BASE, STACK_TOP,
};
pub use net::{Endpoint, Ip, NetError, Network, Peer, RemoteClient, Socket, SocketId, SocketState};
pub use process::{FdKind, FdTable, ProcState, Process};
pub use vfs::{FileKind, FileNode, Vfs};
