//! The syscall ABI, defined exactly once.
//!
//! `define_syscalls!` takes one table of `{number, name, arg kinds,
//! handler, effect schema}` rows and generates every surface that used
//! to be hand-maintained in five places:
//!
//! * the [`sysno`] constants,
//! * the static [`TABLE`] of [`SyscallDef`]s (names, arg kinds, effect
//!   schema — consumed by harrier's name interner, the dispatch fuzz
//!   suite, and documentation),
//! * [`name_of`] (`nr → "SYS_name"`),
//! * `Kernel::dispatch` — per-arg extraction and validation from the
//!   i386 registers (`ebx`, `ecx`, `edx`), with `CStr` arguments read
//!   and bounds-checked *before* the handler runs, so handler bodies
//!   are pure semantics,
//! * [`asm_consts`] — `SYS_*` (plus `SC_*`/`O_*`/`SIG*`) assembler
//!   constants pre-seeded into every `hth-vm` assembly, and
//! * [`stub_source`] — the generated `libsys.so` of `sys_<name>`
//!   int-0x80 stubs for workloads that prefer `call` over raw traps.
//!
//! Adding a syscall is one table row plus a handler method on `Kernel`.

use crate::kernel::{errno, SyscallEffect};
use crate::process::Process;

/// Upper bound for every path/name string read from process memory
/// (the one constant behind all `CStr` argument validation).
pub const MAX_CSTR_LEN: u32 = 4096;

/// Argument kinds a syscall can declare. Drives both extraction (which
/// register, what conversion/validation) and the generated docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArgKind {
    /// Plain integer, passed through as `u32`.
    Int,
    /// File descriptor (`i32`; negative values fail fd lookup cleanly).
    Fd,
    /// Pointer into process memory (`u32`, validated by the handler at
    /// use: an unmapped pointer yields `EFAULT`, never a panic).
    Ptr,
    /// Byte count (`u32`).
    Len,
    /// NUL-terminated string pointer: read and validated *before* the
    /// handler runs (≤ [`MAX_CSTR_LEN`] bytes, else `EFAULT`).
    CStr,
}

/// A validated C-string argument: the string plus the address it was
/// read from (kept for resource-identifier taint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CStrArg {
    /// The decoded string.
    pub val: String,
    /// Guest address of the first byte.
    pub addr: u32,
}

/// One row of the syscall table.
#[derive(Clone, Copy, Debug)]
pub struct SyscallDef {
    /// Syscall number (i386 flavour).
    pub nr: u32,
    /// Symbolic name in the paper's notation (`SYS_execve`).
    pub name: &'static str,
    /// Declared argument kinds, in `ebx`, `ecx`, `edx` order.
    pub args: &'static [ArgKind],
    /// Effect schema: which [`SyscallEffect`] variants the handler may
    /// report (documentation / DESIGN.md).
    pub effect: &'static str,
}

/// Extraction of one declared argument kind from a raw register value.
pub trait ExtractArg {
    /// The Rust type the handler receives.
    type Out;
    /// Converts/validates `raw`; `Err` carries the (positive) errno.
    ///
    /// # Errors
    ///
    /// `EFAULT` when a `CStr` pointer is unmapped or unterminated
    /// within [`MAX_CSTR_LEN`] bytes.
    fn extract(proc: &Process, raw: u32) -> Result<Self::Out, i32>;
}

/// Marker types implementing [`ExtractArg`], one per [`ArgKind`].
pub mod kinds {
    use super::{errno, CStrArg, ExtractArg, Process, MAX_CSTR_LEN};

    /// See [`super::ArgKind::Int`].
    pub struct Int;
    /// See [`super::ArgKind::Fd`].
    pub struct Fd;
    /// See [`super::ArgKind::Ptr`].
    pub struct Ptr;
    /// See [`super::ArgKind::Len`].
    pub struct Len;
    /// See [`super::ArgKind::CStr`].
    pub struct CStr;

    impl ExtractArg for Int {
        type Out = u32;
        fn extract(_proc: &Process, raw: u32) -> Result<u32, i32> {
            Ok(raw)
        }
    }

    impl ExtractArg for Fd {
        type Out = i32;
        fn extract(_proc: &Process, raw: u32) -> Result<i32, i32> {
            Ok(raw as i32)
        }
    }

    impl ExtractArg for Ptr {
        type Out = u32;
        fn extract(_proc: &Process, raw: u32) -> Result<u32, i32> {
            Ok(raw)
        }
    }

    impl ExtractArg for Len {
        type Out = u32;
        fn extract(_proc: &Process, raw: u32) -> Result<u32, i32> {
            Ok(raw)
        }
    }

    impl ExtractArg for CStr {
        type Out = CStrArg;
        fn extract(proc: &Process, raw: u32) -> Result<CStrArg, i32> {
            match proc.core.mem.read_cstr(raw, MAX_CSTR_LEN) {
                Ok(val) => Ok(CStrArg { val, addr: raw }),
                Err(_) => Err(errno::EFAULT),
            }
        }
    }
}

/// Handler return adapter: most handlers return `(ret, effect)` and get
/// the table's name; `socketcall` overrides the name per sub-call.
pub trait IntoSysRet {
    /// Normalises to `(name, ret, effect)`.
    fn into_sys_ret(self, name: &'static str) -> (&'static str, i32, SyscallEffect);
}

impl IntoSysRet for (i32, SyscallEffect) {
    fn into_sys_ret(self, name: &'static str) -> (&'static str, i32, SyscallEffect) {
        (name, self.0, self.1)
    }
}

impl IntoSysRet for (&'static str, i32, SyscallEffect) {
    fn into_sys_ret(self, _name: &'static str) -> (&'static str, i32, SyscallEffect) {
        self
    }
}

/// Defines the whole syscall ABI from one table. See the module docs
/// for everything one row expands into.
macro_rules! define_syscalls {
    (
        $(
            $(#[doc = $doc:expr])*
            $CONST:ident = $nr:literal => $name:ident ( $($arg:ident : $kind:ident),* $(,)? )
                -> $handler:ident => $effect:literal ;
        )*
    ) => {
        /// Syscall numbers (i386 Linux flavour; `RESOLVE` is the custom
        /// name-resolution backend behind the toy libc's
        /// `gethostbyname`). Generated by `define_syscalls!`.
        pub mod sysno {
            $(
                $(#[doc = $doc])*
                pub const $CONST: u32 = $nr;
            )*
        }

        /// The full syscall table, in declaration order.
        pub const TABLE: &[SyscallDef] = &[
            $(
                SyscallDef {
                    nr: $nr,
                    name: concat!("SYS_", stringify!($name)),
                    args: &[$(ArgKind::$kind),*],
                    effect: $effect,
                },
            )*
        ];

        /// Symbolic name for a syscall number (`"SYS_unknown"` for
        /// numbers outside the table).
        pub fn name_of(nr: u32) -> &'static str {
            match nr {
                $( $nr => concat!("SYS_", stringify!($name)), )*
                _ => "SYS_unknown",
            }
        }

        impl crate::kernel::Kernel {
            /// Decodes and dispatches syscall `nr` for `proc`: reads the
            /// declared arguments from `ebx`/`ecx`/`edx`, validates them
            /// per [`ArgKind`], and invokes the handler. Generated by
            /// `define_syscalls!`.
            pub(crate) fn dispatch(
                &mut self,
                proc: &mut Process,
                nr: u32,
            ) -> (&'static str, i32, SyscallEffect) {
                match nr {
                    $(
                        $nr => {
                            const NAME: &str = concat!("SYS_", stringify!($name));
                            let _regs = [
                                proc.core.cpu.get(hth_vm::Reg::Ebx),
                                proc.core.cpu.get(hth_vm::Reg::Ecx),
                                proc.core.cpu.get(hth_vm::Reg::Edx),
                            ];
                            let mut _ri = 0usize;
                            $(
                                let $arg = match <kinds::$kind as ExtractArg>::extract(
                                    proc, _regs[_ri],
                                ) {
                                    Ok(v) => v,
                                    Err(e) => return (NAME, -e, SyscallEffect::None),
                                };
                                _ri += 1;
                            )*
                            IntoSysRet::into_sys_ret(
                                self.$handler(proc $(, $arg)*),
                                NAME,
                            )
                        }
                    )*
                    _ => ("SYS_unknown", -errno::ENOSYS, SyscallEffect::None),
                }
            }
        }

        /// `(name, value)` pairs seeded as assembler constants into
        /// every workload assembly (`SYS_*` from the table, plus the
        /// `SC_*` socketcall numbers, `O_*` open flags and signal
        /// numbers from [`EXTRA_ASM_CONSTS`]).
        pub fn asm_consts() -> Vec<(&'static str, u32)> {
            let mut consts: Vec<(&'static str, u32)> = vec![
                $( (concat!("SYS_", stringify!($name)), $nr), )*
            ];
            consts.extend_from_slice(EXTRA_ASM_CONSTS);
            consts
        }

        /// Source of the generated `libsys.so`: one `sys_<name>` stub
        /// per table row that loads the number and traps, mirroring an
        /// int-0x80 libc. Arguments are the caller's `ebx`/`ecx`/`edx`.
        pub fn stub_source() -> String {
            let mut out = String::from(
                "; libsys.so -- generated by emukernel::abi::stub_source()\n",
            );
            $(
                out.push_str(concat!(".global sys_", stringify!($name), "\n"));
            )*
            $(
                out.push_str(concat!(
                    "sys_", stringify!($name), ":\n",
                    "    mov eax, ", stringify!($nr), "\n",
                    "    int 0x80\n",
                    "    ret\n",
                ));
            )*
            out
        }
    };
}

define_syscalls! {
    /// Terminate the calling process.
    EXIT = 1 => exit(code: Int) -> sys_exit => "Exit";
    /// Create a child process (session fixes up both `eax` values).
    FORK = 2 => fork() -> sys_fork => "ForkRequested";
    /// Read from a descriptor into memory.
    READ = 3 => read(fd: Fd, buf: Ptr, len: Len) -> sys_read => "Read";
    /// Write memory to a descriptor.
    WRITE = 4 => write(fd: Fd, buf: Ptr, len: Len) -> sys_write => "Write";
    /// Open (or create, per flags) a VFS path; `/proc` self-views are
    /// synthesized read-only.
    OPEN = 5 => open(path: CStr, flags: Int) -> sys_open => "Open";
    /// Close a descriptor.
    CLOSE = 6 => close(fd: Fd) -> sys_close => "Close";
    /// Replace the process image (the session performs the swap after
    /// Secpert has seen the event).
    EXECVE = 11 => execve(path: CStr) -> sys_execve => "ExecRequested";
    /// Current virtual time.
    TIME = 13 => time() -> sys_time => "None";
    /// Create a FIFO node.
    MKNOD = 14 => mknod(path: CStr, mode: Int) -> sys_mknod => "Mknod";
    /// Toggle a path's executable bit.
    CHMOD = 15 => chmod(path: CStr, mode: Int) -> sys_chmod => "Chmod";
    /// Caller's pid.
    GETPID = 20 => getpid() -> sys_getpid => "None";
    /// Send a signal to a process (delivered by the session).
    KILL = 37 => kill(pid: Int, sig: Int) -> sys_kill => "SignalRequested";
    /// Duplicate a descriptor into the lowest free slot.
    DUP = 41 => dup(fd: Fd) -> sys_dup => "Dup";
    /// Create an anonymous pipe; writes `[read_fd, write_fd]` at `fds`.
    PIPE = 42 => pipe(fds: Ptr) -> sys_pipe => "PipeCreated";
    /// Grow the heap by `incr` bytes (simplified brk).
    BRK = 45 => brk(incr: Int) -> sys_brk => "Brk";
    /// Duplicate `old` onto descriptor `new`, closing `new` first.
    DUP2 = 63 => dup2(old: Fd, new: Fd) -> sys_dup2 => "Dup";
    /// Register a signal handler address for `sig`.
    SIGACTION = 67 => sigaction(sig: Int, handler: Ptr) -> sys_sigaction => "None";
    /// Readiness over an fd bitmask at `readfds` (u32 in/out); a
    /// fruitless wait advances virtual time by `timeout` ticks.
    SELECT = 82 => select(nfds: Int, readfds: Ptr, timeout: Int) -> sys_select => "None";
    /// Map `len` bytes of an open regular file at `offset` into memory;
    /// returns the mapping address (mapped pages carry the file's tag).
    MMAP = 90 => mmap(fd: Fd, len: Len, offset: Int) -> sys_mmap => "Mmap";
    /// Unmap a mapped range (clears its taint).
    MUNMAP = 91 => munmap(addr: Ptr, len: Len) -> sys_munmap => "Munmap";
    /// Multiplexed socket API (`SC_*` sub-call in `ebx`, args at `ecx`).
    SOCKETCALL = 102 => socketcall(call: Int, args: Ptr) -> sys_socketcall => "Socket*";
    /// Alias of `fork` with clone semantics folded in.
    CLONE = 120 => clone() -> sys_fork => "ForkRequested";
    /// Sleep: advances virtual time by `ticks`.
    NANOSLEEP = 162 => nanosleep(ticks: Int) -> sys_nanosleep => "Sleep";
    /// Custom name-resolution backend (`gethostbyname`).
    RESOLVE = 200 => resolve(name: CStr) -> sys_resolve => "Resolve";
}

/// `socketcall` sub-call numbers.
pub mod sockcall {
    #![allow(missing_docs)]
    pub const SOCKET: u32 = 1;
    pub const BIND: u32 = 2;
    pub const CONNECT: u32 = 3;
    pub const LISTEN: u32 = 4;
    pub const ACCEPT: u32 = 5;
    pub const SEND: u32 = 9;
    pub const RECV: u32 = 10;
}

/// Event names the `socketcall` dispatcher can report in place of its
/// own (consumed by harrier's name interner alongside [`TABLE`]).
pub const SOCKETCALL_NAMES: &[&str] =
    &["SYS_socket", "SYS_bind", "SYS_connect", "SYS_listen", "SYS_accept", "SYS_send", "SYS_recv"];

/// Non-syscall assembler constants seeded alongside the `SYS_*` set.
pub const EXTRA_ASM_CONSTS: &[(&str, u32)] = &[
    ("SC_SOCKET", sockcall::SOCKET),
    ("SC_BIND", sockcall::BIND),
    ("SC_CONNECT", sockcall::CONNECT),
    ("SC_LISTEN", sockcall::LISTEN),
    ("SC_ACCEPT", sockcall::ACCEPT),
    ("SC_SEND", sockcall::SEND),
    ("SC_RECV", sockcall::RECV),
    ("O_RDONLY", crate::kernel::oflags::RDONLY),
    ("O_WRONLY", crate::kernel::oflags::WRONLY),
    ("O_RDWR", crate::kernel::oflags::RDWR),
    ("O_CREAT", crate::kernel::oflags::CREAT),
    ("O_TRUNC", crate::kernel::oflags::TRUNC),
    ("O_APPEND", crate::kernel::oflags::APPEND),
    ("SIGKILL", 9),
    ("SIGTERM", 15),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        assert!(TABLE.windows(2).all(|w| w[0].nr < w[1].nr), "table in nr order");
        let mut names: Vec<&str> = TABLE.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE.len(), "names unique");
    }

    #[test]
    fn name_of_round_trips() {
        for def in TABLE {
            assert_eq!(name_of(def.nr), def.name);
        }
        assert_eq!(name_of(9999), "SYS_unknown");
    }

    #[test]
    fn legacy_numbers_unchanged() {
        // The pre-refactor ABI (wire fixtures depend on these).
        for (nr, name) in [
            (1, "SYS_exit"),
            (2, "SYS_fork"),
            (3, "SYS_read"),
            (4, "SYS_write"),
            (5, "SYS_open"),
            (6, "SYS_close"),
            (11, "SYS_execve"),
            (13, "SYS_time"),
            (14, "SYS_mknod"),
            (15, "SYS_chmod"),
            (20, "SYS_getpid"),
            (41, "SYS_dup"),
            (45, "SYS_brk"),
            (102, "SYS_socketcall"),
            (120, "SYS_clone"),
            (162, "SYS_nanosleep"),
            (200, "SYS_resolve"),
        ] {
            assert_eq!(name_of(nr), name);
        }
    }

    #[test]
    fn asm_consts_cover_table_and_extras() {
        let consts = asm_consts();
        for def in TABLE {
            assert!(consts.iter().any(|&(n, v)| n == def.name && v == def.nr));
        }
        assert!(consts.iter().any(|&(n, v)| n == "SC_CONNECT" && v == 3));
        assert!(consts.iter().any(|&(n, v)| n == "O_CREAT" && v == 0x40));
    }

    #[test]
    fn stub_source_has_one_stub_per_row() {
        let src = stub_source();
        for def in TABLE {
            let label = format!("sys_{}:", &def.name[4..]);
            assert!(src.contains(&label), "missing stub {label}");
            assert!(src.contains(&format!(".global sys_{}", &def.name[4..])));
        }
    }
}
