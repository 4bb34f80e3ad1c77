//! Harrier: the run-time monitor (paper §7).
//!
//! Harrier implements the VM's [`Hooks`] to track data flow and basic
//! block frequency while the program runs, and digests each serviced
//! syscall's [`SyscallEffect`] into [`SecpertEvent`]s: tagging buffers on
//! reads, computing resource-identifier origins from the taint of name
//! arguments, remembering each resource's origin from `open`/`connect`/
//! `bind` to later writes, short-circuiting taint across name resolution
//! (§7.2), and attributing every event to the last application basic
//! block (§7.4).

use std::collections::HashMap;

use emukernel::{Kernel, Process, Resource, SyscallEffect, SyscallRecord};
use hth_vm::{Hooks, ImageId, Instr, Reg, TaintOp};

use crate::events::{Origin, ResourceType, SecpertEvent, ServerInfo, SourceInfo};
use crate::freq::BbFreq;
use crate::shadow::Shadow;
use crate::tag::{DataSource, SourceId, SourceTable, TagRef, TagStore, TaintStats};

/// Monitor configuration — the knobs behind the paper's §9 ablation.
#[derive(Clone, Debug)]
pub struct HarrierConfig {
    /// Track per-instruction data flow (dominant cost in the paper).
    pub track_dataflow: bool,
    /// Count application basic-block executions.
    pub track_bb_freq: bool,
    /// Copy the name string's tags onto resolution results
    /// (`gethostbyname` short circuit, §7.2).
    pub short_circuit_resolution: bool,
    /// Window (virtual-time ticks) for the process-creation rate rule.
    pub fork_rate_window: u64,
}

impl Default for HarrierConfig {
    fn default() -> HarrierConfig {
        HarrierConfig {
            track_dataflow: true,
            track_bb_freq: true,
            short_circuit_resolution: true,
            fork_rate_window: 50,
        }
    }
}

/// Remembered origin of a named resource (set when the resource is
/// opened/connected/bound, consulted when it is written).
#[derive(Clone, Debug, Default)]
struct OriginRecord {
    tags: TagRef,
    server: Option<(String, TagRef)>,
}

/// Per-process monitor state.
#[derive(Debug)]
struct ProcMon {
    shadow: Shadow,
    freq: BbFreq,
    /// `BINARY` tag per loaded image.
    image_tags: Vec<TagRef>,
    /// Resource name → identifier origin.
    origins: HashMap<String, OriginRecord>,
    /// Local port → rendered listening endpoint (server bookkeeping).
    bound_ports: HashMap<u16, String>,
    /// Address of the most recent `int 0x80` (event attribution when BB
    /// tracking is off).
    last_syscall_addr: u32,
}

/// The run-time monitor.
pub struct Harrier {
    config: HarrierConfig,
    sources: SourceTable,
    /// Hash-consed tag sets, shared by every monitored process.
    store: TagStore,
    user_tag: TagRef,
    hardware_tag: TagRef,
    procs: HashMap<u32, ProcMon>,
    /// Taint carried by each anonymous pipe's buffered bytes, keyed by
    /// kernel pipe id. Kernel-global (pipes are shared across `fork` and
    /// `dup2`), so laundering through fd plumbing cannot shed tags.
    pipe_tags: HashMap<u64, TagRef>,
    events_emitted: u64,
}

impl Harrier {
    /// Creates a monitor with the given configuration.
    pub fn new(config: HarrierConfig) -> Harrier {
        let mut sources = SourceTable::new();
        let user_input = sources.intern(DataSource::UserInput);
        let hardware = sources.intern(DataSource::Hardware);
        let mut store = TagStore::new();
        let user_tag = store.single(user_input);
        let hardware_tag = store.single(hardware);
        Harrier {
            config,
            sources,
            store,
            user_tag,
            hardware_tag,
            procs: HashMap::new(),
            pipe_tags: HashMap::new(),
            events_emitted: 0,
        }
    }

    /// Monitor configuration.
    pub fn config(&self) -> &HarrierConfig {
        &self.config
    }

    /// The source interning table (read access for diagnostics).
    pub fn sources(&self) -> &SourceTable {
        &self.sources
    }

    /// The tag store (read access for diagnostics).
    pub fn tag_store(&self) -> &TagStore {
        &self.store
    }

    /// Interning and union-memoization counters.
    pub fn taint_stats(&self) -> TaintStats {
        self.store.stats()
    }

    /// Total events emitted since creation.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Starts monitoring a freshly spawned process: shadows its images'
    /// data sections as `BINARY` and its initial stack as `USER_INPUT`.
    pub fn attach(&mut self, proc: &Process) {
        let _span = hth_trace::span("harrier.attach");
        let mut mon = ProcMon {
            shadow: Shadow::new(),
            freq: BbFreq::new(ImageId(0)),
            image_tags: Vec::new(),
            origins: HashMap::new(),
            bound_ports: HashMap::new(),
            last_syscall_addr: 0,
        };
        self.shadow_images(&mut mon, proc);
        let (lo, hi) = proc.initial_stack;
        if self.config.track_dataflow && hi > lo {
            mon.shadow.set_range(lo, hi - lo, self.user_tag);
        }
        self.procs.insert(proc.pid, mon);
    }

    fn shadow_images(&mut self, mon: &mut ProcMon, proc: &Process) {
        mon.image_tags.clear();
        for image in proc.core.images() {
            let id = self.sources.intern(DataSource::Binary(image.name().clone()));
            let tag = self.store.single(id);
            mon.image_tags.push(tag);
            if self.config.track_dataflow && !image.data().is_empty() {
                mon.shadow.set_range(image.data_base(), image.data().len() as u32, tag);
            }
        }
    }

    /// Starts monitoring a forked child with a copy of its parent's
    /// state. The child's shadow shares the parent's shadow pages until
    /// either side writes ([`Shadow::fork`]).
    ///
    /// # Panics
    ///
    /// Panics when the parent was never attached.
    pub fn fork_attach(&mut self, parent_pid: u32, child_pid: u32) {
        let parent = self.procs.get_mut(&parent_pid).expect("fork of unmonitored process");
        let child = ProcMon {
            shadow: parent.shadow.fork(),
            freq: parent.freq.clone(),
            image_tags: parent.image_tags.clone(),
            origins: parent.origins.clone(),
            bound_ports: parent.bound_ports.clone(),
            last_syscall_addr: parent.last_syscall_addr,
        };
        self.procs.insert(child_pid, child);
    }

    /// Re-attaches after a successful `execve` (new image, fresh shadow;
    /// descriptor origins survive, like the descriptors themselves).
    pub fn on_exec(&mut self, proc: &Process) {
        let origins =
            self.procs.remove(&proc.pid).map(|m| (m.origins, m.bound_ports)).unwrap_or_default();
        self.attach(proc);
        if let Some(mon) = self.procs.get_mut(&proc.pid) {
            (mon.origins, mon.bound_ports) = origins;
        }
    }

    /// Stops monitoring an exited process and frees its state.
    pub fn detach(&mut self, pid: u32) {
        self.procs.remove(&pid);
    }

    /// Per-step hook adapter for one process. Pass to [`hth_vm::Core::step`].
    ///
    /// # Panics
    ///
    /// Panics when `pid` was never attached.
    pub fn hooks(&mut self, pid: u32) -> HarrierHooks<'_> {
        let mon = self.procs.get_mut(&pid).expect("hooks for unmonitored process");
        HarrierHooks {
            mon,
            store: &mut self.store,
            track_dataflow: self.config.track_dataflow,
            track_bb: self.config.track_bb_freq,
            hardware: self.hardware_tag,
        }
    }

    /// Basic-block attribution for `pid` (tests and diagnostics).
    pub fn attribution(&self, pid: u32) -> Option<(u32, u64)> {
        self.procs.get(&pid)?.freq.attribution()
    }

    /// Reads the current tag set of a memory range (tests/diagnostics).
    pub fn mem_tags(&self, pid: u32, addr: u32, len: u32) -> Vec<SourceInfo> {
        match self.procs.get(&pid) {
            Some(mon) => self.render_ids(&mon.shadow.range_ids(addr, len, &self.store)),
            None => Vec::new(),
        }
    }

    fn render_ids(&self, ids: &[SourceId]) -> Vec<SourceInfo> {
        ids.iter()
            .map(|&id| {
                let src = self.sources.get(id);
                SourceInfo {
                    kind: match src {
                        DataSource::UserInput => ResourceType::UserInput,
                        DataSource::File(_) => ResourceType::File,
                        DataSource::Socket(_) => ResourceType::Socket,
                        DataSource::Binary(_) => ResourceType::Binary,
                        DataSource::Hardware => ResourceType::Hardware,
                    },
                    name: src.name().unwrap_or(src.type_name()).to_string(),
                }
            })
            .collect()
    }

    fn origin_from(&self, tags: TagRef) -> Origin {
        Origin { sources: self.render_ids(self.store.ids(tags)) }
    }

    /// Renders a kernel resource as a typed name (sockets use the
    /// paper's `host:port (AF_INET)` rendering).
    fn resource_info(&self, resource: &Resource, kernel: &Kernel) -> SourceInfo {
        match resource {
            Resource::File { path, .. } => SourceInfo::new(ResourceType::File, path.clone()),
            Resource::Stdin => SourceInfo::new(ResourceType::UserInput, "STDIN"),
            Resource::Stdout => SourceInfo::new(ResourceType::Console, "STDOUT"),
            Resource::Stderr => SourceInfo::new(ResourceType::Console, "STDERR"),
            Resource::Socket { local, remote, listening, accepted } => {
                let name = if *listening {
                    local.map(|ep| kernel.net.display_endpoint(ep))
                } else if *accepted {
                    remote.map(|ep| kernel.net.display_endpoint(ep))
                } else {
                    remote.or(*local).map(|ep| kernel.net.display_endpoint(ep))
                };
                SourceInfo::new(ResourceType::Socket, name.unwrap_or_else(|| "socket".into()))
            }
            Resource::Pipe { id } => SourceInfo::new(ResourceType::Pipe, format!("pipe:{id}")),
            Resource::Proc { path } => SourceInfo::new(ResourceType::Proc, path.clone()),
        }
    }

    /// The data source bytes read from this resource should carry.
    fn read_source(&mut self, resource: &Resource, kernel: &Kernel) -> Option<DataSource> {
        Some(match resource {
            Resource::File { path, .. } => DataSource::file(path),
            Resource::Stdin => DataSource::UserInput,
            Resource::Stdout | Resource::Stderr => return None,
            Resource::Socket { .. } => {
                let info = self.resource_info(resource, kernel);
                DataSource::socket(info.name)
            }
            // Pipe reads don't mint a new source: the buffer inherits
            // the taint the pipe's bytes carried in (see the Read arm).
            Resource::Pipe { .. } => return None,
            // /proc content is the process's own state rendered by the
            // kernel — treat it as file content named by its path so
            // exfiltration fires the file→socket flow rules.
            Resource::Proc { path } => DataSource::file(path),
        })
    }

    fn server_info_for(
        &self,
        mon: &ProcMon,
        resource: &Resource,
        kernel: &Kernel,
    ) -> Option<ServerInfo> {
        let Resource::Socket { local, accepted: true, .. } = resource else {
            return None;
        };
        let local = (*local)?;
        let address = mon
            .bound_ports
            .get(&local.port)
            .cloned()
            .unwrap_or_else(|| kernel.net.display_endpoint(local));
        let origin =
            mon.origins.get(&address).map(|rec| self.origin_from(rec.tags)).unwrap_or_default();
        Some(ServerInfo { address, origin })
    }

    /// Digests one serviced syscall: updates shadow state and produces
    /// the Secpert events it implies. Call *after* [`Kernel::fork`] for
    /// fork effects so process counts include the new child.
    pub fn on_syscall(
        &mut self,
        proc: &Process,
        record: &SyscallRecord,
        kernel: &Kernel,
    ) -> Vec<SecpertEvent> {
        let _span = hth_trace::span("harrier.on_syscall");
        if !self.procs.contains_key(&proc.pid) {
            self.attach(proc);
        }
        let pid = proc.pid;
        let time = kernel.now();
        let (address, frequency) = {
            let mon = &self.procs[&pid];
            mon.freq.attribution().unwrap_or((proc.core.cpu.eip.wrapping_sub(4), 1))
        };
        // Kernel return values are fresh data: clear eax's taint.
        if self.config.track_dataflow {
            if let Some(mon) = self.procs.get_mut(&pid) {
                mon.shadow.set_reg(Reg::Eax, TagRef::EMPTY);
            }
        }
        let mut events = Vec::new();
        match &record.effect {
            SyscallEffect::None | SyscallEffect::Exit { .. } | SyscallEffect::Sleep { .. } => {}
            SyscallEffect::Brk { total, .. } => {
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: SourceInfo::new(ResourceType::Unknown, "heap"),
                    origin: Origin::unknown(),
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: Some(*total),
                    server: None,
                });
            }
            SyscallEffect::Close { .. }
            | SyscallEffect::Dup { .. }
            | SyscallEffect::SocketCreated { .. }
            | SyscallEffect::Chmod { .. } => {}
            SyscallEffect::Open { .. } | SyscallEffect::Mknod { .. } => {
                // Mknod carries a path instead of a resource; normalise.
                let (resource, path_addr) = match &record.effect {
                    SyscallEffect::Open { resource, path_addr, .. } => {
                        (resource.clone(), *path_addr)
                    }
                    SyscallEffect::Mknod { path, path_addr } => {
                        (Resource::File { path: path.clone(), fifo: true }, *path_addr)
                    }
                    _ => unreachable!(),
                };
                let info = self.resource_info(&resource, kernel);
                let name_len = info.name.len() as u32;
                let tags =
                    self.procs[&pid].shadow.range(path_addr, name_len.max(1), &mut self.store);
                let origin = self.origin_from(tags);
                self.procs
                    .get_mut(&pid)
                    .expect("attached above")
                    .origins
                    .insert(info.name.clone(), OriginRecord { tags, server: None });
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Read { resource, buf, len } => {
                if self.config.track_dataflow && *len > 0 {
                    if let Resource::Pipe { id } = resource {
                        // Bytes out of a pipe carry whatever taint went
                        // in — laundering through fd plumbing does NOT
                        // clear tags.
                        let tag = self.pipe_tags.get(id).copied().unwrap_or(TagRef::EMPTY);
                        self.procs
                            .get_mut(&pid)
                            .expect("attached above")
                            .shadow
                            .set_range(*buf, *len, tag);
                    } else if let Some(src) = self.read_source(resource, kernel) {
                        let id = self.sources.intern(src);
                        let tag = self.store.single(id);
                        self.procs
                            .get_mut(&pid)
                            .expect("attached above")
                            .shadow
                            .set_range(*buf, *len, tag);
                    }
                }
            }
            SyscallEffect::Write { resource, buf, len } => {
                if self.config.track_dataflow {
                    if let Resource::Pipe { id } = resource {
                        // The pipe's buffered bytes accumulate the
                        // union of everything written into it.
                        let written = self.procs[&pid].shadow.range(*buf, *len, &mut self.store);
                        let prior = self.pipe_tags.get(id).copied().unwrap_or(TagRef::EMPTY);
                        self.pipe_tags.insert(*id, self.store.union(prior, written));
                    }
                }
                let target = self.resource_info(resource, kernel);
                let executable_content = proc
                    .core
                    .mem
                    .read_bytes(*buf, (*len).min(4))
                    .map(|head| looks_executable(&head))
                    .unwrap_or(false);
                let tags = self.procs[&pid].shadow.range(*buf, *len, &mut self.store);
                // Union the identifier origins of every named data
                // source (where did each source *file's name* come
                // from — §4.3's user-vs-hardcoded distinction).
                let mut origin_tags = TagRef::EMPTY;
                let data_ids: Vec<SourceId> = self.store.ids(tags).to_vec();
                for id in data_ids {
                    if let Some(name) = self.sources.get(id).name() {
                        let named = self.procs[&pid].origins.get(name).map(|rec| rec.tags);
                        if let Some(named) = named {
                            origin_tags = self.store.union(origin_tags, named);
                        }
                    }
                }
                let (data_sources, data_origin, target_origin, server) = {
                    let mon = &self.procs[&pid];
                    let target_origin = mon
                        .origins
                        .get(&target.name)
                        .map(|rec| self.origin_from(rec.tags))
                        .unwrap_or_default();
                    let server = self
                        .server_info_for(mon, resource, kernel)
                        .or_else(|| self.server_from_data(mon, tags));
                    (
                        self.render_ids(self.store.ids(tags)),
                        self.origin_from(origin_tags),
                        target_origin,
                        server,
                    )
                };
                events.push(SecpertEvent::DataTransfer {
                    pid,
                    syscall: record.name,
                    data_sources,
                    data_origin,
                    target,
                    target_origin,
                    time,
                    frequency,
                    address,
                    executable_content,
                    server,
                    bytes: u64::from(*len),
                });
            }
            SyscallEffect::ExecRequested { path, path_addr, .. } => {
                let tags = self.procs[&pid].shadow.range(
                    *path_addr,
                    path.len().max(1) as u32,
                    &mut self.store,
                );
                let origin = self.origin_from(tags);
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: SourceInfo::new(ResourceType::File, path.clone()),
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::ForkRequested => {
                let count = kernel.fork_ticks.len() as u64;
                let window_start = time.saturating_sub(self.config.fork_rate_window);
                let rate = kernel.fork_ticks.iter().filter(|&&t| t >= window_start).count() as u64;
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: SourceInfo::new(ResourceType::Unknown, "process"),
                    origin: Origin::unknown(),
                    time,
                    frequency,
                    address,
                    proc_count: Some(count),
                    proc_rate: Some(rate),
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Bind { resource, addr_ptr, endpoint } => {
                let info = self.resource_info(resource, kernel);
                let rendered = kernel.net.display_endpoint(*endpoint);
                let tags = self.procs[&pid].shadow.range(*addr_ptr, 8, &mut self.store);
                let origin = self.origin_from(tags);
                let mon = self.procs.get_mut(&pid).expect("attached above");
                mon.bound_ports.insert(endpoint.port, rendered.clone());
                mon.origins.insert(rendered, OriginRecord { tags, server: None });
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Listen { resource } => {
                let info = self.resource_info(resource, kernel);
                let origin = self.procs[&pid]
                    .origins
                    .get(&info.name)
                    .map(|rec| self.origin_from(rec.tags))
                    .unwrap_or_default();
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Connect { resource, addr_ptr, endpoint } => {
                let info = self.resource_info(resource, kernel);
                let rendered = kernel.net.display_endpoint(*endpoint);
                let tags = self.procs[&pid].shadow.range(*addr_ptr, 8, &mut self.store);
                let origin = self.origin_from(tags);
                self.procs
                    .get_mut(&pid)
                    .expect("attached above")
                    .origins
                    .insert(rendered, OriginRecord { tags, server: None });
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Accept { resource, .. } => {
                let info = self.resource_info(resource, kernel);
                let socket_src = self.sources.intern(DataSource::socket(&info.name));
                let socket_tag = self.store.single(socket_src);
                let server = self.server_info_for(&self.procs[&pid], resource, kernel);
                let origin = Origin {
                    sources: vec![SourceInfo::new(ResourceType::Socket, info.name.clone())],
                };
                let server_rec = server.as_ref().map(|s| (s.address.clone(), TagRef::EMPTY));
                self.procs.get_mut(&pid).expect("attached above").origins.insert(
                    info.name.clone(),
                    OriginRecord { tags: socket_tag, server: server_rec },
                );
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server,
                });
            }
            SyscallEffect::PipeCreated { id, .. } => {
                self.pipe_tags.insert(*id, TagRef::EMPTY);
            }
            SyscallEffect::Mmap { resource, addr, len } => {
                // Mapped file pages inherit the file's data source, so
                // reads *through the mapping* carry the file's taint
                // exactly like `read` into a buffer would.
                if self.config.track_dataflow && *len > 0 {
                    if let Some(src) = self.read_source(resource, kernel) {
                        let id = self.sources.intern(src);
                        let tag = self.store.single(id);
                        self.procs
                            .get_mut(&pid)
                            .expect("attached above")
                            .shadow
                            .set_range(*addr, *len, tag);
                    }
                }
                let info = self.resource_info(resource, kernel);
                let origin = self.procs[&pid]
                    .origins
                    .get(&info.name)
                    .map(|rec| self.origin_from(rec.tags))
                    .unwrap_or_default();
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: info,
                    origin,
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Munmap { addr, len } => {
                if self.config.track_dataflow && *len > 0 {
                    self.procs.get_mut(&pid).expect("attached above").shadow.set_range(
                        *addr,
                        *len,
                        TagRef::EMPTY,
                    );
                }
            }
            SyscallEffect::SignalRequested { target, sig } => {
                events.push(SecpertEvent::ResourceAccess {
                    pid,
                    syscall: record.name,
                    resource: SourceInfo::new(
                        ResourceType::Unknown,
                        format!("pid {target} sig {sig}"),
                    ),
                    origin: Origin::unknown(),
                    time,
                    frequency,
                    address,
                    proc_count: None,
                    proc_rate: None,
                    mem_total: None,
                    server: None,
                });
            }
            SyscallEffect::Resolve { name, name_addr, ok } => {
                if self.config.track_dataflow && self.config.short_circuit_resolution && *ok {
                    let tags = self.procs[&pid].shadow.range(
                        *name_addr,
                        name.len().max(1) as u32,
                        &mut self.store,
                    );
                    self.procs
                        .get_mut(&pid)
                        .expect("attached above")
                        .shadow
                        .set_reg(Reg::Eax, tags);
                }
            }
        }
        self.events_emitted += events.len() as u64;
        for _ in &events {
            hth_trace::instant("harrier.event");
        }
        events
    }

    /// Server context when the *data* flowed out of an accepted socket
    /// (pma's `outpipe → attacker` direction).
    fn server_from_data(&self, mon: &ProcMon, tags: TagRef) -> Option<ServerInfo> {
        for &id in self.store.ids(tags) {
            if let DataSource::Socket(name) = self.sources.get(id) {
                if let Some(rec) = mon.origins.get(name.as_ref()) {
                    if let Some((address, server_tags)) = &rec.server {
                        let origin = mon
                            .origins
                            .get(address)
                            .map(|r| self.origin_from(r.tags))
                            .unwrap_or_else(|| self.origin_from(*server_tags));
                        return Some(ServerInfo { address: address.clone(), origin });
                    }
                }
            }
        }
        None
    }
}

/// Magic-byte sniff for "executable content" (paper §10 item 5): ELF,
/// PE (`MZ`) and script shebangs.
fn looks_executable(head: &[u8]) -> bool {
    head.starts_with(b"\x7fELF") || head.starts_with(b"MZ") || head.starts_with(b"#!")
}

/// [`Hooks`] adapter borrowing one process's monitor state plus the
/// shared tag store.
pub struct HarrierHooks<'a> {
    mon: &'a mut ProcMon,
    store: &'a mut TagStore,
    track_dataflow: bool,
    track_bb: bool,
    hardware: TagRef,
}

impl Hooks for HarrierHooks<'_> {
    fn on_bb(&mut self, image: ImageId, leader: u32) {
        if self.track_bb {
            self.mon.freq.on_bb(image, leader);
        }
    }

    fn on_instr(&mut self, _image: ImageId, addr: u32, instr: &Instr) {
        if matches!(instr, Instr::Int(0x80)) {
            self.mon.last_syscall_addr = addr;
        }
    }

    fn on_taint(&mut self, image: ImageId, op: &TaintOp) {
        if self.track_dataflow {
            let binary = self.mon.image_tags[image.0 as usize];
            self.mon.shadow.apply(op, binary, self.hardware, self.store);
        }
    }
}
