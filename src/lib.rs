//! # HTH — Hunting Trojan Horses
//!
//! A full reproduction of *Hunting Trojan Horses* (Micha Moffie and
//! David Kaeli, NUCAR Technical Report TR-01, January 2006): a security
//! framework that detects Trojan Horses and Backdoors by monitoring a
//! program's execution and judging its behaviour with an expert system.
//!
//! The framework has two halves, faithfully rebuilt here:
//!
//! * **Harrier** ([`harrier`]) — the run-time monitor. It tracks a
//!   *set of data sources* (`USER_INPUT`, `FILE`, `SOCKET`, `BINARY`,
//!   `HARDWARE`) for every register and memory byte, counts basic-block
//!   executions with last-application-block attribution, and turns
//!   syscalls into typed events.
//! * **Secpert** ([`hth_core::Secpert`]) — the security expert system: a
//!   CLIPS-like engine ([`secpert_engine`]) evaluating the paper's
//!   policy (execution flow, resource abuse, information flow) and
//!   explaining every warning it raises.
//!
//! Because the original ran on Intel Pin over real Linux binaries, this
//! reproduction ships its own substrate: a small x86-flavoured VM and
//! assembler ([`hth_vm`]) and an emulated kernel ([`emukernel`]) with
//! files, sockets, DNS and processes. Every workload of the paper's
//! evaluation is included in [`hth_workloads`].
//!
//! The event protocol between the two halves is first-class in
//! [`hth_fleet`]: a binary wire codec, append-once/replay-offline event
//! journals, and a sharded analyst pool that scales Secpert across
//! threads for whole fleets of monitored sessions.
//!
//! ## Quickstart
//!
//! ```
//! use hth::{Session, SessionConfig, Severity};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Session::new(SessionConfig::default())?;
//! session.kernel.register_binary(
//!     "/bin/dropper",
//!     r#"
//!     _start:
//!         mov eax, 11        ; execve
//!         mov ebx, prog      ; name hardcoded in the binary
//!         int 0x80
//!         hlt
//!     .data
//!     prog: .asciz "/bin/ls"
//!     "#,
//!     &[],
//! );
//! session.start("/bin/dropper", &["/bin/dropper"], &[])?;
//! session.run()?;
//! assert_eq!(session.max_severity(), Some(Severity::Low));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use emukernel;
pub use harrier;
pub use hth_core;
pub use hth_fleet;
pub use hth_vm;
pub use hth_workloads;
pub use secpert_engine;

pub use hth_core::{
    PolicyConfig, RunReport, Secpert, Session, SessionConfig, SessionError, SessionSummary,
    Severity, Warning,
};
