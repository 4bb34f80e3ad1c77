//! Differential oracle: the compressed, copy-on-write `Shadow` must be
//! observationally identical to the per-byte `NaiveShadow` it replaced.
//!
//! Proptest generates arbitrary interleavings of byte writes, range
//! fills, clears, register writes, dataflow micro-ops and forks over
//! three shadows: a parent, its child and the child's child, so one
//! page directory can be shared three ways. A fork is `Shadow::fork` on
//! one side and a `NaiveShadow` clone on the other. Both implementations
//! consume the same sequence, and after every operation the *resolved*
//! tag sets (sorted `SourceId` slices) of all registers and of the
//! touched range must agree in every shadow, not only the one written,
//! so a write that leaks through a shared directory shows. A final sweep
//! compares every byte of the exercised arena in every shadow. The arena
//! is placed at one of a few anchors chosen against the page table's
//! layout: low memory, across a 4 MiB page-directory boundary, and at
//! the top of the address space, where ranges wrap past `0xffff_ffff`
//! to address 0.

use proptest::prelude::*;

use harrier::{DataSource, NaiveShadow, Shadow, SourceId, SourceTable, TagRef, TagSet, TagStore};
use hth_vm::{Loc, Reg, TaintOp};

/// Size of the arena the operations address: at every anchor it spans
/// three page boundaries so page fast paths (uniform fills,
/// boundary-straddling ranges) get exercised.
const ARENA: u32 = 3 * 4096 + 128;

/// Arena start addresses: low memory; straddling the page-directory
/// boundary at 4 MiB; and straddling the top of the address space, so
/// ranges near the arena's middle wrap past `0xffff_ffff` to 0.
const ANCHORS: [u32; 3] =
    [0x1000 - 64, 0x0040_0000 - 2 * 4096 + 64, 0u32.wrapping_sub(2 * 4096 - 64)];

#[derive(Clone, Debug)]
enum DiffOp {
    SetByte {
        off: u32,
        src: usize,
    },
    SetRange {
        off: u32,
        len: u32,
        src: Option<usize>,
    },
    /// A union of several sources stamped on a range — how the monitor
    /// tags a buffer read from a pipe or a mapped file (gen2 surface).
    SetRangeMulti {
        off: u32,
        len: u32,
        srcs: Vec<usize>,
    },
    SetReg {
        reg: usize,
        srcs: Vec<usize>,
    },
    /// `write(pipefd)`: the range's accumulated tags are unioned into a
    /// kernel-global pipe tag, exactly like `Harrier::pipe_tags` —
    /// laundering data through fd plumbing must not shed tags.
    PipeWrite {
        off: u32,
        len: u32,
    },
    /// `read(pipefd)`: the accumulated pipe tag stamps the buffer.
    PipeRead {
        off: u32,
        len: u32,
    },
    Apply {
        dst: LocSpec,
        src1: Option<LocSpec>,
        src2: Option<LocSpec>,
        imm: bool,
        hw: bool,
    },
    /// Shadow `from + 1` is replaced by a fork of shadow `from` (0 forks
    /// the child, 1 the grandchild).
    Fork {
        from: usize,
    },
}

#[derive(Clone, Debug)]
enum LocSpec {
    Reg(usize),
    Mem { off: u32, len: u32 },
}

impl LocSpec {
    fn loc(&self, base: u32) -> Loc {
        match self {
            LocSpec::Reg(i) => Loc::Reg(Reg::ALL[*i]),
            LocSpec::Mem { off, len } => Loc::Mem(base.wrapping_add(*off), *len),
        }
    }
}

fn loc_strategy() -> impl Strategy<Value = LocSpec> {
    prop_oneof![
        (0usize..8).prop_map(LocSpec::Reg),
        (0u32..ARENA - 8, 1u32..=8).prop_map(|(off, len)| LocSpec::Mem { off, len }),
    ]
}

fn op_strategy() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (0u32..ARENA, 0usize..6).prop_map(|(off, src)| DiffOp::SetByte { off, src }),
        (0u32..ARENA - 160, 1u32..160, prop_oneof![Just(None), (0usize..6).prop_map(Some)])
            .prop_map(|(off, len, src)| DiffOp::SetRange { off, len, src }),
        (0u32..ARENA - 160, 1u32..160, prop::collection::vec(0usize..6, 0..=3))
            .prop_map(|(off, len, srcs)| DiffOp::SetRangeMulti { off, len, srcs }),
        (0usize..8, prop::collection::vec(0usize..6, 0..=3))
            .prop_map(|(reg, srcs)| DiffOp::SetReg { reg, srcs }),
        (0u32..ARENA - 160, 1u32..160).prop_map(|(off, len)| DiffOp::PipeWrite { off, len }),
        (0u32..ARENA - 160, 1u32..160).prop_map(|(off, len)| DiffOp::PipeRead { off, len }),
        (
            loc_strategy(),
            prop_oneof![Just(None), loc_strategy().prop_map(Some)],
            prop_oneof![Just(None), loc_strategy().prop_map(Some)],
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(dst, src1, src2, imm, hw)| DiffOp::Apply {
                dst,
                src1,
                src2,
                imm,
                hw
            }),
        (0usize..2).prop_map(|from| DiffOp::Fork { from }),
    ]
}

struct Harness {
    /// Address of arena offset 0.
    base: u32,
    store: TagStore,
    srcs: Vec<SourceId>,
    binary: SourceId,
    hardware: SourceId,
    /// Parent, child and grandchild; each is empty until forked.
    naive: [NaiveShadow; 3],
    fast: [Shadow; 3],
    /// The modeled pipe's accumulated tag, one per implementation.
    pipe_naive: TagSet,
    pipe_fast: TagRef,
}

impl Harness {
    fn new(base: u32) -> Harness {
        let mut table = SourceTable::new();
        let srcs = (0..6).map(|i| table.intern(DataSource::file(format!("/d{i}")))).collect();
        let binary = table.intern(DataSource::binary("/bin/app"));
        let hardware = table.intern(DataSource::Hardware);
        Harness {
            base,
            store: TagStore::new(),
            srcs,
            binary,
            hardware,
            naive: Default::default(),
            fast: Default::default(),
            pipe_naive: TagSet::empty(),
            pipe_fast: TagRef::EMPTY,
        }
    }

    fn resolve(&mut self, r: TagRef) -> Vec<SourceId> {
        self.store.ids(r).to_vec()
    }

    fn addr(&self, off: u32) -> u32 {
        self.base.wrapping_add(off)
    }

    /// Applies `op` to shadow `on` under both implementations.
    fn step(&mut self, op: &DiffOp, on: usize) {
        let base = self.base;
        let addr = |off: u32| base.wrapping_add(off);
        let naive = &mut self.naive[on];
        let fast = &mut self.fast[on];
        match op {
            DiffOp::SetByte { off, src } => {
                let id = self.srcs[*src];
                naive.set_byte(addr(*off), TagSet::single(id));
                let tag = self.store.single(id);
                fast.set_byte(addr(*off), tag);
            }
            DiffOp::SetRange { off, len, src } => {
                let (set, tag) = match src {
                    Some(s) => {
                        let id = self.srcs[*s];
                        (TagSet::single(id), self.store.single(id))
                    }
                    None => (TagSet::empty(), TagRef::EMPTY),
                };
                naive.set_range(addr(*off), *len, &set);
                fast.set_range(addr(*off), *len, tag);
            }
            DiffOp::SetRangeMulti { off, len, srcs } => {
                let ids: Vec<SourceId> = srcs.iter().map(|s| self.srcs[*s]).collect();
                naive.set_range(addr(*off), *len, &TagSet::from_ids(ids.iter().copied()));
                let tag = self.store.from_ids(ids.iter().copied());
                fast.set_range(addr(*off), *len, tag);
            }
            DiffOp::PipeWrite { off, len } => {
                let written_naive = naive.range(addr(*off), *len);
                self.pipe_naive =
                    TagSet::from_ids(self.pipe_naive.iter().chain(written_naive.iter()));
                let written_fast = fast.range(addr(*off), *len, &mut self.store);
                self.pipe_fast = self.store.union(self.pipe_fast, written_fast);
            }
            DiffOp::PipeRead { off, len } => {
                naive.set_range(addr(*off), *len, &self.pipe_naive);
                fast.set_range(addr(*off), *len, self.pipe_fast);
            }
            DiffOp::SetReg { reg, srcs } => {
                let ids: Vec<SourceId> = srcs.iter().map(|s| self.srcs[*s]).collect();
                naive.set_reg(Reg::ALL[*reg], TagSet::from_ids(ids.iter().copied()));
                let tag = self.store.from_ids(ids.iter().copied());
                fast.set_reg(Reg::ALL[*reg], tag);
            }
            DiffOp::Apply { dst, src1, src2, imm, hw } => {
                let taint_op = TaintOp {
                    dst: dst.loc(base),
                    srcs: [src1.as_ref().map(|l| l.loc(base)), src2.as_ref().map(|l| l.loc(base))],
                    imm: *imm,
                    hardware: *hw,
                };
                naive.apply(&taint_op, self.binary, self.hardware);
                let b = self.store.single(self.binary);
                let h = self.store.single(self.hardware);
                fast.apply(&taint_op, b, h, &mut self.store);
            }
            DiffOp::Fork { from } => {
                self.naive[from + 1] = self.naive[*from].clone();
                self.fast[from + 1] = self.fast[*from].fork();
            }
        }
    }

    /// The arena span (offset, length) an op touches (for targeted
    /// post-op checks).
    fn touched(op: &DiffOp) -> Option<(u32, u32)> {
        match op {
            DiffOp::SetByte { off, .. } => Some((*off, 1)),
            DiffOp::SetRange { off, len, .. } => Some((*off, *len)),
            DiffOp::SetRangeMulti { off, len, .. } => Some((*off, *len)),
            DiffOp::PipeWrite { .. } => None,
            DiffOp::PipeRead { off, len } => Some((*off, *len)),
            DiffOp::SetReg { .. } | DiffOp::Fork { .. } => None,
            DiffOp::Apply { dst, .. } => match dst {
                LocSpec::Mem { off, len } => Some((*off, *len)),
                LocSpec::Reg(_) => None,
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lock-step equivalence of naive and compressed shadows, across
    /// copy-on-write forks.
    #[test]
    fn compressed_shadow_matches_naive_oracle(
        base in (0..ANCHORS.len()).prop_map(|i| ANCHORS[i]),
        ops in prop::collection::vec((op_strategy(), 0usize..3), 1..48),
    ) {
        let mut h = Harness::new(base);
        for (op, on) in &ops {
            h.step(op, *on);
            for side in 0..3 {
                // Registers must agree after every single operation.
                for reg in Reg::ALL {
                    let naive: Vec<SourceId> = h.naive[side].reg(reg).iter().collect();
                    let fast_ref = h.fast[side].reg(reg);
                    prop_assert_eq!(
                        &naive,
                        &h.resolve(fast_ref),
                        "reg {:?} of shadow {} after {:?} on {}",
                        reg,
                        side,
                        op,
                        on
                    );
                }
                // The touched range must resolve identically, including
                // a widened window to catch off-by-one page-boundary bugs.
                if let Some((off, len)) = Harness::touched(op) {
                    let lo = off.saturating_sub(2);
                    let wide = (len + 4).min(ARENA - lo);
                    let naive: Vec<SourceId> =
                        h.naive[side].range(h.addr(lo), wide).iter().collect();
                    let fast_ref = h.fast[side].range(h.addr(lo), wide, &mut h.store);
                    prop_assert_eq!(
                        &naive,
                        &h.resolve(fast_ref),
                        "range of shadow {} after {:?} on {}",
                        side,
                        op,
                        on
                    );
                }
            }
            // The modeled pipe's accumulated tag must agree — the
            // laundering path keeps taint across fd plumbing.
            let pipe_naive: Vec<SourceId> = h.pipe_naive.iter().collect();
            let pipe_fast = h.pipe_fast;
            prop_assert_eq!(&pipe_naive, &h.resolve(pipe_fast), "pipe tag after {:?}", op);
        }
        for side in 0..3 {
            // Final sweep: every byte of the arena agrees.
            for off in 0..ARENA {
                let addr = h.addr(off);
                let naive: Vec<SourceId> = h.naive[side].byte(addr).iter().collect();
                let fast_ref = h.fast[side].byte(addr);
                prop_assert_eq!(
                    &naive,
                    &h.resolve(fast_ref),
                    "byte {:#x} of shadow {} diverged",
                    addr,
                    side
                );
            }
            // And the whole-arena union agrees (exercises the
            // page-skipping fast path against the per-byte fold).
            let naive: Vec<SourceId> = h.naive[side].range(base, ARENA).iter().collect();
            let fast_ref = h.fast[side].range(base, ARENA, &mut h.store);
            prop_assert_eq!(&naive, &h.resolve(fast_ref), "whole-arena union of shadow {}", side);
        }
    }
}
