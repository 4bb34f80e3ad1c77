//! Differential oracle: the lazily zero-filled, page-table-backed
//! `Memory` must behave exactly like the eager model it replaced.
//!
//! `Eager` below is that model: every mapped page is allocated and zeroed
//! up front in a hash map, and every multi-byte access is a byte loop.
//! Proptest drives both through the same random interleaving of maps,
//! byte and word accesses, buffer copies, C-string reads and forks
//! (a clone after which parent and child diverge). After every operation
//! both must return the same values and the same `MemFault` addresses,
//! leave the same bytes behind a partly faulting write, and agree on
//! which pages are mapped.

use std::collections::HashMap;

use proptest::prelude::*;

use hth_vm::{MemFault, Memory, PAGE_SIZE};

/// The pre-page-table memory: eager zeroed pages, byte-wise access.
#[derive(Clone, Default)]
struct Eager {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE as usize]>>,
}

impl Eager {
    fn map(&mut self, start: u32, end: u32) {
        let first = start / PAGE_SIZE;
        let last = end.saturating_add(PAGE_SIZE - 1) / PAGE_SIZE;
        for page in first..last {
            self.pages.entry(page).or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
        }
    }

    fn is_mapped(&self, addr: u32) -> bool {
        self.pages.contains_key(&(addr / PAGE_SIZE))
    }

    fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        let page = self.pages.get(&(addr / PAGE_SIZE)).ok_or(MemFault { addr })?;
        Ok(page[(addr % PAGE_SIZE) as usize])
    }

    fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        let page = self.pages.get_mut(&(addr / PAGE_SIZE)).ok_or(MemFault { addr })?;
        page[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(bytes))
    }

    fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemFault> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i))).collect()
    }

    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    fn read_cstr(&self, addr: u32, max: u32) -> Result<String, MemFault> {
        let mut bytes = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            bytes.push(b);
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

/// Places the operations cluster around: the bottom of the address space
/// (where accesses from the top page wrap to), a 4 MiB page-directory
/// boundary, the usual application base, the top of the stack, and the
/// top page.
const ANCHORS: [u32; 5] = [0x0000_0000, 0x0040_0000, 0x0804_8000, 0xc000_0000, 0xffff_f000];

/// How far from its anchor an address may fall, in bytes either way.
const REACH: i32 = 3 * PAGE_SIZE as i32;

#[derive(Clone, Debug)]
enum Op {
    Map {
        start: u32,
        len: u32,
    },
    ReadU8 {
        addr: u32,
    },
    WriteU8 {
        addr: u32,
        value: u8,
    },
    ReadU32 {
        addr: u32,
    },
    WriteU32 {
        addr: u32,
        value: u32,
    },
    ReadBytes {
        addr: u32,
        len: u32,
    },
    WriteBytes {
        addr: u32,
        bytes: Vec<u8>,
    },
    ReadCstr {
        addr: u32,
        max: u32,
    },
    /// The child becomes a copy of the parent.
    Fork,
}

/// An address near an anchor; page edges and the last bytes before a
/// boundary are drawn far more often than a uniform offset would draw
/// them.
fn addr_strategy() -> impl Strategy<Value = u32> {
    let near_edge = (-2 * PAGE_SIZE as i32..=2 * PAGE_SIZE as i32, -4i32..=4)
        .prop_map(|(off, nudge)| (off / PAGE_SIZE as i32) * PAGE_SIZE as i32 + nudge);
    (0usize..ANCHORS.len(), prop_oneof![-REACH..REACH, near_edge])
        .prop_map(|(anchor, off)| ANCHORS[anchor].wrapping_add(off as u32))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), 0u32..3 * PAGE_SIZE).prop_map(|(start, len)| Op::Map { start, len }),
        addr_strategy().prop_map(|addr| Op::ReadU8 { addr }),
        (addr_strategy(), any::<u8>()).prop_map(|(addr, value)| Op::WriteU8 { addr, value }),
        addr_strategy().prop_map(|addr| Op::ReadU32 { addr }),
        (addr_strategy(), any::<u32>()).prop_map(|(addr, value)| Op::WriteU32 { addr, value }),
        (addr_strategy(), 0u32..64).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
        (addr_strategy(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(addr, bytes)| Op::WriteBytes { addr, bytes }),
        (addr_strategy(), 0u32..64).prop_map(|(addr, max)| Op::ReadCstr { addr, max }),
        Just(Op::Fork),
    ]
}

/// One process's address space under both implementations.
#[derive(Clone, Default)]
struct Pair {
    lazy: Memory,
    eager: Eager,
}

impl Pair {
    /// Applies `op` to both sides and checks they return the same thing.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Map { start, len } => {
                let end = start.saturating_add(*len);
                self.lazy.map(*start, end);
                self.eager.map(*start, end);
            }
            Op::ReadU8 { addr } => {
                assert_eq!(self.lazy.read_u8(*addr), self.eager.read_u8(*addr), "{op:?}");
            }
            Op::WriteU8 { addr, value } => {
                let lazy = self.lazy.write_u8(*addr, *value);
                assert_eq!(lazy, self.eager.write_u8(*addr, *value), "{op:?}");
            }
            Op::ReadU32 { addr } => {
                assert_eq!(self.lazy.read_u32(*addr), self.eager.read_u32(*addr), "{op:?}");
            }
            Op::WriteU32 { addr, value } => {
                let lazy = self.lazy.write_u32(*addr, *value);
                assert_eq!(lazy, self.eager.write_u32(*addr, *value), "{op:?}");
            }
            Op::ReadBytes { addr, len } => {
                let lazy = self.lazy.read_bytes(*addr, *len);
                assert_eq!(lazy, self.eager.read_bytes(*addr, *len), "{op:?}");
            }
            Op::WriteBytes { addr, bytes } => {
                let lazy = self.lazy.write_bytes(*addr, bytes);
                assert_eq!(lazy, self.eager.write_bytes(*addr, bytes), "{op:?}");
            }
            Op::ReadCstr { addr, max } => {
                let lazy = self.lazy.read_cstr(*addr, *max);
                assert_eq!(lazy, self.eager.read_cstr(*addr, *max), "{op:?}");
            }
            Op::Fork => unreachable!("forks act on two address spaces"),
        }
    }

    /// Every byte an access starting at `addr` can reach (plus a margin
    /// on both sides) must read the same, so a partly faulting write
    /// leaves the same bytes behind.
    fn check_around(&self, addr: u32, len: u32, what: &str) {
        let lo = addr.wrapping_sub(4);
        for i in 0..len + 8 {
            let a = lo.wrapping_add(i);
            assert_eq!(self.lazy.read_u8(a), self.eager.read_u8(a), "byte {a:#x} after {what}");
        }
    }

    /// Both sides map the same pages near every anchor.
    fn check_mapped(&self, what: &str) {
        for anchor in ANCHORS {
            for page in -4i32..=4 {
                let a = anchor.wrapping_add((page * PAGE_SIZE as i32) as u32);
                assert_eq!(
                    self.lazy.is_mapped(a),
                    self.eager.is_mapped(a),
                    "is_mapped({a:#x}) after {what}"
                );
            }
        }
    }

    /// Every page the eager model maps holds the same bytes.
    fn check_all(&self) {
        for &page in self.eager.pages.keys() {
            let a = page * PAGE_SIZE;
            assert_eq!(
                self.lazy.read_bytes(a, PAGE_SIZE),
                self.eager.read_bytes(a, PAGE_SIZE),
                "page {a:#x}"
            );
        }
    }
}

/// The span of addresses an operation can touch.
fn touched(op: &Op) -> Option<(u32, u32)> {
    match op {
        Op::Map { .. } | Op::Fork => None,
        Op::ReadU8 { addr } | Op::WriteU8 { addr, .. } => Some((*addr, 1)),
        Op::ReadU32 { addr } | Op::WriteU32 { addr, .. } => Some((*addr, 4)),
        Op::ReadBytes { addr, len } | Op::ReadCstr { addr, max: len } => Some((*addr, *len)),
        Op::WriteBytes { addr, bytes } => Some((*addr, bytes.len() as u32)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lock-step equivalence of the lazy and eager address spaces,
    /// across forks.
    #[test]
    fn lazy_memory_matches_eager_model(
        ops in prop::collection::vec((op_strategy(), any::<bool>()), 1..64),
    ) {
        // [parent, child]; the child is empty until the first fork.
        let mut procs = [Pair::default(), Pair::default()];
        for (op, on_child) in &ops {
            if let Op::Fork = op {
                procs[1] = procs[0].clone();
            } else {
                let side = &mut procs[usize::from(*on_child)];
                side.apply(op);
                if let Some((addr, len)) = touched(op) {
                    side.check_around(addr, len, &format!("{op:?}"));
                }
            }
            for side in &procs {
                side.check_mapped(&format!("{op:?}"));
            }
        }
        for side in &procs {
            side.check_all();
        }
    }
}

/// The edge shapes the proptest aims at, pinned as plain tests so a
/// regression names itself without a proptest case number.
#[test]
fn edge_cases_match_the_eager_model() {
    let mut pair = Pair::default();
    // A mapping across the first 4 MiB directory boundary, unaligned at
    // both ends, and one at the very bottom of the address space.
    pair.apply(&Op::Map { start: 0x003f_f001, len: 0x1800 });
    pair.apply(&Op::Map { start: 0, len: 1 });
    // Up to the top page: the exclusive end can never reach it.
    pair.apply(&Op::Map { start: 0xffff_e000, len: u32::MAX });
    assert!(pair.lazy.is_mapped(0xffff_e000));
    assert!(!pair.lazy.is_mapped(0xffff_f000));
    pair.check_mapped("maps");
    let ops = [
        // Straddles the directory boundary.
        Op::WriteU32 { addr: 0x003f_fffe, value: 0x0102_0304 },
        Op::ReadU32 { addr: 0x003f_fffe },
        // Runs off the end of the mapping: two bytes land, then a fault.
        Op::WriteU32 { addr: 0x0040_0ffe, value: 0xaabb_ccdd },
        Op::ReadU32 { addr: 0x0040_0ffe },
        // Starts on the unmappable top page and would wrap to 0.
        Op::WriteU32 { addr: 0xffff_fffe, value: 0x1122_3344 },
        Op::ReadU32 { addr: 0xffff_fffe },
        Op::ReadBytes { addr: 0xffff_dffe, len: 8 },
        Op::WriteBytes { addr: 0xffff_effc, bytes: vec![1; 8] },
        Op::ReadCstr { addr: 0x003f_fffe, max: 16 },
        Op::ReadU8 { addr: 0x0040_1000 },
    ];
    for op in &ops {
        pair.apply(op);
        if let Some((addr, len)) = touched(op) {
            pair.check_around(addr, len, &format!("{op:?}"));
        }
    }
    assert_eq!(pair.lazy.read_u32(0x0040_0ffe), Err(MemFault { addr: 0x0040_1000 }));
    assert_eq!(pair.lazy.read_u8(0x0040_0fff), Ok(0xcc), "bytes before the fault stay written");
    assert_eq!(pair.lazy.read_u32(0xffff_fffe), Err(MemFault { addr: 0xffff_fffe }));
    pair.check_all();
}
