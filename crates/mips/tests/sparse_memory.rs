//! Differential tests of the sparse physical memory.
//!
//! Random operation sequences run on a machine's [`Memory`] and on a dense
//! byte-vector reference model side by side. Every read, every bus error,
//! every page write-version, the set of resident pages and the snapshot's
//! page set must match the model. Addresses cluster around page boundaries
//! so multi-byte accesses straddle pages, and physical memory ends in a
//! partial page.

use efex_mips::machine::Machine;
use efex_mips::mem::{BusError, Memory, PAGE_BYTES};
use proptest::prelude::*;

/// Two whole pages plus 904 bytes of a third.
const SIZE: usize = 2 * PAGE_BYTES + 904;

/// The dense reference: the byte array physical memory used to be, plus
/// the page versions and the pages that must hold storage.
struct Dense {
    bytes: Vec<u8>,
    versions: Vec<u32>,
    resident: Vec<bool>,
}

impl Dense {
    fn new() -> Dense {
        let pages = SIZE.div_ceil(PAGE_BYTES);
        Dense {
            bytes: vec![0; SIZE],
            versions: vec![0; pages],
            resident: vec![false; pages],
        }
    }

    fn check(&self, paddr: u32, len: usize) -> Result<usize, BusError> {
        if paddr as usize + len > SIZE {
            return Err(BusError { paddr });
        }
        Ok(paddr as usize)
    }

    fn pages(i: usize, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        i / PAGE_BYTES..(i + len - 1) / PAGE_BYTES + 1
    }

    /// A `u8`/`u16`/`u32` write: bumps the first page only.
    fn write_scalar(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        let i = self.check(paddr, data.len())?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        for p in Dense::pages(i, data.len()) {
            self.resident[p] = true;
        }
        self.versions[i / PAGE_BYTES] += 1;
        Ok(())
    }

    fn write_bytes(&mut self, paddr: u32, data: &[u8]) -> Result<(), BusError> {
        let i = self.check(paddr, data.len())?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        for p in Dense::pages(i, data.len()) {
            self.resident[p] = true;
            self.versions[p] += 1;
        }
        Ok(())
    }

    fn zero(&mut self, paddr: u32, len: usize) -> Result<(), BusError> {
        let i = self.check(paddr, len)?;
        self.bytes[i..i + len].fill(0);
        for p in Dense::pages(i, len) {
            // Covered from its start to its end, or to the end of memory.
            let covered = i <= p * PAGE_BYTES && i + len >= ((p + 1) * PAGE_BYTES).min(SIZE);
            if covered {
                self.resident[p] = false;
            }
            self.versions[p] += 1;
        }
        Ok(())
    }

    fn read(&self, paddr: u32, len: usize) -> Result<Vec<u8>, BusError> {
        let i = self.check(paddr, len)?;
        Ok(self.bytes[i..i + len].to_vec())
    }

    /// What a byte-by-byte scan finds: the non-zero pages, zero-padded.
    fn nonzero_pages(&self) -> Vec<(u32, Vec<u8>)> {
        (0u32..)
            .zip(self.bytes.chunks(PAGE_BYTES))
            .filter(|(_, page)| page.iter().any(|&b| b != 0))
            .map(|(idx, page)| {
                let mut page = page.to_vec();
                page.resize(PAGE_BYTES, 0);
                (idx, page)
            })
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    W8(u32, u8),
    W16(u32, u16),
    W32(u32, u32),
    /// `len` bytes `fill, fill + step, fill + 2 * step, ...` (all zero for
    /// `fill == step == 0`).
    Bytes(u32, usize, u8, u8),
    Zero(u32, usize),
    R8(u32),
    R16(u32),
    R32(u32),
    ReadInto(u32, usize),
}

/// Mostly within a few bytes of a page boundary, sometimes anywhere, and
/// sometimes just past the end of memory.
fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..4, 0u32..12).prop_map(|(page, d)| (page * PAGE_BYTES as u32 + d).saturating_sub(6)),
        0u32..SIZE as u32,
        (0u32..8).prop_map(|d| SIZE as u32 - 4 + d),
    ]
}

fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..16, 0usize..2 * PAGE_BYTES + 1, Just(PAGE_BYTES)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_addr(), any::<u8>()).prop_map(|(a, v)| Op::W8(a, v)),
        (arb_addr(), any::<u16>()).prop_map(|(a, v)| Op::W16(a, v)),
        (arb_addr(), any::<u32>()).prop_map(|(a, v)| Op::W32(a, v)),
        (arb_addr(), arb_len(), 0u8..3, 0u8..3).prop_map(|(a, n, f, s)| Op::Bytes(a, n, f, s)),
        (arb_addr(), arb_len()).prop_map(|(a, n)| Op::Zero(a, n)),
        // To the end of memory, which ends inside a page.
        arb_addr().prop_map(|a| Op::Zero(a, SIZE.saturating_sub(a as usize))),
        arb_addr().prop_map(Op::R8),
        arb_addr().prop_map(Op::R16),
        arb_addr().prop_map(Op::R32),
        (arb_addr(), arb_len()).prop_map(|(a, n)| Op::ReadInto(a, n)),
    ]
}

/// Applies `op` to both memories; the results must agree.
fn apply(mem: &mut Memory, dense: &mut Dense, op: &Op) -> Result<(), String> {
    let same = |what: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
        let (a, b) = (format!("{a:?}"), format!("{b:?}"));
        if a == b {
            Ok(())
        } else {
            Err(format!("{what}: sparse {a} vs dense {b}"))
        }
    };
    match *op {
        Op::W8(a, v) => same(
            "write_u8",
            &mem.write_u8(a, v),
            &dense.write_scalar(a, &[v]),
        ),
        Op::W16(a, v) => same(
            "write_u16",
            &mem.write_u16(a, v),
            &dense.write_scalar(a, &v.to_le_bytes()),
        ),
        Op::W32(a, v) => same(
            "write_u32",
            &mem.write_u32(a, v),
            &dense.write_scalar(a, &v.to_le_bytes()),
        ),
        Op::Bytes(a, n, fill, step) => {
            let data: Vec<u8> = (0..n)
                .map(|k| fill.wrapping_add(step.wrapping_mul(k as u8)))
                .collect();
            same(
                "write_bytes",
                &mem.write_bytes(a, &data),
                &dense.write_bytes(a, &data),
            )
        }
        Op::Zero(a, n) => same("zero", &mem.zero(a, n), &dense.zero(a, n)),
        Op::R8(a) => same("read_u8", &mem.read_u8(a), &dense.read(a, 1).map(|b| b[0])),
        Op::R16(a) => same(
            "read_u16",
            &mem.read_u16(a),
            &dense.read(a, 2).map(|b| u16::from_le_bytes([b[0], b[1]])),
        ),
        Op::R32(a) => same(
            "read_u32",
            &mem.read_u32(a),
            &dense
                .read(a, 4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        ),
        Op::ReadInto(a, n) => {
            let mut out = vec![0xaa; n];
            let got = mem.read_into(a, &mut out).map(|()| out);
            same("read_into", &got, &dense.read(a, n))
        }
    }
}

/// Whole-state agreement: contents, every page version (and one past the
/// end), and the resident page set.
fn same_state(mem: &Memory, dense: &Dense) -> Result<(), String> {
    let mut all = vec![0; SIZE];
    mem.read_into(0, &mut all).map_err(|e| e.to_string())?;
    if all != dense.bytes {
        return Err("contents diverged".into());
    }
    for page in 0..=dense.versions.len() {
        let paddr = (page * PAGE_BYTES) as u32;
        let want = dense.versions.get(page).copied().unwrap_or(0);
        if mem.page_version(paddr) != want {
            return Err(format!(
                "page {page} version {} vs {want}",
                mem.page_version(paddr)
            ));
        }
    }
    let resident: Vec<u32> = mem.resident_pages().map(|(idx, _)| idx).collect();
    let want: Vec<u32> = (0u32..)
        .zip(&dense.resident)
        .filter_map(|(idx, &r)| r.then_some(idx))
        .collect();
    if resident != want {
        return Err(format!("resident pages {resident:?} vs {want:?}"));
    }
    Ok(())
}

proptest! {
    #[test]
    fn sparse_memory_matches_a_dense_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut m = Machine::new(SIZE);
        let mut dense = Dense::new();
        for (k, op) in ops.iter().enumerate() {
            apply(m.mem_mut(), &mut dense, op)
                .map_err(|e| TestCaseError::fail(format!("op {k} {op:?}: {e}")))?;
            same_state(m.mem(), &dense)
                .map_err(|e| TestCaseError::fail(format!("after op {k} {op:?}: {e}")))?;
        }
        let snap = m.snapshot();
        prop_assert_eq!(snap.mem_size as usize, SIZE);
        prop_assert!(snap.pages == dense.nonzero_pages(), "snapshot page set diverged");
    }
}

#[test]
fn written_then_zeroed_pages_stay_out_of_the_snapshot() {
    let mut m = Machine::new(SIZE);
    let mem = m.mem_mut();
    // Page 0: written, then zeroed in part — resident but all zero.
    mem.write_u32(0x10, 0xdead_beef).unwrap();
    mem.zero(0x10, 4).unwrap();
    // Page 1: written, then zeroed whole — released.
    mem.write_bytes(PAGE_BYTES as u32, &[7; PAGE_BYTES])
        .unwrap();
    mem.zero(PAGE_BYTES as u32, PAGE_BYTES).unwrap();
    // Page 2 (partial): a zero write allocates it.
    mem.write_u8(2 * PAGE_BYTES as u32, 0).unwrap();
    let resident: Vec<u32> = m.mem().resident_pages().map(|(idx, _)| idx).collect();
    assert_eq!(resident, [0, 2]);
    assert!(m.snapshot().pages.is_empty());
    assert_eq!(m.mem().page_version(0), 2);
    assert_eq!(m.mem().page_version(PAGE_BYTES as u32), 2);
}

#[test]
fn straddling_writes_bump_the_first_page_only() {
    let mut m = Machine::new(SIZE);
    let mem = m.mem_mut();
    let edge = PAGE_BYTES as u32;
    mem.write_u32(edge - 2, 0x4433_2211).unwrap();
    mem.write_u16(2 * edge - 1, 0x6655).unwrap();
    assert_eq!(mem.page_version(0), 1);
    assert_eq!(mem.page_version(edge), 1);
    assert_eq!(mem.page_version(2 * edge), 0);
    assert_eq!(mem.read_u32(edge - 2).unwrap(), 0x4433_2211);
    assert_eq!(mem.read_u16(2 * edge - 1).unwrap(), 0x6655);
    assert_eq!(mem.read_u8(2 * edge).unwrap(), 0x66);
    let resident: Vec<u32> = mem.resident_pages().map(|(idx, _)| idx).collect();
    assert_eq!(resident, [0, 1, 2]);
}
