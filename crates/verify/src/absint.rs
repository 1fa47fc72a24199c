//! A small abstract interpretation over register values.
//!
//! The memory-reference lint must *prove* that every address the handler
//! touches lands inside a pinned region, including the comm-page frame
//! computed as `base + 32*code` where `base` comes from a u-area load and
//! `code` from masking the cause register. The domain therefore tracks
//! constants, aligned ranges, and region-relative pointers:
//!
//! - [`AbsVal::Range`] `{lo, hi, align}` means the value is in `[lo, hi]`
//!   and congruent to `lo` modulo `align` (`align == 0` means exactly
//!   `lo`, i.e. `lo == hi`).
//! - [`AbsVal::Ptr`] carries the same range as an *offset from the base of
//!   a pinned region* whose absolute address may only be known at run time.
//!
//! Alongside values, each state tracks which registers still hold their
//! handler-entry contents (the *orig* bits): the save-set pass uses them to
//! tell a genuine register save apart from a data store through the same
//! register.

use std::collections::BTreeMap;

use efex_mips::isa::{Instruction, Reg};
use efex_mips::sem;

use crate::cfg::Cfg;
use crate::VerifyConfig;

/// Greatest common divisor, with `gcd(0, x) == x`.
fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// An abstract register value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AbsVal {
    /// Unreached (identity of join).
    #[default]
    Bot,
    /// Exactly this value.
    Const(u32),
    /// In `[lo, hi]`, congruent to `lo` modulo `align` (0 = exact).
    Range {
        /// Inclusive lower bound.
        lo: u32,
        /// Inclusive upper bound.
        hi: u32,
        /// Congruence modulus of `value - lo` (0 when `lo == hi`).
        align: u32,
    },
    /// Offset into pinned region `region`: the offset is in `[lo, hi]` and
    /// congruent to `lo` modulo `align`.
    Ptr {
        /// Index into [`VerifyConfig::pinned`].
        region: usize,
        /// Inclusive lower offset bound.
        lo: u32,
        /// Inclusive upper offset bound.
        hi: u32,
        /// Congruence modulus of `offset - lo` (0 when `lo == hi`).
        align: u32,
    },
    /// Anything.
    Unknown,
}

impl AbsVal {
    fn range(lo: u32, hi: u32, align: u32) -> AbsVal {
        if lo == hi {
            AbsVal::Const(lo)
        } else {
            AbsVal::Range { lo, hi, align }
        }
    }

    /// `(lo, hi, effective align)` of a numeric value, when bounded.
    fn bounds(self) -> Option<(u32, u32, u32)> {
        match self {
            AbsVal::Const(c) => Some((c, c, 0)),
            AbsVal::Range { lo, hi, align } => Some((lo, hi, align)),
            _ => None,
        }
    }

    /// Least upper bound of two values.
    pub fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bot, v) | (v, Bot) => v,
            (a, b) if a == b => a,
            (Const(a), Const(b)) => AbsVal::range(a.min(b), a.max(b), a.abs_diff(b)),
            (Const(c), Range { lo, hi, align }) | (Range { lo, hi, align }, Const(c)) => {
                AbsVal::range(
                    lo.min(c),
                    hi.max(c),
                    gcd(gcd(align, lo.abs_diff(c)), hi.abs_diff(c)),
                )
            }
            (
                Range {
                    lo: l1,
                    hi: h1,
                    align: a1,
                },
                Range {
                    lo: l2,
                    hi: h2,
                    align: a2,
                },
            ) => AbsVal::range(l1.min(l2), h1.max(h2), gcd(gcd(a1, a2), l1.abs_diff(l2))),
            (
                Ptr {
                    region: r1,
                    lo: l1,
                    hi: h1,
                    align: a1,
                },
                Ptr {
                    region: r2,
                    lo: l2,
                    hi: h2,
                    align: a2,
                },
            ) if r1 == r2 => {
                let (lo, hi) = (l1.min(l2), h1.max(h2));
                let align = gcd(gcd(a1, a2), l1.abs_diff(l2));
                Ptr {
                    region: r1,
                    lo,
                    hi,
                    align: if lo == hi { 0 } else { align },
                }
            }
            _ => Unknown,
        }
    }

    fn add(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Const(a), Const(b)) => Const(a.wrapping_add(b)),
            (
                Ptr {
                    region,
                    lo,
                    hi,
                    align,
                },
                v,
            )
            | (
                v,
                Ptr {
                    region,
                    lo,
                    hi,
                    align,
                },
            ) => match v.bounds() {
                Some((vl, vh, va)) => {
                    let (Some(nl), Some(nh)) = (lo.checked_add(vl), hi.checked_add(vh)) else {
                        return Unknown;
                    };
                    Ptr {
                        region,
                        lo: nl,
                        hi: nh,
                        align: if nl == nh { 0 } else { gcd(align, va) },
                    }
                }
                None => Unknown,
            },
            (a, b) => match (a.bounds(), b.bounds()) {
                (Some((al, ah, aa)), Some((bl, bh, ba))) => {
                    match (al.checked_add(bl), ah.checked_add(bh)) {
                        (Some(nl), Some(nh)) => AbsVal::range(nl, nh, gcd(aa, ba)),
                        _ => Unknown,
                    }
                }
                _ => Unknown,
            },
        }
    }

    fn add_imm(self, imm: i16) -> AbsVal {
        self.add(AbsVal::Const(imm as i32 as u32))
    }
}

/// Abstract machine state at one program point: per-register values plus
/// the bitmask of registers still holding their handler-entry contents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegState {
    /// Abstract value of each general-purpose register.
    pub regs: [AbsVal; 32],
    /// Bit `r` set: register `r` still holds its value from handler entry.
    pub orig: u32,
}

impl RegState {
    /// The state at a handler root: nothing known, everything original.
    pub fn entry() -> RegState {
        let mut regs = [AbsVal::Unknown; 32];
        regs[0] = AbsVal::Const(0);
        RegState { regs, orig: !0 }
    }

    /// The value of `r`.
    pub fn reg(&self, r: Reg) -> AbsVal {
        self.regs[r.number() as usize]
    }

    /// Whether `r` still holds its handler-entry value.
    pub fn is_orig(&self, r: Reg) -> bool {
        self.orig & (1 << r.number()) != 0
    }

    fn set(&mut self, r: Reg, v: AbsVal) {
        if r == Reg::ZERO {
            return;
        }
        self.regs[r.number() as usize] = v;
        self.orig &= !(1 << r.number());
    }

    fn join(&mut self, other: &RegState) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let j = self.regs[i].join(other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        let orig = self.orig & other.orig;
        if orig != self.orig {
            self.orig = orig;
            changed = true;
        }
        changed
    }
}

/// The abstract address of a load/store with base value `base` and signed
/// offset `imm`.
pub fn effective_address(base: AbsVal, imm: i16) -> AbsVal {
    base.add_imm(imm)
}

/// Transfer function: the state after executing `inst` in state `s`.
pub fn transfer(s: &RegState, inst: Instruction, config: &VerifyConfig) -> RegState {
    use Instruction::*;
    let mut out = *s;
    // Constant operands fold through the interpreter's own semantics.
    if let Some((rd, rs, rt)) = sem::alu_fields(inst) {
        if let (AbsVal::Const(a), AbsVal::Const(b)) = (s.reg(rs), s.reg(rt)) {
            if let Some(v) = sem::alu_result(inst, a, b) {
                out.set(rd, AbsVal::Const(v));
                return out;
            }
        }
    }
    match inst {
        Ori { rt, rs, imm: 0 } | Xori { rt, rs, imm: 0 } => out.set(rt, s.reg(rs)),
        Andi { rt, imm, .. } => out.set(rt, AbsVal::range(0, u32::from(imm), 1)),
        Addi { rt, rs, imm } | Addiu { rt, rs, imm } => out.set(rt, s.reg(rs).add_imm(imm)),
        Slti { rt, .. } | Sltiu { rt, .. } => out.set(rt, AbsVal::range(0, 1, 1)),
        Slt { rd, .. } | Sltu { rd, .. } => out.set(rd, AbsVal::range(0, 1, 1)),
        Sll { rd, rt, shamt } => {
            let sh = u32::from(shamt) & 31;
            let v = if sh == 0 {
                s.reg(rt)
            } else {
                match s.reg(rt).bounds() {
                    // No bit may shift out, or the bounds stop bounding.
                    Some((lo, hi, align)) if hi.leading_zeros() >= sh => {
                        let na = if align == 0 { 0 } else { align << sh };
                        AbsVal::range(lo << sh, hi << sh, na)
                    }
                    _ => AbsVal::Unknown,
                }
            };
            out.set(rd, v);
        }
        Srl { rd, rt, shamt } => {
            let sh = u32::from(shamt) & 31;
            let v = if sh == 0 {
                s.reg(rt)
            } else {
                match s.reg(rt).bounds() {
                    Some((lo, hi, _)) => AbsVal::range(lo >> sh, hi >> sh, 1),
                    None => AbsVal::Unknown,
                }
            };
            out.set(rd, v);
        }
        Add { rd, rs, rt } | Addu { rd, rs, rt } => out.set(rd, s.reg(rs).add(s.reg(rt))),
        Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
            let v = match (s.reg(rs), s.reg(rt)) {
                (
                    AbsVal::Ptr {
                        region,
                        lo,
                        hi,
                        align,
                    },
                    AbsVal::Const(c),
                ) => match (lo.checked_sub(c), hi.checked_sub(c)) {
                    (Some(nl), Some(nh)) => AbsVal::Ptr {
                        region,
                        lo: nl,
                        hi: nh,
                        align,
                    },
                    _ => AbsVal::Unknown,
                },
                _ => AbsVal::Unknown,
            };
            out.set(rd, v);
        }
        Or { rd, rs, rt } => {
            // `move rd, rs` assembles to `or rd, rs, $zero`.
            let v = match (s.reg(rs), s.reg(rt)) {
                (v, AbsVal::Const(0)) | (AbsVal::Const(0), v) => v,
                _ => AbsVal::Unknown,
            };
            out.set(rd, v);
        }
        Lw { rt, base, imm } => {
            let v = match effective_address(s.reg(base), imm) {
                AbsVal::Const(ea) => config
                    .pointer_slots
                    .iter()
                    .find(|slot| slot.addr == ea)
                    .map(|slot| AbsVal::Ptr {
                        region: slot.region,
                        lo: 0,
                        hi: 0,
                        align: 0,
                    })
                    .unwrap_or(AbsVal::Unknown),
                _ => AbsVal::Unknown,
            };
            out.set(rt, v);
        }
        _ => {
            if let Some(w) = crate::defuse::writes(inst) {
                out.set(w, AbsVal::Unknown);
            }
        }
    }
    out
}

/// Runs the dataflow fixpoint over `graph`, returning the abstract state at
/// the **entry** of every reachable instruction.
///
/// Returns an empty map when neither the memory-reference nor the save-set
/// pass is enabled (no consumer, and user benchmarks may contain loops the
/// precise domain would widen away anyway).
pub fn fixpoint(graph: &Cfg, config: &VerifyConfig) -> BTreeMap<u32, RegState> {
    if !config.checks.mem_refs && !config.checks.save_set {
        return BTreeMap::new();
    }
    let mut states: BTreeMap<u32, RegState> = BTreeMap::new();
    let mut updates: BTreeMap<u32, u32> = BTreeMap::new();
    let mut work: Vec<u32> = Vec::new();

    for root in std::iter::once(config.entry).chain(config.extra_roots.iter().copied()) {
        if graph.node(root).is_some() {
            states.insert(root, RegState::entry());
            work.push(root);
        }
    }

    while let Some(addr) = work.pop() {
        let Some(node) = graph.node(addr) else {
            continue;
        };
        let Some(&entry) = states.get(&addr) else {
            continue;
        };
        let out = transfer(&entry, node.inst, config);
        for &succ in &node.succs {
            if graph.node(succ).is_none() {
                continue;
            }
            let changed = match states.get_mut(&succ) {
                Some(st) => st.join(&out),
                None => {
                    states.insert(succ, out);
                    true
                }
            };
            if changed {
                let n = updates.entry(succ).or_insert(0);
                *n += 1;
                if *n > 64 {
                    // Widen a diverging loop state straight to ⊤.
                    let st = states.get_mut(&succ).expect("just updated");
                    let orig = st.orig;
                    *st = RegState {
                        regs: [AbsVal::Unknown; 32],
                        orig,
                    };
                    st.regs[0] = AbsVal::Const(0);
                }
                work.push(succ);
            }
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_of_consts_is_aligned_range() {
        let j = AbsVal::Const(0).join(AbsVal::Const(32));
        assert_eq!(
            j,
            AbsVal::Range {
                lo: 0,
                hi: 32,
                align: 32
            }
        );
        assert_eq!(AbsVal::Const(7).join(AbsVal::Const(7)), AbsVal::Const(7));
    }

    #[test]
    fn join_keeps_common_alignment() {
        let a = AbsVal::Range {
            lo: 0,
            hi: 64,
            align: 32,
        };
        let b = AbsVal::Range {
            lo: 8,
            hi: 40,
            align: 16,
        };
        assert_eq!(
            a.join(b),
            AbsVal::Range {
                lo: 0,
                hi: 64,
                align: 8
            }
        );
    }

    #[test]
    fn pointer_plus_aligned_range() {
        let p = AbsVal::Ptr {
            region: 0,
            lo: 0,
            hi: 0,
            align: 0,
        };
        let r = AbsVal::Range {
            lo: 0,
            hi: 992,
            align: 32,
        };
        assert_eq!(
            p.add(r),
            AbsVal::Ptr {
                region: 0,
                lo: 0,
                hi: 992,
                align: 32
            }
        );
    }

    #[test]
    fn bot_is_join_identity() {
        let v = AbsVal::Const(5);
        assert_eq!(AbsVal::Bot.join(v), v);
        assert_eq!(v.join(AbsVal::Bot), v);
    }
}
