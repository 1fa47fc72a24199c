//! Pure instruction semantics: the one home of the R3000 arithmetic that
//! decides what an instruction computes and where control goes next.
//!
//! Every consumer calls these functions instead of re-deriving the rules:
//! the interpreter's `Machine::execute` (which the superblock engine
//! shares), the kernel's delay-slot branch re-evaluation in `efex-simos`
//! (subpage and unaligned-access emulation), the disassembler, and the
//! `efex-verify` control-flow, call-graph and symbolic passes. The executed
//! and the proved semantics therefore cannot drift apart.
//!
//! - [`alu_fields`] — which registers an ALU instruction reads and writes.
//! - [`alu_result`] — the result an ALU instruction writes, or `None` when
//!   the instruction is not a foldable ALU operation (loads, stores,
//!   control transfers, CP0 moves, `mult`/`div` pairs) or traps.
//! - [`branch_taken`] — whether a conditional branch is taken.
//! - [`alu_overflows`] — whether a trapping add/sub raises `Overflow`.
//! - [`branch_target`] / [`jump_target`] — where a PC-relative branch or a
//!   `j`/`jal` transfers to.
//!
//! The functions are *total* over their domain: they never panic, matching
//! the hardware they model.

use crate::isa::{Instruction, Reg};

/// The `(destination, rs, rt)` register fields of an instruction that
/// [`alu_result`] folds, with `$zero` standing in for an operand the
/// instruction does not read (its value is then ignored). `None` for every
/// other instruction.
pub fn alu_fields(inst: Instruction) -> Option<(Reg, Reg, Reg)> {
    use Instruction::*;
    Some(match inst {
        Sll { rd, rt, .. } | Srl { rd, rt, .. } | Sra { rd, rt, .. } => (rd, Reg::ZERO, rt),
        Sllv { rd, rs, rt }
        | Srlv { rd, rs, rt }
        | Srav { rd, rs, rt }
        | Add { rd, rs, rt }
        | Addu { rd, rs, rt }
        | Sub { rd, rs, rt }
        | Subu { rd, rs, rt }
        | And { rd, rs, rt }
        | Or { rd, rs, rt }
        | Xor { rd, rs, rt }
        | Nor { rd, rs, rt }
        | Slt { rd, rs, rt }
        | Sltu { rd, rs, rt } => (rd, rs, rt),
        Addi { rt, rs, .. }
        | Addiu { rt, rs, .. }
        | Slti { rt, rs, .. }
        | Sltiu { rt, rs, .. }
        | Andi { rt, rs, .. }
        | Ori { rt, rs, .. }
        | Xori { rt, rs, .. } => (rt, rs, Reg::ZERO),
        Lui { rt, .. } => (rt, Reg::ZERO, Reg::ZERO),
        _ => return None,
    })
}

/// The concrete result written by a foldable ALU instruction, given the
/// values of its source registers.
///
/// `rs` and `rt` are the values of the instruction's `rs`/`rt` (or
/// `base`/`rt`) register fields; unused operands are ignored. Returns `None`
/// for instructions that are not simple register-writing ALU operations
/// (memory accesses, branches, `mult`/`div` — which write HI/LO — CP0 moves,
/// and system instructions), and for trapping `add`/`addi`/`sub` *when the
/// operation would overflow* (the instruction then writes nothing and raises
/// [`crate::exception::ExcCode::Overflow`]).
///
/// ```
/// use efex_mips::isa::{Instruction, Reg};
/// use efex_mips::sem::alu_result;
/// let i = Instruction::Addiu { rt: Reg::T0, rs: Reg::T1, imm: -4 };
/// assert_eq!(alu_result(i, 100, 0), Some(96));
/// ```
// Always inlined: each of the interpreter's per-variant call sites then
// folds this match to the one case it needs.
#[inline(always)]
pub fn alu_result(inst: Instruction, rs: u32, rt: u32) -> Option<u32> {
    use Instruction::*;
    Some(match inst {
        Sll { shamt, .. } => rt << shamt,
        Srl { shamt, .. } => rt >> shamt,
        Sra { shamt, .. } => ((rt as i32) >> shamt) as u32,
        Sllv { .. } => rt << (rs & 31),
        Srlv { .. } => rt >> (rs & 31),
        Srav { .. } => ((rt as i32) >> (rs & 31)) as u32,
        Add { .. } => (rs as i32).checked_add(rt as i32)? as u32,
        Addu { .. } => rs.wrapping_add(rt),
        Sub { .. } => (rs as i32).checked_sub(rt as i32)? as u32,
        Subu { .. } => rs.wrapping_sub(rt),
        And { .. } => rs & rt,
        Or { .. } => rs | rt,
        Xor { .. } => rs ^ rt,
        Nor { .. } => !(rs | rt),
        Slt { .. } => ((rs as i32) < (rt as i32)) as u32,
        Sltu { .. } => (rs < rt) as u32,
        Addi { imm, .. } => (rs as i32).checked_add(imm as i32)? as u32,
        Addiu { imm, .. } => rs.wrapping_add(imm as i32 as u32),
        Slti { imm, .. } => ((rs as i32) < (imm as i32)) as u32,
        Sltiu { imm, .. } => (rs < (imm as i32 as u32)) as u32,
        Andi { imm, .. } => rs & (imm as u32),
        Ori { imm, .. } => rs | (imm as u32),
        Xori { imm, .. } => rs ^ (imm as u32),
        Lui { imm, .. } => (imm as u32) << 16,
        _ => return None,
    })
}

/// Whether a trapping `add`/`addi`/`sub` overflows (and therefore raises an
/// exception instead of writing its destination) for the given operand
/// values. Always `false` for non-trapping instructions.
pub fn alu_overflows(inst: Instruction, rs: u32, rt: u32) -> bool {
    use Instruction::*;
    matches!(inst, Add { .. } | Sub { .. } | Addi { .. }) && alu_result(inst, rs, rt).is_none()
}

/// Whether a conditional branch is taken, given its source register values.
///
/// Returns `None` for instructions that are not conditional branches
/// (unconditional jumps transfer control regardless; everything else falls
/// through).
#[inline(always)]
pub fn branch_taken(inst: Instruction, rs: u32, rt: u32) -> Option<bool> {
    use Instruction::*;
    Some(match inst {
        Beq { .. } => rs == rt,
        Bne { .. } => rs != rt,
        Blez { .. } => (rs as i32) <= 0,
        Bgtz { .. } => (rs as i32) > 0,
        Bltz { .. } | Bltzal { .. } => (rs as i32) < 0,
        Bgez { .. } | Bgezal { .. } => (rs as i32) >= 0,
        _ => return None,
    })
}

/// The target of a PC-relative branch at `pc`: the delay slot's address
/// plus the sign-extended word offset.
#[inline]
pub fn branch_target(pc: u32, imm: i16) -> u32 {
    pc.wrapping_add(4)
        .wrapping_add((i32::from(imm) << 2) as u32)
}

/// The target of a `j`/`jal` at `pc`: the 26-bit word index within the
/// 256 MB region of the delay slot.
#[inline]
pub fn jump_target(pc: u32, target: u32) -> u32 {
    (pc.wrapping_add(4) & 0xf000_0000) | (target << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r3(_: ()) -> (Reg, Reg, Reg) {
        (Reg::T0, Reg::T1, Reg::T2)
    }

    #[test]
    fn alu_matches_two_complement_semantics() {
        let (rd, rs, rt) = r3(());
        assert_eq!(
            alu_result(Instruction::Addu { rd, rs, rt }, u32::MAX, 1),
            Some(0)
        );
        assert_eq!(
            alu_result(Instruction::Sub { rd, rs, rt }, 5, 7),
            Some((-2i32) as u32)
        );
        assert_eq!(
            alu_result(Instruction::Sra { rd, rt, shamt: 4 }, 0, 0x8000_0000),
            Some(0xf800_0000)
        );
        assert_eq!(alu_result(Instruction::Sltu { rd, rs, rt }, 1, 2), Some(1));
        assert_eq!(
            alu_result(
                Instruction::Slti {
                    rt: rd,
                    rs,
                    imm: -1
                },
                u32::MAX,
                0
            ),
            Some(0)
        );
        assert_eq!(
            alu_result(
                Instruction::Lui {
                    rt: rd,
                    imm: 0x8000
                },
                0,
                0
            ),
            Some(0x8000_0000)
        );
    }

    #[test]
    fn trapping_forms_refuse_to_fold_on_overflow() {
        let (rd, rs, rt) = r3(());
        assert_eq!(
            alu_result(Instruction::Add { rd, rs, rt }, 0x7fff_ffff, 1),
            None
        );
        assert!(alu_overflows(
            Instruction::Add { rd, rs, rt },
            0x7fff_ffff,
            1
        ));
        assert!(!alu_overflows(
            Instruction::Addu { rd, rs, rt },
            0x7fff_ffff,
            1
        ));
        assert!(alu_overflows(
            Instruction::Addi { rt, rs, imm: -1 },
            0x8000_0000,
            0
        ));
    }

    #[test]
    fn branch_conditions() {
        let (_, rs, rt) = r3(());
        assert_eq!(
            branch_taken(Instruction::Beq { rs, rt, imm: 1 }, 3, 3),
            Some(true)
        );
        assert_eq!(
            branch_taken(Instruction::Bne { rs, rt, imm: 1 }, 3, 3),
            Some(false)
        );
        assert_eq!(
            branch_taken(Instruction::Bltz { rs, imm: 1 }, 0x8000_0000, 0),
            Some(true)
        );
        assert_eq!(
            branch_taken(Instruction::Bgez { rs, imm: 1 }, 0, 0),
            Some(true)
        );
        assert_eq!(branch_taken(Instruction::J { target: 0 }, 0, 0), None);
    }

    #[test]
    fn alu_fields_cover_exactly_the_folded_instructions() {
        // Every primary opcode and SPECIAL function; 0 + 0 never overflows,
        // so `alu_result` is `Some` precisely for the foldable ALU ops.
        for op in 0..64u32 {
            for funct in 0..64u32 {
                let Ok(i) = crate::decode::decode((op << 26) | (1 << 21) | (2 << 16) | funct)
                else {
                    continue;
                };
                assert_eq!(
                    alu_fields(i).is_some(),
                    alu_result(i, 0, 0).is_some(),
                    "{i}"
                );
            }
        }
    }

    #[test]
    fn transfer_targets() {
        assert_eq!(branch_target(0x0040_0010, 3), 0x0040_0020);
        assert_eq!(branch_target(0x0040_0010, -1), 0x0040_0010);
        assert_eq!(branch_target(0xffff_fffc, 0), 0);
        // The region comes from the delay slot, not the jump itself.
        assert_eq!(jump_target(0x8000_0100, 0x40), 0x8000_0100);
        assert_eq!(jump_target(0x0fff_fffc, 0x40), 0x1000_0100);
    }

    #[test]
    fn non_alu_instructions_do_not_fold() {
        assert_eq!(
            alu_result(
                Instruction::Lw {
                    rt: Reg::T0,
                    base: Reg::SP,
                    imm: 0
                },
                0,
                0
            ),
            None
        );
        assert_eq!(alu_result(Instruction::Rfe, 0, 0), None);
        assert_eq!(
            alu_result(
                Instruction::Mult {
                    rs: Reg::T0,
                    rt: Reg::T1
                },
                2,
                3
            ),
            None
        );
    }
}
