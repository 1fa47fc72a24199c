//! Per-instruction semantic tests: each case assembles a small program,
//! runs it to an `hcall`, and checks the architectural result against the
//! MIPS-I definition.

use efex_mips::asm::assemble;
use efex_mips::isa::Reg;
use efex_mips::machine::{Machine, StopReason};
use efex_mips::ExcCode;

/// Runs a program body (with `$t0`/`$t1` preloaded) and returns the machine.
fn run(setup: &str, body: &str) -> Machine {
    let src = format!(".org 0x80002000\nmain:\n{setup}\n{body}\n    hcall 0\n");
    let prog = assemble(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut m = Machine::new(1 << 20);
    m.load_image(&prog).unwrap();
    m.set_pc(prog.entry());
    match m.run(10_000) {
        StopReason::HostCall(_) => m,
        other => panic!("did not reach hcall: {other:?}"),
    }
}

/// Runs with `$t0 = a`, `$t1 = b` and one result instruction into `$t2`.
fn alu(a: u32, b: u32, op: &str) -> u32 {
    let m = run(
        &format!("    li $t0, {}\n    li $t1, {}", a as i32, b as i32),
        &format!("    {op} $t2, $t0, $t1"),
    );
    m.cpu().reg(Reg::T2)
}

#[test]
fn addu_subu_wrap() {
    assert_eq!(alu(3, 4, "addu"), 7);
    assert_eq!(alu(u32::MAX, 1, "addu"), 0);
    assert_eq!(alu(0, 1, "subu"), u32::MAX);
    assert_eq!(alu(10, 3, "subu"), 7);
}

#[test]
fn bitwise_ops() {
    assert_eq!(alu(0b1100, 0b1010, "and"), 0b1000);
    assert_eq!(alu(0b1100, 0b1010, "or"), 0b1110);
    assert_eq!(alu(0b1100, 0b1010, "xor"), 0b0110);
    assert_eq!(alu(0, 0, "nor"), u32::MAX);
    assert_eq!(alu(0xffff_0000, 0x0000_ffff, "nor"), 0);
}

#[test]
fn set_less_than_signed_vs_unsigned() {
    assert_eq!(alu(1, 2, "slt"), 1);
    assert_eq!(alu(2, 1, "slt"), 0);
    // -1 < 1 signed, but 0xffffffff > 1 unsigned.
    assert_eq!(alu(u32::MAX, 1, "slt"), 1);
    assert_eq!(alu(u32::MAX, 1, "sltu"), 0);
    assert_eq!(alu(1, u32::MAX, "sltu"), 1);
}

#[test]
fn shifts_immediate_and_variable() {
    let m = run(
        "    li $t0, 0x80000001\n    li $t1, 4",
        "    sll $t2, $t0, 1\n    srl $t3, $t0, 1\n    sra $t4, $t0, 1\n    sllv $t5, $t0, $t1\n    srlv $t6, $t0, $t1\n    srav $t7, $t0, $t1",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 0x0000_0002);
    assert_eq!(m.cpu().reg(Reg::T3), 0x4000_0000);
    assert_eq!(m.cpu().reg(Reg::T4), 0xc000_0000);
    assert_eq!(m.cpu().reg(Reg::T5), 0x0000_0010);
    assert_eq!(m.cpu().reg(Reg::T6), 0x0800_0000);
    assert_eq!(m.cpu().reg(Reg::T7), 0xf800_0000);
}

#[test]
fn variable_shift_uses_low_five_bits() {
    let m = run(
        "    li $t0, 1\n    li $t1, 33", // 33 & 31 = 1
        "    sllv $t2, $t0, $t1",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 2);
}

#[test]
fn mult_and_div_hi_lo() {
    let m = run(
        "    li $t0, -3\n    li $t1, 7",
        "    mult $t0, $t1\n    mflo $t2\n    mfhi $t3",
    );
    assert_eq!(m.cpu().reg(Reg::T2) as i32, -21);
    assert_eq!(m.cpu().reg(Reg::T3), u32::MAX, "sign extension in HI");

    let m = run(
        "    li $t0, 0x10000\n    li $t1, 0x10000",
        "    multu $t0, $t1\n    mflo $t2\n    mfhi $t3",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 0);
    assert_eq!(m.cpu().reg(Reg::T3), 1, "2^32 in HI:LO");

    let m = run(
        "    li $t0, -22\n    li $t1, 7",
        "    div $t0, $t1\n    mflo $t2\n    mfhi $t3",
    );
    assert_eq!(m.cpu().reg(Reg::T2) as i32, -3, "trunc toward zero");
    assert_eq!(
        m.cpu().reg(Reg::T3) as i32,
        -1,
        "remainder sign follows dividend"
    );

    let m = run(
        "    li $t0, 22\n    li $t1, 7",
        "    divu $t0, $t1\n    mflo $t2\n    mfhi $t3",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 3);
    assert_eq!(m.cpu().reg(Reg::T3), 1);
}

#[test]
fn mthi_mtlo_round_trip() {
    let m = run(
        "    li $t0, 123\n    li $t1, 456",
        "    mthi $t0\n    mtlo $t1\n    mfhi $t2\n    mflo $t3",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 123);
    assert_eq!(m.cpu().reg(Reg::T3), 456);
}

#[test]
fn immediate_alu_sign_and_zero_extension() {
    let m = run(
        "    li $t0, 0x100",
        "    addiu $t2, $t0, -1\n    andi $t3, $t0, 0xff00\n    ori $t4, $t0, 0x00ff\n    xori $t5, $t0, 0x0101\n    slti $t6, $t0, -1\n    sltiu $t7, $t0, 0xffff", // sltiu sign-extends then compares unsigned: 0xffffffff
    );
    assert_eq!(m.cpu().reg(Reg::T2), 0xff);
    assert_eq!(m.cpu().reg(Reg::T3), 0x100);
    assert_eq!(m.cpu().reg(Reg::T4), 0x1ff);
    assert_eq!(m.cpu().reg(Reg::T5), 0x001);
    assert_eq!(m.cpu().reg(Reg::T6), 0, "0x100 >= -1 signed");
    assert_eq!(m.cpu().reg(Reg::T7), 1, "0x100 < 0xffffffff unsigned");
}

#[test]
fn load_store_widths_and_sign_extension() {
    let m = run(
        "    la $t0, data",
        r#"
    lb   $t2, 0($t0)
    lbu  $t3, 0($t0)
    lh   $t4, 0($t0)
    lhu  $t5, 0($t0)
    lw   $t6, 0($t0)
    sb   $t6, 8($t0)
    sh   $t6, 10($t0)
    lw   $t7, 8($t0)
    b    end
    nop
data:
    .word 0x8081fefd, 0, 0
end:
"#,
    );
    // Little-endian: byte 0 = 0xfd, half 0 = 0xfefd.
    assert_eq!(m.cpu().reg(Reg::T2), 0xffff_fffd, "lb sign-extends");
    assert_eq!(m.cpu().reg(Reg::T3), 0x0000_00fd);
    assert_eq!(m.cpu().reg(Reg::T4), 0xffff_fefd, "lh sign-extends");
    assert_eq!(m.cpu().reg(Reg::T5), 0x0000_fefd);
    assert_eq!(m.cpu().reg(Reg::T6), 0x8081_fefd);
    // sb wrote 0xfd at +8; sh wrote 0xfefd at +10.
    assert_eq!(m.cpu().reg(Reg::T7), 0xfefd_00fd);
}

#[test]
fn all_branch_conditions() {
    // Each branch computes t2 += 1 when taken.
    let m = run(
        "    li $t0, -5\n    li $t1, 5\n    li $t2, 0",
        r#"
    beq  $t0, $t0, l1     # equal: taken
    nop
    j fail
    nop
l1: addiu $t2, $t2, 1
    bne  $t0, $t1, l2     # not equal: taken
    nop
    j fail
    nop
l2: addiu $t2, $t2, 1
    blez $t0, l3          # -5 <= 0: taken
    nop
    j fail
    nop
l3: addiu $t2, $t2, 1
    bgtz $t1, l4          # 5 > 0: taken
    nop
    j fail
    nop
l4: addiu $t2, $t2, 1
    bltz $t0, l5          # -5 < 0: taken
    nop
    j fail
    nop
l5: addiu $t2, $t2, 1
    bgez $t1, l6          # 5 >= 0: taken
    nop
    j fail
    nop
l6: addiu $t2, $t2, 1
    blez $t1, fail        # 5 <= 0: NOT taken
    nop
    bgtz $t0, fail        # -5 > 0: NOT taken
    nop
    b done
    nop
fail:
    li $t2, 0
done:
"#,
    );
    assert_eq!(m.cpu().reg(Reg::T2), 6);
}

#[test]
fn bltzal_bgezal_link_even_when_not_taken() {
    let m = run(
        "    li $t0, 1",
        r#"
    bltzal $t0, never     # not taken, but still links
    nop
    move $t3, $ra         # ra = addr of (bltzal + 8)
    b done
    nop
never:
    li $t2, 99
done:
"#,
    );
    assert_ne!(m.cpu().reg(Reg::T3), 0, "RA written even when untaken");
    assert_eq!(m.cpu().reg(Reg::T2), 0);
}

#[test]
fn jalr_uses_custom_link_register() {
    let m = run(
        "    la $t0, target",
        r#"
    jalr $t3, $t0
    nop
after:
    b done
    nop
target:
    jr $t3
    nop
done:
"#,
    );
    // The program returned through $t3 and finished.
    assert_ne!(m.cpu().reg(Reg::T3), 0);
}

#[test]
fn lui_clears_low_bits() {
    let m = run("    li $t0, 0xffff", "    lui $t2, 0x1234");
    assert_eq!(m.cpu().reg(Reg::T2), 0x1234_0000);
}

#[test]
fn overflow_exceptions_for_add_addi_sub() {
    for body in [
        "    li $t0, 0x7fffffff\n    li $t1, 1\n    add $t2, $t0, $t1",
        "    li $t0, 0x7fffffff\n    addi $t2, $t0, 1",
        "    li $t0, 0x80000000\n    li $t1, 1\n    sub $t2, $t0, $t1",
    ] {
        let src = format!(".org 0x80002000\nmain:\n{body}\n    hcall 0\n");
        let prog = assemble(&src).unwrap();
        let mut m = Machine::new(1 << 20);
        m.load_image(&prog).unwrap();
        m.set_pc(prog.entry());
        m.run(10);
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::Overflow), "{body}");
        assert_eq!(m.cpu().reg(Reg::T2), 0, "no partial result");
    }
}

#[test]
fn no_overflow_on_unsigned_variants() {
    assert_eq!(alu(0x7fff_ffff, 1, "addu"), 0x8000_0000);
    assert_eq!(alu(0x8000_0000, 1, "subu"), 0x7fff_ffff);
}

#[test]
fn division_by_zero_does_not_trap() {
    // MIPS-I leaves HI/LO undefined but must not raise.
    let m = run(
        "    li $t0, 5\n    li $t1, 0",
        "    div $t0, $t1\n    li $t2, 7",
    );
    assert_eq!(m.cpu().reg(Reg::T2), 7, "execution continued");
}

#[test]
fn consecutive_branches_resolve_in_order() {
    // A branch in another branch's target executes its own delay slot.
    let m = run(
        "    li $t2, 0",
        r#"
    b a
    addiu $t2, $t2, 1     # slot 1: executes
a:  b b
    addiu $t2, $t2, 10    # slot 2: executes
b:  addiu $t2, $t2, 100
"#,
    );
    assert_eq!(m.cpu().reg(Reg::T2), 111);
}

#[test]
fn comparison_branch_pseudo_instructions() {
    let m = run(
        "    li $t0, -5\n    li $t1, 5\n    li $t2, 0",
        r#"
    blt  $t0, $t1, c1     # -5 < 5 signed: taken
    nop
    j fail
    nop
c1: addiu $t2, $t2, 1
    bge  $t1, $t0, c2     # 5 >= -5: taken
    nop
    j fail
    nop
c2: addiu $t2, $t2, 1
    bgtu $t0, $t1, c3     # 0xfffffffb > 5 unsigned: taken
    nop
    j fail
    nop
c3: addiu $t2, $t2, 1
    bleu $t1, $t0, c4     # 5 <= 0xfffffffb unsigned: taken
    nop
    j fail
    nop
c4: addiu $t2, $t2, 1
    bgt  $t0, $t1, fail   # -5 > 5 signed: NOT taken
    nop
    ble  $t1, $t0, fail   # 5 <= -5 signed: NOT taken
    nop
    bltu $t0, $t1, fail   # unsigned: NOT taken
    nop
    b done
    nop
fail:
    li $t2, 0
done:
"#,
    );
    assert_eq!(m.cpu().reg(Reg::T2), 4);
}

#[test]
fn comparison_branches_do_not_clobber_sources() {
    let m = run(
        "    li $t0, 3\n    li $t1, 9",
        "    blt $t0, $t1, ok\n    nop\nok:\n",
    );
    assert_eq!(m.cpu().reg(Reg::T0), 3);
    assert_eq!(m.cpu().reg(Reg::T1), 9);
    // $at is the designated scratch.
    assert_eq!(m.cpu().reg(Reg::AT), 1);
}
