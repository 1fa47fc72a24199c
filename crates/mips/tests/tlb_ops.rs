//! Guest-level tests of the TLB management instructions: a kernel-mode
//! program builds a mapping with `tlbwi`, probes it with `tlbp`, reads it
//! back with `tlbr`, and then runs user-mode code through it.

use efex_mips::asm::assemble;
use efex_mips::isa::Reg;
use efex_mips::machine::{Machine, StopReason};

fn run(src: &str, steps: u64) -> Machine {
    let prog = assemble(src).unwrap();
    let mut m = Machine::new(1 << 20);
    m.load_image(&prog).unwrap();
    m.set_pc(prog.entry());
    match m.run(steps) {
        StopReason::HostCall(_) => m,
        other => panic!("no hcall: {other:?}"),
    }
}

#[test]
fn tlbwi_installs_a_usable_mapping() {
    // Map user page 0x0040_0000 -> frame 4 (paddr 0x4000), write through
    // the *virtual* address from kernel mode, read back via physical KSEG0.
    let m = run(
        r#"
        .equ ENTRYHI, 0x00400000    # vpn 0x400, asid 0
        .equ ENTRYLO_FLAGS, 0x600   # D|V
        .org 0x80002000
        main:
            li   $t0, ENTRYHI
            mtc0 $t0, $entryhi
            li   $t1, 0x4000        # pfn 4 << 12
            ori  $t1, $t1, ENTRYLO_FLAGS
            mtc0 $t1, $entrylo
            li   $t2, 0x0300        # index slot 3 (bits 13..8)
            mtc0 $t2, $index
            tlbwi
            # Store through the mapped virtual address.
            li   $t3, 0xbeef
            li   $t4, 0x00400010
            sw   $t3, 0($t4)
            # Read back through KSEG0 at the physical location.
            li   $t5, 0x80004010
            lw   $t6, 0($t5)
            hcall 0
    "#,
        100,
    );
    assert_eq!(m.cpu().reg(Reg::T6), 0xbeef);
}

#[test]
fn tlbp_finds_and_misses() {
    let m = run(
        r#"
        .org 0x80002000
        main:
            # Install vpn 0x500 at slot 9.
            li   $t0, 0x00500000
            mtc0 $t0, $entryhi
            li   $t1, 0x5600        # pfn 5, D|V
            mtc0 $t1, $entrylo
            li   $t2, 0x0900
            mtc0 $t2, $index
            tlbwi
            # Probe for it: index must report slot 9.
            li   $t0, 0x00500000
            mtc0 $t0, $entryhi
            tlbp
            mfc0 $t3, $index
            # Probe for an unmapped page: P bit (31) must be set.
            li   $t0, 0x00700000
            mtc0 $t0, $entryhi
            tlbp
            mfc0 $t4, $index
            hcall 0
    "#,
        100,
    );
    assert_eq!((m.cpu().reg(Reg::T3) >> 8) & 0x3f, 9, "probe hit slot 9");
    assert_ne!(m.cpu().reg(Reg::T4) & 0x8000_0000, 0, "probe miss sets P");
}

#[test]
fn tlbr_reads_back_what_tlbwi_wrote() {
    let m = run(
        r#"
        .org 0x80002000
        main:
            li   $t0, 0x00600040    # vpn 0x600, asid 1
            mtc0 $t0, $entryhi
            li   $t1, 0x7700        # pfn 7, N|D|V... (0x7700 = pfn 7 | 0x700)
            mtc0 $t1, $entrylo
            li   $t2, 0x0c00        # slot 12
            mtc0 $t2, $index
            tlbwi
            # Clobber the registers, then read the entry back.
            mtc0 $zero, $entryhi
            mtc0 $zero, $entrylo
            tlbr
            mfc0 $t5, $entryhi
            mfc0 $t6, $entrylo
            hcall 0
    "#,
        100,
    );
    assert_eq!(m.cpu().reg(Reg::T5), 0x0060_0040);
    assert_eq!(
        m.cpu().reg(Reg::T6) & 0xffff_ff00,
        0x0000_7700 & 0xffff_ff00
    );
}

#[test]
fn rfe_drops_to_user_mode_through_mapped_code() {
    // Kernel maps a code page, points EPC-style state at it, and drops to
    // user mode with jr+rfe; the user code runs and traps back via break.
    let m = run(
        r#"
        .org 0x80002000
        main:
            # Map user code page 0x0040_0000 -> frame 6.
            li   $t0, 0x00400000
            mtc0 $t0, $entryhi
            li   $t1, 0x6600        # pfn 6, D|V
            mtc0 $t1, $entrylo
            li   $t2, 0x0200
            mtc0 $t2, $index
            tlbwi
            # Write user code: addiu $s0, $zero, 7 ; break 0
            li   $t3, 0x24100007
            li   $t4, 0x80006000
            sw   $t3, 0($t4)
            li   $t3, 0x0000000d
            sw   $t3, 4($t4)
            # Arrange previous-mode = user, then jr+rfe.
            mfc0 $t5, $status
            ori  $t5, $t5, 0x8      # KUp = user
            mtc0 $t5, $status
            li   $k0, 0x00400000
            jr   $k0
            rfe
        .org 0x80000080             # general vector: catch the break
        vec:
            hcall 7
    "#,
        100,
    );
    assert_eq!(m.cpu().reg(Reg::S0), 7, "user code executed");
    assert!(!m.cp0().user_mode(), "break re-entered kernel");
}
