//! Superblock-engine bit-exactness tests.
//!
//! The superblock engine must be architecturally invisible: every test runs
//! the same program under the superblock engine, the interpreter, and the
//! superblock engine with the decode cache off (which runs every op through
//! `Machine::step`, like the uncached reference) and requires bit-identical
//! registers, cycle counts, retired instructions, and exception behaviour —
//! with particular attention to self-modifying code, where decoded lines a
//! block runs from could go stale: a patch in straight-line code (including
//! mid-block, by the block's own store), a patch in a branch delay slot,
//! and a patch of the instruction an exception handler returns to.

use efex_mips::encode::encode;
use efex_mips::isa::{Instruction, Reg};
use efex_mips::machine::{
    kseg_to_phys, ExecEngine, Machine, MachineConfig, StopReason, GENERAL_VECTOR,
};
use proptest::prelude::*;

/// A superblock machine, its interpreter reference, and a superblock
/// machine with the decode cache off, built identically.
fn pair() -> (Machine, Machine, Machine) {
    let sb_cfg = MachineConfig::default().engine(ExecEngine::Superblock);
    let sb = Machine::with_config(1 << 20, sb_cfg);
    let interp = Machine::with_config(1 << 20, MachineConfig::default());
    let sb_uncached = Machine::with_config(1 << 20, sb_cfg.decode_cache(false));
    assert_eq!(sb.engine(), ExecEngine::Superblock);
    assert_eq!(interp.engine(), ExecEngine::Interpreter);
    assert!(!sb_uncached.decode_cache_enabled());
    (sb, interp, sb_uncached)
}

fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
    assert_eq!(a.cpu().pc, b.cpu().pc, "pc diverged: {what}");
    assert_eq!(a.cpu().regs(), b.cpu().regs(), "registers diverged: {what}");
    assert_eq!(a.cycles(), b.cycles(), "cycle counts diverged: {what}");
    assert_eq!(
        a.instructions_retired(),
        b.instructions_retired(),
        "instret diverged: {what}"
    );
    assert_eq!(
        a.exceptions_taken(),
        b.exceptions_taken(),
        "exception counts diverged: {what}"
    );
    assert_eq!(a.cp0().status, b.cp0().status, "status diverged: {what}");
    assert_eq!(a.cp0().cause, b.cp0().cause, "cause diverged: {what}");
    assert_eq!(a.cp0().epc, b.cp0().epc, "epc diverged: {what}");
    assert_eq!(
        a.cp0().bad_vaddr,
        b.cp0().bad_vaddr,
        "bad_vaddr diverged: {what}"
    );
}

fn write_words(m: &mut Machine, paddr: u32, words: &[u32]) {
    for (i, w) in words.iter().enumerate() {
        m.mem_mut().write_u32(paddr + 4 * i as u32, *w).unwrap();
    }
}

fn all(machines: &mut (Machine, Machine, Machine), f: impl Fn(&mut Machine)) {
    f(&mut machines.0);
    f(&mut machines.1);
    f(&mut machines.2);
}

/// Both superblock machines against the interpreter reference.
fn assert_all_same(ms: &(Machine, Machine, Machine), what: &str) {
    assert_same_state(&ms.0, &ms.1, what);
    assert_same_state(&ms.2, &ms.1, what);
}

fn addiu(rt: Reg, rs: Reg, imm: i16) -> u32 {
    encode(Instruction::Addiu { rt, rs, imm })
}

fn li(rt: Reg, imm: i16) -> u32 {
    addiu(rt, Reg::ZERO, imm)
}

/// Load a full 32-bit constant into `rt` (two words: lui + ori).
fn li32(rt: Reg, value: u32) -> [u32; 2] {
    [
        encode(Instruction::Lui {
            rt,
            imm: (value >> 16) as u16,
        }),
        encode(Instruction::Ori {
            rt,
            rs: rt,
            imm: (value & 0xffff) as u16,
        }),
    ]
}

/// A store *inside* a straight-line run patching a *later* instruction of
/// the same run: a block checks its page's tags only on entry, so this is
/// the mid-block staleness hazard. The patched word must take
/// effect on the very next fetch — the first execution must already see it.
#[test]
fn mid_block_store_patches_downstream_instruction() {
    let base = 0x8000_1000u32;
    // prog[5] is the patch target: the store at prog[4] overwrites it
    // before it is ever reached, all within one straight-line run.
    let target = base + 5 * 4;
    let [lui_t0, ori_t0] = li32(Reg::T0, target);
    let [lui_t2, ori_t2] = li32(Reg::T2, li(Reg::T3, 42));
    let prog = [
        lui_t0,
        ori_t0,
        lui_t2,
        ori_t2,
        encode(Instruction::Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }),
        li(Reg::T3, 7), // patched to `li $t3, 42` by the store above
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    all(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.set_pc(base);
        assert_eq!(m.run(100), StopReason::HostCall(1));
        assert_eq!(
            m.cpu().reg(Reg::T3),
            42,
            "the patch must be visible on the very next fetch"
        );
    });
    assert_all_same(&ms, "mid-block self-patch");
    let (_, _, invalidations) = ms.0.superblock_stats();
    assert!(
        invalidations > 0,
        "the superblock engine must have dropped the stale block"
    );
}

/// A patch landing in a branch delay slot: the delay slot op runs *inside*
/// the branch's block, so a stale line would replay the old slot.
#[test]
fn patch_in_delay_slot_is_seen_by_next_iteration() {
    let base = 0x8000_1000u32;
    let loop_top = base + 4 * 4;
    let delay_slot = loop_top + 2 * 4;
    let [lui_t0, ori_t0] = li32(Reg::T0, delay_slot);
    let [lui_t2, ori_t2] = li32(Reg::T2, li(Reg::T5, 40));
    let prog = [
        lui_t0,
        ori_t0,
        lui_t2,
        ori_t2,
        // loop_top: two iterations; $t4 counts down 1..0.
        addiu(Reg::T4, Reg::T4, 1),
        encode(Instruction::Beq {
            rs: Reg::T4,
            rt: Reg::T6,
            imm: 4, // to `hcall` when $t4 == $t6 (== 2)
        }),
        li(Reg::T5, 4), // delay slot — patched to `li $t5, 40` below
        encode(Instruction::Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }),
        encode(Instruction::Beq {
            rs: Reg::ZERO,
            rt: Reg::ZERO,
            imm: -5, // back to loop_top
        }),
        Instruction::NOP.into_word(),
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    all(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.cpu_mut().set_reg(Reg::T6, 2);
        m.set_pc(base);
        assert_eq!(m.run(100), StopReason::HostCall(1));
        assert_eq!(
            m.cpu().reg(Reg::T5),
            40,
            "the second iteration must execute the patched delay slot"
        );
    });
    assert_all_same(&ms, "delay-slot patch");
}

/// An exception handler patching the instruction it returns to (the classic
/// breakpoint-replacement idiom): the decode cache holds the old word from
/// before the fault, and the `rfe`-return must fetch the new one.
#[test]
fn handler_patches_its_return_target() {
    let base = 0x8000_1000u32;
    let patch_target = base + 5 * 4; // the word right after `break`
    let [lui_k0, ori_k0] = li32(Reg::K0, patch_target);
    let [lui_k1, ori_k1] = li32(Reg::K1, li(Reg::T3, 42));
    // Handler: patch the return target, jump to it via EPC+4 (skipping the
    // `break`), using only $k0/$k1 per kernel convention.
    let handler = [
        lui_k0,
        ori_k0,
        lui_k1,
        ori_k1,
        encode(Instruction::Sw {
            rt: Reg::K1,
            base: Reg::K0,
            imm: 0,
        }),
        encode(Instruction::Mfc0 {
            rt: Reg::K0,
            rd: efex_mips::cp0::Cp0Reg::Epc as u8,
        }),
        addiu(Reg::K0, Reg::K0, 8), // skip break + run the patched word
        encode(Instruction::Jr { rs: Reg::K0 }),
        encode(Instruction::Rfe), // delay slot: restore pre-exception mode
    ];
    let prog = [
        li(Reg::T3, 1),
        addiu(Reg::T3, Reg::T3, 1), // warm the block containing the target
        encode(Instruction::Break { code: 0 }),
        Instruction::NOP.into_word(),
        li(Reg::T7, 5), // executed after the handler returns
        li(Reg::T3, 7), // patch target: becomes `li $t3, 42`
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    all(&mut ms, |m| {
        write_words(m, kseg_to_phys(GENERAL_VECTOR).unwrap(), &handler);
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.set_pc(base);
        assert_eq!(m.run(100), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T7), 5, "post-return path executed");
        assert_eq!(
            m.cpu().reg(Reg::T3),
            42,
            "the handler's patch must be fetched after return"
        );
        assert_eq!(m.exceptions_taken(), 1);
    });
    assert_all_same(&ms, "handler return-target patch");
}

/// A CP0 write dropping to user mode must end the block *before* it: the
/// next fetch, from KSEG0, raises the address error the interpreter raises
/// instead of running on in kernel mode under the block's entry-time tags.
#[test]
fn mode_switch_ends_the_block() {
    let base = 0x8000_1000u32;
    let prog = [
        li(Reg::T0, efex_mips::cp0::status::KUC as i16),
        encode(Instruction::Mtc0 {
            rt: Reg::T0,
            rd: efex_mips::cp0::Cp0Reg::Status as u8,
        }),
        li(Reg::T1, 1), // fetched in user mode: address error
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut ms = pair();
    all(&mut ms, |m| {
        write_words(m, kseg_to_phys(base).unwrap(), &prog);
        m.set_pc(base);
        assert_eq!(m.run(3), StopReason::StepLimit);
        assert_eq!(m.cpu().reg(Reg::T1), 0, "user mode must not run KSEG0");
        assert_eq!(
            m.cp0().exc_code(),
            Some(efex_mips::exception::ExcCode::AddrErrLoad)
        );
    });
    assert_all_same(&ms, "mode switch mid-block");
}

/// The block path must actually engage on a hot loop (otherwise the
/// bit-exactness tests above prove nothing about it).
#[test]
fn hot_loop_hits_the_block_cache() {
    let base = 0x8000_1000u32;
    let prog = [
        addiu(Reg::T0, Reg::T0, 1),
        addiu(Reg::T1, Reg::T1, 2),
        encode(Instruction::Bne {
            rs: Reg::T0,
            rt: Reg::T2,
            imm: -3,
        }),
        Instruction::NOP.into_word(),
        encode(Instruction::Hcall { code: 1 }),
    ];
    let mut m = Machine::with_config(
        1 << 20,
        MachineConfig::default().engine(ExecEngine::Superblock),
    );
    write_words(&mut m, kseg_to_phys(base).unwrap(), &prog);
    m.cpu_mut().set_reg(Reg::T2, 100);
    m.set_pc(base);
    assert_eq!(m.run(10_000), StopReason::HostCall(1));
    assert_eq!(m.cpu().reg(Reg::T0), 100);
    let (hits, misses, _) = m.superblock_stats();
    assert!(hits > 90, "hot loop must re-enter cached blocks: {hits}");
    assert!(misses < 10, "steady state must not rebuild: {misses}");
}

proptest! {
    /// Arbitrary word soups (valid and reserved encodings, branches into
    /// zeroed memory, stores over their own text, CP0 writes) execute
    /// bit-identically under both engines, and under the superblock engine
    /// with the decode cache off — resuming across arbitrary
    /// step-budget boundaries, so blocks get interrupted mid-run and
    /// re-entered.
    #[test]
    fn engines_stay_in_lockstep_across_budget_boundaries(
        words in proptest::collection::vec(any::<u32>(), 1..128),
        chunks in proptest::collection::vec(1u64..9, 1..64),
    ) {
        let mut ms = pair();
        all(&mut ms, |m| {
            write_words(m, 0x1000, &words);
            m.set_pc(0x8000_1000);
        });
        for (i, chunk) in chunks.iter().enumerate() {
            let b = ms.1.run(*chunk);
            for sb in [&mut ms.0, &mut ms.2] {
                let a = sb.run(*chunk);
                prop_assert_eq!(a, b, "stop reasons diverged at chunk {}", i);
                prop_assert_eq!(sb.cpu().pc, ms.1.cpu().pc);
                prop_assert_eq!(sb.cycles(), ms.1.cycles());
                prop_assert_eq!(sb.instructions_retired(), ms.1.instructions_retired());
                prop_assert_eq!(sb.exceptions_taken(), ms.1.exceptions_taken());
                prop_assert_eq!(sb.cpu().regs(), ms.1.cpu().regs());
            }
        }
        assert_all_same(&ms, "word-soup final state");
    }
}
