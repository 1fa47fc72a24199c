//! Decode-cache invalidation tests.
//!
//! The decoded-instruction cache must be architecturally invisible: every
//! test runs the same program on a cached and an uncached machine in
//! lockstep and requires bit-identical registers, cycle counts, retired
//! instructions, and exception behaviour — through self-modifying stores,
//! host writes to text, TLB eviction, and protection changes.

use efex_mips::cp0::status;
use efex_mips::encode::encode;
use efex_mips::exception::ExcCode;
use efex_mips::isa::{Instruction, Reg, TlbProtOp};
use efex_mips::machine::{kseg_to_phys, Machine, MachineConfig, StopReason};
use efex_mips::tlb::TlbEntry;
use proptest::prelude::*;

/// A cached machine and its uncached reference, built identically.
fn pair() -> (Machine, Machine) {
    let cached = Machine::new(1 << 20);
    let reference = Machine::with_config(1 << 20, MachineConfig::default().decode_cache(false));
    assert!(cached.decode_cache_enabled());
    assert!(!reference.decode_cache_enabled());
    (cached, reference)
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

fn both(machines: &mut (Machine, Machine), f: impl Fn(&mut Machine)) {
    f(&mut machines.0);
    f(&mut machines.1);
}

fn map(vpn: u32, pfn: u32, user_modifiable: bool) -> TlbEntry {
    TlbEntry {
        vpn,
        asid: 0,
        pfn,
        valid: true,
        dirty: true,
        global: false,
        user_modifiable,
    }
}

/// A guest store overwriting already-executed (and therefore cached) text
/// must be visible to the next execution of that address.
#[test]
fn self_modifying_store_invalidates_cached_text() {
    use Instruction::*;
    let target = 0x8000_1040u32;
    let new_word = encode(Addiu {
        rt: Reg::T3,
        rs: Reg::ZERO,
        imm: 42,
    });
    let prog = [
        encode(Lui {
            rt: Reg::T0,
            imm: (target >> 16) as u16,
        }),
        encode(Ori {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: (target & 0xffff) as u16,
        }),
        encode(Lui {
            rt: Reg::T2,
            imm: (new_word >> 16) as u16,
        }),
        encode(Ori {
            rt: Reg::T2,
            rs: Reg::T2,
            imm: (new_word & 0xffff) as u16,
        }),
        encode(Jal {
            target: target >> 2,
        }),
        Instruction::NOP.into_word(),
        encode(Jal {
            target: target >> 2,
        }),
        Instruction::NOP.into_word(), // second call re-executes cached text
        encode(Addu {
            rd: Reg::T6,
            rs: Reg::T3,
            rt: Reg::ZERO,
        }), // pre-modification result
        encode(Sw {
            rt: Reg::T2,
            base: Reg::T0,
            imm: 0,
        }), // overwrite the subroutine's first instruction
        encode(Jal {
            target: target >> 2,
        }),
        Instruction::NOP.into_word(),
        encode(Addu {
            rd: Reg::T7,
            rs: Reg::T3,
            rt: Reg::ZERO,
        }), // second call's result
        encode(Hcall { code: 1 }),
    ];
    let sub = [
        encode(Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm: 7,
        }),
        encode(Jr { rs: Reg::RA }),
        Instruction::NOP.into_word(),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, kseg_to_phys(0x8000_1000).unwrap(), &prog);
        write_words(m, kseg_to_phys(target).unwrap(), &sub);
        m.set_pc(0x8000_1000);
        assert_eq!(m.run(1000).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T6), 7, "first call sees the old text");
        assert_eq!(m.cpu().reg(Reg::T7), 42, "second call sees the new text");
    });
    assert_same_state(&ms.0, &ms.1, "self-modifying store");
    let (hits, _) = ms.0.decode_cache_stats();
    assert!(hits > 0, "the cache must actually have been exercised");
}

/// Host-side writes through `mem_mut()` (how kernels patch guest text) must
/// invalidate, exactly like guest stores.
#[test]
fn host_write_to_text_invalidates_cached_text() {
    use Instruction::*;
    let word = |imm| {
        encode(Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm,
        })
    };
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, 0x1000, &[word(7), encode(Hcall { code: 1 })]);
        m.set_pc(0x8000_1000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 7);
        // Patch the instruction from the host and rerun it.
        m.mem_mut().write_u32(0x1000, word(9)).unwrap();
        m.set_pc(0x8000_1000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 9, "host patch must be fetched");
    });
    assert_same_state(&ms.0, &ms.1, "host text patch");
}

/// Evicting/rewriting the TLB entry of a cached page (the kernel shootdown
/// path uses `tlb_mut()` directly) must drop the cached translation.
#[test]
fn tlb_eviction_of_cached_page_invalidates() {
    use Instruction::*;
    let page_a = [
        encode(Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm: 7,
        }),
        encode(Hcall { code: 1 }),
    ];
    let page_b = [
        encode(Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm: 42,
        }),
        encode(Hcall { code: 1 }),
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, 0x2000, &page_a);
        write_words(m, 0x3000, &page_b);
        m.tlb_mut().write(0, map(0x400, 2, false));
        m.set_pc(0x0040_0000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 7);
        // Remap the same virtual page to different text, as a page-out /
        // page-in cycle would.
        m.tlb_mut().write(0, map(0x400, 3, false));
        m.set_pc(0x0040_0000);
        assert_eq!(m.run(10).unwrap(), StopReason::HostCall(1));
        assert_eq!(m.cpu().reg(Reg::T3), 42, "remapped text must be fetched");
    });
    assert_same_state(&ms.0, &ms.1, "TLB remap");
}

/// A user-level `utlbp` protect-all on the page being executed must fault
/// the *next* fetch instead of serving stale cached lines.
#[test]
fn subpage_reprotection_faults_next_fetch() {
    use Instruction::*;
    let prog = [
        encode(Lui {
            rt: Reg::A0,
            imm: 0x0040,
        }),
        encode(Utlbp {
            rs: Reg::A0,
            op: TlbProtOp::ProtectAll,
        }),
        encode(Addiu {
            rt: Reg::T3,
            rs: Reg::ZERO,
            imm: 9,
        }), // must never execute: the fetch faults
    ];
    let mut ms = pair();
    both(&mut ms, |m| {
        write_words(m, 0x2000, &prog);
        m.tlb_mut().write(0, map(0x400, 2, true));
        m.cp0_mut().status = status::KUC;
        m.set_pc(0x0040_0000);
        // Warm the cache on this page, then re-run the protect sequence.
        m.run(3).unwrap();
        assert_eq!(m.cp0().exc_code(), Some(ExcCode::TlbLoad));
        assert_eq!(
            m.cpu().reg(Reg::T3),
            0,
            "fetch after protect-all must fault, not hit the cache"
        );
    });
    assert_same_state(&ms.0, &ms.1, "utlbp protect-all");
}

proptest! {
    /// Arbitrary word soups (valid and reserved encodings, branches into
    /// zeroed memory, stores over their own text, CP0 writes) execute
    /// bit-identically with and without the decode cache.
    #[test]
    fn cached_and_uncached_machines_stay_in_lockstep(
        words in proptest::collection::vec(any::<u32>(), 1..128),
        steps in 1usize..400,
    ) {
        let mut cached = Machine::new(1 << 20);
        let mut reference =
            Machine::with_config(1 << 20, MachineConfig::default().decode_cache(false));
        for m in [&mut cached, &mut reference] {
            write_words(m, 0x1000, &words);
            m.set_pc(0x8000_1000);
        }
        for i in 0..steps {
            let a = cached.step().unwrap();
            let b = reference.step().unwrap();
            prop_assert_eq!(a, b, "stop reasons diverged at step {}", i);
            prop_assert_eq!(cached.cpu().pc, reference.cpu().pc);
            prop_assert_eq!(cached.cycles(), reference.cycles());
            prop_assert_eq!(cached.instructions_retired(), reference.instructions_retired());
            prop_assert_eq!(cached.exceptions_taken(), reference.exceptions_taken());
            prop_assert_eq!(cached.cpu().regs(), reference.cpu().regs());
        }
    }
}
