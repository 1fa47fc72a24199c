//! Snapshot/restore fidelity: a checkpoint taken mid-run, serialized,
//! deserialized and restored into a freshly booted receiver must resume
//! bit-exactly — same final register digest, same cycle count, same exit —
//! as the uninterrupted run, for every Table 2 delivery row, under both
//! execution engines, and regardless of what the receiver ran before
//! (a live decode cache must be invalidated by restore).

use efex_core::{DeliveryPath, ExceptionKind, System, SystemSnapshot};
use efex_mips::machine::{ExecEngine, MachineConfig};
use efex_simos::RunOutcome;
use proptest::prelude::*;

/// Every Table 2 delivery row (same set the bench harness measures).
const COMBOS: &[(DeliveryPath, ExceptionKind)] = &[
    (DeliveryPath::FastUser, ExceptionKind::Breakpoint),
    (DeliveryPath::FastUser, ExceptionKind::WriteProtect),
    (DeliveryPath::FastUser, ExceptionKind::Subpage),
    (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized),
    (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint),
    (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint),
    (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect),
];

fn source_for(path: DeliveryPath, kind: ExceptionKind) -> String {
    use efex_core::debug_progs as progs;
    const ITERS: u32 = 2;
    match (path, kind) {
        (DeliveryPath::FastUser, ExceptionKind::Breakpoint) => progs::fast_simple_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::WriteProtect) => progs::fast_prot_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::Subpage) => progs::fast_subpage_bench(ITERS),
        (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized) => {
            progs::fast_unaligned_specialized_bench(ITERS)
        }
        (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint) => {
            progs::hw_simple_bench(ITERS)
        }
        (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint) => progs::unix_simple_bench(ITERS),
        (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect) => progs::unix_prot_bench(ITERS),
        _ => unreachable!(),
    }
}

fn boot(path: DeliveryPath, engine: ExecEngine) -> System {
    System::builder()
        .delivery(path)
        .machine_config(MachineConfig::default().engine(engine))
        .build()
        .expect("boot")
}

/// Loads the row's guest program and leaves the system ready to step.
fn load(sys: &mut System, path: DeliveryPath, kind: ExceptionKind) {
    let source = source_for(path, kind);
    let prog = sys
        .kernel_mut()
        .load_user_program(&source)
        .expect("assemble");
    let sp = sys.kernel_mut().setup_stack(16).expect("stack");
    if path == DeliveryPath::HardwareVectored {
        let cp0 = sys.kernel_mut().machine_mut().cp0_mut();
        cp0.status |= efex_mips::cp0::status::UXE;
        cp0.uxm = efex_simos::fastexc::FastExcState::allowed_mask();
    }
    sys.kernel_mut().exec(prog.entry(), sp);
}

/// Runs to completion one retired instruction at a time; returns the step
/// count and exit outcome.
fn finish(sys: &mut System) -> (u64, RunOutcome) {
    let mut steps = 0u64;
    loop {
        steps += 1;
        match sys.kernel_mut().run_user(1).expect("run") {
            RunOutcome::StepLimit => continue,
            out => return (steps, out),
        }
    }
}

/// Digest + cycle fingerprint of the final state.
fn fingerprint(sys: &System) -> (u64, u64) {
    let m = sys.kernel().machine();
    (m.step_digest(), m.cycles())
}

#[test]
fn mid_run_snapshot_resumes_bit_exact_every_row_both_engines() {
    for engine in [ExecEngine::Interpreter, ExecEngine::Superblock] {
        for &(path, kind) in COMBOS {
            // Reference: uninterrupted run.
            let mut a = boot(path, engine);
            load(&mut a, path, kind);
            let (steps, a_out) = finish(&mut a);
            let a_fp = fingerprint(&a);

            // Run B: snapshot at the midpoint (through the wire), then
            // keep going — taking a snapshot must not perturb the run.
            let mut b = boot(path, engine);
            load(&mut b, path, kind);
            for _ in 0..steps / 2 {
                assert_eq!(b.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
            }
            let bytes = b.snapshot().to_bytes();
            let (_, b_out) = finish(&mut b);
            assert_eq!(
                b_out, a_out,
                "{path} {kind:?} {engine:?}: snapshot perturbed the run"
            );
            assert_eq!(fingerprint(&b), a_fp, "{path} {kind:?} {engine:?}");

            // Run C: fresh boot, restore the deserialized snapshot, resume.
            let snap = SystemSnapshot::from_bytes(&bytes).expect("decode");
            let mut c = boot(path, engine);
            c.restore(&snap).expect("restore");
            let (_, c_out) = finish(&mut c);
            assert_eq!(
                c_out, a_out,
                "{path} {kind:?} {engine:?}: restored run diverged"
            );
            assert_eq!(
                fingerprint(&c),
                a_fp,
                "{path} {kind:?} {engine:?}: restored run diverged"
            );
        }
    }
}

/// Restore into a receiver whose decode cache is hot from
/// running a *different* program: stale cached translations must not leak
/// into the resumed run.
#[test]
fn restore_invalidates_live_caches() {
    for engine in [ExecEngine::Interpreter, ExecEngine::Superblock] {
        let (path, kind) = (DeliveryPath::FastUser, ExceptionKind::Breakpoint);

        let mut a = boot(path, engine);
        load(&mut a, path, kind);
        let mut b = boot(path, engine);
        load(&mut b, path, kind);
        for _ in 0..200 {
            assert_eq!(b.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
        }
        let snap = b.snapshot();
        let (_, a_out) = finish(&mut a);
        let a_fp = fingerprint(&a);

        // Warm the receiver's caches on an unrelated guest program first.
        let mut c = boot(path, engine);
        c.run_program(
            &source_for(DeliveryPath::FastUser, ExceptionKind::WriteProtect),
            1_000_000,
        )
        .expect("warm-up run");
        c.restore(&snap).expect("restore over live caches");
        let (_, c_out) = finish(&mut c);
        assert_eq!(
            c_out, a_out,
            "{engine:?}: stale cache state leaked into resumed run"
        );
        assert_eq!(
            fingerprint(&c),
            a_fp,
            "{engine:?}: stale cache state leaked into resumed run"
        );
    }
}

/// A snapshot taken under one engine restores into a receiver running the
/// other engine and still resumes bit-exactly — the engines are
/// bit-identical, and restore keeps the receiver's configuration.
#[test]
fn snapshots_restore_across_engines() {
    let (path, kind) = (DeliveryPath::FastUser, ExceptionKind::Subpage);
    let mut a = boot(path, ExecEngine::Interpreter);
    load(&mut a, path, kind);
    let (steps, a_out) = finish(&mut a);
    let a_fp = fingerprint(&a);

    let mut b = boot(path, ExecEngine::Interpreter);
    load(&mut b, path, kind);
    for _ in 0..steps / 3 {
        assert_eq!(b.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
    }
    let snap = b.snapshot();

    let mut c = boot(path, ExecEngine::Superblock);
    c.restore(&snap).expect("cross-engine restore");
    let (_, c_out) = finish(&mut c);
    assert_eq!(c_out, a_out);
    assert_eq!(fingerprint(&c), a_fp, "cross-engine resume diverged");
}

/// Physical memory that is not a whole number of pages snapshots with its
/// trailing partial page zero-padded and restores bit-exact, mid-run.
#[test]
fn partial_page_memory_round_trips() {
    let (path, kind) = (DeliveryPath::FastUser, ExceptionKind::Breakpoint);
    let boot_odd = || {
        System::builder()
            .delivery(path)
            .phys_bytes((16 << 20) + 100)
            .build()
            .expect("boot")
    };
    let mut a = boot_odd();
    load(&mut a, path, kind);
    let tail = 16 << 20;
    a.kernel_mut()
        .machine_mut()
        .mem_mut()
        .write_u32(tail + 96, 0xfeed_f00d)
        .unwrap();
    for _ in 0..100 {
        assert_eq!(a.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
    }
    let bytes = a.snapshot().to_bytes();
    let (_, a_out) = finish(&mut a);

    let mut b = boot_odd();
    b.restore(&SystemSnapshot::from_bytes(&bytes).expect("decode"))
        .expect("restore");
    assert_eq!(
        b.kernel().machine().mem().read_u32(tail + 96),
        Ok(0xfeed_f00d)
    );
    let (_, b_out) = finish(&mut b);
    assert_eq!(b_out, a_out);
    assert_eq!(fingerprint(&b), fingerprint(&a));
}

/// Snapshot at every step through the exception-delivery window — from
/// just before the fault is raised, through the comm-frame save, across
/// every instruction of the user handler, to the resume — and verify each
/// one restores and finishes identically. The fast-user "vulnerable
/// window" (comm frame live, handler not yet returned) consists entirely
/// of guest memory and CP0 state, so it round-trips like any other step;
/// this test is the proof.
#[test]
fn snapshot_inside_vulnerable_window_round_trips() {
    let (path, kind) = (DeliveryPath::FastUser, ExceptionKind::Breakpoint);
    let engine = ExecEngine::Interpreter;

    // Reference run; find the step that raised the first exception.
    let mut a = boot(path, engine);
    load(&mut a, path, kind);
    let mut first_exc_step = None;
    let mut steps = 0u64;
    let a_out = loop {
        steps += 1;
        let out = a.kernel_mut().run_user(1).expect("run");
        if first_exc_step.is_none() && a.kernel().machine().exceptions_taken() > 0 {
            first_exc_step = Some(steps);
        }
        if out != RunOutcome::StepLimit {
            break out;
        }
    };
    let a_fp = fingerprint(&a);
    let exc = first_exc_step.expect("benchmark raised no exception");

    // Every step from 2 before the fault to 40 into the handler.
    let from = exc.saturating_sub(2);
    let to = (exc + 40).min(steps - 1);
    let mut b = boot(path, engine);
    load(&mut b, path, kind);
    for _ in 0..from {
        assert_eq!(b.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
    }
    for at in from..=to {
        let bytes = b.snapshot().to_bytes();
        let snap = SystemSnapshot::from_bytes(&bytes).expect("decode");
        let mut c = boot(path, engine);
        c.restore(&snap).expect("restore");
        let (_, c_out) = finish(&mut c);
        assert_eq!(c_out, a_out, "snapshot at step {at} diverged");
        assert_eq!(fingerprint(&c), a_fp, "snapshot at step {at} diverged");
        assert_eq!(b.kernel_mut().run_user(1).unwrap(), RunOutcome::StepLimit);
    }
}

/// Restoring across delivery paths is rejected with a typed error — the
/// measured costs are path-specific.
#[test]
fn cross_path_restore_is_rejected() {
    let mut fast = boot(DeliveryPath::FastUser, ExecEngine::Interpreter);
    let snap = fast.snapshot();
    let mut unix = boot(DeliveryPath::UnixSignals, ExecEngine::Interpreter);
    let err = unix.restore(&snap).unwrap_err();
    assert!(
        matches!(err, efex_core::CoreError::Invalid(_)),
        "expected Invalid, got {err}"
    );
}

/// Wrong-flavor bytes (a host snapshot fed to the system decoder) are a
/// typed error, not garbage state.
#[test]
fn wrong_flavor_bytes_are_rejected() {
    let mut host = efex_core::HostProcess::builder()
        .delivery(DeliveryPath::FastUser)
        .build()
        .unwrap();
    let bytes = host.snapshot().unwrap().to_bytes();
    let err = SystemSnapshot::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, efex_snap::SnapError::FlavorMismatch { .. }),
        "expected FlavorMismatch, got {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrarily mutated or truncated snapshot bytes never panic the
    /// decoder: every outcome is `Ok` or a typed `SnapError`. Mutations
    /// that dodge the checksum (we re-seal the frame after corrupting the
    /// payload) exercise the structural validation underneath it.
    #[test]
    fn mutated_snapshot_bytes_never_panic(
        flips in proptest::collection::vec((0usize..1_000_000, any::<u8>()), 1..8),
        cut in 0usize..1_000_000,
        reseal in any::<bool>(),
    ) {
        let mut sys = boot(DeliveryPath::FastUser, ExecEngine::Interpreter);
        load(&mut sys, DeliveryPath::FastUser, ExceptionKind::Breakpoint);
        for _ in 0..50 {
            sys.kernel_mut().run_user(1).unwrap();
        }
        let mut bytes = sys.snapshot().to_bytes();
        for (pos, val) in flips {
            let n = bytes.len();
            bytes[pos % n] ^= val;
        }
        bytes.truncate(cut % bytes.len() + 1);
        if reseal && bytes.len() > 8 {
            // Recompute the trailing checksum so decoding reaches the
            // structural validators instead of stopping at the seal.
            let body = bytes.len() - 8;
            let sum = efex_snap::fnv64(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
        }
        // Must not panic; corrupt inputs yield typed errors.
        let _ = SystemSnapshot::from_bytes(&bytes);
    }
}
