//! Multi-tenant fleet runner: scaling exhibit and determinism gate.
//!
//! ```text
//! fleet --tenants 64 --threads 4        one run, aggregate summary
//! fleet ... --check-determinism         re-run on one thread; the fleet
//!                                       fingerprints must match bit-exactly
//! fleet ... --sweep                     scaling table across 1/2/4/8 threads
//! fleet ... --decode-cache              single-thread wall time with the
//!                                       decode cache on vs off (results
//!                                       must be bit-identical)
//! fleet ... --engine superblock         run every tenant under the given
//!                                       execution engine (interpreter is
//!                                       the default; results identical)
//! fleet ... --throughput                interpreter-vs-superblock guest
//!                                       Mips A/B exhibit (printed, never
//!                                       gated on wall time)
//! fleet ... --chrome <path>             per-tenant Chrome-trace rows
//! fleet ... --seed <n>                  override the fleet base seed
//! fleet ... --health                    evaluate the fleet invariant set;
//!                                       nonzero exit on any finding, and
//!                                       the health-on/off fingerprints
//!                                       must match (health observes, it
//!                                       never perturbs)
//! fleet ... --metrics-out <path>        write the health registry —
//!                                       Prometheus text for `.prom`,
//!                                       JSONL for `.jsonl`
//! fleet ... --migrate                   live-migration drill: checkpoint
//!                                       every tenant mid-suite, resume it
//!                                       from the bytes on a fresh worker
//!                                       pool; the aggregate fingerprint
//!                                       must match the uninterrupted run
//! fleet ... --kill-shard <n>            crash-recovery drill: kill shard
//!                                       n mid-run, restore its tenants
//!                                       from their last checkpoints on the
//!                                       survivors; fingerprint must match
//! ```
//!
//! Simulated results (stats, cycle-derived times, histograms) are
//! deterministic and gated; wall-clock numbers are printed for the scaling
//! exhibits but never asserted — CI machines differ.

use efex_fleet::{run_fleet, run_fleet_kill_shard, run_fleet_migrate, FleetConfig, FleetReport};
use efex_mips::cycles::CLOCK_MHZ;
use efex_mips::machine::{ExecEngine, MachineConfig};
use std::process::ExitCode;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn print_summary(r: &FleetReport) {
    println!(
        "fleet: {} tenants on {} thread(s): simulated {:.1} ms, wall {:.0} ms",
        r.tenants.len(),
        r.threads,
        r.total_micros / 1000.0,
        r.wall_seconds * 1000.0,
    );
    let us = |v: Option<u64>| v.unwrap_or(0) as f64 / 1000.0;
    println!(
        "fleet: {} deliveries ({:.0}/wall-sec), tenant latency p50={:.0}us p90={:.0}us p99={:.0}us",
        r.deliveries(),
        r.deliveries_per_wall_sec(),
        us(r.latency.p50()),
        us(r.latency.p90()),
        us(r.latency.p99()),
    );
}

fn check_determinism(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    let many = run_fleet(cfg)?;
    let one = run_fleet(&FleetConfig { threads: 1, ..*cfg })?;
    if many.fingerprint() == one.fingerprint() {
        println!(
            "fleet: determinism ok — threads={} and threads=1 fingerprints identical",
            cfg.threads
        );
        Ok(true)
    } else {
        eprintln!(
            "fleet: DETERMINISM FAILURE — threads={} and threads=1 disagree",
            cfg.threads
        );
        eprintln!("--- threads={} ---\n{}", cfg.threads, many.fingerprint());
        eprintln!("--- threads=1 ---\n{}", one.fingerprint());
        Ok(false)
    }
}

fn sweep(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    println!(
        "fleet: scaling sweep, {} tenants (seed {:#x}, engine {})",
        cfg.tenants, cfg.base_seed, cfg.machine.engine,
    );
    println!("  threads    wall-ms    speedup    deliveries/sec");
    let mut base_wall = None;
    for threads in [1usize, 2, 4, 8] {
        let r = run_fleet(&FleetConfig { threads, ..*cfg })?;
        let wall_ms = r.wall_seconds * 1000.0;
        let base = *base_wall.get_or_insert(r.wall_seconds);
        println!(
            "  {threads:>7} {wall_ms:>10.1} {:>9.2}x {:>17.0}",
            base / r.wall_seconds,
            r.deliveries_per_wall_sec(),
        );
    }
    // The engine A/B half of the exhibit: same fleet under both engines
    // (bit-exactness gated), plus the hot-loop guest-Mips ratio (printed,
    // never gated — wall time depends on the CI box).
    let interp = run_fleet(&FleetConfig {
        machine: cfg.machine.engine(ExecEngine::Interpreter),
        ..*cfg
    })?;
    let sb = run_fleet(&FleetConfig {
        machine: cfg.machine.engine(ExecEngine::Superblock),
        ..*cfg
    })?;
    println!(
        "fleet: engine A/B: interpreter {:.1} ms wall vs superblock {:.1} ms wall ({:.2}x)",
        interp.wall_seconds * 1000.0,
        sb.wall_seconds * 1000.0,
        interp.wall_seconds / sb.wall_seconds,
    );
    throughput_exhibit();
    if interp.fingerprint() == sb.fingerprint() {
        println!("fleet: engines are bit-exact (fingerprints identical)");
        Ok(true)
    } else {
        eprintln!("fleet: ENGINE MISMATCH — interpreter/superblock fingerprints disagree");
        Ok(false)
    }
}

/// Simulated-guest instruction throughput (million instructions per wall
/// second) of a TLB-mapped 64-instruction loop — the code shape the decode
/// and superblock caches exist for: hot text refetched far more often than
/// it changes. The machine builds from `mcfg`, so one helper serves the
/// decode-cache and execution-engine A/B exhibits.
fn guest_throughput(mcfg: MachineConfig, steps: u64) -> f64 {
    use efex_mips::encode::encode;
    use efex_mips::isa::{Instruction, Reg};
    use efex_mips::machine::{Machine, StopReason};
    use efex_mips::tlb::TlbEntry;

    let mut m = Machine::with_config(1 << 20, mcfg);
    let base = 0x0010_0000u32;
    let pfn = 4u32;
    // A realistically loaded TLB, so the uncached fetch pays a real walk.
    for i in 0..48u32 {
        m.tlb_mut().write(
            i as usize,
            TlbEntry {
                vpn: (base >> 12) + i,
                asid: 0,
                pfn: pfn + i,
                valid: true,
                dirty: true,
                global: false,
                user_modifiable: true,
            },
        );
    }
    let mut prog = Vec::new();
    for i in 0..63 {
        prog.push(encode(Instruction::Addiu {
            rt: Reg::from_field(8 + (i % 8)),
            rs: Reg::from_field(8 + (i % 8)),
            imm: 1,
        }));
    }
    prog.push(encode(Instruction::J {
        target: (base & 0x0fff_ffff) >> 2,
    }));
    prog.push(encode(Instruction::NOP));
    for (i, w) in prog.iter().enumerate() {
        m.mem_mut()
            .write_u32((pfn << 12) + 4 * i as u32, *w)
            .unwrap();
    }
    m.cpu_mut().pc = base;
    m.cpu_mut().next_pc = base.wrapping_add(4);
    let t0 = std::time::Instant::now();
    let stop = m.run(steps).expect("throughput loop must not fault");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(stop, StopReason::StepLimit, "loop must run its full budget");
    steps as f64 / elapsed / 1e6
}

/// The interpreter-vs-superblock guest-Mips exhibit: printed, never gated —
/// wall time depends on the host. Returns the speedup ratio.
fn throughput_exhibit() -> f64 {
    let interp_cfg = MachineConfig::default();
    let sb_cfg = MachineConfig::default().engine(ExecEngine::Superblock);
    guest_throughput(interp_cfg, 500_000); // warm
    guest_throughput(sb_cfg, 500_000);
    let interp = guest_throughput(interp_cfg, 4_000_000);
    let sb = guest_throughput(sb_cfg, 4_000_000);
    println!(
        "fleet: guest throughput {interp:.1} Mips interpreter vs {sb:.1} Mips superblock ({:.2}x)",
        sb / interp,
    );
    sb / interp
}

fn decode_cache_compare(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    let single = FleetConfig {
        threads: 1,
        trace: false,
        ..*cfg
    };
    // Warm once so allocator/page-cache effects don't favour either side.
    run_fleet(&single)?;
    let on = run_fleet(&single)?;
    // Per-tenant machine config — no process-global toggling, so this A/B
    // stays sound even if other fleets run concurrently in-process.
    let off = run_fleet(&FleetConfig {
        machine: single.machine.decode_cache(false),
        ..single
    })?;
    println!(
        "fleet: decode cache on  {:>8.1} ms wall",
        on.wall_seconds * 1000.0
    );
    println!(
        "fleet: decode cache off {:>8.1} ms wall ({:.2}x slower)",
        off.wall_seconds * 1000.0,
        off.wall_seconds / on.wall_seconds,
    );
    guest_throughput(MachineConfig::default(), 500_000); // warm
    let thr_on = guest_throughput(MachineConfig::default(), 4_000_000);
    let thr_off = guest_throughput(MachineConfig::default().decode_cache(false), 4_000_000);
    println!(
        "fleet: guest throughput {:.1} Mips cached vs {:.1} Mips uncached ({:.2}x)",
        thr_on,
        thr_off,
        thr_on / thr_off,
    );
    // The cache must never change simulated results, only wall time.
    if on.fingerprint() == off.fingerprint() {
        println!("fleet: decode cache is result-transparent (fingerprints identical)");
        Ok(true)
    } else {
        eprintln!("fleet: DECODE CACHE CHANGED RESULTS — on/off fingerprints disagree");
        Ok(false)
    }
}

/// The `--health` exhibit: evaluate the fleet invariant set, print every
/// finding, measure (but never gate) the health plane's host-side cost, and
/// gate that the health plane changed nothing deterministic.
fn run_health(
    report: &FleetReport,
    cfg: &FleetConfig,
    metrics_out: Option<&str>,
) -> Result<bool, String> {
    let mut ok = true;

    // Host-side overhead: re-run without the health plane. Wall time is
    // printed, not gated (CI machines differ); the fingerprint comparison
    // IS gated — health must add zero simulated cycles.
    let bare = run_fleet(&FleetConfig {
        health: false,
        trace: false,
        ..*cfg
    })
    .map_err(|e| e.to_string())?;
    println!(
        "fleet: health plane host overhead: {:.1} ms wall with vs {:.1} ms without ({:+.1}%)",
        report.wall_seconds * 1000.0,
        bare.wall_seconds * 1000.0,
        (report.wall_seconds / bare.wall_seconds - 1.0) * 100.0,
    );
    if report.fingerprint() == bare.fingerprint() {
        println!("fleet: health plane is result-transparent (fingerprints identical on/off)");
    } else {
        eprintln!("fleet: HEALTH PLANE CHANGED RESULTS — on/off fingerprints disagree");
        ok = false;
    }

    let mut mon = report.health_monitor();
    let findings = mon.finish().to_vec();
    for f in &findings {
        eprintln!("{f}");
    }
    println!(
        "fleet: health: {} invariants, {} evaluations, {} findings",
        mon.invariants().len(),
        mon.evaluations(),
        findings.len(),
    );
    ok &= findings.is_empty();

    if let Some(path) = metrics_out {
        let text = if path.ends_with(".jsonl") {
            efex_health::to_jsonl(&mon)
        } else if path.ends_with(".prom") {
            efex_health::to_prometheus(&mon)
        } else {
            return Err(format!(
                "--metrics-out {path}: extension must be .prom or .jsonl"
            ));
        };
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("fleet: wrote health metrics to {path}");
    }
    Ok(ok)
}

/// Live-migration drill: checkpoint every tenant mid-suite, resume it from
/// the bytes on a fresh worker pool, and demand the aggregate fingerprint
/// match an uninterrupted run of the same legged fleet.
fn migrate_drill(cfg: &FleetConfig) -> Result<bool, efex_fleet::FleetError> {
    let legged = FleetConfig {
        legs: cfg.legs.max(2),
        ..*cfg
    };
    let baseline = run_fleet(&legged)?;
    let migrated = run_fleet_migrate(&legged)?;
    let ok = baseline.fingerprint() == migrated.fingerprint();
    println!(
        "fleet: migration drill: {} tenants checkpointed and resumed on a \
         different shard: fingerprints {}",
        migrated.migrations,
        if ok { "MATCH" } else { "DIFFER" },
    );
    Ok(ok)
}

/// Crash-recovery drill: kill one worker shard mid-run and restore its
/// tenants from their last serialized checkpoints on the survivors.
fn kill_shard_drill(cfg: &FleetConfig, dead: usize) -> Result<bool, efex_fleet::FleetError> {
    let legged = FleetConfig {
        legs: cfg.legs.max(2),
        ..*cfg
    };
    let baseline = run_fleet(&legged)?;
    let drilled = run_fleet_kill_shard(&legged, dead)?;
    let ok = baseline.fingerprint() == drilled.fingerprint() && drilled.recoveries > 0;
    println!(
        "fleet: kill-shard drill: shard {dead} killed, {} tenant(s) restored \
         from checkpoint as degraded recoveries: fingerprints {}",
        drilled.recoveries,
        if ok { "MATCH" } else { "DIFFER" },
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: fleet [--tenants <n>] [--threads <n>] [--seed <n>] \
             [--engine interpreter|superblock] [--check-determinism] [--sweep] \
             [--decode-cache] [--throughput] [--chrome <path>] \
             [--health] [--metrics-out <path>] [--migrate] [--kill-shard <n>]"
        );
        return ExitCode::SUCCESS;
    }

    let mut cfg = FleetConfig {
        tenants: 16,
        threads: 4,
        ..FleetConfig::default()
    };
    let mut do_check = false;
    let mut do_sweep = false;
    let mut do_dcache = false;
    let mut do_throughput = false;
    let mut do_health = false;
    let mut do_migrate = false;
    let mut kill_shard: Option<usize> = None;
    let mut chrome_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .as_deref()
                .and_then(parse_u64)
                .ok_or_else(|| format!("fleet: {flag} needs a numeric value"))
        };
        match arg.as_str() {
            "--tenants" => match take("--tenants") {
                Ok(v) => cfg.tenants = v as u32,
                Err(e) => return fail(&e),
            },
            "--threads" => match take("--threads") {
                Ok(v) => cfg.threads = v as usize,
                Err(e) => return fail(&e),
            },
            "--seed" => match take("--seed") {
                Ok(v) => cfg.base_seed = v,
                Err(e) => return fail(&e),
            },
            "--migrate" => do_migrate = true,
            "--kill-shard" => match take("--kill-shard") {
                Ok(v) => kill_shard = Some(v as usize),
                Err(e) => return fail(&e),
            },
            "--check-determinism" => do_check = true,
            "--sweep" => do_sweep = true,
            "--decode-cache" => do_dcache = true,
            "--throughput" => do_throughput = true,
            "--health" => do_health = true,
            "--engine" => match it.next().as_deref().and_then(ExecEngine::parse) {
                Some(engine) => cfg.machine = cfg.machine.engine(engine),
                None => return fail("fleet: --engine needs 'interpreter' or 'superblock'"),
            },
            "--chrome" => match it.next() {
                Some(p) => chrome_path = Some(p),
                None => return fail("fleet: --chrome needs a file path"),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p),
                None => return fail("fleet: --metrics-out needs a file path"),
            },
            other => return fail(&format!("fleet: unknown argument {other}")),
        }
    }

    cfg.trace = chrome_path.is_some();
    let mut ok = true;

    let report = match run_fleet(&cfg) {
        Ok(r) => r,
        Err(e) => return fail(&format!("fleet: {e}")),
    };
    print_summary(&report);

    if let Some(path) = &chrome_path {
        if let Err(e) = std::fs::write(path, report.chrome_trace(CLOCK_MHZ)) {
            return fail(&format!("fleet: writing {path}: {e}"));
        }
        println!("fleet: wrote per-tenant Chrome trace to {path}");
    }

    if do_health || metrics_out.is_some() {
        match run_health(&report, &cfg, metrics_out.as_deref()) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }

    // The remaining modes don't need tracing enabled.
    cfg.trace = false;
    if do_check {
        match check_determinism(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if do_sweep {
        match sweep(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if do_dcache {
        match decode_cache_compare(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if do_throughput {
        throughput_exhibit();
    }
    if do_migrate {
        match migrate_drill(&cfg) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }
    if let Some(dead) = kill_shard {
        match kill_shard_drill(&cfg, dead) {
            Ok(pass) => ok &= pass,
            Err(e) => return fail(&format!("fleet: {e}")),
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}
