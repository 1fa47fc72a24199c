//! Per-layer probes of the traced run.
//!
//! Each probe calls one layer's public entry points a fixed, seeded number
//! of times inside spans, and every timing metric is the median (or sum) of
//! those spans' durations. The probes are the same on every workload, so
//! each traced run reports every per-layer metric. Checks made on the way
//! (baseline cycles, engine agreement, health-on equals health-off) count
//! as operations like the workloads' own. Timings are scaled to the
//! reference host speed by the calibrations made between the probes.

use efex_core::{System, WorkloadRun};
use efex_fleet::{plan, run_fleet, run_tenant, FleetConfig, Suite, TenantSpec};
use efex_mips::machine::{ExecEngine, MachineConfig};
use efex_mips::mem::Memory;
use efex_simos::kernel::{Kernel, KernelConfig};
use efex_simos::layout::DEFAULT_PHYS_BYTES;
use efex_simos::RunOutcome;

use crate::alloc;
use crate::spans::{durations_since, mark, set_id, span};
use crate::speed;
use crate::stats::{median, Rng};
use crate::workloads::{run_row, storm_plan, ColdCheckpoint, Workload};
use crate::Metric;

/// Repetitions of each construction-layer call.
const REPS: usize = 9;
/// Share of a delivery-storm row's deliveries each engine re-runs.
const ENGINE_SCALE: f64 = 0.25;
/// Tenants the health, app and pool probes run: two of each suite.
const PROBE_TENANTS: u32 = 10;

#[derive(Default)]
pub struct Probe {
    pub metrics: Vec<Metric>,
    /// Lines printed beside the metrics (ratio bases, check details).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Probe {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: FAILED {}", what());
        }
    }
}

/// Runs every probe; errors from the simulator abort the traced run.
pub fn probe(seed: u64) -> Result<Probe, String> {
    let mut p = Probe::default();
    let calibrations = speed::mark();
    speed::calibrate();
    construction(&mut p)?;
    speed::calibrate();
    engines(&mut p, seed)?;
    speed::calibrate();
    checkpoints(&mut p, seed)?;
    speed::calibrate();
    let specs = plan(&probe_fleet(seed, 1));
    let tenants_us = apps_and_health(&mut p, &specs)?;
    speed::calibrate();
    pool(&mut p, seed, &specs, tenants_us)?;
    speed::calibrate();
    allocations(&mut p, seed, &specs)?;
    let factor = speed::factor_since(calibrations);
    for m in &mut p.metrics {
        match m.unit {
            "us" | "ns" => m.value *= factor,
            "Minstr/s" => m.value /= factor,
            _ => {}
        }
    }
    p.notes.push(format!(
        "timings scaled by host speed factor {factor:.4} (reference {} us over the probes' median calibration)",
        speed::REFERENCE_US
    ));
    p.push("host.calibration_us", speed::median_us(), "us");
    Ok(p)
}

fn probe_fleet(seed: u64, threads: usize) -> FleetConfig {
    FleetConfig {
        tenants: PROBE_TENANTS,
        threads,
        base_seed: seed,
        health: true,
        ..FleetConfig::default()
    }
}

/// Physical memory, kernel image assembly and verification, kernel boot.
fn construction(p: &mut Probe) -> Result<(), String> {
    let m = mark();
    for _ in 0..REPS {
        drop(span("mips.Memory::new", || Memory::new(DEFAULT_PHYS_BYTES)));
        let image = span("mips.assemble_kernel", || {
            efex_mips::asm::assemble(efex_simos::fastexc::KERNEL_ASM)
        })
        .map_err(|e| format!("kernel image: {e}"))?;
        let report = span("verify.kernel_image", || {
            efex_simos::verify::verify_kernel_image(&image)
        });
        p.check(report.is_clean(), || report.render());
        span("simos.Kernel::boot", || {
            Kernel::boot(KernelConfig::default())
        })
        .map_err(|e| format!("boot: {e}"))?;
    }
    let med = |name| median(&durations_since(m, name));
    p.push("mips.mem_new_us", med("mips.Memory::new"), "us");
    p.push("mips.assemble_kernel_us", med("mips.assemble_kernel"), "us");
    p.push("simos.boot_us", med("simos.Kernel::boot"), "us");
    p.push("verify.kernel_image_us", med("verify.kernel_image"), "us");
    Ok(())
}

/// Decode-cache and superblock effectiveness, summed over the storm rows.
#[derive(Default)]
struct EngineCounters {
    instructions: u64,
    us: f64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// The delivery-storm rows, scaled down, under each execution engine.
fn engines(p: &mut Probe, seed: u64) -> Result<(), String> {
    let m = mark();
    let storm = storm_plan(seed, ENGINE_SCALE);
    let mut results: Vec<Vec<(RunOutcome, u64, u64)>> = Vec::new();
    let mut counters = [EngineCounters::default(), EngineCounters::default()];
    for (e, engine) in [ExecEngine::Interpreter, ExecEngine::Superblock]
        .into_iter()
        .enumerate()
    {
        let mut outcomes = Vec::new();
        for (i, (row, n)) in storm.iter().enumerate() {
            set_id(i as u64);
            let source = row.source(*n);
            let mut sys = System::builder()
                .delivery(row.path)
                .machine_config(MachineConfig::default().engine(engine))
                .build()
                .map_err(|err| format!("boot {}: {err}", row.name()))?;
            let name = format!("{engine}.{}", row.name());
            let out = span(&name, || run_row(&mut sys, &source))?;
            let us = *durations_since(m, &name)
                .last()
                .expect("span just recorded");
            let health = sys.health_snapshot();
            let get = |k| health.get(k).unwrap_or(0);
            let c = &mut counters[e];
            c.instructions += out.2;
            c.us += us;
            if engine == ExecEngine::Interpreter {
                c.hits += get("decode_cache_hits");
                c.misses += get("decode_cache_misses");
                p.push(
                    format!("simos.{}.ns_per_delivery", row.name()),
                    us * 1e3 / f64::from(*n),
                    "ns",
                );
            } else {
                c.hits += get("superblock_hits");
                c.misses += get("superblock_misses");
                c.invalidations += get("superblock_invalidations");
            }
            outcomes.push(out);
        }
        results.push(outcomes);
    }
    for (i, (row, _)) in storm.iter().enumerate() {
        let (a, b) = (results[0][i], results[1][i]);
        p.check(a == b && a.0 == RunOutcome::Exited(0), || {
            format!("{}: interpreter {a:?} vs superblock {b:?}", row.name())
        });
    }
    let [interp, sb] = counters;
    p.push(
        "mips.interp_mips",
        interp.instructions as f64 / interp.us,
        "Minstr/s",
    );
    p.push(
        "mips.superblock_mips",
        sb.instructions as f64 / sb.us,
        "Minstr/s",
    );
    for (name, c) in [
        ("mips.decode_cache_hit_ratio", &interp),
        ("mips.superblock_hit_ratio", &sb),
    ] {
        let lookups = c.hits + c.misses;
        p.push(name, c.hits as f64 / lookups as f64, "ratio");
        p.notes
            .push(format!("{name}: {} hits of {lookups} lookups", c.hits));
    }
    p.push(
        "mips.superblock_invalidations",
        sb.invalidations as f64,
        "count",
    );
    Ok(())
}

/// Cold round trips and checkpoint cycles over the cold-checkpoint rows.
fn checkpoints(p: &mut Probe, seed: u64) -> Result<(), String> {
    let cold = ColdCheckpoint::setup(seed)?;
    let m = mark();
    let mut rng = Rng::new(seed);
    let mut bytes_len = Vec::new();
    for rep in 0..3 {
        for (i, r) in cold.plan.iter().enumerate() {
            set_id((rep * cold.plan.len() + i) as u64);
            let rt = r.roundtrip();
            p.check(rt == Ok(true), || format!("{} round trip: {rt:?}", r.name));
            let bytes = r.capture(rng.range(1, r.steps))?;
            bytes_len.push(bytes.len() as f64);
            let ok = r
                .resume(&bytes)
                .map(|mut sys| r.matches_reference(&mut sys));
            p.check(ok == Ok(true), || format!("{} checkpoint: {ok:?}", r.name));
        }
    }
    let med = |name| median(&durations_since(m, name));
    p.push("core.system_build_us", med("core.System::build"), "us");
    p.push(
        "core.measure_roundtrip_us",
        med("core.measure_null_roundtrip"),
        "us",
    );
    p.push("snap.capture_us", med("snap.capture"), "us");
    p.push("snap.encode_us", med("snap.encode"), "us");
    p.push("snap.decode_us", med("snap.decode"), "us");
    p.push("snap.restore_us", med("snap.restore"), "us");
    p.push("snap.bytes", median(&bytes_len), "bytes");
    Ok(())
}

fn tenant_workload(suite: Suite, seed: u64) -> Result<WorkloadRun, String> {
    match suite {
        Suite::Gc => efex_gc::workloads::tenant_workload(seed).map_err(|e| e.to_string()),
        Suite::Dsm => efex_dsm::workloads::tenant_workload(seed).map_err(|e| e.to_string()),
        Suite::Pstore => efex_pstore::workloads::tenant_workload(seed).map_err(|e| e.to_string()),
        Suite::Lazydata => efex_lazydata::tenant_workload(seed).map_err(|e| e.to_string()),
        Suite::Watch => efex_watch::tenant_workload(seed).map_err(|e| e.to_string()),
    }
}

/// The app runtimes on their own, then each tenant with health off and on.
/// Returns one pass's summed health-on `run_tenant` time.
fn apps_and_health(p: &mut Probe, specs: &[TenantSpec]) -> Result<f64, String> {
    let m = mark();
    for rep in 0..2 {
        for spec in specs {
            set_id((rep * specs.len()) as u64 + u64::from(spec.id));
            let name = format!("app.{}.tenant_workload", spec.suite);
            let app = span(&name, || tenant_workload(spec.suite, spec.seed))?;
            let off = span("fleet.run_tenant.health_off", || {
                run_tenant(*spec, false, false)
            })
            .map_err(|e| e.to_string())?;
            let on = span("fleet.run_tenant.health_on", || {
                run_tenant(*spec, false, true)
            })
            .map_err(|e| e.to_string())?;
            let same = app.micros.to_bits() == off.micros.to_bits()
                && off.micros.to_bits() == on.micros.to_bits()
                && app.stats == off.stats
                && off.stats == on.stats;
            p.check(same, || {
                format!(
                    "tenant {} ({}): app, health-off and health-on results differ",
                    spec.id, spec.suite
                )
            });
        }
    }
    for suite in Suite::ALL {
        let us = median(&durations_since(m, &format!("app.{suite}.tenant_workload")));
        p.push(format!("app.{suite}.workload_us"), us, "us");
    }
    let off: f64 = durations_since(m, "fleet.run_tenant.health_off")
        .iter()
        .sum();
    let on: f64 = durations_since(m, "fleet.run_tenant.health_on")
        .iter()
        .sum();
    let runs = 2.0 * specs.len() as f64;
    p.push("health.probe_us", (on - off) / runs, "us");
    p.push("health.overhead_frac", on / off - 1.0, "ratio");
    p.notes.push(format!(
        "health.overhead_frac: {on:.0} us with health on against {off:.0} us off, {runs} run_tenant calls each"
    ));
    Ok(on / 2.0)
}

/// `run_fleet` against the summed `run_tenant` times of the same specs, and
/// with two workers against one.
fn pool(p: &mut Probe, seed: u64, specs: &[TenantSpec], tenants_us: f64) -> Result<(), String> {
    let m = mark();
    let mut fingerprints = Vec::new();
    for rep in 0..3 {
        set_id(rep);
        for (name, threads) in [("fleet.run_fleet.1w", 1), ("fleet.run_fleet.2w", 2)] {
            let report =
                span(name, || run_fleet(&probe_fleet(seed, threads))).map_err(|e| e.to_string())?;
            fingerprints.push(report.fingerprint());
        }
    }
    p.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        "run_fleet fingerprint differs between one and two workers".into()
    });
    let one = median(&durations_since(m, "fleet.run_fleet.1w"));
    let two = median(&durations_since(m, "fleet.run_fleet.2w"));
    p.push("fleet.pool_overhead_us", one - tenants_us, "us");
    p.push("fleet.scaling_2w", one / two, "ratio");
    p.notes.push(format!(
        "fleet.scaling_2w: {} tenants, 1 worker {:.0} us, 2 workers {:.0} us, {} CPUs available",
        specs.len(),
        one,
        two,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    Ok(())
}

/// Allocation counts: exact, so they repeat between traced runs. Every
/// counted call runs once uncounted first, so lazily built statics are
/// already in place, and no span is opened inside a counting window.
fn allocations(p: &mut Probe, seed: u64, specs: &[TenantSpec]) -> Result<(), String> {
    let boot = || System::builder().build().map_err(|e| e.to_string());
    drop(boot()?);
    let (sys, _, bytes) = alloc::count(boot);
    drop(sys?);
    p.push("alloc.bytes_per_boot", bytes as f64, "bytes");

    let cold = ColdCheckpoint::setup(seed)?;
    let row = &cold.plan[0];
    let mut sys = System::builder()
        .delivery(row.row.path)
        .build()
        .map_err(|e| e.to_string())?;
    sys.run_program(&row.source, row.steps / 2)
        .map_err(|e| e.to_string())?;
    drop(sys.snapshot().to_bytes());
    let (_, _, bytes) = alloc::count(|| sys.snapshot().to_bytes());
    p.push("alloc.bytes_per_snapshot", bytes as f64, "bytes");

    for suite in Suite::ALL {
        let spec = *specs
            .iter()
            .find(|s| s.suite == suite)
            .expect("the probe plan has every suite");
        run_tenant(spec, false, true).map_err(|e| e.to_string())?;
        let (report, count, bytes) = alloc::count(|| run_tenant(spec, false, true));
        report.map_err(|e| e.to_string())?;
        p.push(
            format!("alloc.{suite}.bytes_per_tenant"),
            bytes as f64,
            "bytes",
        );
        p.push(
            format!("alloc.{suite}.count_per_tenant"),
            count as f64,
            "count",
        );
    }
    Ok(())
}
