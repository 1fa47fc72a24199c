//! The three workloads. Each builds its inputs and reference outputs from
//! the seed in `setup`, then runs closed-loop from one client until the
//! deadline: the next operation starts only when the previous one has
//! returned, as every caller of this batch simulator waits for its result.
//! Every operation's simulated output is checked; a mismatch or an error is
//! a failed operation, never a panic.

use std::time::Instant;

use efex_core::{System, SystemSnapshot};
use efex_fleet::{run_fleet, FleetConfig, FleetReport};
use efex_mips::mem::Memory;
use efex_simos::layout::DEFAULT_PHYS_BYTES;
use efex_simos::RunOutcome;
use efex_snap::fnv64;

use crate::rows::{self, Row};
use crate::spans::{self, span};
use crate::speed;
use crate::stats::Rng;

/// Step budget large enough for any row program to run to its exit.
pub const RUN_TO_EXIT: u64 = u64::MAX;

/// Tenants per `run_fleet` call on fleet-mix: eight of each suite. Calls
/// this large vary little in size between the fleets, so the latency tail is
/// the host's and not the largest fleet's.
pub const FLEET_TENANTS: u32 = 40;

/// Distinct fleets fleet-mix cycles through, with base seeds `seed + k`.
/// A tenant's workload size is its seed modulo small numbers (8, 17, 11,
/// …), so consecutive base seeds walk every tenant through most of its
/// sizes: the run's mix of work then hardly depends on `--seed`.
pub const FLEETS: u64 = 24;

/// The seed whose fleet-mix fingerprint hash is pinned in `expected.json`.
pub const PINNED_SEED: u64 = 1;

/// What one timed pass of a workload measured.
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Work units (tenants or simulated deliveries) per second, one sample
    /// per completed round.
    pub work_rates: Series,
    /// Host µs of each operation.
    pub op_us: Series,
    /// Latency samples of each part of an operation (e.g. `roundtrip`), in µs.
    pub parts_us: Vec<(&'static str, Series)>,
}

/// Samples of one quantity, each kept raw and scaled to the reference host
/// speed by the current [`speed::factor`].
pub struct Series {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

/// Samples reserved per pass. Passes are made before any set-up, while
/// glibc still serves blocks this size by mmap, so the timed loop's
/// bookkeeping never takes heap space: a sample vector regrown while a
/// guest's physical memory is free would land in that hole, fragment the
/// heap and move peak RSS from seed to seed.
const SAMPLE_CAPACITY: usize = 1 << 16;

impl Series {
    pub fn new() -> Series {
        Series {
            raw: Vec::with_capacity(SAMPLE_CAPACITY),
            scaled: Vec::with_capacity(SAMPLE_CAPACITY),
        }
    }

    /// Records a duration.
    pub fn time(&mut self, raw: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * speed::factor());
    }

    /// Records a rate.
    pub fn rate(&mut self, raw: f64) {
        self.raw.push(raw);
        self.scaled.push(raw / speed::factor());
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

impl Pass {
    /// An empty pass with room for every sample, including one latency
    /// series per name in `parts`.
    pub fn new(parts: &[&'static str]) -> Pass {
        Pass {
            attempted: 0,
            failed: 0,
            work_rates: Series::new(),
            op_us: Series::new(),
            parts_us: parts.iter().map(|&p| (p, Series::new())).collect(),
        }
    }

    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: FAILED {}", what());
        }
    }
}

/// Each workload calls [`speed::tick`] between operations, before it
/// records one, so host speed is sampled all through a pass but never
/// inside a timed operation.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one work unit is, for `work_per_s`.
    const UNIT: &'static str;
    /// The name `work_per_s` goes by on this workload, if it has one.
    const RATE_NAME: Option<&'static str>;
    /// Latency series reported per part of an operation.
    const PARTS: &'static [&'static str] = &[];
    fn setup(seed: u64) -> Result<Self, String>;
    /// Runs operations into `pass` until `deadline`, completing at least
    /// one round.
    fn run(&mut self, pass: Pass, deadline: Instant) -> Pass;
}

/// Brings glibc's heap to one seed-independent state before timing:
///
/// - Freeing the first (mmapped) physical memory raises the dynamic mmap
///   threshold past its size, so every later `Memory::new` takes the same
///   heap-and-memset path instead of a fresh zero-page mmap.
/// - Two memories live at once leave two touched heap regions. A single
///   region is enough until a small allocation splits it while it is free;
///   whether and when that happens depends on the seed, and it adds a
///   second region to peak RSS. Touching both up front keeps peak RSS from
///   moving with the seed.
pub fn warm_allocator() {
    for _ in 0..3 {
        let pair = [
            Memory::new(DEFAULT_PHYS_BYTES),
            Memory::new(DEFAULT_PHYS_BYTES),
        ];
        drop(std::hint::black_box(pair));
    }
}

fn boot(row: &Row) -> Result<System, String> {
    System::builder()
        .delivery(row.path)
        .build()
        .map_err(|e| format!("boot {}: {e}", row.name()))
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------- fleet-mix

/// `run_fleet` over all five suites, round-robin, health on, one worker.
pub struct FleetMix {
    configs: Vec<FleetConfig>,
    /// Each fleet's fingerprint from its first run in this process.
    references: Vec<Option<String>>,
    /// The pinned hash of fleet 0's fingerprint, for [`PINNED_SEED`].
    pinned: Option<u64>,
}

impl FleetMix {
    /// Failed tenants in `report`: fingerprint lines that differ from the
    /// reference run's, a whole-fleet failure if the fingerprint's hash
    /// differs from the pinned one, and one per health-monitor violation.
    pub fn failures(report: &FleetReport, reference: &str, pinned: Option<u64>) -> u64 {
        let fp = report.fingerprint();
        let mut failed = fp
            .lines()
            .zip(reference.lines())
            .filter(|(a, b)| a != b)
            .count()
            + fp.lines().count().abs_diff(reference.lines().count());
        let hash = fnv64(fp.as_bytes());
        if let Some(pinned) = pinned.filter(|&h| h != hash) {
            eprintln!("hostbench: fingerprint hash {hash:#x}, pinned {pinned:#x}");
            failed = report.tenants.len();
        }
        for f in report.health_monitor().finish() {
            eprintln!("hostbench: health violation: {f}");
            failed += 1;
        }
        (failed as u64).min(report.tenants.len() as u64)
    }
}

impl Workload for FleetMix {
    const NAME: &'static str = "fleet-mix";
    const UNIT: &'static str = "tenants";
    const RATE_NAME: Option<&'static str> = Some("fleet.tenants_per_s");

    fn setup(seed: u64) -> Result<FleetMix, String> {
        warm_allocator();
        let configs: Vec<FleetConfig> = (0..FLEETS)
            .map(|k| FleetConfig {
                tenants: FLEET_TENANTS,
                threads: 1,
                base_seed: seed.wrapping_add(k),
                health: true,
                ..FleetConfig::default()
            })
            .collect();
        let mut references = vec![None; configs.len()];
        references[0] = Some(
            run_fleet(&configs[0])
                .map_err(|e| e.to_string())?
                .fingerprint(),
        );
        let pinned = (seed == PINNED_SEED).then(crate::expected::fleet_mix_hash);
        Ok(FleetMix {
            configs,
            references,
            pinned,
        })
    }

    fn run(&mut self, mut pass: Pass, deadline: Instant) -> Pass {
        let tenants = u64::from(FLEET_TENANTS);
        let mut op = 0u64;
        while op == 0 || Instant::now() < deadline {
            let k = (op % FLEETS) as usize;
            spans::set_id(op);
            let t = Instant::now();
            let report = span("fleet.run_fleet", || run_fleet(&self.configs[k]));
            let dt = us_since(t);
            let failed = match &report {
                Ok(r) => span("check.fleet", || {
                    let reference = self.references[k].get_or_insert_with(|| r.fingerprint());
                    Self::failures(r, reference, self.pinned.filter(|_| k == 0))
                }),
                Err(e) => {
                    eprintln!("hostbench: {e}");
                    tenants
                }
            };
            speed::tick();
            pass.attempted += tenants;
            pass.failed += failed;
            pass.op_us.time(dt);
            pass.work_rates.rate(tenants as f64 / (dt / 1e6));
            op += 1;
        }
        pass
    }
}

// ----------------------------------------------------------- delivery-storm

/// One booted `System` per Table 2 row, each taking tens of thousands of
/// deliveries under the default machine configuration.
pub struct DeliveryStorm {
    pub plan: Vec<StormRow>,
}

pub struct StormRow {
    pub row: Row,
    pub name: String,
    pub deliveries: u32,
    pub source: String,
    /// Simulated cycles of the reference run.
    pub cycles: u64,
}

/// Deliveries per row before the seed's ±1% jitter. A signal delivery
/// costs several times the host time of a fast one, so those rows take
/// half as many.
fn storm_base_deliveries(row: &Row) -> u32 {
    match row.path {
        efex_core::DeliveryPath::UnixSignals => 10_000,
        _ => 20_000,
    }
}

/// The seed's row order and per-row delivery counts, scaled by `scale`.
pub fn storm_plan(seed: u64, scale: f64) -> Vec<(Row, u32)> {
    let mut rng = Rng::new(seed ^ 0x5707_3000);
    let mut rows = rows::all();
    rng.shuffle(&mut rows);
    rows.into_iter()
        .map(|row| {
            let base = f64::from(storm_base_deliveries(&row)) * scale;
            let jitter = 0.99 + 0.02 * rng.range(0, 1001) as f64 / 1000.0;
            (row, (base * jitter).round().max(1.0) as u32)
        })
        .collect()
}

/// Boots `row`'s system and runs its program to exit: `(outcome, cycles,
/// instructions)`.
pub fn run_row(sys: &mut System, source: &str) -> Result<(RunOutcome, u64, u64), String> {
    let out = sys
        .run_program(source, RUN_TO_EXIT)
        .map_err(|e| e.to_string())?;
    let m = sys.kernel().machine();
    Ok((out, m.cycles(), m.instructions_retired()))
}

impl Workload for DeliveryStorm {
    const NAME: &'static str = "delivery-storm";
    const UNIT: &'static str = "simulated deliveries";
    const RATE_NAME: Option<&'static str> = Some("storm.deliveries_per_s");

    fn setup(seed: u64) -> Result<DeliveryStorm, String> {
        warm_allocator();
        let mut plan = Vec::new();
        for (row, deliveries) in storm_plan(seed, 1.0) {
            let source = row.source(deliveries);
            let (out, cycles, _) = run_row(&mut boot(&row)?, &source)?;
            if out != RunOutcome::Exited(0) {
                return Err(format!("{} reference run ended {out:?}", row.name()));
            }
            plan.push(StormRow {
                name: row.name(),
                row,
                deliveries,
                source,
                cycles,
            });
        }
        Ok(DeliveryStorm { plan })
    }

    fn run(&mut self, mut pass: Pass, deadline: Instant) -> Pass {
        let mut op = 0u64;
        while pass.work_rates.is_empty() || Instant::now() < deadline {
            // Summed operation times, leaving out calibrations.
            let mut round_us = 0.0;
            let mut delivered = 0u64;
            for r in &self.plan {
                if !pass.work_rates.is_empty() && Instant::now() >= deadline {
                    break;
                }
                spans::set_id(op);
                op += 1;
                let t = Instant::now();
                let result = span("core.System::build", || boot(&r.row))
                    .and_then(|mut sys| span(&r.name, || run_row(&mut sys, &r.source)));
                let dt = us_since(t);
                speed::tick();
                pass.op_us.time(dt);
                round_us += dt;
                delivered += u64::from(r.deliveries);
                let ok = matches!(result, Ok((RunOutcome::Exited(0), c, _)) if c == r.cycles);
                pass.record(ok, || format!("{}: {result:?}", r.name));
            }
            if delivered == self.plan.iter().map(|r| u64::from(r.deliveries)).sum() {
                pass.work_rates.rate(delivered as f64 / (round_us / 1e6));
            }
        }
        pass
    }
}

// ---------------------------------------------------------- cold-checkpoint

/// Alternates a cold Table 2 round trip and a checkpoint cycle per row.
pub struct ColdCheckpoint {
    pub plan: Vec<CheckpointRow>,
    rng: Rng,
}

pub struct CheckpointRow {
    pub row: Row,
    pub name: String,
    pub source: String,
    /// Instructions the uninterrupted run retires before exiting.
    pub steps: u64,
    /// `(deliver_cycles, return_cycles)` from BENCH_baseline.json.
    pub roundtrip: (u64, u64),
    /// Final snapshot bytes of the uninterrupted run.
    pub reference: Vec<u8>,
}

/// Deliveries in each checkpointed program.
const CHECKPOINT_DELIVERIES: u32 = 4;

impl CheckpointRow {
    /// A cold round trip: boot, then measure, checked against the baseline.
    pub fn roundtrip(&self) -> Result<bool, String> {
        let mut sys = span("core.System::build", || boot(&self.row))?;
        let rt = span("core.measure_null_roundtrip", || {
            sys.measure_null_roundtrip(self.row.kind)
        })
        .map_err(|e| e.to_string())?;
        Ok((rt.deliver_cycles, rt.return_cycles) == self.roundtrip)
    }

    /// Boots, runs the program for `step` instructions and captures.
    pub fn capture(&self, step: u64) -> Result<Vec<u8>, String> {
        let mut sys = span("core.System::build", || boot(&self.row))?;
        let out = span("core.run_program", || sys.run_program(&self.source, step))
            .map_err(|e| e.to_string())?;
        if out != RunOutcome::StepLimit {
            return Err(format!("ended {out:?} before step {step}"));
        }
        let snap = span("snap.capture", || sys.snapshot());
        Ok(span("snap.encode", || snap.to_bytes()))
    }

    /// Decodes `bytes` into a fresh system and runs it to exit.
    pub fn resume(&self, bytes: &[u8]) -> Result<System, String> {
        let snap = span("snap.decode", || SystemSnapshot::from_bytes(bytes))
            .map_err(|e| format!("decode: {e}"))?;
        let mut sys = span("core.System::build", || boot(&self.row))?;
        span("snap.restore", || sys.restore(&snap)).map_err(|e| format!("restore: {e}"))?;
        match span("simos.run_user", || sys.kernel_mut().run_user(RUN_TO_EXIT)) {
            Ok(RunOutcome::Exited(0)) => Ok(sys),
            other => Err(format!("resumed run ended {other:?}")),
        }
    }

    /// Whether a resumed system's final snapshot equals the reference.
    pub fn matches_reference(&self, resumed: &mut System) -> bool {
        span("check.final_snapshot", || resumed.snapshot().to_bytes()) == self.reference
    }
}

impl Workload for ColdCheckpoint {
    const NAME: &'static str = "cold-checkpoint";
    const UNIT: &'static str = "rows (a cold round trip plus a checkpoint cycle)";
    const RATE_NAME: Option<&'static str> = None;
    const PARTS: &'static [&'static str] = &["roundtrip", "checkpoint"];

    fn setup(seed: u64) -> Result<ColdCheckpoint, String> {
        warm_allocator();
        let baseline = efex_report::Baseline::from_json(crate::expected::BASELINE)?;
        let mut rng = Rng::new(seed ^ 0xc01d_c4e7);
        let mut rows = rows::all();
        rng.shuffle(&mut rows);
        let mut plan = Vec::new();
        for row in rows {
            let source = row.source(CHECKPOINT_DELIVERIES);
            let mut sys = boot(&row)?;
            let (out, _, steps) = run_row(&mut sys, &source)?;
            if out != RunOutcome::Exited(0) {
                return Err(format!("{} reference run ended {out:?}", row.name()));
            }
            let roundtrip = row
                .baseline_cycles(&baseline)
                .ok_or_else(|| format!("no table2 baseline for {}", row.name()))?;
            plan.push(CheckpointRow {
                name: row.name(),
                row,
                source,
                steps,
                roundtrip,
                reference: sys.snapshot().to_bytes(),
            });
        }
        Ok(ColdCheckpoint { plan, rng })
    }

    fn run(&mut self, mut pass: Pass, deadline: Instant) -> Pass {
        let mut op = 0u64;
        while pass.work_rates.is_empty() || Instant::now() < deadline {
            // Summed operation times, leaving out calibrations.
            let mut round_us = 0.0;
            let mut done = 0;
            for r in &self.plan {
                if !pass.work_rates.is_empty() && Instant::now() >= deadline {
                    break;
                }
                spans::set_id(op);
                op += 1;
                let step = self.rng.range(1, r.steps);
                let t = Instant::now();
                let rt = span("cold.roundtrip", || r.roundtrip());
                let mid = Instant::now();
                let resumed = span("cold.checkpoint", || {
                    r.capture(step).and_then(|bytes| r.resume(&bytes))
                });
                let end = Instant::now();
                speed::tick();
                pass.parts_us[0].1.time((mid - t).as_secs_f64() * 1e6);
                pass.parts_us[1].1.time((end - mid).as_secs_f64() * 1e6);
                let dt = (end - t).as_secs_f64() * 1e6;
                pass.op_us.time(dt);
                round_us += dt;
                pass.record(rt == Ok(true), || format!("{} round trip: {rt:?}", r.name));
                let ck = resumed.map(|mut sys| r.matches_reference(&mut sys));
                pass.record(ck == Ok(true), || {
                    format!("{} checkpoint at step {step}: {ck:?}", r.name)
                });
                done += 1;
            }
            if done == self.plan.len() {
                pass.work_rates.rate(done as f64 / (round_us / 1e6));
            }
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_mix_counts_a_wrong_pinned_hash_as_failed_tenants() {
        let mut w = FleetMix::setup(3).expect("setup");
        assert_eq!(
            w.run(Pass::new(&["roundtrip", "checkpoint"]), Instant::now())
                .failed,
            0
        );
        w.pinned = Some(0xbad);
        let pass = w.run(Pass::new(&["roundtrip", "checkpoint"]), Instant::now());
        assert_eq!(pass.attempted, u64::from(FLEET_TENANTS));
        assert_eq!(pass.failed, pass.attempted);
    }

    #[test]
    fn fleet_mix_counts_each_differing_fingerprint_line() {
        let mut w = FleetMix::setup(3).expect("setup");
        let reference = w.references[0].as_mut().expect("fleet 0 has run");
        *reference = reference.replacen("tenant 0 ", "tenant 99 ", 1);
        assert_eq!(
            w.run(Pass::new(&["roundtrip", "checkpoint"]), Instant::now())
                .failed,
            1
        );
    }

    #[test]
    fn delivery_storm_counts_wrong_cycles_as_a_failed_row() {
        let mut w = DeliveryStorm::setup(3).expect("setup");
        w.plan[0].cycles += 1;
        let pass = w.run(Pass::new(&["roundtrip", "checkpoint"]), Instant::now());
        assert_eq!((pass.attempted, pass.failed), (7, 1));
    }

    #[test]
    fn cold_checkpoint_counts_perturbed_references_as_failed() {
        let mut w = ColdCheckpoint::setup(3).expect("setup");
        w.plan[0].roundtrip.0 += 1;
        w.plan[1].reference.truncate(100);
        let pass = w.run(Pass::new(&["roundtrip", "checkpoint"]), Instant::now());
        assert_eq!((pass.attempted, pass.failed), (14, 2));
    }

    #[test]
    fn truncated_snapshot_does_not_resume() {
        let w = ColdCheckpoint::setup(3).expect("setup");
        let r = &w.plan[0];
        let bytes = r.capture(r.steps / 2).expect("capture");
        let mut resumed = r.resume(&bytes).expect("resume");
        assert!(r.matches_reference(&mut resumed));
        assert!(r.resume(&bytes[..bytes.len() - 1]).is_err());
    }
}
