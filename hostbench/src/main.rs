//! Host-time benchmark of the efex simulator.
//!
//! ```text
//! hostbench --workload <fleet-mix|delivery-storm|cold-checkpoint>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times (reporting the median as
//! `setup_s`), runs it closed-loop for `--seconds` and prints the
//! end-to-end metrics. Every timing is scaled to a reference host speed by
//! a calibration timed between operations (see `speed`); the raw figures
//! are printed beside it. `--trace 1` runs the workload for half the time
//! untraced and half traced (their difference is the tracing overhead),
//! then runs the per-layer probes, prints the per-layer metrics and a
//! self-time table, and writes the spans as a Chrome trace under `out/`.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! The simulator is driven only through public entry points; simulated
//! outputs are checked on every operation and mismatches counted in
//! `failed`.

mod alloc;
mod expected;
mod layers;
mod rows;
mod spans;
mod speed;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, tail};
use workloads::{ColdCheckpoint, DeliveryStorm, FleetMix, Pass, Series, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        FleetMix::NAME => drive::<FleetMix>(&args),
        DeliveryStorm::NAME => drive::<DeliveryStorm>(&args),
        ColdCheckpoint::NAME => drive::<ColdCheckpoint>(&args),
        other => Err(format!(
            "unknown workload {other:?}: expected fleet-mix, delivery-storm or cold-checkpoint"
        )),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive<W: Workload>(args: &Args) -> Result<String, String> {
    let mut passes = [Pass::new(W::PARTS), Pass::new(W::PARTS)].into_iter();
    let mut pass = || passes.next().expect("at most two passes per run");
    speed::init();
    let mut setups = Series::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(args.seed)?);
        let dt = t.elapsed().as_secs_f64();
        speed::calibrate();
        setups.time(dt);
    }
    let setup_s = median(&setups.scaled);
    let mut w = workload.expect("SETUP_REPEATS > 0");
    println!(
        "hostbench: {} seed={} seconds={} trace={}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("raw setup_s {} s", median(&setups.raw));

    if !args.trace {
        speed::calibrate();
        let pass = w.run(
            pass(),
            Instant::now() + Duration::from_secs_f64(args.seconds),
        );
        let metrics = end_to_end::<W>(&pass, setup_s)?;
        print_metrics(&metrics);
        return result_json(pass.attempted, pass.failed, &metrics);
    }

    let half = Duration::from_secs_f64(args.seconds / 2.0);
    speed::calibrate();
    let untraced = w.run(pass(), Instant::now() + half);
    println!("untraced pass:");
    let before = end_to_end::<W>(&untraced, setup_s)?;
    spans::start();
    speed::calibrate();
    let traced = w.run(pass(), Instant::now() + half);
    println!("traced pass:");
    let after = end_to_end::<W>(&traced, setup_s);
    let probe = layers::probe(args.seed);
    let spans = spans::finish();
    let (after, probe) = (after?, probe?);

    println!(
        "tracing overhead (traced minus untraced, {:.1} s each):",
        half.as_secs_f64()
    );
    for (u, t) in before
        .iter()
        .zip(&after)
        .filter(|(u, _)| u.name != "setup_s")
    {
        println!(
            "  {:<20} untraced {:>14.3} traced {:>14.3} {}  diff {:+.3} ({:+.2}%)",
            u.name,
            u.value,
            t.value,
            u.unit,
            t.value - u.value,
            100.0 * (t.value - u.value) / u.value
        );
    }
    print_self_times(&spans);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.json", W::NAME, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(&spans)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("chrome trace: {} spans written to {path}", spans.len());
    for note in &probe.notes {
        println!("note {note}");
    }
    print_metrics(&probe.metrics);
    let attempted = untraced.attempted + traced.attempted + probe.attempted;
    let failed = untraced.failed + traced.failed + probe.failed;
    result_json(attempted, failed, &probe.metrics)
}

/// The end-to-end metrics of one pass; also prints the workload-specific
/// names they stand for (`fleet.tenants_per_s`, `roundtrip.p50_us`, …).
fn end_to_end<W: Workload>(pass: &Pass, setup_s: f64) -> Result<Vec<Metric>, String> {
    let m = |name: &str, value, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let (tail_pct, tail_us) = tail(&pass.op_us.scaled);
    let metrics = vec![
        m("setup_s", setup_s, "s"),
        m("peak_rss_mib", peak_rss_mib()?, "MiB"),
        m("work_per_s", median(&pass.work_rates.scaled), "1/s"),
        m("op_p50_us", median(&pass.op_us.scaled), "us"),
        m("op_tail_us", tail_us, "us"),
    ];
    println!(
        "work unit: {}; {} rounds; op tail is p{tail_pct:.2} of {} ops",
        W::UNIT,
        pass.work_rates.len(),
        pass.op_us.len()
    );
    println!(
        "host speed: calibration median {:.0} us over the run against {} us for the reference speed",
        speed::median_us(),
        speed::REFERENCE_US
    );
    println!("raw work_per_s {} 1/s", median(&pass.work_rates.raw));
    println!("raw op_p50_us {} us", median(&pass.op_us.raw));
    println!("raw op_tail_us {} us", tail(&pass.op_us.raw).1);
    if let Some(name) = W::RATE_NAME {
        println!("metric {name} {} 1/s", median(&pass.work_rates.scaled));
    }
    for (part, samples) in &pass.parts_us {
        let (pct, t) = tail(&samples.scaled);
        println!("metric {part}.p50_us {} us", median(&samples.scaled));
        println!(
            "metric {part}.tail_us {t} us (p{pct:.2} of {} samples)",
            samples.len()
        );
    }
    Ok(metrics)
}

/// VmHWM of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
}

fn print_self_times(spans: &[spans::Span]) {
    let table = spans::self_times(spans);
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(spans::Span::dur_ns)
        .sum();
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|&(_, (_, _, self_ns))| std::cmp::Reverse(self_ns));
    println!(
        "{:<44} {:>8} {:>12} {:>12} {:>7}",
        "span (self time)", "count", "total ms", "self ms", "self %"
    );
    for (name, (count, total, self_ns)) in rows {
        println!(
            "{name:<44} {count:>8} {:>12.3} {:>12.3} {:>6.2}%",
            total as f64 / 1e6,
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / wall as f64
        );
    }
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured {}", m.name, m.value));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}
