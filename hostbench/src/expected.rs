//! Reference data the checks compare against, compiled in so a run needs
//! nothing but its checkout.

use efex_report::jsonval;

/// The recorded simulated-cycle baseline (Table 2 round trips).
pub const BASELINE: &str = include_str!("../../BENCH_baseline.json");

/// Pinned outputs of this benchmark (see `expected.json`).
const EXPECTED: &str = include_str!("../expected.json");

/// FNV-1a 64 of the fleet-mix `FleetReport::fingerprint` for
/// [`crate::workloads::PINNED_SEED`].
pub fn fleet_mix_hash() -> u64 {
    let doc = jsonval::parse(EXPECTED).expect("expected.json is valid JSON");
    let hex = doc
        .get("fleet_mix_fingerprint_fnv1a64")
        .and_then(|v| v.as_str())
        .expect("expected.json pins fleet_mix_fingerprint_fnv1a64");
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("a hex u64")
}
