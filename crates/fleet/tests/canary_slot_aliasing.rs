//! The health-plane canary: feed the monitor the delivery-probe counters the
//! decode cache produced under its historical slot-aliasing bug (a plain
//! `vpn % 64` slot hash, which maps user text onto its KSEG0 counterpart)
//! and prove the always-on monitor catches it with an actionable finding.
//!
//! The pathology is *architecturally invisible* — every delivery still
//! produces bit-identical results, just slower — which is exactly why it
//! needs a health invariant rather than a correctness test. The figures are
//! the ones the aliased probe measured (EXPERIMENTS.md, health walkthrough):
//! 0 hits in 767 lookups, 61 slot evictions. The slot hash itself is pinned
//! by a unit test next to `dcache_slot_hash` in efex-mips.

use efex_fleet::{run_fleet, FleetConfig, FleetReport};

/// Overwrites one existing health counter of every tenant.
fn set_probe_counter(report: &mut FleetReport, name: &str, value: u64) {
    for t in &mut report.tenants {
        let slot = t
            .health
            .counters
            .iter_mut()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("tenant {} reports no {name}", t.id));
        slot.1 = value;
    }
}

#[test]
fn aliased_probe_counters_trip_the_hit_rate_invariant() {
    let green = run_fleet(&FleetConfig {
        tenants: 5, // one tenant per suite
        threads: 1,
        ..FleetConfig::default()
    })
    .expect("green fleet");
    assert!(
        green.health_monitor().finish().is_empty(),
        "the real slot hash must be clean"
    );

    let mut sick = green.clone();
    set_probe_counter(&mut sick, "probe_decode_cache_hits", 0);
    set_probe_counter(&mut sick, "probe_decode_cache_misses", 767);
    set_probe_counter(&mut sick, "probe_decode_cache_evictions", 61);

    let mut mon = sick.health_monitor();
    let findings = mon.finish().to_vec();
    assert!(!mon.healthy(), "the canary must trip the monitor");
    let listing = findings
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    for invariant in ["decode-cache-hit-rate", "decode-cache-eviction-churn"] {
        let mut tenants: Vec<u32> = findings
            .iter()
            .filter(|f| f.invariant == invariant)
            .map(|f| f.tenant.expect("per-tenant scope"))
            .collect();
        tenants.sort_unstable();
        tenants.dedup();
        assert_eq!(tenants, [0, 1, 2, 3, 4], "{invariant}:\n{listing}");
    }
    for f in findings
        .iter()
        .filter(|f| f.invariant == "decode-cache-hit-rate")
    {
        // The finding must be actionable: raw operands plus a hint that
        // points at the slot hash.
        assert!(
            f.observed.contains("probe_decode_cache_hits")
                && f.observed.contains("probe_decode_cache_misses")
                && f.observed.contains("(0 / 767)"),
            "{}",
            f.observed
        );
        assert!(f.bound.starts_with(">="), "{}", f.bound);
        assert!(
            f.hint.contains("dcache_slot_hash") && f.hint.contains("aliasing"),
            "hint must point at the slot hash: {}",
            f.hint
        );
    }
}
