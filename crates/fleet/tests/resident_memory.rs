//! Resident physical memory is bounded per tenant.
//!
//! Physical memory is sparse: a page holds storage only once written. So a
//! booted system, and each suite's tenant workload, keeps resident only the
//! pages it touched — a few dozen to a few hundred of the 4096 pages of the
//! default 16 MiB machine. The kernel's health snapshot reports the count
//! as `resident_pages` (summed over a tenant's machines). The bounds below
//! are the counts measured when this test was written plus headroom; a
//! change that makes untouched memory resident again blows far past them.
//!
//! The test lives here rather than beside `System` in efex-core because
//! efex-fleet is the lowest crate that sees all five suites.

use efex_core::System;
use efex_fleet::{run_tenant, Suite, TenantSpec};
use efex_mips::machine::MachineConfig;
use efex_simos::layout::DEFAULT_PHYS_BYTES;
use efex_trace::StatsSnapshot;

/// Pages of the default machine.
const PHYS_PAGES: u64 = (DEFAULT_PHYS_BYTES / 4096) as u64;

fn resident(health: &StatsSnapshot) -> u64 {
    health
        .get("resident_pages")
        .expect("the kernel health snapshot reports resident_pages")
}

#[test]
fn a_booted_system_holds_only_its_images() {
    let sys = System::builder().build().unwrap();
    let pages = resident(&sys.health_snapshot());
    let listed = sys.kernel().machine().mem().resident_pages().count() as u64;
    assert_eq!(pages, listed);
    // Measured: 2 pages (the kernel image and the trampoline's frame).
    assert!(pages <= 4, "booted system holds {pages} resident pages");
}

/// A tenant's bound in pages; the comments give the counts measured on
/// seeds 0-3.
fn bound(suite: Suite) -> u64 {
    match suite {
        Suite::Gc => 32,      // 22-23
        Suite::Dsm => 12,     // 6, over two nodes
        Suite::Pstore => 28,  // 16-19
        Suite::Lazydata => 6, // 3
        Suite::Watch => 6,    // 3
    }
}

#[test]
fn each_suites_tenant_stays_within_its_bound() {
    for suite in Suite::ALL {
        let bound = bound(suite);
        assert!(
            bound < PHYS_PAGES / 16,
            "{suite:?}: bound {bound} is not sparse"
        );
        for seed in 0..4 {
            let spec = TenantSpec {
                id: 0,
                suite,
                seed,
                machine: MachineConfig::default(),
            };
            // The tenant's own `resident_pages`: its workload's machines
            // at the end of `tenant_workload` (the delivery probe reports
            // under `probe_`).
            let pages = resident(&run_tenant(spec, false, true).unwrap().health);
            assert!(
                pages <= bound,
                "{suite:?} tenant (seed {seed}) holds {pages} resident pages, bound {bound}"
            );
        }
    }
}
