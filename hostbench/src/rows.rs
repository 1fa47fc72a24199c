//! The seven Table 2 rows and their guest microbenchmark programs.

use efex_bench::suite::GUEST_MATRIX;
use efex_core::debug_progs as progs;
use efex_core::{DeliveryPath, ExceptionKind};
use efex_report::{Baseline, MetricValue};
use efex_trace::FaultClass;

/// One Table 2 row: a delivery path and the exception class it delivers.
#[derive(Clone, Copy)]
pub struct Row {
    pub path: DeliveryPath,
    pub kind: ExceptionKind,
}

/// Every row, in `GUEST_MATRIX` order.
pub fn all() -> Vec<Row> {
    GUEST_MATRIX
        .iter()
        .map(|&(path, kind)| Row { path, kind })
        .collect()
}

impl Row {
    /// `<path>.<class>`, as in BENCH_baseline.json's `table2/<path>/<class>`.
    pub fn name(&self) -> String {
        format!("{}.{}", self.path, FaultClass::from(self.kind).as_str())
    }

    /// The row's guest program taking `n` deliveries, then exiting 0.
    pub fn source(&self, n: u32) -> String {
        match (self.path, self.kind) {
            (DeliveryPath::UnixSignals, ExceptionKind::Breakpoint) => progs::unix_simple_bench(n),
            (DeliveryPath::UnixSignals, ExceptionKind::WriteProtect) => progs::unix_prot_bench(n),
            (DeliveryPath::FastUser, ExceptionKind::Breakpoint) => progs::fast_simple_bench(n),
            (DeliveryPath::FastUser, ExceptionKind::WriteProtect) => progs::fast_prot_bench(n),
            (DeliveryPath::FastUser, ExceptionKind::Subpage) => progs::fast_subpage_bench(n),
            (DeliveryPath::FastUser, ExceptionKind::UnalignedSpecialized) => {
                progs::fast_unaligned_specialized_bench(n)
            }
            (DeliveryPath::HardwareVectored, ExceptionKind::Breakpoint) => {
                progs::hw_simple_bench(n)
            }
            (path, kind) => unreachable!("GUEST_MATRIX has no row {path}/{kind:?}"),
        }
    }

    /// The recorded `(deliver_cycles, return_cycles)` of this row.
    pub fn baseline_cycles(&self, baseline: &Baseline) -> Option<(u64, u64)> {
        let key = format!(
            "table2/{}/{}",
            self.path,
            FaultClass::from(self.kind).as_str()
        );
        let get = |field: &str| {
            baseline
                .get(&format!("{key}/{field}"))
                .and_then(|m| match m.value {
                    MetricValue::Int(v) => Some(v),
                    MetricValue::Float(_) => None,
                })
        };
        Some((get("deliver_cycles")?, get("return_cycles")?))
    }
}
