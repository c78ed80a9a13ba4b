//! Metric-name suffixes of the per-reason exit counts. Every metric
//! name and unit is listed in `BENCHMARK.json`; `run.py` attaches the
//! units and checks the printed names against it.

use nova_hw::vmx::ExitReason;

/// Metric-name suffix of each exit reason, by `ExitReason::index`.
pub const EXIT_NAMES: [&str; ExitReason::COUNT] = [
    "ext_int",
    "int_window",
    "cpuid",
    "hlt",
    "invlpg",
    "mov_cr",
    "io_port",
    "ept_violation",
    "page_fault",
    "vmcall",
    "rdtsc",
    "recall",
    "preempt",
    "triple_fault",
];
