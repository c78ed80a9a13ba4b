//! The four workloads and their seeded inputs.
//!
//! Every guest image is generated here from the workload seed, and the
//! guest receives nothing else: the compile workloads take
//! `nova_guest::compile` with `CompileParams` perturbed slightly around
//! the Figure 5 calibration, and the disk workloads take a lean guest
//! built by [`crate::disk`] around a seeded request stream.

use std::ops::Range;

use nova_bench::configs::GUEST_PAGES;
use nova_guest::compile::{self, CompileParams};
use nova_guest::os::Program;
use nova_guest::rt::layout;

use crate::disk::{self, DiskStream};
use crate::rng::Rng;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5 compile guest under NOVA EPT+VPID+2M.
    CompileEpt,
    /// The same guest and seed under NOVA shadow paging (vTLB).
    CompileVtlb,
    /// Lean seeded 4 KB disk requests through trapped vAHCI MMIO.
    DiskTrapped,
    /// The same request stream through the batched PV ring.
    DiskPv,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CompileEpt,
        Workload::CompileVtlb,
        Workload::DiskTrapped,
        Workload::DiskPv,
    ];

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileEpt => "compile_ept",
            Workload::CompileVtlb => "compile_vtlb",
            Workload::DiskTrapped => "disk_trapped",
            Workload::DiskPv => "disk_pv",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the guest is the compile guest.
    pub fn is_compile(self) -> bool {
        matches!(self, Workload::CompileEpt | Workload::CompileVtlb)
    }
}

/// Input size: the measured size, or a small one for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The size every benchmark run uses.
    Bench,
    /// A short run for the benchmark's own tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// PV requests per doorbell.
pub const PV_BATCH: u32 = 8;

/// A workload's generated inputs.
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The guest image.
    pub program: Program,
    /// Byte ranges of `program.bytes` that hold instructions (the rest
    /// is the request table and write buffers).
    pub code: Vec<Range<usize>>,
    /// Operations one run performs: compile tasks or disk requests.
    pub ops: u64,
    /// Guest-physical pages the workload touches.
    pub working_set: Vec<u64>,
    /// The request stream and its expected results (disk workloads).
    pub disk: Option<DiskStream>,
}

/// Compile tasks per run.
fn compile_tasks(scale: Scale) -> u32 {
    match scale {
        Scale::Bench => 2,
        Scale::Smoke => 1,
    }
}

/// Disk requests per run (a multiple of [`PV_BATCH`]).
fn disk_requests(scale: Scale) -> u32 {
    match scale {
        Scale::Bench => 8192,
        Scale::Smoke => 64,
    }
}

/// The Figure 5 calibration (`CompileParams::bench`) at `tasks` tasks,
/// with the working-set size, INVLPG count and timer divisor nudged by
/// the seed. The nudges are a few percent at most, so the amount of
/// work stays close to the calibration.
pub fn compile_params(seed: u64, scale: Scale) -> CompileParams {
    let mut r = Rng::new(seed ^ 0xc0de_c0de);
    let base = CompileParams::bench();
    let task_pages = match scale {
        Scale::Bench => base.task_pages - 1 + r.below(3) as u32,
        Scale::Smoke => 16,
    };
    CompileParams {
        tasks: compile_tasks(scale),
        task_pages,
        invlpg_per_task: base.invlpg_per_task - 1 + r.below(3) as u32,
        timer_divisor: base.timer_divisor.map(|d| d - 12 + r.below(25) as u16),
        ..base
    }
}

/// Generates the inputs of `workload` from `seed`.
pub fn spec(workload: Workload, seed: u64, scale: Scale) -> Spec {
    if workload.is_compile() {
        let p = compile_params(seed, scale);
        let program = compile::build(p);
        let len = program.bytes.len();
        let mut working_set = base_pages(&program);
        working_set.extend([
            page(layout::BOOT_PD),
            page(layout::TASK_PD[0]),
            page(layout::TASK_PD[1]),
            page(layout::DISK_CMD),
            page(layout::DISK_CTBA),
            page(layout::DISK_BUF),
        ]);
        // The task's frames: its page table plus the demand-faulted
        // working set, allocated from the frame pool for every task.
        working_set.extend((0..p.task_pages as u64 + 2).map(|i| page(layout::FRAME_POOL) + i));
        return Spec {
            workload,
            program,
            code: std::iter::once(0..len).collect(),
            ops: p.tasks as u64,
            working_set: dedup(working_set),
            disk: None,
        };
    }
    let stream = DiskStream::generate(seed, disk_requests(scale), PV_BATCH);
    let pv = workload == Workload::DiskPv;
    let (program, code) = disk::build(&stream, pv);
    let mut working_set = base_pages(&program);
    if pv {
        working_set.push(page(layout::PV_DISK_RING));
        working_set.extend((0..PV_BATCH as u64).map(|i| page(layout::PV_DISK_BUF) + i));
    } else {
        working_set.extend([
            page(layout::DISK_CMD),
            page(layout::DISK_CTBA),
            page(layout::DISK_BUF),
        ]);
    }
    Spec {
        workload,
        program,
        code,
        ops: stream.requests.len() as u64,
        working_set: dedup(working_set),
        disk: Some(stream),
    }
}

fn page(gpa: u32) -> u64 {
    gpa as u64 >> 12
}

/// Pages every guest touches: its image, the IDT/variables page and
/// the stack page.
fn base_pages(p: &Program) -> Vec<u64> {
    let first = p.load_gpa >> 12;
    let last = (p.load_gpa + p.bytes.len() as u64 - 1) >> 12;
    let mut v: Vec<u64> = (first..=last).collect();
    v.extend([
        page(layout::IDT),
        page(layout::VARS),
        page(layout::STACK - 4),
    ]);
    v
}

fn dedup(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v.dedup();
    assert!(
        v.iter().all(|&p| p < GUEST_PAGES),
        "working set inside guest RAM"
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        for w in Workload::ALL {
            for scale in [Scale::Smoke, Scale::Bench] {
                let a = spec(w, 42, scale);
                let b = spec(w, 42, scale);
                assert_eq!(a.program.bytes, b.program.bytes, "{}", w.name());
                assert_eq!(a.working_set, b.working_set);
            }
            let other = spec(w, 43, Scale::Bench);
            assert_ne!(
                spec(w, 42, Scale::Bench).program.bytes,
                other.program.bytes,
                "{}: the seed reaches the image",
                w.name()
            );
        }
    }

    #[test]
    fn compile_nudges_stay_near_the_calibration() {
        let base = CompileParams::bench();
        for seed in 0..64 {
            let p = compile_params(seed, Scale::Bench);
            assert!(p.task_pages.abs_diff(base.task_pages) <= 1);
            assert!(p.invlpg_per_task.abs_diff(base.invlpg_per_task) <= 1);
            let (d, bd) = (p.timer_divisor.unwrap(), base.timer_divisor.unwrap());
            assert!(d.abs_diff(bd) <= 12);
            assert_eq!(
                (p.compute_loops, p.switches_per_task, p.disk_every),
                (base.compute_loops, base.switches_per_task, base.disk_every)
            );
        }
    }

    #[test]
    fn code_ranges_decode_and_skip_the_data() {
        for w in Workload::ALL {
            let s = spec(w, 9, Scale::Smoke);
            let offs = crate::probes::instruction_offsets(&s);
            assert!(offs.len() > 50, "{}", w.name());
            // Every image carries the OS's AHCI interrupt handler.
            let store = crate::probes::trapped_store(&s.program, &offs);
            assert!(store.is_some(), "{}", w.name());
        }
    }
}
