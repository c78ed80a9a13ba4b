//! One measured run: `System::build` of the full NOVA stack (root
//! partition manager, disk server, VMM, VM), the seeded guest to
//! shutdown, then the output checks. Host time is taken around the two
//! calls from outside; everything else is read from the public
//! `Kernel`, `Cpu` and `VDevices` state after the run.

use std::ops::Range;
use std::time::Instant;

use nova_bench::configs::{NovaKnobs, GUEST_PAGES};
use nova_core::obj::VmPaging;
use nova_core::{Counters, KernelConfig, RunOutcome};
use nova_guest::rt::{layout, vars};
use nova_hw::cost::BLM;
use nova_hw::machine::MachineConfig;
use nova_hw::tlb::TlbStats;
use nova_trace::event::{cat, Kind, TraceEvent};
use nova_trace::{causal, Tracer};
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova_x86::paging::pte;

use crate::disk::{self, MARK_END, MARK_START, VAR_ERRS};
use crate::workload::{Spec, Workload};

/// Cycle budget of one run (far above any workload's need).
pub const BUDGET: u64 = 2_000_000_000_000;

/// Host memory of the simulated machine.
const RAM: usize = 96 << 20;

/// The machine every run uses: BLM cost model, one CPU, IOMMU on.
pub fn machine_config() -> MachineConfig {
    MachineConfig {
        cost: BLM,
        ram: RAM,
        iommu: true,
        cpus: 1,
    }
}

/// Counts a run leaves in the public kernel, CPU and device state. All
/// of them are simulated quantities, so they repeat exactly per seed.
#[derive(Clone, Debug)]
pub struct Counts {
    /// Guest-visible completion time between the guest's marks.
    pub sim_cycles: u64,
    /// Non-idle simulated cycles of the run.
    pub sim_busy_cycles: u64,
    /// Retired guest instructions.
    pub instret: u64,
    /// The CPU's TLB statistics.
    pub tlb: TlbStats,
    /// The microhypervisor's event counters.
    pub counters: Counters,
    /// vAHCI completions delivered to the guest.
    pub vahci_completions: u64,
    /// PV ring doorbells.
    pub pv_doorbells: u64,
    /// PV ring completions.
    pub pv_completions: u64,
}

impl Counts {
    /// Everything that must repeat exactly across runs of one seed.
    /// `Counters` and `TlbStats` carry no `PartialEq`, so their full
    /// debug rendering is compared.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Trace-derived numbers of a traced run.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Events recorded.
    pub events: u64,
    /// Events lost to a full ring.
    pub dropped: u64,
    /// Critical-path cycles per layer (`causal::Layer::ALL` order).
    pub layer_cycles: [u64; causal::LAYER_COUNT],
    /// End-to-end cycles of the same requests.
    pub request_cycles: u64,
    /// Disk-server request latencies, accept to complete, sorted.
    pub disk_latencies: Vec<u64>,
}

/// The result of one run.
pub struct Run {
    /// Host seconds in `System::build`.
    pub setup_s: f64,
    /// Host seconds from the first guest instruction to shutdown.
    pub run_s: f64,
    /// Simulated counts.
    pub counts: Counts,
    /// Operations that failed an output check.
    pub failed_ops: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// Trace numbers, when traced.
    pub trace: Option<TraceStats>,
    /// First host page of guest RAM.
    pub guest_base_page: u64,
}

/// Launch options of `spec` under `paging` and the workload's knobs.
fn launch_options(spec: &Spec, paging: VmPaging) -> LaunchOptions {
    let p = &spec.program;
    let image = GuestImage {
        bytes: p.bytes.clone(),
        load_gpa: p.load_gpa,
        entry: p.entry,
        stack: p.stack,
    };
    let knobs = NovaKnobs::best();
    let mut cfg = VmmConfig::full_virt(image, GUEST_PAGES);
    cfg.paging = paging;
    cfg.mtd_full = knobs.mtd_full;
    cfg.pv_disk = spec.workload == Workload::DiskPv;
    let mut opts = LaunchOptions::standard(cfg);
    opts.machine = machine_config();
    opts.kernel = KernelConfig {
        use_tags: knobs.tags,
        host_large_pages: knobs.large_pages,
        scheduler_timer_hz: Some(1000),
        ..KernelConfig::default()
    };
    opts
}

/// The paging mode a workload runs under.
pub fn paging_of(w: Workload) -> VmPaging {
    match w {
        Workload::CompileVtlb => VmPaging::Shadow,
        _ => NovaKnobs::best().paging,
    }
}

/// Runs `spec` once under `paging`. With `trace_capacity`, a tracer of
/// that many events per CPU recording every category is installed
/// after boot. Returns the run's numbers and the finished system, for
/// checks and probes that read its state.
pub fn run(spec: &Spec, paging: VmPaging, trace_capacity: Option<usize>) -> (Run, System) {
    let opts = launch_options(spec, paging);
    let base = opts.vmm.guest_base_page;
    let t0 = Instant::now();
    let mut sys = System::build(opts);
    let setup_s = t0.elapsed().as_secs_f64();

    if let Some(capacity) = trace_capacity {
        let cpus = sys.k.machine.cpus.len();
        let mut t = Tracer::new(cpus, capacity, cat::ALL);
        t.carry_over(sys.k.machine.tracer());
        *sys.k.machine.tracer_mut() = t;
    }

    let clock0 = sys.k.machine.clock;
    let idle0 = sys.k.machine.cpus[0].idle_cycles;
    let t0 = Instant::now();
    let outcome = sys.run(Some(BUDGET));
    let run_s = t0.elapsed().as_secs_f64();

    let m = &sys.k.machine;
    let marks = m.marks().to_vec();
    let idle = m.cpus[0].idle_cycles - idle0;
    let sim_busy_cycles = (m.clock - clock0) - idle;
    let mark_at = |v: u32| marks.iter().find(|(_, x)| *x == v).map(|(c, _)| *c);
    // The compile guest marks only its end; its start is the first
    // guest instruction.
    let sim_cycles = if spec.workload.is_compile() {
        marks.last().map(|(c, _)| c - clock0)
    } else {
        mark_at(MARK_START)
            .zip(mark_at(MARK_END))
            .map(|(s, e)| e - s)
    };

    let mut failures = Vec::new();
    if outcome != RunOutcome::Shutdown(0) {
        failures.push(format!("guest did not exit with code 0: {outcome:?}"));
    }
    if sim_cycles.is_none() {
        failures.push(format!("guest marks missing: {marks:?}"));
    }
    let (vahci_completions, pv_doorbells, pv_completions) = {
        let dev = sys.vmm().dev();
        let (va, pv) = (&dev.vahci, &dev.pvdisk);
        for (what, n) in [
            ("vAHCI error completions", va.errors),
            ("vAHCI degraded completions", va.degraded),
            ("PV error completions", pv.errors),
            ("PV degraded completions", pv.degraded),
        ] {
            if n != 0 {
                failures.push(format!("{what}: {n}"));
            }
        }
        (va.completions, pv.doorbells, pv.completions)
    };
    let counts = Counts {
        sim_cycles: sim_cycles.unwrap_or(0),
        sim_busy_cycles,
        instret: sys.k.machine.cpus[0].instret,
        tlb: sys.k.machine.cpus[0].tlb.stats,
        counters: sys.k.counters.clone(),
        vahci_completions,
        pv_doorbells,
        pv_completions,
    };
    if counts.counters.degraded_errors != 0 {
        failures.push(format!(
            "degraded disk requests: {}",
            counts.counters.degraded_errors
        ));
    }

    let mut failed_ops = 0;
    if let Some(stream) = &spec.disk {
        failed_ops = check_disk(&mut sys, base, spec, stream, &mut failures);
    }
    let trace = trace_capacity.map(|_| trace_stats(&sys, &mut failures));
    if !failures.is_empty() && (spec.workload.is_compile() || failed_ops == 0) {
        failed_ops = spec.ops;
    }

    let run = Run {
        setup_s,
        run_s,
        counts,
        failed_ops: failed_ops.min(spec.ops),
        failures,
        trace,
        guest_base_page: base,
    };
    (run, sys)
}

/// `len` bytes of guest RAM at `gpa`; guest RAM starts at host page
/// `base`.
fn read_guest(sys: &System, base: u64, gpa: u64, len: usize) -> Vec<u8> {
    sys.k
        .machine
        .mem
        .slice(base * 4096 + gpa, len)
        .expect("guest RAM inside host memory")
        .to_vec()
}

/// Disk checks: the guest's own read checks, every written block on
/// the disk, and the final content of every read buffer. Returns the
/// number of failed requests.
fn check_disk(
    sys: &mut System,
    base: u64,
    spec: &Spec,
    stream: &disk::DiskStream,
    failures: &mut Vec<String>,
) -> u64 {
    let errs_gpa = (layout::VARS + VAR_ERRS) as u64;
    let errs = read_guest(sys, base, errs_gpa, 4);
    let guest_errs = u32::from_le_bytes([errs[0], errs[1], errs[2], errs[3]]) as u64;
    if guest_errs != 0 {
        failures.push(format!("guest read checks failed: {guest_errs}"));
    }

    let mut bad_blocks = 0;
    for (lba, tag) in stream.final_writes() {
        let want = stream.written_block(tag);
        let ahci = sys.k.machine.ahci();
        let got: Vec<u8> = (0..disk::BLOCK_SECTORS as u64)
            .flat_map(|s| ahci.sector(lba + s))
            .collect();
        if got != want {
            bad_blocks += 1;
        }
    }
    if bad_blocks != 0 {
        failures.push(format!("written blocks not on disk: {bad_blocks}"));
    }

    // The last read into each buffer is still there.
    let pv = spec.workload == Workload::DiskPv;
    let pristine = disk::pristine_disk();
    let mut last_read = std::collections::BTreeMap::new();
    for r in stream.requests.iter().filter(|r| !r.write) {
        last_read.insert(disk::read_buffer(pv, r.slot), r);
    }
    let mut bad_buffers = 0;
    for (buf, r) in last_read {
        if read_guest(sys, base, buf as u64, disk::BLOCK_BYTES)
            != stream.expected_block(&pristine, r)
        {
            bad_buffers += 1;
        }
    }
    if bad_buffers != 0 {
        failures.push(format!("read buffers differ from the disk: {bad_buffers}"));
    }
    guest_errs + bad_blocks + bad_buffers
}

/// Digests of the guest-visible end state: FNV-1a over guest RAM,
/// leaving out what depends on timing (the stack page, which holds
/// interrupt frames, and the timer tick counter). `masked` also clears
/// the accessed and dirty bits of the guest's page-table entries: the
/// hardware MMU model does not maintain them (DESIGN.md, "Accessed/dirty
/// bits") while the vTLB's software walk does, so only `masked` can
/// agree across paging modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestDigest {
    /// Digest of guest RAM as it is.
    pub raw: u64,
    /// Digest with page-table A/D bits cleared.
    pub masked: u64,
}

/// FNV-1a over 8-byte words of guest RAM; the skipped ranges are
/// word-aligned.
fn fnv(ram: &[u8], skip: &[Range<usize>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, w) in ram.chunks_exact(8).enumerate() {
        if skip.iter().any(|r| r.contains(&(i * 8))) {
            continue;
        }
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl GuestDigest {
    /// Digests the guest RAM of a finished run and its system.
    pub fn of(run: &Run, sys: &System) -> GuestDigest {
        let mut ram = read_guest(sys, run.guest_base_page, 0, (GUEST_PAGES * 4096) as usize);
        let stack_page = (layout::STACK as usize - 4) & !0xfff;
        let ticks = (layout::VARS + vars::TICKS) as usize & !7;
        let skip = [stack_page..stack_page + 4096, ticks..ticks + 8];
        let raw = fnv(&ram, &skip);

        let mut tables = vec![layout::BOOT_PD as usize];
        tables.extend(layout::TASK_PD.iter().map(|&p| p as usize));
        let mut i = 0;
        while i < tables.len() {
            let dir = i < 3;
            let table = tables[i];
            i += 1;
            for e in (table..table + 4096).step_by(4) {
                let Some(word) = ram.get_mut(e..e + 4) else {
                    continue;
                };
                let v = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
                if v & pte::P == 0 {
                    continue;
                }
                word.copy_from_slice(&(v & !(pte::A | pte::D)).to_le_bytes());
                if dir && v & pte::PS == 0 {
                    tables.push((v & pte::ADDR) as usize);
                }
            }
        }
        GuestDigest {
            raw,
            masked: fnv(&ram, &skip),
        }
    }
}

fn trace_stats(sys: &System, failures: &mut Vec<String>) -> TraceStats {
    let tracer = sys.k.machine.tracer();
    let events = tracer.events();
    let mut layer_cycles = [0u64; causal::LAYER_COUNT];
    let mut request_cycles = 0;
    for tree in causal::request_trees(&events) {
        for (acc, l) in layer_cycles.iter_mut().zip(tree.layers.iter()) {
            *acc += l;
        }
        request_cycles += tree.end_to_end();
    }
    if layer_cycles.iter().sum::<u64>() != request_cycles {
        failures.push("trace layer cycles do not sum to end-to-end cycles".into());
    }
    if tracer.dropped() != 0 {
        failures.push(format!("trace dropped {} events", tracer.dropped()));
    }
    TraceStats {
        events: events.len() as u64,
        dropped: tracer.dropped(),
        layer_cycles,
        request_cycles,
        disk_latencies: disk_latencies(&events),
    }
}

/// Per request context: cycles from the disk server accepting the
/// request to its completion.
fn disk_latencies(events: &[TraceEvent]) -> Vec<u64> {
    let mut v: Vec<u64> = causal::by_context(events)
        .values()
        .filter_map(|evs| {
            let accept = evs.iter().find(|e| e.kind == Kind::DiskAccept)?.cycle;
            let done = evs
                .iter()
                .rev()
                .find(|e| e.kind == Kind::DiskComplete)?
                .cycle;
            Some(done.saturating_sub(accept))
        })
        .collect();
    v.sort_unstable();
    v
}
