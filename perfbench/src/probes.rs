//! Outside-in layer probes: timed calls into one layer's public
//! function, fed with the workload's own inputs — its instruction
//! bytes, its working set, its trapped AHCI store — and the native
//! interpreter pass behind `hw.interp_ns_per_insn`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nova_core::obj::VmPaging;
use nova_core::{CompCtx, Component, Hypercall, Kernel, KernelConfig, Utcb};
use nova_guest::os::Program;
use nova_hw::ahci::regs;
use nova_hw::cpu::NativeStop;
use nova_hw::machine::{Machine, MachineConfig};
use nova_hw::mmu::{walk_nested, MmuRegs};
use nova_user::RootPm;
use nova_vmm::devices::VDevices;
use nova_vmm::emu::{emulate_one, EmuEnv, GuestView};
use nova_vmm::pvdisk::PvDisk;
use nova_vmm::vahci::VAhci;
use nova_vmm::System;
use nova_x86::decode::decode;
use nova_x86::paging::Access;
use nova_x86::reg::Regs;

use crate::runner::{machine_config, BUDGET};
use crate::stats::Summary;
use crate::workload::Spec;

/// Times `op` (which performs `per_call` operations) in batches until
/// `budget` is spent, at least three batches, and returns the median
/// nanoseconds per operation over the batches.
fn ns_per_op(budget: Duration, per_call: usize, mut op: impl FnMut()) -> f64 {
    // Warm up and size a batch to roughly a hundredth of the budget.
    let t = Instant::now();
    op();
    let once = t.elapsed().max(Duration::from_nanos(1));
    let calls = ((budget.as_secs_f64() / 100.0) / once.as_secs_f64()).clamp(1.0, 1e7) as usize;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / (calls * per_call) as f64);
    }
    Summary::of(&samples).median
}

/// Start offsets of every instruction in the program's code ranges, by
/// a linear sweep (the generators emit no data inside code ranges).
pub fn instruction_offsets(spec: &Spec) -> Vec<usize> {
    let bytes = &spec.program.bytes;
    let mut offs = Vec::new();
    for range in &spec.code {
        let mut pos = range.start;
        while pos < range.end {
            let insn = decode(&bytes[pos..range.end]).expect("workload code decodes");
            offs.push(pos);
            pos += insn.len as usize;
        }
    }
    offs
}

/// `x86.decode_ns`: `decode` over every instruction of the workload.
pub fn decode_ns(spec: &Spec, budget: Duration) -> f64 {
    let bytes = &spec.program.bytes;
    let offs = instruction_offsets(spec);
    ns_per_op(budget, offs.len(), || {
        for &o in &offs {
            black_box(decode(black_box(&bytes[o..])).ok());
        }
    })
}

/// `hw.walk_nested_ns`: `walk_nested` over the workload's working set,
/// in the nested table the kernel built for the VM of `sys` (a system
/// run under nested paging).
pub fn walk_nested_ns(sys: &System, spec: &Spec, budget: Duration) -> f64 {
    let (root, fmt) = sys
        .k
        .obj
        .pds
        .iter()
        .find_map(|pd| match (pd.nested_root, pd.vm_paging) {
            (Some(root), Some(VmPaging::Nested(fmt))) => Some((root, fmt)),
            _ => None,
        })
        .expect("a VM protection domain with a nested table");
    let m = &sys.k.machine;
    let gpas: Vec<u64> = spec.working_set.iter().map(|p| p * 4096 + 0x7f4).collect();
    let walk = |g| {
        let mut cycles = 0;
        walk_nested(&m.mem, root, fmt, g, Access::READ, &m.cost, &mut cycles)
    };
    assert!(gpas.iter().all(|&g| walk(g).is_ok()));
    ns_per_op(budget, gpas.len(), || {
        for &g in &gpas {
            black_box(walk(black_box(g)).ok());
        }
    })
}

/// `core.translate_ns`: `MemSpace::translate` of the VM's memory space
/// (after the run) over the workload's working set.
pub fn translate_ns(sys: &System, spec: &Spec, budget: Duration) -> f64 {
    let pd = sys
        .k
        .obj
        .pds
        .iter()
        .find(|pd| pd.vm_paging.is_some())
        .expect("the VM's protection domain");
    let addrs: Vec<u64> = spec.working_set.iter().map(|p| p * 4096 + 0x7f4).collect();
    assert!(addrs.iter().all(|&a| pd.mem.translate(a).is_some()));
    ns_per_op(budget, addrs.len(), || {
        for &a in &addrs {
            black_box(pd.mem.translate(black_box(a)));
        }
    })
}

struct Echo;

impl Component for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, u: &mut Utcb) {
        u.set_msg(&[]);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn kernel_with_root(ram: usize) -> (Kernel, CompCtx) {
    let m = Machine::new(MachineConfig::core_i7(ram));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(rc, re);
    let ctx = k
        .component_mut::<RootPm>(rc)
        .and_then(|r| r.ctx)
        .expect("root partition manager context");
    (k, ctx)
}

/// `core.ipc_call_ns`: `Kernel::ipc_call` round trip to an echo portal.
pub fn ipc_call_ns(budget: Duration) -> f64 {
    let (mut k, ctx) = kernel_with_root(32 << 20);
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::new(Echo));
    k.start_component(comp, ec);
    let srv = CompCtx {
        pd: k.root_pd,
        ec,
        comp,
    };
    k.hypercall(
        srv,
        Hypercall::CreatePt {
            ec: nova_core::kernel::SEL_SELF_EC,
            mtd: 0,
            id: 1,
            dst: 0x20,
        },
    )
    .expect("echo portal");
    ns_per_op(budget, 1, || {
        let mut utcb = Utcb::new();
        k.ipc_call(ctx, 0x20, &mut utcb).expect("echo call");
        black_box(&utcb);
    })
}

/// The guest's trapped AHCI store: the disk interrupt handler's
/// `mov [AHCI_BASE + IS], r32` (opcode 0x89, disp32 operand).
pub fn trapped_store(program: &Program, offsets: &[usize]) -> Option<Vec<u8>> {
    let target = (nova_hw::machine::AHCI_BASE as u32 + regs::IS).to_le_bytes();
    let b = &program.bytes;
    offsets.iter().find_map(|&o| {
        let insn = b.get(o..o + 6)?;
        (insn[0] == 0x89 && insn[1] & 0xc7 == 0x05 && insn[2..6] == target).then(|| insn.to_vec())
    })
}

/// `vmm.emulate_ns`: `emulate_one` on the guest's trapped AHCI store,
/// against a fresh virtual device set.
pub fn emulate_ns(store: &[u8], budget: Duration) -> f64 {
    let (mut k, ctx) = kernel_with_root(64 << 20);
    let view = GuestView {
        base_page: 0x400,
        pages: 1024,
    };
    let mut dev = VDevices::new(
        2_670_000_000,
        0,
        VAhci::new(view.base_page, view.pages),
        PvDisk::new(view.base_page, view.pages),
        None,
    );
    let eip = 0x1000;
    assert!(k.mem_write(ctx, view.base_page * 4096 + eip as u64, store));
    let mut env = EmuEnv {
        k: &mut k,
        ctx,
        view,
        dev: &mut dev,
        mmu: MmuRegs::default(),
        device_ops: 0,
    };
    ns_per_op(budget, 1, || {
        let mut regs = Regs::at(eip);
        regs.set(nova_x86::Reg::Eax, 1);
        black_box(emulate_one(&mut env, &mut regs).expect("trapped store emulates"));
    })
}

/// A native (bare-metal, no hypervisor) run of a guest.
pub struct Native {
    /// Host seconds of the run.
    pub host_s: f64,
    /// Retired instructions.
    pub instret: u64,
    /// Completion cycles: between the disk guest's marks, or to the
    /// compile guest's end mark.
    pub sim_cycles: u64,
}

/// Runs `program` natively.
pub fn native(program: &Program, compile: bool) -> Native {
    let t = Instant::now();
    let out = nova_baseline::run_native_image(
        machine_config(),
        &program.bytes,
        program.load_gpa,
        program.entry,
        program.stack,
        Some(BUDGET),
        |_| {},
    );
    let host_s = t.elapsed().as_secs_f64();
    assert_eq!(out.stop, NativeStop::Shutdown(0), "native run completes");
    let mark = |v: u32| out.marks.iter().find(|(_, x)| *x == v).map(|(c, _)| *c);
    let sim_cycles = if compile {
        out.marks.last().map(|(c, _)| *c)
    } else {
        mark(crate::disk::MARK_START)
            .zip(mark(crate::disk::MARK_END))
            .map(|(s, e)| e - s)
    }
    .expect("native guest marks");
    Native {
        host_s,
        instret: out.instret,
        sim_cycles,
    }
}
