//! The CPU core: a cycle-accounting interpreter for the x86 subset,
//! with native execution and VT-x-style guest execution.
//!
//! In **native** mode the core runs an operating system directly:
//! paging through its own CR3, devices reached by port I/O and MMIO,
//! interrupts delivered through its IDT. This is the paper's "Native"
//! baseline.
//!
//! In **guest** mode the core runs under a [`Vmcs`]: sensitive
//! instructions and configured events produce [`ExitReason`]s instead
//! of executing, memory traverses the nested or shadow dimension, and
//! the TLB is tagged with the VPID (or flushed on every transition when
//! tagging is disabled — the "w/o VPID" configuration of Figure 5).

use nova_x86::decode::{decode, DecodeError, MAX_INSN_LEN};
use nova_x86::exec::{deliver_event, execute, Env, Exec, Fault};
use nova_x86::insn::{Insn, Op, OpSize, Operand};
use nova_x86::paging::Access;
use nova_x86::reg::{Reg, Regs};

use crate::cost::CostModel;
use crate::device::DeviceBus;
use crate::icache::InsnCache;
use crate::mem::PhysMem;
use crate::mmu::{self, GuestXlate, MmuRegs};
use crate::tlb::{Tlb, TlbEntry};
use crate::vmx::{ExitReason, PagingVirt, Vmcs};
use crate::{Cycles, PAddr};

/// Cycles charged for a device-register (MMIO or port) access — the
/// uncached bus round trip.
pub const DEVICE_ACCESS_CYCLES: Cycles = 120;

/// Cycles charged for hardware interrupt delivery through the IDT.
pub const IRQ_DELIVERY_CYCLES: Cycles = 80;

/// Why native execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeStop {
    /// Software wrote the debug-exit port; carries the exit code.
    Shutdown(u8),
    /// Unrecoverable fault during exception delivery.
    TripleFault,
    /// Halted with no pending events: the system would idle forever.
    IdleForever,
    /// The cycle budget given to `run_native` was exhausted.
    Budget,
}

/// One CPU core's microarchitectural state.
pub struct Cpu {
    /// Core number.
    pub id: usize,
    /// Native-mode register file.
    pub regs: Regs,
    /// Native-mode halted flag.
    pub halted: bool,
    /// Native-mode STI interrupt shadow.
    pub sti_shadow: bool,
    /// The TLB (shared between native and guest contexts via tags).
    pub tlb: Tlb,
    /// Retired instruction count.
    pub instret: u64,
    /// Cycles spent idle (halted waiting for events).
    pub idle_cycles: Cycles,
    icache: InsnCache,
}

impl Cpu {
    /// Creates core `id` in reset state.
    pub fn new(id: usize) -> Cpu {
        Cpu {
            id,
            regs: Regs::default(),
            halted: false,
            sti_shadow: false,
            tlb: Tlb::new(),
            instret: 0,
            idle_cycles: 0,
            icache: InsnCache::default(),
        }
    }
}

/// Error channel of the CPU's execution environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuErr {
    /// Architectural fault to deliver to the running system.
    Fault(Fault),
    /// VM exit (guest mode only).
    Exit(ExitReason),
}

impl From<Fault> for CpuErr {
    fn from(f: Fault) -> CpuErr {
        CpuErr::Fault(f)
    }
}

/// Guest-mode translation/intercept context (copies of VMCS fields that
/// the per-instruction environment needs).
#[derive(Clone, Copy)]
struct GuestCtx {
    vpid: u16,
    paging: PagingVirt,
    intercept_pf: bool,
    tsc_offset: u64,
}

/// The execution environment wired to the machine.
struct CpuEnv<'a> {
    tlb: &'a mut Tlb,
    mem: &'a mut PhysMem,
    bus: &'a mut DeviceBus,
    cost: &'a CostModel,
    clock: &'a mut Cycles,
    mmu: MmuRegs,
    guest: Option<GuestCtx>,
    /// Set by any device access (MMIO, port I/O): the step may have
    /// changed the PIC, the event queue or the shutdown latch.
    touched_device: bool,
}

impl<'a> CpuEnv<'a> {
    fn new(
        tlb: &'a mut Tlb,
        mem: &'a mut PhysMem,
        bus: &'a mut DeviceBus,
        cost: &'a CostModel,
        clock: &'a mut Cycles,
        regs: &Regs,
        guest: Option<GuestCtx>,
    ) -> CpuEnv<'a> {
        CpuEnv {
            tlb,
            mem,
            bus,
            cost,
            clock,
            mmu: MmuRegs::from_regs(regs),
            guest,
            touched_device: false,
        }
    }

    fn vpid(&self) -> u16 {
        self.guest.map_or(0, |g| g.vpid)
    }

    /// Translates a linear address, consulting the TLB first.
    fn translate(&mut self, addr: u32, access: Access) -> Result<PAddr, CpuErr> {
        let vpid = self.vpid();

        // Unpaged native mode has no translation (and no TLB traffic).
        if self.guest.is_none() && !self.mmu.paging() {
            return Ok(addr as u64);
        }

        if let Some(e) = self.tlb.lookup_for(vpid, addr as u64, access.fetch) {
            if !access.write || e.write {
                return Ok(e.hpa + (addr as u64 & (e.page_size - 1)));
            }
            // Write to a read-only entry: fall through to the walk,
            // which classifies the fault.
        }
        // TLB miss: attribute the fill walk to the VPID in the metrics
        // registry (free when tracing is off; replaces the old
        // `tlb-debug` stderr scaffolding and its process-global
        // counter).
        if self.bus.trace.active() {
            self.bus
                .trace
                .metrics
                .add(nova_trace::names::TLB_FILLS, vpid as u64, 1);
        }

        let leaf = match self.guest {
            None => mmu::walk_2level(
                self.mem,
                self.mmu.cr3,
                addr,
                access,
                self.mmu.pse(),
                self.cost,
                self.clock,
            )
            .map_err(|pf| {
                CpuErr::Fault(Fault::Page {
                    addr: pf.addr,
                    write: pf.write,
                    fetch: pf.fetch,
                    present: pf.present,
                })
            })?,
            Some(g) => match g.paging {
                PagingVirt::Nested { root, fmt } => mmu::translate_nested_guest(
                    self.mem, &self.mmu, root, fmt, addr, access, self.cost, self.clock,
                )
                .map_err(|e| match e {
                    GuestXlate::GuestFault(pf) => CpuErr::Fault(Fault::Page {
                        addr: pf.addr,
                        write: pf.write,
                        fetch: pf.fetch,
                        present: pf.present,
                    }),
                    GuestXlate::Nested(v) => CpuErr::Exit(ExitReason::EptViolation {
                        gpa: v.gpa,
                        access: v.access,
                    }),
                })?,
                PagingVirt::Shadow { root } => mmu::walk_2level(
                    self.mem,
                    root as u32,
                    addr,
                    access,
                    false,
                    self.cost,
                    self.clock,
                )
                .map_err(|pf| {
                    let fault = Fault::Page {
                        addr: pf.addr,
                        write: pf.write,
                        fetch: pf.fetch,
                        present: pf.present,
                    };
                    if g.intercept_pf {
                        CpuErr::Exit(ExitReason::PageFault {
                            addr: pf.addr,
                            err: fault.error_code().unwrap_or(0),
                        })
                    } else {
                        CpuErr::Fault(fault)
                    }
                })?,
            },
        };

        self.tlb.insert_for(
            TlbEntry {
                vpid,
                vpn: addr as u64 >> leaf.page_size.trailing_zeros(),
                hpa: leaf.hpa & !(leaf.page_size - 1),
                page_size: leaf.page_size,
                write: leaf.write,
            },
            access.fetch,
        );
        Ok(leaf.hpa)
    }
}

impl Env for CpuEnv<'_> {
    type Err = CpuErr;

    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, CpuErr> {
        let hpa = self.translate(addr, Access::READ)?;
        *self.clock += self.cost.mem_access;
        if self.bus.mmio_owner(hpa).is_some() {
            *self.clock += DEVICE_ACCESS_CYCLES;
            self.touched_device = true;
            return Ok(self.bus.mmio_read(self.mem, *self.clock, hpa, size));
        }
        Ok(self.mem.read_sized(hpa, size))
    }

    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), CpuErr> {
        let hpa = self.translate(addr, Access::WRITE)?;
        *self.clock += self.cost.mem_access;
        if self.bus.mmio_owner(hpa).is_some() {
            *self.clock += DEVICE_ACCESS_CYCLES;
            self.touched_device = true;
            self.bus.mmio_write(self.mem, *self.clock, hpa, size, val);
            return Ok(());
        }
        self.mem.write_sized(hpa, size, val);
        Ok(())
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> Result<u32, CpuErr> {
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.touched_device = true;
        Ok(self.bus.io_read(self.mem, *self.clock, port, size))
    }

    fn io_out(&mut self, port: u16, size: OpSize, val: u32) -> Result<(), CpuErr> {
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.touched_device = true;
        self.bus.io_write(self.mem, *self.clock, port, size, val);
        Ok(())
    }

    fn cpuid(&mut self, leaf: u32) -> [u32; 4] {
        self.cost.ident.cpuid(leaf)
    }

    fn rdtsc(&mut self) -> u64 {
        *self.clock + self.guest.map_or(0, |g| g.tsc_offset)
    }

    fn write_cr(&mut self, regs: &mut Regs, n: u8, val: u32) -> Result<(), CpuErr> {
        regs.set_cr(n, val);
        self.mmu = MmuRegs::from_regs(regs);
        if n == 3 || n == 0 || n == 4 {
            // Address-space switch: drop this context's translations.
            self.tlb.flush_vpid(self.vpid());
        }
        Ok(())
    }

    fn invlpg(&mut self, addr: u32) -> Result<(), CpuErr> {
        self.tlb.invalidate(self.vpid(), addr as u64);
        Ok(())
    }
}

/// Fetches the instruction at `eip` and hands it to `exec`. The fetch
/// translation runs every time (it charges walk cycles and counts TLB
/// hits); a decoded-instruction cache hit is executed in place, only a
/// miss decodes.
#[inline(always)]
fn fetch_exec(
    env: &mut CpuEnv,
    icache: &mut InsnCache,
    eip: u32,
    exec: impl FnOnce(&Insn, &mut CpuEnv) -> Result<Exec, CpuErr>,
) -> Result<Exec, CpuErr> {
    let hpa = env.translate(eip, Access::FETCH)?;
    let decoded;
    let insn = match icache.lookup(env.mem, hpa) {
        Some(i) => i,
        None => {
            decoded = decode_at(env, icache, eip, hpa)?;
            &decoded
        }
    };
    exec(insn, env)
}

/// Decodes the instruction at `eip` (first byte at `hpa`) and caches it.
#[cold]
#[inline(never)]
fn decode_at(
    env: &mut CpuEnv,
    icache: &mut InsnCache,
    eip: u32,
    hpa: PAddr,
) -> Result<Insn, CpuErr> {
    let in_page = (4096 - (eip as usize & 0xfff)).min(MAX_INSN_LEN);
    let mut bytes = [0u8; MAX_INSN_LEN];
    let (head, rest) = bytes.split_at_mut(in_page);
    env.mem.read_into(hpa, head);
    let (insn, tail) = match decode(head) {
        Ok(i) => (i, None),
        Err(DecodeError::Truncated) => {
            // Instruction straddles a page: translate the next page too.
            let next = (eip & !0xfff).wrapping_add(0x1000);
            let hpa2 = env.translate(next, Access::FETCH)?;
            env.mem.read_into(hpa2, rest);
            let insn = decode(&bytes).map_err(|_| CpuErr::Fault(Fault::InvalidOpcode))?;
            (insn, Some(hpa2))
        }
        Err(DecodeError::InvalidOpcode) => return Err(CpuErr::Fault(Fault::InvalidOpcode)),
    };
    icache.insert(env.mem, hpa, insn, tail);
    Ok(insn)
}

/// The cycle at which the pre-step checks must run again if nothing
/// else changes their inputs: the next device event or the deadline.
fn next_check(bus: &DeviceBus, deadline: Option<Cycles>) -> Cycles {
    let due = bus.next_event_due().unwrap_or(Cycles::MAX);
    deadline.map_or(due, |d| d.min(due))
}

/// `true` unless a step's outcome can have changed an input of the
/// pre-step checks: a device access, or an end other than plain
/// completion (fault, halt, STI shadow, exit).
fn checks_still_valid(step: &Result<Exec, CpuErr>, touched_device: bool) -> bool {
    !touched_device && matches!(step, Ok(Exec::Normal) | Ok(Exec::RepContinue))
}

/// Outcome of delivering an event into the running context.
enum Delivery {
    /// Delivered; execution continues at the handler.
    Done,
    /// The delivery itself faulted on a missing translation that the
    /// hypervisor must service (shadow-paging fills): registers are
    /// restored and the event must be retried after the exit.
    Exit(ExitReason),
    /// Unrecoverable double fault during delivery.
    Fatal,
}

/// Delivers an exception or interrupt. On failure the register state
/// is rolled back so the event can be re-delivered after the
/// hypervisor services the exit (vTLB fill on the stack or IDT page).
fn deliver(regs: &mut Regs, env: &mut CpuEnv, vector: u8, err: Option<u32>) -> Delivery {
    let saved = regs.clone();
    match deliver_event(regs, env, vector, err) {
        Ok(()) => Delivery::Done,
        Err(CpuErr::Exit(reason)) => {
            *regs = saved;
            Delivery::Exit(reason)
        }
        Err(CpuErr::Fault(_)) => {
            *regs = saved;
            Delivery::Fatal
        }
    }
}

/// Checks whether a sensitive instruction must exit under the given
/// VMCS, returning the exit reason.
fn intercept(insn: &Insn, regs: &Regs, vmcs: &Vmcs) -> Option<ExitReason> {
    let len = insn.len;
    match insn.op {
        Op::Cpuid => Some(ExitReason::Cpuid { len }),
        Op::Vmcall => Some(ExitReason::Vmcall { len }),
        Op::Hlt if vmcs.intercept_hlt => Some(ExitReason::Hlt { len }),
        Op::Rdtsc if vmcs.intercept_rdtsc => Some(ExitReason::Rdtsc { len }),
        Op::MovToCr | Op::MovFromCr if vmcs.intercept_cr => {
            let (cr, write, gpr) = match (insn.op, insn.dst, insn.src) {
                (Op::MovToCr, Operand::Cr(c), Operand::Reg(r)) => (c, true, r),
                (Op::MovFromCr, Operand::Reg(r), Operand::Cr(c)) => (c, false, r),
                _ => (0, false, Reg::Eax),
            };
            Some(ExitReason::MovCr {
                cr,
                write,
                gpr,
                len,
            })
        }
        Op::Invlpg if vmcs.intercept_cr => {
            let addr = match insn.dst {
                Operand::Mem(m) => nova_x86::exec::effective_address(&m, regs),
                _ => 0,
            };
            Some(ExitReason::Invlpg { addr, len })
        }
        Op::In | Op::Out => {
            let port_op = if insn.op == Op::In {
                insn.src
            } else {
                insn.dst
            };
            let port = match port_op {
                Operand::Imm(p) => p as u16,
                Operand::Reg(Reg::Edx) => regs.get(Reg::Edx) as u16,
                _ => 0,
            };
            if vmcs.io_intercepted(port) {
                Some(ExitReason::IoPort {
                    port,
                    size: insn.size,
                    write: insn.op == Op::Out,
                    len,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Runs the core natively until shutdown, triple fault, idle deadlock,
/// or the optional cycle budget elapses.
pub fn run_native(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    budget: Option<Cycles>,
) -> NativeStop {
    let deadline = budget.map(|b| *clock + b);
    // The pre-step checks are skipped until the clock reaches this
    // cycle; 0 runs them before the next step (DESIGN.md §6j).
    let mut checks_until: Cycles = 0;
    loop {
        if *clock >= checks_until {
            // Device events and shutdown.
            if bus.next_event_due().is_some_and(|d| d <= *clock) {
                bus.process_events(mem, *clock);
            }
            if let Some(code) = bus.ctl.shutdown.take() {
                return NativeStop::Shutdown(code);
            }
            if deadline.is_some_and(|d| *clock >= d) {
                return NativeStop::Budget;
            }

            // Interrupts.
            let shadow_was = cpu.sti_shadow;
            cpu.sti_shadow = false;
            let intr = bus.pic.intr();
            if !shadow_was && cpu.regs.if_set() && intr {
                if let Some(vec) = bus.pic.ack() {
                    cpu.halted = false;
                    *clock += IRQ_DELIVERY_CYCLES;
                    let mut env = CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &cpu.regs, None);
                    match deliver(&mut cpu.regs, &mut env, vec, None) {
                        Delivery::Done => {}
                        _ => return NativeStop::TripleFault,
                    }
                }
            }

            // Halted: fast-forward to the next event.
            if cpu.halted {
                match bus.next_event_due() {
                    Some(due) => {
                        let skip = due.saturating_sub(*clock);
                        cpu.idle_cycles += skip;
                        *clock = due;
                        continue;
                    }
                    None => return NativeStop::IdleForever,
                }
            }
            checks_until = if intr { 0 } else { next_check(bus, deadline) };
        }

        // Fetch, decode, execute.
        let mut env = CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &cpu.regs, None);
        let step = fetch_exec(&mut env, &mut cpu.icache, cpu.regs.eip, |insn, env| {
            execute(insn, &mut cpu.regs, env)
        });
        if !checks_still_valid(&step, env.touched_device) {
            checks_until = 0;
        }
        *clock += 1;
        cpu.instret += 1;

        match step {
            Ok(Exec::Normal) | Ok(Exec::RepContinue) => {}
            Ok(Exec::Halt) => cpu.halted = true,
            Ok(Exec::StiShadow) => cpu.sti_shadow = true,
            Err(CpuErr::Fault(f)) => {
                if let Fault::Page { addr, .. } = f {
                    cpu.regs.cr2 = addr;
                }
                let mut env = CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &cpu.regs, None);
                match deliver(&mut cpu.regs, &mut env, f.vector(), f.error_code()) {
                    Delivery::Done => {}
                    _ => return NativeStop::TripleFault,
                }
            }
            Err(CpuErr::Exit(_)) => unreachable!("no VM exits in native mode"),
        }
    }
}

/// Enters the guest described by `vmcs` and runs until a VM exit.
///
/// Guest register state lives in `vmcs.guest`. The hardware-side
/// effects of entry/exit are modeled here (injection, STI shadow,
/// untagged TLB flushes); the *cycle cost* of the transition is charged
/// by the hypervisor, which knows the tagging configuration
/// (Section 8.5 splits these costs the same way).
pub fn run_guest(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    vmcs: &mut Vmcs,
    quantum: Option<Cycles>,
) -> ExitReason {
    // Untagged TLB: entry flushes everything.
    if vmcs.vpid == 0 {
        cpu.tlb.flush_all();
    }

    let guest_ctx = Some(GuestCtx {
        vpid: vmcs.vpid,
        paging: vmcs.paging,
        intercept_pf: vmcs.intercept_pf,
        tsc_offset: vmcs.tsc_offset,
    });

    // Event injection on entry.
    if let Some(inj) = vmcs.injection.take() {
        vmcs.halted = false;
        let mut env = CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &vmcs.guest, guest_ctx);
        match deliver(&mut vmcs.guest, &mut env, inj.vector, inj.error_code) {
            Delivery::Done => {}
            Delivery::Exit(reason) => {
                // Retry the injection after the hypervisor services
                // the fault (a shadow-table fill, typically).
                vmcs.injection = Some(inj);
                return exit_guest(cpu, vmcs, reason);
            }
            Delivery::Fatal => return exit_guest(cpu, vmcs, ExitReason::TripleFault),
        }
    }

    let deadline = quantum.map(|q| *clock + q);
    // As in `run_native`: the pre-step checks are skipped until the
    // clock reaches this cycle (DESIGN.md §6j).
    let mut checks_until: Cycles = 0;

    loop {
        if *clock >= checks_until {
            if bus.next_event_due().is_some_and(|d| d <= *clock) {
                bus.process_events(mem, *clock);
            }
            // The debug-exit device stops the machine; hand control back
            // (the caller observes `bus.ctl.shutdown`).
            if bus.ctl.shutdown.is_some() {
                return exit_guest(cpu, vmcs, ExitReason::Preempt);
            }

            if vmcs.recall_pending {
                vmcs.recall_pending = false;
                return exit_guest(cpu, vmcs, ExitReason::Recall);
            }
            if deadline.is_some_and(|d| *clock >= d) {
                return exit_guest(cpu, vmcs, ExitReason::Preempt);
            }

            // Physical interrupts: exit (full virtualization) or deliver
            // straight into the guest (direct assignment).
            let shadow_was = vmcs.sti_shadow;
            vmcs.sti_shadow = false;
            let intr = bus.pic.intr();
            if intr {
                if vmcs.intercept_extint {
                    if let Some(vec) = bus.pic.ack() {
                        return exit_guest(cpu, vmcs, ExitReason::ExtInt { vector: vec });
                    }
                } else if !shadow_was && vmcs.guest.if_set() {
                    if let Some(vec) = bus.pic.ack() {
                        vmcs.halted = false;
                        *clock += IRQ_DELIVERY_CYCLES;
                        let mut env = CpuEnv::new(
                            &mut cpu.tlb,
                            mem,
                            bus,
                            cost,
                            clock,
                            &vmcs.guest,
                            guest_ctx,
                        );
                        match deliver(&mut vmcs.guest, &mut env, vec, None) {
                            Delivery::Done => {}
                            Delivery::Exit(reason) => {
                                vmcs.injection = Some(crate::vmx::Injection {
                                    vector: vec,
                                    error_code: None,
                                });
                                return exit_guest(cpu, vmcs, reason);
                            }
                            Delivery::Fatal => {
                                return exit_guest(cpu, vmcs, ExitReason::TripleFault)
                            }
                        }
                    }
                }
            }

            // Interrupt-window exiting.
            if vmcs.intwin_exit && !shadow_was && vmcs.guest.if_set() {
                vmcs.intwin_exit = false;
                return exit_guest(cpu, vmcs, ExitReason::IntWindow);
            }

            // Halted guest (HLT not intercepted): idle until an event.
            if vmcs.halted {
                match bus.next_event_due() {
                    Some(due) => {
                        let skip = due.saturating_sub(*clock);
                        cpu.idle_cycles += skip;
                        *clock = due;
                        continue;
                    }
                    None => return exit_guest(cpu, vmcs, ExitReason::TripleFault),
                }
            }
            // An open interrupt-window request waits on IF, which plain
            // instructions change: keep checking every step.
            checks_until = if intr || vmcs.intwin_exit {
                0
            } else {
                next_check(bus, deadline)
            };
        }

        // Fetch and check intercepts before executing.
        let mut env = CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &vmcs.guest, guest_ctx);
        let step = fetch_exec(&mut env, &mut cpu.icache, vmcs.guest.eip, |insn, env| {
            if let Some(reason) = intercept(insn, &vmcs.guest, vmcs) {
                return Err(CpuErr::Exit(reason));
            }
            execute(insn, &mut vmcs.guest, env)
        });
        if !checks_still_valid(&step, env.touched_device) {
            checks_until = 0;
        }
        *clock += 1;
        cpu.instret += 1;

        match step {
            Ok(Exec::Normal) | Ok(Exec::RepContinue) => {}
            Ok(Exec::Halt) => vmcs.halted = true,
            Ok(Exec::StiShadow) => vmcs.sti_shadow = true,
            Err(CpuErr::Exit(reason)) => return exit_guest(cpu, vmcs, reason),
            Err(CpuErr::Fault(f)) => {
                if let Fault::Page { addr, .. } = f {
                    vmcs.guest.cr2 = addr;
                }
                let mut env =
                    CpuEnv::new(&mut cpu.tlb, mem, bus, cost, clock, &vmcs.guest, guest_ctx);
                match deliver(&mut vmcs.guest, &mut env, f.vector(), f.error_code()) {
                    Delivery::Done => {}
                    Delivery::Exit(reason) => {
                        // The faulting instruction will re-execute and
                        // re-raise the exception after the fill.
                        return exit_guest(cpu, vmcs, reason);
                    }
                    Delivery::Fatal => return exit_guest(cpu, vmcs, ExitReason::TripleFault),
                }
            }
        }
    }
}

fn exit_guest(cpu: &mut Cpu, vmcs: &Vmcs, reason: ExitReason) -> ExitReason {
    if vmcs.vpid == 0 {
        cpu.tlb.flush_all();
    }
    reason
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::vmx::{Injection, PagingVirt};
    use nova_x86::paging::npte;
    use nova_x86::reg::flags;
    use nova_x86::Asm;

    fn machine() -> Machine {
        Machine::new(MachineConfig::core_i7(32 << 20))
    }

    /// Builds an identity EPT over the first `mb` megabytes with
    /// 4 KB pages, tables placed from 1 MB of a scratch region.
    fn ident_ept(m: &mut Machine, mb: u64) -> u64 {
        let root = 24 << 20;
        let l2 = root + 0x1000;
        let l1 = root + 0x2000;
        m.mem.write_u64(root, l2 | npte::RWX);
        m.mem.write_u64(l2, l1 | npte::RWX);
        let pages = mb * 256;
        let tables = pages.div_ceil(512);
        for t in 0..tables {
            let l0 = root + 0x3000 + t * 0x1000;
            m.mem.write_u64(l1 + t * 8, l0 | npte::RWX);
            for i in 0..512 {
                let p = t * 512 + i;
                if p < pages {
                    m.mem.write_u64(l0 + i * 8, (p << 12) | npte::RWX);
                }
            }
        }
        root
    }

    fn guest_vmcs(m: &mut Machine, code: &[u8], entry: u32) -> Vmcs {
        let root = ident_ept(m, 16);
        let mut v = Vmcs::new(
            PagingVirt::Nested {
                root,
                fmt: nova_x86::paging::NestedFormat::Ept4Level,
            },
            1,
        );
        m.mem.write_bytes(entry as u64, code);
        v.guest = Regs::at(entry);
        v.guest.set(Reg::Esp, 0x8000);
        v
    }

    fn run(m: &mut Machine, v: &mut Vmcs, quantum: Option<Cycles>) -> ExitReason {
        let cost = m.cost;
        run_guest(
            &mut m.cpus[0],
            &mut m.mem,
            &mut m.bus,
            &cost,
            &mut m.clock,
            v,
            quantum,
        )
    }

    #[test]
    fn cpuid_always_exits() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.nop();
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Cpuid { len: 2 });
        assert_eq!(v.guest.eip, 0x1001, "EIP points AT the instruction");
    }

    #[test]
    fn io_exit_carries_qualification() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_r8i(nova_x86::Reg8::Al, 0x7f);
        a.out_imm_al(0x21);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(
            exit,
            ExitReason::IoPort {
                port: 0x21,
                size: OpSize::Byte,
                write: true,
                len: 2,
            }
        );
        assert_eq!(v.guest.get8(nova_x86::Reg8::Al), 0x7f, "data in AL");
    }

    #[test]
    fn passthrough_port_does_not_exit() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_r8i(nova_x86::Reg8::Al, b'Z');
        a.mov_ri(Reg::Edx, crate::serial::COM1 as u32);
        a.out_dx_al();
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.passthrough_ports(crate::serial::COM1, 8);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Hlt { len: 1 }, "only HLT exits");
        assert_eq!(m.serial_text(), "Z", "write reached the real UART");
    }

    #[test]
    fn ept_violation_reports_gpa_and_preserves_eip() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Ebx, 0x4000_0000u32); // beyond the identity EPT
        a.mov_mi(nova_x86::MemRef::base_disp(Reg::Ebx, 8), 5);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        match exit {
            ExitReason::EptViolation { gpa, access } => {
                assert_eq!(gpa, 0x4000_0008);
                assert!(access.write);
            }
            other => panic!("expected EPT violation, got {other:?}"),
        }
        assert_eq!(v.guest.eip, 0x1005, "EIP at the faulting instruction");
    }

    #[test]
    fn injection_delivers_through_guest_idt() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        // IDT descriptor at 0x6000 -> IDT at 0x5000; gate 0x21 -> 0x2000.
        a.hlt(); // never reached: injection fires first
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.mem.write_u32(0x5000 + 0x21 * 8, 0x0008_2000);
        m.mem.write_u32(0x5000 + 0x21 * 8 + 4, 0x8e00);
        m.mem.write_bytes(0x2000, &[0xf4]); // handler: hlt
        v.guest.idt_base = 0x5000;
        v.guest.idt_limit = 0x7ff;
        v.guest.eflags |= flags::IF;
        v.injection = Some(Injection {
            vector: 0x21,
            error_code: None,
        });
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Hlt { len: 1 });
        assert_eq!(v.guest.eip, 0x2000, "woke in the handler");
        assert!(v.injection.is_none(), "injection consumed");
        assert!(!v.guest.if_set(), "IF cleared by delivery");
        // The pushed frame returns to the original EIP.
        let esp = v.guest.get(Reg::Esp);
        assert_eq!(m.mem.read_u32(esp as u64), 0x1000);
    }

    #[test]
    fn interrupt_window_exit_waits_for_sti() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.cli();
        a.nop();
        a.nop();
        a.sti();
        a.nop(); // shadow instruction
        a.nop();
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.intwin_exit = true;
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::IntWindow);
        // The window opened after STI's shadow: one instruction past it.
        assert_eq!(v.guest.eip, 0x1000 + 5, "exited after the shadow insn");
        assert!(!v.intwin_exit, "one-shot");
    }

    #[test]
    fn recall_forces_immediate_exit() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        for _ in 0..100 {
            a.nop();
        }
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.recall_pending = true;
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Recall);
        assert_eq!(v.guest.eip, 0x1000, "no instruction executed");
        assert!(!v.recall_pending);
    }

    #[test]
    fn preemption_quantum_expires() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        a.jmp(top); // spin forever
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, Some(10_000));
        assert_eq!(exit, ExitReason::Preempt);
        // After the first fetch every spin step costs one cycle, so the
        // first boundary at or past the deadline is the deadline.
        assert_eq!(m.clock, 10_000);
    }

    #[test]
    fn untagged_vmcs_flushes_tlb_on_transitions() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_rm(Reg::Eax, nova_x86::MemRef::abs(0x3000));
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.vpid = 0; // no tags
                    // Seed a host entry: it must not survive VM entry.
        m.cpus[0].tlb.insert(crate::tlb::TlbEntry {
            vpid: 0,
            vpn: 0x99,
            hpa: 0x99000,
            page_size: 4096,
            write: true,
        });
        let _ = run(&mut m, &mut v, None);
        assert_eq!(
            m.cpus[0].tlb.occupancy(),
            0,
            "exit flushed everything (no VPID)"
        );
        assert!(m.cpus[0].tlb.stats.flushes >= 2, "entry + exit flushes");
    }

    #[test]
    fn tagged_vmcs_preserves_other_tags() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.cpus[0].tlb.insert(crate::tlb::TlbEntry {
            vpid: 0,
            vpn: 0x99,
            hpa: 0x99000,
            page_size: 4096,
            write: true,
        });
        let _ = run(&mut m, &mut v, None);
        assert!(
            m.cpus[0].tlb.lookup(0, 0x99 << 12).is_some(),
            "host entry survives tagged transitions"
        );
    }

    #[test]
    fn guest_triple_fault_on_bad_idt() {
        let mut m = machine();
        // Division by zero with no IDT: delivery fails -> triple fault.
        let mut a = Asm::new(0x1000);
        a.xor_rr(Reg::Ebx, Reg::Ebx);
        a.mov_ri(Reg::Eax, 1);
        a.div_r(Reg::Ebx);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::TripleFault);
    }

    /// Raises IRQ `token` when its scheduled event fires.
    struct Pulser;

    impl crate::device::Device for Pulser {
        fn name(&self) -> &'static str {
            "pulser"
        }

        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn event(&mut self, ctx: &mut crate::device::DevCtx, token: u64) {
            ctx.pulse_irq(token as u8);
        }
    }

    /// Schedules IRQ 0 at cycle `due`, unmasked at the PIC.
    fn irq0_at(m: &mut Machine, due: Cycles) {
        let dev = m.bus.add_device(Box::new(Pulser));
        m.bus.events.schedule(
            due,
            crate::event::Event {
                device: dev,
                token: 0,
            },
        );
        m.bus.pic.io_write(crate::pic::MASTER_DATA, 0xfe);
    }

    /// IDT at 0x5000 with gate `vector` pointing at `handler`.
    fn gate(m: &mut Machine, regs: &mut Regs, vector: u64, handler: u32) {
        m.mem
            .write_u32(0x5000 + vector * 8, 0x0008_0000 | (handler & 0xffff));
        m.mem
            .write_u32(0x5000 + vector * 8 + 4, (handler & 0xffff_0000) | 0x8e00);
        regs.idt_base = 0x5000;
        regs.idt_limit = 0x7ff;
    }

    /// Code at 0x1000 whose step boundaries are known exactly: a load
    /// that warms the data TLB, an `rdtsc` whose value (ESI) is its own
    /// start clock, then one-cycle register steps mixed with
    /// `1 + mem_access`-cycle loads from the warmed page, then a
    /// one-cycle spin. Also returns, for every step after the `rdtsc`,
    /// its address and cost.
    fn timed_program(mem_access: Cycles) -> (Vec<u8>, Vec<(u32, Cycles)>) {
        let mut a = Asm::new(0x1000);
        let data = nova_x86::MemRef::abs(0x3000);
        let mut steps = Vec::new();
        a.mov_rm(Reg::Eax, data);
        a.rdtsc();
        steps.push((a.here(), 1));
        a.mov_rr(Reg::Esi, Reg::Eax);
        for load in [false, true, false, false, true, true, false, true] {
            if load {
                steps.push((a.here(), 1 + mem_access));
                a.mov_rm(Reg::Ebx, data);
            } else {
                steps.push((a.here(), 1));
                a.nop();
            }
        }
        let spin = a.here_label();
        for _ in 0..8 {
            steps.push((a.here(), 1));
        }
        a.jmp(spin);
        (a.finish(), steps)
    }

    /// The first step boundary at or after `due`: the address of the
    /// instruction that starts there and its clock, given the `rdtsc`
    /// step's start clock `t`.
    fn first_boundary(steps: &[(u32, Cycles)], t: Cycles, due: Cycles) -> (u32, Cycles) {
        let mut at = t + 1;
        for &(addr, cost) in steps {
            if at >= due {
                return (addr, at);
            }
            at += cost;
        }
        panic!("due {due} past the timed region");
    }

    fn timed_guest(m: &mut Machine) -> (Vmcs, Vec<(u32, Cycles)>) {
        let (code, steps) = timed_program(m.cost.mem_access);
        (guest_vmcs(m, &code, 0x1000), steps)
    }

    fn timed_native(m: &mut Machine) -> Vec<(u32, Cycles)> {
        let (code, steps) = timed_program(m.cost.mem_access);
        m.load_image(0x1000, &code);
        m.cpus[0].regs = Regs::at(0x1000);
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        steps
    }

    /// Start clock of the timed program's `rdtsc` and the program's
    /// steps after it, from a run that reaches the spin.
    fn timed_span(guest: bool) -> (Cycles, Vec<(u32, Cycles)>) {
        let mut m = machine();
        if guest {
            let (mut v, steps) = timed_guest(&mut m);
            assert_eq!(run(&mut m, &mut v, Some(200)), ExitReason::Preempt);
            assert!(v.guest.eip >= steps[steps.len() - 8].0, "reached the spin");
            (v.guest.get(Reg::Esi) as Cycles, steps)
        } else {
            let steps = timed_native(&mut m);
            assert_eq!(m.run_native(Some(200)), NativeStop::Budget);
            (m.cpus[0].regs.get(Reg::Esi) as Cycles, steps)
        }
    }

    /// Every due cycle inside the timed region.
    fn dues(t: Cycles, steps: &[(u32, Cycles)]) -> std::ops::RangeInclusive<Cycles> {
        t + 1..=t + steps.iter().map(|s| s.1).sum::<Cycles>()
    }

    #[test]
    fn guest_event_exits_at_first_boundary_past_due() {
        let (t, steps) = timed_span(true);
        for due in dues(t, &steps) {
            let (eip, at) = first_boundary(&steps, t, due);
            // Device event raising an intercepted interrupt.
            let mut m = machine();
            let (mut v, _) = timed_guest(&mut m);
            irq0_at(&mut m, due);
            let exit = run(&mut m, &mut v, Some(due + 1000));
            assert_eq!(exit, ExitReason::ExtInt { vector: 0x20 }, "due {due}");
            assert_eq!((v.guest.eip, m.clock), (eip, at), "due {due}");
            assert_eq!(v.guest.get(Reg::Eax) as Cycles, t, "rdtsc ran");

            // Quantum expiry at the same cycle.
            let mut m = machine();
            let (mut v, _) = timed_guest(&mut m);
            assert_eq!(run(&mut m, &mut v, Some(due)), ExitReason::Preempt);
            assert_eq!((v.guest.eip, m.clock), (eip, at), "quantum {due}");
        }
    }

    #[test]
    fn native_event_interrupts_at_first_boundary_past_due() {
        let (t, steps) = timed_span(false);
        for due in dues(t, &steps) {
            let (eip, at) = first_boundary(&steps, t, due);
            let mut m = machine();
            timed_native(&mut m);

            // Device event: the interrupt is taken before `eip`; the
            // handler stops the machine.
            irq0_at(&mut m, due);
            let mut regs = m.cpus[0].regs.clone();
            gate(&mut m, &mut regs, 0x20, 0x2000);
            regs.eflags |= flags::IF;
            m.cpus[0].regs = regs;
            m.mem.write_bytes(0x2000, &[0xe6, 0xf4]); // out 0xf4, al
            let stop = m.run_native(Some(due + 1000));
            assert!(matches!(stop, NativeStop::Shutdown(_)), "due {due}");
            let esp = m.cpus[0].regs.get(Reg::Esp);
            assert_eq!(m.mem.read_u32(esp as u64), eip, "due {due}");

            // Budget expiry at the same boundary.
            let mut m = machine();
            timed_native(&mut m);
            assert_eq!(m.run_native(Some(due)), NativeStop::Budget);
            assert_eq!((m.cpus[0].regs.eip, m.clock), (eip, at), "budget {due}");
        }
    }

    /// Code that sets IF with `sti` (its shadow ends at the `nop`), then
    /// unmasks the pending IRQ 1 with its fourth instruction and would
    /// run on; returns the image and the address after the unmasking
    /// `out`.
    fn unmask_program() -> (Vec<u8>, u32) {
        let mut a = Asm::new(0x1000);
        a.sti();
        a.nop();
        a.mov_r8i(nova_x86::Reg8::Al, 0xfd);
        a.out_imm_al(0x21);
        let after = a.here();
        a.nop();
        a.nop();
        a.hlt();
        (a.finish(), after)
    }

    #[test]
    fn guest_unmasking_out_is_followed_at_once_by_exit_or_delivery() {
        for intercept_extint in [true, false] {
            let mut m = machine();
            let (code, after) = unmask_program();
            let mut v = guest_vmcs(&mut m, &code, 0x1000);
            v.passthrough_ports(crate::pic::MASTER_CMD, 2);
            v.intercept_extint = intercept_extint;
            let mut regs = v.guest.clone();
            gate(&mut m, &mut regs, 0x21, 0x2000);
            v.guest = regs;
            m.mem.write_bytes(0x2000, &[0xf4]); // handler: hlt
            m.bus.pic.pulse(1); // latched while masked
            let exit = run(&mut m, &mut v, None);
            if intercept_extint {
                assert_eq!(exit, ExitReason::ExtInt { vector: 0x21 });
                assert_eq!(v.guest.eip, after);
                assert_eq!(m.cpus[0].instret, 4, "no instruction after the out");
            } else {
                assert_eq!(exit, ExitReason::Hlt { len: 1 });
                assert_eq!(v.guest.eip, 0x2000, "in the handler");
                let esp = v.guest.get(Reg::Esp);
                assert_eq!(m.mem.read_u32(esp as u64), after);
                assert_eq!(
                    m.cpus[0].instret, 5,
                    "no instruction after the out but the handler's hlt"
                );
            }
        }
    }

    #[test]
    fn native_unmasking_out_is_followed_at_once_by_delivery() {
        let mut m = machine();
        let (code, after) = unmask_program();
        m.load_image(0x1000, &code);
        let mut regs = Regs::at(0x1000);
        regs.set(Reg::Esp, 0x8000);
        gate(&mut m, &mut regs, 0x21, 0x2000);
        m.cpus[0].regs = regs;
        m.mem.write_bytes(0x2000, &[0xe6, 0xf4]); // out 0xf4, al
        m.bus.pic.pulse(1);
        assert_eq!(m.run_native(None), NativeStop::Shutdown(0xfd));
        let esp = m.cpus[0].regs.get(Reg::Esp);
        assert_eq!(m.mem.read_u32(esp as u64), after);
        assert_eq!(
            m.cpus[0].instret, 5,
            "no instruction after the out but the handler's"
        );
    }

    /// Code that sets IF with `popf` (a plain step, not `sti`) and
    /// would run on; returns the image and the address after the `popf`.
    fn popf_program() -> (Vec<u8>, u32) {
        let mut a = Asm::new(0x1000);
        a.push_i(flags::IF | 0x2);
        a.popf();
        let after = a.here();
        a.nop();
        a.nop();
        a.hlt();
        (a.finish(), after)
    }

    #[test]
    fn guest_popf_opening_the_gate_is_followed_at_once_by_delivery_or_window_exit() {
        for window in [false, true] {
            let mut m = machine();
            let (code, after) = popf_program();
            let mut v = guest_vmcs(&mut m, &code, 0x1000);
            let mut regs = v.guest.clone();
            gate(&mut m, &mut regs, 0x21, 0x2000);
            v.guest = regs;
            m.mem.write_bytes(0x2000, &[0xf4]); // handler: hlt
            if window {
                // Interrupt-window exit requested, nothing pending.
                v.intwin_exit = true;
                assert_eq!(run(&mut m, &mut v, Some(1000)), ExitReason::IntWindow);
                assert_eq!(v.guest.eip, after);
            } else {
                // IRQ 1 pending and unmasked while IF is clear.
                v.intercept_extint = false;
                m.bus.pic.io_write(crate::pic::MASTER_DATA, 0xfd);
                m.bus.pic.pulse(1);
                let exit = run(&mut m, &mut v, Some(1000));
                assert_eq!(exit, ExitReason::Hlt { len: 1 });
                assert_eq!(v.guest.eip, 0x2000, "in the handler");
                let esp = v.guest.get(Reg::Esp);
                assert_eq!(m.mem.read_u32(esp as u64), after);
            }
            assert_eq!(m.cpus[0].instret, 2 + u64::from(!window), "window {window}");
        }
    }

    #[test]
    fn native_popf_opening_the_gate_is_followed_at_once_by_delivery() {
        let mut m = machine();
        let (code, after) = popf_program();
        m.load_image(0x1000, &code);
        let mut regs = Regs::at(0x1000);
        regs.set(Reg::Esp, 0x8000);
        gate(&mut m, &mut regs, 0x21, 0x2000);
        m.cpus[0].regs = regs;
        m.mem.write_bytes(0x2000, &[0xe6, 0xf4]); // out 0xf4, al
        m.bus.pic.io_write(crate::pic::MASTER_DATA, 0xfd);
        m.bus.pic.pulse(1);
        assert!(matches!(m.run_native(Some(1000)), NativeStop::Shutdown(_)));
        let esp = m.cpus[0].regs.get(Reg::Esp);
        assert_eq!(m.mem.read_u32(esp as u64), after);
        assert_eq!(m.cpus[0].instret, 3, "push, popf, handler's out");
    }

    #[test]
    fn direct_interrupt_delivery_without_extint_exits() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        // IDT gate 0x20 -> handler at 0x2000 (out 0xf4 to stop).
        a.sti();
        let spin = a.here_label();
        a.jmp(spin);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.mem.write_u32(0x5000 + 0x20 * 8, 0x0008_2000);
        m.mem.write_u32(0x5000 + 0x20 * 8 + 4, 0x8e00);
        let mut h = Asm::new(0x2000);
        h.mov_r8i(nova_x86::Reg8::Al, 7);
        h.mov_ri(Reg::Edx, crate::machine::DEBUG_EXIT_PORT as u32);
        h.out_dx_al();
        h.iret();
        m.mem.write_bytes(0x2000, &h.finish());
        v.guest.idt_base = 0x5000;
        v.guest.idt_limit = 0x7ff;
        v.intercept_extint = false;
        v.passthrough_ports(0, u16::MAX);
        v.passthrough_ports(u16::MAX, 1);
        // Unmask and pulse line 0 while the guest spins.
        m.bus.pic.io_write(crate::pic::MASTER_DATA, 0);
        m.bus.pic.pulse(0);
        let exit = run(&mut m, &mut v, Some(100_000));
        // The interrupt was delivered INTO the guest (no ExtInt exit);
        // its handler stopped the machine via the debug port.
        assert_eq!(exit, ExitReason::Preempt, "stopped by shutdown check");
        assert_eq!(m.bus.ctl.shutdown, Some(7));
    }
}
