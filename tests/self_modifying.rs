//! Self-modifying code: the CPU's decoded-instruction cache must never
//! execute a stale decode. Each program runs an instruction, then
//! changes its bytes — by a guest store (native and under EPT), across
//! a page boundary, or host-side through `PhysMem` — and runs it
//! again; x86 requires the new bytes to take effect.

use nova_hw::cpu::{run_guest, NativeStop};
use nova_hw::machine::{Machine, MachineConfig, DEBUG_EXIT_PORT};
use nova_hw::vmx::{ExitReason, PagingVirt, Vmcs};
use nova_x86::insn::{Cond, MemRef};
use nova_x86::paging::{npte, NestedFormat};
use nova_x86::reg::{Reg, Regs};
use nova_x86::Asm;

const CODE: u32 = 0x1000;
const STACK: u32 = 0x8000;

fn machine() -> Machine {
    Machine::new(MachineConfig::core_i7(16 << 20))
}

/// Emits: `mov eax, 0x11` at `target` (padding with NOPs up to it),
/// run twice; between the runs the dword at `patch` is overwritten with
/// `value`. Exits through the debug port with AL.
fn patch_and_rerun(target: u32, patch: u32, value: u32) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    let insn = a.label();
    let back = a.label();
    let done = a.label();
    a.mov_ri(Reg::Ebx, 0);
    a.jmp(insn);

    a.bind(back);
    a.cmp_ri(Reg::Ebx, 0);
    a.jcc(Cond::Ne, done);
    a.inc_r(Reg::Ebx);
    a.mov_mi(MemRef::abs(patch), value);
    a.jmp(insn);

    a.bind(done);
    a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
    a.out_dx_al();

    assert!(a.here() <= target, "code runs past the patched instruction");
    while a.here() < target {
        a.nop();
    }
    a.bind(insn);
    a.mov_ri(Reg::Eax, 0x11); // b8 11 00 00 00
    a.jmp(back);
    a.finish()
}

fn run_native_at(m: &mut Machine, entry: u32) -> NativeStop {
    m.cpus[0].regs = Regs::at(entry);
    m.cpus[0].regs.set(Reg::Esp, STACK);
    m.run_native(Some(10_000_000))
}

/// An identity EPT over the first 4 MB in 4 KB pages; tables at 8 MB.
fn ident_ept(m: &mut Machine) -> u64 {
    let root = 8 << 20;
    let (l2, l1, l0) = (root + 0x1000, root + 0x2000, root + 0x3000);
    m.mem.write_u64(root, l2 | npte::RWX);
    m.mem.write_u64(l2, l1 | npte::RWX);
    for t in 0..2 {
        m.mem.write_u64(l1 + t * 8, (l0 + t * 0x1000) | npte::RWX);
    }
    for p in 0..1024 {
        m.mem.write_u64(l0 + p * 8, (p << 12) | npte::RWX);
    }
    root
}

#[test]
fn native_store_to_executed_code_takes_effect() {
    let mut m = machine();
    let target = CODE + 0x200;
    m.load_image(CODE as u64, &patch_and_rerun(target, target + 1, 0x22));
    assert_eq!(run_native_at(&mut m, CODE), NativeStop::Shutdown(0x22));
}

#[test]
fn guest_store_under_ept_to_executed_code_takes_effect() {
    let mut m = machine();
    let target = CODE + 0x200;
    m.mem
        .write_bytes(CODE as u64, &patch_and_rerun(target, target + 1, 0x22));
    let root = ident_ept(&mut m);
    let mut v = Vmcs::new(
        PagingVirt::Nested {
            root,
            fmt: NestedFormat::Ept4Level,
        },
        1,
    );
    v.guest = Regs::at(CODE);
    v.guest.set(Reg::Esp, STACK);
    let cost = m.cost;
    let exit = run_guest(
        &mut m.cpus[0],
        &mut m.mem,
        &mut m.bus,
        &cost,
        &mut m.clock,
        &mut v,
        Some(10_000_000),
    );
    assert!(
        matches!(exit, ExitReason::IoPort { port, write: true, .. } if port == DEBUG_EXIT_PORT),
        "unexpected exit {exit:?}"
    );
    assert_eq!(v.guest.get(Reg::Eax), 0x22);
}

#[test]
fn patching_the_second_page_of_a_straddling_instruction_takes_effect() {
    let mut m = machine();
    // The opcode byte is the last byte of one page; its imm32 fills the
    // first four bytes of the next, and only those are patched.
    let target = CODE + 0xfff;
    m.load_image(CODE as u64, &patch_and_rerun(target, target + 1, 0x22));
    assert_eq!(run_native_at(&mut m, CODE), NativeStop::Shutdown(0x22));
}

#[test]
fn host_write_over_executed_code_takes_effect() {
    let mut m = machine();
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Eax, 0x11);
    a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
    a.out_dx_al();
    m.load_image(CODE as u64, &a.finish());
    assert_eq!(run_native_at(&mut m, CODE), NativeStop::Shutdown(0x11));
    // Rewrite the imm32 behind the CPU's back, not through load_image.
    m.mem.write_bytes(CODE as u64 + 1, &0x22u32.to_le_bytes());
    assert_eq!(run_native_at(&mut m, CODE), NativeStop::Shutdown(0x22));
}
