//! The lean disk guest: a seeded stream of 4 KB requests, a quarter of
//! them writes, issued either through trapped vAHCI MMIO or through the
//! PV descriptor ring. The guest does no work between requests beyond
//! a fixed check: every write stamps a unique tag into its buffer, and
//! every read compares the first and last dword of its block against
//! the values the generator predicts. Mismatches count in a guest
//! variable, and a non-zero count exits with code 3.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

use nova_guest::os::{build_os, OsParams, Program};
use nova_guest::rt::{self, layout, vars};
use nova_hw::ahci::{regs, Ahci, DiskParams};
use nova_hw::pv::{self, disk as ring};
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;
use nova_x86::Asm;

use crate::rng::Rng;

/// Sectors per request.
pub const BLOCK_SECTORS: u32 = 8;
/// Bytes per request.
pub const BLOCK_BYTES: usize = 4096;
/// Distinct blocks the stream draws from: small enough that reads
/// often see earlier writes.
const POOL_BLOCKS: u64 = 1024;
/// First sector of the block pool.
const POOL_LBA: u64 = 0x1_0000;

/// Guest mark at the first request.
pub const MARK_START: u32 = 0x1000;
/// Guest mark after the last request.
pub const MARK_END: u32 = 0x1001;
/// Guest variable counting failed checks (offset in the variable page).
pub const VAR_ERRS: u32 = 60;
/// Guest exit code when any check failed.
pub const EXIT_CHECK_FAILED: u8 = 3;

// Request-table entry layout (one 32-byte entry per request).
const E_CFIS: i32 = 0;
const E_HDR: i32 = 4;
const E_LBA: i32 = 8;
const E_BUF: i32 = 12;
const E_FIRST: i32 = 16;
const E_LAST: i32 = 20;
const E_WRITE: i32 = 24;
const E_OP: i32 = 28;
const ENTRY: u32 = 32;

/// One disk request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Write (else read).
    pub write: bool,
    /// First sector.
    pub lba: u64,
    /// Position in its PV batch; selects the request's buffer.
    pub slot: u32,
    /// Writes: the tag stamped into the block's first dword.
    pub tag: u32,
    /// Reads: the tag of the last earlier write to this block, if any.
    pub sees: Option<u32>,
}

/// A seeded request stream and the block contents it implies.
pub struct DiskStream {
    /// The requests, in issue order.
    pub requests: Vec<Request>,
    /// Content of every write buffer apart from its tag dword.
    pub pattern: Vec<u8>,
}

impl DiskStream {
    /// `n` requests (a multiple of `batch`), exactly a quarter of them
    /// writes at seeded positions, over seeded blocks of the pool. No
    /// block appears twice within one batch, so the expected contents
    /// do not depend on the order a batch is served in.
    pub fn generate(seed: u64, n: u32, batch: u32) -> DiskStream {
        assert!(n > 0 && n.is_multiple_of(batch));
        let mut r = Rng::new(seed ^ 0xd15c_0000_0000_0001);
        let n = n as usize;
        let mut is_write = vec![false; n];
        for w in is_write.iter_mut().take(n / 4) {
            *w = true;
        }
        for i in (1..n).rev() {
            is_write.swap(i, r.below(i as u64 + 1) as usize);
        }
        let salt = r.next_u64() as u32;
        let mut last_tag: BTreeMap<u64, u32> = BTreeMap::new();
        let mut in_batch: HashSet<u64> = HashSet::new();
        let mut requests = Vec::with_capacity(n);
        for (i, write) in is_write.into_iter().enumerate() {
            let slot = (i % batch as usize) as u32;
            if slot == 0 {
                in_batch.clear();
            }
            let lba = loop {
                let lba = POOL_LBA + r.below(POOL_BLOCKS) * BLOCK_SECTORS as u64;
                if in_batch.insert(lba) {
                    break lba;
                }
            };
            let tag = salt ^ i as u32;
            let sees = last_tag.get(&lba).copied();
            if write {
                last_tag.insert(lba, tag);
            }
            requests.push(Request {
                write,
                lba,
                slot,
                tag,
                sees: if write { None } else { sees },
            });
        }
        let mut pattern = Vec::with_capacity(BLOCK_BYTES);
        while pattern.len() < BLOCK_BYTES {
            pattern.extend_from_slice(&r.next_u64().to_le_bytes());
        }
        DiskStream { requests, pattern }
    }

    /// A block as written by the request tagged `tag`.
    pub fn written_block(&self, tag: u32) -> Vec<u8> {
        let mut b = self.pattern.clone();
        b[..4].copy_from_slice(&tag.to_le_bytes());
        b
    }

    /// The content a request expects in its block: the last earlier
    /// write's, else the disk's unwritten pattern (`pristine` is a
    /// controller nothing was written to).
    pub fn expected_block(&self, pristine: &Ahci, req: &Request) -> Vec<u8> {
        match req.sees {
            Some(tag) => self.written_block(tag),
            None => (0..BLOCK_SECTORS as u64)
                .flat_map(|s| pristine.sector(req.lba + s))
                .collect(),
        }
    }

    /// Every block the stream writes, with the tag of its last writer.
    pub fn final_writes(&self) -> BTreeMap<u64, u32> {
        self.requests
            .iter()
            .filter(|r| r.write)
            .map(|r| (r.lba, r.tag))
            .collect()
    }
}

/// A controller with nothing written, for the disk's initial content.
pub fn pristine_disk() -> Ahci {
    Ahci::new(DiskParams::sata_250g(), 11)
}

/// Guest-physical address of the read buffer of batch position `slot`.
pub fn read_buffer(pv: bool, slot: u32) -> u32 {
    if pv {
        layout::PV_DISK_BUF + slot * BLOCK_BYTES as u32
    } else {
        layout::DISK_BUF
    }
}

fn bd(r: Reg, disp: i32) -> MemRef {
    MemRef::base_disp(r, disp)
}

/// Builds the guest for `stream`: the trapped-AHCI driver, or the PV
/// ring driver when `pv`. Returns the program and the byte ranges of
/// its instructions.
pub fn build(stream: &DiskStream, pv: bool) -> (Program, Vec<Range<usize>>) {
    let params = if pv {
        OsParams {
            pv_disk: true,
            ..OsParams::minimal()
        }
    } else {
        OsParams {
            disk: true,
            ..OsParams::minimal()
        }
    };
    let mut data = 0..0;
    let program = build_os(params, |a, _| {
        // Write buffers and the request table sit in the image,
        // jumped over.
        let body = a.label();
        a.jmp(body);
        a.align(BLOCK_BYTES as u32);
        let wbuf = a.here();
        let slots = if pv { crate::workload::PV_BATCH } else { 1 };
        for _ in 0..slots {
            a.bytes(&stream.pattern);
        }
        let table = a.here();
        let pristine = pristine_disk();
        for req in &stream.requests {
            let buf = if req.write {
                wbuf + if pv { req.slot * BLOCK_BYTES as u32 } else { 0 }
            } else {
                read_buffer(pv, req.slot)
            };
            let (first, last) = if req.write {
                (req.tag, 0)
            } else {
                let b = stream.expected_block(&pristine, req);
                let dw = |o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
                (dw(0), dw(BLOCK_BYTES - 4))
            };
            let cmd = if req.write {
                nova_hw::ahci::ATA_WRITE_DMA_EXT
            } else {
                nova_hw::ahci::ATA_READ_DMA_EXT
            };
            a.dd(0x27 | (cmd as u32) << 16);
            a.dd(1 << 16 | if req.write { 1 << 6 } else { 0 });
            a.dd(req.lba as u32);
            a.dd(buf);
            a.dd(first);
            a.dd(last);
            a.dd(req.write as u32);
            a.dd(if req.write {
                ring::OP_WRITE
            } else {
                ring::OP_READ
            });
        }
        let table_end = a.here();
        data = (wbuf - layout::CODE) as usize..(table_end - layout::CODE) as usize;
        a.bind(body);

        a.mov_mi(rt::var(VAR_ERRS), 0);
        a.mov_mi(rt::var(vars::SCRATCH), 0);
        a.mov_mi(rt::var(vars::PV_SLOT), 0);
        rt::emit_mark(a, MARK_START);
        if pv {
            emit_pv_loop(a, table, table_end);
        } else {
            emit_trapped_loop(a, table, table_end);
        }
        rt::emit_mark(a, MARK_END);
        a.alu_mi(AluOp::Cmp, rt::var(VAR_ERRS), 0);
        let clean = a.label();
        a.jcc(Cond::E, clean);
        rt::emit_exit(a, EXIT_CHECK_FAILED);
        a.bind(clean);
    });
    let code = vec![0..data.start, data.end..program.bytes.len()];
    (program, code)
}

/// Reads compare the first and last dword of their buffer (EDI) with
/// the table entry at ESI; a mismatch bumps the error variable.
fn emit_read_check(a: &mut Asm) {
    let done = a.label();
    let bad = a.label();
    a.alu_mi(AluOp::Cmp, bd(Reg::Esi, E_WRITE), 0);
    a.jcc(Cond::Ne, done);
    a.mov_rm(Reg::Eax, bd(Reg::Edi, 0));
    a.alu_rm(AluOp::Cmp, Reg::Eax, bd(Reg::Esi, E_FIRST));
    a.jcc(Cond::Ne, bad);
    a.mov_rm(Reg::Eax, bd(Reg::Edi, BLOCK_BYTES as i32 - 4));
    a.alu_rm(AluOp::Cmp, Reg::Eax, bd(Reg::Esi, E_LAST));
    a.jcc(Cond::E, done);
    a.bind(bad);
    a.inc_m(rt::var(VAR_ERRS));
    a.bind(done);
}

/// Writes stamp their tag into their buffer (EDI) before issue.
fn emit_write_stamp(a: &mut Asm) {
    let skip = a.label();
    a.alu_mi(AluOp::Cmp, bd(Reg::Esi, E_WRITE), 0);
    a.jcc(Cond::E, skip);
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_FIRST));
    a.mov_mr(bd(Reg::Edi, 0), Reg::Eax);
    a.bind(skip);
}

/// One synchronous AHCI command per table entry: header, CFIS and one
/// PRDT entry, doorbell, halt until the completion interrupt.
fn emit_trapped_loop(a: &mut Asm, table: u32, table_end: u32) {
    let base = nova_hw::machine::AHCI_BASE as u32;
    let ctba = layout::DISK_CTBA;
    // Fields every command shares.
    a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), ctba);
    a.mov_mi(MemRef::abs(layout::DISK_CMD + 12), 0);
    a.mov_mi(MemRef::abs(ctba + 12), BLOCK_SECTORS);
    a.mov_mi(MemRef::abs(ctba + 0x84), 0);
    a.mov_mi(MemRef::abs(ctba + 0x8c), BLOCK_BYTES as u32 - 1);

    a.mov_ri(Reg::Esi, table);
    let top = a.here_label();
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_HDR));
    a.mov_mr(MemRef::abs(layout::DISK_CMD), Reg::Eax);
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_CFIS));
    a.mov_mr(MemRef::abs(ctba), Reg::Eax);
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_LBA));
    a.mov_rr(Reg::Edi, Reg::Eax);
    a.alu_ri(AluOp::And, Reg::Edi, 0x00ff_ffff);
    a.mov_mr(MemRef::abs(ctba + 4), Reg::Edi);
    a.shr_ri(Reg::Eax, 24);
    a.mov_mr(MemRef::abs(ctba + 8), Reg::Eax);
    a.mov_rm(Reg::Edi, bd(Reg::Esi, E_BUF));
    a.mov_mr(MemRef::abs(ctba + 0x80), Reg::Edi);
    emit_write_stamp(a);

    a.mov_mi(rt::var(vars::DISK_DONE), 0);
    a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
    let wait = a.here_label();
    a.sti();
    a.hlt();
    a.alu_mi(AluOp::Cmp, rt::var(vars::DISK_DONE), 1);
    a.jcc(Cond::Ne, wait);

    a.mov_rm(Reg::Edi, bd(Reg::Esi, E_BUF));
    emit_read_check(a);
    a.add_ri(Reg::Esi, ENTRY);
    a.cmp_ri(Reg::Esi, table_end);
    a.jcc(Cond::B, top);
}

/// One doorbell per batch: publish the batch's descriptors, ring once,
/// halt until the ring's `used` counter reaches the batch, check its
/// reads. Error completions the ring reports count as failures.
fn emit_pv_loop(a: &mut Asm, table: u32, table_end: u32) {
    let batch = crate::workload::PV_BATCH;
    let ring_gpa = layout::PV_DISK_RING;

    a.mov_ri(Reg::Esi, table);
    let top = a.here_label();
    a.mov_ri(Reg::Ecx, batch);
    let fill = a.here_label();
    // EBX = descriptor of the producer slot.
    a.mov_rm(Reg::Ebx, rt::var(vars::PV_SLOT));
    a.shl_ri(Reg::Ebx, 5);
    a.add_ri(Reg::Ebx, ring_gpa + ring::DESC0 as u32);
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_OP));
    a.mov_mr(bd(Reg::Ebx, ring::D_OP as i32), Reg::Eax);
    a.mov_mi(bd(Reg::Ebx, ring::D_SECTORS as i32), BLOCK_SECTORS);
    a.mov_rm(Reg::Eax, bd(Reg::Esi, E_LBA));
    a.mov_mr(bd(Reg::Ebx, ring::D_LBA as i32), Reg::Eax);
    a.mov_mi(bd(Reg::Ebx, ring::D_LBA as i32 + 4), 0);
    a.mov_rm(Reg::Edi, bd(Reg::Esi, E_BUF));
    a.mov_mr(bd(Reg::Ebx, ring::D_BUF as i32), Reg::Edi);
    a.mov_mi(bd(Reg::Ebx, ring::D_BUF as i32 + 4), 0);
    a.mov_mi(bd(Reg::Ebx, ring::D_STATUS as i32), 0);
    emit_write_stamp(a);
    // Advance the producer slot, wrapping at the ring capacity.
    a.mov_rm(Reg::Eax, rt::var(vars::PV_SLOT));
    a.inc_r(Reg::Eax);
    a.cmp_ri(Reg::Eax, ring::CAPACITY);
    let no_wrap = a.label();
    a.jcc(Cond::B, no_wrap);
    a.xor_rr(Reg::Eax, Reg::Eax);
    a.bind(no_wrap);
    a.mov_mr(rt::var(vars::PV_SLOT), Reg::Eax);
    a.add_ri(Reg::Esi, ENTRY);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, fill);

    a.mov_mi(
        MemRef::abs(pv::PV_BASE as u32 + pv::regs::DISK_DOORBELL as u32),
        batch,
    );
    // Wait until `used` reaches the cumulative target (wraparound-safe
    // compare, as in the stock PV driver).
    a.alu_mi(AluOp::Add, rt::var(vars::SCRATCH), batch);
    let wait = a.here_label();
    a.sti();
    a.hlt();
    a.mov_rm(Reg::Eax, MemRef::abs(ring_gpa + ring::USED as u32));
    a.alu_rm(AluOp::Sub, Reg::Eax, rt::var(vars::SCRATCH));
    a.jcc(Cond::S, wait);

    a.sub_ri(Reg::Esi, batch * ENTRY);
    a.mov_ri(Reg::Ecx, batch);
    let check = a.here_label();
    a.mov_rm(Reg::Edi, bd(Reg::Esi, E_BUF));
    emit_read_check(a);
    a.add_ri(Reg::Esi, ENTRY);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, check);
    a.cmp_ri(Reg::Esi, table_end);
    a.jcc(Cond::B, top);

    a.mov_rm(Reg::Eax, MemRef::abs(ring_gpa + ring::ERRORS as u32));
    a.alu_mr(AluOp::Add, rt::var(VAR_ERRS), Reg::Eax);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_shape() {
        let s = DiskStream::generate(7, 512, 8);
        let writes = s.requests.iter().filter(|r| r.write).count();
        assert_eq!(writes, 128, "exactly a quarter writes");
        for batch in s.requests.chunks(8) {
            let blocks: HashSet<u64> = batch.iter().map(|r| r.lba).collect();
            assert_eq!(blocks.len(), batch.len(), "no block twice in a batch");
        }
        // Reads see the latest earlier write of their block.
        let mut last = BTreeMap::new();
        for r in &s.requests {
            if r.write {
                last.insert(r.lba, r.tag);
            } else {
                assert_eq!(r.sees, last.get(&r.lba).copied());
            }
        }
        assert!(
            s.requests.iter().any(|r| r.sees.is_some()),
            "reads hit writes"
        );
    }
}
