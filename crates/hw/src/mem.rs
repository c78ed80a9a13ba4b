//! Physical memory (RAM) of the simulated machine.
//!
//! MMIO regions are *not* backed here; the machine routes physical
//! accesses that fall into device windows to the device bus. Reads of
//! unpopulated addresses return zeros the way open bus lines read on
//! commodity chipsets; writes outside RAM are dropped. Accessors exist
//! in byte, u32 and u64 granularity because page-table walkers, DMA
//! engines and the CPU all touch memory here.
//!
//! Every writer bumps the *write generation* of each 4 KB frame it
//! touches ([`PhysMem::frame_gen`]). Caches of state derived from RAM
//! contents — the CPU's decoded instructions — compare generations
//! instead of being flushed, so CPU stores, device DMA, hypervisor and
//! VMM writes, checkpoint restore and image loading all invalidate them
//! through this one hook.

use std::ops::Range;

use nova_x86::insn::OpSize;

use crate::PAddr;

/// Size of the frames write generations are kept for.
pub const FRAME_SIZE: usize = 4096;

/// Byte-addressable RAM.
pub struct PhysMem {
    bytes: Vec<u8>,
    /// Write generation per 4 KB frame; bumped by every writer.
    gens: Vec<u64>,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> PhysMem {
        PhysMem {
            bytes: vec![0; size],
            gens: vec![0; size.div_ceil(FRAME_SIZE)],
        }
    }

    /// RAM size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Number of (possibly partial) 4 KB frames backing RAM.
    pub fn frames(&self) -> usize {
        self.gens.len()
    }

    /// Write generation of RAM frame `frame` (`hpa >> 12`), or `None`
    /// for a frame outside RAM. It changes whenever any byte of the
    /// frame may have been written.
    #[inline]
    pub fn frame_gen(&self, frame: u64) -> Option<u64> {
        self.gens.get(usize::try_from(frame).ok()?).copied()
    }

    /// `true` if `addr..addr+len` lies inside RAM.
    pub fn contains(&self, addr: PAddr, len: u32) -> bool {
        (addr as usize)
            .checked_add(len as usize)
            .is_some_and(|end| end <= self.bytes.len())
    }

    /// The part of `addr..addr+len` that lies in RAM. It starts at
    /// `addr` (or is empty), so whatever it leaves out lies past the
    /// end of RAM.
    #[inline]
    fn in_ram(&self, addr: PAddr, len: usize) -> Range<usize> {
        let size = self.bytes.len();
        let a = usize::try_from(addr).map_or(size, |a| a.min(size));
        a..a + len.min(size - a)
    }

    /// Bumps the write generation of every frame `r` touches.
    #[inline]
    fn written(&mut self, r: Range<usize>) {
        if r.is_empty() {
            return;
        }
        let frames = r.start / FRAME_SIZE..(r.end - 1) / FRAME_SIZE + 1;
        if let Some(gens) = self.gens.get_mut(frames) {
            for g in gens {
                *g += 1;
            }
        }
    }

    /// Reads one byte; unpopulated addresses read as zero.
    pub fn read_u8(&self, addr: PAddr) -> u8 {
        self.bytes.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes one byte; writes outside RAM are dropped.
    pub fn write_u8(&mut self, addr: PAddr, val: u8) {
        self.write_bytes(addr, &[val]);
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: PAddr) -> u32 {
        let mut b = [0; 4];
        self.read_into(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: PAddr, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads a little-endian u64 (used by 64-bit EPT entries).
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0; 8];
        self.read_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: PAddr, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads an operand-sized value.
    pub fn read_sized(&self, addr: PAddr, size: OpSize) -> u32 {
        match size {
            OpSize::Byte => self.read_u8(addr) as u32,
            OpSize::Dword => self.read_u32(addr),
        }
    }

    /// Writes an operand-sized value.
    pub fn write_sized(&mut self, addr: PAddr, size: OpSize, val: u32) {
        match size {
            OpSize::Byte => self.write_u8(addr, val as u8),
            OpSize::Dword => self.write_u32(addr, val),
        }
    }

    /// Copies a byte slice into RAM (image loading, DMA). The part
    /// that runs past the end of RAM is dropped.
    #[inline]
    pub fn write_bytes(&mut self, addr: PAddr, data: &[u8]) {
        let r = self.in_ram(addr, data.len());
        if let (Some(dst), Some(src)) = (self.bytes.get_mut(r.clone()), data.get(..r.len())) {
            dst.copy_from_slice(src);
        }
        self.written(r);
    }

    /// Copies bytes out of RAM; bytes past the end of RAM read as zero.
    pub fn read_bytes(&self, addr: PAddr, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read_into(addr, &mut v);
        v
    }

    /// Copies bytes out of RAM into a caller-provided buffer without
    /// allocating; bytes past the end of RAM read as zero.
    #[inline]
    pub fn read_into(&self, addr: PAddr, out: &mut [u8]) {
        let r = self.in_ram(addr, out.len());
        let (head, rest) = out.split_at_mut(r.len());
        if let Some(src) = self.bytes.get(r) {
            head.copy_from_slice(src);
        }
        rest.fill(0);
    }

    /// Borrows `len` bytes of RAM in place (zero-copy read access);
    /// `None` if the range is not fully RAM-backed.
    pub fn slice(&self, addr: PAddr, len: usize) -> Option<&[u8]> {
        let a = addr as usize;
        self.bytes.get(a..a.checked_add(len)?)
    }

    /// Borrows `len` bytes of RAM mutably in place (zero-copy write
    /// access); `None` if the range is not fully RAM-backed. The whole
    /// range counts as written.
    pub fn slice_mut(&mut self, addr: PAddr, len: usize) -> Option<&mut [u8]> {
        let a = usize::try_from(addr).ok()?;
        let r = a..a.checked_add(len)?;
        if r.end > self.bytes.len() {
            return None;
        }
        self.written(r.clone());
        self.bytes.get_mut(r)
    }

    /// Fills a region with a byte value. The part that runs past the
    /// end of RAM is dropped.
    pub fn fill(&mut self, addr: PAddr, len: usize, val: u8) {
        let r = self.in_ram(addr, len);
        if let Some(s) = self.bytes.get_mut(r.clone()) {
            s.fill(val);
        }
        self.written(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysMem::new(4096);
        m.write_u32(0x100, 0xdead_beef);
        assert_eq!(m.read_u32(0x100), 0xdead_beef);
        assert_eq!(m.read_u8(0x100), 0xef);
        assert_eq!(m.read_u8(0x103), 0xde);
        m.write_u64(0x200, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x200), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(0x204), 0x0123_4567);
    }

    #[test]
    fn out_of_range_reads_zero_writes_dropped() {
        let mut m = PhysMem::new(16);
        assert_eq!(m.read_u32(0x1_0000), 0);
        m.write_u32(0x1_0000, 0xffff_ffff); // dropped, no panic
        assert_eq!(m.read_u32(0x1_0000), 0);
        // Straddling the end.
        m.write_u32(14, 0xaabbccdd);
        assert_eq!(m.read_u8(14), 0xdd);
        assert_eq!(m.read_u8(15), 0xcc);
        assert_eq!(m.read_u32(14), 0x0000_ccdd);
    }

    #[test]
    fn bulk_ops() {
        let mut m = PhysMem::new(1024);
        m.write_bytes(0x10, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x10, 5), vec![1, 2, 3, 4, 5]);
        m.fill(0x20, 8, 0xaa);
        assert_eq!(m.read_u32(0x20), 0xaaaa_aaaa);
    }

    #[test]
    fn contains_checks_bounds() {
        let m = PhysMem::new(4096);
        assert!(m.contains(0, 4096));
        assert!(m.contains(4092, 4));
        assert!(!m.contains(4093, 4));
        assert!(!m.contains(u64::MAX, 1));
    }

    #[test]
    fn ranges_near_the_top_of_the_address_space_do_not_wrap() {
        let mut m = PhysMem::new(4096);
        m.write_u32(0, 0x1122_3344);
        for addr in [u64::MAX, u64::MAX - 2, 1 << 63] {
            m.write_bytes(addr, &[0xff; 8]);
            m.fill(addr, 8, 0xff);
            m.write_u64(addr, u64::MAX);
            assert_eq!(m.read_bytes(addr, 8), vec![0; 8]);
            assert_eq!(m.read_u64(addr), 0);
            assert!(m.slice_mut(addr, 8).is_none());
        }
        // Nothing wrapped around onto low RAM.
        assert_eq!(m.read_u32(0), 0x1122_3344);
        assert_eq!(m.frame_gen(0), Some(1));
    }

    #[test]
    fn range_straddling_end_of_ram_touches_the_in_ram_part() {
        let mut m = PhysMem::new(1024);
        m.fill(1020, 8, 0xaa);
        assert_eq!(
            m.read_bytes(1018, 8),
            vec![0, 0, 0xaa, 0xaa, 0xaa, 0xaa, 0, 0]
        );
        m.write_bytes(1022, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(1020, 6), vec![0xaa, 0xaa, 1, 2, 0, 0]);
        assert_eq!(m.read_u32(1022), 0x0201);
        assert!(m.slice(1020, 8).is_none());
    }

    #[test]
    fn every_writer_bumps_the_frames_it_touches() {
        let mut m = PhysMem::new(4 * FRAME_SIZE);
        assert_eq!(m.frames(), 4);
        assert_eq!(m.frame_gen(4), None);
        let gens = |m: &PhysMem| -> Vec<u64> { (0..4).map(|f| m.frame_gen(f).unwrap()).collect() };

        m.write_u8(0x10, 1);
        m.write_sized(0x1010, OpSize::Dword, 2);
        m.write_u64(0x2010, 3);
        assert_eq!(gens(&m), [1, 1, 1, 0]);
        // A dword straddling frames 0 and 1 bumps both.
        m.write_u32(0xffe, 4);
        assert_eq!(gens(&m), [2, 2, 1, 0]);
        m.write_bytes(0x1ff0, &[0; 0x1020]);
        assert_eq!(gens(&m), [2, 3, 2, 1]);
        m.fill(0x3000, 1, 0);
        assert_eq!(gens(&m), [2, 3, 2, 2]);
        // A mutable borrow counts as a write of its whole range, even
        // if nothing is stored through it.
        let _ = m.slice_mut(0x0fff, 2);
        assert_eq!(gens(&m), [3, 4, 2, 2]);

        // Reads, empty writes and writes outside RAM bump nothing.
        let mut buf = [0; 16];
        m.read_into(0x10, &mut buf);
        let _ = (m.read_bytes(0, 0x4000), m.read_u64(0x2010), m.slice(0, 8));
        m.write_bytes(0x10, &[]);
        m.fill(0x10, 0, 0);
        m.write_u32(0x4000, 5);
        assert_eq!(gens(&m), [3, 4, 2, 2]);
    }
}
