//! The CPU's decoded-instruction cache: decode once per physical frame.
//!
//! Decoded instructions are kept per 4 KB RAM frame, found by indexing
//! directly with `hpa >> 12` (no hashing). A frame holds an
//! offset → slot index and the instructions decoded in it, and its
//! entries are valid only while the frame's write generation in
//! [`PhysMem`] is unchanged. Every `PhysMem` writer bumps that
//! generation, so there is nothing to flush: a guest store, DMA, a
//! hypervisor or VMM write, a checkpoint restore or an image load over
//! code is seen by the next fetch.
//!
//! A stale frame is rebuilt in O(instructions decoded in it), not by
//! clearing its 4096-entry index, so a guest that keeps code and data
//! in one frame pays no more than a decode per miss.
//!
//! Not cached: fetches from outside RAM. An instruction that straddles
//! into the next page is stored with the frame and generation of its
//! tail bytes as well and is valid only while both are unchanged.
//!
//! Memory: 8 KB of index per frame code ran from, plus its decoded
//! instructions, plus one pointer per RAM frame.

use nova_x86::insn::Insn;

use crate::mem::{PhysMem, FRAME_SIZE};
use crate::PAddr;

/// One decoded instruction.
#[derive(Clone, Copy)]
struct Entry {
    /// Offset of its first byte in the frame.
    off: u16,
    insn: Insn,
    /// For an instruction that straddles into the next page: the frame
    /// holding its tail bytes and that frame's write generation at
    /// decode time.
    tail: Option<(u64, u64)>,
}

/// Decoded instructions of one RAM frame.
struct Frame {
    /// The frame's write generation the entries were decoded at.
    gen: u64,
    /// Offset → index + 1 into `entries`; 0 means not decoded.
    slot: [u16; FRAME_SIZE],
    entries: Vec<Entry>,
}

/// Decoded instructions per physical RAM frame. Starts empty and sizes
/// itself to RAM on first use.
#[derive(Default)]
pub struct InsnCache {
    frames: Vec<Option<Box<Frame>>>,
}

impl InsnCache {
    /// The cached decode of the instruction whose first byte is at
    /// `hpa`, if it is still valid.
    #[inline]
    pub fn lookup(&self, mem: &PhysMem, hpa: PAddr) -> Option<&Insn> {
        let frame = hpa >> 12;
        let f = self.frames.get(frame as usize)?.as_deref()?;
        if mem.frame_gen(frame) != Some(f.gen) {
            return None;
        }
        let slot = *f.slot.get((hpa & 0xfff) as usize)?;
        let e = f.entries.get(usize::from(slot).checked_sub(1)?)?;
        if let Some((tail, gen)) = e.tail {
            if mem.frame_gen(tail) != Some(gen) {
                return None;
            }
        }
        Some(&e.insn)
    }

    /// Caches `insn`, just decoded from the bytes at `hpa` (and, for an
    /// instruction straddling a page, from the page at `tail`).
    /// Fetches from outside RAM are not cached.
    pub fn insert(&mut self, mem: &PhysMem, hpa: PAddr, insn: Insn, tail: Option<PAddr>) {
        let frame = hpa >> 12;
        let Some(gen) = mem.frame_gen(frame) else {
            return;
        };
        let tail = match tail {
            Some(t) => match mem.frame_gen(t >> 12) {
                Some(g) => Some((t >> 12, g)),
                None => return,
            },
            None => None,
        };
        if self.frames.len() < mem.frames() {
            self.frames.resize_with(mem.frames(), || None);
        }
        let Some(f) = self.frames.get_mut(frame as usize) else {
            return;
        };
        let f = f.get_or_insert_with(|| {
            Box::new(Frame {
                gen,
                slot: [0; FRAME_SIZE],
                entries: Vec::new(),
            })
        });
        if f.gen != gen {
            // Stale: forget what was decoded under the old contents.
            for e in f.entries.drain(..) {
                if let Some(s) = f.slot.get_mut(usize::from(e.off)) {
                    *s = 0;
                }
            }
            f.gen = gen;
        }
        let off = (hpa & 0xfff) as u16;
        let entry = Entry { off, insn, tail };
        let Some(slot) = f.slot.get_mut(usize::from(off)) else {
            return;
        };
        match usize::from(*slot).checked_sub(1) {
            // Re-decoded after its tail page changed: replace in place.
            Some(i) => {
                if let Some(e) = f.entries.get_mut(i) {
                    *e = entry;
                }
            }
            None => {
                f.entries.push(entry);
                // At most one entry per offset, so this fits in u16.
                *slot = f.entries.len() as u16;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_x86::decode::decode;

    fn insn(bytes: &[u8]) -> Insn {
        decode(bytes).unwrap()
    }

    #[test]
    fn hit_until_the_frame_is_written() {
        let mut mem = PhysMem::new(4 * FRAME_SIZE);
        let mut c = InsnCache::default();
        let nop = insn(&[0x90]);
        assert!(c.lookup(&mem, 0x1010).is_none());
        c.insert(&mem, 0x1010, nop, None);
        assert_eq!(c.lookup(&mem, 0x1010), Some(&nop));
        assert!(c.lookup(&mem, 0x1011).is_none());
        // A write to another frame leaves it valid ...
        mem.write_u8(0x2000, 0);
        assert_eq!(c.lookup(&mem, 0x1010), Some(&nop));
        // ... a write anywhere in its own frame does not.
        mem.write_u8(0x1fff, 0);
        assert!(c.lookup(&mem, 0x1010).is_none());
        // Rebuilding the frame drops every old entry, not only the
        // one re-inserted.
        c.insert(&mem, 0x1020, nop, None);
        assert!(c.lookup(&mem, 0x1010).is_none());
        assert_eq!(c.lookup(&mem, 0x1020), Some(&nop));
    }

    #[test]
    fn straddler_depends_on_both_frames() {
        let mut mem = PhysMem::new(4 * FRAME_SIZE);
        let mut c = InsnCache::default();
        let mov = insn(&[0xb8, 0x11, 0, 0, 0]);
        c.insert(&mem, 0x1ffe, mov, Some(0x3000));
        assert_eq!(c.lookup(&mem, 0x1ffe), Some(&mov));
        mem.write_u8(0x3001, 0x22);
        assert!(c.lookup(&mem, 0x1ffe).is_none());
        let patched = insn(&[0xb8, 0x11, 0x22, 0, 0]);
        c.insert(&mem, 0x1ffe, patched, Some(0x3000));
        assert_eq!(c.lookup(&mem, 0x1ffe), Some(&patched));
    }

    #[test]
    fn fetches_outside_ram_are_not_cached() {
        let mem = PhysMem::new(FRAME_SIZE);
        let mut c = InsnCache::default();
        let nop = insn(&[0x90]);
        c.insert(&mem, 0x1000, nop, None);
        assert!(c.lookup(&mem, 0x1000).is_none());
        c.insert(&mem, 0xffe, nop, Some(0x1000));
        assert!(c.lookup(&mem, 0xffe).is_none());
    }
}
