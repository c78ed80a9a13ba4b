//! Host-speed calibration.
//!
//! On a shared host the throughput of the core the simulator runs on
//! drifts by half or more over seconds to minutes (other tenants on the
//! sibling hyperthread and the memory system), which swamps the effect
//! of any change to the program. Every timed section is therefore
//! bracketed by two passes of a fixed calibration kernel — the
//! benchmark's own code, which no change to the repository can speed
//! up — and its host time is scaled by `REFERENCE_S / calibration
//! time`: host seconds at a fixed reference speed.
//!
//! Contention slows different kinds of work by different amounts, and a
//! kernel that slows down less than the simulator corrects less. The
//! kernel does small heap allocations, block copies and hash-map inserts
//! and lookups over a working set larger than the caches; of the kernels
//! tried (this one, an interpreter loop, a random-access loop) it
//! tracked the simulator best on every workload.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Time of one calibration pass at the reference speed (the uncontended
/// speed of the 2-core 2.0 GHz Xeon virtual machine the benchmark was
/// tuned on).
pub const REFERENCE_S: f64 = 0.014;

/// Steps of one calibration pass.
const STEPS: u32 = 15_000;

/// Source bytes the kernel copies from (8 MB).
const SOURCE_BYTES: usize = 8 << 20;

/// Distinct keys of the kernel's map.
const KEYS: u64 = 16_384;

/// The calibration kernel and the passes measured so far.
pub struct HostClock {
    src: Vec<u8>,
    map: HashMap<u64, Vec<u8>>,
    x: u64,
    passes: Vec<f64>,
}

impl HostClock {
    /// Builds the kernel's data and warms it up.
    pub fn new() -> HostClock {
        let mut c = HostClock {
            src: (0..SOURCE_BYTES).map(|i| (i * 31 % 251) as u8).collect(),
            map: HashMap::new(),
            x: 0x9e37_79b9_7f4a_7c15,
            passes: Vec::new(),
        };
        c.pass();
        c.passes.clear();
        c
    }

    /// Host seconds of one pass: `STEPS` times, a 512 B–4 KB block
    /// copied from a pseudo-random place of the source into a fresh
    /// allocation that replaces a map entry, plus one lookup.
    fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let key = self.x % KEYS;
            let len = 512 << (self.x >> 60 & 3);
            let off = (self.x >> 20) as usize % (self.src.len() - len);
            let block = self.src[off..off + len].to_vec();
            if let Some(old) = self.map.insert(key, block) {
                acc = acc.wrapping_add(old[old.len() / 2] as u64);
            }
            if let Some(other) = self.map.get(&(key ^ 0x155)) {
                acc = acc.wrapping_add(other[7] as u64);
            }
        }
        black_box(acc);
        let s = t.elapsed().as_secs_f64();
        self.passes.push(s);
        s
    }

    /// Runs `f` between two calibration passes. Returns its result and
    /// the factor that turns host seconds measured inside `f` into
    /// seconds at the reference speed. `f` should free what it
    /// allocates before it returns, so that both passes run with the
    /// same heap.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.pass();
        let r = f();
        let after = self.pass();
        (r, REFERENCE_S / ((before + after) / 2.0))
    }

    /// Every pass measured inside [`HostClock::bracket`].
    pub fn passes(&self) -> &[f64] {
        &self.passes
    }
}
