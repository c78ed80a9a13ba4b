//! Wall-clock gate for the memory fast path: translation through the
//! radix `MemSpace` and its per-PD translation cache versus a plain
//! `BTreeMap<u64, MemMapping>` holding the same mappings — exactly
//! the seed's memory-space backend — in the same binary on the same
//! host.
//!
//! The harness asserts the translate speedup (>= 3x) so CI fails on a
//! fast-path regression. Whole-run host time of the kernel, emulator
//! and PV paths is judged by the repository benchmark (`perfbench/`),
//! not here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nova_bench::configs::GUEST_PAGES;
use nova_bench::report::{banner, write_json};
use nova_core::obj::{MemMapping, MemRights, MemSpace};
use nova_trace::json::Json;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Times `f` over `iters` iterations, several samples, median
/// ns/iter (same harness as `micro.rs`).
fn bench(
    rows: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    iters: u64,
    mut f: impl FnMut(),
) -> f64 {
    const SAMPLES: usize = 7;
    let mut per_iter = Vec::with_capacity(SAMPLES);
    for _ in 0..iters.min(1000) {
        f();
    }
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter[SAMPLES / 2];
    println!("{name:44} {median:12.1} ns/iter");
    rows.push((name, median));
    median
}

fn mapping(p: u64) -> MemMapping {
    MemMapping {
        hpa: (p + 0x100) << 12,
        rights: MemRights::RW,
    }
}

/// The seed backend's translate: one ordered-map probe per call.
fn btree_translate(pages: &BTreeMap<u64, MemMapping>, addr: u64) -> Option<u64> {
    pages.get(&(addr >> 12)).map(|m| m.hpa + (addr & 0xfff))
}

fn main() {
    banner("Wall-clock gate: radix + translation cache vs BTreeMap translate");

    let mut radix = MemSpace::default();
    let mut btree = BTreeMap::new();
    for p in 0..GUEST_PAGES {
        radix.map(p, mapping(p));
        btree.insert(p, mapping(p));
    }

    // Hot working set: the pattern every emulated memory access
    // produces — repeated translations of a few pages (the fetch
    // page, the operand page, the ring page).
    let mut rows = Vec::new();
    let mut a = 0u64;
    let fast = bench(&mut rows, "translate_hot64_radix_cache", 1_000_000, || {
        a = (a + 4096) % (64 << 12);
        black_box(radix.translate(black_box(a | 0x7f4)));
    });
    let mut a = 0u64;
    let slow = bench(&mut rows, "translate_hot64_btree", 1_000_000, || {
        a = (a + 4096) % (64 << 12);
        black_box(btree_translate(&btree, black_box(a | 0x7f4)));
    });
    // Cold-ish sweep over the whole space, for the record (no
    // criterion: the direct-mapped cache is not built for this).
    let mut a = 0u64;
    bench(&mut rows, "translate_sweep_radix", 1_000_000, || {
        a = (a + 4096) % (GUEST_PAGES << 12);
        black_box(radix.translate(black_box(a)));
    });
    let mut a = 0u64;
    bench(&mut rows, "translate_sweep_btree", 1_000_000, || {
        a = (a + 4096) % (GUEST_PAGES << 12);
        black_box(btree_translate(&btree, black_box(a)));
    });

    let ratio = slow / fast;
    println!("\ntranslate speedup  {ratio:7.2}x");

    let rows = Json::Arr(
        rows.iter()
            .map(|(name, ns)| {
                Json::obj()
                    .field("name", Json::from(*name))
                    .field("ns", Json::F64(*ns))
            })
            .collect(),
    );
    let path = write_json(
        REPO_ROOT,
        "wallclock",
        vec![
            ("translate_speedup".into(), Json::F64(ratio)),
            ("rows".into(), rows),
        ],
    );
    println!("wrote {path}");

    assert!(
        ratio >= 3.0,
        "translate microbench must be >= 3x over the BTreeMap (got {ratio:.2}x)"
    );
}
