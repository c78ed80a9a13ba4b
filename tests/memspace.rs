//! Memory-path acceptance tests: the radix `MemSpace` must behave
//! like a plain page-ordered `BTreeMap` under random map/unmap
//! sequences, a fixed delegate/revoke hypercall script must leave the
//! recorded golden state, the per-PD translation cache must never
//! serve a stale entry through any kernel mutation path, page-crossing
//! u32/u64 accessors must agree with byte-wise composition, and
//! `Kernel::mem_write` must be all-or-nothing across pages.

use std::collections::BTreeMap;

use nova_core::obj::{MemMapping, MemRights, MemSpace, PdId};
use nova_core::{CompCtx, Hypercall, Kernel, KernelConfig};
use nova_hw::machine::{Machine, MachineConfig};
use nova_user::RootPm;

/// Deterministic xorshift64* generator (same idiom as `tests/props.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_rights(rng: &mut Rng) -> MemRights {
    match rng.below(3) {
        0 => MemRights::RW_DMA,
        1 => MemRights::RW,
        _ => MemRights::RO,
    }
}

/// Page numbers drawn from the interesting regions: within one leaf,
/// across the leaf span, straddling the directory/overflow boundary
/// (2^24), and deep in the overflow map.
fn random_page(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(512),
        1 => rng.below(1 << 15),
        2 => (1 << 24) - 8 + rng.below(16),
        _ => (1 << 24) + rng.below(1 << 10),
    }
}

/// Property: after any sequence of maps (delegations install mappings
/// with masked rights — same entry point) and unmaps (revocations),
/// the radix space agrees with a `BTreeMap` model on lookup (cold and
/// through the translation cache), translate, unmap results, count,
/// and full page-ordered iteration.
#[test]
fn radix_equals_btreemap_model_under_random_sequences() {
    for seed in [0x11, 0x22, 0x33, 0x44] {
        let mut rng = Rng::new(seed);
        let mut radix = MemSpace::default();
        let mut model: BTreeMap<u64, MemMapping> = BTreeMap::new();
        for _ in 0..4000 {
            let page = random_page(&mut rng);
            if rng.below(100) < 55 {
                let m = MemMapping {
                    hpa: rng.next() & 0xffff_ffff_f000,
                    rights: random_rights(&mut rng),
                };
                radix.map(page, m);
                model.insert(page, m);
            } else {
                assert_eq!(radix.unmap(page), model.remove(&page), "unmap({page:#x})");
            }
            // Probe a (mostly unrelated) page both cold and through
            // the translation cache.
            let probe = random_page(&mut rng);
            let want = model.get(&probe).copied();
            assert_eq!(radix.lookup(probe), want);
            assert_eq!(radix.lookup(probe), want, "cached");
            let off = rng.below(4096);
            assert_eq!(
                radix.translate((probe << 12) | off),
                want.map(|m| m.hpa + off)
            );
            assert_eq!(radix.count(), model.len());
        }
        let a: Vec<(u64, MemMapping)> = radix.iter().collect();
        let b: Vec<(u64, MemMapping)> = model.iter().map(|(p, m)| (*p, *m)).collect();
        assert_eq!(a, b, "iteration order and contents");
    }
}

fn kernel_with_root() -> (Kernel, CompCtx) {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(rc, re);
    let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
    (k, ctx)
}

/// The root's context re-aimed at the first PD it created.
fn child_ctx(ctx: CompCtx) -> CompCtx {
    CompCtx {
        pd: PdId(1),
        ec: ctx.ec,
        comp: ctx.comp,
    }
}

/// 64-bit FNV-1a, continuing from `h`.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a page-ordered mapping list: page, frame and rights of
/// every entry, in order.
fn mappings_digest(l: &[(u64, MemMapping)]) -> u64 {
    l.iter().fold(FNV_OFFSET, |h, (p, m)| {
        let h = fnv1a(&p.to_le_bytes(), h);
        let h = fnv1a(&m.hpa.to_le_bytes(), h);
        fnv1a(&[m.rights.write as u8, m.rights.dma as u8], h)
    })
}

/// A fixed randomized delegate/revoke hypercall script leaves every
/// protection domain's memory space and the kernel counters exactly
/// as recorded. The golden values were taken while the radix space
/// was still asserted identical to the seed `BTreeMap` backend under
/// this same script, so they pin that equivalence.
#[test]
fn kernel_delegation_script_matches_golden() {
    let (mut k, ctx) = kernel_with_root();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "child".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    let mut rng = Rng::new(0xdead_beef);
    for _ in 0..300 {
        let base = rng.below(2000);
        let count = 1 + rng.below(8);
        if rng.below(100) < 60 {
            let _ = k.hypercall(
                ctx,
                Hypercall::DelegateMem {
                    dst_pd: 0x30,
                    base,
                    count,
                    rights: random_rights(&mut rng),
                    hot: base,
                },
            );
        } else {
            let _ = k.hypercall(
                ctx,
                Hypercall::RevokeMem {
                    base,
                    count,
                    include_self: false,
                },
            );
        }
    }
    let child: Vec<(u64, MemMapping)> = k.obj.pd(PdId(1)).mem.iter().collect();
    let root: Vec<(u64, MemMapping)> = k.obj.pd(k.root_pd).mem.iter().collect();
    assert_eq!(child.len(), 471, "child PD mapping count");
    assert_eq!(
        mappings_digest(&child),
        0x17d8_956d_93dd_99f4,
        "child PD mappings"
    );
    assert_eq!(root.len(), 12296, "root PD mapping count");
    assert_eq!(
        mappings_digest(&root),
        0x30dd_26ac_15ad_5496,
        "root PD mappings"
    );
    let counters = format!("{:?}", k.counters);
    assert_eq!(
        fnv1a(counters.as_bytes(), FNV_OFFSET),
        0x8f4d_8b5d_9678_df1d,
        "kernel counters: {counters}"
    );
    // Every page the script touched (base < 2000, count <= 8) looks up,
    // cold and then through the translation cache, exactly as its
    // iter() entry says — absent pages included.
    for pd in [PdId(1), k.root_pd] {
        let ms = &k.obj.pd(pd).mem;
        let listed: BTreeMap<u64, MemMapping> = ms.iter().collect();
        for page in 0..2008 {
            let want = listed.get(&page).copied();
            assert_eq!(ms.lookup(page), want, "{pd:?} page {page:#x}");
            assert_eq!(ms.lookup(page), want, "{pd:?} page {page:#x} cached");
        }
    }
}

/// The translation cache fronting the radix backend must never serve
/// a stale entry after unmap, revoke, or PD destruction — exercised
/// through the kernel's own mutation paths, with reads in between to
/// keep the cache hot.
#[test]
fn translation_cache_invalidated_by_kernel_paths() {
    let (mut k, ctx) = kernel_with_root();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "victim".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x200,
            count: 4,
            rights: MemRights::RW,
            hot: 0x200,
        },
    )
    .unwrap();
    let child = PdId(1);
    // Warm the child's translation cache.
    for p in 0x200..0x204u64 {
        assert!(k.obj.pd(child).mem.translate(p << 12).is_some());
    }
    // Revoke from the root: the child's mapping must vanish, cache
    // included.
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 0x200,
            count: 1,
            include_self: false,
        },
    )
    .unwrap();
    assert_eq!(
        k.obj.pd(child).mem.translate(0x200 << 12),
        None,
        "stale hit"
    );
    assert!(k.obj.pd(child).mem.translate(0x201 << 12).is_some());
    // Re-delegate the same page at different rights: the cache must
    // yield the fresh mapping.
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x200,
            count: 1,
            rights: MemRights::RO,
            hot: 0x200,
        },
    )
    .unwrap();
    let m = k.obj.pd(child).mem.lookup(0x200).expect("remapped");
    assert!(!m.rights.write, "fresh rights, not the cached RW entry");
    // Destroy the PD: every cached translation dies with it.
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
    assert_eq!(k.obj.pd(child).mem.count(), 0);
    for p in 0x200..0x204u64 {
        assert_eq!(k.obj.pd(child).mem.translate(p << 12), None);
    }
}

/// Page-crossing u32/u64 reads and writes agree with byte-wise
/// composition through `mem_read_into`, including the
/// partially-unmapped case (the regression the direct loads must not
/// introduce).
#[test]
fn page_crossing_u32_u64_reads() {
    let (mut k, ctx) = kernel_with_root();
    // A recognizable pattern across the 0x5000 page boundary.
    let pattern: Vec<u8> = (0u8..16).map(|i| 0xa0 + i).collect();
    assert!(k.mem_write(ctx, 0x5000 - 8, &pattern));
    for off in 0..8u64 {
        let addr = 0x5000 - 8 + off;
        let mut bytes = [0u8; 8];
        k.mem_read_into(ctx, addr, &mut bytes).unwrap();
        let e32 = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        let e64 = u64::from_le_bytes(bytes);
        assert_eq!(bytes[..], pattern[off as usize..off as usize + 8]);
        assert_eq!(
            k.mem_read_u32(ctx, addr),
            Some(e32),
            "u32 at boundary-{off}"
        );
        assert_eq!(
            k.mem_read_u64(ctx, addr),
            Some(e64),
            "u64 at boundary-{off}"
        );
    }
    // A page-crossing write lands byte-exactly.
    assert!(k.mem_write_u32(ctx, 0x6000 - 2, 0x1122_3344));
    let mut bytes = [0u8; 4];
    k.mem_read_into(ctx, 0x6000 - 2, &mut bytes).unwrap();
    assert_eq!(bytes, [0x44, 0x33, 0x22, 0x11]);
    // Crossing into an unmapped page fails: the child only holds one
    // page.
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "onepage".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x100,
            count: 1,
            rights: MemRights::RW,
            hot: 0x100,
        },
    )
    .unwrap();
    let child = child_ctx(ctx);
    let page = 0x100 << 12;
    for off in [0xff8, 0xffa, 0xffc, 0xffe] {
        let addr = page + off;
        let (mut b4, mut b8) = ([0u8; 4], [0u8; 8]);
        let r4 = k
            .mem_read_into(child, addr, &mut b4)
            .map(|()| u32::from_le_bytes(b4));
        let r8 = k
            .mem_read_into(child, addr, &mut b8)
            .map(|()| u64::from_le_bytes(b8));
        assert_eq!(k.mem_read_u32(child, addr), r4, "u32 at {addr:#x}");
        assert_eq!(k.mem_read_u64(child, addr), r8, "u64 at {addr:#x}");
    }
    assert_eq!(k.mem_read_u32(child, page + 0xffe), None);
    assert_eq!(k.mem_read_u64(child, page + 0xffa), None);
    assert!(k.mem_read_u32(child, page + 0xffc).is_some());
    assert!(k.mem_read_u64(child, page + 0xff8).is_some());
}

/// `mem_write` is all or nothing: a write that runs from a writable
/// page into a read-only (or unmapped) one fails without landing any
/// byte on the writable page — the same for the `mem_write_u32`
/// page-crossing fallback.
#[test]
fn mem_write_is_all_or_nothing_across_pages() {
    const N: u64 = 0x100;
    let (mut k, ctx) = kernel_with_root();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "child".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    for (base, rights) in [(N, MemRights::RW), (N + 1, MemRights::RO)] {
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 0x30,
                base,
                count: 1,
                rights,
                hot: base,
            },
        )
        .unwrap();
    }
    let child = child_ctx(ctx);
    let addr = N * 4096 + 0xffe;
    // Root (RW on both frames) lays down a known pattern.
    assert!(k.mem_write(ctx, addr, &[0x11, 0x22, 0x33, 0x44]));
    let read = |k: &Kernel| {
        let mut b = [0u8; 4];
        k.mem_read_into(child, addr, &mut b).unwrap();
        b
    };
    assert!(!k.mem_write(child, addr, &[0xaa, 0xbb, 0xcc, 0xdd]));
    assert_eq!(read(&k), [0x11, 0x22, 0x33, 0x44], "RW page untouched");
    assert!(!k.mem_write_u32(child, addr, 0xdead_beef));
    assert_eq!(read(&k), [0x11, 0x22, 0x33, 0x44], "u32 fallback too");
    // Within the writable page the write still lands.
    assert!(k.mem_write(child, addr, &[0xaa, 0xbb]));
    assert_eq!(read(&k), [0xaa, 0xbb, 0x33, 0x44]);
    // Unmapped second page: same contract.
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: N + 1,
            count: 1,
            include_self: false,
        },
    )
    .unwrap();
    assert!(!k.mem_write(child, addr, &[0x01, 0x02, 0x03, 0x04]));
    let mut b = [0u8; 2];
    k.mem_read_into(child, addr, &mut b).unwrap();
    assert_eq!(b, [0xaa, 0xbb], "RW page untouched before unmapped page");
    // A range running off the end of the address space fails cleanly.
    assert!(!k.mem_write(child, u64::MAX - 1, &[0; 4]));
}
