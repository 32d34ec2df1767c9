//! Property-based tests for the GPU simulator.

use mega_gpu_sim::cache::{Access, SectoredCache};
use mega_gpu_sim::coalesce::{coalesce_stream, warp_sectors, RunCoalescer};
use mega_gpu_sim::{DeviceConfig, DevicePtr, KernelKind, Profiler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The per-edge attention-score width the cost model uses.
const SCORE_WIDTH: usize = 8;

/// A run of lanes, as the profiler feeds them to the coalescer.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// `lanes` lanes at `base + k·stride`.
    Strided {
        base: u64,
        lanes: usize,
        stride: u64,
    },
    /// `cols` f32 columns of `a` and `b`, read interleaved.
    Paired { a: u64, b: u64, cols: usize },
}

impl Run {
    /// Appends the run's lane addresses, one by one.
    fn expand(self, out: &mut Vec<u64>) {
        match self {
            Run::Strided {
                base,
                lanes,
                stride,
            } => out.extend((0..lanes as u64).map(|k| base + k * stride)),
            Run::Paired { a, b, cols } => {
                for c in 0..cols as u64 {
                    out.extend([a + 4 * c, b + 4 * c]);
                }
            }
        }
    }

    fn feed(self, c: &mut RunCoalescer, sink: &mut impl FnMut(&[u64])) {
        match self {
            Run::Strided {
                base,
                lanes,
                stride,
            } => c.push_run(base, lanes, stride, sink),
            Run::Paired { a, b, cols } => c.push_pair_run(a, b, cols, sink),
        }
    }
}

/// A row width: often the score width, otherwise anything in 1..=130.
fn width(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.25) {
        SCORE_WIDTH
    } else {
        rng.gen_range(1..=130)
    }
}

/// Random runs over `[0, span)` bytes with unaligned bases: f32 rows,
/// strided sweeps (including broadcast and strides wider than a sector)
/// and interleaved buffer pairs, which may overlap or share alignment.
fn random_runs(rng: &mut StdRng, span: u64) -> Vec<Run> {
    let n = rng.gen_range(1..40);
    (0..n)
        .map(|_| match rng.gen_range(0..4) {
            0 | 1 => Run::Strided {
                base: rng.gen_range(0..span),
                lanes: width(rng),
                stride: 4,
            },
            2 => Run::Strided {
                base: rng.gen_range(0..span),
                lanes: rng.gen_range(1..100),
                stride: *[0u64, 4, 8, 31, 32, 33, 100].choose(rng).unwrap(),
            },
            _ => {
                let a = rng.gen_range(0..span);
                let b = match rng.gen_range(0..5) {
                    // Overlapping the first buffer.
                    0 => a + rng.gen_range(0..64),
                    // Same offset within a 32-byte sector, as buffers of
                    // equal alignment are.
                    1 | 2 => rng.gen_range(0..span) & !31 | a & 31,
                    _ => rng.gen_range(0..span),
                };
                Run::Paired {
                    a,
                    b,
                    cols: width(rng) * rng.gen_range(1..4),
                }
            }
        })
        .collect()
}

/// The per-element oracle: every lane address, in feed order.
fn expand(runs: &[Run]) -> Vec<u64> {
    let mut lanes = Vec::new();
    for r in runs {
        r.expand(&mut lanes);
    }
    lanes
}

/// The run coalescer's warps for `runs`.
fn run_warps(runs: &[Run], warp: usize, sector: u64) -> Vec<Vec<u64>> {
    let mut warps = Vec::new();
    let mut sink = |w: &[u64]| warps.push(w.to_vec());
    let mut c = RunCoalescer::new(warp, sector);
    for r in runs {
        r.feed(&mut c, &mut sink);
    }
    c.finish(&mut sink);
    warps
}

/// The L2 as first written: array-of-structs ways, a full tag scan on
/// every access, division for every address split. The oracle for
/// [`SectoredCache`].
struct ScanCache {
    line_bytes: u64,
    sector_bytes: u64,
    sets: u64,
    assoc: usize,
    /// `(tag, sector mask, last use, valid)` per way.
    ways: Vec<(u64, u32, u64, bool)>,
    clock: u64,
}

impl ScanCache {
    fn new(capacity: usize, line: usize, sector: usize, assoc: usize) -> Self {
        let sets = capacity / (line * assoc);
        ScanCache {
            line_bytes: line as u64,
            sector_bytes: sector as u64,
            sets: sets as u64,
            assoc,
            ways: vec![(0, 0, 0, false); sets * assoc],
            clock: 0,
        }
    }

    fn access_sector(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let bit = 1u32 << ((addr % self.line_bytes) / self.sector_bytes);
        let base = (line % self.sets) as usize * self.assoc;
        let set = &mut self.ways[base..base + self.assoc];
        for w in set.iter_mut() {
            if w.3 && w.0 == line {
                w.2 = self.clock;
                let hit = w.1 & bit != 0;
                w.1 |= bit;
                return if hit { Access::Hit } else { Access::SectorMiss };
            }
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.3 { w.2 } else { 0 })
            .unwrap();
        *victim = (line, bit, self.clock, true);
        Access::LineMiss
    }
}

/// Per-launch replay counters: `(transactions, hits, misses)`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts(u64, u64, u64);

impl Counts {
    fn add(&mut self, a: Access) {
        self.0 += 1;
        match a {
            Access::Hit => self.1 += 1,
            Access::SectorMiss | Access::LineMiss => self.2 += 1,
        }
    }
}

/// Replays lane addresses the way the profiler first did: coalesce each
/// warp with [`coalesce_stream`], then access its sectors one by one.
fn oracle_replay(lanes: &[u64], l2: &mut ScanCache, sector: u64) -> Counts {
    let mut n = Counts::default();
    for warp in coalesce_stream(lanes, 32, sector) {
        for s in warp {
            n.add(l2.access_sector(s * sector));
        }
    }
    n
}

/// One random launch on the simulated device, with the per-element
/// address stream the launch must replay and the streamed companion
/// transactions (output writes, extra passes) it charges on top.
fn random_launch(rng: &mut StdRng, p: &mut Profiler) -> (KernelKind, Vec<u64>, u64) {
    let feat = width(rng);
    let rows = rng.gen_range(1..200);
    let row = |base: DevicePtr, r: usize| base.0 + (r * feat * 4) as u64;
    let f32s = |base: DevicePtr, r: usize, out: &mut Vec<u64>| {
        out.extend((0..feat as u64).map(|c| row(base, r) + 4 * c));
    };
    let buf = p.alloc(rows * feat * 4);
    let index: Vec<usize> = (0..rng.gen_range(1..300))
        .map(|_| rng.gen_range(0..rows))
        .collect();
    let mut lanes = Vec::new();
    match rng.gen_range(0..8) {
        0 => {
            p.launch_gather(buf, &index, feat, index.len());
            for &r in &index {
                f32s(buf, r, &mut lanes);
            }
            (
                KernelKind::DglGather,
                lanes,
                (index.len() * feat / 8) as u64,
            )
        }
        1 => {
            p.launch_scatter(buf, &index, feat, rows);
            for &r in &index {
                f32s(buf, r, &mut lanes);
            }
            (
                KernelKind::DglScatter,
                lanes,
                (index.len() * feat / 8) as u64,
            )
        }
        2 => {
            p.launch_band_scatter(buf, &index, feat);
            for &r in &index {
                f32s(buf, r, &mut lanes);
            }
            (KernelKind::MegaBandScatter, lanes, 0)
        }
        3 | 4 => {
            let window = rng.gen_range(1..6);
            let wgrad = rng.gen_bool(0.5);
            let grad = p.alloc(rows * feat * 4);
            for i in 0..rows {
                for j in i.saturating_sub(window)..=(i + window).min(rows - 1) {
                    for c in 0..feat as u64 {
                        lanes.push(row(buf, j) + 4 * c);
                        if wgrad {
                            lanes.push(row(grad, j) + 4 * c);
                        }
                    }
                }
            }
            if wgrad {
                p.launch_band_wgrad(buf, grad, rows, window, feat);
                (
                    KernelKind::MegaBandWgrad,
                    lanes,
                    (rows * window / 8).max(1) as u64,
                )
            } else {
                p.launch_band_gather(buf, rows, window, feat);
                (KernelKind::MegaBandGather, lanes, 0)
            }
        }
        5 => {
            p.launch_sort(buf, index.len());
            let n = index.len() as u64;
            lanes.extend((0..n).map(|i| buf.0 + i.wrapping_mul(0x9e3779b97f4a7c15) % n * 4));
            (KernelKind::CubSort, lanes, n / 2)
        }
        6 => {
            let bytes = rows * feat * 4;
            if rng.gen_bool(0.5) {
                p.launch_memcpy(buf, bytes);
                lanes.extend((0..bytes as u64).step_by(8).map(|o| buf.0 + o));
                (KernelKind::Memcpy, lanes, 0)
            } else {
                p.launch_elementwise(buf, rows * feat, 1);
                lanes.extend((0..(rows * feat) as u64).step_by(8).map(|i| buf.0 + i * 4));
                (KernelKind::Elementwise, lanes, (rows * feat / 8) as u64)
            }
        }
        _ => {
            // At most one 64-wide tile per side: no tiling refetch on top
            // of the replayed stream.
            let (m, n, k) = (rng.gen_range(1..=64), rng.gen_range(1..=64), feat);
            let (a, b, c) = (p.alloc(m * k * 4), p.alloc(k * n * 4), p.alloc(m * n * 4));
            p.launch_sgemm(a, b, c, m, n, k);
            for (base, len) in [(a, m * k), (b, k * n), (c, m * n)] {
                lanes.extend((0..len as u64).step_by(8).map(|i| base.0 + i * 4));
            }
            (KernelKind::Sgemm, lanes, 0)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A warp never issues more transactions than lanes, and never fewer
    /// than the distinct sectors demand.
    #[test]
    fn coalescer_bounds(addrs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let sectors = warp_sectors(&addrs, 32);
        prop_assert!(sectors.len() <= addrs.len());
        let distinct: std::collections::HashSet<u64> = addrs.iter().map(|a| a / 32).collect();
        prop_assert_eq!(sectors.len(), distinct.len());
    }

    /// Stream chunking covers every element exactly once.
    #[test]
    fn stream_chunking_is_total(addrs in proptest::collection::vec(0u64..100_000, 0..300)) {
        let warps = coalesce_stream(&addrs, 32, 32);
        let expected = addrs.len().div_ceil(32);
        prop_assert_eq!(warps.len(), expected);
    }

    /// Cache counters are consistent: hits + misses == accesses, and a
    /// repeated access to the same address always hits immediately after.
    #[test]
    fn cache_counter_consistency(addrs in proptest::collection::vec(0u64..(1u64 << 22), 1..500)) {
        let mut c = SectoredCache::new(64 * 1024, 128, 32, 8);
        for &a in &addrs {
            let _ = c.access_sector(a);
            prop_assert_eq!(c.access_sector(a), Access::Hit);
        }
        prop_assert_eq!(c.hits() + c.misses(), c.accesses());
        prop_assert!(c.hit_rate() >= 0.5); // every address re-accessed once
    }

    /// A working set within capacity converges to all-hits on the second
    /// pass regardless of the address base.
    #[test]
    fn small_working_set_hits(base in 0u64..(1u64 << 30)) {
        let base = base & !31; // sector aligned
        let mut c = SectoredCache::new(128 * 1024, 128, 32, 8);
        for _ in 0..2 {
            for off in (0..32 * 1024u64).step_by(32) {
                c.access_sector(base + off);
            }
        }
        // Second pass: 1024 sectors, all hits.
        prop_assert!(c.hits() >= 1024);
    }

    /// Simulated time is monotone in workload size for the same kernel.
    #[test]
    fn gather_time_monotone(rows in 64usize..2048) {
        let mut small = Profiler::new(DeviceConfig::gtx_1080());
        let src = small.alloc(rows * 64 * 4);
        let idx: Vec<usize> = (0..rows).map(|i| (i * 31) % rows).collect();
        small.launch_gather(src, &idx, 64, rows);
        let t_small = small.total_cycles();

        let mut big = Profiler::new(DeviceConfig::gtx_1080());
        let src = big.alloc(2 * rows * 64 * 4);
        let idx: Vec<usize> = (0..2 * rows).map(|i| (i * 31) % (2 * rows)).collect();
        big.launch_gather(src, &idx, 64, 2 * rows);
        prop_assert!(big.total_cycles() >= t_small);
    }

    /// Report time shares always sum to 1 over a non-empty profile.
    #[test]
    fn report_shares_sum_to_one(n in 1usize..6) {
        let mut p = Profiler::new(DeviceConfig::gtx_1080());
        for i in 0..n {
            let buf = p.alloc(4096 * (i + 1));
            p.launch_memcpy(buf, 4096 * (i + 1));
        }
        let r = p.report();
        let total: f64 = r.kernels().iter().map(|k| k.time_share).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(r.kernel(KernelKind::Memcpy).is_some());
    }

    /// Every kernel's SM efficiency and stall fraction stay in [0, 1].
    #[test]
    fn metric_ranges(rows in 32usize..512, feat in 1usize..96) {
        let mut p = Profiler::new(DeviceConfig::gtx_1080());
        let buf = p.alloc(rows * feat * 4);
        let idx: Vec<usize> = (0..rows).map(|i| (i * 17) % rows).collect();
        p.launch_gather(buf, &idx, feat, rows);
        p.launch_scatter(buf, &idx, feat, rows);
        p.launch_sort(buf, rows);
        p.launch_band_gather(buf, rows, 2, feat);
        for k in p.report().kernels() {
            prop_assert!((0.0..=1.0).contains(&k.sm_efficiency), "{:?}", k.kind);
            prop_assert!((0.0..=1.0).contains(&k.stall_pct), "{:?}", k.kind);
            prop_assert!(k.l2_hits <= k.load_transactions);
        }
    }

    /// The run coalescer emits exactly the warps of the per-lane
    /// coalescer: same sectors, same first-touch order, same warp
    /// boundaries — for any warp size (odd ones split interleaved pairs)
    /// and sector size (including sectors narrower than an f32).
    #[test]
    fn run_coalescer_matches_lane_oracle(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let runs = random_runs(&mut rng, 1 << 16);
        let warp = *[32usize, 32, 1, 7, 31, 33].choose(&mut rng).unwrap();
        let sector = *[32u64, 32, 2, 8, 64, 128].choose(&mut rng).unwrap();
        prop_assert_eq!(
            run_warps(&runs, warp, sector),
            coalesce_stream(&expand(&runs), warp, sector)
        );
    }

    /// Run coalescer plus the hinted L2 against per-lane coalescing plus a
    /// scan-only cache: identical access sequences and counters, on caches
    /// small enough to evict, with power-of-two and other set counts.
    #[test]
    fn run_replay_matches_per_element_replay(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (capacity, assoc) = *[(4096usize, 4usize), (1536, 4), (6144, 16), (128, 1)]
            .choose(&mut rng)
            .unwrap();
        let mut fast = SectoredCache::new(capacity, 128, 32, assoc);
        let mut oracle = ScanCache::new(capacity, 128, 32, assoc);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            let runs = random_runs(&mut rng, 1 << 15);
            for warp in run_warps(&runs, 32, 32) {
                got.extend(warp.iter().map(|&s| fast.access_sector(s * 32)));
            }
            for warp in coalesce_stream(&expand(&runs), 32, 32) {
                want.extend(warp.iter().map(|&s| oracle.access_sector(s * 32)));
            }
        }
        prop_assert_eq!(&got, &want);
        let count = |a: Access| want.iter().filter(|&&w| w == a).count() as u64;
        prop_assert_eq!(fast.accesses(), want.len() as u64);
        prop_assert_eq!(fast.hits(), count(Access::Hit));
        prop_assert_eq!(fast.sector_misses(), count(Access::SectorMiss));
        prop_assert_eq!(fast.line_misses(), count(Access::LineMiss));
    }

    /// Every launch kind, in random sequence on one device with a small L2:
    /// each launch's transactions, hits and misses equal the per-element
    /// replay of the address stream the launch describes, plus its
    /// companion traffic (which counts as misses).
    #[test]
    fn launches_match_per_element_replay(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut device = DeviceConfig::gtx_1080();
        device.l2_bytes = *[16 * 1024usize, 20 * 1024].choose(&mut rng).unwrap();
        let mut p = Profiler::new(device.clone());
        let mut oracle = ScanCache::new(device.l2_bytes, 128, 32, device.l2_assoc);
        let mut want: std::collections::BTreeMap<KernelKind, Counts> = Default::default();
        for _ in 0..12 {
            let (kind, lanes, companion) = random_launch(&mut rng, &mut p);
            let n = oracle_replay(&lanes, &mut oracle, 32);
            let w = want.entry(kind).or_default();
            *w = Counts(w.0 + n.0 + companion, w.1 + n.1, w.2 + n.2 + companion);
            let r = p.report();
            let row = r.kernel(kind).unwrap();
            let got = Counts(row.load_transactions, row.l2_hits, row.l2_misses);
            prop_assert_eq!(got, *w, "{:?}", kind);
        }
    }
}
