//! The simulated device: allocator, kernel launches, timing, profiling.
//!
//! Every launch replays its memory-access stream — built from the *actual*
//! indices the workload would use — through the warp coalescer and the shared
//! L2 cache, then charges cycles with a roofline-style model:
//!
//! * compute cycles = flops / device flop throughput + instructions / core
//!   throughput;
//! * memory cycles = max(L2 bandwidth, DRAM bandwidth, DRAM latency /
//!   achievable memory-level parallelism) over the launch's transactions;
//! * the launch occupies `overhead + max(compute, memory)` cycles; exposed
//!   memory time is recorded as stall cycles.
//!
//! Scattered (index-driven) streams get the device's limited `scattered_mlp`
//! latency overlap; streaming kernels hide latency behind prefetch-friendly
//! access. This is precisely the mechanism the paper attributes the DGL
//! slowdown to, so MEGA's advantage *emerges* from the simulation rather than
//! being hard-coded.

use crate::cache::{Access, SectoredCache};
use crate::coalesce::{RunCoalescer, F32_BYTES};
use crate::device::DeviceConfig;
use crate::kernel::{KernelKind, KernelStats};
use crate::report::ProfileReport;
use std::collections::BTreeMap;

/// Base address of a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

/// How well a launch's access stream overlaps memory latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    /// Sequential/prefetchable: latency fully hidden, bandwidth-bound.
    Streaming,
    /// Index-driven: limited in-flight requests (`DeviceConfig::scattered_mlp`).
    Scattered,
}

/// The simulated GPU with its profiler.
#[derive(Debug)]
pub struct Profiler {
    device: DeviceConfig,
    l2: SectoredCache,
    stats: BTreeMap<KernelKind, KernelStats>,
    next_addr: u64,
    total_cycles: u64,
}

#[derive(Default)]
struct LaunchOutcome {
    transactions: u64,
    hits: u64,
    misses: u64,
}

/// One launch's access stream on its way through the warp coalescer into
/// the shared L2. Launches describe their streams as runs of lanes; the
/// outcome is the same as replaying every lane address one by one.
struct Replay<'a> {
    coalescer: RunCoalescer,
    l2: &'a mut SectoredCache,
    sector_bytes: u64,
    out: LaunchOutcome,
}

impl Replay<'_> {
    /// `lanes` lanes at `base`, `base + stride`, ….
    fn strided(&mut self, base: u64, lanes: usize, stride: u64) {
        let sink = &mut |warp: &[u64]| transact(self.l2, self.sector_bytes, &mut self.out, warp);
        self.coalescer.push_run(base, lanes, stride, sink);
    }

    /// `cols` f32 columns of `a` and `b`, read interleaved.
    fn interleaved(&mut self, a: u64, b: u64, cols: usize) {
        let sink = &mut |warp: &[u64]| transact(self.l2, self.sector_bytes, &mut self.out, warp);
        self.coalescer.push_pair_run(a, b, cols, sink);
    }

    fn finish(mut self) -> LaunchOutcome {
        let sink = &mut |warp: &[u64]| transact(self.l2, self.sector_bytes, &mut self.out, warp);
        self.coalescer.finish(sink);
        self.out
    }
}

/// Sends one warp's sector transactions to the L2.
fn transact(l2: &mut SectoredCache, sector_bytes: u64, out: &mut LaunchOutcome, sectors: &[u64]) {
    for &s in sectors {
        out.transactions += 1;
        match l2.access_sector(s * sector_bytes) {
            Access::Hit => out.hits += 1,
            Access::SectorMiss | Access::LineMiss => out.misses += 1,
        }
    }
}

impl Profiler {
    /// A fresh device.
    pub fn new(device: DeviceConfig) -> Self {
        let l2 = SectoredCache::new(
            device.l2_bytes,
            device.l2_line_bytes,
            device.sector_bytes,
            device.l2_assoc,
        );
        Profiler {
            device,
            l2,
            stats: BTreeMap::new(),
            next_addr: 0x1000,
            total_cycles: 0,
        }
    }

    /// The device configuration.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Allocates `bytes` of device memory (256-byte aligned bump allocator).
    pub fn alloc(&mut self, bytes: usize) -> DevicePtr {
        let base = self.next_addr;
        let aligned = (bytes as u64).div_ceil(256) * 256;
        self.next_addr += aligned.max(256);
        DevicePtr(base)
    }

    /// Total simulated cycles so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total simulated seconds so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.device.cycles_to_seconds(self.total_cycles)
    }

    /// Snapshot of all per-kernel statistics.
    pub fn report(&self) -> ProfileReport {
        ProfileReport::new(self.device.clone(), self.stats.clone(), self.total_cycles)
    }

    /// Clears statistics and cache contents (keeps allocations).
    pub fn reset_stats(&mut self) {
        self.stats.clear();
        self.l2.reset();
        self.total_cycles = 0;
    }

    fn replay(&mut self) -> Replay<'_> {
        Replay {
            coalescer: RunCoalescer::new(self.device.warp_size, self.device.sector_bytes as u64),
            l2: &mut self.l2,
            sector_bytes: self.device.sector_bytes as u64,
            out: LaunchOutcome::default(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        kind: KernelKind,
        flops: u64,
        instructions: u64,
        outcome: LaunchOutcome,
        stream: StreamKind,
        balance: f64,
        streamed_misses: u64,
    ) {
        let d = &self.device;
        // `streamed_misses` model sequential companion traffic (output
        // writes, pass reads): they consume DRAM bandwidth but are
        // prefetch-friendly, so they never pay the scattered-latency term.
        let misses = outcome.misses + streamed_misses;
        let transactions = outcome.transactions + streamed_misses;
        let compute = (flops as f64 / d.flops_per_cycle())
            + (instructions as f64 / (d.sm_count * d.cores_per_sm) as f64);
        let l2_cycles = transactions as f64 * d.sector_bytes as f64 / d.l2_bytes_per_cycle;
        let bw_cycles = misses as f64 * d.sector_bytes as f64 / d.dram_bytes_per_cycle();
        // Scattered (index-driven) access is a dependent two-level load:
        // every transaction pays its service latency (L2 or DRAM), amortized
        // only over the achievable memory-level parallelism. Streaming access
        // hides latency entirely behind prefetch.
        let lat_cycles = match stream {
            StreamKind::Streaming => 0.0,
            StreamKind::Scattered => {
                (outcome.hits as f64 * d.l2_latency_cycles as f64
                    + outcome.misses as f64 * d.dram_latency_cycles as f64)
                    / d.scattered_mlp as f64
            }
        };
        let mem = l2_cycles.max(bw_cycles).max(lat_cycles);
        let body = compute.max(mem);
        let total = d.launch_overhead_cycles as f64 + body;
        let stall = (body - compute).max(0.0);

        let s = self.stats.entry(kind).or_default();
        s.invocations += 1;
        s.load_transactions += transactions;
        s.l2_hits += outcome.hits;
        s.l2_misses += misses;
        s.flops += flops;
        s.instructions += instructions;
        s.cycles += total as u64;
        s.stall_cycles += stall as u64;
        s.balance_sum += balance.clamp(0.0, 1.0);
        self.total_cycles += total as u64;
    }

    /// Dense matrix multiply `C(m×n) = A(m×k) · B(k×n)` with f32 elements.
    ///
    /// Shared-memory tiling is modeled analytically (each input element is
    /// refetched once per tile pass, served from L2/shared); the cache is
    /// touched once per input/output element to model pollution.
    pub fn launch_sgemm(
        &mut self,
        a: DevicePtr,
        b: DevicePtr,
        c: DevicePtr,
        m: usize,
        n: usize,
        k: usize,
    ) {
        self.launch_sgemm_fused(a, b, c, m, n, k, 0);
    }

    /// Dense linear layer with the fused bias + ReLU epilogue:
    /// `C = relu(A·B + bias)` as **one** launch. The epilogue runs in
    /// registers between the accumulator and the output store, so relative
    /// to [`Profiler::launch_sgemm`] it adds two flops per output element
    /// (add, max) and *zero* extra memory sweeps — which is precisely why
    /// real frameworks fuse it, and why modeling it as a separate
    /// elementwise launch over-charged a full read+write pass over `C`.
    pub fn launch_linear_relu(
        &mut self,
        a: DevicePtr,
        b: DevicePtr,
        c: DevicePtr,
        m: usize,
        n: usize,
        k: usize,
    ) {
        self.launch_sgemm_fused(a, b, c, m, n, k, 2 * (m * n) as u64);
    }

    #[allow(clippy::too_many_arguments)]
    fn launch_sgemm_fused(
        &mut self,
        a: DevicePtr,
        b: DevicePtr,
        c: DevicePtr,
        m: usize,
        n: usize,
        k: usize,
        epilogue_flops: u64,
    ) {
        const TILE: usize = 64;
        let flops = 2 * m as u64 * n as u64 * k as u64 + epilogue_flops;
        // Compulsory traffic: touch every input/output element once (one
        // lane per 8 elements).
        let mut r = self.replay();
        r.strided(a.0, (m * k).div_ceil(8), 8 * F32_BYTES);
        r.strided(b.0, (k * n).div_ceil(8), 8 * F32_BYTES);
        r.strided(c.0, (m * n).div_ceil(8), 8 * F32_BYTES);
        let outcome = r.finish();
        // Tiling refetch traffic (hits in L2/shared): A refetched n/TILE
        // times, B refetched m/TILE times.
        let refetch = (m * k * (n.div_ceil(TILE)).saturating_sub(1)
            + k * n * (m.div_ceil(TILE)).saturating_sub(1)) as u64
            / 8;
        let outcome = LaunchOutcome {
            transactions: outcome.transactions + refetch,
            hits: outcome.hits + refetch,
            misses: outcome.misses,
        };
        // Tile-quantization balance: last partial tiles idle some lanes.
        let eff_m = m as f64 / (m.div_ceil(TILE) * TILE) as f64;
        let eff_n = n as f64 / (n.div_ceil(TILE) * TILE) as f64;
        let balance = (0.85 + 0.15 * eff_m * eff_n).min(1.0);
        self.charge(
            KernelKind::Sgemm,
            flops,
            (m * n) as u64,
            outcome,
            StreamKind::Streaming,
            balance,
            0,
        );
    }

    /// Index-driven row gather: `dst[i] = src[index[i]]` with `feat_dim` f32
    /// columns per row. Reads follow the index (scattered); writes stream.
    pub fn launch_gather(
        &mut self,
        src: DevicePtr,
        index: &[usize],
        feat_dim: usize,
        dst_rows: usize,
    ) {
        let row_bytes = feat_dim as u64 * F32_BYTES;
        let mut r = self.replay();
        for &row in index {
            r.strided(src.0 + row as u64 * row_bytes, feat_dim, F32_BYTES);
        }
        let outcome = r.finish();
        let instructions = (index.len() * feat_dim) as u64 * 2;
        self.charge(
            KernelKind::DglGather,
            0,
            instructions,
            outcome,
            StreamKind::Scattered,
            1.0,
            (dst_rows * feat_dim / 8) as u64,
        );
    }

    /// Index-driven scatter-add: `dst[index[i]] += src[i]` with atomics.
    /// Writes follow the index; the balance factor reflects serialization on
    /// popular destinations (the paper's workload-imbalance bottleneck).
    pub fn launch_scatter(
        &mut self,
        dst: DevicePtr,
        index: &[usize],
        feat_dim: usize,
        dst_rows: usize,
    ) {
        let row_bytes = feat_dim as u64 * F32_BYTES;
        let mut counts = vec![0u32; dst_rows.max(1)];
        for &r in index {
            if r < counts.len() {
                counts[r] += 1;
            }
        }
        let mut r = self.replay();
        for &row in index {
            r.strided(dst.0 + row as u64 * row_bytes, feat_dim, F32_BYTES);
        }
        let outcome = r.finish();
        let max = counts.iter().copied().max().unwrap_or(1).max(1) as f64;
        let mean = index.len() as f64 / counts.iter().filter(|&&c| c > 0).count().max(1) as f64;
        let balance = (mean / max).clamp(0.05, 1.0);
        // Atomic RMW: one read + one write instruction per element.
        let instructions = (index.len() * feat_dim) as u64 * 3;
        self.charge(
            KernelKind::DglScatter,
            0,
            instructions,
            outcome,
            StreamKind::Scattered,
            balance,
            (index.len() * feat_dim / 8) as u64,
        );
    }

    /// `cub` radix sort of `n_keys` 32-bit keys (4 digit passes). Reads
    /// stream; bucket writes scatter.
    pub fn launch_sort(&mut self, keys: DevicePtr, n_keys: usize) {
        // One traced scattered pass stands in for the write side of all four
        // digit passes (a hash stands in for data-dependent bucket targets).
        let modulus = n_keys.max(1) as u64;
        let mut r = self.replay();
        for i in 0..n_keys as u64 {
            let h = i.wrapping_mul(0x9e3779b97f4a7c15) % modulus;
            r.strided(keys.0 + h * F32_BYTES, 1, F32_BYTES);
        }
        let outcome = r.finish();
        let instructions = n_keys as u64 * 4 * 6;
        self.charge(
            KernelKind::CubSort,
            0,
            instructions,
            outcome,
            StreamKind::Scattered,
            0.9,
            (n_keys * 4 / 8) as u64,
        );
    }

    /// Contiguous copy of `bytes`.
    pub fn launch_memcpy(&mut self, ptr: DevicePtr, bytes: usize) {
        // One lane per 8 bytes.
        let mut r = self.replay();
        r.strided(ptr.0, bytes.div_ceil(8), 8);
        let outcome = r.finish();
        self.charge(
            KernelKind::Memcpy,
            0,
            (bytes / 4) as u64,
            outcome,
            StreamKind::Streaming,
            1.0,
            0,
        );
    }

    /// MEGA banded gather: position `i` reads rows `i−ω ..= i+ω` of the
    /// path-ordered embedding buffer — sequential, window-overlapping reads.
    pub fn launch_band_gather(
        &mut self,
        path_buf: DevicePtr,
        path_len: usize,
        window: usize,
        feat_dim: usize,
    ) {
        let row_bytes = feat_dim as u64 * F32_BYTES;
        // Rows `lo..=hi` are contiguous: one run per window.
        let mut r = self.replay();
        for i in 0..path_len {
            let lo = i.saturating_sub(window);
            let hi = (i + window).min(path_len - 1);
            r.strided(
                path_buf.0 + lo as u64 * row_bytes,
                (hi - lo + 1) * feat_dim,
                F32_BYTES,
            );
        }
        let outcome = r.finish();
        let elements = (path_len * (2 * window + 1) * feat_dim) as u64;
        let instructions = elements * 2;
        self.charge(
            KernelKind::MegaBandGather,
            0,
            instructions,
            outcome,
            StreamKind::Streaming,
            1.0,
            0,
        );
    }

    /// MEGA banded weight gradient: for every band slot `(lo, hi)` the
    /// kernel reads row `hi` of the activations and row `lo` of the
    /// upstream gradient (and vice versa), then writes one scalar per edge.
    /// Both read streams walk the band sequentially — the same
    /// prefetch-friendly layout as [`Profiler::launch_band_gather`] — but
    /// the traffic is doubled (two buffers) and the kernel retires one
    /// multiply-add per element read.
    pub fn launch_band_wgrad(
        &mut self,
        x_buf: DevicePtr,
        grad_buf: DevicePtr,
        path_len: usize,
        window: usize,
        feat_dim: usize,
    ) {
        let row_bytes = feat_dim as u64 * F32_BYTES;
        let mut r = self.replay();
        for i in 0..path_len {
            let lo = i.saturating_sub(window);
            let hi = (i + window).min(path_len - 1);
            let offset = lo as u64 * row_bytes;
            r.interleaved(
                x_buf.0 + offset,
                grad_buf.0 + offset,
                (hi - lo + 1) * feat_dim,
            );
        }
        let outcome = r.finish();
        let elements = (path_len * (2 * window + 1) * feat_dim) as u64 * 2;
        // One mul + one add per element pair, plus address math.
        let flops = elements;
        let instructions = elements * 2;
        // Per-edge scalar outputs stream out sequentially.
        let edge_writes = (path_len * window / 8).max(1) as u64;
        self.charge(
            KernelKind::MegaBandWgrad,
            flops,
            instructions,
            outcome,
            StreamKind::Streaming,
            1.0,
            edge_writes,
        );
    }

    /// MEGA scatter of path positions back to node rows. `position_to_node`
    /// maps each path position to its node row; first appearances follow
    /// path order, so writes are near-sequential.
    pub fn launch_band_scatter(
        &mut self,
        node_buf: DevicePtr,
        position_to_node: &[usize],
        feat_dim: usize,
    ) {
        let row_bytes = feat_dim as u64 * F32_BYTES;
        let mut r = self.replay();
        for &v in position_to_node {
            r.strided(node_buf.0 + v as u64 * row_bytes, feat_dim, F32_BYTES);
        }
        let outcome = r.finish();
        let elements = (position_to_node.len() * feat_dim) as u64;
        let instructions = elements * 3;
        self.charge(
            KernelKind::MegaBandScatter,
            0,
            instructions,
            outcome,
            StreamKind::Streaming,
            1.0,
            0,
        );
    }

    /// Elementwise neural op over `elements` f32 values (`flops_per_element`
    /// each), streaming read + write.
    pub fn launch_elementwise(&mut self, ptr: DevicePtr, elements: usize, flops_per_element: u64) {
        let mut r = self.replay();
        r.strided(ptr.0, elements.div_ceil(8), 8 * F32_BYTES);
        let outcome = r.finish();
        self.charge(
            KernelKind::Elementwise,
            elements as u64 * flops_per_element,
            elements as u64,
            outcome,
            StreamKind::Streaming,
            1.0,
            (elements / 8) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiler() -> Profiler {
        Profiler::new(DeviceConfig::gtx_1080())
    }

    #[test]
    fn alloc_is_disjoint_and_aligned() {
        let mut p = profiler();
        let a = p.alloc(100);
        let b = p.alloc(100);
        assert!(b.0 >= a.0 + 256);
        assert_eq!(a.0 % 256, 0);
    }

    #[test]
    fn sgemm_is_compute_dominated() {
        let mut p = profiler();
        let a = p.alloc(512 * 512 * 4);
        let b = p.alloc(512 * 512 * 4);
        let c = p.alloc(512 * 512 * 4);
        p.launch_sgemm(a, b, c, 512, 512, 512);
        let r = p.report();
        let row = r.kernel(KernelKind::Sgemm).unwrap();
        assert!(row.sm_efficiency > 0.7, "sgemm eff {}", row.sm_efficiency);
        assert!(row.stall_pct < 0.3, "sgemm stall {}", row.stall_pct);
    }

    #[test]
    fn fused_linear_relu_adds_epilogue_flops_but_no_traffic() {
        // Compute-dominated shape (see `sgemm_is_compute_dominated`), so the
        // epilogue's extra flops are visible in cycles; at memory-bound
        // shapes they vanish into the roofline max, which is the point of
        // fusing.
        let (m, n, k) = (512usize, 512usize, 512usize);
        let launch = |fused: bool| {
            let mut p = profiler();
            let a = p.alloc(m * k * 4);
            let b = p.alloc(k * n * 4);
            let c = p.alloc(m * n * 4);
            if fused {
                p.launch_linear_relu(a, b, c, m, n, k);
            } else {
                p.launch_sgemm(a, b, c, m, n, k);
            }
            let r = p.report();
            assert!(
                r.kernel(KernelKind::Elementwise).is_none(),
                "the fused epilogue must not surface as an elementwise launch"
            );
            r.kernel(KernelKind::Sgemm).unwrap().clone()
        };
        let bare = launch(false);
        let fused = launch(true);
        // The in-register epilogue (one add + one max per output element)
        // costs compute cycles on top of the bare GEMM ...
        assert!(
            fused.cycles > bare.cycles,
            "fused {} vs bare {} cycles",
            fused.cycles,
            bare.cycles
        );
        // ... but never memory: identical traffic through the whole
        // coalescer/cache pipeline.
        assert_eq!(fused.load_transactions, bare.load_transactions);
        assert_eq!(fused.l2_hits, bare.l2_hits);
        assert_eq!(fused.l2_misses, bare.l2_misses);
    }

    #[test]
    fn scattered_gather_stalls_more_than_sequential_copy() {
        let mut p = profiler();
        let n_rows = 40_000usize;
        let feat = 16usize;
        let src = p.alloc(n_rows * feat * 4);
        // Random-ish permutation with a large stride.
        let idx: Vec<usize> = (0..n_rows).map(|i| (i * 7919) % n_rows).collect();
        p.launch_gather(src, &idx, feat, n_rows);
        let dst = p.alloc(n_rows * feat * 4);
        p.launch_memcpy(dst, n_rows * feat * 4);
        let r = p.report();
        let g = r.kernel(KernelKind::DglGather).unwrap();
        let m = r.kernel(KernelKind::Memcpy).unwrap();
        assert!(
            g.stall_pct > m.stall_pct,
            "gather {} vs memcpy {}",
            g.stall_pct,
            m.stall_pct
        );
        assert!(g.sm_efficiency < 0.5, "gather eff {}", g.sm_efficiency);
    }

    #[test]
    fn band_gather_beats_dgl_gather_per_byte() {
        let mut p = profiler();
        let rows = 20_000usize;
        let feat = 64usize;
        let buf = p.alloc(2 * rows * feat * 4);
        // DGL: gather 2 rows per edge with scattered indices.
        let idx: Vec<usize> = (0..rows).map(|i| (i * 6151) % rows).collect();
        p.launch_gather(buf, &idx, feat, rows);
        let dgl_cycles = p.report().kernel(KernelKind::DglGather).unwrap().cycles;
        p.reset_stats();
        // MEGA: banded read of the same volume (window 1 reads ~3x per row
        // but from cache).
        p.launch_band_gather(buf, rows, 1, feat);
        let mega_cycles = p
            .report()
            .kernel(KernelKind::MegaBandGather)
            .unwrap()
            .cycles;
        assert!(
            mega_cycles * 2 < dgl_cycles,
            "mega {mega_cycles} vs dgl {dgl_cycles}"
        );
    }

    #[test]
    fn scatter_balance_reflects_skew() {
        let mut p = profiler();
        let dst = p.alloc(1000 * 16 * 4);
        // Balanced: each destination hit once.
        let idx: Vec<usize> = (0..1000).collect();
        p.launch_scatter(dst, &idx, 16, 1000);
        let balanced = p.report().kernel(KernelKind::DglScatter).unwrap().balance;
        p.reset_stats();
        // Skewed: hub destination takes half the writes.
        let idx: Vec<usize> = (0..1000).map(|i| if i % 2 == 0 { 0 } else { i }).collect();
        p.launch_scatter(dst, &idx, 16, 1000);
        let skewed = p.report().kernel(KernelKind::DglScatter).unwrap().balance;
        assert!(skewed < balanced, "skewed {skewed} vs balanced {balanced}");
    }

    #[test]
    fn band_wgrad_records_its_own_kernel_kind() {
        let mut p = profiler();
        let rows = 4_000usize;
        let feat = 32usize;
        let x = p.alloc(rows * feat * 4);
        let g = p.alloc(rows * feat * 4);
        p.launch_band_wgrad(x, g, rows, 2, feat);
        let r = p.report();
        let w = r
            .kernel(KernelKind::MegaBandWgrad)
            .expect("wgrad kernel recorded");
        assert_eq!(w.invocations, 1);
        assert!(w.cycles > 0, "wgrad charges cycles");
        assert!(
            r.kernel(KernelKind::MegaBandGather).is_none(),
            "no longer aliased to band gather"
        );
        // Reads two buffers along the band: more traffic than one gather
        // of the same shape.
        let mut q = profiler();
        let buf = q.alloc(rows * feat * 4);
        q.launch_band_gather(buf, rows, 2, feat);
        let gather = q
            .report()
            .kernel(KernelKind::MegaBandGather)
            .unwrap()
            .load_transactions;
        assert!(
            w.load_transactions > gather,
            "wgrad {} vs gather {gather}",
            w.load_transactions
        );
    }

    #[test]
    fn cycles_accumulate_monotonically() {
        let mut p = profiler();
        let buf = p.alloc(4096);
        assert_eq!(p.total_cycles(), 0);
        p.launch_memcpy(buf, 4096);
        let t1 = p.total_cycles();
        assert!(t1 > 0);
        p.launch_memcpy(buf, 4096);
        assert!(p.total_cycles() > t1);
        assert!(p.elapsed_seconds() > 0.0);
    }

    #[test]
    fn l2_reuse_between_launches() {
        let mut p = profiler();
        let buf = p.alloc(64 * 1024); // fits in L2
        p.launch_memcpy(buf, 64 * 1024);
        let misses_first = p.report().kernel(KernelKind::Memcpy).unwrap().l2_misses;
        p.launch_memcpy(buf, 64 * 1024);
        let misses_both = p.report().kernel(KernelKind::Memcpy).unwrap().l2_misses;
        // Second pass hits in L2: total misses barely grow.
        assert!(misses_both < misses_first * 2);
    }
}
