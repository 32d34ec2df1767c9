//! Warp-level memory coalescing.
//!
//! A warp issues one memory instruction for its 32 lanes; the coalescer
//! merges the lanes' byte addresses into distinct 32-byte sectors, each of
//! which becomes one global-memory transaction. Sequential `f32` access packs
//! 32 lanes into 4 sectors; a stride ≥ 32 bytes degenerates to one
//! transaction per lane — the paper's un-coalesced access problem.
//!
//! [`warp_sectors`] states the rule one lane address at a time.
//! [`RunCoalescer`] applies the same rule to *runs* of evenly spaced lanes
//! (a row of `f32` columns, a strided sweep), computing each warp's sectors
//! arithmetically instead of per lane; its output is identical, sector for
//! sector and in the same order, to [`coalesce_stream`] over the expanded
//! lane addresses.

/// Collects the distinct sector ids touched by one warp's lane addresses.
///
/// Returns sector ids (byte address / `sector_bytes`), deduplicated, in
/// first-touch order.
///
/// # Panics
///
/// Panics if `sector_bytes == 0`.
///
/// # Example
///
/// ```
/// use mega_gpu_sim::coalesce::warp_sectors;
///
/// // 32 sequential f32 loads: 128 bytes = 4 sectors.
/// let addrs: Vec<u64> = (0..32).map(|l| l * 4).collect();
/// assert_eq!(warp_sectors(&addrs, 32).len(), 4);
///
/// // 32 loads strided by 128 bytes: fully scattered, 32 transactions.
/// let addrs: Vec<u64> = (0..32).map(|l| l * 128).collect();
/// assert_eq!(warp_sectors(&addrs, 32).len(), 32);
/// ```
pub fn warp_sectors(lane_addrs: &[u64], sector_bytes: u64) -> Vec<u64> {
    assert!(sector_bytes > 0, "sector size must be positive");
    let mut sectors = Vec::with_capacity(lane_addrs.len().min(32));
    for &a in lane_addrs {
        let s = a / sector_bytes;
        if !sectors.contains(&s) {
            sectors.push(s);
        }
    }
    sectors
}

/// Splits a flat element-address stream into warps of `warp_size` lanes and
/// returns the per-warp sector lists. The trailing partial warp (if any) is
/// coalesced like a full one.
pub fn coalesce_stream(
    element_addrs: &[u64],
    warp_size: usize,
    sector_bytes: u64,
) -> Vec<Vec<u64>> {
    element_addrs
        .chunks(warp_size.max(1))
        .map(|w| warp_sectors(w, sector_bytes))
        .collect()
}

/// Bytes per `f32` lane.
pub(crate) const F32_BYTES: u64 = 4;

/// A warp coalescer fed with runs of lanes rather than single addresses.
///
/// Lanes fill warps of `warp_size` in feed order, across run boundaries,
/// exactly like [`coalesce_stream`]. When a warp is full its distinct
/// sectors, in first-touch order, are handed to the caller's sink; call
/// [`RunCoalescer::finish`] to flush a trailing partial warp.
///
/// Within one warp a run whose lanes are at most one sector apart touches
/// every sector between its first and last lane, so the coalescer visits
/// sectors, not lanes. The warp's sector list doubles as the dedup set; a
/// sector above the warp's running maximum is new without a scan.
///
/// # Example
///
/// ```
/// use mega_gpu_sim::coalesce::{coalesce_stream, RunCoalescer};
///
/// // Two rows of 40 f32 columns, 160 bytes apart.
/// let mut warps = Vec::new();
/// let mut c = RunCoalescer::new(32, 32);
/// for row in 0..2u64 {
///     c.push_run(1000 + row * 160, 40, 4, &mut |w| warps.push(w.to_vec()));
/// }
/// c.finish(&mut |w| warps.push(w.to_vec()));
///
/// let lanes: Vec<u64> = (0..80u64).map(|l| 1000 + l * 4).collect();
/// assert_eq!(warps, coalesce_stream(&lanes, 32, 32));
/// ```
#[derive(Debug, Clone)]
pub struct RunCoalescer {
    warp_size: usize,
    sector_bytes: u64,
    /// Lanes already in the current warp.
    lanes: usize,
    /// The current warp's distinct sectors, in first-touch order.
    sectors: Vec<u64>,
    /// The largest sector in `sectors` (meaningless while it is empty).
    max: u64,
}

impl RunCoalescer {
    /// A coalescer for warps of `warp_size` lanes (at least one) and
    /// sectors of `sector_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `sector_bytes == 0`.
    pub fn new(warp_size: usize, sector_bytes: u64) -> Self {
        assert!(sector_bytes > 0, "sector size must be positive");
        let warp_size = warp_size.max(1);
        RunCoalescer {
            warp_size,
            sector_bytes,
            lanes: 0,
            sectors: Vec::with_capacity(warp_size),
            max: 0,
        }
    }

    /// Feeds `lanes` lanes at `base`, `base + stride`, `base + 2·stride`, ….
    pub fn push_run(
        &mut self,
        base: u64,
        lanes: usize,
        stride: u64,
        sink: &mut impl FnMut(&[u64]),
    ) {
        let mut done = 0usize;
        while done < lanes {
            let take = (lanes - done).min(self.warp_size - self.lanes);
            let first = base + done as u64 * stride;
            if stride <= self.sector_bytes {
                let last = first + (take as u64 - 1) * stride;
                self.touch_range(first / self.sector_bytes, last / self.sector_bytes);
            } else {
                for t in 0..take as u64 {
                    self.touch((first + t * stride) / self.sector_bytes);
                }
            }
            done += take;
            self.advance(take, sink);
        }
    }

    /// Feeds `cols` interleaved `f32` lane pairs: `a + 4c`, then `b + 4c`,
    /// for `c` in `0..cols` — two buffers read side by side, column by
    /// column.
    pub fn push_pair_run(&mut self, a: u64, b: u64, cols: usize, sink: &mut impl FnMut(&[u64])) {
        let lanes = 2 * cols;
        let mut done = 0usize;
        while done < lanes {
            let take = (lanes - done).min(self.warp_size - self.lanes);
            let end = done + take;
            // Lane `l` reads buffer `a` (even `l`) or `b` (odd `l`) at
            // column `l / 2`: this segment's columns of each buffer.
            let a_cols = (done.div_ceil(2) as u64, end.div_ceil(2) as u64);
            let b_cols = ((done / 2) as u64, (end / 2) as u64);
            if F32_BYTES <= self.sector_bytes {
                self.touch_pair(a, a_cols, b, b_cols);
            } else {
                for l in done..end {
                    let base = if l % 2 == 0 { a } else { b };
                    self.touch((base + (l / 2) as u64 * F32_BYTES) / self.sector_bytes);
                }
            }
            done = end;
            self.advance(take, sink);
        }
    }

    /// Flushes the trailing partial warp, if any.
    pub fn finish(&mut self, sink: &mut impl FnMut(&[u64])) {
        if self.lanes > 0 {
            self.emit_warp(sink);
        }
    }

    /// Visits, in first-touch order, the sectors of two interleaved f32
    /// column ranges `[c0, c1)` of `a` (lane `2c`) and `b` (lane `2c + 1`).
    fn touch_pair(&mut self, a: u64, a_cols: (u64, u64), b: u64, b_cols: (u64, u64)) {
        let s = self.sector_bytes;
        if a_cols == b_cols && a % s == b % s {
            // Same columns, same alignment: both buffers cross sector
            // boundaries at the same columns, so their sectors alternate.
            let (c0, c1) = a_cols;
            let (sa, sb) = ((a + c0 * F32_BYTES) / s, (b + c0 * F32_BYTES) / s);
            let n = (a + (c1 - 1) * F32_BYTES) / s - sa + 1;
            let fresh = (self.sectors.is_empty() || sa.min(sb) > self.max)
                && (sa + n <= sb || sb + n <= sa);
            if fresh {
                for k in 0..n {
                    self.sectors.extend([sa + k, sb + k]);
                }
                self.max = (sa + n - 1).max(sb + n - 1);
            } else {
                for k in 0..n {
                    self.touch(sa + k);
                    self.touch(sb + k);
                }
            }
            return;
        }
        // Per buffer: (next sector, last sector, lane of its first touch).
        let span = |base: u64, (c0, c1): (u64, u64), odd: u64| {
            if c0 >= c1 {
                return (1, 0, u64::MAX);
            }
            let first = base + c0 * F32_BYTES;
            let last = base + (c1 - 1) * F32_BYTES;
            (first / s, last / s, 2 * c0 + odd)
        };
        // The first column of `base`'s run inside sector `sector`.
        let first_col = |base: u64, sector: u64| (sector * s - base).div_ceil(F32_BYTES);
        let (mut sa, a_hi, mut la) = span(a, a_cols, 0);
        let (mut sb, b_hi, mut lb) = span(b, b_cols, 1);
        while sa <= a_hi || sb <= b_hi {
            if sa <= a_hi && (sb > b_hi || la < lb) {
                self.touch(sa);
                sa += 1;
                if sa <= a_hi {
                    la = 2 * first_col(a, sa);
                }
            } else {
                self.touch(sb);
                sb += 1;
                if sb <= b_hi {
                    lb = 2 * first_col(b, sb) + 1;
                }
            }
        }
    }

    /// Adds sectors `lo..=hi`, in ascending order, to the current warp.
    fn touch_range(&mut self, lo: u64, hi: u64) {
        let mut s = lo;
        if !self.sectors.is_empty() {
            while s <= hi && s <= self.max {
                if !self.sectors.contains(&s) {
                    self.sectors.push(s);
                }
                s += 1;
            }
        }
        if s <= hi {
            self.sectors.extend(s..=hi);
            self.max = hi;
        }
    }

    /// Adds one sector to the current warp unless it is already there.
    fn touch(&mut self, s: u64) {
        if self.sectors.is_empty() || s > self.max {
            self.sectors.push(s);
            self.max = s;
        } else if !self.sectors.contains(&s) {
            self.sectors.push(s);
        }
    }

    fn advance(&mut self, lanes: usize, sink: &mut impl FnMut(&[u64])) {
        self.lanes += lanes;
        if self.lanes == self.warp_size {
            self.emit_warp(sink);
        }
    }

    fn emit_warp(&mut self, sink: &mut impl FnMut(&[u64])) {
        sink(&self.sectors);
        self.sectors.clear();
        self.lanes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_f32_packs_into_four_sectors() {
        let addrs: Vec<u64> = (0..32u64).map(|l| 1000 + l * 4).collect();
        // Unaligned base may straddle one extra sector.
        let n = warp_sectors(&addrs, 32).len();
        assert!(n == 4 || n == 5, "got {n}");
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let addrs = vec![64u64; 32];
        assert_eq!(warp_sectors(&addrs, 32).len(), 1);
    }

    #[test]
    fn scattered_is_one_per_lane() {
        let addrs: Vec<u64> = (0..32u64).map(|l| l * 4096).collect();
        assert_eq!(warp_sectors(&addrs, 32).len(), 32);
    }

    #[test]
    fn stream_chunks_into_warps() {
        let addrs: Vec<u64> = (0..64u64).map(|l| l * 4).collect();
        let warps = coalesce_stream(&addrs, 32, 32);
        assert_eq!(warps.len(), 2);
        assert_eq!(warps[0].len(), 4);
        assert_eq!(warps[1].len(), 4);
    }

    #[test]
    fn partial_warp_handled() {
        let addrs: Vec<u64> = (0..40u64).map(|l| l * 4).collect();
        let warps = coalesce_stream(&addrs, 32, 32);
        assert_eq!(warps.len(), 2);
        assert_eq!(warps[1].len(), 1); // 8 elements × 4B = 32B = 1 sector
    }
}
