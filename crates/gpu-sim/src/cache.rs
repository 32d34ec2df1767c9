//! Sectored, set-associative, LRU cache model (the device L2).
//!
//! Tags are tracked per cache line; fills happen per 32-byte *sector*, the
//! granularity of GDDR transactions on Pascal-class hardware. An access to a
//! resident line whose sector is absent counts as a (cheaper) sector fill
//! into an existing line; an access to a non-resident line allocates it
//! (evicting LRU) and fills the touched sector.

/// Outcome of a single sector access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Sector present in the cache.
    Hit,
    /// Line resident, sector missing: DRAM fetches one sector.
    SectorMiss,
    /// Line not resident: allocate (possible eviction) and fetch the sector.
    LineMiss,
}

/// `x / d` and `x % d` for a divisor fixed at construction: shifts and
/// masks when `d` is a power of two, division otherwise (the 5 MiB device
/// has 2560 sets).
#[derive(Debug, Clone, Copy)]
struct Divisor {
    value: u64,
    shift: Option<u32>,
}

impl Divisor {
    fn new(value: u64) -> Self {
        Divisor {
            value,
            shift: value.is_power_of_two().then(|| value.trailing_zeros()),
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(k) => x >> k,
            None => x / self.value,
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.value - 1),
            None => x % self.value,
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    sectors: u32,
    last_use: u64,
    valid: bool,
}

/// A sectored set-associative LRU cache.
///
/// Each set remembers its most recently used way and checks it before
/// scanning all of its ways; a line is resident in at most one way, so the
/// hint finds exactly the way the scan would.
///
/// # Example
///
/// ```
/// use mega_gpu_sim::cache::{Access, SectoredCache};
///
/// let mut c = SectoredCache::new(1024, 128, 32, 4);
/// assert_eq!(c.access_sector(0), Access::LineMiss);
/// assert_eq!(c.access_sector(0), Access::Hit);
/// assert_eq!(c.access_sector(32), Access::SectorMiss); // same line, next sector
/// ```
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line: Divisor,
    sector: Divisor,
    sets: Divisor,
    assoc: usize,
    lines: Vec<Line>,
    /// Most recently used way of each set.
    mru: Vec<u32>,
    clock: u64,
    hits: u64,
    sector_misses: u64,
    line_misses: u64,
}

impl SectoredCache {
    /// Creates a cache of `capacity_bytes` with the given line/sector split
    /// and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (sizes not divisible, zero
    /// sets) .
    pub fn new(
        capacity_bytes: usize,
        line_bytes: usize,
        sector_bytes: usize,
        assoc: usize,
    ) -> Self {
        assert!(
            line_bytes.is_multiple_of(sector_bytes),
            "line must hold whole sectors"
        );
        assert!(
            capacity_bytes.is_multiple_of(line_bytes * assoc),
            "capacity must form whole sets"
        );
        let sets = capacity_bytes / (line_bytes * assoc);
        assert!(sets > 0, "cache needs at least one set");
        SectoredCache {
            line: Divisor::new(line_bytes as u64),
            sector: Divisor::new(sector_bytes as u64),
            sets: Divisor::new(sets as u64),
            assoc,
            lines: vec![
                Line {
                    tag: 0,
                    sectors: 0,
                    last_use: 0,
                    valid: false
                };
                sets * assoc
            ],
            mru: vec![0; sets],
            clock: 0,
            hits: 0,
            sector_misses: 0,
            line_misses: 0,
        }
    }

    /// Accesses the sector containing byte address `addr`.
    #[inline]
    pub fn access_sector(&mut self, addr: u64) -> Access {
        self.clock += 1;
        let line_addr = self.line.div(addr);
        let sector_bit = 1u32 << self.sector.div(self.line.rem(addr));
        let set = self.sets.rem(line_addr) as usize;
        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];
        let hint = self.mru[set] as usize;
        let resident = |w: &Line| w.valid && w.tag == line_addr;
        let hit = if resident(&ways[hint]) {
            Some(hint)
        } else {
            ways.iter().position(resident)
        };
        if let Some(w) = hit {
            self.mru[set] = w as u32;
            let way = &mut ways[w];
            way.last_use = self.clock;
            let present = way.sectors & sector_bit != 0;
            way.sectors |= sector_bit;
            return if present {
                self.hits += 1;
                Access::Hit
            } else {
                self.sector_misses += 1;
                Access::SectorMiss
            };
        }
        // Miss: pick invalid way or LRU victim.
        let victim = (0..ways.len())
            .min_by_key(|&w| if ways[w].valid { ways[w].last_use } else { 0 })
            .unwrap_or(0);
        ways[victim] = Line {
            tag: line_addr,
            sectors: sector_bit,
            last_use: self.clock,
            valid: true,
        };
        self.mru[set] = victim as u32;
        self.line_misses += 1;
        Access::LineMiss
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.sector_misses + self.line_misses
    }

    /// Sector hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses that fetched a sector into a resident line.
    pub fn sector_misses(&self) -> u64 {
        self.sector_misses
    }

    /// Misses that allocated a new line.
    pub fn line_misses(&self) -> u64 {
        self.line_misses
    }

    /// All misses (DRAM sector fetches).
    pub fn misses(&self) -> u64 {
        self.sector_misses + self.line_misses
    }

    /// Hit rate in `[0, 1]`; 1.0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.sectors = 0;
        }
        self.clock = 0;
        self.hits = 0;
        self.sector_misses = 0;
        self.line_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SectoredCache {
        // 8 sets × 2 ways × 128B lines = 2 KiB.
        SectoredCache::new(2048, 128, 32, 2)
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small();
        assert_eq!(c.access_sector(100), Access::LineMiss);
        assert_eq!(c.access_sector(100), Access::Hit);
        assert_eq!(c.access_sector(96), Access::Hit); // same sector [96,128)
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn sector_fill_within_line() {
        let mut c = small();
        c.access_sector(0);
        assert_eq!(c.access_sector(64), Access::SectorMiss); // same 128B line
        assert_eq!(c.access_sector(64), Access::Hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets * line = 8 * 128 = 1024).
        c.access_sector(0);
        c.access_sector(1024);
        c.access_sector(0); // refresh line 0
        c.access_sector(2048); // evicts line at 1024 (LRU)
        assert_eq!(c.access_sector(0), Access::Hit);
        assert_eq!(c.access_sector(1024), Access::LineMiss);
    }

    #[test]
    fn working_set_behavior() {
        let mut c = small();
        // Streaming over 8 KiB (4x capacity) twice: second pass still misses.
        for pass in 0..2 {
            for addr in (0..8192u64).step_by(32) {
                c.access_sector(addr);
            }
            if pass == 0 {
                assert_eq!(c.hits(), 0);
            }
        }
        assert_eq!(c.hits(), 0, "stream larger than capacity must not hit");
        c.reset();
        // Working set fitting in capacity: second pass all hits.
        for _ in 0..2 {
            for addr in (0..2048u64).step_by(32) {
                c.access_sector(addr);
            }
        }
        assert_eq!(c.hits(), 64);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = small();
        assert_eq!(c.hit_rate(), 1.0);
        c.access_sector(0);
        assert_eq!(c.hit_rate(), 0.0);
        c.access_sector(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn bad_geometry_panics() {
        SectoredCache::new(1024, 100, 32, 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = small();
        c.access_sector(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.access_sector(0), Access::LineMiss);
    }
}
