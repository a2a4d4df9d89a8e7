//! Set-associative tag array with true-LRU replacement.

use crate::stats::CacheStats;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Access latency in cycles (tag + data).
    pub latency: u64,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `assoc * line_bytes`, or non-power-of-two line size).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc > 0 && self.size_bytes > 0);
        let set_bytes = self.assoc * self.line_bytes;
        assert!(
            self.size_bytes.is_multiple_of(set_bytes),
            "capacity {} is not a multiple of assoc*line {}",
            self.size_bytes,
            set_bytes
        );
        self.size_bytes / set_bytes
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    /// Line address (addr >> line_shift); `u64::MAX` when invalid.
    tag: u64,
    dirty: bool,
    /// LRU timestamp: larger = more recently used.
    last_use: u64,
    valid: bool,
}

impl Way {
    /// The state every way starts in.
    const EMPTY: Way = Way { tag: u64::MAX, dirty: false, last_use: 0, valid: false };
}

/// Result of a tag lookup with fill-on-miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled. If the victim was dirty,
    /// its line address is carried for writeback accounting.
    Miss {
        /// Dirty victim line address evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

/// A set-associative tag/state array with true-LRU replacement.
///
/// The array tracks only tags and dirty bits — the simulator is
/// timing-only, so no data is stored. Fills happen eagerly at lookup time;
/// the *timing* of the fill is handled by the surrounding
/// [`Hierarchy`](crate::Hierarchy) via MSHRs and buses.
///
/// # Examples
///
/// ```
/// use chainiq_mem::{CacheArray, CacheConfig, LookupOutcome};
///
/// let mut c = CacheArray::new(CacheConfig {
///     size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1, mshrs: 4,
/// });
/// assert!(matches!(c.access(0x40, false), LookupOutcome::Miss { .. }));
/// assert_eq!(c.access(0x40, false), LookupOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    config: CacheConfig,
    /// Every way, set-major: way `w` of set `s` is `ways[s * assoc + w]`.
    ways: Vec<Way>,
    line_shift: u32,
    set_mask: u64,
    use_clock: u64,
    stats: CacheStats,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; see
    /// [`CacheConfig::num_sets`].
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            config,
            ways: vec![Way::EMPTY; num_sets * config.assoc],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line address (byte address with the offset bits dropped).
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Where in `ways` the set `line` maps to lies.
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let start = (line & self.set_mask) as usize * self.config.assoc;
        start..start + self.config.assoc
    }

    /// Checks for presence without changing any state (no LRU update, no
    /// fill, no statistics).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        self.ways[self.set_range(line)].iter().any(|w| w.valid && w.tag == line)
    }

    /// Accesses `addr`, filling the line on a miss (evicting LRU).
    ///
    /// `is_write` marks the line dirty. Returns whether the access hit and
    /// any dirty victim evicted by the fill.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LookupOutcome {
        let line = self.line_addr(addr);
        let range = self.set_range(line);
        self.use_clock += 1;
        let clock = self.use_clock;
        let set = &mut self.ways[range];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            way.last_use = clock;
            way.dirty |= is_write;
            self.stats.hits += 1;
            return LookupOutcome::Hit;
        }

        self.stats.misses += 1;
        // Prefer an invalid way; otherwise evict the LRU way.
        #[expect(clippy::expect_used, reason = "a set always has at least one way")]
        let victim_idx =
            set.iter().enumerate().find(|(_, w)| !w.valid).map(|(i, _)| i).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.last_use)
                    .map(|(i, _)| i)
                    .expect("cache geometry guarantees at least one way per set")
            });
        let victim = &mut set[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
            Some(victim.tag << self.line_shift)
        } else {
            None
        };
        *victim = Way { tag: line, dirty: is_write, last_use: clock, valid: true };
        LookupOutcome::Miss { writeback }
    }

    /// Invalidates the line containing `addr`, if present. Returns whether
    /// a line was dropped. Dirty state is discarded (the caller accounts
    /// for any writeback).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let range = self.set_range(line);
        for way in &mut self.ways[range] {
            if way.valid && way.tag == line {
                way.valid = false;
                return true;
            }
        }
        false
    }

    /// Hit/miss/writeback counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of valid lines currently resident (O(capacity); for tests).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

impl chainiq_ckpt::Pack for CacheConfig {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.size_bytes.pack(w);
        self.assoc.pack(w);
        self.line_bytes.pack(w);
        self.latency.pack(w);
        self.mshrs.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(CacheConfig {
            size_bytes: Pack::unpack(r)?,
            assoc: Pack::unpack(r)?,
            line_bytes: Pack::unpack(r)?,
            latency: Pack::unpack(r)?,
            mshrs: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Pack for Way {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.tag.pack(w);
        self.dirty.pack(w);
        self.last_use.pack(w);
        self.valid.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(Way {
            tag: Pack::unpack(r)?,
            dirty: Pack::unpack(r)?,
            last_use: Pack::unpack(r)?,
            valid: Pack::unpack(r)?,
        })
    }
}

impl CacheArray {
    /// Packs the mutable state: the ways sparsely against their empty
    /// state, then the LRU clock and the counters. The geometry is the
    /// owner's to check.
    pub(crate) fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::save_sparse(w, &self.ways, &Way::EMPTY);
        self.use_clock.pack(w);
        self.stats.pack(w);
    }

    /// Overwrites the mutable state from what [`CacheArray::save`] wrote.
    pub(crate) fn restore(
        &mut self,
        r: &mut chainiq_ckpt::Reader<'_>,
    ) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::restore_sparse(r, &mut self.ways, &Way::EMPTY, "cache ways")?;
        self.use_clock = Pack::unpack(r)?;
        self.stats = Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets x 2 ways x 64B lines.
        CacheArray::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn geometry_is_computed() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = small();
        assert!(matches!(c.access(0x100, false), LookupOutcome::Miss { writeback: None }));
        // Any address in the same 64B line hits.
        assert_eq!(c.access(0x13F, false), LookupOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Three lines mapping to set 0 in a 2-way set: 0x000, 0x400, 0x800
        // (set index = line & 3; lines 0, 0x10, 0x20 -> set 0).
        c.access(0x000, false);
        c.access(0x400, false);
        c.access(0x000, false); // touch line 0 -> 0x400 is LRU
        assert!(matches!(c.access(0x800, false), LookupOutcome::Miss { .. }));
        assert!(c.probe(0x000), "recently used line must survive");
        assert!(!c.probe(0x400), "LRU line must be evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x400, false);
        match c.access(0x800, false) {
            LookupOutcome::Miss { writeback: Some(addr) } => assert_eq!(addr, 0x000),
            other => panic!("expected dirty writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x400, false);
        match c.access(0x800, false) {
            LookupOutcome::Miss { writeback } => assert_eq!(writeback, None),
            LookupOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // write hit dirties the line
        c.access(0x400, false);
        match c.access(0x800, false) {
            LookupOutcome::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            LookupOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x400, false);
        let before = *c.stats();
        for _ in 0..10 {
            assert!(c.probe(0x400));
        }
        assert_eq!(*c.stats(), before);
        // 0x000 is still LRU despite the probes of 0x400.
        c.access(0x800, false);
        assert!(!c.probe(0x000));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x000, true);
        assert!(c.invalidate(0x000));
        assert!(!c.probe(0x000));
        assert!(!c.invalidate(0x000));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x040, false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn table1_l1_geometry() {
        // 64 KB, 2-way, 64-byte lines -> 512 sets.
        let cfg =
            CacheConfig { size_bytes: 64 << 10, assoc: 2, line_bytes: 64, latency: 3, mshrs: 32 };
        assert_eq!(cfg.num_sets(), 512);
    }

    #[test]
    fn table1_l2_geometry() {
        // 1 MB, 4-way, 64-byte lines -> 4096 sets.
        let cfg =
            CacheConfig { size_bytes: 1 << 20, assoc: 4, line_bytes: 64, latency: 10, mshrs: 32 };
        assert_eq!(cfg.num_sets(), 4096);
    }
}
