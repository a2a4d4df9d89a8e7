//! Statistics containers for the memory hierarchy.

/// Per-cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line resident.
    pub hits: u64,
    /// Accesses that had to fill the line.
    pub misses: u64,
    /// Dirty lines evicted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Aggregated statistics for a full [`Hierarchy`](crate::Hierarchy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 data-cache counters.
    pub l1d: CacheStats,
    /// L1 instruction-cache counters.
    pub l1i: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Data accesses serviced as delayed hits (merged into an in-flight
    /// L1 fill).
    pub delayed_hits: u64,
    /// Data accesses rejected for MSHR exhaustion (to be retried).
    pub mshr_rejections: u64,
    /// Accesses serviced by main memory.
    pub memory_accesses: u64,
}

chainiq_ckpt::pack_fields!(CacheStats { hits, misses, writebacks });

chainiq_ckpt::pack_fields!(MemStats {
    l1d,
    l1i,
    l2,
    delayed_hits,
    mshr_rejections,
    memory_accesses
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_handles_empty() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn miss_ratio_counts() {
        let s = CacheStats { hits: 3, misses: 1, writebacks: 0 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
    }
}
