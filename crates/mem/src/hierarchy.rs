//! The composed L1I/L1D/L2/DRAM hierarchy.

use crate::bus::Bus;
use crate::cache::{CacheArray, CacheConfig, LookupOutcome};
use crate::mshr::{MshrFile, MshrGrant};
use crate::stats::MemStats;
use crate::Cycle;

/// What kind of access is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read (load).
    Read,
    /// Data write (store; write-allocate).
    Write,
    /// Instruction fetch.
    Ifetch,
}

/// Which level ultimately supplied the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// True first-level hit.
    L1,
    /// Merged into an in-flight L1 fill (the paper's *delayed hit* —
    /// counted as an L1 miss for hit/miss prediction purposes).
    DelayedHit,
    /// L2 hit.
    L2,
    /// Main memory (including merges into in-flight L2 fills).
    Memory,
}

impl ServicedBy {
    /// Whether the access counts as an L1 hit for the hit/miss predictor.
    ///
    /// Per §4.4 of the paper, delayed hits count as misses: they expose
    /// (most of) the miss latency to dependents.
    #[must_use]
    pub fn is_l1_hit(self) -> bool {
        self == ServicedBy::L1
    }
}

/// Resolved timing of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle the access was presented to the cache.
    pub issued_at: Cycle,
    /// Cycle the data is available (loads) or the write is retired.
    pub completes_at: Cycle,
    /// Cycle at which the L1 lookup resolves — this is when a miss is
    /// *detected* and the chain suspend signal of §3.4 can be sent.
    pub l1_resolved_at: Cycle,
    /// Level that supplied the data.
    pub serviced_by: ServicedBy,
}

impl AccessOutcome {
    /// Latency from issue to completion.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completes_at - self.issued_at
    }
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The L1 MSHR file is out of registers; retry later.
    L1MshrFull,
    /// The L2 MSHR file is out of registers; retry later.
    L2MshrFull,
}

/// Configuration of the whole hierarchy; defaults reproduce Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// L1↔L2 bandwidth in bytes per cycle.
    pub l1_l2_bytes_per_cycle: u64,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Memory-bus bandwidth in bytes per CPU cycle.
    pub memory_bytes_per_cycle: u64,
}

impl Default for MemConfig {
    /// Table 1 of the paper.
    fn default() -> Self {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 64 << 10,
                assoc: 2,
                line_bytes: 64,
                latency: 1,
                mshrs: 32,
            },
            l1d: CacheConfig {
                size_bytes: 64 << 10,
                assoc: 2,
                line_bytes: 64,
                latency: 3,
                mshrs: 32,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                assoc: 4,
                line_bytes: 64,
                latency: 10,
                mshrs: 32,
            },
            l1_l2_bytes_per_cycle: 64,
            memory_latency: 100,
            memory_bytes_per_cycle: 8,
        }
    }
}

/// The composed memory hierarchy.
///
/// Data ports are *not* modelled here — the load/store queue enforces the
/// per-cycle read/write port limits of Table 1; this component resolves
/// latency, occupancy and bandwidth.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: MemConfig,
    l1i: CacheArray,
    l1d: CacheArray,
    l2: CacheArray,
    l1i_mshrs: MshrFile,
    l1d_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    l1_l2_bus: Bus,
    memory_bus: Bus,
    stats: MemStats,
}

impl Hierarchy {
    /// Creates a cold hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry in `config` is inconsistent or the
    /// line sizes differ between levels.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        assert_eq!(config.l1d.line_bytes, config.l2.line_bytes, "line sizes must match");
        assert_eq!(config.l1i.line_bytes, config.l2.line_bytes, "line sizes must match");
        Hierarchy {
            config,
            l1i: CacheArray::new(config.l1i),
            l1d: CacheArray::new(config.l1d),
            l2: CacheArray::new(config.l2),
            l1i_mshrs: MshrFile::new(config.l1i.mshrs),
            l1d_mshrs: MshrFile::new(config.l1d.mshrs),
            l2_mshrs: MshrFile::new(config.l2.mshrs),
            l1_l2_bus: Bus::new(config.l1_l2_bytes_per_cycle),
            memory_bus: Bus::new(config.memory_bytes_per_cycle),
            stats: MemStats::default(),
        }
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Presents an access at cycle `now` and resolves its timing.
    ///
    /// # Errors
    ///
    /// Returns a [`RejectReason`] when a required MSHR file is exhausted;
    /// the caller should retry on a later cycle. No state is modified on
    /// rejection.
    pub fn access(
        &mut self,
        now: Cycle,
        addr: u64,
        kind: AccessKind,
    ) -> Result<AccessOutcome, RejectReason> {
        match kind {
            AccessKind::Ifetch => self.l1_access(now, addr, false, true),
            AccessKind::Read => self.l1_access(now, addr, false, false),
            AccessKind::Write => self.l1_access(now, addr, true, false),
        }
    }

    /// Checks (without side effects) whether `addr` would hit in the L1
    /// data cache right now — neither in flight nor absent.
    #[must_use]
    pub fn l1d_would_hit(&self, now: Cycle, addr: u64) -> bool {
        let line = self.l1d.line_addr(addr);
        self.l1d.probe(addr) && self.l1d_mshrs.outstanding(now, line).is_none()
    }

    fn l1_access(
        &mut self,
        now: Cycle,
        addr: u64,
        is_write: bool,
        is_ifetch: bool,
    ) -> Result<AccessOutcome, RejectReason> {
        let (l1_latency, line) = if is_ifetch {
            (self.config.l1i.latency, self.l1i.line_addr(addr))
        } else {
            (self.config.l1d.latency, self.l1d.line_addr(addr))
        };
        let l1_resolved_at = now + l1_latency;

        let (array, mshrs) =
            if is_ifetch { (&self.l1i, &self.l1i_mshrs) } else { (&self.l1d, &self.l1d_mshrs) };

        // Case 1: true L1 hit (present, no fill in flight).
        let outstanding = mshrs.outstanding(now, line);
        if array.probe(addr) && outstanding.is_none() {
            let array = if is_ifetch { &mut self.l1i } else { &mut self.l1d };
            array.access(addr, is_write);
            let s = if is_ifetch { &mut self.stats.l1i } else { &mut self.stats.l1d };
            s.hits += 1;
            return Ok(AccessOutcome {
                issued_at: now,
                completes_at: l1_resolved_at,
                l1_resolved_at,
                serviced_by: ServicedBy::L1,
            });
        }

        // Case 2: delayed hit — merge into the in-flight fill.
        if let Some(fill_at) = outstanding {
            let mshrs = if is_ifetch { &mut self.l1i_mshrs } else { &mut self.l1d_mshrs };
            mshrs.request(now, line, fill_at); // records the merge
            let array = if is_ifetch { &mut self.l1i } else { &mut self.l1d };
            array.access(addr, is_write); // LRU touch / dirty on the eagerly-filled line
            let s = if is_ifetch { &mut self.stats.l1i } else { &mut self.stats.l1d };
            s.misses += 1;
            self.stats.delayed_hits += 1;
            return Ok(AccessOutcome {
                issued_at: now,
                completes_at: fill_at.max(l1_resolved_at),
                l1_resolved_at,
                serviced_by: ServicedBy::DelayedHit,
            });
        }

        // Case 3: primary L1 miss. Check resources before mutating.
        if mshrs.in_use(now)
            >= if is_ifetch { self.config.l1i.mshrs } else { self.config.l1d.mshrs }
        {
            self.stats.mshr_rejections += 1;
            return Err(RejectReason::L1MshrFull);
        }
        let l2_line = self.l2.line_addr(addr);
        let l2_req_at = l1_resolved_at;
        let l2_present = self.l2.probe(addr);
        let l2_outstanding = self.l2_mshrs.outstanding(now, l2_line);
        if !l2_present
            && l2_outstanding.is_none()
            && self.l2_mshrs.in_use(now) >= self.config.l2.mshrs
        {
            self.stats.mshr_rejections += 1;
            return Err(RejectReason::L2MshrFull);
        }

        // Resolve the L2 side.
        let (serviced_by, l2_data_ready) = if l2_present && l2_outstanding.is_none() {
            self.l2.access(addr, false);
            self.stats.l2.hits += 1;
            (ServicedBy::L2, l2_req_at + self.config.l2.latency)
        } else if let Some(fill_at) = l2_outstanding {
            // Merge into the in-flight memory fill.
            self.l2_mshrs.request(now, l2_line, fill_at);
            self.l2.access(addr, false);
            self.stats.l2.misses += 1;
            (ServicedBy::Memory, fill_at.max(l2_req_at + self.config.l2.latency))
        } else {
            // Primary L2 miss: go to memory.
            self.stats.l2.misses += 1;
            self.stats.memory_accesses += 1;
            let mem_ready = l2_req_at + self.config.l2.latency + self.config.memory_latency;
            let line_bytes = self.config.l2.line_bytes as u64;
            let mem_done = self.memory_bus.transfer(mem_ready, line_bytes);
            self.l2_mshrs.request(now, l2_line, mem_done);
            if let LookupOutcome::Miss { writeback: Some(_) } = self.l2.access(addr, false) {
                // Dirty L2 victim written back to memory.
                self.memory_bus.transfer(mem_done, line_bytes);
            }
            (ServicedBy::Memory, mem_done)
        };

        // Transfer the line L2 -> L1 and allocate the L1 MSHR.
        let line_bytes = self.config.l2.line_bytes as u64;
        let fill_at = self.l1_l2_bus.transfer(l2_data_ready, line_bytes);
        let (array, mshrs, s) = if is_ifetch {
            (&mut self.l1i, &mut self.l1i_mshrs, &mut self.stats.l1i)
        } else {
            (&mut self.l1d, &mut self.l1d_mshrs, &mut self.stats.l1d)
        };
        let grant = mshrs.request(now, line, fill_at);
        debug_assert_eq!(grant, MshrGrant::Allocated);
        s.misses += 1;
        if let LookupOutcome::Miss { writeback: Some(victim) } = array.access(addr, is_write) {
            // Dirty L1 victim written back into the L2.
            self.l1_l2_bus.transfer(fill_at, line_bytes);
            if let LookupOutcome::Miss { writeback: Some(_) } = self.l2.access(victim, true) {
                self.memory_bus.transfer(fill_at, line_bytes);
            }
        }

        Ok(AccessOutcome {
            issued_at: now,
            completes_at: fill_at.max(l1_resolved_at),
            l1_resolved_at,
            serviced_by,
        })
    }
}

impl chainiq_ckpt::Pack for MemConfig {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.l1i.pack(w);
        self.l1d.pack(w);
        self.l2.pack(w);
        self.l1_l2_bytes_per_cycle.pack(w);
        self.memory_latency.pack(w);
        self.memory_bytes_per_cycle.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(MemConfig {
            l1i: Pack::unpack(r)?,
            l1d: Pack::unpack(r)?,
            l2: Pack::unpack(r)?,
            l1_l2_bytes_per_cycle: Pack::unpack(r)?,
            memory_latency: Pack::unpack(r)?,
            memory_bytes_per_cycle: Pack::unpack(r)?,
        })
    }
}

impl chainiq_ckpt::Snapshot for Hierarchy {
    const COMPONENT: &'static str = "mem.hierarchy";
    const VERSION: u16 = 2;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.config.pack(w);
        self.l1i.save(w);
        self.l1d.save(w);
        self.l2.save(w);
        self.l1i_mshrs.pack(w);
        self.l1d_mshrs.pack(w);
        self.l2_mshrs.pack(w);
        self.l1_l2_bus.pack(w);
        self.memory_bus.pack(w);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let config = MemConfig::unpack(r)?;
        if config != self.config {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "memory hierarchy config differs from the running one".to_string(),
            });
        }
        self.l1i.restore(r)?;
        self.l1d.restore(r)?;
        self.l2.restore(r)?;
        self.l1i_mshrs = Pack::unpack(r)?;
        self.l1d_mshrs = Pack::unpack(r)?;
        self.l2_mshrs = Pack::unpack(r)?;
        self.l1_l2_bus = Pack::unpack(r)?;
        self.memory_bus = Pack::unpack(r)?;
        self.stats = Pack::unpack(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(MemConfig::default())
    }

    #[test]
    fn default_config_matches_table1() {
        let c = MemConfig::default();
        assert_eq!(c.l1d.size_bytes, 64 << 10);
        assert_eq!(c.l1d.assoc, 2);
        assert_eq!(c.l1d.latency, 3);
        assert_eq!(c.l1d.mshrs, 32);
        assert_eq!(c.l1i.latency, 1);
        assert_eq!(c.l2.size_bytes, 1 << 20);
        assert_eq!(c.l2.assoc, 4);
        assert_eq!(c.l2.latency, 10);
        assert_eq!(c.memory_latency, 100);
        assert_eq!(c.memory_bytes_per_cycle, 8);
        assert_eq!(c.l1_l2_bytes_per_cycle, 64);
    }

    #[test]
    fn cold_read_goes_to_memory_with_expected_latency() {
        let mut m = hier();
        let out = m.access(0, 0x1000, AccessKind::Read).unwrap();
        assert_eq!(out.serviced_by, ServicedBy::Memory);
        assert_eq!(out.l1_resolved_at, 3);
        // 3 (L1) + 10 (L2 lookup) + 100 (memory) + 8 (64B @ 8B/cyc) + 1
        // (64B @ 64B/cyc into L1) = 122.
        assert_eq!(out.completes_at, 122);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut m = hier();
        let fill = m.access(0, 0x1000, AccessKind::Read).unwrap().completes_at;
        let out = m.access(fill, 0x1000, AccessKind::Read).unwrap();
        assert_eq!(out.serviced_by, ServicedBy::L1);
        assert_eq!(out.latency(), 3);
    }

    #[test]
    fn second_access_while_fill_in_flight_is_delayed_hit() {
        let mut m = hier();
        let first = m.access(0, 0x1000, AccessKind::Read).unwrap();
        let out = m.access(5, 0x1020, AccessKind::Read).unwrap(); // same 64B line
        assert_eq!(out.serviced_by, ServicedBy::DelayedHit);
        assert_eq!(out.completes_at, first.completes_at);
        assert_eq!(m.stats().delayed_hits, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = hier();
        // Fill a line, then evict it from L1 by touching 2 more lines that
        // map to the same L1 set (L1: 512 sets, 2 ways -> stride 512*64 = 32768).
        let fill = m.access(0, 0x0, AccessKind::Read).unwrap().completes_at;
        let mut t = fill;
        for i in 1..=2u64 {
            t = m.access(t, i * 32768, AccessKind::Read).unwrap().completes_at;
        }
        // 0x0 is now out of L1 but still in L2 (L2 is 4-way, 4096 sets).
        let out = m.access(t, 0x0, AccessKind::Read).unwrap();
        assert_eq!(out.serviced_by, ServicedBy::L2);
        // 3 (L1) + 10 (L2) + 1 (bus) = 14.
        assert_eq!(out.latency(), 14);
    }

    #[test]
    fn ifetch_hits_in_one_cycle() {
        let mut m = hier();
        let fill = m.access(0, 0x4000, AccessKind::Ifetch).unwrap().completes_at;
        let out = m.access(fill, 0x4000, AccessKind::Ifetch).unwrap();
        assert_eq!(out.latency(), 1);
        assert_eq!(m.stats().l1i.hits, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_without_state_change() {
        let mut m = hier();
        // Fill all 32 L1D MSHRs with distinct lines at cycle 0.
        for i in 0..32u64 {
            m.access(0, i * 64, AccessKind::Read).unwrap();
        }
        let stats_before = *m.stats();
        let err = m.access(0, 33 * 6400, AccessKind::Read).unwrap_err();
        assert!(matches!(err, RejectReason::L1MshrFull | RejectReason::L2MshrFull));
        assert_eq!(m.stats().l1d, stats_before.l1d);
        assert_eq!(m.stats().mshr_rejections, 1);
    }

    #[test]
    fn accepts_again_after_fills_land() {
        let mut m = hier();
        let mut last = 0;
        for i in 0..32u64 {
            last = m.access(0, i * 64, AccessKind::Read).unwrap().completes_at.max(last);
        }
        assert!(m.access(0, 64 * 64, AccessKind::Read).is_err());
        assert!(m.access(last, 64 * 64, AccessKind::Read).is_ok());
    }

    #[test]
    fn memory_bus_serializes_independent_misses() {
        let mut m = hier();
        let a = m.access(0, 0, AccessKind::Read).unwrap();
        let b = m.access(0, 2 * 1024 * 1024, AccessKind::Read).unwrap();
        // Second line transfer must queue behind the first on the 8B/cyc bus.
        assert!(b.completes_at >= a.completes_at + 8);
    }

    #[test]
    fn writes_allocate_and_dirty_lines_write_back() {
        let mut m = hier();
        let fill = m.access(0, 0x0, AccessKind::Write).unwrap().completes_at;
        // Evict the dirty line from L1: two more lines in set 0.
        let mut t = fill;
        for i in 1..=2u64 {
            t = m.access(t, i * 32768, AccessKind::Read).unwrap().completes_at;
        }
        // The dirty line was written back into L2; evicting it is silent at
        // the memory level only if L2 line stays. Check the line now hits in L2.
        let out = m.access(t, 0x0, AccessKind::Read).unwrap();
        assert_eq!(out.serviced_by, ServicedBy::L2);
    }

    #[test]
    fn would_hit_tracks_residency_and_inflight_state() {
        let mut m = hier();
        assert!(!m.l1d_would_hit(0, 0x1000));
        let out = m.access(0, 0x1000, AccessKind::Read).unwrap();
        // While the fill is in flight the line does not count as a hit.
        assert!(!m.l1d_would_hit(5, 0x1000));
        assert!(m.l1d_would_hit(out.completes_at, 0x1000));
    }

    #[test]
    fn serviced_by_l1_is_the_only_hit_for_hmp() {
        assert!(ServicedBy::L1.is_l1_hit());
        assert!(!ServicedBy::DelayedHit.is_l1_hit());
        assert!(!ServicedBy::L2.is_l1_hit());
        assert!(!ServicedBy::Memory.is_l1_hit());
    }

    #[test]
    fn streaming_reads_within_a_line_hit_after_first() {
        let mut m = hier();
        let mut t = 0;
        let mut l1_hits = 0;
        for i in 0..64u64 {
            let out = m.access(t, i * 8, AccessKind::Read).unwrap();
            t = out.completes_at;
            if out.serviced_by == ServicedBy::L1 {
                l1_hits += 1;
            }
        }
        // 8 lines of 8 words each: 8 misses, 56 hits.
        assert_eq!(l1_hits, 56);
        assert_eq!(m.stats().l1d.misses, 8);
    }
}
