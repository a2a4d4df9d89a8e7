//! Chain identifiers, the chain-wire allocator, and in-flight wire
//! signals.

use crate::tag::InstTag;
use crate::tagmap::TagMap;

/// A reference to an allocated chain wire.
///
/// `id` names the physical one-hot wire; `gen` is a modeling-only
/// generation counter that lets late listeners distinguish a reallocated
/// wire from the chain they joined (in hardware the release-at-writeback
/// ordering makes the ambiguity harmless; the generation makes the model
/// robust to it without changing timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainRef {
    /// Wire index.
    pub id: u32,
    /// Allocation generation of that wire.
    pub gen: u32,
}

/// What a chain-wire assertion means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SignalKind {
    /// The head was selected for promotion or issue (members decrement
    /// their delay, or enter self-timed mode once the head is at the
    /// bottom).
    Pulse,
    /// The head load missed the cache: suspend self-timing (§3.4).
    Suspend,
    /// The head completed: resume self-timing.
    Resume,
}

/// A signal travelling up the pipelined chain wires: asserted at
/// `segment` this cycle, visible at `segment + k` after `k` more cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireSignal {
    pub chain: ChainRef,
    pub kind: SignalKind,
    /// Segment where the signal is currently visible.
    pub segment: usize,
}

/// Aggregate chain-usage statistics (Table 2 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainStats {
    /// Chains allocated in total.
    pub allocations: u64,
    /// Allocations whose head was a load (§4.4 reports ~65% in the base
    /// configuration).
    pub load_heads: u64,
    /// Allocations whose head was a two-outstanding-operand instruction.
    pub dual_dep_heads: u64,
    /// Sum over sampled cycles of live-chain count.
    pub live_accum: u64,
    /// Cycles sampled.
    pub cycles: u64,
    /// Peak simultaneous live chains.
    pub peak_live: usize,
    /// Dispatch stalls because no wire was free.
    pub wire_stalls: u64,
}

impl ChainStats {
    /// Mean number of live chains over the sampled cycles.
    #[must_use]
    pub fn mean_live(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.live_accum as f64 / self.cycles as f64
        }
    }

    /// Fraction of chain allocations headed by loads.
    #[must_use]
    pub fn load_head_frac(&self) -> f64 {
        if self.allocations == 0 {
            0.0
        } else {
            self.load_heads as f64 / self.allocations as f64
        }
    }
}

#[derive(Debug, Clone)]
struct ChainSlot {
    gen: u32,
    head: InstTag,
    live: bool,
}

/// The chain allocator: a bounded (or unbounded) pool of chain wires,
/// each owned by the instruction that heads the chain, released when
/// that instruction writes back (§6.1: "we do not deallocate chains until
/// the chain head instruction has written its result back").
#[derive(Debug, Clone)]
pub(crate) struct ChainTable {
    slots: Vec<ChainSlot>,
    free: Vec<u32>,
    /// Live chains by head tag (a head owns at most one chain) — a flat
    /// probed map, not a tree: head lookup sits on the issue/miss/fill
    /// paths.
    by_head: TagMap<u32>,
    limit: Option<usize>,
    live: usize,
    stats: ChainStats,
}

impl ChainTable {
    pub(crate) fn new(limit: Option<usize>) -> Self {
        ChainTable {
            slots: Vec::new(),
            free: Vec::new(),
            by_head: TagMap::new(),
            limit,
            live: 0,
            stats: ChainStats::default(),
        }
    }

    /// Number of chains currently live.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    pub(crate) fn stats(&self) -> &ChainStats {
        &self.stats
    }

    /// Records `n` dispatch stalls caused by wire exhaustion.
    pub(crate) fn note_wire_stalls(&mut self, n: u64) {
        self.stats.wire_stalls += n;
    }

    /// Samples the live count for the mean/peak statistics over `cycles`
    /// cycles in which it did not change; call once per cycle.
    pub(crate) fn sample(&mut self, cycles: u64) {
        self.stats.live_accum += cycles * self.live as u64;
        self.stats.cycles += cycles;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
    }

    /// Allocates a chain headed by `head`. Returns `None` when every wire
    /// is in use (the caller must stall dispatch).
    pub(crate) fn alloc(&mut self, head: InstTag, head_is_load: bool) -> Option<ChainRef> {
        let id = if let Some(id) = self.free.pop() {
            let slot = &mut self.slots[id as usize];
            slot.gen = slot.gen.wrapping_add(1);
            slot.head = head;
            slot.live = true;
            id
        } else {
            if let Some(limit) = self.limit {
                if self.slots.len() >= limit {
                    return None;
                }
            }
            let id = self.slots.len() as u32;
            self.slots.push(ChainSlot { gen: 0, head, live: true });
            id
        };
        self.live += 1;
        self.stats.allocations += 1;
        if head_is_load {
            self.stats.load_heads += 1;
        } else {
            self.stats.dual_dep_heads += 1;
        }
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        self.by_head.insert(head.0, id);
        Some(ChainRef { id, gen: self.slots[id as usize].gen })
    }

    /// Releases the chain headed by `tag`, if one is live.
    pub(crate) fn release_by_head(&mut self, tag: InstTag) {
        if let Some(id) = self.by_head.remove(tag.0) {
            let slot = &mut self.slots[id as usize];
            debug_assert!(slot.live && slot.head == tag);
            slot.live = false;
            self.free.push(id);
            self.live -= 1;
        }
    }

    /// Releases everything (pipeline flush).
    pub(crate) fn release_all(&mut self) {
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.live {
                slot.live = false;
                self.free.push(id as u32);
            }
        }
        self.by_head.clear();
        self.live = 0;
    }

    /// Whether `chain` still refers to the allocation it was created for.
    #[cfg(test)]
    pub(crate) fn is_current(&self, chain: ChainRef) -> bool {
        self.slots.get(chain.id as usize).map(|s| s.live && s.gen == chain.gen).unwrap_or(false)
    }

    /// The head of a live chain.
    #[cfg(test)]
    pub(crate) fn head_of(&self, chain: ChainRef) -> Option<InstTag> {
        let s = self.slots.get(chain.id as usize)?;
        (s.live && s.gen == chain.gen).then_some(s.head)
    }

    /// Finds the live chain headed by `tag`, if any.
    pub(crate) fn chain_of_head(&self, tag: InstTag) -> Option<ChainRef> {
        self.by_head.get(tag.0).map(|id| ChainRef { id, gen: self.slots[id as usize].gen })
    }
}

chainiq_ckpt::pack_fields!(ChainRef { id, gen });

chainiq_ckpt::pack_enum!(SignalKind, "wire-signal kind" { Pulse = 0, Suspend = 1, Resume = 2 });

chainiq_ckpt::pack_fields!(WireSignal { chain, kind, segment });

chainiq_ckpt::pack_fields!(ChainStats {
    allocations,
    load_heads,
    dual_dep_heads,
    live_accum,
    cycles,
    peak_live,
    wire_stalls
});

chainiq_ckpt::pack_fields!(ChainSlot { gen, head, live });

impl chainiq_ckpt::Pack for ChainTable {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        // Canonical state only; the head-lookup map is rebuilt from the
        // live slots on unpack, so images stay layout-stable.
        self.slots.pack(w);
        self.free.pack(w);
        self.limit.pack(w);
        self.live.pack(w);
        self.stats.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let slots: Vec<ChainSlot> = Pack::unpack(r)?;
        let free: Vec<u32> = Pack::unpack(r)?;
        let limit: Option<usize> = Pack::unpack(r)?;
        let live: usize = Pack::unpack(r)?;
        let stats: ChainStats = Pack::unpack(r)?;
        let corrupt =
            |context: &str| chainiq_ckpt::CkptError::Corrupt { context: context.to_string() };
        if limit.is_some_and(|l| slots.len() > l) {
            return Err(corrupt("chain table exceeds its wire limit"));
        }
        if live != slots.iter().filter(|s| s.live).count() {
            return Err(corrupt("chain table live-count mismatch"));
        }
        if free.len() != slots.len() - live
            || free.iter().any(|&id| slots.get(id as usize).is_none_or(|s| s.live))
        {
            return Err(corrupt("chain table free list inconsistent"));
        }
        let mut by_head = TagMap::new();
        for (id, slot) in slots.iter().enumerate() {
            if slot.live {
                by_head.insert(slot.head.0, id as u32);
            }
        }
        if by_head.len() != live {
            return Err(corrupt("chain table holds duplicate live heads"));
        }
        Ok(ChainTable { slots, free, by_head, limit, live, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_limit_then_none() {
        let mut t = ChainTable::new(Some(2));
        let a = t.alloc(InstTag(1), true).unwrap();
        let b = t.alloc(InstTag(2), true).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(t.alloc(InstTag(3), true), None);
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn unlimited_table_grows() {
        let mut t = ChainTable::new(None);
        for i in 0..1000 {
            assert!(t.alloc(InstTag(i), true).is_some());
        }
        assert_eq!(t.live(), 1000);
        assert_eq!(t.stats().peak_live, 1000);
    }

    #[test]
    fn release_recycles_wire_with_new_generation() {
        let mut t = ChainTable::new(Some(1));
        let a = t.alloc(InstTag(1), true).unwrap();
        t.release_by_head(InstTag(1));
        assert!(!t.is_current(a));
        let b = t.alloc(InstTag(2), false).unwrap();
        assert_eq!(a.id, b.id, "wire is reused");
        assert_ne!(a.gen, b.gen, "generation distinguishes reallocation");
        assert!(t.is_current(b));
    }

    #[test]
    fn head_lookup() {
        let mut t = ChainTable::new(None);
        let a = t.alloc(InstTag(5), true).unwrap();
        assert_eq!(t.head_of(a), Some(InstTag(5)));
        assert_eq!(t.chain_of_head(InstTag(5)), Some(a));
        assert_eq!(t.chain_of_head(InstTag(6)), None);
    }

    #[test]
    fn stats_track_head_kinds_and_mean() {
        let mut t = ChainTable::new(None);
        t.alloc(InstTag(1), true).unwrap();
        t.alloc(InstTag(2), false).unwrap();
        t.sample(1);
        t.sample(1);
        let s = t.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.load_heads, 1);
        assert_eq!(s.dual_dep_heads, 1);
        assert!((s.mean_live() - 2.0).abs() < 1e-12);
        assert!((s.load_head_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn release_all_clears() {
        let mut t = ChainTable::new(Some(4));
        for i in 0..4 {
            t.alloc(InstTag(i), true).unwrap();
        }
        t.release_all();
        assert_eq!(t.live(), 0);
        assert!(t.alloc(InstTag(9), true).is_some());
    }
}
