//! The reference queue's chain-wire allocator and wire signals: a slot
//! vector with a free list and a head-tag tree, sharing nothing with the
//! production `ChainTable` but the public `ChainRef` and `ChainStats`.

use std::collections::BTreeMap;

use chainiq_core::{ChainRef, ChainStats, InstTag};

/// What a chain-wire assertion means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
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
pub struct WireSignal {
    pub chain: ChainRef,
    pub kind: SignalKind,
    /// Segment where the signal is currently visible.
    pub segment: usize,
}

#[derive(Debug, Clone)]
struct ChainSlot {
    gen: u32,
    head: InstTag,
    live: bool,
}

/// A bounded (or unbounded) pool of chain wires, each owned by the
/// instruction that heads the chain and released when that instruction
/// writes back (§6.1).
#[derive(Debug, Clone)]
pub struct ChainTable {
    slots: Vec<ChainSlot>,
    free: Vec<u32>,
    /// Live chains by head tag (a head owns at most one chain).
    by_head: BTreeMap<InstTag, u32>,
    limit: Option<usize>,
    live: usize,
    stats: ChainStats,
}

impl ChainTable {
    pub fn new(limit: Option<usize>) -> Self {
        ChainTable {
            slots: Vec::new(),
            free: Vec::new(),
            by_head: BTreeMap::new(),
            limit,
            live: 0,
            stats: ChainStats::default(),
        }
    }

    pub fn stats(&self) -> &ChainStats {
        &self.stats
    }

    /// Records a dispatch stall caused by wire exhaustion.
    pub fn note_wire_stall(&mut self) {
        self.stats.wire_stalls += 1;
    }

    /// Samples the live count for the mean/peak statistics; called once
    /// per cycle.
    pub fn sample(&mut self) {
        self.stats.live_accum += self.live as u64;
        self.stats.cycles += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
    }

    /// Allocates a chain headed by `head`, or `None` when every wire is
    /// in use (the caller stalls dispatch).
    pub fn alloc(&mut self, head: InstTag, head_is_load: bool) -> Option<ChainRef> {
        let id = if let Some(id) = self.free.pop() {
            let slot = &mut self.slots[id as usize];
            slot.gen = slot.gen.wrapping_add(1);
            slot.head = head;
            slot.live = true;
            id
        } else {
            if self.limit.is_some_and(|limit| self.slots.len() >= limit) {
                return None;
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
        self.by_head.insert(head, id);
        Some(ChainRef { id, gen: self.slots[id as usize].gen })
    }

    /// Releases the chain headed by `tag`, if one is live.
    pub fn release_by_head(&mut self, tag: InstTag) {
        if let Some(id) = self.by_head.remove(&tag) {
            let slot = &mut self.slots[id as usize];
            assert!(slot.live && slot.head == tag, "released chain is live and headed by {tag:?}");
            slot.live = false;
            self.free.push(id);
            self.live -= 1;
        }
    }

    /// Releases everything (pipeline flush).
    pub fn release_all(&mut self) {
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.live {
                slot.live = false;
                self.free.push(id as u32);
            }
        }
        self.by_head.clear();
        self.live = 0;
    }

    /// The live chain headed by `tag`, if any.
    pub fn chain_of_head(&self, tag: InstTag) -> Option<ChainRef> {
        self.by_head.get(&tag).map(|&id| ChainRef { id, gen: self.slots[id as usize].gen })
    }
}
