//! The load/store queue.
//!
//! As in §5 (following sim-outorder), memory instructions split: the
//! effective-address calculation is scheduled by the instruction queue as
//! an ordinary integer op, and the memory access lives here. A load
//! accesses the cache once its address is known and it is known not to
//! conflict with any preceding store; an exact-address match forwards
//! from the store instead. Stores write to the cache after commit.

use std::collections::VecDeque;

use chainiq_core::InstTag;
use chainiq_isa::Cycle;
use chainiq_mem::{AccessKind, AccessOutcome, Hierarchy, ServicedBy};

/// What happened to a memory operation this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LsqEvent {
    /// A load's access resolved.
    LoadResolved {
        tag: InstTag,
        pc: u64,
        /// HMP verdict the load dispatched under.
        predicted_hit: bool,
        /// When the loaded value is available to consumers.
        completes_at: Cycle,
        /// When the L1 lookup resolved (miss-detection time for chain
        /// suspension).
        l1_resolved_at: Cycle,
        /// Whether it was a true L1 hit (delayed hits count as misses).
        was_l1_hit: bool,
        /// Whether the value was forwarded from an in-flight store.
        forwarded: bool,
    },
    /// A committed store wrote to the cache.
    StoreWritten { tag: InstTag },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Address not yet computed.
    WaitingEa,
    /// Address known at `Cycle`; access not yet performed.
    Ready(Cycle),
    /// Load resolved / store waiting to commit+write.
    Done,
}

#[derive(Debug, Clone)]
struct LsqEntry {
    tag: InstTag,
    pc: u64,
    addr: u64,
    is_store: bool,
    state: State,
    committed: bool,
    /// HMP verdict this load dispatched under (stats pairing).
    predicted_hit: bool,
    /// The access was refused for a full MSHR file and is refused again
    /// at every cycle before this one, so those retries are counted
    /// without presenting it (derived from the hierarchy; not
    /// serialized — a restored entry presents its next retry).
    retry_at: Cycle,
}

/// Statistics the LSQ reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LsqStats {
    pub loads_issued: u64,
    pub stores_written: u64,
    pub forwards: u64,
    pub disambiguation_stalls: u64,
    pub mshr_retries: u64,
}

/// The load/store queue. Unbounded (the ROB bounds in-flight memory ops;
/// the paper gives no LSQ size).
#[derive(Debug, Clone)]
pub(crate) struct Lsq {
    entries: VecDeque<LsqEntry>,
    read_ports: usize,
    write_ports: usize,
    stats: LsqStats,
    /// Scratch: indices of stores written this cycle (removed afterwards).
    written: Vec<u32>,
    /// Scratch: addresses of resolved stores older than the load being
    /// disambiguated this cycle.
    store_addrs: Vec<u64>,
    /// Committed stores still queued — the write pass is skipped when
    /// zero (derived from `entries`; not serialized).
    committed_stores: usize,
    /// Loads whose address is known but whose access has not resolved —
    /// the disambiguation pass is skipped when zero (derived; not
    /// serialized).
    ready_loads: usize,
    /// MSHR retries and disambiguation stalls the last `cycle` counted:
    /// what each repeat of a cycle that resolved nothing counts again
    /// (transient; not serialized).
    last_retries: u64,
    last_stalls: u64,
}

impl Lsq {
    pub(crate) fn new(read_ports: usize, write_ports: usize) -> Self {
        Lsq {
            entries: VecDeque::new(),
            read_ports,
            write_ports,
            stats: LsqStats::default(),
            written: Vec::new(),
            store_addrs: Vec::new(),
            committed_stores: 0,
            ready_loads: 0,
            last_retries: 0,
            last_stalls: 0,
        }
    }

    /// Position of `tag` in the queue. Dispatch pushes in tag order and
    /// removals keep relative order, so the queue is tag-sorted and a
    /// binary search replaces the old linear scan.
    #[inline]
    fn find(&self, tag: InstTag) -> Option<usize> {
        self.entries.binary_search_by_key(&tag.0, |e| e.tag.0).ok()
    }

    pub(crate) fn stats(&self) -> LsqStats {
        self.stats
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts a memory op at dispatch (program order). `predicted_hit`
    /// is the HMP verdict the load dispatched under.
    pub(crate) fn push(
        &mut self,
        tag: InstTag,
        pc: u64,
        addr: u64,
        is_store: bool,
        predicted_hit: bool,
    ) {
        self.entries.push_back(LsqEntry {
            tag,
            pc,
            addr,
            is_store,
            state: State::WaitingEa,
            committed: false,
            predicted_hit,
            retry_at: 0,
        });
    }

    /// The IQ issued the op's EA calculation; the address is known at
    /// `ea_at`.
    pub(crate) fn ea_computed(&mut self, tag: InstTag, ea_at: Cycle) {
        if let Some(pos) = self.find(tag) {
            let e = &mut self.entries[pos];
            if e.state == State::WaitingEa {
                e.state = State::Ready(ea_at);
                if !e.is_store {
                    self.ready_loads += 1;
                }
            }
        }
    }

    /// The instruction committed: loads leave; stores become eligible to
    /// write (they leave once written).
    pub(crate) fn on_commit(&mut self, tag: InstTag) {
        if let Some(pos) = self.find(tag) {
            if self.entries[pos].is_store {
                if !self.entries[pos].committed {
                    self.entries[pos].committed = true;
                    self.committed_stores += 1;
                }
            } else {
                if matches!(self.entries[pos].state, State::Ready(_)) {
                    self.ready_loads -= 1;
                }
                self.entries.remove(pos);
            }
        }
    }

    /// Whether any op is still waiting to access memory.
    #[cfg(test)]
    pub(crate) fn has_pending_access(&self) -> bool {
        self.entries.iter().any(|e| !matches!(e.state, State::Done) || (e.is_store && e.committed))
    }

    /// One cycle of memory scheduling. Events are appended to `events`
    /// (a caller-owned scratch buffer, so steady-state cycles allocate
    /// nothing).
    pub(crate) fn cycle(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        let (retries, stalls) = (self.stats.mshr_retries, self.stats.disambiguation_stalls);
        self.write_stores(now, mem, events);
        self.access_loads(now, mem, events);
        self.last_retries = self.stats.mshr_retries - retries;
        self.last_stalls = self.stats.disambiguation_stalls - stalls;
    }

    /// Counts `k` repeats of the last [`Lsq::cycle`], which resolved
    /// nothing: the same refused retries and disambiguation stalls each
    /// time.
    pub(crate) fn repeat_cycle(&mut self, k: u64, mem: &mut Hierarchy) {
        self.stats.mshr_retries += k * self.last_retries;
        self.stats.disambiguation_stalls += k * self.last_stalls;
        mem.count_rejections(k * self.last_retries);
    }

    /// The first cycle after `now` at which [`Lsq::cycle`] could resolve
    /// something on its own, asked after a cycle at `now` that resolved
    /// nothing — so every access then due was refused or blocked behind
    /// an older store. That cycle is an address becoming known (which
    /// may also unblock younger loads) or a refused access reaching its
    /// MSHR horizon. Everything else that frees an access — an address
    /// computed, a store committed — comes from the pipeline.
    pub(crate) fn next_event(&self, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        for e in &self.entries {
            match e.state {
                State::Ready(t) if t > now => at = at.min(t),
                State::Ready(_) if e.retry_at > now => at = at.min(e.retry_at),
                _ => {}
            }
        }
        at
    }

    /// Presents the access of the entry at `idx`, or — before the MSHR
    /// horizon of its last refusal — counts the refusal it would meet.
    fn access(
        &mut self,
        idx: usize,
        now: Cycle,
        kind: AccessKind,
        mem: &mut Hierarchy,
    ) -> Option<AccessOutcome> {
        let e = &mut self.entries[idx];
        if now < e.retry_at {
            mem.count_rejections(1);
        } else {
            match mem.access(now, e.addr, kind) {
                Ok(out) => return Some(out),
                Err(reason) => e.retry_at = mem.retry_at(now, kind, reason),
            }
        }
        self.stats.mshr_retries += 1;
        None
    }

    /// Committed stores write to the cache in order. Skipped outright when
    /// none is queued (most cycles).
    fn write_stores(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        if self.committed_stores == 0 {
            return;
        }
        let mut writes = 0usize;
        debug_assert!(self.written.is_empty());
        for idx in 0..self.entries.len() {
            if writes >= self.write_ports {
                break;
            }
            let e = &self.entries[idx];
            if !e.is_store || !e.committed {
                continue;
            }
            match e.state {
                State::Ready(at) if at <= now => {
                    let tag = e.tag;
                    if self.access(idx, now, AccessKind::Write, mem).is_some() {
                        writes += 1;
                        self.written.push(idx as u32);
                        events.push(LsqEvent::StoreWritten { tag });
                    }
                }
                _ => {}
            }
        }
        self.committed_stores -= self.written.len();
        for idx in self.written.drain(..).rev() {
            self.entries.remove(idx as usize);
        }
        self.stats.stores_written += writes as u64;
    }

    /// Loads access once disambiguated against all older stores. One
    /// forward pass replaces the per-load backward scans: a load is
    /// blocked iff any older store is unresolved (address unknown or not
    /// yet computed), and — when none is — it forwards iff some older
    /// resolved store matches its address, which the pass accumulates in
    /// `store_addrs` as it walks. The whole pass is skipped when no load
    /// has a computed, unresolved address.
    fn access_loads(&mut self, now: Cycle, mem: &mut Hierarchy, events: &mut Vec<LsqEvent>) {
        if self.ready_loads == 0 {
            return;
        }
        let mut reads = 0usize;
        let mut older_unresolved = false;
        self.store_addrs.clear();
        let l1_latency = mem.config().l1d.latency;
        for idx in 0..self.entries.len() {
            let e = &self.entries[idx];
            if e.is_store {
                match e.state {
                    State::WaitingEa => older_unresolved = true,
                    State::Ready(at) if at > now => older_unresolved = true,
                    _ => {
                        // Once one store is unresolved every later load is
                        // blocked, so the address set stops mattering.
                        if !older_unresolved {
                            let addr = e.addr;
                            self.store_addrs.push(addr);
                        }
                    }
                }
                continue;
            }
            let State::Ready(at) = e.state else { continue };
            if at > now {
                continue;
            }
            if reads >= self.read_ports {
                break;
            }
            if older_unresolved {
                self.stats.disambiguation_stalls += 1;
                continue;
            }
            let (tag, pc, addr, predicted_hit) = (e.tag, e.pc, e.addr, e.predicted_hit);
            // A load refused by the MSHRs found every older store resolved
            // and none at its address; stores only enter younger and
            // leave older, so until its retry it cannot forward either.
            if now >= e.retry_at && self.store_addrs.contains(&addr) {
                // Store-to-load forwarding at L1-hit latency.
                self.stats.forwards += 1;
                self.stats.loads_issued += 1;
                reads += 1;
                self.entries[idx].state = State::Done;
                self.ready_loads -= 1;
                events.push(LsqEvent::LoadResolved {
                    tag,
                    pc,
                    predicted_hit,
                    completes_at: now + l1_latency,
                    l1_resolved_at: now + l1_latency,
                    was_l1_hit: true,
                    forwarded: true,
                });
                continue;
            }
            if let Some(out) = self.access(idx, now, AccessKind::Read, mem) {
                self.stats.loads_issued += 1;
                reads += 1;
                self.entries[idx].state = State::Done;
                self.ready_loads -= 1;
                events.push(LsqEvent::LoadResolved {
                    tag,
                    pc,
                    predicted_hit,
                    completes_at: out.completes_at,
                    l1_resolved_at: out.l1_resolved_at,
                    was_l1_hit: out.serviced_by == ServicedBy::L1,
                    forwarded: false,
                });
            }
        }
    }
}

impl chainiq_ckpt::Pack for State {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match self {
            State::WaitingEa => w.put_u8(0),
            State::Ready(at) => {
                w.put_u8(1);
                at.pack(w);
            }
            State::Done => w.put_u8(2),
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        match r.take_u8("LSQ entry state tag")? {
            0 => Ok(State::WaitingEa),
            1 => Ok(State::Ready(Pack::unpack(r)?)),
            2 => Ok(State::Done),
            _ => {
                Err(chainiq_ckpt::CkptError::Corrupt { context: "LSQ entry state tag".to_string() })
            }
        }
    }
}

impl chainiq_ckpt::Pack for LsqEntry {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.tag.pack(w);
        self.pc.pack(w);
        self.addr.pack(w);
        self.is_store.pack(w);
        self.state.pack(w);
        self.committed.pack(w);
        self.predicted_hit.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(LsqEntry {
            tag: Pack::unpack(r)?,
            pc: Pack::unpack(r)?,
            addr: Pack::unpack(r)?,
            is_store: Pack::unpack(r)?,
            state: Pack::unpack(r)?,
            committed: Pack::unpack(r)?,
            predicted_hit: Pack::unpack(r)?,
            retry_at: 0,
        })
    }
}

chainiq_ckpt::pack_fields!(LsqStats {
    loads_issued,
    stores_written,
    forwards,
    disambiguation_stalls,
    mshr_retries
});

impl chainiq_ckpt::Pack for Lsq {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.entries.pack(w);
        self.read_ports.pack(w);
        self.write_ports.pack(w);
        self.stats.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let entries: VecDeque<LsqEntry> = Pack::unpack(r)?;
        // The skip counters are derived state, recomputed rather than
        // serialized so the wire format is unchanged.
        let committed_stores = entries.iter().filter(|e| e.is_store && e.committed).count();
        let ready_loads =
            entries.iter().filter(|e| !e.is_store && matches!(e.state, State::Ready(_))).count();
        Ok(Lsq {
            entries,
            read_ports: Pack::unpack(r)?,
            write_ports: Pack::unpack(r)?,
            stats: Pack::unpack(r)?,
            written: Vec::new(),
            store_addrs: Vec::new(),
            committed_stores,
            ready_loads,
            last_retries: 0,
            last_stalls: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_mem::MemConfig;

    fn mem() -> Hierarchy {
        Hierarchy::new(MemConfig::default())
    }

    /// Test shim: one cycle, events collected into a fresh vec.
    fn run_cycle(lsq: &mut Lsq, now: Cycle, m: &mut Hierarchy) -> Vec<LsqEvent> {
        let mut events = Vec::new();
        lsq.cycle(now, m, &mut events);
        events
    }

    #[test]
    fn load_waits_for_ea() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty());
        lsq.ea_computed(InstTag(0), 2);
        assert!(run_cycle(&mut lsq, 1, &mut m).is_empty(), "EA not ready until cycle 2");
        let ev = run_cycle(&mut lsq, 2, &mut m);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], LsqEvent::LoadResolved { tag: InstTag(0), .. }));
    }

    #[test]
    fn load_blocked_by_unknown_store_address() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false); // older store, EA unknown
        lsq.push(InstTag(1), 0x44, 0x2000, false, false);
        lsq.ea_computed(InstTag(1), 0);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty(), "unknown store blocks the load");
        assert!(lsq.stats().disambiguation_stalls > 0);
        lsq.ea_computed(InstTag(0), 1);
        let ev = run_cycle(&mut lsq, 1, &mut m);
        assert_eq!(ev.len(), 1, "disambiguated: different addresses");
    }

    #[test]
    fn same_address_store_forwards() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.push(InstTag(1), 0x44, 0x1000, false, false);
        lsq.ea_computed(InstTag(0), 0);
        lsq.ea_computed(InstTag(1), 0);
        let ev = run_cycle(&mut lsq, 0, &mut m);
        match ev[0] {
            LsqEvent::LoadResolved { forwarded, was_l1_hit, completes_at, .. } => {
                assert!(forwarded);
                assert!(was_l1_hit);
                assert_eq!(completes_at, 3, "forwarding at L1 latency");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(lsq.stats().forwards, 1);
        assert_eq!(m.stats().l1d.accesses(), 0, "no cache access on a forward");
    }

    #[test]
    fn stores_write_only_after_commit() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.ea_computed(InstTag(0), 0);
        assert!(run_cycle(&mut lsq, 0, &mut m).is_empty(), "uncommitted store does not write");
        lsq.on_commit(InstTag(0));
        let ev = run_cycle(&mut lsq, 1, &mut m);
        assert!(matches!(ev[0], LsqEvent::StoreWritten { tag: InstTag(0) }));
        assert_eq!(lsq.len(), 0, "written store leaves the queue");
    }

    #[test]
    fn committed_load_leaves_queue() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        lsq.ea_computed(InstTag(0), 0);
        run_cycle(&mut lsq, 0, &mut m);
        lsq.on_commit(InstTag(0));
        assert_eq!(lsq.len(), 0);
    }

    #[test]
    fn read_ports_limit_per_cycle() {
        let mut lsq = Lsq::new(2, 2);
        let mut m = mem();
        for i in 0..4u64 {
            lsq.push(InstTag(i), 0x40 + i * 4, 0x1000 + i * 4096, false, false);
            lsq.ea_computed(InstTag(i), 0);
        }
        assert_eq!(run_cycle(&mut lsq, 0, &mut m).len(), 2);
        assert_eq!(run_cycle(&mut lsq, 1, &mut m).len(), 2);
    }

    #[test]
    fn pending_accesses_are_visible() {
        let mut lsq = Lsq::new(8, 8);
        assert!(!lsq.has_pending_access());
        lsq.push(InstTag(0), 0x40, 0x1000, false, false);
        assert!(lsq.has_pending_access());
    }

    #[test]
    fn load_after_store_same_line_different_word_is_not_forwarded() {
        let mut lsq = Lsq::new(8, 8);
        let mut m = mem();
        lsq.push(InstTag(0), 0x40, 0x1000, true, false);
        lsq.push(InstTag(1), 0x44, 0x1008, false, false); // same 64B line, next word
        lsq.ea_computed(InstTag(0), 0);
        lsq.ea_computed(InstTag(1), 0);
        let ev = run_cycle(&mut lsq, 0, &mut m);
        match ev[0] {
            LsqEvent::LoadResolved { forwarded, .. } => assert!(!forwarded),
            other => panic!("{other:?}"),
        }
    }
}
