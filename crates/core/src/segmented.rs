//! The segmented instruction queue (§3) with all §4 enhancements.
//!
//! # Kernel data structures (DESIGN.md §9)
//!
//! The v3 kernel removes every per-cycle sweep and every ordered-tree
//! operation from the cycle loop:
//!
//! - Entries live in a slab (`slots`); the per-segment age lists, the
//!   per-(segment, wire) follower lists and the per-producer waiter
//!   lists are *slab-intrusive* doubly-linked lists threaded through
//!   `u32` prev/next arrays beside the slab — attach, detach and
//!   promotion are O(1) splices ([`crate::slab_list`]).
//! - Self-timed countdowns are *virtual*: an operand stores its
//!   countdown base and the cycle it started ticking (`since`); the
//!   current value is computed on read against `countdown_epoch`, the
//!   cycle whose decrement has logically happened. The old
//!   whole-window decrement sweep is gone.
//! - Promotion eligibility is a per-segment bitset over slab slots,
//!   updated incrementally: signal deliveries recompute the target's
//!   bit, and pure time passage is handled by a *crossing wheel* — the
//!   cycle a ticking entry's delay value first drops below its
//!   segment's threshold is computed in closed form and scheduled on a
//!   calendar queue ([`crate::wheel`]). A cycle with no crossings costs
//!   one empty-bucket probe.
//! - Future readiness records live on a second wheel instead of an
//!   ordered set; matured records are revalidated against the live
//!   entry exactly as before.
//!
//! Every read path is served from these indexes, and every write path
//! keeps them coherent. The kernel has one mode: its reference is
//! `ScanSegmentedIq` in `crates/cpu/tests/scan_iq`, the pre-index scan
//! kernel with its own data structures, which the differential tests run
//! in lockstep with this queue on seeded traffic and in whole pipelines.

use chainiq_isa::{Cycle, OpClass};

use crate::bitset::BitSet;
use crate::slab_list::{self, Link, ListHead, WaiterLists, NIL};
use crate::wheel::Wheel;

use crate::chain::{ChainRef, ChainTable, SignalKind, WireSignal};
use crate::fu::FuPool;
use crate::queue::{IqStats, IssueQueue, IssuedInst, QuietCycle};
use crate::regtable::{RegInfoTable, RegSched};
use crate::stats::SegmentedStats;
use crate::tag::{DataOperands, DispatchInfo, DispatchStall, InstTag, OperandPick};

/// Configuration of a [`SegmentedIq`]. Every §4 enhancement is an
/// independent switch so the ablation benches can isolate each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedIqConfig {
    /// Number of segments (the pipeline depth of the queue).
    pub num_segments: usize,
    /// Instruction slots per segment (the paper uses 32).
    pub segment_size: usize,
    /// Maximum instructions promoted between adjacent segments per cycle
    /// (the paper matches it to the 8-wide issue width).
    pub promote_width: usize,
    /// Chain wires available; `None` models the unlimited-chains queue of
    /// §6.1.
    pub max_chains: Option<usize>,
    /// Enable the §4.1 pushdown mechanism.
    pub pushdown: bool,
    /// Enable the §4.2 dispatch bypass of empty segments.
    pub bypass: bool,
    /// Allow instructions to follow two chains (§3.2). When false, the
    /// dispatch stage's left/right-predictor pick chooses a single chain
    /// (§4.3) and dual-dependence instructions stop consuming chains.
    pub two_chain_tracking: bool,
    /// Enable §4.5 deadlock detection/recovery.
    pub deadlock_recovery: bool,
    /// Predicted latency of a load from issue to value (EA calculation
    /// plus the L1 hit latency; 4 with Table 1 numbers).
    pub predicted_load_latency: i64,
    /// Include the landing segment's descent time in the countdown-based
    /// delay estimates of values that are not chain-tracked. The paper's
    /// §3.1 delay values are pure dataflow estimates (assume immediate
    /// issue); under dispatch backlog that underestimate floods segment 0
    /// with the dependents of HMP-suppressed loads, so the paper-shaped
    /// experiments enable this refinement (see DESIGN.md §4).
    pub countdown_includes_descent: bool,
}

impl SegmentedIqConfig {
    /// The paper's main configuration: `entries / 32` segments of 32
    /// slots, 8-wide promotion, all enhancements on.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive multiple of 32.
    #[must_use]
    pub fn paper(entries: usize, max_chains: Option<usize>) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(32),
            "paper configs are multiples of 32 entries"
        );
        SegmentedIqConfig {
            num_segments: entries / 32,
            segment_size: 32,
            promote_width: 8,
            max_chains,
            pushdown: true,
            bypass: true,
            two_chain_tracking: true,
            deadlock_recovery: true,
            predicted_load_latency: 4,
            countdown_includes_descent: true,
        }
    }

    /// A tiny three-segment queue for unit tests and doc examples.
    #[must_use]
    pub fn small_for_tests() -> Self {
        SegmentedIqConfig {
            num_segments: 3,
            segment_size: 8,
            promote_width: 4,
            max_chains: None,
            pushdown: true,
            bypass: true,
            two_chain_tracking: true,
            deadlock_recovery: true,
            predicted_load_latency: 4,
            countdown_includes_descent: true,
        }
    }

    /// Total instruction slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_segments * self.segment_size
    }

    /// Promotion threshold of segment `j`: an instruction may enter
    /// segment `j` only with a delay value below this (2, 4, 6, … from
    /// the bottom; §3.1).
    #[must_use]
    pub fn threshold(&self, segment: usize) -> i64 {
        2 * (segment as i64 + 1)
    }
}

/// One scheduling operand: the chain-relative position that maintains the
/// entry's delay value. The delay value of §3.1 is `2 * head_loc +
/// rel_latency`; pulses decrement `head_loc`, self-timed mode decrements
/// `rel_latency` every unsuspended cycle.
///
/// The countdown is *virtual*: `rel_latency` is the base value as of
/// cycle `since`, and the current value is `base - (epoch - since)`
/// (floored at zero) whenever the operand is ticking (`self_timed` and
/// not `suspended`). Suspends materialize the elapsed time into the
/// base; resumes and the self-timed transition restart `since` at the
/// current epoch. No per-cycle mutation ever touches the operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedOperand {
    /// Chain listened to, if any (`None` = pure countdown).
    chain: Option<ChainRef>,
    /// Countdown base: expected cycles from head issue to operand
    /// availability, as of cycle `since` while ticking.
    rel_latency: i64,
    /// Head's segment as last observed by this entry.
    head_loc: i64,
    /// Head has issued; `rel_latency` counts down.
    self_timed: bool,
    /// Countdown frozen by a miss (§3.4).
    suspended: bool,
    /// The cycle `rel_latency` is relative to: the countdown has been
    /// decremented for every tick in `(since, epoch]`.
    since: Cycle,
}

impl SchedOperand {
    fn ticking(&self) -> bool {
        self.self_timed && !self.suspended
    }

    /// Remaining relative latency as of `epoch`.
    #[inline]
    fn rel_at(&self, epoch: Cycle) -> i64 {
        if self.ticking() {
            (self.rel_latency - epoch.saturating_sub(self.since) as i64).max(0)
        } else {
            self.rel_latency.max(0)
        }
    }

    /// §3.1 delay value as of `epoch`.
    #[inline]
    fn delay_at(&self, epoch: Cycle) -> i64 {
        2 * self.head_loc.max(0) + self.rel_at(epoch)
    }

    /// Applies a chain-wire signal at `epoch`, materializing the virtual
    /// countdown so the (re)started clock is measured from `epoch`.
    /// Returns whether any state changed — a pulse on an already
    /// self-timed operand, a suspend while suspended or a resume while
    /// running are all no-ops, and the caller can skip the eligibility
    /// recompute for them.
    fn apply_at(&mut self, kind: SignalKind, epoch: Cycle) -> bool {
        match kind {
            SignalKind::Pulse => {
                if self.self_timed {
                    return false;
                }
                if self.head_loc > 0 {
                    self.head_loc -= 1;
                } else {
                    self.self_timed = true;
                    self.since = epoch;
                }
            }
            SignalKind::Suspend => {
                if self.suspended {
                    return false;
                }
                if self.ticking() {
                    self.rel_latency = self.rel_at(epoch);
                }
                self.suspended = true;
            }
            SignalKind::Resume => {
                if !self.suspended {
                    return false;
                }
                if self.self_timed {
                    self.since = epoch;
                }
                self.suspended = false;
            }
        }
        true
    }
}

#[derive(Debug, Clone)]
struct Entry {
    tag: InstTag,
    op: OpClass,
    /// Data readiness, which drives *issue* (the scheduling operands
    /// drive *promotion*).
    data_ops: DataOperands,
    sched_ops: [Option<SchedOperand>; 2],
    heads_chain: Option<ChainRef>,
    /// Cycle this entry last arrived in its segment; an entry cannot be
    /// selected for issue in the same cycle it entered segment 0.
    moved_at: Cycle,
    /// Segment currently holding the entry (kept in sync with the
    /// `segs` lists; 0 = issue buffer).
    seg: usize,
    /// `data_ops.ready_from()`, cached: it changes only under
    /// `announce_ready`.
    ready_cache: Option<Cycle>,
    /// Slot holds a buffered instruction (false = free-listed).
    live: bool,
    /// This entry is included in its segment's `ready_count` (its
    /// `ready_cache` has passed `last_now`).
    counted: bool,
}

impl Entry {
    fn delay_at(&self, epoch: Cycle) -> i64 {
        self.sched_ops.iter().flatten().map(|op| op.delay_at(epoch)).max().unwrap_or(0)
    }

    fn data_ready(&self, now: Cycle) -> bool {
        self.ready_cache.is_some_and(|c| c <= now)
    }

    /// Applies a signal to every operand subscribed to `chain`; reports
    /// whether any of them actually changed state.
    fn apply_signal_at(&mut self, chain: ChainRef, kind: SignalKind, epoch: Cycle) -> bool {
        let mut changed = false;
        for op in self.sched_ops.iter_mut().flatten() {
            if op.chain == Some(chain) {
                changed |= op.apply_at(kind, epoch);
            }
        }
        changed
    }

    /// The first cycle at which this entry's delay value drops below
    /// `th` through pure time passage (every constraining operand is
    /// ticking), or `None` if only a future signal can get it there.
    /// The result depends only on each operand's `(since, base)` pair —
    /// not on when it is computed — which is what makes the scheduled
    /// crossings reproducible across snapshot restore.
    fn crossing_at(&self, th: i64, epoch: Cycle) -> Option<Cycle> {
        let mut latest: Option<Cycle> = None;
        for op in self.sched_ops.iter().flatten() {
            if op.delay_at(epoch) < th {
                continue; // already below: does not constrain the max
            }
            if !op.ticking() {
                return None;
            }
            let h2 = 2 * op.head_loc.max(0);
            if h2 >= th {
                return None; // only a pulse can lower the head term
            }
            // Need h2 + (base - (e - since)) < th; the remaining
            // latency is still positive up to the crossing, so the
            // floor never engages before it: e* = since + base - (th -
            // 1 - h2). `delay >= th` at `epoch` guarantees e* > epoch.
            let e_star = op.since + (op.rel_latency - (th - 1 - h2)) as u64;
            latest = Some(latest.map_or(e_star, |l| l.max(e_star)));
        }
        latest
    }
}

/// No pending eligibility recheck for a slot.
const NO_RECHECK: Cycle = Cycle::MAX;

/// A signal parked in a climb bucket. Its visible segment is implicit —
/// always the index of the bucket holding it (an invariant of the climb:
/// asserts push at their own segment and a hop moves whole buckets one
/// step up) — so only the payload is stored, and a hop never rewrites
/// the signals it moves. Serialization materializes the segment to keep
/// the checkpoint format unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufSig {
    chain: ChainRef,
    kind: SignalKind,
}

/// Splices `slot` into a tag-ordered segment age list, scanning from the
/// tail backward. Dispatch and promotion feed mostly-increasing tags, so
/// the scan almost always stops at the tail. The probe reads the dense
/// tag mirror, not the slab — a long scan stays inside a few cache
/// lines instead of striding across full entries.
fn seg_splice(h: &mut ListHead, links: &mut [Link], tags: &[InstTag], tag: InstTag, slot: u32) {
    let mut after = h.tail;
    while after != NIL && tags[after as usize] > tag {
        after = links[after as usize].prev;
    }
    slab_list::insert_after(h, links, after, slot);
}

/// `seg_splice` with a batch hint: `hint` is the previously spliced slot
/// (or `NIL`), still resident in the same list. A promotion batch feeds
/// ascending tags into a destination list whose tail is young dispatch
/// traffic, so a tail-backward scan re-walks the same suffix for every
/// pick; resuming forward from the previous pick's position makes the
/// whole batch traverse that suffix once. Falls back to the tail scan
/// whenever the hint does not precede the new tag (pushdown picks restart
/// the tag order).
fn seg_splice_hinted(
    h: &mut ListHead,
    links: &mut [Link],
    tags: &[InstTag],
    tag: InstTag,
    slot: u32,
    hint: &mut u32,
) {
    if *hint != NIL && tags[*hint as usize] < tag {
        let mut after = *hint;
        loop {
            let next = links[after as usize].next;
            if next == NIL || tags[next as usize] > tag {
                break;
            }
            after = next;
        }
        slab_list::insert_after(h, links, after, slot);
    } else {
        seg_splice(h, links, tags, tag, slot);
    }
    *hint = slot;
}

/// The segmented instruction queue with chain-based promotion.
///
/// See the [crate-level docs](crate) for the design summary and a usage
/// example, and [`SegmentedIqConfig`] for the switches. Beyond the
/// [`IssueQueue`] contract it exposes [`SegmentedIq::full_stats`]
/// (chain usage, promotion/pushdown/deadlock counters) used by the
/// Table 2 experiments.
#[derive(Debug, Clone)]
pub struct SegmentedIq {
    config: SegmentedIqConfig,
    /// Entry slab: contiguous storage addressed by the slot numbers the
    /// per-segment lists and indexes carry. Slots are recycled LIFO.
    slots: Vec<Entry>,
    /// Dense mirror of each slot's tag (meaningful for live slots only).
    /// The age-list walks — splice probes and promotion picks — read
    /// this instead of the wide slab entries, so a walk touches 8-byte
    /// strides that stay cache-resident.
    slot_tags: Vec<InstTag>,
    free_slots: Vec<u32>,
    /// Per-segment age-list heads, tag-ordered; index 0 is the issue
    /// buffer, higher indices are closer to dispatch. The links live in
    /// `seg_link`, one per slab slot.
    seg_list: Vec<ListHead>,
    seg_link: Vec<Link>,
    /// Residents per segment (the lists don't know their own length).
    seg_len: Vec<usize>,
    /// Follower-list heads per `(segment, wire id)`: the entries of one
    /// segment subscribed to one chain wire, in subscription order
    /// (delivery is per-entry independent, so order is immaterial). The
    /// inner vectors grow with the chain table's wire count.
    fol_heads: Vec<Vec<ListHead>>,
    /// Per-wire occupancy summary: bit `seg & 63` is set when
    /// `fol_heads[seg][id]` is (or may be) non-empty. Most wires have
    /// subscribers in at most one or two segments, so signal delivery
    /// tests this one dense word instead of chasing the per-segment
    /// list head for every hop of the climb. Bits are exact while
    /// `num_segments <= 64`; beyond that, aliased segments only set
    /// (never clear) their shared bit, degrading to a conservative
    /// over-approximation — false positives walk an empty list.
    fol_live: Vec<u64>,
    /// Follower links; node id `2 * slot + k` is slot `slot`'s
    /// subscription for scheduling operand `k`.
    fol_links: Vec<Link>,
    /// Exact chain subscribed per follower node. A signal is delivered
    /// through a node only on an exact generation match, so a stale
    /// subscriber of a recycled wire is skipped rather than double-hit.
    fol_chain: Vec<ChainRef>,
    /// The buffered data operands waiting on each producer's wakeup
    /// announcement, subscribed per slot by [`WaiterLists::subscribe`].
    waiters: WaiterLists,
    /// Data-ready entries per segment, as of `last_now` (the entries with
    /// `counted` set).
    ready_count: Vec<u64>,
    /// Entries whose readiness lies in the future, on a calendar wheel
    /// keyed by `ready_at`. Records can go stale (a later announce moved
    /// the readiness); the drain revalidates against the live entry
    /// instead of erasing eagerly.
    ready_wheel: Wheel<(InstTag, u32)>,
    /// Promotion-eligibility masks, one bitset over slab slots per
    /// segment: bit set ⟺ the resident's delay value is below the
    /// destination threshold. Maintained at attach/detach, at every
    /// signal delivery, and by the crossing wheel for pure time passage.
    elig: Vec<BitSet>,
    /// Scheduled eligibility crossings: `(cycle, slot)` records drained
    /// each tick. A record fires only if it still matches `recheck_at`.
    crossings: Wheel<u32>,
    /// Per-slot guard for `crossings` records: the cycle of the one
    /// valid pending recheck, or [`NO_RECHECK`]. Detach and reschedule
    /// invalidate stale wheel records by moving this aside.
    recheck_at: Vec<Cycle>,
    /// The cycle whose self-timed decrement has logically happened; all
    /// delay-value reads are relative to this.
    countdown_epoch: Cycle,
    /// The cycle the ready counters were last advanced to.
    last_now: Cycle,
    /// Free slots per segment as of the end of the previous cycle — the
    /// information promotion logic is allowed to use (§3.1).
    free_prev: Vec<usize>,
    /// Signals travelling up the pipelined chain wires, bucketed by the
    /// segment they are currently visible in (promotion and dispatch
    /// consult only the buckets that can reach them, instead of scanning
    /// every signal in flight — the dominant cost under heavy chain
    /// traffic).
    sig_bufs: Vec<Vec<BufSig>>,
    /// Per-bucket summary of the chains with a signal in `sig_bufs[s]`:
    /// bit `id mod 256` set for every buffered signal's wire. Promotion
    /// and bypassed dispatch must replay the buckets they move past, but
    /// a mover subscribes to at most two chains — the filter proves the
    /// common "nothing here concerns you" case without scanning the
    /// bucket. False positives (id aliasing) cost a wasted scan; false
    /// negatives cannot happen.
    sig_filter: Vec<[u64; 4]>,
    /// The chain-wire allocator.
    chains: ChainTable,
    /// One register information table per hardware thread context,
    /// grown on demand (index = `DispatchInfo::thread`).
    regs: Vec<RegInfoTable>,
    stats: SegmentedStats,
    /// Whether `select_issue` issued anything in the current cycle
    /// (input to next cycle's deadlock detector).
    issued_this_cycle: bool,
    /// Whether the previous cycle made any progress (issue or promotion).
    progress_last_cycle: bool,
    /// Scratch buffers so the per-cycle hot paths never allocate.
    scratch_pairs: Vec<(InstTag, u32)>,
    scratch_picks: Vec<(InstTag, u32)>,
    scratch_wake: Vec<(InstTag, u32)>,
    scratch_cross: Vec<u32>,
    scratch_slots: Vec<u32>,
}

impl SegmentedIq {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `config` is zero.
    #[must_use]
    pub fn new(config: SegmentedIqConfig) -> Self {
        assert!(config.num_segments > 0 && config.segment_size > 0 && config.promote_width > 0);
        SegmentedIq {
            config,
            slots: Vec::with_capacity(config.capacity()),
            slot_tags: Vec::with_capacity(config.capacity()),
            free_slots: Vec::new(),
            seg_list: vec![ListHead::EMPTY; config.num_segments],
            seg_link: Vec::new(),
            seg_len: vec![0; config.num_segments],
            fol_heads: vec![Vec::new(); config.num_segments],
            fol_live: Vec::new(),
            fol_links: Vec::new(),
            fol_chain: Vec::new(),
            waiters: WaiterLists::default(),
            ready_count: vec![0; config.num_segments],
            ready_wheel: Wheel::new(64),
            elig: vec![BitSet::new(); config.num_segments],
            crossings: Wheel::new(64),
            recheck_at: Vec::new(),
            countdown_epoch: 0,
            last_now: 0,
            free_prev: vec![config.segment_size; config.num_segments],
            sig_bufs: vec![Vec::new(); config.num_segments],
            sig_filter: vec![[0u64; 4]; config.num_segments],
            chains: ChainTable::new(config.max_chains),
            regs: vec![RegInfoTable::new()],
            stats: SegmentedStats::default(),
            issued_this_cycle: false,
            progress_last_cycle: true,
            scratch_pairs: Vec::new(),
            scratch_picks: Vec::new(),
            scratch_wake: Vec::new(),
            scratch_cross: Vec::new(),
            scratch_slots: Vec::new(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SegmentedIqConfig {
        &self.config
    }

    /// Chains currently live.
    #[must_use]
    pub fn live_chains(&self) -> usize {
        self.chains.live()
    }

    /// Number of instructions in segment `k` (0 = issue buffer).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn segment_len(&self, k: usize) -> usize {
        self.seg_len[k]
    }

    /// Finds the slab slot holding `tag`, if buffered (test and
    /// visualization paths; the hot paths carry slots directly).
    fn find_slot(&self, tag: InstTag) -> Option<u32> {
        self.slots.iter().position(|e| e.live && e.tag == tag).map(|s| s as u32)
    }

    /// The current delay value of the queued instruction `tag`, if it is
    /// still buffered (primarily for tests and visualization).
    #[must_use]
    pub fn delay_of(&self, tag: InstTag) -> Option<i64> {
        self.find_slot(tag).map(|s| self.slots[s as usize].delay_at(self.countdown_epoch))
    }

    /// The segment currently holding `tag`, if buffered.
    #[must_use]
    pub fn segment_of(&self, tag: InstTag) -> Option<usize> {
        self.find_slot(tag).map(|s| self.slots[s as usize].seg)
    }

    fn top(&self) -> usize {
        self.config.num_segments - 1
    }

    fn free(&self, k: usize) -> usize {
        self.config.segment_size - self.seg_len[k]
    }

    /// Stores `entry` in a free slab slot and returns the slot number,
    /// growing the parallel link/guard arrays alongside the slab.
    fn alloc_slot(&mut self, entry: Entry) -> u32 {
        let tag = entry.tag;
        if let Some(s) = self.free_slots.pop() {
            debug_assert!(!self.slots[s as usize].live);
            self.slots[s as usize] = entry;
            self.slot_tags[s as usize] = tag;
            s
        } else {
            self.slots.push(entry);
            self.slot_tags.push(tag);
            let n = self.slots.len();
            self.grow_slot_arrays(n);
            (n - 1) as u32
        }
    }

    /// Sizes the slab-parallel link, guard and mask storage for `n`
    /// slots.
    fn grow_slot_arrays(&mut self, n: usize) {
        self.seg_link.resize(n, Link::default());
        self.fol_links.resize(2 * n, Link::default());
        self.fol_chain.resize(2 * n, ChainRef { id: 0, gen: 0 });
        self.waiters.grow(2 * n);
        self.recheck_at.resize(n, NO_RECHECK);
        for b in &mut self.elig {
            b.ensure(n);
        }
    }

    /// Files the live entry in `slot` in every index: the ready wheel
    /// while its readiness lies ahead, its producers' waiter lists, and
    /// (through `attach`) its segment's lists, counters and eligibility.
    /// Dispatch and restore both index entries through here.
    fn index_slot(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        let (tag, data_ops) = (e.tag, e.data_ops);
        if let Some(c) = e.ready_cache.filter(|&c| c > self.last_now) {
            self.ready_wheel.schedule(c, (tag, slot));
        }
        self.waiters.subscribe(slot, &data_ops);
        self.attach(slot);
    }

    /// The distinct chain subscriptions of `ops`: `(operand index,
    /// chain)`, skipping a second operand on the same exact chain (an
    /// entry with both operands on one chain subscribes once). The set
    /// depends only on the immutable `chain` fields, so attach and
    /// detach always agree.
    fn subscriptions(
        ops: &[Option<SchedOperand>; 2],
    ) -> impl Iterator<Item = (usize, ChainRef)> + '_ {
        let first = ops[0].as_ref().and_then(|o| o.chain);
        ops.iter().enumerate().filter_map(move |(k, op)| {
            let chain = op.as_ref().and_then(|o| o.chain)?;
            (k == 0 || Some(chain) != first).then_some((k, chain))
        })
    }

    /// Whether bucket filter `f` may hold a signal for any chain
    /// subscribed by `ops`. No false negatives; a false positive (wire
    /// ids aliasing modulo 256) only costs a wasted bucket scan.
    #[inline]
    fn filter_hits(f: &[u64; 4], ops: &[Option<SchedOperand>; 2]) -> bool {
        Self::subscriptions(ops).any(|(_, chain)| {
            let b = (chain.id & 255) as usize;
            f[b >> 6] & (1u64 << (b & 63)) != 0
        })
    }

    /// Records `chain` in bucket filter `f`.
    #[inline]
    fn filter_add(f: &mut [u64; 4], chain: ChainRef) {
        let b = (chain.id & 255) as usize;
        f[b >> 6] |= 1u64 << (b & 63);
    }

    /// Recomputes the promotion-eligibility bit of an attached `slot`
    /// and (re)schedules its time-only crossing. Idempotent: if nothing
    /// changed, neither the mask nor the wheel is touched — safe to call
    /// redundantly.
    fn recompute_elig(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        let seg = e.seg;
        if seg == 0 {
            return; // the issue buffer has no promotion threshold
        }
        let th = self.config.threshold(seg - 1);
        let epoch = self.countdown_epoch;
        if e.delay_at(epoch) < th {
            self.elig[seg].set(slot);
            self.recheck_at[slot as usize] = NO_RECHECK;
            return;
        }
        self.elig[seg].clear(slot);
        match e.crossing_at(th, epoch) {
            Some(c) if self.recheck_at[slot as usize] != c => {
                self.recheck_at[slot as usize] = c;
                self.crossings.schedule(c, slot);
            }
            Some(_) => {} // the pending recheck is already exactly there
            None => self.recheck_at[slot as usize] = NO_RECHECK,
        }
    }

    /// Inserts `slot` (with `tag` and `seg` already set in its entry)
    /// into the per-segment lists and eligibility mask, and counts it
    /// ready if its entry is.
    fn attach(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        let (tag, seg, counted) = (e.tag, e.seg, e.counted);
        let ops = e.sched_ops;
        seg_splice(&mut self.seg_list[seg], &mut self.seg_link, &self.slot_tags, tag, slot);
        self.seg_len[seg] += 1;
        for (k, chain) in Self::subscriptions(&ops) {
            self.follow(seg, 2 * slot + k as u32, chain);
        }
        if counted {
            self.ready_count[seg] += 1;
        }
        self.recompute_elig(slot);
    }

    /// Appends follower `node` to `chain`'s list in segment `seg`.
    #[inline]
    fn follow(&mut self, seg: usize, node: u32, chain: ChainRef) {
        let id = chain.id as usize;
        let wires = &mut self.fol_heads[seg];
        if wires.len() <= id {
            wires.resize(id + 1, ListHead::EMPTY);
        }
        slab_list::push_back(&mut wires[id], &mut self.fol_links, node);
        self.fol_chain[node as usize] = chain;
        if self.fol_live.len() <= id {
            self.fol_live.resize(id + 1, 0);
        }
        self.fol_live[id] |= 1u64 << (seg & 63);
    }

    /// Unlinks follower `node` from `chain`'s list in segment `seg`.
    #[inline]
    fn unfollow(&mut self, seg: usize, node: u32, chain: ChainRef) {
        let id = chain.id as usize;
        let head = &mut self.fol_heads[seg][id];
        slab_list::remove(head, &mut self.fol_links, node);
        // Only exact bits may be cleared; with more than 64 segments the
        // aliased bit stays set (conservative, still correct).
        if head.is_empty() && self.config.num_segments <= 64 {
            self.fol_live[id] &= !(1u64 << seg);
        }
    }

    /// Removes `slot` from the per-segment lists and eligibility mask
    /// (it stays in the slab, the ready wheel and the waiter lists —
    /// callers either re-attach after moving it or finish with
    /// `remove_fully`).
    fn detach(&mut self, slot: u32) {
        let e = &self.slots[slot as usize];
        let (seg, counted) = (e.seg, e.counted);
        let ops = e.sched_ops;
        slab_list::remove(&mut self.seg_list[seg], &mut self.seg_link, slot);
        self.seg_len[seg] -= 1;
        for (k, chain) in Self::subscriptions(&ops) {
            self.unfollow(seg, 2 * slot + k as u32, chain);
        }
        if counted {
            self.ready_count[seg] -= 1;
        }
        self.elig[seg].clear(slot);
        self.recheck_at[slot as usize] = NO_RECHECK;
    }

    /// Moves an attached `slot` one segment down (`seg` → `seg - 1`) in
    /// a single pass: one age-list re-splice, one follower-node move per
    /// subscription, one ready-count transfer and one eligibility
    /// recompute — the work a detach/attach pair would do twice. The
    /// promotion loop runs this tens of times per cycle under heavy
    /// chain traffic.
    fn move_down(&mut self, slot: u32, now: Cycle, splice_hint: &mut u32) {
        let e = &mut self.slots[slot as usize];
        let (tag, seg, counted) = (e.tag, e.seg, e.counted);
        let dst = seg - 1;
        e.seg = dst;
        e.moved_at = now;
        let ops = e.sched_ops;
        slab_list::remove(&mut self.seg_list[seg], &mut self.seg_link, slot);
        self.seg_len[seg] -= 1;
        seg_splice_hinted(
            &mut self.seg_list[dst],
            &mut self.seg_link,
            &self.slot_tags,
            tag,
            slot,
            splice_hint,
        );
        self.seg_len[dst] += 1;
        for (k, chain) in Self::subscriptions(&ops) {
            let node = 2 * slot + k as u32;
            self.unfollow(seg, node, chain);
            self.follow(dst, node, chain);
        }
        if counted {
            self.ready_count[seg] -= 1;
            self.ready_count[dst] += 1;
        }
        self.elig[seg].clear(slot);
        self.recheck_at[slot as usize] = NO_RECHECK;
        self.recompute_elig(slot);
    }

    /// Removes `slot` from the queue entirely (issue path), returning the
    /// chain its instruction headed, if any. Stale ready-wheel records
    /// are left behind; the drain revalidates liveness.
    fn remove_fully(&mut self, slot: u32) -> Option<ChainRef> {
        self.detach(slot);
        let e = &mut self.slots[slot as usize];
        e.live = false;
        let (heads, data_ops) = (e.heads_chain, e.data_ops);
        self.waiters.unsubscribe(slot, &data_ops);
        self.free_slots.push(slot);
        heads
    }

    /// Re-seats `slot` in the ready accounting after a data-operand
    /// mutation.
    fn refresh_ready(&mut self, slot: u32) {
        let e = &mut self.slots[slot as usize];
        let new = e.data_ops.ready_from();
        if new == e.ready_cache {
            return;
        }
        e.ready_cache = new;
        let (tag, seg, was_counted) = (e.tag, e.seg, e.counted);
        match new {
            Some(c) if c <= self.last_now => {
                if !was_counted {
                    e.counted = true;
                    self.ready_count[seg] += 1;
                }
            }
            Some(c) => {
                if was_counted {
                    e.counted = false;
                    self.ready_count[seg] -= 1;
                }
                self.ready_wheel.schedule(c, (tag, slot));
            }
            None => {
                if was_counted {
                    e.counted = false;
                    self.ready_count[seg] -= 1;
                }
            }
        }
    }

    /// Advances the ready counters to `now`, revalidating each matured
    /// record against the live entry (records outlive re-announces and
    /// issued entries; only a live, still-uncounted, actually-ready
    /// entry is counted — so the wheel's drain order is immaterial).
    fn drain_ready(&mut self, now: Cycle) {
        self.last_now = now;
        let mut matured = std::mem::take(&mut self.scratch_wake);
        matured.clear();
        self.ready_wheel.drain_into(now, &mut matured);
        for &(tag, slot) in &matured {
            let e = &mut self.slots[slot as usize];
            if e.live && e.tag == tag && !e.counted && e.ready_cache.is_some_and(|rc| rc <= now) {
                e.counted = true;
                self.ready_count[e.seg] += 1;
            }
        }
        self.scratch_wake = matured;
    }

    /// Delivers `sig` to the entries of its segment through the wire's
    /// follower list. Eligibility is recomputed wherever the signal
    /// changed operand state; a no-op application leaves the mask and
    /// wheel untouched by definition, so it skips the recompute.
    fn deliver_to_segment(&mut self, sig: WireSignal) {
        let epoch = self.countdown_epoch;
        let id = sig.chain.id as usize;
        // One dense word answers "any subscriber here?" for the common
        // all-empty hop without touching the list heads.
        match self.fol_live.get(id) {
            Some(live) if live & (1u64 << (sig.segment & 63)) != 0 => {}
            _ => {
                return; // no subscriber of this wire in this segment
            }
        }
        let Some(&head) = self.fol_heads[sig.segment].get(id) else {
            return; // no subscriber has ever touched this wire here
        };
        let mut cur = head.head;
        while cur != NIL {
            // Exact-generation match: a subscriber of a released and
            // recycled wire must not be hit by the new chain's signals
            // twice through its two nodes.
            if self.fol_chain[cur as usize] == sig.chain {
                let slot = cur >> 1;
                if self.slots[slot as usize].apply_signal_at(sig.chain, sig.kind, epoch) {
                    self.recompute_elig(slot);
                }
            }
            cur = self.fol_links[cur as usize].next;
        }
    }

    /// Applies a signal to every register table.
    fn deliver_to_regs(&mut self, sig: WireSignal) {
        for t in &mut self.regs {
            t.apply_signal(sig);
        }
    }

    /// Asserts a signal at `segment` this cycle: applies it to the
    /// entries there (and the register table if at the top) and queues it
    /// for upward propagation.
    fn assert_signal(&mut self, chain: ChainRef, kind: SignalKind, segment: usize) {
        self.stats.wire_signal_hops += 1;
        let sig = WireSignal { chain, kind, segment };
        self.deliver_to_segment(sig);
        if segment == self.config.num_segments - 1 {
            self.deliver_to_regs(sig);
        } else {
            self.buffer_signal(segment, BufSig { chain, kind });
        }
    }

    /// Parks `sig` in `segment`'s climb bucket and its filter.
    fn buffer_signal(&mut self, segment: usize, sig: BufSig) {
        Self::filter_add(&mut self.sig_filter[segment], sig.chain);
        self.sig_bufs[segment].push(sig);
    }

    /// Moves the wire signals one segment up and delivers them. Buckets
    /// are processed top-down — oldest signals first, matching the
    /// assert-time order the single-list kernel used (signals in
    /// different buckets land in disjoint segments, so only the
    /// same-bucket order is observable, and that is preserved). Each
    /// bucket moves up wholesale by vector swap — the destination bucket
    /// was drained on the previous iteration — so a signal is written
    /// once at assert and never copied again while it climbs.
    fn propagate_signals(&mut self) {
        let top = self.top();
        for s in (0..top).rev() {
            if self.sig_bufs[s].is_empty() {
                continue;
            }
            self.stats.wire_signal_hops += self.sig_bufs[s].len() as u64;
            let dst = s + 1;
            let buf = std::mem::take(&mut self.sig_bufs[s]);
            for &b in &buf {
                let sig = WireSignal { chain: b.chain, kind: b.kind, segment: dst };
                self.deliver_to_segment(sig);
                if dst >= top {
                    self.deliver_to_regs(sig);
                }
            }
            if dst < top {
                let drained = std::mem::replace(&mut self.sig_bufs[dst], buf);
                self.sig_bufs[s] = drained;
                self.sig_filter[dst] = self.sig_filter[s];
            } else {
                // Top arrivals went to the register tables; keep the
                // allocation for future asserts.
                let mut buf = buf;
                buf.clear();
                self.sig_bufs[s] = buf;
            }
            self.sig_filter[s] = [0u64; 4];
        }
    }

    /// Fires the eligibility rechecks that matured by `now`. Each record
    /// is guarded by `recheck_at` (stale records from detached or
    /// rescheduled slots are skipped) and the handler is a pure
    /// recompute, so drain order and redundant firings are immaterial.
    fn drain_crossings(&mut self, now: Cycle) {
        let mut matured = std::mem::take(&mut self.scratch_cross);
        matured.clear();
        self.crossings.drain_into(now, &mut matured);
        for &slot in &matured {
            // `recheck_at` holds the cycle of the one valid record per
            // slot; anything else on the wheel is stale.
            if self.recheck_at[slot as usize] <= now {
                self.recheck_at[slot as usize] = NO_RECHECK;
                self.recompute_elig(slot);
            }
        }
        self.scratch_cross = matured;
    }

    /// Selects up to `budget` entries of `seg` for promotion: eligible
    /// (delay below the destination threshold) oldest-first, then — if
    /// pushdown applies — oldest ineligible entries. It reads the
    /// incrementally-maintained eligibility mask, whose bits are exactly
    /// `delay < threshold` at the current epoch, in age-list order.
    fn choose_promotions_into(&self, seg: usize, budget: usize, picks: &mut Vec<(InstTag, u32)>) {
        if self.elig[seg].any() {
            // The eligible set routinely exceeds the budget (free space
            // in the destination, not eligibility, is the usual limit),
            // so walking the tag-ordered age list probing bits — and
            // stopping at `budget` — beats collecting the whole set off
            // the mask and sorting it.
            let mut cur = self.seg_list[seg].head;
            while cur != NIL && picks.len() < budget {
                if self.elig[seg].get(cur) {
                    picks.push((self.slot_tags[cur as usize], cur));
                }
                cur = self.seg_link[cur as usize].next;
            }
        }
        if self.pushdown_applies(seg, budget, picks.len()) {
            let mut room = (budget - picks.len()).min(self.config.promote_width);
            let mut cur = self.seg_list[seg].head;
            while cur != NIL && room > 0 {
                if !self.elig[seg].get(cur) {
                    picks.push((self.slot_tags[cur as usize], cur));
                    room -= 1;
                }
                cur = self.seg_link[cur as usize].next;
            }
        }
    }

    fn pushdown_applies(&self, seg: usize, budget: usize, picked: usize) -> bool {
        self.config.pushdown
            && picked < budget
            && self.free(seg) < self.config.promote_width
            && self.free_prev[seg - 1] * 2 > 3 * self.config.promote_width
    }

    /// Moves `slot` from `seg` to `seg - 1`, asserting the chain wire if
    /// it heads a chain. `splice_hint` carries the destination-list
    /// position between the picks of one batch (see `seg_splice_hinted`);
    /// callers reset it to `NIL` per destination list.
    fn promote_one(
        &mut self,
        now: Cycle,
        seg: usize,
        slot: u32,
        pushdown: bool,
        splice_hint: &mut u32,
    ) {
        // A promotion moves against the upward-travelling wire signals: a
        // signal currently visible in the destination segment would reach
        // the source segment next cycle and miss the mover, so deliver it
        // on the way past (exactly the `seg - 1` bucket). The application
        // is position-independent, so it happens before the move.
        let epoch = self.countdown_epoch;
        let ops = self.slots[slot as usize].sched_ops;
        if Self::filter_hits(&self.sig_filter[seg - 1], &ops) {
            for i in 0..self.sig_bufs[seg - 1].len() {
                let b = self.sig_bufs[seg - 1][i];
                self.slots[slot as usize].apply_signal_at(b.chain, b.kind, epoch);
            }
        }
        let heads_chain = self.slots[slot as usize].heads_chain;
        self.move_down(slot, now, splice_hint);
        // The mover left `seg` before its pulse is asserted there, so it
        // cannot receive its own pulse (§3.3); the pulse is delivered to
        // the entries staying behind and buffered for the climb.
        if let Some(chain) = heads_chain {
            self.assert_signal(chain, SignalKind::Pulse, seg);
        }
        if pushdown {
            self.stats.pushdowns += 1;
        } else {
            self.stats.promotions += 1;
        }
    }

    fn run_promotion(&mut self, now: Cycle) -> u64 {
        let mut promoted = 0u64;
        let mut picks = std::mem::take(&mut self.scratch_picks);
        for seg in 1..self.config.num_segments {
            let space = self.free_prev[seg - 1].min(self.free(seg - 1));
            let budget = space.min(self.config.promote_width);
            if budget == 0 {
                continue;
            }
            let threshold = self.config.threshold(seg - 1);
            picks.clear();
            self.choose_promotions_into(seg, budget, &mut picks);
            let mut splice_hint = NIL;
            for &(_, slot) in &picks {
                // Re-read the live delay: an earlier pick's pulse this
                // cycle may have changed it since the pick was made.
                let is_pushdown =
                    self.slots[slot as usize].delay_at(self.countdown_epoch) >= threshold;
                self.promote_one(now, seg, slot, is_pushdown, &mut splice_hint);
                promoted += 1;
            }
        }
        self.scratch_picks = picks;
        promoted
    }

    /// §4.5 recovery: guarantee a free slot in every segment and keep the
    /// oldest ready instruction moving toward issue.
    fn run_deadlock_recovery(&mut self, now: Cycle) {
        self.drain_ready(now);
        self.stats.deadlock_cycles += 1;
        // If the issue buffer is full of unready instructions, recycle
        // the youngest back to the top.
        let mut recycled: Option<u32> = None;
        if self.free(0) == 0 && self.ready_count[0] == 0 {
            // The age list is tag-ordered, so the youngest is the tail.
            let slot = self.seg_list[0].tail;
            if slot != NIL {
                self.detach(slot);
                recycled = Some(slot);
                self.stats.recovery_recycles += 1;
            }
        }
        // Bottom-up, every full segment force-promotes one instruction
        // (eligible if available, else the oldest ineligible).
        let epoch = self.countdown_epoch;
        for seg in 1..self.config.num_segments {
            if self.free(seg) > 0 || self.free(seg - 1) == 0 {
                continue;
            }
            let threshold = self.config.threshold(seg - 1);
            let mut pick = None;
            let mut cur = self.seg_list[seg].head;
            while cur != NIL {
                if self.slots[cur as usize].delay_at(epoch) < threshold {
                    pick = Some(cur);
                    break;
                }
                cur = self.seg_link[cur as usize].next;
            }
            if pick.is_none() && self.seg_list[seg].head != NIL {
                pick = Some(self.seg_list[seg].head);
            }
            if let Some(slot) = pick {
                let mut splice_hint = NIL;
                self.promote_one(now, seg, slot, false, &mut splice_hint);
                self.stats.recovery_promotions += 1;
            }
        }
        if let Some(slot) = recycled {
            let top = self.top();
            // Recovery freed a slot in the top segment if it was full.
            // The recycled entry keeps its `moved_at` and sees no
            // in-flight signals, exactly as the scan kernel moved it.
            let dest = (0..=top).rev().find(|&k| self.free(k) > 0).unwrap_or(top);
            self.slots[slot as usize].seg = dest;
            self.attach(slot);
        }
    }

    /// Adds `cycles` samples of the per-cycle statistics, each of the
    /// state as it stands now, from the maintained counters (`drain_ready`
    /// has already brought the ready counts up to the current cycle).
    fn sample_stats(&mut self, cycles: u64) {
        let mut occupancy = 0u64;
        let mut empty = 0u64;
        for &len in &self.seg_len {
            occupancy += len as u64;
            if len == 0 {
                empty += 1;
            }
        }
        let ready_all: u64 = self.ready_count.iter().sum();
        self.stats.iq.cycles += cycles;
        self.stats.iq.occupancy_accum += cycles * occupancy;
        self.stats.seg0_occupancy_accum += cycles * self.seg_len[0] as u64;
        self.stats.num_segments = self.config.num_segments;
        self.stats.empty_segment_cycles += cycles * empty;
        self.stats.ready_in_seg0_accum += cycles * self.ready_count[0];
        self.stats.ready_total_accum += cycles * ready_all;
        self.chains.sample(cycles);
    }

    /// Builds the scheduling operand for one source register, from the
    /// register information table. A ticking operand starts its virtual
    /// countdown at the dispatch cycle `now`.
    fn sched_for(&self, sched: RegSched, now: Cycle) -> Option<SchedOperand> {
        match sched {
            RegSched::Available => None,
            RegSched::Countdown { remaining } => Some(SchedOperand {
                chain: None,
                rel_latency: remaining,
                head_loc: 0,
                self_timed: true,
                suspended: false,
                since: now,
            }),
            RegSched::OnChain { chain, latency, head_loc, self_timed, suspended } => {
                Some(SchedOperand {
                    chain: Some(chain),
                    rel_latency: latency,
                    head_loc: if self_timed { 0 } else { head_loc },
                    self_timed,
                    suspended,
                    since: now,
                })
            }
        }
    }

    /// Predicted produce latency of an instruction (loads use the
    /// configured hit latency; §3.3).
    fn predicted_latency(&self, op: OpClass) -> i64 {
        if op == OpClass::Load {
            self.config.predicted_load_latency
        } else {
            i64::from(op.exec_latency())
        }
    }

    /// The §4.2 dispatch target: the highest non-empty segment (empty
    /// leading segments are bypassed), or the segment above it when full.
    fn dispatch_target(&self) -> Option<usize> {
        let top = self.top();
        if !self.config.bypass {
            return (self.free(top) > 0).then_some(top);
        }
        let highest_nonempty = (0..=top).rev().find(|&k| self.seg_len[k] > 0).unwrap_or(0);
        if self.free(highest_nonempty) > 0 {
            Some(highest_nonempty)
        } else if highest_nonempty < top {
            Some(highest_nonempty + 1)
        } else {
            None
        }
    }
}

impl IssueQueue for SegmentedIq {
    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn occupancy(&self) -> usize {
        self.seg_len.iter().sum()
    }

    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        // Snapshot each segment's free-slot count as of the end of the
        // previous cycle (= start of this one, after last cycle's issue
        // and dispatch) — the information §3.1 allows promotion to use.
        for k in 0..self.config.num_segments {
            self.free_prev[k] = self.free(k);
        }
        self.drain_ready(now);
        self.sample_stats(1);

        // 1. Signals asserted last cycle move one segment up (delivered
        //    against the previous cycle's epoch: suspends gate this
        //    cycle's decrement).
        self.propagate_signals();

        // 2. This cycle's self-timed decrement happens *virtually*:
        //    advancing the epoch is the whole-window countdown tick.
        self.countdown_epoch = now;
        for t in &mut self.regs {
            t.tick();
        }

        // 3. Eligibility crossings that matured by the new epoch.
        self.drain_crossings(now);

        // 4. Chain/threshold-driven promotion.
        let promoted = self.run_promotion(now);

        // 4. Deadlock detection (§4.5): queue non-empty, nothing issued
        //    or promoted, nothing executing.
        let made_progress = promoted > 0 || self.issued_this_cycle;
        if self.config.deadlock_recovery
            && !made_progress
            && !self.progress_last_cycle
            && execution_idle
            && !self.is_empty()
        {
            self.run_deadlock_recovery(now);
        }
        self.progress_last_cycle = made_progress;
        self.issued_this_cycle = false;
    }

    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        // Find a landing segment before committing to anything.
        let Some(target) = self.dispatch_target() else {
            self.stats.iq.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        };

        // Operand scheduling status, from this thread's register
        // information table.
        let thread = info.thread as usize;
        if thread >= self.regs.len() {
            self.regs.resize_with(thread + 1, RegInfoTable::new);
        }
        let mut srcs: [Option<RegSched>; 2] = [None, None];
        for (i, s) in info.srcs.iter().enumerate() {
            if let Some(s) = s {
                srcs[i] = Some(self.regs[thread].get(s.reg));
            }
        }
        let chain_of = |s: &RegSched| match s {
            RegSched::OnChain { chain, .. } => Some(*chain),
            _ => None,
        };
        let mut chains_seen: [Option<ChainRef>; 2] = [None, None];
        let mut n_chains = 0usize;
        for s in srcs.iter().flatten() {
            if let Some(c) = chain_of(s) {
                chains_seen[n_chains] = Some(c);
                n_chains += 1;
            }
        }
        let dual_dep = n_chains == 2 && chains_seen[0] != chains_seen[1];

        let is_load = info.op == OpClass::Load;
        let load_heads_chain = is_load && !info.predicted_hit;
        let dual_heads_chain = dual_dep && self.config.two_chain_tracking;
        let needs_chain = load_heads_chain || dual_heads_chain;

        // Allocate the chain wire (the only other stall source).
        let heads_chain = if needs_chain {
            match self.chains.alloc(info.tag, is_load) {
                Some(c) => Some(c),
                None => {
                    self.chains.note_wire_stalls(1);
                    self.stats.iq.stalls_no_chain += 1;
                    return Err(DispatchStall::NoChainWire);
                }
            }
        } else {
            None
        };

        // Build scheduling operands; under single-chain tracking (§4.3)
        // keep only the predicted-critical chain when two would be needed.
        let mut sched_ops: [Option<SchedOperand>; 2] = [None, None];
        if dual_dep && !self.config.two_chain_tracking {
            let pick = info.lrp_pick.unwrap_or(OperandPick::Left);
            let keep = match pick {
                OperandPick::Left => (0..2).find(|&i| srcs[i].is_some()).unwrap_or(0),
                OperandPick::Right => (0..2).rev().find(|&i| srcs[i].is_some()).unwrap_or(0),
            };
            for (i, s) in srcs.iter().enumerate() {
                if let Some(s) = s {
                    if i == keep || chain_of(s).is_none() {
                        sched_ops[i] = self.sched_for(*s, now);
                    }
                }
            }
        } else {
            for (i, s) in srcs.iter().enumerate() {
                if let Some(s) = s {
                    sched_ops[i] = self.sched_for(*s, now);
                }
            }
        }

        // Update the register information table for the destination.
        if let Some(dest) = info.dest {
            let produce = self.predicted_latency(info.op);
            // Countdown estimates assume the instruction issues as soon
            // as its operands are ready; optionally add the descent time
            // of the landing segment (see `countdown_includes_descent`).
            // Load values use the chain-style two-cycles-per-segment
            // estimate (their dependents flooding segment 0 is the §4.4
            // failure mode); cheap ALU values stay optimistic so address
            // computations are not held back.
            let descent = if self.config.countdown_includes_descent {
                if info.op == OpClass::Load {
                    2 * target as i64
                } else {
                    target as i64
                }
            } else {
                0
            };
            let new_sched = if let Some(chain) = heads_chain {
                RegSched::OnChain {
                    chain,
                    latency: produce,
                    head_loc: target as i64,
                    self_timed: false,
                    suspended: false,
                }
            } else {
                // Follow the slowest operand (freshly built: `since` is
                // `now`, so `delay_at(now)` is the undecayed delay).
                let slowest = sched_ops.iter().flatten().max_by_key(|o| o.delay_at(now)).copied();
                match slowest {
                    None => RegSched::Countdown { remaining: descent.max(0) + produce },
                    Some(op) => match op.chain {
                        None => RegSched::Countdown {
                            remaining: op.delay_at(now).max(descent) + produce,
                        },
                        // Keep listening on the chain even in self-timed
                        // mode so suspend/resume reaches dependents'
                        // dependents.
                        Some(chain) => RegSched::OnChain {
                            chain,
                            latency: op.rel_latency.max(0) + produce,
                            head_loc: op.head_loc,
                            self_timed: op.self_timed,
                            suspended: op.suspended,
                        },
                    },
                }
            };
            self.regs[thread].set(dest, new_sched);
        }

        // Statistics.
        self.stats.iq.dispatched += 1;
        if info.num_srcs() == 2 {
            self.stats.two_src_dispatches += 1;
        }
        if dual_dep {
            self.stats.dual_dep_dispatches += 1;
        }
        if self.config.bypass && target < self.top() {
            self.stats.bypassed_dispatches += 1;
            self.stats.segments_bypassed += (self.top() - target) as u64;
        }

        let mut entry = Entry {
            tag: info.tag,
            op: info.op,
            data_ops: DataOperands::from_srcs(&info.srcs),
            sched_ops,
            heads_chain,
            moved_at: now,
            seg: target,
            ready_cache: None,
            live: true,
            counted: false,
        };
        // The register table lags the wire pipeline: signals between the
        // landing segment and the top have been seen by neither the table
        // nor (ever again) this segment. Deliver them now so a bypassed
        // dispatch starts from the state a resident entry would hold
        // (top-down = assert-time order, as the single-list kernel
        // applied them).
        let epoch = self.countdown_epoch;
        for s in (target..self.top()).rev() {
            if !Self::filter_hits(&self.sig_filter[s], &entry.sched_ops) {
                continue;
            }
            for sig in &self.sig_bufs[s] {
                entry.apply_signal_at(sig.chain, sig.kind, epoch);
            }
        }
        entry.ready_cache = entry.data_ops.ready_from();
        entry.counted = entry.ready_cache.is_some_and(|c| c <= self.last_now);
        let slot = self.alloc_slot(entry);
        self.index_slot(slot);
        Ok(())
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::new();
        self.select_issue_into(now, fus, &mut issued);
        issued
    }

    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.drain_ready(now);
        // With no data-ready entry in the issue buffer nothing can issue,
        // so the walk is skipped.
        if self.ready_count[0] == 0 {
            return;
        }
        let mut ready = std::mem::take(&mut self.scratch_pairs);
        ready.clear();
        // Tag-order walk of the issue buffer's age list: oldest-first
        // selection, as the scan reference sorts its candidates.
        let mut cur = self.seg_list[0].head;
        while cur != NIL {
            let e = &self.slots[cur as usize];
            if e.data_ready(now) && e.moved_at < now {
                ready.push((e.tag, cur));
            }
            cur = self.seg_link[cur as usize].next;
        }
        let before = out.len();
        for &(tag, slot) in &ready {
            let op = self.slots[slot as usize].op;
            if fus.slots_left() == 0 {
                break;
            }
            if !fus.try_issue(now, op) {
                continue; // unit busy; try other op kinds
            }
            if let Some(chain) = self.remove_fully(slot) {
                self.assert_signal(chain, SignalKind::Pulse, 0);
            }
            out.push(IssuedInst { tag, op });
        }
        self.scratch_pairs = ready;
        let issued = (out.len() - before) as u64;
        self.stats.iq.issued += issued;
        if issued > 0 {
            self.issued_this_cycle = true;
        }
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        let mut cur = self.waiters.first(producer);
        while let Some(node) = cur {
            let slot = node >> 1;
            if self.slots[slot as usize].data_ops.announce(producer, ready_at) {
                self.refresh_ready(slot);
            }
            cur = self.waiters.next(node);
        }
    }

    fn on_load_miss(&mut self, tag: InstTag) {
        if let Some(chain) = self.chains.chain_of_head(tag) {
            self.assert_signal(chain, SignalKind::Suspend, 0);
        }
    }

    fn on_load_fill(&mut self, tag: InstTag) {
        if let Some(chain) = self.chains.chain_of_head(tag) {
            self.assert_signal(chain, SignalKind::Resume, 0);
        }
    }

    fn on_writeback(&mut self, tag: InstTag) {
        self.chains.release_by_head(tag);
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.slot_tags.clear();
        self.free_slots.clear();
        // Drop the slab-parallel link storage with the slab itself.
        for h in &mut self.seg_list {
            *h = ListHead::EMPTY;
        }
        self.seg_link.clear();
        self.seg_len.fill(0);
        for heads in &mut self.fol_heads {
            heads.clear();
        }
        self.fol_live.clear();
        self.fol_links.clear();
        self.fol_chain.clear();
        self.waiters.clear();
        self.ready_count.fill(0);
        self.ready_wheel.reset(self.last_now);
        self.crossings.reset(self.last_now);
        self.recheck_at.clear();
        for e in &mut self.elig {
            e.clear_all();
        }
        for b in &mut self.sig_bufs {
            b.clear();
        }
        self.sig_filter.fill([0u64; 4]);
        self.chains.release_all();
        for t in &mut self.regs {
            t.reset();
        }
    }

    fn stats(&self) -> IqStats {
        self.stats.iq
    }

    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        let next = quiet.now + 1;
        // Acts next cycle: a data-ready issue-buffer entry may issue, a
        // buffered signal climbs, the §4.5 detector may fire, or a
        // promotion is possible. Next tick's promotion budget reads the
        // free counts as they stand now (that is what `free_prev` will
        // snapshot).
        let promotion_possible = (1..self.config.num_segments).any(|seg| {
            let budget = self.free(seg - 1).min(self.config.promote_width);
            budget > 0
                && (self.elig[seg].any()
                    || (self.config.pushdown
                        && self.seg_len[seg] > 0
                        && self.free(seg) < self.config.promote_width
                        && self.free(seg - 1) * 2 > 3 * self.config.promote_width))
        });
        if self.ready_count[0] > 0
            || self.sig_bufs.iter().any(|b| !b.is_empty())
            || (self.config.deadlock_recovery && quiet.execution_idle && !self.is_empty())
            || promotion_possible
        {
            return next;
        }
        // Otherwise only time moves the queue: a readiness record
        // maturing, an eligibility crossing, and — for a dispatch refused
        // a chain wire — a chain-tracked register counting down to
        // available, which changes the chains the instruction must head.
        let mut at = self.crossings.next_due(self.ready_wheel.next_due(Cycle::MAX));
        if quiet.refused == Some(DispatchStall::NoChainWire) {
            if let Some(ticks) = self.regs.iter().filter_map(RegInfoTable::chain_expiry).min() {
                at = at.min(quiet.now + ticks);
            }
        }
        at.max(next)
    }

    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        let to = quiet.now + k;
        // `k` ticks with nothing due all sample the state as it stands.
        self.sample_stats(k);
        for seg in 0..self.config.num_segments {
            self.free_prev[seg] = self.free(seg);
        }
        self.last_now = to;
        self.countdown_epoch = to;
        for t in &mut self.regs {
            t.tick_n(k);
        }
        self.progress_last_cycle = false;
        self.issued_this_cycle = false;
        match quiet.refused {
            Some(DispatchStall::QueueFull) => self.stats.iq.stalls_full += k,
            Some(DispatchStall::NoChainWire) => {
                self.chains.note_wire_stalls(k);
                self.stats.iq.stalls_no_chain += k;
            }
            None => {}
        }
    }
}

impl SegmentedIq {
    /// Snapshot of the full segmented statistics, including chain usage.
    #[must_use]
    pub fn full_stats(&self) -> SegmentedStats {
        let mut s = self.stats.clone();
        s.chains = *self.chains.stats();
        s
    }
}

chainiq_ckpt::pack_fields!(SegmentedIqConfig {
    num_segments,
    segment_size,
    promote_width,
    max_chains,
    pushdown,
    bypass,
    two_chain_tracking,
    deadlock_recovery,
    predicted_load_latency,
    countdown_includes_descent
});

chainiq_ckpt::pack_fields!(SchedOperand {
    chain,
    rel_latency,
    head_loc,
    self_timed,
    suspended,
    since
});

chainiq_ckpt::pack_fields!(Entry {
    tag,
    op,
    data_ops,
    sched_ops,
    heads_chain,
    moved_at,
    seg,
    ready_cache,
    live,
    counted
});

impl chainiq_ckpt::Snapshot for SegmentedIq {
    const COMPONENT: &'static str = "core.segmented";
    const VERSION: u16 = 2;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        // V2 serializes *canonical* state only: the slab (whose entries
        // carry segment, operands and readiness), the free-list order,
        // the clocks and the wire/chain/register machinery. Every index —
        // age lists, follower and waiter lists, eligibility masks, both
        // wheels, ready counts — is a pure function of that state and is
        // rebuilt on restore. Scratch buffers are transient and are not
        // serialized.
        self.config.pack(w);
        self.slots.pack(w);
        self.free_slots.pack(w);
        self.last_now.pack(w);
        self.countdown_epoch.pack(w);
        self.free_prev.pack(w);
        // The climb keeps each buffered signal's segment implicit (== its
        // bucket index); serialization materializes it, emitting exactly
        // the V2 `Vec<Vec<WireSignal>>` byte layout.
        self.sig_bufs.len().pack(w);
        for (s, buf) in self.sig_bufs.iter().enumerate() {
            buf.len().pack(w);
            for b in buf {
                b.chain.pack(w);
                b.kind.pack(w);
                s.pack(w);
            }
        }
        self.chains.pack(w);
        self.regs.pack(w);
        self.stats.pack(w);
        self.issued_this_cycle.pack(w);
        self.progress_last_cycle.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let corrupt =
            |context: &str| chainiq_ckpt::CkptError::Corrupt { context: context.to_string() };
        let config: SegmentedIqConfig = Pack::unpack(r)?;
        if config != self.config {
            return Err(corrupt("segmented IQ config differs from the running queue"));
        }
        let slots: Vec<Entry> = Pack::unpack(r)?;
        let free_slots: Vec<u32> = Pack::unpack(r)?;
        let last_now: Cycle = Pack::unpack(r)?;
        let countdown_epoch: Cycle = Pack::unpack(r)?;
        let free_prev: Vec<usize> = Pack::unpack(r)?;
        let sig_bufs: Vec<Vec<WireSignal>> = Pack::unpack(r)?;
        let chains: ChainTable = Pack::unpack(r)?;
        let regs: Vec<RegInfoTable> = Pack::unpack(r)?;
        let stats: SegmentedStats = Pack::unpack(r)?;
        let issued_this_cycle: bool = Pack::unpack(r)?;
        let progress_last_cycle: bool = Pack::unpack(r)?;

        let n = config.num_segments;
        if free_prev.len() != n || sig_bufs.len() != n {
            return Err(corrupt("segmented IQ per-segment vector lengths"));
        }
        if regs.is_empty() {
            return Err(corrupt("segmented IQ without a register table"));
        }
        if countdown_epoch != last_now {
            // Snapshots are only taken between cycles, where the virtual
            // countdown clock has caught up with the drain clock.
            return Err(corrupt("countdown epoch disagrees with the queue clock"));
        }
        for e in slots.iter().filter(|e| e.live) {
            if e.seg >= n {
                return Err(corrupt("slab entry names an out-of-range segment"));
            }
            if e.counted != e.ready_cache.is_some_and(|c| c <= last_now) {
                return Err(corrupt("ready count flag disagrees with the readiness cache"));
            }
        }
        chainiq_ckpt::check_free_list(slots.iter().map(|e| e.live), &free_slots)?;
        // Buffered signals are canonical only up to the climb invariant:
        // a signal's visible segment is the bucket holding it.
        for (s, buf) in sig_bufs.iter().enumerate() {
            if buf.iter().any(|sig| sig.segment != s) {
                return Err(corrupt("buffered wire signal outside its climb bucket"));
            }
        }

        // Empty every index at the image's clock, install the canonical
        // state, then index each live slot the way dispatch does. Slot
        // order makes every list and wheel bucket the same on each
        // restore; age lists come out tag-ordered either way.
        self.last_now = last_now;
        self.flush();
        self.slots = slots;
        self.slot_tags = self.slots.iter().map(|e| e.tag).collect();
        self.free_slots = free_slots;
        self.countdown_epoch = countdown_epoch;
        self.free_prev = free_prev;
        for (s, buf) in sig_bufs.into_iter().enumerate() {
            for sig in buf {
                self.buffer_signal(s, BufSig { chain: sig.chain, kind: sig.kind });
            }
        }
        self.chains = chains;
        self.regs = regs;
        self.stats = stats;
        self.issued_this_cycle = issued_this_cycle;
        self.progress_last_cycle = progress_last_cycle;
        let nslots = self.slots.len();
        self.grow_slot_arrays(nslots);
        for slot in 0..nslots as u32 {
            if self.slots[slot as usize].live {
                self.index_slot(slot);
            }
        }
        if self.seg_len.iter().any(|&l| l > config.segment_size) {
            return Err(corrupt("overfull segment in checkpoint"));
        }
        self.scratch_pairs.clear();
        self.scratch_picks.clear();
        self.scratch_wake.clear();
        self.scratch_cross.clear();
        self.scratch_slots.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::SrcOperand;
    use chainiq_isa::ArchReg;

    fn cfg3x8() -> SegmentedIqConfig {
        SegmentedIqConfig::small_for_tests()
    }

    fn ready_src(reg: ArchReg) -> SrcOperand {
        SrcOperand::ready(reg)
    }

    fn dep_src(reg: ArchReg, producer: InstTag) -> SrcOperand {
        SrcOperand { reg, producer: Some(producer), known_ready_at: None }
    }

    /// Drives the queue until `want` instructions have issued or `limit`
    /// cycles pass, announcing fixed-latency completions automatically.
    fn run_until_issued(iq: &mut SegmentedIq, want: usize, limit: u64) -> Vec<(InstTag, Cycle)> {
        let mut fus = FuPool::table1();
        let mut issued = Vec::new();
        for now in 1..=limit {
            iq.tick(now, issued.len() == want);
            for sel in iq.select_issue(now, &mut fus) {
                iq.announce_ready(sel.tag, now + u64::from(sel.op.exec_latency()));
                issued.push((sel.tag, now));
            }
            fus.next_cycle();
            if issued.len() >= want {
                break;
            }
        }
        issued
    }

    #[test]
    fn capacity_and_threshold() {
        let c = SegmentedIqConfig::paper(512, Some(128));
        assert_eq!(c.num_segments, 16);
        assert_eq!(c.capacity(), 512);
        assert_eq!(c.threshold(0), 2);
        assert_eq!(c.threshold(1), 4);
        assert_eq!(c.threshold(7), 16);
    }

    #[test]
    fn empty_queue_dispatch_bypasses_to_issue_buffer() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        assert_eq!(iq.segment_of(InstTag(0)), Some(0), "bypass all empty segments");
        assert_eq!(iq.full_stats().bypassed_dispatches, 1);
        assert_eq!(iq.full_stats().segments_bypassed, 2);
    }

    #[test]
    fn bypass_disabled_dispatches_to_top() {
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        assert_eq!(iq.segment_of(InstTag(0)), Some(2));
    }

    #[test]
    fn ready_chain_promotes_and_issues_in_order() {
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        let issued = run_until_issued(&mut iq, 1, 20);
        assert_eq!(issued.len(), 1);
        // Two promotions (seg2 -> seg1 -> seg0) then issue: 3 cycles.
        assert_eq!(issued[0].1, 3);
    }

    #[test]
    fn dependent_issues_after_producer() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntMul, ArchReg::int(1), &[]))
            .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::IntAlu,
                ArchReg::int(2),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        let issued = run_until_issued(&mut iq, 2, 30);
        assert_eq!(issued.len(), 2);
        let (t0, c0) = issued[0];
        let (t1, c1) = issued[1];
        assert_eq!((t0, t1), (InstTag(0), InstTag(1)));
        assert!(c1 >= c0 + 3, "IntMul takes 3 cycles; dependent at {c1} vs producer at {c0}");
    }

    #[test]
    fn back_to_back_single_cycle_chain() {
        let mut iq = SegmentedIq::new(cfg3x8());
        // A chain of dependent 1-cycle adds should issue on consecutive cycles.
        for i in 0..4u64 {
            let srcs: Vec<SrcOperand> =
                if i == 0 { vec![] } else { vec![dep_src(ArchReg::int(i as u8), InstTag(i - 1))] };
            iq.dispatch(
                0,
                DispatchInfo::compute(
                    InstTag(i),
                    OpClass::IntAlu,
                    ArchReg::int(i as u8 + 1),
                    &srcs,
                ),
            )
            .unwrap();
        }
        let issued = run_until_issued(&mut iq, 4, 30);
        assert_eq!(issued.len(), 4);
        for w in issued.windows(2) {
            assert_eq!(w[1].1, w[0].1 + 1, "dependent adds must issue back-to-back");
        }
    }

    #[test]
    fn figure1_delay_values() {
        // The paper's Figure 1: delays computed at dispatch, with ADD
        // latency 1 and "MUL" latency 2 (we use FpAdd for the 2-cycle op).
        let mut iq = SegmentedIq::new(SegmentedIqConfig {
            num_segments: 3,
            segment_size: 16,
            promote_width: 8,
            max_chains: None,
            pushdown: false,
            bypass: false,
            deadlock_recovery: true,
            two_chain_tracking: true,
            predicted_load_latency: 4,
            countdown_includes_descent: false,
        });
        let r = ArchReg::int;
        let add = OpClass::IntAlu;
        let mul = OpClass::FpAdd; // 2-cycle stand-in for the example's MUL
        let t = InstTag;
        // i0: add *,* -> r1        i1: mul *,* -> r2
        iq.dispatch(0, DispatchInfo::compute(t(0), add, r(1), &[])).unwrap();
        iq.dispatch(0, DispatchInfo::compute(t(1), mul, r(2), &[])).unwrap();
        // i2: add r2,* -> r4
        iq.dispatch(0, DispatchInfo::compute(t(2), add, r(4), &[dep_src(r(2), t(1))])).unwrap();
        // i3: mul r4,* -> r6
        iq.dispatch(0, DispatchInfo::compute(t(3), mul, r(6), &[dep_src(r(4), t(2))])).unwrap();
        // i4: mul r6,* -> r8
        iq.dispatch(0, DispatchInfo::compute(t(4), mul, r(8), &[dep_src(r(6), t(3))])).unwrap();
        // i5: add r1,* -> r3
        iq.dispatch(0, DispatchInfo::compute(t(5), add, r(3), &[dep_src(r(1), t(0))])).unwrap();
        // i6: add r3,* -> r5
        iq.dispatch(0, DispatchInfo::compute(t(6), add, r(5), &[dep_src(r(3), t(5))])).unwrap();
        // i7: add r5,* -> r7
        iq.dispatch(0, DispatchInfo::compute(t(7), add, r(7), &[dep_src(r(5), t(6))])).unwrap();
        // i8: add r6,r7 -> r9
        iq.dispatch(
            0,
            DispatchInfo::compute(t(8), add, r(9), &[dep_src(r(6), t(3)), dep_src(r(7), t(7))]),
        )
        .unwrap();
        let expect = [0, 0, 2, 3, 5, 1, 2, 3, 5];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(iq.delay_of(t(i as u64)), Some(*want), "figure 1 delay value of i{i}");
        }
    }

    #[test]
    fn load_heads_a_chain_and_writeback_releases_it() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(2)), false),
        )
        .unwrap();
        assert_eq!(iq.live_chains(), 1);
        iq.on_writeback(InstTag(0));
        assert_eq!(iq.live_chains(), 0);
    }

    #[test]
    fn predicted_hit_load_creates_no_chain() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(2)), true),
        )
        .unwrap();
        assert_eq!(iq.live_chains(), 0);
    }

    #[test]
    fn chain_wire_exhaustion_stalls_dispatch() {
        let mut cfg = cfg3x8();
        cfg.max_chains = Some(1);
        let mut iq = SegmentedIq::new(cfg);
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        let err = iq
            .dispatch(
                0,
                DispatchInfo::load(InstTag(1), ArchReg::int(2), ready_src(ArchReg::int(9)), false),
            )
            .unwrap_err();
        assert_eq!(err, DispatchStall::NoChainWire);
        assert_eq!(iq.occupancy(), 1, "stalled dispatch must not enter the queue");
        assert_eq!(iq.full_stats().iq.stalls_no_chain, 1);
    }

    #[test]
    fn refused_chain_head_wakes_when_a_source_chain_expires() {
        let mut cfg = cfg3x8();
        cfg.max_chains = Some(2);
        let mut iq = SegmentedIq::new(cfg);
        for (tag, reg) in [(0, 1), (1, 2)] {
            let load = DispatchInfo::load(
                InstTag(tag),
                ArchReg::int(reg),
                ready_src(ArchReg::int(9)),
                false,
            );
            iq.dispatch(0, load).unwrap();
        }
        // Dual dependence on the two live chains: it must head a third.
        let add = DispatchInfo::compute(
            InstTag(2),
            OpClass::IntAlu,
            ArchReg::int(3),
            &[dep_src(ArchReg::int(1), InstTag(0)), dep_src(ArchReg::int(2), InstTag(1))],
        );
        // Both loads issue at cycle 1; their pulses reach the register
        // table at the top two cycles later, starting its countdowns.
        let mut fus = FuPool::table1();
        for now in 1..=3 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        assert_eq!(iq.dispatch(3, add), Err(DispatchStall::NoChainWire));
        let quiet =
            QuietCycle { now: 3, execution_idle: false, refused: Some(DispatchStall::NoChainWire) };
        let horizon = iq.next_event(&quiet);
        let accepted = (4..20)
            .find(|&now| {
                iq.tick(now, false);
                iq.dispatch(now, add).is_ok()
            })
            .unwrap();
        assert_eq!(horizon, accepted, "the countdown expiry is the refusal's horizon");
    }

    #[test]
    fn dual_dependence_heads_new_chain_in_base_config() {
        let mut iq = SegmentedIq::new(cfg3x8());
        // Two chain-head loads producing r1 and r2.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(1), ArchReg::int(2), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        // A consumer of both: dual-dep, becomes a head itself.
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(2),
                OpClass::IntAlu,
                ArchReg::int(3),
                &[dep_src(ArchReg::int(1), InstTag(0)), dep_src(ArchReg::int(2), InstTag(1))],
            ),
        )
        .unwrap();
        assert_eq!(iq.live_chains(), 3);
        assert_eq!(iq.full_stats().dual_dep_dispatches, 1);
    }

    #[test]
    fn lrp_mode_follows_single_chain_without_new_head() {
        let mut cfg = cfg3x8();
        cfg.two_chain_tracking = false;
        let mut iq = SegmentedIq::new(cfg);
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(1), ArchReg::int(2), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        let mut consumer = DispatchInfo::compute(
            InstTag(2),
            OpClass::IntAlu,
            ArchReg::int(3),
            &[dep_src(ArchReg::int(1), InstTag(0)), dep_src(ArchReg::int(2), InstTag(1))],
        );
        consumer.lrp_pick = Some(OperandPick::Right);
        iq.dispatch(0, consumer).unwrap();
        assert_eq!(iq.live_chains(), 2, "no extra chain under LRP");
    }

    #[test]
    fn queue_full_stalls() {
        let mut cfg = cfg3x8();
        cfg.num_segments = 1;
        cfg.segment_size = 2;
        let mut iq = SegmentedIq::new(cfg);
        for i in 0..2 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        let err = iq
            .dispatch(0, DispatchInfo::compute(InstTag(9), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap_err();
        assert_eq!(err, DispatchStall::QueueFull);
        assert_eq!(iq.full_stats().iq.stalls_full, 1);
    }

    #[test]
    fn single_segment_acts_as_conventional_queue() {
        let mut cfg = cfg3x8();
        cfg.num_segments = 1;
        cfg.segment_size = 32;
        let mut iq = SegmentedIq::new(cfg);
        for i in 0..4u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        let issued = run_until_issued(&mut iq, 4, 5);
        assert_eq!(issued.len(), 4);
        assert!(issued.iter().all(|&(_, c)| c == 1), "all ready, 8-wide: one cycle");
    }

    #[test]
    fn far_future_instructions_stay_in_upper_segments() {
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        cfg.pushdown = false;
        let mut iq = SegmentedIq::new(cfg);
        // A chain-head load (unissuable: its data operand never becomes
        // ready because we never announce the producer).
        iq.dispatch(
            0,
            DispatchInfo::load(
                InstTag(0),
                ArchReg::int(1),
                dep_src(ArchReg::int(9), InstTag(99)),
                false,
            ),
        )
        .unwrap();
        // A deep dependent: delay = 2*head_loc + rel_latency is large.
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::FpMul,
                ArchReg::fp(1),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        let mut fus = FuPool::table1();
        for now in 1..10 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        // The head sinks to segment 0 but cannot issue; the dependent
        // must not enter segment 0 behind it.
        assert_eq!(iq.segment_of(InstTag(0)), Some(0));
        assert!(iq.segment_of(InstTag(1)).unwrap() > 0, "dependent held back by its chain");
    }

    #[test]
    fn pushdown_moves_ineligible_when_below_is_empty() {
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        cfg.segment_size = 8;
        cfg.promote_width = 4;
        let mut iq = SegmentedIq::new(cfg);
        // A chain-head load whose data never becomes ready: it sinks to
        // segment 0 and parks there.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        let mut fus = FuPool::table1();
        // Let the head sink toward segment 0 (it is data-ready and will
        // issue; never announce its completion so dependents stay unready
        // and the chain never self-times past its latency).
        for now in 1..4 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        // Fill the top segment with deep dependents: delay stays at or
        // above the destination threshold, so they are ineligible.
        for i in 1..=8u64 {
            iq.dispatch(
                4,
                DispatchInfo::compute(
                    InstTag(i),
                    OpClass::FpMul,
                    ArchReg::fp(i as u8),
                    &[dep_src(ArchReg::int(1), InstTag(0))],
                ),
            )
            .unwrap();
        }
        assert_eq!(iq.free(2), 0, "top segment is full");
        for now in 5..12 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        assert!(iq.full_stats().pushdowns > 0, "full top segment should push down");
    }

    #[test]
    fn deadlock_recovery_restores_progress() {
        // Reproduce §4.5: a mis-assigned instruction's dependents fill a
        // lower segment below their producer.
        let mut cfg = cfg3x8();
        cfg.num_segments = 2;
        cfg.segment_size = 2;
        cfg.bypass = false;
        cfg.pushdown = false;
        let mut iq = SegmentedIq::new(cfg);
        // Two unready instructions land in segment 0 (bypass off, but
        // delay 0 since their producers are "available" per the table —
        // we fake it by having unknown producers with no chain).
        for i in 0..2u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(
                    InstTag(i),
                    OpClass::IntAlu,
                    ArchReg::int(i as u8 + 1),
                    &[dep_src(ArchReg::int(20), InstTag(50))],
                ),
            )
            .unwrap();
            // Force them down by ticking (delay 0 -> promote).
            let mut fus = FuPool::table1();
            iq.tick(i + 1, false);
            let _ = iq.select_issue(i + 1, &mut fus);
        }
        // Now fill the top with a ready instruction that cannot promote.
        iq.dispatch(0, DispatchInfo::compute(InstTag(2), OpClass::IntAlu, ArchReg::int(9), &[]))
            .unwrap();
        iq.dispatch(0, DispatchInfo::compute(InstTag(3), OpClass::IntAlu, ArchReg::int(10), &[]))
            .unwrap();
        // Nothing is executing in the backend, so execution_idle = true.
        let mut fus = FuPool::table1();
        let mut issued = Vec::new();
        for now in 10..60 {
            iq.tick(now, issued.is_empty());
            issued.extend(iq.select_issue(now, &mut fus));
            fus.next_cycle();
            if !issued.is_empty() {
                break;
            }
        }
        assert!(!issued.is_empty(), "recovery must eventually let the ready instruction issue");
        assert!(iq.full_stats().deadlock_cycles > 0, "the deadlock detector should have fired");
    }

    #[test]
    fn run_deadlock_recovery_recycles_and_force_promotes() {
        // Direct exercise of §4.5's two mechanisms, without relying on
        // tick()'s detector: a full issue buffer of unready instructions
        // below their (conceptual) producers, and a full upper segment
        // holding the one ready instruction.
        let mut cfg = cfg3x8();
        cfg.num_segments = 2;
        cfg.segment_size = 2;
        cfg.bypass = false;
        cfg.pushdown = false;
        let mut iq = SegmentedIq::new(cfg);
        // Two unready instructions (producer never announced) pushed down
        // into segment 0 by normal promotion.
        for i in 0..2u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(
                    InstTag(i),
                    OpClass::IntAlu,
                    ArchReg::int(i as u8 + 1),
                    &[dep_src(ArchReg::int(20), InstTag(50))],
                ),
            )
            .unwrap();
            let mut fus = FuPool::table1();
            iq.tick(i + 1, false);
            let _ = iq.select_issue(i + 1, &mut fus);
        }
        assert_eq!(iq.free(0), 0, "setup: issue buffer full of unready instructions");
        // Segment 1 fills with a ready instruction (tag 2) and another
        // unready one, so both recovery mechanisms have work.
        iq.dispatch(0, DispatchInfo::compute(InstTag(2), OpClass::IntAlu, ArchReg::int(9), &[]))
            .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(3),
                OpClass::IntAlu,
                ArchReg::int(10),
                &[dep_src(ArchReg::int(21), InstTag(51))],
            ),
        )
        .unwrap();
        assert_eq!(iq.free(1), 0, "setup: top segment full");
        let occupancy_before = iq.occupancy();

        iq.run_deadlock_recovery(5);

        let s = iq.full_stats();
        assert_eq!(s.deadlock_cycles, 1);
        assert_eq!(s.recovery_recycles, 1, "full unready issue buffer recycles one entry");
        assert_eq!(s.recovery_promotions, 1, "the full upper segment force-promotes one");
        assert_eq!(iq.occupancy(), occupancy_before, "recovery reorders, never drops");
        assert_eq!(iq.segment_of(InstTag(1)), Some(1), "youngest seg-0 entry recycled to the top");
        assert_eq!(iq.segment_of(InstTag(2)), Some(0), "oldest upper entry forced into seg 0");
        assert_eq!(iq.segment_of(InstTag(0)), Some(0), "oldest unready entry keeps its slot");

        // Boundary: with a ready instruction now in the issue buffer, a
        // second invocation must not recycle again (the buffer is no
        // longer all-unready) and has no promotion headroom.
        iq.run_deadlock_recovery(6);
        let s = iq.full_stats();
        assert_eq!(s.deadlock_cycles, 2);
        assert_eq!(s.recovery_recycles, 1, "no recycle when a seg-0 entry is ready");
        assert_eq!(s.recovery_promotions, 1, "no promotion into a full issue buffer");

        // The recovered layout makes progress: the ready instruction
        // issues on the next cycles.
        let mut fus = FuPool::table1();
        let mut issued = Vec::new();
        for now in 7..20 {
            iq.tick(now, issued.is_empty());
            issued.extend(iq.select_issue(now, &mut fus));
            fus.next_cycle();
            if !issued.is_empty() {
                break;
            }
        }
        assert_eq!(
            issued.first().map(|sel| sel.tag),
            Some(InstTag(2)),
            "the force-promoted ready instruction must be the one that issues"
        );
    }

    #[test]
    fn suspend_freezes_dependents_until_fill() {
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        // Chain-head load, ready to issue.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        // Dependent of the load.
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::IntAlu,
                ArchReg::int(2),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        let mut fus = FuPool::table1();
        let mut load_issued_at = None;
        for now in 1..8 {
            iq.tick(now, false);
            for sel in iq.select_issue(now, &mut fus) {
                assert_eq!(sel.tag, InstTag(0));
                load_issued_at = Some(now);
                // Simulate a miss discovered at EA+3: suspend, do not
                // announce readiness yet.
                iq.on_load_miss(InstTag(0));
            }
            fus.next_cycle();
            if load_issued_at.is_some() {
                break;
            }
        }
        let t0 = load_issued_at.expect("load should issue");
        // Let many cycles pass; the dependent must be frozen (suspended).
        for now in t0 + 1..t0 + 20 {
            iq.tick(now, false);
            assert!(iq.select_issue(now, &mut fus).is_empty());
            fus.next_cycle();
        }
        let frozen_delay = iq.delay_of(InstTag(1)).unwrap();
        assert!(frozen_delay > 0, "suspended dependent must not count down to 0");
        // Fill arrives: resume + announce.
        iq.on_load_fill(InstTag(0));
        iq.announce_ready(InstTag(0), t0 + 25);
        let mut issued_after = Vec::new();
        for now in t0 + 20..t0 + 40 {
            iq.tick(now, false);
            issued_after.extend(iq.select_issue(now, &mut fus));
            fus.next_cycle();
        }
        assert_eq!(issued_after.len(), 1);
        assert_eq!(issued_after[0].tag, InstTag(1));
    }

    #[test]
    fn bypassed_dispatch_receives_inflight_signals() {
        // A chain head issues from segment 0 while the queue above is
        // partially occupied; a member dispatched afterwards into a
        // middle segment (bypass) must not wait for a pulse that already
        // passed its landing segment.
        let mut cfg = cfg3x8();
        cfg.num_segments = 4;
        cfg.countdown_includes_descent = false;
        let mut iq = SegmentedIq::new(cfg);
        let mut fus = FuPool::table1();
        // Head load (ready) and an occupant that keeps segment 2 non-empty.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::FpMul,
                ArchReg::fp(1),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        // Let the head sink and issue; its pulse starts climbing.
        let mut head_issued_at = None;
        for now in 1..8 {
            iq.tick(now, false);
            for sel in iq.select_issue(now, &mut fus) {
                assert_eq!(sel.tag, InstTag(0));
                iq.announce_ready(sel.tag, now + 4);
                head_issued_at = Some(now);
            }
            fus.next_cycle();
            if head_issued_at.is_some() {
                break;
            }
        }
        let t0 = head_issued_at.expect("head must issue");
        // Dispatch a late member the very next cycle: the issue pulse is
        // between segments. Its operand state comes from the (laggy)
        // table plus the in-flight signals at or above its landing
        // segment — its delay must eventually drain to 0, not freeze.
        iq.dispatch(
            t0,
            DispatchInfo::compute(
                InstTag(2),
                OpClass::IntAlu,
                ArchReg::int(3),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        for now in t0 + 1..t0 + 20 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        assert!(
            iq.delay_of(InstTag(2)).map(|d| d == 0).unwrap_or(true),
            "late member's delay must drain, got {:?}",
            iq.delay_of(InstTag(2))
        );
    }

    #[test]
    fn empty_segments_are_counted_for_gating() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.tick(1, true);
        let s = iq.full_stats();
        assert_eq!(s.num_segments, 3);
        assert_eq!(s.empty_segment_cycles, 3, "all three segments empty");
        assert!((s.gateable_segment_frac() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn promotion_bandwidth_is_limited_per_boundary() {
        let mut cfg = cfg3x8();
        cfg.num_segments = 2;
        cfg.segment_size = 16;
        cfg.promote_width = 4;
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        for i in 0..10u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        iq.tick(1, false);
        assert_eq!(iq.segment_len(0), 4, "at most promote_width move per cycle");
        assert_eq!(iq.segment_len(1), 6);
        iq.tick(2, false);
        assert_eq!(iq.segment_len(0), 8);
    }

    #[test]
    fn promotion_respects_previous_cycle_free_count() {
        // §3.1: a segment promotes based on the destination's free slots
        // as of the previous cycle. Fill segment 0 completely, then free
        // it; promotion into it can start only one cycle later.
        let mut cfg = cfg3x8();
        cfg.num_segments = 2;
        cfg.segment_size = 4;
        cfg.promote_width = 4;
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        let mut fus = FuPool::table1();
        // Four ready instructions sink into segment 0 and stay (we never
        // let them issue by exhausting the FU pool with a tiny pool).
        for i in 0..4u64 {
            iq.dispatch(
                0,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        iq.tick(1, false); // all four promote into segment 0
        assert_eq!(iq.segment_len(0), 4);
        // Four more wait in segment 1.
        for i in 4..8u64 {
            iq.dispatch(
                1,
                DispatchInfo::compute(InstTag(i), OpClass::IntAlu, ArchReg::int(1), &[]),
            )
            .unwrap();
        }
        // Cycle 2: segment 0 drains by issue, but its free count as of
        // the previous cycle was zero, so nothing promotes this cycle.
        iq.tick(2, false);
        let issued = iq.select_issue(2, &mut fus);
        assert_eq!(issued.len(), 4);
        assert_eq!(iq.segment_len(0), 0);
        assert_eq!(iq.segment_len(1), 4, "free_prev was 0: no promotion yet");
        // Cycle 3: last cycle's free count now permits promotion.
        iq.tick(3, false);
        assert_eq!(iq.segment_len(0), 4);
    }

    #[test]
    fn suspend_reaches_upper_segments_with_wire_latency() {
        // A suspend asserted at segment 0 must take one cycle per segment
        // to become visible above (§3.3 pipelining).
        let mut cfg = cfg3x8();
        cfg.num_segments = 4;
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        let mut fus = FuPool::table1();
        // Chain-head load and one dependent.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::FpMul,
                ArchReg::fp(0),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        // Run until the head issues; immediately report a miss.
        let mut issued_at = None;
        for now in 1..10 {
            iq.tick(now, false);
            for sel in iq.select_issue(now, &mut fus) {
                assert_eq!(sel.tag, InstTag(0));
                iq.on_load_miss(InstTag(0));
                issued_at = Some(now);
            }
            fus.next_cycle();
            if issued_at.is_some() {
                break;
            }
        }
        let t0 = issued_at.expect("head issues");
        // The dependent sits above segment 0; after enough cycles for the
        // suspend to climb, its delay freezes above zero.
        for now in t0 + 1..t0 + 12 {
            iq.tick(now, false);
            let _ = iq.select_issue(now, &mut fus);
            fus.next_cycle();
        }
        let frozen = iq.delay_of(InstTag(1)).expect("still queued");
        assert!(frozen > 0, "suspended dependent frozen at {frozen}");
        // Resume releases it.
        iq.on_load_fill(InstTag(0));
        iq.announce_ready(InstTag(0), t0 + 14);
        let mut done = false;
        for now in t0 + 12..t0 + 40 {
            iq.tick(now, false);
            done |= !iq.select_issue(now, &mut fus).is_empty();
            fus.next_cycle();
        }
        assert!(done, "dependent must issue after the fill");
    }

    #[test]
    fn two_src_statistics_are_counted() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(0),
                OpClass::IntAlu,
                ArchReg::int(3),
                &[ready_src(ArchReg::int(1)), ready_src(ArchReg::int(2))],
            ),
        )
        .unwrap();
        assert_eq!(iq.full_stats().two_src_dispatches, 1);
        assert_eq!(iq.full_stats().dual_dep_dispatches, 0, "both operands available");
    }

    #[test]
    fn threads_have_independent_register_tables() {
        // Thread 1's write to r1 must not disturb thread 0's chain
        // tracking of its own r1.
        let mut iq = SegmentedIq::new(cfg3x8());
        // Thread 0: chain-head load producing r1.
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        // Thread 1: plain ALU writing its own r1.
        let mut alien = DispatchInfo::compute(InstTag(1), OpClass::IntAlu, ArchReg::int(1), &[]);
        alien.thread = 1;
        iq.dispatch(0, alien).unwrap();
        // Thread 0's dependent of r1 must still join the load's chain
        // (delay > 0), not see thread 1's countdown.
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(2),
                OpClass::IntAlu,
                ArchReg::int(2),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        assert!(
            iq.delay_of(InstTag(2)).unwrap() >= 4,
            "thread 0's dependent tracks the load chain: {:?}",
            iq.delay_of(InstTag(2))
        );
    }

    #[test]
    fn flush_empties_everything() {
        let mut iq = SegmentedIq::new(cfg3x8());
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.flush();
        assert!(iq.is_empty());
        assert_eq!(iq.live_chains(), 0);
    }

    #[test]
    fn tick_stats_counters_pinned() {
        // Pinned against the original scan-based stats path: the
        // counters sampled at the top of `tick` must not move when they
        // are re-sourced from the maintained ready/occupancy sets.
        let mut cfg = cfg3x8();
        cfg.bypass = false;
        let mut iq = SegmentedIq::new(cfg);
        iq.dispatch(
            0,
            DispatchInfo::load(InstTag(0), ArchReg::int(1), ready_src(ArchReg::int(9)), false),
        )
        .unwrap();
        iq.dispatch(
            0,
            DispatchInfo::compute(
                InstTag(1),
                OpClass::IntMul,
                ArchReg::int(2),
                &[dep_src(ArchReg::int(1), InstTag(0))],
            ),
        )
        .unwrap();
        iq.dispatch(0, DispatchInfo::compute(InstTag(2), OpClass::IntAlu, ArchReg::int(3), &[]))
            .unwrap();
        let issued = run_until_issued(&mut iq, 3, 40);
        assert_eq!(issued.len(), 3);
        let s = iq.full_stats();
        assert_eq!(
            (
                s.ready_in_seg0_accum,
                s.ready_total_accum,
                s.seg0_occupancy_accum,
                s.iq.occupancy_accum,
                s.empty_segment_cycles,
                s.wire_signal_hops,
                s.promotions,
            ),
            (3, 11, 3, 14, 14, 6, 6),
            "stats sampled by tick must match the scan-based implementation"
        );
    }

    #[test]
    fn occupancy_and_capacity() {
        let mut iq = SegmentedIq::new(cfg3x8());
        assert_eq!(iq.capacity(), 24);
        assert!(iq.is_empty());
        iq.dispatch(0, DispatchInfo::compute(InstTag(0), OpClass::IntAlu, ArchReg::int(1), &[]))
            .unwrap();
        assert_eq!(iq.occupancy(), 1);
    }
}
