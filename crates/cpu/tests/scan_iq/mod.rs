//! `ScanSegmentedIq`: the segmented queue as a plain scan kernel, kept as
//! an independent reference for `chainiq_core::SegmentedIq`.
//!
//! This is the queue as it stood before its wakeup, promotion and signal
//! paths were indexed: segments are vectors of entries, every countdown
//! is decremented by a whole-window sweep each cycle, wire signals travel
//! in one list, and every selection, wakeup and statistic is a scan. It
//! shares no data structure with the production kernel — it brings its
//! own chain table and register tables — only the public configuration,
//! statistics and dispatch types. So a bug in any production write path
//! (promotion, the follower lists, the signal buckets, the virtual
//! countdowns) makes the two disagree.
//!
//! It keeps the default `next_event`, so a pipeline around it steps every
//! cycle; comparing it with the fast-forwarding production queue also
//! checks `next_event` and `skip_quiet`.

mod chain;
mod regtable;

use chainiq_core::{
    ChainRef, DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst,
    OperandPick, SegmentedIqConfig, SegmentedStats,
};
use chainiq_isa::{Cycle, OpClass};

use chain::{ChainTable, SignalKind, WireSignal};
use regtable::{RegInfoTable, RegSched};

/// One scheduling operand: the delay value of §3.1 is `2 * head_loc +
/// rel_latency`; pulses decrement `head_loc`, self-timed mode decrements
/// `rel_latency` every unsuspended cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedOperand {
    /// Chain listened to, if any (`None` = pure countdown).
    chain: Option<ChainRef>,
    /// Expected cycles from head issue to operand availability.
    rel_latency: i64,
    /// Head's segment as last observed by this entry.
    head_loc: i64,
    /// Head has issued; `rel_latency` counts down.
    self_timed: bool,
    /// Countdown frozen by a miss (§3.4).
    suspended: bool,
}

impl SchedOperand {
    fn delay(&self) -> i64 {
        2 * self.head_loc.max(0) + self.rel_latency.max(0)
    }

    fn apply(&mut self, kind: SignalKind) {
        match kind {
            SignalKind::Pulse => {
                if !self.self_timed {
                    if self.head_loc > 0 {
                        self.head_loc -= 1;
                    } else {
                        self.self_timed = true;
                    }
                }
            }
            SignalKind::Suspend => self.suspended = true,
            SignalKind::Resume => self.suspended = false,
        }
    }

    fn tick(&mut self) {
        if self.self_timed && !self.suspended && self.rel_latency > 0 {
            self.rel_latency -= 1;
        }
    }
}

/// Data-readiness tracking for one operand (drives issue, where the
/// scheduling operands drive promotion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DataOperand {
    producer: InstTag,
    ready_at: Option<Cycle>,
}

#[derive(Debug, Clone)]
struct Entry {
    tag: InstTag,
    op: OpClass,
    data_ops: [Option<DataOperand>; 2],
    sched_ops: [Option<SchedOperand>; 2],
    heads_chain: Option<ChainRef>,
    /// Cycle this entry last arrived in its segment; an entry cannot be
    /// selected for issue in the same cycle it entered segment 0.
    moved_at: Cycle,
}

impl Entry {
    fn delay(&self) -> i64 {
        self.sched_ops.iter().flatten().map(SchedOperand::delay).max().unwrap_or(0)
    }

    fn data_ready(&self, now: Cycle) -> bool {
        self.data_ops.iter().flatten().all(|d| d.ready_at.is_some_and(|r| r <= now))
    }

    fn apply_signal(&mut self, sig: WireSignal) {
        for op in self.sched_ops.iter_mut().flatten() {
            if op.chain == Some(sig.chain) {
                op.apply(sig.kind);
            }
        }
    }
}

/// The segmented instruction queue as a scan kernel.
#[derive(Debug, Clone)]
pub struct ScanSegmentedIq {
    config: SegmentedIqConfig,
    /// `segments[0]` is the issue buffer; higher indices are closer to
    /// dispatch. Entries are unordered within a segment.
    segments: Vec<Vec<Entry>>,
    /// Free slots per segment as of the end of the previous cycle — the
    /// information promotion logic is allowed to use (§3.1).
    free_prev: Vec<usize>,
    /// Signals travelling up the pipelined chain wires.
    signals: Vec<WireSignal>,
    chains: ChainTable,
    /// One register information table per hardware thread context.
    regs: Vec<RegInfoTable>,
    stats: SegmentedStats,
    /// Whether `select_issue` issued anything in the current cycle.
    issued_this_cycle: bool,
    /// Whether the previous cycle made any progress (issue or promotion).
    progress_last_cycle: bool,
}

impl ScanSegmentedIq {
    pub fn new(config: SegmentedIqConfig) -> Self {
        assert!(config.num_segments > 0 && config.segment_size > 0 && config.promote_width > 0);
        ScanSegmentedIq {
            config,
            segments: vec![Vec::with_capacity(config.segment_size); config.num_segments],
            free_prev: vec![config.segment_size; config.num_segments],
            signals: Vec::new(),
            chains: ChainTable::new(config.max_chains),
            regs: vec![RegInfoTable::new()],
            stats: SegmentedStats::default(),
            issued_this_cycle: false,
            progress_last_cycle: true,
        }
    }

    /// The full segmented statistics, including chain usage — the same
    /// shape as `SegmentedIq::full_stats`.
    pub fn full_stats(&self) -> SegmentedStats {
        let mut s = self.stats.clone();
        s.chains = *self.chains.stats();
        s
    }

    fn top(&self) -> usize {
        self.config.num_segments - 1
    }

    fn free(&self, k: usize) -> usize {
        self.config.segment_size - self.segments[k].len()
    }

    /// Asserts a signal at `segment` this cycle: applies it to the
    /// entries there (and the register tables if at the top) and queues
    /// it for upward propagation.
    fn assert_signal(&mut self, chain: ChainRef, kind: SignalKind, segment: usize) {
        self.stats.wire_signal_hops += 1;
        let sig = WireSignal { chain, kind, segment };
        for e in &mut self.segments[segment] {
            e.apply_signal(sig);
        }
        if segment == self.top() {
            for t in &mut self.regs {
                t.apply_signal(sig);
            }
        } else {
            self.signals.push(sig);
        }
    }

    /// Moves the wire signals one segment up and delivers them.
    fn propagate_signals(&mut self) {
        let top = self.top();
        self.stats.wire_signal_hops += self.signals.len() as u64;
        let moved: Vec<WireSignal> = self
            .signals
            .drain(..)
            .map(|mut s| {
                s.segment += 1;
                s
            })
            .collect();
        for sig in moved {
            for e in &mut self.segments[sig.segment] {
                e.apply_signal(sig);
            }
            if sig.segment >= top {
                for t in &mut self.regs {
                    t.apply_signal(sig);
                }
            } else {
                self.signals.push(sig);
            }
        }
    }

    /// Selects up to `budget` entries of `seg` for promotion: eligible
    /// (delay below the destination threshold) oldest-first, then — if
    /// pushdown applies — oldest ineligible entries.
    fn choose_promotions(&self, seg: usize, budget: usize) -> Vec<InstTag> {
        let threshold = self.config.threshold(seg - 1);
        let mut eligible: Vec<InstTag> =
            self.segments[seg].iter().filter(|e| e.delay() < threshold).map(|e| e.tag).collect();
        eligible.sort_unstable();
        let mut picks: Vec<InstTag> = eligible.into_iter().take(budget).collect();

        if self.config.pushdown
            && picks.len() < budget
            && self.free(seg) < self.config.promote_width
            && self.free_prev[seg - 1] * 2 > 3 * self.config.promote_width
        {
            let mut ineligible: Vec<InstTag> = self.segments[seg]
                .iter()
                .filter(|e| e.delay() >= threshold)
                .map(|e| e.tag)
                .collect();
            ineligible.sort_unstable();
            let room = budget - picks.len();
            picks.extend(ineligible.into_iter().take(room.min(self.config.promote_width)));
        }
        picks
    }

    /// Takes `tag` out of segment `seg`; every caller names an entry it
    /// has just found there.
    fn remove_entry(&mut self, seg: usize, tag: InstTag) -> Option<Entry> {
        let idx = self.segments[seg].iter().position(|e| e.tag == tag)?;
        Some(self.segments[seg].swap_remove(idx))
    }

    /// Moves `tag` from `seg` to `seg - 1`, asserting the chain wire if
    /// it heads a chain.
    fn promote_one(&mut self, now: Cycle, seg: usize, tag: InstTag, pushdown: bool) {
        let Some(mut entry) = self.remove_entry(seg, tag) else { return };
        entry.moved_at = now;
        if let Some(chain) = entry.heads_chain {
            // The head asserts its wire in the segment it leaves (§3.3).
            self.assert_signal(chain, SignalKind::Pulse, seg);
        }
        // A promotion moves against the upward-travelling wire signals: a
        // signal currently visible in the destination segment would reach
        // the source segment next cycle and miss the mover, so deliver it
        // on the way past.
        for sig in &self.signals {
            if sig.segment + 1 == seg {
                entry.apply_signal(*sig);
            }
        }
        self.segments[seg - 1].push(entry);
        if pushdown {
            self.stats.pushdowns += 1;
        } else {
            self.stats.promotions += 1;
        }
    }

    fn run_promotion(&mut self, now: Cycle) -> u64 {
        let mut promoted = 0u64;
        for seg in 1..self.config.num_segments {
            let space = self.free_prev[seg - 1].min(self.free(seg - 1));
            let budget = space.min(self.config.promote_width);
            if budget == 0 {
                continue;
            }
            let threshold = self.config.threshold(seg - 1);
            for tag in self.choose_promotions(seg, budget) {
                // An earlier pick's pulse this cycle may have changed the
                // delay since the pick was made.
                let is_pushdown = self.segments[seg]
                    .iter()
                    .find(|e| e.tag == tag)
                    .is_some_and(|e| e.delay() >= threshold);
                self.promote_one(now, seg, tag, is_pushdown);
                promoted += 1;
            }
        }
        promoted
    }

    /// §4.5 recovery: guarantee a free slot in every segment and keep the
    /// oldest ready instruction moving toward issue.
    fn run_deadlock_recovery(&mut self, now: Cycle) {
        self.stats.deadlock_cycles += 1;
        // If the issue buffer is full of unready instructions, recycle
        // the youngest back to the top.
        let mut recycled: Option<Entry> = None;
        if self.free(0) == 0 && !self.segments[0].iter().any(|e| e.data_ready(now)) {
            let youngest = self.segments[0].iter().map(|e| e.tag).max();
            recycled = youngest.and_then(|tag| self.remove_entry(0, tag));
            self.stats.recovery_recycles += 1;
        }
        // Bottom-up, every full segment force-promotes one instruction
        // (eligible if available, else the oldest ineligible).
        for seg in 1..self.config.num_segments {
            if self.free(seg) > 0 || self.free(seg - 1) == 0 {
                continue;
            }
            let threshold = self.config.threshold(seg - 1);
            let pick = self.segments[seg]
                .iter()
                .filter(|e| e.delay() < threshold)
                .map(|e| e.tag)
                .min()
                .or_else(|| self.segments[seg].iter().map(|e| e.tag).min());
            if let Some(tag) = pick {
                self.promote_one(now, seg, tag, false);
                self.stats.recovery_promotions += 1;
            }
        }
        if let Some(entry) = recycled {
            let top = self.top();
            // Recovery freed a slot in the top segment if it was full.
            let dest = (0..=top).rev().find(|&k| self.free(k) > 0).unwrap_or(top);
            self.segments[dest].push(entry);
        }
    }

    /// Builds the scheduling operand for one source register from the
    /// register information table.
    fn sched_for(sched: RegSched) -> Option<SchedOperand> {
        match sched {
            RegSched::Available => None,
            RegSched::Countdown { remaining } => Some(SchedOperand {
                chain: None,
                rel_latency: remaining,
                head_loc: 0,
                self_timed: true,
                suspended: false,
            }),
            RegSched::OnChain { chain, latency, head_loc, self_timed, suspended } => {
                Some(SchedOperand {
                    chain: Some(chain),
                    rel_latency: latency,
                    head_loc: if self_timed { 0 } else { head_loc },
                    self_timed,
                    suspended,
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
        let highest_nonempty = (0..=top).rev().find(|&k| !self.segments[k].is_empty()).unwrap_or(0);
        if self.free(highest_nonempty) > 0 {
            Some(highest_nonempty)
        } else if highest_nonempty < top {
            Some(highest_nonempty + 1)
        } else {
            None
        }
    }
}

impl IssueQueue for ScanSegmentedIq {
    fn capacity(&self) -> usize {
        self.config.capacity()
    }

    fn occupancy(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        // Each segment's free-slot count as of the end of the previous
        // cycle — the information §3.1 allows promotion to use.
        for k in 0..self.config.num_segments {
            self.free_prev[k] = self.free(k);
        }

        // Per-cycle statistics.
        self.stats.iq.cycles += 1;
        self.stats.iq.occupancy_accum += self.occupancy() as u64;
        self.stats.seg0_occupancy_accum += self.segments[0].len() as u64;
        self.stats.num_segments = self.config.num_segments;
        self.stats.empty_segment_cycles +=
            self.segments.iter().filter(|s| s.is_empty()).count() as u64;
        let ready = |s: &Vec<Entry>| s.iter().filter(|e| e.data_ready(now)).count() as u64;
        self.stats.ready_in_seg0_accum += ready(&self.segments[0]);
        self.stats.ready_total_accum += self.segments.iter().map(ready).sum::<u64>();
        self.chains.sample();

        // 1. Signals asserted last cycle move one segment up.
        self.propagate_signals();

        // 2. Self-timed countdowns (suspends delivered above gate these).
        for e in self.segments.iter_mut().flatten() {
            for op in e.sched_ops.iter_mut().flatten() {
                op.tick();
            }
        }
        for t in &mut self.regs {
            t.tick();
        }

        // 3. Chain/threshold-driven promotion.
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
        let Some(target) = self.dispatch_target() else {
            self.stats.iq.stalls_full += 1;
            return Err(DispatchStall::QueueFull);
        };

        let thread = info.thread as usize;
        if thread >= self.regs.len() {
            self.regs.resize_with(thread + 1, RegInfoTable::new);
        }
        let srcs: Vec<(usize, RegSched)> = info
            .srcs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, self.regs[thread].get(s.reg))))
            .collect();
        let chain_of = |s: &RegSched| match s {
            RegSched::OnChain { chain, .. } => Some(*chain),
            _ => None,
        };
        let chains_seen: Vec<ChainRef> = srcs.iter().filter_map(|(_, s)| chain_of(s)).collect();
        let dual_dep = chains_seen.len() == 2 && chains_seen[0] != chains_seen[1];

        let is_load = info.op == OpClass::Load;
        let needs_chain =
            (is_load && !info.predicted_hit) || (dual_dep && self.config.two_chain_tracking);
        let heads_chain = if needs_chain {
            let Some(c) = self.chains.alloc(info.tag, is_load) else {
                self.chains.note_wire_stall();
                self.stats.iq.stalls_no_chain += 1;
                return Err(DispatchStall::NoChainWire);
            };
            Some(c)
        } else {
            None
        };

        // Under single-chain tracking (§4.3) keep only the
        // predicted-critical chain when two would be needed.
        let mut sched_ops: [Option<SchedOperand>; 2] = [None, None];
        if dual_dep && !self.config.two_chain_tracking {
            let keep = match info.lrp_pick.unwrap_or(OperandPick::Left) {
                OperandPick::Left => srcs[0].0,
                OperandPick::Right => srcs[srcs.len() - 1].0,
            };
            for (i, s) in &srcs {
                if *i == keep || chain_of(s).is_none() {
                    sched_ops[*i] = Self::sched_for(*s);
                }
            }
        } else {
            for (i, s) in &srcs {
                sched_ops[*i] = Self::sched_for(*s);
            }
        }

        let mut data_ops: [Option<DataOperand>; 2] = [None, None];
        for (i, s) in info.srcs.iter().enumerate() {
            if let Some(s) = s {
                if let Some(producer) = s.producer {
                    data_ops[i] = Some(DataOperand { producer, ready_at: s.known_ready_at });
                }
            }
        }

        // Update the register information table for the destination.
        if let Some(dest) = info.dest {
            let produce = self.predicted_latency(info.op);
            // The landing segment's descent time, when configured: two
            // cycles per segment for loads, one for everything else.
            let descent = match (self.config.countdown_includes_descent, is_load) {
                (false, _) => 0,
                (true, true) => 2 * target as i64,
                (true, false) => target as i64,
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
                // Follow the slowest operand.
                match sched_ops.iter().flatten().max_by_key(|o| o.delay()).copied() {
                    None => RegSched::Countdown { remaining: descent.max(0) + produce },
                    Some(op) => match op.chain {
                        None => {
                            RegSched::Countdown { remaining: op.delay().max(descent) + produce }
                        }
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

        let mut entry =
            Entry { tag: info.tag, op: info.op, data_ops, sched_ops, heads_chain, moved_at: now };
        // The register tables lag the wire pipeline: signals between the
        // landing segment and the top have been seen by neither the table
        // nor (ever again) this segment.
        for sig in &self.signals {
            if sig.segment >= target {
                entry.apply_signal(*sig);
            }
        }
        self.segments[target].push(entry);
        Ok(())
    }

    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut ready: Vec<(InstTag, OpClass)> = self.segments[0]
            .iter()
            .filter(|e| e.data_ready(now) && e.moved_at < now)
            .map(|e| (e.tag, e.op))
            .collect();
        ready.sort_unstable_by_key(|&(tag, _)| tag);
        let mut issued = Vec::new();
        for (tag, op) in ready {
            if fus.slots_left() == 0 {
                break;
            }
            if !fus.try_issue(now, op) {
                continue; // unit busy; try other op kinds
            }
            if let Some(chain) = self.remove_entry(0, tag).and_then(|e| e.heads_chain) {
                self.assert_signal(chain, SignalKind::Pulse, 0);
            }
            issued.push(IssuedInst { tag, op });
        }
        self.stats.iq.issued += issued.len() as u64;
        if !issued.is_empty() {
            self.issued_this_cycle = true;
        }
        issued
    }

    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        for e in self.segments.iter_mut().flatten() {
            for d in e.data_ops.iter_mut().flatten() {
                if d.producer == producer {
                    d.ready_at = Some(ready_at);
                }
            }
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
        for seg in &mut self.segments {
            seg.clear();
        }
        self.signals.clear();
        self.chains.release_all();
        for t in &mut self.regs {
            t.reset();
        }
    }

    fn stats(&self) -> IqStats {
        self.stats.iq
    }
}
