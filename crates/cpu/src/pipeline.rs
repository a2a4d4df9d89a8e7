//! The cycle loop tying front end, queue, LSQ, memory and commit
//! together, for one or more hardware threads.

use std::collections::BTreeMap;

use chainiq_core::{
    DispatchInfo, FuPool, InstTag, IssueQueue, IssuedInst, OperandPick, QuietCycle, SrcOperand,
    TagMap, WaiterLists, Wheel,
};
use chainiq_isa::{Cycle, Inst, OpClass};
use chainiq_mem::Hierarchy;
use chainiq_predict::{HitMissPredictor, HybridBranchPredictor, LeftRightPredictor, Operand};

use crate::config::SimConfig;
use crate::frontend::Frontend;
use crate::lsq::{Lsq, LsqEvent};
use crate::rename::RenameState;
use crate::rob::{Rob, RobEntry, RobState};
use crate::stats::SimStats;

/// Event-wheel size: most completions land within the function-unit and
/// L1/L2 latency window; longer waits (main memory) ride the wheel's
/// far-future path at one compare per revolution.
const EVENT_WHEEL_BUCKETS: usize = 512;

/// Cycles without a commit after which a run is declared hung.
const HANG_CYCLES: Cycle = 500_000;

/// Deferred timing events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Result written back: ROB entry completes, chains headed by it are
    /// released, LRP trains.
    Complete(InstTag),
    /// A chain-head load's miss became visible (§3.4 suspend).
    LoadMiss(InstTag),
    /// A missing load's fill arrived (§3.4 resume).
    LoadFill(InstTag),
}

/// A quiet step as [`Pipeline::run`] repeats it: the queue's view of the
/// cycle plus the predictor lookups of the dispatch the queue refused.
#[derive(Debug, Clone, Copy)]
struct QuietStep {
    cycle: QuietCycle,
    /// PC of the refused load, when its retry repeats a hit/miss
    /// prediction.
    hmp_pc: Option<u64>,
    /// PC of the refused instruction, when its retry repeats a left/right
    /// prediction.
    lrp_pc: Option<u64>,
}

/// Stores parked until their data producer announces: one waiter list
/// per producer, in parking order, over recycled nodes.
#[derive(Debug, Clone, Default)]
struct ParkedStores {
    lists: WaiterLists,
    /// The `(producer, store)` each node holds; `None` while it is free.
    nodes: Vec<Option<(InstTag, InstTag)>>,
    free: Vec<u32>,
}

impl ParkedStores {
    fn park(&mut self, producer: InstTag, store: InstTag) {
        let node = self.free.pop().unwrap_or_else(|| {
            self.nodes.push(None);
            self.lists.grow(self.nodes.len());
            (self.nodes.len() - 1) as u32
        });
        self.nodes[node as usize] = Some((producer, store));
        self.lists.push(producer, node);
    }

    /// Unparks the first store parked on `producer`.
    fn pop(&mut self, producer: InstTag) -> Option<InstTag> {
        let node = self.lists.first(producer)?;
        self.lists.remove(producer, node);
        self.free.push(node);
        self.nodes[node as usize].take().map(|(_, store)| store)
    }

    /// The image form: producers ascending, each with its stores in
    /// parking order.
    fn to_map(&self) -> BTreeMap<InstTag, Vec<InstTag>> {
        let mut map = BTreeMap::new();
        for &(producer, _) in self.nodes.iter().flatten() {
            map.entry(producer).or_insert_with(|| {
                let mut stores = Vec::new();
                let mut cur = self.lists.first(producer);
                while let Some(node) = cur {
                    stores.extend(self.nodes[node as usize].map(|(_, store)| store));
                    cur = self.lists.next(node);
                }
                stores
            });
        }
        map
    }

    fn from_map(map: BTreeMap<InstTag, Vec<InstTag>>) -> Self {
        let mut parked = ParkedStores::default();
        for (producer, stores) in map {
            for store in stores {
                parked.park(producer, store);
            }
        }
        parked
    }
}

/// Per-thread machine state. Threads do not share memory; feed each one
/// through [`chainiq_workload::AddressSpace`] to keep address spaces
/// disjoint.
#[derive(Debug)]
struct ThreadCtx<W> {
    workload: W,
    frontend: Frontend,
    rename: RenameState,
    rob: Rob,
    lsq: Lsq,
    /// Branch the front end is stalled behind, once dispatched.
    redirect_waiting: Option<InstTag>,
    /// Out of dispatch for the rest of this cycle (ROB full or nothing
    /// ready in the front end).
    dispatch_blocked: bool,
}

/// The simulated processor: Table 1's core around a pluggable instruction
/// queue.
///
/// The core is thread-indexed. Each hardware thread owns its workload,
/// front end, rename map, reorder buffer and load/store queue; all
/// threads share one instruction queue, function-unit pool, cache
/// hierarchy, predictor set and event wheel. Instruction tags are
/// allocated globally, so the queue's oldest-first policies arbitrate
/// across threads by age. Fetch serves one thread per cycle round-robin;
/// dispatch and commit bandwidth are shared round-robin. [`Pipeline::new`]
/// builds the single-thread machine; [`SmtPipeline`](crate::SmtPipeline)
/// builds several threads over one queue.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Pipeline<Q, W> {
    config: SimConfig,
    iq: Q,
    threads: Vec<ThreadCtx<W>>,
    now: Cycle,
    mem: Hierarchy,
    fus: FuPool,
    bp: HybridBranchPredictor,
    hmp: HitMissPredictor,
    lrp: LeftRightPredictor,
    /// Deferred completions/misses/fills, bucketed by delivery cycle.
    events: Wheel<Event>,
    /// Scratch for draining `events` without a per-cycle allocation.
    events_scratch: Vec<Event>,
    /// Scratch for each thread's per-cycle LSQ event report.
    lsq_events: Vec<LsqEvent>,
    /// Scratch for the entries one thread commits in a cycle.
    commit_scratch: Vec<RobEntry>,
    /// Scratch for the instructions the queue issues in a cycle.
    issue_scratch: Vec<IssuedInst>,
    /// The last step, if it was quiet and the machine has one thread
    /// (transient; not serialized).
    quiet: Option<QuietStep>,
    completion_time: TagMap<Cycle>,
    /// Owning thread of each in-flight tag. Kept only with more than one
    /// thread; a single-thread machine never touches it.
    thread_of: TagMap<u8>,
    next_tag: u64,
    /// Thread to fetch from next.
    fetch_rr: usize,
    /// Thread to offer the next dispatch slot to.
    dispatch_rr: usize,
    /// Commit bandwidth per thread per cycle: the commit width split
    /// evenly, rounded up.
    commit_share: usize,
    /// Store-data dependences: the IQ schedules only a store's
    /// address-generation (sim-outorder style), so the data operand is
    /// tracked here and gates the store's completion. (`None` is only
    /// the map's empty-slot value.)
    store_value: TagMap<Option<SrcOperand>>,
    /// Stores whose data producer has not yet announced, keyed by
    /// producer.
    waiting_stores: ParkedStores,
    stats: SimStats,
}

/// The next round-robin position after `i` among `n` threads.
fn next_rr(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

impl<Q: IssueQueue, W: Iterator<Item = Inst>> Pipeline<Q, W> {
    /// Builds a processor around `iq`, fed by `workload`.
    #[must_use]
    pub fn new(config: SimConfig, iq: Q, workload: W) -> Self {
        Self::with_threads(config, iq, vec![workload])
    }

    /// Builds a machine over `iq` with one hardware thread per workload.
    /// The ROB capacity (`config.rob_size`) is partitioned statically and
    /// equally among the threads.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or has more than 255 entries.
    pub(crate) fn with_threads(config: SimConfig, iq: Q, workloads: Vec<W>) -> Self {
        assert!(!workloads.is_empty(), "at least one thread");
        assert!(workloads.len() <= 255, "thread id fits a u8");
        let n = workloads.len();
        let per_thread_rob = (config.rob_size / n).max(1);
        let threads = workloads
            .into_iter()
            .map(|workload| ThreadCtx {
                workload,
                frontend: Frontend::new(),
                rename: RenameState::new(),
                rob: Rob::new(per_thread_rob),
                lsq: Lsq::new(config.read_ports, config.write_ports),
                redirect_waiting: None,
                dispatch_blocked: false,
            })
            .collect();
        Pipeline {
            iq,
            threads,
            now: 0,
            mem: Hierarchy::new(config.mem),
            fus: FuPool::new(config.fus_per_kind, config.issue_width),
            bp: HybridBranchPredictor::new(config.branch),
            hmp: HitMissPredictor::default(),
            lrp: LeftRightPredictor::default(),
            events: Wheel::new(EVENT_WHEEL_BUCKETS),
            events_scratch: Vec::new(),
            lsq_events: Vec::new(),
            commit_scratch: Vec::new(),
            issue_scratch: Vec::new(),
            quiet: None,
            completion_time: TagMap::new(),
            thread_of: TagMap::new(),
            next_tag: 0,
            fetch_rr: 0,
            dispatch_rr: 0,
            commit_share: config.commit_width.div_ceil(n),
            store_value: TagMap::new(),
            waiting_stores: ParkedStores::default(),
            stats: SimStats::default(),
            config,
        }
    }

    /// The queue under test.
    #[must_use]
    pub fn iq(&self) -> &Q {
        &self.iq
    }

    /// Instructions committed by thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub(crate) fn committed_of(&self, t: usize) -> u64 {
        self.threads[t].rob.committed()
    }

    fn committed(&self) -> u64 {
        self.threads.iter().map(|t| t.rob.committed()).sum()
    }

    /// Runs until `max_insts` instructions commit across all threads (or
    /// the cycle guard trips) and returns the statistics.
    ///
    /// After a quiet step the run jumps over the cycles that would repeat
    /// it (DESIGN.md §9, "Quiet cycles"); the statistics and the machine
    /// state are those of stepping every cycle.
    pub fn run(&mut self, max_insts: u64) -> SimStats {
        let mut c = self.committed();
        let mut last_progress = (self.now, c);
        while c < max_insts && self.now < self.config.max_cycles {
            self.step();
            c = self.committed();
            if c != last_progress.1 {
                last_progress = (self.now, c);
            } else if self.now - last_progress.0 > HANG_CYCLES {
                self.stats.hung = true;
                break;
            } else if let Some(quiet) = self.quiet {
                // The cycle limit and the hang guard end the run at a
                // cycle it must step itself.
                let limit = self.config.max_cycles.min(last_progress.0 + HANG_CYCLES + 1);
                self.fast_forward(&quiet, limit);
            }
        }
        self.snapshot_stats()
    }

    /// Jumps from a quiet step to the cycle before the earliest one at
    /// which any component could act on its own (and before `limit`),
    /// adding what the skipped repeats of the step would have counted.
    fn fast_forward(&mut self, quiet: &QuietStep, limit: Cycle) {
        let now = self.now;
        let next = now + 1;
        let ctx = &self.threads[0];
        let mut until = limit.min(ctx.frontend.next_fetch(now));
        if ctx.rob.has_space() {
            // An instruction still in the front-end pipe reaches dispatch.
            if let Some(at) = ctx.frontend.next_dispatchable().filter(|&at| at > now) {
                until = until.min(at);
            }
        }
        if until > next {
            until = until.min(self.iq.next_event(&quiet.cycle));
        }
        if until > next {
            until = until.min(ctx.lsq.next_event(now));
        }
        if until > next {
            until = self.events.next_due(until);
        }
        if until <= next {
            return;
        }
        let k = until - next;
        self.iq.skip_quiet(&quiet.cycle, k);
        let ctx = &mut self.threads[0];
        ctx.rob.sample_occupancy(k);
        ctx.lsq.repeat_cycle(k, &mut self.mem);
        ctx.frontend.count_stalls(k);
        if let Some(pc) = quiet.hmp_pc {
            self.hmp.predict_hit_n(pc, k);
        }
        if let Some(pc) = quiet.lrp_pc {
            self.lrp.predict_n(pc, k);
        }
        self.now = until - 1;
    }

    /// A snapshot of the statistics so far, summed over threads.
    #[must_use]
    pub fn snapshot_stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.now;
        s.committed = self.committed();
        s.fetched = self.threads.iter().map(|t| t.frontend.stats().fetched).sum();
        s.mispredict_stall_cycles =
            self.threads.iter().map(|t| t.frontend.stats().mispredict_stall_cycles).sum();
        s.branch_lookups = self.bp.stats().lookups;
        s.branch_correct = self.bp.stats().correct;
        s.hmp = *self.hmp.stats();
        s.lrp = self.lrp.stats();
        s.mem = *self.mem.stats();
        s.iq = self.iq.stats();
        s.rob_mean_occupancy = self.threads.iter().map(|t| t.rob.mean_occupancy()).sum();
        s.loads_issued = self.threads.iter().map(|t| t.lsq.stats().loads_issued).sum();
        s.stores_written = self.threads.iter().map(|t| t.lsq.stats().stores_written).sum();
        s.store_forwards = self.threads.iter().map(|t| t.lsq.stats().forwards).sum();
        s
    }

    /// The thread that owns in-flight `tag`; with one thread there is no
    /// map to consult.
    fn thread_of(&self, tag: InstTag) -> Option<usize> {
        if self.threads.len() == 1 {
            Some(0)
        } else {
            self.thread_of.get(tag.0).map(usize::from)
        }
    }

    fn schedule(&mut self, at: Cycle, ev: Event) {
        self.events.schedule(at.max(self.now + 1), ev);
    }

    /// A producer's completion time became known: broadcast it and wake
    /// any stores waiting on that value.
    fn announce(&mut self, tag: InstTag, ready_at: Cycle) {
        self.iq.announce_ready(tag, ready_at);
        if let Some(t) = self.thread_of(tag) {
            self.threads[t].rename.announce(tag, ready_at);
        }
        self.completion_time.insert(tag.0, ready_at);
        while let Some(st) = self.waiting_stores.pop(tag) {
            self.schedule(ready_at, Event::Complete(st));
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.now += 1;
        let now = self.now;
        let n = self.threads.len();
        self.fus.next_cycle();

        // Anything beyond the per-cycle counters makes the cycle active.
        let mut active = false;

        // 1. Deliver timing events due this cycle.
        let mut evs = std::mem::take(&mut self.events_scratch);
        self.events.drain_into(now, &mut evs);
        active |= !evs.is_empty();
        for ev in evs.drain(..) {
            match ev {
                Event::LoadMiss(tag) => self.iq.on_load_miss(tag),
                Event::LoadFill(tag) => self.iq.on_load_fill(tag),
                Event::Complete(tag) => self.complete(tag),
            }
        }
        self.events_scratch = evs;

        // 2. Advance the queue. "Execution idle" for the §4.5 deadlock
        // detector means no pending timing event can change queue state
        // from outside: every in-flight completion, fill and resume is an
        // entry in `events`, so an empty event queue guarantees that only
        // the queue itself can make progress.
        let execution_idle = self.events.is_empty();
        self.iq.tick(now, execution_idle);
        // What this cycle is, should it turn out quiet.
        let mut quiet = QuietStep {
            cycle: QuietCycle { now, execution_idle, refused: None },
            hmp_pc: None,
            lrp_pc: None,
        };
        for t in &mut self.threads {
            t.rob.sample_occupancy(1);
        }

        // 3. Memory scheduling, per thread.
        for t in 0..n {
            let mut lsq_events = std::mem::take(&mut self.lsq_events);
            self.threads[t].lsq.cycle(now, &mut self.mem, &mut lsq_events);
            active |= !lsq_events.is_empty();
            for ev in lsq_events.drain(..) {
                match ev {
                    LsqEvent::LoadResolved {
                        tag,
                        pc,
                        predicted_hit,
                        completes_at,
                        l1_resolved_at,
                        was_l1_hit,
                        ..
                    } => {
                        self.announce(tag, completes_at);
                        self.hmp.update(pc, was_l1_hit);
                        if self.config.use_hmp {
                            self.hmp.record_outcome(predicted_hit, was_l1_hit);
                        }
                        if !was_l1_hit {
                            self.schedule(l1_resolved_at, Event::LoadMiss(tag));
                            // The fill (chain resume) must be delivered
                            // before the same-cycle writeback releases the
                            // chain.
                            self.schedule(completes_at, Event::LoadFill(tag));
                        }
                        self.schedule(completes_at, Event::Complete(tag));
                    }
                    LsqEvent::StoreWritten { .. } => {}
                }
            }
            self.lsq_events = lsq_events;
        }

        // 4. Issue from the shared queue.
        let mut issued = std::mem::take(&mut self.issue_scratch);
        self.iq.select_issue_into(now, &mut self.fus, &mut issued);
        active |= !issued.is_empty();
        for sel in issued.drain(..) {
            let t = self.thread_of(sel.tag).unwrap_or(0);
            let ctx = &mut self.threads[t];
            ctx.rob.mark(sel.tag, RobState::Issued);
            match sel.op {
                OpClass::Load | OpClass::Store => {
                    // EA available next cycle; the LSQ takes over. Loads
                    // complete when their access resolves; stores complete
                    // once both the EA is computed and the data value is
                    // produced.
                    ctx.lsq.ea_computed(sel.tag, now + 1);
                    if sel.op == OpClass::Store {
                        match self.store_value_ready_at(sel.tag) {
                            Ok(at) => self.schedule(at.max(now + 1), Event::Complete(sel.tag)),
                            Err(producer) => {
                                self.waiting_stores.park(producer, sel.tag);
                            }
                        }
                    }
                }
                OpClass::Branch => {
                    if ctx.redirect_waiting == Some(sel.tag) {
                        ctx.redirect_waiting = None;
                        ctx.frontend.resume(now + 1);
                    }
                    self.schedule(now + 1, Event::Complete(sel.tag));
                }
                op => {
                    let ready = now + u64::from(op.exec_latency());
                    self.announce(sel.tag, ready);
                    self.schedule(ready, Event::Complete(sel.tag));
                }
            }
        }
        self.issue_scratch = issued;

        // 5. Dispatch (rename): shared bandwidth, round-robin over the
        // threads. A thread drops out for the cycle once its ROB is full
        // or its front end has nothing ready; a full queue stops everyone.
        for t in &mut self.threads {
            t.dispatch_blocked = false;
        }
        let mut open = n;
        let mut dispatched = 0;
        while dispatched < self.config.dispatch_width && open > 0 {
            let t = self.dispatch_rr;
            self.dispatch_rr = next_rr(t, n);
            let ctx = &mut self.threads[t];
            if ctx.dispatch_blocked {
                continue;
            }
            let fetched =
                if ctx.rob.has_space() { ctx.frontend.take_dispatchable(now) } else { None };
            let Some(fetched) = fetched else {
                ctx.dispatch_blocked = true;
                open -= 1;
                continue;
            };
            let inst = fetched.inst;
            let tag = InstTag(self.next_tag);
            let mut regs = inst.srcs();
            let src0 = regs.next().map(|r| ctx.rename.src(r));
            let mut src1 = regs.next().map(|r| ctx.rename.src(r));
            // A store's IQ entry is its address generation (base operand
            // only); the data operand is tracked by the pipeline and
            // gates completion, not address issue.
            let mut store_data: Option<SrcOperand> = None;
            if inst.is_store() && src1.is_some() {
                store_data = src1.take();
            }
            let predicted_hit = if inst.is_load() && self.config.use_hmp {
                self.hmp.predict_hit(inst.pc)
            } else {
                false
            };
            let lrp_pick = if self.config.use_lrp && src1.is_some() {
                Some(match self.lrp.predict(inst.pc) {
                    Operand::Left => OperandPick::Left,
                    Operand::Right => OperandPick::Right,
                })
            } else {
                None
            };
            let info = DispatchInfo {
                tag,
                op: inst.op,
                dest: inst.dest,
                srcs: [src0, src1],
                predicted_hit,
                lrp_pick,
                thread: t as u8,
            };
            if let Err(stall) = self.iq.dispatch(now, info) {
                ctx.frontend.undo_take(fetched);
                quiet.cycle.refused = Some(stall);
                quiet.hmp_pc = (inst.is_load() && self.config.use_hmp).then_some(inst.pc);
                quiet.lrp_pc = lrp_pick.map(|_| inst.pc);
                break;
            }
            self.next_tag += 1;
            dispatched += 1;
            self.stats.dispatched += 1;
            if n > 1 {
                self.thread_of.insert(tag.0, t as u8);
            }
            if let Some(mem) = inst.mem {
                ctx.lsq.push(tag, inst.pc, mem.addr, inst.is_store(), predicted_hit);
            }
            if let Some(data) = store_data {
                self.store_value.insert(tag.0, Some(data));
            }
            if let Some(dest) = inst.dest {
                ctx.rename.define(dest, tag);
            }
            if fetched.mispredicted {
                ctx.redirect_waiting = Some(tag);
            }
            ctx.rob.push(RobEntry {
                tag,
                inst,
                state: RobState::Dispatched,
                src_producers: [src0.and_then(|s| s.producer), src1.and_then(|s| s.producer)],
            });
        }

        // 6. Commit: shared bandwidth, split evenly over the threads.
        active |= dispatched > 0;
        for ctx in &mut self.threads {
            ctx.rob.commit(self.commit_share, &mut self.commit_scratch);
            active |= !self.commit_scratch.is_empty();
            for e in self.commit_scratch.drain(..) {
                ctx.rename.retire(e.inst.dest, e.tag);
                ctx.lsq.on_commit(e.tag);
                self.completion_time.remove(e.tag.0);
                // Only stores ever park a data operand here.
                if e.inst.is_store() {
                    self.store_value.remove(e.tag.0);
                }
                if n > 1 {
                    self.thread_of.remove(e.tag.0);
                }
            }
        }

        // 7. Fetch: one thread per cycle, round-robin.
        let ctx = &mut self.threads[self.fetch_rr];
        self.fetch_rr = next_rr(self.fetch_rr, n);
        active |= !ctx.frontend.stalled_at(now);
        ctx.frontend.fetch(now, &self.config, &mut ctx.workload, &mut self.bp, &mut self.mem);

        // A quiet single-thread cycle repeats until some component acts
        // (with more threads the round-robin pointers move every cycle).
        self.quiet = (!active && n == 1).then_some(quiet);
    }

    /// When the data value of store `tag` is (or will be) available:
    /// `Ok(cycle)` when known, `Err(producer)` when the producing
    /// instruction has not announced its result yet (the store must park
    /// in `waiting_stores` keyed by that producer).
    fn store_value_ready_at(&self, tag: InstTag) -> Result<Cycle, InstTag> {
        let Some(data) = self.store_value.get(tag.0).flatten() else {
            return Ok(self.now + 1); // no data dependence recorded
        };
        let Some(producer) = data.producer else {
            return Ok(self.now + 1);
        };
        if let Some(t) = self.completion_time.get(producer.0) {
            return Ok(t);
        }
        if let Some(t) = data.known_ready_at {
            return Ok(t);
        }
        // Producer already committed (and pruned) => the value exists.
        let t = self.thread_of(producer).unwrap_or(0);
        match self.threads[t].rob.get(producer) {
            None => Ok(self.now + 1),
            Some(e) if e.state == RobState::Completed => Ok(self.now + 1),
            _ => Err(producer),
        }
    }

    /// Writeback of `tag`: completes the ROB entry, releases chains, and
    /// trains the left/right predictor with the operand that actually
    /// arrived later.
    fn complete(&mut self, tag: InstTag) {
        let Some(t) = self.thread_of(tag) else {
            return;
        };
        let rob = &mut self.threads[t].rob;
        rob.mark(tag, RobState::Completed);
        self.iq.on_writeback(tag);
        // LRP training: which of the two producers finished later?
        if let Some((pc, [Some(a), Some(b)])) = rob.get(tag).map(|e| (e.inst.pc, e.src_producers)) {
            let ta = self.completion_time.get(a.0).unwrap_or(0);
            let tb = self.completion_time.get(b.0).unwrap_or(0);
            let later = if tb > ta { Operand::Right } else { Operand::Left };
            self.lrp.update(pc, later);
        }
    }
}

impl chainiq_ckpt::Pack for Event {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match self {
            Event::Complete(tag) => {
                w.put_u8(0);
                tag.pack(w);
            }
            Event::LoadMiss(tag) => {
                w.put_u8(1);
                tag.pack(w);
            }
            Event::LoadFill(tag) => {
                w.put_u8(2);
                tag.pack(w);
            }
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        match r.take_u8("pipeline event tag")? {
            0 => Ok(Event::Complete(Pack::unpack(r)?)),
            1 => Ok(Event::LoadMiss(Pack::unpack(r)?)),
            2 => Ok(Event::LoadFill(Pack::unpack(r)?)),
            _ => {
                Err(chainiq_ckpt::CkptError::Corrupt { context: "pipeline event tag".to_string() })
            }
        }
    }
}

impl<Q, W> chainiq_ckpt::Snapshot for Pipeline<Q, W>
where
    Q: IssueQueue + chainiq_ckpt::Snapshot,
    W: Iterator<Item = Inst> + chainiq_ckpt::Snapshot,
{
    const COMPONENT: &'static str = "cpu.pipeline";
    const VERSION: u16 = 3;

    /// The machine configuration is not serialized (restore targets a
    /// pipeline already built from it); a fingerprint of its debug
    /// rendering and the thread count guard against restoring into a
    /// differently configured machine. The queue, workloads, memory
    /// hierarchy and predictors are nested sections so each carries its
    /// own version and fingerprint.
    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        chainiq_ckpt::fingerprint(format!("{:?}", self.config).as_bytes()).pack(w);
        self.threads.len().pack(w);
        self.now.pack(w);
        chainiq_ckpt::save_section(w, &self.iq);
        chainiq_ckpt::save_section(w, &self.mem);
        chainiq_ckpt::save_section(w, &self.bp);
        chainiq_ckpt::save_section(w, &self.hmp);
        chainiq_ckpt::save_section(w, &self.lrp);
        self.fus.pack(w);
        for t in &self.threads {
            chainiq_ckpt::save_section(w, &t.workload);
            t.frontend.pack(w);
            t.rename.pack(w);
            t.rob.pack(w);
            t.lsq.pack(w);
            t.redirect_waiting.pack(w);
        }
        // Canonical forms: the wheel dumps in drain order, the tag maps in
        // ascending-key order, so the bytes are independent of how the
        // live structures were built.
        self.events.entries_sorted().pack(w);
        self.completion_time.to_sorted_vec().pack(w);
        self.thread_of.to_sorted_vec().pack(w);
        self.next_tag.pack(w);
        self.fetch_rr.pack(w);
        self.dispatch_rr.pack(w);
        // Both maps are written as key-sorted pairs, this section's
        // layout for them.
        let store_value: Vec<(u64, SrcOperand)> = self
            .store_value
            .to_sorted_vec()
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .collect();
        store_value.pack(w);
        self.waiting_stores.to_map().pack(w);
        self.stats.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let fp: u64 = Pack::unpack(r)?;
        let threads: usize = Pack::unpack(r)?;
        if fp != chainiq_ckpt::fingerprint(format!("{:?}", self.config).as_bytes())
            || threads != self.threads.len()
        {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "machine configuration differs from the running pipeline".to_string(),
            });
        }
        let now: Cycle = Pack::unpack(r)?;
        chainiq_ckpt::restore_section(r, &mut self.iq)?;
        chainiq_ckpt::restore_section(r, &mut self.mem)?;
        chainiq_ckpt::restore_section(r, &mut self.bp)?;
        chainiq_ckpt::restore_section(r, &mut self.hmp)?;
        chainiq_ckpt::restore_section(r, &mut self.lrp)?;
        let fus: FuPool = Pack::unpack(r)?;
        for t in &mut self.threads {
            chainiq_ckpt::restore_section(r, &mut t.workload)?;
            let frontend: Frontend = Pack::unpack(r)?;
            let rename: RenameState = Pack::unpack(r)?;
            let rob: Rob = Pack::unpack(r)?;
            let lsq: Lsq = Pack::unpack(r)?;
            let redirect_waiting: Option<InstTag> = Pack::unpack(r)?;
            t.frontend = frontend;
            t.rename = rename;
            t.rob = rob;
            t.lsq = lsq;
            t.redirect_waiting = redirect_waiting;
        }
        let events: Vec<(Cycle, Event)> = Pack::unpack(r)?;
        let completion_time: Vec<(u64, Cycle)> = Pack::unpack(r)?;
        let thread_of: Vec<(u64, u8)> = Pack::unpack(r)?;
        let next_tag: u64 = Pack::unpack(r)?;
        let fetch_rr: usize = Pack::unpack(r)?;
        let dispatch_rr: usize = Pack::unpack(r)?;
        let store_value: Vec<(u64, SrcOperand)> = Pack::unpack(r)?;
        let waiting_stores: BTreeMap<InstTag, Vec<InstTag>> = Pack::unpack(r)?;
        let stats: SimStats = Pack::unpack(r)?;
        if fetch_rr >= threads
            || dispatch_rr >= threads
            || thread_of.iter().any(|&(_, t)| usize::from(t) >= threads)
        {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "pipeline thread index out of range".to_string(),
            });
        }
        self.now = now;
        self.fus = fus;
        // Pending events are all strictly in the future (delivery empties
        // a cycle's bucket before the snapshot boundary), so rebasing the
        // wheel at `now` and replaying in drain order reproduces the live
        // wheel's delivery sequence exactly.
        self.events.reset(now);
        for (c, ev) in events {
            self.events.schedule(c, ev);
        }
        self.events_scratch.clear();
        self.lsq_events.clear();
        self.issue_scratch.clear();
        self.quiet = None;
        self.completion_time.clear();
        for (k, v) in completion_time {
            self.completion_time.insert(k, v);
        }
        self.thread_of.clear();
        for (k, v) in thread_of {
            self.thread_of.insert(k, v);
        }
        self.next_tag = next_tag;
        self.fetch_rr = fetch_rr;
        self.dispatch_rr = dispatch_rr;
        self.store_value.clear();
        for (k, v) in store_value {
            self.store_value.insert(k, Some(v));
        }
        self.waiting_stores = ParkedStores::from_map(waiting_stores);
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_core::{DispatchStall, IqStats, SegmentedIq, SegmentedIqConfig};
    use chainiq_workload::{Bench, SyntheticWorkload};

    #[test]
    fn memory_stalls_are_jumped_not_stepped() {
        let qc = SegmentedIqConfig::paper(128, Some(64));
        let config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
        let workload = SyntheticWorkload::from_profile(Bench::Swim.profile(), 5);
        let mut sim = Pipeline::new(config, SegmentedIq::new(qc), workload);
        // `run`'s loop without its guards, counting the cycles jumped.
        let mut jumped = 0;
        while sim.committed() < 3_000 {
            sim.step();
            if let Some(quiet) = sim.quiet {
                let from = sim.now;
                sim.fast_forward(&quiet, Cycle::MAX);
                jumped += sim.now - from;
            }
        }
        assert!(jumped * 4 > sim.now, "only {jumped} of {} cycles jumped", sim.now);
    }

    /// A queue that takes eight instructions and never issues one, and
    /// says so: its horizon is never.
    struct Wedged(IqStats);

    impl IssueQueue for Wedged {
        fn capacity(&self) -> usize {
            8
        }
        fn occupancy(&self) -> usize {
            self.0.dispatched as usize
        }
        fn tick(&mut self, _now: Cycle, _execution_idle: bool) {
            self.0.cycles += 1;
        }
        fn dispatch(&mut self, _now: Cycle, _info: DispatchInfo) -> Result<(), DispatchStall> {
            if self.occupancy() < self.capacity() {
                self.0.dispatched += 1;
                Ok(())
            } else {
                self.0.stalls_full += 1;
                Err(DispatchStall::QueueFull)
            }
        }
        fn select_issue(&mut self, _now: Cycle, _fus: &mut FuPool) -> Vec<IssuedInst> {
            Vec::new()
        }
        fn announce_ready(&mut self, _producer: InstTag, _ready_at: Cycle) {}
        fn flush(&mut self) {}
        fn stats(&self) -> IqStats {
            self.0
        }
        fn next_event(&self, _quiet: &QuietCycle) -> Cycle {
            Cycle::MAX
        }
        fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
            self.0.cycles += k;
            if quiet.refused.is_some() {
                self.0.stalls_full += k;
            }
        }
    }

    #[test]
    fn a_wedged_machine_is_declared_hung_at_the_guard() {
        let workload = SyntheticWorkload::from_profile(Bench::Gcc.profile(), 9);
        let mut sim = Pipeline::new(SimConfig::default(), Wedged(IqStats::default()), workload);
        let stats = sim.run(1_000);
        assert!(stats.hung);
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.cycles, HANG_CYCLES + 1, "the guard trips where stepping would");
        assert_eq!(stats.iq.cycles, stats.cycles, "every cycle ticked or skipped once");
    }

    #[test]
    fn more_threads_never_skip() {
        let config = SimConfig::default().rob_for_iq(64);
        let workloads = (0..2)
            .map(|seed| SyntheticWorkload::from_profile(Bench::Swim.profile(), seed))
            .collect();
        let mut sim = Pipeline::with_threads(config, chainiq_baseline::IdealIq::new(64), workloads);
        for _ in 0..2_000 {
            sim.step();
            assert!(sim.quiet.is_none(), "a two-thread step at {} was taken as quiet", sim.now);
        }
    }
}
