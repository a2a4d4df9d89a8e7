//! Heap allocations of whole-pipeline runs, counted by the allocator.
//!
//! Every queue design in the workspace — segmented, ideal, prescheduled
//! and distance — must reach a steady state that leaves the heap alone:
//! after a warmup, the allocations made inside `IssueQueue` methods stay
//! below one per 1,000 calls. That leaves room for amortised growth
//! (event-wheel buckets, table doubling) and none for an allocation per
//! call, which measures in the tens per 1,000. The whole machine around
//! each queue (pipeline, LSQ, memory, front end and workload) must stay
//! below 20 allocations per 1,000 committed instructions. A test-local
//! queue that allocates a fresh buffer on every selection is the standing
//! proof that the counter sees allocations at all.
//!
//! Counts are kept per thread, so the `#[test]`s run in parallel without
//! seeing each other's allocations. Run with `--nocapture` to print the
//! measured rates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chainiq_baseline::{DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq};
use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, QuietCycle,
    SegmentedIq, SegmentedIqConfig,
};
use chainiq_cpu::{Pipeline, SimConfig};
use chainiq_isa::Cycle;
use chainiq_workload::{Bench, SyntheticWorkload};

/// Committed instructions before counting starts.
const WARMUP: u64 = 20_000;
/// Committed instructions counted after the warmup.
const WINDOW: u64 = 30_000;
/// Allowed queue allocations per 1,000 queue calls after the warmup.
const STEADY_BOUND: f64 = 1.0;
/// Allowed whole-machine allocations per 1,000 committed instructions
/// after the warmup: twice the worst measured rate (9.4, prescheduled on
/// swim).
const MACHINE_BOUND: f64 = 20.0;
/// A memory-bound and a branch-bound bench.
const BENCHES: [Bench; 2] = [Bench::Swim, Bench::Gcc];

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting every allocation and reallocation
/// against the calling thread.
struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

#[expect(unsafe_code, reason = "a global allocator is an `unsafe impl GlobalAlloc`")]
// SAFETY: every method forwards its arguments unchanged to `System`, so
// this allocator keeps `GlobalAlloc`'s contract exactly as `System` does.
// `note` touches only a const-initialised thread-local `Cell<u64>`, which
// needs no allocation and no destructor, so it cannot re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Queue calls and the allocations made inside them.
#[derive(Default)]
struct Tally {
    calls: Cell<u64>,
    allocs: Cell<u64>,
}

impl Tally {
    fn count<R>(&self, call: impl FnOnce() -> R) -> R {
        let before = allocs();
        let r = call();
        self.allocs.set(self.allocs.get() + allocs() - before);
        self.calls.set(self.calls.get() + 1);
        r
    }

    fn reset(&self) {
        self.calls.set(0);
        self.allocs.set(0);
    }
}

/// `Q` with every [`IssueQueue`] method counted, horizons included, so
/// the machine fast-forwards exactly as it does around the bare queue.
struct Counted<Q> {
    inner: Q,
    tally: Tally,
}

impl<Q: IssueQueue> IssueQueue for Counted<Q> {
    fn capacity(&self) -> usize {
        self.tally.count(|| self.inner.capacity())
    }
    fn occupancy(&self) -> usize {
        self.tally.count(|| self.inner.occupancy())
    }
    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        self.tally.count(|| self.inner.tick(now, execution_idle));
    }
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        self.tally.count(|| self.inner.dispatch(now, info))
    }
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        self.tally.count(|| self.inner.select_issue(now, fus))
    }
    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.tally.count(|| self.inner.select_issue_into(now, fus, out));
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.tally.count(|| self.inner.announce_ready(producer, ready_at));
    }
    fn on_load_miss(&mut self, tag: InstTag) {
        self.tally.count(|| self.inner.on_load_miss(tag));
    }
    fn on_load_fill(&mut self, tag: InstTag) {
        self.tally.count(|| self.inner.on_load_fill(tag));
    }
    fn on_writeback(&mut self, tag: InstTag) {
        self.tally.count(|| self.inner.on_writeback(tag));
    }
    fn flush(&mut self) {
        self.tally.count(|| self.inner.flush());
    }
    fn stats(&self) -> IqStats {
        self.tally.count(|| self.inner.stats())
    }
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        self.tally.count(|| self.inner.next_event(quiet))
    }
    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.tally.count(|| self.inner.skip_quiet(quiet, k));
    }
}

/// Runs `bench` past the warmup, then counts the window. Returns queue
/// allocations per 1,000 queue calls and the whole machine's allocations
/// per 1,000 committed instructions, after printing both.
fn alloc_rates<Q: IssueQueue>(
    name: &str,
    mut config: SimConfig,
    iq: Q,
    bench: Bench,
) -> (f64, f64) {
    config.use_hmp = true;
    let workload = SyntheticWorkload::from_profile(bench.profile(), 42);
    let mut sim = Pipeline::new(config, Counted { inner: iq, tally: Tally::default() }, workload);
    let warm = sim.run(WARMUP);
    sim.iq().tally.reset();
    let machine_before = allocs();
    let stats = sim.run(WARMUP + WINDOW);
    let machine = allocs() - machine_before;
    assert!(!stats.hung, "{name} {bench:?}: the run hung");
    let tally = &sim.iq().tally;
    let (calls, queue) = (tally.calls.get(), tally.allocs.get());
    let per_kcall = queue as f64 * 1_000.0 / calls as f64;
    let per_kinst = machine as f64 * 1_000.0 / (stats.committed - warm.committed) as f64;
    println!(
        "{name} {bench:?}: {per_kcall:.2} queue allocs per 1,000 calls ({queue} in {calls}); \
         {per_kinst:.2} machine allocs per kinst"
    );
    (per_kcall, per_kinst)
}

fn assert_steady<Q: IssueQueue>(name: &str, config: SimConfig, make_iq: impl Fn() -> Q) {
    for bench in BENCHES {
        let (rate, machine) = alloc_rates(name, config, make_iq(), bench);
        assert!(
            rate < STEADY_BOUND,
            "{name} {bench:?}: {rate:.2} allocations per 1,000 queue calls after warmup"
        );
        assert!(
            machine < MACHINE_BOUND,
            "{name} {bench:?}: {machine:.2} machine allocations per kinst after warmup"
        );
    }
}

fn segmented(qc: SegmentedIqConfig) {
    let config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
    assert_steady(&format!("segmented {}", qc.capacity()), config, || SegmentedIq::new(qc));
}

#[test]
fn segmented_512_steady_state_does_not_allocate() {
    segmented(SegmentedIqConfig::paper(512, Some(64)));
}

#[test]
fn segmented_64_steady_state_does_not_allocate() {
    segmented(SegmentedIqConfig::paper(64, Some(16)));
}

#[test]
fn prescheduled_steady_state_does_not_allocate() {
    let pc = PrescheduleConfig::paper(24);
    let config = SimConfig::default().rob_for_iq(pc.capacity()).with_extra_dispatch_cycle();
    assert_steady("prescheduled", config, || PrescheduledIq::new(pc));
}

#[test]
fn ideal_steady_state_does_not_allocate() {
    assert_steady("ideal", SimConfig::default().rob_for_iq(512), || IdealIq::new(512));
}

#[test]
fn distance_steady_state_does_not_allocate() {
    let dc = DistanceConfig::paper_sized(24);
    let config = SimConfig::default().rob_for_iq(dc.capacity()).with_extra_dispatch_cycle();
    assert_steady("distance", config, || DistanceIq::new(dc));
}

/// The ideal queue, selecting into a fresh buffer on every call: the
/// counter's positive control.
struct Allocating(IdealIq);

impl IssueQueue for Allocating {
    fn capacity(&self) -> usize {
        self.0.capacity()
    }
    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }
    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        self.0.tick(now, execution_idle);
    }
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        self.0.dispatch(now, info)
    }
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        let mut issued = Vec::with_capacity(fus.slots_left().max(1));
        self.0.select_issue_into(now, fus, &mut issued);
        issued
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.0.announce_ready(producer, ready_at);
    }
    fn flush(&mut self) {
        self.0.flush();
    }
    fn stats(&self) -> IqStats {
        self.0.stats()
    }
}

#[test]
fn an_allocating_queue_is_counted() {
    let config = SimConfig::default().rob_for_iq(512);
    for bench in BENCHES {
        let (rate, _) = alloc_rates("allocating", config, Allocating(IdealIq::new(512)), bench);
        assert!(rate > 10.0, "allocating {bench:?}: only {rate:.2} allocations per 1,000 calls");
    }
}
