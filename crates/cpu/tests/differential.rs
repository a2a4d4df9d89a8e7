//! Differential tests.
//!
//! The segmented queue runs in lockstep with `ScanSegmentedIq` (the
//! `scan_iq` module): the same queue as a plain scan kernel, with its own
//! segment vectors, chain table and register tables, sharing no data
//! structure or write path with the indexed production kernel. Both must
//! produce identical issue schedules and statistics, first on seeded
//! queue traffic, then inside whole single-thread and SMT pipelines. The
//! reference keeps the default `next_event`, so its pipelines step every
//! cycle while the production ones fast-forward.
//!
//! A one-thread [`SmtPipeline`] must also run exactly the single-thread
//! [`Pipeline`]: SMT is only more threads over the same machine (§7).
//!
//! And a run that fast-forwards over quiet cycles must be exactly a run
//! that steps every one of them, checkpoint images included.

mod scan_iq;

use chainiq_baseline::{DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq};
use chainiq_ckpt::{restore_section, save_section, CkptError, Reader, Snapshot, Writer};
use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, QuietCycle,
    SegmentedIq, SegmentedIqConfig, SrcOperand,
};
use chainiq_cpu::{Pipeline, SimConfig, SimStats, SmtPipeline};
use chainiq_devtest::{prop_assert_eq, prop_check, Gen};
use chainiq_isa::{ArchReg, Cycle, OpClass};
use chainiq_workload::{AddressSpace, Bench, SyntheticWorkload};
use scan_iq::ScanSegmentedIq;

#[derive(Debug, Clone)]
struct RandInst {
    op_pick: u8,
    dest: u8,
    src1: Option<u8>,
    src2: Option<u8>,
    predicted_hit: bool,
}

fn rand_inst(g: &mut Gen) -> RandInst {
    RandInst {
        op_pick: g.u8(0..6),
        dest: g.u8(0..24),
        src1: g.option(|g| g.u8(0..24)),
        src2: g.option(|g| g.u8(0..24)),
        predicted_hit: g.bool(),
    }
}

fn op_of(pick: u8) -> OpClass {
    match pick {
        0 | 1 => OpClass::IntAlu,
        2 => OpClass::IntMul,
        3 => OpClass::FpAdd,
        4 => OpClass::FpMul,
        _ => OpClass::Load,
    }
}

fn rand_cfg(g: &mut Gen) -> SegmentedIqConfig {
    SegmentedIqConfig {
        num_segments: g.usize(1..6),
        segment_size: [4, 8, 16][g.usize(0..3)],
        promote_width: g.usize(1..5),
        max_chains: g.option(|g| g.usize(2..48)),
        pushdown: g.bool(),
        bypass: g.bool(),
        two_chain_tracking: g.bool(),
        deadlock_recovery: g.bool(),
        predicted_load_latency: 4,
        countdown_includes_descent: g.bool(),
    }
}

/// Drives one queue through a fully deterministic script: random
/// dependence graph, every third load misses (fill + writeback 12 cycles
/// later), optional mid-run flush. `before_cycle` sees the queue at the
/// start of every cycle. Returns the issue schedule `(cycle, tag)`.
fn drive<Q: IssueQueue>(
    iq: &mut Q,
    program: &[RandInst],
    limit: u64,
    flush_at: Option<u64>,
    mut before_cycle: impl FnMut(&mut Q, Cycle),
) -> Vec<(Cycle, InstTag)> {
    let mut fus = FuPool::table1();
    let mut last_writer: [Option<InstTag>; 32] = [None; 32];
    let mut completed: Vec<bool> = vec![false; program.len()];
    let mut dispatched: Vec<bool> = vec![false; program.len()];
    let mut fills: Vec<(u64, InstTag)> = Vec::new();
    let mut next = 0usize;
    let mut schedule = Vec::new();

    for now in 1..=limit {
        before_cycle(iq, now);
        let mut k = 0;
        while k < fills.len() {
            if fills[k].0 == now {
                let (_, tag) = fills.swap_remove(k);
                iq.on_load_fill(tag);
                iq.announce_ready(tag, now);
                iq.on_writeback(tag);
                completed[tag.0 as usize] = true;
            } else {
                k += 1;
            }
        }
        iq.tick(now, schedule.len() == program.len());
        for sel in iq.select_issue(now, &mut fus) {
            if sel.op == OpClass::Load && sel.tag.0 % 3 == 0 {
                iq.on_load_miss(sel.tag);
                iq.announce_ready(sel.tag, now + 12);
                fills.push((now + 12, sel.tag));
            } else {
                iq.announce_ready(sel.tag, now + u64::from(sel.op.exec_latency()));
                iq.on_writeback(sel.tag);
                completed[sel.tag.0 as usize] = true;
            }
            schedule.push((now, sel.tag));
        }
        fus.next_cycle();
        for _ in 0..4 {
            if next >= program.len() {
                break;
            }
            let r = &program[next];
            let tag = InstTag(next as u64);
            let src = |s: Option<u8>| {
                s.map(|reg| {
                    let writer = last_writer[reg as usize];
                    let done = writer.is_none_or(|p| completed[p.0 as usize]);
                    SrcOperand {
                        reg: ArchReg::int(reg),
                        producer: writer.filter(|_| !done),
                        known_ready_at: done.then_some(0),
                    }
                })
            };
            let info = DispatchInfo {
                tag,
                op: op_of(r.op_pick),
                dest: Some(ArchReg::int(r.dest)),
                srcs: [src(r.src1), src(r.src2)],
                predicted_hit: r.predicted_hit,
                lrp_pick: None,
                thread: 0,
            };
            match iq.dispatch(now, info) {
                Ok(()) => {
                    last_writer[r.dest as usize] = Some(tag);
                    dispatched[next] = true;
                    next += 1;
                }
                Err(DispatchStall::QueueFull | DispatchStall::NoChainWire) => break,
            }
        }
        if flush_at == Some(now) {
            iq.flush();
            fills.clear();
            // Model a squash: values of discarded in-flight producers are
            // treated as ready for everything dispatched later.
            for i in 0..program.len() {
                if dispatched[i] {
                    completed[i] = true;
                }
            }
        }
    }
    schedule
}

/// Saves `iq` at the start of cycle `ckpt_at` and carries on in a fresh
/// queue restored from the image, whose entries take fresh slots.
fn restore_at(ckpt_at: Cycle) -> impl FnMut(&mut SegmentedIq, Cycle) {
    move |iq, now| {
        if now != ckpt_at {
            return;
        }
        let mut w = Writer::new();
        save_section(&mut w, &*iq);
        let bytes = w.into_bytes();
        let mut fresh = SegmentedIq::new(*iq.config());
        let restored = restore_section(&mut Reader::new(&bytes), &mut fresh);
        assert!(restored.is_ok(), "mid-run snapshot must restore: {restored:?}");
        *iq = fresh;
    }
}

prop_check! {
    /// The indexed kernel must reproduce the scan reference cycle for
    /// cycle: identical issue schedules, final statistics and occupancy,
    /// for any program, geometry and feature mix, with and without a
    /// mid-run flush. The indexed side is also saved and restored into
    /// a fresh queue at a seeded cycle while the program dispatches, so
    /// its restore is checked against a kernel that shares none of its
    /// code.
    fn indexed_kernel_matches_scan_reference(g, cases = 40) {
        let program = g.vec(1..400, rand_inst);
        let cfg = rand_cfg(g);
        let limit = 1500;
        let flush_at = if g.bool() { Some(limit / 2) } else { None };
        let ckpt_at = g.u64(1..program.len() as u64 + 1);
        let mut fast = SegmentedIq::new(cfg);
        let mut scan = ScanSegmentedIq::new(cfg);
        let sched_fast = drive(&mut fast, &program, limit, flush_at, restore_at(ckpt_at));
        let sched_scan = drive(&mut scan, &program, limit, flush_at, |_, _| {});
        prop_assert_eq!(sched_fast, sched_scan, "issue schedules diverge");
        prop_assert_eq!(
            format!("{:?}", fast.full_stats()),
            format!("{:?}", scan.full_stats()),
            "final statistics diverge"
        );
        prop_assert_eq!(fast.occupancy(), scan.occupancy());
    }

    /// Snapshot-at-N then restore into a freshly constructed queue must
    /// be observationally identical to running straight through: same
    /// issue schedule, same final statistics, same occupancy.
    fn queue_restore_equals_continuous(g, cases = 30) {
        let program = g.vec(1..100, rand_inst);
        let cfg = rand_cfg(g);
        let limit = 1200;
        let ckpt_at = g.usize(1..1200) as u64;
        let mut cont = SegmentedIq::new(cfg);
        let mut snap = SegmentedIq::new(cfg);
        let sched_c = drive(&mut cont, &program, limit, None, |_, _| {});
        let sched_s = drive(&mut snap, &program, limit, None, restore_at(ckpt_at));
        prop_assert_eq!(sched_c, sched_s, "issue schedules diverge after restore");
        prop_assert_eq!(
            format!("{:?}", cont.full_stats()),
            format!("{:?}", snap.full_stats()),
            "final statistics diverge after restore"
        );
        prop_assert_eq!(cont.occupancy(), snap.occupancy());
    }
}

/// The Figure 3 machine: hit/miss and left/right predictors on, one
/// chain per instruction.
fn hmp_lrp(mut config: SimConfig, qc: SegmentedIqConfig) -> (SimConfig, SegmentedIqConfig) {
    config.use_hmp = true;
    config.use_lrp = true;
    (config, SegmentedIqConfig { two_chain_tracking: false, ..qc })
}

/// Runs one benchmark profile on the production queue and on the scan
/// reference through the whole pipeline and compares the full `Debug`
/// render of the machine statistics and of the queue statistics.
fn check_bench(bench: Bench, qc: SegmentedIqConfig, predictors: bool, insts: u64, seed: u64) {
    let config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
    let (config, qc) = if predictors { hmp_lrp(config, qc) } else { (config, qc) };
    let workload = || SyntheticWorkload::from_profile(bench.profile(), seed);
    let mut fast = Pipeline::new(config, SegmentedIq::new(qc), workload());
    let mut scan = Pipeline::new(config, ScanSegmentedIq::new(qc), workload());
    let what = format!("{bench:?} {qc:?} predictors={predictors}");
    assert_eq!(
        format!("{:?}", fast.run(insts)),
        format!("{:?}", scan.run(insts)),
        "{what}: machine statistics diverge"
    );
    assert_eq!(
        format!("{:?}", fast.iq().full_stats()),
        format!("{:?}", scan.iq().full_stats()),
        "{what}: queue statistics diverge"
    );
}

#[test]
fn pipeline_matches_scan_reference_across_benches() {
    // Every benchmark once, over the paper's four sizes and the small
    // test queue (which stresses promotion pressure and deadlock
    // recovery), on the base machine and on Figure 3's.
    let paper = SegmentedIqConfig::paper;
    for (bench, qc, predictors, seed) in [
        (Bench::Ammp, paper(64, Some(16)), false, 3),
        (Bench::Applu, paper(512, Some(128)), true, 5),
        (Bench::Equake, paper(128, Some(64)), false, 7),
        (Bench::Gcc, paper(64, Some(16)), true, 11),
        (Bench::Mgrid, paper(256, Some(64)), true, 13),
        (Bench::Swim, paper(256, None), false, 17),
        (Bench::Twolf, SegmentedIqConfig::small_for_tests(), true, 19),
        (Bench::Vortex, SegmentedIqConfig::small_for_tests(), false, 23),
    ] {
        check_bench(bench, qc, predictors, 3_000, seed);
    }
}

#[test]
fn pipeline_matches_scan_reference_with_features_off() {
    // Pushdown, bypass and two-chain tracking off exercise the other
    // halves of the promotion and dispatch paths.
    let qc = SegmentedIqConfig {
        pushdown: false,
        bypass: false,
        two_chain_tracking: false,
        ..SegmentedIqConfig::paper(64, Some(32))
    };
    check_bench(Bench::Twolf, qc, false, 3_000, 29);
}

#[test]
fn smt_pipeline_matches_scan_reference() {
    // SMT never fast-forwards and keeps one register table per thread.
    // Threads sit in disjoint address spaces, as in the `smt` binary.
    let (config, qc) = hmp_lrp(
        SimConfig::default().rob_for_iq(256).with_extra_dispatch_cycle(),
        SegmentedIqConfig::paper(256, Some(64)),
    );
    for mix in
        [&[Bench::Gcc, Bench::Gcc][..], &[Bench::Ammp, Bench::Swim, Bench::Equake, Bench::Twolf]]
    {
        let threads = || {
            let space = |(t, b): (usize, &Bench)| {
                let base = t as u64 * ((1 << 40) | 0x94_530);
                AddressSpace::new(
                    SyntheticWorkload::from_profile(b.profile(), 41 + t as u64),
                    base,
                    base,
                )
            };
            mix.iter().enumerate().map(space).collect::<Vec<_>>()
        };
        let mut fast = SmtPipeline::new(config, SegmentedIq::new(qc), threads());
        let mut scan = SmtPipeline::new(config, ScanSegmentedIq::new(qc), threads());
        assert_eq!(
            format!("{:?}", fast.run(4_000)),
            format!("{:?}", scan.run(4_000)),
            "{mix:?}: machine statistics diverge"
        );
        assert_eq!(
            format!("{:?}", fast.iq().full_stats()),
            format!("{:?}", scan.iq().full_stats()),
            "{mix:?}: queue statistics diverge"
        );
    }
}

/// Runs `bench` through a one-thread [`SmtPipeline`] and a [`Pipeline`]
/// built from the same machine, queue and workload, returning each
/// run's statistics `Debug` render with `rob_mean_occupancy` zeroed (the
/// SMT entry point never reports ROB occupancy), plus whatever `extra`
/// reads from the finished queue.
fn smt_vs_single<Q: IssueQueue>(
    config: SimConfig,
    make_iq: impl Fn() -> Q,
    bench: Bench,
    seed: u64,
    extra: impl Fn(&Q) -> String,
) -> [(String, String); 2] {
    let workload = || SyntheticWorkload::from_profile(bench.profile(), seed);
    let render = |mut s: SimStats| {
        s.rob_mean_occupancy = 0.0;
        format!("{s:?}")
    };
    let mut single = Pipeline::new(config, make_iq(), workload());
    let single_stats = render(single.run(3_000));
    let mut smt = SmtPipeline::new(config, make_iq(), vec![workload()]);
    let smt_stats = render(smt.run(3_000));
    [(single_stats, extra(single.iq())), (smt_stats, extra(smt.iq()))]
}

#[test]
fn one_thread_smt_matches_pipeline() {
    let mut seg_config = SimConfig::default().rob_for_iq(128).with_extra_dispatch_cycle();
    seg_config.use_hmp = true;
    seg_config.use_lrp = true;
    let pc = PrescheduleConfig::paper(8);
    let mut pre_config = SimConfig::default().rob_for_iq(pc.capacity()).with_extra_dispatch_cycle();
    pre_config.use_hmp = true;
    for (i, bench) in [Bench::Gcc, Bench::Swim, Bench::Equake, Bench::Twolf, Bench::Vortex]
        .into_iter()
        .enumerate()
    {
        let seed = 31 + i as u64;
        let runs = [
            (
                "ideal",
                smt_vs_single(
                    SimConfig::default().rob_for_iq(64),
                    || IdealIq::new(64),
                    bench,
                    seed,
                    |_| String::new(),
                ),
            ),
            (
                "segmented",
                smt_vs_single(
                    seg_config,
                    || SegmentedIq::new(SegmentedIqConfig::paper(128, Some(64))),
                    bench,
                    seed,
                    |iq| format!("{:?}", iq.full_stats()),
                ),
            ),
            (
                "prescheduled",
                smt_vs_single(
                    pre_config,
                    || PrescheduledIq::new(pc),
                    bench,
                    seed,
                    |_| String::new(),
                ),
            ),
        ];
        for (queue, [single, smt]) in runs {
            assert_eq!(single.0, smt.0, "{bench:?}/{queue}: machine statistics diverge");
            assert_eq!(single.1, smt.1, "{bench:?}/{queue}: queue statistics diverge");
        }
    }
}

/// A queue that forwards every method to `inner` and counts the cycles
/// it is asked to skip. With `stepwise` set it answers "next cycle" to
/// every horizon query, so the pipeline has to step every cycle.
struct Horizons<Q> {
    inner: Q,
    stepwise: bool,
    skipped: u64,
}

impl<Q> Horizons<Q> {
    fn stepwise(inner: Q) -> Self {
        Horizons { inner, stepwise: true, skipped: 0 }
    }

    fn skipping(inner: Q) -> Self {
        Horizons { inner, stepwise: false, skipped: 0 }
    }
}

impl<Q: IssueQueue> IssueQueue for Horizons<Q> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        self.inner.tick(now, execution_idle);
    }
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        self.inner.dispatch(now, info)
    }
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        self.inner.select_issue(now, fus)
    }
    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.inner.select_issue_into(now, fus, out);
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.inner.announce_ready(producer, ready_at);
    }
    fn on_load_miss(&mut self, tag: InstTag) {
        self.inner.on_load_miss(tag);
    }
    fn on_load_fill(&mut self, tag: InstTag) {
        self.inner.on_load_fill(tag);
    }
    fn on_writeback(&mut self, tag: InstTag) {
        self.inner.on_writeback(tag);
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
    fn stats(&self) -> IqStats {
        self.inner.stats()
    }
    fn next_event(&self, quiet: &QuietCycle) -> Cycle {
        if self.stepwise {
            quiet.now + 1
        } else {
            self.inner.next_event(quiet)
        }
    }
    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.skipped += k;
        self.inner.skip_quiet(quiet, k);
    }
}

impl<Q: Snapshot> Snapshot for Horizons<Q> {
    const COMPONENT: &'static str = Q::COMPONENT;
    const VERSION: u16 = Q::VERSION;
    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

/// What one run leaves to compare: the checkpoint image written after
/// `run(warmup)`, then the statistics of running on to the sample.
fn imaged_run<M: Snapshot>(
    sim: &mut M,
    run: impl Fn(&mut M, u64) -> SimStats,
    warmup: u64,
    sample: u64,
) -> (Vec<u8>, String) {
    let _ = run(sim, warmup);
    let mut w = Writer::new();
    save_section(&mut w, &*sim);
    let stats = run(sim, sample);
    (w.into_bytes(), format!("{stats:?}"))
}

/// Runs `bench` on the queue twice, fast-forwarding and stepping every
/// cycle, and demands identical images, machine statistics and
/// `queue_stats`, and that the fast-forwarding run skipped some cycles.
fn check_fast_forward<Q: IssueQueue + Snapshot>(
    what: &str,
    config: SimConfig,
    make_iq: impl Fn() -> Q,
    bench: Bench,
    sample: u64,
    queue_stats: impl Fn(&Q) -> String,
) {
    let workload = || SyntheticWorkload::from_profile(bench.profile(), 20_020_525);
    let mut fast = Pipeline::new(config, Horizons::skipping(make_iq()), workload());
    let mut step = Pipeline::new(config, Horizons::stepwise(make_iq()), workload());
    let (fast_image, fast_stats) = imaged_run(&mut fast, |s, n| s.run(n), sample / 2, sample);
    let (step_image, step_stats) = imaged_run(&mut step, |s, n| s.run(n), sample / 2, sample);
    assert_eq!(fast_stats, step_stats, "{what}: machine statistics diverge");
    assert_eq!(
        queue_stats(&fast.iq().inner),
        queue_stats(&step.iq().inner),
        "{what}: queue statistics diverge"
    );
    assert!(fast_image == step_image, "{what}: checkpoint images after warmup differ");
    let skipped = fast.iq().skipped;
    println!("{what}: {skipped} of {} cycles skipped", fast.iq().stats().cycles);
    assert!(skipped > 0, "{what}: the run never fast-forwarded");
}

#[test]
fn fast_forward_matches_stepwise() {
    let segmented_stats = |iq: &SegmentedIq| format!("{:?}", iq.full_stats());
    // Swim on the 64-chain base machine recovers from deadlock often.
    let swim = SegmentedIqConfig::paper(512, Some(64));
    let config = SimConfig::default().rob_for_iq(swim.capacity()).with_extra_dispatch_cycle();
    check_fast_forward(
        "segmented swim",
        config,
        || SegmentedIq::new(swim),
        Bench::Swim,
        4_000,
        segmented_stats,
    );
    // Vortex on Figure 3's 64-entry, 64-chain queue deadlocks while fetch
    // waits on a mispredicted branch: the §4.5 detector bounds the skip.
    let vortex =
        SegmentedIqConfig { two_chain_tracking: false, ..SegmentedIqConfig::paper(64, Some(64)) };
    let mut config = SimConfig::default().rob_for_iq(vortex.capacity()).with_extra_dispatch_cycle();
    config.use_hmp = true;
    config.use_lrp = true;
    check_fast_forward(
        "segmented vortex",
        config,
        || SegmentedIq::new(vortex),
        Bench::Vortex,
        5_000,
        segmented_stats,
    );
    let small = SegmentedIqConfig::small_for_tests();
    let mut config = SimConfig::default().rob_for_iq(small.capacity()).with_extra_dispatch_cycle();
    config.use_hmp = true;
    config.use_lrp = true;
    check_fast_forward(
        "segmented small",
        config,
        || SegmentedIq::new(SegmentedIqConfig { two_chain_tracking: false, ..small }),
        Bench::Equake,
        4_000,
        segmented_stats,
    );
    check_fast_forward(
        "ideal",
        SimConfig::default().rob_for_iq(128),
        || IdealIq::new(128),
        Bench::Mgrid,
        4_000,
        |_| String::new(),
    );
    let pc = PrescheduleConfig::paper(8);
    check_fast_forward(
        "prescheduled",
        SimConfig::default().rob_for_iq(pc.capacity()).with_extra_dispatch_cycle(),
        || PrescheduledIq::new(pc),
        Bench::Applu,
        4_000,
        |iq| format!("{} {}", iq.shift_stalls(), iq.recirculations()),
    );
    let dc = DistanceConfig::paper_sized(32);
    check_fast_forward(
        "distance",
        SimConfig::default().rob_for_iq(dc.capacity()),
        || DistanceIq::new(dc),
        Bench::Gcc,
        4_000,
        |iq| format!("{}", iq.wait_buffer_stalls()),
    );

    // Two threads over one segmented queue.
    let qc = SegmentedIqConfig::paper(128, Some(64));
    let mut config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
    config.use_hmp = true;
    let threads = || {
        vec![
            SyntheticWorkload::from_profile(Bench::Swim.profile(), 43),
            SyntheticWorkload::from_profile(Bench::Twolf.profile(), 44),
        ]
    };
    let mut fast = SmtPipeline::new(config, SegmentedIq::new(qc), threads());
    let mut step = SmtPipeline::new(config, Horizons::stepwise(SegmentedIq::new(qc)), threads());
    let (fast_image, fast_stats) = imaged_run(&mut fast, |s, n| s.run(n), 2_000, 4_000);
    let (step_image, step_stats) = imaged_run(&mut step, |s, n| s.run(n), 2_000, 4_000);
    assert_eq!(fast_stats, step_stats, "smt: machine statistics diverge");
    assert_eq!(
        segmented_stats(fast.iq()),
        segmented_stats(&step.iq().inner),
        "smt: queue statistics"
    );
    assert!(fast_image == step_image, "smt: checkpoint images after warmup differ");

    // A memory-bound run cut by `max_cycles` long before its sample: the
    // cut must land on the same cycle whether the run skips or steps.
    let qc = SegmentedIqConfig::paper(256, Some(64));
    let mut config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
    config.max_cycles = 3_333;
    let workload = || SyntheticWorkload::from_profile(Bench::Swim.profile(), 47);
    let fast = Pipeline::new(config, SegmentedIq::new(qc), workload()).run(1_000_000);
    let step =
        Pipeline::new(config, Horizons::stepwise(SegmentedIq::new(qc)), workload()).run(1_000_000);
    assert_eq!(fast.cycles, config.max_cycles, "the cut is at the limit");
    assert!(fast.committed < 1_000_000);
    assert_eq!((fast.cycles, fast.hung), (step.cycles, step.hung));
    assert_eq!(format!("{fast:?}"), format!("{step:?}"), "cut run: machine statistics diverge");
}
