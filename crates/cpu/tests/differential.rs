//! Whole-pipeline differential tests.
//!
//! A full out-of-order core built around the segmented queue must behave
//! identically whether the queue serves its read paths from the
//! maintained indexes (production) or from naive full scans (the
//! reference the indexes were derived from). Both modes share every
//! write path, so any divergence is an indexing bug, not a modeling
//! choice.
//!
//! A one-thread [`SmtPipeline`] must also run exactly the single-thread
//! [`Pipeline`]: SMT is only more threads over the same machine (§7).
//!
//! And a run that fast-forwards over quiet cycles must be exactly a run
//! that steps every one of them.

use chainiq_baseline::{DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq};
use chainiq_ckpt::{save_section, CkptError, Reader, Snapshot, Writer};
use chainiq_core::{
    DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, IssuedInst, SegmentedIq,
    SegmentedIqConfig,
};
use chainiq_cpu::{Pipeline, SimConfig, SimStats, SmtPipeline};
use chainiq_isa::Cycle;
use chainiq_workload::{Bench, SyntheticWorkload};

/// Runs one benchmark profile twice — indexed and naive — through the
/// whole pipeline and compares the full `Debug` render of the machine
/// statistics and of the queue's own statistics.
fn check_bench(bench: Bench, qc: SegmentedIqConfig, max_insts: u64, seed: u64) {
    let mut config = SimConfig::default().rob_for_iq(qc.capacity());
    config.extra_dispatch_cycle = true;

    let run = |naive: bool| {
        let mut iq = SegmentedIq::new(qc);
        iq.set_naive_kernel(naive);
        let workload = SyntheticWorkload::from_profile(bench.profile(), seed);
        let mut sim = Pipeline::new(config, iq, workload);
        let stats = sim.run(max_insts);
        (format!("{stats:?}"), format!("{:?}", sim.iq().full_stats()))
    };

    let (stats_fast, seg_fast) = run(false);
    let (stats_naive, seg_naive) = run(true);
    assert_eq!(stats_fast, stats_naive, "{bench:?}: machine statistics diverge");
    assert_eq!(seg_fast, seg_naive, "{bench:?}: queue statistics diverge");
}

#[test]
fn pipeline_matches_naive_reference_across_benches() {
    // Geometry mix: the paper's big queue, a small one that stresses
    // promotion pressure and deadlock recovery, and a chain-starved one.
    for (bench, qc, seed) in [
        (Bench::Equake, SegmentedIqConfig::paper(128, Some(64)), 7),
        (Bench::Gcc, SegmentedIqConfig::paper(64, Some(16)), 11),
        (Bench::Swim, SegmentedIqConfig::paper(256, None), 13),
        (Bench::Vortex, SegmentedIqConfig::small_for_tests(), 17),
    ] {
        check_bench(bench, qc, 3_000, seed);
    }
}

#[test]
fn pipeline_matches_naive_reference_with_features_off() {
    // Pushdown/bypass/two-chain off exercises the other halves of the
    // indexed eligibility predicates.
    let mut qc = SegmentedIqConfig::paper(64, Some(32));
    qc.pushdown = false;
    qc.bypass = false;
    qc.two_chain_tracking = false;
    check_bench(Bench::Twolf, qc, 3_000, 23);
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

/// A queue the pipeline has to step every cycle: it forwards every method
/// except the two horizon methods, whose defaults answer "next cycle".
struct Stepwise<Q>(Q);

impl<Q: IssueQueue> IssueQueue for Stepwise<Q> {
    fn capacity(&self) -> usize {
        self.0.capacity()
    }
    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn tick(&mut self, now: Cycle, execution_idle: bool) {
        self.0.tick(now, execution_idle);
    }
    fn dispatch(&mut self, now: Cycle, info: DispatchInfo) -> Result<(), DispatchStall> {
        self.0.dispatch(now, info)
    }
    fn select_issue(&mut self, now: Cycle, fus: &mut FuPool) -> Vec<IssuedInst> {
        self.0.select_issue(now, fus)
    }
    fn select_issue_into(&mut self, now: Cycle, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.0.select_issue_into(now, fus, out);
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: Cycle) {
        self.0.announce_ready(producer, ready_at);
    }
    fn on_load_miss(&mut self, tag: InstTag) {
        self.0.on_load_miss(tag);
    }
    fn on_load_fill(&mut self, tag: InstTag) {
        self.0.on_load_fill(tag);
    }
    fn on_writeback(&mut self, tag: InstTag) {
        self.0.on_writeback(tag);
    }
    fn flush(&mut self) {
        self.0.flush();
    }
    fn stats(&self) -> IqStats {
        self.0.stats()
    }
}

impl<Q: Snapshot> Snapshot for Stepwise<Q> {
    const COMPONENT: &'static str = Q::COMPONENT;
    const VERSION: u16 = Q::VERSION;
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CkptError> {
        self.0.restore(r)
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

/// Runs `bench` on the plain queue and on its [`Stepwise`] twin and
/// demands identical images, machine statistics and `queue_stats`.
fn check_fast_forward<Q: IssueQueue + Snapshot>(
    what: &str,
    config: SimConfig,
    make_iq: impl Fn() -> Q,
    bench: Bench,
    sample: u64,
    queue_stats: impl Fn(&Q) -> String,
) {
    let workload = || SyntheticWorkload::from_profile(bench.profile(), 20_020_525);
    let mut fast = Pipeline::new(config, make_iq(), workload());
    let mut step = Pipeline::new(config, Stepwise(make_iq()), workload());
    let (fast_image, fast_stats) = imaged_run(&mut fast, |s, n| s.run(n), sample / 2, sample);
    let (step_image, step_stats) = imaged_run(&mut step, |s, n| s.run(n), sample / 2, sample);
    assert_eq!(fast_stats, step_stats, "{what}: machine statistics diverge");
    assert_eq!(
        queue_stats(fast.iq()),
        queue_stats(&step.iq().0),
        "{what}: queue statistics diverge"
    );
    assert!(fast_image == step_image, "{what}: checkpoint images after warmup differ");
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
    let mut step = SmtPipeline::new(config, Stepwise(SegmentedIq::new(qc)), threads());
    let (fast_image, fast_stats) = imaged_run(&mut fast, |s, n| s.run(n), 2_000, 4_000);
    let (step_image, step_stats) = imaged_run(&mut step, |s, n| s.run(n), 2_000, 4_000);
    assert_eq!(fast_stats, step_stats, "smt: machine statistics diverge");
    assert_eq!(segmented_stats(fast.iq()), segmented_stats(&step.iq().0), "smt: queue statistics");
    assert!(fast_image == step_image, "smt: checkpoint images after warmup differ");

    // A memory-bound run cut by `max_cycles` long before its sample: the
    // cut must land on the same cycle whether the run skips or steps.
    let qc = SegmentedIqConfig::paper(256, Some(64));
    let mut config = SimConfig::default().rob_for_iq(qc.capacity()).with_extra_dispatch_cycle();
    config.max_cycles = 3_333;
    let workload = || SyntheticWorkload::from_profile(Bench::Swim.profile(), 47);
    let fast = Pipeline::new(config, SegmentedIq::new(qc), workload()).run(1_000_000);
    let step = Pipeline::new(config, Stepwise(SegmentedIq::new(qc)), workload()).run(1_000_000);
    assert_eq!(fast.cycles, config.max_cycles, "the cut is at the limit");
    assert!(fast.committed < 1_000_000);
    assert_eq!((fast.cycles, fast.hung), (step.cycles, step.hung));
    assert_eq!(format!("{fast:?}"), format!("{step:?}"), "cut run: machine statistics diverge");
}
