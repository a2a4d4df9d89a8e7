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

use chainiq_baseline::{IdealIq, PrescheduleConfig, PrescheduledIq};
use chainiq_core::{IssueQueue, SegmentedIq, SegmentedIqConfig};
use chainiq_cpu::{Pipeline, SimConfig, SimStats, SmtPipeline};
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
