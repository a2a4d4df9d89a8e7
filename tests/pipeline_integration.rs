//! End-to-end integration tests: full pipeline x every queue design x
//! several workloads.

use chainiq::{
    run_one, Bench, IqKind, PrescheduleConfig, SegmentedIqConfig, SimConfig, SyntheticWorkload,
};

const SAMPLE: u64 = 8_000;
const SEED: u64 = 1234;

fn every_kind() -> Vec<(&'static str, IqKind)> {
    vec![
        ("ideal-64", IqKind::Ideal(64)),
        ("segmented-64", IqKind::Segmented(SegmentedIqConfig::paper(64, Some(64)))),
        ("segmented-128-unlimited", IqKind::Segmented(SegmentedIqConfig::paper(128, None))),
        ("prescheduled-8", IqKind::Prescheduled(PrescheduleConfig::paper(8))),
    ]
}

#[test]
fn every_design_commits_on_every_benchmark() {
    for bench in Bench::ALL {
        for (label, kind) in every_kind() {
            let r = run_one(bench.profile(), kind, true, true, SAMPLE, SEED);
            assert!(!r.stats.hung, "{bench}/{label} hung");
            assert!(r.stats.committed >= SAMPLE, "{bench}/{label} under-committed");
            assert!(r.ipc() > 0.01, "{bench}/{label} ipc {}", r.ipc());
            assert!(r.ipc() <= 8.0, "{bench}/{label} exceeds machine width");
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let kind = IqKind::Segmented(SegmentedIqConfig::paper(128, Some(64)));
    let a = run_one(Bench::Equake.profile(), kind, true, true, SAMPLE, SEED);
    let b = run_one(Bench::Equake.profile(), kind, true, true, SAMPLE, SEED);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.committed, b.stats.committed);
    assert_eq!(a.stats.mem.l1d, b.stats.mem.l1d);
    let (sa, sb) = (a.segmented.unwrap(), b.segmented.unwrap());
    assert_eq!(sa.chains.allocations, sb.chains.allocations);
    assert_eq!(sa.promotions, sb.promotions);
}

#[test]
fn bigger_ideal_window_never_loses_on_memory_bound_code() {
    let small = run_one(Bench::Swim.profile(), IqKind::Ideal(32), false, false, SAMPLE, SEED);
    let big = run_one(Bench::Swim.profile(), IqKind::Ideal(256), false, false, SAMPLE, SEED);
    assert!(
        big.ipc() > 1.2 * small.ipc(),
        "a 256-entry window must expose swim's memory-level parallelism: {} vs {}",
        big.ipc(),
        small.ipc()
    );
}

#[test]
fn segmented_stays_below_ideal_at_same_size() {
    // The segmented queue adds pipeline depth and restricts issue to
    // segment 0; it cannot beat the single-cycle ideal queue.
    for bench in [Bench::Swim, Bench::Mgrid, Bench::Gcc] {
        let ideal = run_one(bench.profile(), IqKind::Ideal(256), false, false, SAMPLE, SEED);
        let seg = run_one(
            bench.profile(),
            IqKind::Segmented(SegmentedIqConfig::paper(256, Some(128))),
            true,
            true,
            SAMPLE,
            SEED,
        );
        assert!(
            seg.ipc() <= ideal.ipc() * 1.02,
            "{bench}: segmented {} vs ideal {}",
            seg.ipc(),
            ideal.ipc()
        );
        // And it retains a meaningful fraction (the paper band is
        // 55%-98% at 512; small samples are noisier, so be lenient).
        assert!(
            seg.ipc() >= 0.35 * ideal.ipc(),
            "{bench}: segmented {} too far below ideal {}",
            seg.ipc(),
            ideal.ipc()
        );
    }
}

#[test]
fn statistics_are_internally_consistent() {
    let r = run_one(
        Bench::Applu.profile(),
        IqKind::Segmented(SegmentedIqConfig::paper(128, Some(128))),
        true,
        true,
        SAMPLE,
        SEED,
    );
    let s = &r.stats;
    assert!(s.fetched >= s.dispatched, "cannot dispatch more than fetched");
    assert!(s.dispatched >= s.committed, "cannot commit more than dispatched");
    assert!(s.iq.issued >= s.committed, "every committed instruction issued");
    assert!(s.branch_lookups > 0 && s.branch_correct <= s.branch_lookups);
    assert!(s.loads_issued > 0);
    let seg = r.segmented.unwrap();
    assert!(seg.chains.peak_live as u64 >= 1);
    assert!(seg.chains.mean_live() <= seg.chains.peak_live as f64);
}

#[test]
fn seeds_change_timing_but_not_sanity() {
    let kind = IqKind::Segmented(SegmentedIqConfig::paper(64, Some(64)));
    let a = run_one(Bench::Gcc.profile(), kind, true, true, SAMPLE, 1);
    let b = run_one(Bench::Gcc.profile(), kind, true, true, SAMPLE, 2);
    assert_ne!(a.stats.cycles, b.stats.cycles, "different seeds, different streams");
    let ratio = a.ipc() / b.ipc();
    assert!((0.5..2.0).contains(&ratio), "seed variance should be bounded: {ratio}");
}

#[test]
fn smt_threads_share_a_segmented_queue() {
    use chainiq::core::{SegmentedIq, SegmentedIqConfig};
    use chainiq::{AddressSpace, SmtPipeline};

    const STRIDE: u64 = (1 << 40) | 0x94_530;
    let workloads: Vec<_> = (0..2u64)
        .map(|t| {
            AddressSpace::new(
                SyntheticWorkload::from_profile(Bench::Ammp.profile(), SEED + t),
                t * STRIDE,
                t * STRIDE,
            )
        })
        .collect();
    let mut cfg = SimConfig::default().rob_for_iq(256).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    let qc = SegmentedIqConfig::paper(256, Some(128));
    let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), workloads);
    let s = smt.run(SAMPLE);
    assert!(!s.hung);
    assert!(s.committed >= SAMPLE);
    assert!(smt.committed_of(0) > SAMPLE / 10);
    assert!(smt.committed_of(1) > SAMPLE / 10);
}

#[test]
fn circuit_model_ranks_designs_as_the_paper_argues() {
    use chainiq::{QueueGeometry, Technology};
    let tech = Technology::default();
    // The segmented 512 clocks near a 32-entry queue; with the measured
    // retention band (55-98% of ideal IPC) it wins the BIPS comparison.
    let seg = QueueGeometry::segmented(512, 32, 8);
    let mono512 = QueueGeometry::monolithic(512, 8);
    assert!(tech.clock_ghz(seg) > 5.0 * tech.clock_ghz(mono512));
}

#[test]
fn power_model_accounts_a_real_run() {
    use chainiq::EnergyModel;
    let r = run_one(
        Bench::Mgrid.profile(),
        IqKind::Segmented(SegmentedIqConfig::paper(256, Some(128))),
        true,
        true,
        SAMPLE,
        SEED,
    );
    let seg = r.segmented.unwrap();
    let model = EnergyModel::default();
    let e = model.segmented_energy(&seg);
    assert!(e.total_pj() > 0.0);
    assert!(e.copies_pj > 0.0, "promotions must show up as copy energy");
    assert!(e.per_instruction_pj(r.stats.committed) > 0.0);
    // Energy components are all non-negative and sum to the total.
    let sum = e.dispatch_pj
        + e.copies_pj
        + e.cam_pj
        + e.delay_compare_pj
        + e.select_pj
        + e.wires_pj
        + e.clock_pj;
    assert!((sum - e.total_pj()).abs() < 1e-6);
}
