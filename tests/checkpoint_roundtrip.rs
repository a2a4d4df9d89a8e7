//! Restore-equals-continuous differential suite for the checkpoint
//! subsystem.
//!
//! The property under test: simulating to a cut point, serializing the
//! machine, restoring the image into a *freshly constructed* machine and
//! continuing must report exactly the statistics of one uninterrupted
//! run. Any divergence means some piece of mutable state escaped the
//! snapshot — the one failure mode a checkpoint cache must never have,
//! because it silently corrupts every warm-started experiment.
//!
//! Component-level suites live next to each component (`chainiq-rng`,
//! `chainiq-workload`, `chainiq-predict`, `chainiq-mem`, `chainiq-core`,
//! `chainiq-baseline`); this file exercises the public seams: the
//! workload generator, the whole-image framing, every queue design under
//! the full pipeline, a two-thread SMT machine, and the end-to-end cached
//! harness path.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code: a failed unwrap is the test failing"
)]

use chainiq::ckpt::{
    fingerprint, restore_section, save_section, CkptHeader, ImageReader, ImageWriter, Reader,
    Snapshot, Writer,
};
use chainiq::{
    Bench, CkptOutcome, CkptPlan, DistanceConfig, DistanceIq, Hierarchy, HitMissPredictor,
    HybridBranchPredictor, IdealIq, IqKind, LeftRightPredictor, Pipeline, PrescheduleConfig,
    PrescheduledIq, SegmentedIq, SegmentedIqConfig, SimConfig, SimStats, SmtPipeline,
    SyntheticWorkload,
};
use chainiq_core::IssueQueue;
use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check};

/// Runs one continuous simulation and one snapshot-at-`cut`-then-restore
/// simulation of the machine `fresh` builds, returning both stat
/// renderings.
fn restore_digests<M: Snapshot>(
    fresh: impl Fn() -> M,
    run: impl Fn(&mut M, u64) -> SimStats,
    cut: u64,
    total: u64,
) -> (String, String) {
    let mut continuous = fresh();
    let a = run(&mut continuous, total);

    let mut donor = fresh();
    let _ = run(&mut donor, cut);
    let mut w = Writer::new();
    save_section(&mut w, &donor);
    drop(donor);
    let bytes = w.into_bytes();

    let mut restored = fresh();
    let mut r = Reader::new(&bytes);
    restore_section(&mut r, &mut restored)
        .expect("a snapshot must restore into an identically configured machine");
    let b = run(&mut restored, total);

    (format!("{a:?}"), format!("{b:?}"))
}

/// [`restore_digests`] for a single-thread pipeline running `bench` on
/// `machine`, a pipeline configuration and the queue around which it is
/// built.
fn pipeline_digests(
    machine: (SimConfig, IqKind),
    bench: Bench,
    seed: u64,
    cut: u64,
    total: u64,
) -> (String, String) {
    fn digests<Q: IssueQueue + Snapshot>(
        make_iq: impl Fn() -> Q,
        bench: Bench,
        seed: u64,
        cut: u64,
        total: u64,
        config: SimConfig,
    ) -> (String, String) {
        let workload = || SyntheticWorkload::from_profile(bench.profile(), seed);
        restore_digests(|| Pipeline::new(config, make_iq(), workload()), Pipeline::run, cut, total)
    }
    let (config, kind) = machine;
    match kind {
        IqKind::Ideal(n) => digests(|| IdealIq::new(n), bench, seed, cut, total, config),
        IqKind::Segmented(qc) => digests(|| SegmentedIq::new(qc), bench, seed, cut, total, config),
        IqKind::Prescheduled(pc) => {
            digests(|| PrescheduledIq::new(pc), bench, seed, cut, total, config)
        }
        IqKind::Distance(dc) => digests(|| DistanceIq::new(dc), bench, seed, cut, total, config),
    }
}

/// [`restore_digests`] for the `smt` binary's swim+gcc mix: two threads
/// over a segmented 512-entry queue with 128 chains.
fn smt_digests(seed: u64, cut: u64, total: u64) -> (String, String) {
    let (config, kind) =
        IqKind::Segmented(SegmentedIqConfig::paper(512, Some(128))).table1_machine(true, true);
    let IqKind::Segmented(qc) = kind else { panic!("the rule changed the queue design") };
    let fresh = || {
        let threads = vec![
            SyntheticWorkload::from_profile(Bench::Swim.profile(), seed),
            SyntheticWorkload::from_profile(Bench::Gcc.profile(), seed ^ 1),
        ];
        SmtPipeline::new(config, SegmentedIq::new(qc), threads)
    };
    restore_digests(fresh, SmtPipeline::run, cut, total)
}

prop_check! {
    /// Whole-pipeline differential over every queue design, with random
    /// benchmark, seed, predictor hooks and cut point, plus a two-thread
    /// SMT machine.
    fn pipeline_restore_equals_continuous(g, cases = 8) {
        let bench = Bench::ALL[g.pick(Bench::ALL.len())];
        let seed = g.any_u64();
        let total = g.u64(1_500..3_000);
        let cut = g.u64(1..total);
        let use_hmp = g.bool();
        let use_lrp = g.bool();
        let kind = match g.pick(5) {
            0 => Some(IqKind::Ideal([16usize, 64, 256][g.pick(3)])),
            1 => Some(IqKind::Segmented(SegmentedIqConfig::paper(64, Some(64)))),
            2 => Some(IqKind::Prescheduled(PrescheduleConfig::paper(8))),
            3 => Some(IqKind::Distance(DistanceConfig::paper_sized(8))),
            _ => None,
        };
        let (a, b) = match kind {
            Some(kind) => {
                pipeline_digests(kind.table1_machine(use_hmp, use_lrp), bench, seed, cut, total)
            }
            None => smt_digests(seed, cut, total),
        };
        prop_assert_eq!(a, b);
    }

    /// The workload generator (profile walker + RNG) restores mid-stream
    /// and continues with the identical instruction sequence.
    fn workload_restore_equals_continuous(g, cases = 24) {
        let bench = Bench::ALL[g.pick(Bench::ALL.len())];
        let seed = g.any_u64();
        let skip = g.usize(0..5_000);

        let mut continuous = SyntheticWorkload::from_profile(bench.profile(), seed);
        for _ in 0..skip {
            let _ = continuous.next();
        }

        let mut w = Writer::new();
        save_section(&mut w, &continuous);
        let bytes = w.into_bytes();
        let mut restored = SyntheticWorkload::from_profile(bench.profile(), seed);
        let mut r = Reader::new(&bytes);
        restore_section(&mut r, &mut restored).expect("workload snapshot must restore");

        for i in 0..200 {
            let a = continuous.next();
            let b = restored.next();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "instruction {} diverged", i);
        }
    }

    /// Whole-image framing: header plus several sections written with
    /// [`ImageWriter`] parse back byte-complete through [`ImageReader`],
    /// and the restored components resume identically.
    fn image_framing_round_trips(g, cases = 16) {
        let bench = Bench::ALL[g.pick(Bench::ALL.len())];
        let seed = g.any_u64();
        let skip = g.usize(0..2_000);
        let header = CkptHeader {
            workload_fp: g.any_u64(),
            config_hash: g.any_u64(),
            warmup: g.u64(0..1_000_000),
        };

        let mut first = SyntheticWorkload::from_profile(bench.profile(), seed);
        let mut second = SyntheticWorkload::from_profile(bench.profile(), seed ^ 1);
        for _ in 0..skip {
            let _ = first.next();
            let _ = second.next();
        }

        let mut image = ImageWriter::new(header);
        image.section(&first);
        image.section(&second);
        let bytes = image.finish();

        let mut img = ImageReader::parse(&bytes).expect("a freshly written image must parse");
        prop_assert_eq!(img.header(), header);
        prop_assert!(img.expect_key(header).is_ok());
        let mut first_r = SyntheticWorkload::from_profile(bench.profile(), seed);
        let mut second_r = SyntheticWorkload::from_profile(bench.profile(), seed ^ 1);
        img.section(&mut first_r).expect("first section must restore");
        img.section(&mut second_r).expect("second section must restore");
        img.finish().expect("no bytes may remain after the last section");

        for _ in 0..50 {
            prop_assert_eq!(format!("{:?}", first.next()), format!("{:?}", first_r.next()));
            prop_assert_eq!(format!("{:?}", second.next()), format!("{:?}", second_r.next()));
        }
    }
}

/// End-to-end cached harness path: a warm-started `run_one_ckpt` reports
/// the same result as a cold `run_one` for every queue design.
///
/// The saved images are also pinned by fingerprint. Save and restore
/// share each record's layout, so a layout reordered on both sides would
/// still round-trip; the constants catch it. Together the four images
/// cover the pipeline, memory hierarchy, predictors, workload generator
/// and every queue design. A constant changes only together with a
/// `Snapshot::VERSION` bump of the component whose layout changed.
#[test]
fn cached_harness_matches_cold_for_every_kind() {
    let dir =
        std::env::temp_dir().join(format!("chainiq-roundtrip-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kinds = [
        (IqKind::Ideal(64), 0xefea_ee87_47c8_23ac_u64),
        (IqKind::Segmented(SegmentedIqConfig::paper(64, Some(64))), 0x4725_14ec_3f4f_9bfe),
        (IqKind::Prescheduled(PrescheduleConfig::paper(8)), 0xa4e3_812d_2af6_9004),
        (IqKind::Distance(DistanceConfig::paper_sized(8)), 0x4d15_d562_7549_bad7),
    ];
    for (i, (kind, image_fp)) in kinds.into_iter().enumerate() {
        let plan = CkptPlan { dir: dir.join(i.to_string()), warmup: 800 };
        let cold = chainiq::run_one(Bench::Mgrid.profile(), kind, true, false, 2_500, 13);
        let (_, miss) = chainiq::run_one_ckpt(
            Bench::Mgrid.profile(),
            kind,
            true,
            false,
            2_500,
            13,
            Some(&plan),
        );
        assert_eq!(miss, CkptOutcome::MissSaved, "{kind:?}");
        let images: Vec<_> =
            std::fs::read_dir(&plan.dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(images.len(), 1, "{kind:?}: one image per plan directory");
        let found = fingerprint(&std::fs::read(&images[0]).unwrap());
        assert_eq!(found, image_fp, "{kind:?}: image bytes changed ({found:#018x})");
        let (warm, hit) = chainiq::run_one_ckpt(
            Bench::Mgrid.profile(),
            kind,
            true,
            false,
            2_500,
            13,
            Some(&plan),
        );
        assert_eq!(hit, CkptOutcome::Hit, "{kind:?}");
        assert_eq!(
            format!("{:?} {:?}", cold.stats, cold.segmented),
            format!("{:?} {:?}", warm.stats, warm.segmented),
            "{kind:?}: warm-started run must match the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Images carry only the state the run touched: the Table 1 caches,
/// predictor tables and BTB are encoded sparsely, so their fixed
/// geometry costs next to nothing until entries are written.
#[test]
fn image_size_follows_touched_state() {
    let config = SimConfig::default();
    let mut w = Writer::new();
    save_section(&mut w, &Hierarchy::new(config.mem));
    save_section(&mut w, &HybridBranchPredictor::new(config.branch));
    save_section(&mut w, &HitMissPredictor::default());
    save_section(&mut w, &LeftRightPredictor::default());
    assert!(w.len() <= 4 << 10, "a never-run machine's tables take {} bytes", w.len());

    // fig3's swim point at 512 entries, warmed for half a 5k-instruction run.
    let dir = std::env::temp_dir().join(format!("chainiq-roundtrip-size-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = CkptPlan { dir: dir.clone(), warmup: 2_500 };
    let kind = IqKind::Segmented(SegmentedIqConfig::paper(512, Some(128)));
    let (_, outcome) = chainiq::run_one_ckpt(
        Bench::Swim.profile(),
        kind,
        true,
        true,
        5_000,
        20_020_525,
        Some(&plan),
    );
    assert_eq!(outcome, CkptOutcome::MissSaved);
    let images: Vec<u64> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(images.len(), 1);
    assert!(images[0] <= 256 << 10, "swim seg512 image is {} bytes", images[0]);
}
