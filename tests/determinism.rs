//! Regression tests pinning bit-for-bit determinism: two identical runs
//! must agree on *every* statistic, not just the headline counters.
//!
//! The simulator's collections are all ordered (`BTreeMap`/`Vec`) —
//! `clippy.toml` bans `HashMap`/`HashSet` — so any divergence here means
//! an iteration-order or hidden-input dependence crept back in.
//! `SimStats` does not implement `PartialEq` (it carries derived floats),
//! so the runs are compared through their full `Debug` rendering, which
//! covers every field including the nested memory and queue sections.

use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{
    run_one, AddressSpace, Bench, IqKind, PrescheduleConfig, SimConfig, SmtPipeline,
    SyntheticWorkload,
};

const SAMPLE: u64 = 10_000;
const SEED: u64 = 977;

fn seg_kind() -> IqKind {
    IqKind::Segmented(SegmentedIqConfig::paper(128, Some(64)))
}

#[test]
fn full_stats_identical_across_reruns_segmented() {
    let a = run_one(Bench::Equake.profile(), seg_kind(), true, true, SAMPLE, SEED);
    let b = run_one(Bench::Equake.profile(), seg_kind(), true, true, SAMPLE, SEED);
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    assert_eq!(format!("{:?}", a.segmented), format!("{:?}", b.segmented));
}

#[test]
fn full_stats_identical_across_reruns_prescheduled() {
    let kind = IqKind::Prescheduled(PrescheduleConfig::paper(8));
    let a = run_one(Bench::Gcc.profile(), kind, true, false, SAMPLE, SEED);
    let b = run_one(Bench::Gcc.profile(), kind, true, false, SAMPLE, SEED);
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
}

#[test]
fn full_stats_identical_across_reruns_smt() {
    let run = || {
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
        let stats = smt.run(SAMPLE);
        (format!("{stats:?}"), smt.committed_of(0), smt.committed_of(1))
    };
    assert_eq!(run(), run());
}
