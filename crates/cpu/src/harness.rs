//! A small experiment harness: build a machine for a (benchmark, queue
//! design) pair and run it. Used by the `chainiq-bench` binaries that
//! regenerate the paper's tables and figures.
//!
//! # Checkpoint-cached runs
//!
//! [`run_one_ckpt`] adds a warm-start path: the machine state after a
//! warmup prefix of committed instructions is serialized (via the
//! `chainiq-ckpt` [`Snapshot`](chainiq_ckpt::Snapshot) framing) into an
//! on-disk cache keyed by the workload fingerprint and a hash of every
//! configuration input that shapes machine state. A later run with the
//! same key restores the image and skips re-simulating the prefix.
//! Because the snapshot covers *all* mutable state — queue, workload
//! generator (RNG included), caches, predictors, pipeline bookkeeping and
//! accumulated statistics — a warm-started run reports byte-identical
//! results to a cold one. Stale or mismatched images are rejected with a
//! typed error and the run falls back to a cold start on a freshly
//! constructed machine (never on a partially restored one).

use std::path::PathBuf;

use chainiq_baseline::{DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq};
use chainiq_ckpt::{CkptError, CkptHeader, FpHasher, ImageReader, ImageWriter};
use chainiq_core::{IssueQueue, SegmentedIq, SegmentedIqConfig, SegmentedStats};
use chainiq_workload::{Profile, SyntheticWorkload};

use crate::config::SimConfig;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;

/// Which instruction-queue design to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IqKind {
    /// The idealized monolithic single-cycle queue with this many
    /// entries.
    Ideal(usize),
    /// The segmented dependence-chain queue.
    Segmented(SegmentedIqConfig),
    /// Michaud & Seznec's prescheduling queue.
    Prescheduled(PrescheduleConfig),
    /// Canal & González's distance queue.
    Distance(DistanceConfig),
}

impl IqKind {
    /// Total instruction slots of the design.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self {
            IqKind::Ideal(n) => *n,
            IqKind::Segmented(c) => c.capacity(),
            IqKind::Prescheduled(c) => c.capacity(),
            IqKind::Distance(c) => c.capacity(),
        }
    }

    /// Whether the §5 extra dispatch cycle applies (it does for both
    /// dependence-based designs, not for the ideal queue).
    #[must_use]
    pub fn pays_extra_dispatch_cycle(&self) -> bool {
        !matches!(self, IqKind::Ideal(_))
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// General machine statistics.
    pub stats: SimStats,
    /// Segmented-queue statistics, when that design ran.
    pub segmented: Option<SegmentedStats>,
}

impl RunResult {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Builds the Table 1 machine around `kind` (applying the ROB-3×-IQ rule
/// and the extra dispatch cycle where due), runs `profile` for
/// `max_insts` committed instructions, and returns the statistics.
///
/// `use_hmp`/`use_lrp` control the §4.3/§4.4 predictor hooks — they only
/// change behaviour for the segmented queue.
#[must_use]
#[allow(clippy::fn_params_excessive_bools, reason = "one flag per paper mechanism")]
pub fn run_one(
    profile: Profile,
    kind: IqKind,
    use_hmp: bool,
    use_lrp: bool,
    max_insts: u64,
    seed: u64,
) -> RunResult {
    run_one_ckpt(profile, kind, use_hmp, use_lrp, max_insts, seed, None).0
}

/// Where checkpoint images live and how long the shared warmup prefix is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptPlan {
    /// Directory holding the checkpoint cache. Created on first save.
    pub dir: PathBuf,
    /// Committed instructions covered by the cached prefix. A plan with
    /// `warmup == 0` or `warmup >= max_insts` degenerates to an ordinary
    /// cold run.
    pub warmup: u64,
}

/// What the checkpoint cache did for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptOutcome {
    /// No plan was supplied (or the warmup did not apply); plain cold run.
    Disabled,
    /// A valid image was restored; the warmup prefix was skipped.
    Hit,
    /// No image existed; the run was cold and an image was saved.
    MissSaved,
    /// No image existed and saving one failed; the run was still cold
    /// and correct.
    MissSaveFailed,
    /// An image existed but was rejected (stale, corrupt, or mismatched);
    /// the run restarted cold on a fresh machine and rewrote the image.
    Rejected,
}

/// [`run_one`] with an optional checkpoint cache.
///
/// When `plan` is set, the run first looks for a cached image of the
/// machine state after `plan.warmup` committed instructions, keyed by the
/// workload (profile + seed) and by every configuration input that shapes
/// machine state. On a hit the warmup is skipped; on a miss the warmup is
/// simulated once and the image saved for future runs. Either way the
/// reported statistics are identical to a cold [`run_one`]: the image
/// carries complete machine state, and a cold run executes the exact same
/// step sequence whether or not it pauses to save.
#[must_use]
#[allow(clippy::fn_params_excessive_bools, reason = "one flag per paper mechanism")]
pub fn run_one_ckpt(
    profile: Profile,
    kind: IqKind,
    use_hmp: bool,
    use_lrp: bool,
    max_insts: u64,
    seed: u64,
    plan: Option<&CkptPlan>,
) -> (RunResult, CkptOutcome) {
    let mut config = SimConfig::default().rob_for_iq(kind.capacity());
    config.extra_dispatch_cycle = kind.pays_extra_dispatch_cycle();
    config.use_hmp = use_hmp;
    config.use_lrp = use_lrp;
    // Apply queue-level knobs *before* hashing so the cache key covers
    // the configuration that actually runs.
    let kind = match kind {
        IqKind::Segmented(mut qc) => {
            // The §4.3 predictor replaces two-chain tracking.
            qc.two_chain_tracking = !use_lrp;
            IqKind::Segmented(qc)
        }
        other => other,
    };
    let workload_fp = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{profile:?}"));
        h.write_u64(seed);
        h.finish()
    };
    let config_hash = {
        let mut h = FpHasher::new();
        h.write_str(&format!("{config:?}"));
        h.write_str(&format!("{kind:?}"));
        h.write_u64(u64::from(chainiq_ckpt::FORMAT_VERSION));
        h.finish()
    };
    match kind {
        IqKind::Ideal(n) => {
            let (_, stats, outcome) = run_kind(
                config,
                || IdealIq::new(n),
                &profile,
                seed,
                max_insts,
                plan,
                workload_fp,
                config_hash,
            );
            (RunResult { stats, segmented: None }, outcome)
        }
        IqKind::Segmented(qc) => {
            let (sim, stats, outcome) = run_kind(
                config,
                || SegmentedIq::new(qc),
                &profile,
                seed,
                max_insts,
                plan,
                workload_fp,
                config_hash,
            );
            let segmented = Some(sim.iq().full_stats());
            (RunResult { stats, segmented }, outcome)
        }
        IqKind::Prescheduled(pc) => {
            let (_, stats, outcome) = run_kind(
                config,
                || PrescheduledIq::new(pc),
                &profile,
                seed,
                max_insts,
                plan,
                workload_fp,
                config_hash,
            );
            (RunResult { stats, segmented: None }, outcome)
        }
        IqKind::Distance(dc) => {
            let (_, stats, outcome) = run_kind(
                config,
                || DistanceIq::new(dc),
                &profile,
                seed,
                max_insts,
                plan,
                workload_fp,
                config_hash,
            );
            (RunResult { stats, segmented: None }, outcome)
        }
    }
}

/// Builds the machine, consults the checkpoint cache, and runs to
/// `max_insts` committed instructions. Returns the finished machine so
/// queue-specific statistics can still be read off it.
#[allow(clippy::too_many_arguments, reason = "the flattened run_one parameters")]
fn run_kind<Q>(
    config: SimConfig,
    make_iq: impl Fn() -> Q,
    profile: &Profile,
    seed: u64,
    max_insts: u64,
    plan: Option<&CkptPlan>,
    workload_fp: u64,
    config_hash: u64,
) -> (Pipeline<Q, SyntheticWorkload>, SimStats, CkptOutcome)
where
    Q: IssueQueue + chainiq_ckpt::Snapshot,
{
    let fresh =
        || Pipeline::new(config, make_iq(), SyntheticWorkload::from_profile(profile.clone(), seed));
    let mut sim = fresh();
    let Some(plan) = plan.filter(|p| p.warmup > 0 && p.warmup < max_insts) else {
        let stats = sim.run(max_insts);
        return (sim, stats, CkptOutcome::Disabled);
    };
    let header = CkptHeader { workload_fp, config_hash, warmup: plan.warmup };
    let path =
        plan.dir.join(format!("ckpt-{workload_fp:016x}-{config_hash:016x}-{}.bin", plan.warmup));
    let attempt = (|| -> Result<(), CkptError> {
        let bytes = chainiq_ckpt::read_image(&path)?;
        let mut img = ImageReader::parse(&bytes)?;
        img.expect_key(header)?;
        img.section(&mut sim)?;
        img.finish()
    })();
    match attempt {
        Ok(()) => {
            let stats = sim.run(max_insts);
            (sim, stats, CkptOutcome::Hit)
        }
        Err(err) => {
            let rejected =
                !matches!(&err, CkptError::Io(e) if e.kind() == std::io::ErrorKind::NotFound);
            if rejected {
                // Never continue on a possibly part-restored machine.
                eprintln!("warning: rejecting checkpoint {}: {err}", path.display());
                sim = fresh();
            }
            let _ = sim.run(plan.warmup);
            let mut image = ImageWriter::new(header);
            image.section(&sim);
            let outcome = match chainiq_ckpt::write_image_atomic(&path, &image.finish()) {
                Ok(()) if rejected => CkptOutcome::Rejected,
                Ok(()) => CkptOutcome::MissSaved,
                Err(werr) => {
                    eprintln!("warning: could not save checkpoint {}: {werr}", path.display());
                    CkptOutcome::MissSaveFailed
                }
            };
            let stats = sim.run(max_insts);
            (sim, stats, outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_workload::Bench;

    #[test]
    fn capacities() {
        assert_eq!(IqKind::Ideal(512).capacity(), 512);
        assert_eq!(IqKind::Segmented(SegmentedIqConfig::paper(512, None)).capacity(), 512);
        assert_eq!(IqKind::Prescheduled(PrescheduleConfig::paper(8)).capacity(), 128);
    }

    #[test]
    fn extra_dispatch_cycle_rule() {
        assert!(!IqKind::Ideal(512).pays_extra_dispatch_cycle());
        assert!(IqKind::Segmented(SegmentedIqConfig::paper(64, None)).pays_extra_dispatch_cycle());
        assert!(IqKind::Prescheduled(PrescheduleConfig::paper(8)).pays_extra_dispatch_cycle());
    }

    #[test]
    fn a_small_run_commits_and_reports() {
        let r = run_one(Bench::Vortex.profile(), IqKind::Ideal(64), false, false, 2_000, 7);
        assert!(!r.stats.hung, "simulation must make progress");
        assert!(r.stats.committed >= 2_000, "commit width may overshoot slightly");
        assert!(r.ipc() > 0.05);
        assert!(r.segmented.is_none());
    }

    #[test]
    fn segmented_run_reports_chain_stats() {
        let qc = SegmentedIqConfig::paper(64, Some(64));
        let r = run_one(Bench::Vortex.profile(), IqKind::Segmented(qc), true, true, 2_000, 7);
        assert!(!r.stats.hung);
        let seg = r.segmented.expect("segmented stats present");
        assert!(seg.chains.allocations > 0, "loads must have created chains");
    }

    /// A scratch checkpoint directory, removed on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("chainiq-cpu-ckpt-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stats_digest(r: &RunResult) -> String {
        format!("{:?} {:?}", r.stats, r.segmented)
    }

    #[test]
    fn ckpt_miss_then_hit_matches_cold_run() {
        let scratch = ScratchDir::new("miss-then-hit");
        let plan = CkptPlan { dir: scratch.0.clone(), warmup: 1_000 };
        let qc = SegmentedIqConfig::paper(64, Some(64));
        let kind = IqKind::Segmented(qc);
        let cold = run_one(Bench::Twolf.profile(), kind, true, false, 3_000, 11);

        let (first, o1) =
            run_one_ckpt(Bench::Twolf.profile(), kind, true, false, 3_000, 11, Some(&plan));
        assert_eq!(o1, CkptOutcome::MissSaved);
        assert_eq!(stats_digest(&first), stats_digest(&cold), "cold run with save must match");

        let (second, o2) =
            run_one_ckpt(Bench::Twolf.profile(), kind, true, false, 3_000, 11, Some(&plan));
        assert_eq!(o2, CkptOutcome::Hit);
        assert_eq!(stats_digest(&second), stats_digest(&cold), "warm-started run must match");
    }

    #[test]
    fn ckpt_key_separates_configs_and_workloads() {
        let scratch = ScratchDir::new("key-separation");
        let plan = CkptPlan { dir: scratch.0.clone(), warmup: 500 };
        let (_, o1) = run_one_ckpt(
            Bench::Vortex.profile(),
            IqKind::Ideal(64),
            false,
            false,
            1_500,
            7,
            Some(&plan),
        );
        assert_eq!(o1, CkptOutcome::MissSaved);
        // Different queue geometry: different config hash, so a miss.
        let (_, o2) = run_one_ckpt(
            Bench::Vortex.profile(),
            IqKind::Ideal(32),
            false,
            false,
            1_500,
            7,
            Some(&plan),
        );
        assert_eq!(o2, CkptOutcome::MissSaved);
        // Different seed: different workload fingerprint, so a miss.
        let (_, o3) = run_one_ckpt(
            Bench::Vortex.profile(),
            IqKind::Ideal(64),
            false,
            false,
            1_500,
            8,
            Some(&plan),
        );
        assert_eq!(o3, CkptOutcome::MissSaved);
        // The original point again: now a hit.
        let (_, o4) = run_one_ckpt(
            Bench::Vortex.profile(),
            IqKind::Ideal(64),
            false,
            false,
            1_500,
            7,
            Some(&plan),
        );
        assert_eq!(o4, CkptOutcome::Hit);
    }

    #[test]
    fn ckpt_degenerate_warmup_is_disabled() {
        let scratch = ScratchDir::new("degenerate");
        for warmup in [0, 1_500, 9_999] {
            let plan = CkptPlan { dir: scratch.0.clone(), warmup };
            let (_, o) = run_one_ckpt(
                Bench::Vortex.profile(),
                IqKind::Ideal(64),
                false,
                false,
                1_500,
                7,
                Some(&plan),
            );
            assert_eq!(o, CkptOutcome::Disabled, "warmup {warmup} must disable the cache");
        }
        assert!(!scratch.0.exists(), "disabled runs must not create the cache directory");
    }

    #[test]
    fn ckpt_corrupt_image_is_rejected_and_rewritten() {
        let scratch = ScratchDir::new("corrupt");
        let plan = CkptPlan { dir: scratch.0.clone(), warmup: 500 };
        let kind = IqKind::Ideal(64);
        let cold = run_one(Bench::Gcc.profile(), kind, false, false, 1_500, 3);
        let (_, o1) = run_one_ckpt(Bench::Gcc.profile(), kind, false, false, 1_500, 3, Some(&plan));
        assert_eq!(o1, CkptOutcome::MissSaved);

        // Flip one payload byte in the saved image.
        let entries: Vec<_> = std::fs::read_dir(&scratch.0).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let path = entries[0].as_ref().unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (r, o2) = run_one_ckpt(Bench::Gcc.profile(), kind, false, false, 1_500, 3, Some(&plan));
        assert_eq!(o2, CkptOutcome::Rejected);
        assert_eq!(stats_digest(&r), stats_digest(&cold), "rejected run must restart cold");

        // The rewrite repaired the cache: next run hits.
        let (r2, o3) =
            run_one_ckpt(Bench::Gcc.profile(), kind, false, false, 1_500, 3, Some(&plan));
        assert_eq!(o3, CkptOutcome::Hit);
        assert_eq!(stats_digest(&r2), stats_digest(&cold));
    }
}
