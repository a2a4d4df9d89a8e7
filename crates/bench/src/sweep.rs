//! The parallel sweep executor: every experiment binary is a grid of
//! fully independent simulations, so the harness builds a list of
//! [`RunSpec`]s, fans them out across `CHAINIQ_JOBS` workers (default:
//! all hardware threads), and collects the [`RunResult`]s **by
//! submission index**.
//!
//! Each simulation is deterministic given its spec, so a sweep's results
//! — and therefore every rendered table — are byte-identical whatever
//! the worker count; parallelism only changes wall-clock. Progress
//! (completed/total, elapsed, spec label) is reported on stderr, keeping
//! stdout reserved for the artifact tables.

use std::path::Path;

use chainiq::{Bench, CkptOutcome, CkptPlan, IqKind, RunResult};

use crate::{knob, pool, PredictorConfig, DEFAULT_SEED};

/// One point of an experiment grid: everything `chainiq::run_one` needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Benchmark profile to simulate.
    pub bench: Bench,
    /// Instruction-queue design under test.
    pub iq: IqKind,
    /// Predictor configuration (Figure 2 bar).
    pub pred: PredictorConfig,
    /// Committed instructions to simulate.
    pub sample: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl RunSpec {
    /// A spec at the shared [`DEFAULT_SEED`].
    #[must_use]
    pub fn new(bench: Bench, iq: IqKind, pred: PredictorConfig, sample: u64) -> Self {
        RunSpec { bench, iq, pred, sample, seed: DEFAULT_SEED }
    }

    /// The same spec with a different workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Executes this spec (serially, on the calling thread).
    #[must_use]
    pub fn execute(&self) -> RunResult {
        self.execute_cached(None).0
    }

    /// Executes this spec through the checkpoint cache rooted at `cache`
    /// (`None` for a plain cold run). The warmup prefix is half the
    /// sample, so grid points sharing a (workload, configuration) pair —
    /// re-runs, CI double-runs, overlapping figures — skip half their
    /// simulation on a hit. Results are identical either way; see
    /// [`chainiq::run_one_ckpt`].
    #[must_use]
    pub fn execute_cached(&self, cache: Option<&Path>) -> (RunResult, CkptOutcome) {
        let plan = cache.map(|dir| CkptPlan { dir: dir.to_path_buf(), warmup: self.sample / 2 });
        chainiq::run_one_ckpt(
            self.bench.profile(),
            self.iq,
            self.pred.hmp(),
            self.pred.lrp(),
            self.sample,
            self.seed,
            plan.as_ref(),
        )
    }

    /// Short label for progress lines, e.g. `swim/seg512/comb`.
    #[must_use]
    pub fn label(&self) -> String {
        let iq = match self.iq {
            IqKind::Ideal(n) => format!("ideal{n}"),
            IqKind::Segmented(c) => format!("seg{}", c.capacity()),
            IqKind::Prescheduled(c) => format!("presched{}", c.capacity()),
            IqKind::Distance(c) => format!("dist{}", c.capacity()),
        };
        format!("{}/{}/{}", self.bench.name(), iq, self.pred.label())
    }
}

/// An ordered list of run specs, executed in one parallel fan-out.
///
/// `push`/`add` return the spec's **submission index**; [`Sweep::run`]
/// returns results at exactly those indices, so binaries record indices
/// while building the grid and render tables from the collected vector.
///
/// # Examples
///
/// ```no_run
/// use chainiq_bench::{ideal, PredictorConfig, RunSpec, Sweep};
/// use chainiq::Bench;
///
/// let mut sweep = Sweep::new();
/// let i = sweep.add(Bench::Swim, ideal(32), PredictorConfig::Base, 10_000);
/// let results = sweep.run();
/// println!("IPC {:.3}", results[i].ipc());
/// ```
#[derive(Debug, Default)]
pub struct Sweep {
    specs: Vec<RunSpec>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Appends a spec, returning its submission index.
    pub fn push(&mut self, spec: RunSpec) -> usize {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Appends a default-seed spec, returning its submission index.
    pub fn add(&mut self, bench: Bench, iq: IqKind, pred: PredictorConfig, sample: u64) -> usize {
        self.push(RunSpec::new(bench, iq, pred, sample))
    }

    /// Number of queued specs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the sweep is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The queued specs, in submission order.
    #[must_use]
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Executes the sweep on `CHAINIQ_JOBS` workers (default: hardware
    /// parallelism) and returns results in submission order. The
    /// checkpoint cache is consulted when `CHAINIQ_CKPT` enables it,
    /// rooted at the `CHAINIQ_CKPT_DIR` directory.
    #[must_use]
    pub fn run(self) -> Vec<RunResult> {
        let cache = knob::ckpt_enabled().then(knob::ckpt_dir);
        self.run_with_jobs_cached(knob::jobs(), cache.as_deref()).0
    }

    /// Executes the sweep with an explicit worker count and cache root
    /// (`None` disables the cache regardless of the environment),
    /// returning results in submission order plus the cache accounting.
    ///
    /// When the cache is on and `CHAINIQ_CKPT_MAX_MB` sets a cap, the
    /// cache directory is trimmed to the cap after the sweep
    /// (least-recently-stored first; see `chainiq_ckpt::CacheDir`) and
    /// the eviction count is reported on the `ckpt cache:` line.
    #[must_use]
    pub fn run_with_jobs_cached(
        self,
        jobs: usize,
        cache: Option<&Path>,
    ) -> (Vec<RunResult>, CkptTally) {
        let outcomes =
            fan_out("runs", &self.specs, jobs, |spec| spec.execute_cached(cache), RunSpec::label);
        let mut tally = CkptTally::default();
        let mut results = Vec::with_capacity(outcomes.len());
        for (result, outcome) in outcomes {
            tally.count(outcome);
            results.push(result);
        }
        if let Some(dir) = cache {
            match enforce_cache_cap(dir, knob::ckpt_max_mb()) {
                0 => eprintln!("ckpt cache: {tally} ({})", dir.display()),
                n => eprintln!("ckpt cache: {tally}, {n} evicted ({})", dir.display()),
            }
        }
        (results, tally)
    }
}

/// Trims `dir` to `max_mb` mebibytes (no-op when uncapped), returning
/// how many entries were evicted. Failures are reported on stderr and
/// otherwise ignored: the cap is hygiene, not correctness.
fn enforce_cache_cap(dir: &Path, max_mb: Option<u64>) -> u64 {
    let Some(mb) = max_mb else {
        return 0;
    };
    match chainiq::ckpt::CacheDir::open(dir, Some(mb << 20), None) {
        Ok(mut cache) => match cache.enforce_and_persist() {
            Ok(()) => cache.tally().evicted,
            Err(e) => {
                eprintln!("warning: ckpt cache cap enforcement failed: {e}");
                cache.tally().evicted
            }
        },
        Err(e) => {
            eprintln!("warning: ckpt cache cap enforcement failed: {e}");
            0
        }
    }
}

/// Per-sweep checkpoint-cache accounting, reported on stderr so stdout
/// stays byte-identical whether the cache hit, missed, or was off.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CkptTally {
    /// Runs that restored a cached warmup prefix.
    pub hits: usize,
    /// Runs that simulated cold and saved an image.
    pub misses: usize,
    /// Runs that found a stale or corrupt image, discarded it, and
    /// restarted cold.
    pub rejected: usize,
    /// Cold runs whose image could not be written (cache unusable).
    pub save_failures: usize,
    /// Runs the cache did not apply to (no plan, or a degenerate warmup).
    pub disabled: usize,
}

impl CkptTally {
    fn count(&mut self, outcome: CkptOutcome) {
        match outcome {
            CkptOutcome::Hit => self.hits += 1,
            CkptOutcome::MissSaved => self.misses += 1,
            CkptOutcome::Rejected => self.rejected += 1,
            CkptOutcome::MissSaveFailed => self.save_failures += 1,
            CkptOutcome::Disabled => self.disabled += 1,
        }
    }

    /// Total runs accounted for.
    #[must_use]
    pub fn total(&self) -> usize {
        self.hits + self.misses + self.rejected + self.save_failures + self.disabled
    }
}

impl std::fmt::Display for CkptTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses", self.hits, self.misses)?;
        if self.rejected > 0 {
            write!(f, ", {} rejected", self.rejected)?;
        }
        if self.save_failures > 0 {
            write!(f, ", {} save failures", self.save_failures)?;
        }
        if self.disabled > 0 {
            write!(f, ", {} uncached", self.disabled)?;
        }
        Ok(())
    }
}

/// Generic fan-out for experiment grids whose points are *not* plain
/// `RunSpec`s (the SMT binary's thread mixes, for example): runs `f`
/// over `items` on `CHAINIQ_JOBS` workers with the same submission-order
/// collection and stderr progress reporting as [`Sweep::run`].
#[must_use]
pub fn sweep_map<J, R, F>(what: &str, items: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    fan_out(&format!("{what} jobs"), items, knob::jobs(), f, |_| what.to_string())
}

/// The one fan-out behind [`Sweep`] and [`sweep_map`]: runs `f` over
/// `items` on `jobs` workers, collects results by submission index, and
/// reports each completion (named by `label`) and the total on stderr.
#[expect(clippy::disallowed_types, reason = "D2: elapsed time for the stderr progress lines only")]
fn fan_out<J, R, F, L>(what: &str, items: &[J], jobs: usize, f: F, label: L) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
    L: Fn(&J) -> String,
{
    let total = items.len();
    let t0 = std::time::Instant::now();
    let mut done = 0usize;
    let results = pool::run_indexed(
        items,
        jobs,
        |_, item| f(item),
        |i, _| {
            done += 1;
            eprintln!(
                "  [{done:>3}/{total}] {:<36} ({:.1}s elapsed)",
                label(&items[i]),
                t0.elapsed().as_secs_f64()
            );
        },
    );
    eprintln!(
        "sweep: {total} {what} in {:.1}s on {} worker{}",
        t0.elapsed().as_secs_f64(),
        jobs.max(1),
        if jobs == 1 { "" } else { "s" }
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ideal, segmented};

    #[test]
    fn indices_are_submission_order() {
        let mut s = Sweep::new();
        let a = s.add(Bench::Swim, ideal(32), PredictorConfig::Base, 1000);
        let b = s.add(Bench::Gcc, segmented(64, Some(64)), PredictorConfig::Comb, 1000);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.specs()[a].bench, Bench::Swim);
        assert_eq!(s.specs()[b].pred, PredictorConfig::Comb);
    }

    #[test]
    fn labels_name_bench_queue_and_predictor() {
        let spec = RunSpec::new(Bench::Swim, ideal(512), PredictorConfig::Base, 1000);
        assert_eq!(spec.label(), "swim/ideal512/base");
        let spec = RunSpec::new(Bench::Gcc, segmented(512, Some(128)), PredictorConfig::Comb, 1000);
        assert_eq!(spec.label(), "gcc/seg512/comb");
    }

    #[test]
    fn with_seed_overrides_default() {
        let spec = RunSpec::new(Bench::Swim, ideal(32), PredictorConfig::Base, 1000);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.with_seed(7).seed, 7);
    }

    /// A scratch cache directory, removed on drop.
    struct ScratchCache(std::path::PathBuf);

    impl ScratchCache {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("chainiq-sweep-ckpt-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchCache(dir)
        }
    }

    impl Drop for ScratchCache {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_grid() -> Sweep {
        let mut s = Sweep::new();
        s.add(Bench::Swim, ideal(32), PredictorConfig::Base, 1_500);
        s.add(Bench::Gcc, segmented(64, Some(64)), PredictorConfig::Comb, 1_500);
        s.add(Bench::Twolf, ideal(64), PredictorConfig::Base, 1_500);
        s
    }

    fn digest(results: &[chainiq::RunResult]) -> String {
        results.iter().map(|r| format!("{:?} {:?}\n", r.stats, r.segmented)).collect()
    }

    #[test]
    fn cache_accounting_miss_then_hit() {
        let scratch = ScratchCache::new("accounting");
        let (cold, t0) = small_grid().run_with_jobs_cached(1, None);
        assert_eq!(t0, CkptTally { disabled: 3, ..CkptTally::default() });

        let (first, t1) = small_grid().run_with_jobs_cached(1, Some(&scratch.0));
        assert_eq!(t1, CkptTally { misses: 3, ..CkptTally::default() });
        assert_eq!(digest(&first), digest(&cold), "miss pass must match the uncached sweep");

        let (second, t2) = small_grid().run_with_jobs_cached(1, Some(&scratch.0));
        assert_eq!(t2, CkptTally { hits: 3, ..CkptTally::default() });
        assert_eq!(digest(&second), digest(&cold), "hit pass must match the uncached sweep");
        assert_eq!(t2.total(), 3);
    }

    /// Specs differing only in a configuration prefix — predictor hooks,
    /// queue geometry, or sample length — must never share a cache entry.
    #[test]
    fn cache_keys_separate_config_prefixes() {
        let scratch = ScratchCache::new("key-collision");
        let base = RunSpec::new(Bench::Swim, segmented(64, Some(64)), PredictorConfig::Base, 1_500);
        let variants = [
            base,
            RunSpec::new(Bench::Swim, segmented(64, Some(64)), PredictorConfig::Comb, 1_500),
            RunSpec::new(Bench::Swim, segmented(128, Some(64)), PredictorConfig::Base, 1_500),
            RunSpec::new(Bench::Swim, segmented(64, Some(64)), PredictorConfig::Base, 2_000),
        ];
        let mut sweep = Sweep::new();
        for v in variants {
            sweep.push(v);
        }
        let (_, tally) = sweep.run_with_jobs_cached(1, Some(&scratch.0));
        assert_eq!(
            tally,
            CkptTally { misses: 4, ..CkptTally::default() },
            "every config-prefix variant must get its own cache entry"
        );
        let entries = std::fs::read_dir(&scratch.0).unwrap().count();
        assert_eq!(entries, 4, "four distinct keys, four image files");
    }

    /// Concurrent workers sharing one cache directory: the atomic-write
    /// protocol must keep every reader seeing either a whole image or
    /// none, and results must stay byte-identical to a serial cold sweep.
    #[test]
    fn cache_is_safe_under_concurrent_workers() {
        let scratch = ScratchCache::new("concurrent");
        // Duplicate key coverage: pairs of specs share a cache entry, so
        // workers race to write and then to read the same files.
        let mut grid = Sweep::new();
        for _ in 0..2 {
            for spec in small_grid().specs() {
                grid.push(*spec);
            }
        }
        let serial = small_grid().run_with_jobs_cached(1, None).0;

        let (warm, t1) = {
            let mut g = Sweep::new();
            for spec in grid.specs() {
                g.push(*spec);
            }
            g.run_with_jobs_cached(4, Some(&scratch.0))
        };
        assert_eq!(t1.total(), 6);
        assert_eq!(t1.rejected, 0, "an atomic cache must never serve a torn image");
        assert_eq!(t1.save_failures, 0);

        let (hot, t2) = grid.run_with_jobs_cached(4, Some(&scratch.0));
        assert_eq!(t2, CkptTally { hits: 6, ..CkptTally::default() });

        for results in [&warm, &hot] {
            assert_eq!(digest(&results[..3]), digest(&serial));
            assert_eq!(digest(&results[3..]), digest(&serial));
        }
    }
}
