//! The benchmark's operations: the paper's RunSpec grid, the §7 SMT thread
//! mixes, and the two-worker fan-out that runs them.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{
    AddressSpace, Bench, IdealIq, SegmentedStats, SimConfig, SimStats, SmtPipeline,
    SyntheticWorkload,
};
use chainiq_bench::{ideal, pool, prescheduled, segmented, PredictorConfig, RunSpec, FIG2_BENCHES};

use crate::trace::{elapsed_ns, worker_id, Acc, QueueLayer, Span, Timed, TimedWorkload};

/// Committed instructions per paper-grid spec.
pub const GRID_SAMPLE: u64 = 5_000;

/// Committed instructions per SMT run (the reduced per-spec sample).
pub const SMT_SAMPLE: u64 = 2_500;

/// Worker threads of every fan-out.
pub const WORKERS: usize = 2;

/// The Figure 2, Table 2 and Figure 3 grids, in the order the `fig2`,
/// `table2` and `fig3` binaries submit them (275 specs), at one workload
/// seed.
#[must_use]
pub fn paper_grid(sample: u64, seed: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    let mut add =
        |bench, iq, pred| specs.push(RunSpec::new(bench, iq, pred, sample).with_seed(seed));
    for bench in FIG2_BENCHES {
        add(bench, ideal(512), PredictorConfig::Base);
        for chains in [None, Some(128), Some(64)] {
            for pred in PredictorConfig::ALL {
                add(bench, segmented(512, chains), pred);
            }
        }
    }
    let table2 = [
        Bench::Ammp,
        Bench::Applu,
        Bench::Equake,
        Bench::Gcc,
        Bench::Mgrid,
        Bench::Swim,
        Bench::Twolf,
        Bench::Vortex,
    ];
    for bench in table2 {
        for pred in PredictorConfig::ALL {
            add(bench, segmented(512, None), pred);
        }
    }
    for bench in Bench::ALL {
        for size in [32, 64, 128, 256, 512] {
            add(bench, ideal(size), PredictorConfig::Base);
        }
        for chains in [128, 64] {
            for size in [32, 64, 128, 256, 512] {
                add(bench, segmented(size, Some(chains)), PredictorConfig::Comb);
            }
        }
        for lines in [8, 24, 56, 120] {
            add(bench, prescheduled(lines), PredictorConfig::Base);
        }
    }
    specs
}

/// Every 10th grid spec at a 2 000-instruction sample: each queue design
/// and predictor hook, about a tenth of a second of simulation. Set-up
/// runs these so code, allocator and lazy state are warm before timing.
#[must_use]
pub fn warm_up_specs(specs: &[RunSpec]) -> Vec<RunSpec> {
    specs.iter().step_by(10).map(|s| RunSpec { sample: 2_000, ..*s }).collect()
}

/// One §7 thread mix: benchmarks sharing a 512-entry queue.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Label, as the `smt` binary prints it.
    pub label: &'static str,
    /// One benchmark per hardware thread.
    pub benches: Vec<Bench>,
}

/// The nine mixes of the `smt` binary.
#[must_use]
pub fn smt_mixes() -> Vec<Mix> {
    let mix = |label, benches: Vec<Bench>| Mix { label, benches };
    vec![
        mix("gcc x1", vec![Bench::Gcc]),
        mix("gcc x2", vec![Bench::Gcc; 2]),
        mix("gcc x4", vec![Bench::Gcc; 4]),
        mix("ammp x1", vec![Bench::Ammp]),
        mix("ammp x2", vec![Bench::Ammp; 2]),
        mix("ammp x4", vec![Bench::Ammp; 4]),
        mix("swim+gcc", vec![Bench::Swim, Bench::Gcc]),
        mix("mgrid+twolf", vec![Bench::Mgrid, Bench::Twolf]),
        mix("swim+mgrid+gcc+twolf", vec![Bench::Swim, Bench::Mgrid, Bench::Gcc, Bench::Twolf]),
    ]
}

/// Address-space stride between thread contexts, as in the `smt` binary.
const STRIDE: u64 = (1 << 40) | 0x94_530;

fn threads(mix: &Mix, seed: u64) -> Vec<AddressSpace<SyntheticWorkload>> {
    mix.benches
        .iter()
        .enumerate()
        .map(|(t, b)| {
            AddressSpace::new(
                SyntheticWorkload::from_profile(b.profile(), seed + t as u64),
                t as u64 * STRIDE,
                t as u64 * STRIDE,
            )
        })
        .collect()
}

fn smt_ideal_config() -> SimConfig {
    SimConfig::default().rob_for_iq(512)
}

fn smt_segmented_config() -> (SimConfig, SegmentedIqConfig) {
    let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    cfg.use_lrp = true;
    let mut qc = SegmentedIqConfig::paper(512, Some(128));
    qc.two_chain_tracking = false;
    (cfg, qc)
}

/// The outcome of one mix: the ideal and the segmented run.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Ideal-queue run.
    pub ideal: SimStats,
    /// Segmented-queue run.
    pub seg: SimStats,
    /// Segmented-queue statistics.
    pub seg_stats: SegmentedStats,
}

impl MixResult {
    /// Fingerprint of every simulated statistic of the mix.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let text = format!("{:?} {:?} {:?}", self.ideal, self.seg, self.seg_stats);
        chainiq::ckpt::fingerprint(text.as_bytes())
    }

    /// Committed instructions of both runs.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.ideal.committed + self.seg.committed
    }

    /// Whether either run hit the no-progress guard or fell short.
    #[must_use]
    pub fn ok(&self, sample: u64) -> bool {
        [&self.ideal, &self.seg].iter().all(|s| !s.hung && s.committed >= sample)
    }
}

/// Runs `mix` (ideal then segmented) exactly as the `smt` binary does.
#[must_use]
pub fn run_mix(mix: &Mix, sample: u64, seed: u64) -> MixResult {
    let ideal =
        SmtPipeline::new(smt_ideal_config(), IdealIq::new(512), threads(mix, seed)).run(sample);
    let (cfg, qc) = smt_segmented_config();
    let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads(mix, seed));
    let seg = smt.run(sample);
    MixResult { ideal, seg, seg_stats: smt.iq().full_stats() }
}

/// [`run_mix`] on timed wrappers: one span per run, counted from `t0`.
#[must_use]
pub fn run_mix_traced(mix: &Mix, sample: u64, seed: u64, t0: Instant) -> (MixResult, [Span; 2]) {
    let timed_threads = |acc: &Rc<Cell<Acc>>| -> Vec<_> {
        threads(mix, seed).into_iter().map(|w| TimedWorkload::new(w, Rc::clone(acc))).collect()
    };
    let span = |queue, what: &str| Span {
        op: format!("smt:{}/{what}", mix.label),
        worker: worker_id(),
        start_ns: elapsed_ns(t0),
        smt: true,
        queue,
        ..Span::default()
    };

    let mut ideal_span = span(QueueLayer::Ideal, "ideal");
    let wl = Rc::new(Cell::new(Acc::default()));
    let mut smt =
        SmtPipeline::new(smt_ideal_config(), Timed::new(IdealIq::new(512)), timed_threads(&wl));
    let ideal = smt.run(sample);
    ideal_span.iq = smt.iq().trace();
    ideal_span.workload = wl.get();
    ideal_span.end_ns = elapsed_ns(t0);

    let mut seg_span = span(QueueLayer::Segmented, "seg");
    let wl = Rc::new(Cell::new(Acc::default()));
    let (cfg, qc) = smt_segmented_config();
    let mut smt = SmtPipeline::new(cfg, Timed::new(SegmentedIq::new(qc)), timed_threads(&wl));
    let seg = smt.run(sample);
    seg_span.iq = smt.iq().trace();
    seg_span.workload = wl.get();
    seg_span.end_ns = elapsed_ns(t0);

    for (s, stats) in [(&mut ideal_span, &ideal), (&mut seg_span, &seg)] {
        s.cycles = stats.cycles;
        s.committed = stats.committed;
    }
    let seg_stats = smt.iq().inner().full_stats();
    (MixResult { ideal, seg, seg_stats }, [ideal_span, seg_span])
}

/// Where and when one fan-out job ran, in nanoseconds since the pass
/// began.
#[derive(Debug, Default, Clone, Copy)]
pub struct Interval {
    /// The worker thread.
    pub worker: usize,
    /// Job start.
    pub start_ns: u64,
    /// Job end.
    pub end_ns: u64,
}

impl Interval {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Runs `f` over `items` on [`WORKERS`] threads of the bench crate's pool
/// (the fan-out `Sweep` runs on), timing each job from `t0`. Results come
/// back in submission order.
pub fn fan_out<J, R, F>(items: &[J], t0: Instant, f: F) -> Vec<(R, Interval)>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    pool::run_indexed(
        items,
        WORKERS,
        |_, item| {
            let start_ns = elapsed_ns(t0);
            let r = f(item);
            (r, Interval { worker: worker_id(), start_ns, end_ns: elapsed_ns(t0) })
        },
        |_, _| {},
    )
}

/// Pool statistics of one fan-out: host busy time, idle share and tail.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolShape {
    /// Σ job durations, seconds.
    pub busy_s: f64,
    /// Fan-out wall clock (last end), seconds.
    pub wall_s: f64,
    /// Wall clock after the first worker ran out of jobs, seconds.
    pub tail_s: f64,
}

impl PoolShape {
    /// Measures the fan-out whose jobs ran at `intervals`.
    #[must_use]
    pub fn of(intervals: &[Interval]) -> Self {
        let wall_ns = intervals.iter().map(|i| i.end_ns).max().unwrap_or(0);
        let mut last_by_worker: Vec<(usize, u64)> = Vec::new();
        for i in intervals {
            match last_by_worker.iter_mut().find(|(w, _)| *w == i.worker) {
                Some((_, end)) => *end = (*end).max(i.end_ns),
                None => last_by_worker.push((i.worker, i.end_ns)),
            }
        }
        let first_idle = if last_by_worker.len() < WORKERS {
            0 // a worker never got a job
        } else {
            last_by_worker.iter().map(|(_, e)| *e).min().unwrap_or(wall_ns)
        };
        PoolShape {
            busy_s: intervals.iter().map(Interval::secs).sum(),
            wall_s: wall_ns as f64 * 1e-9,
            tail_s: wall_ns.saturating_sub(first_idle) as f64 * 1e-9,
        }
    }

    /// Share of worker time spent without a job.
    #[must_use]
    pub fn idle_frac(&self) -> f64 {
        let capacity = self.wall_s * WORKERS as f64;
        if capacity == 0.0 {
            0.0
        } else {
            (1.0 - self.busy_s / capacity).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_grid_has_the_binaries_275_specs() {
        let specs = paper_grid(1_000, 3);
        assert_eq!(specs.len(), 91 + 32 + 152);
        assert!(specs.iter().all(|s| s.sample == 1_000 && s.seed == 3));
        assert_eq!(smt_mixes().len(), 9);
    }

    #[test]
    fn traced_mixes_match_untraced_mixes() {
        let mix = &smt_mixes()[6]; // swim+gcc
        let plain = run_mix(mix, 1_000, 11);
        let (traced, spans) = run_mix_traced(mix, 1_000, 11, Instant::now());
        assert_eq!(traced.digest(), plain.digest());
        for span in &spans {
            assert!(span.smt && span.cycles > 0);
            assert!(span.children_ns() <= span.dur_ns(), "{span:?}");
        }
    }

    #[test]
    fn pool_shape_measures_busy_idle_and_tail() {
        let iv = |worker, start_ns, end_ns| Interval { worker, start_ns, end_ns };
        let shape = PoolShape::of(&[
            iv(0, 0, 4_000_000_000),
            iv(1, 0, 1_000_000_000),
            iv(1, 1_000_000_000, 2_000_000_000),
        ]);
        assert!((shape.busy_s - 6.0).abs() < 1e-9);
        assert!((shape.wall_s - 4.0).abs() < 1e-9);
        assert!((shape.tail_s - 2.0).abs() < 1e-9);
        assert!((shape.idle_frac() - 0.25).abs() < 1e-9);
    }
}
