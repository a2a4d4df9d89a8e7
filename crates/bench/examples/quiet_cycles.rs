//! How much of the paper grid's simulated time fast-forward jumps over.
//!
//! After a quiet cycle, `Pipeline::run` skips the cycles that would
//! repeat it (DESIGN.md §9, "Quiet cycles"). This example runs the 275
//! Figure 2, Table 2 and Figure 3 specs with every queue wrapped in a
//! counter of the cycles the pipeline asked it to skip. It checks that
//! each spec's statistics equal `RunSpec::execute`'s, then prints the
//! skipped share of simulated cycles per queue design and overall.
//!
//! ```text
//! cargo run --release -p chainiq-bench --example quiet_cycles [sample] [seed]
//! ```

use chainiq::core::{IqStats, IssuedInst, QuietCycle};
use chainiq::{
    DispatchInfo, DispatchStall, DistanceIq, FuPool, IdealIq, InstTag, IqKind, IssueQueue,
    Pipeline, PrescheduledIq, SegmentedIq, SimConfig, SimStats, SyntheticWorkload,
};
use chainiq_bench::{ideal, prescheduled, segmented, PredictorConfig, RunSpec, FIG2_BENCHES};

/// A queue that forwards everything, counting the skips asked of it.
struct Skips<Q> {
    inner: Q,
    skipped: u64,
    jumps: u64,
}

impl<Q: IssueQueue> IssueQueue for Skips<Q> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
    fn tick(&mut self, now: u64, execution_idle: bool) {
        self.inner.tick(now, execution_idle);
    }
    fn dispatch(&mut self, now: u64, info: DispatchInfo) -> Result<(), DispatchStall> {
        self.inner.dispatch(now, info)
    }
    fn select_issue_into(&mut self, now: u64, fus: &mut FuPool, out: &mut Vec<IssuedInst>) {
        self.inner.select_issue_into(now, fus, out);
    }
    fn announce_ready(&mut self, producer: InstTag, ready_at: u64) {
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
    fn next_event(&self, quiet: &QuietCycle) -> u64 {
        self.inner.next_event(quiet)
    }
    fn skip_quiet(&mut self, quiet: &QuietCycle, k: u64) {
        self.skipped += k;
        self.jumps += 1;
        self.inner.skip_quiet(quiet, k);
    }
}

/// The Figure 2, Table 2 and Figure 3 specs in the order the benchmark's
/// `paper-grid` workload builds them.
fn paper_grid(sample: u64, seed: u64) -> Vec<RunSpec> {
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
    for bench in [
        chainiq::Bench::Ammp,
        chainiq::Bench::Applu,
        chainiq::Bench::Equake,
        chainiq::Bench::Gcc,
        chainiq::Bench::Mgrid,
        chainiq::Bench::Swim,
        chainiq::Bench::Twolf,
        chainiq::Bench::Vortex,
    ] {
        for pred in PredictorConfig::ALL {
            add(bench, segmented(512, None), pred);
        }
    }
    for bench in chainiq::Bench::ALL {
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

/// Runs `spec` on the machine `chainiq::run_one` builds, around `iq`,
/// returning the statistics plus the cycles skipped and the jumps taken.
fn run<Q: IssueQueue>(spec: &RunSpec, config: SimConfig, iq: Q) -> (SimStats, u64, u64) {
    let workload = SyntheticWorkload::from_profile(spec.bench.profile(), spec.seed);
    let mut sim = Pipeline::new(config, Skips { inner: iq, skipped: 0, jumps: 0 }, workload);
    let stats = sim.run(spec.sample);
    (stats, sim.iq().skipped, sim.iq().jumps)
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u64>().ok());
    let sample = args.next().flatten().unwrap_or(5_000);
    let seed = args.next().flatten().unwrap_or(chainiq_bench::DEFAULT_SEED);

    // (label, cycles, skipped, jumps) per queue design.
    let mut rows: Vec<(&str, u64, u64, u64)> = vec![
        ("ideal", 0, 0, 0),
        ("segmented", 0, 0, 0),
        ("prescheduled", 0, 0, 0),
        ("distance", 0, 0, 0),
    ];
    for spec in paper_grid(sample, seed) {
        let (config, kind) = spec.iq.table1_machine(spec.pred.hmp(), spec.pred.lrp());
        let (row, (stats, skipped, jumps)) = match kind {
            IqKind::Ideal(n) => (0, run(&spec, config, IdealIq::new(n))),
            IqKind::Segmented(qc) => (1, run(&spec, config, SegmentedIq::new(qc))),
            IqKind::Prescheduled(pc) => (2, run(&spec, config, PrescheduledIq::new(pc))),
            IqKind::Distance(dc) => (3, run(&spec, config, DistanceIq::new(dc))),
        };
        assert_eq!(
            format!("{stats:?}"),
            format!("{:?}", spec.execute().stats),
            "{}: the counting wrapper changed the run",
            spec.label()
        );
        let r = &mut rows[row];
        r.1 += stats.cycles;
        r.2 += skipped;
        r.3 += jumps;
    }

    println!("paper grid, sample {sample}, seed {seed}: cycles fast-forwarded");
    println!("{:<14} {:>12} {:>12} {:>8} {:>8}", "queue", "cycles", "skipped", "share", "jumps");
    let total = rows.iter().fold(("all", 0, 0, 0), |t, r| (t.0, t.1 + r.1, t.2 + r.2, t.3 + r.3));
    for (label, cycles, skipped, jumps) in rows.into_iter().filter(|r| r.1 > 0).chain([total]) {
        let share = 100.0 * skipped as f64 / cycles.max(1) as f64;
        println!("{label:<14} {cycles:>12} {skipped:>12} {share:>7.1}% {jumps:>8}");
    }
}
