//! §7's SMT hypothesis, tested: "the dynamic inter-chain scheduling of
//! our segmented IQ should allow chains from independent threads to
//! exploit thread-level parallelism effectively."
//!
//! Runs 1, 2 and 4 hardware threads over a shared 512-entry queue —
//! ideal vs segmented — and reports aggregate IPC. If the hypothesis
//! holds, the segmented queue's retention (segmented/ideal) does not
//! collapse as threads are added.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{AddressSpace, Bench, IdealIq, SimConfig, SimStats, SmtPipeline, SyntheticWorkload};
use chainiq_bench::{sample_size, sweep_map, TextTable, DEFAULT_SEED};

// Not a multiple of any predictor-table size, so thread contexts do not
// alias exactly onto the same PHT/BTB/HMP slots.
const STRIDE: u64 = (1 << 40) | 0x94_530;

fn threads(mix: &[Bench]) -> Vec<AddressSpace<SyntheticWorkload>> {
    mix.iter()
        .enumerate()
        .map(|(t, b)| {
            AddressSpace::new(
                SyntheticWorkload::from_profile(b.profile(), DEFAULT_SEED + t as u64),
                t as u64 * STRIDE,
                t as u64 * STRIDE,
            )
        })
        .collect()
}

fn run_ideal(mix: &[Bench], insts: u64) -> SimStats {
    let cfg = SimConfig::default().rob_for_iq(512);
    let mut smt = SmtPipeline::new(cfg, IdealIq::new(512), threads(mix));
    smt.run(insts)
}

fn run_segmented(mix: &[Bench], insts: u64) -> (SimStats, f64) {
    let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    cfg.use_lrp = true;
    let mut qc = SegmentedIqConfig::paper(512, Some(128));
    qc.two_chain_tracking = false;
    let mut smt = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads(mix));
    let s = smt.run(insts);
    (s, smt.iq().full_stats().chains.mean_live())
}

fn main() {
    let sample = sample_size();
    println!("SMT over a shared 512-entry queue (aggregate IPC across threads)");
    println!("({sample} committed instructions per run; comb predictors, 128 chains)\n");

    let mixes: Vec<(&str, Vec<Bench>)> = vec![
        ("gcc x1", vec![Bench::Gcc]),
        ("gcc x2", vec![Bench::Gcc; 2]),
        ("gcc x4", vec![Bench::Gcc; 4]),
        ("ammp x1", vec![Bench::Ammp]),
        ("ammp x2", vec![Bench::Ammp; 2]),
        ("ammp x4", vec![Bench::Ammp; 4]),
        ("swim+gcc", vec![Bench::Swim, Bench::Gcc]),
        ("mgrid+twolf", vec![Bench::Mgrid, Bench::Twolf]),
        ("swim+mgrid+gcc+twolf", vec![Bench::Swim, Bench::Mgrid, Bench::Gcc, Bench::Twolf]),
    ];

    // SMT runs are not plain `RunSpec`s (each point is a thread mix over
    // a custom pipeline), so fan them out with the generic sweep_map:
    // one job per mix, each running its ideal + segmented pair.
    let rows = sweep_map("smt mix", &mixes, |(_, mix)| {
        let ideal = run_ideal(mix, sample);
        let (seg, chains) = run_segmented(mix, sample);
        (ideal, seg, chains)
    });

    let mut t = TextTable::new(&["mix", "ideal IPC", "seg IPC", "retention", "mean chains"]);
    for ((label, _), (ideal, seg, chains)) in mixes.iter().zip(&rows) {
        t.row(&[
            (*label).to_string(),
            format!("{:.3}", ideal.ipc()),
            format!("{:.3}", seg.ipc()),
            format!("{:.0}%", 100.0 * seg.ipc() / ideal.ipc()),
            format!("{chains:.0}"),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: 'retention' holding steady as threads are added is the §7");
    println!("hypothesis — chains from independent threads schedule around each");
    println!("other. Latency-bound mixes (gcc, ammp) gain the most from SMT;");
    println!("bandwidth-bound ones are capped by the 8 B/cycle memory bus.");
}
