//! Calibration diagnostic: per-benchmark machine behaviour across a few
//! key configurations. Not a paper artifact — used to tune the synthetic
//! workload profiles (DESIGN.md §2) and sanity-check result shapes.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::Bench;
use chainiq_bench::{ideal, sample_size, segmented, PredictorConfig, Sweep, TextTable};

fn main() {
    let sample = sample_size();
    println!("chainiq calibration — {sample} committed instructions per run\n");

    // Three runs per benchmark (ideal-32, ideal-512, seg-512), row-major.
    let mut sweep = Sweep::new();
    for bench in Bench::ALL {
        sweep.add(bench, ideal(32), PredictorConfig::Base, sample);
        sweep.add(bench, ideal(512), PredictorConfig::Base, sample);
        sweep.add(bench, segmented(512, Some(128)), PredictorConfig::Comb, sample);
    }
    let results = sweep.run();

    let mut t = TextTable::new(&[
        "bench",
        "ipc@32",
        "ipc@512",
        "seg512/ideal",
        "bp-acc",
        "l1d-miss",
        "l2-miss",
        "iq-occ",
        "rob-occ",
        "br-frac",
    ]);
    for (bi, bench) in Bench::ALL.iter().enumerate() {
        let small = &results[bi * 3];
        let big = &results[bi * 3 + 1];
        let seg = &results[bi * 3 + 2];
        let s = &big.stats;
        t.row(&[
            bench.name().into(),
            format!("{:.3}", small.ipc()),
            format!("{:.3}", big.ipc()),
            format!("{:.2}", seg.ipc() / big.ipc()),
            format!("{:.3}", s.branch_accuracy()),
            format!("{:.3}", s.l1d_miss_ratio()),
            format!("{:.3}", s.mem.l2.miss_ratio()),
            format!("{:.1}", s.iq.mean_occupancy()),
            format!("{:.1}", s.rob_mean_occupancy),
            format!("{:.3}", s.branch_lookups as f64 / s.committed.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
}
