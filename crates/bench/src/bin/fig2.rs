//! Figure 2 — performance of 512-entry segmented IQ configurations
//! relative to an ideal 512-entry IQ.
//!
//! For each benchmark, twelve bars: {unlimited, 128, 64} chain wires ×
//! {base, hmp, lrp, comb} predictor configurations, each reported as a
//! percentage of the ideal monolithic 512-entry queue's IPC. Also prints
//! the §4.5 deadlock-recovery cycle fraction (scalar claim S2).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq_bench::{
    ideal, sample_size, segmented, PredictorConfig, Sweep, TextTable, FIG2_BENCHES,
};

fn main() {
    let sample = sample_size();
    println!("Figure 2: 512-entry segmented IQ vs ideal 512-entry IQ");
    println!("({sample} committed instructions per run; values are % of ideal IPC)\n");

    let chain_configs: [(Option<usize>, &str); 3] =
        [(None, "unlimited"), (Some(128), "128 chains"), (Some(64), "64 chains")];

    // Grid: per benchmark, one ideal reference run plus 3 chain configs
    // × 4 predictor configs. Indices are recorded at submission and the
    // whole grid runs as one parallel sweep.
    let mut sweep = Sweep::new();
    let mut ideal_idx = Vec::new();
    let mut seg_idx = Vec::new(); // [bench][chain_cfg][pred]
    for bench in FIG2_BENCHES {
        ideal_idx.push(sweep.add(bench, ideal(512), PredictorConfig::Base, sample));
        let mut per_bench = [[0usize; 4]; 3];
        for (ci, (chains, _)) in chain_configs.iter().enumerate() {
            for (pi, pred) in PredictorConfig::ALL.iter().enumerate() {
                per_bench[ci][pi] = sweep.add(bench, segmented(512, *chains), *pred, sample);
            }
        }
        seg_idx.push(per_bench);
    }
    let results = sweep.run();

    let mut t = TextTable::new(&["bench", "chains", "base", "hmp", "lrp", "comb"]);
    // rel[chain_cfg][pred] summed across benchmarks for the average rows.
    let mut sums = [[0.0f64; 4]; 3];
    let mut deadlock_frac_max: f64 = 0.0;

    for (bi, bench) in FIG2_BENCHES.iter().enumerate() {
        let ideal_ipc = results[ideal_idx[bi]].ipc();
        for (ci, (_, label)) in chain_configs.iter().enumerate() {
            let mut cells = vec![bench.name().to_string(), (*label).to_string()];
            for (pi, _) in PredictorConfig::ALL.iter().enumerate() {
                let r = &results[seg_idx[bi][ci][pi]];
                let rel = 100.0 * r.ipc() / ideal_ipc;
                sums[ci][pi] += rel;
                if let Some(seg) = &r.segmented {
                    deadlock_frac_max = deadlock_frac_max.max(seg.deadlock_cycle_frac());
                }
                cells.push(format!("{rel:.1}"));
            }
            t.row(&cells);
        }
    }
    let n = FIG2_BENCHES.len() as f64;
    for (ci, (_, label)) in chain_configs.iter().enumerate() {
        let mut cells = vec!["average".to_string(), (*label).to_string()];
        for sum in &sums[ci] {
            cells.push(format!("{:.1}", sum / n));
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!(
        "S2 (§4.5): worst-case deadlock-recovery cycle fraction across runs: {:.4}%",
        100.0 * deadlock_frac_max
    );
}
