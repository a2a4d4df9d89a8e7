//! Table 2 — chain usage for the 512-entry segmented IQ with unlimited
//! chains: average and peak live-chain counts per benchmark under the
//! four predictor configurations.
//!
//! Also prints the paper's related scalar claims: the HMP's accuracy and
//! coverage (S1), the fraction of instructions with two outstanding
//! operands in different chains (S3, ~35%), and the fraction of chains
//! headed by loads in the base configuration (S4, ~65%).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::Bench;
use chainiq_bench::{sample_size, segmented, PredictorConfig, Sweep, TextTable};

fn main() {
    let sample = sample_size();
    println!("Table 2: chain usage, 512-entry segmented IQ, unlimited chains");
    println!("({sample} committed instructions per run)\n");

    let benches = [
        Bench::Ammp,
        Bench::Applu,
        Bench::Equake,
        Bench::Gcc,
        Bench::Mgrid,
        Bench::Swim,
        Bench::Twolf,
        Bench::Vortex,
    ];

    // One parallel sweep over the bench × predictor grid; specs are
    // submitted row-major, so result index = bench * 4 + predictor.
    let mut sweep = Sweep::new();
    for bench in benches {
        for pred in PredictorConfig::ALL {
            sweep.add(bench, segmented(512, None), pred, sample);
        }
    }
    let results = sweep.run();

    let mut t = TextTable::new(&[
        "bench",
        "base avg",
        "base peak",
        "hmp avg",
        "hmp peak",
        "lrp avg",
        "lrp peak",
        "comb avg",
        "comb peak",
    ]);
    let mut avg_sums = [0.0f64; 4];
    let mut dual_dep_sum = 0.0;
    let mut load_head_sum = 0.0;
    let mut hmp_acc_min: f64 = 1.0;
    let mut hmp_cov_sum = 0.0;

    for (bi, bench) in benches.iter().enumerate() {
        let mut cells = vec![bench.name().to_string()];
        for (pi, pred) in PredictorConfig::ALL.iter().enumerate() {
            let r = &results[bi * PredictorConfig::ALL.len() + pi];
            let seg = r.segmented.as_ref().expect("segmented stats");
            avg_sums[pi] += seg.chains.mean_live();
            cells.push(format!("{:.0}", seg.chains.mean_live()));
            cells.push(format!("{}", seg.chains.peak_live));
            match pred {
                PredictorConfig::Base => {
                    dual_dep_sum += seg.dual_dep_frac();
                    load_head_sum += seg.chains.load_head_frac();
                }
                PredictorConfig::Hmp => {
                    hmp_acc_min = hmp_acc_min.min(r.stats.hmp.hit_accuracy());
                    hmp_cov_sum += r.stats.hmp.hit_coverage();
                }
                _ => {}
            }
        }
        t.row(&cells);
    }
    let n = benches.len() as f64;
    let mut avg_row = vec!["average".to_string()];
    for s in avg_sums {
        avg_row.push(format!("{:.0}", s / n));
        avg_row.push("-".to_string());
    }
    t.row(&avg_row);
    println!("{}", t.render());

    println!("Reductions vs base (average of averages):");
    for (pi, label) in [(1, "hmp"), (2, "lrp"), (3, "comb")] {
        println!("  {label}: {:.0}%", 100.0 * (1.0 - avg_sums[pi] / avg_sums[0]));
    }
    println!();
    println!(
        "S1 (§6.1): HMP hit-prediction accuracy (worst benchmark): {:.1}%",
        100.0 * hmp_acc_min
    );
    println!("S1 (§6.1): HMP hit coverage (mean): {:.1}%", 100.0 * hmp_cov_sum / n);
    println!(
        "S3 (§4.3): instructions with two operands outstanding in different chains (mean): {:.1}%",
        100.0 * dual_dep_sum / n
    );
    println!(
        "S4 (§4.4): chains headed by loads in the base configuration (mean): {:.1}%",
        100.0 * load_head_sum / n
    );
}
