//! Figure 3 — IPC across instruction-queue sizes for every benchmark.
//!
//! Four curves per benchmark, as in the paper:
//! * **Ideal** — monolithic single-cycle IQ at 32..512 entries;
//! * **Comb-128chains / Comb-64chains** — the segmented IQ (32-entry
//!   segments, HMP + LRP) at the same sizes;
//! * **Prescheduled** — Michaud & Seznec's scheme with a 32-entry issue
//!   buffer plus 8/24/56/120 lines of 12 (128, 320, 704, 1472 slots).

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::Bench;
use chainiq_bench::{
    ideal, prescheduled, sample_size, segmented, PredictorConfig, Sweep, TextTable,
};

const SIZES: [usize; 5] = [32, 64, 128, 256, 512];
const PRESCHED_LINES: [usize; 4] = [8, 24, 56, 120];

fn main() {
    let sample = sample_size();
    println!("Figure 3: IPC vs IQ size ({sample} committed instructions per run)\n");

    // The full grid — every benchmark's four curves — as one parallel
    // sweep, with each curve's submission indices recorded for rendering.
    let mut sweep = Sweep::new();
    let mut ideal_idx = Vec::new();
    let mut comb_idx = Vec::new(); // [bench][chain_variant][size]
    let mut pre_idx = Vec::new();
    for bench in Bench::ALL {
        ideal_idx
            .push(SIZES.map(|size| sweep.add(bench, ideal(size), PredictorConfig::Base, sample)));
        comb_idx.push([128usize, 64].map(|chains| {
            SIZES.map(|size| {
                sweep.add(bench, segmented(size, Some(chains)), PredictorConfig::Comb, sample)
            })
        }));
        pre_idx.push(
            PRESCHED_LINES
                .map(|lines| sweep.add(bench, prescheduled(lines), PredictorConfig::Base, sample)),
        );
    }
    let results = sweep.run();

    for (bi, bench) in Bench::ALL.iter().enumerate() {
        let mut t = TextTable::new(&["config", "32", "64", "128", "256", "512"]);

        let mut row = vec!["ideal".to_string()];
        for idx in ideal_idx[bi] {
            row.push(format!("{:.3}", results[idx].ipc()));
        }
        t.row(&row);

        for (vi, chains) in [128usize, 64].into_iter().enumerate() {
            let mut row = vec![format!("comb-{chains}ch")];
            for idx in comb_idx[bi][vi] {
                row.push(format!("{:.3}", results[idx].ipc()));
            }
            t.row(&row);
        }

        // Prescheduled data points sit at 128/320/704/1472 total slots;
        // print them in a parallel row labelled by slot count.
        let mut row = vec!["presched".to_string()];
        let mut labels = vec!["slots".to_string()];
        for (li, lines) in PRESCHED_LINES.into_iter().enumerate() {
            row.push(format!("{:.3}", results[pre_idx[bi][li]].ipc()));
            labels.push(format!("{}", 32 + 12 * lines));
        }
        row.push("-".to_string());
        labels.push("-".to_string());
        t.row(&labels);
        t.row(&row);

        println!("== {} ==", bench.name());
        println!("{}", t.render());
    }
}
