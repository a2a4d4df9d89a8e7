//! §6.3's structural-similarity claim, tested: "We believe that the
//! performance of the prescheduling and distance schemes would be
//! similar due to their structural similarity."
//!
//! Runs both quasi-static rivals at matched total sizes against the
//! segmented queue and the ideal queue.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::{Bench, DistanceConfig, IqKind, PrescheduleConfig};
use chainiq_bench::{ideal, sample_size, segmented, PredictorConfig, Sweep, TextTable};

fn main() {
    let sample = sample_size();
    println!("Quasi-static rivals at 320 total slots vs dependence chains");
    println!("({sample} committed instructions per run; IPC)\n");

    // Five configurations per benchmark, one parallel sweep; column
    // order below matches submission order within each bench.
    let configs: [(IqKind, PredictorConfig); 5] = [
        (ideal(512), PredictorConfig::Base),
        (IqKind::Prescheduled(PrescheduleConfig::paper(24)), PredictorConfig::Base),
        (IqKind::Distance(DistanceConfig::paper_sized(24)), PredictorConfig::Base),
        // Nearest 32-multiple to 320.
        (segmented(320, Some(128)), PredictorConfig::Comb),
        (segmented(512, Some(128)), PredictorConfig::Comb),
    ];
    let mut sweep = Sweep::new();
    for bench in Bench::ALL {
        for (iq, pred) in configs {
            sweep.add(bench, iq, pred, sample);
        }
    }
    let results = sweep.run();

    let mut t = TextTable::new(&[
        "bench",
        "ideal-512",
        "presched-320",
        "distance-320",
        "segmented-320*",
        "seg-512-128ch",
    ]);
    for (bi, bench) in Bench::ALL.iter().enumerate() {
        let mut cells = vec![bench.name().to_string()];
        for ci in 0..configs.len() {
            cells.push(format!("{:.3}", results[bi * configs.len() + ci].ipc()));
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("* 10 segments x 32 entries; the paper's Figure 3 grid has no 320-entry");
    println!("  point, included here for a size-matched comparison.");
}
