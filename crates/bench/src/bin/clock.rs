//! The paper's combined claim, quantified: IPC (from simulation) times
//! achievable clock (from the Palacharla-style circuit model) — turning
//! Figure 3's equal-clock IPC curves into a throughput comparison.
//!
//! §6.3: "since the cycle time of our segmented IQ design is determined
//! by the complexity of the individual 32-entry segments, we expect
//! cycle times to be fairly constant across the range of sizes. In
//! contrast, the cycle time of the ideal queue would be expected to grow
//! quadratically with its size."

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::{Bench, QueueGeometry, Technology};
use chainiq_bench::{ideal, sample_size, segmented, PredictorConfig, Sweep, TextTable};

const SIZES: [usize; 5] = [32, 64, 128, 256, 512];

fn main() {
    let sample = sample_size();
    let tech = Technology::default();
    println!("Clock-adjusted throughput (IPC x scheduler-limited clock)");
    println!("({sample} committed instructions per run; synthetic technology — ");
    println!(" relative numbers meaningful, absolute GHz not)\n");

    println!("scheduler-limited clocks:");
    for size in SIZES {
        println!(
            "  monolithic {size:>3}-entry: {:5.2} GHz    segmented {size:>3} (32-entry segments): {:5.2} GHz",
            tech.clock_ghz(QueueGeometry::monolithic(size, 8)),
            tech.clock_ghz(QueueGeometry::segmented(size, 32, 8)),
        );
    }
    println!();

    let benches =
        [Bench::Swim, Bench::Mgrid, Bench::Equake, Bench::Applu, Bench::Vortex, Bench::Gcc];

    // Three runs per benchmark (mono-32, mono-512, seg-512), row-major.
    let mut sweep = Sweep::new();
    for bench in benches {
        sweep.add(bench, ideal(32), PredictorConfig::Base, sample);
        sweep.add(bench, ideal(512), PredictorConfig::Base, sample);
        sweep.add(bench, segmented(512, Some(128)), PredictorConfig::Comb, sample);
    }
    let results = sweep.run();

    let mut t = TextTable::new(&[
        "bench",
        "mono-32 BIPS",
        "mono-512 BIPS",
        "seg-512 BIPS",
        "seg-512/best-mono",
    ]);
    let mut wins = 0usize;
    for (bi, bench) in benches.iter().enumerate() {
        let mono32 = &results[bi * 3];
        let mono512 = &results[bi * 3 + 1];
        let seg512 = &results[bi * 3 + 2];

        let b32 = tech.bips(QueueGeometry::monolithic(32, 8), mono32.ipc());
        let b512 = tech.bips(QueueGeometry::monolithic(512, 8), mono512.ipc());
        let bseg = tech.bips(QueueGeometry::segmented(512, 32, 8), seg512.ipc());
        let best_mono = b32.max(b512);
        if bseg > best_mono {
            wins += 1;
        }
        t.row(&[
            bench.name().to_string(),
            format!("{b32:.2}"),
            format!("{b512:.2}"),
            format!("{bseg:.2}"),
            format!("{:.2}x", bseg / best_mono),
        ]);
    }
    println!("{}", t.render());
    println!(
        "the segmented design beats the best monolithic option on {wins}/6 benchmarks:\n\
         a big window *and* a small queue's clock — the paper's thesis in one number."
    );
}
