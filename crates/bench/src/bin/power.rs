//! §7's power question, quantified: dynamic energy per instruction for
//! the segmented queue vs the monolithic queue, with the breakdown that
//! shows where each design spends.
//!
//! "Copying an instruction from segment to segment consumes more dynamic
//! power than keeping the instruction in a single storage location ...
//! In any case, the segmented structure lends itself naturally to
//! dynamic resizing by gating clocks and/or power on a segment
//! granularity."

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::{Bench, EnergyModel};
use chainiq_bench::{ideal, sample_size, segmented, PredictorConfig, Sweep, TextTable};

fn main() {
    let sample = sample_size();
    let model = EnergyModel::default();
    println!("Dynamic energy per committed instruction (synthetic pJ; ratios meaningful)");
    println!("512-entry queues, {sample} committed instructions per run\n");

    let benches = [Bench::Swim, Bench::Mgrid, Bench::Equake, Bench::Gcc, Bench::Vortex];

    // Two runs per benchmark (monolithic, segmented), row-major.
    let mut sweep = Sweep::new();
    for bench in benches {
        sweep.add(bench, ideal(512), PredictorConfig::Base, sample);
        sweep.add(bench, segmented(512, Some(128)), PredictorConfig::Comb, sample);
    }
    let results = sweep.run();

    let mut t = TextTable::new(&[
        "bench",
        "mono pJ/inst",
        "seg pJ/inst",
        "ratio",
        "seg copies %",
        "mono CAM %",
        "gateable",
    ]);
    for (bi, bench) in benches.iter().enumerate() {
        let mono = &results[bi * 2];
        let seg = &results[bi * 2 + 1];
        let segstats = seg.segmented.as_ref().expect("segmented stats");

        let e_mono = model.monolithic_energy_from_stats(512, &mono.stats.iq);
        let e_seg = model.segmented_energy(segstats);
        let mono_pi = e_mono.per_instruction_pj(mono.stats.committed);
        let seg_pi = e_seg.per_instruction_pj(seg.stats.committed);

        t.row(&[
            bench.name().to_string(),
            format!("{mono_pi:.1}"),
            format!("{seg_pi:.1}"),
            format!("{:.2}x", seg_pi / mono_pi),
            format!("{:.0}%", 100.0 * e_seg.copies_pj / e_seg.total_pj()),
            format!("{:.0}%", 100.0 * e_mono.cam_pj / e_mono.total_pj()),
            format!("{:.0}%", 100.0 * segstats.gateable_segment_frac()),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: the segmented design pays for copies (the §7 concern) but");
    println!("escapes the monolithic queue's full-occupancy CAM search; 'gateable'");
    println!("is the fraction of segment-cycles that sat empty — the clock-gating");
    println!("opportunity §7 points out.");
}
