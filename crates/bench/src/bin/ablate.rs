//! Ablation study: the IPC contribution of each §4 enhancement and of
//! the promotion-policy details DESIGN.md §4 calls out.
//!
//! For each benchmark, runs the full segmented configuration and then
//! each variant with exactly one mechanism disabled, printing the IPC
//! delta. (The predictors' ablation — base/hmp/lrp/comb — is Figure 2's
//! job; this binary covers the *structural* choices.)

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::{Bench, IqKind, SegmentedIqConfig};
use chainiq_bench::{sample_size, PredictorConfig, Sweep, TextTable};

fn variants() -> Vec<(&'static str, SegmentedIqConfig)> {
    let base = SegmentedIqConfig::paper(512, Some(128));
    let mut no_pushdown = base;
    no_pushdown.pushdown = false;
    let mut no_bypass = base;
    no_bypass.bypass = false;
    let mut no_descent = base;
    no_descent.countdown_includes_descent = false;
    let mut narrow_promote = base;
    narrow_promote.promote_width = 4;
    let mut small_segments = base;
    small_segments.num_segments = 32;
    small_segments.segment_size = 16;
    vec![
        ("full", base),
        ("-pushdown (§4.1)", no_pushdown),
        ("-bypass (§4.2)", no_bypass),
        ("-descent countdown", no_descent),
        ("promote width 4", narrow_promote),
        ("16-entry segments", small_segments),
    ]
}

fn main() {
    let sample = sample_size();
    println!("Ablations: 512-entry segmented IQ, 128 chains, HMP+LRP");
    println!("({sample} committed instructions per run; cells are IPC, deltas vs full)\n");

    let benches = [Bench::Swim, Bench::Mgrid, Bench::Equake, Bench::Gcc, Bench::Vortex];
    let variants = variants();

    // Row-major bench × variant grid, one parallel sweep. Comb = both
    // predictors on, matching the old `run_one(.., true, true, ..)`.
    let mut sweep = Sweep::new();
    for bench in benches {
        for (_, cfg) in &variants {
            sweep.add(bench, IqKind::Segmented(*cfg), PredictorConfig::Comb, sample);
        }
    }
    let results = sweep.run();

    let mut header = vec!["bench"];
    header.extend(variants.iter().map(|(n, _)| *n));
    let mut t = TextTable::new(&header);

    for (bi, bench) in benches.iter().enumerate() {
        let mut cells = vec![bench.name().to_string()];
        let full_ipc = results[bi * variants.len()].ipc();
        for vi in 0..variants.len() {
            let ipc = results[bi * variants.len() + vi].ipc();
            if vi == 0 {
                cells.push(format!("{full_ipc:.3}"));
            } else {
                cells.push(format!("{:+.1}%", 100.0 * (ipc / full_ipc - 1.0)));
            }
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("Reading: a strongly negative cell means the paper's mechanism earns its");
    println!("hardware; bypass matters most for low-occupancy (branchy) benchmarks,");
    println!("pushdown for deep dependence chains that clog the top segment.");
}
