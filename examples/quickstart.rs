//! Quickstart: simulate one benchmark on three instruction-queue designs
//! and compare them.
//!
//! ```text
//! cargo run --release --example quickstart [bench] [insts]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example may exit through a panic"
)]

use chainiq::{run_one, Bench, IqKind, PrescheduleConfig, SegmentedIqConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args
        .next()
        .map(|s| Bench::from_name(&s).unwrap_or_else(|bad| panic!("unknown benchmark `{bad}`")))
        .unwrap_or(Bench::Swim);
    let insts: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(100_000);

    println!("benchmark: {bench}, {insts} committed instructions per run\n");

    let configs: Vec<(&str, IqKind, bool, bool)> = vec![
        ("ideal 32-entry IQ (realizable baseline)", IqKind::Ideal(32), false, false),
        ("ideal 512-entry IQ (unrealizable upper bound)", IqKind::Ideal(512), false, false),
        (
            "segmented 512-entry IQ, 128 chains, HMP+LRP",
            IqKind::Segmented(SegmentedIqConfig::paper(512, Some(128))),
            true,
            true,
        ),
        (
            "prescheduled IQ, 120x12 array + 32 buffer",
            IqKind::Prescheduled(PrescheduleConfig::paper(120)),
            false,
            false,
        ),
    ];

    let mut results = Vec::new();
    for (label, kind, hmp, lrp) in configs {
        let r = run_one(bench.profile(), kind, hmp, lrp, insts, 42);
        println!(
            "{label:52} IPC {:.3}   (bp {:.1}%, L1d miss {:.1}%)",
            r.ipc(),
            100.0 * r.stats.branch_accuracy(),
            100.0 * r.stats.l1d_miss_ratio(),
        );
        results.push((label, r));
    }

    let small = results[0].1.ipc();
    let ideal = results[1].1.ipc();
    let seg = results[2].1.ipc();
    println!();
    println!(
        "the 512-entry window buys {:+.0}% over a 32-entry conventional queue;",
        100.0 * (ideal / small - 1.0)
    );
    println!(
        "the segmented dependence-chain queue keeps {:.0}% of that ideal-queue",
        100.0 * seg / ideal
    );
    println!("performance while clocking like a 32-entry queue (the paper's thesis).");

    if let Some(segstats) = &results[2].1.segmented {
        println!(
            "\nchain machinery: {:.0} chains live on average (peak {}), {} promotions,",
            segstats.chains.mean_live(),
            segstats.chains.peak_live,
            segstats.promotions
        );
        println!(
            "{} pushdowns, {} deadlock-recovery cycles ({:.3}% of cycles)",
            segstats.pushdowns,
            segstats.deadlock_cycles,
            100.0 * segstats.deadlock_cycle_frac()
        );
    }
}
