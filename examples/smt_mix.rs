//! Run a mix of workloads as SMT threads over one shared segmented
//! queue — the §7 study, interactively.
//!
//! ```text
//! cargo run --release --example smt_mix [bench[,bench...]] [insts]
//! e.g.  cargo run --release --example smt_mix swim,gcc 60000
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example may exit through a panic"
)]

use chainiq::core::{SegmentedIq, SegmentedIqConfig};
use chainiq::{AddressSpace, Bench, IdealIq, SimConfig, SmtPipeline, SyntheticWorkload};

// Keep thread contexts from aliasing onto the same predictor slots.
const STRIDE: u64 = (1 << 40) | 0x94_530;

fn threads(mix: &[Bench], seed: u64) -> Vec<AddressSpace<SyntheticWorkload>> {
    mix.iter()
        .enumerate()
        .map(|(t, b)| {
            AddressSpace::new(
                SyntheticWorkload::from_profile(b.profile(), seed + t as u64),
                t as u64 * STRIDE,
                t as u64 * STRIDE,
            )
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mix: Vec<Bench> = args
        .next()
        .unwrap_or_else(|| "swim,gcc".to_string())
        .split(',')
        .map(|s| {
            Bench::from_name(s.trim()).unwrap_or_else(|bad| panic!("unknown benchmark `{bad}`"))
        })
        .collect();
    let insts: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(60_000);
    let names: Vec<&str> = mix.iter().map(|b| b.name()).collect();

    println!("SMT mix: {} ({insts} total committed instructions)\n", names.join(" + "));

    // Ideal shared queue.
    let cfg = SimConfig::default().rob_for_iq(512);
    let mut ideal = SmtPipeline::new(cfg, IdealIq::new(512), threads(&mix, 7));
    let si = ideal.run(insts);

    // Segmented shared queue, comb predictors, 128 chains.
    let mut cfg = SimConfig::default().rob_for_iq(512).with_extra_dispatch_cycle();
    cfg.use_hmp = true;
    cfg.use_lrp = true;
    let mut qc = SegmentedIqConfig::paper(512, Some(128));
    qc.two_chain_tracking = false;
    let mut seg = SmtPipeline::new(cfg, SegmentedIq::new(qc), threads(&mix, 7));
    let ss = seg.run(insts);

    println!("{:24} {:>10} {:>12}", "", "ideal-512", "segmented-512");
    println!("{:24} {:>10.3} {:>12.3}", "aggregate IPC", si.ipc(), ss.ipc());
    for (t, name) in names.iter().enumerate() {
        println!(
            "{:24} {:>10} {:>12}",
            format!("thread {t} ({name}) commits"),
            ideal.committed_of(t),
            seg.committed_of(t),
        );
    }
    let chains = seg.iq().full_stats().chains;
    println!(
        "\nsegmented queue: {:.0} chains live on average (peak {}), retention {:.0}%",
        chains.mean_live(),
        chains.peak_live,
        100.0 * ss.ipc() / si.ipc(),
    );
    println!("chains from independent threads schedule around each other (§7).");
}
