//! Build a custom synthetic workload and study an IQ design decision.
//!
//! Composes a profile from the kernel building blocks (a sparse gather
//! against a serial pointer chase) and sweeps the number of chain wires
//! to find the knee — the experiment you would run before committing a
//! wire budget in a real design.
//!
//! ```text
//! cargo run --release --example custom_workload [insts]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example may exit through a panic"
)]

use chainiq::{run_one, IqKind, KernelSpec, Phase, Profile, SegmentedIqConfig};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn my_workload() -> Profile {
    Profile::new(
        "sparse-solver",
        vec![
            // A sparse matrix-vector kernel: index loads hit, gathers
            // miss a 16 MB table.
            Phase {
                kernel: KernelSpec::Gather { table_bytes: 16 * MB, index_bytes: KB, fp_ops: 4 },
                burst_iterations: 256,
                weight: 3,
            },
            // A linked-list sweep: serially dependent misses.
            Phase {
                kernel: KernelSpec::PointerChase {
                    nodes: 32 * KB,
                    node_bytes: 64,
                    work_per_hop: 3,
                },
                burst_iterations: 64,
                weight: 1,
            },
            // A hot residual update: resident stencil.
            Phase {
                kernel: KernelSpec::Stencil { taps: 3, working_set: 2 * KB, fp_ops: 3 },
                burst_iterations: 128,
                weight: 2,
            },
        ],
    )
}

fn main() {
    let insts: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(60_000);

    println!("custom workload: sparse-solver ({insts} committed instructions per run)\n");
    println!("512-entry segmented IQ, HMP+LRP, sweeping the chain-wire budget:\n");
    println!("{:>8}  {:>7}  {:>12}  {:>14}", "chains", "IPC", "wire stalls", "mean chains");

    let mut best_unlimited = 0.0f64;
    for chains in [None, Some(256), Some(128), Some(64), Some(32), Some(16)] {
        let kind = IqKind::Segmented(SegmentedIqConfig::paper(512, chains));
        let r = run_one(my_workload(), kind, true, true, insts, 99);
        let seg = r.segmented.as_ref().expect("segmented run");
        let label = chains.map(|c| c.to_string()).unwrap_or_else(|| "unlim".into());
        if chains.is_none() {
            best_unlimited = r.ipc();
        }
        println!(
            "{label:>8}  {:>7.3}  {:>12}  {:>14.0}",
            r.ipc(),
            seg.chains.wire_stalls,
            seg.chains.mean_live()
        );
    }
    println!(
        "\nread the knee: the smallest wire budget whose IPC still tracks the\n\
         unlimited configuration ({best_unlimited:.3}) is the one to build."
    );
}
