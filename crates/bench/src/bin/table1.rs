//! Table 1 — processor parameters.
//!
//! Prints the simulated machine configuration and asserts that the
//! defaults match the paper's Table 1 exactly.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use chainiq::SimConfig;

fn main() {
    let c = SimConfig::default();
    println!("Table 1: processor parameters (chainiq defaults)\n");
    println!(
        "Front-end pipeline depth      {} cycles fetch-to-dispatch (10 fetch-to-decode + 5 decode-to-dispatch)",
        c.front_end_depth
    );
    println!(
        "Fetch bandwidth               up to {} instructions/cycle; max {} branches/cycle",
        c.fetch_width, c.max_branches_per_fetch
    );
    println!(
        "Branch predictor              hybrid local/global (21264-style): global {}-bit history / {}-entry PHT;",
        c.branch.global_history_bits,
        1usize << c.branch.global_history_bits
    );
    println!(
        "                              local {} x {}-bit histories / {}-entry PHT; choice {}-entry PHT",
        c.branch.local_histories,
        c.branch.local_history_bits,
        1usize << c.branch.local_history_bits,
        1usize << c.branch.global_history_bits
    );
    println!(
        "Branch target buffer          {} entries, {}-way set associative",
        c.branch.btb_entries, c.branch.btb_assoc
    );
    println!(
        "Dispatch/issue/commit         up to {}/{}/{} instructions per cycle",
        c.dispatch_width, c.issue_width, c.commit_width
    );
    println!(
        "Function units                {} each: int ALU, int mul, FP add/sub, FP mul/div/sqrt; {} rd + {} wr cache ports",
        c.fus_per_kind, c.read_ports, c.write_ports
    );
    println!("Latencies                     int: mul 3, div 20, others 1; FP: add 2, mul 4, div 12, sqrt 24");
    println!(
        "L1 split I/D caches           {} KB, {}-way, {}-byte lines; I: {}-cycle, D: {}-cycle, {} MSHRs",
        c.mem.l1d.size_bytes >> 10,
        c.mem.l1d.assoc,
        c.mem.l1d.line_bytes,
        c.mem.l1i.latency,
        c.mem.l1d.latency,
        c.mem.l1d.mshrs
    );
    println!(
        "L2 unified cache              {} MB, {}-way, {}-byte lines, {}-cycle latency, {} MSHRs, {} B/cycle to L1",
        c.mem.l2.size_bytes >> 20,
        c.mem.l2.assoc,
        c.mem.l2.line_bytes,
        c.mem.l2.latency,
        c.mem.l2.mshrs,
        c.mem.l1_l2_bytes_per_cycle
    );
    println!(
        "Main memory                   {}-cycle latency, {} bytes/cpu-cycle bandwidth",
        c.mem.memory_latency, c.mem.memory_bytes_per_cycle
    );
    println!("ROB                           3x the IQ size (applied per experiment)");
    println!("Extra dispatch cycle          charged to segmented and prescheduling IQs (§5)");
}
