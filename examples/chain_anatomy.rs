//! Anatomy of a dependence chain: the paper's Figure 1, live.
//!
//! Drives a small segmented queue directly (no pipeline) with the
//! 9-instruction example of Figure 1, prints each instruction's delay
//! value at dispatch — matching the figure exactly — and then steps the
//! queue cycle by cycle, showing instructions promoting toward the issue
//! buffer and issuing as their chains resolve.
//!
//! ```text
//! cargo run --release --example chain_anatomy
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example may exit through a panic"
)]

use chainiq::core::{
    DispatchInfo, FuPool, InstTag, IssueQueue, SegmentedIq, SegmentedIqConfig, SrcOperand,
};
use chainiq::{ArchReg, OpClass};

fn dep(reg: ArchReg, producer: u64) -> SrcOperand {
    SrcOperand { reg, producer: Some(InstTag(producer)), known_ready_at: None }
}

fn main() {
    // Three segments (thresholds 2, 4, 6), as in Figure 1(b); the
    // figure's delay values assume pure dataflow estimates, so the
    // descent refinement is off.
    let mut iq = SegmentedIq::new(SegmentedIqConfig {
        num_segments: 3,
        segment_size: 16,
        promote_width: 8,
        max_chains: None,
        pushdown: false,
        bypass: false,
        two_chain_tracking: true,
        deadlock_recovery: true,
        predicted_load_latency: 4,
        countdown_includes_descent: false,
    });

    let r = ArchReg::int;
    let add = OpClass::IntAlu; // 1-cycle, like the figure's ADD
    let mul = OpClass::FpAdd; // 2-cycle, like the figure's MUL

    // The figure's code sequence. Operands marked `*` are available.
    let program: Vec<(&str, DispatchInfo)> = vec![
        ("i0: add *,*  -> r1", DispatchInfo::compute(InstTag(0), add, r(1), &[])),
        ("i1: mul *,*  -> r2", DispatchInfo::compute(InstTag(1), mul, r(2), &[])),
        ("i2: add r2,* -> r4", DispatchInfo::compute(InstTag(2), add, r(4), &[dep(r(2), 1)])),
        ("i3: mul r4,* -> r6", DispatchInfo::compute(InstTag(3), mul, r(6), &[dep(r(4), 2)])),
        ("i4: mul r6,* -> r8", DispatchInfo::compute(InstTag(4), mul, r(8), &[dep(r(6), 3)])),
        ("i5: add r1,* -> r3", DispatchInfo::compute(InstTag(5), add, r(3), &[dep(r(1), 0)])),
        ("i6: add r3,* -> r5", DispatchInfo::compute(InstTag(6), add, r(5), &[dep(r(3), 5)])),
        ("i7: add r5,* -> r7", DispatchInfo::compute(InstTag(7), add, r(7), &[dep(r(5), 6)])),
        (
            "i8: add r6,r7 -> r9",
            DispatchInfo::compute(InstTag(8), add, r(9), &[dep(r(6), 3), dep(r(7), 7)]),
        ),
    ];

    println!("Figure 1(a): delay values assigned at dispatch\n");
    println!("{:24} delay", "instruction");
    for (text, info) in &program {
        let tag = info.tag;
        iq.dispatch(0, *info).expect("queue has space");
        println!("{:24} {}", text, iq.delay_of(tag).expect("just dispatched"));
    }

    println!("\nFigure 1(b): instructions promote toward segment 0 as delays fall\n");
    let mut fus = FuPool::table1();
    let names: Vec<&str> = program.iter().map(|(t, _)| *t).collect();
    for now in 1..=12u64 {
        iq.tick(now, false);
        let issued = iq.select_issue(now, &mut fus);
        for sel in &issued {
            // Announce fixed-latency completions so dependents wake.
            iq.announce_ready(sel.tag, now + u64::from(sel.op.exec_latency()));
            iq.on_writeback(sel.tag);
        }
        fus.next_cycle();

        let mut placement = vec![String::new(); 3];
        for (i, _) in names.iter().enumerate() {
            if let Some(seg) = iq.segment_of(InstTag(i as u64)) {
                let d = iq.delay_of(InstTag(i as u64)).unwrap();
                placement[seg].push_str(&format!("i{i}(d{d}) "));
            }
        }
        let issued_str: Vec<String> = issued.iter().map(|s| format!("i{}", s.tag.0)).collect();
        println!(
            "cycle {now:>2}  seg2 [{}]  seg1 [{}]  seg0 [{}]  issued: {}",
            placement[2].trim_end(),
            placement[1].trim_end(),
            placement[0].trim_end(),
            if issued_str.is_empty() { "-".to_string() } else { issued_str.join(" ") },
        );
        if iq.is_empty() {
            println!("\nqueue drained after {now} cycles.");
            break;
        }
    }
}
