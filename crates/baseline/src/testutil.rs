//! Shared differential-test harness for the baseline queues, plus the
//! restore-equals-continuous properties proving each queue's snapshot
//! captures every observable bit of scheduling state.

use chainiq_core::{DispatchInfo, DispatchStall, FuPool, InstTag, IqStats, IssueQueue, SrcOperand};
use chainiq_devtest::Gen;
use chainiq_isa::{ArchReg, OpClass};

#[derive(Debug, Clone)]
pub(crate) struct RandInst {
    op_pick: u8,
    dest: u8,
    src1: Option<u8>,
    src2: Option<u8>,
}

pub(crate) fn rand_inst(g: &mut Gen) -> RandInst {
    RandInst {
        op_pick: g.u8(0..6),
        dest: g.u8(0..24),
        src1: g.option(|g| g.u8(0..24)),
        src2: g.option(|g| g.u8(0..24)),
    }
}

fn op_of(pick: u8) -> OpClass {
    match pick {
        0 | 1 => OpClass::IntAlu,
        2 => OpClass::IntMul,
        3 => OpClass::FpAdd,
        4 => OpClass::FpMul,
        _ => OpClass::Load,
    }
}

/// Drives one queue through a fully deterministic script: random
/// dependence graph, every third load misses (fill + writeback 12 cycles
/// later). When `ckpt_at` is set, the queue is serialized at that cycle
/// and the run continues in a freshly constructed replacement restored
/// from the bytes — everything observable afterwards must be unchanged.
pub(crate) fn drive<Q>(
    iq: &mut Q,
    program: &[RandInst],
    limit: u64,
    ckpt_at: Option<u64>,
    fresh: impl Fn() -> Q,
) -> (Vec<(u64, InstTag)>, IqStats)
where
    Q: IssueQueue + chainiq_ckpt::Snapshot,
{
    let mut fus = FuPool::table1();
    let mut last_writer: [Option<InstTag>; 32] = [None; 32];
    let mut completed: Vec<bool> = vec![false; program.len()];
    let mut fills: Vec<(u64, InstTag)> = Vec::new();
    let mut next = 0usize;
    let mut schedule = Vec::new();

    for now in 1..=limit {
        if ckpt_at == Some(now) {
            let mut w = chainiq_ckpt::Writer::new();
            chainiq_ckpt::save_section(&mut w, iq);
            let bytes = w.into_bytes();
            let mut restored = fresh();
            let mut r = chainiq_ckpt::Reader::new(&bytes);
            chainiq_ckpt::restore_section(&mut r, &mut restored).expect("snapshot must restore");
            *iq = restored;
        }
        let mut k = 0;
        while k < fills.len() {
            if fills[k].0 == now {
                let (_, tag) = fills.swap_remove(k);
                iq.on_load_fill(tag);
                iq.announce_ready(tag, now);
                iq.on_writeback(tag);
                completed[tag.0 as usize] = true;
            } else {
                k += 1;
            }
        }
        iq.tick(now, schedule.len() == program.len());
        for sel in iq.select_issue(now, &mut fus) {
            if sel.op == OpClass::Load && sel.tag.0 % 3 == 0 {
                iq.on_load_miss(sel.tag);
                iq.announce_ready(sel.tag, now + 12);
                fills.push((now + 12, sel.tag));
            } else {
                iq.announce_ready(sel.tag, now + u64::from(sel.op.exec_latency()));
                iq.on_writeback(sel.tag);
                completed[sel.tag.0 as usize] = true;
            }
            schedule.push((now, sel.tag));
        }
        fus.next_cycle();
        for _ in 0..4 {
            if next >= program.len() {
                break;
            }
            let r = &program[next];
            let tag = InstTag(next as u64);
            let src = |s: Option<u8>| {
                s.map(|reg| SrcOperand {
                    reg: ArchReg::int(reg),
                    producer: last_writer[reg as usize].filter(|p| !completed[p.0 as usize]),
                    known_ready_at: if last_writer[reg as usize]
                        .map(|p| completed[p.0 as usize])
                        .unwrap_or(true)
                    {
                        Some(0)
                    } else {
                        None
                    },
                })
            };
            let info = DispatchInfo {
                tag,
                op: op_of(r.op_pick),
                dest: Some(ArchReg::int(r.dest)),
                srcs: [src(r.src1), src(r.src2)],
                predicted_hit: true,
                lrp_pick: None,
                thread: 0,
            };
            match iq.dispatch(now, info) {
                Ok(()) => {
                    last_writer[r.dest as usize] = Some(tag);
                    next += 1;
                }
                Err(DispatchStall::QueueFull | DispatchStall::NoChainWire) => break,
            }
        }
    }
    (schedule, iq.stats())
}

mod props {
    use super::*;
    use crate::{DistanceConfig, DistanceIq, IdealIq, PrescheduleConfig, PrescheduledIq};
    use chainiq_devtest::{prop_assert_eq, prop_check};

    prop_check! {
        /// Snapshot-at-N then restore into a freshly constructed ideal
        /// queue must be observationally identical to running straight
        /// through.
        fn ideal_restore_equals_continuous(g, cases = 25) {
            let program = g.vec(1..80, rand_inst);
            let capacity = [8, 16, 64, 512][g.usize(0..4)];
            let limit = 800;
            let ckpt_at = g.usize(1..800) as u64;
            let mut cont = IdealIq::new(capacity);
            let mut snap = IdealIq::new(capacity);
            let (sched_c, stats_c) =
                drive(&mut cont, &program, limit, None, || IdealIq::new(capacity));
            let (sched_s, stats_s) =
                drive(&mut snap, &program, limit, Some(ckpt_at), || IdealIq::new(capacity));
            prop_assert_eq!(sched_c, sched_s, "issue schedules diverge after restore");
            prop_assert_eq!(stats_c, stats_s, "final statistics diverge after restore");
            prop_assert_eq!(cont.occupancy(), snap.occupancy());
        }

        /// The same property for the distance queue, whose wait buffer
        /// must survive the round trip and whose row counters restore
        /// rebuilds from the entries.
        fn distance_restore_equals_continuous(g, cases = 25) {
            let program = g.vec(1..80, rand_inst);
            let cfg = DistanceConfig {
                wait_buffer_size: g.usize(1..40),
                num_lines: g.usize(1..12),
                line_width: [2, 4, 12][g.usize(0..3)],
                predicted_load_latency: 4,
            };
            let limit = 800;
            let ckpt_at = g.usize(1..800) as u64;
            let mut cont = DistanceIq::new(cfg);
            let mut snap = DistanceIq::new(cfg);
            let (sched_c, stats_c) = drive(&mut cont, &program, limit, None, || DistanceIq::new(cfg));
            let (sched_s, stats_s) =
                drive(&mut snap, &program, limit, Some(ckpt_at), || DistanceIq::new(cfg));
            prop_assert_eq!(sched_c, sched_s, "issue schedules diverge after restore");
            prop_assert_eq!(stats_c, stats_s, "final statistics diverge after restore");
            prop_assert_eq!(cont.wait_buffer_stalls(), snap.wait_buffer_stalls());
            prop_assert_eq!(cont.occupancy(), snap.occupancy());
        }

        /// The same property for the prescheduling queue, covering its
        /// array/buffer indexes, wakeup subscriptions and recirculation
        /// counters.
        fn preschedule_restore_equals_continuous(g, cases = 25) {
            let program = g.vec(1..80, rand_inst);
            let cfg = PrescheduleConfig {
                issue_buffer_size: g.usize(1..33),
                num_lines: g.usize(1..12),
                line_width: [2, 4, 12][g.usize(0..3)],
                predicted_load_latency: 4,
            };
            let limit = 800;
            let ckpt_at = g.usize(1..800) as u64;
            let mut cont = PrescheduledIq::new(cfg);
            let mut snap = PrescheduledIq::new(cfg);
            let (sched_c, stats_c) =
                drive(&mut cont, &program, limit, None, || PrescheduledIq::new(cfg));
            let (sched_s, stats_s) =
                drive(&mut snap, &program, limit, Some(ckpt_at), || PrescheduledIq::new(cfg));
            prop_assert_eq!(sched_c, sched_s, "issue schedules diverge after restore");
            prop_assert_eq!(stats_c, stats_s, "final statistics diverge after restore");
            prop_assert_eq!(cont.shift_stalls(), snap.shift_stalls());
            prop_assert_eq!(cont.recirculations(), snap.recirculations());
            prop_assert_eq!(cont.occupancy(), snap.occupancy());
        }
    }
}
