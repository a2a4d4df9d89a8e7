//! The fetch/decode front end.
//!
//! Models Table 1's front end: 8-wide fetch with at most 3 branches per
//! cycle, a 15-cycle fetch-to-dispatch pipeline, the L1 instruction
//! cache, and the hybrid branch predictor. The stream is trace-style:
//! on a misprediction, fetch stalls until the branch resolves, charging
//! the full in-flight latency plus the pipeline refill — the same penalty
//! an execution-driven model pays, minus wrong-path cache pollution
//! (see `DESIGN.md` §2).

use std::collections::VecDeque;

use chainiq_isa::{Cycle, Inst};
use chainiq_mem::{AccessKind, Hierarchy};
use chainiq_predict::HybridBranchPredictor;

use crate::config::SimConfig;

/// An instruction travelling toward dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchedInst {
    pub inst: Inst,
    /// Cycle at which it reaches the dispatch stage.
    pub dispatch_ready_at: Cycle,
    /// The branch predictor got this (branch) instruction wrong; fetch is
    /// stalled behind it until it resolves.
    pub mispredicted: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FrontendStats {
    pub fetched: u64,
    /// Cycles fetch was stalled behind an unresolved misprediction.
    pub mispredict_stall_cycles: u64,
    /// Cycles fetch waited on an instruction-cache fill.
    pub icache_stall_cycles: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct Frontend {
    pipe: VecDeque<FetchedInst>,
    /// Instruction pulled from the workload but not yet accepted into the
    /// pipe (stopped by a fetch limit).
    pending: Option<Inst>,
    /// Fetch is stalled behind a mispredicted branch.
    stalled: bool,
    /// Earliest cycle fetch may run (icache fill / redirect).
    resume_at: Cycle,
    last_fetch_line: Option<u64>,
    stats: FrontendStats,
}

impl Frontend {
    pub(crate) fn new() -> Self {
        Frontend {
            pipe: VecDeque::new(),
            pending: None,
            stalled: false,
            resume_at: 0,
            last_fetch_line: None,
            stats: FrontendStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> FrontendStats {
        self.stats
    }

    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.pipe.len()
    }

    /// A mispredicted branch resolved; fetch restarts at `at`.
    pub(crate) fn resume(&mut self, at: Cycle) {
        self.stalled = false;
        self.resume_at = self.resume_at.max(at);
    }

    /// Whether fetch at `now` does nothing but count a stall cycle:
    /// stalled behind a mispredicted branch or waiting on an
    /// instruction-cache fill.
    pub(crate) fn stalled_at(&self, now: Cycle) -> bool {
        self.stalled || now < self.resume_at
    }

    /// The first cycle after `now` at which fetch may do more than count a
    /// stall. Behind a mispredicted branch that is never on its own: only
    /// the branch's issue ends the stall.
    pub(crate) fn next_fetch(&self, now: Cycle) -> Cycle {
        if self.stalled {
            Cycle::MAX
        } else {
            self.resume_at.max(now + 1)
        }
    }

    /// Counts `k` more stalled fetch cycles, of whichever kind fetch is
    /// stalled on.
    pub(crate) fn count_stalls(&mut self, k: u64) {
        if self.stalled {
            self.stats.mispredict_stall_cycles += k;
        } else {
            self.stats.icache_stall_cycles += k;
        }
    }

    /// The cycle the oldest in-flight instruction reaches dispatch.
    pub(crate) fn next_dispatchable(&self) -> Option<Cycle> {
        self.pipe.front().map(|f| f.dispatch_ready_at)
    }

    /// Pops the next instruction that has reached dispatch, if any.
    pub(crate) fn take_dispatchable(&mut self, now: Cycle) -> Option<FetchedInst> {
        match self.pipe.front() {
            Some(f) if f.dispatch_ready_at <= now => self.pipe.pop_front(),
            _ => None,
        }
    }

    /// Puts an instruction back at the head (dispatch stalled on it).
    pub(crate) fn undo_take(&mut self, f: FetchedInst) {
        self.pipe.push_front(f);
    }

    /// Fetches up to `fetch_width` instructions this cycle.
    pub(crate) fn fetch(
        &mut self,
        now: Cycle,
        config: &SimConfig,
        workload: &mut impl Iterator<Item = Inst>,
        bp: &mut HybridBranchPredictor,
        mem: &mut Hierarchy,
    ) {
        if self.stalled {
            self.stats.mispredict_stall_cycles += 1;
            return;
        }
        if now < self.resume_at {
            self.stats.icache_stall_cycles += 1;
            return;
        }
        let mut fetched = 0usize;
        let mut branches = 0usize;
        while fetched < config.fetch_width {
            let Some(inst) = self.pending.take().or_else(|| workload.next()) else {
                break; // workload exhausted
            };
            // Instruction cache: one access per new line.
            let line = inst.pc >> 6;
            if self.last_fetch_line != Some(line) {
                match mem.access(now, inst.pc, AccessKind::Ifetch) {
                    Ok(out) => {
                        self.last_fetch_line = Some(line);
                        if out.completes_at > now + 1 {
                            // Icache miss: hold this instruction and stall
                            // until the fill lands.
                            self.resume_at = out.completes_at;
                            self.pending = Some(inst);
                            break;
                        }
                    }
                    Err(_) => {
                        self.pending = Some(inst);
                        break; // MSHRs busy; retry next cycle
                    }
                }
            }
            let mut mispredicted = false;
            let mut predicted_taken = false;
            if let Some(b) = inst.branch {
                if branches >= config.max_branches_per_fetch {
                    self.pending = Some(inst);
                    break;
                }
                branches += 1;
                let pred = if b.unconditional {
                    bp.predict_and_train_unconditional(inst.pc, b.target)
                } else {
                    bp.predict_and_train(inst.pc, b.taken, b.target)
                };
                mispredicted = !pred.is_correct(b.taken, b.target);
                predicted_taken = pred.taken;
                if b.taken {
                    // The next instruction comes from the target line.
                    self.last_fetch_line = None;
                }
            }
            self.pipe.push_back(FetchedInst {
                inst,
                dispatch_ready_at: now + config.dispatch_latency(),
                mispredicted,
            });
            self.stats.fetched += 1;
            fetched += 1;
            if mispredicted {
                self.stalled = true;
                break;
            }
            if predicted_taken && config.fetch_stops_at_taken {
                break;
            }
        }
    }
}

chainiq_ckpt::pack_fields!(FetchedInst { inst, dispatch_ready_at, mispredicted });

chainiq_ckpt::pack_fields!(FrontendStats { fetched, mispredict_stall_cycles, icache_stall_cycles });

chainiq_ckpt::pack_fields!(Frontend { pipe, pending, stalled, resume_at, last_fetch_line, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use chainiq_isa::ArchReg;
    use chainiq_mem::MemConfig;

    fn setup() -> (SimConfig, HybridBranchPredictor, Hierarchy) {
        (
            SimConfig::default(),
            HybridBranchPredictor::default(),
            Hierarchy::new(MemConfig::default()),
        )
    }

    fn alu_stream(n: usize) -> Vec<Inst> {
        // All in one icache line after the first fill.
        (0..n).map(|i| Inst::alu(0x1000 + (i as u64 % 16) * 4, ArchReg::int(1), &[])).collect()
    }

    #[test]
    fn fetch_width_limits_per_cycle() {
        let (cfg, mut bp, mut mem) = setup();
        let mut fe = Frontend::new();
        let mut w = alu_stream(32).into_iter();
        // Warm the icache first (cold fetch stalls on the miss).
        mem.access(0, 0x1000, AccessKind::Ifetch).unwrap();
        let warm = mem.access(0, 0x1000, AccessKind::Ifetch).unwrap().completes_at;
        fe.fetch(warm + 1, &cfg, &mut w, &mut bp, &mut mem);
        assert_eq!(fe.in_flight(), 8);
    }

    #[test]
    fn instructions_arrive_after_frontend_depth() {
        let (cfg, mut bp, mut mem) = setup();
        let mut fe = Frontend::new();
        let mut w = alu_stream(4).into_iter();
        mem.access(0, 0x1000, AccessKind::Ifetch).unwrap();
        let t0 = 200;
        fe.fetch(t0, &cfg, &mut w, &mut bp, &mut mem);
        assert!(fe.take_dispatchable(t0 + 14).is_none());
        assert!(fe.take_dispatchable(t0 + 15).is_some());
    }

    #[test]
    fn misprediction_stalls_until_resume() {
        let (cfg, mut bp, mut mem) = setup();
        let mut fe = Frontend::new();
        mem.access(0, 0x1000, AccessKind::Ifetch).unwrap();
        // A cold conditional taken branch is surely mispredicted (no BTB entry).
        let insts = vec![
            Inst::branch(0x1000, Some(ArchReg::int(1)), true, 0x2000),
            Inst::alu(0x2000, ArchReg::int(2), &[]),
        ];
        let mut w = insts.into_iter();
        fe.fetch(200, &cfg, &mut w, &mut bp, &mut mem);
        assert_eq!(fe.in_flight(), 1, "fetch stops after the mispredicted branch");
        fe.fetch(201, &cfg, &mut w, &mut bp, &mut mem);
        assert_eq!(fe.in_flight(), 1, "stalled");
        assert!(fe.stats().mispredict_stall_cycles > 0);
        fe.resume(210);
        // The target is in a different line: the first post-redirect fetch
        // may stall on the icache; eventually the instruction arrives.
        for t in 210..450 {
            fe.fetch(t, &cfg, &mut w, &mut bp, &mut mem);
        }
        assert_eq!(fe.in_flight(), 2);
    }

    #[test]
    fn branch_limit_caps_fetch_group() {
        let (cfg, mut bp, mut mem) = setup();
        let mut fe = Frontend::new();
        mem.access(0, 0x1000, AccessKind::Ifetch).unwrap();
        // Not-taken branches (correctly predicted once warm) so fetch
        // does not stop at a taken branch.
        let insts: Vec<Inst> = (0..8)
            .map(|i| Inst::branch(0x1000 + i * 4, Some(ArchReg::int(1)), false, 0x3000))
            .collect();
        // Warm the predictor so none mispredict.
        for inst in &insts {
            let b = inst.branch.unwrap();
            for _ in 0..4 {
                bp.predict_and_train(inst.pc, b.taken, b.target);
            }
        }
        let mut w = insts.into_iter();
        fe.fetch(300, &cfg, &mut w, &mut bp, &mut mem);
        assert_eq!(fe.in_flight(), 3, "max 3 branches per cycle");
    }

    #[test]
    fn undo_take_preserves_order() {
        let (cfg, mut bp, mut mem) = setup();
        let mut fe = Frontend::new();
        let warm = mem.access(0, 0x1000, AccessKind::Ifetch).unwrap().completes_at;
        let mut w = alu_stream(2).into_iter();
        fe.fetch(warm + 1, &cfg, &mut w, &mut bp, &mut mem);
        let a = fe.take_dispatchable(warm + 200).unwrap();
        fe.undo_take(a);
        let b = fe.take_dispatchable(warm + 200).unwrap();
        assert_eq!(a.inst, b.inst);
    }
}
