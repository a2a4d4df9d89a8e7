//! The reference queue's dispatch-stage register information table
//! (§3.3): one entry per architectural register, listening to the chain
//! wires at the top of the wire pipeline and counting every entry down
//! once per cycle.

use chainiq_core::ChainRef;
use chainiq_isa::{ArchReg, NUM_ARCH_REGS};

use super::chain::{SignalKind, WireSignal};

/// Scheduling status of one architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegSched {
    /// The value is (believed) available now.
    Available,
    /// The value is not chain-tracked; it is expected in `remaining`
    /// cycles.
    Countdown { remaining: i64 },
    /// The value is produced `latency` cycles after `chain`'s head
    /// issues; the head is (as last seen here) in segment `head_loc`.
    /// Once `self_timed`, `latency` counts down unless `suspended`.
    OnChain { chain: ChainRef, latency: i64, head_loc: i64, self_timed: bool, suspended: bool },
}

/// The register information table of one hardware thread.
#[derive(Debug, Clone)]
pub struct RegInfoTable {
    entries: Vec<RegSched>,
}

impl RegInfoTable {
    pub fn new() -> Self {
        RegInfoTable { entries: vec![RegSched::Available; NUM_ARCH_REGS] }
    }

    pub fn get(&self, reg: ArchReg) -> RegSched {
        self.entries[reg.index()]
    }

    pub fn set(&mut self, reg: ArchReg, sched: RegSched) {
        self.entries[reg.index()] = sched;
    }

    /// Applies a chain-wire signal that reached the top of the queue.
    pub fn apply_signal(&mut self, sig: WireSignal) {
        for e in &mut self.entries {
            if let RegSched::OnChain { chain, head_loc, self_timed, suspended, .. } = e {
                if *chain != sig.chain {
                    continue;
                }
                match sig.kind {
                    SignalKind::Pulse => {
                        if !*self_timed {
                            if *head_loc > 0 {
                                *head_loc -= 1;
                            } else {
                                *self_timed = true;
                            }
                        }
                    }
                    SignalKind::Suspend => *suspended = true,
                    SignalKind::Resume => *suspended = false,
                }
            }
        }
    }

    /// One cycle of countdowns. Signals for this cycle must be applied
    /// first (suspends take effect before the decrement they gate).
    pub fn tick(&mut self) {
        for e in &mut self.entries {
            match e {
                RegSched::Countdown { remaining } => {
                    *remaining -= 1;
                    if *remaining <= 0 {
                        *e = RegSched::Available;
                    }
                }
                RegSched::OnChain { latency, self_timed: true, suspended: false, .. } => {
                    *latency -= 1;
                    if *latency <= 0 {
                        *e = RegSched::Available;
                    }
                }
                _ => {}
            }
        }
    }

    /// Resets every entry (pipeline flush).
    pub fn reset(&mut self) {
        self.entries.fill(RegSched::Available);
    }
}
