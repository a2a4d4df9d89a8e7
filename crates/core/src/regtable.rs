//! The dispatch-stage register information table (§3.3).
//!
//! One entry per architectural register, recording how far the register's
//! value is from being produced: which chain will produce it, its
//! expected latency relative to that chain head's issue, the head's
//! segment, and whether the chain is in self-timed mode. The table
//! listens to the chain wires exactly as queue entries do — at the top of
//! the wire pipeline, so its view lags the bottom segments by the wire
//! delay, as in the hardware.

use chainiq_isa::{ArchReg, NUM_ARCH_REGS};

use crate::chain::{ChainRef, SignalKind, WireSignal};

/// Scheduling status of one architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegSched {
    /// The value is (believed) available now.
    Available,
    /// The value is not chain-tracked; it is expected in `remaining`
    /// cycles (a dispatched instruction whose operands were all ready).
    Countdown {
        /// Cycles until the value is expected.
        remaining: i64,
    },
    /// The value is produced `latency` cycles after `chain`'s head
    /// issues; the head is (as last seen here) in segment `head_loc`.
    OnChain {
        /// Producing chain.
        chain: ChainRef,
        /// Cycles after head issue until this value is ready. Fixed until
        /// self-timed mode, then counts down.
        latency: i64,
        /// Head's segment as last observed at the table.
        head_loc: i64,
        /// Head has issued; `latency` counts down each cycle.
        self_timed: bool,
        /// Self-timing is suspended (head load missed; §3.4).
        suspended: bool,
    },
}

impl RegSched {
    /// The expected delay (cycles until available) implied by this entry,
    /// for initializing a dependent's delay value: `2 * S_H + D_H` for
    /// chain-tracked values (§3.3), the remaining countdown otherwise.
    #[cfg(test)]
    pub(crate) fn expected_delay(&self) -> i64 {
        match *self {
            RegSched::Available => 0,
            RegSched::Countdown { remaining } => remaining.max(0),
            RegSched::OnChain { latency, head_loc, self_timed, .. } => {
                if self_timed {
                    latency.max(0)
                } else {
                    2 * head_loc.max(0) + latency.max(0)
                }
            }
        }
    }
}

/// The register information table.
///
/// A flat per-register array plus a one-word *active mask* of the
/// entries that are not `Available`. The per-cycle paths (countdown
/// tick, chain-signal delivery) walk only the set bits — in steady state
/// a handful of registers are in flight, so the sweep the v2 kernel paid
/// on all `NUM_ARCH_REGS` slots every cycle collapses to a popcount
/// loop (see DESIGN.md §9).
#[derive(Debug, Clone)]
pub(crate) struct RegInfoTable {
    entries: Vec<RegSched>,
    /// Bit `i` set ⟺ `entries[i]` is not `Available`.
    active: u64,
}

// The active mask is a single machine word.
const _: () = assert!(NUM_ARCH_REGS <= 64);

impl RegInfoTable {
    pub(crate) fn new() -> Self {
        RegInfoTable { entries: vec![RegSched::Available; NUM_ARCH_REGS], active: 0 }
    }

    pub(crate) fn get(&self, reg: ArchReg) -> RegSched {
        self.entries[reg.index()]
    }

    pub(crate) fn set(&mut self, reg: ArchReg, sched: RegSched) {
        let i = reg.index();
        self.entries[i] = sched;
        if matches!(sched, RegSched::Available) {
            self.active &= !(1u64 << i);
        } else {
            self.active |= 1u64 << i;
        }
    }

    /// Applies a chain-wire signal that reached the top of the queue to
    /// every register listening on its chain.
    pub(crate) fn apply_signal(&mut self, sig: WireSignal) {
        let mut m = self.active;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if let RegSched::OnChain { chain, head_loc, self_timed, suspended, .. } =
                &mut self.entries[i]
            {
                if *chain == sig.chain {
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
    }

    /// One cycle of countdowns. Signals for this cycle must be applied
    /// first (suspends take effect before the decrement they gate).
    pub(crate) fn tick(&mut self) {
        self.tick_n(1);
    }

    /// `k` cycles of countdowns with no signal between them: the same
    /// table `k` calls of [`RegInfoTable::tick`] leave behind.
    pub(crate) fn tick_n(&mut self, k: u64) {
        let k = k as i64;
        let mut m = self.active;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let e = &mut self.entries[i];
            *e = match *e {
                RegSched::Countdown { remaining } => {
                    let r = remaining - k;
                    if r <= 0 {
                        RegSched::Available
                    } else {
                        RegSched::Countdown { remaining: r }
                    }
                }
                RegSched::OnChain {
                    chain,
                    latency,
                    head_loc,
                    self_timed: true,
                    suspended: false,
                } => {
                    let l = latency - k;
                    if l <= 0 {
                        RegSched::Available
                    } else {
                        RegSched::OnChain {
                            chain,
                            latency: l,
                            head_loc,
                            self_timed: true,
                            suspended: false,
                        }
                    }
                }
                other => other,
            };
            if matches!(e, RegSched::Available) {
                self.active &= !(1u64 << i);
            }
        }
    }

    /// Ticks until the first chain-tracked register counts down to
    /// available, or `None` if no such register is counting. It is the
    /// only change of a chain subscription that passing time makes, and
    /// so the only way time alone can let a dispatch refused for want of
    /// a chain wire through.
    pub(crate) fn chain_expiry(&self) -> Option<u64> {
        let mut m = self.active;
        let mut first: Option<u64> = None;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if let RegSched::OnChain { latency, self_timed: true, suspended: false, .. } =
                self.entries[i]
            {
                let ticks = latency.max(1) as u64;
                first = Some(first.map_or(ticks, |f| f.min(ticks)));
            }
        }
        first
    }

    /// Resets every entry (pipeline flush).
    pub(crate) fn reset(&mut self) {
        self.entries.fill(RegSched::Available);
        self.active = 0;
    }
}

impl chainiq_ckpt::Pack for RegSched {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match *self {
            RegSched::Available => w.put_u8(0),
            RegSched::Countdown { remaining } => {
                w.put_u8(1);
                remaining.pack(w);
            }
            RegSched::OnChain { chain, latency, head_loc, self_timed, suspended } => {
                w.put_u8(2);
                chain.pack(w);
                latency.pack(w);
                head_loc.pack(w);
                self_timed.pack(w);
                suspended.pack(w);
            }
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        match r.take_u8("register schedule tag")? {
            0 => Ok(RegSched::Available),
            1 => Ok(RegSched::Countdown { remaining: Pack::unpack(r)? }),
            2 => Ok(RegSched::OnChain {
                chain: Pack::unpack(r)?,
                latency: Pack::unpack(r)?,
                head_loc: Pack::unpack(r)?,
                self_timed: Pack::unpack(r)?,
                suspended: Pack::unpack(r)?,
            }),
            t => Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!("register schedule tag {t}"),
            }),
        }
    }
}

impl chainiq_ckpt::Pack for RegInfoTable {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.entries.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        let entries: Vec<RegSched> = Pack::unpack(r)?;
        if entries.len() != NUM_ARCH_REGS {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!("register table holds {} entries", entries.len()),
            });
        }
        let mut active = 0u64;
        for (i, e) in entries.iter().enumerate() {
            if !matches!(e, RegSched::Available) {
                active |= 1u64 << i;
            }
        }
        Ok(RegInfoTable { entries, active })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(id: u32) -> ChainRef {
        ChainRef { id, gen: 0 }
    }

    #[test]
    fn countdown_becomes_available() {
        let mut t = RegInfoTable::new();
        let r = ArchReg::int(1);
        t.set(r, RegSched::Countdown { remaining: 2 });
        t.tick();
        assert_eq!(t.get(r), RegSched::Countdown { remaining: 1 });
        t.tick();
        assert_eq!(t.get(r), RegSched::Available);
    }

    #[test]
    fn pulses_walk_head_down_then_self_time() {
        let mut t = RegInfoTable::new();
        let r = ArchReg::int(2);
        t.set(
            r,
            RegSched::OnChain {
                chain: chain(3),
                latency: 4,
                head_loc: 2,
                self_timed: false,
                suspended: false,
            },
        );
        let pulse = WireSignal { chain: chain(3), kind: SignalKind::Pulse, segment: 0 };
        t.apply_signal(pulse);
        t.apply_signal(pulse);
        match t.get(r) {
            RegSched::OnChain { head_loc, self_timed, .. } => {
                assert_eq!(head_loc, 0);
                assert!(!self_timed);
            }
            other => panic!("{other:?}"),
        }
        // Third pulse = issue.
        t.apply_signal(pulse);
        match t.get(r) {
            RegSched::OnChain { self_timed, latency, .. } => {
                assert!(self_timed);
                assert_eq!(latency, 4, "latency untouched until countdown ticks");
            }
            other => panic!("{other:?}"),
        }
        // Now it counts down to available.
        for _ in 0..4 {
            t.tick();
        }
        assert_eq!(t.get(r), RegSched::Available);
    }

    #[test]
    fn suspend_freezes_countdown_until_resume() {
        let mut t = RegInfoTable::new();
        let r = ArchReg::fp(0);
        t.set(
            r,
            RegSched::OnChain {
                chain: chain(1),
                latency: 3,
                head_loc: 0,
                self_timed: true,
                suspended: false,
            },
        );
        t.tick(); // 3 -> 2
        t.apply_signal(WireSignal { chain: chain(1), kind: SignalKind::Suspend, segment: 0 });
        for _ in 0..10 {
            t.tick(); // frozen
        }
        match t.get(r) {
            RegSched::OnChain { latency, suspended, .. } => {
                assert_eq!(latency, 2);
                assert!(suspended);
            }
            other => panic!("{other:?}"),
        }
        t.apply_signal(WireSignal { chain: chain(1), kind: SignalKind::Resume, segment: 0 });
        t.tick();
        t.tick();
        assert_eq!(t.get(r), RegSched::Available);
    }

    #[test]
    fn bulk_countdown_equals_single_ticks() {
        let on = |latency, self_timed, suspended| RegSched::OnChain {
            chain: chain(1),
            latency,
            head_loc: 2,
            self_timed,
            suspended,
        };
        let mut start = RegInfoTable::new();
        for (i, sched) in [
            RegSched::Countdown { remaining: 1 },
            RegSched::Countdown { remaining: 5 },
            RegSched::Countdown { remaining: 40 },
            on(3, true, false),
            on(9, true, false),
            on(4, true, true),
            on(6, false, false),
        ]
        .into_iter()
        .enumerate()
        {
            start.set(ArchReg::int(i as u8), sched);
        }
        assert_eq!(start.chain_expiry(), Some(3), "the running chain-tracked countdowns");
        for k in [0u64, 1, 2, 3, 5, 9, 10, 64] {
            let mut single = start.clone();
            for _ in 0..k {
                single.tick();
            }
            let mut bulk = start.clone();
            bulk.tick_n(k);
            assert_eq!(bulk.entries, single.entries, "after {k} ticks");
            assert_eq!(bulk.active, single.active, "active mask after {k} ticks");
        }
        let mut t = start.clone();
        t.tick_n(3);
        assert_eq!(t.chain_expiry(), Some(6), "the first chain-tracked register expired");
        t.tick_n(6);
        assert_eq!(t.chain_expiry(), None, "suspended and pulse-driven entries never expire");
    }

    #[test]
    fn signals_for_other_chains_are_ignored() {
        let mut t = RegInfoTable::new();
        let r = ArchReg::int(3);
        let sched = RegSched::OnChain {
            chain: chain(1),
            latency: 5,
            head_loc: 3,
            self_timed: false,
            suspended: false,
        };
        t.set(r, sched);
        t.apply_signal(WireSignal { chain: chain(2), kind: SignalKind::Pulse, segment: 0 });
        assert_eq!(t.get(r), sched);
        // Same wire id, different generation: also ignored.
        t.apply_signal(WireSignal {
            chain: ChainRef { id: 1, gen: 9 },
            kind: SignalKind::Pulse,
            segment: 0,
        });
        assert_eq!(t.get(r), sched);
    }

    #[test]
    fn expected_delay_formula() {
        assert_eq!(RegSched::Available.expected_delay(), 0);
        assert_eq!(RegSched::Countdown { remaining: 7 }.expected_delay(), 7);
        let on = RegSched::OnChain {
            chain: chain(0),
            latency: 3,
            head_loc: 5,
            self_timed: false,
            suspended: false,
        };
        assert_eq!(on.expected_delay(), 2 * 5 + 3);
        let timed = RegSched::OnChain {
            chain: chain(0),
            latency: 3,
            head_loc: 0,
            self_timed: true,
            suspended: false,
        };
        assert_eq!(timed.expected_delay(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = RegInfoTable::new();
        t.set(ArchReg::int(1), RegSched::Countdown { remaining: 10 });
        t.reset();
        assert_eq!(t.get(ArchReg::int(1)), RegSched::Available);
    }
}
