//! The dynamic-stream generator.

use chainiq_isa::{Inst, OpClass};
use chainiq_rng::Rng;

use crate::kernels::KernelState;
use crate::profile::Profile;

/// Byte spacing between the private memory regions of successive phases.
const REGION_SPACING: u64 = 1 << 28;
/// PC spacing between the static code of successive phases.
const PC_SPACING: u64 = 1 << 16;
/// Lowest PC used by generated code.
const PC_BASE: u64 = 0x1000_0000;
/// Lowest data address used by generated code.
const DATA_BASE: u64 = 0x4000_0000;

/// An endless, deterministic stream of resolved dynamic instructions for
/// one [`Profile`].
///
/// Phases are scheduled in a weighted rotation; each turn runs one
/// *burst* of loop iterations of the phase's kernel. See the
/// [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    kernels: Vec<KernelState>,
    /// Rotation of phase indices (a phase with weight w appears w times).
    rotation: Vec<usize>,
    rotation_pos: usize,
    burst_iterations: Vec<u32>,
    rng: Rng,
    /// The current burst, yielded from `pos` on; refilled in place once
    /// drained, so its storage is reused.
    buffer: Vec<Inst>,
    pos: usize,
    emitted: u64,
}

impl SyntheticWorkload {
    /// Creates a generator for `profile`, seeded for reproducibility.
    #[must_use]
    pub fn from_profile(profile: Profile, seed: u64) -> Self {
        let mut kernels = Vec::new();
        let mut rotation = Vec::new();
        let mut burst_iterations = Vec::new();
        for (idx, phase) in profile.phases.iter().enumerate() {
            let pc_base = PC_BASE + idx as u64 * PC_SPACING;
            let region = DATA_BASE + idx as u64 * REGION_SPACING;
            kernels.push(KernelState::new(phase.kernel, pc_base, region));
            burst_iterations.push(phase.burst_iterations);
            for _ in 0..phase.weight {
                rotation.push(idx);
            }
        }
        SyntheticWorkload {
            name: profile.name,
            kernels,
            rotation,
            rotation_pos: 0,
            burst_iterations,
            rng: Rng::seed_from_u64(seed),
            buffer: Vec::new(),
            pos: 0,
            emitted: 0,
        }
    }

    /// The profile name this stream was generated from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dynamic instructions yielded so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn refill(&mut self) {
        let phase = self.rotation[self.rotation_pos];
        self.rotation_pos = (self.rotation_pos + 1) % self.rotation.len();
        let iters = self.burst_iterations[phase];
        self.buffer.clear();
        self.pos = 0;
        for i in 0..iters {
            self.kernels[phase].emit_iteration(i + 1 < iters, &mut self.buffer, &mut self.rng);
        }
    }
}

impl Iterator for SyntheticWorkload {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        while self.pos == self.buffer.len() {
            self.refill();
        }
        let inst = self.buffer[self.pos];
        self.pos += 1;
        self.emitted += 1;
        Some(inst)
    }
}

/// A finite workload replaying a fixed instruction sequence — handy for
/// unit tests and the paper's Figure 1 worked example.
///
/// # Examples
///
/// ```
/// use chainiq_isa::{Inst, ArchReg};
/// use chainiq_workload::VecWorkload;
///
/// let seq = vec![Inst::alu(0, ArchReg::int(1), &[])];
/// let mut w = VecWorkload::new(seq.clone());
/// assert_eq!(w.next(), Some(seq[0]));
/// assert_eq!(w.next(), None);
/// ```
#[derive(Debug, Clone)]
pub struct VecWorkload {
    insts: std::vec::IntoIter<Inst>,
}

impl VecWorkload {
    /// Wraps a fixed sequence.
    #[must_use]
    pub fn new(insts: Vec<Inst>) -> Self {
        VecWorkload { insts: insts.into_iter() }
    }

    /// Repeats `body` `times` times, so short kernels can fill a window.
    #[must_use]
    pub fn repeated(body: &[Inst], times: usize) -> Self {
        let mut v = Vec::with_capacity(body.len() * times);
        for _ in 0..times {
            v.extend_from_slice(body);
        }
        VecWorkload::new(v)
    }
}

impl Iterator for VecWorkload {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        self.insts.next()
    }
}

/// Relocates a workload into a private address space — used to run
/// several workloads as SMT threads without false sharing of code or
/// data addresses.
///
/// Program counters (and branch targets) shift by `pc_offset`; data
/// addresses by `data_offset`.
///
/// # Examples
///
/// ```
/// use chainiq_workload::{AddressSpace, Bench, SyntheticWorkload};
///
/// let t1 = AddressSpace::new(
///     SyntheticWorkload::from_profile(Bench::Swim.profile(), 1),
///     0x0100_0000_0000,
///     0x0100_0000_0000,
/// );
/// let first = t1.take(1).next().unwrap();
/// assert!(first.pc >= 0x0100_0000_0000);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace<W> {
    inner: W,
    pc_offset: u64,
    data_offset: u64,
}

impl<W> AddressSpace<W> {
    /// Wraps `inner`, shifting code by `pc_offset` and data by
    /// `data_offset`.
    #[must_use]
    pub fn new(inner: W, pc_offset: u64, data_offset: u64) -> Self {
        AddressSpace { inner, pc_offset, data_offset }
    }
}

impl<W: Iterator<Item = Inst>> Iterator for AddressSpace<W> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        let mut inst = self.inner.next()?;
        inst.pc += self.pc_offset;
        if let Some(m) = &mut inst.mem {
            m.addr += self.data_offset;
        }
        if let Some(b) = &mut inst.branch {
            b.target += self.pc_offset;
        }
        Some(inst)
    }
}

/// Instruction-mix summary of a stream prefix, for calibration tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MixSummary {
    /// Total instructions summarized.
    pub total: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional + unconditional branches.
    pub branches: u64,
    /// FP arithmetic ops.
    pub fp_ops: u64,
    /// Integer arithmetic ops.
    pub int_ops: u64,
    /// Fraction of branches resolved taken.
    pub taken_frac: f64,
}

impl MixSummary {
    /// Summarizes the first `n` instructions of `stream`.
    pub fn measure(stream: &mut impl Iterator<Item = Inst>, n: u64) -> MixSummary {
        let mut s = MixSummary::default();
        let mut taken = 0u64;
        for inst in stream.take(n as usize) {
            s.total += 1;
            match inst.op {
                OpClass::Load => s.loads += 1,
                OpClass::Store => s.stores += 1,
                OpClass::Branch => {
                    s.branches += 1;
                    if inst.branch.map(|b| b.taken).unwrap_or(false) {
                        taken += 1;
                    }
                }
                OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSqrt => {
                    s.fp_ops += 1;
                }
                OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => s.int_ops += 1,
            }
        }
        s.taken_frac = if s.branches == 0 { 0.0 } else { taken as f64 / s.branches as f64 };
        s
    }

    /// Loads as a fraction of all instructions.
    #[must_use]
    pub fn load_frac(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.loads as f64 / self.total as f64
        }
    }

    /// Branches as a fraction of all instructions.
    #[must_use]
    pub fn branch_frac(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.branches as f64 / self.total as f64
        }
    }
}

impl chainiq_ckpt::Snapshot for SyntheticWorkload {
    const COMPONENT: &'static str = "workload.synthetic";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.name.pack(w);
        self.kernels.pack(w);
        self.rotation.pack(w);
        self.rotation_pos.pack(w);
        self.burst_iterations.pack(w);
        self.rng.pack(w);
        // The instructions still to come, as a length-prefixed sequence.
        let rest = &self.buffer[self.pos..];
        w.put_u64(rest.len() as u64);
        for inst in rest {
            inst.pack(w);
        }
        self.emitted.pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        self.name = Pack::unpack(r)?;
        self.kernels = Pack::unpack(r)?;
        let rotation: Vec<usize> = Pack::unpack(r)?;
        let rotation_pos: usize = Pack::unpack(r)?;
        if rotation.is_empty() || rotation_pos >= rotation.len() {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: format!(
                    "workload rotation position {rotation_pos} in rotation of {}",
                    rotation.len()
                ),
            });
        }
        if rotation.iter().any(|&idx| idx >= self.kernels.len()) {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "workload rotation indexes a missing phase".to_string(),
            });
        }
        self.rotation = rotation;
        self.rotation_pos = rotation_pos;
        self.burst_iterations = Pack::unpack(r)?;
        if self.burst_iterations.len() != self.kernels.len() {
            return Err(chainiq_ckpt::CkptError::Corrupt {
                context: "workload burst table does not match phase count".to_string(),
            });
        }
        self.rng = Pack::unpack(r)?;
        self.buffer = Pack::unpack(r)?;
        self.pos = 0;
        self.emitted = Pack::unpack(r)?;
        Ok(())
    }
}

impl chainiq_ckpt::Snapshot for VecWorkload {
    const COMPONENT: &'static str = "workload.vec";
    const VERSION: u16 = 1;

    fn save(&self, w: &mut chainiq_ckpt::Writer) {
        use chainiq_ckpt::Pack;
        self.insts.as_slice().to_vec().pack(w);
    }

    fn restore(&mut self, r: &mut chainiq_ckpt::Reader<'_>) -> Result<(), chainiq_ckpt::CkptError> {
        let remaining: Vec<Inst> = chainiq_ckpt::Pack::unpack(r)?;
        self.insts = remaining.into_iter();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Bench;

    #[test]
    fn stream_is_infinite_and_deterministic() {
        let a: Vec<Inst> =
            SyntheticWorkload::from_profile(Bench::Equake.profile(), 9).take(5000).collect();
        let b: Vec<Inst> =
            SyntheticWorkload::from_profile(Bench::Equake.profile(), 9).take(5000).collect();
        assert_eq!(a.len(), 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_for_random_kernels() {
        let a: Vec<Inst> =
            SyntheticWorkload::from_profile(Bench::Gcc.profile(), 1).take(5000).collect();
        let b: Vec<Inst> =
            SyntheticWorkload::from_profile(Bench::Gcc.profile(), 2).take(5000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn phases_use_disjoint_memory_regions() {
        let insts: Vec<Inst> =
            SyntheticWorkload::from_profile(Bench::Swim.profile(), 3).take(20_000).collect();
        // Two phases: region bases differ by REGION_SPACING.
        let mut in_first = false;
        let mut in_second = false;
        for i in insts.iter().filter_map(|i| i.mem) {
            if i.addr < DATA_BASE + REGION_SPACING {
                in_first = true;
            } else {
                in_second = true;
            }
        }
        assert!(in_first && in_second);
    }

    #[test]
    fn every_bench_mix_is_sane() {
        for b in Bench::ALL {
            let mut w = SyntheticWorkload::from_profile(b.profile(), 7);
            let mix = MixSummary::measure(&mut w, 30_000);
            assert_eq!(mix.total, 30_000);
            assert!(mix.load_frac() > 0.05, "{b}: load fraction {}", mix.load_frac());
            assert!(mix.load_frac() < 0.6, "{b}: load fraction {}", mix.load_frac());
            assert!(mix.branch_frac() > 0.02, "{b}: branch fraction {}", mix.branch_frac());
            assert!(mix.branch_frac() < 0.45, "{b}: branch fraction {}", mix.branch_frac());
        }
    }

    #[test]
    fn fp_benchmarks_have_fp_work() {
        for b in [Bench::Swim, Bench::Mgrid, Bench::Applu, Bench::Equake, Bench::Ammp] {
            let mut w = SyntheticWorkload::from_profile(b.profile(), 7);
            let mix = MixSummary::measure(&mut w, 30_000);
            assert!(mix.fp_ops > 0, "{b} should contain FP ops");
        }
    }

    #[test]
    fn int_benchmarks_have_little_fp() {
        for b in [Bench::Gcc, Bench::Twolf, Bench::Vortex] {
            let mut w = SyntheticWorkload::from_profile(b.profile(), 7);
            let mix = MixSummary::measure(&mut w, 30_000);
            assert!(
                (mix.fp_ops as f64) < 0.05 * mix.total as f64,
                "{b} should be integer-dominated"
            );
        }
    }

    #[test]
    fn branchy_benchmarks_are_branch_dense() {
        let mut gcc = SyntheticWorkload::from_profile(Bench::Gcc.profile(), 7);
        let gcc_mix = MixSummary::measure(&mut gcc, 30_000);
        let mut swim = SyntheticWorkload::from_profile(Bench::Swim.profile(), 7);
        let swim_mix = MixSummary::measure(&mut swim, 30_000);
        assert!(gcc_mix.branch_frac() > 2.0 * swim_mix.branch_frac());
    }

    #[test]
    fn vec_workload_repeats() {
        let body = vec![Inst::alu(0, chainiq_isa::ArchReg::int(1), &[])];
        let w = VecWorkload::repeated(&body, 5);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn snapshot_restores_the_exact_stream() {
        use chainiq_ckpt::{Reader, Snapshot, Writer};
        let mut cont = SyntheticWorkload::from_profile(Bench::Equake.profile(), 9);
        let _ = cont.by_ref().take(1000).count();
        let mut w = Writer::new();
        cont.save(&mut w);
        let bytes = w.into_bytes();
        // Restore into a generator for a *different* profile/seed: every
        // piece of mutable state must be overwritten.
        let mut restored = SyntheticWorkload::from_profile(Bench::Gcc.profile(), 1);
        restored.restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.emitted(), 1000);
        let a: Vec<Inst> = cont.take(2000).collect();
        let b: Vec<Inst> = restored.take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn vec_workload_snapshot_resumes_mid_stream() {
        use chainiq_ckpt::{Reader, Snapshot, Writer};
        let body = vec![
            Inst::alu(0, chainiq_isa::ArchReg::int(1), &[]),
            Inst::load(4, chainiq_isa::ArchReg::int(2), chainiq_isa::ArchReg::int(1), 0x100),
        ];
        let mut cont = VecWorkload::repeated(&body, 10);
        let _ = cont.by_ref().take(7).count();
        let mut w = Writer::new();
        cont.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = VecWorkload::new(Vec::new());
        restored.restore(&mut Reader::new(&bytes)).unwrap();
        let a: Vec<Inst> = cont.collect();
        let b: Vec<Inst> = restored.collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn emitted_counts_yields() {
        let mut w = SyntheticWorkload::from_profile(Bench::Vortex.profile(), 1);
        let _ = w.by_ref().take(123).count();
        assert_eq!(w.emitted(), 123);
    }
}
