//! Loop kernels: the building blocks of synthetic benchmark profiles.

use chainiq_isa::{Inst, OpClass};
use chainiq_rng::Rng;

/// Declarative description of one loop kernel.
///
/// Each kernel models a code shape that appears in the paper's benchmark
/// subset and stresses a different part of the machine:
///
/// * [`Stream`](KernelSpec::Stream) — unit/short-stride array traversal
///   with independent iterations: memory-level parallelism limited only
///   by the window (swim, applu).
/// * [`Stencil`](KernelSpec::Stencil) — multi-tap neighbourhood reads
///   with heavy line reuse and deep FP reduction trees per point (mgrid).
/// * [`Reduction`](KernelSpec::Reduction) — a loop-carried accumulator:
///   serial FP chain, little ILP regardless of window size.
/// * [`PointerChase`](KernelSpec::PointerChase) — serially dependent
///   loads (ammp's neighbour lists).
/// * [`Gather`](KernelSpec::Gather) — index load then data-dependent
///   indirect load into a large table (equake's sparse structures).
/// * [`Branchy`](KernelSpec::Branchy) — short integer ops guarded by
///   partially random conditional branches over a small working set
///   (gcc, twolf, vortex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// Independent-iteration array streaming.
    Stream {
        /// Number of distinct arrays read each iteration.
        arrays: u8,
        /// Bytes per array before the cursor wraps.
        working_set: u64,
        /// Byte stride between iterations.
        stride: u64,
        /// FP ops combining the loaded values each iteration.
        fp_ops: u8,
        /// Whether each iteration ends with a store.
        store: bool,
    },
    /// Multi-tap stencil with line reuse.
    Stencil {
        /// Number of neighbouring loads per point.
        taps: u8,
        /// Bytes in the traversed grid.
        working_set: u64,
        /// Extra FP ops per point beyond the tap-combining tree.
        fp_ops: u8,
    },
    /// Serial loop-carried FP accumulation.
    Reduction {
        /// Bytes of the summed array.
        working_set: u64,
        /// Latency class of the accumulation op.
        fp_mul: bool,
    },
    /// Serially dependent loads through a linked structure.
    PointerChase {
        /// Number of nodes in the cycle being walked.
        nodes: u64,
        /// Bytes per node (spacing of node addresses).
        node_bytes: u64,
        /// Independent integer work ops per hop.
        work_per_hop: u8,
    },
    /// Index load followed by a data-dependent indirect load.
    Gather {
        /// Bytes in the randomly indexed table.
        table_bytes: u64,
        /// Bytes in the sequentially read index array.
        index_bytes: u64,
        /// FP ops consuming the gathered value.
        fp_ops: u8,
    },
    /// Integer code with conditional branches.
    Branchy {
        /// Probability a *random* branch is taken.
        taken_prob: f64,
        /// Fraction of dynamic branches with random outcomes (the rest
        /// are always taken and thus predictable).
        random_frac: f64,
        /// Independent integer ops per iteration (ILP knob).
        work: u8,
        /// Bytes touched by the per-iteration load.
        working_set: u64,
    },
}

/// Runtime state for one kernel instance inside a generator.
#[derive(Debug, Clone)]
pub(crate) struct KernelState {
    spec: KernelSpec,
    /// First PC of the static loop body.
    pc_base: u64,
    /// Base byte address of this kernel's private memory region.
    region: u64,
    /// Iteration counter (drives cursors and index registers).
    iter: u64,
    /// Current pointer for `PointerChase`.
    chase_addr: u64,
}

/// Registers used by kernels. Every kernel uses the same architectural
/// names; phases run in long bursts, so cross-phase reuse only introduces
/// the occasional boundary dependence, as in real code.
mod regs {
    use chainiq_isa::ArchReg;

    pub fn index() -> ArchReg {
        ArchReg::int(1)
    }
    pub fn pointer() -> ArchReg {
        ArchReg::int(2)
    }
    pub fn gathered_index() -> ArchReg {
        ArchReg::int(3)
    }
    pub fn scratch(i: u8) -> ArchReg {
        ArchReg::int(4 + (i % 8))
    }
    pub fn fp(i: u8) -> ArchReg {
        ArchReg::fp(i % 30)
    }
    pub fn fp_acc() -> ArchReg {
        ArchReg::fp(30)
    }
}

impl KernelState {
    pub(crate) fn new(spec: KernelSpec, pc_base: u64, region: u64) -> Self {
        KernelState { spec, pc_base, region, iter: 0, chase_addr: region }
    }

    /// Emits the dynamic instructions of one loop iteration into `out`.
    /// `continue_loop` is the resolved outcome of the back-edge branch
    /// (taken = another iteration of this burst follows).
    pub(crate) fn emit_iteration(
        &mut self,
        continue_loop: bool,
        out: &mut Vec<Inst>,
        rng: &mut Rng,
    ) {
        let mut pc = PcCursor { next: self.pc_base };
        match self.spec {
            KernelSpec::Stream { arrays, working_set, stride, fp_ops, store } => {
                self.emit_stream(arrays, working_set, stride, fp_ops, store, &mut pc, out);
            }
            KernelSpec::Stencil { taps, working_set, fp_ops } => {
                self.emit_stencil(taps, working_set, fp_ops, &mut pc, out);
            }
            KernelSpec::Reduction { working_set, fp_mul } => {
                self.emit_reduction(working_set, fp_mul, &mut pc, out);
            }
            KernelSpec::PointerChase { nodes, node_bytes, work_per_hop } => {
                self.emit_pointer_chase(nodes, node_bytes, work_per_hop, &mut pc, out, rng);
            }
            KernelSpec::Gather { table_bytes, index_bytes, fp_ops } => {
                self.emit_gather(table_bytes, index_bytes, fp_ops, &mut pc, out, rng);
            }
            KernelSpec::Branchy { taken_prob, random_frac, work, working_set } => {
                self.emit_branchy(taken_prob, random_frac, work, working_set, &mut pc, out, rng);
            }
        }
        // Loop back-edge: taken while the burst continues.
        out.push(Inst::branch(pc.take(), Some(regs::index()), continue_loop, self.pc_base));
        self.iter += 1;
    }

    #[allow(clippy::too_many_arguments, reason = "one parameter per profile knob")]
    fn emit_stream(
        &mut self,
        arrays: u8,
        working_set: u64,
        stride: u64,
        fp_ops: u8,
        store: bool,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
    ) {
        let ri = regs::index();
        // i = i + 1 — the only loop-carried dependence.
        out.push(Inst::alu(pc.take(), ri, &[ri]));
        let offset = (self.iter * stride) % working_set.max(stride);
        let mut loaded = Vec::new();
        for a in 0..arrays {
            let dst = regs::fp(a);
            let addr = self.region + u64::from(a) * working_set + offset;
            out.push(Inst::load(pc.take(), dst, ri, addr));
            loaded.push(dst);
        }
        // Combine the loaded values with a short FP tree, then lengthen
        // the chain with fp_ops extra ops.
        let mut acc = loaded[0];
        for (k, &l) in loaded.iter().enumerate().skip(1) {
            let dst = regs::fp(arrays + k as u8);
            out.push(Inst::compute(pc.take(), OpClass::FpAdd, dst, &[acc, l]));
            acc = dst;
        }
        for k in 0..fp_ops {
            let dst = regs::fp(arrays * 2 + k);
            let op = if k % 2 == 0 { OpClass::FpMul } else { OpClass::FpAdd };
            // Two-source ops: the running value combined with one of the
            // loaded operands, as real FP kernels do. This is what makes
            // instructions with two outstanding operands (§4.3) common.
            let other = loaded[(k as usize) % loaded.len()];
            out.push(Inst::compute(pc.take(), op, dst, &[acc, other]));
            acc = dst;
        }
        if store {
            let addr = self.region + u64::from(arrays) * working_set + offset;
            out.push(Inst::store(pc.take(), acc, ri, addr));
        }
    }

    fn emit_stencil(
        &mut self,
        taps: u8,
        working_set: u64,
        fp_ops: u8,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
    ) {
        let ri = regs::index();
        out.push(Inst::alu(pc.take(), ri, &[ri]));
        let elem = 8u64;
        let offset = (self.iter * elem) % working_set.max(elem);
        let mut loaded = Vec::new();
        for t in 0..taps {
            // Taps read the current element and its predecessors: heavy
            // line reuse, so most taps hit in the L1.
            let tap_off = offset.saturating_sub(u64::from(t) * elem);
            let dst = regs::fp(t);
            out.push(Inst::load(pc.take(), dst, ri, self.region + tap_off));
            loaded.push(dst);
        }
        let mut acc = loaded[0];
        for (k, &l) in loaded.iter().enumerate().skip(1) {
            let dst = regs::fp(taps + k as u8);
            out.push(Inst::compute(pc.take(), OpClass::FpAdd, dst, &[acc, l]));
            acc = dst;
        }
        for k in 0..fp_ops {
            let dst = regs::fp(taps * 2 + k);
            let op = if k % 3 == 0 { OpClass::FpMul } else { OpClass::FpAdd };
            let other = loaded[(k as usize) % loaded.len()];
            out.push(Inst::compute(pc.take(), op, dst, &[acc, other]));
            acc = dst;
        }
        // Write the stencil result one working set over.
        out.push(Inst::store(pc.take(), acc, ri, self.region + working_set + offset));
    }

    fn emit_reduction(
        &mut self,
        working_set: u64,
        fp_mul: bool,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
    ) {
        let ri = regs::index();
        let acc = regs::fp_acc();
        out.push(Inst::alu(pc.take(), ri, &[ri]));
        let offset = (self.iter * 8) % working_set.max(8);
        let val = regs::fp(0);
        out.push(Inst::load(pc.take(), val, ri, self.region + offset));
        let op = if fp_mul { OpClass::FpMul } else { OpClass::FpAdd };
        // acc = acc (op) val — the serial loop-carried chain.
        out.push(Inst::compute(pc.take(), op, acc, &[acc, val]));
    }

    fn emit_pointer_chase(
        &mut self,
        nodes: u64,
        node_bytes: u64,
        work_per_hop: u8,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
        rng: &mut Rng,
    ) {
        let rp = regs::pointer();
        // rp = *rp — serially dependent loads; the walk visits a random
        // node each hop (the trace resolves the address).
        out.push(Inst::load(pc.take(), rp, rp, self.chase_addr));
        let next = rng.gen_range(0..nodes.max(1));
        self.chase_addr = self.region + next * node_bytes;
        // Integer work hanging off the loaded pointer.
        for k in 0..work_per_hop {
            let dst = regs::scratch(k);
            if k == 0 {
                out.push(Inst::alu(pc.take(), dst, &[rp]));
            } else {
                out.push(Inst::alu(pc.take(), dst, &[rp, regs::scratch(k - 1)]));
            }
        }
        // Keep the loop counter alive for the back edge.
        out.push(Inst::alu(pc.take(), regs::index(), &[regs::index()]));
    }

    fn emit_gather(
        &mut self,
        table_bytes: u64,
        index_bytes: u64,
        fp_ops: u8,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
        rng: &mut Rng,
    ) {
        let ri = regs::index();
        let rj = regs::gathered_index();
        out.push(Inst::alu(pc.take(), ri, &[ri]));
        // Sequential index load (small stride: usually an L1 hit).
        let idx_off = (self.iter * 8) % index_bytes.max(8);
        out.push(Inst::load(pc.take(), rj, ri, self.region + idx_off));
        // Indirect gather into the big table at a random element.
        let elems = (table_bytes / 8).max(1);
        let gathered = self.region + index_bytes + rng.gen_range(0..elems) * 8;
        let val = regs::fp(0);
        out.push(Inst::load(pc.take(), val, rj, gathered));
        let mut acc = val;
        for k in 0..fp_ops {
            let dst = regs::fp(1 + k);
            let op = if k % 2 == 0 { OpClass::FpMul } else { OpClass::FpAdd };
            out.push(Inst::compute(pc.take(), op, dst, &[acc, val]));
            acc = dst;
        }
        // Scatter the result back near the index position.
        out.push(Inst::store(pc.take(), acc, ri, self.region + idx_off));
    }

    #[allow(clippy::too_many_arguments, reason = "one parameter per profile knob")]
    fn emit_branchy(
        &mut self,
        taken_prob: f64,
        random_frac: f64,
        work: u8,
        working_set: u64,
        pc: &mut PcCursor,
        out: &mut Vec<Inst>,
        rng: &mut Rng,
    ) {
        let ri = regs::index();
        let ra = regs::scratch(0);
        let rb = regs::scratch(1);
        out.push(Inst::alu(pc.take(), ri, &[ri]));
        // A small-working-set load feeding the branch condition.
        let offset = (self.iter.wrapping_mul(24)) % working_set.max(8);
        out.push(Inst::load(pc.take(), ra, ri, self.region + offset));
        out.push(Inst::alu(pc.take(), rb, &[ra]));
        // Data-dependent branch over a two-instruction then-block.
        let br_pc = pc.take();
        let then0 = pc.take();
        let then1 = pc.take();
        let join = pc.peek();
        let taken = if rng.gen_bool(random_frac) {
            rng.gen_bool(taken_prob)
        } else {
            true // the predictable majority
        };
        out.push(Inst::branch(br_pc, Some(rb), taken, join));
        if !taken {
            out.push(Inst::alu(then0, regs::scratch(2), &[rb]));
            out.push(Inst::alu(then1, regs::scratch(3), &[regs::scratch(2)]));
        }
        // Work with limited dependence height: two-source integer ops.
        // The first op of each group pairs this iteration's load with the
        // previous iteration's result — a loop-carried cross-chain pair,
        // the common source of two-outstanding-operand instructions
        // (§4.3).
        for k in 0..work {
            let dst = regs::scratch(4 + (k % 4));
            if k % 4 == 0 {
                out.push(Inst::alu(pc.take(), dst, &[ra, regs::scratch(7)]));
            } else {
                out.push(Inst::alu(pc.take(), dst, &[regs::scratch(4 + ((k - 1) % 4)), rb]));
            }
        }
    }
}

/// Sequential PC assignment within one static loop body.
struct PcCursor {
    next: u64,
}

impl PcCursor {
    fn take(&mut self) -> u64 {
        let pc = self.next;
        self.next += 4;
        pc
    }

    fn peek(&self) -> u64 {
        self.next
    }
}

impl chainiq_ckpt::Pack for KernelSpec {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        match *self {
            KernelSpec::Stream { arrays, working_set, stride, fp_ops, store } => {
                w.put_u8(0);
                arrays.pack(w);
                working_set.pack(w);
                stride.pack(w);
                fp_ops.pack(w);
                store.pack(w);
            }
            KernelSpec::Stencil { taps, working_set, fp_ops } => {
                w.put_u8(1);
                taps.pack(w);
                working_set.pack(w);
                fp_ops.pack(w);
            }
            KernelSpec::Reduction { working_set, fp_mul } => {
                w.put_u8(2);
                working_set.pack(w);
                fp_mul.pack(w);
            }
            KernelSpec::PointerChase { nodes, node_bytes, work_per_hop } => {
                w.put_u8(3);
                nodes.pack(w);
                node_bytes.pack(w);
                work_per_hop.pack(w);
            }
            KernelSpec::Gather { table_bytes, index_bytes, fp_ops } => {
                w.put_u8(4);
                table_bytes.pack(w);
                index_bytes.pack(w);
                fp_ops.pack(w);
            }
            KernelSpec::Branchy { taken_prob, random_frac, work, working_set } => {
                w.put_u8(5);
                taken_prob.pack(w);
                random_frac.pack(w);
                work.pack(w);
                working_set.pack(w);
            }
        }
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(match r.take_u8("kernel spec tag")? {
            0 => KernelSpec::Stream {
                arrays: Pack::unpack(r)?,
                working_set: Pack::unpack(r)?,
                stride: Pack::unpack(r)?,
                fp_ops: Pack::unpack(r)?,
                store: Pack::unpack(r)?,
            },
            1 => KernelSpec::Stencil {
                taps: Pack::unpack(r)?,
                working_set: Pack::unpack(r)?,
                fp_ops: Pack::unpack(r)?,
            },
            2 => KernelSpec::Reduction { working_set: Pack::unpack(r)?, fp_mul: Pack::unpack(r)? },
            3 => KernelSpec::PointerChase {
                nodes: Pack::unpack(r)?,
                node_bytes: Pack::unpack(r)?,
                work_per_hop: Pack::unpack(r)?,
            },
            4 => KernelSpec::Gather {
                table_bytes: Pack::unpack(r)?,
                index_bytes: Pack::unpack(r)?,
                fp_ops: Pack::unpack(r)?,
            },
            5 => KernelSpec::Branchy {
                taken_prob: Pack::unpack(r)?,
                random_frac: Pack::unpack(r)?,
                work: Pack::unpack(r)?,
                working_set: Pack::unpack(r)?,
            },
            other => {
                return Err(chainiq_ckpt::CkptError::Corrupt {
                    context: format!("kernel spec tag {other}"),
                });
            }
        })
    }
}

impl chainiq_ckpt::Pack for KernelState {
    fn pack(&self, w: &mut chainiq_ckpt::Writer) {
        self.spec.pack(w);
        self.pc_base.pack(w);
        self.region.pack(w);
        self.iter.pack(w);
        self.chase_addr.pack(w);
    }
    fn unpack(r: &mut chainiq_ckpt::Reader<'_>) -> Result<Self, chainiq_ckpt::CkptError> {
        use chainiq_ckpt::Pack;
        Ok(KernelState {
            spec: Pack::unpack(r)?,
            pc_base: Pack::unpack(r)?,
            region: Pack::unpack(r)?,
            iter: Pack::unpack(r)?,
            chase_addr: Pack::unpack(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(spec: KernelSpec, iters: u64) -> Vec<Inst> {
        let mut state = KernelState::new(spec, 0x1000, 0x10_0000);
        let mut rng = Rng::seed_from_u64(7);
        let mut out = Vec::new();
        for i in 0..iters {
            state.emit_iteration(i + 1 < iters, &mut out, &mut rng);
        }
        out
    }

    #[test]
    fn stream_emits_expected_shape() {
        let insts = run(
            KernelSpec::Stream { arrays: 2, working_set: 4096, stride: 8, fp_ops: 2, store: true },
            1,
        );
        // add, 2 loads, 1 combine, 2 fp ops, store, backedge.
        assert_eq!(insts.len(), 8);
        assert_eq!(insts.iter().filter(|i| i.is_load()).count(), 2);
        assert_eq!(insts.iter().filter(|i| i.is_store()).count(), 1);
        assert!(insts.last().unwrap().is_branch());
    }

    #[test]
    fn stream_iterations_are_independent_in_memory() {
        let insts = run(
            KernelSpec::Stream {
                arrays: 1,
                working_set: 1 << 20,
                stride: 64,
                fp_ops: 0,
                store: false,
            },
            4,
        );
        let addrs: Vec<u64> =
            insts.iter().filter(|i| i.is_load()).map(|i| i.mem.unwrap().addr).collect();
        assert_eq!(addrs.len(), 4);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 64, "stride must advance per iteration");
        }
    }

    #[test]
    fn stream_wraps_at_working_set() {
        let insts = run(
            KernelSpec::Stream { arrays: 1, working_set: 128, stride: 64, fp_ops: 0, store: false },
            3,
        );
        let addrs: Vec<u64> =
            insts.iter().filter(|i| i.is_load()).map(|i| i.mem.unwrap().addr).collect();
        assert_eq!(addrs[0], addrs[2], "cursor must wrap at the working set");
    }

    #[test]
    fn backedge_taken_except_last() {
        let insts = run(KernelSpec::Reduction { working_set: 4096, fp_mul: false }, 3);
        let branches: Vec<bool> =
            insts.iter().filter(|i| i.is_branch()).map(|i| i.branch.unwrap().taken).collect();
        assert_eq!(branches, vec![true, true, false]);
    }

    #[test]
    fn reduction_has_loop_carried_fp_chain() {
        let insts = run(KernelSpec::Reduction { working_set: 4096, fp_mul: true }, 2);
        let accs: Vec<&Inst> = insts.iter().filter(|i| i.op == OpClass::FpMul).collect();
        assert_eq!(accs.len(), 2);
        // The accumulator is both source and destination.
        for a in accs {
            assert!(a.srcs().contains(&a.dest.unwrap()));
        }
    }

    #[test]
    fn pointer_chase_loads_depend_on_themselves() {
        let insts = run(KernelSpec::PointerChase { nodes: 64, node_bytes: 64, work_per_hop: 2 }, 3);
        let loads: Vec<&Inst> = insts.iter().filter(|i| i.is_load()).collect();
        assert_eq!(loads.len(), 3);
        for l in &loads {
            assert_eq!(l.dest, l.src1, "rp = *rp");
        }
        // Addresses stay within the node region.
        for l in &loads {
            let a = l.mem.unwrap().addr;
            assert!((0x10_0000..0x10_0000 + 64 * 64).contains(&a));
        }
    }

    #[test]
    fn gather_second_load_depends_on_first() {
        let insts =
            run(KernelSpec::Gather { table_bytes: 1 << 20, index_bytes: 4096, fp_ops: 1 }, 1);
        let loads: Vec<&Inst> = insts.iter().filter(|i| i.is_load()).collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[1].src1, loads[0].dest, "gather address depends on index load");
    }

    #[test]
    fn branchy_skips_then_block_when_taken() {
        // With random_frac = 1.0 and taken_prob = 1.0 every branch is taken.
        let taken = run(
            KernelSpec::Branchy { taken_prob: 1.0, random_frac: 1.0, work: 1, working_set: 4096 },
            1,
        );
        let not_taken = run(
            KernelSpec::Branchy { taken_prob: 0.0, random_frac: 1.0, work: 1, working_set: 4096 },
            1,
        );
        assert_eq!(not_taken.len(), taken.len() + 2, "fall-through executes the then-block");
    }

    #[test]
    fn branchy_mid_branch_targets_join_point() {
        let insts = run(
            KernelSpec::Branchy { taken_prob: 1.0, random_frac: 1.0, work: 0, working_set: 4096 },
            1,
        );
        let mid = insts.iter().find(|i| i.is_branch() && i.branch.unwrap().taken).unwrap();
        // Skips exactly the two then-block slots.
        assert_eq!(mid.branch.unwrap().target, mid.pc + 4 * 3);
    }

    #[test]
    fn pcs_are_stable_across_iterations() {
        let insts = run(
            KernelSpec::Stream { arrays: 1, working_set: 4096, stride: 8, fp_ops: 1, store: false },
            2,
        );
        let per_iter = insts.len() / 2;
        for k in 0..per_iter {
            assert_eq!(insts[k].pc, insts[k + per_iter].pc, "static PCs must repeat");
        }
    }
}
