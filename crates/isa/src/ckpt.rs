//! [`Pack`] impls for the ISA value types, so every component snapshot
//! can embed instructions and registers without re-deriving an encoding.

use chainiq_ckpt::{pack_enum, pack_fields, CkptError, Pack, Reader, Writer};

use crate::{ArchReg, BranchInfo, Inst, MemInfo, OpClass, NUM_ARCH_REGS};

impl Pack for ArchReg {
    fn pack(&self, w: &mut Writer) {
        w.put_u8(self.index() as u8);
    }
    fn unpack(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let idx = r.take_u8("arch reg")?;
        if usize::from(idx) >= NUM_ARCH_REGS {
            return Err(CkptError::Corrupt { context: format!("arch reg index {idx}") });
        }
        Ok(ArchReg::from_index(usize::from(idx)))
    }
}

pack_enum!(OpClass, "op class" {
    IntAlu = 0,
    IntMul = 1,
    IntDiv = 2,
    FpAdd = 3,
    FpMul = 4,
    FpDiv = 5,
    FpSqrt = 6,
    Load = 7,
    Store = 8,
    Branch = 9,
});
pack_fields!(MemInfo { addr, size });
pack_fields!(BranchInfo { taken, target, unconditional });
pack_fields!(Inst { pc, op, dest, src1, src2, mem, branch });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_round_trips() {
        let insts = vec![
            Inst::alu(0x10, ArchReg::int(3), &[ArchReg::int(1), ArchReg::int(2)]),
            Inst::load(0x14, ArchReg::int(4), ArchReg::int(5), 0xAB0),
            Inst::store(0x18, ArchReg::int(4), ArchReg::int(5), 0xAB8),
            Inst::branch(0x1C, Some(ArchReg::int(1)), true, 0x40),
            Inst::jump(0x20, 0x80),
            Inst::compute(0x24, OpClass::FpSqrt, ArchReg::fp(0), &[ArchReg::fp(1)]),
        ];
        let mut w = Writer::new();
        insts.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Vec::<Inst>::unpack(&mut r).unwrap(), insts);
        assert!(r.is_exhausted());
    }

    #[test]
    fn every_op_class_round_trips() {
        for op in OpClass::ALL {
            let mut w = Writer::new();
            op.pack(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(OpClass::unpack(&mut Reader::new(&bytes)).unwrap(), op);
        }
    }

    #[test]
    fn out_of_range_reg_and_op_are_corrupt() {
        let bytes = [200u8];
        assert!(matches!(
            ArchReg::unpack(&mut Reader::new(&bytes)),
            Err(CkptError::Corrupt { .. })
        ));
        assert!(matches!(
            OpClass::unpack(&mut Reader::new(&bytes)),
            Err(CkptError::Corrupt { .. })
        ));
    }
}
