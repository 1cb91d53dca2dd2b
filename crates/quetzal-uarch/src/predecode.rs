//! Static predecode: per-instruction [`MicroOp`] records.
//!
//! The timing model needs the same handful of facts about every dynamic
//! instruction — its [`InstClass`], which registers it reads and writes,
//! which functional-unit pool it occupies, whether it is a *conditional*
//! branch, and whether it touches memory. All of them are static: they
//! depend only on the instruction word, never on architectural state.
//! The seed simulator re-derived them per retired instruction by
//! matching the [`Instruction`] enum four times (`class`,
//! `for_each_use`, `for_each_def`, plus a branch `matches!`); this
//! module derives them **once per static instruction** into a flat
//! [`Predecode`] table the hot loop indexes by `pc`.
//!
//! # Hot-path invariants (timing neutrality)
//!
//! The records must reproduce the seed behaviour *bit-identically*:
//!
//! * `uses` is an **ordered** list, in exactly
//!   [`Instruction::for_each_use`] operand order, duplicates included.
//!   [`crate::ooo::OooTiming`] attributes a stall to the **last**
//!   visited source register whose ready time ties the maximum (it
//!   compares with `>=`), so reordering or deduplicating the uses would
//!   silently change stall attribution.
//! * At most [`MAX_USES`] sources and one destination exist across the
//!   whole ISA; `decode` asserts this, so an ISA extension that grows a
//!   wider instruction fails loudly instead of truncating.
//! * `is_cond_branch` is true only for [`Instruction::Branch`] —
//!   `Jump` shares [`InstClass::Branch`] but never consults the branch
//!   predictor.

use quetzal_isa::{InstClass, Instruction, Program, Reg};

/// Maximum sources any instruction reads (`VAluVV`/`VScatter`: 4).
pub const MAX_USES: usize = 4;

/// Sentinel for "no destination register".
pub const NO_DEF: u8 = u8::MAX;

/// Functional-unit pool an instruction's execution occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuClass {
    /// Scalar ALU pool (also branches and predicate ops).
    Scalar,
    /// Vector FU pool (also the count ALU of `qzcount`).
    Vector,
    /// Load ports.
    Load,
    /// Store ports.
    Store,
    /// The serial indexed-access (gather/scatter) pipe.
    GatherPipe,
    /// The QBUFFER read port.
    QzPort,
    /// No execution resource (commit-time or free).
    None,
}

/// Everything the timing model needs to know about one static
/// instruction, precomputed. 8 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Timing class.
    pub class: InstClass,
    /// Functional-unit pool (derived from `class`; kept explicit so the
    /// timing code reads one record, not a second match).
    pub fu: FuClass,
    /// Number of live entries in `uses`.
    pub n_uses: u8,
    /// Flat source-register indices, in `for_each_use` order.
    pub uses: [u8; MAX_USES],
    /// Flat destination-register index, or [`NO_DEF`].
    pub def: u8,
    /// Conditional branch (consults the predictor); `Jump` does not.
    pub is_cond_branch: bool,
    /// Whether the instruction produces demand memory accesses.
    pub touches_mem: bool,
}

impl MicroOp {
    /// Decodes one instruction. Pure: same input, same record.
    pub fn decode(inst: &Instruction) -> MicroOp {
        let class = inst.class();
        let mut uses = [0u8; MAX_USES];
        let mut n_uses = 0usize;
        inst.for_each_use(|r: Reg| {
            assert!(
                n_uses < MAX_USES,
                "instruction reads more than {MAX_USES} registers"
            );
            uses[n_uses] = r.flat_index() as u8;
            n_uses += 1;
        });
        let mut def = NO_DEF;
        inst.for_each_def(|r: Reg| {
            assert_eq!(def, NO_DEF, "instruction writes more than one register");
            def = r.flat_index() as u8;
        });
        MicroOp {
            class,
            fu: fu_of(class),
            n_uses: n_uses as u8,
            uses,
            def,
            is_cond_branch: matches!(inst, Instruction::Branch { .. }),
            touches_mem: matches!(
                class,
                InstClass::ScalarLoad
                    | InstClass::ScalarStore
                    | InstClass::VectorLoad
                    | InstClass::VectorStore
                    | InstClass::Gather
                    | InstClass::Scatter
            ),
        }
    }

    /// The live prefix of `uses`.
    #[inline]
    pub fn uses(&self) -> &[u8] {
        &self.uses[..self.n_uses as usize]
    }
}

/// Unit pool by class (the pairing the seed timing model hard-coded in
/// its retire match).
fn fu_of(class: InstClass) -> FuClass {
    match class {
        InstClass::ScalarAlu | InstClass::ScalarMul | InstClass::Branch | InstClass::Predicate => {
            FuClass::Scalar
        }
        InstClass::VectorAlu
        | InstClass::VectorMul
        | InstClass::VectorHorizontal
        | InstClass::QzCountOp => FuClass::Vector,
        InstClass::ScalarLoad | InstClass::VectorLoad => FuClass::Load,
        InstClass::ScalarStore | InstClass::VectorStore => FuClass::Store,
        InstClass::Gather | InstClass::Scatter => FuClass::GatherPipe,
        InstClass::QzRead => FuClass::QzPort,
        InstClass::QzWrite | InstClass::QzConfig | InstClass::Halt => FuClass::None,
    }
}

/// The per-program micro-op table, indexed by `pc`.
#[derive(Debug, Clone)]
pub struct Predecode {
    ops: Vec<MicroOp>,
}

impl Predecode {
    /// Decodes every instruction of `program` once.
    pub fn of(program: &Program) -> Predecode {
        Predecode {
            ops: program.instructions().iter().map(MicroOp::decode).collect(),
        }
    }

    /// Record for the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn op(&self, pc: usize) -> &MicroOp {
        &self.ops[pc]
    }

    /// Number of records (== program length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::*;

    #[test]
    fn decode_matches_for_each_use_order_and_def() {
        let inst = Instruction::VAluVV {
            op: VAluOp::Add,
            vd: V1,
            vn: V2,
            vm: V3,
            pg: P0,
            esize: ElemSize::B64,
        };
        let u = MicroOp::decode(&inst);
        let mut expect = Vec::new();
        inst.for_each_use(|r| expect.push(r.flat_index() as u8));
        assert_eq!(u.uses(), expect.as_slice());
        let mut def = None;
        inst.for_each_def(|r| def = Some(r.flat_index() as u8));
        assert_eq!(u.def, def.unwrap());
        assert_eq!(u.class, InstClass::VectorAlu);
        assert_eq!(u.fu, FuClass::Vector);
        assert!(!u.is_cond_branch);
        assert!(!u.touches_mem);
    }

    #[test]
    fn every_instruction_class_gets_consistent_records() {
        // A program touching every class; decode must agree with the
        // dynamic for_each_* walk on each one.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 4);
        b.alu_rr(SAluOp::Mul, X1, X0, X0);
        b.load(X2, X0, 0, MemSize::B8);
        b.store(X2, X0, 8, MemSize::B8);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X0, 1, ElemSize::B64);
        b.vgather(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.vscatter(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.vreduce(RedOp::Add, X3, V1, P0, ElemSize::B64);
        b.qzload(V2, V0, QBufSel::Q0, P0);
        b.qzcount(V3, V2, V2);
        b.halt();
        let p = b.build().unwrap();
        let pre = Predecode::of(&p);
        assert_eq!(pre.len(), p.len());
        for (pc, inst) in p.instructions().iter().enumerate() {
            let u = pre.op(pc);
            assert_eq!(u.class, inst.class(), "class at pc {pc}");
            let mut uses = Vec::new();
            inst.for_each_use(|r| uses.push(r.flat_index() as u8));
            assert_eq!(u.uses(), uses.as_slice(), "uses at pc {pc}");
            assert_eq!(
                u.is_cond_branch,
                matches!(inst, Instruction::Branch { .. }),
                "branch-ness at pc {pc}"
            );
        }
    }

    #[test]
    fn cond_branch_flag_distinguishes_branch_from_jump() {
        let br = Instruction::Branch {
            cond: BranchCond::Lt,
            rn: X0,
            rm: X1,
            target: 0,
        };
        let jmp = Instruction::Jump { target: 0 };
        assert!(MicroOp::decode(&br).is_cond_branch);
        assert!(!MicroOp::decode(&jmp).is_cond_branch);
        assert_eq!(MicroOp::decode(&jmp).class, InstClass::Branch);
    }
}
