//! Tests of the functional execution mode ([`ExecMode::Functional`]).
//!
//! Both modes run through one per-instruction loop and differ only in
//! the timing sink, so agreement between them no longer tests dispatch
//! by itself. Each test here therefore runs its program on both modes
//! and asserts a hand-computed outcome. The test names are those of the
//! engine-agreement tests written for the superblock tier that these
//! programs first exercised.
//!
//! [`ExecMode::Functional`]: crate::ExecMode::Functional

#[cfg(test)]
mod tests {
    use crate::interp::tests::{assert_budget_sweep, run_both_engines};
    use crate::SimError;
    use quetzal_isa::*;

    #[test]
    fn compiled_loop_matches_interpreter_at_every_budget() {
        // 3 setup + 10 iterations x 3 + halt.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 0);
        b.mov_imm(X2, 10);
        b.bind(top);
        b.alu_rr(SAluOp::Add, X1, X1, X0);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        assert_budget_sweep(&b.build().unwrap(), 34, Ok(34));
    }

    #[test]
    fn superblocks_chain_across_unconditional_edges() {
        // mov / jump / mov / jump / halt: every jump is a counted
        // instruction.
        let chain = Program::from_raw(
            vec![
                Instruction::MovImm { rd: X0, imm: 1 },
                Instruction::Jump { target: 2 },
                Instruction::MovImm { rd: X1, imm: 2 },
                Instruction::Jump { target: 4 },
                Instruction::Halt,
            ],
            "chain",
        );
        assert_budget_sweep(&chain, 5, Ok(5));
        let (out, snap) = run_both_engines(&|_| {}, &chain, &[]);
        assert_eq!(out, Ok(()));
        assert_eq!(snap.0[..2], [1, 2]);
    }

    #[test]
    fn static_lane_fault_matches_interpreter() {
        let p = Program::from_raw(
            vec![
                Instruction::VExtract {
                    rd: X0,
                    vn: V0,
                    lane: 63,
                    esize: ElemSize::B64,
                },
                Instruction::Halt,
            ],
            "bad-lane",
        );
        let (out, _) = run_both_engines(&|_| {}, &p, &[]);
        assert_eq!(out, Err(SimError::InvalidRegister { index: 63, pc: 0 }));
    }

    #[test]
    fn page_budget_fault_matches_interpreter() {
        // A store loop that touches a new 4 KiB page per iteration: the
        // ninth store faults with the eight budgeted pages resident.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0x10_0000);
        b.mov_imm(X1, 0x10_0000 + 4096 * 64);
        b.bind(top);
        b.store(X0, X0, 0, MemSize::B8);
        b.alu_ri(SAluOp::Add, X0, X0, 4096);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        let p = b.build().unwrap();
        let (out, snap) = run_both_engines(&|st| st.mem.set_page_budget(8), &p, &[]);
        assert_eq!(
            out,
            Err(SimError::MemoryFault {
                addr: 0x10_0000 + 8 * 4096,
                pc: 2
            })
        );
        assert_eq!(snap.3, 8);
    }

    #[test]
    fn qbuffer_kernel_matches_interpreter() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X4, 128);
        b.mov_imm(X5, 2);
        b.qzconf(X4, X4, X5);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X6, 1, ElemSize::B64);
        b.dup_imm(V1, 9, ElemSize::B64);
        b.qzstore(V1, V0, QBufSel::Q0, P0);
        b.qzupdate(QzOp::Add, V1, V0, QBufSel::Q0, P0);
        b.qzload(V2, V0, QBufSel::Q0, P0);
        b.qzmhm(QzOp::Count, V3, V0, V0, P0);
        b.halt();
        let (out, snap) = run_both_engines(&|_| {}, &b.build().unwrap(), &[]);
        assert_eq!(out, Ok(()));
        let lanes = |v: usize| -> Vec<u64> {
            snap.1[v]
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        // Bins 0..8 each hold the stored 9 plus the added 9.
        assert_eq!(lanes(2), [18; 8]);
        // Q1 is empty, so every lane's first element (18 against 0)
        // already differs: no matches.
        assert_eq!(lanes(3), [0; 8]);
    }

    #[test]
    fn invalid_qzconf_faults_identically() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X4, 128);
        b.mov_imm(X5, 777);
        b.qzconf(X4, X4, X5);
        b.halt();
        let (out, _) = run_both_engines(&|_| {}, &b.build().unwrap(), &[]);
        assert_eq!(out, Err(SimError::InvalidQzConf { esiz: 777, pc: 2 }));
    }
}
