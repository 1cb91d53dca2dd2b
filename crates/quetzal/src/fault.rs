//! Deterministic fault injection against the machine boundary.
//!
//! [`FaultPlan`] generates seeded adversarial cases: a valid base kernel
//! is drawn, its image is truncated / mutated / spliced with random
//! instructions ([`Program::from_raw`] deliberately bypasses the
//! builder's validation), architectural registers are loaded with
//! extreme operands, and QBUFFER SRAM cells take soft-error bit flips.
//! The contract under test — pinned by `tests/fault_injection.rs` and
//! enforced in CI — is that *every* such case terminates within budget
//! as either `Ok` or a typed [`SimError`](crate::SimError): no panics,
//! no hangs, no host-memory blowups.
//!
//! Everything is a pure function of `(seed, case index)`, so a failing
//! case replays exactly from its number.

use crate::{Budgets, Machine, HEAP_BASE};
use quetzal_genomics::rng::SplitMix64;
use quetzal_isa::{
    BranchCond, ElemSize, Instruction, MemSize, PReg, Program, ProgramBuilder, QBufSel, QzOp,
    RedOp, SAluOp, VAluOp, VReg, XReg,
};

/// The sweep's watchdogs, applied after [`FaultPlan::stage`] (staging
/// writes go through the page cap). Staged machines allocate a few KiB
/// (tens of pages at most), so a wild store loop sweeping a large
/// stride exhausts the 512-page cap — and surfaces `MemoryFault` — well
/// before the 20 000-instruction budget does; the 2 000 000-cycle
/// watchdog catches timing-model runaways. A served fault case runs
/// under these too, so it reproduces the sweep's outcome exactly.
pub const SWEEP_BUDGETS: Budgets = Budgets {
    instructions: Some(20_000),
    cycles: Some(2_000_000),
    pages: Some(512),
};

const SOPS: [SAluOp; 13] = [
    SAluOp::Add,
    SAluOp::Sub,
    SAluOp::Mul,
    SAluOp::And,
    SAluOp::Or,
    SAluOp::Xor,
    SAluOp::Shl,
    SAluOp::Shr,
    SAluOp::Sar,
    SAluOp::Min,
    SAluOp::Max,
    SAluOp::SetLt,
    SAluOp::SetEq,
];

const VOPS: [VAluOp; 10] = [
    VAluOp::Add,
    VAluOp::Sub,
    VAluOp::Mul,
    VAluOp::And,
    VAluOp::Or,
    VAluOp::Xor,
    VAluOp::Smin,
    VAluOp::Smax,
    VAluOp::Shl,
    VAluOp::Shr,
];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Le,
    BranchCond::Gt,
    BranchCond::Ge,
];

const QOPS: [QzOp; 7] = [
    QzOp::Count,
    QzOp::Add,
    QzOp::Sub,
    QzOp::CmpEq,
    QzOp::Min,
    QzOp::Max,
    QzOp::Mul,
];

const ROPS: [RedOp; 3] = [RedOp::Add, RedOp::Min, RedOp::Max];
const ESIZES: [ElemSize; 4] = [ElemSize::B8, ElemSize::B16, ElemSize::B32, ElemSize::B64];
const MSIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
const SELS: [QBufSel; 2] = [QBufSel::Q0, QBufSel::Q1];

/// Adversarial operand values: zero, units, extremes of both
/// signednesses, heap-adjacent pointers and a deep unmapped address.
const EXTREMES: [u64; 10] = [
    0,
    1,
    7,
    63,
    u64::MAX,
    i64::MIN as u64,
    i64::MAX as u64,
    HEAP_BASE,
    HEAP_BASE + 4096,
    1 << 40,
];

fn xr(rng: &mut SplitMix64) -> XReg {
    XReg::new(rng.below(32) as u8)
}

fn vr(rng: &mut SplitMix64) -> VReg {
    VReg::new(rng.below(32) as u8)
}

fn pr(rng: &mut SplitMix64) -> PReg {
    PReg::new(rng.below(16) as u8)
}

fn imm(rng: &mut SplitMix64) -> i64 {
    const IMMS: [i64; 8] = [0, 1, -1, 64, -4096, i64::MIN, i64::MAX, HEAP_BASE as i64];
    if rng.chance(0.5) {
        *rng.pick(&IMMS)
    } else {
        rng.next_u64() as i64
    }
}

/// One random instruction with type-valid but otherwise unconstrained
/// fields: branch targets may leave the program, lane indices may exceed
/// the element count, QBUFFER indices may be misaligned. `len` bounds
/// the *plausible* branch-target range (targets up to `2 * len` are
/// drawn, so roughly half are out of range).
///
/// Public so the verifier's property fuzz can generate whole random
/// programs from the same instruction distribution the sweep mutates
/// with.
pub fn random_instruction(rng: &mut SplitMix64, len: usize) -> Instruction {
    let target_range = (2 * len.max(1)) as u64;
    match rng.below(24) {
        0 => Instruction::MovImm {
            rd: xr(rng),
            imm: imm(rng),
        },
        1 => Instruction::AluRR {
            op: *rng.pick(&SOPS),
            rd: xr(rng),
            rn: xr(rng),
            rm: xr(rng),
        },
        2 => Instruction::AluRI {
            op: *rng.pick(&SOPS),
            rd: xr(rng),
            rn: xr(rng),
            imm: imm(rng),
        },
        3 => Instruction::Load {
            rd: xr(rng),
            rn: xr(rng),
            offset: imm(rng),
            size: *rng.pick(&MSIZES),
        },
        4 => Instruction::Store {
            rs: xr(rng),
            rn: xr(rng),
            offset: imm(rng),
            size: *rng.pick(&MSIZES),
        },
        5 => Instruction::Branch {
            cond: *rng.pick(&CONDS),
            rn: xr(rng),
            rm: xr(rng),
            target: rng.below(target_range) as usize,
        },
        6 => Instruction::Jump {
            target: rng.below(target_range) as usize,
        },
        7 => Instruction::Dup {
            vd: vr(rng),
            rn: xr(rng),
            esize: *rng.pick(&ESIZES),
        },
        8 => Instruction::Index {
            vd: vr(rng),
            rn: xr(rng),
            step: imm(rng),
            esize: *rng.pick(&ESIZES),
        },
        9 => Instruction::VAluVV {
            op: *rng.pick(&VOPS),
            vd: vr(rng),
            vn: vr(rng),
            vm: vr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
        },
        10 => Instruction::VCmpVI {
            cond: *rng.pick(&CONDS),
            pd: pr(rng),
            vn: vr(rng),
            imm: imm(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
        },
        11 => Instruction::VLoad {
            vd: vr(rng),
            rn: xr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
        },
        12 => Instruction::VStore {
            vs: vr(rng),
            rn: xr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
        },
        13 => Instruction::VGather {
            vd: vr(rng),
            rn: xr(rng),
            idx: vr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
            msize: *rng.pick(&MSIZES),
            scale: rng.below(16) as u8,
        },
        14 => Instruction::VScatter {
            vs: vr(rng),
            rn: xr(rng),
            idx: vr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
            msize: *rng.pick(&MSIZES),
            scale: rng.below(16) as u8,
        },
        15 => Instruction::VReduce {
            op: *rng.pick(&ROPS),
            rd: xr(rng),
            vn: vr(rng),
            pg: pr(rng),
            esize: *rng.pick(&ESIZES),
        },
        16 => Instruction::VExtract {
            rd: xr(rng),
            vn: vr(rng),
            lane: rng.next_u64() as u8,
            esize: *rng.pick(&ESIZES),
        },
        17 => Instruction::VInsert {
            vd: vr(rng),
            rn: xr(rng),
            lane: rng.next_u64() as u8,
            esize: *rng.pick(&ESIZES),
        },
        18 => Instruction::PWhileLt {
            pd: pr(rng),
            rn: xr(rng),
            esize: *rng.pick(&ESIZES),
        },
        19 => Instruction::QzConf {
            eb0: xr(rng),
            eb1: xr(rng),
            esiz: xr(rng),
        },
        20 => Instruction::QzEncode {
            sel: *rng.pick(&SELS),
            val: vr(rng),
            idx: xr(rng),
        },
        21 => Instruction::QzStore {
            val: vr(rng),
            idx: vr(rng),
            sel: *rng.pick(&SELS),
            pg: pr(rng),
        },
        22 => Instruction::QzMhm {
            op: *rng.pick(&QOPS),
            vd: vr(rng),
            idx0: vr(rng),
            idx1: vr(rng),
            pg: pr(rng),
        },
        _ => Instruction::QzMm {
            op: *rng.pick(&QOPS),
            vd: vr(rng),
            val: vr(rng),
            idx: vr(rng),
            sel: *rng.pick(&SELS),
            pg: pr(rng),
        },
    }
}

/// Scalar loop kernel: sum 0..n with a backward branch.
fn scalar_kernel(rng: &mut SplitMix64) -> Program {
    let n = 1 + rng.below(64) as i64;
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.mov_imm(X0, 0);
    b.mov_imm(X1, 0);
    b.mov_imm(X2, n);
    b.bind(top);
    b.alu_rr(SAluOp::Add, X1, X1, X0);
    b.alu_ri(SAluOp::Add, X0, X0, 1);
    b.branch(BranchCond::Lt, X0, X2, top);
    b.halt();
    b.build().expect("scalar base kernel")
}

/// Vector compute kernel: index/ALU/compare/select/reduce/slides.
fn vector_kernel(rng: &mut SplitMix64) -> Program {
    let esize = *rng.pick(&ESIZES);
    let mut b = ProgramBuilder::new();
    b.ptrue(P0, esize);
    b.mov_imm(X0, rng.i64_in(-8, 8));
    b.index(V0, X0, rng.i64_in(1, 4), esize);
    b.dup_imm(V1, rng.i64_in(-100, 100), esize);
    b.valu_vv(*rng.pick(&VOPS), V2, V0, V1, P0, esize);
    b.vcmp_vi(*rng.pick(&CONDS), P1, V2, rng.i64_in(-10, 10), P0, esize);
    b.vsel(V3, P1, V2, V0, esize);
    b.vslidedown(V4, V3, rng.below(8) as u8, esize);
    b.vreduce(*rng.pick(&ROPS), X1, V4, P0, esize);
    b.halt();
    b.build().expect("vector base kernel")
}

/// Strided memory kernel over a staged heap buffer.
fn memory_kernel(rng: &mut SplitMix64, machine: &mut Machine) -> Program {
    let buf = machine.alloc(4096);
    let data: Vec<u8> = (0..4096u64).map(|i| (i ^ rng.next_u64()) as u8).collect();
    machine.write_bytes(buf, &data);
    // The address also advances by X10, which the kernel deliberately
    // leaves uninitialized (zero on a clean machine). When operand
    // corruption loads it with an extreme value, every iteration lands
    // on a fresh page and the sweep's small page budget surfaces
    // `MemoryFault`; enough iterations are used that this happens
    // before `InstLimit` masks it.
    let iters = 64 + rng.below(960) as i64;
    let stride = 8 << rng.below(4);
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.mov_imm(X0, buf as i64);
    b.mov_imm(X1, 0);
    b.mov_imm(X2, iters);
    b.ptrue(P0, ElemSize::B8);
    b.bind(top);
    b.vload(V0, X0, P0, ElemSize::B8);
    b.load(X3, X0, 0, MemSize::B8);
    b.alu_ri(SAluOp::Add, X3, X3, 1);
    b.store(X3, X0, 0, MemSize::B8);
    b.vstore(V0, X0, P0, ElemSize::B8);
    b.alu_ri(SAluOp::Add, X0, X0, stride);
    b.alu_rr(SAluOp::Add, X0, X0, X10);
    b.alu_ri(SAluOp::Add, X1, X1, 1);
    b.branch(BranchCond::Lt, X1, X2, top);
    b.halt();
    b.build().expect("memory base kernel")
}

/// Gather/scatter kernel over a staged lookup table.
fn gather_kernel(rng: &mut SplitMix64, machine: &mut Machine) -> Program {
    let table = machine.alloc(64 * 8);
    for i in 0..64 {
        machine.write_u64(table + i * 8, rng.next_u64());
    }
    let mut b = ProgramBuilder::new();
    b.mov_imm(X0, table as i64);
    b.ptrue(P0, ElemSize::B64);
    b.mov_imm(X1, rng.i64_in(0, 8));
    b.index(V0, X1, rng.i64_in(1, 7), ElemSize::B64);
    b.vgather(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
    b.valu_vi(VAluOp::Xor, V1, V1, 0x55, P0, ElemSize::B64);
    b.vscatter(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
    b.vreduce(RedOp::Add, X2, V1, P0, ElemSize::B64);
    b.halt();
    b.build().expect("gather base kernel")
}

/// QUETZAL kernel: configure, encode from memory, then the read/write/
/// match-count instruction family.
fn qz_kernel(rng: &mut SplitMix64, machine: &mut Machine) -> Program {
    let seq_addr = machine.alloc(64);
    let seq: Vec<u8> = (0..64)
        .map(|i| b"ACGT"[((i as u64 + rng.below(4)) % 4) as usize])
        .collect();
    machine.write_bytes(seq_addr, &seq);
    let esiz_field = rng.below(3) as i64; // valid E2/E8/E64
    let mut b = ProgramBuilder::new();
    b.mov_imm(X0, 128).mov_imm(X1, 128).mov_imm(X2, esiz_field);
    b.qzconf(X0, X1, X2);
    b.mov_imm(X3, seq_addr as i64);
    b.ptrue(P0, ElemSize::B8);
    b.vload(V0, X3, P0, ElemSize::B8);
    // Aligned for every mode (32-, 8- and 1-element alignment).
    b.mov_imm(X4, 32 * rng.i64_in(0, 3));
    b.qzencode(QBufSel::Q0, V0, X4);
    b.ptrue(P1, ElemSize::B64);
    b.mov_imm(X5, rng.i64_in(0, 16));
    b.index(V1, X5, 1, ElemSize::B64);
    b.qzload(V2, V1, QBufSel::Q0, P1);
    b.qzmhm(*rng.pick(&QOPS), V3, V1, V1, P1);
    b.qzstore(V2, V1, QBufSel::Q1, P1);
    b.qzupdate(QzOp::Add, V2, V1, QBufSel::Q1, P1);
    b.qzcount(V4, V2, V3);
    b.halt();
    b.build().expect("qz base kernel")
}

use quetzal_isa::{P0, P1, V0, V1, V2, V3, V4, X0, X1, X10, X2, X3, X4, X5};

/// A seeded generator of adversarial simulation cases.
///
/// Each case is deterministic in `(seed, case)`: the same pair always
/// yields the same mutated program and the same staged machine state.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
}

/// What [`FaultPlan::stage`] did to the case's base kernel — returned so
/// sweeps can tally coverage per mutation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Image cut short (often removing the trailing `halt`).
    Truncated,
    /// One instruction overwritten with a random one.
    Mutated,
    /// A random instruction spliced in.
    Inserted,
    /// Program left intact; only operands / SRAM were corrupted.
    OperandsOnly,
}

impl FaultPlan {
    /// Creates a plan from a sweep seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed }
    }

    /// Builds case number `case`: stages adversarial state on `machine`
    /// (which should be freshly reset) and returns the program to run
    /// plus the mutation class applied. The caller applies the budgets
    /// afterwards (normally [`SWEEP_BUDGETS`]) — faults must surface as
    /// typed errors within them.
    pub fn stage(&self, case: u64, machine: &mut Machine) -> (Program, Mutation) {
        let mut rng = SplitMix64::new(
            self.seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case),
        );

        let base = match rng.below(5) {
            0 => scalar_kernel(&mut rng),
            1 => vector_kernel(&mut rng),
            2 => memory_kernel(&mut rng, machine),
            3 => gather_kernel(&mut rng, machine),
            _ => qz_kernel(&mut rng, machine),
        };

        let mut insts = base.instructions().to_vec();
        let mutation = match rng.below(4) {
            0 => {
                let keep = 1 + rng.below(insts.len() as u64 - 1) as usize;
                insts.truncate(keep);
                Mutation::Truncated
            }
            1 => {
                let at = rng.below(insts.len() as u64) as usize;
                insts[at] = random_instruction(&mut rng, insts.len());
                Mutation::Mutated
            }
            2 => {
                let at = rng.below(insts.len() as u64 + 1) as usize;
                let inst = random_instruction(&mut rng, insts.len() + 1);
                insts.insert(at, inst);
                Mutation::Inserted
            }
            _ => Mutation::OperandsOnly,
        };

        // Adversarial operands: overwrite a handful of architectural
        // registers with extreme values. Base kernels re-stage their own
        // pointers with `mov_imm`, so this only bites mutated dataflow —
        // exactly the corruption we want to model.
        let state = machine.core_mut().state_mut();
        for _ in 0..rng.below(8) {
            state.set_x(xr(&mut rng), *rng.pick(&EXTREMES));
        }
        for _ in 0..rng.below(4) {
            let v = vr(&mut rng);
            for lane in 0..8 {
                state.set_v_elem(v, lane, ElemSize::B64, *rng.pick(&EXTREMES));
            }
        }
        for _ in 0..rng.below(3) {
            let p = pr(&mut rng);
            state.set_p(p, rng.next_u64());
        }

        // QBUFFER soft errors: flip up to eight SRAM bits per buffer
        // draw. `flip_bit` wraps, so any (word, bit) pair is a cell.
        if rng.chance(0.5) {
            for _ in 0..(1 + rng.below(8)) {
                let sel = rng.below(2) as usize;
                let word = rng.next_u64() as usize;
                let bit = rng.next_u64() as u32;
                state.qz.buf_mut(sel).flip_bit(word, bit);
            }
        }

        (
            Program::from_raw(insts, format!("fault-case-{case}")),
            mutation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn staging_is_deterministic() {
        let plan = FaultPlan::new(0xF417);
        for case in 0..32 {
            let mut m1 = Machine::new(MachineConfig::default());
            let mut m2 = Machine::new(MachineConfig::default());
            let (p1, k1) = plan.stage(case, &mut m1);
            let (p2, k2) = plan.stage(case, &mut m2);
            assert_eq!(p1.instructions(), p2.instructions(), "case {case}");
            assert_eq!(k1, k2);
            assert_eq!(
                m1.core().state().x(quetzal_isa::X7),
                m2.core().state().x(quetzal_isa::X7)
            );
        }
    }

    #[test]
    fn plan_produces_every_mutation_class() {
        let plan = FaultPlan::new(1);
        let mut seen = [false; 4];
        for case in 0..64 {
            let mut m = Machine::new(MachineConfig::default());
            let (_, mutation) = plan.stage(case, &mut m);
            seen[match mutation {
                Mutation::Truncated => 0,
                Mutation::Mutated => 1,
                Mutation::Inserted => 2,
                Mutation::OperandsOnly => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4], "64 cases must cover all mutations");
    }
}
