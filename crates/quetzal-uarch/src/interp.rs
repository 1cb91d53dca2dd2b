//! Instruction semantics, the cycle-level interpreter loop, and the
//! [`Core`] facade.
//!
//! `step` is the single implementation of the ISA's data semantics
//! (vector instructions really compute), shared by both engines. The
//! cycle-level loop fetches each instruction, resolves control flow,
//! executes the rest through `step` and retires one [`DynInst`] per
//! instruction into [`OooTiming`], yielding an execution-driven,
//! cycle-level simulation. The compiled functional tier
//! ([`crate::functional`]) drives the same `step` with its timing
//! hooks compiled out.
//!
//! Because the engines share `step`, the differential suites between
//! them check decode, dispatch, control flow and budget accounting, not
//! semantics. Semantics are checked against independent oracles: the
//! Rust restatements in this module's seeded `proptests`, the 116k-pair
//! host-DP sweep in `tests/properties.rs`, and `tests/accelerator.rs`.

use crate::config::CoreConfig;
use crate::functional::{CompiledCache, ExecMode};
use crate::ooo::{DynInst, OooTiming};
use crate::predecode::{DecodeCache, Predecode};
use crate::probe::{NullProbe, Probe};
use crate::state::{truncate, ArchState};
use crate::stats::RunStats;
use quetzal_accel::count_alu::{qzcount_vector, COUNT_ALU_LATENCY};
use quetzal_isa::{
    ElemSize, Instruction, PReg, Program, RedOp, VAluOp, VReg, LANES_64, VLEN_BYTES,
};

/// Errors raised during simulation.
///
/// Every variant carries enough context to locate the faulting dynamic
/// instruction. This is the complete *guest-visible* failure taxonomy:
/// anything a guest program can trigger surfaces as one of these, never
/// as a panic (the fault-injection sweep in `tests/fault_injection.rs`
/// enforces that). True simulator-internal invariants stay
/// `debug_assert!`s; see DESIGN.md "Failure model & fault injection".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The instruction budget was exhausted (runaway kernel loop).
    InstLimit {
        /// The configured budget.
        budget: u64,
    },
    /// The timing-side cycle watchdog fired: the clock advanced past the
    /// configured cycle budget. Distinct from [`SimError::InstLimit`] —
    /// this catches a *timing-model* livelock (pathological structural
    /// stalls) even when the retired-instruction count stays small.
    CycleLimit {
        /// The configured cycle budget.
        budget: u64,
    },
    /// `qzconf` was executed with an invalid element-size field.
    InvalidQzConf {
        /// The offending `Esiz` value.
        esiz: u64,
        /// Program counter of the instruction.
        pc: usize,
    },
    /// The program counter left the program: sequential execution fell
    /// off the end, or a corrupted branch/jump target pointed outside
    /// the instruction stream (truncated or mutated program image).
    DecodeError {
        /// The out-of-range program counter.
        pc: usize,
    },
    /// A lane index encoded in the instruction is out of range for its
    /// element size (`vextract`/`vinsert` with `lane >= lanes(esize)`).
    InvalidRegister {
        /// The offending lane index.
        index: u8,
        /// Program counter of the instruction.
        pc: usize,
    },
    /// A store touched more distinct memory pages than the simulated
    /// memory's page budget allows — the guest scribbled over an
    /// adversarial address range instead of its staged working set.
    MemoryFault {
        /// The faulting (first unmappable) address.
        addr: u64,
        /// Program counter of the instruction.
        pc: usize,
    },
    /// `qzencode` was executed with an element index that violates the
    /// configured encoding's alignment contract.
    QBufferIndexOutOfRange {
        /// The offending element index.
        idx: u64,
        /// Program counter of the instruction.
        pc: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InstLimit { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            SimError::CycleLimit { budget } => {
                write!(f, "cycle budget of {budget} exhausted (timing watchdog)")
            }
            SimError::InvalidQzConf { esiz, pc } => {
                write!(f, "invalid qzconf element size {esiz} at pc {pc}")
            }
            SimError::DecodeError { pc } => {
                write!(f, "program counter {pc} outside program")
            }
            SimError::InvalidRegister { index, pc } => {
                write!(f, "lane index {index} out of range at pc {pc}")
            }
            SimError::MemoryFault { addr, pc } => {
                write!(
                    f,
                    "memory fault at address {addr:#x} (pc {pc}): page budget exceeded"
                )
            }
            SimError::QBufferIndexOutOfRange { idx, pc } => {
                write!(
                    f,
                    "qbuffer element index {idx} invalid for configured encoding at pc {pc}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

fn vector_alu(op: VAluOp, a: i64, b: i64, esize: ElemSize) -> u64 {
    let r = match op {
        VAluOp::Add => a.wrapping_add(b),
        VAluOp::Sub => a.wrapping_sub(b),
        VAluOp::Mul => a.wrapping_mul(b),
        VAluOp::And => a & b,
        VAluOp::Or => a | b,
        VAluOp::Xor => a ^ b,
        VAluOp::Smin => a.min(b),
        VAluOp::Smax => a.max(b),
        VAluOp::Shl => ((a as u64).wrapping_shl(b as u32 & 63)) as i64,
        VAluOp::Shr => truncate(a, esize).wrapping_shr(b as u32 & 63) as i64,
    };
    truncate(r, esize)
}

/// Packs the active `(index, value)` lane pairs of a predicated QBUFFER
/// write into caller-provided stack scratch, returning the live prefix
/// (replaces a per-instruction `Vec` allocation on the hot path).
fn active_lane_pairs<'a>(
    state: &ArchState,
    pg: PReg,
    idx: VReg,
    val: VReg,
    buf: &'a mut [(u64, u64); LANES_64],
) -> &'a [(u64, u64)] {
    let mask = state.mask64(pg);
    let idxs = state.v_lanes64(idx);
    let vals = state.v_lanes64(val);
    let mut n = 0;
    for i in 0..LANES_64 {
        if mask[i] {
            buf[n] = (idxs[i], vals[i]);
            n += 1;
        }
    }
    &buf[..n]
}

/// Per-instruction facts the timing model needs beyond architectural
/// state: the demand memory accesses an instruction made and the
/// latency its QUETZAL operation reported. [`step`] reports them here;
/// [`DynInst`] records them for [`OooTiming::retire`], and `()` discards
/// them, so the functional tier compiles the hooks out.
pub(crate) trait Effects {
    /// One demand access of `bytes` bytes at `addr`. Unit-stride vector
    /// accesses report one range; gather/scatter report one access per
    /// active lane, in lane order.
    fn mem(&mut self, addr: u64, bytes: u32);
    /// The functionally determined latency of a QUETZAL operation.
    fn qz_latency(&mut self, lat: u64);
}

impl Effects for DynInst {
    #[inline]
    fn mem(&mut self, addr: u64, bytes: u32) {
        self.mem.push((addr, bytes));
    }

    #[inline]
    fn qz_latency(&mut self, lat: u64) {
        self.qz_latency = lat;
    }
}

impl Effects for () {
    #[inline]
    fn mem(&mut self, _addr: u64, _bytes: u32) {}

    #[inline]
    fn qz_latency(&mut self, _lat: u64) {}
}

/// The cycle engine's interpreter loop: fetch, resolve control flow,
/// execute everything else through [`step`], and retire each
/// instruction into the timing model with its predecoded
/// [`MicroOp`](crate::predecode::MicroOp). `d` is caller-provided
/// scratch: its `mem` buffer is reused across every dynamic instruction
/// (and, via [`Core`], across runs), so the loop allocates nothing per
/// instruction.
fn run_timed<P: Probe>(
    state: &mut ArchState,
    program: &Program,
    pre: &Predecode,
    timing: &mut OooTiming<P>,
    budget: u64,
    d: &mut DynInst,
) -> Result<(), SimError> {
    let mut pc = 0usize;
    let mut executed = 0u64;

    loop {
        if executed >= budget {
            return Err(SimError::InstLimit { budget });
        }
        // Fallible fetch: a truncated program image or a corrupted
        // branch target surfaces as a typed decode fault, not a panic.
        let Some(inst) = program.get(pc) else {
            return Err(SimError::DecodeError { pc });
        };
        executed += 1;
        d.reset(pc);
        let mut next_pc = pc + 1;

        match inst {
            Instruction::Branch {
                cond,
                rn,
                rm,
                target,
            } => {
                d.taken = cond.eval(state.x(rn) as i64, state.x(rm) as i64);
                if d.taken {
                    next_pc = target;
                }
            }
            Instruction::Jump { target } => {
                d.taken = true;
                next_pc = target;
            }
            Instruction::Halt => {
                timing.retire(pre.op(pc), d);
                return Ok(());
            }
            _ => step(pc, inst, state, d)?,
        }

        timing.retire(pre.op(pc), d);
        // Timing-side watchdog: the engine reports when its clock passed
        // the configured cycle budget (see [`SimError::CycleLimit`]).
        // Checked after retire so the clock reflects this instruction.
        if let Some(cycles) = timing.cycle_budget_exceeded() {
            return Err(SimError::CycleLimit { budget: cycles });
        }
        pc = next_pc;
    }
}

/// Executes one instruction's data semantics against `state` — the
/// single implementation both engines share. `pc` is used only for
/// fault attribution. Memory accesses and QUETZAL latencies are reported
/// to `fx` where they occur: the cycle engine passes its [`DynInst`]
/// record, the functional tier passes `()`.
///
/// Control flow stays with each engine's loop: `Jump` is a counted
/// no-op here, and `Branch`/`Halt` must be resolved by the caller.
/// Always inlined: each engine's hot loop dispatches the match
/// directly, with no call per instruction.
#[allow(clippy::too_many_lines)]
#[inline(always)]
pub(crate) fn step(
    pc: usize,
    inst: Instruction,
    state: &mut ArchState,
    fx: &mut impl Effects,
) -> Result<(), SimError> {
    match inst {
        Instruction::MovImm { rd, imm } => state.set_x(rd, imm as u64),
        // `SAluOp::eval` is shared with `quetzal-verify`'s constant
        // propagation, which folds through the routine executed here.
        Instruction::AluRR { op, rd, rn, rm } => state.set_x(rd, op.eval(state.x(rn), state.x(rm))),
        Instruction::AluRI { op, rd, rn, imm } => state.set_x(rd, op.eval(state.x(rn), imm as u64)),
        Instruction::Load {
            rd,
            rn,
            offset,
            size,
        } => {
            let addr = state.x(rn).wrapping_add_signed(offset);
            let v = state.mem.read_le(addr, size.bytes());
            state.set_x(rd, v);
            fx.mem(addr, size.bytes() as u32);
        }
        Instruction::Store {
            rs,
            rn,
            offset,
            size,
        } => {
            let addr = state.x(rn).wrapping_add_signed(offset);
            if state
                .mem
                .try_write_le(addr, state.x(rs), size.bytes())
                .is_err()
            {
                return Err(SimError::MemoryFault { addr, pc });
            }
            fx.mem(addr, size.bytes() as u32);
        }
        Instruction::Jump { .. } => {
            // Counted no-op: the caller's loop already encodes the
            // transfer (a chained jump or `Goto` terminator).
        }
        Instruction::Halt | Instruction::Branch { .. } => {
            // Structurally unreachable: both engines resolve these
            // before calling `step`. Surface a typed fault (never a
            // panic) if a caller ever dispatches one here.
            debug_assert!(false, "terminator dispatched as a step at pc {pc}");
            return Err(SimError::DecodeError { pc });
        }

        Instruction::Dup { vd, rn, esize } => {
            let v = state.x(rn);
            for i in 0..esize.lanes() {
                state.set_v_elem(vd, i, esize, v);
            }
        }
        Instruction::DupImm { vd, imm, esize } => {
            for i in 0..esize.lanes() {
                state.set_v_elem(vd, i, esize, imm as u64);
            }
        }
        Instruction::Index {
            vd,
            rn,
            step,
            esize,
        } => {
            let start = state.x(rn) as i64;
            for i in 0..esize.lanes() {
                let v = start.wrapping_add(step.wrapping_mul(i as i64));
                state.set_v_elem(vd, i, esize, truncate(v, esize));
            }
        }
        Instruction::VAluVV {
            op,
            vd,
            vn,
            vm,
            pg,
            esize,
        } => {
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let a = state.v_elem_i64(vn, i, esize);
                    let b = state.v_elem_i64(vm, i, esize);
                    state.set_v_elem(vd, i, esize, vector_alu(op, a, b, esize));
                }
            }
        }
        Instruction::VAluVI {
            op,
            vd,
            vn,
            imm,
            pg,
            esize,
        } => {
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let a = state.v_elem_i64(vn, i, esize);
                    state.set_v_elem(vd, i, esize, vector_alu(op, a, imm, esize));
                }
            }
        }
        Instruction::VCmpVV {
            cond,
            pd,
            vn,
            vm,
            pg,
            esize,
        } => {
            let mut p = 0u64;
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let a = state.v_elem_i64(vn, i, esize);
                    let b = state.v_elem_i64(vm, i, esize);
                    if cond.eval(a, b) {
                        p |= 1 << (i * esize.bytes());
                    }
                }
            }
            state.set_p(pd, p);
        }
        Instruction::VCmpVI {
            cond,
            pd,
            vn,
            imm,
            pg,
            esize,
        } => {
            let mut p = 0u64;
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let a = state.v_elem_i64(vn, i, esize);
                    if cond.eval(a, imm) {
                        p |= 1 << (i * esize.bytes());
                    }
                }
            }
            state.set_p(pd, p);
        }
        Instruction::VSel {
            vd,
            pg,
            vn,
            vm,
            esize,
        } => {
            for i in 0..esize.lanes() {
                let v = if state.lane_active(pg, i, esize) {
                    state.v_elem(vn, i, esize)
                } else {
                    state.v_elem(vm, i, esize)
                };
                state.set_v_elem(vd, i, esize, v);
            }
        }
        Instruction::VLoad { vd, rn, pg, esize } => {
            let base = state.x(rn);
            for i in 0..esize.lanes() {
                let v = if state.lane_active(pg, i, esize) {
                    let addr = base.wrapping_add((i * esize.bytes()) as u64);
                    state.mem.read_le(addr, esize.bytes())
                } else {
                    0
                };
                state.set_v_elem(vd, i, esize, v);
            }
            fx.mem(base, VLEN_BYTES as u32);
        }
        Instruction::VLoadN {
            vd,
            rn,
            pg,
            esize,
            msize,
        } => {
            let base = state.x(rn);
            for i in 0..esize.lanes() {
                let v = if state.lane_active(pg, i, esize) {
                    let addr = base.wrapping_add((i * msize.bytes()) as u64);
                    state.mem.read_le(addr, msize.bytes())
                } else {
                    0
                };
                state.set_v_elem(vd, i, esize, v);
            }
            fx.mem(base, (esize.lanes() * msize.bytes()) as u32);
        }
        Instruction::VStore { vs, rn, pg, esize } => {
            let base = state.x(rn);
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let v = state.v_elem(vs, i, esize);
                    let addr = base.wrapping_add((i * esize.bytes()) as u64);
                    if state.mem.try_write_le(addr, v, esize.bytes()).is_err() {
                        return Err(SimError::MemoryFault { addr, pc });
                    }
                }
            }
            fx.mem(base, VLEN_BYTES as u32);
        }
        Instruction::VGather {
            vd,
            rn,
            idx,
            pg,
            esize,
            msize,
            scale,
        } => {
            let base = state.x(rn);
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let off = state.v_elem_i64(idx, i, esize);
                    let addr = base.wrapping_add_signed(off.wrapping_mul(scale as i64));
                    let v = state.mem.read_le(addr, msize.bytes());
                    state.set_v_elem(vd, i, esize, v);
                    fx.mem(addr, msize.bytes() as u32);
                } else {
                    state.set_v_elem(vd, i, esize, 0);
                }
            }
        }
        Instruction::VScatter {
            vs,
            rn,
            idx,
            pg,
            esize,
            msize,
            scale,
        } => {
            let base = state.x(rn);
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let off = state.v_elem_i64(idx, i, esize);
                    let addr = base.wrapping_add_signed(off.wrapping_mul(scale as i64));
                    if state
                        .mem
                        .try_write_le(addr, state.v_elem(vs, i, esize), msize.bytes())
                        .is_err()
                    {
                        return Err(SimError::MemoryFault { addr, pc });
                    }
                    fx.mem(addr, msize.bytes() as u32);
                }
            }
        }
        Instruction::VReduce {
            op,
            rd,
            vn,
            pg,
            esize,
        } => {
            let mut acc: Option<i64> = None;
            for i in 0..esize.lanes() {
                if state.lane_active(pg, i, esize) {
                    let v = state.v_elem_i64(vn, i, esize);
                    acc = Some(match (acc, op) {
                        (None, _) => v,
                        (Some(a), RedOp::Add) => a.wrapping_add(v),
                        (Some(a), RedOp::Min) => a.min(v),
                        (Some(a), RedOp::Max) => a.max(v),
                    });
                }
            }
            let empty = match op {
                RedOp::Add => 0,
                RedOp::Min => i64::MAX,
                RedOp::Max => i64::MIN,
            };
            state.set_x(rd, acc.unwrap_or(empty) as u64);
        }
        Instruction::VExtract {
            rd,
            vn,
            lane,
            esize,
        } => {
            if lane as usize >= esize.lanes() {
                return Err(SimError::InvalidRegister { index: lane, pc });
            }
            let v = state.v_elem(vn, lane as usize, esize);
            state.set_x(rd, v);
        }
        Instruction::VInsert {
            vd,
            rn,
            lane,
            esize,
        } => {
            if lane as usize >= esize.lanes() {
                return Err(SimError::InvalidRegister { index: lane, pc });
            }
            let v = state.x(rn);
            state.set_v_elem(vd, lane as usize, esize, v);
        }
        Instruction::VSlideDown {
            vd,
            vn,
            amount,
            esize,
        } => {
            // Stack scratch: at most VLEN_BYTES lanes (B8 elements),
            // so a fixed array replaces the per-instruction Vec.
            let lanes = esize.lanes();
            let mut buf = [0u64; VLEN_BYTES];
            let tmp = &mut buf[..lanes];
            for (i, item) in tmp.iter_mut().enumerate() {
                let src = i + amount as usize;
                *item = if src < lanes {
                    state.v_elem(vn, src, esize)
                } else {
                    0
                };
            }
            for (i, &v) in tmp.iter().enumerate() {
                state.set_v_elem(vd, i, esize, v);
            }
        }
        Instruction::VSlide1Up { vd, vn, rn, esize } => {
            let lanes = esize.lanes();
            let mut buf = [0u64; VLEN_BYTES];
            let tmp = &mut buf[..lanes];
            tmp[0] = state.x(rn);
            for (i, item) in tmp.iter_mut().enumerate().skip(1) {
                *item = state.v_elem(vn, i - 1, esize);
            }
            for (i, &v) in tmp.iter().enumerate() {
                state.set_v_elem(vd, i, esize, v);
            }
        }

        Instruction::PTrue { pd, esize } => {
            state.set_p(pd, ArchState::pred_first_n(esize.lanes(), esize));
        }
        Instruction::PWhileLt { pd, rn, esize } => {
            let n = state.x(rn) as i64;
            let n = n.clamp(0, esize.lanes() as i64) as usize;
            state.set_p(pd, ArchState::pred_first_n(n, esize));
        }
        Instruction::PFalse { pd } => state.set_p(pd, 0),
        Instruction::PAnd { pd, pn, pm } => state.set_p(pd, state.p(pn) & state.p(pm)),
        Instruction::POr { pd, pn, pm } => state.set_p(pd, state.p(pn) | state.p(pm)),
        Instruction::PBic { pd, pn, pm } => state.set_p(pd, state.p(pn) & !state.p(pm)),
        Instruction::PCount { rd, pn, esize } => {
            let c = state.pred_count(pn, esize);
            state.set_x(rd, c);
        }

        Instruction::QzConf { eb0, eb1, esiz } => {
            let esiz_v = state.x(esiz);
            if !state.qz.conf(state.x(eb0), state.x(eb1), esiz_v) {
                return Err(SimError::InvalidQzConf { esiz: esiz_v, pc });
            }
            fx.qz_latency(1);
        }
        Instruction::QzEncode { sel, val, idx } => {
            let chars = *state.v(val);
            let at = state.x(idx);
            match state.qz.encode(sel.index(), &chars, at) {
                Ok(lat) => fx.qz_latency(lat),
                Err(_) => return Err(SimError::QBufferIndexOutOfRange { idx: at, pc }),
            }
        }
        Instruction::QzStore { val, idx, sel, pg } => {
            let mut buf = [(0u64, 0u64); LANES_64];
            let lanes = active_lane_pairs(state, pg, idx, val, &mut buf);
            fx.qz_latency(state.qz.store(sel.index(), lanes));
        }
        Instruction::QzUpdate {
            op,
            val,
            idx,
            sel,
            pg,
        } => {
            let mut buf = [(0u64, 0u64); LANES_64];
            let lanes = active_lane_pairs(state, pg, idx, val, &mut buf);
            fx.qz_latency(state.qz.update(sel.index(), op, lanes));
        }
        Instruction::QzLoad { vd, idx, sel, pg } => {
            let mask = state.mask64(pg);
            let idxs = state.v_lanes64(idx);
            let (vals, lat) = state.qz.load(sel.index(), &idxs, &mask);
            for (i, &v) in vals.iter().enumerate() {
                state.set_v_elem(vd, i, ElemSize::B64, v);
            }
            fx.qz_latency(lat);
        }
        Instruction::QzMhm {
            op,
            vd,
            idx0,
            idx1,
            pg,
        } => {
            let mask = state.mask64(pg);
            let i0 = state.v_lanes64(idx0);
            let i1 = state.v_lanes64(idx1);
            let (vals, lat) = state.qz.mhm(op, &i0, &i1, &mask);
            for (i, &v) in vals.iter().enumerate() {
                state.set_v_elem(vd, i, ElemSize::B64, v);
            }
            fx.qz_latency(lat);
        }
        Instruction::QzMm {
            op,
            vd,
            val,
            idx,
            sel,
            pg,
        } => {
            let mask = state.mask64(pg);
            let vv = state.v_lanes64(val);
            let ii = state.v_lanes64(idx);
            let (vals, lat) = state.qz.mm(op, sel.index(), &vv, &ii, &mask);
            for (i, &v) in vals.iter().enumerate() {
                state.set_v_elem(vd, i, ElemSize::B64, v);
            }
            fx.qz_latency(lat);
        }
        Instruction::QzCount { vd, vn, vm } => {
            let a = state.v_lanes64(vn);
            let b = state.v_lanes64(vm);
            let counts = qzcount_vector(&a, &b, state.qz.esize);
            for (i, &c) in counts.iter().enumerate() {
                state.set_v_elem(vd, i, ElemSize::B64, c);
            }
            fx.qz_latency(COUNT_ALU_LATENCY);
        }
    }
    Ok(())
}

/// One simulated core: architectural state plus the out-of-order timing
/// engine. Cache and accelerator state persist across `run` calls, so a
/// workload can be submitted as many consecutive kernels.
///
/// Generic over an observation [`Probe`]; the default [`NullProbe`]
/// compiles all instrumentation out (see [`crate::probe`]).
#[derive(Debug, Clone)]
pub struct Core<P: Probe = NullProbe> {
    state: ArchState,
    timing: OooTiming<P>,
    budget: u64,
    /// Per-program predecode tables, keyed by [`Program::id`].
    decode: DecodeCache,
    /// Per-program compiled superblocks for the functional tier, keyed
    /// by [`Program::id`] alongside the predecode tables.
    compiled: CompiledCache,
    /// Which engine [`run`](Core::run) drives (default: cycle-level).
    mode: ExecMode,
    /// Recycled dynamic-instruction record; its `mem` buffer keeps its
    /// capacity across runs, so steady-state simulation allocates
    /// nothing per instruction.
    scratch: DynInst,
}

impl Core {
    /// Creates a core with the given configuration (no probe).
    pub fn new(cfg: CoreConfig) -> Core {
        Core::with_probe(cfg, NullProbe)
    }
}

impl<P: Probe> Core<P> {
    /// Default per-run instruction budget.
    pub const DEFAULT_BUDGET: u64 = 2_000_000_000;

    /// Creates a core with an attached observation probe.
    pub fn with_probe(cfg: CoreConfig, probe: P) -> Core<P> {
        Core {
            state: ArchState::new(cfg.qz),
            timing: OooTiming::with_probe(cfg, probe),
            budget: Self::DEFAULT_BUDGET,
            decode: DecodeCache::default(),
            compiled: CompiledCache::default(),
            mode: ExecMode::default(),
            scratch: DynInst::default(),
        }
    }

    /// The attached observation probe.
    pub fn probe(&self) -> &P {
        self.timing.probe()
    }

    /// Mutable access to the attached probe (drain recorded data).
    pub fn probe_mut(&mut self) -> &mut P {
        self.timing.probe_mut()
    }

    /// Resolves future predecode misses through a shared
    /// [`PredecodeRegistry`](crate::predecode::PredecodeRegistry), so
    /// sibling cores (batch shards) decode each program once between
    /// them. Timing-neutral: a shared table is identical to a locally
    /// decoded one.
    pub fn set_predecode_registry(&mut self, registry: crate::predecode::PredecodeRegistry) {
        self.decode.set_registry(registry);
    }

    /// Cold-boots the core in place: architectural state, accelerator
    /// and the whole timing engine (clock, caches, predictor) return to
    /// power-on values while the big allocations — cache tag arrays,
    /// predecode cache, scratch buffers — are reused. Behaviourally
    /// identical to building a fresh core with the same configuration:
    /// the budget returns to its default. The
    /// decode cache and any attached predecode registry survive —
    /// predecode is pure, so stale entries cannot exist.
    pub fn reset(&mut self) {
        self.state.reset();
        self.timing.reset();
        self.budget = Self::DEFAULT_BUDGET;
        // Cold boot selects the timing engine; batch pools re-apply
        // their configured mode after every reset. The compiled cache
        // survives for the same reason the decode cache does:
        // compilation is pure.
        self.mode = ExecMode::default();
    }

    /// Selects which engine [`run`](Core::run) drives: the cycle-level
    /// out-of-order model (default) or the compiled functional tier,
    /// which produces bit-identical architectural results under the
    /// same instruction and page budgets but models no clock — its
    /// [`RunStats`] carries only the instruction count.
    /// [`reset`](Core::reset) restores the default.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The currently selected execution engine.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Architectural state (registers, memory, QBUFFERs).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable architectural state — used by drivers to stage inputs and
    /// read results.
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// Sets the per-run instruction budget (runaway-loop guard).
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Sets the timing-side cycle watchdog: a timed run whose clock
    /// passes `cycles` terminates with [`SimError::CycleLimit`]. Only
    /// meaningful for timed runs — functional runs have no clock.
    /// Defaults to effectively unlimited; [`reset`](Core::reset)
    /// restores the default.
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.timing.set_cycle_budget(cycles);
    }

    /// Runs a program with full timing; returns this run's statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on budget exhaustion or invalid `qzconf`.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        if self.mode == ExecMode::Functional {
            // The functional tier has no clock and no observability:
            // probes, timing state and every `RunStats` field except
            // the retired-instruction count stay untouched.
            let instructions = self.run_functional(program)?;
            return Ok(RunStats {
                instructions,
                ..RunStats::default()
            });
        }
        let Core {
            state,
            timing,
            budget,
            decode,
            scratch,
            ..
        } = self;
        let pre = decode.get(program);
        if P::ENABLED {
            timing.probe_mut().on_program(program.id(), program.name());
        }
        timing.begin_run();
        run_timed(state, program, pre, timing, *budget, scratch)?;
        Ok(timing.end_run())
    }

    /// Runs a program on the compiled functional tier (no timing): each
    /// basic block of the recovered CFG is lifted to a flat step table
    /// over the predecode records, chained into superblocks, and
    /// cached per [`Program::id`] alongside the decode cache (see
    /// [`crate::functional`]). Architectural results, the instruction
    /// budget and the typed error taxonomy are bit-identical to a timed
    /// run; only the clock is absent. Returns the executed instruction
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on budget exhaustion or invalid `qzconf`.
    pub fn run_functional(&mut self, program: &Program) -> Result<u64, SimError> {
        let Core {
            state,
            budget,
            decode,
            compiled,
            ..
        } = self;
        let pre = decode.get(program);
        let cp = compiled.get(program, pre);
        crate::functional::run_compiled(&cp, state, *budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::sign_extend;
    use quetzal_isa::*;

    fn core() -> Core {
        Core::new(CoreConfig::a64fx_like())
    }

    fn run(b: &mut ProgramBuilder) -> (Core, RunStats) {
        let mut c = core();
        let p = b.build().unwrap();
        let s = c.run(&p).unwrap();
        (c, s)
    }

    #[test]
    fn scalar_loop_sums() {
        // for i in 0..10 { acc += i }
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0); // i
        b.mov_imm(X1, 0); // acc
        b.mov_imm(X2, 10);
        b.bind(top);
        b.alu_rr(SAluOp::Add, X1, X1, X0);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        let (c, s) = run(&mut b);
        assert_eq!(c.state().x(X1), 45);
        assert_eq!(s.branches, 10);
    }

    #[test]
    fn memory_round_trip_through_isa() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x100);
        b.mov_imm(X1, 0xABCD);
        b.store(X1, X0, 8, MemSize::B8);
        b.load(X2, X0, 8, MemSize::B8);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().x(X2), 0xABCD);
    }

    #[test]
    fn vector_add_with_predicate() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 5);
        b.pwhilelt(P0, X0, ElemSize::B64); // first 5 lanes
        b.dup_imm(V0, 7, ElemSize::B64);
        b.dup_imm(V1, 0, ElemSize::B64);
        b.ptrue(P1, ElemSize::B64);
        b.valu_vv(VAluOp::Add, V1, V0, V0, P0, ElemSize::B64);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().v_elem(V1, 0, ElemSize::B64), 14);
        assert_eq!(c.state().v_elem(V1, 4, ElemSize::B64), 14);
        assert_eq!(
            c.state().v_elem(V1, 5, ElemSize::B64),
            0,
            "inactive lane merged"
        );
    }

    #[test]
    fn gather_reads_indexed_elements() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x1000);
        b.ptrue(P0, ElemSize::B64);
        // idx = [0, 2, 4, ...] * 8 bytes scale
        b.mov_imm(X1, 0);
        b.index(V0, X1, 2, ElemSize::B64);
        b.vgather(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.halt();
        let mut c = core();
        for i in 0..20u64 {
            c.state_mut().mem.write_le(0x1000 + i * 8, 100 + i, 8);
        }
        let p = b.build().unwrap();
        let s = c.run(&p).unwrap();
        assert_eq!(c.state().v_elem(V1, 0, ElemSize::B64), 100);
        assert_eq!(c.state().v_elem(V1, 3, ElemSize::B64), 106);
        assert_eq!(s.indexed_ops, 1);
        assert_eq!(s.mem_requests, 8);
    }

    #[test]
    fn scatter_then_gather_round_trip() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x2000);
        b.ptrue(P0, ElemSize::B64);
        b.mov_imm(X1, 0);
        b.index(V0, X1, 3, ElemSize::B64); // indices 0,3,6,...
        b.mov_imm(X2, 50);
        b.index(V1, X2, 1, ElemSize::B64); // values 50..57
        b.vscatter(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.vgather(V2, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.halt();
        let (c, _) = run(&mut b);
        for i in 0..8 {
            assert_eq!(c.state().v_elem(V2, i, ElemSize::B64), 50 + i as u64);
        }
    }

    #[test]
    fn reduction_and_extract() {
        let mut b = ProgramBuilder::new();
        b.ptrue(P0, ElemSize::B64);
        b.mov_imm(X0, 1);
        b.index(V0, X0, 1, ElemSize::B64); // 1..8
        b.vreduce(RedOp::Add, X1, V0, P0, ElemSize::B64);
        b.vreduce(RedOp::Max, X2, V0, P0, ElemSize::B64);
        b.vreduce(RedOp::Min, X3, V0, P0, ElemSize::B64);
        b.vextract(X4, V0, 3, ElemSize::B64);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().x(X1), 36);
        assert_eq!(c.state().x(X2), 8);
        assert_eq!(c.state().x(X3), 1);
        assert_eq!(c.state().x(X4), 4);
    }

    #[test]
    fn empty_reduction_identities() {
        let mut b = ProgramBuilder::new();
        b.pfalse(P0);
        b.dup_imm(V0, 9, ElemSize::B64);
        b.vreduce(RedOp::Add, X1, V0, P0, ElemSize::B64);
        b.vreduce(RedOp::Min, X2, V0, P0, ElemSize::B64);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().x(X1), 0);
        assert_eq!(c.state().x(X2) as i64, i64::MAX);
    }

    #[test]
    fn slide_operations() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 10);
        b.index(V0, X0, 10, ElemSize::B64); // 10,20,...,80
        b.vslidedown(V1, V0, 2, ElemSize::B64);
        b.mov_imm(X1, 99);
        b.vslide1up(V2, V0, X1, ElemSize::B64);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().v_elem(V1, 0, ElemSize::B64), 30);
        assert_eq!(c.state().v_elem(V1, 5, ElemSize::B64), 80);
        assert_eq!(c.state().v_elem(V1, 6, ElemSize::B64), 0, "zero fill");
        assert_eq!(c.state().v_elem(V2, 0, ElemSize::B64), 99);
        assert_eq!(c.state().v_elem(V2, 1, ElemSize::B64), 10);
    }

    #[test]
    fn vcmp_and_pcount_loop_control() {
        // Deactivate lanes where V0 >= 4 and count the rest.
        let mut b = ProgramBuilder::new();
        b.ptrue(P0, ElemSize::B64);
        b.mov_imm(X0, 0);
        b.index(V0, X0, 1, ElemSize::B64); // 0..7
        b.vcmp_vi(BranchCond::Lt, P1, V0, 4, P0, ElemSize::B64);
        b.pcount(X1, P1, ElemSize::B64);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(c.state().x(X1), 4);
    }

    #[test]
    fn qz_conf_encode_load_pipeline() {
        let mut b = ProgramBuilder::new();
        // Configure: 64 elements each, 2-bit.
        b.mov_imm(X0, 64).mov_imm(X1, 64).mov_imm(X2, 0);
        b.qzconf(X0, X1, X2);
        // Load 64 chars from memory into V0, encode into Q0 at 0.
        b.mov_imm(X3, 0x100);
        b.ptrue(P0, ElemSize::B8);
        b.vload(V0, X3, P0, ElemSize::B8);
        b.mov_imm(X4, 0);
        b.qzencode(QBufSel::Q0, V0, X4);
        // Read back segment at element 0.
        b.ptrue(P1, ElemSize::B64);
        b.dup_imm(V1, 0, ElemSize::B64);
        b.qzload(V2, V1, QBufSel::Q0, P1);
        b.halt();
        let mut c = core();
        let seq: Vec<u8> = (0..64).map(|i| b"ACGT"[i % 4]).collect();
        c.state_mut().mem.write_bytes(0x100, &seq);
        let p = b.build().unwrap();
        let s = c.run(&p).unwrap();
        // Expected packed word: ACGT repeated -> codes 0,1,3,2 LSB-first.
        let mut want = 0u64;
        for i in 0..32 {
            want |= ([0u64, 1, 3, 2][i % 4]) << (2 * i);
        }
        assert_eq!(c.state().v_elem(V2, 0, ElemSize::B64), want);
        assert!(s.qz_accesses >= 2);
    }

    #[test]
    fn qzmhm_count_between_buffers() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64).mov_imm(X1, 64).mov_imm(X2, 0);
        b.qzconf(X0, X1, X2);
        b.ptrue(P0, ElemSize::B64);
        b.dup_imm(V0, 0, ElemSize::B64);
        b.qzmhm(QzOp::Count, V1, V0, V0, P0);
        b.halt();
        let mut c = core();
        // Same image in both buffers -> 32 matches per segment.
        let img: Vec<u8> = (0..16).map(|i| i as u8).collect();
        c.state_mut().qz.load_image(0, &img);
        c.state_mut().qz.load_image(1, &img);
        let p = b.build().unwrap();
        c.run(&p).unwrap();
        assert_eq!(c.state().v_elem(V1, 0, ElemSize::B64), 32);
    }

    #[test]
    fn qzstore_and_qzupdate_histogram_style() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 128).mov_imm(X1, 128).mov_imm(X2, 2);
        b.qzconf(X0, X1, X2);
        b.ptrue(P0, ElemSize::B64);
        b.dup_imm(V0, 5, ElemSize::B64); // all lanes index 5
        b.dup_imm(V1, 1, ElemSize::B64); // +1 each
        b.qzupdate(QzOp::Add, V1, V0, QBufSel::Q0, P0);
        b.dup_imm(V2, 5, ElemSize::B64);
        b.qzload(V3, V2, QBufSel::Q0, P0);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(
            c.state().v_elem(V3, 0, ElemSize::B64),
            8,
            "eight lanes accumulated into bin 5"
        );
    }

    #[test]
    fn invalid_qzconf_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1).mov_imm(X1, 1).mov_imm(X2, 7);
        b.qzconf(X0, X1, X2);
        b.halt();
        let mut c = core();
        let p = b.build().unwrap();
        assert!(matches!(
            c.run(&p),
            Err(SimError::InvalidQzConf { esiz: 7, .. })
        ));
    }

    #[test]
    fn truncated_program_is_a_decode_error() {
        // `from_raw` bypasses the builder's trailing-halt validation:
        // execution runs off the end and must fault, not panic.
        let p = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 1 }], "truncated");
        let mut c = core();
        assert!(matches!(c.run(&p), Err(SimError::DecodeError { pc: 1 })));
    }

    #[test]
    fn corrupted_branch_target_is_a_decode_error() {
        let p = Program::from_raw(
            vec![Instruction::Jump { target: 99 }, Instruction::Halt],
            "bad-target",
        );
        let mut c = core();
        assert!(matches!(c.run(&p), Err(SimError::DecodeError { pc: 99 })));
    }

    #[test]
    fn out_of_range_lane_is_an_error() {
        let p = Program::from_raw(
            vec![
                Instruction::VExtract {
                    rd: X0,
                    vn: V0,
                    lane: 60,
                    esize: ElemSize::B64, // only 8 lanes
                },
                Instruction::Halt,
            ],
            "bad-lane",
        );
        let mut c = core();
        assert!(matches!(
            c.run(&p),
            Err(SimError::InvalidRegister { index: 60, pc: 0 })
        ));
        let p = Program::from_raw(
            vec![
                Instruction::VInsert {
                    vd: V0,
                    rn: X0,
                    lane: 200,
                    esize: ElemSize::B8,
                },
                Instruction::Halt,
            ],
            "bad-lane-insert",
        );
        assert!(matches!(
            c.run(&p),
            Err(SimError::InvalidRegister { index: 200, pc: 0 })
        ));
    }

    #[test]
    fn misaligned_qzencode_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64).mov_imm(X1, 64).mov_imm(X2, 0);
        b.qzconf(X0, X1, X2); // 2-bit mode: encode index must be 32-aligned
        b.mov_imm(X3, 7);
        b.qzencode(QBufSel::Q0, V0, X3);
        b.halt();
        let mut c = core();
        let p = b.build().unwrap();
        assert!(matches!(
            c.run(&p),
            Err(SimError::QBufferIndexOutOfRange { idx: 7, .. })
        ));
    }

    #[test]
    fn page_budget_turns_wild_stores_into_memory_fault() {
        // Stride-64KiB stores touch a fresh page each iteration; a small
        // page budget turns the spree into a typed fault instead of
        // letting a corrupted kernel eat host memory.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 0x5A);
        let top = b.label();
        b.bind(top);
        b.store(X1, X0, 0, MemSize::B8);
        b.alu_ri(SAluOp::Add, X0, X0, 1 << 16);
        b.jump(top);
        b.halt();
        let mut c = core();
        c.state_mut().mem.set_page_budget(16);
        let p = b.build().unwrap();
        assert!(matches!(c.run(&p), Err(SimError::MemoryFault { .. })));
        // Reset restores the default budget: the same core afterwards
        // hits the *instruction* budget instead, proving the fault came
        // from the lowered page budget and cold-boot is complete.
        c.reset();
        c.set_budget(10_000);
        assert!(matches!(c.run(&p), Err(SimError::InstLimit { .. })));
    }

    #[test]
    fn cycle_watchdog_stops_timing_livelock() {
        // Pathological store-ring schedule: every load misaligned-
        // overlaps the store before it, so each one fails to forward,
        // replays through the load ports and pays the forwarding
        // penalty — cycles per instruction far above normal. The
        // instruction budget would let this grind on for ages; the
        // cycle watchdog terminates it with a *typed* error.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x1000);
        b.mov_imm(X1, 0xFF);
        let top = b.label();
        b.bind(top);
        b.store(X1, X0, 0, MemSize::B8);
        b.load(X2, X0, 2, MemSize::B2); // misaligned overlap -> replay
        b.jump(top);
        b.halt();
        let p = b.build().unwrap();
        let mut c = core();
        c.set_cycle_budget(10_000);
        assert!(matches!(
            c.run(&p),
            Err(SimError::CycleLimit { budget: 10_000 })
        ));
        // Distinct from InstLimit: without the cycle watchdog the same
        // program runs until the instruction budget fires.
        c.reset();
        c.set_budget(1_000);
        assert!(matches!(
            c.run(&p),
            Err(SimError::InstLimit { budget: 1_000 })
        ));
    }

    #[test]
    fn budget_stops_runaway_loops() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jump(top);
        b.halt();
        let mut c = core();
        c.set_budget(10_000);
        let p = b.build().unwrap();
        assert!(matches!(
            c.run(&p),
            Err(SimError::InstLimit { budget: 10_000 })
        ));
    }

    #[test]
    fn signed_vector_semantics() {
        let mut b = ProgramBuilder::new();
        b.ptrue(P0, ElemSize::B32);
        b.dup_imm(V0, -3, ElemSize::B32);
        b.dup_imm(V1, 2, ElemSize::B32);
        b.valu_vv(VAluOp::Smax, V2, V0, V1, P0, ElemSize::B32);
        b.valu_vv(VAluOp::Smin, V3, V0, V1, P0, ElemSize::B32);
        b.halt();
        let (c, _) = run(&mut b);
        assert_eq!(
            sign_extend(c.state().v_elem(V2, 0, ElemSize::B32), ElemSize::B32),
            2
        );
        assert_eq!(
            sign_extend(c.state().v_elem(V3, 0, ElemSize::B32), ElemSize::B32),
            -3
        );
    }

    #[test]
    fn functional_run_matches_timed_run() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 0);
        b.mov_imm(X2, 50);
        b.bind(top);
        b.alu_rr(SAluOp::Add, X1, X1, X0);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        let p = b.build().unwrap();
        let mut c1 = core();
        c1.run(&p).unwrap();
        let mut c2 = core();
        c2.run_functional(&p).unwrap();
        assert_eq!(c1.state().x(X1), c2.state().x(X1));
    }
}

#[cfg(test)]
mod proptests {
    //! Differential testing: random straight-line scalar programs, and
    //! every vector ALU and reduction op, are executed by the simulator
    //! and by a direct Rust evaluator that restates the architectural
    //! semantics without sharing simulator routines; the final register
    //! files must agree exactly. Case generation is seeded (in-tree
    //! PRNG), so failures reproduce exactly.

    use super::*;
    use crate::state::VValue;
    use quetzal_genomics::rng::SplitMix64;
    use quetzal_isa::{ProgramBuilder, SAluOp, XReg, P0, V0, V1};

    #[derive(Debug, Clone)]
    enum Op {
        MovImm(u8, i64),
        AluRR(SAluOp, u8, u8, u8),
        AluRI(SAluOp, u8, u8, i64),
        Store(u8, u64),
        Load(u8, u64),
    }

    const ALU_OPS: [SAluOp; 13] = [
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

    fn random_op(rng: &mut SplitMix64) -> Op {
        match rng.below(5) {
            0 => Op::MovImm(rng.below(24) as u8, rng.next_u64() as i64),
            1 => Op::AluRR(
                *rng.pick(&ALU_OPS),
                rng.below(24) as u8,
                rng.below(24) as u8,
                rng.below(24) as u8,
            ),
            2 => Op::AluRI(
                *rng.pick(&ALU_OPS),
                rng.below(24) as u8,
                rng.below(24) as u8,
                rng.i64_in(-1000, 1000),
            ),
            3 => Op::Store(rng.below(24) as u8, 0x4000 + 8 * rng.below(64)),
            _ => Op::Load(rng.below(24) as u8, 0x4000 + 8 * rng.below(64)),
        }
    }

    fn oracle_alu(op: SAluOp, a: u64, b: u64) -> u64 {
        // Independent re-statement of the architectural semantics.
        match op {
            SAluOp::Add => a.wrapping_add(b),
            SAluOp::Sub => a.wrapping_sub(b),
            SAluOp::Mul => a.wrapping_mul(b),
            SAluOp::And => a & b,
            SAluOp::Or => a | b,
            SAluOp::Xor => a ^ b,
            SAluOp::Shl => a << (b & 63),
            SAluOp::Shr => a >> (b & 63),
            SAluOp::Sar => ((a as i64) >> (b & 63)) as u64,
            SAluOp::Min => (a as i64).min(b as i64) as u64,
            SAluOp::Max => (a as i64).max(b as i64) as u64,
            SAluOp::SetLt => ((a as i64) < (b as i64)) as u64,
            SAluOp::SetEq => (a == b) as u64,
        }
    }

    fn check_program(case: usize, ops: &[Op]) {
        // Build the simulated program.
        let mut b = ProgramBuilder::new();
        for op in ops {
            match *op {
                Op::MovImm(r, v) => {
                    b.mov_imm(XReg::new(r), v);
                }
                Op::AluRR(o, d, x, y) => {
                    b.alu_rr(o, XReg::new(d), XReg::new(x), XReg::new(y));
                }
                Op::AluRI(o, d, x, v) => {
                    b.alu_ri(o, XReg::new(d), XReg::new(x), v);
                }
                Op::Store(r, addr) => {
                    b.mov_imm(XReg::new(25), addr as i64);
                    b.store(XReg::new(r), XReg::new(25), 0, quetzal_isa::MemSize::B8);
                }
                Op::Load(r, addr) => {
                    b.mov_imm(XReg::new(25), addr as i64);
                    b.load(XReg::new(r), XReg::new(25), 0, quetzal_isa::MemSize::B8);
                }
            }
        }
        b.halt();
        let mut core = Core::new(CoreConfig::a64fx_like());
        core.run(&b.build().unwrap()).unwrap();

        // Evaluate with the direct oracle.
        let mut regs = [0u64; 26];
        let mut mem = std::collections::HashMap::<u64, u64>::new();
        for op in ops {
            match *op {
                Op::MovImm(r, v) => regs[r as usize] = v as u64,
                Op::AluRR(o, d, x, y) => {
                    regs[d as usize] = oracle_alu(o, regs[x as usize], regs[y as usize])
                }
                Op::AluRI(o, d, x, v) => {
                    regs[d as usize] = oracle_alu(o, regs[x as usize], v as u64)
                }
                Op::Store(r, addr) => {
                    regs[25] = addr;
                    mem.insert(addr, regs[r as usize]);
                }
                Op::Load(r, addr) => {
                    regs[25] = addr;
                    regs[r as usize] = mem.get(&addr).copied().unwrap_or(0);
                }
            }
        }
        for (r, &want) in regs.iter().enumerate() {
            assert_eq!(
                core.state().x(XReg::new(r as u8)),
                want,
                "case {case}: x{r} ({ops:?})"
            );
        }
        for (&addr, &want) in &mem {
            assert_eq!(
                core.state().mem.read_le(addr, 8),
                want,
                "case {case}: mem {addr:#x} ({ops:?})"
            );
        }
    }

    #[test]
    fn interpreter_matches_oracle() {
        let mut rng = SplitMix64::new(0x1A7E_5EED);
        let mut vector_rng = SplitMix64::new(0x7EC7_0E5D);
        for case in 0..48 {
            let len = rng.i64_in(1, 60) as usize;
            let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
            check_program(case, &ops);
            check_vector_ops(case, &mut vector_rng);
        }
    }

    /// Every ALU op is exercised against the oracle on targeted operand
    /// classes (zero, one, all-ones, extremes), not just random draws.
    #[test]
    fn interpreter_matches_oracle_on_edge_operands() {
        const EDGES: [i64; 7] = [0, 1, -1, 63, 64, i64::MIN, i64::MAX];
        let mut case = 0;
        for op in ALU_OPS {
            for &a in &EDGES {
                for &b in &EDGES {
                    let ops = [Op::MovImm(0, a), Op::MovImm(1, b), Op::AluRR(op, 2, 0, 1)];
                    check_program(case, &ops);
                    case += 1;
                }
            }
        }
    }

    /// Element `i` of a `w`-byte-element vector: zero- and sign-extended.
    fn lane(v: &VValue, i: usize, w: usize) -> (u64, i64) {
        let mut le = [0u8; 8];
        le[..w].copy_from_slice(&v[i * w..(i + 1) * w]);
        let shift = 64 - 8 * w as u32;
        let x = u64::from_le_bytes(le);
        (x, ((x << shift) as i64) >> shift)
    }

    /// Independent re-statement of one vector ALU lane: `a` is the
    /// zero-extended element, `b` the second operand (sign-extended
    /// element or full-width immediate). Arithmetic wraps at the element
    /// width, `Smin`/`Smax` compare signed, shifts take the low six bits
    /// of `b` and `Shr` is logical.
    fn oracle_valu(op: VAluOp, (a, sa): (u64, i64), b: i64, w: usize) -> u64 {
        let r = match op {
            VAluOp::Add => a.wrapping_add(b as u64),
            VAluOp::Sub => a.wrapping_sub(b as u64),
            VAluOp::Mul => a.wrapping_mul(b as u64),
            VAluOp::And => a & b as u64,
            VAluOp::Or => a | b as u64,
            VAluOp::Xor => a ^ b as u64,
            VAluOp::Smin => sa.min(b) as u64,
            VAluOp::Smax => sa.max(b) as u64,
            VAluOp::Shl => a << (b & 63),
            VAluOp::Shr => a >> (b & 63),
        };
        r & (u64::MAX >> (64 - 8 * w))
    }

    /// Every `VAluOp` (vector and immediate forms) and every `RedOp` at
    /// one element size, on random registers under a random, an
    /// all-active or an empty predicate (SVE layout: element `i` is
    /// governed by predicate bit `i * w`). Inactive destination lanes
    /// keep their old value; empty reductions yield the identity. Over
    /// 48 consecutive cases every element size meets every predicate
    /// kind with both small (shift-sized, negative) and full-width
    /// immediates.
    fn check_vector_ops(case: usize, rng: &mut SplitMix64) {
        use VAluOp::*;
        const OPS: [VAluOp; 10] = [Add, Sub, Mul, And, Or, Xor, Smin, Smax, Shl, Shr];
        const SIZES: [ElemSize; 4] = [ElemSize::B8, ElemSize::B16, ElemSize::B32, ElemSize::B64];
        let vv = |k: usize| VReg::new(2 + k as u8);
        let vi = |k: usize| VReg::new(12 + k as u8);
        let (esize, j) = (SIZES[case % 4], case / 4);
        let w = esize.bytes();
        let [a, b, dest]: [VValue; 3] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.next_u64() as u8));
        let pred = [u64::MAX, 0, rng.next_u64()][j % 3];
        let imm = match j / 3 % 2 {
            0 => rng.i64_in(-200, 200),
            _ => rng.next_u64() as i64,
        };
        let mut p = ProgramBuilder::new();
        for (k, &op) in OPS.iter().enumerate() {
            p.valu_vv(op, vv(k), V0, V1, P0, esize);
            p.valu_vi(op, vi(k), V0, imm, P0, esize);
        }
        for (k, &op) in [RedOp::Add, RedOp::Min, RedOp::Max].iter().enumerate() {
            p.vreduce(op, XReg::new(k as u8), V0, P0, esize);
        }
        p.halt();
        let mut core = Core::new(CoreConfig::a64fx_like());
        let st = core.state_mut();
        *st.v_mut(V0) = a;
        *st.v_mut(V1) = b;
        (2..22).for_each(|r| *st.v_mut(VReg::new(r)) = dest);
        st.set_p(P0, pred);
        core.run(&p.build().unwrap()).unwrap();

        let active: Vec<usize> = (0..VLEN_BYTES / w)
            .filter(|i| pred >> (i * w) & 1 == 1)
            .collect();
        for (k, &op) in OPS.iter().enumerate() {
            let (mut want_vv, mut want_vi) = (dest, dest);
            for &i in &active {
                let out = oracle_valu(op, lane(&a, i, w), lane(&b, i, w).1, w);
                want_vv[i * w..(i + 1) * w].copy_from_slice(&out.to_le_bytes()[..w]);
                let out = oracle_valu(op, lane(&a, i, w), imm, w);
                want_vi[i * w..(i + 1) * w].copy_from_slice(&out.to_le_bytes()[..w]);
            }
            assert_eq!(
                core.state().v(vv(k)),
                &want_vv,
                "case {case}: {op:?} {esize:?} vv"
            );
            assert_eq!(
                core.state().v(vi(k)),
                &want_vi,
                "case {case}: {op:?} {esize:?} #{imm}"
            );
        }
        let vals = || active.iter().map(|&i| lane(&a, i, w).1);
        let sums = [
            vals().fold(0i64, i64::wrapping_add),
            vals().fold(i64::MAX, i64::min),
            vals().fold(i64::MIN, i64::max),
        ];
        for (k, &want) in sums.iter().enumerate() {
            assert_eq!(
                core.state().x(XReg::new(k as u8)),
                want as u64,
                "case {case}: reduce {k}"
            );
        }
    }
}
