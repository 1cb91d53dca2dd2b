//! Instruction semantics, the dispatch loop, and the [`Core`] facade.
//!
//! Both engines run one per-instruction loop: it fetches each
//! instruction, resolves control flow, executes the rest through `step`
//! (the single implementation of the ISA's data semantics; vector
//! instructions really compute) and reports every retirement to an
//! `Effects` sink. The sink is the only difference between the
//! engines. The cycle engine's sink retires one [`DynInst`] per
//! instruction into [`OooTiming`], yielding an execution-driven,
//! cycle-level simulation; the functional tier ([`ExecMode::Functional`])
//! passes `()`, so every timing hook compiles out.
//!
//! Because the engines share dispatch and semantics, agreement between
//! them checks only that the timing sink leaves architectural state
//! alone. Dispatch is pinned against hand-computed results in this
//! module's tests. Semantics are checked against independent oracles:
//! the Rust restatements in this module's seeded `proptests`, the
//! 116k-pair host-DP sweep in `tests/properties.rs`, and
//! `tests/accelerator.rs`.

use crate::config::CoreConfig;
use crate::ooo::{DynInst, OooTiming};
use crate::predecode::Predecode;
use crate::probe::{NullProbe, Probe};
use crate::state::{
    active, by_width, first_n, lane, lane_i64, lane_mask, set_lane, ArchState, VValue,
};
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

/// One vector ALU lane at `B`-byte elements: `a` is the sign-extended
/// element, `b` the sign-extended element or the full-width immediate.
/// The caller's [`set_lane`] truncates the result to the element width.
#[inline(always)]
fn valu<const B: usize>(op: VAluOp, a: i64, b: i64) -> u64 {
    match op {
        VAluOp::Add => a.wrapping_add(b) as u64,
        VAluOp::Sub => a.wrapping_sub(b) as u64,
        VAluOp::Mul => a.wrapping_mul(b) as u64,
        VAluOp::And => (a & b) as u64,
        VAluOp::Or => (a | b) as u64,
        VAluOp::Xor => (a ^ b) as u64,
        VAluOp::Smin => a.min(b) as u64,
        VAluOp::Smax => a.max(b) as u64,
        VAluOp::Shl => (a as u64).wrapping_shl(b as u32 & 63),
        VAluOp::Shr => (a as u64 & (u64::MAX >> (64 - 8 * B))).wrapping_shr(b as u32 & 63),
    }
}

/// Writes `f(i)` to every `B`-byte lane `i` of `v` (truncating).
#[inline(always)]
fn fill<const B: usize>(v: &mut VValue, f: impl Fn(usize) -> u64) {
    for i in 0..VLEN_BYTES / B {
        set_lane::<B>(v, i, f(i));
    }
}

/// Writes `f(i)` to every `B`-byte lane `i` of `v` that `pred`
/// activates; inactive lanes keep their value.
#[inline(always)]
fn merge<const B: usize>(v: &mut VValue, pred: u64, f: impl Fn(usize) -> u64) {
    for i in 0..VLEN_BYTES / B {
        if active::<B>(pred, i) {
            set_lane::<B>(v, i, f(i));
        }
    }
}

/// The predicate word (bit `i * B` per lane) of the lanes `pred`
/// activates for which `f(i)` holds.
#[inline(always)]
fn compare<const B: usize>(pred: u64, f: impl Fn(usize) -> bool) -> u64 {
    let mut out = 0u64;
    for i in 0..VLEN_BYTES / B {
        if active::<B>(pred, i) && f(i) {
            out |= 1 << (i * B);
        }
    }
    out
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

/// What separates the two engines. The dispatch [`run`] loop reports
/// each instruction's lifecycle here, and [`step`] reports the demand
/// memory accesses and QUETZAL latencies it makes. [`Timed`] feeds them
/// to the out-of-order model; `()` discards them, so the functional tier
/// compiles every hook out and has no clock.
pub(crate) trait Effects {
    /// The instruction at `pc` was fetched and is about to execute.
    fn begin(&mut self, pc: usize);
    /// One demand access of `bytes` bytes at `addr`. Unit-stride vector
    /// accesses report one range; gather/scatter report one access per
    /// active lane, in lane order.
    fn mem(&mut self, addr: u64, bytes: u32);
    /// The functionally determined latency of a QUETZAL operation.
    fn qz_latency(&mut self, lat: u64);
    /// The instruction begun last retired; `taken` is set for a taken
    /// branch or a jump.
    fn retire(&mut self, taken: bool);
    /// The cycle budget, once the clock has passed it.
    fn cycle_limit(&self) -> Option<u64>;
}

impl Effects for () {
    #[inline]
    fn begin(&mut self, _pc: usize) {}

    #[inline]
    fn mem(&mut self, _addr: u64, _bytes: u32) {}

    #[inline]
    fn qz_latency(&mut self, _lat: u64) {}

    #[inline]
    fn retire(&mut self, _taken: bool) {}

    #[inline]
    fn cycle_limit(&self) -> Option<u64> {
        None
    }
}

/// The cycle engine's sink: records each instruction in a recycled
/// [`DynInst`] and retires it into the timing model with its predecoded
/// [`MicroOp`](crate::predecode::MicroOp). `d`'s `mem` buffer is reused
/// across every dynamic instruction (and, via [`Core`], across runs), so
/// the loop allocates nothing per instruction.
struct Timed<'a, P: Probe> {
    timing: &'a mut OooTiming<P>,
    pre: &'a Predecode,
    d: &'a mut DynInst,
}

impl<P: Probe> Effects for Timed<'_, P> {
    #[inline]
    fn begin(&mut self, pc: usize) {
        self.d.reset(pc);
    }

    #[inline]
    fn mem(&mut self, addr: u64, bytes: u32) {
        self.d.mem.push((addr, bytes));
    }

    #[inline]
    fn qz_latency(&mut self, lat: u64) {
        self.d.qz_latency = lat;
    }

    #[inline]
    fn retire(&mut self, taken: bool) {
        self.d.taken = taken;
        self.timing.retire(self.pre.op(self.d.pc), self.d);
    }

    #[inline]
    fn cycle_limit(&self) -> Option<u64> {
        self.timing.cycle_budget_exceeded()
    }
}

/// The one dispatch loop both engines run: check the budget, fetch,
/// resolve control flow, execute everything else through [`step`], and
/// retire into `fx`. Returns the executed instruction count (halt
/// included).
///
/// The order is the error contract: budget exhaustion
/// ([`SimError::InstLimit`]) wins over a fetch outside the program
/// ([`SimError::DecodeError`]), and the cycle watchdog is checked after
/// retire so the clock reflects the instruction; a halt returns before
/// it.
fn run(
    state: &mut ArchState,
    insts: &[Instruction],
    budget: u64,
    fx: &mut impl Effects,
) -> Result<u64, SimError> {
    let mut pc = 0usize;
    let mut executed = 0u64;

    loop {
        if executed >= budget {
            return Err(SimError::InstLimit { budget });
        }
        // Fallible fetch: a truncated program image or a corrupted
        // branch target surfaces as a typed decode fault, not a panic.
        let Some(&inst) = insts.get(pc) else {
            return Err(SimError::DecodeError { pc });
        };
        executed += 1;
        fx.begin(pc);
        let mut next_pc = pc + 1;
        let mut taken = false;

        match inst {
            Instruction::Branch {
                cond,
                rn,
                rm,
                target,
            } => {
                taken = cond.eval(state.x(rn) as i64, state.x(rm) as i64);
                if taken {
                    next_pc = target;
                }
            }
            Instruction::Jump { target } => {
                taken = true;
                next_pc = target;
            }
            Instruction::Halt => {
                fx.retire(false);
                return Ok(executed);
            }
            _ => step(pc, inst, state, fx)?,
        }

        fx.retire(taken);
        // Timing-side watchdog (see [`SimError::CycleLimit`]).
        if let Some(cycles) = fx.cycle_limit() {
            return Err(SimError::CycleLimit { budget: cycles });
        }
        pc = next_pc;
    }
}

/// Executes one instruction's data semantics against `state` — the
/// single implementation both engines share. `pc` is used only for
/// fault attribution. Memory accesses and QUETZAL latencies are reported
/// to `fx` where they occur.
///
/// Control flow stays with [`run`]: `Jump` is a counted no-op here, and
/// `Branch`/`Halt` must be resolved by the caller. Always inlined: the
/// loop dispatches the match directly, with no call per instruction.
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
            let x = state.x(rn);
            by_width!(esize, |B| fill::<B>(state.v_mut(vd), |_| x));
        }
        Instruction::DupImm { vd, imm, esize } => {
            by_width!(esize, |B| fill::<B>(state.v_mut(vd), |_| imm as u64));
        }
        Instruction::Index {
            vd,
            rn,
            step,
            esize,
        } => {
            let start = state.x(rn) as i64;
            let lane_value = |i: usize| start.wrapping_add(step.wrapping_mul(i as i64)) as u64;
            by_width!(esize, |B| fill::<B>(state.v_mut(vd), lane_value));
        }
        Instruction::VAluVV {
            op,
            vd,
            vn,
            vm,
            pg,
            esize,
        } => {
            let (a, b, pred) = (*state.v(vn), *state.v(vm), state.p(pg));
            by_width!(esize, |B| merge::<B>(state.v_mut(vd), pred, |i| {
                valu::<B>(op, lane_i64::<B>(&a, i), lane_i64::<B>(&b, i))
            }));
        }
        Instruction::VAluVI {
            op,
            vd,
            vn,
            imm,
            pg,
            esize,
        } => {
            let (a, pred) = (*state.v(vn), state.p(pg));
            by_width!(esize, |B| merge::<B>(state.v_mut(vd), pred, |i| {
                valu::<B>(op, lane_i64::<B>(&a, i), imm)
            }));
        }
        Instruction::VCmpVV {
            cond,
            pd,
            vn,
            vm,
            pg,
            esize,
        } => {
            let (a, b) = (state.v(vn), state.v(vm));
            let p = by_width!(esize, |B| compare::<B>(state.p(pg), |i| {
                cond.eval(lane_i64::<B>(a, i), lane_i64::<B>(b, i))
            }));
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
            let a = state.v(vn);
            let p = by_width!(esize, |B| compare::<B>(state.p(pg), |i| {
                cond.eval(lane_i64::<B>(a, i), imm)
            }));
            state.set_p(pd, p);
        }
        Instruction::VSel {
            vd,
            pg,
            vn,
            vm,
            esize,
        } => {
            let (n, m, pred) = (*state.v(vn), *state.v(vm), state.p(pg));
            by_width!(esize, |B| fill::<B>(state.v_mut(vd), |i| {
                lane::<B>(if active::<B>(pred, i) { &n } else { &m }, i)
            }));
        }
        Instruction::VLoad { vd, rn, pg, esize } => {
            let base = state.x(rn);
            let pred = state.p(pg);
            let mut v = [0u8; VLEN_BYTES];
            state.mem.read_into(base, &mut v);
            // Inactive lanes read as zero.
            by_width!(esize, |B| merge::<B>(&mut v, !pred, |_| 0));
            *state.v_mut(vd) = v;
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
            let (pred, m) = (state.p(pg), msize.bytes());
            let mut v = [0u8; VLEN_BYTES];
            by_width!(esize, |B| merge::<B>(&mut v, pred, |i| {
                state.mem.read_le(base.wrapping_add((i * m) as u64), m)
            }));
            *state.v_mut(vd) = v;
            fx.mem(base, (esize.lanes() * m) as u32);
        }
        Instruction::VStore { vs, rn, pg, esize } => {
            let base = state.x(rn);
            let (v, pred) = (*state.v(vs), state.p(pg));
            let stored = by_width!(esize, |B| state.mem.try_store_lanes::<B>(base, &v, pred));
            stored.map_err(|addr| SimError::MemoryFault { addr, pc })?;
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
            let (ix, pred, m) = (*state.v(idx), state.p(pg), msize.bytes());
            let mut v = [0u8; VLEN_BYTES];
            by_width!(esize, |B| {
                for i in 0..VLEN_BYTES / B {
                    if active::<B>(pred, i) {
                        let off = lane_i64::<B>(&ix, i);
                        let addr = base.wrapping_add_signed(off.wrapping_mul(scale as i64));
                        set_lane::<B>(&mut v, i, state.mem.read_le(addr, m));
                        fx.mem(addr, m as u32);
                    }
                }
            });
            *state.v_mut(vd) = v;
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
            let (v, ix, pred, m) = (*state.v(vs), *state.v(idx), state.p(pg), msize.bytes());
            by_width!(esize, |B| {
                for i in 0..VLEN_BYTES / B {
                    if active::<B>(pred, i) {
                        let off = lane_i64::<B>(&ix, i);
                        let addr = base.wrapping_add_signed(off.wrapping_mul(scale as i64));
                        if state.mem.try_write_le(addr, lane::<B>(&v, i), m).is_err() {
                            return Err(SimError::MemoryFault { addr, pc });
                        }
                        fx.mem(addr, m as u32);
                    }
                }
            });
        }
        Instruction::VReduce {
            op,
            rd,
            vn,
            pg,
            esize,
        } => {
            let (v, pred) = (state.v(vn), state.p(pg));
            let acc = by_width!(esize, |B| {
                let mut acc: Option<i64> = None;
                for i in 0..VLEN_BYTES / B {
                    if active::<B>(pred, i) {
                        let x = lane_i64::<B>(v, i);
                        acc = Some(match (acc, op) {
                            (None, _) => x,
                            (Some(a), RedOp::Add) => a.wrapping_add(x),
                            (Some(a), RedOp::Min) => a.min(x),
                            (Some(a), RedOp::Max) => a.max(x),
                        });
                    }
                }
                acc
            });
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
            lane: i,
            esize,
        } => {
            if i as usize >= esize.lanes() {
                return Err(SimError::InvalidRegister { index: i, pc });
            }
            let x = by_width!(esize, |B| lane::<B>(state.v(vn), i as usize));
            state.set_x(rd, x);
        }
        Instruction::VInsert {
            vd,
            rn,
            lane: i,
            esize,
        } => {
            if i as usize >= esize.lanes() {
                return Err(SimError::InvalidRegister { index: i, pc });
            }
            let x = state.x(rn);
            by_width!(esize, |B| set_lane::<B>(state.v_mut(vd), i as usize, x));
        }
        Instruction::VSlideDown {
            vd,
            vn,
            amount,
            esize,
        } => {
            // Lanes move down by `amount`, zero-filling the top: a byte
            // shift of the whole register.
            let n = *state.v(vn);
            let k = (amount as usize * esize.bytes()).min(VLEN_BYTES);
            let d = state.v_mut(vd);
            d[..VLEN_BYTES - k].copy_from_slice(&n[k..]);
            d[VLEN_BYTES - k..].fill(0);
        }
        Instruction::VSlide1Up { vd, vn, rn, esize } => {
            // Lanes move up by one and `rn` enters lane 0.
            let (n, x, w) = (*state.v(vn), state.x(rn), esize.bytes());
            let d = state.v_mut(vd);
            d[w..].copy_from_slice(&n[..VLEN_BYTES - w]);
            d[..w].copy_from_slice(&x.to_le_bytes()[..w]);
        }

        Instruction::PTrue { pd, esize } => {
            state.set_p(pd, by_width!(esize, |B| lane_mask::<B>()));
        }
        Instruction::PWhileLt { pd, rn, esize } => {
            let n = (state.x(rn) as i64).max(0) as usize;
            state.set_p(pd, by_width!(esize, |B| first_n::<B>(n)));
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
            fill::<8>(state.v_mut(vd), |i| vals[i]);
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
            fill::<8>(state.v_mut(vd), |i| vals[i]);
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
            fill::<8>(state.v_mut(vd), |i| vals[i]);
            fx.qz_latency(lat);
        }
        Instruction::QzCount { vd, vn, vm } => {
            let a = state.v_lanes64(vn);
            let b = state.v_lanes64(vm);
            let counts = qzcount_vector(&a, &b, state.qz.esize);
            fill::<8>(state.v_mut(vd), |i| counts[i]);
            fx.qz_latency(COUNT_ALU_LATENCY);
        }
    }
    Ok(())
}

/// Which execution engine [`Core::run`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The cycle-level out-of-order engine (timing ground truth).
    #[default]
    Cycle,
    /// The functional tier: identical architectural results, no clock —
    /// `RunStats` carries only the instruction count.
    Functional,
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

    /// Cold-boots the core in place: architectural state, accelerator
    /// and the whole timing engine (clock, caches, predictor) return to
    /// power-on values while the big allocations — cache tag arrays,
    /// scratch buffers — are reused. Behaviourally identical to building
    /// a fresh core with the same configuration: the budget returns to
    /// its default.
    pub fn reset(&mut self) {
        self.state.reset();
        self.timing.reset();
        self.budget = Self::DEFAULT_BUDGET;
        // Cold boot selects the timing engine; batch pools re-apply
        // their configured mode after every reset.
        self.mode = ExecMode::default();
    }

    /// Selects which engine [`run`](Core::run) drives: the cycle-level
    /// out-of-order model (default) or the functional tier, which
    /// produces bit-identical architectural results under the
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

    /// Runs a program on the selected engine; returns this run's
    /// statistics. Both engines run the same dispatch loop and differ
    /// only in the sink it reports to: a functional run touches no
    /// probe and no timing state, and its [`RunStats`] carry only the
    /// retired-instruction count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on budget exhaustion or invalid `qzconf`.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        let Core {
            state,
            timing,
            budget,
            mode,
            scratch,
        } = self;
        let insts = program.instructions();
        if *mode == ExecMode::Functional {
            let instructions = run(state, insts, *budget, &mut ())?;
            return Ok(RunStats {
                instructions,
                ..RunStats::default()
            });
        }
        // Predecode per run: drivers stage a fresh `Program` per item,
        // and hashing the stream to find a cached table costs more than
        // decoding it (see DESIGN.md "Predecode & hot-path invariants").
        let pre = Predecode::of(program);
        if P::ENABLED {
            timing.probe_mut().on_program(program.id(), program.name());
        }
        timing.begin_run();
        let mut sink = Timed {
            timing,
            pre: &pre,
            d: scratch,
        };
        run(state, insts, *budget, &mut sink)?;
        Ok(timing.end_run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (out, snap) = run_both_engines(&|_| {}, &b.build().unwrap(), &[]);
        assert_eq!(out, Ok(()));
        assert_eq!(
            u64::from_le_bytes(snap.1[3][..8].try_into().unwrap()),
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
        let (out, _) = run_both_engines(&|_| {}, &b.build().unwrap(), &[]);
        assert_eq!(out, Err(SimError::InvalidQzConf { esiz: 7, pc: 3 }));
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
        let (out, _) = run_both_engines(&|_| {}, &p, &[]);
        assert_eq!(out, Err(SimError::InvalidRegister { index: 60, pc: 0 }));
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
        let (out, _) = run_both_engines(&|_| {}, &p, &[]);
        assert_eq!(out, Err(SimError::InvalidRegister { index: 200, pc: 0 }));
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
        let p = b.build().unwrap();
        let (out, snap) = run_both_engines(&|st| st.mem.set_page_budget(16), &p, &[]);
        assert_eq!(
            out,
            Err(SimError::MemoryFault {
                addr: 16 << 16,
                pc: 2
            })
        );
        assert_eq!(snap.3, 16, "the budget's pages are resident");
        let mut c = core();
        c.state_mut().mem.set_page_budget(16);
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
        assert_eq!(c.state().v_elem_i64(V2, 0, ElemSize::B32), 2);
        assert_eq!(c.state().v_elem_i64(V3, 0, ElemSize::B32), -3);
    }

    /// Architectural state visible after a unit-stride run: registers,
    /// resident page count, and the bytes around each probed address.
    type Snapshot = (Vec<u64>, Vec<VValue>, Vec<u64>, usize, Vec<Vec<u8>>);

    /// Runs `p` after `stage` on a fresh core per engine, asserts that
    /// the cycle engine and the functional tier agree on the outcome and
    /// on a [`Snapshot`] covering 256 bytes around each probe, and
    /// returns them.
    fn run_both_engines(
        stage: &dyn Fn(&mut ArchState),
        p: &Program,
        probes: &[u64],
    ) -> (Result<(), SimError>, Snapshot) {
        let [cycle, functional] = [ExecMode::Cycle, ExecMode::Functional].map(|mode| {
            let mut c = core();
            c.set_exec_mode(mode);
            stage(c.state_mut());
            let out = c.run(p).map(|_| ());
            let st = c.state();
            let snap = (
                (0..32).map(|r| st.x(XReg::new(r))).collect(),
                (0..32).map(|r| *st.v(VReg::new(r))).collect(),
                (0..16).map(|r| st.p(PReg::new(r))).collect(),
                st.mem.resident_pages(),
                probes
                    .iter()
                    .map(|&a| st.mem.read_bytes(a.wrapping_sub(128), 256))
                    .collect(),
            );
            (out, snap)
        });
        assert_eq!(cycle, functional, "engines disagree");
        cycle
    }

    /// `VLoad`/`VStore` at a page-straddling base, at a base in the last
    /// 64 bytes below 2^64 (addresses wrap), and under an all-inactive
    /// predicate, at every element size: both engines agree on the
    /// state, the loaded register holds exactly the active lanes, the
    /// store writes exactly the active lanes, and a store with no active
    /// lane allocates no page.
    #[test]
    fn unit_stride_edges_agree_across_engines() {
        const PRED: u64 = 0x0F0F_00FF_F0F0_A5A5;
        let straddle = 0x7000 - 24;
        let wrap = u64::MAX - 31;
        let image: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let vs: VValue = std::array::from_fn(|i| 0xC0 ^ i as u8);
        for esize in ElemSize::all() {
            let w = esize.bytes();
            let active = |i: usize| PRED >> (i / w * w) & 1 == 1;
            // The store overwrites the loaded range, except in the empty
            // cases, which target fresh pages: one straddling, one not.
            let cases = [
                (straddle, straddle, PRED),
                (wrap, wrap, PRED),
                (straddle, straddle + (1 << 20), 0),
                (straddle, 0x20_0040, 0),
            ];
            for (base, dst, pred) in cases {
                let mut b = ProgramBuilder::new();
                b.vload(V1, X0, P0, esize);
                b.vstore(V2, X1, P0, esize);
                b.halt();
                let p = b.build().unwrap();
                let stage = |st: &mut ArchState| {
                    st.mem.write_bytes(base, &image);
                    *st.v_mut(V2) = vs;
                    st.set_p(P0, pred);
                    st.set_x(X0, base);
                    st.set_x(X1, dst);
                };
                let (out, snap) = run_both_engines(&stage, &p, &[dst]);
                assert_eq!(out, Ok(()), "{esize:?} {base:#x}");
                let pages_before = {
                    let mut st = ArchState::new(CoreConfig::a64fx_like().qz);
                    stage(&mut st);
                    st.mem.resident_pages()
                };
                let on = |i: usize| pred != 0 && active(i);
                let loaded: VValue = std::array::from_fn(|i| if on(i) { image[i] } else { 0 });
                assert_eq!(snap.1[1], loaded, "{esize:?} {base:#x} load");
                let old = |i: usize| if dst == base { image[i] } else { 0 };
                let stored: Vec<u8> = (0..64)
                    .map(|i| if on(i) { vs[i] } else { old(i) })
                    .collect();
                assert_eq!(snap.4[0][128..192], stored[..], "{esize:?} {base:#x} store");
                if pred == 0 {
                    assert_eq!(snap.3, pages_before, "{esize:?}: empty store allocated");
                }
            }
        }
    }

    /// A straddling `VStore` whose page budget runs out in the second
    /// page faults at the first lane in that page, with the first-page
    /// lanes written — identically on both engines.
    #[test]
    fn unit_stride_budget_fault_keeps_earlier_lanes() {
        let base = 0x9000 - 24;
        let mut b = ProgramBuilder::new();
        b.vstore(V2, X1, P0, ElemSize::B64);
        b.halt();
        let p = b.build().unwrap();
        let vs: VValue = std::array::from_fn(|i| 1 + i as u8);
        let stage = |st: &mut ArchState| {
            *st.v_mut(V2) = vs;
            st.set_p(P0, u64::MAX);
            st.set_x(X1, base);
            st.mem.set_page_budget(1);
        };
        let (out, snap) = run_both_engines(&stage, &p, &[base]);
        assert_eq!(
            out,
            Err(SimError::MemoryFault {
                addr: 0x9000,
                pc: 0
            })
        );
        assert_eq!(snap.3, 1, "only the first page is resident");
        assert_eq!(snap.4[0][128..152], vs[..24], "first-page lanes written");
        assert!(snap.4[0][152..].iter().all(|&b| b == 0));
        // Within one page, the fault names the first active lane.
        let stage = |st: &mut ArchState| {
            stage(st);
            st.set_p(P0, 0xFF00_0000_0000_0000);
            st.set_x(X1, 0x9000);
            st.mem.set_page_budget(0);
        };
        let (out, snap) = run_both_engines(&stage, &p, &[0x9000]);
        assert_eq!(
            out,
            Err(SimError::MemoryFault {
                addr: 0x9038,
                pc: 0
            })
        );
        assert_eq!(snap.3, 0);
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
        c2.set_exec_mode(ExecMode::Functional);
        c2.run(&p).unwrap();
        assert_eq!(c1.state().x(X1), c2.state().x(X1));
    }

    /// Asserts, on both engines, that `p` stops with `InstLimit` at every
    /// budget below `n` and ends in `outcome` (the retired count, or the
    /// error) at `n` and above.
    fn assert_budget_sweep(p: &Program, n: u64, outcome: Result<u64, SimError>) {
        for mode in [ExecMode::Cycle, ExecMode::Functional] {
            for budget in 0..=n + 2 {
                let mut c = core();
                c.set_exec_mode(mode);
                c.set_budget(budget);
                let want = if budget < n {
                    Err(SimError::InstLimit { budget })
                } else {
                    outcome.clone()
                };
                let got = c.run(p).map(|s| s.instructions);
                assert_eq!(got, want, "{} {mode:?} at budget {budget}", p.name());
            }
        }
    }

    #[test]
    fn out_of_program_targets_fault_after_the_budget_check() {
        // Falling off the end, and a wild jump: the fetch faults only
        // when the budget still allows one more instruction.
        let trunc = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 1 }], "trunc");
        assert_budget_sweep(&trunc, 2, Err(SimError::DecodeError { pc: 1 }));
        let wild = Program::from_raw(
            vec![Instruction::Jump { target: 99 }, Instruction::Halt],
            "wild",
        );
        assert_budget_sweep(&wild, 2, Err(SimError::DecodeError { pc: 99 }));
        // A wild branch target: taken, it faults; not taken, the halt
        // retires as the fourth instruction.
        for (imm, outcome) in [(1, Err(SimError::DecodeError { pc: 77 })), (0, Ok(4))] {
            let p = Program::from_raw(
                vec![
                    Instruction::MovImm { rd: X0, imm },
                    Instruction::MovImm { rd: X1, imm: 1 },
                    Instruction::Branch {
                        cond: BranchCond::Eq,
                        rn: X0,
                        rm: X1,
                        target: 77,
                    },
                    Instruction::Halt,
                ],
                "wild-branch",
            );
            assert_budget_sweep(&p, 4, outcome);
        }
    }

    #[test]
    fn empty_program_faults_after_the_budget_check() {
        let p = Program::from_raw(Vec::new(), "empty");
        assert_budget_sweep(&p, 1, Err(SimError::DecodeError { pc: 0 }));
    }

    #[test]
    fn vector_kernel_computes_on_both_engines() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x2000);
        b.mov_imm(X1, 7);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X0, 3, ElemSize::B64);
        b.dup(V1, X1, ElemSize::B64);
        b.valu_vv(VAluOp::Add, V2, V0, V1, P0, ElemSize::B64);
        b.vstore(V2, X0, P0, ElemSize::B64);
        b.vload(V3, X0, P0, ElemSize::B64);
        b.vreduce(RedOp::Add, X2, V3, P0, ElemSize::B64);
        b.halt();
        let (out, snap) = run_both_engines(&|_| {}, &b.build().unwrap(), &[0x2000]);
        assert_eq!(out, Ok(()));
        // Lanes 0x2000 + 3i + 7 for i in 0..8, summed.
        assert_eq!(snap.0[2], 8 * 0x2007 + 3 * 28);
    }

    // Functional-mode tests (`ExecMode::Functional`). Both modes run
    // through one per-instruction loop and differ only in the timing
    // sink, so agreement between them no longer tests dispatch by
    // itself: each test below runs its program on both modes and
    // asserts a hand-computed outcome. The names are those of the
    // engine-agreement tests written for the superblock tier that these
    // programs first exercised.

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

#[cfg(test)]
mod proptests {
    //! Differential testing: random straight-line scalar programs, and
    //! every width-specialised vector lane op (ALU, reduce, compare,
    //! select, broadcast, index, predicate and gather/scatter) at all
    //! four element sizes, are executed by the simulator and by a direct
    //! Rust evaluator that restates the architectural semantics without
    //! sharing simulator routines; the final register files (and the
    //! scattered memory) must agree exactly. Case generation is seeded
    //! (in-tree PRNG), so failures reproduce exactly.

    use super::*;
    use crate::state::VValue;
    use quetzal_genomics::rng::SplitMix64;
    use quetzal_isa::{BranchCond, MemSize, ProgramBuilder, SAluOp, XReg, P0, V0, V1};

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
        let mut lane_rng = SplitMix64::new(0x1A4E_0B5E);
        for case in 0..48 {
            let len = rng.i64_in(1, 60) as usize;
            let ops: Vec<Op> = (0..len).map(|_| random_op(&mut rng)).collect();
            check_program(case, &ops);
            check_vector_ops(case, &mut vector_rng);
            check_lane_ops(case, &mut lane_rng);
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

    /// Independent re-statement of the six signed comparisons.
    fn oracle_cond(cond: BranchCond, a: i64, b: i64) -> bool {
        match cond {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
            BranchCond::Ge => a >= b,
        }
    }

    /// The remaining lane ops at one element size, under the same
    /// predicate schedule as [`check_vector_ops`]: `VCmpVV`/`VCmpVI`
    /// over all six conditions, `VSel`, `Dup`, `DupImm`, `Index` (a
    /// negative and a full-width step), `PTrue`, `PWhileLt`, `PCount`,
    /// and `VGather`/`VScatter` over an index vector full of duplicates
    /// (a later lane's scatter overwrites an earlier one's).
    fn check_lane_ops(case: usize, rng: &mut SplitMix64) {
        use BranchCond::*;
        const CONDS: [BranchCond; 6] = [Eq, Ne, Lt, Le, Gt, Ge];
        const SIZES: [ElemSize; 4] = [ElemSize::B8, ElemSize::B16, ElemSize::B32, ElemSize::B64];
        const MSIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
        const GATHER: u64 = 0x1_0000;
        const SCATTER: u64 = 0x2_0000;
        let (esize, j) = (SIZES[case % 4], case / 4);
        let w = esize.bytes();
        let lanes = VLEN_BYTES / w;
        let width_mask = u64::MAX >> (64 - 8 * w);
        let pred = [u64::MAX, 0, rng.next_u64()][j % 3];
        // Half the lanes of `a` equal `b`'s, so Eq/Le/Ge see ties.
        let [mut a, b, dest]: [VValue; 3] =
            std::array::from_fn(|_| std::array::from_fn(|_| rng.next_u64() as u8));
        for i in (0..lanes).filter(|_| rng.below(2) == 0) {
            a[i * w..(i + 1) * w].copy_from_slice(&b[i * w..(i + 1) * w]);
        }
        // Small signed indices (-4..4), so lanes collide.
        let mut ix: VValue = [0; VLEN_BYTES];
        for i in 0..lanes {
            let k = rng.i64_in(-4, 4) as u64;
            ix[i * w..(i + 1) * w].copy_from_slice(&k.to_le_bytes()[..w]);
        }
        let imm = lane(&b, rng.below(lanes as u64) as usize, w).1;
        let (x_dup, x_start) = (rng.next_u64(), rng.next_u64());
        let steps = [rng.i64_in(-200, 0), rng.next_u64() as i64];
        let n = match rng.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.i64_in(-3, lanes as i64 + 3),
        };
        let msize = *rng.pick(&MSIZES);
        let m = msize.bytes();
        let scale = 1u8 << rng.below(4);
        let image: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();

        let v = VReg::new;
        let x = XReg::new;
        let p = quetzal_isa::PReg::new;
        let mut prog = ProgramBuilder::new();
        for (k, &cond) in CONDS.iter().enumerate() {
            prog.vcmp_vv(cond, p(1 + k as u8), V0, V1, P0, esize);
            prog.vcmp_vi(cond, p(7 + k as u8), V0, imm, P0, esize);
        }
        prog.vsel(v(2), P0, V0, V1, esize);
        prog.dup(v(3), x(0), esize);
        prog.dup_imm(v(4), imm, esize);
        prog.index(v(5), x(1), steps[0], esize);
        prog.index(v(6), x(1), steps[1], esize);
        prog.ptrue(p(13), esize);
        prog.pwhilelt(p(14), x(2), esize);
        prog.pcount(x(3), P0, esize);
        prog.pcount(x(4), p(14), esize);
        prog.vgather(v(7), x(5), v(8), P0, esize, msize, scale);
        prog.vscatter(V1, x(6), v(8), P0, esize, msize, scale);
        prog.halt();
        let mut core = Core::new(CoreConfig::a64fx_like());
        let st = core.state_mut();
        *st.v_mut(V0) = a;
        *st.v_mut(V1) = b;
        *st.v_mut(v(8)) = ix;
        (2..8).for_each(|r| *st.v_mut(v(r)) = dest);
        st.set_p(P0, pred);
        st.set_x(x(0), x_dup);
        st.set_x(x(1), x_start);
        st.set_x(x(2), n as u64);
        st.set_x(x(5), GATHER + 128);
        st.set_x(x(6), SCATTER + 128);
        st.mem.write_bytes(GATHER, &image);
        core.run(&prog.build().unwrap()).unwrap();
        let st = core.state();

        let is_active = |i: usize| pred >> (i * w) & 1 == 1;
        let put = |r: &mut VValue, i: usize, val: u64| {
            r[i * w..(i + 1) * w].copy_from_slice(&val.to_le_bytes()[..w]);
        };
        let bits = |f: &dyn Fn(usize) -> bool| {
            (0..lanes)
                .filter(|&i| f(i))
                .map(|i| 1u64 << (i * w))
                .sum::<u64>()
        };
        for (k, &cond) in CONDS.iter().enumerate() {
            let want =
                bits(&|i| is_active(i) && oracle_cond(cond, lane(&a, i, w).1, lane(&b, i, w).1));
            assert_eq!(
                st.p(p(1 + k as u8)),
                want,
                "case {case}: {cond:?} {esize:?} vv"
            );
            let want = bits(&|i| is_active(i) && oracle_cond(cond, lane(&a, i, w).1, imm));
            assert_eq!(
                st.p(p(7 + k as u8)),
                want,
                "case {case}: {cond:?} {esize:?} #{imm}"
            );
        }
        let mut want: [VValue; 5] = [[0; VLEN_BYTES]; 5];
        for i in 0..lanes {
            put(
                &mut want[0],
                i,
                lane(if is_active(i) { &a } else { &b }, i, w).0,
            );
            put(&mut want[1], i, x_dup);
            put(&mut want[2], i, imm as u64);
            for (s, &step) in steps.iter().enumerate() {
                let e = x_start.wrapping_add((i as u64).wrapping_mul(step as u64));
                put(&mut want[3 + s], i, e & width_mask);
            }
        }
        let names = ["vsel", "dup", "dup_imm", "index -", "index full"];
        for (k, name) in names.iter().enumerate() {
            assert_eq!(
                st.v(v(2 + k as u8)),
                &want[k],
                "case {case}: {name} {esize:?}"
            );
        }
        let first = n.clamp(0, lanes as i64) as usize;
        assert_eq!(st.p(p(13)), bits(&|_| true), "case {case}: ptrue {esize:?}");
        assert_eq!(
            st.p(p(14)),
            bits(&|i| i < first),
            "case {case}: pwhilelt {n} {esize:?}"
        );
        let n_active = (0..lanes).filter(|&i| is_active(i)).count() as u64;
        assert_eq!(st.x(x(3)), n_active, "case {case}: pcount {esize:?}");
        assert_eq!(
            st.x(x(4)),
            first as u64,
            "case {case}: pcount whilelt {esize:?}"
        );

        // Gather reads `m` bytes at base + index * scale into each active
        // lane; scatter writes lanes in order, so duplicates keep the
        // highest active lane's value.
        let mut gathered: VValue = [0; VLEN_BYTES];
        let mut scattered = vec![0u8; 256];
        for i in (0..lanes).filter(|&i| is_active(i)) {
            let at = (128 + lane(&ix, i, w).1 * i64::from(scale)) as usize;
            let mut le = [0u8; 8];
            le[..m].copy_from_slice(&image[at..at + m]);
            put(&mut gathered, i, u64::from_le_bytes(le));
            scattered[at..at + m].copy_from_slice(&lane(&b, i, w).0.to_le_bytes()[..m]);
        }
        assert_eq!(
            st.v(v(7)),
            &gathered,
            "case {case}: gather {esize:?} {msize:?}*{scale}"
        );
        assert_eq!(
            st.mem.read_bytes(SCATTER, 256),
            scattered,
            "case {case}: scatter {esize:?} {msize:?}*{scale}"
        );
    }
}
