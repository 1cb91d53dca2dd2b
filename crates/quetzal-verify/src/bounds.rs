//! Static trip-count inference and whole-program resource bounds.
//!
//! Built on three ingredients:
//!
//! 1. the CFG's natural-loop recovery ([`Cfg::loop_info`]),
//! 2. a relational fixpoint over the [`Octagon`] domain (per-block
//!    entry octagons, branch-edge refinement, widening after a fixed
//!    number of joins), and
//! 3. two loop-header trip-count rules — a *scalar counter* rule
//!    (monotone `add/sub`-stepped register against the octagon's
//!    proven interval at the header) and a *vector fuel* rule (the
//!    predicate-governed wavefront loops of the WFA/SneakySnake vector
//!    tiers, bounded by a lane-advance-or-permanently-drop potential
//!    argument).
//!
//! From per-loop trip counts, each block's execution count is the
//! product of the trip counts of every loop containing it (sound for
//! reducible CFGs; irreducible graphs are reported unbounded). The
//! [`ResourceBound`] then follows: retired instructions by summation,
//! distinct touched guest pages from the store sites' address
//! intervals, and a cycle ceiling from per-class worst-case latencies.
//!
//! # Soundness
//!
//! `instructions`/`pages` bound *every* execution of the program on a
//! freshly-reset machine (arbitrary staged register/memory contents):
//! the proven retired-instruction count is never exceeded and the
//! program never allocates more than `pages` guest pages beyond what
//! was resident when it started. The `cycles` ceiling is relative to
//! the [`ClassLatencies`] table it was computed with — sound for a
//! machine whose per-retire worst case stays within those values (the
//! defaults are calibrated far above the A64FX-like model's worst
//! paths and pinned by the fault-injection sweep).
//!
//! Wrap-around is handled without per-site proofs: every finite
//! octagon bound is clamped into `±2^61`, and the rules additionally
//! require the total per-iteration step magnitude to stay below that
//! clamp, so a counter provably cannot cross from its proven range to
//! the wrap boundary within one trip around the loop.

use crate::lattice::VAbs;
use crate::octagon::Octagon;
use quetzal_isa::cfg::{Cfg, LoopInfo, NaturalLoop, Succ};
use quetzal_isa::{
    BranchCond, ElemSize, InstClass, Instruction, PReg, Program, Reg, SAluOp, VAluOp, VReg, XReg,
    VLEN_BYTES,
};

/// Guest page size (mirrors `quetzal-uarch`).
const PAGE_BITS: u32 = 12;
/// Joins tolerated at a block before the octagon fixpoint widens.
const WIDEN_AFTER: u32 = 6;
/// Magnitude guard matching the octagon's internal clamp.
const STEP_CLAMP: i128 = 1 << 61;

/// Worst-case retire-to-retire cycle cost per instruction class, plus
/// a fixed startup term. The defaults are derived from
/// [`CoreConfig::a64fx_like`](../../quetzal_uarch/config/struct.CoreConfig.html)
/// by `quetzal::class_latencies` (a drift test pins the two together):
/// memory classes assume every access misses to DRAM, gathers and
/// scatters assume fully serialized per-lane misses, and everything
/// gets a pipeline margin on top of its FU latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLatencies {
    /// Scalar integer ALU.
    pub scalar_alu: u64,
    /// Scalar multiply.
    pub scalar_mul: u64,
    /// Scalar load (worst-case miss path + failed forwarding).
    pub scalar_load: u64,
    /// Scalar store (worst-case miss path).
    pub scalar_store: u64,
    /// Control transfer (mispredict refill).
    pub branch: u64,
    /// Vector ALU.
    pub vector_alu: u64,
    /// Vector multiply.
    pub vector_mul: u64,
    /// Unit-stride vector load (two lines, both missing).
    pub vector_load: u64,
    /// Unit-stride vector store.
    pub vector_store: u64,
    /// Gather (crack overhead + serialized per-lane misses).
    pub gather: u64,
    /// Scatter (same cracking model as gathers).
    pub scatter: u64,
    /// Cross-lane reduction / permute.
    pub vector_horizontal: u64,
    /// Predicate manipulation.
    pub predicate: u64,
    /// QUETZAL configuration.
    pub qz_config: u64,
    /// QUETZAL buffer write (serialized bank conflicts).
    pub qz_write: u64,
    /// QUETZAL buffer read.
    pub qz_read: u64,
    /// QUETZAL count ALU.
    pub qz_count: u64,
    /// Halt.
    pub halt: u64,
    /// Fixed pipeline fill/drain allowance added once per run.
    pub startup: u64,
}

impl ClassLatencies {
    /// Worst-case cycles charged for one retired instruction of `c`.
    pub fn latency(&self, c: InstClass) -> u64 {
        match c {
            InstClass::ScalarAlu => self.scalar_alu,
            InstClass::ScalarMul => self.scalar_mul,
            InstClass::ScalarLoad => self.scalar_load,
            InstClass::ScalarStore => self.scalar_store,
            InstClass::Branch => self.branch,
            InstClass::VectorAlu => self.vector_alu,
            InstClass::VectorMul => self.vector_mul,
            InstClass::VectorLoad => self.vector_load,
            InstClass::VectorStore => self.vector_store,
            InstClass::Gather => self.gather,
            InstClass::Scatter => self.scatter,
            InstClass::VectorHorizontal => self.vector_horizontal,
            InstClass::Predicate => self.predicate,
            InstClass::QzConfig => self.qz_config,
            InstClass::QzWrite => self.qz_write,
            InstClass::QzRead => self.qz_read,
            InstClass::QzCountOp => self.qz_count,
            InstClass::Halt => self.halt,
        }
    }
}

impl Default for ClassLatencies {
    /// Matches `quetzal::class_latencies(&CoreConfig::a64fx_like())`;
    /// see that function for the derivation.
    fn default() -> ClassLatencies {
        ClassLatencies {
            scalar_alu: 4,
            scalar_mul: 6,
            scalar_load: 174,
            scalar_store: 164,
            branch: 16,
            vector_alu: 7,
            vector_mul: 8,
            vector_load: 325,
            vector_store: 325,
            gather: 1311,
            scatter: 1311,
            vector_horizontal: 9,
            predicate: 4,
            qz_config: 7,
            qz_write: 67,
            qz_read: 67,
            qz_count: 16,
            halt: 4,
            startup: 128,
        }
    }
}

/// Statically proven worst-case resource consumption of one program
/// run. `None` means the verifier could not bound the quantity (an
/// unbounded or irreducible loop) and the runtime watchdog is the only
/// protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceBound {
    /// Maximum retired instructions.
    pub instructions: Option<u64>,
    /// Maximum distinct guest pages the program itself can allocate
    /// (on top of whatever the host staged before the run).
    pub pages: Option<u64>,
    /// Cycle ceiling under the [`ClassLatencies`] the bound was
    /// computed with.
    pub cycles: Option<u64>,
    /// Whether the bound leans on the staged-word-range premise
    /// ([`VerifyConfig::staged_word_range`](crate::VerifyConfig)): it
    /// then holds for executions whose host-staged 8-byte words all lie
    /// in that range (every in-tree workload does), instead of for
    /// arbitrary staged memory.
    pub premised: bool,
}

impl ResourceBound {
    /// The no-information bound.
    pub fn unbounded() -> ResourceBound {
        ResourceBound {
            instructions: None,
            pages: None,
            cycles: None,
            premised: false,
        }
    }

    /// Whether every quantity is finitely bounded.
    pub fn is_bounded(&self) -> bool {
        self.instructions.is_some() && self.pages.is_some() && self.cycles.is_some()
    }
}

impl std::fmt::Display for ResourceBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn one(f: &mut std::fmt::Formatter<'_>, name: &str, v: Option<u64>) -> std::fmt::Result {
            match v {
                Some(v) => write!(f, "{name}≤{v}"),
                None => write!(f, "{name}=∞"),
            }
        }
        one(f, "insts", self.instructions)?;
        write!(f, " ")?;
        one(f, "pages", self.pages)?;
        write!(f, " ")?;
        one(f, "cycles", self.cycles)?;
        if self.premised {
            write!(f, " (staged-range premise)")?;
        }
        Ok(())
    }
}

/// The staged-word-range premise threaded through the transfer
/// function: scalar 8-byte loads at `protected` PCs provably cannot
/// alias any store the program performs, so they observe host-staged
/// (or never-written, i.e. zero) memory and their result lies in
/// `range`.
pub(crate) struct Premise {
    /// Per-PC flag: `true` for protected scalar B8 loads.
    protected: Vec<bool>,
    /// Inclusive value range of every host-staged 8-byte word.
    range: (i64, i64),
}

#[inline]
fn xi(r: XReg) -> usize {
    r.index() as usize
}

/// Octagon transfer for one instruction. Only scalar-register effects
/// matter; vector/predicate state lives in the main verifier lattice.
/// `pc` and `premise` gate the protected-load rule (see [`Premise`]).
pub(crate) fn oct_step(o: &mut Octagon, inst: &Instruction, pc: usize, premise: Option<&Premise>) {
    use Instruction::*;
    match *inst {
        MovImm { rd, imm } => o.assign_const(xi(rd), imm),
        AluRI { op, rd, rn, imm } => {
            let (rd, rn) = (xi(rd), xi(rn));
            match op {
                SAluOp::Add => {
                    if rd == rn {
                        o.assign_shift(rd, imm);
                    } else {
                        o.assign_copy_add(rd, rn, imm);
                    }
                }
                SAluOp::Sub => match imm.checked_neg() {
                    Some(n) if rd == rn => o.assign_shift(rd, n),
                    Some(n) => o.assign_copy_add(rd, rn, n),
                    None => o.forget(rd),
                },
                SAluOp::Min => {
                    let (l, h) = (o.lo(rn), o.hi(rn));
                    o.assign_range(
                        rd,
                        l.map(|l| l.min(imm)),
                        Some(h.map_or(imm, |h| h.min(imm))),
                    );
                    if rd != rn {
                        o.assert_diff_le(rd, rn, 0);
                    }
                }
                SAluOp::Max => {
                    let (l, h) = (o.lo(rn), o.hi(rn));
                    o.assign_range(
                        rd,
                        Some(l.map_or(imm, |l| l.max(imm))),
                        h.map(|h| h.max(imm)),
                    );
                    if rd != rn {
                        o.assert_diff_le(rn, rd, 0);
                    }
                }
                SAluOp::SetLt | SAluOp::SetEq => o.assign_range(rd, Some(0), Some(1)),
                SAluOp::And if imm >= 0 => o.assign_range(rd, Some(0), Some(imm)),
                SAluOp::Mul => match (o.lo(rn), o.hi(rn)) {
                    (Some(l), Some(h)) if l == h => match l.checked_mul(imm) {
                        Some(p) => o.assign_const(rd, p),
                        None => o.forget(rd),
                    },
                    _ => o.forget(rd),
                },
                // Shifts mask the amount with `& 63` (ISA semantics).
                SAluOp::Shl => {
                    let k = (imm as u64 as u32) & 63;
                    if k == 0 {
                        if rd != rn {
                            o.assign_copy_add(rd, rn, 0);
                        }
                    } else {
                        // `v << k` equals exact multiplication by 2^k
                        // whenever the product fits in i64; an interval
                        // shifts endpoint-wise iff both endpoints fit.
                        let shl = |v: i64| i64::try_from((v as i128) << k).ok();
                        match (o.lo(rn).and_then(shl), o.hi(rn).and_then(shl)) {
                            (Some(l), Some(h)) => o.assign_range(rd, Some(l), Some(h)),
                            _ => o.forget(rd),
                        }
                    }
                }
                SAluOp::Sar => {
                    let k = (imm as u64 as u32) & 63;
                    if k == 0 {
                        if rd != rn {
                            o.assign_copy_add(rd, rn, 0);
                        }
                    } else {
                        // Arithmetic right shift is total and monotone.
                        let (l, h) = (o.lo(rn).map(|v| v >> k), o.hi(rn).map(|v| v >> k));
                        o.assign_range(rd, l, h);
                    }
                }
                SAluOp::Shr => {
                    let k = (imm as u64 as u32) & 63;
                    if k == 0 {
                        if rd != rn {
                            o.assign_copy_add(rd, rn, 0);
                        }
                    } else {
                        match (o.lo(rn), o.hi(rn)) {
                            // Non-negative values: logical == arithmetic.
                            (Some(l), Some(h)) if l >= 0 => {
                                o.assign_range(rd, Some(l >> k), Some(h >> k));
                            }
                            // k ≥ 1 zero-fills the sign bit: the result
                            // is always in [0, 2^(64-k) - 1].
                            _ => {
                                let h = ((1u128 << (64 - k)) - 1) as i64;
                                o.assign_range(rd, Some(0), Some(h));
                            }
                        }
                    }
                }
                _ => o.forget(rd),
            }
        }
        AluRR { op, rd, rn, rm } => {
            let (rd, rn, rm) = (xi(rd), xi(rn), xi(rm));
            match op {
                SAluOp::Add => o.assign_arith_rr(rd, rn, rm, true),
                SAluOp::Sub => o.assign_arith_rr(rd, rn, rm, false),
                SAluOp::Min => {
                    let lo = o.lo(rn).zip(o.lo(rm)).map(|(a, b)| a.min(b));
                    let hi = match (o.hi(rn), o.hi(rm)) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (h, None) | (None, h) => h,
                    };
                    let relate = (rd != rn)
                        .then_some(rn)
                        .into_iter()
                        .chain((rd != rm).then_some(rm));
                    let relate: Vec<usize> = relate.collect();
                    o.assign_range(rd, lo, hi);
                    for s in relate {
                        o.assert_diff_le(rd, s, 0);
                    }
                }
                SAluOp::Max => {
                    let hi = o.hi(rn).zip(o.hi(rm)).map(|(a, b)| a.max(b));
                    let lo = match (o.lo(rn), o.lo(rm)) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (l, None) | (None, l) => l,
                    };
                    let relate: Vec<usize> = (rd != rn)
                        .then_some(rn)
                        .into_iter()
                        .chain((rd != rm).then_some(rm))
                        .collect();
                    o.assign_range(rd, lo, hi);
                    for s in relate {
                        o.assert_diff_le(s, rd, 0);
                    }
                }
                SAluOp::SetLt | SAluOp::SetEq => o.assign_range(rd, Some(0), Some(1)),
                SAluOp::Mul => {
                    let c = match (o.lo(rn), o.hi(rn), o.lo(rm), o.hi(rm)) {
                        (Some(a), Some(b), Some(c), Some(d)) if a == b && c == d => {
                            a.checked_mul(c)
                        }
                        _ => None,
                    };
                    match c {
                        Some(p) => o.assign_const(rd, p),
                        None => o.forget(rd),
                    }
                }
                _ => o.forget(rd),
            }
        }
        Load { rd, size, .. } => {
            // Loads zero-extend, so narrow widths have known ranges.
            let hi = match size.bytes() {
                1 => Some(0xFF),
                2 => Some(0xFFFF),
                4 => Some(0xFFFF_FFFF),
                _ => None,
            };
            match hi {
                Some(h) => o.assign_range(xi(rd), Some(0), Some(h)),
                None => match premise {
                    // A protected 8-byte load observes host-staged (or
                    // never-written zero) memory: premise range.
                    Some(p) if p.protected.get(pc).copied().unwrap_or(false) => {
                        o.assign_range(xi(rd), Some(p.range.0), Some(p.range.1));
                    }
                    _ => o.forget(xi(rd)),
                },
            }
        }
        PCount { rd, esize, .. } => {
            o.assign_range(xi(rd), Some(0), Some(esize.lanes() as i64));
        }
        VReduce { rd, .. } | VExtract { rd, .. } => o.forget(xi(rd)),
        _ => {}
    }
}

/// Runs block `b`'s transfer from `state` and hands each successor its
/// (branch-refined) edge state.
fn propagate_block(
    cfg: &Cfg,
    insts: &[Instruction],
    b: usize,
    mut state: Octagon,
    premise: Option<&Premise>,
    mut sink: impl FnMut(usize, Octagon),
) {
    let block = &cfg.blocks()[b];
    for pc in block.pcs() {
        oct_step(&mut state, &insts[pc], pc, premise);
    }
    // Branch-edge refinement only applies when the two outcomes go to
    // distinct blocks (edges are deduped otherwise).
    let last = &insts[block.end - 1];
    let refinable = matches!(last, Instruction::Branch { .. }) && block.succs.len() == 2;
    for (i, succ) in block.succs.iter().enumerate() {
        let Succ::Block(s) = *succ else { continue };
        let mut out = state.clone();
        if refinable {
            if let Instruction::Branch { cond, rn, rm, .. } = *last {
                // succs[0] is the fallthrough, succs[1] the taken edge.
                out.refine_branch(cond, xi(rn), xi(rm), i == 1);
            }
        }
        sink(s, out);
    }
}

/// Every scalar register an instruction of `insts` reads or writes, as
/// a mask with bit `r` for `x_r`: the registers the analysis's
/// octagons track. No transfer relates any other register, so leaving
/// them out changes no bound (see the `octagon` module docs).
fn named_xregs(insts: &[Instruction]) -> u32 {
    let mut regs = 0u32;
    let mut note = |r: Reg| {
        if let Reg::X(x) = r {
            regs |= 1 << x.index();
        }
    };
    for inst in insts {
        inst.for_each_use(&mut note);
        inst.for_each_def(&mut note);
    }
    regs
}

/// Per-block entry octagons at the relational fixpoint: ascending
/// worklist iteration with ladder widening, then two descending
/// (narrowing) sweeps to claw back the precision widening gave up —
/// each sweep recomputes every entry as the join of its predecessors'
/// refined edge states, which is still an over-approximation of the
/// reachable states and therefore sound to adopt. Every octagon ranges
/// over the registers in `regs` ([`named_xregs`] of `insts`).
fn octagon_fixpoint(
    cfg: &Cfg,
    insts: &[Instruction],
    regs: u32,
    premise: Option<&Premise>,
) -> Vec<Option<Octagon>> {
    let n = cfg.blocks().len();
    let mut entry: Vec<Option<Octagon>> = vec![None; n];
    let mut joins = vec![0u32; n];
    entry[0] = Some(Octagon::top(regs));
    let mut worklist = vec![0usize];
    while let Some(b) = worklist.pop() {
        let Some(state) = entry[b].clone() else {
            continue;
        };
        propagate_block(cfg, insts, b, state, premise, |s, out| {
            let changed = match &mut entry[s] {
                Some(existing) => {
                    joins[s] += 1;
                    if joins[s] > WIDEN_AFTER {
                        existing.widen_from(&out)
                    } else {
                        existing.join_from(&out)
                    }
                }
                slot @ None => {
                    *slot = Some(out);
                    true
                }
            };
            if changed && !worklist.contains(&s) {
                worklist.push(s);
            }
        });
    }
    for _ in 0..2 {
        let mut next: Vec<Option<Octagon>> = vec![None; n];
        next[0] = Some(Octagon::top(regs));
        for (b, e) in entry.iter().enumerate() {
            let Some(state) = e.clone() else {
                continue;
            };
            propagate_block(cfg, insts, b, state, premise, |s, out| match &mut next[s] {
                Some(existing) => {
                    existing.join_from(&out);
                }
                slot @ None => {
                    *slot = Some(out);
                }
            });
        }
        entry = next;
    }
    entry
}

/// Whether some cycle through `header` avoids every block in `via`
/// (restricted to `l.body`). Returns `false` when every
/// header-to-header path passes a `via` block — the condition the
/// trip-count rules need.
fn cycle_avoids(cfg: &Cfg, l: &NaturalLoop, via: &[usize]) -> bool {
    let header = l.header;
    if via.contains(&header) {
        return false;
    }
    // DFS from header's in-loop successors through non-`via` blocks.
    let n = cfg.blocks().len();
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for succ in &cfg.blocks()[header].succs {
        let Succ::Block(s) = *succ else { continue };
        if s == header {
            return true; // self-edge avoiding `via`
        }
        if l.contains(s) && !via.contains(&s) && !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    while let Some(b) = stack.pop() {
        for succ in &cfg.blocks()[b].succs {
            let Succ::Block(s) = *succ else { continue };
            if s == header {
                return true;
            }
            if l.contains(s) && !via.contains(&s) && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    false
}

/// The loop's *continue-edge* state: the join of the header block's
/// refined out-states along edges that stay inside the loop. Every
/// header-to-header cycle crosses exactly one such edge per trip, so
/// any interval proven here holds for every continuing iteration —
/// including the branch refinement the header's own exit test provides
/// (which the header *entry* state lacks on the first visit).
/// `None` means the loop body is unreachable in the abstract: the
/// header can be visited at most once.
fn continue_edge(
    cfg: &Cfg,
    insts: &[Instruction],
    l: &NaturalLoop,
    header_entry: &Octagon,
    premise: Option<&Premise>,
) -> Option<Octagon> {
    let mut joined: Option<Octagon> = None;
    propagate_block(
        cfg,
        insts,
        l.header,
        header_entry.clone(),
        premise,
        |s, out| {
            if l.contains(s) {
                match &mut joined {
                    Some(j) => {
                        j.join_from(&out);
                    }
                    slot @ None => *slot = Some(out),
                }
            }
        },
    );
    joined
}

/// Scalar-counter trip rule: a register whose every in-loop definition
/// is a same-sign immediate add/sub step, with every header-to-header
/// cycle passing a step site, bounded by the octagon's proven interval
/// on the continue edge.
///
/// Soundness: consecutive continue-edge crossings complete one full
/// trip, so the counter's mathematical value advances by at least the
/// minimum step `δ` between crossings (same-sign sites, total step
/// magnitude under the clamp). Every crossing value lies in the proven
/// interval `[L, U]`, and clamped octagon bounds (|·| ≤ 2^60) plus the
/// step guard (≤ 2^61) keep one trip's advance from a value ≤ U from
/// crossing the i64 wrap boundary, so the crossing values are strictly
/// monotone: at most `(U − L)/δ + 1` crossings, i.e. `(U − L)/δ + 2`
/// header visits. When only the *exit-facing* bound is proven (U for an
/// up-counter, L for a down-counter), the other side falls back to the
/// i64 domain edge — no dynamic value can lie beyond it, so the count
/// stays sound, merely saturated.
fn scalar_trip(cfg: &Cfg, insts: &[Instruction], l: &NaturalLoop, cont: &Octagon) -> Option<u128> {
    // Collect per-register in-loop defs; a register stays a candidate
    // only while all its defs are recognizable steps.
    let mut steps: [Option<Vec<(usize, i64)>>; 32] = std::array::from_fn(|_| Some(Vec::new()));
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !l.contains(b) {
            continue;
        }
        for pc in block.pcs() {
            let inst = &insts[pc];
            let step = match *inst {
                Instruction::AluRI {
                    op: SAluOp::Add,
                    rd,
                    rn,
                    imm,
                } if rd == rn => Some((xi(rd), imm)),
                Instruction::AluRI {
                    op: SAluOp::Sub,
                    rd,
                    rn,
                    imm,
                } if rd == rn => imm.checked_neg().map(|n| (xi(rd), n)),
                _ => None,
            };
            match step {
                Some((r, s)) if s != 0 => {
                    if let Some(v) = steps[r].as_mut() {
                        v.push((b, s));
                    }
                }
                _ => {
                    // Any other def disqualifies the register.
                    inst.for_each_def(|reg| {
                        if let quetzal_isa::Reg::X(x) = reg {
                            steps[xi(x)] = None;
                        }
                    });
                }
            }
        }
    }

    let mut best: Option<u128> = None;
    for (r, sites) in steps.iter().enumerate() {
        let Some(sites) = sites else { continue };
        if sites.is_empty() {
            continue;
        }
        let up = sites[0].1 > 0;
        if sites.iter().any(|&(_, s)| (s > 0) != up) {
            continue; // mixed directions
        }
        // Wrap guard: the total step magnitude around one trip must
        // stay under the octagon clamp (see module docs).
        let total: i128 = sites.iter().map(|&(_, s)| (s as i128).abs()).sum();
        if total > STEP_CLAMP {
            continue;
        }
        let delta = sites
            .iter()
            .map(|&(_, s)| (s as i128).unsigned_abs())
            .min()
            .unwrap_or(1);
        // Every header-to-header cycle must pass a step site.
        let blocks: Vec<usize> = sites.iter().map(|&(b, _)| b).collect();
        if cycle_avoids(cfg, l, &blocks) {
            continue;
        }
        // The exit-facing bound must be proven on the continue edge;
        // the trailing side may fall back to the i64 domain edge.
        let (lo, hi) = (cont.lo(r), cont.hi(r));
        let (l_, u_) = if up {
            let Some(u) = hi else { continue };
            (lo.unwrap_or(i64::MIN), u)
        } else {
            let Some(lb) = lo else { continue };
            (lb, hi.unwrap_or(i64::MAX))
        };
        if u_ < l_ {
            // Contradictory continue-edge state: the loop cannot
            // continue; one header visit is still possible.
            best = Some(best.map_or(1, |b: u128| b.min(1)));
            continue;
        }
        let span = (u_ as i128 - l_ as i128) as u128;
        let trips = span / delta + 2;
        best = Some(best.map_or(trips, |b| b.min(trips)));
    }
    best
}

/// One entry of the header guard chain: a vector compare whose
/// governing predicate links to the previous entry.
struct ChainCmp {
    pd: PReg,
    cond: BranchCond,
    vn: VReg,
    /// `Some(v)` for register compares, `None` for immediate forms.
    vm: Option<VReg>,
    imm: i64,
    /// PC of the compare inside the header.
    pc: usize,
}

/// Octagon state immediately before `pc`: the entry state of its block
/// stepped up to (but excluding) `pc`. `None` when the block is
/// unreachable in the abstract.
fn oct_at(
    cfg: &Cfg,
    insts: &[Instruction],
    entry: &[Option<Octagon>],
    pc: usize,
    premise: Option<&Premise>,
) -> Option<Octagon> {
    let b = cfg
        .blocks()
        .iter()
        .position(|blk| blk.start <= pc && pc < blk.end)?;
    let mut o = entry.get(b)?.clone()?;
    for (p, inst) in insts
        .iter()
        .enumerate()
        .take(pc)
        .skip(cfg.blocks()[b].start)
    {
        oct_step(&mut o, inst, p, premise);
    }
    Some(o)
}

/// Per-lane value bounds of an invariant vector register used as the
/// additive term of a derived loop guard: the register must have
/// exactly one definition in the whole program, outside the loop, of a
/// splat/index shape with octagon-known scalar bounds. Paths bypassing
/// the definition leave the register all-zero, so the interval is
/// joined with zero.
fn leaf_lane_bounds(
    cfg: &Cfg,
    insts: &[Instruction],
    entry: &[Option<Octagon>],
    premise: Option<&Premise>,
    l: &NaturalLoop,
    leaf: VReg,
) -> Option<(i64, i64)> {
    let mut defs: Vec<usize> = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        let mut hit = false;
        inst.for_each_def(|r| hit |= r == quetzal_isa::Reg::V(leaf));
        if hit {
            defs.push(pc);
        }
    }
    let [q] = defs[..] else { return None };
    let qb = cfg
        .blocks()
        .iter()
        .position(|blk| blk.start <= q && q < blk.end)?;
    if l.contains(qb) {
        return None;
    }
    let (lo, hi) = match insts[q] {
        Instruction::DupImm {
            imm,
            esize: ElemSize::B64,
            ..
        } => (imm, imm),
        Instruction::Dup {
            rn,
            esize: ElemSize::B64,
            ..
        } => {
            let o = oct_at(cfg, insts, entry, q, premise)?;
            (o.lo(xi(rn))?, o.hi(xi(rn))?)
        }
        Instruction::Index {
            rn,
            step,
            esize: ElemSize::B64,
            ..
        } => {
            let o = oct_at(cfg, insts, entry, q, premise)?;
            let d = step.checked_mul(7)?;
            (
                o.lo(xi(rn))?.checked_add(d.min(0))?,
                o.hi(xi(rn))?.checked_add(d.max(0))?,
            )
        }
        _ => return None,
    };
    Some((lo.min(0), hi.max(0)))
}

/// Vector "fuel" trip rule for predicate-governed wavefront loops:
///
/// ```text
/// header:  p… = vcmp …             ; guard chain, governed from root R
///          xc = pcount pe
///          b.eq xc, x0(=0), exit   ; exit when no active lane
/// body:    … advance sites …       ; lanes move a progress vector up
///          R = S | S               ; survivors only (optional)
///          b header
/// ```
///
/// Bounded by the potential Φ = Σ over root lanes of
/// `max(0, C − Vp[lane])`: every continuing iteration has a witness
/// lane (counted by `pcount`) that either advances by ≥ 1 or drops
/// from the root permanently, so header executions ≤ lanes × (C − L0)
/// + 1. All premises are structural and checked below.
fn vector_fuel_trip(
    cfg: &Cfg,
    insts: &[Instruction],
    l: &NaturalLoop,
    entry: &[Option<Octagon>],
    ventry: &[Option<[VAbs; 32]>],
    premise: Option<&Premise>,
) -> Option<u128> {
    let header = l.header;
    let header_oct = entry.get(header).and_then(|o| o.as_ref())?;
    let hb = &cfg.blocks()[header];
    if hb.end - hb.start < 2 || hb.succs.len() != 2 {
        return None;
    }
    // Premise A: header ends `pcount xc, pe; b.eq xc, zero, exit` with
    // the taken edge leaving the loop and the fallthrough staying.
    let Instruction::Branch {
        cond: BranchCond::Eq,
        rn,
        rm,
        ..
    } = insts[hb.end - 1]
    else {
        return None;
    };
    let Instruction::PCount {
        rd: xc,
        pn: pe,
        esize: ElemSize::B64,
    } = insts[hb.end - 2]
    else {
        return None;
    };
    let zero = if rn == xc {
        rm
    } else if rm == xc {
        rn
    } else {
        return None;
    };
    let (Succ::Block(fall), Succ::Block(taken)) = (hb.succs[0], hb.succs[1]) else {
        return None;
    };
    if !l.contains(fall) || l.contains(taken) {
        return None;
    }
    // The zero operand must be provably 0 at the branch. Walk the
    // octagon through the header to the branch point.
    let mut o = header_oct.clone();
    for (pc, inst) in insts.iter().enumerate().take(hb.end - 1).skip(hb.start) {
        oct_step(&mut o, inst, pc, premise);
    }
    if o.lo(xi(zero)) != Some(0) || o.hi(xi(zero)) != Some(0) {
        return None;
    }

    // Premise B: walk the guard chain backwards from `pe` within the
    // header. Each link is the last vector compare defining the
    // current predicate before the pcount; the walk ends at the root.
    let mut chain: Vec<ChainCmp> = Vec::new();
    let mut cur = pe;
    let root = loop {
        if chain.len() > 8 {
            return None;
        }
        let def = (hb.start..hb.end - 2).rev().find(|&pc| {
            let mut hit = false;
            insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::P(cur));
            hit
        });
        let Some(pc) = def else { break cur };
        match insts[pc] {
            Instruction::VCmpVV {
                cond,
                pd,
                vn,
                vm,
                pg,
                esize: ElemSize::B64,
            } => {
                chain.push(ChainCmp {
                    pd,
                    cond,
                    vn,
                    vm: Some(vm),
                    imm: 0,
                    pc,
                });
                cur = pg;
            }
            Instruction::VCmpVI {
                cond,
                pd,
                vn,
                imm,
                pg,
                esize: ElemSize::B64,
            } => {
                chain.push(ChainCmp {
                    pd,
                    cond,
                    vn,
                    vm: None,
                    imm,
                    pc,
                });
                cur = pg;
            }
            _ => return None,
        }
    };
    if chain.is_empty() {
        return None;
    }
    // Chain predicates must not be redefined anywhere else in the loop
    // (the header recomputes them from the root each iteration).
    let chain_preds: Vec<PReg> = chain.iter().map(|c| c.pd).collect();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !l.contains(b) {
            continue;
        }
        for pc in block.pcs() {
            if b == header && pc < hb.end - 2 {
                continue; // the defining compares themselves
            }
            let mut bad = false;
            insts[pc].for_each_def(|r| {
                if let quetzal_isa::Reg::P(p) = r {
                    bad |= chain_preds.contains(&p);
                }
            });
            if bad {
                return None;
            }
        }
    }

    let vabs_h = ventry.get(header).and_then(|s| s.as_ref())?;
    let in_chain = |p: PReg| p == pe || chain_preds.contains(&p);

    // The unique loop preheader (outside predecessor of the header),
    // used by the derived-guard gate check and the L0 seeding scans.
    let preds = cfg.predecessors();
    let outside: Vec<usize> = preds[header]
        .iter()
        .copied()
        .filter(|&p| !l.contains(p))
        .collect();

    // Try each chain condition as the fuel guard `Vp < C`.
    let mut best: Option<u128> = None;
    'cand: for cmp in &chain {
        let ceil_excl: i128 = match (cmp.cond, cmp.vm) {
            (BranchCond::Lt, Some(vm)) => {
                // Ceiling from a loop-invariant splat register.
                let VAbs::Splat(c) = vabs_h[vm.index() as usize] else {
                    continue;
                };
                // The ceiling register must be invariant across the loop.
                for (b, block) in cfg.blocks().iter().enumerate() {
                    if !l.contains(b) {
                        continue;
                    }
                    for pc in block.pcs() {
                        let mut bad = false;
                        insts[pc].for_each_def(|r| bad |= r == quetzal_isa::Reg::V(vm));
                        if bad {
                            continue 'cand;
                        }
                    }
                }
                c as i64 as i128
            }
            (BranchCond::Lt, None) => cmp.imm as i128,
            (BranchCond::Le, None) => cmp.imm as i128 + 1,
            _ => continue,
        };

        // Resolve the guarded vector to a progress register. Either
        // the compare watches the progress vector directly, or —
        // derived guard — the header rebuilds the compared value
        // through a short tower of merging adds recomputed each
        // iteration, `vn = counter + invariant₁ [+ invariant₂ …]`,
        // each gate covering the root. Counted lanes (⊆ root ⊆ every
        // gate) then read exactly `counter + Σ invariants`, so the
        // window on `vn` transfers to the counter's trajectory.
        let in_loop_defs = |v: VReg| {
            let mut defs: Vec<(usize, usize)> = Vec::new();
            for (b, block) in cfg.blocks().iter().enumerate() {
                if !l.contains(b) {
                    continue;
                }
                for pc in block.pcs() {
                    let mut hit = false;
                    insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::V(v));
                    if hit {
                        defs.push((b, pc));
                    }
                }
            }
            defs
        };
        // Running sum of the invariant addends' per-lane intervals
        // (for the seed-floor fallback); `None` once any addend's
        // bounds are unknown.
        let mut leaf_sum: Option<(i128, i128)> = Some((0, 0));
        let mut watched = cmp.vn;
        let mut def_pc = cmp.pc;
        let mut top_def_pc = 0usize;
        let mut levels = 0;
        let vp: VReg = loop {
            let vn_defs = in_loop_defs(watched);
            if vn_defs.iter().all(|&(b, _)| b != header) {
                break watched;
            }
            levels += 1;
            if levels > 3 {
                continue 'cand;
            }
            let [(db, dpc)] = vn_defs[..] else {
                continue 'cand;
            };
            // The recomputation must precede its reader so the compare
            // (and the next tower level) sees this iteration's value.
            if db != header || dpc >= def_pc {
                continue 'cand;
            }
            let Instruction::VAluVV {
                op: VAluOp::Add,
                vd: _,
                vn: opa,
                vm: opb,
                pg: gate,
                esize: ElemSize::B64,
            } = insts[dpc]
            else {
                continue 'cand;
            };
            let (vc, leaf) = match (in_loop_defs(opa).is_empty(), in_loop_defs(opb).is_empty()) {
                (false, true) => (opa, opb),
                (true, false) => (opb, opa),
                _ => continue 'cand,
            };
            // The gate must be loop-invariant and cover the root: for
            // an invariant root the unique preheader's last root write
            // must be `por root, gate, gate`; a survivor-updated root
            // shrinks through chain-gated zeroing compares, so the
            // same preheader seed makes `root ⊆ gate` inductive.
            let mut gate_defined_in_loop = false;
            for (b, block) in cfg.blocks().iter().enumerate() {
                if !l.contains(b) {
                    continue;
                }
                for pc in block.pcs() {
                    insts[pc]
                        .for_each_def(|r| gate_defined_in_loop |= r == quetzal_isa::Reg::P(gate));
                }
            }
            if gate_defined_in_loop {
                continue 'cand;
            }
            if gate != root {
                let [ph] = outside[..] else {
                    continue 'cand;
                };
                let seed = cfg.blocks()[ph].pcs().rev().find(|&pc| {
                    let mut hit = false;
                    insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::P(root));
                    hit
                });
                let Some(spc) = seed else { continue 'cand };
                match insts[spc] {
                    Instruction::POr { pn, pm, .. } if pn == gate && pm == gate => {}
                    _ => continue 'cand,
                }
            }
            leaf_sum = leaf_sum.and_then(|(lo, hi)| {
                let (llo, lhi) = leaf_lane_bounds(cfg, insts, entry, premise, l, leaf)?;
                Some((lo + llo as i128, hi + lhi as i128))
            });
            watched = vc;
            if levels == 1 {
                top_def_pc = dpc;
            }
            def_pc = dpc;
        };
        let derived = levels > 0;

        // Floor of the counted window: a chain compare pinning the
        // watched vector from below applies to every counted lane
        // (membership in `pe` implies passing the whole chain). For a
        // derived guard the compare must read the same recomputed
        // value, i.e. sit after the tower's top-level add.
        let chain_floor: Option<i128> = chain
            .iter()
            .filter(|c| c.vn == cmp.vn && c.vm.is_none())
            .filter(|c| !derived || c.pc > top_def_pc)
            .filter_map(|c| match c.cond {
                BranchCond::Ge => Some(c.imm as i128),
                BranchCond::Gt => Some(c.imm as i128 + 1),
                _ => None,
            })
            .max();

        // Premise C/D: classify every in-loop def of the progress
        // vector. D1 = `vp += imm (imm ≥ 0)` gated by a chain
        // predicate or the survivor set; at most one D2 =
        // `vp += vd` whose survivors are pinned by an Eq compare.
        struct D1 {
            block: usize,
            pc: usize,
            imm: i64,
            pg: PReg,
        }
        struct D2 {
            block: usize,
            pc: usize,
            vd: VReg,
            pg: PReg,
        }
        let mut d1: Vec<D1> = Vec::new();
        let mut d2: Option<D2> = None;
        for (b, block) in cfg.blocks().iter().enumerate() {
            if !l.contains(b) {
                continue;
            }
            for pc in block.pcs() {
                let inst = &insts[pc];
                let mut defs_vp = false;
                inst.for_each_def(|r| defs_vp |= r == quetzal_isa::Reg::V(vp));
                if !defs_vp {
                    continue;
                }
                if b == header {
                    continue 'cand; // guard must see the entry value
                }
                match *inst {
                    Instruction::VAluVI {
                        op: VAluOp::Add,
                        vd,
                        vn,
                        imm,
                        pg,
                        esize: ElemSize::B64,
                    } if vd == vp && vn == vp && imm >= 0 => d1.push(D1 {
                        block: b,
                        pc,
                        imm,
                        pg,
                    }),
                    Instruction::VAluVV {
                        op: VAluOp::Add,
                        vd,
                        vn,
                        vm,
                        pg,
                        esize: ElemSize::B64,
                    } if vd == vp && vn == vp => {
                        if d2.is_some() {
                            continue 'cand;
                        }
                        d2 = Some(D2 {
                            block: b,
                            pc,
                            vd: vm,
                            pg,
                        });
                    }
                    _ => continue 'cand,
                }
            }
        }

        // Premise on the root's in-loop defs: either none (case a) or
        // exactly one `R = S | S` survivor assignment (case b).
        let mut root_defs: Vec<(usize, usize)> = Vec::new();
        for (b, block) in cfg.blocks().iter().enumerate() {
            if !l.contains(b) {
                continue;
            }
            for pc in block.pcs() {
                let mut hit = false;
                insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::P(root));
                if hit {
                    root_defs.push((b, pc));
                }
            }
        }

        // `k_max`: the largest per-iteration advance, for the wrap guard.
        let mut k_max: i128 = d1.iter().map(|s| s.imm as i128).max().unwrap_or(0);

        let progress_block = match (&root_defs[..], &d2) {
            // Case (a): invariant root. A witness lane advances iff a
            // D1 site gated by the counted predicate itself executes
            // every continuing iteration.
            ([], None) => {
                let site = d1.iter().find(|s| s.imm >= 1 && s.pg == pe)?;
                // `pe` must reach the site unmodified (checked above —
                // chain preds incl. `pe` have no other in-loop defs).
                site.block
            }
            // Case (b): `R = S | S` — survivors of S advanced.
            ([(rb, rpc)], _) => {
                let Instruction::POr { pn, pm, .. } = insts[*rpc] else {
                    continue 'cand;
                };
                if pn != pm {
                    continue 'cand;
                }
                let s_pred = pn;
                if in_chain(s_pred) || s_pred == root {
                    continue 'cand;
                }
                // S's single in-loop def: an Eq compare gated by a
                // chain predicate, in the same block before the por.
                let mut s_defs: Vec<(usize, usize)> = Vec::new();
                for (b, block) in cfg.blocks().iter().enumerate() {
                    if !l.contains(b) {
                        continue;
                    }
                    for pc in block.pcs() {
                        let mut hit = false;
                        insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::P(s_pred));
                        if hit {
                            s_defs.push((b, pc));
                        }
                    }
                }
                let [(sb, spc)] = s_defs[..] else {
                    continue 'cand;
                };
                if sb != *rb || spc >= *rpc {
                    continue 'cand;
                }
                match insts[spc] {
                    // (b2) survivors pinned to an exact advance amount.
                    Instruction::VCmpVI {
                        cond: BranchCond::Eq,
                        vn: cmp_vn,
                        imm: k,
                        pg: ps,
                        esize: ElemSize::B64,
                        ..
                    } if k >= 1 && in_chain(ps) => {
                        let d2s = d2.as_ref()?;
                        if d2s.vd != cmp_vn || d2s.pg != ps || d2s.block != sb || d2s.pc >= spc {
                            continue 'cand;
                        }
                        // vd must reach the compare unmodified.
                        for inst in &insts[d2s.pc + 1..spc] {
                            let mut bad = false;
                            inst.for_each_def(|r| bad |= r == quetzal_isa::Reg::V(cmp_vn));
                            if bad {
                                continue 'cand;
                            }
                        }
                        // All D1 sites must also be guard-gated.
                        if d1.iter().any(|s| !(in_chain(s.pg) || s.pg == s_pred)) {
                            continue 'cand;
                        }
                        k_max = k_max.max(k as i128);
                        sb
                    }
                    // (b1) survivors are exactly the advance predicate.
                    Instruction::VCmpVV {
                        cond: BranchCond::Eq,
                        pg: ps,
                        esize: ElemSize::B64,
                        ..
                    } if in_chain(ps) => {
                        if d2.is_some() {
                            continue 'cand;
                        }
                        // Some D1 site with k ≥ 1 gated by S, after the
                        // S compare in the same block.
                        let adv = d1.iter().find(|s| {
                            s.imm >= 1 && s.pg == s_pred && s.block == sb && s.pc > spc
                        })?;
                        // Every other D1 site must be guard- or S-gated.
                        if d1.iter().any(|s| !(in_chain(s.pg) || s.pg == s_pred)) {
                            continue 'cand;
                        }
                        adv.block
                    }
                    _ => continue 'cand,
                }
            }
            _ => continue 'cand,
        };
        // Every continuing iteration must pass the progress block.
        if cycle_avoids(cfg, l, &[progress_block]) {
            continue;
        }

        // Floor of the per-lane window. Path A: the chain itself pins
        // the watched vector from below, so every counted occurrence
        // of a lane reads a value in `[floor, ceil)` directly. Path B:
        // no chain floor — fall back to the counter's seeded start
        // (L0) plus the invariant addends' minimum. L0 sources, in
        // order: the preheader's seeding compare on vp, the
        // preheader's final splat/index write of vp, or a known
        // whole-vector shape at the header.
        let mut leaf_hi_mag: i128 = 0;
        let floor: i128 = if let Some(f) = chain_floor {
            f
        } else {
            let Some((leaf_lo, leaf_hi)) = leaf_sum else {
                continue 'cand;
            };
            leaf_hi_mag = leaf_lo.abs().max(leaf_hi.abs());
            let l0: i128 = 'seed: {
                if let [ph] = outside[..] {
                    let pb = &cfg.blocks()[ph];
                    // Path 1: the root was seeded by a compare on vp, and
                    // nothing redefines vp after it.
                    for pc in pb.pcs().rev() {
                        let mut defs_root = false;
                        let mut defs_vp = false;
                        insts[pc].for_each_def(|r| {
                            defs_root |= r == quetzal_isa::Reg::P(root);
                            defs_vp |= r == quetzal_isa::Reg::V(vp);
                        });
                        if defs_vp {
                            break; // vp changed after the seed: fall back
                        }
                        if defs_root {
                            if let Instruction::VCmpVI {
                                cond,
                                vn,
                                imm,
                                esize: ElemSize::B64,
                                ..
                            } = insts[pc]
                            {
                                if vn == vp {
                                    match cond {
                                        BranchCond::Gt => break 'seed imm as i128 + 1,
                                        BranchCond::Ge => break 'seed imm as i128,
                                        _ => {}
                                    }
                                }
                            }
                            break;
                        }
                    }
                    // Path 2: the preheader's last write of vp is a
                    // splat/index with a known scalar minimum, seeding
                    // every lane.
                    let last_vp_def = pb.pcs().rev().find(|&pc| {
                        let mut hit = false;
                        insts[pc].for_each_def(|r| hit |= r == quetzal_isa::Reg::V(vp));
                        hit
                    });
                    if let Some(pc) = last_vp_def {
                        match insts[pc] {
                            Instruction::DupImm {
                                imm,
                                esize: ElemSize::B64,
                                ..
                            } => break 'seed imm as i128,
                            Instruction::Dup {
                                rn,
                                esize: ElemSize::B64,
                                ..
                            } => {
                                if let Some(lo) = oct_at(cfg, insts, entry, pc, premise)
                                    .and_then(|o| o.lo(xi(rn)))
                                {
                                    break 'seed lo as i128;
                                }
                            }
                            Instruction::Index {
                                rn,
                                step,
                                esize: ElemSize::B64,
                                ..
                            } => {
                                if let (Some(lo), Some(d)) = (
                                    oct_at(cfg, insts, entry, pc, premise)
                                        .and_then(|o| o.lo(xi(rn))),
                                    step.checked_mul(7),
                                ) {
                                    break 'seed lo as i128 + d.min(0) as i128;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                // Fallback: all lanes of vp at the header have a known
                // minimum.
                match vabs_h[vp.index() as usize] {
                    VAbs::Splat(s) => s as i64 as i128,
                    VAbs::Iota { .. } => match vabs_h[vp.index() as usize].lanes64() {
                        Some(lanes) => lanes.iter().map(|&v| v as i64 as i128).min().unwrap_or(0),
                        None => continue 'cand,
                    },
                    _ => continue 'cand,
                }
            };
            l0 + leaf_lo
        };

        // Magnitude guard: with every quantity (ceiling, floor, leaf
        // bounds, per-iteration advance) under 2^59, no alive lane's
        // counter or derived guard value — a sum of at most four such
        // terms plus the bounded trajectory — can cross the i64 wrap
        // boundary, so lane trajectories are genuinely monotone.
        let lim: i128 = 1 << 59;
        if ceil_excl.abs() + k_max >= lim || floor.abs() >= lim || leaf_hi_mag >= lim {
            continue;
        }

        // Trips: each continuing iteration either advances some alive
        // lane (≤ lanes × fuel total) or permanently drops a lane from
        // the root (≤ lanes total), plus one terminal continue and the
        // final exiting visit.
        let fuel = (ceil_excl - floor).max(0) as u128;
        let lanes = ElemSize::B64.lanes() as u128;
        let trips = lanes
            .saturating_mul(fuel)
            .saturating_add(lanes)
            .saturating_add(2);
        best = Some(best.map_or(trips, |b| b.min(trips)));
    }
    best
}

/// Per-loop trip diagnosis: `(header block start pc, scalar-rule
/// trips, vector-fuel trips)`. Debug/bench aid, not a soundness
/// surface.
pub(crate) fn explain_loops(
    program: &Program,
    cfg: &Cfg,
    ventry: &[Option<[VAbs; 32]>],
    staged_word_range: Option<(i64, i64)>,
) -> Vec<(usize, Option<u128>, Option<u128>)> {
    let insts = program.instructions();
    let LoopInfo { loops, .. } = cfg.loop_info();
    let regs = named_xregs(insts);
    let oct = octagon_fixpoint(cfg, insts, regs, None);
    let premise = staged_word_range.and_then(|range| protected_loads(cfg, insts, &oct, range));
    let oct = match &premise {
        Some(p) => octagon_fixpoint(cfg, insts, regs, Some(p)),
        None => oct,
    };
    let premise = premise.as_ref();
    loops
        .iter()
        .map(|l| {
            let header_pc = cfg.blocks()[l.header].start;
            match oct.get(l.header).and_then(|o| o.as_ref()) {
                Some(header_entry) => {
                    let scalar = continue_edge(cfg, insts, l, header_entry, premise)
                        .map_or(Some(1), |cont| scalar_trip(cfg, insts, l, &cont));
                    (
                        header_pc,
                        scalar,
                        vector_fuel_trip(cfg, insts, l, &oct, ventry, premise),
                    )
                }
                None => (header_pc, Some(0), Some(0)),
            }
        })
        .collect()
}

/// Saturating u128 → u64.
fn sat64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Page span of a byte interval `[lo, hi]` (signed addresses must be
/// non-negative to be meaningful as guest addresses).
fn page_span(lo: i64, hi: i64) -> Option<u128> {
    if lo < 0 || hi < lo {
        return None;
    }
    Some(((hi as u128) >> PAGE_BITS) - ((lo as u128) >> PAGE_BITS) + 1)
}

/// Pages a store-capable instruction can allocate, given the octagon
/// state before it and its block's execution-count bound.
fn site_pages(o: &Octagon, inst: &Instruction, execs: u128) -> u128 {
    let interval = |rn: XReg, offset: i64, len: u64| -> Option<u128> {
        let lo = o.lo(xi(rn))?.checked_add(offset)?;
        let hi = o
            .hi(xi(rn))?
            .checked_add(offset)?
            .checked_add(len as i64 - 1)?;
        page_span(lo, hi)
    };
    match *inst {
        Instruction::Store {
            rn, offset, size, ..
        } => {
            let per_exec = 2u128; // ≤ 8 bytes can straddle one boundary
            let worst = execs.saturating_mul(per_exec);
            interval(rn, offset, size.bytes() as u64).map_or(worst, |span| span.min(worst))
        }
        Instruction::VStore { rn, .. } => {
            let worst = execs.saturating_mul(2);
            interval(rn, 0, VLEN_BYTES as u64).map_or(worst, |span| span.min(worst))
        }
        Instruction::VScatter { esize, .. } => {
            // Per lane ≤ 2 pages; indices are rarely statically known.
            execs.saturating_mul(2 * esize.lanes() as u128)
        }
        _ => 0,
    }
}

/// PCs of scalar 8-byte loads whose address intervals are provably
/// disjoint from every store the (abstractly reachable part of the)
/// program can execute. Such loads only ever observe host-staged or
/// never-written (zero) memory, so under the staged-word-range premise
/// their results are bounded. Returns `None` when any store's address
/// interval is unknown (it could alias anything), when a scatter is
/// present, when the range excludes zero, or when no load qualifies.
fn protected_loads(
    cfg: &Cfg,
    insts: &[Instruction],
    entry: &[Option<Octagon>],
    range: (i64, i64),
) -> Option<Premise> {
    if range.0 > 0 || range.1 < 0 {
        return None; // never-written words read as zero
    }
    let mut stores: Vec<(i64, i64)> = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(e) = entry.get(b).and_then(|o| o.as_ref()) else {
            continue; // unreachable in the abstract: never executes
        };
        let mut o = e.clone();
        for pc in block.pcs() {
            match insts[pc] {
                Instruction::Store {
                    rn, offset, size, ..
                } => {
                    let lo = o.lo(xi(rn))?.checked_add(offset)?;
                    let hi = o
                        .hi(xi(rn))?
                        .checked_add(offset)?
                        .checked_add(size.bytes() as i64 - 1)?;
                    stores.push((lo, hi));
                }
                Instruction::VStore { rn, .. } => {
                    let lo = o.lo(xi(rn))?;
                    let hi = o.hi(xi(rn))?.checked_add(VLEN_BYTES as i64 - 1)?;
                    stores.push((lo, hi));
                }
                Instruction::VScatter { .. } => return None,
                _ => {}
            }
            oct_step(&mut o, &insts[pc], pc, None);
        }
    }
    let mut protected = vec![false; insts.len()];
    let mut any = false;
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(e) = entry.get(b).and_then(|o| o.as_ref()) else {
            continue;
        };
        let mut o = e.clone();
        for pc in block.pcs() {
            if let Instruction::Load {
                rn, offset, size, ..
            } = insts[pc]
            {
                if size.bytes() == 8 {
                    let span = o.lo(xi(rn)).and_then(|lo| lo.checked_add(offset)).zip(
                        o.hi(xi(rn))
                            .and_then(|hi| hi.checked_add(offset))
                            .and_then(|hi| hi.checked_add(7)),
                    );
                    if let Some((llo, lhi)) = span {
                        if stores.iter().all(|&(slo, shi)| lhi < slo || shi < llo) {
                            protected[pc] = true;
                            any = true;
                        }
                    }
                }
            }
            oct_step(&mut o, &insts[pc], pc, None);
        }
    }
    any.then_some(Premise { protected, range })
}

/// Per-loop trip counts under `entry`; `None` when some loop defeats
/// both rules.
fn loop_trips(
    cfg: &Cfg,
    insts: &[Instruction],
    loops: &[NaturalLoop],
    entry: &[Option<Octagon>],
    ventry: &[Option<[VAbs; 32]>],
    premise: Option<&Premise>,
) -> Option<Vec<u128>> {
    let mut trips: Vec<u128> = Vec::with_capacity(loops.len());
    for l in loops {
        let Some(header_entry) = entry.get(l.header).and_then(|o| o.as_ref()) else {
            // Loop unreachable in the abstract: zero executions.
            trips.push(0);
            continue;
        };
        let Some(cont) = continue_edge(cfg, insts, l, header_entry, premise) else {
            // No in-loop successor edge survives the header: the
            // header can execute at most once.
            trips.push(1);
            continue;
        };
        let scalar = scalar_trip(cfg, insts, l, &cont);
        let fuel = vector_fuel_trip(cfg, insts, l, entry, ventry, premise);
        match (scalar, fuel) {
            (Some(a), Some(b)) => trips.push(a.min(b)),
            (Some(t), None) | (None, Some(t)) => trips.push(t),
            (None, None) => return None,
        }
    }
    Some(trips)
}

/// Computes the resource bound of a (non-empty) program. `ventry` is
/// the per-block entry vector-abstract state from the main verifier
/// fixpoint (for the fuel rule's splat ceilings); pass all-`None` to
/// disable the vector rule. When a loop defeats both trip rules and
/// `staged_word_range` is set, the analysis retries under the
/// protected-load premise (see [`Premise`]); a bound proven that way
/// is flagged [`ResourceBound::premised`].
pub(crate) fn compute(
    program: &Program,
    cfg: &Cfg,
    ventry: &[Option<[VAbs; 32]>],
    lat: &ClassLatencies,
    staged_word_range: Option<(i64, i64)>,
) -> ResourceBound {
    let insts = program.instructions();
    if cfg.blocks().is_empty() {
        return ResourceBound {
            instructions: Some(0),
            pages: Some(0),
            cycles: Some(lat.startup),
            premised: false,
        };
    }
    let reachable = cfg.reachable();
    let LoopInfo { loops, irreducible } = cfg.loop_info();
    if irreducible {
        return ResourceBound::unbounded();
    }

    let regs = named_xregs(insts);
    let oct = octagon_fixpoint(cfg, insts, regs, None);
    let (oct, trips, premise) = match loop_trips(cfg, insts, &loops, &oct, ventry, None) {
        Some(trips) => (oct, trips, None),
        None => {
            let Some(premise) =
                staged_word_range.and_then(|range| protected_loads(cfg, insts, &oct, range))
            else {
                return ResourceBound::unbounded();
            };
            let oct = octagon_fixpoint(cfg, insts, regs, Some(&premise));
            let Some(trips) = loop_trips(cfg, insts, &loops, &oct, ventry, Some(&premise)) else {
                return ResourceBound::unbounded();
            };
            (oct, trips, Some(premise))
        }
    };

    // Block execution counts: product of enclosing loops' trips.
    let mut execs: Vec<u128> = vec![0; cfg.blocks().len()];
    for (b, e) in execs.iter_mut().enumerate() {
        if !reachable[b] {
            continue;
        }
        let mut count: u128 = 1;
        for (l, &t) in loops.iter().zip(&trips) {
            if l.contains(b) {
                count = count.saturating_mul(t);
            }
        }
        *e = count;
    }

    let mut instructions: u128 = 0;
    let mut cycles: u128 = lat.startup as u128;
    let mut pages: u128 = 0;
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] || execs[b] == 0 {
            continue;
        }
        let len = (block.end - block.start) as u128;
        instructions = instructions.saturating_add(len.saturating_mul(execs[b]));
        let mut block_lat: u128 = 0;
        let mut o = oct[b].clone().unwrap_or_else(|| Octagon::top(regs));
        for pc in block.pcs() {
            block_lat += lat.latency(insts[pc].class()) as u128;
            pages = pages.saturating_add(site_pages(&o, &insts[pc], execs[b]));
            oct_step(&mut o, &insts[pc], pc, premise.as_ref());
        }
        cycles = cycles.saturating_add(block_lat.saturating_mul(execs[b]));
    }

    ResourceBound {
        instructions: Some(sat64(instructions)),
        pages: Some(sat64(pages)),
        cycles: Some(sat64(cycles)),
        premised: premise.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::reg::aliases::*;
    use quetzal_isa::{ProgramBuilder, Reg};

    fn bound_of(p: &Program) -> ResourceBound {
        let cfg = Cfg::build(p);
        let ventry: Vec<Option<[VAbs; 32]>> = vec![Some([VAbs::Top; 32]); cfg.blocks().len()];
        compute(p, &cfg, &ventry, &ClassLatencies::default(), None)
    }

    #[test]
    fn straight_line_program_is_tightly_bounded() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 5);
        b.mov_imm(X1, 6);
        b.halt();
        let bound = bound_of(&b.build().unwrap());
        assert_eq!(bound.instructions, Some(3));
        assert_eq!(bound.pages, Some(0));
        let lat = ClassLatencies::default();
        assert_eq!(
            bound.cycles,
            Some(lat.startup + 2 * lat.scalar_alu + lat.halt)
        );
    }

    #[test]
    fn counted_loop_gets_a_finite_instruction_bound() {
        // x0 counts 0..10; loop body is 2 instructions.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 10);
        let top = b.label();
        b.bind(top);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        let bound = bound_of(&b.build().unwrap());
        // Dynamic: 10 header visits (x0 = 0..=9 at entry), so 2 setup
        // + 10 × 2 + 1 halt = 23 retired. The proven bound must cover
        // that and stay near it.
        let proven = bound.instructions.expect("finite");
        assert!((23..=31).contains(&proven), "{proven}");
        assert!(bound.is_bounded());
    }

    #[test]
    fn down_counter_is_bounded_too() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 8);
        b.mov_imm(X1, 0);
        let top = b.label();
        b.bind(top);
        b.alu_ri(SAluOp::Sub, X0, X0, 1);
        b.branch(BranchCond::Gt, X0, X1, top);
        b.halt();
        let bound = bound_of(&b.build().unwrap());
        assert!(bound.is_bounded(), "{bound}");
        // Dynamic: 8 header visits (x0 = 8 down to 1 at entry) → 19
        // retired instructions.
        let proven = bound.instructions.expect("finite");
        assert!((19..=25).contains(&proven), "{proven}");
    }

    #[test]
    fn unbounded_loop_reports_unbounded() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.jump(top);
        b.halt(); // unreachable, but the builder requires a terminator
        let bound = bound_of(&b.build().unwrap());
        assert!(!bound.is_bounded());
        assert_eq!(bound.instructions, None);
    }

    #[test]
    fn nested_loops_multiply_trip_counts() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0);
        b.mov_imm(X3, 4);
        b.mov_imm(X2, 3);
        let outer = b.label();
        b.bind(outer);
        b.mov_imm(X1, 0);
        let inner = b.label();
        b.bind(inner);
        b.alu_ri(SAluOp::Add, X1, X1, 1);
        b.branch(BranchCond::Lt, X1, X2, inner);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X3, outer);
        b.halt();
        let bound = bound_of(&b.build().unwrap());
        assert!(bound.is_bounded(), "{bound}");
        // Outer ≤ 5 visits, inner ≤ 4 per entry; the true dynamic
        // count (3 setup + 4×(1 + 3×2 + 2) + 1 = 40) must be ≤ bound.
        let proven = bound.instructions.unwrap();
        assert!(proven >= 40, "{proven}");
        assert!(proven <= 3 + 5 * (1 + 4 * 2 + 2) + 1, "{proven}");
    }

    #[test]
    fn constant_store_addresses_bound_pages_by_span() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x1000);
        b.mov_imm(X1, 7);
        b.mov_imm(X2, 0);
        b.mov_imm(X3, 100);
        let top = b.label();
        b.bind(top);
        b.store(X1, X0, 0, quetzal_isa::MemSize::B8);
        b.alu_ri(SAluOp::Add, X2, X2, 1);
        b.branch(BranchCond::Lt, X2, X3, top);
        b.halt();
        let bound = bound_of(&b.build().unwrap());
        // The store hits one constant page regardless of trip count.
        assert_eq!(bound.pages, Some(1));
    }

    #[test]
    fn vector_fuel_loop_is_bounded() {
        // A miniature wavefront loop: root p2 seeded by v0 > 0,
        // ceiling v4 = splat(50); survivors (matching lanes) advance.
        let mut b = ProgramBuilder::new();
        b.ptrue(P1, ElemSize::B64);
        b.dup_imm(V0, 1, ElemSize::B64);
        b.dup_imm(V4, 50, ElemSize::B64);
        b.dup_imm(V5, 3, ElemSize::B64);
        b.dup_imm(V6, 3, ElemSize::B64);
        b.vcmp_vi(BranchCond::Gt, P2, V0, 0, P1, ElemSize::B64);
        b.mov_imm(X21, 0);
        let top = b.label();
        let done = b.label();
        b.bind(top);
        b.vcmp_vv(BranchCond::Lt, P5, V0, V4, P2, ElemSize::B64);
        b.pcount(X13, P5, ElemSize::B64);
        b.branch(BranchCond::Eq, X13, X21, done);
        b.vcmp_vv(BranchCond::Eq, P6, V5, V6, P5, ElemSize::B64);
        b.valu_vi(VAluOp::Add, V0, V0, 1, P6, ElemSize::B64);
        b.por(P2, P6, P6);
        b.jump(top);
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        // Run the real verifier state fixpoint? Here, hand-build the
        // vector entry facts the rule needs: v4 = splat(50) and
        // v0 = splat(1) hold at the header.
        let mut v = [VAbs::Top; 32];
        v[0] = VAbs::Splat(1);
        v[4] = VAbs::Splat(50);
        let ventry: Vec<Option<[VAbs; 32]>> = vec![Some(v); cfg.blocks().len()];
        let bound = compute(&p, &cfg, &ventry, &ClassLatencies::default(), None);
        assert!(bound.is_bounded(), "{bound}");
        // Fuel: 8 lanes × (50 − 1) + 8 + 2 = 402 header visits max; the
        // exec-count model charges every in-loop block per trip.
        let trips = 402u64;
        let max_insts = 7 + trips * 3 + trips * 4 + 1;
        assert!(bound.instructions.unwrap() <= max_insts, "{bound}");
    }

    #[test]
    fn latency_table_covers_every_class() {
        let lat = ClassLatencies::default();
        let p = {
            let mut b = ProgramBuilder::new();
            b.mov_imm(X0, 1);
            b.halt();
            b.build().unwrap()
        };
        for inst in p.instructions() {
            assert!(lat.latency(inst.class()) > 0);
        }
        assert!(lat.latency(InstClass::Gather) > lat.latency(InstClass::ScalarAlu));
    }

    #[test]
    fn resource_bound_renders_both_shapes() {
        let b = ResourceBound {
            instructions: Some(10),
            pages: Some(1),
            cycles: None,
            premised: false,
        };
        let s = b.to_string();
        assert!(s.contains("insts≤10"), "{s}");
        assert!(s.contains("cycles=∞"), "{s}");
    }

    // Silence an unused-import lint when the Reg path is only used via
    // fully-qualified names above.
    #[allow(dead_code)]
    fn _touch(r: Reg) -> Reg {
        r
    }
}
