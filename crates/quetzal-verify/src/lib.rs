//! Static dataflow verification of guest QUETZAL programs.
//!
//! `quetzal-verify` runs a forward abstract interpretation over a
//! [`Program`]'s recovered control-flow graph and reports typed,
//! source-located [`Diagnostic`]s *before* the program executes a
//! single simulated cycle. The diagnostic kinds mirror the simulator's
//! `SimError` taxonomy so the static verdict is directly comparable to
//! the runtime outcome; the fault-injection sweep cross-validates the
//! two on every mutant it builds.
//!
//! # Soundness contract
//!
//! For a program run on a freshly-reset machine (architectural
//! registers and QBUFFER *contents* may hold arbitrary values; the
//! QBUFFER *configuration* is the reset default, 64-bit elements):
//!
//! * [`Verdict::Clean`] ⇒ execution never raises a statically-decidable
//!   `SimError`: `DecodeError`, `InvalidRegister`, `InvalidQzConf`, or
//!   `QBufferIndexOutOfRange`.
//! * Every runtime `InvalidRegister` / `InvalidQzConf` /
//!   `QBufferIndexOutOfRange` at pc `p` has a diagnostic of the same
//!   kind at pc `p`; every runtime `DecodeError` has a fatal
//!   `DecodeError` diagnostic.
//!
//! The three resource-exhaustion faults — `MemoryFault` (page-budget
//! exhaustion), `InstLimit`, and `CycleLimit` — are additionally
//! attacked statically: a relational octagon fixpoint (see
//! [`octagon`]) feeds loop trip-count inference (see [`bounds`]),
//! yielding a per-program [`ResourceBound`] in the report. When the
//! bound is finite it holds for *every* execution, so it can never
//! trip a runtime watchdog: the watchdogs stay fixed, admission paths
//! use the proof only to gate and classify programs, and the fault
//! sweep's soundness corpora check the bound itself against observed
//! runs. When the bound is not finite, the runtime watchdog is the only
//! protection. The verifier also warns when provably-constant
//! store addresses alone exceed the configured page budget.
//!
//! [`Severity::Fatal`] marks sites that *must* fault if executed (for
//! branches: if the edge is taken); [`Severity::Warning`] marks
//! unprovable-at-compile-time hygiene findings (reads of never-written
//! registers, unverifiable `qzconf`/`qzencode` operands, QBUFFER index
//! wrap-around, unreachable code).
//!
//! # Example
//!
//! ```
//! use quetzal_isa::*;
//! use quetzal_verify::{verify, Verdict};
//!
//! let mut b = ProgramBuilder::new();
//! b.mov_imm(X0, 5);
//! b.halt();
//! let report = verify(&b.build()?);
//! assert_eq!(report.verdict(), Verdict::Clean);
//! # Ok::<(), BuildError>(())
//! ```

#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bounds;
pub mod lattice;
pub mod octagon;

pub use bounds::{ClassLatencies, ResourceBound};

use lattice::{AbsVal, Def, EncState, VAbs};
use quetzal_isa::cfg::{Cfg, Succ};
use quetzal_isa::{ElemSize, EncSize, ImageFault, Instruction, Program, Reg};
use std::collections::BTreeSet;

/// Guest page size is 2^12 bytes (mirrors `quetzal-uarch`'s simulated
/// memory geometry).
const PAGE_BITS: u32 = 12;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably faulting.
    Warning,
    /// The site must raise a `SimError` if it executes (for control
    /// transfers: if the edge is taken).
    Fatal,
}

/// What a diagnostic is about. The first four kinds mirror the
/// statically-decidable `SimError` variants; the rest are
/// verifier-only findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// Control flow leaves the program image (truncated image, branch
    /// target out of range, empty image).
    DecodeError,
    /// A lane index encoded in the instruction is out of range for its
    /// element size.
    InvalidRegister,
    /// A `qzconf` element-size operand is (or may be) outside the
    /// architectural {0, 1, 2} field values.
    InvalidQzConf,
    /// A `qzencode` element index violates (or may violate) the
    /// configured encoding's alignment.
    QBufferIndexOutOfRange,
    /// Provably-constant store addresses alone exceed the configured
    /// guest page budget.
    MemoryFault,
    /// A register is read before any instruction writes it.
    UndefinedRead,
    /// A QBUFFER access is reachable under conflicting `qzconf`
    /// element-size configurations.
    QBufferWidthMismatch,
    /// A provably-constant QBUFFER element index exceeds the buffer
    /// capacity and will wrap (direct-mapped aliasing, not a fault).
    QBufferIndexWraps,
    /// A basic block no path from the entry reaches.
    UnreachableBlock,
}

impl DiagKind {
    /// Stable kebab-case label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            DiagKind::DecodeError => "decode-error",
            DiagKind::InvalidRegister => "invalid-register",
            DiagKind::InvalidQzConf => "invalid-qzconf",
            DiagKind::QBufferIndexOutOfRange => "qbuffer-index-out-of-range",
            DiagKind::MemoryFault => "memory-fault",
            DiagKind::UndefinedRead => "undefined-read",
            DiagKind::QBufferWidthMismatch => "qbuffer-width-mismatch",
            DiagKind::QBufferIndexWraps => "qbuffer-index-wraps",
            DiagKind::UnreachableBlock => "unreachable-block",
        }
    }
}

/// One verifier finding, anchored to an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Instruction index the finding is about.
    pub pc: usize,
    /// What kind of finding.
    pub kind: DiagKind,
    /// Whether the site must fault or is merely suspicious.
    pub severity: Severity,
    /// Human-readable explanation.
    pub note: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Fatal => "fatal",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "pc {:>3} [{sev}] {}: {}",
            self.pc,
            self.kind.label(),
            self.note
        )
    }
}

/// Overall verdict of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No diagnostics at all.
    Clean,
    /// Only warnings.
    Warnings,
    /// At least one fatal diagnostic: the program must fault if any
    /// flagged site executes, and batch pre-verification rejects it.
    Fatal,
}

/// The result of verifying one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    name: String,
    len: usize,
    diagnostics: Vec<Diagnostic>,
    bound: ResourceBound,
}

impl Report {
    /// Name of the verified program.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instruction count of the verified program.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the verified program was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All findings, sorted by pc.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The overall verdict.
    pub fn verdict(&self) -> Verdict {
        if self.diagnostics.is_empty() {
            Verdict::Clean
        } else if self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Fatal)
        {
            Verdict::Fatal
        } else {
            Verdict::Warnings
        }
    }

    /// Whether there are no findings.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The statically proven resource bound (sound upper bound on
    /// every dynamic execution; components are `None` when no finite
    /// bound could be derived).
    pub fn bound(&self) -> &ResourceBound {
        &self.bound
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match self.verdict() {
            Verdict::Clean => "clean",
            Verdict::Warnings => "warnings",
            Verdict::Fatal => "FATAL",
        };
        writeln!(
            f,
            "{}: {} ({} instructions, {} diagnostics)",
            self.name,
            verdict,
            self.len,
            self.diagnostics.len()
        )?;
        writeln!(f, "  bound: {}", self.bound)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Parameters of the machine the program is verified against.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Bytes per QBUFFER (determines element capacity per encoding;
    /// default matches the paper's 8 KB buffers).
    pub qbuffer_bytes: usize,
    /// Guest resident-page budget to check provably-constant store
    /// footprints against, or `None` to skip the check.
    pub page_budget: Option<usize>,
    /// Per-class worst-case latencies used for the cycle ceiling in
    /// the [`ResourceBound`]; the default matches the A64FX-like
    /// `CoreConfig` (see `quetzal::class_latencies`).
    pub latencies: ClassLatencies,
    /// Staged-word-range premise for the bounds analysis: when a loop
    /// defeats both trip rules outright, scalar 8-byte loads whose
    /// address intervals are provably disjoint from every store the
    /// program can execute may assume their result lies in this range
    /// (such loads only observe host-staged words or never-written
    /// zeros). A bound proven this way is flagged
    /// [`ResourceBound::premised`] and is sound only for machines
    /// whose staged words all lie within the range — the in-tree
    /// harnesses stage values well inside the
    /// [`DEFAULT_STAGED_WORD_RANGE`]. `None` disables the retry.
    pub staged_word_range: Option<(i64, i64)>,
}

/// Default staged-word-range premise: every value the in-tree
/// workload generators stage (±2^15 operand words, ±2^40 sentinels,
/// sub-2^30 addresses/offsets) sits far inside ±2^44, while the
/// margin to the octagon's 2^61 clamp keeps premised arithmetic
/// wrap-free.
pub const DEFAULT_STAGED_WORD_RANGE: (i64, i64) = (-(1 << 44), 1 << 44);

impl Default for VerifyConfig {
    fn default() -> VerifyConfig {
        VerifyConfig {
            qbuffer_bytes: 8 * 1024,
            page_budget: None,
            latencies: ClassLatencies::default(),
            staged_word_range: Some(DEFAULT_STAGED_WORD_RANGE),
        }
    }
}

/// Verifies a program against the default machine parameters.
pub fn verify(program: &Program) -> Report {
    verify_with(program, &VerifyConfig::default())
}

/// Abstract machine state at one program point.
#[derive(Clone, PartialEq)]
struct State {
    x: [AbsVal; 32],
    v: [VAbs; 32],
    defs: [Def; Reg::FLAT_COUNT],
    enc: EncState,
}

impl State {
    /// State at program entry: register *values* are unknown (the host
    /// stages operands, fault sweeps corrupt them), nothing is defined
    /// by the program yet, and the QBUFFER configuration is the reset
    /// default (64-bit elements).
    fn entry() -> State {
        State {
            x: [AbsVal::TOP; 32],
            v: [VAbs::Top; 32],
            defs: [Def::Undef; Reg::FLAT_COUNT],
            enc: EncState::Known(EncSize::E64),
        }
    }

    /// Joins `other` into `self`; returns whether anything changed.
    fn join_into(&mut self, other: &State) -> bool {
        let before = self.clone();
        for (a, b) in self.x.iter_mut().zip(other.x.iter()) {
            *a = a.join(*b);
        }
        for (a, b) in self.v.iter_mut().zip(other.v.iter()) {
            *a = a.join(*b);
        }
        for (a, b) in self.defs.iter_mut().zip(other.defs.iter()) {
            *a = a.join(*b);
        }
        self.enc = self.enc.join(other.enc);
        *self != before
    }

    fn xv(&self, r: quetzal_isa::XReg) -> AbsVal {
        self.x[r.index() as usize]
    }

    /// Advances the state over one instruction (pure transfer, no
    /// diagnostics).
    fn step(&mut self, inst: &Instruction) {
        // Evaluate precise results against the *pre*-state — the
        // destination may also be a source (`x4 = x4 + 32`).
        let precise_x = match *inst {
            Instruction::MovImm { rd, imm } => Some((rd, AbsVal::constant(imm as u64))),
            Instruction::AluRR { op, rd, rn, rm } => {
                Some((rd, AbsVal::transfer(op, self.xv(rn), self.xv(rm))))
            }
            Instruction::AluRI { op, rd, rn, imm } => Some((
                rd,
                AbsVal::transfer(op, self.xv(rn), AbsVal::constant(imm as u64)),
            )),
            _ => None,
        };
        let precise_v = match *inst {
            Instruction::Dup {
                vd,
                rn,
                esize: ElemSize::B64,
            } => self.xv(rn).as_const().map(|c| (vd, VAbs::Splat(c))),
            Instruction::DupImm {
                vd,
                imm,
                esize: ElemSize::B64,
            } => Some((vd, VAbs::Splat(imm as u64))),
            Instruction::Index {
                vd,
                rn,
                step,
                esize: ElemSize::B64,
            } => self
                .xv(rn)
                .as_const()
                .map(|start| (vd, VAbs::Iota { start, step })),
            _ => None,
        };
        if let Instruction::QzConf { esiz, .. } = *inst {
            self.enc = match self.xv(esiz).as_const().map(EncSize::from_field) {
                Some(Some(e)) => EncState::Known(e),
                // Invalid constant: the instruction faults, so the
                // continuation is dead and any state is sound.
                Some(None) => EncState::AnyValid,
                None => EncState::AnyValid,
            };
        }

        // Generic def effect: destination becomes defined and (absent a
        // precise result above) unknown.
        inst.for_each_def(|r| {
            self.defs[r.flat_index()] = Def::Defined;
            match r {
                Reg::X(x) => self.x[x.index() as usize] = AbsVal::TOP,
                Reg::V(v) => self.v[v.index() as usize] = VAbs::Top,
                Reg::P(_) => {}
            }
        });
        if let Some((rd, val)) = precise_x {
            self.x[rd.index() as usize] = val;
        }
        if let Some((vd, val)) = precise_v {
            self.v[vd.index() as usize] = val;
        }
    }
}

/// `qzencode` element-index alignment required by an encoding.
fn encode_align(e: EncSize) -> u64 {
    match e {
        EncSize::E2 => 32,
        EncSize::E8 => 8,
        EncSize::E64 => 1,
    }
}

/// Per-run emission context (page-footprint tracking spans the whole
/// program, not one block).
struct Emitter<'a> {
    cfg: &'a VerifyConfig,
    diags: Vec<Diagnostic>,
    const_pages: BTreeSet<u64>,
    page_warned: bool,
}

impl Emitter<'_> {
    fn push(&mut self, pc: usize, kind: DiagKind, severity: Severity, note: String) {
        self.diags.push(Diagnostic {
            pc,
            kind,
            severity,
            note,
        });
    }

    /// QBUFFER element capacity under a known encoding.
    fn capacity_elems(&self, e: EncSize) -> u64 {
        ((self.cfg.qbuffer_bytes / 8) * e.per_word()) as u64
    }

    /// Records `len` bytes written starting at constant address `addr`
    /// and warns once if the provable footprint alone exceeds the page
    /// budget.
    fn touch_pages(&mut self, pc: usize, addr: u64, len: u64) {
        let Some(budget) = self.cfg.page_budget else {
            return;
        };
        let last = addr.wrapping_add(len.saturating_sub(1));
        for page in (addr >> PAGE_BITS)..=(last >> PAGE_BITS) {
            self.const_pages.insert(page);
        }
        if !self.page_warned && self.const_pages.len() > budget {
            self.page_warned = true;
            self.push(
                pc,
                DiagKind::MemoryFault,
                Severity::Warning,
                format!(
                    "provably-constant stores touch {} distinct pages, exceeding the page budget of {budget}",
                    self.const_pages.len()
                ),
            );
        }
    }

    /// Emits diagnostics for one instruction given the state before it.
    fn check(&mut self, state: &State, pc: usize, inst: &Instruction) {
        // Def-before-use. A read of a register the same instruction
        // redefines is exempt: that shape is either the merge source of
        // a predicated vector op or an in-place accumulator (`add
        // x29, x29, 1`), and both idioms lean on the architectural
        // zero-at-reset value on purpose (the Base tier's
        // compiled-overhead chains are exactly this).
        let mut self_defs: Vec<Reg> = Vec::new();
        inst.for_each_def(|r| self_defs.push(r));
        inst.for_each_use(|r| {
            if self_defs.contains(&r) {
                return;
            }
            match state.defs[r.flat_index()] {
                Def::Defined => {}
                Def::Undef => self.push(
                    pc,
                    DiagKind::UndefinedRead,
                    Severity::Warning,
                    format!("read of {r}, which no instruction writes before this point"),
                ),
                Def::Maybe => self.push(
                    pc,
                    DiagKind::UndefinedRead,
                    Severity::Warning,
                    format!("read of {r}, which is written on only some paths to this point"),
                ),
            }
        });

        match *inst {
            Instruction::VExtract { lane, esize, .. }
            | Instruction::VInsert { lane, esize, .. }
                if lane as usize >= esize.lanes() =>
            {
                self.push(
                    pc,
                    DiagKind::InvalidRegister,
                    Severity::Fatal,
                    format!(
                        "lane {lane} out of range for {} lanes of {esize}",
                        esize.lanes()
                    ),
                );
            }
            Instruction::QzConf { esiz, .. } => match state.xv(esiz).as_const() {
                Some(c) => {
                    if EncSize::from_field(c).is_none() {
                        self.push(
                            pc,
                            DiagKind::InvalidQzConf,
                            Severity::Fatal,
                            format!("element-size field {c} is not one of the architectural values 0/1/2"),
                        );
                    }
                }
                None => self.push(
                    pc,
                    DiagKind::InvalidQzConf,
                    Severity::Warning,
                    format!("element-size operand {esiz} is not provably a valid field value"),
                ),
            },
            Instruction::QzEncode { idx, .. } => match state.enc {
                EncState::Bot => {}
                EncState::Known(e) => {
                    let align = encode_align(e);
                    if align > 1 {
                        match state.xv(idx).residue(align) {
                            Some(0) => {}
                            Some(r) => self.push(
                                pc,
                                DiagKind::QBufferIndexOutOfRange,
                                Severity::Fatal,
                                format!(
                                    "element index ≡ {r} (mod {align}) violates the {align}-element alignment of {e} encoding"
                                ),
                            ),
                            None => self.push(
                                pc,
                                DiagKind::QBufferIndexOutOfRange,
                                Severity::Warning,
                                format!(
                                    "element index {idx} is not provably {align}-element aligned for {e} encoding"
                                ),
                            ),
                        }
                    }
                }
                EncState::AnyValid | EncState::Conflicting => {
                    // 32-alignment satisfies every encoding's constraint.
                    if state.xv(idx).residue(32) != Some(0) {
                        self.push(
                            pc,
                            DiagKind::QBufferIndexOutOfRange,
                            Severity::Warning,
                            format!(
                                "element index {idx} is not provably aligned for the (unknown) configured encoding"
                            ),
                        );
                    }
                }
            },
            Instruction::QzLoad { idx, .. } => self.check_qz_access(state, pc, &[idx]),
            Instruction::QzStore { idx, .. } | Instruction::QzUpdate { idx, .. } => {
                self.check_qz_access(state, pc, &[idx])
            }
            Instruction::QzMm { idx, .. } => self.check_qz_access(state, pc, &[idx]),
            Instruction::QzMhm { idx0, idx1, .. } => self.check_qz_access(state, pc, &[idx0, idx1]),
            Instruction::QzCount { .. } => self.check_qz_access(state, pc, &[]),
            Instruction::Store {
                rn, offset, size, ..
            } => {
                if let Some(base) = state.xv(rn).as_const() {
                    let addr = base.wrapping_add(offset as u64);
                    self.touch_pages(pc, addr, size.bytes() as u64);
                }
            }
            Instruction::VStore { rn, .. } => {
                if let Some(base) = state.xv(rn).as_const() {
                    self.touch_pages(pc, base, quetzal_isa::VLEN_BYTES as u64);
                }
            }
            Instruction::VScatter {
                rn,
                idx,
                msize,
                scale,
                ..
            } => {
                if let (Some(base), Some(lanes)) = (
                    state.xv(rn).as_const(),
                    state.v[idx.index() as usize].lanes64(),
                ) {
                    for lane in lanes {
                        let addr = base.wrapping_add(lane.wrapping_mul(scale as u64));
                        self.touch_pages(pc, addr, msize.bytes() as u64);
                    }
                }
            }
            _ => {}
        }
    }

    /// Width-consistency and static index-range checks shared by every
    /// QBUFFER read/write site.
    fn check_qz_access(&mut self, state: &State, pc: usize, idx_regs: &[quetzal_isa::VReg]) {
        if state.enc == EncState::Conflicting {
            self.push(
                pc,
                DiagKind::QBufferWidthMismatch,
                Severity::Warning,
                "access is reachable under conflicting qzconf element sizes".to_string(),
            );
        }
        if let EncState::Known(e) = state.enc {
            let cap = self.capacity_elems(e);
            for &r in idx_regs {
                if let Some(lanes) = state.v[r.index() as usize].lanes64() {
                    if let Some(&worst) = lanes.iter().filter(|&&l| l >= cap).max() {
                        self.push(
                            pc,
                            DiagKind::QBufferIndexWraps,
                            Severity::Warning,
                            format!(
                                "element index {worst} in {r} exceeds the {cap}-element capacity of {e} encoding and wraps"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The abstract state at entry to every block: the worklist fixpoint
/// over the blocks reachable from the entry (`None` for the rest).
fn entry_states(insts: &[Instruction], cfg: &Cfg) -> Vec<Option<State>> {
    let mut entry: Vec<Option<State>> = vec![None; cfg.blocks().len()];
    entry[0] = Some(State::entry());
    let mut worklist = vec![0usize];
    while let Some(b) = worklist.pop() {
        let Some(mut state) = entry[b].clone() else {
            continue;
        };
        let block = &cfg.blocks()[b];
        for pc in block.pcs() {
            state.step(&insts[pc]);
        }
        for succ in &block.succs {
            let Succ::Block(s) = *succ else { continue };
            let changed = match &mut entry[s] {
                Some(existing) => existing.join_into(&state),
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed {
                worklist.push(s);
            }
        }
    }
    entry
}

/// Verifies a program against explicit machine parameters.
pub fn verify_with(program: &Program, config: &VerifyConfig) -> Report {
    let mut em = Emitter {
        cfg: config,
        diags: Vec::new(),
        const_pages: BTreeSet::new(),
        page_warned: false,
    };

    // Structural pass — shared with `Program::build` / `from_raw_checked`.
    for fault in program.image_faults() {
        match fault {
            ImageFault::Empty => em.push(
                0,
                DiagKind::DecodeError,
                Severity::Fatal,
                "empty program image: execution faults at pc 0".to_string(),
            ),
            ImageFault::TargetOutOfRange { pc, target } => em.push(
                pc,
                DiagKind::DecodeError,
                Severity::Fatal,
                format!(
                    "control-transfer target {target} is outside the {}-instruction program",
                    program.len()
                ),
            ),
        }
    }
    if program.is_empty() {
        // An empty image faults at pc 0 without retiring anything.
        let bound = ResourceBound {
            instructions: Some(0),
            pages: Some(0),
            cycles: Some(config.latencies.startup),
            premised: false,
        };
        return finish(program, em.diags, bound);
    }

    let insts = program.instructions();
    let cfg = Cfg::build(program);
    let reachable = cfg.reachable();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            em.push(
                block.start,
                DiagKind::UnreachableBlock,
                Severity::Warning,
                format!(
                    "block @{}..@{} is unreachable from the entry",
                    block.start, block.end
                ),
            );
        }
    }

    let entry = entry_states(insts, &cfg);

    // Resource bounds from the relational (octagon) fixpoint plus the
    // vector-shape facts the main lattice already proved per block.
    let ventry: Vec<Option<[VAbs; 32]>> = entry.iter().map(|s| s.as_ref().map(|st| st.v)).collect();
    let bound = bounds::compute(
        program,
        &cfg,
        &ventry,
        &config.latencies,
        config.staged_word_range,
    );

    // Emission pass over the fixed entry states.
    for (b, block) in cfg.blocks().iter().enumerate() {
        let Some(entry_state) = entry[b].clone() else {
            continue;
        };
        let mut state = entry_state;
        for pc in block.pcs() {
            em.check(&state, pc, &insts[pc]);
            state.step(&insts[pc]);
        }
        // Falling off the end of the image is a decode fault the moment
        // this block's straight-line successor executes. Out-of-range
        // *branch* targets were already reported structurally.
        let last = block.end - 1;
        for succ in &block.succs {
            let Succ::OutOfProgram { target } = *succ else {
                continue;
            };
            if insts[last].branch_target() == Some(target) {
                continue;
            }
            em.push(
                last,
                DiagKind::DecodeError,
                Severity::Fatal,
                format!("execution falls off the end of the program (pc {target})"),
            );
        }
    }

    finish(program, em.diags, bound)
}

/// Per-loop trip-count diagnosis for debugging bound regressions:
/// one line per natural loop with the header pc and what each trip
/// rule concluded. Not a stable API.
#[doc(hidden)]
pub fn explain_bounds(program: &Program) -> Vec<String> {
    if program.is_empty() {
        return Vec::new();
    }
    let insts = program.instructions();
    let cfg = Cfg::build(program);
    let entry = entry_states(insts, &cfg);
    let ventry: Vec<Option<[VAbs; 32]>> = entry.iter().map(|s| s.as_ref().map(|st| st.v)).collect();
    bounds::explain_loops(program, &cfg, &ventry, Some(DEFAULT_STAGED_WORD_RANGE))
        .into_iter()
        .map(|(pc, scalar, fuel)| {
            fn t(v: Option<u128>) -> String {
                v.map_or_else(|| "-".to_string(), |v| v.to_string())
            }
            format!(
                "loop @pc {pc}: scalar trips {}, vector trips {}",
                t(scalar),
                t(fuel)
            )
        })
        .collect()
}

fn finish(program: &Program, mut diags: Vec<Diagnostic>, bound: ResourceBound) -> Report {
    diags.sort_by_key(|d| (d.pc, d.severity == Severity::Warning));
    Report {
        name: program.name().to_string(),
        len: program.len(),
        diagnostics: diags,
        bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::reg::aliases::*;
    use quetzal_isa::{BranchCond, ProgramBuilder, QBufSel, SAluOp, VAluOp};

    /// Whether a finding of `kind` exists at `pc` (any severity).
    fn has_kind_at(report: &Report, kind: DiagKind, pc: usize) -> bool {
        report
            .diagnostics()
            .iter()
            .any(|d| d.kind == kind && d.pc == pc)
    }

    /// Whether a fatal finding of `kind` exists anywhere.
    fn has_fatal_kind(report: &Report, kind: DiagKind) -> bool {
        report
            .diagnostics()
            .iter()
            .any(|d| d.kind == kind && d.severity == Severity::Fatal)
    }

    fn clean_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 10);
        let top = b.label();
        b.bind(top);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn clean_program_is_clean() {
        let report = verify(&clean_loop());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.verdict(), Verdict::Clean);
    }

    #[test]
    fn explain_bounds_reports_each_loop_on_the_shared_fixpoint() {
        assert_eq!(
            explain_bounds(&clean_loop()),
            ["loop @pc 2: scalar trips 10, vector trips -"]
        );
    }

    #[test]
    fn truncated_image_is_fatal_decode() {
        let p = Program::from_raw(vec![Instruction::MovImm { rd: X0, imm: 1 }], "truncated");
        let report = verify(&p);
        assert_eq!(report.verdict(), Verdict::Fatal);
        assert!(has_fatal_kind(&report, DiagKind::DecodeError), "{report}");
    }

    #[test]
    fn empty_image_is_fatal_decode() {
        let p = Program::from_raw(Vec::new(), "empty");
        let report = verify(&p);
        assert!(has_fatal_kind(&report, DiagKind::DecodeError));
    }

    #[test]
    fn wild_branch_target_is_fatal_decode_at_the_branch() {
        let p = Program::from_raw(
            vec![Instruction::Jump { target: 40 }, Instruction::Halt],
            "wild",
        );
        let report = verify(&p);
        assert!(has_kind_at(&report, DiagKind::DecodeError, 0), "{report}");
        // The dead halt is reported as unreachable, not as a fault.
        assert!(has_kind_at(&report, DiagKind::UnreachableBlock, 1));
    }

    #[test]
    fn bad_lane_is_fatal_invalid_register() {
        let mut b = ProgramBuilder::new();
        b.vextract(X0, V0, 9, ElemSize::B64); // B64 has 8 lanes
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(
            has_fatal_kind(&report, DiagKind::InvalidRegister),
            "{report}"
        );
        assert!(has_kind_at(&report, DiagKind::InvalidRegister, 0));
    }

    #[test]
    fn constant_bad_esiz_is_fatal_qzconf() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64);
        b.mov_imm(X1, 64);
        b.mov_imm(X2, 7); // not in {0, 1, 2}
        b.qzconf(X0, X1, X2);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(has_fatal_kind(&report, DiagKind::InvalidQzConf), "{report}");
        assert!(has_kind_at(&report, DiagKind::InvalidQzConf, 3));
    }

    #[test]
    fn unknown_esiz_is_a_warning() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X3, 0x100);
        b.load(X2, X3, 0, quetzal_isa::MemSize::B8);
        b.qzconf(X3, X3, X2);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert_eq!(report.verdict(), Verdict::Warnings, "{report}");
        assert!(has_kind_at(&report, DiagKind::InvalidQzConf, 2));
    }

    #[test]
    fn misaligned_constant_encode_under_e2_is_fatal() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64);
        b.mov_imm(X1, 64);
        b.mov_imm(X2, 0); // E2
        b.qzconf(X0, X1, X2);
        b.mov_imm(X4, 7);
        b.qzencode(QBufSel::Q0, V0, X4);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(
            has_kind_at(&report, DiagKind::QBufferIndexOutOfRange, 5),
            "{report}"
        );
        assert!(has_fatal_kind(&report, DiagKind::QBufferIndexOutOfRange));
    }

    #[test]
    fn strided_encode_loop_proves_alignment() {
        // idx starts at 0 and advances by 32 per iteration: every
        // qzencode is provably aligned even though idx is not constant.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64);
        b.mov_imm(X1, 64);
        b.mov_imm(X2, 0); // E2
        b.qzconf(X0, X1, X2);
        b.mov_imm(X4, 0);
        b.mov_imm(X5, 320);
        b.dup_imm(V0, 0x41, ElemSize::B8);
        let top = b.label();
        b.bind(top);
        b.qzencode(QBufSel::Q0, V0, X4);
        b.alu_ri(SAluOp::Add, X4, X4, 32);
        b.branch(BranchCond::Lt, X4, X5, top);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn undefined_read_is_a_warning() {
        let mut b = ProgramBuilder::new();
        b.alu_rr(SAluOp::Add, X0, X10, X11); // X10/X11 never written
        b.halt();
        let report = verify(&b.build().unwrap());
        assert_eq!(report.verdict(), Verdict::Warnings);
        assert!(has_kind_at(&report, DiagKind::UndefinedRead, 0));
    }

    #[test]
    fn merging_vector_destination_is_exempt_from_undef() {
        let mut b = ProgramBuilder::new();
        b.ptrue(P0, ElemSize::B64);
        b.dup_imm(V0, 1, ElemSize::B64);
        // V2 read as merge source only: no warning.
        b.valu_vv(VAluOp::Add, V2, V0, V0, P0, ElemSize::B64);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn conflicting_configurations_warn_at_access() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64);
        b.mov_imm(X1, 64);
        b.mov_imm(X9, 1);
        let other = b.label();
        let join = b.label();
        b.branch(BranchCond::Eq, X0, X1, other);
        b.mov_imm(X2, 0); // E2 on one path
        b.qzconf(X0, X1, X2);
        b.jump(join);
        b.bind(other);
        b.mov_imm(X2, 1); // E8 on the other
        b.qzconf(X0, X1, X2);
        b.bind(join);
        b.dup_imm(V1, 0, ElemSize::B64);
        b.ptrue(P0, ElemSize::B64);
        b.qzload(V2, V1, QBufSel::Q0, P0);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert_eq!(report.verdict(), Verdict::Warnings, "{report}");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.kind == DiagKind::QBufferWidthMismatch));
    }

    #[test]
    fn constant_index_beyond_capacity_warns_of_wrap() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 64);
        b.mov_imm(X1, 64);
        b.mov_imm(X2, 2); // E64: 1024-element capacity at 8 KiB
        b.qzconf(X0, X1, X2);
        b.dup_imm(V1, 5000, ElemSize::B64);
        b.ptrue(P0, ElemSize::B64);
        b.qzload(V2, V1, QBufSel::Q0, P0);
        b.halt();
        let report = verify(&b.build().unwrap());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.kind == DiagKind::QBufferIndexWraps),
            "{report}"
        );
    }

    #[test]
    fn constant_store_footprint_checked_against_budget() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 0x1000_0000);
        b.mov_imm(X1, 7);
        for i in 0..4 {
            b.store(X1, X0, i * 4096, quetzal_isa::MemSize::B8);
        }
        b.halt();
        let p = b.build().unwrap();
        let tight = VerifyConfig {
            page_budget: Some(2),
            ..VerifyConfig::default()
        };
        let report = verify_with(&p, &tight);
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.kind == DiagKind::MemoryFault),
            "{report}"
        );
        // And clean under the default (no budget check).
        assert!(verify(&p).is_clean());
    }

    #[test]
    fn report_renders_every_diagnostic() {
        let p = Program::from_raw(
            vec![Instruction::Jump { target: 40 }, Instruction::Halt],
            "render",
        );
        let report = verify(&p);
        let text = report.to_string();
        assert!(text.contains("FATAL"));
        assert!(text.contains("decode-error"));
        assert!(text.contains("unreachable-block"));
    }
}
