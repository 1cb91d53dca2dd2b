//! Programs and the label-resolving builder.

use crate::inst::{BranchCond, Instruction, QzOp, RedOp, SAluOp, VAluOp};
use crate::reg::{PReg, VReg, XReg};
use crate::types::{ElemSize, MemSize, QBufSel};

/// A forward-referenceable jump target handed out by
/// [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An immutable, label-resolved instruction sequence.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<Instruction>,
    name: String,
    /// Process-unique identity assigned at build time; clones share it
    /// (the instruction sequence is immutable), so it keys per-program
    /// records such as the trace recorder's hot-instruction table.
    id: u64,
}

/// Identity is deliberately excluded: two independently built programs
/// with the same instructions compare equal.
impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.insts == other.insts && self.name == other.name
    }
}

impl Eq for Program {}

/// Source of build-time program identities.
static NEXT_PROGRAM_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Process-wide observer invoked on every constructed [`Program`]
/// (builder-finalised or raw). Tooling seam: the `qzverify` gate
/// installs a collector here and replays the experiment harness, so
/// every kernel the experiments actually stage flows through static
/// verification.
type BuildObserver = Box<dyn Fn(&Program) + Send + Sync>;
static BUILD_OBSERVER: std::sync::OnceLock<BuildObserver> = std::sync::OnceLock::new();

/// Installs a process-wide observer called once for each program
/// constructed from now on (via [`ProgramBuilder::build`],
/// [`Program::from_raw`] or [`Program::from_raw_checked`]). Returns
/// `false` if an observer was already installed (the first one wins).
///
/// The observer runs on whichever thread constructs the program and
/// must not itself construct programs (it would recurse).
pub fn set_build_observer(observer: impl Fn(&Program) + Send + Sync + 'static) -> bool {
    BUILD_OBSERVER.set(Box::new(observer)).is_ok()
}

fn notify_observer(program: &Program) {
    if let Some(observer) = BUILD_OBSERVER.get() {
        observer(program);
    }
}

/// A structural defect of a raw instruction image — the statically
/// decodable subset of what the simulator would surface as
/// `SimError::DecodeError` at runtime.
///
/// This is the **single** decode-validation routine of the workspace
/// (see [`image_faults`]): [`ProgramBuilder::build`],
/// [`Program::from_raw_checked`] and the `quetzal-verify` structural
/// pass all share it, so "builder-valid", "image-valid" and
/// "verifier-structurally-clean" can never diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageFault {
    /// The image contains no instructions: the entry fetch at pc 0
    /// already leaves the program.
    Empty,
    /// A branch or jump encodes a target outside the instruction
    /// stream; taking it raises a decode fault.
    TargetOutOfRange {
        /// Program counter of the branch/jump.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
}

impl std::fmt::Display for ImageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageFault::Empty => f.write_str("empty program image"),
            ImageFault::TargetOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets {target}, outside the program")
            }
        }
    }
}

impl std::error::Error for ImageFault {}

/// Scans an instruction image for structural decode faults: an empty
/// image, or branch/jump targets outside `0..insts.len()`.
///
/// Falling off the end of the image (a path reaching `pc == len`
/// without `halt`) is deliberately *not* an image fault — it depends on
/// control flow and is reported by the `quetzal-verify` dataflow pass
/// instead.
pub fn image_faults(insts: &[Instruction]) -> Vec<ImageFault> {
    let mut faults = Vec::new();
    if insts.is_empty() {
        faults.push(ImageFault::Empty);
    }
    for (pc, inst) in insts.iter().enumerate() {
        if let Some(target) = inst.branch_target() {
            if target >= insts.len() {
                faults.push(ImageFault::TargetOutOfRange { pc, target });
            }
        }
    }
    faults
}

impl Program {
    /// The instructions.
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// Instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn fetch(&self, pc: usize) -> Instruction {
        self.insts[pc]
    }

    /// Builds a program directly from raw instructions, bypassing the
    /// builder's structural validation (trailing-`halt` check, label
    /// resolution). Exists for fault injection: truncated and mutated
    /// images are *supposed* to be malformed, and the simulator must
    /// turn them into typed `SimError`s rather than rely on builder
    /// guarantees. Gets a fresh process-unique identity like any built
    /// program.
    pub fn from_raw(insts: Vec<Instruction>, name: impl Into<String>) -> Program {
        let program = Program {
            insts,
            name: name.into(),
            id: NEXT_PROGRAM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        notify_observer(&program);
        program
    }

    /// [`from_raw`](Self::from_raw) with the shared structural
    /// validation ([`image_faults`]) applied first — for callers
    /// accepting untrusted images that should be rejected up front
    /// rather than fault at runtime.
    ///
    /// # Errors
    ///
    /// Returns the image's structural faults if there are any; the
    /// program is not constructed.
    pub fn from_raw_checked(
        insts: Vec<Instruction>,
        name: impl Into<String>,
    ) -> Result<Program, Vec<ImageFault>> {
        let faults = image_faults(&insts);
        if faults.is_empty() {
            Ok(Program::from_raw(insts, name))
        } else {
            Err(faults)
        }
    }

    /// The shared structural decode validation ([`image_faults`]) over
    /// this program's instructions.
    pub fn image_faults(&self) -> Vec<ImageFault> {
        image_faults(&self.insts)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The diagnostic name given at build time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process-unique build identity (shared by clones). Stable for the
    /// lifetime of the process; suitable as a cache key for tables
    /// derived from the (immutable) instruction sequence.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Full disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "; program {} ({} insts)", self.name, self.insts.len());
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:5}: {inst}");
        }
        out
    }
}

/// Errors detected when finalising a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound.
    UnboundLabel {
        /// The unbound label.
        label: Label,
    },
    /// A label was bound twice.
    ReboundLabel {
        /// The rebound label.
        label: Label,
    },
    /// The program does not end in `halt` (or contains none at all).
    MissingHalt,
    /// The finalised image failed the shared structural validation
    /// ([`image_faults`]) — e.g. a label bound past the last
    /// instruction, leaving a branch targeting `len`.
    BadImage {
        /// The first structural fault found.
        fault: ImageFault,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnboundLabel { label } => {
                write!(f, "label L{} referenced but never bound", label.0)
            }
            BuildError::ReboundLabel { label } => write!(f, "label L{} bound twice", label.0),
            BuildError::MissingHalt => f.write_str("program contains no halt instruction"),
            BuildError::BadImage { fault } => write!(f, "structurally invalid image: {fault}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental program constructor with forward labels.
///
/// Every emit method returns `&mut Self` for chaining. Branch targets
/// are labels created with [`label`](Self::label) and bound to a
/// position with [`bind`](Self::bind); they may be bound before or after
/// the branches that use them.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Instruction>,
    // Branch-site fixups: (inst index, label).
    fixups: Vec<(usize, Label)>,
    bound: Vec<Option<usize>>,
    name: String,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            name: "kernel".to_string(),
            ..ProgramBuilder::default()
        }
    }

    /// Sets the diagnostic program name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Binds `label` to the position of the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (a builder bug in the
    /// kernel under construction).
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert!(
            self.bound[label.0].is_none(),
            "label L{} bound twice",
            label.0
        );
        self.bound[label.0] = Some(self.insts.len());
        self
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, inst: Instruction) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Current instruction count (the pc of the next emitted instruction).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    // ---- scalar helpers ----

    /// `rd = imm`.
    pub fn mov_imm(&mut self, rd: XReg, imm: i64) -> &mut Self {
        self.inst(Instruction::MovImm { rd, imm })
    }

    /// `rd = rn <op> rm`.
    pub fn alu_rr(&mut self, op: SAluOp, rd: XReg, rn: XReg, rm: XReg) -> &mut Self {
        self.inst(Instruction::AluRR { op, rd, rn, rm })
    }

    /// `rd = rn <op> imm`.
    pub fn alu_ri(&mut self, op: SAluOp, rd: XReg, rn: XReg, imm: i64) -> &mut Self {
        self.inst(Instruction::AluRI { op, rd, rn, imm })
    }

    /// Scalar load.
    pub fn load(&mut self, rd: XReg, rn: XReg, offset: i64, size: MemSize) -> &mut Self {
        self.inst(Instruction::Load {
            rd,
            rn,
            offset,
            size,
        })
    }

    /// Scalar store.
    pub fn store(&mut self, rs: XReg, rn: XReg, offset: i64, size: MemSize) -> &mut Self {
        self.inst(Instruction::Store {
            rs,
            rn,
            offset,
            size,
        })
    }

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: BranchCond, rn: XReg, rm: XReg, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.inst(Instruction::Branch {
            cond,
            rn,
            rm,
            target: usize::MAX,
        })
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.inst(Instruction::Jump { target: usize::MAX })
    }

    /// Program end.
    pub fn halt(&mut self) -> &mut Self {
        self.inst(Instruction::Halt)
    }

    // ---- vector helpers ----

    /// Broadcast scalar.
    pub fn dup(&mut self, vd: VReg, rn: XReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::Dup { vd, rn, esize })
    }

    /// Broadcast immediate.
    pub fn dup_imm(&mut self, vd: VReg, imm: i64, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::DupImm { vd, imm, esize })
    }

    /// Lane index vector.
    pub fn index(&mut self, vd: VReg, rn: XReg, step: i64, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::Index {
            vd,
            rn,
            step,
            esize,
        })
    }

    /// Predicated vector-vector ALU op.
    pub fn valu_vv(
        &mut self,
        op: VAluOp,
        vd: VReg,
        vn: VReg,
        vm: VReg,
        pg: PReg,
        esize: ElemSize,
    ) -> &mut Self {
        self.inst(Instruction::VAluVV {
            op,
            vd,
            vn,
            vm,
            pg,
            esize,
        })
    }

    /// Predicated vector-immediate ALU op.
    pub fn valu_vi(
        &mut self,
        op: VAluOp,
        vd: VReg,
        vn: VReg,
        imm: i64,
        pg: PReg,
        esize: ElemSize,
    ) -> &mut Self {
        self.inst(Instruction::VAluVI {
            op,
            vd,
            vn,
            imm,
            pg,
            esize,
        })
    }

    /// Vector compare into predicate.
    pub fn vcmp_vv(
        &mut self,
        cond: BranchCond,
        pd: PReg,
        vn: VReg,
        vm: VReg,
        pg: PReg,
        esize: ElemSize,
    ) -> &mut Self {
        self.inst(Instruction::VCmpVV {
            cond,
            pd,
            vn,
            vm,
            pg,
            esize,
        })
    }

    /// Vector-immediate compare into predicate.
    pub fn vcmp_vi(
        &mut self,
        cond: BranchCond,
        pd: PReg,
        vn: VReg,
        imm: i64,
        pg: PReg,
        esize: ElemSize,
    ) -> &mut Self {
        self.inst(Instruction::VCmpVI {
            cond,
            pd,
            vn,
            imm,
            pg,
            esize,
        })
    }

    /// Lane select.
    pub fn vsel(&mut self, vd: VReg, pg: PReg, vn: VReg, vm: VReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VSel {
            vd,
            pg,
            vn,
            vm,
            esize,
        })
    }

    /// Unit-stride load.
    pub fn vload(&mut self, vd: VReg, rn: XReg, pg: PReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VLoad { vd, rn, pg, esize })
    }

    /// Unit-stride narrow load (`msize`-byte elements widened to lanes).
    pub fn vload_n(
        &mut self,
        vd: VReg,
        rn: XReg,
        pg: PReg,
        esize: ElemSize,
        msize: MemSize,
    ) -> &mut Self {
        self.inst(Instruction::VLoadN {
            vd,
            rn,
            pg,
            esize,
            msize,
        })
    }

    /// Unit-stride store.
    pub fn vstore(&mut self, vs: VReg, rn: XReg, pg: PReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VStore { vs, rn, pg, esize })
    }

    /// Gather load (lane size `esize`, `msize` bytes read per lane).
    #[allow(clippy::too_many_arguments)] // mirrors the instruction's operands
    pub fn vgather(
        &mut self,
        vd: VReg,
        rn: XReg,
        idx: VReg,
        pg: PReg,
        esize: ElemSize,
        msize: MemSize,
        scale: u8,
    ) -> &mut Self {
        self.inst(Instruction::VGather {
            vd,
            rn,
            idx,
            pg,
            esize,
            msize,
            scale,
        })
    }

    /// Scatter store (lane size `esize`, `msize` bytes written per lane).
    #[allow(clippy::too_many_arguments)] // mirrors the instruction's operands
    pub fn vscatter(
        &mut self,
        vs: VReg,
        rn: XReg,
        idx: VReg,
        pg: PReg,
        esize: ElemSize,
        msize: MemSize,
        scale: u8,
    ) -> &mut Self {
        self.inst(Instruction::VScatter {
            vs,
            rn,
            idx,
            pg,
            esize,
            msize,
            scale,
        })
    }

    /// Horizontal reduction.
    pub fn vreduce(
        &mut self,
        op: RedOp,
        rd: XReg,
        vn: VReg,
        pg: PReg,
        esize: ElemSize,
    ) -> &mut Self {
        self.inst(Instruction::VReduce {
            op,
            rd,
            vn,
            pg,
            esize,
        })
    }

    /// Extract lane to scalar.
    pub fn vextract(&mut self, rd: XReg, vn: VReg, lane: u8, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VExtract {
            rd,
            vn,
            lane,
            esize,
        })
    }

    /// Insert scalar into lane.
    pub fn vinsert(&mut self, vd: VReg, rn: XReg, lane: u8, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VInsert {
            vd,
            rn,
            lane,
            esize,
        })
    }

    /// Slide lanes toward lane 0.
    pub fn vslidedown(&mut self, vd: VReg, vn: VReg, amount: u8, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VSlideDown {
            vd,
            vn,
            amount,
            esize,
        })
    }

    /// Slide lanes up by one, inserting scalar at lane 0.
    pub fn vslide1up(&mut self, vd: VReg, vn: VReg, rn: XReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::VSlide1Up { vd, vn, rn, esize })
    }

    // ---- predicate helpers ----

    /// All lanes active.
    pub fn ptrue(&mut self, pd: PReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::PTrue { pd, esize })
    }

    /// First `rn` lanes active.
    pub fn pwhilelt(&mut self, pd: PReg, rn: XReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::PWhileLt { pd, rn, esize })
    }

    /// No lanes active.
    pub fn pfalse(&mut self, pd: PReg) -> &mut Self {
        self.inst(Instruction::PFalse { pd })
    }

    /// Predicate and.
    pub fn pand(&mut self, pd: PReg, pn: PReg, pm: PReg) -> &mut Self {
        self.inst(Instruction::PAnd { pd, pn, pm })
    }

    /// Predicate or.
    pub fn por(&mut self, pd: PReg, pn: PReg, pm: PReg) -> &mut Self {
        self.inst(Instruction::POr { pd, pn, pm })
    }

    /// Predicate bit-clear (`pd = pn & !pm`).
    pub fn pbic(&mut self, pd: PReg, pn: PReg, pm: PReg) -> &mut Self {
        self.inst(Instruction::PBic { pd, pn, pm })
    }

    /// Count active lanes.
    pub fn pcount(&mut self, rd: XReg, pn: PReg, esize: ElemSize) -> &mut Self {
        self.inst(Instruction::PCount { rd, pn, esize })
    }

    // ---- QUETZAL helpers ----

    /// `qzconf`.
    pub fn qzconf(&mut self, eb0: XReg, eb1: XReg, esiz: XReg) -> &mut Self {
        self.inst(Instruction::QzConf { eb0, eb1, esiz })
    }

    /// `qzencode`.
    pub fn qzencode(&mut self, sel: QBufSel, val: VReg, idx: XReg) -> &mut Self {
        self.inst(Instruction::QzEncode { sel, val, idx })
    }

    /// `qzstore`.
    pub fn qzstore(&mut self, val: VReg, idx: VReg, sel: QBufSel, pg: PReg) -> &mut Self {
        self.inst(Instruction::QzStore { val, idx, sel, pg })
    }

    /// `qzload`.
    pub fn qzload(&mut self, vd: VReg, idx: VReg, sel: QBufSel, pg: PReg) -> &mut Self {
        self.inst(Instruction::QzLoad { vd, idx, sel, pg })
    }

    /// `qzmhm<op>`.
    pub fn qzmhm(&mut self, op: QzOp, vd: VReg, idx0: VReg, idx1: VReg, pg: PReg) -> &mut Self {
        self.inst(Instruction::QzMhm {
            op,
            vd,
            idx0,
            idx1,
            pg,
        })
    }

    /// `qzmm<op>`.
    pub fn qzmm(
        &mut self,
        op: QzOp,
        vd: VReg,
        val: VReg,
        idx: VReg,
        sel: QBufSel,
        pg: PReg,
    ) -> &mut Self {
        self.inst(Instruction::QzMm {
            op,
            vd,
            val,
            idx,
            sel,
            pg,
        })
    }

    /// Standalone `qzcount`.
    pub fn qzcount(&mut self, vd: VReg, vn: VReg, vm: VReg) -> &mut Self {
        self.inst(Instruction::QzCount { vd, vn, vm })
    }

    /// Read-modify-write `qzupdate<op>` (histogram extension).
    pub fn qzupdate(
        &mut self,
        op: QzOp,
        val: VReg,
        idx: VReg,
        sel: QBufSel,
        pg: PReg,
    ) -> &mut Self {
        self.inst(Instruction::QzUpdate {
            op,
            val,
            idx,
            sel,
            pg,
        })
    }

    /// Resolves labels and finalises the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on unbound labels or a missing trailing
    /// `halt`.
    pub fn build(&mut self) -> Result<Program, BuildError> {
        let mut insts = self.insts.clone();
        for &(site, label) in &self.fixups {
            let target = self.bound[label.0].ok_or(BuildError::UnboundLabel { label })?;
            match &mut insts[site] {
                Instruction::Branch { target: t, .. } | Instruction::Jump { target: t } => {
                    *t = target
                }
                other => unreachable!("fixup on non-branch instruction {other}"),
            }
        }
        if !insts.iter().any(|i| matches!(i, Instruction::Halt)) {
            return Err(BuildError::MissingHalt);
        }
        // The shared decode validation: label resolution guarantees
        // targets <= len, but a label bound after the last instruction
        // still yields target == len — a decode fault when taken.
        if let Some(&fault) = image_faults(&insts).first() {
            return Err(BuildError::BadImage { fault });
        }
        let program = Program {
            insts,
            name: self.name.clone(),
            id: NEXT_PROGRAM_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        notify_observer(&program);
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::aliases::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let done = b.label();
        b.mov_imm(X0, 0);
        b.bind(top);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.mov_imm(X1, 10);
        b.branch(BranchCond::Ge, X0, X1, done); // forward
        b.jump(top); // backward
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(3) {
            Instruction::Branch { target, .. } => assert_eq!(target, 5),
            other => panic!("expected branch, got {other}"),
        }
        match p.fetch(4) {
            Instruction::Jump { target } => assert_eq!(target, 1),
            other => panic!("expected jump, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l).halt();
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel { .. })));
    }

    #[test]
    fn missing_halt_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1);
        assert_eq!(b.build(), Err(BuildError::MissingHalt));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn disassembly_lists_all_instructions() {
        let mut b = ProgramBuilder::new();
        b.name("demo");
        b.mov_imm(X0, 5).dup(V0, X0, ElemSize::B64).halt();
        let p = b.build().unwrap();
        let d = p.disassemble();
        assert!(d.contains("demo"));
        assert!(d.contains("mov x0, #5"));
        assert!(d.contains("halt"));
        assert_eq!(d.lines().count(), 4);
    }

    #[test]
    fn here_tracks_position() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.here(), 0);
        b.mov_imm(X0, 1);
        assert_eq!(b.here(), 1);
    }
}
