//! Simulated WFA kernels — the paper's use case 1.
//!
//! The *entire* edit-distance WFA loop (extend phase, termination check,
//! next-wavefront computation) is emitted as one ISA program and
//! executed on the simulated core, at each of the four [`Tier`]s:
//!
//! * `Base` — everything scalar (the autovectorised-baseline stand-in);
//! * `Vec` — the paper's Fig. 2a shape: diagonals across vector lanes,
//!   per-character `gather` loads of both sequences in the extend inner
//!   loop (the memory-indexed bottleneck of §II-G);
//! * `Quetzal` — sequences live in the QBUFFERs; the inner loop reads
//!   characters with 2-cycle `qzload`s instead of ≈20-cycle gathers;
//! * `QuetzalC` — the Fig. 6a shape: one `qzmhm<qzcount>` consumes up to
//!   a whole 64-bit segment (32 bases) per lane per iteration.
//!
//! The wavefront arrays stay in regular memory for every tier (as in the
//! paper: QBUFFERs hold the *input sequences*), so the `next` phase is
//! identical unit-stride vector code in `Vec`/`Quetzal`/`QuetzalC`.

use crate::common::{
    emit_compiled_overhead, emit_qz_stage_pair, stage_bytes, SimOutcome, Tier, OFFSET_REACHABLE,
    OFFSET_SENTINEL,
};
use quetzal::isa::*;
use quetzal::uarch::{RunStats, SimError};
use quetzal::{Machine, Probe};
use quetzal_genomics::distance::myers_distance;
use quetzal_genomics::Alphabet;

/// Failure marker returned when the score cap is exceeded (cannot occur
/// when the cap is sized from the true distance).
const FAILED: u64 = u64::MAX;

/// Sequence encoding selector for the QUETZAL tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeqEnc {
    /// `qzconf` Esiz field (0 = 2-bit, 1 = 8-bit).
    pub esiz_field: i64,
    /// Mask isolating one element of a `qzload` segment.
    pub char_mask: i64,
    /// Elements per 64-bit segment (count-ALU full-segment value).
    pub seg_full: i64,
}

impl SeqEnc {
    pub(crate) fn for_alphabet(alphabet: Alphabet) -> SeqEnc {
        match alphabet {
            Alphabet::Dna | Alphabet::Rna => SeqEnc {
                esiz_field: 0,
                char_mask: 0b11,
                seg_full: 32,
            },
            Alphabet::Protein => SeqEnc {
                esiz_field: 1,
                char_mask: 0xFF,
                seg_full: 8,
            },
        }
    }
}

/// Execution mode of the WFA kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelMode {
    /// Full alignment: every wavefront kept in an arena for traceback
    /// (O(d²) memory, like the paper's WFA implementation).
    Full,
    /// Bounded search used by BiWFA: two ping-pong wavefront buffers
    /// (O(d) memory); stops and reports the current score once it
    /// exceeds the bound, without traceback.
    Bounded(i64),
}

/// Addresses and bounds handed to the kernel builder.
#[derive(Debug, Clone, Copy)]
struct WfaArgs {
    pa: u64,
    ta: u64,
    plen: usize,
    tlen: usize,
    /// Mid (k = 0) address of wavefront 0 in the arena. Wavefront `s`
    /// lives at `arena_mid + s * stride_bytes`: like the real WFA, every
    /// score's front is kept for traceback, which is what makes the
    /// working set O(d²) and long reads cache-bound (§II-G, Fig. 4).
    arena_mid: u64,
    /// Byte distance between consecutive wavefronts.
    stride_bytes: i64,
    result: u64,
    smax: i64,
    enc: SeqEnc,
    mode: KernelMode,
}

/// Emits the tier-specific extend inner-loop body. On entry, `P5` holds
/// the active lanes (reachable, in bounds), `V0` the text offsets `h`,
/// `V2` the pattern offsets `v`, `V3`/`V4` the PLEN/TLEN splats. The
/// body must advance `V0`/`V2` for matching lanes and leave the
/// still-matching lanes in `P2`.
fn emit_extend_body(b: &mut ProgramBuilder, tier: Tier, args: &WfaArgs) {
    match tier {
        Tier::Base => unreachable!("base tier uses the scalar skeleton"),
        Tier::Vec => {
            // Per-character gathers from both sequences (Fig. 2a).
            b.vgather(V5, X0, V2, P5, ElemSize::B64, MemSize::B1, 1);
            b.vgather(V6, X1, V0, P5, ElemSize::B64, MemSize::B1, 1);
            b.vcmp_vv(BranchCond::Eq, P6, V5, V6, P5, ElemSize::B64);
            b.valu_vi(VAluOp::Add, V0, V0, 1, P6, ElemSize::B64);
            b.valu_vi(VAluOp::Add, V2, V2, 1, P6, ElemSize::B64);
            b.por(P2, P6, P6);
        }
        Tier::Quetzal => {
            // Character reads served by the QBUFFERs (2 cycles instead
            // of ~20), still one character per lane per iteration.
            b.qzload(V5, V2, QBufSel::Q0, P5);
            b.qzload(V6, V0, QBufSel::Q1, P5);
            b.valu_vi(VAluOp::And, V5, V5, args.enc.char_mask, P5, ElemSize::B64);
            b.valu_vi(VAluOp::And, V6, V6, args.enc.char_mask, P5, ElemSize::B64);
            b.vcmp_vv(BranchCond::Eq, P6, V5, V6, P5, ElemSize::B64);
            b.valu_vi(VAluOp::Add, V0, V0, 1, P6, ElemSize::B64);
            b.valu_vi(VAluOp::Add, V2, V2, 1, P6, ElemSize::B64);
            b.por(P2, P6, P6);
        }
        Tier::QuetzalC => {
            // One qzmhm<qzcount> consumes up to a whole segment
            // (32 bases / 8 protein chars) per lane (Fig. 6a).
            b.qzmhm(QzOp::Count, V7, V2, V0, P5);
            // Clamp the count so zero-padding beyond the sequence ends
            // cannot produce spurious matches.
            b.valu_vv(VAluOp::Sub, V8, V3, V2, P5, ElemSize::B64); // PLEN - v
            b.valu_vv(VAluOp::Sub, V9, V4, V0, P5, ElemSize::B64); // TLEN - h
            b.valu_vv(VAluOp::Smin, V7, V7, V8, P5, ElemSize::B64);
            b.valu_vv(VAluOp::Smin, V7, V7, V9, P5, ElemSize::B64);
            b.valu_vv(VAluOp::Add, V0, V0, V7, P5, ElemSize::B64);
            b.valu_vv(VAluOp::Add, V2, V2, V7, P5, ElemSize::B64);
            // A lane continues only if it matched a full segment.
            b.vcmp_vi(BranchCond::Eq, P6, V7, args.enc.seg_full, P5, ElemSize::B64);
            b.por(P2, P6, P6);
        }
    }
}

/// Builds the vectorised WFA program (`Vec`, `Quetzal`, `QuetzalC`).
fn build_vector_program(tier: Tier, args: &WfaArgs) -> Program {
    let mut b = ProgramBuilder::new();
    b.name(format!("wfa-{tier}"));

    if tier.uses_quetzal() {
        emit_qz_stage_pair(
            &mut b,
            args.pa,
            args.plen,
            args.ta,
            args.tlen,
            args.enc.esiz_field,
        );
    }

    // x0 PA, x1 TA, x2 PLEN, x3 TLEN, x4 WA_mid, x5 WB_mid, x6 s,
    // x7 lo, x8 hi, x9 kfin, x10 result, x11 k, x12 addr, x13-x15 tmps,
    // x16 smax, x21 zero.
    b.mov_imm(X0, args.pa as i64);
    b.mov_imm(X1, args.ta as i64);
    b.mov_imm(X2, args.plen as i64);
    b.mov_imm(X3, args.tlen as i64);
    b.mov_imm(X4, args.arena_mid as i64);
    b.mov_imm(X5, args.arena_mid as i64 + args.stride_bytes);
    b.mov_imm(X6, 0);
    b.mov_imm(X7, 0);
    b.mov_imm(X8, 0);
    b.mov_imm(X9, args.tlen as i64 - args.plen as i64);
    b.mov_imm(X10, args.result as i64);
    b.mov_imm(X16, args.smax);
    b.mov_imm(X21, 0);

    let extend_phase = b.label();
    let extend_k_loop = b.label();
    let inner_loop = b.label();
    let extend_done = b.label();
    let check_phase = b.label();
    let next_pre = b.label();
    let next_phase = b.label();
    let next_k_loop = b.label();
    let swap = b.label();
    let fail = b.label();

    // ---- extend phase ----
    b.bind(extend_phase);
    b.alu_ri(SAluOp::Add, X11, X7, 0); // k = lo
    b.bind(extend_k_loop);
    b.branch(BranchCond::Gt, X11, X8, check_phase);
    b.alu_rr(SAluOp::Sub, X13, X8, X11);
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.pwhilelt(P1, X13, ElemSize::B64);
    b.alu_ri(SAluOp::Shl, X12, X11, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.vload(V0, X12, P1, ElemSize::B64); // h
    b.index(V1, X11, 1, ElemSize::B64); // k
    b.vcmp_vi(BranchCond::Gt, P2, V0, OFFSET_REACHABLE, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Sub, V2, V0, V1, P1, ElemSize::B64); // v = h - k
    b.dup(V3, X2, ElemSize::B64);
    b.dup(V4, X3, ElemSize::B64);
    b.bind(inner_loop);
    b.vcmp_vv(BranchCond::Lt, P4, V2, V3, P2, ElemSize::B64); // v < PLEN
    b.vcmp_vv(BranchCond::Lt, P5, V0, V4, P4, ElemSize::B64); // h < TLEN
    b.pcount(X13, P5, ElemSize::B64);
    b.branch(BranchCond::Eq, X13, X21, extend_done);
    emit_extend_body(&mut b, tier, args);
    b.jump(inner_loop);
    b.bind(extend_done);
    b.vstore(V0, X12, P1, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X11, X11, 8);
    b.jump(extend_k_loop);

    // ---- termination check ----
    b.bind(check_phase);
    b.branch(BranchCond::Lt, X9, X7, next_pre);
    b.branch(BranchCond::Gt, X9, X8, next_pre);
    b.alu_ri(SAluOp::Shl, X12, X9, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.load(X13, X12, 0, MemSize::B8);
    b.branch(BranchCond::Lt, X13, X3, next_pre);
    b.store(X6, X10, 0, MemSize::B8);
    if args.mode == KernelMode::Full {
        emit_traceback(&mut b, args);
    } else {
        b.halt();
    }

    b.bind(next_pre);
    b.branch(BranchCond::Lt, X6, X16, next_phase);
    b.bind(fail);
    if let KernelMode::Bounded(_) = args.mode {
        // Bound reached: report the score searched so far.
        b.store(X6, X10, 0, MemSize::B8);
    } else {
        b.mov_imm(X13, -1);
        b.store(X13, X10, 0, MemSize::B8);
    }
    b.halt();

    // ---- next-wavefront phase ----
    b.bind(next_phase);
    b.alu_ri(SAluOp::Add, X6, X6, 1);
    b.alu_ri(SAluOp::Sub, X7, X7, 1);
    b.alu_ri(SAluOp::Add, X8, X8, 1);
    b.alu_ri(SAluOp::Add, X11, X7, 0);
    b.dup(V3, X2, ElemSize::B64);
    b.dup(V4, X3, ElemSize::B64);
    b.dup_imm(V10, OFFSET_SENTINEL, ElemSize::B64);
    b.bind(next_k_loop);
    b.branch(BranchCond::Gt, X11, X8, swap);
    b.alu_rr(SAluOp::Sub, X13, X8, X11);
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.pwhilelt(P1, X13, ElemSize::B64);
    b.alu_ri(SAluOp::Shl, X12, X11, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.alu_ri(SAluOp::Add, X13, X12, -8);
    b.alu_ri(SAluOp::Add, X14, X12, 8);
    b.vload(V5, X13, P1, ElemSize::B64); // WF[k-1]
    b.vload(V6, X12, P1, ElemSize::B64); // WF[k]
    b.vload(V7, X14, P1, ElemSize::B64); // WF[k+1]
    b.valu_vi(VAluOp::Add, V5, V5, 1, P1, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V6, V6, 1, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smax, V5, V5, V6, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smax, V5, V5, V7, P1, ElemSize::B64);
    // Validity: 0 <= best <= TLEN and 0 <= best - k <= PLEN.
    b.index(V1, X11, 1, ElemSize::B64);
    b.valu_vv(VAluOp::Sub, V8, V5, V1, P1, ElemSize::B64); // v
    b.vcmp_vi(BranchCond::Ge, P4, V8, 0, P1, ElemSize::B64);
    b.vcmp_vv(BranchCond::Le, P5, V8, V3, P4, ElemSize::B64);
    b.vcmp_vv(BranchCond::Le, P6, V5, V4, P5, ElemSize::B64);
    b.vcmp_vi(BranchCond::Ge, P6, V5, 0, P6, ElemSize::B64);
    b.vsel(V5, P6, V5, V10, ElemSize::B64);
    b.alu_ri(SAluOp::Shl, X13, X11, 3);
    b.alu_rr(SAluOp::Add, X13, X5, X13);
    b.vstore(V5, X13, P1, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X11, X11, 8);
    b.jump(next_k_loop);

    // ---- advance wavefront storage ----
    b.bind(swap);
    if args.mode == KernelMode::Full {
        // Arena: keep every front for traceback.
        b.alu_ri(SAluOp::Add, X4, X5, 0);
        b.alu_ri(SAluOp::Add, X5, X5, args.stride_bytes);
    } else {
        // Ping-pong the two buffers (O(d) memory).
        b.alu_ri(SAluOp::Add, X13, X4, 0);
        b.alu_ri(SAluOp::Add, X4, X5, 0);
        b.alu_ri(SAluOp::Add, X5, X13, 0);
    }
    b.jump(extend_phase);

    b.build().expect("wfa kernel builds")
}

/// Emits the traceback walk (paper §V-B: traceback time is included in
/// every experiment). Starting from the final wavefront at `x4` with
/// score `x6` and diagonal `x9`, re-traces predecessors through the
/// stored fronts — three scalar loads per score, identical for every
/// tier — and stores a checksum next to the score. Ends in `halt`.
fn emit_traceback(b: &mut ProgramBuilder, args: &WfaArgs) {
    let tb_loop = b.label();
    let tb_done = b.label();
    let k_same = b.label();
    let step_done = b.label();
    b.mov_imm(X21, 0);
    b.alu_ri(SAluOp::Add, X15, X9, 0); // k
    b.mov_imm(X17, 0); // checksum
    b.bind(tb_loop);
    b.branch(BranchCond::Le, X6, X21, tb_done);
    b.alu_ri(SAluOp::Add, X4, X4, -args.stride_bytes);
    b.alu_ri(SAluOp::Sub, X6, X6, 1);
    b.alu_ri(SAluOp::Shl, X12, X15, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.load(X13, X12, -8, MemSize::B8); // prev[k-1]
    b.load(X14, X12, 0, MemSize::B8); // prev[k]
    b.load(X18, X12, 8, MemSize::B8); // prev[k+1]
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.alu_ri(SAluOp::Add, X14, X14, 1);
    b.alu_rr(SAluOp::Max, X19, X13, X14);
    b.alu_rr(SAluOp::Max, X19, X19, X18);
    b.alu_rr(SAluOp::Add, X17, X17, X19);
    // Direction: insertion (k+1 path) keeps h; deletion moves k-1.
    b.branch(BranchCond::Eq, X19, X18, k_same);
    b.branch(BranchCond::Eq, X19, X14, step_done);
    b.alu_ri(SAluOp::Sub, X15, X15, 1);
    b.jump(step_done);
    b.bind(k_same);
    b.alu_ri(SAluOp::Add, X15, X15, 1);
    b.bind(step_done);
    b.jump(tb_loop);
    b.bind(tb_done);
    b.store(X17, X10, 8, MemSize::B8);
    b.halt();
}

/// Builds the all-scalar baseline program.
fn build_base_program(args: &WfaArgs) -> Program {
    let mut b = ProgramBuilder::new();
    b.name("wfa-BASE");
    b.mov_imm(X0, args.pa as i64);
    b.mov_imm(X1, args.ta as i64);
    b.mov_imm(X2, args.plen as i64);
    b.mov_imm(X3, args.tlen as i64);
    b.mov_imm(X4, args.arena_mid as i64);
    b.mov_imm(X5, args.arena_mid as i64 + args.stride_bytes);
    b.mov_imm(X6, 0);
    b.mov_imm(X7, 0);
    b.mov_imm(X8, 0);
    b.mov_imm(X9, args.tlen as i64 - args.plen as i64);
    b.mov_imm(X10, args.result as i64);
    b.mov_imm(X16, args.smax);
    b.mov_imm(X20, OFFSET_REACHABLE);

    let extend_phase = b.label();
    let extend_k_loop = b.label();
    let extend_k_next = b.label();
    let inner_loop = b.label();
    let inner_done = b.label();
    let check_phase = b.label();
    let next_pre = b.label();
    let next_phase = b.label();
    let next_k_loop = b.label();
    let k_invalid = b.label();
    let k_store = b.label();
    let swap = b.label();

    // ---- extend (scalar) ----
    b.bind(extend_phase);
    b.alu_ri(SAluOp::Add, X11, X7, 0); // k = lo
    b.bind(extend_k_loop);
    b.branch(BranchCond::Gt, X11, X8, check_phase);
    b.alu_ri(SAluOp::Shl, X12, X11, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.load(X13, X12, 0, MemSize::B8); // h
    b.branch(BranchCond::Lt, X13, X20, extend_k_next); // unreachable
    b.alu_rr(SAluOp::Sub, X14, X13, X11); // v = h - k
    b.bind(inner_loop);
    b.branch(BranchCond::Ge, X14, X2, inner_done); // v >= PLEN
    b.branch(BranchCond::Ge, X13, X3, inner_done); // h >= TLEN
    b.alu_rr(SAluOp::Add, X15, X0, X14);
    b.load(X17, X15, 0, MemSize::B1); // P[v]
    b.alu_rr(SAluOp::Add, X15, X1, X13);
    b.load(X18, X15, 0, MemSize::B1); // T[h]
    b.branch(BranchCond::Ne, X17, X18, inner_done);
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.alu_ri(SAluOp::Add, X14, X14, 1);
    emit_compiled_overhead(&mut b, 6);
    b.jump(inner_loop);
    b.bind(inner_done);
    b.store(X13, X12, 0, MemSize::B8);
    b.bind(extend_k_next);
    b.alu_ri(SAluOp::Add, X11, X11, 1);
    b.jump(extend_k_loop);

    // ---- check ----
    b.bind(check_phase);
    b.branch(BranchCond::Lt, X9, X7, next_pre);
    b.branch(BranchCond::Gt, X9, X8, next_pre);
    b.alu_ri(SAluOp::Shl, X12, X9, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.load(X13, X12, 0, MemSize::B8);
    b.branch(BranchCond::Lt, X13, X3, next_pre);
    b.store(X6, X10, 0, MemSize::B8);
    if args.mode == KernelMode::Full {
        emit_traceback(&mut b, args);
    } else {
        b.halt();
    }
    b.bind(next_pre);
    b.branch(BranchCond::Lt, X6, X16, next_phase);
    if let KernelMode::Bounded(_) = args.mode {
        b.store(X6, X10, 0, MemSize::B8);
    } else {
        b.mov_imm(X13, -1);
        b.store(X13, X10, 0, MemSize::B8);
    }
    b.halt();

    // ---- next (scalar) ----
    b.bind(next_phase);
    b.alu_ri(SAluOp::Add, X6, X6, 1);
    b.alu_ri(SAluOp::Sub, X7, X7, 1);
    b.alu_ri(SAluOp::Add, X8, X8, 1);
    b.alu_ri(SAluOp::Add, X11, X7, 0);
    b.bind(next_k_loop);
    b.branch(BranchCond::Gt, X11, X8, swap);
    b.alu_ri(SAluOp::Shl, X12, X11, 3);
    b.alu_rr(SAluOp::Add, X12, X4, X12);
    b.load(X13, X12, -8, MemSize::B8); // WF[k-1]
    b.load(X14, X12, 0, MemSize::B8); // WF[k]
    b.load(X15, X12, 8, MemSize::B8); // WF[k+1]
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.alu_ri(SAluOp::Add, X14, X14, 1);
    b.alu_rr(SAluOp::Max, X13, X13, X14);
    b.alu_rr(SAluOp::Max, X13, X13, X15);
    // Validity: 0 <= best <= TLEN, 0 <= best - k <= PLEN.
    b.mov_imm(X18, 0);
    b.branch(BranchCond::Lt, X13, X18, k_invalid);
    b.branch(BranchCond::Gt, X13, X3, k_invalid);
    b.alu_rr(SAluOp::Sub, X17, X13, X11);
    b.branch(BranchCond::Lt, X17, X18, k_invalid);
    b.branch(BranchCond::Gt, X17, X2, k_invalid);
    emit_compiled_overhead(&mut b, 2);
    b.jump(k_store);
    b.bind(k_invalid);
    b.mov_imm(X13, OFFSET_SENTINEL);
    b.bind(k_store);
    b.alu_ri(SAluOp::Shl, X14, X11, 3);
    b.alu_rr(SAluOp::Add, X14, X5, X14);
    b.store(X13, X14, 0, MemSize::B8);
    b.alu_ri(SAluOp::Add, X11, X11, 1);
    b.jump(next_k_loop);

    b.bind(swap);
    if args.mode == KernelMode::Full {
        b.alu_ri(SAluOp::Add, X4, X5, 0);
        b.alu_ri(SAluOp::Add, X5, X5, args.stride_bytes);
    } else {
        b.alu_ri(SAluOp::Add, X13, X4, 0);
        b.alu_ri(SAluOp::Add, X4, X5, 0);
        b.alu_ri(SAluOp::Add, X5, X13, 0);
    }
    b.jump(extend_phase);

    b.build().expect("wfa base kernel builds")
}

/// Runs the full WFA edit-distance alignment of one pair on the
/// simulated machine at the given tier. Returns the score and the
/// accumulated timing statistics.
///
/// # Errors
///
/// Returns [`SimError`] if the simulation fails.
///
/// # Panics
///
/// Panics if the kernel exceeds its score cap — a driver bug, since the
/// cap is sized from the true distance.
pub fn wfa_sim<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    alphabet: Alphabet,
    tier: Tier,
) -> Result<SimOutcome, SimError> {
    wfa_sim_with_mode(machine, pattern, text, alphabet, tier, KernelMode::Full)
}

/// Bounded ping-pong WFA search (no traceback): advances wavefronts
/// until alignment completes or the score bound is hit, reporting the
/// score searched. Used by the BiWFA driver for its bidirectional
/// split search.
///
/// # Errors
///
/// Returns [`SimError`] if the simulation fails.
pub fn wfa_sim_bounded<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    alphabet: Alphabet,
    tier: Tier,
    bound: i64,
) -> Result<SimOutcome, SimError> {
    wfa_sim_with_mode(
        machine,
        pattern,
        text,
        alphabet,
        tier,
        KernelMode::Bounded(bound),
    )
}

fn wfa_sim_with_mode<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    alphabet: Alphabet,
    tier: Tier,
    mode: KernelMode,
) -> Result<SimOutcome, SimError> {
    // Size the wavefront arrays from the true distance (the role a
    // host-side `malloc` growth loop would play in a real
    // implementation; not timing-relevant).
    let d = match mode {
        KernelMode::Full => myers_distance(pattern, text) as i64,
        KernelMode::Bounded(b) => b,
    };
    let smax = d + 4;
    let entries = 2 * (smax + 6) as u64 + 16;
    let stride_bytes = 8 * entries as i64;

    let pa = stage_bytes(machine, pattern);
    let ta = stage_bytes(machine, text);
    // Full mode: one wavefront per score, all kept for traceback
    // (O(d²) memory, like the paper's WFA). Bounded mode: two ping-pong
    // buffers (O(d) memory, like BiWFA's search phase).
    let fronts = match mode {
        KernelMode::Full => smax as u64 + 2,
        KernelMode::Bounded(_) => 2,
    };
    let arena = machine.alloc(8 * entries * fronts);
    let result = machine.alloc(16);
    let mid = (smax + 6) as u64;
    let arena_mid = arena + 8 * mid;
    // Host-side initialisation (the memset a real allocation would do).
    match mode {
        KernelMode::Full => {
            // Only the two sentinel border slots of each front are ever
            // read outside its written range.
            for s in 0..=(smax + 1) {
                let front_mid = arena_mid as i64 + s * stride_bytes;
                for border in [s + 1, s + 2] {
                    machine.write_u64((front_mid + 8 * border) as u64, OFFSET_SENTINEL as u64);
                    machine.write_u64((front_mid - 8 * border) as u64, OFFSET_SENTINEL as u64);
                }
            }
        }
        KernelMode::Bounded(_) => {
            // Ping-pong buffers are reused for every score, so both are
            // fully sentinel-initialised.
            for f in 0..2u64 {
                for i in 0..entries {
                    machine.write_u64(arena + 8 * (f * entries + i), OFFSET_SENTINEL as u64);
                }
            }
        }
    }
    machine.write_u64(arena_mid, 0); // WF[0][0] = 0 (pre-extension)

    let args = WfaArgs {
        pa,
        ta,
        plen: pattern.len(),
        tlen: text.len(),
        arena_mid,
        stride_bytes,
        result,
        smax: match mode {
            KernelMode::Full => smax,
            KernelMode::Bounded(b) => b,
        },
        enc: SeqEnc::for_alphabet(alphabet),
        mode,
    };
    let program = match tier {
        Tier::Base => build_base_program(&args),
        _ => build_vector_program(tier, &args),
    };
    let stats: RunStats = machine.run(&program)?;
    let score = machine.read_u64(result);
    assert_ne!(score, FAILED, "wfa kernel exceeded its score cap");
    Ok(SimOutcome {
        value: score as i64,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wfa::wfa_edit_align;
    use quetzal::MachineConfig;
    use quetzal_genomics::dataset::DatasetSpec;

    fn check_pair(pattern: &[u8], text: &[u8], alphabet: Alphabet) {
        let want = wfa_edit_align(pattern, text).score as i64;
        for tier in Tier::all() {
            let mut m = Machine::new(MachineConfig::default());
            let out = wfa_sim(&mut m, pattern, text, alphabet, tier).unwrap();
            assert_eq!(
                out.value,
                want,
                "{tier} on {:?}",
                &pattern[..pattern.len().min(12)]
            );
            assert!(out.stats.cycles > 0);
        }
    }

    #[test]
    fn all_tiers_match_reference_tiny() {
        check_pair(b"ACAG", b"AAGT", Alphabet::Dna);
    }

    #[test]
    fn all_tiers_match_reference_identical() {
        check_pair(b"ACGTACGTACGT", b"ACGTACGTACGT", Alphabet::Dna);
    }

    #[test]
    fn all_tiers_match_reference_dataset_pairs() {
        for pair in DatasetSpec::d100().generate_n(11, 3) {
            check_pair(pair.pattern.as_bytes(), pair.text.as_bytes(), Alphabet::Dna);
        }
    }

    #[test]
    fn all_tiers_match_reference_protein() {
        for pair in DatasetSpec::protein().generate_n(5, 1) {
            // Trim for test speed; protein pairs are highly divergent.
            let p = &pair.pattern.as_bytes()[..120];
            let t = &pair.text.as_bytes()[..120];
            check_pair(p, t, Alphabet::Protein);
        }
    }

    #[test]
    fn all_tiers_handle_length_difference() {
        check_pair(b"ACGTACGTAC", b"ACGT", Alphabet::Dna);
        check_pair(b"ACGT", b"ACGTACGTAC", Alphabet::Dna);
    }

    #[test]
    fn quetzal_c_beats_vec_beats_base() {
        let pair = &DatasetSpec::d250().generate_n(3, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let mut cycles = std::collections::HashMap::new();
        for tier in Tier::all() {
            let mut m = Machine::new(MachineConfig::default());
            let out = wfa_sim(&mut m, p, t, Alphabet::Dna, tier).unwrap();
            cycles.insert(tier, out.stats.cycles);
        }
        assert!(
            cycles[&Tier::QuetzalC] < cycles[&Tier::Vec],
            "QUETZAL+C {} must beat VEC {}",
            cycles[&Tier::QuetzalC],
            cycles[&Tier::Vec]
        );
        assert!(
            cycles[&Tier::Quetzal] < cycles[&Tier::Vec],
            "QUETZAL {} must beat VEC {}",
            cycles[&Tier::Quetzal],
            cycles[&Tier::Vec]
        );
    }

    #[test]
    fn vec_reduces_to_fewer_mem_requests_with_quetzal() {
        let pair = &DatasetSpec::d100().generate_n(9, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let mut m1 = Machine::new(MachineConfig::default());
        let vec_out = wfa_sim(&mut m1, p, t, Alphabet::Dna, Tier::Vec).unwrap();
        let mut m2 = Machine::new(MachineConfig::default());
        let qz_out = wfa_sim(&mut m2, p, t, Alphabet::Dna, Tier::QuetzalC).unwrap();
        assert!(
            qz_out.stats.mem_requests < vec_out.stats.mem_requests / 2,
            "QUETZAL must slash cache requests: {} vs {}",
            qz_out.stats.mem_requests,
            vec_out.stats.mem_requests
        );
    }
}
