//! Simulated classical-DP kernels (paper use case 3, §III-D / Fig. 7).
//!
//! Classical DP algorithms (Needleman-Wunsch, banded Smith-Waterman)
//! compute the table along *anti-diagonals*: every cell of diagonal `d`
//! depends only on diagonals `d-1` and `d-2`, so a diagonal is one
//! vector operation. The text is stored reversed so both character
//! streams are unit-stride.
//!
//! * `Vec` — three rolling diagonal arrays in memory: the new diagonal
//!   is computed from two unit-stride loads of `d-1`, one of `d-2`, and
//!   stored back (the store-load forwarding traffic of Fig. 7 ①②);
//! * `Quetzal` — the rolling diagonals and the widened input characters
//!   live in the QBUFFERs (64-bit elements) and are accessed with
//!   `qzload`/`qzstore` (Fig. 7 ③④). The gain is modest (the paper
//!   reports 1.3–1.4×) because the dependence chain between diagonals,
//!   not access latency, dominates.
//!
//! One builder serves both full-matrix NW and banded SW: the band is
//! just a constraint on each diagonal's cell range. Costs are the
//! linear-gap model (`mismatch` / `gap` costs); the ksw2-style affine
//! scalar reference lives in [`crate::swg`] (substitution documented in
//! DESIGN.md).

use crate::common::{emit_compiled_overhead, stage_bytes, stage_words, SimOutcome, Tier};
use quetzal::isa::*;
use quetzal::uarch::SimError;
use quetzal::{Machine, Probe};

/// Linear-gap DP costs (lower is better; match costs 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearCosts {
    /// Substitution cost.
    pub mismatch: i64,
    /// Per-symbol gap cost.
    pub gap: i64,
}

impl LinearCosts {
    /// Unit costs — the DP then computes the Levenshtein distance.
    pub const UNIT: LinearCosts = LinearCosts {
        mismatch: 1,
        gap: 1,
    };
}

/// `i64` infinity for DP cells outside the computed region.
pub const DP_INF: i64 = 1 << 40;

/// Scalar reference: banded (or full, when `band` ≥ max length)
/// linear-gap global alignment score over anti-diagonals — the exact
/// computation the simulated kernels perform.
///
/// Returns `None` when no alignment stays within the band. The DP and
/// SWG tests' oracle.
#[cfg(test)]
pub(crate) fn banded_linear_score(
    pattern: &[u8],
    text: &[u8],
    costs: LinearCosts,
    band: i64,
) -> Option<i64> {
    let plen = pattern.len();
    let tlen = text.len();
    let mut prev2 = vec![DP_INF; plen + 2];
    let mut prev1 = vec![DP_INF; plen + 2];
    let mut cur = vec![DP_INF; plen + 2];
    // Slot i+1 holds cell i, so i-1 is always addressable.
    prev1[1] = 0; // D[0][0] on diagonal 0
    for d in 1..=(plen + tlen) as i64 {
        cur.fill(DP_INF);
        // Boundary cells.
        if d <= tlen as i64 && d <= band {
            cur[1] = d * costs.gap; // i = 0
        }
        if d <= plen as i64 && d <= band {
            cur[(d + 1) as usize] = d * costs.gap; // j = 0
        }
        let mut ilo = 1.max(d - tlen as i64);
        let mut ihi = (plen as i64).min(d - 1);
        ilo = ilo.max((d - band + 1).div_euclid(2));
        ihi = ihi.min((d + band).div_euclid(2));
        for i in ilo..=ihi {
            let j = d - i;
            let sub = if pattern[(i - 1) as usize] == text[(j - 1) as usize] {
                0
            } else {
                costs.mismatch
            };
            let del = prev1[i as usize] + costs.gap; // from (i-1, j)
            let ins = prev1[(i + 1) as usize] + costs.gap; // from (i, j-1)
            let diag = prev2[i as usize] + sub; // from (i-1, j-1)
            cur[(i + 1) as usize] = del.min(ins).min(diag);
        }
        std::mem::swap(&mut prev2, &mut prev1);
        std::mem::swap(&mut prev1, &mut cur);
    }
    let score = prev1[plen + 1];
    (score < DP_INF / 2).then_some(score)
}

/// Arguments for the kernel builders.
#[derive(Debug, Clone, Copy)]
struct DpArgs {
    pa: u64,
    tra: u64, // reversed text
    plen: usize,
    tlen: usize,
    costs: LinearCosts,
    band: i64,
    result: u64,
    // Vec tier: three diagonal arrays ("i = 0" slot addresses).
    arr: [u64; 3],
    // Quetzal tier: size of one diagonal region inside QBUFFER 1 (in
    // 64-bit elements) and the address of the host-staged INF pool.
    region: i64,
    inf_addr: u64,
}

/// Emits `rd = max(of the scalar expressions already in rd, rn)`.
fn emit_band_range(b: &mut ProgramBuilder, args: &DpArgs) {
    // ilo (x10) = max(1, d - tlen, (d - band + 1) div 2)
    b.mov_imm(X10, 1);
    b.alu_ri(SAluOp::Sub, X13, X7, args.tlen as i64);
    b.alu_rr(SAluOp::Max, X10, X10, X13);
    b.alu_ri(SAluOp::Add, X13, X7, 1 - args.band);
    b.alu_ri(SAluOp::Sar, X13, X13, 1);
    b.alu_rr(SAluOp::Max, X10, X10, X13);
    // ihi (x11) = min(plen, d - 1, (d + band) div 2)
    b.mov_imm(X11, args.plen as i64);
    b.alu_ri(SAluOp::Add, X13, X7, -1);
    b.alu_rr(SAluOp::Min, X11, X11, X13);
    b.alu_ri(SAluOp::Add, X13, X7, args.band);
    b.alu_ri(SAluOp::Sar, X13, X13, 1);
    b.alu_rr(SAluOp::Min, X11, X11, X13);
}

/// Builds the memory-based vectorised kernel (`Vec` tier).
fn build_vec_program(args: &DpArgs) -> Program {
    let mut b = ProgramBuilder::new();
    b.name("dp-VEC");
    b.mov_imm(X0, args.pa as i64);
    b.mov_imm(X1, args.tra as i64);
    b.mov_imm(X2, args.plen as i64);
    b.mov_imm(X3, args.tlen as i64);
    b.mov_imm(X4, args.arr[0] as i64); // prev2
    b.mov_imm(X5, args.arr[1] as i64); // prev1
    b.mov_imm(X6, args.arr[2] as i64); // cur
    b.mov_imm(X7, 1); // d
    b.mov_imm(X8, (args.plen + args.tlen) as i64);
    b.mov_imm(X9, args.result as i64);
    b.mov_imm(X21, 0);
    b.mov_imm(X22, DP_INF);
    b.ptrue(P0, ElemSize::B64);

    let d_loop = b.label();
    let skip_b0 = b.label();
    let skip_bd = b.label();
    let v_loop = b.label();
    let v_done = b.label();
    let finish = b.label();

    b.bind(d_loop);
    b.branch(BranchCond::Gt, X7, X8, finish);
    emit_band_range(&mut b, args);
    // Border sentinels at cur[ilo-1] and cur[ihi+1].
    b.alu_ri(SAluOp::Shl, X13, X10, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X22, X13, -8, MemSize::B8);
    b.alu_ri(SAluOp::Shl, X13, X11, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X22, X13, 8, MemSize::B8);
    // Boundary cells: cur[0] = d*gap when d <= min(tlen, band);
    //                 cur[d] = d*gap when d <= min(plen, band).
    b.mov_imm(X14, args.tlen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_b0);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.store(X14, X6, 0, MemSize::B8);
    b.bind(skip_b0);
    b.mov_imm(X14, args.plen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_bd);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.alu_ri(SAluOp::Shl, X13, X7, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X14, X13, 0, MemSize::B8);
    b.bind(skip_bd);
    // Vector sweep over i in [ilo, ihi].
    b.alu_ri(SAluOp::Add, X12, X10, 0);
    b.bind(v_loop);
    b.branch(BranchCond::Gt, X12, X11, v_done);
    b.alu_rr(SAluOp::Sub, X13, X11, X12);
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.pwhilelt(P1, X13, ElemSize::B64);
    b.alu_ri(SAluOp::Shl, X17, X12, 3);
    // prev1[i-1] / prev1[i] / prev2[i-1].
    b.alu_rr(SAluOp::Add, X13, X5, X17);
    b.alu_ri(SAluOp::Add, X14, X13, -8);
    b.vload(V0, X14, P1, ElemSize::B64); // prev1[i-1] -> from (i-1, j) del
    b.vload(V1, X13, P1, ElemSize::B64); // prev1[i]   -> from (i, j-1) ins
    b.alu_rr(SAluOp::Add, X15, X4, X17);
    b.alu_ri(SAluOp::Add, X15, X15, -8);
    b.vload(V2, X15, P1, ElemSize::B64); // prev2[i-1] -> diagonal
                                         // Characters: P[i-1] and T[j-1] = TR[tlen - d + i].
    b.alu_rr(SAluOp::Add, X16, X0, X12);
    b.alu_ri(SAluOp::Add, X16, X16, -1);
    b.vload_n(V3, X16, P1, ElemSize::B64, MemSize::B1);
    b.alu_rr(SAluOp::Sub, X16, X3, X7);
    b.alu_rr(SAluOp::Add, X16, X16, X12);
    b.alu_rr(SAluOp::Add, X16, X16, X1);
    b.vload_n(V4, X16, P1, ElemSize::B64, MemSize::B1);
    // diag += mismatch where chars differ; gap terms.
    b.vcmp_vv(BranchCond::Ne, P3, V3, V4, P1, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V2, V2, args.costs.mismatch, P3, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V0, V0, args.costs.gap, P1, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V1, V1, args.costs.gap, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smin, V0, V0, V1, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smin, V0, V0, V2, P1, ElemSize::B64);
    b.alu_rr(SAluOp::Add, X13, X6, X17);
    b.vstore(V0, X13, P1, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X12, X12, 8);
    b.jump(v_loop);
    b.bind(v_done);
    // Rotate diagonal arrays: (prev2, prev1, cur) <- (prev1, cur, prev2).
    b.alu_ri(SAluOp::Add, X13, X4, 0);
    b.alu_ri(SAluOp::Add, X4, X5, 0);
    b.alu_ri(SAluOp::Add, X5, X6, 0);
    b.alu_ri(SAluOp::Add, X6, X13, 0);
    b.alu_ri(SAluOp::Add, X7, X7, 1);
    b.jump(d_loop);

    b.bind(finish);
    // Final score is cell i = plen of the last computed diagonal (prev1
    // after the rotate).
    b.mov_imm(X13, 8 * args.plen as i64);
    b.alu_rr(SAluOp::Add, X13, X5, X13);
    b.load(X14, X13, 0, MemSize::B8);
    b.store(X14, X9, 0, MemSize::B8);
    b.halt();
    b.build().expect("dp vec kernel builds")
}

/// Builds the QBUFFER-based kernel (`Quetzal` tier, Fig. 7 ③④).
///
/// The three rolling diagonal regions live in QBUFFER 1 (64-bit
/// elements) and are accessed with `qzload`/`qzstore`, replacing the
/// store-load forwarding traffic of the memory version; the character
/// streams stay as cheap unit-stride loads, exactly as Fig. 7 keeps
/// "one of the input sequences and the pre-computed values" in the
/// buffers and the rest in the cache hierarchy.
fn build_qz_program(args: &DpArgs) -> Program {
    let mut b = ProgramBuilder::new();
    b.name("dp-QZ");
    let n_chars = args.plen + args.tlen;
    let _ = n_chars;
    b.mov_imm(X26, 3 * args.region);
    b.mov_imm(X27, 3 * args.region);
    b.mov_imm(X28, 2); // E64
    b.qzconf(X26, X27, X28);
    // Fill the three diagonal regions with INF (stream the host-staged
    // INF pool); charged to the QUETZAL implementation.
    crate::common::emit_qz_stage_words(
        &mut b,
        QBufSel::Q1,
        args.inf_addr,
        3 * args.region as usize,
    );
    // Seed D[0][0] = 0 at prev1 slot 1 (region 1, element 1).
    b.ptrue(P0, ElemSize::B64);
    b.mov_imm(X23, 1);
    b.pwhilelt(P2, X23, ElemSize::B64); // single-lane predicate
    b.dup_imm(V20, args.region + 1, ElemSize::B64);
    b.dup_imm(V21, 0, ElemSize::B64);
    b.qzstore(V21, V20, QBufSel::Q1, P2);

    b.mov_imm(X0, args.pa as i64);
    b.mov_imm(X1, args.tra as i64);
    b.mov_imm(X2, args.plen as i64);
    b.mov_imm(X3, args.tlen as i64);
    // Region bases as element indices of "slot i = 0".
    b.mov_imm(X4, 1); // prev2
    b.mov_imm(X5, args.region + 1); // prev1
    b.mov_imm(X6, 2 * args.region + 1); // cur
    b.mov_imm(X7, 1); // d
    b.mov_imm(X8, (args.plen + args.tlen) as i64);
    b.mov_imm(X9, args.result as i64);
    b.mov_imm(X21, 0);
    b.mov_imm(X22, DP_INF);

    let d_loop = b.label();
    let skip_b0 = b.label();
    let skip_bd = b.label();
    let v_loop = b.label();
    let v_done = b.label();
    let finish = b.label();

    b.bind(d_loop);
    b.branch(BranchCond::Gt, X7, X8, finish);
    emit_band_range(&mut b, args);
    // Borders + boundary cells in at most three single-lane qzstores.
    b.dup_imm(V10, DP_INF, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X13, X10, -1);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.dup(V11, X13, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X14, X11, 1);
    b.alu_rr(SAluOp::Add, X14, X6, X14);
    b.vinsert(V11, X14, 1, ElemSize::B64);
    b.mov_imm(X23, 2);
    b.pwhilelt(P3, X23, ElemSize::B64);
    b.qzstore(V10, V11, QBufSel::Q1, P3);
    b.mov_imm(X23, 1);
    b.pwhilelt(P2, X23, ElemSize::B64);
    b.mov_imm(X14, args.tlen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_b0);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.dup(V10, X14, ElemSize::B64);
    b.dup(V11, X6, ElemSize::B64);
    b.qzstore(V10, V11, QBufSel::Q1, P2);
    b.bind(skip_b0);
    b.mov_imm(X14, args.plen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_bd);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.dup(V10, X14, ElemSize::B64);
    b.alu_rr(SAluOp::Add, X13, X6, X7);
    b.dup(V11, X13, ElemSize::B64);
    b.qzstore(V10, V11, QBufSel::Q1, P2);
    b.bind(skip_bd);
    // Vector sweep: all four index vectors are maintained incrementally
    // (one `index` each at diagonal start, one increment per iteration) —
    // this is what makes the QUETZAL variant instruction-leaner than the
    // address arithmetic of the memory version.
    b.alu_ri(SAluOp::Add, X12, X10, 0);
    b.alu_rr(SAluOp::Add, X13, X5, X12);
    b.alu_ri(SAluOp::Add, X13, X13, -1);
    b.index(V20, X13, 1, ElemSize::B64); // prev1[i-1]
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.index(V21, X13, 1, ElemSize::B64); // prev1[i]
    b.alu_rr(SAluOp::Add, X13, X4, X12);
    b.alu_ri(SAluOp::Add, X13, X13, -1);
    b.index(V22, X13, 1, ElemSize::B64); // prev2[i-1]
    b.alu_rr(SAluOp::Add, X13, X6, X12);
    b.index(V23, X13, 1, ElemSize::B64); // cur[i]
                                         // Character pointers, advanced by 8 per iteration.
    b.alu_rr(SAluOp::Add, X16, X0, X12);
    b.alu_ri(SAluOp::Add, X16, X16, -1);
    b.alu_rr(SAluOp::Sub, X17, X3, X7);
    b.alu_rr(SAluOp::Add, X17, X17, X12);
    b.alu_rr(SAluOp::Add, X17, X17, X1);
    b.bind(v_loop);
    b.branch(BranchCond::Gt, X12, X11, v_done);
    b.alu_rr(SAluOp::Sub, X13, X11, X12);
    b.alu_ri(SAluOp::Add, X13, X13, 1);
    b.pwhilelt(P1, X13, ElemSize::B64);
    b.qzload(V0, V20, QBufSel::Q1, P1); // prev1[i-1] (deletion)
    b.qzload(V1, V21, QBufSel::Q1, P1); // prev1[i] (insertion)
    b.qzload(V2, V22, QBufSel::Q1, P1); // prev2[i-1] (diagonal)
    b.vload_n(V3, X16, P1, ElemSize::B64, MemSize::B1); // P[i-1]
    b.vload_n(V4, X17, P1, ElemSize::B64, MemSize::B1); // TR[tlen-d+i]
    b.vcmp_vv(BranchCond::Ne, P3, V3, V4, P1, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V2, V2, args.costs.mismatch, P3, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V0, V0, args.costs.gap, P1, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V1, V1, args.costs.gap, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smin, V0, V0, V1, P1, ElemSize::B64);
    b.valu_vv(VAluOp::Smin, V0, V0, V2, P1, ElemSize::B64);
    b.qzstore(V0, V23, QBufSel::Q1, P1);
    b.valu_vi(VAluOp::Add, V20, V20, 8, P0, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V21, V21, 8, P0, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V22, V22, 8, P0, ElemSize::B64);
    b.valu_vi(VAluOp::Add, V23, V23, 8, P0, ElemSize::B64);
    b.alu_ri(SAluOp::Add, X16, X16, 8);
    b.alu_ri(SAluOp::Add, X17, X17, 8);
    b.alu_ri(SAluOp::Add, X12, X12, 8);
    b.jump(v_loop);
    b.bind(v_done);
    // Rotate regions.
    b.alu_ri(SAluOp::Add, X13, X4, 0);
    b.alu_ri(SAluOp::Add, X4, X5, 0);
    b.alu_ri(SAluOp::Add, X5, X6, 0);
    b.alu_ri(SAluOp::Add, X6, X13, 0);
    b.alu_ri(SAluOp::Add, X7, X7, 1);
    b.jump(d_loop);

    b.bind(finish);
    b.mov_imm(X23, 1);
    b.pwhilelt(P2, X23, ElemSize::B64);
    b.alu_rr(SAluOp::Add, X13, X5, X2);
    b.dup(V11, X13, ElemSize::B64);
    b.qzload(V0, V11, QBufSel::Q1, P2);
    b.vextract(X14, V0, 0, ElemSize::B64);
    b.store(X14, X9, 0, MemSize::B8);
    b.halt();
    b.build().expect("dp qz kernel builds")
}

/// Builds the all-scalar baseline.
fn build_base_program(args: &DpArgs) -> Program {
    let mut b = ProgramBuilder::new();
    b.name("dp-BASE");
    b.mov_imm(X0, args.pa as i64);
    b.mov_imm(X1, args.tra as i64);
    b.mov_imm(X2, args.plen as i64);
    b.mov_imm(X3, args.tlen as i64);
    b.mov_imm(X4, args.arr[0] as i64);
    b.mov_imm(X5, args.arr[1] as i64);
    b.mov_imm(X6, args.arr[2] as i64);
    b.mov_imm(X7, 1);
    b.mov_imm(X8, (args.plen + args.tlen) as i64);
    b.mov_imm(X9, args.result as i64);
    b.mov_imm(X21, 0);
    b.mov_imm(X22, DP_INF);

    let d_loop = b.label();
    let skip_b0 = b.label();
    let skip_bd = b.label();
    let i_loop = b.label();
    let i_done = b.label();
    let match_case = b.label();
    let after_sub = b.label();
    let finish = b.label();

    b.bind(d_loop);
    b.branch(BranchCond::Gt, X7, X8, finish);
    emit_band_range(&mut b, args);
    b.alu_ri(SAluOp::Shl, X13, X10, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X22, X13, -8, MemSize::B8);
    b.alu_ri(SAluOp::Shl, X13, X11, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X22, X13, 8, MemSize::B8);
    b.mov_imm(X14, args.tlen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_b0);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.store(X14, X6, 0, MemSize::B8);
    b.bind(skip_b0);
    b.mov_imm(X14, args.plen.min(args.band as usize) as i64);
    b.branch(BranchCond::Gt, X7, X14, skip_bd);
    b.mov_imm(X14, args.costs.gap);
    b.alu_rr(SAluOp::Mul, X14, X14, X7);
    b.alu_ri(SAluOp::Shl, X13, X7, 3);
    b.alu_rr(SAluOp::Add, X13, X6, X13);
    b.store(X14, X13, 0, MemSize::B8);
    b.bind(skip_bd);
    b.alu_ri(SAluOp::Add, X12, X10, 0);
    b.bind(i_loop);
    b.branch(BranchCond::Gt, X12, X11, i_done);
    b.alu_ri(SAluOp::Shl, X17, X12, 3);
    b.alu_rr(SAluOp::Add, X13, X5, X17);
    b.load(X14, X13, -8, MemSize::B8); // prev1[i-1]
    b.load(X15, X13, 0, MemSize::B8); // prev1[i]
    b.alu_rr(SAluOp::Add, X13, X4, X17);
    b.load(X16, X13, -8, MemSize::B8); // prev2[i-1]
    b.alu_rr(SAluOp::Add, X13, X0, X12);
    b.load(X18, X13, -1, MemSize::B1); // P[i-1]
    b.alu_rr(SAluOp::Sub, X13, X3, X7);
    b.alu_rr(SAluOp::Add, X13, X13, X12);
    b.alu_rr(SAluOp::Add, X13, X13, X1);
    b.load(X19, X13, 0, MemSize::B1); // TR[tlen - d + i]
    b.branch(BranchCond::Eq, X18, X19, match_case);
    b.alu_ri(SAluOp::Add, X16, X16, args.costs.mismatch);
    b.bind(match_case);
    b.jump(after_sub);
    b.bind(after_sub);
    b.alu_ri(SAluOp::Add, X14, X14, args.costs.gap);
    b.alu_ri(SAluOp::Add, X15, X15, args.costs.gap);
    b.alu_rr(SAluOp::Min, X14, X14, X15);
    b.alu_rr(SAluOp::Min, X14, X14, X16);
    b.alu_rr(SAluOp::Add, X13, X6, X17);
    b.store(X14, X13, 0, MemSize::B8);
    emit_compiled_overhead(&mut b, 4);
    b.alu_ri(SAluOp::Add, X12, X12, 1);
    b.jump(i_loop);
    b.bind(i_done);
    b.alu_ri(SAluOp::Add, X13, X4, 0);
    b.alu_ri(SAluOp::Add, X4, X5, 0);
    b.alu_ri(SAluOp::Add, X5, X6, 0);
    b.alu_ri(SAluOp::Add, X6, X13, 0);
    b.alu_ri(SAluOp::Add, X7, X7, 1);
    b.jump(d_loop);

    b.bind(finish);
    b.mov_imm(X13, 8 * args.plen as i64);
    b.alu_rr(SAluOp::Add, X13, X5, X13);
    b.load(X14, X13, 0, MemSize::B8);
    b.store(X14, X9, 0, MemSize::B8);
    b.halt();
    b.build().expect("dp base kernel builds")
}

/// Runs a linear-gap anti-diagonal DP (full NW when `band >= plen+tlen`,
/// banded SW otherwise) on the simulated machine. Returns the alignment
/// score in [`SimOutcome::value`] (`>= DP_INF/2` means the band was
/// exceeded).
///
/// The QUETZAL tiers require `plen + tlen` widened characters and three
/// `plen + 3`-element regions to fit the QBUFFERs (1024 64-bit elements
/// each). Longer inputs should be windowed by the caller, as the paper
/// itself prescribes for long sequences (§VI).
///
/// # Errors
///
/// Returns [`SimError`] on simulation failure.
///
/// # Panics
///
/// Panics if a QUETZAL tier is requested for inputs that exceed the
/// QBUFFER capacity.
pub fn dp_sim<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    costs: LinearCosts,
    band: Option<i64>,
    tier: Tier,
) -> Result<SimOutcome, SimError> {
    let plen = pattern.len();
    let tlen = text.len();
    let band = band.unwrap_or((plen + tlen) as i64 + 1);
    let pa = stage_bytes(machine, pattern);
    let text_rev: Vec<u8> = text.iter().rev().copied().collect();
    let tra = stage_bytes(machine, &text_rev);
    let result = machine.alloc(8);

    let entries = plen + 3;
    let mut arr = [0u64; 3];
    for slot in &mut arr {
        let base = machine.alloc(8 * entries as u64);
        for i in 0..entries {
            machine.write_u64(base + 8 * i as u64, DP_INF as u64);
        }
        *slot = base + 8; // "i = 0" slot
    }
    // Seed diagonal 0: D[0][0] = 0 lives in the prev1 array.
    machine.write_u64(arr[1], 0);

    let region = entries as i64;
    let mut inf_addr = 0;
    if tier.uses_quetzal() {
        let cap = machine
            .core()
            .state()
            .qz
            .buf(1)
            .capacity_elems(quetzal::isa::EncSize::E64);
        assert!(
            (3 * region) as u64 <= cap,
            "diagonals exceed QBUFFER capacity; window the DP (see docs)"
        );
        let inf_pool = vec![DP_INF; 3 * region as usize];
        inf_addr = stage_words(machine, &inf_pool);
        let args = DpArgs {
            pa,
            tra,
            plen,
            tlen,
            costs,
            band,
            result,
            arr,
            region,
            inf_addr,
        };
        let program = build_qz_program(&args);
        let stats = machine.run(&program)?;
        let score = machine.read_u64(result) as i64;
        return Ok(SimOutcome {
            value: score,
            stats,
        });
    }

    let args = DpArgs {
        pa,
        tra,
        plen,
        tlen,
        costs,
        band,
        result,
        arr,
        region,
        inf_addr,
    };
    let program = match tier {
        Tier::Base => build_base_program(&args),
        _ => build_vec_program(&args),
    };
    let stats = machine.run(&program)?;
    let score = machine.read_u64(result) as i64;
    Ok(SimOutcome {
        value: score,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::MachineConfig;
    use quetzal_genomics::dataset::DatasetSpec;
    use quetzal_genomics::distance::levenshtein;

    #[test]
    fn scalar_banded_matches_levenshtein_with_wide_band() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACAG", b"AAGT"),
            (b"kitten", b"sitting"),
            (b"", b"AC"),
            (b"GATTACA", b"GATTACA"),
        ];
        for &(a, t) in cases {
            let got = banded_linear_score(a, t, LinearCosts::UNIT, 1000).unwrap();
            assert_eq!(got, levenshtein(a, t) as i64, "{a:?}");
        }
    }

    #[test]
    fn scalar_banded_rejects_outside_band() {
        // Length difference 6 with band 3: no path.
        assert_eq!(
            banded_linear_score(b"A", b"AAAAAAA", LinearCosts::UNIT, 3),
            None
        );
    }

    #[test]
    fn sim_tiers_match_scalar_full_nw() {
        for pair in DatasetSpec::d100().generate_n(31, 2) {
            let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
            let want = levenshtein(p, t) as i64;
            for tier in Tier::all() {
                let mut m = Machine::new(MachineConfig::default());
                let out = dp_sim(&mut m, p, t, LinearCosts::UNIT, None, tier).unwrap();
                assert_eq!(out.value, want, "{tier}");
            }
        }
    }

    #[test]
    fn sim_banded_matches_scalar_banded() {
        let pair = &DatasetSpec::d100().generate_n(33, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let w = 16i64;
        let want = banded_linear_score(p, t, LinearCosts::UNIT, w).unwrap();
        for tier in Tier::all() {
            let mut m = Machine::new(MachineConfig::default());
            let out = dp_sim(&mut m, p, t, LinearCosts::UNIT, Some(w), tier).unwrap();
            assert_eq!(out.value, want, "{tier}");
        }
    }

    #[test]
    fn sim_respects_custom_costs() {
        let costs = LinearCosts {
            mismatch: 3,
            gap: 2,
        };
        let p = b"ACGTAC";
        let t = b"AGGTACG";
        let want = banded_linear_score(p, t, costs, 100).unwrap();
        for tier in [Tier::Vec, Tier::Quetzal] {
            let mut m = Machine::new(MachineConfig::default());
            let out = dp_sim(&mut m, p, t, costs, None, tier).unwrap();
            assert_eq!(out.value, want, "{tier}");
        }
    }

    #[test]
    fn quetzal_gain_is_modest_for_classical_dp() {
        // Paper §VII-A.3: long dependence chains overshadow the latency
        // benefit -> expect a small (but real) improvement.
        let pair = &DatasetSpec::d100().generate_n(35, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let mut mv = Machine::new(MachineConfig::default());
        let vec = dp_sim(&mut mv, p, t, LinearCosts::UNIT, None, Tier::Vec).unwrap();
        let mut mq = Machine::new(MachineConfig::default());
        let qz = dp_sim(&mut mq, p, t, LinearCosts::UNIT, None, Tier::Quetzal).unwrap();
        let speedup = vec.stats.cycles as f64 / qz.stats.cycles as f64;
        assert!(
            speedup > 1.0 && speedup < 3.0,
            "classical DP speedup should be small but positive, got {speedup}"
        );
    }
}
