//! Golden timing-neutrality pins.
//!
//! The predecoded micro-op hot path must be *strictly* timing-neutral:
//! every cycle count, stall attribution, and cache counter must stay
//! bit-identical to the pre-predecode simulator. This test pins the
//! full [`RunStats`] of one representative program per [`InstClass`]
//! group, captured from the seed (pre-predecode) simulator; any timing
//! drift — intended or not — fails here first with the exact field.
//!
//! Regenerating the pins (only legitimate after a *deliberate* timing
//! model change, never for a performance refactor):
//!
//! ```text
//! cargo test -q --offline --test timing_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use quetzal::isa::*;
use quetzal::uarch::RunStats;
use quetzal::{Machine, MachineConfig};

/// One pinned run: every `RunStats` field of the named program on the
/// default machine configuration.
struct Golden {
    name: &'static str,
    cycles: u64,
    instructions: u64,
    uops: u64,
    mem_requests: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_misses: u64,
    dram_bytes: u64,
    prefetches: u64,
    branches: u64,
    mispredicts: u64,
    indexed_ops: u64,
    qz_accesses: u64,
    stall_cycles: [u64; 6],
}

/// Pinned seed-simulator stats (see module docs for regeneration).
const GOLDEN: &[Golden] = &[
    Golden {
        name: "scalar_alu_mul",
        cycles: 268,
        instructions: 245,
        uops: 245,
        mem_requests: 0,
        l1_hits: 0,
        l1_misses: 0,
        l2_misses: 0,
        dram_bytes: 0,
        prefetches: 0,
        branches: 40,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [0, 12, 256, 0, 0, 0],
    },
    Golden {
        name: "scalar_mem",
        cycles: 530,
        instructions: 774,
        uops: 774,
        mem_requests: 128,
        l1_hits: 124,
        l1_misses: 4,
        l2_misses: 4,
        dram_bytes: 768,
        prefetches: 8,
        branches: 128,
        mispredicts: 4,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [124, 9, 38, 0, 359, 0],
    },
    Golden {
        name: "branch",
        cycles: 988,
        instructions: 749,
        uops: 749,
        mem_requests: 0,
        l1_hits: 0,
        l1_misses: 0,
        l2_misses: 0,
        dram_bytes: 0,
        prefetches: 0,
        branches: 192,
        mispredicts: 26,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [0, 12, 976, 0, 0, 0],
    },
    Golden {
        name: "vector_alu_mul",
        cycles: 317,
        instructions: 128,
        uops: 128,
        mem_requests: 0,
        l1_hits: 0,
        l1_misses: 0,
        l2_misses: 0,
        dram_bytes: 0,
        prefetches: 0,
        branches: 24,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [0, 0, 3, 314, 0, 0],
    },
    Golden {
        name: "vector_mem",
        cycles: 557,
        instructions: 230,
        uops: 230,
        mem_requests: 64,
        l1_hits: 56,
        l1_misses: 8,
        l2_misses: 8,
        dram_bytes: 4608,
        prefetches: 64,
        branches: 32,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [53, 0, 3, 0, 501, 0],
    },
    Golden {
        name: "gather_scatter",
        cycles: 558,
        instructions: 89,
        uops: 281,
        mem_requests: 192,
        l1_hits: 188,
        l1_misses: 4,
        l2_misses: 4,
        dram_bytes: 1152,
        prefetches: 14,
        branches: 12,
        mispredicts: 2,
        indexed_ops: 24,
        qz_accesses: 0,
        stall_cycles: [11, 0, 9, 0, 538, 0],
    },
    Golden {
        name: "horizontal",
        cycles: 310,
        instructions: 134,
        uops: 134,
        mem_requests: 0,
        l1_hits: 0,
        l1_misses: 0,
        l2_misses: 0,
        dram_bytes: 0,
        prefetches: 0,
        branches: 16,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [0, 0, 310, 0, 0, 0],
    },
    Golden {
        name: "predicate",
        cycles: 81,
        instructions: 83,
        uops: 83,
        mem_requests: 0,
        l1_hits: 0,
        l1_misses: 0,
        l2_misses: 0,
        dram_bytes: 0,
        prefetches: 0,
        branches: 8,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 0,
        stall_cycles: [0, 12, 69, 0, 0, 0],
    },
    Golden {
        name: "quetzal",
        cycles: 152,
        instructions: 121,
        uops: 121,
        mem_requests: 8,
        l1_hits: 0,
        l1_misses: 8,
        l2_misses: 8,
        dram_bytes: 512,
        prefetches: 0,
        branches: 10,
        mispredicts: 2,
        indexed_ops: 0,
        qz_accesses: 39,
        stall_cycles: [28, 0, 3, 0, 121, 0],
    },
];

/// Builds every golden program, one per `InstClass` group, on a fresh
/// default machine with its inputs staged.
fn golden_programs() -> Vec<(&'static str, Machine, Program)> {
    let mut out: Vec<(&'static str, Machine, Program)> = Vec::new();

    // ScalarAlu + ScalarMul: dependent add/mul chain inside a counted
    // loop (exercises scalar-compute stalls and taken branches).
    {
        let m = Machine::new(MachineConfig::default());
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0); // i
        b.mov_imm(X1, 1); // product
        b.mov_imm(X2, 0); // sum
        b.mov_imm(X3, 40); // trip count
        b.bind(top);
        b.alu_ri(SAluOp::Add, X4, X0, 3);
        b.alu_rr(SAluOp::Mul, X1, X1, X4);
        b.alu_rr(SAluOp::And, X1, X1, X3);
        b.alu_rr(SAluOp::Add, X2, X2, X1);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X3, top);
        b.halt();
        out.push(("scalar_alu_mul", m, b.build().unwrap()));
    }

    // ScalarLoad + ScalarStore: pointer-chased stores then loads over a
    // small array (L1 hits and misses, store-to-load forwarding).
    {
        let mut m = Machine::new(MachineConfig::default());
        let base = m.alloc(4096);
        let mut b = ProgramBuilder::new();
        let fill = b.label();
        let read = b.label();
        b.mov_imm(X0, base as i64);
        b.mov_imm(X1, 0); // i
        b.mov_imm(X2, 64); // elems
        b.bind(fill);
        b.alu_rr(SAluOp::Shl, X3, X1, X2); // scratch dep
        b.alu_ri(SAluOp::Shl, X3, X1, 3);
        b.alu_rr(SAluOp::Add, X3, X3, X0);
        b.store(X1, X3, 0, MemSize::B8);
        b.alu_ri(SAluOp::Add, X1, X1, 1);
        b.branch(BranchCond::Lt, X1, X2, fill);
        b.mov_imm(X1, 0);
        b.mov_imm(X4, 0); // sum
        b.bind(read);
        b.alu_ri(SAluOp::Shl, X3, X1, 3);
        b.alu_rr(SAluOp::Add, X3, X3, X0);
        b.load(X5, X3, 0, MemSize::B8);
        b.alu_rr(SAluOp::Add, X4, X4, X5);
        b.alu_ri(SAluOp::Add, X1, X1, 1);
        b.branch(BranchCond::Lt, X1, X2, read);
        b.halt();
        out.push(("scalar_mem", m, b.build().unwrap()));
    }

    // Branch: data-dependent taken/not-taken pattern the 2-bit
    // predictor cannot learn perfectly (mispredict refill cycles).
    {
        let m = Machine::new(MachineConfig::default());
        let mut b = ProgramBuilder::new();
        let top = b.label();
        let skip = b.label();
        b.mov_imm(X0, 0); // i
        b.mov_imm(X1, 0); // acc
        b.mov_imm(X2, 96); // trips
        b.mov_imm(X3, 0); // lfsr-ish state
        b.bind(top);
        b.alu_ri(SAluOp::Mul, X3, X3, 13);
        b.alu_ri(SAluOp::Add, X3, X3, 7);
        b.alu_ri(SAluOp::And, X4, X3, 3);
        b.mov_imm(X5, 1);
        b.branch(BranchCond::Lt, X4, X5, skip); // taken 1/4 of trips
        b.alu_ri(SAluOp::Add, X1, X1, 5);
        b.bind(skip);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        out.push(("branch", m, b.build().unwrap()));
    }

    // VectorAlu + VectorMul: dependent vector chain under a merged
    // predicate (vector-compute stalls).
    {
        let m = Machine::new(MachineConfig::default());
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 24);
        b.mov_imm(X2, 5);
        b.ptrue(P0, ElemSize::B64);
        b.pwhilelt(P1, X2, ElemSize::B64);
        b.dup_imm(V0, 3, ElemSize::B64);
        b.index(V1, X0, 1, ElemSize::B64);
        b.bind(top);
        b.valu_vv(VAluOp::Mul, V2, V1, V0, P0, ElemSize::B64);
        b.valu_vv(VAluOp::Add, V1, V2, V0, P1, ElemSize::B64);
        b.valu_vi(VAluOp::And, V1, V1, 0xFFFF, P0, ElemSize::B64);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        out.push(("vector_alu_mul", m, b.build().unwrap()));
    }

    // VectorLoad + VectorStore: unit-stride streaming copy (vector
    // memory pipeline, prefetcher, DRAM traffic).
    {
        let mut m = Machine::new(MachineConfig::default());
        let src = m.alloc(8192);
        let dst = m.alloc(8192);
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        m.write_bytes(src, &bytes);
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, src as i64);
        b.mov_imm(X1, dst as i64);
        b.mov_imm(X2, 0);
        b.mov_imm(X3, 32); // 32 full-vector iterations
        b.ptrue(P0, ElemSize::B8);
        b.bind(top);
        b.vload(V0, X0, P0, ElemSize::B8);
        b.valu_vi(VAluOp::Add, V0, V0, 1, P0, ElemSize::B8);
        b.vstore(V0, X1, P0, ElemSize::B8);
        b.alu_ri(SAluOp::Add, X0, X0, 64);
        b.alu_ri(SAluOp::Add, X1, X1, 64);
        b.alu_ri(SAluOp::Add, X2, X2, 1);
        b.branch(BranchCond::Lt, X2, X3, top);
        b.halt();
        out.push(("vector_mem", m, b.build().unwrap()));
    }

    // Gather + Scatter: strided indices over a staged table (per-lane
    // cracking, gather pipe serialisation, indexed-op accounting).
    {
        let mut m = Machine::new(MachineConfig::default());
        let base = m.alloc(8192);
        for i in 0..512u64 {
            m.write_u64(base + i * 8, i * 3 + 1);
        }
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, base as i64);
        b.mov_imm(X1, 0);
        b.mov_imm(X2, 12);
        b.ptrue(P0, ElemSize::B64);
        b.bind(top);
        b.alu_ri(SAluOp::Mul, X3, X1, 5);
        b.index(V0, X3, 7, ElemSize::B64); // indices stride 7
        b.vgather(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.valu_vi(VAluOp::Add, V1, V1, 1, P0, ElemSize::B64);
        b.vscatter(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.alu_ri(SAluOp::Add, X1, X1, 1);
        b.branch(BranchCond::Lt, X1, X2, top);
        b.halt();
        out.push(("gather_scatter", m, b.build().unwrap()));
    }

    // VectorHorizontal: reductions, extracts, inserts and slides.
    {
        let m = Machine::new(MachineConfig::default());
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 16);
        b.mov_imm(X2, 1);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X2, 2, ElemSize::B64);
        b.bind(top);
        b.vreduce(RedOp::Add, X3, V0, P0, ElemSize::B64);
        b.vreduce(RedOp::Max, X4, V0, P0, ElemSize::B64);
        b.vextract(X5, V0, 2, ElemSize::B64);
        b.vslidedown(V1, V0, 1, ElemSize::B64);
        b.vslide1up(V0, V1, X3, ElemSize::B64);
        b.vinsert(V0, X4, 7, ElemSize::B64);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        out.push(("horizontal", m, b.build().unwrap()));
    }

    // Predicate: while-loops, predicate logic, pcount-driven exit.
    {
        let m = Machine::new(MachineConfig::default());
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 61); // remaining
        b.mov_imm(X1, 0); // acc
        b.bind(top);
        b.pwhilelt(P0, X0, ElemSize::B64);
        b.ptrue(P1, ElemSize::B64);
        b.pand(P2, P0, P1);
        b.por(P3, P2, P0);
        b.pbic(P3, P1, P2);
        b.pcount(X2, P2, ElemSize::B64);
        b.alu_rr(SAluOp::Add, X1, X1, X2);
        b.alu_ri(SAluOp::Sub, X0, X0, 8);
        b.mov_imm(X3, 0);
        b.branch(BranchCond::Gt, X0, X3, top);
        b.halt();
        out.push(("predicate", m, b.build().unwrap()));
    }

    // QzConfig + QzWrite + QzRead + QzCountOp: stage a DNA pair into
    // the QBUFFERs, then qzload / qzmhm / qzcount / qzupdate over it.
    {
        let mut m = Machine::new(MachineConfig::default());
        let seq: Vec<u8> = (0..256).map(|i| b"ACGT"[(i * 11 + 2) % 4]).collect();
        let pa = m.alloc(seq.len() as u64 + 64);
        m.write_bytes(pa, &seq);
        let ta = m.alloc(seq.len() as u64 + 64);
        m.write_bytes(ta, &seq);
        let mut b = ProgramBuilder::new();
        quetzal_algos::common::emit_qz_stage_pair(&mut b, pa, seq.len(), ta, seq.len(), 0);
        let top = b.label();
        b.mov_imm(X0, 0);
        b.mov_imm(X1, 10);
        b.ptrue(P0, ElemSize::B64);
        b.bind(top);
        b.alu_ri(SAluOp::Mul, X2, X0, 16);
        b.index(V0, X2, 2, ElemSize::B64);
        b.qzload(V1, V0, QBufSel::Q0, P0);
        b.qzmhm(QzOp::Count, V2, V0, V0, P0);
        b.qzcount(V3, V1, V1);
        b.qzmm(QzOp::Add, V4, V1, V0, QBufSel::Q1, P0);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X1, top);
        b.halt();
        out.push(("quetzal", m, b.build().unwrap()));
    }

    out
}

/// Prints the `GOLDEN` table for the current simulator. Ignored by
/// default; see module docs.
#[test]
#[ignore = "regenerates the pinned table; run with --ignored --nocapture"]
fn dump_golden_table() {
    for (name, mut m, p) in golden_programs() {
        let s = m.run(&p).unwrap();
        println!(
            "    Golden {{\n        name: \"{name}\",\n        cycles: {},\n        \
             instructions: {},\n        uops: {},\n        mem_requests: {},\n        \
             l1_hits: {},\n        l1_misses: {},\n        l2_misses: {},\n        \
             dram_bytes: {},\n        prefetches: {},\n        branches: {},\n        \
             mispredicts: {},\n        indexed_ops: {},\n        qz_accesses: {},\n        \
             stall_cycles: {:?},\n    }},",
            s.cycles,
            s.instructions,
            s.uops,
            s.mem_requests,
            s.l1_hits,
            s.l1_misses,
            s.l2_misses,
            s.dram_bytes,
            s.prefetches,
            s.branches,
            s.mispredicts,
            s.indexed_ops,
            s.qz_accesses,
            s.stall_cycles,
        );
    }
}

#[test]
fn runstats_pinned_per_inst_class_group() {
    let programs = golden_programs();
    assert_eq!(
        programs.len(),
        GOLDEN.len(),
        "one pinned entry per golden program"
    );
    for ((name, mut m, p), g) in programs.into_iter().zip(GOLDEN) {
        assert_eq!(name, g.name, "pin order matches program order");
        let s = m.run(&p).unwrap();
        let pinned = RunStats {
            cycles: g.cycles,
            instructions: g.instructions,
            uops: g.uops,
            mem_requests: g.mem_requests,
            l1_hits: g.l1_hits,
            l1_misses: g.l1_misses,
            l2_misses: g.l2_misses,
            dram_bytes: g.dram_bytes,
            prefetches: g.prefetches,
            branches: g.branches,
            mispredicts: g.mispredicts,
            indexed_ops: g.indexed_ops,
            qz_accesses: g.qz_accesses,
            stall_cycles: g.stall_cycles,
        };
        assert_eq!(s, pinned, "timing drift in golden program `{name}`");
        assert_eq!(
            s.stall_cycles.iter().sum::<u64>(),
            s.cycles,
            "stall attribution must cover every cycle in `{name}`"
        );
    }
}
