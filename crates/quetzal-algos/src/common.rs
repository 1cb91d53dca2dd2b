//! Shared infrastructure for simulated algorithm implementations.

use quetzal::isa::*;
use quetzal::uarch::RunStats;
use quetzal::{Machine, Probe};

/// Implementation tier of a simulated kernel (paper §VII intro).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Scalar ISA code — the compiler-autovectorisation baseline all
    /// speedups are normalised to.
    Base,
    /// Hand-vectorised SVE-style code with gather/scatter (`VEC`).
    Vec,
    /// QBUFFER-accelerated reads, no count ALU (`QUETZAL`).
    Quetzal,
    /// QBUFFERs plus the count ALU (`QUETZAL+C`).
    QuetzalC,
}

impl Tier {
    /// All tiers in evaluation order.
    pub fn all() -> [Tier; 4] {
        [Tier::Base, Tier::Vec, Tier::Quetzal, Tier::QuetzalC]
    }

    /// Whether the tier uses the QUETZAL accelerator.
    pub fn uses_quetzal(self) -> bool {
        matches!(self, Tier::Quetzal | Tier::QuetzalC)
    }

    /// The tier's external name, as spelled on the wire and on every
    /// command line; [`FromStr`](std::str::FromStr) parses it back.
    pub fn code(self) -> &'static str {
        match self {
            Tier::Base => "base",
            Tier::Vec => "vec",
            Tier::Quetzal => "quetzal",
            Tier::QuetzalC => "quetzal+c",
        }
    }
}

impl std::str::FromStr for Tier {
    type Err = String;

    fn from_str(code: &str) -> Result<Tier, String> {
        Tier::all()
            .into_iter()
            .find(|t| t.code() == code)
            .ok_or_else(|| format!("unknown tier '{code}' (base|vec|quetzal|quetzal+c)"))
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Tier::Base => "BASE",
            Tier::Vec => "VEC",
            Tier::Quetzal => "QUETZAL",
            Tier::QuetzalC => "QUETZAL+C",
        };
        f.write_str(s)
    }
}

/// Result of simulating an algorithm on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The algorithm's numeric result (score, edit bound, accept flag, …;
    /// meaning is algorithm-specific).
    pub value: i64,
    /// Accumulated statistics of every kernel the driver submitted.
    pub stats: RunStats,
}

/// Scratch-register conventions shared by the kernels in this crate.
///
/// Drivers stage arguments in `x0..x9`; kernels may clobber everything.
pub mod regs {
    pub use quetzal_isa::reg::aliases::*;
}

/// Sentinel for unreachable wavefront offsets: very negative, far from
/// overflow when incremented once per score.
pub const OFFSET_SENTINEL: i64 = -(1 << 40);

/// Threshold that separates reachable offsets from the sentinel.
pub const OFFSET_REACHABLE: i64 = -(1 << 39);

/// Emits the program prologue that stages a DNA/RNA (or protein) pair
/// into the two QBUFFERs using `qzconf` + a `vload`/`qzencode` loop.
/// The staging time is thereby charged to the QUETZAL implementation,
/// as the paper's methodology requires ("the execution time reported
/// includes the time the algorithm takes to store the input sequences
/// into the QBUFFERs", §V-B).
///
/// Clobbers `x26`, `x27`, `x28`, `v31`, `p7`. `esiz_field` is the
/// `qzconf` element-size encoding (0 = 2-bit, 1 = 8-bit).
pub fn emit_qz_stage_pair(
    b: &mut ProgramBuilder,
    pattern_addr: u64,
    plen: usize,
    text_addr: u64,
    tlen: usize,
    esiz_field: i64,
) {
    b.mov_imm(X26, plen as i64);
    b.mov_imm(X27, tlen as i64);
    b.mov_imm(X28, esiz_field);
    b.qzconf(X26, X27, X28);
    b.ptrue(P7, ElemSize::B8);
    for (sel, addr, len) in [
        (QBufSel::Q0, pattern_addr, plen),
        (QBufSel::Q1, text_addr, tlen),
    ] {
        let mut off = 0usize;
        while off < len {
            b.mov_imm(X26, (addr + off as u64) as i64);
            b.vload(V31, X26, P7, ElemSize::B8);
            b.mov_imm(X27, off as i64);
            b.qzencode(sel, V31, X27);
            off += VLEN_BYTES;
        }
    }
}

/// Emits a loop-free staging sequence that copies `count` 64-bit words
/// from simulated memory at `addr` into QBUFFER `sel` (element size must
/// already be configured to 64-bit). Used by the classical-DP, SpMV and
/// histogram kernels to place lookup tables / vector segments in the
/// buffers. Clobbers `x26`, `x27`, `v31`, `p7`.
pub fn emit_qz_stage_words(b: &mut ProgramBuilder, sel: QBufSel, addr: u64, count: usize) {
    b.ptrue(P7, ElemSize::B64);
    let mut off = 0usize;
    while off < count {
        b.mov_imm(X26, (addr + 8 * off as u64) as i64);
        b.vload(V31, X26, P7, ElemSize::B64);
        b.mov_imm(X27, off as i64);
        b.qzencode(sel, V31, X27);
        off += 8;
    }
}

/// Emits the per-iteration bookkeeping overhead of *compiled* scalar
/// code into a baseline kernel.
///
/// The `Base` tier models the paper's baseline — compiler output for
/// the C implementations — not hand-scheduled assembly. Compiled inner
/// loops of WFA/SneakySnake carry ~15 instructions per character
/// (struct-field address recomputation, bounds bookkeeping, flag
/// materialisation) against the ~9 of our hand-minimal emission, and a
/// large part of it forms a serial dependence chain. This helper emits
/// `n` chained scalar ops on the dedicated scratch register `x29` to
/// account for that (calibration documented in DESIGN.md).
pub fn emit_compiled_overhead(b: &mut ProgramBuilder, n: usize) {
    for _ in 0..n {
        b.alu_ri(SAluOp::Add, X29, X29, 1);
    }
}

/// Stages a byte slice into freshly allocated simulated memory and
/// returns its address.
pub fn stage_bytes<P: Probe>(machine: &mut Machine<P>, bytes: &[u8]) -> u64 {
    let addr = machine.alloc(bytes.len() as u64 + 64);
    machine.write_bytes(addr, bytes);
    addr
}

/// Stages a slice of 64-bit words into simulated memory.
pub fn stage_words<P: Probe>(machine: &mut Machine<P>, words: &[i64]) -> u64 {
    let addr = machine.alloc(8 * words.len() as u64 + 64);
    for (i, &w) in words.iter().enumerate() {
        machine.write_u64(addr + 8 * i as u64, w as u64);
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::accel::config::QzConfig;
    use quetzal::isa::EncSize;
    use quetzal::MachineConfig;
    use quetzal_genomics::packed::Packed2;
    use quetzal_genomics::Alphabet;

    #[test]
    fn tier_codes_round_trip() {
        let codes: Vec<&str> = Tier::all().iter().map(|t| t.code()).collect();
        assert_eq!(codes, ["base", "vec", "quetzal", "quetzal+c"]);
        for tier in Tier::all() {
            assert_eq!(tier.code().parse(), Ok(tier));
        }
        assert_eq!(
            "warp".parse::<Tier>(),
            Err("unknown tier 'warp' (base|vec|quetzal|quetzal+c)".to_string())
        );
    }

    #[test]
    fn tier_display_and_predicates() {
        assert_eq!(Tier::QuetzalC.to_string(), "QUETZAL+C");
        assert!(Tier::Quetzal.uses_quetzal());
        assert!(!Tier::Vec.uses_quetzal());
        assert_eq!(Tier::all().len(), 4);
    }

    #[test]
    fn qz_stage_pair_encodes_sequences() {
        let mut m = Machine::new(MachineConfig::default());
        let pattern: Vec<u8> = (0..100).map(|i| b"ACGT"[i % 4]).collect();
        let text: Vec<u8> = (0..80).map(|i| b"TGCA"[i % 4]).collect();
        let pa = stage_bytes(&mut m, &pattern);
        let ta = stage_bytes(&mut m, &text);
        let mut b = ProgramBuilder::new();
        emit_qz_stage_pair(&mut b, pa, pattern.len(), ta, text.len(), 0);
        b.halt();
        let stats = m.run(&b.build().unwrap()).unwrap();
        assert!(stats.qz_accesses > 0);
        // Verify buffer contents against the reference packing.
        let packed = Packed2::from_bytes(&pattern, Alphabet::Dna);
        for i in [0usize, 17, 63, 99] {
            assert_eq!(
                m.core()
                    .state()
                    .qz
                    .buf(0)
                    .read_segment(i as u64, EncSize::E2)
                    & 3,
                packed.get(i) as u64,
                "pattern base {i}"
            );
        }
        let packed_t = Packed2::from_bytes(&text, Alphabet::Dna);
        assert_eq!(
            m.core().state().qz.buf(1).read_segment(0, EncSize::E2),
            packed_t.segment(0)
        );
        assert_eq!(m.core().state().qz.esize, EncSize::E2);
        assert_eq!(m.core().state().qz.eb, [100, 80]);
    }

    #[test]
    fn qz_stage_words_round_trip() {
        let mut m = Machine::new(MachineConfig::with_qz(QzConfig::QZ_8P));
        let words: Vec<i64> = (0..40).map(|i| i * 11 - 7).collect();
        let addr = stage_words(&mut m, &words);
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1024).mov_imm(X1, 1024).mov_imm(X2, 2);
        b.qzconf(X0, X1, X2);
        emit_qz_stage_words(&mut b, QBufSel::Q1, addr, words.len());
        b.halt();
        m.run(&b.build().unwrap()).unwrap();
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(
                m.core()
                    .state()
                    .qz
                    .buf(1)
                    .read_segment(i as u64, EncSize::E64) as i64,
                w,
                "word {i}"
            );
        }
    }
}
