//! Static predecode: per-instruction [`MicroOp`] records.
//!
//! The timing model needs the same handful of facts about every dynamic
//! instruction — its [`InstClass`], which registers it reads and writes,
//! which functional-unit pool it occupies, whether it is a *conditional*
//! branch, and whether it touches memory. All of them are static: they
//! depend only on the instruction word, never on architectural state.
//! The seed simulator re-derived them per retired instruction by
//! matching the [`Instruction`] enum four times (`class`,
//! `for_each_use`, `for_each_def`, plus a branch `matches!`); this
//! module derives them **once per static instruction** into a flat
//! [`Predecode`] table the hot loop indexes by `pc`.
//!
//! # Hot-path invariants (timing neutrality)
//!
//! The records must reproduce the seed behaviour *bit-identically*:
//!
//! * `uses` is an **ordered** list, in exactly
//!   [`Instruction::for_each_use`] operand order, duplicates included.
//!   [`crate::ooo::OooTiming`] attributes a stall to the **last**
//!   visited source register whose ready time ties the maximum (it
//!   compares with `>=`), so reordering or deduplicating the uses would
//!   silently change stall attribution.
//! * At most [`MAX_USES`] sources and one destination exist across the
//!   whole ISA; `decode` asserts this, so an ISA extension that grows a
//!   wider instruction fails loudly instead of truncating.
//! * `is_cond_branch` is true only for [`Instruction::Branch`] —
//!   `Jump` shares [`InstClass::Branch`] but never consults the branch
//!   predictor.

use quetzal_isa::{InstClass, Instruction, Program, Reg};

/// Maximum sources any instruction reads (`VAluVV`/`VScatter`: 4).
pub const MAX_USES: usize = 4;

/// Sentinel for "no destination register".
pub const NO_DEF: u8 = u8::MAX;

/// Functional-unit pool an instruction's execution occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuClass {
    /// Scalar ALU pool (also branches and predicate ops).
    Scalar,
    /// Vector FU pool (also the count ALU of `qzcount`).
    Vector,
    /// Load ports.
    Load,
    /// Store ports.
    Store,
    /// The serial indexed-access (gather/scatter) pipe.
    GatherPipe,
    /// The QBUFFER read port.
    QzPort,
    /// No execution resource (commit-time or free).
    None,
}

/// Everything the timing model needs to know about one static
/// instruction, precomputed. 8 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Timing class.
    pub class: InstClass,
    /// Functional-unit pool (derived from `class`; kept explicit so the
    /// timing code reads one record, not a second match).
    pub fu: FuClass,
    /// Number of live entries in `uses`.
    pub n_uses: u8,
    /// Flat source-register indices, in `for_each_use` order.
    pub uses: [u8; MAX_USES],
    /// Flat destination-register index, or [`NO_DEF`].
    pub def: u8,
    /// Conditional branch (consults the predictor); `Jump` does not.
    pub is_cond_branch: bool,
    /// Whether the instruction produces demand memory accesses.
    pub touches_mem: bool,
}

impl MicroOp {
    /// Decodes one instruction. Pure: same input, same record.
    pub fn decode(inst: &Instruction) -> MicroOp {
        let class = inst.class();
        let mut uses = [0u8; MAX_USES];
        let mut n_uses = 0usize;
        inst.for_each_use(|r: Reg| {
            assert!(
                n_uses < MAX_USES,
                "instruction reads more than {MAX_USES} registers"
            );
            uses[n_uses] = r.flat_index() as u8;
            n_uses += 1;
        });
        let mut def = NO_DEF;
        inst.for_each_def(|r: Reg| {
            assert_eq!(def, NO_DEF, "instruction writes more than one register");
            def = r.flat_index() as u8;
        });
        MicroOp {
            class,
            fu: fu_of(class),
            n_uses: n_uses as u8,
            uses,
            def,
            is_cond_branch: matches!(inst, Instruction::Branch { .. }),
            touches_mem: matches!(
                class,
                InstClass::ScalarLoad
                    | InstClass::ScalarStore
                    | InstClass::VectorLoad
                    | InstClass::VectorStore
                    | InstClass::Gather
                    | InstClass::Scatter
            ),
        }
    }

    /// The live prefix of `uses`.
    #[inline]
    pub fn uses(&self) -> &[u8] {
        &self.uses[..self.n_uses as usize]
    }
}

/// Unit pool by class (the pairing the seed timing model hard-coded in
/// its retire match).
fn fu_of(class: InstClass) -> FuClass {
    match class {
        InstClass::ScalarAlu | InstClass::ScalarMul | InstClass::Branch | InstClass::Predicate => {
            FuClass::Scalar
        }
        InstClass::VectorAlu
        | InstClass::VectorMul
        | InstClass::VectorHorizontal
        | InstClass::QzCountOp => FuClass::Vector,
        InstClass::ScalarLoad | InstClass::VectorLoad => FuClass::Load,
        InstClass::ScalarStore | InstClass::VectorStore => FuClass::Store,
        InstClass::Gather | InstClass::Scatter => FuClass::GatherPipe,
        InstClass::QzRead => FuClass::QzPort,
        InstClass::QzWrite | InstClass::QzConfig | InstClass::Halt => FuClass::None,
    }
}

/// The per-program micro-op table, indexed by `pc`.
#[derive(Debug, Clone)]
pub struct Predecode {
    ops: Vec<MicroOp>,
}

impl Predecode {
    /// Decodes every instruction of `program` once.
    pub fn of(program: &Program) -> Predecode {
        Predecode {
            ops: program.instructions().iter().map(MicroOp::decode).collect(),
        }
    }

    /// Record for the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn op(&self, pc: usize) -> &MicroOp {
        &self.ops[pc]
    }

    /// Number of records (== program length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A process-wide, thread-safe registry of [`Predecode`] tables shared
/// by many cores.
///
/// [`Predecode::of`] is pure — the table depends only on the program
/// text — so decoding the same program on every batch shard is wasted
/// work. A registry hands out `Arc<Predecode>` clones keyed by
/// [`Program::id`]; the batch runner attaches one registry per run so
/// all shards share a single decode of each kernel. Sharing is
/// invisible to timing: a cache hit and a fresh decode yield identical
/// tables, so results stay bit-identical for any thread count.
///
/// Bounded like [`DecodeCache`]: past [`DecodeCache::CAPACITY`]
/// distinct programs the registry flushes wholesale (cores keep their
/// local `Arc`s alive, so in-flight tables are unaffected).
#[derive(Debug, Clone, Default)]
pub struct PredecodeRegistry {
    map:
        std::sync::Arc<std::sync::Mutex<std::collections::HashMap<u64, std::sync::Arc<Predecode>>>>,
}

impl PredecodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> PredecodeRegistry {
        PredecodeRegistry::default()
    }

    /// Returns the shared table for `program`, decoding it on first
    /// sight (under the lock; decode is cheap relative to simulation).
    pub fn get_or_decode(&self, program: &Program) -> std::sync::Arc<Predecode> {
        // Poison recovery: predecode tables are pure functions of an
        // immutable program, so a panic elsewhere cannot have left the
        // map inconsistent — a healthy shard keeps going.
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= DecodeCache::CAPACITY && !map.contains_key(&program.id()) {
            map.clear();
        }
        map.entry(program.id())
            .or_insert_with(|| std::sync::Arc::new(Predecode::of(program)))
            .clone()
    }

    /// Number of distinct programs currently registered.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the registry holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A small program-keyed cache of [`Predecode`] tables.
///
/// Keys are [`Program::id`] (process-unique, shared by clones of the
/// same build). The cache is flushed wholesale when it exceeds
/// [`DecodeCache::CAPACITY`] distinct programs — a core that cycles
/// through unboundedly many programs (test harnesses) stays flat in
/// memory, while the common shapes (one staging program plus one kernel
/// program resubmitted per pair) always hit.
///
/// With [`DecodeCache::set_registry`] the cache resolves misses through
/// a shared [`PredecodeRegistry`] instead of decoding locally, so
/// sibling cores reuse one table per program.
#[derive(Debug, Clone, Default)]
pub struct DecodeCache {
    map: std::collections::HashMap<u64, std::sync::Arc<Predecode>>,
    shared: Option<PredecodeRegistry>,
}

impl DecodeCache {
    /// Distinct programs kept before the cache is flushed.
    pub const CAPACITY: usize = 64;

    /// Routes future misses through `registry` (hits keep their table).
    pub fn set_registry(&mut self, registry: PredecodeRegistry) {
        self.shared = Some(registry);
    }

    /// Returns the table for `program`, decoding it on first sight.
    pub fn get(&mut self, program: &Program) -> &Predecode {
        if self.map.len() >= Self::CAPACITY && !self.map.contains_key(&program.id()) {
            self.map.clear();
        }
        let shared = &self.shared;
        let table = self
            .map
            .entry(program.id())
            .or_insert_with(|| match shared {
                Some(registry) => registry.get_or_decode(program),
                None => std::sync::Arc::new(Predecode::of(program)),
            });
        table
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_isa::*;

    #[test]
    fn decode_matches_for_each_use_order_and_def() {
        let inst = Instruction::VAluVV {
            op: VAluOp::Add,
            vd: V1,
            vn: V2,
            vm: V3,
            pg: P0,
            esize: ElemSize::B64,
        };
        let u = MicroOp::decode(&inst);
        let mut expect = Vec::new();
        inst.for_each_use(|r| expect.push(r.flat_index() as u8));
        assert_eq!(u.uses(), expect.as_slice());
        let mut def = None;
        inst.for_each_def(|r| def = Some(r.flat_index() as u8));
        assert_eq!(u.def, def.unwrap());
        assert_eq!(u.class, InstClass::VectorAlu);
        assert_eq!(u.fu, FuClass::Vector);
        assert!(!u.is_cond_branch);
        assert!(!u.touches_mem);
    }

    #[test]
    fn every_instruction_class_gets_consistent_records() {
        // A program touching every class; decode must agree with the
        // dynamic for_each_* walk on each one.
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 4);
        b.alu_rr(SAluOp::Mul, X1, X0, X0);
        b.load(X2, X0, 0, MemSize::B8);
        b.store(X2, X0, 8, MemSize::B8);
        b.ptrue(P0, ElemSize::B64);
        b.index(V0, X0, 1, ElemSize::B64);
        b.vgather(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.vscatter(V1, X0, V0, P0, ElemSize::B64, MemSize::B8, 8);
        b.vreduce(RedOp::Add, X3, V1, P0, ElemSize::B64);
        b.qzload(V2, V0, QBufSel::Q0, P0);
        b.qzcount(V3, V2, V2);
        b.halt();
        let p = b.build().unwrap();
        let pre = Predecode::of(&p);
        assert_eq!(pre.len(), p.len());
        for (pc, inst) in p.instructions().iter().enumerate() {
            let u = pre.op(pc);
            assert_eq!(u.class, inst.class(), "class at pc {pc}");
            let mut uses = Vec::new();
            inst.for_each_use(|r| uses.push(r.flat_index() as u8));
            assert_eq!(u.uses(), uses.as_slice(), "uses at pc {pc}");
            assert_eq!(
                u.is_cond_branch,
                matches!(inst, Instruction::Branch { .. }),
                "branch-ness at pc {pc}"
            );
        }
    }

    #[test]
    fn cond_branch_flag_distinguishes_branch_from_jump() {
        let br = Instruction::Branch {
            cond: BranchCond::Lt,
            rn: X0,
            rm: X1,
            target: 0,
        };
        let jmp = Instruction::Jump { target: 0 };
        assert!(MicroOp::decode(&br).is_cond_branch);
        assert!(!MicroOp::decode(&jmp).is_cond_branch);
        assert_eq!(MicroOp::decode(&jmp).class, InstClass::Branch);
    }

    #[test]
    fn cache_hits_by_program_identity_and_stays_bounded() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.mov_imm(X0, 1);
            b.halt();
            b.build().unwrap()
        };
        let mut cache = DecodeCache::default();
        let p = build();
        cache.get(&p);
        cache.get(&p.clone()); // clone shares the id -> no new entry
        assert_eq!(cache.len(), 1);
        for _ in 0..(DecodeCache::CAPACITY * 2) {
            cache.get(&build());
        }
        assert!(
            cache.len() <= DecodeCache::CAPACITY,
            "cache must stay bounded"
        );

        // More distinct programs than the cache holds, revisited in an
        // interleaved order across flushes, half of them decoded first
        // by a sibling cache sharing the registry. Every table served —
        // local, cached, or shared — must hold exactly the reference
        // decode of its own program at every pc: a stale or misindexed
        // table fails here.
        let program = |i: usize| {
            let mut b = ProgramBuilder::new();
            let top = b.label();
            b.bind(top);
            for j in 0..1 + i % 11 {
                let (k, r) = (i + 3 * j, ((i + j) % 16) as u8);
                let (x, v) = (XReg::new(r), VReg::new(r));
                match k % 8 {
                    0 => b.mov_imm(x, k as i64),
                    1 => b.alu_rr(SAluOp::Mul, x, X1, x),
                    2 => b.load(x, X2, 8, MemSize::B4),
                    3 => b.vstore(v, X3, P1, ElemSize::B16),
                    4 => b.vgather(v, X4, V1, P0, ElemSize::B64, MemSize::B8, 8),
                    5 => b.branch(BranchCond::Ne, x, X0, top),
                    6 => b.qzload(v, V2, QBufSel::Q1, P2),
                    _ => b.vreduce(RedOp::Max, x, v, P3, ElemSize::B8),
                };
            }
            b.halt();
            b.build().unwrap()
        };
        let programs: Vec<Program> = (0..DecodeCache::CAPACITY + 29).map(program).collect();
        let registry = PredecodeRegistry::new();
        let mut sibling = DecodeCache::default();
        let mut shared = DecodeCache::default();
        sibling.set_registry(registry.clone());
        shared.set_registry(registry);
        let mut local = DecodeCache::default();
        let n = programs.len();
        for visit in 0..3 * n {
            let p = &programs[(visit * 37) % n];
            if visit % 2 == 0 {
                sibling.get(p);
            }
            for cache in [&mut shared, &mut local] {
                let table = cache.get(p);
                assert_eq!(table.len(), p.len(), "table length, visit {visit}");
                for (pc, inst) in p.instructions().iter().enumerate() {
                    assert_eq!(
                        *table.op(pc),
                        MicroOp::decode(inst),
                        "visit {visit} pc {pc}"
                    );
                }
            }
        }
        assert!(shared.len() <= DecodeCache::CAPACITY);
        assert!(local.len() <= DecodeCache::CAPACITY);
    }

    #[test]
    fn registry_shares_one_table_across_caches() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(X0, 1);
        b.halt();
        let p = b.build().unwrap();

        let registry = PredecodeRegistry::new();
        let mut a = DecodeCache::default();
        let mut c = DecodeCache::default();
        a.set_registry(registry.clone());
        c.set_registry(registry.clone());
        let ta = a.get(&p) as *const Predecode;
        let tc = c.get(&p) as *const Predecode;
        assert_eq!(ta, tc, "both caches must hold the same shared table");
        assert_eq!(registry.len(), 1);

        // Sharing must not change the table itself.
        let local = Predecode::of(&p);
        assert_eq!(local.len(), a.get(&p).len());
        assert_eq!(local.op(0), a.get(&p).op(0));
    }

    #[test]
    fn registry_stays_bounded() {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.mov_imm(X0, 1);
            b.halt();
            b.build().unwrap()
        };
        let registry = PredecodeRegistry::new();
        for _ in 0..(DecodeCache::CAPACITY * 2) {
            registry.get_or_decode(&build());
        }
        assert!(registry.len() <= DecodeCache::CAPACITY);
        assert!(!registry.is_empty());
    }
}
