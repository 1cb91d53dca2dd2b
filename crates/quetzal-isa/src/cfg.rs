//! Control-flow graph recovery from resolved branch targets.
//!
//! Programs in this ISA carry resolved instruction-index targets, so
//! the CFG is recoverable without symbolic execution: block leaders are
//! the entry, every in-range branch/jump target, and every instruction
//! after a control transfer. The graph deliberately models *leaving the
//! program* as an explicit successor ([`Succ::OutOfProgram`]) rather
//! than dropping the edge — running off the end of a truncated image or
//! taking a corrupted target is exactly what the simulator surfaces as
//! `SimError::DecodeError`, and the `quetzal-verify` dataflow pass
//! turns these edges into source-located diagnostics.

use crate::inst::Instruction;
use crate::program::Program;

/// A successor edge of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Succ {
    /// Control continues at the start of another block (index into
    /// [`Cfg::blocks`]).
    Block(usize),
    /// Control leaves the program: the next program counter is outside
    /// `0..len`, which decodes to a runtime fault.
    OutOfProgram {
        /// The out-of-range program counter.
        target: usize,
    },
}

/// A maximal straight-line instruction sequence `start..end` (end
/// exclusive) with control entering only at `start` and leaving only
/// after `end - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgBlock {
    /// First instruction index of the block.
    pub start: usize,
    /// One past the last instruction index of the block.
    pub end: usize,
    /// Successor edges out of the block's last instruction.
    pub succs: Vec<Succ>,
}

impl CfgBlock {
    /// The program counters the block covers.
    pub fn pcs(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// A natural loop: the blocks of every dominator back edge sharing one
/// header, merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Block index of the loop header (the back-edge target, which
    /// dominates every block in the body).
    pub header: usize,
    /// `body[b]` is true when block `b` belongs to the loop (the
    /// header included).
    pub body: Vec<bool>,
}

impl NaturalLoop {
    /// Whether block `b` is inside the loop.
    pub fn contains(&self, b: usize) -> bool {
        self.body.get(b).copied().unwrap_or(false)
    }
}

/// The natural loops of a CFG plus a reducibility verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// One entry per loop header, ordered by header block index.
    pub loops: Vec<NaturalLoop>,
    /// True when a reachable cycle survives after removing every
    /// dominator back edge — such a cycle has no unique header, so no
    /// per-loop trip count exists.
    pub irreducible: bool,
}

/// The recovered control-flow graph of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<CfgBlock>,
}

impl Cfg {
    /// Recovers the CFG of an instruction image. An empty image yields
    /// an empty graph.
    pub fn of(insts: &[Instruction]) -> Cfg {
        let len = insts.len();
        if len == 0 {
            return Cfg { blocks: Vec::new() };
        }

        // Leaders: entry, in-range targets, instruction after control.
        let mut leader = vec![false; len];
        leader[0] = true;
        for (pc, inst) in insts.iter().enumerate() {
            if inst.is_control() {
                if pc + 1 < len {
                    leader[pc + 1] = true;
                }
                if let Some(target) = inst.branch_target() {
                    if target < len {
                        leader[target] = true;
                    }
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; len];
        let mut start = 0;
        for pc in 0..len {
            block_of[pc] = blocks.len();
            let last_of_block = pc + 1 == len || leader[pc + 1];
            if last_of_block {
                blocks.push(CfgBlock {
                    start,
                    end: pc + 1,
                    succs: Vec::new(),
                });
                start = pc + 1;
            }
        }

        // Successor edges from each block's terminating instruction.
        let edge = |target: usize| {
            if target < len {
                Succ::Block(block_of[target])
            } else {
                Succ::OutOfProgram { target }
            }
        };
        for block in &mut blocks {
            let last = block.end - 1;
            match insts[last] {
                Instruction::Halt => {}
                Instruction::Jump { target } => block.succs.push(edge(target)),
                Instruction::Branch { target, .. } => {
                    block.succs.push(edge(last + 1));
                    let taken = edge(target);
                    if block.succs[0] != taken {
                        block.succs.push(taken);
                    }
                }
                _ => block.succs.push(edge(last + 1)),
            }
        }

        Cfg { blocks }
    }

    /// Recovers the CFG of a program.
    pub fn build(program: &Program) -> Cfg {
        Cfg::of(program.instructions())
    }

    /// The basic blocks, ordered by start pc.
    pub fn blocks(&self) -> &[CfgBlock] {
        &self.blocks
    }

    /// Per-block predecessor lists over in-program edges (the reverse
    /// of [`CfgBlock::succs`], ignoring out-of-program edges).
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            for succ in &block.succs {
                if let Succ::Block(s) = *succ {
                    preds[s].push(b);
                }
            }
        }
        preds
    }

    /// Dominator sets over reachable blocks: `dom[b][d]` is true when
    /// every path from the entry to `b` passes through `d` (reflexive).
    /// Unreachable blocks get an empty (all-false) set.
    ///
    /// The classic iterative data-flow formulation — quadratic in the
    /// worst case, and the recovered kernels are a few dozen blocks.
    pub fn dominators(&self) -> Vec<Vec<bool>> {
        let n = self.blocks.len();
        let reached = self.reachable();
        let preds = self.predecessors();
        let mut dom = vec![vec![false; n]; n];
        if n == 0 {
            return dom;
        }
        // Entry dominates itself; everything reachable starts at "all".
        for (b, set) in dom.iter_mut().enumerate() {
            if b == 0 {
                set[0] = true;
            } else if reached[b] {
                set.iter_mut().for_each(|d| *d = true);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                if !reached[b] {
                    continue;
                }
                let mut meet = vec![true; n];
                let mut any = false;
                for &p in preds[b].iter().filter(|&&p| reached[p]) {
                    any = true;
                    for (m, d) in meet.iter_mut().zip(&dom[p]) {
                        *m &= d;
                    }
                }
                if !any {
                    meet.iter_mut().for_each(|d| *d = false);
                }
                meet[b] = true;
                if meet != dom[b] {
                    dom[b] = meet;
                    changed = true;
                }
            }
        }
        for (b, set) in dom.iter_mut().enumerate() {
            if !reached[b] {
                set.iter_mut().for_each(|d| *d = false);
            }
        }
        dom
    }

    /// Natural-loop recovery: one [`NaturalLoop`] per loop header (back
    /// edges sharing a header are merged), plus an `irreducible` flag
    /// when the graph has a cycle not explained by dominator back edges
    /// (such cycles have no unique header, so no trip count can be
    /// attributed — callers must treat the program as unbounded).
    pub fn loop_info(&self) -> LoopInfo {
        let n = self.blocks.len();
        let reached = self.reachable();
        let preds = self.predecessors();
        let dom = self.dominators();
        let mut by_header: Vec<Option<Vec<bool>>> = vec![None; n];
        let mut back_edges = vec![Vec::new(); n];
        for (u, block) in self.blocks.iter().enumerate() {
            if !reached[u] {
                continue;
            }
            for succ in &block.succs {
                let Succ::Block(v) = *succ else { continue };
                if dom[u][v] {
                    back_edges[u].push(v);
                    // Natural loop of u→v: v, u, and everything that
                    // reaches u without passing through v.
                    let body = by_header[v].get_or_insert_with(|| vec![false; n]);
                    body[v] = true;
                    if !body[u] {
                        body[u] = true;
                        let mut stack = vec![u];
                        while let Some(x) = stack.pop() {
                            for &p in preds[x].iter().filter(|&&p| reached[p]) {
                                if !body[p] {
                                    body[p] = true;
                                    stack.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Reducibility: removing the dominator back edges must leave
        // the reachable subgraph acyclic.
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut irreducible = false;
        for root in 0..n {
            if !reached[root] || state[root] != 0 {
                continue;
            }
            // Iterative DFS with an explicit edge cursor.
            let mut stack = vec![(root, 0usize)];
            state[root] = 1;
            while let Some(&(b, cursor)) = stack.last() {
                let succs = &self.blocks[b].succs;
                let mut pushed = None;
                let mut next = cursor;
                while next < succs.len() {
                    let edge = next;
                    next += 1;
                    let Succ::Block(s) = succs[edge] else {
                        continue;
                    };
                    if back_edges[b].contains(&s) {
                        continue; // dominator back edge: removed
                    }
                    match state[s] {
                        0 => {
                            pushed = Some(s);
                            break;
                        }
                        1 => irreducible = true,
                        _ => {}
                    }
                }
                stack.last_mut().expect("stack is non-empty").1 = next;
                match pushed {
                    Some(s) => {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                    None => {
                        state[b] = 2;
                        stack.pop();
                    }
                }
            }
        }
        let loops = by_header
            .into_iter()
            .enumerate()
            .filter_map(|(header, body)| body.map(|body| NaturalLoop { header, body }))
            .collect();
        LoopInfo { loops, irreducible }
    }

    /// Per-block reachability from the entry block (block 0). Empty for
    /// an empty program.
    pub fn reachable(&self) -> Vec<bool> {
        let mut reached = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return reached;
        }
        let mut stack = vec![0usize];
        reached[0] = true;
        while let Some(b) = stack.pop() {
            for succ in &self.blocks[b].succs {
                if let Succ::Block(s) = *succ {
                    if !reached[s] {
                        reached[s] = true;
                        stack.push(s);
                    }
                }
            }
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::aliases::*;
    use crate::{BranchCond, SAluOp};

    fn loop_program() -> Program {
        // 0: mov x0, #0
        // 1: mov x2, #10      <- loop head (leader)
        // 2: add x0, x0, #1   (same block as 1)
        // 3: b.lt x0, x2, @1
        // 4: halt
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.mov_imm(X0, 0);
        b.bind(top);
        b.mov_imm(X2, 10);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X2, top);
        b.halt();
        b.build().expect("loop kernel")
    }

    #[test]
    fn loop_blocks_and_edges() {
        let cfg = Cfg::build(&loop_program());
        let blocks = cfg.blocks();
        assert_eq!(blocks.len(), 3);
        assert_eq!((blocks[0].start, blocks[0].end), (0, 1));
        assert_eq!((blocks[1].start, blocks[1].end), (1, 4));
        assert_eq!((blocks[2].start, blocks[2].end), (4, 5));
        assert_eq!(blocks[0].succs, vec![Succ::Block(1)]);
        assert_eq!(blocks[1].succs, vec![Succ::Block(2), Succ::Block(1)]);
        assert!(blocks[2].succs.is_empty());
        assert_eq!(cfg.reachable(), vec![true; 3]);
    }

    #[test]
    fn truncated_image_falls_off_the_end() {
        let p = Program::from_raw(
            vec![Instruction::MovImm { rd: X0, imm: 1 }],
            "truncated-cfg",
        );
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(
            cfg.blocks()[0].succs,
            vec![Succ::OutOfProgram { target: 1 }]
        );
    }

    #[test]
    fn out_of_range_target_is_an_explicit_edge() {
        let p = Program::from_raw(
            vec![Instruction::Jump { target: 7 }, Instruction::Halt],
            "wild-jump",
        );
        let cfg = Cfg::build(&p);
        assert_eq!(
            cfg.blocks()[0].succs,
            vec![Succ::OutOfProgram { target: 7 }]
        );
        // The halt after the jump is its own, unreachable block.
        assert_eq!(cfg.reachable(), vec![true, false]);
    }

    #[test]
    fn empty_image_has_no_blocks() {
        let cfg = Cfg::of(&[]);
        assert!(cfg.blocks().is_empty());
        assert!(cfg.reachable().is_empty());
    }

    #[test]
    fn natural_loop_recovery_on_the_counted_loop() {
        let cfg = Cfg::build(&loop_program());
        let info = cfg.loop_info();
        assert!(!info.irreducible);
        assert_eq!(info.loops.len(), 1);
        let l = &info.loops[0];
        assert_eq!(l.header, 1);
        assert_eq!(l.body, vec![false, true, false]);
        let dom = cfg.dominators();
        assert!(dom[2][0] && dom[2][1] && dom[2][2]);
        assert_eq!(cfg.predecessors()[1], vec![0, 1]);
    }

    #[test]
    fn nested_loops_get_one_entry_per_header() {
        // outer: inner runs to 4, then outer backs to 0.
        let mut b = ProgramBuilder::new();
        let outer = b.label();
        let inner = b.label();
        b.bind(outer);
        b.mov_imm(X1, 0);
        b.bind(inner);
        b.alu_ri(SAluOp::Add, X1, X1, 1);
        b.branch(BranchCond::Lt, X1, X2, inner);
        b.alu_ri(SAluOp::Add, X0, X0, 1);
        b.branch(BranchCond::Lt, X0, X3, outer);
        b.halt();
        let cfg = Cfg::build(&b.build().expect("nested loops"));
        let info = cfg.loop_info();
        assert!(!info.irreducible);
        assert_eq!(info.loops.len(), 2);
        let headers: Vec<usize> = info.loops.iter().map(|l| l.header).collect();
        assert_eq!(headers, vec![0, 1]);
        // The inner loop body is strictly inside the outer body.
        let (outer_l, inner_l) = (&info.loops[0], &info.loops[1]);
        for (b, &inside) in inner_l.body.iter().enumerate() {
            if inside {
                assert!(outer_l.contains(b), "inner block {b} outside outer loop");
            }
        }
        assert!(
            outer_l.body.iter().filter(|&&x| x).count()
                > inner_l.body.iter().filter(|&&x| x).count()
        );
    }

    #[test]
    fn irreducible_cycle_is_flagged() {
        // Two blocks jumping into each other's middle with a branch
        // entering at both: classic irreducible region. Build raw:
        // 0: branch -> 3
        // 1: mov (A)
        // 2: jump 4
        // 3: mov (B)
        // 4: jump 1
        let p = Program::from_raw(
            vec![
                Instruction::Branch {
                    cond: BranchCond::Eq,
                    rn: X0,
                    rm: X1,
                    target: 3,
                },
                Instruction::MovImm { rd: X2, imm: 1 },
                Instruction::Jump { target: 4 },
                Instruction::MovImm { rd: X3, imm: 2 },
                Instruction::Jump { target: 1 },
            ],
            "irreducible",
        );
        let cfg = Cfg::build(&p);
        let info = cfg.loop_info();
        assert!(info.irreducible);
        assert!(info.loops.is_empty());
    }

    #[test]
    fn acyclic_graph_has_no_loops() {
        let p = Program::from_raw(
            vec![Instruction::MovImm { rd: X0, imm: 1 }, Instruction::Halt],
            "straight",
        );
        let info = Cfg::build(&p).loop_info();
        assert!(!info.irreducible);
        assert!(info.loops.is_empty());
    }

    #[test]
    fn branch_with_equal_targets_dedupes_edges() {
        // A branch whose taken target is the fallthrough.
        let p = Program::from_raw(
            vec![
                Instruction::Branch {
                    cond: BranchCond::Eq,
                    rn: X0,
                    rm: X0,
                    target: 1,
                },
                Instruction::Halt,
            ],
            "self-fallthrough",
        );
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks()[0].succs, vec![Succ::Block(1)]);
    }
}
