//! Octagonal relational domain over the scalar register file.
//!
//! The classic zone/octagon encoding (Miné): every tracked scalar
//! register `x_r` contributes two difference-bound variables,
//! `v⁺ = +x_r` and `v⁻ = -x_r`, and the matrix entry
//! `m[i][j] = c` asserts `v_i - v_j ≤ c` over the *signed* register
//! values. This closes over all constraints of the form
//! `±x_a ± x_b ≤ c` and `±x_a ≤ c` — exactly the relational facts the
//! trip-count pass needs (loop counter vs. bound, `lo`/`hi` wavefront
//! registers tracking the score register, pointer offsets).
//!
//! # Packing
//!
//! An octagon tracks only the registers the analysed program names
//! (reads or writes); a slot map gives each its `2k`/`2k+1` variable
//! pair, so the matrix is `vars × vars` with `vars = 2 × tracked`.
//! An untracked register reads as ⊤ and is never constrained. This is
//! exact, not merely sound: in a matrix over all 32 registers, an
//! unnamed register's rows and columns stay [`INF`] off the diagonal
//! from ⊤ onward, because no transfer assigns, refines or relates it
//! and every operation leaves such a row alone — `close_via` skips
//! rows whose pivot entry is [`INF`], `badd` absorbs [`INF`],
//! `strengthen` skips [`INF`] unary bounds, `assign_shift` maps
//! [`INF`] to [`INF`], and join and widening leave an [`INF`]/[`INF`]
//! pair as it is. The tracked sub-matrix therefore evolves entry for
//! entry as it would inside the full one. Octagons of one analysis
//! share one mask, so join and widening stay elementwise.
//!
//! # Wrap-around soundness
//!
//! Registers are 64-bit with wrapping arithmetic, while the matrix
//! speaks about mathematical integers. Every transfer that models an
//! arithmetic instruction therefore first proves, from the operand
//! intervals already in the matrix, that the mathematical result fits
//! in `i64` — otherwise the destination is forgotten (set to ⊤).
//! Comparison refinements need no such guard: `BranchCond` compares
//! signed register values directly, so the constraint is exact.
//!
//! Bounds are stored as `i64` with [`INF`] for "unconstrained";
//! arithmetic goes through `i128` and clamps *upward* (towards ⊤) on
//! overflow, which only ever weakens a bound and is therefore sound.

use quetzal_isa::BranchCond;

/// Number of scalar registers.
pub const REGS: usize = 32;
/// Slot-map entry of a register the octagon does not track.
const UNTRACKED: u8 = u8::MAX;
/// "No constraint" sentinel.
pub const INF: i64 = i64::MAX;
/// Finite bounds are clamped into `[-CLAMP, CLAMP]`; anything above
/// becomes [`INF`]. Keeps additions representable and is far beyond
/// any bound the trip-count pass can use.
const CLAMP: i64 = 1 << 61;

/// `v_i` for `-x` when given `+x` and vice versa.
#[inline]
fn bar(v: usize) -> usize {
    v ^ 1
}

/// Clamp an `i128` bound into the representable range, weakening
/// (raising) on overflow in either direction.
#[inline]
fn clamp(x: i128) -> i64 {
    if x > CLAMP as i128 {
        INF
    } else if x < -(CLAMP as i128) {
        -CLAMP
    } else {
        x as i64
    }
}

/// Saturating constraint addition: `INF` absorbs.
#[inline]
fn badd(a: i64, b: i64) -> i64 {
    if a == INF || b == INF {
        INF
    } else {
        clamp(a as i128 + b as i128)
    }
}

/// Widening thresholds (matrix entries, i.e. twice the register bound
/// for unary constraints). A growing entry jumps to the next rung
/// instead of straight to [`INF`]; combined with the narrowing passes
/// this keeps loop-counter ranges finite through the fixpoint.
const LADDER: [i64; 27] = [
    -CLAMP,
    -(1 << 48),
    -(1 << 40),
    -(1 << 32),
    -(1 << 24),
    -(1 << 20),
    -(1 << 16),
    -8192,
    -1024,
    -128,
    -32,
    -8,
    -2,
    0,
    2,
    8,
    32,
    128,
    1024,
    8192,
    1 << 16,
    1 << 20,
    1 << 24,
    1 << 32,
    1 << 40,
    1 << 48,
    CLAMP,
];

/// The octagon: a closed difference-bound matrix over the `±x`
/// variables of the registers it tracks. `Top` (freshly constructed)
/// has every off-diagonal entry at [`INF`].
#[derive(Clone, PartialEq, Eq)]
pub struct Octagon {
    /// Register → slot, or [`UNTRACKED`]; slot `k` owns matrix
    /// variables `2k` (`+x`) and `2k+1` (`-x`).
    slot: [u8; REGS],
    /// Matrix variables: two per tracked register.
    vars: usize,
    /// Row-major `vars × vars` bounds.
    m: Box<[i64]>,
}

impl std::fmt::Debug for Octagon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Octagon");
        for r in 0..REGS {
            if let (Some(lo), Some(hi)) = (self.lo(r), self.hi(r)) {
                s.field(&format!("x{r}"), &(lo..=hi));
            } else if self.lo(r).is_some() || self.hi(r).is_some() {
                s.field(&format!("x{r}"), &(self.lo(r), self.hi(r)));
            }
        }
        s.finish_non_exhaustive()
    }
}

impl Octagon {
    /// The unconstrained octagon over the registers in `regs` (bit `r`
    /// set means `x_r` is tracked). Every other register reads as ⊤
    /// and must never be constrained.
    pub fn top(regs: u32) -> Octagon {
        let mut slot = [UNTRACKED; REGS];
        let mut tracked = 0u8;
        for (r, s) in slot.iter_mut().enumerate() {
            if regs >> r & 1 == 1 {
                *s = tracked;
                tracked += 1;
            }
        }
        let vars = 2 * tracked as usize;
        let mut m = vec![INF; vars * vars].into_boxed_slice();
        for v in 0..vars {
            m[v * vars + v] = 0;
        }
        Octagon { slot, vars, m }
    }

    #[inline]
    fn tracks(&self, r: usize) -> bool {
        self.slot[r] != UNTRACKED
    }

    /// Matrix variable of `+x_r`.
    #[inline]
    fn pos(&self, r: usize) -> usize {
        debug_assert!(self.tracks(r), "x{r} is not tracked by this octagon");
        2 * self.slot[r] as usize
    }

    /// Matrix variable of `-x_r`.
    #[inline]
    fn neg(&self, r: usize) -> usize {
        self.pos(r) + 1
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> i64 {
        self.m[i * self.vars + j]
    }

    /// Overwrites `v_i - v_j ≤ c`.
    #[inline]
    fn set(&mut self, i: usize, j: usize, c: i64) {
        self.m[i * self.vars + j] = c;
    }

    /// Tightens `v_i - v_j ≤ c`.
    #[inline]
    fn put(&mut self, i: usize, j: usize, c: i64) {
        if c < self.get(i, j) {
            self.set(i, j, c);
        }
    }

    /// Incremental closure through the given pivot variables followed
    /// by the octagon strengthening step. Sound whenever the matrix was
    /// closed before the entries involving the pivots were tightened.
    fn close_via(&mut self, pivots: &[usize]) {
        for &p in pivots {
            for i in 0..self.vars {
                let via = self.get(i, p);
                if via == INF {
                    continue;
                }
                for j in 0..self.vars {
                    let c = badd(via, self.get(p, j));
                    if c < self.get(i, j) {
                        self.set(i, j, c);
                    }
                }
            }
        }
        self.strengthen();
    }

    /// Strengthening: `v_i - v_j ≤ (⌊(v_i - v_ī)⌋ + (v_j̄ - v_j))/2`,
    /// the unary-through-binary tightening valid for integer octagons.
    fn strengthen(&mut self) {
        for i in 0..self.vars {
            let ui = self.get(i, bar(i));
            if ui == INF {
                continue;
            }
            for j in 0..self.vars {
                let uj = self.get(bar(j), j);
                if uj == INF {
                    continue;
                }
                let c = badd(ui, uj);
                let half = if c == INF { INF } else { c.div_euclid(2) };
                if half < self.get(i, j) {
                    self.set(i, j, half);
                }
            }
        }
    }

    /// Adds `v_a - v_b ≤ c` (plus its coherent dual) and re-closes.
    fn constrain(&mut self, a: usize, b: usize, c: i64) {
        if a == b {
            return;
        }
        self.put(a, b, c);
        self.put(bar(b), bar(a), c);
        self.close_via(&[a, b, bar(a), bar(b)]);
    }

    /// Adds the relational fact `x_a - x_b ≤ c` over register indices
    /// (used for non-arithmetic facts like `min(s, t) ≤ s`).
    pub fn assert_diff_le(&mut self, a: usize, b: usize, c: i64) {
        self.constrain(self.pos(a), self.pos(b), c);
    }

    /// Drops every constraint mentioning register `r` (a no-op for an
    /// untracked register, which is ⊤ already).
    pub fn forget(&mut self, r: usize) {
        if !self.tracks(r) {
            return;
        }
        for v in [self.pos(r), self.neg(r)] {
            for k in 0..self.vars {
                self.set(v, k, INF);
                self.set(k, v, INF);
            }
            self.set(v, v, 0);
        }
    }

    /// Largest provable signed value of register `r`.
    pub fn hi(&self, r: usize) -> Option<i64> {
        if !self.tracks(r) {
            return None;
        }
        let c = self.get(self.pos(r), self.neg(r));
        (c != INF).then(|| c.div_euclid(2))
    }

    /// Smallest provable signed value of register `r`.
    pub fn lo(&self, r: usize) -> Option<i64> {
        if !self.tracks(r) {
            return None;
        }
        let c = self.get(self.neg(r), self.pos(r));
        (c != INF).then(|| -c.div_euclid(2))
    }

    /// `x_r := c`.
    pub fn assign_const(&mut self, r: usize, c: i64) {
        self.forget(r);
        let (p, n) = (self.pos(r), self.neg(r));
        self.set(p, n, clamp(2 * c as i128));
        self.set(n, p, clamp(-2 * c as i128));
        // Re-strengthen so sum/difference constraints against other
        // bounded registers materialize (e.g. `x_a + x_b ≤ ha + hb`).
        self.strengthen();
    }

    /// `x_r := [lo, hi]` (either side may be unknown).
    pub fn assign_range(&mut self, r: usize, lo: Option<i64>, hi: Option<i64>) {
        self.forget(r);
        let (p, n) = (self.pos(r), self.neg(r));
        if let Some(h) = hi {
            self.set(p, n, clamp(2 * h as i128));
        }
        if let Some(l) = lo {
            self.set(n, p, clamp(-2 * l as i128));
        }
        self.strengthen();
    }

    /// Whether `x + c` provably avoids signed wrap-around for every
    /// value the matrix admits for `x`.
    fn shift_fits(&self, r: usize, c: i64) -> bool {
        if c == 0 {
            return true;
        }
        if c > 0 {
            match self.hi(r) {
                Some(h) => (h as i128 + c as i128) <= i64::MAX as i128,
                None => false,
            }
        } else {
            match self.lo(r) {
                Some(l) => (l as i128 + c as i128) >= i64::MIN as i128,
                None => false,
            }
        }
    }

    /// `x_r := x_r + c` (in place): translates every constraint on `r`
    /// when wrap-around is provably absent, else forgets `r`.
    pub fn assign_shift(&mut self, r: usize, c: i64) {
        // `i64::MIN` shifts can be wrap-free (for a non-negative
        // register) but their arc weights need `-c`, which is not
        // representable — forget rather than overflow.
        if c == i64::MIN || !self.shift_fits(r, c) {
            self.forget(r);
            return;
        }
        if c == 0 {
            return;
        }
        let (p, n) = (self.pos(r), self.neg(r));
        for k in 0..self.vars {
            if k == p || k == n {
                continue;
            }
            self.set(p, k, badd(self.get(p, k), c));
            self.set(k, p, badd(self.get(k, p), -c));
            self.set(n, k, badd(self.get(n, k), -c));
            self.set(k, n, badd(self.get(k, n), c));
        }
        self.set(p, n, badd(self.get(p, n), badd(c, c)));
        self.set(n, p, badd(self.get(n, p), badd(-c, -c)));
    }

    /// `x_r := x_s + c` with `r ≠ s`: exact relational copy when
    /// wrap-around is provably absent (always, for `c = 0`).
    pub fn assign_copy_add(&mut self, r: usize, s: usize, c: i64) {
        if r == s {
            self.assign_shift(r, c);
            return;
        }
        // Same `-c` representability hazard as `assign_shift`.
        if c == i64::MIN || !self.shift_fits(s, c) {
            self.forget(r);
            return;
        }
        self.forget(r);
        let (pr, nr, ps, ns) = (self.pos(r), self.neg(r), self.pos(s), self.neg(s));
        self.set(pr, ps, c);
        self.set(ps, pr, -c);
        self.set(ns, nr, c);
        self.set(nr, ns, -c);
        // Pivots must cover every endpoint of the new arcs: a new
        // shortest path alternates closed old segments with new arcs,
        // so its junctions all lie in {r, s}'s variables.
        self.close_via(&[pr, ps, nr, ns]);
    }

    /// `x_r := x_s + x_t` (`add = true`) or `x_r := x_s - x_t`
    /// (`add = false`). Keeps the derivable difference and sum
    /// constraints when the mathematical result provably fits `i64`,
    /// else forgets `r`.
    pub fn assign_arith_rr(&mut self, r: usize, s: usize, t: usize, add: bool) {
        let (ls, hs) = (self.lo(s), self.hi(s));
        let (lt_raw, ht_raw) = (self.lo(t), self.hi(t));
        // For subtraction, operate on the interval of -t.
        let (lt, ht) = if add {
            (lt_raw, ht_raw)
        } else {
            (ht_raw.map(|h| -h), lt_raw.map(|l| -l))
        };
        // The mathematical result must fit i64 on both sides.
        let fits = match (ls, hs, lt, ht) {
            (Some(ls), Some(hs), Some(lt), Some(ht)) => {
                (ls as i128 + lt as i128) >= i64::MIN as i128
                    && (hs as i128 + ht as i128) <= i64::MAX as i128
            }
            _ => false,
        };
        if !fits {
            self.forget(r);
            return;
        }
        let aliased = r == s || r == t;
        self.forget(r);
        let (pr, nr) = (self.pos(r), self.neg(r));
        let lo_r = ls.zip(lt).map(|(a, b)| clamp(a as i128 + b as i128));
        let hi_r = hs.zip(ht).map(|(a, b)| clamp(a as i128 + b as i128));
        if let Some(h) = hi_r {
            self.set(pr, nr, clamp(2 * h as i128));
        }
        if let Some(l) = lo_r {
            self.set(nr, pr, clamp(-2 * l as i128));
        }
        if aliased {
            self.strengthen();
            return;
        }
        let (ps, ns, pt, nt) = (self.pos(s), self.neg(s), self.pos(t), self.neg(t));
        // r - s ≤ hi(±t), s - r ≤ -lo(±t).
        if s != t {
            if let Some(h) = ht {
                self.put(pr, ps, h);
                self.put(ns, nr, h);
            }
            if let Some(l) = lt {
                self.put(ps, pr, -l);
                self.put(nr, ns, -l);
            }
            // Against the other operand: for add, r - t ≤ hi(s); for
            // sub, r + t ≤ hi(s) and -r - t ≤ -lo(s). Both cases are
            // the same constraint pair on `tp` = (+t for add, -t for
            // sub) by the octagon's ± encoding.
            let tp = if add { pt } else { nt };
            if let Some(h) = hs {
                self.put(pr, tp, h);
                self.put(bar(tp), nr, h);
            }
            if let Some(l) = ls {
                self.put(tp, pr, -l);
                self.put(nr, bar(tp), -l);
            }
        }
        // All endpoints of the new arcs (r, s, t variables) must pivot.
        self.close_via(&[pr, ps, pt, nr, ns, nt]);
    }

    /// Refines with the branch condition `cond(x_rn, x_rm)` holding
    /// (`taken = true`) or failing (`taken = false`). Exact: the
    /// simulator compares signed values.
    pub fn refine_branch(&mut self, cond: BranchCond, rn: usize, rm: usize, taken: bool) {
        use BranchCond::*;
        if rn == rm {
            return;
        }
        // Normalize to the condition that actually holds on this edge.
        let holds = if taken {
            cond
        } else {
            match cond {
                Eq => Ne,
                Ne => Eq,
                Lt => Ge,
                Le => Gt,
                Gt => Le,
                Ge => Lt,
            }
        };
        let (n, m) = (self.pos(rn), self.pos(rm));
        match holds {
            Ne => {}
            Eq => {
                self.constrain(n, m, 0);
                self.constrain(m, n, 0);
            }
            Lt => self.constrain(n, m, -1),
            Le => self.constrain(n, m, 0),
            Gt => self.constrain(m, n, -1),
            Ge => self.constrain(m, n, 0),
        }
    }

    /// Pointwise least upper bound; returns whether `self` changed.
    pub fn join_from(&mut self, other: &Octagon) -> bool {
        debug_assert_eq!(self.slot, other.slot, "join across register masks");
        let mut changed = false;
        for (a, &b) in self.m.iter_mut().zip(other.m.iter()) {
            if b > *a {
                *a = b;
                changed = true;
            }
        }
        changed
    }

    /// Widening: any entry the candidate would raise jumps to the next
    /// `LADDER` rung (then [`INF`]). Strictly increasing along a
    /// finite ladder, so fixpoints with widening terminate. Returns
    /// whether `self` changed.
    pub fn widen_from(&mut self, other: &Octagon) -> bool {
        debug_assert_eq!(self.slot, other.slot, "widen across register masks");
        let mut changed = false;
        for (a, &b) in self.m.iter_mut().zip(other.m.iter()) {
            if b > *a {
                *a = LADDER.iter().copied().find(|&t| t >= b).unwrap_or(INF);
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_genomics::rng::SplitMix64;

    #[test]
    fn const_and_copy_track_exact_values() {
        let mut o = Octagon::top(u32::MAX);
        o.assign_const(3, 10);
        assert_eq!((o.lo(3), o.hi(3)), (Some(10), Some(10)));
        o.assign_copy_add(4, 3, -2);
        assert_eq!((o.lo(4), o.hi(4)), (Some(8), Some(8)));
        // Relational: x4 - x3 = -2 survives a later range widening of
        // neither register.
        o.assign_shift(3, 5);
        assert_eq!((o.lo(3), o.hi(3)), (Some(15), Some(15)));
    }

    #[test]
    fn extreme_negative_shift_forgets_instead_of_overflowing() {
        // x := x + i64::MIN is wrap-free for a non-negative register,
        // so `shift_fits` accepts it — but the arc encoding needs
        // `-i64::MIN`. Both shift forms must degrade to ⊤, not panic.
        let mut o = Octagon::top(u32::MAX);
        o.assign_const(2, 10);
        o.assign_shift(2, i64::MIN);
        assert_eq!((o.lo(2), o.hi(2)), (None, None));
        o.assign_const(3, 10);
        o.assign_copy_add(4, 3, i64::MIN);
        assert_eq!((o.lo(4), o.hi(4)), (None, None));
        assert_eq!(o.hi(3), Some(10), "source register must survive");
    }

    #[test]
    fn branch_refinement_caps_counter_by_constant_bound() {
        let mut o = Octagon::top(u32::MAX);
        o.assign_const(1, 100); // bound register
        o.forget(0); // counter unknown
        o.refine_branch(BranchCond::Lt, 0, 1, true);
        assert_eq!(o.hi(0), Some(99));
        assert_eq!(o.lo(0), None);
        o.refine_branch(BranchCond::Ge, 0, 2, false); // ¬(x0 ≥ x2) = x0 < x2
        o.assign_const(2, 0);
        // x2 assigned after refinement: relation to x0 is gone.
        assert_eq!(o.hi(0), Some(99));
    }

    #[test]
    fn sum_invariant_survives_paired_shifts() {
        // x7 + x6 ≥ 0 must survive x6 += 1; x7 -= 1 (the WFA lo/score
        // invariant).
        let mut o = Octagon::top(u32::MAX);
        o.assign_const(6, 0);
        o.assign_const(7, 0);
        for _ in 0..3 {
            o.assign_shift(6, 1);
            o.assign_shift(7, -1);
        }
        assert_eq!((o.lo(6), o.hi(6)), (Some(3), Some(3)));
        assert_eq!((o.lo(7), o.hi(7)), (Some(-3), Some(-3)));
        // Now make x6 range over [0, 100] via join and check -x7 ≤ x6
        // style reasoning after a refinement caps x6.
        let mut base = Octagon::top(u32::MAX);
        base.assign_const(6, 0);
        base.assign_const(7, 0);
        let mut j = base.clone();
        j.join_from(&o);
        // After the join: 0 ≤ x6 ≤ 3, -3 ≤ x7 ≤ 0, and x6 + x7 = 0.
        assert_eq!((j.lo(6), j.hi(6)), (Some(0), Some(3)));
        assert_eq!((j.lo(7), j.hi(7)), (Some(-3), Some(0)));
        // The sum constraint: capping x6 must re-bound x7 from below.
        j.assign_const(5, 1);
        j.refine_branch(BranchCond::Le, 6, 5, true);
        assert_eq!(j.lo(7), Some(-1));
    }

    #[test]
    fn sub_assignment_bounds_difference() {
        let mut o = Octagon::top(u32::MAX);
        o.assign_range(8, Some(0), Some(5)); // hi
        o.assign_range(11, Some(-3), Some(5)); // k
        o.assign_arith_rr(13, 8, 11, false); // x13 = x8 - x11
        assert_eq!((o.lo(13), o.hi(13)), (Some(-5), Some(8)));
    }

    #[test]
    fn wrapping_add_forgets_instead_of_lying() {
        let mut o = Octagon::top(u32::MAX);
        o.forget(0);
        o.assign_shift(0, 1); // unbounded counter: +1 may wrap
        assert_eq!((o.lo(0), o.hi(0)), (None, None));
        o.assign_const(1, 1000);
        o.assign_shift(1, 50); // provably fits
        assert_eq!(o.hi(1), Some(1050));
        o.assign_shift(1, i64::MAX - 1000); // would cross i64::MAX
        assert_eq!((o.lo(1), o.hi(1)), (None, None));
    }

    #[test]
    fn widening_climbs_the_ladder_and_terminates() {
        let mut a = Octagon::top(u32::MAX);
        a.assign_const(0, 0);
        let mut b = a.clone();
        b.assign_shift(0, 1);
        assert!(a.widen_from(&b));
        assert_eq!(a.lo(0), Some(0)); // lower bound did not grow
                                      // Upper bound jumped to a ladder rung ≥ 1, not to the exact 1.
        let rung = a.hi(0).expect("ladder keeps the bound finite");
        assert!(rung >= 1);
        let c = a.clone();
        assert!(!a.widen_from(&c));
        // Repeated widening against ever-growing states terminates.
        let mut probe = Octagon::top(u32::MAX);
        probe.assign_const(0, 0);
        let mut steps = 0usize;
        loop {
            let mut grown = probe.clone();
            grown.assign_shift(0, 1);
            if grown.hi(0).is_none() {
                break; // shift on an unbounded value forgets: done
            }
            if !probe.widen_from(&grown) {
                break;
            }
            steps += 1;
            assert!(steps < 100, "widening failed to terminate");
        }
    }

    /// One transfer, replayable on any octagon that tracks its
    /// registers.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Const(usize, i64),
        Range(usize, Option<i64>, Option<i64>),
        Shift(usize, i64),
        CopyAdd(usize, usize, i64),
        Arith(usize, usize, usize, bool),
        DiffLe(usize, usize, i64),
        Branch(BranchCond, usize, usize, bool),
        Forget(usize),
    }

    impl Op {
        fn apply(self, o: &mut Octagon) {
            match self {
                Op::Const(r, c) => o.assign_const(r, c),
                Op::Range(r, lo, hi) => o.assign_range(r, lo, hi),
                Op::Shift(r, c) => o.assign_shift(r, c),
                Op::CopyAdd(r, s, c) => o.assign_copy_add(r, s, c),
                Op::Arith(r, s, t, add) => o.assign_arith_rr(r, s, t, add),
                Op::DiffLe(a, b, c) => o.assert_diff_le(a, b, c),
                Op::Branch(cond, rn, rm, taken) => o.refine_branch(cond, rn, rm, taken),
                Op::Forget(r) => o.forget(r),
            }
        }
    }

    /// Mostly small values, with the overflow edges mixed in.
    fn value(rng: &mut SplitMix64) -> i64 {
        match rng.below(10) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => i64::MAX - rng.below(64) as i64,
            3 => i64::MIN + rng.below(64) as i64,
            4 => rng.next_u64() as i64,
            _ => rng.i64_in(-40, 40),
        }
    }

    fn random_op(rng: &mut SplitMix64, regs: &[usize]) -> Op {
        use BranchCond::*;
        let mut reg = || *rng.pick(regs);
        let (r, s, t) = (reg(), reg(), reg());
        match rng.below(9) {
            0 => Op::Const(r, value(rng)),
            1 => {
                let lo = rng.chance(0.8).then(|| rng.i64_in(-60, 60));
                let hi = rng.chance(0.8).then(|| rng.i64_in(-60, 60));
                Op::Range(r, lo, hi)
            }
            2 => Op::Shift(r, value(rng)),
            3 => Op::CopyAdd(r, s, value(rng)),
            4 => Op::Arith(r, s, t, rng.chance(0.5)),
            5 => Op::DiffLe(r, s, rng.i64_in(-20, 20)),
            6 | 7 => Op::Branch(*rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge]), r, s, rng.chance(0.5)),
            _ => Op::Forget(r),
        }
    }

    /// Every register's interval, and every bound between two tracked
    /// variables, is the same in the full and the packed octagon.
    fn assert_agree(full: &Octagon, packed: &Octagon, regs: &[usize], ctx: &dyn Fn() -> String) {
        for r in 0..REGS {
            assert_eq!(
                (full.lo(r), full.hi(r)),
                (packed.lo(r), packed.hi(r)),
                "x{r} after {}",
                ctx()
            );
        }
        let vars = |o: &Octagon, r: usize| [o.pos(r), o.neg(r)];
        for &a in regs {
            for &b in regs {
                for (fa, pa) in vars(full, a).into_iter().zip(vars(packed, a)) {
                    for (fb, pb) in vars(full, b).into_iter().zip(vars(packed, b)) {
                        assert_eq!(
                            full.get(fa, fb),
                            packed.get(pa, pb),
                            "x{a}/x{b} after {}",
                            ctx()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_octagon_matches_the_full_register_file() {
        // Random transfer sequences over a random register subset, run
        // once on the 32-register octagon and once on one that tracks
        // only the subset: the untracked rows stay ⊤ in the full one,
        // so the tracked sub-matrix must agree entry for entry. Every
        // eight steps the sequence forks: the main line runs on for
        // seven steps, the fork for one to four of its own, and the
        // fork is then joined or widened into the main line.
        let mut rng = SplitMix64::new(0x0C7A_6017);
        for seq in 0..160 {
            // Three words ANDed: about four registers, the median a
            // fault-sweep program names.
            let mask = loop {
                let m = (rng.next_u64() as u32) & (rng.next_u64() as u32) & (rng.next_u64() as u32);
                if m != 0 {
                    break m;
                }
            };
            let regs: Vec<usize> = (0..REGS).filter(|&r| mask >> r & 1 == 1).collect();
            let (mut full, mut packed) = (Octagon::top(u32::MAX), Octagon::top(mask));
            let mut trail: Vec<Op> = Vec::new();
            let mut fork = None;
            for step in 0..48 {
                if step % 8 == 0 {
                    fork = Some((full.clone(), packed.clone(), trail.clone()));
                }
                if step % 8 == 7 {
                    let (mut fork_full, mut fork_packed, mut fork_trail) =
                        fork.take().expect("forked at the start of the window");
                    for _ in 0..rng.below(4) + 1 {
                        let op = random_op(&mut rng, &regs);
                        op.apply(&mut fork_full);
                        op.apply(&mut fork_packed);
                        fork_trail.push(op);
                    }
                    let widen = rng.chance(0.5);
                    let changed = if widen {
                        (full.widen_from(&fork_full), packed.widen_from(&fork_packed))
                    } else {
                        (full.join_from(&fork_full), packed.join_from(&fork_packed))
                    };
                    let what = if widen { "widen" } else { "join" };
                    let ctx = || format!("seq {seq}: {what} of {trail:?} with {fork_trail:?}");
                    assert_eq!(changed.0, changed.1, "{}", ctx());
                    assert_agree(&full, &packed, &regs, &ctx);
                    continue;
                }
                let op = random_op(&mut rng, &regs);
                op.apply(&mut full);
                op.apply(&mut packed);
                trail.push(op);
                assert_agree(&full, &packed, &regs, &|| format!("seq {seq}: {trail:?}"));
            }
        }
    }

    #[test]
    fn packed_octagon_matches_on_an_infeasible_state() {
        // x3 = 5, x9 = 3, then x3 < x9: no value satisfies both, and
        // closure drives a diagonal entry negative. The packed octagon
        // must reach the same contradiction.
        let mask = 1 << 3 | 1 << 9;
        let regs = [3, 9];
        let (mut full, mut packed) = (Octagon::top(u32::MAX), Octagon::top(mask));
        for op in [
            Op::Const(3, 5),
            Op::Const(9, 3),
            Op::Branch(BranchCond::Lt, 3, 9, true),
        ] {
            op.apply(&mut full);
            op.apply(&mut packed);
            assert_agree(&full, &packed, &regs, &|| format!("{op:?}"));
        }
        let negative = |o: &Octagon| (0..o.vars).any(|v| o.get(v, v) < 0);
        assert!(negative(&full) && negative(&packed));
        // The contradiction stays confined to the tracked variables.
        assert!((2..REGS).filter(|r| mask >> r & 1 == 0).all(|r| {
            let v = full.pos(r);
            full.get(v, v) == 0 && full.lo(r).is_none()
        }));
    }

    #[test]
    fn untracked_registers_read_as_top() {
        let mut o = Octagon::top(1 << 4);
        o.assign_const(4, 7);
        o.forget(5);
        assert_eq!((o.lo(4), o.hi(4)), (Some(7), Some(7)));
        assert_eq!((o.lo(5), o.hi(5)), (None, None));
        assert_eq!(o.vars, 2);
        let none = Octagon::top(0);
        assert_eq!((none.vars, none.lo(0)), (0, None));
    }
}
