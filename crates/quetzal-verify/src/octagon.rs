//! Octagonal relational domain over the scalar register file.
//!
//! The classic zone/octagon encoding (Miné): every scalar register
//! `x_r` contributes two difference-bound variables, `v⁺ = +x_r` at
//! index `2r` and `v⁻ = -x_r` at index `2r+1`, and the matrix entry
//! `m[i][j] = c` asserts `v_i - v_j ≤ c` over the *signed* register
//! values. This closes over all constraints of the form
//! `±x_a ± x_b ≤ c` and `±x_a ≤ c` — exactly the relational facts the
//! trip-count pass needs (loop counter vs. bound, `lo`/`hi` wavefront
//! registers tracking the score register, pointer offsets).
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

/// Number of scalar registers tracked.
pub const REGS: usize = 32;
/// Difference-bound variables: two (±) per register.
const VARS: usize = 2 * REGS;
/// "No constraint" sentinel.
pub const INF: i64 = i64::MAX;
/// Finite bounds are clamped into `[-CLAMP, CLAMP]`; anything above
/// becomes [`INF`]. Keeps additions representable and is far beyond
/// any bound the trip-count pass can use.
const CLAMP: i64 = 1 << 61;

#[inline]
fn pos(r: usize) -> usize {
    2 * r
}

#[inline]
fn neg(r: usize) -> usize {
    2 * r + 1
}

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

/// The octagon: a closed difference-bound matrix over `VARS`
/// variables. `Top` (freshly constructed) has every off-diagonal entry
/// at [`INF`].
#[derive(Clone, PartialEq, Eq)]
pub struct Octagon {
    m: Box<[i64; VARS * VARS]>,
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

impl Default for Octagon {
    fn default() -> Self {
        Octagon::top()
    }
}

impl Octagon {
    /// The unconstrained octagon (every register may hold anything).
    pub fn top() -> Octagon {
        let mut m = Box::new([INF; VARS * VARS]);
        for v in 0..VARS {
            m[v * VARS + v] = 0;
        }
        Octagon { m }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> i64 {
        self.m[i * VARS + j]
    }

    #[inline]
    fn put(&mut self, i: usize, j: usize, c: i64) {
        let e = &mut self.m[i * VARS + j];
        if c < *e {
            *e = c;
        }
    }

    /// Incremental closure through the given pivot variables followed
    /// by the octagon strengthening step. Sound whenever the matrix was
    /// closed before the entries involving the pivots were tightened.
    fn close_via(&mut self, pivots: &[usize]) {
        for &p in pivots {
            for i in 0..VARS {
                let via = self.get(i, p);
                if via == INF {
                    continue;
                }
                for j in 0..VARS {
                    let c = badd(via, self.get(p, j));
                    if c < self.get(i, j) {
                        self.m[i * VARS + j] = c;
                    }
                }
            }
        }
        self.strengthen();
    }

    /// Strengthening: `v_i - v_j ≤ (⌊(v_i - v_ī)⌋ + (v_j̄ - v_j))/2`,
    /// the unary-through-binary tightening valid for integer octagons.
    fn strengthen(&mut self) {
        for i in 0..VARS {
            let ui = self.get(i, bar(i));
            if ui == INF {
                continue;
            }
            for j in 0..VARS {
                let uj = self.get(bar(j), j);
                if uj == INF {
                    continue;
                }
                let c = badd(ui, uj);
                let half = if c == INF { INF } else { c.div_euclid(2) };
                if half < self.get(i, j) {
                    self.m[i * VARS + j] = half;
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
        self.constrain(pos(a), pos(b), c);
    }

    /// Drops every constraint mentioning register `r`.
    pub fn forget(&mut self, r: usize) {
        for v in [pos(r), neg(r)] {
            for k in 0..VARS {
                self.m[v * VARS + k] = INF;
                self.m[k * VARS + v] = INF;
            }
            self.m[v * VARS + v] = 0;
        }
    }

    /// Largest provable signed value of register `r`.
    pub fn hi(&self, r: usize) -> Option<i64> {
        let c = self.get(pos(r), neg(r));
        (c != INF).then(|| c.div_euclid(2))
    }

    /// Smallest provable signed value of register `r`.
    pub fn lo(&self, r: usize) -> Option<i64> {
        let c = self.get(neg(r), pos(r));
        (c != INF).then(|| -c.div_euclid(2))
    }

    /// Caps register `r` from above (`x_r ≤ hi`) without forgetting.
    pub fn cap_hi(&mut self, r: usize, hi: i64) {
        self.put(pos(r), neg(r), clamp(2 * hi as i128));
        self.close_via(&[pos(r), neg(r)]);
    }

    /// Caps register `r` from below (`x_r ≥ lo`) without forgetting.
    pub fn cap_lo(&mut self, r: usize, lo: i64) {
        self.put(neg(r), pos(r), clamp(-2 * lo as i128));
        self.close_via(&[pos(r), neg(r)]);
    }

    /// `x_r := c`.
    pub fn assign_const(&mut self, r: usize, c: i64) {
        self.forget(r);
        self.m[pos(r) * VARS + neg(r)] = clamp(2 * c as i128);
        self.m[neg(r) * VARS + pos(r)] = clamp(-2 * c as i128);
        // Re-strengthen so sum/difference constraints against other
        // bounded registers materialize (e.g. `x_a + x_b ≤ ha + hb`).
        self.strengthen();
    }

    /// `x_r := [lo, hi]` (either side may be unknown).
    pub fn assign_range(&mut self, r: usize, lo: Option<i64>, hi: Option<i64>) {
        self.forget(r);
        if let Some(h) = hi {
            self.m[pos(r) * VARS + neg(r)] = clamp(2 * h as i128);
        }
        if let Some(l) = lo {
            self.m[neg(r) * VARS + pos(r)] = clamp(-2 * l as i128);
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
        let (p, n) = (pos(r), neg(r));
        for k in 0..VARS {
            if k == p || k == n {
                continue;
            }
            self.m[p * VARS + k] = badd(self.get(p, k), c);
            self.m[k * VARS + p] = badd(self.get(k, p), -c);
            self.m[n * VARS + k] = badd(self.get(n, k), -c);
            self.m[k * VARS + n] = badd(self.get(k, n), c);
        }
        self.m[p * VARS + n] = badd(self.get(p, n), badd(c, c));
        self.m[n * VARS + p] = badd(self.get(n, p), badd(-c, -c));
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
        self.m[pos(r) * VARS + pos(s)] = c;
        self.m[pos(s) * VARS + pos(r)] = -c;
        self.m[neg(s) * VARS + neg(r)] = c;
        self.m[neg(r) * VARS + neg(s)] = -c;
        // Pivots must cover every endpoint of the new arcs: a new
        // shortest path alternates closed old segments with new arcs,
        // so its junctions all lie in {r, s}'s variables.
        self.close_via(&[pos(r), pos(s), neg(r), neg(s)]);
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
        let lo_r = ls.zip(lt).map(|(a, b)| clamp(a as i128 + b as i128));
        let hi_r = hs.zip(ht).map(|(a, b)| clamp(a as i128 + b as i128));
        if let Some(h) = hi_r {
            self.m[pos(r) * VARS + neg(r)] = clamp(2 * h as i128);
        }
        if let Some(l) = lo_r {
            self.m[neg(r) * VARS + pos(r)] = clamp(-2 * l as i128);
        }
        if aliased {
            self.strengthen();
            return;
        }
        // r - s ≤ hi(±t), s - r ≤ -lo(±t).
        if s != t {
            if let Some(h) = ht {
                self.put(pos(r), pos(s), h);
                self.put(neg(s), neg(r), h);
            }
            if let Some(l) = lt {
                self.put(pos(s), pos(r), -l);
                self.put(neg(r), neg(s), -l);
            }
            // Against the other operand: for add, r - t ≤ hi(s); for
            // sub, r + t ≤ hi(s) and -r - t ≤ -lo(s). Both cases are
            // the same constraint pair on `tp` = (+t for add, -t for
            // sub) by the octagon's ± encoding.
            let tp = if add { pos(t) } else { neg(t) };
            if let Some(h) = hs {
                self.put(pos(r), tp, h);
                self.put(bar(tp), neg(r), h);
            }
            if let Some(l) = ls {
                self.put(tp, pos(r), -l);
                self.put(neg(r), bar(tp), -l);
            }
        }
        // All endpoints of the new arcs (r, s, t variables) must pivot.
        self.close_via(&[pos(r), pos(s), pos(t), neg(r), neg(s), neg(t)]);
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
        match holds {
            Ne => {}
            Eq => {
                self.constrain(pos(rn), pos(rm), 0);
                self.constrain(pos(rm), pos(rn), 0);
            }
            Lt => self.constrain(pos(rn), pos(rm), -1),
            Le => self.constrain(pos(rn), pos(rm), 0),
            Gt => self.constrain(pos(rm), pos(rn), -1),
            Ge => self.constrain(pos(rm), pos(rn), 0),
        }
    }

    /// Pointwise least upper bound; returns whether `self` changed.
    pub fn join_from(&mut self, other: &Octagon) -> bool {
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

    #[test]
    fn const_and_copy_track_exact_values() {
        let mut o = Octagon::top();
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
        let mut o = Octagon::top();
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
        let mut o = Octagon::top();
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
        let mut o = Octagon::top();
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
        let mut base = Octagon::top();
        base.assign_const(6, 0);
        base.assign_const(7, 0);
        let mut j = base.clone();
        j.join_from(&o);
        // After the join: 0 ≤ x6 ≤ 3, -3 ≤ x7 ≤ 0, and x6 + x7 = 0.
        assert_eq!((j.lo(6), j.hi(6)), (Some(0), Some(3)));
        assert_eq!((j.lo(7), j.hi(7)), (Some(-3), Some(0)));
        // The sum constraint: capping x6 must re-bound x7 from below.
        j.cap_hi(6, 1);
        assert_eq!(j.lo(7), Some(-1));
    }

    #[test]
    fn sub_assignment_bounds_difference() {
        let mut o = Octagon::top();
        o.assign_range(8, Some(0), Some(5)); // hi
        o.assign_range(11, Some(-3), Some(5)); // k
        o.assign_arith_rr(13, 8, 11, false); // x13 = x8 - x11
        assert_eq!((o.lo(13), o.hi(13)), (Some(-5), Some(8)));
    }

    #[test]
    fn wrapping_add_forgets_instead_of_lying() {
        let mut o = Octagon::top();
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
        let mut a = Octagon::top();
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
        let mut probe = Octagon::top();
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
}
