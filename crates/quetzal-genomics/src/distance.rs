//! Exact sequence-distance oracles.
//!
//! These implementations favour obviousness over speed (except Myers'
//! bit-parallel algorithm, which is fast *and* independently derived) and
//! serve as the ground truth that every accelerated aligner in the
//! workspace is validated against — the same methodology the paper uses
//! when bit-comparing QUETZAL outputs to baseline outputs (§V-B).

use crate::cigar::Penalties;

/// Unit-cost Levenshtein distance by the classic two-row dynamic program.
///
/// Runs in `O(|a|·|b|)` time and `O(min)` space.
///
/// ```
/// use quetzal_genomics::distance::levenshtein;
/// assert_eq!(levenshtein(b"ACAG", b"AAGT"), 2);
/// assert_eq!(levenshtein(b"", b"AC"), 2);
/// ```
pub fn levenshtein(a: &[u8], b: &[u8]) -> u32 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<u32> = (0..=short.len() as u32).collect();
    let mut curr = vec![0u32; short.len() + 1];
    for (i, &lb) in long.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &sb) in short.iter().enumerate() {
            let sub = prev[j] + u32::from(lb != sb);
            let del = prev[j + 1] + 1;
            let ins = curr[j] + 1;
            curr[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Myers' bit-parallel edit distance (1999), blocked for arbitrary
/// pattern lengths.
///
/// Computes the same value as [`levenshtein`] in `O(⌈|a|/64⌉·|b|)` time.
/// Having a second, structurally different exact algorithm lets the test
/// suite cross-check the oracles against each other.
pub fn myers_distance(pattern: &[u8], text: &[u8]) -> u32 {
    if pattern.is_empty() {
        return text.len() as u32;
    }
    let blocks = pattern.len().div_ceil(64);
    // Per-block bitmasks of where each byte value occurs in the pattern.
    let mut peq = vec![[0u64; 256]; blocks];
    for (i, &p) in pattern.iter().enumerate() {
        peq[i / 64][p as usize] |= 1 << (i % 64);
    }
    let mut pv = vec![u64::MAX; blocks];
    let mut mv = vec![0u64; blocks];
    let mut score = pattern.len() as u32;
    let last = blocks - 1;
    let last_bit = 1u64 << ((pattern.len() - 1) % 64);

    for &t in text {
        // Global alignment: the top boundary row costs, so a +1 horizontal
        // delta enters the first block of every column.
        let mut ph_in = 1u64;
        let mut mh_in = 0u64;
        for b in 0..blocks {
            let eq = peq[b][t as usize];
            let pvb = pv[b];
            let mvb = mv[b];
            let xv = eq | mvb;
            // Fold the incoming negative horizontal delta into Eq
            // (Hyyrö's blocked formulation).
            let eq2 = eq | mh_in;
            let xh = (((eq2 & pvb).wrapping_add(pvb)) ^ pvb) | eq2;
            let mut ph = mvb | !(xh | pvb);
            let mut mh = pvb & xh;
            if b == last {
                // Score delta at the true last pattern row, read before the
                // shift (bits above `last_bit` are padding and never feed
                // back down because addition carries only move upward).
                if ph & last_bit != 0 {
                    score += 1;
                }
                if mh & last_bit != 0 {
                    score -= 1;
                }
            }
            // Propagate the horizontal deltas to the next block.
            let ph_out = ph >> 63;
            let mh_out = mh >> 63;
            ph = (ph << 1) | ph_in;
            mh = (mh << 1) | mh_in;
            pv[b] = mh | !(xv | ph);
            mv[b] = ph & xv;
            ph_in = ph_out;
            mh_in = mh_out;
        }
    }
    score
}

/// Full-matrix Gotoh (gap-affine) alignment score, score only.
///
/// This is the optimal-score oracle for the gap-affine aligners (WFA,
/// BiWFA, banded SWG): any exact aligner must report exactly this score.
/// Matches score 0; all penalties are costs (lower is better).
pub fn gotoh_score(a: &[u8], b: &[u8], p: Penalties) -> u32 {
    const INF: u32 = u32::MAX / 4;
    let n = b.len();
    // M: best score ending in match/mismatch; I: gap in text (consuming a);
    // D: gap in pattern (consuming b). Rolling rows over `a`.
    let mut m_prev = vec![INF; n + 1];
    let mut i_prev = vec![INF; n + 1];
    let mut d_prev = vec![INF; n + 1];
    m_prev[0] = 0;
    for (j, cell) in d_prev.iter_mut().enumerate().skip(1) {
        *cell = p.gap_open + j as u32 * p.gap_extend;
    }
    let mut m_curr = vec![INF; n + 1];
    let mut i_curr = vec![INF; n + 1];
    let mut d_curr = vec![INF; n + 1];
    for i in 1..=a.len() {
        m_curr[0] = INF;
        d_curr[0] = INF;
        i_curr[0] = p.gap_open + i as u32 * p.gap_extend;
        for j in 1..=n {
            let best_prev_diag = m_prev[j - 1].min(i_prev[j - 1]).min(d_prev[j - 1]);
            let sub_cost = if a[i - 1] == b[j - 1] { 0 } else { p.mismatch };
            m_curr[j] = best_prev_diag.saturating_add(sub_cost);
            i_curr[j] = (m_prev[j].saturating_add(p.gap_open + p.gap_extend))
                .min(i_prev[j].saturating_add(p.gap_extend))
                .min(d_prev[j].saturating_add(p.gap_open + p.gap_extend));
            d_curr[j] = (m_curr[j - 1].saturating_add(p.gap_open + p.gap_extend))
                .min(d_curr[j - 1].saturating_add(p.gap_extend))
                .min(i_curr[j - 1].saturating_add(p.gap_open + p.gap_extend));
        }
        std::mem::swap(&mut m_prev, &mut m_curr);
        std::mem::swap(&mut i_prev, &mut i_curr);
        std::mem::swap(&mut d_prev, &mut d_curr);
    }
    m_prev[n].min(i_prev[n]).min(d_prev[n])
}

/// Longest common prefix of two byte slices — the scalar reference for
/// QUETZAL's `qzcount` primitive and for WFA's `extend` step.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(b"", b""), 0);
        assert_eq!(levenshtein(b"ABC", b"ABC"), 0);
        assert_eq!(levenshtein(b"ABC", b""), 3);
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"ACAG", b"AAGT"), 2);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        assert_eq!(
            levenshtein(b"GATTACA", b"GCAT"),
            levenshtein(b"GCAT", b"GATTACA")
        );
    }

    #[test]
    fn myers_matches_dp_small() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"A", b""),
            (b"", b"A"),
            (b"ACAG", b"AAGT"),
            (b"kitten", b"sitting"),
            (b"GATTACA", b"GCATGCU"),
        ];
        for &(a, b) in cases {
            assert_eq!(myers_distance(a, b), levenshtein(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn myers_matches_dp_across_block_boundary() {
        // Patterns of length 63, 64, 65, 130 exercise the blocked carry.
        for len in [63usize, 64, 65, 130] {
            let a: Vec<u8> = (0..len).map(|i| b"ACGT"[i % 4]).collect();
            let mut b = a.clone();
            b[len / 2] = b'A';
            b.insert(len / 3, b'G');
            b.remove(2 * len / 3);
            assert_eq!(myers_distance(&a, &b), levenshtein(&a, &b), "len {len}");
        }
    }

    #[test]
    fn gotoh_zero_for_identical() {
        assert_eq!(gotoh_score(b"ACGT", b"ACGT", Penalties::AFFINE_DEFAULT), 0);
    }

    #[test]
    fn gotoh_single_gap_vs_two_gaps() {
        let p = Penalties::AFFINE_DEFAULT;
        // One gap of length 2 costs o + 2e = 10.
        assert_eq!(gotoh_score(b"ACGT", b"ACGTTT", p), 10);
        // Single mismatch costs 4.
        assert_eq!(gotoh_score(b"ACGT", b"AGGT", p), 4);
    }

    #[test]
    fn gotoh_with_edit_penalties_equals_levenshtein() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACAG", b"AAGT"),
            (b"kitten", b"sitting"),
            (b"", b"ABC"),
            (b"GGGG", b"GGGG"),
        ];
        for &(a, b) in cases {
            assert_eq!(
                gotoh_score(a, b, Penalties::EDIT),
                levenshtein(a, b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn common_prefix() {
        assert_eq!(common_prefix_len(b"ACGT", b"ACGA"), 3);
        assert_eq!(common_prefix_len(b"ACGT", b"ACGT"), 4);
        assert_eq!(common_prefix_len(b"", b"ACGT"), 0);
        assert_eq!(common_prefix_len(b"T", b"A"), 0);
    }
}
