//! Bidirectional WFA (BiWFA) — optimal alignment in `O(s)` memory.
//!
//! BiWFA (Marco-Sola et al. 2023, the paper's second modern read
//! aligner) runs WFA simultaneously from both ends of the pair. When
//! the two wavefront sets meet, the optimal score is the sum of the two
//! search scores, and the meeting point splits the problem into two
//! halves that are solved recursively — keeping only `O(s)` wavefront
//! memory alive at any time instead of WFA's `O(s²)`.
//!
//! The simulated driver mirrors this structure: a *bounded ping-pong*
//! kernel (see [`crate::wfa_sim::wfa_sim_bounded`]) is charged for the
//! forward and reverse half searches of every recursion level, and the
//! base-case segments run the full WFA kernel.

use crate::common::{SimOutcome, Tier};
use crate::wfa::{wfa_edit_align, WfaResult};
use crate::wfa_sim::{wfa_sim, wfa_sim_bounded};
use quetzal::uarch::{RunStats, SimError};
use quetzal::{Machine, Probe};
use quetzal_genomics::cigar::Cigar;
use quetzal_genomics::distance::common_prefix_len;
use quetzal_genomics::Alphabet;

const NONE: i64 = i64::MIN / 4;

/// One direction's wavefront for the bidirectional search.
#[derive(Debug, Clone)]
struct Front {
    lo: i64,
    hi: i64,
    offsets: Vec<i64>,
}

impl Front {
    fn start() -> Front {
        Front {
            lo: 0,
            hi: 0,
            offsets: vec![0],
        }
    }

    fn get(&self, k: i64) -> i64 {
        if k < self.lo || k > self.hi {
            NONE
        } else {
            self.offsets[(k - self.lo) as usize]
        }
    }
}

/// Advances one front by one score step (extend happened already).
fn step(front: &Front, extend: impl Fn(i64, i64) -> i64, plen: i64, tlen: i64) -> Front {
    let lo = front.lo - 1;
    let hi = front.hi + 1;
    let mut offsets = Vec::with_capacity((hi - lo + 1) as usize);
    for k in lo..=hi {
        let best = (front.get(k - 1) + 1)
            .max(front.get(k) + 1)
            .max(front.get(k + 1));
        let v = best - k;
        let best = if best < 0 || v < 0 || v > plen || best > tlen {
            NONE
        } else {
            extend(k, best)
        };
        offsets.push(best);
    }
    Front { lo, hi, offsets }
}

fn extend_all(front: &mut Front, extend: impl Fn(i64, i64) -> i64) {
    for (i, off) in front.offsets.iter_mut().enumerate() {
        let k = front.lo + i as i64;
        if *off >= 0 {
            *off = extend(k, *off);
        }
    }
}

/// Finds the optimal score and a split point `(v, h)` lying on an
/// optimal path, by bidirectional search. Returns `(score, v, h,
/// forward_score)`.
fn find_breakpoint(pattern: &[u8], text: &[u8]) -> (u32, usize, usize, u32) {
    let plen = pattern.len() as i64;
    let tlen = text.len() as i64;
    let k_final = tlen - plen;

    let fwd_extend = |k: i64, h: i64| -> i64 {
        let v = h - k;
        if v < 0 || v > plen || h > tlen || h < 0 {
            return h;
        }
        h + common_prefix_len(&pattern[v as usize..], &text[h as usize..]) as i64
    };
    // Reverse search: WFA over the reversed sequences. Reverse offset
    // `hr` counts text consumed from the right end.
    let prev: Vec<u8> = pattern.iter().rev().copied().collect();
    let trev: Vec<u8> = text.iter().rev().copied().collect();
    let rev_extend = |k: i64, h: i64| -> i64 {
        let v = h - k;
        if v < 0 || v > plen || h > tlen || h < 0 {
            return h;
        }
        h + common_prefix_len(&prev[v as usize..], &trev[h as usize..]) as i64
    };

    let mut f = Front::start();
    extend_all(&mut f, fwd_extend);
    let mut r = Front::start();
    extend_all(&mut r, rev_extend);
    let (mut sf, mut sr) = (0u32, 0u32);

    // Overlap test: forward diagonal k pairs with reverse diagonal
    // k_final - k; they meet when the consumed text spans cover it all.
    let meet = |f: &Front, r: &Front| -> Option<(usize, usize)> {
        for k in f.lo..=f.hi {
            let h = f.get(k);
            if h < 0 {
                continue;
            }
            let kr = k_final - k;
            let hr = r.get(kr);
            if hr < 0 {
                continue;
            }
            if h + hr >= tlen {
                let v = (h - k).clamp(0, plen);
                return Some((v as usize, h.min(tlen) as usize));
            }
        }
        None
    };

    loop {
        if let Some((v, h)) = meet(&f, &r) {
            return (sf + sr, v, h, sf);
        }
        // Advance the side with the smaller score (balanced search).
        if sf <= sr {
            f = step(&f, fwd_extend, plen, tlen);
            extend_all(&mut f, fwd_extend);
            sf += 1;
        } else {
            r = step(&r, rev_extend, plen, tlen);
            extend_all(&mut r, rev_extend);
            sr += 1;
        }
    }
}

/// Segment length below which the recursion falls back to plain WFA.
const BASE_CASE: usize = 96;

/// Bidirectional WFA alignment: same optimal result as
/// [`wfa_edit_align`], `O(s)` live memory.
///
/// ```
/// use quetzal_algos::biwfa::biwfa_edit_align;
///
/// let r = biwfa_edit_align(b"ACAG", b"AAGT");
/// assert_eq!(r.score, 2);
/// assert!(r.cigar.validate(b"ACAG", b"AAGT").is_ok());
/// ```
pub fn biwfa_edit_align(pattern: &[u8], text: &[u8]) -> WfaResult {
    if pattern.len().min(text.len()) <= BASE_CASE {
        return wfa_edit_align(pattern, text);
    }
    let (score, v, h, _sf) = find_breakpoint(pattern, text);
    if v == 0 && h == 0 || v == pattern.len() && h == text.len() {
        // Degenerate split; fall back.
        return wfa_edit_align(pattern, text);
    }
    let left = biwfa_edit_align(&pattern[..v], &text[..h]);
    let right = biwfa_edit_align(&pattern[v..], &text[h..]);
    let mut cigar = Cigar::new();
    cigar.extend_from(&left.cigar);
    cigar.extend_from(&right.cigar);
    debug_assert_eq!(left.score + right.score, score, "split must be optimal");
    WfaResult {
        score: left.score + right.score,
        cigar,
    }
}

/// Simulated BiWFA: charges a bounded forward and reverse half-search
/// per recursion level (ping-pong wavefronts, `O(s)` memory) plus full
/// WFA kernels on the base-case segments. Returns the optimal score.
///
/// # Errors
///
/// Returns [`SimError`] if any kernel fails.
pub fn biwfa_sim<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    alphabet: Alphabet,
    tier: Tier,
) -> Result<SimOutcome, SimError> {
    let mut stats = RunStats::default();
    let score = biwfa_sim_rec(machine, pattern, text, alphabet, tier, &mut stats)?;
    Ok(SimOutcome {
        value: score as i64,
        stats,
    })
}

fn biwfa_sim_rec<P: Probe>(
    machine: &mut Machine<P>,
    pattern: &[u8],
    text: &[u8],
    alphabet: Alphabet,
    tier: Tier,
    stats: &mut RunStats,
) -> Result<u32, SimError> {
    if pattern.len().min(text.len()) <= BASE_CASE {
        let out = wfa_sim(machine, pattern, text, alphabet, tier)?;
        stats.accumulate(&out.stats);
        return Ok(out.value as u32);
    }
    let (score, v, h, sf) = find_breakpoint(pattern, text);
    if (v == 0 && h == 0) || (v == pattern.len() && h == text.len()) {
        let out = wfa_sim(machine, pattern, text, alphabet, tier)?;
        stats.accumulate(&out.stats);
        return Ok(out.value as u32);
    }
    // Charge the bidirectional search: a forward search to sf and a
    // reverse search to score - sf, each with ping-pong wavefronts.
    let fwd = wfa_sim_bounded(machine, pattern, text, alphabet, tier, sf as i64)?;
    stats.accumulate(&fwd.stats);
    let prev: Vec<u8> = pattern.iter().rev().copied().collect();
    let trev: Vec<u8> = text.iter().rev().copied().collect();
    let rev = wfa_sim_bounded(machine, &prev, &trev, alphabet, tier, (score - sf) as i64)?;
    stats.accumulate(&rev.stats);
    // Recurse on the halves.
    let left = biwfa_sim_rec(machine, &pattern[..v], &text[..h], alphabet, tier, stats)?;
    let right = biwfa_sim_rec(machine, &pattern[v..], &text[h..], alphabet, tier, stats)?;
    Ok(left + right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::MachineConfig;
    use quetzal_genomics::dataset::{DatasetSpec, SplitMix64};
    use quetzal_genomics::distance::levenshtein;

    #[test]
    fn matches_wfa_on_small_inputs() {
        let r = biwfa_edit_align(b"ACAG", b"AAGT");
        assert_eq!(r.score, 2);
        r.cigar.validate(b"ACAG", b"AAGT").unwrap();
    }

    #[test]
    fn matches_levenshtein_on_long_inputs() {
        for pair in DatasetSpec::d250().generate_n(61, 4) {
            let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
            let r = biwfa_edit_align(p, t);
            assert_eq!(r.score, levenshtein(p, t), "score optimal");
            r.cigar.validate(p, t).unwrap();
            assert_eq!(r.cigar.edit_distance(), r.score, "transcript optimal");
        }
    }

    #[test]
    fn randomised_against_oracle() {
        let mut rng = SplitMix64::new(404);
        for _ in 0..20 {
            let len = 150 + (rng.next_u64() % 300) as usize;
            let a: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.below(4) as usize]).collect();
            let mut b = a.clone();
            for _ in 0..rng.below(20) {
                if b.len() < 2 {
                    break;
                }
                let pos = rng.below(b.len() as u64) as usize;
                match rng.below(3) {
                    0 => b[pos] = b"ACGT"[rng.below(4) as usize],
                    1 => b.insert(pos, b"ACGT"[rng.below(4) as usize]),
                    _ => {
                        b.remove(pos);
                    }
                }
            }
            let r = biwfa_edit_align(&a, &b);
            assert_eq!(r.score, levenshtein(&a, &b));
            r.cigar.validate(&a, &b).unwrap();
        }
    }

    #[test]
    fn sim_matches_reference_across_tiers() {
        let pair = &DatasetSpec::d250().generate_n(63, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let want = levenshtein(p, t) as i64;
        for tier in Tier::all() {
            let mut m = Machine::new(MachineConfig::default());
            let out = biwfa_sim(&mut m, p, t, Alphabet::Dna, tier).unwrap();
            assert_eq!(out.value, want, "{tier}");
        }
    }

    #[test]
    fn quetzal_c_accelerates_biwfa() {
        let pair = &DatasetSpec::d250().generate_n(65, 1)[0];
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let mut mv = Machine::new(MachineConfig::default());
        let vec = biwfa_sim(&mut mv, p, t, Alphabet::Dna, Tier::Vec).unwrap();
        let mut mq = Machine::new(MachineConfig::default());
        let qzc = biwfa_sim(&mut mq, p, t, Alphabet::Dna, Tier::QuetzalC).unwrap();
        assert!(
            qzc.stats.cycles < vec.stats.cycles,
            "QUETZAL+C {} must beat VEC {}",
            qzc.stats.cycles,
            vec.stats.cycles
        );
    }
}
