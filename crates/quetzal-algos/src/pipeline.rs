//! Combined edit-distance filtering + alignment pipeline (paper use
//! case 5, Fig. 14b).
//!
//! Real genome-analysis pipelines chain multiple algorithms: a cheap
//! filter (SneakySnake) rejects distant candidate pairs, and only the
//! survivors are aligned (WFA). The paper uses this to demonstrate that
//! QUETZAL accelerates *multiple* pipeline stages with the same
//! hardware — no per-algorithm accelerator, no data offloading between
//! stages.

use crate::common::Tier;
use crate::sneakysnake::{ss_filter, ss_sim};
use crate::wfa::wfa_edit_align;
use crate::wfa_sim::wfa_sim;
use quetzal::uarch::{RunStats, SimError};
use quetzal::{BatchRunner, Machine, MachineConfig, MachinePool, Probe};
use quetzal_genomics::dataset::SeqPair;
use quetzal_genomics::Alphabet;

/// Aggregate result of running the filter+align pipeline over a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineResult {
    /// Pairs that passed the filter (and were aligned).
    pub accepted: usize,
    /// Pairs rejected by the filter.
    pub rejected: usize,
    /// Sum of alignment scores over accepted pairs.
    pub score_sum: u64,
}

/// Scalar reference pipeline.
pub fn pipeline_ref(pairs: &[SeqPair], threshold: u32) -> PipelineResult {
    let mut out = PipelineResult {
        accepted: 0,
        rejected: 0,
        score_sum: 0,
    };
    for pair in pairs {
        let v = ss_filter(pair.pattern.as_bytes(), pair.text.as_bytes(), threshold);
        if v.accepted {
            out.accepted += 1;
            out.score_sum +=
                wfa_edit_align(pair.pattern.as_bytes(), pair.text.as_bytes()).score as u64;
        } else {
            out.rejected += 1;
        }
    }
    out
}

/// Simulated pipeline: per pair, an SS kernel decides accept/reject and
/// accepted pairs run the WFA kernel — all on one machine, with warm
/// caches and QBUFFERs across stages (the paper's flexibility claim).
///
/// # Errors
///
/// Returns [`SimError`] if any kernel fails.
pub fn pipeline_sim<P: Probe>(
    machine: &mut Machine<P>,
    pairs: &[SeqPair],
    alphabet: Alphabet,
    threshold: u32,
    tier: Tier,
) -> Result<(PipelineResult, RunStats), SimError> {
    let mut stats = RunStats::default();
    let mut result = PipelineResult {
        accepted: 0,
        rejected: 0,
        score_sum: 0,
    };
    for pair in pairs {
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let ss = ss_sim(machine, p, t, alphabet, threshold, tier)?;
        stats.accumulate(&ss.stats);
        if ss.value as u32 <= threshold {
            let wfa = wfa_sim(machine, p, t, alphabet, tier)?;
            stats.accumulate(&wfa.stats);
            result.accepted += 1;
            result.score_sum += wfa.value as u64;
        } else {
            result.rejected += 1;
        }
    }
    Ok((result, stats))
}

/// The filter+align pipeline over independent pairs, sharded across
/// `runner`'s worker threads: each pair is one work item on its own
/// fresh machine, where the SS kernel decides accept/reject and — on
/// the *same* machine, with warm caches and QBUFFERs across the two
/// stages (the paper's flexibility claim) — accepted pairs run the WFA
/// kernel. Per-pair results and statistics merge in pair order, so the
/// outcome is bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`SimError`] if any kernel fails (the error of the
/// lowest-numbered failing pair, deterministically).
///
/// # Panics
///
/// Panics if a worker shard panics.
pub fn pipeline_batch(
    runner: &BatchRunner,
    config: &MachineConfig,
    pairs: &[SeqPair],
    alphabet: Alphabet,
    threshold: u32,
    tier: Tier,
) -> Result<(PipelineResult, RunStats), SimError> {
    let pool = MachinePool::new(config, runner.exec_mode());
    let per_pair = runner
        .run(
            pairs,
            || pool.checkout(),
            |pooled, _i, pair| -> Result<(Option<u64>, RunStats), SimError> {
                let machine = pooled.machine();
                let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
                let ss = ss_sim(machine, p, t, alphabet, threshold, tier)?;
                let mut stats = ss.stats;
                if ss.value as u32 <= threshold {
                    let wfa = wfa_sim(machine, p, t, alphabet, tier)?;
                    stats.merge(&wfa.stats);
                    Ok((Some(wfa.value as u64), stats))
                } else {
                    Ok((None, stats))
                }
            },
        )
        .expect("pipeline shard panicked");

    let mut stats = RunStats::default();
    let mut result = PipelineResult {
        accepted: 0,
        rejected: 0,
        score_sum: 0,
    };
    for outcome in per_pair {
        let (score, pair_stats) = outcome?;
        stats.merge(&pair_stats);
        match score {
            Some(s) => {
                result.accepted += 1;
                result.score_sum += s;
            }
            None => result.rejected += 1,
        }
    }
    Ok((result, stats))
}

/// Generates a filtering workload: `n` pairs of which roughly
/// `dissimilar_fraction` are unrelated random pairs (to be rejected)
/// and the rest are mutated copies (to be accepted). Deterministic in
/// `seed`.
pub fn mixed_pairs(
    spec: &quetzal_genomics::dataset::DatasetSpec,
    seed: u64,
    n: usize,
    dissimilar_fraction: f64,
) -> Vec<SeqPair> {
    use quetzal_genomics::dataset::{random_seq, SplitMix64};
    let mut rng = SplitMix64::new(seed ^ 0xD15_51A1);
    let similar = spec.generate_n(seed, n);
    similar
        .into_iter()
        .map(|pair| {
            if rng.f64() < dissimilar_fraction {
                SeqPair {
                    text: random_seq(&mut rng, pair.pattern.len(), spec.alphabet),
                    pattern: pair.pattern,
                }
            } else {
                pair
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal::MachineConfig;
    use quetzal_genomics::dataset::DatasetSpec;

    fn threshold_for(spec: &DatasetSpec) -> u32 {
        (spec.read_len as f64 * spec.edit_rate * 2.0).ceil() as u32
    }

    #[test]
    fn reference_pipeline_filters_dissimilar_pairs() {
        let spec = DatasetSpec::d100();
        let pairs = mixed_pairs(&spec, 71, 20, 0.5);
        let r = pipeline_ref(&pairs, threshold_for(&spec));
        assert!(r.accepted > 0, "similar pairs must pass");
        assert!(r.rejected > 0, "random pairs must be rejected");
        assert_eq!(r.accepted + r.rejected, 20);
    }

    #[test]
    fn sim_matches_reference_accept_set_and_scores() {
        let spec = DatasetSpec::d100();
        let pairs = mixed_pairs(&spec, 73, 6, 0.5);
        let e = threshold_for(&spec);
        let want = pipeline_ref(&pairs, e);
        for tier in [Tier::Vec, Tier::QuetzalC] {
            let mut m = Machine::new(MachineConfig::default());
            let (got, stats) = pipeline_sim(&mut m, &pairs, Alphabet::Dna, e, tier).unwrap();
            assert_eq!(got, want, "{tier}");
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn batch_matches_reference_and_is_thread_invariant() {
        let spec = DatasetSpec::d100();
        let pairs = mixed_pairs(&spec, 77, 8, 0.5);
        let e = threshold_for(&spec);
        let want = pipeline_ref(&pairs, e);
        let cfg = MachineConfig::default();
        let (r1, s1) = pipeline_batch(
            &BatchRunner::new(1),
            &cfg,
            &pairs,
            Alphabet::Dna,
            e,
            Tier::QuetzalC,
        )
        .unwrap();
        assert_eq!(r1, want);
        assert!(s1.cycles > 0);
        for threads in [2, 4] {
            let (rn, sn) = pipeline_batch(
                &BatchRunner::new(threads),
                &cfg,
                &pairs,
                Alphabet::Dna,
                e,
                Tier::QuetzalC,
            )
            .unwrap();
            assert_eq!(rn, r1, "threads={threads}");
            assert_eq!(sn, s1, "threads={threads}");
        }
    }

    #[test]
    fn quetzal_c_accelerates_the_whole_pipeline() {
        let spec = DatasetSpec::d100();
        let pairs = mixed_pairs(&spec, 75, 4, 0.5);
        let e = threshold_for(&spec);
        let mut mv = Machine::new(MachineConfig::default());
        let (_, vec_stats) = pipeline_sim(&mut mv, &pairs, Alphabet::Dna, e, Tier::Vec).unwrap();
        let mut mq = Machine::new(MachineConfig::default());
        let (_, qz_stats) =
            pipeline_sim(&mut mq, &pairs, Alphabet::Dna, e, Tier::QuetzalC).unwrap();
        assert!(
            qz_stats.cycles < vec_stats.cycles,
            "QUETZAL+C pipeline {} must beat VEC {}",
            qz_stats.cycles,
            vec_stats.cycles
        );
    }
}
