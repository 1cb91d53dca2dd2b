//! Property-based tests over the workspace's core invariants.
//!
//! The harness is in-tree (no external framework, per the offline
//! build policy): every property runs over a deterministic stream of
//! seeded random cases from [`SplitMix64`], plus exhaustive sweeps
//! where the input space is small enough. Failures print the case
//! number and the generating inputs, so a reported case can be
//! replayed by construction — the stream only depends on the
//! per-property seed constant.

use quetzal::accel::qbuffer::QBuffers;
use quetzal::accel::QzConfig;
use quetzal::isa::EncSize;
use quetzal::{ExecMode, Machine, MachineConfig};
use quetzal_algos::biwfa::biwfa_edit_align;
use quetzal_algos::dp_sim::LinearCosts;
use quetzal_algos::nw::nw_align;
use quetzal_algos::sneakysnake::ss_filter;
use quetzal_algos::wfa::wfa_edit_align;
use quetzal_algos::wfa_sim::wfa_sim;
use quetzal_algos::Tier;
use quetzal_genomics::cigar::Cigar;
use quetzal_genomics::distance::{gotoh_score, levenshtein, myers_distance};
use quetzal_genomics::packed::Packed2;
use quetzal_genomics::rng::SplitMix64;
use quetzal_genomics::{Alphabet, Seq};

/// Cases per fast property (matches the proptest budget this harness
/// replaced).
const CASES: usize = 64;

/// A random DNA sequence of length `0..=max_len`.
fn dna(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len).map(|_| b"ACGT"[rng.below(4) as usize]).collect()
}

/// Runs `check(case, rng)` for [`CASES`] deterministic cases.
fn cases(seed: u64, mut check: impl FnMut(usize, &mut SplitMix64)) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

fn text(s: &[u8]) -> String {
    String::from_utf8_lossy(s).into_owned()
}

/// Both exact-distance oracles agree for any input.
#[test]
fn myers_equals_dp() {
    cases(0x5EED_0001, |case, rng| {
        let (a, b) = (dna(rng, 150), dna(rng, 150));
        assert_eq!(
            myers_distance(&a, &b),
            levenshtein(&a, &b),
            "case {case}: a={} b={}",
            text(&a),
            text(&b)
        );
    });
}

/// WFA is an exact aligner: optimal score, valid optimal transcript.
#[test]
fn wfa_is_exact() {
    cases(0x5EED_0003, |case, rng| {
        let (a, b) = (dna(rng, 120), dna(rng, 120));
        let r = wfa_edit_align(&a, &b);
        assert_eq!(
            r.score,
            levenshtein(&a, &b),
            "case {case}: a={} b={}",
            text(&a),
            text(&b)
        );
        assert!(r.cigar.validate(&a, &b).is_ok(), "case {case}");
        assert_eq!(r.cigar.edit_distance(), r.score, "case {case}");
    });
}

/// BiWFA computes the same optimal result in O(s) memory.
#[test]
fn biwfa_equals_wfa() {
    cases(0x5EED_0004, |case, rng| {
        let (a, b) = (dna(rng, 200), dna(rng, 200));
        let r = biwfa_edit_align(&a, &b);
        assert_eq!(
            r.score,
            levenshtein(&a, &b),
            "case {case}: a={} b={}",
            text(&a),
            text(&b)
        );
        assert!(r.cigar.validate(&a, &b).is_ok(), "case {case}");
    });
}

/// NW with unit costs is the Levenshtein distance; its transcript
/// validates and scores itself consistently.
#[test]
fn nw_is_exact() {
    cases(0x5EED_0005, |case, rng| {
        let (a, b) = (dna(rng, 60), dna(rng, 60));
        let r = nw_align(&a, &b, LinearCosts::UNIT);
        assert_eq!(
            r.score,
            levenshtein(&a, &b) as i64,
            "case {case}: a={} b={}",
            text(&a),
            text(&b)
        );
        assert!(r.cigar.validate(&a, &b).is_ok(), "case {case}");
    });
}

/// Gotoh with zero open cost reduces to linear-gap DP.
#[test]
fn gotoh_linear_gap_consistency() {
    use quetzal_genomics::cigar::Penalties;
    cases(0x5EED_0006, |case, rng| {
        let (a, b) = (dna(rng, 50), dna(rng, 50));
        let pen = Penalties {
            mismatch: 1,
            gap_open: 0,
            gap_extend: 1,
        };
        assert_eq!(
            gotoh_score(&a, &b, pen),
            levenshtein(&a, &b),
            "case {case}: a={} b={}",
            text(&a),
            text(&b)
        );
    });
}

/// SneakySnake's bound is a true lower bound: rejecting at
/// threshold E implies the real distance exceeds E.
#[test]
fn ss_is_a_lower_bound() {
    cases(0x5EED_0007, |case, rng| {
        let (a, b) = (dna(rng, 100), dna(rng, 100));
        let e = rng.below(8) as u32;
        let v = ss_filter(&a, &b, e);
        if !v.accepted {
            assert!(
                levenshtein(&a, &b) > e,
                "case {case}: e={e} a={} b={}",
                text(&a),
                text(&b)
            );
        }
    });
}

/// 2-bit packing round-trips and the unaligned segment accessor
/// matches per-base reads — for random sequences and random starts.
#[test]
fn packed2_round_trip() {
    cases(0x5EED_0008, |case, rng| {
        let bytes = dna(rng, 200);
        let start = (rng.below(200) as usize).min(bytes.len());
        let seq = Seq::dna(bytes.clone()).unwrap();
        let p = Packed2::from_seq(&seq);
        assert_eq!(p.decode(), seq, "case {case}");
        let seg = p.segment(start);
        for i in 0..32usize {
            let idx = start + i;
            let want = if idx < bytes.len() {
                p.get(idx) as u64
            } else {
                0
            };
            assert_eq!(
                (seg >> (2 * i)) & 3,
                want,
                "case {case}: start={start} element {i}"
            );
        }
    });
}

/// QBUFFER element writes followed by segment reads behave like a
/// flat array — random values, exhaustively for every element size.
#[test]
fn qbuffer_matches_flat_array() {
    cases(0x5EED_0009, |case, rng| {
        let n = 1 + rng.below(63) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.below(256)).collect();
        for esiz in 0u64..3 {
            let mut q = QBuffers::new(QzConfig::QZ_8P);
            q.conf(values.len() as u64, values.len() as u64, esiz);
            let esize = EncSize::from_field(esiz).unwrap();
            let mask = match esize {
                EncSize::E2 => 3,
                EncSize::E8 => 0xFF,
                EncSize::E64 => u64::MAX,
            };
            for (i, &v) in values.iter().enumerate() {
                q.buf_mut(0).write_elem(i as u64, v & mask, esize);
            }
            for (i, &v) in values.iter().enumerate() {
                let got = q.buf(0).read_segment(i as u64, esize) & mask;
                assert_eq!(got, v & mask, "case {case}: esiz={esiz} element {i}");
            }
        }
    });
}

/// CIGAR strings round-trip through their text form (random op
/// sequences).
#[test]
fn cigar_display_parse_round_trip() {
    use quetzal_genomics::cigar::CigarOp;
    const OPS: [CigarOp; 4] = [
        CigarOp::Match,
        CigarOp::Mismatch,
        CigarOp::Insertion,
        CigarOp::Deletion,
    ];
    cases(0x5EED_000A, |case, rng| {
        let n = rng.below(50) as usize;
        let cigar: Cigar = (0..n).map(|_| OPS[rng.below(4) as usize]).collect();
        let parsed: Cigar = cigar.to_string().parse().unwrap();
        assert_eq!(parsed, cigar, "case {case}");
    });
}

/// Every DNA sequence of length `0..=max_len` (the exhaustive corpora
/// below enumerate all `sum(4^k) = 341` sequences up to length 4).
fn all_seqs(max_len: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for s in &frontier {
            for &b in b"ACGT" {
                let mut t = s.clone();
                t.push(b);
                out.push(t.clone());
                next.push(t);
            }
        }
        frontier = next;
    }
    out
}

/// Edit distances on an exhaustive sweep of all short sequence pairs:
/// every oracle and the WFA aligner agree on every DNA pair up to
/// length 4 (341² = 116_281 pairs — small enough to enumerate fully).
#[test]
fn distance_oracles_agree_exhaustively_on_short_inputs() {
    let seqs = all_seqs(4);
    for a in &seqs {
        for b in &seqs {
            let d = levenshtein(a, b);
            assert_eq!(myers_distance(a, b), d, "a={} b={}", text(a), text(b));
            let r = wfa_edit_align(a, b);
            assert_eq!(r.score, d, "a={} b={}", text(a), text(b));
            assert!(
                r.cigar.validate(a, b).is_ok(),
                "a={} b={}",
                text(a),
                text(b)
            );
        }
    }
}

/// The full simulated WFA kernel is exact on arbitrary inputs — on
/// both execution engines, which must also retire the same instruction
/// count. Simulated-kernel cases are slower, so fewer run (the ported
/// configuration used 8).
#[test]
fn simulated_wfa_is_exact() {
    let mut rng = SplitMix64::new(0x5EED_000B);
    let mut done = 0;
    while done < 8 {
        let (a, b) = (dna(&mut rng, 60), dna(&mut rng, 60));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let d = levenshtein(&a, &b) as i64;
        for tier in [Tier::Vec, Tier::QuetzalC] {
            let mut m = Machine::new(MachineConfig::default());
            let out = wfa_sim(&mut m, &a, &b, Alphabet::Dna, tier).unwrap();
            assert_eq!(
                out.value,
                d,
                "case {done} ({tier}): a={} b={}",
                text(&a),
                text(&b)
            );

            let mut mf = Machine::new(MachineConfig::default());
            mf.set_exec_mode(ExecMode::Functional);
            let fun = wfa_sim(&mut mf, &a, &b, Alphabet::Dna, tier).unwrap();
            assert_eq!(
                fun.value,
                d,
                "functional case {done} ({tier}): a={} b={}",
                text(&a),
                text(&b)
            );
            assert_eq!(
                fun.stats.instructions, out.stats.instructions,
                "case {done} ({tier}): engines retired different counts"
            );
            assert_eq!(fun.stats.cycles, 0, "case {done} ({tier})");
        }
        done += 1;
    }
}

/// The functional execution tier validated against the *algorithmic*
/// oracle on the exhaustive short-input space: the simulated WFA kernel
/// run on the functional tier computes the Levenshtein distance for every
/// non-empty DNA pair up to length 4 (340² = 115_600 pairs). This is an
/// end-to-end independent check — the oracle is host-side DP, not the
/// cycle-level simulator — so a semantics bug shared by both engines
/// would still be caught here.
///
/// The sweep doubles as the exhaustive **resource-bound soundness** pin:
/// every staged kernel program (collected through the ISA build
/// observer) must retire no more instructions than its proven
/// [`verify::ResourceBound`]. Premised bounds are in contract here —
/// unlike the adversarial fault sweep, this is the canonical staging
/// path, so the staged-operand-range premise holds by construction.
/// The functional engine retires the same count as the cycle engine
/// (pinned by `simulated_wfa_is_exact`), so the check covers both.
/// Programs are verified once per distinct instruction sequence — the
/// kernel image depends only on operand lengths and arena layout, so
/// the 115 600 pairs collapse to a handful of verifier runs.
#[test]
fn functional_tier_is_exact_on_exhaustive_short_inputs() {
    use std::collections::HashMap;
    use std::sync::Mutex;

    // The build observer is process-wide and permanent, and sibling
    // tests in this binary build programs concurrently — gate the
    // collector on this test's thread so it only sees kernels staged
    // by the sweep below.
    static GATE: Mutex<Option<std::thread::ThreadId>> = Mutex::new(None);
    static STAGED: Mutex<Vec<quetzal::Program>> = Mutex::new(Vec::new());
    let installed = quetzal::isa::set_build_observer(|program| {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        if *gate == Some(std::thread::current().id()) {
            STAGED
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(program.clone());
        }
    });
    assert!(installed, "another build observer was installed first");
    *GATE.lock().unwrap() = Some(std::thread::current().id());

    let vconfig = quetzal::verify::VerifyConfig {
        latencies: quetzal::class_latencies(&MachineConfig::default().core),
        ..quetzal::verify::VerifyConfig::default()
    };
    // Keyed by the instruction stream itself, so two kernels can never
    // share a bound through a hash collision.
    let mut proven: HashMap<Vec<quetzal::isa::Instruction>, u64> = HashMap::new();
    let mut verified = 0usize;

    let seqs = all_seqs(4);
    let mut machine = Machine::new(MachineConfig::default());
    for a in &seqs {
        for b in &seqs {
            // The simulated kernel requires non-empty inputs (same
            // precondition `simulated_wfa_is_exact` applies).
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let d = levenshtein(a, b) as i64;
            machine.reset();
            machine.set_exec_mode(ExecMode::Functional);
            STAGED.lock().unwrap().clear();
            let out = wfa_sim(&mut machine, a, b, Alphabet::Dna, Tier::Vec).unwrap();
            assert_eq!(out.value, d, "a={} b={}", text(a), text(b));

            let staged = std::mem::take(&mut *STAGED.lock().unwrap());
            assert_eq!(staged.len(), 1, "wfa_sim stages one kernel per pair");
            let program = &staged[0];
            let bound = *proven
                .entry(program.instructions().to_vec())
                .or_insert_with(|| {
                    verified += 1;
                    let report = quetzal::verify::verify_with(program, &vconfig);
                    report
                        .bound()
                        .instructions
                        .unwrap_or_else(|| panic!("staged kernel has no finite bound\n{report}"))
                });
            assert!(
                out.stats.instructions <= bound,
                "a={} b={}: retired {} instructions, proven bound {bound}",
                text(a),
                text(b),
                out.stats.instructions
            );
        }
    }
    *GATE.lock().unwrap() = None;
    eprintln!(
        "exhaustive functional sweep: {verified} distinct kernel images verified, \
         all 115 600 runs within their proven instruction bounds"
    );
}
