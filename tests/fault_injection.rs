//! Fault-injection sweep: the machine boundary must turn every
//! adversarial input into a typed [`SimError`] (or a successful run) —
//! never a panic, never a hang.
//!
//! Each case is a pure function of `(seed, case index)` via
//! [`FaultPlan`], so any failure replays exactly from the printed case
//! number. CI runs this sweep in release with debug assertions enabled
//! (`CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`), so internal
//! invariant checks and integer-overflow panics are live.
//!
//! The sweep doubles as the **differential oracle for `quetzal-verify`**:
//! every mutant program is also run through the static verifier, and
//! [`assert_verdict_consistent`] pins the two directions of its
//! contract against the observed runtime outcome —
//!
//! * *soundness*: a `Clean` verdict forbids the statically decidable
//!   [`SimError`] variants (`DecodeError`, `InvalidRegister`,
//!   `InvalidQzConf`, `QBufferIndexOutOfRange`) from occurring;
//! * *completeness on decidable faults*: when the runtime does raise
//!   one of those variants, the verifier must have flagged that kind
//!   (at the faulting pc, for the pc-precise kinds).
//!
//! Since PR 6 the sweep is additionally the **differential oracle for
//! the functional tier**: every case is replayed on
//! [`ExecMode::Functional`] with the same staging and budgets, and must
//! either match the cycle-level run bit-exactly (retire count plus the
//! complete architectural state) or fail with the *identical* typed
//! [`SimError`]. The only exclusion is `CycleLimit` — a timing budget
//! the clockless tier cannot enforce — and those cases are counted in
//! the sweep summary rather than silently skipped.
//!
//! Since the relational-verifier PR the sweep also pins **resource-bound
//! soundness**: every program the verifier proves an *unconditional*
//! finite [`verify::ResourceBound`] for (premised bounds assume staged
//! operand ranges the adversarial stager deliberately violates, so they
//! are out of contract here) must retire no more instructions, touch no
//! more pages, and burn no more cycles than proven — zero tolerance,
//! on both the 12k mutant sweep and the 4k random-program fuzz.
//!
//! Environment knobs:
//! - `QUETZAL_FAULT_CASES` — number of cases (default 12 000).
//! - `QUETZAL_FAULT_SEED` — sweep seed (default `0xF4417`).
//! - `QUETZAL_VERIFY_FUZZ_CASES` — random whole programs for the
//!   verifier property fuzz (default 4 000).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use quetzal::fault::{random_instruction, SWEEP_BUDGETS};
use quetzal::genomics::rng::SplitMix64;
use quetzal::isa::Instruction;
use quetzal::verify::{self, DiagKind, Report, Severity, Verdict};
use quetzal::{ExecMode, FaultPlan, Machine, MachineConfig, Program, RunStats, SimError};

const DEFAULT_CASES: u64 = 12_000;
const DEFAULT_SEED: u64 = 0xF4417;
const DEFAULT_FUZZ_CASES: u64 = 4_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                v.parse().ok()
            }
        })
        .unwrap_or(default)
}

fn variant_name(e: &SimError) -> &'static str {
    match e {
        SimError::InstLimit { .. } => "InstLimit",
        SimError::CycleLimit { .. } => "CycleLimit",
        SimError::InvalidQzConf { .. } => "InvalidQzConf",
        SimError::DecodeError { .. } => "DecodeError",
        SimError::InvalidRegister { .. } => "InvalidRegister",
        SimError::MemoryFault { .. } => "MemoryFault",
        SimError::QBufferIndexOutOfRange { .. } => "QBufferIndexOutOfRange",
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Whether the verifier flagged `kind` at `pc` (any severity).
fn has_kind_at(report: &Report, kind: DiagKind, pc: usize) -> bool {
    report
        .diagnostics()
        .iter()
        .any(|d| d.kind == kind && d.pc == pc)
}

/// Whether the verifier flagged `kind` as fatal anywhere.
fn has_fatal_kind(report: &Report, kind: DiagKind) -> bool {
    report
        .diagnostics()
        .iter()
        .any(|d| d.kind == kind && d.severity == Severity::Fatal)
}

/// How one case's functional-tier replay compared against the
/// cycle-level outcome.
enum FunctionalAgreement {
    /// Bit-equal result (same retire count and architectural state) or
    /// the identical typed [`SimError`].
    Match,
    /// The cycle engine raised `CycleLimit` — a *timing* budget the
    /// functional tier has no clock to enforce. These cases are
    /// excluded from the differential (and counted, so the exclusion
    /// stays visible in the sweep summary).
    CycleLimitExcluded,
    /// The engines disagreed; the payload says how.
    Mismatch(String),
}

/// Compares the complete architectural state two machines were left in.
fn arch_state_mismatch(cycle: &Machine, functional: &Machine) -> Option<String> {
    use quetzal::isa::{PReg, VReg, XReg};
    let (c, f) = (cycle.core().state(), functional.core().state());
    for i in 0..quetzal::isa::reg::NUM_XREGS {
        let r = XReg::new(i);
        if c.x(r) != f.x(r) {
            return Some(format!("x{i}: {:#x} vs {:#x}", c.x(r), f.x(r)));
        }
    }
    for i in 0..quetzal::isa::reg::NUM_VREGS {
        let r = VReg::new(i);
        if c.v_lanes64(r) != f.v_lanes64(r) {
            return Some(format!("v{i} lanes diverged"));
        }
    }
    for i in 0..quetzal::isa::reg::NUM_PREGS {
        let r = PReg::new(i);
        if c.p(r) != f.p(r) {
            return Some(format!("p{i}: {:#x} vs {:#x}", c.p(r), f.p(r)));
        }
    }
    if c.mem.resident_pages() != f.mem.resident_pages() {
        return Some(format!(
            "resident pages: {} vs {}",
            c.mem.resident_pages(),
            f.mem.resident_pages()
        ));
    }
    for sel in 0..2 {
        if c.qz.buf(sel).words() != f.qz.buf(sel).words() {
            return Some(format!("qbuffer {sel} diverged"));
        }
    }
    None
}

/// Replays `outcome`'s case on the functional tier (freshly staged
/// machine, same budgets) and classifies the agreement.
fn diff_functional(
    plan: &FaultPlan,
    case: u64,
    cycle_machine: &Machine,
    outcome: &Result<RunStats, SimError>,
) -> FunctionalAgreement {
    if matches!(outcome, Err(SimError::CycleLimit { .. })) {
        return FunctionalAgreement::CycleLimitExcluded;
    }
    let mut machine = Machine::new(MachineConfig::default());
    let (program, _) = plan.stage(case, &mut machine);
    SWEEP_BUDGETS.apply(&mut machine);
    machine.set_exec_mode(ExecMode::Functional);
    let functional = machine.run(&program);
    match (outcome, &functional) {
        (Ok(c), Ok(f)) => {
            if c.instructions != f.instructions {
                FunctionalAgreement::Mismatch(format!(
                    "retire counts: cycle {} vs functional {}",
                    c.instructions, f.instructions
                ))
            } else if let Some(diff) = arch_state_mismatch(cycle_machine, &machine) {
                FunctionalAgreement::Mismatch(diff)
            } else {
                FunctionalAgreement::Match
            }
        }
        (Err(ce), Err(fe)) if ce == fe => FunctionalAgreement::Match,
        (c, f) => {
            FunctionalAgreement::Mismatch(format!("outcomes: cycle {c:?} vs functional {f:?}"))
        }
    }
}

/// Runs one case on both execution engines and hands the mutant program
/// back for static cross-validation, along with the number of pages the
/// cycle-level run touched (resident-page delta across the run, the
/// quantity [`verify::ResourceBound::pages`] must dominate); `Err`
/// carries the payload of an escaped panic (from either engine).
#[allow(clippy::type_complexity)]
fn run_case(
    plan: &FaultPlan,
    case: u64,
) -> Result<
    (
        Program,
        Result<RunStats, SimError>,
        FunctionalAgreement,
        u64,
    ),
    String,
> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut machine = Machine::new(MachineConfig::default());
        let (program, _) = plan.stage(case, &mut machine);
        SWEEP_BUDGETS.apply(&mut machine);
        let pages_before = machine.core().state().mem.resident_pages();
        let outcome = machine.run(&program);
        let pages_after = machine.core().state().mem.resident_pages();
        let agreement = diff_functional(plan, case, &machine, &outcome);
        let touched = pages_after.saturating_sub(pages_before) as u64;
        (program, outcome, agreement, touched)
    }))
    .map_err(panic_text)
}

/// Cross-validates the static verdict on `program` against its runtime
/// outcome. `context` prefixes every assertion message with replay
/// instructions.
///
/// Both directions are checked: a `Clean` verdict must rule out the
/// statically decidable fault variants, and any decidable fault the
/// runtime raised must appear in the report — at the faulting pc for
/// `InvalidRegister` / `InvalidQzConf` / `QBufferIndexOutOfRange`
/// (those are properties of one instruction site), at any pc for
/// `DecodeError` (the runtime reports the out-of-range pc itself, the
/// verifier the instruction that leads there).
///
/// The reverse of soundness is deliberately *not* asserted: a `Fatal`
/// verdict need not fault at runtime, because the poisoned instruction
/// may sit behind a conditional branch the injected inputs never take.
///
/// **Resource-bound soundness** rides on the same report: when the
/// program carries an *unconditional* finite bound (`!premised` — a
/// premised bound assumes staged operand ranges this harness's
/// adversarial staging deliberately violates), the observed dynamics
/// must never exceed it. `pages_touched` (resident-page delta across
/// the run) is checked on every outcome — a faulting execution's
/// footprint is still covered by the proof, which is exactly what the
/// serving layer's proof-tightened fault watchdogs rely on. Retired
/// instructions and cycles come from [`RunStats`], so they are checked
/// on completed runs. Returns the verdict plus whether a bound was
/// actually checked, so callers can pin non-vacuity.
fn assert_verdict_consistent(
    context: &str,
    program: &Program,
    outcome: &Result<RunStats, SimError>,
    pages_touched: u64,
) -> (Verdict, bool) {
    // Cycle ceilings are priced per latency class, so verify against
    // the latencies of the config the sweep actually runs.
    let vconfig = verify::VerifyConfig {
        latencies: quetzal::class_latencies(&MachineConfig::default().core),
        ..verify::VerifyConfig::default()
    };
    let report = verify::verify_with(program, &vconfig);
    if let Err(e) = outcome {
        let decidable = matches!(
            e,
            SimError::DecodeError { .. }
                | SimError::InvalidRegister { .. }
                | SimError::InvalidQzConf { .. }
                | SimError::QBufferIndexOutOfRange { .. }
        );
        assert!(
            !(report.is_clean() && decidable),
            "{context}: verifier said Clean but runtime raised {e}\n{report}"
        );
        let flagged = match e {
            SimError::DecodeError { .. } => has_fatal_kind(&report, DiagKind::DecodeError),
            SimError::InvalidRegister { pc, .. } => {
                has_kind_at(&report, DiagKind::InvalidRegister, *pc)
            }
            SimError::InvalidQzConf { pc, .. } => {
                has_kind_at(&report, DiagKind::InvalidQzConf, *pc)
            }
            SimError::QBufferIndexOutOfRange { pc, .. } => {
                has_kind_at(&report, DiagKind::QBufferIndexOutOfRange, *pc)
            }
            _ => true,
        };
        assert!(
            flagged,
            "{context}: runtime raised {e} but the verifier did not flag it\n{report}"
        );
    }
    let bound = report.bound();
    let mut bound_checked = false;
    if !bound.premised {
        if let Some(pages) = bound.pages {
            bound_checked = true;
            assert!(
                pages_touched <= pages,
                "{context}: touched {pages_touched} pages, proven bound {pages}\n{report}"
            );
        }
        if let Ok(stats) = outcome {
            if let Some(insts) = bound.instructions {
                bound_checked = true;
                assert!(
                    stats.instructions <= insts,
                    "{context}: retired {} instructions, proven bound {insts}\n{report}",
                    stats.instructions
                );
            }
            if let Some(cycles) = bound.cycles {
                assert!(
                    stats.cycles <= cycles,
                    "{context}: burned {} cycles, proven ceiling {cycles}\n{report}",
                    stats.cycles
                );
            }
        }
    }
    (report.verdict(), bound_checked)
}

#[test]
fn sweep_never_panics_and_always_terminates() {
    let cases = env_u64("QUETZAL_FAULT_CASES", DEFAULT_CASES);
    let seed = env_u64("QUETZAL_FAULT_SEED", DEFAULT_SEED);
    let plan = FaultPlan::new(seed);

    let mut ok = 0u64;
    let mut excluded = 0u64;
    let mut bounded = 0u64;
    let mut errors: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for case in 0..cases {
        match run_case(&plan, case) {
            Ok((program, outcome, agreement, pages_touched)) => {
                let context = format!(
                    "case {case} (replay with QUETZAL_FAULT_SEED={seed:#x} \
                     QUETZAL_FAULT_CASES={})",
                    case + 1
                );
                match agreement {
                    FunctionalAgreement::Match => {}
                    FunctionalAgreement::CycleLimitExcluded => excluded += 1,
                    FunctionalAgreement::Mismatch(diff) => {
                        panic!("{context}: functional tier diverged: {diff}")
                    }
                }
                let (verdict, bound_checked) =
                    assert_verdict_consistent(&context, &program, &outcome, pages_touched);
                if bound_checked {
                    bounded += 1;
                }
                *verdicts
                    .entry(match verdict {
                        Verdict::Clean => "Clean",
                        Verdict::Warnings => "Warnings",
                        Verdict::Fatal => "Fatal",
                    })
                    .or_insert(0) += 1;
                match outcome {
                    Ok(_) => ok += 1,
                    Err(e) => *errors.entry(variant_name(&e)).or_insert(0) += 1,
                }
            }
            Err(panic_msg) => panic!(
                "case {case} (seed {seed:#x}) escaped the machine boundary \
                 as a panic: {panic_msg}\n\
                 replay with QUETZAL_FAULT_SEED={seed:#x} QUETZAL_FAULT_CASES={}",
                case + 1
            ),
        }
    }

    let faulted: u64 = errors.values().sum();
    eprintln!("fault sweep: {cases} cases, {ok} clean, {faulted} typed errors {errors:?}");
    eprintln!("fault sweep: static verdicts {verdicts:?}");
    eprintln!(
        "fault sweep: functional differential matched {} cases \
         ({excluded} timing-only CycleLimit cases excluded)",
        cases - excluded
    );
    eprintln!("fault sweep: {bounded} cases checked against an unconditional resource bound");
    assert!(ok > 0, "sweep produced no clean runs — generator is broken");
    if cases == DEFAULT_CASES && seed == DEFAULT_SEED {
        assert!(
            bounded > 0,
            "no mutant carried an unconditional finite bound — soundness check is vacuous"
        );
    }
    assert!(
        faulted > 0,
        "sweep produced no faults — mutations are not adversarial"
    );
    assert!(
        errors.len() >= 3,
        "expected >= 3 distinct SimError variants, saw {errors:?}"
    );
    assert!(
        verdicts.contains_key("Fatal"),
        "12k adversarial mutants should include statically provable faults, saw {verdicts:?}"
    );
}

#[test]
fn sweep_outcomes_are_deterministic() {
    let seed = env_u64("QUETZAL_FAULT_SEED", DEFAULT_SEED);
    let plan = FaultPlan::new(seed);
    let describe = |case: u64| match run_case(&plan, case) {
        Ok((_, Ok(stats), _, pages)) => format!(
            "ok cycles={} insts={} pages={pages}",
            stats.cycles, stats.instructions
        ),
        Ok((_, Err(e), _, _)) => format!("err {e}"),
        Err(p) => format!("panic {p}"),
    };
    for case in 0..200 {
        let first = describe(case);
        let second = describe(case);
        assert_eq!(first, second, "case {case} diverged between runs");
        assert!(!first.starts_with("panic"), "case {case}: {first}");
    }
}

/// Property fuzz for the verifier itself: whole random programs (drawn
/// from the same instruction distribution the sweep mutates with, plus
/// a trailing `Halt` so a straight-line fall-through is well-formed)
/// are verified and then executed. [`assert_verdict_consistent`] pins
/// the same two-directional contract as the sweep — in particular,
/// programs the verifier passes as `Clean` must never raise
/// `DecodeError`, `InvalidRegister`, `InvalidQzConf`, or
/// `QBufferIndexOutOfRange` at runtime.
#[test]
fn verifier_verdicts_match_runtime_on_random_programs() {
    let cases = env_u64("QUETZAL_VERIFY_FUZZ_CASES", DEFAULT_FUZZ_CASES);
    let seed = env_u64("QUETZAL_FAULT_SEED", DEFAULT_SEED);
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut bounded = 0u64;
    for case in 0..cases {
        let mut rng = SplitMix64::new(
            seed ^ case
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(0x5EED),
        );
        let body = 3 + rng.below(13) as usize;
        // Half the corpus gets a prologue defining every architectural
        // register with a small constant. Without it, almost every
        // random program reads an undefined register and lands in
        // `Warnings`; with it, straight-line bodies routinely verify
        // fully `Clean`, which is what makes the soundness direction of
        // the contract non-vacuous. (The prologue constants also feed
        // the verifier's constant propagation, so lane indices, element
        // sizes, and branch bounds in the body become decidable.)
        let mut insts: Vec<Instruction> = Vec::new();
        if rng.chance(0.5) {
            for i in 0..quetzal::isa::reg::NUM_XREGS {
                insts.push(Instruction::MovImm {
                    rd: quetzal::isa::XReg::new(i),
                    imm: rng.i64_in(0, 64),
                });
            }
            for i in 0..quetzal::isa::reg::NUM_VREGS {
                insts.push(Instruction::DupImm {
                    vd: quetzal::isa::VReg::new(i),
                    imm: rng.i64_in(0, 64),
                    esize: quetzal::isa::ElemSize::B64,
                });
            }
            for i in 0..quetzal::isa::reg::NUM_PREGS {
                insts.push(Instruction::PTrue {
                    pd: quetzal::isa::PReg::new(i),
                    esize: quetzal::isa::ElemSize::B64,
                });
            }
        }
        let prologue = insts.len();
        let len = prologue + body + 1;
        // Branch targets are drawn in `[0, 2 * len)`: about half the
        // branchy programs are decode-fatal, the rest exercise real
        // control flow (including jumps back into the prologue).
        insts.extend((0..body).map(|_| random_instruction(&mut rng, len)));
        insts.push(Instruction::Halt);
        let program = Program::from_raw(insts, format!("fuzz-{case}"));

        let (outcome, pages_touched) = catch_unwind(AssertUnwindSafe(|| {
            let mut machine = Machine::new(MachineConfig::default());
            SWEEP_BUDGETS.apply(&mut machine);
            let pages_before = machine.core().state().mem.resident_pages();
            let outcome = machine.run(&program);
            let pages_after = machine.core().state().mem.resident_pages();
            (outcome, pages_after.saturating_sub(pages_before) as u64)
        }))
        .unwrap_or_else(|payload| {
            panic!(
                "fuzz case {case} (seed {seed:#x}) escaped as a panic: {}",
                panic_text(payload)
            )
        });

        let context = format!("fuzz case {case} (seed {seed:#x})");
        let (verdict, bound_checked) =
            assert_verdict_consistent(&context, &program, &outcome, pages_touched);
        if bound_checked {
            bounded += 1;
        }
        *verdicts
            .entry(match verdict {
                Verdict::Clean => "Clean",
                Verdict::Warnings => "Warnings",
                Verdict::Fatal => "Fatal",
            })
            .or_insert(0) += 1;
    }
    eprintln!(
        "verifier fuzz: {cases} programs, verdicts {verdicts:?}, \
         {bounded} checked against an unconditional resource bound"
    );
    if cases == DEFAULT_FUZZ_CASES && seed == DEFAULT_SEED {
        // With the default corpus the soundness direction must not be
        // vacuous: some random programs do verify fully Clean.
        assert!(
            verdicts.contains_key("Clean"),
            "no random program verified Clean — soundness check is vacuous: {verdicts:?}"
        );
        assert!(
            bounded > 0,
            "no random program carried an unconditional finite bound — \
             bound-soundness check is vacuous: {verdicts:?}"
        );
        assert!(
            verdicts.contains_key("Fatal"),
            "no fatal verdicts: {verdicts:?}"
        );
    }
}
