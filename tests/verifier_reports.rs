//! Pins every report the static verifier gives on fault-sweep mutants.
//!
//! Each case of the two seeds the served fault-job tests use is staged
//! on a reset scratch machine exactly as `qzserved` stages it for
//! admission, verified with the core's class latencies, and folded into
//! one FNV-1a digest of its verdict, resource bound and diagnostics.
//! Any change to what the verifier proves or reports — a verdict, a
//! bound component, a diagnostic note — moves the digest, so a pure
//! performance change to the analysis must leave it untouched.

use quetzal::ingest::manifest::Fnv64;
use quetzal::verify::{self, VerifyConfig};
use quetzal::{FaultPlan, Machine, MachineConfig};

/// Cases per seed: enough to cover every mutation class of the sweep
/// while keeping the unoptimised dev-profile run to a few seconds.
const CASES: u64 = 512;

/// Digest of the reports over cases `0..CASES` of both seeds.
const PINNED: u64 = 0x1eec_540d_afcc_b02e;

#[test]
fn fault_sweep_reports_match_pinned_digest() {
    let config = MachineConfig::default();
    let vconfig = VerifyConfig {
        latencies: quetzal::class_latencies(&config.core),
        ..VerifyConfig::default()
    };
    let mut scratch = Machine::new(config);
    let mut digest = Fnv64::new();
    for seed in [0xF4417, 3] {
        let plan = FaultPlan::new(seed);
        for case in 0..CASES {
            scratch.reset();
            let (program, _) = plan.stage(case, &mut scratch);
            let report = verify::verify_with(&program, &vconfig);
            let line = format!(
                "{:?}{:?}{:?}",
                report.verdict(),
                report.bound(),
                report.diagnostics()
            );
            digest.update(line.as_bytes());
        }
    }
    assert_eq!(
        digest.digest(),
        PINNED,
        "verifier reports over the fault sweep changed (digest {:#018x})",
        digest.digest()
    );
}
