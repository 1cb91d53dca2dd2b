//! Probed replay of one experiment kernel: CPI stack, per-class stall
//! matrix, hottest-static-instruction table, and (optionally) a Chrome
//! `trace_event` JSON file loadable in Perfetto / `chrome://tracing`.
//!
//! ```text
//! trace_run [ALGO] [TIER] [--dataset NAME] [--top N] [--chrome FILE]
//! ```
//!
//! `ALGO` is one of `wfa`, `biwfa`, `ss`, `sw`, `nw` (default `wfa`);
//! `TIER` one of `base`, `vec`, `quetzal`, `quetzal+c` (default `vec`).
//! `--dataset` selects a Table II dataset by name prefix (default the
//! first short-read set). Workload sizes scale with `QUETZAL_SCALE`.
//!
//! All analysis goes to stdout and is deterministic. The Chrome JSON
//! is rendered by the workspace's JSON codec (`quetzal_trace::json`).

use std::process::ExitCode;

use quetzal::MachineConfig;
use quetzal_algos::Tier;
use quetzal_bench::trace::{hottest_table, kernel_label, trace_kernel};
use quetzal_bench::workloads::{table2_workloads, Algo, Workload};
use quetzal_trace::{chrome, CpiStack, RecordingProbe};

struct Args {
    algo: Algo,
    tier: Tier,
    dataset: Option<String>,
    top: usize,
    chrome_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: trace_run [wfa|biwfa|ss|sw|nw] [base|vec|quetzal|quetzal+c]");
    eprintln!("                 [--dataset NAME] [--top N] [--chrome FILE]");
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        algo: Algo::Wfa,
        tier: Tier::Vec,
        dataset: None,
        top: 10,
        chrome_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dataset" => args.dataset = Some(it.next().ok_or_else(usage)?),
            "--top" => {
                args.top = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--chrome" => args.chrome_out = Some(it.next().ok_or_else(usage)?),
            code => {
                if let Ok(algo) = code.parse() {
                    args.algo = algo;
                } else {
                    args.tier = code.parse().map_err(|_| usage())?;
                }
            }
        }
    }
    Ok(args)
}

fn pick_workload(dataset: Option<&str>, scale: f64) -> Option<Workload> {
    let workloads = table2_workloads(scale);
    match dataset {
        Some(prefix) => workloads.into_iter().find(|w| {
            w.spec
                .name
                .to_lowercase()
                .starts_with(&prefix.to_lowercase())
        }),
        None => workloads.into_iter().find(|w| !w.is_long()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let scale = quetzal_bench::scale_from_env();
    let Some(wl) = pick_workload(args.dataset.as_deref(), scale) else {
        eprintln!("no Table II dataset matches {:?}", args.dataset);
        return ExitCode::FAILURE;
    };

    let cfg = MachineConfig::default();
    let (probe, stats) = trace_kernel(
        &cfg,
        args.algo,
        &wl,
        args.tier,
        RecordingProbe::DEFAULT_CAPACITY,
    );
    if !probe.audit_failures().is_empty() {
        eprintln!("stall-accounting audit FAILED:");
        for f in probe.audit_failures() {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }

    let label = kernel_label(args.algo, &wl, args.tier);
    println!(
        "traced {label}: {} pairs, {} runs, {} instructions, {} cycles",
        wl.pairs.len(),
        probe.runs(),
        stats.instructions,
        stats.cycles
    );
    println!();
    let stack = CpiStack::from_probe(&label, &probe);
    print!("{}", stack.render());
    println!();
    println!("stalls by instruction class:");
    print!("{}", stack.render_by_class());
    println!();
    println!("hottest static instructions (top {}):", args.top);
    print!("{}", hottest_table(&probe, args.top));

    if let Some(path) = args.chrome_out {
        if let Err(e) = std::fs::write(&path, chrome::render(&probe)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!(
            "wrote Chrome trace to {path} ({} events in ring, {} dropped) — load in Perfetto or chrome://tracing",
            probe.events().count(),
            probe.dropped()
        );
    }
    ExitCode::SUCCESS
}
