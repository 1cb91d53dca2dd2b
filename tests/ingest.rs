//! Integration tests for crash-safe genome-scale ingestion.
//!
//! Covers the durability acceptance criteria end to end over real
//! alignment workloads (Table II `100bp_1` pairs through the SS +
//! QUETZAL-C pipeline):
//!
//! * a killed run (crash injected at a shard boundary or mid-manifest-
//!   write) **resumes byte-identical** to an uninterrupted run, at 1
//!   and 4 worker threads and across thread-count changes between the
//!   killed run and the resume;
//! * torn shard files (truncated, or bit-flipped in the manifest header
//!   or the output lines) are detected by the content checksum, treated
//!   as "shard not done", and re-run — never trusted, never fatal;
//! * the `qzserved` `ingest` job streams the same shard frames the
//!   offline path produces and resuming via resubmission validates
//!   checkpoints instead of recomputing.

use quetzal::ingest::{
    self, manifest, pair_digest, CrashPlan, IngestConfig, IngestError, IngestSummary, ItemOutput,
};
use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo, SEED};
use quetzal_genomics::{Alphabet, DatasetSpec};
use quetzal_served::{
    job, Budgets, Client, Daemon, DaemonConfig, JobSpec, Response, SubmitOutcome,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A unique scratch directory per test (no tempfile crate in the
/// zero-dependency workspace).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qz-ingest-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes `n` generated pairs of the 100bp dataset as a pair file.
fn stage_pairs(path: &Path, n: usize) {
    let spec = DatasetSpec::d100();
    let file = std::fs::File::create(path).expect("create pair file");
    let mut w = std::io::BufWriter::new(file);
    for pair in spec.pair_stream(SEED).take(n) {
        writeln!(w, "{}\t{}", pair.pattern, pair.text).expect("write pair");
    }
    w.flush().expect("flush pair file");
}

/// Runs (or resumes) the pair file through the checkpointed pipeline.
fn ingest_file(
    input: &Path,
    ckpt: &Path,
    threads: usize,
    crash: CrashPlan,
    retry_quarantined: bool,
) -> Result<IngestSummary, IngestError> {
    let config = IngestConfig {
        shard_items: 8,
        chunk_items: 4,
        heartbeat: None,
        crash,
        retry_quarantined,
        ..IngestConfig::new(ckpt)
    };
    let runner = BatchRunner::new(threads);
    let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
    let file = std::fs::File::open(input).expect("open pair file");
    let source =
        quetzal_genomics::fasta::PairReader::new(std::io::BufReader::new(file), Alphabet::Dna);
    ingest::run_ingest(
        &config,
        &runner,
        &pool,
        source,
        pair_digest,
        |m, _g, pair| {
            let out =
                try_simulate_pair_outcome(m, Algo::Ss, Alphabet::Dna, 100, pair, Tier::QuetzalC)?;
            Ok(ItemOutput {
                value: out.value,
                cycles: out.stats.cycles,
                instructions: out.stats.instructions,
            })
        },
        |_| {},
    )
}

/// Assembles the final report bytes from a completed checkpoint dir.
fn assembled(ckpt: &Path, shards: u64) -> Vec<u8> {
    let mut out = Vec::new();
    ingest::concat_output(ckpt, shards, &mut out).expect("assemble output");
    out
}

#[test]
fn fresh_runs_are_thread_invariant() {
    let dir = scratch("thread-invariant");
    let input = dir.join("pairs.tsv");
    stage_pairs(&input, 20);
    let s1 = ingest_file(&input, &dir.join("ck1"), 1, CrashPlan::default(), false).expect("run @1");
    let s4 = ingest_file(&input, &dir.join("ck4"), 4, CrashPlan::default(), false).expect("run @4");
    assert_eq!(s1.shards, 3, "20 items in 8-item shards");
    assert_eq!(s1.items, 20);
    assert_eq!(s1.shards_resumed, 0);
    assert_eq!(s4.shards_resumed, 0);
    assert_eq!(
        assembled(&dir.join("ck1"), s1.shards),
        assembled(&dir.join("ck4"), s4.shards),
        "final report must not depend on thread count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_resumes_byte_identical_across_thread_counts() {
    let dir = scratch("kill-resume");
    let input = dir.join("pairs.tsv");
    stage_pairs(&input, 20);
    let fresh = ingest_file(&input, &dir.join("fresh"), 1, CrashPlan::default(), false)
        .expect("uninterrupted run");
    let golden = assembled(&dir.join("fresh"), fresh.shards);

    // Kill at the shard-0 boundary (in-process: typed error, no exit).
    let killed = ingest_file(
        &input,
        &dir.join("ck"),
        1,
        CrashPlan {
            after_shard: Some(0),
            ..CrashPlan::default()
        },
        false,
    );
    assert!(
        matches!(killed, Err(IngestError::CrashInjected(_))),
        "crash injection must surface as a typed error, got {killed:?}"
    );
    // Resume at a different thread count.
    let resumed =
        ingest_file(&input, &dir.join("ck"), 4, CrashPlan::default(), false).expect("resume");
    assert_eq!(resumed.shards_resumed, 1, "shard 0 validated, not re-run");
    assert_eq!(resumed.shards, fresh.shards);
    assert_eq!(assembled(&dir.join("ck"), resumed.shards), golden);

    // Kill again mid-manifest-write on shard 1 of a fresh directory:
    // the torn manifest must be detected and the shard re-run.
    let torn = ingest_file(
        &input,
        &dir.join("ck-torn"),
        1,
        CrashPlan {
            mid_manifest: Some(1),
            ..CrashPlan::default()
        },
        false,
    );
    assert!(matches!(torn, Err(IngestError::CrashInjected(_))));
    let recovered =
        ingest_file(&input, &dir.join("ck-torn"), 4, CrashPlan::default(), false).expect("recover");
    assert_eq!(recovered.manifests_torn, 1, "the half-written manifest");
    assert_eq!(
        recovered.shards_resumed, 1,
        "shard 0 was committed before the crash"
    );
    assert_eq!(assembled(&dir.join("ck-torn"), recovered.shards), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_bitflipped_manifests_are_rerun_not_trusted() {
    let dir = scratch("manifest-damage");
    let input = dir.join("pairs.tsv");
    stage_pairs(&input, 20);
    let ckpt = dir.join("ck");
    let fresh = ingest_file(&input, &ckpt, 1, CrashPlan::default(), false).expect("fresh run");
    let golden = assembled(&ckpt, fresh.shards);

    // Truncate shard 1's manifest (a torn write the rename never hid).
    let m1 = manifest::shard_path(&ckpt, 1);
    let bytes = std::fs::read(&m1).expect("read manifest");
    std::fs::write(&m1, &bytes[..bytes.len() / 2]).expect("truncate manifest");
    // Flip one content bit in shard 2's manifest.
    let m2 = manifest::shard_path(&ckpt, 2);
    let mut bytes = std::fs::read(&m2).expect("read manifest");
    bytes[10] ^= 0x01;
    std::fs::write(&m2, &bytes).expect("corrupt manifest");

    let resumed = ingest_file(&input, &ckpt, 4, CrashPlan::default(), false).expect("resume");
    assert_eq!(resumed.manifests_torn, 2, "both damaged manifests detected");
    assert_eq!(resumed.shards_resumed, 1, "only the intact shard 0 resumed");
    assert_eq!(assembled(&ckpt, resumed.shards), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_output_byte_reruns_only_its_shard() {
    let dir = scratch("output-damage");
    let input = dir.join("pairs.tsv");
    stage_pairs(&input, 20);
    let ckpt = dir.join("ck");
    let fresh = ingest_file(&input, &ckpt, 1, CrashPlan::default(), false).expect("fresh run");
    let golden = assembled(&ckpt, fresh.shards);

    // Flip one byte inside shard 1's output lines, past the header.
    let path = manifest::shard_path(&ckpt, 1);
    let mut bytes = std::fs::read(&path).expect("read shard file");
    // The header ends with `output_fnv <16 hex digits>\n`; the output
    // lines follow it.
    let field = "\noutput_fnv ";
    let found = String::from_utf8_lossy(&bytes).find(field);
    let output_start = found.expect("the shard file carries its header") + field.len() + 17;
    assert_eq!(
        bytes[output_start], b'{',
        "the shard file carries its output lines"
    );
    bytes[output_start + 20] ^= 0x04;
    std::fs::write(&path, &bytes).expect("corrupt shard file");

    let resumed = ingest_file(&input, &ckpt, 4, CrashPlan::default(), false).expect("resume");
    assert_eq!(
        resumed.manifests_torn, 1,
        "the damaged output is a torn file"
    );
    assert_eq!(
        resumed.shards_resumed,
        fresh.shards - 1,
        "only the damaged shard re-ran"
    );
    assert_eq!(assembled(&ckpt, resumed.shards), golden);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts a daemon on an ephemeral loopback port.
fn start_daemon(config: DaemonConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral loopback port");
    let addr = daemon.local_addr().expect("bound address").to_string();
    (addr, std::thread::spawn(move || daemon.run()))
}

#[test]
fn served_ingest_matches_offline_and_resubmission_resumes() {
    let dir = scratch("served");
    let input = dir.join("pairs.tsv");
    stage_pairs(&input, 20);
    let spec_for = |ckpt: &Path, output: &Path| JobSpec::Ingest {
        input: input.display().to_string(),
        checkpoint_dir: ckpt.display().to_string(),
        output: Some(output.display().to_string()),
        algo: Algo::Ss,
        tier: Tier::QuetzalC,
        alphabet: Alphabet::Dna,
        ss_threshold: 100,
        budgets: Budgets::default(),
        shard_items: 8,
        deadline_ms: None,
        shard_insts: None,
        retry_quarantined: false,
    };

    // Offline reference through the same job core.
    let offline_spec = spec_for(&dir.join("ck-offline"), &dir.join("offline.out"));
    let runner = BatchRunner::new(1);
    let pool = MachinePool::new(&MachineConfig::default(), runner.exec_mode());
    let mut offline_frames = Vec::new();
    job::execute(&runner, &pool, &offline_spec, 16, &mut |f| {
        offline_frames.push(f)
    });
    let offline_report = quetzal_served::render_report(&offline_frames);

    let (addr, handle) = start_daemon(DaemonConfig::default());
    let served_spec = spec_for(&dir.join("ck-served"), &dir.join("served.out"));
    let mut client = Client::connect(&addr).expect("connect");
    let frames = match client.submit("acme", &served_spec).expect("submit") {
        SubmitOutcome::Report(frames) => frames,
        other => panic!("expected a streamed report, got {other:?}"),
    };
    assert_eq!(
        quetzal_served::render_report(&frames),
        offline_report,
        "served ingest must stream the same frames as the offline path"
    );
    assert_eq!(
        std::fs::read(dir.join("served.out")).expect("served output"),
        std::fs::read(dir.join("offline.out")).expect("offline output"),
        "assembled outputs must be byte-identical"
    );
    let shard_frames: Vec<bool> = frames
        .iter()
        .filter_map(|f| match f {
            Response::ShardDone(report) => Some(report.resumed),
            _ => None,
        })
        .collect();
    assert_eq!(shard_frames, vec![false, false, false], "3 fresh shards");

    // Resubmitting against the same checkpoint dir resumes every shard.
    let frames = match client.submit("acme", &served_spec).expect("resubmit") {
        SubmitOutcome::Report(frames) => frames,
        other => panic!("expected a streamed report, got {other:?}"),
    };
    let resumed: Vec<bool> = frames
        .iter()
        .filter_map(|f| match f {
            Response::ShardDone(report) => Some(report.resumed),
            _ => None,
        })
        .collect();
    assert_eq!(resumed, vec![true, true, true], "all shards validated");
    assert_eq!(
        std::fs::read(dir.join("served.out")).expect("served output"),
        std::fs::read(dir.join("offline.out")).expect("offline output"),
        "resumed assembly is unchanged"
    );

    let mut shutdown_client = Client::connect(&addr).expect("connect for shutdown");
    shutdown_client.shutdown().expect("shutdown");
    handle.join().expect("accept loop").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
