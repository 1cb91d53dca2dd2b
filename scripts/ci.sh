#!/usr/bin/env bash
# The repository's CI pipeline, runnable locally: formatting, offline
# release build, full test suite, and a smoke run of the experiment
# harness. Everything runs with --offline — the workspace has zero
# external dependencies, so a clean checkout plus a Rust toolchain is
# all CI needs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep glibc's allocator off the syscall path: sandboxed CI runners
# (gVisor-style) make brk/mmap orders of magnitude slower than native,
# which turns malloc heap-trim churn into the dominant cost of the
# simulator's per-pair setup. Never return freed heap to the kernel and
# never route large allocations through mmap; both are pure wall-clock
# wins here and no-ops on ordinary kernels.
export MALLOC_TRIM_THRESHOLD_=-1
export MALLOC_MMAP_THRESHOLD_=1073741824
export MALLOC_TOP_PAD_=134217728

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets --offline --workspace -- -D warnings

echo "==> rustdoc: no broken or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> fault-injection sweep (release + debug assertions, fixed seed)"
# Release speed with overflow/invariant checks live: any panic escaping
# the machine boundary — not a typed SimError — fails this step. Every
# case is also replayed on the compiled functional tier and must match
# the cycle-level outcome bit-exactly (or raise the same typed error).
# Both engines execute instructions through one shared `step`, so this
# differential gate pins dispatch, budget accounting and fault ordering;
# semantics are pinned by the independent oracles (the 116k-pair
# host-DP sweep, the interp proptests and tests/accelerator.rs).
# The sweep (plus its 4k random-program fuzz) also pins resource-bound
# soundness: any program with an unconditional proven bound that
# retires more instructions, touches more pages, or burns more cycles
# than proven fails the step — zero tolerance.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
QUETZAL_FAULT_CASES=12000 QUETZAL_FAULT_SEED=0xF4417 \
    cargo test -q --offline --release -p quetzal-integration \
    --test fault_injection

echo "==> functional tier: differential check vs cycle-level engine"
# The Fig. 3 grid replayed on both execution engines with per-pair
# architectural-state equality. The engines share one implementation
# of instruction semantics, so this checks superblock dispatch, control
# flow and budget accounting; the exhaustive 116k-pair host-DP oracle
# sweep (inside --test properties) checks the semantics.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
    cargo test -q --offline --release -p quetzal-integration \
    --test functional_equiv

echo "==> qzverify: every kernel Clean, finitely bounded, and calibrated"
# Replays the experiment grid with the build observer installed and
# runs quetzal-verify over every program it stages. The gate fails on
# any verdict below Clean (warnings included), on any of the 15
# in-tree kernels missing a finite proven resource bound
# (instructions / pages / cycles), and on any calibration run whose
# observed dynamics exceed the proven bound.
QUETZAL_SCALE=0.25 \
    cargo run -q --release --offline -p quetzal-bench --bin qzverify \
    > /dev/null

echo "==> smoke: run_all at reduced scale, 1 vs N threads byte-identical"
out_dir="$(mktemp -d)"
trap '[ -n "${served_pid:-}" ] && kill "$served_pid" 2>/dev/null; rm -rf "$out_dir"' EXIT
QUETZAL_SCALE=0.25 QUETZAL_THREADS=1 \
    cargo run -q --release --offline -p quetzal-bench --bin run_all \
    > "$out_dir/t1.txt"
QUETZAL_SCALE=0.25 QUETZAL_THREADS=4 \
    cargo run -q --release --offline -p quetzal-bench --bin run_all \
    > "$out_dir/t4.txt"
cmp "$out_dir/t1.txt" "$out_dir/t4.txt" \
    || { echo "FAIL: run_all output depends on QUETZAL_THREADS"; exit 1; }

echo "==> smoke: design_space full grid at reduced scale, deterministic"
# The 72-point OoO design-space sweep (width x QZ ports x ROB x store
# window) — all cells are simulated-cycle ratios, so both the table and
# the JSON artifact must be byte-identical across thread counts.
QUETZAL_SCALE=0.25 QUETZAL_THREADS=1 \
    cargo run -q --release --offline -p quetzal-bench --bin design_space -- \
    --json "$out_dir/ds1.json" > "$out_dir/ds1.txt"
QUETZAL_SCALE=0.25 QUETZAL_THREADS=4 \
    cargo run -q --release --offline -p quetzal-bench --bin design_space -- \
    --json "$out_dir/ds4.json" > "$out_dir/ds4.txt"
cmp "$out_dir/ds1.txt" "$out_dir/ds4.txt" \
    || { echo "FAIL: design_space table depends on QUETZAL_THREADS"; exit 1; }
cmp "$out_dir/ds1.json" "$out_dir/ds4.json" \
    || { echo "FAIL: design_space JSON depends on QUETZAL_THREADS"; exit 1; }
grep -q '"benchmark": "uarch-design-space"' "$out_dir/ds1.json" \
    || { echo "FAIL: design_space wrote no JSON artifact"; exit 1; }

echo "==> smoke: qzserved daemon loopback, byte-identical to offline"
# Alignment-as-a-service: start the daemon on an ephemeral port, submit
# the same align and fault jobs through qzclient and through the
# in-process --offline path, and require byte-identical reports. The
# fault job must show verifier-gated admission (typed `rejected`
# frames), /stats must answer, and the shutdown frame must produce a
# clean daemon exit.
./target/release/qzserved --listen 127.0.0.1:0 > "$out_dir/qzserved.log" &
served_pid=$!
served_addr=""
for _ in $(seq 1 100); do
    served_addr="$(sed -n 's/^qzserved listening on //p' "$out_dir/qzserved.log")"
    [ -n "$served_addr" ] && break
    sleep 0.1
done
[ -n "$served_addr" ] \
    || { echo "FAIL: qzserved never reported a listen address"; exit 1; }
./target/release/qzclient submit --addr "$served_addr" --pairs 4 \
    > "$out_dir/served_align.txt" 2>/dev/null
./target/release/qzclient submit --offline --pairs 4 \
    > "$out_dir/offline_align.txt" 2>/dev/null
cmp "$out_dir/served_align.txt" "$out_dir/offline_align.txt" \
    || { echo "FAIL: served align report differs from offline BatchRunner"; exit 1; }
./target/release/qzclient fault --addr "$served_addr" --cases 24 \
    > "$out_dir/served_fault.txt" 2>/dev/null
./target/release/qzclient fault --offline --cases 24 \
    > "$out_dir/offline_fault.txt" 2>/dev/null
cmp "$out_dir/served_fault.txt" "$out_dir/offline_fault.txt" \
    || { echo "FAIL: served fault report differs from offline BatchRunner"; exit 1; }
grep -q '"cause":"rejected"' "$out_dir/served_fault.txt" \
    || { echo "FAIL: fault smoke exercised no verifier-gated rejection"; exit 1; }
./target/release/qzclient stats --addr "$served_addr" > "$out_dir/served_stats.json"
grep -q '"jobs":{"accepted":2' "$out_dir/served_stats.json" \
    || { echo "FAIL: /stats did not account for both smoke jobs"; exit 1; }
./target/release/qzclient shutdown --addr "$served_addr" > /dev/null
wait "$served_pid" \
    || { echo "FAIL: qzserved did not exit cleanly after shutdown"; exit 1; }
served_pid=""

echo "==> smoke: qzingest crash/resume, byte-identical at 1 and 4 threads"
# Crash-safe ingestion: stage a pair file, run it uninterrupted, then
# kill a second run at a shard boundary (real process death, exit 137)
# and a third mid-manifest-write (torn manifest on disk), resume both,
# and require the assembled reports byte-identical to the uninterrupted
# run — with the killed run and its resume at different thread counts.
./target/release/qzingest stage --dataset 100bp_1 --pairs 48 \
    --out "$out_dir/pairs.tsv" 2>/dev/null
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-fresh" --output "$out_dir/ingest-fresh.out" \
    --shard 8 --quiet 2>/dev/null
rc=0
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-kill" --shard 8 --quiet \
    --crash-after-shard 2 2>/dev/null || rc=$?
[ "$rc" -eq 137 ] \
    || { echo "FAIL: injected shard-boundary crash exited $rc, not 137"; exit 1; }
QUETZAL_THREADS=4 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-kill" --output "$out_dir/ingest-resumed.out" \
    --shard 8 --quiet 2> "$out_dir/ingest-resume.log"
cmp "$out_dir/ingest-fresh.out" "$out_dir/ingest-resumed.out" \
    || { echo "FAIL: resumed ingest differs from uninterrupted run"; exit 1; }
grep -q "3 resumed" "$out_dir/ingest-resume.log" \
    || { echo "FAIL: resume re-ran shards instead of validating checkpoints"; exit 1; }
rc=0
QUETZAL_THREADS=4 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-torn" --shard 8 --quiet \
    --crash-mid-manifest 1 2>/dev/null || rc=$?
[ "$rc" -eq 137 ] \
    || { echo "FAIL: injected mid-manifest crash exited $rc, not 137"; exit 1; }
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-torn" --output "$out_dir/ingest-torn.out" \
    --shard 8 --quiet 2> "$out_dir/ingest-torn.log"
cmp "$out_dir/ingest-fresh.out" "$out_dir/ingest-torn.out" \
    || { echo "FAIL: torn-manifest recovery differs from uninterrupted run"; exit 1; }
grep -q "1 torn" "$out_dir/ingest-torn.log" \
    || { echo "FAIL: recovery never flagged the torn manifest"; exit 1; }

echo "==> smoke: trace_run probed replay + Chrome-trace JSON"
QUETZAL_SCALE=0.25 \
    cargo run -q --release --offline -p quetzal-bench --bin trace_run -- \
    wfa vec --top 5 --chrome "$out_dir/trace.json" > "$out_dir/trace.txt"
# trace_run validates the emitted JSON with the in-tree strict parser
# (quetzal_trace::json) before writing and exits non-zero on failure;
# here we only check that the analysis and the artifact both landed.
grep -q "CPI stack" "$out_dir/trace.txt" \
    || { echo "FAIL: trace_run printed no CPI stack"; exit 1; }
test -s "$out_dir/trace.json" \
    || { echo "FAIL: trace_run wrote no Chrome trace"; exit 1; }

echo "==> committed results_run_all.txt is fresh (default scale)"
QUETZAL_THREADS=4 \
    cargo run -q --release --offline -p quetzal-bench --bin run_all -- --cpi-stacks \
    > "$out_dir/full.txt" 2>/dev/null
cmp results_run_all.txt "$out_dir/full.txt" \
    || { echo "FAIL: results_run_all.txt is stale; regenerate with run_all"; exit 1; }

echo "==> perf trajectory: BENCH_uarch.json (simulated MIPS, both engines)"
cargo run -q --release --offline -p quetzal-bench --bin bench_uarch \
    > BENCH_uarch.json

echo "==> cycle engine clears the sim-MIPS floor (timing-wheel perf gate)"
# The event-driven timing wheel must not cost cycle-engine throughput
# at the default config. The floor is set well below the measured
# geomean (12-20 sim-MIPS depending on host load) so it only trips on
# structural regressions — e.g. reintroducing a per-retire cost that
# scales with the configured widths — not on a slow runner.
awk '
  /"geomean_sim_mips":/ {
    gsub(/[^0-9.]/, "", $2); geo = $2 + 0; found = 1
  }
  END {
    if (!found) { print "FAIL: no geomean_sim_mips in BENCH_uarch.json"; exit 1 }
    if (geo < 6.0) {
      printf "FAIL: cycle engine at %.2f geomean sim-MIPS (floor: 6.0)\n", geo
      exit 1
    }
    printf "cycle engine geomean: %.2f sim-MIPS (floor: 6.0)\n", geo
  }
' BENCH_uarch.json

echo "==> functional tier is fast enough to be worth having (>= 2x geomean)"
# The whole point of the no-timing-model tier: it must beat the
# cycle-level engine by at least 2x geomean simulated MIPS on the
# Fig. 3 / Fig. 4 kernel grid, or it is dead weight.
awk '
  /"functional_speedup_geomean"/ {
    gsub(/[^0-9.]/, "", $2); speedup = $2 + 0; found = 1
  }
  END {
    if (!found) { print "FAIL: no functional_speedup_geomean in BENCH_uarch.json"; exit 1 }
    if (speedup < 2.0) {
      printf "FAIL: functional tier only %.2fx over cycle-level (need >= 2x)\n", speedup
      exit 1
    }
    printf "functional tier speedup: %.2fx (gate: >= 2x)\n", speedup
  }
' BENCH_uarch.json

echo "CI OK"
