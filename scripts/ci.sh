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

echo "==> repobench compiles against the library"
# The benchmark crate imports the served/ingest/workload APIs; building
# it here makes a library change that breaks those imports fail CI.
cargo build --release --offline --manifest-path repobench/Cargo.toml \
    --target-dir target/repobench

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> fault-injection sweep (release + debug assertions, fixed seed)"
# Release speed with overflow/invariant checks live: any panic escaping
# the machine boundary — not a typed SimError — fails this step. Every
# case is also replayed on the functional tier and must match the
# cycle-level outcome bit-exactly (or raise the same typed error).
# Both engines run one dispatch loop and one `step`, so this gate pins
# that the timing sink leaves architectural results alone; dispatch is
# pinned by hand-computed interp tests, semantics by the independent
# oracles (the 116k-pair host-DP sweep, the interp proptests and
# tests/accelerator.rs).
# The sweep (plus its 4k random-program fuzz) also pins resource-bound
# soundness: any program with an unconditional proven bound that
# retires more instructions, touches more pages, or burns more cycles
# than proven fails the step — zero tolerance.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
QUETZAL_FAULT_CASES=12000 QUETZAL_FAULT_SEED=0xF4417 \
    cargo test -q --offline --release -p quetzal-integration \
    --test fault_injection

echo "==> lane oracles in release codegen (debug assertions on)"
# The width-specialised lane loops in interp::step are reached at 8/16/32-
# bit element sizes only by the interp oracles (the kernels run 64-bit
# lanes), so run them at the optimisation level the benchmark measures,
# with overflow checks live on the sign-extension shifts.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
    cargo test -q --offline --release -p quetzal-uarch

echo "==> functional tier: differential check vs cycle-level engine"
# The Fig. 3 grid replayed on both execution engines with per-pair
# architectural-state equality. The engines share one dispatch loop and
# one implementation of instruction semantics, so this checks that the
# timing sink changes no architectural fact; the exhaustive 116k-pair
# host-DP oracle sweep (inside --test properties) checks the semantics.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
    cargo test -q --offline --release -p quetzal-integration \
    --test functional_equiv

out_dir="$(mktemp -d)"
trap '[ -n "${served_pid:-}" ] && kill "$served_pid" 2>/dev/null; rm -rf "$out_dir"' EXIT

echo "==> qzverify: every kernel Clean, finitely bounded, and calibrated"
# Replays the experiment grid with the build observer installed and
# runs quetzal-verify over every program it stages. The gate fails on
# any verdict below Clean (warnings included), on any of the 15
# in-tree kernels missing a finite proven resource bound
# (instructions / pages / cycles), and on any calibration run whose
# observed dynamics exceed the proven bound. The table itself is a
# golden: every proven and observed bound must match the committed
# results_qzverify.txt byte for byte.
QUETZAL_SCALE=0.25 \
    cargo run -q --release --offline -p quetzal-bench --bin qzverify \
    > "$out_dir/qzverify.txt"
cmp results_qzverify.txt "$out_dir/qzverify.txt" \
    || { echo "FAIL: qzverify output differs from results_qzverify.txt"; exit 1; }

echo "==> smoke: run_all at reduced scale, 1 vs N threads byte-identical"
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
./target/release/json_gate "$out_dir/ds1.json" 'benchmark="uarch-design-space"' \
    || { echo "FAIL: design_space wrote no JSON artifact"; exit 1; }

# The 48-pair file the served ingest job and the qzingest smoke share.
./target/release/qzingest stage --dataset 100bp_1 --pairs 48 \
    --out "$out_dir/pairs.tsv" 2>/dev/null

echo "==> smoke: qzserved daemon loopback, byte-identical to offline"
# Alignment-as-a-service: start the daemon on an ephemeral port, submit
# the same align and fault jobs through qzclient and through the
# in-process --offline path, and require byte-identical reports. The
# fault job must show verifier-gated admission (typed `rejected`
# frames) and no escaped panic (a `panic` frame is a defect by the
# fault sweep's own standard), /stats must answer, and the shutdown
# frame must produce a clean daemon exit. A served ingest job with a
# shard instruction budget must stop where qzingest stops: its frames
# equal the offline path's, and its report equals qzingest's although
# the daemon runs 16-item chunks and qzingest 32.
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
./target/release/qzclient submit --addr "$served_addr" --pairs 40 \
    > "$out_dir/served_align.txt" 2>/dev/null
./target/release/qzclient submit --offline --pairs 40 \
    > "$out_dir/offline_align.txt" 2>/dev/null
cmp "$out_dir/served_align.txt" "$out_dir/offline_align.txt" \
    || { echo "FAIL: served align report differs from offline BatchRunner"; exit 1; }
./target/release/qzclient fault --addr "$served_addr" --cases 24 \
    > "$out_dir/served_fault.txt" 2>/dev/null
./target/release/qzclient fault --offline --cases 24 \
    > "$out_dir/offline_fault.txt" 2>/dev/null
cmp "$out_dir/served_fault.txt" "$out_dir/offline_fault.txt" \
    || { echo "FAIL: served fault report differs from offline BatchRunner"; exit 1; }
./target/release/json_gate "$out_dir/served_fault.txt" 'cause="rejected"' \
    || { echo "FAIL: fault smoke exercised no verifier-gated rejection"; exit 1; }
./target/release/json_gate "$out_dir/served_fault.txt" '!cause="panic"' \
    || { echo "FAIL: fault smoke carries an escaped panic frame"; exit 1; }
./target/release/qzclient stats --addr "$served_addr" > "$out_dir/served_stats.json"
./target/release/json_gate "$out_dir/served_stats.json" 'jobs.accepted=2' \
    || { echo "FAIL: /stats did not account for both smoke jobs"; exit 1; }
ingest_flags=(--input "$out_dir/pairs.tsv" --shard 8 --shard-insts 100)
./target/release/qzclient ingest --addr "$served_addr" "${ingest_flags[@]}" \
    --ckpt "$out_dir/ck-served" --output "$out_dir/served-ingest.out" \
    > "$out_dir/served_ingest.txt" 2>/dev/null
./target/release/qzclient ingest --offline "${ingest_flags[@]}" \
    --ckpt "$out_dir/ck-offline" --output "$out_dir/offline-ingest.out" \
    > "$out_dir/offline_ingest.txt" 2>/dev/null
cmp "$out_dir/served_ingest.txt" "$out_dir/offline_ingest.txt" \
    || { echo "FAIL: served ingest frames differ from offline BatchRunner"; exit 1; }
./target/release/qzingest run "${ingest_flags[@]}" --ckpt "$out_dir/ck-budget-report" \
    --output "$out_dir/ingest-budget.out" --quiet 2>/dev/null
cmp "$out_dir/served-ingest.out" "$out_dir/ingest-budget.out" \
    || { echo "FAIL: served ingest stopped elsewhere than qzingest"; exit 1; }
./target/release/json_gate "$out_dir/served_ingest.txt" 'type="shard_done"' \
    'quarantined="instruction budget 100 exceeded (2811 retired after 1 item(s))"' \
    || { echo "FAIL: served ingest quarantined no shard by its budget"; exit 1; }
./target/release/qzclient shutdown --addr "$served_addr" > /dev/null
wait "$served_pid" \
    || { echo "FAIL: qzserved did not exit cleanly after shutdown"; exit 1; }
served_pid=""

echo "==> smoke: qzingest crash/resume, byte-identical at 1 and 4 threads"
# Crash-safe ingestion: run the staged pair file uninterrupted, then
# kill a second run at a shard boundary (real process death, exit 137)
# and a third mid-manifest-write (torn manifest on disk), resume both,
# and require the assembled reports byte-identical to the uninterrupted
# run — with the killed run and its resume at different thread counts.
# Prints "<resumed> <quarantined> <torn>" from qzingest's closing
# summary line (empty when the line is missing).
ingest_counts() {
    sed -nE 's/^qzingest: [0-9]+ item\(s\) in [0-9]+ shard\(s\) \(([0-9]+) resumed, ([0-9]+) quarantined, ([0-9]+) torn manifest\(s\)\).*/\1 \2 \3/p' "$1"
}
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-fresh" --output "$out_dir/ingest-fresh.out" \
    --shard 8 --quiet 2>/dev/null
# One file per shard commit: 48 pairs in 8-pair shards leave exactly
# six shard files (manifest header, output lines and checksum in one),
# and no separate output file or leftover temp file.
mapfile -t ck_entries < <(ls -A "$out_dir/ck-fresh")
[ "${#ck_entries[@]}" -eq 6 ] \
    || { echo "FAIL: fresh checkpoint holds ${#ck_entries[@]} entries, not 6"; exit 1; }
for entry in "${ck_entries[@]}"; do
    [[ "$entry" =~ ^shard-[0-9]{6}\.manifest$ && -f "$out_dir/ck-fresh/$entry" ]] \
        || { echo "FAIL: unexpected checkpoint entry '$entry'"; exit 1; }
done
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
read -r resumed _ _ <<< "$(ingest_counts "$out_dir/ingest-resume.log")"
[ "$resumed" = 3 ] \
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
read -r _ _ torn <<< "$(ingest_counts "$out_dir/ingest-torn.log")"
[ "$torn" = 1 ] \
    || { echo "FAIL: recovery never flagged the torn manifest"; exit 1; }
# A shard instruction budget below one pair's retired count must bind
# inside the shard's single chunk (8-item shards, 32-item chunks).
QUETZAL_THREADS=4 ./target/release/qzingest run --input "$out_dir/pairs.tsv" \
    --ckpt "$out_dir/ck-budget" --shard 8 --shard-insts 100 --quiet \
    2> "$out_dir/ingest-budget.log"
read -r _ quarantined _ <<< "$(ingest_counts "$out_dir/ingest-budget.log")"
[ "${quarantined:-0}" -ge 1 ] \
    || { echo "FAIL: --shard-insts 100 quarantined no shard"; exit 1; }
# The pair-file grammar: the same pairs with every other one lowercased,
# CRLF endings, a comment and a blank line, and a single space as the
# separator on every third line must ingest to the same report; a
# trailing pair with an `N` must fail the run and name its line (49).
awk 'BEGIN { ORS = "\r\n" }
     NR == 3 { print "# comment"; print "" }
     NR % 2 == 0 { $0 = tolower($0) }
     NR % 3 == 0 { sub(/\t/, " ") }
     { print }' "$out_dir/pairs.tsv" > "$out_dir/pairs-messy.tsv"
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs-messy.tsv" \
    --ckpt "$out_dir/ck-messy" --output "$out_dir/ingest-messy.out" \
    --shard 8 --quiet 2>/dev/null
cmp "$out_dir/ingest-fresh.out" "$out_dir/ingest-messy.out" \
    || { echo "FAIL: the reformatted pair file ingested differently"; exit 1; }
cp "$out_dir/pairs.tsv" "$out_dir/pairs-bad.tsv"
printf 'ACGTN\tACGTA\n' >> "$out_dir/pairs-bad.tsv"
rc=0
QUETZAL_THREADS=1 ./target/release/qzingest run --input "$out_dir/pairs-bad.tsv" \
    --ckpt "$out_dir/ck-bad" --shard 8 --quiet 2> "$out_dir/ingest-bad.log" || rc=$?
[ "$rc" -ne 0 ] && grep -q "line 49: invalid DNA symbol 'N'" "$out_dir/ingest-bad.log" \
    || { echo "FAIL: an invalid symbol on line 49 did not fail the run by line"; exit 1; }

echo "==> smoke: qz_align over the staged pair file, every algorithm"
# The CLI aligner shares the pair path of qzingest/qzserved (windowed
# classical DP, one cold machine per pair); any failed pair exits 1.
for algo in wfa biwfa ss sw nw; do
    ./target/release/qz_align "$out_dir/pairs.tsv" --algo "$algo" \
        --tier quetzal+c > /dev/null 2>&1 \
        || { echo "FAIL: qz_align --algo $algo exited non-zero"; exit 1; }
done
# A pair file whose second line is not UTF-8 must fail naming line 2.
printf 'ACGT\tACGT\nAC\377T\tACGT\n' > "$out_dir/pairs-utf8.tsv"
rc=0
./target/release/qz_align "$out_dir/pairs-utf8.tsv" --algo wfa \
    > /dev/null 2> "$out_dir/qz_align-utf8.log" || rc=$?
[ "$rc" -ne 0 ] && grep -q "line 2: invalid UTF-8" "$out_dir/qz_align-utf8.log" \
    || { echo "FAIL: a non-UTF-8 line 2 did not fail qz_align by line"; exit 1; }

echo "==> smoke: trace_run probed replay + Chrome-trace JSON"
QUETZAL_SCALE=0.25 \
    cargo run -q --release --offline -p quetzal-bench --bin trace_run -- \
    wfa vec --top 5 --chrome "$out_dir/trace.json" > "$out_dir/trace.txt"
grep -q "CPI stack" "$out_dir/trace.txt" \
    || { echo "FAIL: trace_run printed no CPI stack"; exit 1; }
test -s "$out_dir/trace.json" \
    || { echo "FAIL: trace_run wrote no Chrome trace"; exit 1; }
# The Chrome trace must parse with the in-tree strict parser
# (quetzal_trace::json).
./target/release/json_gate "$out_dir/trace.json" \
    || { echo "FAIL: trace_run's Chrome trace is not valid JSON"; exit 1; }

echo "==> committed results_run_all.txt is fresh (default scale)"
QUETZAL_THREADS=4 \
    cargo run -q --release --offline -p quetzal-bench --bin run_all -- --cpi-stacks \
    > "$out_dir/full.txt" 2>/dev/null
cmp results_run_all.txt "$out_dir/full.txt" \
    || { echo "FAIL: results_run_all.txt is stale; regenerate with run_all"; exit 1; }

echo "==> perf trajectory: BENCH_uarch.json (simulated MIPS, both engines)"
# bench_uarch writes the artifact, then gates the two floors it computed
# and exits non-zero if either trips:
# * the cycle engine's geomean must clear 6.0 sim-MIPS at the default
#   config (the timing engine's free-slot heaps must not cost throughput).
#   The floor sits well below the measured geomean so it only trips on
#   structural regressions, e.g. a per-retire cost that scales with the
#   configured widths, not on a slow runner;
# * the functional tier must beat the cycle engine by >= 2x geomean
#   sim-MIPS over the kernel grid, or it is dead weight.
cargo run -q --release --offline -p quetzal-bench --bin bench_uarch \
    > BENCH_uarch.json
./target/release/json_gate BENCH_uarch.json 'benchmark="uarch-sim-throughput"' \
    || { echo "FAIL: BENCH_uarch.json is not the throughput artifact"; exit 1; }

echo "CI OK"
