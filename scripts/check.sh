#!/bin/sh
# Full verification sweep: builds the project under Release, ASan/UBSan,
# and TSan, and runs the whole ctest suite under each. TSan is the build
# that actually exercises the parallel PRE driver for data races (the
# differential tests spin up the work-stealing pool at several worker
# counts), so a green TSan run here is the race-freedom check the
# parallel pipeline relies on.
#
# Usage: scripts/check.sh [jobs]        (default: nproc)

set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

for CONFIG in Release Asan Tsan; do
  BUILD_DIR="build-$(echo "$CONFIG" | tr '[:upper:]' '[:lower:]')"
  echo "==== [$CONFIG] configure + build ($BUILD_DIR, -j$JOBS) ===="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$CONFIG" >/dev/null
  cmake --build "$BUILD_DIR" -j"$JOBS"
  echo "==== [$CONFIG] ctest ===="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"
done

# Bounded differential-fuzzing smoke on the Release build: replays every
# reduced reproducer in tests/corpus/ (also covered by corpus_test) and
# runs a fixed-seed batch of fresh cases through the oracle stack. See
# docs/TESTING.md for the unbounded overnight invocation.
echo "==== fuzz smoke (fixed seeds) ===="
for f in tests/corpus/*.ir; do
  ./build-release/tools/specpre-fuzz --replay="$f"
done
./build-release/tools/specpre-fuzz --cases=150 --networks=500 --seed=1

# Fault-injection smoke (docs/ROBUSTNESS.md): with every site armed, the
# ladder must land each function on a verified rung and exit cleanly;
# the ASan build catches any recovery-path memory error.
echo "==== fault-injection smoke ===="
./build-release/tools/specpre-fuzz --cases=150 --seed=1 --inject-faults=all:0.1:7
./build-asan/tools/specpre-fuzz --cases=60 --seed=2 --inject-faults=all:0.5:11

# Compilation-cache smoke (docs/CACHING.md): cold populate, warm replay,
# then verify mode, which recompiles every hit and exits nonzero on any
# bit difference. All three stdouts must be identical, and the warm run
# neither recompiles nor retrains.
echo "==== cache verify smoke ===="
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
for f in examples/programs/*.spre; do
  ./build-release/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
    --cache-dir="$CACHE_DIR" "$f" > "$CACHE_DIR/cold.out"
  ./build-release/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
    --cache-dir="$CACHE_DIR" "$f" > "$CACHE_DIR/warm.out" \
    2> "$CACHE_DIR/warm.err"
  ./build-release/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
    --cache-dir="$CACHE_DIR" --cache=verify "$f" > "$CACHE_DIR/verify.out"
  cmp "$CACHE_DIR/cold.out" "$CACHE_DIR/warm.out"
  cmp "$CACHE_DIR/cold.out" "$CACHE_DIR/verify.out"
  grep -q ' misses=0 ' "$CACHE_DIR/warm.err"
  grep -q 'train_misses=0' "$CACHE_DIR/warm.err"
done

# Serve smoke (docs/SERVING.md): start the daemon (Release and ASan),
# submit each example through the client mode, require the stdout,
# stderr and exit code of the direct batch run — for clean compiles and
# for four error paths — then SIGTERM and require a clean, drained exit
# (status 0).
echo "==== serve smoke ===="
same_as_local() {
  LOCAL_RC=0
  "./$BUILD/tools/specpre-opt" "$@" > "$SERVE_DIR/local.out" \
    2> "$SERVE_DIR/local.err" || LOCAL_RC=$?
  REMOTE_RC=0
  "./$BUILD/tools/specpre-opt" --connect="$SOCK" "$@" \
    > "$SERVE_DIR/remote.out" 2> "$SERVE_DIR/remote.err" || REMOTE_RC=$?
  cmp "$SERVE_DIR/local.out" "$SERVE_DIR/remote.out"
  cmp "$SERVE_DIR/local.err" "$SERVE_DIR/remote.err"
  [ "$LOCAL_RC" = "$REMOTE_RC" ] || {
    echo "exit code $LOCAL_RC locally, $REMOTE_RC with --connect: $*"; exit 1; }
}
for BUILD in build-release build-asan; do
  SERVE_DIR="$(mktemp -d)"
  SOCK="$SERVE_DIR/serve.sock"
  "./$BUILD/tools/specpre-serve" --socket="$SOCK" \
    --cache-dir="$SERVE_DIR/cache" --metrics-out="$SERVE_DIR/metrics.json" &
  SERVE_PID=$!
  for i in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.1
  done
  [ -S "$SOCK" ] || { echo "daemon never bound $SOCK"; exit 1; }
  for f in examples/programs/loop.spre examples/programs/diamond.spre; do
    same_as_local --strategy=mcssapre --train=3,4,64 "$f"
    # Warm replay through the shared cache must stay bit-identical.
    same_as_local --strategy=mcssapre --train=3,4,64 "$f"
  done
  # Error paths: no training arguments or profile, a malformed profile,
  # malformed IR, and an out-of-range flag (rejected before any request
  # is sent, so it does not count as a served request).
  same_as_local --strategy=mcssapre examples/programs/loop.spre
  same_as_local --strategy=mcssapre --no-emit \
    --profile-in=tests/corpus/malformed/huge-block-id.prof \
    examples/programs/loop.spre
  same_as_local --strategy=none tests/corpus/malformed/truncated.ir
  same_as_local --strategy=lospre --train=3,4,64 --lospre-max-width=65 \
    examples/programs/loop.spre
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID" || { echo "daemon exited nonzero on SIGTERM"; exit 1; }
  grep -q '"requests_received": 7' "$SERVE_DIR/metrics.json" || {
    echo "daemon metrics missing served requests"; exit 1; }
  rm -rf "$SERVE_DIR"
done

# Service load smoke: 8 concurrent clients over the suite, asserting
# warm-wave cache hits and per-response bit-identity (exit 1 inside the
# bench on any violation).
./build-release/bench/serve_throughput --smoke --clients=8 \
  --json-out="$CACHE_DIR/serve_bench.json"

# Chaos smoke (docs/ROBUSTNESS.md): a process-isolated ASan daemon with
# worker kills and torn frames injected mid-load; the retrying client
# must still produce bit-identical stdout, and SIGTERM must leave no
# socket file or pidfile behind.
echo "==== chaos smoke ===="
CHAOS_DIR="$(mktemp -d)"
CSOCK="$CHAOS_DIR/serve.sock"
./build-asan/tools/specpre-serve --socket="$CSOCK" \
  --isolate=process --inject-faults=worker-kill:0.25:7,torn-frame:0.1:3 \
  --quarantine-after=6 --pidfile="$CHAOS_DIR/serve.pid" \
  --metrics-out="$CHAOS_DIR/metrics.json" &
CHAOS_PID=$!
for i in $(seq 1 50); do
  [ -S "$CSOCK" ] && break
  sleep 0.1
done
[ -S "$CSOCK" ] || { echo "chaos daemon never bound $CSOCK"; exit 1; }
[ -f "$CHAOS_DIR/serve.pid" ] || { echo "daemon wrote no pidfile"; exit 1; }
for f in examples/programs/loop.spre examples/programs/diamond.spre; do
  ./build-asan/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
    "$f" > "$CHAOS_DIR/local.out"
  ./build-asan/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
    --connect="$CSOCK" --retries=8 --timeout-ms=30000 \
    "$f" > "$CHAOS_DIR/remote.out"
  cmp "$CHAOS_DIR/local.out" "$CHAOS_DIR/remote.out"
done
kill -TERM "$CHAOS_PID"
wait "$CHAOS_PID" || { echo "chaos daemon exited nonzero on SIGTERM"; exit 1; }
[ ! -e "$CSOCK" ] || { echo "stale socket file left behind"; exit 1; }
[ ! -e "$CHAOS_DIR/serve.pid" ] || { echo "stale pidfile left behind"; exit 1; }
grep -q '"worker_crashes"' "$CHAOS_DIR/metrics.json" || {
  echo "daemon metrics missing robustness counters"; exit 1; }
grep -q '"retries"' "$CHAOS_DIR/metrics.json" || {
  echo "daemon metrics missing retry counter"; exit 1; }
grep -q '"functions_compiled": [1-9]' "$CHAOS_DIR/metrics.json" || {
  echo "daemon metrics missing the sandboxed compiles"; exit 1; }
rm -rf "$CHAOS_DIR"

# Disk-chaos smoke (docs/CACHING.md "Durability and self-healing"): an
# ASan daemon with a durable disk cache tier and all five disk fault
# sites armed at 5%, a tight breaker, and the background scrubber
# running. Every retried response must stay bit-identical to the local
# compile — disk faults may cost recompiles, never bytes — and the
# final metrics must expose the corruption and breaker counters.
echo "==== disk-chaos smoke ===="
DCHAOS_DIR="$(mktemp -d)"
DSOCK="$DCHAOS_DIR/serve.sock"
./build-asan/tools/specpre-serve --socket="$DSOCK" \
  --cache-dir="$DCHAOS_DIR/cache" --cache-durable=on \
  --cache-breaker-threshold=4 --cache-breaker-cooldown-ms=200 \
  --cache-scrub-interval-ms=200 \
  --inject-faults=disk-short-write:0.05:51,disk-enospc:0.05:52,disk-eio:0.05:53,disk-corrupt-byte:0.05:54,disk-rename-fail:0.05:55 \
  --metrics-out="$DCHAOS_DIR/metrics.json" &
DCHAOS_PID=$!
for i in $(seq 1 50); do
  [ -S "$DSOCK" ] && break
  sleep 0.1
done
[ -S "$DSOCK" ] || { echo "disk-chaos daemon never bound $DSOCK"; exit 1; }
for pass in 1 2; do
  for f in examples/programs/loop.spre examples/programs/diamond.spre; do
    ./build-asan/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
      "$f" > "$DCHAOS_DIR/local.out"
    ./build-asan/tools/specpre-opt --strategy=mcssapre --train=3,4,64 \
      --connect="$DSOCK" --retries=8 --timeout-ms=30000 \
      "$f" > "$DCHAOS_DIR/remote.out"
    cmp "$DCHAOS_DIR/local.out" "$DCHAOS_DIR/remote.out"
  done
done
kill -TERM "$DCHAOS_PID"
wait "$DCHAOS_PID" || { echo "disk-chaos daemon exited nonzero on SIGTERM"; exit 1; }
for key in '"corrupt_dropped"' '"breaker_opens"' '"scrub_scanned"'; do
  grep -q "$key" "$DCHAOS_DIR/metrics.json" || {
    echo "daemon metrics missing $key"; exit 1; }
done
# The one-shot scrubber over the stormed tier must exit cleanly too.
./build-asan/tools/specpre-opt --cache-dir="$DCHAOS_DIR/cache" --cache-scrub
rm -rf "$DCHAOS_DIR"

# Degraded-mode load smoke: retry-aware concurrent clients against a
# fault-injected process-isolated daemon with a damaged disk tier
# (exit 1 inside the bench on any hang or non-degraded divergence).
./build-release/bench/serve_throughput --smoke --chaos --clients=4 \
  --json-out="$CACHE_DIR/serve_chaos.json"

# The end-to-end benchmark's self-test (perfbench/, BENCHMARK.json): it
# builds perfbench and specpre-serve from this tree at tiny size, runs
# every workload traced and untraced, and requires a corrupted output
# to fail exactly one request.
echo "==== perfbench self-test ===="
python3 perfbench/selftest.py

echo "==== all configurations passed ===="
