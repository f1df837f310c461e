#!/usr/bin/env bash
# One-coordinator / two-worker distributed explain over loopback.
#
# Builds nothing: point it at a build directory containing scorpiond
# (default: ./build). Starts two worker processes on ephemeral ports, runs
# a coordinate pass that verifies the distributed answer is bit-identical
# to the in-process engine, then shuts the workers down over the wire.
#
# A second pass repeats the run under fault injection: the first worker
# (where the coordinator sends its explain) armed to crash on its first
# explain (`worker.explain=after(0):crash`; after(N-1) dies on the N-th)
# and the coordinator flaking 2% of its frame reads. The answer must still
# verify bit-identical — re-sending the explain to the survivor and
# retrying absorb the faults.
#
# Usage: examples/run_distributed_loopback.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/scorpiond"
if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found — build it with:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR --target scorpiond" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
W1_PID=""
W2_PID=""
cleanup() {
  [ -n "$W1_PID" ] && kill "$W1_PID" 2>/dev/null || true
  [ -n "$W2_PID" ] && kill "$W2_PID" 2>/dev/null || true
  rm -rf "$TMP_DIR"
}
trap cleanup EXIT

"$BIN" worker --listen 0 > "$TMP_DIR/w1.log" & W1_PID=$!
"$BIN" worker --listen 0 > "$TMP_DIR/w2.log" & W2_PID=$!

# Each worker prints "LISTENING <port>" once bound.
wait_port() {
  for _ in $(seq 1 100); do
    port="$(awk '/^LISTENING /{print $2; exit}' "$1" 2>/dev/null || true)"
    if [ -n "$port" ]; then echo "$port"; return 0; fi
    sleep 0.1
  done
  echo "error: worker did not report a port ($1)" >&2
  return 1
}
P1="$(wait_port "$TMP_DIR/w1.log")"
P2="$(wait_port "$TMP_DIR/w2.log")"
echo "workers listening on 127.0.0.1:$P1 and 127.0.0.1:$P2"

"$BIN" coordinate \
  --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
  --verify-local \
  --shutdown-workers

# --shutdown-workers ends both processes; collect their exit codes.
wait "$W1_PID"
wait "$W2_PID"
W1_PID=""
W2_PID=""
echo "distributed loopback explain: OK"

# --- Fault-injection pass -------------------------------------------------
# Same run, now with the first worker set to crash on its first explain
# (armed through SCORPION_FAILPOINTS) and the coordinator dropping ~2% of
# frame reads. The coordinator must declare the dead worker lost, re-send
# the explain to the survivor, retry the flaky reads, and still produce the
# bit-identical answer.
echo "--- repeating under fault injection ---"
SCORPION_FAILPOINTS="worker.explain=after(0):crash" \
  "$BIN" worker --listen 0 > "$TMP_DIR/w1.log" & W1_PID=$!
"$BIN" worker --listen 0 > "$TMP_DIR/w2.log" & W2_PID=$!
P1="$(wait_port "$TMP_DIR/w1.log")"
P2="$(wait_port "$TMP_DIR/w2.log")"
echo "workers listening on 127.0.0.1:$P1 (armed: crash on first explain) and 127.0.0.1:$P2"

"$BIN" coordinate \
  --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
  --failpoints "net.read_frame=prob(0.02,41):error(io)" \
  --verify-local \
  --shutdown-workers

# Worker 1 crashed by design; only worker 2 sees the shutdown frame.
wait "$W1_PID" || true
wait "$W2_PID"
W1_PID=""
W2_PID=""
echo "distributed loopback explain under fault injection: OK"
