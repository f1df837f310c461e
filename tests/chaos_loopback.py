#!/usr/bin/env python3
"""Multi-process chaos soak for the distributed explanation service.

Replays `scorpiond coordinate --verify-local` against real worker
processes under deterministic seeded fault schedules. Workers are armed
through the SCORPION_FAILPOINTS env var, the coordinator through its
--failpoints flag — the same spec grammar end to end.

Contract per replay (the robustness bar the chaos harness enforces):
  exit 0 + matches_local  -> survived the schedule, answer bit-identical
  exit 3                  -> clean, attributable failure Status (allowed:
                             injected faults may legitimately fail a run)
  exit 1                  -> DIVERGENCE: silent wrong answer. Always a bug.
  signal / other exits    -> crash. Always a bug.
  timeout                 -> hang. Always a bug.
Every replay must also trip its schedule at least once: the coordinator
reports its own fires in its JSON summary, and each worker prints
"FAILPOINTS_TRIPPED <n>" when it exits (workers the run left running are
shut down over the wire first).

Usage: chaos_loopback.py <path-to-scorpiond> [--schedules N]
"""
import json
import os
import signal
import socket
import struct
import subprocess
import sys

TUPLES_PER_GROUP = 800  # 10 groups -> 8000 rows -> 2 blocks of 4096
RUN_TIMEOUT_SECONDS = 240

# (worker SCORPION_FAILPOINTS, coordinator --failpoints). Seeds live in the
# specs, so any failing schedule replays from this table alone. Both workers
# get the same worker spec, and each process counts its own evaluations.
# Worker-side `crash` is a real _exit mid-request; the coordinator side
# never arms `crash` (the coordinate process is the one being graded).
#
# A run is short, so triggers count frames exactly. The coordinator writes
# (and reads) ping x2, publish+prepare x2, then the explain as its 7th
# frame and every retry after it; a worker writes (and reads) ping,
# publish, prepare, then the explain as its 4th frame. The 2 s heartbeat
# rarely lands inside a run; when it does, a trigger fires on a nearby
# frame instead, which the contract above covers just the same.
SCHEDULES = [
    # Each worker process dies on its first explain: the first worker
    # takes the explain and dies, the retry kills the second, and the
    # coordinator falls back to the local engine.
    ("worker.explain=once:crash", ""),
    # Each worker answers its first explain with an error: the retry goes
    # to the second worker (also an error), the third attempt back to the
    # first, which now serves it.
    ("worker.explain=once:error(unavailable)", ""),
    # Workers corrupt their 4th response frame (the explain's): garbage
    # envelopes, workers declared lost, local fallback.
    ("net.write_frame=every(4):corrupt", ""),
    # Coordinator corrupts its 7th request frame (the first explain): that
    # worker is lost and the second serves the retry.
    ("", "net.write_frame=every(7):corrupt"),
    # Coordinator fails its 7th read (the first explain's response): that
    # worker is lost and the second serves the retry.
    ("", "net.read_frame=every(7):error(io)"),
    # Workers fail their 4th read (the explain request): connections drop.
    ("net.read_frame=every(4):error(io)", ""),
    # Publish-path fault on both workers: the run fails cleanly before any
    # explain is sent.
    ("worker.prepare_problem=once:error(unavailable)", ""),
    # Mixed: each worker's first explain errors and the coordinator
    # truncates its 8th send (the first retry), so the third attempt
    # serves it.
    ("worker.explain=once:error(internal)",
     "net.write_frame=every(8):truncate"),
]


def shutdown_worker(port):
    """Sends a wire shutdown to a worker the run left running."""
    payload = json.dumps({"scorpion_wire": 3, "op": "shutdown", "id": 1,
                          "body": {}}).encode()
    frame = b"SCP1" + struct.pack(">I", len(payload)) + payload
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(frame)
            s.recv(1 << 16)  # the reply (or EOF) — either way it was read
    except OSError:
        pass  # not listening any more: it already exited


def reap_worker(proc, port):
    """Stops one worker and returns the fires it reported (0 if none)."""
    # A worker whose read failpoint eats the shutdown frame stays up; each
    # retry is a later evaluation, so a few attempts get through.
    for _ in range(3):
        if proc.poll() is not None:
            break
        shutdown_worker(port)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    tripped = 0
    for line in proc.stdout.read().splitlines():
        if line.startswith("FAILPOINTS_TRIPPED "):
            tripped = int(line.split()[1])
    return tripped


def start_worker(binary, failpoints):
    env = dict(os.environ)
    env.pop("SCORPION_FAILPOINTS", None)
    if failpoints:
        env["SCORPION_FAILPOINTS"] = failpoints
    proc = subprocess.Popen(
        [binary, "worker", "--listen", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise SystemExit(f"worker did not report a port, said: {line!r}")
    return proc, int(line.split()[1])


def run_schedule(binary, index, worker_spec, coord_spec):
    label = f"schedule {index}: worker={worker_spec!r} coord={coord_spec!r}"
    workers = []
    try:
        for _ in range(2):
            workers.append(start_worker(binary, worker_spec))
        endpoints = ",".join(f"127.0.0.1:{p}" for _, p in workers)
        argv = [
            binary, "coordinate",
            "--workers", endpoints,
            "--algorithm", "dt",
            "--tuples-per-group", str(TUPLES_PER_GROUP),
            "--verify-local",
            "--shutdown-workers",
            "--chaos",  # clean failures exit 3 even when only workers arm
        ]
        if coord_spec:
            argv += ["--failpoints", coord_spec]
        try:
            result = subprocess.run(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                timeout=RUN_TIMEOUT_SECONDS,
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"HANG: {label}")
        print(f"--- {label} -> exit {result.returncode}")
        print(result.stdout)
        if result.returncode == 0:
            summary = json.loads(result.stdout.strip().splitlines()[-1])
            if summary.get("matches_local") is not True:
                raise SystemExit(f"DIVERGENCE (unflagged): {label}")
            outcome = "verified"
        elif result.returncode == 3:
            summary = json.loads(result.stdout.strip().splitlines()[-1])
            outcome = "clean_failure"
        elif result.returncode == 1 or "DIVERGENCE" in result.stdout:
            raise SystemExit(f"DIVERGENCE: {label}")
        else:
            raise SystemExit(
                f"CRASH: coordinate exited {result.returncode} under {label}")
        tripped = summary["failpoints_tripped"]
        for proc, port in workers:
            tripped += reap_worker(proc, port)
        workers = []
        print(f"    tripped {tripped}")
        if tripped == 0:
            raise SystemExit(f"schedule never fired: {label}")
        return outcome
    finally:
        # Survivors of an aborted replay must not leak.
        for proc, port in workers:
            reap_worker(proc, port)


def main():
    args = sys.argv[1:]
    if not args:
        raise SystemExit(__doc__)
    binary = args[0]
    count = len(SCHEDULES)
    if len(args) == 3 and args[1] == "--schedules":
        count = int(args[2])
    elif len(args) != 1:
        raise SystemExit(__doc__)

    outcomes = {"verified": 0, "clean_failure": 0}
    for i in range(count):
        worker_spec, coord_spec = SCHEDULES[i % len(SCHEDULES)]
        outcomes[run_schedule(binary, i, worker_spec, coord_spec)] += 1

    print(f"chaos_loopback: OK ({outcomes['verified']} verified, "
          f"{outcomes['clean_failure']} clean failures over {count} schedules)")
    # Vacuity guard: a soak where nothing survives proves nothing about the
    # recovery paths. Most of the pool is survivable by construction.
    if count >= len(SCHEDULES) and outcomes["verified"] < count // 2:
        raise SystemExit("too few verified runs — recovery paths not exercised")


if __name__ == "__main__":
    main()
