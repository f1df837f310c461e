#!/usr/bin/env python3
"""Multi-process loopback test of the distributed explanation service.

Drives the real scorpiond binary: two worker processes on ephemeral
loopback ports, one coordinate run that verifies the distributed answer is
bit-identical to the in-process engine in exactly one explain request, and
a second run where the first worker process (the one the coordinator sends
its explain to) _exits upon that request, armed through SCORPION_FAILPOINTS,
to prove the coordinator re-sends the explain to the survivor and still
matches the local answer.

Usage: distributed_loopback.py <path-to-scorpiond>
"""
import json
import os
import subprocess
import sys

TUPLES_PER_GROUP = 1500  # 10 groups -> 15000 rows -> 4 blocks of 4096


def start_worker(binary, failpoints=""):
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


def coordinate(binary, ports, algorithm):
    endpoints = ",".join(f"127.0.0.1:{p}" for p in ports)
    result = subprocess.run(
        [
            binary, "coordinate",
            "--workers", endpoints,
            "--algorithm", algorithm,
            "--tuples-per-group", str(TUPLES_PER_GROUP),
            "--verify-local",
            "--shutdown-workers",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=240,
    )
    print(result.stdout)
    if result.returncode != 0:
        raise SystemExit(f"coordinate exited {result.returncode}")
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    if summary.get("matches_local") is not True:
        raise SystemExit("distributed explain does not match the local one")
    return summary


def reap(procs, expect_clean):
    for proc in procs:
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("worker did not exit after shutdown")
        if expect_clean and code != 0:
            raise SystemExit(f"worker exited {code}")


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    binary = sys.argv[1]

    # Healthy path: 2 workers, DT. --shutdown-workers ends both processes.
    w1, p1 = start_worker(binary)
    w2, p2 = start_worker(binary)
    summary = coordinate(binary, [p1, p2], "dt")
    if summary["workers_lost"] != 0:
        raise SystemExit("healthy run lost a worker")
    if summary["explain_requests"] != 1 or summary["bytes_on_wire"] == 0:
        raise SystemExit("healthy run should send exactly one explain")
    if summary["local_fallbacks"] != 0:
        raise SystemExit("healthy run fell back to the local engine")
    reap([w1, w2], expect_clean=True)

    # Crash path: the first worker process, where the coordinator sends its
    # explain, dies on that explain (after(0) fires on the first one). The
    # coordinator must re-send the explain to the second worker and still
    # match the local engine bit for bit (coordinate exits 1 otherwise).
    w1, p1 = start_worker(binary, "worker.explain=after(0):crash")
    w2, p2 = start_worker(binary)
    summary = coordinate(binary, [p1, p2], "dt")
    if summary["workers_lost"] < 1:
        raise SystemExit("crash run did not record a lost worker")
    if summary["explains_redispatched"] < 1:
        raise SystemExit("crash run did not re-send the explain")
    if summary["live_workers"] != 1:
        raise SystemExit("crash run should end with one live worker")
    if summary["local_fallbacks"] != 0:
        raise SystemExit("crash run should be served by the survivor")
    reap([w2], expect_clean=True)
    reap([w1], expect_clean=False)  # _exit(0) on purpose, just collect it

    print("distributed_loopback: OK")


if __name__ == "__main__":
    main()
