"""Self-test of the benchmark itself.

Two traced runs of a workload at one seed must give identical counts and
identical output digests; a run at another seed must change the digests of
the flow workloads (their particles come from the seed). Run from anywhere:

    python3 bench/selftest.py

It checks solve, stability and blowup at seed 1, and stability and blowup
again at seed 2. It runs ``bench/run.py`` in child processes, one at a time,
and exits 1 if a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("steady.shots", "steady.shots_failed", "dynamics.kdk_steps",
          "dynamics.field_per_step", "dynamics.records", "io.bytes_written")
SEEDED = ("stability", "blowup")
SEED = 1


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(ROOT / ".bench_out" / workload / "result.json") as fh:
        return json.load(fh)


def check(workload: str, seed: int) -> list:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for run in (first, second):
        failed = [op["kind"] for p in run["passes"] for op in p["ops"] if op["error"]]
        if failed:
            problems.append(f"{workload}: failed operations {failed}")
    for name in COUNTS:
        a, b = first["per_layer"][name], second["per_layer"][name]
        print(f"{workload} seed {seed}: {name} = {a} / {b}")
        if a != b:
            problems.append(f"{workload}: {name} differs between runs ({a} vs {b})")
    if first["digests"] != second["digests"]:
        problems.append(f"{workload}: output digests differ between runs at seed {seed}")
    if workload in SEEDED:
        other = traced_run(workload, seed + 1)
        if other["digests"] == first["digests"]:
            problems.append(f"{workload}: seed {seed + 1} gives the same outputs as {seed}")
    return problems


def main() -> int:
    problems = [p for w in ("solve",) + SEEDED for p in check(w, SEED)]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
