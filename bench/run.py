"""Benchmark of gravlasov: the solve, stability and blowup workloads.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 16 --trace 0

The program is imported from ``src/`` next to this directory and driven
in-process through ``gravlasov.cli.main(argv)``; a workload runs in one
process with no worker threads. ``--workload all`` runs the three workloads one after another, each
in a child process of its own, so that each ``peak_rss_mib`` is its workload's,
and prints their results merged. Each run of one workload:

1. caps BLAS/OpenMP threads at the number of usable cores, then imports;
2. builds the workload's inputs from ``--seed`` three times (set-up);
3. runs one warm-up pass, whose timings are discarded;
4. runs measured passes until ``--seconds`` is used up (at least one);
5. prints a table of metrics with units and sample counts, writes
   ``.bench_out/<workload>/result.json`` (plus ``spans.json`` when traced),
   and prints the result JSON as the last line of standard output.

With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. A traced run alternates untraced and
traced passes, so it can report the tracing overhead. Every operation checks
its outputs; ``failed`` counts the operations that raised or failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".bench_out")                     # relative to ROOT, which is the cwd
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("solve", "stability", "blowup")


def cap_threads() -> int:
    """Cap the BLAS/OpenMP thread pools at the usable cores; return that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ[var])
        except (KeyError, ValueError):
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_program() -> float:
    """Import gravlasov from ROOT/src, and nowhere else; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import gravlasov.cli  # noqa: F401  (numpy, scipy and every module)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gravlasov from {src}: {exc}")
    import_s = time.perf_counter() - start
    origin = Path(gravlasov.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bench: gravlasov imported from {origin}, not from {src}")
    return import_s


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
            "VG_THREADS": os.environ.get("VG_THREADS")}


def digests(tree: Path) -> dict:
    """sha256 of every output file, by path relative to the pass directory."""
    return {str(path.relative_to(tree)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tree.rglob("*")) if path.is_file()}


def run_pass(ops, passdir: Path) -> dict:
    """Run every op of one pass; an op that raises counts as failed."""
    from workloads import CheckFailed

    shutil.rmtree(passdir, ignore_errors=True)
    passdir.mkdir(parents=True)
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            facts, error = op.run(str(passdir)), None
        except CheckFailed as exc:
            facts, error = {}, str(exc)
        except Exception:  # a defect in one op must not stop the benchmark
            facts, error = {}, traceback.format_exc()
        results.append({"kind": op.kind, "seconds": time.perf_counter() - t0,
                        "error": error, **facts})
        if error:
            print(f"bench: {op.kind} failed: {error}", file=sys.stderr)
    return {"seconds": time.perf_counter() - start, "ops": results}


def measure(workload, seed: int, seconds: float, traced: bool, import_s: float) -> dict:
    """Set up, warm up and run measured passes of one workload."""
    from tracing import Tracer

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        builds.append(time.perf_counter() - t0)
    ops = workload.ops(inputs)
    passdir = OUT / workload.name / "pass"

    tracer = Tracer() if traced else None
    warmup = run_pass(ops, passdir)
    print(f"bench: {workload.name} warm-up pass {warmup['seconds']:.2f} s", file=sys.stderr)
    passes, deadline = [], time.perf_counter() + seconds
    while True:
        # a traced run alternates untraced and traced passes, untraced first
        is_traced = traced and len(passes) % 2 == 1
        if is_traced:
            with tracer.installed(trace=len(passes)):
                record = run_pass(ops, passdir)
        else:
            record = run_pass(ops, passdir)
        record["traced"] = is_traced
        passes.append(record)
        print(f"bench: {workload.name} pass {len(passes)}{' (traced)' if is_traced else ''}"
              f" {record['seconds']:.2f} s", file=sys.stderr)
        # stop once a further pass would end past the deadline by more than half
        done = time.perf_counter() + record["seconds"] / 2 >= deadline
        if done and (not traced or len(passes) >= 2):
            break
    return {"setup_s": import_s + statistics.median(builds), "warmup": warmup,
            "passes": passes, "tracer": tracer,
            "bytes_written": sum(p.stat().st_size for p in passdir.rglob("*") if p.is_file()),
            "digests": digests(passdir)}


def _median(values):
    return statistics.median(values) if values else None


def op_counts(run: dict) -> tuple:
    """(attempted, failed) over every pass, the warm-up included."""
    ops = [op for p in run["passes"] + [run["warmup"]] for op in p["ops"]]
    return len(ops), sum(op["error"] is not None for op in ops)


def end_to_end(workload, run: dict) -> dict:
    """name -> (value, unit, samples); values that do not apply are None."""
    passes = [p for p in run["passes"] if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]

    def op_seconds(kind):
        return [op["seconds"] for op in ops if op["kind"] == kind]

    flow_rates = []
    for p in passes:
        flow = [op for op in p["ops"] if "particle_steps" in op]
        if flow:
            flow_rates.append(sum(op["particle_steps"] for op in flow)
                              / sum(op["seconds"] for op in flow))
    attempted, failed = op_counts(run)
    main = op_seconds(workload.name)
    return {
        "wall_s": (_median([p["seconds"] for p in passes]), "s", len(passes)),
        "setup_s": (run["setup_s"], "s", SETUP_REPEATS),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB", 1),
        "command_s": (_median(main), "s", len(main)),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "solve_s": (_median(op_seconds("solve")), "s", len(op_seconds("solve"))),
        "verify_s": (_median(op_seconds("verify")), "s", len(op_seconds("verify"))),
        "particle_steps_per_s": (_median(flow_rates), "1/s", len(flow_rates)),
    }


def per_layer(run: dict) -> dict:
    """name -> (value, unit, samples) from the traced passes."""
    import tracing

    traced = [i for i, p in enumerate(run["passes"]) if p["traced"]]
    untraced = [p["seconds"] for p in run["passes"] if not p["traced"]]
    spans = run["tracer"].spans
    values = tracing.layer_metrics(spans, traced, run["bytes_written"])
    values["trace.overhead_s"] = (statistics.median(run["passes"][i]["seconds"] for i in traced)
                                  - statistics.median(untraced))
    values["trace.overhead_est_s"] = tracing.wrapper_cost_s() * len(spans) / len(traced)
    units = spec_metrics("per_layer")
    return {name: (value, units[name], len(traced)) for name, value in values.items()}


def spec_metrics(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def print_table(title: str, rows: dict) -> None:
    print(f"\n{title}")
    for name, (value, unit, samples) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {unit:6s} samples={samples}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, env: dict) -> dict:
    from workloads import WORKLOADS
    import tracing

    workload = WORKLOADS[name]
    run = measure(workload, seed, seconds, trace, import_s)
    e2e = end_to_end(workload, run)
    print_table(f"{name} (seed {seed}): end to end, untraced passes", e2e)
    report = {"workload": name, "seed": seed, "environment": env,
              "end_to_end": {k: v[0] for k, v in e2e.items()},
              "digests": run["digests"], "bytes_written": run["bytes_written"],
              "passes": run["passes"], "warmup": run["warmup"]}
    chosen = spec_metrics("end_to_end")
    if trace:
        layers = per_layer(run)
        print_table(f"{name}: per layer, traced passes", layers)
        table = tracing.layer_table(run["tracer"].spans,
                                    sum(p["traced"] for p in run["passes"]))
        print("  layer      calls/pass   busy s/pass   wait s/pass")
        for layer, row in table.items():
            print(f"  {layer:10s} {row['calls']:10.1f} {row['busy_s']:13.4f} {row['wait_s']:13.1f}")
        print(f"  {tracing.KERNEL_NOTE}")
        report["per_layer"] = {k: v[0] for k, v in layers.items()}
        report["layers"] = table
        chosen, source = spec_metrics("per_layer"), layers
    else:
        source = e2e
    workdir = OUT / name
    with open(workdir / "result.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if trace:
        with open(workdir / "spans.json", "w") as fh:
            json.dump(run["tracer"].to_json(), fh)
    attempted, failed = op_counts(run)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": source[m][0], "unit": unit}
                        for m, unit in chosen.items()}}


def run_all(args) -> dict:
    """Run each workload in a child process, one at a time; merge the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        *table, last = child.stdout.splitlines() or [""]
        print("\n".join(table))
        if child.returncode != 0:
            raise SystemExit(f"bench: {name} exited with code {child.returncode}")
        results[name] = json.loads(last)
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"bench: {ROOT / 'BENCHMARK.json'} is missing")
    nproc = cap_threads()
    if args.workload == "all":
        final = run_all(args)
    else:
        import_s = import_program()
        final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                             import_s, environment(nproc))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
