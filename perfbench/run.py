"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-jv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh interpreters (``worker.py``) with BLAS
threads pinned so that processes x threads stays within the cores the
workload is sized for.  Set-up time is the median over
``setup_repeats`` interpreters, each timed from process start to the
start of its timed phase.  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` prints the per-layer ones.  The
last line of standard output is one JSON object; a copy is saved under
``.perfbench/results/<workload>/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ROOT / ".perfbench" / "results"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(blas_threads: int) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in BLAS_VARIABLES:
        env[name] = str(blas_threads)
    return env


def spawn_worker(workload: str, mode: str, args, env: Dict[str, str],
                 deadline: float) -> dict:
    """Run ``worker.py`` once; return the JSON object it printed last."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--spawned-at", repr(time.time())]
    # A session of its own, so a timeout can stop the worker together
    # with every process it started (pool workers, the server).
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} ({mode}) overran the run budget")
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} ({mode}) worker exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchmarkError(f"{workload} ({mode}) worker printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, args, bench: dict, spec: dict,
                 deadline: float) -> dict:
    """Set-up probes plus one measured run; the contract's result object."""
    params = spec["workloads"][workload]
    env = worker_env(int(params["blas_threads"]))
    setups = [spawn_worker(workload, "setup", args, env, deadline)["setup_s"]
              for _ in range(int(spec["setup_repeats"]) - 1)]
    outcome = spawn_worker(workload, "run", args, env, deadline)
    setups.append(outcome["setup_s"])
    measured = dict(outcome["metrics"], setup_s=statistics.median(setups))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif args.trace:
            value = 0  # the layer is not on this workload's path
        else:
            raise BenchmarkError(f"{workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    report = dict(outcome.get("report", {}), setup_samples_s=setups)
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
            "report": report}


def print_report(workload: str, result: dict) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_share {share:.4f})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["report"].items():
        print(f"  # {name}: {value}")


def save(workload: str, args, result: dict) -> None:
    path = RESULTS_DIR / workload / f"trace{args.trace}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result) + "\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.seconds is None:
        args.seconds = int(bench["run_seconds"])
    names = [w["name"] for w in bench["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    unknown = [name for name in selected if name not in names]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {names} or all",
              file=sys.stderr)
        return 2

    results = {}
    for workload in selected:
        # Every workload gets the whole budget: ``all`` is for people,
        # the single-workload form is what must end within it.
        deadline = time.monotonic() + float(spec["run_budget_s"])
        try:
            results[workload] = run_workload(workload, args, bench, spec,
                                             deadline)
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        save(workload, args, results[workload])
        print_report(workload, results[workload])
    if len(results) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": metric for w, r in results.items()
                   for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
