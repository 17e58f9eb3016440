"""Benchmark of the afemrec adaptive loop, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kellogg-conforming-rt --seed 0 \\
        --seconds 60 --trace 0
    python3 perfbench/run.py --smoke      # the benchmark's own self-test

Workloads (sizes in ``perfbench/worker.py``):

* ``kellogg-conforming-rt``: the paper's checkerboard benchmark through the
  CLI's default path (P1 + RT recovery, theta 0.5) to a dof budget, with the
  three output files written.  The singular-point quadrature of the true
  error is its largest layer.
* ``uniform-sweep``: uniform refinement of the Kellogg mesh, once for each
  method (conforming-rt, nonconforming-bdm-nd, mixed-nd).  It measures the
  solvers at scale on an ungraded mesh; the mixed saddle-point solve is its
  largest layer.  It ignores the seed.

Adaptive Crouzeix-Raviart with BDM/ND recovery, whose patch oracle dominates,
is not a workload of its own: on a shared 2-core host the runs only stayed
within their bounds with two workloads of 60 s, not three of 40 s.  Its
nonconforming solve and BDM/ND recovery run in ``uniform-sweep``, and the
oracle is timed on both workloads.

Seed 0 is the paper's gamma = 0.1 (R = 161.45); other seeds draw R for the
adaptive workload from the 1 % below it (see ``worker.R_BAND``), and only the
structural output checks apply to them: no exception, budget reached, and
the trailing slope of the true error in [-0.6, -0.4].

Each invocation times set-up in separate fresh interpreters (the median of
``SETUP_PROBES``), then runs the workload repeatedly in one worker process
for ``--seconds`` (at least twice, so that the two ``history.csv`` files can
be compared byte for byte).  ``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter start to the first solve (import, problem
  construction with its runtime verification, initial mesh);
* ``run_s``: mean wall time of one workload run after set-up, over every
  untraced run of the invocation.  The host's speed drifts over tens of
  seconds, so the mean over the whole measured window is steadier than the
  median of its three or four runs;
* ``iter_s.p50``, ``iter_s.p90``: wall time of one solve-to-solve iteration,
  pooled over the runs;
* ``peak_rss_mb``: peak resident memory of the worker process.

``--trace 1`` alternates untraced and traced runs and reports the per-layer
split of the traced ones (see ``perfbench/tracing.py``) and
``trace.overhead``, the traced run time over the untraced one, minus one.
Runs that raise or fail an output check count in ``failed``; the share
``failed_frac`` is printed with the metrics.  The last line of the output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    """The worker's environment: one BLAS/OpenMP thread and the checkout's
    ``src`` first on the import path.

    afemrec's loop is single-threaded Python around small dense and sparse
    solves.  With two BLAS threads on a 2-core host, a uniform-sweep run
    took 14 s of CPU for 11.5 s of wall time, so its timing also hung on the
    load on the second core; one thread keeps a run on one core."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], env: dict, timeout: float) -> dict:
    """Run ``worker.py`` and return the JSON of its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(workload, seed, seconds, trace, smoke=False, tamper=False, probes=SETUP_PROBES):
    """Set up and run one workload; returns (result JSON, report lines)."""
    env = worker_env()
    work = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    try:
        setups = []
        for _ in range(probes):
            t = time.monotonic()
            ready = run_worker(common + ["--setup-only"], env, WORKER_TIMEOUT_S)["ready"]
            setups.append(ready - t)
        argv = common + ["--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
        argv += ["--smoke"] * smoke + ["--tamper"] * tamper
        budget = WORKER_TIMEOUT_S - (time.monotonic() - started)
        raw = run_worker(argv, env, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other invocations may still use it
            work.parent.rmdir()

    reps = raw["reps"]
    failed = sum(not r["ok"] for r in reps)
    timed = [r for r in reps if r["run_s"] is not None]
    untraced = [r["run_s"] for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no run of the workload completed")
    if trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["problems.setup.s"] = raw["problems_setup_s"]
        overhead = statistics.median(r["run_s"] for r in traced) / statistics.median(untraced)
        values["trace.overhead"] = overhead - 1.0
    else:
        iters = [x for r in timed for x in r["iter_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.fmean(untraced),
            "iter_s.p50": percentile(iters, 50),
            "iter_s.p90": percentile(iters, 90),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    # BENCHMARK.json names every reported metric and its unit
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if trace else "end_to_end"]
    }
    env_info = dict(
        raw["versions"],
        nproc=nproc(),
        cpu=cpu_model(),
        threads={var: env[var] for var in THREAD_VARS},
        afemrec=raw["afemrec"],
    )
    lines = [
        f"workload {workload}  seed {seed}  R {raw['R']:.10g}  runs {len(reps)}"
        f" ({sum(r['traced'] for r in reps)} traced)  iterations timed"
        f" {sum(len(r['iter_s']) for r in timed)}  set-up samples {len(setups)}",
        "env " + json.dumps(env_info),
    ]
    lines += [f"  {name:34s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  {'failed_frac':34s} {failed / len(reps):.6g} ({failed}/{len(reps)} runs)")
    lines += [f"  run {i + 1} failed: {r['error']}" for i, r in enumerate(reps) if not r["ok"]]
    if trace:
        seconds = {n: v for n, v in values.items() if n.endswith(".s") and n != "problems.setup.s"}
        lines.append(f"  largest traced layer: {max(seconds, key=seconds.get)}")
    result = dict(correct=failed == 0, attempted=len(reps), failed=failed, metrics=metrics)
    return result, lines


def smoke() -> int:
    """Tiny budgets of every workload, untraced and traced, plus one run
    against a deliberately wrong reference, which must fail."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = measure(workload, 0, 0, trace, smoke=True, probes=1)
            ok &= result["correct"]
            print(f"smoke {workload} trace={trace}: {'ok' if result['correct'] else 'FAILED'}")
            if not result["correct"]:
                print("\n".join(lines))
    result, lines = measure("kellogg-conforming-rt", 0, 0, 0, smoke=True, tamper=True, probes=1)
    caught = result["failed"] > 0 and not result["correct"]
    ok &= caught
    print(f"smoke wrong reference: {'caught' if caught else 'NOT CAUGHT'}"
          f" (failed_frac {result['failed']}/{result['attempted']})")
    print("smoke", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="afemrec benchmark")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "afemrec" / "__init__.py").is_file():
        print(f"perfbench: no afemrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
